"""Term graphs with a nested scope structure.

Signatures are split into atomic symbols and defined (nested) symbols.
A recursive graph specification maps each defined symbol to a term-graph
body; when the induced dependency structure is a tree the specification
is a nested term graph.  The package provides the structural view with
call/return links and ancestor chains, homomorphism and bisimulation at
every level, and a faithful flattening into plain first-order term graphs
together with its inverse.
"""

from .labels import Atomic, Input, Nested, Output, OUTPUT, CUT_SYMBOL
from .graph import (
    HomConflict,
    TermGraph,
    check_root_connected,
    make_graph,
    reachable,
    sub_term_graph,
    tg_bisimilar,
    tg_bisimilar_explained,
    tg_collapse,
    tg_hom,
    tg_hom_explained,
    tg_isomorphic,
    verify_tg_hom,
)
from .rgs import (
    Cycle,
    CoDetViolation,
    DependencyArs,
    DepStep,
    MissingDepthError,
    NtgResult,
    NtgSignature,
    Rgs,
    UnfoldResult,
    UnreachableSymbol,
    Violation,
    dependency_ars,
    dependency_height,
    is_ntg,
    unfold_to_ntg,
    validate_rgs,
)
from .sntg import (
    Sntg,
    SntgViolation,
    check_sntg,
    ntg_to_sntg,
    sntg_bisimilar,
    sntg_hom,
    sntg_hom_explained,
    sntg_to_ntg,
    verify_sntg_hom,
)
from .equivalence import (
    BisimWitness,
    CrossCheckReport,
    NestedBisimRelation,
    NestedBisimResult,
    NestedConfig,
    NestedHomResult,
    NtgIso,
    cross_check_theorems,
    nested_bisim,
    nested_hom,
    ntg_bisimilar,
    ntg_hom,
    ntg_isomorphic,
    verify_nested_bisim,
    verify_ntg_hom,
)
from .firstorder import (
    AncestorFailure,
    FO_INPUT,
    FoInput,
    NotRepresentableError,
    PrimedConst,
    ROOT_INPUT,
    ROOT_OUTPUT,
    RootInput,
    RootOutput,
    check_fully_backlinked,
    infer_ancestors,
    interpret,
    is_rg_member,
    ntg_collapse,
    represent,
    rg_defect,
)
from .formats import (
    ParseError,
    ValidationError,
    export_dot,
    parse_fo,
    parse_rgs,
    print_fo,
    print_rgs,
)
from .cli import run_cli

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
