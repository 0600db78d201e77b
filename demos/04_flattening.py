#!/usr/bin/env python3
"""Flattening nested structure into plain first-order term graphs.

The interpretation removes occurrence vertices, turns input vertices into
binary exit vertices with back-links, and grounds every constant with a
chain of exit vertices, one per nesting level.  The class of graphs
arising this way is characterized by a unique inferable ancestor
assignment, which drives the inverse translation; flattening and reading
back is the identity up to isomorphism.
"""

import pathlib
import sys
from collections import Counter

try:
    import ntg
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    import ntg

from ntg import (
    check_fully_backlinked,
    infer_ancestors,
    interpret,
    is_rg_member,
    ntg_collapse,
    ntg_hom,
    ntg_isomorphic,
    parse_rgs,
    print_fo,
    print_rgs,
    represent,
    tg_bisimilar,
    tg_collapse,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
n = parse_rgs((DATA / "n.rgs").read_text())

flat = interpret(n)
census = Counter(str(flat.lab[v]) for v in flat.lab)
print(f"flattened graph: {len(flat)} vertices")
print("  label census:", dict(sorted(census.items())))

anc, err = infer_ancestors(flat)
print("\nancestor assignment inferred:", err is None)
depth = Counter(len(anc[v]) for v in flat.lab)
print("  vertices per nesting depth:", dict(sorted(depth.items())))
print("fully back-linked:", check_fully_backlinked(flat))
print("in the representing class:", is_rg_member(flat))

back = represent(flat)
print("\nreading back gives the original up to isomorphism:",
      ntg_isomorphic(n, back) is not None)

# Maximal sharing: ntg_collapse refines the specification's own vertices
# (occurrences redirected, constants without exit chains) and reads the
# quotient back, without building the flattening.  The collapse of any
# bisimilar specification is the same up to isomorphism.
d = parse_rgs((DATA / "chain_d.rgs").read_text())
a = parse_rgs((DATA / "chain_a.rgs").read_text())
cd, ca = ntg_collapse(d), ntg_collapse(a)
print("\ncollapses of the chain ends coincide:", ntg_isomorphic(cd, ca) is not None)
print("every specification maps homomorphically onto its collapse:",
      ntg_hom(d, cd) is not None)
print("and it is the read-back of the collapsed flattening:",
      ntg_isomorphic(cd, represent(tg_collapse(interpret(d))[0])) is not None)

collapsed_flat, _ = tg_collapse(flat)
print("\nthe collapse of a flattening stays in the representing class:",
      is_rg_member(collapsed_flat))
print("and is bisimilar to it:", tg_bisimilar(flat, collapsed_flat))

print("\nfirst-order document of the trivial example:\n")
print(print_fo(interpret(parse_rgs((DATA / "triv.rgs").read_text()))))
