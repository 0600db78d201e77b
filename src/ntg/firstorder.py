"""Interpretation of nested scope structure by plain first-order graphs.

A tree-shaped specification is flattened into an ordinary term graph over
a derived signature: occurrence vertices disappear (edges are redirected
to the definition's output vertex), input vertices become binary with a
back-link to their scope's output vertex, constants become unary and grow
a chain of exit vertices that grounds their nesting level at the root.
Membership in the image class is characterized by the existence of a
unique ancestor assignment, which also drives the inverse translation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graph import TermGraph, _quotient, _refine, check_root_connected, reachable, tg_collapse
from .labels import Atomic, Input, Nested, Output
from .rgs import NtgSignature, Rgs, symbol_name_ok, validate_rgs, is_ntg
from .sntg import ntg_to_sntg

Vertex = str


@dataclass(frozen=True)
class PrimedConst:
    """A former constant, now unary: its successor locates its scope exit."""

    name: str

    @property
    def arity(self) -> int:
        return 1

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class FoInput:
    """Binary scope-exit vertex: edge 0 continues in the calling scope,
    edge 1 back-links to the scope's output vertex."""

    @property
    def arity(self) -> int:
        return 2

    def __str__(self):
        return "in"


@dataclass(frozen=True)
class RootOutput:
    """The output vertex of the root definition."""

    @property
    def arity(self) -> int:
        return 1

    def __str__(self):
        return "out_r"


@dataclass(frozen=True)
class RootInput:
    """Final link of a constant's exit chain, pointing at the root."""

    @property
    def arity(self) -> int:
        return 1

    def __str__(self):
        return "in_r"


FO_INPUT = FoInput()
ROOT_OUTPUT = RootOutput()
ROOT_INPUT = RootInput()


def interpret(n: Rgs) -> TermGraph:
    """Flatten a tree-shaped specification into a first-order term graph.

    Starting from the structural representation: occurrence vertices are
    removed with incoming edges redirected to their definition's output
    vertex; each input vertex becomes binary (argument, then back-link to
    the enclosing output vertex); the root definition's output vertex is
    relabeled; and each constant becomes unary, its successor heading a
    chain of exit vertices, one per nesting level, ending in a link back
    to the root.
    """
    s = ntg_to_sntg(n)
    g = s.tg

    def redirect(v: Vertex) -> Vertex:
        return s.call[v] if isinstance(g.lab[v], Nested) else v

    root = s.call[g.root]
    lab: Dict[Vertex, object] = {}
    args: Dict[Vertex, tuple] = {}
    for v in g.lab:
        lbl = g.lab[v]
        if isinstance(lbl, Nested):
            continue
        if isinstance(lbl, Output):
            lab[v] = ROOT_OUTPUT if v == root else lbl
            args[v] = (redirect(g.args[v][0]),)
        elif isinstance(lbl, Input):
            occ = s.anc[v][-1]
            lab[v] = FO_INPUT
            args[v] = (redirect(s.ret[v]), s.call[occ])
        elif isinstance(lbl, Atomic) and lbl.arity == 0:
            lab[v] = PrimedConst(lbl.name)
            chain = s.anc[v]  # occurrence vertices, innermost last
            depth = len(chain)
            links = [f"{v}#e{k}" for k in range(1, depth)] + [f"{v}#er"]
            args[v] = (links[0],)
            for k in range(1, depth):
                # k-th exit leaves the scope opened by chain[depth - k]
                lab[links[k - 1]] = FO_INPUT
                args[links[k - 1]] = (links[k], s.call[chain[depth - k]])
            lab[links[-1]] = ROOT_INPUT
            args[links[-1]] = (root,)
        else:
            lab[v] = lbl
            args[v] = tuple(redirect(w) for w in g.args[v])

    out = TermGraph(lab, args, root)
    assert check_root_connected(out) is None, "interpretation must be root-connected"
    return out


@dataclass(frozen=True)
class AncestorFailure:
    vertex: Vertex
    reason: str

    def __str__(self):
        return f"{self.vertex}: {self.reason}"


_FO_LABELS = (Atomic, PrimedConst, Output, RootOutput, FoInput, RootInput)


def infer_ancestors(g: TermGraph):
    """Propagate the forced ancestor assignment from the root.

    Output vertices push themselves onto the chain of their successor,
    ordinary symbols copy it, exit vertices pop one letter (their back-link
    must target exactly the popped letter), and root links must reach the
    root at chain length one.  Returns ``(assignment, None)`` when a single
    consistent assignment exists (it is then the only one), otherwise
    ``(None, failure)``.
    """
    if not isinstance(g.lab[g.root], RootOutput):
        return None, AncestorFailure(g.root, "root is not labeled as the root output")
    anc: Dict[Vertex, tuple] = {g.root: ()}
    queue = deque([g.root])

    def assign(v: Vertex, chain: tuple):
        if v in anc:
            if anc[v] != chain:
                return AncestorFailure(v, "conflicting ancestor chains")
            return None
        anc[v] = chain
        queue.append(v)
        return None

    while queue:
        v = queue.popleft()
        lbl = g.lab[v]
        chain = anc[v]
        if isinstance(lbl, (Output, RootOutput)):
            err = assign(g.args[v][0], chain + (v,))
        elif isinstance(lbl, (Atomic, PrimedConst)):
            err = None
            for w in g.args[v]:
                err = err or assign(w, chain)
        elif isinstance(lbl, FoInput):
            if not chain:
                return None, AncestorFailure(v, "exit vertex with an empty ancestor chain")
            arg, back = g.args[v]
            if back != chain[-1]:
                return None, AncestorFailure(v, "back-link does not target the innermost ancestor")
            if not isinstance(g.lab[back], Output):
                return None, AncestorFailure(v, "back-link target is not an output vertex")
            err = assign(arg, chain[:-1]) or assign(back, chain[:-1])
        elif isinstance(lbl, RootInput):
            if chain != (g.root,):
                return None, AncestorFailure(v, "root link not at chain length one")
            if g.args[v][0] != g.root:
                return None, AncestorFailure(v, "root link does not target the root")
            err = None
        else:
            return None, AncestorFailure(v, f"label {lbl} has no first-order reading")
        if err is not None:
            return None, err
    for v in g.lab:
        if v not in anc:
            return None, AncestorFailure(v, "unreachable from the root")
    return anc, None


def rg_defect(g: TermGraph) -> Optional[AncestorFailure]:
    """None when ``g`` represents a nested structure, else the obstruction."""
    witness = check_root_connected(g)
    if witness is not None:
        return AncestorFailure(witness, "not root-connected")
    for v in g.lab:
        if not isinstance(g.lab[v], _FO_LABELS):
            return AncestorFailure(v, f"label {g.lab[v]} is not first-order")
        if isinstance(g.lab[v], RootOutput) and v != g.root:
            return AncestorFailure(v, "root-output label away from the root")
    anc, err = infer_ancestors(g)
    if err is not None:
        return err
    for v in g.lab:
        if isinstance(g.lab[v], PrimedConst):
            x = g.args[v][0]
            seen = set()
            while isinstance(g.lab[x], FoInput):
                if x in seen:
                    return AncestorFailure(x, "cyclic exit chain")
                seen.add(x)
                x = g.args[x][0]
            if not isinstance(g.lab[x], RootInput):
                return AncestorFailure(v, "constant's exit chain does not end at a root link")
    return None


def is_rg_member(g: TermGraph) -> bool:
    return rg_defect(g) is None


def check_fully_backlinked(g: TermGraph) -> bool:
    """Every ancestor of every vertex is forward-reachable from it."""
    defect = rg_defect(g)
    if defect is not None:
        raise ValueError(f"not a representing graph: {defect}")
    anc, _ = infer_ancestors(g)
    for v in g.lab:
        if not anc[v]:
            continue
        seen = set(reachable(g, v))
        if not set(anc[v]) <= seen:
            return False
    return True


class NotRepresentableError(ValueError):
    """The graph satisfies the ancestor conditions but references exit
    plumbing from argument positions, so no specification reads back."""


def represent(g: TermGraph) -> Rgs:
    """Reconstruct a tree-shaped specification from a representing graph.

    Every output vertex opens a definition whose body consists of the
    vertices one level below it.  Call edges (argument edges into output
    vertices) become fresh occurrence vertices, one per edge, duplicating
    shared definitions so the result's dependencies form a tree; constants
    drop their exit chains; input indices are assigned in first-visit
    order of a depth-first walk from each definition's output vertex.
    """
    defect = rg_defect(g)
    if defect is not None:
        raise ValueError(f"not a representing graph: {defect}")
    anc, _ = infer_ancestors(g)

    chain_vertex: Dict[Vertex, bool] = {}

    def is_chain(v: Vertex) -> bool:
        if v in chain_vertex:
            return chain_vertex[v]
        x = v
        path = []
        while isinstance(g.lab[x], FoInput) and x not in chain_vertex:
            path.append(x)
            x = g.args[x][0]
        verdict = chain_vertex[x] if x in chain_vertex else isinstance(g.lab[x], RootInput)
        for u in path:
            chain_vertex[u] = verdict
        return verdict

    def scope_inputs(o: Vertex) -> List[Vertex]:
        # first-visit order of a depth-first walk along argument edges
        level = anc[o] + (o,)
        seen = set()
        order = []
        stack = [o]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            if isinstance(g.lab[v], FoInput) and anc[v] == level and not is_chain(v):
                order.append(v)
            stack.extend(reversed(g.args[v]))
        return order

    atomic: Dict[str, int] = {}

    def note_atomic(name: str, arity: int, v: Vertex):
        if atomic.setdefault(name, arity) != arity:
            raise NotRepresentableError(
                f"symbol {name!r} occurs both as a constant and with arity {arity}"
            )

    counter = [0]
    nested_sig: Dict[str, int] = {}
    rec: Dict[str, TermGraph] = {}
    taken = {
        lbl.name for lbl in g.lab.values() if isinstance(lbl, (Atomic, PrimedConst))
    }

    def fresh_symbol() -> str:
        while True:
            name = f"d{counter[0]}"
            counter[0] += 1
            if name not in taken and symbol_name_ok(name):
                return name

    def build(o: Vertex) -> Tuple[str, int]:
        sym = fresh_symbol()
        level = anc[o] + (o,)
        inputs = scope_inputs(o)
        index_of = {b: j for j, b in enumerate(inputs, start=1)}
        nested_sig[sym] = len(inputs)

        lab: Dict[Vertex, object] = {}
        args: Dict[Vertex, tuple] = {}
        memo: Dict[Vertex, Vertex] = {}

        def translate(v: Vertex) -> Vertex:
            """Body vertex standing for ``v`` in this definition.

            Shared within the definition: all argument edges to the same
            output vertex yield one occurrence vertex, since they all
            denote the single occurrence of that call in this scope.
            """
            if v in memo:
                return memo[v]
            lbl = g.lab[v]
            if isinstance(lbl, (Output, RootOutput)):
                # argument edge into an output vertex: a call
                if anc[v] != level:
                    raise NotRepresentableError(f"call at {v!r} crosses a scope level")
                occ_id = f"{sym}:call:{v}"
                memo[v] = occ_id
                child_sym, child_arity = build(v)
                lab[occ_id] = Nested(child_sym, child_arity)
                args[occ_id] = tuple(translate(g.args[b][0]) for b in scope_inputs(v))
                return occ_id
            if isinstance(lbl, RootInput) or (isinstance(lbl, FoInput) and is_chain(v)):
                raise NotRepresentableError(
                    f"argument at {v!r} references a constant's exit chain"
                )
            if anc[v] != level:
                raise NotRepresentableError(f"argument {v!r} crosses a scope level")
            vid = f"{sym}:{v}"
            memo[v] = vid
            if isinstance(lbl, Atomic):
                note_atomic(lbl.name, lbl.arity, v)
                lab[vid] = lbl
                args[vid] = tuple(translate(w) for w in g.args[v])
            elif isinstance(lbl, PrimedConst):
                note_atomic(lbl.name, 0, v)
                lab[vid] = Atomic(lbl.name, 0)
                args[vid] = ()
            else:
                lab[vid] = Input(index_of[v])
                args[vid] = ()
            return vid

        out_id = f"{sym}:{o}"
        lab[out_id] = Output()
        args[out_id] = (translate(g.args[o][0]),)
        rec[sym] = TermGraph(lab, args, out_id)
        return sym, len(inputs)

    root_sym, root_arity = build(g.root)
    if root_arity != 0:
        raise NotRepresentableError("root definition has inputs")
    sig = NtgSignature(atomic, nested_sig, root_sym)
    n = Rgs(sig, rec)
    bad = validate_rgs(n)
    assert not bad, f"reconstruction is ill-formed: {bad[:1]}"
    assert is_ntg(n).ok, "reconstruction is not tree-shaped"
    return n


def _scoped_collapse(g: TermGraph) -> TermGraph:
    """Coarsest quotient that respects labels, arguments and the ancestor
    assignment.

    Plain partition refinement can merge equally-shaped cycles across
    scope levels when those cycles never reach an exit vertex (the graph
    is then not fully back-linked), which destroys the ancestor
    assignment.  Refining by the ancestor chains as well keeps the
    quotient in the representing class; on fully back-linked graphs the
    back-link edges already enforce this, so both refinements coincide.
    The chains enter the same refinement engine as the arguments, as
    further positions, so this takes O(m log n) time where m counts the
    edges plus the total length of the ancestor chains.
    """
    anc, err = infer_ancestors(g)
    assert err is None
    return _quotient(g, _refine(g.lab, g.args, anc))


def ntg_collapse(n: Rgs) -> Rgs:
    """Maximally shared form of a tree-shaped specification.

    Computed by flattening, collapsing the first-order graph, and reading
    the result back.  Idempotent up to isomorphism, and bisimilar inputs
    collapse to isomorphic results.  When the flattening is not fully
    back-linked the plain collapse may leave the representing class; the
    scope-respecting collapse is used instead in that case.
    """
    flat = interpret(n)
    collapsed, _ = tg_collapse(flat)
    if rg_defect(collapsed) is not None:
        collapsed = _scoped_collapse(flat)
    return represent(collapsed)
