"""Interpretation of nested scope structure by plain first-order graphs.

A tree-shaped specification is flattened into an ordinary term graph over
a derived signature: occurrence vertices disappear (edges are redirected
to the definition's output vertex), input vertices become binary with a
back-link to their scope's output vertex, constants become unary and grow
a chain of exit vertices that grounds their nesting level at the root.
Membership in the image class is characterized by the existence of a
unique ancestor assignment, which also drives the inverse translation.

``interpret`` and ``ntg_collapse`` share one carrier: the specification's
own vertices under these rules, with constants left nullary.  The
flattening adds the exit chains; the collapse never builds them, since a
chain is fixed by its constant's name and enclosing scopes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from .graph import TermGraph, _quotient, _refine, check_root_connected, reachable
from .labels import Atomic, Input, Nested, Output
from .rgs import (
    NtgSignature,
    Rgs,
    _reachable_symbols,
    _tree_dependencies,
    is_ntg,
    symbol_name_ok,
    validate_rgs,
)

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


def _carrier(n: Rgs):
    """``(g, inner, depth)``: ``g`` holds the non-occurrence vertices of
    ``n`` once each, under their names in the flattening.  An edge into an
    occurrence goes to its callee's output vertex, an input's successors
    are its occurrence's argument and its scope's output vertex, the root
    output is relabeled, and a constant is a nullary leaf.  ``inner`` maps
    each vertex to its innermost enclosing output vertex (None at the
    root output), ``depth`` each output vertex to its nesting depth.

    Linear time; invalid or not tree-shaped input raises the same
    ``ValueError`` as in ``ntg_to_sntg`` (``rgs._tree_dependencies``).
    """
    deps = _tree_dependencies(n)

    out_of = {sym: f"{sym}.{body.root}" for sym, body in n.rec.items()}
    intro = {step.target: step for step in deps.steps}
    root = out_of[n.root_symbol]
    lab: Dict[Vertex, object] = {}
    args: Dict[Vertex, tuple] = {}
    inner: Dict[Vertex, Optional[Vertex]] = {}
    depth: Dict[Vertex, int] = {root: 0}

    def redirect(sym: str, body: TermGraph, v: Vertex) -> Vertex:
        lbl = body.lab[v]
        return out_of[lbl.name] if isinstance(lbl, Nested) else f"{sym}.{v}"

    for sym in _reachable_symbols(deps):
        body = n.rec[sym]
        o = out_of[sym]
        if sym != n.root_symbol:
            step = intro[sym]
            caller = n.rec[step.source]
            actual = [redirect(step.source, caller, w) for w in caller.args[step.vertex]]
            inner[o] = out_of[step.source]
            depth[o] = depth[inner[o]] + 1
        else:
            actual, inner[o] = [], None
        for v in body.lab:
            lbl = body.lab[v]
            if isinstance(lbl, Nested):
                continue
            u = f"{sym}.{v}"
            if isinstance(lbl, Output):
                lab[u] = ROOT_OUTPUT if u == root else lbl
                args[u] = (redirect(sym, body, body.args[v][0]),)
                continue
            if isinstance(lbl, Input):
                lab[u] = FO_INPUT
                args[u] = (actual[lbl.index - 1], o)
            else:
                lab[u] = lbl
                args[u] = tuple(redirect(sym, body, w) for w in body.args[v])
            inner[u] = o
    return TermGraph._prechecked(lab, args, root), inner, depth


def interpret(n: Rgs) -> TermGraph:
    """Flatten a tree-shaped specification into a first-order term graph.

    The carrier of ``n`` (see ``_carrier``) in which each constant becomes
    unary, its successor heading a chain of exit vertices, one per
    enclosing scope, innermost first, ending in a link back to the root.
    """
    c, inner, _ = _carrier(n)
    root = c.root
    lab: Dict[Vertex, object] = {}
    args: Dict[Vertex, tuple] = {}
    for v, lbl in c.lab.items():
        if not (isinstance(lbl, Atomic) and lbl.arity == 0):
            lab[v] = lbl
            args[v] = c.args[v]
            continue
        lab[v] = PrimedConst(lbl.name)
        outs = []  # the scopes the chain leaves, innermost first
        o = inner[v]
        while o != root:
            outs.append(o)
            o = inner[o]
        links = [f"{v}#e{k}" for k in range(1, len(outs) + 1)] + [f"{v}#er"]
        args[v] = (links[0],)
        for k, o in enumerate(outs):
            lab[links[k]] = FO_INPUT
            args[links[k]] = (links[k + 1], o)
        lab[links[-1]] = ROOT_INPUT
        args[links[-1]] = (root,)

    out = TermGraph._prechecked(lab, args, root)
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

    Every chain built this way extends the chain of its last letter, so a
    popped chain is that letter's own chain and is shared, not copied;
    only output vertices build a new chain.
    """
    if not isinstance(g.lab[g.root], RootOutput):
        return None, AncestorFailure(g.root, "root is not labeled as the root output")
    anc: Dict[Vertex, tuple] = {g.root: ()}
    queue = deque([g.root])

    def assign(v: Vertex, chain: tuple):
        if v in anc:
            if anc[v] is not chain and anc[v] != chain:
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
            outer = anc[back]  # == chain[:-1]
            err = assign(arg, outer) or assign(back, outer)
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


def exit_chain_ends(lab, args) -> Callable[[Vertex], Vertex]:
    """Memoised walk along the exit chains of a first-order graph.

    ``end(v)`` follows argument edge 0 from ``v`` for as long as it stands
    on an exit vertex and returns where the walk stops: the first vertex
    that is not an exit vertex (a root link, for a well-formed chain), or,
    when the walk runs into a cycle, the first exit vertex met twice.
    Every exit vertex keeps its answer once walked, so the chains of all
    constants together cost time linear in the graph, even when many
    constants share one long chain.
    """
    memo: Dict[Vertex, Vertex] = {}

    def end(v: Vertex) -> Vertex:
        path: List[Vertex] = []
        at: Dict[Vertex, int] = {}
        x = v
        while x not in memo and isinstance(lab[x], FoInput):
            if x in at:
                # on the cycle each vertex is the first met twice from itself
                first = at[x]
                for u in path[first:]:
                    memo[u] = u
                for u in path[:first]:
                    memo[u] = x
                return memo[v]
            at[x] = len(path)
            path.append(x)
            x = args[x][0]
        stop = memo.get(x, x)
        for u in path:
            memo[u] = stop
        return stop

    return end


def _member_ancestors(g: TermGraph):
    """``(anc, None)`` when ``g`` represents a nested structure, with its
    unique ancestor assignment; otherwise ``(None, obstruction)``."""
    witness = check_root_connected(g)
    if witness is not None:
        return None, AncestorFailure(witness, "not root-connected")
    for v in g.lab:
        if not isinstance(g.lab[v], _FO_LABELS):
            return None, AncestorFailure(v, f"label {g.lab[v]} is not first-order")
        if isinstance(g.lab[v], RootOutput) and v != g.root:
            return None, AncestorFailure(v, "root-output label away from the root")
    anc, err = infer_ancestors(g)
    if err is not None:
        return None, err
    end = exit_chain_ends(g.lab, g.args)
    for v in g.lab:
        if isinstance(g.lab[v], PrimedConst):
            x = end(g.args[v][0])
            if isinstance(g.lab[x], FoInput):
                return None, AncestorFailure(x, "cyclic exit chain")
            if not isinstance(g.lab[x], RootInput):
                return None, AncestorFailure(v, "constant's exit chain does not end at a root link")
    return anc, None


def rg_defect(g: TermGraph) -> Optional[AncestorFailure]:
    """None when ``g`` represents a nested structure, else the obstruction."""
    return _member_ancestors(g)[1]


def is_rg_member(g: TermGraph) -> bool:
    return rg_defect(g) is None


def check_fully_backlinked(g: TermGraph) -> bool:
    """Every ancestor of every vertex is forward-reachable from it."""
    anc, defect = _member_ancestors(g)
    if defect is not None:
        raise ValueError(f"not a representing graph: {defect}")
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
    vertices) become occurrence vertices, one per called output vertex in
    a body; constants drop their exit chains.  Input indices follow the
    first-visit order of a depth-first walk from each definition's output
    vertex along argument edges, through called definitions and back out
    along their exit vertices.

    That walk is computed once per scope and stays on the scope's own
    level: at a called output vertex it goes on to the actual arguments of
    the callee's inputs, in the callee's order, since vertices of a level
    are reached from deeper scopes only through one-level exits.  Scopes
    are done innermost first, and the bodies are built from an explicit
    stack, so the whole read-back takes time linear in the graph (after
    the ancestor assignment) and no recursion, whatever the nesting depth.
    """
    anc, defect = _member_ancestors(g)
    if defect is not None:
        raise ValueError(f"not a representing graph: {defect}")
    # Every chain of the assignment extends the chain of its last letter,
    # so two vertices share a level exactly when their innermost ancestors
    # agree; comparing those costs O(1) instead of O(depth).
    inner = {v: chain[-1] if chain else None for v, chain in anc.items()}
    return _read_back(g, inner, {v: len(chain) for v, chain in anc.items()})


class _Scope:
    """A definition under construction: the body read back from the level
    below output vertex ``o``."""

    __slots__ = ("sym", "o", "index_of", "lab", "args", "memo")

    def __init__(self, sym: str, o: Vertex, inputs: List[Vertex]):
        self.sym = sym
        self.o = o
        self.index_of = {b: j for j, b in enumerate(inputs, start=1)}
        self.lab: Dict[Vertex, object] = {f"{sym}:{o}": Output()}
        self.args: Dict[Vertex, tuple] = {}
        # graph vertex -> body vertex standing for it.  Shared within the
        # body: all argument edges to one output vertex yield one
        # occurrence vertex, the single occurrence of that call in scope.
        self.memo: Dict[Vertex, Vertex] = {}


def _read_back(g: TermGraph, inner: Mapping[Vertex, Optional[Vertex]],
               depth: Mapping[Vertex, int]) -> Rgs:
    """``represent`` for a member ``g``, or for a carrier's quotient (whose
    constants have no exit chains), given each vertex's innermost
    enclosing output vertex ``inner`` and each output vertex's ``depth``."""
    end = exit_chain_ends(g.lab, g.args)

    def is_chain(v: Vertex) -> bool:
        return isinstance(g.lab[end(v)], RootInput)

    # inputs of each scope in first-visit order; a scope's walk reads the
    # input lists of the scopes it calls, which lie one level deeper
    outputs = [v for v in g.lab if isinstance(g.lab[v], (Output, RootOutput))]
    inputs_of: Dict[Vertex, List[Vertex]] = {}
    for o in sorted(outputs, key=depth.__getitem__, reverse=True):
        order: List[Vertex] = []
        seen = set()
        stack = [g.args[o][0]]
        while stack:
            v = stack.pop()
            if v in seen or inner[v] != o:
                continue
            seen.add(v)
            lbl = g.lab[v]
            if isinstance(lbl, Atomic):
                stack.extend(reversed(g.args[v]))
            elif isinstance(lbl, Output):
                stack.extend(g.args[b][0] for b in reversed(inputs_of[v]))
            elif isinstance(lbl, FoInput) and not is_chain(v):
                order.append(v)
            # constants, chain links and root links lead off the level
        inputs_of[o] = order

    atomic: Dict[str, int] = {}

    def note_atomic(name: str, arity: int):
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

    def open_scope(o: Vertex) -> _Scope:
        while True:
            sym = f"d{counter[0]}"
            counter[0] += 1
            if sym not in taken and symbol_name_ok(sym):
                break
        nested_sig[sym] = len(inputs_of[o])
        return _Scope(sym, o, inputs_of[o])

    # Work items, run last-in first-out in the order a recursive
    # translation would run them: VISIT translates a vertex into a body,
    # SEAL fixes the successors of a body vertex once they are translated,
    # CLOSE finishes a body.
    VISIT, SEAL, CLOSE = range(3)
    root = open_scope(g.root)
    work = [(CLOSE, root, None, None), (VISIT, root, g.args[g.root][0], None)]
    while work:
        step, scope, v, succ = work.pop()
        if step == SEAL:
            scope.args[v] = tuple(scope.memo[w] for w in succ)
            continue
        if step == CLOSE:
            out_id = f"{scope.sym}:{scope.o}"
            scope.args[out_id] = (scope.memo[g.args[scope.o][0]],)
            rec[scope.sym] = TermGraph._prechecked(scope.lab, scope.args, out_id)
            continue
        if v in scope.memo:
            continue
        lbl = g.lab[v]
        if isinstance(lbl, (Output, RootOutput)):
            # argument edge into an output vertex: a call
            if inner[v] != scope.o:
                raise NotRepresentableError(f"call at {v!r} crosses a scope level")
            occ_id = f"{scope.sym}:call:{v}"
            scope.memo[v] = occ_id
            callee = open_scope(v)
            scope.lab[occ_id] = Nested(callee.sym, len(inputs_of[v]))
            actual = [g.args[b][0] for b in inputs_of[v]]
            work.append((SEAL, scope, occ_id, actual))
            work.extend((VISIT, scope, w, None) for w in reversed(actual))
            work.append((CLOSE, callee, None, None))
            work.append((VISIT, callee, g.args[v][0], None))
            continue
        if isinstance(lbl, RootInput) or (isinstance(lbl, FoInput) and is_chain(v)):
            raise NotRepresentableError(
                f"argument at {v!r} references a constant's exit chain"
            )
        if inner[v] != scope.o:
            raise NotRepresentableError(f"argument {v!r} crosses a scope level")
        vid = f"{scope.sym}:{v}"
        scope.memo[v] = vid
        if isinstance(lbl, Atomic):
            note_atomic(lbl.name, lbl.arity)
            scope.lab[vid] = lbl
            work.append((SEAL, scope, vid, g.args[v]))
            work.extend((VISIT, scope, w, None) for w in reversed(g.args[v]))
        elif isinstance(lbl, PrimedConst):
            note_atomic(lbl.name, 0)
            scope.lab[vid] = Atomic(lbl.name, 0)
            scope.args[vid] = ()
        else:
            scope.lab[vid] = Input(scope.index_of[v])
            scope.args[vid] = ()

    if inputs_of[g.root]:
        raise NotRepresentableError("root definition has inputs")
    sig = NtgSignature(atomic, nested_sig, root.sym)
    n = Rgs(sig, rec)
    assert not validate_rgs(n), f"reconstruction is ill-formed: {validate_rgs(n)[:1]}"
    assert is_ntg(n).ok, "reconstruction is not tree-shaped"
    return n


def ntg_collapse(n: Rgs) -> Rgs:
    """Maximally shared form of a tree-shaped specification.

    One run of the refinement engine on the carrier (see ``_carrier``),
    keyed by each vertex's arguments and innermost enclosing output
    vertex, then the quotient and the read-back; the flattening is never
    built.  Idempotent up to isomorphism, and bisimilar inputs collapse to
    isomorphic results.

    The innermost output vertex keeps scopes apart.  Plain refinement can
    merge equally-shaped cycles across scope levels when those cycles
    never reach an exit vertex (the flattening is then not fully
    back-linked), and the quotient would leave the representing class.
    The key is exact: a homomorphism carries the forced ancestor
    assignment onto that of its image, so whenever the plain quotient is
    in the class its partition already respects the ancestors and equals
    this one.  The innermost output vertex is enough, because every chain
    is the chain of its last letter with that letter appended: a
    partition that respects the last letters respects the whole chains,
    by induction on their length.  For the same reason the exit chains
    can be left out: two constants of one name share a chain in the
    collapse of the flattening exactly when their innermost output
    vertices share a block, so both collapses agree on the carrier.

    This costs O(m log m) time for the m vertices and edges of ``n``,
    whose flattening can have Θ(m²) vertices on deep nesting.
    """
    c, inner, depth = _carrier(n)
    seqs = {v: c.args[v] if inner[v] is None else c.args[v] + (inner[v],) for v in c.lab}
    block = _refine(c.lab, seqs)
    q = _quotient(c, block)
    q_inner: Dict[Vertex, Optional[Vertex]] = {}
    for v, b in block.items():
        i = block.get(inner[v])  # None at the root output
        q_inner.setdefault(b, i)
        assert q_inner[b] == i, "the collapse must respect the scopes"
    q_depth = {block[o]: k for o, k in depth.items()}
    return _read_back(q, q_inner, q_depth)
