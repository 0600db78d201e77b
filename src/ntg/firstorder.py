"""Interpretation of nested scope structure by plain first-order graphs.

A tree-shaped specification is flattened into an ordinary term graph over
a derived signature: occurrence vertices disappear (edges are redirected
to the definition's output vertex), input vertices become binary with a
back-link to their scope's output vertex, constants become unary and grow
a chain of exit vertices that grounds their nesting level at the root.
Membership in the image class is characterized by the existence of a
unique ancestor assignment, which also drives the inverse translation.

Membership is one forward pass that keeps each vertex's innermost
ancestor and checks the exit chains on the way; ``represent`` reads back
from its result, and only a rejected graph is walked again, for a report.
A unary vertex is a former constant exactly when its chain of exit
vertices, followed along argument 0, ends at a root link: ``_grounded``
walks every chain once, and ``parse_fo`` and the membership pass keep its
answers on the graph, so each chain of a graph is walked once in all.

``interpret`` and ``ntg_collapse`` share one carrier: the specification's
own vertices under these rules, with constants left nullary.  The
flattening adds the exit chains; the collapse never builds them, since a
chain is fixed by its constant's name and enclosing scopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, repeat
from typing import Dict, List, Mapping, Optional

from .graph import TermGraph, _ancestor_chains, _quotient, _refine, check_root_connected
from .labels import OUTPUT, Atomic, Input, Nested, Output
from .rgs import (
    NtgSignature,
    Rgs,
    _flat_names,
    _namer,
    _reachable_symbols,
    _tree_dependencies,
    is_ntg,
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

    Built once per specification and kept on it (``_kept_carrier``), where
    ``interpret`` and ``ntg_collapse`` share it and read it only.  Linear
    time; invalid or not tree-shaped input raises the same ``ValueError``
    as in ``ntg_to_sntg`` (``rgs._tree_dependencies``).
    """
    deps = _tree_dependencies(n)
    rec, order = n.rec, _reachable_symbols(deps)
    # per body, each vertex's name in the carrier: its own flat name, or
    # for an occurrence its callee's output vertex's
    names = {sym: _flat_names(sym, rec[sym].lab) for sym in order}
    intro = {}
    for step in deps.steps:
        names[step.source][step.vertex] = names[step.target][rec[step.target].root]
        intro[step.target] = step
    root = names[n.root_symbol][rec[n.root_symbol].root]
    lab: Dict[Vertex, object] = {}
    args: Dict[Vertex, tuple] = {}
    inner: Dict[Vertex, Optional[Vertex]] = {}
    depth: Dict[Vertex, int] = {root: 0}

    for sym in order:
        body, name = rec[sym], names[sym]
        o = name[body.root]
        if sym != n.root_symbol:
            step = intro[sym]
            caller, at = names[step.source], rec[step.source]
            actual = [caller[w] for w in at.args[step.vertex]]
            x = inner[o] = caller[at.root]
            depth[o] = depth[x] + 1
        else:
            actual, inner[o] = [], None
        succ = name.__getitem__
        for v, lbl in body.lab.items():
            if isinstance(lbl, Nested):
                continue
            u = name[v]
            if isinstance(lbl, Input):
                lab[u] = FO_INPUT
                args[u] = (actual[lbl.index - 1], o)
            else:
                lab[u] = ROOT_OUTPUT if u == root else lbl
                args[u] = tuple(map(succ, body.args[v]))
            if u != o:
                inner[u] = o
    return TermGraph._prechecked(lab, args, root), inner, depth


def _kept_carrier(n: Rgs):
    """The carrier of ``n``, built on first use and kept in ``n.__dict__``,
    as ``equivalence._summarize`` keeps its tables; an error keeps
    nothing."""
    kept = n.__dict__.get("_carrier")
    if kept is None:
        kept = n.__dict__["_carrier"] = _carrier(n)
    return kept


def interpret(n: Rgs) -> TermGraph:
    """Flatten a tree-shaped specification into a first-order term graph.

    The carrier of ``n`` (see ``_carrier``), which ``ntg_collapse`` shares,
    copied with each constant made unary, its successor heading a chain of
    exit vertices, one per enclosing scope, innermost first, ending in a
    link back to the root.  The links of the constant ``v`` are named
    ``v#e1``, ``v#e2``, … and ``v#er``, primed where a carrier vertex's
    name has a ``#`` and they would meet another name.
    """
    c, inner, _ = _kept_carrier(n)
    root = c.root
    # the links ``<v>#e<k>`` and ``<v>#er`` of the chains of distinct
    # vertices differ, and they are clear of the carrier's names unless one
    # of those has a ``#``; only then are they primed until they are clear
    # (one scan of the joined names, as a scan per name costs three times
    # as much)
    new_name = _namer(c.lab) if "#" in "".join(c.lab) else None
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
        if new_name is not None:
            links = [new_name(accumulate(repeat("'"), initial=x)) for x in links]
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


def _propagate(g: TermGraph, grounded: Optional[Mapping[Vertex, bool]] = None):
    """Propagate the forced ancestor assignment from the root, breadth-first.

    Output vertices push themselves onto the chain of their successor,
    ordinary symbols copy it, exit vertices pop one letter (their back-link
    must target exactly the popped letter), and root links must reach the
    root at chain length one.  Every chain extends the chain of its last
    letter, so chains are equal iff their last letters are, and only those
    are kept: ``(inner, depth, None)`` maps each vertex, in the order it is
    reached, to its innermost ancestor (None at the root) and each output
    vertex to its chain length; ``(None, None, failure)`` at the first
    obstruction.  Given ``_grounded``'s chain test, the pass also fails at
    a root-output label away from the root and at a bad exit chain.
    """
    lab, args, root = g.lab, g.args, g.root
    if not isinstance(lab[root], RootOutput):
        return None, None, AncestorFailure(root, "root is not labeled as the root output")
    inner: Dict[Vertex, Optional[Vertex]] = {root: None}
    depth: Dict[Vertex, int] = {}
    order, unseen = [root], object()

    def fail(v: Vertex, reason: str):
        return None, None, AncestorFailure(v, reason)

    for v in order:  # the queue: a list read on while it grows
        lbl, x, succ = lab[v], inner[v], args[v]  # x: the letter for v's successors
        if isinstance(lbl, FoInput):
            succ, back = succ[:1], succ[1]
            if back != x:
                return fail(v, "back-link does not target the innermost ancestor")
            if not isinstance(lab[back], Output):
                return fail(v, "back-link target is not an output vertex")
            x = inner[back]  # the back-link's own chain is already x's
        elif isinstance(lbl, (Output, RootOutput)):
            if grounded is not None and v != root and isinstance(lbl, RootOutput):
                return fail(v, "root-output label away from the root")
            depth[v] = 0 if x is None else depth[x] + 1
            x = v
        elif isinstance(lbl, PrimedConst):
            if grounded is not None and not grounded.get(succ[0]):
                return fail(v, "constant's exit chain does not end at a root link")
        elif isinstance(lbl, RootInput):
            if x != root:
                return fail(v, "root link not at chain length one")
            if succ[0] != root:
                return fail(v, "root link does not target the root")
            continue
        elif not isinstance(lbl, Atomic):
            return fail(v, f"label {lbl} has no first-order reading")
        for w in succ:
            y = inner.get(w, unseen)
            if y is unseen:
                inner[w] = x
                order.append(w)
            elif y != x:
                return fail(w, "conflicting ancestor chains")
    if len(inner) < len(lab):
        return fail(next(v for v in lab if v not in inner), "unreachable from the root")
    return inner, depth, None


def infer_ancestors(g: TermGraph):
    """The forced ancestor assignment (see ``_propagate``): ``(assignment,
    None)`` when a single consistent assignment exists (it is then the only
    one), otherwise ``(None, failure)``.  All vertices below one output
    vertex share one chain."""
    inner, _, err = _propagate(g)
    if err is not None:
        return None, err
    return _ancestor_chains(inner), None


def _grounded(lab, args) -> Dict[Vertex, bool]:
    """Per exit vertex and root link of a first-order graph, whether the
    chain of exit vertices from it, followed along argument 0, ends at a
    root link; every other vertex is absent, so ``.get`` of it is falsy.
    A walk marks each exit vertex ungrounded as it enters it, so a chain
    that runs into a cycle stops there; linear time, each walked once.
    """
    memo = {v: True for v, lbl in lab.items() if isinstance(lbl, RootInput)}
    for v in lab:
        x = v
        while isinstance(lab[x], FoInput) and x not in memo:
            memo[x] = False
            x = args[x][0]
        if memo.get(x):  # the walk from v to x met no cycle
            while v != x:
                memo[v] = True
                v = args[v][0]
    return memo


def _kept_grounded(g: TermGraph) -> Dict[Vertex, bool]:
    """``_grounded`` of ``g``, kept in ``g.__dict__`` as ``_kept_carrier`` keeps the carrier."""
    kept = g.__dict__.get("_grounded")
    if kept is None:
        kept = g.__dict__["_grounded"] = _grounded(g.lab, g.args)
    return kept


def _with_constants(lab: dict, args: dict, root: Vertex) -> TermGraph:
    """The first-order graph over the checked maps of a document, with
    each unary atomic vertex whose exit chain ends at a root link relabeled
    as the constant it was, and its chain test kept on it."""
    g = TermGraph._prechecked(lab, args, root)
    grounded = _kept_grounded(g)  # relabeling keeps every exit vertex and root link
    for v, lbl in lab.items():
        if isinstance(lbl, Atomic) and lbl.arity == 1 and grounded.get(args[v][0]):
            lab[v] = PrimedConst(lbl.name)
    return g


def _member_ancestors(g: TermGraph):
    """``(depth, None)`` when ``g`` represents a nested structure, with each
    output vertex's depth as ``_propagate`` finds it; else ``(None,
    obstruction)``, by the checks in a fixed order, wherever it stopped."""
    grounded = _kept_grounded(g)
    _, depth, err = _propagate(g, grounded)
    if err is None:
        return depth, None
    witness = check_root_connected(g)
    if witness is not None:
        return None, AncestorFailure(witness, "not root-connected")
    for v, lbl in g.lab.items():
        if not isinstance(lbl, _FO_LABELS):
            return None, AncestorFailure(v, f"label {lbl} is not first-order")
        if isinstance(lbl, RootOutput) and v != g.root:
            return None, AncestorFailure(v, "root-output label away from the root")
    # after a propagation each exit vertex's argument lies one level up, so
    # no exit chain is cyclic; one of them is what the pass stopped at
    bad = (v for v, lbl in g.lab.items()
           if isinstance(lbl, PrimedConst) and not grounded.get(g.args[v][0]))
    return None, _propagate(g)[2] or AncestorFailure(
        next(bad), "constant's exit chain does not end at a root link")


def rg_defect(g: TermGraph) -> Optional[AncestorFailure]:
    """None when ``g`` represents a nested structure, else the obstruction."""
    return _member_ancestors(g)[1]


def is_rg_member(g: TermGraph) -> bool:
    return rg_defect(g) is None


def check_fully_backlinked(g: TermGraph) -> bool:
    """Every ancestor of every vertex is forward-reachable from it.

    Equivalently, every vertex reaches the root, the first letter of every
    chain: the vertices below an output vertex ``o`` other than the root
    are left only through exit vertices back-linked to ``o``, so a walk to
    the root passes ``o``, and by induction every letter.  One reverse walk
    from the root decides it in linear time."""
    defect = rg_defect(g)
    if defect is not None:
        raise ValueError(f"not a representing graph: {defect}")
    preds: Dict[Vertex, List[Vertex]] = {v: [] for v in g.lab}
    for v, succ in g.args.items():
        for w in succ:
            preds[w].append(v)
    reach, seen = [g.root], {g.root}
    for v in reach:  # a list read on while it grows
        for u in preds[v]:
            if u not in seen:
                seen.add(u)
                reach.append(u)
    return len(seen) == len(g.lab)


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

    The read-back is one walk per scope, and the walk stays on the scope's
    own level: at a called output vertex it goes on to the actual
    arguments of the callee's inputs, in the callee's order, since
    vertices of a level are reached from deeper scopes only through
    one-level exits.  Scopes are walked innermost first; the bodies are
    then built from what the walks met, on an explicit stack, so the whole
    read-back takes time linear in the graph (after the ancestor
    assignment) and no recursion, whatever the nesting depth.
    """
    depth, defect = _member_ancestors(g)
    if defect is not None:
        raise ValueError(f"not a representing graph: {defect}")
    return _read_back(g, depth)


def _scope_walks(g: TermGraph, depth: Mapping[Vertex, int]) -> Dict[Vertex, tuple]:
    """Per output vertex ``o`` of ``depth``, innermost first: ``(met,
    inputs)``, the vertices one depth-first walk of ``o``'s level meets
    and, of those, the inputs of ``o``, each in first-visit order.  The
    walk does not go on from constants, exit vertices and root links."""
    grounded = _kept_grounded(g)
    walks: Dict[Vertex, tuple] = {}
    for o in sorted(depth, key=depth.__getitem__, reverse=True):
        met: Dict[Vertex, None] = {}
        inputs: List[Vertex] = []
        stack = [g.args[o][0]]
        while stack:
            v = stack.pop()
            if v in met:
                continue
            met[v] = None
            lbl = g.lab[v]
            if isinstance(lbl, Atomic):
                stack.extend(reversed(g.args[v]))
            elif isinstance(lbl, Output):
                # the callee lies one level deeper, so it was walked already
                stack.extend(g.args[b][0] for b in reversed(walks[v][1]))
            elif isinstance(lbl, FoInput) and not grounded[v]:
                inputs.append(v)
        walks[o] = met, inputs
    return walks


def _read_back(g: TermGraph, depth: Mapping[Vertex, int]) -> Rgs:
    """``represent`` for a member ``g``, or for a carrier's quotient (whose
    constants have no exit chains), given each output vertex's ``depth``.

    Each scope's walk (``_scope_walks``) meets only vertices whose
    innermost ancestor is that scope's output vertex ``o``, so no argument
    crosses a scope level.  In a member, ``_propagate`` gives every
    successor of a level-``o`` vertex the letter ``o``: an output vertex
    pushes itself and an exit vertex pops one letter, so the arguments of
    a callee's inputs are at level ``o`` again, and the walk follows no
    back-link.  In ``ntg_collapse``'s quotient the refinement keys each
    vertex by its innermost output vertex, so the same holds there.
    """
    walks = _scope_walks(g, depth)
    atomic: Dict[str, int] = {}

    def note_atomic(name: str, arity: int):
        if atomic.setdefault(name, arity) != arity:
            raise NotRepresentableError(
                f"symbol {name!r} occurs both as a constant and with arity {arity}"
            )

    shared: Dict[object, object] = {}  # one label per constant name and per input index
    nested_sig: Dict[str, int] = {}
    rec: Dict[str, TermGraph] = {}
    # the scopes are named d0, d1, ... in one sequence, passing over the
    # names of the atomic symbols
    new_name = _namer(lbl.name for lbl in g.lab.values() if isinstance(lbl, (Atomic, PrimedConst)))
    scope_names = (f"d{k}" for k in count())

    def vid(sym: str, w: Vertex) -> Vertex:
        # the body vertex for w: all argument edges to one output vertex
        # yield one occurrence vertex, the single occurrence of that call;
        # a scope name ``d<k>`` has no ``:`` or ``/``, so an occurrence
        # ``<sym>/<w>`` never meets another body vertex ``<sym>:<v>``
        return f"{sym}/{w}" if isinstance(g.lab[w], Output) else f"{sym}:{w}"

    # per open scope: its symbol, output vertex, body and the rest of its walk
    stack: List[tuple] = []

    def open_scope(o: Vertex) -> str:
        sym = new_name(scope_names)
        met, inputs = walks[o]
        nested_sig[sym] = len(inputs)
        out_id = f"{sym}:{o}"
        stack.append((sym, out_id, {b: j for j, b in enumerate(inputs, start=1)},
                      {out_id: OUTPUT}, {out_id: (vid(sym, g.args[o][0]),)}, iter(met)))
        return sym

    root_sym = open_scope(g.root)
    while stack:
        sym, out_id, index_of, lab, args, rest = stack[-1]
        for v in rest:
            lbl = g.lab[v]
            if isinstance(lbl, Output):
                # argument edge into an output vertex: a call, whose body is
                # read back before the rest of this one
                actual = [g.args[b][0] for b in walks[v][1]]
                u = f"{sym}/{v}"
                lab[u] = Nested(open_scope(v), len(actual))
                args[u] = tuple(vid(sym, w) for w in actual)
                break
            u = f"{sym}:{v}"
            if isinstance(lbl, Atomic):
                note_atomic(lbl.name, lbl.arity)
                lab[u] = lbl
                args[u] = tuple(vid(sym, w) for w in g.args[v])
            elif isinstance(lbl, PrimedConst):
                note_atomic(lbl.name, 0)
                lab[u] = shared.get(lbl.name) or shared.setdefault(lbl.name, Atomic(lbl.name, 0))
                args[u] = ()
            elif v in index_of:
                j = index_of[v]
                lab[u] = shared.get(j) or shared.setdefault(j, Input(j))
                args[u] = ()
            else:  # a chain link or a root link
                raise NotRepresentableError(f"argument at {v!r} references a constant's exit chain")
        else:
            stack.pop()
            rec[sym] = TermGraph._prechecked(lab, args, out_id)

    assert not walks[g.root][1], "root inputs would back-link to the RootOutput; a quotient's root is nullary"
    n = Rgs(NtgSignature(atomic, nested_sig, root_sym), rec)
    assert not validate_rgs(n), f"reconstruction is ill-formed: {validate_rgs(n)[:1]}"
    assert is_ntg(n).ok, "reconstruction is not tree-shaped"
    return n


def ntg_collapse(n: Rgs) -> Rgs:
    """Maximally shared form of a tree-shaped specification.

    One run of the refinement engine on the carrier (see ``_carrier``),
    which ``interpret`` shares, keyed by each vertex's arguments and
    innermost enclosing output vertex, then the quotient and the
    read-back; the flattening is never built.  Idempotent up to
    isomorphism, and bisimilar inputs collapse to isomorphic results.

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
    c, inner, depth = _kept_carrier(n)
    seqs = {v: c.args[v] if inner[v] is None else c.args[v] + (inner[v],) for v in c.lab}
    block = _refine(c.lab, seqs)
    q = _quotient(c, block)
    q_inner: Dict[Vertex, Optional[Vertex]] = {}  # None at the root output
    assert all(q_inner.setdefault(b, block.get(inner[v])) == block.get(inner[v])
               for v, b in block.items()), "the collapse must respect the scopes"
    return _read_back(q, {block[o]: k for o, k in depth.items()})
