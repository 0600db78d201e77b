"""Structural representations: all definition bodies glued into one graph.

The bodies of a tree-shaped specification are combined into a single
(non-root-connected) term graph enriched with three maps: ``call`` sends
every occurrence of a defined symbol to the output vertex heading its
definition, ``ret`` sends every input vertex to the occurrence successor
it stands for, and ``inner`` sends every vertex to the innermost
occurrence vertex it is nested under, the last letter of its chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

from .graph import TermGraph, _ancestor_chains, _label_of, reachable
from .labels import Atomic, Input, Nested, Output, _compatible
from .rgs import (
    NtgSignature,
    Rgs,
    _flat_names,
    _reachable_symbols,
    _require,
    _tree_dependencies,
    _uniquify,
)

Vertex = str


@dataclass(frozen=True)
class Sntg:
    """Enriched term graph: ``tg`` plus call, return and innermost-ancestor
    maps.  ``inner`` is None at the top level and has no cycle, so the
    letters of every ancestor chain are pairwise distinct."""

    tg: TermGraph
    call: Mapping[Vertex, Vertex]
    ret: Mapping[Vertex, Vertex]
    inner: Mapping[Vertex, Optional[Vertex]]

    def __post_init__(self):
        object.__setattr__(self, "call", dict(self.call))
        object.__setattr__(self, "ret", dict(self.ret))
        object.__setattr__(self, "inner", dict(self.inner))
        vs = self.tg.lab
        for name, mapping in (("call", self.call), ("ret", self.ret)):
            for k, v in mapping.items():
                if k not in vs or v not in vs:
                    raise ValueError(f"{name} map mentions unknown vertex {k!r} or {v!r}")
        if self.inner.keys() != vs.keys():
            raise ValueError("ancestor map must be total")
        done = {None}  # vertices whose pointers lead to the top level
        for v in vs:
            path = set()
            while v not in done:
                if v not in vs:
                    raise ValueError(f"ancestor pointer to unknown vertex {v!r}")
                if v in path:
                    raise ValueError(f"ancestor pointers form a cycle through {v!r}")
                path.add(v)
                v = self.inner[v]
            done |= path

    @cached_property
    def anc(self) -> Dict[Vertex, Tuple[Vertex, ...]]:
        """The ancestor chains, outermost letter first, built on first read."""
        return _ancestor_chains(self.inner)

    @property
    def root(self) -> Vertex:
        return self.tg.root

    @cached_property
    def _scan(self) -> Tuple[Tuple["SntgViolation", ...], Dict[Vertex, List[Vertex]]]:
        # the violations, and what the call target of each occurrence
        # vertex reaches, in the order of ``reachable``, where that target
        # is an output vertex
        violations, scopes = _check_sntg(self)
        return tuple(violations), scopes

    @property
    def _violations(self) -> Tuple["SntgViolation", ...]:
        return self._scan[0]


@dataclass(frozen=True)
class SntgViolation:
    condition: str
    vertices: Tuple[Vertex, ...]
    message: str

    def __str__(self):
        return f"({self.condition}) at {','.join(self.vertices)}: {self.message}"


def check_sntg(s: Sntg) -> List[SntgViolation]:
    """Evaluate every well-formedness condition; empty list means valid.

    The conditions are checked independently so that a single fault shows
    up under the condition it breaks.  Beyond the defining conditions one
    completeness check is included: every vertex of a definition must be
    reachable from that definition's output vertex ("body-connected"),
    which rules out disconnected junk that the pointwise conditions alone
    cannot see.

    Chains are compared by their last letters, and the constructor rejects
    repeated letters.  One scan of the vertices and one walk per scope,
    linear in the size of the structure; only the violations found are
    sorted, into the report's order: by condition, then by vertex name.
    The check runs once per structure, kept on it with the scopes it
    walked, which ``sntg_to_ntg`` cuts into bodies; each call returns a
    fresh list.
    """
    return list(s._violations)


def _check_sntg(s: Sntg) -> Tuple[List[SntgViolation], Dict[Vertex, List[Vertex]]]:
    g, inner = s.tg, s.inner
    # per condition, in scan order: (the vertex it is reported by, violation)
    roots, arguments, defined, steps, outside, strays = [], [], [], [], [], []

    def bad(into, cond, vs, msg, at=None):
        into.append((vs[0] if at is None else at, SntgViolation(cond, tuple(vs), msg)))

    root = g.root
    if not isinstance(g.lab[root], Nested):
        bad(roots, "root", [root], "root vertex must carry a defined symbol")
    if inner[root] is not None:
        bad(roots, "root", [root], "root vertex must have an empty ancestor chain")
    if g.lab[root].arity != 0:
        bad(roots, "root", [root], "root vertex must be nullary")

    occurrences = []
    levels: Dict[Optional[Vertex], List[Vertex]] = {}  # innermost ancestor -> the vertices below it
    for v, lbl in g.lab.items():
        x = inner[v]
        levels.setdefault(x, []).append(v)
        for w in g.args[v]:
            if inner[w] != x:
                bad(arguments, "arguments", [v, w], "successor has a different ancestor chain")
        if (v in s.call) != isinstance(lbl, Nested):
            bad(defined, "defined", [v], "call must be defined exactly on defined-symbol vertices")
        if (v in s.ret) != isinstance(lbl, Input):
            bad(defined, "defined", [v], "return must be defined exactly on input vertices")
        if isinstance(lbl, Nested) and v in s.call:
            occurrences.append(v)

    scopes: Dict[Vertex, List[Vertex]] = {}  # occurrence -> what its call target reaches
    for v in occurrences:
        o = s.call[v]
        if not isinstance(g.lab[o], Output):
            bad(steps, "step-into", [v, o], "call target is not an output vertex")
            continue
        if inner[o] != v:
            bad(steps, "step-into", [v, o], "call target has the wrong ancestor chain")
        scope = scopes[v] = reachable(g, o)
        outputs = [u for u in scope if isinstance(g.lab[u], Output)]
        if outputs != [o]:
            bad(steps, "step-into", [v, o], "call target is not the single output vertex of its scope")
        by_index: Dict[int, List[Vertex]] = {}
        for u in scope:
            if isinstance(g.lab[u], Input):
                by_index.setdefault(g.lab[u].index, []).append(u)
        for j in range(1, g.lab[v].arity + 1):
            hits = by_index.pop(j, [])
            if len(hits) != 1:
                bad(steps, "step-out", [v], f"scope has {len(hits)} vertices for input index {j}")
                continue
            b = hits[0]
            if b not in s.ret:
                continue  # already reported under (defined)
            if g.args[v][j - 1] != s.ret[b]:
                msg = f"return of input {j} is not successor {j} of the occurrence"
                bad(steps, "step-out", [v, b], msg)
        if by_index:
            j = sorted(by_index)[0]
            msg = f"scope has an input with index {j} beyond the arity"
            bad(steps, "step-out", [v] + by_index[j], msg)

    # completeness: the vertices assigned to a definition level are exactly
    # the vertices its output can reach, and the top level holds only the root
    top = [v for v in levels.get(None, ()) if v != root]
    if top:
        bad(outside, "body-connected", sorted(top, key=str), "vertices outside every definition")
    for v, scope in scopes.items():
        stray = set(levels.get(v, ())).difference(scope)
        if stray:
            msg = f"unreachable from the output vertex {s.call[v]}"
            bad(strays, "body-connected", sorted(stray, key=str), msg, at=v)
    sections = (roots, arguments, defined, steps, outside, strays)
    return [x for found in sections for _, x in sorted(found, key=lambda e: str(e[0]))], scopes


def ntg_to_sntg(n: Rgs) -> Sntg:
    """Glue the bodies of a tree-shaped specification into one structure.

    A fresh root vertex stands for the (implicit) occurrence of the root
    symbol.  Every occurrence vertex is linked to its definition's output
    vertex, every input vertex back to the matching occurrence successor,
    and every vertex of a body to the occurrence the body is copied for.
    """
    deps = _tree_dependencies(n)

    root_vertex = "root"
    lab: Dict[Vertex, object] = {root_vertex: Nested(n.root_symbol, 0)}
    args: Dict[Vertex, tuple] = {root_vertex: ()}
    call: Dict[Vertex, Vertex] = {}
    ret: Dict[Vertex, Vertex] = {}
    inner: Dict[Vertex, Optional[Vertex]] = {root_vertex: None}
    occ_vertex: Dict[str, Vertex] = {n.root_symbol: root_vertex}

    # symbols in dependency order: an occurrence's arguments exist before
    # the inputs of its callee link back to them
    for sym in _reachable_symbols(deps):
        occ = occ_vertex[sym]
        body = n.rec[sym]
        name = _flat_names(sym, body.lab)
        for step in deps.steps_from(sym):
            occ_vertex[step.target] = name[step.vertex]
        for v, lbl in body.lab.items():
            u = name[v]
            lab[u] = lbl
            args[u] = tuple(map(name.__getitem__, body.args[v]))
            inner[u] = occ
            if isinstance(lbl, Input):
                ret[u] = args[occ][lbl.index - 1]
        call[occ] = name[body.root]

    tg = TermGraph(lab, args, root_vertex)
    s = Sntg(tg, call, ret, inner)
    assert not check_sntg(s), "conversion produced an invalid structure"
    return s


def sntg_to_ntg(s: Sntg) -> Rgs:
    """Cut a structural representation back into one definition per
    occurrence vertex; inverse of ``ntg_to_sntg`` up to isomorphism.

    Input indices are recovered from the return links.  When an occurrence
    has duplicate successors the indices are resolved deterministically:
    inputs are scanned in breadth-first order from the definition's output
    vertex, each taking the least index that is still free.
    """
    _require(s, "structural representation")
    g, scopes = s.tg, s._scan[1]

    atomic: Dict[str, int] = {}
    for lbl in g.lab.values():
        if isinstance(lbl, Atomic):
            if atomic.setdefault(lbl.name, lbl.arity) != lbl.arity:
                raise ValueError(f"atomic symbol {lbl.name!r} used at two arities")

    # one definition per occurrence vertex, named by that vertex (primed
    # until clear of atomic, reserved and already-taken names)
    nested_vertices = [v for v in sorted(g.lab, key=str) if isinstance(g.lab[v], Nested)]
    sym_of = _uniquify(nested_vertices, str, avoid=atomic)

    rec: Dict[str, TermGraph] = {}
    nested_sig: Dict[str, int] = {}
    for w in nested_vertices:
        sym = sym_of[w]
        arity = g.lab[w].arity
        nested_sig[sym] = arity
        o = s.call[w]
        body_vertices = scopes[w]  # the check walked every scope of a valid structure
        body_lab: Dict[Vertex, object] = {}
        body_args: Dict[Vertex, tuple] = {}
        assigned: Dict[Vertex, int] = {}
        free = list(range(1, arity + 1))
        for v in body_vertices:
            if isinstance(g.lab[v], Input):
                j = next((j for j in free if g.args[w][j - 1] == s.ret[v]), None)
                if j is None:
                    raise ValueError(f"return link of {v!r} matches no free successor of {w!r}")
                free.remove(j)
                assigned[v] = j
        for v in body_vertices:
            lbl = g.lab[v]
            if isinstance(lbl, Nested):
                body_lab[v] = Nested(sym_of[v], lbl.arity)
            elif isinstance(lbl, Input):
                body_lab[v] = Input(assigned[v])
            else:
                body_lab[v] = lbl
            body_args[v] = g.args[v]
        # a valid structure keeps every argument inside its scope, and the
        # relabeling keeps every arity
        rec[sym] = TermGraph._prechecked(body_lab, body_args, o)

    n = Rgs(NtgSignature(atomic, nested_sig, sym_of[g.root]), rec)
    _require(n, "reconstruction", tree=True)
    return n


@dataclass(frozen=True)
class SntgConflict:
    left: Vertex
    right: Vertex
    reason: str


def _closure(s1: Sntg, s2: Sntg) -> Tuple[List[Tuple[Vertex, Vertex]], bool]:
    """The vertex pairs that the root pair reaches through arguments, call
    and return links, in discovery order, and whether two labels clash.
    On a clash the closure stops: it returns the pairs processed up to and
    including the first clashing pair, which comes last, and not those
    discovered after it.  An invalid structure raises ``ValueError``
    naming its first violation."""
    _require(s1, "left structural representation")
    _require(s2, "right structural representation")
    lab1, args1, lab2, args2 = s1.tg.lab, s1.tg.args, s2.tg.lab, s2.tg.args
    start = (s1.root, s2.root)
    seen = {start}
    order = [start]
    for k, (v, w) in enumerate(order):  # the queue: a list read on while it grows
        l1 = lab1[v]
        if not _compatible(l1, lab2[w]):
            del order[k + 1:]
            return order, True
        if isinstance(l1, (Atomic, Output)):
            # occurrence successors are related through return links, not
            # positionally: input indices may be permuted or merged
            children = zip(args1[v], args2[w])
        elif isinstance(l1, Nested):
            children = [(s1.call[v], s2.call[w])]
        else:
            children = [(s1.ret[v], s2.ret[w])]
        for child in children:
            if child not in seen:
                seen.add(child)
                order.append(child)
    return order, False


def sntg_hom_explained(s1: Sntg, s2: Sntg):
    """The unique homomorphism candidate, read off the pair closure from
    the root pair as a functional bisimulation, then verified in full: a
    conflict names the first pair whose left vertex meets a second right
    vertex, else the clash that stopped the closure, else the first
    failed condition.  An invalid structure raises ``ValueError`` naming
    its first violation."""
    pairs, clash = _closure(s1, s2)
    phi: Dict[Vertex, Vertex] = {}
    for v, w in pairs:
        first = phi.setdefault(v, w)
        if first != w:
            return None, SntgConflict(v, w, f"already mapped to {first!r}")
    if clash:
        v, w = pairs[-1]
        return None, SntgConflict(v, w, f"labels {s1.tg.lab[v]} and {s2.tg.lab[w]} do not match")
    problems = verify_sntg_hom(s1, s2, phi)
    if problems:
        return None, SntgConflict(s1.root, s2.root, problems[0])
    return phi, None


def sntg_hom(s1: Sntg, s2: Sntg) -> Optional[Dict[Vertex, Vertex]]:
    return sntg_hom_explained(s1, s2)[0]


def verify_sntg_hom(s1: Sntg, s2: Sntg, phi: Mapping[Vertex, Vertex]) -> List[str]:
    """Re-check the structure-respecting-morphism conditions for ``phi``.
    Chains are compared by their last letters: by induction on chain
    length, that preserves all chains iff comparing them whole does.  A
    vertex missing from ``phi`` and an image that is not a vertex of
    ``s2``, whatever object it is, are reported, not looked up.  An
    invalid ``s1`` is reported alone, by its first ``check_sntg``
    violation: its links need not be defined where the checks read them."""
    invalid = s1._violations
    if invalid:
        return [f"invalid left structural representation: {invalid[0]}"]
    problems = []
    if phi.get(s1.root) != s2.root:
        problems.append("root not mapped to root")
    for v in sorted(s1.tg.lab, key=str):
        w = phi.get(v)
        if w is None:
            problems.append(f"{v}: map is not total")
            continue
        l1, l2 = s1.tg.lab[v], _label_of(s2.tg, w)
        if l2 is None:
            problems.append(f"{v}: image is not a vertex of the target")
            continue
        if phi.get(s1.inner[v]) != s2.inner[w]:
            problems.append(f"{v}: ancestor chain not preserved")
        if isinstance(l1, Atomic):
            if l1 != l2:
                problems.append(f"{v}: atomic label not preserved")
            elif tuple(phi.get(x) for x in s1.tg.args[v]) != s2.tg.args[w]:
                problems.append(f"{v}: arguments not preserved")
        elif isinstance(l1, Nested):
            if not isinstance(l2, Nested):
                problems.append(f"{v}: occurrence not mapped to an occurrence")
            elif phi.get(s1.call[v]) != s2.call.get(w):
                problems.append(f"{v}: call link not preserved")
        elif isinstance(l1, Output):
            if not isinstance(l2, Output):
                problems.append(f"{v}: output not mapped to an output")
            elif tuple(phi.get(x) for x in s1.tg.args[v]) != s2.tg.args[w]:
                problems.append(f"{v}: output successor not preserved")
        elif isinstance(l1, Input):
            if not isinstance(l2, Input):
                problems.append(f"{v}: input not mapped to an input")
            elif phi.get(s1.ret[v]) != s2.ret.get(w):
                problems.append(f"{v}: return link not preserved")
    return problems


def sntg_bisimilar(s1: Sntg, s2: Sntg) -> Optional[Sntg]:
    """The witness structure over the pairs of the closure from the root
    pair, whose projections are homomorphisms, or None on a clash.

    Each pair ``(v, w)`` lies in the scope that the pair of its innermost
    ancestors opened, and the input pairs of each scope are numbered in
    discovery order.  An occurrence pair takes, for each input pair of the
    scope it opens, the pair that their return links lead to: in a valid
    structure, the argument pair at those inputs' indices.  Every other
    pair keeps the left label and pairs its successors position by
    position.  An invalid structure raises ``ValueError`` naming its first
    violation."""
    order, clash = _closure(s1, s2)
    if clash:
        return None
    lab1, args1, lab2, args2 = s1.tg.lab, s1.tg.args, s2.tg.lab, s2.tg.args
    inner1, inner2 = s1.inner, s2.inner
    inputs: Dict[tuple, List[tuple]] = {}  # scope key -> its input pairs, in discovery order
    number: Dict[tuple, Input] = {}
    for v, w in order:
        if isinstance(lab1[v], Input):
            ins = inputs.setdefault((inner1[v], inner2[w]), [])
            ins.append((v, w))
            number[(v, w)] = Input(len(ins))

    vid = _uniquify(order, lambda pair: f"({pair[0]},{pair[1]})")
    at = vid.__getitem__
    lab: Dict[Vertex, object] = {}
    args: Dict[Vertex, tuple] = {}
    call: Dict[Vertex, Vertex] = {}
    ret: Dict[Vertex, Vertex] = {}
    inner: Dict[Vertex, Optional[Vertex]] = {}
    for p, x in vid.items():  # the witness lists its vertices in discovery order
        v, w = p
        inner[x] = vid.get((inner1[v], inner2[w]))  # None at the root pair
        l1 = lab1[v]
        if isinstance(l1, Input):
            lab[x], args[x] = number[p], ()
            ret[x] = at((s1.ret[v], s2.ret[w]))
        elif isinstance(l1, Nested):
            ins = inputs.get(p, ())
            lab[x] = Nested(f"{l1.name}&{lab2[w].name}", len(ins))
            args[x] = tuple(at((s1.ret[u1], s2.ret[u2])) for u1, u2 in ins)
            call[x] = at((s1.call[v], s2.call[w]))
        else:
            lab[x], args[x] = l1, tuple(map(at, zip(args1[v], args2[w])))
    witness = Sntg(TermGraph(lab, args, vid[order[0]]), call, ret, inner)
    if check_sntg(witness):
        return None
    proj1 = {vid[pair]: pair[0] for pair in order}
    proj2 = {vid[pair]: pair[1] for pair in order}
    assert not verify_sntg_hom(witness, s1, proj1), "left projection fails"
    assert not verify_sntg_hom(witness, s2, proj2), "right projection fails"
    return witness
