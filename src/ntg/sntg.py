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

from .graph import HomConflict, TermGraph, _ancestor_chains, _first_clash, _label_of, reachable, tg_hom_explained
from .labels import Atomic, Input, Nested, Output
from .rgs import (
    NtgSignature,
    Rgs,
    _flat_names,
    _given,
    _reachable_symbols,
    _require,
    _tree_dependencies,
    _uniquify,
    symbol_name_ok,
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
    def _scan(self) -> Tuple[Tuple["SntgViolation", ...], Dict[Vertex, List[Vertex]], Dict[str, int]]:
        # the violations; what the call target of each occurrence vertex
        # reaches, in the order of ``reachable``, where that target is an
        # output vertex; and the first arity met of each atomic name
        return _check_sntg(self)

    @cached_property
    def _encoding(self) -> TermGraph:
        """``tg`` with each occurrence vertex's one successor its call link
        (its arguments are related through return links, not by position:
        input indices may be permuted or merged) and each input vertex's
        its return link, labelled ``call`` and ``return``, the encoding's
        only nested labels; atomic and output vertices keep theirs.  So two
        encoded labels are equal exactly when ``_compatible`` holds.  Built
        on first read, for a valid structure."""
        lab, args = dict(self.tg.lab), dict(self.tg.args)
        for links, label in ((self.call, Nested("call", 1)), (self.ret, Nested("return", 1))):
            for v, u in links.items():
                lab[v], args[v] = label, (u,)
        return TermGraph._prechecked(lab, args, self.tg.root)

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
    up under the condition it breaks.  Beyond the defining conditions, the
    ones a cut into bodies needs are included: no edge enters an output
    vertex ("arguments"); every label is atomic, nested, output or input,
    and each atomic name has one arity and is not reserved ("labels"); and
    every vertex but the root must lie in a definition and be reachable
    from its output vertex ("body-connected"), which rules out junk that
    the pointwise conditions alone cannot see.

    Chains are compared by their last letters, and the constructor rejects
    repeated letters.  One scan of the vertices and one walk per scope,
    linear in the size of the structure; only the violations found are
    sorted, into the report's order: by condition, then by vertex name.
    The check runs once per structure, kept on it with the scopes it
    walked and the arity of each atomic name, which ``sntg_to_ntg`` cuts
    into bodies; each call returns a fresh list.
    """
    return list(s._violations)


def _check_sntg(s: Sntg) -> Tuple[Tuple[SntgViolation, ...], Dict[Vertex, List[Vertex]], Dict[str, int]]:
    g, inner = s.tg, s.inner
    # per condition, in scan order: (the vertex it is reported by, violation)
    roots, arguments, defined, labels, steps, outside, strays = [], [], [], [], [], [], []

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
    arity, clashes = {}, set()  # atomic name -> the first arity met; the names met at two
    for v, lbl in g.lab.items():
        x = inner[v]
        levels.setdefault(x, []).append(v)
        for w in g.args[v]:
            if inner[w] != x:
                bad(arguments, "arguments", [v, w], "successor has a different ancestor chain")
            elif isinstance(g.lab[w], Output):
                bad(arguments, "arguments", [v, w], "edge into the output vertex")
        if (v in s.call) != isinstance(lbl, Nested):
            bad(defined, "defined", [v], "call must be defined exactly on defined-symbol vertices")
        if (v in s.ret) != isinstance(lbl, Input):
            bad(defined, "defined", [v], "return must be defined exactly on input vertices")
        if isinstance(lbl, Atomic):
            if arity.setdefault(lbl.name, lbl.arity) != lbl.arity:
                clashes.add(lbl.name)
        elif isinstance(lbl, Nested) and v in s.call:
            occurrences.append(v)
        elif not isinstance(lbl, (Nested, Output, Input)):
            bad(labels, "labels", [v], f"label {lbl} is not allowed in a body")
    reserved = {name for name in arity if not symbol_name_ok(name)}
    if clashes or reserved:  # each vertex of a faulty atomic name
        for v, lbl in g.lab.items():
            if isinstance(lbl, Atomic) and lbl.name in reserved:
                bad(labels, "labels", [v], f"symbol name {lbl.name!r} is reserved")
            if isinstance(lbl, Atomic) and lbl.name in clashes:
                bad(labels, "labels", [v], f"atomic symbol {lbl.name!r} used at two arities")

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
    # the vertices its output can reach, and the other levels hold only the root
    top = [v for x, below in levels.items() if x not in s.call for v in below if v != root]
    if top:
        bad(outside, "body-connected", sorted(top, key=str), "vertices outside every definition")
    for v, scope in scopes.items():
        stray = set(levels.get(v, ())).difference(scope)
        if stray:
            msg = f"unreachable from the output vertex {s.call[v]}"
            bad(strays, "body-connected", sorted(stray, key=str), msg, at=v)
    sections = (roots, arguments, defined, labels, steps, outside, strays)
    return tuple(x for found in sections for _, x in sorted(found, key=lambda e: str(e[0]))), scopes, arity


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

    Every input vertex keeps its own label: ``check_sntg`` has matched
    each index of a scope to the return link of its one input vertex, so
    the labels already say which argument each input stands for, also
    where an occurrence passes one vertex at two positions.

    A valid structure cuts into a valid, tree-shaped specification, so
    the cut is given its check results (``_given``), and only an
    ``assert`` checks them again: its walks are the scopes the check
    walked, it has no violation and ``is_ntg`` holds.  Each scope is one
    body, closed under successors and rooted at its one output vertex,
    which no edge enters and whose walk reaches all of the body; its
    inputs carry each index from 1 to its arity once.  Each occurrence
    vertex but the root lies in exactly one scope and opens its own
    symbol, at its own arity, and the innermost-ancestor pointers have no
    cycle, so the dependencies form a tree.
    """
    _require(s, "structural representation")
    g, (_, scopes, atomic) = s.tg, s._scan

    # one definition per occurrence vertex, named by that vertex (primed
    # until clear of atomic, reserved and already-taken names)
    nested_vertices = sorted((v for v, lbl in g.lab.items() if isinstance(lbl, Nested)), key=str)
    sym_of = _uniquify(nested_vertices, str, avoid=atomic)

    rec: Dict[str, TermGraph] = {}
    nested_sig: Dict[str, int] = {}
    for w in nested_vertices:
        sym = sym_of[w]
        nested_sig[sym] = g.lab[w].arity
        body_lab: Dict[Vertex, object] = {}
        body_args: Dict[Vertex, tuple] = {}
        for v in scopes[w]:  # the check walked every scope of a valid structure
            lbl = g.lab[v]
            body_lab[v] = Nested(sym_of[v], lbl.arity) if isinstance(lbl, Nested) else lbl
            body_args[v] = g.args[v]
        rec[sym] = TermGraph._prechecked(body_lab, body_args, s.call[w])

    n = Rgs(NtgSignature(atomic, nested_sig, sym_of[g.root]), rec)
    _given(n, {sym_of[w]: (scopes[w], False) for w in nested_vertices})
    assert (fresh := Rgs(n.signature, rec))._walks == n._walks and not fresh._violations and fresh._ntg.ok
    return n


def sntg_hom_explained(s1: Sntg, s2: Sntg):
    """The unique homomorphism candidate, found by ``tg_hom_explained`` on
    the two encodings, then verified in full: a conflict names the first
    pair, in breadth-first order, whose left vertex meets a second right
    vertex or whose labels clash, in the structures' labels, else the
    first failed condition.  The encoding's successors are exactly the
    steps a structural homomorphism is forced along (arguments, call and
    return links), and its labels are equal exactly when ``_compatible``
    holds, so this is the propagation over the structures themselves.  An
    invalid structure raises ``ValueError`` naming its first violation."""
    _require(s1, "left structural representation")
    _require(s2, "right structural representation")
    phi, conflict = tg_hom_explained(s1._encoding, s2._encoding)
    if conflict is not None:
        v, w = conflict.left, conflict.right
        if conflict.reason.startswith("label "):  # a clash, in the encoding's labels
            conflict = HomConflict(v, w, f"labels {s1.tg.lab[v]} and {s2.tg.lab[w]} do not match")
        return None, conflict
    problems = verify_sntg_hom(s1, s2, phi)
    if problems:
        return None, HomConflict(s1.root, s2.root, problems[0])
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
    """The witness structure over the vertex pairs that the root pair
    reaches, whose projections are homomorphisms, or None when the roots
    are not bisimilar.  An invalid structure raises ``ValueError`` naming
    its first violation.

    Decided by ``_first_clash`` on the encodings, with nothing built on a
    clash: their successors are exactly the steps a bisimulation follows
    and their labels are equal exactly when ``_compatible`` holds, and the
    union-find classes of a clash-free closure form a bisimulation up to
    equivalence, so every pair that their product reaches from the root
    pair relates compatible labels.  Only a positive walks that product.
    Each pair ``(v, w)`` lies in the scope that the pair of its innermost
    ancestors opened, a pair found before it, and the input pairs of each
    scope are numbered in discovery order.  An occurrence pair takes, for
    each input pair of the scope it opens, the pair that their return
    links lead to: in a valid structure, the argument pair at those
    inputs' indices.  Every other pair keeps the left label and pairs its
    successors position by position.  So the witness is valid by
    construction, and ``check_sntg`` is only asserted: the call pair is a
    scope's one output pair and reaches all of it, and the input pairs of
    a scope are numbered 1 to the opening pair's arity, their return
    pairs its successors in that order."""
    _require(s1, "left structural representation")
    _require(s2, "right structural representation")
    enc1, enc2 = s1._encoding, s2._encoding
    if _first_clash(enc1, enc2) is not None:
        return None
    start = (s1.root, s2.root)
    seen = {start}
    order = [start]
    for v, w in order:  # the queue: a list read on while it grows
        for pair in zip(enc1.args[v], enc2.args[w]):
            if pair not in seen:
                seen.add(pair)
                order.append(pair)
    lab1, lab2, inner1, inner2 = s1.tg.lab, s2.tg.lab, s1.inner, s2.inner
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
        l1, succ = lab1[v], tuple(map(at, zip(enc1.args[v], enc2.args[w])))
        if isinstance(l1, Input):
            lab[x], args[x], ret[x] = number[p], (), succ[0]
        elif isinstance(l1, Nested):
            ins = inputs.get(p, ())
            lab[x] = Nested(f"{l1.name}&{lab2[w].name}", len(ins))
            args[x] = tuple(at((s1.ret[u1], s2.ret[u2])) for u1, u2 in ins)
            call[x] = succ[0]
        else:
            lab[x], args[x] = l1, succ
    witness = Sntg(TermGraph(lab, args, vid[start]), call, ret, inner)
    proj1 = {vid[pair]: pair[0] for pair in order}
    proj2 = {vid[pair]: pair[1] for pair in order}
    assert not check_sntg(witness), "constructed witness is ill-formed"
    assert not verify_sntg_hom(witness, s1, proj1), "left projection fails"
    assert not verify_sntg_hom(witness, s2, proj2), "right projection fails"
    return witness
