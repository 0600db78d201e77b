"""Independent oracles for cross-checking the library's algorithms.

These deliberately use different formulations: plain enumeration with a
clause verifier for homomorphisms, a greatest-fixpoint computation over
vertex pairs for the collapse, round-by-round refinement as the reference
block map of the collapse engine, the plain-then-scoped collapse as the
reference of ``ntg_collapse``, a whole-graph walk per scope as the
reference input order of the read-back, a backtracking enumeration of
ancestor assignments, a whole-text scanner as the reference tokenizer,
a replay of the explicit progression rules as the checker of the
paths and runs of ``nested_bisim`` and ``nested_hom``, the explicit
closure over stack-prefixed configurations as the reference of the
relation expanded from the summaries and, with a functionality scan, of
the summary-based ``nested_hom`` and its certificate, and the flattening
built from the structural representation, with the collapse of that
flattening read back, as the references of the carrier-based
``interpret`` and ``ntg_collapse``, and two witness builders for
bisimilarity: the global pair closure over tree-shaped specifications and
the quotient of an explicit relation by its stack pairs, as the references
of the summary-based witness.  The carrier sorted by vertex name is the
reference of the library's sort-free carrier and the carrier the closure
oracles walk, and the unfolding that walks every instance twice is the
reference of ``unfold_to_ntg``.  The checks as they were before each
became one linear pass, sorting every body's vertices and diagnosing
every specification, are the references of the body checks of
``validate_rgs``, of the dependency steps and verdict of ``is_ntg``, of
``check_sntg`` and, on the reference carrier, of ``verify_ntg_hom``.
The chains ``ntg_to_sntg`` stored before a structure kept only innermost
ancestors are the reference of the chains ``Sntg.anc`` spells out.
The carrier as it was glued before each body's vertices were named once,
one name formatted per edge, is the reference of the carrier that
``interpret`` and ``ntg_collapse`` share.
Membership as it was before one propagation accepted members, with
whole ancestor chains and its checks run in order on every graph, is the
reference of ``infer_ancestors``, ``rg_defect`` and, through the
library's read-back, ``represent``; a walk from every vertex is the
reference of ``check_fully_backlinked``.  Synchronized bijective walks,
of two graphs and of each pair of bodies, are the references of
``tg_isomorphic`` and ``ntg_isomorphic``, which read the homomorphism
engines.  The tabulation as it was before it read the bodies directly,
asking the carrier for every label and successor tuple and keying every
pair by its two carrier vertices, is the reference of the summary tables
of ``_tabulate``.  The witness builders as they were before they took
each scope's two sides' maps, reading every pair through callbacks, are
the references of the witnesses of ``nested_bisim`` and
``sntg_bisimilar``.  The priming loop and the
``d<k>`` counter the library ran before one namer made every name are
the references of the names of witnesses, of ``sntg_to_ntg`` and of the
read-back.
None of them share search code with the library, except that the
reference checks walk with the library's ``reachable``,
``check_root_connected``, ``exit_chain_ends`` and ``_find_cycle``, ``two_path_collapse``
takes its plain path from ``tg_collapse``, whose block map is checked
against ``moore_refine``,
``flat_collapse`` runs the library's ``_refine`` on the flattening,
``refine_bisimilar``, the reference of the union-find pair closure of
``tg_bisimilar``, runs it on the disjoint union of two graphs,
the closure and ``replay_path`` apply the library's progression rules
``_progressions``, which share nothing with the summary tabulation, and
the isomorphism walk of bodies, the reference tabulation and the
reference closure of ``sntg_bisimilar`` compare labels with the library's
``_compatible``.
"""

import re
from collections import deque, namedtuple
from itertools import count, islice, product

from ntg import verify_ntg_hom, verify_sntg_hom, verify_tg_hom
from ntg.graph import TermGraph, reachable
from ntg.labels import CUT_SYMBOL, Atomic, Input, Nested


class ReferenceCarrier:
    """The disjoint union of all definition bodies of one specification,
    built as the library built it before its carrier became sort-free:
    every body's vertices sorted by name, inputs then stably sorted by
    index, and the occurrence map built up front.  The reference of
    ``ntg.equivalence._entry`` and ``_inputs``, and the carrier of the
    closure oracles here, so they share no carrier code with the
    library."""

    def __init__(self, r):
        self.rgs = r
        self.rootof = {sym: (sym, r.rec[sym].root) for sym in r.rec}
        self.root = self.rootof[r.root_symbol]
        self._occ = {}
        self._inputs = {}
        for sym in sorted(r.rec):
            body = r.rec[sym]
            ins = [
                (sym, v)
                for v in sorted(body.lab, key=str)
                if isinstance(body.lab[v], Input)
            ]
            ins.sort(key=lambda cv: body.lab[cv[1]].index)
            self._inputs[sym] = ins
            for v in sorted(body.lab, key=str):
                lbl = body.lab[v]
                if isinstance(lbl, Nested):
                    self._occ.setdefault(lbl.name, (sym, v))

    def lab(self, cv):
        sym, v = cv
        return self.rgs.rec[sym].lab[v]

    def args(self, cv):
        sym, v = cv
        return tuple((sym, w) for w in self.rgs.rec[sym].args[v])

    def has(self, cv):
        return (
            isinstance(cv, tuple) and len(cv) == 2
            and cv[0] in self.rgs.rec and cv[1] in self.rgs.rec[cv[0]].lab
        )

    def occurrence(self, sym):
        return self._occ.get(sym)

    def inputs(self, sym):
        return self._inputs[sym]

    def vertices(self):
        out = []
        for sym in sorted(self.rgs.rec):
            out.extend((sym, v) for v in self.rgs.rec[sym].lab)
        return out


def reference_unfold(r, depth=None):
    """``unfold_to_ntg`` as the library wrote it before it walked each
    source body once per call: per instance, one walk of the source body
    for its occurrences, a checked copy, a walk of that copy and a second
    checked copy of what it reaches.  The reference for printed results
    and cut counts.  It names each vertex ``v`` of a copy ``<copy>/<v>``,
    where the library keeps ``v``, and numbers the copies of each symbol
    with a bare counter, so apart from vertex names it differs from the
    library only where a copy's name is the root symbol's or an atomic
    symbol's."""
    from ntg import MissingDepthError, NtgSignature, Rgs, UnfoldResult, dependency_ars
    from ntg.rgs import _find_cycle

    if depth is not None and depth < 0:
        raise ValueError(f"unfold depth must not be negative, got {depth}")
    if depth is None and _find_cycle(dependency_ars(r)) is not None:
        raise MissingDepthError("cyclic dependencies require an unfold depth")

    counters = {}
    new_rec = {}
    new_nested = {}
    cuts = 0

    queue = deque([(r.root_symbol, r.root_symbol, 0)])  # (instance name, symbol, level)
    new_nested[r.root_symbol] = 0
    while queue:
        iname, sym, level = queue.popleft()
        body = r.rec[sym]
        prefix = iname + "/"
        lab = {}
        args = {}
        for v in body.lab:
            lab[prefix + v] = body.lab[v]
            args[prefix + v] = tuple(prefix + w for w in body.args[v])
        for v in reachable(body, body.root):
            lbl = body.lab[v]
            if not isinstance(lbl, Nested):
                continue
            target = lbl.name
            if depth is not None and level + 1 > depth:
                lab[prefix + v] = Atomic(CUT_SYMBOL, 0)
                args[prefix + v] = ()
                cuts += 1
                continue
            counters[target] = counters.get(target, 0) + 1
            child = f"{target}@{counters[target]}"
            lab[prefix + v] = Nested(child, lbl.arity)
            new_nested[child] = lbl.arity
            queue.append((child, target, level + 1))
        # drop vertices cut off by placeholder substitution
        g = TermGraph(lab, args, prefix + body.root)
        keep = set(reachable(g, g.root))
        g = TermGraph(
            {v: lab[v] for v in lab if v in keep},
            {v: args[v] for v in args if v in keep},
            g.root,
        )
        new_rec[iname] = g

    atomic = dict(r.signature.atomic)
    if cuts:
        atomic[CUT_SYMBOL] = 0
    sig = NtgSignature(atomic, new_nested, r.root_symbol)
    return UnfoldResult(Rgs(sig, new_rec), cuts)


def reference_uniquify(keys, fmt, avoid=()):
    """``rgs._uniquify`` as the library wrote it before one namer made
    every name: one loop that primes ``fmt(key)`` until it is clear.  The
    reference for the names of witnesses and of ``sntg_to_ntg``."""
    from ntg.rgs import symbol_name_ok

    names = {}
    taken = set(avoid)
    for key in keys:
        name = fmt(key)
        while name in taken or not symbol_name_ok(name):
            name += "'"
        names[key] = name
        taken.add(name)
    return names


def reference_scope_names(n, atomic):
    """The first ``n`` of ``d0, d1, ...`` that are not in ``atomic``: the
    symbols ``represent`` read back, in the order it opened their scopes,
    as its own counter named them before one namer made every name."""
    return list(islice((f"d{k}" for k in count() if f"d{k}" not in atomic), n))


def brute_force_tg_hom(g1, g2):
    """Try every total vertex map; returns one valid homomorphism or None."""
    vs1 = sorted(g1.lab, key=str)
    vs2 = sorted(g2.lab, key=str)
    for images in product(vs2, repeat=len(vs1)):
        phi = dict(zip(vs1, images))
        if verify_tg_hom(g1, g2, phi) is None:
            return phi
    return None


def backtracking_tg_hom(g1, g2):
    """Exhaustive search with pruning; equivalent to the product search."""
    vs1 = sorted(g1.lab, key=str)
    vs2 = sorted(g2.lab, key=str)

    def extend(phi, i):
        if i == len(vs1):
            return dict(phi) if verify_tg_hom(g1, g2, phi) is None else None
        v = vs1[i]
        for w in vs2:
            if g1.lab[v] != g2.lab[w]:
                continue
            phi[v] = w
            if _locally_ok(g1, g2, phi, v):
                found = extend(phi, i + 1)
                if found is not None:
                    return found
            del phi[v]
        return None

    return extend({}, 0)


def _locally_ok(g1, g2, phi, v):
    if v == g1.root and phi[v] != g2.root:
        return False
    for u in phi:
        for x, y in zip(g1.args[u], g2.args[phi[u]]):
            if x in phi and phi[x] != y:
                return False
    return True


def gfp_collapse_classes(g):
    """Bisimilarity as a greatest fixpoint over vertex pairs.

    Starts from all label-equal pairs and removes pairs whose arguments
    are not pairwise related, until stable.  Returns the partition as a
    map vertex -> frozenset of equivalents.
    """
    vs = sorted(g.lab, key=str)
    rel = {(u, v) for u in vs for v in vs if g.lab[u] == g.lab[v]}
    changed = True
    while changed:
        changed = False
        for u, v in sorted(rel):
            if any((x, y) not in rel for x, y in zip(g.args[u], g.args[v])):
                rel.discard((u, v))
                changed = True
    return {v: frozenset(u for u in vs if (v, u) in rel) for v in vs}


def moore_refine(lab, args, extra=None):
    """Round-by-round (Moore) partition refinement, the reference for the
    library's splitter-worklist engine ``graph._refine``.

    Each round regroups every vertex by its own block, the blocks of its
    successors and, when ``extra`` is given, the blocks of the vertices
    ``extra`` lists for it; the loop stops once a round splits no block.
    Blocks are named by their least member under ``key=str`` in every
    round.  O(n) rounds of O(m) work each.
    """
    block = {v: repr(lab[v]) for v in lab}
    while True:
        sig = {
            v: (
                block[v],
                tuple(block[w] for w in args[v]),
                tuple(block[a] for a in (extra[v] if extra is not None else ())),
            )
            for v in lab
        }
        groups = {}
        for v in lab:
            groups.setdefault(sig[v], []).append(v)
        new_block = {}
        for members in groups.values():
            rep = min(members, key=str)
            for v in members:
                new_block[v] = rep
        stable = True
        rep_of_old = {}
        for v in lab:
            if rep_of_old.setdefault(block[v], new_block[v]) != new_block[v]:
                stable = False
                break
        block = new_block
        if stable:
            return block


def two_path_collapse(n):
    """``ntg_collapse`` as two paths: the plain first-order collapse, read
    back when it stays in the representing class, else a refinement keyed
    by the full ancestor chains (``moore_refine``)."""
    from ntg import infer_ancestors, interpret, is_rg_member, represent, tg_collapse

    flat = interpret(n)
    plain, _ = tg_collapse(flat)
    if is_rg_member(plain):
        return represent(plain)
    anc, _ = infer_ancestors(flat)
    block = moore_refine(flat.lab, flat.args, anc)
    reps = sorted(set(block.values()), key=str)
    return represent(TermGraph(
        {r: flat.lab[r] for r in reps},
        {r: tuple(block[w] for w in flat.args[r]) for r in reps},
        block[flat.root],
    ))


def sntg_interpret(n):
    """The flattening of ``n`` built from its structural representation:
    occurrence vertices removed with incoming edges redirected through the
    call map, inputs closed by the return map and the innermost occurrence
    of their ancestor chain, and each constant's exit chain read off its
    full ancestor chain."""
    from ntg import Atomic, Input, Nested, Output, ntg_to_sntg
    from ntg.firstorder import FO_INPUT, ROOT_INPUT, ROOT_OUTPUT, PrimedConst
    from ntg.graph import check_root_connected

    s = ntg_to_sntg(n)
    g = s.tg

    def redirect(v):
        return s.call[v] if isinstance(g.lab[v], Nested) else v

    root = s.call[g.root]
    lab = {}
    args = {}
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


def flat_collapse(n):
    """``ntg_collapse`` through the flattening: ``sntg_interpret``, one
    refinement by the arguments and the innermost ancestor of the inferred
    assignment, the quotient, and ``represent`` with its membership
    checks."""
    from ntg import infer_ancestors, represent
    from ntg.graph import _quotient, _refine

    flat = sntg_interpret(n)
    anc, _ = infer_ancestors(flat)
    seqs = {v: flat.args[v] + anc[v][-1:] for v in flat.lab}
    return represent(_quotient(flat, _refine(flat.lab, seqs)))


def depth_first_scope_inputs(g, anc, o):
    """Input vertices of the scope opened by output vertex ``o``, in the
    order ``represent`` numbers them: the first visits of a depth-first
    walk from ``o`` along every argument edge, through all deeper scopes
    and out along exit chains, keeping the exit vertices one level below
    ``o`` that are not links of a constant's exit chain.

    The walk reaches the whole graph from every scope, so it costs
    O(|graph|) per scope; ``anc`` is the ancestor assignment.
    """
    from ntg.firstorder import FoInput, RootInput

    def on_exit_chain(v):
        seen = set()
        while isinstance(g.lab[v], FoInput) and v not in seen:
            seen.add(v)
            v = g.args[v][0]
        return isinstance(g.lab[v], RootInput)

    level = anc[o] + (o,)
    seen = set()
    order = []
    stack = [o]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        if isinstance(g.lab[v], FoInput) and anc[v] == level and not on_exit_chain(v):
            order.append(v)
        stack.extend(reversed(g.args[v]))
    return order


def disjoint_union(g1, g2, tag1="1:", tag2="2:"):
    """Tag and merge two graphs; returns (lab, args, root1, root2)."""
    lab = {tag1 + v: g1.lab[v] for v in g1.lab}
    args = {tag1 + v: tuple(tag1 + w for w in g1.args[v]) for v in g1.lab}
    lab.update({tag2 + v: g2.lab[v] for v in g2.lab})
    args.update({tag2 + v: tuple(tag2 + w for w in g2.args[v]) for v in g2.lab})
    return lab, args, tag1 + g1.root, tag2 + g2.root


def refine_bisimilar(g1, g2):
    """Root bisimilarity as the library decided it before its pair
    closure: refine the disjoint union with ``graph._refine`` and compare
    the two root blocks."""
    from ntg.graph import _refine

    lab, args, r1, r2 = disjoint_union(g1, g2)
    block = _refine(lab, args)
    return block[r1] == block[r2]


def gfp_bisimilar(g1, g2):
    """Root bisimilarity through the pairwise greatest fixpoint."""
    lab = {("1", v): g1.lab[v] for v in g1.lab}
    lab.update({("2", v): g2.lab[v] for v in g2.lab})
    args = {("1", v): tuple(("1", w) for w in g1.args[v]) for v in g1.lab}
    args.update({("2", v): tuple(("2", w) for w in g2.args[v]) for v in g2.lab})
    vs = sorted(lab, key=str)
    rel = {(u, v) for u in vs for v in vs if lab[u] == lab[v]}
    changed = True
    while changed:
        changed = False
        for u, v in sorted(rel):
            if any((x, y) not in rel for x, y in zip(args[u], args[v])):
                rel.discard((u, v))
                changed = True
    return (("1", g1.root), ("2", g2.root)) in rel


def gfp_collapse_graph(g):
    """Quotient of ``g`` by the greatest-fixpoint partition."""
    classes = gfp_collapse_classes(g)
    rep = {v: min(classes[v], key=str) for v in g.lab}
    reps = sorted(set(rep.values()), key=str)
    return TermGraph(
        {r: g.lab[r] for r in reps},
        {r: tuple(rep[w] for w in g.args[r]) for r in reps},
        rep[g.root],
    )


def brute_force_ntg_hom(n1, n2):
    """Backtracking enumeration of carrier maps checked by the clause
    verifier; exhaustive over all total maps."""
    c1, c2 = ReferenceCarrier(n1), ReferenceCarrier(n2)
    vs1 = c1.vertices()
    vs2 = c2.vertices()

    def extend(phi, i):
        if i == len(vs1):
            return dict(phi) if not verify_ntg_hom(n1, n2, phi) else None
        v = vs1[i]
        for w in vs2:
            phi[v] = w
            if _carrier_locally_ok(c1, c2, phi, v):
                found = extend(phi, i + 1)
                if found is not None:
                    return found
            del phi[v]
        return None

    return extend({}, 0)


def _carrier_locally_ok(c1, c2, phi, v):
    from ntg.labels import Atomic, Output

    w = phi[v]
    l1, l2 = c1.lab(v), c2.lab(w)
    if isinstance(l1, Atomic):
        if l1 != l2:
            return False
    elif type(l1) is not type(l2):
        return False
    if v == c1.root and w != c2.root:
        return False
    for u in list(phi):
        lu = c1.lab(u)
        if isinstance(lu, (Atomic, Output)):
            for x, y in zip(c1.args(u), c2.args(phi[u])):
                if x in phi and phi[x] != y:
                    return False
    return True


def brute_force_sntg_hom(s1, s2):
    """Backtracking enumeration of vertex maps checked by the verifier."""
    vs1 = sorted(s1.tg.lab, key=str)
    vs2 = sorted(s2.tg.lab, key=str)

    def extend(phi, i):
        if i == len(vs1):
            return dict(phi) if not verify_sntg_hom(s1, s2, phi) else None
        v = vs1[i]
        for w in vs2:
            if type(s1.tg.lab[v]) is not type(s2.tg.lab[w]):
                continue
            if len(s1.anc[v]) != len(s2.anc[w]):
                continue
            phi[v] = w
            found = extend(phi, i + 1)
            if found is not None:
                return found
            del phi[v]
        return None

    return extend({}, 0)


def enumerate_ancestor_assignments(g, limit=2):
    """Backtracking enumeration of all assignments satisfying the ancestor
    conditions; stops after ``limit`` solutions.

    Chains are built over the output-labeled vertices: every condition
    either copies a chain, pops it, or extends it by an output vertex, so
    no other letter can ever occur in a valid assignment.
    """
    from ntg.firstorder import FoInput, PrimedConst, RootInput, RootOutput
    from ntg.labels import Atomic, Output

    outputs = [v for v in sorted(g.lab, key=str) if isinstance(g.lab[v], (Output, RootOutput))]
    chains = [()]
    frontier = [()]
    while frontier:
        new = []
        for ch in frontier:
            for o in outputs:
                if o not in ch:
                    new.append(ch + (o,))
        chains.extend(new)
        frontier = new
    vs = sorted(g.lab, key=str)
    solutions = []

    def consistent(anc):
        if anc.get(g.root, ()) != ():
            return False
        for v, chain in anc.items():
            lbl = g.lab[v]
            if isinstance(lbl, (Output, RootOutput)):
                b = g.args[v][0]
                if b in anc and anc[b] != chain + (v,):
                    return False
            elif isinstance(lbl, (Atomic, PrimedConst)):
                for b in g.args[v]:
                    if b in anc and anc[b] != chain:
                        return False
            elif isinstance(lbl, FoInput):
                if not chain:
                    return False
                arg, back = g.args[v]
                if back != chain[-1]:
                    return False
                if arg in anc and anc[arg] != chain[:-1]:
                    return False
            elif isinstance(lbl, RootInput):
                if chain != (g.root,) or g.args[v][0] != g.root:
                    return False
        return True

    def extend(anc, i):
        if len(solutions) >= limit:
            return
        if i == len(vs):
            solutions.append(dict(anc))
            return
        v = vs[i]
        for ch in chains:
            anc[v] = ch
            if consistent(anc):
                extend(anc, i + 1)
            del anc[v]

    extend({}, 0)
    return solutions


_SCAN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<nat>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_@.']*)
      | (?P<punct>[{}():,;/])
    """,
    re.VERBOSE,
)


def scan_tokens(text):
    """The reference tokenizer of the text formats: one anchored match per
    token or run of whitespace over the whole text, counting newlines as
    it goes.  Returns the ``(kind, value, line)`` tuples, or raises the
    ``ParseError`` for the first character that starts no token."""
    from ntg.formats import ParseError

    toks = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _SCAN_RE.match(text, pos)
        if not m:
            raise ParseError(line, f"unexpected character {text[pos]!r}")
        if m.lastgroup not in ("ws", "comment"):
            toks.append((m.lastgroup, m.group(), line))
        line += m.group().count("\n")
        pos = m.end()
    return toks


def replay_path(r1, r2, path, end=None):
    """Why ``path`` is not a run of the stack-based progression rules into
    a clash, or, when ``end`` is given, into the configuration ``end``
    without a clash; None when it is one.

    The path must start at the root configuration, every configuration
    must be among the successors the rules force on the one before, and
    the rules must reject the last one, or accept it when it is ``end``.
    This replays the explicit rules of the closure and shares nothing with
    the summary tabulation.
    """
    from ntg.equivalence import NestedConfig, _Clash, _progressions

    c1, c2 = ReferenceCarrier(r1), ReferenceCarrier(r2)
    if not path or path[0] != NestedConfig((), c1.root, (), c2.root):
        return "the path does not start at the root configuration"
    for k in range(1, len(path)):
        try:
            children, _ = _progressions(r1, r2, path[k - 1])
        except _Clash:
            return f"configuration {k - 1} already clashes"
        if path[k] not in children:
            return f"configuration {k} is not a successor of configuration {k - 1}"
    try:
        _progressions(r1, r2, path[-1])
    except _Clash:
        return None if end is None else "the last configuration clashes"
    if end is None:
        return "the last configuration does not clash"
    return None if path[-1] == end else "the path does not end at the given configuration"


def closure(c1, c2, depth):
    """Smallest config set containing the root pair and closed under the
    progression rules, up to the optional stack-depth bound.

    The explicit closure over stack-prefixed configurations that the
    library decided with before its call/return summaries: exponential in
    sharing, and on cyclic dependencies finite only under a ``depth``
    bound.  Returns ``(configurations, bounded, clash)``, where ``clash``
    is the first ``_Clash`` met, or None.
    """
    from ntg.equivalence import NestedConfig, _Clash, _progressions

    root_cfg = NestedConfig((), c1.root, (), c2.root)
    seen = {root_cfg}
    queue = deque([root_cfg])
    bounded = False
    clash = None
    while queue:
        cfg = queue.popleft()
        try:
            children, pushes = _progressions(c1.rgs, c2.rgs, cfg)
        except _Clash as e:
            clash = e
            break
        if pushes and depth is not None and len(cfg.left_stack) + 1 > depth:
            bounded = True
            continue
        for child in children:
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return seen, bounded, clash


def closure_relation(r1, r2, depth=None):
    """The closure of the root pair as a ``NestedBisimRelation``, bounded
    when ``depth`` cut it; None on a clash.  The reference of
    ``NestedBisimResult.relation``, which expands the summary tables."""
    from ntg.equivalence import NestedBisimRelation

    configs, bounded, clash = closure(ReferenceCarrier(r1), ReferenceCarrier(r2), depth)
    if clash is not None:
        return None
    return NestedBisimRelation(frozenset(configs), depth if bounded else None)


class ReferenceContext:
    """A summary record as ``reference_tabulate`` fills it: the fields of
    ``ntg.equivalence._Context``, with every pair a pair of carrier
    vertices ``((s1, x1), (s2, x2))``."""

    def __init__(self, opener):
        self.reached = {}
        self.exits = {}
        self.callers = []  # (context key, occurrence pair)
        self.opener = opener  # the first caller; None for the root context


def reference_tabulate(c1, c2):
    """``ntg.equivalence._tabulate`` as the library wrote it before it read
    the bodies directly: every label and successor tuple asked of the
    carriers, ``_compatible`` called for every pair popped, and every pair
    a pair of carrier vertices ``((s1, x1), (s2, x2))``.  The reference for
    the summary tables, item by item and in order, once each pair is keyed
    by its two body vertices.

    Summaries of every context reachable from the root pair.

    Returns ``(contexts, clash)``; ``clash`` is None or ``(key, pair, via,
    reason)``, where ``via`` is the calling frame when the clash depends on
    the caller (an exit that the caller's arity cannot take), else None.
    """
    from ntg.labels import Output, _compatible

    contexts = {None: ReferenceContext(None)}
    work = deque()

    def reach(key, pair, pointer):
        seen = contexts[key].reached
        if pair not in seen:
            seen[pair] = pointer
            work.append((key, pair))

    def ret(key, occ, callee, ij):
        """Continue the call at ``occ`` of context ``key`` after ``callee``
        exits through ``ij``; returns a clash reason or None."""
        i, j = ij
        a1, a2 = c1.args(occ[0]), c2.args(occ[1])
        if i > len(a1) or j > len(a2):
            return "input index exceeds the calling occurrence's arity"
        sub = contexts[callee]
        length = contexts[key].reached[occ][0] + sub.reached[sub.exits[ij]][0] + 1
        reach(key, (a1[i - 1], a2[j - 1]), (length, occ, callee, ij))
        return None

    reach(None, (c1.root, c2.root), (1, None, None, None))
    while work:
        key, pair = work.popleft()
        ctx = contexts[key]
        v1, v2 = pair
        l1, l2 = c1.lab(v1), c2.lab(v2)
        if not _compatible(l1, l2):
            return contexts, (key, pair, None, f"labels {l1} and {l2} do not match")
        if isinstance(l1, (Atomic, Output)):
            step = (ctx.reached[pair][0] + 1, pair, None, None)
            for child in zip(c1.args(v1), c2.args(v2)):
                reach(key, child, step)
        elif isinstance(l1, Nested):
            callee = (l1.name, l2.name)
            sub = contexts.get(callee)
            if sub is None:
                sub = contexts[callee] = ReferenceContext((key, pair))
                reach(callee, (c1.rootof[l1.name], c2.rootof[l2.name]), (1, None, None, None))
            sub.callers.append((key, pair))
            for ij, w in sub.exits.items():
                reason = ret(key, pair, callee, ij)
                if reason:
                    return contexts, (callee, w, (key, pair), reason)
        else:  # two inputs: an exit of this context
            if key is None:
                return contexts, (key, pair, None, "input vertex reached outside any call")
            ij = (l1.index, l2.index)
            if ij not in ctx.exits:
                ctx.exits[ij] = pair
                for caller in ctx.callers:
                    reason = ret(*caller, key, ij)
                    if reason:
                        return contexts, (key, pair, caller, reason)
    return contexts, None


def reference_pair_witness(inputs, lab, args, scope, callee, name):
    """``ntg.rgs._pair_witness`` as the library wrote it before it took
    each scope's two sides' maps: every pair read through callbacks.

    ``inputs`` lists the input pairs in the order their indices follow.
    ``lab(p)`` and ``args(p)`` give a pair's two labels and two successor
    tuples, ``scope(p)`` the key of the scope ``p`` lies in, ``callee(p)``
    the key of the scope an occurrence pair opens, and ``name(key)`` that
    scope's symbol.

    Returns ``(arity, entry)``.  ``arity`` maps each scope key with inputs
    to their number.  ``entry(p)`` is a reached pair's label and its
    successors, as pairs of the two sides' vertices: atomic and output
    pairs keep the left label and pair their successors position by
    position; the input pairs of each scope are numbered from 1; an
    occurrence pair takes, for each input pair of its callee, the two
    actual arguments at that pair's input indices.
    """
    inputs_of = {}
    for u in inputs:
        inputs_of.setdefault(scope(u), []).append(u)
    numbered = [Input(j) for j in range(1, max(map(len, inputs_of.values()), default=0) + 1)]
    index = {u: numbered[j] for us in inputs_of.values() for j, u in enumerate(us)}

    def entry(p):
        (l1, _), (a1, a2) = lab(p), args(p)
        if isinstance(l1, Input):
            return index[p], ()
        if isinstance(l1, Nested):
            key = callee(p)
            ins = [lab(u) for u in inputs_of.get(key, ())]
            succ = tuple((a1[i.index - 1], a2[j.index - 1]) for i, j in ins)
            return Nested(name(key), len(ins)), succ
        return l1, tuple(zip(a1, a2))

    return {key: len(us) for key, us in inputs_of.items()}, entry


def reference_summary_witness(r1, r2, contexts):
    """``ntg.equivalence._summary_witness`` as the library wrote it before
    its tables keyed each pair by its two body vertices: it reads the
    tables of ``reference_tabulate``, repacks every pair as ``(context
    key, left vertex, right vertex)`` and reads it through the callbacks
    of ``reference_pair_witness``, looking both bodies up per call.  The
    reference for the printed witness and both projections, in order.

    One definition ``f_g`` per context, entered at its entry pair; one
    vertex ``v|w`` per reached pair, primed only where two pairs of one
    context format alike; one input per exit, numbered in the order the
    exits were found.
    """
    from ntg.equivalence import BisimWitness
    from ntg.rgs import _uniquify
    from ntg import NtgSignature, Rgs, validate_rgs

    atomic = {**r2.signature.atomic, **r1.signature.atomic}
    roots = (r1.root_symbol, r2.root_symbol)
    sym_name = _uniquify(contexts, lambda key: "_".join(key or roots), avoid=atomic)
    rec1, rec2 = r1.rec, r2.rec

    def labels(item):
        key, x1, x2 = item
        s1, s2 = key or roots
        return rec1[s1].lab[x1], rec2[s2].lab[x2]

    def succs(item):
        key, x1, x2 = item
        s1, s2 = key or roots
        return rec1[s1].args[x1], rec2[s2].args[x2]

    arity, entry = reference_pair_witness(
        [(key, u1[1], u2[1]) for key, ctx in contexts.items() for u1, u2 in ctx.exits.values()],
        labels,
        succs,
        lambda item: item[0],
        lambda item: tuple(lbl.name for lbl in labels(item)),
        sym_name.__getitem__,
    )
    rec = {}
    proj_left = {}
    proj_right = {}
    for key, ctx in contexts.items():
        sym = sym_name[key]
        s1, s2 = key or roots
        vid = {(x1, x2): f"{x1}|{x2}" for (_, x1), (_, x2) in ctx.reached}
        if len(set(vid.values())) < len(vid):
            vid = _uniquify(vid, vid.__getitem__)
        lab, args = {}, {}
        for (x1, x2), v in vid.items():
            lab[v], succ = entry((key, x1, x2))
            args[v] = tuple(map(vid.__getitem__, succ))
            proj_left[(sym, v)], proj_right[(sym, v)] = (s1, x1), (s2, x2)
        rec[sym] = TermGraph(lab, args, next(iter(vid.values())))
    nested = {sym_name[key]: arity.get(key, 0) for key in contexts}
    witness = Rgs(NtgSignature(atomic, nested, sym_name[None]), rec)
    assert not validate_rgs(witness), "constructed witness is ill-formed"
    assert not verify_ntg_hom(witness, r1, proj_left), "left projection fails"
    assert not verify_ntg_hom(witness, r2, proj_right), "right projection fails"
    return BisimWitness(witness, proj_left, proj_right)


def reference_sntg_bisimilar(s1, s2):
    """``ntg.sntg.sntg_bisimilar`` as the library wrote it before
    ``_pair_witness`` took each scope's two sides' maps: every pair of the
    closure read through the callbacks of ``reference_pair_witness``.  The
    reference for the witness structure, map by map and in order.
    """
    from ntg.labels import Output, _compatible
    from ntg.rgs import _uniquify
    from ntg.sntg import Sntg, check_sntg

    start = (s1.root, s2.root)
    seen = {start}
    order = [start]
    for v, w in order:
        l1, l2 = s1.tg.lab[v], s2.tg.lab[w]
        if not _compatible(l1, l2):
            return None
        if isinstance(l1, (Atomic, Output)):
            children = list(zip(s1.tg.args[v], s2.tg.args[w]))
        elif isinstance(l1, Nested):
            children = [(s1.call[v], s2.call[w])]
        else:
            children = [(s1.ret[v], s2.ret[w])]
        for child in children:
            if child not in seen:
                seen.add(child)
                order.append(child)

    vid = _uniquify(order, lambda pair: f"({pair[0]},{pair[1]})")
    _, entry = reference_pair_witness(
        [pair for pair in order if isinstance(s1.tg.lab[pair[0]], Input)],
        lambda pair: (s1.tg.lab[pair[0]], s2.tg.lab[pair[1]]),
        lambda pair: (s1.tg.args[pair[0]], s2.tg.args[pair[1]]),
        lambda pair: (s1.inner[pair[0]], s2.inner[pair[1]]),
        lambda pair: pair,
        lambda key: f"{s1.tg.lab[key[0]].name}&{s2.tg.lab[key[1]].name}",
    )
    lab, args, call, ret, inner = {}, {}, {}, {}, {}
    for v, w in order:
        label, succ = entry((v, w))
        x = vid[(v, w)]
        inner[x] = vid.get((s1.inner[v], s2.inner[w]))
        lab[x] = label
        args[x] = tuple(vid[q] for q in succ)
        if isinstance(label, Nested):
            call[x] = vid[(s1.call[v], s2.call[w])]
        elif isinstance(label, Input):
            ret[x] = vid[(s1.ret[v], s2.ret[w])]
    witness = Sntg(TermGraph(lab, args, vid[start]), call, ret, inner)
    return None if check_sntg(witness) else witness


def reference_sntg_hom_explained(s1, s2):
    """``ntg.sntg.sntg_hom_explained`` as the library wrote it before it
    read the homomorphism off the pair closure: its own propagation of the
    candidate from the root pair through a queue that may hold a pair
    twice, then the full check.  The reference for the map, in order, and
    for the conflict.
    """
    from ntg.labels import Output, _compatible
    from ntg.rgs import _require
    from ntg.sntg import SntgConflict

    _require(s1, "left structural representation")
    _require(s2, "right structural representation")
    phi = {}
    queue = deque([(s1.root, s2.root)])
    while queue:
        v, w = queue.popleft()
        if v in phi:
            if phi[v] != w:
                return None, SntgConflict(v, w, f"already mapped to {phi[v]!r}")
            continue
        l1, l2 = s1.tg.lab[v], s2.tg.lab[w]
        if not _compatible(l1, l2):
            return None, SntgConflict(v, w, f"labels {l1} and {l2} do not match")
        phi[v] = w
        if isinstance(l1, (Atomic, Output)):
            queue.extend(zip(s1.tg.args[v], s2.tg.args[w]))
        elif isinstance(l1, Nested):
            if w not in s2.call:
                return None, SntgConflict(v, w, "call undefined on image")
            queue.append((s1.call[v], s2.call[w]))
        else:
            if w not in s2.ret:
                return None, SntgConflict(v, w, "return undefined on image")
            queue.append((s1.ret[v], s2.ret[w]))
    problems = verify_sntg_hom(s1, s2, phi)
    if problems:
        return None, SntgConflict(s1.root, s2.root, problems[0])
    return phi, None


def context_of(c1, c2, left_stack, right_stack):
    """The summary context of a configuration with these stacks: the pair
    of symbols their innermost entries call, or None when they are empty."""
    if not left_stack:
        return None
    return c1.lab(left_stack[-1]).name, c2.lab(right_stack[-1]).name


ClosureHomResult = namedtuple("ClosureHomResult", "verdict mapping reason", defaults=(None, None))


def closure_nested_hom(r1, r2, depth=None):
    """Functional variant: the closure must assign at most one right
    configuration to every left configuration.

    The explicit closure over stack-prefixed configurations, the reference
    of the summary-based ``nested_hom``: exponential in sharing, and on
    cyclic dependencies it needs a ``depth`` bound, where a run that
    reaches the bound without a conflict stays ``"unknown_at_depth"``.
    """
    from ntg import MissingDepthError
    from ntg.equivalence import _needs_depth
    from ntg.rgs import _require

    _require(r1, "left specification")
    _require(r2, "right specification")
    if depth is None and _needs_depth(r1, r2):
        raise MissingDepthError("cyclic dependencies require a depth bound")
    c1, c2 = ReferenceCarrier(r1), ReferenceCarrier(r2)
    configs, bounded, clash = closure(c1, c2, depth)
    if clash is not None:
        return ClosureHomResult("none", reason=clash.message)
    mapping = {}
    twice = set()
    for cfg in configs:
        key, val = (cfg.left_stack, cfg.left), (cfg.right_stack, cfg.right)
        if mapping.setdefault(key, val) != val:
            twice.add(key)
    if twice:
        # report the first conflict in the order of the printed configurations
        first = {}
        for cfg in sorted((c for c in configs if (c.left_stack, c.left) in twice), key=str):
            key, val = (cfg.left_stack, cfg.left), (cfg.right_stack, cfg.right)
            if first.setdefault(key, val) != val:
                return ClosureHomResult("none", reason=f"configuration {key} relates to two targets")
    if bounded:
        return ClosureHomResult("unknown_at_depth")
    return ClosureHomResult("hom", mapping=mapping)


def closure_ntg_bisimilar(n1, n2):
    """Synchronized closure over vertex pairs; builds the witness
    specification whose projections are homomorphisms, or returns None.

    The pair closure of ``ntg_bisimilar`` before it read its witness off
    the call/return summaries of ``nested_bisim``: one global breadth-first
    walk over vertex pairs, whose vertex ids are made unique over all
    bodies at once.  The reference for verdicts, printed witnesses and
    projections.
    """
    from ntg.equivalence import BisimWitness, _compatible, _merge_atomic
    from ntg.rgs import _require, _uniquify
    from ntg import Atomic, Input, Nested, NtgSignature, Output, Rgs, is_ntg, validate_rgs

    _require(n1, "left argument", tree=True)
    _require(n2, "right argument", tree=True)
    atomic = _merge_atomic(n1.signature, n2.signature)
    c1, c2 = ReferenceCarrier(n1), ReferenceCarrier(n2)

    start = (c1.root, c2.root)
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue:
        v, w = queue.popleft()
        l1, l2 = c1.lab(v), c2.lab(w)
        if not _compatible(l1, l2):
            return None
        children = []
        if isinstance(l1, (Atomic, Output)):
            children = list(zip(c1.args(v), c2.args(w)))
        elif isinstance(l1, Nested):
            children = [(c1.rootof[l1.name], c2.rootof[l2.name])]
        else:
            occ1, occ2 = c1.occurrence(v[0]), c2.occurrence(w[0])
            if occ1 is None or occ2 is None:
                return None
            a1, a2 = c1.args(occ1), c2.args(occ2)
            children = [(a1[l1.index - 1], a2[l2.index - 1])]
        for child in children:
            if child not in seen:
                seen.add(child)
                order.append(child)
                queue.append(child)

    def labels(pair):
        return c1.lab(pair[0]), c2.lab(pair[1])

    def scope(pair):
        return pair[0][0], pair[1][0]

    # the witness has one definition per pair of entered symbols, and its
    # inputs are numbered in discovery order
    sym_keys = [(n1.root_symbol, n2.root_symbol)]
    sym_keys += [(l1.name, l2.name) for l1, l2 in map(labels, order) if isinstance(l1, Nested)]
    sym_name = _uniquify(dict.fromkeys(sym_keys), lambda key: f"{key[0]}_{key[1]}", avoid=atomic)
    pair_name = _uniquify(order, lambda pair: f"{pair[0][1]}|{pair[1][1]}")
    arity, entry = reference_pair_witness(
        [pair for pair in order if isinstance(c1.lab(pair[0]), Input)],
        labels,
        lambda pair: (c1.args(pair[0]), c2.args(pair[1])),
        scope,
        lambda pair: tuple(lbl.name for lbl in labels(pair)),
        sym_name.__getitem__,
    )

    bodies = {key: ({}, {}) for key in sym_name}
    proj_left = {}
    proj_right = {}
    for pair in order:
        lab, succ = entry(pair)
        key = scope(pair)
        vid = pair_name[pair]
        body_lab, body_args = bodies[key]
        body_lab[vid] = lab
        body_args[vid] = tuple(pair_name[q] for q in succ)
        proj_left[(sym_name[key], vid)] = pair[0]
        proj_right[(sym_name[key], vid)] = pair[1]

    rec = {
        sym_name[key]: TermGraph(lab, args, pair_name[(c1.rootof[key[0]], c2.rootof[key[1]])])
        for key, (lab, args) in bodies.items()
    }
    nested = {sym_name[key]: arity.get(key, 0) for key in sym_name}
    sig = NtgSignature(atomic, nested, sym_name[(n1.root_symbol, n2.root_symbol)])
    witness = Rgs(sig, rec)

    assert not validate_rgs(witness), "constructed witness is ill-formed"
    assert is_ntg(witness).ok, "constructed witness is not tree-shaped"
    assert not verify_ntg_hom(witness, n1, proj_left), "left projection fails"
    assert not verify_ntg_hom(witness, n2, proj_right), "right projection fails"
    return BisimWitness(witness, proj_left, proj_right)


def relation_witness(rel, r1, r2):
    """Turn an exact nested bisimulation into a tree-shaped specification.

    One defined symbol per stack pair occurring in the relation; the
    configurations sharing a stack pair become the body vertices.  The
    reference for ``NestedBisimResult.witness``: it reads the explicit
    relation, which is exponential in sharing, where the library reads the
    call/return summaries.
    """
    from ntg.equivalence import NestedConfig, _merge_atomic, verify_nested_bisim
    from ntg.rgs import _uniquify
    from ntg import Input, NtgSignature, Output, Rgs, is_ntg, validate_rgs

    if not rel.exact:
        raise ValueError("only exact relations induce a specification")
    problems = verify_nested_bisim(rel, r1, r2)
    if problems:
        raise ValueError("relation is not a nested bisimulation: " + problems[0])
    c1, c2 = ReferenceCarrier(r1), ReferenceCarrier(r2)

    def stack_pair(cfg):
        return (cfg.left_stack, cfg.right_stack)

    def labels(cfg):
        return c1.lab(cfg.left), c2.lab(cfg.right)

    atomic = _merge_atomic(r1.signature, r2.signature)
    pairs = sorted({stack_pair(cfg) for cfg in rel.configs}, key=lambda p: (len(p[0]), str(p)))
    number = {p: i for i, p in enumerate(pairs)}
    sym_name = _uniquify(pairs, lambda p: f"w{number[p]}", avoid=atomic)

    configs = sorted(rel.configs, key=str)
    members = {p: [] for p in pairs}
    for cfg in configs:
        members[stack_pair(cfg)].append(cfg)
    # inputs are numbered by their two indices within each stack pair
    inputs = [cfg for cfg in configs if all(isinstance(lbl, Input) for lbl in labels(cfg))]
    inputs.sort(key=lambda cfg: (c1.lab(cfg.left).index, c2.lab(cfg.right).index, str(cfg)))
    arity, entry = reference_pair_witness(
        inputs,
        labels,
        lambda cfg: (c1.args(cfg.left), c2.args(cfg.right)),
        stack_pair,
        lambda cfg: (cfg.left_stack + (cfg.left,), cfg.right_stack + (cfg.right,)),
        sym_name.__getitem__,
    )

    rec = {}
    for p in pairs:
        vid = _uniquify(
            members[p],
            lambda cfg: f"{cfg.left[0]}.{cfg.left[1]}|{cfg.right[0]}.{cfg.right[1]}",
        )
        lab = {}
        args = {}
        for cfg in members[p]:
            lab[vid[cfg]], succ = entry(cfg)
            args[vid[cfg]] = tuple(vid[NestedConfig(p[0], x, p[1], y)] for x, y in succ)
        out_vids = [
            vid[cfg] for cfg in members[p] if isinstance(c1.lab(cfg.left), Output)
        ]
        if len(out_vids) != 1:
            raise ValueError(f"stack pair {p} has {len(out_vids)} output configurations")
        rec[sym_name[p]] = TermGraph(lab, args, out_vids[0])

    nested = {sym_name[p]: arity.get(p, 0) for p in pairs}
    sig = NtgSignature(atomic, nested, sym_name[((), ())])
    witness = Rgs(sig, rec)
    assert not validate_rgs(witness), "relation does not induce a well-formed specification"
    assert is_ntg(witness).ok
    return witness


def reference_check_bodies(r):
    """The body checks of ``validate_rgs`` as the library wrote them
    before they became one scan and one walk per body: each body's
    vertices sorted by name for the label checks and again for the edges
    into the output vertex, and a reachability walk of its own.  The
    reference for the violations and their order."""
    from ntg import Atomic, Input, Nested, Output, Violation
    from ntg.graph import check_root_connected

    out = []
    sig = r.signature
    for sym in sorted(r.rec):
        body = r.rec[sym]
        arity = sig.nested[sym]
        outputs = [v for v in body.lab if isinstance(body.lab[v], Output)]
        if len(outputs) != 1:
            out.append(Violation(sym, None, f"body has {len(outputs)} output vertices, expected 1"))
        for v in outputs:
            if v != body.root:
                out.append(Violation(sym, v, "output vertex is not the body root"))
        seen_inputs = {}
        for v in sorted(body.lab, key=str):
            lbl = body.lab[v]
            if isinstance(lbl, Atomic):
                if lbl.name not in sig.atomic:
                    out.append(Violation(sym, v, f"unknown atomic symbol {lbl.name!r}"))
                elif sig.atomic[lbl.name] != lbl.arity:
                    out.append(Violation(sym, v, f"atomic symbol {lbl.name!r} used at wrong arity"))
            elif isinstance(lbl, Nested):
                if lbl.name not in sig.nested:
                    out.append(Violation(sym, v, f"unknown nested symbol {lbl.name!r}"))
                elif sig.nested[lbl.name] != lbl.arity:
                    out.append(Violation(sym, v, f"nested symbol {lbl.name!r} used at wrong arity"))
            elif isinstance(lbl, Input):
                if lbl.index in seen_inputs:
                    out.append(Violation(sym, v, f"duplicate input index {lbl.index}"))
                else:
                    seen_inputs[lbl.index] = v
                if lbl.index > arity:
                    out.append(Violation(sym, v, f"input index {lbl.index} exceeds arity {arity}"))
            elif isinstance(lbl, Output):
                pass
            else:
                out.append(Violation(sym, v, f"label {lbl} is not allowed in a body"))
        for j in range(1, arity + 1):
            if j not in seen_inputs:
                out.append(Violation(sym, None, f"missing input vertex for index {j}"))
        witness = check_root_connected(body)
        if witness is not None:
            out.append(Violation(sym, witness, "body vertex unreachable from the output vertex"))
        out_set = set(outputs)
        for v in sorted(body.lab, key=str):
            for w in body.args[v]:
                if w in out_set:
                    out.append(Violation(sym, v, "edge into the output vertex"))
    return out


def reference_dependency_steps(r):
    """The dependency steps as the library built them before it walked
    each body with a list for its queue: ``reachable`` on every body, then
    its occurrences picked out.  The reference for the steps and their
    order."""
    from ntg import Nested
    from ntg.rgs import DependencyArs, DepStep

    steps = []
    for sym in sorted(r.rec):
        body = r.rec[sym]
        for v in reachable(body, body.root):
            lbl = body.lab[v]
            if isinstance(lbl, Nested):
                steps.append(DepStep(sym, v, lbl.name))
    return DependencyArs(tuple(sorted(r.signature.nested)), r.root_symbol, tuple(steps))


def reference_decide_ntg(r, deps):
    """``is_ntg`` as the library decided it before one walk accepted: the
    full ordered diagnosis on every specification, first the cycle met by
    a depth-first walk, then the least symbol introduced twice, then the
    least unreachable symbol.  The reference for verdicts and defects."""
    from ntg import CoDetViolation, Cycle, NtgResult, UnreachableSymbol
    from ntg.rgs import _find_cycle

    cycle = _find_cycle(deps)
    if cycle is not None:
        return NtgResult(False, Cycle(cycle))
    reach_set = {deps.root}
    queue = deque([deps.root])
    while queue:
        for step in deps.steps_from(queue.popleft()):
            if step.target not in reach_set:
                reach_set.add(step.target)
                queue.append(step.target)
    incoming = {}
    for step in deps.steps:
        if step.source in reach_set:
            incoming.setdefault(step.target, []).append(step)
    for sym in sorted(incoming):
        if len(incoming[sym]) > 1:
            return NtgResult(False, CoDetViolation(sym, (incoming[sym][0], incoming[sym][1])))
    for sym in sorted(r.signature.nested):
        if sym not in reach_set:
            return NtgResult(False, UnreachableSymbol(sym))
    return NtgResult(True)


def reference_ancestor_chains(n):
    """The ancestor chains of ``ntg_to_sntg(n)`` as the library stored them
    before ``Sntg`` kept only innermost ancestors: symbol by symbol in
    dependency order, every vertex of a body gets the chain of the
    occurrence the body is copied for, with that occurrence appended."""
    from ntg.rgs import _reachable_symbols, _tree_dependencies

    deps = _tree_dependencies(n)
    occ_vertex = {n.root_symbol: "root"}
    for step in deps.steps:
        occ_vertex[step.target] = f"{step.source}.{step.vertex}"
    anc = {"root": ()}
    for sym in _reachable_symbols(deps):
        occ = occ_vertex[sym]
        chain = anc[occ] + (occ,)
        for v in n.rec[sym].lab:
            anc[f"{sym}.{v}"] = chain
    return anc


def reference_carrier(n):
    """``firstorder._carrier`` as the library wrote it before it named each
    body's vertices once: one ``redirect`` call, and one name formatted,
    per edge.  The reference of the carrier that ``interpret`` and
    ``ntg_collapse`` share."""
    from typing import Dict, Optional

    from ntg.firstorder import FO_INPUT, ROOT_OUTPUT
    from ntg.labels import Output
    from ntg.rgs import _reachable_symbols, _tree_dependencies

    Vertex = str
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


def reference_check_sntg(s):
    """``check_sntg`` as the library wrote it before it became one scan:
    the vertices sorted by name once per condition, and each level's
    vertices grouped by their ancestor chain.  The reference for the
    violations and their order."""
    from ntg import Input, Nested, Output, SntgViolation

    g = s.tg
    out: list = []

    def bad(cond, vs, msg):
        out.append(SntgViolation(cond, tuple(vs), msg))

    root = g.root
    if not isinstance(g.lab[root], Nested):
        bad("root", [root], "root vertex must carry a defined symbol")
    if s.anc[root] != ():
        bad("root", [root], "root vertex must have an empty ancestor chain")
    if g.lab[root].arity != 0:
        bad("root", [root], "root vertex must be nullary")

    for v in sorted(g.lab, key=str):
        chain = s.anc[v]
        letters = chain + (v,)
        if len(set(letters)) != len(letters):
            bad("nested", [v], "ancestor chain letters must be pairwise distinct")

    for v in sorted(g.lab, key=str):
        for w in g.args[v]:
            if s.anc[w] != s.anc[v]:
                bad("arguments", [v, w], "successor has a different ancestor chain")

    for v in sorted(g.lab, key=str):
        lbl = g.lab[v]
        if (v in s.call) != isinstance(lbl, Nested):
            bad("defined", [v], "call must be defined exactly on defined-symbol vertices")
        if (v in s.ret) != isinstance(lbl, Input):
            bad("defined", [v], "return must be defined exactly on input vertices")

    scopes: dict = {}  # occurrence -> what its call target reaches
    for v in sorted(g.lab, key=str):
        lbl = g.lab[v]
        if not isinstance(lbl, Nested) or v not in s.call:
            continue
        o = s.call[v]
        if not isinstance(g.lab[o], Output):
            bad("step-into", [v, o], "call target is not an output vertex")
            continue
        if s.anc[o] != s.anc[v] + (v,):
            bad("step-into", [v, o], "call target has the wrong ancestor chain")
        scope = scopes[v] = reachable(g, o)
        outputs = [u for u in scope if isinstance(g.lab[u], Output)]
        if outputs != [o]:
            bad("step-into", [v, o], "call target is not the single output vertex of its scope")
        by_index: dict = {}
        for u in scope:
            if isinstance(g.lab[u], Input):
                by_index.setdefault(g.lab[u].index, []).append(u)
        for j in range(1, lbl.arity + 1):
            hits = by_index.pop(j, [])
            if len(hits) != 1:
                bad("step-out", [v], f"scope has {len(hits)} vertices for input index {j}")
                continue
            b = hits[0]
            if b not in s.ret:
                continue  # already reported under (defined)
            if g.args[v][j - 1] != s.ret[b]:
                bad("step-out", [v, b], f"return of input {j} is not successor {j} of the occurrence")
        if by_index:
            j = sorted(by_index)[0]
            bad("step-out", [v] + by_index[j], f"scope has an input with index {j} beyond the arity")

    # completeness: the vertices assigned to a definition level are exactly
    # the vertices its output can reach, and the top level holds only the root
    levels: dict = {}
    for v in sorted(g.lab, key=str):
        levels.setdefault(s.anc[v], []).append(v)
    extra = [v for v in levels.get((), []) if v != root]
    if extra:
        bad("body-connected", extra, "vertices outside every definition")
    for v, scope in scopes.items():
        level = set(levels.get(s.anc[v] + (v,), []))
        stray = sorted(level.difference(scope), key=str)
        if stray:
            bad("body-connected", stray, f"unreachable from the output vertex {s.call[v]}")
    return out


def reference_verify_ntg_hom(n1, n2, phi):
    """``verify_ntg_hom`` as the library wrote it before it looped over
    each body itself: through the carrier, with a vertex pair built for
    every successor looked at.  The reference for the reported clauses
    and their order."""
    from ntg import Atomic, Input, Nested, Output

    c1, c2 = ReferenceCarrier(n1), ReferenceCarrier(n2)
    problems = []
    if phi.get(c1.root) != c2.root:
        problems.append("root definitions are not related")
    for v in c1.vertices():
        w = phi.get(v)
        if w is None:
            problems.append(f"{v}: map is not total")
            continue
        if not c2.has(w):
            problems.append(f"{v}: image is not a vertex of the target")
            continue
        l1, l2 = c1.lab(v), c2.lab(w)
        if isinstance(l1, Atomic):
            if l1 != l2:
                problems.append(f"{v}: atomic label not preserved")
            elif tuple(phi.get(x) for x in c1.args(v)) != c2.args(w):
                problems.append(f"{v}: arguments not preserved")
        elif isinstance(l1, Output):
            if not isinstance(l2, Output):
                problems.append(f"{v}: output vertex not mapped to an output vertex")
            elif tuple(phi.get(x) for x in c1.args(v)) != c2.args(w):
                problems.append(f"{v}: output successor not preserved")
        elif isinstance(l1, Input):
            if not isinstance(l2, Input):
                problems.append(f"{v}: input vertex not mapped to an input vertex")
        else:  # nested occurrence: interface conditions
            if not isinstance(l2, Nested):
                problems.append(f"{v}: occurrence not mapped to an occurrence")
                continue
            if phi.get(c1.rootof[l1.name]) != c2.rootof[l2.name]:
                problems.append(f"{v}: definition roots not related")
            for u in c1.inputs(l1.name):
                img = phi.get(u)
                if img is None:
                    problems.append(f"{u}: map is not total")
                    continue
                if not (c2.has(img) and img[0] == l2.name and isinstance(c2.lab(img), Input)):
                    # the redundancy remark: images of inputs stay inputs
                    # of the related definition
                    problems.append(f"{u}: input maps outside the related definition")
                    continue
                i = c1.lab(u).index
                j = c2.lab(img).index
                if j > l2.arity:
                    problems.append(f"{u}: image input index exceeds arity")
                    continue
                if phi.get(c1.args(v)[i - 1]) != c2.args(w)[j - 1]:
                    problems.append(f"{v}: interface clause fails at input {i}")
    return problems


def reference_infer_ancestors(g):
    """``infer_ancestors`` as the library wrote it before its pass kept
    only each chain's last letter: every vertex gets its whole ancestor
    chain, and chains are compared in full wherever two meet.  The
    reference for the chains and for the failures, in their order."""
    from ntg.firstorder import AncestorFailure, FoInput, PrimedConst, RootInput, RootOutput
    from ntg.labels import Atomic, Output

    if not isinstance(g.lab[g.root], RootOutput):
        return None, AncestorFailure(g.root, "root is not labeled as the root output")
    anc = {g.root: ()}
    queue = deque([g.root])

    def assign(v, chain):
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


def reference_member_ancestors(g):
    """Membership as the library wrote it before one propagation accepted
    members: ``check_root_connected``, a label scan, the chain propagation
    of ``reference_infer_ancestors`` and a scan of every constant's exit
    chain, in that order on every graph.  ``(anc, None)`` or ``(None,
    obstruction)``: the reference of ``rg_defect``'s reports."""
    from ntg.firstorder import (
        _FO_LABELS, AncestorFailure, FoInput, PrimedConst, RootInput, RootOutput,
        exit_chain_ends,
    )
    from ntg.graph import check_root_connected

    witness = check_root_connected(g)
    if witness is not None:
        return None, AncestorFailure(witness, "not root-connected")
    for v in g.lab:
        if not isinstance(g.lab[v], _FO_LABELS):
            return None, AncestorFailure(v, f"label {g.lab[v]} is not first-order")
        if isinstance(g.lab[v], RootOutput) and v != g.root:
            return None, AncestorFailure(v, "root-output label away from the root")
    anc, err = reference_infer_ancestors(g)
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


def reference_check_fully_backlinked(g):
    """``check_fully_backlinked`` by definition: one breadth-first walk from
    every vertex, which must reach every letter of its ancestor chain."""
    anc, defect = reference_member_ancestors(g)
    if defect is not None:
        raise ValueError(f"not a representing graph: {defect}")
    for v in g.lab:
        if anc[v] and not set(anc[v]) <= set(reachable(g, v)):
            return False
    return True


def reference_read_back(g, inner, depth, end=None):
    """``firstorder._read_back`` as the library wrote it before each scope
    was read back in one walk: a walk per scope numbers its inputs, then a
    second interpreter of work items (visit a vertex, seal a body vertex's
    successors, close a body) builds the bodies with a memo per body, and
    checks that no call or argument crosses a scope level; occurrences are
    named ``<sym>/<w>``, as the library names them.  ``inner`` maps
    each vertex to its innermost enclosing output vertex, ``depth`` each
    output vertex to its nesting depth."""
    from ntg import NtgSignature, Rgs, is_ntg, validate_rgs
    from ntg.firstorder import (
        FoInput, NotRepresentableError, PrimedConst, RootInput, RootOutput, exit_chain_ends,
    )
    from ntg.labels import OUTPUT, Output
    from ntg.rgs import _namer

    end = end or exit_chain_ends(g.lab, g.args)

    def is_chain(v):
        return isinstance(g.lab[end(v)], RootInput)

    inputs_of = {}
    for o in sorted(depth, key=depth.__getitem__, reverse=True):
        order, seen, stack = [], set(), [g.args[o][0]]
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
        inputs_of[o] = order

    atomic, shared, nested_sig, rec = {}, {}, {}, {}

    def note_atomic(name, arity):
        if atomic.setdefault(name, arity) != arity:
            raise NotRepresentableError(
                f"symbol {name!r} occurs both as a constant and with arity {arity}"
            )

    new_name = _namer(lbl.name for lbl in g.lab.values() if isinstance(lbl, (Atomic, PrimedConst)))
    scope_names = (f"d{k}" for k in count())

    class Scope:
        def __init__(self, o):
            self.sym = new_name(scope_names)
            nested_sig[self.sym] = len(inputs_of[o])
            self.o = o
            self.index_of = {b: j for j, b in enumerate(inputs_of[o], start=1)}
            self.lab = {f"{self.sym}:{o}": OUTPUT}
            self.args = {}
            self.memo = {}

    VISIT, SEAL, CLOSE = range(3)
    root = Scope(g.root)
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
            if inner[v] != scope.o:
                raise NotRepresentableError(f"call at {v!r} crosses a scope level")
            occ_id = f"{scope.sym}/{v}"
            scope.memo[v] = occ_id
            callee = Scope(v)
            scope.lab[occ_id] = Nested(callee.sym, len(inputs_of[v]))
            actual = [g.args[b][0] for b in inputs_of[v]]
            work.append((SEAL, scope, occ_id, actual))
            work.extend((VISIT, scope, w, None) for w in reversed(actual))
            work.append((CLOSE, callee, None, None))
            work.append((VISIT, callee, g.args[v][0], None))
            continue
        if isinstance(lbl, RootInput) or (isinstance(lbl, FoInput) and is_chain(v)):
            raise NotRepresentableError(f"argument at {v!r} references a constant's exit chain")
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
            scope.lab[vid] = shared.get(lbl.name) or shared.setdefault(lbl.name, Atomic(lbl.name, 0))
            scope.args[vid] = ()
        else:
            j = scope.index_of[v]
            scope.lab[vid] = shared.get(j) or shared.setdefault(j, Input(j))
            scope.args[vid] = ()

    if inputs_of[g.root]:
        raise NotRepresentableError("root definition has inputs")
    n = Rgs(NtgSignature(atomic, nested_sig, root.sym), rec)
    assert not validate_rgs(n) and is_ntg(n).ok
    return n


def reference_represent(g):
    """``represent`` on the reference membership and the reference
    read-back, given the innermost letter and the length of every vertex's
    chain."""
    anc, defect = reference_member_ancestors(g)
    if defect is not None:
        raise ValueError(f"not a representing graph: {defect}")
    from ntg.firstorder import RootOutput
    from ntg.labels import Output

    inner = {v: chain[-1] if chain else None for v, chain in anc.items()}
    outputs = (v for v in anc if isinstance(g.lab[v], (Output, RootOutput)))
    return reference_read_back(g, inner, {v: len(anc[v]) for v in outputs})


def scoped_quotient(n):
    """``ntg_collapse``'s quotient of the carrier of ``n``: ``(q, q_inner,
    q_depth)``, the quotient by the refinement keyed by each vertex's
    arguments and innermost output vertex, each block's innermost block
    (None at the root output) and each output block's depth."""
    from ntg.graph import _quotient, _refine

    c, inner, depth = n._carrier
    seqs = {v: c.args[v] if inner[v] is None else c.args[v] + (inner[v],) for v in c.lab}
    block = _refine(c.lab, seqs)
    q_inner = {b: block.get(inner[v]) for v, b in block.items()}
    return _quotient(c, block), q_inner, {block[o]: k for o, k in depth.items()}


def reference_tg_isomorphic(g1, g2):
    """``tg_isomorphic`` as the library wrote it before it read the
    homomorphism: one synchronized walk from the root pair, keeping the
    map and its inverse, plus a totality check."""
    if len(g1) != len(g2):
        return None
    fwd, bwd = {}, {}
    queue = deque([(g1.root, g2.root)])
    while queue:
        v, w = queue.popleft()
        if v in fwd or w in bwd:
            if fwd.get(v) != w or bwd.get(w) != v:
                return None
            continue
        if g1.lab[v] != g2.lab[w]:
            return None
        fwd[v] = w
        bwd[w] = v
        queue.extend(zip(g1.args[v], g2.args[w]))
    if len(fwd) != len(g1):
        return None
    return fwd


def reference_ntg_isomorphic(n1, n2):
    """``ntg_isomorphic`` as the library wrote it before it read the
    summary tables: a bijective walk of each pair of bodies, from their
    roots, that pairs the callee bodies of an occurrence pair first and
    then the occurrences' arguments through the callee's input
    permutation.  Walks nested bodies with an explicit stack of
    generators, so nesting depth costs no recursion.  For valid
    tree-shaped specifications."""
    from ntg import NtgIso
    from ntg.labels import Atomic, Output, _compatible

    if len(n1.signature.nested) != len(n2.signature.nested):
        return None
    c1, c2 = ReferenceCarrier(n1), ReferenceCarrier(n2)
    symbol_map, vertex_map, input_perm = {}, {}, {}

    def pair_bodies(f1, f2):
        # yields each callee pair it needs paired first and receives that
        # verdict back
        if n1.signature.nested[f1] != n2.signature.nested[f2]:
            return False
        if len(n1.rec[f1]) != len(n2.rec[f2]):
            return False
        perm, fwd, bwd = {}, {}, {}
        queue = deque([(c1.rootof[f1], c2.rootof[f2])])
        while queue:
            v, w = queue.popleft()
            if v in fwd or w in bwd:
                if fwd.get(v) != w or bwd.get(w) != v:
                    return False
                continue
            l1, l2 = c1.lab(v), c2.lab(w)
            if not _compatible(l1, l2):
                return False
            fwd[v] = w
            bwd[w] = v
            if isinstance(l1, (Atomic, Output)):
                queue.extend(zip(c1.args(v), c2.args(w)))
            elif isinstance(l1, Input):
                # bijectivity of the permutation is checked after the walk
                if perm.setdefault(l1.index, l2.index) != l2.index:
                    return False
            else:  # nested occurrence
                g1, g2 = l1.name, l2.name
                if l1.arity != l2.arity or symbol_map.setdefault(g1, g2) != g2:
                    return False
                if not (yield g1, g2):
                    return False
                sub = input_perm[g1]
                for i in range(1, l1.arity + 1):
                    queue.append((c1.args(v)[i - 1], c2.args(w)[sub[i] - 1]))
        indices = list(range(1, n1.signature.nested[f1] + 1))
        if sorted(perm) != indices or sorted(perm.values()) != indices:
            return False
        input_perm[f1] = perm
        vertex_map.update(fwd)
        return True

    symbol_map[n1.root_symbol] = n2.root_symbol
    stack = [pair_bodies(n1.root_symbol, n2.root_symbol)]
    verdict = None
    while stack:
        try:
            callee = stack[-1].send(verdict)
        except StopIteration as done:
            stack.pop()
            verdict = done.value
        else:
            stack.append(pair_bodies(*callee))
            verdict = None
    if not verdict or len(symbol_map) != len(n1.signature.nested):
        return None
    if len(set(symbol_map.values())) != len(symbol_map):
        return None
    return NtgIso(symbol_map, vertex_map, input_perm)
