import random
import re

import pytest

from ntg import (
    Input,
    Sntg,
    TermGraph,
    check_sntg,
    ntg_isomorphic,
    ntg_to_sntg,
    parse_rgs,
    sntg_bisimilar,
    sntg_hom,
    sntg_to_ntg,
    verify_sntg_hom,
)
from generators import break_structure, depth_family, random_acyclic_rgs, random_ntg
from oracles import brute_force_sntg_hom, reference_ancestor_chains, reference_check_sntg


def test_conversion_counts_for_running_example(fix_n):
    s = ntg_to_sntg(fix_n)
    # counted from the structural figure: bodies of 8+6+10+3 vertices plus
    # the root occurrence; call links from the root and the three
    # occurrences; return links from the three input vertices
    assert len(s.tg) == 28
    assert len(s.call) == 4
    assert len(s.ret) == 3
    assert check_sntg(s) == []


def test_conversion_counts_trivial(fix_triv):
    s = ntg_to_sntg(fix_triv)
    assert len(s.tg) == 3 and len(s.call) == 1 and len(s.ret) == 0


def test_conversion_counts_unfolded_shared(fix_r0):
    from ntg import unfold_to_ntg

    s = ntg_to_sntg(unfold_to_ntg(fix_r0).rgs)
    assert len(s.tg) == 1 + 8 + 2 * 10 + 3
    assert len(s.call) == 4


def _mutate(s: Sntg, **overrides) -> Sntg:
    parts = {
        "tg": s.tg,
        "call": dict(s.call),
        "ret": dict(s.ret),
        "inner": dict(s.inner),
    }
    parts.update(overrides)
    return Sntg(**parts)


def _to_grandparent(s: Sntg) -> Sntg:
    # the first vertex two levels down, moved up one level
    victim = next(v for v in sorted(s.anc, key=str) if len(s.anc[v]) >= 2)
    return _mutate(s, inner={**s.inner, victim: s.inner[s.inner[victim]]})


def test_fault_injection_shortened_ancestor(fix_n):
    broken = _to_grandparent(ntg_to_sntg(fix_n))
    conditions = {v.condition for v in check_sntg(broken)}
    assert conditions & {"arguments", "step-into"}


def test_constructor_rejects_bad_ancestor_pointers(fix_n):
    s = ntg_to_sntg(fix_n)
    occ = next(v for v in sorted(s.call, key=str) if s.inner[v] is not None)
    out = s.call[occ]  # one level below occ
    for bad, match in [
        ({occ: out}, "cycle"),
        ({occ: occ}, "cycle"),
        ({out: "zz"}, "unknown vertex 'zz'"),
    ]:
        with pytest.raises(ValueError, match=match):
            _mutate(s, inner={**s.inner, **bad})
    partial = dict(s.inner)
    del partial[out]
    with pytest.raises(ValueError, match="total"):
        _mutate(s, inner=partial)
    with pytest.raises(ValueError, match=r"^call map mentions unknown vertex 'nowhere' or "):
        _mutate(s, call={**s.call, "nowhere": s.tg.root})


def test_chains_are_the_chains_stored_before(tree_corpus):
    rng = random.Random(53)
    specs = tree_corpus + [random_ntg(rng) for _ in range(60)] + [depth_family(d) for d in (1, 12, 40)]
    for n in specs:
        s = ntg_to_sntg(n)
        assert s.anc == reference_ancestor_chains(n)
        below = {}  # the vertices below one letter share one tuple
        for v, chain in s.anc.items():
            assert below.setdefault(s.inner[v], chain) is chain


def test_no_stage_builds_the_chains():
    from ntg import export_dot

    s = ntg_to_sntg(depth_family(200))
    assert check_sntg(s) == []
    sntg_to_ntg(s)
    phi = sntg_hom(s, s)
    assert verify_sntg_hom(s, s, phi) == []
    witness = sntg_bisimilar(s, s)
    export_dot(s)
    export_dot(witness)
    assert "anc" not in s.__dict__ and "anc" not in witness.__dict__


def test_fault_injection_dropped_return(fix_n):
    s = ntg_to_sntg(fix_n)
    victim = sorted(s.ret, key=str)[0]
    ret = dict(s.ret)
    del ret[victim]
    broken = _mutate(s, ret=ret)
    assert any(v.condition == "defined" for v in check_sntg(broken))


def test_fault_injection_wrong_return_target(fix_n):
    s = ntg_to_sntg(fix_n)
    victim = sorted(s.ret, key=str)[0]
    ret = dict(s.ret)
    ret[victim] = s.tg.root
    broken = _mutate(s, ret=ret)
    assert any(v.condition == "step-out" for v in check_sntg(broken))


def test_check_rejects_disconnected_body_junk(fix_triv):
    # junk beside the body, and junk below a vertex that opens no body,
    # which the cut into bodies used to drop
    from ntg import Atomic, SntgViolation

    s = ntg_to_sntg(fix_triv)
    lab = {**s.tg.lab, "junk": Atomic("c", 0)}
    args = {**s.tg.args, "junk": ()}
    cases = [(s.tg.root, "unreachable from the output vertex r.a"), ("r.b", "vertices outside every definition")]
    for above, message in cases:
        broken = Sntg(TermGraph(lab, args, s.tg.root), s.call, s.ret, {**s.inner, "junk": above})
        assert check_sntg(broken) == [SntgViolation("body-connected", ("junk",), message)]
        with pytest.raises(ValueError, match="^invalid left structural representation: "):
            sntg_hom(broken, s)


def _edited(text, lab=(), args=()):
    """The structure of the specification ``text`` with the labels and
    successors of some vertices replaced."""
    s = ntg_to_sntg(parse_rgs(text))
    g = s.tg
    return Sntg(TermGraph({**g.lab, **dict(lab)}, {**g.args, **dict(args)}, g.root), s.call, s.ret, s.inner)


def _cut_faults():
    """Structures that break only conditions that the cut into bodies
    needs, each with its violations."""
    from ntg import Atomic, PrimedConst, SntgViolation

    loop = "atomic c/1; def r/0 { o: out(a); a: c(a); }"
    pair = "atomic c/0, f/1; def r/0 { o: out(a); a: f(k); k: c; }"
    two_arities = "atomic symbol 'c' used at two arities"
    cases = [
        (_edited(loop, args={"r.a": ("r.o",)}), [("arguments", ("r.a", "r.o"), "edge into the output vertex")]),
        (_edited(loop, lab={"r.a": PrimedConst("c")}), [("labels", ("r.a",), "label c is not allowed in a body")]),
        (_edited(pair, lab={"r.a": Atomic("c", 1)}),
         [("labels", ("r.a",), two_arities), ("labels", ("r.k",), two_arities)]),
    ]
    for name in ("root", "in", "i_3"):
        reserved = ("labels", ("r.k",), f"symbol name {name!r} is reserved")
        cases.append((_edited(pair, lab={"r.k": Atomic(name, 0)}), [reserved]))
    return [(b, [SntgViolation(*v) for v in vs]) for b, vs in cases]


def test_check_reports_what_the_cut_needs():
    # each case passed the check once, and the cut into bodies refused it
    good = ntg_to_sntg(parse_rgs("atomic c/0; def r/0 { o: out(k); k: c; }"))
    for b, violations in _cut_faults():
        assert check_sntg(b) == violations
        for decide in (sntg_hom, sntg_bisimilar):
            with pytest.raises(ValueError) as left:
                decide(b, good)
            assert str(left.value) == f"invalid left structural representation: {violations[0]}"
            with pytest.raises(ValueError, match="^invalid right structural representation: "):
                decide(good, b)
        with pytest.raises(ValueError, match="^invalid structural representation: "):
            sntg_to_ntg(b)


def test_every_accepted_structure_cuts(tree_corpus):
    # mutants that the check accepts, and the cut gives the results that a
    # fresh specification of the same bodies computes
    from ntg import Rgs

    rng = random.Random(5)
    structures = [ntg_to_sntg(random_ntg(rng)) for _ in range(60)]
    structures += [ntg_to_sntg(depth_family(d)) for d in (2, 5)]
    accepted = []
    changed = 0  # accepted mutants that differ from their source
    for _ in range(200):  # one mutant in 11 relabels a vertex, which the check always refuses
        for s in structures:
            try:
                b = break_structure(rng, s)
            except ValueError:  # a link to an unknown vertex, or a pointer cycle
                continue
            if not check_sntg(b):
                accepted.append(b)
                parts = (b.tg.lab, b.tg.args, b.tg.root, b.call, b.ret, b.inner)
                changed += parts != (s.tg.lab, s.tg.args, s.tg.root, s.call, s.ret, s.inner)
    assert changed > 70  # most accepted mutants are unchanged copies
    for s in accepted + [ntg_to_sntg(n) for n in tree_corpus]:
        n = sntg_to_ntg(s)
        fresh = Rgs(n.signature, n.rec)
        assert (n._walks, n._violations, n._ntg) == (fresh._walks, fresh._violations, fresh._ntg)
        assert n._violations == () and n._ntg.ok


def test_check_equals_the_sorted_reference(tree_corpus):
    from ntg import nested_bisim, unfold_to_ntg
    from generators import depth_family, relabel_constant

    rng = random.Random(191)
    randoms = []
    for _ in range(40):
        randoms += [random_ntg(rng), unfold_to_ntg(random_acyclic_rgs(rng)).rgs]
    specs = tree_corpus + [depth_family(d) for d in (1, 5, 12)] + randoms
    # and summary witnesses, whose vertices are built from pairs
    specs += [w.witness for w in (
        nested_bisim(n, relabel_constant(rng, n)).witness for n in randoms[::3]
    ) if w is not None]
    structures = [ntg_to_sntg(n) for n in specs]
    # the faults that only the cut into bodies used to find, one by one
    # and together: a reserved name at two arities beside a first-order
    # label and an edge into the output vertex
    from ntg import Atomic, FO_INPUT

    faults = [b for b, _ in _cut_faults()]
    faults.append(_edited(
        "atomic c/0, f/1, g/2; def r/0 { o: out(a); a: g(k, m); k: c; m: f(n); n: f(k); }",
        lab={"r.a": FO_INPUT, "r.k": Atomic("in", 0), "r.m": Atomic("in", 1), "r.n": Atomic("c", 1)},
        args={"r.n": ("r.o",)},
    ))

    def mutants(structures):
        out = []
        for s in structures:
            for _ in range(4):
                try:
                    s = break_structure(rng, s)
                except ValueError:  # a link to an unknown vertex, or a pointer cycle
                    continue
                out.append(s)
        return out

    def kinds(structures):
        found = set()
        for s in structures:
            ours = check_sntg(s)
            assert ours == reference_check_sntg(s)
            found.update((v.condition, re.sub(r"\d+|(?<=vertex )\S+$", "#", v.message)) for v in ours)
        return found

    # the mutants alone reach each kind of the ``labels`` condition
    alone = kinds(mutants(structures))
    assert {re.sub(r"'[^']*'|(?<=^label )\S+", "X", m) for c, m in alone if c == "labels"} == {
        "label X is not allowed in a body", "atomic symbol X used at two arities", "symbol name X is reserved",
    }
    found = alone | kinds(structures + faults + mutants(faults))
    assert found == {
        ("root", "root vertex must carry a defined symbol"),
        ("root", "root vertex must have an empty ancestor chain"),
        ("root", "root vertex must be nullary"),
        ("arguments", "successor has a different ancestor chain"),
        ("arguments", "edge into the output vertex"),
        ("labels", "label c is not allowed in a body"),
        ("labels", "atomic symbol 'c' used at two arities"),
        ("labels", "atomic symbol 'in' used at two arities"),
        # and, from the mutants, the atomic names of the generated corpus
        *(("labels", f"atomic symbol {name!r} used at two arities")
          for name in ("app", "b#", "ca", "cb", "root", "t#", "u#")),
        ("labels", "symbol name 'root' is reserved"),
        ("labels", "symbol name 'in' is reserved"),
        ("labels", "symbol name 'i_#' is reserved"),
        ("labels", "label in is not allowed in a body"),
        ("defined", "call must be defined exactly on defined-symbol vertices"),
        ("defined", "return must be defined exactly on input vertices"),
        ("step-into", "call target is not an output vertex"),
        ("step-into", "call target has the wrong ancestor chain"),
        ("step-into", "call target is not the single output vertex of its scope"),
        ("step-out", "scope has # vertices for input index #"),
        ("step-out", "return of input # is not successor # of the occurrence"),
        ("step-out", "scope has an input with index # beyond the arity"),
        ("body-connected", "vertices outside every definition"),
        ("body-connected", "unreachable from the output vertex #"),
    }


def test_roundtrip_on_corpus(tree_corpus):
    for n in tree_corpus:
        s = ntg_to_sntg(n)
        assert check_sntg(s) == []
        back = sntg_to_ntg(s)
        assert ntg_isomorphic(n, back) is not None


def test_roundtrip_on_random(tree_corpus):
    rng = random.Random(41)
    for _ in range(30):
        n = random_ntg(rng)
        back = sntg_to_ntg(ntg_to_sntg(n))
        assert ntg_isomorphic(n, back) is not None


def test_sntg_to_ntg_keeps_each_input_label():
    # the occurrence passes c at both positions, and breadth-first order
    # from f's output meets ``in 2`` first: each input keeps its own index
    n = parse_rgs(
        "atomic g/2, k/0;\nroot r;\n"
        "def r/0 { o: out(a); a: f(c, c); c: k; }\n"
        "def f/2 { o: out(b); b: g(y, x); y: in 2; x: in 1; }\n"
    )
    s = ntg_to_sntg(n)
    back = sntg_to_ntg(s)
    cut = {v: lbl for body in back.rec.values() for v, lbl in body.lab.items()}
    inputs = {v: lbl for v, lbl in s.tg.lab.items() if isinstance(lbl, Input)}
    assert sorted(map(str, inputs.values())) == ["in 1", "in 2"]
    assert all(cut[v] == lbl for v, lbl in inputs.items())
    assert ntg_isomorphic(n, back) is not None


def test_sntg_to_ntg_rejects_broken_input(fix_n):
    with pytest.raises(ValueError):
        sntg_to_ntg(_to_grandparent(ntg_to_sntg(fix_n)))


def test_hom_identity(fix_n):
    s = ntg_to_sntg(fix_n)
    assert sntg_hom(s, s) == {v: v for v in s.tg.lab}


def test_hom_along_sharing_chain(sharing_chain):
    a, b, c, d = sharing_chain
    structures = [ntg_to_sntg(x) for x in (a, b, c, d)]
    for hi, lo in [(3, 2), (2, 1), (1, 0)]:
        phi = sntg_hom(structures[hi], structures[lo])
        assert phi is not None
        assert verify_sntg_hom(structures[hi], structures[lo], phi) == []
        assert sntg_hom(structures[lo], structures[hi]) is None


def test_hom_agrees_with_brute_force_on_chain(sharing_chain):
    structures = [ntg_to_sntg(x) for x in sharing_chain]
    for i in range(4):
        for j in range(4):
            ours = sntg_hom(structures[i], structures[j])
            oracle = brute_force_sntg_hom(structures[i], structures[j])
            assert (ours is None) == (oracle is None), (i, j)


def test_hom_reports_a_clash_processed_before_a_second_image():
    # the closure stops at the clash (r.x, r.p); the pair (r.x, r.q), which
    # meets a second right vertex, is discovered before it but processed
    # after it, so the clash is the conflict
    from ntg.graph import HomConflict
    from ntg.sntg import sntg_hom_explained
    from oracles import reference_sntg_hom_explained

    left = ntg_to_sntg(parse_rgs("atomic c/0, d/0, g/2; def r/0 { a: out(b); b: g(x, x); x: c; }"))
    right = ntg_to_sntg(parse_rgs("atomic c/0, d/0, g/2; def r/0 { a: out(b); b: g(p, q); p: d; q: c; }"))
    clash = HomConflict("r.x", "r.p", "labels c and d do not match")
    assert sntg_hom_explained(left, right) == reference_sntg_hom_explained(left, right) == (None, clash)


def test_verify_sntg_hom_reports_partial_maps_and_foreign_images(fix_n):
    s = ntg_to_sntg(fix_n)
    ident = {v: v for v in s.tg.lab}
    victim = sorted(s.ret, key=str)[0]
    for image in ["zz", ["x"]]:
        problems = verify_sntg_hom(s, s, {**ident, victim: image})
        assert f"{victim}: image is not a vertex of the target" in problems
    del ident[victim]
    assert f"{victim}: map is not total" in verify_sntg_hom(s, s, ident)


def test_verify_sntg_hom_reports_an_invalid_left_structure(fix_n, tree_corpus):
    # a left structure without a call or return link where the checks
    # read one is reported by its first violation, not looked up
    s = ntg_to_sntg(fix_n)
    ident = {v: v for v in s.tg.lab}
    for v in [*s.call, *s.ret]:  # one call or return link dropped
        b = _mutate(s, call={u: w for u, w in s.call.items() if u != v},
                    ret={u: w for u, w in s.ret.items() if u != v})
        assert verify_sntg_hom(b, s, ident) == [f"invalid left structural representation: {check_sntg(b)[0]}"]
    rng = random.Random(9)
    checked = 0
    for s in [ntg_to_sntg(n) for n in tree_corpus] * 40:
        try:
            b = break_structure(rng, s)
        except ValueError:  # a link to an unknown vertex, or a pointer cycle
            continue
        if not check_sntg(b):
            continue
        checked += 1
        first = f"invalid left structural representation: {check_sntg(b)[0]}"
        assert verify_sntg_hom(b, s, {v: v for v in b.tg.lab}) == [first]
        assert isinstance(verify_sntg_hom(s, b, {v: v for v in s.tg.lab}), list)
    assert checked > 150


def test_deciders_refuse_invalid_structures(tree_corpus):
    rng = random.Random(5)
    good = [ntg_to_sntg(n) for n in tree_corpus]
    broken = []
    for s in good * 60:
        try:
            b = break_structure(rng, s)
        except ValueError:  # a link to an unknown vertex, or a pointer cycle
            continue
        if check_sntg(b):
            broken.append((b, s))
    assert len(broken) > 300
    for b, s in broken:
        first = f"invalid left structural representation: {check_sntg(b)[0]}"
        for decide in (sntg_hom, sntg_bisimilar):
            with pytest.raises(ValueError) as left:
                decide(b, s)
            assert str(left.value) == first
            with pytest.raises(ValueError, match="^invalid right structural representation: "):
                decide(s, b)


def test_bisimilar_diagonal(fix_n):
    s = ntg_to_sntg(fix_n)
    witness = sntg_bisimilar(s, s)
    assert witness is not None
    assert len(witness.tg) == len(s.tg)


def test_bisimilar_chain_members(sharing_chain):
    structures = [ntg_to_sntg(x) for x in sharing_chain]
    for i in range(4):
        for j in range(4):
            assert sntg_bisimilar(structures[i], structures[j]) is not None


def test_bisimilar_distinguishes_constants(fix_triv):
    from ntg import Atomic, NtgSignature, Rgs, make_graph, Output

    other = Rgs(
        NtgSignature({"c": 0, "d": 0}, {"r": 0}, "r"),
        {"r": make_graph("a", {"a": (Output(), ["b"]), "b": (Atomic("d", 0), [])})},
    )
    s1 = ntg_to_sntg(fix_triv)
    s2 = ntg_to_sntg(other)
    assert sntg_bisimilar(s1, s2) is None


def test_round_trip_checks_the_structure_once(monkeypatch, tree_corpus):
    # the violations are kept on the structure: the check at the end of
    # ntg_to_sntg and the input check of sntg_to_ntg share one scan
    import ntg.sntg

    calls = []
    scan = ntg.sntg._check_sntg
    monkeypatch.setattr(ntg.sntg, "_check_sntg", lambda s: calls.append(s) or scan(s))
    for n in tree_corpus + [depth_family(12)]:
        calls.clear()
        s = ntg_to_sntg(n)
        sntg_to_ntg(s)
        assert len(calls) == 1
        first = check_sntg(s)
        first.append("changed by the caller")
        assert check_sntg(s) == [] and len(calls) == 1


def test_round_trip_walks_each_scope_once(monkeypatch, tree_corpus):
    # sntg_to_ntg cuts its bodies from the scopes the check walked
    import ntg.sntg

    calls = []
    walk = ntg.sntg.reachable
    monkeypatch.setattr(ntg.sntg, "reachable", lambda g, v: calls.append(v) or walk(g, v))
    rng = random.Random(47)
    for n in tree_corpus + [depth_family(12)] + [random_ntg(rng) for _ in range(10)]:
        calls.clear()
        back = sntg_to_ntg(ntg_to_sntg(n))
        assert len(calls) == len(n.rec) == len(back.rec)
        assert ntg_isomorphic(n, back) is not None


def test_hom_check_reports_an_unmapped_root():
    s = ntg_to_sntg(parse_rgs("atomic c/0; def r/0 { a: out(b); b: c; }"))
    phi = {v: v for v in s.tg.lab}
    assert verify_sntg_hom(s, s, phi) == []
    other = next(v for v in s.tg.lab if v != s.tg.root)
    assert verify_sntg_hom(s, s, {**phi, s.tg.root: other})[0] == "root not mapped to root"
