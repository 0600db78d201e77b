import random
import re
import time

import pytest

from ntg import (
    cross_check_theorems,
    dependency_height,
    is_ntg,
    nested_bisim,
    nested_hom,
    ntg_bisimilar,
    ntg_hom,
    ntg_isomorphic,
    ntg_to_sntg,
    print_rgs,
    represent,
    sntg_hom,
    unfold_to_ntg,
    validate_rgs,
    verify_nested_bisim,
    verify_ntg_hom,
)
from ntg.equivalence import NestedConfig
from ntg.firstorder import interpret, ntg_collapse
from generators import (
    break_body,
    depth_family,
    fanout_family,
    mutate_ntg,
    permute_inputs,
    random_acyclic_rgs,
    random_cyclic_rgs,
    random_ntg,
    relabel,
    relabel_constant,
    split_shared_vertex,
    unroll_twice,
)
from oracles import (
    ReferenceCarrier,
    brute_force_ntg_hom,
    closure,
    closure_nested_hom,
    closure_ntg_bisimilar,
    closure_relation,
    context_of,
    reference_ntg_isomorphic,
    reference_verify_ntg_hom,
    relation_witness,
    replay_path,
)


def test_hom_identity(fix_n):
    phi = ntg_hom(fix_n, fix_n)
    assert phi is not None and all(k == v for k, v in phi.items())
    assert verify_ntg_hom(fix_n, fix_n, phi) == []


def test_hom_chain_directions(sharing_chain):
    a, b, c, d = sharing_chain
    for hi, lo in [(d, c), (c, b), (b, a)]:
        assert ntg_hom(hi, lo) is not None
        assert ntg_hom(lo, hi) is None


def test_hom_none_reports_conflict(sharing_chain):
    a, _, _, d = sharing_chain
    assert ntg_hom(a, d) is None
    res = nested_hom(a, d)
    assert res.conflict is not None or res.counterexample is not None
    _check_hom(a, d, res)


def test_hom_chain_agrees_with_brute_force(sharing_chain):
    # a homomorphism of tree-shaped specifications is forced from the root
    # pair, so the first one the enumeration finds is the only one
    for n1 in sharing_chain:
        for n2 in sharing_chain:
            assert ntg_hom(n1, n2) == brute_force_ntg_hom(n1, n2)


def test_hom_maps_input_to_smaller_arity(sharing_chain):
    a, b, c, d = sharing_chain
    phi = ntg_hom(c, b)
    # the definition of arity 2 maps onto the definition of arity 1
    nested_images = {
        k[0]: v[0] for k, v in phi.items()
    }
    assert nested_images["f"] == "f"
    assert verify_ntg_hom(c, b, phi) == []


def test_hom_implies_bisimilar(sharing_chain, fix_n, fix_triv):
    pool = sharing_chain + [fix_n, fix_triv]
    for n1 in pool:
        for n2 in pool:
            if ntg_hom(n1, n2) is not None:
                assert ntg_bisimilar(n1, n2) is not None


def test_bisimilar_diagonal_witness(fix_n):
    res = ntg_bisimilar(fix_n, fix_n)
    assert res is not None
    assert len(res.witness.signature.nested) == len(fix_n.signature.nested)


def test_bisimilar_chain_pairwise(sharing_chain):
    for n1 in sharing_chain:
        for n2 in sharing_chain:
            assert ntg_bisimilar(n1, n2) is not None


def test_bisimilar_rejects_different_constants(fix_triv):
    from ntg import Atomic, NtgSignature, Output, Rgs, make_graph

    other = Rgs(
        NtgSignature({"c": 0, "d": 0}, {"r": 0}, "r"),
        {"r": make_graph("a", {"a": (Output(), ["b"]), "b": (Atomic("d", 0), [])})},
    )
    assert ntg_bisimilar(fix_triv, other) is None
    res = nested_bisim(fix_triv, other)
    assert res.verdict == "not_bisimilar"
    assert res.counterexample is not None


def test_nested_bisim_reflexive(tree_corpus):
    for n in tree_corpus:
        res = nested_bisim(n, n)
        assert res.bisimilar
        for cfg in res.relation.configs:
            assert cfg.left == cfg.right


def test_nested_bisim_specification_against_unfolding(fix_r0):
    unfolded = unfold_to_ntg(fix_r0).rgs
    assert nested_bisim(fix_r0, unfolded).bisimilar
    assert nested_hom(fix_r0, unfolded).exists
    assert nested_hom(unfolded, fix_r0).exists


def test_nested_bisim_decides_cycles_exactly(fix_r1):
    for depth in (None, 4):
        res = nested_bisim(fix_r1, fix_r1, depth)
        assert res.verdict == "bisimilar"
        # no finite relation exists to build on cyclic input
        assert res.relation is None


def test_nested_bisim_cyclic_negative_is_definite(fix_r1):
    from ntg import Atomic, Nested, NtgSignature, Output, Rgs, make_graph

    other = Rgs(
        NtgSignature({"lam": 1, "app": 2, "v": 0, "w": 0}, {"f": 0}, "f"),
        {"f": make_graph("o", {"o": (Output(), ["l"]), "l": (Atomic("w", 0), [])})},
    )
    res = nested_bisim(fix_r1, other, depth=4)
    assert res.verdict == "not_bisimilar"


def test_nested_hom_identity(tree_corpus):
    for n in tree_corpus:
        res = nested_hom(n, n)
        assert res.exists
        assert all(v == w and key in (None, (v[0], v[0])) for (key, v), w in res.certificate.items())


def test_nested_hom_chain_composite(sharing_chain):
    a, _, _, d = sharing_chain
    assert nested_hom(d, a).exists
    assert not nested_hom(a, d).exists


def test_nested_hom_decides_cycles_without_depth(fix_r1):
    from conftest import load_rgs

    unrolled = load_rgs("r1_unrolled.rgs")
    for left, right in ((fix_r1, unrolled), (unrolled, fix_r1)):
        res = nested_hom(left, right)
        assert res.verdict == "hom" and res.contexts == 3
        # the certificate is finite also where the configurations are not;
        # every bounded closure projects into it, and from depth 3, which
        # enters all three contexts, onto it
        for depth in range(1, 5):
            configs, bounded, _ = closure(ReferenceCarrier(left), ReferenceCarrier(right), depth)
            mapping = {(c.left_stack, c.left): (c.right_stack, c.right) for c in configs}
            projected = _projected(left, right, mapping)
            assert bounded and projected.items() <= res.certificate.items()
            assert (projected == res.certificate) == (depth >= 3), depth


def test_nested_relation_passes_independent_verifier(tree_corpus, fix_r0):
    pool = list(tree_corpus) + [fix_r0]
    for r in pool:
        rel = nested_bisim(r, r).relation
        assert verify_nested_bisim(rel, r, r) == []
    res = nested_bisim(fix_r0, unfold_to_ntg(fix_r0).rgs)
    assert verify_nested_bisim(res.relation, fix_r0, unfold_to_ntg(fix_r0).rgs) == []


def test_verifier_rejects_broken_relation(fix_triv):
    from ntg.equivalence import NestedBisimRelation

    rel = nested_bisim(fix_triv, fix_triv).relation
    smaller = NestedBisimRelation(
        frozenset(list(rel.configs)[:1]), None
    )
    assert verify_nested_bisim(smaller, fix_triv, fix_triv) != []


def test_verifier_names_each_broken_clause():
    # one hand-broken relation per rejection of verify_nested_bisim, each
    # with its exact problem list
    from ntg import parse_rgs
    from ntg.equivalence import NestedBisimRelation

    r = parse_rgs("atomic c/0, f/1; root m; def m/0 { o: out(a); a: g(x); x: c; } "
                  "def g/1 { o: out(b); b: f(i); i: in 1; }")
    rel = nested_bisim(r, r).relation.configs
    root = NestedConfig((), ("m", "o"), (), ("m", "o"))
    call = NestedConfig((), ("m", "a"), (), ("m", "a"))
    assert root in rel and call in rel and verify_nested_bisim(NestedBisimRelation(rel, None), r, r) == []

    def problems(configs):
        return verify_nested_bisim(NestedBisimRelation(frozenset(configs), None), r, r)

    assert problems(rel - {root}) == ["root configuration missing"]
    uneven = NestedConfig((), ("m", "a"), (("m", "a"),), ("g", "o"))
    assert problems(rel | {uneven}) == [f"{uneven}: stacks have different lengths"]
    clash = NestedConfig((), ("m", "x"), (), ("m", "a"))
    assert problems(rel | {clash}) == [f"{clash}: labels c and g do not match"]
    outside = NestedConfig((), ("g", "i"), (), ("g", "i"))
    assert problems(rel | {outside}) == [f"{outside}: input vertex reached outside any call"]
    beyond = NestedConfig((("m", "x"),), ("g", "i"), (("m", "x"),), ("g", "i"))
    assert problems(rel | {beyond}) == [f"{beyond}: input index exceeds the calling occurrence's arity"]
    assert problems(rel - {call}) == [f"{root}: required configuration {call} missing"]


def test_witness_from_diagonal_relation(fix_n):
    rel = nested_bisim(fix_n, fix_n).relation
    witness = relation_witness(rel, fix_n, fix_n)
    assert ntg_isomorphic(witness, fix_n) is not None


def test_witness_from_self_relation_equals_unfolding(fix_r0):
    rel = nested_bisim(fix_r0, fix_r0).relation
    witness = relation_witness(rel, fix_r0, fix_r0)
    assert ntg_isomorphic(witness, unfold_to_ntg(fix_r0).rgs) is not None


def test_witness_from_cross_relation_projects(sharing_chain):
    a, _, _, d = sharing_chain
    res = nested_bisim(a, d)
    witness = relation_witness(res.relation, a, d)
    assert ntg_hom(witness, a) is not None
    assert ntg_hom(witness, d) is not None


def test_witness_rejects_bounded_relation(fix_r1):
    rel = closure_relation(fix_r1, fix_r1, depth=3)
    assert not rel.exact
    with pytest.raises(ValueError):
        relation_witness(rel, fix_r1, fix_r1)


def test_cross_checks_on_fixture_pairs(fix_n, fix_triv, sharing_chain):
    pool = [fix_n, fix_triv] + sharing_chain
    for n1 in pool:
        for n2 in pool:
            assert cross_check_theorems(n1, n2).all_agree


def test_cross_checks_route_shared_through_unfolding(fix_r0):
    report = cross_check_theorems(fix_r0, fix_r0)
    assert report.all_agree


def test_cross_checks_on_random_pairs():
    rng = random.Random(59)
    for _ in range(25):
        n1 = random_ntg(rng)
        n2 = mutate_ntg(rng, n1) if rng.random() < 0.5 else random_ntg(rng)
        assert cross_check_theorems(n1, n2).all_agree
    for _ in range(10):
        r1 = random_acyclic_rgs(rng)
        r2 = random_acyclic_rgs(rng)
        assert cross_check_theorems(r1, r2).all_agree


def test_cross_checks_on_cyclic_pairs(fix_r1):
    from conftest import load_rgs

    unrolled = load_rgs("r1_unrolled.rgs")
    rng = random.Random(61)
    same = [(fix_r1, unrolled), (unrolled, fix_r1)]
    for _ in range(15):
        r = random_cyclic_rgs(rng)
        same.append((r, unroll_twice(r)))
    other = [(random_cyclic_rgs(rng), random_cyclic_rgs(rng)) for _ in range(15)]
    for a, b in same + other:
        report = cross_check_theorems(a, b)
        assert len(report.entries) == 2 and report.all_agree, str(report)
        if (a, b) in same:
            # a specification and its unrolled copy unfold to the same graph
            assert report.entries[1][1:3] == (True, True), str(report)


def test_isomorphism_accepts_input_permutation():
    from ntg import Atomic, Input, Nested, NtgSignature, Output, Rgs, make_graph

    c0 = Atomic("ca", 0)
    base = {
        "o": (Output(), ["fo"]),
        "fo": (Nested("f", 2), ["p", "q"]),
        "p": (c0, []),
        "q": (Atomic("cb", 0), []),
    }
    body12 = make_graph("o", {
        "o": (Output(), ["b"]),
        "b": (Atomic("b0", 2), ["x1", "x2"]),
        "x1": (Input(1), []),
        "x2": (Input(2), []),
    })
    body21 = make_graph("o", {
        "o": (Output(), ["b"]),
        "b": (Atomic("b0", 2), ["x2", "x1"]),
        "x1": (Input(1), []),
        "x2": (Input(2), []),
    })
    sig = NtgSignature({"ca": 0, "cb": 0, "b0": 2}, {"r": 0, "f": 2}, "r")
    n1 = Rgs(sig, {"r": make_graph("o", base), "f": body12})
    swapped_base = dict(base)
    swapped_base["fo"] = (Nested("f", 2), ["q", "p"])
    n2 = Rgs(sig, {"r": make_graph("o", swapped_base), "f": body21})
    iso = ntg_isomorphic(n1, n2)
    assert iso is not None
    assert iso.input_perm["f"] == {1: 2, 2: 1}
    # but swapping only the occurrence arguments is not an isomorphism
    n3 = Rgs(sig, {"r": make_graph("o", swapped_base), "f": body12})
    assert ntg_isomorphic(n1, n3) is None


def test_isomorphism_agrees_with_the_reference_walk():
    # each specification against its read-back, collapse, mutants and
    # input-permuted copies, in both directions
    rng = random.Random(43)
    verdicts, permuted = set(), 0
    for _ in range(250):
        n = random_ntg(rng)
        copy, perm = permute_inputs(rng, n)
        found = ntg_isomorphic(n, copy)
        assert found is not None and found.input_perm == perm
        others = [
            copy, represent(interpret(n)), ntg_collapse(n), mutate_ntg(rng, n),
            mutate_ntg(rng, copy), permute_inputs(rng, mutate_ntg(rng, n))[0],
        ]
        for m in others:
            for a, b in ((n, m), (m, n)):
                iso = ntg_isomorphic(a, b)
                assert iso == reference_ntg_isomorphic(a, b)
                verdicts.add(iso is not None)
                if iso is not None:
                    permuted += any(i != j for p in iso.input_perm.values() for i, j in p.items())
    assert verdicts == {True, False} and permuted > 0


def test_isomorphism_rejects_label_changes(fix_n):
    mutated = mutate_ntg(random.Random(61), fix_n)
    assert ntg_isomorphic(fix_n, fix_n) is not None
    # mutate_ntg guarantees a changed specification only when it found one;
    # verify disagreement via the collapse when the mutation took effect
    if ntg_isomorphic(fix_n, mutated) is None:
        assert True
    else:
        assert ntg_isomorphic(ntg_collapse(fix_n), ntg_collapse(mutated)) is not None


def test_stack_depth_bound_for_pairs(fix_n, sharing_chain):
    pool = [fix_n] + sharing_chain
    for n1 in pool:
        for n2 in pool:
            res = nested_bisim(n1, n2)
            if res.bisimilar:
                bound = max(dependency_height(n1), dependency_height(n2))
                assert res.relation.max_stack_depth() <= bound


# ---------------------------------------------------------------------------
# The summary tabulation of nested_bisim against the explicit closure
# ---------------------------------------------------------------------------


def _closure_clash(r1, r2, depth):
    return closure(ReferenceCarrier(r1), ReferenceCarrier(r2), depth)[2]


def _random_pairs(rng, make, count):
    """Pairs of ``make(rng)`` against itself, a copy with one constant
    changed, and another random specification, in turn."""
    pairs = []
    for k in range(count):
        a = make(rng)
        b = (a, relabel_constant(rng, a), make(rng))[k % 3]
        pairs.append((a, b))
    return pairs


def _check_negative(a, b, res):
    assert res.verdict == "not_bisimilar" and res.relation is None
    path = res.path
    assert replay_path(a, b, path) is None
    assert path[-1] == res.counterexample and len(path) == res.path_length
    for k in range(len(path)):
        assert replay_path(a, b, path[:k] + path[k + 1:]) is not None, k
    # the clash lies within the stack depth the path reaches
    depth = max(len(cfg.left_stack) for cfg in path)
    assert _closure_clash(a, b, depth) is not None


def test_summaries_agree_with_closure_on_acyclic_pairs():
    verdicts = []
    for a, b in _random_pairs(random.Random(101), random_acyclic_rgs, 420):
        res = nested_bisim(a, b)
        assert res.bisimilar == (_closure_clash(a, b, None) is None)
        if res.bisimilar:
            assert res.path is None and res.path_length == 0
            assert res.relation == closure_relation(a, b)
            assert verify_nested_bisim(res.relation, a, b) == []
        else:
            _check_negative(a, b, res)
        verdicts.append(res.verdict)
    assert verdicts.count("bisimilar") >= 100 and verdicts.count("not_bisimilar") >= 100


def test_summaries_decide_cyclic_pairs():
    verdicts = []
    for a, b in _random_pairs(random.Random(103), random_cyclic_rgs, 90):
        res = nested_bisim(a, b)
        if res.bisimilar:
            assert res.relation is None and res.path is None
        else:
            _check_negative(a, b, res)
        verdicts.append(res.verdict)
    assert verdicts.count("bisimilar") >= 20 and verdicts.count("not_bisimilar") >= 20
    # no bounded closure finds a clash where the summaries found none; one
    # call back per specification keeps the closure at depth 8 small (with
    # k calls back its size grows like k^depth)
    positives = 0
    for a, b in _random_pairs(random.Random(109), lambda rng: random_cyclic_rgs(rng, max_back=1), 90):
        if nested_bisim(a, b).bisimilar:
            positives += 1
            for depth in range(1, 9):
                assert _closure_clash(a, b, depth) is None, depth
    assert positives >= 20


def test_cyclic_specification_against_its_unrolling(fix_r1):
    from conftest import load_rgs

    assert nested_bisim(fix_r1, load_rgs("r1_unrolled.rgs")).verdict == "bisimilar"
    rng = random.Random(107)
    for _ in range(30):
        r = random_cyclic_rgs(rng)
        assert nested_bisim(r, unroll_twice(r)).bisimilar


def test_summaries_call_neither_closure_nor_progressions(monkeypatch):
    from ntg import equivalence

    def forbidden(*args):
        raise AssertionError("the summary tabulation used the explicit rules")

    pairs = _random_pairs(random.Random(113), random_cyclic_rgs, 30)
    expected = [nested_bisim(a, b) for a, b in pairs]
    # the explicit closure lives only among the oracles, and it applies the
    # library's progression rules
    monkeypatch.setattr(equivalence, "_progressions", forbidden)
    for (a, b), want in zip(pairs, expected):
        res = nested_bisim(a, b)
        assert (res.verdict, res.counterexample) == (want.verdict, want.counterexample)
        assert res.path == want.path


def test_shared_fanout_decides_without_the_relation(monkeypatch):
    from ntg import equivalence

    f, g = fanout_family(80), fanout_family(80, "_b")
    negatives = [relabel(f, sym, v, "z") for sym, v in (("d0", "m"), ("d40", "kk"), ("d79", "kk"))]
    monkeypatch.setattr(equivalence, "_expand", None)  # 2^80 configurations
    for other in [g] + negatives:
        start = time.perf_counter()
        res = nested_bisim(f, other)
        path = res.path
        assert time.perf_counter() - start < 0.1
        assert res.bisimilar == (other is g)
        assert res.contexts == 81
        if path is not None:
            assert replay_path(f, other, path) is None


def test_relation_expands_the_summaries_like_the_closure(tree_corpus, fix_r0):
    rng = random.Random(117)
    specs = list(tree_corpus) + [fix_r0, fanout_family(6), depth_family(12)]
    specs += [make(rng) for make in (random_ntg, random_acyclic_rgs) * 20]
    for r in specs:
        rel = nested_bisim(r, r).relation
        assert rel.exact and rel == closure_relation(r, r)
        assert all(cfg.left == cfg.right and cfg.left_stack == cfg.right_stack for cfg in rel.configs)
    f, g = fanout_family(6), fanout_family(6, "_b")
    assert nested_bisim(f, g).relation == closure_relation(f, g)


def test_deep_relation_without_recursion():
    import sys

    limit = sys.getrecursionlimit()
    d = depth_family(1100)
    rel = nested_bisim(d, d).relation
    assert len(rel) == 7703 and rel.max_stack_depth() == 1100
    assert sys.getrecursionlimit() == limit


def test_deep_negative_path_without_recursion():
    import sys

    limit = sys.getrecursionlimit()
    d = depth_family(1500)
    other = relabel(d, "e1499", "k", "d")
    assert nested_hom(d, d).exists
    for res in (nested_bisim(d, other), nested_hom(d, other)):
        assert res.verdict in ("not_bisimilar", "none")
        assert res.reason == "labels c and d do not match"
        assert len(res.counterexample.left_stack) == 1499
        assert len(res.path) == res.path_length > 3 * 1499
        assert res.path[-1] == res.counterexample
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# The summary-based nested_hom against the explicit closure
# ---------------------------------------------------------------------------


def _check_hom(a, b, res):
    """Check the certificate of ``res = nested_hom(a, b)`` by replay and
    return the greatest stack depth it reaches (0 for a "hom")."""
    if res.exists:
        assert res.path is None and res.conflict is None and res.runs is None
        return 0
    if res.conflict is None:
        path = res.path
        assert replay_path(a, b, path) is None
        assert path[-1] == res.counterexample and len(path) == res.path_length
        return max(len(cfg.left_stack) for cfg in path)
    assert res.counterexample is None and res.path is None
    first, second = res.conflict
    assert (first.left_stack, first.left) == (second.left_stack, second.left)
    assert (first.right_stack, first.right) != (second.right_stack, second.right)
    for run, end in zip(res.runs, res.conflict):
        assert replay_path(a, b, run, end) is None
        assert replay_path(a, b, run) is not None
    return max(len(cfg.left_stack) for run in res.runs for cfg in run)


def _both_ways(pairs):
    return [pair for a, b in pairs for pair in ((a, b), (b, a))]


def _check_cyclic_against_closure(a, b, res):
    """Every verdict the bounded closure decides at depths 1 to 6 is the
    summaries' verdict, and a "none" is found by the closure bounded at
    the depth of its certificate."""
    reach = _check_hom(a, b, res)
    if not res.exists:
        assert closure_nested_hom(a, b, max(reach, 1)).verdict == "none"
    decided = 0
    for depth in range(1, 7):
        verdict = closure_nested_hom(a, b, depth).verdict
        if verdict != "unknown_at_depth":
            assert verdict == res.verdict, depth
            decided += 1
    return decided


def _projected(a, b, mapping):
    """An explicit mapping ``(left stack, left vertex) -> (right stack,
    right vertex)``, keyed by the context of each configuration instead of
    its stacks; None for None."""
    if mapping is None:
        return None
    c1, c2 = ReferenceCarrier(a), ReferenceCarrier(b)
    projected = {}
    for (ls, v), (rs, w) in mapping.items():
        assert projected.setdefault((context_of(c1, c2, ls, rs), v), w) == w
    return projected


def test_nested_hom_agrees_with_closure_on_acyclic_pairs():
    rng = random.Random(131)
    pairs = []
    for k in range(240):
        a = random_acyclic_rgs(rng)
        pairs.append((a, (random_acyclic_rgs(rng), unroll_twice(a), relabel_constant(rng, a))[k % 3]))
    verdicts = []
    for a, b in _both_ways(pairs):
        res = nested_hom(a, b)
        want = closure_nested_hom(a, b)
        assert res.verdict == want.verdict
        assert res.certificate == _projected(a, b, want.mapping)
        _check_hom(a, b, res)
        verdicts.append(res.verdict)
    assert verdicts.count("hom") >= 100 and verdicts.count("none") >= 100


def test_nested_hom_functionality_decides_split_copies():
    from ntg.equivalence import _needs_depth

    rng = random.Random(137)
    specs = [random_acyclic_rgs(rng) for _ in range(120)]
    specs += [random_cyclic_rgs(rng) for _ in range(40)]
    conflicts = 0
    for a in specs:
        split = split_shared_vertex(rng, a)
        if split is None:
            continue
        # bisimilar both ways, so no clash: only functionality decides
        assert nested_bisim(a, split).bisimilar and nested_bisim(split, a).bisimilar
        merge, spread = nested_hom(split, a), nested_hom(a, split)
        assert merge.exists
        assert spread.exists or spread.conflict is not None
        conflicts += not spread.exists
        for (left, right), res in (((split, a), merge), ((a, split), spread)):
            if _needs_depth(left, right):
                _check_cyclic_against_closure(left, right, res)
            else:
                assert closure_nested_hom(left, right).verdict == res.verdict
                _check_hom(left, right, res)
    assert conflicts >= 100


def test_nested_hom_agrees_with_ntg_hom_on_tree_shaped_pairs():
    # the propagation over the scoped graphs is the independent decider;
    # ntg_hom reads its map off the certificate of nested_hom
    rng = random.Random(139)
    pairs = []
    for k in range(150):
        a = random_ntg(rng)
        pairs.append((a, (random_ntg(rng), mutate_ntg(rng, a), ntg_collapse(a))[k % 3]))
    found = 0
    for a, b in _both_ways(pairs):
        res = nested_hom(a, b)
        assert res.exists == (sntg_hom(ntg_to_sntg(a), ntg_to_sntg(b)) is not None)
        phi = ntg_hom(a, b)
        assert (phi is not None) == res.exists
        if phi is not None:
            assert phi == {v: w for (_, v), w in res.certificate.items()}
            assert verify_ntg_hom(a, b, phi) == []
        _check_hom(a, b, res)
        found += res.exists
    assert found >= 100


def test_nested_hom_decides_cyclic_pairs():
    rng = random.Random(149)
    pairs = []
    for k in range(60):
        a = random_cyclic_rgs(rng)
        pairs.append((a, (unroll_twice(a), relabel_constant(rng, a))[k % 2]))
    verdicts = []
    decided = 0
    for a, b in _both_ways(pairs):
        res = nested_hom(a, b)
        decided += _check_cyclic_against_closure(a, b, res)
        verdicts.append(res.verdict)
    assert verdicts.count("hom") >= 40 and verdicts.count("none") >= 40
    assert decided >= 200


def test_engine_runs_without_the_progression_rules(monkeypatch, tree_corpus):
    # the summary table gives every verdict and certificate; only the
    # independent verify_nested_bisim applies the progression rules
    from ntg import equivalence

    rng = random.Random(151)
    pairs = [(a, b) for a in tree_corpus for b in tree_corpus]
    for k in range(20):
        a = random_ntg(rng)
        pairs.append((a, (a, relabel_constant(rng, a), random_ntg(rng))[k % 3]))
        r = random_acyclic_rgs(rng)
        pairs.append((r, (r, unroll_twice(r), relabel_constant(rng, r))[k % 3]))

    def outcomes():
        for a, b in pairs:
            bis, hom = nested_bisim(a, b), nested_hom(a, b)
            tree = is_ntg(a).ok and is_ntg(b).ok
            yield (
                bis.verdict, bis.relation, bis.witness is not None and print_rgs(bis.witness.witness),
                hom.verdict, hom.certificate, hom.conflict,
                ntg_hom(a, b) if tree else None, str(cross_check_theorems(a, b)),
            )

    expected = list(outcomes())
    assert sum(out[0] == "bisimilar" for out in expected) >= 30
    assert sum(out[3] == "hom" for out in expected) >= 20

    def forbidden(*args):
        raise AssertionError("the summary engine used the explicit rules")

    monkeypatch.setattr(equivalence, "_progressions", forbidden)
    assert list(outcomes()) == expected
    assert all("DISAGREE" not in out[-1] for out in expected)


def test_shared_fanout_hom_without_the_closure(monkeypatch):
    from ntg import equivalence

    def forbidden(*args):
        raise AssertionError("nested_hom used the explicit closure")

    f, g = fanout_family(80), fanout_family(80, "_b")
    monkeypatch.setattr(equivalence, "_progressions", forbidden)
    monkeypatch.setattr(equivalence, "_expand", forbidden)  # 2^80 configurations
    start = time.perf_counter()
    res = nested_hom(f, g)
    certificate = res.certificate
    assert time.perf_counter() - start < 0.05
    assert res.verdict == "hom" and res.contexts <= 82
    assert len(certificate) <= res.facts
    assert all(key is None or key[0] == v[0] for key, v in certificate)


# ---------------------------------------------------------------------------
# The witness read off the summaries
# ---------------------------------------------------------------------------


def _same_as_pair_closure(a, b):
    """The verdict of ``ntg_bisimilar``, after checking it against the
    global pair closure: the same verdict, the same printed witness, and
    projection keys that differ only by the primes the closure added."""
    from ntg import print_rgs

    old, new = closure_ntg_bisimilar(a, b), ntg_bisimilar(a, b)
    assert (old is None) == (new is None)
    if new is None:
        return False
    assert print_rgs(old.witness) == print_rgs(new.witness)
    for before, after in ((old.proj_left, new.proj_left), (old.proj_right, new.proj_right)):
        assert {(sym, v.rstrip("'")): img for (sym, v), img in before.items()} == after
    return True


def test_ntg_bisimilar_matches_the_pair_closure():
    rng = random.Random(131)
    verdicts = []
    for _ in range(150):
        n = random_ntg(rng)
        for other in (n, mutate_ntg(rng, n), random_ntg(rng)):
            verdicts.append(_same_as_pair_closure(n, other))
    for _ in range(150):
        r = random_acyclic_rgs(rng)
        u = unfold_to_ntg(r).rgs
        for other in (unroll_twice(r), relabel_constant(rng, r)):
            verdicts.append(_same_as_pair_closure(u, unfold_to_ntg(other).rgs))
    for d in range(1, 30):
        assert _same_as_pair_closure(depth_family(d), depth_family(d))
    assert verdicts.count(True) >= 250 and verdicts.count(False) >= 250


def test_summary_witness_against_the_relation_witness():
    rng = random.Random(137)
    positives = 0
    while positives < 300:
        r = random_acyclic_rgs(rng)
        for other in (unroll_twice(r), relabel_constant(rng, r)):
            res = nested_bisim(r, other)
            if res.bisimilar:
                positives += 1
                rebuilt = relation_witness(res.relation, r, other)
                assert ntg_isomorphic(rebuilt, unfold_to_ntg(res.witness.witness).rgs) is not None
            else:
                assert res.witness is None


def test_summary_witness_on_cyclic_positives():
    from ntg import validate_rgs

    rng = random.Random(139)
    positives = 0
    while positives < 100:
        r = random_cyclic_rgs(rng)
        for other in (unroll_twice(r), relabel_constant(rng, r)):
            res = nested_bisim(r, other)
            if not res.bisimilar:
                assert res.witness is None
                continue
            positives += 1
            w = res.witness
            assert validate_rgs(w.witness) == []
            assert verify_ntg_hom(w.witness, r, w.proj_left) == []
            assert verify_ntg_hom(w.witness, other, w.proj_right) == []
            assert nested_bisim(w.witness, r).bisimilar
            assert nested_bisim(w.witness, other).bisimilar


def test_ntg_bisimilar_without_the_closure(monkeypatch):
    from ntg import equivalence

    def forbidden(*args):
        raise AssertionError("ntg_bisimilar used the explicit closure")

    f = unfold_to_ntg(fanout_family(6)).rgs
    g = unfold_to_ntg(fanout_family(6, "_b")).rgs
    monkeypatch.setattr(equivalence, "_progressions", forbidden)
    monkeypatch.setattr(equivalence, "_expand", forbidden)
    res = ntg_bisimilar(f, g)
    assert res is not None and len(res.witness.rec) == len(f.rec)
    assert ntg_bisimilar(f, relabel(g, "d0_b", "m", "z")) is None


def test_witness_vertex_ids_are_unique_per_body():
    res = ntg_bisimilar(depth_family(1355), depth_family(1355))
    assert res is not None
    assert not any("'" in v for body in res.witness.rec.values() for v in body.lab)
    assert not any("'" in v for _, v in res.proj_left)


def test_witness_primes_pairs_that_format_alike():
    # the pairs ("a|b", "c") and ("a", "b|c") of one context both format
    # as "a|b|c", so the namer primes the later one
    from ntg import Atomic, NtgSignature, Output, Rgs, make_graph
    from ntg.rgs import _uniquify

    def spec(x, y):
        return Rgs(NtgSignature({"f": 2, "c": 0}, {"r": 0}, "r"), {"r": make_graph("o", {
            "o": (Output(), ["p"]), "p": (Atomic("f", 2), [x, y]),
            x: (Atomic("c", 0), []), y: (Atomic("c", 0), []),
        })})

    left, right = spec("a|b", "a"), spec("c", "b|c")
    w = ntg_bisimilar(left, right)
    assert w is not None
    pairs = [("o", "o"), ("p", "p"), ("a|b", "c"), ("a", "b|c")]
    names = _uniquify(pairs, lambda xy: f"{xy[0]}|{xy[1]}")
    assert list(names.values()) == ["o|o", "p|p", "a|b|c", "a|b|c'"]
    (body,) = w.witness.rec.values()
    assert list(body.lab) == list(names.values())
    assert {v: x for (_, v), (_, x) in w.proj_left.items()} == {
        name: x for (x, _), name in names.items()
    }


def test_one_dependency_walk_per_specification(monkeypatch):
    # finding cycles, the height, the diagnosis of is_ntg, _needs_depth and
    # the unfolding all read the one walk kept on the dependency steps
    import ntg.rgs

    walked = []
    depth_first = ntg.rgs._depth_first

    def counted(deps):
        walked.append(deps)
        return depth_first(deps)

    monkeypatch.setattr(ntg.rgs, "_depth_first", counted)
    a = fanout_family(4)
    assert cross_check_theorems(a, a).all_agree
    assert not is_ntg(a).ok and dependency_height(a) == 4
    assert len(walked) == 1


def test_witness_does_not_rest_on_asserts():
    import pathlib
    import subprocess
    import sys

    from conftest import DATA, load_rgs
    from ntg import print_rgs

    script = (
        "import sys\n"
        "from ntg import nested_bisim, parse_rgs, print_rgs\n"
        "if __debug__:\n"
        "    sys.exit(3)\n"
        "a, b = (parse_rgs(open(p).read()) for p in sys.argv[1:])\n"
        "sys.stdout.write(print_rgs(nested_bisim(a, b).witness.witness))\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    for a, b in (("r0.rgs", "r0.rgs"), ("r1.rgs", "r1_unrolled.rgs"), ("chain_a.rgs", "chain_d.rgs")):
        files = [str(DATA / a), str(DATA / b)]
        run = subprocess.run(
            [sys.executable, "-O", "-c", script, *files],
            capture_output=True, text=True, env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert run.returncode == 0, run.stderr
        left, right = (load_rgs(name) for name in (a, b))
        assert run.stdout == print_rgs(nested_bisim(left, right).witness.witness)


def _redirections(target, phi):
    """Each map that sends one entry of ``phi`` to another vertex of
    ``target``, one with another label or in another definition."""
    c = ReferenceCarrier(target)
    for key, img in phi.items():
        for other in c.vertices():
            if other != img and (other[0] != img[0] or c.lab(other) != c.lab(img)):
                yield {**phi, key: other}


def test_verify_ntg_hom_rejects_redirected_projections(fix_r0, fix_r1):
    from conftest import load_rgs

    pairs = [(fix_r0, fix_r0), (fix_r0, unfold_to_ntg(fix_r0).rgs), (fix_r1, load_rgs("r1_unrolled.rgs"))]
    rng = random.Random(149)
    pairs += [(r, unroll_twice(r)) for r in (random_cyclic_rgs(rng) for _ in range(4))]
    outside = 0
    for a, b in pairs:
        w = nested_bisim(a, b).witness
        ref = ReferenceCarrier(w.witness)
        inputs = [u for sym in w.witness.rec for u in ref.inputs(sym)]
        for target, phi in ((a, w.proj_left), (b, w.proj_right)):
            assert verify_ntg_hom(w.witness, target, phi) == []
            for wrong in _redirections(target, phi):
                assert verify_ntg_hom(w.witness, target, wrong) != []
            for key in phi:
                partial = {k: img for k, img in phi.items() if k != key}
                assert f"{key}: map is not total" in verify_ntg_hom(w.witness, target, partial)
            # an input image that is not a vertex of the target is reported
            # at the input and at the occurrence that passes it
            for u in inputs:
                sym, v = phi[u]
                for img in ((sym, "absent"), ("absent", v), "absent"):
                    problems = verify_ntg_hom(w.witness, target, {**phi, u: img})
                    assert f"{u}: image is not a vertex of the target" in problems
                    assert f"{u}: input maps outside the related definition" in problems
                    outside += 1
    assert outside > 50


def _raise_an_input(rng, r):
    """A copy of ``r`` in which one input vertex, if there is any, has an
    index beyond the arity of its definition; no longer valid."""
    from ntg import Input, Rgs
    from ntg.graph import TermGraph

    spots = [(sym, v) for sym in sorted(r.rec) for v, lbl in r.rec[sym].lab.items() if isinstance(lbl, Input)]
    if not spots:
        return r
    sym, v = rng.choice(spots)
    body = r.rec[sym]
    lab = {**body.lab, v: Input(r.signature.nested[sym] + 1)}
    return Rgs(r.signature, {**r.rec, sym: TermGraph(lab, body.args, body.root)})


class _Pair(tuple):
    """A tuple subclass, to stand for a vertex of the target."""


def test_verify_ntg_hom_equals_the_reference():
    rng = random.Random(193)
    cases = []
    for make in (random_ntg, random_acyclic_rgs, random_cyclic_rgs) * 12:
        r = make(rng)
        for other in (r, unroll_twice(r), relabel_constant(rng, r)):
            w = nested_bisim(r, other).witness
            if w is not None:
                cases += [(w.witness, r, w.proj_left), (w.witness, other, w.proj_right)]
    kinds = set()
    for n1, n2, phi in cases:
        vertices = ReferenceCarrier(n2).vertices()
        outside = [("absent", "o"), (n2.root_symbol, "absent"), "absent", "ab", 3, (1, 2, 3)]
        # a list that names a vertex is no vertex; a tuple subclass that names one is
        outside += [list(rng.choice(vertices)), _Pair(rng.choice(vertices))]
        for k in range(12):
            wrong = dict(phi)
            for _ in range(k % 3):
                key = rng.choice(list(wrong))
                choice = rng.randrange(4)
                if choice == 0:
                    del wrong[key]
                else:
                    wrong[key] = rng.choice(outside if choice == 1 else vertices)
            for target in (n2, _raise_an_input(rng, n2)):
                ours = verify_ntg_hom(n1, target, wrong)
                invalid = validate_rgs(target)
                if invalid:  # reported alone, by its first violation
                    assert ours == [f"invalid right specification: {invalid[0]}"]
                    continue
                assert ours == reference_verify_ntg_hom(n1, target, wrong)
                kinds.update(re.sub(r"^.*\): |\d+", "", m) for m in ours)
    assert kinds == {
        "root definitions are not related",
        "map is not total",
        "image is not a vertex of the target",
        "atomic label not preserved",
        "arguments not preserved",
        "output vertex not mapped to an output vertex",
        "output successor not preserved",
        "input vertex not mapped to an input vertex",
        "occurrence not mapped to an occurrence",
        "definition roots not related",
        "input maps outside the related definition",
        "interface clause fails at input ",
    }


def test_relabel_constant_stays_in_the_signature():
    from conftest import DATA, load_rgs
    from generators import CONSTANTS, relabel
    from ntg import Atomic, validate_rgs

    for p in sorted(DATA.glob("*.rgs")):
        r = load_rgs(p.name)
        for seed in range(8):
            other = relabel_constant(random.Random(seed), r)
            assert validate_rgs(other) == [], p.name
            changed = [
                (sym, v) for sym in r.rec for v, lbl in r.rec[sym].lab.items()
                if other.rec[sym].lab[v] != lbl
            ]
            assert len(changed) == 1, p.name
    # on specifications over the generators' pool the draw is the pool's
    rng = random.Random(157)
    for make in (random_ntg, random_acyclic_rgs, random_cyclic_rgs) * 10:
        r = make(rng)
        seed = rng.random()
        spots = [
            (sym, v) for sym in sorted(r.rec) for v in sorted(r.rec[sym].lab, key=str)
            if isinstance(r.rec[sym].lab[v], Atomic) and r.rec[sym].lab[v].arity == 0
        ]
        if not spots:
            continue
        draw = random.Random(seed)
        sym, v = draw.choice(spots)
        want = relabel(r, sym, v, draw.choice([c for c in CONSTANTS if c != r.rec[sym].lab[v].name]))
        assert relabel_constant(random.Random(seed), r) == want


def test_cross_checks_catch_a_decider_that_ignores_atomic_names(monkeypatch):
    # tree-shaped and shared acyclic pairs that differ in one constant; a
    # stack-based decider that ignores atomic names calls them bisimilar,
    # and the independent entries must disagree, not raise
    import ntg.equivalence
    from ntg import Atomic, is_ntg

    compatible = ntg.equivalence._compatible

    def ignoring_names(l1, l2):
        if isinstance(l1, Atomic) and isinstance(l2, Atomic):
            return l1.arity == l2.arity
        return compatible(l1, l2)

    monkeypatch.setattr(ntg.equivalence, "_compatible", ignoring_names)
    rng = random.Random(197)
    shared = 0
    for make in (random_ntg, random_acyclic_rgs) * 10:
        r = make(rng)
        other = relabel_constant(rng, r)
        if other is r:
            continue
        shared += not is_ntg(r).ok
        report = cross_check_theorems(r, other)
        assert not report.all_agree, str(report)
        assert ("bisimilarity equals stack-based bisimilarity", False, True, False) in report.entries
        flat = "flattened bisimilarity equals stack-based bisimilarity"
        assert (flat, False, True, False) in report.entries
        hom = "homomorphism existence equals stack-based homomorphism existence"
        assert (hom, False, True, False) in report.entries
    assert shared >= 3


def test_cross_checks_catch_an_encoding_that_ignores_atomic_names(monkeypatch):
    # the same pairs, with a structural encoding that gives all atomic
    # labels of one arity one label: the encoded closure calls them
    # bisimilar, so the witness's right projection fails its self-check,
    # and without asserts the scoped bisimilarity entry disagrees;
    # verify_sntg_hom re-checks atomic names, so it refutes every map the
    # encoded propagation forces and the scoped homomorphism entry agrees
    import ntg.sntg
    from ntg import Atomic, sntg_bisimilar
    from ntg.graph import TermGraph

    encode = ntg.sntg.Sntg._encoding.func

    def ignoring_names(s):
        g = encode(s)
        lab = {v: Atomic("a", x.arity) if isinstance(x, Atomic) else x for v, x in g.lab.items()}
        return TermGraph._prechecked(lab, g.args, g.root)

    monkeypatch.setattr(ntg.sntg.Sntg, "_encoding", property(ignoring_names))
    rng = random.Random(197)
    checked = 0
    for make in (random_ntg, random_acyclic_rgs) * 10:
        r = make(rng)
        other = relabel_constant(rng, r)
        if other is r:
            continue
        checked += 1
        sa, sb = (ntg_to_sntg(x if is_ntg(x).ok else unfold_to_ntg(x).rgs) for x in (r, other))
        assert sntg_hom(sa, sb) is None
        if __debug__:
            with pytest.raises(AssertionError, match="^right projection fails$"):
                sntg_bisimilar(sa, sb)
            continue
        report = cross_check_theorems(r, other)
        assert ("bisimilarity equals stack-based bisimilarity", True, False, False) in report.entries
        hom = "homomorphism existence equals stack-based homomorphism existence"
        assert (hom, False, False, True) in report.entries
    assert checked >= 15


def _carrier_corpus():
    """Specifications from every source the deciders see: the data files,
    random tree-shaped, shared and cyclic ones, unfoldings, summary
    witnesses, copies whose bodies list their inputs out of index order,
    and a body whose input indices repeat."""
    from conftest import DATA, load_rgs
    from ntg import Input, NtgSignature, Output, Rgs
    from ntg.graph import TermGraph

    rng = random.Random(151)
    specs = [load_rgs(p.name) for p in sorted(DATA.glob("*.rgs"))]
    shared = [random_acyclic_rgs(rng) for _ in range(25)]
    cyclic = [random_cyclic_rgs(rng) for _ in range(25)]
    specs += [random_ntg(rng) for _ in range(25)] + shared + cyclic
    specs += [unfold_to_ntg(r).rgs for r in shared] + [unfold_to_ntg(r, 2).rgs for r in cyclic]
    specs += [nested_bisim(r, unroll_twice(r)).witness.witness for r in shared + cyclic]
    specs += [permute_inputs(rng, r)[0] for r in shared[:10] + cyclic[:10]]
    twice = TermGraph(
        {"o": Output(), "b": Input(2), "y": Input(1), "a": Input(2), "x": Input(1)},
        {"o": ("x",), "b": (), "y": (), "a": (), "x": ()},
        "o",
    )
    fix = specs[0]
    sig = NtgSignature(fix.signature.atomic, {**fix.signature.nested, "dup": 2}, fix.root_symbol)
    specs.append(Rgs(sig, {**fix.rec, "dup": twice}))
    return specs


def test_entries_and_inputs_equal_the_sorted_reference():
    # ``verify_ntg_hom`` lists each callee's inputs in the reference's
    # order, and reports an image that is not a vertex without looking it up
    from ntg.equivalence import _entry

    for r in _carrier_corpus():
        ref = ReferenceCarrier(r)
        assert [(sym, _entry(r, sym)) for sym in r.rec] == list(ref.rootof.items())
        assert _entry(r, r.root_symbol) == ref.root
        ident = {cv: cv for cv in ref.vertices()}
        invalid = validate_rgs(r)
        if invalid:  # the body whose input indices repeat is reported alone
            assert verify_ntg_hom(r, r, ident) == [
                f"invalid {side} specification: {invalid[0]}" for side in ("left", "right")
            ]
            continue
        inputs = [u for sym in r.rec for u in ref.inputs(sym)]
        partial = {cv: w for cv, w in ident.items() if cv not in inputs}
        assert verify_ntg_hom(r, r, partial) == reference_verify_ntg_hom(r, r, partial)
        outside = (
            ("absent", "o"), (r.root_symbol, "absent"), "ab", None, [r.root_symbol, "o"],
            ([r.root_symbol], "o"), (r.root_symbol, ["o"]), (r.root_symbol, "o", "x"),
        )
        assert not any(ref.has(cv) for cv in outside[:4])
        assert verify_ntg_hom(r, r, ident) == []
        for key in [ref.root] + inputs[:1]:
            # a tuple subclass that names the vertex is the vertex, a list is not
            assert verify_ntg_hom(r, r, {**ident, key: _Pair(key)}) == []
            for cv in outside + (list(key),):
                problems = verify_ntg_hom(r, r, {**ident, key: cv})
                if cv is None:
                    assert f"{key}: map is not total" in problems
                    continue
                assert f"{key}: image is not a vertex of the target" in problems
                if key != ref.root:
                    assert f"{key}: input maps outside the related definition" in problems


def test_witness_reads_back():
    from conftest import load_rgs
    from ntg import parse_rgs, print_rgs

    rng = random.Random(163)
    n = load_rgs("n.rgs")
    pairs = [(n, n)]
    for _ in range(60):
        r = (random_ntg, random_acyclic_rgs, random_cyclic_rgs)[len(pairs) % 3](rng)
        pairs += [(r, unroll_twice(r)), (r, relabel_constant(rng, r))]
    positives = 0
    for a, b in pairs:
        w = nested_bisim(a, b).witness
        if w is None:
            continue
        positives += 1
        doc = print_rgs(w.witness)
        back = parse_rgs(doc)
        assert print_rgs(back) == doc
        assert nested_bisim(back, a).bisimilar and nested_bisim(back, b).bisimilar
    assert positives >= 60


def _arity_clash_specs():
    """Hand-built pairs whose tables end in the clashes that valid input
    never reaches: an exit through an input index beyond the calling
    occurrence's arity, found when the exit is first met and when a later
    caller enters the finished callee, and an input vertex in the root
    body.  Input indices beyond a body's arity make them invalid, so they
    go to the tabulation directly."""
    from ntg import Atomic, Input, Nested, NtgSignature, Output, Rgs
    from ntg.graph import make_graph

    def spec(root_body, f_index):
        sig = NtgSignature({"c": 0, "g": 2, "h": 1}, {"main": 0, "f": 1}, "main")
        f = make_graph("o", {"o": (Output(), ["i"]), "i": (Input(f_index), [])})
        return Rgs(sig, {"main": make_graph("o", root_body), "f": f})

    c = (Atomic("c", 0), [])
    once = {"o": (Output(), ["x"]), "x": (Nested("f", 1), ["k"]), "k": c}
    late = {
        "o": (Output(), ["a"]), "a": (Atomic("g", 2), ["x", "h1"]),
        "x": (Nested("f", 2), ["k", "k"]), "h1": (Atomic("h", 1), ["h2"]),
        "h2": (Atomic("h", 1), ["h3"]), "h3": (Atomic("h", 1), ["y"]),
        "y": (Nested("f", 1), ["k"]), "k": c,
    }
    outside = {"o": (Output(), ["i"]), "i": (Input(1), [])}
    return [
        (spec(once, 2), spec(once, 1)),
        (spec(late, 2), spec(late, 2)),
        (spec(outside, 1), spec(outside, 1)),
    ]


def _keyed_by_body_vertices(a, b, ref_contexts, ref_clash):
    """The reference tables and clash with every pair ``((s1, x1), (s2,
    x2))`` keyed by its two body vertices, after checking that ``s1`` and
    ``s2`` are the two symbols of the pair's context."""
    roots = (a.root_symbol, b.root_symbol)

    def strip(key, pair):
        if pair is None:
            return None
        (s1, x1), (s2, x2) = pair
        assert (s1, s2) == (key or roots)
        return x1, x2

    def frame(link):
        return None if link is None else (link[0], strip(*link))

    tables = {}
    for key, ref in ref_contexts.items():
        reached = [
            (strip(key, pair), (n, strip(key, prev), callee, ij))
            for pair, (n, prev, callee, ij) in ref.reached.items()
        ]
        exits = [(ij, strip(key, pair)) for ij, pair in ref.exits.items()]
        tables[key] = (reached, exits, list(map(frame, ref.callers)), frame(ref.opener))
    if ref_clash is not None:
        key, pair, via, reason = ref_clash
        ref_clash = (key, strip(key, pair), frame(via), reason)
    return tables, ref_clash


def test_tabulation_equals_the_reference_tables():
    # the tables read straight off the bodies are the accessor-based ones,
    # item by item and in order, clashes included; every reference pair
    # lies in its context's two entered bodies, so keyed by its two body
    # vertices it is the library's pair
    from ntg.equivalence import _tabulate
    from oracles import reference_tabulate

    rng = random.Random(211)
    pairs = []
    for make in (random_ntg, random_acyclic_rgs, random_cyclic_rgs) * 20:
        r = make(rng)
        pairs += [(r, r), (r, relabel_constant(rng, r)), (r, permute_inputs(rng, r)[0]), (r, make(rng))]
    for k in range(1, 7):
        pairs += [(fanout_family(k), fanout_family(k, "_b")), (fanout_family(k), fanout_family(k + 1))]
        pairs += [(depth_family(k), depth_family(k)), (depth_family(k), depth_family(k + 1))]
    pairs += _arity_clash_specs()
    reasons = []
    for a, b in pairs:
        contexts, clash = _tabulate(a, b)
        ref_contexts, ref_clash = reference_tabulate(ReferenceCarrier(a), ReferenceCarrier(b))
        tables, ref_clash = _keyed_by_body_vertices(a, b, ref_contexts, ref_clash)
        assert clash == ref_clash
        assert list(contexts) == list(tables)
        for key, ctx in contexts.items():
            reached, exits, callers, opener = tables[key]
            assert ctx.syms == (key or (a.root_symbol, b.root_symbol))
            assert list(ctx.reached.items()) == reached
            assert list(ctx.exits.items()) == exits
            assert ctx.callers == callers and ctx.opener == opener
            # the witness roots every body at the first pair reached
            s1, s2 = ctx.syms
            assert next(iter(ctx.reached)) == (a.rec[s1].root, b.rec[s2].root)
        if clash is not None:
            reasons.append((clash[3], clash[2] is not None))
    assert len(reasons) >= 60
    assert any(reason.startswith("labels ") for reason, _ in reasons)
    arity = "input index exceeds the calling occurrence's arity"
    assert reasons[-3:] == [(arity, True), (arity, True), ("input vertex reached outside any call", False)]


def _table_corpus():
    """Seeded pairs: tree-shaped, shared and cyclic specifications and
    unfolded pairs, each against itself and against partners from
    ``unroll_twice``, ``permute_inputs``, ``split_shared_vertex`` (both
    ways) and, for negatives, ``relabel_constant``, also unrolled, so that
    the two sides' symbols differ."""
    rng = random.Random(227)
    pairs = []
    for make in (random_ntg, random_acyclic_rgs, random_cyclic_rgs) * 20:
        r = make(rng)
        changed = relabel_constant(rng, r)
        partners = [r, unroll_twice(r), permute_inputs(rng, r)[0], changed, unroll_twice(changed)]
        split = split_shared_vertex(rng, r)
        if split is not None:
            partners.append(split)
            pairs.append((split, r))
        pairs += [(r, other) for other in partners]
        if make is random_acyclic_rgs:
            u = unfold_to_ntg(r).rgs
            pairs += [(u, unfold_to_ntg(other).rgs) for other in partners]
    return pairs


def _reference_config(tables, key, via, pair):
    """The configuration of ``pair`` of context ``key`` of the reference
    tables, and its calling frames, as the library read them before its
    tables keyed pairs by their two body vertices."""
    frames = []
    link = via if via is not None else tables[key].opener
    while link is not None:
        frames.append(link)
        link = tables[link[0]].opener
    frames.reverse()
    stacks = tuple(occ[0] for _, occ in frames), tuple(occ[1] for _, occ in frames)
    return NestedConfig(stacks[0], pair[0], stacks[1], pair[1]), frames


def test_summary_witness_equals_the_reference_witness():
    # the witness walked against each context's two bodies is the one the
    # callbacks built from the accessor-based tables: the same printed
    # specification and the same projections, in order; the structural
    # witness is unchanged map by map
    from ntg.sntg import sntg_bisimilar
    from oracles import reference_sntg_bisimilar, reference_summary_witness, reference_tabulate

    def maps(s):
        return None if s is None else [
            list(m.items()) for m in (s.tg.lab, s.tg.args, s.call, s.ret, s.inner)
        ] + [s.tg.root]

    positives = trees = 0
    for a, b in _table_corpus():
        res = nested_bisim(a, b)
        tables, clash = reference_tabulate(ReferenceCarrier(a), ReferenceCarrier(b))
        assert res.bisimilar == (clash is None)
        if is_ntg(a).ok and is_ntg(b).ok:
            trees += 1
            s1, s2 = ntg_to_sntg(a), ntg_to_sntg(b)
            assert maps(sntg_bisimilar(s1, s2)) == maps(reference_sntg_bisimilar(s1, s2))
        if clash is not None:
            assert res.witness is None
            continue
        positives += 1
        old, new = reference_summary_witness(a, b, tables), res.witness
        assert print_rgs(new.witness) == print_rgs(old.witness)
        assert list(new.proj_left.items()) == list(old.proj_left.items())
        assert list(new.proj_right.items()) == list(old.proj_right.items())
    assert positives >= 300 and trees >= 200


def test_structural_hom_equals_the_reference_hom():
    # the homomorphism that the first-order propagation finds on the two
    # encodings is the one the library's own propagation over the
    # structures found: the same map, in order, or the same conflict, on
    # the tree-shaped pairs of the corpus and on mutate_ntg partners
    from ntg.sntg import sntg_hom_explained
    from oracles import reference_sntg_hom_explained

    rng = random.Random(229)
    pairs = [(a, b) for a, b in _table_corpus() if is_ntg(a).ok and is_ntg(b).ok]
    pairs += [(a, mutate_ntg(rng, b)) for a, b in pairs]
    seen = {"hom": 0, "already": 0, "labels": 0}
    for a, b in pairs:
        s1, s2 = ntg_to_sntg(a), ntg_to_sntg(b)
        for x, y in ((s1, s2), (s2, s1)):
            phi, conflict = sntg_hom_explained(x, y)
            ref_phi, ref_conflict = reference_sntg_hom_explained(x, y)
            assert conflict == ref_conflict
            assert (phi and list(phi.items())) == (ref_phi and list(ref_phi.items()))
            seen["hom" if conflict is None else conflict.reason.split()[0]] += 1
    assert min(seen.values()) >= 20, seen


def test_certificates_read_off_the_tables_are_unchanged():
    # every certificate and counter read off the tables keyed by body
    # vertices is the one read off the accessor-based reference tables
    from ntg.equivalence import _needs_depth
    from oracles import reference_tabulate

    seen = {"clash": 0, "conflict": 0, "hom": 0, "relation": 0, "iso": 0}
    for a, b in _table_corpus():
        tables, clash = reference_tabulate(ReferenceCarrier(a), ReferenceCarrier(b))
        bis, hom = nested_bisim(a, b), nested_hom(a, b)
        facts = sum(len(ctx.reached) + len(ctx.exits) for ctx in tables.values())
        for res in (bis, hom):
            assert (res.contexts, res.facts) == (len(tables), facts)
        tree = is_ntg(a).ok and is_ntg(b).ok
        if clash is not None:
            seen["clash"] += 1
            key, pair, via, reason = clash
            cfg, frames = _reference_config(tables, key, via, pair)
            length = tables[key].reached[pair][0] + sum(tables[k].reached[occ][0] for k, occ in frames)
            for res in (bis, hom):
                assert (res.counterexample, res.reason, res.path_length) == (cfg, reason, length)
                assert len(res.path) == length and res.path[-1] == cfg
                assert replay_path(a, b, res.path) is None
            assert bis.witness is None and hom.certificate is None
            if tree:
                assert ntg_hom(a, b) is None and ntg_isomorphic(a, b) is None
            continue
        assert (bis.counterexample, bis.path, bis.path_length) == (None, None, 0)
        certificate = {(key, v1): v2 for key, ctx in tables.items() for v1, v2 in ctx.reached}
        conflict = None
        for key, ctx in tables.items():
            image = {}
            for v1, v2 in ctx.reached:
                if conflict is None and image.setdefault(v1, v2) != v2:
                    conflict = key, (v1, image[v1]), (v1, v2)
        if conflict is None:
            seen["hom"] += 1
            assert hom.verdict == "hom" and list(hom.certificate.items()) == list(certificate.items())
        else:
            seen["conflict"] += 1
            key, first, second = conflict
            assert hom.conflict == tuple(_reference_config(tables, key, None, p)[0] for p in (first, second))
            for run, cfg in zip(hom.runs, hom.conflict):
                assert run[-1] == cfg and replay_path(a, b, run, end=cfg) is None
        if _needs_depth(a, b):
            assert bis.relation is None
        else:
            seen["relation"] += 1
            assert bis.relation == closure_relation(a, b)
        if tree:
            phi = ntg_hom(a, b)
            want = None if conflict else {v1: v2 for (_, v1), v2 in certificate.items()}
            assert phi == want and (phi is None or list(phi) == list(want))
            iso = ntg_isomorphic(a, b)
            size = sum(map(len, a.rec.values()))
            vertex_map = {v1: v2 for ctx in tables.values() for v1, v2 in ctx.reached}
            if (size != sum(map(len, b.rec.values())) or len(set(vertex_map.values())) != size
                    or sum(len(ctx.reached) for ctx in tables.values()) != size):
                assert iso is None
            else:
                seen["iso"] += 1
                syms = [key or (a.root_symbol, b.root_symbol) for key in tables]
                assert list(iso.vertex_map.items()) == list(vertex_map.items())
                assert list(iso.symbol_map.items()) == syms
                assert iso.input_perm == {s1: dict(list(ctx.exits)) for (s1, _), ctx in zip(syms, tables.values())}
    assert min(seen.values()) >= 40, seen


def test_compatible_truth_table():
    # equal atomic labels, or two body labels of one kind among occurrence,
    # output and input; no first-order label is compatible with any label
    from ntg import FO_INPUT, OUTPUT, ROOT_INPUT, ROOT_OUTPUT, Atomic, Input, Nested, Output, PrimedConst
    from ntg.labels import _compatible

    f1, f1_again, f2, g1 = Atomic("f", 1), Atomic("f", 1), Atomic("f", 2), Atomic("g", 1)
    occurrences, outputs, inputs = [Nested("h", 1), Nested("k", 2)], [Output(), OUTPUT], [Input(1), Input(2)]
    labels = [f1, f1_again, f2, g1, *occurrences, *outputs, *inputs]
    labels += [PrimedConst("c"), FO_INPUT, ROOT_INPUT, ROOT_OUTPUT]
    assert f1 is not f1_again and occurrences[0] != occurrences[1]
    kinds = (occurrences, outputs, inputs)
    for l1 in labels:
        for l2 in labels:
            expected = any(l1 in kind and l2 in kind for kind in kinds)
            expected = expected or (isinstance(l1, Atomic) and l1 == l2)
            assert _compatible(l1, l2) is expected, (l1, l2)
    assert sum(_compatible(l1, l2) for l1 in labels for l2 in labels) == 4 + 1 + 1 + 3 * 4


def test_nested_config_is_a_named_tuple():
    # read by name, printed as before, immutable, and equal and hashed as
    # its plain 4-tuple
    parts = ((("f", "x"),), ("g", "o"), (("h", "y"),), ("k", "o"))
    cfg = NestedConfig(*parts)
    assert (cfg.left_stack, cfg.left, cfg.right_stack, cfg.right) == parts
    assert repr(cfg) == (
        "NestedConfig(left_stack=(('f', 'x'),), left=('g', 'o'), right_stack=(('h', 'y'),), right=('k', 'o'))"
    )
    assert str(cfg) == "<f.x g.o ~ h.y k.o>"
    assert str(NestedConfig((), ("r", "o"), (), ("s", "o"))) == "<r.o ~ s.o>"
    for name in ("left_stack", "left", "right_stack", "right", "other"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, ())
    same = NestedConfig(*parts)
    assert same is not cfg and same == cfg and hash(same) == hash(cfg)
    assert cfg == parts and hash(cfg) == hash(parts) and len({cfg, same, parts}) == 1


def test_atomic_and_nested_symbols_stay_apart():
    # the two symbol classes share their fields but never compare equal
    import dataclasses

    from ntg import Atomic, Nested

    a, n = Atomic("c", 1), Nested("c", 1)
    assert a != n and n != a and len({a, n}) == 2
    assert a == Atomic("c", 1) and hash(a) == hash(Atomic("c", 1)) and n == Nested("c", 1)
    assert (repr(a), repr(n), str(a), str(n)) == ("Atomic(name='c', arity=1)", "Nested(name='c', arity=1)", "c", "c")
    for label in (a, n):
        for field in ("name", "arity", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(label, field, 0)
    for cls in (Atomic, Nested):
        with pytest.raises(ValueError, match="negative arity for 'c'"):
            cls("c", -1)


def test_engine_asks_compatible_for_every_label_pair(monkeypatch):
    # every label test of the engine goes through _compatible: a fault
    # injected there decides.  The patched half runs on fresh copies of
    # each pair, since a pair of objects already decided keeps its tables
    import ntg.equivalence
    from ntg import Atomic

    compatible = ntg.equivalence._compatible

    def ignoring_names(l1, l2):
        if isinstance(l1, Atomic) and isinstance(l2, Atomic):
            return l1.arity == l2.arity
        return compatible(l1, l2)

    rng = random.Random(223)
    pairs = []
    for _ in range(12):
        r = random_cyclic_rgs(rng)
        other = relabel_constant(rng, r)
        if other is not r and not nested_bisim(r, other).bisimilar:
            assert nested_hom(r, other).verdict == "none"
            pairs.append((r, other))
    assert len(pairs) >= 6
    monkeypatch.setattr(ntg.equivalence, "_compatible", ignoring_names)
    for r, other in pairs:
        r, other = _fresh(r), _fresh(other)
        assert nested_bisim(r, other).verdict == "bisimilar"
        assert nested_hom(r, other).verdict == "hom"


def test_verify_ntg_hom_reports_unhashable_images(fix_n):
    phi = ntg_hom(fix_n, fix_n)
    for key in phi:
        absent = verify_ntg_hom(fix_n, fix_n, {**phi, key: ("absent", "v")})
        assert f"{key}: image is not a vertex of the target" in absent
        for bad in ((["s"], "v"), ("n", ["v"]), (key[0], [key[1]]), ([key[0]], key[1])):
            assert verify_ntg_hom(fix_n, fix_n, {**phi, key: bad}) == absent


def test_verify_ntg_hom_reports_an_invalid_specification(fix_n, tree_corpus):
    # an invalid specification on either side is reported alone, by its
    # first violation, and its bodies are not looked up where they are
    # undefined (an occurrence of an undeclared definition among them)
    from ntg import Rgs, TermGraph
    from ntg.labels import Nested

    ident = {(s, v): (s, v) for s in fix_n.rec for v in fix_n.rec[s].lab}
    body = fix_n.rec["n"]
    bad = Rgs(fix_n.signature, {**fix_n.rec, "n": TermGraph({**body.lab, "gc": Nested("h", 0)}, body.args, body.root)})
    first = "n.gc: unknown nested symbol 'h'"
    assert verify_ntg_hom(bad, fix_n, ident) == [f"invalid left specification: {first}"]
    assert verify_ntg_hom(fix_n, bad, ident) == [f"invalid right specification: {first}"]
    assert verify_ntg_hom(bad, bad, ident) == [f"invalid {side} specification: {first}" for side in ("left", "right")]
    rng = random.Random(29)
    checked = 0
    for r in tree_corpus * 30:
        b = break_body(rng, r)
        if not validate_rgs(b):
            continue
        checked += 1
        phi = {(s, v): (s, v) for s in b.rec for v in b.rec[s].lab}
        assert verify_ntg_hom(b, r, phi) == [f"invalid left specification: {validate_rgs(b)[0]}"]
        assert verify_ntg_hom(r, b, phi) == [f"invalid right specification: {validate_rgs(b)[0]}"]
    assert checked > 100


# ---------------------------------------------------------------------------
# One summary table per ordered pair of specification objects
# ---------------------------------------------------------------------------


def _count_tabulations(monkeypatch):
    """The ordered pairs of specifications tabulated from here on, each
    as the two objects, in call order."""
    import ntg.equivalence

    calls = []
    tabulate = ntg.equivalence._tabulate
    monkeypatch.setattr(ntg.equivalence, "_tabulate", lambda r1, r2: calls.append((r1, r2)) or tabulate(r1, r2))
    return calls


def _fresh(r):
    """A new specification object with the content of ``r`` and none of
    its kept results."""
    from ntg import Rgs

    return Rgs(r.signature, r.rec)


def _cache_corpus():
    """Tree-shaped, shared and cyclic pairs, positive and negative; each
    entry is ``(kind, left, right)``."""
    rng = random.Random(271)
    corpus = []
    for _ in range(6):
        n = random_ntg(rng)
        corpus += [("tree", n, permute_inputs(rng, n)[0]), ("tree", n, mutate_ntg(rng, n))]
        r = random_acyclic_rgs(rng)
        corpus += [("shared", r, unfold_to_ntg(r).rgs), ("shared", r, relabel_constant(rng, r))]
        split = split_shared_vertex(rng, r)
        if split is not None:  # bisimilar; a functionality conflict in this direction
            corpus.append(("shared", r, split))
        c = random_cyclic_rgs(rng)
        corpus += [("cyclic", c, unroll_twice(c)), ("cyclic", c, relabel_constant(rng, c))]
    return [(kind, a, b) for kind, a, b in corpus if a is not b]


def _observed(bis, hom, iso=None, phi=None):
    """Every field the verdicts carry and derive from their tables."""
    def summary(res):
        return (res.verdict, res.reason, res.counterexample, res.path, res.path_length,
                res.contexts, res.facts)

    w = bis.witness
    return (
        summary(bis), bis.relation,
        w and (print_rgs(w.witness), w.proj_left, w.proj_right),
        summary(hom), hom.certificate, hom.conflict, hom.runs,
        iso, phi,
    )


def test_verdicts_on_one_pair_read_one_table(monkeypatch):
    # deciding one pair of objects again reads the table the first
    # decision kept; every field matches the same calls, in the opposite
    # order, on fresh copies, each pair of which tabulates once too
    calls = _count_tabulations(monkeypatch)
    kinds = {}
    for kind, a, b in _cache_corpus():
        tree = is_ntg(a).ok and is_ntg(b).ok
        calls.clear()
        bis, hom = nested_bisim(a, b), nested_hom(a, b)
        iso, phi = (ntg_isomorphic(a, b), ntg_hom(a, b)) if tree else (None, None)
        kept = _observed(bis, hom, iso, phi)
        assert len(calls) == 1 and calls[0][0] is a and calls[0][1] is b
        fa, fb = _fresh(a), _fresh(b)
        calls.clear()
        phi, iso = (ntg_hom(fa, fb), ntg_isomorphic(fa, fb)) if tree else (None, None)
        hom = nested_hom(fa, fb)
        bis = nested_bisim(fa, fb)
        assert _observed(bis, hom, iso, phi) == kept
        assert len(calls) == 1
        kinds.setdefault(kind, set()).add((bis.verdict, hom.verdict))
    for kind in ("tree", "shared", "cyclic"):
        assert {("bisimilar", "hom"), ("not_bisimilar", "none")} <= kinds[kind], kind
    assert ("bisimilar", "none") in kinds["shared"]


def test_an_equal_right_specification_is_tabulated_again(monkeypatch):
    # the table is kept for the right object, not for its content, and
    # only for the last right specification the left one was compared with
    calls = _count_tabulations(monkeypatch)
    rng = random.Random(5)
    r = random_cyclic_rgs(rng)
    other = relabel_constant(rng, r)
    twin = _fresh(other)
    assert twin == other and twin is not other
    first = nested_bisim(r, other)
    assert nested_hom(r, twin).verdict == "none"
    assert nested_hom(r, other).verdict == "none"
    assert nested_bisim(r, other).path == first.path
    assert len(calls) == 3 and all(left is r for left, _ in calls)
    assert [right is other for _, right in calls] == [True, False, True]
    assert calls[1][1] is twin


def test_a_kept_table_does_not_keep_its_right_specification_alive():
    import gc
    import weakref

    rng = random.Random(7)
    r = random_cyclic_rgs(rng)
    other = unroll_twice(r)
    assert nested_bisim(r, other).bisimilar
    gone = weakref.ref(other)
    del other
    gc.collect()
    assert gone() is None
    # and the kept table makes no reference cycle: both die without the collector
    other = unroll_twice(r)
    assert nested_hom(r, other).exists
    left, right = weakref.ref(r), weakref.ref(other)
    gc.disable()
    try:
        del r, other
        assert left() is None and right() is None
    finally:
        gc.enable()


def test_cross_checks_tabulate_each_ordered_pair_once(monkeypatch, fix_r1):
    # cyclic input is decided in both orders, the rest in one
    calls = _count_tabulations(monkeypatch)
    rng = random.Random(11)
    lefts = [(fix_r1, True), (random_cyclic_rgs(rng), True), (random_acyclic_rgs(rng), False),
             (random_ntg(rng), False)]
    for a, cyclic in lefts:
        for b in (_fresh(a), relabel_constant(rng, a)):
            assert b is not a
            calls.clear()
            report = cross_check_theorems(a, b)
            assert report.all_agree, str(report)
            want = [(a, b), (b, a)] if cyclic else [(a, b)]
            assert len(calls) == len(want)
            assert all(x is u and y is v for (x, y), (u, v) in zip(calls, want))


def test_ntg_hom_refuses_conflicting_atomic_arities():
    from ntg import parse_rgs

    a = parse_rgs("atomic c/0; def r/0 { o: out(b); b: c; }")
    b = parse_rgs("atomic c/1, k/0; def r/0 { o: out(b); b: c(k); k: k; }")
    with pytest.raises(ValueError, match=r"^atomic symbol 'c' has conflicting arities$"):
        ntg_hom(a, b)
