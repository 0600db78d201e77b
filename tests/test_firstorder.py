import io
import pathlib
import random
import re
from collections import Counter

import pytest

from ntg import (
    Atomic,
    FoInput,
    PrimedConst,
    RootInput,
    RootOutput,
    Output,
    TermGraph,
    check_fully_backlinked,
    infer_ancestors,
    interpret,
    is_rg_member,
    ntg_bisimilar,
    ntg_collapse,
    ntg_hom,
    ntg_isomorphic,
    ntg_to_sntg,
    print_fo,
    print_rgs,
    represent,
    rg_defect,
    tg_bisimilar,
    tg_collapse,
    tg_hom,
    tg_isomorphic,
)
from generators import (
    chain_spec,
    depth_family,
    mutate_fo,
    mutate_ntg,
    random_acyclic_rgs,
    random_cyclic_rgs,
    random_ntg,
    random_quotient,
    random_ungrounded_ntg,
)
from ntg.firstorder import _kept_carrier
from ntg.graph import _refine
from ntg.labels import Input
from oracles import (
    depth_first_scope_inputs,
    enumerate_ancestor_assignments,
    flat_collapse,
    moore_refine,
    reference_carrier,
    reference_check_fully_backlinked,
    reference_infer_ancestors,
    reference_member_ancestors,
    reference_read_back,
    reference_represent,
    scoped_quotient,
    sntg_interpret,
    two_path_collapse,
)


def census(g):
    out = Counter()
    for v in g.lab:
        lbl = g.lab[v]
        if isinstance(lbl, RootOutput):
            out["out_r"] += 1
        elif isinstance(lbl, Output):
            out["out"] += 1
        elif isinstance(lbl, FoInput):
            out["in"] += 1
        elif isinstance(lbl, RootInput):
            out["in_r"] += 1
        elif isinstance(lbl, PrimedConst):
            out["const"] += 1
        else:
            out[lbl.name] += 1
    return out


def test_interpret_trivial(fix_triv):
    g = interpret(fix_triv)
    assert len(g) == 3
    assert census(g) == {"out_r": 1, "const": 1, "in_r": 1}
    # forced shape: out_r -> c' -> in_r -> out_r
    (c,) = g.args[g.root]
    (ir,) = g.args[c]
    assert isinstance(g.lab[c], PrimedConst)
    assert g.args[ir] == (g.root,)


def test_interpret_running_example_counts(fix_n):
    g = interpret(fix_n)
    assert len(g) == 34
    assert census(g) == {
        "out_r": 1,
        "out": 3,
        "lam": 4,
        "app": 7,
        "const": 6,
        "in": 7,
        "in_r": 6,
    }


def test_interpret_depth_two_constant_chain():
    # a constant inside a called definition gets one exit vertex linking
    # back to the definition's output vertex, then a root link
    from ntg import Input, Nested, NtgSignature, Rgs, make_graph

    sig = NtgSignature({"c": 0}, {"r": 0, "g": 0}, "r")
    n = Rgs(sig, {
        "r": make_graph("o", {"o": (Output(), ["go"]), "go": (Nested("g", 0), [])}),
        "g": make_graph("o", {"o": (Output(), ["b"]), "b": (Atomic("c", 0), [])}),
    })
    g = interpret(n)
    assert census(g) == {"out_r": 1, "out": 1, "const": 1, "in": 1, "in_r": 1}
    const = next(v for v in g.lab if isinstance(g.lab[v], PrimedConst))
    (link,) = g.args[const]
    assert isinstance(g.lab[link], FoInput)
    inner_out = next(
        v for v in g.lab if isinstance(g.lab[v], Output) and not isinstance(g.lab[v], RootOutput)
    )
    assert g.args[link][1] == inner_out
    (root_link, _) = g.args[link][0], None
    assert isinstance(g.lab[root_link], RootInput)
    assert g.args[root_link] == (g.root,)


def test_interpret_chain_names_clear_of_carrier_names():
    # the vertex "k#er" has the name that the exit chain of "k" would take
    from ntg import NtgSignature, Rgs, make_graph

    sig = NtgSignature({"f": 2, "c": 0, "d": 0}, {"r": 0}, "r")
    r = Rgs(sig, {"r": make_graph("o", {
        "o": (Output(), ["p"]),
        "p": (Atomic("f", 2), ["k", "k#er"]),
        "k": (Atomic("c", 0), []),
        "k#er": (Atomic("d", 0), []),
    })})
    g = interpret(r)
    assert len(g) == 6
    assert census(g) == {"out_r": 1, "f": 1, "const": 2, "in_r": 2}
    assert is_rg_member(g)
    assert ntg_isomorphic(represent(g), r) is not None


def test_interpret_matches_hand_encoded_figure(fix_n, n_flattened):
    assert tg_isomorphic(interpret(fix_n), n_flattened) is not None


def test_infer_ancestors_trivial(fix_triv):
    g = interpret(fix_triv)
    anc, err = infer_ancestors(g)
    assert err is None
    (c,) = g.args[g.root]
    assert anc[g.root] == ()
    assert anc[c] == (g.root,)


def test_infer_ancestors_backlinks_match(fix_n):
    g = interpret(fix_n)
    anc, err = infer_ancestors(g)
    assert err is None
    for v in g.lab:
        if isinstance(g.lab[v], FoInput):
            assert g.args[v][1] == anc[v][-1]


def test_infer_ancestors_detects_retargeted_backlink(fix_n):
    g = interpret(fix_n)
    victims = [v for v in sorted(g.lab, key=str) if isinstance(g.lab[v], FoInput)]
    outputs = [v for v in sorted(g.lab, key=str) if type(g.lab[v]) is Output]
    v = victims[0]
    wrong = next(o for o in outputs if o != g.args[v][1])
    args = dict(g.args)
    args[v] = (g.args[v][0], wrong)
    broken = TermGraph(g.lab, args, g.root)
    anc, err = infer_ancestors(broken)
    assert anc is None and err is not None


def test_membership_of_interpretations(tree_corpus):
    for n in tree_corpus:
        assert is_rg_member(interpret(n))


def test_membership_rejects_double_pop():
    from ntg.firstorder import FO_INPUT, ROOT_OUTPUT

    g = TermGraph(
        {
            "r": ROOT_OUTPUT,
            "o1": Output(),
            "o2": Output(),
            "a": Atomic("u0", 1),
            "i": FO_INPUT,
        },
        {
            "r": ("o1",),
            "o1": ("o2",),
            "o2": ("a",),
            "a": ("i",),
            # the argument sits two scope levels up instead of one
            "i": ("o1", "o2"),
        },
        "r",
    )
    defect = rg_defect(g)
    assert defect is not None and "conflicting" in defect.reason


def test_member_outside_image_is_not_representable():
    # Correct with respect to an ancestor assignment, but its exit vertex
    # takes a root link as argument, which no specification produces.
    from ntg.firstorder import FO_INPUT, ROOT_INPUT, ROOT_OUTPUT
    from ntg import NotRepresentableError

    g = TermGraph(
        {
            "r": ROOT_OUTPUT,
            "o1": Output(),
            "a": Atomic("u0", 1),
            "i": FO_INPUT,
            "ir": ROOT_INPUT,
        },
        {
            "r": ("o1",),
            "o1": ("a",),
            "a": ("i",),
            "i": ("ir", "o1"),
            "ir": ("r",),
        },
        "r",
    )
    assert is_rg_member(g)
    with pytest.raises(NotRepresentableError):
        represent(g)


def test_member_with_a_symbol_of_two_arities_is_not_representable():
    # a member whose symbol c labels both a unary vertex and a constant
    # (whose successor heads an exit chain): no signature gives c both
    from ntg import NotRepresentableError, parse_fo

    g = parse_fo("tg { root r; r: out_r(a); a: f(c, k); c: c(e); e: in_r(r); "
                 "k: c(m); m: z(e2); e2: in_r(r); }")
    assert is_rg_member(g)
    with pytest.raises(NotRepresentableError) as caught:
        represent(g)
    assert str(caught.value) == "symbol 'c' occurs both as a constant and with arity 1"


def test_membership_of_collapse(fix_n):
    g, _ = tg_collapse(interpret(fix_n))
    assert is_rg_member(g)


def test_retraction_on_corpus(tree_corpus):
    for n in tree_corpus:
        back = represent(interpret(n))
        assert ntg_isomorphic(n, back) is not None


def test_retraction_on_self_argument_cycle():
    # an occurrence that feeds itself as its own argument survives the
    # roundtrip: the two argument edges into the definition's output
    # vertex denote one occurrence
    from ntg import Input, Nested, NtgSignature, Rgs, make_graph

    sig = NtgSignature({"c": 0}, {"r": 0, "f": 1}, "r")
    n = Rgs(sig, {
        "r": make_graph("o", {"o": (Output(), ["fo"]), "fo": (Nested("f", 1), ["fo"])}),
        "f": make_graph("o", {
            "o": (Output(), ["l"]), "l": (Atomic("u0", 1), ["x"]), "x": (Input(1), []),
        }),
    })
    sig2 = NtgSignature({"c": 0, "u0": 1}, {"r": 0, "f": 1}, "r")
    n = Rgs(sig2, n.rec)
    g = interpret(n)
    assert is_rg_member(g)
    back = represent(g)
    assert ntg_isomorphic(n, back) is not None


def test_represent_after_collapse_is_wellformed(fix_n):
    g, _ = tg_collapse(interpret(fix_n))
    back = represent(g)
    from ntg import is_ntg, validate_rgs

    assert validate_rgs(back) == [] and is_ntg(back).ok


def test_hom_preserved_and_reflected(sharing_chain, fix_n, fix_triv):
    pool = sharing_chain + [fix_n, fix_triv]
    for n1 in pool:
        for n2 in pool:
            up = ntg_hom(n1, n2) is not None
            down = tg_hom(interpret(n1), interpret(n2)) is not None
            assert up == down, "homomorphism not preserved/reflected"


def test_bisim_preserved_and_reflected(sharing_chain, fix_n, fix_triv):
    pool = sharing_chain + [fix_n, fix_triv]
    for n1 in pool:
        for n2 in pool:
            up = ntg_bisimilar(n1, n2) is not None
            down = tg_bisimilar(interpret(n1), interpret(n2))
            assert up == down


def test_quotients_stay_members():
    rng = random.Random(67)
    produced = 0
    while produced < 25:
        g = interpret(random_ntg(rng))
        q = random_quotient(rng, g)
        if q is None:
            continue
        quotient, mapping = q
        from ntg import verify_tg_hom

        assert verify_tg_hom(g, quotient, mapping) is None
        assert is_rg_member(quotient)
        produced += 1


def test_collapse_unique_on_bisimilar_fixtures(sharing_chain):
    collapses = [ntg_collapse(n) for n in sharing_chain]
    for c1 in collapses:
        for c2 in collapses:
            assert ntg_isomorphic(c1, c2) is not None


def test_collapse_idempotent_and_hom(tree_corpus):
    for n in tree_corpus:
        c = ntg_collapse(n)
        assert ntg_isomorphic(c, ntg_collapse(c)) is not None
        assert ntg_hom(n, c) is not None


def test_fully_backlinked(fix_n, fix_triv):
    assert check_fully_backlinked(interpret(fix_n))
    assert check_fully_backlinked(interpret(fix_triv))


def test_fully_backlinked_contrast_case(fix_n):
    g = interpret(fix_n)
    victim = next(v for v in sorted(g.lab, key=str) if isinstance(g.lab[v], FoInput))
    args = dict(g.args)
    # deleting a back-link edge cannot be expressed (arities are fixed);
    # retargeting it to the root breaks membership instead
    args[victim] = (g.args[victim][0], g.root)
    broken = TermGraph(g.lab, args, g.root)
    assert not is_rg_member(broken)
    with pytest.raises(ValueError):
        check_fully_backlinked(broken)


def test_vertex_count_arithmetic(tree_corpus):
    from ntg import Nested

    for n in tree_corpus:
        s = ntg_to_sntg(n)
        nested_count = sum(1 for v in s.tg.lab if isinstance(s.tg.lab[v], Nested))
        const_depths = sum(
            len(s.anc[v])
            for v in s.tg.lab
            if isinstance(s.tg.lab[v], Atomic) and s.tg.lab[v].arity == 0
        )
        assert len(interpret(n)) == len(s.tg) - nested_count + const_depths


def test_ancestor_uniqueness_brute_force(fix_triv):
    from ntg import Input, Nested, NtgSignature, Rgs, make_graph

    small = [interpret(fix_triv)]
    sig = NtgSignature({"c": 0}, {"r": 0, "g": 0}, "r")
    small.append(
        interpret(
            Rgs(sig, {
                "r": make_graph("o", {"o": (Output(), ["go"]), "go": (Nested("g", 0), [])}),
                "g": make_graph("o", {"o": (Output(), ["b"]), "b": (Atomic("c", 0), [])}),
            })
        )
    )
    for g in small:
        assert len(g) <= 10
        solutions = enumerate_ancestor_assignments(g, limit=2)
        assert len(solutions) == 1
        anc, err = infer_ancestors(g)
        assert err is None and solutions[0] == anc


def _scope_local_cycles():
    """Equally-shaped body cycles in two scopes that never reach an input
    or a constant."""
    from ntg import Nested, NtgSignature, Rgs, make_graph

    sig = NtgSignature({"u1": 1, "b0": 2, "c": 0}, {"r": 0, "g": 0}, "r")
    return Rgs(sig, {
        "r": make_graph("o", {
            "o": (Output(), ["t"]),
            "t": (Atomic("b0", 2), ["loop", "go"]),
            "loop": (Atomic("u1", 1), ["loop"]),
            "go": (Nested("g", 0), []),
        }),
        "g": make_graph("o", {
            "o": (Output(), ["loop"]),
            "loop": (Atomic("u1", 1), ["loop"]),
        }),
    })


def test_scope_local_cycles_need_the_scoped_collapse():
    # A body cycle that never reaches an input or constant makes the
    # flattening lose full back-linking: the plain collapse then merges
    # equally-shaped cycles across scope levels and leaves the
    # representing class.  ntg_collapse also refines by the innermost
    # ancestor, which keeps collapse total, idempotent and reached by a
    # homomorphism.
    n = _scope_local_cycles()
    g = interpret(n)
    assert is_rg_member(g)
    assert not check_fully_backlinked(g)
    plain, _ = tg_collapse(g)
    assert not is_rg_member(plain)
    c = ntg_collapse(n)
    assert ntg_isomorphic(c, ntg_collapse(c)) is not None
    assert ntg_hom(n, c) is not None
    assert ntg_bisimilar(n, c) is not None


def _innermost_key(g, anc):
    # the sequences ntg_collapse refines by: arguments, then innermost ancestor
    return {v: g.args[v] + anc[v][-1:] for v in g.lab}


def test_scoped_refinement_equals_moore_reference():
    # keying on the innermost ancestor gives the partition of the full
    # ancestor chains, computed by the round-by-round reference
    g = interpret(_scope_local_cycles())
    anc, _ = infer_ancestors(g)
    block = _refine(g.lab, _innermost_key(g, anc))
    assert block == moore_refine(g.lab, g.args, anc)
    # the ancestors keep apart the loops that the plain refinement merges
    assert block != _refine(g.lab, g.args)
    rng = random.Random(83)
    for make in [random_ntg] * 25 + [random_ungrounded_ntg] * 25:
        g = interpret(make(rng))
        anc, _ = infer_ancestors(g)
        assert _refine(g.lab, _innermost_key(g, anc)) == moore_refine(g.lab, g.args, anc)


def test_one_path_collapse_equals_two_path_reference():
    rng = random.Random(89)
    samples = [_scope_local_cycles()]
    samples += [random_ntg(rng) for _ in range(150)]
    samples += [random_ungrounded_ntg(rng) for _ in range(150)]
    samples += [random_ungrounded_ntg(rng, max_defs=8, max_arity=1, extra_budget=2) for _ in range(300)]
    left_the_class = 0
    for n in samples:
        assert print_rgs(ntg_collapse(n)) == print_rgs(two_path_collapse(n))
        left_the_class += not is_rg_member(tg_collapse(interpret(n))[0])
    # besides the hand-made case, random samples reach the scoped path of
    # the reference too
    assert left_the_class >= 2


def test_retraction_random(tree_corpus):
    rng = random.Random(71)
    for _ in range(30):
        n = random_ntg(rng)
        assert ntg_isomorphic(n, represent(interpret(n))) is not None


def test_acyclic_specs_agree_through_unfolding_and_flattening():
    from ntg import nested_bisim, unfold_to_ntg
    from generators import random_acyclic_rgs

    rng = random.Random(79)
    for _ in range(30):
        r1 = random_acyclic_rgs(rng)
        r2 = r1 if rng.random() < 0.2 else random_acyclic_rgs(rng)
        stacked = nested_bisim(r1, r2).bisimilar
        flat = tg_bisimilar(
            interpret(unfold_to_ntg(r1).rgs), interpret(unfold_to_ntg(r2).rgs)
        )
        assert stacked == flat


def test_collapse_of_mutation_pairs_consistent():
    rng = random.Random(73)
    for _ in range(10):
        n = random_ntg(rng)
        m = mutate_ntg(rng, n)
        if ntg_bisimilar(n, m) is not None:
            assert ntg_isomorphic(ntg_collapse(n), ntg_collapse(m)) is not None


def _assert_inputs_follow_reference(g):
    """The input indices ``represent`` assigns in every definition list the
    scope's inputs in the order of the whole-graph reference walk."""
    anc, err = infer_ancestors(g)
    assert err is None
    r = represent(g)
    for sym, body in r.rec.items():
        # read-back names body vertices "<symbol>:<graph vertex>"
        o = body.root.partition(":")[2]
        numbered = sorted(
            (body.lab[u].index, u.partition(":")[2]) for u in body.lab if isinstance(body.lab[u], Input)
        )
        assert [b for _, b in numbered] == depth_first_scope_inputs(g, anc, o)
        assert [j for j, _ in numbered] == list(range(1, r.signature.nested[sym] + 1))


def test_represent_input_order_equals_reference():
    rng = random.Random(89)
    quotients = 0
    for _ in range(60):
        g = interpret(random_ntg(rng, max_defs=5, max_arity=3))
        _assert_inputs_follow_reference(g)
        found = random_quotient(rng, g)
        if found is not None and is_rg_member(found[0]):
            _assert_inputs_follow_reference(found[0])
            quotients += 1
    assert quotients > 10
    for d in range(1, 13):
        g = interpret(depth_family(d))
        _assert_inputs_follow_reference(g)
        _assert_inputs_follow_reference(tg_collapse(g)[0])


def test_represent_long_chain_needs_no_recursion():
    # one frame per chain vertex would pass the default recursion limit
    n = 1000
    spec = chain_spec(n, "r")
    assert ntg_isomorphic(spec, represent(interpret(spec))) is not None
    c = ntg_collapse(spec)
    # out, pair, one shared chain and its constant
    assert len(c.rec[c.root_symbol]) == n + 3
    assert ntg_isomorphic(c, ntg_collapse(c)) is not None


def test_represent_deep_nesting_needs_no_recursion():
    n = depth_family(400)
    assert ntg_isomorphic(n, represent(interpret(n))) is not None


def _outcome(f, n):
    try:
        return f(n), None
    except Exception as e:  # compared by type and message below
        return None, (type(e), str(e))


def _assert_carrier_matches_flattening(n):
    """``interpret`` and ``ntg_collapse`` agree with the references built
    through the structural representation and the flattening, including
    the exception raised on invalid or not tree-shaped input, which is
    returned (None when both succeed)."""
    g, err = _outcome(interpret, n)
    ref, ref_err = _outcome(sntg_interpret, n)
    assert err == ref_err
    c, err = _outcome(ntg_collapse, n)
    ref_c, ref_err = _outcome(flat_collapse, n)
    assert err == ref_err
    if err is not None:
        return err
    assert (g.lab, g.args, g.root) == (ref.lab, ref.args, ref.root)
    assert print_rgs(c) == print_rgs(ref_c)
    assert ntg_isomorphic(c, ref_c) is not None
    return None


def _redirect_one_edge(rng, r):
    """``r`` with one argument edge moved to a random vertex of its body,
    not revalidated: often invalid (an edge into the output vertex, an
    unreachable vertex, a lost occurrence), sometimes still tree-shaped."""
    from ntg import Rgs

    sym = rng.choice(sorted(r.rec))
    body = r.rec[sym]
    vs = [v for v in sorted(body.lab, key=str) if body.args[v]]
    v = rng.choice(vs)
    args = dict(body.args)
    i = rng.randrange(len(args[v]))
    args[v] = args[v][:i] + (rng.choice(sorted(body.lab, key=str)),) + args[v][i + 1:]
    rec = dict(r.rec)
    rec[sym] = TermGraph(body.lab, args, body.root)
    return Rgs(r.signature, rec)


def test_carrier_matches_flattening_on_data_and_families():
    from conftest import DATA, load_rgs

    for path in sorted(DATA.glob("*.rgs")):
        _assert_carrier_matches_flattening(load_rgs(path.name))
    for d in range(1, 40):
        assert _assert_carrier_matches_flattening(depth_family(d)) is None
    for k in range(30):
        assert _assert_carrier_matches_flattening(chain_spec(k, "r")) is None


def test_carrier_matches_flattening_on_random_specifications():
    rng = random.Random(97)
    for _ in range(300):
        assert _assert_carrier_matches_flattening(random_ntg(rng)) is None
        assert _assert_carrier_matches_flattening(random_ungrounded_ntg(rng)) is None
    assert _assert_carrier_matches_flattening(_scope_local_cycles()) is None


def _assert_carrier_is_the_reference(n):
    """The kept carrier of ``n`` is the one glued before each body's
    vertices were named once, item by item and in order, or both raise
    one error, which is returned."""
    got, err = _outcome(_kept_carrier, n)
    ref, ref_err = _outcome(reference_carrier, n)
    assert err == ref_err
    if err is not None:
        return err
    (g, inner, depth), (h, ref_inner, ref_depth) = got, ref
    assert g.root == h.root
    for mine, theirs in ((g.lab, h.lab), (g.args, h.args), (inner, ref_inner), (depth, ref_depth)):
        assert list(mine.items()) == list(theirs.items())
    return None


def test_carrier_equals_the_reference_carrier():
    from conftest import DATA, load_rgs

    errors = [_assert_carrier_is_the_reference(load_rgs(p.name)) for p in sorted(DATA.glob("*.rgs"))]
    assert errors.count(None) >= 5 and len(set(errors)) > 2
    for d in range(1, 40):
        assert _assert_carrier_is_the_reference(depth_family(d)) is None
    for k in range(30):
        assert _assert_carrier_is_the_reference(chain_spec(k, "r")) is None
    rng = random.Random(89)
    for _ in range(300):
        assert _assert_carrier_is_the_reference(random_ntg(rng)) is None
        assert _assert_carrier_is_the_reference(random_ungrounded_ntg(rng)) is None
    for _ in range(50):
        _assert_carrier_is_the_reference(_redirect_one_edge(rng, random_ntg(rng)))


def test_interpret_and_collapse_build_one_carrier(monkeypatch):
    import ntg.firstorder

    built = []
    glue = ntg.firstorder._carrier
    monkeypatch.setattr(ntg.firstorder, "_carrier", lambda n: built.append(n) or glue(n))
    n = depth_family(12)
    ntg_to_sntg(n)
    assert built == [] and "_carrier" not in vars(n)  # the structural form keeps none
    first = interpret(n)
    ntg_collapse(n)
    again = interpret(n)
    assert len(built) == 1 and built[0] is n
    assert (again.lab, again.args, again.root) == (first.lab, first.args, first.root)


def test_flattening_shares_no_dict_with_the_kept_carrier():
    from conftest import load_rgs

    for n in (depth_family(9), chain_spec(12, "r"), load_rgs("n.rgs")):
        g = interpret(n)
        c, inner, depth = _kept_carrier(n)
        kept = [list(m.items()) for m in (c.lab, c.args, inner, depth)]
        flat = [list(g.lab.items()), list(g.args.items())]
        assert {id(g.lab), id(g.args)}.isdisjoint(map(id, (c.lab, c.args, inner, depth)))
        ntg_collapse(n)
        assert [list(m.items()) for m in (g.lab, g.args)] == flat
        assert [list(m.items()) for m in (c.lab, c.args, inner, depth)] == kept
        assert _kept_carrier(n)[0] is c


def test_unchecked_builds_pass_the_constructor_checks():
    # _carrier, interpret and _read_back build through the unchecked
    # TermGraph._prechecked; rebuilding each graph they return through the
    # checking constructor must raise nothing and change nothing
    from ntg.firstorder import _carrier

    def assert_checked(g):
        assert type(g.lab) is dict and type(g.args) is dict
        h = TermGraph(g.lab, g.args, g.root)
        assert (h.lab, h.args, h.root) == (g.lab, g.args, g.root)

    rng = random.Random(103)
    specs = [depth_family(k) for k in range(1, 25)]
    specs += [f(rng) for _ in range(100) for f in (random_ntg, random_ungrounded_ntg)]
    for n in specs:
        assert_checked(_carrier(n)[0])
        assert_checked(interpret(n))
        assert_checked(tg_collapse(interpret(n))[0])
        for r in (represent(interpret(n)), ntg_collapse(n)):
            for body in r.rec.values():
                assert_checked(body)


def test_carrier_rejects_like_the_structural_representation():
    rng = random.Random(101)
    reasons = Counter()
    for _ in range(150):
        for r in (_redirect_one_edge(rng, random_ntg(rng)), random_acyclic_rgs(rng)):
            err = _assert_carrier_matches_flattening(r)
            reasons[err and (err[0], err[1].partition(":")[0])] += 1
        err = _assert_carrier_matches_flattening(random_cyclic_rgs(rng))
        assert err is not None and "cycle" in err[1]
    # both kinds of rejection are met, and some inputs are accepted
    assert reasons[ValueError, "invalid specification"] >= 30
    assert reasons[ValueError, "not a tree-shaped specification"] >= 30
    assert reasons[None] >= 30
    assert sum(reasons.values()) == 300


def test_clashing_vertex_names_are_refused():
    # vertex b.c of a and vertex c of a.b would both be named a.b.c, and
    # the flattening would silently merge them
    from ntg import Nested, NtgSignature, Rgs, make_graph

    sig = NtgSignature({"k": 0, "u": 1}, {"r": 0, "a": 0, "a.b": 0}, "r")
    n = Rgs(sig, {
        "r": make_graph("o", {"o": (Output(), ["p"]), "p": (Atomic("u", 1), ["x"]), "x": (Nested("a", 0), [])}),
        "a": make_graph("o", {"o": (Output(), ["b.c"]), "b.c": (Atomic("u", 1), ["y"]), "y": (Nested("a.b", 0), [])}),
        "a.b": make_graph("o", {"o": (Output(), ["c"]), "c": (Atomic("k", 0), [])}),
    })
    for f in (interpret, ntg_collapse, ntg_to_sntg):
        with pytest.raises(ValueError, match="vertex name a.b.c is ambiguous"):
            f(n)
    assert _assert_carrier_matches_flattening(n)[0] is ValueError


def test_vertices_of_one_body_whose_names_print_alike_are_refused():
    # vertices 1 and "1" of r would both be named r.1: the flattening lost
    # the constant c and sent both arguments of p to d
    from ntg import NtgSignature, Rgs, is_ntg, validate_rgs

    body = TermGraph(
        {"o": Output(), "p": Atomic("f", 2), 1: Atomic("c", 0), "1": Atomic("d", 0)},
        {"o": ("p",), "p": (1, "1"), 1: (), "1": ()},
        "o",
    )
    n = Rgs(NtgSignature({"f": 2, "c": 0, "d": 0}, {"r": 0}, "r"), {"r": body})
    assert validate_rgs(n) == [] and is_ntg(n).ok
    for f in (interpret, ntg_collapse, ntg_to_sntg):
        with pytest.raises(ValueError, match="^vertex name r.1 is ambiguous: vertices 1 and '1' of definition r"):
            f(n)


def test_collapse_refines_only_the_specification(monkeypatch):
    # the collapse refines the specification's own vertices, not the
    # flattening: at depth 400 the specification has 2,803 vertices, 400
    # of them occurrences, and the flattening has 162,804
    import sys

    from ntg import firstorder, sntg

    n = depth_family(400)
    refined = []

    def spy(lab, args):
        refined.append(len(lab))
        return _refine(lab, args)

    monkeypatch.setattr(firstorder, "_refine", spy)
    # a recursive collapse needs a frame per level: allow far fewer
    frames, f = 0, sys._getframe()
    while f is not None:
        frames, f = frames + 1, f.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 150)
    try:
        c = ntg_collapse(n)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(len(body) for body in n.rec.values()) == 2803
    assert refined == [2803 - 400]
    assert len(c.rec) == 401

    def forbidden(*_):
        raise AssertionError("interpret must not build the structural representation")

    monkeypatch.setattr(sntg, "ntg_to_sntg", forbidden)
    assert not hasattr(firstorder, "ntg_to_sntg")
    assert len(interpret(n)) == 162804


def test_collapse_without_self_checks():
    # python -O drops every assert; the collapse must not lose work with them
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from generators import depth_family, random_ungrounded_ntg\n"
        "from ntg import interpret, ntg_collapse, print_fo, print_rgs\n"
        "import random\n"
        "for n in [depth_family(6)] + [random_ungrounded_ntg(random.Random(s)) for s in range(20)]:\n"
        "    print(print_rgs(ntg_collapse(n)) + print_fo(interpret(n)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code, str(root / "src"), str(root / "tests")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    expected = "".join(
        print_rgs(ntg_collapse(n)) + print_fo(interpret(n)) + "\n"
        for n in [depth_family(6)] + [random_ungrounded_ntg(random.Random(s)) for s in range(20)]
    )
    assert done.stdout == expected


# every obstruction membership can report; the label reasons are shown
# without the label
_REACHABLE_REASONS = {
    "not root-connected",
    "label is not first-order",
    "root-output label away from the root",
    "root is not labeled as the root output",
    "conflicting ancestor chains",
    "back-link does not target the innermost ancestor",
    "back-link target is not an output vertex",
    "root link not at chain length one",
    "root link does not target the root",
    "label has no first-order reading",  # infer_ancestors only: the label scan comes first
    "unreachable from the root",  # infer_ancestors only: root-connectedness comes first
    "constant's exit chain does not end at a root link",
}


def test_membership_equals_the_reference():
    # the one-pass membership reports what the ordered checks over whole
    # ancestor chains report, and infer_ancestors builds the same chains.
    # The reference has two more reasons, which no graph reaches: only the
    # root has an empty chain, and after a propagation each exit vertex's
    # argument lies one level up, so no exit chain is cyclic
    rng = random.Random(191)
    reasons = set()
    for i in range(600):
        g = interpret((random_ntg, random_ungrounded_ntg)[i % 2](rng))
        for h in (g, tg_collapse(g)[0], mutate_fo(rng, g), mutate_fo(rng, g)):
            defect = rg_defect(h)
            assert defect == reference_member_ancestors(h)[1]
            found = infer_ancestors(h)
            assert found == reference_infer_ancestors(h)
            reasons.update(x.reason for x in (defect, found[1]) if x is not None)
    assert {re.sub(r"^label .* (is|has) ", r"label \1 ", r) for r in reasons} == _REACHABLE_REASONS


def test_read_back_shares_equal_labels(tree_corpus):
    # one label object per constant, input index and output, as the
    # parsers give, so label memos keyed by object id hit on read-backs too
    from ntg import parse_fo, parse_rgs

    for n in tree_corpus + [depth_family(6)]:
        n = parse_rgs(print_rgs(n))  # which shares each atomic label
        for back in (represent(parse_fo(print_fo(interpret(n)))), ntg_collapse(n)):
            seen = {}
            for body in back.rec.values():
                for lbl in body.lab.values():
                    assert seen.setdefault(lbl, lbl) is lbl, lbl


def _read_back_shape(n):
    """A read-back as printed, with its symbols' and each body's vertices'
    order."""
    return print_rgs(n), list(n.signature.nested), list(n.rec), [list(b.lab) for b in n.rec.values()]


def _argument_into_exit_chain(rng, g):
    """``g`` with one argument edge of an atomic vertex redirected to the
    exit chain of a constant of the same level, or None: a member, when
    the old target stays reachable, that does not read back."""
    from ntg.firstorder import _propagate

    inner = _propagate(g)[0]
    pairs = [(u, g.args[v][0]) for v, lbl in g.lab.items() if isinstance(lbl, PrimedConst)
             for u, l in g.lab.items() if type(l) is Atomic and l.arity and inner[u] == inner[v]]
    if not pairs:
        return None
    u, head = rng.choice(pairs)
    succ = list(g.args[u])
    succ[rng.randrange(len(succ))] = head
    return TermGraph(g.lab, {**g.args, u: tuple(succ)}, g.root)


def test_represent_equals_the_reference(tree_corpus):
    # on members, on graphs one or two faults away, on proper quotients and
    # on arguments into exit chains, refusals included, and the collapse
    # on its own quotient
    from ntg import parse_fo

    rng = random.Random(193)
    specs = tree_corpus + [depth_family(d) for d in range(1, 16)]
    specs += [f(rng) for _ in range(60) for f in (random_ntg, random_ungrounded_ntg)]
    refused = Counter()
    for n in specs:
        g = interpret(n)
        quotient = random_quotient(rng, g)
        collapsed = tg_collapse(g)[0]
        graphs = [g, collapsed, parse_fo(print_fo(g)), mutate_fo(rng, g), mutate_fo(rng, collapsed),
                  quotient and quotient[0], _argument_into_exit_chain(rng, g)]
        for h in filter(None, graphs):
            (ours, err), (ref, ref_err) = _outcome(represent, h), _outcome(reference_represent, h)
            assert err == ref_err
            assert ours is None or _read_back_shape(ours) == _read_back_shape(ref)
            refused[err is not None and err[0].__name__] += 1
        assert _read_back_shape(ntg_collapse(n)) == _read_back_shape(reference_read_back(*scoped_quotient(n)))
    assert refused["NotRepresentableError"] >= 20 and refused[False] >= 500  # 27 and 550


def test_scope_walks_stay_on_their_level(tree_corpus):
    # every vertex a scope's walk meets has that scope's output vertex as
    # its innermost ancestor, on members and on the collapse's quotients,
    # so the read-back needs no check that an argument crosses a level
    from ntg.firstorder import _propagate, _scope_walks

    rng = random.Random(197)
    specs = tree_corpus + [depth_family(d) for d in range(1, 8)]
    specs += [f(rng) for _ in range(60) for f in (random_ntg, random_ungrounded_ntg)]
    walked = 0
    for n in specs:
        g = interpret(n)
        quotient = random_quotient(rng, g)
        for h in [g, tg_collapse(g)[0]] + ([quotient[0]] if quotient else []):
            inner, depth, err = _propagate(h)
            assert err is None
            for o, (met, _) in _scope_walks(h, depth).items():
                assert all(inner[v] == o for v in met)
                walked += len(met)
        q, q_inner, q_depth = scoped_quotient(n)
        for o, (met, _) in _scope_walks(q, q_depth).items():
            assert all(q_inner[v] == o for v in met)
            walked += len(met)
    assert walked > 5000  # 5,443


def test_read_back_keeps_a_vertex_named_like_a_call_apart_from_the_call():
    # a constant renamed call:g.p beside the output vertex g.p it calls:
    # both were read back as d0:call:g.p, one body vertex for two
    from ntg import parse_rgs

    n = parse_rgs("atomic f/2, c/0;\nroot r;\n"
                  "def r/0 { o: out(a); a: f(x, y); x: g; y: c; }\ndef g/0 { p: out(b); b: c; }\n")
    g = interpret(n)
    name = {"r.y": "call:g.p", "r.y#er": "call:g.p#er"}
    renamed = TermGraph({name.get(v, v): lbl for v, lbl in g.lab.items()},
                        {name.get(v, v): tuple(name.get(w, w) for w in succ) for v, succ in g.args.items()},
                        g.root)
    assert ntg_isomorphic(represent(renamed), n) is not None


def test_read_back_bodies_list_arguments_in_vertex_order(tree_corpus):
    # each body's successor map is filled as its vertices are read back
    from ntg import parse_fo

    for n in tree_corpus + [depth_family(6)]:
        for back in (represent(parse_fo(print_fo(interpret(n)))), ntg_collapse(n)):
            for body in back.rec.values():
                assert list(body.args) == list(body.lab)


def test_fully_backlinked_equals_the_reference():
    rng = random.Random(5)
    specs = [random_ntg(rng) for _ in range(400)] + [random_ungrounded_ntg(rng) for _ in range(400)]
    verdicts = Counter()
    for n in specs + [_scope_local_cycles()]:
        g = interpret(n)
        verdict = check_fully_backlinked(g)
        assert verdict == reference_check_fully_backlinked(g)
        verdicts[verdict] += 1
    assert verdicts[False] >= 100 and verdicts[True] >= 600  # 131 and 670


def test_accepting_membership_runs_no_diagnosis(monkeypatch, tree_corpus):
    # a member is accepted by one propagation, and the back-link check is
    # one reverse walk from the root: no root-connectedness check and no
    # reachability walk from any vertex may run
    import ntg.firstorder
    import ntg.graph

    flats = [interpret(n) for n in tree_corpus + [depth_family(62)]]

    def refuse(*args):
        raise AssertionError("a whole-graph walk ran")

    for name in ("check_root_connected", "reachable"):
        monkeypatch.setattr(ntg.firstorder, name, refuse, raising=False)
    monkeypatch.setattr(ntg.graph, "reachable", refuse)
    for n, g in zip(tree_corpus + [depth_family(62)], flats):
        assert is_rg_member(g)
        assert check_fully_backlinked(g) in (True, False)
        assert ntg_isomorphic(n, represent(g)) is not None
    assert check_fully_backlinked(flats[-1])


# documents whose unary vertices head exit chains that cycle, run into a
# cycle, or end at a root link, with each unary vertex's parsed label and
# the report of rg_defect, as both were when the parser and the
# membership pass each walked the chains
CHAIN_DOCUMENTS = [
    ("tg { root r; r: out_r(b); b: c(e); e: in(e, r); }",
     {"b": "Atomic"}, "e: back-link target is not an output vertex"),
    ("tg { root r; r: out_r(o); o: out(b); b: c(e1); e1: in(e2, o); e2: in(e1, o); }",
     {"b": "Atomic"}, "e2: back-link does not target the innermost ancestor"),
    ("tg { root r; r: out_r(o); o: out(b); b: c(e0); e0: in(e1, o); e1: in(e2, o); e2: in(e1, o); }",
     {"b": "Atomic"}, "e1: back-link does not target the innermost ancestor"),
    ("tg { root r; r: out_r(o); o: out(a); a: f(b, d); b: c(e0); e0: in(e1, o); e1: in(e1, o); "
     "d: c(x); x: in(y, o); y: in_r(r); }",
     {"a": "Atomic", "b": "Atomic", "d": "PrimedConst"},
     "e1: back-link does not target the innermost ancestor"),
    ("tg { root r; r: out_r(o); o: out(a); a: f(b, d); b: c(x); d: c(x); x: in(y, o); y: in_r(r); }",
     {"a": "Atomic", "b": "PrimedConst", "d": "PrimedConst"}, "None"),
]


def test_parse_keeps_a_unary_vertex_whose_exit_chain_cycles_atomic():
    from ntg import parse_fo

    for text, kinds, defect in CHAIN_DOCUMENTS:
        g = parse_fo(text)
        unary = {v: type(lbl).__name__ for v, lbl in g.lab.items() if isinstance(lbl, (Atomic, PrimedConst))}
        assert unary == kinds
        assert str(rg_defect(g)) == defect
        # a constant label over a cycling chain is refused for the same reason
        primed = {v: PrimedConst(lbl.name) if isinstance(lbl, Atomic) and lbl.arity == 1 else lbl
                  for v, lbl in g.lab.items()}
        assert str(rg_defect(TermGraph(primed, g.args, g.root))) == defect


def _random_chains(rng, n):
    """Random maps of exit vertices, root links and atomic vertices, whose
    uniform successors give chains that share vertices, cycle, and lead
    into cycles, listed in a random order."""
    from ntg.firstorder import FO_INPUT, ROOT_INPUT

    vs = [f"v{k}" for k in range(n)]
    lab, args = {}, {}
    for v in rng.sample(vs, n):
        kind = rng.random()
        if kind < 0.6:
            lab[v], args[v] = FO_INPUT, (rng.choice(vs), rng.choice(vs))
        elif kind < 0.75:
            lab[v], args[v] = ROOT_INPUT, (rng.choice(vs),)
        elif kind < 0.9:
            lab[v], args[v] = Atomic("c", 1), (rng.choice(vs),)
        else:
            lab[v], args[v] = Atomic("k", 0), ()
    return lab, args


def test_grounded_equals_a_walk_from_each_vertex():
    from ntg.firstorder import _grounded
    from oracles import reference_grounded

    rng = random.Random(41)
    ends = Counter()
    for _ in range(600):
        lab, args = _random_chains(rng, rng.randint(1, 30))
        memo = _grounded(lab, args)
        assert set(memo) == {v for v, lbl in lab.items() if isinstance(lbl, (FoInput, RootInput))}
        # how many exit vertices continue at each vertex
        joins = Counter(args[v][0] for v, lbl in lab.items() if isinstance(lbl, FoInput))
        for v, lbl in lab.items():
            assert bool(memo.get(v)) == reference_grounded(lab, args, v)
            if isinstance(lbl, FoInput):
                seen, x = [], v
                while isinstance(lab[x], FoInput) and x not in seen:
                    seen.append(x)
                    x = args[x][0]
                ends[type(lab[x]).__name__ if x not in seen else "cycle" if x == v else "into a cycle"] += 1
                ends["shared"] += any(joins[u] > 1 for u in seen[1:] + [x])
    # 1,602 / 2,643 / 746 / 682 / 3,546
    assert min(ends[k] for k in ("RootInput", "Atomic", "cycle", "into a cycle", "shared")) >= 500, ends


def test_each_graph_walks_its_exit_chains_once(monkeypatch):
    # the parser keeps its chain memo on the graph, where rg_defect and
    # represent read it; an unparsed graph builds one on first use
    import pickle

    import ntg.firstorder
    from ntg import parse_fo, run_cli
    from ntg.firstorder import _grounded

    builds = []
    monkeypatch.setattr(ntg.firstorder, "_grounded", lambda lab, args: builds.append(1) or _grounded(lab, args))
    rng = random.Random(43)
    for n in [depth_family(5), random_ntg(rng), random_ungrounded_ntg(rng)]:
        text = print_fo(interpret(n))
        builds.clear()
        g = parse_fo(text)
        assert rg_defect(g) is None and is_rg_member(g)
        assert print_rgs(represent(g)) == print_rgs(represent(parse_fo(text)))
        assert len(builds) == 2  # one per parsed graph
        builds.clear()
        h = interpret(n)
        assert rg_defect(h) is None and check_fully_backlinked(h) in (True, False)
        represent(h)
        assert len(builds) == 1
        # the kept memo is a plain dict: the graph pickles and compares as before
        again = pickle.loads(pickle.dumps(g))
        assert again == g == TermGraph(g.lab, g.args, g.root) and again.__dict__ == g.__dict__
    builds.clear()
    flattened = pathlib.Path(__file__).parent / "data" / "n_flattened.fo"
    assert run_cli(["represent", str(flattened)], stdout=io.StringIO()) == 0
    assert len(builds) == 1
