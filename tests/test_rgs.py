import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from ntg import (
    Atomic,
    CoDetViolation,
    Cycle,
    Input,
    MissingDepthError,
    Nested,
    NtgSignature,
    Output,
    Rgs,
    TermGraph,
    UnreachableSymbol,
    Violation,
    dependency_ars,
    dependency_height,
    is_ntg,
    make_graph,
    nested_bisim,
    ntg_isomorphic,
    unfold_to_ntg,
    validate_rgs,
)
from ntg.labels import CUT_SYMBOL
from generators import (
    Foreign, break_body, fanout_family, random_acyclic_rgs, random_cyclic_rgs, random_ntg,
    unroll_twice,
)


def test_signature_invariants():
    with pytest.raises(ValueError):
        NtgSignature({"f": 1}, {"f": 0}, "f")  # atomic/nested overlap
    with pytest.raises(ValueError):
        NtgSignature({}, {"r": 1}, "r")  # root not nullary
    with pytest.raises(ValueError):
        NtgSignature({}, {"r": 0}, "s")  # root undeclared
    with pytest.raises(ValueError):
        NtgSignature({"o": 0}, {"r": 0}, "r")  # reserved interface name
    with pytest.raises(ValueError):
        NtgSignature({"i1": 0}, {"r": 0}, "r")  # reserved input name


def test_validate_accepts_corpus(fix_n, fix_triv, fix_r0, fix_r1):
    for r in (fix_n, fix_triv, fix_r0, fix_r1):
        assert validate_rgs(r) == []


def _with_unreachable_vertices(r):
    """``r`` with two vertices in every body that its output cannot reach:
    an occurrence of the root symbol, and an atomic vertex above it."""
    sig = r.signature
    rec = {}
    for sym, body in r.rec.items():
        lab = {**body.lab, "zz_occ": Nested(r.root_symbol, 0), "zz_top": Atomic("zz", 1)}
        args = {**body.args, "zz_occ": (), "zz_top": ("zz_occ",)}
        rec[sym] = TermGraph(lab, args, body.root)
    return Rgs(NtgSignature({**sig.atomic, "zz": 1}, sig.nested, sig.root_symbol), rec)


def _unfolding(unfold, r, depth, vertex=lambda sym, v: v):
    """Everything ``unfold(r, depth)`` gives, with every dict in its order,
    or what it raises; each vertex ``v`` of a body ``sym`` is read as
    ``vertex(sym, v)``."""
    from ntg import print_rgs

    try:
        res = unfold(r, depth)
    except ValueError as e:
        return type(e).__name__, str(e)
    sig = res.rgs.signature
    bodies = []
    for sym, g in res.rgs.rec.items():
        lab = [(vertex(sym, v), lbl) for v, lbl in g.lab.items()]
        args = [(vertex(sym, v), tuple(vertex(sym, w) for w in ws)) for v, ws in g.args.items()]
        bodies.append((sym, lab, args, vertex(sym, g.root)))
    return print_rgs(res.rgs), res.cuts, list(sig.atomic.items()), list(sig.nested.items()), bodies


def _drop_copy_prefix(sym, v):
    """A vertex ``<sym>/<v>`` of the reference unfolding's body ``sym`` as
    the vertex ``v`` it copies; one-to-one within each body."""
    assert v.startswith(sym + "/"), (sym, v)
    return v[len(sym) + 1:]


def test_unfold_equals_the_reference_unfolding():
    from conftest import DATA, load_rgs
    from oracles import reference_unfold

    rng = random.Random(157)
    specs = [load_rgs(p.name) for p in sorted(DATA.glob("*.rgs"))]
    specs += [fanout_family(k) for k in (2, 4)]
    for _ in range(25):
        specs += [random_ntg(rng), random_acyclic_rgs(rng), random_cyclic_rgs(rng)]
    specs += [unroll_twice(r) for r in specs[-6:]]
    specs += [_with_unreachable_vertices(r) for r in specs[::3]]
    cut = 0
    for r in specs:
        for depth in (None, 0, 1, 2, 3):
            ours = _unfolding(unfold_to_ntg, r, depth)
            assert ours == _unfolding(reference_unfold, r, depth, _drop_copy_prefix)
            cut += len(ours) > 2 and ours[1] > 0
    assert cut > 100


def _single_def(body):
    return Rgs(NtgSignature({"c": 0}, {"r": 0}, "r"), {"r": body})


def test_validate_duplicate_input_index():
    sig = NtgSignature({"c": 0}, {"r": 0, "f": 1}, "r")
    f_body = make_graph("o", {
        "o": (Output(), ["p"]),
        "p": (Atomic("c", 0), []),
    })
    # two vertices claiming input index 1
    f_bad = TermGraph(
        {"o": Output(), "p": Atomic("c", 0), "x": Input(1), "y": Input(1)},
        {"o": ("p",), "p": (), "x": (), "y": ()},
        "o",
    )
    r = Rgs(sig, {"r": make_graph("o", {"o": (Output(), ["q"]), "q": (Nested("f", 1), ["k"]), "k": (Atomic("c", 0), [])}), "f": f_bad})
    messages = [v.message for v in validate_rgs(r)]
    assert any("duplicate input index 1" in m for m in messages)
    assert any("unreachable" in m for m in messages)


def test_validate_output_not_at_root():
    bad = TermGraph(
        {"a": Atomic("c", 0), "b": Output()},
        {"a": (), "b": ("a",)},
        "a",
    )
    problems = validate_rgs(_single_def(bad))
    assert any("output vertex is not the body root" in v.message for v in problems)


def test_validate_missing_output():
    bad = TermGraph({"a": Atomic("c", 0)}, {"a": ()}, "a")
    problems = validate_rgs(_single_def(bad))
    assert any("0 output vertices" in v.message for v in problems)


def test_validate_rejects_edge_into_output():
    bad = make_graph("o", {
        "o": (Output(), ["p"]),
        "p": (Atomic("u", 1), ["o"]),
    })
    r = Rgs(NtgSignature({"u": 1}, {"r": 0}, "r"), {"r": bad})
    assert any("edge into the output vertex" in v.message for v in validate_rgs(r))


def test_dependency_steps_r0(fix_r0):
    deps = dependency_ars(fix_r0)
    assert [(s.source, s.target) for s in deps.steps] == [
        ("s0", "f2"),
        ("s0", "f2"),
        ("s0", "g"),
    ]


def test_dependency_steps_r1(fix_r1):
    deps = dependency_ars(fix_r1)
    assert sorted((s.source, s.target) for s in deps.steps) == [("f", "g"), ("g", "g")]


def test_dependency_steps_n(fix_n):
    deps = dependency_ars(fix_n)
    assert sorted((s.source, s.target) for s in deps.steps) == [
        ("n", "f1"),
        ("n", "f2"),
        ("n", "g"),
    ]


def test_dependency_steps_are_slotted_values():
    from dataclasses import FrozenInstanceError

    from ntg import DepStep

    step = DepStep("n", "x", "f")
    assert step == DepStep("n", "x", "f") != DepStep("n", "y", "f")
    assert hash(step) == hash(DepStep("n", "x", "f"))
    assert not hasattr(step, "__dict__")
    for name in ("source", "vertex", "target"):
        with pytest.raises(FrozenInstanceError):
            setattr(step, name, "g")
        with pytest.raises(FrozenInstanceError):
            delattr(step, name)
    # a name that is not a field has no slot; Python 3.10 and 3.11 raise
    # TypeError there from the frozen __setattr__ of a slotted class
    with pytest.raises((FrozenInstanceError, TypeError)):
        step.other = "g"
    assert (step.source, step.vertex, step.target) == ("n", "x", "f")


def test_is_ntg_classification(fix_n, fix_r0, fix_r1):
    assert is_ntg(fix_n).ok
    r0_res = is_ntg(fix_r0)
    assert not r0_res.ok
    assert isinstance(r0_res.defect, CoDetViolation)
    assert r0_res.defect.symbol == "f2"
    assert {s.source for s in r0_res.defect.steps} == {"s0"}
    r1_res = is_ntg(fix_r1)
    assert not r1_res.ok
    assert isinstance(r1_res.defect, Cycle)
    assert r1_res.defect.path == ("g", "g")


def test_is_ntg_unreachable_symbol(fix_triv):
    sig = NtgSignature({"c": 0}, {"r": 0, "lost": 0}, "r")
    lost_body = make_graph("o", {"o": (Output(), ["b"]), "b": (Atomic("c", 0), [])})
    r = Rgs(sig, {"r": fix_triv.rec["r"], "lost": lost_body})
    assert validate_rgs(r) == []  # the validator stays permissive
    res = is_ntg(r)
    assert not res.ok and isinstance(res.defect, UnreachableSymbol)
    assert res.defect.symbol == "lost"


def test_unfold_fixpoint_on_tree(fix_n):
    res = unfold_to_ntg(fix_n)
    assert res.cuts == 0
    assert ntg_isomorphic(fix_n, res.rgs) is not None


def test_unfold_duplicates_shared_definition(fix_r0):
    res = unfold_to_ntg(fix_r0)
    assert res.cuts == 0
    assert len(res.rgs.signature.nested) == 4  # root, two copies, one g
    assert is_ntg(Rgs(res.rgs.signature, res.rgs.rec)).ok  # checked here, not given by the unfolding
    copies = [s for s in res.rgs.signature.nested if s.startswith("f2@")]
    assert len(copies) == 2
    assert ntg_isomorphic(res.rgs, unfold_to_ntg(res.rgs).rgs) is not None


def test_unfolded_copies_share_no_dict_with_their_source(fix_n, fix_r0, fix_r1):
    # each copy keeps its body's vertex names in maps of its own, also
    # where nothing in it is relabelled
    rng = random.Random(29)
    specs = [(fix_n, None), (fix_r0, None), (fix_r1, 2), (fanout_family(3), None)]
    specs += [(random_acyclic_rgs(rng), None) for _ in range(10)]
    for r, depth in specs:
        res = unfold_to_ntg(r, depth)
        maps = [m for body in r.rec.values() for m in (body.lab, body.args)]
        maps += [m for body in res.rgs.rec.values() for m in (body.lab, body.args)]
        assert len({id(m) for m in maps}) == len(maps)
        for sym, copy in res.rgs.rec.items():
            body = r.rec[sym.partition("@")[0]]
            assert copy.root == body.root and set(copy.lab) <= set(body.lab)


def test_unfolding_results_equal_those_checked_from_scratch():
    # an unfolding without cuts of a valid specification is given its walks,
    # violations and is_ntg answer; a cut one, or one of an invalid
    # specification, is checked from scratch, and all must agree with a
    # fresh object built from the same signature and bodies
    from generators import random_ungrounded_ntg

    rng = random.Random(211)
    seen = dict(given=0, cut=0, invalid_source=0, missing_input=0)
    for _ in range(60):
        for make in (random_ntg, random_ungrounded_ntg, random_acyclic_rgs, random_cyclic_rgs):
            r = make(rng)
            if rng.random() < 0.25:
                r = break_body(rng, r)
            for depth in (None, 0, 1, 2, 3, 6):
                try:
                    res = unfold_to_ntg(r, depth)
                except MissingDepthError:
                    continue
                except ValueError as e:  # an occurrence of an undeclared symbol has no body to copy
                    assert str(e) == f"invalid specification: {validate_rgs(r)[0]}"
                    continue
                u = res.rgs
                seen["given"] += "_violations" in vars(u)
                fresh = Rgs(u.signature, u.rec)
                assert u._walks == fresh._walks
                assert validate_rgs(u) == validate_rgs(fresh)
                assert is_ntg(u) == is_ntg(fresh)
                seen["cut"] += res.truncated
                seen["invalid_source"] += bool(validate_rgs(r))
                seen["missing_input"] += any("missing input vertex" in v.message for v in validate_rgs(u))
    # 710, 507, 234 and 124
    assert seen["given"] > 600 and seen["cut"] > 400 and seen["invalid_source"] > 200
    assert seen["missing_input"] > 100


def test_no_unfolded_copy_is_checked_from_scratch(monkeypatch):
    # ntg_bisimilar's tree-shape guard reads what the unfolding was given;
    # only the two sources are checked, by the unfoldings, and the witness,
    # by the self-check that asserts run
    import ntg.rgs
    from ntg import ntg_bisimilar

    checked = []
    check_bodies = ntg.rgs._check_bodies

    def counted(r):
        checked.append(r)
        return check_bodies(r)

    a, b = fanout_family(4), fanout_family(4, "x")
    monkeypatch.setattr(ntg.rgs, "_check_bodies", counted)
    ua, ub = unfold_to_ntg(a).rgs, unfold_to_ntg(b).rgs
    assert ntg_bisimilar(ua, ub) is not None
    assert not any(r is ua or r is ub for r in checked)
    assert checked[0] is a and checked[1] is b and len(checked) == (3 if __debug__ else 2)


def test_unfold_refuses_an_occurrence_of_an_undeclared_symbol():
    # the unfolding raises the ValueError of the other entry points, not a
    # KeyError, where it would copy a body that is not there; a cut one
    # copies nothing
    body = make_graph("x", {"x": (Output(), ["y"]), "y": (Nested("zz", 0), [])})
    r = Rgs(NtgSignature({}, {"r": 0}, "r"), {"r": body})
    with pytest.raises(ValueError, match=r"^invalid specification: r\.y: unknown nested symbol 'zz'$"):
        unfold_to_ntg(r)
    assert unfold_to_ntg(r, 0).truncated


def test_unfold_cyclic_needs_depth(fix_r1):
    with pytest.raises(MissingDepthError):
        unfold_to_ntg(fix_r1)


def test_unfold_rejects_negative_depth(fix_r0, fix_r1):
    for r in (fix_r0, fix_r1):
        with pytest.raises(ValueError, match="negative"):
            unfold_to_ntg(r, -1)
    assert unfold_to_ntg(fix_r1, 0).cuts == 1


def test_unfold_cyclic_truncates(fix_r1):
    res = unfold_to_ntg(fix_r1, depth=3)
    assert res.truncated and res.cuts == 1
    assert sorted(res.rgs.signature.nested) == ["f", "g@1", "g@2", "g@3"]
    cut_vertices = [
        v
        for body in res.rgs.rec.values()
        for v, lbl in body.lab.items()
        if isinstance(lbl, Atomic) and lbl.name == CUT_SYMBOL
    ]
    assert len(cut_vertices) == 1


def test_unfold_path_count_matches_dependency_paths():
    rng = random.Random(23)
    for _ in range(20):
        r = random_acyclic_rgs(rng)
        res = unfold_to_ntg(r)
        deps = dependency_ars(r)

        def paths(sym):
            return 1 + sum(paths(step.target) for step in deps.steps_from(sym))

        assert len(res.rgs.signature.nested) == paths(r.root_symbol)
        assert is_ntg(res.rgs).ok


def test_minimal_self_bisimulation_trivial(fix_triv):
    rel = nested_bisim(fix_triv, fix_triv).relation
    assert rel.exact and len(rel) == 2
    for cfg in rel.configs:
        assert cfg.left_stack == cfg.right_stack == ()
        assert cfg.left == cfg.right


def test_minimal_self_bisimulation_diagonal_with_bounded_depth(fix_n):
    rel = nested_bisim(fix_n, fix_n).relation
    assert rel.exact
    assert rel.max_stack_depth() <= 2
    for cfg in rel.configs:
        assert cfg.left == cfg.right and cfg.left_stack == cfg.right_stack


def test_minimal_self_bisimulation_r0_shares_body_states(fix_r0):
    rel = nested_bisim(fix_r0, fix_r0).relation
    stacks = {
        cfg.left_stack
        for cfg in rel.configs
        if cfg.left_stack and cfg.left[0] == "f2"
    }
    # the two occurrences of the shared definition visit the same body
    # vertices under two different stacks
    assert len(stacks) == 2


def test_stack_depth_bounded_by_dependency_height():
    rng = random.Random(29)
    for _ in range(15):
        n = random_ntg(rng)
        rel = nested_bisim(n, n).relation
        assert rel.max_stack_depth() <= dependency_height(n)


def _nesting(d: int, sym: str, vx: str) -> Rgs:
    """``sym``0 calls ``sym``1 on a constant, each ``sym``i passes its input
    on to ``sym``i+1, and ``sym``d applies ``s`` to it: nesting depth d."""
    rec = {f"{sym}0": make_graph("o", {
        "o": (Output(), ["a"]), "a": (Nested(f"{sym}1", 1), [vx]), vx: (Atomic("c", 0), []),
    })}
    for i in range(1, d + 1):
        inner = (Nested(f"{sym}{i + 1}", 1) if i < d else Atomic("s", 1), [vx])
        rec[f"{sym}{i}"] = make_graph("o", {"o": (Output(), ["a"]), "a": inner, vx: (Input(1), [])})
    nested = {f"{sym}{i}": 1 for i in range(1, d + 1)}
    nested[f"{sym}0"] = 0
    return Rgs(NtgSignature({"c": 0, "s": 1}, nested, f"{sym}0"), rec)


def test_deep_nesting_needs_no_recursion():
    # d = 1500 is beyond the default recursion limit for one frame per level
    n, m = _nesting(1500, "e", "x"), _nesting(1500, "f", "y")
    assert dependency_height(n) == 1500
    iso = ntg_isomorphic(n, m)
    assert iso is not None
    assert iso.symbol_map["e1500"] == "f1500"
    assert ntg_isomorphic(n, _nesting(1499, "f", "y")) is None


# ---------------------------------------------------------------------------
# Check results kept on the specification
# ---------------------------------------------------------------------------


def test_validate_rgs_returns_a_fresh_list(fix_n):
    bad = _single_def(TermGraph({"a": Atomic("c", 0), "b": Output()}, {"a": (), "b": ("a",)}, "a"))
    for r in (fix_n, bad):
        first = validate_rgs(r)
        expected = list(first)
        first.append(Violation(None, None, "appended by the caller"))
        assert validate_rgs(r) == expected
        assert validate_rgs(r) is not validate_rgs(r)
    assert validate_rgs(bad)


_VERDICTS = r"""
import pathlib, sys
from ntg import *
from generators import depth_family, random_ntg
import random

data = pathlib.Path(sys.argv[1])
specs = [parse_rgs(p.read_text()) for p in sorted(data.glob("*.rgs"))]
rng = random.Random(5)
specs += [random_ntg(rng) for _ in range(6)] + [depth_family(4)]
derived = []
for r in specs:
    if is_ntg(r).ok:
        derived += [ntg_collapse(r), sntg_to_ntg(ntg_to_sntg(r)), represent(interpret(r))]
    else:
        derived.append(unfold_to_ntg(r, depth=2).rgs)
for r in specs + derived:
    print([str(v) for v in validate_rgs(r)], is_ntg(r), len(dependency_ars(r).steps))
    print(nested_bisim(r, specs[0]).verdict, nested_hom(r, r).verdict)
"""


def test_check_results_do_not_depend_on_asserts():
    here = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))

    def run(*flags):
        proc = subprocess.run([sys.executable, *flags, "-c", _VERDICTS, str(here / "data")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    asserting, optimized = run(), run("-O")
    assert asserting.count("\n") > 20
    assert asserting == optimized


def test_each_specification_is_checked_once(monkeypatch):
    import ntg.rgs
    from ntg import interpret, ntg_collapse, ntg_to_sntg, parse_rgs, print_rgs
    from generators import depth_family

    text = print_rgs(depth_family(12))
    checked = []
    body_check = ntg.rgs._check_bodies

    def spy(r):
        checked.append(r)
        return body_check(r)

    monkeypatch.setattr(ntg.rgs, "_check_bodies", spy)
    r = parse_rgs(text)
    assert validate_rgs(r) == []
    ntg_to_sntg(r)
    interpret(r)
    shared = ntg_collapse(r)
    ntg_to_sntg(r)
    interpret(shared)
    # the parsed specification and the collapse's self-checked result
    assert sum(x is r for x in checked) == 1
    assert len({id(x) for x in checked}) == len(checked)
    # the collapse's result checks itself under asserts; under -O, its
    # flattening checks it
    assert sum(x is shared for x in checked) == 1


def _tied_names():
    """A body whose vertices ``1`` and ``"1"``, and ``2`` and ``"2"``,
    print alike and break conditions side by side."""
    body = TermGraph(
        {"o": Output(), "c": Atomic("c", 0), 1: Input(1), "1": Input(1), 2: Atomic("f", 1),
         "2": Foreign(0)},
        {"o": ("c",), "c": (), 1: (), "1": (), 2: ("o",), "2": ()},
        "o",
    )
    return Rgs(NtgSignature({"c": 0, "f": 1}, {"r": 0}, "r"), {"r": body})


def _check_corpus(seed):
    """Specifications from the data files, random tree-shaped, shared and
    cyclic ones and their unfoldings, and three chained body mutants of
    each, all built fresh."""
    from conftest import DATA, load_rgs

    rng = random.Random(seed)
    specs = [load_rgs(p.name) for p in sorted(DATA.glob("*.rgs"))] + [_tied_names()]
    for _ in range(40):
        specs += [random_ntg(rng), random_acyclic_rgs(rng), random_cyclic_rgs(rng)]
        specs += [unfold_to_ntg(r, 2 if k == 2 else None).rgs for k, r in enumerate(specs[-3:])]
    mutants = []
    for r in specs:
        for _ in range(3):
            r = break_body(rng, r)
            mutants.append(r)
    return specs + mutants


def test_body_checks_equal_the_sorted_reference():
    from oracles import reference_check_bodies

    kinds = set()
    for r in _check_corpus(173):
        ours = validate_rgs(r)
        assert ours == reference_check_bodies(r)
        kinds.update(re.sub(r"'[^']*'|\d+", "#", v.message) for v in ours)
    assert kinds == {
        "body has # output vertices, expected #",
        "output vertex is not the body root",
        "unknown atomic symbol #",
        "atomic symbol # used at wrong arity",
        "unknown nested symbol #",
        "nested symbol # used at wrong arity",
        "duplicate input index #",
        "input index # exceeds arity #",
        "label foreign is not allowed in a body",
        "missing input vertex for index #",
        "body vertex unreachable from the output vertex",
        "edge into the output vertex",
    }


def test_dependency_checks_equal_the_reference():
    from oracles import reference_decide_ntg, reference_dependency_steps

    defects = set()
    for r in _check_corpus(179):
        deps = reference_dependency_steps(r)
        assert dependency_ars(r) == deps
        res = is_ntg(r)
        assert res == reference_decide_ntg(r, deps)
        defects.add(type(res.defect))
    assert defects == {type(None), Cycle, CoDetViolation, UnreachableSymbol}


def test_accepting_checks_run_no_diagnosis(monkeypatch):
    # validate_rgs and is_ntg accept with one scan and one walk per body:
    # neither the reachability helpers nor the cycle search may run
    import ntg.rgs

    rng = random.Random(181)
    trees = [random_ntg(rng) for _ in range(20)]
    shared = [random_acyclic_rgs(rng) for _ in range(20)]
    unfolded = [unfold_to_ntg(r).rgs for r in trees + shared]
    calls = []
    for name in ("reachable", "check_root_connected", "_find_cycle"):
        def counted(*args, _name=name, _f=getattr(ntg.rgs, name, None)):
            calls.append(_name)
            return _f(*args)

        # ``raising=False``: the module need not import the helper at all
        monkeypatch.setattr(ntg.rgs, name, counted, raising=False)
    for r in trees + unfolded:
        fresh = Rgs(r.signature, r.rec)  # no check result cached yet
        assert validate_rgs(fresh) == [] and is_ntg(fresh).ok
        assert calls == []
    for r in shared:  # is_ntg rejects most of them, and only then diagnoses
        assert validate_rgs(Rgs(r.signature, r.rec)) == []
        assert calls == []
    assert sum(not is_ntg(r).ok for r in shared) >= 5


@pytest.mark.parametrize("case, symbols", [
    ("root-called-once", ["f@1", "f@2"]),
    ("root-called-twice", ["f@1", "f@2", "f@3"]),
    ("atomic", ["r", "f@2", "f@3"]),
])
def test_unfolded_copies_pass_over_the_root_and_atomic_symbols(case, symbols):
    # a bare counter named a copy f@1 after the root symbol or an atomic
    # symbol: the root body was overwritten, or the signature refused
    from conftest import COPY_NAME_CLASHES
    from ntg import cross_check_theorems, parse_rgs

    a = parse_rgs(COPY_NAME_CLASHES[case])
    u = unfold_to_ntg(a).rgs
    assert validate_rgs(u) == [] and is_ntg(u).ok
    assert list(u.signature.nested) == symbols and u.root_symbol == a.root_symbol
    assert nested_bisim(a, u).bisimilar
    assert cross_check_theorems(a, a).all_agree and cross_check_theorems(a, u).all_agree


def test_dependency_height_refuses_cycles(fix_r1):
    with pytest.raises(ValueError, match=r"^cyclic dependencies have no height: cycle g ~> g$"):
        dependency_height(fix_r1)
    rng = random.Random(191)
    for _ in range(40):
        with pytest.raises(ValueError, match="cycle"):
            dependency_height(random_cyclic_rgs(rng))


def test_dependency_height_is_the_longest_path():
    rng = random.Random(193)
    specs = [fanout_family(5)] + [f(rng) for _ in range(60) for f in (random_ntg, random_acyclic_rgs)]
    for r in specs:
        steps = dependency_ars(r).steps

        def longest(sym):  # every path from sym, enumerated
            return max((1 + longest(s.target) for s in steps if s.source == sym), default=0)

        assert dependency_height(r) == longest(r.root_symbol)


def test_generated_names_equal_the_counters_they_replace(monkeypatch):
    # the one namer gives the witnesses, sntg_to_ntg and the read-back the
    # names their own loops gave (unfold_to_ntg is checked against the
    # reference unfolding above)
    import ntg.equivalence
    import ntg.sntg
    from conftest import DATA, load_rgs
    from ntg import (
        interpret, ntg_collapse, ntg_to_sntg, parse_rgs, print_rgs, represent, sntg_bisimilar, sntg_to_ntg,
    )
    from oracles import reference_scope_names, reference_uniquify
    from generators import random_ungrounded_ntg

    rng = random.Random(197)
    specs = [load_rgs(p.name) for p in sorted(DATA.glob("*.rgs"))]
    # scopes read back are named d1 and d3, passing over the atomic d0 and d2
    specs.append(parse_rgs(
        "atomic d0/0, d2/1;\nroot r;\ndef r/0 { o: out(a); a: d2(x); x: f; }\ndef f/0 { o: out(k); k: d0; }\n"
    ))
    specs += [f(rng) for _ in range(200) for f in (random_ntg, random_ungrounded_ntg, random_acyclic_rgs)]
    acyclic = [r for r in specs if not isinstance(is_ntg(r).defect, Cycle)]
    trees = [r if is_ntg(r).ok else unfold_to_ntg(r).rgs for r in acyclic]
    pairs = [(n, ntg_collapse(n)) for n in trees]  # bisimilar, so each pair has a witness
    assert len(pairs) > 600

    def names():
        out = []
        for n, m in pairs:
            w = nested_bisim(n, m).witness
            s = sntg_bisimilar(ntg_to_sntg(n), ntg_to_sntg(m))
            out += [print_rgs(w.witness), sorted(w.proj_left.items()), sorted(s.tg.lab.items())]
            out.append(print_rgs(sntg_to_ntg(ntg_to_sntg(n))))
        return out

    for n in trees:
        for r in (represent(interpret(n)), ntg_collapse(n)):
            assert list(r.signature.nested) == reference_scope_names(len(r.rec), r.signature.atomic)
    ours = names()
    for module in (ntg.equivalence, ntg.sntg):
        monkeypatch.setattr(module, "_uniquify", reference_uniquify)
    assert names() == ours
