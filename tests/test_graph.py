import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntg import (
    Atomic,
    TermGraph,
    check_root_connected,
    make_graph,
    reachable,
    sub_term_graph,
    tg_bisimilar,
    tg_bisimilar_explained,
    tg_collapse,
    tg_hom,
    tg_hom_explained,
    tg_isomorphic,
    verify_tg_hom,
)
from generators import chain_spec, mutate_ntg, random_ntg, random_quotient
from ntg.firstorder import interpret
from ntg.graph import _refine
from oracles import (
    backtracking_tg_hom,
    brute_force_tg_hom,
    disjoint_union,
    gfp_bisimilar,
    gfp_collapse_graph,
    moore_refine,
    reference_tg_isomorphic,
    refine_bisimilar,
)

a0 = Atomic("a", 0)
b0 = Atomic("b", 0)
f2 = Atomic("f", 2)
u1 = Atomic("u", 1)
v1 = Atomic("v", 1)


def graph_tree_fcc():
    return make_graph("r", {"r": (f2, ["x", "y"]), "x": (a0, []), "y": (a0, [])})


def graph_shared_fcc():
    return make_graph("r", {"r": (f2, ["x", "x"]), "x": (a0, [])})


def test_construction_rejects_bad_arity():
    with pytest.raises(ValueError):
        make_graph("r", {"r": (f2, ["r"])})


def test_construction_rejects_dangling_successor():
    with pytest.raises(ValueError):
        make_graph("r", {"r": (u1, ["ghost"])})


def test_sub_term_graph_identity_at_root():
    g = graph_tree_fcc()
    assert set(sub_term_graph(g, g.root).lab) == set(g.lab)


def test_sub_term_graph_at_leaf():
    g = make_graph("r", {"r": (u1, ["x"]), "x": (a0, [])})
    sub = sub_term_graph(g, "x")
    assert list(sub.lab) == ["x"] and sub.root == "x"


def test_sub_term_graph_keeps_cycles():
    # value computed with the reachability oracle: from the back-edge
    # vertex of the f2 body everything but the output and lam is reachable
    g = make_graph("o", {
        "o": (Atomic("o!", 1), ["l"]), "l": (u1, ["c1"]),
        "c1": (f2, ["c2", "c3"]), "c2": (f2, ["x1", "w1"]),
        "c3": (f2, ["c4", "c1"]), "c4": (f2, ["x2", "w2"]),
        "x1": (a0, []), "x2": (a0, []), "w1": (a0, []), "w2": (a0, []),
    })
    sub = sub_term_graph(g, "c3")
    assert set(sub.lab) == {"c3", "c4", "c1", "c2", "x1", "x2", "w1", "w2"}
    assert check_root_connected(sub) is None


def test_root_connected_witness():
    g = TermGraph({"r": a0, "island": a0}, {"r": (), "island": ()}, "r")
    assert check_root_connected(g) == "island"
    assert check_root_connected(graph_tree_fcc()) is None


def test_hom_identity():
    g = graph_tree_fcc()
    assert tg_hom(g, g) == {v: v for v in g.lab}


def test_hom_merges_but_never_splits():
    tree, shared = graph_tree_fcc(), graph_shared_fcc()
    phi = tg_hom(tree, shared)
    assert phi == {"r": "r", "x": "x", "y": "x"}
    # oracle agrees that no homomorphism exists in the other direction
    assert tg_hom(shared, tree) is None
    assert brute_force_tg_hom(shared, tree) is None


def test_hom_conflict_reports_label_clash():
    g1 = make_graph("r", {"r": (a0, [])})
    g2 = make_graph("r", {"r": (b0, [])})
    phi, conflict = tg_hom_explained(g1, g2)
    assert phi is None and conflict.reason.startswith("label")


def test_verify_tg_hom_reports_partial_maps_and_foreign_images():
    g = make_graph("a", {"a": (u1, ["b"]), "b": (a0, [])})
    assert verify_tg_hom(g, g, {"a": "a"}) == ("b", "map is not total")
    # the image of the first vertex listed in lab is looked at first
    h = make_graph("b", {"a": (u1, ["b"]), "b": (v1, ["a"])})
    for image in ["zz", ["x"], ("b",)]:
        assert verify_tg_hom(h, h, {"b": "b", "a": image}) == ("a", "image is not a vertex of the target")
    # every report the check gave before stays
    assert verify_tg_hom(g, g, {"a": "a", "b": "b"}) is None
    assert verify_tg_hom(g, g, {"a": "b", "b": "b"}) == ("a", "root not mapped to root")
    assert verify_tg_hom(g, g, {"a": "a", "b": "a"}) == ("a", "arguments not preserved")


def test_collapse_already_minimal():
    g = graph_shared_fcc()
    collapsed, q = tg_collapse(g)
    assert len(collapsed) == len(g)
    assert len(set(q.values())) == len(g)


def test_collapse_merges_equal_constants():
    collapsed, q = tg_collapse(graph_tree_fcc())
    assert len(collapsed) == 2  # value from the gfp oracle
    assert q["x"] == q["y"]


def test_collapse_cycle_of_two():
    g = make_graph("p", {"p": (u1, ["q"]), "q": (u1, ["p"])})
    collapsed, _ = tg_collapse(g)
    assert len(collapsed) == 1
    assert collapsed.args[collapsed.root] == (collapsed.root,)


def test_collapse_agrees_with_gfp_oracle_on_samples():
    rng = random.Random(7)
    for _ in range(25):
        g = interpret(random_ntg(rng))
        collapsed, q = tg_collapse(g)
        oracle = gfp_collapse_graph(g)
        assert tg_isomorphic(collapsed, oracle) is not None
        assert verify_tg_hom(g, collapsed, q) is None


def test_collapse_idempotent_and_hom_onto():
    rng = random.Random(11)
    for _ in range(15):
        g = interpret(random_ntg(rng))
        collapsed, q = tg_collapse(g)
        again, _ = tg_collapse(collapsed)
        assert tg_isomorphic(collapsed, again) is not None
        assert tg_hom(g, collapsed) == q


def test_refine_equals_moore_reference_on_flattenings():
    rng = random.Random(17)
    for _ in range(40):
        n = random_ntg(rng)
        g = interpret(n)
        assert _refine(g.lab, g.args) == moore_refine(g.lab, g.args)
        lab, args, _, _ = disjoint_union(g, interpret(mutate_ntg(rng, n)))
        assert _refine(lab, args) == moore_refine(lab, args)


def test_refine_equals_moore_reference_on_cycles():
    g = make_graph("p", {"p": (u1, ["q"]), "q": (u1, ["p"])})
    assert _refine(g.lab, g.args) == moore_refine(g.lab, g.args) == {"p": "p", "q": "p"}
    rng = random.Random(19)
    quotients = 0
    while quotients < 20:
        found = random_quotient(rng, interpret(random_ntg(rng)))
        if found is not None:
            q = found[0]
            assert _refine(q.lab, q.args) == moore_refine(q.lab, q.args)
            quotients += 1
    for _ in range(60):
        lab, args = _random_cyclic(rng)
        assert _refine(lab, args) == moore_refine(lab, args)


def _random_shaped(rng, shape, max_vertices=30):
    """Labels and successors of a random graph of one ``shape``:
    "acyclic" (every edge leads to a later vertex), "cut" (acyclic once
    the edges into the vertices with a label of their own are cut),
    "partly cyclic" (a few edges lead anywhere) or "cyclic" (every edge
    leads anywhere).  Each vertex gets a fresh label object, equal to
    the others of its name and arity, and a successor may repeat at two
    positions."""
    vs = [f"v{j}" for j in range(rng.randint(1, max_vertices))]
    own = set(rng.sample(vs, min(3, len(vs)))) if shape == "cut" else set()
    lab, args = {}, {}
    for j, v in enumerate(vs):
        later = vs[j + 1:]
        arity = rng.randint(0, 3) if later or shape != "acyclic" else 0
        succ = []
        for _ in range(arity):
            anywhere = shape == "cyclic" or (shape == "partly cyclic" and rng.random() < 0.1)
            pool = vs if anywhere or not later else later
            if shape == "cut" and own and rng.random() < 0.3:
                pool = sorted(own)
            succ.append(succ[-1] if succ and rng.random() < 0.2 else rng.choice(pool))
        if shape == "cut" and not later:
            succ = [rng.choice(sorted(own)) for _ in succ]
        lab[v] = Atomic(f"s{j}" if v in own else rng.choice("ab"), len(succ))
        args[v] = tuple(succ)
    return lab, args


def test_refine_equals_moore_reference_on_settled_and_cyclic_graphs(monkeypatch):
    # the vertices whose successors settle are classed by hashing; only
    # what a cycle keeps back reaches the splitter worklist
    from ntg import graph

    split, splits = graph._split, Counter()
    monkeypatch.setattr(graph, "_split", lambda *a: (splits.update([shape]), split(*a)))
    rng = random.Random(23)
    merged = Counter()
    for shape in ["acyclic", "cut", "partly cyclic", "cyclic"] * 100:
        lab, args = _random_shaped(rng, shape)
        block = _refine(lab, args)
        assert block == moore_refine(lab, args)
        merged[shape] += len(set(block.values())) < len(block)
        # one label object shared by vertices with sequences of other lengths
        names = {v: lbl.name for v, lbl in lab.items()}
        assert _refine(names, args) == moore_refine(names, args)
    assert not splits["acyclic"] and not splits["cut"]
    assert splits["partly cyclic"] >= 30 and splits["cyclic"] >= 50  # 48 and 78, each counted twice
    assert min(merged.values()) >= 50  # 71 to 81 graphs of each shape merge some vertices


def _random_cyclic(rng, max_vertices=25):
    """Labels and successors of a random graph, cycles and unreachable
    vertices allowed."""
    vs = [f"v{j}" for j in range(rng.randint(1, max_vertices))]
    lab = {v: rng.choice([a0, b0, u1, v1, f2]) for v in vs}
    args = {v: tuple(rng.choice(vs) for _ in range(lab[v].arity)) for v in vs}
    return lab, args


def test_collapse_long_chain():
    # naive round-by-round refinement needs n rounds here
    n = 2000
    g = interpret(chain_spec(n, "r"))
    collapsed, q = tg_collapse(g)
    # out_r, pair, one shared chain with its constant, and the root link
    assert len(collapsed) == n + 4
    assert verify_tg_hom(g, collapsed, q) is None
    assert tg_bisimilar(g, interpret(chain_spec(n, "copy")))


def test_bisimilar_basic():
    tree, shared = graph_tree_fcc(), graph_shared_fcc()
    assert tg_bisimilar(tree, tree)
    assert tg_bisimilar(tree, shared)
    g_cd = make_graph("r", {"r": (f2, ["x", "y"]), "x": (a0, []), "y": (b0, [])})
    assert not tg_bisimilar(tree, g_cd)


def test_bisimilar_equivalence_relation_on_samples():
    rng = random.Random(3)
    gs = [interpret(random_ntg(rng)) for _ in range(6)]
    for g in gs:
        assert tg_bisimilar(g, g)
    for g1 in gs:
        for g2 in gs:
            assert tg_bisimilar(g1, g2) == tg_bisimilar(g2, g1)
    for g1 in gs:
        for g2 in gs:
            for g3 in gs:
                if tg_bisimilar(g1, g2) and tg_bisimilar(g2, g3):
                    assert tg_bisimilar(g1, g3)


def test_bisimilar_agrees_with_gfp_oracle():
    rng = random.Random(5)
    for _ in range(20):
        g1 = interpret(random_ntg(rng))
        g2 = interpret(random_ntg(rng))
        assert tg_bisimilar(g1, g2) == gfp_bisimilar(g1, g2)


def _replay(g1, g2, path):
    """The vertex pair that a counterexample's argument positions lead to."""
    v, w = g1.root, g2.root
    for k in path:
        v, w = g1.args[v][k], g2.args[w][k]
    return v, w


def _renamed(rng, g):
    names = list(g.lab)
    rng.shuffle(names)
    new = {v: f"w{j}" for j, v in enumerate(names)}
    return TermGraph(
        {new[v]: g.lab[v] for v in names},
        {new[v]: tuple(new[w] for w in g.args[v]) for v in names},
        new[g.root],
    )


def _relabeled(rng, g):
    """``g`` with the label of one vertex that the root reaches swapped
    for the other label of its arity; unchanged if the root reaches only
    binary vertices."""
    swap = {a0: b0, b0: a0, u1: v1, v1: u1}
    lab = dict(g.lab)
    candidates = [v for v in reachable(g, g.root) if lab[v] in swap]
    if candidates:
        v = rng.choice(candidates)
        lab[v] = swap[lab[v]]
    return TermGraph(lab, g.args, g.root)


def test_bisimilar_agrees_with_refinement_and_gfp_on_cycles():
    # half the pairs are bisimilar by construction (the collapse, or a
    # renamed copy); the others are a random graph or a one-label change
    rng = random.Random(29)
    positive = 0
    for i in range(2000):
        lab, args = _random_cyclic(rng)
        g1 = TermGraph(lab, args, rng.choice(list(lab)))
        kind = i % 4
        if kind == 0:
            g2 = _renamed(rng, tg_collapse(g1)[0])
        elif kind == 1:
            g2 = _renamed(rng, g1)
        elif kind == 2:
            lab2, args2 = _random_cyclic(rng)
            g2 = TermGraph(lab2, args2, rng.choice(list(lab2)))
        else:
            g2 = _relabeled(rng, _renamed(rng, g1))
        path = tg_bisimilar_explained(g1, g2)
        assert (path is None) == refine_bisimilar(g1, g2) == gfp_bisimilar(g1, g2)
        assert tg_bisimilar(g1, g2) == (path is None) == tg_bisimilar(g2, g1)
        if kind < 2:
            assert path is None
        if path is not None:
            v, w = _replay(g1, g2, path)
            assert g1.lab[v] != g2.lab[w]
        positive += path is None
    assert 900 <= positive <= 1200


def test_bisimilar_on_long_cycles_of_coprime_lengths():
    # the two roots meet every pair of cycle positions, so a closure over
    # pairs would visit about 10**8 of them; union-find visits fewer pairs
    # than the two cycles have vertices
    def cycle(n, odd=None):
        return make_graph("c0", {
            f"c{j}": (v1 if j == odd else u1, [f"c{(j + 1) % n}"]) for j in range(n)
        })

    g1, g2 = cycle(10007), cycle(10009)
    assert tg_bisimilar_explained(g1, g2) is None
    odd = cycle(10009, odd=5000)
    path = tg_bisimilar_explained(g1, odd)
    assert path is not None
    v, w = _replay(g1, odd, path)
    assert g1.lab[v] != odd.lab[w] and w == "c5000"
    assert not refine_bisimilar(g1, odd)


def test_isomorphic_relabeled_copy():
    g = graph_tree_fcc()
    h = make_graph("R", {"R": (f2, ["X", "Y"]), "X": (a0, []), "Y": (a0, [])})
    iso = tg_isomorphic(g, h)
    assert iso == {"r": "R", "x": "X", "y": "Y"}


def test_isomorphic_counts_differ():
    assert tg_isomorphic(graph_tree_fcc(), graph_shared_fcc()) is None


def test_isomorphic_not_fooled_by_argument_order():
    g = make_graph("r", {"r": (f2, ["x", "y"]), "x": (a0, []), "y": (b0, [])})
    h = make_graph("r", {"r": (f2, ["y", "x"]), "x": (a0, []), "y": (b0, [])})
    assert tg_isomorphic(g, h) is None


def test_isomorphic_agrees_with_the_reference_walk_on_cycles():
    # half the graphs are cut down to what their root reaches, so that a
    # renamed copy is isomorphic; the others keep their unreachable
    # vertices, and a collapse, a relabeled copy or a random graph are
    # isomorphic at times
    rng = random.Random(37)
    isomorphic = 0
    for i in range(2000):
        lab, args = _random_cyclic(rng)
        g1 = TermGraph(lab, args, rng.choice(list(lab)))
        if rng.random() < 0.5:
            g1 = sub_term_graph(g1, g1.root)
        kind = i % 4
        if kind == 0:
            g2 = _renamed(rng, g1)
        elif kind == 1:
            g2 = tg_collapse(g1)[0]
        elif kind == 2:
            g2 = _relabeled(rng, _renamed(rng, g1))
        else:
            lab2, args2 = _random_cyclic(rng, max_vertices=4)
            g2 = TermGraph(lab2, args2, rng.choice(list(lab2)))
        for a, b in ((g1, g2), (g2, g1)):
            iso = tg_isomorphic(a, b)
            assert iso == reference_tg_isomorphic(a, b)
            isomorphic += iso is not None
    assert 800 <= isomorphic <= 3200


def test_sub_term_graph_always_root_connected_property():
    rng = random.Random(13)
    for _ in range(10):
        g = interpret(random_ntg(rng))
        for v in sorted(g.lab, key=str):
            assert check_root_connected(sub_term_graph(g, v)) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_hom_agrees_with_brute_force_on_small_graphs(seed):
    rng = random.Random(seed)
    g1 = _small_graph(rng)
    g2 = _small_graph(rng)
    ours = tg_hom(g1, g2)
    oracle = brute_force_tg_hom(g1, g2)
    assert (ours is None) == (oracle is None)
    if ours is not None:
        assert verify_tg_hom(g1, g2, ours) is None


def _small_graph(rng, max_vertices=4):
    n = rng.randrange(1, max_vertices + 1)
    names = [f"v{i}" for i in range(n)]
    pool = [a0, b0, u1, f2]
    lab = {}
    args = {}
    for i, v in enumerate(names):
        lbl = rng.choice(pool if i + 1 < n else [a0, b0])
        lab[v] = lbl
    for i, v in enumerate(names):
        # successors point forward or anywhere, keeping root-connectedness
        # by wiring v_i to v_{i+1} first when possible
        arity = lab[v].arity
        succ = []
        for k in range(arity):
            if k == 0 and i + 1 < n:
                succ.append(names[i + 1])
            else:
                succ.append(rng.choice(names))
        args[v] = tuple(succ)
    g = TermGraph(lab, args, names[0])
    keep = set()
    stack = [g.root]
    while stack:
        v = stack.pop()
        if v in keep:
            continue
        keep.add(v)
        stack.extend(g.args[v])
    return TermGraph(
        {v: lab[v] for v in keep}, {v: args[v] for v in keep}, g.root
    )


def test_backtracking_and_product_brute_force_agree():
    rng = random.Random(17)
    for _ in range(10):
        g1 = _small_graph(rng)
        g2 = _small_graph(rng)
        assert (brute_force_tg_hom(g1, g2) is None) == (
            backtracking_tg_hom(g1, g2) is None
        )


def test_constructor_and_walk_refuse_unknown_vertices():
    from ntg import Atomic, TermGraph
    from ntg.graph import reachable

    c = Atomic("c", 0)
    with pytest.raises(ValueError, match=r"^root 'z' is not a vertex$"):
        TermGraph({"a": c}, {"a": ()}, "z")
    with pytest.raises(ValueError, match=r"^lab/args domains differ at \['b'\]$"):
        TermGraph({"a": c}, {"a": (), "b": ()}, "a")
    with pytest.raises(KeyError, match="unknown vertex 'z'"):
        reachable(TermGraph({"a": c}, {"a": ()}, "a"), "z")
