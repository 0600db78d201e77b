"""Seeded random generators for specifications, mutations and quotients.

All random specifications draw atomic symbols from one shared pool so
that any two generated values have a common atomic signature, which the
comparison operations require.

Bodies are usually kept grounded: every vertex reaches an input vertex,
a constant, or an occurrence with a constant somewhere below it, so the
flattened graphs are fully back-linked.  ``random_ungrounded_ntg`` drops
that filter: its bodies may hold cycles that never exit their scope, and
on some of its flattenings the plain first-order collapse merges such
cycles across scopes and leaves the representing class.
"""

import itertools
import random

from ntg import (
    NtgSignature,
    Rgs,
    TermGraph,
    dependency_ars,
    is_ntg,
    make_graph,
    tg_collapse,
    validate_rgs,
)
from ntg.labels import Atomic, Input, Nested, Output
from ntg.rgs import _find_cycle

ATOM_POOL = {"ca": 0, "cb": 0, "u0": 1, "u1": 1, "b0": 2, "b1": 2, "t0": 3}
CONSTANTS = [name for name, ar in ATOM_POOL.items() if ar == 0]


def _raw_body(rng: random.Random, arity: int, children, extra_budget, back_edges) -> TermGraph:
    labels = {"o": Output()}
    for j in range(1, arity + 1):
        labels[f"i{j}"] = Input(j)
    for k, (child, child_ar) in enumerate(children):
        labels[f"occ{k}"] = Nested(child, child_ar)
    for k in range(rng.randrange(extra_budget + 1)):
        name = rng.choice(sorted(ATOM_POOL))
        labels[f"e{k}"] = Atomic(name, ATOM_POOL[name])
    if len(labels) == 1:
        labels["e0"] = Atomic(rng.choice(CONSTANTS), 0)
    non_root = [v for v in labels if v != "o"]
    filler = 0
    while 1 + sum(labels[v].arity for v in non_root) < len(non_root):
        name = rng.choice(["b0", "b1"])
        labels[f"fill{filler}"] = Atomic(name, ATOM_POOL[name])
        non_root.append(f"fill{filler}")
        filler += 1

    # random spanning arborescence: high-arity vertices first so open
    # slots never run out, then leaves, then close leftover slots
    inner = [v for v in non_root if labels[v].arity > 0]
    leaves = [v for v in non_root if labels[v].arity == 0]
    rng.shuffle(inner)
    rng.shuffle(leaves)
    slots = [("o", 0)]
    chosen = {}
    connected = ["o"]
    for v in inner + leaves:
        pos = rng.randrange(len(slots))
        slot = slots.pop(pos)
        chosen[slot] = v
        connected.append(v)
        for i in range(labels[v].arity):
            slots.append((v, i))
    fresh = 0
    for slot in slots:
        if back_edges:
            chosen[slot] = rng.choice([v for v in connected if v != "o"])
        else:
            name = f"k{fresh}"
            fresh += 1
            labels[name] = Atomic(rng.choice(CONSTANTS), 0)
            chosen[slot] = name

    args = {v: [None] * labels[v].arity for v in labels}
    for (v, i), w in chosen.items():
        args[v][i] = w
    return TermGraph(labels, {v: tuple(ws) for v, ws in args.items()}, "o")


def _grounded(g: TermGraph, const_below) -> bool:
    """Every vertex reaches an input, a constant, or a constant-carrying
    occurrence (reverse reachability from those sources)."""
    sources = []
    rev = {v: [] for v in g.lab}
    for v in g.lab:
        lbl = g.lab[v]
        if isinstance(lbl, Input):
            sources.append(v)
        elif isinstance(lbl, Atomic) and lbl.arity == 0:
            sources.append(v)
        elif isinstance(lbl, Nested) and const_below.get(lbl.name, False):
            sources.append(v)
        for w in g.args[v]:
            rev[w].append(v)
    seen = set(sources)
    stack = list(sources)
    while stack:
        x = stack.pop()
        for p in rev[x]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return len(seen) == len(g.lab)


def _carries_const(g: TermGraph, const_below) -> bool:
    return any(
        (isinstance(lbl, Atomic) and lbl.arity == 0)
        or (isinstance(lbl, Nested) and const_below.get(lbl.name, False))
        for lbl in g.lab.values()
    )


def random_body(rng: random.Random, arity: int, children, extra_budget=5, const_below=None) -> TermGraph:
    """A random grounded body; falls back to a cycle-free build when
    rejection sampling takes too long."""
    const_below = const_below or {}
    for _ in range(20):
        g = _raw_body(rng, arity, children, extra_budget, back_edges=True)
        if _grounded(g, const_below):
            return g
    return _raw_body(rng, arity, children, extra_budget, back_edges=False)


def _finish(rng, names, arities, occurrences, extra_budget=5) -> Rgs:
    """Build bodies bottom-up so constant information is available."""
    rec = {}
    const_below = {}
    for name in reversed(names):
        body = random_body(rng, arities[name], occurrences[name], extra_budget, const_below)
        rec[name] = body
        const_below[name] = _carries_const(body, const_below)
    r = Rgs(NtgSignature(dict(ATOM_POOL), arities, "s0"), {n: rec[n] for n in names})
    assert not validate_rgs(r)
    return r


def _random_tree(rng: random.Random, max_defs, max_arity):
    """Symbol names, arities and occurrences of a random dependency tree."""
    count = rng.randrange(1, max_defs + 1)
    names = [f"s{i}" for i in range(count)]
    arities = {"s0": 0}
    occurrences = {name: [] for name in names}
    for i in range(1, count):
        arities[names[i]] = rng.randrange(0, max_arity + 1)
        par = names[rng.randrange(0, i)]
        occurrences[par].append((names[i], arities[names[i]]))
    return names, arities, occurrences


def random_ntg(rng: random.Random, max_defs=4, max_arity=2, extra_budget=5) -> Rgs:
    """A random grounded tree-shaped specification."""
    r = _finish(rng, *_random_tree(rng, max_defs, max_arity), extra_budget)
    assert is_ntg(r).ok
    return r


def random_ungrounded_ntg(rng: random.Random, max_defs=4, max_arity=2, extra_budget=5) -> Rgs:
    """A random tree-shaped specification whose bodies are not filtered for
    grounding, so cycles that never reach an input or a constant stay."""
    while True:
        names, arities, occurrences = _random_tree(rng, max_defs, max_arity)
        rec = {
            name: _raw_body(rng, arities[name], occurrences[name], extra_budget, back_edges=True)
            for name in names
        }
        r = Rgs(NtgSignature(dict(ATOM_POOL), arities, "s0"), rec)
        if not validate_rgs(r) and is_ntg(r).ok:
            return r


def random_acyclic_rgs(rng: random.Random, max_defs=4, max_arity=2) -> Rgs:
    """A random grounded specification whose dependencies form a DAG,
    possibly with shared symbols (several occurrences of one definition)."""
    count = rng.randrange(1, max_defs + 1)
    names = [f"s{i}" for i in range(count)]
    arities = {"s0": 0}
    occurrences = {name: [] for name in names}
    for i in range(1, count):
        arities[names[i]] = rng.randrange(0, max_arity + 1)
        for _ in range(rng.randrange(1, 3)):
            par = names[rng.randrange(0, i)]
            occurrences[par].append((names[i], arities[names[i]]))
    return _finish(rng, names, arities, occurrences)


def random_cyclic_rgs(rng: random.Random, max_defs=4, max_arity=2, max_back=3) -> Rgs:
    """A random grounded specification with cyclic dependencies: a random
    dependency tree plus 1 to ``max_back`` occurrences that call an
    ancestor of their definition (mutual recursion) or the definition
    itself."""
    names, arities, occurrences = _random_tree(rng, max_defs, max_arity)
    parent = {}
    for sym in names:
        for callee, _ in occurrences[sym]:
            parent[callee] = sym
    for _ in range(rng.randrange(1, max_back + 1)):
        caller = rng.choice(names)
        chain = [caller]
        while chain[-1] in parent:
            chain.append(parent[chain[-1]])
        callee = rng.choice(chain)
        occurrences[caller].append((callee, arities[callee]))
    r = _finish(rng, names, arities, occurrences)
    assert _find_cycle(dependency_ars(r)) is not None
    return r


def unroll_twice(r: Rgs) -> Rgs:
    """Two copies of every definition, each calling into the other copy:
    the same infinite unfolding as ``r`` from twice the definitions."""
    def twin(sym, k):
        return sym if k == 0 else f"{sym}_u"

    sig = r.signature
    rec = {}
    for sym, body in r.rec.items():
        for k in (0, 1):
            lab = {
                v: Nested(twin(lbl.name, 1 - k), lbl.arity) if isinstance(lbl, Nested) else lbl
                for v, lbl in body.lab.items()
            }
            rec[twin(sym, k)] = TermGraph(lab, body.args, body.root)
    nested = {twin(sym, k): ar for sym, ar in sig.nested.items() for k in (0, 1)}
    return Rgs(NtgSignature(dict(sig.atomic), nested, sig.root_symbol), rec)


def relabel(r: Rgs, sym: str, v: str, name: str) -> Rgs:
    """A copy of ``r`` whose vertex ``v`` of definition ``sym`` is the
    constant ``name``."""
    body = r.rec[sym]
    lab = dict(body.lab)
    lab[v] = Atomic(name, 0)
    return Rgs(r.signature, {**r.rec, sym: TermGraph(lab, body.args, body.root)})


def relabel_constant(rng: random.Random, r: Rgs) -> Rgs:
    """A copy of ``r`` with one constant vertex, chosen at random, turned
    into another nullary atomic symbol of ``r``'s signature; ``r`` itself
    when it has no constant vertex.  When the signature has no other
    nullary symbol, a fresh one is added to it."""
    spots = [
        (sym, v)
        for sym in sorted(r.rec)
        for v in sorted(r.rec[sym].lab, key=str)
        if isinstance(r.rec[sym].lab[v], Atomic) and r.rec[sym].lab[v].arity == 0
    ]
    if not spots:
        return r
    sym, v = rng.choice(spots)
    sig = r.signature
    name = r.rec[sym].lab[v].name
    others = [c for c, ar in sig.atomic.items() if ar == 0 and c != name]
    if others:
        return relabel(r, sym, v, rng.choice(others))
    taken = set(sig.atomic) | set(sig.nested)
    fresh = next(f"c{k}" for k in itertools.count() if f"c{k}" not in taken)
    atomic = {**sig.atomic, fresh: 0}
    grown = Rgs(NtgSignature(atomic, dict(sig.nested), sig.root_symbol), r.rec)
    return relabel(grown, sym, v, fresh)


def split_shared_vertex(rng: random.Random, r: Rgs):
    """A copy of ``r`` in which one argument edge into a shared atomic or
    occurrence vertex, chosen at random, goes to a fresh duplicate of that
    vertex; None when no body has such a vertex.

    The two are bisimilar, and a homomorphism maps the copy onto ``r``.
    One maps ``r`` onto the copy only when no run reaches the shared
    vertex, so only functionality tells the two directions apart."""
    edges = {}  # (symbol, vertex) -> argument slots (source, position) into it
    for sym in sorted(r.rec):
        body = r.rec[sym]
        for v in sorted(body.lab, key=str):
            for i, w in enumerate(body.args[v]):
                if isinstance(body.lab[w], (Atomic, Nested)):
                    edges.setdefault((sym, w), []).append((v, i))
    shared = [target for target, slots in edges.items() if len(slots) > 1]
    if not shared:
        return None
    sym, w = rng.choice(shared)
    v, i = rng.choice(edges[(sym, w)])
    body = r.rec[sym]
    copy = f"{w}_split"
    assert copy not in body.lab
    lab = {**body.lab, copy: body.lab[w]}
    args = {**body.args, copy: body.args[w]}
    args[v] = args[v][:i] + (copy,) + args[v][i + 1:]
    split = Rgs(r.signature, {**r.rec, sym: TermGraph(lab, args, body.root)})
    assert not validate_rgs(split)
    return split


def permute_inputs(rng: random.Random, r: Rgs):
    """An isomorphic copy of ``r``: each definition's input indices
    permuted at random, applied to its input labels and to the successor
    order of every occurrence of it, with every vertex renamed.  Returns
    ``(copy, perm)``, ``perm[sym]`` mapping each input index of ``sym`` in
    ``r`` to its index in the copy."""
    perm = {}
    for sym, arity in r.signature.nested.items():
        image = list(range(1, arity + 1))
        rng.shuffle(image)
        perm[sym] = dict(zip(range(1, arity + 1), image))
    rec = {}
    for sym, body in r.rec.items():
        lab, args = {}, {}
        for v, lbl in body.lab.items():
            ws = body.args[v]
            if isinstance(lbl, Input):
                lbl = Input(perm[sym][lbl.index])
            elif isinstance(lbl, Nested):
                moved = [None] * len(ws)
                for i, w in enumerate(ws, 1):
                    moved[perm[lbl.name][i] - 1] = w
                ws = moved
            lab[f"p{v}"], args[f"p{v}"] = lbl, tuple(f"p{w}" for w in ws)
        rec[sym] = TermGraph(lab, args, f"p{body.root}")
    copy = Rgs(r.signature, rec)
    assert not validate_rgs(copy)
    return copy, perm


def mutate_ntg(rng: random.Random, r: Rgs, tries=40) -> Rgs:
    """A near-copy: one label swap, argument swap or edge redirect,
    revalidated so the result is again a tree-shaped specification."""
    for _ in range(tries):
        sym = rng.choice(sorted(r.rec))
        body = r.rec[sym]
        vs = sorted(body.lab, key=str)
        lab = dict(body.lab)
        args = {v: list(body.args[v]) for v in vs}
        kind = rng.randrange(3)
        v = rng.choice(vs)
        if kind == 0:
            if not isinstance(lab[v], Atomic):
                continue
            same_arity = [n for n, a in ATOM_POOL.items() if a == lab[v].arity and n != lab[v].name]
            if not same_arity:
                continue
            lab[v] = Atomic(rng.choice(same_arity), lab[v].arity)
        elif kind == 1:
            if len(args[v]) < 2:
                continue
            i, j = rng.sample(range(len(args[v])), 2)
            args[v][i], args[v][j] = args[v][j], args[v][i]
        else:
            if not args[v]:
                continue
            candidates = [w for w in vs if w != body.root and not isinstance(lab[w], Nested)]
            if not candidates:
                continue
            args[v][rng.randrange(len(args[v]))] = rng.choice(candidates)
        try:
            new_body = TermGraph(lab, {u: tuple(ws) for u, ws in args.items()}, body.root)
            mutated = Rgs(r.signature, {**r.rec, sym: new_body})
        except ValueError:
            continue
        if not validate_rgs(mutated) and is_ntg(mutated).ok:
            return mutated
    return r


class Foreign:
    """A label that no body may carry, at any arity."""

    def __init__(self, arity: int):
        self.arity = arity

    def __str__(self):
        return "foreign"


def break_body(rng: random.Random, r: Rgs) -> Rgs:
    """A copy of ``r`` with one body changed at random so that it may break
    any body condition: a relabelled vertex (unknown or wrong-arity
    symbols, inputs at any index, a second output, a foreign label), an
    added vertex that its output cannot reach (named so that ``1`` and
    ``"1"`` may meet), a redirected edge, or a moved root.  The result
    need not be well formed."""
    sym = rng.choice(sorted(r.rec))
    body = r.rec[sym]
    lab, args, root = dict(body.lab), dict(body.args), body.root
    vs = list(lab)
    v = rng.choice(vs)
    arity = len(args[v])
    op = rng.randrange(8)
    if op == 0:
        lab[v] = Atomic(rng.choice(sorted(ATOM_POOL) + ["zz"]), arity)
    elif op == 1:
        lab[v] = Nested(rng.choice(sorted(r.rec) + ["zz"]), arity)
    elif op == 2 and arity == 0:
        lab[v] = Input(rng.randrange(1, 4))
    elif op == 3 and arity == 1:
        lab[v] = Output()
    elif op == 4:
        lab[v] = Foreign(arity)
    elif op == 5:
        extra = rng.choice([1, "1", 2, "2", "zz"])
        lab[extra], args[extra] = rng.choice(
            [(Input(1), ()), (Atomic("ca", 0), ()), (Atomic("u0", 1), (root,)), (Output(), (v,))]
        )
    elif op == 6 and arity:
        i = rng.randrange(arity)
        args[v] = args[v][:i] + (rng.choice([root] + vs),) + args[v][i + 1:]
    else:
        root = rng.choice(vs)
    return Rgs(r.signature, {**r.rec, sym: TermGraph(lab, args, root)})


def break_structure(rng: random.Random, s):
    """A copy of the structural representation ``s`` with one random
    change that may break any of its conditions: an innermost-ancestor
    pointer moved to the grandparent, to any vertex or to another
    vertex's ancestor, a dropped, added or redirected call or return link,
    a relabelled input, an edge redirected to any vertex or to an output
    vertex, an added vertex, the root put below a vertex taken out of its
    scope, a relabelled root, or a vertex relabelled with a label foreign
    to a body, with an atomic name of the structure at another arity or
    with a reserved atomic name, its successors drawn from its scope.  A
    pointer cycle raises ``ValueError``."""
    from ntg import Sntg
    from ntg.firstorder import FO_INPUT, PrimedConst

    g = s.tg
    lab, args, root = dict(g.lab), dict(g.args), g.root
    call, ret, inner = dict(s.call), dict(s.ret), dict(s.inner)
    vs = list(lab)
    v = rng.choice(vs)
    op = rng.randrange(11)
    if op == 0:
        inner[v] = inner.get(inner[v])  # None stays None
    elif op == 1:
        inner[v] = rng.choice(vs)
    elif op == 2:
        inner[v] = inner[rng.choice(vs)]
    elif op == 3:
        links = rng.choice([call, ret])
        if links:
            del links[rng.choice(sorted(links, key=str))]
    elif op == 4:
        rng.choice([call, ret])[v] = rng.choice(vs)
    elif op == 5 and not args[v]:
        lab[v] = Input(rng.randrange(1, 4))
    elif op == 6 and args[v]:
        i = rng.randrange(len(args[v]))
        outputs = [u for u in vs if isinstance(lab[u], Output)]
        args[v] = args[v][:i] + (rng.choice(rng.choice([vs, outputs])),) + args[v][i + 1:]
    elif op == 7:
        extra = rng.choice(["zz", "x.y"])
        lab[extra], args[extra], inner[extra] = Atomic("ca", 0), (), inner[rng.choice(vs)]
    elif op == 8:  # ``v`` leaves its scope, so that no pointer cycle closes
        inner[v], inner[root] = None, v
    elif op == 9:
        lab[root], args[root] = Atomic("u0", 1), (v,)
    else:
        kind = rng.randrange(3)
        if kind == 0:
            lbl = rng.choice([FO_INPUT, PrimedConst("c")])
        elif kind == 1:
            arity = {x.name: x.arity for x in lab.values() if type(x) is Atomic} or {"ca": 0}
            name = rng.choice(sorted(arity))
            lbl = Atomic(name, rng.choice([k for k in range(4) if k != arity[name]]))
        else:
            lbl = Atomic(rng.choice(["in", "root"]), len(args[v]))
        scope = [u for u in vs if inner[u] == inner[v] and not isinstance(lab[u], Output)] or [v]
        lab[v] = lbl
        if lbl.arity != len(args[v]):
            args[v] = tuple(rng.choice(scope) for _ in range(lbl.arity))
    return Sntg(TermGraph(lab, args, root), call, ret, inner)


def mutate_fo(rng: random.Random, g: TermGraph) -> TermGraph:
    """A first-order graph one or two faults away from ``g``: an edge
    redirected (once or twice), a label swapped for another of the same
    arity (a first-order one or an occurrence label), an island vertex
    added, or the root moved.  The result need not be a member."""
    from ntg.firstorder import FO_INPUT, ROOT_INPUT, ROOT_OUTPUT, PrimedConst

    lab, args, root = dict(g.lab), dict(g.args), g.root
    vs = sorted(lab, key=str)
    kind = rng.randrange(5)
    if kind == 1:
        v = rng.choice(vs)
        same_arity = {
            1: [PrimedConst("ca"), Atomic("u0", 1), Output(), ROOT_OUTPUT, ROOT_INPUT],
            2: [FO_INPUT, Atomic("b0", 2)],
        }.get(len(args[v]), [])
        lab[v] = rng.choice(same_arity + [Nested("q", len(args[v]))])
    elif kind == 2:
        lab["island"] = rng.choice([PrimedConst("ca"), Atomic("u0", 1)])
        args["island"] = (rng.choice(vs),)
    elif kind == 3:
        root = rng.choice(vs)
    else:
        for _ in range(1 + kind // 4):
            v = rng.choice([v for v in vs if args[v]])
            succ = list(args[v])
            succ[rng.randrange(len(succ))] = rng.choice(vs)
            args[v] = tuple(succ)
    return TermGraph(lab, args, root)


def random_quotient(rng: random.Random, g: TermGraph):
    """A proper homomorphic image of ``g``: the smallest stable partition
    identifying one randomly chosen bisimilar pair, built by congruence
    closure; None when ``g`` is already fully collapsed."""
    _, block = tg_collapse(g)
    classes = {}
    for v in sorted(g.lab, key=str):
        classes.setdefault(block[v], []).append(v)
    mergeable = [vs for vs in classes.values() if len(vs) > 1]
    if not mergeable:
        return None
    group = rng.choice(mergeable)
    u, v = rng.sample(group, 2)

    parent = {x: x for x in g.lab}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(u, v)]
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        assert g.lab[ra] == g.lab[rb]
        parent[rb] = ra
        work.extend(zip(g.args[ra], g.args[rb]))

    rep = {x: min((y for y in g.lab if find(y) == find(x)), key=str) for x in g.lab}
    reps = sorted(set(rep.values()), key=str)
    quotient = TermGraph(
        {r: g.lab[r] for r in reps},
        {r: tuple(rep[w] for w in g.args[r]) for r in reps},
        rep[g.root],
    )
    return quotient, rep


def chain_spec(n: int, sym: str) -> Rgs:
    """pair(u^n(c), u^n(c)) in one nullary definition ``sym``."""
    u1 = Atomic("u", 1)
    spec = {"o": (Output(), ["p"]), "p": (Atomic("pair", 2), ["x0", "y0"])}
    for side in "xy":
        for i in range(n):
            spec[f"{side}{i}"] = (u1, [f"{side}{i + 1}"])
        spec[f"{side}{n}"] = (Atomic("c", 0), [])
    return Rgs(NtgSignature({"pair": 2, "u": 1, "c": 0}, {sym: 0}, sym), {sym: make_graph("o", spec)})


def depth_family(d: int) -> Rgs:
    """Nesting depth ``d``: ``e``i calls ``e``i+1 on a constant and on its
    first input, and puts its second input beside the call; ``e``d joins
    its two inputs.  Every scope but the innermost holds two copies of the
    constant ``c``."""
    rec = {"e0": make_graph("o", {
        "o": (Output(), ["a"]),
        "a": (Atomic("q", 3), ["b", "kd", "m"]),
        "b": (Nested("e1", 2), ["k", "m"]),
        "k": (Atomic("c", 0), []),
        "kd": (Atomic("c", 0), []),
        "m": (Atomic("d", 0), []),
    })}
    for i in range(1, d + 1):
        spec = {"o": (Output(), ["a"]), "x1": (Input(1), []), "x2": (Input(2), [])}
        if i < d:
            spec["a"] = (Atomic("q", 3), ["b", "x2", "kd"])
            spec["b"] = (Nested(f"e{i + 1}", 2), ["k", "x1"])
            spec["k"] = (Atomic("c", 0), [])
            spec["kd"] = (Atomic("c", 0), [])
        else:
            spec["a"] = (Atomic("p", 2), ["x1", "x2"])
        rec[f"e{i}"] = make_graph("o", spec)
    nested = {f"e{i}": 2 for i in range(1, d + 1)}
    nested["e0"] = 0
    return Rgs(NtgSignature({"c": 0, "d": 0, "p": 2, "q": 3}, nested, "e0"), rec)


def fanout_family(k: int, suffix: str = "") -> Rgs:
    """``d``i calls ``d``i+1 twice, once on its own input and once on a
    constant: 2^k access paths to the innermost definition ``d``k.
    ``suffix`` renames every defined symbol."""
    rec = {}
    for i in range(k + 1):
        spec = {"o": (Output(), ["a"])}
        if i < k:
            callee = Nested(f"d{i + 1}{suffix}", 1)
            spec["a"] = (Atomic("g", 2), ["x", "y"])
            spec["x"] = (callee, ["i1" if i else "m"])
            spec["y"] = (callee, ["kk"])
            spec["kk"] = (Atomic("c", 0), [])
        else:
            spec["a"] = (Atomic("h", 1), ["i1"])
        if i:
            spec["i1"] = (Input(1), [])
        else:
            spec["m"] = (Atomic("c2", 0), [])
        rec[f"d{i}{suffix}"] = make_graph("o", spec)
    nested = {f"d{i}{suffix}": 1 if i else 0 for i in range(k + 1)}
    return Rgs(NtgSignature({"g": 2, "h": 1, "c": 0, "c2": 0, "z": 0}, nested, f"d0{suffix}"), rec)
