"""Seeded input families for the benchmark, written as specification text.

Every family builds a small document model (atomic signature, root symbol,
definitions as vertex lines) and renders it with seeded vertex names,
definition order and line order, so the library only ever sees the text.
Each family also returns the answers known by construction that the
workloads check against: vertex counts of the collapse, planted verdicts,
expected exit codes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Def:
    name: str
    arity: int
    # vertex -> (label text, successor vertices); the label text is "out",
    # "in k", an atomic symbol or a defined symbol
    verts: Dict[str, Tuple[str, List[str]]] = field(default_factory=dict)

    def add(self, vid: str, label: str, *succ: str) -> str:
        self.verts[vid] = (label, list(succ))
        return vid


@dataclass
class Doc:
    atomic: Dict[str, int]
    root: str
    defs: List[Def]

    def vertices(self) -> int:
        return sum(len(d.verts) for d in self.defs)

    def by_name(self) -> Dict[str, Def]:
        return {d.name: d for d in self.defs}


def render(doc: Doc, rng: random.Random) -> str:
    """Document text with seeded vertex names, definition and line order."""
    sig = ", ".join(f"{a}/{ar}" for a, ar in sorted(doc.atomic.items()))
    out = [f"atomic {sig};", f"root {doc.root};"]
    defs = list(doc.defs)
    rng.shuffle(defs)
    for d in defs:
        ids = list(d.verts)
        perm = rng.sample(range(len(ids)), len(ids))
        name = {v: f"w{perm[i]}" for i, v in enumerate(ids)}
        rng.shuffle(ids)
        out.append(f"def {d.name}/{d.arity} {{")
        for v in ids:
            label, succ = d.verts[v]
            tail = "(" + ", ".join(name[w] for w in succ) + ")" if succ else ""
            out.append(f"  {name[v]}: {label}{tail};")
        out.append("}")
    return "\n".join(out) + "\n"


def renamed(doc: Doc, suffix: str) -> Doc:
    """The same specification with every defined symbol renamed."""
    names = {d.name: d.name + suffix for d in doc.defs}
    defs = []
    for d in doc.defs:
        nd = Def(names[d.name], d.arity)
        for v, (label, succ) in d.verts.items():
            nd.add(v, names.get(label, label), *succ)
        defs.append(nd)
    return Doc(dict(doc.atomic), names[doc.root], defs)


def relabel(doc: Doc, sym: str, vertex: str, label: str) -> Doc:
    """A copy in which one vertex of one definition carries another label."""
    defs = []
    for d in doc.defs:
        nd = Def(d.name, d.arity, dict(d.verts))
        if d.name == sym:
            nd.verts[vertex] = (label, d.verts[vertex][1])
        defs.append(nd)
    return Doc(dict(doc.atomic), doc.root, defs)


def constants(doc: Doc) -> List[Tuple[str, str]]:
    """(definition, vertex) of every constant, in document order."""
    return [
        (d.name, v)
        for d in doc.defs
        for v, (label, _) in d.verts.items()
        if doc.atomic.get(label) == 0
    ]


def unfolded(doc: Doc) -> Doc:
    """One definition per access path from the root symbol.

    Written independently of the library's unfolding: it is the positive
    partner of a shared specification, bisimilar to it by construction.
    Only for acyclic documents.
    """
    byname = doc.by_name()
    defs: List[Def] = []
    count = [0]

    def copy(sym: str) -> str:
        src = byname[sym]
        new = f"{sym}_u{count[0]}"
        count[0] += 1
        nd = Def(new, src.arity)
        defs.append(nd)
        for v, (label, succ) in src.verts.items():
            nd.add(v, copy(label) if label in byname else label, *succ)
        return new

    root = copy(doc.root)
    return Doc(dict(doc.atomic), root, defs)


def log_uniform_sizes(count: int, lo: int, hi: int) -> List[int]:
    """``count`` sizes log-uniform on [lo, hi]: the midpoints of equal
    probability strata, rounded.  The grid is the same for every seed, so
    the seed changes the documents and the job order but not the sizes,
    and the percentiles of a run do not jump with the seed."""
    span = math.log(hi) - math.log(lo)
    return [int(round(math.exp(math.log(lo) + span * (i + 0.5) / count))) for i in range(count)]


# ---------------------------------------------------------------------------
# flat-chains: one definition, two unary chains under a binary root
# ---------------------------------------------------------------------------


def chain_doc(n: int, unary: str, last: Tuple[str, str] = ("c", "c")) -> Doc:
    """``pair(s^n(c), s^n(c))`` in one nullary definition; ``last`` gives
    the constants ending the first and second chain."""
    d = Def("r", 0)
    d.add("o", "out", "p")
    d.add("p", "pair", "x0", "y0")
    for side, const in zip("xy", last):
        for i in range(n):
            d.add(f"{side}{i}", unary, f"{side}{i + 1}")
        d.add(f"{side}{n}", const)
    return Doc({"pair": 2, unary: 1, "c": 0, "z": 0}, "r", [d])


@dataclass
class ChainCase:
    text: str  # the specification
    copy: str  # a renamed copy, bisimilar
    variant: str  # last constant of the second chain a fresh atom
    vertices: int  # input vertices over the three documents
    flat_collapse: int  # vertices of tg_collapse(interpret(spec))
    ntg_collapse: int  # body vertices of ntg_collapse(spec)


def chain_case(rng: random.Random, n: int) -> ChainCase:
    unary = rng.choice(["s", "succ", "next", "u"])
    doc = chain_doc(n, unary)
    var = chain_doc(n, unary, ("c", "z"))
    # out_r, pair, one shared chain, its constant and the root link
    return ChainCase(
        render(doc, rng),
        render(renamed(doc, "_copy"), rng),
        render(var, rng),
        3 * doc.vertices(),
        n + 4,
        n + 3,
    )


# ---------------------------------------------------------------------------
# deep-nesting: e_i calls e_{i+1} with a constant and its own input
# ---------------------------------------------------------------------------


def depth_doc(d: int) -> Doc:
    """Nesting depth ``d``.  Every scope but the innermost holds two copies
    of the constant ``c``; the collapse merges exactly those, one vertex
    per scope, and nothing else (the inputs of one scope denote constants
    of different levels, whose exit chains differ in length)."""
    e0 = Def("e0", 0)
    e0.add("o", "out", "a")
    e0.add("a", "q", "b", "kd", "m")
    e0.add("b", "e1", "k", "m")
    e0.add("k", "c")
    e0.add("kd", "c")
    e0.add("m", "d")
    defs = [e0]
    for i in range(1, d + 1):
        e = Def(f"e{i}", 2)
        e.add("o", "out", "a")
        if i < d:
            e.add("a", "q", "b", "x2", "kd")
            e.add("b", f"e{i + 1}", "k", "x1")
            e.add("k", "c")
            e.add("kd", "c")
        else:
            e.add("a", "p", "x1", "x2")
        e.add("x1", "in 1")
        e.add("x2", "in 2")
        defs.append(e)
    return Doc({"c": 0, "d": 0, "p": 2, "q": 3, "z": 0}, "e0", defs)


@dataclass
class DepthCase:
    d: int
    text: str
    vertices: int
    ntg_collapse: int  # body vertices of ntg_collapse(spec)


def depth_case(rng: random.Random, d: int) -> DepthCase:
    doc = depth_doc(d)
    assert doc.vertices() == 7 * d + 3
    return DepthCase(d, render(doc, rng), doc.vertices(), 6 * d + 3)


# ---------------------------------------------------------------------------
# shared-recursion: decider queries with a planted verdict
# ---------------------------------------------------------------------------


def fanout_doc(k: int) -> Doc:
    """``d_i`` calls ``d_{i+1}`` twice, once passing its own input and once
    a constant: 2^k access paths to the innermost definition."""
    defs = []
    for i in range(k + 1):
        dd = Def(f"d{i}", 0 if i == 0 else 1)
        dd.add("o", "out", "a")
        if i < k:
            dd.add("a", "g", "x", "y")
            dd.add("x", f"d{i + 1}", "i1" if i else "m")
            dd.add("y", f"d{i + 1}", "kk")
            dd.add("kk", "c")
            if i == 0:
                dd.add("m", "c2")
            else:
                dd.add("i1", "in 1")
        else:
            dd.add("a", "h", "i1")
            dd.add("i1", "in 1")
        defs.append(dd)
    return Doc({"g": 2, "h": 1, "c": 0, "c2": 0, "z": 0}, "d0", defs)


def unfolded_size(doc: Doc) -> int:
    """Definitions in the unfolding: access paths from the root symbol."""
    byname = doc.by_name()
    memo: Dict[str, int] = {}

    def below(sym: str) -> int:
        if sym not in memo:
            memo[sym] = 1 + sum(below(label) for label, _ in byname[sym].verts.values()
                                if label in byname)
        return memo[sym]

    return below(doc.root)


def random_shared_doc(rng: random.Random, count: int) -> Doc:
    """A random acyclic specification in which later definitions are used
    once or twice by earlier ones.  Every body holds a constant, so
    a negative partner can always be planted.  Drawn again until its
    unfolding has between 2 and 3 definitions per symbol, so that the cost
    of a query depends on ``count`` and hardly on the seed."""
    for _ in range(100):
        doc = _random_shared_draw(rng, count)
        if 2 * count <= unfolded_size(doc) <= 3 * count:
            break
    return doc


def _random_shared_draw(rng: random.Random, count: int) -> Doc:
    atoms = {"b0": 2, "b1": 2, "u0": 1, "ca": 0, "cb": 0, "z": 0}
    arity = {f"s{i}": (0 if i == 0 else rng.randrange(0, 3)) for i in range(count)}
    uses: Dict[str, List[str]] = {s: [] for s in arity}
    for i in range(1, count):
        # the last definition is always used twice, so the result is shared
        for _ in range(2 if i == count - 1 else rng.randrange(1, 3)):
            uses[f"s{rng.randrange(0, i)}"].append(f"s{i}")
    defs = []
    for sym, ar in arity.items():
        dd = Def(sym, ar)
        fresh = [0]

        def new(label, *succ):
            fresh[0] += 1
            return dd.add(f"n{fresh[0]}", label, *succ)

        inputs = [dd.add(f"i{j}", f"in {j}") for j in range(1, ar + 1)]
        leaves = [new(rng.choice(["ca", "cb"]))]
        for child in uses[sym]:
            args = [rng.choice(inputs) if inputs and rng.random() < 0.5 else new(rng.choice(["ca", "cb"]))
                    for _ in range(arity[child])]
            leaves.append(new(child, *args))
        pool = leaves + inputs
        rng.shuffle(pool)
        while len(pool) > 1 or rng.random() < 0.3:
            if len(pool) > 1 and rng.random() < 0.8:
                x, y = pool.pop(), pool.pop()
                pool.insert(rng.randrange(len(pool) + 1), new(rng.choice(["b0", "b1"]), x, y))
            else:
                pool.append(new("u0", pool.pop()))
        dd.add("o", "out", pool[0])
        defs.append(dd)
    return Doc(atoms, "s0", defs)


def cyclic_doc(length: int) -> Doc:
    """Mutual recursion in the style of ``tests/data/r1.rgs``: ``f`` calls
    ``g1``, and ``g_i`` calls ``g_{i+1}``, the last one ``g1`` again."""
    f = Def("f", 0)
    f.add("o", "out", "l")
    f.add("l", "lam", "go")
    f.add("go", "g1", "w")
    f.add("w", "v")
    defs = [f]
    for i in range(1, length + 1):
        g = Def(f"g{i}", 1)
        g.add("o", "out", "l")
        g.add("l", "lam", "a")
        g.add("a", "app", "go", "x")
        g.add("go", f"g{i % length + 1}", "w")
        g.add("w", "v")
        g.add("x", "in 1")
        defs.append(g)
    return Doc({"lam": 1, "app": 2, "v": 0, "z": 0}, "f", defs)


@dataclass
class Query:
    positive: bool
    left: str
    right: str
    vertices: int
    depth: int | None  # bound for cyclic inputs, None when exact


def query(rng: random.Random, kind: str, positive: bool, size: int, unfold: bool) -> Query:
    """One decider query.  Positive partners are the specification's own
    unfolding (``unfold``, acyclic kinds only) or a renamed copy; negative
    ones change one constant to the fresh atom ``z``.  Every constant is
    reachable from the root pair, so the clash is always found (for cyclic
    inputs within ``depth``)."""
    depth = None
    if kind == "fanout":
        doc = fanout_doc(size)
    elif kind == "shared":
        doc = random_shared_doc(rng, size)
    else:
        doc = cyclic_doc(size)
        depth = 2 * size + 2
    if positive:
        partner = unfolded(doc) if unfold and kind != "cyclic" else renamed(doc, "_b")
    else:
        sym, v = rng.choice(constants(doc))
        partner = relabel(doc, sym, v, "z")
    return Query(positive, render(doc, rng), render(partner, rng),
                 doc.vertices() + partner.vertices(), depth)


# ---------------------------------------------------------------------------
# cli-files: invalid documents for the validate subcommand
# ---------------------------------------------------------------------------


def invalid_doc(d: int) -> Doc:
    """A depth document whose innermost definition repeats input index 1."""
    doc = depth_doc(d)
    doc.by_name()[f"e{d}"].verts["x2"] = ("in 1", [])
    return doc
