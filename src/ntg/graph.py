"""Rooted term graphs with ordered successors, and their basic theory.

A term graph is a rooted directed graph whose vertices carry labels and
whose outgoing edges form an ordered sequence matching the label arity.
This module provides reachability, sub-graphs, homomorphism (functional
bisimulation), bisimilarity, the bisimulation collapse, and isomorphism.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

Vertex = str


@dataclass(frozen=True)
class TermGraph:
    """An immutable rooted term graph.

    ``lab`` maps each vertex to its label, ``args`` to the ordered tuple of
    successor vertices (one per argument position), and ``root`` names the
    distinguished root vertex.  Arity mismatches and dangling successor
    references are rejected at construction time.
    """

    lab: Mapping[Vertex, object]
    args: Mapping[Vertex, Tuple[Vertex, ...]]
    root: Vertex

    def __post_init__(self):
        lab = dict(self.lab)
        args = {v: tuple(ws) for v, ws in self.args.items()}
        object.__setattr__(self, "lab", lab)
        object.__setattr__(self, "args", args)
        if self.root not in lab:
            raise ValueError(f"root {self.root!r} is not a vertex")
        if set(args) != set(lab):
            extra = set(args) ^ set(lab)
            raise ValueError(f"lab/args domains differ at {sorted(map(str, extra))}")
        for v, ws in args.items():
            if len(ws) != lab[v].arity:
                raise ValueError(
                    f"vertex {v!r} has {len(ws)} successors but label "
                    f"{lab[v]} has arity {lab[v].arity}"
                )
            for w in ws:
                if w not in lab:
                    raise ValueError(f"vertex {v!r} has unknown successor {w!r}")

    @classmethod
    def _prechecked(cls, lab: dict, args: dict, root: Vertex) -> "TermGraph":
        """A graph over dicts that the caller built for it alone and has
        already checked as ``__post_init__`` does (the root, one domain,
        arities, successors, successor tuples): kept without a copy or a
        second check."""
        g = object.__new__(cls)
        object.__setattr__(g, "lab", lab)
        object.__setattr__(g, "args", args)
        object.__setattr__(g, "root", root)
        return g

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        return tuple(self.lab)

    def __len__(self):
        return len(self.lab)


def make_graph(root: Vertex, spec: Mapping[Vertex, tuple]) -> TermGraph:
    """Convenience constructor: ``spec`` maps vertex -> (label, successors)."""
    lab = {v: s[0] for v, s in spec.items()}
    args = {v: tuple(s[1]) for v, s in spec.items()}
    return TermGraph(lab, args, root)


def reachable(g: TermGraph, start: Vertex) -> list:
    """Vertices reachable from ``start`` in breadth-first order."""
    if start not in g.lab:
        raise KeyError(f"unknown vertex {start!r}")
    seen = {start}
    order = [start]
    for v in order:  # the queue: a list read on while it grows
        for w in g.args[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def sub_term_graph(g: TermGraph, v: Vertex) -> TermGraph:
    """The root-connected term graph induced by the vertices reachable from v."""
    keep = reachable(g, v)
    return TermGraph({u: g.lab[u] for u in keep}, {u: g.args[u] for u in keep}, v)


def check_root_connected(g: TermGraph) -> Optional[Vertex]:
    """None when every vertex is reachable from the root, else one witness."""
    order = reachable(g, g.root)
    if len(order) < len(g.lab):  # else the walk reached every vertex
        seen = set(order)
        return next(v for v in g.lab if v not in seen)
    return None


def _ancestor_chains(inner: Mapping[Vertex, Optional[Vertex]]) -> Dict[Vertex, Tuple[Vertex, ...]]:
    """Each vertex's ancestor chain, outermost first, from the acyclic map
    ``inner`` of innermost ancestors (None at the top level); the vertices
    below one letter share one tuple."""
    below: Dict[Optional[Vertex], Tuple[Vertex, ...]] = {None: ()}  # letter -> chain below it
    for x in inner.values():
        path = []
        while x not in below:
            path.append(x)
            x = inner[x]
        for x in reversed(path):
            below[x] = below[inner[x]] + (x,)
    return {v: below[x] for v, x in inner.items()}


def _label_of(g: TermGraph, w) -> Optional[object]:
    """The label of ``w``, which may be any object, in ``g``; None when it
    is not a vertex of ``g``."""
    try:
        return g.lab.get(w)
    except TypeError:  # unhashable
        return None


@dataclass(frozen=True)
class HomConflict:
    """First obstruction met while propagating a homomorphism candidate."""

    left: Vertex
    right: Vertex
    reason: str


def tg_hom_explained(g1: TermGraph, g2: TermGraph):
    """Search the unique root-to-root homomorphism g1 -> g2.

    Successor sequences are ordered, so the image of every vertex is forced
    by propagation from the root pair; the map is unique if it exists.
    Returns ``(mapping, None)`` on success and ``(None, conflict)`` with the
    first conflicting pair in breadth-first discovery order otherwise.
    """
    phi: Dict[Vertex, Vertex] = {}
    queue = deque([(g1.root, g2.root)])
    while queue:
        v, w = queue.popleft()
        if v in phi:
            if phi[v] != w:
                return None, HomConflict(v, w, f"already mapped to {phi[v]!r}")
            continue
        if g1.lab[v] != g2.lab[w]:
            return None, HomConflict(v, w, f"label {g1.lab[v]} vs {g2.lab[w]}")
        phi[v] = w
        queue.extend(zip(g1.args[v], g2.args[w]))
    bad = verify_tg_hom(g1, g2, phi)
    if bad is not None:
        return None, HomConflict(bad[0], phi.get(bad[0], g2.root), bad[1])
    return phi, None


def tg_hom(g1: TermGraph, g2: TermGraph) -> Optional[Dict[Vertex, Vertex]]:
    return tg_hom_explained(g1, g2)[0]


def verify_tg_hom(g1, g2, phi) -> Optional[tuple]:
    """Re-check a homomorphism witness; None when valid, else (vertex, why)
    for the first vertex at fault.  A vertex missing from ``phi``, also
    as a successor, and an image that is not a vertex of ``g2``, whatever
    object it is, are reported, not looked up."""
    if phi.get(g1.root) != g2.root:
        return g1.root, "root not mapped to root"
    for v in g1.lab:
        w = phi.get(v)
        if w is None:
            return v, "map is not total"
        l2 = _label_of(g2, w)
        if l2 is None:
            return v, "image is not a vertex of the target"
        if g1.lab[v] != l2:
            return v, "label not preserved"
        if tuple(phi.get(x) for x in g1.args[v]) != g2.args[w]:
            missing = [x for x in g1.args[v] if x not in phi]
            return (missing[0], "map is not total") if missing else (v, "arguments not preserved")
    return None


def _refine(lab: Mapping, args: Mapping) -> Dict[Vertex, Vertex]:
    """Coarsest partition in which block-mates agree on their label and on
    the blocks of their successors, position by position.

    ``args`` may list more vertices than the label's arity: ``ntg_collapse``
    refines the carrier of a specification (``firstorder._carrier``) with
    each vertex's innermost enclosing output vertex appended.

    Splitter-worklist refinement with the "process the smaller half" rule
    (Hopcroft 1971; Paige and Tarjan 1987; Valmari and Lehtinen 2008).  The
    vertices are indexed once, with a predecessor list that records the
    position of each incoming edge.  The start partition groups equal
    labels (by hash and ``==``) with equally long sequences, and every
    start block but the largest is queued: each position is defined on a
    union of start blocks, so stability against the largest follows from
    the others.  A
    splitter block S taken off the worklist marks every vertex u with the
    set of positions at which u has a successor in S, and every block
    holding marked vertices is split by that set.  If the split block is
    already queued, all its new parts are queued; otherwise all parts but
    the largest.  A vertex therefore lies in at most log2(n) + 1 processed
    splitters, so the refinement takes O(m log n) time for n vertices and
    m successor entries.

    Returns the map from each vertex to its block representative.  Blocks
    are named once at the end by their least member under ``key=str``, so
    the output is reproducible and equals that of round-by-round (Moore)
    refinement, which reaches the same coarsest partition.
    """
    verts = list(lab)
    index = {v: i for i, v in enumerate(verts)}
    preds: list = [[] for _ in verts]  # (position bit, predecessor) per vertex
    blocks: list = []  # block number -> set of vertex indices
    block_of: list = []
    start: Dict[tuple, int] = {}
    for u, v in enumerate(verts):
        bit = 1
        for w in args[v]:
            preds[index[w]].append((bit, u))
            bit <<= 1
        b = start.setdefault((lab[v], len(args[v])), len(blocks))
        if b == len(blocks):
            blocks.append(set())
        blocks[b].add(u)
        block_of.append(b)

    largest = max(range(len(blocks)), key=lambda b: len(blocks[b]), default=-1)
    queued = [b != largest for b in range(len(blocks))]
    queue = [b for b in range(len(blocks)) if b != largest]
    while queue:
        s = queue.pop()
        queued[s] = False
        marks: Dict[int, int] = {}
        for w in blocks[s]:
            for bit, u in preds[w]:
                marks[u] = marks.get(u, 0) | bit
        touched: Dict[int, dict] = {}
        for u, mask in marks.items():
            touched.setdefault(block_of[u], {}).setdefault(mask, []).append(u)
        for x, by_mask in touched.items():
            members = blocks[x]
            parts = sorted(by_mask.values(), key=len)
            if sum(map(len, parts)) == len(members):
                parts.pop()  # the largest part keeps the block's number
            if not parts:
                continue
            new = []
            for part in parts:
                members.difference_update(part)
                new.append(len(blocks))
                blocks.append(set(part))
                queued.append(False)
                for u in part:
                    block_of[u] = new[-1]
            if not queued[x] and len(members) < len(parts[-1]):
                new[-1] = x  # queue the rest of x instead of the largest part
            for b in new:
                queued[b] = True
                queue.append(b)

    groups: Dict[int, list] = {}
    for u, v in enumerate(verts):
        groups.setdefault(block_of[u], []).append(v)
    rep: Dict[Vertex, Vertex] = {}
    for members in groups.values():
        name = min(members, key=str)
        for v in members:
            rep[v] = name
    return rep


def _quotient(g: TermGraph, block: Mapping[Vertex, Vertex]) -> TermGraph:
    """The graph on the block representatives, with successors mapped:
    consistent by construction, so built without a second check."""
    reps = sorted(set(block.values()), key=str)
    lab = {r: g.lab[r] for r in reps}
    args = {r: tuple(block[w] for w in g.args[r]) for r in reps}
    return TermGraph._prechecked(lab, args, block[g.root])


def tg_collapse(g: TermGraph):
    """Maximally shared form of ``g`` plus the quotient map onto it.

    The collapse is the quotient by the coarsest stable refinement of the
    label partition, computed by ``_refine`` in O(m log n) time for n
    vertices and m edges.  It is the least homomorphic image: the quotient
    map is a homomorphism and the result is minimal up to isomorphism.
    """
    block = _refine(g.lab, g.args)
    return _quotient(g, block), block


def _first_clash(g1: TermGraph, g2: TermGraph) -> Optional[Tuple[int, ...]]:
    """None when the two roots are bisimilar, else a replayable
    counterexample: the argument positions of a path that leads from both
    roots to two vertices with different labels.

    Successors are ordered, so term graphs are deterministic and the pair
    closure of Hopcroft and Karp ("A linear algorithm for testing
    equivalence of finite automata", 1971) decides bisimilarity: start
    from the root pair, check each popped pair's labels, and push a pair
    of successors only when union-find has not yet put them in one
    class.  The classes form a bisimulation up to equivalence (Bonchi and
    Pous, POPL 2013), so a pair whose class is already joined needs no
    visit.  Each push joins two classes, so at most n1 + n2 - 1 pairs are
    visited, and with union by size and path halving (a one-pass path
    compression) the closure takes O(m·α(n)) time for the m successor
    entries the roots reach.  It stops at the first label clash, and it
    never recurses.

    Pairs are visited breadth-first, each with the pair and the position
    it was pushed from, so the counterexample is read back from the clash.
    """
    lab1, args1, lab2, args2 = g1.lab, g1.args, g2.lab, g2.args
    # union-find nodes: the vertices of each side, numbered on first sight;
    # a class representative is its own parent
    num1, num2 = {g1.root: 0}, {g2.root: 1}
    parent, size = [0, 0], [2, 0]

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    left, right = [g1.root], [g2.root]  # the pushed pairs, in visiting order
    from_pair, from_pos = [0], [0]  # where each pair was pushed from
    i = 0
    while i < len(left):
        v, w = left[i], right[i]
        l1, l2 = lab1[v], lab2[w]
        if l1 is not l2 and not l1 == l2:  # `!=` would reach __eq__ via __ne__
            path = []
            while i:
                path.append(from_pos[i])
                i = from_pair[i]
            return tuple(reversed(path))
        k = 0  # the argument position, counted by hand: enumerate costs more
        for x, y in zip(args1[v], args2[w]):
            a = num1.get(x)
            if a is None:
                a = num1[x] = len(parent)
                parent.append(a)
                size.append(1)
            elif parent[a] != a:
                a = find(a)
            b = num2.get(y)
            if b is None:
                b = num2[y] = len(parent)
                parent.append(b)
                size.append(1)
            elif parent[b] != b:
                b = find(b)
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                left.append(x)
                right.append(y)
                from_pair.append(i)
                from_pos.append(k)
            k += 1
        i += 1
    return None


# Both entry points call the closure directly, so that per-function
# timings book its work under the one called.
def tg_bisimilar_explained(g1: TermGraph, g2: TermGraph) -> Optional[Tuple[int, ...]]:
    """None when the two roots are bisimilar, else the argument positions
    of a path from both roots to two vertices with different labels
    (see ``_first_clash``)."""
    return _first_clash(g1, g2)


def tg_bisimilar(g1: TermGraph, g2: TermGraph) -> bool:
    """True when the two roots are bisimilar; decided by the pair closure
    ``_first_clash`` in O(m·α(n)) time, stopping at the first clash."""
    return _first_clash(g1, g2) is None


def tg_isomorphic(g1: TermGraph, g2: TermGraph) -> Optional[Dict[Vertex, Vertex]]:
    """The unique root-preserving isomorphism, or None.

    An isomorphism is a homomorphism that is a bijection, and successors
    are ordered, so it is the map of ``tg_hom_explained`` when that map is
    a bijection onto the vertices of ``g2``: one propagation and one
    check, linear in the graphs; graphs of different sizes are told apart
    before it.
    """
    if len(g1) != len(g2):
        return None
    phi = tg_hom_explained(g1, g2)[0]
    if phi is None or len(set(phi.values())) != len(g2):
        return None
    return phi
