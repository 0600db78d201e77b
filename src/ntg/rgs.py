"""Recursive graph specifications and the nested-term-graph predicate.

A specification maps each nested symbol to a definition body, a term
graph over the atomic symbols plus the interface symbols (one output
vertex at the body root, one input vertex per parameter).  The bodies may
use nested symbols freely; the induced dependency structure decides
whether the specification is a nested term graph (each symbol introduced
by exactly one occurrence, no recursion).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, count, repeat
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .graph import TermGraph, reachable
from .labels import CUT_SYMBOL, Atomic, Input, Nested, Output

_RESERVED = {"o", "out", "in", "out_r", "in_r", "tg", "root", "def", "atomic"}
_RESERVED_RE = re.compile(r"^i_?\d+$")


def symbol_name_ok(name: str) -> bool:
    # only a name that starts with ``i`` can match ``_RESERVED_RE``
    return name not in _RESERVED and not (name[:1] == "i" and _RESERVED_RE.match(name))


def _check_symbol_name(name: str):
    if not symbol_name_ok(name):
        raise ValueError(f"symbol name {name!r} is reserved")


def _flat_names(sym: str, vertices) -> Dict[object, str]:
    """The name ``<sym>.<v>`` of each vertex ``v`` of ``sym``'s body in the
    glued graphs: the structural representation, the flattening and the
    carrier they share."""
    return {v: f"{sym}.{v}" for v in vertices}


def _namer(taken: Iterable[str] = ()) -> Callable[[Iterable[str]], str]:
    """A function that gives each call the first of its (endless) candidate
    names that is clear of ``taken``, of reserved names and of the names it
    gave before; an iterator shared by calls numbers them in one sequence."""
    given = set(taken)

    def name(candidates: Iterable[str]) -> str:
        for c in candidates:
            if c not in given and symbol_name_ok(c):
                given.add(c)
                return c

    return name


def _uniquify(keys, fmt, avoid=()):
    """Deterministic readable names for ``keys``: ``fmt(key)``, primed
    until it is clear of ``avoid``, of reserved names and of the names
    already given."""
    name = _namer(avoid)
    return {key: name(accumulate(repeat("'"), initial=fmt(key))) for key in keys}


@dataclass(frozen=True)
class NtgSignature:
    """Atomic and nested symbol arities plus the distinguished root symbol."""

    atomic: Mapping[str, int]
    nested: Mapping[str, int]
    root_symbol: str

    def __post_init__(self):
        object.__setattr__(self, "atomic", dict(self.atomic))
        object.__setattr__(self, "nested", dict(self.nested))
        overlap = set(self.atomic) & set(self.nested)
        if overlap:
            raise ValueError(f"symbols declared both atomic and nested: {sorted(overlap)}")
        for name, ar in list(self.atomic.items()) + list(self.nested.items()):
            _check_symbol_name(name)
            if ar < 0:
                raise ValueError(f"negative arity for {name!r}")
        if self.root_symbol not in self.nested:
            raise ValueError(f"root symbol {self.root_symbol!r} is not a nested symbol")
        if self.nested[self.root_symbol] != 0:
            raise ValueError("the root symbol must be nullary")


@dataclass(frozen=True)
class Rgs:
    """A specification: signature plus one definition body per nested symbol.

    Immutable.  Each check result (``validate_rgs``, ``dependency_ars``,
    ``is_ntg`` and the flat-name check of the structural conversions) is
    computed on first use and kept on the object it describes, and so is
    the one walk of each body that these checks and the unfolding share.
    A result can instead be given by the construction that built the
    object, where that construction proves it (``_given``):
    ``unfold_to_ntg`` gives an unfolding without cuts of a valid
    specification its walks, its violations and its ``is_ntg`` answer.
    The modules above keep their own results on a specification in the
    same way: the carrier that ``interpret`` and ``ntg_collapse`` share
    and never change (``firstorder._kept_carrier``), and, on a
    specification compared as the left one by the stack-based deciders,
    the summary tables of that comparison (``equivalence._summarize``),
    for the last right specification only, which it refers to weakly.
    """

    signature: NtgSignature
    rec: Mapping[str, TermGraph]

    def __post_init__(self):
        object.__setattr__(self, "rec", dict(self.rec))
        if set(self.rec) != set(self.signature.nested):
            missing = set(self.signature.nested) ^ set(self.rec)
            raise ValueError(f"definitions and nested symbols differ at {sorted(missing)}")

    @property
    def root_symbol(self) -> str:
        return self.signature.root_symbol

    @cached_property
    def _walks(self) -> Dict[str, Tuple[List[str], bool]]:
        # per body: what its root reaches, in the order of ``reachable``
        # (a list is the queue), and whether an edge leads back to the root
        walks = {}
        for sym, body in self.rec.items():
            root, args = body.root, body.args
            seen = {root}
            order = [root]
            into_root = False
            for v in order:
                for w in args[v]:
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
                    elif w == root:
                        into_root = True
            walks[sym] = order, into_root
        return walks

    @cached_property
    def _violations(self) -> Tuple["Violation", ...]:
        return tuple(_check_bodies(self))

    @cached_property
    def _dependencies(self) -> "DependencyArs":
        return _dependency_steps(self)

    @cached_property
    def _ntg(self) -> "NtgResult":
        return _decide_ntg(self, self._dependencies)

    @cached_property
    def _name_clash(self) -> Optional[str]:
        # Two definitions yield one name only if one symbol extends the other
        # by a dot, and two vertices of one body only if one of them is not a
        # ``str`` (``1`` and ``"1"``), so most specifications build no names.
        if not any("." in sym for sym in self.rec) and all(
            set(map(type, body.lab)) == {str} for body in self.rec.values()
        ):
            return None
        owner: Dict[str, Tuple[str, object]] = {}
        for sym, body in self.rec.items():
            for v, name in _flat_names(sym, body.lab).items():
                other = owner.setdefault(name, (sym, v))
                if other[0] != sym:
                    return f"vertex name {name} is ambiguous: definitions {other[0]} and {sym} both yield it"
                if other[1] != v:
                    return f"vertex name {name} is ambiguous: vertices {other[1]!r} and {v!r} of definition {sym}"
        return None


def _given(r: Rgs, walks: Dict[str, Tuple[List[str], bool]]):
    """Keep on ``r`` what the construction that built it has proved, where
    the cached properties keep what they compute: ``walks`` as its body
    walks, no violation and ``is_ntg`` true."""
    r.__dict__.update(_walks=walks, _violations=(), _ntg=NtgResult(True))


@dataclass(frozen=True)
class Violation:
    symbol: Optional[str]
    vertex: Optional[str]
    message: str

    def __str__(self):
        where = self.symbol or "?"
        if self.vertex is not None:
            where += f".{self.vertex}"
        return f"{where}: {self.message}"


def validate_rgs(r: Rgs) -> List[Violation]:
    """Check every body against the specification invariants.

    Returns the empty list when the specification is well formed.  Symbol
    reachability is deliberately not checked here (the parser stays
    permissive); ``is_ntg`` reports unreachable symbols.  The check runs
    once per specification; each call returns a fresh list.  It scans each
    body's labels once and reads the one walk from its root that the
    dependency steps share, in linear time, and sorts only the violations
    found into the report's order: by body, condition, then vertex name.
    """
    return list(r._violations)


def _check_bodies(r: Rgs) -> List[Violation]:
    out: List[Violation] = []
    atomic, nested = r.signature.atomic, r.signature.nested
    for sym in sorted(r.rec):
        body = r.rec[sym]
        lab, args, root = body.lab, body.args, body.root
        arity = nested[sym]
        outputs = []
        bad = []  # (vertex, order at that vertex, message)
        first_input: Dict[int, str] = {}
        repeated = []  # input vertices whose index an earlier vertex has
        for v, lbl in lab.items():
            if isinstance(lbl, Atomic):
                kind, known = "atomic", atomic.get(lbl.name)
            elif isinstance(lbl, Nested):
                kind, known = "nested", nested.get(lbl.name)
            elif isinstance(lbl, Output):
                outputs.append(v)
                continue
            elif isinstance(lbl, Input):
                if first_input.setdefault(lbl.index, v) != v:
                    repeated.append(v)
                if lbl.index > arity:
                    bad.append((v, 1, f"input index {lbl.index} exceeds arity {arity}"))
                continue
            else:
                bad.append((v, 0, f"label {lbl} is not allowed in a body"))
                continue
            if known != lbl.arity:
                why = "unknown {} symbol {!r}" if known is None else "{} symbol {!r} used at wrong arity"
                bad.append((v, 0, why.format(kind, lbl.name)))
        if len(outputs) != 1:
            out.append(Violation(sym, None, f"body has {len(outputs)} output vertices, expected 1"))
        for v in outputs:
            if v != root:
                out.append(Violation(sym, v, "output vertex is not the body root"))
        if bad or repeated:
            pos = {v: k for k, v in enumerate(lab)}
            for v in repeated:  # of two inputs with one index, the later reported is a duplicate
                i = lab[v].index
                first_input[i], dup = sorted((first_input[i], v), key=lambda u: (str(u), pos[u]))
                bad.append((dup, 0, f"duplicate input index {i}"))
            bad.sort(key=lambda e: (str(e[0]), pos[e[0]], e[1]))
            out += [Violation(sym, v, msg) for v, _, msg in bad]
        if len(first_input) != arity or bad:  # else the indices are 1 to arity
            missing = [j for j in range(1, arity + 1) if j not in first_input]
            out += [Violation(sym, None, f"missing input vertex for index {j}") for j in missing]
        reached, into_root = r._walks[sym]
        complete = len(reached) == len(lab)
        if not complete:
            seen = set(reached)
            witness = next(v for v in lab if v not in seen)
            out.append(Violation(sym, witness, "body vertex unreachable from the output vertex"))
        if into_root or not complete or outputs != [root]:
            # Edges into the output vertex have no first-order reading (see the interpretation
            # module).  The walk saw them unless it missed a vertex or another output.
            out_set = set(outputs)
            into = [v for v in lab for w in args[v] if w in out_set]
            out += [Violation(sym, v, "edge into the output vertex") for v in sorted(into, key=str)]
    return out


@dataclass(frozen=True, slots=True)
class DepStep:
    """One dependency step, induced by one occurrence vertex."""

    source: str
    vertex: str
    target: str


@dataclass(frozen=True)
class DependencyArs:
    objects: Tuple[str, ...]
    root: str
    steps: Tuple[DepStep, ...]

    def steps_from(self, sym: str) -> List[DepStep]:
        return list(self._by_source.get(sym, ()))

    @cached_property
    def _walk(self) -> Tuple[Optional[Tuple[str, ...]], Tuple[str, ...]]:
        # the one depth-first walk that finding cycles, the height, the
        # diagnosis of ``is_ntg`` and the unfolding all read
        return _depth_first(self)

    @cached_property
    def _by_source(self) -> Dict[str, List[DepStep]]:
        # built once on first use, so each lookup costs only its own steps
        index: Dict[str, List[DepStep]] = {}
        for step in self.steps:
            index.setdefault(step.source, []).append(step)
        return index


def dependency_ars(r: Rgs) -> DependencyArs:
    """One step per occurrence of a nested-labeled vertex in some body;
    built once per specification, from the walk of each body that
    ``validate_rgs`` also reads."""
    return r._dependencies


def _dependency_steps(r: Rgs) -> DependencyArs:
    steps = []
    for sym in sorted(r.rec):
        lab = r.rec[sym].lab
        for v in r._walks[sym][0]:
            lbl = lab[v]
            if isinstance(lbl, Nested):
                steps.append(DepStep(sym, v, lbl.name))
    return DependencyArs(tuple(sorted(r.signature.nested)), r.root_symbol, tuple(steps))


@dataclass(frozen=True)
class Cycle:
    path: Tuple[str, ...]

    def __str__(self):
        return "cycle " + " ~> ".join(self.path)


@dataclass(frozen=True)
class CoDetViolation:
    symbol: str
    steps: Tuple[DepStep, DepStep]

    def __str__(self):
        a, b = self.steps
        return (
            f"symbol {self.symbol!r} is introduced twice: "
            f"at {a.source}.{a.vertex} and at {b.source}.{b.vertex}"
        )


@dataclass(frozen=True)
class UnreachableSymbol:
    symbol: str

    def __str__(self):
        return f"symbol {self.symbol!r} is unreachable from the root symbol"


@dataclass(frozen=True)
class NtgResult:
    ok: bool
    defect: Optional[Union[Cycle, CoDetViolation, UnreachableSymbol]] = None

    def __bool__(self):
        return self.ok


def _reachable_symbols(deps: DependencyArs) -> List[str]:
    seen = {deps.root}
    order = [deps.root]
    for s in order:
        for step in deps._by_source.get(s, ()):
            if step.target not in seen:
                seen.add(step.target)
                order.append(step.target)
    return order


def _depth_first(deps: DependencyArs) -> Tuple[Optional[Tuple[str, ...]], Tuple[str, ...]]:
    """The depth-first walk of the dependency steps from the root symbol:
    ``(cycle, finished)``, the first cycle met as the path of symbols that
    closes it, or None, and the symbols in the order the walk finished
    them, each after all it depends on (complete only without a cycle).

    The walk keeps its path on an explicit stack, so a back edge to a
    symbol on that stack yields the cycle from that symbol onwards.  It
    runs once per dependency structure: ``DependencyArs._walk`` keeps it.
    """
    by_source = deps._by_source
    on_path = {deps.root}
    done: Dict[str, None] = {}  # the finished symbols, in order
    stack = [(deps.root, iter(by_source.get(deps.root, ())))]
    while stack:
        node, it = stack[-1]
        for step in it:
            nxt = step.target
            if nxt in on_path:
                path = [sym for sym, _ in stack]
                return tuple(path[path.index(nxt):]) + (nxt,), tuple(done)
            if nxt not in done:
                on_path.add(nxt)
                stack.append((nxt, iter(by_source.get(nxt, ()))))
                break
        else:
            on_path.discard(node)
            done[node] = None
            stack.pop()
    return None, tuple(done)


def _find_cycle(deps: DependencyArs) -> Optional[Tuple[str, ...]]:
    """The first dependency cycle of the walk ``_depth_first``, or None."""
    return deps._walk[0]


def is_ntg(r: Rgs) -> NtgResult:
    """Decide whether the dependency structure restricted to the reachable
    symbols is a tree: acyclic, at most one step into each symbol, and all
    declared symbols reachable.  The answer is computed once per
    specification and kept on it, from the one depth-first walk of the
    steps that ``DependencyArs._walk`` keeps, in linear time.  A rejected
    specification is diagnosed by the first defect of: the cycle that walk
    meets, the least symbol that reachable bodies introduce twice, and the
    least declared symbol the walk does not reach."""
    return r._ntg


def _decide_ntg(r: Rgs, deps: DependencyArs) -> NtgResult:
    cycle, finished = deps._walk
    if cycle is not None:
        return NtgResult(False, Cycle(cycle))
    # Without a cycle the walk finished every reachable symbol, and each but
    # the root was entered over a step from another, so a reachable body
    # holds more steps than that only if it introduces some symbol twice.
    if sum(len(deps._by_source.get(s, ())) for s in finished) >= len(finished):
        reached = set(finished)
        incoming: Dict[str, List[DepStep]] = {}
        for step in deps.steps:
            if step.source in reached:
                incoming.setdefault(step.target, []).append(step)
        sym = min(s for s, into in incoming.items() if len(into) > 1)
        return NtgResult(False, CoDetViolation(sym, (incoming[sym][0], incoming[sym][1])))
    unreachable = set(r.signature.nested).difference(finished)
    if unreachable:
        return NtgResult(False, UnreachableSymbol(min(unreachable)))
    return NtgResult(True)


def _require(r, what: str, tree: bool = False):
    """A ``ValueError`` naming ``r``, a specification or a structural
    representation, as ``what`` and its first violation or, with ``tree``,
    its dependency defect; reads the check results kept on ``r``."""
    bad = r._violations
    if bad:
        raise ValueError(f"invalid {what}: {bad[0]}")
    if tree and not r._ntg.ok:
        raise ValueError(f"not a tree-shaped {what}: {r._ntg.defect}")


def _tree_dependencies(n: Rgs) -> DependencyArs:
    """The dependency steps of ``n``, after a ``ValueError`` when ``n`` is
    invalid or not tree-shaped, or when two of its vertices share the name
    ``<symbol>.<vertex>`` in the glued graphs."""
    _require(n, "specification", tree=True)
    if n._name_clash is not None:
        raise ValueError(n._name_clash)
    return n._dependencies


class MissingDepthError(ValueError):
    """Raised when unfolding a cyclic specification without a depth bound."""


def dependency_height(r: Rgs) -> int:
    """Length in steps of the longest dependency path from the root symbol.

    Folded over the symbols in the order the walk that finds cycles
    finishes them; a cycle, which has no longest path, raises ValueError.
    """
    deps = dependency_ars(r)
    cycle, finished = deps._walk
    if cycle is not None:
        raise ValueError(f"cyclic dependencies have no height: {Cycle(cycle)}")
    height: Dict[str, int] = {}
    for sym in finished:
        height[sym] = max((1 + height[s.target] for s in deps._by_source.get(sym, ())), default=0)
    return height[r.root_symbol]


@dataclass(frozen=True)
class UnfoldResult:
    rgs: Rgs
    cuts: int

    @property
    def truncated(self) -> bool:
        return self.cuts > 0


def unfold_to_ntg(r: Rgs, depth: Optional[int] = None) -> UnfoldResult:
    """Duplicate shared definitions until each symbol is introduced once.

    Every reachable access path through the dependency structure becomes
    its own symbol, so the result's dependencies form a tree.  The root
    symbol keeps its name; the copies of a symbol ``f`` are named ``f@1``,
    ``f@2`` and so on in breadth-first order, each name passing over those
    of the root symbol, of the atomic symbols and of earlier copies.  Each
    copy is a fresh copy of its body's ``lab`` and ``args`` maps under the
    body's own vertex names, which are local to a body; only its reachable
    occurrences are relabelled or cut.  For acyclic input this is exact;
    cyclic input needs ``depth`` and calls nested deeper than that are
    replaced by the nullary placeholder, yielding a truncated, non-semantic
    result meant for inspection only.

    An unfolding without cuts of a valid specification carries its check
    results (``_given``): no violation, ``is_ntg`` true, and each
    copy's body walk, which is its source body's.  A valid body has no
    unreachable vertex, so each copy keeps all its body's vertices, the
    same successors and root, and hence the same walk; atomic, input and
    output labels are kept; each occurrence names a fresh copy declared
    at the occurrence's arity, which in a valid specification is the
    callee's declared arity, so the copy's inputs number 1 to that arity.
    Every copy is entered from exactly one occurrence and reached from the
    root symbol, and without cuts the source has no reachable cycle (the
    unfolding of one is cut at ``depth``), so the dependencies form a
    tree.  A cut unfolding, or one of an invalid specification, is
    checked from scratch: a placeholder can cut off an input vertex.
    """
    if depth is not None and depth < 0:
        raise ValueError(f"unfold depth must not be negative, got {depth}")
    if depth is None and _find_cycle(dependency_ars(r)) is not None:
        raise MissingDepthError("cyclic dependencies require an unfold depth")

    new_name = _namer([r.root_symbol, *r.signature.atomic])
    copy_names: Dict[str, Iterator[str]] = {}
    new_rec: Dict[str, TermGraph] = {}
    new_nested: Dict[str, int] = {}
    cuts = 0
    steps = dependency_ars(r)._by_source  # per body, its reachable occurrences

    queue = [(r.root_symbol, r.root_symbol, 0)]  # (instance name, symbol, level)
    new_nested[r.root_symbol] = 0
    for iname, sym, level in queue:
        if sym not in r.rec:  # an occurrence of an undeclared symbol
            _require(r, "specification")
        body = r.rec[sym]
        occurrences = [step.vertex for step in steps.get(sym, ())]
        # vertex names are local to a body, so a copy keeps its body's
        lab = dict(body.lab)
        args = dict(body.args)
        cut = depth is not None and level + 1 > depth
        for v in occurrences:
            if cut:
                lab[v] = Atomic(CUT_SYMBOL, 0)
                args[v] = ()
                continue
            lbl = lab[v]
            target = lbl.name
            if target not in copy_names:
                copy_names[target] = map("{}@{}".format, repeat(target), count(1))
            child = new_name(copy_names[target])
            lab[v] = Nested(child, lbl.arity)
            new_nested[child] = lbl.arity
            queue.append((child, target, level + 1))
        # a copy of a checked body, with occurrences relabelled at their
        # arity and cut ones nullary, needs no second check
        g = TermGraph._prechecked(lab, args, body.root)
        if (cut and occurrences) or len(r._walks[sym][0]) < len(body):
            # drop the vertices that a placeholder or the source body cut off
            keep = set(reachable(g, g.root))
            g = TermGraph._prechecked(
                {v: lab[v] for v in lab if v in keep},
                {v: args[v] for v in args if v in keep},
                g.root,
            )
        if cut:
            cuts += len(occurrences)
        new_rec[iname] = g

    atomic = dict(r.signature.atomic)
    if cuts:
        atomic[CUT_SYMBOL] = 0
    u = Rgs(NtgSignature(atomic, new_nested, r.root_symbol), new_rec)
    if not cuts and not r._violations:
        _given(u, {iname: r._walks[sym] for iname, sym, _ in queue})
    return UnfoldResult(u, cuts)

