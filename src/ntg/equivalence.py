"""Behavioral equivalence of recursive graph specifications.

Stack-based comparison pairs vertices under the stacks of occurrence
vertices they are nested under, so it works for shared and cyclic
dependencies as well as tree-shaped ones, where it is the homomorphism
and bisimilarity of the paper.  One engine, the call/return summary
table ``_tabulate``, gives every nested comparison: it decides
bisimilarity, homomorphism existence and, of tree-shaped specifications,
isomorphism exactly, and every certificate is read off it: the path to
a clash, the runs of a functionality conflict, the witness of a positive
bisimilarity verdict (also that of ``ntg_bisimilar``), the homomorphism
certificate (also the map of ``ntg_hom``), the isomorphism of
``ntg_isomorphic`` (a bijective homomorphism) and, on acyclic input, the
explicit relation.  The table is built once per ordered pair of
specification objects and kept on the left one for its last partner, so
every decider called on one pair reads the same table.  Only the
independent ``verify_nested_bisim`` applies the progression rules
configuration by configuration.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from .firstorder import interpret
from .graph import TermGraph, tg_bisimilar
from .labels import Atomic, Input, Nested, Output, _compatible
from .rgs import (
    NtgSignature,
    Rgs,
    dependency_ars,
    is_ntg,
    unfold_to_ntg,
    validate_rgs,
    _find_cycle,
    _require,
    _uniquify,
)
from .sntg import ntg_to_sntg, sntg_bisimilar, sntg_hom

CV = Tuple[str, str]  # (symbol, body vertex)


def _entry(r: Rgs, sym: str) -> CV:
    """The output vertex of ``sym``'s body, where a call of ``sym`` enters."""
    return sym, r.rec[sym].root


def _merge_atomic(s1: NtgSignature, s2: NtgSignature) -> Dict[str, int]:
    merged = dict(s1.atomic)
    for name, ar in s2.atomic.items():
        if merged.setdefault(name, ar) != ar:
            raise ValueError(f"atomic symbol {name!r} has conflicting arities")
    return merged


# ---------------------------------------------------------------------------
# Stack-based comparison
# ---------------------------------------------------------------------------


class NestedConfig(NamedTuple):
    """A pair of visits, each prefixed with its stack of nesting ancestors.

    A named tuple, so it is built and hashed as a tuple is, and it equals
    the plain 4-tuple ``(left_stack, left, right_stack, right)``."""

    left_stack: Tuple[CV, ...]
    left: CV
    right_stack: Tuple[CV, ...]
    right: CV

    def __str__(self):
        def side(stack, v):
            return "".join(f"{s[0]}.{s[1]} " for s in stack) + f"{v[0]}.{v[1]}"

        return f"<{side(self.left_stack, self.left)} ~ {side(self.right_stack, self.right)}>"


@dataclass(frozen=True)
class NestedBisimRelation:
    configs: frozenset
    depth_bound: Optional[int]  # None when exact, else closed only below this stack depth

    @property
    def exact(self) -> bool:
        return self.depth_bound is None

    def __len__(self):
        return len(self.configs)

    def max_stack_depth(self) -> int:
        return max((len(c.left_stack) for c in self.configs), default=0)


def _progressions(r1: Rgs, r2: Rgs, cfg: NestedConfig):
    """Successor configurations forced by the local progression rules.

    Returns (children, pushes) where pushes flags the call rule, or raises
    _Clash when no rule applies.
    """
    (s1, x1), (s2, x2) = cfg.left, cfg.right
    g1, g2 = r1.rec[s1], r2.rec[s2]
    l1, l2 = g1.lab[x1], g2.lab[x2]
    if not _compatible(l1, l2):
        raise _Clash(cfg, f"labels {l1} and {l2} do not match")
    if isinstance(l1, Atomic):
        return [
            NestedConfig(cfg.left_stack, (s1, w1), cfg.right_stack, (s2, w2))
            for w1, w2 in zip(g1.args[x1], g2.args[x2])
        ], False
    if isinstance(l1, Output):
        (w1,) = g1.args[x1]
        (w2,) = g2.args[x2]
        return [NestedConfig(cfg.left_stack, (s1, w1), cfg.right_stack, (s2, w2))], False
    if isinstance(l1, Nested):
        child = NestedConfig(
            cfg.left_stack + (cfg.left,),
            _entry(r1, l1.name),
            cfg.right_stack + (cfg.right,),
            _entry(r2, l2.name),
        )
        return [child], True
    # both inputs: pop one stack letter and continue at the argument
    if not cfg.left_stack or not cfg.right_stack:
        raise _Clash(cfg, "input vertex reached outside any call")
    (t1, o1), (t2, o2) = cfg.left_stack[-1], cfg.right_stack[-1]
    a1, a2 = r1.rec[t1].args[o1], r2.rec[t2].args[o2]
    if l1.index > len(a1) or l2.index > len(a2):
        raise _Clash(cfg, "input index exceeds the calling occurrence's arity")
    child = NestedConfig(
        cfg.left_stack[:-1],
        (t1, a1[l1.index - 1]),
        cfg.right_stack[:-1],
        (t2, a2[l2.index - 1]),
    )
    return [child], False


class _Clash(Exception):
    def __init__(self, cfg, message):
        super().__init__(message)
        self.cfg = cfg
        self.message = message


def _needs_depth(r1: Rgs, r2: Rgs) -> bool:
    return any(_find_cycle(dependency_ars(r)) is not None for r in (r1, r2))


# ---------------------------------------------------------------------------
# Call/return summaries
#
# Both stacks push and pop together, so a clash is a reachability question
# in a pushdown system whose stack letters are occurrence pairs.  What
# happens below a call depends only on the pair of entered symbols, not on
# the stack under it, so the closure is tabulated once per such pair in
# the style of Reps, Horwitz and Sagiv (POPL 1995): the vertex pairs it
# reaches at its own level, and the input-index pairs through which it
# returns.  A context's pairs lie in its two entered bodies, so the tables
# key them by their two body vertices alone.  The tables are polynomial in
# the two specifications whatever their sharing or recursion, so the
# verdict is exact in every case.  A homomorphism asks in addition that
# each context be functional, which the same tables answer.
#
# So one table serves every decider on a pair, and ``_summarize`` keeps
# it on the left specification, for the last right one it was compared
# with: an ``Rgs`` is immutable, and no reader changes a ``_Context``.
# The right one is held by a weak reference, and the tables refer to the
# two bodies' maps but not to either specification, so keeping them
# neither keeps the right one alive nor makes a reference cycle.  Each
# result derives its own path, witness, certificate, conflict and runs
# from the shared tables.
# ---------------------------------------------------------------------------


class _Context:
    """The summary of one pair of entered symbols, ``syms``; the root
    pair's context is keyed None.

    A context's pairs lie in its two entered bodies, whose ``lab`` and
    ``args`` maps are ``bodies``, so each pair is the two body vertices
    ``(x1, x2)``.  ``reached`` maps each vertex pair at this level to its
    first-discovery pointer ``(length, previous pair, callee, exit)``:
    ``length`` counts the configurations from the entry pair through this
    one, ``previous`` is None at the entry pair, and ``callee`` and
    ``exit`` are set when the pair was reached by returning from the call
    at ``previous``.  ``exits`` maps each input-index pair to the input
    pair first found with it.
    """

    __slots__ = ("syms", "bodies", "reached", "exits", "callers", "opener")

    def __init__(self, r1: Rgs, r2: Rgs, syms: Tuple[str, str], opener):
        g1, g2 = r1.rec[syms[0]], r2.rec[syms[1]]
        self.syms = syms
        self.bodies = (g1.lab, g1.args, g2.lab, g2.args)
        self.reached: Dict[tuple, tuple] = {(g1.root, g2.root): (1, None, None, None)}
        self.exits: Dict[Tuple[int, int], tuple] = {}
        self.callers: List[tuple] = []  # (context key, occurrence pair)
        self.opener = opener  # the first caller; None for the root context

    def cv(self, pair) -> Tuple[CV, CV]:
        """The pair ``(x1, x2)`` of this context as carrier vertices."""
        s1, s2 = self.syms
        return (s1, pair[0]), (s2, pair[1])

    def cv_reached(self) -> List[Tuple[CV, CV]]:
        """The reached pairs as carrier vertices, in discovery order."""
        s1, s2 = self.syms
        return [((s1, x1), (s2, x2)) for x1, x2 in self.reached]


def _tabulate(r1: Rgs, r2: Rgs):
    """Summaries of every context reachable from the root pair.

    Reads the ``lab`` and ``args`` maps of each context's two bodies
    directly, and asks ``_compatible`` of every pair it pops.
    Returns ``(contexts, clash)``; ``clash`` is None or ``(key, pair, via,
    reason)``, where ``via`` is the calling frame when the clash depends on
    the caller (an exit that the caller's arity cannot take), else None.
    """
    contexts: Dict[Optional[tuple], _Context] = {}
    work = deque()  # (context key, context, pair)

    def enter(key, syms, opener):
        ctx = contexts[key] = _Context(r1, r2, syms, opener)
        work.append((key, ctx, next(iter(ctx.reached))))
        return ctx

    def ret(key, occ, callee, ij):
        """Continue the call at ``occ`` of context ``key`` after ``callee``
        exits through ``ij``; returns a clash reason or None."""
        ctx = contexts[key]
        _, args1, _, args2 = ctx.bodies
        a1, a2 = args1[occ[0]], args2[occ[1]]
        i, j = ij
        if i > len(a1) or j > len(a2):
            return "input index exceeds the calling occurrence's arity"
        seen = ctx.reached
        pair = (a1[i - 1], a2[j - 1])
        if pair not in seen:
            sub = contexts[callee]
            seen[pair] = (seen[occ][0] + sub.reached[sub.exits[ij]][0] + 1, occ, callee, ij)
            work.append((key, ctx, pair))
        return None

    enter(None, (r1.root_symbol, r2.root_symbol), None)
    while work:
        key, ctx, pair = work.popleft()
        lab1, args1, lab2, args2 = ctx.bodies
        x1, x2 = pair
        l1, l2 = lab1[x1], lab2[x2]
        if not _compatible(l1, l2):
            return contexts, (key, pair, None, f"labels {l1} and {l2} do not match")
        if isinstance(l1, (Atomic, Output)):
            seen = ctx.reached
            step = (seen[pair][0] + 1, pair, None, None)
            for child in zip(args1[x1], args2[x2]):
                if child not in seen:
                    seen[child] = step
                    work.append((key, ctx, child))
        elif isinstance(l1, Nested):
            callee = (l1.name, l2.name)
            sub = contexts.get(callee)
            if sub is None:
                sub = enter(callee, callee, (key, pair))
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


def _frames(contexts, key, via) -> List[tuple]:
    """The calling frames ``(context key, occurrence pair)`` from the root
    down to context ``key``, entered through ``via`` or its first caller."""
    frames = []
    link = via if via is not None else contexts[key].opener
    while link is not None:
        frames.append(link)
        link = contexts[link[0]].opener
    frames.reverse()
    return frames


def _rebuild_path(contexts, frames, key, pair) -> List[NestedConfig]:
    """The configurations from the root pair to ``pair`` in context
    ``key``, following first-discovery pointers backwards; a return is
    expanded into the callee's own path from its entry to the exit."""
    segments = []  # (context key, last pair, left stack, right stack)
    ls, rs = (), ()
    for k, occ in frames:
        segments.append((k, occ, ls, rs))
        o1, o2 = contexts[k].cv(occ)
        ls, rs = ls + (o1,), rs + (o2,)
    segments.append((key, pair, ls, rs))
    backwards = []
    while segments:
        k, cur, ls, rs = segments.pop()
        ctx = contexts[k]
        s1, s2 = ctx.syms
        reached = ctx.reached
        while True:
            backwards.append(NestedConfig(ls, (s1, cur[0]), rs, (s2, cur[1])))
            _, prev, callee, ij = reached[cur]
            if prev is None:
                break
            if callee is not None:
                segments.append((k, prev, ls, rs))
                exit_pair = contexts[callee].exits[ij]
                segments.append((callee, exit_pair, ls + ((s1, prev[0]),), rs + ((s2, prev[1]),)))
                break
            cur = prev
    backwards.reverse()
    return backwards


def _config(contexts, frames, key, pair) -> NestedConfig:
    """The configuration of ``pair`` of context ``key`` under the stacks of
    ``frames``."""
    occs = [contexts[k].cv(occ) for k, occ in frames]
    v1, v2 = contexts[key].cv(pair)
    return NestedConfig(tuple(o1 for o1, _ in occs), v1, tuple(o2 for _, o2 in occs), v2)


def _functionality_conflict(contexts):
    """The first pair, in the order contexts and their pairs were
    discovered, whose left vertex already met another right vertex in the
    same context: ``(key, earlier pair, pair)``, or None when every
    context is functional."""
    for key, ctx in contexts.items():
        image = {}
        for x1, x2 in ctx.reached:
            w = image.setdefault(x1, x2)
            if w != x2:
                return key, (x1, w), (x1, x2)
    return None


@dataclass(frozen=True)
class BisimWitness:
    """A witness specification over paired symbols, with both projections."""

    witness: Rgs
    proj_left: Dict[CV, CV]
    proj_right: Dict[CV, CV]


def _summary_witness(r1: Rgs, r2: Rgs, contexts) -> BisimWitness:
    """The witness of a positive verdict, read off its summary tables.

    One definition ``f_g`` per context, entered at its entry pair; one
    vertex ``v|w`` per reached pair, after the names of its two vertices in
    their bodies (an unfolded copy keeps its body's vertex names), primed
    only where two pairs of one context format alike.  Each context's
    pairs ``(x1, x2)`` lie in its two entered bodies and are walked once
    against their ``lab`` and ``args`` maps.  The context's input pairs are
    numbered by its exits, in the order they were found; an occurrence
    pair passes, for each exit ``(i, j)`` of its callee context, the
    argument pair at those indices; every other pair keeps the left label
    and pairs its successors position by position.
    """
    # the witness carries left labels, so the left arity wins a conflict
    atomic = {**r2.signature.atomic, **r1.signature.atomic}
    sym_name = _uniquify(contexts, lambda key: "_".join(contexts[key].syms), avoid=atomic)
    numbered = [Input(j) for j in range(1, max(len(ctx.exits) for ctx in contexts.values()) + 1)]
    rec: Dict[str, TermGraph] = {}
    proj_left: Dict[CV, CV] = {}
    proj_right: Dict[CV, CV] = {}
    for key, ctx in contexts.items():
        sym = sym_name[key]
        s1, s2 = ctx.syms
        lab1, args1, lab2, args2 = ctx.bodies
        number = dict(zip(ctx.exits.values(), numbered))
        # vertex ids need only be unique within their own body; two pairs
        # format alike only when a vertex name holds a ``|``
        vid = {p: f"{p[0]}|{p[1]}" for p in ctx.reached}
        if len(set(vid.values())) < len(vid):
            vid = _uniquify(vid, vid.__getitem__)
        lab, args = {}, {}
        for p, v in vid.items():
            x1, x2 = p
            l1 = lab1[x1]
            kind = type(l1)  # a clash-free pair has two labels of one class
            if kind is Input:
                lab[v], args[v] = number[p], ()
            elif kind is Nested:
                callee = (l1.name, lab2[x2].name)
                exits = contexts[callee].exits
                a1, a2 = args1[x1], args2[x2]
                lab[v] = Nested(sym_name[callee], len(exits))
                args[v] = tuple([vid[a1[i - 1], a2[j - 1]] for i, j in exits])
            else:
                lab[v], args[v] = l1, tuple([vid[q] for q in zip(args1[x1], args2[x2])])
            cv = (sym, v)
            proj_left[cv] = (s1, x1)
            proj_right[cv] = (s2, x2)
        rec[sym] = TermGraph(lab, args, next(iter(vid.values())))  # the entry pair came first
    nested = {sym_name[key]: len(ctx.exits) for key, ctx in contexts.items()}
    witness = Rgs(NtgSignature(atomic, nested, sym_name[None]), rec)
    assert not validate_rgs(witness), "constructed witness is ill-formed"
    assert not verify_ntg_hom(witness, r1, proj_left), "left projection fails"
    assert not verify_ntg_hom(witness, r2, proj_right), "right projection fails"
    return BisimWitness(witness, proj_left, proj_right)


def _expand(contexts) -> frozenset:
    """The configurations of clash-free summary tables over acyclic
    specifications: each context's reached pairs under each of its stack
    pairs, where a caller's stack pairs, extended by the calling occurrence
    pair, are stack pairs of the callee.  A context is expanded once all
    its callers are, so no recursion is needed."""
    calls = {key: [] for key in contexts}  # caller key -> [(callee key, occurrence pair)]
    for key, ctx in contexts.items():
        for caller, occ in ctx.callers:
            calls[caller].append((key, contexts[caller].cv(occ)))
    waiting = {key: len(ctx.callers) for key, ctx in contexts.items()}
    stacks = {None: [((), ())]}
    ready = [None]
    configs = []
    while ready:
        key = ready.pop()
        pairs = stacks.pop(key)
        reached = contexts[key].cv_reached()  # once per context, shared by its stack pairs
        configs.extend(NestedConfig(ls, v1, rs, v2) for ls, rs in pairs for v1, v2 in reached)
        for callee, (o1, o2) in calls[key]:
            stacks.setdefault(callee, []).extend((ls + (o1,), rs + (o2,)) for ls, rs in pairs)
            waiting[callee] -= 1
            if not waiting[callee]:
                ready.append(callee)
    assert not stacks, "the contexts call each other in a cycle"
    return frozenset(configs)


@dataclass(frozen=True)
class _SummaryResult:
    verdict: str  # "bisimilar" | "not_bisimilar", or "hom" | "none"
    counterexample: Optional[NestedConfig] = None  # the clashing configuration
    reason: Optional[str] = None
    contexts: int = 0  # pairs of entered symbols tabulated, plus the root context
    facts: int = 0  # vertex pairs reached and exits found, over all contexts
    path_length: int = 0  # configurations on ``path``; 0 without a clash
    _specs: tuple = field(default=(), repr=False, compare=False)  # (r1, r2)
    _contexts: Optional[dict] = field(default=None, repr=False, compare=False)  # the tables
    _trace: Optional[tuple] = field(default=None, repr=False, compare=False)  # (frames, key)

    @cached_property
    def path(self) -> Optional[List[NestedConfig]]:
        """The configurations from the root pair to ``counterexample``,
        each a successor of the one before; None without a clash."""
        return None if self.counterexample is None else self._run(self.counterexample)

    def _run(self, cfg: NestedConfig) -> List[NestedConfig]:
        # cfg lies in the context that ``_trace`` names, as its two body vertices
        return _rebuild_path(self._contexts, *self._trace, (cfg.left[1], cfg.right[1]))


def _summarize(r1: Rgs, r2: Rgs):
    """Tabulate the summaries of ``r1`` against ``r2``, or read the tables
    that ``r1`` keeps when ``r2`` is the object it was last compared with.

    Returns ``(fields, clash)``: the result fields every verdict carries,
    the tables among them, and on a clash the fields that describe it and
    trace its path, else None.
    """
    _require(r1, "left specification")
    _require(r2, "right specification")
    kept = r1.__dict__.get("_summaries")
    if kept is not None and kept[0]() is r2:
        _, contexts, clash = kept
    else:
        contexts, clash = _tabulate(r1, r2)
        r1.__dict__["_summaries"] = (weakref.ref(r2), contexts, clash)
    fields = dict(
        contexts=len(contexts),
        facts=sum(len(ctx.reached) + len(ctx.exits) for ctx in contexts.values()),
        _specs=(r1, r2),
        _contexts=contexts,
    )
    if clash is None:
        return fields, None
    key, pair, via, reason = clash
    frames = _frames(contexts, key, via)
    length = contexts[key].reached[pair][0]
    length += sum(contexts[k].reached[occ][0] for k, occ in frames)
    return fields, dict(
        counterexample=_config(contexts, frames, key, pair), reason=reason, path_length=length,
        _trace=(frames, key),
    )


@dataclass(frozen=True)
class NestedBisimResult(_SummaryResult):
    @property
    def bisimilar(self) -> bool:
        return self.verdict == "bisimilar"

    @cached_property
    def relation(self) -> Optional[NestedBisimRelation]:
        """The least nested bisimulation, when it is finite: for a positive
        verdict on acyclic specifications, expanded from the summary tables
        on first access; None otherwise.  It lists every configuration with
        its explicit stacks, so it is exponential in sharing."""
        if not self.bisimilar or _needs_depth(*self._specs):
            return None
        return NestedBisimRelation(_expand(self._contexts), None)

    @cached_property
    def witness(self) -> Optional[BisimWitness]:
        """For a "bisimilar" verdict, a specification whose projections
        onto both inputs are homomorphisms, read off the summary tables on
        first access; None otherwise.  Polynomial like the verdict, also
        on shared and cyclic input."""
        return _summary_witness(*self._specs, self._contexts) if self.bisimilar else None


def nested_bisim(r1: Rgs, r2: Rgs, depth: Optional[int] = None) -> NestedBisimResult:
    """Decide stack-based bisimilarity exactly, by call/return summaries.

    Polynomial in the two specifications and exact on acyclic, shared and
    cyclic ones alike.  ``depth`` is accepted for compatibility and no
    longer affects the answer.  A negative verdict carries the clashing
    configuration and the path of configurations that reaches it.
    """
    fields, clash = _summarize(r1, r2)
    if clash is not None:
        return NestedBisimResult("not_bisimilar", **clash, **fields)
    return NestedBisimResult("bisimilar", **fields)


@dataclass(frozen=True)
class NestedHomResult(_SummaryResult):
    # a "none" without a clash: two configurations with equal left sides
    # and different right sides
    conflict: Optional[Tuple[NestedConfig, NestedConfig]] = None

    @property
    def exists(self) -> bool:
        return self.verdict == "hom"

    @cached_property
    def runs(self) -> Optional[Tuple[List[NestedConfig], List[NestedConfig]]]:
        """For a ``conflict``: the two runs of configurations from the root
        pair to its two configurations; None otherwise."""
        return None if self.conflict is None else tuple(map(self._run, self.conflict))

    @cached_property
    def certificate(self) -> Optional[Dict[tuple, CV]]:
        """For a "hom": the homomorphism read off the summary tables, as a
        map ``(context, left vertex) -> right vertex``; None otherwise.  A
        context is the pair of entered symbols ``(left, right)``, or None
        for the root pair, and every configuration whose innermost stack
        entries are occurrences of that pair maps its left vertex as the
        context does.  Polynomial, also on shared and cyclic input."""
        if not self.exists:
            return None
        return {(key, v1): v2 for key, ctx in self._contexts.items() for v1, v2 in ctx.cv_reached()}


def nested_hom(r1: Rgs, r2: Rgs, depth: Optional[int] = None) -> NestedHomResult:
    """Decide exactly whether a stack-based homomorphism exists: a nested
    bisimulation that relates every left configuration to at most one
    right configuration.

    The vertex pairs reached at one call level depend only on the pair of
    entered symbols, not on the stacks under it, so the call/return
    summaries of ``nested_bisim`` decide this too: a homomorphism exists
    iff they find no clash and every context is functional, meeting each
    left vertex with at most one right vertex.  Two right stacks under one
    left stack first differ at a call level whose left occurrence meets two
    right ones, so the check per context covers them.  Polynomial and
    exact on acyclic, shared and cyclic specifications; ``depth`` is
    accepted for compatibility and ignored.  A "hom" carries its
    ``certificate``; a "none" carries either a clash with its ``path`` or a
    ``conflict`` with its two ``runs``.
    """
    fields, clash = _summarize(r1, r2)
    if clash is not None:
        return NestedHomResult("none", **clash, **fields)
    contexts = fields["_contexts"]
    found = _functionality_conflict(contexts)
    if found is None:
        return NestedHomResult("hom", **fields)
    key, first, second = found
    frames = _frames(contexts, key, None)
    return NestedHomResult(
        "none", reason="a left configuration meets two right configurations",
        conflict=(_config(contexts, frames, key, first), _config(contexts, frames, key, second)),
        _trace=(frames, key), **fields,
    )


def verify_nested_bisim(rel: NestedBisimRelation, r1: Rgs, r2: Rgs) -> List[str]:
    """Clause-by-clause check that ``rel`` is a nested bisimulation.

    Independent of the summary tables that ``relation`` is expanded from:
    every membership obligation is re-derived from the definition.
    Bounded relations are only required to be closed below their bound.
    """
    problems = []
    root_cfg = NestedConfig((), _entry(r1, r1.root_symbol), (), _entry(r2, r2.root_symbol))
    if root_cfg not in rel.configs:
        problems.append("root configuration missing")
    found = []  # (configuration, problem), in set order
    for cfg in rel.configs:
        if len(cfg.left_stack) != len(cfg.right_stack):
            found.append((cfg, "stacks have different lengths"))
            continue
        try:
            children, pushes = _progressions(r1, r2, cfg)
        except _Clash as e:
            found.append((cfg, e.message))
            continue
        if pushes and rel.depth_bound is not None:
            if len(cfg.left_stack) + 1 > rel.depth_bound:
                continue
        for child in children:
            if child not in rel.configs:
                found.append((cfg, f"required configuration {child} missing"))
    # stable, so the problems of one configuration keep their order
    found.sort(key=lambda p: str(p[0]))
    return problems + [f"{cfg}: {problem}" for cfg, problem in found]


# ---------------------------------------------------------------------------
# Homomorphisms and bisimilarity of tree-shaped specifications
# ---------------------------------------------------------------------------


def ntg_hom(n1: Rgs, n2: Rgs) -> Optional[Dict[CV, CV]]:
    """The homomorphism between two tree-shaped specifications, as a map
    over carrier vertices ``(symbol, vertex)``, or None.

    Read off the certificate of ``nested_hom``: every definition of a
    tree-shaped specification is entered from one occurrence, so when every
    context is functional each left vertex lies in exactly one context.
    """
    return _ntg_hom(n1, n2)[0]


def _ntg_hom(n1: Rgs, n2: Rgs):
    """``(ntg_hom(n1, n2), nested_hom(n1, n2))`` from one tabulation."""
    _require(n1, "left argument", tree=True)
    _require(n2, "right argument", tree=True)
    _merge_atomic(n1.signature, n2.signature)  # only for its ValueError on conflicting arities
    res = nested_hom(n1, n2)
    if res.certificate is None:
        return None, res
    phi = {v1: v2 for (_, v1), v2 in res.certificate.items()}
    assert len(phi) == len(res.certificate), "a left vertex lies in two contexts"
    assert not verify_ntg_hom(n1, n2, phi), "the certificate is not a homomorphism"
    return phi, res


def verify_ntg_hom(n1: Rgs, n2: Rgs, phi: Dict[CV, CV]) -> List[str]:
    """Re-check a homomorphism witness clause by clause.

    The clauses are the homomorphism clauses of the paper, and they hold
    for any valid specification, shared or cyclic, not only tree-shaped
    ones: the root definitions are related; atomic vertices keep their
    label and arguments; output, input and occurrence vertices map to
    vertices of the same kind, outputs keeping their successor; and at an
    occurrence the two callees' roots are related and each callee input
    maps to an input of the image's callee whose argument is the image of
    the argument.  As every body vertex is reachable from its output
    vertex, these clauses also map each body into one body.  A vertex
    missing from ``phi`` and an image that is not a vertex of ``n2``,
    whatever object it is, are reported, not looked up.  One pass over
    each body, in symbol order, reads its labels and successors directly,
    in linear time; the problems come in the order of the clauses per
    vertex, body by body.  An invalid specification is reported alone, by
    its first ``validate_rgs`` violation: its bodies need not be defined
    where the clauses read them.
    """
    invalid = [f"invalid {side} specification: {r._violations[0]}"
               for side, r in (("left", n1), ("right", n2)) if r._violations]
    if invalid:
        return invalid
    rec2 = n2.rec
    inputs: Dict[str, List[CV]] = {}  # by callee, in index order, listed on first use
    problems = []
    if phi.get(_entry(n1, n1.root_symbol)) != _entry(n2, n2.root_symbol):
        problems.append("root definitions are not related")
    for sym in sorted(n1.rec):
        lab1, args1 = n1.rec[sym].lab, n1.rec[sym].args
        img = {v: phi.get((sym, v)) for v in lab1}
        for v, l1 in lab1.items():
            w = img[v]
            if w is None:
                problems.append(f"{(sym, v)}: map is not total")
                continue
            try:  # an image of another shape, or with an unhashable or absent part, is no vertex
                s2, x2 = w if isinstance(w, tuple) else ()
                g2 = rec2[s2]
                l2 = g2.lab[x2]
            except (TypeError, KeyError, ValueError):
                problems.append(f"{(sym, v)}: image is not a vertex of the target")
                continue
            if isinstance(l1, Atomic):
                if l1 != l2:
                    problems.append(f"{(sym, v)}: atomic label not preserved")
                    continue
                clause = "arguments not preserved"
            elif isinstance(l1, Output):
                if not isinstance(l2, Output):
                    problems.append(f"{(sym, v)}: output vertex not mapped to an output vertex")
                    continue
                clause = "output successor not preserved"
            elif isinstance(l1, Input):
                if not isinstance(l2, Input):
                    problems.append(f"{(sym, v)}: input vertex not mapped to an input vertex")
                continue
            else:  # nested occurrence: interface conditions
                if not isinstance(l2, Nested):
                    problems.append(f"{(sym, v)}: occurrence not mapped to an occurrence")
                    continue
                callee = l1.name
                if phi.get(_entry(n1, callee)) != _entry(n2, l2.name):
                    problems.append(f"{(sym, v)}: definition roots not related")
                ins = inputs.get(callee)
                if ins is None:  # a valid body has one input per index, from 1 to its arity
                    ins = inputs[callee] = [None] * n1.signature.nested[callee]
                    for u, lbl in n1.rec[callee].lab.items():
                        if isinstance(lbl, Input):
                            ins[lbl.index - 1] = (callee, u)
                a1, a2 = args1[v], g2.args[x2]
                for i, u in enumerate(ins, 1):
                    at = phi.get(u)
                    if at is None:
                        problems.append(f"{u}: map is not total")
                        continue
                    try:
                        t2, y2 = at if isinstance(at, tuple) else ()
                        l_at = rec2[t2].lab[y2] if t2 == l2.name else None
                    except (TypeError, KeyError, ValueError):
                        l_at = None
                    if not isinstance(l_at, Input):
                        # the redundancy remark: images of inputs stay inputs
                        # of the related definition
                        problems.append(f"{u}: input maps outside the related definition")
                        continue
                    # in a valid n2 the index is at most the callee's arity
                    if img[a1[i - 1]] != (s2, a2[l_at.index - 1]):
                        problems.append(f"{(sym, v)}: interface clause fails at input {i}")
                continue
            # equal labels, or two outputs, have equal arities in valid bodies
            for u, u2 in zip(args1[v], g2.args[x2]):
                if img[u] != (s2, u2):
                    problems.append(f"{(sym, v)}: {clause}")
                    break
    return problems


def ntg_bisimilar(n1: Rgs, n2: Rgs) -> Optional[BisimWitness]:
    """Bisimilarity of two tree-shaped specifications: the witness of
    ``nested_bisim``, a tree-shaped specification whose projections are
    homomorphisms, or None."""
    _require(n1, "left argument", tree=True)
    _require(n2, "right argument", tree=True)
    _merge_atomic(n1.signature, n2.signature)  # only for its ValueError on conflicting arities
    found = nested_bisim(n1, n2).witness
    assert found is None or is_ntg(found.witness).ok, "witness is not tree-shaped"
    return found


# ---------------------------------------------------------------------------
# Isomorphism of tree-shaped specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NtgIso:
    """Symbol renaming plus per-symbol input permutation plus vertex maps."""

    symbol_map: Dict[str, str]
    vertex_map: Dict[CV, CV]
    input_perm: Dict[str, Dict[int, int]]


def ntg_isomorphic(n1: Rgs, n2: Rgs) -> Optional[NtgIso]:
    """Equality up to renaming of defined symbols, renaming of vertices,
    and a per-symbol permutation of input indices applied consistently to
    input labels and occurrence successor order.

    An isomorphism is a homomorphism that is a bijection, so this reads
    the summary tables that decide ``nested_hom``.  Every definition of a
    tree-shaped specification is entered from one occurrence, so with no
    clash the reached pairs form a homomorphism when there are as many of
    them as ``n1`` has vertices, one per left vertex; it is an isomorphism
    when it is also a bijection onto the vertices of ``n2``.  The contexts
    then pair the defined symbols, and the exits of each context, the
    pairs of input indices, are its input permutation.  One tabulation,
    polynomial like ``nested_hom``; specifications of different sizes are
    told apart before it.
    """
    _require(n1, "left argument", tree=True)
    _require(n2, "right argument", tree=True)
    size = sum(map(len, n1.rec.values()))
    if size != sum(map(len, n2.rec.values())):
        return None
    fields, clash = _summarize(n1, n2)
    contexts = fields["_contexts"]
    if clash is not None or sum(len(ctx.reached) for ctx in contexts.values()) != size:
        return None
    vertex_map = {v1: v2 for ctx in contexts.values() for v1, v2 in ctx.cv_reached()}
    if len(set(vertex_map.values())) != size:  # then no left vertex is in two pairs
        return None
    symbol_map = {n1.root_symbol: n2.root_symbol}
    input_perm: Dict[str, Dict[int, int]] = {n1.root_symbol: {}}
    for key, ctx in contexts.items():
        if key is not None:
            symbol_map[key[0]] = key[1]
            input_perm[key[0]] = {i: j for i, j in ctx.exits}
    return NtgIso(symbol_map, vertex_map, input_perm)


# ---------------------------------------------------------------------------
# Executable cross-checks of the coincidence statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossCheckReport:
    entries: Tuple[tuple, ...]  # (description, left result, right result, agree)

    @property
    def all_agree(self) -> bool:
        return all(e[3] for e in self.entries)

    def __str__(self):
        lines = []
        for desc, a, b, ok in self.entries:
            lines.append(f"{'agree' if ok else 'DISAGREE'}: {desc} ({a} / {b})")
        return "\n".join(lines)


def cross_check_theorems(a: Rgs, b: Rgs) -> CrossCheckReport:
    """Run independent deciders side by side.

    Wherever the inputs unfold (tree-shaped or shared acyclic), the
    stack-based bisimilarity and homomorphism existence must agree with
    the closure and the propagation over the scoped graphs of the
    unfoldings, and bisimilarity, by the main theorem, with first-order
    bisimilarity of their flattenings.  Cyclic inputs have no finite
    unfolding: there a homomorphism must imply bisimilarity, and
    bisimilarity must not depend on the order of the arguments.  Any
    disagreement is an implementation bug.
    """
    _require(a, "specification")
    _require(b, "specification")
    tree = is_ntg(a).ok and is_ntg(b).ok
    if not tree and _needs_depth(a, b):
        hom = nested_hom(a, b).exists
        bisim = nested_bisim(a, b).bisimilar
        back = nested_bisim(b, a).bisimilar
        return CrossCheckReport((
            ("stack-based homomorphism implies stack-based bisimilarity", hom, bisim, bisim or not hom),
            ("stack-based bisimilarity is symmetric", bisim, back, bisim == back),
        ))
    ua, ub = (a, b) if tree else (unfold_to_ntg(a).rgs, unfold_to_ntg(b).rgs)
    sa, sb = ntg_to_sntg(ua), ntg_to_sntg(ub)
    stacked = nested_bisim(a, b).bisimilar
    scoped = sntg_bisimilar(sa, sb) is not None
    flat = tg_bisimilar(interpret(ua), interpret(ub))
    hom_stacked = nested_hom(a, b).exists
    hom_scoped = sntg_hom(sa, sb) is not None
    return CrossCheckReport((
        ("bisimilarity equals stack-based bisimilarity", scoped, stacked, scoped == stacked),
        ("flattened bisimilarity equals stack-based bisimilarity", flat, stacked, flat == stacked),
        (
            "homomorphism existence equals stack-based homomorphism existence",
            hom_scoped, hom_stacked, hom_scoped == hom_stacked,
        ),
    ))
