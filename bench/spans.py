"""Spans around the calls into each layer of ``ntg``, recorded from outside.

Tracing wraps every public function of the layer modules and rebinds the
wrapper wherever the library refers to the function (the package, its own
module and every module that imported it).  A call from one layer into
another therefore opens a child span, so each layer's self time excludes
the layers it calls.  Nothing in the library changes; ``uninstall`` puts
the original functions back.

Spans are kept in memory as ``(job, name, start, end, parent)`` and turned
into per-layer metrics after the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# the layer modules; ``labels`` only defines label types and ``cli`` is
# timed through subprocesses
LAYERS = ("formats", "rgs", "sntg", "graph", "firstorder", "equivalence")


# work counters read from the arguments and the result of one call
COUNTERS: Dict[str, Callable[[tuple, object], Dict[str, float]]] = {
    "graph.tg_collapse": lambda a, r: {"vertices_in": len(a[0]), "vertices_out": len(r[0])},
    "firstorder.interpret": lambda a, r: {"vertices_out": len(r)},
    "firstorder.represent": lambda a, r: {"defs_out": len(r.rec)},
    "rgs.unfold_to_ntg": lambda a, r: {
        "defs_in": len(a[0].rec), "defs_out": len(r.rgs.rec), "cuts": r.cuts,
    },
    "sntg.ntg_to_sntg": lambda a, r: {"vertices_out": len(r.tg)},
    "equivalence.nested_bisim": lambda a, r: {
        "configs": len(r.relation) if r.relation is not None else 0,
        "max_stack": r.relation.max_stack_depth() if r.relation is not None else 0,
        "unknown": r.verdict == "unknown_at_depth",
    },
    "equivalence.nested_hom": lambda a, r: {"unknown": r.verdict == "unknown_at_depth"},
    "formats.parse_rgs": lambda a, r: {"chars": len(a[0])},
    "formats.parse_fo": lambda a, r: {"chars": len(a[0])},
    "formats.print_rgs": lambda a, r: {"chars": len(r)},
    "formats.print_fo": lambda a, r: {"chars": len(r)},
}

# counters combined by maximum rather than by sum
MAX_COUNTERS = {"max_stack"}


class Tracer:
    """Spans of the calls into the layer modules of ``package``.

    The wrappers are built once; ``install`` and ``uninstall`` only swap
    them in and out, so a run can alternate traced and untraced jobs.
    """

    def __init__(self, package):
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.job = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, object]] = []
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is fn:
                            self._patches.append((m, attr, fn, wrapped))

    def install(self) -> None:
        for m, attr, _, wrapped in self._patches:
            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, fn, _ in self._patches:
            setattr(m, attr, fn)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job < 0:  # outside a job, e.g. while checking outputs
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.job, name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, result).items():
                    slot = (self.job, f"{name}.{key}")
                    if key in MAX_COUNTERS:
                        counts[slot] = max(counts[slot], value)
                    else:
                        counts[slot] += value
            return result

        return traced

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> Dict[Tuple[int, str], Tuple[float, int]]:
        """(job, function) -> (self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for job, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[Tuple[int, str], List[float]] = defaultdict(lambda: [0.0, 0])
        for i, (job, name, start, end, parent) in enumerate(self.spans):
            slot = out[(job, name)]
            slot[0] += end - start - child[i]
            slot[1] += 1
        return {k: (v[0], int(v[1])) for k, v in out.items()}


def loglog_slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 without spread."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(tracer: Tracer, job_vertices: List[int], job_wall: float,
                  functions: List[str], exponents: Dict[str, str]) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    ``functions`` names the functions whose busy time is reported on its
    own; ``exponents`` maps an exponent metric to the function whose
    per-job self time is fitted against the job's input vertices.
    """
    times = tracer.self_times()
    m: Dict[str, float] = {}
    for layer in LAYERS:
        mine = [tc for (job, name), tc in times.items() if name.startswith(layer + ".")]
        busy = sum(t for t, _ in mine)
        m[f"{layer}.busy_s"] = busy
        m[f"{layer}.calls"] = sum(c for _, c in mine)
        m[f"{layer}.share"] = busy / job_wall
    for fn in functions:
        m[f"{fn}.busy_s"] = sum(t for (job, name), (t, _) in times.items() if name == fn)
    for metric, fn in exponents.items():
        m[metric] = loglog_slope(
            [(job_vertices[job], t) for (job, name), (t, _) in times.items() if name == fn]
        )
    return m


def counter_totals(tracer: Tracer) -> Dict[str, float]:
    """Work counters summed over the round (maximum for MAX_COUNTERS)."""
    totals: Dict[str, float] = defaultdict(float)
    for (job, key), value in tracer.counts.items():
        if key.rsplit(".", 1)[1] in MAX_COUNTERS:
            totals[key] = max(totals[key], value)
        else:
            totals[key] += value
    return totals
