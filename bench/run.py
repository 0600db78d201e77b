"""Benchmark of the ntg library on seeded workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload deep-nesting --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client in one process and one thread:
the next job starts when the previous one has finished.  A run sets up
(fresh import of ``ntg``, input generation, one untimed warm-up job), then
runs the seeded job list in whole rounds for about ``--seconds`` (the tail
of large jobs runs once, after the rounds and outside that budget), and
sets up again between rounds; it reports the median set-up.  It checks
every job's output against the answer known by construction and prints
one line per metric, with its unit and sample count, followed by a JSON
summary as the last line.  A job that fails or gives a wrong answer in
any run counts as failed and enters the latency samples at the per-job
cap.

Every gated time is taken at a reference host speed (``hostspeed.py``):
each set-up and each run of a job is timed in units of a fixed
calibration run made just before it, and a job's time is the median of
its runs.  On a shared host this takes out the host's wandering speed,
which moves every wall time by up to 1.7 times; the wall times as
measured are printed too, as comment lines.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
job three times back to back, untraced, with spans around every call into
a layer of ``ntg``, and traced in a child interpreter under ``python -O``
(which drops the library's inline ``assert`` self-checks), and reports the
per-layer metrics.  The recursion limit is left at the interpreter default.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import CAP_S, CLI_SUBCOMMANDS, WORKLOADS, CliJob, Outcome, run_process  # noqa: E402

SETUPS = 15  # set-ups per run; the median is reported
STARTUPS = 5  # bare ``python -m ntg`` runs for cli.startup_ms

# functions whose busy time is reported on its own, and the functions
# whose growth exponent is fitted
FUNCTIONS = [
    "graph.tg_collapse", "graph.tg_bisimilar",
    "firstorder.interpret", "firstorder.rg_defect", "firstorder.represent",
    "firstorder.ntg_collapse",
    "formats.parse_rgs", "formats.print_rgs", "formats.parse_fo", "formats.print_fo",
    "rgs.validate_rgs", "rgs.is_ntg", "rgs.dependency_height", "rgs.unfold_to_ntg",
    "sntg.ntg_to_sntg", "sntg.sntg_to_ntg",
    "equivalence.nested_bisim", "equivalence.nested_hom", "equivalence.verify_nested_bisim",
    "equivalence.ntg_bisimilar", "equivalence.ntg_hom", "equivalence.ntg_isomorphic",
]
EXPONENTS = {
    "graph.tg_collapse.exponent": "graph.tg_collapse",
    "firstorder.represent.exponent": "firstorder.represent",
    "formats.print_fo.exponent": "formats.print_fo",
    "equivalence.nested_bisim.exponent": "equivalence.nested_bisim",
}


@dataclass
class JobResult:
    wall: float
    error: Optional[str]  # None when the job succeeded with the right answer
    wrong: bool  # the job gave an answer and it was wrong
    queries: int
    exact: int
    vertices: int
    sub: str  # CLI subcommand, empty for in-process jobs
    calib: float = 0.0  # the calibration run just before this run, in seconds


def fresh_import():
    for name in [m for m in sys.modules if m == "ntg" or m.startswith("ntg.")]:
        del sys.modules[name]
    return importlib.import_module("ntg")


def setup(workload: str, seed: int, tiny: bool, workdir: Path):
    start = time.perf_counter()
    lib = fresh_import()
    jobs, files = WORKLOADS[workload](random.Random(seed), tiny)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    for job in jobs:
        if isinstance(job, CliJob):
            job.bind(str(SRC), str(workdir))
    min(jobs, key=lambda j: j.vertices).run(lib, Outcome())
    return time.perf_counter() - start, lib, jobs


def run_job(lib, job, tracer: Optional[spans.Tracer] = None, index: int = -1) -> JobResult:
    """Run one job timed, then check its output untimed."""
    out = Outcome()
    if tracer is not None:
        tracer.job = index
    start = time.perf_counter()
    try:
        data, error = job.run(lib, out), None
    except Exception as e:  # a failed job is counted, not fatal
        data, error = None, type(e).__name__
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.job = -1
    if error is None and out.errors:
        error = "; ".join(out.errors)
    wrong = False
    if error is None:
        error = job.check(lib, data)
        wrong = error is not None
    if error is None and wall > CAP_S:
        error = "over the per-job cap"
    return JobResult(wall, error, wrong, out.queries, out.exact, job.vertices, job.sub)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_rounds(lib, jobs, seconds: float, between: Callable[[], None]):
    """Whole rounds over the job list, calling ``between`` after each,
    while at least half a round's time is left of ``seconds`` (at least
    one round), so that the rounds take about ``seconds`` in all.  Tail
    jobs run once, after the rounds and outside that budget: a job that
    runs for seconds measures the host's mean speed over those seconds,
    which wanders too much on a shared host for a gated time, so a tail
    job counts only if it fails.

    Returns each job's results in round order.
    """
    runs: List[List[JobResult]] = [[] for _ in jobs]

    def run_all(indices):
        for i in indices:
            gc.collect()
            calib = hostspeed.calibrate()
            runs[i].append(dataclasses.replace(run_job(lib, jobs[i]), calib=calib))

    tail = [i for i, job in enumerate(jobs) if job.tail]
    repeated = [i for i, job in enumerate(jobs) if not job.tail]
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_all(repeated)
        rounds += 1
        between()
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 > seconds:
            break
    run_all(tail)
    return runs, rounds


def job_time(runs: List[JobResult], convert: bool = True) -> JobResult:
    """One job over its runs: the median of its failed runs if any run
    failed, otherwise the median of all its runs.  With ``convert`` each
    run is first converted to the reference host speed, otherwise the wall
    times are taken as measured."""
    chosen = [r for r in runs if r.error is not None] or runs
    walls = [hostspeed.at_reference(r.wall, r.calib) if convert else r.wall for r in chosen]
    return dataclasses.replace(chosen[0], wall=statistics.median(walls))


def end_to_end(jobs, results: List[JobResult], setups: List[float]) -> Dict[str, tuple]:
    """metric -> (value, unit, sample count), one result per job.

    The latency samples and ``vertices_per_s`` are taken over the
    successful jobs of the timed rounds, each at the median of its runs,
    and every failed job enters the latency samples at the cap: the time
    a job takes to fail is not throughput, and the tail runs only once."""
    n = len(results)
    ok = [r for r in results if r.error is None]
    timed = [r for r, job in zip(results, jobs) if r.error is None and not job.tail]
    samples = [r.wall * 1000.0 for r in timed] + [CAP_S * 1000.0] * (n - len(ok))
    queries = sum(r.queries for r in results)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "vertices_per_s": (sum(r.vertices for r in timed) / sum(r.wall for r in timed), "1/s",
                           len(timed)),
        "job_p50_ms": (statistics.median(samples), "ms", len(samples)),
        "job_p90_ms": (statistics.quantiles(samples, n=10)[-1], "ms", len(samples)),
        "failed_frac": ((n - len(ok)) / n, "ratio", n),
        "ok_frac": (len(ok) / n, "ratio", n),
        "decided_frac": (sum(r.exact for r in results) / queries if queries else 1.0, "ratio", queries),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def traced_pass(lib, jobs, child: "OptimizedChild"):
    """Each job three times back to back: untraced, traced, and traced in
    the ``python -O`` child, rotating the order from job to job so that
    drift in machine speed hits all three alike."""
    tracer = spans.Tracer(lib)
    plain: List[JobResult] = []
    traced: List[JobResult] = []
    optimized: List[float] = []
    for i, job in enumerate(jobs):
        for step in (0, 1, 2)[i % 3:] + (0, 1, 2)[:i % 3]:
            gc.collect()
            if step == 0:
                plain.append(run_job(lib, job))
            elif step == 1:
                tracer.install()
                try:
                    traced.append(run_job(lib, job, tracer, i))
                finally:
                    tracer.uninstall()
            else:
                optimized.append(child.run(i))
    return tracer, plain, traced, optimized


def per_layer(tracer: spans.Tracer, jobs, plain: List[JobResult], traced: List[JobResult],
              optimized: List[float]) -> Dict[str, tuple]:
    """metric -> (value, unit, sample count) for the traced pass."""
    wall = sum(r.wall for r in traced)
    m = spans.layer_metrics(tracer, [j.vertices for j in jobs], wall, FUNCTIONS, EXPONENTS)
    c = spans.counter_totals(tracer)
    m["graph.tg_collapse.vertices_in"] = c["graph.tg_collapse.vertices_in"]
    m["graph.tg_collapse.vertices_out"] = c["graph.tg_collapse.vertices_out"]
    m["graph.tg_collapse.kept_frac"] = _ratio(c["graph.tg_collapse.vertices_out"],
                                              c["graph.tg_collapse.vertices_in"])
    m["firstorder.interpret.vertices_out"] = c["firstorder.interpret.vertices_out"]
    m["firstorder.represent.defs_out"] = c["firstorder.represent.defs_out"]
    chars = sum(c[f"formats.{f}.chars"] for f in ("parse_rgs", "parse_fo", "print_rgs", "print_fo"))
    m["formats.chars"] = chars
    m["formats.chars_per_s"] = _ratio(chars, m["formats.busy_s"])
    m["rgs.unfold_to_ntg.defs_out"] = c["rgs.unfold_to_ntg.defs_out"]
    m["rgs.unfold_to_ntg.dup_factor"] = _ratio(c["rgs.unfold_to_ntg.defs_out"],
                                               c["rgs.unfold_to_ntg.defs_in"])
    m["rgs.unfold_to_ntg.cuts"] = c["rgs.unfold_to_ntg.cuts"]
    m["sntg.ntg_to_sntg.vertices_out"] = c["sntg.ntg_to_sntg.vertices_out"]
    m["equivalence.nested_bisim.configs"] = c["equivalence.nested_bisim.configs"]
    m["equivalence.nested_bisim.max_stack"] = c["equivalence.nested_bisim.max_stack"]
    m["equivalence.unknown"] = (c["equivalence.nested_bisim.unknown"]
                                + c["equivalence.nested_hom.unknown"])

    cli = [r for r in traced if r.sub]
    m["cli.busy_s"] = sum(r.wall for r in cli)
    m["cli.calls"] = len(cli)
    m["cli.share"] = m["cli.busy_s"] / wall
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.busy_s"] = sum(r.wall for r in cli if r.sub == sub)
    m["cli.exit_mismatch"] = sum(1 for r in cli if r.wrong)
    m["cli.startup_ms"] = cli_startup_ms() if cli else 0.0

    m["trace.overhead_frac"] = wall / sum(r.wall for r in plain) - 1.0
    m["selfcheck.share"] = 1.0 - sum(optimized) / wall

    units = {"busy_s": "s", "calls": "count", "share": "ratio", "exponent": "slope",
             "kept_frac": "ratio", "dup_factor": "ratio", "overhead_frac": "ratio",
             "chars_per_s": "1/s", "startup_ms": "ms"}
    n = len(traced)
    return {k: (v, units.get(k.rsplit(".", 1)[1], "count"), n) for k, v in sorted(m.items())}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def cli_startup_ms() -> float:
    """Interpreter start, import and argument parsing: ``python -m ntg``
    without a subcommand, which prints the usage and exits 2."""
    argv = [sys.executable, "-m", "ntg"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(STARTUPS):
        start = time.perf_counter()
        run_process(argv, env)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


class OptimizedChild:
    """The same job list, set up in a child interpreter under ``python -O``
    and traced there; runs one job per request so that its timings
    interleave with the parent's."""

    def __init__(self, args):
        argv = [sys.executable, "-O", str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "1", "--optimized-child"]
        self.proc = subprocess.Popen(argv + (["--tiny"] if args.tiny else []), cwd=str(ROOT),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the python -O child did not start")

    def run(self, index: int) -> float:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve_optimized(lib, jobs) -> int:
    """Child side of ``OptimizedChild``: one traced job per input line."""
    tracer = spans.Tracer(lib)
    tracer.install()
    print("ready", flush=True)
    for line in sys.stdin:
        i = int(line)
        print(run_job(lib, jobs[i], tracer, i).wall, flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke check")
    p.add_argument("--optimized-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "ntg" / "__init__.py").is_file():
        print(f"bench: no ntg sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # cache bytecode inside the checkout, for this process and every child,
    # so imports read compiled modules whatever the environment says
    cache = str(ROOT / ".bench_work" / "pycache")
    sys.pycache_prefix, sys.dont_write_bytecode = cache, False
    os.environ["PYTHONPYCACHEPREFIX"] = cache
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    setups: List[float] = []  # at the reference host speed
    raw_setups: List[float] = []  # as measured

    def timed_setup():
        gc.collect()
        calib = hostspeed.calibrate()
        t, lib, jobs = setup(args.workload, args.seed, args.tiny, workdir)
        setups.append(hostspeed.at_reference(t, calib))
        raw_setups.append(t)
        return lib, jobs

    lib, jobs = timed_setup()
    notes: List[str] = []
    if args.optimized_child:
        return serve_optimized(lib, jobs)

    if args.trace == 0:
        # the other set-ups run between the rounds, on inputs equal to the
        # ones in use, so that the median is taken over the whole run
        # rather than over its first seconds; the jobs keep the first ``lib``
        def between():
            if len(setups) < SETUPS:
                timed_setup()
        runs, rounds = timed_rounds(lib, jobs, args.seconds, between)
        while len(setups) < SETUPS:
            timed_setup()
        results = [job_time(r) for r in runs]
        report = end_to_end(jobs, results, setups)
        measured = end_to_end(jobs, [job_time(r, convert=False) for r in runs], raw_setups)
        calibs = [r.calib for rs in runs for r in rs]
        notes.append(f"# calibration run: median {statistics.median(calibs) * 1e3:.4g} ms over "
                     f"{len(calibs)}, reference {hostspeed.REFERENCE_S * 1e3:.4g} ms")
        notes += [f"# as measured: {name} {measured[name][0]:.6g} {measured[name][1]}"
                  for name in ("setup_s", "vertices_per_s", "job_p50_ms", "job_p90_ms")]
    else:
        child = OptimizedChild(args)
        try:
            tracer, results, traced, optimized = traced_pass(lib, jobs, child)
        finally:
            child.close()
        report = per_layer(tracer, jobs, results, traced, optimized)
        results += traced
        rounds = 1

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: {rounds} round(s) "
          f"of {len(jobs)} jobs")
    for note in notes:
        print(note)
    reasons = Counter(r.error for r in results if r.error is not None)
    for reason, count in sorted(reasons.items()):
        print(f"# failed {count}: {reason}")
    for name, (value, unit, n) in report.items():
        print(f"{name} {value:.6g} {unit} n={n}")
    # failed_frac is 0 on most workloads, so the summary carries ok_frac and
    # the failed count instead
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, n) in report.items() if name != "failed_frac"}
    summary = {
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if r.error is not None),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
