"""Run the benchmark on every workload over several seeds and summarise.

From the root of a checkout:

    python3 bench/collect.py --runs 1                  # every workload once
    python3 bench/collect.py --runs 1 --trace 1        # the traced runs
    python3 bench/collect.py --runs 10 --out bench/trajectory/BENCH_<label>.json

Runs ``bench/run.py`` once per seed and workload, one run at a time, with
the run length in ``BENCHMARK.json``, and echoes each run's report (every
metric with its unit and sample count) to stderr.  For every metric it
then prints and records the median, the quartiles and the spread (distance
between the quartiles as a share of the median) next to the metric's
bound, if it has one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0,
                "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append", help="repeatable; default every workload")
    p.add_argument("--label", default="", help="recorded in the output, e.g. a commit id")
    p.add_argument("--out", help="JSON file to write")
    args = p.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"label": args.label, "trace": args.trace, "run_seconds": spec["run_seconds"],
              "runs": args.runs, "python": sys.version.split()[0], "workloads": {}}
    for name in names:
        values = {}
        units = {}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            sys.stderr.write("\n".join(lines[:-1]) + f"\n# {time.perf_counter() - start:.1f} s\n")
            out = json.loads(lines[-1])
            attempted += out["attempted"]
            failed += out["failed"]
            for m, v in out["metrics"].items():
                values.setdefault(m, []).append(v["value"])
                units[m] = v["unit"]
        rows = {m: dict(summarise(v), unit=units[m], bound=bounds.get(m)) for m, v in values.items()}
        report["workloads"][name] = {"attempted": attempted, "failed": failed, "metrics": rows}
        for m, r in rows.items():
            bound = r["bound"]
            flag = "  <-- spread above bound/3" if bound and r["spread"] >= bound / 3 else ""
            print(f"{name:17s} {m:40s} median {r['median']:12.6g} {r['unit']:6s} "
                  f"spread {r['spread']:.4f} bound {bound}{flag}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
