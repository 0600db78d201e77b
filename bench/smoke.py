"""Smoke check of the benchmark at tiny sizes.

From the root of a checkout:

    python3 bench/smoke.py

Runs every workload once with ``--trace 0`` and once with ``--trace 1``
on tiny inputs and checks that each metric named in ``BENCHMARK.json`` is
printed with its unit and sample count and appears in the JSON summary
with the same unit, that no other metric does, and that every job passed
its check.  Takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402


def check_run(spec, workload: str, trace: int) -> list:
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    printed = {row[0]: row for row in (line.split() for line in lines[:-1])
               if row and not row[0].startswith("#")}
    # the summary carries ok_frac in place of failed_frac, which is 0 on
    # most workloads; the printed report has both
    units = {m["name"]: m["unit"] for m in wanted}
    units_printed = dict(units, failed_frac="ratio") if trace == 0 else units
    problems = []
    for name, unit in units_printed.items():
        row = printed.get(name)
        if row is None or len(row) != 4 or row[2] != unit or not row[3].startswith("n="):
            problems.append(f"{where}: {name} not printed as '<name> <value> {unit} n=<count>'")
    for name, unit in units.items():
        got = summary["metrics"].get(name)
        if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: {name} missing from the summary or not in {unit}")
    for name in set(summary["metrics"]) - set(units):
        problems.append(f"{where}: unexpected metric {name} in the summary")
    if not summary["correct"] or summary["failed"] or summary["attempted"] < 1:
        problems.append(f"{where}: correct={summary['correct']}, failed={summary['failed']}, "
                        f"attempted={summary['attempted']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    # every workload run.py knows, including any left out of BENCHMARK.json
    for name in WORKLOADS:
        for trace in (0, 1):
            problems += check_run(spec, name, trace)
    for p in problems:
        print(p)
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
