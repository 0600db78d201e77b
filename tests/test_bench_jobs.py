"""The benchmark's in-process jobs, at their tiny sizes, pass their checks.

Each job checks the library's outputs against answers known by
construction (collapse sizes, quotient maps, round trips, planted
verdicts), so a library change that breaks one of those answers fails
here and not only in a benchmark run.
"""

import pathlib
import random
import sys

import pytest

import ntg

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["flat-chains", "deep-nesting", "shared-recursion"])
def test_tiny_jobs_pass_their_checks(workload):
    jobs, _ = workloads.WORKLOADS[workload](random.Random(1), True)
    in_process = [job for job in jobs if not job.sub]
    assert in_process
    queries = exact = 0
    for job in in_process:
        out = workloads.Outcome()
        data = job.run(ntg, out)
        assert job.check(ntg, data) is None, type(job).__name__
        assert out.errors == [], type(job).__name__
        queries += out.queries
        exact += out.exact
    # every decider query gets an exact verdict, cyclic ones included
    assert exact == queries
