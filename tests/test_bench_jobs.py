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


def _no_token_grammar(text):
    raise AssertionError("a well-formed document went through the token grammar")


@pytest.mark.parametrize("workload", ["flat-chains", "deep-nesting", "shared-recursion"])
def test_tiny_jobs_read_documents_statement_by_statement(workload, monkeypatch):
    # the token grammar only names errors; every benchmark document is
    # well formed, so each must take the statement-level reader
    monkeypatch.setattr(ntg.formats, "_Tokens", _no_token_grammar)
    jobs, _ = workloads.WORKLOADS[workload](random.Random(1), True)
    for job in jobs:
        if not job.sub:
            job.run(ntg, workloads.Outcome())


def test_deep_flattening_is_read_statement_by_statement(monkeypatch):
    from generators import depth_family

    doc = ntg.print_fo(ntg.interpret(depth_family(400)))
    monkeypatch.setattr(ntg.formats, "_Tokens", _no_token_grammar)
    assert len(ntg.parse_fo(doc)) == 162804


def test_tiny_jobs_unfold_each_source_body_with_one_walk(monkeypatch):
    # unfold_to_ntg lists a body's reachable occurrences once per call, not
    # once per instance of its symbol
    walks = []
    walk, unfold = ntg.rgs.reachable, ntg.rgs.unfold_to_ntg
    shared = 0

    def counted_walk(g, start):
        walks.append(g)
        return walk(g, start)

    def counted_unfold(r, depth=None):
        nonlocal shared
        ntg.dependency_ars(r)  # walks every body once per specification, not per call
        walks.clear()
        res = unfold(r, depth)
        for sym, body in r.rec.items():
            assert sum(g is body for g in walks) <= 1, sym
        shared += len(res.rgs.rec) > len(r.rec)
        return res

    monkeypatch.setattr(ntg.rgs, "reachable", counted_walk)
    monkeypatch.setattr(ntg, "unfold_to_ntg", counted_unfold)
    jobs, _ = workloads.WORKLOADS["shared-recursion"](random.Random(1), True)
    for job in jobs:
        job.run(ntg, workloads.Outcome())
    assert shared > 0


def test_tiny_chain_jobs_refine_only_to_collapse(monkeypatch):
    # tg_bisimilar decides by a union-find pair closure and never refines:
    # each chain job refines once in tg_collapse and once in ntg_collapse
    calls = []
    refine = ntg.graph._refine

    def counted_refine(lab, args):
        calls.append(len(lab))
        return refine(lab, args)

    monkeypatch.setattr(ntg.graph, "_refine", counted_refine)
    monkeypatch.setattr(ntg.firstorder, "_refine", counted_refine)
    jobs, _ = workloads.WORKLOADS["flat-chains"](random.Random(1), True)
    in_process = [job for job in jobs if not job.sub]
    assert in_process
    for job in in_process:
        calls.clear()
        data = job.run(ntg, workloads.Outcome())
        assert job.check(ntg, data) is None
        assert len(calls) == 2, calls


def test_tiny_query_jobs_tabulate_each_pair_once(monkeypatch):
    # nested_bisim and nested_hom of one pair read one summary table, and
    # the unfolded pair that ntg_bisimilar decides gets its own
    calls, parsed, unfolded = [], [], []
    tabulate, parse, unfold = ntg.equivalence._tabulate, ntg.parse_rgs, ntg.unfold_to_ntg
    monkeypatch.setattr(ntg.equivalence, "_tabulate", lambda r1, r2: calls.append((r1, r2)) or tabulate(r1, r2))
    monkeypatch.setattr(ntg, "parse_rgs", lambda text: parsed.append(parse(text)) or parsed[-1])
    monkeypatch.setattr(ntg, "unfold_to_ntg", lambda r, depth=None: unfolded.append(unfold(r, depth)) or unfolded[-1])
    jobs, _ = workloads.WORKLOADS["shared-recursion"](random.Random(1), True)
    assert jobs and all(isinstance(job, workloads.QueryJob) for job in jobs)
    both = 0
    for job in jobs:
        for seen in (calls, parsed, unfolded):
            seen.clear()
        out = workloads.Outcome()
        assert job.check(ntg, job.run(ntg, out)) is None
        want = [tuple(parsed)] + ([tuple(u.rgs for u in unfolded)] if unfolded else [])
        assert len(calls) == len(want)
        assert all(x is u and y is v for (x, y), (u, v) in zip(calls, want))
        both += len(want) == 2
    assert 0 < both < len(jobs)
