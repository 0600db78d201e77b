"""The four workloads: seeded job lists and the check of every job.

A job's ``run`` is the timed part and calls the library only through the
``ntg`` package passed in.  Its ``check`` runs afterwards, untimed, and
compares the outputs with answers known by construction.  Decider
queries are counted on the ``Outcome``: ``unknown_at_depth`` or a raised
error is a query without an exact verdict.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import gen

# a job slower than this counts as failed and enters the samples at the cap
CAP_S = 10.0


@dataclass
class Outcome:
    queries: int = 0
    exact: int = 0
    errors: List[str] = field(default_factory=list)  # "pass: ExceptionName"

    def decide(self, call: Callable, exact: Callable[[object], bool] = lambda r: True):
        self.queries += 1
        result = call()
        if exact(result):
            self.exact += 1
        return result


def _exact_verdict(res) -> bool:
    return res.verdict != "unknown_at_depth"


def _body_vertices(n) -> int:
    return sum(len(g) for g in n.rec.values())


def _fixed_point(lib, text: str) -> bool:
    return lib.print_rgs(lib.parse_rgs(text)) == text


class Job:
    vertices: int = 0  # input vertices over the documents the job reads
    sub: str = ""  # CLI subcommand, empty for in-process jobs
    # a tail job is large: it runs once, after the timed rounds and outside
    # their budget, instead of in every round
    tail = False

    def run(self, lib, out: Outcome):
        raise NotImplementedError

    def check(self, lib, data) -> Optional[str]:
        """None when every output matches, else what differed."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# flat-chains
# ---------------------------------------------------------------------------


class ChainJob(Job):

    def __init__(self, case: gen.ChainCase, tail: bool = False):
        self.case = case
        self.vertices = case.vertices
        self.tail = tail

    def run(self, lib, out):
        a = lib.parse_rgs(self.case.text)
        b = lib.parse_rgs(self.case.copy)
        v = lib.parse_rgs(self.case.variant)
        fa, fb, fv = lib.interpret(a), lib.interpret(b), lib.interpret(v)
        col, block = lib.tg_collapse(fa)
        same = out.decide(lambda: lib.tg_bisimilar(fa, fb))
        differ = out.decide(lambda: lib.tg_bisimilar(fa, fv))
        shared = lib.ntg_collapse(a)
        return fa, col, block, same, differ, shared, lib.print_rgs(shared)

    def check(self, lib, data):
        fa, col, block, same, differ, shared, text = data
        c = self.case
        if len(col) != c.flat_collapse:
            return f"tg_collapse kept {len(col)} vertices, expected {c.flat_collapse}"
        if lib.verify_tg_hom(fa, col, block) is not None:
            return "quotient map is not a homomorphism"
        if same is not True or differ is not False:
            return f"tg_bisimilar gave {same}/{differ}, planted True/False"
        if _body_vertices(shared) != c.ntg_collapse:
            return f"ntg_collapse kept {_body_vertices(shared)} vertices, expected {c.ntg_collapse}"
        if not _fixed_point(lib, text):
            return "print_rgs is not a fixed point after one parse"
        return None


def flat_chains(rng: random.Random, tiny: bool):
    sizes = gen.log_uniform_sizes(12 if tiny else 100, 8, 24 if tiny else 48)
    rng.shuffle(sizes)
    jobs = [ChainJob(gen.chain_case(rng, n)) for n in sizes]
    # the size tail, where tg_collapse's superlinear cost dominates the
    # per-call costs; at the seed commit, on a 2-core VM under Python 3.11,
    # a chain job takes 6 s at n = 400, and ntg_collapse raises
    # RecursionError at n = 600
    jobs += [ChainJob(gen.chain_case(rng, n), tail=True)
             for n in gen.log_uniform_sizes(4, *((32, 64) if tiny else (128, 400)))]
    return jobs, {}


# ---------------------------------------------------------------------------
# deep-nesting
# ---------------------------------------------------------------------------


class DepthJob(Job):

    def __init__(self, case: gen.DepthCase, tail: bool = False):
        self.case = case
        self.vertices = case.vertices
        self.tail = tail

    def run(self, lib, out):
        n = lib.parse_rgs(self.case.text)
        problems = lib.validate_rgs(n)
        tree = lib.is_ntg(n)
        back = lib.sntg_to_ntg(lib.ntg_to_sntg(n))
        flat = lib.interpret(n)
        reread = lib.parse_fo(lib.print_fo(flat))
        iso = out.decide(lambda: lib.ntg_isomorphic(n, lib.represent(reread)))
        shared = lib.ntg_collapse(n)
        return problems, tree, back, iso, shared, lib.print_rgs(shared)

    def check(self, lib, data):
        problems, tree, back, iso, shared, text = data
        c = self.case
        if problems or not tree.ok:
            return "generated specification rejected"
        if len(back.rec) != c.d + 1 or _body_vertices(back) != c.vertices:
            return "sntg_to_ntg changed the size of the specification"
        if iso is None:
            return "represent(interpret(n)) is not isomorphic to n"
        if _body_vertices(shared) != c.ntg_collapse or len(shared.rec) != c.d + 1:
            return f"ntg_collapse kept {_body_vertices(shared)} vertices, expected {c.ntg_collapse}"
        if not _fixed_point(lib, text):
            return "print_rgs is not a fixed point after one parse"
        return None


class DeepTailJob(Job):
    """Depth around 1000-1500: only the passes that do not flatten.

    Each pass runs even when an earlier one raised, so every error at this
    depth is recorded; the job fails if any pass raised.
    """

    tail = True

    def __init__(self, rng: random.Random, d: int):
        doc = gen.depth_doc(d)
        self.d = d
        self.text = gen.render(doc, rng)
        self.copy = gen.render(gen.renamed(doc, "_b"), rng)
        self.vertices = 2 * doc.vertices()

    def run(self, lib, out):
        n = lib.parse_rgs(self.text)
        m = lib.parse_rgs(self.copy)
        passes = {
            "dependency_height": lambda: lib.dependency_height(n),
            "ntg_to_sntg": lambda: len(lib.ntg_to_sntg(n).tg),
            "ntg_isomorphic": lambda: out.decide(lambda: lib.ntg_isomorphic(n, m)),
            "ntg_bisimilar": lambda: out.decide(lambda: lib.ntg_bisimilar(n, m)),
            "nested_bisim": lambda: out.decide(lambda: lib.nested_bisim(n, m), _exact_verdict),
        }
        results = {}
        for name, call in passes.items():
            try:
                results[name] = call()
            except (RecursionError, MemoryError) as e:
                out.errors.append(f"{name}: {type(e).__name__}")
        return results

    def check(self, lib, results):
        expect = {
            "dependency_height": lambda r: r == self.d,
            "ntg_to_sntg": lambda r: r == self.vertices // 2 + 1,
            "ntg_isomorphic": lambda r: r is not None,
            "ntg_bisimilar": lambda r: r is not None,
            "nested_bisim": lambda r: r.verdict == "bisimilar",
        }
        for name, ok in expect.items():
            if name in results and not ok(results[name]):
                return f"{name} gave a wrong answer"
        return None


def deep_nesting(rng: random.Random, tiny: bool):
    # up to d = 32, so that the slowest tenth of these jobs takes longer
    # than the CLI jobs below and job_p90_ms is not set by process start-up
    sizes = gen.log_uniform_sizes(12 if tiny else 100, 3, 8 if tiny else 32)
    jobs: List[Job] = [DepthJob(gen.depth_case(rng, d)) for d in sizes]
    # the size tail, where represent, print_fo and the other passes over
    # |flat| dominate; at the seed commit, on the same VM, a depth job takes
    # 0.7 s at d = 40 and 9.7 s, just under the per-job cap, at d = 80
    jobs += [DepthJob(gen.depth_case(rng, d), tail=True)
             for d in gen.log_uniform_sizes(4, *((10, 16) if tiny else (34, 68)))]
    # the deep tail: two jobs spread evenly over depths 1000 to 1500
    jobs += [DeepTailJob(rng, d) for d in gen.log_uniform_sizes(2, *((30, 40) if tiny else (1000, 1500)))]
    # two `python -m ntg roundtrip` runs on small depth documents, so that
    # the cli layer is also measured on this workload; in the tail, since
    # process start-up does not follow the in-process host-speed calibration
    files: Dict[str, str] = {}
    for i, d in enumerate(gen.log_uniform_sizes(2, 3, 10)):
        doc = gen.depth_doc(d)
        files[f"depth{i}.rgs"] = gen.render(doc, rng)
        jobs.append(CliJob("roundtrip", [f"depth{i}.rgs"], 0, doc.vertices(), tail=True))
    rng.shuffle(jobs)
    return jobs, files


# ---------------------------------------------------------------------------
# shared-recursion
# ---------------------------------------------------------------------------


class QueryJob(Job):
    def __init__(self, q: gen.Query):
        self.q = q
        self.vertices = q.vertices

    def run(self, lib, out):
        q = self.q
        a = lib.parse_rgs(q.left)
        b = lib.parse_rgs(q.right)
        bis = out.decide(lambda: lib.nested_bisim(a, b, q.depth), _exact_verdict)
        hom = out.decide(lambda: lib.nested_hom(a, b, q.depth), _exact_verdict)
        problems = None
        if bis.relation is not None:
            problems = lib.verify_nested_bisim(bis.relation, a, b)
        witness = cuts = None
        if q.depth is None:
            ua, ub = lib.unfold_to_ntg(a), lib.unfold_to_ntg(b)
            cuts = ua.cuts + ub.cuts
            witness = out.decide(lambda: lib.ntg_bisimilar(ua.rgs, ub.rgs))
        return bis, hom, problems, cuts, witness

    def check(self, lib, data):
        bis, hom, problems, cuts, witness = data
        pos = self.q.positive
        want_bis, want_hom = ("bisimilar", "hom") if pos else ("not_bisimilar", "none")
        if bis.verdict not in (want_bis, "unknown_at_depth"):
            return f"nested_bisim said {bis.verdict}, planted {want_bis}"
        if hom.verdict not in (want_hom, "unknown_at_depth"):
            return f"nested_hom said {hom.verdict}, planted {want_hom}"
        if problems:
            return "verify_nested_bisim: " + problems[0]
        if self.q.depth is None:
            if cuts:
                return "unfolding an acyclic specification cut calls"
            if (witness is not None) != pos:
                return f"ntg_bisimilar disagrees with the planted verdict {pos}"
        return None


def shared_recursion(rng: random.Random, tiny: bool):
    # balanced schedules: every seed has the same sizes, each once positive
    # and once negative, so the mix of costs and verdicts does not move
    schedule = {
        "fanout": (range(2, 5 if tiny else 8), 1 if tiny else 3),
        "shared": (range(3, 6 if tiny else 9), 1 if tiny else 3),
        "cyclic": (range(2, 6 if tiny else 25, 2), 1 if tiny else 2),
    }
    jobs: List[Job] = [
        QueryJob(gen.query(rng, kind, positive, k, unfold=r % 2 == 0))
        for kind, (sizes, repeat) in schedule.items()
        for r in range(repeat)
        for k in sizes
        for positive in (True, False)
    ]
    rng.shuffle(jobs)
    return jobs, {}


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------


class CliJob(Job):

    def __init__(self, sub: str, files: List[str], expect: int, vertices: int,
                 tail: bool = False):
        self.tail = tail
        self.sub = sub
        self.files = files
        self.expect = expect
        self.vertices = vertices
        self.argv: List[str] = []
        self.env: Dict[str, str] = {}

    def bind(self, src: str, workdir: str):
        flags = ["-O"] if sys.flags.optimize else []
        paths = [os.path.join(workdir, f) for f in self.files]
        self.argv = [sys.executable, *flags, "-m", "ntg", self.sub, *paths]
        self.env = dict(os.environ, PYTHONPATH=src)

    def run(self, lib, out):
        call = lambda: run_process(self.argv, self.env)  # noqa: E731
        if self.sub in ("bisim", "hom"):
            return out.decide(call, lambda rc: rc in (0, 1))
        return call()

    def check(self, lib, code):
        if code != self.expect:
            return f"{self.sub} exited {code}, expected {self.expect}"
        return None


def run_process(argv: List[str], env: Dict[str, str]) -> int:
    """Exit code of one child process.

    The wait blocks, so the measured time is not rounded up to the polling
    interval of ``subprocess.run(timeout=...)``; a timer thread kills a
    child that runs past the cap.
    """
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(CAP_S, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


CLI_SUBCOMMANDS = ("validate", "is-ntg", "roundtrip", "collapse", "bisim", "hom")


def cli_files(rng: random.Random, tiny: bool):
    per_sub = 2 if tiny else 17
    files: Dict[str, str] = {}
    jobs: List[Job] = []

    def put(text: str) -> str:
        name = f"doc{len(files)}.rgs"
        files[name] = text
        return name

    # sizes graded up to medium, so the slowest tenth of the jobs is set
    # by document size rather than by start-up noise
    chains = gen.log_uniform_sizes(per_sub // 2 + 1, 8, 128)
    depths = gen.log_uniform_sizes(per_sub // 2 + 1, 3, 24)

    def tree_doc(i: int):
        """A small or medium tree-shaped document with a renamed copy and
        a variant whose first constant is the fresh atom ``z``."""
        if i % 2:
            doc = gen.chain_doc(chains[i // 2], "s")
        else:
            doc = gen.depth_doc(depths[i // 2])
        sym, v = gen.constants(doc)[0]
        return doc, gen.renamed(doc, "_b"), gen.relabel(doc, sym, v, "z")

    for i in range(per_sub):
        doc, copy, variant = tree_doc(i)
        a, b, c = put(gen.render(doc, rng)), put(gen.render(copy, rng)), put(gen.render(variant, rng))
        n = doc.vertices()
        shared = gen.fanout_doc(2 + i % 6) if i % 2 else gen.random_shared_doc(rng, 3 + i % 6)
        s = put(gen.render(shared, rng))
        cyc = gen.cyclic_doc(1 + i % 3)
        y = put(gen.render(cyc, rng))
        if i % 4 == 3:
            bad = gen.invalid_doc(2 + i % 5)
            jobs.append(CliJob("validate", [put(gen.render(bad, rng))], 1, bad.vertices()))
        else:
            jobs.append(CliJob("validate", [a], 0, n))
        if i % 3 == 0:
            jobs.append(CliJob("is-ntg", [a], 0, n))
        elif i % 3 == 1:
            jobs.append(CliJob("is-ntg", [s], 1, shared.vertices()))
        else:
            jobs.append(CliJob("is-ntg", [y], 1, cyc.vertices()))
        if i % 2:
            jobs.append(CliJob("roundtrip", [s], 0, shared.vertices()))
        else:
            jobs.append(CliJob("roundtrip", [a], 0, n))
        jobs.append(CliJob("collapse", [a], 0, n))
        if i % 3 == 2:
            neg = gen.relabel(shared, *gen.constants(shared)[0], "z")
            jobs.append(CliJob("bisim", [s, put(gen.render(neg, rng))], 1,
                               shared.vertices() + neg.vertices()))
        elif i % 2:
            jobs.append(CliJob("bisim", [a, b], 0, 2 * n))
        else:
            jobs.append(CliJob("bisim", [a, c], 1, 2 * n))
        if i % 2:
            jobs.append(CliJob("hom", [a, c], 1, 2 * n))
        else:
            jobs.append(CliJob("hom", [a, b], 0, 2 * n))
    rng.shuffle(jobs)
    return jobs, files


# name -> function(rng, tiny) returning the job list and the documents the
# jobs read from files, as {file name: text}
WORKLOADS = {
    "flat-chains": flat_chains,
    "deep-nesting": deep_nesting,
    "shared-recursion": shared_recursion,
    "cli-files": cli_files,
}
