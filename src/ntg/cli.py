"""Command-line front end.

Every subcommand is a thin adapter around one library call.  Exit codes:
0 success or the checked property holds, 1 the property fails, 2 parse or
usage errors and exhausted resources (recursion depth, memory), 3
disagreement between two deciders that must coincide (which would be an
implementation bug).

Run as ``python -m ntg <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import equivalence, firstorder, formats, rgs as rgs_mod
from .graph import tg_bisimilar_explained, tg_hom_explained
from .rgs import Cycle, MissingDepthError, is_ntg, unfold_to_ntg
from .sntg import ntg_to_sntg, sntg_hom_explained

OK, FAIL, USAGE, DISAGREE = 0, 1, 2, 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: Optional[str], stdout):
    if path is None:
        stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _is_fo(text: str) -> bool:
    """Whether a document is first-order: its first line that is neither
    blank nor a ``#`` comment opens with ``tg``.  As in the reader, a
    comment ends only at a newline."""
    for line in text.split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            return line.startswith("tg")
    return False


def _load_rgs(path: str):
    return formats.parse_rgs(_read(path))


def _load_ntg(path: str, stderr, decider: str = "bisim --method nested"):
    """Parse and, when the dependencies are acyclic but shared, unfold."""
    return _tree_shaped(_load_rgs(path), path, stderr, decider)


def _tree_shaped(r, path: str, stderr, decider: str = "bisim --method nested"):
    """``r``, read from ``path``, or, when its dependencies are acyclic but
    shared, its unfolding.

    Cyclic input has no tree-shaped form at any depth, so it is refused
    with a pointer to ``decider``, the command that decides it."""
    res = is_ntg(r)
    if res.ok:
        return r
    if isinstance(res.defect, Cycle):
        raise ValueError(
            f"{path} has cyclic dependencies, so it has no tree-shaped form "
            f"({decider} decides cyclic input)"
        )
    unfolded = unfold_to_ntg(r).rgs
    print(f"note: unfolded {path} into a tree-shaped specification", file=stderr)
    return unfolded


def run_cli(argv, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else OK
    if not hasattr(ns, "cmd"):
        parser.print_usage(stderr)
        return USAGE
    try:
        return ns.cmd(ns, stdout, stderr)
    except formats.ParseError as e:
        print(f"parse error: {e}", file=stderr)
        return USAGE
    except formats.ValidationError as e:
        for v in e.violations:
            print(f"invalid specification: {v}", file=stderr)
        return USAGE
    except MissingDepthError as e:
        print(f"error: {e} (use --depth)", file=stderr)
        return USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=stderr)
        return USAGE
    except (RecursionError, MemoryError) as e:
        print(f"error: input too large for this process ({str(e) or type(e).__name__})", file=stderr)
        return USAGE


def main():  # pragma: no cover
    sys.exit(run_cli(sys.argv[1:]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntg", description="nested term graph toolkit", add_help=True
    )
    sub = parser.add_subparsers()

    def cmd(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(cmd=fn)
        return p

    p = cmd("validate", _cmd_validate, help="check a specification document")
    p.add_argument("file")

    p = cmd("deps", _cmd_deps, help="print the dependency steps")
    p.add_argument("file")

    p = cmd("is-ntg", _cmd_is_ntg, help="is the specification tree-shaped?")
    p.add_argument("file")

    p = cmd("unfold", _cmd_unfold, help="unfold into a tree-shaped specification")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("-o", "--output", default=None)

    p = cmd("sntg", _cmd_sntg, help="print the structural representation")
    p.add_argument("file")

    p = cmd("interpret", _cmd_interpret, help="flatten into a first-order graph")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = cmd("represent", _cmd_represent, help="read a first-order graph back")
    p.add_argument("fofile")
    p.add_argument("-o", "--output", default=None)

    p = cmd("collapse", _cmd_collapse, help="maximally shared form")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = cmd("bisim", _cmd_bisim, help="decide bisimilarity of two specifications")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--method", choices=["nested", "firstorder", "both"], default="nested")

    p = cmd("hom", _cmd_hom, help="search a homomorphism between two inputs")
    p.add_argument("a")
    p.add_argument("b")
    # nested compares the specifications as given, by the stack-based
    # decider; the other levels need tree-shaped or first-order input
    p.add_argument("--level", choices=["ntg", "sntg", "fo", "nested"], default="ntg")

    p = cmd("roundtrip", _cmd_roundtrip, help="flatten, read back, compare")
    p.add_argument("file")

    p = cmd("dot", _cmd_dot, help="render as a DOT digraph")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    return parser


def _cmd_validate(ns, stdout, stderr) -> int:
    try:
        formats.parse_rgs(_read(ns.file))
    except formats.ValidationError as e:
        for v in e.violations:
            print(str(v), file=stderr)
        return FAIL
    print("ok", file=stdout)
    return OK


def _cmd_deps(ns, stdout, stderr) -> int:
    r = _load_rgs(ns.file)
    for step in rgs_mod.dependency_ars(r).steps:
        print(f"{step.source} -> {step.target} at {step.source}.{step.vertex}", file=stdout)
    return OK


def _cmd_is_ntg(ns, stdout, stderr) -> int:
    r = _load_rgs(ns.file)
    res = is_ntg(r)
    if res.ok:
        print("yes", file=stdout)
        return OK
    print("no", file=stdout)
    print(str(res.defect), file=stderr)
    return FAIL


def _cmd_unfold(ns, stdout, stderr) -> int:
    r = _load_rgs(ns.file)
    res = unfold_to_ntg(r, ns.depth)
    if res.truncated:
        print(
            f"note: truncated at depth {ns.depth} ({res.cuts} calls cut); "
            "the result is for inspection only",
            file=stderr,
        )
    _write_out(formats.print_rgs(res.rgs), ns.output, stdout)
    return OK


def _cmd_sntg(ns, stdout, stderr) -> int:
    n = _load_ntg(ns.file, stderr)
    s = ntg_to_sntg(n)
    for v in sorted(s.tg.lab, key=str):
        parts = [f"{v}: {s.tg.lab[v]}"]
        if s.tg.args[v]:
            parts.append("(" + ", ".join(s.tg.args[v]) + ")")
        if v in s.call:
            parts.append(f" call->{s.call[v]}")
        if v in s.ret:
            parts.append(f" return->{s.ret[v]}")
        parts.append(" anc=[" + " ".join(s.anc[v]) + "]")
        print("".join(parts), file=stdout)
    return OK


def _cmd_interpret(ns, stdout, stderr) -> int:
    n = _load_ntg(ns.file, stderr)
    g = firstorder.interpret(n)
    _write_out(formats.print_fo(g), ns.output, stdout)
    return OK


def _cmd_represent(ns, stdout, stderr) -> int:
    g = formats.parse_fo(_read(ns.fofile))
    depth, defect = firstorder._member_ancestors(g)  # one membership pass
    if defect is not None:
        print(f"not a representing graph: {defect}", file=stderr)
        return FAIL
    n = firstorder._read_back(g, depth)
    _write_out(formats.print_rgs(n), ns.output, stdout)
    return OK


def _cmd_collapse(ns, stdout, stderr) -> int:
    n = _load_ntg(ns.file, stderr)
    _write_out(formats.print_rgs(firstorder.ntg_collapse(n)), ns.output, stdout)
    return OK


def _cmd_bisim(ns, stdout, stderr) -> int:
    r1, r2 = _load_rgs(ns.a), _load_rgs(ns.b)
    verdicts = {}
    if ns.method in ("nested", "both"):
        res = equivalence.nested_bisim(r1, r2)
        verdicts["nested"] = res.bisimilar
        if not res.bisimilar:
            print(f"counterexample: {res.counterexample} ({res.reason})", file=stderr)
    if ns.method in ("firstorder", "both"):
        n1 = _tree_shaped(r1, ns.a, stderr)
        n2 = _tree_shaped(r2, ns.b, stderr)
        g1, g2 = firstorder.interpret(n1), firstorder.interpret(n2)
        path = tg_bisimilar_explained(g1, g2)
        verdicts["firstorder"] = path is None
        if path is not None:
            v, w = g1.root, g2.root
            for k in path:
                v, w = g1.args[v][k], g2.args[w][k]
            print(
                f"first-order counterexample: argument positions {list(path)} "
                f"lead to {v} ({g1.lab[v]}) and {w} ({g2.lab[w]})",
                file=stderr,
            )
    if len(verdicts) == 2 and verdicts["nested"] != verdicts["firstorder"]:
        print(
            "oracle disagreement: "
            f"nested={verdicts['nested']} firstorder={verdicts['firstorder']}",
            file=stderr,
        )
        return DISAGREE
    answer = next(iter(verdicts.values()))
    print("bisimilar" if answer else "not-bisimilar", file=stdout)
    return OK if answer else FAIL


_HOM_DECIDER = "hom --level nested"


def _load_fo(path: str, stderr):
    """A first-order graph: read directly or obtained by flattening."""
    text = _read(path)
    if _is_fo(text):
        return formats.parse_fo(text)
    return firstorder.interpret(_load_ntg(path, stderr, decider=_HOM_DECIDER))


def _refutation(res) -> str:
    """The certificate of a "none" from ``nested_hom``, on one line."""
    shown = res.conflict or (res.counterexample,)
    return f"{' and '.join(map(str, shown))} ({res.reason})"


def _cmd_hom(ns, stdout, stderr) -> int:
    pairs = None
    if ns.level == "nested":
        res = equivalence.nested_hom(_load_rgs(ns.a), _load_rgs(ns.b))
        if res.exists:
            print("hom", file=stdout)
            return OK
        conflict = _refutation(res)
    elif ns.level == "fo":
        g1 = _load_fo(ns.a, stderr)
        g2 = _load_fo(ns.b, stderr)
        phi, conflict = tg_hom_explained(g1, g2)
        pairs = sorted(phi.items()) if phi else None
    elif ns.level == "sntg":
        s1 = ntg_to_sntg(_load_ntg(ns.a, stderr, decider=_HOM_DECIDER))
        s2 = ntg_to_sntg(_load_ntg(ns.b, stderr, decider=_HOM_DECIDER))
        phi, conflict = sntg_hom_explained(s1, s2)
        pairs = sorted(phi.items()) if phi else None
    else:
        n1 = _load_ntg(ns.a, stderr, decider=_HOM_DECIDER)
        n2 = _load_ntg(ns.b, stderr, decider=_HOM_DECIDER)
        phi, res = equivalence._ntg_hom(n1, n2)
        if phi is None:
            conflict = _refutation(res)
        else:
            pairs = sorted((f"{a[0]}.{a[1]}", f"{b[0]}.{b[1]}") for a, b in phi.items())
    if pairs is None:
        print("none", file=stdout)
        print(f"no homomorphism: {conflict}", file=stderr)
        return FAIL
    for a, b in pairs:
        print(f"{a} -> {b}", file=stdout)
    return OK


def _cmd_roundtrip(ns, stdout, stderr) -> int:
    n = _load_ntg(ns.file, stderr)
    back = firstorder.represent(firstorder.interpret(n))
    if equivalence.ntg_isomorphic(n, back) is not None:
        print("roundtrip ok", file=stdout)
        return OK
    print("roundtrip mismatch", file=stdout)
    return FAIL


def _cmd_dot(ns, stdout, stderr) -> int:
    text = _read(ns.file)
    value = formats.parse_fo(text) if _is_fo(text) else formats.parse_rgs(text)
    _write_out(formats.export_dot(value), ns.output, stdout)
    return OK
