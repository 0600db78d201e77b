import io
import pathlib
import subprocess
import sys

import pytest

from ntg import run_cli

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parent.parent / "src"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def path(name):
    return str(DATA / name)


def test_validate_ok():
    code, out, err = run("validate", path("n.rgs"))
    assert code == 0 and out.strip() == "ok"


def test_validate_reports_violations(tmp_path):
    doc = tmp_path / "bad.rgs"
    doc.write_text("atomic c/0;\ndef r/0 { a: out(b); b: out(k); k: c; }\n")
    code, out, err = run("validate", str(doc))
    assert code == 1 and "output" in err


def test_validate_parse_error(tmp_path):
    doc = tmp_path / "bad.rgs"
    doc.write_text("atomic c/0;\ndef r/0 { a: out(b) }\n")
    code, out, err = run("validate", str(doc))
    assert code == 2


def test_validate_empty_body_is_parse_error(tmp_path):
    doc = tmp_path / "empty.rgs"
    doc.write_text("atomic c/0;\ndef f/0 { }\n")
    code, out, err = run("validate", str(doc))
    assert code == 2 and err == "parse error: line 2: definition 'f' has an empty body\n"


def test_deps_output():
    code, out, err = run("deps", path("r0.rgs"))
    assert code == 0
    assert out.count("s0 -> f2") == 2
    assert "s0 -> g" in out


def test_is_ntg_accepts():
    code, out, err = run("is-ntg", path("n.rgs"))
    assert code == 0 and out.strip() == "yes"


def test_is_ntg_rejects_shared_with_witness():
    code, out, err = run("is-ntg", path("r0.rgs"))
    assert code == 1 and out.strip() == "no"
    assert "f2" in err and "twice" in err


def test_is_ntg_rejects_cycle():
    code, out, err = run("is-ntg", path("r1.rgs"))
    assert code == 1 and "cycle" in err


def test_unfold_requires_depth_for_cycles():
    code, out, err = run("unfold", path("r1.rgs"))
    assert code == 2 and "--depth" in err


def test_unfold_with_depth(tmp_path):
    out_file = tmp_path / "u.rgs"
    code, out, err = run("unfold", path("r1.rgs"), "--depth", "3", "-o", str(out_file))
    assert code == 0 and "truncated" in err
    assert "def g@3/1" in out_file.read_text()


def test_sntg_listing():
    code, out, err = run("sntg", path("triv.rgs"))
    assert code == 0
    assert "call->" in out and "anc=" in out


def test_interpret_and_represent_roundtrip(tmp_path):
    fo_file = tmp_path / "n.fo"
    code, out, err = run("interpret", path("n.rgs"), "-o", str(fo_file))
    assert code == 0
    text = fo_file.read_text()
    assert text.startswith("tg {") and text.count("in_r") == 6
    code, out, err = run("represent", str(fo_file))
    assert code == 0 and "def " in out


def test_represent_rejects_non_member(tmp_path):
    doc = tmp_path / "bad.fo"
    doc.write_text("tg { root a; a: out_r(b); b: c(d); d: in_r(d2); d2: c(d); }\n")
    code, out, err = run("represent", str(doc))
    assert code == 1 and "not a representing graph" in err


def test_represent_refuses_a_symbol_of_two_arities(tmp_path):
    # a member of the representing class that no specification reads from
    doc = tmp_path / "two.fo"
    doc.write_text("tg { root r; r: out_r(a); a: f(c, k); c: c(e); e: in_r(r); "
                   "k: c(m); m: z(e2); e2: in_r(r); }\n")
    code, out, err = run("represent", str(doc))
    assert (code, out) == (2, "")
    assert err == "error: symbol 'c' occurs both as a constant and with arity 1\n"


def test_collapse_most_duplicated(tmp_path):
    out_file = tmp_path / "c.rgs"
    code, out, err = run("collapse", path("chain_d.rgs"), "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().count("def ") == 2


def test_bisim_nested_positive():
    code, out, err = run("bisim", path("n.rgs"), path("n.rgs"))
    assert code == 0 and out.strip() == "bisimilar"


def test_bisim_both_methods_agree():
    code, out, err = run("bisim", path("chain_a.rgs"), path("chain_d.rgs"), "--method", "both")
    assert code == 0 and out.strip() == "bisimilar"


def test_bisim_negative(tmp_path):
    doc = tmp_path / "other.rgs"
    doc.write_text("atomic c/0, d/0;\ndef r/0 { a: out(b); b: d; }\n")
    code, out, err = run("bisim", path("triv.rgs"), str(doc))
    assert code == 1 and out.strip() == "not-bisimilar"
    assert "counterexample" in err


def test_bisim_firstorder_negative_prints_its_path(tmp_path):
    doc = tmp_path / "other.rgs"
    doc.write_text("atomic c/0, d/0;\ndef r/0 { a: out(b); b: d; }\n")
    code, out, err = run("bisim", path("triv.rgs"), str(doc), "--method", "both")
    assert code == 1 and out.strip() == "not-bisimilar"
    line = next(x for x in err.splitlines() if x.startswith("first-order counterexample"))
    assert line == "first-order counterexample: argument positions [0] lead to r.b (c) and r.b (d)"


def test_bisim_unfolds_shared_input():
    code, out, err = run("bisim", path("r0.rgs"), path("r0.rgs"), "--method", "both")
    assert code == 0


def test_bisim_cyclic_without_depth():
    code, out, err = run("bisim", path("r1.rgs"), path("r1.rgs"))
    assert code == 0 and out.strip() == "bisimilar"
    # the first-order method flattens a finite unfolding, which a cyclic
    # specification does not have
    code, out, err = run("bisim", path("r1.rgs"), path("r1.rgs"), "--method", "both")
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ["collapse", "{r1}"],
    ["interpret", "{r1}"],
    ["roundtrip", "{r1}"],
    ["sntg", "{r1}"],
    ["hom", "{r1}", "{r1}", "--level", "ntg"],
    ["hom", "{r1}", "{r1}", "--level", "sntg"],
    ["hom", "{r1}", "{r1}", "--level", "fo"],
    ["bisim", "{r1}", "{r1}", "--method", "firstorder"],
    ["bisim", "{r1}", "{r1}", "--method", "both"],
], ids=" ".join)
def test_cyclic_input_points_to_the_nested_method(argv):
    # no depth makes a cyclic specification tree-shaped, so the hint names
    # the command that decides the same question instead of --depth
    code, out, err = run(*(a.format(r1=path("r1.rgs")) for a in argv))
    assert code == 2 and out == ""
    hint = "hom --level nested" if argv[0] == "hom" else "bisim --method nested"
    assert "cyclic" in err and f"({hint} decides cyclic input)" in err
    assert "--depth" not in err


# a cyclic specification in which both arguments of app are one shared
# vertex, in f and in g, and the same with each shared vertex split in two
SHARED_APP = """atomic lam/1, app/2, v/0;
root f;
def f/0 { o: out(l); l: app(go, go); go: g(w); w: v; }
def g/1 { o: out(l); l: app(a, a); a: lam(go); go: g(x); x: in 1; }
"""
SPLIT_APP = SHARED_APP.replace(
    "app(go, go); go: g(w);", "app(go, go2); go: g(w); go2: g(w);"
).replace("app(a, a); a: lam(go);", "app(a, b); a: lam(go); b: lam(go);")


def test_hom_nested_decides_cyclic_input(tmp_path):
    code, out, err = run("hom", path("r1.rgs"), path("r1_unrolled.rgs"), "--level", "nested")
    assert (code, out, err) == (0, "hom\n", "")
    shared, split = tmp_path / "shared.rgs", tmp_path / "split.rgs"
    shared.write_text(SHARED_APP)
    split.write_text(SPLIT_APP)
    code, out, err = run("hom", str(split), str(shared), "--level", "nested")
    assert (code, out) == (0, "hom\n")
    # a clash, with its configuration and reason
    code, out, err = run("hom", path("r1.rgs"), str(split), "--level", "nested")
    assert (code, out) == (1, "none\n")
    assert err == "no homomorphism: <f.l ~ f.l> (labels lam and app do not match)\n"


def test_hom_nested_reports_a_functionality_conflict(tmp_path):
    shared, split = tmp_path / "shared.rgs", tmp_path / "split.rgs"
    shared.write_text(SHARED_APP)
    split.write_text(SPLIT_APP)
    code, out, err = run("hom", str(shared), str(split), "--level", "nested")
    assert (code, out) == (1, "none\n")
    # of the conflicts in f and in g, the first in discovery order,
    # whatever the hash seed
    assert err == (
        "no homomorphism: <f.go ~ f.go> and <f.go ~ f.go2> "
        "(a left configuration meets two right configurations)\n"
    )
    cmd = [sys.executable, "-m", "ntg", "hom", str(shared), str(split), "--level", "nested"]
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    for seed in (1, 2):
        seeded = dict(env, PYTHONHASHSEED=str(seed))
        done = subprocess.run(cmd, capture_output=True, text=True, env=seeded)
        assert (done.returncode, done.stdout, done.stderr) == (1, out, err)


def test_clashing_vertex_names_exit_2(tmp_path):
    doc = tmp_path / "dots.rgs"
    doc.write_text(
        "atomic k/0, u/1;\nroot r;\ndef r/0 { o: out(p); p: u(x); x: a; }\n"
        "def a/0 { o: out(b.c); b.c: u(y); y: a.b; }\ndef a.b/0 { o: out(c); c: k; }\n"
    )
    for cmd in ("interpret", "collapse", "roundtrip", "sntg"):
        code, out, err = run(cmd, str(doc))
        assert code == 2 and out == "" and "a.b.c is ambiguous" in err, cmd


@pytest.mark.parametrize("case", ["root-called-once", "root-called-twice", "atomic"])
def test_unfolded_copy_names_clear_of_other_symbols(tmp_path, case):
    # a copy once took the name of the root or of an atomic symbol, and
    # the unfolding was refused as not tree-shaped or its signature as
    # declaring one symbol twice
    from conftest import COPY_NAME_CLASHES

    doc = tmp_path / "clash.rgs"
    doc.write_text(COPY_NAME_CLASHES[case])
    code, out, err = run("collapse", str(doc))
    assert code == 0 and out and "error" not in err
    code, out, err = run("bisim", str(doc), str(doc), "--method", "both")
    assert (code, out) == (0, "bisimilar\n") and "error" not in err


def test_represent_runs_the_membership_pass_once(monkeypatch):
    import ntg.firstorder

    calls = []
    member = ntg.firstorder._member_ancestors
    monkeypatch.setattr(ntg.firstorder, "_member_ancestors", lambda g: calls.append(g) or member(g))
    code, out, err = run("represent", path("n_flattened.fo"))
    assert code == 0 and out.startswith("atomic") and len(calls) == 1
    calls.clear()
    code, out, err = run("represent", path("n.rgs"))
    assert code == 2 and calls == []  # not a first-order document: refused by the parser


def test_bisim_parses_each_document_once(monkeypatch):
    # the first-order method unfolds the specifications the nested method
    # read, so both methods together parse each document once
    import ntg.formats

    calls = []
    parse = ntg.formats.parse_rgs
    monkeypatch.setattr(ntg.formats, "parse_rgs", lambda text: calls.append(text) or parse(text))
    for method in ("nested", "firstorder", "both"):
        calls.clear()
        code, out, err = run("bisim", path("r0.rgs"), path("n.rgs"), "--method", method)
        assert (code, out) == (0, "bisimilar\n") and len(calls) == 2, method


def test_bisim_depth_is_a_usage_error(capsys):
    # the nested method is exact and the first-order one unfolds shared
    # input in full, so bisim takes no depth
    code, out, err = run("bisim", path("r0.rgs"), path("r0.rgs"), "--method", "both", "--depth", "0")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --depth 0" in capsys.readouterr().err


def test_hom_levels():
    for level in ("ntg", "sntg", "fo"):
        code, out, err = run("hom", path("chain_d.rgs"), path("chain_c.rgs"), "--level", level)
        assert code == 0 and "->" in out, level
        code, out, err = run("hom", path("chain_c.rgs"), path("chain_d.rgs"), "--level", level)
        assert code == 1 and "no homomorphism" in err, level


def test_hom_fo_and_sntg_refute_like_nested():
    # a first-order conflict prints as <left ~ right> (reason), as the
    # configurations of --level ntg and nested do
    fo = run("hom", path("chain_a.rgs"), path("n.rgs"), "--level", "fo")
    assert fo == (1, "none\n", "no homomorphism: <f.o ~ n.l> (label out vs lam)\n")
    sntg = run("hom", path("chain_a.rgs"), path("n.rgs"), "--level", "sntg")
    assert sntg == (1, "none\n", "no homomorphism: <r.fo ~ n.l> (labels f and lam do not match)\n")
    assert sntg == run("hom", path("chain_a.rgs"), path("n.rgs"), "--level", "nested")


def test_hom_ntg_prints_the_map_and_refutes_like_nested():
    code, out, err = run("hom", path("chain_d.rgs"), path("chain_c.rgs"), "--level", "ntg")
    assert (code, err) == (0, "")
    assert out == (
        "f.a1 -> f.a1\nf.a2 -> f.a2\nf.l -> f.l\nf.o -> f.o\nf.x1 -> f.x1\nf.x2 -> f.x2\n"
        "r.cv1 -> r.cv\nr.cv2 -> r.cv\nr.fo -> r.fo\nr.o -> r.o\n"
    )
    refuted = run("hom", path("chain_c.rgs"), path("chain_d.rgs"), "--level", "ntg")
    assert refuted == run("hom", path("chain_c.rgs"), path("chain_d.rgs"), "--level", "nested")
    assert refuted == (
        1, "none\n",
        "no homomorphism: <r.cv ~ r.cv1> and <r.cv ~ r.cv2> "
        "(a left configuration meets two right configurations)\n",
    )


def test_hom_ntg_tabulates_each_pair_once(monkeypatch):
    # the map and the refutation are read off one nested_hom result
    import ntg.equivalence

    calls = []
    tabulate = ntg.equivalence._tabulate
    monkeypatch.setattr(ntg.equivalence, "_tabulate", lambda *a: calls.append(a) or tabulate(*a))
    for a, b, code in (("chain_d.rgs", "chain_c.rgs", 0), ("chain_c.rgs", "chain_d.rgs", 1)):
        calls.clear()
        assert run("hom", path(a), path(b))[0] == code
        assert len(calls) == 1


def test_roundtrip_command():
    for name in ("n.rgs", "triv.rgs", "r0.rgs", "chain_b.rgs"):
        code, out, err = run("roundtrip", path(name))
        assert code == 0 and "roundtrip ok" in out, name


def test_resource_errors_are_usage_errors(monkeypatch):
    from ntg import firstorder

    for exc in (RecursionError("maximum recursion depth exceeded"), MemoryError()):
        def exhausted(g, exc=exc):
            raise exc

        monkeypatch.setattr(firstorder, "represent", exhausted)
        code, out, err = run("roundtrip", path("n.rgs"))
        assert code == 2 and out == "", type(exc).__name__
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_dot_sniffs_input_kind(tmp_path):
    code, out, err = run("dot", path("n.rgs"))
    assert code == 0 and out.startswith("digraph")
    fo_file = tmp_path / "n.fo"
    run("interpret", path("n.rgs"), "-o", str(fo_file))
    code, out, err = run("dot", str(fo_file))
    assert code == 0 and "dotted" in out


def test_commented_first_order_file_is_read_as_first_order():
    # the file opens with '#' comment lines before its 'tg' header
    assert (DATA / "n_flattened.fo").read_text().startswith("#")
    code, out, err = run("dot", path("n_flattened.fo"))
    assert code == 0 and out.startswith("digraph"), err
    code, out, err = run("hom", path("n_flattened.fo"), path("n_flattened.fo"), "--level", "fo")
    assert code == 0 and "root -> root" in out, err


def test_comment_runs_to_newline_when_sniffing_the_format(tmp_path):
    # U+2028 does not end a comment, so 'tg' after it is still commented out
    doc = tmp_path / "n.rgs"
    doc.write_text("# note\u2028tg {\n" + (DATA / "n.rgs").read_text(), encoding="utf-8")
    code, out, err = run("dot", str(doc))
    assert code == 0 and out.startswith("digraph"), err


def test_negative_unfold_depth_is_usage_error():
    code, out, err = run("unfold", path("r1.rgs"), "--depth", "-1")
    assert code == 2 and out == "" and "negative" in err


def test_missing_file_is_usage_error():
    code, out, err = run("is-ntg", "/nonexistent/file.rgs")
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    code, out, err = run("frobnicate")
    assert code == 2


def test_dot_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "ntg", "dot", path("n.rgs")]
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    runs = [
        subprocess.run(cmd, capture_output=True, env=dict(env, PYTHONHASHSEED=str(seed)))
        for seed in (1, 2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b"digraph")
