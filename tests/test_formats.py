import pathlib
import random
import re

import pytest

from ntg import (
    ParseError,
    ValidationError,
    export_dot,
    interpret,
    ntg_isomorphic,
    ntg_to_sntg,
    parse_fo,
    parse_rgs,
    print_fo,
    print_rgs,
    tg_isomorphic,
    unfold_to_ntg,
)
from ntg.firstorder import PrimedConst
from dotcheck import check_dot
from generators import random_acyclic_rgs, random_ntg


def test_parse_trivial_document(fix_triv):
    r = parse_rgs("atomic c/0;\ndef r/0 { a: out(b); b: c; }\n")
    assert ntg_isomorphic(r, fix_triv) is not None


def test_parse_resolves_root_default():
    r = parse_rgs("atomic c/0;\ndef f/1 { a: out(b); b: in 1; }\ndef r/0 { a: out(b); b: f(k); k: c; }\n")
    assert r.root_symbol == "r"  # first nullary definition


def test_parse_shares_one_input_label_per_index():
    r = parse_rgs(
        "atomic c/0, p/2;\ndef f/2 { a: out(b); b: p(x, y); x: in 1; y: in 2; }\n"
        "def g/1 { a: out(x); x: in 1; }\ndef r/0 { a: out(b); b: f(k, m); k: c; m: g(k); }\n"
    )
    assert r.rec["f"].lab["x"] is r.rec["g"].lab["x"]
    assert r.rec["f"].lab["y"].index == 2


def test_parse_rejects_two_outputs():
    with pytest.raises(ValidationError) as exc:
        parse_rgs("atomic c/0;\ndef r/0 { a: out(b); b: out(k); k: c; }\n")
    assert any("output" in str(v) for v in exc.value.violations)


def test_parse_lists_each_violation_once():
    # the builder leaves the output-vertex count to validate_rgs, so the
    # count is reported once, and a rejected signature is reported alone
    with pytest.raises(ValidationError) as exc:
        parse_rgs("atomic c/0; def r/0 { a: out(b); b: c; d: out(b); }")
    assert list(map(str, exc.value.violations)) == [
        "r: body has 2 output vertices, expected 1",
        "r.d: output vertex is not the body root",
        "r.d: body vertex unreachable from the output vertex",
    ]
    with pytest.raises(ValidationError) as exc:
        parse_rgs("atomic c/0; def r/0 { a: out(b); b: c; d: out(b); } def in/0 { a: out(b); b: c; }")
    assert list(map(str, exc.value.violations)) == ["?: symbol name 'in' is reserved"]


def test_parse_rejects_unknown_symbol():
    with pytest.raises(ParseError):
        parse_rgs("atomic c/0;\ndef r/0 { a: out(b); b: mystery; }\n")


def test_parse_rejects_bad_arity():
    with pytest.raises(ParseError):
        parse_rgs("atomic c/0;\ndef r/0 { a: out(b); b: c(a); }\n")


def test_parse_rejects_missing_input_index():
    with pytest.raises(ParseError):
        parse_rgs("atomic c/0;\ndef f/1 { a: out(b); b: in; }\ndef r/0 { a: out(b); b: f(k); k: c; }\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_rgs("atomic c/0;\ndef r/0 {\n a: out(b);\n b: ?;\n}\n")
    assert exc.value.line == 4


def test_parse_rejects_empty_body():
    with pytest.raises(ParseError) as exc:
        parse_rgs("atomic c/0;\ndef f/0 { }\n")
    assert exc.value.line == 2 and "'f'" in exc.value.message


def test_print_is_deterministic_and_stable(fix_n):
    text1 = print_rgs(fix_n)
    text2 = print_rgs(parse_rgs(text1))
    assert text1 == text2


def test_roundtrip_corpus(fix_n, fix_triv, fix_r0, fix_r1, sharing_chain):
    for r in [fix_n, fix_triv, fix_r0, fix_r1] + sharing_chain:
        assert print_rgs(parse_rgs(print_rgs(r))) == print_rgs(r)


def test_roundtrip_random():
    rng = random.Random(83)
    for _ in range(40):
        r = random_ntg(rng) if rng.random() < 0.5 else random_acyclic_rgs(rng)
        assert print_rgs(parse_rgs(print_rgs(r))) == print_rgs(r)


def test_print_unfolded_document(fix_r0):
    doc = print_rgs(unfold_to_ntg(fix_r0).rgs)
    assert doc.count("def ") == 4
    assert print_rgs(parse_rgs(doc)) == doc


def test_roundtrip_without_atomic_symbols():
    from ntg import Input, Nested, NtgSignature, Output, Rgs, make_graph

    sig = NtgSignature({}, {"r": 0, "f": 1}, "r")
    n = Rgs(sig, {
        "r": make_graph("o", {"o": (Output(), ["fo"]), "fo": (Nested("f", 1), ["fo"])}),
        "f": make_graph("o", {"o": (Output(), ["x"]), "x": (Input(1), [])}),
    })
    doc = print_rgs(n)
    assert doc.startswith("atomic ;")
    assert print_rgs(parse_rgs(doc)) == doc


def test_parse_fo_trivial(fix_triv):
    g = parse_fo("tg { root a; a: out_r(b); b: c(d); d: in_r(a); }")
    assert tg_isomorphic(g, interpret(fix_triv)) is not None
    # the constant is recognized despite being written unprimed
    assert any(isinstance(g.lab[v], PrimedConst) for v in g.lab)


def test_parse_fo_rejects_unary_exit_vertex():
    with pytest.raises(ParseError):
        parse_fo("tg { root a; a: out_r(b); b: in(a); }")


def test_parse_fo_rejects_indexed_input():
    with pytest.raises(ParseError):
        parse_fo("tg { root a; a: out_r(b); b: in 1; }")


def test_fo_roundtrip_corpus(tree_corpus):
    for n in tree_corpus:
        doc = print_fo(interpret(n))
        assert print_fo(parse_fo(doc)) == doc


def test_fo_roundtrip_random():
    rng = random.Random(89)
    for _ in range(30):
        doc = print_fo(interpret(random_ntg(rng)))
        assert print_fo(parse_fo(doc)) == doc


def test_dot_trivial_counts(fix_triv):
    dot = export_dot(fix_triv)
    assert check_dot(dot) == []
    solid = [ln for ln in dot.splitlines() if "->" in ln and "style" not in ln]
    dashed = [ln for ln in dot.splitlines() if "->" in ln and "dashed" in ln]
    assert dot.count("subgraph cluster_") == 1
    assert len(solid) == 2  # entry arrow plus the one body edge
    assert len(dashed) == 1


def test_dot_running_example_counts(fix_n):
    dot = export_dot(fix_n)
    assert check_dot(dot) == []
    assert dot.count("subgraph cluster_") == 4
    dashed = [ln for ln in dot.splitlines() if "dashed" in ln]
    assert len(dashed) == 4 + 3  # call links plus return links


def test_dot_firstorder_backlinks(fix_n):
    dot = export_dot(interpret(fix_n))
    assert check_dot(dot) == []
    dotted = [ln for ln in dot.splitlines() if "dotted" in ln]
    assert len(dotted) == 13  # seven exit back-links, six root links


def test_dot_sntg(fix_n):
    dot = export_dot(ntg_to_sntg(fix_n))
    assert check_dot(dot) == []
    assert dot.count("subgraph cluster_") == 4


def test_dot_byte_stable(fix_n):
    assert export_dot(fix_n) == export_dot(parse_rgs(print_rgs(fix_n)))


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return ("error", e.line, e.message)


def test_tokenizer_equals_whole_text_scanner():
    from ntg.formats import _Tokens
    from oracles import scan_tokens

    data = pathlib.Path(__file__).parent / "data"
    texts = [p.read_text() for p in sorted(data.iterdir())]
    rng = random.Random(83)
    for _ in range(40):
        n = random_ntg(rng)
        texts += [print_rgs(n), print_fo(interpret(n))]
    texts += [print_rgs(random_acyclic_rgs(rng)) for _ in range(20)]
    # blanks and line breaks of every kind, comments, stray characters and
    # digits outside ASCII, spliced in at random places
    noise = ["\r\n", "\t", " ", "\n\n", " ", " ", "　", "\x0b", "\x0c", "\x85",
             "# note", "#\r", "$", "é", "٣", "7", "-", "\\", "\x00", ";", "'"]
    fuzzed = []
    for text in texts[:60]:
        for _ in range(4):
            chars = list(text)
            for _ in range(rng.randrange(1, 6)):
                chars.insert(rng.randrange(len(chars) + 1), rng.choice(noise))
            fuzzed.append("".join(chars))
    errors = 0
    for text in texts + fuzzed:
        ours = _tokens_or_error(lambda t: _Tokens(t).toks, text)
        assert ours == _tokens_or_error(scan_tokens, text), repr(text)
        errors += ours[0] == "error"
    assert 0 < errors < len(fuzzed)


@pytest.mark.parametrize("text, message", [
    ("tg { root a; a:", "expected a label, found 'end of input'"),
    ("tg { root a; a: b(c", "expected ',' or ')', found 'end of input'"),
])
def test_grammar_names_end_of_input(text, message):
    with pytest.raises(ParseError) as exc:
        parse_fo(text)
    assert exc.value.message == message


def _outcome(parse, text):
    """What ``parse`` makes of ``text``, with every dict in its order, or
    the type, message and line of what it raises."""
    from ntg import Rgs

    try:
        value = parse(text)
    except ValueError as e:
        return type(e).__name__, str(e), getattr(e, "line", None)
    if isinstance(value, Rgs):
        sig = value.signature
        bodies = [(sym, _outcome(lambda _: g, None)) for sym, g in value.rec.items()]
        return list(sig.atomic.items()), list(sig.nested.items()), sig.root_symbol, bodies
    return list(value.lab.items()), list(value.args.items()), value.root


def _grammar_or_error(grammar, text):
    try:
        return grammar(text)
    except ParseError as e:
        return {"error": (e.line, e.message)}


def _reader_corpus(rng):
    from generators import chain_spec, depth_family, fanout_family, random_cyclic_rgs

    data = pathlib.Path(__file__).parent / "data"
    texts = [p.read_text() for p in sorted(data.iterdir())]
    trees = [depth_family(d) for d in (1, 3, 6)] + [chain_spec(4, "s")]
    trees += [unfold_to_ntg(fanout_family(k)).rgs for k in (2, 3)]
    trees += [random_ntg(rng) for _ in range(12)]
    texts += [print_rgs(n) for n in trees] + [print_fo(interpret(n)) for n in trees]
    texts += [print_rgs(fanout_family(k)) for k in (2, 4)]
    texts += [print_rgs(random_cyclic_rgs(rng)) for _ in range(8)]
    texts += [print_rgs(random_acyclic_rgs(rng)) for _ in range(8)]
    return texts


def _fuzz(rng, text):
    """``text`` with a few edits: gaps, comments and line breaks between
    tokens and inside argument lists, the index of ``in`` joined to it or
    followed by a name, a keyword joined to the next name, duplicated
    statements and atomic symbols, unknown successors, dropped or stray
    punctuation, and stray characters."""
    gaps = ["\n", "\r\n", "\t", "  ", "# note\n", "# a(b, c);\n", "#\n", "\n# x # y\n",
            " #:(\n", "\x0b", "　", "\x85", "# }\n", "# {\n", "#;\n", "\x1c"]
    stray = ["$", "é", "٣", "7", "x", "@", "'", "\\", ";", ",", "(", ")", "{", "}", ":", "/", "#"]
    for _ in range(rng.randrange(1, 5)):
        cuts = [m.end() for m in re.finditer(r"[:;,(){}/]|\bin\b", text)] or [len(text)]
        at = rng.choice(cuts)
        kind = rng.randrange(11)
        if kind < 3:
            text = text[:at] + rng.choice(gaps) + text[at:]
        elif kind == 3:
            text = text.replace(rng.choice(["in 1", "in 2", "in 1;"]),
                                rng.choice(["in1", "in 1x", "in\n#c\n1", "in٣", "in 0", "in 12"]), 1)
        elif kind == 4:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
            text = "\n".join(lines)
        elif kind == 5:
            names = re.findall(r"[(,] ?([A-Za-z_][\w@.']*)", text)
            if names:
                text = text.replace(rng.choice(names) + ")", "zz9)", 1)
        elif kind == 6:
            text = text[:at - 1] + text[at:]
        elif kind == 7:
            text = text[:at] + rng.choice(stray) + text[at:]
        elif kind == 8:
            word = rng.choice(["root ", "def ", "atomic ", "tg "])
            text = text.replace(word, word.strip() + rng.choice(["", "_", "1", "@"]), 1)
        elif kind == 9:
            item = re.search(r"atomic ([^;,]+)", text)
            if item:
                text = text.replace(item.group(0), f"{item.group(0)}, {item.group(1)}", 1)
        else:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(stray + gaps) + text[i:]
    return text


def _without_lines(reading):
    """A reading of the grammar or of the statement-level reader with each
    line number replaced by None."""
    def statements(lines):
        return [(*statement[:4], None) for statement in lines]

    if isinstance(reading[2], dict):  # a specification
        atomic, root, defs = reading
        return atomic, root, {name: (ar, statements(lines), None) for name, (ar, lines, _) in defs.items()}
    root, _, lines = reading
    return root, None, statements(lines)


def test_reader_reads_what_the_grammar_reads():
    """On every text, the statement-level reader, given the text without
    its comments, either declines or returns the grammar's reading of the
    text, but without line numbers; it declines only texts the grammar
    rejects; and the parsers give what the grammar alone gives, or raise
    what it raises, error lines included."""
    from ntg import formats

    rng = random.Random(97)
    texts = _reader_corpus(rng)
    fuzzed = [_fuzz(rng, rng.choice(texts)) for _ in range(1200)]
    readers = [
        (formats._read_rgs, formats._grammar_rgs, parse_rgs, formats._build_rgs),
        (formats._read_fo, formats._grammar_fo, parse_fo, formats._build_fo),
    ]
    accepted = declined = 0
    for text in texts + fuzzed:
        for read, grammar, parse, build in readers:
            theirs = _grammar_or_error(grammar, text)
            ours = read(formats._COMMENT_RE.sub("", text))
            assert ours == (None if isinstance(theirs, dict) else _without_lines(theirs)), repr(text)
            direct = _outcome(lambda t: build(*grammar(t)), text)
            assert _outcome(parse, text) == direct, repr(text)
            accepted += ours is not None
            declined += ours is None and read is formats._read_rgs and text.startswith("atomic")
    # the fuzzed texts reach both sides of the reader
    assert accepted > 300 and declined > 300


def test_parse_errors_name_the_grammars_line():
    """Every ParseError that the parsers raise over the fuzzed corpus
    names a line, the one that the builders name on the grammar's
    reading, also where the statement-level reader, which keeps no
    lines, read the statements that the builder refused."""
    from ntg import formats

    rng = random.Random(101)
    texts = _reader_corpus(rng)
    parsers = [
        (parse_rgs, formats._read_rgs, formats._grammar_rgs, formats._build_rgs),
        (parse_fo, formats._read_fo, formats._grammar_fo, formats._build_fo),
    ]
    errors = read = 0
    for text in [_fuzz(rng, rng.choice(texts)) for _ in range(1200)]:
        for parse, reader, grammar, build in parsers:
            try:
                parse(text)
            except ParseError as e:
                with pytest.raises(ParseError) as direct:
                    build(*grammar(text))
                assert type(e.line) is int, repr(text)
                assert (e.line, e.message) == (direct.value.line, direct.value.message), repr(text)
                errors += 1
                read += reader(formats._COMMENT_RE.sub("", text)) is not None
            except ValueError:
                pass
    assert errors > 1000 and read > 100


@pytest.mark.parametrize("parse, text, line, message", [
    (parse_rgs, "atomic c/0;\ndef r/0 {\n a: out(b);\n b: c;\n b: c;\n}\n", 5, "vertex 'b' defined twice"),
    (parse_rgs, "atomic c/0;\ndef r/0 {\n a: out(b);\n b: in;\n}\n", 4, "'in' needs an index in a specification body"),
    (parse_rgs, "atomic c/0;\ndef r/0 {\n a: out(b);\n b: d;\n}\n", 4, "unknown symbol 'd'"),
    (parse_rgs, "atomic c/0;\ndef r/0 {\n a: out(b);\n b: c(a);\n}\n", 4, "label 'c' needs 0 arguments, found 1"),
    (parse_rgs, "atomic c/0;\ndef r/0 {\n a: out(b);\n\n b: out(z);\n}\n", 5, "unknown vertex 'z'"),
    (parse_fo, "tg {\n root a;\n a: out_r(b);\n a: c;\n}\n", 4, "vertex 'a' defined twice"),
    (parse_fo, "tg {\n root a;\n a: out_r(b);\n b: in 1;\n}\n", 4, "'in' is binary in a first-order document"),
    (parse_fo, "tg {\n root a;\n a: out_r(b, b);\n b: c;\n}\n", 3, "label 'out_r' needs 1 arguments, found 2"),
    (parse_fo, "tg {\n root a;\n a: out_r(b);\n\n b: f(z);\n}\n", 5, "unknown vertex 'z'"),
    (parse_fo, "tg {\n root z;\n a: out_r(b);\n b: c;\n}\n", 2, "unknown root vertex 'z'"),
    (parse_fo, "tg {\n\n\n root z;\n a: out_r(b);\n b: c;\n}\n", 4, "unknown root vertex 'z'"),
])
def test_builders_name_each_error_with_its_line(parse, text, line, message):
    # the builders hand their graphs over without a second check, so each
    # error that the graph constructor would also find must be theirs
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.message) == (line, message)


def _writer_outputs():
    """Every text that ``print_rgs``, ``print_fo`` and ``export_dot`` write
    for the files of ``tests/data`` and a seeded generated corpus: each
    specification, its unfoldings at depths 0 to 2 and, for each of these
    that is a valid nested term graph, its structure and its flattening;
    each first-order graph."""
    from ntg import is_ntg, validate_rgs
    from generators import depth_family, random_cyclic_rgs

    data = pathlib.Path(__file__).parent / "data"
    rng = random.Random(5)
    specs = [parse_rgs(p.read_text()) for p in sorted(data.glob("*.rgs"))]
    for make in (random_ntg, random_acyclic_rgs, random_cyclic_rgs):
        specs += [make(rng) for _ in range(12)]
    specs += [depth_family(d) for d in (1, 3, 7)]
    graphs = [parse_fo(p.read_text()) for p in sorted(data.glob("*.fo"))]
    for r in specs:
        for n in [r] + [unfold_to_ntg(r, depth).rgs for depth in (0, 1, 2)]:
            yield print_rgs(n)
            yield export_dot(n)
            if not validate_rgs(n) and is_ntg(n):
                yield export_dot(ntg_to_sntg(n))
                graphs.append(interpret(n))
    for g in graphs:
        yield print_fo(g)
        yield export_dot(g)


def test_writers_are_byte_stable():
    # pinned to the writers' output before they shared one listing: a
    # change to any written byte fails
    import hashlib

    digest = hashlib.sha256()
    count = 0
    for text in _writer_outputs():
        digest.update(text.encode() + b"\0")
        count += 1
    assert (count, digest.hexdigest()) == (
        842, "21e4c3009c137177bf7bb11519f45c4c7da7eeb278ff19c27237a3701074ff8e"
    )


def test_specification_writers_walk_no_body(monkeypatch):
    # a parsed specification is checked, and so keeps the walk of each
    # body that its listing reads
    from ntg import formats

    data = pathlib.Path(__file__).parent / "data"
    specs = [parse_rgs(p.read_text()) for p in sorted(data.glob("*.rgs"))]
    calls, walk = [], formats.reachable
    monkeypatch.setattr(formats, "reachable", lambda g, v: calls.append(v) or walk(g, v))
    for r in specs:
        print_rgs(r)
        export_dot(r)
    assert calls == []


def _undeclared_occurrence(reached: bool):
    """A specification whose body ``r`` (or, when not ``reached``, the
    body ``h``, which the root does not reach) has an occurrence of the
    undeclared nested symbol ``g``."""
    from ntg import Atomic, Nested, NtgSignature, Output, Rgs, TermGraph

    leaf = TermGraph({"o": Output(), "k": Atomic("c", 0)}, {"o": ("k",), "k": ()}, "o")
    calls = TermGraph(
        {"o": Output(), "a": Nested("g", 1), "k": Atomic("c", 0)}, {"o": ("a",), "a": ("k",), "k": ()}, "o"
    )
    if reached:
        return Rgs(NtgSignature({"c": 0}, {"r": 0}, "r"), {"r": calls})
    return Rgs(NtgSignature({"c": 0}, {"r": 0, "h": 0}, "r"), {"r": leaf, "h": calls})


def _cut_off_input():
    """A cut unfolding in which a placeholder cuts off the input vertex of
    ``f@1``: invalid, and printed all the same."""
    r = parse_rgs("atomic c/0; root r; def r/0 { o: out(a); a: f(k); k: c; } def f/1 { o: out(a); a: f(i); i: in 1; }")
    return unfold_to_ntg(r, 1).rgs


def test_print_rgs_reports_an_undeclared_nested_symbol():
    with pytest.raises(ValueError) as exc:
        print_rgs(_undeclared_occurrence(reached=True))
    assert str(exc.value) == "invalid specification: r.a: unknown nested symbol 'g'"
    # a body that the root does not reach names no definition to list
    assert "  v1: g(v2);" in print_rgs(_undeclared_occurrence(reached=False))
    assert "def f@1/1 {\n  v0: out(v1);\n  v1: ⊥;\n}" in print_rgs(_cut_off_input())


def test_export_dot_reports_an_undeclared_nested_symbol():
    for reached, where in ((True, "r.a"), (False, "h.a")):
        with pytest.raises(ValueError) as exc:
            export_dot(_undeclared_occurrence(reached))
        assert str(exc.value) == f"invalid specification: {where}: unknown nested symbol 'g'"
    assert check_dot(export_dot(_cut_off_input())) == []


def test_dot_refuses_other_values():
    from ntg import export_dot

    with pytest.raises(TypeError, match=r"^cannot render int$"):
        export_dot(3)


@pytest.mark.parametrize("text, error, message", [
    ("atomic c/0; def f/1 { a: out(b); b: c; }", ValidationError, "?: no nullary definition to act as root"),
    ("atomic c/0; root q; def f/0 { a: out(b); b: c; }", ValidationError, "?: root symbol 'q' is not defined"),
    ("atomic c/0; def c/0 { a: out(b); b: c; }", ParseError, "line 1: symbol 'c' is declared atomic"),
    ("atomic c/0;\n", ParseError, "line 1: a specification needs at least one definition"),
    # read without atomic symbols, then again by the grammar for the line
    ("atomic ;\ndef r/0 {\n  a: out(b);\n  b: zz;\n}\n", ParseError, "line 4: unknown symbol 'zz'"),
])
def test_parse_rgs_names_each_document_level_fault(text, error, message):
    with pytest.raises(error) as caught:
        parse_rgs(text)
    assert type(caught.value) is error and str(caught.value) == message


def test_print_fo_lists_unreached_vertices_last_by_name():
    from ntg import Atomic, TermGraph

    c, f = Atomic("c", 0), Atomic("f", 1)
    g = TermGraph({"z": f, "r": f, "y": c, "b": c, "a": f}, {"z": ("y",), "r": ("b",), "y": (), "b": (), "a": ("b",)}, "r")
    assert print_fo(g) == "tg {\n  root n0;\n  n0: f(n1);\n  n1: c;\n  n2: f(n1);\n  n3: c;\n  n4: f(n3);\n}\n"
