"""Textual formats for specifications and first-order graphs, plus DOT.

Specification documents::

    atomic lam/1, app/2, v/0;
    root n;
    def n/0 { a: out(b); b: lam(c); c: app(d, e); d: f1(x); x: v; e: v; }
    def f1/1 { a: out(b); b: lam(c); c: app(d, c); d: app(e, w); e: in 1; w: v; }

First-order documents::

    tg { root a; a: out_r(b); b: c(d); d: in_r(a); }

Blanks, line breaks and ``#`` comments (to the end of the line) may
stand between any two tokens.  Vertex names are local to a document;
printing renames them, so parse and print are mutually inverse only up
to vertex renaming.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .graph import TermGraph, reachable
from .labels import OUTPUT, Atomic, Input, Nested, Output
from .firstorder import (
    FO_INPUT,
    ROOT_INPUT,
    ROOT_OUTPUT,
    FoInput,
    PrimedConst,
    RootInput,
    RootOutput,
    exit_chain_ends,
)
from .rgs import (
    NtgSignature,
    Rgs,
    Violation,
    dependency_ars,
    validate_rgs,
    _reachable_symbols,
    _require,
)
from .sntg import Sntg


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ValidationError(ValueError):
    def __init__(self, violations: List[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


# one match per token or per run of blanks within a line; the last group
# catches a character that starts no token
_TOKEN_RE = re.compile(
    r"""(\d+)
      | ([A-Za-z_][A-Za-z0-9_@.']*)
      | ([{}():,;/])
      | [^\S\n]+
      | \#.*
      | (\S)
    """,
    re.VERBOSE,
)


class _Tokens:
    def __init__(self, text: str):
        self.toks: List[Tuple[str, str, int]] = []
        append = self.toks.append
        for line, chunk in enumerate(text.split("\n"), 1):
            for nat, name, punct, bad in _TOKEN_RE.findall(chunk):
                if nat:
                    append(("nat", nat, line))
                elif name:
                    append(("name", name, line))
                elif punct:
                    append(("punct", punct, line))
                elif bad:
                    raise ParseError(line, f"unexpected character {bad!r}")
        self.i = 0

    def peek(self):
        if self.i < len(self.toks):
            return self.toks[self.i]
        last_line = self.toks[-1][2] if self.toks else 1
        return ("eof", "", last_line)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, got, line = self.next()
        if got != value:
            raise ParseError(line, f"expected {value!r}, found {got or 'end of input'!r}")
        return line

    def expect_kind(self, kind: str, what: str):
        k, got, line = self.next()
        if k != kind:
            raise ParseError(line, f"expected {what}, found {got or 'end of input'!r}")
        return got, line


def _parse_lines(toks: _Tokens, stop: str):
    """Parse ``ID : LBL (args)? ;`` lines until ``stop``; labels stay raw."""
    lines = []
    while True:
        kind, value, line = toks.peek()
        if value == stop:
            toks.next()
            return lines
        if kind == "eof":
            raise ParseError(line, f"expected {stop!r} before end of input")
        vid, line = toks.expect_kind("name", "a vertex name")
        toks.expect(":")
        lkind, lvalue, lline = toks.next()
        if lkind not in ("name",):
            raise ParseError(lline, f"expected a label, found {lvalue or 'end of input'!r}")
        nat = None
        if lvalue == "in":
            k, v, nline = toks.peek()
            if k == "nat":
                toks.next()
                nat = int(v)
        succ: List[str] = []
        k, v, _ = toks.peek()
        if v == "(":
            toks.next()
            while True:
                sid, _ = toks.expect_kind("name", "a vertex name")
                succ.append(sid)
                k, v, pline = toks.next()
                if v == ")":
                    break
                if v != ",":
                    raise ParseError(pline, f"expected ',' or ')', found {v or 'end of input'!r}")
        toks.expect(";")
        lines.append((vid, lvalue, nat, tuple(succ), line))


# ---------------------------------------------------------------------------
# Statement-level reader
#
# A document's ``#`` comments are stripped once, first; a comment holds no
# line break, so lines and token boundaries stay put.  Each header is then
# one match of a compiled pattern, and each definition body one ``findall``
# of the statement pattern up to the first ``}``.  The patterns read the
# grammar's token sequences as it does: blanks may stand between tokens, a
# keyword is a whole name, and names and numbers use the tokenizer's
# classes, so a pattern's first match is the longest-token reading.  The
# reader returns None unless the statements tile each body, and at a
# duplicate the grammar reports while it reads.  Its statements have no
# lines: where it returns None, or a builder raises a ParseError on them,
# the grammar reads the text again and names the line.
# ---------------------------------------------------------------------------

_NAME_CHAR = "[A-Za-z0-9_@.']"
_NAME = "[A-Za-z_]" + _NAME_CHAR + "*"


def _keyword(word: str) -> str:
    return rf"\s*{word}(?!{_NAME_CHAR})"


# the whole of ``ID : LABEL [n] [(a, b, ...)] ;`` and its parts
_STATEMENT_RE = re.compile(
    rf"(\s*({_NAME})\s*:\s*({_NAME})(?:\s*(\d+))?(?:\s*\((\s*{_NAME}(?:\s*,\s*{_NAME})*)\s*\))?\s*;)"
)
_ITEM = rf"\s*{_NAME}\s*/\s*\d+"
_ATOMIC_RE = re.compile(_keyword("atomic") + rf"(?:\s*;|({_ITEM}(?:\s*,{_ITEM})*)\s*;)")
_ITEM_RE = re.compile(rf"({_NAME})\s*/\s*(\d+)")
_ROOT_RE = re.compile(_keyword("root") + rf"\s*({_NAME})\s*;")
_DEF_RE = re.compile(_keyword("def") + rf"\s*({_NAME})\s*/\s*(\d+)\s*\{{")
_TG_RE = re.compile(_keyword("tg") + r"\s*\{" + _keyword("root") + rf"\s*({_NAME})\s*;")
_END_RE = re.compile(r"\s*\Z")
_COMMENT_RE = re.compile(r"\#[^\n]*")
_NAME_RE = re.compile(_NAME)


def _read_body(text: str, pos: int):
    """The vertex statements from ``pos`` to the next ``}``, lineless, and
    the offset after it; None unless they tile the stretch up to blanks
    before it (each ends in ``;``, so any other gap shows in the tail)."""
    close = text.find("}", pos)
    if close < 0:
        return None
    lines = []
    append = lines.append
    names = _NAME_RE.findall
    size = 0
    for whole, vid, label, nat, succ in _STATEMENT_RE.findall(text, pos, close):
        if nat and label != "in":
            return None
        size += len(whole)
        append((vid, label, int(nat) if nat else None, tuple(names(succ)) if succ else (), None))
    if size != close - pos and not text[pos + size:close].isspace():
        return None
    return lines, close + 1


def _read_rgs(text: str):
    """``(atomic, root, defs)`` as ``_grammar_rgs`` reads them, without lines; or None."""
    m = _ATOMIC_RE.match(text)
    if m is None:
        return None
    atomic: Dict[str, int] = {}
    if m.group(1) is not None:
        for name, ar in _ITEM_RE.findall(m.group(1)):
            if name in atomic:
                return None
            atomic[name] = int(ar)
    pos = m.end()
    declared_root = None
    m = _ROOT_RE.match(text, pos)
    if m is not None:
        declared_root, pos = m.group(1), m.end()
    defs: Dict[str, Tuple[int, list, None]] = {}
    while (m := _DEF_RE.match(text, pos)) is not None:
        name = m.group(1)
        if name in defs or name in atomic:
            return None
        body = _read_body(text, m.end())
        if body is None:
            return None
        defs[name] = (int(m.group(2)), body[0], None)
        pos = body[1]
    if not defs or _END_RE.match(text, pos) is None:
        return None
    return atomic, declared_root, defs


def _read_fo(text: str):
    """``(root, line, lines)`` as ``_grammar_fo`` reads them, without lines; or None."""
    m = _TG_RE.match(text)
    if m is None:
        return None
    body = _read_body(text, m.end())
    if body is None or _END_RE.match(text, body[1]) is None:
        return None
    return m.group(1), None, body[0]


def _parse(text: str, read, grammar, build):
    """What ``build`` makes of ``read``'s reading of ``text`` without
    comments or, where ``read`` declines or ``build`` raises a ParseError,
    of the grammar's reading of ``text``, which has lines."""
    statements = read(_COMMENT_RE.sub("", text) if "#" in text else text)
    if statements is not None:
        try:
            return build(*statements)
        except ParseError:
            pass
    return build(*grammar(text))


def parse_rgs(text: str) -> Rgs:
    """Parse a specification document.

    Raises ParseError for syntax and arity problems, ValidationError when
    the parsed specification breaks a well-formedness invariant.
    """
    return _parse(text, _read_rgs, _grammar_rgs, _build_rgs)


def _grammar_rgs(text: str):
    """The token grammar of a specification document: the atomic
    signature, the declared root symbol (or None) and, per definition in
    document order, its arity, vertex statements and line."""
    toks = _Tokens(text)
    toks.expect("atomic")
    atomic: Dict[str, int] = {}
    if toks.peek()[1] == ";":  # signatures without atomic symbols are legal
        toks.next()
    else:
        atomic.update(_parse_signature_items(toks))
    declared_root = _parse_root_decl(toks)
    defs: Dict[str, Tuple[int, list, int]] = {}
    while toks.peek()[1] == "def":
        toks.next()
        name, line = toks.expect_kind("name", "a symbol name")
        toks.expect("/")
        ar, _ = toks.expect_kind("nat", "an arity")
        toks.expect("{")
        body_lines = _parse_lines(toks, "}")
        if name in defs:
            raise ParseError(line, f"symbol {name!r} defined twice")
        if name in atomic:
            raise ParseError(line, f"symbol {name!r} is declared atomic")
        defs[name] = (int(ar), body_lines, line)
    if toks.peek()[0] != "eof":
        raise ParseError(toks.peek()[2], f"unexpected {toks.peek()[1]!r}")
    if not defs:
        raise ParseError(toks.peek()[2], "a specification needs at least one definition")
    return atomic, declared_root, defs


def _parse_signature_items(toks: _Tokens) -> Dict[str, int]:
    atomic: Dict[str, int] = {}
    while True:
        name, line = toks.expect_kind("name", "a symbol name")
        toks.expect("/")
        ar, _ = toks.expect_kind("nat", "an arity")
        if name in atomic:
            raise ParseError(line, f"atomic symbol {name!r} declared twice")
        atomic[name] = int(ar)
        k, v, _ = toks.next()
        if v == ";":
            return atomic
        if v != ",":
            raise ParseError(line, f"expected ',' or ';' after {name!r}")


def _parse_root_decl(toks: _Tokens) -> Optional[str]:
    if toks.peek()[1] != "root":
        return None
    toks.next()
    declared_root, _ = toks.expect_kind("name", "a symbol name")
    toks.expect(";")
    return declared_root


def _build_rgs(atomic: Dict[str, int], declared_root: Optional[str], defs) -> Rgs:
    """The specification that read statements describe, after the checks
    that need all of them: symbols, arities, vertices, validity."""
    nested = {name: ar for name, (ar, _, _) in defs.items()}
    if declared_root is None:
        nullary = [name for name in defs if nested[name] == 0]
        if not nullary:
            raise ValidationError([Violation(None, None, "no nullary definition to act as root")])
        declared_root = nullary[0]
    if declared_root not in nested:
        raise ValidationError([Violation(None, None, f"root symbol {declared_root!r} is not defined")])

    symbol = {name: Atomic(name, ar) for name, ar in atomic.items()}
    symbol.update((name, Nested(name, ar)) for name, ar in nested.items())
    inputs: Dict[int, Input] = {}  # one label object per index
    rec: Dict[str, TermGraph] = {}
    for name, (_, body_lines, def_line) in defs.items():
        if not body_lines:
            raise ParseError(def_line, f"definition {name!r} has an empty body")
        lab: Dict[str, object] = {}
        args: Dict[str, tuple] = {}
        out_vertices: List[str] = []
        for vid, lvalue, nat, succ, line in body_lines:
            if vid in lab:
                raise ParseError(line, f"vertex {vid!r} defined twice")
            if lvalue == "out":
                label = OUTPUT
                out_vertices.append(vid)
            elif lvalue == "in":
                if nat is None:
                    raise ParseError(line, "'in' needs an index in a specification body")
                label = inputs.get(nat) or inputs.setdefault(nat, Input(nat))
            elif lvalue in symbol:
                label = symbol[lvalue]
            else:
                raise ParseError(line, f"unknown symbol {lvalue!r}")
            if len(succ) != label.arity:
                raise ParseError(
                    line, f"label {lvalue!r} needs {label.arity} arguments, found {len(succ)}"
                )
            lab[vid] = label
            args[vid] = succ
        for vid, lvalue, nat, succ, line in body_lines:
            for sid in succ:
                if sid not in lab:
                    raise ParseError(line, f"unknown vertex {sid!r}")
        # a body without exactly one output vertex is reported by validate_rgs
        root = out_vertices[0] if out_vertices else body_lines[0][0]
        rec[name] = TermGraph._prechecked(lab, args, root)

    try:
        sig = NtgSignature(atomic, nested, declared_root)
        r = Rgs(sig, rec)
    except ValueError as e:
        raise ValidationError([Violation(None, None, str(e))])
    problems = validate_rgs(r)
    if problems:
        raise ValidationError(problems)
    return r


def _listing(g: TermGraph, first: List, prefix: str) -> Dict:
    """The vertices of ``g`` in the order a document lists them, each with
    its name ``<prefix><k>``: ``first``, then the rest sorted by name.
    ``first`` is what the root reaches in breadth-first order, for a
    specification body the walk its ``Rgs`` keeps."""
    order = first
    if len(first) < len(g.lab):
        seen = set(first)
        order = first + sorted((v for v in g.lab if v not in seen), key=str)
    return {v: f"{prefix}{i}" for i, v in enumerate(order)}


def _statements(g: TermGraph, names: Dict) -> List[str]:
    """One ``name: label(successors);`` line per vertex, in listing order."""
    lines = []
    for v, name in names.items():
        succ = ", ".join(names[w] for w in g.args[v])
        lines.append(f"  {name}: {g.lab[v]}" + (f"({succ})" if succ else "") + ";")
    return lines


def _definition_order(r: Rgs) -> List[str]:
    """Symbols reachable from the root in breadth-first order, then the
    rest sorted by name; the first violation of ``r`` as a ValueError
    where an occurrence it reaches names a symbol without a body."""
    order = _reachable_symbols(dependency_ars(r))
    seen = set(order)
    if not seen.issubset(r.rec):
        _require(r, "specification")
    return order + sorted(s for s in r.signature.nested if s not in seen)


def print_rgs(r: Rgs) -> str:
    """Deterministic document: definitions in dependency breadth-first
    order, vertices renamed in the order of the walk that ``r`` keeps of
    each body, so printing walks no body again."""
    sig = ", ".join(f"{name}/{ar}" for name, ar in sorted(r.signature.atomic.items()))
    out = [f"atomic {sig};", f"root {r.root_symbol};"]
    for sym in _definition_order(r):
        body = r.rec[sym]
        out.append(f"def {sym}/{r.signature.nested[sym]} {{")
        out += _statements(body, _listing(body, r._walks[sym][0], "v"))
        out.append("}")
    return "\n".join(out) + "\n"


def parse_fo(text: str) -> TermGraph:
    """Parse a first-order document.

    Former constants are written unprimed; a unary vertex is read back as
    a constant exactly when its successor chain of exit vertices ends in a
    root link.
    """
    return _parse(text, _read_fo, _grammar_fo, _build_fo)


def _grammar_fo(text: str):
    """The token grammar of a first-order document: the root vertex, the
    line of its name and the vertex statements."""
    toks = _Tokens(text)
    toks.expect("tg")
    toks.expect("{")
    toks.expect("root")
    root, root_line = toks.expect_kind("name", "a vertex name")
    toks.expect(";")
    body_lines = _parse_lines(toks, "}")
    if toks.peek()[0] != "eof":
        raise ParseError(toks.peek()[2], f"unexpected {toks.peek()[1]!r}")
    return root, root_line, body_lines


def _build_fo(root: str, root_line: int, body_lines) -> TermGraph:
    """The first-order graph that read statements describe, after the
    checks that need all of them."""
    lab: Dict[str, object] = {}
    args: Dict[str, tuple] = {}
    interface = {"out_r": ROOT_OUTPUT, "out": OUTPUT, "in": FO_INPUT, "in_r": ROOT_INPUT}
    symbol: Dict[Tuple[str, int], Atomic] = {}  # one label object per symbol and arity
    for vid, lvalue, nat, succ, line in body_lines:
        if vid in lab:
            raise ParseError(line, f"vertex {vid!r} defined twice")
        if nat is not None:
            raise ParseError(line, "'in' is binary in a first-order document")
        label = interface.get(lvalue)
        if label is None:
            key = (lvalue, len(succ))
            label = symbol.get(key) or symbol.setdefault(key, Atomic(*key))
        elif len(succ) != label.arity:
            raise ParseError(
                line, f"label {lvalue!r} needs {label.arity} arguments, found {len(succ)}"
            )
        lab[vid] = label
        args[vid] = succ
    for vid, lvalue, nat, succ, line in body_lines:
        for sid in succ:
            if sid not in lab:
                raise ParseError(line, f"unknown vertex {sid!r}")
    if root not in lab:
        raise ParseError(root_line, f"unknown root vertex {root!r}")

    # recover constant labels: unary symbol whose successor chain of exit
    # vertices grounds out at a root link
    end = exit_chain_ends(lab, args)
    for v in list(lab):
        lbl = lab[v]
        if isinstance(lbl, Atomic) and lbl.arity == 1 and isinstance(lab[end(args[v][0])], RootInput):
            lab[v] = PrimedConst(lbl.name)
    return TermGraph._prechecked(lab, args, root)


def print_fo(g: TermGraph) -> str:
    """Deterministic single-block document; constants written unprimed.

    Vertices are named and listed in breadth-first order from the root
    (``_listing``), so printing takes time linear in the graph.
    """
    names = _listing(g, reachable(g, g.root), "n")
    lines = ["tg {", f"  root {names[g.root]};", *_statements(g, names), "}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(value) -> str:
    """Render a specification, a structural representation or a
    first-order graph as a DOT digraph.

    Definitions become clusters; argument edges are solid, call and
    return links dashed, back-links of exit vertices dotted.  The output
    is deterministic.
    """
    if isinstance(value, Rgs):
        return _dot_rgs(value)
    if isinstance(value, Sntg):
        return _dot_sntg(value)
    if isinstance(value, TermGraph):
        return _dot_fo(value)
    raise TypeError(f"cannot render {type(value).__name__}")


def _dot_label(lbl) -> str:
    if isinstance(lbl, PrimedConst):
        return lbl.name + "'"
    if isinstance(lbl, FoInput):
        return "i"
    if isinstance(lbl, RootInput):
        return "i_r"
    if isinstance(lbl, RootOutput):
        return "o_r"
    if isinstance(lbl, Output):
        return "o"
    if isinstance(lbl, Input):
        return f"i{lbl.index}"
    return lbl.name


def _node(name: str, text: str, diamond: bool = False) -> str:
    shape = ", shape=diamond" if diamond else ""
    return f'{name} [label="{_dot_escape(text)}"{shape}];'


def _digraph(head: List[str], clusters: List[Tuple[str, List[str]]], tail: List[str]) -> str:
    """A DOT digraph with an entry point: the ``head`` statements, one
    subgraph per ``(label, statements)`` of ``clusters``, then the
    ``tail`` statements."""
    lines = ["digraph G {", '  __start__ [shape=point, label=""];']
    lines += ["  " + x for x in head]
    for ci, (label, statements) in enumerate(clusters):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="{_dot_escape(label)}";')
        lines += ["    " + x for x in statements]
        lines.append("  }")
    lines += ["  " + x for x in tail]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_rgs(r: Rgs) -> str:
    names = {}  # symbol -> the names of its body's vertices
    clusters = []
    for ci, sym in enumerate(_definition_order(r)):
        body = r.rec[sym]
        node = names[sym] = _listing(body, r._walks[sym][0], f"c{ci}_v")
        nodes, edges = [], []
        for v in node:
            nodes.append(_node(node[v], _dot_label(body.lab[v]), isinstance(body.lab[v], Nested)))
            for w in body.args[v]:
                edges.append(f"{node[v]} -> {node[w]};")
        clusters.append((f"{sym}/{r.signature.nested[sym]}", nodes + edges))
    # call links, from the synthetic root occurrence and every occurrence
    # vertex, then return links, from each input vertex to the matching
    # occurrence successor, in the order the target's cluster lists them
    root = r.root_symbol
    calls, returns = [f"__root__ -> {names[root][r.rec[root].root]} [style=dashed];"], []
    for step in dependency_ars(r).steps:
        if step.target not in names:  # an occurrence in a body the root does not reach
            _require(r, "specification")
        source, target, body = names[step.source], names[step.target], r.rec[step.target]
        calls.append(f"{source[step.vertex]} -> {target[body.root]} [style=dashed];")
        occ_args = r.rec[step.source].args[step.vertex]
        for v, name in target.items():
            lbl = body.lab[v]
            if isinstance(lbl, Input) and lbl.index <= len(occ_args):
                returns.append(f"{name} -> {source[occ_args[lbl.index - 1]]} [style=dashed];")
    return _digraph([_node("__root__", root, True), "__start__ -> __root__;"], clusters, calls + returns)


def _dot_sntg(s: Sntg) -> str:
    g = s.tg
    node = _listing(g, sorted(g.lab, key=str), "n")
    # node lines grouped by the occurrence vertex that opens their body;
    # argument edges, then call and return links
    scopes: Dict[Optional[str], List[str]] = {}
    edges, links = [], []
    for v in node:
        scopes.setdefault(s.inner[v], []).append(_node(node[v], _dot_label(g.lab[v]), v in s.call))
        for w in g.args[v]:
            edges.append(f"{node[v]} -> {node[w]};")
        if v in s.call:
            links.append(f"{node[v]} -> {node[s.call[v]]} [style=dashed];")
        if v in s.ret:
            links.append(f"{node[v]} -> {node[s.ret[v]]} [style=dashed];")
    head = [f"__start__ -> {node[g.root]};"] + scopes.pop(None, [])
    clusters = [(str(g.lab[occ]), scopes[occ]) for occ in sorted(scopes, key=str)]
    return _digraph(head, clusters, edges + links)


def _dot_fo(g: TermGraph) -> str:
    node = _listing(g, reachable(g, g.root), "n")
    nodes, edges = [], []
    for v in node:
        lbl = g.lab[v]
        nodes.append(_node(node[v], _dot_label(lbl)))
        for i, w in enumerate(g.args[v]):
            backlink = (isinstance(lbl, FoInput) and i == 1) or isinstance(lbl, RootInput)
            style = " [style=dotted]" if backlink else ""
            edges.append(f"{node[v]} -> {node[w]}{style};")
    return _digraph([f"__start__ -> {node[g.root]};"], [], nodes + edges)
