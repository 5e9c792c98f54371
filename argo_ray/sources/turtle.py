"""Turtle parser for the subset our serializer (sink K4) emits.

The reference has **no** Turtle parser (its Turtle-like input format is
Squirtle, ``squirtleparser.y``); this one exists so Turtle output can be
round-trip-verified like N-Triples.  Grammar accepted::

    @prefix p: <base> .
    subject
      pred obj ;
      ...
      .

with terms: ``<iri>``, ``prefix:local`` (qname), ``_:id``, and literals
``"..."[@lang|^^<dt>|^^prefix:local]`` using N-Triples escaping.
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..terms import (
    IRI,
    Blank,
    Literal,
    Term,
    append_subject_hash,
    triples_to_table,
)

_PREFIX_RE = re.compile(r"^@prefix\s+([A-Za-z_][\w.-]*)?:\s+<([^>]*)>\s*\.\s*$")
_TOKEN_RE = re.compile(
    r"""
    (?P<iri><[^>]*>)
  | (?P<bnode>_:[A-Za-z][A-Za-z0-9]*)
  | (?P<literal>"(?:[^"\\]|\\.)*"(?:@[A-Za-z0-9-]+|\^\^<[^>]*>|\^\^[A-Za-z_][\w.-]*:[\w.-]*)?)
  | (?P<qname>[A-Za-z_][\w.-]*:[\w./#-]*)
  | (?P<punct>[;.])
    """,
    re.X,
)

_UNESCAPE = {
    "\\\\": "\\",
    '\\"': '"',
    "\\n": "\n",
    "\\r": "\r",
    "\\t": "\t",
}


class TurtleParseError(ValueError):
    pass


def _unescape(s: str) -> str:
    out = []
    i = 0
    while i < len(s):
        if s[i] == "\\" and i + 1 < len(s):
            pair = s[i : i + 2]
            if pair in _UNESCAPE:
                out.append(_UNESCAPE[pair])
                i += 2
                continue
            if s[i + 1] in ("u", "U") and i + 6 <= len(s):
                out.append(chr(int(s[i + 2 : i + 6], 16)))
                i += 6
                continue
        out.append(s[i])
        i += 1
    return "".join(out)


def _term_from_token(tok: str, prefixes: dict[str, str]) -> Term:
    if tok.startswith("<"):
        return IRI(tok[1:-1])
    if tok.startswith("_:"):
        return Blank(tok[2:])
    if tok.startswith('"'):
        m = re.match(r'^"((?:[^"\\]|\\.)*)"(.*)$', tok, re.S)
        value = _unescape(m.group(1))
        rest = m.group(2)
        if rest.startswith("@"):
            return Literal(value, lang=rest[1:])
        if rest.startswith("^^<"):
            return Literal(value, datatype=rest[3:-1])
        if rest.startswith("^^"):
            p, local = rest[2:].split(":", 1)
            if p not in prefixes:
                raise TurtleParseError(f"unknown prefix {p!r}")
            return Literal(value, datatype=prefixes[p] + local)
        return Literal(value)
    # qname
    if ":" not in tok:
        raise TurtleParseError(f"expected a term, got {tok!r}")
    p, local = tok.split(":", 1)
    if p not in prefixes:
        raise TurtleParseError(f"unknown prefix {p!r}")
    return IRI(prefixes[p] + local)


def parse_turtle(text: str) -> list[tuple[Term, Term, Term]]:
    prefixes: dict[str, str] = {}
    triples: list[tuple[Term, Term, Term]] = []

    # strip prefix declarations first (line-oriented)
    body_lines = []
    for line in text.split("\n"):
        m = _PREFIX_RE.match(line)
        if m:
            prefixes[m.group(1) or ""] = m.group(2)
        else:
            body_lines.append(line)
    body = "\n".join(body_lines)

    tokens: list[str] = []
    pos = 0
    for m in _TOKEN_RE.finditer(body):
        gap = body[pos : m.start()]
        if gap.strip():
            raise TurtleParseError(f"unexpected input: {gap.strip()[:40]!r}")
        tokens.append(m.group(0))
        pos = m.end()
    if body[pos:].strip():
        raise TurtleParseError(f"unexpected trailing input: {body[pos:].strip()[:40]!r}")

    i = 0
    n = len(tokens)
    while i < n:
        subj = _term_from_token(tokens[i], prefixes)
        i += 1
        while i < n and tokens[i] != ".":
            if i + 2 >= n:
                raise TurtleParseError("unterminated statement")
            p = _term_from_token(tokens[i], prefixes)
            o = _term_from_token(tokens[i + 1], prefixes)
            if tokens[i + 2] != ";":
                raise TurtleParseError(f"expected ';' got {tokens[i + 2]!r}")
            triples.append((subj, p, o))
            i += 3
        if i >= n:
            raise TurtleParseError("unterminated subject block, expecting '.'")
        i += 1  # consume '.'
    return triples


def parse_turtle_batch(
    batch: pa.Table,
    text_column: str = "text",
    url_column: str | None = "url",
    on_error: str = "raise",
) -> pa.Table:
    texts = batch[text_column].to_pylist()
    urls = batch[url_column].to_pylist() if url_column else [""] * len(texts)
    rows, row_urls = [], []
    for text, url in zip(texts, urls):
        if isinstance(text, bytes):
            text = text.decode("utf-8", errors="replace")
        try:
            triples = parse_turtle(text)
        except TurtleParseError:
            if on_error == "raise":
                raise
            continue
        rows.extend(triples)
        row_urls.extend([url] * len(triples))
    return append_subject_hash(triples_to_table(rows, urls=row_urls, with_hash=False))
