"""N-Triples parser (operator S1) + Ray Data batch wrappers.

Faithful reimplementation of the reference's rune-level reader
(``/root/reference/ntriples.go:87-472``): ``\\r\\n`` folding
(ntriples.go:161-178), ``#`` comments, the IRI character whitelist
0x20-0x7E excluding space/``<``/``"`` (ntriples.go:207) plus every code
point ≥ 0x80 (RDF 1.1 IRIREF; our writers emit such IRIs), bnode labels
``[A-Za-z][A-Za-z0-9]*`` (ntriples.go:233-246), escapes
``\\\\ \\" \\t \\r \\n \\uXXXX \\UXXXX`` (ntriples.go:354-399), language
tags ``[A-Za-z0-9-]+`` as written (the reference, ntriples.go:299, takes
lower case only; our writers emit tags such as ``en-GB``),
``^^<iri>`` datatypes (ntriples.go:305-349) and the six error kinds
with line+column (ntriples.go:31-51).

The parallel unit is the document (or text chunk split on newlines):
``parse_ntriples_batch`` is a stateless ``map_batches`` UDF mapping a
column of N-Triples text to flattened triple rows.  Documents in the
common shape (no escapes, no ``\\r``, one triple or comment per line)
are parsed with Arrow regex kernels; every other document goes to the
reader, so errors and quarantine behave exactly as the reader does.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..terms import (
    KIND_BLANK,
    KIND_IRI,
    KIND_LITERAL,
    Term,
    append_subject_hash,
    triples_to_table,
)

# Error kinds (ntriples.go:44-51).
ERR_UNEXPECTED_CHARACTER = "unexpected character"
ERR_UNEXPECTED_EOF = "unexpected end of file"
ERR_TERM_COUNT = "wrong number of terms in line"
ERR_UNTERMINATED_IRI = "unterminated IRI, expecting '>'"
ERR_UNTERMINATED_LITERAL = "unterminated literal, expecting '\"'"
ERR_UNTERMINATED_TRIPLE = "unterminated triple, expecting '.'"

_EOF = ""


class NTriplesParseError(ValueError):
    """Parse error with 1-based line and 0-based column (ntriples.go:31-41)."""

    def __init__(self, line: int, column: int, kind: str):
        super().__init__(f"line {line}, column {column}: {kind}")
        self.line = line
        self.column = column
        self.kind = kind


class NTriplesReader:
    """Streaming reader over a text buffer; ``read()`` returns one triple
    per call, ``None`` at EOF (mirrors ntriples.go Read loop)."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self.line = 0
        self.column = 0

    # -- rune-level helpers -------------------------------------------------

    def _read_rune(self) -> str:
        # \r\n folds to \n (ntriples.go:161-178).
        if self._pos >= len(self._text):
            self.column += 1
            return _EOF
        ch = self._text[self._pos]
        self._pos += 1
        if ch == "\r" and self._pos < len(self._text) and self._text[self._pos] == "\n":
            ch = "\n"
            self._pos += 1
        self.column += 1
        return ch

    def _unread_rune(self) -> None:
        if self._pos > 0:
            self._pos -= 1
            # undo \r\n fold: if we stepped back onto '\n' preceded by '\r',
            # step back once more so a re-read folds again.
            if (
                self._text[self._pos] == "\n"
                and self._pos > 0
                and self._text[self._pos - 1] == "\r"
            ):
                self._pos -= 1
            self.column -= 1

    def _error(self, kind: str) -> NTriplesParseError:
        return NTriplesParseError(self.line, self.column, kind)

    def _skip_whitespace(self) -> str:
        ch = self._read_rune()
        while ch in (" ", "\t"):
            ch = self._read_rune()
        return ch

    def _expect_whitespace(self) -> None:
        ch = self._read_rune()
        if ch == _EOF:
            raise self._error(ERR_UNEXPECTED_EOF)
        if ch not in (" ", "\t"):
            raise self._error(ERR_UNEXPECTED_CHARACTER)

    # -- terms --------------------------------------------------------------

    def _parse_iri_body(self) -> str:
        buf: list[str] = []
        while True:
            ch = self._read_rune()
            if ch == _EOF:
                raise self._error(ERR_UNEXPECTED_EOF)
            if ch == ">":
                if not buf:
                    raise self._error(ERR_UNEXPECTED_CHARACTER)
                return "".join(buf)
            # RDF 1.1 IRIREF: any code point but controls, space, DEL
            # and the ASCII delimiters; ≥ 0x80 is allowed
            if ord(ch) < 0x20 or ord(ch) == 0x7F or ch in (" ", "<", '"'):
                raise self._error(ERR_UNEXPECTED_CHARACTER)
            buf.append(ch)

    def _parse_term(self) -> Term | None:
        ch = self._skip_whitespace()
        if ch == _EOF:
            raise self._error(ERR_UNEXPECTED_EOF)

        if ch == "<":
            return Term(KIND_IRI, self._parse_iri_body())

        if ch == "_":
            ch = self._read_rune()
            if ch == _EOF:
                raise self._error(ERR_UNEXPECTED_EOF)
            if ch != ":":
                raise self._error(ERR_UNEXPECTED_CHARACTER)
            ch = self._read_rune()
            if ch == _EOF:
                raise self._error(ERR_UNEXPECTED_EOF)
            if not ("a" <= ch <= "z" or "A" <= ch <= "Z"):
                raise self._error(ERR_UNEXPECTED_CHARACTER)
            buf = [ch]
            while True:
                ch = self._read_rune()
                if ch == _EOF:
                    raise self._error(ERR_UNEXPECTED_EOF)
                if not ("a" <= ch <= "z" or "A" <= ch <= "Z" or "0" <= ch <= "9"):
                    if ch == "." or ch.isspace():
                        self._unread_rune()
                        return Term(KIND_BLANK, "".join(buf))
                    raise self._error(ERR_UNEXPECTED_CHARACTER)
                buf.append(ch)

        if ch == '"':
            buf: list[str] = []
            while True:
                ch = self._read_rune()
                if ch == _EOF:
                    raise self._error(ERR_UNEXPECTED_EOF)
                if ch == '"':
                    ch = self._read_rune()
                    if ch == _EOF:
                        raise self._error(ERR_UNEXPECTED_EOF)
                    if ch in (".", " ", "\t"):
                        self._unread_rune()
                        return Term(KIND_LITERAL, "".join(buf))
                    if ch == "@":
                        lexical = "".join(buf)
                        lang: list[str] = []
                        while True:
                            ch = self._read_rune()
                            if ch == _EOF:
                                raise self._error(ERR_UNEXPECTED_EOF)
                            if ch in (".", " ", "\t"):
                                if not lang:
                                    raise self._error(ERR_UNEXPECTED_CHARACTER)
                                return Term(
                                    KIND_LITERAL, lexical, lang="".join(lang)
                                )
                            if ch == "-" or ch.isascii() and ch.isalnum():
                                lang.append(ch)
                            else:
                                raise self._error(ERR_UNEXPECTED_CHARACTER)
                    if ch == "^":
                        lexical = "".join(buf)
                        ch = self._read_rune()
                        if ch == _EOF:
                            raise self._error(ERR_UNEXPECTED_EOF)
                        if ch != "^":
                            raise self._error(ERR_UNEXPECTED_CHARACTER)
                        ch = self._read_rune()
                        if ch == _EOF:
                            raise self._error(ERR_UNEXPECTED_EOF)
                        if ch != "<":
                            raise self._error(ERR_UNEXPECTED_CHARACTER)
                        return Term(
                            KIND_LITERAL, lexical, datatype=self._parse_iri_body()
                        )
                    raise self._error(ERR_UNEXPECTED_CHARACTER)
                if ch == "\\":
                    ch = self._read_rune()
                    if ch == _EOF:
                        raise self._error(ERR_UNEXPECTED_EOF)
                    if ch in ("\\", '"'):
                        pass
                    elif ch == "t":
                        ch = "\t"
                    elif ch == "r":
                        ch = "\r"
                    elif ch == "n":
                        ch = "\n"
                    elif ch in ("u", "U"):
                        # 4 hex digits (ntriples.go:370-395 reads exactly 4
                        # for both \u and \U).
                        codepoint = 0
                        for i in range(3, -1, -1):
                            ch = self._read_rune()
                            if ch == _EOF:
                                raise self._error(ERR_UNEXPECTED_EOF)
                            if "0" <= ch <= "9":
                                codepoint += (1 << (4 * i)) * (ord(ch) - ord("0"))
                            elif "a" <= ch <= "f":
                                codepoint += (1 << (4 * i)) * (ord(ch) - ord("a") + 10)
                            elif "A" <= ch <= "F":
                                codepoint += (1 << (4 * i)) * (ord(ch) - ord("A") + 10)
                            else:
                                raise self._error(ERR_UNEXPECTED_CHARACTER)
                        ch = chr(codepoint)
                    else:
                        raise self._error(ERR_UNEXPECTED_CHARACTER)
                buf.append(ch)

        raise self._error(ERR_UNEXPECTED_CHARACTER)

    def _read_end_triple(self) -> None:
        ch = self._skip_whitespace()
        if ch == _EOF:
            raise self._error(ERR_UNTERMINATED_TRIPLE)
        if ch != ".":
            raise self._error(ERR_UNEXPECTED_CHARACTER)
        ch = self._skip_whitespace()
        if ch == _EOF:
            return
        if ch != "\n":
            raise self._error(ERR_UNEXPECTED_CHARACTER)

    # -- public -------------------------------------------------------------

    def read(self) -> tuple[Term, Term, Term] | None:
        """Next triple, or None at EOF (ntriples.go:87-156)."""
        self.line += 1
        self.column = -1

        ch = self._skip_whitespace()
        if ch == _EOF:
            return None
        while ch == "#":
            while True:
                ch = self._read_rune()
                if ch == _EOF:
                    return None
                if ch == "\n":
                    break
            ch = self._skip_whitespace()
            if ch == _EOF:
                return None
        self._unread_rune()

        s = self._parse_term()
        self._expect_whitespace()
        p = self._parse_term()
        self._expect_whitespace()
        o = self._parse_term()
        self._read_end_triple()
        return (s, p, o)

    def read_all(self) -> list[tuple[Term, Term, Term]]:
        out = []
        while True:
            t = self.read()
            if t is None:
                return out
            out.append(t)


def parse_ntriples(text: str) -> list[tuple[Term, Term, Term]]:
    """Parse an N-Triples document into scalar triples (raises
    :class:`NTriplesParseError` on malformed input)."""
    return NTriplesReader(text).read_all()


# One line of the reader's grammar, for documents with no backslash and
# no ``\r``: IRI or blank subject, IRI predicate, any object.  Other
# shapes the reader accepts (literal or blank predicates, ``"x"@en..``)
# are left to the reader.  Quirks kept exact: a lang tag's terminator is
# consumed, so ``"x"@en.`` is an error and needs ``[ \t]+`` before the
# dot; a blank-node object may touch the dot (``_:a.``).
# 0x21-0x7E minus " < > (ntriples.go:207), and every code point ≥ 0x80
# (RDF 1.1 IRIREF)
_IRI = r"[!#-;=?-~\x{80}-\x{10FFFF}]+"
_BNODE = r"[A-Za-z][A-Za-z0-9]*"
_NT_LINE_RE = (
    rf"^[ \t]*(?:<(?P<s_iri>{_IRI})>|_:(?P<s_bn>{_BNODE}))"
    rf"[ \t]+<(?P<p>{_IRI})>[ \t]+"
    rf"(?:<(?P<o_iri>{_IRI})>[ \t]*|_:(?P<o_bn>{_BNODE})[ \t]*"
    rf'|(?P<o_q>")(?P<o_lit>[^"]*)"'
    rf"(?:@(?P<o_lang>[A-Za-z0-9-]+)[ \t]+|\^\^<(?P<o_dt>{_IRI})>[ \t]*|[ \t]*))"
    r"\.[ \t]*$"
)
_COMMENT_RE = r"^[ \t]*#"
_BLANK_RE = r"^[ \t]*$"  # the reader allows it as the last line only


def _parse_fast(texts: pa.Array, urls: pa.Array) -> tuple[np.ndarray, pa.Table]:
    """Arrow parse of the documents the line regex covers → (mask of
    those documents, their rows in document order with a ``__doc``
    column)."""
    clean = pc.invert(
        pc.or_(pc.match_substring(texts, "\\"), pc.match_substring(texts, "\r"))
    )
    fast = pc.fill_null(clean, False).to_numpy(zero_copy_only=False).copy()
    split = pc.split_pattern(pc.fill_null(texts, ""), "\n")
    lines = pc.list_flatten(split)
    doc = pc.list_parent_indices(split).to_numpy()
    last = np.zeros(len(lines), dtype=bool)
    last[split.offsets.to_numpy()[1:] - 1] = True
    m = pc.extract_regex(lines, _NT_LINE_RE)
    is_triple = pc.is_valid(m)
    ok = pc.or_(
        pc.or_(is_triple, pc.match_substring_regex(lines, _COMMENT_RE)),
        pc.and_(pa.array(last), pc.match_substring_regex(lines, _BLANK_RE)),
    )
    fast[doc[~ok.to_numpy(zero_copy_only=False)]] = False
    keep = pc.and_(is_triple, pa.array(fast[doc]))
    m = m.filter(keep)
    rows_doc = pa.array(doc, pa.int64()).filter(keep)

    def f(name):
        return pc.struct_field(m, name)

    empty = pa.array([""] * len(m), pa.string())
    sep = pa.scalar("", pa.large_string())
    literal = pc.not_equal(f("o_q"), "")
    table = pa.table({
        "url": pc.cast(pc.take(urls, rows_doc), pa.string()),
        "subj_kind": pc.cast(pc.not_equal(f("s_bn"), ""), pa.uint8()),
        "subj_value": pc.binary_join_element_wise(f("s_iri"), f("s_bn"), sep),
        "subj_lang": empty,
        "subj_datatype": empty,
        "pred_kind": pa.array(np.zeros(len(m), np.uint8)),
        "pred_value": f("p"),
        "pred_lang": empty,
        "pred_datatype": empty,
        "obj_kind": pc.if_else(
            literal, pa.scalar(KIND_LITERAL, pa.uint8()),
            pc.cast(pc.not_equal(f("o_bn"), ""), pa.uint8()),
        ),
        "obj_value": pc.binary_join_element_wise(
            f("o_iri"), f("o_bn"), f("o_lit"), sep
        ),
        "obj_lang": pc.cast(f("o_lang"), pa.string()),
        "obj_datatype": pc.cast(f("o_dt"), pa.string()),
        "__doc": rows_doc,
    })
    return fast, table


def parse_ntriples_batch(
    batch: pa.Table,
    text_column: str = "text",
    url_column: str | None = "url",
    on_error: str = "raise",
) -> pa.Table:
    """Stateless ``map_batches`` UDF: N-Triples documents → flattened
    triple rows, in document order.  ``on_error="skip"`` quarantines
    malformed documents (poison-page pattern, SURVEY.md §4) instead of
    failing the task."""
    texts = pc.cast(batch[text_column], pa.large_string()).combine_chunks()
    n = len(texts)
    urls = (
        batch[url_column].combine_chunks() if url_column
        else pa.array([""] * n, pa.string())
    )
    fast, table = _parse_fast(texts, urls)
    rows: list[tuple[Term, Term, Term]] = []
    row_urls: list[str] = []
    row_docs: list[int] = []
    for i in np.flatnonzero(~fast).tolist():
        try:
            triples = parse_ntriples(texts[i].as_py())
        except NTriplesParseError:
            if on_error == "raise":
                raise
            continue
        rows.extend(triples)
        row_urls.extend([urls[i].as_py()] * len(triples))
        row_docs.extend([i] * len(triples))
    if rows:
        slow = triples_to_table(rows, urls=row_urls, with_hash=False)
        slow = slow.append_column("__doc", pa.array(row_docs, pa.int64()))
        table = pa.concat_tables([table, slow])
        table = table.take(pc.sort_indices(table["__doc"]))  # stable
    return append_subject_hash(table.drop_columns(["__doc"]))


def read_ntriples_gz(paths, parallelism: int | None = None):
    """Directory / list of ``.nt.gz`` part files → flattened triples
    Dataset: ``read_binary_files`` streams the compressed bytes, each
    task gunzips + parses its own files (decompression stays inside
    the workers — the driver never touches payload bytes)."""
    import gzip

    import ray.data as rd

    from ..io import configure_context

    configure_context()
    ds = rd.read_binary_files(paths)

    def parse(b: pa.Table) -> pa.Table:
        # Ray's read_binary_files already gunzips by file extension;
        # the magic-byte check keeps this correct for payloads that
        # arrive still-compressed (e.g. a custom datasource)
        texts = [
            (
                gzip.decompress(v.as_py())
                if v.as_py()[:2] == b"\x1f\x8b"
                else v.as_py()
            ).decode("utf-8")
            for v in b["bytes"]
            if v.is_valid
        ]
        doc = pa.table(
            {
                "url": pa.array([""] * len(texts), pa.string()),
                "text": pa.array(texts, pa.large_string()),
            }
        )
        return parse_ntriples_batch(doc)

    return ds.map_batches(parse, batch_format="pyarrow")
