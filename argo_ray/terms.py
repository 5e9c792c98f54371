"""Core RDF term / triple data model for the Ray-Data-native engine.

The reference (kierdavis/argo) models a Term as an interface over
Resource / BlankNode / Literal (``/root/reference/term.go:30-36``) and a
Triple as three Terms (``/root/reference/triple.go:27-31``).  Here a term
is a flattened tagged union carried as four Arrow columns per position
(SURVEY.md §1.4)::

    <pos>_kind      uint8   0=IRI, 1=blank node, 2=literal
    <pos>_value     string  URI | bnode id | lexical form
    <pos>_lang      string  "" unless literal with language tag
    <pos>_datatype  string  "" unless typed literal (datatype IRI)

and a triple row is (url, subj_*, pred_*, obj_*, subject_hash).

Python-side scalars (used inside per-document parsers and in tests) are
lightweight ``Term`` NamedTuples; batch-level code never loops over them
in hot paths — rendering / hashing / filtering are vectorized in
``pyarrow.compute`` (see :func:`nt_render_term_arrays`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Term kinds (tagged-union discriminant).
KIND_IRI = 0
KIND_BLANK = 1
KIND_LITERAL = 2

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF_NS + "type"  # argo.A
XSD_NS = "http://www.w3.org/2001/XMLSchema#"


class Term(NamedTuple):
    """Scalar term: tagged union matching the reference's Term interface
    (``/root/reference/term.go:30-36``)."""

    kind: int
    value: str
    lang: str = ""
    datatype: str = ""

    def __str__(self) -> str:  # N-Triples rendering, term.go:49-51,93-110,154-156
        return render_term(self)


def IRI(uri: str) -> Term:
    return Term(KIND_IRI, uri)


def Blank(bnode_id: str) -> Term:
    return Term(KIND_BLANK, bnode_id)


def Literal(value: str, lang: str = "", datatype: str = "") -> Term:
    return Term(KIND_LITERAL, value, lang, datatype)


Triple = tuple  # (Term, Term, Term)

A = IRI(RDF_TYPE)

# ---------------------------------------------------------------------------
# N-Triples canonical rendering (scalar) — byte-compatible with the
# reference: escape order \\ then \" then \n \r \t (term.go:95-99).
# ---------------------------------------------------------------------------


def escape_literal(value: str) -> str:
    """Literal escaping, replacement order matters (term.go:95-99)."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def render_term(t: Term) -> str:
    """N-Triples text of a term (term.go:49-51, 93-110, 154-156)."""
    if t.kind == KIND_IRI:
        return f"<{t.value}>"
    if t.kind == KIND_BLANK:
        return f"_:{t.value}"
    s = f'"{escape_literal(t.value)}"'
    if t.lang:
        s += "@" + t.lang
    elif t.datatype:
        s += f"^^<{t.datatype}>"
    return s


def render_triple(s: Term, p: Term, o: Term) -> str:
    """``<s> <p> <o> .`` (triple.go:43-60)."""
    return f"{render_term(s)} {render_term(p)} {render_term(o)} ."


# ---------------------------------------------------------------------------
# Flattened Arrow schema helpers
# ---------------------------------------------------------------------------

POSITIONS = ("subj", "pred", "obj")
TERM_SUFFIXES = ("kind", "value", "lang", "datatype")


def term_fields(pos: str) -> list[pa.Field]:
    return [
        pa.field(f"{pos}_kind", pa.uint8()),
        pa.field(f"{pos}_value", pa.large_string()),
        pa.field(f"{pos}_lang", pa.string()),
        pa.field(f"{pos}_datatype", pa.string()),
    ]


def triple_schema(with_url: bool = True, with_hash: bool = True) -> pa.Schema:
    fields: list[pa.Field] = []
    if with_url:
        fields.append(pa.field("url", pa.string()))
    for pos in POSITIONS:
        fields.extend(term_fields(pos))
    if with_hash:
        fields.append(pa.field("subject_hash", pa.uint64()))
    return pa.schema(fields)


TRIPLE_COLUMNS = [f"{p}_{s}" for p in POSITIONS for s in TERM_SUFFIXES]


def cast_triple_schema(b: "pa.Table") -> "pa.Table":
    """Pin the 12 term columns to ONE union-safe schema (kinds int64,
    values large_string, lang/datatype string) — the single normalize
    every multi-stream union must share so pandas-derived and
    Arrow-native blocks never mix block types."""
    import pyarrow.compute as pc

    cols = {}
    for name in TRIPLE_COLUMNS:
        col = b[name]
        if name.endswith("_kind"):
            col = pc.cast(col, pa.int64())
        elif name.endswith("_value"):
            col = pc.cast(col, pa.large_string())
        else:
            col = pc.cast(col, pa.string())
        cols[name] = col
    return pa.table(cols)


def triples_to_table(
    rows: list[tuple[Term, Term, Term]],
    urls: list[str] | None = None,
    with_hash: bool = True,
) -> pa.Table:
    """Assemble scalar triples (from a per-document parser) into the
    flattened Arrow layout.  Used at parse boundaries only; downstream
    stages operate on the columns directly."""
    cols: dict[str, list] = {name: [] for name in TRIPLE_COLUMNS}
    for s, p, o in rows:
        for pos, t in zip(POSITIONS, (s, p, o)):
            cols[f"{pos}_kind"].append(t.kind)
            cols[f"{pos}_value"].append(t.value)
            cols[f"{pos}_lang"].append(t.lang)
            cols[f"{pos}_datatype"].append(t.datatype)
    arrays: dict[str, pa.Array] = {}
    if urls is not None:
        arrays["url"] = pa.array(urls, pa.string())
    for pos in POSITIONS:
        arrays[f"{pos}_kind"] = pa.array(cols[f"{pos}_kind"], pa.uint8())
        arrays[f"{pos}_value"] = pa.array(cols[f"{pos}_value"], pa.large_string())
        arrays[f"{pos}_lang"] = pa.array(cols[f"{pos}_lang"], pa.string())
        arrays[f"{pos}_datatype"] = pa.array(cols[f"{pos}_datatype"], pa.string())
    table = pa.table(arrays)
    if with_hash:
        table = append_subject_hash(table)
    return table


def table_to_triples(table: pa.Table) -> list[tuple[Term, Term, Term]]:
    """Inverse of :func:`triples_to_table` (tests / small results only)."""
    out = []
    d = {name: table[name].to_pylist() for name in TRIPLE_COLUMNS}
    for i in range(table.num_rows):
        out.append(
            tuple(
                Term(
                    d[f"{pos}_kind"][i],
                    d[f"{pos}_value"][i],
                    d[f"{pos}_lang"][i],
                    d[f"{pos}_datatype"][i],
                )
                for pos in POSITIONS
            )
        )
    return out


# ---------------------------------------------------------------------------
# Vectorized N-Triples rendering over Arrow columns (K1 / M8).
# ---------------------------------------------------------------------------


def _escape_literal_array(arr: pa.Array) -> pa.Array:
    # Same replacement order as the scalar path (term.go:95-99); these are
    # literal (non-regex) substring replacements → vectorized C++ kernels.
    for find, repl in (
        ("\\", "\\\\"),
        ('"', '\\"'),
        ("\n", "\\n"),
        ("\r", "\\r"),
        ("\t", "\\t"),
    ):
        arr = pc.replace_substring(arr, pattern=find, replacement=repl)
    return arr


def nt_render_term_arrays(
    kind: pa.Array, value: pa.Array, lang: pa.Array, datatype: pa.Array
) -> pa.Array:
    """Vectorized N-Triples rendering of one term position."""
    def ls(s: str):
        return pa.scalar(s, pa.large_string())

    kind = pc.cast(kind, pa.uint8())
    value = pc.cast(value, pa.large_string())
    iri = pc.binary_join_element_wise(ls("<"), value, ls(">"), ls(""))
    blank = pc.binary_join_element_wise(ls("_:"), value, ls(""))
    esc = _escape_literal_array(value)
    quoted = pc.binary_join_element_wise(ls('"'), esc, ls('"'), ls(""))
    lang_l = pc.cast(lang, pa.large_string())
    dt = pc.cast(datatype, pa.large_string())
    with_lang = pc.binary_join_element_wise(quoted, ls("@"), lang_l, ls(""))
    with_dt = pc.binary_join_element_wise(quoted, ls("^^<"), dt, ls(">"), ls(""))
    lit = pc.if_else(
        pc.not_equal(lang_l, ""),
        with_lang,
        pc.if_else(pc.not_equal(dt, ""), with_dt, quoted),
    )
    return pc.if_else(
        pc.equal(kind, KIND_IRI),
        iri,
        pc.if_else(pc.equal(kind, KIND_BLANK), blank, lit),
    )


def nt_render_position(table: pa.Table, pos: str) -> pa.Array:
    return nt_render_term_arrays(
        table[f"{pos}_kind"],
        table[f"{pos}_value"],
        table[f"{pos}_lang"],
        table[f"{pos}_datatype"],
    )


def nt_render_lines(table: pa.Table) -> pa.Array:
    """Vectorized ``<s> <p> <o> .`` lines for a flattened triple table."""
    s = nt_render_position(table, "subj")
    p = nt_render_position(table, "pred")
    o = nt_render_position(table, "obj")
    return pc.binary_join_element_wise(
        s, p, o, pa.scalar(".", pa.large_string()), pa.scalar(" ", pa.large_string())
    )


_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def unescape_literal(s: str) -> str:
    """Single left-to-right pass inverting ``escape_literal`` — a
    sequence of ``str.replace`` calls would mis-handle ``\\\\t``."""
    if "\\" not in s:
        return s
    out: list[str] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n:
            out.append(_UNESCAPES.get(s[i + 1], "\\" + s[i + 1]))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


_NT_LITERAL_RE = r'^"((?:[^"\\]|\\.)*)"(?:@([A-Za-z0-9-]+)|\^\^<([^>]*)>)?$'


def nt_parse_term_arrays(arr: pa.Array | pa.ChunkedArray) -> dict[str, pa.Array]:
    """Inverse of ``nt_render_term_arrays``: canonical N-Triples term
    strings → ``{"kind", "value", "lang", "datatype"}`` arrays (kind
    int64; strings large_string, lang/datatype ``""`` when absent —
    the same convention the flattened triple store and binding columns
    use; null input rows stay null throughout).

    IRIs and blank labels render unescaped, so those are pure slices;
    literal bodies escape only ``\\ \" \\n \\r \\t`` (term.go:95-99),
    extracted with one vectorized regex — the per-row ``unescape``
    fallback fires only for the rare backslash-bearing rows.  Sized for
    aggregate outputs and result-set boundaries (one row per group /
    binding), not the raw-triple hot path."""
    import pandas as pd

    s = pd.Series(
        (arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr)
        .to_pandas()
        .astype(object)
    )
    valid = s.notna()
    sv = s.where(valid, "")
    first = sv.str.slice(0, 1)
    is_iri = valid & (first == "<")
    is_blank = valid & (first == "_")
    is_lit = valid & ~is_iri & ~is_blank
    kind = np.where(is_iri, KIND_IRI, np.where(is_blank, KIND_BLANK, KIND_LITERAL))
    value = pd.Series([None] * len(s), dtype=object)
    lang = pd.Series([None] * len(s), dtype=object)
    datatype = pd.Series([None] * len(s), dtype=object)
    lang[valid] = ""
    datatype[valid] = ""
    value[is_iri] = sv[is_iri].str.slice(1, -1)
    value[is_blank] = sv[is_blank].str.slice(2)
    if is_lit.any():
        parts = sv[is_lit].str.extract(_NT_LITERAL_RE)
        bad = parts[0].isna()
        if bad.any():
            raise ValueError(
                f"not a canonical N-Triples term: {sv[is_lit][bad].iloc[0]!r}"
            )
        lex = parts[0]
        esc = lex.str.contains("\\", regex=False)
        if esc.any():
            lex = lex.mask(esc, lex[esc].map(unescape_literal))
        value[is_lit] = lex
        lang[is_lit] = parts[1].fillna("")
        datatype[is_lit] = parts[2].fillna("")
    mask = (~valid).to_numpy()
    return {
        "kind": pa.array(
            np.ma.masked_array(kind.astype("int64"), mask=mask), pa.int64()
        ),
        "value": pa.array(value, pa.large_string()),
        "lang": pa.array(lang, pa.large_string()),
        "datatype": pa.array(datatype, pa.large_string()),
    }


# ---------------------------------------------------------------------------
# Hashing / partition keys
# ---------------------------------------------------------------------------

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def _fnv1a_64(s: str) -> int:
    h = int(_FNV_OFFSET)
    for b in s.encode("utf-8"):
        h = ((h ^ b) * int(_FNV_PRIME)) & 0xFFFFFFFFFFFFFFFF
    return h


def hash64_stable(strings: pa.Array | list[str]) -> pa.Array:
    """Environment-independent 64-bit hash (FNV-1a over utf-8 bytes) of
    a string column — for PERSISTED ids (parquet_store term ids), where
    stores written under different polars versions must stay mergeable.
    :func:`hash64` (polars) is for transient shuffle keys only.

    Vectorized column-wise over byte positions: one uint64 xor/multiply
    across all still-active rows per position — ~mean-length passes per
    batch instead of a per-row Python loop.  Rows longer than 256 bytes
    (rare for term renderings) fall back to the scalar loop.
    """
    import numpy as np

    if not isinstance(strings, (pa.Array, pa.ChunkedArray)):
        strings = pa.array(strings, pa.large_string())
    arr = pc.cast(strings, pa.large_binary())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
        if isinstance(arr, pa.ChunkedArray):  # combine_chunks may still chunk
            arr = arr.chunk(0) if arr.num_chunks == 1 else pa.concat_arrays(
                arr.chunks
            )
    n = len(arr)
    if n == 0:
        return pa.array([], pa.uint64())
    buffers = arr.buffers()
    # offsets are absolute positions into the data buffer; the offsets
    # buffer itself starts at arr.offset elements for sliced arrays
    offsets = np.frombuffer(buffers[1], dtype=np.int64)[
        arr.offset : arr.offset + n + 1
    ]
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] else np.empty(
        0, np.uint8
    )
    starts = offsets[:-1]
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    short = lengths <= 256
    maxlen = int(lengths[short].max()) if short.any() else 0
    with np.errstate(over="ignore"):
        for j in range(maxlen):
            active = short & (lengths > j)
            if not active.any():
                break
            b = data[starts[active] + j].astype(np.uint64)
            h[active] = (h[active] ^ b) * _FNV_PRIME
    if not short.all():
        vals = arr.to_pylist()
        for i in np.nonzero(~short)[0]:
            h[i] = _fnv1a_64(vals[i].decode("utf-8", errors="surrogateescape"))
    return pa.array(h, pa.uint64())


def hash64(strings: pa.Array | list[str], seed: int = 0) -> pa.Array:
    """Deterministic 64-bit hash of a string column.

    Vectorized via polars' Rust hash kernel when available (stable within
    one environment — sufficient for partitioning / groupby keys and
    within-run dedup keys, never used for equality semantics or persisted
    ids); pure-python FNV-1a 64 fallback mirrors the reference's
    term-hash precedent (redisstore.go:29-33).  ``seed`` selects an
    independent hash family — pair seed 0 + seed 1 for a 128-bit
    composite key when the keyspace is large enough for 64-bit birthday
    collisions (≳10^9 rows).
    """
    if not isinstance(strings, (pa.Array, pa.ChunkedArray)):
        strings = pa.array(strings, pa.large_string())
    try:
        import polars as pl

        # pl.from_arrow handles Array and ChunkedArray alike — never go
        # through pa.array(iterable), which walks Python scalars
        s = pl.from_arrow(pc.cast(strings, pa.large_string()))
        hashed = s.hash(seed=seed)
        return hashed.to_arrow().cast(pa.uint64())
    except Exception:
        if seed:
            return pa.array(
                [_fnv1a_64(f"{seed}\x1f{v}") for v in strings.to_pylist()],
                pa.uint64(),
            )
        return pa.array(
            [_fnv1a_64(v) for v in strings.to_pylist()], pa.uint64()
        )


def subject_canonical(table: pa.Table) -> pa.Array:
    """Canonical subject string = its N-Triples rendering, so hash and
    equality agree (same canonical text the serializer emits)."""
    return nt_render_position(table, "subj")


def append_subject_hash(table: pa.Table) -> pa.Table:
    h = hash64(subject_canonical(table))
    if "subject_hash" in table.column_names:
        table = table.drop_columns(["subject_hash"])
    return table.append_column("subject_hash", h)
