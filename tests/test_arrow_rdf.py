"""Arrow Turtle renderer and N-Triples fast path against frozen copies
of the per-row implementations they replaced (kept here as references,
the way ``test_property._ref_bgp`` is), plus the subject-collision,
``split_prefix`` and empty-partition contracts of the grouping sinks."""

import glob
import os
import re
import string

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from argo_ray.sinks.trig import serialize_trig
from argo_ray.sinks.turtle import TurtleBlockRenderer, serialize_turtle
from argo_ray.sources.ntriples import NTriplesParseError, parse_ntriples, parse_ntriples_batch
from argo_ray.stages.canon import split_prefix, split_prefix_arrays
from argo_ray.terms import (
    KIND_BLANK,
    KIND_IRI,
    TRIPLE_COLUMNS,
    Blank,
    IRI,
    Literal,
    Term,
    append_subject_hash,
    render_term,
    triples_to_table,
)

# --- frozen references: the pandas Turtle/TriG renderers -------------------

_REF_QNAME_LOCAL_RE = re.compile(r"[\w./#-]*\Z")


def _ref_encode_term(kind, value, lang, datatype, prefixes):
    if kind == KIND_IRI:
        base, local = split_prefix(value)
        prefix = prefixes.get(base)
        if prefix is not None and _REF_QNAME_LOCAL_RE.match(local):
            return f"{prefix}:{local}"
        return f"<{value}>"
    return render_term(Term(kind, value, lang, datatype))


def _ref_turtle_header(prefixes):
    return "".join(f"@prefix {p}: <{base}> .\n" for base, p in prefixes.items()) + "\n"


def _ref_render_turtle_block(group, prefixes):
    rows = group.to_dict("records")
    first = rows[0]
    subj = _ref_encode_term(
        first["subj_kind"], first["subj_value"], first["subj_lang"],
        first["subj_datatype"], prefixes,
    )
    out = [subj, "\n"]
    for r in rows:
        p = _ref_encode_term(r["pred_kind"], r["pred_value"], r["pred_lang"], r["pred_datatype"], prefixes)
        o = _ref_encode_term(r["obj_kind"], r["obj_value"], r["obj_lang"], r["obj_datatype"], prefixes)
        out.append(f"  {p} {o} ;\n")
    out.append("  .\n\n")
    return "".join(out)


def _ref_serialize_turtle(table, prefixes):
    df = table.to_pandas()
    blocks = [
        _ref_render_turtle_block(g, prefixes)
        for _, g in df.groupby(["subj_kind", "subj_value"], sort=True)
    ]
    return _ref_turtle_header(prefixes) + "".join(blocks)


def _ref_serialize_trig(table, prefixes):
    df = table.to_pandas()
    out = [_ref_turtle_header(prefixes)]
    for (gk, gv), gdf in sorted(
        df.groupby(["graph_kind", "graph_value"], sort=True),
        key=lambda kv: (kv[0][1] != "", kv[0]),
    ):
        blocks = [
            _ref_render_turtle_block(g, prefixes)
            for _, g in gdf.groupby(["subj_kind", "subj_value"], sort=True)
        ]
        if gv == "":
            out.extend(blocks)
        else:
            out.append((f"_:{gv}" if gk == KIND_BLANK else f"<{gv}>") + " {\n")
            out.extend(blocks)
            out.append("}\n\n")
    return "".join(out)


# --- frozen reference: the reader-only batch parser -----------------------


def _ref_parse_ntriples_batch(batch, on_error="raise"):
    rows, row_urls = [], []
    for text, url in zip(batch["text"].to_pylist(), batch["url"].to_pylist()):
        try:
            triples = parse_ntriples(text)
        except NTriplesParseError:
            if on_error == "raise":
                raise
            continue
        rows.extend(triples)
        row_urls.extend([url] * len(triples))
    return append_subject_hash(triples_to_table(rows, urls=row_urls, with_hash=False))


# --- Turtle / TriG strategies ---------------------------------------------

BASES = ["http://x.org/ns#", "http://x.org/a/", "urn:x:", "http://é.org/", "http://x.org/a\nb/"]
# ASCII word characters, the qname punctuation, characters that fail the
# qname rule, and non-ASCII characters on both sides of Python's \w
# (letters, digits, numerals, marks, symbols, and U+11F04, a letter in
# RE2's Unicode tables but not in Python's)
_LOCAL_CHARS = "aZ09_.-/#%~:? \n" + "éß中٣²Ⅻ̀·€\U00011f04"
local_strategy = st.text(st.sampled_from(_LOCAL_CHARS), max_size=6)
iri_term = st.builds(lambda b, l: IRI(b + l), st.sampled_from(BASES), local_strategy)
bnode_term = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,4}", fullmatch=True).map(Blank)
literal_text = st.text(st.sampled_from(string.printable + "é€中\\\"\n\r\t"), max_size=12)
literal_term = st.one_of(
    literal_text.map(Literal),
    st.builds(lambda v, lang: Literal(v, lang=lang), literal_text,
              st.sampled_from(["en", "de-ch", "x1"])),
    st.builds(lambda v, dt: Literal(v, datatype=dt.value), literal_text, iri_term),
)
# few distinct subjects, so blocks hold several rows
subject_term = st.one_of(
    st.sampled_from([IRI(BASES[0] + "s"), IRI(BASES[1] + "é"), IRI("urn:x:%"), Blank("b1")]),
    iri_term, bnode_term,
)
triple_strategy = st.tuples(subject_term, iri_term, st.one_of(iri_term, bnode_term, literal_term))
prefix_strategy = st.one_of(
    st.just({}),
    st.lists(st.sampled_from(BASES), unique=True).map(
        lambda bs: {b: f"p{i}" for i, b in enumerate(bs)}
    ),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(triple_strategy, max_size=15), prefix_strategy)
def test_serialize_turtle_matches_reference(triples, prefixes):
    table = triples_to_table(triples, with_hash=False)
    assert serialize_turtle(table, prefixes) == _ref_serialize_turtle(table, prefixes)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(triple_strategy, min_size=1, max_size=15), prefix_strategy)
def test_block_renderer_matches_reference_blocks(triples, prefixes):
    """Rows grouped by subject in any order render block for block."""
    table = triples_to_table(triples, with_hash=True)
    table = table.take(pc.sort_indices(table, [("subject_hash", "ascending")]))
    df = table.to_pandas()
    subj = df[["subj_kind", "subj_value"]]
    runs = subj.ne(subj.shift()).any(axis=1).cumsum()
    expected = "".join(
        _ref_render_turtle_block(g, prefixes) for _, g in df.groupby(runs, sort=False)
    )
    assert TurtleBlockRenderer(prefixes)(table) == expected


graph_strategy = st.sampled_from(
    [(0, ""), (0, "http://g/1"), (0, "http://g/0"), (1, "g2"), (1, "")]
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(triple_strategy, graph_strategy), max_size=15), prefix_strategy)
def test_serialize_trig_matches_reference(quads, prefixes):
    table = triples_to_table([t for t, _ in quads], with_hash=False)
    table = table.append_column("graph_kind", pa.array([g[0] for _, g in quads], pa.int64()))
    table = table.append_column(
        "graph_value", pa.array([g[1] for _, g in quads], pa.large_string())
    )
    assert serialize_trig(table, prefixes) == _ref_serialize_trig(table, prefixes)


# --- split_prefix ---------------------------------------------------------

SPLIT_CASES = [
    "http://a/b\nc/d", "a#b\n#c\nd", "x\ny", "", "é/ü#ß", "http://a/b",
    "noslash", "#", "/", "a#b/c", "http://é.org/中", "urn:x:y", "\n/\n", "a/b#",
]


@pytest.mark.parametrize("value", SPLIT_CASES)
def test_split_prefix_scalar_and_arrays_agree(value):
    base, name = split_prefix_arrays(pa.array([value]))
    assert (base[0].as_py(), name[0].as_py()) == split_prefix(value)
    assert split_prefix(value)[0] + split_prefix(value)[1] == value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(st.sampled_from("ab#/\né中 "), max_size=8), min_size=1, max_size=10))
def test_split_prefix_arrays_property(values):
    base, name = split_prefix_arrays(pa.array(values, pa.string()))
    assert list(zip(base.to_pylist(), name.to_pylist())) == [split_prefix(v) for v in values]


# --- N-Triples fast path --------------------------------------------------

_NT_IRIS = ["<http://a/b>", "<x>", "<a#b/c?d=~>", "<>", "<a b>", "<a\\b>", "<é>", '<a"b>']
_NT_BNODES = ["_:a", "_:b1", "_:1a", "_:", "_:é"]
_NT_LITERALS = [
    '"x"', '""', '"a b"', '"é€中"', '"#c"', '"<a>"', '"x\\ny"', '"q\\"q"',
    '"\\u00e9"', '"\\U0001"', '"raw\nnewline"', '"vt\x0bx"', '"tab\tx"', '"unterminated',
]
_NT_SUFFIXES = ["", "", "@en", "@en-us", "@EN", "@", "^^<http://dt>", "^^<>", "^<x>"]
nt_term = st.one_of(
    st.sampled_from(_NT_IRIS), st.sampled_from(_NT_BNODES),
    st.builds(str.__add__, st.sampled_from(_NT_LITERALS), st.sampled_from(_NT_SUFFIXES)),
)
nt_ws = st.sampled_from([" ", " ", "\t", "  ", "", "\x0b"])
nt_end = st.sampled_from([" .", " .", ".", "..", " . ", "", " .\t", " . #x", " .x"])
nt_triple_line = st.builds(
    lambda lead, s, w1, p, w2, o, end: lead + s + w1 + p + w2 + o + end,
    st.sampled_from(["", "", " ", "\t"]), nt_term, nt_ws, nt_term, nt_ws, nt_term, nt_end,
)
nt_line = st.one_of(
    nt_triple_line, nt_triple_line, nt_triple_line,
    st.sampled_from(["# comment", "  # é \\ x", "#", "", "  ", "\t"]),
)
nt_doc = st.builds(
    lambda lines, seps, tail: "".join(l + s for l, s in zip(lines, seps)) + tail,
    st.lists(nt_line, max_size=5),
    st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\n\n"]), min_size=5, max_size=5),
    st.sampled_from(["", "", "  ", "\n"]),
)
# mostly well-formed documents, so the fast path gets most of them
_GOOD_S = ["<http://a/s>", "<x>", "_:a", "_:b1"]
_GOOD_O = _GOOD_S + ['"x"', '""', '"a b"', '"é\tv\x0b"', '"#<c>"', '"x"@en', '"y"^^<http://dt>']
nt_good_line = st.builds(
    lambda lead, s, w1, p, w2, o, end: lead + s + w1 + p + w2 + o + end,
    st.sampled_from(["", " "]), st.sampled_from(_GOOD_S), st.sampled_from([" ", "\t"]),
    st.sampled_from(["<http://a/p>", "<p>"]), st.sampled_from([" ", "  "]),
    st.sampled_from(_GOOD_O), st.sampled_from([" .", ".", " . ", " .\t"]),
)
nt_good_doc = st.builds(
    lambda lines, tail: "\n".join(lines) + tail,
    st.lists(st.one_of(nt_good_line, nt_good_line, nt_good_line, st.just("# c")), max_size=6),
    st.sampled_from(["", "\n", "\n  "]),
)


def _parse_outcome(fn, batch, on_error):
    try:
        return fn(batch, on_error=on_error)
    except NTriplesParseError as e:
        return (e.line, e.column, e.kind)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(nt_doc, nt_good_doc), min_size=1, max_size=4))
def test_parse_ntriples_batch_matches_reader(docs):
    batch = pa.table({
        "url": pa.array([f"u{i}" for i in range(len(docs))], pa.string()),
        "text": pa.array(docs, pa.string()),
    })
    for on_error in ("raise", "skip"):
        want = _parse_outcome(_ref_parse_ntriples_batch, batch, on_error)
        got = _parse_outcome(parse_ntriples_batch, batch, on_error)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.schema == want.schema
            assert got.equals(want)


@pytest.mark.parametrize("doc,ok", [
    ('<a> <b> "x"@en.\n', False),   # the lang tag's terminator is consumed
    ('<a> <b> "x"@en .\n', True),
    ("<a> <b> _:a.\n", True),       # blank object may touch the dot
    ('<a> <b> "x\ny" .\n', True),   # raw newline inside a literal
    ("<a> <b> <c> .\n\n", False),   # blank line before EOF
    ("<a> <b> <c> .\n  ", True),    # whitespace-only last line
    ("# only a comment", True),
    ("<a\\b> <p> <o> .", True),     # backslash in an IRI
])
def test_parse_ntriples_batch_reader_quirks(doc, ok):
    batch = pa.table({"url": ["u"], "text": [doc]})
    if ok:
        assert parse_ntriples_batch(batch).equals(_ref_parse_ntriples_batch(batch))
    else:
        with pytest.raises(NTriplesParseError):
            parse_ntriples_batch(batch)
        assert parse_ntriples_batch(batch, on_error="skip").num_rows == 0


def test_fast_path_takes_well_formed_documents():
    """Only documents with an escape, a ``\\r`` or an odd line shape
    reach the reader."""
    from argo_ray.sources.ntriples import _parse_fast

    docs = [
        '<http://a/s> <http://a/p> "x y"@en .\n# c\n_:b <p> _:c.\n<s> <p> "q"^^<dt> .\n',
        "",
        '<a> <b> "x\\n" .\n',
        "<a> <b> <c> .\r\n",
        '<a> <b> "x"@en.\n',
    ]
    fast, table = _parse_fast(pa.array(docs, pa.large_string()), pa.array(["u"] * 5))
    assert fast.tolist() == [True, True, False, False, False]
    assert table.num_rows == 3


def test_parse_ntriples_batch_keeps_document_order():
    """Fast-path and reader documents interleave in input order."""
    docs = ['<a> <p> "1" .\n', '<b> <p> "2\\t" .\n', '<c> <p> "3" .\n', '<d> <p> "\\u00e9" .']
    batch = pa.table({"url": ["0", "1", "2", "3"], "text": docs})
    out = parse_ntriples_batch(batch)
    assert out["url"].to_pylist() == ["0", "1", "2", "3"]
    assert out["obj_value"].to_pylist() == ["1", "2\t", "3", "é"]


# --- subject-hash collisions ----------------------------------------------


def _triple_set(table):
    return {tuple(table[c][i].as_py() for c in TRIPLE_COLUMNS) for i in range(table.num_rows)}


def _read_parts(out_dir, pattern):
    docs = []
    for path in sorted(glob.glob(os.path.join(out_dir, pattern))):
        with open(path) as f:
            docs.append(f.read())
    return pa.table({"url": pa.array([""] * len(docs), pa.string()),
                     "text": pa.array(docs, pa.string())})


def test_subject_hash_collision_keeps_subjects_apart(ray_session, tmp_path):
    import ray.data

    from argo_ray.sinks.jsonld import parse_jsonld_batch, write_jsonld
    from argo_ray.sinks.rdfjson import parse_rdfjson_batch, write_rdfjson
    from argo_ray.sinks.rdfxml import write_rdfxml
    from argo_ray.sinks.trig import write_trig
    from argo_ray.sinks.turtle import write_turtle
    from argo_ray.sources.rdfxml import parse_rdfxml_batch
    from argo_ray.sources.trig import parse_trig_batch
    from argo_ray.sources.turtle import parse_turtle_batch

    triples = []
    for i in range(6):
        for s in ("http://e/a", "http://e/b"):
            triples.append((IRI(s), IRI("http://e/p"), Literal(f"{s[-1]}{i}")))
    table = triples_to_table(triples, with_hash=True)
    # one planted 64-bit collision: both subjects share subject_hash
    table = table.set_column(
        table.schema.get_field_index("subject_hash"), "subject_hash",
        pa.array([7] * table.num_rows, pa.uint64()),
    )
    expected = _triple_set(table)
    assert TurtleBlockRenderer()(table).count("  .\n\n") == table.num_rows

    for write, pattern, parse in (
        (write_turtle, "*.ttl", parse_turtle_batch),
        (write_rdfxml, "*.rdf", parse_rdfxml_batch),
        (write_rdfjson, "*.json", parse_rdfjson_batch),
        (write_jsonld, "*.jsonld", parse_jsonld_batch),
        (write_trig, "*.trig", parse_trig_batch),
    ):
        out = str(tmp_path / pattern[2:])
        write(ray.data.from_arrow(table).repartition(3), out)
        assert _triple_set(parse(_read_parts(out, pattern))) == expected, pattern


@pytest.mark.parametrize("sink, write", [
    ("ntriples", "write_ntriples"), ("ntriples", "write_ntriples_gz"),
    ("nquads", "write_nquads"), ("squirtle", "write_squirtle"),
    ("turtle", "write_turtle"), ("rdfxml", "write_rdfxml"),
    ("rdfjson", "write_rdfjson"), ("jsonld", "write_jsonld"), ("trig", "write_trig"),
])
def test_turtle_writer_skips_empty_partitions(ray_session, tmp_path, sink, write):
    """A subject-keyed writer gets one subject spread over 16 blocks:
    its exchange gathers the subject into one full block and empty
    partitions.  A streaming writer gets one full block and 15 empty
    ones as they come.  Every directory writer writes exactly one part
    file and a typed manifest whose ``rows`` counts triples."""
    import importlib

    import ray.data

    write = getattr(importlib.import_module(f"argo_ray.sinks.{sink}"), write)
    triples = [(IRI("http://e/s"), IRI("http://e/p"), Literal(str(i))) for i in range(64)]
    table = triples_to_table(triples, with_hash=True)
    out = str(tmp_path / "out")
    if sink in ("turtle", "rdfxml", "rdfjson", "jsonld", "trig"):
        ds = ray.data.from_arrow(table).repartition(16)
    else:
        ds = ray.data.from_arrow([table] + [table.slice(0, 0)] * 15)
    manifest = write(ds, out)
    assert os.listdir(out) == [os.path.basename(p) for p in manifest["path"]]
    assert list(manifest.columns) == ["path", "rows"]
    assert manifest["rows"].dtype == "int64"
    assert manifest["rows"].tolist() == [64]
    assert pd.api.types.is_string_dtype(manifest["path"])
