"""N-Triples conformance corpus, ported verbatim from the reference's
table-driven tests (``/root/reference/ntriples_test.go:28-119``):
16 positive cases + 22 negative cases, plus the multi-record round-trip
(``ntriples_test.go:139-167``)."""

import pyarrow as pa
import pytest

from argo_ray.sinks.ntriples import serialize_ntriples
from argo_ray.sources.ntriples import (
    ERR_UNEXPECTED_CHARACTER,
    ERR_UNEXPECTED_EOF,
    ERR_UNTERMINATED_TRIPLE,
    NTriplesParseError,
    NTriplesReader,
    parse_ntriples,
    parse_ntriples_batch,
)
from argo_ray.terms import IRI, Blank, Literal, render_triple, triples_to_table

R = IRI
B = Blank
L = Literal

POSITIVE_CASES = [
    (
        "<http://example.org/resource1> <http://example.org/property> <http://example.org/resource2> .",
        (R("http://example.org/resource1"), R("http://example.org/property"), R("http://example.org/resource2")),
    ),
    (
        "_:anon <http://example.org/property> <http://example.org/resource2> .",
        (B("anon"), R("http://example.org/property"), R("http://example.org/resource2")),
    ),
    (
        "<http://example.org/resource1> <http://example.org/property> _:anon .",
        (R("http://example.org/resource1"), R("http://example.org/property"), B("anon")),
    ),
    (
        " \t <http://example.org/resource3> \t <http://example.org/property>\t <http://example.org/resource2> \t.",
        (R("http://example.org/resource3"), R("http://example.org/property"), R("http://example.org/resource2")),
    ),
    (
        '<http://example.org/resource7> <http://example.org/property> "simple literal" .',
        (R("http://example.org/resource7"), R("http://example.org/property"), L("simple literal")),
    ),
    (
        r'<http://example.org/resource8> <http://example.org/property> "backslash:\\" .',
        (R("http://example.org/resource8"), R("http://example.org/property"), L("backslash:\\")),
    ),
    (
        r'<http://example.org/resource9> <http://example.org/property> "dquote:\"" .',
        (R("http://example.org/resource9"), R("http://example.org/property"), L('dquote:"')),
    ),
    (
        r'<http://example.org/resource10> <http://example.org/property> "newline:\n" .',
        (R("http://example.org/resource10"), R("http://example.org/property"), L("newline:\n")),
    ),
    (
        r'<http://example.org/resource11> <http://example.org/property> "return\r" .',
        (R("http://example.org/resource11"), R("http://example.org/property"), L("return\r")),
    ),
    (
        r'<http://example.org/resource12> <http://example.org/property> "tab:\t" .',
        (R("http://example.org/resource12"), R("http://example.org/property"), L("tab:\t")),
    ),
    (
        r'<http://example.org/resource16> <http://example.org/property> "é" .',
        (R("http://example.org/resource16"), R("http://example.org/property"), L("é")),
    ),
    (
        '<http://example.org/resource30> <http://example.org/property> "chat"@fr .',
        (R("http://example.org/resource30"), R("http://example.org/property"), L("chat", lang="fr")),
    ),
    (
        '<http://example.org/resource31> <http://example.org/property> "chat"@en .',
        (R("http://example.org/resource31"), R("http://example.org/property"), L("chat", lang="en")),
    ),
    (
        "# this is a comment \n<http://example.org/resource1> <http://example.org/property> <http://example.org/resource2> .",
        (R("http://example.org/resource1"), R("http://example.org/property"), R("http://example.org/resource2")),
    ),
    (
        "# this is a comment \n   # another comment \n<http://example.org/resource1> <http://example.org/property> <http://example.org/resource2> .",
        (R("http://example.org/resource1"), R("http://example.org/property"), R("http://example.org/resource2")),
    ),
    (
        '<http://example.org/resource7> <http://example.org/property> "typed literal"^^<http://example.org/datatype1> .',
        (
            R("http://example.org/resource7"),
            R("http://example.org/property"),
            L("typed literal", datatype="http://example.org/datatype1"),
        ),
    ),
]

NEGATIVE_CASES = [
    ("<http://example.org/resource1> <http://example.org/property> <http://example.org/resource2> ", ERR_UNTERMINATED_TRIPLE),
    ("<http://example.org/resource1> <http://example.org/property> <http://example.org/resource2> ,", ERR_UNEXPECTED_CHARACTER),
    ("<http://example.org/resource1> <http://example.org/property> <http://example.org/resource2> ..", ERR_UNEXPECTED_CHARACTER),
    ("http://example.org/resource1> <http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("<http://example.org/resource1 <http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("<http://example.org/resource1><http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("<http://example.org/resource1> <http://example.org/property><http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("<http://example.org/resource1> http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("<http://example.org/resource1> <http://example.org/property <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("<http://example.org/resource1> <http://example.org/property> http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("<http://example.org/resource1> <http://example.org/property> <http://example.org/resource2.", ERR_UNEXPECTED_EOF),
    ("<http://example.org/resource1> \n<http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("_:foo\n <http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("_:0abc <http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("_abc <http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("_:a-bc <http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ("_:abc<http://example.org/property> <http://example.org/resource2>.", ERR_UNEXPECTED_CHARACTER),
    ('_:abc <http://example.org/property> "foo"@ .', ERR_UNEXPECTED_CHARACTER),
    ('_:abc <http://example.org/property> "foo"^ .', ERR_UNEXPECTED_CHARACTER),
    ('_:abc <http://example.org/property> "foo"^^< .', ERR_UNEXPECTED_CHARACTER),
    ('_:abc <http://example.org/property> "foo"^^<> .', ERR_UNEXPECTED_CHARACTER),
    ("_:abc <> _:abc .", ERR_UNEXPECTED_CHARACTER),
    ("_:abc < > _:abc .", ERR_UNEXPECTED_CHARACTER),
]


@pytest.mark.parametrize("line,expected", POSITIVE_CASES)
def test_read_positive(line, expected):
    triples = parse_ntriples(line)
    assert len(triples) == 1
    assert triples[0] == expected


@pytest.mark.parametrize("line,kind", NEGATIVE_CASES)
def test_read_negative(line, kind):
    with pytest.raises(NTriplesParseError) as exc:
        NTriplesReader(line).read()
    assert exc.value.kind == kind


def test_read_multiple():
    doc = "".join(line + "\n" for line, _ in POSITIVE_CASES)
    triples = parse_ntriples(doc)
    assert triples == [t for _, t in POSITIVE_CASES]


def test_serialize_parse_roundtrip():
    triples = [t for _, t in POSITIVE_CASES]
    table = triples_to_table(triples, with_hash=False)
    text = serialize_ntriples(table)
    assert parse_ntriples(text) == triples


def test_render_matches_reference_escaping():
    s, p, o = (
        R("http://e.org/s"),
        R("http://e.org/p"),
        L('a\\b"c\nd\re\tf'),
    )
    assert render_triple(s, p, o) == '<http://e.org/s> <http://e.org/p> "a\\\\b\\"c\\nd\\re\\tf" .'


def test_parse_batch():
    doc = "".join(line + "\n" for line, _ in POSITIVE_CASES)
    batch = pa.table({"url": ["u1", "u2"], "text": [doc, doc]})
    out = parse_ntriples_batch(batch)
    assert out.num_rows == 2 * len(POSITIVE_CASES)
    assert "subject_hash" in out.column_names


def test_crlf_folding():
    doc = "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\r\n<http://e.org/s2> <http://e.org/p> <http://e.org/o> .\r\n"
    assert len(parse_ntriples(doc)) == 2


def test_nt_gz_roundtrip_files(tmp_path, ray_session):
    """write_ntriples_gz emits deterministic .nt.gz parts;
    read_ntriples_gz parses them back to the same triple multiset."""
    import gzip
    import os

    import pyarrow as pa

    from argo_ray.sinks.ntriples import write_ntriples_gz
    from argo_ray.sources.ntriples import read_ntriples_gz
    from argo_ray.terms import IRI, Literal, triples_to_table

    t = triples_to_table(
        [
            (IRI("http://e/s"), IRI("http://e/p"), Literal("x", lang="en")),
            (IRI("http://e/s"), IRI("http://e/q"), IRI("http://e/o")),
        ],
        with_hash=False,
    )
    import ray.data as rd

    out = str(tmp_path / "gz")
    manifest = write_ntriples_gz(rd.from_arrow(t), out)
    assert manifest["rows"].sum() == 2
    paths = [p for p in os.listdir(out) if p.endswith(".nt.gz")]
    assert paths
    with gzip.open(os.path.join(out, paths[0]), "rt") as f:
        assert f.read().count("\n") >= 1  # really gzipped on disk
    back = read_ntriples_gz(out).to_pandas()
    assert len(back) == 2
    assert set(back["pred_value"]) == {"http://e/p", "http://e/q"}


def test_identical_blocks_publish_one_part(tmp_path, ray_session):
    """64 identical blocks render to one part name, so concurrent tasks
    publish the same path: each must go through its own temp file and
    leave the one part file and no temp file behind."""
    import os

    import ray.data as rd

    from argo_ray.sinks.ntriples import write_ntriples
    from argo_ray.terms import IRI, Literal, triples_to_table

    t = triples_to_table(
        [(IRI(f"http://e/s{i}"), IRI("http://e/p"), Literal(str(i))) for i in range(600)],
        with_hash=False,
    )
    out = str(tmp_path / "nt")
    manifest = write_ntriples(rd.from_arrow([t] * 64), out)
    assert manifest["rows"].tolist() == [600] * 64
    assert set(manifest["path"]) == {os.path.join(out, n) for n in os.listdir(out)}
    assert len(os.listdir(out)) == 1
    assert not [n for n in os.listdir(out) if n.startswith(".")]
