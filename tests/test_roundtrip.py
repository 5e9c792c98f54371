"""Serialize→parse round-trip property tests (SURVEY.md §5): the triple
multiset is preserved under term equality for every format pair."""

from collections import Counter

import pytest

from argo_ray.sinks.ntriples import serialize_ntriples
from argo_ray.sinks.rdfjson import parse_rdfjson, serialize_rdfjson
from argo_ray.sinks.rdfxml import serialize_rdfxml
from argo_ray.sinks.turtle import serialize_turtle
from argo_ray.sources.ntriples import parse_ntriples
from argo_ray.sources.rdfxml import parse_rdfxml
from argo_ray.sources.turtle import parse_turtle
from argo_ray.terms import IRI, Blank, Literal, triples_to_table

EX = "http://example.org/ns#"
FOAF = "http://xmlns.com/foaf/0.1/"

TRIPLES = [
    (IRI(EX + "s1"), IRI(FOAF + "name"), Literal("Alice")),
    (IRI(EX + "s1"), IRI(FOAF + "name"), Literal("Alicia", lang="es")),
    (IRI(EX + "s1"), IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), IRI(EX + "Person")),
    (IRI(EX + "s1"), IRI(EX + "age"), Literal("30", datatype="http://www.w3.org/2001/XMLSchema#integer")),
    (IRI(EX + "s2"), IRI(EX + "knows"), Blank("b1")),
    (Blank("b1"), IRI(FOAF + "name"), Literal('weird "chars" \\ here\nnewline\ttab')),
    (Blank("b1"), IRI(EX + "link"), IRI(EX + "s1")),
    (IRI(EX + "s2"), IRI(EX + "note"), Literal("héllo wörld")),
]

PREFIXES = {EX: "ex", FOAF: "foaf"}


def as_multiset(triples):
    return Counter(triples)


@pytest.fixture
def table():
    return triples_to_table(TRIPLES, with_hash=False)


def test_ntriples_roundtrip(table):
    text = serialize_ntriples(table)
    assert as_multiset(parse_ntriples(text)) == as_multiset(TRIPLES)


def test_turtle_roundtrip(table):
    text = serialize_turtle(table, PREFIXES)
    assert as_multiset(parse_turtle(text)) == as_multiset(TRIPLES)


def test_turtle_roundtrip_no_prefixes(table):
    text = serialize_turtle(table, {})
    assert as_multiset(parse_turtle(text)) == as_multiset(TRIPLES)


def test_rdfxml_roundtrip(table):
    text = serialize_rdfxml(table, PREFIXES)
    assert as_multiset(parse_rdfxml(text)) == as_multiset(TRIPLES)


def test_rdfxml_roundtrip_no_prefixes(table):
    text = serialize_rdfxml(table, {})
    assert as_multiset(parse_rdfxml(text)) == as_multiset(TRIPLES)


def test_rdfjson_roundtrip(table):
    text = serialize_rdfjson(table)
    assert as_multiset(parse_rdfjson(text)) == as_multiset(TRIPLES)


def test_jsonld_roundtrip(table):
    from argo_ray.sinks.jsonld import parse_jsonld, serialize_jsonld

    text = serialize_jsonld(table)
    # serialization dedups per-subject value objects only via sorting;
    # multiset equality still holds because TRIPLES has no duplicates
    assert as_multiset(parse_jsonld(text)) == as_multiset(TRIPLES)


def test_jsonld_parser_semantics():
    from argo_ray.sinks.jsonld import parse_jsonld

    doc = """{
      "@context": {"foaf": "http://xmlns.com/foaf/0.1/",
                   "xsd": "http://www.w3.org/2001/XMLSchema#"},
      "@graph": [
        {"@id": "http://e.org/alice",
         "@type": "foaf:Person",
         "foaf:name": [{"@value": "Alice", "@language": "en"}],
         "foaf:age": {"@value": "30", "@type": "xsd:integer"},
         "foaf:nick": "ally",
         "foaf:knows": {"@id": "http://e.org/bob",
                        "foaf:name": {"@value": "Bob"}},
         "foaf:friend": {"@id": "_:b7"}}
      ]
    }"""
    triples = parse_jsonld(doc)
    alice = IRI("http://e.org/alice")
    assert (alice, IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), IRI(FOAF + "Person")) in triples
    assert (alice, IRI(FOAF + "name"), Literal("Alice", lang="en")) in triples
    assert (alice, IRI(FOAF + "age"), Literal("30", datatype="http://www.w3.org/2001/XMLSchema#integer")) in triples
    assert (alice, IRI(FOAF + "nick"), Literal("ally")) in triples
    assert (alice, IRI(FOAF + "knows"), IRI("http://e.org/bob")) in triples
    # the nested node object contributes its own triple
    assert (IRI("http://e.org/bob"), IRI(FOAF + "name"), Literal("Bob")) in triples
    assert (alice, IRI(FOAF + "friend"), Blank("b7")) in triples
    assert len(triples) == 7


def test_jsonld_native_values_and_list_rejection():
    from argo_ray.sinks.jsonld import parse_jsonld

    triples = parse_jsonld(
        '[{"@id": "http://s", "http://p": [1, 2.5, true, "x"]}]'
    )
    objs = {t[2] for t in triples}
    assert Literal("1", datatype="http://www.w3.org/2001/XMLSchema#integer") in objs
    assert Literal("2.5", datatype="http://www.w3.org/2001/XMLSchema#double") in objs
    assert Literal("true", datatype="http://www.w3.org/2001/XMLSchema#boolean") in objs
    assert Literal("x") in objs

    import pytest

    with pytest.raises(ValueError):
        parse_jsonld('[{"@id": "http://s", "http://p": {"@list": ["a"]}}]')
    with pytest.raises(ValueError):
        parse_jsonld('[{"http://p": "anonymous subject"}]')


def test_rdfxml_type_elision():
    # exactly one rdf:type with Resource object → elided into the tag and
    # re-emitted by the parser (rdfxml.go:186-201 / :120-122)
    t = triples_to_table(
        [(IRI(EX + "x"), IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), IRI(EX + "T"))],
        with_hash=False,
    )
    text = serialize_rdfxml(t, PREFIXES)
    assert "<ex:T " in text  # elided form
    assert as_multiset(parse_rdfxml(text)) == as_multiset(table_triples(t))


def table_triples(t):
    from argo_ray.terms import table_to_triples

    return table_to_triples(t)


def test_rdfxml_parser_semantics():
    doc = """<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns:foaf="http://xmlns.com/foaf/0.1/">
  <foaf:Person rdf:about="http://e.org/alice" foaf:nick="ally">
    <foaf:name xml:lang="en">Alice</foaf:name>
    <foaf:knows rdf:resource="http://e.org/bob"/>
    <foaf:age rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">30</foaf:age>
    <foaf:friend rdf:nodeID="b7"/>
  </foaf:Person>
</rdf:RDF>"""
    triples = parse_rdfxml(doc)
    alice = IRI("http://e.org/alice")
    assert (alice, IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), IRI(FOAF + "Person")) in triples
    assert (alice, IRI(FOAF + "nick"), Literal("ally")) in triples
    assert (alice, IRI(FOAF + "name"), Literal("Alice", lang="en")) in triples
    assert (alice, IRI(FOAF + "knows"), IRI("http://e.org/bob")) in triples
    assert (alice, IRI(FOAF + "age"), Literal("30", datatype="http://www.w3.org/2001/XMLSchema#integer")) in triples
    assert (alice, IRI(FOAF + "friend"), Blank("b7")) in triples


def test_rdfxml_anon_description_is_skolemized():
    doc = """<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns:ex="http://example.org/ns#">
  <rdf:Description><ex:p>v</ex:p></rdf:Description>
</rdf:RDF>"""
    t1 = parse_rdfxml(doc, document_uri="http://d.org/1")
    t2 = parse_rdfxml(doc, document_uri="http://d.org/1")
    t3 = parse_rdfxml(doc, document_uri="http://d.org/2")
    assert t1 == t2  # deterministic
    assert t1[0][0].kind == 1
    assert t1[0][0] != t3[0][0]  # but distinct per document


def test_poison_docs_quarantine_all_parsers():
    """on_error='skip' contract across every batch parser: malformed
    documents are quarantined, good siblings survive (reference
    precedent: parse errors stream to errChan without aborting sibling
    sources, rdf/rdf.go:414-420)."""
    import pyarrow as pa
    import pytest

    from argo_ray.sinks.jsonld import parse_jsonld_batch
    from argo_ray.sinks.rdfjson import parse_rdfjson_batch
    from argo_ray.sources.nquads import parse_nquads_batch
    from argo_ray.sources.ntriples import parse_ntriples_batch
    from argo_ray.sources.trig import parse_trig_batch
    from argo_ray.sources.rdfxml import parse_rdfxml_batch
    from argo_ray.sources.squirtle import parse_squirtle_batch
    from argo_ray.sources.turtle import parse_turtle_batch

    cases = [
        (parse_ntriples_batch,
         '<http://s/1> <http://p/1> "v" .', "<http://s malformed"),
        (parse_rdfxml_batch,
         '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
         'xmlns:d="http://d/"><rdf:Description rdf:about="http://s/1">'
         "<d:p>v</d:p></rdf:Description></rdf:RDF>",
         "<rdf:RDF truncated"),
        (parse_turtle_batch,
         '<http://s/1> <http://p/1> "v" ;\n.', "@prefix broken"),
        (parse_squirtle_batch,
         '<http://s/1> { <http://p/1> "v" }', "func { nope"),
        (parse_rdfjson_batch,
         '{"http://s/1": {"http://p/1": [{"type": "literal", "value": "v"}]}}',
         "{not json"),
        (parse_jsonld_batch,
         '[{"@id": "http://s/1", "http://p/1": [{"@value": "v"}]}]',
         '[{"@id": "http://s/1", "http://p/1": [{"@list": ["v"]}]}]'),
        (parse_nquads_batch,
         '<http://s/1> <http://p/1> "v" <http://g/1> .',
         '<http://s/1> <http://p/1> "v" "literal graph" .'),
        (parse_trig_batch,
         '<http://g> {\n<http://s/1>\n  <http://p/1> "v" ;\n  .\n\n}\n',
         "<http://g> { unterminated"),
    ]
    for parse, good, bad in cases:
        b = pa.table({"url": ["u1", "u2"], "text": [good, bad]})
        out = parse(b, on_error="skip")
        assert out.num_rows == 1, parse.__name__
        with pytest.raises(Exception):
            parse(b, on_error="raise")


# ---------------------------------------------------------------------------
# Named edge-case terms through every text format that carries terms
# ---------------------------------------------------------------------------

XSD = "http://www.w3.org/2001/XMLSchema#"
_S, _P = IRI(EX + "s"), IRI(EX + "p")


def _one(o, p=_P):
    return [(_S, p, o)]


EDGE_CASES = {
    "empty_literal": _one(Literal("")),
    "quotes": _one(Literal('say """hi""" and \'bye\'')),
    "trailing_backslash": _one(Literal("ends with \\")),
    "crlf_tab": _one(Literal("a\r\nb\tc")),
    "astral_unicode": _one(Literal("smile \U0001F600 \U00010348")),
    "next_line_char": _one(Literal("x y\u0085z")),
    "control_char": _one(Literal("bell\x07 start\x01")),
    "padded": _one(Literal("  padded  ")),
    "markup": _one(Literal("<a href='x'>&amp;</a>", lang="fr")),
    "region_lang": _one(Literal("colour", lang="en-GB")),
    "noncanonical_integer": _one(Literal("007", datatype=XSD + "integer")),
    "boolean": _one(Literal("true", datatype=XSD + "boolean")),
    "number_like_plain": _one(Literal("1e5")),
    "nonascii_iri": _one(IRI("http://example.org/café/ünï")),
    "query_iri": _one(IRI("http://example.org/q?a=1&b='2'")),
    "rdf_type": _one(IRI(EX + "Class"), p=IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")),
    "bnode_cycle": [(Blank("b1"), _P, Blank("b2")), (Blank("b2"), _P, Blank("b1"))],
    "shared_subject": [(_S, IRI(EX + f"p{i}"), Literal(str(i))) for i in range(3)]
    + [(_S, _P, IRI(EX + "o")), (_S, _P, Literal("o"))],
}


def _triples_via(serialize, parse, quads=False):
    def roundtrip(triples):
        parsed = parse(serialize(triples_to_table(triples, with_hash=False)))
        return [q[:3] for q in parsed] if quads else parsed

    return roundtrip


def _rows_via(serialize, parse):
    def roundtrip(triples):
        rows = [dict(zip("spo", t)) for t in triples]
        _, parsed = parse(serialize(["s", "p", "o"], rows))
        return [(r["s"], r["p"], r["o"]) for r in parsed]

    return roundtrip


def _formats():
    from argo_ray.sinks.jsonld import parse_jsonld, serialize_jsonld
    from argo_ray.sinks.nquads import serialize_nquads
    from argo_ray.sinks.sparql_results import (
        serialize_select_results,
        serialize_select_results_json,
        serialize_select_results_tsv,
    )
    from argo_ray.sinks.squirtle import serialize_squirtle
    from argo_ray.sinks.trig import serialize_trig
    from argo_ray.sources.nquads import parse_nquads
    from argo_ray.sources.sparql_results import (
        parse_select_results,
        parse_select_results_json,
        parse_select_results_tsv,
    )
    from argo_ray.sources.squirtle import parse_squirtle
    from argo_ray.sources.trig import parse_trig

    return {
        "ntriples": _triples_via(serialize_ntriples, parse_ntriples),
        "nquads": _triples_via(serialize_nquads, parse_nquads, quads=True),
        "turtle": _triples_via(lambda t: serialize_turtle(t, PREFIXES), parse_turtle),
        "trig": _triples_via(lambda t: serialize_trig(t, PREFIXES), parse_trig, quads=True),
        "rdfxml": _triples_via(lambda t: serialize_rdfxml(t, PREFIXES), parse_rdfxml),
        "rdfjson": _triples_via(serialize_rdfjson, parse_rdfjson),
        "jsonld": _triples_via(serialize_jsonld, parse_jsonld),
        "squirtle": _triples_via(lambda t: serialize_squirtle(t, PREFIXES), parse_squirtle),
        "srx": _rows_via(serialize_select_results, parse_select_results),
        "srj": _rows_via(serialize_select_results_json, parse_select_results_json),
        "tsv": _rows_via(serialize_select_results_tsv, parse_select_results_tsv),
    }


FORMATS = _formats()

# What a format cannot carry.  XML 1.0 has no form for most control
# characters, even escaped; an empty RDF/XML property element yields no
# character data, so its triple is dropped (as by the reference's
# parser); the N-Triples reader keeps the reference's ASCII IRI
# whitelist.
CANNOT_CARRY = {
    ("control_char", "rdfxml"),
    ("control_char", "srx"),
    ("empty_literal", "rdfxml"),
    ("nonascii_iri", "ntriples"),
    ("nonascii_iri", "nquads"),
}


@pytest.mark.parametrize(
    "case, fmt",
    [
        (case, fmt)
        for case in EDGE_CASES
        for fmt in FORMATS
        if (case, fmt) not in CANNOT_CARRY
    ],
)
def test_edge_case_roundtrip(case, fmt):
    triples = EDGE_CASES[case]
    assert as_multiset(FORMATS[fmt](triples)) == as_multiset(triples)
