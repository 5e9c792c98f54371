"""Format registry (S8) tests."""

from argo_ray.sources.registry import (
    FORMATS,
    format_from_filename,
    format_from_mime_type,
)


def test_registry_lookup():
    assert set(FORMATS) == {
        "ntriples", "nquads", "rdfxml", "turtle", "trig", "squirtle", "json",
        "jsonld", "rdfa"
    }
    assert format_from_filename("g.jsonld").id == "jsonld"
    assert format_from_mime_type("application/ld+json").id == "jsonld"
    assert format_from_filename("/x/y/data.nt").id == "ntriples"
    assert format_from_filename("page.HTML".lower()).id == "rdfa"
    assert format_from_filename("g.ttl").id == "turtle"
    assert format_from_filename("g.weird") is None
    assert format_from_mime_type("application/rdf+xml").id == "rdfxml"
    assert format_from_mime_type("text/html").id == "rdfa"
    assert format_from_mime_type("application/pdf") is None


def test_registry_parsers_callable():
    nt = FORMATS["ntriples"]
    triples = nt.parser("<http://e.org/s> <http://e.org/p> <http://e.org/o> .")
    assert len(triples) == 1
    from argo_ray.terms import triples_to_table

    assert nt.serializer(triples_to_table(triples, with_hash=False)).startswith("<http://e.org/s>")


def test_prefix_cache_t1(tmp_path):
    """T1: lookup order (cache → builtins → resolver), resolver results
    cached + persisted, miss → '' (the reference's failed-lookup zero
    value)."""
    from argo_ray.namespaces import BUILTIN_NAMESPACES, PrefixCache

    calls = []

    def resolver(prefix):
        calls.append(prefix)
        return "http://resolved.example/ns#" if prefix == "zz" else ""

    path = str(tmp_path / "prefixes.json")
    cache = PrefixCache(cache_file=path, resolver=resolver)
    assert cache.lookup("rdf") == BUILTIN_NAMESPACES["rdf"] and calls == []
    assert cache.lookup("zz") == "http://resolved.example/ns#"
    assert cache.lookup("zz") == "http://resolved.example/ns#"
    assert calls == ["zz"]  # second hit served from cache
    assert cache.lookup("nope") == "" and calls == ["zz", "nope"]
    cache.save()

    # fresh cache, no resolver (pipeline-task mode): persisted hit works
    warm = PrefixCache(cache_file=path)
    assert warm.lookup("zz") == "http://resolved.example/ns#"
    assert warm.lookup("unknown") == ""
    assert warm.as_dict()["rdf"] == BUILTIN_NAMESPACES["rdf"]


def test_result_format_registry_sniffing():
    """S6 results registry: .tsv/.srx/.srj extension + MIME sniffing
    resolve the SPARQL results formats, and each entry's
    parse∘serialize round-trips the binding rows (r4 verdict task #8)."""
    from argo_ray.sources.registry import (
        RESULT_FORMATS,
        result_format_from_filename,
        result_format_from_mime_type,
    )
    from argo_ray.terms import KIND_IRI, KIND_LITERAL, Term

    assert set(RESULT_FORMATS) == {"srx", "srj", "tsv"}
    assert result_format_from_filename("out.tsv").id == "tsv"
    assert result_format_from_filename("/a/b/res.SRX".lower()).id == "srx"
    assert result_format_from_filename("res.srj").id == "srj"
    assert result_format_from_filename("res.nt") is None
    assert result_format_from_mime_type("text/tab-separated-values").id == "tsv"
    assert (
        result_format_from_mime_type("application/sparql-results+xml").id
        == "srx"
    )
    assert result_format_from_mime_type("text/html") is None

    variables = ["s", "v"]
    rows = [
        {"s": Term(KIND_IRI, "http://e.org/a", "", ""),
         "v": Term(KIND_LITERAL, "hi", "en", "")},
        {"s": Term(KIND_IRI, "http://e.org/b", "", "")},  # v unbound
    ]
    for fmt in RESULT_FORMATS.values():
        doc = fmt.serializer(variables, rows)
        vs, back = fmt.parser(doc)
        assert vs == variables, fmt.id
        assert back == rows, fmt.id
