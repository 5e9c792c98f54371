"""SPARQL engine: parser, evaluation, update, service (file-backed
SparqlService twin — sparqlservice.go:1-95 surface)."""

import pyarrow as pa
import pytest

from argo_ray.terms import IRI, Literal, RDF_TYPE, triples_to_table
from argo_ray.sparql import (
    FileSparqlService,
    apply_update,
    evaluate_ask,
    evaluate_construct,
    evaluate_select,
    parse_query,
    parse_update,
)
from argo_ray.sparql.parser import (
    BGP,
    AskQuery,
    Comparison,
    ConstructQuery,
    Distinct,
    Extend,
    Filter,
    Join,
    LeftJoin,
    OrderBy,
    Project,
    Regex,
    SelectQuery,
    Slice,
    SparqlSyntaxError,
    Var,
)

EX = "http://example.org/ns#"
XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

TRIPLES = [
    (IRI(EX + "d1"), IRI(RDF_TYPE), IRI(EX + "Doc")),
    (IRI(EX + "d1"), IRI(EX + "lang"), Literal("en")),
    (IRI(EX + "d1"), IRI(EX + "chars"), Literal("120", datatype=XSD_INT)),
    (IRI(EX + "d2"), IRI(RDF_TYPE), IRI(EX + "Doc")),
    (IRI(EX + "d2"), IRI(EX + "lang"), Literal("de")),
    (IRI(EX + "d2"), IRI(EX + "chars"), Literal("80", datatype=XSD_INT)),
    (IRI(EX + "d3"), IRI(EX + "lang"), Literal("Guten Tag", lang="de")),
]


def _ds():
    import ray.data

    from argo_ray.io import configure_context

    configure_context()
    return ray.data.from_arrow(triples_to_table(TRIPLES, with_hash=False))


# -- parser ----------------------------------------------------------------


def test_parse_select_shapes():
    q = parse_query(
        f"""PREFIX ex: <{EX}>
        SELECT DISTINCT ?s ?l WHERE {{
          ?s a ex:Doc ; ex:lang ?l .
          FILTER (?l != "de" && ?l != "fr")
        }} ORDER BY DESC(?s) LIMIT 5"""
    )
    assert isinstance(q, SelectQuery)
    # the solution modifiers wrap the group's tree, bottom up
    assert isinstance(q.where, Slice) and (q.where.offset, q.where.limit) == (0, 5)
    order = q.where.inner.inner
    assert isinstance(q.where.inner, Distinct) and isinstance(order, OrderBy)
    assert order.keys == [("s", True)]
    assert isinstance(order.inner, Project) and order.inner.variables == ["s", "l"]
    # the group's FILTER conjuncts wrap its one BGP
    group = order.inner.inner
    assert isinstance(group, Filter) and isinstance(group.inner, BGP)
    patterns = group.inner.patterns
    assert len(patterns) == 2 and len(group.exprs) == 2
    # ';' abbreviation shares the subject
    assert patterns[0][0] == patterns[1][0] == Var("s")
    assert patterns[0][1] == IRI(RDF_TYPE)


def test_parse_literals_and_numbers():
    q = parse_query(
        f'PREFIX ex: <{EX}> ASK {{ ?s ex:p "a\\"b"@en . ?s ex:q 42 . ?s ex:r "x"^^ex:T }}'
    )
    assert isinstance(q, AskQuery)
    objs = [p[2] for p in q.where.patterns]
    assert objs[0] == Literal('a"b', lang="en")
    assert objs[1] == Literal("42", datatype=XSD_INT)
    assert objs[2] == Literal("x", datatype=EX + "T")


def test_parse_rejects_unsupported():
    with pytest.raises(SparqlSyntaxError):
        parse_query("DESCRIBE ?v")  # variable form needs a WHERE group
    with pytest.raises(SparqlSyntaxError):  # IF needs a comparison condition
        parse_query('SELECT ?s WHERE { ?s ?p ?o . BIND(IF(?o, "a", "b") AS ?x) }')
    with pytest.raises(SparqlSyntaxError):  # empty IN list
        parse_query("SELECT ?s WHERE { ?s ?p ?o . FILTER (?o IN ()) }")
    # graph management parses since r4 s6 (store-level manage());
    # the single-graph applier must still refuse it
    from argo_ray.sparql.parser import GraphMgmtOp

    (op,) = parse_update("CLEAR GRAPH <http://x/>")
    assert op == GraphMgmtOp("clear", "http://x/", None, False)
    from argo_ray.sparql.engine import apply_update
    from argo_ray.terms import triples_to_table

    with pytest.raises(SparqlSyntaxError):
        apply_update(
            triples_to_table([], with_hash=False), "CLEAR GRAPH <http://x/>"
        )


@pytest.mark.parametrize(
    "clause",
    [
        "?s (COUNT(*) AS ?s) WHERE { ?s ?p ?o } GROUP BY ?s",
        "(COUNT(*) AS ?s) WHERE { ?s ?p ?o } GROUP BY ?s",
        "(COUNT(*) AS ?n) (SUM(?o) AS ?n) WHERE { ?s ?p ?o }",
        "(STR(?o) AS ?x) (STR(?p) AS ?x) WHERE { ?s ?p ?o }",
    ],
)
def test_parse_rejects_a_reused_alias(clause):
    """SPARQL 1.1 forbids an AS variable that is already projected,
    grouped or bound by another AS; accepting one let the aggregate
    overwrite the key column."""
    with pytest.raises(SparqlSyntaxError, match="already projected|grouped"):
        parse_query("SELECT " + clause)


@pytest.mark.parametrize("query", [
    "SELECT * WHERE { ?s ?p ?o } GROUP BY ?s",
    "SELECT ?s WHERE { { SELECT * WHERE { ?s ?p ?o } GROUP BY ?s } }",
])
def test_parse_rejects_select_star_with_group_by(query):
    """SPARQL 1.1 §18.2.4.1 forbids ``SELECT *`` in a grouped query;
    accepting one returned every ungrouped row."""
    with pytest.raises(SparqlSyntaxError, match="SELECT \\* cannot"):
        parse_query(query)


def test_parse_update_ops():
    ops = parse_update(
        f"""PREFIX ex: <{EX}>
        DELETE DATA {{ ex:a ex:p "v" }};
        INSERT DATA {{ ex:b a ex:T . ex:b ex:q 1 }}"""
    )
    assert [o.action for o in ops] == ["delete", "insert"]
    assert ops[0].triples == [(IRI(EX + "a"), IRI(EX + "p"), Literal("v"))]
    assert len(ops[1].triples) == 2
    with pytest.raises(SparqlSyntaxError):
        parse_update(f"PREFIX ex: <{EX}> INSERT DATA {{ ?v ex:p 1 }}")


# -- evaluation ------------------------------------------------------------


def test_select_join_filter_order(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l WHERE {{
          ?s a ex:Doc ; ex:lang ?l ; ex:chars ?c .
          FILTER (?c > 100)
        }} ORDER BY ?s""",
    ).take_all()
    assert out == [{"s": f"<{EX}d1>", "l": '"en"'}]


def test_select_star_and_regex(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT * WHERE {{ ?s ex:lang ?l . FILTER REGEX(?l, "^Guten") }}""",
    ).take_all()
    assert out == [{"l": '"Guten Tag"@de', "s": f"<{EX}d3>"}]


def test_select_distinct_collapses(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"PREFIX ex: <{EX}> SELECT DISTINCT ?t WHERE {{ ?s a ?t }}",
    ).take_all()
    assert out == [{"t": f"<{EX}Doc>"}]


def test_filter_string_functions(sparql_tier):
    # CONTAINS / STRSTARTS / STRENDS over lexical forms
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{ ?s ex:lang ?l . FILTER (CONTAINS(?l, "uten")) }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}d3>"}]
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l . FILTER (!STRSTARTS(?l, "Guten") && STRENDS(?l, "e"))
        }} ORDER BY ?s""",
    ).take_all()
    assert out == [{"s": f"<{EX}d2>"}]


def test_filter_term_functions(sparql_tier):
    # STRLEN / LANG / DATATYPE / isLiteral
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?l WHERE {{ ?s ex:lang ?l . FILTER (STRLEN(?l) > 2) }}""",
    ).take_all()
    assert out == [{"l": '"Guten Tag"@de'}]
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{ ?s ex:lang ?l . FILTER (LANG(?l) = "DE") }}""",
    ).take_all()  # case-insensitive lang match
    assert out == [{"s": f"<{EX}d3>"}]
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?s WHERE {{ ?s ex:chars ?c . FILTER (DATATYPE(?c) = xsd:integer) }}
        ORDER BY ?s""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d1>", f"<{EX}d2>"]
    # plain literal datatype is xsd:string; IRIs are not literals
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?l WHERE {{ ?s ex:lang ?l . FILTER (DATATYPE(?l) = xsd:string) }}
        ORDER BY ?l""",
    ).take_all()
    assert [r["l"] for r in out] == ['"de"', '"en"']
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?o WHERE {{ ?s a ?o . FILTER (!isLiteral(?o) && isIRI(?o)) }}""",
    ).take_all()
    assert {r["o"] for r in out} == {f"<{EX}Doc>"}


def test_filter_in(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{ ?s ex:lang ?l . FILTER (?l IN ("en", "fr")) }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}d1>"}]
    # NOT IN with full term identity: "de" matches the plain literal only,
    # not "Guten Tag"@de
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{ ?s ex:lang ?l . FILTER (?l NOT IN ("de")) }}
        ORDER BY ?s""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d1>", f"<{EX}d3>"]


def test_offset(sparql_tier):
    base = f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:lang ?l }} ORDER BY ?s"
    assert [r["s"] for r in evaluate_select(_ds(), base + " OFFSET 1").take_all()] == [
        f"<{EX}d2>", f"<{EX}d3>",
    ]
    # LIMIT/OFFSET in either order
    assert [
        r["s"] for r in evaluate_select(_ds(), base + " OFFSET 1 LIMIT 1").take_all()
    ] == [f"<{EX}d2>"]
    assert [
        r["s"] for r in evaluate_select(_ds(), base + " LIMIT 1 OFFSET 2").take_all()
    ] == [f"<{EX}d3>"]
    assert evaluate_select(_ds(), base + " OFFSET 9").take_all() == []


def test_count_distinct_and_sample(sparql_tier):
    # 3 lang triples but only 2 distinct subjects typed Doc
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE {{ ?s a ?t }}""",
    ).take_all()
    assert out == [{"n": 1}]
    # grouped COUNT(DISTINCT) + plain aggregate side by side
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s (COUNT(DISTINCT ?p) AS ?np) (COUNT(*) AS ?n)
        WHERE {{ ?s ?p ?o }} GROUP BY ?s ORDER BY ?s""",
    ).take_all()
    assert out == [
        {"s": f"<{EX}d1>", "np": 3, "n": 3},
        {"s": f"<{EX}d2>", "np": 3, "n": 3},
        {"s": f"<{EX}d3>", "np": 1, "n": 1},
    ]
    # SAMPLE is deterministic (minimum rendered term)
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s (SAMPLE(?l) AS ?any) WHERE {{ ?s ex:lang ?l }}
        GROUP BY ?s ORDER BY ?s""",
    ).take_all()
    assert out == [
        {"s": f"<{EX}d1>", "any": '"en"'},
        {"s": f"<{EX}d2>", "any": '"de"'},
        {"s": f"<{EX}d3>", "any": '"Guten Tag"@de'},
    ]


def test_exists_not_exists(sparql_tier):
    # docs with a chars assertion (d1, d2) / without one (d3)
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l .
          FILTER EXISTS {{ ?s ex:chars ?c }}
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d1>", f"<{EX}d2>"]
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l .
          FILTER NOT EXISTS {{ ?s ex:chars ?c }}
        }}""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d3>"]
    # no shared variables: constant condition keeps/drops everything
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l .
          FILTER NOT EXISTS {{ ?x ex:nosuch ?y }}
        }}""",
    ).take_all()
    assert len(out) == 3


def test_minus(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l .
          MINUS {{ ?s a ex:Doc }}
        }}""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d3>"]
    # MINUS sharing no variable removes nothing (unlike NOT EXISTS)
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l .
          MINUS {{ ?x ex:chars ?c }}
        }}""",
    ).take_all()
    assert len(out) == 3


def test_alternative_path(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?v WHERE {{ ?s ex:lang|ex:chars ?v . ?s a ex:Doc }}
        ORDER BY ?s ?v""",
    ).take_all()
    assert [(r["s"], r["v"]) for r in out] == [
        (f"<{EX}d1>", f'"120"^^<{XSD_INT}>'),
        (f"<{EX}d1>", '"en"'),
        (f"<{EX}d2>", f'"80"^^<{XSD_INT}>'),
        (f"<{EX}d2>", '"de"'),
    ]


def test_alternative_path_with_reverse_members(sparql_tier):
    """p|^q (§18.4 PathAlternative over PathEltOrInverse): bag union
    of forward p edges and inverted q edges; a leading ^ binds to the
    FIRST member only (^p|q ≡ (^p)|q)."""
    import ray.data

    trips = [
        (IRI(EX + "doc"), IRI(EX + "lang"), Literal("en")),
        (IRI(EX + "hub"), IRI(EX + "cites"), IRI(EX + "doc")),
        (IRI(EX + "doc"), IRI(EX + "site"), IRI(EX + "s1")),
    ]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?x WHERE {{ ex:doc ex:lang|^ex:cites ?x }} ORDER BY ?x""",
    ).take_all()
    # §15.1: IRIs order before literals
    assert [r["x"] for r in out] == [f"<{EX}hub>", '"en"']
    # leading ^ applies to the first member only: ^cites|site from doc
    # matches nothing reversed-cites (doc cites nobody... hub→doc is
    # forward, so ^cites from doc finds hub) plus forward site
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?x WHERE {{ ex:doc ^ex:cites|ex:site ?x }} ORDER BY ?x""",
    ).take_all()
    assert [r["x"] for r in out] == [f"<{EX}hub>", f"<{EX}s1>"]
    # all members reversed
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?x WHERE {{ ex:doc ^ex:cites|^ex:lang ?x }}""",
    ).take_all()
    assert [r["x"] for r in out] == [f"<{EX}hub>"]
    # data blocks still reject paths
    with pytest.raises(SparqlSyntaxError):
        parse_update(
            f"PREFIX ex: <{EX}> INSERT DATA {{ ex:a ex:p|^ex:q ex:b }}"
        )


def _chain_ds():
    """a→b→c→d cites chain + d→e, plus an unrelated edge x→y."""
    import ray.data

    from argo_ray.io import configure_context

    configure_context()
    cites = IRI(EX + "cites")
    tr = [
        (IRI(EX + n1), cites, IRI(EX + n2))
        for n1, n2 in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("x", "y")]
    ]
    return ray.data.from_arrow(triples_to_table(tr, with_hash=False))


def test_transitive_path_seeded(sparql_tier):
    # constant subject: BFS frontier expansion
    out = evaluate_select(
        _chain_ds(),
        f"PREFIX ex: <{EX}> SELECT ?o WHERE {{ ex:a ex:cites+ ?o }} ORDER BY ?o",
    ).take_all()
    assert [r["o"] for r in out] == [f"<{EX}{n}>" for n in "bcde"]
    # constant object: reverse BFS
    out = evaluate_select(
        _chain_ds(),
        f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:cites+ ex:d }} ORDER BY ?s",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}{n}>" for n in "abc"]
    # both ends constant (witness only)
    assert evaluate_ask(
        _chain_ds(), f"PREFIX ex: <{EX}> ASK {{ ex:a ex:cites+ ex:e }}"
    )
    assert not evaluate_ask(
        _chain_ds(), f"PREFIX ex: <{EX}> ASK {{ ex:a ex:cites+ ex:y }}"
    )


def test_transitive_path_closure(sparql_tier):
    # both ends variables: full closure (set semantics)
    out = evaluate_select(
        _chain_ds(),
        f"PREFIX ex: <{EX}> SELECT ?s ?o WHERE {{ ?s ex:cites+ ?o }} ORDER BY ?s ?o",
    ).take_all()
    pairs = [(r["s"][len(EX) + 1 : -1], r["o"][len(EX) + 1 : -1]) for r in out]
    expect = [
        (a, b)
        for i, a in enumerate("abcd")
        for b in "bcde"[i:]
    ] + [("x", "y")]
    assert pairs == sorted(expect)
    # joins with other patterns: reachable-from-a nodes that cite something
    out = evaluate_select(
        _chain_ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?o WHERE {{ ex:a ex:cites+ ?o . ?o ex:cites ?z }} ORDER BY ?o""",
    ).take_all()
    assert [r["o"] for r in out] == [f"<{EX}{n}>" for n in "bcd"]


def test_ask(sparql_tier):
    assert evaluate_ask(_ds(), f'PREFIX ex: <{EX}> ASK {{ ?s ex:lang "de" }}')
    assert not evaluate_ask(_ds(), f'PREFIX ex: <{EX}> ASK {{ ?s ex:lang "xx" }}')


def test_construct(sparql_tier):
    rows = evaluate_construct(
        _ds(),
        f"""PREFIX ex: <{EX}>
        CONSTRUCT {{ ?l ex:spokenIn ?s }} WHERE {{ ?s ex:lang ?l . ?s a ex:Doc }}""",
    ).take_all()
    got = sorted((r["subj_value"], r["obj_value"]) for r in rows)
    assert got == [("de", EX + "d2"), ("en", EX + "d1")]
    # literal subject came from a var binding; kind survives
    assert all(r["pred_value"] == EX + "spokenIn" for r in rows)


def test_unbound_select_var_raises(sparql_tier):
    with pytest.raises(SparqlSyntaxError):
        evaluate_select(_ds(), f"PREFIX ex: <{EX}> SELECT ?x WHERE {{ ?s a ex:Doc }}")


# -- update ----------------------------------------------------------------


def test_apply_update_set_semantics():
    tbl = triples_to_table(TRIPLES[:2], with_hash=False)
    out = apply_update(
        tbl,
        f"""PREFIX ex: <{EX}>
        DELETE DATA {{ ex:d1 ex:lang "en" }};
        INSERT DATA {{ ex:d1 ex:lang "fr" . ex:d1 a ex:Doc }}""",
    )
    got = sorted(zip(out["pred_value"].to_pylist(), out["obj_value"].to_pylist()))
    # the type triple already existed → set semantics, no duplicate
    assert got == [(EX + "lang", "fr"), (RDF_TYPE, EX + "Doc")]


def test_graphstore_patch_roundtrip(tmp_path, sparql_tier):
    from argo_ray.sinks.graphstore import FileGraphStore

    store = FileGraphStore(str(tmp_path))
    uri = "https://graphs.example.org/g1"
    store.put(uri, triples_to_table(TRIPLES[:3], with_hash=False))
    store.patch(
        uri,
        f"""PREFIX ex: <{EX}>
        DELETE DATA {{ ex:d1 ex:chars "120"^^<{XSD_INT}> }};
        INSERT DATA {{ ex:d1 ex:patched true }}""",
    )
    got = store.get(uri)
    preds = sorted(got["pred_value"].to_pylist())
    assert EX + "chars" not in preds and EX + "patched" in preds
    # patch on an absent graph starts from empty (implicit create)
    store.patch("https://graphs.example.org/new", f"PREFIX ex: <{EX}> INSERT DATA {{ ex:x ex:y ex:z }}")
    assert store.get("https://graphs.example.org/new").num_rows == 1


# -- service ---------------------------------------------------------------


def test_file_sparql_service(tmp_path, sparql_tier):
    from argo_ray.sinks.graphstore import FileGraphStore

    store = FileGraphStore(str(tmp_path))
    uri = "https://graphs.example.org/svc"
    store.put(uri, triples_to_table(TRIPLES, with_hash=False))
    svc = FileSparqlService.from_graphstore(store, uri)
    assert svc.ask(f'PREFIX ex: <{EX}> ASK {{ ?s ex:lang "de" }}')
    rows = svc.select(
        f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s a ex:Doc }} ORDER BY ?s"
    ).take_all()
    assert [r["s"] for r in rows] == [f"<{EX}d1>", f"<{EX}d2>"]
    svc.update(f'PREFIX ex: <{EX}> DELETE DATA {{ ex:d2 a ex:Doc }}')
    # the factory re-reads the mutated store
    rows = svc.select(
        f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s a ex:Doc }}"
    ).take_all()
    assert [r["s"] for r in rows] == [f"<{EX}d1>"]
    g = svc.graph(
        f"PREFIX ex: <{EX}> CONSTRUCT {{ ?s ex:seen true }} WHERE {{ ?s a ex:Doc }}"
    ).take_all()
    assert len(g) == 1 and g[0]["obj_value"] == "true"
    plain = FileSparqlService(_ds())
    with pytest.raises(ValueError):
        plain.update(f"PREFIX ex: <{EX}> INSERT DATA {{ ex:a ex:b ex:c }}")


# -- OPTIONAL / UNION ------------------------------------------------------


def test_optional_left_join(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l WHERE {{
          ?s a ex:Doc .
          OPTIONAL {{ ?s ex:chars ?l . FILTER (?l > 100) }}
        }} ORDER BY ?s""",
    ).take_all()
    # d1 (120 chars) matches the optional; d2 (80) misses → unbound ''
    assert out == [
        {"s": f"<{EX}d1>", "l": f'"120"^^<{XSD_INT}>'},
        {"s": f"<{EX}d2>", "l": ""},
    ]


def test_union_branches(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?a ?b WHERE {{
          {{ ?a ex:lang ?b }} UNION {{ ?a ex:chars ?b }}
        }}""",
    ).take_all()
    got = sorted((r["a"], r["b"]) for r in out)
    assert (f"<{EX}d1>", '"en"') in got and (f"<{EX}d2>", f'"80"^^<{XSD_INT}>') in got
    assert len(got) == 5  # 3 lang + 2 chars


def test_union_mismatched_vars_raises(sparql_tier):
    """Branches that bind different variables no longer raise: a
    variable one branch does not bind is unbound in its rows."""
    out = evaluate_select(
        _ds(),
        f"PREFIX ex: <{EX}> SELECT ?a ?b WHERE {{ {{ ?a ex:lang ?b }} UNION {{ ?a a ex:Doc }} }}",
    ).take_all()
    assert sorted((r["a"], r["b"]) for r in out) == [
        (f"<{EX}d1>", ""), (f"<{EX}d1>", '"en"'), (f"<{EX}d2>", ""),
        (f"<{EX}d2>", '"de"'), (f"<{EX}d3>", '"Guten Tag"@de'),
    ]


def test_nested_optional_parses_union_rejected():
    """Both nest: an OPTIONAL inside an OPTIONAL is a LeftJoin on the
    inner group's side, and a UNION inside an OPTIONAL (once refused)
    is the LeftJoin's right side."""
    q = parse_query(
        "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ?r OPTIONAL { ?s ?t ?u } } }"
    )
    assert isinstance(q.where.inner, LeftJoin)
    assert isinstance(q.where.inner.right, LeftJoin)
    q = parse_query(
        "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { { ?s ?q ?r } UNION { ?s ?t ?u } } }"
    )
    assert isinstance(q.where.inner, LeftJoin)
    assert type(q.where.inner.right).__name__ == "Union"


def test_construct_skips_unbound_template_rows(sparql_tier):
    rows = evaluate_construct(
        _ds(),
        f"""PREFIX ex: <{EX}>
        CONSTRUCT {{ ?s ex:hasLang ?l . ?s ex:typed ex:Marker }}
        WHERE {{ ?s a ex:Doc . OPTIONAL {{ ?s ex:lang ?l }} }}""",
    ).take_all()
    by_pred = {}
    for r in rows:
        by_pred.setdefault(r["pred_value"], []).append(r["subj_value"])
    # hasLang only where lang bound (d1, d2); typed for every Doc
    assert sorted(by_pred[EX + "hasLang"]) == [EX + "d1", EX + "d2"]
    assert sorted(by_pred[EX + "typed"]) == [EX + "d1", EX + "d2"]


# -- aggregates ------------------------------------------------------------


def test_groupby_aggregates(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?t (COUNT(?s) AS ?n) (SUM(?c) AS ?total) (AVG(?c) AS ?mean)
        WHERE {{ ?s a ?t . ?s ex:chars ?c }} GROUP BY ?t""",
    ).take_all()
    assert out == [
        {"t": f"<{EX}Doc>", "n": 2, "total": 200.0, "mean": 100.0}
    ]


def test_global_aggregate_no_groupby(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"PREFIX ex: <{EX}> SELECT (COUNT(*) AS ?n) (MIN(?c) AS ?mn) WHERE {{ ?s ex:chars ?c }}",
    ).take_all()
    assert out == [{"n": 2, "mn": 80.0}]


def test_count_bound_only_with_optional(sparql_tier):
    # COUNT(?l) counts bound bindings; d3 has a lang but no type
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT (COUNT(*) AS ?rows) (COUNT(?c) AS ?bound)
        WHERE {{ ?s ex:lang ?l . OPTIONAL {{ ?s ex:chars ?c }} }}""",
    ).take_all()
    assert out == [{"rows": 3, "bound": 2}]


def test_aggregate_parse_errors():
    with pytest.raises(SparqlSyntaxError):
        parse_query("SELECT (SUM(*) AS ?x) WHERE { ?s ?p ?o }")
    with pytest.raises(SparqlSyntaxError):
        parse_query(
            "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p"
        )


def test_describe(sparql_tier):
    from argo_ray.sparql import evaluate_describe

    rows = evaluate_describe(
        _ds(), f"DESCRIBE <{EX}d1> <{EX}d3>"
    ).take_all()
    subjects = {r["subj_value"] for r in rows}
    assert subjects == {EX + "d1", EX + "d3"}
    assert len(rows) == 4  # 3 triples of d1 + 1 of d3
    with pytest.raises(SparqlSyntaxError):
        evaluate_describe(_ds(), f"PREFIX ex: <{EX}> ASK {{ ?s ?p ?o }}")


def test_filter_unbound_var_raises(sparql_tier):
    with pytest.raises(SparqlSyntaxError):
        evaluate_select(
            _ds(),
            f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s a ex:Doc . FILTER (?nope > 1) }}",
        )


# -- property paths & HAVING ----------------------------------------------


def test_sequence_path_desugars(sparql_tier):
    # d1 -> Doc via a 2-step chain through lang? No — use type/… is 1-step;
    # exercise via chars: no chain exists, so build one: ?s ex:lang ?l has
    # no second hop; instead assert the desugaring itself on the parsed AST
    q = parse_query(
        f"PREFIX ex: <{EX}> SELECT ?a ?b WHERE {{ ?a ex:p/ex:q/ex:r ?b }}"
    )
    patterns = q.where.inner.patterns
    assert len(patterns) == 3
    # chain shares fresh intermediate vars
    assert patterns[0][2] == patterns[1][0]
    assert patterns[1][2] == patterns[2][0]
    assert patterns[0][2].name.startswith("_path")
    with pytest.raises(SparqlSyntaxError):
        parse_update(f"PREFIX ex: <{EX}> INSERT DATA {{ ex:a ex:p/ex:q ex:b }}")


def test_having_filters_groups(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?t (COUNT(?s) AS ?n) (MIN(?c) AS ?mn)
        WHERE {{ ?s a ?t . ?s ex:chars ?c }}
        GROUP BY ?t HAVING (COUNT(?s) >= 2 && ?mn < 100)""",
    ).take_all()
    assert out == [{"t": f"<{EX}Doc>", "n": 2, "mn": 80.0}]
    # unmatched HAVING aggregate fails loudly
    with pytest.raises(SparqlSyntaxError):
        evaluate_select(
            _ds(),
            f"""PREFIX ex: <{EX}>
            SELECT ?t (COUNT(?s) AS ?n) WHERE {{ ?s a ?t }}
            GROUP BY ?t HAVING (SUM(?s) > 1)""",
        )


def test_values_inline_bindings(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l WHERE {{
          VALUES ?s {{ ex:d1 ex:d3 }}
          ?s ex:lang ?l .
        }} ORDER BY ?s""",
    ).take_all()
    assert out == [
        {"s": f"<{EX}d1>", "l": '"en"'},
        {"s": f"<{EX}d3>", "l": '"Guten Tag"@de'},
    ]


def test_values_multi_var(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?want WHERE {{
          VALUES (?s ?want) {{ (ex:d1 "en") (ex:d2 "fr") }}
          ?s ex:lang ?want .
        }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}d1>", "want": '"en"'}]
    with pytest.raises(SparqlSyntaxError):
        parse_query("SELECT ?s WHERE { VALUES ?s { } ?s ?p ?o }")


# -- code-review regression fixes ------------------------------------------


def test_numeric_filter_skips_unparseable(sparql_tier):
    import ray.data

    trips = TRIPLES + [(IRI(EX + "d9"), IRI(EX + "chars"), Literal("abc"))]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:chars ?c . FILTER (?c > 100) }}",
    ).take_all()
    assert out == [{"s": f"<{EX}d1>"}]  # "abc" row drops, no crash
    # != with a type-error row also drops it (SPARQL error semantics)
    out = evaluate_select(
        ds,
        f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:chars ?c . FILTER (?c != 120) }}",
    ).take_all()
    assert out == [{"s": f"<{EX}d2>"}]


def test_equality_filter_full_term_identity(sparql_tier):
    import ray.data

    trips = [
        (IRI(EX + "a"), IRI(EX + "v"), Literal("http://e/x")),  # literal spelling
        (IRI(EX + "b"), IRI(EX + "v"), IRI("http://e/x")),      # the IRI itself
    ]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:v ?o . FILTER (?o = <http://e/x>) }}",
    ).take_all()
    assert out == [{"s": f"<{EX}b>"}]
    out = evaluate_select(
        ds,
        f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:v ?o . FILTER (?o != <http://e/x>) }}",
    ).take_all()
    assert out == [{"s": f"<{EX}a>"}]


def test_aggregate_excludes_unparseable(sparql_tier):
    import ray.data

    trips = TRIPLES + [(IRI(EX + "d1"), IRI(EX + "chars"), Literal("oops"))]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"PREFIX ex: <{EX}> SELECT (SUM(?c) AS ?tot) (COUNT(?c) AS ?n) WHERE {{ ?s ex:chars ?c }}",
    ).take_all()
    # SUM skips the non-numeric literal; COUNT still counts the binding
    assert out == [{"tot": 200.0, "n": 3}]


def test_select_star_hides_path_vars(sparql_tier):
    import ray.data

    trips = [
        (IRI(EX + "d"), IRI(EX + "p"), IRI(EX + "m")),
        (IRI(EX + "m"), IRI(EX + "q"), Literal("end")),
    ]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds, f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?s ex:p/ex:q ?o }}"
    ).take_all()
    assert out == [{"o": '"end"', "s": f"<{EX}d>"}]  # no _path$ column


def test_ask_two_ground_patterns(sparql_tier):
    assert evaluate_ask(
        _ds(),
        f'PREFIX ex: <{EX}> ASK {{ ex:d1 ex:lang "en" . ex:d2 ex:lang "de" }}',
    )
    assert not evaluate_ask(
        _ds(),
        f'PREFIX ex: <{EX}> ASK {{ ex:d1 ex:lang "en" . ex:d2 ex:lang "xx" }}',
    )


def test_values_after_dot_terminated_triple(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l WHERE {{ ?s ex:lang ?l . VALUES ?s {{ ex:d2 }} }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}d2>", "l": '"de"'}]


def test_aggregate_projection_matches_select_clause(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"PREFIX ex: <{EX}> SELECT (COUNT(?s) AS ?n) WHERE {{ ?s a ?t }} GROUP BY ?t",
    ).take_all()
    assert out == [{"n": 2}]  # ?t grouped but NOT projected


def test_skew_requires_enough_replicate():
    from argo_ray.pages import pages_dataset

    with pytest.raises(ValueError):
        pages_dataset("/root/testdata/sf0.001", replicate=2, skew=0.3)


def test_inverse_path(sparql_tier):
    import ray.data

    trips = [
        (IRI(EX + "doc"), IRI(EX + "site"), IRI(EX + "s1")),
        (IRI(EX + "s1"), IRI(EX + "owner"), IRI(EX + "org")),
    ]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    # ^site: site→doc; then owner forward via the site
    out = evaluate_select(
        ds, f"PREFIX ex: <{EX}> SELECT ?d WHERE {{ ?s1 ^ex:site ?d . ?s1 ex:owner ex:org }}"
    ).take_all()
    assert out == [{"d": f"<{EX}doc>"}]
    # inverse inside a sequence: doc -> site -> (inverse site) -> doc
    out = evaluate_select(
        ds, f"PREFIX ex: <{EX}> SELECT ?x WHERE {{ ex:doc ex:site/^ex:site ?x }}"
    ).take_all()
    assert out == [{"x": f"<{EX}doc>"}]
    with pytest.raises(SparqlSyntaxError):
        parse_update(f"PREFIX ex: <{EX}> INSERT DATA {{ ex:a ^ex:p ex:b }}")


# -- BIND / BOUND ----------------------------------------------------------


def test_bind_integer_arithmetic(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?c2 WHERE {{
          ?s ex:chars ?c . BIND(?c * 2 + 1 AS ?c2)
        }} ORDER BY ?s""",
    ).to_pandas()
    assert out["c2"].tolist() == [
        f'"241"^^<{XSD_INT}>',
        f'"161"^^<{XSD_INT}>',
    ]


def test_bind_subtraction_and_filter_on_alias(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:chars ?c . BIND(?c - 100 AS ?d)
          FILTER(?d > 0)
        }}""",
    ).to_pandas()
    assert out["s"].tolist() == [f"<{EX}d1>"]


def test_bind_string_functions(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?l ?u WHERE {{
          ?s ex:lang ?l . FILTER (STRLEN(?l) = 2)
          BIND(CONCAT("x-", UCASE(?l), "-", LCASE("QQ")) AS ?u)
        }} ORDER BY ?l""",
    ).to_pandas()
    assert out["u"].tolist() == ['"x-DE-qq"', '"x-EN-qq"']


def test_bind_substr_replace_strlen(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?sub ?rep ?n WHERE {{
          ?s a ex:Doc ; ex:lang ?l .
          BIND(SUBSTR(STR(?s), 1, 4) AS ?sub)
          BIND(REPLACE(?l, "e", "E") AS ?rep)
          BIND(STRLEN(?l) AS ?n)
        }} ORDER BY ?s""",
    ).to_pandas()
    assert out["sub"].tolist() == ['"http"', '"http"']
    assert out["rep"].tolist() == ['"En"', '"dE"']
    assert out["n"].tolist() == [f'"2"^^<{XSD_INT}>'] * 2


def test_bind_arith_error_leaves_unbound(sparql_tier):
    # d3's lang literal is non-numeric: ?x stays unbound (renders '')
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?x WHERE {{
          ?s ex:lang ?l . BIND(?l + 1 AS ?x)
        }} ORDER BY ?s""",
    ).to_pandas()
    assert out["x"].tolist() == ["", "", ""]


def test_bind_bare_var_copies_term(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?l2 WHERE {{
          <{EX}d3> ex:lang ?l . BIND(?l AS ?l2)
        }}""",
    ).to_pandas()
    assert out["l2"].tolist() == ['"Guten Tag"@de']


def test_bind_alias_rebind_raises(sparql_tier):
    with pytest.raises(SparqlSyntaxError, match="already bound"):
        evaluate_select(
            _ds(),
            f"""PREFIX ex: <{EX}>
            SELECT ?s WHERE {{ ?s ex:lang ?l . BIND("x" AS ?l) }}""",
        )


def test_bind_unbound_input_raises(sparql_tier):
    with pytest.raises(SparqlSyntaxError, match="unbound"):
        evaluate_select(
            _ds(),
            f"""PREFIX ex: <{EX}>
            SELECT ?s WHERE {{ ?s ex:lang ?l . BIND(?nope AS ?x) }}""",
        )


def test_bind_division_unsupported():
    with pytest.raises(SparqlSyntaxError, match="division"):
        parse_query(
            "SELECT ?x WHERE { ?s <http://e/p> ?c . BIND(?c / 2 AS ?x) }"
        )


def test_bind_inside_optional_parses():
    # BIND scoped to the optional group: an Extend on the LeftJoin's
    # right side
    q = parse_query(
        """SELECT ?s WHERE {
          ?s <http://e/p> ?c .
          OPTIONAL { ?s <http://e/q> ?d . BIND(?d AS ?x) }
        }"""
    )
    assert isinstance(q.where.inner, LeftJoin)
    assert isinstance(q.where.inner.right, Extend)


def test_bound_filter_with_optional(sparql_tier):
    # d3 has a lang but no chars assertion
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l .
          OPTIONAL {{ ?s ex:chars ?c }}
          FILTER(!BOUND(?c))
        }}""",
    ).to_pandas()
    assert out["s"].tolist() == [f"<{EX}d3>"]


def test_bound_true_keeps_matched(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l .
          OPTIONAL {{ ?s ex:chars ?c }}
          FILTER(BOUND(?c))
        }} ORDER BY ?s""",
    ).to_pandas()
    assert out["s"].tolist() == [f"<{EX}d1>", f"<{EX}d2>"]


def test_bind_coalesce_optional(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?cc WHERE {{
          ?s ex:lang ?l .
          OPTIONAL {{ ?s ex:chars ?c }}
          BIND(COALESCE(?c, "missing") AS ?cc)
        }} ORDER BY ?s""",
    ).to_pandas()
    assert out["cc"].tolist() == ['"120"', '"80"', '"missing"']


def test_bind_groupby_alias(sparql_tier):
    # group docs by a computed key (first 4 chars of the lang literal)
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?k (COUNT(*) AS ?n) WHERE {{
          ?s ex:lang ?l . BIND(SUBSTR(?l, 1, 1) AS ?k)
        }} GROUP BY ?k""",
    ).to_pandas()
    got = dict(zip(out["k"], out["n"]))
    assert got == {'"e"': 1, '"d"': 1, '"G"': 1}


# -- zero-or-more paths ----------------------------------------------------


def _star_chain_ds():
    import ray.data

    from argo_ray.io import configure_context

    configure_context()
    P = EX + "p"
    tr = [
        (IRI(EX + "a"), IRI(P), IRI(EX + "b")),
        (IRI(EX + "b"), IRI(P), IRI(EX + "c")),
        (IRI(EX + "a"), IRI(EX + "q"), Literal("x")),
    ]
    return ray.data.from_arrow(triples_to_table(tr, with_hash=False)).materialize()


def test_star_path_constant_subject(sparql_tier):
    out = evaluate_select(
        _star_chain_ds(),
        f"PREFIX ex: <{EX}> SELECT ?x WHERE {{ ex:a ex:p* ?x }} ORDER BY ?x",
    ).to_pandas()
    assert out["x"].tolist() == [f"<{EX}a>", f"<{EX}b>", f"<{EX}c>"]


def test_star_path_constant_object(sparql_tier):
    out = evaluate_select(
        _star_chain_ds(),
        f"PREFIX ex: <{EX}> SELECT ?x WHERE {{ ?x ex:p* ex:c }} ORDER BY ?x",
    ).to_pandas()
    assert out["x"].tolist() == [f"<{EX}a>", f"<{EX}b>", f"<{EX}c>"]


def test_star_path_both_vars_includes_graph_nodes(sparql_tier):
    out = evaluate_select(
        _star_chain_ds(),
        f"PREFIX ex: <{EX}> SELECT ?x ?y WHERE {{ ?x ex:p* ?y }}",
    ).to_pandas()
    pairs = set(zip(out["x"], out["y"]))
    a, b, c = f"<{EX}a>", f"<{EX}b>", f"<{EX}c>"
    # closure pairs + one self-pair per graph node (incl. the literal)
    assert pairs == {
        (a, b), (a, c), (b, c),
        (a, a), (b, b), (c, c), ('"x"', '"x"'),
    }


def test_star_path_self_variable(sparql_tier):
    out = evaluate_select(
        _star_chain_ds(),
        f"PREFIX ex: <{EX}> SELECT ?x WHERE {{ ?x ex:p* ?x }} ORDER BY ?x",
    ).to_pandas()
    # §15.1: IRIs order before literals
    assert out["x"].tolist() == [f"<{EX}a>", f"<{EX}b>", f"<{EX}c>", '"x"']


def test_star_path_ask_ground(sparql_tier):
    ds = _star_chain_ds()
    assert evaluate_ask(ds, f"PREFIX ex: <{EX}> ASK {{ ex:a ex:p* ex:a }}")
    assert evaluate_ask(ds, f"PREFIX ex: <{EX}> ASK {{ ex:a ex:p* ex:c }}")
    assert not evaluate_ask(ds, f"PREFIX ex: <{EX}> ASK {{ ex:c ex:p* ex:a }}")


# -- DISTINCT inside SUM/AVG -----------------------------------------------


def _dup_vals_ds():
    import ray.data

    from argo_ray.io import configure_context

    configure_context()
    P = EX + "v"
    tr = [
        (IRI(EX + "g1"), IRI(P), Literal("10", datatype=XSD_INT)),
        (IRI(EX + "g1"), IRI(P), Literal("10", datatype=XSD_INT)),
        (IRI(EX + "g1"), IRI(P), Literal("30", datatype=XSD_INT)),
        (IRI(EX + "g2"), IRI(P), Literal("5", datatype=XSD_INT)),
        (IRI(EX + "g2"), IRI(P), Literal("oops")),
    ]
    return ray.data.from_arrow(triples_to_table(tr, with_hash=False)).materialize()


def test_sum_avg_distinct(sparql_tier):
    # "10" appears twice (duplicate triples stay separate rows), so the
    # distinct-term sum per subject must count it once
    out = evaluate_select(
        _dup_vals_ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s (SUM(DISTINCT ?v) AS ?sv) (AVG(DISTINCT ?v) AS ?av)
        WHERE {{ ?s ex:v ?v }} GROUP BY ?s ORDER BY ?s""",
    ).to_pandas()
    got = {r["s"]: (r["sv"], r["av"]) for _, r in out.iterrows()}
    assert got[f"<{EX}g1>"] == (40.0, 20.0)
    # the non-numeric "oops" term is excluded from sum and avg
    assert got[f"<{EX}g2>"] == (5.0, 5.0)


def test_sum_distinct_mixed_with_plain(sparql_tier):
    out = evaluate_select(
        _dup_vals_ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s (SUM(DISTINCT ?v) AS ?sv) (COUNT(*) AS ?n)
        WHERE {{ ?s ex:v ?v }} GROUP BY ?s ORDER BY ?s""",
    ).to_pandas()
    got = {r["s"]: (r["sv"], r["n"]) for _, r in out.iterrows()}
    assert got[f"<{EX}g1>"] == (40.0, 3)
    assert got[f"<{EX}g2>"] == (5.0, 2)


def test_min_distinct_is_noop(sparql_tier):
    out = evaluate_select(
        _dup_vals_ds(),
        f"""PREFIX ex: <{EX}>
        SELECT (MIN(DISTINCT ?v) AS ?m) WHERE {{ ?s ex:v ?v }}""",
    ).to_pandas()
    assert out["m"].tolist() == [5.0]


def test_sum_distinct_global(sparql_tier):
    out = evaluate_select(
        _dup_vals_ds(),
        f"""PREFIX ex: <{EX}>
        SELECT (SUM(DISTINCT ?v) AS ?sv) WHERE {{ ?s ex:v ?v }}""",
    ).to_pandas()
    # distinct terms across all groups: 10, 30, 5 (the duplicate "10"
    # collapses globally)
    assert out["sv"].tolist() == [45.0]


# -- subqueries ------------------------------------------------------------


def test_parse_subselect():
    from argo_ray.sparql.parser import SubSelect

    q = parse_query(
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l WHERE {{
          ?s ex:lang ?l .
          {{ SELECT ?s WHERE {{ ?s a ex:Doc }} ORDER BY ?s LIMIT 1 }}
        }}"""
    )
    # the triples, then the sub-select, joined in group order
    where = q.where.inner
    assert isinstance(where, Join) and isinstance(where.left, BGP)
    assert isinstance(where.right, SubSelect)
    inner = where.right.inner
    assert isinstance(inner, Slice) and inner.limit == 1
    assert inner.inner.inner.variables == ["s"]
    # a sliced subquery without ORDER BY would be nondeterministic
    with pytest.raises(SparqlSyntaxError):
        parse_query(
            "SELECT ?s WHERE { ?s ?p ?o . { SELECT ?s WHERE { ?s ?p2 ?o2 } LIMIT 3 } }"
        )


def test_subquery_slice_join(sparql_tier):
    # inner: first Doc by IRI order; outer: attach its lang
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l WHERE {{
          ?s ex:lang ?l .
          {{ SELECT ?s WHERE {{ ?s a ex:Doc }} ORDER BY ?s LIMIT 1 }}
        }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}d1>", "l": '"en"'}]


def test_subquery_projection_hides_inner_vars(sparql_tier):
    # ?c is bound only inside the subquery; outer join is on ?s alone,
    # and projecting ?c at the top level must fail loudly
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l WHERE {{
          ?s ex:lang ?l .
          {{ SELECT ?s WHERE {{ ?s ex:chars ?c . FILTER(?c > 100) }} }}
        }} ORDER BY ?s""",
    ).take_all()
    assert out == [{"s": f"<{EX}d1>", "l": '"en"'}]


def test_subquery_distinct(sparql_tier):
    import ray.data

    # duplicate triples: DISTINCT inside the subquery collapses them so
    # the outer join does not multiply rows
    trips = TRIPLES + [(IRI(EX + "d1"), IRI(RDF_TYPE), IRI(EX + "Doc"))]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l WHERE {{
          ?s ex:lang ?l .
          {{ SELECT DISTINCT ?s WHERE {{ ?s a ex:Doc }} }}
        }} ORDER BY ?s""",
    ).take_all()
    assert out == [
        {"s": f"<{EX}d1>", "l": '"en"'},
        {"s": f"<{EX}d2>", "l": '"de"'},
    ]


def test_subquery_distinct_order_unbound(sparql_tier):
    import ray.data

    # DISTINCT + ORDER BY + LIMIT inside the subquery over a variable an
    # OPTIONAL leaves unbound: d3's two lang rows collapse to one inner
    # row, which joins back with both of them, ?c unbound
    trips = TRIPLES + [(IRI(EX + "d3"), IRI(EX + "lang"), Literal("Hallo", lang="de"))]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l ?c WHERE {{
          ?s ex:lang ?l .
          {{ SELECT DISTINCT ?s ?c WHERE {{
               ?s ex:lang ?x OPTIONAL {{ ?s ex:chars ?c }}
             }} ORDER BY ?s LIMIT 3 }}
        }} ORDER BY ?s ?l""",
    ).take_all()
    n = f"^^<{XSD_INT}>"
    assert out == [
        {"s": f"<{EX}d1>", "l": '"en"', "c": '"120"' + n},
        {"s": f"<{EX}d2>", "l": '"de"', "c": '"80"' + n},
        {"s": f"<{EX}d3>", "l": '"Guten Tag"@de', "c": ""},
        {"s": f"<{EX}d3>", "l": '"Hallo"@de', "c": ""},
    ]


def test_subquery_offset_desc(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          {{ SELECT ?s WHERE {{ ?s ex:lang ?l }} ORDER BY DESC(?s) LIMIT 2 OFFSET 1 }}
        }} ORDER BY ?s""",
    ).take_all()
    # DESC order: d3 d2 d1 → offset 1 limit 2 → d2 d1
    assert out == [{"s": f"<{EX}d1>"}, {"s": f"<{EX}d2>"}]


def test_subquery_unbound_projection_raises(sparql_tier):
    with pytest.raises(SparqlSyntaxError):
        evaluate_select(
            _ds(),
            f"""PREFIX ex: <{EX}>
            SELECT ?s WHERE {{
              {{ SELECT ?s ?nope WHERE {{ ?s ex:lang ?l }} }}
            }}""",
        ).take_all()


def test_subquery_aggregate_count_join(sparql_tier):
    # inner: triples-per-subject; outer: attach lang, filter on the
    # count literal (typed xsd:integer term)
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l ?n WHERE {{
          ?s ex:lang ?l .
          {{ SELECT ?s (COUNT(*) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?s }}
          FILTER(?n >= 3)
        }} ORDER BY ?s""",
    ).take_all()
    xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
    assert out == [
        {"s": f"<{EX}d1>", "l": '"en"', "n": f'"3"^^<{xsd_int}>'},
        {"s": f"<{EX}d2>", "l": '"de"', "n": f'"3"^^<{xsd_int}>'},
    ]


def test_subquery_aggregate_avg_double(sparql_tier):
    # AVG comes back as an xsd:double literal with a DuckDB-style
    # lexical ('100.0', not '100')
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?a WHERE {{
          {{ SELECT (AVG(?c) AS ?a) WHERE {{ ?s ex:chars ?c }} }}
        }}""",
    ).take_all()
    xsd_dbl = "http://www.w3.org/2001/XMLSchema#double"
    assert out == [{"a": f'"100.0"^^<{xsd_dbl}>'}]


def test_subquery_aggregate_having_orderby(sparql_tier):
    # HAVING inside the subquery + ORDER BY the alias + LIMIT
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?n WHERE {{
          {{ SELECT ?s (COUNT(*) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?s
             HAVING (COUNT(*) >= 1) ORDER BY DESC(?n) ?s LIMIT 2 }}
        }}""",
    ).take_all()
    xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
    assert sorted(r["s"] for r in out) == [f"<{EX}d1>", f"<{EX}d2>"]
    assert all(r["n"] == f'"3"^^<{xsd_int}>' for r in out)


def test_subquery_aggregate_unbound_group_var_raises(sparql_tier):
    with pytest.raises(SparqlSyntaxError):
        evaluate_select(
            _ds(),
            f"""PREFIX ex: <{EX}>
            SELECT ?s ?n WHERE {{
              {{ SELECT ?s (COUNT(?zzz) AS ?n) WHERE {{ ?s ex:lang ?l }}
                 GROUP BY ?s }}
            }}""",
        ).take_all()


def test_modifiers_over_groups(sparql_tier):
    """DISTINCT and GROUP BY act on grouped rows, and a sub-select's
    OFFSET slices its aggregate rows (d1 and d2 have three triples, d3
    one)."""

    def rows(query):
        return evaluate_select(_ds(), query).take_all()

    assert sorted(
        r["n"] for r in rows(
            "SELECT DISTINCT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s"
        )
    ) == [1, 3]
    assert rows("SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY ?s") == [
        {"s": f"<{EX}d{i}>"} for i in (1, 2, 3)
    ]
    out = rows(
        "SELECT ?s ?n WHERE { { SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } "
        "GROUP BY ?s ORDER BY ?s LIMIT 2 OFFSET 1 } } ORDER BY ?s"
    )
    assert out == [
        {"s": f"<{EX}d2>", "n": f'"3"^^<{XSD_INT}>'},
        {"s": f"<{EX}d3>", "n": f'"1"^^<{XSD_INT}>'},
    ]
    # a group key orders by value (§15.1), 80 before 120
    out = rows(
        f"PREFIX ex: <{EX}> SELECT ?c (COUNT(*) AS ?n) WHERE {{ ?s ex:chars ?c }} "
        "GROUP BY ?c ORDER BY ?c"
    )
    assert [r["c"] for r in out] == [f'"{n}"^^<{XSD_INT}>' for n in (80, 120)]


def test_order_by_puts_unbound_first(sparql_tier):
    # §15.1: unbound < … < literals; d3 has no ex:chars
    query = (
        f"PREFIX ex: <{EX}> SELECT ?s ?c WHERE {{ ?s ex:lang ?l "
        "OPTIONAL { ?s ex:chars ?c } } ORDER BY "
    )
    out = evaluate_select(_ds(), query + "?c").take_all()
    assert [r["s"] for r in out] == [f"<{EX}d{i}>" for i in (3, 2, 1)]
    out = evaluate_select(_ds(), query + "DESC(?c)").take_all()
    assert [r["s"] for r in out] == [f"<{EX}d{i}>" for i in (1, 2, 3)]


# -- GROUP_CONCAT ----------------------------------------------------------


def test_group_concat_parse():
    q = parse_query(
        'SELECT ?s (GROUP_CONCAT(DISTINCT ?o; SEPARATOR=", ") AS ?os) '
        "WHERE { ?s ?p ?o } GROUP BY ?s"
    )
    (a,) = q.where.inner.aggregates  # Project(Group)
    assert a.func == "group_concat" and a.distinct and a.separator == ", "
    q2 = parse_query("SELECT (GROUP_CONCAT(?o) AS ?os) WHERE { ?s ?p ?o }")
    assert q2.where.inner.aggregates[0].separator == " "  # spec default
    with pytest.raises(SparqlSyntaxError):
        parse_query("SELECT (GROUP_CONCAT(*) AS ?x) WHERE { ?s ?p ?o }")


def test_group_concat_per_group(sparql_tier):
    # per-subject lexical forms, ascending order, custom separator
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s (GROUP_CONCAT(?o; SEPARATOR="|") AS ?vals)
        WHERE {{ ?s ex:lang ?o }} GROUP BY ?s ORDER BY ?s""",
    ).take_all()
    assert out == [
        {"s": f"<{EX}d1>", "vals": "en"},
        {"s": f"<{EX}d2>", "vals": "de"},
        {"s": f"<{EX}d3>", "vals": "Guten Tag"},
    ]


def test_group_concat_global_and_distinct(sparql_tier):
    import ray.data

    trips = TRIPLES + [(IRI(EX + "d9"), IRI(EX + "lang"), Literal("de"))]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT (GROUP_CONCAT(DISTINCT ?o; SEPARATOR=",") AS ?langs)
        WHERE {{ ?s ex:lang ?o . FILTER(STRLEN(?o) = 2) }}""",
    ).take_all()
    assert out == [{"langs": "de,en"}]  # duplicate "de" collapsed, sorted
    # without DISTINCT the duplicate survives
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT (GROUP_CONCAT(?o; SEPARATOR=",") AS ?langs)
        WHERE {{ ?s ex:lang ?o . FILTER(STRLEN(?o) = 2) }}""",
    ).take_all()
    assert out == [{"langs": "de,de,en"}]


def test_group_concat_mixed_with_count(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s (COUNT(?o) AS ?n) (GROUP_CONCAT(?o; SEPARATOR=";") AS ?vals)
        WHERE {{ ?s ex:lang ?o }} GROUP BY ?s ORDER BY ?s""",
    ).to_pandas()
    assert out["n"].tolist() == [1, 1, 1]
    assert out["vals"].tolist() == ["en", "de", "Guten Tag"]


def test_group_concat_in_subquery(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?vals WHERE {{
          ?s a ex:Doc .
          {{ SELECT ?s (GROUP_CONCAT(?o; SEPARATOR=",") AS ?vals)
             WHERE {{ ?s ex:lang ?o }} GROUP BY ?s }}
        }} ORDER BY ?s""",
    ).take_all()
    # plain-literal terms
    assert out == [
        {"s": f"<{EX}d1>", "vals": '"en"'},
        {"s": f"<{EX}d2>", "vals": '"de"'},
    ]


def test_group_concat_having_rejected(sparql_tier):
    with pytest.raises(SparqlSyntaxError):
        evaluate_select(
            _ds(),
            f"""PREFIX ex: <{EX}>
            SELECT ?s (GROUP_CONCAT(?o) AS ?vals)
            WHERE {{ ?s ex:lang ?o }} GROUP BY ?s HAVING (?vals > 1)""",
        ).take_all()


# -- p? and negated property sets ------------------------------------------


def test_zero_or_one_path(sparql_tier):
    # d1 ex:lang? ?v: zero-length (d1 itself) plus the one-hop "en"
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?v WHERE {{ ex:d1 ex:lang? ?v }} ORDER BY ?v""",
    ).take_all()
    # §15.1: IRIs order before literals
    assert [r["v"] for r in out] == [f"<{EX}d1>", '"en"']


def test_zero_or_one_path_both_vars(sparql_tier):
    import ray.data

    tr = [
        (IRI(EX + "a"), IRI(EX + "p"), IRI(EX + "b")),
        (IRI(EX + "b"), IRI(EX + "q"), IRI(EX + "c")),
    ]
    ds = ray.data.from_arrow(triples_to_table(tr, with_hash=False))
    out = evaluate_select(
        ds,
        f"PREFIX ex: <{EX}> SELECT ?x ?y WHERE {{ ?x ex:p? ?y }} ORDER BY ?x ?y",
    ).take_all()
    # every graph node (subject/object positions only — predicates are
    # not nodes of G) matches itself, plus the one p-edge a→b
    pairs = [(r["x"], r["y"]) for r in out]
    a, b, c = f"<{EX}a>", f"<{EX}b>", f"<{EX}c>"
    assert sorted(pairs) == sorted([(a, a), (b, b), (c, c), (a, b)])

def test_zero_or_one_path_const_ends(sparql_tier):
    assert evaluate_ask(_ds(), f"PREFIX ex: <{EX}> ASK {{ ex:d1 ex:lang? ex:d1 }}")
    assert not evaluate_ask(_ds(), f"PREFIX ex: <{EX}> ASK {{ ex:d1 ex:lang? ex:d2 }}")
    assert evaluate_ask(_ds(), f'PREFIX ex: <{EX}> ASK {{ ex:d1 ex:lang? "en" }}')


def test_negated_property_set(sparql_tier):
    # everything about d1 except its type: lang + chars
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?o WHERE {{ ex:d1 !rdf:type ?o }} ORDER BY ?o""",
    ).take_all()
    assert [r["o"] for r in out] == [f'"120"^^<{XSD_INT}>', '"en"']
    # negated set with two members
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?o WHERE {{ ex:d1 !(rdf:type|ex:chars) ?o }}""",
    ).take_all()
    assert [r["o"] for r in out] == ['"en"']
    # ^-members supported since r4 s4: parses into the reverse set
    q = parse_query(
        f"PREFIX ex: <{EX}> SELECT ?o WHERE {{ ex:d1 !(^ex:p) ?o }}"
    )
    np_ = q.where.inner.patterns[0][1]
    assert np_.preds == () and len(np_.rev_preds) == 1


# -- IF() expressions ------------------------------------------------------


def test_bind_if_string_branches(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?size WHERE {{
          ?s ex:chars ?c .
          BIND(IF(?c >= 100, "long", "short") AS ?size)
        }} ORDER BY ?s""",
    ).take_all()
    assert out == [
        {"s": f"<{EX}d1>", "size": '"long"'},
        {"s": f"<{EX}d2>", "size": '"short"'},
    ]


def test_bind_if_numeric_branches(sparql_tier):
    # both branches numeric → xsd:integer result; arithmetic inside
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?v WHERE {{
          ?s ex:chars ?c .
          BIND(IF(?c > 100, ?c + 1, 0) AS ?v)
        }} ORDER BY ?s""",
    ).take_all()
    assert out == [
        {"s": f"<{EX}d1>", "v": f'"121"^^<{XSD_INT}>'},
        {"s": f"<{EX}d2>", "v": f'"0"^^<{XSD_INT}>'},
    ]


def test_bind_if_string_comparison(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?tag WHERE {{
          ?s ex:lang ?l .
          BIND(IF(?l = "en", "english", "other") AS ?tag)
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["tag"] for r in out] == ['"english"', '"other"', '"other"']


def test_bind_if_condition_error_unbound(sparql_tier):
    import ray.data

    # a non-numeric chars value errors the numeric condition → ?v
    # unbound for that row only
    trips = TRIPLES + [(IRI(EX + "d9"), IRI(EX + "chars"), Literal("oops"))]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?v WHERE {{
          ?s ex:chars ?c .
          BIND(IF(?c > 100, "big", "small") AS ?v)
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["v"] for r in out] == ['"big"', '"small"', ""]


# -- pattern-based updates -------------------------------------------------


def _upd_table():
    return triples_to_table(TRIPLES, with_hash=False)


def test_update_delete_where():
    out = apply_update(
        _upd_table(),
        f"PREFIX ex: <{EX}> DELETE WHERE {{ ?s ex:lang ?l }}",
    )
    from argo_ray.terms import table_to_triples

    left = table_to_triples(out)
    assert len(left) == 4  # 3 lang triples removed
    assert all(p.value != EX + "lang" for _, p, _ in left)


def test_update_delete_insert_where():
    # rename the predicate: one WHERE evaluation drives both templates
    out = apply_update(
        _upd_table(),
        f"""PREFIX ex: <{EX}>
        DELETE {{ ?s ex:lang ?l }} INSERT {{ ?s ex:tongue ?l }}
        WHERE {{ ?s ex:lang ?l }}""",
    )
    from argo_ray.terms import table_to_triples

    preds = {p.value for _, p, _ in table_to_triples(out)}
    assert EX + "lang" not in preds and EX + "tongue" in preds


def test_update_insert_where_join():
    # docs typed Doc gain a flag; d3 (untyped) does not
    out = apply_update(
        _upd_table(),
        f"""PREFIX ex: <{EX}>
        INSERT {{ ?s ex:flag "y" }} WHERE {{ ?s a ex:Doc . ?s ex:lang ?l }}""",
    )
    from argo_ray.terms import table_to_triples

    flagged = {
        s.value for s, p, _ in table_to_triples(out) if p.value == EX + "flag"
    }
    assert flagged == {EX + "d1", EX + "d2"}


def test_update_modify_rejects_groups():
    # DELETE WHERE's block is its template too: plain triples only
    with pytest.raises(SparqlSyntaxError):
        parse_update(
            f"PREFIX ex: <{EX}> DELETE WHERE {{ ?s ex:p/ex:q ?o }}"
        )
    with pytest.raises(SparqlSyntaxError):
        parse_update(
            f"PREFIX ex: <{EX}> DELETE WHERE {{ ?s ?p ?o . FILTER(?o > 1) }}"
        )


def test_update_where_takes_a_group():
    """A modify op's WHERE is a full group, evaluated by the query
    engine: the FILTER keeps d1 (120 chars), and the OPTIONAL leaves
    d2's ``?l`` unbound (d2's lang is "de", not "en"), so its template
    triple is skipped."""
    from argo_ray.terms import table_to_triples

    out = apply_update(
        _upd_table(),
        f"""PREFIX ex: <{EX}>
        INSERT {{ ?s ex:flag ?l }} WHERE {{
          ?s ex:chars ?c OPTIONAL {{ ?s ex:lang ?l FILTER(?l = "en") }}
          FILTER(?c > 100)
        }}""",
    )
    flags = [(s.value, o.value) for s, p, o in table_to_triples(out) if p.value == EX + "flag"]
    assert flags == [(EX + "d1", "en")]


def test_bind_strbefore_strafter(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?first ?rest WHERE {{
          ?s ex:lang ?l .
          BIND(STRBEFORE(?l, " ") AS ?first)
          BIND(STRAFTER(?l, " ") AS ?rest)
        }} ORDER BY ?s""",
    ).take_all()
    # "Guten Tag" splits; "en"/"de" have no space → "" both sides
    assert [(r["first"], r["rest"]) for r in out] == [
        ('""', '""'), ('""', '""'), ('"Guten"', '"Tag"'),
    ]
    # STRAFTER with IRI input (STR semantics over the IRI string)
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?frag WHERE {{
          ?s a ex:Doc . BIND(STRAFTER(STR(?s), "#") AS ?frag)
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["frag"] for r in out] == ['"d1"', '"d2"']


def test_construct_where_shorthand(sparql_tier):
    out = evaluate_construct(
        _ds(),
        f"PREFIX ex: <{EX}> CONSTRUCT WHERE {{ ?s ex:lang ?l }}",
    ).to_pandas()
    assert len(out) == 3
    assert set(out["pred_value"]) == {EX + "lang"}
    with pytest.raises(SparqlSyntaxError):
        parse_query(
            f"PREFIX ex: <{EX}> CONSTRUCT WHERE {{ ?s ex:a/ex:b ?l }}"
        )


def test_order_by_aggregate_expr(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?p (COUNT(*) AS ?n) WHERE {{ ?s ?p ?o }}
        GROUP BY ?p ORDER BY DESC(COUNT(*)) ?p LIMIT 2""",
    ).to_pandas()
    # lang appears 3×; chars and type 2× each — chars wins the tie by ?p
    assert out["p"].tolist() == [f"<{EX}lang>", f"<{EX}chars>"]
    assert out["n"].tolist() == [3, 2]
    with pytest.raises(SparqlSyntaxError):
        evaluate_select(
            _ds(),
            f"""PREFIX ex: <{EX}>
            SELECT ?p (COUNT(*) AS ?n) WHERE {{ ?s ?p ?o }}
            GROUP BY ?p ORDER BY DESC(SUM(?o))""",
        ).take_all()


# -- GRAPH clauses ---------------------------------------------------------


def _quads_ds():
    import ray.data

    from argo_ray.io import configure_context

    configure_context()
    g1, g2 = "http://graphs.example.org/g1", "http://graphs.example.org/g2"
    trips = [
        (IRI(EX + "a"), IRI(EX + "p"), Literal("1")),
        (IRI(EX + "a"), IRI(EX + "q"), Literal("2")),
        (IRI(EX + "b"), IRI(EX + "p"), Literal("3")),
    ]
    urls = [g1, g1, g2]
    return ray.data.from_arrow(
        triples_to_table(trips, urls=urls, with_hash=False)
    ), g1, g2


def test_graph_constant(sparql_tier):
    ds, g1, g2 = _quads_ds()
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?o WHERE {{ GRAPH <{g1}> {{ ?s ex:p ?o }} }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}a>", "o": '"1"'}]


def test_graph_variable_binds(sparql_tier):
    ds, g1, g2 = _quads_ds()
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?g ?s WHERE {{ GRAPH ?g {{ ?s ex:p ?o }} }} ORDER BY ?g""",
    ).take_all()
    assert out == [
        {"g": f"<{g1}>", "s": f"<{EX}a>"},
        {"g": f"<{g2}>", "s": f"<{EX}b>"},
    ]


def test_graph_variable_joins_within_graph(sparql_tier):
    # two patterns inside GRAPH ?g must match in the SAME graph:
    # only g1 holds both p and q for ?s
    ds, g1, g2 = _quads_ds()
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?g ?s WHERE {{ GRAPH ?g {{ ?s ex:p ?o . ?s ex:q ?o2 }} }}""",
    ).take_all()
    assert out == [{"g": f"<{g1}>", "s": f"<{EX}a>"}]


def test_graph_joins_with_outer_pattern(sparql_tier):
    ds, g1, g2 = _quads_ds()
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?o2 WHERE {{
          GRAPH <{g1}> {{ ?s ex:p ?o }}
          ?s ex:q ?o2 .
        }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}a>", "o2": '"2"'}]


def test_graph_requires_quads(sparql_tier):
    with pytest.raises(SparqlSyntaxError):
        evaluate_select(
            _ds(),  # no url column
            f"PREFIX ex: <{EX}> SELECT ?g WHERE {{ GRAPH ?g {{ ?s ?p ?o }} }}",
        ).take_all()
    with pytest.raises(SparqlSyntaxError):  # paths inside GRAPH ?var
        parse_query(
            f"PREFIX ex: <{EX}> SELECT ?g WHERE {{ GRAPH ?g {{ ?s ex:p+ ?o }} }}"
        )


def test_graph_variable_is_per_graph(sparql_tier):
    import ray.data

    # ex:a holds ex:p in g1 and ex:q in g2: each form below evaluates
    # once per graph (§18.6), so g2's ex:q never meets g1's ex:p row
    g1, g2 = "http://graphs.example.org/g1", "http://graphs.example.org/g2"
    trips = [
        (IRI(EX + "a"), IRI(EX + "p"), Literal("1")),
        (IRI(EX + "a"), IRI(EX + "q"), Literal("2")),
        (IRI(EX + "b"), IRI(EX + "p"), Literal("3")),
    ]
    ds = ray.data.from_arrow(
        triples_to_table(trips, urls=[g1, g2, g2], with_hash=False)
    )

    def rows(group, projection="?g ?s"):
        return evaluate_select(
            ds,
            f"PREFIX ex: <{EX}> SELECT {projection} WHERE {{ GRAPH ?g {{ {group} }} }} "
            "ORDER BY ?g",
        ).take_all()

    both = [{"g": f"<{g1}>", "s": f"<{EX}a>"}, {"g": f"<{g2}>", "s": f"<{EX}b>"}]
    assert rows("?s ex:p ?o OPTIONAL { ?s ex:q ?x }", "?g ?s ?x") == [
        dict(r, x="") for r in both
    ]
    assert rows("?s ex:p ?o MINUS { ?s ex:q ?x }") == both
    assert rows("?s ex:p ?o FILTER NOT EXISTS { ?s ex:q ?x }") == both
    assert rows("?s ex:p ?o FILTER EXISTS { ?s ex:q ?x }") == []
    # a sub-select would aggregate and slice over every graph at once,
    # and a group some solutions of which match no triple binds no ?g
    for group in (
        "?s ex:p ?o { SELECT ?s (COUNT(*) AS ?x) WHERE { ?s ?p ?v } GROUP BY ?s }",
        "{ SELECT ?s ?x WHERE { ?s ex:q ?x } }",
        "VALUES ?s { ex:a }",
        "OPTIONAL { ?s ex:q ?x }",
        "{ ?s ex:p ?x } UNION { VALUES ?s { ex:a } }",
    ):
        with pytest.raises(SparqlSyntaxError, match="GRAPH"):
            rows(group)


def test_langmatches(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?l WHERE {{ ?s ex:lang ?l . FILTER LANGMATCHES(LANG(?l), "de") }}""",
    ).take_all()
    assert [r["l"] for r in out] == ['"Guten Tag"@de']
    # "*" = any language-tagged literal
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?l WHERE {{ ?s ex:lang ?l . FILTER (!LANGMATCHES(LANG(?l), "*")) }}""",
    ).take_all()
    assert sorted(r["l"] for r in out) == ['"de"', '"en"']


def test_langmatches_prefix_range(sparql_tier):
    import ray.data

    trips = TRIPLES + [(IRI(EX + "d9"), IRI(EX + "lang"), Literal("Hi", lang="de-AT"))]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?l WHERE {{ ?s ex:lang ?l . FILTER LANGMATCHES(LANG(?l), "DE") }}
        ORDER BY ?l""",
    ).take_all()
    assert [r["l"] for r in out] == ['"Guten Tag"@de', '"Hi"@de-AT']


def test_sameterm(sparql_tier):
    import ray.data

    trips = [
        (IRI(EX + "a"), IRI(EX + "p"), Literal("x")),
        (IRI(EX + "a"), IRI(EX + "q"), Literal("x")),
        (IRI(EX + "b"), IRI(EX + "p"), Literal("x")),
        (IRI(EX + "b"), IRI(EX + "q"), Literal("x", lang="en")),
    ]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:p ?v1 . ?s ex:q ?v2 . FILTER sameTerm(?v1, ?v2)
        }}""",
    ).take_all()
    # only a's p/q objects are the identical term ("x" vs "x"@en differ)
    assert out == [{"s": f"<{EX}a>"}]
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:p ?v1 . ?s ex:q ?v2 . FILTER (!sameTerm(?v1, ?v2))
        }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}b>"}]


# -- || disjunction --------------------------------------------------------


def test_filter_or(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l . FILTER (?l = "en" || ?l = "de")
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d1>", f"<{EX}d2>"]


def test_filter_or_precedence(sparql_tier):
    # && binds tighter: (strlen>2 && lang=de) || l="en" → d1 (en) + d3
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l .
          FILTER (STRLEN(?l) > 2 && LANG(?l) = "de" || ?l = "en")
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d1>", f"<{EX}d3>"]


def test_filter_or_mixed_kinds(sparql_tier):
    # disjunction across different filter types (regex / numeric)
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:chars ?c . ?s ex:lang ?l .
          FILTER (REGEX(?l, "^G") || ?c > 100)
        }}""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d1>"]
    with pytest.raises(SparqlSyntaxError):
        parse_query('SELECT ?s WHERE { ?s ?p ?o . FILTER (?o = 1 ||) }')


# -- term constructors -----------------------------------------------------


def test_bind_iri_constructor(sparql_tier):
    # the classic KG-construction move: mint an entity IRI from a value
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?e WHERE {{
          ?s ex:lang ?l . FILTER(STRLEN(?l) = 2)
          BIND(IRI(CONCAT("http://minted.example/", ?l)) AS ?e)
        }} ORDER BY ?e""",
    ).take_all()
    assert [r["e"] for r in out] == [
        "<http://minted.example/de>", "<http://minted.example/en>",
    ]


def test_bind_strdt_strlang(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?t ?g WHERE {{
          ?s ex:lang ?l . FILTER(?l = "en")
          BIND(STRDT(?l, xsd:token) AS ?t)
          BIND(STRLANG(?l, "en-GB") AS ?g)
        }}""",
    ).take_all()
    assert out == [{
        "t": '"en"^^<http://www.w3.org/2001/XMLSchema#token>',
        "g": '"en"@en-GB',
    }]
    with pytest.raises(SparqlSyntaxError):
        parse_query('SELECT ?x WHERE { ?s ?p ?o . BIND(STRDT(?o, "notiri") AS ?x) }')
    with pytest.raises(SparqlSyntaxError):
        parse_query("SELECT ?x WHERE { ?s ?p ?o . BIND(STRLANG(?o, ?o) AS ?x) }")


def test_bind_iri_joins_like_term(sparql_tier):
    # a minted IRI participates in downstream joins/filters as a term
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l .
          BIND(IRI(CONCAT("{EX}", "d1")) AS ?self)
          FILTER(?s = ?self)
        }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}d1>"}]


# -- differential property test: engine vs naive matcher -------------------


def test_bgp_differential_random_graphs(sparql_tier):
    """The co-group-join engine must agree with the naive nested-loop
    matcher (``test_property._ref_bgp``) on random small graphs ×
    random BGPs, including multiplicities (bag semantics)."""
    import random
    from collections import Counter

    import ray.data

    from argo_ray.sparql.parser import Var
    from test_property import _ref_bgp
    from argo_ray.terms import render_term

    rng = random.Random(1234)
    subjects = [IRI(EX + s) for s in ("a", "b", "c")]
    preds = [IRI(EX + p) for p in ("p", "q")]
    objects = subjects + [Literal("x"), Literal("y", lang="en"), Literal("3", datatype=XSD_INT)]
    variables = ["u", "v", "w"]

    def rand_pattern():
        def pos(pool):
            if rng.random() < 0.55:
                return Var(rng.choice(variables))
            return rng.choice(pool)

        return (pos(subjects), pos(preds), pos(objects))

    def to_sparql(term_or_var):
        if isinstance(term_or_var, Var):
            return "?" + term_or_var.name
        return render_term(term_or_var)

    for trial in range(12):
        triples = [
            (rng.choice(subjects), rng.choice(preds), rng.choice(objects))
            for _ in range(rng.randint(2, 10))
        ]
        patterns = [rand_pattern() for _ in range(rng.randint(1, 3))]
        pat_vars = sorted(
            {t.name for p in patterns for t in p if isinstance(t, Var)}
        )
        if not pat_vars:
            continue
        q = (
            "SELECT "
            + " ".join("?" + v for v in pat_vars)
            + " WHERE { "
            + " . ".join(" ".join(to_sparql(t) for t in p) for p in patterns)
            + " }"
        )
        ds = ray.data.from_arrow(triples_to_table(triples, with_hash=False))
        got = Counter(
            tuple(row[v] for v in pat_vars)
            for row in evaluate_select(ds, q).take_all()
        )
        want = Counter(
            tuple(render_term(sol[v]) for v in pat_vars)
            for sol in _ref_bgp(triples, patterns)
        )
        assert got == want, (trial, q, triples)


def test_describe_variable_form(sparql_tier):
    from argo_ray.sparql import evaluate_describe as ev_desc
    from argo_ray.sparql import parse_query as pq

    q = pq(
        f"""PREFIX ex: <{EX}>
        DESCRIBE ?d WHERE {{ ?d ex:chars ?c . FILTER(?c > 100) }}"""
    )
    out = ev_desc(_ds(), q).to_pandas()
    # only d1 has chars > 100: its 3 triples come back
    assert set(out["subj_value"]) == {EX + "d1"}
    assert len(out) == 3


# -- round-3 review regression tests ---------------------------------------


def test_or_filter_unbound_optional_branch(sparql_tier):
    # SPARQL 17.2: error || true = true.  An unbound OPTIONAL var in one
    # || branch must not poison a row whose other branch is true.
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s a ex:Doc .
          OPTIONAL {{ ?s ex:missing ?m }}
          FILTER (?m = "zz" || ?s = ex:d2)
        }}""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d2>"]


def test_graph_var_shared_with_triple_position(sparql_tier):
    # GRAPH ?g { ?g ex:p ?o }: ?g bound by both the graph and the
    # subject position must be equated, not overwritten
    import ray.data

    g1, g2 = "http://graphs.example.org/self", "http://graphs.example.org/other"
    trips = [
        (IRI(g1), IRI(EX + "p"), Literal("in-self")),
        (IRI(EX + "other-subj"), IRI(EX + "p"), Literal("elsewhere")),
    ]
    ds = ray.data.from_arrow(
        triples_to_table(trips, urls=[g1, g2], with_hash=False)
    )
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?g ?o WHERE {{ GRAPH ?g {{ ?g ex:p ?o }} }}""",
    ).take_all()
    assert out == [{"g": f"<{g1}>", "o": '"in-self"'}]


def test_graph_after_triples_block(sparql_tier):
    # a GRAPH clause following a triples block in the same group parses
    # and joins on the shared variable
    ds, g1, g2 = _quads_ds()
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?g ?o2 WHERE {{
          ?s ex:p ?o .
          GRAPH ?g {{ ?s ex:q ?o2 }}
        }}""",
    ).take_all()
    assert out == [{"s": f"<{EX}a>", "g": f"<{g1}>", "o2": '"2"'}]


def test_graph_filter_unbound_var_raises(sparql_tier):
    ds, g1, g2 = _quads_ds()
    with pytest.raises(SparqlSyntaxError):
        evaluate_select(
            ds,
            f"""PREFIX ex: <{EX}>
            SELECT ?s WHERE {{ GRAPH <{g1}> {{ ?s ex:p ?o FILTER (?x = 1) }} }}""",
        ).take_all()


def test_bind_signed_number_no_space(sparql_tier):
    # '?c-1' tokenizes as var + number '-1'; the additive grammar treats
    # the signed literal as an implied operator (SPARQL 1.1 §19.8)
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?d WHERE {{
          ?s ex:chars ?c . BIND(?c-1 AS ?d)
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["d"] for r in out] == [
        '"119"^^<http://www.w3.org/2001/XMLSchema#integer>',
        '"79"^^<http://www.w3.org/2001/XMLSchema#integer>',
    ]


def test_if_string_var_vs_var_comparison(sparql_tier):
    # var-vs-var string equality in IF(): the numeric path yields NA for
    # every row; the row-wise string fallback must kick in
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?x WHERE {{
          ?s ex:lang ?l . ?s ex:lang ?l2 .
          BIND(IF(?l = ?l2, "same", "diff") AS ?x)
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["x"] for r in out] == ['"same"'] * 3


def test_numeric_builtins(sparql_tier):
    import ray.data

    XSD = "http://www.w3.org/2001/XMLSchema#"
    trips = [
        (IRI(EX + "a"), IRI(EX + "v"), Literal("-7", datatype=XSD + "integer")),
        (IRI(EX + "b"), IRI(EX + "v"), Literal("2.5", datatype=XSD + "decimal")),
        (IRI(EX + "c"), IRI(EX + "v"), Literal("-2.5", datatype=XSD + "decimal")),
    ]
    ds = ray.data.from_arrow(triples_to_table(trips, with_hash=False))
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?a ?r ?c ?f WHERE {{
          ?s ex:v ?x .
          BIND(ABS(?x) AS ?a) BIND(ROUND(?x) AS ?r)
          BIND(CEIL(?x) AS ?c) BIND(FLOOR(?x) AS ?f)
        }} ORDER BY ?s""",
    ).take_all()
    INT = f"^^<{XSD}integer>"
    # ABS of a non-integral value is outside the integer domain → unbound
    assert [r["a"] for r in out] == [f'"7"{INT}', "", ""]
    # SPARQL ROUND: ties toward +inf (round(2.5)=3, round(-2.5)=-2)
    assert [r["r"] for r in out] == [f'"-7"{INT}', f'"3"{INT}', f'"-2"{INT}']
    assert [r["c"] for r in out] == [f'"-7"{INT}', f'"3"{INT}', f'"-2"{INT}']
    assert [r["f"] for r in out] == [f'"-7"{INT}', f'"2"{INT}', f'"-3"{INT}']


def test_hash_and_accessor_builtins(sparql_tier):
    import hashlib

    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?h ?h2 ?l ?dt WHERE {{
          ?s ex:lang ?x .
          BIND(MD5(STR(?x)) AS ?h) BIND(SHA256(STR(?x)) AS ?h2)
          BIND(LANG(?x) AS ?l) BIND(DATATYPE(?x) AS ?dt)
        }} ORDER BY ?s""",
    ).take_all()
    # d1 "en" plain, d2 "de" plain, d3 "Guten Tag"@de
    assert out[0]["h"] == '"' + hashlib.md5(b"en").hexdigest() + '"'
    assert out[0]["h2"] == '"' + hashlib.sha256(b"en").hexdigest() + '"'
    assert [r["l"] for r in out] == ['""', '""', '"de"']
    assert out[0]["dt"] == "<http://www.w3.org/2001/XMLSchema#string>"
    assert out[2]["dt"] == "<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>"


def test_datatype_of_non_literal_unbound(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?dt WHERE {{
          ?s a ex:Doc . BIND(DATATYPE(?s) AS ?dt)
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["dt"] for r in out] == ["", ""]


def test_if_boolean_function_condition(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?x ?y WHERE {{
          ?s ex:lang ?l .
          BIND(IF(CONTAINS(?l, "n"), "has-n", "no-n") AS ?x)
          BIND(IF(!ISLITERAL(?s), "iri", "lit") AS ?y)
        }} ORDER BY ?s""",
    ).take_all()
    # d1 "en", d2 "de", d3 "Guten Tag"@de
    assert [r["x"] for r in out] == ['"has-n"', '"no-n"', '"has-n"']
    assert [r["y"] for r in out] == ['"iri"'] * 3


def test_if_bound_condition_with_optional(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?x WHERE {{
          ?s ex:lang ?l .
          OPTIONAL {{ ?s ex:chars ?c }}
          BIND(IF(BOUND(?c), "sized", "unsized") AS ?x)
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["x"] for r in out] == ['"sized"', '"sized"', '"unsized"']


def test_select_expression_projection(sparql_tier):
    # (expr AS ?alias) in the SELECT clause desugars to a trailing BIND
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s (UCASE(?l) AS ?u) (STRLEN(?l) AS ?n) WHERE {{
          ?s ex:lang ?l . FILTER (!LANGMATCHES(LANG(?l), "*"))
        }} ORDER BY ?s""",
    ).take_all()
    assert out == [
        {"s": f"<{EX}d1>", "u": '"EN"',
         "n": '"2"^^<http://www.w3.org/2001/XMLSchema#integer>'},
        {"s": f"<{EX}d2>", "u": '"DE"',
         "n": '"2"^^<http://www.w3.org/2001/XMLSchema#integer>'},
    ]


def test_select_expression_with_aggregates_rejected(sparql_tier):
    with pytest.raises(SparqlSyntaxError):
        parse_query(
            f"""PREFIX ex: <{EX}>
            SELECT (UCASE(?l) AS ?u) (COUNT(*) AS ?n)
            WHERE {{ ?s ex:lang ?l }} GROUP BY ?l"""
        )


def test_filter_expression_comparison(sparql_tier):
    # general expression comparisons in FILTER, both function-led and
    # arithmetic-led (backtracked var parse)
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:lang ?l . FILTER(UCASE(?l) = "EN")
        }}""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d1>"]
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:chars ?c . FILTER(?c - 100 > 0)
        }}""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d1>"]
    # ABS over implied signed literal; ExprComparison inside ||
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s WHERE {{
          ?s ex:chars ?c . FILTER(ABS(?c-100) < 25 || ?c = 120)
        }} ORDER BY ?s""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}d1>", f"<{EX}d2>"]


def test_from_dataset_clause(sparql_tier):
    ds, g1, g2 = _quads_ds()
    # FROM g1: default graph = g1 only
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?o WHERE {{ ?s ex:p ?o }}""".replace(
            "WHERE", f"FROM <{g1}> WHERE"
        ),
    ).take_all()
    assert out == [{"s": f"<{EX}a>", "o": '"1"'}]
    # FROM both graphs: merged default graph
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?s FROM <{g1}> FROM <{g2}> WHERE {{ ?s ex:p ?o }} ORDER BY ?s""",
    ).take_all()
    assert [r["s"] for r in out] == [f"<{EX}a>", f"<{EX}b>"]


def test_from_named_scopes_graph(sparql_tier):
    ds, g1, g2 = _quads_ds()
    out = evaluate_select(
        ds,
        f"""PREFIX ex: <{EX}>
        SELECT ?g ?s FROM NAMED <{g2}> WHERE {{ GRAPH ?g {{ ?s ex:p ?o }} }}""",
    ).take_all()
    assert out == [{"g": f"<{g2}>", "s": f"<{EX}b>"}]


def test_from_clause_errors(sparql_tier):
    ds, g1, g2 = _quads_ds()
    with pytest.raises(SparqlSyntaxError):
        parse_query_and_run = evaluate_select(
            ds,
            f"""PREFIX ex: <{EX}>
            SELECT ?s FROM <{g1}> FROM NAMED <{g2}>
            WHERE {{ ?s ex:p ?o }}""",
        )
    with pytest.raises(SparqlSyntaxError):
        # FROM drops the url column, so GRAPH inside errors loudly
        evaluate_select(
            ds,
            f"""PREFIX ex: <{EX}>
            SELECT ?s FROM <{g1}> WHERE {{ GRAPH ?g {{ ?s ex:p ?o }} }}""",
        ).take_all()


def test_from_on_ask_and_construct(sparql_tier):
    from argo_ray.sparql import evaluate_ask, evaluate_construct

    ds, g1, g2 = _quads_ds()
    # ex:b only exists in g2
    assert evaluate_ask(
        ds, f"PREFIX ex: <{EX}> ASK FROM <{g2}> {{ ex:b ex:p ?o }}"
    )
    assert not evaluate_ask(
        ds, f"PREFIX ex: <{EX}> ASK FROM <{g1}> {{ ex:b ex:p ?o }}"
    )
    out = evaluate_construct(
        ds,
        f"""PREFIX ex: <{EX}>
        CONSTRUCT {{ ?s ex:seen "y" }} FROM <{g1}> WHERE {{ ?s ex:p ?o }}""",
    ).to_pandas()
    assert list(out["subj_value"]) == [EX + "a"]


def test_describe_with_from(sparql_tier):
    from argo_ray.sparql.engine import evaluate_describe

    ds, g1, g2 = _quads_ds()
    out = evaluate_describe(
        ds, f"PREFIX ex: <{EX}> DESCRIBE ex:a FROM <{g1}>"
    ).to_pandas()
    assert set(out["pred_value"]) == {EX + "p", EX + "q"}
    out = evaluate_describe(
        ds, f"PREFIX ex: <{EX}> DESCRIBE ex:a FROM <{g2}>"
    ).to_pandas()
    assert len(out) == 0


def test_construct_template_bnodes(sparql_tier):
    """_:label in a CONSTRUCT template mints ONE fresh bnode per
    solution, shared across the template's triples (SPARQL 1.1
    §16.2.1), deterministic across runs."""
    out = evaluate_construct(
        _ds(),
        f"""PREFIX ex: <{EX}>
        CONSTRUCT {{ _:m ex:mentionOf ?s . _:m ex:withLang ?l }}
        WHERE {{ ?s ex:lang ?l . ?s a ex:Doc }}""",
    ).to_pandas()
    assert len(out) == 4  # 2 solutions x 2 template triples
    assert (out["subj_kind"] == 1).all()
    assert out["subj_value"].nunique() == 2  # one bnode per solution
    # the two triples of one solution share the bnode
    assert sorted(out.groupby("subj_value").size().tolist()) == [2, 2]
    again = evaluate_construct(
        _ds(),
        f"""PREFIX ex: <{EX}>
        CONSTRUCT {{ _:m ex:mentionOf ?s . _:m ex:withLang ?l }}
        WHERE {{ ?s ex:lang ?l . ?s a ex:Doc }}""",
    ).to_pandas()
    assert sorted(out["subj_value"]) == sorted(again["subj_value"])  # deterministic


def test_construct_two_template_bnode_labels(sparql_tier):
    """Distinct labels mint distinct bnodes within one solution."""
    out = evaluate_construct(
        _ds(),
        f"""PREFIX ex: <{EX}>
        CONSTRUCT {{ _:a ex:p ?s . _:b ex:q ?s }}
        WHERE {{ ?s a ex:Doc }}""",
    ).to_pandas()
    pa_ = out[out["pred_value"] == EX + "p"]
    pb_ = out[out["pred_value"] == EX + "q"]
    assert set(pa_["subj_value"]).isdisjoint(set(pb_["subj_value"]))


def test_optional_with_bind(sparql_tier):
    """BIND inside an OPTIONAL body (r4 s4): the alias binds only on
    matched rows; unmatched required rows leave it unbound ('')."""
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?tag WHERE {{
          ?s a ex:Doc .
          OPTIONAL {{ ?s ex:lang ?l BIND(CONCAT("lang-", ?l) AS ?tag) }}
        }} ORDER BY ?s""",
    ).take_all()
    got = [(r["s"], r["tag"]) for r in out]
    assert got == [
        (f"<{EX}d1>", '"lang-en"'),
        (f"<{EX}d2>", '"lang-de"'),
    ]


def test_optional_bind_unmatched_rows_stay_unbound(sparql_tier):
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?n WHERE {{
          ?s a ex:Doc .
          OPTIONAL {{ ?s ex:cites ?t BIND(CONCAT("c:", ?t) AS ?n) }}
        }} ORDER BY ?s""",
    ).take_all()
    # no ex:cites assertions on typed docs in this fixture -> all unbound
    assert all(r["n"] == "" for r in out)


def test_nested_optional(sparql_tier):
    """OPTIONAL inside OPTIONAL: LeftJoin(A, LeftJoin(B, C)) — the
    chars assertion only attaches where the language matched first."""
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?s ?l ?c WHERE {{
          ?s a ex:Doc .
          OPTIONAL {{
            ?s ex:lang ?l
            OPTIONAL {{ ?s ex:chars ?c }}
          }}
        }} ORDER BY ?s""",
    ).take_all()
    rows = [(r["s"], r["l"], r["c"]) for r in out]
    # d1 has lang+chars, d2 has lang only (fixture: chars on d1 only)
    assert rows[0][0] == f"<{EX}d1>" and rows[0][1] == '"en"'
    assert rows[1][0] == f"<{EX}d2>" and rows[1][1] == '"de"'
    # every ?c that is bound implies its ?l is bound (nested scoping)
    for _, l, c in rows:
        if c != "":
            assert l != ""


def test_count_distinct_star(sparql_tier):
    """COUNT(DISTINCT *) counts distinct complete solutions (r4 s4)."""
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT (COUNT(DISTINCT *) AS ?n) WHERE {{ ?s ex:lang ?l }}""",
    ).take_all()
    assert out[0]["n"] == 3  # d1/en d2/de d3/fr — already distinct
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?l (COUNT(DISTINCT *) AS ?n)
        WHERE {{ ?s ex:lang ?l }} GROUP BY ?l""",
    ).take_all()
    assert sorted((r["l"], r["n"]) for r in out) == [
        ('"Guten Tag"@de', 1), ('"de"', 1), ('"en"', 1),
    ]
    with pytest.raises(SparqlSyntaxError, match="combine"):
        evaluate_select(
            _ds(),
            f"""PREFIX ex: <{EX}>
            SELECT (COUNT(DISTINCT *) AS ?n) (COUNT(?s) AS ?m)
            WHERE {{ ?s ex:lang ?l }}""",
        )


def test_negated_property_set_reverse_members(sparql_tier):
    """!(p|^q) — SPARQL 1.1 §18.4 forward/reverse split (r4 s4)."""
    # fixture edges: d1/d2 -a-> Doc (rdf:type); no inverse ex:lang edges
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        SELECT ?x WHERE {{ ex:d1 !(ex:lang|ex:chars) ?x }}""",
    ).take_all()
    # forward component: only the rdf:type edge survives the negation
    assert sorted(r["x"] for r in out) == [f"<{EX}Doc>"]
    # reverse-only: edges INTO ex:Doc not via rdf:type — none exist
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?x WHERE {{ ex:Doc !(^rdf:type) ?x }}""",
    ).take_all()
    assert out == []
    # mixed: d1's forward non-lang edges ∪ inverse non-type edges
    out = evaluate_select(
        _ds(),
        f"""PREFIX ex: <{EX}>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?x WHERE {{ ex:d1 !(ex:lang|ex:chars|^rdf:type) ?x }}""",
    ).take_all()
    assert sorted(r["x"] for r in out) == [f"<{EX}Doc>"]


def test_service_federation(sparql_tier):
    """SERVICE joins outer bindings against a registered endpoint
    dataset; SILENT + unknown endpoint = identity; non-silent unknown
    raises."""
    import ray.data as rd

    from argo_ray.sparql import evaluate_select
    from argo_ray.sparql.engine import register_service, unregister_service
    from argo_ray.terms import IRI, Literal, triples_to_table

    EX = "http://example.org/ns#"
    local = rd.from_arrow(
        triples_to_table(
            [
                (IRI("http://d/1"), IRI(EX + "name"), Literal("a")),
                (IRI("http://d/2"), IRI(EX + "name"), Literal("b")),
            ],
            with_hash=False,
        )
    )
    remote = rd.from_arrow(
        triples_to_table(
            [(IRI("http://d/1"), IRI(EX + "score"), Literal("9"))],
            with_hash=False,
        )
    )
    register_service("http://svc.example.org/sparql", remote)
    try:
        q = f"""PREFIX ex: <{EX}>
        SELECT ?d ?n ?s WHERE {{
          ?d ex:name ?n .
          SERVICE <http://svc.example.org/sparql> {{ ?d ex:score ?s }}
        }}"""
        rows = evaluate_select(local, q).take_all()
        assert rows == [{"d": "<http://d/1>", "n": '"a"', "s": '"9"'}]
        # SILENT unknown endpoint: identity — outer bindings survive
        q2 = f"""PREFIX ex: <{EX}>
        SELECT ?d WHERE {{
          ?d ex:name ?n .
          SERVICE SILENT <http://nosuch.example.org/> {{ ?d ex:score ?s }}
        }}"""
        assert sorted(r["d"] for r in evaluate_select(local, q2).take_all()) == [
            "<http://d/1>", "<http://d/2>",
        ]
        import pytest

        from argo_ray.sparql.parser import SparqlSyntaxError

        q3 = q2.replace("SERVICE SILENT", "SERVICE")
        with pytest.raises(SparqlSyntaxError):
            evaluate_select(local, q3).take_all()
    finally:
        unregister_service("http://svc.example.org/sparql")


def test_numeric_orderby_mixed_column(sparql_tier):
    """ORDER BY over a column mixing numeric literals, IRIs and a
    blank node: §15.1 type tiers (blank < IRI < literal) with numerics
    value-ordered within the literal tier; DESC is the exact reverse
    of ASC."""
    import ray.data as rd

    from argo_ray.sparql import evaluate_select
    from argo_ray.terms import IRI, Literal, triples_to_table

    EX = "http://example.org/ns#"
    XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
    trips = [
        (IRI("http://d/1"), IRI(EX + "v"), Literal("9", datatype=XSD_INT)),
        (IRI("http://d/2"), IRI(EX + "v"), Literal("100", datatype=XSD_INT)),
        (IRI("http://d/3"), IRI(EX + "v"), Literal("21", datatype=XSD_INT)),
        (IRI("http://d/4"), IRI(EX + "v"), IRI("http://z/iri")),
        (IRI("http://d/5"), IRI(EX + "v"), Literal("apple")),
    ]
    ds = rd.from_arrow(triples_to_table(trips, with_hash=False))
    q = f"PREFIX ex: <{EX}> SELECT ?s ?v WHERE {{ ?s ex:v ?v }} ORDER BY ?v"
    asc = [r["s"] for r in evaluate_select(ds, q).take_all()]
    # §15.1 tiers: IRI first, then numerics by VALUE (9 < 21 < 100),
    # then the plain literal
    assert asc == ["<http://d/4>", "<http://d/1>", "<http://d/3>",
                   "<http://d/2>", "<http://d/5>"]
    q2 = q.replace("ORDER BY ?v", "ORDER BY DESC(?v)")
    desc = [r["s"] for r in evaluate_select(ds, q2).take_all()]
    assert desc == list(reversed(asc))


def test_service_with_optional_outer(sparql_tier):
    """SERVICE joined bindings still left-join an outer OPTIONAL."""
    import ray.data as rd

    from argo_ray.sparql import evaluate_select
    from argo_ray.sparql.engine import register_service, unregister_service
    from argo_ray.terms import IRI, Literal, triples_to_table

    EX = "http://example.org/ns#"
    local = rd.from_arrow(
        triples_to_table(
            [
                (IRI("http://d/1"), IRI(EX + "name"), Literal("a")),
                (IRI("http://d/1"), IRI(EX + "note"), Literal("n1")),
                (IRI("http://d/2"), IRI(EX + "name"), Literal("b")),
            ],
            with_hash=False,
        )
    )
    remote = rd.from_arrow(
        triples_to_table(
            [
                (IRI("http://d/1"), IRI(EX + "score"), Literal("9")),
                (IRI("http://d/2"), IRI(EX + "score"), Literal("7")),
            ],
            with_hash=False,
        )
    )
    register_service("http://svc2.example.org/", remote)
    try:
        q = f"""PREFIX ex: <{EX}>
        SELECT ?d ?s ?note WHERE {{
          ?d ex:name ?n .
          SERVICE <http://svc2.example.org/> {{ ?d ex:score ?s }}
          OPTIONAL {{ ?d ex:note ?note }}
        }}"""
        rows = sorted(
            (r["d"], r["s"], r["note"])
            for r in evaluate_select(local, q).take_all()
        )
        assert rows == [
            ("<http://d/1>", '"9"', '"n1"'),
            ("<http://d/2>", '"7"', ""),
        ]
    finally:
        unregister_service("http://svc2.example.org/")


def test_graph_mgmt_pname_and_prologue(tmp_path):
    """Graph-management IRIs go through the normal term parser, so
    prefixed names expand against the request prologue."""
    from argo_ray.sinks.graphstore import FileGraphStore
    from argo_ray.terms import IRI, Literal, triples_to_table

    store = FileGraphStore(str(tmp_path / "gs"))
    store.manage(
        "PREFIX g: <http://graphs.example.org/> CREATE GRAPH g:pn"
    )
    assert store.head("http://graphs.example.org/pn")
    store.put(
        "http://graphs.example.org/pn",
        triples_to_table(
            [(IRI("http://s/1"), IRI("http://p/one"), Literal("v"))],
            with_hash=False,
        ),
    )
    store.manage(
        "PREFIX g: <http://graphs.example.org/> MOVE g:pn TO g:pn2"
    )
    assert not store.head("http://graphs.example.org/pn")
    assert store.get("http://graphs.example.org/pn2").num_rows == 1


# -- executor tiers ---------------------------------------------------------

_STAR_JOIN = (
    f"PREFIX ex: <{EX}> SELECT DISTINCT ?s ?l ?c WHERE "
    "{ ?s a ex:Doc . ?s ex:lang ?l . ?s ex:chars ?c } ORDER BY ?s"
)
_STAR_ROWS = [
    {"s": f"<{EX}d1>", "l": '"en"', "c": f'"120"^^<{XSD_INT}>'},
    {"s": f"<{EX}d2>", "l": '"de"', "c": f'"80"^^<{XSD_INT}>'},
]


def test_global_aggregates_over_no_solutions(sparql_tier):
    """Aggregates without GROUP BY over an empty solution sequence give
    one row on both executors: COUNT / SUM 0, GROUP_CONCAT "", AVG /
    MIN / SAMPLE unbound."""
    q = (
        f"PREFIX ex: <{EX}> SELECT (COUNT(*) AS ?n) (SUM(?o) AS ?s) "
        "(AVG(?o) AS ?a) (MIN(?o) AS ?m) (SAMPLE(?o) AS ?x) "
        "WHERE { ?d ex:nope ?o }"
    )
    assert evaluate_select(_ds(), q).take_all() == [
        {"n": 0, "s": 0.0, "a": None, "m": None, "x": None}
    ]
    q = f"PREFIX ex: <{EX}> SELECT (GROUP_CONCAT(?o) AS ?g) WHERE {{ ?d ex:nope ?o }}"
    assert evaluate_select(_ds(), q).take_all() == [{"g": ""}]


def test_tier_choice_follows_store_size(ray_session, monkeypatch):
    """A materialized store at or under the threshold runs in-process;
    one byte over it, or a lazy Dataset, takes the distributed plan —
    with the same rows.  Each tier returns its own frame: a
    ``LocalFrame`` on the local tier, a ``ray.data.Dataset`` on Ray."""
    import ray.data

    from argo_ray.sparql import engine
    from argo_ray.sparql.frame import LocalFrame

    store = _ds()
    q = parse_query(_STAR_JOIN)
    monkeypatch.setattr(engine, "_LOCAL_MAX_BYTES", store.size_bytes())
    assert isinstance(engine._executor(store, q), LocalFrame)
    local = evaluate_select(store, q)
    assert isinstance(local, LocalFrame)
    assert local.take_all() == _STAR_ROWS

    monkeypatch.setattr(engine, "_LOCAL_MAX_BYTES", store.size_bytes() - 1)
    assert engine._executor(store, q) is store
    remote = evaluate_select(store, q)
    assert isinstance(remote, ray.data.Dataset)
    assert remote.take_all() == _STAR_ROWS

    monkeypatch.setattr(engine, "_LOCAL_MAX_BYTES", 64 << 20)
    lazy = store.map_batches(lambda b: b, batch_format="pyarrow")
    assert engine._executor(lazy, q) is lazy


def test_local_tier_starts_no_ray_data_execution(ray_session, monkeypatch):
    """SELECT (a lookup and a GROUP BY join), ASK, CONSTRUCT and DESCRIBE
    over a small materialized store, and every read of their results,
    run without Ray work: every Dataset transform or consumer, building
    a Dataset from Arrow and ``ray.put`` raise from evaluation through
    consumption."""
    import ray
    import ray.data

    from argo_ray.sparql import evaluate_describe

    store = _ds()

    def forbidden(*args, **kwargs):
        raise AssertionError("Ray work on the local tier")

    with monkeypatch.context() as m:
        for name in (
            "map_batches", "union", "sort", "groupby", "aggregate", "limit",
            "count", "materialize", "take_all", "to_pandas", "iter_batches",
        ):
            m.setattr(ray.data.Dataset, name, forbidden)
        m.setattr(ray.data, "from_arrow", forbidden)
        m.setattr(ray.data, "from_arrow_refs", forbidden)
        m.setattr(ray, "put", forbidden)
        lookup = evaluate_select(
            store, f"PREFIX ex: <{EX}> SELECT ?p ?o WHERE {{ ex:d2 ?p ?o }}"
        )
        assert sorted(lookup.to_pandas()["o"]) == [
            f'"80"^^<{XSD_INT}>', '"de"', f"<{EX}Doc>"
        ]
        assert lookup.schema().names == ["p", "o"]
        assert evaluate_select(store, _STAR_JOIN).take_all() == _STAR_ROWS
        grouped = evaluate_select(
            store,
            f"PREFIX ex: <{EX}> SELECT ?l (COUNT(*) AS ?n) "
            "WHERE { ?s ex:lang ?l . ?s a ex:Doc } GROUP BY ?l",
        )
        assert sorted((r["l"], r["n"]) for r in grouped.take_all()) == [
            ('"de"', 1), ('"en"', 1)
        ]
        assert evaluate_ask(store, f'PREFIX ex: <{EX}> ASK {{ ?s ex:lang "de" }}')
        built = evaluate_construct(
            store,
            f"PREFIX ex: <{EX}> CONSTRUCT {{ ?l ex:spokenIn ?s }} "
            "WHERE { ?s ex:lang ?l . ?s a ex:Doc }",
        )
        assert sum(b.num_rows for b in built.iter_batches(batch_format="pyarrow")) == 2
        described = evaluate_describe(store, f"DESCRIBE <{EX}d1> <{EX}d3>")
        assert {r["subj_value"] for r in described.take_all()} == {EX + "d1", EX + "d3"}
        assert described.count() == 4


def test_local_results_stay_local_as_stores(ray_session, monkeypatch):
    """A local-tier CONSTRUCT result queried as a store, or registered
    as a SERVICE dataset, keeps the query on the local tier even where
    a Dataset store would take the Ray plan.  Mixed with a Dataset
    that takes the Ray plan, it joins that plan."""
    import ray.data

    from argo_ray.sparql import engine
    from argo_ray.sparql.engine import register_service, unregister_service
    from argo_ray.sparql.frame import LocalFrame

    built = evaluate_construct(
        _ds(),
        f"PREFIX ex: <{EX}> CONSTRUCT {{ ?s a ex:Doc . ?s ex:speaks ?l }} "
        "WHERE { ?s ex:lang ?l . ?s a ex:Doc }",
    )
    assert isinstance(built, LocalFrame)
    monkeypatch.setattr(engine, "_LOCAL_MAX_BYTES", -1)
    q = parse_query(f'PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:speaks "de" }}')
    assert engine._executor(built, q) is built
    out = evaluate_select(built, q)
    assert isinstance(out, LocalFrame)
    assert out.take_all() == [{"s": f"<{EX}d2>"}]

    iri = "http://local-result.example.org/"
    q = parse_query(
        f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s a ex:Doc . "
        f'SERVICE <{iri}> {{ ?s ex:speaks "en" }} }}'
    )
    try:
        register_service(iri, built)
        assert engine._executor(built, q) is built
        out = evaluate_select(built, q)
        assert isinstance(out, LocalFrame)
        assert out.take_all() == [{"s": f"<{EX}d1>"}]
        store = _ds()
        assert engine._executor(store, q) is store
        assert evaluate_select(store, q).take_all() == [{"s": f"<{EX}d1>"}]

        register_service(iri, _ds().map_batches(lambda b: b, batch_format="pyarrow"))
        q = parse_query(
            f'PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:speaks "de" . '
            f'SERVICE <{iri}> {{ ?s ex:lang "de" }} }}'
        )
        out = evaluate_select(built, q)
        assert isinstance(out, ray.data.Dataset)
        assert out.take_all() == [{"s": f"<{EX}d2>"}]
    finally:
        unregister_service(iri)


def test_local_tier_errors_raise_at_evaluation(ray_session):
    """On the local tier the plan runs inside evaluate_select, so an
    error from a batch function surfaces there, not at consumption."""
    with pytest.raises(SparqlSyntaxError, match="non-integer constant"):
        evaluate_select(
            _ds(),
            f'PREFIX ex: <{EX}> SELECT ?y WHERE {{ ?s ex:lang ?l BIND(?l + "a" AS ?y) }}',
        )


def test_service_datasets_share_the_query_tier(ray_session):
    """A query runs locally only if every SERVICE dataset it reads fits
    too; a lazy endpoint sends the whole query to the distributed plan."""
    from argo_ray.sparql import engine
    from argo_ray.sparql.engine import register_service, unregister_service
    from argo_ray.sparql.frame import LocalFrame

    iri = "http://tier.example.org/"
    q = parse_query(
        f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s a ex:Doc . "
        f'SERVICE <{iri}> {{ ?s ex:lang "de" }} }}'
    )
    store = _ds()
    try:
        register_service(iri, _ds())
        assert isinstance(engine._executor(store, q), LocalFrame)
        assert evaluate_select(store, q).take_all() == [{"s": f"<{EX}d2>"}]
        register_service(iri, _ds().map_batches(lambda b: b, batch_format="pyarrow"))
        assert engine._executor(store, q) is store
        assert evaluate_select(store, q).take_all() == [{"s": f"<{EX}d2>"}]
    finally:
        unregister_service(iri)


def test_ray_tier_blocks_share_one_schema(ray_session, monkeypatch):
    """On the distributed plan every block the engine emits carries the
    one canonical binding schema (sorted columns, int64 kinds,
    large_string terms): the co-group join's output and both branches
    of a ``p|^q`` union.  No schema-drift warning names a typed schema.
    Ray itself still emits column-less empty blocks — for empty sort
    partitions and for maps it skips on empty input — which the check
    recognises and allows."""
    import logging
    import re

    import ray
    import ray.data

    from argo_ray.sparql import engine

    monkeypatch.setattr(engine, "_LOCAL_MAX_BYTES", -1)
    docs = []
    for i in range(40):
        d = IRI(f"{EX}doc{i}")
        docs += [
            (d, IRI(RDF_TYPE), IRI(EX + "Doc")),
            (d, IRI(EX + "lang"), Literal("en" if i % 3 else "de")),
            (d, IRI(EX + "chars"), Literal(str(i), datatype=XSD_INT)),
            (d, IRI(EX + "cites"), IRI(f"{EX}doc{(i * 7) % 40}")),
        ]
    table = triples_to_table(docs, with_hash=False)
    store = ray.data.from_arrow(
        [table.slice(k * 40, 40) for k in range(4)]
    ).materialize()

    drift: list[str] = []

    class Collect(logging.Handler):
        def emit(self, record):
            drift.append(record.getMessage())

    handler = Collect()
    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    log.addHandler(handler)
    try:
        rows = evaluate_select(
            store,
            f"PREFIX ex: <{EX}> SELECT ?s ?l ?c WHERE {{ ?s a ex:Doc . "
            "?s ex:lang ?l . ?s ex:chars ?c } ORDER BY ?s",
        ).take_all()
        assert len(rows) == 40
        for where in (
            parse_query(
                f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?s a ex:Doc . "
                "?s ex:lang ?l . ?s ex:chars ?c }"
            ).where.inner,
            parse_query(
                f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?a ex:cites|^ex:lang ?b }}"
            ).where.inner,
        ):
            bindings = engine._eval(store, where)
            bound = set().union(*engine._scope(where))
            names = sorted(c for v in bound for c in engine._var_cols(v))
            blocks = ray.get(bindings.materialize().to_arrow_refs())
            typed = [b for b in blocks if b.num_columns]
            assert typed
            for b in typed:
                assert b.column_names == names
                for name in names:
                    want = pa.int64() if name.endswith("__kind") else pa.large_string()
                    assert b.schema.field(name).type == want
    finally:
        log.removeHandler(handler)

    def columnless(msg: str) -> bool:
        new = re.search(r"new schema: (.*)\. This may lead", msg, re.S)
        return new is not None and new.group(1) in (
            "", "PandasBlockSchema(names=[], types=[])"
        )

    typed_drift = [m for m in drift if "different schema" in m and not columnless(m)]
    assert not typed_drift, typed_drift
