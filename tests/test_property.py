"""Property-based tests (SURVEY §5 plan: "serialize→parse round-trip
preserves the triple multiset under Equal") — hypothesis-generated term
corpora instead of hand-picked cases, plus the RDFa fast-path/fallback
equivalence that the scanner's correctness rests on."""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from argo_ray.sinks.ntriples import serialize_ntriples
from argo_ray.sinks.turtle import serialize_turtle
from argo_ray.sources.ntriples import parse_ntriples
from argo_ray.terms import IRI, Blank, Literal, triples_to_table

# N-Triples IRI charset: printable ASCII minus space, <, >, " (the
# reference's whitelist, ntriples.go:207); keep \ out too (not escaped
# inside IRIs by the NT grammar).
_IRI_CHARS = "".join(
    c for c in map(chr, range(0x21, 0x7F)) if c not in '<>"\\'
)
iri_strategy = st.text(_IRI_CHARS, min_size=1, max_size=30).map(
    lambda s: IRI("http://x/" + s)
)
bnode_strategy = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,10}", fullmatch=True).map(
    Blank
)
# literal text: any printable + the escape-relevant chars
literal_text = st.text(
    st.sampled_from(string.printable + "é€中"), max_size=40
)
lang_strategy = st.from_regex(r"[a-z]{2}(-[a-z0-9]{1,4})?", fullmatch=True)
literal_strategy = st.one_of(
    literal_text.map(Literal),
    st.tuples(literal_text, lang_strategy).map(lambda t: Literal(t[0], lang=t[1])),
    st.tuples(literal_text, iri_strategy).map(
        lambda t: Literal(t[0], datatype=t[1].value)
    ),
)
subject_strategy = st.one_of(iri_strategy, bnode_strategy)
object_strategy = st.one_of(iri_strategy, bnode_strategy, literal_strategy)
triple_strategy = st.tuples(subject_strategy, iri_strategy, object_strategy)


@settings(max_examples=60, deadline=None)
@given(st.lists(triple_strategy, min_size=1, max_size=12))
def test_nt_roundtrip_property(triples):
    """serialize(NT) → parse preserves the triple sequence exactly
    (escapes, lang tags, datatypes, bnodes on any position)."""
    table = triples_to_table(triples, with_hash=False)
    parsed = parse_ntriples(serialize_ntriples(table))
    assert parsed == triples


@settings(max_examples=40, deadline=None)
@given(st.lists(triple_strategy, min_size=1, max_size=10))
def test_turtle_roundtrip_property(triples):
    """serialize(Turtle) → parse preserves the distinct triple SET
    (turtle groups by subject, so order is not preserved)."""
    from argo_ray.sources.turtle import parse_turtle

    table = triples_to_table(triples, with_hash=False)
    parsed = parse_turtle(serialize_turtle(table, {}))
    assert set(parsed) == set(triples)


# --- RDFa scanner ≡ html.parser fallback -------------------------------

_TEXT = st.text(
    st.sampled_from("ab &amp; &lt; x <> ' \" \n\t"), max_size=12
)
_ATTR_POOL = [
    ("property", "dc:t"), ("typeof", "ex:T"), ("resource", "http://r/1"),
    ("vocab", "http://v/"), ("rel", "ex:r"), ("rev", "ex:v"),
    ("href", "http://h/"), ("content", "c v"), ("datatype", "ex:dt"),
    ("xml:lang", "en"), ("xmlns:dc", "http://d/"), ("xmlns:ex", "http://e/"),
    ("class", "plain"), ("id", "x1"),
]


@st.composite
def html_docs(draw):
    """Random nested HTML built from well-formed pieces (the scanner's
    strict subset) with RDFa attributes sprinkled in."""
    depth = draw(st.integers(0, 3))

    def element(d):
        tag = draw(st.sampled_from(["div", "span", "p", "a", "li", "DIV", "Span"]))
        attrs = draw(st.lists(st.sampled_from(_ATTR_POOL), max_size=4))
        attr_s = "".join(
            f' {k}="{v}"' for k, v in attrs
        )
        kind = draw(st.integers(0, 9))
        if kind == 0:  # self-closing
            return f"<{tag}{attr_s}/>"
        if kind == 1:  # void element
            return f"<br{attr_s}>"
        if kind == 2:  # raw-text block (markers inside must not parse)
            rt = draw(st.sampled_from(["script", "style", "SCRIPT"]))
            return (f"<{rt}>var x = '<div property=no>' && 1 < 2;"
                    f"</{rt.lower() if draw(st.booleans()) else rt}>")
        if d <= 0:
            body = draw(_TEXT).replace("<", "&lt;").replace(">", "&gt;")
        else:
            parts = [
                element(d - 1)
                for _ in range(draw(st.integers(0, 2)))
            ]
            body = draw(_TEXT).replace("<", "&lt;").replace(">", "&gt;") + "".join(
                parts
            )
        return f"<{tag}{attr_s}>{body}</{tag}>"

    pieces = [element(depth) for _ in range(draw(st.integers(1, 3)))]
    comment = "<!-- a comment with property=inside -->" if draw(st.booleans()) else ""
    return "<html><body>" + comment + "".join(pieces) + "</body></html>"


@settings(max_examples=80, deadline=None)
@given(html_docs())
def test_rdfa_scan_equals_fallback_property(html):
    """The regex fast path and the html.parser fallback must emit the
    IDENTICAL triple list for any page in the scanner's subset — the
    invariant the flagship's 3× tokenizer speedup rests on."""
    from argo_ray.sources.rdfa import _RdfaEvents, extract_rdfa

    fast = extract_rdfa(html, "http://doc/")
    p = _RdfaEvents("http://doc/")
    p.feed(html)
    p.close()
    if p.pending is not None:
        p._flush_pending("")
    assert fast == p.triples


# squirtle raw strings have NO escape sequences (reference lexer reads
# raw runes to the closing quote, squirtleparser.y:495-504) — literals
# containing " cannot round-trip by design, so the strategy excludes it
_sq_literal_text = st.text(
    st.sampled_from(string.ascii_letters + string.digits + " .,;:!?-_é中"),
    max_size=30,
)
_sq_literal = st.one_of(
    _sq_literal_text.map(Literal),
    st.tuples(_sq_literal_text, lang_strategy).map(
        lambda t: Literal(t[0], lang=t[1])
    ),
    st.tuples(_sq_literal_text, iri_strategy).map(
        lambda t: Literal(t[0], datatype=t[1].value)
    ),
)
_sq_triple = st.tuples(
    st.one_of(iri_strategy, bnode_strategy),
    iri_strategy,
    st.one_of(iri_strategy, bnode_strategy, _sq_literal),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_sq_triple, min_size=1, max_size=10))
def test_squirtle_roundtrip_property(triples):
    """serialize(Squirtle, recursive inlining) → parse preserves the
    distinct triple SET (K5→S3, the hardest serializer pair: nested
    descriptions delete-and-inline object subjects)."""
    from argo_ray.sinks.squirtle import serialize_squirtle
    from argo_ray.sources.squirtle import parse_squirtle

    table = triples_to_table(triples, with_hash=False)
    parsed = parse_squirtle(serialize_squirtle(table, {}))
    assert set(parsed) == set(triples)


# RDF/XML constrains predicates to valid XML element names after the
# prefix split → alpha local names.  Literal text excludes (a) control
# chars other than \t\n\r — illegal in XML 1.0 even escaped, and (b)
# the empty string — an empty property element produces no CharData
# event, so the triple is dropped by the reference's parser exactly as
# by ours (rdfxml.go:167-174: the literal only materializes on
# CharData); both are format limitations, not parser bugs.
_xml_local = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,8}", fullmatch=True)
_xml_pred = _xml_local.map(lambda s: IRI("http://p/" + s))
_xml_text = st.text(
    st.sampled_from(
        "".join(c for c in string.printable if c >= " " or c in "\t\n\r")
        + "é€中&<>\"'"
    ),
    min_size=1,
    max_size=40,
)
_xml_literal = st.one_of(
    _xml_text.map(Literal),
    st.tuples(_xml_text, lang_strategy).map(lambda t: Literal(t[0], lang=t[1])),
    st.tuples(_xml_text, iri_strategy).map(
        lambda t: Literal(t[0], datatype=t[1].value)
    ),
)
_xml_triple = st.tuples(
    st.one_of(iri_strategy, bnode_strategy),
    _xml_pred,
    st.one_of(iri_strategy, bnode_strategy, _xml_literal),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_xml_triple, min_size=1, max_size=10))
def test_rdfxml_roundtrip_property(triples):
    """serialize(RDF/XML, type elision) → parse preserves the distinct
    triple SET (& < > " escaping, lang/datatype attrs, nodeID refs)."""
    from argo_ray.sinks.rdfxml import serialize_rdfxml
    from argo_ray.sources.rdfxml import parse_rdfxml

    table = triples_to_table(triples, with_hash=False)
    parsed = parse_rdfxml(serialize_rdfxml(table, {}))
    assert set(parsed) == set(triples)


@settings(max_examples=40, deadline=None)
@given(st.lists(triple_strategy, min_size=1, max_size=10))
def test_rdfjson_roundtrip_property(triples):
    """serialize(RDF/JSON) → parse preserves the distinct triple SET
    (JSON string escaping over arbitrary printable text)."""
    from argo_ray.sinks.rdfjson import parse_rdfjson, serialize_rdfjson

    table = triples_to_table(triples, with_hash=False)
    parsed = parse_rdfjson(serialize_rdfjson(table))
    assert set(parsed) == set(triples)


# ---------------------------------------------------------------------------
# SPARQL parser: render → parse roundtrip over random data triples
# ---------------------------------------------------------------------------

_iri_chars = st.text(
    alphabet=string.ascii_letters + string.digits + "/#.-_", min_size=1, max_size=12
)
_lit_text = st.text(
    alphabet=string.printable.replace("\x0b", "").replace("\x0c", ""),
    min_size=0, max_size=20,
)


def _sparql_term_strategy():
    iri = _iri_chars.map(lambda s: IRI("http://x.example/" + s))
    plain = _lit_text.map(Literal)
    lang = st.tuples(
        _lit_text,
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5),
    ).map(lambda t: Literal(t[0], lang=t[1]))
    typed = st.tuples(_lit_text, _iri_chars).map(
        lambda t: Literal(t[0], datatype="http://x.example/dt/" + t[1])
    )
    return st.one_of(iri, plain, lang, typed)


def _render_data_term(t):
    from argo_ray.terms import KIND_IRI, escape_literal

    if t.kind == KIND_IRI:
        return f"<{t.value}>"
    out = '"' + escape_literal(t.value) + '"'
    if t.lang:
        out += "@" + t.lang
    elif t.datatype:
        out += f"^^<{t.datatype}>"
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(_sparql_term_strategy(), _sparql_term_strategy()),
        min_size=1,
        max_size=6,
    )
)
def test_sparql_update_parse_roundtrip(pairs):
    """INSERT DATA rendered from arbitrary terms parses back to the
    exact same term list (N-Triples-style escaping closure)."""
    from argo_ray.sparql import parse_update

    subj = IRI("http://x.example/s")
    body = " .\n".join(
        f"<{subj.value}> {_render_data_term(p)} {_render_data_term(o)}"
        for p, o in pairs
        if p.kind == 0  # predicates must be IRIs
    )
    if not body:
        return
    ops = parse_update("INSERT DATA {\n" + body + "\n}")
    expected = [(subj, p, o) for p, o in pairs if p.kind == 0]
    assert ops[0].triples == expected


# ---------------------------------------------------------------------------
# SPARQL BGP differential test: engine vs a naive in-memory evaluator
# ---------------------------------------------------------------------------

_SPARQL_IRIS = [IRI(f"http://g.example/{n}") for n in ("a", "b", "c")]
_SPARQL_PREDS = [IRI(f"http://g.example/p{n}") for n in ("1", "2")]
_SPARQL_OBJS = _SPARQL_IRIS + [Literal("v1"), Literal("7", datatype="http://www.w3.org/2001/XMLSchema#integer"), Literal("x", lang="en")]

_triple_gen = st.tuples(
    st.sampled_from(_SPARQL_IRIS),
    st.sampled_from(_SPARQL_PREDS),
    st.sampled_from(_SPARQL_OBJS),
)

_VARS = ["x", "y", "z"]


def _pos_gen(pool):
    from argo_ray.sparql.parser import Var

    return st.one_of(
        st.sampled_from(_VARS).map(Var),
        st.sampled_from(pool),
    )


_pattern_gen = st.tuples(
    _pos_gen(_SPARQL_IRIS), _pos_gen(_SPARQL_PREDS), _pos_gen(_SPARQL_OBJS)
)


def _ref_bgp(triples, patterns):
    """Obviously-correct nested-loop BGP evaluation."""
    from argo_ray.sparql.parser import Var

    sols = [dict()]
    for pat in patterns:
        new = []
        for binding in sols:
            for t in triples:
                b2 = dict(binding)
                ok = True
                for x, val in zip(pat, t):
                    if isinstance(x, Var):
                        if x.name in b2 and b2[x.name] != val:
                            ok = False
                            break
                        b2[x.name] = val
                    elif x != val:
                        ok = False
                        break
                if ok:
                    new.append(b2)
        sols = new
    return sols


# sparql_tier only pins the engine's executor for the whole test, the
# same for every example, so reusing it across examples is intended
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.lists(_triple_gen, min_size=1, max_size=10),
    st.lists(_pattern_gen, min_size=1, max_size=3),
)
def test_sparql_bgp_differential(sparql_tier, triples, patterns):
    """evaluate_select's co-grouped/witness join machinery must produce
    exactly the naive evaluator's solution multiset, for arbitrary
    small graphs and 1-3-pattern BGPs (shared vars, repeated vars,
    ground terms, empty matches)."""
    import ray.data

    from argo_ray.sparql.engine import evaluate_select
    from argo_ray.sparql.parser import BGP, Project, SelectQuery, Var
    from argo_ray.terms import render_term

    variables = sorted(
        {x.name for pat in patterns for x in pat if isinstance(x, Var)}
    )
    if not variables:
        return  # SELECT * over all-ground patterns is out of scope
    ds = ray.data.from_arrow(triples_to_table(triples, with_hash=False))
    q = SelectQuery(Project(BGP(list(patterns)), variables))
    got = sorted(
        tuple(r[v] for v in variables)
        for r in evaluate_select(ds, q).take_all()
    )
    want = sorted(
        tuple(render_term(sol[v]) for v in variables)
        for sol in _ref_bgp(triples, patterns)
    )
    assert got == want


@settings(max_examples=80, deadline=None)
@given(st.lists(object_strategy, min_size=1, max_size=20))
def test_nt_parse_term_arrays_property(terms):
    """nt_parse_term_arrays is the exact inverse of nt_render_term_arrays
    over arbitrary terms (escapes, lang tags, datatypes, bnodes)."""
    import pyarrow as pa

    from argo_ray.terms import nt_parse_term_arrays, render_term

    rendered = pa.array([render_term(t) for t in terms], pa.large_string())
    out = nt_parse_term_arrays(rendered)
    for i, t in enumerate(terms):
        got = (
            out["kind"][i].as_py(),
            out["value"][i].as_py(),
            out["lang"][i].as_py() or "",
            out["datatype"][i].as_py() or "",
        )
        assert got == (t.kind, t.value, t.lang, t.datatype), (t, got)


_SPARQL_TOKENS = [
    "SELECT", "WHERE", "{", "}", "(", ")", "?x", "?y", "ex:p",
    "<http://x/>", '"str"', "FILTER", "OPTIONAL", "UNION", "GRAPH",
    "BIND", "AS", "COUNT", "*", ".", ";", ",", "|", "+", "^", "!",
    "a", "42", "@en", "^^", "PREFIX", "ORDER", "BY", "LIMIT", "GROUP",
    "VALUES", "MINUS", "EXISTS", "IF", "&&",
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(_SPARQL_TOKENS), min_size=1, max_size=20),
    st.text(max_size=40),
)
def test_sparql_parser_never_crashes(toks, garbage):
    """Malformed queries raise SparqlSyntaxError — never IndexError /
    KeyError / AttributeError (the REPL and services surface parser
    errors to users verbatim)."""
    from argo_ray.sparql.parser import SparqlSyntaxError, parse_query, parse_update

    for text in (" ".join(toks), garbage):
        for fn in (parse_query, parse_update):
            try:
                fn(text)
            except SparqlSyntaxError:
                pass


def _ref_bgp_seeded(triples, patterns, seeds):
    """Nested-loop BGP evaluation from initial bindings."""
    from argo_ray.sparql.parser import Var

    sols = [dict(s) for s in seeds]
    for pat in patterns:
        new = []
        for binding in sols:
            for t in triples:
                b2 = dict(binding)
                ok = True
                for x, val in zip(pat, t):
                    if isinstance(x, Var):
                        if x.name in b2 and b2[x.name] != val:
                            ok = False
                            break
                        b2[x.name] = val
                    elif x != val:
                        ok = False
                        break
                if ok:
                    new.append(b2)
        sols = new
    return sols


@settings(max_examples=20, deadline=None)
@given(
    st.lists(_triple_gen, min_size=1, max_size=10),
    st.lists(_pattern_gen, min_size=1, max_size=2),
    st.lists(_pattern_gen, min_size=1, max_size=1),
    st.sampled_from(_VARS),
    st.sampled_from(_SPARQL_OBJS),
)
def test_sparql_optional_filter_differential(
    ray_session, triples, base_pats, opt_pats, fvar, fterm
):
    """OPTIONAL left-join + term-equality FILTER must match the naive
    evaluator: optionals keep unmatched rows with unbound vars; a
    FILTER on an unbound var drops the row (error semantics)."""
    import ray.data

    from argo_ray.sparql.engine import evaluate_select
    from argo_ray.sparql.parser import (
        BGP, Comparison, Filter, LeftJoin, Project, SelectQuery, Var,
    )
    from argo_ray.terms import render_term

    base_vars = {x.name for p in base_pats for x in p if isinstance(x, Var)}
    opt_vars = {x.name for p in opt_pats for x in p if isinstance(x, Var)}
    if not base_vars:
        return  # all-ground required part: out of scope here
    if fvar not in base_vars:
        return  # filter on the required part only (engine pushes down)
    variables = sorted(base_vars | opt_vars)

    # naive: base BGP -> equality filter -> left-join the optional
    base = _ref_bgp(triples, base_pats)
    base = [s for s in base if s.get(fvar) == fterm]
    want_sols = []
    for sol in base:
        ext = _ref_bgp_seeded(triples, opt_pats, [sol])
        want_sols.extend(ext if ext else [sol])
    want = sorted(
        tuple(render_term(s[v]) if v in s else "" for v in variables)
        for s in want_sols
    )

    ds = ray.data.from_arrow(triples_to_table(triples, with_hash=False))
    where = LeftJoin(BGP(list(base_pats)), BGP(list(opt_pats)))
    q = SelectQuery(
        Project(Filter([Comparison("=", Var(fvar), fterm)], where), variables)
    )
    got = sorted(
        tuple(r[v] for v in variables)
        for r in evaluate_select(ds, q).take_all()
    )
    assert got == want
