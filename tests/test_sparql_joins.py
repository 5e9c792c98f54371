"""SPARQL joins against a DuckDB translation, on both executors
(``sparql_tier``), over small generated stores.

Each example builds a store of IRIs, blank nodes and plain, language
and typed literals, then a query of one to three triple patterns
(shared and repeated variables, constant positions, a variable
predicate, an all-constant pattern, parts that share no variable)
followed by at most two steps, each over one more pattern: OPTIONAL,
MINUS, FILTER EXISTS, FILTER NOT EXISTS or UNION.  A step's pattern
may name a variable an earlier OPTIONAL or UNION step left unbound in
some rows, so join keys are unbound too.  The engine's rows are
compared with DuckDB's as a multiset, so bag multiplicity is checked.

The translation writes SPARQL's semantics down independently of the
engine, one SQL relation per step: a pattern is a scan of the store, a
variable shared within the first patterns an equality of all four
term columns, a disconnected part a cross join.  Across steps a shared
variable is compatible (§18.3): ``l.v IS NULL OR r.v IS NULL OR l.v =
r.v``, and the result takes ``COALESCE(l.v, r.v)``.  OPTIONAL is a LEFT
JOIN on that, UNION a UNION ALL with NULL for the other side's
variables, FILTER [NOT] EXISTS a correlated [NOT] EXISTS, and MINUS a
NOT EXISTS that also needs one shared variable bound on both sides
(§18.5).  The hand-written tests at the end pin single forms on 2–4
triple stores.
"""

import duckdb
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from argo_ray.sparql import evaluate_select
from argo_ray.terms import IRI, Blank, Literal, triples_to_table

EX = "http://example.org/join#"
XSD = "http://www.w3.org/2001/XMLSchema#"
FIELDS = ("kind", "value", "lang", "datatype")

IRIS = [IRI(EX + f"s{i}") for i in range(3)]
NODES = IRIS + [Blank(f"b{i}") for i in range(2)]
LITERALS = [
    Literal("x"), Literal("x", lang="en"), Literal("x", lang="de"),
    Literal("1", datatype=XSD + "integer"), Literal("1"),
]
PREDS = [IRI(EX + f"p{i}") for i in range(3)]

triples = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(PREDS),
        st.sampled_from(NODES + LITERALS),
    ),
    min_size=1,
    max_size=12,
)

# a query term is ("var", name) or ("const", Term); constants never
# name a blank node (a blank node in a query is a variable)


def _var(names):
    return st.sampled_from(names).map(lambda n: ("var", n))


def _const(terms):
    return st.sampled_from(terms).map(lambda t: ("const", t))


def _patterns(names):
    """One triple pattern whose variables come from ``names``."""
    return st.tuples(
        st.one_of(_var(names), _var(names), _const(IRIS)),
        st.one_of(_const(PREDS), _const(PREDS), _const(PREDS), _var(["p"])),
        st.one_of(_var(names), _var(names), _const(IRIS + LITERALS)),
    )


ground = st.tuples(_const(IRIS), _const(PREDS), _const(IRIS + LITERALS))


def _vars(pattern) -> list[str]:
    return [x for kind, x in pattern if kind == "var"]


STEPS = ["optional", "minus", "exists", "not_exists", "union"]


@st.composite
def queries(draw):
    bgp = draw(st.lists(_patterns(["a", "b", "c"]), min_size=1, max_size=3))
    if draw(st.integers(0, 4)) == 0:
        bgp.insert(draw(st.integers(0, len(bgp))), draw(ground))
    bound = sorted({v for p in bgp for v in _vars(p)})
    if not bound:
        bgp.append(draw(_patterns(["a", "b"])))
        bound = sorted({v for p in bgp for v in _vars(p)})
        if not bound:
            bgp.append((("var", "a"), ("const", PREDS[0]), ("var", "b")))
            bound = ["a", "b"]
    steps = []
    for i in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(STEPS))
        # an OPTIONAL or UNION step binds a fresh variable later steps
        # may key on; MINUS / EXISTS variables stay inside their group
        fresh = [f"o{i}"] if op in ("optional", "union") else [f"m{i}a", f"m{i}b"]
        pattern = draw(_patterns(bound + fresh))
        steps.append((op, pattern))
        if op in ("optional", "union"):
            bound = sorted(set(bound) | set(_vars(pattern)))
    return bgp, steps


def _term_sparql(t) -> str:
    if t.kind == 0:  # an IRI
        return f"<{t.value}>"
    if t.lang:
        return f'"{t.value}"@{t.lang}'
    if t.datatype:
        return f'"{t.value}"^^<{t.datatype}>'
    return f'"{t.value}"'


def _pattern_sparql(pattern) -> str:
    return " ".join(f"?{x}" if k == "var" else _term_sparql(x) for k, x in pattern)


def _projected(bgp, steps) -> list[str]:
    names = {v for p in bgp for v in _vars(p)}
    for op, pattern in steps:
        if op in ("optional", "union"):
            names |= set(_vars(pattern))
    return sorted(names)


def _sparql(bgp, steps) -> str:
    body = " . ".join(_pattern_sparql(p) for p in bgp)
    for op, pattern in steps:
        inner = f"{{ {_pattern_sparql(pattern)} }}"
        if op == "optional":
            body += f" OPTIONAL {inner}"
        elif op == "minus":
            body += f" MINUS {inner}"
        elif op == "union":
            body = f"{{ {body} }} UNION {inner}"
        else:  # a group's FILTER applies to all of it: nest what came before
            neg = "NOT " if op == "not_exists" else ""
            body = f"{{ {body} }} FILTER {neg}EXISTS {inner}"
    select = " ".join(f"?{v}" for v in _projected(bgp, steps))
    return f"SELECT {select} WHERE {{ {body} }}"


def _lit(x) -> str:
    return "'" + str(x).replace("'", "''") + "'"


def _scan(alias, pattern, env) -> list[str]:
    """WHERE conditions of one pattern scanned as ``alias``; binds its
    variables' first positions into ``env`` (name → (alias, pos)) and
    equates every later position with the earlier one."""
    conds = []
    for pos, (kind, x) in zip(("subj", "pred", "obj"), pattern):
        if kind == "const":
            conds += [
                f"{alias}.{pos}_{f} = {_lit(getattr(x, f))}" for f in FIELDS
            ]
        elif x in env:
            a, p = env[x]
            conds += [f"{alias}.{pos}_{f} = {a}.{p}_{f}" for f in FIELDS]
        else:
            env[x] = (alias, pos)
    return conds


def _bgp_sql(bgp) -> tuple[str, list[str]]:
    """One relation with a ``{v}_{field}`` column per variable."""
    env: dict = {}
    conds: list[str] = []
    for i, pattern in enumerate(bgp):
        conds += _scan(f"t{i}", pattern, env)
    cols = [f"{a}.{pos}_{f} AS {v}_{f}" for v, (a, pos) in env.items() for f in FIELDS]
    sql = f"SELECT {', '.join(cols) or '1 AS one'} FROM "
    sql += ", ".join(f"store t{i}" for i in range(len(bgp)))
    return sql + (f" WHERE {' AND '.join(conds)}" if conds else ""), list(env)


def _compatible(shared) -> str:
    return " AND ".join(
        f"(l.{v}_kind IS NULL OR r.{v}_kind IS NULL OR ("
        + " AND ".join(f"l.{v}_{f} = r.{v}_{f}" for f in FIELDS) + "))"
        for v in shared
    ) or "TRUE"


def _render_sql(v: str) -> str:
    k, val, lang, dt = (f"{v}_{f}" for f in FIELDS)
    return (
        f"CASE WHEN {k} IS NULL THEN NULL WHEN {k} = 0 THEN '<' || {val} || '>' "
        f"WHEN {k} = 1 THEN '_:' || {val} "
        f"ELSE '\"' || {val} || '\"' || CASE WHEN {lang} <> '' THEN '@' || {lang} "
        f"WHEN {dt} <> '' THEN '^^<' || {dt} || '>' ELSE '' END END"
    )


def _duckdb_sql(bgp, steps) -> str:
    rel, names = _bgp_sql(bgp)
    for op, pattern in steps:
        right, rnames = _bgp_sql([pattern])
        shared = [v for v in rnames if v in names]
        new = [v for v in rnames if v not in names]
        on = _compatible(shared)
        if op == "optional":
            cols = [
                f"CASE WHEN l.{v}_kind IS NULL THEN r.{v}_{f} ELSE l.{v}_{f} END AS {v}_{f}"
                if v in shared else f"l.{v}_{f} AS {v}_{f}"
                for v in names for f in FIELDS
            ] + [f"r.{v}_{f} AS {v}_{f}" for v in new for f in FIELDS]
            rel = f"SELECT {', '.join(cols)} FROM ({rel}) l LEFT JOIN ({right}) r ON {on}"
        elif op == "union":
            every = names + new

            def side(alias, have):
                return ", ".join(
                    f"{alias}.{v}_{f} AS {v}_{f}" if v in have else f"NULL AS {v}_{f}"
                    for v in every for f in FIELDS
                )

            rel = (f"SELECT {side('l', names)} FROM ({rel}) l UNION ALL "
                   f"SELECT {side('r', rnames)} FROM ({right}) r")
        else:
            if op == "minus":  # only a right row sharing a bound variable counts
                on += " AND (" + (" OR ".join(
                    f"(l.{v}_kind IS NOT NULL AND r.{v}_kind IS NOT NULL)" for v in shared
                ) or "FALSE") + ")"
            neg = "" if op == "exists" else "NOT "
            rel = f"SELECT l.* FROM ({rel}) l WHERE {neg}EXISTS (SELECT 1 FROM ({right}) r WHERE {on})"
        if op in ("optional", "union"):
            names = names + new
    cols = ", ".join(f"{_render_sql(v)} AS {v}" for v in _projected(bgp, steps))
    return f"SELECT {cols} FROM ({rel})"


def _rows(rows, cols):
    # the engine renders an unbound variable as "", DuckDB as NULL
    return sorted(tuple(r[c] or "" for c in cols) for r in rows)


def _check(store_triples, query):
    import ray.data

    table = triples_to_table(store_triples, with_hash=False)
    con = duckdb.connect()
    con.register("store", table)
    sql = _duckdb_sql(*query)
    want = con.execute(sql)
    cols = [d[0] for d in want.description]
    want = [dict(zip(cols, r)) for r in want.fetchall()]
    got = evaluate_select(ray.data.from_arrow(table), _sparql(*query)).take_all()
    assert _rows(got, cols) == _rows(want, cols), (_sparql(*query), sql)


S0, S1, B0 = ("const", NODES[0]), ("const", NODES[1]), ("const", NODES[3])
P0, P1, P2 = (("const", p) for p in PREDS)
A, B, C = ("var", "a"), ("var", "b"), ("var", "c")
O0, O1 = ("var", "o0"), ("var", "o1")
STORE = [
    (NODES[0], PREDS[0], NODES[1]),
    (NODES[0], PREDS[0], NODES[1]),  # a duplicate triple: bag multiplicity
    (NODES[1], PREDS[0], NODES[0]),
    (NODES[1], PREDS[1], LITERALS[1]),
    (NODES[3], PREDS[1], LITERALS[2]),
    (NODES[3], PREDS[2], NODES[3]),
    (NODES[0], PREDS[2], LITERALS[3]),
]


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(triples, queries())
@example(STORE, ([(A, P0, B), (B, P0, A)], []))  # shared variables
@example(STORE, ([(A, P2, A)], []))  # a repeated variable
@example(STORE, ([(A, P0, B), (S0, P0, S1)], []))  # all-constant
@example(STORE, ([(A, P1, B), (C, P2, ("const", LITERALS[3]))], []))  # cartesian
@example(STORE, ([(A, P0, B)], [("optional", (A, P1, O0))]))
@example(STORE, ([(A, P0, B)], [("minus", (B, P1, ("var", "m0a")))]))
@example(STORE, ([(A, P0, B)], [("minus", (("var", "m0a"), P1, ("var", "m0b")))]))
@example(STORE, ([(A, ("var", "p"), B)], [("exists", (A, P2, ("var", "m0a")))]))
@example(STORE, ([(A, P0, B)], [("not_exists", (B, P1, ("var", "m0a")))]))
# unbound keys: an OPTIONAL chain, MINUS / NOT EXISTS after an
# OPTIONAL, and UNION branches with different variables
@example(STORE, ([(A, P0, B)], [("optional", (A, P1, O0)), ("optional", (O0, P2, O1))]))
@example(STORE, ([(A, P0, B)], [("optional", (A, P1, O0)), ("minus", (A, P2, O0))]))
@example(STORE, ([(A, P0, B)], [("optional", (A, P1, O0)), ("minus", (O0, P2, ("var", "m1a")))]))
@example(STORE, ([(A, P0, B)], [("optional", (A, P1, O0)), ("not_exists", (O0, P1, ("var", "m1a")))]))
@example(STORE, ([(A, P0, B)], [("union", (A, P1, O0)), ("optional", (O0, P2, O1))]))
def test_joins_match_duckdb(sparql_tier, store_triples, query):
    _check(store_triples, query)


# Unbound join keys.  An unbound variable is compatible with any value
# (§18.3): it joins every row, and the merged row takes the bound value.

PIN_STORE = [
    (NODES[0], PREDS[0], LITERALS[0]),
    (NODES[1], PREDS[0], LITERALS[0]),
    (NODES[1], PREDS[1], NODES[2]),
    (NODES[0], PREDS[2], NODES[2]),
    (NODES[1], PREDS[2], NODES[2]),
    (NODES[2], PREDS[2], NODES[0]),
]


def _select(query, store=PIN_STORE):
    import ray.data

    table = triples_to_table(store, with_hash=False)
    rows = evaluate_select(ray.data.from_arrow(table), f"PREFIX ex: <{EX}> " + query)
    cols = rows.columns()
    return sorted(
        tuple((r[c] or "").replace(EX, "") for c in cols) for r in rows.take_all()
    )


def test_minus_after_optional_keeps_unbound_rows(sparql_tier):
    """A MINUS on a variable an inner OPTIONAL left unbound: s0's row
    (``?k`` unbound) is compatible with ``s0 p2 s2`` and shares the
    bound ``?s`` with it, so it goes, as s1's does."""
    got = _select(
        "SELECT ?s ?k WHERE { "
        "{ SELECT ?s ?k WHERE { ?s ex:p0 ?o OPTIONAL { ?s ex:p1 ?k } } } "
        "MINUS { ?s ex:p2 ?k } }"
    )
    assert got == []


def test_second_optional_over_unbound_variable(sparql_tier):
    """A second OPTIONAL keyed on a variable the first one left
    unbound: s0's unbound ``?k`` is compatible with every ``?k ex:p2
    ?z`` row and takes its ``?k``; s1's bound ``?k`` = s2 joins as
    usual."""
    got = _select(
        "SELECT ?s ?k ?z WHERE { ?s ex:p0 ?o "
        "OPTIONAL { ?s ex:p1 ?k } OPTIONAL { ?k ex:p2 ?z } }"
    )
    assert got == [
        ("<s0>", "<s0>", "<s2>"), ("<s0>", "<s1>", "<s2>"),
        ("<s0>", "<s2>", "<s0>"), ("<s1>", "<s2>", "<s0>"),
    ]


def test_unbound_keys_match_each_other(sparql_tier):
    """Both sides unbound on the same key join, and so does a bound
    side with an unbound one: the second OPTIONAL group leaves ``?k``
    unbound on every row, so it extends s0 (``?k`` unbound) and s1
    (``?k`` bound) alike."""
    got = _select(
        "SELECT ?s ?k ?x WHERE { ?s ex:p0 ?o "
        "OPTIONAL { ?s ex:p1 ?k } "
        "OPTIONAL { ?s ex:p2 ?x OPTIONAL { ?x ex:p1 ?k } } }"
    )
    assert got == [("<s0>", "", "<s2>"), ("<s1>", "<s2>", "<s2>")]


def _t(s, p, o):
    def term(x):
        return x if not isinstance(x, str) else IRI(EX + x)

    return (term(s), term(p), term(o))


# (store, query, SPARQL's answer), each once refused or answered wrong
FORMS = {
    "minus_after_optional": (
        [_t("s0", "p0", "o"), _t("s0", "p1", "k1"), _t("s0", "p2", "k2")],
        "SELECT ?s ?k WHERE { ?s ex:p0 ?o OPTIONAL { ?s ex:p1 ?k } MINUS { ?s ex:p2 ?k } }",
        [("<s0>", "<k1>")],
    ),
    "optional_sharing_no_variable": (
        [_t("s0", "p0", "a"), _t("x", "q", "b")],
        "SELECT ?s ?o ?x WHERE { ?s ex:p0 ?o OPTIONAL { ?x ex:q ex:b } }",
        [("<s0>", "<a>", "<x>")],
    ),
    "optional_over_unbound_key": (
        [_t("s0", "p0", "o"), _t("z", "p3", "k1")],
        "SELECT ?s ?k ?z WHERE { ?s ex:p0 ?o OPTIONAL { ?s ex:p9 ?k } "
        "OPTIONAL { ?z ex:p3 ?k } }",
        [("<s0>", "<k1>", "<z>")],
    ),
    "filter_inside_optional_on_outer_variable": (
        [_t("s0", "p0", Literal("1")), _t("s0", "p1", Literal("2")),
         _t("s1", "p0", Literal("3")), _t("s1", "p1", Literal("4"))],
        'SELECT ?s ?b WHERE { ?s ex:p0 ?a OPTIONAL { ?s ex:p1 ?b FILTER(?a = "1") } }',
        [("<s0>", '"2"'), ("<s1>", "")],
    ),
    "optional_and_bind_in_union_branches": (
        [_t("s0", "p0", "a"), _t("s0", "p1", "b"), _t("s1", "p0", "c")],
        "SELECT ?s ?x ?y ?n WHERE { { ?s ex:p0 ?x OPTIONAL { ?s ex:p1 ?y } } "
        "UNION { ?s ex:p1 ?y BIND(?y AS ?n) } }",
        [("<s0>", "", "<b>", "<b>"), ("<s0>", "<a>", "<b>", ""), ("<s1>", "<c>", "", "")],
    ),
    "union_branches_binding_different_variables": (
        [_t("s0", "p0", "a"), _t("s1", "p1", "b")],
        "SELECT ?s ?a ?b WHERE { { ?s ex:p0 ?a } UNION { ?s ex:p1 ?b } }",
        [("<s0>", "<a>", ""), ("<s1>", "", "<b>")],
    ),
    "values_and_minus_inside_optional": (
        [_t("s0", "p0", "a"), _t("s0", "p1", "b"), _t("s1", "p0", "a"),
         _t("s1", "p1", "c")],
        "SELECT ?s ?y WHERE { ?s ex:p0 ?x OPTIONAL { ?s ex:p1 ?y "
        "VALUES ?y { ex:b ex:c } MINUS { ?s ex:p0 ex:a . ?s ex:p1 ex:c } } }",
        [("<s0>", "<b>"), ("<s1>", "")],
    ),
}


def test_compatible_forms(sparql_tier):
    for form, (store, query, want) in FORMS.items():
        assert _select(query, store) == want, form
