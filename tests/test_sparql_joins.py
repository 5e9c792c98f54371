"""SPARQL joins against a DuckDB translation, on both executors
(``sparql_tier``), over small generated stores.

Each example builds a store of IRIs, blank nodes and plain, language
and typed literals, then a query of one to three triple patterns
(shared and repeated variables, constant positions, a variable
predicate, an all-constant pattern, parts that share no variable)
followed by at most one OPTIONAL, MINUS, FILTER EXISTS or FILTER NOT
EXISTS over one more pattern.  The engine's rows are compared with
DuckDB's as a multiset, so bag multiplicity is checked too.

The translation writes SPARQL's join semantics down independently of
the engine: a pattern is a scan of the store, a shared variable an
equality of all four term columns, a disconnected part a cross join,
OPTIONAL a LEFT JOIN, MINUS a NOT EXISTS on the shared variables (none
shared: nothing removed) and FILTER [NOT] EXISTS a correlated
[NOT] EXISTS.  Only queries in which every join key is bound are
generated: there the engine and SPARQL agree.  What the engine does
with an unbound join key is pinned by the hand-written tests at the
end of this file.
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
    op = draw(st.sampled_from([None, "optional", "minus", "exists", "not_exists"]))
    extra = None
    if op == "optional":
        # joins on a bound variable, binds a fresh one
        shared = draw(_var(bound))
        fresh = ("var", "o1")
        extra = draw(st.sampled_from([(shared, ("const", p), fresh) for p in PREDS]
                                     + [(fresh, ("const", p), shared) for p in PREDS]))
    elif op is not None:
        # fresh variables stay inside the group; none shared is allowed
        extra = draw(_patterns(bound + ["m1", "m2"]))
    return bgp, op, extra


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


def _projected(bgp, op, extra) -> list[str]:
    names = {v for p in bgp for v in _vars(p)}
    if op == "optional":
        names |= set(_vars(extra))
    return sorted(names)


def _sparql(bgp, op, extra) -> str:
    body = " . ".join(_pattern_sparql(p) for p in bgp)
    if op == "optional":
        body += f" OPTIONAL {{ {_pattern_sparql(extra)} }}"
    elif op == "minus":
        body += f" MINUS {{ {_pattern_sparql(extra)} }}"
    elif op is not None:
        neg = "NOT " if op == "not_exists" else ""
        body += f" FILTER {neg}EXISTS {{ {_pattern_sparql(extra)} }}"
    select = " ".join(f"?{v}" for v in _projected(bgp, op, extra))
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


def _render_sql(alias: str, pos: str) -> str:
    k, v, lang, dt = (f"{alias}.{pos}_{f}" for f in FIELDS)
    return (
        f"CASE WHEN {k} IS NULL THEN NULL WHEN {k} = 0 THEN '<' || {v} || '>' "
        f"WHEN {k} = 1 THEN '_:' || {v} "
        f"ELSE '\"' || {v} || '\"' || CASE WHEN {lang} <> '' THEN '@' || {lang} "
        f"WHEN {dt} <> '' THEN '^^<' || {dt} || '>' ELSE '' END END"
    )


def _duckdb_sql(bgp, op, extra) -> str:
    env: dict = {}
    conds: list[str] = []
    tables = []
    for i, pattern in enumerate(bgp):
        tables.append(f"store t{i}")
        conds += _scan(f"t{i}", pattern, env)
    # joins nest left to right, so the LEFT JOIN's ON sees every BGP
    # alias; the BGP's own conditions filter in the WHERE, which keeps
    # the same rows as filtering before the LEFT JOIN
    frm = " CROSS JOIN ".join(tables)
    if op == "optional":
        inner_env = dict(env)
        on = _scan("o", extra, inner_env)
        frm += f" LEFT JOIN store o ON {' AND '.join(on)}"
        env = inner_env
    elif op is not None:
        inner_env = dict(env)
        inner = _scan("m", extra, inner_env)
        shared = [v for v in _vars(extra) if v in env]
        if op == "minus":
            if shared:
                conds.append(
                    f"NOT EXISTS (SELECT 1 FROM store m WHERE {' AND '.join(inner)})"
                )
        else:
            neg = "NOT " if op == "not_exists" else ""
            where = " AND ".join(inner) or "TRUE"
            conds.append(f"{neg}EXISTS (SELECT 1 FROM store m WHERE {where})")
    cols = ", ".join(
        f"{_render_sql(*env[v])} AS {v}" for v in _projected(bgp, op, extra)
    )
    where = f" WHERE {' AND '.join(conds)}" if conds else ""
    return f"SELECT {cols} FROM {frm}{where}"


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
@example(STORE, ([(A, P0, B), (B, P0, A)], None, None))  # shared variables
@example(STORE, ([(A, P2, A)], None, None))  # a repeated variable
@example(STORE, ([(A, P0, B), (S0, P0, S1)], None, None))  # all-constant
@example(STORE, ([(A, P1, B), (C, P2, ("const", LITERALS[3]))], None, None))  # cartesian
@example(STORE, ([(A, P0, B)], "optional", (A, P1, ("var", "o1"))))
@example(STORE, ([(A, P0, B)], "minus", (B, P1, ("var", "m1"))))
@example(STORE, ([(A, P0, B)], "minus", (("var", "m1"), P1, ("var", "m2"))))
@example(STORE, ([(A, ("var", "p"), B)], "exists", (A, P2, ("var", "m1"))))
@example(STORE, ([(A, P0, B)], "not_exists", (B, P1, ("var", "m1"))))
def test_joins_match_duckdb(sparql_tier, store_triples, query):
    _check(store_triples, query)


# The unbound-key rule.  An unbound variable (a null term) used as a
# join key matches only another unbound variable, never a bound term.
# SPARQL treats an unbound variable as compatible with any value, so
# both results below differ from the specification; they pin what the
# engine does.

PIN_STORE = [
    (NODES[0], PREDS[0], LITERALS[0]),
    (NODES[1], PREDS[0], LITERALS[0]),
    (NODES[1], PREDS[1], NODES[2]),
    (NODES[0], PREDS[2], NODES[2]),
    (NODES[1], PREDS[2], NODES[2]),
    (NODES[2], PREDS[2], NODES[0]),
]


def _select(query):
    import ray.data

    table = triples_to_table(PIN_STORE, with_hash=False)
    rows = evaluate_select(ray.data.from_arrow(table), f"PREFIX ex: <{EX}> " + query)
    cols = rows.columns()
    return sorted(tuple(r[c] or "" for c in cols) for r in rows.take_all())


def test_minus_after_optional_keeps_unbound_rows(sparql_tier):
    """A MINUS on a variable an inner OPTIONAL left unbound: the row of
    s0 (``?k`` unbound) is not compatible-by-key with ``s0 p2 s2`` and
    stays; SPARQL would remove it (its only bound shared variable,
    ``?s``, matches)."""
    got = _select(
        "SELECT ?s ?k WHERE { "
        "{ SELECT ?s ?k WHERE { ?s ex:p0 ?o OPTIONAL { ?s ex:p1 ?k } } } "
        "MINUS { ?s ex:p2 ?k } }"
    )
    assert got == [(f"<{EX}s0>", "")]


def test_second_optional_over_unbound_variable(sparql_tier):
    """A second OPTIONAL keyed on a variable the first one left
    unbound: s0's unbound ``?k`` matches no ``?k ex:p2 ?z`` row, so
    ``?z`` stays unbound (SPARQL would extend it with every such row);
    s1's bound ``?k`` = s2 joins as usual."""
    got = _select(
        "SELECT ?s ?k ?z WHERE { ?s ex:p0 ?o "
        "OPTIONAL { ?s ex:p1 ?k } OPTIONAL { ?k ex:p2 ?z } }"
    )
    assert got == [(f"<{EX}s0>", "", ""), (f"<{EX}s1>", f"<{EX}s2>", f"<{EX}s0>")]


def test_unbound_keys_match_each_other(sparql_tier):
    """Both sides unbound on the same key: the rows join.  The second
    OPTIONAL group leaves ``?k`` unbound on every row, so s0's unbound
    ``?k`` from the first OPTIONAL meets it and ``?x`` binds; s1's
    bound ``?k`` does not, and its ``?x`` stays unbound (SPARQL would
    bind it)."""
    got = _select(
        "SELECT ?s ?k ?x WHERE { ?s ex:p0 ?o "
        "OPTIONAL { ?s ex:p1 ?k } "
        "OPTIONAL { ?s ex:p2 ?x OPTIONAL { ?x ex:p1 ?k } } }"
    )
    assert got == [(f"<{EX}s0>", "", f"<{EX}s2>"), (f"<{EX}s1>", f"<{EX}s2>", "")]
