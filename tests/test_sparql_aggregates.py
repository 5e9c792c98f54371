"""SPARQL GROUP BY and aggregates against a DuckDB translation, on both
executors (``sparql_tier``), over small generated stores.

Each example builds a store of IRIs, blank nodes and plain, language
and typed literals (numeric and non-numeric lexical forms), picks one
of four graph-pattern shapes (one pattern, a join, an OPTIONAL that
leaves the group key unbound, a pattern that matches nothing), a GROUP
BY clause (none, one or two keys, or one key twice) and one to three
aggregates, and compares the engine's rows with DuckDB's as a multiset.

The translation writes down the engine's documented aggregate
semantics independently of its code:

- a group key is the variable's N-Triples rendering, ``""`` when
  unbound;
- COUNT(?v) counts bound values, COUNT(DISTINCT ?v) distinct terms,
  COUNT(DISTINCT *) distinct complete solutions;
- SUM/AVG/MIN/MAX read the lexical form as a double and skip what does
  not parse; SUM of no number is 0, AVG/MIN/MAX of none unbound;
  SUM/AVG(DISTINCT) sum distinct terms;
- SAMPLE is the least rendering;
- GROUP_CONCAT joins the bound lexical forms in ascending order
  (DISTINCT: distinct lexical forms), ``""`` when there are none;
- without GROUP BY there is exactly one row, also for no solutions.
"""

import math

import duckdb
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from argo_ray.sparql import evaluate_select
from argo_ray.terms import IRI, Blank, Literal, triples_to_table

EX = "http://example.org/agg#"
XSD = "http://www.w3.org/2001/XMLSchema#"

# lexical forms: numbers pandas, Arrow and DuckDB all read alike, and
# forms none of them reads as a number
VALUES = ["1", "2", "2.5", "-3", "10", " 7", "1e1", "abc", "", "x y"]

subjects = st.one_of(
    st.sampled_from([IRI(EX + f"s{i}") for i in range(3)]),
    st.sampled_from([Blank(f"b{i}") for i in range(2)]),
)
objects = st.one_of(
    subjects,
    st.sampled_from(VALUES).map(Literal),
    st.tuples(st.sampled_from(VALUES), st.sampled_from(["en", "de"])).map(
        lambda t: Literal(t[0], lang=t[1])
    ),
    st.tuples(
        st.sampled_from(VALUES), st.sampled_from([XSD + "integer", XSD + "string"])
    ).map(lambda t: Literal(t[0], datatype=t[1])),
)
triples = st.lists(
    st.tuples(subjects, st.sampled_from([IRI(EX + "p0"), IRI(EX + "p1")]), objects),
    min_size=1,
    max_size=14,
)

# shape → (WHERE body, variables, DuckDB FROM clause binding each
# variable to a (table alias, position))
SHAPES = {
    "one": (
        "?s ex:p0 ?o",
        {"s": ("a", "subj"), "o": ("a", "obj")},
        f"store a WHERE a.pred_value = '{EX}p0'",
    ),
    "join": (
        "?s ex:p0 ?o . ?s ex:p1 ?k",
        {"s": ("a", "subj"), "o": ("a", "obj"), "k": ("b", "obj")},
        f"store a JOIN store b ON a.subj_kind = b.subj_kind "
        f"AND a.subj_value = b.subj_value "
        f"WHERE a.pred_value = '{EX}p0' AND b.pred_value = '{EX}p1'",
    ),
    "optional": (
        "?s ex:p0 ?o OPTIONAL { ?s ex:p1 ?k }",
        {"s": ("a", "subj"), "o": ("a", "obj"), "k": ("b", "obj")},
        f"store a LEFT JOIN store b ON b.pred_value = '{EX}p1' "
        f"AND a.subj_kind = b.subj_kind AND a.subj_value = b.subj_value "
        f"WHERE a.pred_value = '{EX}p0'",
    ),
    "empty": (
        "?s ex:nope ?o",
        {"s": ("a", "subj"), "o": ("a", "obj")},
        f"store a WHERE a.pred_value = '{EX}nope'",
    ),
}

# (func, DISTINCT) pairs an aggregate over a variable may take
AGG_FORMS = [
    ("count", False), ("count", True), ("sum", False), ("sum", True),
    ("avg", False), ("avg", True), ("min", False), ("max", False),
    ("sample", False), ("group_concat", False), ("group_concat", True),
]


@st.composite
def queries(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    variables = sorted(SHAPES[shape][1])
    keys = [[], ["s"], ["o"], ["s", "s"]] + ([["k"], ["s", "k"]] if "k" in variables else [])
    group_by = draw(st.sampled_from(keys))
    if draw(st.integers(0, 9)) == 0:
        # COUNT(DISTINCT *) takes no company
        return shape, group_by, [("count", None, True, "n0")]
    aggs = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 5)) == 0:
            aggs.append(("count", None, False, f"n{i}"))
            continue
        func, distinct = draw(st.sampled_from(AGG_FORMS))
        var = draw(st.sampled_from([v for v in variables if v != "s"]))
        aggs.append((func, var, distinct, f"n{i}"))
    return shape, group_by, aggs


def _sparql(shape, group_by, aggs) -> str:
    select = [f"?{g}" for g in dict.fromkeys(group_by)]
    for func, var, distinct, alias in aggs:
        arg = ("DISTINCT " if distinct else "") + (f"?{var}" if var else "*")
        if func == "group_concat":
            arg += '; SEPARATOR=","'
        select.append(f"({func.upper()}({arg}) AS ?{alias})")
    group = f" GROUP BY {' '.join('?' + g for g in group_by)}" if group_by else ""
    return (
        f"PREFIX ex: <{EX}> SELECT {' '.join(select)} "
        f"WHERE {{ {SHAPES[shape][0]} }}{group}"
    )


def _render_sql(alias: str, pos: str) -> str:
    k, v, lang, dt = (f"{alias}.{pos}_{f}" for f in ("kind", "value", "lang", "datatype"))
    return (
        f"CASE WHEN {k} IS NULL THEN NULL WHEN {k} = 0 THEN '<' || {v} || '>' "
        f"WHEN {k} = 1 THEN '_:' || {v} "
        f"ELSE '\"' || {v} || '\"' || CASE WHEN {lang} <> '' THEN '@' || {lang} "
        f"WHEN {dt} <> '' THEN '^^<' || {dt} || '>' ELSE '' END END"
    )


def _duckdb_sql(shape, group_by, aggs) -> str:
    _, variables, frm = SHAPES[shape]
    group_by = list(dict.fromkeys(group_by))  # a repeated key groups once
    sol = ", ".join(
        f"{_render_sql(a, pos)} AS {v}_r, {a}.{pos}_value AS {v}_v"
        for v, (a, pos) in sorted(variables.items())
    )
    keys = [f"coalesce({g}_r, '') AS {g}" for g in group_by] or ["1 AS _u"]
    key_names = list(group_by) or ["_u"]
    by = f" GROUP BY {', '.join(key_names)}" if group_by else ""
    num = "TRY_CAST({v}_v AS DOUBLE)"
    parts = []
    for func, var, distinct, alias in aggs:
        src = "sol"
        if distinct:
            # DISTINCT over terms (COUNT/SUM/AVG, and * over every
            # variable) or over lexical forms (GROUP_CONCAT)
            if func == "group_concat":
                picked = [f"{g}_r" for g in group_by] + [f"{var}_v"]
            elif var is None:
                picked = [f"{v}_r" for v in sorted(variables)]
            else:
                picked = [f"{v}_r" for v in group_by + [var]] + [f"{var}_v"]
            src = f"(SELECT DISTINCT {', '.join(dict.fromkeys(picked))} FROM sol)"
        if var is None:
            expr = "count(*)"
        elif func == "count":
            expr = f"count({var}_r)"
        elif func in ("sum", "avg", "min", "max"):
            expr = f"{func}({num.format(v=var)})"
            if func == "sum":
                expr = f"coalesce({expr}, 0.0)"
        elif func == "sample":
            expr = f"min({var}_r)"
        else:
            expr = f"coalesce(string_agg({var}_v, ',' ORDER BY {var}_v), '')"
        parts.append(
            f"(SELECT {', '.join(keys)}, {expr} AS {alias} FROM {src}{by}) q_{alias}"
        )
    groups = (
        f"(SELECT DISTINCT {', '.join(keys)} FROM sol) g"
        if group_by
        else "(SELECT 1 AS _u) g"
    )
    joined = groups + "".join(f" LEFT JOIN {p} USING ({', '.join(key_names)})" for p in parts)
    cols = list(group_by) + [alias for *_, alias in aggs]
    return f"WITH sol AS (SELECT {sol} FROM {frm}) SELECT {', '.join(cols)} FROM {joined}"


def _cell(x) -> str:
    if x is None:
        return "<unbound>"
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.9g}"
    return str(x)


def _rows(rows, cols):
    return sorted(tuple(_cell(r[c]) for c in cols) for r in rows)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(triples, queries())
@example(  # GROUP BY ?s ?s groups once
    [(IRI(EX + "s0"), IRI(EX + "p0"), Literal(v)) for v in ("1", "2")],
    ("one", ["s", "s"], [("count", None, False, "n0"), ("sum", "o", False, "n1")]),
)
def test_aggregates_match_duckdb(sparql_tier, store_triples, query):
    import ray.data

    shape, group_by, aggs = query
    table = triples_to_table(store_triples, with_hash=False)
    con = duckdb.connect()
    con.register("store", table)
    sql = _duckdb_sql(shape, group_by, aggs)
    want = con.execute(sql)
    cols = [d[0] for d in want.description]
    want = [dict(zip(cols, r)) for r in want.fetchall()]
    got = evaluate_select(ray.data.from_arrow(table), _sparql(shape, group_by, aggs))
    assert _rows(got.take_all(), cols) == _rows(want, cols), (
        _sparql(shape, group_by, aggs), sql
    )
