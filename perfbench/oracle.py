"""Output checkers: every workload output is compared with an answer
computed without the Ray engine (DuckDB SQL or plain Python).

A checker returns ``None`` when the output is correct, else a one-line
reason.  Triple sets are compared by count plus an order-insensitive
digest (sum of 64-bit BLAKE2b line hashes, so duplicates count).
"""

from __future__ import annotations

import glob
import hashlib
import os
import re

import duckdb
import pyarrow as pa

from gen import DC, EX, rewrite_subject_line

_MASK = (1 << 64) - 1


def line_digest(lines) -> tuple[int, str]:
    """(count, digest) of a multiset of N-Triples lines."""
    n, acc = 0, 0
    for line in lines:
        h = hashlib.blake2b(line.encode(), digest_size=8).digest()
        acc = (acc + int.from_bytes(h, "little")) & _MASK
        n += 1
    return n, f"{acc:016x}"


def _connect_documents(documents_path: str):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{documents_path}')"
    )
    return con


# --------------------------------------------------------------------------
# build jobs: written .nt lines vs the nt_lines oracle over `documents`
# --------------------------------------------------------------------------


def expected_build(documents_path: str) -> dict:
    from argo_ray.pipelines.oracles import ORACLES

    con = _connect_documents(documents_path)
    lines = [r[0] for r in con.execute(ORACLES["nt_lines"]).fetchall()]
    n, digest = line_digest(lines)
    return {"triples": n, "digest": digest}


def read_lines(paths) -> list[str]:
    out = []
    for path in paths:
        with open(path) as f:
            out.extend(line for line in f.read().split("\n") if line)
    return out


def check_build(out_dir: str, expected: dict) -> str | None:
    lines = read_lines(sorted(glob.glob(os.path.join(out_dir, "*.nt"))))
    n, digest = line_digest(lines)
    if n != expected["triples"]:
        return f"build job wrote {n} triples, oracle has {expected['triples']}"
    if digest != expected["digest"]:
        return f"build job triple digest {digest} != oracle {expected['digest']}"
    return None


# --------------------------------------------------------------------------
# convert jobs: Turtle parts parsed back vs the generator's rewritten lines
# --------------------------------------------------------------------------


def expected_convert(lines: list[str]) -> dict:
    n, digest = line_digest(rewrite_subject_line(line) for line in lines)
    return {"triples": n, "digest": digest}


def turtle_lines(out_dir: str) -> list[str]:
    from argo_ray.sources.turtle import parse_turtle
    from argo_ray.terms import render_triple

    out = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*.ttl"))):
        with open(path) as f:
            out.extend(render_triple(*t) for t in parse_turtle(f.read()))
    return out


def check_convert(out_dir: str, expected: dict) -> str | None:
    n, digest = line_digest(turtle_lines(out_dir))
    if n != expected["triples"]:
        return f"convert job wrote {n} triples, expected {expected['triples']}"
    if digest != expected["digest"]:
        return f"convert job triple digest {digest} != expected {expected['digest']}"
    return None


# --------------------------------------------------------------------------
# kg_query: the store table and per-query answers from DuckDB
# --------------------------------------------------------------------------


def store_table(documents_path: str) -> pa.Table:
    """The deduplicated KG of ``documents`` (the nt_lines oracle's
    triple set) in the engine's flattened triple schema."""
    from argo_ray.pipelines.oracles import EXP_CTE, TERM_COLS
    from argo_ray.terms import triple_schema

    con = _connect_documents(documents_path)
    tbl = con.execute(
        EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp ORDER BY ALL"
    ).arrow()
    return tbl.cast(triple_schema(with_url=False, with_hash=False))


def _render(pos: str, alias: str) -> str:
    k, v, lang, dt = (f"{alias}.{pos}_{s}" for s in ("kind", "value", "lang", "datatype"))
    return (
        f"CASE {k} WHEN 0 THEN '<' || {v} || '>' WHEN 1 THEN '_:' || {v} "
        f"ELSE '\"' || {v} || '\"' || CASE WHEN {lang} <> '' THEN '@' || {lang} "
        f"WHEN {dt} <> '' THEN '^^<' || {dt} || '>' ELSE '' END END"
    )


def _plain_literal(alias: str, value: str) -> str:
    return (
        f"{alias}.obj_kind = 2 AND {alias}.obj_value = '{value}' "
        f"AND {alias}.obj_lang = '' AND {alias}.obj_datatype = ''"
    )


def _star(aliases_preds: list[tuple[str, str]]) -> str:
    """FROM/WHERE of a subject star join over ``store``."""
    first = aliases_preds[0][0]
    frm = ", ".join(f"store {a}" for a, _ in aliases_preds)
    where = [f"{a}.pred_value = '{p}'" for a, p in aliases_preds]
    where += [
        f"{a}.subj_kind = {first}.subj_kind AND {a}.subj_value = {first}.subj_value"
        for a, _ in aliases_preds[1:]
    ]
    return f"FROM {frm} WHERE " + " AND ".join(where)


def oracle_sql(op: dict) -> str:
    kind = op["kind"]
    if kind == "select_po":
        return (
            f"SELECT {_render('pred', 's')}, {_render('obj', 's')} FROM store s "
            f"WHERE s.subj_kind = 0 AND s.subj_value = '{op['entity']}'"
        )
    if kind == "ask_lang":
        return (
            "SELECT COUNT(*) > 0 FROM store s WHERE s.subj_kind = 0 AND "
            f"s.subj_value = '{op['entity']}' AND s.pred_value = '{DC}language' "
            f"AND {_plain_literal('s', op['lang'])}"
        )
    if kind == "lang_by_site":
        return (
            f"SELECT {_render('obj', 'a')}, COUNT(*) "
            + _star([("a", f"{DC}language"), ("b", f"{EX}site")])
            + f" AND b.obj_kind = 0 AND b.obj_value = '{op['site']}' GROUP BY 1"
        )
    if kind == "star_titles":
        return (
            f"SELECT DISTINCT {_render('subj', 'a')} AS d, {_render('obj', 'b')} AS t, "
            "b.obj_value AS sort_key "
            + _star([("a", f"{DC}language"), ("b", f"{DC}title"), ("c", f"{EX}site")])
            + f" AND {_plain_literal('a', op['lang'])}"
            + f" AND c.obj_kind = 0 AND c.obj_value = '{op['site']}' ORDER BY sort_key, d"
        )
    raise ValueError(f"unknown query kind {kind!r}")


class QueryOracle:
    """DuckDB over the same store table the engine serves."""

    def __init__(self, store: pa.Table):
        self.con = duckdb.connect()
        self.con.register("store", store)

    def expected(self, op: dict):
        rows = self.con.execute(oracle_sql(op)).fetchall()
        if op["kind"] == "ask_lang":
            return bool(rows[0][0])
        if op["kind"] == "star_titles":
            return [(d, t) for d, t, _ in rows]
        return sorted(tuple(_norm(x) for x in r) for r in rows)


_NUM_LIT_RE = re.compile(r'^"([^"]*)"\^\^<http://www\.w3\.org/2001/XMLSchema#'
                         r"(?:integer|decimal|double|float|long|int)>$")


def _norm(x):
    """Engine cells are rendered terms; aggregates may come back as
    typed literals or Python numbers.  Numbers compare as floats."""
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        m = _NUM_LIT_RE.match(x)
        if m:
            return float(m.group(1))
    return x


def check_query(op: dict, result, expected) -> str | None:
    """``result``: bool for ASK, else the engine's rows (list of dicts in
    SELECT column order)."""
    if op["kind"] == "ask_lang":
        return None if result is expected else f"ASK returned {result}, oracle {expected}"
    rows = [tuple(r.values()) for r in result]
    if op["kind"] == "star_titles":
        if sorted(rows) != sorted(expected):
            return f"{op['kind']}: {len(rows)} rows differ from the oracle's {len(expected)}"
        if [t for _, t in rows] != [t for _, t in expected]:
            return f"{op['kind']}: rows not in ORDER BY ?t order"
        return None
    got = sorted(tuple(_norm(x) for x in r) for r in rows)
    if got != expected:
        return f"{op['kind']}: {len(got)} rows differ from the oracle's {len(expected)}"
    return None
