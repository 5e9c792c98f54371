"""The benchmark's own tests: generators are deterministic per seed and
the checkers flag corrupted outputs.  No Ray session is needed.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.dirname(os.path.dirname(HERE))]

import gen  # noqa: E402
import oracle  # noqa: E402

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"


def _files(d):
    return {n: open(os.path.join(d, n), "rb").read() for n in sorted(os.listdir(d))}


def test_documents_deterministic_per_seed():
    a, b, c = (gen.documents_table(300, s) for s in (7, 7, 8))
    assert a.equals(b)
    assert not a.equals(c)
    # the seed moves ids, order and text, not the shape
    assert a.schema == c.schema and a.num_rows == c.num_rows == 300


def test_nt_files_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.write_nt_files(str(tmp_path / name), gen.nt_lines(200, seed), 5)
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert a != c
    lines = gen.nt_lines(200, 3)
    assert len(set(lines)) == len(lines)
    assert b"".join(a.values()).decode().splitlines() == lines


def test_query_schedule_deterministic_with_fixed_mix():
    ents = [f"https://kg.example.org/doc/{i}" for i in range(50)]
    a = gen.query_schedule(ents, 4, 11, 6)
    assert a == gen.query_schedule(ents, 4, 11, 6)
    assert a != gen.query_schedule(ents, 4, 12, 6)
    for rnd in a:
        assert [op["cls"] for op in rnd] == (["lookup"] * 3 + ["join"]) * 2


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("docs") / "documents.parquet")
    gen.write_documents(path, 300, 5)
    return path


def _oracle_lines(documents):
    import duckdb

    from argo_ray.pipelines.oracles import ORACLES

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{documents}')")
    return [r[0] for r in con.execute(ORACLES["nt_lines"]).fetchall()]


def _write(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


def test_build_checker_flags_planted_triple(documents, tmp_path):
    expected = oracle.expected_build(documents)
    lines = _oracle_lines(documents)
    _write(tmp_path / "part-a.nt", lines[::2])
    _write(tmp_path / "part-b.nt", lines[1::2])
    assert oracle.check_build(str(tmp_path), expected) is None

    wrong = list(lines)
    wrong[3] = wrong[3].replace("<http://", "<https://", 1)
    _write(tmp_path / "part-a.nt", wrong[::2])
    _write(tmp_path / "part-b.nt", wrong[1::2])
    assert "digest" in oracle.check_build(str(tmp_path), expected)

    _write(tmp_path / "part-a.nt", lines[:-1])
    os.remove(tmp_path / "part-b.nt")
    assert "triples" in oracle.check_build(str(tmp_path), expected)


def test_convert_checker_flags_planted_triple(tmp_path):
    from argo_ray.sinks.turtle import serialize_turtle
    from argo_ray.sources.ntriples import parse_ntriples
    from argo_ray.terms import triples_to_table

    lines = gen.nt_lines(40, 2)
    expected = oracle.expected_convert(lines)
    rewritten = [gen.rewrite_subject_line(line) for line in lines]
    assert any("entity.example.org" in line for line in rewritten)

    def write_ttl(nt_lines):
        table = triples_to_table(parse_ntriples("\n".join(nt_lines) + "\n"))
        (tmp_path / "part-0.ttl").write_text(serialize_turtle(table))

    write_ttl(rewritten)
    assert oracle.check_convert(str(tmp_path), expected) is None
    write_ttl(lines)  # subject rewrite not applied
    assert oracle.check_convert(str(tmp_path), expected) is not None
    write_ttl(rewritten[:-1] + ['<urn:x> <urn:y> "planted" .'])
    assert "digest" in oracle.check_convert(str(tmp_path), expected)


@pytest.fixture(scope="module")
def store_oracle(documents):
    return oracle.QueryOracle(oracle.store_table(documents))


def _op(kind, rounds):
    return next(op for rnd in rounds for op in rnd if op["kind"] == kind)


@pytest.fixture(scope="module")
def rounds(documents):
    store = oracle.store_table(documents)
    ents = sorted(v for v in set(store["subj_value"].to_pylist())
                  if v.startswith("https://kg.example.org/doc/"))
    return gen.query_schedule(ents, 8, 9, 4)


def test_query_checker_flags_wrong_row(store_oracle, rounds):
    op = _op("select_po", rounds)
    exp = store_oracle.expected(op)
    assert len(exp) >= 5
    good = [{"p": p, "o": o} for p, o in exp]
    assert oracle.check_query(op, good, exp) is None
    bad = good[:-1] + [{"p": good[-1]["p"], "o": '"planted"'}]
    assert oracle.check_query(op, bad, exp) is not None
    assert oracle.check_query(op, good[:-1], exp) is not None


def test_query_checker_aggregates_and_ask(store_oracle, rounds):
    op = _op("lang_by_site", rounds)
    exp = store_oracle.expected(op)
    assert exp
    good = [{"l": lang, "n": f'"{int(n)}"^^<{XSD_INT}>'} for lang, n in exp]
    assert oracle.check_query(op, good, exp) is None
    bad = [dict(good[0], n=f'"{int(exp[0][1]) + 1}"^^<{XSD_INT}>')] + good[1:]
    assert oracle.check_query(op, bad, exp) is not None

    ask = _op("ask_lang", rounds)
    truth = store_oracle.expected(ask)
    assert oracle.check_query(ask, truth, truth) is None
    assert oracle.check_query(ask, not truth, truth) is not None


def test_query_checker_enforces_order(store_oracle, rounds):
    op = next(op for rnd in rounds for op in rnd
              if op["kind"] == "star_titles" and len(store_oracle.expected(op)) >= 3)
    exp = store_oracle.expected(op)
    good = [{"d": d, "t": t} for d, t in exp]
    assert oracle.check_query(op, good, exp) is None
    assert len({r["t"] for r in good}) > 1
    assert "order" in oracle.check_query(op, good[::-1], exp)
