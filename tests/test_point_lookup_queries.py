"""Unit tests for the r4 driver queries completing the last
unit-test-only SURVEY.md §2 ops: M3 point lookups, S5 multi-source file
fan-in, T1 persisted prefix cache, M12 REPL prefix trimming."""

import pyarrow as pa

from argo_ray.pipelines.queries import (
    q_multi_source_fanin,
    q_point_lookups,
    q_prefix_cache_expand,
    q_repl_prefix_trim,
)

from conftest import SF_DIR


def test_point_lookups_shapes(ray_session):
    t = q_point_lookups(SF_DIR)
    assert t.num_rows == 3
    assert t["has_subject"].to_pylist() == [1, 1, 1]
    assert all(c >= 0 for c in t["chars_int"].to_pylist())
    assert all(x for x in t["title"].to_pylist())


def test_multi_source_fanin_recovers_dedup(ray_session):
    from argo_ray.pipelines.queries import q_dedup_exact

    fanin = q_multi_source_fanin(SF_DIR)
    assert fanin.count() == q_dedup_exact(SF_DIR).count()


def test_prefix_cache_expand_builtin_and_miss(ray_session):
    t = pa.Table.from_pandas(q_prefix_cache_expand(SF_DIR).to_pandas())
    assert set(t["rdf_uri"].to_pylist()) == {
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    }
    assert set(t["miss"].to_pylist()) == {""}
    # cache hits expand the nation-derived namespaces
    for p, iri in zip(t["prefix"].to_pylist(), t["iri"].to_pylist()):
        assert iri == f"https://ns.example.org/{p}/thing"


def test_repl_prefix_trim_strips_both_decls(ray_session):
    t = pa.Table.from_pandas(q_repl_prefix_trim(SF_DIR).to_pandas())
    assert t.num_rows == 500
    for rest in t["rest"].to_pylist()[:20]:
        assert rest.startswith("SELECT ?x # ")
        assert "PREFIX" not in rest
