"""End-to-end pipeline tests over /root/testdata/sf0.001 (Ray session)."""

import duckdb
import pyarrow as pa
import pytest

from argo_ray.pipelines.flagship import extract_triples, flagship
from argo_ray.pages import pages_dataset
from argo_ray.sources.rdfa import extract_text
from argo_ray.stages.materialize import dedup_exact

from conftest import SF_DIR


@pytest.fixture(scope="module")
def pages(ray_session):
    return pages_dataset(SF_DIR)


def test_pages_schema(pages):
    schema = pages.schema()
    assert schema.names == ["url", "warc_ts", "html", "text", "lang"]
    assert pages.count() == 500


def test_text_invariant_per_url(pages):
    # byte-identical extracted text per url (BASELINE.json input_hint)
    sample = pages.take_batch(50, batch_format="pyarrow")
    for url, html, text in zip(
        sample["url"].to_pylist(),
        sample["html"].to_pylist(),
        sample["text"].to_pylist(),
    ):
        assert extract_text(html.decode()) == text, url


def test_extract_counts(ray_session):
    # per page: type + lang (+dup %3) + chars + title + site + rev = 6
    # (+1 dup) (+2 bnode branch %7)
    con = duckdb.connect()
    expected = con.execute(
        f"""
        select sum(6 + (doc_id % 3 = 0)::int + 2 * (doc_id % 7 = 0)::int)
        from '{SF_DIR}/documents.parquet'
        """
    ).fetchone()[0]
    ds = extract_triples(pages_dataset(SF_DIR))
    assert ds.count() == expected


def test_flagship_dedup(ray_session):
    con = duckdb.connect()
    n_docs, n_dups = con.execute(
        f"""
        select count(*), sum((doc_id % 3 = 0)::int)
        from '{SF_DIR}/documents.parquet'
        """
    ).fetchone()
    raw = extract_triples(pages_dataset(SF_DIR)).count()
    deduped = flagship(SF_DIR).count()
    # the only duplicates in the fixture are the doubled dc:language spans
    assert raw - deduped == n_dups


def test_dedup_is_order_insensitive_set(ray_session):
    ds = flagship(SF_DIR)
    t = pa.Table.from_pandas(ds.to_pandas())
    # no (s,p,o) duplicates remain
    import pandas as pd

    cols = [c for c in t.column_names if c.endswith(("kind", "value", "lang", "datatype"))]
    df = t.to_pandas()
    assert not df.duplicated(subset=cols).any()


def test_every_query_has_an_oracle():
    """Driver-contract invariant (round-2 goal): zero rows-only checks —
    every queries() entry has a matching oracle_sql() twin and vice
    versa."""
    import __ray_entry__ as m

    q, o = set(m.queries()), set(m.oracle_sql())
    assert q == o and len(q) == 90


def test_read_table_sharded_directory_layout(ray_session, tmp_path):
    """The production layout (directory of parquet shards per table)
    reads identically to the single-file testdata layout."""
    import pyarrow.parquet as pq

    from argo_ray.io import read_table

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    d = tmp_path / "sharded" / "documents"
    d.mkdir(parents=True)
    for i in range(4):
        pq.write_table(src.slice(i * 125, 125), d / f"part-{i}.parquet")
    sharded = read_table(str(tmp_path / "sharded"), "documents",
                         columns=["doc_id", "text"])
    single = read_table("/root/testdata/sf0.001", "documents",
                        columns=["doc_id", "text"])
    assert sorted(r["doc_id"] for r in sharded.take_all()) == sorted(
        r["doc_id"] for r in single.take_all()
    )


def test_reify_roundtrip_preserves_terms(ray_session):
    """Literal with lang tag and a typed literal survive the
    reify→rebuild round-trip with kinds/lang/datatype intact."""
    from argo_ray.pipelines.queries import KG_QUERIES

    out = KG_QUERIES["kg_reify_roundtrip"](SF_DIR)
    df = out.to_pandas()
    # every RDFa-extracted term shape is present post-roundtrip
    assert (df["obj_kind"] == 2).any()        # literals
    assert (df["subj_kind"] == 1).any()       # skolemized blank nodes
    assert (df["obj_lang"] != "").any()       # lang-tagged titles
    assert (df["obj_datatype"] != "").any()   # xsd:integer chars
