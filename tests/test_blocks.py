"""Block sizing and the build job's per-block kernels.

``io.target_blocks`` sizes single-file reads at 2 blocks per cluster CPU
(at least 256 rows per block), so the block layout of every job changes
with the cluster.  These tests pin the sizing rule and check that the
layout-sensitive pieces of the build job — the ``triple_hash`` key, the
dedup exchange and the N-Triples part writer — give the same output
under any layout.
"""

import glob
import os
from collections import Counter

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from argo_ray import io
from argo_ray.pages import synth_pages_batch
from argo_ray.pipelines.flagship import flagship
from argo_ray.sinks.ntriples import ntriples_bytes, serialize_ntriples, write_ntriples
from argo_ray.sources.rdfa import extract_rdfa_batch
from argo_ray.stages.materialize import DEDUP_KEY, append_triple_hash, dedup_exact
from argo_ray.terms import TRIPLE_COLUMNS, nt_render_lines

SF01 = "/root/testdata/sf0.1"


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(n)})


@pytest.fixture(scope="module")
def triples():
    """~2.6k extracted triples (with duplicates across pages) from 400
    sf0.1 documents, built in-process."""
    docs = pq.read_table(f"{SF01}/documents.parquet").slice(0, 400)
    return extract_rdfa_batch(synth_pages_batch(docs))


def test_target_blocks_is_two_per_cpu(ray_session, monkeypatch):
    for n in (1, 3, 8):
        _cpus(monkeypatch, n)
        assert io.target_blocks() == 2 * n
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert io.target_blocks() == 2 * len(os.sched_getaffinity(0))


@pytest.mark.parametrize("cpus,blocks", [(1, 2), (4, 8)])
def test_read_table_splits_to_cluster(ray_session, monkeypatch, cpus, blocks):
    assert pq.ParquetFile(f"{SF01}/documents.parquet").metadata.num_row_groups == 1
    with monkeypatch.context() as m:
        _cpus(m, cpus)
        ds = io.read_table(SF01, "documents", columns=["doc_id"])
    ds = ds.materialize()
    assert ds.num_blocks() == blocks
    assert ds.count() == 5000


def test_read_table_small_file_stays_one_block(ray_session, monkeypatch, tmp_path):
    src = pq.read_table(f"{SF01}/documents.parquet", columns=["doc_id"]).slice(0, 255)
    pq.write_table(src, tmp_path / "documents.parquet")
    with monkeypatch.context() as m:
        _cpus(m, 8)
        ds = io.read_table(str(tmp_path), "documents")
    assert ds.materialize().num_blocks() == 1


def test_build_job_output_independent_of_block_layout(ray_session, monkeypatch, tmp_path):
    """The build job writes the same multiset of lines whether its read
    is sized for 1 CPU (2 blocks) or for 8 (16 blocks)."""
    got = {}
    for cpus in (1, 8):
        with monkeypatch.context() as m:
            _cpus(m, cpus)
            ds = flagship(SF01)
        out = tmp_path / f"cpus{cpus}"
        manifest = write_ntriples(ds, str(out))
        lines = Counter()
        for path in glob.glob(f"{out}/part-*.nt"):
            with open(path) as f:
                lines.update(f.read().splitlines())
        assert sum(lines.values()) == int(manifest["rows"].sum())
        got[cpus] = (lines, len(manifest))
    (lines1, parts1), (lines8, parts8) = got[1], got[8]
    assert parts1 < parts8  # the sizing reached the job
    assert lines1 == lines8
    assert max(lines1.values()) == 1  # deduplicated


def test_triple_hash_equal_rows_equal_keys(triples):
    """Equal rows get equal keys whether they arrive in one block or in
    a separately built, chunked block with other column types."""
    t = triples.select(TRIPLE_COLUMNS)
    a = append_triple_hash(t)
    n = t.num_rows
    # the same rows, reversed, in three chunks, with kinds widened to
    # int64 and lang/datatype as large_string
    rev = t.take(pa.array(range(n - 1, -1, -1)))
    rev = rev.cast(
        pa.schema(
            [
                (c, pa.int64() if c.endswith("_kind") else pa.large_string())
                for c in TRIPLE_COLUMNS
            ]
        )
    )
    chunked = pa.concat_tables(
        [rev.slice(0, 7), rev.slice(7, n // 2), rev.slice(7 + n // 2)]
    )
    assert chunked.column(0).num_chunks == 3
    b = append_triple_hash(chunked)
    key_a = dict(zip(nt_render_lines(t).to_pylist(), a[DEDUP_KEY].to_pylist()))
    key_b = dict(zip(nt_render_lines(chunked).to_pylist(), b[DEDUP_KEY].to_pylist()))
    assert key_a == key_b
    # distinct rows spread: no two distinct lines share a key here
    assert len(set(key_a.values())) == len(key_a)


def test_dedup_exact_across_blocks_matches_pandas(ray_session, triples):
    """Duplicates planted across 5 blocks (each block overlaps the next
    and repeats rows inside itself) dedup to pandas' drop_duplicates."""
    t = triples.drop_columns(["url"])
    n = t.num_rows
    step = n // 4
    blocks = [t.slice(i * step, 2 * step) for i in range(4)]
    blocks.append(pa.concat_tables([t.slice(0, 50), t.slice(0, 50), t.slice(n - 30)]))
    ds = ray.data.from_arrow(blocks)
    assert ds.num_blocks() == 5
    got = dedup_exact(ds).to_pandas()[TRIPLE_COLUMNS]
    want = pa.concat_tables(blocks).to_pandas()[TRIPLE_COLUMNS].drop_duplicates()
    assert len(want) < sum(b.num_rows for b in blocks)

    def norm(df):
        return df.sort_values(TRIPLE_COLUMNS).reset_index(drop=True).astype(str)

    pd.testing.assert_frame_equal(norm(got), norm(want))


def _joined(table: pa.Table) -> str:
    # the per-row Python join serialize_ntriples used before it was
    # built in Arrow: the byte-for-byte reference
    return "".join(line + "\n" for line in nt_render_lines(table).to_pylist())


def test_serialize_ntriples_bytes_match_row_join(triples):
    t = triples
    cases = {
        "whole": t,
        "sliced": t.slice(5, 300),
        "one row": t.slice(3, 1),
        "chunked": pa.concat_tables([t.slice(0, 10), t.slice(100, 50), t.slice(7, 0)]),
        "empty": t.slice(0, 0),
        "escapes": t.set_column(
            t.schema.get_field_index("obj_value"),
            "obj_value",
            pc.binary_join_element_wise(
                t["obj_value"], pa.scalar('tab\t"q" \\ é\n', pa.large_string()),
                pa.scalar("", pa.large_string()),
            ),
        ).slice(1, 20),
    }
    for name, table in cases.items():
        assert serialize_ntriples(table) == _joined(table), name
        assert ntriples_bytes(table) == _joined(table).encode(), name
    assert ntriples_bytes(t.slice(0, 0)) == b""
    # a term with no value renders no line: an error, never a dropped line
    holed = t.slice(0, 3).set_column(
        t.schema.get_field_index("obj_value"),
        "obj_value",
        pa.array(["a", None, "c"], pa.large_string()),
    )
    with pytest.raises(ValueError, match="1 triples"):
        ntriples_bytes(holed)
