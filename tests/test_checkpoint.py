"""Checkpoint manifest / resume tests (north rule lineage)."""

import json
import os
import shutil

import pytest

from argo_ray.state.checkpoint import (
    CheckpointManifest,
    plan_partitions,
    run_checkpointed,
)

from conftest import SF_DIR


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path / "ckpt")


def test_plan_deterministic():
    p1 = plan_partitions(SF_DIR, 4)
    p2 = plan_partitions(SF_DIR, 4)
    assert p1 == p2
    assert [p["partition_id"] for p in p1] == [0, 1, 2, 3]


def test_run_and_resume(ray_session, out_dir):
    first = run_checkpointed(SF_DIR, out_dir, num_partitions=4)
    assert first["completed"] == [0, 1, 2, 3]
    assert first["skipped"] == []
    total = first["total_triples_deduped"]
    assert total == 3144  # matches the flagship dedup count

    # lineage records carry fragments, versions, counts, outputs
    recs = CheckpointManifest(out_dir).completed()
    assert set(recs) == {0, 1, 2, 3}
    rec = recs[0]
    assert rec["input_fragments"] == [f"{SF_DIR}/documents.parquet"]
    assert rec["stage_versions"]["rdfa_extract"] == 1
    assert rec["row_counts"]["documents"] == 125
    assert rec["output_files"]

    # the raw triple counts equal the extractor run in-process over
    # every document
    import pyarrow.parquet as pq

    from argo_ray.pages import synth_pages_batch
    from argo_ray.sources.rdfa import extract_rdfa_batch

    docs = pq.read_table(f"{SF_DIR}/documents.parquet")
    raw = extract_rdfa_batch(synth_pages_batch(docs)).num_rows
    assert sum(r["row_counts"]["triples_raw"] for r in recs.values()) == raw

    # resume: everything skipped, nothing recomputed, same total
    second = run_checkpointed(SF_DIR, out_dir, num_partitions=4)
    assert second["completed"] == []
    assert second["skipped"] == [0, 1, 2, 3]
    assert second["total_triples_deduped"] == total


def test_kill_and_resume(ray_session, out_dir):
    # simulate a killed job: run all, then delete one manifest record and
    # its outputs — resume must redo exactly that partition
    run_checkpointed(SF_DIR, out_dir, num_partitions=4)
    os.remove(os.path.join(out_dir, "manifest", "part-2.json"))
    shutil.rmtree(os.path.join(out_dir, "partitions", "part=2"))
    resumed = run_checkpointed(SF_DIR, out_dir, num_partitions=4)
    assert resumed["completed"] == [2]
    assert resumed["skipped"] == [0, 1, 3]
    assert resumed["total_triples_deduped"] == 3144


def test_partition_outputs_are_valid_parquet(ray_session, out_dir):
    import pyarrow.parquet as pq

    run_checkpointed(SF_DIR, out_dir, num_partitions=2)
    part0 = os.path.join(out_dir, "partitions", "part=0")
    files = [f for f in os.listdir(part0) if f.endswith(".parquet")]
    assert files
    t = pq.read_table(os.path.join(part0, files[0]))
    assert "subj_value" in t.column_names


def test_multi_file_fragment_partitioning(ray_session, tmp_path):
    """Multi-file corpus: partitions are disjoint file subsets (no
    re-read + filter), result identical to single-file mode."""
    import pyarrow.parquet as pq

    from argo_ray.state.checkpoint import plan_partitions, run_checkpointed

    # split the sf0.001 documents into 4 shard files
    src = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    n = src.num_rows
    for i in range(4):
        pq.write_table(src.slice(i * n // 4, n // 4 + (n % 4 if i == 3 else 0)),
                       corpus / f"documents-{i:03d}.parquet")

    specs = plan_partitions(str(corpus), 4)
    assert all(s["predicate"] is None for s in specs)
    all_frags = [f for s in specs for f in s["input_fragments"]]
    assert len(all_frags) == len(set(all_frags)) == 4  # disjoint cover

    out = tmp_path / "out"
    summary = run_checkpointed(str(corpus), str(out), num_partitions=4)
    assert summary["total_triples_deduped"] == 3144  # same as single-file flagship


def test_resume_rejects_changed_plan(ray_session, out_dir):
    """Re-submitting with a different --partitions value must NOT
    silently mix partitionings (ADVICE r1): error by default,
    re-partition cleanly under on_mismatch='invalidate'."""
    from argo_ray.state.checkpoint import CheckpointMismatch

    first = run_checkpointed(SF_DIR, out_dir, num_partitions=2)
    assert len(first["completed"]) == 2

    with pytest.raises(CheckpointMismatch, match="predicate"):
        run_checkpointed(SF_DIR, out_dir, num_partitions=4)

    redo = run_checkpointed(
        SF_DIR, out_dir, num_partitions=4, on_mismatch="invalidate"
    )
    # pids 0-1 stale (mod 2) → re-run under mod 4; pids 2-3 fresh
    assert sorted(redo["completed"]) == [0, 1, 2, 3] and redo["skipped"] == []
    assert redo["total_triples_deduped"] == first["total_triples_deduped"]

    again = run_checkpointed(SF_DIR, out_dir, num_partitions=4)
    assert again["completed"] == [] and sorted(again["skipped"]) == [0, 1, 2, 3]


def test_resume_rejects_bumped_stage_version(ray_session, out_dir):
    import argo_ray.state.checkpoint as cp

    run_checkpointed(SF_DIR, out_dir, num_partitions=2)
    old = dict(cp.STAGE_VERSIONS)
    try:
        cp.STAGE_VERSIONS["rdfa_extract"] = 99
        with pytest.raises(cp.CheckpointMismatch, match="stage_versions"):
            run_checkpointed(SF_DIR, out_dir, num_partitions=2)
    finally:
        cp.STAGE_VERSIONS.clear()
        cp.STAGE_VERSIONS.update(old)


def test_resume_rejects_shrunk_plan(ray_session, out_dir):
    """Shrinking --partitions leaves committed out-of-plan shards that
    would double-count documents: must error by default and fully
    invalidate under on_mismatch='invalidate' (code-review r2 finding)."""
    from argo_ray.state.checkpoint import CheckpointMismatch

    first = run_checkpointed(SF_DIR, out_dir, num_partitions=4)
    assert len(first["completed"]) == 4

    with pytest.raises(CheckpointMismatch, match="outside the current"):
        run_checkpointed(SF_DIR, out_dir, num_partitions=2)

    redo = run_checkpointed(
        SF_DIR, out_dir, num_partitions=2, on_mismatch="invalidate"
    )
    assert sorted(redo["completed"]) == [0, 1]
    assert redo["total_triples_deduped"] == first["total_triples_deduped"]
    # stale shards for pids 2-3 are gone from disk too
    assert not os.path.exists(os.path.join(out_dir, "partitions", "part=2"))
    assert not os.path.exists(os.path.join(out_dir, "manifest", "part-3.json"))


def test_resume_rejects_changed_salt(ray_session, out_dir):
    """A different --salt would mix two skolem-id namespaces over the
    same pages (code-review r2 finding): error, don't silently skip."""
    from argo_ray.state.checkpoint import CheckpointMismatch

    run_checkpointed(SF_DIR, out_dir, num_partitions=2, salt="a")
    with pytest.raises(CheckpointMismatch, match="salt"):
        run_checkpointed(SF_DIR, out_dir, num_partitions=2, salt="b")
    again = run_checkpointed(SF_DIR, out_dir, num_partitions=2, salt="a")
    assert sorted(again["skipped"]) == [0, 1]


@pytest.mark.parametrize("first,second", [("kg", "multisyntax"), ("multisyntax", "kg")])
def test_resume_rejects_pipeline_switch(ray_session, out_dir, first, second):
    """A checkpoint of one pipeline must not resume as the other."""
    from argo_ray.state.checkpoint import CheckpointMismatch

    run_checkpointed(SF_DIR, out_dir, num_partitions=2, pipeline=first)
    with pytest.raises(CheckpointMismatch, match="'pipeline'"):
        run_checkpointed(SF_DIR, out_dir, num_partitions=2, pipeline=second)


def test_multisyntax_pipeline_run_and_resume(ray_session, out_dir):
    """--pipeline multisyntax: RDFa + microdata + JSON-LD fan-in,
    committed per partition; resume skips everything; the shard union
    equals the three per-syntax triple sets deduped (7644 at sf0.001)."""
    import duckdb

    first = run_checkpointed(
        SF_DIR, out_dir, num_partitions=4, pipeline="multisyntax"
    )
    assert first["completed"] == [0, 1, 2, 3]
    assert first["total_triples_deduped"] == 7644
    second = run_checkpointed(
        SF_DIR, out_dir, num_partitions=4, pipeline="multisyntax"
    )
    assert second["completed"] == [] and second["skipped"] == [0, 1, 2, 3]
    df = duckdb.sql(
        f"SELECT COUNT(*) AS n FROM "
        f"read_parquet('{out_dir}/partitions/*/*.parquet')"
    ).df()
    assert int(df.n[0]) == 7644
    # lineage records carry per-syntax raw counts
    rec = json.load(
        open(os.path.join(out_dir, "manifest", "part-0.json"))
    )
    rc = rec["row_counts"]
    assert rc["triples_rdfa"] > 0
    assert rc["triples_microdata"] == rc["documents"] * 6
    assert rc["triples_jsonld"] == rc["documents"] * 3


def test_run_cli_keeps_host_session(ray_session, out_dir, capsys):
    """``argo_ray.run`` inside a session it did not start: the job runs,
    prints its summary JSON, and leaves the host's Ray session up."""
    import ray

    from argo_ray import run

    assert run.main(["--input", SF_DIR, "--out", out_dir, "--partitions", "2"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["completed"] == [0, 1]
    assert ray.is_initialized()


def test_prov_triples_batch():
    import pyarrow as pa

    from argo_ray.state.checkpoint import prov_triples_batch

    b = pa.table(
        {
            "partition_id": pa.array([0, 3], pa.int64()),
            "n_documents": pa.array([125, 130], pa.int64()),
        }
    )
    out = prov_triples_batch(b)
    assert out.num_rows == 8  # 4 triples per partition
    preds = set(out["pred_value"].to_pylist())
    assert "http://www.w3.org/ns/prov#wasGeneratedBy" in preds
    counts = out.filter(
        (pa.compute.equal(out["pred_value"], "https://kg.example.org/run/documents"))
    )
    assert counts["obj_value"].to_pylist() == ["125", "130"]
    assert set(counts["obj_datatype"].to_pylist()) == {
        "http://www.w3.org/2001/XMLSchema#integer"
    }
