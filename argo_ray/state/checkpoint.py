"""Per-partition checkpoint manifest + resume (north rule: "a killed job
resumes from the last committed partition").

Layout::

    out_dir/
      partitions/part=<pid>/...        # parquet triple shards (atomic)
      manifest/part-<pid>.json         # one lineage record per partition

A partition commits by renaming its temp output directory into place and
then publishing its manifest record (:func:`argo_ray.io.publish` —
atomic on POSIX).  ``resume`` = skip every partition that already has a
manifest record; deterministic skolemization (SURVEY.md §1.4) makes
re-running a half-finished partition idempotent.

Lineage per record (reference precedent: the CLI's counters
``TriplesProcessed``/``Rewritten`` + wall-clock report,
``/root/reference/rdf/rdf.go:42-43,408,422-424``): input fragments,
stage versions, row counts in/out, output files, wall seconds.  Each
count is read off committed data — the block metadata of a
materialized stage, or the written parquet footers — so a retried task
cannot count twice.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa

from ..io import publish

# Bump when a stage's semantics change — manifests carry the versions so
# a resume can detect stale partitions (driver policy decides whether to
# invalidate).
STAGE_VERSIONS = {
    "synth_pages": 1,
    "rdfa_extract": 1,
    "dedup_exact": 1,
}

# the multi-syntax KG build (--pipeline multisyntax) versions
MULTI_STAGE_VERSIONS = {
    "synth_pages": 1,
    "rdfa_extract": 1,
    "microdata_extract": 1,
    "jsonld_extract": 1,
    "dedup_exact": 1,
}

def _commit_shard(ds, out_dir: str, pid: int) -> tuple[int, list[str]]:
    """Atomic per-partition commit shared by both pipeline runners:
    write the Dataset to ``part=<pid>.tmp``, count rows from parquet
    METADATA (no re-read of data), then ``os.replace`` into place —
    atomic on POSIX.  Returns (row_count, output_files)."""
    import shutil

    import pyarrow.parquet as pq

    final_dir = os.path.join(out_dir, "partitions", f"part={pid}")
    tmp_dir = final_dir + ".tmp"
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    ds.write_parquet(tmp_dir)
    n_rows = sum(
        pq.read_metadata(os.path.join(tmp_dir, f)).num_rows
        for f in os.listdir(tmp_dir)
        if f.endswith(".parquet")
    )
    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)
    os.replace(tmp_dir, final_dir)
    return n_rows, sorted(os.listdir(final_dir))


class CheckpointManifest:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.manifest_dir = os.path.join(out_dir, "manifest")
        self.partitions_dir = os.path.join(out_dir, "partitions")
        os.makedirs(self.manifest_dir, exist_ok=True)
        os.makedirs(self.partitions_dir, exist_ok=True)

    def completed(self) -> dict[int, dict]:
        out = {}
        for name in os.listdir(self.manifest_dir):
            if name.startswith("part-") and name.endswith(".json"):
                with open(os.path.join(self.manifest_dir, name)) as f:
                    rec = json.load(f)
                out[rec["partition_id"]] = rec
        return out

    def commit(self, record: dict) -> None:
        pid = record["partition_id"]
        path = os.path.join(self.manifest_dir, f"part-{pid}.json")
        publish(path, json.dumps(record, sort_keys=True).encode())


def plan_partitions(sf_dir: str, num_partitions: int) -> list[dict]:
    """Partition the input deterministically.

    Multi-file corpus (the 100 TB layout — a directory of shards): the
    unit is the input fragment; each partition reads ONLY its file
    subset, no filtering, no re-reads.  Single-file testdata: fall back
    to doc_id hash classes over the one file (each partition re-reads
    the small file — acceptable only at test scale, and the manifest
    records which mode ran).
    """
    import glob

    files = sorted(
        glob.glob(os.path.join(sf_dir, "documents*.parquet"))
        + glob.glob(os.path.join(sf_dir, "documents", "*.parquet"))
    )
    if len(files) > 1:
        n = min(num_partitions, len(files))
        return [
            {
                "partition_id": pid,
                "input_fragments": files[pid::n],
                "predicate": None,
            }
            for pid in range(n)
        ]
    path = f"{sf_dir}/documents.parquet"
    return [
        {
            "partition_id": pid,
            "input_fragments": [path],
            "predicate": {"column": "doc_id", "mod": num_partitions, "rem": pid},
        }
        for pid in range(num_partitions)
    ]


def _read_partition(spec: dict):
    """One partition's documents: its input fragments, narrowed to its
    ``doc_id`` hash class when the plan splits a single file."""
    import ray.data as rd

    ds = rd.read_parquet(spec["input_fragments"])
    pred = spec.get("predicate")
    if pred is None:
        return ds

    def part_filter(b: pa.Table) -> pa.Table:
        vals = b[pred["column"]].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.filter(pa.array(vals % pred["mod"] == pred["rem"]))

    return ds.map_batches(part_filter, batch_format="pyarrow")


def run_partition(spec: dict, out_dir: str, salt: str = "") -> dict:
    """Run the flagship pipeline for one partition and atomically commit
    its parquet shard.  The document and raw triple counts are the row
    counts of the materialized stages, the deduped count comes from the
    written parquet metadata.  Returns the lineage record (not yet
    committed)."""
    from ..pages import synth_pages_batch
    from ..sources.rdfa import extract_rdfa_batch
    from ..stages.materialize import dedup_exact

    pid = spec["partition_id"]
    t0 = time.time()

    docs = _read_partition(spec).materialize()
    pages = docs.map_batches(synth_pages_batch, batch_format="pyarrow")
    triples = pages.map_batches(
        lambda b: extract_rdfa_batch(b, salt=salt), batch_format="pyarrow"
    ).materialize()
    deduped = dedup_exact(triples)

    n_deduped, output_files = _commit_shard(deduped, out_dir, pid)

    return {
        "partition_id": pid,
        "pipeline": "kg",
        "input_fragments": spec["input_fragments"],
        "predicate": spec.get("predicate"),
        "salt": salt,
        "stage_versions": STAGE_VERSIONS,
        "row_counts": {
            "documents": docs.count(),
            "triples_raw": triples.count(),
            "triples_deduped": n_deduped,
        },
        "output_files": output_files,
        "wall_sec": round(time.time() - t0, 3),
        "committed_at_unix": int(time.time()),
    }


def run_partition_multisyntax(spec: dict, out_dir: str, salt: str = "") -> dict:
    """One partition of the multi-syntax KG build: the documents slice
    synthesizes its RDFa, microdata and embedded-JSON-LD page families,
    each streams through its own extractor, the three triple streams
    union under one pinned schema, and the skew-proof dedup commits one
    parquet shard — the run-resumable form of kg_multisyntax_build.
    Each branch is materialized before the union, so its row count is
    the per-syntax raw triple count."""
    from ..pages import synth_jsonld_batch, synth_microdata_batch, synth_pages_batch
    from ..sources.jsonld_html import extract_jsonld_batch
    from ..sources.microdata import extract_microdata_batch
    from ..sources.rdfa import extract_rdfa_batch
    from ..stages.materialize import dedup_exact
    from ..terms import cast_triple_schema as norm

    pid = spec["partition_id"]
    t0 = time.time()

    docs = _read_partition(spec).materialize()  # consumed by three branches

    branches = {}
    for synth, extract, cname in (
        (synth_pages_batch, lambda b: extract_rdfa_batch(b, salt=salt), "rdfa"),
        (
            synth_microdata_batch,
            lambda b: extract_microdata_batch(b, salt=salt),
            "microdata",
        ),
        (synth_jsonld_batch, extract_jsonld_batch, "jsonld"),
    ):
        branches[cname] = (
            docs.map_batches(synth, batch_format="pyarrow")
            .map_batches(extract, batch_format="pyarrow")
            .map_batches(norm, batch_format="pyarrow")
            .materialize()
        )
    rdfa, microdata, jsonld = branches.values()
    deduped = dedup_exact(rdfa.union(microdata).union(jsonld))

    n_deduped, output_files = _commit_shard(deduped, out_dir, pid)

    return {
        "partition_id": pid,
        "pipeline": "multisyntax",
        "input_fragments": spec["input_fragments"],
        "predicate": spec.get("predicate"),
        "salt": salt,
        "stage_versions": MULTI_STAGE_VERSIONS,
        "row_counts": {
            "documents": docs.count(),
            **{f"triples_{c}": ds.count() for c, ds in branches.items()},
            "triples_deduped": n_deduped,
        },
        "output_files": output_files,
        "wall_sec": round(time.time() - t0, 3),
        "committed_at_unix": int(time.time()),
    }


class CheckpointMismatch(RuntimeError):
    """A committed partition's plan no longer matches the current plan
    (different --partitions value, changed input layout, or bumped stage
    versions) — resuming would silently mix incompatible partitionings
    (duplicated/missing documents).  ADVICE r1."""


def _spec_mismatch(
    rec: dict, spec: dict, salt: str = "", pipeline: str = "kg"
) -> list[str]:
    out = []
    if rec.get("pipeline", "kg") != pipeline:
        out.append("pipeline")
    if rec.get("input_fragments") != spec["input_fragments"]:
        out.append("input_fragments")
    if rec.get("predicate") != spec.get("predicate"):
        out.append("predicate")
    if rec.get("salt", "") != salt:
        # a different skolemization salt would mix two anon-id
        # namespaces over the same pages — incompatible outputs
        out.append("salt")
    expected = {"kg": STAGE_VERSIONS, "multisyntax": MULTI_STAGE_VERSIONS}[pipeline]
    if rec.get("stage_versions") != expected:
        out.append("stage_versions")
    return out


def run_checkpointed(
    sf_dir: str,
    out_dir: str,
    num_partitions: int = 4,
    salt: str = "",
    on_mismatch: str = "error",
    pipeline: str = "kg",
) -> dict:
    """Resumable flagship run: skips partitions already committed in the
    manifest; returns a summary {completed, skipped, total_triples}.

    A committed record is only skipped when its plan (input fragments,
    partition predicate, stage versions) matches the current plan.  On
    mismatch: ``on_mismatch="error"`` (default) raises
    :class:`CheckpointMismatch`; ``"invalidate"`` discards the stale
    partition (manifest record + output shard) and re-runs it.
    """
    import shutil

    manifest = CheckpointManifest(out_dir)
    done = manifest.completed()
    skipped, completed = [], []
    plan = plan_partitions(sf_dir, num_partitions)
    # committed partitions that are NOT in the current plan (a shrunk
    # --partitions value): their output would double-count documents the
    # new plan re-covers — the same corruption as an in-plan mismatch
    planned_ids = {spec["partition_id"] for spec in plan}
    stale_ids = sorted(set(done) - planned_ids)
    if stale_ids:
        if on_mismatch != "invalidate":
            raise CheckpointMismatch(
                f"committed partitions {stale_ids} are outside the current "
                f"{num_partitions}-partition plan — resubmit with the "
                f"original plan, or pass on_mismatch='invalidate' to "
                f"discard them"
            )
        import shutil

        for pid in stale_ids:
            os.remove(os.path.join(manifest.manifest_dir, f"part-{pid}.json"))
            stale = os.path.join(manifest.partitions_dir, f"part={pid}")
            if os.path.exists(stale):
                shutil.rmtree(stale)
            del done[pid]
    for spec in plan:
        pid = spec["partition_id"]
        if pid in done:
            bad = _spec_mismatch(done[pid], spec, salt, pipeline)
            if not bad:
                skipped.append(pid)
                continue
            if on_mismatch != "invalidate":
                raise CheckpointMismatch(
                    f"partition {pid}: committed record differs from the "
                    f"current plan on {bad} — resubmit with the original "
                    f"plan, or pass on_mismatch='invalidate' to discard "
                    f"and re-run the stale partition"
                )
            os.remove(os.path.join(manifest.manifest_dir, f"part-{pid}.json"))
            stale = os.path.join(manifest.partitions_dir, f"part={pid}")
            if os.path.exists(stale):
                shutil.rmtree(stale)
        if pipeline == "multisyntax":
            record = run_partition_multisyntax(spec, out_dir, salt)
        else:
            record = run_partition(spec, out_dir, salt)
        manifest.commit(record)
        completed.append(pid)
    total = sum(
        rec["row_counts"]["triples_deduped"] for rec in manifest.completed().values()
    )
    return {
        "completed": completed,
        "skipped": skipped,
        "pipeline": pipeline,
        "out_dir": out_dir,
        "total_triples_deduped": total,
    }


PROV_NS = "http://www.w3.org/ns/prov#"
RUN_NS = "https://kg.example.org/run/"


def prov_triples_batch(batch: pa.Table) -> pa.Table:
    """Lineage records ``(partition_id, n_documents)`` → PROV-O triples
    (flattened 12-column layout): one ``prov:Activity`` per partition
    run, one ``prov:Entity`` per output shard, ``prov:wasGeneratedBy``
    linking them, and the document count as an ``xsd:integer`` literal
    — the KG-native rendering of the checkpoint manifest, so lineage
    is queryable with the same SPARQL engine as the data it describes.
    (Nondeterministic manifest fields — wall_sec, committed_at — are
    deliberately NOT exported; provenance must be re-derivable.)"""
    RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
    pids = batch["partition_id"].to_pylist()
    ndocs = batch["n_documents"].to_pylist()
    rows = []
    for pid, n in zip(pids, ndocs):
        act = f"{RUN_NS}part/{pid}"
        ent = f"{RUN_NS}shard/{pid}"
        rows.extend(
            [
                (act, RDF_TYPE, 0, f"{PROV_NS}Activity", "", ""),
                (ent, RDF_TYPE, 0, f"{PROV_NS}Entity", "", ""),
                (ent, f"{PROV_NS}wasGeneratedBy", 0, act, "", ""),
                (act, f"{RUN_NS}documents", 2, str(n), "", XSD_INT),
            ]
        )
    return pa.table(
        {
            "subj_kind": pa.array([0] * len(rows), pa.int64()),
            "subj_value": pa.array([r[0] for r in rows], pa.string()),
            "subj_lang": pa.array([""] * len(rows), pa.string()),
            "subj_datatype": pa.array([""] * len(rows), pa.string()),
            "pred_kind": pa.array([0] * len(rows), pa.int64()),
            "pred_value": pa.array([r[1] for r in rows], pa.string()),
            "pred_lang": pa.array([""] * len(rows), pa.string()),
            "pred_datatype": pa.array([""] * len(rows), pa.string()),
            "obj_kind": pa.array([r[2] for r in rows], pa.int64()),
            "obj_value": pa.array([r[3] for r in rows], pa.string()),
            "obj_lang": pa.array([r[4] for r in rows], pa.string()),
            "obj_datatype": pa.array([r[5] for r in rows], pa.string()),
        }
    )
