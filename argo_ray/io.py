"""Shared table readers with scale-aware block splitting.

A directory of Parquet shards (the production layout) reads as Ray's
``read_parquet`` splits it, one read task per fragment; we leave that
alone.  A single local file — the driver's testdata is one row group
per table — is sized here instead: when it has fewer row groups than
:func:`target_blocks` (2 blocks per cluster CPU, no floor), the read is
split into that many blocks, but never into blocks of fewer than 256
rows, so a file of under 512 rows reads as one block.  More blocks than
the cluster can run at once only add map tasks, sort-grid cells and
writer tasks; Ray's own default would split even a 64-row file into at
least 2 × CPUs blocks.
"""

from __future__ import annotations

import os
import uuid

import pyarrow.parquet as pq

_CONFIGURED = False


def configure_context() -> None:
    """Engine-wide Ray Data execution config (idempotent).

    ``op_resource_reservation_enabled=False``: the streaming executor's
    default resource reservation holds back ~half the CPU slots from a
    map stage whenever an all-to-all (sort/shuffle) is downstream —
    measured 2.1× end-to-end slowdown on the flagship pipeline (map
    stage ran 16 tasks at effective concurrency 3 on 8 CPUs).  Our
    pipelines pre-combine before every shuffle, blocks are bounded
    (~50 MB), and the object store spills, so the starvation scenario
    the reservation guards against does not apply.

    Flip side: with reservation off, an actor pool that reserves CPUs
    can hold every CPU the upstream read needs, and the read never runs
    (two chained ``concurrency=2`` pools on a 4-CPU session, one on 2
    CPUs).  Broadcast-lookup pools (store decode, entity linking,
    prefix expansion) therefore reserve no CPU (``num_cpus=0``): they
    are lookups against a shipped table, not a share of the cluster.
    So do the hash-shuffle aggregators of every ``Dataset.join``
    (``aggregator_ray_remote_args``): while idle they held both CPUs of
    a 2-CPU session and the join's inputs never ran.
    """
    global _CONFIGURED
    if _CONFIGURED:
        return
    try:
        from ray.data import DataContext

        DataContext.get_current().op_resource_reservation_enabled = False
        _CONFIGURED = True
    except Exception:  # pragma: no cover
        pass


def publish(path: str, data: bytes) -> None:
    """Atomically put ``data`` at ``path``: write a temp file unique to
    this call in the same directory, then ``os.replace`` it onto
    ``path``.  Readers see the old file or the whole new one; concurrent
    writers of one path each rename a whole file and the last one wins
    (a fixed temp name would let one rename another's file away)."""
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{uuid.uuid4().hex}"
    )
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _cluster_cpus() -> int:
    """CPU count of the live Ray cluster; before ``ray.init``, this
    process's CPU affinity: what a default ``ray.init()`` detects on a
    host without a CPU quota."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    return cpus or len(os.sched_getaffinity(0))


def target_blocks() -> int:
    """2 blocks per cluster CPU: enough for the streaming executor to
    keep every core busy, no more (each extra block is a map task, a
    row and a column of the sort grid, and a writer task)."""
    return 2 * _cluster_cpus()


def shuffle_partitions() -> int:
    """Partition count for hash-join / label-propagation exchanges,
    derived from the live cluster instead of a hardcoded constant:
    ~CPUs/4 (each hash-shuffle partition is an actor; keeping pools well
    inside the CPU budget avoids the chained-pool deadlock described in
    :func:`configure_context`), floor 2, cap 32 per node-equivalent.  On
    a real multi-node cluster the CPU count scales with nodes, so this
    grows with the cluster automatically."""
    return max(2, min(32, _cluster_cpus() // 4))


def read_table(sf_dir: str, name: str, columns: list[str] | None = None):
    """``read_parquet`` of one table, split into enough blocks to
    parallelize (see module docstring).  ``columns`` prunes at the read
    so only needed columns leave storage.

    Layouts: ``{sf_dir}/{name}.parquet`` (single file — the driver's
    testdata) or ``{sf_dir}/{name}/`` (directory of shards — the
    production 100 TB layout; shards already give one block per
    fragment, so no override is applied there).
    """
    import ray.data as rd

    configure_context()
    path = f"{sf_dir}/{name}.parquet"
    if not os.path.exists(path) and os.path.isdir(f"{sf_dir}/{name}"):
        path = f"{sf_dir}/{name}"
    kwargs: dict = {}
    if columns is not None:
        kwargs["columns"] = list(columns)
    if not os.path.isdir(path):
        tgt = target_blocks()
        try:
            meta = pq.ParquetFile(path).metadata
            if meta.num_row_groups < tgt:
                # floor of ~256 rows/block: splitting finer than that
                # trades useful parallelism for per-task dispatch overhead
                kwargs["override_num_blocks"] = min(tgt, max(1, meta.num_rows // 256))
        except Exception:
            pass  # non-local path (s3://...) — trust native fragment splits
    return rd.read_parquet(path, **kwargs)
