"""The key exchange: every key-grouping shuffle in argo_ray goes through
:func:`exchange`.

``exchange(ds, keys, block_fn)`` is ``ds.sort(keys)`` followed by
``map_batches(block_fn, batch_size=None)``, so ``block_fn`` sees one
whole sorted block per call.  The callers rely on one property of that
sort: **rows with equal keys always land in the same output block.**
Ray's range partition cuts its boundaries with
``np.searchsorted(..., side="left")``
(``ray/data/_internal/util.py::find_partition_index``), so a boundary
falls before the first row of an equal-key run, never inside it, and
each reduce partition emits one merged block.  A block function can
therefore finish every group it holds in-process (a pandas groupby, an
adjacent-row mask, a merge of value rows onto edge rows) with no
per-group task dispatch: ``groupby(k).map_groups(fn)`` re-enters Ray's
batching machinery once per group, tens of seconds at ~30k groups.

That property is internal Ray behaviour, not API.  It is verified on
the versions in ``_VERIFIED_RAY``; the first :func:`exchange` of a
process warns on any other version.  After an upgrade run
``tests/test_stages.py::test_sort_colocation_pinned`` (or
:func:`verify_sorted_colocation`), or arm the runtime canary with
``exchange(..., verify=True)``.

Null keys form one group of their own (``dropna=False`` in every
in-block groupby here), as in Ray's ``groupby().aggregate()``.  On Ray
2.49 that holds for numeric keys (nulls sort last); a *string* key
column holding nulls makes Ray's range partition raise ``TypeError``
(it compares ``None`` with a string boundary).  Ray skips the block function on an empty block and passes a column-less
block on, so an exchange over empty partitions can still yield empty
blocks with no schema.
"""

from __future__ import annotations

import warnings

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_VERIFIED_RAY = ("2.49",)
_pin_checked = False


def _check_ray_version() -> None:
    import ray

    if not any(ray.__version__.startswith(v) for v in _VERIFIED_RAY):
        warnings.warn(
            f"argo_ray.stages.grouping relies on Ray sort emitting whole "
            f"key runs per block — verified on Ray {_VERIFIED_RAY}, "
            f"running {ray.__version__}. Run "
            f"tests/test_stages.py::test_sort_colocation_pinned (or "
            f"verify_sorted_colocation) before trusting grouped results.",
            RuntimeWarning,
            stacklevel=3,
        )


def exchange(
    ds,
    keys,
    block_fn,
    *,
    batch_format: str,
    descending=False,
    verify: bool = False,
    verify_blocks: int | None = None,
    **map_batches_kwargs,
):
    """Co-locate every key of ``keys`` in one block, then run
    ``block_fn`` once per whole block: ``ds.sort(keys, descending)`` →
    ``map_batches(block_fn, batch_format, batch_size=None, **kw)``.
    Works on a Ray ``Dataset`` and on ``sparql.frame.LocalFrame``.
    Block order follows the sort, so an ORDER BY that also needs whole
    key runs (SELECT DISTINCT … ORDER BY) can use it too.

    ``block_fn`` reaches ``map_batches`` unwrapped, so traces attribute
    its work to the caller's function.  ``verify=True`` is the
    exception: it wraps a block *function* (not a callable class) in
    the boundary canary — each block reports its first and last key to
    a zero-CPU registry actor and raises if another block with
    different content already claimed one of them, i.e. if Ray's sort
    stopped emitting whole key runs per block.  One tiny actor round
    trip per block; ``verify_blocks=N`` samples only the first N
    blocks.  Task retries re-register idempotently (same content
    token); a re-execution of the whole plan could legally re-sort into
    another layout, so the verified result is returned materialized and
    executes exactly once."""
    global _pin_checked
    if not _pin_checked:
        _pin_checked = True
        _check_ray_version()
    fn = block_fn
    if verify:
        fn = _boundary_checked(block_fn, keys, verify_blocks)
    out = ds.sort(keys, descending=descending).map_batches(
        fn, batch_format=batch_format, batch_size=None, **map_batches_kwargs
    )
    if verify:
        out = out.materialize()
    return out


def verify_sorted_colocation(ds, key: str) -> None:
    """Execute an exchange on ``key`` and assert no equal-key run spans
    a block boundary (first key of block N+1 != last key of block N).
    Cheap — one row per block leaves the cluster.  Raises
    ``RuntimeError`` on violation.  Used by the pinned-behavior test;
    call it in CI after a Ray upgrade."""

    def boundary_keys(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"first": pa.array([], pa.string()),
                             "last": pa.array([], pa.string())})
        col = batch[key]
        return pa.table({
            "first": pa.array([str(col[0].as_py())]),
            "last": pa.array([str(col[batch.num_rows - 1].as_py())]),
        })

    rows = exchange(ds, key, boundary_keys, batch_format="pyarrow").take_all()
    for prev, cur in zip(rows, rows[1:]):
        if prev["last"] == cur["first"]:
            raise RuntimeError(
                f"sort co-location contract violated: key {cur['first']!r} "
                f"spans a block boundary (Ray sort behavior changed) — "
                f"exchange results are NOT trustworthy"
            )


class _BoundaryRegistry:
    """Zero-CPU actor behind ``exchange(verify=True)``: every block
    registers its boundary keys with a TOKEN identifying the block's
    content; a key surfacing from two blocks with DIFFERENT tokens
    means an equal-key run spans a block boundary — the contract is
    broken and the second block raises, failing the job instead of
    silently corrupting grouped output.  A key re-registered with the
    SAME token is idempotent: Ray re-executes blocks routinely (a lazy
    result consumed twice, task retry after a worker crash, lineage
    reconstruction) and a retry must not read as a violation.
    Limitation: two blocks that split one key AND carry byte-identical
    content would collide tokens and go undetected — this is a canary,
    not a proof.  ``limit`` bounds the sampled block count (first N
    distinct tokens)."""

    def __init__(self, limit: int | None = None):
        self._seen: dict[str, str] = {}  # boundary key -> block token
        self._tokens: set[str] = set()
        self._limit = limit

    def register(self, boundary_keys: list[str], token: str) -> list[str]:
        if self._limit is not None and token not in self._tokens:
            if len(self._tokens) >= self._limit:
                return []
        self._tokens.add(token)
        clashes = [
            k for k in boundary_keys if self._seen.get(k, token) != token
        ]
        for k in boundary_keys:
            self._seen.setdefault(k, token)
        return clashes


def _boundary_checked(block_fn, keys, verify_blocks):
    """``block_fn`` behind the ``exchange(verify=True)`` canary."""
    import ray

    keys = [keys] if isinstance(keys, str) else list(keys)
    registry = (
        ray.remote(num_cpus=0)(_BoundaryRegistry).remote(limit=verify_blocks)
    )

    def check_boundaries(batch) -> None:
        import ray

        df = batch if isinstance(batch, pd.DataFrame) else batch.to_pandas()
        if len(df) == 0:
            return
        first = str(tuple(df.iloc[0][k] for k in keys))
        last = str(tuple(df.iloc[-1][k] for k in keys))
        # deterministic per logical block, stable across re-executions:
        # boundary keys + row count + an order-insensitive content hash
        content = int(pd.util.hash_pandas_object(df, index=False).sum())
        token = f"{first}|{last}|{len(df)}|{content}"
        clashes = ray.get(registry.register.remote(list({first, last}), token))
        if clashes:
            raise RuntimeError(
                f"sort co-location contract violated: boundary key(s) "
                f"{clashes!r} appear in more than one block (Ray sort "
                f"behavior changed) — exchange results are NOT "
                f"trustworthy on this Ray version"
            )

    def checked_block(batch):
        check_boundaries(batch)
        return block_fn(batch)

    return checked_block


def grouped_map(
    ds,
    keys,
    fn,
    batch_format: str = "pandas",
    verify: bool = False,
    verify_blocks: int | None = None,
):
    """Semantics of ``groupby(keys).map_groups(fn)`` (each call of ``fn``
    sees ALL rows of one key, key columns included; returns any frame)
    as one :func:`exchange` plus an in-block pandas groupby.

    ``batch_format`` is the format handed to ``fn`` ("pandas" or
    "pyarrow" per-group tables); ``verify`` / ``verify_blocks`` arm
    :func:`exchange`'s canary."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def apply_block(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            try:
                out = fn(df if batch_format == "pandas" else pa.Table.from_pandas(df))
                return out if isinstance(out, pd.DataFrame) else out.to_pandas()
            except Exception:
                return pd.DataFrame()
        parts = []
        for _, g in df.groupby(keys, sort=False, dropna=False, observed=True):
            out = fn(g if batch_format == "pandas" else pa.Table.from_pandas(g))
            if not isinstance(out, pd.DataFrame):
                out = out.to_pandas()
            parts.append(out)
        parts = [p for p in parts if len(p)]
        if not parts:
            return pd.DataFrame()
        return pd.concat(parts, ignore_index=True)

    return exchange(
        ds, keys, apply_block, batch_format="pandas",
        verify=verify, verify_blocks=verify_blocks,
    )


def sorted_unique(ds, subset: list[str], key: str):
    """Global drop-duplicates over ``subset``, keyed by ``key`` — a
    uniform hash of the subset, or the subset's one column (equal rows ⇒
    equal key ⇒ same block), then one vectorized per-block pass.

    Within a block, identical rows sit adjacent (they share the sort
    key), so dedup is an adjacent-row equality mask — pure Arrow
    kernels, no pandas.  A 64-bit hash collision could interleave two
    distinct rows inside one key run and break adjacency; the mask
    detects that case (adjacent same-key-different-content) and falls
    back to an exact pandas dedup for that block.
    """
    import numpy as np

    def dedup_block(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n <= 1:
            return batch
        batch = batch.combine_chunks()
        kv = batch[key].to_numpy(zero_copy_only=False)
        same_key = kv[1:] == kv[:-1]
        if not same_key.any():
            return batch
        same_row = None
        for c in subset:
            col = batch.column(c).chunk(0)
            eq = pc.equal(col.slice(1), col.slice(0, n - 1))
            same_row = eq if same_row is None else pc.and_(same_row, eq)
        same_row = same_row.to_numpy(zero_copy_only=False)
        if bool((same_key & ~same_row).any()):
            # hash collision inside a key run — exact fallback
            df = batch.to_pandas().drop_duplicates(subset=subset, keep="first")
            return pa.Table.from_pandas(df, preserve_index=False).cast(batch.schema)
        keep = np.ones(n, dtype=bool)
        keep[1:] = ~same_row
        return batch.filter(pa.array(keep))

    return exchange(ds, key, dedup_block, batch_format="pyarrow")


def sorted_multi_agg(ds, sort_key: str, key_cols, specs):
    """General grouped aggregate as ONE :func:`exchange` + in-block
    pandas agg: ``key_cols`` is a list of ``(name, pa_type)`` — the
    first shared key ``sort_key`` co-locates every composite group —
    and ``specs`` a list of ``(src_col, how, out_col, pa_type)``.
    Replaces ``groupby().aggregate(...)`` where group cardinality is
    unbounded (nodes, subjects, fingerprints): Ray Data's Aggregate
    measured ~27× slower at millions-of-groups scale (15.0 s → 0.56 s
    on a 2.9M-row / 1.19M-group count exchange, BASELINE.md round 5)."""
    schema = pa.schema(
        [(n, t) for n, t in key_cols] + [(o, t) for _, _, o, t in specs]
    )
    names = [n for n, _ in key_cols]

    def block(df):
        if len(df) == 0 or sort_key not in df.columns:
            return schema.empty_table()
        # min/max over object columns mixing None and str raise in
        # pandas; StringDtype reduces with NA-skipping semantics
        str_vals = {s for s, _, _, t in specs if t == pa.string()}
        if str_vals:
            df = df.copy()
            for c in str_vals:
                df[c] = df[c].astype("string")
        g = (
            df.groupby(names, sort=False, dropna=False)
            .agg(**{o: (s, h) for s, h, o, _ in specs})
            .reset_index()
        )
        def as_str(col):
            # NaN (an all-null group under a skipna agg) → Arrow null
            col = col.astype(object)
            return pa.array(col.where(col.notna(), None), pa.string())

        cols = {}
        for n, t in key_cols:
            # Array.from_pandas maps NaN → Arrow null, so an all-null
            # group under a skipna agg casts cleanly instead of
            # failing the float→int cast
            cols[n] = (
                as_str(g[n]) if t == pa.string()
                else pc.cast(pa.Array.from_pandas(g[n]), t)
            )
        for _, _, o, t in specs:
            cols[o] = (
                as_str(g[o]) if t == pa.string()
                else pc.cast(pa.Array.from_pandas(g[o]), t)
            )
        return pa.table(cols)

    return exchange(ds, sort_key, block, batch_format="pandas")
