"""Materialization stages: exact dedup, salted subject keys
(SURVEY.md §2.6 A1/A4, §4 skew design).

Shuffle strategy
----------------
- **Exact dedup** keys on ``triple_hash`` = one row hash of the 12
  term columns (:func:`append_triple_hash`).  Identical triples always
  collide; distinct triples spread uniformly, so the dedup shuffle is
  *skew-proof* even when one subject (the hub entity) appears in every
  page — hot **subjects** do not produce hot **triples**.
- **Subject grouping** (needed only by the grouping serializers: Turtle
  K4, RDF/XML K2, RDF/JSON K3, JSON-LD, TriG; ``sinks/parts.py``) keys
  on ``subject_hash``, for Turtle with optional salting:
  ``salted = subject_hash * S + url_hash % S``.  Repeated
  subject blocks are valid Turtle/NT output (set semantics, SURVEY.md
  §2.6 A1), so per-salt rendering needs no second-pass merge.
- N-Triples output (K1) needs **no** grouping at all — it stays a
  streaming ``map_batches``.

A per-batch combiner (within-batch drop-duplicates) runs before the
dedup shuffle to cut exchange volume (pre-aggregation pattern).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..terms import TRIPLE_COLUMNS, cast_triple_schema, hash64
from .grouping import exchange, sorted_unique

DEDUP_KEY = "triple_hash"


def append_triple_hash(batch: pa.Table) -> pa.Table:
    """Append ``triple_hash``: polars' row hash of the 12 term columns,
    a transient key with :func:`~argo_ray.terms.hash64`'s contract
    (stable within one environment; never persisted).  The columns are
    pinned to one schema first, so equal rows get equal keys whatever
    block they arrive in; a collision only costs ``sorted_unique`` its
    exact fallback.  There is no non-polars fallback: one on some
    workers only would give equal rows different keys.  No line is
    rendered here — the N-Triples writer renders each line once."""
    import polars as pl

    h = pl.from_arrow(cast_triple_schema(batch)).hash_rows().to_arrow()
    if DEDUP_KEY in batch.column_names:
        batch = batch.drop_columns([DEDUP_KEY])
    return batch.append_column(DEDUP_KEY, h)


def _dedup_within_batch(batch: pa.Table) -> pa.Table:
    # Combiner: drop duplicates inside one batch before the shuffle.
    # subject_hash is a function of the subject columns, so grouping by
    # every physical column equals distinct-on-TRIPLE_COLUMNS — lets us
    # use Arrow's native hash-group kernel (no pandas round-trip).
    if set(batch.column_names) <= set(TRIPLE_COLUMNS) | {"subject_hash"}:
        out = batch.group_by(batch.column_names, use_threads=False).aggregate([])
        return out.select(batch.column_names).cast(batch.schema)
    df = batch.to_pandas()
    df = df.drop_duplicates(subset=TRIPLE_COLUMNS, keep="first")
    return pa.Table.from_pandas(df, preserve_index=False).cast(batch.schema)


def dedup_exact(ds, keep_provenance: bool = False):
    """Distinct triples (operator A4 — absent in the reference, which
    appends duplicates unconditionally: liststore.go:37-39).

    ``keep_provenance=False`` drops the ``url`` column first so identical
    assertions from different pages collapse (matches ``SELECT
    DISTINCT`` over the 12 term columns); ``True`` keeps the smallest
    url per triple (MIN — deterministic, unlike "first seen", so the
    relational oracle can reproduce it).

    Shuffle shape: sort on ``triple_hash`` (uniform 64-bit → skew-proof
    range partition; equal triples always co-locate in one block) then a
    single vectorized per-block pass — no per-group dispatch.
    """

    if not keep_provenance:
        ds = ds.map_batches(
            lambda b: b.drop_columns([c for c in ("url",) if c in b.column_names]),
            batch_format="pyarrow",
        )
        ds = ds.map_batches(_dedup_within_batch, batch_format="pyarrow")
        ds = ds.map_batches(append_triple_hash, batch_format="pyarrow")
        return sorted_unique(ds, TRIPLE_COLUMNS, DEDUP_KEY)

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keys = [c for c in batch.column_names if c != "url"]
        out = df.groupby(keys, sort=False, dropna=False)["url"].min().reset_index()
        out = out[batch.column_names]
        return pa.Table.from_pandas(out, preserve_index=False).cast(batch.schema)

    ds = ds.map_batches(combine, batch_format="pyarrow")
    ds = ds.map_batches(append_triple_hash, batch_format="pyarrow")

    def min_url_block(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return batch
        keys = [c for c in batch.column_names if c != "url"]
        out = df.groupby(keys, sort=False, dropna=False)["url"].min().reset_index()
        out = out[batch.column_names]
        return pa.Table.from_pandas(out, preserve_index=False).cast(batch.schema)

    return exchange(ds, DEDUP_KEY, min_url_block, batch_format="pyarrow")


def distinct_rows(ds, cols: list[str]):
    """Generic distinct over ``cols``: within-batch combiner, then a
    uniform hash-key sort shuffle with collision-safe per-block dedup."""

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.select(cols).to_pandas().drop_duplicates(keep="first")
        return pa.Table.from_pandas(df, preserve_index=False)

    def key(batch: pa.Table) -> pa.Table:
        joined = None
        for c in cols:
            arr = pc.cast(batch[c], pa.large_string())
            joined = (
                arr
                if joined is None
                else pc.binary_join_element_wise(
                    joined, arr, pa.scalar("\x1f", pa.large_string())
                )
            )
        return batch.append_column("__row_hash", hash64(joined))

    ds = ds.map_batches(combine, batch_format="pyarrow")
    ds = ds.map_batches(key, batch_format="pyarrow")
    out = sorted_unique(ds, cols, "__row_hash")
    return out.map_batches(
        lambda b: b.drop_columns(["__row_hash"]), batch_format="pyarrow"
    )


def salted_subject_key(batch: pa.Table, num_salts: int = 16) -> pa.Table:
    """Add ``subject_salted`` = subject_hash * S + salt — spreads a hot
    subject over S reducers (SURVEY.md §4 skew design).  Salt source:
    the provenance url when present, else the triple hash (both spread a
    hot subject's rows; duplicates of one triple still co-locate)."""
    if "url" in batch.column_names:
        salt_h = hash64(pc.cast(batch["url"], pa.large_string()))
    elif DEDUP_KEY in batch.column_names:
        salt_h = batch[DEDUP_KEY]
    else:
        salt_h = hash64(pc.cast(batch["obj_value"], pa.large_string()))
    # modulo, not bit-mask: a mask only spreads uniformly for
    # power-of-two salt counts (num_salts=10 with mask 0b1001 would use
    # only salts {0,1,8,9} — code-review r2).  No modulo kernel in this
    # pyarrow → one numpy op (zero-copy in, uint64 out)
    import numpy as np

    if isinstance(salt_h, pa.ChunkedArray):
        salt_h = salt_h.combine_chunks()
    salt_np = np.asarray(salt_h) % np.uint64(num_salts)
    salt = pa.array(salt_np, pa.uint64())
    key = pc.add(
        pc.multiply(batch["subject_hash"], pa.scalar(num_salts, pa.uint64())), salt
    )
    return batch.append_column("subject_salted", key)
