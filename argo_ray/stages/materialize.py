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


def graph_delta(old_ds, new_ds):
    """Snapshot diff between two triple sets — the KG-maintenance
    primitive (recrawl vs previous build): rows of ``op`` ('add' |
    'del') + the 12 term columns.  No reference counterpart (the
    reference has no notion of graph versions); semantics are the two
    SQL EXCEPTs over the distinct sets.

    ONE exchange: both sides project to the term columns with a side
    tag, union, sort on the skew-proof ``triple_hash`` (identical
    triples of both sides co-locate in one block), then a vectorized
    per-block groupby emits triples present on exactly one side.
    Within-batch combiners dedup each side before the shuffle."""

    def prep(tag: int):
        def fn(b: pa.Table) -> pa.Table:
            out = b.select(TRIPLE_COLUMNS)
            out = _dedup_within_batch(out)
            out = append_triple_hash(out)
            return out.append_column("_side", pa.array([tag] * out.num_rows, pa.int64()))

        return fn

    both = old_ds.map_batches(prep(1), batch_format="pyarrow").union(
        new_ds.map_batches(prep(2), batch_format="pyarrow")
    )

    def diff_block(df):
        import pandas as pd

        cols = ["op"] + list(TRIPLE_COLUMNS)
        if df.empty:
            return pd.DataFrame(
                {
                    c: pd.Series(
                        [], dtype="int64" if c.endswith("_kind") else "object"
                    )
                    for c in cols
                }
            )
        g = (
            df.groupby(list(TRIPLE_COLUMNS), sort=False, dropna=False)["_side"]
            .agg(["min", "max"])
            .reset_index()
        )
        only_old = g[(g["min"] == 1) & (g["max"] == 1)].copy()
        only_new = g[(g["min"] == 2) & (g["max"] == 2)].copy()
        only_old["op"] = "del"
        only_new["op"] = "add"
        out = pd.concat([only_old, only_new], ignore_index=True)
        return out[cols]

    return exchange(both, DEDUP_KEY, diff_block, batch_format="pandas")


def apply_delta(base_ds, delta_ds):
    """Apply a :func:`graph_delta` result to a base triple set: 'del'
    rows drop their matching triples, 'add' rows append.  Same
    ONE-exchange shape as the diff itself — base rows tag 0, delta
    rows tag 1 (del) / 2 (add), union, triple-hash sort co-locates a
    triple's every row, then a vectorized per-block resolution keeps
    (base and not deleted) or added triples."""

    def prep_base(b: pa.Table) -> pa.Table:
        out = b.select(TRIPLE_COLUMNS)
        out = _dedup_within_batch(out)
        out = append_triple_hash(out)
        return out.append_column(
            "_dtag", pa.array([0] * out.num_rows, pa.int64())
        )

    def prep_delta(b: pa.Table) -> pa.Table:
        tag = pc.if_else(
            pc.equal(pc.cast(b["op"], pa.string()), pa.scalar("del")),
            pa.scalar(1, pa.int64()),
            pa.scalar(2, pa.int64()),
        )
        out = b.select(TRIPLE_COLUMNS)
        out = append_triple_hash(out)
        return out.append_column("_dtag", pc.cast(tag, pa.int64()))

    both = base_ds.map_batches(prep_base, batch_format="pyarrow").union(
        delta_ds.map_batches(prep_delta, batch_format="pyarrow")
    )

    def resolve_block(df):
        import pandas as pd

        if df.empty:
            return pd.DataFrame(
                {
                    c: pd.Series(
                        [], dtype="int64" if c.endswith("_kind") else "object"
                    )
                    for c in TRIPLE_COLUMNS
                }
            )
        df = df.assign(
            _base=df["_dtag"] == 0,
            _del=df["_dtag"] == 1,
            _add=df["_dtag"] == 2,
        )
        g = (
            df.groupby(list(TRIPLE_COLUMNS), sort=False, dropna=False)[
                ["_base", "_del", "_add"]
            ]
            .max()
            .reset_index()
        )
        keep = (g["_base"] & ~g["_del"]) | g["_add"]
        return g.loc[keep, list(TRIPLE_COLUMNS)]

    return exchange(both, DEDUP_KEY, resolve_block, batch_format="pandas")
