"""KG-embedding training prep: dictionary-encode the graph into
contiguous integer ids and export (head, relation, tail) edge triples
— the input layout TransE-family trainers expect.

Ids are **dense 0-based ranks in sorted term order**, not hashes, so
the assignment is reproducible relationally (``ROW_NUMBER() OVER
(ORDER BY term) - 1`` in the oracle) and the id space is exactly
[0, n) for embedding-table sizing.

Scale shape: the dictionaries are built with one distinct exchange +
one sort (``running_total``'s block-manifest pass moves one row per
block through the driver); the triple mapping is three exchange
lookup joins keyed on term strings — uniform keys, since dictionary
terms are distinct by construction.  NOT ``Dataset.join``: on this Ray
version a hash join's empty output partitions forward schema-less
blocks and a downstream (chained) join's finalize rejects them with
"No match or multiple matches for key" — observed live at sf0.1,
where the three-join chain failed while sf0.01 passed (the same
fragility class the graph module documents).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.grouping import exchange
from ..terms import KIND_LITERAL
from .packing import running_total


def dense_rank_ids(ds, col: str, out_col: str = "id"):
    """(term) rows → (term, id) with id = 0-based rank in sorted term
    order.  Input must be distinct on ``col``."""

    def ones(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                col: pc.cast(b[col], pa.string()),
                "_one": pa.array([1] * b.num_rows, pa.int64()),
            }
        )

    out = running_total(
        ds.map_batches(ones, batch_format="pyarrow"), col, "_one", out_col="_cum"
    )

    def fin(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                col: pc.cast(b[col], pa.string()),
                out_col: pc.subtract(
                    pc.cast(b["_cum"], pa.int64()), pa.scalar(1, pa.int64())
                ),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def _lookup_join(ds, key: str, ids_ds, out_col: str):
    """Inner-join ``ds`` against the (term, id) dictionary on ``key``
    via an exchange: id rows union into the stream, ONE exchange by
    key groups each key's id row with its data rows, and a
    vectorized in-block pandas merge attaches the id — the same
    exchange volume as a hash join, none of its empty-partition
    fragility."""
    import pandas as pd

    schema = ds.schema()

    def _arrow_type(t):
        # upstream plans may report a PandasBlockSchema (numpy dtypes)
        if isinstance(t, pa.DataType):
            return t
        import numpy as np

        dt = np.dtype(t)
        return pa.string() if dt == np.dtype("O") else pa.from_numpy_dtype(dt)

    col_types = {n: _arrow_type(t) for n, t in zip(schema.names, schema.types)}

    def fixed_type(c):
        # string keys sort-exchange as plain string; other payloads
        # (e.g. ids attached by an earlier lookup) keep their type
        t = col_types[c]
        return pa.string() if pa.types.is_string(t) or pa.types.is_large_string(t) else t

    def tag_ids(b: pa.Table) -> pa.Table:
        cols = {}
        for c in schema.names:
            if c == key:
                cols[c] = pc.cast(b["term"], pa.string())
            else:
                cols[c] = pa.nulls(b.num_rows, fixed_type(c))
        cols[out_col] = pc.cast(b["id"], pa.int64())
        return pa.table(cols)

    def tag_data(b: pa.Table) -> pa.Table:
        cols = {c: pc.cast(b[c], fixed_type(c)) for c in schema.names}
        cols[out_col] = pa.nulls(b.num_rows, pa.int64())
        return pa.table(cols)

    unioned = ds.map_batches(tag_data, batch_format="pyarrow").union(
        ids_ds.map_batches(tag_ids, batch_format="pyarrow")
    )

    def merge_block(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        is_id = df[out_col].notna()
        v = df.loc[is_id, [key, out_col]]
        e = df.loc[~is_id, [c for c in df.columns if c != out_col]]
        if len(v) == 0 or len(e) == 0:
            return df.head(0)
        m = e.merge(v, on=key, how="inner")
        m[out_col] = m[out_col].astype("int64")
        return m

    return exchange(unioned, key, merge_block, batch_format="pandas")


def triples_to_id_edges(triples_ds):
    """Non-literal triples → (h_id, r_id, t_id) rows under dense ids.

    Entities = distinct subject terms plus non-literal object terms;
    relations = distinct predicates of the edge triples.  Attribute
    (literal-object) triples are excluded, as in standard KG-embedding
    corpora."""
    from ..stages.materialize import distinct_rows

    def edge_proj(b: pa.Table) -> pa.Table:
        m = pc.not_equal(
            pc.cast(b["obj_kind"], pa.int64()), pa.scalar(KIND_LITERAL, pa.int64())
        )
        f = b.filter(m)
        return pa.table(
            {
                "subj_value": pc.cast(f["subj_value"], pa.string()),
                "pred_value": pc.cast(f["pred_value"], pa.string()),
                "obj_value": pc.cast(f["obj_value"], pa.string()),
            }
        )

    edges = triples_ds.map_batches(edge_proj, batch_format="pyarrow")

    def ent_scatter(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "term": pa.concat_arrays(
                    [
                        pc.cast(b["subj_value"], pa.string()).combine_chunks(),
                        pc.cast(b["obj_value"], pa.string()).combine_chunks(),
                    ]
                )
            }
        )

    ents = distinct_rows(
        edges.map_batches(ent_scatter, batch_format="pyarrow"), ["term"]
    )
    rels = distinct_rows(
        edges.map_batches(
            lambda b: pa.table({"term": pc.cast(b["pred_value"], pa.string())}),
            batch_format="pyarrow",
        ),
        ["term"],
    )
    ent_ids = dense_rank_ids(ents, "term")
    rel_ids = dense_rank_ids(rels, "term")

    out = _lookup_join(edges, "subj_value", ent_ids, "h_id")
    out = _lookup_join(out, "pred_value", rel_ids, "r_id")
    out = _lookup_join(out, "obj_value", ent_ids, "t_id")
    return out.map_batches(
        lambda b: pa.table(
            {
                # earlier-attached ids transit later pandas merges as
                # float64 (nullable int in the union blocks) — exact for
                # dense ids; pin the contract dtype here
                "h_id": pc.cast(b["h_id"], pa.int64()),
                "r_id": pc.cast(b["r_id"], pa.int64()),
                "t_id": pc.cast(b["t_id"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def edge_negatives(edges_ds):
    """TransE-style negative sampling: one corrupted tail per edge,
    ``neg_t = (t + 1 + k % (n-1)) % n`` with k = the first 8 md5 bytes
    of ``"h:r:t"`` — deterministic (reproducible across runs and in the
    DuckDB oracle via the hex-prefix-to-UBIGINT idiom), uniform over
    the other n-1 entities, and never equal to t.

    n is recovered as max(id)+1 (ids are dense and every entity occurs
    in some edge).  The count triggers one pass over the edge lineage;
    a production run would persist the edges first (checkpoint sink)
    and negative-sample from the persisted table.  Per-row hashlib md5
    is the oracle-parity mode, same trade as fingerprint_batch."""
    import hashlib

    import numpy as np
    from ray.data.aggregate import Max

    agg = edges_ds.aggregate(Max("h_id"), Max("t_id"))
    if not agg or agg.get("max(h_id)") is None or agg.get("max(t_id)") is None:
        raise ValueError("edge_negatives: empty edge set — nothing to corrupt")
    n = int(max(agg["max(h_id)"], agg["max(t_id)"])) + 1
    if n < 2:
        raise ValueError("need at least 2 entities to corrupt tails")

    def corrupt(b: pa.Table) -> pa.Table:
        h = b["h_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = b["r_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b["t_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.array(
            [
                int.from_bytes(
                    hashlib.md5(f"{a}:{b_}:{c}".encode()).digest()[:8], "big"
                )
                for a, b_, c in zip(h, r, t)
            ],
            dtype=np.uint64,
        )
        neg = (t + 1 + (k % np.uint64(n - 1)).astype(np.int64)) % n
        return pa.table(
            {
                "h_id": pa.array(h, pa.int64()),
                "r_id": pa.array(r, pa.int64()),
                "t_id": pa.array(t, pa.int64()),
                "neg_t_id": pa.array(neg, pa.int64()),
            }
        )

    return edges_ds.map_batches(corrupt, batch_format="pyarrow")
