"""Distributed prefix sum.

``running_total`` is a two-pass distributed cumulative sum — the
primitive behind concat-and-chunk sample packing, global row numbering
and byte-offset assignment.  Scale shape: ONE sort exchange, then a
per-block partial-sum pass whose manifest (one row per block) is the
only thing the driver sees; block offsets broadcast back into a final
vectorized pass.  No step moves more than (blocks) rows through the
driver, so the operator is as scalable as the sort itself.

The per-block offset keying relies on ``order_col`` being unique per
row — duplicate block minima raise rather than mis-assign.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.grouping import exchange


def running_total(ds, order_col: str, value_col: str, out_col: str = "running_total"):
    """Append ``out_col`` = inclusive cumulative sum of ``value_col``
    in ``order_col`` order.  Returns the sorted Dataset with the new
    column; ``order_col`` values must be unique."""
    from ..io import configure_context

    configure_context()

    def block_cumsum(batch: pa.Table) -> pa.Table:
        vals = np.asarray(
            pc.cast(batch[value_col], pa.int64()).combine_chunks(),
            dtype=np.int64,
        )
        return batch.append_column(out_col, pa.array(np.cumsum(vals), pa.int64()))

    # materialized: the offset pass below keys on these exact blocks
    ds = exchange(ds, order_col, block_cumsum, batch_format="pyarrow").materialize()

    def block_stats(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"_min_order": batch[order_col],
                             "_sum": pa.array([], pa.int64())})
        # native-typed min: the driver sort below must use the same
        # ordering the distributed sort used (NOT a lexical cast)
        key = pc.min(batch[order_col])
        total = batch[out_col][batch.num_rows - 1].as_py()
        return pa.table({"_min_order": pa.array([key.as_py()], batch[order_col].type),
                         "_sum": pa.array([total], pa.int64())})

    # one row per block — small by construction
    stats = ds.map_batches(
        block_stats, batch_format="pyarrow", batch_size=None
    ).take_all()
    stats.sort(key=lambda r: r["_min_order"])
    offsets: dict[str, int] = {}
    acc = 0
    for r in stats:
        if r["_min_order"] in offsets:
            raise ValueError(
                f"duplicate {order_col!r} across blocks: {r['_min_order']!r}"
            )
        offsets[r["_min_order"]] = acc
        acc += r["_sum"]

    def add_offset(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        key = pc.min(batch[order_col]).as_py()
        i = batch.schema.get_field_index(out_col)
        return batch.set_column(
            i, out_col, pc.add(batch[out_col], pa.scalar(offsets[key], pa.int64()))
        )

    return ds.map_batches(add_offset, batch_format="pyarrow", batch_size=None)


