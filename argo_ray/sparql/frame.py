"""In-process executor for the SPARQL engine.

``LocalFrame`` holds one ``pa.Table`` and implements exactly the slice
of the ``ray.data.Dataset`` API the engine calls, with Ray's semantics
except where noted, so every engine operator keeps ONE implementation
and runs on whichever executor fits the data:

- ``map_batches`` calls the function once on the whole table (one
  batch == one block, which also satisfies ``batch_size=None``
  callers that rely on sort co-location within a block), in the
  ``pyarrow`` batch format only.  Unlike Ray, it calls it on an empty
  table too, so an empty result keeps its typed columns;
- ``sort`` runs as an Arrow kernel.  There is no ``groupby`` or
  ``aggregate``: the engine's aggregates are its own Arrow block
  function run through ``stages.grouping.exchange``, the same on both
  tiers;
- every operation is eager: a failing function raises at the call,
  not at consumption.

Which queries run here is decided by the engine (``engine._executor``);
this module only executes.  A local-tier SELECT / CONSTRUCT / DESCRIBE
returns its ``LocalFrame`` as the result, so the frame also carries
the reads result consumers call: ``take_all``, ``to_pandas``,
``count``, ``schema`` and ``iter_batches`` (one pyarrow batch).
"""

from __future__ import annotations

import pyarrow as pa


class LocalFrame:
    """One ``pa.Table`` behind the ``Dataset`` methods the engine uses."""

    __slots__ = ("table",)

    def __init__(self, table: pa.Table):
        self.table = table

    def map_batches(self, fn, *, batch_format: str, batch_size=None) -> LocalFrame:
        if batch_format != "pyarrow":
            raise ValueError(f"unsupported batch_format {batch_format!r}")
        return LocalFrame(fn(self.table))

    def union(self, *others: LocalFrame) -> LocalFrame:
        return LocalFrame(
            pa.concat_tables(
                [self.table, *(o.table for o in others)],
                promote_options="permissive",
            )
        )

    def sort(self, key, descending=False) -> LocalFrame:
        keys = [key] if isinstance(key, str) else list(key)
        desc = (
            [descending] * len(keys)
            if isinstance(descending, bool)
            else list(descending)
        )
        return LocalFrame(
            self.table.sort_by(
                [(k, "descending" if d else "ascending") for k, d in zip(keys, desc)]
            )
        )

    def limit(self, n: int) -> LocalFrame:
        return LocalFrame(self.table.slice(0, n))

    def split_at_indices(self, indices: list[int]) -> list[LocalFrame]:
        bounds = [0, *indices, self.table.num_rows]
        return [
            LocalFrame(self.table.slice(a, max(b - a, 0)))
            for a, b in zip(bounds, bounds[1:])
        ]

    def count(self) -> int:
        return self.table.num_rows

    def materialize(self) -> LocalFrame:
        return self

    def take_all(self) -> list[dict]:
        return self.table.to_pylist()

    def to_pandas(self):
        return self.table.to_pandas()

    def columns(self) -> list[str]:
        return self.table.column_names

    def schema(self) -> pa.Schema:
        return self.table.schema

    def iter_batches(self, *, batch_format: str):
        if batch_format != "pyarrow":
            raise ValueError(f"unsupported batch_format {batch_format!r}")
        yield self.table
