"""The block → part-file rule every directory sink shares.

A writer turns each block of a triples Dataset into one file named
``part-<md5[:16]><ext>`` after its bytes, published atomically
(:func:`argo_ray.io.publish`): a rerun overwrites identical files
instead of duplicating them (resumable-output pattern).  It returns one
(path, rows) manifest row per file, ``rows`` counting triples, and
writes nothing for an empty block.  A format's writer subclasses
:class:`PartWriter` in its own sink module, giving the extension and
``render``; ``prefixes`` (namespace URI → prefix) is there for the
formats that compact IRIs.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa

from ..io import publish
from ..stages.grouping import exchange

MANIFEST = pa.schema([("path", pa.string()), ("rows", pa.int64())])


class PartWriter:
    """``map_batches`` UDF: one block → one part file → one manifest row."""

    ext = ""

    def __init__(self, out_dir: str, prefixes: dict[str, str] | None = None):
        self.out_dir = out_dir
        self.prefixes = prefixes or {}
        os.makedirs(out_dir, exist_ok=True)

    def render(self, block: pa.Table) -> bytes:
        """The whole block as one document of the format."""
        raise NotImplementedError

    def __call__(self, block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            # empty (often column-less) block, e.g. an empty sort partition
            return MANIFEST.empty_table()
        data = self.render(block)
        name = hashlib.md5(data).hexdigest()[:16]
        path = os.path.join(self.out_dir, f"part-{name}{self.ext}")
        publish(path, data)
        return pa.table([[path], [block.num_rows]], schema=MANIFEST)


def write_parts(ds, writer: PartWriter, key: str | None = None):
    """Run ``writer`` over every block of ``ds`` and return the manifest
    as a pandas frame.  With ``key``, one exchange first co-locates
    each key's rows in one block (a grouping format renders a subject
    whole); without, the blocks are written as they come."""
    if key is None:
        out = ds.map_batches(writer, batch_format="pyarrow")
    else:
        out = exchange(ds, key, writer, batch_format="pyarrow")
    return out.materialize().to_pandas()
