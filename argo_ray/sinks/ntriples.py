"""N-Triples serializer (operator K1) — canonical output form.

One line per triple via the canonical term rendering
(``/root/reference/ntriples.go:494-505``, ``term.go:93-110``,
``triple.go:43-60``).  Fully vectorized: the per-batch body is pyarrow
compute kernels only (no Python row loop).
"""

from __future__ import annotations

import gzip

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..terms import nt_render_lines
from .parts import PartWriter, write_parts


def to_nt_lines_batch(batch: pa.Table, keep_url: bool = False) -> pa.Table:
    """``map_batches`` UDF: flattened triples → one ``line`` per triple."""
    lines = nt_render_lines(batch)
    cols = {"line": lines}
    if keep_url and "url" in batch.column_names:
        cols = {"url": batch["url"], "line": lines}
    return pa.table(cols)


def ntriples_bytes(table: pa.Table) -> bytes:
    """Flattened triple table → one utf-8 N-Triples document, one line
    per triple.  Each line gets its ``"\\n"`` in Arrow; the lines then
    sit back to back in the array's data buffer, so the document is one
    slice of it, from the first row's offset to the last row's end."""
    lines = nt_render_lines(table)
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    if lines.null_count:
        raise ValueError(f"{lines.null_count} triples render to no N-Triples line")
    n = len(lines)
    if n == 0:
        return b""
    lines = pc.binary_join_element_wise(
        lines, pa.scalar("\n", pa.large_string()), pa.scalar("", pa.large_string())
    )
    _, offsets, data = lines.buffers()
    # large_string offsets are int64; a sliced array starts at row .offset
    offsets = np.frombuffer(offsets, np.int64, count=lines.offset + n + 1)
    lo, hi = int(offsets[lines.offset]), int(offsets[-1])
    return data.slice(lo, hi - lo).to_pybytes()


def serialize_ntriples(table: pa.Table) -> str:
    """Flattened triple table → one N-Triples document string, one line
    per triple (:func:`ntriples_bytes`, decoded)."""
    return ntriples_bytes(table).decode()


class NTriplesWriter(PartWriter):
    """``part-<contenthash>.nt`` files, one N-Triples line per triple."""

    ext = ".nt"

    def render(self, block: pa.Table) -> bytes:
        return ntriples_bytes(block)


def write_ntriples(ds, out_dir: str):
    """Dataset of flattened triples → directory of ``.nt`` part files,
    one N-Triples line per triple.  Returns the manifest (path, rows)."""
    return write_parts(ds, NTriplesWriter(out_dir))


class NTriplesGzWriter(NTriplesWriter):
    """Gzipped twin of the ``.nt`` part writer — Common-Crawl-style
    dumps ship ``.nt.gz``; ``mtime=0`` keeps the bytes (and the
    md5-derived part name) deterministic."""

    ext = ".nt.gz"

    def render(self, block: pa.Table) -> bytes:
        return gzip.compress(super().render(block), mtime=0)


def write_ntriples_gz(ds, out_dir: str):
    """Dataset of flattened triples → directory of ``.nt.gz`` part
    files.  Returns the manifest (path, rows)."""
    return write_parts(ds, NTriplesGzWriter(out_dir))
