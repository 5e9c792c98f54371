"""N-Triples serializer (operator K1) — canonical output form.

One line per triple via the canonical term rendering
(``/root/reference/ntriples.go:494-505``, ``term.go:93-110``,
``triple.go:43-60``).  Fully vectorized: the per-batch body is pyarrow
compute kernels only (no Python row loop).
"""

from __future__ import annotations

import gzip

import pyarrow as pa

from ..terms import nt_render_lines
from .parts import PartWriter, write_parts


def to_nt_lines_batch(batch: pa.Table, keep_url: bool = False) -> pa.Table:
    """``map_batches`` UDF: flattened triples → one ``line`` per triple."""
    lines = nt_render_lines(batch)
    cols = {"line": lines}
    if keep_url and "url" in batch.column_names:
        cols = {"url": batch["url"], "line": lines}
    return pa.table(cols)


def serialize_ntriples(table: pa.Table) -> str:
    """Flattened triple table → one N-Triples document string, one line
    per triple.  ``NTriplesWriter`` renders each block with it on a
    worker."""
    return "".join(line + "\n" for line in nt_render_lines(table).to_pylist())


class NTriplesWriter(PartWriter):
    """``part-<contenthash>.nt`` files, one N-Triples line per triple."""

    ext = ".nt"

    def render(self, block: pa.Table) -> bytes:
        return serialize_ntriples(block).encode()


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
