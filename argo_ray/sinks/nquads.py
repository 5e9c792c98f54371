"""N-Quads serializer — the named-graph extension of the N-Triples
sink (K1; cf. ``sinks/ntriples.py``).  No reference counterpart (argo
is triples-only; reference term rendering per
``/root/reference/ntriples.go:494-505`` is reused unchanged) — quads
carry the provenance graph the SPARQL ``GRAPH`` evaluator and the
graph store already use.

Fully vectorized: pyarrow kernels only.  A row whose ``graph_value``
is empty, or a table with no graph column at all, serializes as plain
triple lines (default graph), matching the N-Quads grammar where the
graph label is optional.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..terms import KIND_BLANK, nt_render_position
from .parts import PartWriter, write_parts


def _ls(s: str):
    return pa.scalar(s, pa.large_string())


def to_nq_lines_batch(
    batch: pa.Table,
    graph_column: str = "graph_value",
    graph_kind_column: str = "graph_kind",
) -> pa.Table:
    """``map_batches`` UDF: flattened quads → one ``line`` per quad.

    The graph term renders as an IRI unless ``graph_kind`` says blank
    node; rows with an empty or missing graph value render as triples."""
    s = nt_render_position(batch, "subj")
    p = nt_render_position(batch, "pred")
    o = nt_render_position(batch, "obj")
    if graph_column in batch.column_names:
        gv = pc.cast(batch[graph_column], pa.large_string())
    else:
        gv = pa.repeat(_ls(""), batch.num_rows)
    if graph_kind_column in batch.column_names:
        is_blank = pc.equal(
            pc.cast(batch[graph_kind_column], pa.int64()),
            pa.scalar(KIND_BLANK, pa.int64()),
        )
    else:
        is_blank = pc.equal(gv, _ls("\x00"))  # all-false
    g = pc.if_else(
        is_blank,
        pc.binary_join_element_wise(_ls("_:"), gv, _ls("")),
        pc.binary_join_element_wise(_ls("<"), gv, _ls(">"), _ls("")),
    )
    quad = pc.binary_join_element_wise(s, p, o, g, _ls("."), _ls(" "))
    triple = pc.binary_join_element_wise(s, p, o, _ls("."), _ls(" "))
    lines = pc.if_else(pc.equal(gv, _ls("")), triple, quad)
    cols = {"line": lines}
    if "url" in batch.column_names:
        cols = {"url": batch["url"], "line": lines}
    return pa.table(cols)


def serialize_nquads(table: pa.Table) -> str:
    """Flattened triple table → one N-Quads document string.
    ``NQuadsWriter`` renders each block with it on a worker."""
    return "".join(
        line + "\n" for line in to_nq_lines_batch(table)["line"].to_pylist()
    )


class NQuadsWriter(PartWriter):
    """``part-<contenthash>.nq`` files, one N-Quads line per row."""

    ext = ".nq"

    def render(self, block: pa.Table) -> bytes:
        return serialize_nquads(block).encode()


def write_nquads(ds, out_dir: str):
    """Dataset of flattened triples or quads → directory of ``.nq``
    part files.  Returns the manifest (path, rows)."""
    return write_parts(ds, NQuadsWriter(out_dir))
