"""TriG serializer — named-graph Turtle (the quad twin of K4,
cf. ``sinks/turtle.py``; no reference counterpart, argo is
triples-only).  One ``<graph> { ... }`` section per named graph, each
section rendered with the Turtle subject-block rules
(``/root/reference/turtleserializer.go:11-82`` semantics via
:class:`~argo_ray.sinks.turtle.TurtleBlockRenderer`); default-graph rows
(empty graph value) emit as bare top-level blocks, as the TriG grammar
allows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..terms import KIND_BLANK
from .parts import PartWriter, write_parts
from .turtle import TurtleBlockRenderer, run_starts, turtle_header


def serialize_trig(
    table: pa.Table,
    prefixes: dict[str, str] | None = None,
    graph_column: str = "graph_value",
    graph_kind_column: str = "graph_kind",
) -> str:
    """Whole table (12 term columns + graph columns) → one TriG doc:
    the default graph first, then named graphs in (kind, value) order;
    subjects in (kind, value) order, each subject's rows in table order.
    Missing graph columns mean the default graph."""
    prefixes = prefixes or {}
    for column, default in (
        (graph_kind_column, pa.scalar(0, pa.int64())),
        (graph_column, pa.scalar("", pa.large_string())),
    ):
        if column not in table.column_names:
            table = table.append_column(column, pa.repeat(default, table.num_rows))
    named = pc.not_equal(table[graph_column], "")
    order = pc.sort_indices(
        table.append_column("__named", named),
        sort_keys=[
            ("__named", "ascending"),
            (graph_kind_column, "ascending"),
            (graph_column, "ascending"),
            ("subj_kind", "ascending"),
            ("subj_value", "ascending"),
        ],
    )
    table = table.take(order)
    render = TurtleBlockRenderer(prefixes)
    starts = np.flatnonzero(run_starts(table, [graph_kind_column, graph_column]))
    out = [turtle_header(prefixes)]
    for start, stop in zip(starts, [*starts[1:], table.num_rows]):
        blocks = render(table.slice(start, stop - start))
        gk = table[graph_kind_column][start].as_py()
        gv = table[graph_column][start].as_py()
        if gv == "":
            out.append(blocks)
        else:
            label = f"_:{gv}" if gk == KIND_BLANK else f"<{gv}>"
            out.append(label + " {\n" + blocks + "}\n\n")
    return "".join(out)


class TriGWriter(PartWriter):
    """One subject-sorted block → one ``part-<contenthash>.trig``
    document."""

    ext = ".trig"

    def render(self, block: pa.Table) -> bytes:
        return serialize_trig(block, self.prefixes).encode()


def write_trig(ds, out_dir: str, prefixes: dict[str, str] | None = None):
    """Dataset of flattened triples or quads → TriG part files via the
    subject shuffle.  Returns the (path, rows) manifest."""
    return write_parts(ds, TriGWriter(out_dir, prefixes), "subject_hash")
