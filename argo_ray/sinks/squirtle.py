"""Squirtle serializer (operator K5) — grouping serializer with
recursive object inlining.

Reimplements ``/root/reference/squirtleserializer.go:8-104``: triples
group by encoded subject; ``name <base> as prefix`` header; rendering a
subject's block inlines any object that is itself a subject in the map,
*consuming* it (delete-on-inline, squirtleserializer.go:54-66) — a
parent-child self-join / tree fold (SURVEY.md §2.5 J1).

The inlining is a cross-subject dependency, so it cannot be reproduced
exactly under arbitrary partitioning; the distributed writer performs
the fold per block, as the blocks come, which reproduces
the reference output for within-document blank-node trees (SURVEY.md
§2.2 K5) — cross-partition subjects simply render as separate top-level
blocks, which parses back to the same triple set.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..terms import KIND_LITERAL
from .parts import PartWriter, write_parts
from .turtle import encode_term


def _encode_row(row: dict, pos: str, prefixes: dict[str, str]) -> str:
    kind = row[f"{pos}_kind"]
    if kind == KIND_LITERAL:
        # squirtle strings are raw runes + our minimal \"/\\ escapes —
        # NOT the NT escape set render_term emits (\n etc. would read
        # back as literal backslash-n under the raw lexer)
        v = row[f"{pos}_value"].replace("\\", "\\\\").replace('"', '\\"')
        out = f'"{v}"'
        if row[f"{pos}_lang"]:
            out += f'@{row[f"{pos}_lang"]}'
        elif row[f"{pos}_datatype"]:
            out += f'^^<{row[f"{pos}_datatype"]}>'
        return out
    return encode_term(
        kind, row[f"{pos}_value"], row[f"{pos}_lang"],
        row[f"{pos}_datatype"], prefixes,
    )


def squirtle_header(prefixes: dict[str, str]) -> str:
    return (
        "".join(f"name <{base}> as {p}\n" for base, p in prefixes.items()) + "\n"
    )


def render_squirtle_blocks(df: pd.DataFrame, prefixes: dict[str, str]) -> str:
    """Render a set of triples (one partition or a whole small graph) as
    Squirtle description blocks with delete-on-inline semantics."""
    by_subject: dict[str, list[dict]] = {}
    order: list[str] = []
    for row in df.to_dict("records"):
        key = _encode_row(row, "subj", prefixes)
        if key not in by_subject:
            order.append(key)
        by_subject.setdefault(key, []).append(row)

    out: list[str] = []

    def describe(subject: str, rows: list[dict], ind: str) -> None:
        out.append(f"{subject} {{\n")
        for row in rows:
            p = _encode_row(row, "pred", prefixes)
            o = _encode_row(row, "obj", prefixes)
            out.append(f"{ind}  {p} ")
            inlined = by_subject.pop(o, None)
            if inlined is not None:
                describe(o, inlined, ind + "  ")
            else:
                out.append(o + "\n")
        out.append(f"{ind}}}\n")

    for key in order:
        rows = by_subject.pop(key, None)
        if rows is not None:
            describe(key, rows, "")
    return "".join(out)


def serialize_squirtle(table: pa.Table, prefixes: dict[str, str] | None = None) -> str:
    """Flattened triple table → one Squirtle document.
    ``SquirtleWriter`` renders each block with it on a worker."""
    prefixes = prefixes or {}
    return squirtle_header(prefixes) + render_squirtle_blocks(table.to_pandas(), prefixes)


class SquirtleWriter(PartWriter):
    """One block → one ``part-<contenthash>.sqtl`` document, rendered
    with within-block inlining."""

    ext = ".sqtl"

    def render(self, block: pa.Table) -> bytes:
        return serialize_squirtle(block, self.prefixes).encode()


def write_squirtle(ds, out_dir: str, prefixes: dict[str, str] | None = None):
    """Triples Dataset → Squirtle part files.

    Inlining scope is PER PART FILE: each block renders its own triples
    with delete-on-inline nesting, so a bnode tree inlines only when
    parent and child land in the same block.  Parent and child have
    different subjects, so no single-key shuffle could guarantee that;
    within-document bnode trees stay together whenever upstream blocks
    preserve document batches — the per-document parse/extract path
    does exactly that.  Triples that split across files still parse
    back to the identical set (set semantics; nesting is presentation
    only).  Returns the (path, rows) manifest."""
    return write_parts(ds, SquirtleWriter(out_dir, prefixes))
