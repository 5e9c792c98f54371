"""Turtle serializer (operator K4) — grouping serializer.

Reimplements ``/root/reference/turtleserializer.go:11-82``: an
``@prefix p: <base> .`` header from the prefix map (uri → prefix), then
per subject a block::

    <subject>
      pred obj ;
      ...
      .

Resources compact to qnames via ``SplitPrefix`` + the prefix map, else
``<uri>``; literals/bnodes render in their canonical N-Triples form
(turtleserializer.go:18-37).

Rendering is columnar: :class:`TurtleBlockRenderer` turns a table whose
rows are already grouped by subject into the document body with Arrow
kernels only, opening a subject block wherever the subject term differs
from the row before.  The distributed writer shuffles on
``subject_hash`` (one range-partition sort) and renders each sorted
block whole; a 64-bit hash collision cannot merge two subjects, because
blocks split on the subject term, not its hash.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.canon import split_prefix, split_prefix_arrays
from ..stages.materialize import salted_subject_key
from ..terms import KIND_IRI, POSITIONS, Term, nt_render_term_arrays, render_term
from .parts import PartWriter, write_parts

# the local part must stay inside the parser's qname token grammar
# (sources/turtle.py _TOKEN_RE) or the emitted document is invalid
# Turtle — e.g. '%' or spaces in the local name (code-review r2)
_QNAME_LOCAL_RE = re.compile(r"[\w./#-]*\Z")
# The same rule for ASCII local names in RE2.  Python's Unicode ``\w``
# has no RE2 equivalent (``[\p{L}\p{N}_]`` disagrees on thousands of
# code points), so non-ASCII local names keep the Python regex.
_QNAME_LOCAL_ASCII = r"^[A-Za-z0-9_./#-]*$"

def _ls(s: str) -> pa.Scalar:
    return pa.scalar(s, pa.large_string())


def encode_term(kind: int, value: str, lang: str, datatype: str, prefixes: dict[str, str]) -> str:
    """turtleserializer.go:18-37 (+ qname-validity fallback to <uri>);
    the scalar twin of :meth:`TurtleBlockRenderer.encode`."""
    if kind == KIND_IRI:
        base, local = split_prefix(value)
        prefix = prefixes.get(base)
        if prefix is not None and _QNAME_LOCAL_RE.match(local):
            return f"{prefix}:{local}"
        return f"<{value}>"
    return render_term(Term(kind, value, lang, datatype))


def turtle_header(prefixes: dict[str, str]) -> str:
    return (
        "".join(f"@prefix {p}: <{base}> .\n" for base, p in prefixes.items()) + "\n"
    )


def run_starts(table: pa.Table, columns: list[str]) -> np.ndarray:
    """Mask of the rows that differ from the row before on any of
    ``columns`` (row 0 always starts a run)."""
    n = table.num_rows
    start = np.ones(n, dtype=bool)
    if n > 1:
        differs = None
        for c in columns:
            col = table[c]
            ne = pc.not_equal(col.slice(1), col.slice(0, n - 1))
            differs = ne if differs is None else pc.or_(differs, ne)
        start[1:] = pc.fill_null(differs, True).to_numpy(zero_copy_only=False)
    return start


class TurtleBlockRenderer:
    """The Turtle renderer: a table whose rows are grouped by subject
    (equal subject terms adjacent), e.g. one subject-sorted block → its
    subject blocks, no header.  ``perfbench/spans.py`` wraps
    ``__call__`` by this class name."""

    def __init__(self, prefixes: dict[str, str] | None = None):
        self.prefixes = prefixes or {}
        self._bases = pa.array(list(self.prefixes), pa.large_string())
        self._qnames = pa.array(
            [f"{p}:" for p in self.prefixes.values()], pa.large_string()
        )

    def encode(self, table: pa.Table, pos: str) -> pa.Array:
        """One term position → Turtle term text (qname or N-Triples)."""
        kind, value = table[f"{pos}_kind"], table[f"{pos}_value"]
        nt = nt_render_term_arrays(
            kind, value,
            pc.fill_null(table[f"{pos}_lang"], ""),
            pc.fill_null(table[f"{pos}_datatype"], ""),
        )
        if not self.prefixes:
            return nt
        base, local = split_prefix_arrays(value)
        idx = pc.index_in(base, value_set=self._bases)
        candidate = pc.and_(pc.equal(kind, KIND_IRI), pc.is_valid(idx))
        local_ok = pc.match_substring_regex(local, _QNAME_LOCAL_ASCII)
        non_ascii = pc.and_(candidate, pc.invert(pc.string_is_ascii(local)))
        rows = np.flatnonzero(non_ascii.to_numpy(zero_copy_only=False))
        if len(rows):
            ok = local_ok.to_numpy(zero_copy_only=False).copy()
            for i in rows:
                ok[i] = _QNAME_LOCAL_RE.match(local[int(i)].as_py()) is not None
            local_ok = pa.array(ok)
        qname = pc.binary_join_element_wise(pc.take(self._qnames, idx), local, _ls(""))
        return pc.if_else(pc.and_(candidate, local_ok), qname, nt)

    def __call__(self, table: pa.Table) -> str:
        n = table.num_rows
        if n == 0:
            return ""
        s, p, o = (self.encode(table, pos) for pos in POSITIONS)
        start = run_starts(table, ["subj_kind", "subj_value"])
        end = np.ones(n, dtype=bool)
        end[:-1] = start[1:]
        head = pc.if_else(start, pc.binary_join_element_wise(s, _ls("\n"), _ls("")), _ls(""))
        foot = pc.if_else(end, _ls("  .\n\n"), _ls(""))
        lines = pc.binary_join_element_wise(
            head, _ls("  "), p, _ls(" "), o, _ls(" ;\n"), foot, _ls("")
        )
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        doc = pa.LargeListArray.from_arrays(pa.array([0, n], pa.int64()), lines)
        return pc.binary_join(doc, _ls(""))[0].as_py()


def serialize_turtle(table: pa.Table, prefixes: dict[str, str] | None = None) -> str:
    """Whole table → one Turtle document string, subjects in (kind,
    value) order, each subject's rows in table order.  ``TurtleWriter``
    skips the sort: its blocks arrive subject-sorted."""
    prefixes = prefixes or {}
    order = pc.sort_indices(
        table, sort_keys=[("subj_kind", "ascending"), ("subj_value", "ascending")]
    )
    return turtle_header(prefixes) + TurtleBlockRenderer(prefixes)(table.take(order))


class TurtleWriter(PartWriter):
    """One subject-sorted block → one ``part-<contenthash>.ttl``
    document: the prefix header, then the block rendered whole."""

    ext = ".ttl"

    def __init__(self, out_dir: str, prefixes: dict[str, str] | None = None):
        super().__init__(out_dir, prefixes)
        self.header = turtle_header(self.prefixes)
        self.render_block = TurtleBlockRenderer(self.prefixes)

    def render(self, block: pa.Table) -> bytes:
        return (self.header + self.render_block(block)).encode()


def write_turtle(ds, out_dir: str, prefixes: dict[str, str] | None = None, num_salts: int = 0):
    """Triples Dataset → Turtle part files via the subject shuffle; pass
    ``num_salts`` to spread hot subjects (repeated subject blocks remain
    valid Turtle, SURVEY.md §2.6 A1).  Returns the (path, rows) manifest,
    ``rows`` counting triples."""
    key = "subject_hash"
    if num_salts:
        ds = ds.map_batches(
            lambda b: salted_subject_key(b, num_salts), batch_format="pyarrow"
        )
        key = "subject_salted"
    return write_parts(ds, TurtleWriter(out_dir, prefixes), key)
