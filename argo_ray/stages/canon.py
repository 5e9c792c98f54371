"""Canonicalization stages: regex term rewriting (M4), URI prefix
splitting (M5), CURIE expansion (M7), typed-literal coercion (M10).

The rewrite stage reimplements the reference CLI's
``-r/--rewrite[-subject|-predicate|-object] FIND REPLACE``
(``/root/reference/rdf/rdf.go:239-284``): the regex applies to Resource
URIs and blank-node ids rendered as ``_:id`` — literals are untouched
(rdf/rdf.go:253-254) — and the result is re-sniffed as a blank node when
it starts with ``_:``.  Global rules run before positional ones
(rdf/rdf.go:272-284).

Replacement templates use RE2 ``\\1`` backreferences (pyarrow's
``replace_substring_regex``); Go's ``$1`` style is translated by
:func:`go_template_to_re2`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

from ..terms import KIND_BLANK, KIND_IRI, KIND_LITERAL, POSITIONS
from .grouping import exchange


def go_template_to_re2(template: str) -> str:
    """``$1``/``${1}`` (Go regexp.ReplaceAllString) → ``\\1`` (RE2)."""
    return re.sub(r"\$\{?(\d+)\}?", r"\\\1", template)


@dataclass(frozen=True)
class RewriteRule:
    """One compiled rewrite: regex FIND → REPLACE template, applied to
    ``positions`` (subset of subj/pred/obj; all three = the reference's
    global ``-r`` flavor)."""

    pattern: str
    replacement: str
    positions: tuple[str, ...] = POSITIONS


def rewrite_batch(batch: pa.Table, rules: list[RewriteRule]) -> pa.Table:
    """Vectorized term rewriting.  For each rule and position:

    - IRIs rewrite on the bare URI;
    - blank nodes rewrite on the rendered ``_:id`` form then re-sniff:
      ``_:``-prefixed results stay/become blank nodes, anything else
      becomes an IRI (rdf/rdf.go:255-267 sniffTerm);
    - literals pass through untouched.
    """
    cols = {name: batch[name] for name in batch.column_names}
    for rule in rules:
        for pos in rule.positions:
            kind = cols[f"{pos}_kind"]
            value = pc.cast(cols[f"{pos}_value"], pa.large_string())
            is_iri = pc.equal(kind, pa.scalar(KIND_IRI, pa.uint8()))
            is_blank = pc.equal(kind, pa.scalar(KIND_BLANK, pa.uint8()))

            # Render the rewritable form: <uri> stays bare, bnode → _:id.
            rendered = pc.if_else(
                is_blank,
                pc.binary_join_element_wise(
                    pa.scalar("_:", pa.large_string()), value, pa.scalar("", pa.large_string())
                ),
                value,
            )
            rewritten = pc.replace_substring_regex(
                rendered, pattern=rule.pattern, replacement=rule.replacement
            )
            sniff_blank = pc.starts_with(rewritten, "_:")
            new_value_if_applied = pc.if_else(
                sniff_blank, pc.utf8_slice_codeunits(rewritten, 2), rewritten
            )
            new_kind_if_applied = pc.if_else(
                sniff_blank,
                pa.scalar(KIND_BLANK, pa.uint8()),
                pa.scalar(KIND_IRI, pa.uint8()),
            )
            applies = pc.or_(is_iri, is_blank)
            cols[f"{pos}_value"] = pc.if_else(applies, new_value_if_applied, value)
            cols[f"{pos}_kind"] = pc.cast(
                pc.if_else(applies, new_kind_if_applied, kind), pa.uint8()
            )
    return pa.table(cols)


# ---------------------------------------------------------------------------
# SplitPrefix (M5) — argo.go:219-233: split at last '#', else last '/'.
# ---------------------------------------------------------------------------


def split_prefix_arrays(uris: pa.Array) -> tuple[pa.Array, pa.Array]:
    """Vectorized (base, localname) split of a URI column; agrees with
    the scalar :func:`split_prefix` (``(?s)``: RE2's ``.`` otherwise
    stops at ``\\n``)."""
    uris = pc.cast(uris, pa.large_string())
    hash_split = pc.extract_regex(uris, r"(?s)^(?P<base>.*#)(?P<name>[^#]*)$")
    slash_split = pc.extract_regex(uris, r"(?s)^(?P<base>.*/)(?P<name>[^/]*)$")
    has_hash = pc.is_valid(hash_split)
    has_slash = pc.is_valid(slash_split)
    base = pc.if_else(
        has_hash,
        pc.struct_field(hash_split, "base"),
        pc.if_else(
            has_slash,
            pc.struct_field(slash_split, "base"),
            pa.scalar("", pa.large_string()),
        ),
    )
    name = pc.if_else(
        has_hash,
        pc.struct_field(hash_split, "name"),
        pc.if_else(has_slash, pc.struct_field(slash_split, "name"), uris),
    )
    return base, name


def split_prefix(uri: str) -> tuple[str, str]:
    """Scalar SplitPrefix (argo.go:219-233)."""
    idx = uri.rfind("#") + 1
    if idx > 0:
        return uri[:idx], uri[idx:]
    idx = uri.rfind("/") + 1
    if idx > 0:
        return uri[:idx], uri[idx:]
    return "", uri


# ---------------------------------------------------------------------------
# Typed-literal coercion (M10) — the xsd coercion table the reference's
# loop interpreter understands (loop/loop.go:71-118).
# ---------------------------------------------------------------------------

XSD = "http://www.w3.org/2001/XMLSchema#"

INTEGER_TYPES = frozenset(
    XSD + t
    for t in (
        "integer", "long", "int", "short", "byte",
        "nonPositiveInteger", "negativeInteger",
        "nonNegativeInteger", "positiveInteger",
        "unsignedLong", "unsignedInt", "unsignedShort", "unsignedByte",
    )
)
FLOAT_TYPES = frozenset(XSD + t for t in ("float", "decimal", "double"))
BOOL_TYPE = XSD + "boolean"


def coerce_literals_batch(batch: pa.Table, pos: str = "obj") -> pa.Table:
    """Append typed projections of the ``pos`` literal column:

    - ``{pos}_as_int``    int64 where datatype ∈ the 13 integer types
    - ``{pos}_as_float``  float64 where datatype ∈ float/decimal/double
    - ``{pos}_as_bool``   bool where xsd:boolean ("true"/"1" → true,
      loop/loop.go:73-74)

    Non-matching rows are null.  Vectorized via pandas ``to_numeric``.
    """
    import numpy as np
    import pandas as pd

    kind = batch[f"{pos}_kind"].to_numpy(zero_copy_only=False)
    dt = pd.Series(batch[f"{pos}_datatype"].to_pylist())
    val = pd.Series(batch[f"{pos}_value"].to_pylist())
    is_lit = kind == KIND_LITERAL

    num = pd.to_numeric(val, errors="coerce")
    int_mask = is_lit & dt.isin(INTEGER_TYPES).to_numpy()
    float_mask = is_lit & dt.isin(FLOAT_TYPES).to_numpy()
    bool_mask = is_lit & (dt == BOOL_TYPE).to_numpy()

    as_int = pd.array(np.where(int_mask, num, np.nan), dtype="Int64")
    as_float = pd.array(np.where(float_mask, num, np.nan), dtype="Float64")
    as_bool = pd.array(
        np.where(bool_mask, val.isin(["true", "1"]).to_numpy(), None), dtype="boolean"
    )
    out = batch
    out = out.append_column(f"{pos}_as_int", pa.array(as_int, pa.int64(), from_pandas=True))
    out = out.append_column(f"{pos}_as_float", pa.array(as_float, pa.float64(), from_pandas=True))
    out = out.append_column(f"{pos}_as_bool", pa.array(as_bool, pa.bool_(), from_pandas=True))
    return out


# ---------------------------------------------------------------------------
# Blank-node canonical labeling (graph-equality semantics)
# ---------------------------------------------------------------------------


def _color_hash(feats) -> str:
    import hashlib

    return hashlib.md5("\n".join(feats).encode()).hexdigest()


def blank_canonical_labels(triples_ds, iters: int = 2):
    """Deterministic canonical labels for blank nodes via color
    refinement (the 1-WL idea behind the public RDF dataset
    canonicalization algorithms, cf. URDNA2015 / Hogan's iso-canonical
    labeling): a blank's label depends only on its STRUCTURE — the
    multiset of (direction, predicate, ground-term) edges it touches,
    refined ``iters`` rounds through blank-blank edges — never on the
    arbitrary input label.  Two isomorphic graphs therefore canonicalize
    to the same label multiset (the reference's graph-equality contract,
    ``/root/reference/graph.go:231-253``, decided there by exhaustive
    bijection search; color refinement is the scalable route).

    Returns ``(blank, canon)`` — one row per distinct blank label.

    Distributed shape: feature extraction is one vectorized pass
    (NT-rendered ground neighbours), the per-blank hash is a
    ``grouped_map`` (one sort exchange keyed by blank), and each
    refinement round is one exchange attach of neighbour colors
    to the blank-blank edge list + one more grouped hash — all
    exchanges carry ONE ROW PER EDGE TOUCHING A BLANK, never the full
    graph.  Rounds short-circuit when the graph has no blank-blank
    edges (colors are already stable).  Twin: the fixture oracle in
    pipelines/oracles.py mirrors the ground-feature hash in SQL.
    """
    import pandas as pd

    from ..terms import nt_render_position
    from .grouping import grouped_map

    one = pa.scalar(1, pa.int64())
    ls = pa.scalar("|", pa.large_string())

    def feats(b: pa.Table) -> pa.Table:
        cols = {"blank": [], "feat": [], "dir": [], "pred": [], "nbr": []}
        parts = []
        for pos, other, d in (("subj", "obj", "o"), ("obj", "subj", "i")):
            side = b.filter(pc.equal(pc.cast(b[f"{pos}_kind"], pa.int64()), one))
            if not side.num_rows:
                continue
            other_blank = pc.equal(
                pc.cast(side[f"{other}_kind"], pa.int64()), one
            )
            ground = side.filter(pc.invert(other_blank))
            if ground.num_rows:
                rend = nt_render_position(ground, other)
                feat = pc.binary_join_element_wise(
                    pa.array([d] * ground.num_rows, pa.large_string()),
                    pc.cast(ground["pred_value"], pa.large_string()),
                    rend,
                    ls,
                )
                n = ground.num_rows
                parts.append(
                    pa.table(
                        {
                            "blank": pc.cast(
                                ground[f"{pos}_value"], pa.string()
                            ),
                            "feat": pc.cast(feat, pa.string()),
                            "dir": pa.nulls(n, pa.string()),
                            "pred": pa.nulls(n, pa.string()),
                            "nbr": pa.nulls(n, pa.string()),
                        }
                    )
                )
            bb = side.filter(other_blank)
            if bb.num_rows:
                n = bb.num_rows
                parts.append(
                    pa.table(
                        {
                            "blank": pc.cast(bb[f"{pos}_value"], pa.string()),
                            "feat": pa.nulls(n, pa.string()),
                            "dir": pa.array([d] * n, pa.string()),
                            "pred": pc.cast(bb["pred_value"], pa.string()),
                            "nbr": pc.cast(bb[f"{other}_value"], pa.string()),
                        }
                    )
                )
        if not parts:
            return pa.table(
                {
                    "blank": pa.array([], pa.string()),
                    "feat": pa.array([], pa.string()),
                    "dir": pa.array([], pa.string()),
                    "pred": pa.array([], pa.string()),
                    "nbr": pa.array([], pa.string()),
                }
            )
        return pa.concat_tables(parts)

    allf = triples_ds.map_batches(feats, batch_format="pyarrow").materialize()
    bb = allf.map_batches(
        lambda b: b.filter(pc.is_null(b["feat"])), batch_format="pyarrow"
    )
    # seed rows keep bb-only blanks in the color table (empty feature set)
    base = allf.map_batches(
        lambda b: b.select(["blank", "feat"]), batch_format="pyarrow"
    )

    def hash_group(g: pd.DataFrame) -> pd.DataFrame:
        feats_set = sorted({f for f in g["feat"] if f is not None and not pd.isna(f)})
        return pd.DataFrame(
            {"blank": [g["blank"].iloc[0]], "canon": [_color_hash(feats_set)]}
        )

    color = grouped_map(base, "blank", hash_group)

    n_bb = bb.count()
    if n_bb == 0 or iters <= 0:
        return color

    bb = bb.materialize()

    def tag_color(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "key": pc.cast(b["blank"], pa.string()),
                "label": pc.cast(b["canon"], pa.string()),
                "blank": pa.nulls(n, pa.string()),
                "dir": pa.nulls(n, pa.string()),
                "pred": pa.nulls(n, pa.string()),
            }
        )

    def tag_edge(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "key": pc.cast(b["nbr"], pa.string()),
                "label": pa.nulls(n, pa.string()),
                "blank": pc.cast(b["blank"], pa.string()),
                "dir": pc.cast(b["dir"], pa.string()),
                "pred": pc.cast(b["pred"], pa.string()),
            }
        )

    def attach_block(t: pa.Table) -> pa.Table:
        is_map = pc.is_valid(t["label"])
        maps = t.filter(is_map)
        rows = t.filter(pc.invert(is_map))
        if not rows.num_rows:
            return pa.table(
                {"blank": pa.array([], pa.string()), "feat": pa.array([], pa.string())}
            )
        idx = pc.index_in(rows["key"], value_set=maps["key"])
        nbr_color = pc.take(maps["label"], idx)
        feat = pc.binary_join_element_wise(
            pc.cast(rows["dir"], pa.large_string()),
            pc.cast(rows["pred"], pa.large_string()),
            pc.cast(nbr_color, pa.large_string()),
            pa.scalar("|", pa.large_string()),
        )
        return pa.table(
            {
                "blank": pc.cast(rows["blank"], pa.string()),
                "feat": pc.cast(feat, pa.string()),
            }
        )

    for _ in range(iters):
        color = color.materialize()  # consumed by attach AND the self term
        edge_feats = exchange(
            color.map_batches(tag_color, batch_format="pyarrow").union(
                bb.map_batches(tag_edge, batch_format="pyarrow")
            ),
            "key", attach_block, batch_format="pyarrow",
        )
        self_feats = color.map_batches(
            lambda b: pa.table(
                {
                    "blank": pc.cast(b["blank"], pa.string()),
                    "feat": pc.cast(
                        pc.binary_join_element_wise(
                            pa.scalar("c", pa.large_string()),
                            pc.cast(b["canon"], pa.large_string()),
                            pa.scalar("|", pa.large_string()),
                        ),
                        pa.string(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        color = grouped_map(self_feats.union(edge_feats), "blank", hash_group)

    return color
