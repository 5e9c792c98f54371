"""Web link-graph construction from crawled HTML — the other half of
KG construction over a web corpus (the RDFa extractor mines *facts*
from pages; this mines the *hyperlink graph* the crawl itself induces,
the input to PageRank-style authority scoring, crawl frontier
expansion and host-level politeness quotas).

Everything is vectorized Arrow: anchor extraction is ONE
``split_pattern`` + ONE anchored ``extract_regex`` over the flattened
segments (no per-row Python), host extraction is one more
``extract_regex``.  The host-graph aggregation pre-combines per batch
so the groupby exchange moves (src_host, dst_host) partials, never raw
link rows — at crawl scale links outnumber pages ~50×, host pairs are
thousands.

Reference parity: the reference engine's extractor family stops at
per-page triples (rdfaparser.go); the link graph is the web-scale
companion the north-star pipeline needs (hub/authority skew handling
feeds the same salted groupby machinery as the triple store).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.grouping import exchange

# after splitting on "<a ", an anchor segment starts with the tag's
# attributes: no '>' may appear before href (keeps matches inside the
# tag), then the href value, the rest of the tag, and the anchor text
# up to the closing tag
_ANCHOR_RE = r'^[^>]*href="(?P<href>[^"]*)"[^>]*>(?P<anchor>[^<]*)<'
_HOST_RE = r"^(?P<scheme>[a-z][a-z0-9+.-]*)://(?P<host>[^/?#]+)"

LINKS_SCHEMA = pa.schema(
    [
        pa.field("src_url", pa.string()),
        pa.field("dst_url", pa.string()),
        pa.field("anchor", pa.string()),
    ]
)


def extract_links_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` UDF: pages ``(url, html, ...)`` → one row per
    ``<a href=...>`` anchor: ``(src_url, dst_url, anchor)``.  Pages
    with no anchors (or unparseable bytes) contribute nothing — the
    quarantine contract every batch parser here follows."""
    try:
        html = pc.cast(batch["html"], pa.large_string())
    except pa.ArrowInvalid:
        # poison bytes: lenient per-row decode for THIS batch only —
        # invalid sequences are replaced, pages yield whatever anchors
        # survive (usually none); nothing raises
        html = pa.array(
            [
                v.as_py().decode("utf-8", errors="replace") if v.is_valid else None
                for v in batch["html"]
            ],
            pa.large_string(),
        )
    segs = pc.split_pattern(html, "<a ")
    # drop each list's FIRST segment: it precedes any "<a " and could
    # otherwise phantom-match when the page's first tag carries href
    # before any '>' (e.g. a leading <link href=...> with no head tag)
    segs = pc.list_slice(segs, 1)
    flat = pc.list_flatten(segs)
    parents = pc.list_parent_indices(segs)
    hit = pc.extract_regex(pc.cast(flat, pa.string()), _ANCHOR_RE)
    ok = pc.is_valid(hit)
    src = pc.take(pc.cast(batch["url"], pa.string()), pc.filter(parents, ok))
    hit = pc.filter(hit, ok)
    return pa.table(
        {
            "src_url": src,
            "dst_url": pc.struct_field(hit, "href"),
            "anchor": pc.struct_field(hit, "anchor"),
        }
    )


def url_host(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized scheme://host[/...] → host; null when the value has
    no absolute-URL shape (relative hrefs)."""
    hit = pc.extract_regex(pc.cast(col, pa.string()), _HOST_RE)
    return pc.struct_field(hit, "host")


def link_graph(pages_ds):
    """pages Dataset → streamed ``(src_url, dst_url, anchor)`` link
    rows.  Pure zero-shuffle map stage."""
    return pages_ds.map_batches(extract_links_batch, batch_format="pyarrow")


def robots_filter(pages_ds, rules: dict):
    """robots.txt URL gate with the standard LONGEST-MATCH semantics:
    ``rules`` maps host → list of ("allow"|"disallow", path_prefix);
    among the rules whose prefix matches the URL path, the longest
    wins (allow beats disallow at equal length, per Google's
    tie-break); no match = allowed.  The rule set is host-bounded
    (broadcast by closure), the evaluation is vectorized
    ``starts_with`` masks per rule — zero shuffles, streaming."""
    import numpy as np

    def gate(batch: pa.Table) -> pa.Table:
        urls = pc.cast(batch["url"], pa.string())
        hit = pc.extract_regex(urls, _HOST_RE + r"(?P<path>/[^?#]*)?")
        host_arr = pc.struct_field(hit, "host")
        path_arr = pc.struct_field(hit, "path")
        n = len(urls)
        best_len = np.zeros(n, np.int64)
        allowed = np.ones(n, bool)
        for host, host_rules in rules.items():
            hmask = pc.fill_null(
                pc.equal(host_arr, pa.scalar(host, pa.string())), False
            ).to_numpy(zero_copy_only=False)
            if not hmask.any():
                continue
            for kind, prefix in host_rules:
                pmask = hmask & pc.fill_null(
                    pc.starts_with(path_arr, prefix), False
                ).to_numpy(zero_copy_only=False)
                L = len(prefix)
                win = pmask & (
                    (L > best_len) | ((L == best_len) & (kind == "allow"))
                )
                best_len[win] = L
                allowed[win] = kind == "allow"
        return batch.filter(pa.array(allowed))

    return pages_ds.map_batches(gate, batch_format="pyarrow")


def resolve_redirects(mapping_ds, rounds: int = 2):
    """Redirect-chain resolution by POINTER DOUBLING: ``mapping_ds``
    is the raw (src, dst) redirect map; after ``rounds`` rounds every
    chain of length ≤ 2^rounds is collapsed to its final target
    (m'(u) = m(m(u)) where m(dst) exists, else m(u)).  Each round is
    ONE sort-colocated exchange (data rows keyed by their current
    target union map rows keyed by source — the same marker-join shape
    as the anti-joins, no broadcast), so resolving billion-URL redirect
    maps with bounded chain length costs log2(chain) exchanges.
    Cycles never terminate chains — the fixed round count bounds them
    deterministically (last writer wins at round cap)."""
    import pandas as pd

    m = mapping_ds

    def gate(df: pd.DataFrame):
        # ONE vectorized merge per exchange block — the per-key grouped_map
        # kernel cost minutes at 1M-chain scale
        schema = pa.schema([("src", pa.string()), ("dst", pa.string())])
        if len(df) == 0 or "key" not in df.columns:
            return schema.empty_table()
        is_map = df["_map"] == 1
        maps = df.loc[is_map, ["key", "tgt"]]
        data = df.loc[~is_map, ["key", "src"]]
        if len(data) == 0:
            return schema.empty_table()
        j = data.merge(maps, on="key", how="left")
        dst = j["tgt"].where(j["tgt"].notna(), j["key"])
        return pa.table(
            {
                "src": pa.array(j["src"].to_numpy(dtype=object), pa.string()),
                "dst": pa.array(dst.to_numpy(dtype=object), pa.string()),
            }
        )

    for _ in range(rounds):
        data = m.map_batches(
            lambda b: pa.table(
                {
                    "key": pc.cast(b["dst"], pa.string()),
                    "src": pc.cast(b["src"], pa.string()),
                    "tgt": pa.nulls(b.num_rows, pa.string()),
                    "_map": pa.array([0] * b.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        maps = m.map_batches(
            lambda b: pa.table(
                {
                    "key": pc.cast(b["src"], pa.string()),
                    "src": pa.nulls(b.num_rows, pa.string()),
                    "tgt": pc.cast(b["dst"], pa.string()),
                    "_map": pa.array([1] * b.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        m = exchange(data.union(maps), "key", gate, batch_format="pandas")
    return m


def host_graph(pages_ds):
    """pages Dataset → host-level link graph
    ``(src_host, dst_host, n_links)``.  Per-batch partial counts
    combine BEFORE the one groupby exchange, so shuffle volume is
    distinct host pairs per batch (thousands) rather than raw links
    (billions at crawl scale)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        links = extract_links_batch(batch)
        t = pa.table(
            {
                "src_host": url_host(links["src_url"]),
                "dst_host": url_host(links["dst_url"]),
            }
        )
        t = t.filter(
            pc.and_(pc.is_valid(t["src_host"]), pc.is_valid(t["dst_host"]))
        )
        g = t.group_by(["src_host", "dst_host"]).aggregate([("src_host", "count")])
        return pa.table(
            {
                "src_host": pc.cast(g["src_host"], pa.string()),
                "dst_host": pc.cast(g["dst_host"], pa.string()),
                "n_part": pc.cast(g["src_host_count"], pa.int64()),
            }
        )

    return (
        pages_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("n_part", alias_name="n_links"))
    )
