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
        # kernel cost minutes at 1M-chain scale (see rank_chains)
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


_NEXT_RE = r'<link rel="next" href="(?P<next>[^"]*)"'


def extract_next_links_batch(batch: pa.Table) -> pa.Table:
    """pages → (src, dst) rel-next edges (pages without one drop out).
    One vectorized ``extract_regex`` over the RAW page bytes — no
    utf-8 decode, so poison bytes quarantine as non-matches instead of
    raising."""
    ex = pc.extract_regex(batch["html"], _NEXT_RE)
    nxt = pc.cast(pc.struct_field(ex, "next"), pa.string())
    t = pa.table(
        {
            "src": pc.cast(batch["url"], pa.string()),
            "dst": pc.cast(nxt, pa.string()),
        }
    )
    return t.filter(pc.is_valid(t["dst"]))


_CELL_RE = r"^(?P<cell>[^<]*)</td>"


def extract_table_cells_batch(batch: pa.Table) -> pa.Table:
    """pages → one row per HTML table cell ``(url, row, col, cell)``:
    TWO vectorized ``split_pattern`` levels (``<tr>`` then ``<td>``)
    with numpy offset bookkeeping for the (row, col) indices, one
    anchored ``extract_regex`` for the cell text — no per-row Python,
    and poison bytes simply produce zero matching cells (all ops run
    on the raw binary)."""
    import numpy as np

    n_pages = batch.num_rows
    if n_pages == 0:
        return pa.table(
            {
                "url": pa.array([], pa.string()),
                "row": pa.array([], pa.int64()),
                "col": pa.array([], pa.int64()),
                "cell": pa.array([], pa.string()),
            }
        )
    # level 1: rows.  segment 0 is the pre-<table> prefix → row = idx-1
    segs = pc.split_pattern(batch["html"], pattern="<tr>")
    seg_lens = pc.list_value_length(segs).to_numpy(zero_copy_only=False)
    page_of_seg = np.repeat(np.arange(n_pages, dtype=np.int64), seg_lens)
    seg_starts = np.repeat(
        np.cumsum(seg_lens) - seg_lens, seg_lens
    )
    row_idx = np.arange(len(page_of_seg), dtype=np.int64) - seg_starts - 1
    flat_rows = pc.list_flatten(segs)
    # level 2: cells within each row segment (cell 0 is the pre-<td>
    # prefix of the segment → col = idx-1)
    cells = pc.split_pattern(flat_rows, pattern="<td>")
    cell_lens = pc.list_value_length(cells).to_numpy(zero_copy_only=False)
    seg_of_cell = np.repeat(
        np.arange(len(page_of_seg), dtype=np.int64), cell_lens
    )
    cell_starts = np.repeat(np.cumsum(cell_lens) - cell_lens, cell_lens)
    col_idx = np.arange(len(seg_of_cell), dtype=np.int64) - cell_starts - 1
    flat_cells = pc.list_flatten(cells)
    ex = pc.extract_regex(flat_cells, _CELL_RE)
    text = pc.struct_field(ex, "cell")
    keep = pc.and_(
        pc.is_valid(text),
        pc.and_(
            pa.array(col_idx >= 0), pa.array(row_idx[seg_of_cell] >= 0)
        ),
    )
    urls = pc.cast(batch["url"], pa.string()).to_numpy(zero_copy_only=False)
    t = pa.table(
        {
            "url": pa.array(urls[page_of_seg[seg_of_cell]], pa.string()),
            "row": pa.array(row_idx[seg_of_cell], pa.int64()),
            "col": pa.array(col_idx, pa.int64()),
            "cell": pc.cast(text, pa.string()),
        }
    )
    return t.filter(keep)


def rank_chains(next_ds, rounds: int = 2):
    """Distributed LIST RANKING over a successor graph (Wyllie-style
    pointer doubling with distance accumulation): ``next_ds`` is the
    (src, dst) rel-next edge set — each node has at most one
    successor, chains end at a node with none.  Documented contracts:
    (a) chains of length ≤ 2^rounds + 1 fully collapse; longer chains
    or cycles stop at the round cap; (b) chains must be DISJOINT
    (in-degree ≤ 1): at-most-one-successor permits two chains merging
    into a shared tail, but per-chain root/position is then ambiguous
    — the finish pass detects the collision (two distinct nodes at
    the same distance from one tail) and raises rather than emitting
    a silently-wrong root.  After ``rounds`` doubling rounds every
    non-tail node knows its chain TAIL and its hop distance to it;
    one tail-sorted pass then emits the whole chain with
    ``(url, chain_root, pos, chain_len)``.
    Cost: log2(chain length) sort-colocated exchanges of the
    node-sized state + one tail sort — never a broadcast, never a
    driver collect, and every per-block kernel is ONE vectorized
    pandas merge / groupby-aggregate (no per-key Python dispatch);
    the classic PRAM list-ranking recipe expressed as Ray Data
    exchanges."""
    import numpy as np
    import pandas as pd

    m = next_ds.map_batches(
        lambda b: pa.table(
            {
                "src": pc.cast(b["src"], pa.string()),
                "dst": pc.cast(b["dst"], pa.string()),
                "d": pa.array([1] * b.num_rows, pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    n_blocks = max(1, m.num_blocks())

    def jump_block(df: pd.DataFrame):
        # ONE vectorized pandas merge per exchange block, never a per-key
        # Python dispatch — the first cut used grouped_map's per-group
        # kernel here and spent minutes on 1M-node inputs.  ``fin``
        # marks rows whose target had NO successor: they point at
        # their chain tail and are FINAL.
        schema = pa.schema(
            [
                ("src", pa.string()),
                ("dst", pa.string()),
                ("d", pa.int64()),
                ("fin", pa.int8()),
            ]
        )
        if len(df) == 0 or "key" not in df.columns:
            return schema.empty_table()
        is_map = df["_map"] == 1
        maps = df.loc[is_map, ["key", "tgt", "d"]].rename(columns={"d": "d2"})
        data = df.loc[~is_map, ["key", "src", "d"]]
        if len(data) == 0:
            return schema.empty_table()
        j = data.merge(maps, on="key", how="left")
        hit = j["tgt"].notna()
        dst = j["tgt"].where(hit, j["key"])
        d = j["d"] + j["d2"].fillna(0).astype("int64")
        return pa.table(
            {
                "src": pa.array(j["src"].to_numpy(dtype=object), pa.string()),
                "dst": pa.array(dst.to_numpy(dtype=object), pa.string()),
                "d": pa.array(d.to_numpy(dtype="int64"), pa.int64()),
                "fin": pa.array(
                    (~hit).to_numpy(dtype="int8"), pa.int8()
                ),
            }
        )

    # rows RETIRE from the doubling loop the round their target turns
    # out to be a tail: without retirement a long single chain
    # degenerates — every converged row keys to the ONE tail, the
    # sort piles them into a single block and re-processes them every
    # round (measured 113 s for a 16k single chain pre-fix).  Retired
    # rows stay in m (fin=1): they skip the DATA side but still serve
    # the MAP side — upstream rows jump through their final src→tail
    # mapping.  ONE materialize per round, same as the plain loop.
    m = m.map_batches(
        lambda b: b.append_column(
            "fin", pa.array([0] * b.num_rows, pa.int8())
        ),
        batch_format="pyarrow",
    ).materialize()
    for _ in range(rounds):
        data = m.map_batches(
            lambda b: pa.table(
                {
                    "key": pc.cast(b["dst"], pa.string()),
                    "src": pc.cast(b["src"], pa.string()),
                    "tgt": pa.nulls(b.num_rows, pa.string()),
                    "d": pc.cast(b["d"], pa.int64()),
                    "_map": pa.array([0] * b.num_rows, pa.int64()),
                }
            ).filter(pc.equal(b["fin"], pa.scalar(0, pa.int8()))),
            batch_format="pyarrow",
        )
        maps = m.map_batches(
            lambda b: pa.table(
                {
                    "key": pc.cast(b["src"], pa.string()),
                    "src": pa.nulls(b.num_rows, pa.string()),
                    "tgt": pc.cast(b["dst"], pa.string()),
                    "d": pc.cast(b["d"], pa.int64()),
                    "_map": pa.array([1] * b.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        jumped = exchange(
            data.union(maps), "key", jump_block, batch_format="pandas",
        )
        kept = m.map_batches(
            lambda b: b.filter(pc.equal(b["fin"], pa.scalar(1, pa.int8()))),
            batch_format="pyarrow",
        )
        m = (
            jumped.union(kept)
            .repartition(n_blocks)
            .materialize()
        )
        moving = m.map_batches(
            lambda b: pa.table(
                {
                    "n": pa.array(
                        [
                            int(
                                pc.sum(
                                    pc.cast(
                                        pc.equal(
                                            b["fin"], pa.scalar(0, pa.int8())
                                        ),
                                        pa.int64(),
                                    )
                                ).as_py()
                                or 0
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("n")
        if not moving:
            break
    m = m.map_batches(
        lambda b: b.select(["src", "dst", "d"]), batch_format="pyarrow"
    )

    def finish_block(df: pd.DataFrame):
        # vectorized per-tail stats: in-block groupby AGGREGATES (max,
        # idxmax, merge) — no per-chain Python apply
        schema = pa.schema(
            [
                ("url", pa.string()),
                ("chain_root", pa.string()),
                ("pos", pa.int64()),
                ("chain_len", pa.int64()),
            ]
        )
        if len(df) == 0 or "dst" not in df.columns:
            return schema.empty_table()
        if df.duplicated(["dst", "d"]).any():
            # two distinct nodes at the same distance from one tail ⇒
            # merging chains (in-degree > 1) — root/pos would be
            # silently wrong, so refuse (documented disjoint-chain
            # contract)
            raise ValueError(
                "rank_chains: merging chains detected (two nodes at the "
                "same distance from one tail); input must have "
                "in-degree <= 1 per node"
            )
        g = df.groupby("dst", sort=False)["d"]
        maxd = g.max().rename("maxd")
        roots = df.loc[g.idxmax(), ["dst", "src"]].rename(
            columns={"src": "root"}
        )
        stats = roots.merge(maxd, on="dst")
        j = df.merge(stats, on="dst")
        urls = np.concatenate(
            [j["src"].to_numpy(dtype=object), stats["dst"].to_numpy(dtype=object)]
        )
        root_col = np.concatenate(
            [j["root"].to_numpy(dtype=object), stats["root"].to_numpy(dtype=object)]
        )
        pos = np.concatenate(
            [
                (j["maxd"] - j["d"]).to_numpy(dtype="int64"),
                stats["maxd"].to_numpy(dtype="int64"),
            ]
        )
        ln = np.concatenate(
            [
                (j["maxd"] + 1).to_numpy(dtype="int64"),
                (stats["maxd"] + 1).to_numpy(dtype="int64"),
            ]
        )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "chain_root": pa.array(root_col, pa.string()),
                "pos": pa.array(pos, pa.int64()),
                "chain_len": pa.array(ln, pa.int64()),
            }
        )

    return exchange(m, "dst", finish_block, batch_format="pandas")


# <link rel="canonical" href="..."> — attribute order fixed by our
# synthesizer; real-crawl HTML would route through the same
# extract_regex with an alternation for the swapped order
_CANONICAL_RE = r'<link rel="canonical" href="(?P<canonical>[^"]*)"'
_META_ROBOTS_RE = r'<meta name="robots" content="(?P<directives>[^"]*)"'


def extract_canonical_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` UDF: pages → ``(url, canonical)`` where
    ``canonical`` is the declared rel=canonical target, or the page's
    own URL when the page declares none (every page is its own
    canonical by default — the consolidation identity).  ONE vectorized
    ``extract_regex`` over the page bytes, zero shuffles."""
    html = pc.cast(batch["html"], pa.large_string())
    hit = pc.extract_regex(pc.cast(html, pa.string()), _CANONICAL_RE)
    url = pc.cast(batch["url"], pa.string())
    return pa.table(
        {
            "url": url,
            "canonical": pc.coalesce(pc.struct_field(hit, "canonical"), url),
        }
    )


def canonical_clusters(pages_ds):
    """rel=canonical consolidation — the crawl-side twin of sameAs
    fusion: pages naming the same canonical URL are one logical
    document (CMS print views, tracking-parameter mirrors, AMP twins).
    Per-batch partial ``group_by`` BEFORE the one groupby exchange
    (the host_graph combiner shape): shuffle volume is distinct
    canonicals per batch, never raw page rows.  Returns
    ``(canonical, n_pages, rep_url)`` with the lexicographic-min
    member as the deterministic cluster representative."""
    from ray.data.aggregate import Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        t = extract_canonical_batch(batch)
        g = t.group_by("canonical").aggregate(
            [("url", "count"), ("url", "min")]
        )
        return pa.table(
            {
                "canonical": pc.cast(g["canonical"], pa.string()),
                "n_part": pc.cast(g["url_count"], pa.int64()),
                "rep_part": pc.cast(g["url_min"], pa.string()),
            }
        )

    return (
        pages_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("canonical")
        .aggregate(
            Sum("n_part", alias_name="n_pages"),
            Min("rep_part", alias_name="rep_url"),
        )
    )


def meta_robots_flags(pages_ds):
    """Per-page index/follow gate from ``<meta name="robots">``
    (robots.txt's in-page sibling): ``indexable`` = no ``noindex``
    directive, ``followable`` = no ``nofollow`` — both default TRUE
    when the tag is absent, per the HTML spec.  Directive parsing is
    a vectorized regex per directive over the extracted content
    attribute (handles ``noindex,nofollow`` and spaced variants);
    zero shuffles, streaming."""

    def gate(batch: pa.Table) -> pa.Table:
        html = pc.cast(batch["html"], pa.large_string())
        hit = pc.extract_regex(pc.cast(html, pa.string()), _META_ROBOTS_RE)
        content = pc.fill_null(pc.struct_field(hit, "directives"), "")
        # directive = comma/space-delimited token; anchor both sides so
        # "noindex" never matches inside a hypothetical "xnoindexy"
        def has(directive: str):
            return pc.match_substring_regex(
                content, rf"(^|[, ]){directive}($|[, ])"
            )

        return pa.table(
            {
                "url": pc.cast(batch["url"], pa.string()),
                "indexable": pc.invert(has("noindex")),
                "followable": pc.invert(has("nofollow")),
            }
        )

    return pages_ds.map_batches(gate, batch_format="pyarrow")


def parse_robots_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` UDF: ``(host, body)`` robots.txt documents →
    one row per rule: ``(host, agent, kind, prefix, rule_order)``.

    Implements the de-facto grammar: ``field: value`` lines,
    ``#`` comments stripped, field names case-insensitive, a blank
    line OR a new ``User-agent`` after rules closes the group;
    consecutive ``User-agent`` lines share the following rules.
    Empty ``Disallow:`` (allow-all idiom) yields no rule.  Per-FILE
    Python is fine here — robots.txt is one small doc per host, never
    the per-record hot path; the rule table is host-bounded and meant
    for broadcast (``ray.put`` at cluster scale)."""
    hosts = batch["host"].to_pylist()
    bodies = batch["body"].to_pylist()
    out_h, out_a, out_k, out_p, out_o = [], [], [], [], []
    for host, body in zip(hosts, bodies):
        if body is None:
            continue
        agents: list[str] = []
        in_rules = False
        order = 0
        for raw in str(body).splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                agents, in_rules = [], False
                continue
            if ":" not in line:
                continue
            field, _, value = line.partition(":")
            field = field.strip().lower()
            value = value.strip()
            if field == "user-agent":
                if in_rules:  # new group starts
                    agents, in_rules = [], False
                agents.append(value)
            elif field in ("allow", "disallow"):
                in_rules = True
                if not value:  # empty Disallow: = allow everything
                    continue
                for a in agents or ["*"]:
                    out_h.append(host)
                    out_a.append(a)
                    out_k.append(field)
                    out_p.append(value)
                    out_o.append(order)
                order += 1
    return pa.table(
        {
            "host": pa.array(out_h, pa.string()),
            "agent": pa.array(out_a, pa.string()),
            "kind": pa.array(out_k, pa.string()),
            "prefix": pa.array(out_p, pa.string()),
            "rule_order": pa.array(out_o, pa.int64()),
        }
    )


def parse_robots_discovery_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` UDF: ``(host, body)`` robots.txt documents →
    discovery rows ``(host, sitemap_url, crawl_delay_s)``: the
    ``Sitemap:`` lines (file-global per the de-facto spec — one output
    row each) and the ``*`` group's ``Crawl-delay`` (repeated on every
    row; -1 when absent).  Hosts with no sitemap lines still emit one
    row (sitemap_url = '') so the politeness side is never lost."""
    hosts = batch["host"].to_pylist()
    bodies = batch["body"].to_pylist()
    out_h, out_s, out_d = [], [], []
    for host, body in zip(hosts, bodies):
        if body is None:
            continue
        sitemaps: list[str] = []
        delay = -1
        agents: list[str] = []
        in_rules = False
        for raw in str(body).splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                agents, in_rules = [], False
                continue
            if ":" not in line:
                continue
            field, _, value = line.partition(":")
            field = field.strip().lower()
            value = value.strip()
            if field == "user-agent":
                if in_rules:
                    agents, in_rules = [], False
                agents.append(value)
            elif field in ("allow", "disallow"):
                in_rules = True
            elif field == "sitemap" and value:
                # Sitemap: is file-global; value holds the rest of the
                # URL (partition split only the first ':')
                sitemaps.append(value)
            elif field == "crawl-delay" and "*" in (agents or ["*"]):
                in_rules = True
                try:
                    delay = int(value)
                except ValueError:
                    pass
        for s in sitemaps or [""]:
            out_h.append(host)
            out_s.append(s)
            out_d.append(delay)
    return pa.table(
        {
            "host": pa.array(out_h, pa.string()),
            "sitemap_url": pa.array(out_s, pa.string()),
            "crawl_delay_s": pa.array(out_d, pa.int64()),
        }
    )


def rules_from_dataset(rules_ds, agent: str = "*") -> dict:
    """Collect a parsed-rules Dataset into the ``robots_filter`` rules
    dict for one user-agent.  The rule table is host-bounded (a few
    rules per host) — at cluster scale ``ray.put`` the dict once and
    read it inside the filter actors; collecting it on the driver is
    the intended shape, not a leak."""
    rows = rules_ds.filter(
        lambda r: r["agent"] == agent  # tiny table; row filter is fine
    ).take_all()
    rows.sort(key=lambda r: (r["host"], r["rule_order"]))
    rules: dict[str, list[tuple[str, str]]] = {}
    for r in rows:
        rules.setdefault(r["host"], []).append((r["kind"], r["prefix"]))
    return rules


_META_REFRESH_RE = (
    r'<meta http-equiv="refresh" content="(?P<delay>[0-9]+); ?url=(?P<target>[^"]*)"'
)


def extract_meta_refresh_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` UDF: pages → ``(url, delay_s, refresh_url)``
    for pages carrying a ``<meta http-equiv="refresh">`` client-side
    redirect — the fourth redirect source (after 3xx, rel=canonical
    and JS) feeding :func:`resolve_redirects`.  ONE vectorized
    ``extract_regex``; pages without the tag contribute nothing."""
    html = pc.cast(batch["html"], pa.large_string())
    hit = pc.extract_regex(pc.cast(html, pa.string()), _META_REFRESH_RE)
    ok = pc.is_valid(hit)
    return pa.table(
        {
            "url": pc.filter(pc.cast(batch["url"], pa.string()), ok),
            "delay_s": pc.cast(
                pc.struct_field(pc.filter(hit, ok), "delay"), pa.int64()
            ),
            "refresh_url": pc.struct_field(pc.filter(hit, ok), "target"),
        }
    )


# soft-404 phrase signature: the standard error-page n-grams (lowercased
# match).  A page is a soft 404 when it BOTH carries a signature phrase
# AND is short — phrase alone would misfire on pages *about* 404s,
# length alone on every stub page.
SOFT404_PHRASES = r"(page not found|error 404|does not exist|no longer available)"
SOFT404_MAX_TOKENS = 20


def soft404_flags(pages_ds, max_tokens: int = SOFT404_MAX_TOKENS):
    """Soft-404 detection over the pages table's extracted ``text``:
    servers that answer missing URLs with HTTP 200 + an error page
    poison both the KG (garbage triples) and dedup (one error template
    = a mega-cluster).  Vectorized lowercase regex + token count per
    batch, zero shuffles; returns the flagged ``(url)`` work list for
    the crawl's drop/recheck queue."""

    def gate(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch["text"], pa.large_string())
        phrased = pc.match_substring_regex(
            pc.utf8_lower(text), SOFT404_PHRASES
        )
        n_tok = pc.list_value_length(pc.split_pattern(text, " "))
        short = pc.less_equal(pc.cast(n_tok, pa.int64()), max_tokens)
        return pa.table(
            {"url": pc.cast(batch["url"], pa.string())}
        ).filter(pc.and_(phrased, short))

    return pages_ds.map_batches(gate, batch_format="pyarrow")


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
