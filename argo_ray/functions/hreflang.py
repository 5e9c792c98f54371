"""hreflang alternate-cluster extraction — the i18n half of crawl
canonicalization.  Multilingual sites declare their translation sets
with ``<link rel="alternate" hreflang="xx" href="..."/>`` head
elements (the public Google / W3C convention); a crawl pipeline mines
those into *translation clusters* so (a) per-language corpora keep one
member per cluster and (b) aligned-pair mining has its candidate sets.

Pipeline shape:

- :func:`alternates_pages` synthesizes the fixture pages whose
  ``<head>`` declares each doc's cluster (cluster = ``doc_id -
  doc_id % cluster_size``) — deterministic so the DuckDB oracle
  reconstructs the expected edges relationally, but the co-grouping is
  real distributed work: ONE ``grouped_map`` on the cluster key builds
  every member's link set from ALL members.
- :func:`extract_hreflang_batch` is the real parser: vectorized
  ``split_pattern`` + anchored ``extract_regex`` over the flattened
  ``<link `` segments (same zero-per-row-Python shape as
  :mod:`argo_ray.functions.weblinks`), quarantining undecodable bytes.
- cluster stats ride a per-batch partial (every page's edge rows land
  in one block by construction, and every member of a cluster carries
  the full member list, so the per-src rollup is exact) followed by
  ONE dedup groupby on the cluster key — shuffle volume is clusters,
  never raw link rows.

At 100 TB: link extraction is a pure streaming map; the cluster rollup
moves one row per page into a groupby keyed by cluster representative
(uniform md5-ish key space — cluster keys are URLs, no hot key since a
cluster is capped at the site's language count).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# after splitting on "<link ", a segment starts with the tag's
# attributes; attribute order is fixed by the synthesizer (rel,
# hreflang, href) and the regex stays inside the tag (no '>' before
# the attributes we consume)
_HREFLANG_RE = (
    r'^[^>]*rel="alternate"[^>]*hreflang="(?P<hreflang>[^"]*)"'
    r'[^>]*href="(?P<href>[^"]*)"'
)

EDGES_SCHEMA = pa.schema(
    [
        pa.field("src_url", pa.string()),
        pa.field("hreflang", pa.string()),
        pa.field("href", pa.string()),
    ]
)


def _head_html(langs: list[str], urls: list[str]) -> str:
    links = "".join(
        f'<link rel="alternate" hreflang="{lang}" href="{url}"/>'
        for lang, url in zip(langs, urls)
    )
    return f"<head>{links}</head>"


def alternates_pages(docs_ds, cluster_size: int = 4):
    """documents ``(doc_id, lang, source)`` → pages ``(url, html)``
    whose head declares the full hreflang set of the doc's translation
    cluster (all members, self included, ordered by doc_id)."""
    from ..pages import page_url
    from ..stages.grouping import grouped_map

    def with_cluster(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        cluster = pc.multiply(
            pc.divide(ids, cluster_size), pa.scalar(cluster_size, pa.int64())
        )
        return b.append_column("cluster", cluster)

    def build(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("doc_id")
        urls = [page_url(s, int(d)) for s, d in zip(g["source"], g["doc_id"])]
        head = _head_html(list(g["lang"]), urls)
        return pd.DataFrame({"url": urls, "html": [head] * len(urls)})

    return grouped_map(
        docs_ds.map_batches(with_cluster, batch_format="pyarrow"),
        "cluster",
        build,
    )


def extract_hreflang_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` UDF: pages ``(url, html)`` → one row per
    ``<link rel="alternate" hreflang .../>`` element:
    ``(src_url, hreflang, href)``.  Pages with no alternates (or
    poison bytes) contribute nothing."""
    try:
        html = pc.cast(batch["html"], pa.large_string())
    except pa.ArrowInvalid:
        html = pa.array(
            [
                v.as_py().decode("utf-8", errors="replace") if v.is_valid else None
                for v in batch["html"]
            ],
            pa.large_string(),
        )
    segs = pc.split_pattern(html, "<link ")
    segs = pc.list_slice(segs, 1)
    flat = pc.list_flatten(segs)
    parents = pc.list_parent_indices(segs)
    hit = pc.extract_regex(pc.cast(flat, pa.string()), _HREFLANG_RE)
    ok = pc.is_valid(hit)
    src = pc.take(pc.cast(batch["url"], pa.string()), pc.filter(parents, ok))
    hit = pc.filter(hit, ok)
    return pa.table(
        {
            "src_url": src,
            "hreflang": pc.struct_field(hit, "hreflang"),
            "href": pc.struct_field(hit, "href"),
        }
    )


def hreflang_edges(pages_ds):
    """pages → streamed ``(src_url, hreflang, href)`` alternate edges.
    Pure zero-shuffle map stage."""
    return pages_ds.map_batches(extract_hreflang_batch, batch_format="pyarrow")


def cluster_stats(edges_ds):
    """alternate edges → one row per translation cluster:
    ``(cluster_url, n_pages, n_langs)`` with the lexicographically
    smallest member URL as the cluster key.

    Every member page declares the FULL cluster, so any single src's
    edge set determines the cluster exactly; the per-batch partial
    rolls each src up (valid per batch — one page's edges never split
    across blocks, they come from one input row), and the ONE groupby
    on the cluster key dedups the identical per-member rows (Min is a
    no-op on agreeing values)."""
    from ray.data.aggregate import Min

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        g = df.groupby("src_url").agg(
            cluster_url=("href", "min"),
            n_pages=("href", "nunique"),
            n_langs=("hreflang", "nunique"),
        )
        return pa.table(
            {
                "cluster_url": pa.array(g["cluster_url"], pa.string()),
                "n_pages": pa.array(g["n_pages"], pa.int64()),
                "n_langs": pa.array(g["n_langs"], pa.int64()),
            }
        )

    return (
        edges_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cluster_url")
        .aggregate(
            Min("n_pages", alias_name="n_pages"),
            Min("n_langs", alias_name="n_langs"),
        )
    )
