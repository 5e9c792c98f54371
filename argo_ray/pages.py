"""Deterministic synthesis of the Common-Crawl-style ``pages`` table.

``BASELINE.json`` input_hint requires the pipeline input to be a Parquet
table ``(url:string, warc_ts:timestamp, html:binary, text:string,
lang:string)``.  No such table ships in ``/root/testdata``, so we derive
one deterministically from the driver's ``documents.parquet``
(``doc_id, text, lang, source, n_chars``) — pure functions of the row,
seedless, so the DuckDB oracle can reconstruct the expected triples
relationally from the same ``documents`` view.

Each page embeds RDFa markup exercising every extractor rule
(``/root/reference/rdfaparser/rdfaparser.go:64-151``): xmlns prefix
declarations, typeof+resource, typeof-without-resource (anon bnode →
skolemized), property+content, property+child-text, datatype, xml:lang,
rel+href, rev+href (reversed — makes ``HUB_IRI`` a hot subject asserted
from every page, the skew fixture), duplicate assertions (dedup
exercise) and a leading ``<?xml?>`` declaration on some pages
(rdfaparser.go:168-175).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

EX_NS = "http://example.org/ns#"
DC_NS = "http://purl.org/dc/elements/1.1/"
VOCAB = "http://example.org/vocab/"
HUB_IRI = "https://hub.example.org/"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

# Epoch micros of 2024-01-01T00:00:00Z; pages are stamped at a
# deterministic offset per doc_id.
_TS_BASE_US = 1_704_067_200_000_000


def page_url(source: str, doc_id: int) -> str:
    return f"https://docs.example.org/{source}/{doc_id}"


def entity_iri(doc_id: int) -> str:
    return f"https://kg.example.org/doc/{doc_id}"


def site_iri(doc_id: int) -> str:
    return f"https://site{doc_id % 5}.example.org/"


def title_of(text: str) -> str:
    """First five space-separated words — SQL equivalent:
    ``array_to_string(string_split(text,' ')[1:5], ' ')``."""
    return " ".join(text.split(" ")[:5])


def build_html(doc_id: int, text: str, lang: str, source: str, n_chars: int) -> str:
    url = page_url(source, doc_id)
    entity = entity_iri(doc_id)
    title = title_of(text)
    site = site_iri(doc_id)
    parts = []
    if doc_id % 11 == 0:
        parts.append('<?xml version="1.0"?>')
    parts.append("<html><head><title>" + title + "</title></head>")
    parts.append(
        f'<body xmlns:ex="{EX_NS}" xmlns:dc="{DC_NS}" vocab="{VOCAB}">'
    )
    parts.append(f'<div typeof="ex:Document" resource="{entity}">')
    parts.append(f'<span property="dc:language" content="{lang}"></span>')
    if doc_id % 3 == 0:  # duplicate assertion → exercises exact dedup (A4)
        parts.append(f'<span property="dc:language" content="{lang}"></span>')
    parts.append(
        f'<span property="ex:chars" content="{n_chars}" datatype="{XSD_INTEGER}"></span>'
    )
    parts.append(f'<span property="dc:title" xml:lang="{lang}">{title}</span>')
    parts.append(f'<a rel="ex:site" href="{site}">site</a>')
    parts.append(f'<a rev="ex:cites" href="{HUB_IRI}">hub</a>')
    if doc_id % 7 == 0:  # anonymous subject → skolemized blank node
        parts.append('<div typeof="ex:Mention">')
        parts.append(f'<span property="ex:label" content="m{doc_id}"></span>')
        parts.append("</div>")
    parts.append("</div></body></html>")
    return "".join(parts)


def expected_text(doc_id: int, text: str) -> str:
    """What :func:`argo_ray.sources.rdfa.extract_text` yields for the page
    — title appears in <head><title> and the dc:title span, then the two
    anchor texts."""
    title = title_of(text)
    return f"{title} {title} site hub"


def synth_pages_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` UDF: documents rows → pages rows (deterministic).

    Runs inside the Dataset pipeline so page synthesis is itself a
    distributed stage, not a driver-side loop.
    """
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    langs = batch["lang"].to_pylist()
    sources = batch["source"].to_pylist()
    n_chars = batch["n_chars"].to_pylist()

    urls, tss, htmls, out_texts = [], [], [], []
    for did, text, lang, source, nc in zip(doc_ids, texts, langs, sources, n_chars):
        urls.append(page_url(source, did))
        tss.append(_TS_BASE_US + did * 1_000_000)
        htmls.append(build_html(did, text, lang, source, nc).encode("utf-8"))
        out_texts.append(expected_text(did, text))
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(out_texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


SCHEMA_ORG = "https://schema.org/"


def synth_microdata_batch(batch: pa.Table) -> pa.Table:
    """documents rows → schema.org microdata pages (deterministic —
    the HTML5 itemscope/itemprop twin of :func:`synth_pages_batch`;
    6 triples per page, oracle-reconstructable)."""
    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    langs = batch["lang"].to_pylist()
    sources = batch["source"].to_pylist()
    urls, htmls = [], []
    for did, text, lang, source in zip(ids, texts, langs, sources):
        url = f"https://md.example.org/{source}/{did}"
        title = title_of(text)
        page_url = f"https://docs.example.org/{source}/{did}"
        html = (
            "<html><body>"
            f'<div itemscope itemtype="{SCHEMA_ORG}Article" '
            f'itemid="https://kg.example.org/md/{did}">'
            f'<span itemprop="{SCHEMA_ORG}inLanguage" content="{lang}"></span>'
            f'<span itemprop="headline">{title}</span>'
            f'<a itemprop="{SCHEMA_ORG}url" href="{page_url}">link</a>'
            f'<div itemprop="author" itemscope>'
            f'<span itemprop="{SCHEMA_ORG}name">a{did}</span></div>'
            "</div></body></html>"
        )
        urls.append(url)
        htmls.append(html.encode())
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "html": pa.array(htmls, pa.binary()),
        }
    )


def synth_jsonld_batch(batch: pa.Table) -> pa.Table:
    """documents rows → pages embedding one expanded-form JSON-LD
    Article block (3 triples), plus a POISON truncated block on every
    9th page that must quarantine."""
    import json

    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    sources = batch["source"].to_pylist()
    urls, htmls = [], []
    for did, text, source in zip(ids, texts, sources):
        url = f"https://ld.example.org/{source}/{did}"
        title = " ".join(text.split(" ")[:3])
        node = {
            "@id": f"https://kg.example.org/ld/{did}",
            "@type": [f"{SCHEMA_ORG}Article"],
            f"{SCHEMA_ORG}name": title,
            f"{SCHEMA_ORG}about": {
                "@id": f"https://docs.example.org/{source}/{did}"
            },
        }
        blocks = [
            '<script type="application/ld+json">' + json.dumps(node) + "</script>"
        ]
        if did % 9 == 0:  # poison block: truncated JSON
            blocks.append(
                '<script type="application/ld+json">{"@id": "htt</script>'
            )
        html = "<html><head>" + "".join(blocks) + "</head><body></body></html>"
        urls.append(url)
        htmls.append(html.encode())
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "html": pa.array(htmls, pa.binary()),
        }
    )


def pages_dataset(
    sf_dir: str,
    parallelism: int | None = None,
    replicate: int = 1,
    skew: float = 0.0,
):
    """documents.parquet → pages Dataset (lazy, streaming; read split
    into enough blocks for the extract chain to fan out — see io.py).

    ``replicate > 1`` deterministically inflates the corpus: each doc is
    emitted ``replicate`` times with doc_id shifted by 1M per copy, so
    every page/entity/site IRI is distinct and extraction+shuffle work
    scale linearly — the scaling-benchmark input (same input both runs).

    ``skew > 0`` (adversarial corpus, VERDICT r2 #6): that fraction of
    the inflated volume is exact copies of doc 0's page — ONE subject
    / one page owns that share of all extracted triples, so the dedup
    sort's hottest key runs hold ~skew×volume/7 identical rows.  Volume
    matches the uniform corpus; distinct output shrinks.
    """
    from .io import read_table, target_blocks

    if replicate <= 1:
        ds = read_table(sf_dir, "documents")
        return ds.map_batches(synth_pages_batch, batch_format="pyarrow")

    import ray.data as rd

    from .io import configure_context

    configure_context()
    # 2 blocks per CPU — enough extract fan-out; more blocks would blow
    # up the downstream sort's map×merge task grid (O(blocks²))
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        override_num_blocks=target_blocks(),
    )

    n_hot = int(replicate * skew)
    if skew > 0 and n_hot == 0:
        raise ValueError(
            f"replicate={replicate} too small for skew={skew}: "
            f"int(replicate*skew) floors to 0 copies — raise replicate"
        )
    n_uniform = replicate - n_hot
    hot_row: pa.Table | None = None
    if n_hot:
        import duckdb

        hot_row = duckdb.connect().execute(
            f"SELECT * FROM '{sf_dir}/documents.parquet' WHERE doc_id = 0"
        ).arrow()
        if hot_row.num_rows != 1:
            raise ValueError("skew mode needs doc_id=0 in the corpus")

    def inflate(b: pa.Table) -> pa.Table:
        import numpy as np

        i = b.column_names.index("doc_id")
        parts = [
            b.set_column(i, "doc_id", pc.add(b["doc_id"], r * 1_000_000))
            for r in range(n_uniform)
        ]
        if n_hot:
            reps = b.num_rows * n_hot
            parts.append(
                hot_row.cast(b.schema).take(np.zeros(reps, dtype=np.int64))
            )
        return pa.concat_tables(parts)

    ds = ds.map_batches(inflate, batch_format="pyarrow")
    return ds.map_batches(synth_pages_batch, batch_format="pyarrow")
