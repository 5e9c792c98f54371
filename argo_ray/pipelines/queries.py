"""Ray Data implementations of the driver-checked queries.

Each function takes ``sf_dir`` and returns a Dataset / Arrow table whose
columns match the same-named oracle SQL in ``oracles.py`` exactly (the
driver compares row counts, schema and an order-insensitive value hash).

All pipelines are lazy streaming Dataset transforms; the only wide
operations are the documented dedup / group-by shuffles.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..pages import EX_NS, entity_iri, pages_dataset
from ..sinks.ntriples import to_nt_lines_batch
from ..sinks.rdfjson import parse_rdfjson_batch, serialize_rdfjson
from ..sinks.rdfxml import serialize_rdfxml
from ..sinks.squirtle import serialize_squirtle
from ..sinks.turtle import serialize_turtle
from ..sources.ntriples import parse_ntriples_batch
from ..sources.rdfa import extract_rdfa_batch
from ..sources.rdfxml import parse_rdfxml_batch
from ..sources.squirtle import parse_squirtle_batch
from ..sources.turtle import parse_turtle_batch
from ..stages.canon import (
    RewriteRule,
    coerce_literals_batch,
    rewrite_batch,
    split_prefix_arrays,
)
from ..stages.filter import filter_batch
from ..stages.grouping import exchange
from ..stages.materialize import dedup_exact, distinct_rows
from ..terms import IRI, TRIPLE_COLUMNS, XSD_NS, triples_to_table

DC_NS = "http://purl.org/dc/elements/1.1/"
_PREFIXES = {EX_NS: "ex", DC_NS: "dc"}


def _finalize(ds):
    """Project to the 12 term columns with BIGINT kinds (matches the
    oracle column types; the driver hashes values after sorting columns
    by name)."""

    def fn(b: pa.Table) -> pa.Table:
        cols = {}
        for name in TRIPLE_COLUMNS:
            col = b[name]
            if name.endswith("_kind"):
                col = pc.cast(col, pa.int64())
            cols[name] = col
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def _extract(sf_dir: str):
    return pages_dataset(sf_dir).map_batches(extract_rdfa_batch, batch_format="pyarrow")


def _deduped(sf_dir: str):
    return dedup_exact(_extract(sf_dir))


# ---------------------------------------------------------------------------
# Extraction core
# ---------------------------------------------------------------------------


def q_rdfa_extract(sf_dir: str):
    """S4: pages → triples, full multiset (duplicates preserved)."""
    return _finalize(_extract(sf_dir))


def q_dedup_exact(sf_dir: str):
    """A4: distinct triples via the skew-proof triple_hash shuffle."""
    return _finalize(_deduped(sf_dir))


def q_nt_lines(sf_dir: str):
    """K1: canonical N-Triples line per deduped triple (vectorized)."""
    return _deduped(sf_dir).map_batches(
        lambda b: pa.table({"line": pc.cast(to_nt_lines_batch(b)["line"], pa.string())}),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Serialize → parse round-trips (exercise each parser/serializer pair
# inside the distributed pipeline; batches are the document unit)
# ---------------------------------------------------------------------------


def _roundtrip(sf_dir: str, serialize, parse_batch):
    def ser(b: pa.Table) -> pa.Table:
        doc = serialize(b.select(TRIPLE_COLUMNS))
        return pa.table({"url": pa.array([""], pa.string()), "text": pa.array([doc], pa.string())})

    ds = _deduped(sf_dir).map_batches(ser, batch_format="pyarrow")
    ds = ds.map_batches(
        lambda b: parse_batch(b).select(TRIPLE_COLUMNS), batch_format="pyarrow"
    )
    return _finalize(ds)


def q_nt_roundtrip(sf_dir: str):
    """K1 → S1 round-trip."""
    from ..sinks.ntriples import serialize_ntriples

    return _roundtrip(sf_dir, serialize_ntriples, parse_ntriples_batch)


def q_turtle_roundtrip(sf_dir: str):
    """K4 → Turtle-subset parser round-trip (qname compaction on)."""
    return _roundtrip(
        sf_dir, lambda t: serialize_turtle(t, _PREFIXES), parse_turtle_batch
    )


def q_rdfxml_roundtrip(sf_dir: str):
    """K2 → S2 round-trip (type elision + re-emission)."""
    return _roundtrip(
        sf_dir, lambda t: serialize_rdfxml(t, _PREFIXES), parse_rdfxml_batch
    )


def _quad_roundtrip(sf_dir: str, serialize_doc, parse_batch):
    """Shared named-graph round-trip: each page's distinct triples
    become quads in the page-url graph; serialize → re-parse →
    flattened quads (graph_value + the 12 term columns) survive
    byte-exact."""
    from ..stages.materialize import distinct_rows

    distinct = distinct_rows(_extract(sf_dir), ["url"] + list(TRIPLE_COLUMNS))

    def ser(b: pa.Table) -> pa.Table:
        b = b.append_column(
            "graph_value", pc.cast(b["url"], pa.large_string())
        ).drop_columns(["url"])
        doc = serialize_doc(b)
        return pa.table(
            {
                "url": pa.array([""], pa.string()),
                "text": pa.array([doc], pa.string()),
            }
        )

    def reparse(b: pa.Table) -> pa.Table:
        t = parse_batch(b)
        cols = {"graph_value": pc.cast(t["graph_value"], pa.string())}
        for name in TRIPLE_COLUMNS:
            col = t[name]
            if name.endswith("_kind"):
                col = pc.cast(col, pa.int64())
            cols[name] = col
        return pa.table(cols)

    return distinct.map_batches(ser, batch_format="pyarrow").map_batches(
        reparse, batch_format="pyarrow"
    )


def q_nquads_roundtrip(sf_dir: str):
    """N-Quads named-graph round-trip (K1/S1's quad extension,
    sinks/nquads.py + sources/nquads.py)."""
    from ..sinks.nquads import serialize_nquads
    from ..sources.nquads import parse_nquads_batch

    return _quad_roundtrip(sf_dir, serialize_nquads, parse_nquads_batch)


def q_trig_roundtrip(sf_dir: str):
    """TriG named-graph round-trip (K4's quad twin, sinks/trig.py +
    sources/trig.py): page triples in page-url graph sections with
    qname compaction on."""
    from ..sinks.trig import serialize_trig
    from ..sources.trig import parse_trig_batch

    return _quad_roundtrip(
        sf_dir, lambda b: serialize_trig(b, _PREFIXES), parse_trig_batch
    )


def q_squirtle_roundtrip(sf_dir: str):
    """K5 → S3 round-trip (delete-on-inline nesting + name decls)."""
    return _roundtrip(
        sf_dir, lambda t: serialize_squirtle(t, _PREFIXES), parse_squirtle_batch
    )


def q_rdfjson_roundtrip(sf_dir: str):
    """K3 → RDF/JSON parser round-trip."""
    return _roundtrip(sf_dir, serialize_rdfjson, parse_rdfjson_batch)


def q_jsonld_roundtrip(sf_dir: str):
    """JSON-LD expanded-form round-trip (sinks/jsonld.py): node objects
    with @id/@type/value-object predicates survive serialize → parse
    byte-exact."""
    from ..sinks.jsonld import parse_jsonld_batch, serialize_jsonld

    return _roundtrip(sf_dir, serialize_jsonld, parse_jsonld_batch)


# ---------------------------------------------------------------------------
# Query-surface operators
# ---------------------------------------------------------------------------


def q_filter_pattern(sf_dir: str):
    """M1: Filter(s=None, p=dc:language, o=None) → (subj, lang) pairs."""
    ds = _deduped(sf_dir).map_batches(
        lambda b: filter_batch(b, p=IRI(DC_NS + "language")), batch_format="pyarrow"
    )
    ds = ds.map_batches(
        lambda b: pa.table(
            {
                "subj_value": pc.cast(b["subj_value"], pa.string()),
                "lang_value": pc.cast(b["obj_value"], pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    return distinct_rows(ds, ["subj_value", "lang_value"])


def q_rewrite_regex(sf_dir: str):
    """M4: regex rewrite of subject IRIs (RE2, vectorized)."""
    rule = RewriteRule(
        r"^https://kg\.example\.org/doc/", "https://entity.example.org/", ("subj",)
    )
    ds = _deduped(sf_dir).map_batches(
        lambda b: rewrite_batch(b, [rule]), batch_format="pyarrow"
    )
    ds = ds.map_batches(
        lambda b: pa.table(
            {"subj_value": pc.cast(b.filter(pc.equal(b["subj_kind"], 0))["subj_value"], pa.string())}
        ),
        batch_format="pyarrow",
    )
    return distinct_rows(ds, ["subj_value"])


def q_split_prefix(sf_dir: str):
    """M5: SplitPrefix over the distinct predicate URIs."""
    ds = _deduped(sf_dir).map_batches(
        lambda b: pa.table({"pred_value": pc.cast(b["pred_value"], pa.string())}),
        batch_format="pyarrow",
    )
    ds = distinct_rows(ds, ["pred_value"])

    def split(b: pa.Table) -> pa.Table:
        base, name = split_prefix_arrays(b["pred_value"])
        return pa.table(
            {
                "pred_value": b["pred_value"],
                "base": pc.cast(base, pa.string()),
                "local_name": pc.cast(name, pa.string()),
            }
        )

    return ds.map_batches(split, batch_format="pyarrow")


def q_kg_degree_topk(sf_dir: str):
    """KG analytics: top-20 graph nodes by total degree (appearances as
    subject plus as non-literal object) over the DISTINCT triple set.
    Combiner shape: per-batch node counts (shuffle volume = distinct
    nodes per batch), one small groupby, 20-row sort."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        subj = pa.table({"node": pc.cast(b["subj_value"], pa.string())})
        obj = pa.table({"node": pc.cast(b["obj_value"], pa.string())}).filter(
            pc.not_equal(pc.cast(b["obj_kind"], pa.int64()), 2)
        )
        counted = (
            pa.concat_tables([subj, obj])
            .group_by("node")
            .aggregate([("node", "count")])
        )
        return pa.table(
            {
                "node": pc.cast(counted["node"], pa.string()),
                "part": pc.cast(counted["node_count"], pa.int64()),
            }
        )

    out = (
        _deduped(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("part", alias_name="degree"))
    )
    return out.sort(["degree", "node"], descending=[True, False]).limit(20)


def q_kg_predicate_hist(sf_dir: str):
    """KG analytics: triple count per predicate over the DISTINCT
    triple set (the schema-usage histogram every KG build reports)."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        counted = (
            pa.table({"predicate": pc.cast(b["pred_value"], pa.string())})
            .group_by("predicate")
            .aggregate([("predicate", "count")])
        )
        return pa.table(
            {
                "predicate": pc.cast(counted["predicate"], pa.string()),
                "part": pc.cast(counted["predicate_count"], pa.int64()),
            }
        )

    return (
        _deduped(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("predicate")
        .aggregate(Sum("part", alias_name="n_triples"))
    )


def q_kg_predicate_align(sf_dir: str):
    """Ontology/schema alignment signal: Jaccard similarity of the
    SUBJECT sets of every predicate pair — predicates that describe
    the same entities are merge candidates when fusing KGs from
    independent sources.  Plan: ONE exchange builds the distinct
    (subject, predicate) set sort-colocated by subject, per-block
    pandas groupby emits predicate pairs (bounded by preds-per-subject
    squared, never subjects squared), ONE pair groupby counts the
    co-occurring subjects; per-predicate subject totals are
    schema-bounded (tens of rows) so they finish the score as a
    captured dict.  Jaccard = one exact-integer division → the oracle
    is IEEE-identical."""
    import pandas as pd

    from ray.data.aggregate import Count, Sum

    from ..stages.grouping import grouped_map

    def sp_rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s": pc.cast(b["subj_value"], pa.string()),
                "p": pc.cast(b["pred_value"], pa.string()),
            }
        )

    sp = (
        _deduped(sf_dir)
        .map_batches(sp_rows, batch_format="pyarrow")
        .groupby(["s", "p"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["s", "p"])
        .materialize()
    )

    pair_schema = pa.schema(
        [("pred_a", pa.string()), ("pred_b", pa.string()), ("part", pa.int64())]
    )

    def pairs(df: pd.DataFrame) -> pa.Table:
        # one subject per call: its predicate set pairs directly
        import numpy as np

        ps = np.sort(df["p"].to_numpy(dtype=object))
        if len(ps) < 2:
            return pair_schema.empty_table()
        i, j = np.triu_indices(len(ps), 1)
        return pa.table(
            {
                "pred_a": pa.array(ps[i], pa.string()),
                "pred_b": pa.array(ps[j], pa.string()),
                "part": pa.array(np.ones(len(i), np.int64), pa.int64()),
            }
        )

    common = grouped_map(sp, "s", pairs, batch_format="pandas").groupby(
        ["pred_a", "pred_b"]
    ).aggregate(Sum("part", alias_name="common"))

    # per-predicate distinct-subject totals: schema-bounded, tiny
    totals = {
        r["p"]: int(r["n_subj"])
        for r in sp.groupby("p").aggregate(Count(alias_name="n_subj")).take_all()
    }

    def score(b: pa.Table) -> pa.Table:
        import numpy as np

        na = np.array([totals[v] for v in b["pred_a"].to_pylist()], np.int64)
        nb = np.array([totals[v] for v in b["pred_b"].to_pylist()], np.int64)
        cm = pc.cast(b["common"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "pred_a": pc.cast(b["pred_a"], pa.string()),
                "pred_b": pc.cast(b["pred_b"], pa.string()),
                "common": pa.array(cm, pa.int64()),
                "jaccard": pa.array(
                    cm.astype(np.float64) / (na + nb - cm).astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return common.map_batches(score, batch_format="pyarrow")


def q_kg_temporal_fuse(sf_dir: str):
    """Temporal KG fusion (crawl-recency conflict resolution): a
    second crawl generation re-asserts dc:language = 'xx' for every
    4th document one day later; FUNCTIONAL properties (language,
    title, chars) resolve newest-observation-wins per (subject,
    predicate), while multi-valued properties (cites, site, type, …)
    keep their full distinct set — the recrawl must update exactly the
    changed values and nothing else
    (:func:`argo_ray.stages.temporal.latest_functional_fusion`)."""
    from ..pages import DC_NS, _TS_BASE_US
    from ..stages.temporal import latest_functional_fusion
    from ..terms import TRIPLE_COLUMNS

    day_us = 86_400_000_000

    def with_ts(b: pa.Table) -> pa.Table:
        # observation time rides the page url (ts = base + doc_id s)
        hit = pc.extract_regex(pc.cast(b["url"], pa.string()), r"/(?P<id>[0-9]+)$")
        ids = pc.cast(pc.struct_field(hit, "id"), pa.int64())
        ts = pc.add(
            pa.scalar(_TS_BASE_US, pa.int64()),
            pc.multiply(ids, pa.scalar(1_000_000, pa.int64())),
        )
        return b.select(TRIPLE_COLUMNS).append_column("_ts", ts)

    gen0 = _extract(sf_dir).map_batches(with_ts, batch_format="pyarrow")

    def gen1_claims(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        keep = pc.equal(
            pc.subtract(ids, pc.multiply(pc.divide(ids, 4), 4)),
            pa.scalar(0, pa.int64()),
        )
        ids = ids.filter(keep)
        n = len(ids)
        ents = pc.binary_join_element_wise(
            pa.array(["https://kg.example.org/doc/"] * n, pa.large_string()),
            pc.cast(ids, pa.large_string()),
            pa.scalar("", pa.large_string()),
        )
        ts = pc.add(
            pc.add(
                pa.scalar(_TS_BASE_US + day_us, pa.int64()),
                pc.multiply(pc.cast(ids, pa.int64()), pa.scalar(1_000_000, pa.int64())),
            ),
            pa.scalar(0, pa.int64()),
        )
        cols = {
            "subj_kind": pa.array([0] * n, pa.uint8()),
            "subj_value": pc.cast(ents, pa.large_string()),
            "subj_lang": pa.array([""] * n, pa.string()),
            "subj_datatype": pa.array([""] * n, pa.string()),
            "pred_kind": pa.array([0] * n, pa.uint8()),
            "pred_value": pa.array([DC_NS + "language"] * n, pa.large_string()),
            "pred_lang": pa.array([""] * n, pa.string()),
            "pred_datatype": pa.array([""] * n, pa.string()),
            "obj_kind": pa.array([2] * n, pa.uint8()),
            "obj_value": pa.array(["xx"] * n, pa.large_string()),
            "obj_lang": pa.array([""] * n, pa.string()),
            "obj_datatype": pa.array([""] * n, pa.string()),
        }
        return pa.table(cols).append_column("_ts", pc.cast(ts, pa.int64()))

    from ..io import read_table

    gen1 = read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        gen1_claims, batch_format="pyarrow"
    )

    fused = latest_functional_fusion(
        gen0.union(gen1),
        "_ts",
        [DC_NS + "language", DC_NS + "title", EX_NS + "chars"],
    )
    return _finalize(fused)


def _kg_link_edges(sf_dir: str):
    """Distinct (subject → non-literal object) edge set of the KG."""
    from ray.data.aggregate import Count

    def links(b: pa.Table) -> pa.Table:
        m = b.filter(pc.not_equal(pc.cast(b["obj_kind"], pa.int64()), 2))
        return pa.table(
            {
                "src": pc.cast(m["subj_value"], pa.string()),
                "dst": pc.cast(m["obj_value"], pa.string()),
            }
        )

    return (
        _deduped(sf_dir)
        .map_batches(links, batch_format="pyarrow")
        .groupby(["src", "dst"])
        .aggregate(Count(alias_name="_n"))  # distinct edges
        .select_columns(["src", "dst"])
    )


def q_kg_degree_gini(sf_dir: str):
    """Hub-skew in ONE number: the Gini coefficient of undirected node
    degrees over the KG link graph — the quantity every shuffle-skew
    argument in this repo gestures at, computed exactly (integer
    degree sums, ranks from one sort on a zero-padded (degree, node)
    key + block-offset prefix sums, shared float finish)."""
    import numpy as np

    from ray.data.aggregate import Count, Sum

    from ..functions.packing import running_total

    edges = _kg_link_edges(sf_dir)
    deg = (
        edges.map_batches(
            lambda b: pa.concat_tables(
                [
                    pa.table({"node": pc.cast(b["src"], pa.string())}),
                    pa.table({"node": pc.cast(b["dst"], pa.string())}),
                ]
            ),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Count(alias_name="degree"))
    )

    def keyed_ones(b: pa.Table) -> pa.Table:
        d = pc.cast(b["degree"], pa.int64()).to_pylist()
        nodes = b["node"].to_pylist()
        return pa.table(
            {
                "order_key": pa.array(
                    [f"{dd:010d}-{n}" for dd, n in zip(d, nodes)],
                    pa.string(),
                ),
                "degree": pa.array(d, pa.int64()),
                "one": pa.array([1] * len(d), pa.int64()),
            }
        )

    ranked = running_total(
        deg.map_batches(keyed_ones, batch_format="pyarrow"),
        order_col="order_key",
        value_col="one",
        out_col="rank",
    )

    def sums(b: pa.Table) -> pa.Table:
        r = b["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = b["degree"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "s1": pa.array([int((r * x).sum())], pa.int64()),
                "s": pa.array([int(x.sum())], pa.int64()),
                "n": pa.array([len(x)], pa.int64()),
            }
        )

    agg = ranked.map_batches(sums, batch_format="pyarrow").aggregate(
        Sum("s1", alias_name="s1"),
        Sum("s", alias_name="s"),
        Sum("n", alias_name="n"),
    )
    s1, s, n = int(agg["s1"]), int(agg["s"]), int(agg["n"])
    gini = round(2.0 * s1 / (n * s) - (n + 1.0) / n, 6)
    return pa.table(
        {
            "gini_degree": pa.array([gini], pa.float64()),
            "n_nodes": pa.array([n], pa.int64()),
            "n_degree_sum": pa.array([s], pa.int64()),
        }
    )


def q_microdata_extract(sf_dir: str):
    """HTML5 microdata extraction (schema.org Article pages built
    deterministically from the documents rows): itemscope/itemid
    subjects, itemtype → rdf:type, content/href/text-node property
    values, relative itemprop resolution against the item's type
    namespace, nested anonymous item → skolemized blank node — the
    second annotation syntax next to the RDFa flagship
    (:mod:`argo_ray.sources.microdata`).  6 triples per page, all
    reconstructed relationally by the oracle."""
    from ..io import read_table
    from ..pages import synth_microdata_batch
    from ..sources.microdata import extract_microdata_batch

    pages = read_table(
        sf_dir, "documents", columns=["doc_id", "text", "lang", "source"]
    ).map_batches(synth_microdata_batch, batch_format="pyarrow")
    return _finalize(
        pages.map_batches(extract_microdata_batch, batch_format="pyarrow")
    )


def q_jsonld_extract(sf_dir: str):
    """Embedded JSON-LD extraction: pages carry
    ``<script type="application/ld+json">`` blocks (one Article node
    per page, plus a POISON block with truncated JSON on every 9th
    page that must quarantine without dropping the good block) —
    the dominant structured-data syntax on today's web
    (:mod:`argo_ray.sources.jsonld_html`).  3 triples per page."""
    from ..io import read_table
    from ..pages import synth_jsonld_batch
    from ..sources.jsonld_html import extract_jsonld_batch

    pages = read_table(
        sf_dir, "documents", columns=["doc_id", "text", "source"]
    ).map_batches(synth_jsonld_batch, batch_format="pyarrow")
    return _finalize(
        pages.map_batches(extract_jsonld_batch, batch_format="pyarrow")
    )


def q_kg_degree_hist(sf_dir: str):
    """Degree-distribution histogram of the undirected link graph
    (count of nodes per degree — THE power-law report every web-graph
    paper opens with): degree groupby → count-of-counts, two small
    exchanges, all integers."""
    from ray.data.aggregate import Count

    edges = _kg_link_edges(sf_dir)

    def both_dirs(b: pa.Table) -> pa.Table:
        s = pc.cast(b["src"], pa.string())
        d = pc.cast(b["dst"], pa.string())
        t = pa.concat_tables(
            [pa.table({"a": s, "b": d}), pa.table({"a": d, "b": s})]
        )
        return t.filter(pc.not_equal(t["a"], t["b"]))

    deg = (
        edges.map_batches(both_dirs, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"))
        .groupby("a")
        .aggregate(Count(alias_name="degree"))
    )
    return (
        deg.groupby("degree")
        .aggregate(Count(alias_name="n_nodes"))
        .map_batches(
            lambda b: pa.table(
                {
                    "degree": pc.cast(b["degree"], pa.int64()),
                    "n_nodes": pc.cast(b["n_nodes"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def q_kg_reciprocity(sf_dir: str):
    """Directed-graph reciprocity (the mutual-link fraction — near 0
    on citation-style web graphs, near 1 on social graphs): edges
    whose reverse also exists / all distinct edges.  ONE pair-keyed
    groupby over forward rows + reverse-marker rows (exact integers),
    one double division rounded to 6."""
    from ray.data.aggregate import Max

    edges = _kg_link_edges(sf_dir)

    def tagged(b: pa.Table) -> pa.Table:
        s = pc.cast(b["src"], pa.string())
        d = pc.cast(b["dst"], pa.string())
        fwd = pa.table(
            {
                "a": s, "b": d,
                "f": pa.array([1] * b.num_rows, pa.int64()),
                "r": pa.array([0] * b.num_rows, pa.int64()),
            }
        )
        rev = pa.table(
            {
                "a": d, "b": s,
                "f": pa.array([0] * b.num_rows, pa.int64()),
                "r": pa.array([1] * b.num_rows, pa.int64()),
            }
        )
        t = pa.concat_tables([fwd, rev])
        return t.filter(pc.not_equal(t["a"], t["b"]))  # self-loops out

    pairs = (
        edges.map_batches(tagged, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Max("f", alias_name="fwd"), Max("r", alias_name="rev"))
    )

    def moments(b: pa.Table) -> pa.Table:
        f = pc.cast(b["fwd"], pa.int64())
        r = pc.cast(b["rev"], pa.int64())
        both = pc.cast(pc.and_(pc.equal(f, 1), pc.equal(r, 1)), pa.int64())
        return pa.table(
            {
                "n_edges": pa.array([pc.sum(f).as_py() or 0], pa.int64()),
                "n_recip": pa.array([pc.sum(both).as_py() or 0], pa.int64()),
            }
        )

    parts = pairs.map_batches(moments, batch_format="pyarrow").take_all()
    n_edges = sum(p["n_edges"] for p in parts)
    n_recip = sum(p["n_recip"] for p in parts)
    ratio = round(n_recip / n_edges, 6) if n_edges else 0.0
    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_reciprocal": pa.array([n_recip], pa.int64()),
            "reciprocity": pa.array([ratio], pa.float64()),
        }
    )


def q_kg_cross_syntax_er(sf_dir: str):
    """Cross-source entity resolution over the multi-syntax graph: the
    RDFa extraction names a document entity via dc:title and the
    microdata extraction names ITS entity via schema:headline — both
    literals derive from the same text, so equal titles are the
    blocking key and every cross-namespace pair in a block is a
    sameAs candidate.  ONE
    title-keyed sort exchange; per-block pair volume is bounded by the
    title-collision rate.  The oracle replays the exact join,
    collisions included."""
    import pandas as pd

    from ..pages import DC_NS
    from ..stages.grouping import grouped_map

    SCHEMA = "https://schema.org/"
    preds = pa.array(
        [DC_NS + "title", SCHEMA + "headline"], pa.large_string()
    )

    def titled(b: pa.Table) -> pa.Table:
        m = b.filter(
            pc.is_in(pc.cast(b["pred_value"], pa.large_string()), value_set=preds)
        )
        return pa.table(
            {
                "title": pc.cast(m["obj_value"], pa.string()),
                "is_md": pc.cast(
                    pc.equal(
                        pc.cast(m["pred_value"], pa.large_string()),
                        pa.scalar(SCHEMA + "headline", pa.large_string()),
                    ),
                    pa.int64(),
                ),
                "entity": pc.cast(m["subj_value"], pa.string()),
            }
        )

    rows = q_kg_multisyntax_build(sf_dir).map_batches(
        titled, batch_format="pyarrow"
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        a = sorted(g.loc[g["is_md"] == 0, "entity"])
        b = sorted(g.loc[g["is_md"] == 1, "entity"])
        if not a or not b:
            return pd.DataFrame()
        return pd.DataFrame(
            [(x, y) for x in a for y in b], columns=["entity_a", "entity_b"]
        )

    return grouped_map(rows, "title", pairs)


def q_kg_literal_hist(sf_dir: str):
    """Literal-shape histogram (the VoID-style datatype/lang report):
    count of literal objects per (datatype, lang) over the deduped
    graph — per-batch partials, ONE small groupby."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        m = b.filter(pc.equal(pc.cast(b["obj_kind"], pa.int64()), 2))
        g = pa.table(
            {
                "datatype": pc.cast(m["obj_datatype"], pa.string()),
                "lang": pc.cast(m["obj_lang"], pa.string()),
            }
        ).group_by(["datatype", "lang"]).aggregate([("datatype", "count")])
        return pa.table(
            {
                "datatype": pc.cast(g["datatype"], pa.string()),
                "lang": pc.cast(g["lang"], pa.string()),
                "n_part": pc.cast(g["datatype_count"], pa.int64()),
            }
        )

    return (
        _deduped(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["datatype", "lang"])
        .aggregate(Sum("n_part", alias_name="n_literals"))
    )


def q_kg_key_detect(sf_dir: str):
    """Inverse-functional-property detection (the KEY-discovery step
    that powers entity resolution: a property whose every value
    identifies at most one subject is a merge key): per predicate —
    distinct objects, the MAX subjects sharing one object, and the
    is_key flag.  One (pred, obj) distinct-subject exchange with
    per-batch partials, then a per-predicate max — all integers."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from ..stages.grouping import grouped_map

    base = _deduped(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "p": pc.cast(b["pred_value"], pa.string()),
                "o": pc.cast(b["obj_value"], pa.string()),
                "s": pc.cast(b["subj_value"], pa.string()),
            }
        ).group_by(["p", "o", "s"]).aggregate([("s", "count")])
        return pa.table(
            {
                "p": pc.cast(g["p"], pa.string()),
                "o": pc.cast(g["o"], pa.string()),
                "s": pc.cast(g["s"], pa.string()),
                "one": pa.array([1] * g.num_rows, pa.int64()),
            }
        )

    pos = (
        base.map_batches(partial, batch_format="pyarrow")
        .groupby(["p", "o", "s"])
        .aggregate(Sum("one", alias_name="_n"))
        .select_columns(["p", "o"])
    )
    # distinct subjects per (pred, obj)
    from ray.data.aggregate import Count

    per_obj = pos.groupby(["p", "o"]).aggregate(Count(alias_name="n_subj"))

    def reduce_pred(g: pd.DataFrame) -> pd.DataFrame:
        mx = int(g["n_subj"].max())
        return pd.DataFrame(
            {
                "predicate": [g["p"].iloc[0]],
                "n_objects": [int(len(g))],
                "max_subj_per_obj": [mx],
                "is_key": [int(mx == 1)],
            }
        )

    return grouped_map(per_obj, "p", reduce_pred)


def q_kg_type_cooccur(sf_dir: str):
    """Type co-occurrence over the RDFS-INFERRED graph (ontology
    overlap report: which classes share instances once subclass /
    domain / range entailments materialize): distinct (entity, type)
    pairs → per-entity type-pair generation in sort-colocated blocks
    (bounded by types-per-entity squared) → ONE pair groupby.  The
    oracle reuses the rdfs-inference oracle as a CTE, so the two can
    never drift."""
    import pandas as pd

    from ray.data.aggregate import Count, Sum

    from ..stages.grouping import grouped_map

    RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

    types = (
        q_kg_rdfs_infer(sf_dir)
        .map_batches(
            lambda b: (
                lambda m: pa.table(
                    {
                        "s": pc.cast(m["subj_value"], pa.string()),
                        "t": pc.cast(m["obj_value"], pa.string()),
                    }
                )
            )(
                b.filter(
                    pc.equal(pc.cast(b["pred_value"], pa.string()), RDF_TYPE)
                )
            ),
            batch_format="pyarrow",
        )
        .groupby(["s", "t"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["s", "t"])
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ts = sorted(g["t"])
        if len(ts) < 2:
            return pd.DataFrame()
        rows = [
            {"type_a": a, "type_b": b, "n_part": 1}
            for i, a in enumerate(ts)
            for b in ts[i + 1 :]
        ]
        return pd.DataFrame(rows)

    return (
        grouped_map(types, "s", pairs)
        .groupby(["type_a", "type_b"])
        .aggregate(Sum("n_part", alias_name="n_entities"))
    )


def q_kg_schema_induce(sf_dir: str):
    """Schema induction (the TBox-mining step when a crawl has no
    ontology): for every non-type predicate, the MODAL rdf:type of its
    subjects — the empirical domain an engineer would declare.  Plan:
    the (entity → type) map rides an exchange join onto the
    triple stream keyed by subject (marker-join shape, no broadcast),
    then (pred, type) counts → per-predicate argmax (count desc, type
    asc).  All integers until the final pick."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from ..stages.grouping import grouped_map

    RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    base = _deduped(sf_dir).materialize()

    types = base.map_batches(
        lambda b: (
            lambda m: pa.table(
                {
                    "key": pc.cast(m["subj_value"], pa.string()),
                    "ty": pc.cast(m["obj_value"], pa.string()),
                    "pred": pa.nulls(m.num_rows, pa.string()),
                    "_m": pa.array([1] * m.num_rows, pa.int64()),
                }
            )
        )(
            b.filter(
                pc.equal(pc.cast(b["pred_value"], pa.string()), RDF_TYPE)
            )
        ),
        batch_format="pyarrow",
    )
    facts = base.map_batches(
        lambda b: (
            lambda m: pa.table(
                {
                    "key": pc.cast(m["subj_value"], pa.string()),
                    "ty": pa.nulls(m.num_rows, pa.string()),
                    "pred": pc.cast(m["pred_value"], pa.string()),
                    "_m": pa.array([0] * m.num_rows, pa.int64()),
                }
            )
        )(
            b.filter(
                pc.not_equal(pc.cast(b["pred_value"], pa.string()), RDF_TYPE)
            )
        ),
        batch_format="pyarrow",
    )

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        tys = sorted(g.loc[g["_m"] == 1, "ty"].dropna())
        preds = g.loc[g["_m"] == 0, "pred"].dropna()
        if not tys or len(preds) == 0:
            return pd.DataFrame()
        # multi-typed subjects contribute one count per type
        out = [
            {"pred": p, "ty": t, "n_part": 1} for p in preds for t in tys
        ]
        return pd.DataFrame(out)

    counts = (
        grouped_map(types.union(facts), "key", attach)
        .groupby(["pred", "ty"])
        .aggregate(Sum("n_part", alias_name="n"))
    )

    def modal(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "ty"], ascending=[False, True], kind="mergesort")
        top = g.head(1)
        return pd.DataFrame(
            {
                "predicate": [top["pred"].iloc[0]],
                "domain_type": [top["ty"].iloc[0]],
                "support": [int(top["n"].iloc[0])],
            }
        )

    return grouped_map(counts, "pred", modal)


def q_kg_dangling_refs(sf_dir: str):
    """Dangling-reference report (KG QA / crawl-frontier seed): IRI
    objects that never appear as a subject — entities the graph points
    at but says nothing about, i.e. the next extraction targets.
    Marker anti-join shape: object rows (m=0) union subject rows (m=1)
    into ONE groupby(node); survivors have no subject marker.  Output
    (node, n_refs) with the reference count."""
    from ray.data.aggregate import Sum

    base = _deduped(sf_dir)

    def rows(b: pa.Table) -> pa.Table:
        objs = b.filter(
            pc.equal(pc.cast(b["obj_kind"], pa.int64()), 0)  # IRI objects
        )
        o = pa.table(
            {
                "node": pc.cast(objs["obj_value"], pa.string()),
                "n": pa.array([1] * objs.num_rows, pa.int64()),
                "m": pa.array([0] * objs.num_rows, pa.int64()),
            }
        )
        s = pa.table(
            {
                "node": pc.cast(b["subj_value"], pa.string()),
                "n": pa.array([0] * b.num_rows, pa.int64()),
                "m": pa.array([1] * b.num_rows, pa.int64()),
            }
        )
        return pa.concat_tables([o, s])

    return (
        base.map_batches(rows, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("n", alias_name="n_refs"), Sum("m", alias_name="_subj"))
        .map_batches(
            lambda b: b.filter(
                pc.and_(
                    pc.equal(pc.cast(b["_subj"], pa.int64()), 0),
                    pc.greater(pc.cast(b["n_refs"], pa.int64()), 0),
                )
            ).select(["node", "n_refs"]),
            batch_format="pyarrow",
        )
    )


def q_docs_length_hist(sf_dir: str):
    """Document-length histogram in log2 buckets (the datasheet's
    length plot): bucket = floor(log2(n_chars)) computed EXACTLY via
    the float64 exponent (``np.frexp``; the oracle uses the binary
    digit count — both are integer-exact, unlike a raw ``log2`` whose
    libm rounding can disagree at power-of-two boundaries).  Per-batch
    partials before ONE bucket groupby."""
    from ray.data.aggregate import Sum

    from ..io import read_table

    def partial(b: pa.Table) -> pa.Table:
        import numpy as np

        n = pc.cast(b["n_chars"], pa.int64()).to_numpy(zero_copy_only=False)
        _, exp = np.frexp(np.maximum(n, 1).astype(np.float64))
        bucket = np.where(n > 0, (exp - 1).astype(np.int64), -1)
        g = pa.table({"bucket": pa.array(bucket, pa.int64())}).group_by(
            "bucket"
        ).aggregate([("bucket", "count")])
        return pa.table(
            {
                "bucket": pc.cast(g["bucket"], pa.int64()),
                "n_part": pc.cast(g["bucket_count"], pa.int64()),
            }
        )

    return (
        read_table(sf_dir, "documents", columns=["n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n_part", alias_name="n_docs"))
    )


def q_kg_property_profile(sf_dir: str):
    """Per-property cardinality profile (VoID's partition-level
    companion; drives functional-property detection and index
    choices): per predicate — triple count, distinct subjects,
    distinct objects.  ONE (pred, subj)-distinct pass and ONE
    (pred, obj)-distinct pass, each pre-combined per batch, then tiny
    per-predicate reduces — all integers."""
    import pandas as pd

    from ray.data.aggregate import Count, Sum

    from ..stages.grouping import grouped_map

    base = _deduped(sf_dir).materialize()

    def counted(col: str, out: str):
        def partial(b: pa.Table) -> pa.Table:
            g = pa.table(
                {
                    "p": pc.cast(b["pred_value"], pa.string()),
                    "v": pc.cast(b[col], pa.string()),
                }
            ).group_by(["p", "v"]).aggregate([("v", "count")])
            return pa.table(
                {
                    "p": pc.cast(g["p"], pa.string()),
                    "v": pc.cast(g["v"], pa.string()),
                    "n_part": pc.cast(g["v_count"], pa.int64()),
                }
            )

        pv = (
            base.map_batches(partial, batch_format="pyarrow")
            .groupby(["p", "v"])
            .aggregate(Sum("n_part", alias_name="n"))
        )

        def reduce_p(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "predicate": [g["p"].iloc[0]],
                    out: [int(len(g))],
                    f"_t_{out}": [int(g["n"].sum())],
                }
            )

        return grouped_map(pv, "p", reduce_p)

    subj = counted("subj_value", "n_subjects")
    obj = counted("obj_value", "n_objects")
    # both sides are predicate-bounded (tens of rows): merge driver-side
    s = {r["predicate"]: r for r in subj.take_all()}
    o = {r["predicate"]: r for r in obj.take_all()}
    preds = sorted(s)
    return pa.table(
        {
            "predicate": pa.array(preds, pa.string()),
            "n_triples": pa.array(
                [int(s[p]["_t_n_subjects"]) for p in preds], pa.int64()
            ),
            "n_subjects": pa.array(
                [int(s[p]["n_subjects"]) for p in preds], pa.int64()
            ),
            "n_objects": pa.array(
                [int(o[p]["n_objects"]) for p in preds], pa.int64()
            ),
        }
    )


def q_kg_void_stats(sf_dir: str):
    """VoID dataset descriptor (the W3C self-description every
    published KG ships): triple count plus exact distinct subjects /
    objects / properties / classes over the deduped graph.  Each
    distinct count is its own groupby exchange over ONE narrow column
    (the per-batch partial-distinct combiner bounds shuffle volume by
    per-batch uniques); the five scalars join driver-side."""
    from ray.data.aggregate import Count

    base = _deduped(sf_dir).materialize()
    n_triples = base.count()

    def distinct_count(col_fn, name: str) -> int:
        def partial(b: pa.Table) -> pa.Table:
            vals = col_fn(b)
            g = pa.table({"v": pc.cast(vals, pa.string())}).group_by("v").aggregate(
                [("v", "count")]
            )
            return pa.table({"v": pc.cast(g["v"], pa.string())})

        return (
            base.map_batches(partial, batch_format="pyarrow")
            .groupby("v")
            .aggregate(Count(alias_name="_n"))
            .count()
        )

    n_subjects = distinct_count(lambda b: b["subj_value"], "subjects")
    n_objects = distinct_count(
        lambda b: b.filter(
            pc.not_equal(pc.cast(b["obj_kind"], pa.int64()), 2)
        )["obj_value"],
        "objects",
    )
    n_properties = distinct_count(lambda b: b["pred_value"], "properties")
    n_classes = distinct_count(
        lambda b: b.filter(
            pc.equal(
                pc.cast(b["pred_value"], pa.string()),
                pa.scalar(
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                    pa.string(),
                ),
            )
        )["obj_value"],
        "classes",
    )
    return pa.table(
        {
            "n_triples": pa.array([n_triples], pa.int64()),
            "n_subjects": pa.array([n_subjects], pa.int64()),
            "n_objects": pa.array([n_objects], pa.int64()),
            "n_properties": pa.array([n_properties], pa.int64()),
            "n_classes": pa.array([n_classes], pa.int64()),
        }
    )


def q_kg_multisyntax_build(sf_dir: str):
    """Multi-syntax KG construction fan-in — the capstone composition
    of this tier: RDFa pages, microdata pages and embedded-JSON-LD
    pages each stream through their own extractor, the three triple
    streams union, and ONE skew-proof triple-hash dedup materializes
    the merged graph.  Each syntax contributes a disjoint entity
    namespace here, so the expected graph is the exact union of the
    three per-syntax oracles — at real crawl scale the same plan fuses
    overlapping assertions for free (dedup collapses them)."""
    from ..stages.materialize import dedup_exact

    from ..terms import cast_triple_schema

    rdfa = _extract(sf_dir).map_batches(
        lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
    )
    micro = q_microdata_extract(sf_dir)
    ld = q_jsonld_extract(sf_dir)

    unioned = (
        rdfa.map_batches(cast_triple_schema, batch_format="pyarrow")
        .union(micro.map_batches(cast_triple_schema, batch_format="pyarrow"))
        .union(ld.map_batches(cast_triple_schema, batch_format="pyarrow"))
    )
    return _finalize(dedup_exact(unioned))


def q_pages_change_detect(sf_dir: str):
    """Incremental-crawl change detection: two crawl generations hash
    their page bytes (two independent 64-bit vectorized passes = a
    128-bit content fingerprint, the exact-dedup fast-path trade) and
    ONE groupby(url) over the narrow (url, h1, h2) rows flags the
    pages whose content changed — the re-extraction work list of an
    incremental KG build.  The second generation changes every 4th
    document's language, so exactly those URLs must surface."""
    from ray.data.aggregate import Max, Min

    from ..io import read_table
    from ..pages import synth_pages_batch
    from ..terms import hash64

    gen0 = pages_dataset(sf_dir)

    def mutate(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        changed = pc.equal(
            pc.subtract(ids, pc.multiply(pc.divide(ids, 4), 4)),
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {
                "doc_id": ids,
                "text": pc.cast(b["text"], pa.string()),
                "lang": pc.if_else(
                    changed, pa.scalar("xx", pa.string()),
                    pc.cast(b["lang"], pa.string()),
                ),
                "source": pc.cast(b["source"], pa.string()),
                "n_chars": pc.cast(b["n_chars"], pa.int64()),
            }
        )

    gen1 = (
        read_table(sf_dir, "documents")
        .map_batches(mutate, batch_format="pyarrow")
        .map_batches(synth_pages_batch, batch_format="pyarrow")
    )

    def hrows(b: pa.Table) -> pa.Table:
        import numpy as np

        html_s = pc.cast(b["html"], pa.large_string())

        def as_i64(arr):
            # bit-reinterpret uint64 → int64: Ray's groupby aggregates
            # round-trip values through Python ints and overflow on
            # uint64 above 2^63
            return pa.array(
                np.asarray(arr, dtype=np.uint64).view(np.int64), pa.int64()
            )

        return pa.table(
            {
                "url": pc.cast(b["url"], pa.string()),
                "h1": as_i64(hash64(html_s, seed=0)),
                "h2": as_i64(hash64(html_s, seed=1)),
            }
        )

    hashed = gen0.map_batches(hrows, batch_format="pyarrow").union(
        gen1.map_batches(hrows, batch_format="pyarrow")
    )
    return (
        hashed.groupby("url")
        .aggregate(
            Min("h1", alias_name="h1min"),
            Max("h1", alias_name="h1max"),
            Min("h2", alias_name="h2min"),
            Max("h2", alias_name="h2max"),
        )
        .map_batches(
            lambda b: b.filter(
                pc.or_(
                    pc.not_equal(b["h1min"], b["h1max"]),
                    pc.not_equal(b["h2min"], b["h2max"]),
                )
            ).select(["url"]),
            batch_format="pyarrow",
        )
    )


RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"


def _kg_schema() -> pa.Table:
    """The inline TBox for the extracted KG: class chain Document <
    Work < Thing, Mention < Annotation, domains/ranges for cites and
    dc:title, ex:label < rdfs:label."""
    rows = [
        (EX_NS + "Document", RDFS_NS + "subClassOf", EX_NS + "Work"),
        (EX_NS + "Work", RDFS_NS + "subClassOf", EX_NS + "Thing"),
        (EX_NS + "Mention", RDFS_NS + "subClassOf", EX_NS + "Annotation"),
        (EX_NS + "cites", RDFS_NS + "domain", EX_NS + "CitingAgent"),
        (EX_NS + "cites", RDFS_NS + "range", EX_NS + "Work"),
        (DC_NS + "title", RDFS_NS + "domain", EX_NS + "Titled"),
        (EX_NS + "label", RDFS_NS + "subPropertyOf", RDFS_NS + "label"),
    ]
    return pa.table(
        {
            "s": pa.array([r[0] for r in rows], pa.string()),
            "p": pa.array([r[1] for r in rows], pa.string()),
            "o": pa.array([r[2] for r in rows], pa.string()),
        }
    )


def q_kg_entity_cards(sf_dir: str):
    """Entity summarization (the "entity card" top-facts problem,
    cf. the public RELIN/FACES line of work reduced to its core
    ranking): for each subject keep its 3 most INFORMATIVE facts,
    informativeness = global predicate rarity (ascending triple count,
    i.e. rare predicates first), ties by predicate IRI then object
    value.  Global predicate counts are schema-bounded → broadcast by
    closure; the per-subject top-3 rides ONE sort exchange
    (grouped_map) with a vectorized in-block sort."""
    import pandas as pd

    from ..stages.grouping import grouped_map

    deduped = _deduped(sf_dir).materialize()  # counts pass + ranking pass

    def pred_partial(b: pa.Table) -> pa.Table:
        g = (
            pa.table({"p": pc.cast(b["pred_value"], pa.string())})
            .group_by("p")
            .aggregate([("p", "count")])
        )
        return pa.table(
            {
                "p": pc.cast(g["p"], pa.string()),
                "n_part": pc.cast(g["p_count"], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    counts = {
        r["p"]: int(r["n"])
        for r in deduped.map_batches(pred_partial, batch_format="pyarrow")
        .groupby("p")
        .aggregate(Sum("n_part", alias_name="n"))
        .take_all()  # schema-bounded: one row per predicate
    }

    def slim(b: pa.Table) -> pa.Table:
        rarity = pa.array(
            [counts[p] for p in pc.cast(b["pred_value"], pa.string()).to_pylist()],
            pa.int64(),
        )
        return pa.table(
            {
                "subj": pc.cast(b["subj_value"], pa.string()),
                "pred": pc.cast(b["pred_value"], pa.string()),
                "obj": pc.cast(b["obj_value"], pa.string()),
                "rarity": rarity,
            }
        )

    def top3(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["rarity", "pred", "obj"]).head(3)
        g = g.reset_index(drop=True)
        g["rank"] = g.index.astype("int64") + 1
        return g[["subj", "rank", "pred", "obj"]]

    return grouped_map(
        deduped.map_batches(slim, batch_format="pyarrow"), "subj", top3
    )


def q_kg_fill_rates(sf_dir: str):
    """Per-class property fill rates — the KG-completeness datasheet
    (for each (type, predicate): what fraction of that class's
    entities carry the predicate; the number a KG curator reads before
    trusting a property for downstream features).  ONE sort exchange
    co-groups each subject's type rows with its predicate rows
    (grouped_map), per-subject distinct pairs emit unit partials, one
    tiny (type, pred) groupby sums them; the final rate division runs
    over the schema-bounded result (|types|x|preds| rows)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from ..stages.grouping import grouped_map

    RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

    def tag(b: pa.Table) -> pa.Table:
        is_type = pc.and_(
            pc.equal(
                pc.cast(b["pred_value"], pa.large_string()),
                pa.scalar(RDF_TYPE, pa.large_string()),
            ),
            pc.equal(pc.cast(b["obj_kind"], pa.int64()), pa.scalar(0, pa.int64())),
        )
        t = b.filter(is_type)
        typ_rows = pa.table(
            {
                "s": pc.cast(t["subj_value"], pa.string()),
                "kind": pa.array(["t"] * t.num_rows, pa.string()),
                "val": pc.cast(t["obj_value"], pa.string()),
            }
        )
        p_rows = pa.table(
            {
                "s": pc.cast(b["subj_value"], pa.string()),
                "kind": pa.array(["p"] * b.num_rows, pa.string()),
                "val": pc.cast(b["pred_value"], pa.string()),
            }
        )
        return pa.concat_tables([typ_rows, p_rows])

    def per_subject(g: pd.DataFrame) -> pd.DataFrame:
        typs = sorted(set(g.loc[g["kind"] == "t", "val"]))
        preds = sorted(set(g.loc[g["kind"] == "p", "val"]))
        if not typs:
            return pd.DataFrame({"type": [], "pred": [], "one": []})
        out_t, out_p = [], []
        for typ in typs:
            out_t.append(typ)
            out_p.append("")  # denominator marker: one per (type, subject)
            for p in preds:
                out_t.append(typ)
                out_p.append(p)
        return pd.DataFrame(
            {"type": out_t, "pred": out_p, "one": [1] * len(out_t)}
        )

    tagged = _deduped(sf_dir).map_batches(tag, batch_format="pyarrow")
    agg = (
        grouped_map(tagged, "s", per_subject)
        .groupby(["type", "pred"])
        .aggregate(Sum("one", alias_name="n"))
    )
    rows = agg.take_all()  # schema-bounded: |types| x (|preds|+1) rows
    den = {r["type"]: r["n"] for r in rows if r["pred"] == ""}
    out_rows = [r for r in rows if r["pred"] != ""]
    out_rows.sort(key=lambda r: (r["type"], r["pred"]))
    return pa.table(
        {
            "type": pa.array([r["type"] for r in out_rows], pa.string()),
            "pred": pa.array([r["pred"] for r in out_rows], pa.string()),
            "n_entities": pa.array(
                [int(den[r["type"]]) for r in out_rows], pa.int64()
            ),
            "n_with": pa.array([int(r["n"]) for r in out_rows], pa.int64()),
            "fill_rate": pa.array(
                [round(int(r["n"]) / int(den[r["type"]]), 6) for r in out_rows],
                pa.float64(),
            ),
        }
    )


def q_kg_blank_canon(sf_dir: str):
    """Structural canonical labels for the KG's blank nodes (color
    refinement; the graph-equality semantics of the reference's
    bijection search at /root/reference/graph.go:231-253, made
    scalable).  Fixture blanks carry only ground features so the
    oracle is the ground-feature hash; blank-blank refinement is
    exercised by the differential unit test
    (tests/test_stages.py)."""
    from ..stages.canon import blank_canonical_labels

    return blank_canonical_labels(_deduped(sf_dir))


def q_kg_rdfs_infer(sf_dir: str):
    """RDFS forward chaining over the extracted KG under the inline
    TBox (:mod:`argo_ray.stages.reason`): one broadcast-LUT entailment
    pass (closures pre-composed driver-side) + the skew-proof dedup —
    subclass chains, domain/range typing and subproperty lifting all
    land in one exchange."""
    from ..stages.reason import rdfs_infer

    base = _deduped(sf_dir).map_batches(
        lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
    )
    return _finalize(rdfs_infer(base, _kg_schema()))


def _owl_schema() -> pa.Table:
    """The OWL property-axiom TBox for the extracted KG: cites/citedBy
    inverses, symmetric ex:site, transitive ex:next (the synthetic
    50-doc chains), and the length-2 chain citesSite = cites ∘ site
    with its own inverse (exercises the post-closure inv/sym pass)."""
    from ..stages.reason import (
        OWL_CHAIN,
        OWL_INVERSE,
        OWL_SYMMETRIC,
        OWL_TRANSITIVE,
        RDF_FIRST,
        RDF_NIL,
        RDF_REST,
    )
    from ..terms import RDF_TYPE

    rows = [
        (EX_NS + "cites", OWL_INVERSE, EX_NS + "citedBy"),
        (EX_NS + "site", RDF_TYPE, OWL_SYMMETRIC),
        (EX_NS + "next", RDF_TYPE, OWL_TRANSITIVE),
        (EX_NS + "citesSite", OWL_CHAIN, "_:c1"),
        ("_:c1", RDF_FIRST, EX_NS + "cites"),
        ("_:c1", RDF_REST, "_:c2"),
        ("_:c2", RDF_FIRST, EX_NS + "site"),
        ("_:c2", RDF_REST, RDF_NIL),
        (EX_NS + "citesSite", OWL_INVERSE, EX_NS + "siteCited"),
    ]
    return pa.table(
        {
            "s": pa.array([r[0] for r in rows], pa.string()),
            "p": pa.array([r[1] for r in rows], pa.string()),
            "o": pa.array([r[2] for r in rows], pa.string()),
        }
    )


def q_kg_owl_infer(sf_dir: str):
    """OWL 2 RL property entailment over the extracted KG + synthetic
    ``ex:next`` 50-doc chains (:func:`argo_ray.stages.reason.owl_infer`):
    inverse, symmetric, length-2 property chain (one mid-node hash
    join) and the size-gated transitive closure, one final dedup
    exchange."""
    from ..io import read_table
    from ..stages.reason import owl_infer

    KG = "https://kg.example.org/doc/"

    def next_edges(b: pa.Table) -> pa.Table:
        import numpy as np

        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids % 50 != 49]
        n = len(ids)
        s = pa.array([f"{KG}{i}" for i in ids], pa.large_string())
        o = pa.array([f"{KG}{i + 1}" for i in ids], pa.large_string())
        cols = {
            "subj_kind": pa.array([0] * n, pa.uint8()),
            "subj_value": s,
            "subj_lang": pa.array([""] * n, pa.string()),
            "subj_datatype": pa.array([""] * n, pa.string()),
            "pred_kind": pa.array([0] * n, pa.uint8()),
            "pred_value": pa.array([EX_NS + "next"] * n, pa.large_string()),
            "pred_lang": pa.array([""] * n, pa.string()),
            "pred_datatype": pa.array([""] * n, pa.string()),
            "obj_kind": pa.array([0] * n, pa.uint8()),
            "obj_value": o,
            "obj_lang": pa.array([""] * n, pa.string()),
            "obj_datatype": pa.array([""] * n, pa.string()),
        }
        return pa.table(cols)

    base = _deduped(sf_dir).map_batches(
        lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
    )
    chain_edges = read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        next_edges, batch_format="pyarrow"
    )
    return _finalize(owl_infer(base.union(chain_edges), _owl_schema()))


def q_group_subject_count(sf_dir: str):
    """A1/A2: distinct triples per subject in ONE shuffle — the
    subject_hash sort co-locates a subject's every row (duplicates of a
    triple share its subject), so per-block dedup + count is globally
    correct without a separate dedup exchange."""
    from ..stages.materialize import _dedup_within_batch

    ds = _extract(sf_dir).map_batches(
        lambda b: b.drop_columns(["url"]), batch_format="pyarrow"
    )
    ds = ds.map_batches(_dedup_within_batch, batch_format="pyarrow")

    def count_block(df):
        import pandas as pd

        if df.empty:
            return pd.DataFrame(
                {
                    "subj_kind": pd.Series([], dtype="int64"),
                    "subj_value": pd.Series([], dtype="object"),
                    "n_triples": pd.Series([], dtype="int64"),
                }
            )
        df = df.drop_duplicates(subset=TRIPLE_COLUMNS, keep="first")
        out = (
            df.groupby(["subj_kind", "subj_value"], sort=False)
            .size()
            .rename("n_triples")
            .reset_index()
        )
        out["subj_kind"] = out["subj_kind"].astype("int64")
        return out

    return exchange(ds, "subject_hash", count_block, batch_format="pandas")


def q_typed_coercion(sf_dir: str):
    """M10: xsd:integer coercion of the ex:chars literals."""
    ds = _extract(sf_dir).map_batches(
        lambda b: filter_batch(b, p=IRI(EX_NS + "chars")), batch_format="pyarrow"
    )

    def coerce(b: pa.Table) -> pa.Table:
        out = coerce_literals_batch(b)
        return pa.table(
            {
                "subj_value": pc.cast(out["subj_value"], pa.string()),
                "chars_int": out["obj_as_int"],
            }
        )

    return ds.map_batches(coerce, batch_format="pyarrow")


def q_skolemize(sf_dir: str):
    """§1.4: deterministic blank-node ids (oracle reproduces them in SQL
    via md5 — the whole point of hash skolemization)."""
    ds = _deduped(sf_dir).map_batches(
        lambda b: pa.table(
            {"bnode_id": pc.cast(b.filter(pc.equal(b["subj_kind"], 1))["subj_value"], pa.string())}
        ),
        batch_format="pyarrow",
    )
    return distinct_rows(ds, ["bnode_id"])


def q_union_sources(sf_dir: str):
    """A6: heterogeneous-source fan-in — RDFa extraction ∪ an N-Triples
    source (token counts rendered as NT, parsed by S1) → set union."""

    def to_nt_doc(b: pa.Table) -> pa.Table:
        lines = []
        for did, text in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            n = len(text.split(" "))
            lines.append(
                f"<{entity_iri(did)}> <{EX_NS}tokens> \"{n}\"^^<{XSD_NS}integer> ."
            )
        if not lines:  # empty block would render "\n", which the strict
            return pa.table(  # NT parser rejects (blank line = error)
                {"url": pa.array([], pa.string()), "text": pa.array([], pa.string())}
            )
        return pa.table(
            {"url": pa.array([""], pa.string()), "text": pa.array(["\n".join(lines) + "\n"], pa.string())}
        )

    from ..io import read_table

    nt_ds = (
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(to_nt_doc, batch_format="pyarrow")
        .map_batches(lambda b: parse_ntriples_batch(b), batch_format="pyarrow")
    )
    unioned = _extract(sf_dir).union(nt_ds)
    return _finalize(dedup_exact(unioned))


def q_container_encode(sf_dir: str):
    """M11: first three title words as rdf:_N container membership."""

    from ..pages import title_of
    from ..stages.containers import encode_container
    from ..terms import Literal

    def encode(b: pa.Table) -> pa.Table:
        triples = []
        for did, text in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            words = title_of(text).split(" ")[:3]
            triples.extend(
                encode_container(IRI(entity_iri(did)), [Literal(w) for w in words])
            )
        t = triples_to_table(triples, with_hash=False)
        return pa.table(
            {
                "subj_kind": pc.cast(t["subj_kind"], pa.int64()),
                "subj_value": pc.cast(t["subj_value"], pa.string()),
                "pred_value": pc.cast(t["pred_value"], pa.string()),
                "obj_kind": pc.cast(t["obj_kind"], pa.int64()),
                "obj_value": pc.cast(t["obj_value"], pa.string()),
            }
        )

    from ..io import read_table

    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        encode, batch_format="pyarrow"
    )


def q_entity_link(sf_dir: str):
    """T2 / north rule: mention literals (dc:title) linked against the
    candidate dictionary (title → entity of smallest doc_id), broadcast
    actor-pool path → distinct (subject, linked entity) pairs."""
    from ..io import read_table
    from ..stages.link import build_candidates, link_entities

    cands = build_candidates(read_table(sf_dir, "documents", columns=["doc_id", "text"]))
    linked = link_entities(_deduped(sf_dir), cands, mention_pred=DC_NS + "title")
    ds = linked.map_batches(
        lambda b: pa.table(
            {
                "subj_value": pc.cast(b["subj_value"], pa.string()),
                "entity_value": pc.cast(b["obj_value"], pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    return distinct_rows(ds, ["subj_value", "entity_value"])


def q_entity_link_join(sf_dir: str):
    """Same linking semantics via the scale path — distributed hash join
    against per-partition candidate dictionaries."""
    from ..io import read_table
    from ..stages.link import build_candidates, link_entities_join

    cands = build_candidates(read_table(sf_dir, "documents", columns=["doc_id", "text"]))
    linked = link_entities_join(
        _deduped(sf_dir), cands, mention_pred=DC_NS + "title", num_partitions=2
    )
    ds = linked.map_batches(
        lambda b: pa.table(
            {
                "subj_value": pc.cast(b["subj_value"], pa.string()),
                "entity_value": pc.cast(b["obj_value"], pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    return distinct_rows(ds, ["subj_value", "entity_value"])


def q_entity_link_ranked(sf_dir: str):
    """Popularity-weighted entity linking: ambiguous titles resolve to
    the entity with the highest KG in-degree (citation count; tie →
    min IRI) instead of min-doc-id — the "most-referenced entity"
    prior, computed distributed (one in-degree groupby, sort-colocated
    LEFT-attach, per-surface-form argmax exchange)
    (:func:`argo_ray.stages.link.build_candidates_ranked`)."""
    from ..io import read_table
    from ..stages.link import build_candidates_ranked, link_entities_join

    dd = _deduped(sf_dir)
    cands = build_candidates_ranked(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]), dd
    )
    linked = link_entities_join(
        dd, cands, mention_pred=DC_NS + "title", num_partitions=2
    )
    ds = linked.map_batches(
        lambda b: pa.table(
            {
                "subj_value": pc.cast(b["subj_value"], pa.string()),
                "entity_value": pc.cast(b["obj_value"], pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    return distinct_rows(ds, ["subj_value", "entity_value"])


def q_dedup_provenance(sf_dir: str):
    """A4 with provenance: distinct triples each carrying the smallest
    source url (deterministic MIN — oracle-reproducible lineage)."""
    ds = dedup_exact(_extract(sf_dir), keep_provenance=True)

    def fin(b: pa.Table) -> pa.Table:
        cols = {"url": pc.cast(b["url"], pa.string())}
        for name in TRIPLE_COLUMNS:
            col = b[name]
            if name.endswith("_kind"):
                col = pc.cast(col, pa.int64())
            cols[name] = col
        return pa.table(cols)

    return ds.map_batches(fin, batch_format="pyarrow")


def q_store_roundtrip(sf_dir: str):
    """K7: dictionary-encoded Parquet store — encode → write → read →
    decode reproduces the distinct triple set."""
    import hashlib
    import shutil

    from ..sinks.parquet_store import decode_store, write_store

    import os

    out = (
        "/tmp/argo_store_rt/"
        + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
        + f"-{os.getpid()}"
    )
    shutil.rmtree(out, ignore_errors=True)
    write_store(_deduped(sf_dir), out)
    return _finalize(decode_store(out))


def q_graphstore_roundtrip(sf_dir: str):
    """S7/K6 equivalent: per-page named graphs PUT to the file-backed
    graph store (distributed fan-out) → read back (distributed fan-in)
    → the distinct triple set survives."""
    import hashlib
    import shutil

    from ..sinks.graphstore import read_graphstore, write_graphstore
    from ..stages.materialize import dedup_exact

    import os

    # per-process path: concurrent runs over the same corpus must not
    # rmtree each other's store mid-read
    out = (
        "/tmp/argo_graphstore_rt/"
        + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
        + f"-{os.getpid()}"
    )
    shutil.rmtree(out, ignore_errors=True)
    # one named graph per page url (raw extraction keeps provenance);
    # global dedup on the way back out
    write_graphstore(_extract(sf_dir), out, graph_column="url")
    return _finalize(dedup_exact(read_graphstore(out)))


def q_list_roundtrip(sf_dir: str):
    """M11 lists: title words → rdf:first/rest/nil cons chain → decode
    back in-pipeline → (subj_value, pos, word).  Encode and decode run
    inside one batch (a document's cons cells are document-local blank
    nodes — the same per-document locality the skolemizer guarantees)."""
    from ..io import read_table
    from ..pages import title_of
    from ..stages.containers import decode_list, encode_list
    from ..terms import Literal

    def rt(b: pa.Table) -> pa.Table:
        subjects, positions, words = [], [], []
        for did, text in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            root = IRI(entity_iri(did))
            items = [Literal(w) for w in title_of(text).split(" ")[:3]]
            triples = encode_list(root, items, list_key=str(did))
            back = decode_list(triples, root)
            assert back == items
            for i, term in enumerate(back, start=1):
                subjects.append(entity_iri(did))
                positions.append(i)
                words.append(term.value)
        return pa.table(
            {
                "subj_value": pa.array(subjects, pa.string()),
                "pos": pa.array(positions, pa.int64()),
                "word": pa.array(words, pa.string()),
            }
        )

    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        rt, batch_format="pyarrow"
    )


def q_triple_pr(sf_dir: str):
    """North-rule P/R as a driver-checked row: the oracle asserts
    precision = recall = 1.0 with matched = the distinct expected-triple
    count, so ANY extraction divergence value-hash-mismatches the gate."""
    from .score import pr_vs_oracle

    res = pr_vs_oracle(sf_dir)
    return pa.table(
        {
            "precision": pa.array([float(res["precision"])], pa.float64()),
            "recall": pa.array([float(res["recall"])], pa.float64()),
            "ours": pa.array([res["ours"]], pa.int64()),
            "expected": pa.array([res["expected"]], pa.int64()),
            "matched": pa.array([res["matched"]], pa.int64()),
        }
    )


def q_sparql_select_eval(sf_dir: str):
    """S6's execution twin: SPARQL SELECT evaluated over the extracted
    KG (the file-backed ``SparqlService.Select``, sparqlservice.go:42-53)
    — 4-pattern BGP join + numeric/string FILTERs + DISTINCT + ORDER."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT DISTINCT ?doc ?lang ?site WHERE {{
      ?doc a ex:Document ;
           dc:language ?lang ;
           ex:site ?site ;
           ex:chars ?c .
      FILTER (?c >= 200 && ?lang != "de")
    }} ORDER BY ?doc
    """
    # a SPARQL endpoint queries a materialized store: pin the deduped
    # triple set in the object store once so the 4 pattern scans read
    # blocks instead of re-running extraction per pattern (at real scale
    # the store is parquet on disk — decode_store — same property)
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_ask_eval(sf_dir: str):
    """File-backed ``SparqlService.Ask`` (sparqlservice.go:55-68): one
    satisfiable and one unsatisfiable pattern → (q, result) rows."""
    from ..pages import HUB_IRI
    from ..sparql import evaluate_ask

    ds = _deduped(sf_dir).materialize()  # the endpoint's store (see select)
    hit = evaluate_ask(ds, f"PREFIX ex: <{EX_NS}> ASK {{ <{HUB_IRI}> ex:cites ?d }}")
    miss = evaluate_ask(
        ds, f"PREFIX ex: <{EX_NS}> ASK {{ ?d ex:site <https://nosuch.example.org/> }}"
    )
    return pa.table(
        {
            "q": pa.array(["cites_hub", "site_missing"], pa.string()),
            "result": pa.array([int(hit), int(miss)], pa.int64()),
        }
    )


def q_sparql_construct_eval(sf_dir: str):
    """File-backed ``SparqlService.Graph`` (sparqlservice.go:70-83):
    CONSTRUCT derives an inverted hosting graph from ex:site edges."""
    from ..sparql import evaluate_construct

    q = f"""PREFIX ex: <{EX_NS}>
    CONSTRUCT {{ ?site ex:hosts ?doc . ?doc ex:hostedBy ?site }}
    WHERE {{ ?doc ex:site ?site }}"""
    return _finalize(evaluate_construct(_deduped(sf_dir), q))


def q_sparql_construct_bnode_eval(sf_dir: str):
    """CONSTRUCT with a TEMPLATE BLANK NODE (SPARQL 1.1 §16.2.1): one
    fresh ``_:m`` mention node minted per solution, shared across the
    template's two triples.  The engine's deterministic salted-md5
    skolemization over the solution's bound terms makes the mint
    oracle-reproducible (new r4 s4 — previously a parse error)."""
    from ..sparql import evaluate_construct

    q = f"""PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    CONSTRUCT {{ _:m ex:mentionOf ?doc . _:m ex:inLang ?l }}
    WHERE {{ ?doc dc:language ?l }}"""
    return _finalize(evaluate_construct(_deduped(sf_dir), q))


def q_sparql_optional_bind_eval(sf_dir: str):
    """BIND scoped inside an OPTIONAL body (new r4 s4): the alias
    binds only where the optional matched — typed docs get a derived
    ``lang-…`` tag, mention blank nodes (no dc:language) leave it
    unbound ('')."""
    from ..sparql import evaluate_select

    q = f"""PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?s ?tag WHERE {{
      ?s a ?t .
      OPTIONAL {{ ?s dc:language ?l BIND(CONCAT("lang-", ?l) AS ?tag) }}
    }}"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_nested_optional_eval(sf_dir: str):
    """Nested OPTIONAL (new r4 s4): LeftJoin(A, LeftJoin(B, C)) — the
    title attaches inside the language group, so mention blank nodes
    (no dc:language) leave BOTH unbound while typed docs carry both."""
    from ..sparql import evaluate_select

    q = f"""PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?s ?l ?ttl WHERE {{
      ?s a ?t .
      OPTIONAL {{ ?s dc:language ?l OPTIONAL {{ ?s dc:title ?ttl }} }}
    }}"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_count_distinct_star_eval(sf_dir: str):
    """COUNT(DISTINCT *) per group (new r4 s4): distinct complete
    (doc, site) solutions per language — rendered-solution distinct
    (the SELECT DISTINCT plan) + one partial-count groupby."""
    from ..sparql import evaluate_select

    q = f"""PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?l (COUNT(DISTINCT *) AS ?n)
    WHERE {{ ?doc dc:language ?l . ?doc ex:site ?site }}
    GROUP BY ?l"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_neg_rev_path_eval(sf_dir: str):
    """Negated property set with a ^ member (new r4 s4, SPARQL 1.1
    §18.4): every forward predicate excluded, the reverse component
    open — so each entity reaches exactly its citing hub through the
    inverse edge."""
    from ..sparql import evaluate_select

    q = f"""PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
    SELECT ?e ?x WHERE {{
      ?e rdf:type ex:Document .
      ?e !(rdf:type|dc:language|ex:chars|dc:title|ex:site|^ex:nothing) ?x .
    }}"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_alt_rev_path_eval(sf_dir: str):
    """Alternative path with a ^ member (r4 verdict task #5, SPARQL
    1.1 §18.4 PathAlternative over PathEltOrInverse): ``p|^q`` is the
    bag union of forward ``p`` edges and INVERTED ``q`` edges — each
    document reaches its language literal forward and its citing hub
    through the reverse member in one predicate slot."""
    from ..sparql import evaluate_select

    q = f"""PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
    SELECT ?d ?x WHERE {{
      ?d rdf:type ex:Document .
      ?d dc:language|^ex:cites ?x .
    }}"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_describe_eval(sf_dir: str):
    """DESCRIBE ?doc over the typed Documents (sparqlclient.go:246-256
    verb, evaluated engine-side): every distinct triple whose subject
    matched — the entity-dossier query a REPL user issues."""
    from ..sparql import evaluate_describe

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    DESCRIBE ?doc WHERE {{ ?doc a ex:Document . ?doc dc:language "fr" }}
    """
    return _finalize(evaluate_describe(_deduped(sf_dir).materialize(), q))


def q_sparql_values_eval(sf_dir: str):
    """VALUES inline data (SPARQL 1.1 §10.2) joined against a BGP: the
    language filter arrives as data rows, not a FILTER expression —
    the REPL idiom for parameterised queries."""
    from ..sparql import evaluate_select

    q = f"""PREFIX dc: <{DC_NS}>
    SELECT ?doc ?l WHERE {{
      ?doc dc:language ?l .
      VALUES ?l {{ "en" "fr" }}
    }}"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_minus_eval(sf_dir: str):
    """MINUS (SPARQL 1.1 §8.3): typed subjects with any dc:language
    solution removed — exactly the Mention blank nodes survive (the
    set-difference twin of the NOT EXISTS filter query)."""
    from ..sparql import evaluate_select

    q = f"""PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?s ?t WHERE {{
      ?s a ?t .
      MINUS {{ ?s dc:language ?l }}
    }}"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_having_eval(sf_dir: str):
    """GROUP BY + HAVING (SPARQL 1.1 §11.1): languages asserted on
    more than 75 documents — the post-aggregate filter runs after the
    distributed partial-count groupby, splitting kept/dropped groups
    at both test scales (en≈200 vs the 60–82 band)."""
    from ..sparql import evaluate_select

    q = f"""PREFIX dc: <{DC_NS}>
    SELECT ?l (COUNT(?doc) AS ?n)
    WHERE {{ ?doc dc:language ?l }}
    GROUP BY ?l
    HAVING (COUNT(?doc) > 75)"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_seq_path_eval(sf_dir: str):
    """Sequence property path ``ex:cites/ex:site`` (SPARQL 1.1 §9.1):
    hub → cited doc → hosting site, desugared to a BGP with a fresh
    mid variable — solution MULTIPLICITY preserved (one row per cited
    doc, not per distinct site)."""
    from ..sparql import evaluate_select
    from ..pages import HUB_IRI

    q = f"""PREFIX ex: <{EX_NS}>
    SELECT ?site WHERE {{ <{HUB_IRI}> ex:cites/ex:site ?site }}"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_orderby_agg_eval(sf_dir: str):
    """ORDER BY over an AGGREGATE + LIMIT (top-k groups through the
    engine): the three busiest sites by distinct hosted documents,
    ?site as tie-break — the grouped-leaderboard shape issued as
    SPARQL."""
    from ..sparql import evaluate_select

    q = f"""PREFIX ex: <{EX_NS}>
    SELECT ?site (COUNT(?doc) AS ?n)
    WHERE {{ ?doc ex:site ?site }}
    GROUP BY ?site
    ORDER BY DESC(COUNT(?doc)) ?site
    LIMIT 3"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_exists_eval(sf_dir: str):
    """Positive ``FILTER EXISTS`` (SPARQL 1.1 §8.1.1) — the semi-join
    twin of the NOT EXISTS query: typed subjects kept only when a
    dc:language assertion exists for them, so exactly the Document
    entities survive (Mention blank nodes drop)."""
    from ..sparql import evaluate_select

    q = f"""PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?s ?t WHERE {{
      ?s a ?t .
      FILTER EXISTS {{ ?s dc:language ?l }}
    }}"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_service_eval(sf_dir: str):
    """SPARQL 1.1 FEDERATED QUERY (SERVICE): the language assertions
    live in the local KG, the token counts behind a registered
    endpoint (a second extraction pipeline's output standing in for a
    remote SPARQL server — no network in this engine by design).  The
    SERVICE block evaluates against the endpoint dataset and joins
    ?doc like any group element."""
    from ..sparql import evaluate_select
    from ..sparql.engine import register_service, unregister_service

    from ..terms import Literal  # resolved at QUERY build time; the
    # UDF below must only touch module globals / closure values (a
    # lazy relative import inside a worker function raises
    # ModuleNotFoundError when the driver cwd is not the repo)
    _Literal = Literal

    def to_tokens(b: pa.Table) -> pa.Table:
        XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
        trips = [
            (
                IRI(f"https://kg.example.org/doc/{did}"),
                IRI(EX_NS + "tokens"),
                _Literal(str(len(text.split(" "))), datatype=XSD_INT),
            )
            for did, text in zip(
                b["doc_id"].to_pylist(), b["text"].to_pylist()
            )
        ]
        return triples_to_table(trips, with_hash=False)

    from ..io import read_table

    endpoint = read_table(
        sf_dir, "documents", columns=["doc_id", "text"]
    ).map_batches(to_tokens, batch_format="pyarrow")

    svc = "https://svc.example.org/tokens"
    register_service(svc, endpoint)
    try:
        q = f"""PREFIX ex: <{EX_NS}>
        PREFIX dc: <{DC_NS}>
        SELECT ?doc ?l ?n WHERE {{
          ?doc dc:language ?l .
          SERVICE <{svc}> {{ ?doc ex:tokens ?n }}
        }}"""
        # the endpoint dataset is resolved into the plan at evaluate
        # time, so unregistering afterwards is safe
        return evaluate_select(_deduped(sf_dir).materialize(), q)
    finally:
        unregister_service(svc)


def q_sparql_service_agg_eval(sf_dir: str):
    """Federation COMPOSED with aggregation: per language the count
    of documents whose endpoint-reported token count clears 26 — the
    SERVICE join, a numeric FILTER on the federated binding and a
    GROUP BY all in one query."""
    from ..sparql import evaluate_select
    from ..sparql.engine import register_service, unregister_service
    from ..io import read_table
    from ..terms import IRI as _IRI, Literal, triples_to_table

    XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

    def to_tokens(b: pa.Table) -> pa.Table:
        trips = [
            (
                _IRI(f"https://kg.example.org/doc/{did}"),
                _IRI(EX_NS + "tokens"),
                Literal(str(len(text.split(" "))), datatype=XSD_INT),
            )
            for did, text in zip(
                b["doc_id"].to_pylist(), b["text"].to_pylist()
            )
        ]
        return triples_to_table(trips, with_hash=False)

    endpoint = read_table(
        sf_dir, "documents", columns=["doc_id", "text"]
    ).map_batches(to_tokens, batch_format="pyarrow")
    svc = "https://svc.example.org/tokens-agg"
    register_service(svc, endpoint)
    try:
        q = f"""PREFIX ex: <{EX_NS}>
        PREFIX dc: <{DC_NS}>
        SELECT ?l (COUNT(?doc) AS ?n) WHERE {{
          ?doc dc:language ?l .
          SERVICE <{svc}> {{ ?doc ex:tokens ?t }}
          FILTER (?t > 26)
        }}
        GROUP BY ?l"""
        return evaluate_select(_deduped(sf_dir).materialize(), q)
    finally:
        unregister_service(svc)


def q_sparql_orderby_eval(sf_dir: str):
    """ORDER BY DESC over a NUMERIC literal + LIMIT (SPARQL 1.1
    §15.1/§15.5): ten longest documents by ``ex:chars``.  Exercises
    the engine's value-order sort keys — ``"99"^^xsd:integer`` must
    sort below ``"100"^^xsd:integer`` (numeric), not above it
    (lexicographic) — with ?doc as the deterministic tie-break."""
    from ..sparql import evaluate_select

    q = f"""PREFIX ex: <{EX_NS}>
    SELECT ?doc ?c WHERE {{ ?doc ex:chars ?c }}
    ORDER BY DESC(?c) ?doc LIMIT 10"""
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_optional_eval(sf_dir: str):
    """OPTIONAL (left-join) over the KG: every typed subject, with its
    language when one is asserted — mentions have none, so the unbound
    binding renders as ''."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?s ?t ?l WHERE {{
      ?s a ?t .
      OPTIONAL {{ ?s dc:language ?l }}
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_union_eval(sf_dir: str):
    """UNION of two shapes binding the same variables: hub-cited docs
    with their site, and docs with their char count."""
    from ..sparql import evaluate_select
    from ..pages import HUB_IRI

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?a ?b WHERE {{
      {{ <{HUB_IRI}> ex:cites ?a . ?a ex:site ?b }}
      UNION
      {{ ?a ex:chars ?b }}
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_groupby_eval(sf_dir: str):
    """SPARQL aggregates: docs per site with char-count stats — the
    partial-aggregation combiner shape (shuffle volume = sites)."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?site (COUNT(?doc) AS ?n_docs) (SUM(?c) AS ?sum_chars)
           (MAX(?c) AS ?max_chars)
    WHERE {{ ?doc ex:site ?site . ?doc ex:chars ?c }}
    GROUP BY ?site
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_over_store(sf_dir: str):
    """The endpoint-over-storage integration: SPARQL SELECT evaluated
    against the K7 dictionary-encoded parquet store (write → decode →
    query), exercising lang-tagged literal rendering through the full
    encode/decode path."""
    import hashlib
    import os
    import shutil

    from ..sinks.parquet_store import decode_store, write_store
    from ..sparql import evaluate_select

    out = (
        "/tmp/argo_sparql_store/"
        + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
        + f"-{os.getpid()}"
    )
    shutil.rmtree(out, ignore_errors=True)
    write_store(_deduped(sf_dir), out)
    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?doc ?title WHERE {{
      ?doc a ex:Document ; dc:title ?title .
    }}
    """
    return evaluate_select(decode_store(out).materialize(), q)


def q_sparql_functions_eval(sf_dir: str):
    """SPARQL 1.1 builtin filter surface in one BGP: IN (full term
    identity), STRLEN, isIRI, CONTAINS, DATATYPE — plus ORDER BY with
    OFFSET/LIMIT pagination (the slice streams: LIMIT bounds the
    upstream before the offset split)."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
    SELECT DISTINCT ?doc ?lang WHERE {{
      ?doc a ex:Document ;
           dc:language ?lang ;
           ex:chars ?c .
      FILTER (?lang IN ("en", "de") && STRLEN(?lang) = 2 && isIRI(?doc)
              && CONTAINS(?doc, "/doc/") && DATATYPE(?c) = xsd:integer)
    }} ORDER BY ?doc OFFSET 10 LIMIT 50
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_count_distinct_eval(sf_dir: str):
    """COUNT(DISTINCT ?v) alongside a plain aggregate: one exchange on
    the group key, and both counts from one Arrow group_by per block."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?site (COUNT(DISTINCT ?lang) AS ?n_langs) (COUNT(*) AS ?n_docs)
    WHERE {{ ?doc ex:site ?site . ?doc dc:language ?lang }}
    GROUP BY ?site
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_not_exists_eval(sf_dir: str):
    """FILTER NOT EXISTS as a distributed anti-join: typed subjects
    with no language assertion — exactly the skolemized mention blank
    nodes (every document entity asserts dc:language)."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?s ?t WHERE {{
      ?s a ?t .
      FILTER NOT EXISTS {{ ?s dc:language ?l }}
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_alt_path_eval(sf_dir: str):
    """Alternative property path ``ex:site|ex:chars`` — ONE scan with
    an OR-of-term-predicates mask, bag-union multiplicity (each doc
    contributes its site row and its chars row)."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?doc ?v WHERE {{ ?doc ex:site|ex:chars ?v . ?doc a ex:Document }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_path_closure_eval(sf_dir: str):
    """Transitive path ``ex:cites+`` with both ends variable — the
    semi-naive closure over the citation edge set (hub → every doc;
    depth-1 here, multi-hop covered by unit tests on chain graphs)."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?a ?d WHERE {{ ?a ex:cites+ ?d }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_if_eval(sf_dir: str):
    """BIND(IF(…)) — vectorized conditional: one comparison kernel +
    one if_else per batch, no exchange."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?doc ?size WHERE {{
      ?doc ex:chars ?c .
      BIND(IF(?c >= 300, "long", "short") AS ?size)
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_iri_mint_eval(sf_dir: str):
    """BIND(IRI(CONCAT(…))) — minting linked-data IRIs from literal
    values, the canonical KG-construction enrichment step."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?doc ?langres WHERE {{
      ?doc dc:language ?l .
      BIND(IRI(CONCAT("http://lexvo.example.org/id/", ?l)) AS ?langres)
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_or_filter_eval(sf_dir: str):
    """``||`` disjunction across filter types (term equality / numeric
    comparison) — one recursive mask, no extra scan."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?doc WHERE {{
      ?doc dc:language ?l . ?doc ex:chars ?c .
      FILTER(?l = "en" || ?c >= 400)
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_langmatches_eval(sf_dir: str):
    """LANGMATCHES over lang-tagged titles — one vectorized tag mask."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?doc ?t WHERE {{
      ?doc dc:title ?t . FILTER LANGMATCHES(LANG(?t), "de")
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_graph_eval(sf_dir: str):
    """GRAPH ?g over a quads view: each doc's triples live in its
    site's named graph (url column derived vectorized from the subject
    IRI), then per-graph doc counts — graph scoping without per-graph
    fan-out, one scan + the aggregate exchange."""
    import pyarrow.compute as pc2

    from ..sparql import evaluate_select

    def add_graph(batch):
        import pyarrow as pa2

        subj = pc2.cast(batch["subj_value"], pa.large_string())
        # doc id from https://kg.example.org/doc/<id>; non-doc subjects
        # (hub, mentions) go to the default graph IRI
        ids = pc2.extract_regex(subj, pattern=r"/doc/(?P<id>\d+)$")
        idv = pc2.struct_field(ids, "id")
        n = pc2.cast(pc2.cast(idv, pa.large_string()), pa.int64())
        mod5 = pc2.subtract(n, pc2.multiply(pc2.divide(n, 5), 5))
        site_n = pc2.binary_join_element_wise(
            pa2.scalar("https://site", pa.large_string()),
            pc2.cast(pc2.fill_null(mod5, 0), pa.large_string()),
            pa2.scalar(".example.org/", pa.large_string()),
            pa2.scalar("", pa.large_string()),
        )
        url = pc2.if_else(
            pc2.is_valid(n),
            site_n,
            pa2.scalar("https://default.example.org/", pa.large_string()),
        )
        return batch.append_column("url", url)

    quads = _deduped(sf_dir).map_batches(add_graph, batch_format="pyarrow")
    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?g (COUNT(*) AS ?n) WHERE {{
      GRAPH ?g {{ ?d ex:chars ?c }}
    }} GROUP BY ?g
    """
    return evaluate_select(quads.materialize(), q)


def q_sparql_strafter_eval(sf_dir: str):
    """STRAFTER over IRI strings: extract each doc's numeric id from
    its entity IRI — one vectorized partition per batch."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?doc ?id WHERE {{
      ?doc ex:chars ?c .
      BIND(STRAFTER(STR(?doc), "/doc/") AS ?id)
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_numeric_hash_eval(sf_dir: str):
    """Numeric + hash + accessor builtins in BIND: ABS over an implied
    signed-literal subtraction, MD5 content keys, DATATYPE/LANG term
    accessors — all one vectorized map, no exchange."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?doc ?d ?h ?dt ?l WHERE {{
      ?doc ex:chars ?c .
      ?doc dc:title ?t .
      BIND(ABS(?c-500) AS ?d)
      BIND(MD5(STR(?c)) AS ?h)
      BIND(DATATYPE(?t) AS ?dt)
      BIND(LANG(?t) AS ?l)
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_select_expr_eval(sf_dir: str):
    """SELECT (expr AS ?alias) projection + general expression FILTER
    — both desugar onto the vectorized BIND/condition machinery."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?doc (ABS(?c-500) AS ?dist) WHERE {{
      ?doc ex:chars ?c .
      FILTER(ABS(?c-500) < 200)
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_results_roundtrip(sf_dir: str):
    """Full result-format loop: evaluate SELECT → serialize to W3C
    results XML (the document the reference's result.go parser reads)
    → re-parse with the S6 parser → rendered rows.  Proves the write
    twin against the read twin on real query output."""
    import pyarrow as pa

    from ..sinks.sparql_results import select_dataset_to_xml
    from ..sources.sparql_results import parse_select_results
    from ..sparql import evaluate_select
    from ..terms import render_term

    q = f"""
    PREFIX dc: <{DC_NS}>
    SELECT ?doc ?l WHERE {{ ?doc dc:language ?l }}
    """
    out = evaluate_select(_deduped(sf_dir).materialize(), q)
    doc = select_dataset_to_xml(out, ["doc", "l"])
    variables, rows = parse_select_results(doc)
    return pa.table(
        {
            v: pa.array(
                [render_term(r[v]) if v in r else "" for r in rows],
                pa.large_string(),
            )
            for v in variables
        }
    )


def q_sparql_results_tsv_roundtrip(sf_dir: str):
    """TSV result-format loop (W3C sparql11-results-csv-tsv, the
    lossless text sibling of the XML family): evaluate SELECT →
    vectorized tab-join per batch → re-parse with the vectorized
    inverse renderer → rendered rows.  Same expected table as the XML
    round-trip."""
    import pyarrow as pa

    from ..sinks.sparql_results import select_dataset_to_tsv
    from ..sources.sparql_results import parse_select_results_tsv
    from ..sparql import evaluate_select
    from ..terms import render_term

    q = f"""
    PREFIX dc: <{DC_NS}>
    SELECT ?doc ?l WHERE {{ ?doc dc:language ?l }}
    """
    out = evaluate_select(_deduped(sf_dir).materialize(), q)
    doc = select_dataset_to_tsv(out, ["doc", "l"])
    variables, rows = parse_select_results_tsv(doc)
    return pa.table(
        {
            v: pa.array(
                [render_term(r[v]) if v in r else "" for r in rows],
                pa.large_string(),
            )
            for v in variables
        }
    )


def q_sparql_path_zero_or_one_eval(sf_dir: str):
    """``ex:cites?`` from the hub: the zero-length solution (the hub
    itself) plus every cited doc — one edge scan, no fixpoint."""
    from ..pages import HUB_IRI
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?v WHERE {{ <{HUB_IRI}> ex:cites? ?v }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_neg_path_eval(sf_dir: str):
    """Negated property set: everything asserted about each doc except
    its type / site / chars — langs and titles survive the inverted
    predicate mask (still ONE scan)."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
    SELECT ?d ?o WHERE {{
      ?d ex:site ?site .
      ?d !(rdf:type|ex:site|ex:chars) ?o
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_subquery_eval(sf_dir: str):
    """Subquery join: the inner ``{ SELECT … ORDER BY … LIMIT … }``
    picks the first 100 large documents (deterministic slice), the
    outer BGP attaches each one's site."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?doc ?site WHERE {{
      ?doc ex:site ?site .
      {{ SELECT ?doc WHERE {{ ?doc ex:chars ?c . FILTER(?c >= 300) }}
         ORDER BY ?doc LIMIT 100 }}
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_agg_subquery_eval(sf_dir: str):
    """Aggregate subquery: the inner ``{ SELECT ?site (COUNT(*) AS ?n)
    … GROUP BY ?site }`` computes per-site doc counts (partial-agg
    combiner, one row per site), which join back onto every doc as
    xsd:integer literal terms — the analytic "annotate each row with
    its group's statistic" shape without a self-join of the full
    bindings."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?doc ?site ?n WHERE {{
      ?doc ex:site ?site .
      {{ SELECT ?site (COUNT(*) AS ?n) WHERE {{ ?d ex:site ?site }}
         GROUP BY ?site }}
      FILTER(?n >= 10)
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_group_concat_eval(sf_dir: str):
    """GROUP_CONCAT(DISTINCT …) per site: the distinct (site, lang)
    shuffle then one sort-by-group pass with per-group ordered joins —
    concatenation order is this engine's documented ascending-lexical
    rule, making the result (and its oracle) exact."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?site (GROUP_CONCAT(DISTINCT ?l; SEPARATOR=",") AS ?langs)
    WHERE {{ ?d ex:site ?site . ?d dc:language ?l }}
    GROUP BY ?site
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_sum_distinct_eval(sf_dir: str):
    """SUM/AVG(DISTINCT ?v) alongside a plain COUNT: distinctness over
    RDF terms per group, kept inside the exchange's block function, and
    the numeric aggregates of the surviving terms joined with the COUNT
    on the group key."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?site (SUM(DISTINCT ?c) AS ?sum_c) (AVG(DISTINCT ?c) AS ?avg_c)
           (COUNT(?c) AS ?n)
    WHERE {{ ?doc ex:site ?site ; ex:chars ?c }}
    GROUP BY ?site
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_path_star_eval(sf_dir: str):
    """Zero-or-more path ``ex:cites*`` from a constant end: the hub
    itself (the zero-length solution) plus everything the BFS closure
    reaches."""
    from ..pages import HUB_IRI
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    SELECT ?d WHERE {{ <{HUB_IRI}> ex:cites* ?d }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_bind_eval(sf_dir: str):
    """BIND expressions: integer arithmetic (?c*2 → xsd:integer
    literal), string functions (CONCAT/UCASE/STR → plain literal), and
    a FILTER over a bound alias — all appended as vectorized binding
    columns, no exchange."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?doc ?c2 ?label WHERE {{
      ?doc ex:chars ?c ; dc:language ?lang .
      BIND(?c * 2 AS ?c2)
      BIND(CONCAT(UCASE(?lang), "-", STR(?doc)) AS ?label)
      FILTER(?c2 >= 400)
    }} ORDER BY ?doc
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_sparql_bound_filter_eval(sf_dir: str):
    """The OPTIONAL-negation idiom ``FILTER(!BOUND(?l))`` (typed
    subjects with no language = the mention bnodes) plus COALESCE over
    the unbound variable."""
    from ..sparql import evaluate_select

    q = f"""
    PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    SELECT ?s ?t ?l2 WHERE {{
      ?s a ?t .
      OPTIONAL {{ ?s dc:language ?l }}
      BIND(COALESCE(?l, "none") AS ?l2)
      FILTER(!BOUND(?l))
    }}
    """
    return evaluate_select(_deduped(sf_dir).materialize(), q)


def q_graphstore_patch(sf_dir: str):
    """K6 ``patch``: SPARQL-Update (DELETE DATA; INSERT DATA) applied to
    a stored named graph (graphstoreservice.go:162-181 — the file store
    IS the server here), read back through the RDF/XML round-trip."""
    import hashlib
    import os
    import shutil

    import ray.data

    from ..sinks.graphstore import FileGraphStore
    from ..stages.filter import filter_triples
    from ..terms import RDF_TYPE

    out = (
        "/tmp/argo_gs_patch/"
        + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
        + f"-{os.getpid()}"
    )
    shutil.rmtree(out, ignore_errors=True)
    store = FileGraphStore(out)
    graph_uri = "https://graphs.example.org/patched"
    typed = filter_triples(
        _deduped(sf_dir), p=IRI(RDF_TYPE), o=IRI(EX_NS + "Document")
    )
    rows = typed.map_batches(
        lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
    ).take_all()  # one row per doc — small by construction
    tbl = pa.Table.from_pylist(rows)
    store.put(graph_uri, tbl)
    upd = f"""PREFIX ex: <{EX_NS}>
    DELETE DATA {{ <https://kg.example.org/doc/0> a ex:Document }};
    INSERT DATA {{ <{graph_uri}> ex:patchedBy "sparql-update" }}"""
    store.patch(graph_uri, upd)
    return _finalize(ray.data.from_arrow(store.get(graph_uri)))


def q_graphstore_manage(sf_dir: str):
    """K6+ graph management (SPARQL 1.1 Update §3.2 — beyond the
    reference's verb surface): seed graphs A (en docs) and B (fr
    docs), then ``COPY A TO C; ADD B TO C; DROP A; MOVE B TO D`` in
    one ';'-chained request through
    :meth:`FileGraphStore.manage`.  Final state checked relationally:
    C = en ∪ fr typed entities, D = fr, A and B gone."""
    import hashlib
    import os
    import shutil

    from ..io import read_table
    from ..sinks.graphstore import FileGraphStore
    from ..terms import RDF_TYPE, triples_to_table

    out = (
        "/tmp/argo_gs_manage/"
        + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
        + f"-{os.getpid()}"
    )
    shutil.rmtree(out, ignore_errors=True)
    store = FileGraphStore(out)
    # documents is the dimension table — driver-side read is bounded
    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"]).take_all()

    def typed(lang: str):
        return triples_to_table(
            [
                (
                    IRI(f"https://kg.example.org/doc/{r['doc_id']}"),
                    IRI(RDF_TYPE),
                    IRI(EX_NS + "Document"),
                )
                for r in docs
                if r["lang"] == lang
            ],
            with_hash=False,
        )

    G = "https://graphs.example.org/"
    store.put(G + "A", typed("en"))
    store.put(G + "B", typed("fr"))
    store.manage(
        f"COPY <{G}A> TO <{G}C>; ADD <{G}B> TO <{G}C>; "
        f"DROP GRAPH <{G}A>; MOVE <{G}B> TO <{G}D>"
    )
    assert store.graphs() == [G + "C", G + "D"]
    gs, ss = [], []
    for uri, label in ((G + "C", "C"), (G + "D", "D")):
        t = store.get(uri)
        vals = t["subj_value"].to_pylist()
        gs += [label] * len(vals)
        ss += vals
    return pa.table(
        {"g": pa.array(gs, pa.string()), "s": pa.array(ss, pa.string())}
    )


def q_graphstore_patch_where(sf_dir: str):
    """K6 ``patch`` with the PATTERN-BASED update forms (SPARQL 1.1
    Update §3.1.3): one request chaining ``INSERT { } WHERE { }``
    (derive a page IRI per site assertion) and ``DELETE { } WHERE { }``
    (drop every dc:language fact) against a stored graph — the modify
    ops the DATA-only patch query doesn't reach.  Read back through
    the RDF/XML round-trip."""
    import hashlib
    import os
    import shutil

    import ray.data

    from ..sinks.graphstore import FileGraphStore
    from ..stages.filter import filter_triples

    out = (
        "/tmp/argo_gs_patchw/"
        + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
        + f"-{os.getpid()}"
    )
    shutil.rmtree(out, ignore_errors=True)
    store = FileGraphStore(out)
    graph_uri = "https://graphs.example.org/patched-where"
    # seed: every ex:site and dc:language assertion of the deduped KG
    site = filter_triples(_deduped(sf_dir), p=IRI(EX_NS + "site"))
    lang = filter_triples(_deduped(sf_dir), p=IRI(DC_NS + "language"))
    rows = (
        site.union(lang)
        .map_batches(lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow")
        .take_all()
    )
    store.put(graph_uri, pa.Table.from_pylist(rows))
    upd = f"""PREFIX ex: <{EX_NS}>
    PREFIX dc: <{DC_NS}>
    INSERT {{ ?doc ex:hostedOn ?site }} WHERE {{ ?doc ex:site ?site }} ;
    DELETE {{ ?doc dc:language ?l }} WHERE {{ ?doc dc:language ?l }}"""
    store.patch(graph_uri, upd)
    return _finalize(ray.data.from_arrow(store.get(graph_uri)))


def _crawl_snapshot(sf_dir: str, drop_mod: int):
    """Extracted triples of one synthetic crawl generation: the pages
    of every doc with doc_id % 3 != drop_mod (each generation drops a
    different third of the corpus — old crawl drop_mod=2, recrawl
    drop_mod=0)."""
    from ..io import read_table
    from ..pages import synth_pages_batch

    def keep(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        three = pa.scalar(3, pa.int64())
        mod = pc.subtract(ids, pc.multiply(pc.divide(ids, three), three))
        return b.filter(pc.not_equal(mod, pa.scalar(drop_mod, pa.int64())))

    return (
        read_table(sf_dir, "documents")
        .map_batches(keep, batch_format="pyarrow")
        .map_batches(synth_pages_batch, batch_format="pyarrow")
        .map_batches(extract_rdfa_batch, batch_format="pyarrow")
    )


def q_kg_delta(sf_dir: str):
    """KG maintenance: snapshot diff between two KG builds.  The "old"
    build extracts from the pages of docs with doc_id % 3 != 2 (the
    previous crawl); the "new" build from docs with doc_id % 3 != 0
    (the recrawl — one third of pages gone, one third newly
    discovered).  ``graph_delta`` tags each triple present in exactly
    one snapshot with op='del'/'add' via one triple-hash sort exchange
    (:func:`argo_ray.stages.materialize.graph_delta`).  No reference
    counterpart — argo has no graph-version notion."""
    from ..stages.materialize import graph_delta

    delta = graph_delta(
        _crawl_snapshot(sf_dir, drop_mod=2), _crawl_snapshot(sf_dir, drop_mod=0)
    )

    def cast_kinds(b: pa.Table) -> pa.Table:
        cols = {"op": b["op"]}
        for name in TRIPLE_COLUMNS:
            col = b[name]
            if name.endswith("_kind"):
                col = pc.cast(col, pa.int64())
            cols[name] = col
        return pa.table(cols)

    return delta.map_batches(cast_kinds, batch_format="pyarrow")


def q_kg_delta_apply(sf_dir: str):
    """Incremental KG maintenance end-to-end: the OLD crawl's build is
    written to the dictionary-encoded Parquet store, the add/del delta
    vs the recrawl is computed (:func:`graph_delta`), applied to the
    STORED graph (:func:`apply_delta` — del = co-located anti-join,
    add = union, one triple-hash exchange), and the updated graph is
    returned.  Must equal the recrawl's distinct triple set exactly
    (the oracle), proving a recrawl needs only delta-sized work against
    the standing store, never a full rebuild."""
    import hashlib
    import os
    import shutil

    from ..sinks.parquet_store import decode_store, write_store
    from ..stages.materialize import apply_delta, dedup_exact, graph_delta

    out = (
        "/tmp/argo_delta_apply/"
        + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
        + f"-{os.getpid()}"
    )
    shutil.rmtree(out, ignore_errors=True)
    write_store(dedup_exact(_crawl_snapshot(sf_dir, drop_mod=2)), out)
    stored = decode_store(out)
    delta = graph_delta(stored, _crawl_snapshot(sf_dir, drop_mod=0))
    return _finalize(apply_delta(decode_store(out), delta))


def _qa_report_over(triples_ds):
    """Shared QA-report core: distinct (metric, value) pair scatter →
    one distinct exchange → 10-key count (see q_kg_qa_report)."""
    from ray.data.aggregate import Sum

    from ..stages.materialize import distinct_rows
    from ..terms import RDF_TYPE

    SEP = pa.scalar("\x1f", pa.large_string())

    def pairs(b: pa.Table) -> pa.Table:
        def ls(name):
            return pc.cast(b[name], pa.large_string())

        def join(*arrs):
            return pc.binary_join_element_wise(*arrs, SEP)

        subj_kind = pc.cast(b["subj_kind"], pa.int64())
        obj_kind = pc.cast(b["obj_kind"], pa.int64())
        sv, pv, ov = ls("subj_value"), ls("pred_value"), ls("obj_value")
        full = join(
            ls("subj_kind"), sv, ls("subj_lang"), ls("subj_datatype"),
            ls("pred_kind"), pv, ls("pred_lang"), ls("pred_datatype"),
            ls("obj_kind"), ov, ls("obj_lang"), ls("obj_datatype"),
        )
        subj = join(ls("subj_kind"), sv)
        lit = join(ov, ls("obj_lang"), ls("obj_datatype"))

        is_lit = pc.equal(obj_kind, pa.scalar(2, pa.int64()))
        is_type = pc.equal(pv, pa.scalar(RDF_TYPE, pa.large_string()))
        nonempty = lambda name: pc.not_equal(ls(name), pa.scalar("", pa.large_string()))

        out = []

        def emit(name, arr, mask=None):
            if mask is not None:
                arr = arr.filter(mask)
            out.append(
                pa.table(
                    {
                        "metric": pa.array([name] * len(arr), pa.large_string()),
                        "value": arr,
                    }
                )
            )

        emit("n_triples", full)
        emit("n_subjects", subj)
        emit("n_predicates", pv)
        emit("n_iri_entities", sv, pc.equal(subj_kind, pa.scalar(0, pa.int64())))
        emit("n_iri_entities", ov, pc.equal(obj_kind, pa.scalar(0, pa.int64())))
        emit("n_bnodes", sv, pc.equal(subj_kind, pa.scalar(1, pa.int64())))
        emit("n_bnodes", ov, pc.equal(obj_kind, pa.scalar(1, pa.int64())))
        emit("n_literals", lit, is_lit)
        emit("n_lang_literals", lit, pc.and_(is_lit, nonempty("obj_lang")))
        emit("n_typed_literals", lit, pc.and_(is_lit, nonempty("obj_datatype")))
        emit("n_typed_subjects", subj, is_type)
        emit("n_classes", ov, is_type)
        return pa.concat_tables(out)

    uniq = distinct_rows(
        triples_ds.map_batches(pairs, batch_format="pyarrow"),
        ["metric", "value"],
    )

    def partial(b: pa.Table) -> pa.Table:
        counted = (
            pa.table({"metric": pc.cast(b["metric"], pa.string())})
            .group_by("metric")
            .aggregate([("metric", "count")])
        )
        return pa.table(
            {
                "metric": pc.cast(counted["metric"], pa.string()),
                "part": pc.cast(counted["metric_count"], pa.int64()),
            }
        )

    return (
        uniq.map_batches(partial, batch_format="pyarrow")
        .groupby("metric")
        .aggregate(Sum("part", alias_name="n"))
    )


def q_kg_qa_report(sf_dir: str):
    """KG QA report: the distinct-count health metrics a KG build
    publishes (triples, subjects, predicates, IRI entities, bnodes,
    literal inventory, typing coverage).  ONE vectorized scatter pass
    over the distinct triple set emits (metric, value) pairs, one
    distinct exchange dedups them globally, then per-block partial
    counts + a 10-key groupby sum produce the report — shuffle volume
    = distinct pairs, never the corpus."""
    return _qa_report_over(_deduped(sf_dir))


def _planted_dirty(sf_dir: str):
    """The dirtied KG fixture shared by kg_shacl_validate and
    kg_build_pipeline: every doc_id%11==0 gains a second distinct
    dc:title (functional-property violation), every doc_id%13==0 an
    untyped ex:chars literal (datatype violation); the hub subject has
    no rdf:type in the clean build already."""
    ls = lambda s: pa.scalar(s, pa.large_string())  # noqa: E731
    title_iri = DC_NS + "title"
    chars_iri = EX_NS + "chars"

    def plant(b: pa.Table) -> pa.Table:
        subj = pc.cast(b["subj_value"], pa.large_string())
        pred = pc.cast(b["pred_value"], pa.large_string())
        ids = pc.extract_regex(subj, pattern=r"/doc/(?P<id>\d+)$")
        idv = pc.cast(pc.struct_field(ids, "id"), pa.int64())

        def mod_is0(m: int):
            r = pc.subtract(
                idv, pc.multiply(pc.divide(idv, pa.scalar(m, pa.int64())),
                                 pa.scalar(m, pa.int64()))
            )
            return pc.fill_null(pc.equal(r, pa.scalar(0, pa.int64())), False)

        titles = b.filter(pc.and_(mod_is0(11), pc.equal(pred, ls(title_iri))))
        extra_title = titles.set_column(
            titles.schema.get_field_index("obj_value"),
            "obj_value",
            pc.binary_join_element_wise(
                pc.cast(titles["obj_value"], pa.large_string()), ls("!"), ls("")
            ),
        )
        chars = b.filter(pc.and_(mod_is0(13), pc.equal(pred, ls(chars_iri))))
        extra_chars = chars.set_column(
            chars.schema.get_field_index("obj_datatype"),
            "obj_datatype",
            pa.array([""] * chars.num_rows, chars["obj_datatype"].type),
        )
        return pa.concat_tables([b, extra_title, extra_chars])

    return _deduped(sf_dir).map_batches(
        lambda b: plant(b.select(TRIPLE_COLUMNS)), batch_format="pyarrow"
    )


_SHACL_SHAPES = dict(
    functional_preds=(DC_NS + "title",),
    required_type=True,
    datatype_constraints={EX_NS + "chars": XSD_NS + "integer"},
)


def q_kg_shacl_validate(sf_dir: str):
    """SHACL-lite validation over the deliberately dirtied KG (see
    :func:`_planted_dirty` for the planted violations; the hub is
    naturally untyped).  Violations come back as distinct
    (shape, subj_value) rows
    (:func:`argo_ray.stages.validate.validate_graph`)."""
    from ..stages.validate import validate_graph

    return validate_graph(_planted_dirty(sf_dir), **_SHACL_SHAPES)


def q_kg_er_candidates(sf_dir: str):
    """Entity-resolution blocking: discover cross-source owl:sameAs
    CANDIDATES by blocked join on the dc:title attribute — block
    key = exact title, one sort exchange co-locates each block, a
    per-block cross of the two namespaces emits (src, dst) pairs.
    Title collisions across different docs produce extra candidates
    by design (blocking is a recall stage; precision comes from the
    downstream verify).  The partitioning assumption is the usual
    blocked-ER one: a block fits a worker (salt the block key if a
    title ever goes hot)."""
    import pandas as pd

    from ..stages.grouping import grouped_map

    KG = "https://kg.example.org/doc/"
    KB = "https://kb.example.org/entity/"
    title_iri = DC_NS + "title"

    def titles(b: pa.Table) -> pa.Table:
        m = pc.equal(
            pc.cast(b["pred_value"], pa.large_string()),
            pa.scalar(title_iri, pa.large_string()),
        )
        f = b.filter(m)
        return pa.table(
            {
                "entity": pc.cast(f["subj_value"], pa.string()),
                "title": pc.cast(f["obj_value"], pa.string()),
            }
        )

    kg_side = _deduped(sf_dir).map_batches(titles, batch_format="pyarrow")

    # the second source: same attribute table under the kb namespace
    def to_kb(b: pa.Table) -> pa.Table:
        ent = pc.replace_substring_regex(
            pc.cast(b["entity"], pa.large_string()),
            pattern="^" + re.escape(KG),
            replacement=KB,
        )
        return pa.table(
            {"entity": pc.cast(ent, pa.string()), "title": b["title"]}
        )

    kb_side = kg_side.map_batches(to_kb, batch_format="pyarrow")

    def tag(ds, side: int):
        return ds.map_batches(
            lambda b, s=side: b.append_column(
                "side", pa.array([s] * b.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
        )

    both = tag(kg_side, 0).union(tag(kb_side, 1))

    def block_pairs(g: pd.DataFrame) -> pd.DataFrame:
        a = g.loc[g["side"] == 0, "entity"]
        b = g.loc[g["side"] == 1, "entity"]
        if a.empty or b.empty:
            return pd.DataFrame({"src": [], "dst": []})
        m = a.to_frame("src").merge(b.to_frame("dst"), how="cross")
        return m[["src", "dst"]]

    return grouped_map(both, "title", block_pairs)


def q_kg_node_table(sf_dir: str):
    """Property-graph export (the KG → tabular-ML bridge): pivot each
    Document entity's literal/IRI attributes into ONE wide row
    (entity, type, title, lang, n_chars, site).  Per-batch sparse
    pivot partials (each predicate lands in its own column, absent =
    neutral), then a single groupby(entity) Max — one value per
    predicate per subject after dedup, so Max IS the value."""
    from ray.data.aggregate import Max

    ls = lambda s: pa.scalar(s, pa.large_string())  # noqa: E731
    KG = "https://kg.example.org/doc/"
    preds = {
        "type": "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
        "title": DC_NS + "title",
        "lang": DC_NS + "language",
        "site": EX_NS + "site",
    }

    def pivot_partial(b: pa.Table) -> pa.Table:
        subj = pc.cast(b["subj_value"], pa.large_string())
        in_kg = pc.starts_with(subj, pattern=KG)
        f = b.filter(in_kg)
        fsubj = pc.cast(f["subj_value"], pa.string())
        fpred = pc.cast(f["pred_value"], pa.large_string())
        fobj = pc.cast(f["obj_value"], pa.large_string())
        cols = {"entity": fsubj}
        for name, iri in preds.items():
            cols[name] = pc.cast(
                pc.if_else(pc.equal(fpred, ls(iri)), fobj, ls("")), pa.string()
            )
        chars = pc.if_else(
            pc.equal(fpred, ls(EX_NS + "chars")),
            pc.cast(fobj, pa.large_string()),
            ls("0"),
        )
        cols["n_chars"] = pc.cast(pc.cast(chars, pa.string()), pa.int64())
        t = pa.table(cols)
        g = t.group_by("entity").aggregate(
            [(c, "max") for c in list(preds) + ["n_chars"]]
        )
        # name-based selection — the position of the group key in
        # TableGroupBy.aggregate output differs across pyarrow versions
        return pa.table(
            {"entity": g["entity"]}
            | {c: g[f"{c}_max"] for c in list(preds) + ["n_chars"]}
        )

    return (
        _deduped(sf_dir)
        .map_batches(pivot_partial, batch_format="pyarrow")
        .groupby("entity")
        .aggregate(
            Max("type", alias_name="type"),
            Max("title", alias_name="title"),
            Max("lang", alias_name="lang"),
            Max("site", alias_name="site"),
            Max("n_chars", alias_name="n_chars"),
        )
    )


def q_kg_adjacency(sf_dir: str):
    """CSR-style adjacency export for external graph engines: one row
    per source node with its sorted comma-joined neighbor list and
    out-degree — one sort exchange co-locates each node's edges, the
    per-group join is vectorized pandas."""
    import pandas as pd

    from ..stages.grouping import grouped_map

    def adj(g: pd.DataFrame) -> pd.DataFrame:
        dsts = sorted(g["dst"].tolist())
        return pd.DataFrame(
            {
                "node": [g["src"].iloc[0]],
                "neighbors": [",".join(dsts)],
                "out_degree": [len(dsts)],
            }
        )

    out = grouped_map(_kg_link_edges(sf_dir), "src", adj)
    return out.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "neighbors": pc.cast(b["neighbors"], pa.string()),
                "out_degree": pc.cast(b["out_degree"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_kg_build_pipeline(sf_dir: str):
    """Composed KG-build flagship: extract → exact dedup → SHACL-lite
    validation → QUARANTINE every violating subject (all its triples
    drop, the standard remediate-by-entity rule) → QA report of the
    published graph.  The gate is a co-located anti-join: violation
    subjects become marker rows, one subject sort groups each
    subject's triples with its markers, groups with a marker drop."""
    import pandas as pd

    from ..stages.grouping import grouped_map
    from ..stages.validate import validate_graph

    dirty = _planted_dirty(sf_dir)
    violations = validate_graph(dirty, **_SHACL_SHAPES)

    def markers(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = {}
        for name in TRIPLE_COLUMNS:
            if name == "subj_value":
                cols[name] = pc.cast(b["subj_value"], pa.large_string())
            elif name.endswith("_kind"):
                cols[name] = pa.array([0] * n, pa.int64())
            else:
                cols[name] = pa.array([""] * n, pa.large_string())
        cols["_bad"] = pa.array([1] * n, pa.int64())
        return pa.table(cols)

    def tag_triples(b: pa.Table) -> pa.Table:
        cols = {}
        for name in TRIPLE_COLUMNS:
            col = b[name]
            if name.endswith("_kind"):
                col = pc.cast(col, pa.int64())
            else:
                col = pc.cast(col, pa.large_string())
            cols[name] = col
        cols["_bad"] = pa.array([0] * b.num_rows, pa.int64())
        return pa.table(cols)

    both = dirty.map_batches(tag_triples, batch_format="pyarrow").union(
        violations.map_batches(markers, batch_format="pyarrow")
    )

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        if g["_bad"].max() == 1:
            return pd.DataFrame()
        return g.drop(columns=["_bad"])

    clean = grouped_map(both, "subj_value", gate)
    return _qa_report_over(clean)


def q_kg_edge_table(sf_dir: str):
    """Property-graph edge export (kg_node_table's sibling): one row
    per distinct (src, label, dst) relationship — non-literal triples
    projected and deduped on the skew-proof triple hash."""
    from ..stages.materialize import distinct_rows

    def edges(b: pa.Table) -> pa.Table:
        f = b.filter(
            pc.not_equal(pc.cast(b["obj_kind"], pa.int64()), pa.scalar(2, pa.int64()))
        )
        return pa.table(
            {
                "src": pc.cast(f["subj_value"], pa.string()),
                "label": pc.cast(f["pred_value"], pa.string()),
                "dst": pc.cast(f["obj_value"], pa.string()),
            }
        )

    return distinct_rows(
        _extract(sf_dir).map_batches(edges, batch_format="pyarrow"),
        ["src", "label", "dst"],
    )


def q_point_lookups(sf_dir: str):
    """M3: ``Graph.Get`` / ``GetAll`` / ``HasSubject`` point lookups
    (``graph.go:185-229``) against the deduped extraction for three
    fixed entities.  These are driver-side accessors by design in the
    reference too (each is a filtered streaming scan + limit); the
    in-pipeline form at scale is the broadcast lookup join (J3,
    ``stages/link.py``).  The dataset is materialized once so the nine
    lookups share one extraction run instead of re-executing it."""
    from ..stages.filter import get_all_objects, get_first_object, has_subject

    ds = _deduped(sf_dir).materialize()
    dc_title = IRI(DC_NS + "title")
    ex_chars = IRI(EX_NS + "chars")
    subjects, titles, chars_ints, has_flags = [], [], [], []
    for did in (0, 1, 2):
        s = IRI(entity_iri(did))
        title_objs = get_all_objects(ds, s, dc_title)
        chars = get_first_object(ds, s, ex_chars)
        subjects.append(entity_iri(did))
        titles.append(title_objs[0].value if title_objs else "")
        chars_ints.append(int(chars.value) if chars else -1)
        has_flags.append(1 if has_subject(ds, s) else 0)
    return pa.table(
        {
            "subj_value": pa.array(subjects, pa.string()),
            "title": pa.array(titles, pa.string()),
            "chars_int": pa.array(chars_ints, pa.int64()),
            "has_subject": pa.array(has_flags, pa.int64()),
        }
    )


def q_list_walk_grouped(sf_dir: str):
    """J2: ``Graph.Get`` point lookups during a cons-list walk
    (``graph.go:210-218,255-271``), distributed: each document's list
    cells are emitted as flat triple rows keyed by the root doc, ONE
    exchange groups every root's cells, and the walk
    runs Get-by-Get against the transient per-group index (T4) inside
    ``map_groups`` — the reference's iterative index join, re-expressed
    as the partitioned walk that scales (the partitioning assumption:
    one list's cells share the group key, which the skolemizer's
    document-locality guarantees)."""
    from ..io import read_table
    from ..pages import title_of
    from ..stages.containers import decode_list, encode_list
    from ..stages.grouping import grouped_map
    from ..terms import Literal, table_to_triples

    def encode(b: pa.Table) -> pa.Table:
        dids, triples = [], []
        for did, text in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            root = IRI(entity_iri(did))
            items = [Literal(w) for w in title_of(text).split(" ")[:3]]
            for t in encode_list(root, items, list_key=str(did)):
                dids.append(did)
                triples.append(t)
        t = triples_to_table(triples, with_hash=False)
        return t.add_column(0, "doc_id", pa.array(dids, pa.int64()))

    flat = read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        encode, batch_format="pyarrow"
    )

    def walk(group: pa.Table) -> pa.Table:
        did = group["doc_id"][0].as_py()
        root = IRI(entity_iri(did))
        items = decode_list(table_to_triples(group.select(TRIPLE_COLUMNS)), root)
        return pa.table(
            {
                "subj_value": pa.array([entity_iri(did)] * len(items), pa.string()),
                "pos": pa.array(range(1, len(items) + 1), pa.int64()),
                "word": pa.array([t.value for t in items], pa.string()),
            }
        )

    return grouped_map(flat, "doc_id", walk, batch_format="pyarrow")


def q_multi_source_fanin(sf_dir: str, scratch_dir: str | None = None):
    """S5: the ``ParseFile`` → format-registry connector glue
    (``graph.go:281-311``; ``rdf.py::read_rdf_files``): the deduped
    extraction is split in two, serialized to an ``.nt`` and an
    ``.rdf`` scratch file, and both files are read back through the
    extension-inferred distributed file connector and fanned in (A6
    union) — recovering exactly the original distinct set.  The
    driver-side collect is the fixture writer, not the pipeline: the
    read side is the distributed path under test.

    ``scratch_dir`` (or ``$GRAFT_SCRATCH``) must be storage every
    worker can read — NFS/object-store URI on a multi-node cluster;
    the driver-local /tmp default is for single-node runs, where
    ``read_binary_files`` tasks all land on the one node."""
    import os
    import tempfile

    from ..rdf import read_rdf_files
    from ..sinks.ntriples import serialize_ntriples

    rows = _deduped(sf_dir).select_columns(TRIPLE_COLUMNS).take_all()
    tbl = pa.Table.from_pylist(rows).select(TRIPLE_COLUMNS)
    half_a = tbl.slice(0, tbl.num_rows // 2)
    half_b = tbl.slice(tbl.num_rows // 2)
    scratch = tempfile.mkdtemp(
        prefix="fanin_",
        dir=scratch_dir or os.environ.get("GRAFT_SCRATCH", "/tmp"),
    )
    with open(os.path.join(scratch, "a.nt"), "w", encoding="utf-8") as f:
        f.write(serialize_ntriples(half_a))
    with open(os.path.join(scratch, "b.rdf"), "w", encoding="utf-8") as f:
        f.write(serialize_rdfxml(half_b))

    parts = read_rdf_files([os.path.join(scratch, "*.nt"), os.path.join(scratch, "*.rdf")])
    unioned = parts[0]
    for p in parts[1:]:
        unioned = unioned.union(p)
    return _finalize(dedup_exact(unioned))


def q_url_source_fanin(sf_dir: str, scratch_dir: str | None = None):
    """S5+: the opt-in URL source (``graph.go:313-335`` twin,
    :func:`argo_ray.sources.url.read_urls`) driven the driver's way —
    the deduped extraction split across an ``.nt`` and a ``.ttl``
    scratch file, fetched back through ``file://`` URLs with the
    format resolved per-URL by extension sniffing inside the fetch
    actor, clean rows filtered on ``source_error IS NULL`` —
    recovering exactly the original distinct set.  Same scratch-dir
    reachability caveat as ``multi_source_fanin``."""
    import os
    import tempfile

    from ..sinks.ntriples import serialize_ntriples
    from ..sinks.turtle import serialize_turtle
    from ..sources.url import read_urls

    rows = _deduped(sf_dir).select_columns(TRIPLE_COLUMNS).take_all()
    tbl = pa.Table.from_pylist(rows).select(TRIPLE_COLUMNS)
    half_a = tbl.slice(0, tbl.num_rows // 2)
    half_b = tbl.slice(tbl.num_rows // 2)
    scratch = tempfile.mkdtemp(
        prefix="urlfanin_",
        dir=scratch_dir or os.environ.get("GRAFT_SCRATCH", "/tmp"),
    )
    with open(os.path.join(scratch, "a.nt"), "w", encoding="utf-8") as f:
        f.write(serialize_ntriples(half_a))
    with open(os.path.join(scratch, "b.ttl"), "w", encoding="utf-8") as f:
        f.write(serialize_turtle(half_b, {}))

    ds = read_urls(
        [f"file://{scratch}/a.nt", f"file://{scratch}/b.ttl"]
    )
    clean = ds.map_batches(
        lambda b: b.filter(pc.is_null(b["source_error"])).select(
            TRIPLE_COLUMNS
        ),
        batch_format="pyarrow",
    )
    return _finalize(dedup_exact(clean))


def q_prefix_cache_expand(sf_dir: str):
    """T1: the persisted prefix cache (``namespace.go:111-177``:
    prefix.cc lookup + gob save/load).  A driver-side resolver hook
    (the prefix.cc stand-in — NEVER called mid-pipeline) warms the
    cache from the nation table, ``save`` persists it, a fresh
    resolver-less ``PrefixCache`` reloads the file, and THAT cache is
    broadcast via ``ray.put`` into a ``map_batches`` CURIE expansion —
    builtins fall through, unknown prefixes expand to ``""`` exactly
    like the reference's failed lookup."""
    import os
    import tempfile

    import pyarrow.parquet as pq
    import ray

    from ..io import read_table
    from ..namespaces import PrefixCache

    names = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_name"]
    )["n_name"].to_pylist()
    resolved = {n.lower(): f"https://ns.example.org/{n.lower()}/" for n in names}

    scratch = tempfile.mkdtemp(prefix="pfx_", dir="/tmp")
    cache_file = os.path.join(scratch, "prefixes.json")
    warm = PrefixCache(resolver=lambda p: resolved.get(p, ""))
    for n in names:
        warm.lookup(n.lower())
    warm.save(cache_file)

    reloaded = PrefixCache(cache_file=cache_file)  # no resolver: task-safe
    cache_ref = ray.put(reloaded)

    return read_table(sf_dir, "nation", columns=["n_name"]).map_batches(
        _PrefixExpand,
        fn_constructor_args=(cache_ref,),
        concurrency=1,
        num_cpus=0,  # a lookup pool: see io.configure_context
        batch_format="pyarrow",
    )


class _PrefixExpand:
    """Actor-pool CURIE expansion: the broadcast cache ref resolves
    ONCE per actor in ``__init__`` (the _PmiScorer pattern), never per
    batch."""

    def __init__(self, cache_ref):
        import ray

        self.cache = ray.get(cache_ref)

    def __call__(self, b: pa.Table) -> pa.Table:
        prefixes = [n.lower() for n in b["n_name"].to_pylist()]
        uris = [self.cache.lookup(p) for p in prefixes]
        return pa.table(
            {
                "prefix": pa.array(prefixes, pa.string()),
                "iri": pa.array(
                    [(u + "thing") if u else "" for u in uris], pa.string()
                ),
                "rdf_uri": pa.array(
                    [self.cache.lookup("rdf")] * len(prefixes), pa.string()
                ),
                "miss": pa.array(
                    [self.cache.lookup("zzz_nosuch")] * len(prefixes), pa.string()
                ),
            }
        )


def q_repl_prefix_trim(sf_dir: str):
    """M12: REPL prefix trimming (``sparqlclient.go:17,99-107``;
    ``sources/sparql_results.py::trim_prefixes``) over a synthesized
    per-document session line carrying TWO stacked ``PREFIX`` decls —
    both trimmed into the session map, remainder returned."""
    from ..io import read_table
    from ..pages import page_url
    from ..sources.sparql_results import trim_prefixes

    def fn(b: pa.Table) -> pa.Table:
        doc_ids = b["doc_id"].to_pylist()
        langs = b["lang"].to_pylist()
        sources = b["source"].to_pylist()
        rests, page_uris, entity_uris = [], [], []
        for did, lang, src in zip(doc_ids, langs, sources):
            line = (
                f"PREFIX p{did}: <{page_url(src, did)}> . "
                f"PREFIX q{did}: <{entity_iri(did)}> . SELECT ?x # {lang}"
            )
            prefixes: dict[str, str] = {}
            rests.append(trim_prefixes(line, prefixes))
            page_uris.append(prefixes[f"p{did}"])
            entity_uris.append(prefixes[f"q{did}"])
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "rest": pa.array(rests, pa.string()),
                "page_uri": pa.array(page_uris, pa.string()),
                "entity_uri": pa.array(entity_uris, pa.string()),
            }
        )

    return read_table(sf_dir, "documents", columns=["doc_id", "lang", "source"]).map_batches(
        fn, batch_format="pyarrow"
    )


def q_kg_reify_roundtrip(sf_dir: str):
    """RDF reification round-trip — the provenance-attachment encoding
    (rdf:Statement + rdf:subject/predicate/object, W3C RDF 1.1 §5.3):
    every deduped triple encodes to 4 reification triples under a
    deterministic statement IRI (md5 of its canonical N-Triples line),
    then the statements reassemble to the original triples.  Encode is
    a zero-shuffle flat map (4× fan-out); decode is ONE sort-colocated
    ``grouped_map`` on the statement IRI (all 4 rows of a statement
    colocate by construction).  Output must equal ``dedup_exact``."""
    import hashlib

    import pandas as pd

    from ..stages.grouping import grouped_map

    RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

    def reify(b: pa.Table) -> pa.Table:
        b = b.select(TRIPLE_COLUMNS)
        lines = to_nt_lines_batch(b)["line"].to_pylist()
        stmts = pa.array(
            [
                "https://kg.example.org/stmt/" + hashlib.md5(ln.encode()).hexdigest()
                for ln in lines
            ],
            pa.string(),
        )
        n = b.num_rows
        zeros = pa.array([0] * n, pa.int64())
        empty = pa.array([""] * n, pa.string())

        def rows(pred: str, okind, oval, olang, odt) -> pa.Table:
            return pa.table(
                {
                    "subj_kind": zeros,
                    "subj_value": stmts,
                    "subj_lang": empty,
                    "subj_datatype": empty,
                    "pred_kind": zeros,
                    "pred_value": pa.array([pred] * n, pa.string()),
                    "pred_lang": empty,
                    "pred_datatype": empty,
                    "obj_kind": pc.cast(okind, pa.int64()),
                    "obj_value": pc.cast(oval, pa.string()),
                    "obj_lang": pc.cast(olang, pa.string()),
                    "obj_datatype": pc.cast(odt, pa.string()),
                }
            )

        parts = [
            rows(
                RDF + "type",
                zeros,
                pa.array([RDF + "Statement"] * n, pa.string()),
                empty,
                empty,
            )
        ]
        for role, src in (
            ("subject", "subj"),
            ("predicate", "pred"),
            ("object", "obj"),
        ):
            parts.append(
                rows(
                    RDF + role,
                    b[f"{src}_kind"],
                    b[f"{src}_value"],
                    b[f"{src}_lang"],
                    b[f"{src}_datatype"],
                )
            )
        return pa.concat_tables(parts)

    reified = _deduped(sf_dir).map_batches(reify, batch_format="pyarrow")

    RDF_ = RDF  # close over for the worker fn

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        by_pred = g.set_index("pred_value")
        out = {}
        for role, dst in (
            ("subject", "subj"),
            ("predicate", "pred"),
            ("object", "obj"),
        ):
            row = by_pred.loc[RDF_ + role]
            for part in ("kind", "value", "lang", "datatype"):
                out[f"{dst}_{part}"] = [row[f"obj_{part}"]]
        return pd.DataFrame(out)

    return _finalize(
        grouped_map(reified, "subj_value", rebuild).map_batches(
            lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
        )
    )


def q_nt_gz_roundtrip(sf_dir: str):
    """Gzipped N-Triples round-trip (Common-Crawl dumps ship
    ``.nt.gz``): deduped graph → ``.nt.gz`` part files (deterministic
    mtime=0 bytes) → ``read_binary_files`` + per-task gunzip+parse
    back.  Compression stays inside workers on both legs; output is
    the identity on the deduped graph."""
    import tempfile

    from ..sinks.ntriples import write_ntriples_gz
    from ..sources.ntriples import read_ntriples_gz

    out_dir = tempfile.mkdtemp(prefix="ntgz_", dir="/tmp")
    write_ntriples_gz(_deduped(sf_dir), out_dir)
    return _finalize(
        read_ntriples_gz(out_dir).map_batches(
            lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
        )
    )


def q_kg_prov_export(sf_dir: str):
    """Checkpoint lineage as PROV-O triples: the 4-partition plan's
    per-partition document counts (ONE distributed count, the same
    doc_id%4 predicate the job CLI plans with) rendered as
    prov:Activity / prov:Entity / prov:wasGeneratedBy + an
    xsd:integer count literal — lineage queryable by the same SPARQL
    engine as the KG it describes
    (:func:`argo_ray.state.checkpoint.prov_triples_batch`)."""
    from ray.data.aggregate import Count

    from ..io import read_table
    from ..state.checkpoint import prov_triples_batch

    def to_pid(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        return pa.table(
            {
                "partition_id": pc.subtract(
                    ids, pc.multiply(pc.divide(ids, 4), 4)
                )
            }
        )

    counts = (
        read_table(sf_dir, "documents", columns=["doc_id"])
        .map_batches(to_pid, batch_format="pyarrow")
        .groupby("partition_id")
        .aggregate(Count(alias_name="n_documents"))
    )
    return counts.map_batches(prov_triples_batch, batch_format="pyarrow")


def q_sparql_over_prov(sf_dir: str):
    """Composition: the SPARQL engine querying the PROV lineage graph
    the checkpoint system exports — "which activity generated each
    shard, and how many documents did it process" — proving run
    provenance is first-class KG data, not a side file."""
    from ..sparql import evaluate_select

    q = """PREFIX prov: <http://www.w3.org/ns/prov#>
    PREFIX run: <https://kg.example.org/run/>
    SELECT ?shard ?activity ?n WHERE {
      ?shard prov:wasGeneratedBy ?activity .
      ?activity run:documents ?n .
    }"""
    return evaluate_select(q_kg_prov_export(sf_dir).materialize(), q)


def q_kg_incremental_update(sf_dir: str):
    """The full incremental-crawl loop in ONE composition — change
    detection → selective re-extraction → subject-scoped delta →
    merge — proving a recrawl re-extracts only CHANGED pages, not the
    corpus:

    1. gen-0 graph = full extract (the standing KG).
    2. gen-1 mutates every 4th doc's language (the recrawl).
    3. content-hash change detection (the ``pages_change_detect``
       plan) finds exactly the changed URLs — ONE narrow groupby(url)
       over (url, h1, h2) rows.
    4. ONLY those gen-1 pages re-extract; the standing graph drops the
       changed pages' entity-subject rows (churn-bounded broadcast set
       — at a real crawl's churn rate this is the small side by
       construction; the co-located marker anti-join is the fallback
       when it is not); union + ONE triple-hash dedup merges (hub/
       mention rows the re-extraction re-asserts collapse).

    Output must equal the full gen-1 graph exactly — the oracle is the
    EXP reconstruction with the mutated language."""
    from ray.data.aggregate import Max, Min

    import ray

    from ..io import read_table
    from ..pages import synth_pages_batch
    from ..stages.materialize import dedup_exact
    from ..terms import hash64

    def mutate(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        four = pa.scalar(4, pa.int64())
        changed = pc.equal(
            pc.subtract(ids, pc.multiply(pc.divide(ids, four), four)),
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {
                "doc_id": ids,
                "text": pc.cast(b["text"], pa.string()),
                "lang": pc.if_else(
                    changed, pa.scalar("xx", pa.string()),
                    pc.cast(b["lang"], pa.string()),
                ),
                "source": pc.cast(b["source"], pa.string()),
                "n_chars": pc.cast(b["n_chars"], pa.int64()),
            }
        )

    gen0 = pages_dataset(sf_dir).materialize()
    gen1 = (
        read_table(sf_dir, "documents")
        .map_batches(mutate, batch_format="pyarrow")
        .map_batches(synth_pages_batch, batch_format="pyarrow")
        .materialize()
    )

    def hrows(b: pa.Table) -> pa.Table:
        import numpy as np

        html_s = pc.cast(b["html"], pa.large_string())

        def as_i64(arr):
            return pa.array(
                np.asarray(arr, dtype=np.uint64).view(np.int64), pa.int64()
            )

        return pa.table(
            {
                "url": pc.cast(b["url"], pa.string()),
                "h1": as_i64(hash64(html_s, seed=0)),
                "h2": as_i64(hash64(html_s, seed=1)),
            }
        )

    changed_urls = set(
        gen0.map_batches(hrows, batch_format="pyarrow")
        .union(gen1.map_batches(hrows, batch_format="pyarrow"))
        .groupby("url")
        .aggregate(
            Min("h1", alias_name="h1min"), Max("h1", alias_name="h1max"),
            Min("h2", alias_name="h2min"), Max("h2", alias_name="h2max"),
        )
        .map_batches(
            lambda b: b.filter(
                pc.or_(
                    pc.not_equal(b["h1min"], b["h1max"]),
                    pc.not_equal(b["h2min"], b["h2max"]),
                )
            ).select(["url"]),
            batch_format="pyarrow",
        )
        .to_pandas()["url"]
    )
    # url https://docs.example.org/{source}/{id} → entity IRI per page
    changed_entities = {
        "https://kg.example.org/doc/" + u.rsplit("/", 1)[1]
        for u in changed_urls
    }
    url_ref = ray.put(changed_urls)
    ent_ref = ray.put(changed_entities)

    old_graph = dedup_exact(
        gen0.map_batches(extract_rdfa_batch, batch_format="pyarrow")
    )

    def drop_changed_subjects(b: pa.Table) -> pa.Table:
        ents = ray.get(ent_ref)
        keep = [v not in ents for v in b["subj_value"].to_pylist()]
        return b.filter(pa.array(keep))

    def only_changed_pages(b: pa.Table) -> pa.Table:
        urls = ray.get(url_ref)
        return b.filter(
            pa.array([u in urls for u in b["url"].to_pylist()])
        )

    fresh = gen1.map_batches(
        only_changed_pages, batch_format="pyarrow"
    ).map_batches(extract_rdfa_batch, batch_format="pyarrow")
    kept = old_graph.map_batches(
        drop_changed_subjects, batch_format="pyarrow"
    )
    merged = dedup_exact(
        kept.map_batches(
            lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
        ).union(
            fresh.map_batches(
                lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
            )
        )
    )
    return _finalize(merged)


def q_sparql_results_parse(sf_dir: str):
    """S6 driver-checked: a deterministic SELECT-results XML document is
    synthesized per doc (three binding kinds: typed literal, lang
    literal, uri), parsed by the streaming result parser, and every
    flattened binding is oracle-checked."""
    from ..io import read_table
    from ..sources.sparql_results import parse_select_batch

    def synth_and_parse(b: pa.Table) -> pa.Table:
        docs = []
        for doc_id, lang in zip(b["doc_id"].to_pylist(), b["lang"].to_pylist()):
            docs.append(
                '<?xml version="1.0"?>'
                '<sparql xmlns="http://www.w3.org/2005/sparql-results#">'
                "<head><variable name=\"id\"/><variable name=\"label\"/>"
                "<variable name=\"doc\"/></head><results><result>"
                f'<binding name="id"><literal datatype='
                f'"http://www.w3.org/2001/XMLSchema#integer">{doc_id}'
                "</literal></binding>"
                f'<binding name="label"><literal xml:lang="{lang}">doc '
                f"{doc_id}</literal></binding>"
                f'<binding name="doc"><uri>http://res.example.org/{doc_id}'
                "</uri></binding>"
                "</result></results></sparql>"
            )
        tbl = pa.table(
            {
                "doc_id": pc.cast(b["doc_id"], pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
        out = parse_select_batch(tbl)
        return pa.table(
            {
                "doc_id": pc.cast(out["doc_id"], pa.int64()),
                "var": out["var"],
                "kind": pc.cast(out["kind"], pa.int64()),
                "value": pc.cast(out["value"], pa.string()),
                "lang": out["lang"],
                "datatype": out["datatype"],
            }
        )

    return read_table(sf_dir, "documents", columns=["doc_id", "lang"]).map_batches(
        synth_and_parse, batch_format="pyarrow"
    )


_FMT_EXTS = [".nt", ".rdf", ".ttl", ".sqtl", ".json", ".html"]


def q_format_infer(sf_dir: str):
    """S8 driver-checked: per doc, a filename ``doc<N><ext>`` with ext
    cycling through every registered format; the registry's extension
    inference must return the expected format id and preferred MIME."""
    from ..io import read_table
    from ..sources.registry import format_from_filename

    def infer(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        names, mimes = [], []
        for d in ids:
            fmt = format_from_filename(f"doc{d}{_FMT_EXTS[d % 6]}")
            names.append(fmt.id if fmt else "")
            mimes.append(fmt.preferred_mime_type if fmt else "")
        return pa.table(
            {
                "doc_id": pc.cast(b["doc_id"], pa.int64()),
                "format_id": pa.array(names, pa.string()),
                "mime": pa.array(mimes, pa.string()),
            }
        )

    return read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        infer, batch_format="pyarrow"
    )


_LOOP_SRC = """
name <http://ex.org/loop/> as ex
func ex/F (a integer "left operand", b integer "right operand") {
    rdfs:label "per-document adder"
    loop:Add(loop:a a, loop:b b)
}
"""


def q_loop_eval(sf_dir: str):
    """loop DSL (T6) end-to-end, distributed: the program compiles once
    per batch (per-call parser state, the T5 pattern), then every doc
    becomes a call node ``F(a=n_chars, b=doc_id)`` evaluated by the
    interpreter — results oracle-checked against plain SQL addition."""
    from ..io import read_table
    from ..loop import LoopGraph, compile_loop, evaluate
    from ..terms import RDF_NS, XSD_NS, Blank, IRI, Literal

    def run(b: pa.Table) -> pa.Table:
        triples, funcs, prefixes = compile_loop(_LOOP_SRC)
        f_uri = funcs[0]
        a_p, b_p = IRI(f_uri + "/arg/a"), IRI(f_uri + "/arg/b")
        rdf_type, f_term = IRI(RDF_NS + "type"), IRI(f_uri)
        xint = XSD_NS + "integer"
        g = LoopGraph(triples, prefixes)
        ids = b["doc_id"].to_pylist()
        ncs = b["n_chars"].to_pylist()
        out = []
        for d, nc in zip(ids, ncs):
            call = Blank(f"call{d}")
            g.add_all(
                [
                    (call, rdf_type, f_term),
                    (call, a_p, Literal(str(nc), datatype=xint)),
                    (call, b_p, Literal(str(d), datatype=xint)),
                ]
            )
            out.append(int(evaluate(g, call)))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "loop_result": pa.array(out, pa.int64()),
            }
        )

    return read_table(sf_dir, "documents", columns=["doc_id", "n_chars"]).map_batches(
        run, batch_format="pyarrow"
    )


def q_kg_namespace_stats(sf_dir: str):
    """VoID-style vocabulary usage report: per predicate NAMESPACE
    (prefix split at the last #/ boundary) — distinct predicates and
    triple count.  Vectorized prefix split + per-batch partials + ONE
    tiny namespace groupby (namespaces are schema-bounded)."""
    from ray.data.aggregate import Sum

    from ..stages.canon import split_prefix_arrays

    def partial(b: pa.Table) -> pa.Table:
        base, _ = split_prefix_arrays(b["pred_value"])
        t = pa.table(
            {
                "namespace": pc.cast(base, pa.string()),
                "pred": pc.cast(b["pred_value"], pa.string()),
            }
        )
        g = t.group_by(["namespace", "pred"]).aggregate([("pred", "count")])
        return pa.table(
            {
                "namespace": pc.cast(g["namespace"], pa.string()),
                "pred": pc.cast(g["pred"], pa.string()),
                "n_part": pc.cast(g["pred_count"], pa.int64()),
            }
        )

    per_pred = (
        _deduped(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["namespace", "pred"])
        .aggregate(Sum("n_part", alias_name="n_triples"))
    )

    def roll(b: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "namespace": b["namespace"],
                    "one": pa.array([1] * b.num_rows, pa.int64()),
                    "n_triples": b["n_triples"],
                }
            )
            .group_by("namespace")
            .aggregate([("one", "sum"), ("n_triples", "sum")])
        )
        return pa.table(
            {
                "namespace": pc.cast(g["namespace"], pa.string()),
                "np_part": pc.cast(g["one_sum"], pa.int64()),
                "nt_part": pc.cast(g["n_triples_sum"], pa.int64()),
            }
        )

    return (
        per_pred.map_batches(roll, batch_format="pyarrow")
        .groupby("namespace")
        .aggregate(
            Sum("np_part", alias_name="n_preds"),
            Sum("nt_part", alias_name="n_triples"),
        )
    )


def q_kg_er_fs_score(sf_dir: str):
    """Fellegi–Sunter probabilistic record linkage (the public 1969
    model) over title-blocked candidate pairs: two record sources (the
    KG side and a deterministically-noised KB side — lang corrupted on
    doc_id%5, site on %3, the chars bucket on %2), agreement vector
    per pair on (lang, site, chars), per-field u-probabilities
    estimated EXACTLY from the candidate population (integer agree
    counts, ONE double division — bit-identical to the oracle's
    SUM/COUNT), fixed m=0.9, and the standard log-likelihood match
    weight ``agree ? ln(m/u) : ln((1-m)/(1-u))`` summed in fixed field
    order and rounded to 6 decimals before the >0 match decision.

    Distributed shape: blocking is ONE sort exchange on the title key
    (per-block cross of the two sides, fields carried through so no
    second join); the u-estimate is one Sum/Count aggregate over the
    materialized pair table; scoring is a zero-shuffle vectorized map
    with the three u floats captured in the closure (broadcast by
    value — 24 bytes)."""
    import pandas as pd

    from ..io import read_table
    from ..stages.grouping import grouped_map

    def records(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        toks = pc.split_pattern(pc.cast(b["text"], pa.large_string()), " ")
        title = pc.binary_join(
            pc.list_slice(toks, 0, 5), pa.scalar(" ", pa.large_string())
        )
        return pa.table(
            {
                "doc_id": ids,
                "title": pc.cast(title, pa.string()),
                "lang": pc.cast(b["lang"], pa.string()),
                "site": pc.subtract(
                    ids, pc.multiply(pc.divide(ids, 5), pa.scalar(5, pa.int64()))
                ),
                "chars": pc.divide(pc.cast(b["n_chars"], pa.int64()), 100),
            }
        )

    left = read_table(
        sf_dir, "documents", columns=["doc_id", "text", "lang", "n_chars"]
    ).map_batches(records, batch_format="pyarrow")

    def noise(b: pa.Table) -> pa.Table:
        ids = b["doc_id"]
        mod = lambda k: pc.subtract(  # noqa: E731
            ids, pc.multiply(pc.divide(ids, k), pa.scalar(k, pa.int64()))
        )
        z = pa.scalar(0, pa.int64())
        lang = pc.if_else(
            pc.equal(mod(5), z), pa.scalar("xx", pa.string()), b["lang"]
        )
        site1 = pc.add(b["site"], pa.scalar(1, pa.int64()))
        site1 = pc.subtract(
            site1, pc.multiply(pc.divide(site1, 5), pa.scalar(5, pa.int64()))
        )
        site = pc.if_else(pc.equal(mod(3), z), site1, b["site"])
        chars = pc.if_else(
            pc.equal(mod(2), z),
            pc.add(b["chars"], pa.scalar(1, pa.int64())),
            b["chars"],
        )
        return pa.table(
            {
                "doc_id": ids,
                "title": b["title"],
                "lang": lang,
                "site": site,
                "chars": chars,
            }
        )

    right = left.map_batches(noise, batch_format="pyarrow")

    def tag(ds, side: int):
        return ds.map_batches(
            lambda b, s=side: b.append_column(
                "side", pa.array([s] * b.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
        )

    both = tag(left, 0).union(tag(right, 1))

    def block_pairs(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["side"] == 0]
        b = g[g["side"] == 1]
        if a.empty or b.empty:
            return pd.DataFrame(
                {
                    "src": pd.Series([], dtype=str),
                    "dst": pd.Series([], dtype=str),
                    "agree_lang": pd.Series([], dtype="int64"),
                    "agree_site": pd.Series([], dtype="int64"),
                    "agree_chars": pd.Series([], dtype="int64"),
                }
            )
        m = a.merge(b, how="cross", suffixes=("_a", "_b"))
        return pd.DataFrame(
            {
                "src": "https://kg.example.org/doc/" + m["doc_id_a"].astype(str),
                "dst": "https://kb.example.org/entity/"
                + m["doc_id_b"].astype(str),
                "agree_lang": (m["lang_a"] == m["lang_b"]).astype("int64"),
                "agree_site": (m["site_a"] == m["site_b"]).astype("int64"),
                "agree_chars": (m["chars_a"] == m["chars_b"]).astype("int64"),
            }
        )

    pairs = grouped_map(both, "title", block_pairs).materialize()
    n = pairs.count()
    agg = pairs.sum(["agree_lang", "agree_site", "agree_chars"])
    us = {
        f: agg[f"sum({f})"] / n
        for f in ("agree_lang", "agree_site", "agree_chars")
    }
    M = 0.9

    def score(b: pa.Table) -> pa.Table:
        import numpy as np

        total = np.zeros(b.num_rows, dtype=np.float64)
        for f in ("agree_lang", "agree_site", "agree_chars"):
            agree = b[f].to_numpy(zero_copy_only=False).astype(bool)
            u = us[f]
            total = total + np.where(
                agree, np.log(M / u), np.log((1.0 - M) / (1.0 - u))
            )
        rounded = np.round(total, 6)
        out = b.append_column("score", pa.array(rounded, pa.float64()))
        return out.append_column(
            "is_match", pa.array(rounded > 0.0, pa.bool_())
        )

    return pairs.map_batches(score, batch_format="pyarrow")


def q_kg_fuse_majority(sf_dir: str):
    """Truth discovery / multi-source KG fusion: every document claims
    a value (its ``lang``) for its topic entity (``doc_id % 40``);
    conflicting claims resolve by majority vote — the value with the
    most supporting documents wins, ties to the smallest value.
    Combiner shape: per-batch (entity, value) partial counts → ONE
    groupby exchange → per-entity argmax in a sort-colocated block —
    claim volume never reaches the driver."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from ..io import read_table
    from ..stages.grouping import grouped_map

    def partial(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        t = pa.table(
            {
                "entity": pc.cast(
                    pc.subtract(ids, pc.multiply(pc.divide(ids, 40), 40)),
                    pa.int64(),
                ),
                "value": pc.cast(b["lang"], pa.string()),
            }
        )
        g = t.group_by(["entity", "value"]).aggregate([("entity", "count")])
        return pa.table(
            {
                "entity": pc.cast(g["entity"], pa.int64()),
                "value": pc.cast(g["value"], pa.string()),
                "n_part": pc.cast(g["entity_count"], pa.int64()),
            }
        )

    counts = (
        read_table(sf_dir, "documents", columns=["doc_id", "lang"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["entity", "value"])
        .aggregate(Sum("n_part", alias_name="support"))
    )

    def winner(df: pd.DataFrame) -> pd.DataFrame:
        # grouped_map hands ONE entity per call: argmax = sort + head
        df = df.sort_values(
            ["support", "value"], ascending=[False, True], kind="mergesort"
        )
        return df.head(1)[["entity", "value", "support"]]

    return grouped_map(counts, "entity", winner)


_SVO_RELS = ("join", "merge", "sort")


def q_docs_svo_triples(sf_dir: str):
    """Open relation extraction (pattern-based open IE): every
    ``w[i-1] REL w[i+1]`` token window with REL in a fixed verb set
    becomes a candidate (subj, rel, obj) triple; aggregated counts
    with min support 3 are the extracted relation table.  The window
    scan is pure numpy over the flattened token array (parent-index
    masks keep windows inside one document) — zero Python per row; the
    ONE groupby exchange moves (subj, rel, obj) partials."""
    import numpy as np

    from ray.data.aggregate import Sum

    from ..io import read_table

    rels = np.array(_SVO_RELS, dtype=object)

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern(pc.cast(b["text"], pa.large_string()), " ")
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        f = pc.cast(flat, pa.string()).to_numpy(zero_copy_only=False)
        if len(f) < 3:
            return pa.table(
                {
                    "subj": pa.array([], pa.string()),
                    "rel": pa.array([], pa.string()),
                    "obj": pa.array([], pa.string()),
                    "n_part": pa.array([], pa.int64()),
                }
            )
        mid = f[1:-1]
        mask = (
            np.isin(mid, rels)
            & (par[1:-1] == par[:-2])
            & (par[1:-1] == par[2:])
        )
        t = pa.table(
            {
                "subj": pa.array(f[:-2][mask], pa.string()),
                "rel": pa.array(mid[mask], pa.string()),
                "obj": pa.array(f[2:][mask], pa.string()),
            }
        )
        g = t.group_by(["subj", "rel", "obj"]).aggregate([("subj", "count")])
        return pa.table(
            {
                "subj": pc.cast(g["subj"], pa.string()),
                "rel": pc.cast(g["rel"], pa.string()),
                "obj": pc.cast(g["obj"], pa.string()),
                "n_part": pc.cast(g["subj_count"], pa.int64()),
            }
        )

    return (
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["subj", "rel", "obj"])
        .aggregate(Sum("n_part", alias_name="n"))
        .map_batches(
            lambda b: b.filter(
                pc.greater_equal(pc.cast(b["n"], pa.int64()), 3)
            ),
            batch_format="pyarrow",
        )
    )


KG_QUERIES = {
    "rdfa_extract": q_rdfa_extract,
    "dedup_exact": q_dedup_exact,
    "nt_lines": q_nt_lines,
    "nt_roundtrip": q_nt_roundtrip,
    "nquads_roundtrip": q_nquads_roundtrip,
    "trig_roundtrip": q_trig_roundtrip,
    "turtle_roundtrip": q_turtle_roundtrip,
    "rdfxml_roundtrip": q_rdfxml_roundtrip,
    "squirtle_roundtrip": q_squirtle_roundtrip,
    "rdfjson_roundtrip": q_rdfjson_roundtrip,
    "jsonld_roundtrip": q_jsonld_roundtrip,
    "filter_pattern": q_filter_pattern,
    "rewrite_regex": q_rewrite_regex,
    "split_prefix": q_split_prefix,
    "group_subject_count": q_group_subject_count,
    "kg_degree_topk": q_kg_degree_topk,
    "kg_predicate_hist": q_kg_predicate_hist,
    "kg_degree_gini": q_kg_degree_gini,
    "pages_change_detect": q_pages_change_detect,
    "microdata_extract": q_microdata_extract,
    "jsonld_extract": q_jsonld_extract,
    "kg_multisyntax_build": q_kg_multisyntax_build,
    "kg_void_stats": q_kg_void_stats,
    "kg_reciprocity": q_kg_reciprocity,
    "kg_degree_hist": q_kg_degree_hist,
    "kg_cross_syntax_er": q_kg_cross_syntax_er,
    "kg_property_profile": q_kg_property_profile,
    "kg_dangling_refs": q_kg_dangling_refs,
    "kg_schema_induce": q_kg_schema_induce,
    "kg_type_cooccur": q_kg_type_cooccur,
    "kg_key_detect": q_kg_key_detect,
    "kg_literal_hist": q_kg_literal_hist,
    "docs_length_hist": q_docs_length_hist,
    "kg_predicate_align": q_kg_predicate_align,
    "kg_temporal_fuse": q_kg_temporal_fuse,
    "kg_blank_canon": q_kg_blank_canon,
    "kg_reify_roundtrip": q_kg_reify_roundtrip,
    "sparql_construct_bnode_eval": q_sparql_construct_bnode_eval,
    "nt_gz_roundtrip": q_nt_gz_roundtrip,
    "kg_prov_export": q_kg_prov_export,
    "kg_incremental_update": q_kg_incremental_update,
    "sparql_over_prov": q_sparql_over_prov,
    "sparql_optional_bind_eval": q_sparql_optional_bind_eval,
    "sparql_nested_optional_eval": q_sparql_nested_optional_eval,
    "sparql_count_distinct_star_eval": q_sparql_count_distinct_star_eval,
    "sparql_neg_rev_path_eval": q_sparql_neg_rev_path_eval,
    "sparql_alt_rev_path_eval": q_sparql_alt_rev_path_eval,
    "kg_fill_rates": q_kg_fill_rates,
    "kg_entity_cards": q_kg_entity_cards,
    "kg_rdfs_infer": q_kg_rdfs_infer,
    "kg_owl_infer": q_kg_owl_infer,
    "typed_coercion": q_typed_coercion,
    "skolemize": q_skolemize,
    "union_sources": q_union_sources,
    "container_encode": q_container_encode,
    "entity_link": q_entity_link,
    "entity_link_join": q_entity_link_join,
    "entity_link_ranked": q_entity_link_ranked,
    "store_roundtrip": q_store_roundtrip,
    "graphstore_roundtrip": q_graphstore_roundtrip,
    "dedup_provenance": q_dedup_provenance,
    "list_roundtrip": q_list_roundtrip,
    "triple_pr": q_triple_pr,
    "sparql_select_eval": q_sparql_select_eval,
    "sparql_ask_eval": q_sparql_ask_eval,
    "sparql_construct_eval": q_sparql_construct_eval,
    "sparql_optional_eval": q_sparql_optional_eval,
    "sparql_union_eval": q_sparql_union_eval,
    "sparql_groupby_eval": q_sparql_groupby_eval,
    "sparql_over_store": q_sparql_over_store,
    "sparql_functions_eval": q_sparql_functions_eval,
    "sparql_count_distinct_eval": q_sparql_count_distinct_eval,
    "sparql_not_exists_eval": q_sparql_not_exists_eval,
    "sparql_alt_path_eval": q_sparql_alt_path_eval,
    "sparql_path_closure_eval": q_sparql_path_closure_eval,
    "sparql_subquery_eval": q_sparql_subquery_eval,
    "sparql_agg_subquery_eval": q_sparql_agg_subquery_eval,
    "sparql_group_concat_eval": q_sparql_group_concat_eval,
    "sparql_path_zero_or_one_eval": q_sparql_path_zero_or_one_eval,
    "sparql_neg_path_eval": q_sparql_neg_path_eval,
    "sparql_if_eval": q_sparql_if_eval,
    "sparql_strafter_eval": q_sparql_strafter_eval,
    "sparql_numeric_hash_eval": q_sparql_numeric_hash_eval,
    "sparql_select_expr_eval": q_sparql_select_expr_eval,
    "sparql_results_roundtrip": q_sparql_results_roundtrip,
    "sparql_results_tsv_roundtrip": q_sparql_results_tsv_roundtrip,
    "sparql_describe_eval": q_sparql_describe_eval,
    "sparql_values_eval": q_sparql_values_eval,
    "sparql_minus_eval": q_sparql_minus_eval,
    "sparql_having_eval": q_sparql_having_eval,
    "sparql_seq_path_eval": q_sparql_seq_path_eval,
    "sparql_orderby_eval": q_sparql_orderby_eval,
    "sparql_exists_eval": q_sparql_exists_eval,
    "sparql_service_eval": q_sparql_service_eval,
    "sparql_orderby_agg_eval": q_sparql_orderby_agg_eval,
    "sparql_service_agg_eval": q_sparql_service_agg_eval,
    "sparql_graph_eval": q_sparql_graph_eval,
    "sparql_langmatches_eval": q_sparql_langmatches_eval,
    "sparql_or_filter_eval": q_sparql_or_filter_eval,
    "sparql_iri_mint_eval": q_sparql_iri_mint_eval,
    "sparql_sum_distinct_eval": q_sparql_sum_distinct_eval,
    "sparql_path_star_eval": q_sparql_path_star_eval,
    "sparql_bind_eval": q_sparql_bind_eval,
    "sparql_bound_filter_eval": q_sparql_bound_filter_eval,
    "graphstore_patch": q_graphstore_patch,
    "graphstore_manage": q_graphstore_manage,
    "graphstore_patch_where": q_graphstore_patch_where,
    "kg_delta": q_kg_delta,
    "kg_qa_report": q_kg_qa_report,
    "kg_delta_apply": q_kg_delta_apply,
    "kg_shacl_validate": q_kg_shacl_validate,
    "kg_er_candidates": q_kg_er_candidates,
    "kg_node_table": q_kg_node_table,
    "kg_adjacency": q_kg_adjacency,
    "kg_build_pipeline": q_kg_build_pipeline,
    "kg_edge_table": q_kg_edge_table,
    "point_lookups": q_point_lookups,
    "list_walk_grouped": q_list_walk_grouped,
    "multi_source_fanin": q_multi_source_fanin,
    "url_source_fanin": q_url_source_fanin,
    "prefix_cache_expand": q_prefix_cache_expand,
    "repl_prefix_trim": q_repl_prefix_trim,
    "kg_er_fs_score": q_kg_er_fs_score,
    "kg_namespace_stats": q_kg_namespace_stats,
    "kg_fuse_majority": q_kg_fuse_majority,
    "docs_svo_triples": q_docs_svo_triples,
    "loop_eval": q_loop_eval,
    "sparql_results_parse": q_sparql_results_parse,
    "format_infer": q_format_infer,
}
