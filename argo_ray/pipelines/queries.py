"""Ray Data implementations of the driver-checked queries.

Each function takes ``sf_dir`` and returns a Dataset / Arrow table whose
columns match the same-named oracle SQL in ``oracles.py`` exactly (the
driver compares row counts, schema and an order-insensitive value hash).

All pipelines are lazy streaming Dataset transforms; the only wide
operations are the documented dedup / group-by shuffles.
"""

from __future__ import annotations

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
    "microdata_extract": q_microdata_extract,
    "jsonld_extract": q_jsonld_extract,
    "kg_multisyntax_build": q_kg_multisyntax_build,
    "kg_blank_canon": q_kg_blank_canon,
    "kg_reify_roundtrip": q_kg_reify_roundtrip,
    "sparql_construct_bnode_eval": q_sparql_construct_bnode_eval,
    "nt_gz_roundtrip": q_nt_gz_roundtrip,
    "kg_prov_export": q_kg_prov_export,
    "sparql_over_prov": q_sparql_over_prov,
    "sparql_optional_bind_eval": q_sparql_optional_bind_eval,
    "sparql_nested_optional_eval": q_sparql_nested_optional_eval,
    "sparql_count_distinct_star_eval": q_sparql_count_distinct_star_eval,
    "sparql_neg_rev_path_eval": q_sparql_neg_rev_path_eval,
    "sparql_alt_rev_path_eval": q_sparql_alt_rev_path_eval,
    "typed_coercion": q_typed_coercion,
    "skolemize": q_skolemize,
    "union_sources": q_union_sources,
    "entity_link": q_entity_link,
    "entity_link_join": q_entity_link_join,
    "entity_link_ranked": q_entity_link_ranked,
    "store_roundtrip": q_store_roundtrip,
    "graphstore_roundtrip": q_graphstore_roundtrip,
    "dedup_provenance": q_dedup_provenance,
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
    "point_lookups": q_point_lookups,
    "multi_source_fanin": q_multi_source_fanin,
    "url_source_fanin": q_url_source_fanin,
    "prefix_cache_expand": q_prefix_cache_expand,
    "repl_prefix_trim": q_repl_prefix_trim,
    "sparql_results_parse": q_sparql_results_parse,
    "format_infer": q_format_infer,
}
