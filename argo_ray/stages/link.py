"""Entity linking (north rule; reference pattern T2 —
``mysqlstore/mysqlstore.go:64-108``'s lazily-populated term→id
dictionary caches are the single-process ancestor of this stage).

Mention detection happens at extraction time: literal objects of a
configured *mention predicate* (e.g. ``dc:title``) are the surface
forms.  Linking resolves each surface form against a candidate
dictionary ``surface form → entity IRI`` and asserts a new link triple
``(subject, link_pred, <entity>)``.

Two physical strategies:

- :class:`EntityLinker` — actor-pool ``map_batches`` stage.  The
  candidate dictionary is shipped **once per actor** via ``ray.put`` +
  ``ray.get`` in ``__init__`` (never per batch) — the broadcast path,
  right whenever the dictionary fits in worker memory.
- :func:`link_entities_join` — the scale path: mentions and candidates
  meet in a distributed hash join (``Dataset.join``), i.e. per-partition
  candidate dictionaries; use when the dictionary itself is too large to
  broadcast (100 TB-scale entity catalogs).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..terms import KIND_IRI, KIND_LITERAL
from .grouping import exchange, sorted_multi_agg

DEFAULT_LINK_PRED = "http://example.org/ns#about"


def build_candidates(docs_ds, keep: str = "min"):
    """documents Dataset → candidate table (surface_form, entity_iri).

    Surface form = the doc's title (first five words — the same
    derivation the page fixture uses); collisions resolve to the
    entity of the smallest doc_id (deterministic, oracle-reproducible).
    """
    from ..pages import entity_iri, title_of

    def derive(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        titles = [title_of(t) for t in b["text"].to_pylist()]
        return pa.table(
            {
                "surface_form": pa.array(titles, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    agg = sorted_multi_agg(
        docs_ds.map_batches(derive, batch_format="pyarrow"),
        "surface_form",
        [("surface_form", pa.string())],
        [("doc_id", "min", "min_doc_id", pa.int64())],
    )

    def finish(b: pa.Table) -> pa.Table:
        ids = b["min_doc_id"].to_pylist()
        return pa.table(
            {
                "surface_form": b["surface_form"],
                "entity_iri": pa.array([entity_iri(i) for i in ids], pa.string()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def build_candidates_ranked(docs_ds, triples_ds):
    """Popularity-weighted candidate table: ambiguous surface forms
    resolve to the entity with the highest KG in-degree (tie → min
    entity IRI) instead of :func:`build_candidates`'s min-doc-id rule —
    the "link to the most-referenced entity" prior of real linkers.

    Distributed shape: one in-degree groupby over the triple stream
    (node-keyed, uniform), popularity attached to candidates via the
    exchange LEFT-lookup (missing → 0, no broadcast, no
    ``Dataset.join``), then a per-surface-form argmax via one more sort
    exchange with in-block pandas groups.
    """
    import pandas as pd  # noqa: F401  (block fns receive pandas frames)

    from ..pages import entity_iri, title_of

    def derive(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        titles = [title_of(t) for t in b["text"].to_pylist()]
        return pa.table(
            {
                "surface_form": pa.array(titles, pa.string()),
                "entity_iri": pa.array([entity_iri(i) for i in ids], pa.string()),
            }
        )

    cands = docs_ds.map_batches(derive, batch_format="pyarrow")

    def in_nodes(b: pa.Table) -> pa.Table:
        m = b.filter(pc.not_equal(pc.cast(b["obj_kind"], pa.int64()), KIND_LITERAL))
        return pa.table({"node": pc.cast(m["obj_value"], pa.string())})

    def indeg_partial(b: pa.Table) -> pa.Table:
        g = b.group_by("node").aggregate([("node", "count")])
        return pa.table(
            {
                "node": pc.cast(g["node"], pa.string()),
                "part": pc.cast(g["node_count"], pa.int64()),
            }
        )

    indeg = sorted_multi_agg(
        triples_ds.map_batches(in_nodes, batch_format="pyarrow").map_batches(
            indeg_partial, batch_format="pyarrow"
        ),
        "node",
        [("node", pa.string())],
        [("part", "sum", "pop", pa.int64())],
    )

    # LEFT-attach pop to candidates, colocated on the entity IRI
    cand_rows = cands.map_batches(
        lambda b: pa.table(
            {
                "key": pc.cast(b["entity_iri"], pa.string()),
                "surface_form": pc.cast(b["surface_form"], pa.string()),
                "pop": pa.array([None] * b.num_rows, pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    pop_rows = indeg.map_batches(
        lambda b: pa.table(
            {
                "key": pc.cast(b["node"], pa.string()),
                "surface_form": pa.array([None] * b.num_rows, pa.string()),
                "pop": pc.cast(b["pop"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    attach_schema = pa.schema(
        [("surface_form", pa.string()), ("entity_iri", pa.string()),
         ("pop", pa.int64())]
    )

    def attach_block(df):
        if len(df) == 0 or "key" not in df.columns:
            return attach_schema.empty_table()
        is_val = df["surface_form"].isna()
        vals = df.loc[is_val, ["key", "pop"]]
        rows = df.loc[~is_val, ["key", "surface_form"]]
        if len(rows) == 0:
            return attach_schema.empty_table()
        m = rows.merge(vals, on="key", how="left")
        return pa.table(
            {
                "surface_form": pa.array(m["surface_form"], pa.string()),
                "entity_iri": pa.array(m["key"], pa.string()),
                "pop": pa.array(
                    m["pop"].fillna(0).to_numpy(dtype="int64"), pa.int64()
                ),
            }
        )

    weighted = (
        exchange(
            cand_rows.union(pop_rows), "key", attach_block,
            batch_format="pandas",
        )
        .materialize()  # barrier between the two consecutive sorts
    )

    best_schema = pa.schema(
        [("surface_form", pa.string()), ("entity_iri", pa.string())]
    )

    def best_block(df: "pd.DataFrame"):
        if len(df) == 0 or "surface_form" not in df.columns:
            return best_schema.empty_table()
        picked = (
            df.sort_values(
                ["surface_form", "pop", "entity_iri"],
                ascending=[True, False, True],
            )
            .groupby("surface_form", sort=False)
            .head(1)
        )
        return pa.table(
            {
                "surface_form": pa.array(picked["surface_form"], pa.string()),
                "entity_iri": pa.array(picked["entity_iri"], pa.string()),
            }
        )

    return exchange(
        weighted, "surface_form", best_block, batch_format="pandas",
    )


class EntityLinker:
    """Actor-pool stage: triples batch in → link triples out.

    ``candidates_ref`` is a ``ray.put`` handle of a dict
    ``{surface_form: entity_iri}`` — resolved once in ``__init__``
    (zero-copy from the local object store on every node that runs an
    actor), the T2 broadcast pattern.
    """

    def __init__(
        self,
        candidates_ref,
        mention_pred: str,
        link_pred: str = DEFAULT_LINK_PRED,
    ):
        import ray

        self.cand = (
            candidates_ref
            if isinstance(candidates_ref, dict)
            else ray.get(candidates_ref)
        )
        self.mention_pred = mention_pred
        self.link_pred = link_pred

    def __call__(self, batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.equal(batch["pred_value"], self.mention_pred),
            pc.equal(batch["obj_kind"], KIND_LITERAL),
        )
        mentions = batch.filter(mask)
        # vectorized dict lookup (pandas map) over the pre-filtered
        # mentions — no per-row Python
        import pandas as pd

        ent = pd.Series(mentions["obj_value"].to_pylist(), dtype=object).map(
            self.cand
        )
        keep = ent.notna().to_numpy()
        kept = mentions.filter(pa.array(keep))
        entity = ent[keep].tolist()
        n = kept.num_rows
        return pa.table(
            {
                "subj_kind": pc.cast(kept["subj_kind"], pa.uint8()),
                "subj_value": pc.cast(kept["subj_value"], pa.large_string()),
                "subj_lang": pa.array([""] * n, pa.string()),
                "subj_datatype": pa.array([""] * n, pa.string()),
                "pred_kind": pa.array([KIND_IRI] * n, pa.uint8()),
                "pred_value": pa.array([self.link_pred] * n, pa.large_string()),
                "pred_lang": pa.array([""] * n, pa.string()),
                "pred_datatype": pa.array([""] * n, pa.string()),
                "obj_kind": pa.array([KIND_IRI] * n, pa.uint8()),
                "obj_value": pa.array(entity, pa.large_string()),
                "obj_lang": pa.array([""] * n, pa.string()),
                "obj_datatype": pa.array([""] * n, pa.string()),
            }
        )


def link_entities(
    triples_ds,
    candidates,
    mention_pred: str,
    link_pred: str = DEFAULT_LINK_PRED,
    concurrency: int = 2,
):
    """Broadcast path: ``candidates`` is a dict or a (small) candidates
    Dataset; shipped once via ``ray.put``, read per actor."""
    import ray

    if not isinstance(candidates, dict):
        candidates = {
            r["surface_form"]: r["entity_iri"] for r in candidates.take_all()
        }
    ref = ray.put(candidates)
    return triples_ds.map_batches(
        EntityLinker,
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0,  # a lookup pool: see io.configure_context
        fn_constructor_kwargs={
            "candidates_ref": ref,
            "mention_pred": mention_pred,
            "link_pred": link_pred,
        },
    )


def link_entities_join(
    triples_ds,
    candidates_ds,
    mention_pred: str,
    link_pred: str = DEFAULT_LINK_PRED,
    num_partitions: int | None = None,
):
    """Scale path: distributed hash join of mentions against candidate
    partitions — the per-partition candidate dictionary (each join
    partition holds only its hash range of the catalog).
    ``num_partitions`` defaults to ``io.shuffle_partitions()``."""
    if num_partitions is None:
        from ..io import shuffle_partitions

        num_partitions = shuffle_partitions()

    def mentions(b: pa.Table) -> pa.Table:
        m = b.filter(
            pc.and_(
                pc.equal(b["pred_value"], mention_pred),
                pc.equal(b["obj_kind"], KIND_LITERAL),
            )
        )
        return pa.table(
            {
                "subj_kind": m["subj_kind"],
                "subj_value": pc.cast(m["subj_value"], pa.string()),
                "surface_form": pc.cast(m["obj_value"], pa.string()),
            }
        )

    m_ds = triples_ds.map_batches(mentions, batch_format="pyarrow")
    joined = m_ds.join(
        candidates_ds,
        join_type="inner",
        on=("surface_form",),
        num_partitions=num_partitions,
        aggregator_ray_remote_args={"num_cpus": 0},  # see io.configure_context
    )

    def emit(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "subj_kind": pc.cast(b["subj_kind"], pa.uint8()),
                "subj_value": pc.cast(b["subj_value"], pa.large_string()),
                "subj_lang": pa.array([""] * n, pa.string()),
                "subj_datatype": pa.array([""] * n, pa.string()),
                "pred_kind": pa.array([KIND_IRI] * n, pa.uint8()),
                "pred_value": pa.array([link_pred] * n, pa.large_string()),
                "pred_lang": pa.array([""] * n, pa.string()),
                "pred_datatype": pa.array([""] * n, pa.string()),
                "obj_kind": pa.array([KIND_IRI] * n, pa.uint8()),
                "obj_value": pc.cast(b["entity_iri"], pa.large_string()),
                "obj_lang": pa.array([""] * n, pa.string()),
                "obj_datatype": pa.array([""] * n, pa.string()),
            }
        )

    return joined.map_batches(emit, batch_format="pyarrow")
