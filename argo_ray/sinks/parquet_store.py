"""Dictionary-encoded Parquet triple store (operator K7).

The reference's MySQLStore normalizes triples into id-keyed dictionary
tables plus a compact fact row (``mysqlstore/mysqlstore.go:348-364``
DDL; lazily-populated caches ``:64-108``).  Its auto-increment ids need
a central counter — useless at cluster scale — so here a term's id is
the 64-bit FNV-1a hash of its canonical N-Triples rendering:
deterministic, coordination-free, identical across partitions, runs AND
environments (``terms.hash64_stable`` — never the polars hash, whose
value changes across polars versions; ADVICE r1), same design as the
skolemizer and the redis FNV term hash (``redisstore.go:29-33``).

Layout::

    out_dir/terms/   (term_id, kind, value, lang, datatype)  distinct
    out_dir/facts/   (subj_id, pred_id, obj_id)

Both directories are multi-file Parquet written by Ray (resumable,
partitioned); Parquet's own dictionary pages give the byte-level
compression the MySQL layout was after.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.materialize import distinct_rows
from ..terms import (
    POSITIONS,
    hash64_stable,
    nt_render_term_arrays,
)

TERM_COLS_SINGLE = ["kind", "value", "lang", "datatype"]


def _term_ids(batch: pa.Table, pos: str) -> pa.Array:
    return hash64_stable(
        nt_render_term_arrays(
            batch[f"{pos}_kind"],
            batch[f"{pos}_value"],
            batch[f"{pos}_lang"],
            batch[f"{pos}_datatype"],
        )
    )


def encode_store(triples_ds):
    """Flattened triples Dataset → (terms_ds, facts_ds)."""

    def facts(b: pa.Table) -> pa.Table:
        return pa.table(
            {f"{pos}_id": _term_ids(b, pos) for pos in POSITIONS}
        )

    def terms(b: pa.Table) -> pa.Table:
        parts = []
        for pos in POSITIONS:
            parts.append(
                pa.table(
                    {
                        "term_id": _term_ids(b, pos),
                        "kind": pc.cast(b[f"{pos}_kind"], pa.uint8()),
                        "value": pc.cast(b[f"{pos}_value"], pa.large_string()),
                        "lang": pc.cast(b[f"{pos}_lang"], pa.string()),
                        "datatype": pc.cast(b[f"{pos}_datatype"], pa.string()),
                    }
                )
            )
        t = pa.concat_tables(parts)
        # local combiner; global distinct happens on the term_id shuffle
        return t.group_by(
            ["term_id"] + TERM_COLS_SINGLE, use_threads=False
        ).aggregate([])

    facts_ds = triples_ds.map_batches(facts, batch_format="pyarrow")
    terms_ds = triples_ds.map_batches(terms, batch_format="pyarrow")
    terms_ds = distinct_rows(terms_ds, ["term_id"] + TERM_COLS_SINGLE)
    return terms_ds, facts_ds


def write_store(triples_ds, out_dir: str) -> None:
    # materialize the (already-final) triples once: terms and facts
    # derive from the same lineage, and without a checkpoint here each
    # write_parquet would re-execute the ENTIRE upstream pipeline
    # (extract+dedup — the most expensive path in the repo) a second
    # time.  The blocks land in the object store and spill if large.
    triples_ds = triples_ds.materialize()
    terms_ds, facts_ds = encode_store(triples_ds)
    terms_ds.write_parquet(f"{out_dir}/terms")
    facts_ds.write_parquet(f"{out_dir}/facts")


def decode_store(out_dir: str):
    """(terms, facts) parquet → flattened triples Dataset.

    Broadcast path: the term dictionary ships once via ``ray.put`` and
    each task decodes against its local copy (T2 pattern).  For
    dictionaries beyond memory, join facts against terms per position
    (``Dataset.join``) instead.
    """
    import ray
    import ray.data as rd

    terms = rd.read_parquet(f"{out_dir}/terms").take_all()
    lookup = {
        r["term_id"]: (r["kind"], r["value"], r["lang"], r["datatype"])
        for r in terms
    }
    ref = ray.put(lookup)

    class Decoder:
        def __init__(self, lookup_ref):
            self.lookup = (
                lookup_ref if isinstance(lookup_ref, dict) else ray.get(lookup_ref)
            )

        def __call__(self, b: pa.Table) -> pa.Table:
            cols = {}
            for pos in POSITIONS:
                rows = [self.lookup[i] for i in b[f"{pos}_id"].to_pylist()]
                cols[f"{pos}_kind"] = pa.array((r[0] for r in rows), pa.uint8())
                cols[f"{pos}_value"] = pa.array(
                    (r[1] for r in rows), pa.large_string()
                )
                cols[f"{pos}_lang"] = pa.array((r[2] for r in rows), pa.string())
                cols[f"{pos}_datatype"] = pa.array(
                    (r[3] for r in rows), pa.string()
                )
            return pa.table(cols)

    return rd.read_parquet(f"{out_dir}/facts").map_batches(
        Decoder,
        batch_format="pyarrow",
        concurrency=2,
        num_cpus=0,  # a lookup pool: see io.configure_context
        fn_constructor_kwargs={"lookup_ref": ref},
    )
