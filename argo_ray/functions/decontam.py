"""Benchmark decontamination: drop (or flag) training documents that
share any word n-gram with an evaluation set — the standard
contamination filter every LLM training pipeline runs before training.

No reference counterpart; part of the brief-mandated training-data
suite.  Shape at 100 TB:

- The **eval side is small by contract** (benchmark suites are MBs,
  the training corpus is TBs), so its distinct n-gram hashes are
  collected once on the driver, ``ray.put`` once, and read once per
  actor in ``__init__`` — a broadcast lookup, never a shuffle join.
- The **train side streams**: one stateless-per-batch vectorized pass
  (token hashes → shifted-product n-gram hashes → ``searchsorted``
  membership → per-doc ``logical_or.at``).  No per-row Python, no
  all-to-all exchange anywhere.
- Hashing reuses :func:`argo_ray.functions.text._token_hashes`
  (``"fast"`` = one polars Rust kernel, within-run keys only;
  ``"md5"`` = DuckDB-reproducible).  Gram key = XOR of per-position
  odd-constant products, collision-equivalent to tuple equality at
  64 bits.  The oracle compares the *final doc verdicts* against a
  string-gram SQL reconstruction, so either mode is checkable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .text import _token_hashes

# Odd 64-bit mix constants, one per gram position (splitmix64 outputs).
_GRAM_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)


def _gram_hashes(
    batch: pa.Table, n: int, text_column: str, hasher: str
) -> tuple[np.ndarray, np.ndarray]:
    """(doc_index_per_gram, gram_hash) for every within-doc word n-gram
    in the batch.  Vectorized: one split kernel, one token-hash kernel,
    n shifted multiplies."""
    if n > len(_GRAM_MIX):
        raise ValueError(f"n <= {len(_GRAM_MIX)} supported, got {n}")
    toks = pc.split_pattern(
        pc.cast(batch[text_column], pa.large_string()), pattern=" "
    )
    lengths = np.asarray(pc.list_value_length(toks), dtype=np.int64)
    flat_arr = pc.list_flatten(toks)
    if len(flat_arr) == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    if hasher == "fast":
        # hash the Arrow array directly (zero-copy into the polars Rust
        # kernel) — the to_pylist detour costs ~4x wall on token-heavy
        # corpora
        try:
            import polars as pl

            h = pl.from_arrow(flat_arr).hash(seed=0).to_numpy().astype(np.uint64)
        except Exception:
            h = _token_hashes(flat_arr.to_pylist(), hasher)
    else:
        h = _token_hashes(flat_arr.to_pylist(), hasher)
    m = len(h) - n + 1
    if m <= 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    g = np.zeros(m, dtype=np.uint64)
    for j in range(n):
        g ^= h[j : j + m] * _GRAM_MIX[j]
    doc_of = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    # a gram starting at flat position i stays within one doc iff the
    # doc of its first and last token agree
    valid = doc_of[:m] == doc_of[n - 1 :]
    return doc_of[:m][valid], g[valid]


def collect_eval_grams(
    eval_ds, n: int = 3, text_column: str = "text", hasher: str = "fast"
) -> np.ndarray:
    """Distinct n-gram hashes of the (small) eval set, sorted — the
    broadcast side.  Per-batch distinct before collection keeps the
    driver transfer at vocabulary size, not occurrence count."""

    def distinct(batch: pa.Table) -> pa.Table:
        _, g = _gram_hashes(batch, n, text_column, hasher)
        return pa.table({"gram": pa.array(np.unique(g), pa.uint64())})

    parts = [
        np.asarray(b["gram"], dtype=np.uint64)
        for b in eval_ds.map_batches(distinct, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    if not parts:
        return np.empty(0, np.uint64)
    return np.unique(np.concatenate(parts))


class Decontaminator:
    """Actor-pool ``map_batches`` stage: flag train docs sharing any
    n-gram with the broadcast eval gram set.  Eval grams are fetched
    from the object store ONCE per actor (zero-copy numpy view)."""

    def __init__(self, grams_ref, n: int, text_column: str, hasher: str):
        import ray

        self.grams = ray.get(grams_ref)  # sorted uint64
        self.n = n
        self.text_column = text_column
        self.hasher = hasher

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_of, g = _gram_hashes(batch, self.n, self.text_column, self.hasher)
        n_docs = len(batch)
        hit = np.zeros(n_docs, dtype=bool)
        if len(g) and len(self.grams):
            pos = np.searchsorted(self.grams, g)
            pos[pos == len(self.grams)] = 0
            member = self.grams[pos] == g
            np.logical_or.at(hit, doc_of, member)
        has_gram = np.zeros(n_docs, dtype=bool)
        if len(doc_of):
            has_gram[np.unique(doc_of)] = True
        out = pa.table(
            {
                "doc_id": batch["doc_id"],
                "contaminated": pa.array(hit, pa.bool_()),
            }
        )
        # docs too short to produce a single n-gram carry no evidence —
        # excluded (mirrors the oracle's join over the gram relation)
        return out.filter(pa.array(has_gram, pa.bool_()))


def decontaminate(
    docs_ds,
    every: int = 23,
    n: int = 3,
    text_column: str = "text",
    hasher: str = "fast",
    concurrency: int = 2,
):
    """Split ``docs_ds`` into eval (``doc_id % every == 0``) and train
    (rest); return one row per train doc with >= 1 n-gram:
    ``(doc_id, contaminated)``."""
    import ray

    def is_eval(batch: pa.Table) -> pa.Table:
        did = np.asarray(batch["doc_id"], dtype=np.int64)
        return batch.filter(pa.array(did % every == 0, pa.bool_()))

    def is_train(batch: pa.Table) -> pa.Table:
        did = np.asarray(batch["doc_id"], dtype=np.int64)
        return batch.filter(pa.array(did % every != 0, pa.bool_()))

    grams = collect_eval_grams(
        docs_ds.map_batches(is_eval, batch_format="pyarrow"), n, text_column, hasher
    )
    grams_ref = ray.put(grams)
    return docs_ds.map_batches(is_train, batch_format="pyarrow").map_batches(
        Decontaminator,
        fn_constructor_args=(grams_ref, n, text_column, hasher),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def decontaminate_oracle_sql(every: int = 23, n: int = 3) -> str:
    """String-gram SQL reconstruction (n=3): eval grams distinct, train
    docs LEFT JOIN on gram equality, contaminated = any hit."""
    if n != 3:
        raise ValueError("oracle is written for n=3")
    return f"""WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
), grams AS (
  SELECT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS g
  FROM toks, UNNEST(generate_series(1, len(w) - 2)) AS t(i)
), ev AS (
  SELECT DISTINCT g FROM grams WHERE doc_id % {every} = 0
), tr AS (
  SELECT doc_id, g FROM grams WHERE doc_id % {every} <> 0
)
SELECT tr.doc_id,
       CAST(MAX(CASE WHEN ev.g IS NOT NULL THEN 1 ELSE 0 END) AS BOOLEAN)
         AS contaminated
FROM tr LEFT JOIN ev ON tr.g = ev.g
GROUP BY tr.doc_id"""


class DecontaminationFilter(Decontaminator):
    """Pass-through variant for composed pipelines: DROP contaminated
    docs and keep every input column (``Decontaminator`` reports flags
    instead).  Docs too short for a single n-gram are trivially clean
    and pass through."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_of, g = _gram_hashes(batch, self.n, self.text_column, self.hasher)
        hit = np.zeros(len(batch), dtype=bool)
        if len(g) and len(self.grams):
            pos = np.searchsorted(self.grams, g)
            pos[pos == len(self.grams)] = 0
            np.logical_or.at(hit, doc_of, self.grams[pos] == g)
        return batch.filter(pa.array(~hit, pa.bool_()))
