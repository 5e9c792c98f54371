"""Deduplication operators: exact, MinHash+LSH, SimHash-banded,
char-set Jaccard — the training-data dedup suite.

Scale notes (100 TB design):

- exact dedup keys on a content hash → uniform shuffle, no skew;
- MinHash-LSH is the canonical shape: shingle→signature per batch
  (embarrassingly parallel) → explode to (band, band_hash, doc) rows →
  ``groupby`` band buckets (bounded shuffle: rows = docs × bands) →
  candidate pairs within bucket → verify with exact shingle Jaccard via
  a hash join back to the texts (``Dataset.join``), never a broadcast of
  the corpus;
- char-set Jaccard runs per source partition (groupby(source)) with a
  128-bit ascii bitmask per doc and popcount pair scoring — vectorized,
  matching DuckDB's ``jaccard()`` exactly (set-based, case-sensitive,
  spaces count) so it is oracle-checkable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.grouping import exchange

# ---------------------------------------------------------------------------
# Planted-duplicate corpus derivation (deterministic, SQL-reproducible)
# ---------------------------------------------------------------------------

PLANT_OFFSET = 100_000


def plant_duplicates_batch(batch: pa.Table, every: int = 10, near: bool = False) -> pa.Table:
    """documents batch → batch ∪ planted copies: every ``every``-th doc
    is appended again with doc_id+PLANT_OFFSET; ``near=True`` drops the
    last word (near-duplicate instead of exact)."""
    keep = batch.select(["doc_id", "text", "source"])
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    sel = ids % every == 0
    dup = keep.filter(pa.array(sel))
    texts = dup["text"].to_pylist()
    if near:
        texts = [" ".join(t.split(" ")[:-1]) for t in texts]
    dup = pa.table(
        {
            "doc_id": pc.add(dup["doc_id"], PLANT_OFFSET),
            "text": pa.array(texts, batch["text"].type),
            "source": dup["source"],
        }
    )
    return pa.concat_tables([keep, dup])


# ---------------------------------------------------------------------------
# Exact dedup (content-hash groupby)
# ---------------------------------------------------------------------------


def exact_dedup_docs(ds, hasher: str = "fast"):
    """→ one row per distinct text: (fingerprint, keep_doc_id = min id,
    n_copies).  Combiner: per-batch min/count partials; the shuffle then
    aggregates partials — shuffle volume is distinct-keys, not rows.

    ``hasher="fast"`` (default, the 100-TB path) keys on a 128-bit
    composite of two vectorized Rust hash passes (uint64 ``fingerprint``
    + ``fingerprint2``); ``"md5"`` keys on the DuckDB-reproducible hex
    md5 (the oracle-check mode, per-row hashlib)."""
    import ray.data  # noqa: F401

    if hasher == "fast":
        from ..terms import hash64

        def fp(batch: pa.Table) -> pa.Table:
            texts = pc.cast(batch["text"], pa.large_string())
            return pa.table(
                {
                    "fingerprint": hash64(texts, seed=0),
                    "fingerprint2": hash64(texts, seed=1),
                    "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                }
            )

        keys = ["fingerprint", "fingerprint2"]
    else:

        def fp(batch: pa.Table) -> pa.Table:
            texts = batch["text"].to_pylist()
            fps = [hashlib.md5(t.encode()).hexdigest() for t in texts]
            return pa.table(
                {
                    "fingerprint": pa.array(fps, pa.string()),
                    "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                }
            )

        keys = ["fingerprint"]

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        agg = df.groupby(keys, sort=False, dropna=False).agg(
            partial_min=("doc_id", "min"), partial_n=("doc_id", "size")
        ).reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def merge_block(df):
        # Ray's Aggregate on the same exchange measured 8.4 s vs 2.6 s
        # at 800k distinct fingerprints (see BASELINE.md r5)
        if len(df) == 0 or keys[0] not in df.columns:
            fp_type = pa.uint64() if hasher == "fast" else pa.string()
            cols = {k: pa.array([], fp_type) for k in keys}
            cols["keep_doc_id"] = pa.array([], pa.int64())
            cols["n_copies"] = pa.array([], pa.int64())
            return pa.table(cols)
        agg = df.groupby(keys, sort=False, dropna=False).agg(
            keep_doc_id=("partial_min", "min"), n_copies=("partial_n", "sum")
        ).reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False)

    ds = ds.map_batches(fp, batch_format="pyarrow")
    ds = ds.map_batches(partial, batch_format="pyarrow")
    return exchange(ds, keys[0], merge_block, batch_format="pandas")


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _shingles(text: str, k: int = 3) -> set[bytes]:
    words = text.split(" ")
    if len(words) < k:
        return {" ".join(words).encode()}
    return {" ".join(words[i : i + k]).encode() for i in range(len(words) - k + 1)}


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    return np.array(
        sorted(
            int.from_bytes(hashlib.blake2b(s, digest_size=8).digest(), "big") >> 3
            for s in _shingles(text, k)
        ),
        dtype=np.uint64,
    )


class MinHasher:
    """Actor-pool stage: 64-permutation MinHash signatures.  Permutation
    coefficients are derived once per actor in ``__init__`` from a fixed
    seed (deterministic across actors and runs)."""

    def __init__(
        self,
        num_hashes: int = 64,
        k: int = 3,
        seed: int = 42,
        use_polars: bool | None = None,
    ):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_hashes, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_hashes, dtype=np.uint64)
        self.k = k
        self.num_hashes = num_hashes
        # Decide the shingle-hash backend ONCE, on the DRIVER: the
        # pipeline ships a prebuilt INSTANCE (see minhash_lsh_neardup),
        # so this probe runs driver-side and the single decision rides
        # the closure to every task.  Mixing polars and blake2b hashes
        # across tasks (polars installed on some workers only) would
        # silently split every near-dup pair across incompatible LSH
        # buckets — with the decision pinned here, a worker missing
        # polars fails LOUDLY on `import polars` in __call__ instead.
        # Callers on knowingly heterogeneous clusters pass
        # use_polars=False to pin the everywhere-available blake2b path.
        if use_polars is not None:
            self._use_polars = use_polars
        else:
            try:
                import polars  # noqa: F401

                self._use_polars = True
            except Exception:
                self._use_polars = False

    def signature(self, text: str) -> np.ndarray:
        x = _shingle_hashes(text, self.k)
        # (H, S) affine hash in uint64 with Mersenne-prime mod, min per row
        vals = (self.a[:, None] * x[None, :] + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # batch-level shingle hashing: ONE Rust hash kernel over every
        # shingle in the batch (polars), then a per-doc vectorized
        # affine+min — replaces ~200 blake2b calls per document
        texts = batch["text"].to_pylist()
        all_shingles: list[str] = []
        bounds = [0]
        for t in texts:
            words = t.split(" ")
            if len(words) < self.k:
                all_shingles.append(" ".join(words))
            else:
                all_shingles.extend(
                    {
                        " ".join(words[i : i + self.k])
                        for i in range(len(words) - self.k + 1)
                    }
                )
            bounds.append(len(all_shingles))
        if self._use_polars:
            import polars as pl

            hashed = (
                pl.Series(all_shingles).hash(seed=0).to_numpy().astype(np.uint64)
                >> np.uint64(3)
            )
        else:
            hashed = np.array(
                [
                    int.from_bytes(
                        hashlib.blake2b(s.encode(), digest_size=8).digest(), "big"
                    )
                    >> 3
                    for s in all_shingles
                ],
                dtype=np.uint64,
            )
        sigs = np.empty((len(texts), self.num_hashes), dtype=np.uint64)
        a, b = self.a[:, None], self.b[:, None]
        for i in range(len(texts)):
            x = hashed[bounds[i] : bounds[i + 1]]
            vals = (a * x[None, :] + b) % _MERSENNE
            sigs[i] = vals.min(axis=1)
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "signature": pa.array(sigs.tolist(), pa.list_(pa.uint64())),
            }
        )


def explode_bands_batch(batch: pa.Table, bands: int = 8) -> pa.Table:
    """(doc_id, signature) → (band_id, band_hash, doc_id) rows — the LSH
    bucket key explosion (rows = docs × bands, the bounded shuffle).
    Band hash = vectorized FNV-1a fold over the band's signature chunk
    (uint64 wrap-around is the FNV modulus)."""
    doc_ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
    sigs = np.asarray(batch["signature"].to_pylist(), dtype=np.uint64)  # (n, H)
    if sigs.size == 0:
        return pa.table(
            {
                "band_id": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.uint64()),
                "doc_id": pa.array([], pa.int64()),
            }
        )
    n, H = sigs.shape
    rows = H // bands
    chunks = sigs[:, : bands * rows].reshape(n, bands, rows)
    with np.errstate(over="ignore"):
        h = np.full((n, bands), 0xCBF29CE484222325, dtype=np.uint64)
        for j in range(rows):
            h = (h ^ chunks[:, :, j]) * np.uint64(0x100000001B3)
    return pa.table(
        {
            "band_id": pa.array(
                np.tile(np.arange(bands, dtype=np.int32), n), pa.int32()
            ),
            "band_hash": pa.array(h.reshape(-1), pa.uint64()),
            "doc_id": pa.array(np.repeat(doc_ids, bands), pa.int64()),
        }
    )


def _bucket_pairs(group: pd.DataFrame, cap: int = 200) -> pd.DataFrame:
    ids = sorted(set(group["doc_id"].tolist()))
    if len(ids) < 2 or len(ids) > cap:  # cap guards degenerate buckets
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64")})
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    return pd.DataFrame(pairs, columns=["doc_a", "doc_b"])


def bucket_pairs_sorted(bands_ds, cap: int = 200):
    """(band_id, band_hash, doc_id) → candidate (doc_a, doc_b) pairs via
    ONE sort exchange + a vectorized per-block pass — semantics of
    ``grouped_map(…, _bucket_pairs)`` without its per-bucket Python
    dispatch (~20k buckets per block made that the slowest minhash
    stage).  Buckets of size <2 (the vast majority) are skipped by a
    run-length mask; 2..cap buckets emit their sorted-id pair triangle.
    """

    def block(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty = pa.table(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
        )
        if n < 2:
            return empty
        band = np.asarray(batch["band_id"].to_pylist(), dtype=np.int64)
        bhash = np.asarray(batch["band_hash"].to_pylist(), dtype=np.uint64)
        doc = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        # block arrives sorted by (band_id, band_hash): run starts where
        # either key changes
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (band[1:] != band[:-1]) | (bhash[1:] != bhash[:-1])
        starts = np.nonzero(change)[0]
        ends = np.append(starts[1:], n)
        sizes = ends - starts
        out_a, out_b = [], []
        # cap applies to DISTINCT doc count (matching _bucket_pairs and
        # the simhash oracle's COUNT(DISTINCT doc_id)), so dedup the run
        # BEFORE the cap check — raw length may exceed cap while the
        # distinct count doesn't when doc_ids repeat
        for s, e in zip(starts[sizes >= 2], ends[sizes >= 2]):
            ids = np.unique(doc[s:e])
            m = len(ids)
            if m < 2 or m > cap:
                continue
            iu = np.triu_indices(m, k=1)
            out_a.append(ids[iu[0]])
            out_b.append(ids[iu[1]])
        if not out_a:
            return empty
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(out_a), pa.int64()),
                "doc_b": pa.array(np.concatenate(out_b), pa.int64()),
            }
        )

    return exchange(
        bands_ds, ["band_id", "band_hash"], block, batch_format="pyarrow",
    )


def jaccard_shingles(text_a: str, text_b: str, k: int = 3) -> float:
    sa, sb = _shingles(text_a, k), _shingles(text_b, k)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def minhash_lsh_pairs(
    docs_ds, threshold: float = 0.5, bands: int = 16, k: int = 3,
    verify: str = "join", join_partitions: int | None = None,
):
    """Full MinHash-LSH near-dup pipeline → verified (doc_a, doc_b)
    pairs.

    Banding default 16×4 (64 hashes): the LSH S-curve midpoint
    ``(1/b)^(1/r)`` is then 0.5 — matched to the default Jaccard
    threshold, so borderline-threshold pairs are caught (8×8 put the
    midpoint at 0.77 and dropped a j≈0.5 pair at sf0.1).

    Verification strategies:

    - ``"join"`` (default — the scale path): two distributed hash joins
      (``Dataset.join``) of the candidate pairs against the texts; no
      row ever lands on the driver, so it holds when even the candidate
      set exceeds one node.  ``join_partitions`` defaults to
      ``io.shuffle_partitions()`` (≈ cluster CPUs / 4) — each join
      partition is an actor, so the pool stays well inside the CPU
      budget (see ``io.configure_context`` on chained-pool deadlock).
    - ``"collect"``: gather the candidate pair list (bounded: LSH keeps
      it ~O(true dups)) plus ONLY the candidate texts (``is_in`` filter
      over the corpus) to the driver and verify there.  Lower latency
      for interactive use on small candidate sets; never the default
      because a driver-side ``take_all`` is a scale cliff.
    """
    if join_partitions is None:
        from ..io import shuffle_partitions

        join_partitions = shuffle_partitions()
    texts = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        lambda b: pa.table(
            {"doc_id": pc.cast(b["doc_id"], pa.int64()), "text": b["text"]}
        ),
        batch_format="pyarrow",
    )

    # a prebuilt INSTANCE (not the class) → stateless tasks: the
    # coefficient state is two 64-element arrays, cheaper to ship in the
    # closure than to spin an actor pool for (contrast LangId, whose
    # stopword profiles justify per-actor setup)
    sigs = docs_ds.map_batches(MinHasher(), batch_format="pyarrow")
    bands_ds = sigs.map_batches(
        lambda b: explode_bands_batch(b, bands), batch_format="pyarrow"
    )
    cand = bucket_pairs_sorted(bands_ds)
    from ..stages.materialize import distinct_rows

    cand = distinct_rows(cand, ["doc_a", "doc_b"])

    def verify_batch_rows(rows, text_of) -> pa.Table:
        keep_a, keep_b = [], []
        for a, b in rows:
            ta, tb = text_of(a), text_of(b)
            if ta is None or tb is None:
                continue
            if jaccard_shingles(ta, tb, k) >= threshold:
                keep_a.append(a)
                keep_b.append(b)
        return pa.table(
            {
                "doc_a": pa.array(keep_a, pa.int64()),
                "doc_b": pa.array(keep_b, pa.int64()),
            }
        )

    if verify == "sortjoin":
        # distributed verify via TWO sort exchanges instead of hash-join
        # actor pools (Ray's hash shuffle spawns an aggregator pool per
        # join and measured ~10× slower than sort exchange in local
        # mode; sort scales the same way — range partition both sides).
        # Pass 1: key pair rows by each endpoint, co-sort with the
        # texts, attach the endpoint's text per sorted block; pass 2:
        # co-locate the two half-rows of each pair and score.
        from ..stages.grouping import grouped_map

        def pair_requests(b: pa.Table) -> pa.Table:
            a = pc.cast(b["doc_a"], pa.int64())
            c = pc.cast(b["doc_b"], pa.int64())
            return pa.table(
                {
                    "doc": pa.concat_arrays([a.combine_chunks(), c.combine_chunks()]),
                    "doc_a": pa.concat_arrays([a.combine_chunks(), a.combine_chunks()]),
                    "doc_b": pa.concat_arrays([c.combine_chunks(), c.combine_chunks()]),
                    "text": pa.array([None] * (2 * b.num_rows), pa.large_string()),
                }
            )

        def text_rows(b: pa.Table) -> pa.Table:
            n = b.num_rows
            return pa.table(
                {
                    "doc": pc.cast(b["doc_id"], pa.int64()),
                    "doc_a": pa.array([None] * n, pa.int64()),
                    "doc_b": pa.array([None] * n, pa.int64()),
                    "text": pc.cast(b["text"], pa.large_string()),
                }
            )

        both = cand.map_batches(pair_requests, batch_format="pyarrow").union(
            texts.map_batches(text_rows, batch_format="pyarrow")
        )

        def attach(g: pd.DataFrame) -> pd.DataFrame:
            have = g[g["doc_a"].isna()]
            if have.empty:
                return pd.DataFrame(
                    {"doc_a": pd.Series([], dtype="int64"),
                     "doc_b": pd.Series([], dtype="int64"),
                     "side": pd.Series([], dtype="int64"),
                     "text": pd.Series([], dtype="object")}
                )
            text = have["text"].iloc[0]
            need = g[g["doc_a"].notna()]
            if need.empty:
                return pd.DataFrame(
                    {"doc_a": pd.Series([], dtype="int64"),
                     "doc_b": pd.Series([], dtype="int64"),
                     "side": pd.Series([], dtype="int64"),
                     "text": pd.Series([], dtype="object")}
                )
            return pd.DataFrame(
                {
                    "doc_a": need["doc_a"].astype("int64"),
                    "doc_b": need["doc_b"].astype("int64"),
                    "side": (need["doc"] == need["doc_b"]).astype("int64"),
                    "text": text,
                }
            )

        halves = grouped_map(both, "doc", attach)

        def score(g: pd.DataFrame) -> pd.DataFrame:
            ta = g[g["side"] == 0]["text"]
            tb = g[g["side"] == 1]["text"]
            if ta.empty or tb.empty:
                return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                     "doc_b": pd.Series([], dtype="int64")})
            if jaccard_shingles(ta.iloc[0], tb.iloc[0], k) >= threshold:
                return pd.DataFrame(
                    {"doc_a": [int(g["doc_a"].iloc[0])],
                     "doc_b": [int(g["doc_b"].iloc[0])]}
                )
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})

        return grouped_map(halves, ["doc_a", "doc_b"], score)

    if verify == "join":
        a_side = texts.map_batches(
            lambda b: b.rename_columns(["doc_a", "text_a"]), batch_format="pyarrow"
        )
        b_side = texts.map_batches(
            lambda b: b.rename_columns(["doc_b", "text_b"]), batch_format="pyarrow"
        )
        joined = cand.join(
            a_side, join_type="inner", on=("doc_a",), num_partitions=join_partitions
        )
        joined = joined.join(
            b_side, join_type="inner", on=("doc_b",), num_partitions=join_partitions
        )

        def verify_joined(batch: pa.Table) -> pa.Table:
            keep_a, keep_b = [], []
            for a, b, ta, tb in zip(
                batch["doc_a"].to_pylist(),
                batch["doc_b"].to_pylist(),
                batch["text_a"].to_pylist(),
                batch["text_b"].to_pylist(),
            ):
                if jaccard_shingles(ta, tb, k) >= threshold:
                    keep_a.append(a)
                    keep_b.append(b)
            return pa.table(
                {
                    "doc_a": pa.array(keep_a, pa.int64()),
                    "doc_b": pa.array(keep_b, pa.int64()),
                }
            )

        return joined.map_batches(verify_joined, batch_format="pyarrow")

    # "collect": candidate-bounded driver-side verify
    pairs = [
        (r["doc_a"], r["doc_b"]) for r in cand.take_all()
    ]
    cand_ids = sorted({i for p in pairs for i in p})
    id_arr = pa.array(cand_ids, pa.int64())
    cand_texts = texts.map_batches(
        lambda b: b.filter(pc.is_in(b["doc_id"], id_arr)), batch_format="pyarrow"
    ).take_all()
    text_map = {r["doc_id"]: r["text"] for r in cand_texts}
    import ray.data as rd

    return rd.from_arrow(verify_batch_rows(pairs, text_map.get))


# ---------------------------------------------------------------------------
# SimHash near-dup (banded hamming buckets)
# ---------------------------------------------------------------------------


def simhash_candidates(docs_ds, bands: int = 4, hasher: str = "fast"):
    """SimHash → band-bucket candidates: 64-bit simhash split into
    ``bands`` 16-bit keys; docs sharing any band key are candidates
    (catches hamming distance < bands).  ``hasher="md5"`` makes the
    whole candidate set reproducible in DuckDB SQL (the oracle mode);
    the default stays the fast transient hash."""
    from ..functions.text import simhash_batch

    sh = docs_ds.map_batches(
        lambda b: simhash_batch(b, hasher=hasher), batch_format="pyarrow"
    )

    def explode(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"].to_pylist(), dtype=np.int64)
        hs = np.asarray(b["simhash"].to_pylist(), dtype=np.uint64)
        width = 64 // bands
        mask = np.uint64((1 << width) - 1)
        shifts = (np.arange(bands, dtype=np.uint64) * np.uint64(width))
        keys = (hs[:, None] >> shifts[None, :]) & mask  # (n, bands)
        return pa.table(
            {
                "band_id": pa.array(
                    np.tile(np.arange(bands, dtype=np.int32), len(ids)), pa.int32()
                ),
                "band_hash": pa.array(keys.reshape(-1), pa.uint64()),
                "doc_id": pa.array(np.repeat(ids, bands), pa.int64()),
            }
        )

    cand = bucket_pairs_sorted(sh.map_batches(explode, batch_format="pyarrow"))
    from ..stages.materialize import distinct_rows

    return distinct_rows(cand, ["doc_a", "doc_b"])


# ---------------------------------------------------------------------------
# Sharded all-pairs: salt hot groups so O(n²) work distributes
# ---------------------------------------------------------------------------


def explode_shard_pairs(batch: pa.Table, id_col: str, shards: int) -> pa.Table:
    """Replicate each row to every shard pair it participates in: a row
    with ``shard = id % shards`` joins groups ``(_sa,_sb) = (min(s,t),
    max(s,t))`` for every t — exactly ``shards`` copies.  Each unordered
    row pair then meets in exactly ONE ``(_sa,_sb)`` group, so grouping
    on ``group_keys + [_sa,_sb]`` splits a hot group's O(n²) pair work
    into ~shards²/2 independent blocks of O((n/shards)²) each — the
    salted-key fix for the one-hot-partition scale cliff (VERDICT r1).
    """
    n = batch.num_rows
    if n == 0 or shards <= 1:
        z = pa.array([0] * n, pa.int32())
        return batch.append_column("_shard", z).append_column(
            "_sa", z
        ).append_column("_sb", z)
    ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
    s = (ids % shards).astype(np.int32)
    t = np.tile(np.arange(shards, dtype=np.int32), n)
    s_rep = np.repeat(s, shards)
    out = batch.take(pa.array(np.repeat(np.arange(n), shards)))
    return (
        out.append_column("_shard", pa.array(s_rep, pa.int32()))
        .append_column("_sa", pa.array(np.minimum(s_rep, t), pa.int32()))
        .append_column("_sb", pa.array(np.maximum(s_rep, t), pa.int32()))
    )


# ---------------------------------------------------------------------------
# Char-set Jaccard (DuckDB-compatible, per-source partition)
# ---------------------------------------------------------------------------


def _char_masks(texts: list[str]) -> np.ndarray:
    """(n, 2) uint64 bitmask of ascii chars 0-127 per text (non-ascii
    chars are hashed into the 128 slots).  Vectorized: one utf-32 decode
    of the joined corpus, unique (row, slot) pairs, then a single
    ``bitwise_or.at`` scatter — no per-character Python loop."""
    n = len(texts)
    out = np.zeros((n, 2), dtype=np.uint64)
    if n == 0:
        return out
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
    if int(lens.sum()) == 0:
        return out
    codes = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32).astype(
        np.int64
    )
    over = codes >= 128
    codes[over] = 64 + (codes[over] % 64)
    rows = np.repeat(np.arange(n, dtype=np.int64), lens)
    # dedupe (row, slot) — matches the set(t) semantics and bounds the
    # scatter to ≤128 entries per row
    keys = np.unique(rows * 128 + codes)
    rows_u = keys >> 7
    codes_u = keys & 127
    words = (codes_u >= 64).astype(np.int64)
    bits = (codes_u - 64 * words).astype(np.uint64)
    np.bitwise_or.at(out, (rows_u, words), np.uint64(1) << bits)
    return out


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    b = np.ascontiguousarray(x).view(np.uint8).reshape(x.shape + (8,))
    return _POP8[b].sum(axis=-1)


def charset_jaccard_pairs_group(group: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """All pairs within one source partition with char-set Jaccard ≥
    threshold (exactly DuckDB's ``jaccard()``: set-based, case-sensitive,
    spaces count).  Vectorized popcount over 128-bit masks."""
    ids = group["doc_id"].to_numpy()
    order = np.argsort(ids)
    ids = ids[order]
    texts = group["text"].to_numpy()[order]
    masks = _char_masks(list(texts))
    n = len(ids)
    a_out, b_out = [], []
    for i in range(n):
        inter = masks[i + 1 :] & masks[i]
        union = masks[i + 1 :] | masks[i]
        ji = _popcount64(inter).sum(axis=1) / np.maximum(
            _popcount64(union).sum(axis=1), 1
        )
        hits = np.nonzero(ji >= threshold)[0]
        for h in hits:
            a_out.append(int(ids[i]))
            b_out.append(int(ids[i + 1 + h]))
    return pd.DataFrame({"doc_a": pd.Series(a_out, dtype="int64"),
                         "doc_b": pd.Series(b_out, dtype="int64")})


def _charset_cross_pairs(
    left: pd.DataFrame, right: pd.DataFrame, threshold: float
) -> pd.DataFrame:
    """Pairs (one doc from each shard) with char-set Jaccard ≥ threshold,
    emitted as (min_id, max_id) — cross half of the sharded all-pairs."""
    ids_a = left["doc_id"].to_numpy(dtype=np.int64)
    ids_b = right["doc_id"].to_numpy(dtype=np.int64)
    ma = _char_masks(list(left["text"]))
    mb = _char_masks(list(right["text"]))
    a_out, b_out = [], []
    for i in range(len(ids_a)):
        inter = mb & ma[i]
        union = mb | ma[i]
        ji = _popcount64(inter).sum(axis=1) / np.maximum(
            _popcount64(union).sum(axis=1), 1
        )
        for h in np.nonzero(ji >= threshold)[0]:
            x, y = int(ids_a[i]), int(ids_b[h])
            if x > y:
                x, y = y, x
            a_out.append(x)
            b_out.append(y)
    return pd.DataFrame({"doc_a": pd.Series(a_out, dtype="int64"),
                         "doc_b": pd.Series(b_out, dtype="int64")})


def charset_jaccard_pairs(docs_ds, threshold: float = 1.0, shards: int | None = None):
    """groupby(source, shard-pair) → pair scoring.  ``shards`` (default
    ``min(8, io.shuffle_partitions())``) salts each source group via
    :func:`explode_shard_pairs` so one hot source at corpus scale
    distributes instead of serializing in a single block; the emitted
    pair set is identical for every ``shards`` value."""
    from ..io import shuffle_partitions
    from ..stages.grouping import grouped_map

    if shards is None:
        shards = min(8, shuffle_partitions())

    ds = docs_ds.select_columns(["doc_id", "text", "source"]).map_batches(
        lambda b: explode_shard_pairs(b, "doc_id", shards), batch_format="pyarrow"
    )

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        sa, sb = int(g["_sa"].iloc[0]), int(g["_sb"].iloc[0])
        if sa == sb:
            return charset_jaccard_pairs_group(g, threshold)
        return _charset_cross_pairs(
            g[g["_shard"] == sa], g[g["_shard"] == sb], threshold
        )

    return grouped_map(ds, ["source", "_sa", "_sb"], per_group)


# ---------------------------------------------------------------------------
# Near-dup clustering: connected components over candidate pairs
# ---------------------------------------------------------------------------


def neardup_components(
    pairs_ds, max_iters: int = 20, distributed: bool = True,
    num_partitions: int | None = None,
):
    """(doc_a, doc_b) pairs → (doc_id, component) with component = the
    smallest doc_id reachable — the canonical near-dup clustering step
    (keep one representative per component).

    Default (``distributed=True``, the scale path): iterative min-label
    propagation — per round scatter each node's label across its edges
    via a hash join and take ``groupby(node).min``; rounds ≈ component
    diameter (near-dup components are clique-like, so typically 2-3).
    ``num_partitions`` defaults to ``io.shuffle_partitions()``.
    Convergence: labels are monotone non-increasing, so an unchanged
    label SUM implies a fixed point (sound).

    ``distributed=False``: union-find over ``pairs_ds.take_all()`` on
    the driver — lower latency when the pair set is known-small, but a
    driver-side materialization, so never the default.
    """
    import ray.data as rd

    if num_partitions is None:
        from ..io import shuffle_partitions

        num_partitions = shuffle_partitions()

    if not distributed:
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for r in pairs_ds.take_all():
            a, b = find(int(r["doc_a"])), find(int(r["doc_b"]))
            if a != b:
                lo, hi = (a, b) if a < b else (b, a)
                parent[hi] = lo
        nodes = sorted(parent.keys() | {find(k) for k in parent})
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(nodes, pa.int64()),
                    "component": pa.array([find(n) for n in nodes], pa.int64()),
                }
            )
        )

    def edges_batch(b: pa.Table) -> pa.Table:
        a = pc.cast(b["doc_a"], pa.int64())
        c = pc.cast(b["doc_b"], pa.int64())
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [a.combine_chunks(), c.combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [c.combine_chunks(), a.combine_chunks()]
                ),
            }
        )

    from ..stages.grouping import sorted_multi_agg

    edges = pairs_ds.map_batches(edges_batch, batch_format="pyarrow").materialize()
    labels = (
        sorted_multi_agg(
            edges, "src",
            [("src", pa.int64())],
            [("dst", "min", "nbr_min", pa.int64())],
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "node": b["src"],
                    "label": pc.min_element_wise(b["src"], b["nbr_min"]),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    def label_sum(lds) -> int:
        return lds.map_batches(
            lambda b: pa.table({"s": [pc.sum(b["label"]).as_py() or 0]}),
            batch_format="pyarrow",
        ).sum("s")

    prev_sum = label_sum(labels)
    for _ in range(max_iters):
        # scatter each node's label to its neighbors, take the min
        scattered = edges.join(
            labels.map_batches(
                lambda b: b.rename_columns(["src", "label"]),
                batch_format="pyarrow",
            ),
            join_type="inner",
            on=("src",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda b: pa.table({"node": b["dst"], "cand": b["label"]}),
            batch_format="pyarrow",
        )
        self_rows = labels.map_batches(
            lambda b: pa.table({"node": b["node"], "cand": b["label"]}),
            batch_format="pyarrow",
        )
        new_labels = sorted_multi_agg(
            scattered.union(self_rows), "node",
            [("node", pa.int64())],
            [("cand", "min", "label", pa.int64())],
        ).materialize()
        # converged when the label sum is unchanged (labels monotone ↓)
        new_sum = label_sum(new_labels)
        labels = new_labels
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    return labels.map_batches(
        lambda b: pa.table(
            {
                "doc_id": pc.cast(b["node"], pa.int64()),
                "component": pc.cast(b["label"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Exact duplicated text spans (the "duplicate substrings across documents"
# dedup signal of Lee et al. 2022, hash-based variant): for every
# length-L character window of every document, is the same window text
# present in ANY other document?
# ---------------------------------------------------------------------------

_SPAN_BASE = np.uint64(1099511628211)  # FNV prime as the Rabin-Karp base


def _span_hashes(texts: list[str], L: int) -> tuple[np.ndarray, np.ndarray]:
    """(row_index, hash) for every length-L character window of every
    text — fully vectorized: ONE utf-32 decode of the joined corpus,
    then L shifted passes of ``H = H*B + code`` (mod 2^64) over the
    whole batch, windows crossing document boundaries masked out.
    Python never touches individual characters or windows."""
    n = len(texts)
    empty = (np.empty(0, np.int64), np.empty(0, np.uint64))
    if n == 0:
        return empty
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
    m = int(lens.sum())
    if m < L:
        return empty
    codes = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32).astype(
        np.uint64
    )
    rows = np.repeat(np.arange(n, dtype=np.int64), lens)
    w = m - L + 1
    h = np.zeros(w, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(L):
            h = h * _SPAN_BASE + codes[j : j + w]
    valid = rows[:w] == rows[L - 1 :]  # window stays inside one doc
    return rows[:w][valid], h[valid]


def dup_span_partials(batch: pa.Table, L: int = 20) -> pa.Table:
    """Per-batch combiner: (span_hash, doc_id, cnt) with cnt = how many
    positions of that doc carry that window — shuffle volume = distinct
    (window, doc) pairs per batch, never character positions.  Each doc
    lives in exactly one input row/batch, so the emitted pairs are
    globally unique."""
    texts = [t if t is not None else "" for t in batch["text"].to_pylist()]
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    rows, hashes = _span_hashes(texts, L)
    df = pd.DataFrame({"h": hashes, "doc_id": doc_ids[rows]})
    g = df.groupby(["h", "doc_id"], sort=False).size().reset_index(name="cnt")
    return pa.table(
        {
            "h": pa.array(g["h"].to_numpy(dtype=np.uint64), pa.uint64()),
            "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
            "cnt": pa.array(g["cnt"].to_numpy(dtype=np.int64), pa.int64()),
        }
    )


def duplicate_spans(docs_ds, L: int = 20):
    """(doc_id, n_spans, n_dup_spans) per document: n_spans = number of
    length-L character windows, n_dup_spans = how many of them also
    appear in at least one OTHER document.

    Scale shape: vectorized Rabin-Karp partials (above) → ONE exchange
    on the window hash → per-block mark windows whose (hash) group spans ≥2
    docs → per-doc sum.  The 64-bit hash stands in for the window text
    (collision odds ~(total windows)²/2⁶⁴); the DuckDB oracle groups by
    the literal substring, so a collision would surface as a mismatch.
    """
    from ray.data.aggregate import Sum

    pairs = docs_ds.map_batches(
        lambda b, _L=L: dup_span_partials(b, _L), batch_format="pyarrow"
    )

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_spans", pa.int64()),
            ("n_dup_spans", pa.int64()),
        ]
    )

    def mark_dups(df):
        # rows are unique per (h, doc): group size == distinct docs
        if len(df) == 0:
            return out_schema.empty_table()
        sizes = df.groupby("h", sort=False)["h"].transform("size")
        dup = df.loc[sizes >= 2]
        agg = dup.groupby("doc_id", sort=False)["cnt"].sum().reset_index()
        return pa.table(
            {
                "doc_id": pa.array(agg["doc_id"].to_numpy(dtype=np.int64), pa.int64()),
                "n_spans": pa.array(np.zeros(len(agg), np.int64), pa.int64()),
                "n_dup_spans": pa.array(
                    agg["cnt"].to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    dup_rows = exchange(pairs, "h", mark_dups, batch_format="pandas")

    def span_counts(b: pa.Table) -> pa.Table:
        lens = pc.utf8_length(pc.cast(b["text"], pa.large_string()))
        spans = pc.max_element_wise(
            pc.add(pc.subtract(pc.cast(lens, pa.int64()), pa.scalar(L, pa.int64())),
                   pa.scalar(1, pa.int64())),
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {
                "doc_id": pc.cast(b["doc_id"], pa.int64()),
                "n_spans": spans,
                "n_dup_spans": pa.array([0] * b.num_rows, pa.int64()),
            }
        )

    base_rows = docs_ds.map_batches(span_counts, batch_format="pyarrow")
    return (
        base_rows.union(dup_rows)
        .groupby("doc_id")
        .aggregate(
            Sum("n_spans", alias_name="n_spans"),
            Sum("n_dup_spans", alias_name="n_dup_spans"),
        )
    )


_KEEP_BEST_BASE = 1_000_000_000_000  # doc ids stay far below this


def keep_best_per_component(docs_ds, comp_ds):
    """The dedup endgame: given (doc_id, n_chars) docs and a
    (doc_id, component) near-dup clustering (:func:`neardup_components`
    output; unclustered docs are implicit singletons), pick ONE
    representative per component — longest doc, ties to the smallest
    doc_id — and report member counts.

    Two uniform-key exchanges, no driver materialization:

    1. groupby(doc_id) over the tagged union of docs and cluster labels
       (Min label = component, Max chars = the doc's length).
    2. groupby(component) over per-batch argmax partials.  The argmax
       merges through plain ``Max`` by encoding (n_chars, doc_id) into
       one integer key ``chars * B - (doc_id + 1)`` — larger chars win,
       then smaller doc_id — so no custom reduce is needed.

    Assumes ``n_chars >= 1`` and ``doc_id < B`` (truncating int division
    in the decode step would mis-round a zero-length doc's key).
    """
    from ray.data.aggregate import Max, Min, Sum

    def docs_part(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        return pa.table(
            {
                "doc_id": ids,
                "label": ids,
                "chars": pc.cast(b["n_chars"], pa.int64()),
            }
        )

    def comp_part(b: pa.Table) -> pa.Table:
        ids = pc.cast(b["doc_id"], pa.int64())
        return pa.table(
            {
                "doc_id": ids,
                "label": pc.cast(b["component"], pa.int64()),
                "chars": pa.array([0] * b.num_rows, pa.int64()),
            }
        )

    from ..stages.grouping import sorted_multi_agg

    labeled = sorted_multi_agg(
        docs_ds.map_batches(docs_part, batch_format="pyarrow").union(
            comp_ds.map_batches(comp_part, batch_format="pyarrow")
        ),
        "doc_id",
        [("doc_id", pa.int64())],
        [("label", "min", "component", pa.int64()),
         ("chars", "max", "n_chars", pa.int64())],
    )

    def argmax_partial(b: pa.Table) -> pa.Table:
        if b.num_rows:
            max_chars = pc.max(pc.cast(b["n_chars"], pa.int64())).as_py()
            if max_chars is not None and max_chars >= (1 << 63) // _KEEP_BEST_BASE:
                raise ValueError(
                    f"n_chars {max_chars} would overflow the encoded argmax "
                    f"key (bound {(1 << 63) // _KEEP_BEST_BASE}); raise "
                    "_KEEP_BEST_BASE's doc_id headroom or pre-scale n_chars"
                )
        key = pc.subtract(
            pc.multiply(
                pc.cast(b["n_chars"], pa.int64()),
                pa.scalar(_KEEP_BEST_BASE, pa.int64()),
            ),
            pc.add(pc.cast(b["doc_id"], pa.int64()), pa.scalar(1, pa.int64())),
        )
        g = (
            pa.table({"component": b["component"], "key": key})
            .group_by("component")
            .aggregate([("key", "max"), ("key", "count")])
        )
        return pa.table(
            {
                "component": pc.cast(g["component"], pa.int64()),
                "key_part": g["key_max"],
                "n_part": pc.cast(g["key_count"], pa.int64()),
            }
        )

    best = (
        labeled.map_batches(argmax_partial, batch_format="pyarrow")
        .groupby("component")
        .aggregate(Max("key_part", alias_name="key"),
                   Sum("n_part", alias_name="n_members"))
    )

    def decode(b: pa.Table) -> pa.Table:
        key = pc.cast(b["key"], pa.int64())
        base = pa.scalar(_KEEP_BEST_BASE, pa.int64())
        chars = pc.add(pc.divide(key, base), pa.scalar(1, pa.int64()))
        doc = pc.subtract(
            pc.subtract(pc.multiply(chars, base), key), pa.scalar(1, pa.int64())
        )
        return pa.table(
            {
                "component": pc.cast(b["component"], pa.int64()),
                "keep_doc_id": doc,
                "n_members": pc.cast(b["n_members"], pa.int64()),
            }
        )

    return best.map_batches(decode, batch_format="pyarrow")


def simhash_neardup(
    docs_ds,
    bands: int = 4,
    hasher: str = "fast",
    max_hamming: int = 3,
    num_partitions: int | None = None,
):
    """SimHash near-dup with the Hamming VERIFY stage: band-bucket
    candidates (:func:`simhash_candidates`) joined back to both sides'
    signatures, kept when popcount(sig_a XOR sig_b) <= max_hamming —
    the precision pass the banding recall stage needs.  Two uniform
    hash joins + a vectorized popcount filter; no driver
    materialization."""
    from ..functions.text import simhash_batch

    if num_partitions is None:
        from ..io import shuffle_partitions

        num_partitions = shuffle_partitions()

    cand = simhash_candidates(docs_ds, bands=bands, hasher=hasher)
    sigs = docs_ds.map_batches(
        lambda b: simhash_batch(b, hasher=hasher), batch_format="pyarrow"
    ).map_batches(
        lambda b: b.select(["doc_id", "simhash"]), batch_format="pyarrow"
    )

    def renamed(col_doc, col_sig):
        return sigs.map_batches(
            lambda b: pa.table(
                {col_doc: b["doc_id"], col_sig: b["simhash"]}
            ),
            batch_format="pyarrow",
        )

    j = cand.join(
        renamed("doc_a", "sig_a"),
        join_type="inner",
        on=("doc_a",),
        num_partitions=num_partitions,
    ).join(
        renamed("doc_b", "sig_b"),
        join_type="inner",
        on=("doc_b",),
        num_partitions=num_partitions,
    )

    def verify(b: pa.Table) -> pa.Table:
        sa = np.asarray(b["sig_a"].to_pylist(), dtype=np.uint64)
        sb = np.asarray(b["sig_b"].to_pylist(), dtype=np.uint64)
        ham = _popcount64((sa ^ sb)[:, None]).sum(axis=1)
        keep = pa.array(ham <= max_hamming)
        f = b.filter(keep)
        return pa.table(
            {
                "doc_a": pc.cast(f["doc_a"], pa.int64()),
                "doc_b": pc.cast(f["doc_b"], pa.int64()),
            }
        )

    return j.map_batches(verify, batch_format="pyarrow")
