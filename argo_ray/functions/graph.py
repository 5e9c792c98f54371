"""Distributed graph analytics over the extracted KG — iterative
link-analysis operators every knowledge-graph build wants on top of the
triple set (reference precedent: the store's Filter/group machinery
exposes the graph, `/root/reference/rdf/store.go`, but has no analytics
layer; these are the Ray-native extension).

Plan choice is by measured statistics, never a flag: graphs at or
under :data:`SMALL_GRAPH_EDGES` distinct edges run their whole
iteration vectorized inside ONE worker task (the iterative-graph
analogue of a size-gated broadcast join — per-round exchange fixed
cost dominates anything that small); larger graphs run the
distributed loop below.  Both plans are pinned equal on random graphs
by tests/test_graph.py.

Scale shape (the canonical distributed power-iteration plan):
- the edge list is a Dataset and NEVER leaves the object store; only
  COUNT(nodes) and per-iteration norm scalars cross the driver;
- per iteration: ONE value scatter + ONE groupby-sum, both bounded by
  |E|+|V| exchange volume;
- the scatter deliberately avoids ``Dataset.join``: in this Ray version
  a hash join's (and hash aggregate's) EMPTY output partitions forward
  schema-less blocks, and a downstream join's finalize rejects them
  with "No match ... FieldRef" whenever partitions outnumber keys
  (small inputs, or skewed tails at scale).  Instead value rows union
  with the keyed edge list, ONE ``stages.grouping.exchange`` by key
  puts each key's value row in the block of its edges, and a
  vectorized in-block pandas merge emits the contributions — the
  same all-to-all exchange class as the hash join, none of its
  empty-partition fragility;
- static per-edge state (out-degree weights) is computed ONCE before
  the loop and the keyed edge table is materialized, so each iteration
  re-reads cached blocks instead of re-executing upstream extraction.

Conventions (each exactly mirrored by nested per-iteration CTEs in the
DuckDB oracles):
- :func:`pagerank` — the "simple" power iteration
  ``rank'(v) = (1-d)/N + d * sum_{u->v} rank(u)/outdeg(u)`` without
  dangling-mass redistribution (dangling nodes absorb; total mass is
  not conserved).
- :func:`hits` — Kleinberg hubs/authorities with L2 normalization of
  each vector every iteration, h0 = 1.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.grouping import exchange, sorted_multi_agg, sorted_unique
from ..terms import hash64

_KV_SCHEMA = pa.schema(
    [
        ("key", pa.string()),
        ("out", pa.string()),
        ("w", pa.float64()),
        ("val", pa.float64()),
    ]
)
_PART_SCHEMA = pa.schema([("node", pa.string()), ("part", pa.float64())])


def _distinct_nodes(edges_ds):
    """src ∪ dst, distinct — per-block distinct partials, then one
    :func:`sorted_unique` exchange on the node; reused as the
    per-iteration zero-contribution floor so no left-outer join is
    ever needed."""

    def both_ends(b: pa.Table) -> pa.Table:
        t = pa.concat_tables(
            [
                pa.table({"node": pc.cast(b["src"], pa.string())}),
                pa.table({"node": pc.cast(b["dst"], pa.string())}),
            ]
        )
        return t.group_by("node").aggregate([])  # in-block distinct

    return sorted_unique(
        edges_ds.map_batches(both_ends, batch_format="pyarrow"),
        ["node"], "node",
    ).materialize()


def _keyed_edges(
    edges_ds, key_col: str, out_col: str, degree_weight: bool,
    weight_col: str | None = None,
):
    """(key, out, w, val=null) edge table, materialized.  ``w`` is the
    contribution DIVISOR: the key node's edge count under this keying
    when ``degree_weight`` (PageRank's outdeg); with ``weight_col``,
    the WEIGHTED normalizer ``sum_w(key) / w(edge)`` (so ``val / w`` =
    ``val * w(edge) / sum_w(key)`` — weighted PageRank's transition
    probability, expressed as the same single division); else 1.
    Arrow blocks with a pinned schema so the per-iteration union with
    the value rows never mixes block types or nullability-inferred
    column types."""

    def build(df):
        if len(df) == 0:
            return _KV_SCHEMA.empty_table()
        out = df.rename(columns={key_col: "key", out_col: "out"}).copy()
        if weight_col is not None:
            w = out[weight_col].astype("float64")
            if (w <= 0).any():
                # a zero/negative weight makes the sum_w/w divisor NaN
                # or flips contribution signs — NaN ranks with no error
                raise ValueError(
                    f"weight_col {weight_col!r} must be strictly positive"
                )
            out["w"] = (
                out.groupby("key", sort=False)[weight_col]
                .transform("sum")
                .astype("float64")
                / w
            )
        elif degree_weight:
            out["w"] = (
                out.groupby("key", sort=False)["key"]
                .transform("size")
                .astype("float64")
            )
        else:
            out["w"] = 1.0
        out["val"] = float("nan")
        return pa.Table.from_pandas(
            out[["key", "out", "w", "val"]],
            schema=_KV_SCHEMA,
            preserve_index=False,
        )

    if degree_weight or weight_col is not None:
        # the degree/weight-sum transform needs whole key groups per block
        out = exchange(edges_ds, key_col, build, batch_format="pandas")
    else:
        out = edges_ds.map_batches(build, batch_format="pandas", batch_size=None)
    return out.materialize()


def _value_rows(values_ds, val_col: str):
    """(node, val) Dataset → union-compatible (key, out=null, w, val)."""
    return values_ds.map_batches(
        lambda b: pa.table(
            {
                "key": pc.cast(b["node"], pa.string()),
                "out": pa.array([None] * b.num_rows, pa.string()),
                "w": pa.array([None] * b.num_rows, pa.float64()),
                "val": pc.cast(b[val_col], pa.float64()),
            }
        ),
        batch_format="pyarrow",
    )


def _split_merge(df, val_cols):
    """Sorted-block core of EVERY scatter in this module: split the
    value rows (``out`` is null) from the edge rows, inner-merge each
    key's values onto its edges (one exchange block = whole key
    groups).  Returns the merged frame, or None
    when either side is absent."""
    if len(df) == 0 or "key" not in df.columns:
        return None
    is_val = df["out"].isna()
    v = df.loc[is_val, ["key", *val_cols]]
    e = df.loc[~is_val, [c for c in df.columns if c not in val_cols]]
    if len(v) == 0 or len(e) == 0:
        return None
    return e.merge(v, on="key", how="inner")


def _scatter_block(df, combine: str):
    """Broadcast each key's value row onto its edges, then COMBINE
    in-block: partially aggregate the contributions per destination
    (``combine`` must match the downstream reduce — "sum" for
    PageRank/HITS, "min" for BFS; both are associative so block-level
    pre-aggregation is exact) before they leave the task, so the
    downstream groupby exchange moves at most |distinct dst per block|
    rows instead of |edges per block| — the map-side combiner every
    scatter-gather wants at scale."""
    m = _split_merge(df, ["val"])
    if m is None:
        return _PART_SCHEMA.empty_table()
    part = (m["val"] / m["w"]).to_numpy(dtype="float64")
    g = (
        m.assign(part=part)
        .groupby("out", sort=False)["part"]
        .agg(combine)
        .reset_index()
    )
    return pa.table(
        {
            "node": pa.array(g["out"], pa.string()),
            "part": pa.array(g["part"].to_numpy(dtype="float64"), pa.float64()),
        }
    )


def _scatter_contribs(edges_kv, values_ds, val_col: str, combine: str = "sum"):
    """(node=out, part=val(key)/w) contribution rows, pre-combined per
    block — the shared scatter: union value rows into the keyed edge
    table, ONE sort by key, vectorized in-block merge + combiner."""
    return exchange(
        edges_kv.union(_value_rows(values_ds, val_col)), "key",
        lambda df: _scatter_block(df, combine), batch_format="pandas",
    )


def _sorted_count(ds, key_col: str, out_val: str):
    """Row count per key via map-side per-block partials + ONE
    :func:`sorted_multi_agg` sum exchange — the degree/count twin of
    the propagation finish, replacing ``groupby().aggregate(Count)``
    at node-cardinality group counts."""

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema(
                [(key_col, pa.string()), ("part", pa.int64())]
            ).empty_table()
        g = (
            pa.table({key_col: pc.cast(b[key_col], pa.string())})
            .group_by(key_col)
            .aggregate([(key_col, "count")])
        )
        return pa.table(
            {
                key_col: pc.cast(g[key_col], pa.string()),
                "part": pc.cast(g[f"{key_col}_count"], pa.int64()),
            }
        )

    return sorted_multi_agg(
        ds.map_batches(partial, batch_format="pyarrow"), key_col,
        [(key_col, pa.string())], [("part", "sum", out_val, pa.int64())],
    )


def _scatter_sum(edges_kv, values_ds, val_col: str, zero_rows):
    """sum over edges key→out of val(key)/w → Dataset (node, insum);
    every node present (zero floor).  The result is REPARTITIONED back
    to the zero-floor's block count: union concatenates block lists, so
    without the rebound every iteration's vector grows by the edge
    table's block count and per-iteration wall time climbs linearly
    (quadratic for the whole loop — measured 3.5 s → 33 s over 5
    iterations at sf0.001 before the fix)."""
    contribs = _scatter_contribs(edges_kv, values_ds, val_col)
    return sorted_multi_agg(
        contribs.union(zero_rows), "node", [("node", pa.string())],
        [("part", "sum", "insum", pa.float64())],
    ).repartition(max(1, zero_rows.num_blocks()))


def _const_nodes(nodes, col: str, value: float):
    return nodes.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                col: pa.array([value] * b.num_rows, pa.float64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()


def _empty_result(nodes, cols: list[str]):
    fields = [("node", pa.string())] + [(c, pa.float64()) for c in cols]
    schema = pa.schema(fields)
    return nodes.map_batches(
        lambda b: schema.empty_table(), batch_format="pyarrow"
    )


# Below this many (distinct) edges the whole power iteration runs
# vectorized inside ONE worker task instead of 5 distributed exchange
# rounds — the iterative-graph analogue of a size-gated broadcast join.
# ~2M string edges ≈ low hundreds of MB in one task heap; the per-round
# exchange fixed cost (~2 s/round on this Ray version regardless of
# data size) dominates anything below it.  Callers override per call;
# the plan choice is by measured statistics (edge count), never a flag.
SMALL_GRAPH_EDGES = 2_000_000


def _single_task_graph(edges_ds, kernel):
    """Shared fast-path scaffold: repartition the (gate-bounded) edge
    set into ONE block, number its nodes, and hand ``kernel(nodes,
    src_idx, dst_idx)`` (→ dict of result columns, each aligned to
    ``nodes``) the integer edge arrays inside a single worker task."""

    def run(b: pa.Table) -> pa.Table:
        import pandas as pd

        src_v = b["src"].to_pandas()
        dst_v = b["dst"].to_pandas()
        nodes = pd.Index(pd.unique(pd.concat([src_v, dst_v], ignore_index=True)))
        src = nodes.get_indexer(src_v)
        dst = nodes.get_indexer(dst_v)
        cols = kernel(nodes, src, dst)
        return pa.table(
            {"node": pa.array(nodes.to_numpy(), pa.string()), **cols}
        )

    # one block → one task; the whole graph fits by the gate's bound
    return edges_ds.repartition(1).map_batches(
        run, batch_format="pyarrow", batch_size=None
    )


def _pagerank_small_weighted(edges_ds, iters: int, damping: float):
    """Single-task fast path for WEIGHTED PageRank: per-edge transition
    = rank(u) / (outw(u) / w(u,v)) — the identical two-division shape
    the distributed KV plan (and the SQL oracle) computes, so all three
    agree bit-for-bit before rounding."""

    def run(b: pa.Table) -> pa.Table:
        import pandas as pd

        src_v = b["src"].to_pandas()
        dst_v = b["dst"].to_pandas()
        w = pc.cast(b["w"], pa.float64()).to_numpy(zero_copy_only=False)
        if (w <= 0).any():
            raise ValueError("weight column must be strictly positive")
        nodes = pd.Index(pd.unique(pd.concat([src_v, dst_v], ignore_index=True)))
        src = nodes.get_indexer(src_v)
        dst = nodes.get_indexer(dst_v)
        n = len(nodes)
        outw = np.bincount(src, weights=w, minlength=n)
        div = outw[src] / w  # per-edge divisor, matches the KV build
        rank = np.full(n, 1.0 / n)
        base = np.full(n, (1.0 - damping) / n)
        for _ in range(iters):
            contrib = rank[src] / div
            rank = base + damping * np.bincount(dst, weights=contrib, minlength=n)
        return pa.table(
            {
                "node": pa.array(nodes.to_numpy(), pa.string()),
                "rank": pa.array(rank, pa.float64()),
            }
        )

    return edges_ds.repartition(1).map_batches(
        run, batch_format="pyarrow", batch_size=None
    )


def _pagerank_small(
    edges_ds, iters: int, damping: float,
    teleport_nodes: list[str] | None,
):
    """Single-task fast path: identical convention to the distributed
    loop (simple power iteration, dangling nodes absorb), pinned equal
    by tests/test_graph.py's differential random-graph checks."""
    seed_list = sorted(set(teleport_nodes)) if teleport_nodes is not None else None

    def kernel(nodes, src, dst):
        import pandas as pd

        n = len(nodes)
        outdeg = np.bincount(src, minlength=n).astype(np.float64)
        if seed_list is None:
            rank = np.full(n, 1.0 / n)
            base = np.full(n, (1.0 - damping) / n)
        else:
            seed_idx = nodes.get_indexer(pd.Index(seed_list))
            seed_idx = seed_idx[seed_idx >= 0]
            mass = 1.0 / len(seed_list)
            rank = np.zeros(n)
            rank[seed_idx] = mass
            base = np.zeros(n)
            base[seed_idx] = (1.0 - damping) * mass
        for _ in range(iters):
            contrib = rank[src] / outdeg[src]
            rank = base + damping * np.bincount(
                dst, weights=contrib, minlength=n
            )
        return {"rank": pa.array(rank, pa.float64())}

    return _single_task_graph(edges_ds, kernel)


def pagerank(
    edges_ds,
    iters: int = 5,
    damping: float = 0.85,
    teleport_nodes: list[str] | None = None,
    small_graph_edges: int = SMALL_GRAPH_EDGES,
    weight_col: str | None = None,
):
    """PageRank over a directed edge Dataset with string columns
    ``(src, dst)`` (caller supplies DISTINCT edges).  Returns a
    ``(node, rank)`` Dataset after ``iters`` power iterations from the
    uniform 1/N start.

    ``teleport_nodes`` switches to PERSONALIZED PageRank: the teleport
    vector (and the start vector) put 1/|S| on each seed and 0
    elsewhere — the seed set is a tiny broadcast captured by the
    per-iteration map, everything else is the same plan.

    Plan choice by statistics: graphs at or under ``small_graph_edges``
    distinct edges run the single-task fast path (:func:`_pagerank_small`);
    larger graphs run the per-iteration exchange loop below."""
    if weight_col is not None and teleport_nodes is not None:
        raise ValueError("weighted personalized PageRank not supported")
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return _empty_result(edges_ds, ["rank"])
    if n_edges <= small_graph_edges:
        if weight_col is not None:
            return _pagerank_small_weighted(edges_ds, iters, damping)
        return _pagerank_small(edges_ds, iters, damping, teleport_nodes)
    nodes = _distinct_nodes(edges_ds)
    n_nodes = nodes.count()

    edges_kv = _keyed_edges(
        edges_ds, "src", "dst", degree_weight=True, weight_col=weight_col
    )
    zero_rows = _const_nodes(nodes, "part", 0.0)
    if teleport_nodes is None:
        ranks = _const_nodes(nodes, "rank", 1.0 / n_nodes)
        seeds = None
        base = (1.0 - damping) / n_nodes
    else:
        seed_set = sorted(set(teleport_nodes))
        seeds = pa.array(seed_set, pa.large_string())
        seed_mass = 1.0 / len(seed_set)
        base = (1.0 - damping) * seed_mass

        def seed_vec(b: pa.Table, value: float) -> pa.Table:
            in_s = pc.is_in(
                pc.cast(b["node"], pa.large_string()), value_set=seeds
            )
            return pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "rank": pc.if_else(
                        in_s,
                        pa.scalar(value, pa.float64()),
                        pa.scalar(0.0, pa.float64()),
                    ),
                }
            )

        ranks = nodes.map_batches(
            lambda b: seed_vec(b, seed_mass), batch_format="pyarrow"
        ).materialize()

    # materialize EACH iteration: the vector is consumed only once, but
    # leaving the loop lazy stacks 5 sort+groupby all-to-alls into one
    # streaming topology and the executor runs them concurrently —
    # measured 22.9 s vs 13.8 s at sf0.1 for the lazy variant.  The
    # per-iteration barrier keeps exactly one exchange in flight.
    def update(b: pa.Table) -> pa.Table:
        scaled = pc.multiply(
            pa.scalar(damping, pa.float64()), pc.cast(b["insum"], pa.float64())
        )
        if seeds is None:
            rank = pc.add(pa.scalar(base, pa.float64()), scaled)
        else:
            in_s = pc.is_in(
                pc.cast(b["node"], pa.large_string()), value_set=seeds
            )
            rank = pc.add(
                pc.if_else(
                    in_s,
                    pa.scalar(base, pa.float64()),
                    pa.scalar(0.0, pa.float64()),
                ),
                scaled,
            )
        return pa.table(
            {"node": pc.cast(b["node"], pa.string()), "rank": rank}
        )

    for _ in range(iters):
        ranks = (
            _scatter_sum(edges_kv, ranks, "rank", zero_rows)
            .map_batches(update, batch_format="pyarrow")
            .materialize()
        )
    return ranks


def _l2_norm(values_ds, col: str) -> float:
    """sqrt(sum(col²)) — per-batch partial sums, one scalar reduce."""
    import math

    total = values_ds.map_batches(
        lambda b: pa.table(
            {
                "ss": pa.array(
                    [
                        pc.sum(
                            pc.multiply(
                                pc.cast(b[col], pa.float64()),
                                pc.cast(b[col], pa.float64()),
                            )
                        ).as_py()
                        or 0.0
                    ],
                    pa.float64(),
                )
            }
        ),
        batch_format="pyarrow",
    ).sum("ss")
    return math.sqrt(total or 0.0)


def _hits_small(edges_ds, iters: int):
    """Single-task HITS fast path — exact mirror of the distributed
    loop's convention including the zero-norm early breaks."""
    import math

    def kernel(nodes, src, dst):
        n = len(nodes)
        h = np.ones(n)
        a = np.zeros(n)
        for _ in range(iters):
            a_raw = np.bincount(dst, weights=h[src], minlength=n)
            na = math.sqrt(float(np.dot(a_raw, a_raw)))
            if na == 0.0:
                break
            a = a_raw / na
            h_raw = np.bincount(src, weights=a[dst], minlength=n)
            nh = math.sqrt(float(np.dot(h_raw, h_raw)))
            if nh == 0.0:
                break
            h = h_raw / nh
        return {
            "hub": pa.array(h, pa.float64()),
            "authority": pa.array(a, pa.float64()),
        }

    return _single_task_graph(edges_ds, kernel)


def hits(edges_ds, iters: int = 5, small_graph_edges: int = SMALL_GRAPH_EDGES):
    """Kleinberg HITS over a directed edge Dataset ``(src, dst)``
    (DISTINCT edges): per iteration ``a(v) = Σ_{u→v} h(u)`` then L2-
    normalize, ``h(u) = Σ_{u→v} a(v)`` then L2-normalize; ``h₀ = 1``.
    Returns a ``(node, hub, authority)`` Dataset.  Plan choice by edge
    count, same gate as :func:`pagerank`."""
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return _empty_result(edges_ds, ["hub", "authority"])
    if n_edges <= small_graph_edges:
        return _hits_small(edges_ds, iters)
    nodes = _distinct_nodes(edges_ds)

    fwd = _keyed_edges(edges_ds, "src", "dst", degree_weight=False)  # h → a
    rev = _keyed_edges(edges_ds, "dst", "src", degree_weight=False)  # a → h
    zero_rows = _const_nodes(nodes, "part", 0.0)
    hubs = _const_nodes(nodes, "val", 1.0)
    auths = _const_nodes(nodes, "val", 0.0)

    def _normalized(raw, norm: float):
        return raw.map_batches(
            lambda b, _n=norm: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "val": pc.divide(
                        pc.cast(b["insum"], pa.float64()),
                        pa.scalar(_n, pa.float64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    for _ in range(iters):
        a_raw = _scatter_sum(fwd, hubs, "val", zero_rows).materialize()
        na = _l2_norm(a_raw, "insum")
        if na == 0.0:
            break
        auths = _normalized(a_raw, na)
        h_raw = _scatter_sum(rev, auths, "val", zero_rows).materialize()
        nh = _l2_norm(h_raw, "insum")
        if nh == 0.0:
            break
        hubs = _normalized(h_raw, nh)

    # one sort-colocated merge stitches the two vectors (node is unique
    # per side, so a block holds both rows of each node after the sort)
    tagged = hubs.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "hub": pc.cast(b["val"], pa.float64()),
                "authority": pa.array([None] * b.num_rows, pa.float64()),
            }
        ),
        batch_format="pyarrow",
    ).union(
        auths.map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "hub": pa.array([None] * b.num_rows, pa.float64()),
                    "authority": pc.cast(b["val"], pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return sorted_multi_agg(
        tagged,
        "node",
        [("node", pa.string())],
        [("hub", "max", "hub", pa.float64()),
         ("authority", "max", "authority", pa.float64())],
    )


BFS_UNREACHED = 1_000_000  # integer infinity — exact in SQL and Arrow


def _bfs_small(edges_ds, iters: int, seed_list: list[str] | None):
    """Single-task BFS fast path — same fixed-round min-relaxation and
    sentinel as the distributed loop; ``seed_list=None`` resolves to
    the lexicographically smallest node inside the task."""

    def kernel(nodes, src, dst):
        import pandas as pd

        n = len(nodes)
        dist = np.full(n, BFS_UNREACHED, dtype=np.int64)
        if seed_list is None:
            dist[nodes.get_indexer([nodes.to_numpy().min()])] = 0
        else:
            seed_idx = nodes.get_indexer(pd.Index(seed_list))
            dist[seed_idx[seed_idx >= 0]] = 0
        for _ in range(iters):
            relaxed = np.full(n, BFS_UNREACHED, dtype=np.int64)
            np.minimum.at(relaxed, dst, dist[src] + 1)
            dist = np.minimum(dist, relaxed)
        return {"dist": pa.array(dist, pa.int64())}

    return _single_task_graph(edges_ds, kernel)


def bfs_distances(
    edges_ds,
    iters: int = 6,
    seed: str | None = None,
    seeds: list[str] | None = None,
    small_graph_edges: int = SMALL_GRAPH_EDGES,
):
    """Directed BFS hop distances from a seed node (default: the
    lexicographically smallest node — deterministic without input):
    ``dist'(v) = min(dist(v), 1 + min_{u→v} dist(u))``, ``iters``
    relaxation rounds, so the result is exact for every node within
    ``iters`` hops and :data:`BFS_UNREACHED` beyond.  Pure integer
    arithmetic — the DuckDB oracle is bit-exact with no rounding.
    Returns a ``(node, dist)`` Dataset (unreached nodes carry the
    sentinel).  Plan choice by edge count, same gate as
    :func:`pagerank`."""
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return _empty_result(edges_ds, ["dist"])
    if seeds is not None:
        seed_list = sorted(set(seeds))
    elif seed is not None:
        seed_list = [seed]
    else:
        seed_list = None
    if n_edges <= small_graph_edges:
        return _bfs_small(edges_ds, iters, seed_list)
    nodes = _distinct_nodes(edges_ds)
    if seed_list is None:
        seed_list = [nodes.min("node")]
    seeds = seed_list
    # multi-source BFS: dist 0 on every seed — the frontier union
    seed_arr = pa.array(sorted(set(seeds)), pa.large_string())

    fwd = _keyed_edges(edges_ds, "src", "dst", degree_weight=False)

    dists = nodes.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "dist": pc.if_else(
                    pc.is_in(
                        pc.cast(b["node"], pa.large_string()),
                        value_set=seed_arr,
                    ),
                    pa.scalar(0, pa.int64()),
                    pa.scalar(BFS_UNREACHED, pa.int64()),
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    n_blocks = max(1, dists.num_blocks())

    from ray.data.aggregate import Min

    for _ in range(iters):
        # scatter dist+1 along edges (float in transit, exact: ints
        # ≤ 1e6+6 are exactly representable in float64)
        inc = dists.map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "val": pc.cast(
                        pc.add(b["dist"], pa.scalar(1, pa.int64())), pa.float64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        contribs = _scatter_contribs(fwd, inc, "val", combine="min")
        self_rows = dists.map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "part": pc.cast(b["dist"], pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )
        dists = (
            sorted_multi_agg(
                contribs.union(self_rows), "node", [("node", pa.string())],
                [("part", "min", "dist", pa.float64())],
            )
            .map_batches(
                lambda b: pa.table(
                    {
                        "node": pc.cast(b["node"], pa.string()),
                        "dist": pc.cast(
                            pc.min_element_wise(
                                b["dist"],
                                pa.scalar(float(BFS_UNREACHED), pa.float64()),
                            ),
                            pa.int64(),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            .repartition(n_blocks)
            .materialize()
        )
    return dists


def _sssp_small(edges_ds, iters: int, seed_list: list[str] | None):
    """Single-task weighted-SSSP fast path — same fixed-round
    Bellman-Ford relaxation and sentinel as the distributed loop, with
    the per-edge integer weight vectorized through ``np.minimum.at``."""

    def run(b: pa.Table) -> pa.Table:
        import pandas as pd

        src_v = b["src"].to_pandas()
        dst_v = b["dst"].to_pandas()
        w = pc.cast(b["w"], pa.int64()).to_numpy(zero_copy_only=False)
        nodes = pd.Index(pd.unique(pd.concat([src_v, dst_v], ignore_index=True)))
        src = nodes.get_indexer(src_v)
        dst = nodes.get_indexer(dst_v)
        n = len(nodes)
        dist = np.full(n, BFS_UNREACHED, dtype=np.int64)
        if seed_list is None:
            dist[nodes.get_indexer([nodes.to_numpy().min()])] = 0
        else:
            si = nodes.get_indexer(pd.Index(seed_list))
            dist[si[si >= 0]] = 0
        for _ in range(iters):
            relaxed = np.full(n, BFS_UNREACHED, dtype=np.int64)
            np.minimum.at(relaxed, dst, dist[src] + w)
            dist = np.minimum(dist, relaxed)
            np.minimum(dist, BFS_UNREACHED, out=dist)
        keep = dist < BFS_UNREACHED
        return pa.table(
            {
                "node": pa.array(nodes.to_numpy()[keep], pa.string()),
                "dist": pa.array(dist[keep], pa.int64()),
            }
        )

    return edges_ds.repartition(1).map_batches(
        run, batch_format="pyarrow", batch_size=None
    )


def _scatter_block_addmin(df):
    """Weighted-relaxation scatter block: contribution = val + w (the
    per-edge ADDITIVE weight rides the ``w`` column of the shared KV
    schema instead of PageRank's divisor), min-combined per destination
    before leaving the task."""
    m = _split_merge(df, ["val"])
    if m is None:
        return _PART_SCHEMA.empty_table()
    part = (m["val"] + m["w"]).to_numpy(dtype="float64")
    g = (
        m.assign(part=part)
        .groupby("out", sort=False)["part"]
        .min()
        .reset_index()
    )
    return pa.table(
        {
            "node": pa.array(g["out"], pa.string()),
            "part": pa.array(g["part"].to_numpy(dtype="float64"), pa.float64()),
        }
    )


def sssp_weighted(
    edges_ds,
    iters: int = 4,
    seed: str | None = None,
    small_graph_edges: int = SMALL_GRAPH_EDGES,
):
    """Fixed-round Bellman-Ford single-source shortest paths over a
    DIRECTED weighted edge Dataset ``(src, dst, w)`` with non-negative
    INTEGER weights: ``dist'(v) = min(dist(v), min_{u→v} dist(u) +
    w(u,v))``, exact for every node whose shortest path uses at most
    ``iters`` edges.  Integer arithmetic end-to-end (weights ride
    float64 in transit; path sums ≤ 1e6+ stay exactly representable),
    so the DuckDB recursive/nested-CTE oracle is bit-exact.  Returns
    ``(node, dist)`` for REACHED nodes only.

    Distributed plan = the BFS scatter with the per-edge weight as the
    additive term: edges keyed once by src, per round ONE sort
    exchange of the narrow dist vector, contributions min-combined
    per block before the groupby (map-side combiner).  Same
    statistics gate as :func:`pagerank` for the single-task fast path.
    """
    from ray.data.aggregate import Min

    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return _empty_result(edges_ds, ["dist"])
    seed_list = [seed] if seed is not None else None
    if n_edges <= small_graph_edges:
        return _sssp_small(edges_ds, iters, seed_list)

    nodes = _distinct_nodes(edges_ds)
    if seed_list is None:
        seed_list = [nodes.min("node")]
    seed_arr = pa.array(sorted(set(seed_list)), pa.large_string())

    def keyed(df):
        if len(df) == 0:
            return _KV_SCHEMA.empty_table()
        out = df.rename(columns={"src": "key", "dst": "out"}).copy()
        out["w"] = out["w"].astype("float64")
        out["val"] = float("nan")
        return pa.Table.from_pandas(
            out[["key", "out", "w", "val"]],
            schema=_KV_SCHEMA,
            preserve_index=False,
        )

    fwd = edges_ds.map_batches(
        keyed, batch_format="pandas", batch_size=None
    ).materialize()

    dists = nodes.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "dist": pc.if_else(
                    pc.is_in(
                        pc.cast(b["node"], pa.large_string()), value_set=seed_arr
                    ),
                    pa.scalar(0, pa.int64()),
                    pa.scalar(BFS_UNREACHED, pa.int64()),
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    n_blocks = max(1, dists.num_blocks())

    for _ in range(iters):
        inc = dists.map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "val": pc.cast(b["dist"], pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )
        contribs = exchange(
            fwd.union(_value_rows(inc, "val")), "key",
            _scatter_block_addmin, batch_format="pandas",
        )
        self_rows = dists.map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "part": pc.cast(b["dist"], pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )
        dists = (
            sorted_multi_agg(
                contribs.union(self_rows), "node", [("node", pa.string())],
                [("part", "min", "dist", pa.float64())],
            )
            .map_batches(
                lambda b: pa.table(
                    {
                        "node": pc.cast(b["node"], pa.string()),
                        "dist": pc.cast(
                            pc.min_element_wise(
                                b["dist"],
                                pa.scalar(float(BFS_UNREACHED), pa.float64()),
                            ),
                            pa.int64(),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            .repartition(n_blocks)
            .materialize()
        )
    return dists.map_batches(
        lambda b: b.filter(
            pc.less(pc.cast(b["dist"], pa.int64()), pa.scalar(BFS_UNREACHED, pa.int64()))
        ),
        batch_format="pyarrow",
    )


def _mix_pair_hashes(hu: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """Order-asymmetric 64-bit combine of two per-node hash arrays."""
    return (hu * np.uint64(0x9E3779B97F4A7C15)) ^ (
        (hv << np.uint64(1)) | (hv >> np.uint64(63))
    )


def _link_prediction_small(edges_ds, k: int, max_apex_degree: int | None):
    """Single-task fast path for :func:`link_prediction_jaccard`:
    identical semantics (undirected simple graph, hub cap over the
    id-smallest neighbors, TRUE degrees in the denominator, same
    tie-break), the whole computation vectorized inside one worker
    task on the gate-bounded edge set.  Node ids are the sorted-unique
    rank, so id order == lexicographic name order exactly as in the
    distributed plan."""
    out_schema = pa.schema(
        [("node_a", pa.string()), ("node_b", pa.string()),
         ("common", pa.int64()), ("jaccard", pa.float64())]
    )

    def run(b: pa.Table) -> pa.Table:
        src_v = np.asarray(b["src"].to_pylist(), dtype=object)
        dst_v = np.asarray(b["dst"].to_pylist(), dtype=object)
        if len(src_v) == 0:
            return out_schema.empty_table()
        nodes = np.unique(np.concatenate([src_v, dst_v]))  # sorted
        n = len(nodes)
        src = np.searchsorted(nodes, src_v).astype(np.int64)
        dst = np.searchsorted(nodes, dst_v).astype(np.int64)
        m = src != dst
        # undirected distinct edges as combined int keys (n^2 < 2^63
        # by the gate bound)
        key = np.unique(
            np.concatenate([src[m] * n + dst[m], dst[m] * n + src[m]])
        )
        a, bb = key // n, key % n  # a ascending; per-a neighbors ascending
        deg = np.bincount(a, minlength=n).astype(np.int64)
        bounds = np.searchsorted(a, np.arange(n + 1))
        pair_keys = []
        for z in range(n):
            s, e = bounds[z], bounds[z + 1]
            if e - s < 2:
                continue
            nb = bb[s:e]
            if max_apex_degree is not None and len(nb) > max_apex_degree:
                nb = nb[:max_apex_degree]
            i, j = np.triu_indices(len(nb), 1)
            pair_keys.append(nb[i] * n + nb[j])
        if not pair_keys:
            return out_schema.empty_table()
        uk, counts = np.unique(np.concatenate(pair_keys), return_counts=True)
        keep = ~np.isin(uk, key)  # drop already-adjacent pairs
        uk, counts = uk[keep], counts[keep].astype(np.int64)
        if len(uk) == 0:
            return out_schema.empty_table()
        pa_i, pb_i = uk // n, uk % n
        jac = counts.astype(np.float64) / (
            deg[pa_i] + deg[pb_i] - counts
        ).astype(np.float64)
        order = np.lexsort((pb_i, pa_i, -counts, -jac))[:k]
        return pa.table(
            {
                "node_a": pa.array(nodes[pa_i[order]], pa.string()),
                "node_b": pa.array(nodes[pb_i[order]], pa.string()),
                "common": pa.array(counts[order], pa.int64()),
                "jaccard": pa.array(jac[order], pa.float64()),
            }
        )

    return edges_ds.repartition(1).map_batches(
        run, batch_format="pyarrow", batch_size=None
    )


def link_prediction_jaccard(
    edges_ds,
    k: int = 20,
    max_apex_degree: int | None = None,
    small_graph_edges: int = SMALL_GRAPH_EDGES,
):
    """Neighborhood-Jaccard link prediction over the UNDIRECTED simple
    graph (self-loops dropped, direction/multiplicity ignored): for
    every non-adjacent pair (a, b) sharing >=1 neighbor,
    ``common = |N(a) intersect N(b)|`` and
    ``jaccard = common / (deg(a)+deg(b)-common)`` -> top-k
    ``(node_a, node_b, common, jaccard)`` ranked
    (jaccard desc, common desc, node_a, node_b).  The float is ONE
    division of exact integers on both sides, so the DuckDB oracle is
    IEEE-identical.

    Plan: the hot path runs entirely on DENSE INTEGER ids (0-based rank
    in sorted node order, so id order == lexicographic name order and
    the tie-break matches the string oracle).  Node degrees ride ON the
    edge rows into wedge generation, so the only full-volume exchange
    is the single pair-count groupby: wedge pairs (with both endpoint
    degrees as columns) union edge-marker rows -> ONE int-keyed groupby
    that sums ``common``, drops adjacent pairs, and keeps the degrees
    via Min -> per-block partial top-k -> tiny global sort -> winner
    ids resolved back to names with one bounded filter.  Wedge volume
    is sum_z deg(z)^2 — no degree orientation can bound it
    (common-neighbor counts need every wedge), so a web
    link graph's hub (a page cited by every crawl page: degree ~= page
    count) alone makes the wedge set quadratic in the corpus.
    ``max_apex_degree`` is the standard hub-capping bound: an apex
    with more than ``cap`` neighbors contributes wedges only among its
    ``cap`` lexicographically-FIRST neighbors (id order == name order,
    so the truncation is deterministic and the DuckDB oracle replays
    it with ``ROW_NUMBER() OVER (PARTITION BY a ORDER BY b) <= cap``).
    Results are exact whenever every degree <= cap; above it, common
    counts through capped hubs are undercounted (never invented) while
    the Jaccard denominator keeps TRUE degrees — the usual trade in
    web-graph link prediction, where hub co-citation carries no
    signal.  With the cap, wedge volume is bounded by
    ``n_nodes * cap^2 / 2`` regardless of skew.

    Plan choice by statistics (same gate as :func:`pagerank`): at or
    under ``small_graph_edges`` input edges the whole computation runs
    vectorized in ONE worker task (:func:`_link_prediction_small`,
    differentially pinned equal on random graphs); above it, the
    distributed wedge plan below.
    """
    from ray.data.aggregate import Count, Min, Sum

    from .kgembed import _lookup_join, dense_rank_ids

    edges_ds = edges_ds.materialize()
    if edges_ds.count() <= small_graph_edges:
        return _link_prediction_small(edges_ds, k, max_apex_degree)

    def both(b: pa.Table) -> pa.Table:
        s = pc.cast(b["src"], pa.string())
        d = pc.cast(b["dst"], pa.string())
        t = pa.concat_tables(
            [pa.table({"a": s, "b": d}), pa.table({"a": d, "b": s})]
        )
        return t.filter(pc.not_equal(t["a"], t["b"]))

    eu = _distinct_pairs(
        edges_ds.map_batches(both, batch_format="pyarrow"), "a", "b"
    ).materialize()
    deg = _sorted_count(eu, "a", "degv").materialize()

    ids = dense_rank_ids(
        deg.map_batches(
            lambda b: pa.table({"term": pc.cast(b["a"], pa.string())}),
            batch_format="pyarrow",
        ),
        "term",
    ).materialize()
    deg_as_ids = deg.map_batches(
        lambda b: pa.table(
            {
                "term": pc.cast(b["a"], pa.string()),
                "id": pc.cast(b["degv"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    # three SMALL exchanges (edge-list volume): a_id, b_id, deg(b)
    eu_ids = _lookup_join(eu, "a", ids, "a_id")
    eu_ids = _lookup_join(eu_ids, "b", ids, "b_id")
    eu_ids = (
        _lookup_join(eu_ids, "b", deg_as_ids, "deg_b")
        .select_columns(["a_id", "b_id", "deg_b"])
        .materialize()
    )

    _SENTINEL = 1 << 62
    pair_schema = pa.schema(
        [("pa", pa.int64()), ("pb", pa.int64()), ("da", pa.int64()),
         ("db", pa.int64()), ("w", pa.int64()), ("m", pa.int64())]
    )

    def wedge_pairs(df):
        # sorted by apex a_id: whole neighbor lists per block; degrees
        # of both pair endpoints ride along from the edge rows
        if len(df) == 0 or "a_id" not in df.columns:
            return pair_schema.empty_table()
        pas, pbs, das, dbs = [], [], [], []
        for _, g in df.groupby("a_id", sort=False):
            bs = g["b_id"].to_numpy(dtype=np.int64)
            ds_ = g["deg_b"].to_numpy(dtype=np.int64)
            order = np.argsort(bs, kind="stable")
            bs, ds_ = bs[order], ds_[order]
            if max_apex_degree is not None and len(bs) > max_apex_degree:
                # hub cap: keep the id-smallest neighbors (id order ==
                # name order -> deterministic, oracle-replayable)
                bs, ds_ = bs[:max_apex_degree], ds_[:max_apex_degree]
            n = len(bs)
            if n < 2:
                continue
            i, j = np.triu_indices(n, 1)
            pas.append(bs[i])
            pbs.append(bs[j])
            das.append(ds_[i])
            dbs.append(ds_[j])
        if not pas:
            return pair_schema.empty_table()
        pa_all = np.concatenate(pas)
        n_all = len(pa_all)
        return pa.table(
            {
                "pa": pa.array(pa_all, pa.int64()),
                "pb": pa.array(np.concatenate(pbs), pa.int64()),
                "da": pa.array(np.concatenate(das), pa.int64()),
                "db": pa.array(np.concatenate(dbs), pa.int64()),
                "w": pa.array(np.ones(n_all, np.int64), pa.int64()),
                "m": pa.array(np.zeros(n_all, np.int64), pa.int64()),
            }
        )

    wedge_rows = exchange(eu_ids, "a_id", wedge_pairs, batch_format="pandas")

    def mark(b: pa.Table) -> pa.Table:
        a_id = pc.cast(b["a_id"], pa.int64())
        b_id = pc.cast(b["b_id"], pa.int64())
        t = pa.table(
            {
                "pa": a_id,
                "pb": b_id,
                "da": pa.array([_SENTINEL] * b.num_rows, pa.int64()),
                "db": pa.array([_SENTINEL] * b.num_rows, pa.int64()),
                "w": pa.array([0] * b.num_rows, pa.int64()),
                "m": pa.array([1] * b.num_rows, pa.int64()),
            }
        )
        return t.filter(pc.less(t["pa"], t["pb"]))

    edge_marks = eu_ids.map_batches(mark, batch_format="pyarrow")

    # barrier between the apex sort and the pair-count exchange
    # (chained all-to-alls thrash); this groupby is the
    # ONE full-wedge-volume exchange of the plan (6 int64 columns)
    counted = sorted_multi_agg(
        wedge_rows.union(edge_marks).materialize(),
        "pa",
        [("pa", pa.int64()), ("pb", pa.int64())],
        [("w", "sum", "common", pa.int64()),
         ("m", "sum", "marked", pa.int64()),
         ("da", "min", "da", pa.int64()),
         ("db", "min", "db", pa.int64())],
    )

    topk_schema = pa.schema(
        [("pa", pa.int64()), ("pb", pa.int64()), ("common", pa.int64()),
         ("jaccard", pa.float64())]
    )

    def block_topk(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(pc.cast(b["marked"], pa.int64()), 0),
            pc.greater(pc.cast(b["common"], pa.int64()), 0),
        )
        b = b.filter(keep)
        if b.num_rows == 0:
            return topk_schema.empty_table()
        common = pc.cast(b["common"], pa.int64()).to_numpy(zero_copy_only=False)
        da = pc.cast(b["da"], pa.int64()).to_numpy(zero_copy_only=False)
        db = pc.cast(b["db"], pa.int64()).to_numpy(zero_copy_only=False)
        jac = common.astype(np.float64) / (da + db - common).astype(np.float64)
        pa_ = pc.cast(b["pa"], pa.int64()).to_numpy(zero_copy_only=False)
        pb_ = pc.cast(b["pb"], pa.int64()).to_numpy(zero_copy_only=False)
        # partial top-k inside the block: lexsort on (jaccard desc,
        # common desc, pa, pb) — keys reversed for np.lexsort
        order = np.lexsort((pb_, pa_, -common, -jac))[: k]
        return pa.table(
            {
                "pa": pa.array(pa_[order], pa.int64()),
                "pb": pa.array(pb_[order], pa.int64()),
                "common": pa.array(common[order], pa.int64()),
                "jaccard": pa.array(jac[order], pa.float64()),
            }
        )

    winners = (
        counted.map_batches(block_topk, batch_format="pyarrow")
        .sort(
            ["jaccard", "common", "pa", "pb"],
            descending=[True, True, False, False],
        )
        .limit(k)
        .take_all()
    )  # <= k rows on the driver — bounded
    want_ids = sorted({r["pa"] for r in winners} | {r["pb"] for r in winners})
    names = {
        int(r["id"]): r["term"]
        for r in ids.map_batches(
            lambda b: pa.table(
                {
                    "term": pc.cast(b["term"], pa.string()),
                    "id": pc.cast(b["id"], pa.int64()),
                }
            ).filter(
                pc.is_in(
                    pc.cast(b["id"], pa.int64()),
                    value_set=pa.array(want_ids, pa.int64()),
                )
            ),
            batch_format="pyarrow",
        ).take_all()
    }
    import ray.data as _rd

    return _rd.from_arrow(
        pa.table(
            {
                "node_a": pa.array(
                    [names[int(r["pa"])] for r in winners], pa.string()
                ),
                "node_b": pa.array(
                    [names[int(r["pb"])] for r in winners], pa.string()
                ),
                "common": pa.array(
                    [int(r["common"]) for r in winners], pa.int64()
                ),
                "jaccard": pa.array(
                    [float(r["jaccard"]) for r in winners], pa.float64()
                ),
            }
        )
    )


def _distinct_pairs(ds, a: str, b: str):
    """Global distinct over a two-string-column dataset via
    ``sorted_unique`` (hash-keyed sort + adjacent-row mask, exact
    collision fallback) — the Aggregate-based distinct costs ~27× more
    at millions-of-groups scale (see ``sorted_multi_agg``)."""

    def add_key(batch: pa.Table) -> pa.Table:
        h = _mix_pair_hashes(
            hash64(pc.cast(batch[a], pa.string()), seed=0).to_numpy(
                zero_copy_only=False
            ),
            hash64(pc.cast(batch[b], pa.string()), seed=1).to_numpy(
                zero_copy_only=False
            ),
        )
        return pa.table(
            {
                a: pc.cast(batch[a], pa.string()),
                b: pc.cast(batch[b], pa.string()),
                "_pairkey": pa.array(h, pa.uint64()),
            }
        )

    return sorted_unique(
        ds.map_batches(add_key, batch_format="pyarrow"),
        [a, b],
        "_pairkey",
    ).select_columns([a, b])


_LP_SCHEMA = pa.schema(
    [("key", pa.string()), ("out", pa.string()), ("lab", pa.string())]
)


def _label_prop_small(edges_ds, iters: int):
    """Single-task min-label propagation fast path — same fixed-round
    contract as the distributed loop (string labels, no early exit)."""

    def kernel(nodes, src, dst):
        n = len(nodes)
        # propagate over string ORDER without string compares per round:
        # rank nodes by name once, propagate integer ranks, map back
        name_arr = nodes.to_numpy()
        order = np.argsort(name_arr)
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[order] = np.arange(n)
        lab = rank_of.copy()
        u = np.concatenate([src, dst])
        v = np.concatenate([dst, src])
        for _ in range(iters):
            relaxed = np.full(n, n, dtype=np.int64)
            np.minimum.at(relaxed, v, lab[u])
            lab = np.minimum(lab, relaxed)
        return {"label": pa.array(name_arr[order[lab]], pa.string())}

    return _single_task_graph(edges_ds, kernel)


def label_propagation(
    edges_ds, iters: int = 8, small_graph_edges: int = SMALL_GRAPH_EDGES
):
    """Connected-component labels by FIXED-ROUND min-label propagation
    over the UNDIRECTED graph: ``label'(v) = min(label(v), min over
    neighbors label(u))``, labels initialized to the node's own name.
    Exact components for every node within ``iters`` hops of its
    component's minimal node (fixed rounds, not convergence-detected,
    so the DuckDB oracle mirrors it bit-exactly — strings only, no
    floats).  Returns ``(node, label)``.

    The near-dup variant (``dedup.neardup_components``) converges
    adaptively on int64 doc ids; this one trades the early exit for an
    exactly SQL-checkable contract over string node ids.  Plan choice
    by edge count, same gate as :func:`pagerank`."""
    from ray.data.aggregate import Min

    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return edges_ds.map_batches(
            lambda b: pa.schema(
                [("node", pa.string()), ("label", pa.string())]
            ).empty_table(),
            batch_format="pyarrow",
        )
    if n_edges <= small_graph_edges:
        return _label_prop_small(edges_ds, iters)
    nodes = _distinct_nodes(edges_ds)
    n_blocks = max(1, nodes.num_blocks())

    def symmetrize(b: pa.Table) -> pa.Table:
        s = pc.cast(b["src"], pa.string())
        d = pc.cast(b["dst"], pa.string())
        return pa.concat_tables(
            [
                pa.table({"key": s, "out": d}),
                pa.table({"key": d, "out": s}),
            ]
        ).append_column("lab", pa.array([None] * (2 * b.num_rows), pa.string()))

    und = edges_ds.map_batches(symmetrize, batch_format="pyarrow").materialize()

    labels = nodes.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "label": pc.cast(b["node"], pa.string()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def scatter_block(df):
        # the shared sorted-block merge core, string payload
        schema = pa.schema([("node", pa.string()), ("cand", pa.string())])
        m = _split_merge(df, ["lab"])
        if m is None:
            return schema.empty_table()
        return pa.table(
            {
                "node": pa.array(m["out"], pa.string()),
                "cand": pa.array(m["lab"], pa.string()),
            }
        )

    for _ in range(iters):
        val_rows = labels.map_batches(
            lambda b: pa.table(
                {
                    "key": pc.cast(b["node"], pa.string()),
                    "out": pa.array([None] * b.num_rows, pa.string()),
                    "lab": pc.cast(b["label"], pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        contribs = exchange(
            und.union(val_rows), "key", scatter_block,
            batch_format="pandas",
        )
        self_rows = labels.map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "cand": pc.cast(b["label"], pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        labels = (
            sorted_multi_agg(
                contribs.union(self_rows), "node", [("node", pa.string())],
                [("cand", "min", "label", pa.string())],
            )
            .repartition(n_blocks)
            .materialize()
        )
    return labels


def directed_min_label(edges_ds, iters: int = 5, reverse: bool = False):
    """Min-label propagation ALONG edge direction (``label'(v) =
    min(label(v), min over in-neighbors label(u))`` — labels flow
    src→dst; ``reverse=True`` flips the flow).  After ``iters`` rounds
    every node carries the lexicographic minimum of its ancestors
    within ``iters`` hops (descendants when reversed).  Same
    sort-colocated scatter-min core as :func:`label_propagation`,
    minus the symmetrize."""
    from ray.data.aggregate import Min

    edges_ds = edges_ds.materialize()
    nodes = _distinct_nodes(edges_ds)
    n_blocks = max(1, nodes.num_blocks())

    def oriented(b: pa.Table) -> pa.Table:
        s = pc.cast(b["src"], pa.string())
        d = pc.cast(b["dst"], pa.string())
        if reverse:
            s, d = d, s
        return pa.table({"key": s, "out": d}).append_column(
            "lab", pa.array([None] * b.num_rows, pa.string())
        )

    direct = edges_ds.map_batches(oriented, batch_format="pyarrow").materialize()

    labels = nodes.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "label": pc.cast(b["node"], pa.string()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def scatter_block(df):
        schema = pa.schema([("node", pa.string()), ("cand", pa.string())])
        m = _split_merge(df, ["lab"])
        if m is None:
            return schema.empty_table()
        return pa.table(
            {
                "node": pa.array(m["out"], pa.string()),
                "cand": pa.array(m["lab"], pa.string()),
            }
        )

    for _ in range(iters):
        val_rows = labels.map_batches(
            lambda b: pa.table(
                {
                    "key": pc.cast(b["node"], pa.string()),
                    "out": pa.array([None] * b.num_rows, pa.string()),
                    "lab": pc.cast(b["label"], pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        contribs = exchange(
            direct.union(val_rows), "key", scatter_block,
            batch_format="pandas",
        )
        self_rows = labels.map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "cand": pc.cast(b["label"], pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        labels = (
            sorted_multi_agg(
                contribs.union(self_rows), "node", [("node", pa.string())],
                [("cand", "min", "label", pa.string())],
            )
            .repartition(n_blocks)
            .materialize()
        )
    return labels


def wl_colors(edges_ds, rounds: int = 1):
    """1-WL (Weisfeiler-Lehman) color refinement over the UNDIRECTED
    simple graph — the graph-fingerprinting / GNN-expressivity
    primitive: labels start as degree strings, and each round every
    node's new color is ``md5(own_label + '|' + comma-join(sorted
    neighbor labels))``.  Deterministic and oracle-reproducible
    (DuckDB ``md5`` + ``string_agg ORDER BY``).  Per round: ONE
    sort-colocated label gather (the label_propagation scatter shape)
    + one node groupby; neighbor multisets never leave their group
    block.  Returns ``(node, wl_color)``."""
    import hashlib

    import pandas as pd
    from ray.data.aggregate import Count

    from ..stages.grouping import grouped_map

    def symmetrize(b: pa.Table) -> pa.Table:
        s = pc.cast(b["src"], pa.string())
        d = pc.cast(b["dst"], pa.string())
        return pa.concat_tables(
            [pa.table({"u": s, "v": d}), pa.table({"u": d, "v": s})]
        )

    und = _distinct_pairs(
        edges_ds.map_batches(symmetrize, batch_format="pyarrow"), "u", "v"
    ).materialize()

    labels = (
        _sorted_count(und, "u", "deg")
        .map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["u"], pa.string()),
                    "label": pc.cast(pc.cast(b["deg"], pa.int64()), pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def gather_block(df):
        schema = pa.schema(
            [("node", pa.string()), ("nlab", pa.string()), ("own", pa.string())]
        )
        m = _split_merge(df, ["lab"])
        if m is None:
            return schema.empty_table()
        return pa.table(
            {
                "node": pa.array(m["out"], pa.string()),
                "nlab": pa.array(m["lab"], pa.string()),
                "own": pa.array([None] * len(m), pa.string()),
            }
        )

    def color(g: pd.DataFrame) -> pd.DataFrame:
        own = g["own"].dropna()
        if len(own) == 0:  # orphan rows: no own label in this group
            return pd.DataFrame({"node": [], "label": []})
        ns = sorted(g["nlab"].dropna())
        h = hashlib.md5(
            (own.iloc[0] + "|" + ",".join(ns)).encode()
        ).hexdigest()
        return pd.DataFrame({"node": [g["node"].iloc[0]], "label": [h]})

    for _ in range(rounds):
        e_rows = und.map_batches(
            lambda b: pa.table(
                {
                    "key": pc.cast(b["v"], pa.string()),
                    "out": pc.cast(b["u"], pa.string()),
                    "lab": pa.nulls(b.num_rows, pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        v_rows = labels.map_batches(
            lambda b: pa.table(
                {
                    "key": pc.cast(b["node"], pa.string()),
                    "out": pa.nulls(b.num_rows, pa.string()),
                    "lab": pc.cast(b["label"], pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        nlabs = exchange(
            e_rows.union(v_rows), "key", gather_block,
            batch_format="pandas",
        )
        own_rows = labels.map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "nlab": pa.nulls(b.num_rows, pa.string()),
                    "own": pc.cast(b["label"], pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        labels = grouped_map(nlabs.union(own_rows), "node", color).materialize()

    return labels.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "wl_color": pc.cast(b["label"], pa.string()),
            }
        ),
        batch_format="pyarrow",
    )


def scc_min_label(edges_ds, iters: int = 5):
    """Strongly connected components by ONE forward-backward min-label
    coloring round (the FW-BW-MIN / Orzan coloring step): ``fwd(v)`` =
    min ancestor label, ``bwd(v)`` = min descendant label, and ``v``
    joins SCC ``m`` iff ``fwd(v) == bwd(v) == m`` (m reaches v AND v
    reaches m); otherwise v is reported as its own singleton.

    EXACTNESS CONTRACT (documented partitioning assumption): exact
    when every weak component's lexicographically-minimal node lies
    inside that component's (unique) cycle core and all cycles span ≤
    ``iters`` hops — the planted-cycle fixtures and bounded redirect
    loops this engine targets.  General digraphs need the recursive
    FW-BW refinement (trim + recurse on the three cut sets), which a
    caller can build by re-invoking this on each residual partition.
    Cost: 2 × iters sort-colocated exchanges of the node-sized label
    vector + one final node groupby — no broadcast, no driver state."""
    from ray.data.aggregate import Min

    fwd = directed_min_label(edges_ds, iters)
    bwd = directed_min_label(edges_ds, iters, reverse=True)

    f_rows = fwd.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "f": pc.cast(b["label"], pa.string()),
                "b": pa.nulls(b.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    b_rows = bwd.map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "f": pa.nulls(b.num_rows, pa.string()),
                "b": pc.cast(b["label"], pa.string()),
            }
        ),
        batch_format="pyarrow",
    )

    def classify(b: pa.Table) -> pa.Table:
        same = pc.equal(b["f"], b["b"])
        scc = pc.if_else(
            pc.fill_null(same, False), b["f"], b["node"]
        )
        return pa.table(
            {
                "node": pc.cast(b["node"], pa.string()),
                "scc_id": pc.cast(scc, pa.string()),
            }
        )

    return sorted_multi_agg(
        f_rows.union(b_rows),
        "node",
        [("node", pa.string())],
        [("f", "min", "f", pa.string()), ("b", "min", "b", pa.string())],
    ).map_batches(classify, batch_format="pyarrow")


_KCORE_SCHEMA = pa.schema([("node", pa.string()), ("degree", pa.int64())])


def _kcore_small(edges_ds, k: int, rounds: int):
    """Single-task peeling fast path (gate-bounded edge set)."""

    def run(b: pa.Table) -> pa.Table:
        import pandas as pd

        cur = pa.table(
            {
                "s": pc.cast(b["src"], pa.string()),
                "d": pc.cast(b["dst"], pa.string()),
            }
        ).to_pandas()
        for _ in range(rounds):
            deg = pd.concat([cur["s"], cur["d"]]).value_counts()
            keep = set(deg[deg >= k].index)
            new = cur[cur["s"].isin(keep) & cur["d"].isin(keep)]
            if len(new) == len(cur):
                break
            cur = new
        if cur.empty:
            return _KCORE_SCHEMA.empty_table()
        deg = pd.concat([cur["s"], cur["d"]]).value_counts()
        return pa.table(
            {
                "node": pa.array(deg.index.astype(object), pa.string()),
                "degree": pa.array(deg.to_numpy(), pa.int64()),
            }
        )

    return edges_ds.repartition(1).map_batches(
        run, batch_format="pyarrow", batch_size=None
    )


def kcore(
    edges_ds,
    k: int = 3,
    rounds: int = 8,
    small_graph_edges: int = SMALL_GRAPH_EDGES,
):
    """k-core decomposition by FIXED-ROUND peeling over the undirected
    graph: each round drops every node whose degree in the surviving
    subgraph is < ``k`` (and its edges); early exit when a round peels
    nothing (identical to running all ``rounds`` — peeling is monotone,
    so a no-change round is the fixpoint).  Returns ``(node, degree)``
    over the surviving subgraph — the classic spam/bot-farm and
    community-density signal on interaction graphs.

    ``edges_ds``: distinct canonical edges (``src`` < ``dst``).  Fixed
    rounds keep the DuckDB oracle mechanical (one CTE pair per round).

    Scale shape: the single-task fast path under the shared
    ``SMALL_GRAPH_EDGES`` gate; above it, each round is one degree
    exchange (map-side partial counts → groupby sum) plus two
    sort-colocated marker semi-joins (src side then dst side) — the
    same co-located marker-gate pattern as the KG-build quarantine, no
    broadcast of the (node-sized) kept set.  Rounds are bounded by
    ``rounds``, not data."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from ..stages.grouping import grouped_map

    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return edges_ds.map_batches(
            lambda b: _KCORE_SCHEMA.empty_table(), batch_format="pyarrow"
        )
    if n_edges <= small_graph_edges:
        return _kcore_small(edges_ds, k, rounds)

    def degree_partials(b: pa.Table) -> pa.Table:
        s = pc.cast(b["src"], pa.string()).to_pandas()
        d = pc.cast(b["dst"], pa.string()).to_pandas()
        vc = pd.concat([s, d]).value_counts()
        return pa.table(
            {
                "node": pa.array(vc.index.astype(object), pa.string()),
                "part": pa.array(vc.to_numpy(), pa.int64()),
            }
        )

    def normalize(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.cast(b["src"], pa.string()),
                "dst": pc.cast(b["dst"], pa.string()),
            }
        )

    cur = edges_ds.map_batches(normalize, batch_format="pyarrow")
    count = n_edges
    for _ in range(rounds):
        degrees = sorted_multi_agg(
            cur.map_batches(degree_partials, batch_format="pyarrow"),
            "node", [("node", pa.string())],
            [("part", "sum", "deg", pa.int64())],
        )
        def marker_rows(b: pa.Table) -> pa.Table:
            keep = pc.filter(
                b["node"],
                pc.greater_equal(
                    pc.cast(b["deg"], pa.int64()), pa.scalar(k, pa.int64())
                ),
            )
            n = len(keep)
            return pa.table(
                {
                    "key": pc.cast(keep, pa.string()),
                    "other": pa.array([None] * n, pa.string()),
                    "is_marker": pa.array([1] * n, pa.int64()),
                }
            )

        kept_markers = degrees.map_batches(
            marker_rows, batch_format="pyarrow"
        ).materialize()

        def semi_join(edge_rows, key_col: str, other_col: str):
            """Keep edge rows whose ``key_col`` node has a marker."""

            def tag(b: pa.Table, key_col=key_col, other_col=other_col) -> pa.Table:
                return pa.table(
                    {
                        "key": b[key_col],
                        "other": b[other_col],
                        "is_marker": pa.array([0] * b.num_rows, pa.int64()),
                    }
                )

            def gate(g: pd.DataFrame) -> pd.DataFrame:
                if g["is_marker"].max() == 0:
                    return pd.DataFrame(
                        {"key": pd.Series([], dtype="object"),
                         "other": pd.Series([], dtype="object")}
                    )
                e = g[g["is_marker"] == 0]
                return e[["key", "other"]]

            return grouped_map(
                edge_rows.map_batches(tag, batch_format="pyarrow").union(
                    kept_markers
                ),
                "key",
                gate,
            )

        by_src = semi_join(cur, "src", "dst").map_batches(
            lambda b: pa.table(
                {
                    "src": pc.cast(b["key"], pa.string()),
                    "dst": pc.cast(b["other"], pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        cur = (
            semi_join(by_src, "dst", "src")
            .map_batches(
                lambda b: pa.table(
                    {
                        "src": pc.cast(b["other"], pa.string()),
                        "dst": pc.cast(b["key"], pa.string()),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        new_count = cur.count()
        if new_count == count:
            break
        count = new_count

    return (
        sorted_multi_agg(
            cur.map_batches(degree_partials, batch_format="pyarrow"),
            "node", [("node", pa.string())],
            [("part", "sum", "degree", pa.int64())],
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "node": pc.cast(b["node"], pa.string()),
                    "degree": pc.cast(b["degree"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def khop_sample(edges_ds, seeds_ds, hops: int = 2, fanout: int = 3):
    """GraphSAGE-style k-hop neighborhood sampling (GNN minibatch
    prep): from each seed, expand ``hops`` rounds taking at most
    ``fanout`` neighbors per expanded node, ranked by the
    deterministic md5 of ``"src:dst"`` — reproducible across runs,
    partitions and the SQL oracle (ROW_NUMBER over md5).  Returns
    distinct (seed, node, hop) rows with hop = the node's FIRST
    discovery depth (min over paths); seeds themselves are excluded.

    Scale shape per hop: one hash join (frontier × edges, keys =
    frontier nodes) and one sort-colocated per-(seed, parent) top-k —
    the fanout cap bounds frontier growth at seeds × fanout^hop.  The
    hub-style hot node costs one group of its degree, capped by the
    same top-k.
    """
    import hashlib

    import pandas as pd

    from ..stages.grouping import grouped_map
    from ..io import shuffle_partitions

    num_partitions = shuffle_partitions()

    def seed_frontier(b: pa.Table) -> pa.Table:
        s = pc.cast(b["seed"], pa.string())
        return pa.table({"seed": s, "node": s})

    frontier = seeds_ds.map_batches(seed_frontier, batch_format="pyarrow")
    collected = []

    for hop in range(1, hops + 1):
        cand = frontier.join(
            edges_ds.map_batches(
                lambda b: pa.table(
                    {
                        "node": pc.cast(b["src"], pa.string()),
                        "dst": pc.cast(b["dst"], pa.string()),
                    }
                ),
                batch_format="pyarrow",
            ),
            join_type="inner",
            on=("node",),
            num_partitions=num_partitions,
            aggregator_ray_remote_args={"num_cpus": 0},  # see io.configure_context
        )

        def keyed(b: pa.Table) -> pa.Table:
            srcs = b["node"].to_pylist()
            dsts = b["dst"].to_pylist()
            keys = [
                hashlib.md5(f"{s}:{d}".encode()).hexdigest()
                for s, d in zip(srcs, dsts)
            ]
            return pa.table(
                {
                    "seed": pc.cast(b["seed"], pa.string()),
                    "parent": pc.cast(b["node"], pa.string()),
                    "node": pc.cast(b["dst"], pa.string()),
                    "key": pa.array(keys, pa.string()),
                }
            )

        def topk(g: pd.DataFrame) -> pd.DataFrame:
            return (
                g.sort_values("key", kind="mergesort")
                .head(fanout)[["seed", "node"]]
                .copy()
            )

        sampled = grouped_map(
            cand.map_batches(keyed, batch_format="pyarrow"),
            ["seed", "parent"],
            topk,
        )
        sampled = sampled.map_batches(
            lambda b, h=hop: b.append_column(
                "hop", pa.array([h] * b.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
        )
        collected.append(sampled)
        # dedup the next frontier: at hop >= 2 two parents can sample
        # the same node for one seed, and a duplicated (seed, parent)
        # group would corrupt the per-group top-k
        from ..stages.materialize import distinct_rows

        frontier = distinct_rows(
            sampled.map_batches(
                lambda b: b.select(["seed", "node"]), batch_format="pyarrow"
            ),
            ["seed", "node"],
        )

    out = collected[0]
    for s in collected[1:]:
        out = out.union(s)

    # distinct (seed, node) keeping min hop; drop the seed itself
    def min_partial(b: pa.Table) -> pa.Table:
        f = b.filter(
            pc.not_equal(
                pc.cast(b["seed"], pa.large_string()),
                pc.cast(b["node"], pa.large_string()),
            )
        )
        g = f.group_by(["seed", "node"]).aggregate([("hop", "min")])
        return pa.table(
            {
                "seed": pc.cast(g["seed"], pa.string()),
                "node": pc.cast(g["node"], pa.string()),
                "hop_part": pc.cast(g["hop_min"], pa.int64()),
            }
        )

    from ray.data.aggregate import Min

    return sorted_multi_agg(
        out.map_batches(min_partial, batch_format="pyarrow"),
        "seed",
        [("seed", pa.string()), ("node", pa.string())],
        [("hop_part", "min", "hop", pa.int64())],
    )


def random_walks(edges_ds, seeds_ds, walk_len: int = 3, walks_per_seed: int = 2):
    """DeepWalk-style random-walk corpus generation: ``walks_per_seed``
    walks of up to ``walk_len`` steps from each seed.  The "random"
    step is the deterministic md5 of ``"node:seed:walk:step:dst"`` —
    rank-1 neighbor under that key — so walks are reproducible across
    runs, partitions and the SQL oracle, while different walk ids and
    steps take different branches.  Dead ends (no outgoing edge) end
    the walk early.  Returns (seed, walk, step, node) rows, step 0 =
    the seed itself.

    Per step: one hash join (frontier × edges) + one sort-colocated
    per-(seed, walk) rank-1 — frontier size is bounded by seeds ×
    walks_per_seed forever (walks never branch).
    """
    import hashlib

    import pandas as pd

    from ..io import shuffle_partitions
    from ..stages.grouping import grouped_map

    num_partitions = shuffle_partitions()

    def seed_rows(b: pa.Table) -> pa.Table:
        s = pc.cast(b["seed"], pa.string())
        tables = [
            pa.table(
                {
                    "seed": s,
                    "walk": pa.array([w] * len(s), pa.int64()),
                    "node": s,
                }
            )
            for w in range(walks_per_seed)
        ]
        return pa.concat_tables(tables)

    frontier = seeds_ds.map_batches(seed_rows, batch_format="pyarrow")

    def with_step(ds, step: int):
        return ds.map_batches(
            lambda b, s=step: b.append_column(
                "step", pa.array([s] * b.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
        )

    collected = [with_step(frontier, 0)]

    for step in range(1, walk_len + 1):
        cand = frontier.join(
            edges_ds.map_batches(
                lambda b: pa.table(
                    {
                        "node": pc.cast(b["src"], pa.string()),
                        "dst": pc.cast(b["dst"], pa.string()),
                    }
                ),
                batch_format="pyarrow",
            ),
            join_type="inner",
            on=("node",),
            num_partitions=num_partitions,
            aggregator_ray_remote_args={"num_cpus": 0},  # see io.configure_context
        )

        def keyed(b: pa.Table, s=step) -> pa.Table:
            nodes = b["node"].to_pylist()
            seeds = b["seed"].to_pylist()
            walks = b["walk"].to_pylist()
            dsts = b["dst"].to_pylist()
            keys = [
                hashlib.md5(f"{n}:{sd}:{w}:{s}:{d}".encode()).hexdigest()
                for n, sd, w, d in zip(nodes, seeds, walks, dsts)
            ]
            return pa.table(
                {
                    "seed": pc.cast(b["seed"], pa.string()),
                    "walk": pc.cast(b["walk"], pa.int64()),
                    "node": pc.cast(b["dst"], pa.string()),
                    "key": pa.array(keys, pa.string()),
                }
            )

        def pick(g: pd.DataFrame) -> pd.DataFrame:
            return (
                g.sort_values("key", kind="mergesort")
                .head(1)[["seed", "walk", "node"]]
                .copy()
            )

        frontier = grouped_map(
            cand.map_batches(keyed, batch_format="pyarrow"),
            ["seed", "walk"],
            pick,
        )
        collected.append(with_step(frontier, step))

    out = collected[0]
    for s in collected[1:]:
        out = out.union(s)
    return out.map_batches(
        lambda b: b.select(["seed", "walk", "step", "node"]),
        batch_format="pyarrow",
    )
