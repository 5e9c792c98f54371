"""Distributed graph-analytics operators (functions/graph.py)."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from argo_ray.functions.graph import pagerank


def _reference_pagerank(edges, iters=5, d=0.85):
    nodes = sorted({s for s, _ in edges} | {t for _, t in edges})
    idx = {n: i for i, n in enumerate(nodes)}
    odeg = {}
    for s, _ in edges:
        odeg[s] = odeg.get(s, 0) + 1
    r = np.full(len(nodes), 1.0 / len(nodes))
    for _ in range(iters):
        nr = np.full(len(nodes), (1.0 - d) / len(nodes))
        for s, t in edges:
            nr[idx[t]] += d * r[idx[s]] / odeg[s]
        r = nr
    return {n: r[idx[n]] for n in nodes}


def test_pagerank_matches_reference_power_iteration(ray_session):
    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("d", "a")]
    ds = rd.from_arrow(
        pa.table(
            {
                "src": [s for s, _ in edges],
                "dst": [t for _, t in edges],
            }
        )
    )
    out = {r["node"]: r["rank"] for r in pagerank(ds, iters=5).take_all()}
    ref = _reference_pagerank(edges, iters=5)
    assert set(out) == set(ref)
    for n in ref:
        assert abs(out[n] - ref[n]) < 1e-12, n


def test_pagerank_dangling_node_absorbs(ray_session):
    # d has no out-edges (dangling): it collects rank but re-emits none
    # — the simple convention drops that mass, so the total is < 1
    ds = rd.from_arrow(pa.table({"src": ["a", "b"], "dst": ["d", "d"]}))
    out = {r["node"]: r["rank"] for r in pagerank(ds, iters=3).take_all()}
    assert set(out) == {"a", "b", "d"}
    assert out["d"] > out["a"] == out["b"]
    assert sum(out.values()) < 1.0


def test_pagerank_empty_graph(ray_session):
    ds = rd.from_arrow(
        pa.table({"src": pa.array([], pa.string()), "dst": pa.array([], pa.string())})
    )
    assert pagerank(ds, iters=2).take_all() == []


def test_hits_matches_reference(ray_session):
    from argo_ray.functions.graph import hits

    E = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("d", "a"), ("d", "c")]
    ds = rd.from_arrow(
        pa.table({"src": [s for s, _ in E], "dst": [t for _, t in E]})
    )
    out = {r["node"]: (r["hub"], r["authority"]) for r in hits(ds, iters=5).take_all()}
    out_dist = {
        r["node"]: (r["hub"], r["authority"])
        for r in hits(ds, iters=5, small_graph_edges=0).take_all()
    }

    nodes = sorted({s for s, _ in E} | {t for _, t in E})
    idx = {n: i for i, n in enumerate(nodes)}
    h = np.ones(len(nodes))
    for _ in range(5):
        a = np.zeros(len(nodes))
        for s, t in E:
            a[idx[t]] += h[idx[s]]
        a = a / np.sqrt((a * a).sum())
        h = np.zeros(len(nodes))
        for s, t in E:
            h[idx[s]] += a[idx[t]]
        h = h / np.sqrt((h * h).sum())

    assert set(out) == set(nodes)
    for n in nodes:
        assert abs(out[n][0] - h[idx[n]]) < 1e-12, n
        assert abs(out[n][1] - a[idx[n]]) < 1e-12, n
        assert abs(out_dist[n][0] - h[idx[n]]) < 1e-12, n
        assert abs(out_dist[n][1] - a[idx[n]]) < 1e-12, n


def test_bfs_distances_chain_and_sentinel(ray_session):
    from argo_ray.functions.graph import BFS_UNREACHED, bfs_distances

    # seed = "a" (lexicographic min); chain a->b->c, isolated pair x->y
    ds = rd.from_arrow(
        pa.table({"src": ["a", "b", "x"], "dst": ["b", "c", "y"]})
    )
    out = {r["node"]: r["dist"] for r in bfs_distances(ds, iters=4).take_all()}
    assert out["a"] == 0 and out["b"] == 1 and out["c"] == 2
    assert out["x"] == BFS_UNREACHED and out["y"] == BFS_UNREACHED

    # iters bounds the horizon: 1 round only relaxes one hop
    out1 = {r["node"]: r["dist"] for r in bfs_distances(ds, iters=1).take_all()}
    assert out1["b"] == 1 and out1["c"] == BFS_UNREACHED

    # explicit seed
    out_x = {
        r["node"]: r["dist"]
        for r in bfs_distances(ds, iters=2, seed="x").take_all()
    }
    assert out_x["x"] == 0 and out_x["y"] == 1 and out_x["a"] == BFS_UNREACHED


def test_label_propagation_components(ray_session):
    from argo_ray.functions.graph import label_propagation

    # two components: {a,b,c} (min label "a") and {x,y} (min "x");
    # direction must not matter (undirected propagation)
    ds = rd.from_arrow(
        pa.table({"src": ["b", "c", "y"], "dst": ["a", "b", "x"]})
    )
    out = {r["node"]: r["label"] for r in label_propagation(ds, iters=4).take_all()}
    assert out == {"a": "a", "b": "a", "c": "a", "x": "x", "y": "x"}

    # fixed rounds bound the reach: a 4-node chain needs 3 rounds to
    # fully converge; 1 round labels only direct neighbors of the min
    chain = rd.from_arrow(
        pa.table({"src": ["a", "b", "c"], "dst": ["b", "c", "d"]})
    )
    one = {r["node"]: r["label"] for r in label_propagation(chain, iters=1).take_all()}
    assert one == {"a": "a", "b": "a", "c": "b", "d": "c"}


def test_graph_ops_match_bruteforce_on_random_graphs(ray_session):
    """Differential check on seeded random graphs: label propagation vs
    union-find components, pagerank vs the dense numpy power
    iteration."""
    from argo_ray.functions.graph import label_propagation, pagerank

    for seed in (0, 1, 2):
        rng = np.random.RandomState(seed)
        n = 12
        names = [f"n{i:02d}" for i in range(n)]
        pairs = {
            (names[a], names[b])
            for a, b in zip(rng.randint(0, n, 30), rng.randint(0, n, 30))
            if a != b
        }
        edges = sorted(pairs)
        ds = rd.from_arrow(
            pa.table(
                {"src": [s for s, _ in edges], "dst": [t for _, t in edges]}
            )
        )

        und = {frozenset(e) for e in edges}
        nodes = sorted({x for e in und for x in e})

        # components: enough fixed rounds (n) to converge any graph of n nodes
        parent = {v: v for v in nodes}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in und:
            a, b = sorted(e)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        expect_lbl = {v: find(v) for v in nodes}
        got_lbl = {
            r["node"]: r["label"]
            for r in label_propagation(ds, iters=n).take_all()
        }
        assert got_lbl == expect_lbl, f"components seed={seed}"
        got_lbl_dist = {
            r["node"]: r["label"]
            for r in label_propagation(ds, iters=n, small_graph_edges=0).take_all()
        }
        assert got_lbl_dist == expect_lbl, f"components-dist seed={seed}"

        # pagerank vs dense reference
        idx = {v: i for i, v in enumerate(nodes)}
        odeg = {}
        for s, _ in edges:
            odeg[s] = odeg.get(s, 0) + 1
        r = np.full(len(nodes), 1.0 / len(nodes))
        for _ in range(4):
            nr = np.full(len(nodes), 0.15 / len(nodes))
            for s, t in edges:
                nr[idx[t]] += 0.85 * r[idx[s]] / odeg[s]
            r = nr
        # both plans (the statistics-gated single-task fast path and
        # the forced distributed exchange loop) must match the dense
        # reference independently
        got_pr = {x["node"]: x["rank"] for x in pagerank(ds, iters=4).take_all()}
        got_dist = {
            x["node"]: x["rank"]
            for x in pagerank(ds, iters=4, small_graph_edges=0).take_all()
        }
        for v in nodes:
            assert abs(got_pr[v] - r[idx[v]]) < 1e-12, f"pagerank seed={seed} {v}"
            assert abs(got_dist[v] - r[idx[v]]) < 1e-12, f"pagerank-dist seed={seed} {v}"


def test_canonicalize_sameas_chain_merge(ray_session):
    """A 3-IRI sameAs chain (a=b, b=c) must collapse all three aliases'
    facts onto the minimal IRI; unlinked entities and literals are
    untouched; duplicate facts asserted under merged aliases dedup."""
    from argo_ray.stages.canon import canonicalize_sameas
    from argo_ray.terms import TRIPLE_COLUMNS

    A, B, C, Z = "http://x/a", "http://x/b", "http://x/c", "http://x/z"
    P = "http://x/p"

    def trip(s, o, okind=0):
        return {
            "subj_kind": 0, "subj_value": s, "subj_lang": "", "subj_datatype": "",
            "pred_kind": 0, "pred_value": P, "pred_lang": "", "pred_datatype": "",
            "obj_kind": okind, "obj_value": o, "obj_lang": "", "obj_datatype": "",
        }

    rows = [
        trip(A, "v", okind=2),   # literal object: value never rewritten
        trip(B, "v", okind=2),   # same fact under alias b → collapses
        trip(C, Z),              # IRI object z unlinked, subject c → a
        trip(Z, B),              # object b → a
    ]
    tbl = pa.table({k: [r[k] for r in rows] for k in TRIPLE_COLUMNS})
    tbl = tbl.set_column(0, "subj_kind", pa.array([0, 0, 0, 0], pa.uint8())) \
             .set_column(4, "pred_kind", pa.array([0] * 4, pa.uint8())) \
             .set_column(8, "obj_kind", pa.array([2, 2, 0, 0], pa.uint8()))
    triples = rd.from_arrow(tbl)
    sameas = rd.from_arrow(pa.table({"src": [A, B], "dst": [B, C]}))

    out = canonicalize_sameas(triples, sameas, iters=4)
    got = sorted(
        (r["subj_value"], r["obj_value"], r["obj_kind"])
        for r in out.take_all()
    )
    assert got == sorted(
        [(A, "v", 2), (A, Z, 0), (Z, A, 0)]
    )


def test_rdfs_infer_closure_composition(ray_session):
    """subPropertyOf chain p < q < r where r carries the domain and a
    2-level class chain above it: one pass must still reach the
    fixpoint (closures pre-composed), and rdfs3 must skip literal
    objects."""
    from argo_ray.stages.reason import RDF_TYPE, RDFS_NS, rdfs_infer
    from argo_ray.terms import TRIPLE_COLUMNS

    X = "http://x/"
    schema = pa.table(
        {
            "s": [X + "p", X + "q", X + "A", X + "r", X + "r"],
            "p": [
                RDFS_NS + "subPropertyOf",
                RDFS_NS + "subPropertyOf",
                RDFS_NS + "subClassOf",
                RDFS_NS + "domain",
                RDFS_NS + "range",
            ],
            "o": [X + "q", X + "r", X + "B", X + "A", X + "A"],
        }
    )

    def trip(s, p, o, okind):
        return {
            "subj_kind": 0, "subj_value": s, "subj_lang": "", "subj_datatype": "",
            "pred_kind": 0, "pred_value": p, "pred_lang": "", "pred_datatype": "",
            "obj_kind": okind, "obj_value": o, "obj_lang": "", "obj_datatype": "",
        }

    rows = [trip(X + "s1", X + "p", X + "o1", 0), trip(X + "s2", X + "p", "lit", 2)]
    tbl = pa.table({k: [r[k] for r in rows] for k in TRIPLE_COLUMNS})
    out = rdfs_infer(rd.from_arrow(tbl), schema)
    got = {
        (r["subj_value"], r["pred_value"], r["obj_value"]) for r in out.take_all()
    }
    # asserted + lifted to q and r; s1/s2 typed A and B (domain of r via
    # chain, class closure); o1 typed A and B (range, non-literal only)
    expect = {
        (X + "s1", X + "p", X + "o1"), (X + "s2", X + "p", "lit"),
        (X + "s1", X + "q", X + "o1"), (X + "s2", X + "q", "lit"),
        (X + "s1", X + "r", X + "o1"), (X + "s2", X + "r", "lit"),
        (X + "s1", RDF_TYPE, X + "A"), (X + "s1", RDF_TYPE, X + "B"),
        (X + "s2", RDF_TYPE, X + "A"), (X + "s2", RDF_TYPE, X + "B"),
        (X + "o1", RDF_TYPE, X + "A"), (X + "o1", RDF_TYPE, X + "B"),
    }
    assert got == expect


def test_owl_infer_property_rules(ray_session):
    """prp-inv / prp-symp / prp-trp / prp-spo2 over a toy graph: chain
    a→b→c→d transitive, knows symmetric, cites/citedBy inverse, and a
    length-2 chain citesSite = cites ∘ site; the final inv/sym pass
    must flip the closure- and chain-derived edges too."""
    from argo_ray.stages.reason import (
        OWL_CHAIN,
        OWL_INVERSE,
        OWL_SYMMETRIC,
        OWL_TRANSITIVE,
        RDF_FIRST,
        RDF_NIL,
        RDF_REST,
        RDF_TYPE,
        owl_infer,
    )
    from argo_ray.terms import TRIPLE_COLUMNS

    X = "http://x/"
    schema = pa.table(
        {
            "s": [X + "cites", X + "knows", X + "next",
                  X + "citesSite", "_:c1", "_:c1", "_:c2", "_:c2",
                  X + "citesSite"],
            "p": [OWL_INVERSE, RDF_TYPE, RDF_TYPE,
                  OWL_CHAIN, RDF_FIRST, RDF_REST, RDF_FIRST, RDF_REST,
                  OWL_INVERSE],
            "o": [X + "citedBy", OWL_SYMMETRIC, OWL_TRANSITIVE,
                  "_:c1", X + "cites", "_:c2", X + "site", RDF_NIL,
                  X + "siteCited"],
        }
    )

    def trip(s, p, o, okind=0):
        return {
            "subj_kind": 0, "subj_value": s, "subj_lang": "", "subj_datatype": "",
            "pred_kind": 0, "pred_value": p, "pred_lang": "", "pred_datatype": "",
            "obj_kind": okind, "obj_value": o, "obj_lang": "", "obj_datatype": "",
        }

    rows = [
        trip(X + "a", X + "next", X + "b"),
        trip(X + "b", X + "next", X + "c"),
        trip(X + "c", X + "next", X + "d"),
        trip(X + "u", X + "knows", X + "v"),
        trip(X + "u", X + "knows", "litname", okind=2),  # literal: never flipped
        trip(X + "h", X + "cites", X + "doc"),
        trip(X + "doc", X + "site", X + "s1"),
    ]
    tbl = pa.table({k: [r[k] for r in rows] for k in TRIPLE_COLUMNS})
    out = owl_infer(rd.from_arrow(tbl), schema)
    got = {
        (r["subj_value"], r["pred_value"], r["obj_value"]) for r in out.take_all()
    }
    expect = {(r["subj_value"], r["pred_value"], r["obj_value"]) for r in rows} | {
        # transitive closure of next
        (X + "a", X + "next", X + "c"),
        (X + "a", X + "next", X + "d"),
        (X + "b", X + "next", X + "d"),
        # symmetric knows (literal object NOT flipped)
        (X + "v", X + "knows", X + "u"),
        # inverse of cites
        (X + "doc", X + "citedBy", X + "h"),
        # chain: citesSite = cites ∘ site, and ITS inverse (final pass)
        (X + "h", X + "citesSite", X + "s1"),
        (X + "s1", X + "siteCited", X + "h"),
    }
    assert got == expect
    assert out.count() == len(expect)  # exact-deduped


def test_owl_infer_distributed_closure_matches(ray_session):
    """Force the distributed closure path (gate=0) on a random sparse
    graph and pin it equal to the single-task path."""
    from argo_ray.stages.reason import RDF_TYPE, OWL_TRANSITIVE, owl_infer
    from argo_ray.terms import TRIPLE_COLUMNS

    X = "http://x/"
    rng = np.random.RandomState(11)
    n = 40
    edges = {(int(a), int(b)) for a, b in rng.randint(0, n, size=(60, 2)) if a != b}
    rows = []
    for a, b in sorted(edges):
        rows.append({
            "subj_kind": 0, "subj_value": f"{X}n{a}", "subj_lang": "", "subj_datatype": "",
            "pred_kind": 0, "pred_value": X + "r", "pred_lang": "", "pred_datatype": "",
            "obj_kind": 0, "obj_value": f"{X}n{b}", "obj_lang": "", "obj_datatype": "",
        })
    tbl = pa.table({k: [r[k] for r in rows] for k in TRIPLE_COLUMNS})
    schema = pa.table({"s": [X + "r"], "p": [RDF_TYPE], "o": [OWL_TRANSITIVE]})

    def triple_set(ds):
        return {
            (r["subj_value"], r["pred_value"], r["obj_value"])
            for r in ds.take_all()
        }

    small = triple_set(owl_infer(rd.from_arrow(tbl), schema))
    dist = triple_set(
        owl_infer(rd.from_arrow(tbl), schema, small_graph_edges=0, max_rounds=64)
    )
    assert small == dist
    assert len(small) > len(rows)  # the closure actually added edges


def test_kcore_peeling_and_distributed_parity(ray_session):
    """kcore: (a) pins fixed-round peeling against a naive reference
    loop on a random graph; (b) forces the distributed marker-semi-join
    path (gate=0) and pins it equal to the single-task path."""
    import pandas as pd

    from argo_ray.functions.graph import kcore

    rng = np.random.RandomState(7)
    n = 60
    raw = {(int(a), int(b)) for a, b in rng.randint(0, n, size=(150, 2)) if a != b}
    canon = sorted({(min(a, b), max(a, b)) for a, b in raw})
    edges = pa.table(
        {
            "src": pa.array([f"n{a:03d}" for a, _ in canon], pa.string()),
            "dst": pa.array([f"n{b:03d}" for _, b in canon], pa.string()),
        }
    )
    k = 3

    # naive reference peeling to fixpoint
    cur = pd.DataFrame({"s": edges["src"].to_pylist(), "d": edges["dst"].to_pylist()})
    while True:
        deg = pd.concat([cur["s"], cur["d"]]).value_counts()
        keep = set(deg[deg >= k].index)
        new = cur[cur["s"].isin(keep) & cur["d"].isin(keep)]
        if len(new) == len(cur):
            break
        cur = new
    deg = pd.concat([cur["s"], cur["d"]]).value_counts()
    expect = {(node, int(c)) for node, c in deg.items()}
    assert expect  # fixture has a non-empty 3-core

    def result_set(ds):
        return {(r["node"], int(r["degree"])) for r in ds.take_all()}

    small = result_set(kcore(rd.from_arrow(edges), k=k, rounds=16))
    assert small == expect
    dist = result_set(
        kcore(rd.from_arrow(edges), k=k, rounds=16, small_graph_edges=0)
    )
    assert dist == expect


def test_dense_rank_ids_sorted_contiguous(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from argo_ray.functions.kgembed import dense_rank_ids

    ds = rd.from_arrow(pa.table({"term": ["c", "a", "b", "d"]}))
    out = {r["term"]: r["id"] for r in dense_rank_ids(ds, "term").take_all()}
    assert out == {"a": 0, "b": 1, "c": 2, "d": 3}


def test_edge_negatives_never_true_tail(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from argo_ray.functions.kgembed import edge_negatives

    edges = rd.from_arrow(
        pa.table(
            {
                "h_id": [0, 1, 2, 0],
                "r_id": [0, 0, 1, 1],
                "t_id": [1, 2, 0, 2],
            }
        )
    )
    rows = edge_negatives(edges).take_all()
    assert len(rows) == 4
    for r in rows:
        assert 0 <= r["neg_t_id"] < 3
        assert r["neg_t_id"] != r["t_id"]
    # determinism: a second run draws identical negatives
    rows2 = edge_negatives(edges).take_all()
    key = lambda r: (r["h_id"], r["r_id"], r["t_id"])  # noqa: E731
    assert sorted(rows, key=key) == sorted(rows2, key=key)


def test_ppr_and_multisource_bfs_match_bruteforce(ray_session):
    """Differential check for the seeded variants on the same random
    graphs: personalized pagerank vs the dense teleport iteration,
    multi-source BFS vs per-seed Dijkstra-free hop relaxation."""
    from argo_ray.functions.graph import BFS_UNREACHED, bfs_distances, pagerank

    for seed in (0, 1):
        rng = np.random.RandomState(seed)
        n = 12
        names = [f"n{i:02d}" for i in range(n)]
        pairs = {
            (names[a], names[b])
            for a, b in zip(rng.randint(0, n, 30), rng.randint(0, n, 30))
            if a != b
        }
        edges = sorted(pairs)
        ds = rd.from_arrow(
            pa.table(
                {"src": [s for s, _ in edges], "dst": [t for _, t in edges]}
            )
        )
        nodes = sorted({x for e in edges for x in e})
        seeds = nodes[::4]
        idx = {v: i for i, v in enumerate(nodes)}

        # PPR dense reference
        odeg = {}
        for s, _ in edges:
            odeg[s] = odeg.get(s, 0) + 1
        t = np.zeros(len(nodes))
        for v in seeds:
            t[idx[v]] = 1.0 / len(seeds)
        r = t.copy()
        for _ in range(4):
            nr = 0.15 * t.copy()
            for s, d in edges:
                nr[idx[d]] += 0.85 * r[idx[s]] / odeg[s]
            r = nr
        got = {
            x["node"]: x["rank"]
            for x in pagerank(ds, iters=4, teleport_nodes=seeds).take_all()
        }
        got_dist = {
            x["node"]: x["rank"]
            for x in pagerank(
                ds, iters=4, teleport_nodes=seeds, small_graph_edges=0
            ).take_all()
        }
        for v in nodes:
            assert abs(got[v] - r[idx[v]]) < 1e-12, f"ppr seed={seed} {v}"
            assert abs(got_dist[v] - r[idx[v]]) < 1e-12, f"ppr-dist seed={seed} {v}"

        # multi-source BFS reference: iterative relaxation over in-edges
        dist = {v: (0 if v in set(seeds) else BFS_UNREACHED) for v in nodes}
        for _ in range(4):
            nd = dict(dist)
            for s, d in edges:
                nd[d] = min(nd[d], dist[s] + 1)
            dist = nd
        got_d = {
            x["node"]: x["dist"]
            for x in bfs_distances(ds, iters=4, seeds=seeds).take_all()
        }
        assert got_d == dist, f"msbfs seed={seed}"
        got_d_dist = {
            x["node"]: x["dist"]
            for x in bfs_distances(
                ds, iters=4, seeds=seeds, small_graph_edges=0
            ).take_all()
        }
        assert got_d_dist == dist, f"msbfs-dist seed={seed}"


def test_canonicalize_sameas_join_path_matches_broadcast(ray_session):
    """mode="join" (the no-broadcast sort-colocation rewrite for
    mappings too large to ship via ray.put) must produce exactly the
    broadcast path's output, schema included."""
    from argo_ray.stages.canon import canonicalize_sameas
    from argo_ray.terms import TRIPLE_COLUMNS

    A, B, C, Z = "http://x/a", "http://x/b", "http://x/c", "http://x/z"
    P = "http://x/p"

    def trip(s, o, okind=0):
        return {
            "subj_kind": 0, "subj_value": s, "subj_lang": "", "subj_datatype": "",
            "pred_kind": 0, "pred_value": P, "pred_lang": "", "pred_datatype": "",
            "obj_kind": okind, "obj_value": o, "obj_lang": "", "obj_datatype": "",
        }

    rows = [
        trip(A, "v", okind=2),
        trip(B, "v", okind=2),
        trip(C, Z),
        trip(Z, B),
        trip(Z, "http://x/a", okind=2),  # literal that LOOKS like a mapped IRI: untouched
    ]
    tbl = pa.table({k: [r[k] for r in rows] for k in TRIPLE_COLUMNS})
    tbl = tbl.set_column(0, "subj_kind", pa.array([0] * 5, pa.uint8())) \
             .set_column(4, "pred_kind", pa.array([0] * 5, pa.uint8())) \
             .set_column(8, "obj_kind", pa.array([2, 2, 0, 0, 2], pa.uint8()))
    sameas_tbl = pa.table({"src": [A, B], "dst": [B, C]})

    outs = {}
    for mode in ("broadcast", "join"):
        out = canonicalize_sameas(
            rd.from_arrow(tbl), rd.from_arrow(sameas_tbl), iters=4, mode=mode
        )
        outs[mode] = sorted(
            tuple(r[k] for k in TRIPLE_COLUMNS) for r in out.take_all()
        )
        assert set(out.schema().names) >= set(TRIPLE_COLUMNS)
    assert outs["join"] == outs["broadcast"]
    # the chain still collapsed and the IRI-shaped literal survived
    subj_obj = {(r[1], r[9], r[8]) for r in outs["join"]}
    assert (Z, "http://x/a", 2) in subj_obj


def test_link_prediction_jaccard_matches_bruteforce(ray_session):
    """Differential check on seeded random graphs: top-k neighborhood-
    Jaccard pairs vs an itertools brute force (adjacency sets, exact
    integer counts, identical (jaccard desc, common desc, ids)
    ranking)."""
    import itertools

    from argo_ray.functions.graph import link_prediction_jaccard

    for seed in (0, 3):
        rng = np.random.RandomState(seed)
        n = 14
        names = [f"n{i:02d}" for i in range(n)]
        pairs = {
            (names[a], names[b])
            for a, b in zip(rng.randint(0, n, 40), rng.randint(0, n, 40))
            if a != b
        }
        edges = sorted(pairs)
        ds = rd.from_arrow(
            pa.table(
                {"src": [s for s, _ in edges], "dst": [t for _, t in edges]}
            )
        )
        adj: dict[str, set[str]] = {}
        for s, t in edges:
            adj.setdefault(s, set()).add(t)
            adj.setdefault(t, set()).add(s)
        want = []
        for a, b in itertools.combinations(sorted(adj), 2):
            if b in adj[a]:
                continue
            common = len(adj[a] & adj[b])
            if common == 0:
                continue
            union = len(adj[a]) + len(adj[b]) - common
            want.append((a, b, common, common / union))
        want.sort(key=lambda r: (-r[3], -r[2], r[0], r[1]))
        want = want[:10]

        # both plans: statistics-gated single-task fast path AND the
        # forced distributed wedge plan must match the brute force
        for gate in (None, 0):
            kw = {} if gate is None else {"small_graph_edges": 0}
            got = link_prediction_jaccard(ds, k=10, **kw).to_pandas()
            got_rows = [
                (r.node_a, r.node_b, int(r.common), float(r.jaccard))
                for r in got.itertuples()
            ]
            assert got_rows == want, (seed, gate)


def test_link_prediction_hub_cap_both_plans(ray_session):
    """max_apex_degree truncates each apex's neighbor list to the
    lexicographically-first cap entries in BOTH plans: hub h connects
    to every spoke, so with cap=3 only spokes s00..s02 share h-wedges;
    true degrees still feed the Jaccard denominator."""
    import itertools

    from argo_ray.functions.graph import link_prediction_jaccard

    n_spokes = 6
    spokes = [f"s{i:02d}" for i in range(n_spokes)]
    edges = [("hub", s) for s in spokes] + [("s00", "s01"), ("s02", "s03")]
    ds = rd.from_arrow(
        pa.table({"src": [s for s, _ in edges], "dst": [t for _, t in edges]})
    )

    cap = 3
    adj: dict[str, set[str]] = {}
    for s, t in edges:
        adj.setdefault(s, set()).add(t)
        adj.setdefault(t, set()).add(s)
    capped = {a: set(sorted(nb)[:cap]) for a, nb in adj.items()}
    # wedge counts through capped neighbor lists only
    from collections import Counter

    commons: Counter = Counter()
    for z, nb in capped.items():
        for a, b in itertools.combinations(sorted(nb), 2):
            commons[(a, b)] += 1
    want = []
    for (a, b), common in commons.items():
        if b in adj[a]:
            continue
        union = len(adj[a]) + len(adj[b]) - common
        want.append((a, b, common, common / union))
    want.sort(key=lambda r: (-r[3], -r[2], r[0], r[1]))
    want = want[:10]

    for gate_kw in ({}, {"small_graph_edges": 0}):
        got = link_prediction_jaccard(
            ds, k=10, max_apex_degree=cap, **gate_kw
        ).to_pandas()
        got_rows = [
            (r.node_a, r.node_b, int(r.common), float(r.jaccard))
            for r in got.itertuples()
        ]
        assert got_rows == want, gate_kw


def test_sssp_weighted_matches_reference(ray_session):
    """Differential check on seeded random weighted digraphs: both
    plans (single-task fast path, forced-distributed additive-min
    scatter) must match a dense Bellman-Ford reference, including the
    reached-only output contract."""
    from argo_ray.functions.graph import BFS_UNREACHED, sssp_weighted

    for seed in (1, 4):
        rng = np.random.RandomState(seed)
        n = 12
        names = [f"v{i:02d}" for i in range(n)]
        rows = {
            (names[a], names[b], int(w))
            for a, b, w in zip(
                rng.randint(0, n, 30), rng.randint(0, n, 30), rng.randint(1, 9, 30)
            )
            if a != b
        }
        # one weight per (src, dst): keep the smallest (deterministic)
        best: dict[tuple, int] = {}
        for s, t, w in sorted(rows):
            best.setdefault((s, t), w)
        edges = [(s, t, w) for (s, t), w in sorted(best.items())]
        ds = rd.from_arrow(
            pa.table(
                {
                    "src": [e[0] for e in edges],
                    "dst": [e[1] for e in edges],
                    "w": pa.array([e[2] for e in edges], pa.int64()),
                }
            )
        )
        iters = 4
        src0 = names[0]
        dist = {v: BFS_UNREACHED for v in names}
        dist[src0] = 0
        for _ in range(iters):
            nd = dict(dist)
            for s, t, w in edges:
                nd[t] = min(nd[t], dist[s] + w)
            dist = {v: min(d, BFS_UNREACHED) for v, d in nd.items()}
        want = {v: d for v, d in dist.items() if d < BFS_UNREACHED}
        # nodes with no edges never appear in the Dataset's node set
        seen = {e[0] for e in edges} | {e[1] for e in edges}
        want = {v: d for v, d in want.items() if v in seen}

        for kw in ({}, {"small_graph_edges": 0}):
            got = {
                r["node"]: r["dist"]
                for r in sssp_weighted(ds, iters=iters, seed=src0, **kw).take_all()
            }
            assert got == want, (seed, kw)


def test_pagerank_weighted_matches_reference(ray_session):
    """Weighted PageRank: both plans (single-task weighted kernel,
    forced-distributed KV loop) must match a dense reference computing
    the identical two-division contribution rank(u) / (outw(u)/w)."""
    from argo_ray.functions.graph import pagerank

    for seed in (2, 5):
        rng = np.random.RandomState(seed)
        n = 10
        names = [f"w{i:02d}" for i in range(n)]
        best: dict[tuple, int] = {}
        for a, b, w in zip(
            rng.randint(0, n, 25), rng.randint(0, n, 25), rng.randint(1, 7, 25)
        ):
            if a != b:
                best.setdefault((names[a], names[b]), int(w))
        edges = [(s, t, w) for (s, t), w in sorted(best.items())]
        ds = rd.from_arrow(
            pa.table(
                {
                    "src": [e[0] for e in edges],
                    "dst": [e[1] for e in edges],
                    "w": pa.array([e[2] for e in edges], pa.int64()),
                }
            )
        )
        nodes = sorted({e[0] for e in edges} | {e[1] for e in edges})
        idx = {v: i for i, v in enumerate(nodes)}
        outw = {}
        for s, _, w in edges:
            outw[s] = outw.get(s, 0.0) + float(w)
        r = np.full(len(nodes), 1.0 / len(nodes))
        for _ in range(4):
            nr = np.full(len(nodes), 0.15 / len(nodes))
            for s, t, w in edges:
                nr[idx[t]] += 0.85 * (r[idx[s]] / (outw[s] / w))
            r = nr
        for kw in ({}, {"small_graph_edges": 0}):
            got = {
                x["node"]: x["rank"]
                for x in pagerank(ds, iters=4, weight_col="w", **kw).take_all()
            }
            for v in nodes:
                assert abs(got[v] - r[idx[v]]) < 1e-9, (seed, kw, v)


def test_scc_min_label_cycles_and_tails(ray_session):
    """Two disjoint cycles (sizes 3 and 2), one dangling tail and one
    pure chain — cycle members share the lexicographic min, everything
    acyclic comes out a singleton."""
    import pyarrow as pa
    import ray.data as rd

    from argo_ray.functions.graph import scc_min_label

    edges = pa.table(
        {
            "src": ["a", "b", "c", "p", "q", "c", "x"],
            "dst": ["b", "c", "a", "q", "p", "t", "y"],
        }
    )
    got = {
        r["node"]: r["scc_id"]
        for r in scc_min_label(rd.from_arrow(edges), iters=4).take_all()
    }
    assert got == {
        "a": "a", "b": "a", "c": "a",
        "p": "p", "q": "p",
        "t": "t",          # dangling off cycle "a": singleton
        "x": "x", "y": "y",  # pure chain: two singletons
    }


def test_wl_colors_distinguishes_structure(ray_session):
    """Path a-b-c vs triangle x-y-z: the two degree-2 path ends and
    the middle differ; all triangle corners share one color; 2-round
    refinement keeps the partition stable."""
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from argo_ray.functions.graph import wl_colors

    edges = pa.table(
        {
            "src": ["a", "b", "x", "y", "z"],
            "dst": ["b", "c", "y", "z", "x"],
        }
    )
    got = {
        r["node"]: r["wl_color"]
        for r in wl_colors(rd.from_arrow(edges), rounds=1).take_all()
    }
    # path ends: deg 1, one deg-2 neighbor; middle: deg 2, two deg-1
    assert got["a"] == got["c"] != got["b"]
    # triangle corners: deg 2, neighbors deg 2,2 — all alike
    assert got["x"] == got["y"] == got["z"]
    assert got["x"] == hashlib.md5(b"2|2,2").hexdigest()
    assert got["b"] != got["x"]
