"""Web link-graph extraction: anchor parsing, host aggregation,
poison-byte quarantine (same contract as every batch parser)."""

import pyarrow as pa
import pyarrow.compute as pc

from argo_ray.functions.weblinks import (
    extract_links_batch,
    host_graph,
    link_graph,
    url_host,
)


def _pages(urls, htmls):
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "html": pa.array(
                [h if h is None else h.encode() if isinstance(h, str) else h for h in htmls],
                pa.binary(),
            ),
        }
    )


def test_extract_links_basic():
    b = _pages(
        ["https://a.example/x"],
        ['<html><a href="https://b.example/">B site</a>'
         '<p>no link</p><a rel="x" href="/rel">rel</a></html>'],
    )
    out = extract_links_batch(b)
    rows = list(zip(out["src_url"].to_pylist(), out["dst_url"].to_pylist(),
                    out["anchor"].to_pylist()))
    assert rows == [
        ("https://a.example/x", "https://b.example/", "B site"),
        ("https://a.example/x", "/rel", "rel"),
    ]


def test_extract_links_ignores_non_anchor_href():
    # href inside <link> must not match (the anchored regex only sees
    # text after "<a ")
    b = _pages(
        ["https://a.example/"],
        ['<head><link href="https://css.example/x.css"></head><body></body>'],
    )
    assert extract_links_batch(b).num_rows == 0


def test_poison_bytes_quarantine():
    bad = b"\xff\xfe\x00garbage<a href=\"u\">t</a>"
    b = _pages(
        ["https://ok.example/", "https://bad.example/", "https://null.example/"],
        ['<a href="https://d.example/">d</a>', bad, None],
    )
    out = extract_links_batch(b)  # must not raise
    srcs = set(out["src_url"].to_pylist())
    assert "https://ok.example/" in srcs
    # the poisoned page may or may not yield its anchor after lenient
    # decode, but nothing crashes and the null page yields nothing
    assert "https://null.example/" not in srcs


def test_url_host():
    got = url_host(
        pa.array(
            ["https://x.example.org/a/b", "http://y.org", "/relative", None],
            pa.string(),
        )
    )
    assert got.to_pylist() == ["x.example.org", "y.org", None, None]


def test_host_graph_counts(ray_session):
    import ray.data as rd

    b = _pages(
        ["https://a.example/1", "https://a.example/2", "https://b.example/1"],
        [
            '<a href="https://t.example/">x</a><a href="https://t.example/p">y</a>',
            '<a href="https://t.example/">z</a><a href="/rel">r</a>',
            '<a href="https://u.example/">w</a>',
        ],
    )
    out = {
        (r["src_host"], r["dst_host"]): r["n_links"]
        for r in host_graph(rd.from_arrow(b)).take_all()
    }
    # relative href has no host -> dropped
    assert out == {
        ("a.example", "t.example"): 3,
        ("b.example", "u.example"): 1,
    }


def test_link_graph_over_synth_pages(ray_session):
    from argo_ray.pages import pages_dataset

    links = link_graph(pages_dataset("/root/testdata/sf0.001"))
    t = pa.Table.from_pandas(links.to_pandas())
    # every page emits exactly its site + hub anchors
    assert t.num_rows == 1000
    anchors = pc.value_counts(t["anchor"]).to_pylist()
    assert {d["values"]: d["counts"] for d in anchors} == {"site": 500, "hub": 500}


def test_resolve_redirects_pointer_doubling(ray_session):
    import ray.data as rd

    from argo_ray.functions.weblinks import resolve_redirects

    # chain a->b->c->d (3 hops), singleton x->y
    m = rd.from_arrow(
        pa.table(
            {
                "src": ["a", "b", "c", "x"],
                "dst": ["b", "c", "d", "y"],
            }
        )
    )
    out = {r["src"]: r["dst"] for r in resolve_redirects(m, rounds=2).take_all()}
    assert out == {"a": "d", "b": "d", "c": "d", "x": "y"}

    # 1 round only doubles once: a reaches c (m(m(a))), not d
    out1 = {r["src"]: r["dst"] for r in resolve_redirects(m, rounds=1).take_all()}
    assert out1["a"] == "c" and out1["c"] == "d"

    # a 2-cycle never diverges: bounded rounds terminate deterministically
    cyc = rd.from_arrow(pa.table({"src": ["p", "q"], "dst": ["q", "p"]}))
    outc = {r["src"]: r["dst"] for r in resolve_redirects(cyc, rounds=3).take_all()}
    assert set(outc) == {"p", "q"} and set(outc.values()) <= {"p", "q"}


def test_robots_filter_longest_match(ray_session):
    import ray.data as rd

    from argo_ray.functions.weblinks import robots_filter

    pages = pa.table(
        {
            "url": [
                "https://h.example/a/1",      # disallow /a
                "https://h.example/ab/2",     # /ab allow (longer than /a)
                "https://h.example/b/3",      # no rule -> allowed
                "https://other.example/a/4",  # other host -> allowed
                "https://h.example/tie/5",    # equal-length tie -> allow wins
            ],
            "html": pa.array([b""] * 5, pa.binary()),
        }
    )
    rules = {
        "h.example": [
            ("disallow", "/a"),
            ("allow", "/ab"),
            ("disallow", "/tie"),
            ("allow", "/tie"),
        ]
    }
    got = sorted(
        r["url"] for r in robots_filter(rd.from_arrow(pages), rules).take_all()
    )
    assert got == [
        "https://h.example/ab/2",
        "https://h.example/b/3",
        "https://h.example/tie/5",
        "https://other.example/a/4",
    ]


def test_resolve_redirects_random_forests(ray_session):
    """Differential: on random acyclic pointer maps (every node points
    to a smaller index), k pointer-doubling rounds must equal the same
    recurrence computed in plain Python."""
    import numpy as np
    import ray.data as rd

    from argo_ray.functions.weblinks import resolve_redirects

    for seed in (0, 7):
        rng = np.random.RandomState(seed)
        n = 40
        srcs = list(range(1, n))
        dsts = [int(rng.randint(0, s)) for s in srcs]  # strictly smaller
        names = [f"u{i:03d}" for i in range(n)]
        m = {names[s]: names[d] for s, d in zip(srcs, dsts)}
        ds = rd.from_arrow(
            pa.table(
                {"src": list(m.keys()), "dst": list(m.values())}
            )
        )
        for rounds in (1, 2, 3):
            ref = dict(m)
            for _ in range(rounds):
                ref = {u: ref.get(v, v) for u, v in ref.items()}
            got = {
                r["src"]: r["dst"]
                for r in resolve_redirects(ds, rounds=rounds).take_all()
            }
            assert got == ref, (seed, rounds)
