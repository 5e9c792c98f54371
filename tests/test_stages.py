"""Unit tests for filter / rewrite / split-prefix / coercion stages and
the grouping exchanges."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from argo_ray.stages.canon import (
    RewriteRule,
    coerce_literals_batch,
    go_template_to_re2,
    rewrite_batch,
    split_prefix,
    split_prefix_arrays,
)
from argo_ray.stages.filter import filter_batch
from argo_ray.terms import IRI, Blank, Literal, triples_to_table

XSD = "http://www.w3.org/2001/XMLSchema#"


def _fixture():
    return triples_to_table(
        [
            (IRI("http://a.org/s1"), IRI("http://a.org/p"), IRI("http://a.org/o1")),
            (IRI("http://a.org/s1"), IRI("http://a.org/q"), Literal("x")),
            (Blank("b1"), IRI("http://a.org/p"), Literal("4", datatype=XSD + "integer")),
            (IRI("http://a.org/s2"), IRI("http://a.org/p"), Literal("true", datatype=XSD + "boolean")),
            (IRI("http://a.org/s2"), IRI("http://a.org/p"), Literal("1.5", datatype=XSD + "double")),
            (IRI("http://a.org/s2"), IRI("http://a.org/p"), Literal("chat", lang="fr")),
        ],
        with_hash=False,
    )


def test_filter_wildcards():
    t = _fixture()
    assert filter_batch(t).num_rows == 6
    assert filter_batch(t, s=IRI("http://a.org/s1")).num_rows == 2
    assert filter_batch(t, s=IRI("http://a.org/s1"), p=IRI("http://a.org/q")).num_rows == 1
    assert filter_batch(t, o=Literal("chat", lang="fr")).num_rows == 1
    # literal equality includes lang+datatype (term.go:113-136)
    assert filter_batch(t, o=Literal("chat")).num_rows == 0
    assert filter_batch(t, s=Blank("b1")).num_rows == 1
    assert filter_batch(t, s=IRI("b1")).num_rows == 0  # kind mismatch


def test_rewrite_iri_only_literals_untouched():
    t = _fixture()
    out = rewrite_batch(t, [RewriteRule(r"^http://a\.org/", "http://b.org/")])
    assert out["subj_value"][0].as_py() == "http://b.org/s1"
    assert out["obj_value"][0].as_py() == "http://b.org/o1"
    assert out["obj_value"][1].as_py() == "x"  # literal untouched
    assert out["subj_value"][2].as_py() == "b1"  # bnode id: _:b1 not matched
    assert out["subj_kind"][2].as_py() == 1


def test_rewrite_bnode_resniff():
    t = _fixture()
    # promote bnode to IRI (reference sniffTerm semantics: result without
    # _: prefix becomes a Resource, rdf/rdf.go:255-267)
    out = rewrite_batch(t, [RewriteRule(r"^_:(.*)$", r"http://b.org/\1", ("subj",))])
    assert out["subj_kind"][2].as_py() == 0
    assert out["subj_value"][2].as_py() == "http://b.org/b1"
    # and back: IRI → bnode
    out2 = rewrite_batch(out, [RewriteRule(r"^http://b\.org/(.*)$", r"_:\1", ("subj",))])
    assert out2["subj_kind"][2].as_py() == 1
    assert out2["subj_value"][2].as_py() == "b1"


def test_go_template_translation():
    assert go_template_to_re2("x$1y${2}z") == r"x\1y\2z"


def test_split_prefix_scalar_matches_reference():
    assert split_prefix("http://e.org/ns#name") == ("http://e.org/ns#", "name")
    assert split_prefix("http://e.org/ns/name") == ("http://e.org/ns/", "name")
    assert split_prefix("name") == ("", "name")
    # '#' wins over later '/' (LastIndex('#') checked first, argo.go:220-224)
    assert split_prefix("http://e.org/a#b/c") == ("http://e.org/a#", "b/c")


def test_split_prefix_vectorized_agrees():
    uris = [
        "http://e.org/ns#name",
        "http://e.org/ns/name",
        "name",
        "http://e.org/a#b/c",
        "http://e.org/x#",
    ]
    base, name = split_prefix_arrays(pa.array(uris, pa.large_string()))
    for u, b, n in zip(uris, base.to_pylist(), name.to_pylist()):
        assert (b, n) == split_prefix(u), u


def test_coerce_literals():
    t = _fixture()
    out = coerce_literals_batch(t)
    assert out["obj_as_int"].to_pylist() == [None, None, 4, None, None, None]
    assert out["obj_as_float"].to_pylist() == [None, None, None, None, 1.5, None]
    assert out["obj_as_bool"].to_pylist() == [None, None, None, True, None, None]


def test_point_lookups(ray_session):
    """M3: Graph.Get / GetAll / HasSubject over a small triple Dataset."""
    import ray.data as rd

    from argo_ray.stages.filter import (
        get_all_objects,
        get_first_object,
        has_subject,
    )
    from argo_ray.terms import IRI, Literal, triples_to_table

    s, p = IRI("http://e/s"), IRI("http://e/p")
    tab = triples_to_table(
        [
            (s, p, Literal("a")),
            (s, p, Literal("b", lang="en")),
            (s, IRI("http://e/q"), Literal("c")),
        ],
        with_hash=False,
    )
    ds = rd.from_arrow(tab)
    assert has_subject(ds, s) is True
    assert has_subject(ds, IRI("http://e/missing")) is False
    assert get_first_object(ds, s, p) in (Literal("a"), Literal("b", lang="en"))
    objs = set(get_all_objects(ds, s, p))
    assert objs == {Literal("a"), Literal("b", lang="en")}
    assert get_all_objects(ds, s, IRI("http://e/none")) == []


def test_salted_subject_grouping_roundtrip(ray_session, tmp_path):
    """A1 skew design: salted subject grouping splits hot subjects over
    S reducers; repeated subject blocks are still valid Turtle and
    re-parse to the identical triple set."""
    import pyarrow as pa

    from argo_ray.pipelines.flagship import flagship
    from argo_ray.sinks.turtle import write_turtle
    from argo_ray.sources.turtle import parse_turtle_batch
    from argo_ray.terms import TRIPLE_COLUMNS

    sf = "/root/testdata/sf0.001"

    def tset(ds):
        return {
            tuple(r[c] for c in TRIPLE_COLUMNS)
            for r in ds.select_columns(TRIPLE_COLUMNS).take_all()
        }

    expected = tset(flagship(sf))

    out = str(tmp_path / "ttl_salted")
    manifest = write_turtle(flagship(sf), out, prefixes={}, num_salts=4)
    assert len(manifest) >= 1

    import glob

    docs = []
    for path in glob.glob(out + "/part-*.ttl"):
        with open(path) as f:
            docs.append(f.read())
    batch = pa.table(
        {
            "url": pa.array([""] * len(docs), pa.string()),
            "text": pa.array(docs, pa.string()),
        }
    )
    parsed = parse_turtle_batch(batch)
    got = {
        tuple(parsed[c][i].as_py() for c in TRIPLE_COLUMNS)
        for i in range(parsed.num_rows)
    }
    assert got == expected


def test_sort_colocation_pinned(ray_session):
    """Pins the Ray-internal behavior grouped_map/sorted_unique rely on:
    after Dataset.sort, an equal-key run never spans a block boundary
    (range partition cuts with searchsorted(side="left") and each reduce
    partition emits one merged block).  If a Ray upgrade breaks this,
    THIS test failing is the loud signal (ADVICE r1) — grouped results
    would otherwise silently corrupt."""
    import numpy as np
    import ray.data as rd

    from argo_ray.stages.grouping import verify_sorted_colocation

    rng = np.random.default_rng(7)
    # 5 hot keys over 20k rows, 16 input blocks → every planned reduce
    # boundary necessarily falls inside or between equal-key runs
    keys = rng.integers(0, 5, 20_000)
    ds = rd.from_items([{"k": int(k), "v": i} for i, k in enumerate(keys)]).repartition(16)
    verify_sorted_colocation(ds, "k")


def test_grouped_map_verify_flag(ray_session):
    """grouped_map(verify=True) rides a zero-CPU boundary-registry actor
    (one round trip per block) and must (a) produce exactly the
    unverified output on a healthy Ray, (b) raise through the registry
    when a boundary key is claimed by two blocks."""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data as rd

    from argo_ray.stages.grouping import _BoundaryRegistry, grouped_map

    rng = np.random.default_rng(11)
    keys = rng.integers(0, 7, 5_000)
    ds = rd.from_items(
        [{"k": int(k), "v": i} for i, k in enumerate(keys)]
    ).repartition(8)

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [g["k"].iloc[0]], "n": [len(g)]})

    plain = sorted(
        (r["k"], r["n"]) for r in grouped_map(ds, "k", agg).take_all()
    )
    out = grouped_map(ds, "k", agg, verify=True)
    verified = sorted((r["k"], r["n"]) for r in out.take_all())
    assert verified == plain and len(plain) == 7
    # re-executing the same lazy result (second consume = every block
    # re-registers) must be idempotent, not a spurious violation
    reverified = sorted((r["k"], r["n"]) for r in out.take_all())
    assert reverified == plain

    # the registry itself: a key from two DIFFERENT block tokens =
    # violation; the same token re-registering = retry, no violation
    reg = ray.remote(num_cpus=0)(_BoundaryRegistry).remote(limit=None)
    assert ray.get(reg.register.remote(["('3',)", "('9',)"], "blockA")) == []
    assert ray.get(reg.register.remote(["('9',)"], "blockB")) == ["('9',)"]
    assert ray.get(reg.register.remote(["('3',)", "('9',)"], "blockA")) == []
    # sampled mode stops admitting NEW tokens past the limit
    reg2 = ray.remote(num_cpus=0)(_BoundaryRegistry).remote(limit=1)
    assert ray.get(reg2.register.remote(["a"], "t1")) == []
    assert ray.get(reg2.register.remote(["a"], "t2")) == []  # past limit


def _ref_blank_labels(triples, iters=2):
    """Pure-Python mirror of stages/canon.py::blank_canonical_labels:
    (kind, value) terms; render matches NT rendering for the fixture's
    escape-free values."""
    import hashlib

    def render(t):
        k, v, lang, dt = t
        if k == 0:
            return f"<{v}>"
        if k == 1:
            return f"_:{v}"
        if lang:
            return f'"{v}"@{lang}'
        if dt:
            return f'"{v}"^^<{dt}>'
        return f'"{v}"'

    ground, bb, blanks = {}, {}, set()
    for s, p, o in triples:
        if s[0] == 1:
            blanks.add(s[1])
            if o[0] == 1:
                bb.setdefault(s[1], []).append(("o", p[1], o[1]))
            else:
                ground.setdefault(s[1], set()).add(f"o|{p[1]}|{render(o)}")
        if o[0] == 1:
            blanks.add(o[1])
            if s[0] == 1:
                bb.setdefault(o[1], []).append(("i", p[1], s[1]))
            else:
                ground.setdefault(o[1], set()).add(f"i|{p[1]}|{render(s)}")

    def h(feats):
        return hashlib.md5("\n".join(sorted(feats)).encode()).hexdigest()

    color = {b: h(ground.get(b, set())) for b in blanks}
    if not any(bb.values()):
        return color
    for _ in range(iters):
        new = {}
        for b in blanks:
            feats = {f"c|{color[b]}"} | {
                f"{d}|{p}|{color[n]}" for d, p, n in bb.get(b, [])
            }
            new[b] = h(feats)
        color = new
    return color


def test_blank_canonical_labels_differential(ray_session):
    """Ray color refinement == the pure-Python recurrence, and
    isomorphic blank structures canonicalize identically."""
    import ray.data as rd

    from argo_ray.stages.canon import blank_canonical_labels
    from argo_ray.terms import IRI, Blank, Literal, triples_to_table

    P = IRI("http://a.org/p")
    Q = IRI("http://a.org/q")
    G = IRI("http://a.org/ground")

    # two isomorphic chains (b1->b2->G, x1->x2->G) + a distinct shape
    triples = [
        (Blank("b1"), P, Blank("b2")),
        (Blank("b2"), Q, G),
        (Blank("x1"), P, Blank("x2")),
        (Blank("x2"), Q, G),
        (Blank("y1"), P, Literal("leaf")),
    ]
    tbl = triples_to_table(triples, with_hash=False)
    ds = rd.from_arrow(tbl)
    for iters in (0, 1, 2, 3):
        got = {
            r["blank"]: r["canon"]
            for r in blank_canonical_labels(ds, iters=iters).take_all()
        }
        def term(t):
            return (t.kind, t.value, t.lang or "", t.datatype or "")

        ref_triples = [(term(s), term(p), term(o)) for s, p, o in triples]
        ref = _ref_blank_labels(ref_triples, iters=iters)
        assert got == ref, iters
        # isomorphism: the two chains agree position-wise
        assert got["b1"] == got["x1"]
        assert got["b2"] == got["x2"]
        if iters >= 1:
            # refinement separates the chain head from the leaf-shaped y1
            assert got["b1"] != got["y1"]
    # chain positions must be distinguished
    assert got["b1"] != got["b2"]


def test_sorted_multi_agg_contract(ray_session):
    """The shared sorted-block group-aggregate (grouping.py): composite
    keys colocated by the first key, mixed min/sum specs, NA-skipping
    string min with all-null groups -> Arrow null, many input blocks,
    and rows with a null key forming their own group."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from argo_ray.stages.grouping import sorted_multi_agg

    rng = np.random.RandomState(0)
    n = 5000
    ks = [f"k{int(i):03d}" for i in rng.randint(0, 300, n)]
    # every 40th row has a null second key
    sub = [None if i % 40 == 0 else int(x) for i, x in enumerate(rng.randint(0, 3, n))]
    vals = rng.randint(0, 1000, n)
    labels = [None if i % 4 == 0 else f"s{v:04d}" for i, v in enumerate(vals)]
    tbl = pa.table(
        {
            "k": pa.array(ks, pa.string()),
            "sub": pa.array(sub, pa.int64()),
            "v": pa.array(vals, pa.int64()),
            "lab": pa.array(labels, pa.string()),
        }
    )
    ds = rd.from_arrow(tbl).repartition(16)
    out = sorted_multi_agg(
        ds,
        "k",
        [("k", pa.string()), ("sub", pa.int64())],
        [("v", "sum", "v_sum", pa.int64()),
         ("v", "min", "v_min", pa.int64()),
         ("lab", "min", "lab_min", pa.string())],
    ).take_all()

    # reference via plain pandas on the whole table
    import pandas as pd

    df = tbl.to_pandas()
    df["lab"] = df["lab"].astype("string")
    ref = (
        df.groupby(["k", "sub"], sort=False, dropna=False)
        .agg(v_sum=("v", "sum"), v_min=("v", "min"), lab_min=("lab", "min"))
        .reset_index()
    )
    ref_rows = {
        (r.k, None if pd.isna(r.sub) else int(r.sub)): (int(r.v_sum), int(r.v_min),
                            None if pd.isna(r.lab_min) else r.lab_min)
        for r in ref.itertuples()
    }
    got_rows = {
        (r["k"], r["sub"]): (r["v_sum"], r["v_min"], r["lab_min"])
        for r in out
    }
    assert got_rows == ref_rows
    assert any(sub is None for _, sub in got_rows)
    # every composite group appears exactly once (no split groups)
    assert len(out) == len(ref_rows)
