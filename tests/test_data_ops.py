"""Distributed prefix sum (``functions.packing.running_total``) and an
anchor-extraction edge case (``functions.weblinks``)."""

import pyarrow as pa


def test_running_total_matches_pandas(ray_session):
    import numpy as np
    import ray.data

    from argo_ray.functions.packing import running_total

    rng = np.random.default_rng(7)
    ids = rng.permutation(500)
    vals = rng.integers(1, 100, 500)
    tbl = pa.table({"id": pa.array(ids, pa.int64()),
                    "v": pa.array(vals, pa.int64())})
    # many small blocks to force multi-block offsets
    ds = ray.data.from_arrow(tbl).repartition(13)
    out = running_total(ds, "id", "v", out_col="cum").to_pandas()
    out = out.sort_values("id").reset_index(drop=True)
    expect = out["v"].cumsum()
    assert (out["cum"] == expect).all()


def test_extract_links_no_phantom_from_leading_href():
    """A page whose FIRST tag carries href before any '>' must not
    phantom-match (the pre-anchor segment is dropped per page)."""
    from argo_ray.functions.weblinks import extract_links_batch

    b = pa.table(
        {
            "url": pa.array(["https://p/1"], pa.string()),
            "html": pa.array(
                [b'<link href="/s.css">x<a href="https://t/">t</a>'], pa.binary()
            ),
        }
    )
    out = extract_links_batch(b)
    assert out["dst_url"].to_pylist() == ["https://t/"]
