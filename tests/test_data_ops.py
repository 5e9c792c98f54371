"""Distributed prefix sum (``functions.packing.running_total``)."""

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
