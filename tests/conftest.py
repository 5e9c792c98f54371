import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(params=["local", "ray"])
def sparql_tier(request, ray_session, monkeypatch):
    """Runs a SPARQL test once per executor: ``local`` keeps the
    engine's in-process threshold, ``ray`` sets it below every store's
    size so each query takes the distributed plan."""
    from argo_ray.sparql import engine

    if request.param == "ray":
        monkeypatch.setattr(engine, "_LOCAL_MAX_BYTES", -1)
    return request.param
