"""Every registry entry against its DuckDB oracle on /root/testdata/sf0.001.

One test per ``queries()`` name, compared the way ``tools/check_oracles.py``
compares them: column names, row count and sorted values.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import __ray_entry__ as entry

from conftest import SF_DIR

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))

import check_oracles  # noqa: E402

QUERIES = entry.queries()
ORACLES = entry.oracle_sql()


@pytest.fixture(scope="module")
def con():
    return check_oracles.connect(SF_DIR)


@pytest.mark.parametrize("name", list(QUERIES))
def test_query_matches_oracle(ray_session, con, name):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    result = QUERIES[name](SF_DIR)
    # the driver contract's three result types; a local-tier SPARQL
    # frame must not leak past __ray_entry__.queries()
    assert isinstance(result, (ray.data.Dataset, pd.DataFrame, pa.Table)), type(result)
    reason, _ = check_oracles.check(lambda _: result, ORACLES[name], con, SF_DIR)
    assert reason is None, f"{name}: {reason}"


# One entry per broadcast-lookup actor pool: decode_store, link_entities
# and the prefix-cache expansion.
LOOKUP_POOL_ENTRIES = [
    "store_roundtrip",
    "entity_link",
    "prefix_cache_expand",
]

# Entries that run a ``Dataset.join``: the entity-link join.
JOIN_ENTRIES = [
    "entity_link_join",
]


def _check_in_fresh_session(tmp_path, cpus: int, names: list[str]) -> None:
    """Run each entry of ``names`` in a fresh Ray session of ``cpus``
    CPUs, driven from a cwd outside the repo; each must match its
    oracle."""
    script = textwrap.dedent(
        f"""
        import sys
        sys.path[:0] = [{REPO!r}, {os.path.join(REPO, "tools")!r}]
        import ray
        ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
                 logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        import __ray_entry__ as entry
        import check_oracles
        qs, sqls = entry.queries(), entry.oracle_sql()
        con = check_oracles.connect({SF_DIR!r})
        for name in {names!r}:
            print(name, check_oracles.check(qs[name], sqls[name], con, {SF_DIR!r})[0])
        ray.shutdown()
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    verdicts = [line for line in proc.stdout.splitlines() if line.split(" ")[0] in names]
    assert verdicts == [f"{name} None" for name in names], proc.stdout


@pytest.mark.parametrize("cpus", [1, 2])
def test_lookup_pools_finish_on_small_sessions(tmp_path, cpus):
    """A lookup pool that reserved CPUs could hold every CPU of a small
    session and starve the read feeding it, hanging the query."""
    _check_in_fresh_session(tmp_path, cpus, LOOKUP_POOL_ENTRIES)


@pytest.mark.parametrize("cpus", [1, 2])
def test_joins_finish_on_small_sessions(tmp_path, cpus):
    """A join whose hash-shuffle aggregators reserved CPUs could hold
    every CPU of a small session while idle and starve the tasks
    feeding them, hanging the query."""
    _check_in_fresh_session(tmp_path, cpus, JOIN_ENTRIES)
