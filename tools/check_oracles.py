"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry and its ``oracle_sql()`` twin on the same
sf dir and compares row count, column names and an order-insensitive
value comparison (sorted rows).  Usage::

    python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result):
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def normalize(df):
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    # unify numeric dtypes for comparison
    for c in df.columns:
        if str(df[c].dtype).lower().startswith(("int", "uint")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype).lower().startswith("float"):
            df[c] = df[c].round(9)
    return df


def connect(sf_dir):
    """DuckDB connection with one view per fixture table present in ``sf_dir``."""
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        path = f"{sf_dir}/{t}.parquet"
        if os.path.exists(path):
            con.execute(f"create view {t} as select * from '{path}'")
    return con


def check(fn, sql, con, sf_dir):
    """Run one query and its oracle SQL on ``sf_dir``.  Return
    ``(reason, rows)``: ``reason`` is None when they agree (column names,
    row count, sorted values), else a one-line reason followed by up to
    three differing row pairs; ``rows`` is the query's row count, None
    when it raised."""
    try:
        ours = normalize(to_pandas(fn(sf_dir)))
    except Exception as exc:  # noqa: BLE001
        return f"query raised {type(exc).__name__}: {exc}", None
    rows = len(ours)
    try:
        theirs = normalize(con.execute(sql).fetchdf())
    except Exception as exc:  # noqa: BLE001
        return f"oracle raised {type(exc).__name__}: {exc}", rows
    if list(ours.columns) != list(theirs.columns):
        return f"columns {list(ours.columns)} vs {list(theirs.columns)}", rows
    if rows != len(theirs):
        return f"rows {rows} vs {len(theirs)}", rows
    if ours.equals(theirs):
        return None, rows
    # tolerate dtype mismatches by value compare
    try:
        diff = (ours.astype(str).values != theirs.astype(str).values).any(axis=1)
    except Exception as exc:  # noqa: BLE001
        return f"value compare raised {type(exc).__name__}: {exc}", rows
    if not diff.any():
        return None, rows
    lines = ["value mismatch; first diffs:"]
    for i in diff.nonzero()[0][:3]:
        lines.append(f"  ours  : {ours.iloc[i].to_dict()}")
        lines.append(f"  oracle: {theirs.iloc[i].to_dict()}")
    return "\n".join(lines), rows


def main() -> int:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    sqls = entry_mod.oracle_sql()
    con = connect(sf_dir)

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        reason, rows = check(fn, sqls[name], con, sf_dir)
        if reason is None:
            print(f"OK    {name}: {rows} rows")
        else:
            print(f"FAIL  {name}: {reason}")
            failures.append(name)

    print(f"\n{len(failures)} failures" + (f": {failures}" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
