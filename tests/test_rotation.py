"""Driver-window rotation in __ray_entry__: entries without a PASSING
CORRECTNESS row must lead the dict so each round's 50-query window
lands on never-checked (or previously failing) queries."""

import importlib.util
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_entry():
    spec = importlib.util.spec_from_file_location(
        "ray_entry_under_test", os.path.join(REPO, "__ray_entry__.py")
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def test_checked_names_only_count_passing(tmp_path, monkeypatch):
    m = _load_entry()
    rows = {
        "green": {"err": None, "rows_match": True, "schema_match": True,
                  "hash_match": True},
        "rows_only_green": {"err": None, "rows_match": True,
                           "schema_match": True},  # no hash key: weaker check
        "failed_hash": {"err": None, "rows_match": True, "schema_match": True,
                        "hash_match": False},
        "errored": {"err": "boom", "rows_match": False, "schema_match": False,
                    "hash_match": False},
    }
    with open(tmp_path / "CORRECTNESS_r01.json", "w") as f:
        json.dump(rows, f)
    monkeypatch.setattr(
        os.path, "dirname", lambda p: str(tmp_path)
    ) if False else None
    # point the module at the temp dir by patching its file location
    m.__dict__["__file__"] = str(tmp_path / "__ray_entry__.py")
    seen = m._driver_checked_names()
    assert seen == {"green", "rows_only_green"}
    # failing rows must rotate BACK TO THE FRONT for re-verification
    out = m._rotated(
        {k: (lambda _: None) for k in
         ["green", "failed_hash", "errored", "brand_new"]}
    )
    order = list(out)
    assert order[-1] == "green"           # passing entry goes last
    assert set(order[:3]) == {"failed_hash", "errored", "brand_new"}


def test_rotation_preserves_registry_order_within_classes(tmp_path):
    m = _load_entry()
    with open(tmp_path / "CORRECTNESS_r01.json", "w") as f:
        json.dump(
            {"b": {"err": None, "rows_match": True, "schema_match": True,
                   "hash_match": True}},
            f,
        )
    m.__dict__["__file__"] = str(tmp_path / "__ray_entry__.py")
    out = m._rotated({k: (lambda _: None) for k in ["a", "b", "c", "d"]})
    assert list(out) == ["a", "c", "d", "b"]


def test_live_registry_has_oracles_for_every_query():
    m = _load_entry()
    q = m.queries()
    o = m.oracle_sql()
    missing = [k for k in q if k not in o]
    assert missing == []
    assert len(q) == 90
