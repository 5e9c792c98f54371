"""The key exchange (``stages/grouping.py::exchange``): differential
check against a whole-table pandas groupby on both executors, the Ray
version pin on every co-location user, a guard that keeps the
hand-written ``sort → map_batches(batch_size=None)`` idiom out of the
package, one that keeps every file publish in ``io.publish``, two that
keep a second aggregate and a second join implementation out of the
SPARQL engine, one that finds modules no entry point imports, one that
finds registry helpers nothing calls, and one that finds private
functions and classes nothing in the package names."""

import ast
import pathlib
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "argo_ray"


def _inputs():
    rng = np.random.default_rng(5)
    # int64 keys: Ray 2.49's range partition cannot compare a null with
    # a string boundary (TypeError in find_partition_index), so a null
    # *string* key fails inside Ray's sort; null ints sort last and
    # form their own group
    keys = [None if rng.random() < 0.1 else int(x) for x in rng.integers(0, 200, 3000)]
    random = pa.table({
        "k": pa.array(keys, pa.int64()),
        "v": pa.array(rng.integers(0, 100, 3000), pa.int64()),
    })
    # one hot key present in every one of 16 input blocks, plus a tail
    hot_keys = [7 if i % 4 else int(i % 50) for i in range(4000)]
    hot = pa.table({
        "k": pa.array(hot_keys, pa.int64()),
        "v": pa.array(np.arange(4000) % 13, pa.int64()),
    })
    empty = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    return {"random": random, "hot": hot, "empty": empty}


def _norm_key(k):
    return None if k is None or (isinstance(k, float) and np.isnan(k)) else int(k)


# pandas blocks run on the Ray tier only (stages/grouping.py); the
# in-process frame is Arrow-only
EXCHANGE_CASES = [
    (case, batch_format, tier)
    for case in ("random", "hot", "empty")
    for batch_format in ("pyarrow", "pandas")
    for tier in ("ray", "local")
    if (batch_format, tier) != ("pandas", "local")
]


@pytest.mark.parametrize(
    "case, batch_format, tier", EXCHANGE_CASES, ids=["-".join(c) for c in EXCHANGE_CASES]
)
def test_exchange_differential(ray_session, tier, batch_format, case):
    """One exchange + an in-block groupby equals a whole-table groupby:
    every key, the null key included, comes out exactly once."""
    import ray.data as rd

    from argo_ray.sparql.frame import LocalFrame
    from argo_ray.stages.grouping import exchange

    # block functions are defined here so Ray pickles them by value
    def count_sum_arrow(b: pa.Table) -> pa.Table:
        g = b.group_by("k").aggregate([("v", "count"), ("v", "sum")])
        return pa.table({
            "k": g["k"],
            "n": pc.cast(g["v_count"], pa.int64()),
            "s": pc.cast(g["v_sum"], pa.int64()),
        })

    def count_sum_pandas(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("k", sort=False, dropna=False)
            .agg(n=("v", "size"), s=("v", "sum"))
            .reset_index()
        )

    table = _inputs()[case]
    if tier == "ray":
        blocks = [table.slice(i * (table.num_rows // 16 + 1), table.num_rows // 16 + 1)
                  for i in range(16)] if table.num_rows else [table]
        ds = rd.from_arrow(blocks)
        if case == "hot":
            assert ds.num_blocks() == 16
    else:
        ds = LocalFrame(table)
    fn = count_sum_arrow if batch_format == "pyarrow" else count_sum_pandas
    got = [
        (_norm_key(r["k"]), int(r["n"]), int(r["s"]))
        for r in exchange(ds, "k", fn, batch_format=batch_format).take_all()
    ]
    ref = count_sum_pandas(table.to_pandas())
    want = [(_norm_key(k), int(n), int(s)) for k, n, s in ref.itertuples(index=False)]
    key = lambda r: (r[0] is None, r[0] or 0)  # noqa: E731
    assert sorted(got, key=key) == sorted(want, key=key)
    assert len({r[0] for r in got}) == len(got)  # no key split over blocks
    if case == "random":
        assert any(r[0] is None for r in got)


def test_exchange_descending_keeps_block_order(ray_session):
    """``descending`` reaches the sort, and block order follows it."""
    import ray.data as rd

    from argo_ray.stages.grouping import exchange

    t = pa.table({"k": pa.array(np.arange(2000) % 97, pa.int64())})
    ds = rd.from_arrow([t.slice(i * 125, 125) for i in range(16)])
    keys = [r["k"] for r in exchange(
        ds, "k", lambda b: b, batch_format="pyarrow", descending=True
    ).take_all()]
    assert keys == sorted(keys, reverse=True)


def test_exchange_pin_check_covers_every_user(ray_session, monkeypatch, tmp_path):
    """On an unverified Ray version the first exchange of the process
    warns, whichever module reaches it first: the Turtle writer and the
    SPARQL engine's Ray-tier co-group join included."""
    import ray
    import ray.data as rd

    from argo_ray.sinks.turtle import write_turtle
    from argo_ray.sparql import engine
    from argo_ray.stages import grouping
    from argo_ray.terms import IRI, Literal, triples_to_table

    monkeypatch.setattr(ray, "__version__", "9.99.0")
    ex = "http://example.org/"
    triples = triples_to_table(
        [(IRI(f"{ex}d{i}"), IRI(ex + "p"), Literal(str(i))) for i in range(20)]
        + [(IRI(f"{ex}d{i}"), IRI(ex + "q"), IRI(f"{ex}d{i + 1}")) for i in range(20)]
    )
    store = rd.from_arrow(triples).materialize()

    monkeypatch.setattr(grouping, "_pin_checked", False)
    with pytest.warns(RuntimeWarning, match="verified on Ray"):
        write_turtle(store, str(tmp_path / "ttl"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        write_turtle(store, str(tmp_path / "ttl2"))  # once per process

    calls = []
    orig = engine._cogroup_join

    def spy(*a, **k):
        calls.append(grouping._pin_checked)
        return orig(*a, **k)

    monkeypatch.setattr(engine, "_cogroup_join", spy)
    monkeypatch.setattr(engine, "_LOCAL_MAX_BYTES", -1)
    monkeypatch.setattr(grouping, "_pin_checked", False)
    q = f"SELECT ?s ?o WHERE {{ ?s <{ex}p> ?l . ?s <{ex}q> ?o }}"
    with pytest.warns(RuntimeWarning, match="verified on Ray"):
        rows = engine.evaluate_select(store, q).take_all()
    assert calls and calls[0] is False  # the join reached the first exchange
    assert len(rows) == 20


def _sort_flows(node, tainted, sources) -> bool:
    """Does this expression's value come out of a ``.sort(...)``?  Walks
    the receiver chain (``a.sort(k).materialize()`` counts), local names
    assigned from such chains, and module functions returning one."""
    while True:
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute):
                if f.attr == "sort":
                    return True
                node = f.value
                continue
            return isinstance(f, ast.Name) and f.id in sources
        if isinstance(node, ast.Attribute):
            node = node.value
            continue
        return isinstance(node, ast.Name) and node.id in tainted


def _scope_nodes(scope):
    """Nodes of one function (nested functions excluded), in source order."""
    out, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        out.append(n)
        stack.extend(ast.iter_child_nodes(n))
    return sorted(out, key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))


def _whole_block_map_after_sort(path: pathlib.Path) -> list[int]:
    tree = ast.parse(path.read_text())
    scopes = [tree] + [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    sources: set[str] = set()  # functions that return a sorted dataset
    lines: set[int] = set()
    for _ in range(3):  # reach a fixpoint over helper-returns-sorted chains
        lines.clear()
        for scope in scopes:
            tainted: set[str] = set()
            for n in _scope_nodes(scope):
                if isinstance(n, ast.Assign):
                    flows = _sort_flows(n.value, tainted, sources)
                    for t in n.targets:
                        if isinstance(t, ast.Name):
                            (tainted.add if flows else tainted.discard)(t.id)
                elif (isinstance(n, ast.Return) and n.value is not None
                      and scope is not tree and _sort_flows(n.value, tainted, sources)):
                    sources.add(scope.name)
                if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "map_batches"
                        and any(k.arg == "batch_size" and isinstance(k.value, ast.Constant)
                                and k.value.value is None for k in n.keywords)
                        and _sort_flows(n.func.value, tainted, sources)):
                    lines.add(n.lineno)
    return sorted(lines)


def test_no_hand_written_exchange_outside_grouping():
    """Every key-grouping sort goes through ``stages.grouping.exchange``:
    no ``.sort(...)`` result may flow into ``map_batches(...,
    batch_size=None)`` anywhere else in the package."""
    offenders = [
        f"{p.relative_to(PKG.parent)}:{line}"
        for p in sorted(PKG.rglob("*.py"))
        if p.relative_to(PKG).as_posix() != "stages/grouping.py"
        for line in _whole_block_map_after_sort(p)
    ]
    assert not offenders, "use stages.grouping.exchange at:\n" + "\n".join(offenders)


def _rename_sites(path: pathlib.Path) -> list[str]:
    """The enclosing function of every ``os.replace``/``os.rename`` call."""
    sites: list[str] = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("replace", "rename")
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "os"):
                sites.append(name)
            visit(child, name)

    visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_files_publish_only_through_io_publish():
    """Every file publish goes through ``io.publish`` (a temp file unique
    to the call); the only other rename is the checkpoint's directory
    commit."""
    sites = sorted(
        f"{p.relative_to(PKG).as_posix()}::{fn}"
        for p in sorted(PKG.rglob("*.py"))
        for fn in _rename_sites(p)
    )
    assert sites == ["io.py::publish", "state/checkpoint.py::_commit_shard"]


def test_guard_sees_the_idiom(tmp_path):
    """The guard flags the direct chain, a split form through a local
    name, and a helper that returns a sorted dataset."""
    src = tmp_path / "m.py"
    src.write_text(
        "def a(ds, f):\n"
        "    return ds.sort('k').map_batches(f, batch_size=None)\n"
        "def b(ds, f):\n"
        "    s = ds.sort('k').materialize()\n"
        "    return s.map_batches(f, batch_format='pandas', batch_size=None)\n"
        "def c(ds):\n"
        "    return ds.sort('k')\n"
        "def d(ds, f):\n"
        "    return c(ds).map_batches(f, batch_size=None)\n"
        "def ok(ds, f):\n"
        "    s = ds.sort('k')\n"
        "    s = f(s)\n"
        "    return s.map_batches(f, batch_size=None), ds.sort('k').limit(3)\n"
    )
    assert _whole_block_map_after_sort(src) == [2, 5, 9]



def _second_aggregate_sites(path: pathlib.Path) -> list[int]:
    """Lines of a ``.groupby(`` call, of an ``.aggregate(`` call on
    anything but an Arrow ``.group_by(...)``, and of an import of
    ``ray.data.aggregate``."""
    lines = set()
    for n in ast.walk(ast.parse(path.read_text())):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            recv = n.func.value
            arrow = (
                isinstance(recv, ast.Call) and isinstance(recv.func, ast.Attribute)
                and recv.func.attr == "group_by"
            )
            if n.func.attr == "groupby" or (n.func.attr == "aggregate" and not arrow):
                lines.add(n.lineno)
        elif isinstance(n, ast.ImportFrom) and (n.module or "").startswith("ray.data.aggregate"):
            lines.add(n.lineno)
        elif isinstance(n, ast.Import) and any(
            a.name.startswith("ray.data.aggregate") for a in n.names
        ):
            lines.add(n.lineno)
    return sorted(lines)


def test_sparql_has_one_aggregate():
    """Every SPARQL aggregate runs through the engine's one Arrow block
    function (``engine._aggregate_query``) on both tiers: no Ray or
    pandas ``groupby``/``aggregate`` and no ``ray.data.aggregate``
    under ``argo_ray/sparql/``."""
    offenders = [
        f"{p.relative_to(PKG.parent)}:{line}"
        for p in sorted((PKG / "sparql").rglob("*.py"))
        for line in _second_aggregate_sites(p)
    ]
    assert not offenders, "a second aggregate implementation at:\n" + "\n".join(offenders)


def test_aggregate_guard_sees_the_idioms(tmp_path):
    """The guard flags Ray's and pandas' spellings and the aggregate
    import, and lets Arrow's ``Table.group_by(...).aggregate`` pass."""
    src = tmp_path / "m.py"
    src.write_text(
        "from ray.data.aggregate import Sum\n"
        "def a(ds):\n"
        "    return ds.groupby('k').aggregate(Sum('v'))\n"
        "def b(ds):\n"
        "    return ds.aggregate(Sum('v'))\n"
        "def c(df):\n"
        "    return df.groupby('k').agg('sum')\n"
        "import ray.data.aggregate\n"
        "def ok(table):\n"
        "    return table.group_by(['k']).aggregate([('v', 'sum')])\n"
    )
    assert _second_aggregate_sites(src) == [1, 3, 5, 7, 8]


def _second_join_sites(path: pathlib.Path) -> list[int]:
    """Lines of a ``.merge(`` call (pandas) and of a ``.join(`` call in
    Ray's or pandas' spelling: an ``on``, ``how`` or ``num_partitions``
    keyword, or three positional arguments (``ds.join(other, "inner",
    4)``).  Arrow's ``Table.join(right, keys=..., join_type=...)`` and
    ``str.join`` pass."""
    lines = set()
    for n in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)):
            continue
        if n.func.attr == "merge":
            lines.add(n.lineno)
        elif n.func.attr == "join" and (
            {k.arg for k in n.keywords} & {"on", "how", "num_partitions"}
            or len(n.args) >= 3
        ):
            lines.add(n.lineno)
    return sorted(lines)


def test_sparql_has_one_join():
    """Every SPARQL join runs through the engine's one Arrow block
    function (``engine._cogroup_join``) on both tiers: no pandas merge
    and no ``Dataset.join`` under ``argo_ray/sparql/``."""
    offenders = [
        f"{p.relative_to(PKG.parent)}:{line}"
        for p in sorted((PKG / "sparql").rglob("*.py"))
        for line in _second_join_sites(p)
    ]
    assert not offenders, "a second join implementation at:\n" + "\n".join(offenders)


def test_join_guard_sees_the_idioms(tmp_path):
    """The guard flags pandas' ``merge`` and Ray's ``Dataset.join`` in
    both its keyword and positional spellings, and lets Arrow's
    ``Table.join`` and ``str.join`` pass."""
    src = tmp_path / "m.py"
    src.write_text(
        "def a(df, r):\n"
        "    return df.merge(r, on=['k'], how='left')\n"
        "def b(ds, r):\n"
        "    return ds.join(r, join_type='inner', num_partitions=2, on=('k',))\n"
        "def c(ds, r):\n"
        "    return ds.join(r, 'inner', 2)\n"
        "def ok(t, r, names):\n"
        "    t = t.join(r, keys=['k'], join_type='left semi', use_threads=False)\n"
        "    return t, ', '.join(names)\n"
    )
    assert _second_join_sites(src) == [2, 4, 6]

# the driver contract, the three jobs and the package faces they use;
# ``sparql.client`` is the ``python -m`` SPARQL REPL
ENTRY_POINTS = (
    "__ray_entry__", "argo_ray.run", "argo_ray.rdf", "argo_ray.pipelines.flagship",
    "argo_ray.sparql", "argo_ray.sparql.client", "argo_ray.fuseki", "argo_ray.sinks",
)


def _module_file(root: pathlib.Path, mod: str) -> pathlib.Path | None:
    base = root.joinpath(*mod.split("."))
    for p in (base / "__init__.py", base.with_suffix(".py")):
        if p.is_file():
            return p
    return None


def _imports(root: pathlib.Path, mod: str) -> set[str]:
    """Every module of ``root`` that ``mod`` imports, at any depth of
    its code (function-level imports included)."""
    path = _module_file(root, mod)
    pkg = mod if path.name == "__init__.py" else mod.rpartition(".")[0]
    names: set[str] = set()
    for n in ast.walk(ast.parse(path.read_text())):
        if isinstance(n, ast.Import):
            names.update(a.name for a in n.names)
        elif isinstance(n, ast.ImportFrom):
            base = n.module or ""
            if n.level:
                parts = pkg.split(".")[: len(pkg.split(".")) - n.level + 1]
                base = ".".join(parts + ([n.module] if n.module else []))
            names.add(base)
            names.update(f"{base}.{a.name}" for a in n.names)  # submodule imports
    return {name for name in names if _module_file(root, name)}


def _orphan_modules(root: pathlib.Path, entry_points=ENTRY_POINTS) -> list[str]:
    seen: set[str] = set()
    todo = list(entry_points)
    while todo:
        mod = todo.pop()
        if mod not in seen:
            seen.add(mod)
            parts = mod.split(".")
            todo.extend(".".join(parts[:i]) for i in range(1, len(parts)))  # its packages
            todo.extend(_imports(root, mod))
    modules = {
        ".".join(p.relative_to(root).with_suffix("").parts).removesuffix(".__init__")
        for p in (root / "argo_ray").rglob("*.py")
    }
    return sorted(modules - seen)


def test_every_module_is_reachable_from_an_entry_point():
    """A module that no entry point imports is dead code: delete it, or
    wire it to the job that needs it."""
    orphans = _orphan_modules(PKG.parent)
    assert not orphans, "modules no entry point imports:\n" + "\n".join(orphans)


def test_orphan_guard_sees_an_unimported_module(tmp_path):
    """Function-level and relative imports count; a module nothing
    imports is reported."""
    pkg = tmp_path / "argo_ray"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sub" / "__init__.py").write_text("")
    (pkg / "run.py").write_text("def main():\n    from .sub import used\n")
    (pkg / "sub" / "used.py").write_text("from . import helper\n")
    (pkg / "sub" / "helper.py").write_text("")
    (pkg / "sub" / "dead.py").write_text("import argo_ray.sub.helper\n")
    assert _orphan_modules(tmp_path, ("argo_ray.run",)) == ["argo_ray.sub.dead"]


# the driver registry: every query and its oracle SQL are reached from
# ``KG_QUERIES`` / ``ORACLES``; a helper only a deleted entry used is dead
REGISTRY_MODULES = ("pipelines/queries.py", "pipelines/oracles.py")


def _unreached_functions(path: pathlib.Path) -> list[str]:
    """Module-level functions of ``path`` that no module-level statement
    reaches by name, directly or through other functions."""
    tree = ast.parse(path.read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def named(node: ast.AST) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & defs.keys()

    todo = set().union(*(named(n) for n in tree.body if not isinstance(n, ast.FunctionDef)))
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo |= named(defs[name])
    return sorted(defs.keys() - seen)


def test_registry_modules_have_no_dead_helpers():
    """A query or SQL builder that no registry entry reaches is dead
    code left behind by a deleted entry."""
    dead = [f"{rel}::{name}" for rel in REGISTRY_MODULES
            for name in _unreached_functions(PKG / rel)]
    assert not dead, "functions nothing at module level reaches:\n" + "\n".join(dead)


def test_dead_helper_guard_sees_an_unreached_function(tmp_path):
    """Reached through the registry or another reached function counts;
    a function only dead code or itself calls is reported."""
    mod = tmp_path / "queries.py"
    mod.write_text(
        "def helper():\n    return 1\n"
        "def q_used():\n    return helper()\n"
        "def q_dead():\n    return helper() + q_dead() + _dead_sql()\n"
        "def _dead_sql():\n    return q_dead()\n"
        "REGISTRY = {'used': q_used}\n"
    )
    assert _unreached_functions(mod) == ["_dead_sql", "q_dead"]


def _unnamed_private_defs(root: pathlib.Path) -> list[str]:
    """Private (``_``-prefixed, not dunder) module-level functions and
    classes of the ``argo_ray`` package under ``root`` whose name no
    module of the package uses outside their own definition: as a name,
    an attribute or an imported name."""
    trees = {p: ast.parse(p.read_text()) for p in sorted((root / "argo_ray").rglob("*.py"))}
    uses: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path, tree in trees.items():
        for n in ast.walk(tree):
            name = (n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                    else n.name.rpartition(".")[2] if isinstance(n, ast.alias) else None)
            if name is not None:
                uses.setdefault(name, []).append((path, n.lineno))
    dead = []
    for path, tree in trees.items():
        for d in tree.body:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and d.name.startswith("_") and not d.name.startswith("__")):
                inside = range(d.lineno, d.end_lineno + 1)
                if all(p == path and line in inside for p, line in uses.get(d.name, [])):
                    dead.append(f"{path.relative_to(root).as_posix()}::{d.name}")
    return dead


def test_package_has_no_unnamed_private_defs():
    """A private function or class that nothing in the package names is
    dead code: a private name has no caller outside the package."""
    dead = _unnamed_private_defs(PKG.parent)
    assert not dead, "private functions/classes nothing names:\n" + "\n".join(dead)


def test_private_def_guard_sees_an_unnamed_function(tmp_path):
    """A call, an attribute access or an import from another module
    counts; a private def named only inside itself is reported, and
    public and dunder names are left alone."""
    pkg = tmp_path / "argo_ray"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "def _called():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Attr:\n    pass\n"
        "class _Dead:\n    def m(self):\n        return _Dead\n"
        "def public():\n    return _called()\n"
        "def __getattr__(name):\n    return name\n"
    )
    (pkg / "b.py").write_text(
        "from . import a\nfrom .a import _recursive as r\n"
        "def use():\n    return a._Attr, r\n"
    )
    (pkg / "c.py").write_text("def _orphan():\n    pass\n")
    assert _unnamed_private_defs(tmp_path) == ["argo_ray/a.py::_Dead", "argo_ray/c.py::_orphan"]
