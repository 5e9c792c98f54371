"""Layer spans for the traced run.

Spans are recorded from the benchmark's own code, around the calls it
hands to each layer:

- driver-side spans (one per operation, SPARQL parse / plan / execute)
  are kept in memory;
- worker-side spans come from wrapping the layer functions Ray Data
  runs in tasks.  The wrappers are installed on the driver before a
  plan is built: ``Dataset.map_batches`` wraps every ``argo_ray`` UDF
  (the layer is the UDF's module), and module attributes that UDFs call
  (``terms.hash64``, ``sources.rdfa.extract_rdfa_batch``, ...) are
  swapped for wrapped twins.  Closures carry the wrappers to the
  workers (this module is pickled by value, like ``argo_ray``).  Each
  worker call appends one record to ``w-<pid>.jsonl`` in the trace
  directory, because a Ray worker has no end-of-run hook;
- the sort exchange runs inside Ray Data, so its time comes from the
  per-operator stats of every dataset the program materializes.

A span record is ``[layer, name, pid, start, end, rows_in, rows_out,
bytes_in, cpu_s]`` with ``time.perf_counter`` clocks (CLOCK_MONOTONIC,
shared by all processes of one machine).  Parents are found afterwards
by interval containment per process; a worker span with no enclosing
worker span belongs to the driver operation that was running.  A
layer's ``busy_s`` is its self CPU time (``time.process_time`` of the
span minus that of its child spans): Ray Data keeps two tasks in flight
even on one CPU, so wall-clock self times of concurrent tasks overlap.
Driver-side spans wait on workers, so their busy time is their wall
self time.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import sys
import time

ARGO = "argo_ray."
# terms-layer kernels called from many modules (rendering and hashing)
TERMS_FNS = ("hash64", "nt_render_lines", "append_subject_hash", "triples_to_table")


def _rows(x) -> int:
    n = getattr(x, "num_rows", None)
    if isinstance(n, int):
        return n
    try:
        return len(x)
    except TypeError:
        return 0


def _nbytes(x) -> int:
    n = getattr(x, "nbytes", None)
    return n if isinstance(n, int) else 0


def _emit(trace_dir: str, rec: list) -> None:
    with open(os.path.join(trace_dir, f"w-{os.getpid()}.jsonl"), "a") as f:
        f.write(json.dumps(rec) + "\n")


def worker_span_fn(fn, layer: str, name: str, trace_dir: str):
    """``fn`` (first argument: a batch, array or table) wrapped to
    record one span per call."""

    def traced(batch, *args, **kwargs):
        c0, t0 = time.process_time(), time.perf_counter()
        out = fn(batch, *args, **kwargs)
        t1, c1 = time.perf_counter(), time.process_time()
        _emit(trace_dir, [layer, name, os.getpid(), t0, t1,
                          _rows(batch), _rows(out), _nbytes(batch), c1 - c0])
        return out

    traced.perfbench_traced = True
    return traced


def method_span_fn(method, layer: str, name: str, trace_dir: str):
    def traced(self, batch, *args, **kwargs):
        c0, t0 = time.process_time(), time.perf_counter()
        out = method(self, batch, *args, **kwargs)
        t1, c1 = time.perf_counter(), time.process_time()
        _emit(trace_dir, [layer, name, os.getpid(), t0, t1,
                          _rows(batch), _rows(out), _nbytes(batch), c1 - c0])
        return out

    traced.perfbench_traced = True
    return traced


def _identity(batch):
    return batch


def _fn_name(fn) -> str:
    return getattr(fn, "__qualname__", None) or type(fn).__qualname__


def _sort_seconds(summary, seen: set) -> float:
    """Summed task wall time of Ray Data's sort sub-operators in a
    dataset's stats.  A result's stats repeat those of the datasets it
    was built from, so each sort execution (keyed by its timing, as
    parent stats carry no dataset id) is counted once."""
    total = 0.0
    for op in summary.operators_stats:
        wall = op.wall_time or {}
        key = (op.operator_name, wall.get("sum"), wall.get("max"))
        if op.operator_name.startswith("Sort") and key not in seen:
            seen.add(key)
            total += float(wall.get("sum", 0.0))
    for parent in summary.parents:
        total += _sort_seconds(parent, seen)
    return total


class Tracer:
    """Installs the wrappers, keeps driver spans in memory and turns
    all spans into per-layer numbers."""

    def __init__(self, trace_dir: str, workload: str, run_id: str):
        self.trace_dir = trace_dir
        self.workload = workload
        self.run_id = run_id
        os.makedirs(trace_dir, exist_ok=True)
        self.spans: list[list] = []
        self.ops: list[dict] = []
        self.sort_events: list[tuple[float, float]] = []  # (when, seconds)
        self._undo: list[tuple] = []
        self._seen_stats: set = set()
        import ray.cloudpickle
        import cloudpickle

        for cp in (ray.cloudpickle, cloudpickle):
            cp.register_pickle_by_value(sys.modules[__name__])

    # ---- driver-side spans ------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str, name: str = ""):
        rec = [layer, name, os.getpid(), time.perf_counter(), None, 0, 0, 0, None]
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            rec[8] = rec[4] - rec[3]  # the driver waits on workers: busy = wall
            self.spans.append(rec)

    @contextlib.contextmanager
    def op(self, cls: str):
        """One operation of the workload; ``attrs`` collects its counts."""
        op = {"cls": cls, "t0": time.perf_counter(), "t1": None, "attrs": {}}
        try:
            yield op["attrs"]
        finally:
            op["t1"] = time.perf_counter()
            self.ops.append(op)

    def record_stats(self, ds) -> None:
        try:
            summary = ds._get_stats_summary()
        except Exception:  # stats are best-effort; a missing one reads as 0
            return
        self.sort_events.append(
            (time.perf_counter(), _sort_seconds(summary, self._seen_stats))
        )

    # ---- wrappers -----------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _patch_everywhere(self, orig, wrapped) -> None:
        """Rebind ``orig`` to ``wrapped`` in every argo_ray module that
        imported it by name."""
        name = orig.__name__
        for modname, mod in list(sys.modules.items()):
            if (modname == "argo_ray" or modname.startswith(ARGO)) and \
                    getattr(mod, "__dict__", {}).get(name) is orig:
                self._set(mod, name, wrapped)

    def install(self) -> None:
        import ray.data

        # import every module that binds a wrapped function by name, so
        # the rebinding below reaches it
        import argo_ray.io
        import argo_ray.pipelines.flagship
        import argo_ray.rdf
        import argo_ray.sinks.ntriples
        import argo_ray.sinks.turtle
        import argo_ray.sources.ntriples
        import argo_ray.sources.rdfa
        import argo_ray.sources.registry
        import argo_ray.sparql.engine
        import argo_ray.sparql.parser
        import argo_ray.stages.canon
        import argo_ray.stages.materialize
        import argo_ray.terms

        tdir = self.trace_dir
        Dataset = ray.data.Dataset
        orig_map_batches = Dataset.map_batches
        orig_materialize = Dataset.materialize

        def map_batches(ds, fn, *args, **kwargs):
            mod = getattr(fn, "__module__", None) or ""
            if (
                not isinstance(fn, type)
                and mod.startswith(ARGO)
                and not getattr(fn, "perfbench_traced", False)
            ):
                fn = worker_span_fn(fn, mod[len(ARGO):], _fn_name(fn), tdir)
            return orig_map_batches(ds, fn, *args, **kwargs)

        def materialize(ds, *args, **kwargs):
            out = orig_materialize(ds, *args, **kwargs)
            self.record_stats(out)
            return out

        self._set(Dataset, "map_batches", map_batches)
        self._set(Dataset, "materialize", materialize)

        io_probe = worker_span_fn(_identity, "io", "block", tdir)

        def probe(ds):
            return orig_map_batches(ds, io_probe, batch_format="pyarrow", batch_size=None)

        # the program's readers: io.read_table (Parquet tables) and the
        # rdf CLI's read_binary_files call
        orig_read_table = argo_ray.io.read_table
        orig_read_files = ray.data.read_binary_files
        self._patch_everywhere(orig_read_table, lambda *a, **k: probe(orig_read_table(*a, **k)))
        self._set(ray.data, "read_binary_files",
                  lambda *a, **k: probe(orig_read_files(*a, **k)))

        for name in TERMS_FNS:
            orig = getattr(argo_ray.terms, name)
            self._patch_everywhere(orig, worker_span_fn(orig, "terms", name, tdir))
        for mod, name, layer in (
            (argo_ray.sources.rdfa, "extract_rdfa_batch", "sources.rdfa"),
            (argo_ray.stages.canon, "rewrite_batch", "stages.canon"),
        ):
            orig = getattr(mod, name)
            self._patch_everywhere(orig, worker_span_fn(orig, layer, name, tdir))

        renderer = argo_ray.sinks.turtle.TurtleBlockRenderer
        self._set(renderer, "__call__", method_span_fn(
            renderer.__call__, "sinks.turtle", "TurtleBlockRenderer", tdir))

        orig_parse = argo_ray.sparql.parser.parse_query

        def parse_query(text, *args, **kwargs):
            with self.span("sparql.parser", "parse_query"):
                return orig_parse(text, *args, **kwargs)

        parse_query.__name__ = orig_parse.__name__
        self._patch_everywhere(orig_parse, parse_query)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---- analysis -----------------------------------------------------------

    def collect(self) -> list[dict]:
        """All spans (driver + workers + ops) with ids, parents and self
        times, sorted by start."""
        recs = list(self.spans)
        for path in glob.glob(os.path.join(self.trace_dir, "w-*.jsonl")):
            with open(path) as f:
                recs.extend(json.loads(line) for line in f if line.strip())
        spans = [
            {"layer": "op", "name": o["cls"], "pid": os.getpid(), "start": o["t0"],
             "end": o["t1"], "rows_in": 0, "rows_out": 0, "bytes_in": 0,
             "cpu_s": o["t1"] - o["t0"], "attrs": o["attrs"]}
            for o in self.ops
        ]
        spans += [
            {"layer": r[0], "name": r[1], "pid": r[2], "start": r[3], "end": r[4],
             "rows_in": r[5], "rows_out": r[6], "bytes_in": r[7], "cpu_s": r[8]}
            for r in recs
        ]
        spans.sort(key=lambda s: (s["start"], -s["end"]))
        for i, s in enumerate(spans):
            s.update(id=i, parent=None, child_s=0.0, child_cpu_s=0.0, op=None,
                     workload=self.workload, run=self.run_id)
        ops = [s for s in spans if s["layer"] == "op"]
        by_pid: dict[int, list[dict]] = {}
        for s in spans:
            by_pid.setdefault(s["pid"], []).append(s)
        for group in by_pid.values():
            stack: list[dict] = []
            for s in group:
                while stack and stack[-1]["end"] <= s["start"]:
                    stack.pop()
                if stack and s["end"] <= stack[-1]["end"]:
                    s["parent"] = stack[-1]["id"]
                    stack[-1]["child_s"] += s["end"] - s["start"]
                    stack[-1]["child_cpu_s"] += s["cpu_s"]
                stack.append(s)
        for s in spans:
            s["self_s"] = max(0.0, s["end"] - s["start"] - s["child_s"])
            s["busy_s"] = max(0.0, s["cpu_s"] - s["child_cpu_s"])
            if s["layer"] == "op":
                continue
            for o in ops:
                if o["start"] <= s["start"] <= o["end"]:
                    s["op"] = o["id"]
                    if s["parent"] is None:
                        s["parent"] = o["id"]
                    break
        return spans

    def write(self, spans: list[dict]) -> str:
        path = os.path.join(self.trace_dir, "spans.jsonl")
        with open(path, "w") as f:
            for s in spans:
                f.write(json.dumps({k: v for k, v in s.items() if not k.startswith("child")}) + "\n")
        return path


# --------------------------------------------------------------------------
# per-layer metrics (names are ``<module>.<metric>``; see perfbench/README.md)
# --------------------------------------------------------------------------

PER_LAYER = [
    ("io.blocks", "count"), ("io.rows", "count"),
    ("pages.busy_s", "s"), ("pages.rows_out", "count"),
    ("sources.rdfa.busy_s", "s"), ("sources.rdfa.rows_in", "count"),
    ("sources.rdfa.rows_out", "count"),
    ("terms.busy_s", "s"),
    ("stages.materialize.busy_s", "s"),
    ("stages.materialize.combiner_keep_ratio", "ratio"),
    ("stages.materialize.distinct_ratio", "ratio"),
    ("stages.grouping.sort_s", "s"), ("stages.grouping.busy_s", "s"),
    ("stages.grouping.max_group_rows", "count"),
    ("stages.grouping.max_block_rows", "count"),
    ("sinks.ntriples.busy_s", "s"), ("sinks.ntriples.files", "count"),
    ("sinks.ntriples.bytes", "bytes"),
    ("sources.ntriples.busy_s", "s"), ("sources.ntriples.bytes_in", "bytes"),
    ("sources.ntriples.rows_out", "count"),
    ("stages.canon.busy_s", "s"), ("stages.canon.rewritten", "count"),
    ("sinks.turtle.busy_s", "s"), ("sinks.turtle.groups", "count"),
    ("sinks.turtle.files", "count"), ("sinks.turtle.bytes", "bytes"),
    ("sparql.parser.busy_s", "s"), ("sparql.parser.calls", "count"),
    ("sparql.engine.lookup_plan_s", "s"), ("sparql.engine.lookup_exec_s", "s"),
    ("sparql.engine.lookup_result_rows", "count"),
    ("sparql.engine.join_plan_s", "s"), ("sparql.engine.join_exec_s", "s"),
    ("sparql.engine.join_result_rows", "count"),
    ("trace.overhead_ratio", "ratio"),
]

BUSY_LAYERS = (
    "pages", "sources.rdfa", "terms", "stages.materialize", "stages.grouping",
    "sinks.ntriples", "sources.ntriples", "stages.canon", "sinks.turtle",
    "sparql.parser",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], sort_events, overhead_ratio: float) -> tuple[dict, dict]:
    """Per-operation means over the traced operations (``setup`` ops
    only feed ``io.*``, where the query store is read).  Returns
    (metrics, bases): ``bases`` gives each ratio's numerator and
    denominator."""
    ops = {s["id"]: s for s in spans if s["layer"] == "op"}
    work = {i for i, o in ops.items() if o["name"] != "setup"}
    n = max(1, len(work))

    def sel(layer, name=None, scope=work):
        return [s for s in spans if s["layer"] == layer and s["op"] in scope
                and (name is None or s["name"] == name)]

    def attr_mean(key):
        return sum(ops[i]["attrs"].get(key, 0) for i in work) / n

    m: dict[str, float] = {}
    bases: dict[str, tuple[float, float]] = {}
    # kg_query reads its store at set-up; the batch jobs read per job
    io = sel("io") or sel("io", scope=set(ops))
    io_units = max(1, len({s["op"] for s in io}))
    m["io.blocks"] = len(io) / io_units
    m["io.rows"] = sum(s["rows_in"] for s in io) / io_units
    for layer in BUSY_LAYERS:
        m[f"{layer}.busy_s"] = sum(s["busy_s"] for s in sel(layer)) / n
    m["pages.rows_out"] = sum(s["rows_out"] for s in sel("pages")) / n
    rdfa = sel("sources.rdfa", "extract_rdfa_batch")
    m["sources.rdfa.rows_in"] = sum(s["rows_in"] for s in rdfa) / n
    m["sources.rdfa.rows_out"] = sum(s["rows_out"] for s in rdfa) / n

    comb = sel("stages.materialize", "_dedup_within_batch")
    comb_in = sum(s["rows_in"] for s in comb)
    comb_out = sum(s["rows_out"] for s in comb)
    dedup_out = sum(s["rows_out"] for s in sel("stages.grouping", "sorted_unique.<locals>.dedup_block"))
    m["stages.materialize.combiner_keep_ratio"] = _ratio(comb_out, comb_in)
    bases["stages.materialize.combiner_keep_ratio"] = (comb_out, comb_in)
    m["stages.materialize.distinct_ratio"] = _ratio(dedup_out, comb_in)
    bases["stages.materialize.distinct_ratio"] = (dedup_out, comb_in)

    windows = [(ops[i]["start"], ops[i]["end"]) for i in work]
    m["stages.grouping.sort_s"] = sum(
        sec for t, sec in sort_events if any(a <= t <= b for a, b in windows)
    ) / n
    groups = sel("sinks.turtle", "TurtleBlockRenderer")
    m["stages.grouping.max_group_rows"] = max((s["rows_in"] for s in groups), default=0)
    m["stages.grouping.max_block_rows"] = max(
        (s["rows_in"] for s in sel("stages.grouping")), default=0)

    m["sinks.ntriples.files"] = attr_mean("nt_files")
    m["sinks.ntriples.bytes"] = attr_mean("nt_bytes")
    nt_parse = sel("sources.ntriples", "parse_ntriples_batch")
    m["sources.ntriples.bytes_in"] = sum(s["bytes_in"] for s in nt_parse) / n
    m["sources.ntriples.rows_out"] = sum(s["rows_out"] for s in nt_parse) / n
    m["stages.canon.rewritten"] = attr_mean("rewritten")
    m["sinks.turtle.groups"] = len(groups) / n
    m["sinks.turtle.files"] = attr_mean("ttl_files")
    m["sinks.turtle.bytes"] = attr_mean("ttl_bytes")
    m["sparql.parser.calls"] = len(sel("sparql.parser")) / n

    for cls in ("lookup", "join"):
        scope = {i for i in work if ops[i]["name"] == cls}
        k = max(1, len(scope))
        m[f"sparql.engine.{cls}_plan_s"] = sum(
            s["self_s"] for s in sel("sparql.engine", "plan", scope)) / k
        m[f"sparql.engine.{cls}_exec_s"] = sum(
            s["self_s"] for s in sel("sparql.engine", "exec", scope)) / k
        m[f"sparql.engine.{cls}_result_rows"] = sum(
            ops[i]["attrs"].get("rows", 0) for i in scope) / k
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: m[name] for name, _ in PER_LAYER}, bases
