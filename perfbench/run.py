"""Benchmark entry point.

    python3 perfbench/run.py --workload kg_batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it print the same numbers with their units.  With
``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones from a
traced window, plus the tracing overhead against an untraced window of
the same run.  See perfbench/README.md for the workloads and metrics.

Everything the benchmark writes goes under ``.pb/`` (inputs cached per
seed, outputs, traces) and ``.r/`` (Ray's session directory) in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import procs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# AF_UNIX socket paths are capped at 107 bytes and Ray's session suffix
# takes ~63 of them
MAX_RAY_TEMP_DIR = 44
KEEP_INPUT_SETS = 6


class NullTracer:
    """Tracing off: the same calls as ``spans.Tracer``, doing nothing."""

    @contextlib.contextmanager
    def span(self, layer, name=""):
        yield None

    @contextlib.contextmanager
    def op(self, cls):
        yield {}

    def record_stats(self, ds):
        pass


class Context:
    def __init__(self, inp: str, info: dict, run_dir: str):
        self.inp = inp
        self.info = info
        self.run_dir = run_dir
        self._n = 0

    def new_out(self) -> str:
        self._n += 1
        return os.path.join(self.run_dir, f"out-{self._n}")


def cached_inputs(work: str, wl, seed: int) -> tuple[str, dict, bool]:
    """Inputs for (workload, seed), generated once and reused."""
    base = os.path.join(work, "inputs")
    inp = os.path.join(base, f"{wl.key}-s{seed}")
    info_path = os.path.join(inp, "info.json")
    if os.path.exists(info_path):
        with open(info_path) as f:
            return inp, json.load(f), True
    tmp = f"{inp}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    info = wl.prepare(tmp, seed)
    with open(os.path.join(tmp, "info.json"), "w") as f:
        json.dump(info, f)
    shutil.rmtree(inp, ignore_errors=True)
    os.rename(tmp, inp)
    sets = sorted(
        (os.path.join(base, d) for d in os.listdir(base) if ".tmp" not in d),
        key=os.path.getmtime,
    )
    for old in sets[:-KEEP_INPUT_SETS]:
        shutil.rmtree(old, ignore_errors=True)
    return inp, info, False


def nproc() -> int:
    """CPUs as ``nproc`` counts them (it honours ``OMP_NUM_THREADS``)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def _exit_on_sigterm(signum, frame) -> None:
    sys.exit(128 + signum)


class RaySession:
    """One local Ray cluster with ``num_cpus`` = ``nproc``."""

    def __init__(self, temp_dir: str | None):
        self.temp_dir = temp_dir
        self.session_dir = None

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        kwargs = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(
            address="local",
            num_cpus=nproc(),
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
            **kwargs,
        )
        DataContext.get_current().enable_progress_bars = False
        # ray.init installs a SIGTERM handler that aborts the process;
        # ours unwinds it, so the run still stops everything it started
        signal.signal(signal.SIGTERM, _exit_on_sigterm)
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()

    def stop(self) -> None:
        import ray

        ray.shutdown()
        procs.stop_all()
        if self.temp_dir and self.session_dir:
            shutil.rmtree(self.session_dir, ignore_errors=True)


def measure(wl, ctx, state, seconds: float, tracer) -> list[dict]:
    """Closed loop: whole rounds while the next one, taking as long as
    the last, still fits in ``seconds`` of operation time (at least one
    round).  Outputs are kept for ``check_all``."""
    samples = []
    busy = last = 0.0
    rounds = wl.rounds(ctx, state)
    k = 0
    while k == 0 or busy + last <= seconds:
        k += 1
        start = busy
        for op in next(rounds):
            res, err = None, None
            with tracer.op(op["cls"]) as attrs:
                t0 = time.perf_counter()
                try:
                    res = wl.execute(ctx, state, op, attrs, tracer)
                except Exception as e:  # a failed operation is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    err = f"{type(e).__name__}: {e}"
                wall = time.perf_counter() - t0
            busy += wall
            samples.append({"cls": op["cls"], "round": k, "wall": wall, "op": op,
                            "res": res, "attrs": attrs, "err": err})
        last = busy - start
    return samples


def check_all(wl, ctx, samples: list[dict]) -> None:
    """Checks every kept output against the oracle.  It runs after the
    Ray session has stopped, so the checker adds neither time nor
    memory to what is measured."""
    checker = wl.checker(ctx)
    for s in samples:
        res = s.pop("res")
        if s["err"] is None:
            try:
                s["err"] = wl.check(checker, s["op"], res, s["attrs"])
            except Exception as e:  # a checker crash is a failed check
                traceback.print_exc(file=sys.stderr)
                s["err"] = f"check raised {type(e).__name__}: {e}"
        if s["err"]:
            print(f"perfbench: {wl.name} {s['cls']} FAILED: {s['err']}", file=sys.stderr)
        s["ok"] = s["err"] is None
        s["items"] = res["items"] if s["ok"] else 0


def _setup(wl, ctx, session):
    t0 = time.perf_counter()
    session.start()
    state = wl.setup(ctx)
    return state, time.perf_counter() - t0


def round_walls(samples: list[dict]) -> list[float]:
    walls: dict[int, float] = {}
    for s in samples:
        walls[s["round"]] = walls.get(s["round"], 0.0) + s["wall"]
    return [walls[k] for k in sorted(walls)]


def round_rates(samples: list[dict]) -> list[float]:
    """Items per second of each round (one job of each kind on
    kg_batch, one pass over kg_query's fixed class mix)."""
    items: dict[int, float] = {}
    for s in samples:
        items[s["round"]] = items.get(s["round"], 0) + s["items"]
    return [items[k] / w for k, w in zip(sorted(items), round_walls(samples))]


def run(wl, ctx, seconds: float, trace: bool, temp_dir: str | None) -> dict:
    from pss import PssSampler

    session = RaySession(temp_dir)
    if not trace:
        setups = []
        try:
            for i in range(SETUP_REPEATS):
                if i:
                    session.stop()
                state, sec = _setup(wl, ctx, session)
                setups.append(sec)
            with PssSampler() as mem:
                samples = measure(wl, ctx, state, seconds, NullTracer())
        finally:
            session.stop()
        check_all(wl, ctx, samples)
        return {"setups": setups, "samples": samples, "peak_mem_mb": mem.peak_mb,
                "mem_samples": mem.samples}

    from spans import Tracer, layer_metrics

    run_id = f"{wl.name}-s{ctx.info['seed']}-{os.getpid()}"
    tracer = Tracer(os.path.join(ctx.run_dir, "trace"), wl.name, run_id)
    try:
        state, _ = _setup(wl, ctx, session)
        untraced = measure(wl, ctx, state, seconds / 2, NullTracer())
        # Both windows start from a fresh session and one set-up.  The
        # traced set-up is an operation of its own because it is where
        # kg_query reads its store.
        session.stop()
        with tracer.installed():
            with tracer.op("setup"):
                state, _ = _setup(wl, ctx, session)
            traced = measure(wl, ctx, state, seconds / 2, tracer)
    finally:
        session.stop()
    check_all(wl, ctx, untraced + traced)
    traced_s = statistics.median(round_walls(traced))
    untraced_s = statistics.median(round_walls(untraced))
    spans = tracer.collect()
    metrics, bases = layer_metrics(spans, tracer.sort_events, traced_s / untraced_s)
    return {"samples": untraced + traced, "metrics": metrics, "bases": bases,
            "spans": spans, "spans_path": tracer.write(spans),
            "overhead": (traced_s, untraced_s)}


def end_to_end(wl, out: dict) -> dict:
    samples = out["samples"]
    walls = [s for s in samples if s["cls"] == wl.p50_cls]
    ok = [s["wall"] for s in walls if s["ok"]] or [s["wall"] for s in walls]
    return {
        "setup_s": (statistics.median(out["setups"]), "s"),
        "op_p50_s": (statistics.median(ok), "s"),
        "throughput": (statistics.median(round_rates(samples)), "1/s"),
        "peak_mem_mb": (out["peak_mem_mb"], "MB"),
    }


def report_end_to_end(wl, out: dict, metrics: dict) -> None:
    samples = out["samples"]
    per = "distinct triples written" if wl.name != "kg_query" else "queries answered"
    classes = sorted({s["cls"] for s in samples})
    notes = {
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in out["setups"]),
        "op_p50_s": f"median over {sum(1 for s in samples if s['cls'] == wl.p50_cls)} "
                    f"{wl.p50_cls} operations",
        "throughput": f"median over {len(round_rates(samples))} rounds of {per} per second",
        "peak_mem_mb": f"driver + Ray processes, {out['mem_samples']} samples",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:>14.4f} {unit:<4}  ({notes[name]})")
    for c in classes:
        walls = [s["wall"] for s in samples if s["cls"] == c and s["ok"]]
        if walls:
            print(f"  {c} p50 {statistics.median(walls):.4f} s over {len(walls)} ok samples: "
                  + " ".join(f"{w:.3f}" for w in walls[:20]))


def report_layers(wl, out: dict) -> None:
    from spans import PER_LAYER

    units = dict(PER_LAYER)
    for name, value in out["metrics"].items():
        base = out["bases"].get(name)
        note = f"  ({base[0]:.0f} / {base[1]:.0f})" if base else ""
        print(f"  {name:<40} {value:>14.4f} {units[name]}{note}")
    traced, untraced = out["overhead"]
    print(f"  tracing overhead: median round {traced:.3f} s traced vs {untraced:.3f} s "
          "untraced")
    work = [s for s in out["spans"] if s["op"] is not None and s["layer"] != "op"
            and out["spans"][s["op"]]["name"] != "setup"]
    busy: dict[str, dict[str, float]] = {}
    for s in work:
        per_layer = busy.setdefault(out["spans"][s["op"]]["name"], {})
        per_layer[s["layer"]] = per_layer.get(s["layer"], 0.0) + s["busy_s"]
    for cls, per_layer in sorted(busy.items()):
        ranked = sorted(per_layer.items(), key=lambda kv: -kv[1])[:4]
        print(f"  largest self time per layer, {cls} operations (s, whole traced window): "
              + ", ".join(f"{k} {v:.3f}" for k, v in ranked))
    print(f"  spans: {out['spans_path']} ({len(out['spans'])} spans)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Every process the run starts is stopped and waited for, whichever
    # way the run ends.
    procs.become_subreaper()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(args)
    finally:
        procs.stop_all(grace=5)


def _main(args) -> int:
    sys.path.insert(0, ROOT)
    try:
        import argo_ray  # noqa: F401
        import ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the program under test ({e}); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

    work = os.path.join(ROOT, ".pb")
    t0 = time.perf_counter()
    inp, info, cached = cached_inputs(work, wl, args.seed)
    info["seed"] = args.seed
    gen_s = time.perf_counter() - t0
    run_dir = os.path.join(work, "runs", f"{wl.name}-s{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    ctx = Context(inp, info, run_dir)

    temp_dir = os.path.join(ROOT, ".r")
    if len(temp_dir) > MAX_RAY_TEMP_DIR:
        print(f"perfbench: checkout path too long for Ray's sockets under {temp_dir}; "
              "Ray uses its default temp dir", file=sys.stderr)
        temp_dir = None
    else:
        os.makedirs(temp_dir, exist_ok=True)

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {info['size']}; {wl.loop}")
    print(f"  inputs {'reused' if cached else 'generated'} in {gen_s:.3f} s "
          "(not part of setup_s)")
    out = run(wl, ctx, args.seconds, bool(args.trace), temp_dir)

    samples = out["samples"]
    failed = sum(1 for s in samples if not s["ok"])
    if args.trace:
        from spans import PER_LAYER

        report_layers(wl, out)
        units = dict(PER_LAYER)
        metrics = {n: {"value": v, "unit": units[n]} for n, v in out["metrics"].items()}
    else:
        shutil.rmtree(run_dir, ignore_errors=True)
        e2e = end_to_end(wl, out)
        report_end_to_end(wl, out, e2e)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    print(f"  failed_ratio {failed / len(samples):.4f} ({failed} of {len(samples)} "
          "attempted operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
