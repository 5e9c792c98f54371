"""The two workloads.

Each one drives public entry points of the program the way its users
do and checks every output against an oracle (``oracle.py``):

- ``kg_batch``: per round, one KG construction job
  (``pipelines.flagship`` + ``sinks.ntriples.write_ntriples``) and one
  conversion job (the ``rdf`` CLI, ``argo_ray.rdf.main``);
- ``kg_query``: ``sparql.evaluate_select`` / ``evaluate_ask`` over a
  store loaded once at set-up.

A workload generates its inputs (``prepare``, cached per seed), warms
up and loads standing state (``setup``), yields rounds of operations
with a fixed class mix (``rounds``) and runs one operation
(``execute``).  After the measured window, ``checker`` builds the
oracle and ``check`` compares each kept output with it.
``p50_cls`` names the operation class whose latency is ``op_p50_s``.
"""

from __future__ import annotations

import contextlib
import glob
import io
import itertools
import json
import os
import shutil

import gen
import oracle


def _dir_stats(path: str, ext: str) -> tuple[int, int]:
    files = glob.glob(os.path.join(path, f"*{ext}"))
    return len(files), sum(os.path.getsize(f) for f in files)


class KgBatch:
    """The two batch entry points, one job of each per round: KG
    construction (``flagship`` + ``write_ntriples`` on seeded
    documents) and conversion (the ``rdf`` CLI, N-Triples to Turtle
    with a subject rewrite, on seeded N-Triples files).  They share a
    workload so that a run holds several rounds of both within the time
    budget; neither job reads the other's output, so each keeps its own
    input shape."""

    name = "kg_batch"
    loop = "batch jobs, one at a time"
    p50_cls = "build"
    n_docs = 3_000
    warm_docs = 64
    convert_docs = 1_500
    n_files = 16

    @property
    def key(self) -> str:
        return f"{self.name}-d{self.n_docs}-c{self.convert_docs}-f{self.n_files}"

    def prepare(self, inp: str, seed: int) -> dict:
        gen.write_documents(os.path.join(inp, "documents.parquet"), self.n_docs, seed)
        os.makedirs(os.path.join(inp, "warm"))
        gen.write_documents(os.path.join(inp, "warm", "documents.parquet"), self.warm_docs, seed)
        build = oracle.expected_build(os.path.join(inp, "documents.parquet"))
        lines = gen.nt_lines(self.convert_docs, seed)
        gen.write_nt_files(os.path.join(inp, "nt"), lines, self.n_files)
        gen.write_nt_files(os.path.join(inp, "warm_nt"), gen.nt_lines(20, seed), 2)
        convert = oracle.expected_convert(lines)
        return {"build": build, "convert": convert,
                "size": (f"build: {self.n_docs} documents -> {build['triples']} distinct "
                         f"triples; convert: {len(lines)} N-Triples lines in "
                         f"{self.n_files} files")}

    @staticmethod
    def _build(docs_dir: str, out: str):
        from argo_ray.pipelines.flagship import flagship
        from argo_ray.sinks.ntriples import write_ntriples

        return write_ntriples(flagship(docs_dir), out)

    @staticmethod
    def _convert(nt_dir: str, out: str) -> dict:
        """One ``rdf`` CLI run; returns its end-of-run stats line."""
        from argo_ray import rdf

        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = rdf.main([
                os.path.join(nt_dir, "*.nt"), "-o", out, "-O", "turtle",
                "--rewrite-subject", gen.REWRITE_FIND, gen.REWRITE_REPLACE,
            ])
        if rc != 0:
            raise RuntimeError(f"rdf CLI exited {rc}: {err.getvalue()[-500:]}")
        stats = [ln for ln in err.getvalue().splitlines() if ln.startswith("{")]
        return json.loads(stats[-1]) if stats else {}

    def setup(self, ctx) -> None:
        out = ctx.new_out()
        self._build(os.path.join(ctx.inp, "warm"), out)
        shutil.rmtree(out)
        out = ctx.new_out()
        self._convert(os.path.join(ctx.inp, "warm_nt"), out)
        shutil.rmtree(out)

    def rounds(self, ctx, state):
        return itertools.repeat([{"cls": "build"}, {"cls": "convert"}])

    def execute(self, ctx, state, op, attrs, tracer) -> dict:
        out = ctx.new_out()
        if op["cls"] == "build":
            manifest = self._build(ctx.inp, out)
            return {"out": out, "items": int(manifest["rows"].sum())}
        stats = self._convert(os.path.join(ctx.inp, "nt"), out)
        attrs["rewritten"] = stats.get("rewritten", 0)
        return {"out": out, "items": ctx.info["convert"]["triples"]}

    def checker(self, ctx) -> dict:
        return ctx.info

    def check(self, info, op, res, attrs) -> str | None:
        try:
            if op["cls"] == "build":
                attrs["nt_files"], attrs["nt_bytes"] = _dir_stats(res["out"], ".nt")
                return oracle.check_build(res["out"], info["build"])
            attrs["ttl_files"], attrs["ttl_bytes"] = _dir_stats(res["out"], ".ttl")
            return oracle.check_convert(res["out"], info["convert"])
        finally:
            shutil.rmtree(res["out"], ignore_errors=True)


class KgQuery:
    name = "kg_query"
    loop = "closed loop, one client"
    p50_cls = "lookup"
    n_docs = 5_000
    # The mix of 12 lookups to 2 joins per round is an assumption: no
    # traffic ratio between the two classes is known.  op_p50_s is the
    # lookup p50 whatever the mix; throughput depends on it.
    lookups_per_round = 12
    n_rounds = 8

    @property
    def key(self) -> str:
        return f"{self.name}-d{self.n_docs}-l{self.lookups_per_round}"

    def prepare(self, inp: str, seed: int) -> dict:
        import pyarrow.parquet as pq

        docs = os.path.join(inp, "documents.parquet")
        gen.write_documents(docs, self.n_docs, seed)
        store = oracle.store_table(docs)
        os.remove(docs)  # the program sees only the store
        pq.write_table(store, os.path.join(inp, "store.parquet"))
        entities = sorted(
            v for v in set(store["subj_value"].to_pylist())
            if v.startswith("https://kg.example.org/doc/")
        )
        rounds = gen.query_schedule(entities, self.n_rounds, seed, self.lookups_per_round)
        with open(os.path.join(inp, "schedule.json"), "w") as f:
            json.dump(rounds, f)
        return {"size": (f"store of {store.num_rows} triples; rounds of "
                         f"{self.lookups_per_round} lookups + "
                         f"{len(gen.JOIN_TEMPLATES)} joins")}

    def checker(self, ctx):
        import pyarrow.parquet as pq

        return oracle.QueryOracle(pq.read_table(os.path.join(ctx.inp, "store.parquet")))

    def setup(self, ctx):
        from argo_ray.io import read_table
        from argo_ray.sparql import evaluate_ask, evaluate_select

        store = read_table(ctx.inp, "store").materialize()
        evaluate_select(store, "SELECT ?p ?o WHERE { <urn:warm-up> ?p ?o }").take_all()
        evaluate_ask(store, "ASK { <urn:warm-up> ?p ?o }")
        return store

    def rounds(self, ctx, store):
        with open(os.path.join(ctx.inp, "schedule.json")) as f:
            return itertools.cycle(json.load(f))

    def execute(self, ctx, store, op, attrs, tracer) -> dict:
        from argo_ray.sparql import evaluate_ask, evaluate_select

        if op["kind"] == "ask_lang":
            with tracer.span("sparql.engine", "plan"):
                result = evaluate_ask(store, op["query"])
            attrs["rows"] = 1
        else:
            with tracer.span("sparql.engine", "plan"):
                ds = evaluate_select(store, op["query"])
            with tracer.span("sparql.engine", "exec"):
                result = ds.take_all()
            tracer.record_stats(ds)
            attrs["rows"] = len(result)
        return {"result": result, "items": 1}

    def check(self, query_oracle, op, res, attrs) -> str | None:
        return oracle.check_query(op, res["result"], query_oracle.expected(op))


WORKLOADS = {w.name: w for w in (KgBatch(), KgQuery())}
