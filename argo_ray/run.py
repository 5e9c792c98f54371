"""Job entrypoint for cluster runs (``ray job submit`` surface).

On a real cluster::

    ray job submit --working-dir . -- python -m argo_ray.run \
        --input /data/sf0.1 --out /data/out/triples --partitions 64

Locally (sandbox) it runs against the local session.  The run is
resumable: each partition commits a parquet shard + lineage record
atomically (argo_ray/state/checkpoint.py); re-submitting the same
command skips committed partitions.
"""

from __future__ import annotations

import argparse
import json


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="argo_ray.run", description=__doc__)
    ap.add_argument("--input", required=True, help="directory with documents.parquet")
    ap.add_argument("--out", required=True, help="output/checkpoint directory")
    ap.add_argument("--partitions", type=int, default=16)
    ap.add_argument("--salt", default="", help="skolemization salt")
    ap.add_argument(
        "--pipeline", choices=("kg", "multisyntax"), default="kg",
        help="kg: pages -> triples -> dedup (flagship); multisyntax: "
        "RDFa + microdata + JSON-LD fan-in -> one deduped KG",
    )
    ap.add_argument(
        "--on-mismatch", choices=("error", "invalidate"), default="error",
        help="resume policy when a committed partition's plan (fragments/"
        "predicate/stage versions) differs from the current plan",
    )
    ap.add_argument(
        "--num-cpus", type=int, default=None,
        help="ray.init num_cpus when starting a fresh local session",
    )
    args = ap.parse_args(argv)

    import ray

    started_here = not ray.is_initialized()
    if started_here:
        kwargs = dict(include_dashboard=False, ignore_reinit_error=True)
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)

    from .state.checkpoint import run_checkpointed

    summary = run_checkpointed(
        args.input, args.out, num_partitions=args.partitions, salt=args.salt,
        on_mismatch=args.on_mismatch, pipeline=args.pipeline,
    )
    print(json.dumps(summary))
    if started_here:  # a host session (tests, driver) owns its lifecycle
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
