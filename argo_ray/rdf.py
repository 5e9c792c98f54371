"""The ``rdf`` CLI equivalent (SURVEY §3.1; reference
``rdf/rdf.go:286-425``): multi-source parse → regex term rewrite →
serialize, as one Ray Data pipeline.

    python -m argo_ray.rdf [files...] -o OUT -O turtle \\
        -r FIND REPLACE --rewrite-subject FIND REPLACE ...

Mapping from the reference:

- positional file globs fan-in (one goroutine per file there;
  ``read_binary_files`` per format + ``Dataset.union`` here), each
  file's format inferred from its extension via the registry
  (``argo.go:199-215``), ``-I`` overriding, rdfxml the fallback;
- stdin with ``-i`` when no files are given (streamed through a temp
  batch — stdin is driver-local by nature);
- ``-r/--rewrite`` + per-position variants compile to
  :class:`~argo_ray.stages.canon.RewriteRule` (Go ``$1`` templates
  translated to RE2 ``\\1``); ``_:``-prefixed results re-sniff to blank
  nodes exactly as ``sniffTerm`` (rdf/rdf.go:255-267);
- ``-o`` directory written by the chosen format's registry writer
  (``Format.write``, one part file per block);
  no ``-o`` → serialize to stdout (driver-side, small outputs);
- ``-F`` lists formats; end-of-run stats line mirrors
  ``rdf/rdf.go:422-424`` (triples processed, rewritten terms, ms) and
  adds the quarantined ``-u`` URLs; every count is read off the
  materialized triples, so a retried task cannot count twice.
- ``-u/--url`` is OPT-IN (reference rdf.go's -u): fetches happen inside
  distributed tasks via :func:`argo_ray.sources.url.read_urls`;
  ``file://`` works everywhere, ``http(s)://`` needs cluster egress —
  the default (no ``-u``) remains strictly no-network.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
import time


def _collect_sources(files: list[str], input_format: str | None):
    """[(format_id, [paths])] — extension-inferred unless overridden."""
    from .sources.registry import FORMATS, format_from_filename

    by_fmt: dict[str, list[str]] = {}
    for patt in files:
        matched = sorted(glob.glob(patt)) or [patt]
        for path in matched:
            if input_format:
                fmt = FORMATS[input_format]
            else:
                fmt = format_from_filename(path) or FORMATS["rdfxml"]
            by_fmt.setdefault(fmt.id, []).append(path)
    return by_fmt


def read_rdf_files(patterns: list[str], input_format: str | None = None) -> list:
    """S5 connector glue (``Graph.ParseFile``, graph.go:281-311) as a
    library entry: glob each pattern, infer every file's format from
    its extension via the registry (unless ``input_format`` overrides),
    and return one parsed triple ``Dataset`` per format group.  Files
    are read distributed (``read_binary_files``); each format's batch
    parser runs inside ``map_batches``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from .sources.registry import FORMATS

    def to_docs(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": pc.cast(b["path"], pa.string()),
                "text": pa.array(
                    [x.decode("utf-8", "replace") for x in b["bytes"].to_pylist()],
                    pa.string(),
                ),
            }
        )

    parts = []
    for fmt_id, paths in _collect_sources(patterns, input_format).items():
        fmt = FORMATS[fmt_id]
        ds = rd.read_binary_files(paths, include_paths=True)
        parts.append(
            ds.map_batches(to_docs, batch_format="pyarrow").map_batches(
                fmt.batch_parser, batch_format="pyarrow"
            )
        )
    return parts


def _rewrite_rules(args) -> list:
    """The CLI's rewrite flags, global rules first (rdf/rdf.go:272-284)."""
    from .stages.canon import RewriteRule, go_template_to_re2

    rules = [RewriteRule(f, go_template_to_re2(r)) for f, r in args.rewrite]
    for pos, pairs in (
        ("subj", args.rewrite_subject),
        ("pred", args.rewrite_predicate),
        ("obj", args.rewrite_object),
    ):
        rules += [RewriteRule(f, go_template_to_re2(r), (pos,)) for f, r in pairs]
    return rules


def build_pipeline(args) -> tuple:
    """→ (triples_ds, quarantined) — the read→parse→rewrite plan, and
    the number of ``-u`` URLs whose fetch or parse was quarantined.

    With rewrite rules, each row carries a ``rewritten`` column: how
    many of its subj/pred/obj values the rules changed."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from .io import configure_context
    from .sources.registry import FORMATS
    from .stages.canon import rewrite_batch
    from .terms import append_subject_hash

    configure_context()

    parts = []
    quarantined = 0
    if args.files:
        parts.extend(read_rdf_files(args.files, args.input_format))
    if getattr(args, "url", None):
        # opt-in URL fan-in (reference ParseURL, graph.go:313-335):
        # quarantined fetch failures are counted, then dropped from the
        # triple stream (use read_urls directly for the crawl error report)
        from .sources.url import read_urls

        fetched = read_urls(list(args.url), format=args.input_format).materialize()
        ok = fetched.map_batches(
            lambda b: b.filter(pc.is_null(b["source_error"])).drop_columns(
                ["source_error"]
            ),
            batch_format="pyarrow",
        ).materialize()
        quarantined = fetched.count() - ok.count()
        parts.append(ok)
    if not parts:  # stdin (driver-local by nature)
        fmt = FORMATS[args.stdin_format]
        text = sys.stdin.read()
        tbl = pa.table({"url": pa.array(["stdin"]), "text": pa.array([text])})
        parts.append(rd.from_arrow(fmt.batch_parser(tbl)))

    triples = parts[0]
    for p in parts[1:]:
        triples = triples.union(p)

    rules = _rewrite_rules(args)
    if rules:
        rehash = any("subj" in r.positions for r in rules)

        def rewrite(b: pa.Table) -> pa.Table:
            out = rewrite_batch(b, rules)
            if rehash and "subject_hash" in out.column_names:
                out = append_subject_hash(out)
            s, p, o = (
                pc.cast(pc.fill_null(pc.not_equal(b[c], out[c]), False), pa.int64())
                for c in ("subj_value", "pred_value", "obj_value")
            )
            return out.append_column("rewritten", pc.add(pc.add(s, p), o))

        triples = triples.map_batches(rewrite, batch_format="pyarrow")
    return triples, quarantined


def main(argv: list[str] | None = None) -> int:
    from .sources.registry import FORMATS, format_from_filename

    ap = argparse.ArgumentParser(
        prog="argo_ray.rdf", description="A tool for manipulating RDF files."
    )
    ap.add_argument("files", nargs="*", help="files/globs to parse and add")
    ap.add_argument("-o", "--output", help="output DIRECTORY (default: stdout)")
    ap.add_argument("-I", "--input-format", choices=sorted(FORMATS))
    ap.add_argument("-u", "--url", action="append", default=[],
                    help="URL to fetch and parse (opt-in; file:// always "
                    "works, http(s):// needs cluster egress)")
    ap.add_argument("-i", "--stdin-format", default="rdfxml", choices=sorted(FORMATS))
    writable = sorted(f.id for f in FORMATS.values() if f.write)
    ap.add_argument("-O", "--output-format", choices=writable)
    ap.add_argument("-F", "--formats", action="store_true", help="list formats")
    ap.add_argument("-r", "--rewrite", nargs=2, action="append", default=[],
                    metavar=("FIND", "REPLACE"))
    ap.add_argument("--rewrite-subject", nargs=2, action="append", default=[],
                    metavar=("FIND", "REPLACE"))
    ap.add_argument("--rewrite-predicate", nargs=2, action="append", default=[],
                    metavar=("FIND", "REPLACE"))
    ap.add_argument("--rewrite-object", nargs=2, action="append", default=[],
                    metavar=("FIND", "REPLACE"))
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args(argv)

    if args.formats:
        for f in FORMATS.values():
            print(f"{f.id:10s} {f.name:12s} {f.preferred_mime_type:24s} "
                  f"{f.preferred_extension}")
        return 0

    out_fmt = args.output_format
    if out_fmt is None and args.output:
        inferred = format_from_filename(args.output)
        out_fmt = inferred.id if inferred else "rdfxml"
    out_fmt = out_fmt or "rdfxml"
    if out_fmt not in writable:  # e.g. rdfa inferred from dir name
        print(f"error: format {out_fmt!r} has no writer", file=sys.stderr)
        return 2

    import ray

    started_here = not ray.is_initialized()
    if started_here:
        kwargs = dict(include_dashboard=False, ignore_reinit_error=True)
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)

    t0 = time.time()
    triples, quarantined = build_pipeline(args)
    # counts come from the committed blocks, so a retried task cannot
    # count twice; the row count is block metadata
    triples = triples.materialize()
    processed = triples.count()
    rewritten = 0
    if _rewrite_rules(args):
        rewritten = triples.sum("rewritten") or 0
        triples = triples.drop_columns(["rewritten"])

    if args.output:
        FORMATS[out_fmt].write(triples, args.output)
    else:
        import pyarrow as pa

        from .terms import TRIPLE_COLUMNS

        # stdout mode is inherently driver-side; stream batches in and
        # drop zero-column padding blocks some operators emit
        batches = [
            b.select(TRIPLE_COLUMNS)
            for b in triples.iter_batches(batch_format="pyarrow")
            if b.num_columns
        ]
        tbl = (
            pa.concat_tables(batches)
            if batches
            else pa.table({c: [] for c in TRIPLE_COLUMNS})
        )
        sys.stdout.write(FORMATS[out_fmt].serializer(tbl))

    ms = int((time.time() - t0) * 1000)
    # stats line mirroring rdf/rdf.go:422-424
    print(
        json.dumps(
            {
                "triples_processed": processed,
                "rewritten": rewritten,
                "quarantined": quarantined,
                "ms": ms,
            }
        ),
        file=sys.stderr,
    )
    if started_here:  # a host session (tests, driver) owns its lifecycle
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
