"""`rdf` CLI equivalent (SURVEY §3.1): multi-format fan-in, rewrites,
format listing, stdout/directory sinks."""

import json

import pyarrow as pa
import pytest

from conftest import SF_DIR  # noqa: F401  (ray_session fixture import path)

from argo_ray.sources.registry import FORMATS


@pytest.fixture
def sources(tmp_path):
    (tmp_path / "a.nt").write_text(
        '<http://old.example.org/s1> <http://p/name> "Alice" .\n'
        '_:b1 <http://p/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )
    (tmp_path / "b.ttl").write_text(
        "<http://old.example.org/s2>\n  <http://p/name> \"Bob\"@en ;\n.\n"
    )
    return tmp_path


def _stats(err: str) -> dict:
    """The end-of-run stats line (the last JSON line on stderr)."""
    return json.loads([ln for ln in err.splitlines() if ln.startswith("{")][-1])


def test_cli_mixed_format_fanin_with_rewrite(ray_session, sources, tmp_path, capsys):
    from argo_ray.rdf import main
    from argo_ray.sources.ntriples import parse_ntriples

    out = tmp_path / "out"
    rc = main([
        str(sources / "a.nt"), str(sources / "b.ttl"),
        "-o", str(out), "-O", "ntriples",
        "-r", r"^http://old\.example\.org/(.*)$", "http://new.example.org/$1",
    ])
    assert rc == 0
    lines = []
    for p in out.glob("*.nt"):
        lines += [ln for ln in p.read_text().splitlines() if ln]
    triples = parse_ntriples("\n".join(lines))
    subjects = {t[0].value for t in triples if t[0].kind == 0}
    assert subjects == {"http://new.example.org/s1", "http://new.example.org/s2"}
    assert len(triples) == 3  # both files fanned in


@pytest.mark.parametrize(
    "out_fmt", sorted(f.id for f in FORMATS.values() if f.serializer)
)
def test_cli_stdout_roundtrip(ray_session, sources, capsys, out_fmt):
    """Every format with a serializer writes stdout that its own parser
    reads back; triples from a file carry no graph columns."""
    from argo_ray.rdf import main

    rc = main([str(sources / "a.nt"), "-O", out_fmt])
    assert rc == 0
    doc = capsys.readouterr().out
    assert len(FORMATS[out_fmt].parser(doc)) == 2


def test_cli_formats_listing(capsys):
    from argo_ray.rdf import main

    assert main(["--formats"]) == 0
    out = capsys.readouterr().out
    for fid in ("ntriples", "rdfxml", "turtle", "squirtle", "json", "rdfa"):
        assert fid in out


def test_cli_html_rdfa_extraction(ray_session, tmp_path, capsys):
    """§3.2 parity (rdfaparse): HTML file in → RDFa triples → NT out."""
    from argo_ray.rdf import main
    from argo_ray.sources.ntriples import parse_ntriples

    page = tmp_path / "page.html"
    page.write_text(
        '<html><body xmlns:dc="http://purl.org/dc/elements/1.1/" '
        'vocab="http://v/"><div property="dc:title">Hello</div></body></html>'
    )
    assert main([str(page), "-O", "ntriples"]) == 0
    triples = parse_ntriples(capsys.readouterr().out)
    assert len(triples) == 1
    assert triples[0][1].value == "http://purl.org/dc/elements/1.1/title"
    assert triples[0][2].value == "Hello"


def test_cli_url_fanin(ray_session, sources, tmp_path, capsys):
    """Opt-in -u/--url rides read_urls (file:// URLs), unions with file
    parts, and drops quarantined fetch failures from the converter
    stream (reference rdf.go's -u flag)."""
    from argo_ray.rdf import main
    from argo_ray.sources.ntriples import parse_ntriples

    rc = main([
        str(sources / "a.nt"),
        "-u", (sources / "b.ttl").as_uri(),
        "-u", (sources / "absent.nt").as_uri(),  # quarantined, not fatal
        "-O", "ntriples",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    triples = parse_ntriples(captured.out)
    assert len(triples) == 3  # 2 from the file + 1 from the URL
    assert any(t[2].value == "Bob" for t in triples)
    assert _stats(captured.err)["quarantined"] == 1


@pytest.mark.parametrize(
    "out_fmt",
    ["ntriples", "turtle", "rdfxml", "json", "squirtle", "jsonld", "nquads", "trig", None],
)
def test_cli_stats_line_counts(ray_session, sources, tmp_path, capsys, out_fmt):
    """The stats line counts every parsed triple once and every term
    position a rule changed: the global rule rewrites both subjects, the
    predicate rule both ``name`` predicates; the blank node and the
    literals stay.  The output directory holds only the format's part
    files, and they parse back to the rewritten triples."""
    from argo_ray.rdf import main

    argv = [
        str(sources / "a.nt"), str(sources / "b.ttl"),
        "-r", r"^http://old\.example\.org/(.*)$", "http://new.example.org/$1",
        "--rewrite-predicate", r"^http://p/name$", "http://p/label",
    ]
    if out_fmt is not None:
        argv += ["-o", str(tmp_path / "out"), "-O", out_fmt]
    else:
        argv += ["-O", "ntriples"]  # stdout
    assert main(argv) == 0
    captured = capsys.readouterr()
    stats = _stats(captured.err)
    assert stats["triples_processed"] == 3
    assert stats["rewritten"] == 4

    if out_fmt is None:
        out_fmt, docs = "ntriples", [captured.out]
    else:
        out = tmp_path / "out"
        parts = sorted(out.glob("part-*" + FORMATS[out_fmt].preferred_extension))
        assert len(parts) == len(list(out.iterdir()))
        docs = [p.read_text() for p in parts]
    back = FORMATS[out_fmt].batch_parser(
        pa.table({"url": [""] * len(docs), "text": docs})
    )
    assert sorted(zip(*(back[c].to_pylist() for c in (
        "subj_kind", "subj_value", "pred_value", "obj_value")))) == [
        (0, "http://new.example.org/s1", "http://p/label", "Alice"),
        (0, "http://new.example.org/s2", "http://p/label", "Bob"),
        (1, "b1", "http://p/age", "30"),
    ]


@pytest.mark.parametrize("out_fmt", ["json", "rdfxml", "turtle", "jsonld", "trig"])
def test_cli_subject_rewrite_merges_subjects(ray_session, tmp_path, out_fmt):
    """A subject rewrite that maps two subjects onto one must regroup
    them: every grouping sink renders the merged subject once, and the
    output parses back to both triples."""
    from argo_ray.rdf import main

    src = tmp_path / "in.nt"
    src.write_text(
        '<http://a/1> <http://p/name> "one" .\n'
        '<http://a/2> <http://p/name> "two" .\n'
    )
    out = tmp_path / "out"
    assert main([
        str(src), "-r", r"^http://a/.*$", "http://b/x", "-O", out_fmt, "-o", str(out),
    ]) == 0
    text = "".join(p.read_text() for p in sorted(out.glob("part-*")))
    assert text.count("http://b/x") == 1
    triples = FORMATS[out_fmt].parser(text)
    assert sorted(t[2].value for t in triples) == ["one", "two"]
    assert {t[0].value for t in triples} == {"http://b/x"}


def test_cli_unserializable_output_exits_before_planning(tmp_path, monkeypatch):
    """An output format without a serializer (``.html`` infers RDFa) is
    rejected before Ray starts or a plan is built."""
    from argo_ray import rdf

    def no_plan(args):
        raise AssertionError("planned a job whose output cannot be written")

    monkeypatch.setattr(rdf, "build_pipeline", no_plan)
    src = tmp_path / "a.nt"
    src.write_text("<http://a/1> <http://p/q> <http://a/2> .\n")
    assert rdf.main([str(src), "-o", str(tmp_path / "x.html")]) == 2


def test_jobs_start_no_actor(ray_session, sources, tmp_path):
    """Neither the convert job nor the checkpointed build job starts an
    actor: back-to-back jobs leave the set of live actors as it was."""
    import ray
    from ray._private.state import actors

    from argo_ray.rdf import main
    from argo_ray.state.checkpoint import run_checkpointed

    def alive():
        return sum(1 for a in actors().values() if a["State"] == "ALIVE")

    ray.data.range(1).materialize()  # Ray Data's own per-cluster actors
    before = alive()
    for i in range(3):
        assert main([str(sources / "a.nt"), "-o", str(tmp_path / f"o{i}"), "-O", "turtle"]) == 0
    run_checkpointed(SF_DIR, str(tmp_path / "ckpt"), num_partitions=2)
    assert alive() == before
