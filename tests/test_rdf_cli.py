"""`rdf` CLI equivalent (SURVEY §3.1): multi-format fan-in, rewrites,
format listing, stdout/directory sinks."""

import time

import pyarrow as pa
import pytest

from conftest import SF_DIR  # noqa: F401  (ray_session fixture import path)


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


def test_cli_stdout_roundtrip(ray_session, sources, capsys):
    from argo_ray.rdf import main
    from argo_ray.sources.ntriples import parse_ntriples

    rc = main([str(sources / "a.nt"), "-O", "ntriples"])
    assert rc == 0
    doc = capsys.readouterr().out
    assert len(parse_ntriples(doc)) == 2


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
    doc = capsys.readouterr().out
    triples = parse_ntriples(doc)
    assert len(triples) == 3  # 2 from the file + 1 from the URL
    assert any(t[2].value == "Bob" for t in triples)


def test_cli_jobs_leave_no_counters_actor(ray_session, sources, tmp_path):
    """Each job's counters actor ends with the job: back-to-back jobs in
    one session must not pile up live actor processes."""
    from ray._private.state import actors

    from argo_ray.rdf import main

    def alive():
        return sum(
            1 for a in actors().values()
            if a["ActorClassName"] == "StageCounters" and a["State"] == "ALIVE"
        )

    before = alive()
    for i in range(3):
        assert main([str(sources / "a.nt"), "-o", str(tmp_path / f"o{i}"), "-O", "turtle"]) == 0
    deadline = time.monotonic() + 10  # ray.kill is asynchronous
    while alive() > before and time.monotonic() < deadline:
        time.sleep(0.1)
    assert alive() == before
