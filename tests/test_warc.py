"""WARC container: offset-based parsing, embedded-marker safety,
poison quarantine."""

import pyarrow as pa

from argo_ray.sources.warc import (
    parse_warc_batch,
    warc_serialize_batch,
)


def _pages(rows):
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "html": pa.array([r[2] for r in rows], pa.binary()),
        }
    )


def test_warc_roundtrip_exact():
    rows = [
        ("https://a.org/1", 1_704_067_200_000_000, b"<html>one</html>"),
        ("https://a.org/2", 1_704_067_201_000_000, b"<html>two</html>"),
    ]
    warc = warc_serialize_batch(_pages(rows))
    assert warc.num_rows == 1  # one file per block
    back = parse_warc_batch(warc)
    got = list(
        zip(
            back["url"].to_pylist(),
            back["warc_ts"].cast(pa.int64()).to_pylist(),
            back["html"].to_pylist(),
        )
    )
    assert got == rows


def test_warc_payload_containing_warc_marker():
    """Content-Length framing must survive a page that QUOTES the
    record header — the case a split-on-delimiter parser corrupts."""
    evil = b"<html>WARC/1.0\r\nWARC-Type: response\r\n\r\nfake</html>"
    rows = [
        ("https://a.org/evil", 1_704_067_200_000_000, evil),
        ("https://a.org/after", 1_704_067_202_000_000, b"<html>ok</html>"),
    ]
    back = parse_warc_batch(warc_serialize_batch(_pages(rows)))
    assert back["url"].to_pylist() == ["https://a.org/evil", "https://a.org/after"]
    assert back["html"].to_pylist()[0] == evil


def test_warc_truncated_and_garbage_quarantine():
    rows = [("https://a.org/1", 1_704_067_200_000_000, b"<html>x</html>")]
    blob = warc_serialize_batch(_pages(rows))["warc"][0].as_py()
    batch = pa.table(
        {
            "warc": pa.array(
                [b"\xff\xfe not warc at all", blob[: len(blob) - 10], None, blob],
                pa.binary(),
            )
        }
    )
    back = parse_warc_batch(batch)
    # garbage row: 0 records; truncated row: payload end past EOF -> 0;
    # null row skipped; intact row: 1
    assert back["url"].to_pylist() == ["https://a.org/1"]


def test_warc_skips_non_response_records():
    rows = [("https://a.org/1", 1_704_067_200_000_000, b"<html>x</html>")]
    blob = warc_serialize_batch(_pages(rows))["warc"][0].as_py()
    # the serializer already prepends a warcinfo record; parsing must
    # yield only the response
    back = parse_warc_batch(pa.table({"warc": pa.array([blob], pa.binary())}))
    assert back.num_rows == 1


def test_og_extract_skips_non_og_meta_and_poison():
    from argo_ray.sources.opengraph import extract_og_batch

    head = (
        '<head><meta property="og:title" content="A Title"/>'
        '<meta name="viewport" content="width=device-width"/>'
        '<meta property="article:author" content="x"/>'
        '<meta property="og:locale" content="en"/></head>'
    )
    b = pa.table({"url": ["https://a/1", "https://a/2"], "html": [head, "junk"]})
    out = extract_og_batch(b)
    assert out["property"].to_pylist() == ["og:title", "og:locale"]
    assert out["content"].to_pylist() == ["A Title", "en"]
    assert out["src_url"].to_pylist() == ["https://a/1", "https://a/1"]


def test_wet_roundtrip_and_poison():
    import pyarrow as pa

    from argo_ray.sources.warc import parse_wet_batch, wet_serialize_batch

    pages = pa.table(
        {
            "url": pa.array(["https://a/1", "https://a/2"], pa.string()),
            "warc_ts": pa.array([0, 1_000_000], pa.timestamp("us")),
            "text": pa.array(["hello world", "café text"], pa.string()),
        }
    )
    wet = wet_serialize_batch(pages)
    back = parse_wet_batch(wet)
    assert back["url"].to_pylist() == ["https://a/1", "https://a/2"]
    assert back["text"].to_pylist() == ["hello world", "café text"]
    assert back["warc_ts"].cast(pa.int64()).to_pylist() == [0, 1_000_000]

    # poison: garbage bytes, truncated payload, null — all quarantine
    poison = pa.table(
        {
            "wet": pa.array(
                [
                    b"\xff\xfenot a wet file",
                    wet["wet"][0].as_py()[: len(wet["wet"][0].as_py()) // 2],
                    None,
                ],
                pa.binary(),
            )
        }
    )
    out = parse_wet_batch(poison)
    # the truncated file may still yield its first intact record; it
    # must never raise and never emit a partial-payload record
    assert out.num_rows <= 1


def test_warc_http_envelope_parse():
    import pyarrow as pa

    from argo_ray.sources.warc import (
        parse_warc_http_batch,
        warc_serialize_status_batch,
    )

    pages = pa.table(
        {
            "url": pa.array(["https://a/1", "https://a/2"], pa.string()),
            "warc_ts": pa.array([0, 1_000_000], pa.timestamp("us")),
            "html": pa.array([b"<html>x</html>", b"gone"], pa.binary()),
            "status": pa.array([200, 404], pa.int64()),
        }
    )
    out = parse_warc_http_batch(warc_serialize_status_batch(pages))
    assert out["url"].to_pylist() == ["https://a/1", "https://a/2"]
    assert out["status"].to_pylist() == [200, 404]
    assert out["content_type"].to_pylist() == ["text/html", "text/html"]
    assert out["n_bytes"].to_pylist() == [14, 4]
    # poison never raises
    bad = pa.table({"warc": pa.array([b"\x00garbage", None], pa.binary())})
    assert parse_warc_http_batch(bad).num_rows == 0
