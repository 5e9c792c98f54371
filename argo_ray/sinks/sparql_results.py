"""SPARQL results XML serializer — the write twin of the S6 parser
(``sources/sparql_results.py``).  Emits the W3C ``<sparql>`` results
document the reference's streaming parser consumes
(``/root/reference/sparql/result.go:97-518``): ``<head>`` with one
``<variable>`` per projected var, ``<results>``/``<result>`` rows with
``<uri>``/``<bnode>``/``<literal xml:lang|datatype>`` bindings; ASK →
``<boolean>``.

A results document is a driver-sized artifact (the reference's HTTP
response body), so the Dataset path streams batches through the
vectorized term parser (``nt_parse_term_arrays``) and joins the parts
driver-side — bindings never round-trip through Python ``Term``
objects unless the caller starts from them.
"""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

import pyarrow as pa
import pyarrow.compute as pc

from ..terms import KIND_BLANK, KIND_IRI, Term, nt_parse_term_arrays

_HEADER = '<?xml version="1.0"?>\n<sparql xmlns="http://www.w3.org/2005/sparql-results#">'


def _head(variables: list[str]) -> str:
    vs = "".join(f'<variable name={quoteattr(v)}/>' for v in variables)
    return f"<head>{vs}</head>"


def _binding_xml(name: str, kind: int, value: str, lang: str, datatype: str) -> str:
    # a raw \r would reach the reader as \n (XML end-of-line handling)
    value = escape(value, {"\r": "&#13;"})
    if kind == KIND_IRI:
        body = f"<uri>{value}</uri>"
    elif kind == KIND_BLANK:
        body = f"<bnode>{value}</bnode>"
    elif lang:
        body = f'<literal xml:lang={quoteattr(lang)}>{value}</literal>'
    elif datatype:
        body = f"<literal datatype={quoteattr(datatype)}>{value}</literal>"
    else:
        body = f"<literal>{value}</literal>"
    return f"<binding name={quoteattr(name)}>{body}</binding>"


def serialize_ask_result(value: bool) -> str:
    return f"{_HEADER}<head/><boolean>{'true' if value else 'false'}</boolean></sparql>"


def serialize_select_results(
    variables: list[str], rows: list[dict[str, Term]]
) -> str:
    """Driver-side serialization from parsed ``Term`` rows (the shape
    the S6 parser returns — exact round-trip partner)."""
    parts = [_HEADER, _head(variables), "<results>"]
    for row in rows:
        bindings = "".join(
            _binding_xml(v, t.kind, t.value, t.lang, t.datatype)
            for v, t in ((v, row[v]) for v in variables if v in row)
        )
        parts.append(f"<result>{bindings}</result>")
    parts.append("</results></sparql>")
    return "".join(parts)


def select_dataset_to_xml(ds, variables: list[str]) -> str:
    """``evaluate_select`` result, either tier (one canonical-rendering
    string column per variable, '' = unbound) → results XML document.
    Term decomposition is the vectorized inverse renderer per batch;
    only the final string join happens on the driver."""
    chunks: list[str] = []
    for batch in ds.iter_batches(batch_format="pyarrow"):
        cols = {}
        for v in variables:
            rendered = pc.cast(batch[v], pa.large_string())
            if isinstance(rendered, pa.ChunkedArray):
                rendered = rendered.combine_chunks()
            # '' marks an unbound binding — parse as null.  NB: if_else
            # with a NULL SCALAR emits a corrupt large_string chunk
            # (combine_chunks → ArrowIndexError on pyarrow 1x); a null
            # array is fine.
            rendered = pc.if_else(
                pc.equal(rendered, ""),
                pa.nulls(len(rendered), pa.large_string()),
                rendered,
            )
            parsed = nt_parse_term_arrays(rendered)
            # normalize to flat Arrays for positional .as_py() below
            cols[v] = {
                k: (a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a)
                for k, a in parsed.items()
            }
        n = batch.num_rows
        rows = []
        for i in range(n):
            bindings = []
            for v in variables:
                c = cols[v]
                kind = c["kind"][i].as_py()
                if kind is None:
                    continue  # unbound: omitted binding, per spec
                bindings.append(
                    _binding_xml(
                        v, kind, c["value"][i].as_py(),
                        c["lang"][i].as_py() or "",
                        c["datatype"][i].as_py() or "",
                    )
                )
            rows.append(f"<result>{''.join(bindings)}</result>")
        chunks.append("".join(rows))
    return "".join(
        [_HEADER, _head(variables), "<results>", *chunks, "</results></sparql>"]
    )


# -- SPARQL 1.1 results JSON (application/sparql-results+json) -------------
# Public spec sibling of the XML format; the reference speaks only XML,
# this completes the format family for interop with JSON-only endpoints.


def _term_json(t) -> dict:
    from ..terms import KIND_BLANK as _B, KIND_IRI as _I

    if t.kind == _I:
        return {"type": "uri", "value": t.value}
    if t.kind == _B:
        return {"type": "bnode", "value": t.value}
    out = {"type": "literal", "value": t.value}
    if t.lang:
        out["xml:lang"] = t.lang
    elif t.datatype:
        out["datatype"] = t.datatype
    return out


def serialize_select_results_json(variables: list[str], rows) -> str:
    import json

    return json.dumps(
        {
            "head": {"vars": list(variables)},
            "results": {
                "bindings": [
                    {v: _term_json(row[v]) for v in variables if v in row}
                    for row in rows
                ]
            },
        },
        ensure_ascii=False,
    )


def serialize_ask_result_json(value: bool) -> str:
    import json

    return json.dumps({"head": {}, "boolean": bool(value)})


# -- SPARQL 1.1 results CSV / TSV (text/csv, text/tab-separated-values) ----
# CSV renders bare values (lossy, spreadsheet-bound per spec §3); TSV
# renders full SPARQL-syntax terms (lossless).


def serialize_select_results_csv(variables: list[str], rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")  # spec: CRLF line ends
    w.writerow(variables)
    for row in rows:
        w.writerow([row[v].value if v in row else "" for v in variables])
    return buf.getvalue()


def _tsv_term(t) -> str:
    from ..terms import render_term

    # TSV uses full SPARQL term syntax — identical to the canonical
    # N-Triples rendering this engine uses everywhere
    return render_term(t)


def serialize_select_results_tsv(variables: list[str], rows) -> str:
    lines = ["\t".join("?" + v for v in variables)]
    for row in rows:
        lines.append(
            "\t".join(_tsv_term(row[v]) if v in row else "" for v in variables)
        )
    return "\n".join(lines) + "\n"


def select_dataset_to_tsv(ds, variables: list[str]) -> str:
    """``evaluate_select`` result, either tier → SPARQL 1.1 TSV results
    document (text/tab-separated-values).  The engine's canonical
    rendering IS the TSV term syntax, so each row is ONE vectorized
    tab-join per batch; unbound ('') stays an empty cell per spec."""
    header = "\t".join("?" + v for v in variables)
    chunks: list[str] = []
    for batch in ds.iter_batches(batch_format="pyarrow"):
        cols = [pc.cast(batch[v], pa.large_string()) for v in variables]
        if len(cols) == 1:
            joined = cols[0]
        else:
            joined = pc.binary_join_element_wise(
                *cols, pa.scalar("\t", pa.large_string())
            )
        if isinstance(joined, pa.ChunkedArray):
            joined = joined.combine_chunks()
        chunks.extend(joined.to_pylist())
    return "\n".join([header, *chunks]) + "\n"
