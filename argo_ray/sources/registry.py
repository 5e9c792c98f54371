"""Format registry (operator S8).

Reimplements the reference's ``Formats`` registry and inference helpers
(``/root/reference/argo.go:63-151`` registry entries,
``argo.go:181-215`` ``FormatFromMIMEType`` / ``FormatFromFilename``):
a dict of Format records with pluggable parser/serializer callables —
the user-extension surface (SURVEY.md §2.8; rdfaparser registers itself
exactly this way, ``rdfaparser/rdfaparser.go:30-41``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Format:
    id: str
    name: str
    preferred_mime_type: str
    preferred_extension: str
    other_mime_types: tuple[str, ...] = ()
    other_extensions: tuple[str, ...] = ()
    # parse(text, document_uri, salt) -> list[triple]
    parser: Callable | None = None
    # serialize(table, prefixes) -> str
    serializer: Callable | None = None
    # map_batches UDF: (batch, ...) -> flattened triples table
    batch_parser: Callable | None = None
    # write(ds, out_dir) -> (path, rows) manifest frame, one part file
    # per block
    write: Callable | None = None


def _default_formats() -> dict[str, Format]:
    from ..sinks.jsonld import (
        parse_jsonld, parse_jsonld_batch, serialize_jsonld, write_jsonld,
    )
    from ..sinks.ntriples import serialize_ntriples, write_ntriples
    from ..sinks.rdfjson import (
        parse_rdfjson, parse_rdfjson_batch, serialize_rdfjson, write_rdfjson,
    )
    from ..sinks.rdfxml import serialize_rdfxml, write_rdfxml
    from ..sinks.squirtle import serialize_squirtle, write_squirtle
    from ..sinks.turtle import serialize_turtle, write_turtle
    from ..sinks.nquads import serialize_nquads, write_nquads
    from ..sinks.trig import serialize_trig, write_trig
    from ..sources.trig import parse_trig, parse_trig_batch
    from ..sources.nquads import parse_nquads, parse_nquads_batch
    from ..sources.ntriples import parse_ntriples, parse_ntriples_batch
    from ..sources.rdfa import extract_rdfa, extract_rdfa_batch
    from ..sources.rdfxml import parse_rdfxml, parse_rdfxml_batch
    from ..sources.squirtle import parse_squirtle, parse_squirtle_batch
    from ..sources.turtle import parse_turtle, parse_turtle_batch

    formats = [
        Format(
            "ntriples", "NTriples", "text/plain", ".nt",
            other_extensions=(".txt",),
            parser=lambda text, uri="", salt="": parse_ntriples(text),
            serializer=lambda table, prefixes=None: serialize_ntriples(table),
            batch_parser=parse_ntriples_batch,
            write=write_ntriples,
        ),
        Format(
            "rdfxml", "RDF/XML", "application/rdf+xml", ".rdf",
            other_mime_types=("application/xml", "text/xml"),
            other_extensions=(".xml",),
            parser=lambda text, uri="", salt="": parse_rdfxml(text, uri, salt),
            serializer=serialize_rdfxml,
            batch_parser=parse_rdfxml_batch,
            write=write_rdfxml,
        ),
        Format(
            "turtle", "Turtle", "text/turtle", ".ttl",
            other_mime_types=("application/x-turtle",),
            parser=lambda text, uri="", salt="": parse_turtle(text),
            serializer=serialize_turtle,
            batch_parser=parse_turtle_batch,
            write=write_turtle,
        ),
        Format(
            "squirtle", "Squirtle", "text/x-squirtle", ".sqtl",
            parser=lambda text, uri="", salt="": parse_squirtle(text, uri, salt),
            serializer=serialize_squirtle,
            batch_parser=parse_squirtle_batch,
            write=write_squirtle,
        ),
        Format(
            "json", "RDF/JSON", "application/json", ".json",
            parser=lambda text, uri="", salt="": parse_rdfjson(text),
            serializer=lambda table, prefixes=None: serialize_rdfjson(table),
            batch_parser=parse_rdfjson_batch,
            write=write_rdfjson,
        ),
        Format(
            "jsonld", "JSON-LD", "application/ld+json", ".jsonld",
            parser=lambda text, uri="", salt="": parse_jsonld(text),
            serializer=serialize_jsonld,
            batch_parser=parse_jsonld_batch,
            write=write_jsonld,
        ),
        Format(
            "nquads", "NQuads", "application/n-quads", ".nq",
            parser=lambda text, uri="", salt="": parse_nquads(text),
            serializer=lambda table, prefixes=None: serialize_nquads(table),
            batch_parser=parse_nquads_batch,
            write=write_nquads,
        ),
        Format(
            "trig", "TriG", "application/trig", ".trig",
            parser=lambda text, uri="", salt="": parse_trig(text),
            serializer=serialize_trig,
            batch_parser=parse_trig_batch,
            write=write_trig,
        ),
        Format(
            "rdfa", "RDFA", "text/html", ".html",
            other_mime_types=("text/xhtml",),
            other_extensions=(".htm",),
            parser=lambda text, uri="", salt="": extract_rdfa(text, uri, salt),
            serializer=None,
            # accept either the pages schema (html:binary) or the
            # registry's common (url, text) document batches
            batch_parser=lambda b, **kw: extract_rdfa_batch(
                b,
                html_column="html" if "html" in b.column_names else "text",
                **kw,
            ),
        ),
    ]
    return {f.id: f for f in formats}


FORMATS: dict[str, Format] = _default_formats()


@dataclass
class ResultFormat:
    """SPARQL SELECT results format (S6 twin of :class:`Format`):
    ``parser(doc) -> (variables, rows)`` and ``serializer(variables,
    rows) -> doc`` over the shared binding-row shape — so XML / JSON /
    TSV results files ride the same extension/MIME sniffing the RDF
    graph formats get."""

    id: str
    name: str
    preferred_mime_type: str
    preferred_extension: str
    other_mime_types: tuple[str, ...] = ()
    other_extensions: tuple[str, ...] = ()
    parser: Callable | None = None
    serializer: Callable | None = None


def _default_result_formats() -> dict[str, ResultFormat]:
    from ..sinks.sparql_results import (
        serialize_select_results,
        serialize_select_results_json,
        serialize_select_results_tsv,
    )
    from ..sources.sparql_results import (
        parse_select_results,
        parse_select_results_json,
        parse_select_results_tsv,
    )

    formats = [
        ResultFormat(
            "srx", "SPARQL Results XML",
            "application/sparql-results+xml", ".srx",
            parser=parse_select_results,
            serializer=serialize_select_results,
        ),
        ResultFormat(
            "srj", "SPARQL Results JSON",
            "application/sparql-results+json", ".srj",
            parser=parse_select_results_json,
            serializer=serialize_select_results_json,
        ),
        ResultFormat(
            "tsv", "SPARQL Results TSV",
            "text/tab-separated-values", ".tsv",
            parser=parse_select_results_tsv,
            serializer=serialize_select_results_tsv,
        ),
    ]
    return {f.id: f for f in formats}


RESULT_FORMATS: dict[str, ResultFormat] = _default_result_formats()


def register_format(fmt: Format) -> None:
    """User-extension hook (argo.go Formats insertion)."""
    FORMATS[fmt.id] = fmt


def register_result_format(fmt: ResultFormat) -> None:
    """User-extension hook for SELECT results formats."""
    RESULT_FORMATS[fmt.id] = fmt


def result_format_from_filename(path: str) -> ResultFormat | None:
    """Extension sniffing over the results registry (.srx/.srj/.tsv)."""
    import os

    ext = os.path.splitext(path)[1].lower()
    for fmt in RESULT_FORMATS.values():
        if ext == fmt.preferred_extension or ext in fmt.other_extensions:
            return fmt
    return None


def result_format_from_mime_type(mime: str) -> ResultFormat | None:
    for fmt in RESULT_FORMATS.values():
        if mime == fmt.preferred_mime_type or mime in fmt.other_mime_types:
            return fmt
    return None


def format_from_mime_type(mime: str) -> Format | None:
    """argo.go:181-196."""
    for fmt in FORMATS.values():
        if mime == fmt.preferred_mime_type or mime in fmt.other_mime_types:
            return fmt
    return None


def format_from_filename(path: str) -> Format | None:
    """argo.go:199-215 — match on the filename's extension."""
    import os

    ext = os.path.splitext(path)[1].lower()
    for fmt in FORMATS.values():
        if ext == fmt.preferred_extension or ext in fmt.other_extensions:
            return fmt
    return None
