"""Minimal SPARQL engine over the flattened triple tables.

File-backed twin of the reference's ``SparqlService``
(``/root/reference/sparql/sparqlservice.go:1-95``): the reference POSTs
query strings to an HTTP endpoint and parses the response; a distributed
pipeline must not do per-task HTTP, so here the "endpoint" is the
engine's own triple data — SELECT/ASK/CONSTRUCT/DESCRIBE evaluate over
a triples Dataset, in-process for a small materialized store and as Ray
Data pipelines otherwise, and SPARQL-Update (INSERT DATA / DELETE DATA)
applies to stored graphs (the piece ``FileGraphStore.patch`` forwards,
mirroring ``graphstoreservice.go:162-181``).

SELECT/CONSTRUCT/DESCRIBE return a ``frame.LocalFrame`` from the
in-process tier and a ``ray.data.Dataset`` from the Ray tier; both
answer ``take_all``, ``to_pandas``, ``iter_batches``, ``schema`` and
``count``.  ASK returns a ``bool``.

Supported surface (documented subset — unsupported syntax raises): see
README's S6+ row.  Each group parses into a SPARQL 1.1 algebra tree
(``parser.BGP`` … ``parser.SubSelect``) that ``engine._eval``
evaluates node by node, with SPARQL's compatible joins.
"""

from .engine import (
    apply_update,
    evaluate_ask,
    evaluate_construct,
    evaluate_describe,
    evaluate_select,
)
from .parser import parse_query, parse_update
from .service import FileSparqlService

__all__ = [
    "FileSparqlService",
    "apply_update",
    "evaluate_ask",
    "evaluate_construct",
    "evaluate_describe",
    "evaluate_select",
    "parse_query",
    "parse_update",
]
