"""File-backed SPARQL query service (the reference's ``SparqlService``
client surface, ``sparql/sparqlservice.go:1-95``, minus the network).

The reference's methods and their equivalents here:

- ``Select(query) → *ResultParser``  → :meth:`FileSparqlService.select`
  returns the bindings frame directly (one rendered string column per
  variable — what the S6 result parser would have produced from the
  endpoint's XML).
- ``Ask(query) → bool``              → :meth:`FileSparqlService.ask`.
- ``Graph(query) → *argo.Graph``     → :meth:`FileSparqlService.graph`
  returns the CONSTRUCTed flattened triples frame (serialize with any
  sink to mirror the RDF/XML body parse).

A frame is the engine's result on the tier that ran the query: a
``LocalFrame`` for a store that fits in-process, else a
``ray.data.Dataset``; both answer ``take_all``, ``to_pandas``,
``iter_batches``, ``schema`` and ``count``.
- ``Update(query)``                  → :meth:`FileSparqlService.update`,
  available when the service wraps a :class:`FileGraphStore` named
  graph (the reference posts the string to the endpoint; the file-backed
  endpoint applies it via :func:`argo_ray.sparql.engine.apply_update`).
"""

from __future__ import annotations

import pyarrow as pa

from .engine import (
    evaluate_ask,
    evaluate_construct,
    evaluate_describe,
    evaluate_select,
)
from .parser import DescribeQuery, parse_query


class FileSparqlService:
    """Query service over a triples Dataset (or Dataset factory).

    ``triples`` may be a ``ray.data.Dataset`` of flattened triples or a
    zero-arg callable returning one (a factory keeps each query's read
    fresh when the underlying store mutates between calls).
    """

    def __init__(self, triples, graphstore=None, graph_uri: str | None = None):
        self._triples = triples
        self._graphstore = graphstore
        self._graph_uri = graph_uri

    @classmethod
    def from_graphstore(cls, store, graph_uri: str) -> "FileSparqlService":
        """Service over one named graph of a :class:`FileGraphStore` —
        the closest analogue of pointing ``SparqlService`` at a dataset
        endpoint; :meth:`update` becomes available."""

        def factory():
            import ray.data

            from ..io import configure_context

            configure_context()
            tbl = (
                store.get(graph_uri)
                if store.head(graph_uri)
                else _empty_triples()
            )
            return ray.data.from_arrow(tbl)

        return cls(factory, graphstore=store, graph_uri=graph_uri)

    @classmethod
    def over_graphstore_dir(cls, store_dir: str) -> "FileSparqlService":
        """Read-only service over the UNION of every named graph in a
        graph-store directory (distributed fan-in per query — the
        dataset-endpoint view; used by the Fuseki dataset wiring and the
        REPL client)."""
        from ..sinks.graphstore import FileGraphStore

        def factory():
            import ray.data

            from ..io import configure_context
            from ..sinks.graphstore import read_graphstore

            configure_context()
            if not FileGraphStore(store_dir).graphs():
                return ray.data.from_arrow(_empty_triples())
            # url column kept: it is the graph IRI, which GRAPH <iri> /
            # GRAPH ?g clauses scope and bind on (plain triple patterns
            # ignore it)
            return read_graphstore(store_dir)

        return cls(factory)

    def _ds(self):
        return self._triples() if callable(self._triples) else self._triples

    def select(self, query: str):
        return evaluate_select(self._ds(), query)

    def ask(self, query: str) -> bool:
        return evaluate_ask(self._ds(), query)

    def graph(self, query: str):
        """CONSTRUCT or DESCRIBE → triples frame (the reference's
        ``Graph()`` serves both verbs, sparqlservice.go:70-83)."""
        q = parse_query(query)
        if isinstance(q, DescribeQuery):
            return evaluate_describe(self._ds(), q)
        return evaluate_construct(self._ds(), q)

    def update(self, query: str) -> None:
        if self._graphstore is None or self._graph_uri is None:
            raise ValueError(
                "update() needs a graph-store-backed service "
                "(FileSparqlService.from_graphstore)"
            )
        self._graphstore.patch(self._graph_uri, query)


def _empty_triples() -> pa.Table:
    from ..terms import triples_to_table

    return triples_to_table([], with_hash=False)
