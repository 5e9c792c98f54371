"""File-backed graph-store protocol (operators S7/K6 equivalent).

The reference's ``GraphStoreService`` speaks the SPARQL 1.1 Graph Store
HTTP Protocol against a remote endpoint — GET parses the RDF/XML body,
PUT/POST serialize RDF/XML bodies, DELETE/HEAD manage named graphs
(``sparql/graphstoreservice.go:40-181``).  A distributed pipeline must
not do per-task HTTP, so this is the same verb surface over a shared
filesystem: one RDF/XML document per named graph, URI-quoted filename,
atomic replace on write.  The semantics per verb match the reference:

- ``get``    → parse the stored RDF/XML into a flattened triple table
  (GET + ``graph.Parse(ParseRDFXML)``, :40-66);
- ``put``    → serialize + replace the graph (:68-95);
- ``post``   → merge: stored ∪ new, distinct triples (HTTP POST's
  "add to graph" semantics, :117-144);
- ``delete`` / ``head`` → remove / existence probe (:97-115, :146-160);
- ``patch``  → applies a SPARQL-Update request to one graph via the
  local engine (the reference forwards the string to a server,
  :162-181; this store IS the server);
- ``manage`` → SPARQL 1.1 Update §3.2 graph management
  (CLEAR/DROP/CREATE/COPY/MOVE/ADD) across the store's named graphs.

Dataset-level fan-out/fan-in (the cluster-scale surface):
``write_graphstore`` partitions a triples Dataset by a graph column and
writes every named graph in parallel; ``read_graphstore`` reads all
stored graphs back as one Dataset with a ``url`` provenance column.
"""

from __future__ import annotations

import os
from urllib.parse import quote, unquote

import pandas as pd
import pyarrow as pa

from ..io import publish
from ..sources.rdfxml import parse_rdfxml
from ..stages.grouping import exchange
from ..terms import TRIPLE_COLUMNS, append_subject_hash, triples_to_table
from .rdfxml import serialize_rdfxml


class FileGraphStore:
    """Driver-side store client (the ``GraphStoreService`` analogue)."""

    def __init__(self, root_dir: str):
        self.root = root_dir
        os.makedirs(root_dir, exist_ok=True)

    def _path(self, graph_uri: str) -> str:
        return os.path.join(self.root, quote(graph_uri, safe="") + ".rdf")

    def get(self, graph_uri: str) -> pa.Table:
        with open(self._path(graph_uri), encoding="utf-8") as f:
            triples = parse_rdfxml(f.read(), document_uri=graph_uri)
        return triples_to_table(triples, with_hash=False)

    def put(self, graph_uri: str, triples: pa.Table) -> None:
        body = serialize_rdfxml(triples.select(TRIPLE_COLUMNS))
        # atomic, same guarantee HTTP PUT gives
        publish(self._path(graph_uri), body.encode("utf-8"))

    def post(self, graph_uri: str, triples: pa.Table) -> None:
        new = triples.select(TRIPLE_COLUMNS)
        if self.head(graph_uri):
            old = self.get(graph_uri).select(TRIPLE_COLUMNS)
            df = pd.concat(
                [old.to_pandas(), new.to_pandas()], ignore_index=True
            ).drop_duplicates(subset=TRIPLE_COLUMNS, keep="first")
            new = pa.Table.from_pandas(df, preserve_index=False).cast(old.schema)
        self.put(graph_uri, new)

    def delete(self, graph_uri: str) -> None:
        os.remove(self._path(graph_uri))

    def head(self, graph_uri: str) -> bool:
        return os.path.exists(self._path(graph_uri))

    def graphs(self) -> list[str]:
        return sorted(
            unquote(name[: -len(".rdf")])
            for name in os.listdir(self.root)
            if name.endswith(".rdf")
        )

    def patch(self, graph_uri: str, update_query: str) -> None:
        """HTTP PATCH = apply a SPARQL-Update request to the graph
        (graphstoreservice.go:162-181 forwards the string to the server;
        this store IS the server — INSERT DATA / DELETE DATA applied via
        :func:`argo_ray.sparql.engine.apply_update`, then the same
        atomic replace as ``put``).  Patching an absent graph starts
        from the empty graph, matching SPARQL-Update's implicit-create
        semantics."""
        from ..sparql.engine import apply_update

        base = (
            self.get(graph_uri).select(TRIPLE_COLUMNS)
            if self.head(graph_uri)
            else triples_to_table([], with_hash=False)
        )
        self.put(graph_uri, apply_update(base, update_query))

    def manage(self, update_query: str) -> None:
        """SPARQL 1.1 Update GRAPH MANAGEMENT (§3.2) at store level:
        ``CLEAR / DROP / CREATE [SILENT] GRAPH <g>`` (CLEAR/DROP also
        ``NAMED`` / ``ALL``) and ``COPY / MOVE / ADD [SILENT] <g1> TO
        <g2>``, ';'-chained, applied in order through the same verb
        surface as the HTTP protocol (put/get/post/delete/head).
        This store has no default graph, so ``DEFAULT`` errors unless
        SILENT.  Triple-level ops in the request raise — those target
        one graph and belong to :meth:`patch`."""
        from ..sparql.parser import GraphMgmtOp, parse_update

        ops = parse_update(update_query)
        for op in ops:
            if not isinstance(op, GraphMgmtOp):
                raise ValueError(
                    "manage() takes graph-management operations only; "
                    "use patch(graph_uri, query) for triple updates"
                )
            self._apply_mgmt(op)

    def _empty_graph(self) -> pa.Table:
        return triples_to_table([], with_hash=False)

    def _apply_mgmt(self, op) -> None:
        verb, src, dst, silent = op

        def exists_or_raise(uri: str) -> bool:
            if self.head(uri):
                return True
            if silent:
                return False
            raise FileNotFoundError(f"graph <{uri}> does not exist")

        def no_default(ref: str | None) -> bool:
            if ref == "DEFAULT":
                if silent:
                    return True
                raise ValueError("this store has no default graph")
            return False

        if verb == "create":
            if self.head(src):
                if not silent:
                    raise FileExistsError(f"graph <{src}> already exists")
                return
            self.put(src, self._empty_graph())
        elif verb in ("clear", "drop"):
            if src in ("ALL", "NAMED"):  # no default graph: NAMED == ALL
                for g in self.graphs():
                    if verb == "clear":
                        self.put(g, self._empty_graph())
                    else:
                        self.delete(g)
            elif no_default(src):
                return
            elif exists_or_raise(src):
                if verb == "clear":
                    self.put(src, self._empty_graph())
                else:
                    self.delete(src)
        else:  # copy | move | add
            if no_default(src) or no_default(dst):
                return
            if src == dst:
                return  # §3.2: same-graph COPY/MOVE/ADD is a no-op
            if not exists_or_raise(src):
                return
            data = self.get(src).select(TRIPLE_COLUMNS)
            if verb == "add":
                self.post(dst, data)  # union, distinct
            else:
                self.put(dst, data)
                if verb == "move":
                    self.delete(src)


def write_graphstore(triples_ds, root_dir: str, graph_column: str = "url"):
    """Distributed fan-out: partition a flattened triples Dataset by
    ``graph_column`` and PUT one RDF/XML document per named graph.
    Grouping uses the sort-based ``grouped_map`` (no per-group task
    dispatch); each group's write is the same atomic replace the
    driver-side ``put`` does.  Returns the list of graph URIs written.
    """
    import numpy as np

    os.makedirs(root_dir, exist_ok=True)
    store = FileGraphStore(root_dir)

    def write_block(batch: pa.Table) -> pa.Table:
        # one exchange block = whole graphs; zero-copy Table.slice per
        # graph run instead of a per-group pandas→Arrow conversion (was
        # ~1 ms × graphs)
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {"graph_uri": pa.array([], pa.string()),
                 "n_triples": pa.array([], pa.int64())}
            )
        batch = batch.combine_chunks()
        urls = np.asarray(batch[graph_column].to_pylist())
        starts = np.flatnonzero(np.r_[True, urls[1:] != urls[:-1]])
        ends = np.r_[starts[1:], n]
        body = batch.select(TRIPLE_COLUMNS)
        for s, e in zip(starts, ends):
            store.put(urls[s], body.slice(s, e - s))
        return pa.table(
            {
                "graph_uri": pa.array(urls[starts], pa.string()),
                "n_triples": pa.array((ends - starts).astype(np.int64), pa.int64()),
            }
        )

    manifest = exchange(
        triples_ds, graph_column, write_block, batch_format="pyarrow",
    )
    return sorted(r["graph_uri"] for r in manifest.take_all())


def read_graphstore(root_dir: str):
    """Distributed fan-in: all named graphs → one triples Dataset with a
    ``url`` provenance column holding the graph URI (the same column
    name every batch parser uses); each file parses where it's read —
    ``read_binary_files`` keeps the bytes off the driver."""
    import ray.data as rd

    from ..io import configure_context

    configure_context()

    def parse(batch: pa.Table) -> pa.Table:
        parts = []
        for path, body in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            if not path.endswith(".rdf"):
                continue  # hidden io.publish temp file of a crashed put — uncommitted
            uri = unquote(os.path.basename(path)[: -len(".rdf")])
            triples = parse_rdfxml(body.decode("utf-8"), document_uri=uri)
            t = triples_to_table(triples, urls=[uri] * len(triples), with_hash=False)
            parts.append(t)
        if not parts:
            # same schema AND column order as the non-empty path
            # (triples_to_table puts url first)
            empty = triples_to_table([], urls=[], with_hash=False)
            return append_subject_hash(empty)
        return append_subject_hash(pa.concat_tables(parts))

    files = rd.read_binary_files(root_dir, include_paths=True)
    return files.map_batches(parse, batch_format="pyarrow")
