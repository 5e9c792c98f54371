"""JSON-LD serializer + parser (expanded document form).

No reference analogue — kierdavis/argo predates JSON-LD adoption — but
it is the one widely-used RDF interchange format missing from the S8
registry (``/root/reference/argo.go:63-151``), so a user switching a
pipeline that today round-trips N-Triples/Turtle/RDF-JSON through the
reference gets the modern format here behind the same `Format` record.

Scope (documented subset, mirrors what the serializer emits so the
round-trip is exact):

* **Expanded form** only: the document is a JSON array of node objects
  (or ``{"@graph": [...]}`` / a single node object on input).
* Node subject from ``"@id"`` (``_:x`` → blank node); ``"@type"``
  carries ``rdf:type`` edges whose objects are IRIs; every other key is
  a full predicate IRI mapping to a list of value objects:
  ``{"@id": iri-or-bnode}`` | ``{"@value": lexical[, "@language": lg |
  "@type": dt]}``.
* On input only, an optional top-level ``"@context"`` of
  ``prefix → base-IRI`` mappings is honoured for predicate keys,
  ``@type`` values and value-object datatypes (compact IRIs), and
  nested node objects are flattened recursively (the nested object
  contributes its own triples, the parent gets a reference edge).
* ``"@list"`` is NOT supported (expanding it requires minting blank
  nodes, which would break the deterministic-skolemization contract);
  the parser raises ``ValueError`` so the poison-doc quarantine path
  can catch it.  RDF lists stay as explicit rdf:first/rest cons
  triples, like every other sink in this repo.
"""

from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa

from ..terms import (
    IRI,
    KIND_BLANK,
    KIND_IRI,
    RDF_TYPE,
    Blank,
    Literal,
    Term,
    append_subject_hash,
    triples_to_table,
)
from .parts import PartWriter, write_parts


def _node_id(kind: int, value: str) -> str:
    return f"_:{value}" if kind == KIND_BLANK else value


def _value_obj(kind: int, value: str, lang: str, datatype: str) -> dict:
    if kind != 2:  # KIND_LITERAL
        return {"@id": _node_id(kind, value)}
    o: dict = {"@value": value}
    if lang:
        o["@language"] = lang
    elif datatype:
        o["@type"] = datatype
    return o


def render_jsonld_node(group: pd.DataFrame) -> str:
    """One subject group → one expanded-form node object (JSON text)."""
    rows = group.to_dict("records")
    node: dict = {"@id": _node_id(rows[0]["subj_kind"], rows[0]["subj_value"])}
    types: list[str] = []
    preds: dict[str, list] = {}
    for r in rows:
        if (
            r["pred_kind"] == KIND_IRI
            and r["pred_value"] == RDF_TYPE
            and r["obj_kind"] == KIND_IRI
        ):
            types.append(r["obj_value"])
            continue
        preds.setdefault(_node_id(r["pred_kind"], r["pred_value"]), []).append(
            _value_obj(r["obj_kind"], r["obj_value"], r["obj_lang"], r["obj_datatype"])
        )
    if types:
        node["@type"] = sorted(set(types))
    for p in sorted(preds):
        node[p] = sorted(preds[p], key=lambda o: json.dumps(o, sort_keys=True))
    return json.dumps(node, ensure_ascii=False, sort_keys=False)


def serialize_jsonld(table: pa.Table, prefixes=None) -> str:
    """Whole table → one expanded-form JSON-LD document (array of node
    objects, subjects sorted).  ``prefixes`` accepted for registry
    signature parity; expanded form never compacts."""
    df = table.to_pandas()
    nodes = [
        render_jsonld_node(g)
        for _, g in df.groupby(["subj_kind", "subj_value"], sort=True)
    ]
    return "[" + ",".join(nodes) + "]"


def _expand(curie: str, context: dict[str, str]) -> str:
    if curie.startswith(("http://", "https://", "urn:", "_:")):
        return curie
    if ":" in curie:
        prefix, local = curie.split(":", 1)
        base = context.get(prefix)
        if base is not None:
            return base + local
    return context.get(curie, curie)


def _subject_term(node_id: str) -> Term:
    return Blank(node_id[2:]) if node_id.startswith("_:") else IRI(node_id)


def parse_jsonld(text: str) -> list[tuple[Term, Term, Term]]:
    """Expanded-form JSON-LD → triples (subset documented above)."""
    doc = json.loads(text)
    context: dict[str, str] = {}
    if isinstance(doc, dict):
        raw_ctx = doc.get("@context")
        if isinstance(raw_ctx, dict):
            context = {
                k: v for k, v in raw_ctx.items() if isinstance(v, str)
            }
        if "@graph" in doc:
            nodes = doc["@graph"]
        elif "@id" in doc or any(not k.startswith("@") for k in doc):
            nodes = [doc]
        else:
            nodes = []
    elif isinstance(doc, list):
        nodes = doc
    else:
        raise ValueError("JSON-LD document must be an object or array")

    triples: list[tuple[Term, Term, Term]] = []

    def walk(node: dict) -> Term:
        if "@list" in node:
            raise ValueError("@list is not supported (no bnode minting)")
        if "@id" not in node:
            raise ValueError("node object without @id (anonymous nodes "
                             "need minted bnode ids, unsupported)")
        subj = _subject_term(node["@id"])
        for key, values in node.items():
            if key in ("@id", "@context"):
                continue
            if not isinstance(values, list):
                values = [values]
            if key == "@type":
                for t in values:
                    triples.append((subj, IRI(RDF_TYPE), IRI(_expand(t, context))))
                continue
            if key.startswith("@"):
                raise ValueError(f"unsupported JSON-LD keyword {key!r}")
            pred = _subject_term(_expand(key, context))
            for v in values:
                if not isinstance(v, dict):
                    # JSON-native value (context-less compaction)
                    if isinstance(v, bool):
                        obj = Literal(
                            "true" if v else "false",
                            datatype="http://www.w3.org/2001/XMLSchema#boolean",
                        )
                    elif isinstance(v, int):
                        obj = Literal(
                            str(v),
                            datatype="http://www.w3.org/2001/XMLSchema#integer",
                        )
                    elif isinstance(v, float):
                        obj = Literal(
                            repr(v),
                            datatype="http://www.w3.org/2001/XMLSchema#double",
                        )
                    else:
                        obj = Literal(str(v))
                elif "@value" in v:
                    obj = Literal(
                        str(v["@value"]),
                        lang=v.get("@language", ""),
                        datatype=_expand(v["@type"], context)
                        if "@type" in v
                        else "",
                    )
                elif "@list" in v:
                    raise ValueError("@list is not supported (no bnode minting)")
                else:
                    # node reference or nested node object
                    obj = walk(v) if len(v) > 1 else _subject_term(v["@id"])
                triples.append((subj, pred, obj))
        return subj

    for n in nodes:
        if not isinstance(n, dict):
            raise ValueError("@graph entries must be node objects")
        walk(n)
    return triples


def parse_jsonld_batch(
    batch: pa.Table,
    text_column: str = "text",
    url_column: str | None = "url",
    on_error: str = "raise",
) -> pa.Table:
    """Poison-doc contract identical to the other batch parsers:
    ``on_error="skip"`` quarantines malformed documents."""
    texts = batch[text_column].to_pylist()
    urls = batch[url_column].to_pylist() if url_column else [""] * len(texts)
    rows, row_urls = [], []
    for text, url in zip(texts, urls):
        try:
            triples = parse_jsonld(text)
        except Exception:
            if on_error == "raise":
                raise
            continue
        rows.extend(triples)
        row_urls.extend([url] * len(triples))
    return append_subject_hash(triples_to_table(rows, urls=row_urls, with_hash=False))


class JSONLDWriter(PartWriter):
    """One subject-sorted block → one ``part-<contenthash>.jsonld``
    document (one node object per subject)."""

    ext = ".jsonld"

    def render(self, block: pa.Table) -> bytes:
        return serialize_jsonld(block).encode()


def write_jsonld(ds, out_dir: str):
    """Triples Dataset → expanded-form JSON-LD part files via the
    subject shuffle.  Returns the (path, rows) manifest."""
    return write_parts(ds, JSONLDWriter(out_dir), "subject_hash")
