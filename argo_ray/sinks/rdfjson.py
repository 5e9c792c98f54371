"""RDF/JSON serializer (operator K3) + parser for round-trips.

The reference nests S→P→[O] via ``IndexStore`` and emits single-quoted
pseudo-JSON (``/root/reference/json.go:8-120``); per SURVEY.md §2.2 K3
we keep the same structure but emit standards-correct JSON
(talis RDF/JSON): ``{subject: {predicate: [{"type": "uri"|"bnode"|
"literal", "value": ..., "lang"?: ..., "datatype"?: ...}]}}`` where
subject/predicate keys are the raw URI or ``_:id`` (the reference's
IndexStore key codec, indexstore.go:44-56).
"""

from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa

from ..terms import (
    IRI,
    KIND_BLANK,
    KIND_IRI,
    Blank,
    Literal,
    Term,
    append_subject_hash,
    triples_to_table,
)
from .parts import PartWriter, write_parts


def _key(kind: int, value: str) -> str:
    return f"_:{value}" if kind == KIND_BLANK else value


def _obj(kind: int, value: str, lang: str, datatype: str) -> dict:
    if kind == KIND_IRI:
        return {"type": "uri", "value": value}
    if kind == KIND_BLANK:
        return {"type": "bnode", "value": f"_:{value}"}
    o = {"type": "literal", "value": value}
    if lang:
        o["lang"] = lang
    elif datatype:
        o["datatype"] = datatype
    return o


def render_json_block(group: pd.DataFrame) -> str:
    """One subject group → the subject's JSON object entry (no outer
    braces)."""
    rows = group.to_dict("records")
    subj = _key(rows[0]["subj_kind"], rows[0]["subj_value"])
    preds: dict[str, list] = {}
    for r in rows:
        preds.setdefault(_key(r["pred_kind"], r["pred_value"]), []).append(
            _obj(r["obj_kind"], r["obj_value"], r["obj_lang"], r["obj_datatype"])
        )
    return json.dumps({subj: preds}, ensure_ascii=False, sort_keys=True)[1:-1]


def serialize_rdfjson(table: pa.Table) -> str:
    """Flattened triple table → one RDF/JSON document, one entry per
    subject.  ``RDFJSONWriter`` renders each subject-sorted block with
    it on a worker."""
    df = table.to_pandas()
    blocks = [
        render_json_block(g) for _, g in df.groupby(["subj_kind", "subj_value"], sort=True)
    ]
    return "{" + ",".join(blocks) + "}"


def _term_from_key(key: str) -> Term:
    return Blank(key[2:]) if key.startswith("_:") else IRI(key)


def parse_rdfjson(text: str) -> list[tuple[Term, Term, Term]]:
    """RDF/JSON → triples (round-trip support; no reference analogue —
    the reference never parses its JSON output)."""
    doc = json.loads(text)
    triples = []
    for skey, preds in doc.items():
        s = _term_from_key(skey)
        for pkey, objs in preds.items():
            p = _term_from_key(pkey)
            for o in objs:
                if o["type"] == "uri":
                    term = IRI(o["value"])
                elif o["type"] == "bnode":
                    term = Blank(o["value"][2:])
                else:
                    term = Literal(
                        o["value"], lang=o.get("lang", ""), datatype=o.get("datatype", "")
                    )
                triples.append((s, p, term))
    return triples


def parse_rdfjson_batch(
    batch: pa.Table,
    text_column: str = "text",
    url_column: str | None = "url",
    on_error: str = "raise",
) -> pa.Table:
    """``on_error="skip"`` quarantines malformed documents instead of
    failing the task (poison-doc pattern, same contract as the other
    batch parsers)."""
    texts = batch[text_column].to_pylist()
    urls = batch[url_column].to_pylist() if url_column else [""] * len(texts)
    rows, row_urls = [], []
    for text, url in zip(texts, urls):
        try:
            triples = parse_rdfjson(text)
        except Exception:
            if on_error == "raise":
                raise
            continue
        rows.extend(triples)
        row_urls.extend([url] * len(triples))
    return append_subject_hash(triples_to_table(rows, urls=row_urls, with_hash=False))


class RDFJSONWriter(PartWriter):
    """One subject-sorted block → one ``part-<contenthash>.json``
    document."""

    ext = ".json"

    def render(self, block: pa.Table) -> bytes:
        return serialize_rdfjson(block).encode()


def write_rdfjson(ds, out_dir: str):
    """Triples Dataset → JSON part files via the subject shuffle (a
    subject's entry is never split across documents).  Returns the
    (path, rows) manifest."""
    return write_parts(ds, RDFJSONWriter(out_dir), "subject_hash")
