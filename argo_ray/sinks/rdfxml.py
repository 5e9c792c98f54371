"""RDF/XML serializer (operator K2) — a grouping (blocking) serializer.

Reimplements ``/root/reference/rdfxml.go:181-333``: triples group by
subject; the *first* ``rdf:type`` triple whose object is a Resource is
elided into the element tag (type elision, rdfxml.go:186-201); qnames
come from ``SplitPrefix`` + the prefix map (uri-base → prefix), falling
back to an inline ``xmlns=`` (:236-246, :258-266); objects render as
``rdf:resource`` / literal body (+``xml:lang``/``rdf:datatype``) /
``rdf:nodeID`` (:273-304).

Ray Data shape: the reference buffers the entire graph in one map —
here the group-by-subject is one exchange on ``subject_hash``, so every
subject's triples land in one block, and each block renders whole into
one complete, valid ``<rdf:RDF>`` part document.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..stages.canon import split_prefix
from ..terms import KIND_BLANK, KIND_IRI, KIND_LITERAL, RDF_TYPE
from .parts import PartWriter, write_parts


def escape_xml(s: str) -> str:
    """Go ``xml.Escape`` equivalent (rdfxml.go:52-56)."""
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&#34;")
        .replace("'", "&#39;")
        .replace("\t", "&#x9;")
        .replace("\n", "&#xA;")
        .replace("\r", "&#xD;")
    )


import re

# XML element names: letter/_ start, then letters/digits/._-
_XML_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9._-]*\Z")


def _qname(uri: str, prefixes: dict[str, str]) -> tuple[str, str, str, bool]:
    """→ (base, name, prefix, has_prefix).

    The local ``name`` becomes an XML element name, so it must be a
    valid one — ``split_prefix`` can yield digit-leading or
    symbol-containing locals (``<http://e/123>`` → ``<123 …>``,
    malformed XML; the reference has the same hole, rdfxml.go:236-246).
    When that happens the split moves left to the longest valid-name
    suffix and the remainder becomes the (inline-xmlns) base; an IRI
    with no valid suffix at all cannot be an RDF/XML predicate/type —
    raise rather than emit an unparseable document."""
    base, name = split_prefix(uri)
    if not _XML_NAME_RE.match(name):
        k = len(uri)
        while k > 0 and re.match(r"[A-Za-z0-9._-]", uri[k - 1]):
            k -= 1
        while k < len(uri) and not re.match(r"[A-Za-z_]", uri[k]):
            k += 1
        if k >= len(uri):
            raise ValueError(
                f"IRI {uri!r} has no valid XML-name suffix — cannot be "
                f"serialized as an RDF/XML element name"
            )
        base, name = uri[:k], uri[k:]
    prefix = prefixes.get(base)
    return base, name, prefix or "", prefix is not None


def render_subject_block(group: pd.DataFrame, prefixes: dict[str, str]) -> str:
    """Render one subject's triples as an element block (no document
    header/footer).  ``prefixes`` maps namespace URI → prefix name,
    the reference's ``graph.Prefixes`` orientation."""
    rows = group.to_dict("records")
    first = rows[0]
    subj_kind, subj_value = first["subj_kind"], first["subj_value"]

    # Type elision: first rdf:type with Resource object (rdfxml.go:189-199).
    type_uri = None
    body_rows = []
    for r in rows:
        if (
            type_uri is None
            and r["pred_kind"] == KIND_IRI
            and r["pred_value"] == RDF_TYPE
            and r["obj_kind"] == KIND_IRI
        ):
            type_uri = r["obj_value"]
            continue
        body_rows.append(r)

    if subj_kind == KIND_IRI:
        subj_str = f'rdf:about="{escape_xml(subj_value)}"'
    else:
        subj_str = f'rdf:nodeID="{escape_xml(subj_value)}"'

    out: list[str] = []
    if type_uri is not None:
        try:
            tbase, tname, tprefix, thas = _qname(type_uri, prefixes)
        except ValueError:
            # type IRI can't be an element name → skip elision and emit
            # it as an ordinary rdf:type property instead
            body_rows.insert(0, next(
                r for r in rows
                if r["pred_kind"] == KIND_IRI and r["pred_value"] == RDF_TYPE
                and r["obj_kind"] == KIND_IRI and r["obj_value"] == type_uri
            ))
            type_uri = None
    if type_uri is not None:
        if thas:
            out.append(f"  <{escape_xml(tprefix)}:{escape_xml(tname)} {subj_str}>\n")
            closer = f"  </{escape_xml(tprefix)}:{escape_xml(tname)}>\n"
        else:
            out.append(f'  <{escape_xml(tname)} xmlns="{escape_xml(tbase)}" {subj_str}>\n')
            closer = f"  </{escape_xml(tname)}>\n"
    else:
        out.append(f"  <rdf:Description {subj_str}>\n")
        closer = "  </rdf:Description>\n"

    for r in body_rows:
        pbase, pname, pprefix, phas = _qname(r["pred_value"], prefixes)
        if phas:
            open_tag = f"    <{escape_xml(pprefix)}:{escape_xml(pname)}"
            close_tag = f"</{escape_xml(pprefix)}:{escape_xml(pname)}>\n"
        else:
            open_tag = f'    <{escape_xml(pname)} xmlns="{escape_xml(pbase)}"'
            close_tag = f"</{escape_xml(pname)}>\n"
        out.append(open_tag)

        if r["obj_kind"] == KIND_IRI:
            out.append(f' rdf:resource="{escape_xml(r["obj_value"])}" />\n')
        elif r["obj_kind"] == KIND_LITERAL:
            if r["obj_lang"]:
                out.append(f' xml:lang="{escape_xml(r["obj_lang"])}"')
            elif r["obj_datatype"]:
                out.append(f' rdf:datatype="{escape_xml(r["obj_datatype"])}"')
            out.append(f'>{escape_xml(r["obj_value"])}{close_tag}')
        else:  # blank node
            out.append(f' rdf:nodeID="{escape_xml(r["obj_value"])}" />\n')

    out.append(closer)
    return "".join(out)


def document_header(prefixes: dict[str, str]) -> str:
    """rdfxml.go:203-215 — rdf: first, then the bound prefixes."""
    head = '<rdf:RDF\n  xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
    for uri, prefix in prefixes.items():
        if prefix != "rdf":
            head += f'  xmlns:{escape_xml(prefix)}="{escape_xml(uri)}"\n'
    return head + ">\n"


DOCUMENT_FOOTER = "</rdf:RDF>\n"


def serialize_rdfxml(table: pa.Table, prefixes: dict[str, str] | None = None) -> str:
    """Flattened triple table → one RDF/XML document string, one
    description per subject.  ``RDFXMLWriter`` renders each
    subject-sorted block with it on a worker."""
    prefixes = prefixes or {}
    df = table.to_pandas()
    blocks = [
        render_subject_block(g, prefixes)
        for _, g in df.groupby(["subj_kind", "subj_value"], sort=True)
    ]
    return document_header(prefixes) + "".join(blocks) + DOCUMENT_FOOTER


class RDFXMLWriter(PartWriter):
    """One subject-sorted block → one complete ``part-<contenthash>.rdf``
    document."""

    ext = ".rdf"

    def render(self, block: pa.Table) -> bytes:
        return serialize_rdfxml(block, self.prefixes).encode()


def write_rdfxml(ds, out_dir: str, prefixes: dict[str, str] | None = None):
    """Triples Dataset → directory of RDF/XML part documents via the one
    subject shuffle.  Returns the (path, rows) manifest."""
    return write_parts(ds, RDFXMLWriter(out_dir, prefixes), "subject_hash")
