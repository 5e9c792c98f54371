"""RDFa/HTML triple extractor (operator S4) — the flagship per-page stage.

Reimplements the reference's DOM traversal semantics
(``/root/reference/rdfaparser/rdfaparser.go:64-151``):

- ``xmlns:<p>`` attributes register prefixes into a traversal-wide map
  (shared dict, mutations persist across siblings — Go map semantics,
  rdfaparser.go:66-74);
- ``vocab`` rebinds the CURIE fallback base for the subtree (:76-79);
- ``typeof`` [+ optional ``resource``] starts a new subject (Resource or
  anonymous blank node) and emits an ``rdf:type`` triple (:81-91);
- ``property`` + (``content`` attr | first child's text) + optional
  ``datatype`` / ``xml:lang`` emits a literal triple (:93-126);
- ``rel`` + ``href`` emits a forward link, ``rev`` + ``href`` a reversed
  one (:128-146);
- the document URI is the root subject (:154, :184); a leading ``<?xml?>``
  declaration is skipped (:168-175).

Anonymous nodes: the reference uses ``rand.Int63()`` ids
(``term.go:149-151``) — nondeterministic.  We skolemize instead:
``anon + md5(salt + url + '#' + counter)[:16]`` with a per-page counter,
preserving within-page identity (all argo's graph equality needs) while
keeping the pipeline deterministic and resumable (SURVEY.md §1.4).

The batch entrypoint :func:`extract_rdfa_batch` is a stateless
``map_batches`` UDF over zero-copy Arrow pages batches.
"""

from __future__ import annotations

import hashlib
import re
from html import unescape
from html.parser import HTMLParser

import pyarrow as pa

from ..terms import (
    A,
    IRI,
    Blank,
    Literal,
    Term,
    append_subject_hash,
    triples_to_table,
)

# HTML void elements never get children pushed on the stack.
_VOID = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class _Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: list[tuple[str, str | None]]):
        self.tag = tag
        self.attrs = {k: (v if v is not None else "") for k, v in attrs}
        self.children: list[object] = []  # _Node | str (text)


class _DomBuilder(HTMLParser):
    """Minimal DOM builder; tolerant of unclosed tags (pop-to-match)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = _Node("#document", [])
        self._stack = [self.root]

    def handle_starttag(self, tag: str, attrs: list) -> None:
        node = _Node(tag, attrs)
        self._stack[-1].children.append(node)
        if tag not in _VOID:
            self._stack.append(node)

    def handle_startendtag(self, tag: str, attrs: list) -> None:
        self._stack[-1].children.append(_Node(tag, attrs))

    def handle_endtag(self, tag: str) -> None:
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return

    def handle_data(self, data: str) -> None:
        self._stack[-1].children.append(data)


def parse_html(html: str) -> _Node:
    """HTML → DOM, skipping a leading ``<?...?>`` declaration
    (rdfaparser.go:168-175)."""
    if html.startswith("<?"):
        end = html.find(">")
        if end >= 0:
            html = html[end + 1 :]
    builder = _DomBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


def skolem_id(url: str, counter: int, salt: str = "") -> str:
    """Deterministic blank-node id replacing the reference's random
    ``anon%016x`` (term.go:149-151); md5 so the DuckDB oracle can
    reproduce it (``'anon' || substr(md5(url || '#' || n), 1, 16)``)."""
    digest = hashlib.md5(f"{salt}{url}#{counter}".encode()).hexdigest()
    return "anon" + digest[:16]


def _expand_uri(s: str, vocab_base: str, prefix_map: dict[str, str]) -> str:
    """CURIE expansion (operator M7, rdfaparser.go:53-62): bare name →
    vocab base + name; ``prefix:local`` → mapped base + local (missing
    prefix maps to "" exactly as a Go map zero value)."""
    p = s.find(":")
    if p < 0:
        return vocab_base + s
    return prefix_map.get(s[:p], "") + s[p + 1 :]


class _RdfaEvents(HTMLParser):
    """Single-pass event-stream extractor — same pre-order semantics as a
    DOM traversal would give, with zero node allocation (the flagship
    stage is memory-bound at high concurrency, so the hot path avoids
    building a tree).

    "property without content takes the first child's text"
    (rdfaparser.go:99-104) is handled by emitting a placeholder at the
    node's position in the triple list and patching it when the next
    event shows what the first child is (data → that text; any tag /
    endtag → "") — output order stays byte-identical to the reference's
    traversal.
    """

    def __init__(self, document_uri: str, salt: str = "") -> None:
        super().__init__(convert_charrefs=True)
        self.uri = document_uri
        self.salt = salt
        self.triples: list = []
        self.prefix_map: dict[str, str] = {}
        self.anon = 0
        self.subject: Term = IRI(document_uri)
        self.vocab = ""
        # (tag, subject-to-restore, vocab-to-restore) per open element
        self.stack: list[tuple[str, Term, str]] = []
        # (index-into-triples, subject, predicate, datatype, lang)
        self.pending: tuple | None = None

    def _flush_pending(self, text: str) -> None:
        idx, subj, pred, datatype, lang = self.pending
        self.pending = None
        if datatype is not None:
            obj = Literal(text, datatype=datatype)
        elif lang is not None:
            obj = Literal(text, lang=lang)
        else:
            obj = Literal(text)
        self.triples[idx] = (subj, pred, obj)

    def _element(self, attrs_list: list, has_children: bool) -> None:
        if self.pending is not None:
            self._flush_pending("")  # first child is an element → ""
        # single pass over the attrs, no dict build; a repeated attribute
        # keeps its last value (same as the dict semantics it replaces)
        vocab = self.vocab
        typeof = resource = prop = content = datatype = lang = None
        rel = rev = href = None
        for name, value in attrs_list:
            if value is None:
                value = ""
            if name.startswith("xmlns:"):
                self.prefix_map[name[6:]] = value
            elif name == "vocab":
                vocab = value
            elif name == "typeof":
                typeof = value
            elif name == "resource":
                resource = value
            elif name == "property":
                prop = value
            elif name == "content":
                content = value
            elif name == "datatype":
                datatype = value
            elif name == "xml:lang":
                lang = value
            elif name == "rel":
                rel = value
            elif name == "rev":
                rev = value
            elif name == "href":
                href = value

        subject = self.subject

        if typeof is not None:
            if resource is not None:
                subject = IRI(resource)
            else:
                subject = Blank(skolem_id(self.uri, self.anon, self.salt))
                self.anon += 1
            self.triples.append(
                (subject, A, IRI(_expand_uri(typeof, vocab, self.prefix_map)))
            )

        if prop is not None:
            predicate = IRI(_expand_uri(prop, vocab, self.prefix_map))
            if content is not None or not has_children:
                value = content if content is not None else ""
                if datatype is not None:
                    obj = Literal(value, datatype=datatype)
                elif lang is not None:
                    obj = Literal(value, lang=lang)
                else:
                    obj = Literal(value)
                self.triples.append((subject, predicate, obj))
            else:  # value comes from the first child — patch later
                self.pending = (
                    len(self.triples), subject, predicate, datatype, lang,
                )
                self.triples.append(None)

        if rel is not None and href is not None:
            self.triples.append(
                (subject, IRI(_expand_uri(rel, vocab, self.prefix_map)), IRI(href))
            )

        if rev is not None and href is not None:
            self.triples.append(
                (IRI(href), IRI(_expand_uri(rev, vocab, self.prefix_map)), subject)
            )

        if has_children:
            self.stack.append((self._cur_tag, self.subject, self.vocab))
            self.subject = subject
            self.vocab = vocab

    def handle_starttag(self, tag: str, attrs: list) -> None:
        self._cur_tag = tag
        self._element(attrs, has_children=tag not in _VOID)

    def handle_startendtag(self, tag: str, attrs: list) -> None:
        self._cur_tag = tag
        self._element(attrs, has_children=False)

    def handle_endtag(self, tag: str) -> None:
        for i in range(len(self.stack) - 1, -1, -1):
            if self.stack[i][0] == tag:
                if self.pending is not None:
                    self._flush_pending("")
                _, self.subject, self.vocab = self.stack[i]
                del self.stack[i:]
                return

    def handle_data(self, data: str) -> None:
        if self.pending is not None:
            self._flush_pending(data)


class _ScanFallback(Exception):
    """Raised when a page leaves the scanner's strict-clean subset."""


_STARTTAG_RE = re.compile(
    r'<([a-zA-Z][-a-zA-Z0-9:._]*)((?:[^>"\']|"[^"]*"|\'[^\']*\')*?)(/?)>'
)
_ENDTAG_RE = re.compile(r"</([a-zA-Z][-a-zA-Z0-9:._]*)\s*>")
# strict attribute block: (ws name[=("…"|'…'|bare)])* ws?
_ATTRS_FULL = re.compile(
    r'(?:\s+[a-zA-Z_:][-a-zA-Z0-9_:.]*(?:\s*=\s*(?:"[^"]*"|\'[^\']*\'|[^\s>"\'=]+))?)*\s*'
)
_ATTR_RE = re.compile(
    r'([a-zA-Z_:][-a-zA-Z0-9_:.]*)(?:\s*=\s*("[^"]*"|\'[^\']*\'|[^\s>"\'=]+))?'
)
# html.parser's CDATA_CONTENT_ELEMENTS — keep in lockstep for equivalence
_RAW_TEXT = ("script", "style")
# any RDFa-bearing element's attr string must contain one of these; a
# false positive (e.g. rel inside a class name) just takes the slow path.
# IGNORECASE: html.parser lowercases attribute names per spec, so pages
# writing PROPERTY=… still emit triples via the fallback — the hint must
# not drop them (a miss here is a semantic hole, not just a slow path).
_RDFA_HINT = re.compile(r"property|typeof|rel|rev|vocab|xmlns:", re.IGNORECASE)
# raw-text close tags, case-insensitive, without copying the page per
# <script>/<style> element (html.lower() per element is quadratic on
# script-heavy pages)
_RAW_CLOSE = {t: re.compile(r"</" + t, re.IGNORECASE) for t in ("script", "style")}


def _extract_scan(html: str, document_uri: str, salt: str) -> list[tuple]:
    """Regex tokenizer driving the same ``_RdfaEvents`` handlers (so the
    RDFa semantics live in exactly one place).  Strict about what it
    accepts — anything outside the clean-HTML subset raises
    ``_ScanFallback`` and the page re-parses via ``html.parser``."""
    p = _RdfaEvents(document_uri, salt)
    pos, n = 0, len(html)
    find = html.find
    databuf: list[str] = []

    def flush_data() -> None:
        if databuf:
            s = "".join(databuf)
            databuf.clear()
            if "&" in s:
                s = unescape(s)
            p.handle_data(s)

    while pos < n:
        lt = find("<", pos)
        if lt < 0:
            databuf.append(html[pos:])
            break
        if lt > pos:
            databuf.append(html[pos:lt])
        nxt = html[lt + 1 : lt + 2]
        if nxt == "!":
            if html.startswith("<!--", lt):
                end = find("-->", lt + 4)
                if end < 0:
                    raise _ScanFallback
                pos = end + 3
            elif html.startswith("<![CDATA[", lt):
                end = find("]]>", lt + 9)
                if end < 0:
                    raise _ScanFallback
                pos = end + 3
            else:  # <!DOCTYPE …>
                end = find(">", lt)
                if end < 0:
                    raise _ScanFallback
                pos = end + 1
        elif nxt == "?":
            end = find(">", lt)
            if end < 0:
                raise _ScanFallback
            pos = end + 1
        elif nxt == "/":
            m = _ENDTAG_RE.match(html, lt)
            if not m:
                raise _ScanFallback
            flush_data()
            p.handle_endtag(m.group(1).lower())
            pos = m.end()
        elif nxt.isalpha():
            m = _STARTTAG_RE.match(html, lt)
            if not m:
                raise _ScanFallback
            attrs_str = m.group(2)
            tag = m.group(1).lower()
            # fast path: no RDFa-relevant attribute → no triples, no attr
            # parse; inherit subject/vocab and just track the element
            if tag not in _RAW_TEXT and (
                not attrs_str or _RDFA_HINT.search(attrs_str) is None
            ):
                if attrs_str and not _ATTRS_FULL.fullmatch(attrs_str):
                    raise _ScanFallback
                flush_data()
                if p.pending is not None:
                    p._flush_pending("")
                if m.group(3) != "/" and tag not in _VOID:
                    p.stack.append((tag, p.subject, p.vocab))
                pos = m.end()
                continue
            if attrs_str and not _ATTRS_FULL.fullmatch(attrs_str):
                raise _ScanFallback
            attrs = []
            if attrs_str:
                for am in _ATTR_RE.finditer(attrs_str):
                    v = am.group(2)
                    if v is None:
                        v = ""
                    elif v[0] in "\"'":
                        v = v[1:-1]
                    if "&" in v:
                        v = unescape(v)
                    attrs.append((am.group(1).lower(), v))
            flush_data()
            if m.group(3) == "/":
                p.handle_startendtag(tag, attrs)
                pos = m.end()
            elif tag in _RAW_TEXT:
                # raw-text content: no charref conversion, no tags
                p.handle_starttag(tag, attrs)
                cm = _RAW_CLOSE[tag].search(html, m.end())
                close = cm.start() if cm else -1
                if close < 0:
                    p.handle_data(html[m.end() :])
                    pos = n
                else:
                    if close > m.end():
                        p.handle_data(html[m.end() : close])
                    em = _ENDTAG_RE.match(html, close)
                    if not em:
                        raise _ScanFallback
                    p.handle_endtag(em.group(1).lower())
                    pos = em.end()
            else:
                p.handle_starttag(tag, attrs)
                pos = m.end()
        else:
            # bare '<' is literal text (html.parser does the same)
            databuf.append("<")
            pos = lt + 1
    flush_data()
    if p.pending is not None:
        p._flush_pending("")
    return p.triples


def extract_rdfa(html: str, document_uri: str, salt: str = "") -> list[tuple]:
    """Extract triples from one HTML page (semantics per module doc).

    Fast path: regex tokenizer (``_scan``) — ~3× the stdlib
    ``html.parser`` throughput on the tokenize-dominated profile.  Any
    page the scanner can't tokenize cleanly falls back to the tolerant
    ``html.parser`` event extractor (identical semantics, A/B-verified).
    """
    if html.startswith("<?"):
        end = html.find(">")
        if end >= 0:
            html = html[end + 1 :]
    # whole-page pre-scan: a page with no RDFa marker substring cannot
    # emit a triple (every emitting rule needs typeof/property/rel/rev).
    # On a real web corpus most pages take this O(one regex scan) exit —
    # the single biggest lever at 10^12-page scale.
    if _RDFA_HINT.search(html) is None:
        return []
    try:
        return _extract_scan(html, document_uri, salt)
    except _ScanFallback:
        p = _RdfaEvents(document_uri, salt)
        p.feed(html)
        p.close()
        if p.pending is not None:
            p._flush_pending("")
        return p.triples


def extract_text(html: str) -> str:
    """HTML → visible text: all non-whitespace text nodes in document
    order joined with single spaces.  The per-row invariant column
    (``BASELINE.json`` input_hint: byte-identical text per url)."""
    root = parse_html(html)
    parts: list[str] = []

    def walk(node: _Node) -> None:
        for child in node.children:
            if isinstance(child, str):
                stripped = child.strip()
                if stripped:
                    parts.append(stripped)
            else:
                walk(child)

    walk(root)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Ray Data batch stages (stateless map_batches UDFs)
# ---------------------------------------------------------------------------


def extract_rdfa_batch(
    batch: pa.Table,
    html_column: str = "html",
    url_column: str = "url",
    salt: str = "",
    on_error: str = "skip",
) -> pa.Table:
    """pages batch → flattened triples batch (flagship stage S4).

    Malformed pages are quarantined (skipped) rather than failing the
    task — poison-page pattern, SURVEY.md §4; the reference precedent is
    parse errors streaming to errChan without aborting sibling sources
    (rdf/rdf.go:414-420).
    """
    htmls = batch[html_column].to_pylist()
    urls = batch[url_column].to_pylist()
    rows: list[tuple[Term, Term, Term]] = []
    row_urls: list[str] = []
    for html, url in zip(htmls, urls):
        if isinstance(html, bytes):
            html = html.decode("utf-8", errors="replace")
        try:
            triples = extract_rdfa(html, url, salt)
        except Exception:
            if on_error == "raise":
                raise
            continue
        rows.extend(triples)
        row_urls.extend([url] * len(triples))
    table = triples_to_table(rows, urls=row_urls, with_hash=False)
    return append_subject_hash(table)


def extract_errors_batch(
    batch: pa.Table, html_column: str = "html", url_column: str = "url", salt: str = ""
) -> pa.Table:
    """Quarantine side-channel: one row per page the extractor rejects
    (url, error kind, message) — the errors table of SURVEY §4's
    poison-page design.  Reference precedent: parse errors stream to
    errChan with position info and never abort sibling sources
    (rdf/rdf.go:414-420, ntriples.go:31-51).

    Run as its own ``map_batches`` pass over the same pages Dataset the
    extraction pass consumes (both streams read the input once each;
    Ray Data has no two-output operators).
    """
    urls, kinds, msgs = [], [], []
    for html, url in zip(
        batch[html_column].to_pylist(), batch[url_column].to_pylist()
    ):
        if isinstance(html, bytes):
            html = html.decode("utf-8", errors="replace")
        try:
            if html is None:
                raise TypeError("null html payload")
            extract_rdfa(html, url, salt)
        except Exception as e:  # noqa: BLE001 — quarantine everything
            urls.append(url)
            kinds.append(type(e).__name__)
            msgs.append(str(e)[:500])
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "error_kind": pa.array(kinds, pa.string()),
            "error": pa.array(msgs, pa.string()),
        }
    )


def extract_text_batch(
    batch: pa.Table, html_column: str = "html", out_column: str = "extracted_text"
) -> pa.Table:
    htmls = batch[html_column].to_pylist()
    texts = [
        extract_text(h.decode("utf-8", errors="replace") if isinstance(h, bytes) else h)
        for h in htmls
    ]
    return batch.append_column(out_column, pa.array(texts, pa.string()))
