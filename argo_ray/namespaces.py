"""Built-in namespace table (operator T1 substitute).

The reference resolves unknown prefixes over HTTP via prefix.cc with a
gob-persisted cache (``/root/reference/namespace.go:111-177``).  Network
lookups are forbidden mid-pipeline (SURVEY.md §2.4 T1): this static
table of the reference's ~40 built-ins (``namespace.go:37-78``) is the
pre-resolved broadcast dictionary; unknown prefixes resolve to ``""``
exactly like the reference's failed lookup (``squirtleparser.y:318-331``).
"""

from .io import publish

BUILTIN_NAMESPACES: dict[str, str] = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "cs": "http://purl.org/vocab/changeset/schema#",
    "bf": "http://schemas.talis.com/2006/bigfoot/configuration#",
    "frm": "http://schemas.talis.com/2006/frame/schema#",
    "dc": "http://purl.org/dc/elements/1.1/",
    "dct": "http://purl.org/dc/terms/",
    "dctype": "http://purl.org/dc/dcmitype/",
    "foaf": "http://xmlns.com/foaf/0.1/",
    "bio": "http://purl.org/vocab/bio/0.1/",
    "geo": "http://www.w3.org/2003/01/geo/wgs84_pos#",
    "rel": "http://purl.org/vocab/relationship/",
    "rss": "http://purl.org/rss/1.0/",
    "wn": "http://xmlns.com/wordnet/1.6/",
    "air": "http://www.daml.org/2001/10/html/airport-ont#",
    "contact": "http://www.w3.org/2000/10/swap/pim/contact#",
    "ical": "http://www.w3.org/2002/12/cal/ical#",
    "icaltzd": "http://www.w3.org/2002/12/cal/icaltzd#",
    "frbr": "http://purl.org/vocab/frbr/core#",
    "ad": "http://schemas.talis.com/2005/address/schema#",
    "lib": "http://schemas.talis.com/2005/library/schema#",
    "dir": "http://schemas.talis.com/2005/dir/schema#",
    "user": "http://schemas.talis.com/2005/user/schema#",
    "sv": "http://schemas.talis.com/2005/service/schema#",
    "mo": "http://purl.org/ontology/mo/",
    "status": "http://www.w3.org/2003/06/sw-vocab-status/ns#",
    "label": "http://purl.org/net/vocab/2004/03/label#",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "bibo": "http://purl.org/ontology/bibo/",
    "ov": "http://open.vocab.org/terms/",
    "void": "http://rdfs.org/ns/void#",
    "dbp": "http://dbpedia.org/resource/",
    "dbpo": "http://dbpedia.org/ontology/",
    "wiki": "http://en.wikipedia.org/wiki/",
    "gn": "http://www.geonames.org/ontology#",
    "cyc": "http://sw.opencyc.org/2009/04/07/concept/en/",
    "s": "http://schema.org/",
    "gr": "http://purl.org/goodrelations/v1#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}


class PrefixCache:
    """Persisted prefix→namespace cache — completes operator T1
    (``namespace.go:111-177``: prefix.cc lookup + gob Load/SaveLookupCache)
    without mid-pipeline network I/O.

    Resolution order: in-memory cache → :data:`BUILTIN_NAMESPACES` →
    optional ``resolver`` callable (the prefix.cc HTTP hook, injectable
    by DRIVER-side tooling only — pipeline tasks must construct the
    cache without one).  Successful resolver hits are cached; ``save``/
    ``load`` persist the cache as JSON (the gob-file equivalent), so a
    driver can warm the cache once and broadcast it (``ray.put``) to
    every task.  A miss returns ``""`` — the same zero value a failed
    lookup produces in the reference (``squirtleparser.y:318-331``).
    """

    def __init__(self, cache_file: str | None = None, resolver=None):
        self._cache: dict[str, str] = {}
        self._resolver = resolver
        self._path = cache_file
        if cache_file is not None:
            import os

            if os.path.exists(cache_file):
                self.load(cache_file)

    def lookup(self, prefix: str) -> str:
        uri = self._cache.get(prefix)
        if uri is not None:
            return uri
        uri = BUILTIN_NAMESPACES.get(prefix)
        if uri is not None:
            return uri
        if self._resolver is not None:
            try:
                uri = self._resolver(prefix) or ""
            except Exception:
                uri = ""
            if uri:
                self._cache[prefix] = uri
            return uri
        return ""

    def load(self, path: str | None = None) -> None:
        import json

        target = path or self._path
        if target is None:
            raise ValueError(
                "no cache file: construct with cache_file= or pass path"
            )
        with open(target, encoding="utf-8") as f:
            self._cache.update(json.load(f))

    def save(self, path: str | None = None) -> None:
        import json

        target = path or self._path
        if target is None:
            raise ValueError(
                "no cache file: construct with cache_file= or pass path"
            )
        publish(target, json.dumps(self._cache, sort_keys=True).encode("utf-8"))

    def as_dict(self) -> dict[str, str]:
        """Merged broadcast view (builtins + cached lookups) for
        ``ray.put`` into parser stages."""
        return {**BUILTIN_NAMESPACES, **self._cache}
