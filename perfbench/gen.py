"""Seeded input generators.

Every generator is a pure function of ``(size, seed)``: the same seed
gives byte-identical inputs.  The seed selects document order, the
doc-id shift, word choices, the N-Triples file split and the query
constants.  The program under test only ever sees the files written
here.
"""

from __future__ import annotations

import os
import random
import re

import pyarrow as pa
import pyarrow.parquet as pq

WORDS = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
# skewed like the shipped fixtures: half of the documents are English
LANGS = ("en", "en", "en", "en", "zh", "es", "fr", "de")
N_SOURCES = 20

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
EX = "http://example.org/ns#"
DC = "http://purl.org/dc/elements/1.1/"
XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
HUB = "https://hub.example.org/"

# the convert job's subject rewrite (Go ``$1`` template, as the rdf CLI takes it)
REWRITE_FIND = r"^https://kg\.example\.org/doc/(\d+)$"
REWRITE_REPLACE = "https://entity.example.org/$1"


def documents_table(n_docs: int, seed: int) -> pa.Table:
    """A ``documents`` table shaped like the shipped testdata
    (``doc_id, text, lang, source, n_chars``)."""
    rng = random.Random(seed)
    shift = rng.randrange(1, 1000) * 1_000_000
    order = list(range(n_docs))
    rng.shuffle(order)
    cols: dict[str, list] = {k: [] for k in ("doc_id", "text", "lang", "source", "n_chars")}
    for i in order:
        n_chars = rng.randint(44, 577)
        text = " ".join(rng.choice(WORDS) for _ in range(n_chars // 3))[:n_chars]
        cols["doc_id"].append(shift + i)
        cols["text"].append(text)
        cols["lang"].append(rng.choice(LANGS))
        cols["source"].append(f"src{i % N_SOURCES}")
        cols["n_chars"].append(len(text))
    return pa.table(
        {
            "doc_id": pa.array(cols["doc_id"], pa.int64()),
            "text": pa.array(cols["text"], pa.string()),
            "lang": pa.array(cols["lang"], pa.string()),
            "source": pa.array(cols["source"], pa.string()),
            "n_chars": pa.array(cols["n_chars"], pa.int64()),
        }
    )


def write_documents(path: str, n_docs: int, seed: int) -> None:
    pq.write_table(documents_table(n_docs, seed), path)


def nt_lines(n_docs: int, seed: int) -> list[str]:
    """Distinct N-Triples lines about ``n_docs`` entities, in seeded
    order.  One hub subject cites every other entity, so its subject
    group holds ~9% of all lines (the skewed key of the subject
    exchange); every 7th entity adds two blank-node triples."""
    docs = documents_table(n_docs, seed).to_pydict()
    lines = []
    for did, text, lang, nc in zip(docs["doc_id"], docs["text"], docs["lang"], docs["n_chars"]):
        e = f"<https://kg.example.org/doc/{did}>"
        title = " ".join(text.split(" ")[:5])
        lines += [
            f"{e} <{RDF_TYPE}> <{EX}Document> .",
            f'{e} <{DC}language> "{lang}" .',
            f'{e} <{EX}chars> "{nc}"^^<{XSD_INT}> .',
            f'{e} <{DC}title> "{title}"@{lang} .',
            f"{e} <{EX}site> <https://site{did % 5}.example.org/> .",
        ]
        if did % 2 == 0:
            lines.append(f"<{HUB}> <{EX}cites> {e} .")
        if did % 7 == 0:
            lines.append(f"_:m{did} <{RDF_TYPE}> <{EX}Mention> .")
            lines.append(f'_:m{did} <{EX}label> "m{did}" .')
    random.Random(seed + 1).shuffle(lines)
    return lines


def write_nt_files(out_dir: str, lines: list[str], n_files: int) -> list[str]:
    """Split ``lines`` into ``n_files`` contiguous chunks of equal size.
    ``lines`` come in seeded order, so the seed decides which triples
    share a file; equal sizes keep the read's block layout the same
    for every seed.  Returns the written paths."""
    bounds = [len(lines) * k // n_files for k in range(n_files + 1)]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k in range(n_files):
        path = os.path.join(out_dir, f"part-{k:03d}.nt")
        with open(path, "w") as f:
            f.write("".join(line + "\n" for line in lines[bounds[k] : bounds[k + 1]]))
        paths.append(path)
    return paths


_SUBJ_IRI_RE = re.compile(r"^<([^>]*)> ")


def rewrite_subject_line(line: str) -> str:
    """The expected effect of the convert job's ``--rewrite-subject`` on one
    N-Triples line (Python ``re``, independent of the engine's RE2)."""
    m = _SUBJ_IRI_RE.match(line)
    if not m:
        return line
    new = re.sub(REWRITE_FIND, r"https://entity.example.org/\1", m.group(1))
    return f"<{new}> " + line[m.end():]


# --------------------------------------------------------------------------
# kg_query schedule
# --------------------------------------------------------------------------

JOIN_TEMPLATES = ("lang_by_site", "star_titles")


def _lookups(rng: random.Random, entities: list[str], n: int) -> list[dict]:
    """``n`` point lookups alternating ``SELECT ?p ?o`` and ``ASK``."""
    ops = []
    for k in range(n):
        e = rng.choice(entities)
        if k % 2 == 0:
            q = f"SELECT ?p ?o WHERE {{ <{e}> ?p ?o }}"
            ops.append({"cls": "lookup", "kind": "select_po", "entity": e, "query": q})
        else:
            lang = rng.choice(sorted(set(LANGS)))
            q = f'ASK {{ <{e}> <{DC}language> "{lang}" }}'
            ops.append({"cls": "lookup", "kind": "ask_lang", "entity": e,
                        "lang": lang, "query": q})
    return ops


def query_schedule(entities: list[str], n_rounds: int, seed: int,
                   lookups_per_round: int) -> list[list[dict]]:
    """``n_rounds`` rounds, each one query of every join template with
    ``lookups_per_round`` point lookups spread evenly in front of them
    (lookups sample the whole round, not one stretch of it).  Every
    round has the same class mix; the seed picks the entities,
    languages and sites."""
    rng = random.Random(seed + 3)
    langs = sorted(set(LANGS))
    rounds = []
    for _ in range(n_rounds):
        ops = []
        site = f"https://site{rng.randrange(5)}.example.org/"
        ops.append({
            "cls": "join", "kind": "lang_by_site", "site": site,
            "query": (
                f"PREFIX ex: <{EX}> PREFIX dc: <{DC}> "
                "SELECT ?l (COUNT(*) AS ?n) WHERE { "
                f"?d dc:language ?l . ?d ex:site <{site}> }} GROUP BY ?l"
            ),
        })
        lang = rng.choice(langs)
        site = f"https://site{rng.randrange(5)}.example.org/"
        ops.append({
            "cls": "join", "kind": "star_titles", "lang": lang, "site": site,
            "query": (
                f"PREFIX ex: <{EX}> PREFIX dc: <{DC}> "
                "SELECT DISTINCT ?d ?t WHERE { "
                f'?d dc:language "{lang}" . ?d dc:title ?t . ?d ex:site <{site}> }} '
                "ORDER BY ?t"
            ),
        })
        per_join, extra = divmod(lookups_per_round, len(ops))
        mixed = []
        for k, join in enumerate(ops):
            mixed += _lookups(rng, entities, per_join + (k < extra)) + [join]
        rounds.append(mixed)
    return rounds
