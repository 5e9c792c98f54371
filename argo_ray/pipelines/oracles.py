"""DuckDB oracle SQL for the KG-construction queries.

Because the ``pages`` table is a deterministic relational function of
``documents`` (argo_ray/pages.py), the expected triples are expressible
as plain SQL — the ``EXP`` CTE below reconstructs exactly what the Ray
pipeline must extract, including the duplicated assertions (doc_id%3),
the skolemized blank nodes (doc_id%7, md5-based so DuckDB can reproduce
them) and the hot hub subject.
"""

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
EX = "http://example.org/ns#"
DC = "http://purl.org/dc/elements/1.1/"
XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
HUB = "https://hub.example.org/"

# Shared CTE: documents → expected extracted triples (multiset).
EXP_CTE = f"""
WITH docs AS (
  SELECT doc_id, text, lang, source, n_chars,
         'https://kg.example.org/doc/' || doc_id AS entity,
         'https://docs.example.org/' || source || '/' || doc_id AS url,
         array_to_string(string_split(text, ' ')[1:5], ' ') AS title,
         'https://site' || (doc_id % 5) || '.example.org/' AS site,
         'anon' || substr(md5('https://docs.example.org/' || source || '/' || doc_id || '#0'), 1, 16) AS skolem
  FROM documents
),
exp AS (
  SELECT CAST(0 AS BIGINT) AS subj_kind, entity AS subj_value, '' AS subj_lang, '' AS subj_datatype,
         CAST(0 AS BIGINT) AS pred_kind, '{RDF_TYPE}' AS pred_value, '' AS pred_lang, '' AS pred_datatype,
         CAST(0 AS BIGINT) AS obj_kind, '{EX}Document' AS obj_value, '' AS obj_lang, '' AS obj_datatype
  FROM docs
  UNION ALL
  SELECT 0, entity, '', '', 0, '{DC}language', '', '', 2, lang, '', '' FROM docs
  UNION ALL
  SELECT 0, entity, '', '', 0, '{DC}language', '', '', 2, lang, '', ''
  FROM docs WHERE doc_id % 3 = 0
  UNION ALL
  SELECT 0, entity, '', '', 0, '{EX}chars', '', '',
         2, CAST(n_chars AS VARCHAR), '', '{XSD_INT}' FROM docs
  UNION ALL
  SELECT 0, entity, '', '', 0, '{DC}title', '', '', 2, title, lang, '' FROM docs
  UNION ALL
  SELECT 0, entity, '', '', 0, '{EX}site', '', '', 0, site, '', '' FROM docs
  UNION ALL
  SELECT 0, '{HUB}', '', '', 0, '{EX}cites', '', '', 0, entity, '', '' FROM docs
  UNION ALL
  SELECT 1, skolem, '', '', 0, '{RDF_TYPE}', '', '', 0, '{EX}Mention', '', ''
  FROM docs WHERE doc_id % 7 = 0
  UNION ALL
  SELECT 1, skolem, '', '', 0, '{EX}label', '', '', 2, 'm' || doc_id, '', ''
  FROM docs WHERE doc_id % 7 = 0
)
"""

# Same expected-triples CTE with per-row provenance: every branch gains
# the asserting page's url as its first column.
_DOCS_PART, _EXP_PART = EXP_CTE.split("exp AS (")
EXP_URL_CTE = _DOCS_PART + "exp AS (" + _EXP_PART.replace("SELECT ", "SELECT url, ")

TERM_COLS = """subj_kind, subj_value, subj_lang, subj_datatype,
       pred_kind, pred_value, pred_lang, pred_datatype,
       obj_kind, obj_value, obj_lang, obj_datatype"""

# One rendered N-Triples line from the flattened columns (canonical
# rendering, term.go:49-51,93-110; values are escape-free by fixture
# construction so no replace chain is needed in SQL).
_NT_TERM = """CASE {k}
  WHEN 0 THEN '<' || {v} || '>'
  WHEN 1 THEN '_:' || {v}
  ELSE '"' || {v} || '"' ||
       CASE WHEN {l} <> '' THEN '@' || {l}
            WHEN {d} <> '' THEN '^^<' || {d} || '>'
            ELSE '' END
END"""


def _nt_term(pos: str) -> str:
    return _NT_TERM.format(
        k=f"{pos}_kind", v=f"{pos}_value", l=f"{pos}_lang", d=f"{pos}_datatype"
    )


# The second source for the union query: one synthetic N-Triples
# assertion per document (token count, whitespace tokenisation).
TOKENS_CTE_BODY = f"""
  SELECT CAST(0 AS BIGINT) AS subj_kind, entity AS subj_value, '' AS subj_lang, '' AS subj_datatype,
         CAST(0 AS BIGINT) AS pred_kind, '{EX}tokens' AS pred_value, '' AS pred_lang, '' AS pred_datatype,
         CAST(2 AS BIGINT) AS obj_kind,
         CAST(len(string_split(text, ' ')) AS VARCHAR) AS obj_value, '' AS obj_lang,
         '{XSD_INT}' AS obj_datatype
  FROM docs
"""

ORACLES: dict[str, str] = {
    "rdfa_extract": EXP_CTE + f"SELECT {TERM_COLS} FROM exp",
    "dedup_exact": EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp",
    "nt_lines": EXP_CTE
    + f"""SELECT {_nt_term('subj')} || ' ' || {_nt_term('pred')} || ' ' || {_nt_term('obj')} || ' .' AS line
FROM (SELECT DISTINCT {TERM_COLS} FROM exp)""",
    "nt_roundtrip": EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp",
    "turtle_roundtrip": EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp",
    "rdfxml_roundtrip": EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp",
    "squirtle_roundtrip": EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp",
    "rdfjson_roundtrip": EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp",
    "jsonld_roundtrip": EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp",
    "store_roundtrip": EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp",
    "graphstore_roundtrip": EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp",
    "dedup_provenance": EXP_URL_CTE
    + f"SELECT MIN(url) AS url, {TERM_COLS} FROM exp GROUP BY {TERM_COLS}",
    "triple_pr": EXP_CTE
    + f"""SELECT CAST(1.0 AS DOUBLE) AS precision, CAST(1.0 AS DOUBLE) AS recall,
       COUNT(*) AS ours, COUNT(*) AS expected, COUNT(*) AS matched
FROM (SELECT DISTINCT {TERM_COLS} FROM exp)""",
    "filter_pattern": EXP_CTE
    + f"""SELECT DISTINCT subj_value, obj_value AS lang_value
FROM exp WHERE pred_value = '{DC}language'""",
    "rewrite_regex": EXP_CTE
    + """SELECT DISTINCT regexp_replace(subj_value, '^https://kg\\.example\\.org/doc/', 'https://entity.example.org/') AS subj_value
FROM exp WHERE subj_kind = 0""",
    "split_prefix": EXP_CTE
    + """SELECT DISTINCT pred_value,
       CASE WHEN pred_value LIKE '%#%' THEN regexp_extract(pred_value, '^(.*#)', 1)
            WHEN pred_value LIKE '%/%' THEN regexp_extract(pred_value, '^(.*/)', 1)
            ELSE '' END AS base,
       CASE WHEN pred_value LIKE '%#%' THEN regexp_extract(pred_value, '#([^#]*)$', 1)
            WHEN pred_value LIKE '%/%' THEN regexp_extract(pred_value, '/([^/]*)$', 1)
            ELSE pred_value END AS local_name
FROM exp""",
    # multi-syntax fan-in: RDFa ∪ microdata ∪ JSON-LD, distinct
    "kg_multisyntax_build": EXP_CTE
    + f""", md AS (
  SELECT doc_id,
         'https://kg.example.org/md/' || doc_id AS ent,
         'https://docs.example.org/' || source || '/' || doc_id AS page_url,
         array_to_string(string_split(text, ' ')[1:5], ' ') AS title,
         lang,
         'mdanon' || substr(md5('https://md.example.org/' || source || '/'
                                || doc_id || '#md0'), 1, 16) AS skolem
  FROM documents
),
mdexp AS (
  SELECT CAST(0 AS BIGINT) AS subj_kind, ent AS subj_value, '' AS subj_lang, '' AS subj_datatype,
         CAST(0 AS BIGINT) AS pred_kind, '{RDF_TYPE}' AS pred_value, '' AS pred_lang, '' AS pred_datatype,
         CAST(0 AS BIGINT) AS obj_kind, 'https://schema.org/Article' AS obj_value, '' AS obj_lang, '' AS obj_datatype
  FROM md
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/inLanguage', '', '', 2, lang, '', '' FROM md
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/headline', '', '', 2, title, '', '' FROM md
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/url', '', '', 0, page_url, '', '' FROM md
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/author', '', '', 1, skolem, '', '' FROM md
  UNION ALL
  SELECT 1, skolem, '', '', 0, 'https://schema.org/name', '', '', 2, 'a' || doc_id, '', '' FROM md
),
ldd AS (
  SELECT doc_id,
         'https://kg.example.org/ld/' || doc_id AS ent,
         'https://docs.example.org/' || source || '/' || doc_id AS page_url,
         array_to_string(string_split(text, ' ')[1:3], ' ') AS title
  FROM documents
),
ldexp AS (
  SELECT CAST(0 AS BIGINT) AS subj_kind, ent AS subj_value, '' AS subj_lang, '' AS subj_datatype,
         CAST(0 AS BIGINT) AS pred_kind, '{RDF_TYPE}' AS pred_value, '' AS pred_lang, '' AS pred_datatype,
         CAST(0 AS BIGINT) AS obj_kind, 'https://schema.org/Article' AS obj_value, '' AS obj_lang, '' AS obj_datatype
  FROM ldd
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/name', '', '', 2, title, '', '' FROM ldd
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/about', '', '', 0, page_url, '', '' FROM ldd
)
SELECT DISTINCT {TERM_COLS} FROM (
  SELECT {TERM_COLS} FROM exp
  UNION ALL SELECT {TERM_COLS} FROM mdexp
  UNION ALL SELECT {TERM_COLS} FROM ldexp
)""",
    # embedded JSON-LD: 3 triples per page; poison blocks contribute 0
    "jsonld_extract": f"""WITH ld AS (
  SELECT doc_id,
         'https://kg.example.org/ld/' || doc_id AS ent,
         'https://docs.example.org/' || source || '/' || doc_id AS page_url,
         array_to_string(string_split(text, ' ')[1:3], ' ') AS title
  FROM documents
),
exp AS (
  SELECT CAST(0 AS BIGINT) AS subj_kind, ent AS subj_value, '' AS subj_lang, '' AS subj_datatype,
         CAST(0 AS BIGINT) AS pred_kind, '{RDF_TYPE}' AS pred_value, '' AS pred_lang, '' AS pred_datatype,
         CAST(0 AS BIGINT) AS obj_kind, 'https://schema.org/Article' AS obj_value, '' AS obj_lang, '' AS obj_datatype
  FROM ld
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/name', '', '', 2, title, '', '' FROM ld
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/about', '', '', 0, page_url, '', '' FROM ld
)
SELECT {TERM_COLS} FROM exp""",
    # microdata extraction: 6 triples per synthesized schema.org page
    "microdata_extract": f"""WITH md AS (
  SELECT doc_id,
         'https://kg.example.org/md/' || doc_id AS ent,
         'https://docs.example.org/' || source || '/' || doc_id AS page_url,
         array_to_string(string_split(text, ' ')[1:5], ' ') AS title,
         lang,
         'mdanon' || substr(md5('https://md.example.org/' || source || '/'
                                || doc_id || '#md0'), 1, 16) AS skolem
  FROM documents
),
exp AS (
  SELECT CAST(0 AS BIGINT) AS subj_kind, ent AS subj_value, '' AS subj_lang, '' AS subj_datatype,
         CAST(0 AS BIGINT) AS pred_kind, '{RDF_TYPE}' AS pred_value, '' AS pred_lang, '' AS pred_datatype,
         CAST(0 AS BIGINT) AS obj_kind, 'https://schema.org/Article' AS obj_value, '' AS obj_lang, '' AS obj_datatype
  FROM md
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/inLanguage', '', '', 2, lang, '', '' FROM md
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/headline', '', '', 2, title, '', '' FROM md
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/url', '', '', 0, page_url, '', '' FROM md
  UNION ALL
  SELECT 0, ent, '', '', 0, 'https://schema.org/author', '', '', 1, skolem, '', '' FROM md
  UNION ALL
  SELECT 1, skolem, '', '', 0, 'https://schema.org/name', '', '', 2, 'a' || doc_id, '', '' FROM md
)
SELECT {TERM_COLS} FROM exp""",
    "group_subject_count": EXP_CTE
    + f"""SELECT subj_kind, subj_value, COUNT(*) AS n_triples
FROM (SELECT DISTINCT {TERM_COLS} FROM exp)
GROUP BY subj_kind, subj_value""",
    "typed_coercion": EXP_CTE
    + f"""SELECT subj_value, CAST(obj_value AS BIGINT) AS chars_int
FROM exp WHERE pred_value = '{EX}chars'""",
    "skolemize": EXP_CTE
    + "SELECT DISTINCT subj_value AS bnode_id FROM exp WHERE subj_kind = 1",
    "union_sources": EXP_CTE
    + f""", tokens AS ({TOKENS_CTE_BODY})
SELECT DISTINCT {TERM_COLS} FROM (
  SELECT {TERM_COLS} FROM exp
  UNION ALL
  SELECT {TERM_COLS} FROM tokens
)""",
    "entity_link": EXP_CTE
    + f""", cand AS (
  SELECT title AS surface_form,
         'https://kg.example.org/doc/' || MIN(doc_id) AS entity_iri
  FROM docs GROUP BY title
)
SELECT DISTINCT e.subj_value, c.entity_iri AS entity_value
FROM exp e JOIN cand c ON e.obj_value = c.surface_form
WHERE e.pred_value = '{DC}title' AND e.obj_kind = 2""",
    "entity_link_join": EXP_CTE
    + f""", cand AS (
  SELECT title AS surface_form,
         'https://kg.example.org/doc/' || MIN(doc_id) AS entity_iri
  FROM docs GROUP BY title
)
SELECT DISTINCT e.subj_value, c.entity_iri AS entity_value
FROM exp e JOIN cand c ON e.obj_value = c.surface_form
WHERE e.pred_value = '{DC}title' AND e.obj_kind = 2""",
    # popularity-weighted linking: in-degree prior over the DISTINCT
    # triple set, ties broken on entity IRI — integer-exact both sides
    "entity_link_ranked": EXP_CTE
    + f""", d AS (SELECT DISTINCT {TERM_COLS} FROM exp),
indeg AS (SELECT obj_value AS node, COUNT(*) AS pop
          FROM d WHERE obj_kind <> 2 GROUP BY obj_value),
cand AS (
  SELECT title AS surface_form,
         'https://kg.example.org/doc/' || doc_id AS entity_iri,
         COALESCE(pop, 0) AS pop
  FROM docs LEFT JOIN indeg
    ON indeg.node = 'https://kg.example.org/doc/' || doc_id),
best AS (
  SELECT surface_form, entity_iri FROM (
    SELECT surface_form, entity_iri,
           ROW_NUMBER() OVER (
             PARTITION BY surface_form ORDER BY pop DESC, entity_iri
           ) AS rn
    FROM cand) WHERE rn = 1)
SELECT DISTINCT e.subj_value, b.entity_iri AS entity_value
FROM d e JOIN best b ON e.obj_value = b.surface_form
WHERE e.pred_value = '{DC}title' AND e.obj_kind = 2""",
    # SPARQL SELECT over the deduped KG: the BGP (type/language/site/chars
    # per ?doc) is exactly one row per document; FILTER = the WHERE below;
    # variables render as canonical N-Triples strings.
    "sparql_select_eval": EXP_CTE
    + """SELECT DISTINCT '<' || entity || '>' AS doc,
       '"' || lang || '"' AS lang,
       '<' || site || '>' AS site
FROM docs WHERE n_chars >= 200 AND lang <> 'de'
ORDER BY 1""",
    "sparql_ask_eval": """SELECT 'cites_hub' AS q,
       CAST(EXISTS (SELECT 1 FROM documents) AS BIGINT) AS result
UNION ALL
SELECT 'site_missing' AS q, CAST(0 AS BIGINT) AS result""",
    "sparql_construct_eval": EXP_CTE
    + f"""SELECT * FROM (
  SELECT CAST(0 AS BIGINT) AS subj_kind, site AS subj_value, '' AS subj_lang, '' AS subj_datatype,
         CAST(0 AS BIGINT) AS pred_kind, '{EX}hosts' AS pred_value, '' AS pred_lang, '' AS pred_datatype,
         CAST(0 AS BIGINT) AS obj_kind, entity AS obj_value, '' AS obj_lang, '' AS obj_datatype
  FROM (SELECT DISTINCT site, entity FROM docs)
  UNION ALL
  SELECT CAST(0 AS BIGINT), entity, '', '', CAST(0 AS BIGINT), '{EX}hostedBy', '', '',
         CAST(0 AS BIGINT), site, '', ''
  FROM (SELECT DISTINCT site, entity FROM docs))""",
    # OPTIONAL: typed subjects LEFT JOIN language assertions; mentions
    # (blank-node subjects) have no language → '' (unbound rendering)
    "sparql_optional_eval": EXP_CTE
    + f"""SELECT CASE tt.subj_kind WHEN 0 THEN '<' || tt.subj_value || '>'
            ELSE '_:' || tt.subj_value END AS s,
       '<' || tt.obj_value || '>' AS t,
       COALESCE('"' || l.lang || '"', '') AS l
FROM (SELECT DISTINCT subj_kind, subj_value, obj_value FROM exp
      WHERE pred_value = '{RDF_TYPE}') tt
LEFT JOIN (SELECT DISTINCT subj_value, obj_value AS lang FROM exp
           WHERE pred_value = '{DC}language') l
  ON tt.subj_value = l.subj_value""",
    "sparql_union_eval": EXP_CTE
    + f"""SELECT '<' || entity || '>' AS a, '<' || site || '>' AS b FROM docs
UNION ALL
SELECT '<' || entity || '>' AS a,
       '"' || n_chars || '"^^<{XSD_INT}>' AS b FROM docs""",
    # titles carry the doc's language tag (dc:title branch of EXP)
    "sparql_over_store": EXP_CTE
    + """SELECT '<' || entity || '>' AS doc,
       '"' || title || '"@' || lang AS title
FROM docs""",
    "sparql_groupby_eval": EXP_CTE
    + """SELECT '<' || site || '>' AS site,
       COUNT(*) AS n_docs,
       CAST(SUM(n_chars) AS DOUBLE) AS sum_chars,
       CAST(MAX(n_chars) AS DOUBLE) AS max_chars
FROM docs GROUP BY site""",
    # builtin-function filters reduce to lang IN (en, de) on the docs
    # table (every other conjunct is true by construction: langs are
    # 2 chars, entities are IRIs containing /doc/, chars is xsd:integer)
    "sparql_functions_eval": EXP_CTE
    + """SELECT '<' || entity || '>' AS doc, '"' || lang || '"' AS lang
FROM docs WHERE lang IN ('en', 'de')
ORDER BY 1 LIMIT 50 OFFSET 10""",
    "sparql_count_distinct_eval": EXP_CTE
    + """SELECT '<' || site || '>' AS site,
       COUNT(DISTINCT lang) AS n_langs,
       COUNT(*) AS n_docs
FROM docs GROUP BY site""",
    # typed subjects with no dc:language = the skolem mention bnodes
    "sparql_not_exists_eval": EXP_CTE
    + f"""SELECT '_:' || skolem AS s, '<{EX}Mention>' AS t
FROM docs WHERE doc_id % 7 = 0""",
    "sparql_alt_path_eval": EXP_CTE
    + f"""SELECT '<' || entity || '>' AS doc, '<' || site || '>' AS v FROM docs
UNION ALL
SELECT '<' || entity || '>' AS doc,
       '"' || n_chars || '"^^<{XSD_INT}>' AS v FROM docs""",
    # cites edges are hub → doc only, so the transitive closure IS the
    # edge set (set semantics; multi-hop exercised by unit chain graphs)
    "sparql_path_closure_eval": EXP_CTE
    + f"""SELECT DISTINCT '<{HUB}>' AS a, '<' || entity || '>' AS d FROM docs""",
    "sparql_iri_mint_eval": EXP_CTE
    + """SELECT '<' || entity || '>' AS doc,
       '<http://lexvo.example.org/id/' || lang || '>' AS langres
FROM docs""",
    "sparql_or_filter_eval": EXP_CTE
    + """SELECT '<' || entity || '>' AS doc
FROM docs WHERE lang = 'en' OR n_chars >= 400""",
    # fixture langs are bare 2-letter tags, so LANGMATCHES(…,"de") = lang='de'
    "sparql_langmatches_eval": EXP_CTE
    + """SELECT '<' || entity || '>' AS doc,
       '"' || title || '"@' || lang AS t
FROM docs WHERE lang = 'de'""",
    # each doc's chars triple sits in its site's named graph
    "sparql_graph_eval": EXP_CTE
    + """SELECT '<' || site || '>' AS g, COUNT(*) AS n
FROM docs GROUP BY site""",
    "sparql_strafter_eval": EXP_CTE
    + """SELECT '<' || entity || '>' AS doc, '"' || doc_id || '"' AS id
FROM docs""",
    "sparql_numeric_hash_eval": EXP_CTE
    + f"""SELECT '<' || entity || '>' AS doc,
       '"' || CAST(ABS(n_chars - 500) AS VARCHAR) || '"^^<{XSD_INT}>' AS d,
       '"' || md5(CAST(n_chars AS VARCHAR)) || '"' AS h,
       '<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>' AS dt,
       '"' || lang || '"' AS l
FROM docs""",
    "sparql_results_roundtrip": EXP_CTE
    + """SELECT '<' || entity || '>' AS doc, '"' || lang || '"' AS l
FROM docs""",
    "sparql_select_expr_eval": EXP_CTE
    + f"""SELECT '<' || entity || '>' AS doc,
       '"' || CAST(ABS(n_chars - 500) AS VARCHAR) || '"^^<{XSD_INT}>' AS dist
FROM docs WHERE ABS(n_chars - 500) < 200""",
    "sparql_if_eval": EXP_CTE
    + """SELECT '<' || entity || '>' AS doc,
       '"' || CASE WHEN n_chars >= 300 THEN 'long' ELSE 'short' END || '"' AS size
FROM docs""",
    # cites? from the hub: zero-length (hub itself) + cited docs
    "sparql_path_zero_or_one_eval": EXP_CTE
    + f"""SELECT '<{HUB}>' AS v
UNION ALL
SELECT DISTINCT '<' || entity || '>' AS v FROM docs""",
    # !(type|site|chars) about each doc = its language + lang-tagged title
    "sparql_neg_path_eval": EXP_CTE
    + """SELECT '<' || entity || '>' AS d, '"' || lang || '"' AS o FROM docs
UNION ALL
SELECT '<' || entity || '>' AS d, '"' || title || '"@' || lang AS o FROM docs""",
    # subquery slice: first 100 docs with chars >= 300 by *rendered*
    # IRI ordering (the closing '>' matters: '<…doc/274>' sorts before
    # '<…doc/27>' because '4' < '>'), joined to their site
    "sparql_subquery_eval": EXP_CTE
    + """SELECT '<' || d.entity || '>' AS doc, '<' || d.site || '>' AS site
FROM docs d
JOIN (SELECT entity FROM docs WHERE n_chars >= 300
      ORDER BY '<' || entity || '>' LIMIT 100) s USING (entity)""",
    # aggregate subquery: per-site doc counts join back onto every doc
    # (the count surfaces as an xsd:integer literal term)
    "sparql_agg_subquery_eval": EXP_CTE
    + f"""SELECT '<' || d.entity || '>' AS doc, '<' || d.site || '>' AS site,
       '"' || s.n || '"^^<{XSD_INT}>' AS n
FROM docs d
JOIN (SELECT site, COUNT(*) AS n FROM docs GROUP BY site) s USING (site)
WHERE s.n >= 10""",
    # GROUP_CONCAT order is the engine's documented ascending-lexical
    # rule = string_agg(… ORDER BY lang)
    "sparql_group_concat_eval": EXP_CTE
    + """SELECT '<' || site || '>' AS site,
       string_agg(lang, ',' ORDER BY lang) AS langs
FROM (SELECT DISTINCT site, lang FROM docs) GROUP BY site""",
    "sparql_sum_distinct_eval": EXP_CTE
    + """SELECT '<' || site || '>' AS site,
       CAST(SUM(DISTINCT n_chars) AS DOUBLE) AS sum_c,
       CAST(AVG(DISTINCT n_chars) AS DOUBLE) AS avg_c,
       COUNT(n_chars) AS n
FROM docs GROUP BY site""",
    # cites* from the hub: the zero-length solution (the hub itself)
    # plus the closure (hub → every doc; depth-1 edge set)
    "sparql_path_star_eval": EXP_CTE
    + f"""SELECT '<{HUB}>' AS d
UNION
SELECT DISTINCT '<' || entity || '>' AS d FROM docs""",
    # BIND: c2 = chars*2 rendered as an xsd:integer literal, label =
    # CONCAT(UCASE(lang), "-", STR(doc)) as a plain literal
    "sparql_bind_eval": EXP_CTE
    + f"""SELECT '<' || entity || '>' AS doc,
       '"' || CAST(n_chars * 2 AS VARCHAR) || '"^^<{XSD_INT}>' AS c2,
       '"' || upper(lang) || '-' || entity || '"' AS label
FROM docs WHERE n_chars * 2 >= 400
ORDER BY 1""",
    # !BOUND(?l) after OPTIONAL = typed subjects without a language
    # (the mention bnodes); COALESCE falls back to "none"
    "sparql_bound_filter_eval": EXP_CTE
    + f"""SELECT '_:' || skolem AS s, '<{EX}Mention>' AS t, '"none"' AS l2
FROM docs WHERE doc_id % 7 = 0""",
    "graphstore_patch": EXP_CTE
    + f"""SELECT * FROM (
  SELECT CAST(0 AS BIGINT) AS subj_kind, entity AS subj_value, '' AS subj_lang, '' AS subj_datatype,
         CAST(0 AS BIGINT) AS pred_kind, '{RDF_TYPE}' AS pred_value, '' AS pred_lang, '' AS pred_datatype,
         CAST(0 AS BIGINT) AS obj_kind, '{EX}Document' AS obj_value, '' AS obj_lang, '' AS obj_datatype
  FROM docs WHERE doc_id <> 0
  UNION ALL
  SELECT CAST(0 AS BIGINT), 'https://graphs.example.org/patched', '', '',
         CAST(0 AS BIGINT), '{EX}patchedBy', '', '',
         CAST(2 AS BIGINT), 'sparql-update', '', '')""",
}


ORACLES["sparql_results_tsv_roundtrip"] = ORACLES["sparql_results_roundtrip"]

# Fixture blanks touch no other blanks, so the canonical label is the
# hash of the sorted DISTINCT ground features (direction | predicate |
# NT-rendered neighbour) — the same formula stages/canon.py hashes.
ORACLES["kg_blank_canon"] = EXP_CTE + f""", d AS (SELECT DISTINCT {TERM_COLS} FROM exp),
feats AS (
  SELECT subj_value AS blank,
         'o|' || pred_value || '|' || {_nt_term("obj")} AS feat
  FROM d WHERE subj_kind = 1 AND obj_kind <> 1
  UNION
  SELECT obj_value,
         'i|' || pred_value || '|' || {_nt_term("subj")}
  FROM d WHERE obj_kind = 1 AND subj_kind <> 1
)
SELECT blank, md5(string_agg(feat, chr(10) ORDER BY feat)) AS canon
FROM feats GROUP BY blank"""


# DESCRIBE ?doc (typed Document AND lang "fr"): all distinct triples
# whose subject is a matched doc entity
ORACLES["sparql_describe_eval"] = EXP_CTE + f""", d AS (SELECT DISTINCT {TERM_COLS} FROM exp),
m AS (
  SELECT DISTINCT t.subj_value AS s
  FROM d t JOIN d l ON l.subj_value = t.subj_value
  WHERE t.pred_value = \'{RDF_TYPE}\' AND t.obj_value = \'{EX}Document\'
    AND l.pred_value = \'{DC}language\' AND l.obj_kind = 2 AND l.obj_value = \'fr\'
)
SELECT {TERM_COLS} FROM d JOIN m ON d.subj_value = m.s"""


# N-Quads round-trip: each page's distinct triples in the page-url
# named graph; the quad columns survive the serialize/parse cycle.
ORACLES["nquads_roundtrip"] = (
    EXP_URL_CTE + f"SELECT DISTINCT url AS graph_value, {TERM_COLS} FROM exp"
)
ORACLES["trig_roundtrip"] = ORACLES["nquads_roundtrip"]


# M3: Graph.Get/GetAll/HasSubject point lookups for three fixed entities.
ORACLES["point_lookups"] = EXP_CTE + """SELECT entity AS subj_value, title,
       CAST(n_chars AS BIGINT) AS chars_int, CAST(1 AS BIGINT) AS has_subject
FROM docs WHERE doc_id IN (0, 1, 2)"""


# S5: split-serialize-reread fan-in recovers the distinct extraction.
ORACLES["multi_source_fanin"] = EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp"
# S5+ URL-source fan-in recovers the same distinct set
ORACLES["url_source_fanin"] = EXP_CTE + f"SELECT DISTINCT {TERM_COLS} FROM exp"

# T1: warmed+persisted+reloaded prefix cache, broadcast into expansion.
ORACLES["prefix_cache_expand"] = """SELECT lower(n_name) AS prefix,
       'https://ns.example.org/' || lower(n_name) || '/thing' AS iri,
       'http://www.w3.org/1999/02/22-rdf-syntax-ns#' AS rdf_uri,
       '' AS miss
FROM nation"""

# M12: two stacked PREFIX decls trimmed into the session map.
ORACLES["repl_prefix_trim"] = """SELECT doc_id,
       'SELECT ?x # ' || lang AS rest,
       'https://docs.example.org/' || source || '/' || doc_id AS page_uri,
       'https://kg.example.org/doc/' || doc_id AS entity_uri
FROM documents"""


# reification encode->decode is the identity on the deduped graph
ORACLES["kg_reify_roundtrip"] = ORACLES["dedup_exact"]

# CONSTRUCT template-bnode mint: md5 skolemization over the solution's
# bound terms in sorted-variable order ((doc, l) here), 8 fields
# joined by chr(31), label-prefixed with chr(30)
ORACLES["sparql_construct_bnode_eval"] = EXP_CTE + f"""
, sol AS (
  SELECT DISTINCT entity, lang,
         'tplm' || substr(md5('m' || chr(30) ||
           '0' || chr(31) || entity || chr(31) || chr(31) || chr(31) ||
           '2' || chr(31) || lang || chr(31) || chr(31)), 1, 16) AS mint
  FROM docs
)
SELECT CAST(1 AS BIGINT) AS subj_kind, mint AS subj_value, '' AS subj_lang, '' AS subj_datatype,
       CAST(0 AS BIGINT) AS pred_kind, '{EX}mentionOf' AS pred_value, '' AS pred_lang, '' AS pred_datatype,
       CAST(0 AS BIGINT) AS obj_kind, entity AS obj_value, '' AS obj_lang, '' AS obj_datatype
FROM sol
UNION ALL
SELECT 1, mint, '', '', 0, '{EX}inLang', '', '', 2, lang, '', ''
FROM sol"""

# OPTIONAL-scoped BIND: tag bound only where the optional matched
ORACLES["sparql_optional_bind_eval"] = EXP_CTE + f"""SELECT
  CASE tt.subj_kind WHEN 0 THEN '<' || tt.subj_value || '>'
       ELSE '_:' || tt.subj_value END AS s,
  COALESCE('"lang-' || l.lang || '"', '') AS tag
FROM (SELECT DISTINCT subj_kind, subj_value FROM exp
      WHERE pred_value = '{RDF_TYPE}') tt
LEFT JOIN (SELECT DISTINCT subj_value, obj_value AS lang FROM exp
           WHERE pred_value = '{DC}language') l
  ON tt.subj_value = l.subj_value"""

ORACLES["nt_gz_roundtrip"] = ORACLES["dedup_exact"]

ORACLES["kg_prov_export"] = """WITH p AS (
  SELECT doc_id % 4 AS pid, COUNT(*) AS n FROM documents GROUP BY doc_id % 4
), t AS (
  SELECT 'https://kg.example.org/run/part/' || pid AS s,
         'http://www.w3.org/1999/02/22-rdf-syntax-ns#type' AS pr,
         CAST(0 AS BIGINT) AS ok, 'http://www.w3.org/ns/prov#Activity' AS o,
         '' AS ol, '' AS od
  FROM p
  UNION ALL
  SELECT 'https://kg.example.org/run/shard/' || pid,
         'http://www.w3.org/1999/02/22-rdf-syntax-ns#type', 0,
         'http://www.w3.org/ns/prov#Entity', '', '' FROM p
  UNION ALL
  SELECT 'https://kg.example.org/run/shard/' || pid,
         'http://www.w3.org/ns/prov#wasGeneratedBy', 0,
         'https://kg.example.org/run/part/' || pid, '', '' FROM p
  UNION ALL
  SELECT 'https://kg.example.org/run/part/' || pid,
         'https://kg.example.org/run/documents', 2,
         CAST(n AS VARCHAR), '', 'http://www.w3.org/2001/XMLSchema#integer'
  FROM p
)
SELECT CAST(0 AS BIGINT) AS subj_kind, s AS subj_value, '' AS subj_lang, '' AS subj_datatype,
       CAST(0 AS BIGINT) AS pred_kind, pr AS pred_value, '' AS pred_lang, '' AS pred_datatype,
       ok AS obj_kind, o AS obj_value, ol AS obj_lang, od AS obj_datatype
FROM t"""

ORACLES["sparql_over_prov"] = """WITH p AS (
  SELECT doc_id % 4 AS pid, COUNT(*) AS n FROM documents GROUP BY doc_id % 4
)
SELECT '<https://kg.example.org/run/shard/' || pid || '>' AS shard,
       '<https://kg.example.org/run/part/' || pid || '>' AS activity,
       '"' || n || '"^^<http://www.w3.org/2001/XMLSchema#integer>' AS n
FROM p"""

# nested OPTIONAL: title joins inside the language group
ORACLES["sparql_nested_optional_eval"] = EXP_CTE + f"""SELECT
  CASE tt.subj_kind WHEN 0 THEN '<' || tt.subj_value || '>'
       ELSE '_:' || tt.subj_value END AS s,
  COALESCE('"' || l.lang || '"', '') AS l,
  COALESCE('"' || t.title || '"@' || t.tl, '') AS ttl
FROM (SELECT DISTINCT subj_kind, subj_value FROM exp
      WHERE pred_value = '{RDF_TYPE}') tt
LEFT JOIN (SELECT DISTINCT subj_value, obj_value AS lang FROM exp
           WHERE pred_value = '{DC}language') l
  ON tt.subj_value = l.subj_value
LEFT JOIN (SELECT DISTINCT subj_value, obj_value AS title, obj_lang AS tl
           FROM exp WHERE pred_value = '{DC}title') t
  ON tt.subj_value = t.subj_value AND l.subj_value IS NOT NULL"""


ORACLES["sparql_count_distinct_star_eval"] = EXP_CTE + """SELECT
  '"' || l.lang || '"' AS l, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT DISTINCT subj_value, obj_value AS lang FROM exp
      WHERE pred_value = 'http://purl.org/dc/elements/1.1/language') l
JOIN (SELECT DISTINCT subj_value, obj_value AS site FROM exp
      WHERE pred_value = 'http://example.org/ns#site') s
  ON s.subj_value = l.subj_value
GROUP BY l.lang"""

# mixed alternative p|^q: each doc reaches its language literal
# forward and its citing hub through the reverse member
ORACLES["sparql_alt_rev_path_eval"] = """SELECT
  '<https://kg.example.org/doc/' || doc_id || '>' AS d,
  '"' || lang || '"' AS x
FROM documents
UNION ALL
SELECT '<https://kg.example.org/doc/' || doc_id || '>',
  '<https://hub.example.org/>'
FROM documents"""

# reverse-member negated set: each typed entity reaches its citing hub
ORACLES["sparql_neg_rev_path_eval"] = """SELECT
  '<https://kg.example.org/doc/' || doc_id || '>' AS e,
  '<https://hub.example.org/>' AS x
FROM documents"""

# pattern-based patch: site facts kept, hostedOn derived, languages
# deleted — flattened distinct triples
ORACLES["graphstore_patch_where"] = """SELECT
  CAST(0 AS BIGINT) AS subj_kind,
  'https://kg.example.org/doc/' || doc_id AS subj_value,
  '' AS subj_lang, '' AS subj_datatype,
  CAST(0 AS BIGINT) AS pred_kind, p AS pred_value,
  '' AS pred_lang, '' AS pred_datatype,
  CAST(0 AS BIGINT) AS obj_kind,
  'https://site' || (doc_id % 5) || '.example.org/' AS obj_value,
  '' AS obj_lang, '' AS obj_datatype
FROM documents,
     (SELECT 'http://example.org/ns#site' AS p
      UNION ALL SELECT 'http://example.org/ns#hostedOn')"""

# graph management end-state: C = en ∪ fr, D = fr (A dropped, B moved)
ORACLES["graphstore_manage"] = """SELECT 'C' AS g,
  'https://kg.example.org/doc/' || doc_id AS s
FROM documents WHERE lang IN ('en', 'fr')
UNION ALL
SELECT 'D', 'https://kg.example.org/doc/' || doc_id
FROM documents WHERE lang = 'fr'"""

# VALUES joined against the language BGP: data-driven filter rows
ORACLES["sparql_values_eval"] = """SELECT
  '<https://kg.example.org/doc/' || doc_id || '>' AS doc,
  '"' || lang || '"' AS l
FROM documents WHERE lang IN ('en', 'fr')"""

# MINUS removes everything with a language — Mention bnodes survive
ORACLES["sparql_minus_eval"] = """SELECT
  '_:anon' || substr(md5('https://docs.example.org/' || source || '/'
      || doc_id || '#0'), 1, 16) AS s,
  '<http://example.org/ns#Mention>' AS t
FROM documents WHERE doc_id % 7 = 0"""

# HAVING: languages asserted on more than 75 (deduped) documents
ORACLES["sparql_having_eval"] = """SELECT
  '"' || lang || '"' AS l, CAST(COUNT(*) AS BIGINT) AS n
FROM documents GROUP BY lang HAVING COUNT(*) > 75"""

# sequence path hub→doc→site keeps per-doc multiplicity
ORACLES["sparql_seq_path_eval"] = """SELECT
  '<https://site' || (doc_id % 5) || '.example.org/>' AS site
FROM documents"""


# federation + numeric filter + GROUP BY: per-language counts of
# docs whose endpoint token count exceeds 26
ORACLES["sparql_service_agg_eval"] = """SELECT
  '"' || lang || '"' AS l, CAST(COUNT(*) AS BIGINT) AS n
FROM documents
WHERE len(string_split(text, ' ')) > 26
GROUP BY lang"""

# top-3 sites by doc count through the aggregate ORDER BY path
ORACLES["sparql_orderby_agg_eval"] = """SELECT
  '<https://site' || s || '.example.org/>' AS site,
  CAST(n AS BIGINT) AS n
FROM (
  SELECT doc_id % 5 AS s, COUNT(*) AS n FROM documents GROUP BY doc_id % 5
  ORDER BY n DESC, s ASC LIMIT 3
)"""

# SERVICE federation: local languages joined with endpoint token counts
ORACLES["sparql_service_eval"] = """SELECT
  '<https://kg.example.org/doc/' || doc_id || '>' AS doc,
  '"' || lang || '"' AS l,
  '"' || len(string_split(text, ' '))
      || '"^^<http://www.w3.org/2001/XMLSchema#integer>' AS n
FROM documents"""

# positive FILTER EXISTS: Documents survive, Mentions drop
ORACLES["sparql_exists_eval"] = """SELECT
  '<https://kg.example.org/doc/' || doc_id || '>' AS s,
  '<http://example.org/ns#Document>' AS t
FROM documents"""

# ORDER BY DESC(numeric literal) + LIMIT: ten longest docs, numeric
# value order (not lexicographic), doc IRI rendering as tie-break
ORACLES["sparql_orderby_eval"] = """SELECT
  '<https://kg.example.org/doc/' || doc_id || '>' AS doc,
  '"' || n_chars || '"^^<http://www.w3.org/2001/XMLSchema#integer>' AS c
FROM documents
ORDER BY n_chars DESC, doc ASC LIMIT 10"""


ORACLES["sparql_results_parse"] = """SELECT doc_id, var, kind, value, lang, datatype FROM (
  SELECT doc_id, 'id' AS var, CAST(2 AS BIGINT) AS kind,
         CAST(doc_id AS VARCHAR) AS value, '' AS lang,
         'http://www.w3.org/2001/XMLSchema#integer' AS datatype
  FROM documents
  UNION ALL
  SELECT doc_id, 'label', 2, 'doc ' || CAST(doc_id AS VARCHAR), lang, ''
  FROM documents
  UNION ALL
  SELECT doc_id, 'doc', 0, 'http://res.example.org/' || CAST(doc_id AS VARCHAR), '', ''
  FROM documents
)"""

ORACLES["format_infer"] = """SELECT doc_id,
       CASE doc_id % 6 WHEN 0 THEN 'ntriples' WHEN 1 THEN 'rdfxml'
            WHEN 2 THEN 'turtle' WHEN 3 THEN 'squirtle'
            WHEN 4 THEN 'json' ELSE 'rdfa' END AS format_id,
       CASE doc_id % 6 WHEN 0 THEN 'text/plain' WHEN 1 THEN 'application/rdf+xml'
            WHEN 2 THEN 'text/turtle' WHEN 3 THEN 'text/x-squirtle'
            WHEN 4 THEN 'application/json' ELSE 'text/html' END AS mime
FROM documents"""


