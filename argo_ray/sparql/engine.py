"""SPARQL evaluation as Ray Data pipelines over flattened triple tables.

The reference's ``SparqlService`` delegates evaluation to a remote
endpoint and only parses results (``sparqlservice.go:42-95``); this
module IS the endpoint, re-expressed Ray-Data-first:

- The parser hands over each query as a SPARQL 1.1 algebra tree: a
  group's BGP, Join, LeftJoin, Minus, Filter, Union, Extend, Graph,
  Service, Values and SubSelect nodes, under a SELECT's solution
  modifiers (Group, Having, Project, OrderBy, Distinct, Slice).
  ``_eval`` evaluates it with one function per node (``_EVAL``), each
  of which knows its node's certain and maybe-bound variables
  (``_scope``).  A sub-select is the same tree, whose Project keeps
  the term columns it joins on (``_lift``).
- Each triple pattern is a streaming ``map_batches`` filter over the
  triples Dataset (the same vectorized term predicates as operator M1,
  ``stages/filter.py``) that projects matched positions into per-variable
  binding columns — no materialization, blocks stream with backpressure.
- Every join goes through ONE primitive: the co-grouped exchange
  (``_cogroup_join``) — binding tables union into a single
  ``stages.grouping.exchange`` on the anchor variable's term hash,
  then in-block Arrow hash joins (``pa.Table.join``) on each pair's
  shared variables.  A run of Joins (a BGP's patterns, and any
  UNION, VALUES, sub-select, GRAPH or SERVICE part joined with them)
  is one multi-way co-group, so the exchange count is O(1) per run,
  not O(patterns) (``Dataset.join`` itself proved flaky in Ray 2.49 on
  small multi-key inputs, so the engine avoids it entirely).  The
  anchor is a variable certain on both sides; with none, a constant
  key.
- Joins are SPARQL-compatible (§18.3, ``_join_pair``): rows match when
  every shared variable bound on both sides holds the same term
  (kind, value, lang, datatype); an unbound variable is compatible
  with anything and the merged row takes the bound value.  MINUS
  removes a row only for a compatible row that shares a bound
  variable with it (§18.5).
- FILTERs are vectorized Arrow kernels, pushed down to the deepest
  node whose solutions all bind their variables (a single pattern's
  scan when they fit one); the Project node renders each variable to
  its canonical N-Triples string (one string column per variable —
  the same rendering the serializers use, so a DuckDB oracle can
  reproduce results bit-for-bit).
- GROUP BY and every aggregate run through ONE operator
  (``_aggregate_query``): a per-batch Arrow prep (and partial, when
  every aggregate is decomposable), one ``exchange`` keyed on the
  rendered group keys, and one Arrow ``group_by`` block function.
  Without GROUP BY the same block function finishes on the driver.

At 100 TB the per-pattern scans dominate; bound-subject patterns can
push down to Parquet row groups via ``subject_hash`` the same way
operator M1 does.  The join chain shuffles only binding columns (narrow
tables), never the full triple set.

Two executors run the same operators.  A ``MaterializedDataset`` of
at most ``_LOCAL_MAX_BYTES`` is pulled into this process once (cached
per dataset) and the query runs in-process on a ``LocalFrame``
(``frame.py``): no Ray tasks, no exchange.  Lazy or larger inputs run
as the Ray Data plan described above.  ``_executor`` makes the choice
once per query; every operator is written against the shared slice of
the ``Dataset`` API and builds new frames through ``_table_like``, so
it stays on the tier of its input.  SELECT / CONSTRUCT / DESCRIBE
return the frame their tier produced: a ``LocalFrame`` on the local
tier, a ``ray.data.Dataset`` on the Ray tier.  Both answer the same
reads (``take_all``, ``to_pandas``, ``iter_batches``, ``schema``,
``count``), and a ``LocalFrame`` result handed back as a store or a
``SERVICE`` dataset stays local.

Caller contract: each triple pattern scans ``ds`` once.  Hand the
evaluator a *stored* dataset (``decode_store`` /
``read_parquet`` / a ``materialize()``d Dataset) — an expensive lazy
upstream pipeline would re-execute per pattern.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.grouping import exchange, sorted_unique
from ..terms import (
    KIND_BLANK,
    KIND_IRI,
    KIND_LITERAL,
    TRIPLE_COLUMNS,
    Term,
    nt_parse_term_arrays,
    nt_render_term_arrays,
    table_to_triples,
    triples_to_table,
)
from .frame import LocalFrame
from .parser import (
    BGP,
    AltPath,
    AskQuery,
    Bound,
    Comparison,
    ConstructQuery,
    DescribeQuery,
    Distinct,
    EArith,
    EConst,
    EFunc,
    EIf,
    EVar,
    ExistsFilter,
    ExprComparison,
    Extend,
    Filter,
    FuncComparison,
    Graph,
    GraphMgmtOp,
    Group,
    Having,
    InFilter,
    Join,
    LangMatches,
    LeftJoin,
    Minus,
    ModifyOp,
    NegPath,
    OrderBy,
    OrFilter,
    Project,
    Regex,
    SameTerm,
    SelectQuery,
    Service,
    SparqlSyntaxError,
    Slice,
    StrFunc,
    SubSelect,
    TransPath,
    TypeCheck,
    Union,
    Values,
    Var,
    parse_query,
    parse_update,
)

_FIELDS = ("kind", "value", "lang", "datatype")
_POS = ("subj", "pred", "obj")

_NUMERIC_DTS = {
    "http://www.w3.org/2001/XMLSchema#integer",
    "http://www.w3.org/2001/XMLSchema#decimal",
    "http://www.w3.org/2001/XMLSchema#double",
    "http://www.w3.org/2001/XMLSchema#float",
    "http://www.w3.org/2001/XMLSchema#int",
    "http://www.w3.org/2001/XMLSchema#long",
}


def _var_cols(name: str) -> list[str]:
    return [f"{name}__{f}" for f in _FIELDS]


#: Largest materialized store (``size_bytes()``) a query runs on
#: in-process — ~450k triples at ~146 bytes per row.  Not a user option.
_LOCAL_MAX_BYTES = 64 << 20

# store → its pulled LocalFrame; a MaterializedDataset is immutable, so
# the pull is valid for the dataset's lifetime.  The lock makes the
# check-then-pull atomic for servers answering queries on threads.
_PULLED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_PULL_LOCK = threading.Lock()


def _fits_locally(ds) -> bool:
    from ray.data.dataset import MaterializedDataset

    return isinstance(ds, LocalFrame) or (
        isinstance(ds, MaterializedDataset)
        and ds.num_blocks() > 0
        and ds.size_bytes() <= _LOCAL_MAX_BYTES
    )


def _pull(ds) -> LocalFrame:
    """The store's blocks as one in-process table, fetched once."""
    if isinstance(ds, LocalFrame):
        return ds
    with _PULL_LOCK:
        frame = _PULLED.get(ds)
        if frame is None:
            frame = LocalFrame(
                pa.concat_tables(_blocks(ds), promote_options="permissive")
            )
            _PULLED[ds] = frame
        return frame


def _blocks(ds) -> list[pa.Table]:
    """A frame's blocks as tables in this process."""
    if isinstance(ds, LocalFrame):
        return [ds.table]
    import ray

    return ray.get(ds.to_arrow_refs())


def _service_iris(node):
    """Every ``SERVICE`` endpoint IRI anywhere in a parsed query (the
    AST is nested NamedTuples and lists)."""
    if isinstance(node, Service):
        yield node.iri
    if isinstance(node, (tuple, list)):
        for child in node:
            yield from _service_iris(child)


def _executor(ds, q):
    """The frame query ``q`` runs on: the store's ``LocalFrame`` when it
    and every registered ``SERVICE`` dataset the query reads fit
    locally, else ``ds`` itself (the distributed plan)."""
    services = [
        _SERVICE_REGISTRY[iri] for iri in _service_iris(q)
        if iri in _SERVICE_REGISTRY
    ] if _SERVICE_REGISTRY else []
    if all(_fits_locally(d) for d in (ds, *services)):
        return _pull(ds)
    if isinstance(ds, LocalFrame):  # a local store meets a lazy SERVICE
        import ray.data

        return ray.data.from_arrow(ds.table)
    return ds


def _table_like(like, table: pa.Table):
    """``table`` as a frame of the same tier as ``like`` — the one
    constructor every operator uses for the tables it builds itself."""
    if isinstance(like, LocalFrame):
        return LocalFrame(table)
    import ray.data

    return ray.data.from_arrow(table)


def _pattern_bindings(ds, pattern, witness: str = "_match", graph_var=None):
    """One triple pattern → (bindings Dataset, bound variable names).

    Constant positions filter (vectorized term predicate, M1 semantics);
    variable positions project into ``var__kind/value/lang/datatype``
    columns.  A variable repeated within the pattern adds an equality
    mask across its positions.  An ``AltPath`` predicate (``p1|p2``)
    filters with an OR of term predicates — still ONE scan, and each
    matching triple is its own output row (bag-union multiplicity).
    With ``graph_var`` (GRAPH ?g) the quads dataset's ``url`` column
    additionally binds ``?g`` as an IRI term per matching row.  Forward
    members only: ``_scan`` handles ``^``-members."""
    from ..stages.filter import term_predicate

    consts = [
        (pos, t) for pos, t in zip(_POS, pattern) if isinstance(t, Term)
    ]
    alt_preds = pattern[1].preds if isinstance(pattern[1], AltPath) else None
    neg_preds = pattern[1].preds if isinstance(pattern[1], NegPath) else None
    var_pos: dict[str, list[str]] = {}
    for pos, t in zip(_POS, pattern):
        if isinstance(t, Var):
            var_pos.setdefault(t.name, []).append(pos)

    def project(batch: pa.Table) -> pa.Table:
        mask = None
        for pos, term in consts:
            m = term_predicate(batch, pos, term)
            mask = m if mask is None else pc.and_(mask, m)
        if alt_preds is not None:
            am = None
            for term in alt_preds:
                m = term_predicate(batch, "pred", term)
                am = m if am is None else pc.or_(am, m)
            mask = am if mask is None else pc.and_(mask, am)
        if neg_preds is not None:
            nm = None
            for term in neg_preds:
                m = term_predicate(batch, "pred", term)
                nm = m if nm is None else pc.or_(nm, m)
            nm = pc.invert(nm)
            mask = nm if mask is None else pc.and_(mask, nm)
        if graph_var is not None and "url" not in batch.column_names:
            raise SparqlSyntaxError("GRAPH ?var needs a quads dataset (url graph column)")
        if graph_var is not None and graph_var in var_pos:
            # ?g also appears in a triple position: constrain that
            # position to equal the graph IRI instead of overwriting
            # the binding below (GRAPH ?g { ?g <p> ?o } semantics).
            pos = var_pos[graph_var][0]
            gm = pc.and_(
                pc.equal(pc.cast(batch[f"{pos}_kind"], pa.int64()), KIND_IRI),
                pc.equal(
                    pc.cast(batch[f"{pos}_value"], pa.large_string()),
                    pc.cast(batch["url"], pa.large_string()),
                ),
            )
            mask = gm if mask is None else pc.and_(mask, gm)
        for positions in var_pos.values():
            for extra in positions[1:]:
                for f in _FIELDS:
                    m = pc.equal(
                        pc.cast(batch[f"{positions[0]}_{f}"], pa.large_string())
                        if f != "kind"
                        else batch[f"{positions[0]}_{f}"],
                        pc.cast(batch[f"{extra}_{f}"], pa.large_string())
                        if f != "kind"
                        else batch[f"{extra}_{f}"],
                    )
                    mask = m if mask is None else pc.and_(mask, m)
        if mask is not None:
            batch = batch.filter(mask)
        cols = {}
        for name, positions in var_pos.items():
            pos = positions[0]
            for f in _FIELDS:
                col = batch[f"{pos}_{f}"]
                if f == "kind":
                    col = pc.cast(col, pa.int64())
                cols[f"{name}__{f}"] = col
        if graph_var is not None and graph_var not in var_pos:
            n = batch.num_rows
            cols[f"{graph_var}__kind"] = pa.array([KIND_IRI] * n, pa.int64())
            cols[f"{graph_var}__value"] = pc.cast(batch["url"], pa.large_string())
            cols[f"{graph_var}__lang"] = pa.array([""] * n, pa.large_string())
            cols[f"{graph_var}__datatype"] = pa.array([""] * n, pa.large_string())
        if not cols:  # all-constant pattern: keep a row-count witness
            # (name is per-pattern unique — two ground patterns must not
            # collide when their cartesian witnesses join)
            cols[witness] = pa.array([1] * batch.num_rows, pa.int64())
        return pa.table(cols)

    bound = set(var_pos) | ({graph_var} if graph_var is not None else set())
    return ds.map_batches(project, batch_format="pyarrow"), bound


def _norm_table(batch: pa.Table) -> pa.Table:
    """Canonical binding columns — sorted by name, kind → int64, the
    rest → large_string — so datasets from different execution paths
    (Arrow projection, co-group join, union branches) carry one block
    schema and join cleanly."""
    cols = {}
    for c in sorted(batch.column_names):
        col = batch[c]
        if c.endswith("__kind"):
            col = pc.cast(col, pa.int64())
        elif "__" in c:  # a variable's value/lang/datatype column
            col = pc.cast(col, pa.large_string())
        cols[c] = col
    return pa.table(cols)


def _filter_vars(flt) -> set[str]:
    if isinstance(flt, ExistsFilter):
        return set()  # applied as a co-group join, never pushed down
    if isinstance(flt, OrFilter):
        return set().union(
            set(), *(_filter_vars(p) for group in flt.parts for p in group)
        )
    if isinstance(
        flt, (Regex, StrFunc, FuncComparison, TypeCheck, InFilter, Bound, LangMatches)
    ):
        return {flt.var.name}
    if isinstance(flt, ExprComparison):
        return _expr_vars(flt.left) | _expr_vars(flt.right)
    return {x.name for x in (flt.left, flt.right) if isinstance(x, Var)}


def _row_key(batch: pa.Table, cols: list[str]) -> pa.Array:
    """One uint64 per row: polars' row hash of ``cols``, cast first to
    the ``_norm_table`` types (kind int64, the rest large_string) so
    that one term from two binding sources gets one key.  A transient
    key with ``terms.hash64``'s contract (stable within one
    environment, never persisted); its users re-check the real columns,
    so a collision only co-locates two groups.

    NB: only a third-party import may sit in here — an ``argo_ray``
    import would execute INSIDE the worker, where ``argo_ray`` is not on
    sys.path (workers get this module by value, not by import)."""
    import polars as pl

    table = pa.table({
        c: pc.cast(
            batch[c], pa.int64() if c.endswith("__kind") else pa.large_string()
        )
        for c in cols
    })
    return pl.from_arrow(table).hash_rows().to_arrow()


def _join_pair(left: pa.Table, right: pa.Table, how: str, cond=()) -> pa.Table:
    """``left`` joined with ``right`` on the variables they share, with
    SPARQL's compatibility rule (§18.3): two rows join when every shared
    variable bound on both sides holds the same term (kind, value,
    lang, datatype); an unbound one is compatible with anything, and
    the merged row takes the bound value.

    Rows are grouped by null pattern (which shared variables they leave
    unbound), and each pair of patterns is one Arrow hash join on the
    variables both bind — a single join when no shared variable is
    unbound, and a constant key when none is bound on both sides; for
    ``semi``, ``anti`` and ``minus`` a left semi join, which yields each
    left row at most once (no keys: every pair matches).
    ``how`` is ``inner``, ``left`` (left outer: a left row that no pair
    matches — after the LeftJoin expression ``cond``, FILTER conjuncts
    over the merged row — comes out alone), ``semi`` / ``anti`` (left
    rows with ≥1 / no compatible right row: [NOT] EXISTS) or ``minus``
    (``anti`` counting only pairs that share a bound variable, §18.5).
    Output rows are taken from the inputs by row index, so every value
    comes out as it went in."""
    lcols, rcols = left.column_names, right.column_names
    shared = [c[: -len("__kind")] for c in lcols if c.endswith("__kind") and c in rcols]
    exists = how in ("semi", "anti", "minus")
    hit = np.zeros(left.num_rows, bool)
    li, ri = [], []
    for lp, lrows in _null_groups(left, shared):
        for rp, rrows in _null_groups(right, shared):
            keys = [v for i, v in enumerate(shared) if not (lp | rp) >> i & 1]
            if how == "minus" and not keys:
                continue
            if exists and not keys:  # every pair is compatible
                if right.num_rows if rrows is None else len(rrows):
                    hit[slice(None) if lrows is None else lrows] = True
                continue
            j = _key_table(left, lrows, keys, "_li").join(
                _key_table(right, rrows, keys, "_ri"),
                keys=[c for v in keys for c in _var_cols(v)] or ["_c"],
                join_type="left semi" if exists else "inner", use_threads=False,
            )
            if exists:  # each left row at most once
                hit[j["_li"].to_numpy()] = True
                continue
            li += j["_li"].chunks
            ri += j["_ri"].chunks
    if exists:
        return left.filter(pa.array(hit if how == "semi" else ~hit))
    li, ri = pa.chunked_array(li, pa.int64()), pa.chunked_array(ri, pa.int64())
    out = left.take(li)
    extra = [c for c in rcols if c not in lcols]
    merge = [v for v in shared if out[f"{v}__kind"].null_count]
    r = right.select(extra + [c for v in merge for c in _var_cols(v)]).take(ri)
    for v in merge:
        bound = pc.is_valid(out[f"{v}__kind"])
        for c in _var_cols(v):
            out = out.set_column(
                out.schema.get_field_index(c), c, pc.if_else(bound, out[c], r[c])
            )
    for c in extra:
        out = out.append_column(c, r[c])
    if cond:
        keep = pc.fill_null(_filter_mask(out, cond[0]), False)
        for f in cond[1:]:
            keep = pc.and_(keep, pc.fill_null(_filter_mask(out, f), False))
        out, li = out.filter(keep), li.filter(keep)
    if how == "left":
        miss = np.ones(left.num_rows, bool)
        miss[li.to_numpy()] = False
        alone = left.filter(pa.array(miss))
        for c in extra:
            alone = alone.append_column(c, pa.nulls(alone.num_rows, right.schema.field(c).type))
        out = pa.concat_tables([out, alone])
    return out


def _null_groups(table: pa.Table, names: list[str]) -> list:
    """``table``'s rows grouped by which of ``names`` they leave
    unbound: (bit mask, row indices) pairs — ``None`` for all rows when
    every one binds them all."""
    cols = [(i, table[f"{v}__kind"]) for i, v in enumerate(names)]
    cols = [(i, col) for i, col in cols if col.null_count]
    if not cols:
        return [(0, None)]
    mask = np.zeros(table.num_rows, np.int64)
    for i, col in cols:
        mask |= pc.is_null(col).to_numpy(zero_copy_only=False).astype(np.int64) << i
    return [(p, np.flatnonzero(mask == p)) for p in np.unique(mask)]


def _key_table(table: pa.Table, rows, keys: list[str], index: str) -> pa.Table:
    """The join-key columns of ``keys`` over ``rows`` (all rows when
    None), with the rows' indices in ``index`` (a constant ``_c`` key
    when ``keys`` is empty)."""
    idx = pa.array(np.arange(table.num_rows) if rows is None else rows)
    cols = {}
    for c in (c for v in keys for c in _var_cols(v)):
        col = table[c] if rows is None else table[c].take(idx)
        # a bound term's lang/datatype is "" — never let a null there
        # keep two equal terms apart (Acero matches no null key)
        cols[c] = pc.fill_null(col, "") if col.null_count and not c.endswith("__kind") else col
    if not keys:
        cols["_c"] = pa.array(np.zeros(len(idx), np.int8))
    cols[index] = idx
    return pa.table(cols)


def _pad_cols(batch: pa.Table, cols: list[str]) -> dict:
    """``batch``'s binding columns ``cols`` in the ``_norm_table`` types
    (kind int64, the rest large_string), all-null for a variable the
    batch does not bind."""
    have = set(batch.column_names)
    out = {}
    for c in cols:
        t = pa.int64() if c.endswith("__kind") else pa.large_string()
        out[c] = pc.cast(batch[c], t) if c in have else pa.nulls(batch.num_rows, t)
    return out


def _cogroup_join(parts: list, anchor: str | None, how: str = "inner", cond=()):
    """Multi-way join of binding frames ``parts`` (``(frame, variables)``
    pairs): tag + null-pad + union → ONE sort exchange on the anchor's
    term hash → in-block Arrow hash joins (``_join_pair``), left to
    right.  ``anchor`` must be bound in every solution of every part,
    so equal terms meet in one block; ``anchor=None`` uses a constant
    key (one block — how parts that share no such variable join).
    Replaces a chain of per-pattern hash-shuffle joins (each a
    fixed-cost actor-pool exchange) with a single exchange.  This is
    the engine's ONLY join primitive: ``Dataset.join`` proved flaky in
    Ray 2.49 on small multi-key inputs (intermittent ArrowInvalid 'no
    match or multiple matches for key FieldRef').

    ``how`` other than ``inner`` takes exactly 2 parts (see
    ``_join_pair``): ``left`` (OPTIONAL, with its expression ``cond``),
    ``semi`` / ``anti`` ([NOT] EXISTS) and ``minus``, the last three
    returning the first part's columns only.

    Skew note: one hot anchor value lands in one block; the joins
    within it are vectorized, but a pathologically hot join key (≳ a
    block of rows by itself) would serialize — the same documented
    constraint as ``grouped_map``."""
    pat_vars = [sorted(v) for _, v in parts]
    all_cols = list(
        dict.fromkeys(c for vs in pat_vars for v in vs for c in _var_cols(v))
    )

    def pad(i):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            key = (
                _row_key(batch, _var_cols(anchor))
                if anchor is not None
                else pa.array(np.zeros(n, dtype=np.uint64))
            )
            return pa.table({
                "_k": key, "_pat": pa.array(np.full(n, i, dtype=np.int64)),
                **_pad_cols(batch, all_cols),
            })

        return fn

    unioned = parts[0][0].map_batches(pad(0), batch_format="pyarrow")
    for i in range(1, len(parts)):
        unioned = unioned.union(
            parts[i][0].map_batches(pad(i), batch_format="pyarrow")
        )

    if how != "inner" and len(parts) != 2:
        raise ValueError(f"a {how} co-group join needs exactly 2 parts")
    out_cols = (
        [c for v in pat_vars[0] for c in _var_cols(v)]
        if how in ("semi", "anti", "minus") else all_cols
    )
    # every output block, empty or not, carries the _norm_table column
    # order; the padded union already has its types.  With no variable
    # at all, a witness column keeps the row count.
    names = sorted(out_cols) or ["_match"]

    def combine(block: pa.Table) -> pa.Table:
        tags = block["_pat"]
        out = None
        for i, vs in enumerate(pat_vars):
            part = block.filter(pc.equal(tags, i))
            # a part without variables keeps its rows through a witness
            part = part.select([c for v in vs for c in _var_cols(v)] or ["_pat"])
            if not vs:
                part = part.rename_columns([f"_w{i}"])
            out = part if out is None else _join_pair(out, part, how, cond)
        if names == ["_match"]:
            return pa.table({"_match": np.ones(out.num_rows, np.int64)})
        return out.select(names)

    return exchange(unioned, "_k", combine, batch_format="pyarrow")


def _replicate_rows(ds, n: int):
    """Each row repeated ``n`` times (n==0 → empty, schema kept)."""
    def rep(batch: pa.Table) -> pa.Table:
        if n == 0:
            return batch.slice(0, 0)
        return batch.take(
            pa.array(np.repeat(np.arange(batch.num_rows), n))
        )

    return ds.map_batches(rep, batch_format="pyarrow")


def _rename_binding(ds, mapping: dict):
    """Rename binding variables: ``v__field`` → ``mapping[v]__field``."""

    def fn(batch: pa.Table) -> pa.Table:
        cols = {}
        for c in batch.column_names:
            v, f = c.rsplit("__", 1)
            cols[f"{mapping.get(v, v)}__{f}"] = batch[c]
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


#: Fixpoint bound for ``p+`` — a loud error beats a silently truncated
#: closure.  64 hops covers any real KG hierarchy depth.
TRANSITIVE_MAX_HOPS = 64


def _term_row(like, var: str, t: Term):
    """One-row bindings table: ``var`` bound to the constant term
    (the zero-length-path solution for a constant end)."""
    return _table_like(
        like,
        pa.table(
            {
                f"{var}__kind": pa.array([t.kind], pa.int64()),
                f"{var}__value": pa.array([t.value], pa.large_string()),
                f"{var}__lang": pa.array([t.lang], pa.large_string()),
                f"{var}__datatype": pa.array([t.datatype], pa.large_string()),
            }
        ),
    )


def _graph_nodes(ds, var: str):
    """Every term in subject or object position of any triple — the
    SPARQL 1.1 'nodes of G' the zero-length path ranges over when both
    ends are variables.  One streaming scan + distinct."""

    def project(batch: pa.Table) -> pa.Table:
        tables = []
        for pos in ("subj", "obj"):
            tables.append(
                pa.table(
                    {
                        f"{var}__kind": pc.cast(batch[f"{pos}_kind"], pa.int64()),
                        f"{var}__value": pc.cast(
                            batch[f"{pos}_value"], pa.large_string()
                        ),
                        f"{var}__lang": pc.cast(
                            batch[f"{pos}_lang"], pa.large_string()
                        ),
                        f"{var}__datatype": pc.cast(
                            batch[f"{pos}_datatype"], pa.large_string()
                        ),
                    }
                )
            )
        return pa.concat_tables(tables)

    return _distinct(
        ds.map_batches(project, batch_format="pyarrow"), _var_cols(var)
    )


def _zero_or_one_bindings(ds, pattern, witness: str = "_match"):
    """``subj p? obj`` (ZeroOrOnePath, set semantics): the one-hop
    matches unioned with the zero-length solutions — a constant end
    matches itself; with both ends variable every graph node matches
    itself.  One edge scan + (at most) one node scan, distinct over
    the bound columns; no fixpoint."""
    subj, tp, obj = pattern
    one, vs = _pattern_bindings(ds, (subj, tp.pred, obj), witness=witness)
    one = one.map_batches(_norm_table, batch_format="pyarrow")
    if isinstance(subj, Term) and isinstance(obj, Term):
        if subj != obj:
            return one.limit(1), set()
        return (
            _table_like(ds, pa.table({witness: pa.array([1], pa.int64())})),
            set(),
        )
    if isinstance(subj, Term):  # obj is a Var
        out = _distinct(one.union(_term_row(one, obj.name, subj)), _var_cols(obj.name))
        return out, vs
    if isinstance(obj, Term):  # subj is a Var
        out = _distinct(one.union(_term_row(one, subj.name, obj)), _var_cols(subj.name))
        return out, vs
    if subj.name == obj.name:
        # ?x p? ?x — zero-length covers every node; self-loops add nothing
        return _graph_nodes(ds, subj.name), {subj.name}
    nodes = _graph_nodes(ds, subj.name)

    def self_pairs(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in batch.column_names}
        for f in _FIELDS:
            cols[f"{obj.name}__{f}"] = batch[f"{subj.name}__{f}"]
        return pa.table(cols)

    zero = nodes.map_batches(self_pairs, batch_format="pyarrow")
    out = _distinct(
        one.union(zero), _var_cols(subj.name) + _var_cols(obj.name)
    )
    return out, {subj.name, obj.name}


def _transitive_bindings(ds, pattern, witness: str = "_match"):
    """``subj p+ obj`` → (bindings, bound vars): one-or-more-hop
    reachability along ``p``, set semantics (SPARQL ArbitraryLengthPath).

    Shape at scale: with a constant end this is a seeded BFS — the
    frontier is only the newly-reached node set, each hop is ONE
    co-grouped join of frontier × p-edges plus an anti-join against the
    reached set (never the full closure).  With both ends variables it
    is semi-naive transitive closure over the p-edge set — inherently
    the size of the closure; fine for hierarchy-shaped predicates,
    documented cliff for dense graphs.  Iterations materialize (a
    fixpoint needs a barrier per hop); hop count is bounded by graph
    diameter and capped at TRANSITIVE_MAX_HOPS (loud error)."""
    subj, tp, obj = pattern
    pred = tp.pred
    S, O, M = "_tcs$s", "_tcs$o", "_tcs$m"

    def norm(d):
        return d.map_batches(_norm_table, batch_format="pyarrow")

    edges, _ = _pattern_bindings(ds, (Var(S), pred, Var(O)))
    edges = _distinct(norm(edges), _var_cols(S) + _var_cols(O)).materialize()

    def bfs(seed, pairs):
        """Nodes (column O) reachable from ``seed``'s, themselves one
        hop out, along ``pairs`` (S → O edges), to the fixpoint."""
        reached = _distinct(norm(seed), _var_cols(O)).materialize()
        frontier = reached
        e_mo = _rename_binding(pairs, {S: M})  # (M, O) edge view
        for _ in range(TRANSITIVE_MAX_HOPS):
            if frontier.count() == 0:
                return reached
            f_m = _rename_binding(frontier, {O: M})
            step = _cogroup_join([(f_m, {M}), (e_mo, {M, O})], anchor=M)
            step = _distinct(
                step.map_batches(
                    lambda b: b.select(_var_cols(O)), batch_format="pyarrow"
                ),
                _var_cols(O),
            )
            new = _cogroup_join(
                [(step, {O}), (reached, {O})], anchor=O, how="anti"
            ).materialize()
            if new.count() == 0:
                return reached
            reached = reached.union(new).materialize()
            frontier = new
        raise RuntimeError(f"p+ fixpoint exceeded {TRANSITIVE_MAX_HOPS} hops")

    if isinstance(subj, Term):
        if tp.zero and isinstance(obj, Term) and subj == obj:
            # zero-length path: a constant end matches itself
            return (
                _table_like(ds, pa.table({witness: pa.array([1], pa.int64())})),
                set(),
            )
        reached = bfs(_pattern_bindings(ds, (subj, pred, Var(O)))[0], edges)
        if isinstance(obj, Var):
            if tp.zero:
                reached = _distinct(
                    reached.union(_term_row(reached, O, subj)), _var_cols(O)
                )
            return _rename_binding(reached, {O: obj.name}), {obj.name}
        # both ends constant: ASK-style witness (rows where O == obj)
        from ..stages.filter import term_predicate

        def wit(batch: pa.Table) -> pa.Table:
            b2 = pa.table({f"obj_{f}": batch[f"{O}__{f}"] for f in _FIELDS})
            m = term_predicate(b2, "obj", obj)
            n = int(pc.sum(pc.cast(m, pa.int64())).as_py() or 0)
            return pa.table({witness: pa.array([1] * n, pa.int64())})

        return reached.map_batches(wit, batch_format="pyarrow"), set()

    if isinstance(obj, Term):  # the same BFS from the object end, edges reversed
        reached = bfs(
            _pattern_bindings(ds, (Var(O), pred, obj))[0],
            _rename_binding(edges, {S: O, O: S}),
        )
        if tp.zero:
            reached = _distinct(
                reached.union(_term_row(reached, O, obj)), _var_cols(O)
            )
        return _rename_binding(reached, {O: subj.name}), {subj.name}

    # both ends variables: full semi-naive closure over the edge set
    all_pairs = edges
    frontier = edges
    pair_cols = _var_cols(S) + _var_cols(O)
    for _ in range(TRANSITIVE_MAX_HOPS):
        if frontier.count() == 0:
            break
        f_sm = _rename_binding(frontier, {O: M})  # (S, M)
        e_mo = _rename_binding(edges, {S: M})  # (M, O)
        step = _cogroup_join([(f_sm, {S, M}), (e_mo, {M, O})], anchor=M)
        step = _distinct(
            step.map_batches(
                lambda b: b.select(pair_cols), batch_format="pyarrow"
            ),
            pair_cols,
        )
        new = _cogroup_join(
            [(step, {S, O}), (all_pairs, {S, O})], anchor=S, how="anti"
        ).materialize()
        if new.count() == 0:
            break
        all_pairs = all_pairs.union(new).materialize()
        frontier = new
    else:
        raise RuntimeError(f"p+ fixpoint exceeded {TRANSITIVE_MAX_HOPS} hops")
    if subj.name == obj.name:
        if tp.zero:  # ?x p* ?x — every node reaches itself
            return (
                _rename_binding(_graph_nodes(ds, S), {S: subj.name}),
                {subj.name},
            )

        # ?x p+ ?x — cycles through x
        def self_only(batch: pa.Table) -> pa.Table:
            m = None
            for f in _FIELDS:
                a, b = batch[f"{S}__{f}"], batch[f"{O}__{f}"]
                if f != "kind":
                    a, b = (
                        pc.cast(a, pa.large_string()),
                        pc.cast(b, pa.large_string()),
                    )
                e = pc.equal(a, b)
                m = e if m is None else pc.and_(m, e)
            return batch.filter(m).select(_var_cols(S))

        out = all_pairs.map_batches(self_only, batch_format="pyarrow")
        return _rename_binding(out, {S: subj.name}), {subj.name}
    if tp.zero:
        # zero-length solutions: every graph node paired with itself
        def self_pair(batch: pa.Table) -> pa.Table:
            cols = dict(zip(batch.column_names, batch.columns))
            for f in _FIELDS:
                cols[f"{O}__{f}"] = batch[f"{S}__{f}"]
            return pa.table(cols)

        self_pairs = _graph_nodes(ds, S).map_batches(
            self_pair, batch_format="pyarrow"
        )
        all_pairs = _distinct(all_pairs.union(self_pairs), pair_cols)
    return (
        _rename_binding(all_pairs, {S: subj.name, O: obj.name}),
        {subj.name, obj.name},
    )


_XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"


def _lift(rows, node):
    """A sub-select's result rows (``node`` is its tree) → term binding
    columns, so they join like any group element.  Without a Group the
    rows carry them already; a Group's rendered terms (keys, SAMPLE)
    re-parse
    (``nt_parse_term_arrays``, ``""`` = unbound), COUNT becomes an
    xsd:integer literal, SUM/MIN/MAX/AVG xsd:double literals with
    DuckDB-compatible lexicals (integral values get a trailing ``.0``),
    GROUP_CONCAT a plain literal."""
    names = _names(node)
    group = _group_of(node)
    if group is None:  # the Project kept the term columns
        cols = [c for v in names for c in _var_cols(v)]
        return rows.map_batches(
            lambda b: _norm_table(b.select(cols)), batch_format="pyarrow"
        )
    func_by_alias = {a.alias: a.func for a in group.aggregates}

    def ls(s):
        return pa.scalar(s, pa.large_string())

    def to_terms(batch: pa.Table) -> pa.Table:
        res = {}
        for name in names:
            col = batch[name]
            func = func_by_alias.get(name)
            if func is None or func == "sample":
                # a rendered term; "" = unbound.  Combined first: Arrow
                # 16's if_else misreads a sliced string chunk (OFFSET)
                rendered = pc.cast(col, pa.large_string()).combine_chunks()
                rendered = pc.if_else(
                    pc.equal(pc.fill_null(rendered, ""), ls("")),
                    pa.scalar(None, pa.large_string()),
                    rendered,
                )
                parsed = nt_parse_term_arrays(rendered)
                for fld in ("kind", "value", "lang", "datatype"):
                    res[f"{name}__{fld}"] = parsed[fld]
                continue
            if func == "group_concat":  # a plain (simple) literal per the spec
                lex, dt = pc.fill_null(pc.cast(col, pa.large_string()), ""), ""
            elif func == "count":
                lex, dt = pc.cast(col, pa.large_string()), _XSD_INTEGER
            else:
                fcol = pc.cast(col, pa.float64())
                ok = pc.and_(pc.is_valid(fcol), pc.invert(pc.is_nan(fcol)))
                lex = pc.cast(fcol, pa.large_string())
                # Arrow renders integral doubles bare ('3'); append '.0'
                # for the DuckDB/Python canonical form ('3.0')
                integral = pc.invert(
                    pc.match_substring_regex(pc.fill_null(lex, ""), r"[.een]")
                )
                lex = pc.if_else(
                    integral,
                    pc.binary_join_element_wise(pc.fill_null(lex, ""), ls(".0"), ls("")),
                    lex,
                )
                lex = pc.if_else(ok, lex, pa.scalar(None, pa.large_string()))
                dt = _XSD_DOUBLE
            okv = pc.is_valid(lex)
            res[f"{name}__kind"] = pc.if_else(
                okv, pa.scalar(KIND_LITERAL, pa.int64()), pa.scalar(None, pa.int64())
            )
            res[f"{name}__value"] = lex
            res[f"{name}__lang"] = pc.if_else(
                okv, ls(""), pa.scalar(None, pa.large_string())
            )
            res[f"{name}__datatype"] = pc.if_else(
                okv, ls(dt), pa.scalar(None, pa.large_string())
            )
        return _norm_table(pa.table(res))

    return rows.map_batches(to_terms, batch_format="pyarrow")


# SPARQL 1.1 Federated Query endpoints: IRI → triples Dataset.  A
# cluster engine can't do per-task HTTP, so "remote endpoint" means a
# registered Dataset (file-backed store, another pipeline's output) —
# the same substitution the file-backed GraphStore makes for the
# protocol verbs.  Driver-side registry; register before evaluating.
_SERVICE_REGISTRY: dict[str, object] = {}


def register_service(iri: str, ds) -> None:
    """Register the dataset behind ``SERVICE <iri>`` blocks."""
    _SERVICE_REGISTRY[iri] = ds


def unregister_service(iri: str) -> None:
    _SERVICE_REGISTRY.pop(iri, None)


# -- the algebra evaluator -------------------------------------------------
# ``_eval`` runs one node of the parser's tree through the function for
# its type.  Each function takes ``push``, FILTER conjuncts to apply to
# the node's solutions, and hands every conjunct it can down to a child
# whose solutions all bind the conjunct's variables, so a filter reaches
# the pattern scans before any exchange wherever that is exact.  ``gv``
# names the variable of an enclosing ``GRAPH ?g``, which every triple
# pattern scan binds from the quads' ``url`` column.


def _vars(pattern) -> set[str]:
    return {t.name for t in pattern if isinstance(t, Var)}


def _scope(node, gv=None) -> tuple[set, set]:
    """(certain, maybe): the variables every solution of ``node``
    binds, and those only some solutions bind.  A co-group anchor must
    be certain; a FILTER, BIND or projection may name either."""
    t = type(node)
    if t is BGP:
        c = set().union(*map(_vars, node.patterns))
        return (c | {gv} if gv and node.patterns else c), set()
    if t in (Join, LeftJoin, Union):
        (c1, m1), (c2, m2) = _scope(node.left, gv), _scope(node.right, gv)
        if t is Join:
            return c1 | c2, (m1 | m2) - c1 - c2
        if t is LeftJoin:
            return c1, (m1 | c2 | m2) - c1
        return c1 & c2, (c1 | m1 | c2 | m2) - (c1 & c2)
    if t is Minus:
        return _scope(node.left, gv)
    if t is Filter:
        return _scope(node.inner, gv)
    if t is Extend:
        c, m = _scope(node.inner, gv)
        e = node.expr
        if isinstance(e, EConst) or (isinstance(e, EVar) and e.name in c):
            return c | {node.var}, m
        return c, m | {node.var}
    if t is Graph:
        return _scope(node.inner, node.graph.name if isinstance(node.graph, Var) else None)
    if t is Service:
        if node.iri not in _SERVICE_REGISTRY and node.silent:
            return set(), set()
        return _scope(node.inner)
    if t is Values:
        return set(node.variables), set()
    if t is Group:
        c, _ = _scope(node.inner)
        keys = set(node.group_by)
        return keys & c, (keys - c) | {a.alias for a in node.aggregates}
    if t is Project:
        c, _ = _scope(node.inner)
        names = set(_names(node))
        return names & c, names - c
    return _scope(node.inner)  # SubSelect and the other modifiers


def _eval(ds, node, push=(), gv=None):
    """The solutions of ``node`` as a frame of ``ds``'s tier, with the
    FILTER conjuncts ``push`` applied."""
    return _EVAL[type(node)](ds, node, list(push), gv)


def _pushable(push, certain) -> list:
    """The conjuncts of ``push`` a child whose solutions all bind
    ``certain`` can apply itself."""
    return [
        f for f in push
        if not isinstance(f, ExistsFilter) and _filter_vars(f) and _filter_vars(f) <= certain
    ]


def _finish(ds, frame, scope, push, gv):
    """``frame`` (solutions over ``scope``) with the conjuncts ``push``
    applied: masks per batch, then [NOT] EXISTS as a semi/anti
    co-group join with the inner group's solutions."""
    frame = _apply_filters(frame, [f for f in push if not isinstance(f, ExistsFilter)])
    c1, m1 = scope
    for f in push:
        if not isinstance(f, ExistsFilter):
            continue
        c2, m2 = _scope(f.where, gv)
        inner = _eval(ds, f.where, (), gv)
        if not (c1 | m1) & (c2 | m2):  # a constant condition
            if (inner.limit(1).count() > 0) == f.negated:
                frame = frame.limit(0)
            continue
        shared = sorted(c1 & c2)
        frame = _cogroup_join(
            [(frame, c1 | m1), (inner, c2 | m2)], shared[0] if shared else None,
            "anti" if f.negated else "semi",
        )
    return frame


def _scan(ds, pattern, witness, gv):
    """One triple or path pattern → its bindings frame."""
    subj, pred, obj = pattern
    if isinstance(pred, (AltPath, NegPath)) and pred.rev_preds:
        # a mixed forward/reverse set (p|^q, !(p|^q), §18.4): one scan
        # over the forward members, one with the ends swapped over the
        # ^-members, normalized for the bag union
        split = type(pred)
        parts = [(obj, split(pred.rev_preds), subj)]
        if pred.preds:
            parts.append((subj, split(pred.preds), obj))
        out = None
        for part in parts:
            frame = _pattern_bindings(ds, part, witness, gv)[0].map_batches(
                _norm_table, batch_format="pyarrow"
            )
            out = frame if out is None else out.union(frame)
        return out
    if isinstance(pred, TransPath) and pred.max_one:
        return _zero_or_one_bindings(ds, pattern, witness=witness)[0]
    if isinstance(pred, TransPath):
        return _transitive_bindings(ds, pattern, witness=witness)[0]
    return _pattern_bindings(ds, pattern, witness=witness, graph_var=gv)[0]


def _leaves(node) -> list:
    """The inputs of a run of Joins: BGP patterns one by one, other
    nodes whole."""
    if type(node) is Join:
        return _leaves(node.left) + _leaves(node.right)
    if type(node) is BGP:
        return list(node.patterns)
    return [node]


def _join_run(ds, node, push, gv):
    """BGP and Join: every pattern and joined node of the run is one
    part; the variable certain in the most parts anchors ONE co-grouped
    exchange over all of them; leftover parts join pairwise through the
    same primitive (anchored on a variable certain on both sides, else
    constant-keyed), and variable-free parts multiply the rest by their
    row count.  Single-part filters push down into that part (into the
    scan, before any exchange); the rest apply after the joins."""
    parts = []  # (frame, certain, maybe)
    for i, leaf in enumerate(_leaves(node)):
        if type(leaf) is tuple:  # a triple pattern
            certain, maybe = _vars(leaf) | ({gv} if gv else set()), set()
            mine = _pushable(push, certain)
            frame = _apply_filters(_scan(ds, leaf, f"_match{i}", gv), mine)
        else:
            certain, maybe = _scope(leaf, gv)
            mine = _pushable(push, certain)
            frame = _eval(ds, leaf, mine, gv)
        push = [f for f in push if f not in mine]
        parts.append((frame, certain, maybe))
    if not parts:  # the identity: one solution binding nothing
        return _finish(ds, _table_like(ds, pa.table({"_match": [1]})), (set(), set()), push, gv)

    counts: dict[str, int] = {}
    for _, certain, _ in parts:
        for v in certain:
            counts[v] = counts.get(v, 0) + 1
    anchor = max(counts, key=lambda v: (counts[v], v)) if counts else None
    grouped = [p for p in parts if anchor in p[1]]
    rest = [p for p in parts if anchor not in p[1]]
    if len(grouped) >= 2:
        result = _cogroup_join([(f, c | m) for f, c, m in grouped], anchor)
        certain = set().union(*(c for _, c, _ in grouped))
        maybe = set().union(*(m for _, _, m in grouped)) - certain
    else:
        result, certain, maybe = grouped[0] if grouped else rest.pop(0)
    for nxt, c2, m2 in rest:
        shared = sorted(certain & c2)
        if shared:
            result = _cogroup_join(
                [(result, certain | maybe), (nxt, c2 | m2)], anchor=shared[0]
            )
        elif not (c2 | m2) or not (certain | maybe):
            # one side is a pure witness (ground patterns — the common
            # no-shared-vars case): multiply the other side's multiset by
            # the witness row count.  No join involved — witness counts
            # are tiny by construction (a ground pattern's matches).
            witness, keeper = (nxt, result) if not (c2 | m2) else (result, nxt)
            n = witness.count()
            if not (c2 | m2 | certain | maybe):
                # both ground: the product is a 1-column witness again
                m = result.count()
                result = _table_like(
                    result,
                    pa.table({"_match": pa.array([1] * (n * m), pa.int64())}),
                )
            else:
                result = _replicate_rows(keeper, n)
        else:
            # no variable certain on both sides: one constant-keyed
            # co-group (a cross product, or a join on variables some
            # solutions leave unbound)
            result = _cogroup_join([(result, certain | maybe), (nxt, c2 | m2)], None)
        certain = certain | c2
        maybe = (maybe | m2) - certain
    return _finish(ds, result, (certain, maybe), push, gv)


def _left_join(ds, node, push, gv):
    """OPTIONAL: a left co-group join.  Expression conjuncts over the
    right side's certain variables filter it before the join; the
    others (naming left-side variables) filter each merged pair."""
    (c1, m1), (c2, m2) = _scope(node.left, gv), _scope(node.right, gv)
    _check_filter_vars(node.expr, c1 | m1 | c2 | m2)
    down = _pushable(push, c1)
    left = _eval(ds, node.left, down, gv)
    pre = [f for f in node.expr if _filter_vars(f) <= c2]
    right = _eval(ds, node.right, pre, gv)
    shared = sorted(c1 & c2)
    out = _cogroup_join(
        [(left, c1 | m1), (right, c2 | m2)], shared[0] if shared else None,
        "left", [f for f in node.expr if f not in pre],
    )
    scope = _scope(node, gv)
    return _finish(ds, out, scope, [f for f in push if f not in down], gv)


def _minus(ds, node, push, gv):
    """MINUS keeps left rows unchanged, so ``push`` applies to the left
    side; no shared variable at all removes nothing (§18.5)."""
    (c1, m1), (c2, m2) = _scope(node.left, gv), _scope(node.right, gv)
    left = _eval(ds, node.left, push, gv)
    if not (c1 | m1) & (c2 | m2):
        return left
    shared = sorted(c1 & c2)
    return _cogroup_join(
        [(left, c1 | m1), (_eval(ds, node.right, (), gv), c2 | m2)],
        shared[0] if shared else None, "minus",
    )


def _check_filter_vars(filters, scope: set) -> None:
    missing = set().union(*(_filter_vars(f) for f in filters)) - scope
    if missing:
        raise SparqlSyntaxError(
            f"FILTER references unbound variable(s): {sorted(missing)}"
        )


def _filter(ds, node, push, gv):
    c, m = _scope(node.inner, gv)
    _check_filter_vars(node.exprs, c | m)
    return _eval(ds, node.inner, push + list(node.exprs), gv)


def _union(ds, node, push, gv):
    """Bag union of the branches, each padded with unbound columns for
    the variables only other branches bind."""
    scope = _scope(node, gv)
    cols = sorted(c for v in scope[0] | scope[1] for c in _var_cols(v))
    down = _pushable(push, scope[0])

    def pad(batch: pa.Table) -> pa.Table:
        if not cols:
            return pa.table({"_match": np.ones(batch.num_rows, np.int64)})
        return pa.table(_pad_cols(batch, cols))

    def branches(n):
        return branches(n.left) + branches(n.right) if type(n) is Union else [n]

    frames = [
        _eval(ds, b, down, gv).map_batches(pad, batch_format="pyarrow")
        for b in branches(node)
    ]
    out = frames[0]
    for f in frames[1:]:
        out = out.union(f)
    return _finish(ds, out, scope, [f for f in push if f not in down], gv)


def _extend(ds, node, push, gv):
    c, m = _scope(node.inner, gv)
    down = [
        f for f in push
        if not isinstance(f, ExistsFilter) and node.var not in _filter_vars(f)
    ]
    frame = _bind(_eval(ds, node.inner, down, gv), node.expr, node.var, c | m)
    return _finish(ds, frame, _scope(node, gv), [f for f in push if f not in down], gv)


def _graph(ds, node, push, gv):
    """``GRAPH <iri>|?g { … }`` over a quads dataset (triples + ``url``
    graph column, the ``read_graphstore`` layout).  Constant graph: ONE
    vectorized url-mask scopes the scans.  Variable graph: every inner
    triple pattern binds ``?g`` from ``url``, and the co-group joins
    equate it like any shared variable — no per-graph fan-out (the
    parser admits only groups for which that equals §18.6's)."""
    g = node.graph
    cols = ds.columns()  # schema metadata only — no execution at this size
    if cols is not None and "url" not in cols:
        raise SparqlSyntaxError("GRAPH needs a quads dataset (url graph column)")
    if isinstance(g, Var):
        return _eval(ds, node.inner, push, g.name)

    def scope(batch: pa.Table) -> pa.Table:
        if "url" not in batch.column_names:
            raise SparqlSyntaxError("GRAPH needs a quads dataset (url graph column)")
        return batch.filter(
            pc.equal(
                pc.cast(batch["url"], pa.large_string()),
                pa.scalar(g.value, pa.large_string()),
            )
        )

    return _eval(ds.map_batches(scope, batch_format="pyarrow"), node.inner, push)


def _service(ds, node, push, gv):
    """``SERVICE [SILENT] <iri> { … }``: the inner group against the
    registered endpoint dataset (on the tier ``_executor`` chose for
    the whole query).  Unknown endpoint: error, or with SILENT the
    identity solution (one empty row — §2.2 failure semantics)."""
    target = _SERVICE_REGISTRY.get(node.iri)
    if target is None:
        if not node.silent:
            raise SparqlSyntaxError(
                f"no dataset registered for SERVICE <{node.iri}> "
                "(engine.register_service)"
            )
        frame = _table_like(ds, pa.table({"_svc": pa.array([1], pa.int64())}))
        return _finish(ds, frame, (set(), set()), push, gv)
    if isinstance(ds, LocalFrame):
        target = _pull(target)
    elif isinstance(target, LocalFrame):
        target = _table_like(ds, target.table)
    return _eval(target, node.inner, push)


def _values(ds, node, push, gv):
    """``VALUES`` → an inline bindings frame (constant, driver-built;
    joins like any other part — VALUES at corpus scale is always the
    small broadcast-able side)."""
    cols = {}
    for j, v in enumerate(node.variables):
        terms = [r[j] for r in node.rows]
        cols[f"{v}__kind"] = pa.array([t.kind for t in terms], pa.int64())
        cols[f"{v}__value"] = pa.array([t.value for t in terms], pa.large_string())
        cols[f"{v}__lang"] = pa.array([t.lang for t in terms], pa.large_string())
        cols[f"{v}__datatype"] = pa.array(
            [t.datatype for t in terms], pa.large_string()
        )
    frame = _table_like(ds, pa.table(cols))
    return _finish(ds, frame, _scope(node), push, gv)


def _subselect(ds, node, push, gv):
    rows = _lift(_eval(ds, node.inner), node.inner)
    return _finish(ds, rows, _scope(node), push, gv)


# -- the solution modifiers ------------------------------------------------
# Over a SELECT's group: their rows are the query's result, one
# N-Triples-rendered string column per projected variable ("" when
# unbound) and an aggregate's value as it is.  ``push`` and ``gv``
# belong to the group below, which evaluates without them.
_MODIFIERS = (Group, Having, Project, OrderBy, Distinct, Slice)


def _names(node) -> list[str]:
    """The columns of a modifier node's rows, in order."""
    t = type(node)
    if t is Project:
        # SELECT *: path-internal ($-gensym) variables stay invisible
        return list(node.variables) or sorted(
            v for v in set().union(*_scope(node.inner)) if "$" not in v
        )
    if t is Group:
        return list(node.group_by) + [a.alias for a in node.aggregates]
    return _names(node.inner)


def _group_of(node):
    """The Group node under a chain of modifiers, or None."""
    while type(node) in _MODIFIERS and type(node) is not Group:
        node = node.inner
    return node if type(node) is Group else None


def _aggregate(ds, node, push, gv):
    bound = set().union(*_scope(node.inner))
    for v in node.group_by + [a.var for a in node.aggregates if a.var]:
        if v not in bound:
            raise SparqlSyntaxError(f"unbound variable ?{v} in aggregate query")
    return _aggregate_query(_eval(ds, node.inner), node)


def _having(ds, node, push, gv):
    """HAVING conjuncts, vectorized per batch over the aggregate
    values."""

    def having_filter(batch: pa.Table) -> pa.Table:
        mask = None
        for col, op, value in node.conds:
            m = _CMP_KERNELS[op](pc.cast(batch[col], pa.float64()), value)
            mask = m if mask is None else pc.and_(mask, m)
        return batch.filter(mask)

    return _eval(ds, node.inner).map_batches(having_filter, batch_format="pyarrow")


def _project(ds, node, push, gv):
    """The projected columns: a term binding renders to its canonical
    N-Triples string (the rendering the result parser S6 round-trips)
    and, in a sub-select, keeps its term columns for ``_lift``; a
    Group's columns pass as they are."""
    names = _names(node)
    c, m = _scope(node.inner)
    missing = [v for v in names if v not in c | m]
    if missing:
        raise SparqlSyntaxError(f"unbound SELECT variables: {missing}")
    rows = _eval(ds, node.inner)
    if _group_of(node.inner) is not None:
        return rows.map_batches(lambda b: b.select(names), batch_format="pyarrow")
    shown = names if node.render else []
    keep = [c for v in names for c in _var_cols(v)] if node.terms else []

    def render(batch: pa.Table) -> pa.Table:
        cols = {
            v: pc.fill_null(
                nt_render_term_arrays(
                    batch[f"{v}__kind"], batch[f"{v}__value"],
                    batch[f"{v}__lang"], batch[f"{v}__datatype"],
                ),
                "",
            )
            for v in shown
        }
        return pa.table({**cols, **{c: batch[c] for c in keep}})

    return rows.map_batches(render, batch_format="pyarrow")


def _order_by(ds, node, push, gv, dedup=False):
    """ORDER BY over the projected rows.  Rendered terms sort in §15.1
    order through derived keys (``_append_order_keys``); a Group's
    aggregate values sort as they are.  ``dedup`` (a DISTINCT over this
    node) fuses into ONE exchange keyed order-keys-first over all
    columns, then a vectorized adjacent-row dedup per block: equal rows
    share every sort key, and ties beyond ORDER BY break on the
    remaining columns, which SPARQL leaves unspecified.  Over a Group
    the DISTINCT runs first (an unbound aggregate value is null, which
    the adjacent compare cannot match)."""
    names = _names(node.inner)
    for v, _ in node.keys:
        if v not in names:
            raise SparqlSyntaxError(f"ORDER BY {v!r} not in SELECT")
    inner, group = node.inner, _group_of(node.inner)
    values = {a.alias for a in group.aggregates if a.func != "sample"} if group else set()
    if group and dedup:
        inner, dedup = Distinct(inner), False
    out = _eval(ds, inner).map_batches(
        lambda b: _append_order_keys(b, node.keys, values), batch_format="pyarrow"
    )
    if dedup:
        keys, desc = _order_sort_spec(node.keys, tail_cols=names)
        out = exchange(
            out, keys, lambda b: _adjacent_dedup(b, keys),
            batch_format="pyarrow", descending=desc,
        )
    else:
        keys, desc = _order_sort_spec(node.keys, values=values)
        out = out.sort(keys, descending=desc)
    return out.map_batches(_drop_order_keys, batch_format="pyarrow")


def _dedup(ds, node, push, gv):
    if type(node.inner) is OrderBy:
        return _order_by(ds, node.inner, push, gv, dedup=True)
    return _distinct(_eval(ds, node.inner), _names(node.inner))


def _slice(ds, node, push, gv):
    return _apply_slice(_eval(ds, node.inner), node.limit, node.offset)


_EVAL = {
    BGP: _join_run, Join: _join_run, LeftJoin: _left_join, Minus: _minus,
    Filter: _filter, Union: _union, Extend: _extend, Graph: _graph,
    Service: _service, Values: _values, SubSelect: _subselect,
    Group: _aggregate, Having: _having, Project: _project, OrderBy: _order_by,
    Distinct: _dedup, Slice: _slice,
}


_XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


def _expr_vars(e) -> set[str]:
    if isinstance(e, EVar):
        return {e.name}
    if isinstance(e, EConst):
        return set()
    if isinstance(e, EArith):
        return _expr_vars(e.left) | _expr_vars(e.right)
    if isinstance(e, EIf):
        if e.op == "__bool__":
            return (
                _filter_vars(e.cleft)
                | _expr_vars(e.then) | _expr_vars(e.other)
            )
        return (
            _expr_vars(e.cleft) | _expr_vars(e.cright)
            | _expr_vars(e.then) | _expr_vars(e.other)
        )
    return set().union(set(), *(_expr_vars(a) for a in e.args))


def _expr_type(e) -> str:
    """Result kind of a BIND expression: ``term`` (copy a variable /
    constant term verbatim), ``num`` (integer literal), ``str`` (plain
    literal)."""
    if isinstance(e, (EVar, EConst)):
        return "term"
    if isinstance(e, EArith):
        return "num"
    if isinstance(e, EIf):
        # numeric only when BOTH branches are numeric (an integer
        # constant counts); otherwise the branches coerce to lexical
        # forms and the result is a plain literal
        def numeric(b) -> bool:
            if isinstance(b, EConst):
                t = b.term
                if t.kind != KIND_LITERAL or t.lang:
                    return False
                try:
                    int(t.value)
                except ValueError:
                    return False
                return True
            return _expr_type(b) == "num"

        return "num" if numeric(e.then) and numeric(e.other) else "str"
    return "num" if e.func in ("strlen", "abs", "round", "ceil", "floor") else "str"


_CMP_KERNELS = {
    "=": pc.equal, "!=": pc.not_equal, "<": pc.less,
    "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal,
}


def _eval_cond(batch: pa.Table, e: "EIf"):
    """IF condition → nullable boolean array (null = condition error,
    which leaves the IF result unbound).  Numeric comparison where both
    sides evaluate numerically; rows where a term-typed operand is
    non-numeric fall back to string comparison over lexical forms
    (var-vs-var string equality works row-wise, not just when a
    non-numeric constant forces the except path)."""
    def statically_numeric(x) -> bool:
        if isinstance(x, EConst):
            try:
                float(x.term.value)
            except ValueError:
                return False
            return x.term.kind == KIND_LITERAL and not x.term.lang
        return _expr_type(x) == "num"

    if e.op == "__bool__":
        # boolean-function condition (IF(CONTAINS(…),…)): the FILTER
        # mask evaluator already returns the nullable boolean we need
        return _filter_mask(batch, e.cleft)
    try:
        lnum, rnum = _eval_num(batch, e.cleft), _eval_num(batch, e.cright)
        num_res = _CMP_KERNELS[e.op](pa.array(lnum), pa.array(rnum))
        num_ok = lnum.notna() & rnum.notna()
        if num_ok.all() or statically_numeric(e.cleft) or statically_numeric(e.cright):
            # statically-numeric side (arith, strlen, or a numeric
            # constant): an NA there is a genuine expression error
            # (→ unbound), not a string-typed value
            return num_res
        str_res = _CMP_KERNELS[e.op](
            _eval_str(batch, e.cleft), _eval_str(batch, e.cright)
        )
        return pc.if_else(pa.array(num_ok.values), num_res, str_res)
    except SparqlSyntaxError:
        return _CMP_KERNELS[e.op](
            _eval_str(batch, e.cleft), _eval_str(batch, e.cright)
        )


def _eval_num(batch: pa.Table, e) -> pd.Series:
    """Integer evaluation → nullable Int64 Series; expression errors
    (unparseable / non-integral lexical forms, unbound inputs) become
    NA, which the caller turns into an unbound binding — the SPARQL
    error-to-unbound rule, vectorized."""
    n = batch.num_rows
    if isinstance(e, EConst):
        t = e.term
        if t.kind != KIND_LITERAL:
            raise SparqlSyntaxError("non-literal constant in arithmetic")
        try:
            v = int(t.value)
        except ValueError:
            raise SparqlSyntaxError(
                f"non-integer constant {t.value!r} in arithmetic"
            )
        return pd.Series([v] * n, dtype="Int64")
    if isinstance(e, EVar):
        vals = pc.cast(batch[f"{e.name}__value"], pa.large_string())
        s = pd.to_numeric(
            pd.Series(vals.to_pylist(), dtype="object"), errors="coerce"
        )
        s = s.mask(s.notna() & (s % 1 != 0))  # non-integral → NA
        return s.astype("Int64")
    if isinstance(e, EArith):
        left, right = _eval_num(batch, e.left), _eval_num(batch, e.right)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        return left * right
    if isinstance(e, EFunc) and e.func == "strlen":
        lens = pc.utf8_length(_eval_str(batch, e.args[0]))
        return pd.Series(lens.to_pylist(), dtype="Int64")
    if isinstance(e, EFunc) and e.func in ("abs", "round", "ceil", "floor"):
        # float-domain eval of the argument's lexical form, integral
        # Int64 result (ROUND/CEIL/FLOOR are integral by definition;
        # SPARQL ROUND ties go toward +inf).  A non-integral ABS result
        # → NA (the engine's numeric domain is xsd:integer).
        arg = e.args[0]
        if isinstance(arg, EVar):
            vals = pc.cast(batch[f"{arg.name}__value"], pa.large_string())
            f = pd.to_numeric(
                pd.Series(vals.to_pylist(), dtype="object"), errors="coerce"
            )
        else:
            f = _eval_num(batch, arg).astype("Float64")
        f = f.astype("Float64")
        if e.func == "abs":
            f = f.abs()
        elif e.func == "round":
            f = np.floor(f + 0.5)
        elif e.func == "ceil":
            f = np.ceil(f)
        else:
            f = np.floor(f)
        f = pd.Series(f, dtype="Float64")
        f = f.mask(f.notna() & (f % 1 != 0))  # non-integral ABS → NA
        return f.astype("Int64")
    if isinstance(e, EIf) and _expr_type(e) == "num":
        cond = pd.Series(
            _eval_cond(batch, e).to_pandas().values, dtype="boolean"
        )
        then_s = _eval_num(batch, e.then)
        else_s = _eval_num(batch, e.other)
        out = then_s.where(cond.fillna(False).astype(bool), else_s)
        return out.mask(cond.isna().values)
    raise SparqlSyntaxError("string expression in arithmetic context")


def _const_str(e, what: str) -> str:
    if not (isinstance(e, EConst) and e.term.kind == KIND_LITERAL):
        raise SparqlSyntaxError(f"{what} must be a constant")
    return e.term.value


def _eval_str(batch: pa.Table, e) -> pa.Array:
    """String evaluation → nullable large_string array (null = SPARQL
    expression error / unbound input; nulls propagate through every
    kernel, so one bad row never fails the batch)."""
    n = batch.num_rows
    if isinstance(e, EConst):
        return pa.array([e.term.value] * n, pa.large_string())
    if isinstance(e, EVar):
        # the term's lexical form / IRI string / bnode label = STR()
        arr = pc.cast(batch[f"{e.name}__value"], pa.large_string())
        return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    if isinstance(e, EArith) or (isinstance(e, EFunc) and e.func == "strlen"):
        return pc.cast(pa.array(_eval_num(batch, e)), pa.large_string())
    if isinstance(e, EIf):
        if _expr_type(e) == "num":
            return pc.cast(pa.array(_eval_num(batch, e)), pa.large_string())
        cond = _eval_cond(batch, e)
        # null condition → null result (if_else propagates the null)
        return pc.if_else(
            cond, _eval_str(batch, e.then), _eval_str(batch, e.other)
        )
    f = e.func
    if f == "str":
        return _eval_str(batch, e.args[0])
    if f in ("ucase", "lcase"):
        kern = pc.utf8_upper if f == "ucase" else pc.utf8_lower
        return kern(_eval_str(batch, e.args[0]))
    if f == "concat":
        args = [_eval_str(batch, a) for a in e.args]
        return pc.binary_join_element_wise(
            *args, pa.scalar("", pa.large_string())
        )
    if f == "coalesce":
        out = _eval_str(batch, e.args[0])
        for a in e.args[1:]:
            out = pc.if_else(pc.is_valid(out), out, _eval_str(batch, a))
        return out
    if f == "substr":
        # 1-based character indexing (SPARQL == SQL SUBSTR semantics)
        start = int(_const_str(e.args[1], "SUBSTR start"))
        arr = _eval_str(batch, e.args[0])
        if len(e.args) == 2:
            return pc.utf8_slice_codeunits(arr, max(start - 1, 0))
        length = int(_const_str(e.args[2], "SUBSTR length"))
        return pc.utf8_slice_codeunits(
            arr, max(start - 1, 0), max(start - 1, 0) + max(length, 0)
        )
    if f == "replace":
        return pc.replace_substring_regex(
            _eval_str(batch, e.args[0]),
            pattern=_const_str(e.args[1], "REPLACE pattern"),
            replacement=_const_str(e.args[2], "REPLACE replacement"),
        )
    if f in ("iri", "strdt", "strlang"):
        # nested use (e.g. STR(IRI(x))): the string content is the arg
        return _eval_str(batch, e.args[0])
    if f in ("strbefore", "strafter"):
        # spec: no match → "" (empty literal); null input stays null.
        # One vectorized pandas partition per batch (no pc kernel for
        # first-occurrence split).
        sep = _const_str(e.args[1], f"{f.upper()} separator")
        if sep == "":  # spec: empty separator → "" (before) / input (after)
            arr = _eval_str(batch, e.args[0])
            if f == "strafter":
                return arr
            return pc.if_else(
                pc.is_valid(arr),
                pa.scalar("", pa.large_string()),
                pa.scalar(None, pa.large_string()),
            )
        arr = _eval_str(batch, e.args[0])
        s = pd.Series(arr.to_pandas(), dtype="object")
        parts = s.str.partition(sep)
        found = s.str.contains(sep, regex=False)
        out = parts[0 if f == "strbefore" else 2].where(found, "")
        out = out.mask(s.isna())
        return pa.array(out, pa.large_string())
    if f in ("md5", "sha1", "sha256"):
        # lowercase-hex digest of the string value (DuckDB md5()/sha256()
        # twins).  Per-row hashlib: digest cost dwarfs loop overhead and
        # the oracle needs byte parity.
        import hashlib

        hfn = getattr(hashlib, f)
        arr = _eval_str(batch, e.args[0])
        return pa.array(
            [
                hfn(v.encode()).hexdigest() if v is not None else None
                for v in arr.to_pylist()
            ],
            pa.large_string(),
        )
    if f == "lang":
        # LANG(?x): the language tag, or "" for anything untagged
        # (spec: LANG of a non-literal is an error → here "" too, which
        # matches the engine's filter-side LANG)
        a = e.args[0]
        if not isinstance(a, EVar):
            raise SparqlSyntaxError("LANG() takes a variable")
        lang = pc.cast(batch[f"{a.name}__lang"], pa.large_string())
        bound_m = pc.is_valid(batch[f"{a.name}__kind"])
        return pc.if_else(
            bound_m,
            pc.fill_null(lang, ""),
            pa.scalar(None, pa.large_string()),
        )
    if f == "datatype":
        # string content of DATATYPE(?x); _bind mints the IRI kind
        a = e.args[0]
        if not isinstance(a, EVar):
            raise SparqlSyntaxError("DATATYPE() takes a variable")
        kind = batch[f"{a.name}__kind"]
        dt = pc.fill_null(
            pc.cast(batch[f"{a.name}__datatype"], pa.large_string()), ""
        )
        lang = pc.fill_null(
            pc.cast(batch[f"{a.name}__lang"], pa.large_string()), ""
        )
        # RDF 1.1: plain literal → xsd:string, lang literal → rdf:langString
        dt = pc.if_else(
            pc.not_equal(dt, ""),
            dt,
            pc.if_else(
                pc.not_equal(lang, ""),
                pa.scalar(_F_RDF_LANGSTRING, pa.large_string()),
                pa.scalar(_F_XSD_STRING, pa.large_string()),
            ),
        )
        # DATATYPE of a non-literal is an error → unbound
        return pc.if_else(
            pc.equal(pc.cast(kind, pa.int64()), KIND_LITERAL),
            dt,
            pa.scalar(None, pa.large_string()),
        )
    raise SparqlSyntaxError(f"unsupported expression function {f!r}")


def _bind(ds, expr, alias: str, bound: set):
    """``BIND(expr AS ?alias)``: appends the alias's 4 binding columns
    via one vectorized map_batches — no exchange, no materialization.
    Arithmetic yields xsd:integer literals, string functions plain
    literals, a bare ``?var``/constant copies the term.  Null results
    (expression errors, unbound inputs) leave the alias unbound in that
    row (renders as '', BOUND(?alias) = false)."""
    if alias in bound:
        raise SparqlSyntaxError(f"BIND alias ?{alias} is already bound in the group")
    missing = _expr_vars(expr) - bound
    if missing:
        raise SparqlSyntaxError(
            f"BIND expression references unbound variable(s): {sorted(missing)}"
        )
    etype = _expr_type(expr)

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if isinstance(expr, EFunc) and expr.func in (
            "iri", "strdt", "strlang", "datatype"
        ):
            # term constructors: mint an IRI / typed / lang literal
            # from the string expression (null input → unbound).
            # DATATYPE() is IRI-valued, so it mints too.
            vals = (
                _eval_str(batch, expr)
                if expr.func == "datatype"
                else _eval_str(batch, expr.args[0])
            )
            okv = pc.is_valid(vals)
            if expr.func in ("iri", "datatype"):
                kind, lang, dt = KIND_IRI, "", ""
            elif expr.func == "strdt":
                kind, lang, dt = KIND_LITERAL, "", expr.args[1].term.value
            else:
                kind, lang, dt = KIND_LITERAL, expr.args[1].term.value, ""

            def _c(v, typ):
                return pc.if_else(
                    okv, pa.scalar(v, typ), pa.scalar(None, typ)
                )

            cols = {
                f"{alias}__kind": _c(kind, pa.int64()),
                f"{alias}__value": vals,
                f"{alias}__lang": _c(lang, pa.large_string()),
                f"{alias}__datatype": _c(dt, pa.large_string()),
            }
            out = batch
            for cname, col in cols.items():
                out = out.append_column(cname, col)
            return out
        if etype == "term":
            if isinstance(expr, EVar):
                cols = {
                    f"{alias}__{f}": batch[f"{expr.name}__{f}"]
                    for f in _FIELDS
                }
            else:
                t = expr.term
                cols = {
                    f"{alias}__kind": pa.array([t.kind] * n, pa.int64()),
                    f"{alias}__value": pa.array([t.value] * n, pa.large_string()),
                    f"{alias}__lang": pa.array([t.lang] * n, pa.large_string()),
                    f"{alias}__datatype": pa.array(
                        [t.datatype] * n, pa.large_string()
                    ),
                }
        else:
            if etype == "num":
                vals = pc.cast(
                    pa.array(_eval_num(batch, expr)), pa.large_string()
                )
                dt = _XSD_INTEGER
            else:
                vals = _eval_str(batch, expr)
                dt = ""
            valid = pc.is_valid(vals)
            cols = {
                f"{alias}__kind": pc.if_else(
                    valid,
                    pa.scalar(KIND_LITERAL, pa.int64()),
                    pa.scalar(None, pa.int64()),
                ),
                f"{alias}__value": vals,
                f"{alias}__lang": pc.if_else(
                    valid,
                    pa.scalar("", pa.large_string()),
                    pa.scalar(None, pa.large_string()),
                ),
                f"{alias}__datatype": pc.if_else(
                    valid,
                    pa.scalar(dt, pa.large_string()),
                    pa.scalar(None, pa.large_string()),
                ),
            }
        out = batch
        for cname, col in cols.items():
            out = out.append_column(cname, col)
        return out

    return ds.map_batches(fn, batch_format="pyarrow")


def _operand(batch: pa.Table, x):
    """FILTER operand → (value column/scalar, is-numeric-literal hint)."""
    if isinstance(x, Var):
        return pc.cast(batch[f"{x.name}__value"], pa.large_string()), None
    numeric = x.kind == KIND_LITERAL and x.datatype in _NUMERIC_DTS
    return pa.scalar(x.value, pa.large_string()), numeric


# what ``_to_float_coerce`` reads as a double (after trimming
# whitespace): decimal and exponent forms, inf, infinity and nan
_FLOAT_RE = (
    r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$"
    r"|^[+-]?(?i:inf|infinity|nan)$"
)


def _to_float_coerce(col_or_scalar):
    """Lexical form → float64 with SPARQL type-error semantics: an
    unparseable value becomes NaN (the comparison then yields false and
    the row drops) instead of crashing the whole query on one stray
    literal."""
    if isinstance(col_or_scalar, pa.Scalar):
        return pa.scalar(float(col_or_scalar.as_py()), pa.float64())
    text = pc.utf8_trim_whitespace(pc.cast(col_or_scalar, pa.large_string()))
    ok = pc.fill_null(pc.match_substring_regex(text, _FLOAT_RE), False)
    num = pc.cast(pc.if_else(ok, text, pa.scalar("0", pa.large_string())), pa.float64())
    return pc.if_else(ok, num, pa.scalar(float("nan"), pa.float64()))


def _term_identity_mask(batch: pa.Table, flt):
    """kind/lang/datatype agreement mask for =/!= (value handled by the
    caller).  Covers var-vs-var AND var-vs-constant — comparing only the
    value string would equate a literal spelling an IRI with the IRI."""
    pieces = []
    for f in ("kind", "lang", "datatype"):
        sides = []
        for x in (flt.left, flt.right):
            if isinstance(x, Var):
                sides.append(batch[f"{x.name}__{f}"])
            else:
                val = getattr(x, f) if f != "kind" else x.kind
                sides.append(
                    pa.scalar(val, pa.int64() if f == "kind" else pa.large_string())
                )
        a, b = sides
        if f != "kind":
            a = a if isinstance(a, pa.Scalar) else pc.cast(a, pa.large_string())
            b = b if isinstance(b, pa.Scalar) else pc.cast(b, pa.large_string())
        else:
            a = a if isinstance(a, pa.Scalar) else pc.cast(a, pa.int64())
            b = b if isinstance(b, pa.Scalar) else pc.cast(b, pa.int64())
        pieces.append(pc.equal(a, b))
    out = pieces[0]
    for p in pieces[1:]:
        out = pc.and_(out, p)
    return out


_FCMP = _CMP_KERNELS  # one comparison-kernel table for the whole module
_FKINDS = {"isiri": KIND_IRI, "isblank": KIND_BLANK, "isliteral": KIND_LITERAL}
_FSTRFN = {
    "contains": pc.match_substring,
    "strstarts": pc.starts_with,
    "strends": pc.ends_with,
}
_F_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
_F_RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"


def _filter_mask(batch: pa.Table, flt):
    """One filter conjunct -> boolean mask.  ``OrFilter`` recurses and
    ORs its parts' masks (SPARQL ``||``), so every filter type composes
    under disjunction for free."""
    if isinstance(flt, OrFilter):
        m = None
        for group in flt.parts:  # each part is one AND-group
            gm = None
            for part in group:
                pm = _filter_mask(batch, part)
                # Kleene: error && false = false, so a null mask from an
                # unbound OPTIONAL var can't poison a decided conjunct.
                gm = pm if gm is None else pc.and_kleene(gm, pm)
            # Kleene: error || true = true (SPARQL 17.2 filter evaluation).
            m = gm if m is None else pc.or_kleene(m, gm)
        return m
    if isinstance(flt, ExprComparison):
        # general expression comparison — reuses the IF() condition
        # machinery (numeric where possible, string fallback row-wise);
        # null mask = expression error → row excluded by the filter
        return _eval_cond(
            batch, EIf(flt.op, flt.left, flt.right, None, None)
        )
    if isinstance(flt, Regex):
        m = pc.match_substring_regex(
            pc.cast(batch[f"{flt.var.name}__value"], pa.large_string()),
            flt.pattern,
        )
        if flt.negated:
            m = pc.invert(m)
    elif isinstance(flt, StrFunc):
        m = _FSTRFN[flt.func](
            pc.cast(batch[f"{flt.var.name}__value"], pa.large_string()),
            flt.arg,
        )
        if flt.negated:
            m = pc.invert(m)
    elif isinstance(flt, TypeCheck):
        m = pc.equal(batch[f"{flt.var.name}__kind"], _FKINDS[flt.func])
        if flt.negated:
            m = pc.invert(m)
    elif isinstance(flt, Bound):
        m = pc.is_valid(batch[f"{flt.var.name}__kind"])
        if flt.negated:
            m = pc.invert(m)
    elif isinstance(flt, LangMatches):
        tag = pc.utf8_lower(
            pc.fill_null(
                pc.cast(batch[f"{flt.var.name}__lang"], pa.large_string()),
                "",
            )
        )
        if flt.range == "*":
            m = pc.not_equal(tag, "")
        else:
            rng = flt.range.lower()
            m = pc.or_(
                pc.equal(tag, rng),
                pc.starts_with(tag, rng + "-"),
            )
        if flt.negated:
            m = pc.invert(m)
    elif isinstance(flt, SameTerm):
        m = None
        for f in _FIELDS:
            a = batch[f"{flt.left.name}__{f}"]
            b = batch[f"{flt.right.name}__{f}"]
            if f != "kind":
                a = pc.fill_null(pc.cast(a, pa.large_string()), "")
                b = pc.fill_null(pc.cast(b, pa.large_string()), "")
            eq = pc.equal(a, b)
            m = eq if m is None else pc.and_(m, eq)
        if flt.negated:
            m = pc.invert(m)
    elif isinstance(flt, FuncComparison):
        v = flt.var.name
        if flt.func == "strlen":
            m = _FCMP[flt.op](
                pc.cast(
                    pc.utf8_length(
                        pc.cast(batch[f"{v}__value"], pa.large_string())
                    ),
                    pa.float64(),
                ),
                flt.value,
            )
        elif flt.func == "str":
            # STR(term) = its lexical form / IRI string
            m = _FCMP[flt.op](
                pc.cast(batch[f"{v}__value"], pa.large_string()), flt.value
            )
        elif flt.func == "lang":
            # language tags compare case-insensitively (RFC 4647)
            m = _FCMP[flt.op](
                pc.utf8_lower(
                    pc.cast(batch[f"{v}__lang"], pa.large_string())
                ),
                flt.value.lower(),
            )
        else:  # datatype: '' column means xsd:string (plain) or
            # rdf:langString (lang-tagged); non-literals are a
            # SPARQL type error → row drops under = and !=
            dt = pc.cast(batch[f"{v}__datatype"], pa.large_string())
            lang = pc.cast(batch[f"{v}__lang"], pa.large_string())
            eff = pc.if_else(
                pc.not_equal(dt, ""),
                dt,
                pc.if_else(
                    pc.not_equal(lang, ""),
                    pa.scalar(_F_RDF_LANGSTRING, pa.large_string()),
                    pa.scalar(_F_XSD_STRING, pa.large_string()),
                ),
            )
            m = pc.and_(
                _FCMP[flt.op](eff, flt.value),
                pc.equal(batch[f"{v}__kind"], KIND_LITERAL),
            )
    elif isinstance(flt, InFilter):
        v = flt.var.name
        m = None
        for t in flt.terms:
            one = pc.and_(
                pc.and_(
                    pc.equal(batch[f"{v}__kind"], t.kind),
                    pc.equal(
                        pc.cast(batch[f"{v}__value"], pa.large_string()),
                        t.value,
                    ),
                ),
                pc.and_(
                    pc.equal(
                        pc.cast(batch[f"{v}__lang"], pa.large_string()),
                        t.lang,
                    ),
                    pc.equal(
                        pc.cast(batch[f"{v}__datatype"], pa.large_string()),
                        t.datatype,
                    ),
                ),
            )
            m = one if m is None else pc.or_(m, one)
        if flt.negated:
            m = pc.invert(m)
    else:
        left, lnum = _operand(batch, flt.left)
        right, rnum = _operand(batch, flt.right)
        if lnum or rnum:  # numeric comparison when a numeric literal is involved
            left = _to_float_coerce(left)
            right = _to_float_coerce(right)
            m = _FCMP[flt.op](left, right)
            # SPARQL type error (NaN here) → condition is false,
            # even for != (IEEE would say true)
            for side in (left, right):
                if not isinstance(side, pa.Scalar):
                    m = pc.and_(m, pc.invert(pc.is_nan(side)))
        else:
            m = _FCMP[flt.op](left, right)
            if flt.op in ("=", "!="):
                # full term identity, var-var and var-constant alike
                ident = _term_identity_mask(batch, flt)
                m = (
                    pc.and_(m, ident)
                    if flt.op == "="
                    else pc.or_(m, pc.invert(ident))
                )
    return m


def _apply_filters(ds, filters):
    if not filters:
        return ds

    def fapply(batch: pa.Table) -> pa.Table:
        mask = None
        for flt in filters:
            m = _filter_mask(batch, flt)
            mask = m if mask is None else pc.and_(mask, m)
        return batch.filter(mask) if mask is not None else batch

    return ds.map_batches(fapply, batch_format="pyarrow")


def _distinct(ds, columns):
    """Global DISTINCT over rendered columns — hash-keyed sort + one
    vectorized per-block pass (same shape as triple dedup, A4)."""

    def key(batch: pa.Table) -> pa.Table:
        return batch.append_column("_dk", _row_key(batch, list(columns)))

    ds = ds.map_batches(key, batch_format="pyarrow")
    ds = sorted_unique(ds, list(columns), "_dk")
    return ds.map_batches(
        lambda b: b.drop_columns(["_dk"]), batch_format="pyarrow"
    )


# rendered numeric literal: "lexical"^^<xsd numeric type> — the forms
# ORDER BY must compare by VALUE, not lexically (SPARQL 1.1 §15.1);
# the alternation covers every XSD numeric type (incl. the negative /
# non-positive / unsigned-small variants)
_NUMERIC_LITERAL_RE = (
    r'^"(?P<num>[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"'
    r"\^\^<http://www\.w3\.org/2001/XMLSchema#"
    r"(?:integer|decimal|double|float|int|long|short|byte|"
    r"nonNegativeInteger|nonPositiveInteger|negativeInteger|"
    r"positiveInteger|unsignedInt|unsignedLong|unsignedShort|"
    r"unsignedByte)>$"
)


def _append_order_keys(batch: pa.Table, order_by, values=()) -> pa.Table:
    """Per order-var derived sort keys implementing the §15.1 order:
    ``_ordrank{i}`` encodes the type tier — unbound(-1) < blank
    node(0) < IRI(1) < numeric literal(2) < other literal(3), numerics
    value-ordered within their tier via ``_ordnum{i}`` (the parsed
    value, 0.0 elsewhere).  Sorting ``[rank, num, rendered]`` with one
    shared descending flag yields the spec's ascending order and its
    exact reverse for DESC.  The ``values`` columns (a Group's
    aggregate values) sort as they are and get no keys."""
    for i, (v, _) in enumerate(order_by):
        if v in values:
            continue
        s = pc.cast(batch[v], pa.large_string())
        ex = pc.extract_regex(s, _NUMERIC_LITERAL_RE)
        num = pc.cast(pc.struct_field(ex, "num"), pa.float64())
        tier = pc.if_else(
            pc.starts_with(s, "_:"),
            pa.scalar(0, pa.int8()),
            pc.if_else(
                pc.starts_with(s, "<"),
                pa.scalar(1, pa.int8()),
                pc.if_else(
                    pc.is_valid(num),
                    pa.scalar(2, pa.int8()),
                    pa.scalar(3, pa.int8()),
                ),
            ),
        )
        unbound = pc.equal(pc.fill_null(s, ""), "")  # rendered as ""
        batch = batch.append_column(
            f"_ordrank{i}", pc.if_else(unbound, pa.scalar(-1, pa.int8()), tier)
        )
        batch = batch.append_column(f"_ordnum{i}", pc.fill_null(num, 0.0))
    return batch


def _order_sort_spec(order_by, tail_cols=(), values=()):
    """(keys, descending) for a Dataset.sort over `_append_order_keys`
    output: three keys per order var (one per ``values`` column), then
    any tie-break tail."""
    keys: list[str] = []
    desc: list[bool] = []
    for i, (v, d) in enumerate(order_by):
        own = [v] if v in values else [f"_ordrank{i}", f"_ordnum{i}", v]
        keys += own
        desc += [d] * len(own)
    for c in tail_cols:
        if c not in keys:
            keys.append(c)
            desc.append(False)
    return keys, desc


def _drop_order_keys(batch: pa.Table) -> pa.Table:
    drop = [c for c in batch.column_names if c.startswith(("_ordrank", "_ordnum"))]
    return batch.drop_columns(drop) if drop else batch


def _adjacent_dedup(batch: pa.Table, cols: list[str]) -> pa.Table:
    """Drop rows equal to their predecessor across ``cols``, which must
    determine the row (valid only on blocks of a Dataset sorted by
    them)."""
    n = batch.num_rows
    if n <= 1:
        return batch
    batch = batch.combine_chunks()
    same = None
    for c in cols:
        col = batch.column(c)
        col = col.chunk(0) if isinstance(col, pa.ChunkedArray) else col
        eq = pc.equal(col.slice(1), col.slice(0, n - 1))
        same = eq if same is None else pc.and_(same, eq)
    mask = pa.concat_arrays(
        [pa.array([True]), pc.invert(same)]
    )
    return batch.filter(mask)


def _apply_slice(out, limit: int | None, offset: int):
    """OFFSET/LIMIT over a (sorted) Dataset: ``rows[offset:offset+limit]``.
    With a LIMIT the upstream is bounded first (streaming early-stop);
    the split itself executes the bounded prefix only.  OFFSET without
    LIMIT executes the full solution sequence (inherent to the ask)."""
    if offset:
        if limit is not None:
            out = out.limit(offset + limit)
        out = out.split_at_indices([offset])[1]
    elif limit is not None:
        out = out.limit(limit)
    return out


# kernel that combines an aggregate's input column with itself, so one
# block function serves as the per-batch partial and as the final step
_AGG_KERNELS = {
    "count": "sum", "sum": "sum", "avg": "sum",
    "min": "min", "max": "max", "sample": "min",
}


def _group(table: pa.Table, keys: list[str], specs) -> pa.Table:
    """``table.group_by(keys).aggregate(specs)``, single-threaded (so
    list aggregates keep input order), each output named after its
    input column."""
    out = table.group_by(keys, use_threads=False).aggregate(specs)
    return out.select(keys + [f"{c}_{f}" for c, f in specs]).rename_columns(
        keys + [c for c, _ in specs]
    )


def _agg_combine(table: pa.Table, keys: list[str], aggs) -> pa.Table:
    """The aggregate block function (see ``_aggregate_query``): rows of
    ``_a<i>`` / ``_n<i>`` inputs → one row per group, sorted by the keys.
    A decomposable aggregate's output has the same columns as its
    input, so this also runs as the per-batch partial."""
    if not table.num_columns:  # a column-less empty block (Ray emits these)
        return table
    specs, pieces = [], []
    for i, a in enumerate(aggs):
        col = f"_a{i}"
        counts = [f"_n{i}"] if a.func == "avg" else []
        if a.func == "group_concat":
            vals = table.select(keys + [col]).filter(pc.is_valid(table[col]))
            g = _group(vals.sort_by(col), keys, [(col, "distinct" if a.distinct else "list")])
            sep = pa.scalar(a.separator, pa.large_string())
            pieces.append(g.set_column(len(keys), col, pc.binary_join(g[col], sep)))
        elif a.distinct and a.func != "count":  # SUM/AVG(DISTINCT): one row per term first
            terms = _group(table, keys + [f"_t{i}"], [(c, "max") for c in [col] + counts])
            pieces.append(_group(terms, keys, [(c, "sum") for c in [col] + counts]))
        elif a.distinct:  # COUNT(DISTINCT ?v) and COUNT(DISTINCT *)
            specs.append((col, "count_distinct"))
        else:
            specs += [(col, _AGG_KERNELS[a.func])] + [(c, "sum") for c in counts]
    out = _group(table, keys, specs)
    for piece in pieces:
        out = out.join(piece, keys, join_type="left outer")
    return out.sort_by([(k, "ascending") for k in keys])


def _aggregate_query(bindings, q: Group):
    """GROUP BY and aggregates: one operator for every aggregate class,
    on both tiers.

    1. **Prep** (per batch): each group key becomes its canonical
       N-Triples rendering (``""`` when unbound; without GROUP BY a
       constant ``_g`` key stands in) and each aggregate gets one input
       column ``_a<i>``:
       - COUNT: 1 per bound value (COUNT(*): per row); COUNT(DISTINCT
         ?v) the rendered term; COUNT(DISTINCT *) every variable's
         rendering, joined;
       - SUM/AVG/MIN/MAX: the lexical form read as a double, null when
         it does not parse, so it is left out (the SPARQL
         error-ignoring behaviour most endpoints have; COUNT still
         counts such rows).  AVG also gets ``_n<i>``, 1 per number, and
         SUM/AVG(DISTINCT) the rendered term ``_t<i>``;
       - SAMPLE: the rendered term, of which the least is kept (the
         spec allows any; the least makes it deterministic);
       - GROUP_CONCAT: the lexical form (STR semantics).
    2. **Partial**: when every aggregate is decomposable (COUNT / SUM /
       MIN / MAX / AVG / SAMPLE without DISTINCT), ``_agg_combine``
       first runs on each batch.
    3. **Exchange**: one ``exchange`` keyed on the rendered key columns
       themselves, so the output is key-sorted on both tiers.
    4. **Block function** ``_agg_combine``: one Arrow ``group_by`` for
       the sums, minima, maxima and distinct counts.  SUM/AVG(DISTINCT)
       first keep one row per (group, term).  GROUP_CONCAT joins each
       group's bound lexical forms in ascending order (DISTINCT:
       distinct forms) — SPARQL leaves the order open; this one is
       DuckDB's ``string_agg(v, s ORDER BY v)``.  The pieces meet on
       the keys in a ``pa.Table.join``.

    Without GROUP BY the prepped rows (one per batch when the partial
    ran) come to this process and the same block function finishes
    them, which also gives the one row no solutions need.  So a
    COUNT/SUM/AVG(DISTINCT), GROUP_CONCAT or COUNT(DISTINCT *) without
    GROUP BY brings its solutions to the driver.

    Output columns, keys first: COUNT int64, SUM float64 (0 when no
    value is a number), AVG/MIN/MAX float64 (unbound when none is),
    SAMPLE and GROUP_CONCAT strings (GROUP_CONCAT ``""`` when no value
    is bound)."""
    group_vars = list(q.group_by)
    aggs = q.aggregates
    keys = group_vars or ["_g"]
    names = []
    if any(a.distinct and a.var is None for a in aggs):
        # COUNT(DISTINCT *): distinct complete solutions per group.
        # Mixing it with other aggregates is rejected explicitly.
        if len(aggs) != 1:
            raise SparqlSyntaxError(
                "COUNT(DISTINCT *) cannot combine with other aggregates"
            )
        names = sorted(
            c[: -len("__kind")]
            for c in (bindings.columns() or [])
            if c.endswith("__kind") and "$" not in c and not c.startswith("_match")
        )
        if not names:
            raise SparqlSyntaxError("COUNT(DISTINCT *) over no variables")
    null = pa.scalar(None, pa.float64())

    def prep(batch: pa.Table) -> pa.Table:
        def rendered(v):
            return nt_render_term_arrays(
                batch[f"{v}__kind"], batch[f"{v}__value"],
                batch[f"{v}__lang"], batch[f"{v}__datatype"],
            )

        n = batch.num_rows
        out = {g: pc.fill_null(rendered(g), "") for g in group_vars}
        if not group_vars:
            out["_g"] = pa.array(np.zeros(n, np.int8))
        for i, a in enumerate(aggs):
            col = f"_a{i}"
            if a.var is None and a.distinct:
                out[col] = pc.binary_join_element_wise(
                    *(pc.fill_null(rendered(v), "") for v in names),
                    pa.scalar("\x1f", pa.large_string()),
                )
            elif a.var is None:
                out[col] = pa.array(np.ones(n, np.int64))
            elif a.func == "count":
                out[col] = (
                    rendered(a.var) if a.distinct
                    else pc.cast(pc.is_valid(batch[f"{a.var}__kind"]), pa.int64())
                )
            elif a.func == "sample":
                out[col] = rendered(a.var)
            elif a.func == "group_concat":
                out[col] = pc.cast(batch[f"{a.var}__value"], pa.large_string())
            else:
                num = _to_float_coerce(batch[f"{a.var}__value"])
                out[col] = num = pc.if_else(pc.is_nan(num), null, num)
                if a.func == "avg":
                    out[f"_n{i}"] = pc.cast(pc.is_valid(num), pa.int64())
                if a.distinct:
                    out[f"_t{i}"] = rendered(a.var)
        return pa.table(out)

    def finish(table: pa.Table) -> pa.Table:
        if not group_vars and not table.num_rows:
            # no solutions: the one row of empty aggregates
            table = pa.table(
                {f"_{p}{i}": pa.nulls(1) for i in range(len(aggs)) for p in "an"}
            )
        elif not table.num_columns:
            return table
        out = {g: table[g] for g in group_vars}
        for i, a in enumerate(aggs):
            col = table[f"_a{i}"]
            if a.func == "count":
                col = pc.fill_null(pc.cast(col, pa.int64()), 0)
            elif a.func == "sum":
                col = pc.fill_null(pc.cast(col, pa.float64()), 0.0)
            elif a.func == "avg":
                n = pc.fill_null(pc.cast(table[f"_n{i}"], pa.float64()), 0.0)
                col = pc.if_else(
                    pc.equal(n, 0.0), null, pc.divide(pc.cast(col, pa.float64()), n)
                )
            elif a.func == "group_concat":
                col = pc.fill_null(pc.cast(col, pa.large_string()), "")
            elif a.func == "sample":
                col = pc.cast(col, pa.large_string())
            else:
                col = pc.cast(col, pa.float64())
            out[a.alias] = col
        return pa.table(out)

    def final(table: pa.Table) -> pa.Table:
        return finish(_agg_combine(table, keys, aggs))

    def partial(batch: pa.Table) -> pa.Table:
        return _agg_combine(prep(batch), keys, aggs)

    decomposable = not any(a.distinct or a.func == "group_concat" for a in aggs)
    rows = bindings.map_batches(
        partial if decomposable else prep, batch_format="pyarrow"
    )
    if group_vars:
        return exchange(rows, group_vars, final, batch_format="pyarrow")
    blocks = [t for t in _blocks(rows) if t.num_columns]
    table = pa.concat_tables(blocks) if blocks else pa.table({})
    return _table_like(bindings, final(table))


def _apply_dataset_clause(ds, q):
    """``FROM`` / ``FROM NAMED`` over a quads dataset (``url`` graph
    column, the ``read_graphstore`` layout).

    - ``FROM <g>…``: the default graph is the merge of the listed
      graphs — ONE vectorized url-mask scan; the ``url`` column is
      dropped so a stray GRAPH clause errors loudly instead of seeing
      graphs the dataset clause excluded.
    - ``FROM NAMED <g>…`` (alone): quads scoped to the listed graphs;
      GRAPH clauses see exactly those.  Divergence from the spec's
      empty-default-graph rule: non-GRAPH patterns also match inside
      the named graphs (documented; all-GRAPH queries — the common
      shape — behave per spec).
    - Combining both is rejected rather than silently wrong: it would
      need two differently-scoped scans threaded through every join
      path."""
    if not (q.from_graphs or q.from_named):
        return ds
    if q.from_graphs and q.from_named:
        raise SparqlSyntaxError(
            "FROM and FROM NAMED cannot be combined"
        )
    cols = ds.columns()
    if cols is not None and "url" not in cols:
        raise SparqlSyntaxError(
            "FROM / FROM NAMED need a quads dataset (url graph column)"
        )
    allowed = list(q.from_graphs or q.from_named)
    drop_url = bool(q.from_graphs)

    def scope(batch: pa.Table) -> pa.Table:
        m = pc.is_in(
            pc.cast(batch["url"], pa.large_string()),
            value_set=pa.array(allowed, pa.large_string()),
        )
        batch = batch.filter(m)
        return batch.drop_columns(["url"]) if drop_url else batch

    return ds.map_batches(scope, batch_format="pyarrow")


def evaluate_select(ds, query: str | SelectQuery):
    """SELECT over a triples Dataset → a frame of its tier with one canonical
    N-Triples-rendered string column per selected variable (the same
    term rendering the result parser S6 round-trips)."""
    q = parse_query(query) if isinstance(query, str) else query
    if not isinstance(q, SelectQuery):
        raise SparqlSyntaxError("not a SELECT query")
    return _eval(_apply_dataset_clause(_executor(ds, q), q), q.where)


def evaluate_ask(ds, query: str | AskQuery) -> bool:
    """ASK → bool (SparqlService.Ask semantics, sparqlservice.go:55-68)."""
    q = parse_query(query) if isinstance(query, str) else query
    if not isinstance(q, AskQuery):
        raise SparqlSyntaxError("not an ASK query")
    ds = _apply_dataset_clause(_executor(ds, q), q)
    return _eval(ds, q.where).limit(1).count() > 0


def evaluate_construct(ds, query: str | ConstructQuery):
    """CONSTRUCT → a frame of flattened distinct triples (the graph the
    reference's ``SparqlService.Graph`` parses from the response body,
    sparqlservice.go:70-83) — serialize a ``LocalFrame``'s ``.table``
    in memory, or write a Dataset with any serializer sink."""
    q = parse_query(query) if isinstance(query, str) else query
    if not isinstance(q, ConstructQuery):
        raise SparqlSyntaxError("not a CONSTRUCT query")
    for t in q.template:
        for x in t:
            if not isinstance(x, (Var, Term)):
                raise SparqlSyntaxError("bad template term")
    ds = _apply_dataset_clause(_executor(ds, q), q)
    bindings = _eval(ds, q.where)
    bound = set().union(*_scope(q.where))
    for t in q.template:
        for x in t:
            if isinstance(x, Var) and x.name not in bound:
                raise SparqlSyntaxError(f"unbound template variable ?{x.name}")
    template = q.template
    if q.limit is not None:
        # SPARQL: LIMIT bounds the solution sequence BEFORE templating
        bindings = bindings.limit(q.limit)

    def instantiate(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        tables = []
        # Template blank nodes (``_:label``) mint a FRESH bnode per
        # SOLUTION (W3C SPARQL 1.1 §16.2.1): deterministic salted-hash
        # skolemization — md5 over the solution's bound term columns in
        # sorted-variable order (the engine's skolemization story, same
        # as the RDFa anon-subject minting) — so identical solutions
        # collapse to isomorphic output and the result is partition- and
        # run-independent.  One mint per distinct template label.
        bnode_vals: dict[str, pa.Array] = {}
        tpl_labels = {
            x.value
            for t in template
            for x in t
            if isinstance(x, Term) and x.kind == 1
        }
        if tpl_labels:
            import hashlib

            var_cols = sorted(
                c
                for c in batch.column_names
                if c.endswith("__value") and "$" not in c and not c.startswith("_match")
            )
            base = [c[: -len("__value")] for c in var_cols]
            rows_sig = []
            rendered = [
                [
                    "" if v is None else str(v)
                    for v in pc.cast(
                        pc.fill_null(batch[f"{b}__{f}"], "" if f != "kind" else -1),
                        pa.string(),
                    ).to_pylist()
                ]
                for b in base
                for f in _FIELDS
            ]
            for i in range(n):
                rows_sig.append("\x1f".join(col[i] for col in rendered))
            for label in tpl_labels:
                bnode_vals[label] = pa.array(
                    [
                        "tpl"
                        + label
                        + hashlib.md5((label + "\x1e" + s).encode()).hexdigest()[:16]
                        for s in rows_sig
                    ],
                    pa.string(),
                )
        for s, p, o in template:
            cols = {}
            valid = None  # rows where every template var is bound
            for pos, x in zip(_POS, (s, p, o)):
                if isinstance(x, Var):
                    bound_mask = pc.is_valid(batch[f"{x.name}__kind"])
                    valid = bound_mask if valid is None else pc.and_(valid, bound_mask)
                    for f in _FIELDS:
                        col = batch[f"{x.name}__{f}"]
                        if f == "kind":
                            col = pc.cast(col, pa.uint8())
                        else:
                            col = pc.cast(col, pa.string())
                        cols[f"{pos}_{f}"] = col
                else:
                    cols[f"{pos}_kind"] = pa.array([x.kind] * n, pa.uint8())
                    if x.kind == 1:  # template bnode: per-solution mint
                        cols[f"{pos}_value"] = bnode_vals[x.value]
                    else:
                        cols[f"{pos}_value"] = pa.array([x.value] * n, pa.string())
                    cols[f"{pos}_lang"] = pa.array([x.lang] * n, pa.string())
                    cols[f"{pos}_datatype"] = pa.array([x.datatype] * n, pa.string())
            t = pa.table({c: cols[c] for c in TRIPLE_COLUMNS})
            if valid is not None:
                # SPARQL skips template triples with unbound variables
                t = t.filter(valid)
            tables.append(t)
        return pa.concat_tables(tables)

    from ..stages.materialize import dedup_exact

    out = bindings.map_batches(instantiate, batch_format="pyarrow")
    out = dedup_exact(out)
    return out.map_batches(lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow")


def evaluate_describe(ds, query: str | DescribeQuery):
    """DESCRIBE → a frame of the described subjects' distinct triples
    (streaming filter — the same M1 predicate the pattern scans use)."""
    from ..stages.filter import term_predicate
    from ..stages.materialize import dedup_exact

    q = parse_query(query) if isinstance(query, str) else query
    if not isinstance(q, DescribeQuery):
        raise SparqlSyntaxError("not a DESCRIBE query")
    ds = _apply_dataset_clause(_executor(ds, q), q)
    if q.var is not None:
        # DESCRIBE ?v WHERE { … }: evaluate the group, collect the
        # variable's DISTINCT rendered bindings (the described-resource
        # set is the query RESULT — driver-sized by design, same as any
        # SELECT the client would have issued), then one vectorized
        # is_in subject mask over the store.
        sel = Distinct(Project(q.where, [q.var]))
        vals = sorted({row[q.var] for row in _eval(ds, sel).take_all()})
        value_set = pa.array(vals, pa.large_string())

        def fvar(batch: pa.Table) -> pa.Table:
            rendered = nt_render_term_arrays(
                batch["subj_kind"], batch["subj_value"],
                batch["subj_lang"], batch["subj_datatype"],
            )
            return batch.filter(
                pc.is_in(rendered, value_set=value_set)
            ).select(TRIPLE_COLUMNS)

        out = dedup_exact(ds.map_batches(fvar, batch_format="pyarrow"))
        return out.map_batches(
            lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
        )
    terms = q.terms

    def f(batch: pa.Table) -> pa.Table:
        mask = None
        for t in terms:
            m = term_predicate(batch, "subj", t)
            mask = m if mask is None else pc.or_(mask, m)
        return batch.filter(mask).select(TRIPLE_COLUMNS)

    out = dedup_exact(ds.map_batches(f, batch_format="pyarrow"))
    return out.map_batches(lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow")


def _where_solutions(triples, where) -> list[dict]:
    """A modify op's WHERE solutions over one graph's triples, as
    ``{var: Term}`` dicts: the engine's own evaluator, run on the
    graph's local frame."""
    frame = LocalFrame(triples_to_table(triples, with_hash=False))
    table = _eval(frame, where).table
    names = sorted(v for v in set().union(*_scope(where)) if "$" not in v)
    cols = {
        v: [table[f"{v}__{f}"].to_pylist() for f in _FIELDS] for v in names
    }
    return [
        {
            v: Term(*(c[i] for c in fields))
            for v, fields in cols.items()
            if fields[0][i] is not None
        }
        for i in range(table.num_rows)
    ]


def _instantiate_tmpl(tmpl, sol):
    """Template patterns → ground triples under one solution; triples
    with an unbound template variable are skipped (SPARQL 1.1 Update:
    such instantiations produce no triple)."""
    out = []
    for pat in tmpl:
        t = []
        for el in pat:
            if isinstance(el, Var):
                v = sol.get(el.name)
                if v is None:
                    break
                t.append(v)
            else:
                t.append(el)
        else:
            out.append(tuple(t))
    return out


def apply_update(table: pa.Table, query: str) -> pa.Table:
    """SPARQL-Update (INSERT DATA / DELETE DATA / DELETE WHERE /
    DELETE-INSERT-WHERE, ';'-chained) applied to one stored graph's
    triple table, set semantics, ops in order.  A modify op evaluates
    its WHERE once, then deletes before inserting (spec order).

    Driver-side by design: this is the server half of graph-store PATCH
    (graphstoreservice.go:162-181) and a stored named graph is one
    document — the distributed axis is graphs (``write_graphstore``
    fan-out), not triples within a graph."""
    ops = parse_update(query)
    current = list(
        dict.fromkeys(table_to_triples(table.select(TRIPLE_COLUMNS)))
    )
    have = set(current)
    for op in ops:
        if isinstance(op, GraphMgmtOp):
            raise SparqlSyntaxError(
                f"{op.verb.upper()} is a graph-management operation — "
                "apply it at store level via FileGraphStore.manage()"
            )
        if isinstance(op, ModifyOp):
            sols = _where_solutions(current, op.where)
            if op.delete_tmpl:
                rm = set()
                for sol in sols:
                    rm.update(_instantiate_tmpl(op.delete_tmpl, sol))
                current = [t for t in current if t not in rm]
                have -= rm
            if op.insert_tmpl:
                for sol in sols:
                    for t in _instantiate_tmpl(op.insert_tmpl, sol):
                        if t not in have:
                            current.append(t)
                            have.add(t)
        elif op.action == "delete":
            rm = set(op.triples)
            current = [t for t in current if t not in rm]
            have -= rm
        else:
            for t in op.triples:
                if t not in have:
                    current.append(t)
                    have.add(t)
    return triples_to_table(current, with_hash=False)
