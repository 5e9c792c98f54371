"""RDFS forward-chaining materialization — schema-driven type and
property entailment over the triple stream.

No reference counterpart (the reference stores and serializes asserted
triples only; its loop interpreter reads rdf:type but never infers it,
``/root/reference/loop/loop.go:121-203``) — this is the inference step
a KG build runs after extraction so downstream queries see the
entailed graph.

Rules implemented (the RDFS core):

- **rdfs9/11**: ``(x rdf:type C) ∧ (C rdfs:subClassOf* D) → (x rdf:type D)``
- **rdfs5/7**: ``(s P o) ∧ (P rdfs:subPropertyOf* Q) → (s Q o)``
- **rdfs2**:   ``(s P o) ∧ (P rdfs:domain C) → (s rdf:type C)``
- **rdfs3**:   ``(s P o) ∧ (P rdfs:range C) → (o rdf:type C)`` (non-literal o)

Scale shape: the TBox (schema) is broadcast-small by assumption — real
ontologies are thousands of axioms against billions of facts — so its
transitive closures are computed ONCE on the driver (Floyd-Warshall-free
BFS over a dict graph, O(axioms²) worst case) and shipped to every
worker as four join tables via ``ray.put``.  The ABox (the fact stream)
is entailed in ONE stateless pass of vectorized pandas merges — domain
and range lookup tables are pre-composed with the subclass and
subproperty closures, so a single pass reaches the fixpoint (the data
never adds schema axioms; rule outputs are rdf:type triples, which only
rdfs9 consumes, and rdfs9 is pre-composed into the tables).  The one
exchange is the skew-proof ``triple_hash`` dedup at the end.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
RDFS_SUBCLASS = RDFS_NS + "subClassOf"
RDFS_SUBPROP = RDFS_NS + "subPropertyOf"
RDFS_DOMAIN = RDFS_NS + "domain"
RDFS_RANGE = RDFS_NS + "range"


def _closure(edges: dict[str, set[str]]) -> dict[str, set[str]]:
    """node → strict transitive successors (BFS per node; TBox-sized)."""
    out: dict[str, set[str]] = {}
    for start in edges:
        seen: set[str] = set()
        stack = list(edges.get(start, ()))
        while stack:
            n = stack.pop()
            if n in seen or n == start:
                continue
            seen.add(n)
            stack.extend(edges.get(n, ()))
        out[start] = seen
    return out


def schema_tables(schema: pa.Table) -> dict[str, pd.DataFrame]:
    """Compile a TBox — columns ``(s, p, o)`` strings — into the four
    broadcast join tables, closures pre-composed:

    - ``cls``:  (cls, super)   — strict subClassOf closure
    - ``prop``: (prop, super)  — strict subPropertyOf closure
    - ``dom``:  (prop, type)   — domains of prop ∪ its superprops,
                                 expanded by the class closure
    - ``rng``:  (prop, type)   — ranges, same expansion
    """
    s = schema.column("s").to_pylist()
    p = schema.column("p").to_pylist()
    o = schema.column("o").to_pylist()

    sub_c: dict[str, set[str]] = {}
    sub_p: dict[str, set[str]] = {}
    dom: dict[str, set[str]] = {}
    rng: dict[str, set[str]] = {}
    for si, pi, oi in zip(s, p, o):
        if pi == RDFS_SUBCLASS:
            sub_c.setdefault(si, set()).add(oi)
        elif pi == RDFS_SUBPROP:
            sub_p.setdefault(si, set()).add(oi)
        elif pi == RDFS_DOMAIN:
            dom.setdefault(si, set()).add(oi)
        elif pi == RDFS_RANGE:
            rng.setdefault(si, set()).add(oi)

    cls_clo = _closure(sub_c)
    prop_clo = _closure(sub_p)

    def up_cls(c: str) -> set[str]:
        return {c} | cls_clo.get(c, set())

    all_props = set(dom) | set(rng) | set(prop_clo) | set(sub_p)
    dom_rows, rng_rows = [], []
    for prop in sorted(all_props):
        chain = {prop} | prop_clo.get(prop, set())
        for q in chain:
            for c in dom.get(q, ()):
                dom_rows += [(prop, t) for t in up_cls(c)]
            for c in rng.get(q, ()):
                rng_rows += [(prop, t) for t in up_cls(c)]

    def df(rows, a, b):
        return pd.DataFrame(sorted(set(rows)), columns=[a, b]) if rows else pd.DataFrame(
            {a: pd.Series([], dtype="object"), b: pd.Series([], dtype="object")}
        )

    return {
        "cls": df(
            [(c, d) for c, sups in cls_clo.items() for d in sups], "cls", "super"
        ),
        "prop": df(
            [(q, r) for q, sups in prop_clo.items() for r in sups], "prop", "super"
        ),
        "dom": df(dom_rows, "prop", "type"),
        "rng": df(rng_rows, "prop", "type"),
    }


def _type_rows(subj_kind, subj_value, types) -> pd.DataFrame:
    n = len(subj_value)
    return pd.DataFrame(
        {
            "subj_kind": pd.Series(subj_kind, dtype="int64"),
            "subj_value": subj_value,
            "subj_lang": [""] * n,
            "subj_datatype": [""] * n,
            "pred_kind": pd.Series([0] * n, dtype="int64"),
            "pred_value": [RDF_TYPE] * n,
            "pred_lang": [""] * n,
            "pred_datatype": [""] * n,
            "obj_kind": pd.Series([0] * n, dtype="int64"),
            "obj_value": types,
            "obj_lang": [""] * n,
            "obj_datatype": [""] * n,
        }
    )


class _RdfsEntailer:
    """Actor: resolves the four broadcast TBox join tables once, emits
    the entailed triples per batch with vectorized pandas merges."""

    def __init__(self, tables_ref):
        import ray

        self.t = tables_ref if isinstance(tables_ref, dict) else ray.get(tables_ref)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        cols = list(df.columns)
        out = [df]

        # rdfs9 (+11, pre-closed): supertype triples for asserted types
        tt = df[(df["pred_value"] == RDF_TYPE) & (df["obj_kind"] != 2)]
        if len(tt) and len(self.t["cls"]):
            m = tt.merge(self.t["cls"], left_on="obj_value", right_on="cls")
            out.append(_type_rows(m["subj_kind"], m["subj_value"], m["super"]))

        # rdfs5/7 (pre-closed): superproperty assertions
        if len(self.t["prop"]):
            m = df.merge(self.t["prop"], left_on="pred_value", right_on="prop")
            if len(m):
                sup = m.drop(columns=["prop", "pred_value"]).rename(
                    columns={"super": "pred_value"}
                )[cols]
                out.append(sup)

        # rdfs2 (domain, subclass/subprop pre-composed)
        if len(self.t["dom"]):
            m = df.merge(self.t["dom"], left_on="pred_value", right_on="prop")
            if len(m):
                out.append(_type_rows(m["subj_kind"], m["subj_value"], m["type"]))

        # rdfs3 (range) — non-literal objects become typed subjects
        if len(self.t["rng"]):
            nl = df[df["obj_kind"] != 2]
            m = nl.merge(self.t["rng"], left_on="pred_value", right_on="prop")
            if len(m):
                out.append(_type_rows(m["obj_kind"], m["obj_value"], m["type"]))

        res = pd.concat(out, ignore_index=True)[cols]
        for k in ("subj_kind", "pred_kind", "obj_kind"):
            res[k] = res[k].astype("int64")
        return res


# ---------------------------------------------------------------------------
# OWL property-semantics inference (OWL 2 RL subset)
# ---------------------------------------------------------------------------

OWL_NS = "http://www.w3.org/2002/07/owl#"
OWL_INVERSE = OWL_NS + "inverseOf"
OWL_SYMMETRIC = OWL_NS + "SymmetricProperty"
OWL_TRANSITIVE = OWL_NS + "TransitiveProperty"
OWL_CHAIN = OWL_NS + "propertyChainAxiom"
RDF_FIRST = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first"
RDF_REST = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest"
RDF_NIL = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil"


def owl_axioms(schema: pa.Table) -> dict:
    """Compile the OWL property axioms out of a TBox table (columns
    ``s, p, o`` strings):

    - ``inv``:   prop → sorted list of inverse props (both directions
                 of each ``owl:inverseOf`` assertion)
    - ``sym``:   set of ``owl:SymmetricProperty`` IRIs
    - ``trans``: set of ``owl:TransitiveProperty`` IRIs
    - ``chains``: list of ``(P, P1, P2)`` from length-2
                 ``owl:propertyChainAxiom`` lists (longer chains raise —
                 compose them as nested length-2 chains in the TBox)
    """
    s = schema.column("s").to_pylist()
    p = schema.column("p").to_pylist()
    o = schema.column("o").to_pylist()

    inv: dict[str, set[str]] = {}
    sym: set[str] = set()
    trans: set[str] = set()
    first: dict[str, str] = {}
    rest: dict[str, str] = {}
    chain_heads: list[tuple[str, str]] = []
    for si, pi, oi in zip(s, p, o):
        if pi == OWL_INVERSE:
            inv.setdefault(si, set()).add(oi)
            inv.setdefault(oi, set()).add(si)
        elif pi == RDF_TYPE and oi == OWL_SYMMETRIC:
            sym.add(si)
        elif pi == RDF_TYPE and oi == OWL_TRANSITIVE:
            trans.add(si)
        elif pi == OWL_CHAIN:
            chain_heads.append((si, oi))
        elif pi == RDF_FIRST:
            first[si] = oi
        elif pi == RDF_REST:
            rest[si] = oi

    chains: list[tuple[str, str, str]] = []
    for prop, head in chain_heads:
        members: list[str] = []
        node = head
        while node != RDF_NIL:
            if node not in first:
                raise ValueError(f"malformed chain list for {prop}")
            members.append(first[node])
            node = rest.get(node, RDF_NIL)
        if len(members) != 2:
            raise ValueError(
                f"only length-2 property chains supported, got {len(members)}"
            )
        chains.append((prop, members[0], members[1]))
    return {
        "inv": {k: sorted(v) for k, v in inv.items()},
        "sym": sym,
        "trans": trans,
        "chains": chains,
    }


def _empty_triples_df() -> pd.DataFrame:
    """Typed empty 12-column frame — object string columns and int64
    kinds so empty blocks union cleanly with populated ones."""
    cols = {}
    for pos in ("subj", "pred", "obj"):
        cols[f"{pos}_kind"] = pd.Series([], dtype="int64")
        cols[f"{pos}_value"] = pd.Series([], dtype="object")
        cols[f"{pos}_lang"] = pd.Series([], dtype="object")
        cols[f"{pos}_datatype"] = pd.Series([], dtype="object")
    return pd.DataFrame(cols)


def _empty_triples_table() -> pa.Table:
    """Arrow twin of :func:`_empty_triples_df` (empty object columns
    would otherwise infer Arrow ``null`` type and break unions)."""
    cols = {}
    for pos in ("subj", "pred", "obj"):
        for suf in ("kind", "value", "lang", "datatype"):
            typ = pa.int64() if suf == "kind" else pa.string()
            cols[f"{pos}_{suf}"] = pa.array([], typ)
    return pa.table(cols)


def _flip_rows(df: pd.DataFrame, new_pred: pd.Series) -> pd.DataFrame:
    """(s P o) → (o Q s) with lang/datatype cleared (non-literal ends)."""
    n = len(df)
    return pd.DataFrame(
        {
            "subj_kind": df["obj_kind"].astype("int64").to_numpy(),
            "subj_value": df["obj_value"].to_numpy(),
            "subj_lang": [""] * n,
            "subj_datatype": [""] * n,
            "pred_kind": pd.Series([0] * n, dtype="int64"),
            "pred_value": new_pred.to_numpy(),
            "pred_lang": [""] * n,
            "pred_datatype": [""] * n,
            "obj_kind": df["subj_kind"].astype("int64").to_numpy(),
            "obj_value": df["subj_value"].to_numpy(),
            "obj_lang": [""] * n,
            "obj_datatype": [""] * n,
        }
    )


def _inv_sym_batch(
    df: pd.DataFrame, axioms_ref, include_input: bool
) -> pd.DataFrame:
    """Stateless map: inverse (prp-inv) + symmetric (prp-symp)
    derivations for one batch; literal-object rows never flip.  A plain
    task (not an actor pool): the axiom dict is tiny and ``ray.get`` on
    a broadcast ref is a cached zero-copy plasma read, and owl_infer
    chains two of these passes — two chained pools would eat the CPU
    budget (see ``io.configure_context`` on chained-pool deadlock)."""
    import ray

    ax = axioms_ref if isinstance(axioms_ref, dict) else ray.get(axioms_ref)
    inv, sym = ax["inv"], ax["sym"]
    cols = list(df.columns)
    out = [df] if include_input else []
    flippable = df[(df["obj_kind"] != 2)]
    s = flippable[flippable["pred_value"].isin(sym)]
    if len(s):
        out.append(_flip_rows(s, s["pred_value"]))
    if inv:
        inv_rows = pd.DataFrame(
            [(p, q) for p, qs in inv.items() for q in qs],
            columns=["pred_value", "inv_pred"],
        )
        m = flippable.merge(inv_rows, on="pred_value")
        if len(m):
            out.append(_flip_rows(m, m["inv_pred"]))
    if not out:
        return _empty_triples_df()[cols]
    res = pd.concat(out, ignore_index=True)[cols]
    for k in ("subj_kind", "pred_kind", "obj_kind"):
        res[k] = res[k].astype("int64")
    for c in cols:
        if not c.endswith("_kind"):
            res[c] = res[c].astype("object")
    return res


def _node_key_cols(b: pa.Table, which: str) -> pa.Table:
    """Composite 'kind|value' join keys for non-literal triple edges."""
    import pyarrow.compute as pc

    def key(kind_col, val_col):
        return pc.binary_join_element_wise(
            pc.cast(pc.cast(b[kind_col], pa.string()), pa.large_string()),
            pc.cast(b[val_col], pa.large_string()),
            pa.scalar("|", pa.large_string()),
        )

    return pa.table(
        {
            "pred_value": pc.cast(b["pred_value"], pa.string()),
            "skey": pc.cast(key("subj_kind", "subj_value"), pa.string()),
            "okey": pc.cast(key("obj_kind", "obj_value"), pa.string()),
        }
    )


def _rows_from_keys(pred: pd.Series, skey: pd.Series, okey: pd.Series) -> pd.DataFrame:
    sk = skey.str.split("|", n=1, expand=True)
    ok = okey.str.split("|", n=1, expand=True)
    n = len(pred)
    return pd.DataFrame(
        {
            "subj_kind": sk[0].astype("int64").to_numpy(),
            "subj_value": sk[1].to_numpy(),
            "subj_lang": [""] * n,
            "subj_datatype": [""] * n,
            "pred_kind": pd.Series([0] * n, dtype="int64"),
            "pred_value": pred.to_numpy(),
            "pred_lang": [""] * n,
            "pred_datatype": [""] * n,
            "obj_kind": ok[0].astype("int64").to_numpy(),
            "obj_value": ok[1].to_numpy(),
            "obj_lang": [""] * n,
            "obj_datatype": [""] * n,
        }
    )


def _closure_single_task(edges_ds):
    """Gate-bounded fast path: the whole (pred, skey, okey) edge set in
    ONE task; semi-naive per-pred closure with vectorized pandas merges
    (rounds = graph diameter)."""

    def run(b: pa.Table) -> pa.Table:
        df = b.to_pandas().drop_duplicates()
        out = []
        for pred, e in df.groupby("pred_value", sort=True):
            base = e[["skey", "okey"]].drop_duplicates()
            reached = base.copy()
            delta = base
            while True:
                step = delta.merge(
                    base, left_on="okey", right_on="skey", suffixes=("", "_r")
                )[["skey", "okey_r"]].rename(columns={"okey_r": "okey"})
                step = step.drop_duplicates()
                step = step.merge(
                    reached, on=["skey", "okey"], how="left", indicator=True
                )
                step = step[step["_merge"] == "left_only"][["skey", "okey"]]
                if step.empty:
                    break
                reached = pd.concat([reached, step], ignore_index=True)
                delta = step
            new = reached.merge(
                base, on=["skey", "okey"], how="left", indicator=True
            )
            new = new[new["_merge"] == "left_only"][["skey", "okey"]]
            if len(new):
                out.append(
                    _rows_from_keys(
                        pd.Series([pred] * len(new)), new["skey"], new["okey"]
                    )
                )
        if not out:
            return _empty_triples_table()
        return pa.Table.from_pandas(
            pd.concat(out, ignore_index=True), preserve_index=False
        )

    return edges_ds.repartition(1).map_batches(
        run, batch_format="pyarrow", batch_size=None
    )


def _closure_distributed(edges_ds, max_rounds: int):
    """Above-gate path: semi-naive linear expansion, one hash join +
    one distinct exchange per round, stops at fixpoint (stable count)
    or ``max_rounds``.  Rounds = closure diameter; at web scale keep
    transitive properties sparse (part-of/ancestor-style hierarchies) —
    a dense transitive relation's closure is quadratic regardless of
    engine."""
    from ..io import shuffle_partitions
    from .materialize import distinct_rows

    num_partitions = shuffle_partitions()
    base = distinct_rows(edges_ds, ["pred_value", "skey", "okey"]).materialize()
    base_join = base.map_batches(
        lambda b: pa.table(
            {
                "pred_value": b["pred_value"],
                "mid": b["skey"],
                "okey_r": b["okey"],
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    reached = base
    count = reached.count()
    for _ in range(max_rounds):
        step = reached.map_batches(
            lambda b: pa.table(
                {"pred_value": b["pred_value"], "skey": b["skey"], "mid": b["okey"]}
            ),
            batch_format="pyarrow",
        ).join(
            base_join,
            join_type="inner",
            on=("pred_value", "mid"),
            num_partitions=num_partitions,
            aggregator_ray_remote_args={"num_cpus": 0},  # see io.configure_context
        )
        step = step.map_batches(
            lambda b: pa.table(
                {
                    "pred_value": b["pred_value"],
                    "skey": b["skey"],
                    "okey": b["okey_r"],
                }
            ),
            batch_format="pyarrow",
        )
        reached = distinct_rows(
            reached.union(step), ["pred_value", "skey", "okey"]
        ).materialize()
        new_count = reached.count()
        if new_count == count:
            break
        count = new_count

    # closure minus base: anti-join via the same distinct machinery
    tagged = reached.map_batches(
        lambda b: b.append_column("is_base", pa.array([0] * b.num_rows, pa.int64())),
        batch_format="pyarrow",
    ).union(
        base.map_batches(
            lambda b: b.append_column(
                "is_base", pa.array([1] * b.num_rows, pa.int64())
            ),
            batch_format="pyarrow",
        )
    )
    from ..stages.grouping import grouped_map

    def only_new(g: pd.DataFrame) -> pd.DataFrame:
        keep = g.groupby(["pred_value", "skey", "okey"], sort=False)["is_base"].max()
        keep = keep[keep == 0].reset_index()[["pred_value", "skey", "okey"]]
        return keep

    new = grouped_map(tagged, ["pred_value", "skey", "okey"], only_new)

    def to_triples(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return _empty_triples_df()
        return _rows_from_keys(df["pred_value"], df["skey"], df["okey"])

    return new.map_batches(to_triples, batch_format="pandas")


def owl_infer(
    triples_ds,
    schema: pa.Table,
    max_rounds: int = 16,
    small_graph_edges: int = 2_000_000,
):
    """Materialize OWL 2 RL property entailments over ``triples_ds``
    under the broadcast TBox ``schema`` (columns ``s, p, o``):

    - **prp-inv**:  ``(P owl:inverseOf Q) ∧ (s P o) → (o Q s)``
    - **prp-symp**: ``(P a owl:SymmetricProperty) ∧ (s P o) → (o P s)``
    - **prp-trp**:  ``(P a owl:TransitiveProperty)`` → transitive closure
    - **prp-spo2**: length-2 ``owl:propertyChainAxiom`` → join-derived edges

    Evaluation order (documented fixpoint contract): inverse/symmetric
    over asserted facts → chain join → transitive closure over
    everything so far → inverse/symmetric once more over the new edges.
    This reaches the true fixpoint whenever no transitive property
    gains edges from the FINAL inverse/symmetric pass (i.e. a
    transitive property is not itself the inverse of another property
    that only appears post-closure) — the common OWL RL shape; schemas
    outside it need a second call.

    Scale shape: axioms broadcast once (``ray.put``); inverse/symmetric
    and the chain-side filters are stateless vectorized passes; the
    chain rule is one hash join on the shared mid-node; the closure is
    size-gated like the iterative graph ops — ≤``small_graph_edges``
    distinct transitive edges run semi-naive in ONE task, above it a
    per-round hash join + distinct exchange.  One final skew-proof
    dedup exchange.
    """
    import pyarrow.compute as pc
    import ray

    from ..io import shuffle_partitions
    from ..terms import TRIPLE_COLUMNS
    from .materialize import dedup_exact

    ax = owl_axioms(schema)
    ref = ray.put(ax)

    # asserted ∪ inverse/symmetric derivations, normalized through ONE
    # pandas pass (int64 kinds, object strings) so every later union of
    # rule outputs shares a block schema
    universe = triples_ds.map_batches(
        lambda b: b.select(TRIPLE_COLUMNS), batch_format="pyarrow"
    ).map_batches(
        _inv_sym_batch,
        batch_format="pandas",
        fn_kwargs={"axioms_ref": ref, "include_input": True},
    )
    if ax["chains"] or ax["trans"]:
        # barrier: the chain join reads universe on BOTH sides and the
        # closure's distinct follows — chaining those all-to-alls off
        # one lazy plan stalls the streaming executor (same topology
        # issue as the triangle-closure barriers, see BASELINE.md r4)
        universe = universe.materialize()

    outputs = [universe]

    if ax["chains"]:
        num_partitions = shuffle_partitions()
        for prop, p1, p2 in ax["chains"]:
            def left_side(b: pa.Table, p1=p1) -> pa.Table:
                k = _node_key_cols(b, "left")
                mask = pc.and_(
                    pc.equal(k["pred_value"], pa.scalar(p1)),
                    pc.not_equal(pc.cast(b["obj_kind"], pa.int64()), pa.scalar(2)),
                )
                t = k.filter(mask)
                return pa.table({"skey": t["skey"], "mid": t["okey"]})

            def right_side(b: pa.Table, p2=p2) -> pa.Table:
                k = _node_key_cols(b, "right")
                mask = pc.and_(
                    pc.equal(k["pred_value"], pa.scalar(p2)),
                    pc.not_equal(pc.cast(b["obj_kind"], pa.int64()), pa.scalar(2)),
                )
                t = k.filter(mask)
                return pa.table({"mid": t["skey"], "okey": t["okey"]})

            joined = universe.map_batches(left_side, batch_format="pyarrow").join(
                universe.map_batches(right_side, batch_format="pyarrow"),
                join_type="inner",
                on=("mid",),
                num_partitions=num_partitions,
                aggregator_ray_remote_args={"num_cpus": 0},  # see io.configure_context
            )

            def chain_rows(df: pd.DataFrame, prop=prop) -> pd.DataFrame:
                if df.empty:
                    return _empty_triples_df()
                return _rows_from_keys(
                    pd.Series([prop] * len(df)), df["skey"], df["okey"]
                )

            outputs.append(
                joined.map_batches(chain_rows, batch_format="pandas").materialize()
            )

    new_edges = list(outputs[1:])  # chain-derived, need the final inv/sym pass

    if ax["trans"]:
        pre_closure = outputs[0]
        for extra in outputs[1:]:
            pre_closure = pre_closure.union(extra)
        trans_list = sorted(ax["trans"])

        def trans_edges(b: pa.Table) -> pa.Table:
            k = _node_key_cols(b, "t")
            mask = pc.and_(
                pc.is_in(k["pred_value"], value_set=pa.array(trans_list)),
                pc.not_equal(pc.cast(b["obj_kind"], pa.int64()), pa.scalar(2)),
            )
            return k.filter(mask)

        edges = pre_closure.map_batches(trans_edges, batch_format="pyarrow")
        from .materialize import distinct_rows

        edges = distinct_rows(edges, ["pred_value", "skey", "okey"]).materialize()
        if edges.count() <= small_graph_edges:
            closure_new = _closure_single_task(edges)
        else:
            closure_new = _closure_distributed(edges, max_rounds)
        outputs.append(closure_new)
        new_edges.append(closure_new)

    if new_edges:
        # final inverse/symmetric pass over every chain/closure-derived
        # edge (the first pass saw only asserted facts)
        derived = new_edges[0]
        for extra in new_edges[1:]:
            derived = derived.union(extra)
        outputs.append(
            derived.map_batches(
                _inv_sym_batch,
                batch_format="pandas",
                fn_kwargs={"axioms_ref": ref, "include_input": False},
            )
        )

    result = outputs[0]
    for extra in outputs[1:]:
        result = result.union(extra)
    return dedup_exact(result)


def rdfs_infer(triples_ds, schema: pa.Table):
    """Materialize the RDFS entailment of ``triples_ds`` under the
    broadcast TBox ``schema`` (columns ``s, p, o``): asserted ∪ inferred
    triples, exact-deduped.  Kind columns come back as int64."""
    import ray

    from .materialize import dedup_exact

    tables = schema_tables(schema)
    ref = ray.put(tables)
    entailed = triples_ds.map_batches(
        _RdfsEntailer,
        batch_format="pandas",
        concurrency=2,
        num_cpus=0,  # a lookup pool: see io.configure_context
        fn_constructor_kwargs={"tables_ref": ref},
    )
    return dedup_exact(entailed)
