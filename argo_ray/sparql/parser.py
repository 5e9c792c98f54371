"""Recursive-descent parser for the supported SPARQL subset.

Grammar re-derived from the SPARQL 1.1 spec (public W3C REC) — NOT a
translation of any reference code: the reference never parses SPARQL,
it only ships query strings over HTTP (``sparqlservice.go:42-95``).
The subset is exactly what the file-backed service evaluates; anything
outside it raises ``SparqlSyntaxError`` loudly rather than mis-parsing.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from ..terms import IRI, KIND_IRI, KIND_LITERAL, Literal, RDF_TYPE, Term, Blank

XSD = "http://www.w3.org/2001/XMLSchema#"


class SparqlSyntaxError(ValueError):
    pass


class Var(NamedTuple):
    name: str


PatTerm = Union[Term, Var]
Pattern = tuple  # (PatTerm, PatTerm, PatTerm)


class Comparison(NamedTuple):
    op: str  # = != < <= > >=
    left: PatTerm
    right: PatTerm


class Regex(NamedTuple):
    var: Var
    pattern: str
    negated: bool = False


class StrFunc(NamedTuple):
    """``[!]CONTAINS/STRSTARTS/STRENDS(?v, "arg")`` — vectorized
    substring predicates over the variable's lexical form."""

    func: str  # contains | strstarts | strends
    var: Var
    arg: str
    negated: bool = False


class FuncComparison(NamedTuple):
    """``FUNC(?v) op operand`` where FUNC ∈ STR/LANG/DATATYPE/STRLEN —
    LANG/STR compare against a string, DATATYPE against an IRI, STRLEN
    against a number."""

    func: str  # str | lang | datatype | strlen
    var: Var
    op: str  # = != < <= > >=
    value: object  # str | float | Term


class TypeCheck(NamedTuple):
    """``[!]isIRI/isLiteral/isBlank(?v)`` — term-kind predicates."""

    func: str  # isiri | isliteral | isblank
    var: Var
    negated: bool = False


class InFilter(NamedTuple):
    """``?v [NOT] IN (term, …)`` — full term-identity membership."""

    var: Var
    terms: list
    negated: bool = False


class Bound(NamedTuple):
    """``[!]BOUND(?v)`` — true when the variable has a binding (the
    OPTIONAL-negation idiom ``FILTER(!BOUND(?x))``)."""

    var: Var
    negated: bool = False


class OrFilter(NamedTuple):
    """``c₁ && c₂ || c₃ …`` — SPARQL precedence (&& over ||): each part
    is one AND-group of conjuncts; the filter passes when any group's
    conjuncts all hold.  EXISTS/MINUS cannot appear in a branch."""

    parts: list  # list[list[Filter]]


class LangMatches(NamedTuple):
    """``[!]LANGMATCHES(LANG(?v), "range")`` — BCP-47 basic filtering:
    ``"*"`` matches any non-empty tag; otherwise the range matches the
    tag itself or any hyphen-extension of it, case-insensitively."""

    var: Var
    range: str
    negated: bool = False


class SameTerm(NamedTuple):
    """``[!]sameTerm(?a, ?b)`` — full RDF term identity (kind + value +
    lang + datatype), the M9 equality every join uses."""

    left: Var
    right: Var
    negated: bool = False


class ExistsFilter(NamedTuple):
    """``FILTER [NOT] EXISTS { patterns }`` — semi/anti-join of the
    outer bindings against the inner group's solutions on their shared
    variables (constant condition when none are shared)."""

    patterns: list
    filters: list
    negated: bool = False


class MinusBlock(NamedTuple):
    """``MINUS { patterns }`` — SPARQL MINUS: remove outer solutions
    that are compatible with an inner solution sharing ≥1 variable;
    with no shared variables nothing is removed (unlike NOT EXISTS).
    Carried in the filter list (it applies post-join like a filter)."""

    patterns: list
    filters: list


Filter = Union[
    Comparison, Regex, StrFunc, FuncComparison, TypeCheck, InFilter,
    ExistsFilter, MinusBlock, Bound, LangMatches, SameTerm, OrFilter,
]


# -- BIND expressions ----------------------------------------------------
class EVar(NamedTuple):
    name: str


class EConst(NamedTuple):
    term: Term


class EArith(NamedTuple):
    """Integer arithmetic ``left op right`` (op ∈ + - *): operands
    coerce lexical→int64 (non-integral / unparseable → unbound, the
    SPARQL expression-error-to-unbound behaviour); division is outside
    the subset (float rendering is endpoint-defined — fail loudly)."""

    op: str
    left: "Expr"
    right: "Expr"


class EFunc(NamedTuple):
    """``FUNC(args…)`` — CONCAT / STR / UCASE / LCASE / STRLEN /
    SUBSTR / REPLACE / COALESCE over expression arguments.  SUBSTR's
    start/length and REPLACE's pattern/replacement must be constants."""

    func: str
    args: list


class EIf(NamedTuple):
    """``IF(left op right, then, else)`` — the condition is one
    comparison: numeric when both sides evaluate numerically, else a
    string comparison over lexical forms.  Rows where the condition
    errors (unbound / unparseable inputs) leave the result unbound
    (the SPARQL error-propagation rule)."""

    op: str  # = != < <= > >=
    cleft: "Expr"
    cright: "Expr"
    then: "Expr"
    other: "Expr"


Expr = Union[EVar, EConst, EArith, EFunc, EIf]


class ExprComparison(NamedTuple):
    """General expression comparison in FILTER (beyond term-vs-term
    ``Comparison``): ``FILTER(ABS(?c-500) < 10)``,
    ``FILTER(UCASE(?l) = "EN")`` — evaluated with the same hybrid
    numeric/string condition machinery as ``IF()``.  Part of the
    ``Filter`` family."""

    op: str  # = != < <= > >=
    left: Expr
    right: Expr


class BindBlock(NamedTuple):
    """``BIND(expr AS ?alias)`` — evaluated over the group's joined
    bindings (after OPTIONALs attach), so the alias cannot be used in
    a triple pattern of the same group (checked at eval time)."""

    expr: Expr
    alias: str


class SubSelect(NamedTuple):
    """``{ SELECT … }`` as a group element — the inner query's
    projected variables (including aggregate aliases, which surface as
    typed literals) join with the rest of the group.  DISTINCT /
    ORDER BY / LIMIT / OFFSET / FILTER / OPTIONAL / BIND / GROUP BY /
    aggregates / HAVING are supported inside."""

    query: "SelectQuery"


class AltPath(NamedTuple):
    """``p1|p2|…`` in the predicate slot — one scan matching any of
    the forward alternative IRIs (bag-union multiplicity comes free:
    each matching triple is its own row).  ``^``-prefixed members
    (SPARQL 1.1 §18.4 PathAlternative over PathEltOrInverse, e.g.
    ``p|^q``) land in ``rev_preds`` and match INVERTED edges — the
    engine evaluates a mixed set as the union of one forward and one
    reverse scan."""

    preds: tuple  # tuple[Term, ...] — forward members
    rev_preds: tuple = ()  # tuple[Term, ...] — ^-prefixed members


class TransPath(NamedTuple):
    """``p+`` / ``p*`` / ``p?`` in the predicate slot — one-or-more
    (with ``zero``: zero-or-more; with ``max_one``: zero-or-one) hops
    along ``pred`` (set semantics per SPARQL 1.1 ArbitraryLengthPath /
    ZeroOrMorePath / ZeroOrOnePath).  The zero-length path matches a
    constant end to itself, and with both ends variable matches every
    node of the graph (any term in subject or object position) to
    itself."""

    pred: Term
    zero: bool = False
    max_one: bool = False


class NegPath(NamedTuple):
    """``!p`` / ``!(p1|^p2|…)`` in the predicate slot — SPARQL 1.1
    NegatedPropertySet with the spec's forward/reverse split
    (§18.4): the forward component matches edges whose predicate is
    not in ``preds`` (present iff ``preds`` is nonempty), the reverse
    component matches INVERTED edges whose predicate is not in
    ``rev_preds`` (iff nonempty); a mixed set is their union.  One
    scan per component."""

    preds: tuple  # tuple[Term, ...] — forward members
    rev_preds: tuple = ()  # tuple[Term, ...] — ^-prefixed members


class UnionBlock(NamedTuple):
    """``{ BGP } UNION { BGP } …`` — each branch is (patterns, filters);
    branches must bind the same variable set (checked at eval time)."""

    branches: list[tuple[list, list]]


class ValuesBlock(NamedTuple):
    """``VALUES ?v { t… }`` / ``VALUES (?a ?b) { (t t) … }`` — inline
    bindings, joined like any other group element.  UNDEF unsupported."""

    variables: list[str]
    rows: list[tuple[Term, ...]]


class OptionalBlock(NamedTuple):
    """``OPTIONAL { BGP [FILTER …] [BIND …] [OPTIONAL {…}] }`` —
    left-joined onto the required bindings; BINDs evaluate on the
    optional side before the join (aliases stay unbound on unmatched
    rows, per spec group scoping); nested OPTIONALs left-join onto
    THIS group's bindings first (LeftJoin(A, LeftJoin(B, C)))."""

    patterns: list
    filters: list
    binds: list = []
    optionals: list = []


class GraphBlock(NamedTuple):
    """``GRAPH <iri>|?g { BGP [FILTER …] }`` — scope the inner patterns
    to one named graph (constant) or bind the graph IRI per match
    (variable).  Evaluated against a quads dataset (triples + ``url``
    graph column, the ``read_graphstore`` fan-in layout).  With a
    variable graph the inner block must be plain triple patterns (no
    property paths)."""

    graph: object  # Term (IRI) | Var
    patterns: list
    filters: list


class ServiceBlock(NamedTuple):
    """``SERVICE [SILENT] <iri> { BGP [FILTER …] }`` — SPARQL 1.1
    Federated Query: the inner patterns evaluate against the dataset
    REGISTERED for the endpoint IRI
    (:func:`argo_ray.sparql.engine.register_service` — file/Dataset-
    backed; no network in this engine), then join the outer bindings
    like any group element.  SILENT + unknown endpoint degrades to
    the identity solution (spec §2.2 failure behavior)."""

    iri: str
    patterns: list
    filters: list
    silent: bool = False


class Aggregate(NamedTuple):
    """``(FUNC([DISTINCT] ?v) AS ?alias)`` in a SELECT clause.
    DISTINCT is meaningful for COUNT/SUM/AVG (distinct RDF terms of
    ?v per group) and GROUP_CONCAT (distinct lexical forms); for
    MIN/MAX/SAMPLE it is a semantic no-op and the parser drops it.
    ``separator`` applies to GROUP_CONCAT only (spec default: space)."""

    func: str  # count | sum | min | max | avg | sample | group_concat
    var: str | None  # None = COUNT(*)
    alias: str
    distinct: bool = False
    separator: str = " "


class HavingCond(NamedTuple):
    """One ``HAVING`` conjunct: ``FUNC(?v) op number`` (must match a
    SELECT aggregate) or ``?alias op number``."""

    func: str | None  # None when referencing an alias
    var: str | None
    alias: str | None
    op: str
    value: float


# an element of a group: a triple Pattern or a UnionBlock
class SelectQuery(NamedTuple):
    variables: list[str]  # [] = SELECT *
    distinct: bool
    patterns: list  # Pattern | UnionBlock
    filters: list[Filter]
    order_by: list[tuple[str, bool]]  # (var, descending)
    limit: int | None
    optionals: list[OptionalBlock] = []
    aggregates: list[Aggregate] = []
    group_by: list[str] = []
    having: list[HavingCond] = []
    offset: int = 0
    binds: list[BindBlock] = []
    from_graphs: list[str] = []  # FROM <iri> — default-graph selection
    from_named: list[str] = []  # FROM NAMED <iri> — GRAPH scope


class AskQuery(NamedTuple):
    patterns: list
    filters: list[Filter]
    optionals: list[OptionalBlock] = []
    binds: list[BindBlock] = []
    from_graphs: list[str] = []
    from_named: list[str] = []


class ConstructQuery(NamedTuple):
    template: list[Pattern]
    patterns: list
    filters: list[Filter]
    limit: int | None
    optionals: list[OptionalBlock] = []
    binds: list[BindBlock] = []
    from_graphs: list[str] = []
    from_named: list[str] = []


class DescribeQuery(NamedTuple):
    """``DESCRIBE <iri>+`` or ``DESCRIBE ?v WHERE { … }`` —
    implementation-defined per the SPARQL spec; here: all triples whose
    subject is one of the IRIs / the variable's bindings (the common
    concise-bounded-description core, minus bnode closure)."""

    terms: list[Term]
    var: str | None = None
    patterns: list = ()
    filters: list = ()
    from_graphs: list = ()
    from_named: list = ()


class UpdateOp(NamedTuple):
    action: str  # "insert" | "delete"
    triples: list[tuple[Term, Term, Term]]


class GraphMgmtOp(NamedTuple):
    """SPARQL 1.1 Update graph management (§3.2): ``CLEAR/DROP/CREATE
    [SILENT] GRAPH <g>`` (CLEAR/DROP also take ``DEFAULT``/``NAMED``/
    ``ALL``) and ``COPY/MOVE/ADD [SILENT] src TO dst``.  ``src``/
    ``dst`` hold the graph IRI, or the markers ``"DEFAULT"`` /
    ``"NAMED"`` / ``"ALL"``."""

    verb: str  # clear | drop | create | copy | move | add
    src: str | None
    dst: str | None = None
    silent: bool = False


class ModifyOp(NamedTuple):
    """Pattern-based update: ``DELETE WHERE { p }`` (delete template =
    the patterns), ``DELETE { t } [INSERT { t }] WHERE { p }``,
    ``INSERT { t } WHERE { p }``.  WHERE is a plain BGP (no
    FILTER/OPTIONAL/BIND — explicit error); the WHERE solutions are
    computed ONCE, then the delete template instantiates before the
    insert template (SPARQL 1.1 Update modify order)."""

    delete_tmpl: list | None  # triple patterns (Terms and Vars)
    insert_tmpl: list | None
    where: list


_TOKEN = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<iri><[^<>\s]*>)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<langtag>@[A-Za-z][A-Za-z0-9-]*)
    | (?P<dtmark>\^\^)
    | (?P<var>[?$][A-Za-z_][A-Za-z_0-9]*)
    | (?P<blank>_:[A-Za-z_0-9][A-Za-z_0-9.-]*)
    | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+))
    | (?P<pname>[A-Za-z_][A-Za-z_0-9.-]*?:[A-Za-z_0-9][A-Za-z_0-9.-]*|[A-Za-z_][A-Za-z_0-9.-]*?:)
    | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>!=|<=|>=|&&|\|\||[=<>!*(){};,./^|+?-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SparqlSyntaxError(f"unexpected character at {pos}: {text[pos:pos+20]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group()))
    out.append(("eof", ""))
    return out


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _unescape(s: str) -> str:
    return re.sub(r"\\(.)", lambda m: _ESCAPES.get(m.group(1), m.group(1)), s)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}
        self._gensym = 0

    def _fresh_var(self) -> Var:
        # '$' cannot appear in a user-typed variable name (see _TOKEN),
        # so path-internal variables can never collide or be selected
        self._gensym += 1
        return Var(f"_path${self._gensym}")

    # -- token primitives ------------------------------------------------
    def peek(self) -> tuple[str, str]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, value: str | None = None) -> str:
        k, v = self.next()
        if k != kind or (value is not None and v.lower() != value.lower()):
            raise SparqlSyntaxError(f"expected {value or kind}, got {v!r}")
        return v

    def at_word(self, *words: str) -> bool:
        k, v = self.peek()
        return k == "word" and v.lower() in words

    def eat_word(self, *words: str) -> bool:
        if self.at_word(*words):
            self.next()
            return True
        return False

    # -- prologue --------------------------------------------------------
    def parse_prologue(self):
        while self.eat_word("prefix"):
            k, v = self.next()
            if k != "pname" or not v.endswith(":"):
                raise SparqlSyntaxError(f"bad PREFIX name {v!r}")
            iri = self.expect("iri")
            self.prefixes[v[:-1]] = iri[1:-1]

    # -- terms -----------------------------------------------------------
    def _expand_pname(self, pname: str) -> str:
        prefix, _, local = pname.partition(":")
        if prefix not in self.prefixes:
            raise SparqlSyntaxError(f"unknown prefix {prefix!r}:")
        return self.prefixes[prefix] + local

    def parse_term(self, allow_var: bool = True, verb: bool = False) -> PatTerm:
        k, v = self.next()
        if k == "var":
            if not allow_var:
                raise SparqlSyntaxError("variable not allowed in data block")
            return Var(v[1:])
        if k == "iri":
            return IRI(v[1:-1])
        if k == "pname":
            return IRI(self._expand_pname(v))
        if k == "blank":
            return Blank(v[2:])
        if k == "word" and v == "a" and verb:
            return IRI(RDF_TYPE)
        if k == "word" and v.lower() in ("true", "false"):
            return Literal(v.lower(), datatype=XSD + "boolean")
        if k == "number":
            dt = XSD + ("decimal" if "." in v else "integer")
            return Literal(v, datatype=dt)
        if k == "string":
            value = _unescape(v[1:-1])
            nk, nv = self.peek()
            if nk == "langtag":
                self.next()
                return Literal(value, lang=nv[1:])
            if nk == "dtmark":
                self.next()
                dk, dv = self.next()
                if dk == "iri":
                    return Literal(value, datatype=dv[1:-1])
                if dk == "pname":
                    return Literal(value, datatype=self._expand_pname(dv))
                raise SparqlSyntaxError(f"bad datatype {dv!r}")
            return Literal(value)
        raise SparqlSyntaxError(f"unexpected term {v!r}")

    # -- triples block ---------------------------------------------------
    def parse_triples_block(self, allow_var: bool = True) -> list[Pattern]:
        """TriplesSameSubject (with ';' / ',' abbreviations), '.'-chained."""
        out: list[Pattern] = []
        while True:
            k, v = self.peek()
            if k == "op" and v in ("}", "{"):
                break
            if allow_var and k == "word" and v.lower() in (
                "filter", "optional", "values", "minus", "bind", "graph",
                "service",
            ):
                break
            subj = self.parse_term(allow_var)
            while True:
                # verb or sequence path [^]p1/[^]p2/… (desugared to a
                # chain of fresh intermediate variables per SPARQL 1.1;
                # '^' inverts one step: ^p matches object→subject)
                def step():
                    inv = self.peek() == ("op", "^")
                    if inv:
                        self.next()
                    if self.peek() == ("op", "!"):
                        # negated property set: !p / !(p1|^p2|…)
                        self.next()

                        def member():
                            rev = self.peek() == ("op", "^")
                            if rev:
                                self.next()
                            return rev, self.parse_term(allow_var, verb=True)

                        members = []
                        if self.peek() == ("op", "("):
                            self.next()
                            members.append(member())
                            while self.peek() == ("op", "|"):
                                self.next()
                                members.append(member())
                            self.expect("op", ")")
                        else:
                            members.append(member())
                        if not all(isinstance(p, Term) for _, p in members):
                            raise SparqlSyntaxError(
                                "negated property set members must be IRIs"
                            )
                        fwd = tuple(p for rev, p in members if not rev)
                        bwd = tuple(p for rev, p in members if rev)
                        if inv:
                            # ^(!(p|^q)) ≡ !(^p|q): outer inverse swaps
                            # the component sets
                            fwd, bwd = bwd, fwd
                        return (NegPath(fwd, bwd), False)
                    pred = self.parse_term(allow_var, verb=True)
                    if self.peek() == ("op", "|"):
                        # alternatives: p1|p2|… where each member may be
                        # ^-prefixed (§18.4: '^' binds tighter than '|',
                        # so a leading '^' applies to the FIRST member
                        # only: ^p|q ≡ (^p)|q)
                        members = [(inv, pred)]
                        while self.peek() == ("op", "|"):
                            self.next()
                            rev = self.peek() == ("op", "^")
                            if rev:
                                self.next()
                            members.append(
                                (rev, self.parse_term(allow_var, verb=True))
                            )
                        if not all(isinstance(p, Term) for _, p in members):
                            raise SparqlSyntaxError(
                                "path alternatives must be IRIs "
                                "(optionally ^-prefixed)"
                            )
                        pred = AltPath(
                            tuple(p for rev, p in members if not rev),
                            tuple(p for rev, p in members if rev),
                        )
                        inv = False  # absorbed into the member split
                    if self.peek() in (("op", "+"), ("op", "*"), ("op", "?")):
                        _, mark = self.next()
                        if inv or not isinstance(pred, Term):
                            raise SparqlSyntaxError(
                                f"{mark!r} applies to a single forward IRI step"
                            )
                        pred = TransPath(
                            pred, zero=(mark == "*"), max_one=(mark == "?")
                        )
                    return (pred, inv)

                path = [step()]
                while self.peek() == ("op", "/"):
                    self.next()
                    path.append(step())
                if not allow_var and (
                    len(path) > 1
                    or path[0][1]
                    or isinstance(path[0][0], (AltPath, TransPath, NegPath))
                ):
                    raise SparqlSyntaxError("property paths not allowed in data blocks")
                while True:
                    obj = self.parse_term(allow_var)
                    cur = subj
                    for pred, inv in path[:-1]:
                        nxt = self._fresh_var()
                        out.append((nxt, pred, cur) if inv else (cur, pred, nxt))
                        cur = nxt
                    pred, inv = path[-1]
                    out.append((obj, pred, cur) if inv else (cur, pred, obj))
                    if self.peek() == ("op", ","):
                        self.next()
                        continue
                    break
                if self.peek() == ("op", ";"):
                    self.next()
                    # allow trailing ';' before '.' or '}'
                    if self.peek() in (("op", "."), ("op", "}")):
                        break
                    continue
                break
            if self.peek() == ("op", "."):
                self.next()
                continue
            break
        return out

    # -- filters ---------------------------------------------------------
    def _paren_var(self) -> Var:
        self.expect("op", "(")
        var = self.parse_term()
        if not isinstance(var, Var):
            raise SparqlSyntaxError("filter function needs a variable argument")
        return var

    _CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

    # -- BIND expressions ------------------------------------------------
    _EXPR_FUNCS = (
        "concat", "str", "ucase", "lcase", "strlen", "substr", "replace",
        "coalesce", "strbefore", "strafter", "iri", "uri", "strdt",
        "strlang", "abs", "round", "ceil", "floor", "md5", "sha1",
        "sha256", "lang", "datatype",
    )

    def parse_expression(self) -> Expr:
        """Additive → multiplicative → primary (var | constant |
        FUNC(args…) | parenthesized)."""
        left = self._mul_expr()
        while True:
            k, v = self.peek()
            if (k, v) in (("op", "+"), ("op", "-")):
                op = self.next()[1]
                left = EArith(op, left, self._mul_expr())
                continue
            if k == "number" and v[0] in "+-":
                # SPARQL additive grammar: a signed numeric literal in
                # additive position is an implied operator (`?c-1`
                # tokenizes as var + number "-1")
                self.next()
                right = EConst(
                    Literal(
                        v[1:],
                        datatype=XSD + ("decimal" if "." in v else "integer"),
                    )
                )
                left = EArith(v[0], left, right)
                continue
            return left

    def _mul_expr(self) -> Expr:
        left = self._primary_expr()
        while self.peek() == ("op", "*"):
            self.next()
            left = EArith("*", left, self._primary_expr())
        if self.peek() == ("op", "/"):
            raise SparqlSyntaxError(
                "division in BIND not supported (float rendering is "
                "endpoint-defined)"
            )
        return left

    def _primary_expr(self) -> Expr:
        if self.peek() == ("op", "("):
            self.next()
            e = self.parse_expression()
            self.expect("op", ")")
            return e
        if self.at_word("if"):
            self.next()
            self.expect("op", "(")
            if self.at_word(*self._BOOL_ATOM_WORDS) or (
                self.peek() == ("op", "!")
                and self.toks[self.i + 1][0] == "word"
                and self.toks[self.i + 1][1].lower() in self._BOOL_ATOM_WORDS
            ):
                # boolean-function condition: IF(CONTAINS(?t,"x"), …) —
                # reuses the FILTER atom grammar and mask evaluator
                flt = self._parse_filter_atom()
                self.expect("op", ",")
                then = self.parse_expression()
                self.expect("op", ",")
                other = self.parse_expression()
                self.expect("op", ")")
                return EIf("__bool__", flt, None, then, other)
            cleft = self.parse_expression()
            k, op = self.next()
            if k != "op" or op not in ("=", "!=", "<", "<=", ">", ">="):
                raise SparqlSyntaxError(
                    "IF condition must be a single 'expr OP expr' comparison"
                )
            cright = self.parse_expression()
            self.expect("op", ",")
            then = self.parse_expression()
            self.expect("op", ",")
            other = self.parse_expression()
            self.expect("op", ")")
            return EIf(op, cleft, cright, then, other)
        if self.at_word(*self._EXPR_FUNCS):
            func = self.next()[1].lower()
            self.expect("op", "(")
            args = []
            while self.peek() != ("op", ")"):
                args.append(self.parse_expression())
                if self.peek() == ("op", ","):
                    self.next()
            self.expect("op", ")")
            _ARITY = {
                "str": 1, "ucase": 1, "lcase": 1, "strlen": 1, "abs": 1,
                "round": 1, "ceil": 1, "floor": 1, "md5": 1, "sha1": 1,
                "sha256": 1, "lang": 1, "datatype": 1,
            }
            if func in _ARITY and len(args) != _ARITY[func]:
                raise SparqlSyntaxError(f"{func.upper()}() takes 1 argument")
            if func in ("concat", "coalesce") and len(args) < 2:
                raise SparqlSyntaxError(f"{func.upper()}() needs ≥2 arguments")
            if func == "substr" and len(args) not in (2, 3):
                raise SparqlSyntaxError("SUBSTR(e, start[, length])")
            if func == "replace" and len(args) != 3:
                raise SparqlSyntaxError('REPLACE(e, "pattern", "replacement")')
            if func in ("strbefore", "strafter") and len(args) != 2:
                raise SparqlSyntaxError(f'{func.upper()}(e, "separator")')
            if func in ("iri", "uri"):
                func = "iri"
                if len(args) != 1:
                    raise SparqlSyntaxError("IRI() takes 1 argument")
            if func in ("strdt", "strlang"):
                if len(args) != 2:
                    raise SparqlSyntaxError(f"{func.upper()}(e, tag)")
                tag = args[1]
                if func == "strdt" and not (
                    isinstance(tag, EConst) and tag.term.kind == KIND_IRI
                ):
                    raise SparqlSyntaxError("STRDT datatype must be an IRI")
                if func == "strlang" and not (
                    isinstance(tag, EConst)
                    and tag.term.kind == KIND_LITERAL
                    and not tag.term.lang
                    and not tag.term.datatype
                ):
                    raise SparqlSyntaxError("STRLANG tag must be a plain string")
            return EFunc(func, args)
        t = self.parse_term()
        return EVar(t.name) if isinstance(t, Var) else EConst(t)

    def parse_bind(self) -> BindBlock:
        self.expect("op", "(")
        expr = self.parse_expression()
        self.expect("word", "as")
        k, v = self.next()
        if k != "var":
            raise SparqlSyntaxError("BIND needs 'AS ?variable'")
        self.expect("op", ")")
        return BindBlock(expr, v[1:])

    def parse_filter(self) -> list[Filter]:
        """``FILTER ( expr && expr … )`` — each conjunct one of:
        ``term op term`` | ``[!]REGEX(?v, "pat")`` |
        ``[!]CONTAINS/STRSTARTS/STRENDS(?v, "s")`` |
        ``STR/LANG/DATATYPE/STRLEN(?v) op operand`` |
        ``[!]isIRI/isLiteral/isBlank(?v)`` | ``?v [NOT] IN (term, …)``,
        or ``FILTER [NOT] EXISTS { group }`` (not &&-combinable)."""
        if self.at_word("exists") or (
            self.at_word("not") and self.toks[self.i + 1][1].lower() == "exists"
        ):
            negated = self.eat_word("not")
            self.expect("word", "exists")
            pats, flts = self.parse_simple_group()
            return [ExistsFilter(pats, flts, negated)]
        out: list[Filter] = []
        groups: list[list[Filter]] = []  # ||-separated AND-groups
        paren = self.peek() == ("op", "(")
        if paren:
            self.next()
        while True:
            out.append(self._parse_filter_atom())
            if self.peek() == ("op", "&&"):
                self.next()
                continue
            if self.peek() == ("op", "||"):
                # SPARQL precedence: && binds tighter than || — close the
                # current AND-group and start another
                self.next()
                groups.append(out)
                out = []
                continue
            break
        if paren:
            self.expect("op", ")")
        if groups:
            groups.append(out)
            if any(not g for g in groups):
                raise SparqlSyntaxError("empty '||' branch in FILTER")
            return [OrFilter(groups)]
        return out

    _BOOL_ATOM_WORDS = (
        "regex", "contains", "strstarts", "strends", "bound",
        "langmatches", "sameterm", "isiri", "isuri", "isliteral",
        "isblank",
    )

    def _parse_filter_atom(self) -> Filter:
        """One FILTER conjunct (also reused as an ``IF()`` boolean
        condition)."""
        negated = False
        if self.peek() == ("op", "!"):
            self.next()
            negated = True
        if self.at_word("regex"):
            self.next()
            var = self._paren_var()
            self.expect("op", ",")
            pk, pv = self.next()
            if pk != "string":
                raise SparqlSyntaxError("REGEX needs a string pattern")
            self.expect("op", ")")
            return Regex(var, _unescape(pv[1:-1]), negated)
        if self.at_word("contains", "strstarts", "strends"):
            func = self.next()[1].lower()
            var = self._paren_var()
            self.expect("op", ",")
            ak, av = self.next()
            if ak != "string":
                raise SparqlSyntaxError(f"{func.upper()} needs a string argument")
            self.expect("op", ")")
            return StrFunc(func, var, _unescape(av[1:-1]), negated)
        if self.at_word("bound"):
            self.next()
            var = self._paren_var()
            self.expect("op", ")")
            return Bound(var, negated)
        if self.at_word("langmatches"):
            self.next()
            self.expect("op", "(")
            self.expect("word", "lang")
            var = self._paren_var()
            self.expect("op", ")")
            self.expect("op", ",")
            rk, rv = self.next()
            if rk == "string":
                rng = _unescape(rv[1:-1])
            elif (rk, rv) == ("op", "*"):
                rng = "*"
            else:
                raise SparqlSyntaxError(
                    'LANGMATCHES needs a string range or "*"'
                )
            self.expect("op", ")")
            return LangMatches(var, rng, negated)
        if self.at_word("sameterm"):
            self.next()
            left = self._paren_var()
            self.expect("op", ",")
            right = self.parse_term()
            if not isinstance(right, Var):
                raise SparqlSyntaxError("sameTerm needs two variables")
            self.expect("op", ")")
            return SameTerm(left, right, negated)
        if self.at_word("isiri", "isuri", "isliteral", "isblank"):
            func = self.next()[1].lower()
            if func == "isuri":
                func = "isiri"
            var = self._paren_var()
            self.expect("op", ")")
            return TypeCheck(func, var, negated)
        if self.at_word("str", "lang", "datatype", "strlen"):
            if negated:
                raise SparqlSyntaxError("'!' not supported before comparisons")
            func = self.next()[1].lower()
            var = self._paren_var()
            self.expect("op", ")")
            k, op = self.next()
            if k != "op" or op not in self._CMP_OPS:
                raise SparqlSyntaxError(f"bad operator after {func.upper()}(): {op!r}")
            if func == "strlen":
                value: object = float(self.expect("number"))
            elif func == "datatype":
                t = self.parse_term(allow_var=False)
                if t.kind != 0:
                    raise SparqlSyntaxError("DATATYPE() compares against an IRI")
                value = t.value
            else:
                vk, vv = self.next()
                if vk != "string":
                    raise SparqlSyntaxError(
                        f"{func.upper()}() compares against a string"
                    )
                value = _unescape(vv[1:-1])
            if func != "strlen" and op not in ("=", "!="):
                raise SparqlSyntaxError(
                    f"{func.upper()}() supports only =/!=, got {op!r}"
                )
            return FuncComparison(func, var, op, value)
        if negated:
            raise SparqlSyntaxError(
                "'!' only supported before REGEX/CONTAINS/STRSTARTS/"
                "STRENDS/BOUND/isIRI/isLiteral/isBlank"
            )
        if self.at_word(*self._EXPR_FUNCS) and self.toks[self.i + 1] == ("op", "("):
            # expression comparison: FILTER(UCASE(?l) = "EN") etc.
            left_e = self.parse_expression()
            k, op = self.next()
            if k != "op" or op not in self._CMP_OPS:
                raise SparqlSyntaxError(f"unsupported filter operator {op!r}")
            return ExprComparison(op, left_e, self.parse_expression())
        start = self.i
        left = self.parse_term()
        if isinstance(left, Var) and (
            self.peek() in (("op", "+"), ("op", "-"), ("op", "*"))
            or (self.peek()[0] == "number" and self.peek()[1][0] in "+-")
        ):
            # arithmetic filter (FILTER(?c - 500 > 10)): backtrack and
            # re-parse the whole side as an expression
            self.i = start
            left_e = self.parse_expression()
            k, op = self.next()
            if k != "op" or op not in self._CMP_OPS:
                raise SparqlSyntaxError(f"unsupported filter operator {op!r}")
            return ExprComparison(op, left_e, self.parse_expression())
        if isinstance(left, Var) and (
            self.at_word("in")
            or (self.at_word("not") and self.toks[self.i + 1][1].lower() == "in")
        ):
            neg = self.eat_word("not")
            self.expect("word", "in")
            self.expect("op", "(")
            terms = []
            while self.peek() != ("op", ")"):
                terms.append(self.parse_term(allow_var=False))
                if self.peek() == ("op", ","):
                    self.next()
            self.expect("op", ")")
            if not terms:
                raise SparqlSyntaxError("IN () needs at least one term")
            return InFilter(left, terms, neg)
        k, op = self.next()
        if k != "op" or op not in self._CMP_OPS:
            raise SparqlSyntaxError(f"unsupported filter operator {op!r}")
        right = self.parse_term()
        return Comparison(op, left, right)

    def parse_simple_group(self) -> tuple[list[Pattern], list[Filter]]:
        """``{ TriplesBlock | FILTER … }`` — no nesting (used for UNION
        branches and OPTIONAL bodies)."""
        self.expect("op", "{")
        patterns: list[Pattern] = []
        filters: list[Filter] = []
        while self.peek() != ("op", "}"):
            if self.eat_word("filter"):
                filters.extend(self.parse_filter())
            elif self.at_word("optional") or self.peek() == ("op", "{"):
                raise SparqlSyntaxError(
                    "nested OPTIONAL/UNION groups are not supported"
                )
            elif self.at_word("minus", "values", "bind"):
                raise SparqlSyntaxError(
                    "MINUS/VALUES/BIND inside OPTIONAL/UNION/EXISTS groups "
                    "are not supported"
                )
            else:
                patterns.extend(self.parse_triples_block())
        self.expect("op", "}")
        return patterns, filters

    def parse_optional_group(self):
        """``{ TriplesBlock | FILTER … | BIND … | OPTIONAL {…} }`` for
        OPTIONAL bodies — ``parse_simple_group`` plus BIND and nested
        OPTIONAL (r4 s4; UNION and MINUS/VALUES stay unsupported
        here)."""
        self.expect("op", "{")
        patterns: list[Pattern] = []
        filters: list[Filter] = []
        binds: list[BindBlock] = []
        optionals: list[OptionalBlock] = []
        while self.peek() != ("op", "}"):
            if self.eat_word("filter"):
                filters.extend(self.parse_filter())
            elif self.eat_word("bind"):
                binds.append(self.parse_bind())
            elif self.eat_word("optional"):
                p, f, b, o = self.parse_optional_group()
                optionals.append(OptionalBlock(p, f, b, o))
            elif self.peek() == ("op", "{"):
                raise SparqlSyntaxError(
                    "nested UNION groups are not supported"
                )
            elif self.at_word("minus", "values"):
                raise SparqlSyntaxError(
                    "MINUS/VALUES inside OPTIONAL groups are not supported"
                )
            else:
                patterns.extend(self.parse_triples_block())
        self.expect("op", "}")
        return patterns, filters, binds, optionals

    def parse_values(self) -> ValuesBlock:
        """``VALUES ?v { t… }`` or ``VALUES (?a ?b) { (t t) … }``."""
        variables: list[str] = []
        if self.peek() == ("op", "("):
            self.next()
            while self.peek()[0] == "var":
                variables.append(self.next()[1][1:])
            self.expect("op", ")")
            parenthesized = True
        else:
            k, v = self.next()
            if k != "var":
                raise SparqlSyntaxError("VALUES needs variables")
            variables.append(v[1:])
            parenthesized = False
        if not variables:
            raise SparqlSyntaxError("VALUES needs variables")
        self.expect("op", "{")
        rows: list[tuple[Term, ...]] = []
        while self.peek() != ("op", "}"):
            if parenthesized:
                self.expect("op", "(")
                row = tuple(
                    self.parse_term(allow_var=False) for _ in variables
                )
                self.expect("op", ")")
            else:
                row = (self.parse_term(allow_var=False),)
            rows.append(row)
        self.expect("op", "}")
        if not rows:
            raise SparqlSyntaxError("empty VALUES block")
        return ValuesBlock(variables, rows)

    def parse_group(
        self,
    ) -> tuple[list, list[Filter], list[OptionalBlock], list[BindBlock]]:
        self.expect("op", "{")
        patterns: list = []
        filters: list[Filter] = []
        optionals: list[OptionalBlock] = []
        binds: list[BindBlock] = []
        while self.peek() != ("op", "}"):
            if self.eat_word("filter"):
                filters.extend(self.parse_filter())
            elif self.eat_word("bind"):
                binds.append(self.parse_bind())
            elif self.eat_word("optional"):
                p, f, ob, oo = self.parse_optional_group()
                optionals.append(OptionalBlock(p, f, ob, oo))
            elif self.eat_word("minus"):
                p, f = self.parse_simple_group()
                filters.append(MinusBlock(p, f))
            elif self.eat_word("values"):
                patterns.append(self.parse_values())
            elif self.eat_word("service"):
                silent = bool(self.eat_word("silent"))
                svc = self.parse_term()
                if not (isinstance(svc, Term) and svc.kind == KIND_IRI):
                    raise SparqlSyntaxError(
                        "SERVICE needs a constant endpoint IRI"
                    )
                p, f = self.parse_simple_group()
                patterns.append(ServiceBlock(svc.value, p, f, silent))
            elif self.eat_word("graph"):
                g = self.parse_term()
                if not (isinstance(g, Var) or (
                    isinstance(g, Term) and g.kind == KIND_IRI
                )):
                    raise SparqlSyntaxError("GRAPH needs an IRI or a variable")
                p, f = self.parse_simple_group()
                if isinstance(g, Var):
                    for pat in p:
                        if not all(
                            isinstance(el, (Term, Var)) for el in pat
                        ) or any(
                            isinstance(el, Var) and "$" in el.name for el in pat
                        ):
                            raise SparqlSyntaxError(
                                "property paths not allowed inside GRAPH ?var"
                            )
                patterns.append(GraphBlock(g, p, f))
            elif self.peek() == ("op", "{") and (
                self.toks[self.i + 1][0] == "word"
                and self.toks[self.i + 1][1].lower() == "select"
            ):
                self.next()  # {
                self.next()  # select
                sub = _parse_select(self)
                self.expect("op", "}")
                if (sub.limit is not None or sub.offset) and not sub.order_by:
                    raise SparqlSyntaxError(
                        "LIMIT/OFFSET in a subquery needs ORDER BY "
                        "(deterministic slice)"
                    )
                patterns.append(SubSelect(sub))
            elif self.peek() == ("op", "{"):
                branches = [self.parse_simple_group()]
                while self.eat_word("union"):
                    branches.append(self.parse_simple_group())
                if len(branches) < 2:
                    raise SparqlSyntaxError("braced group without UNION")
                patterns.append(UnionBlock(branches))
            else:
                patterns.extend(self.parse_triples_block())
            if self.peek() == ("op", "."):  # separators between group elements
                self.next()
        self.expect("op", "}")
        return patterns, filters, optionals, binds

    # -- solution modifiers ----------------------------------------------
    def parse_modifiers(self) -> tuple[list[tuple[str, bool]], int | None, int]:
        order: list[tuple[str, bool]] = []
        limit: int | None = None
        if self.eat_word("order"):
            self.expect("word", "by")

            def sort_key() -> str:
                """?var or FUNC([DISTINCT] ?v / *) — aggregate keys are
                encoded "func(v)" / "func(*)" and resolved against the
                SELECT aggregates at eval time."""
                if self.at_word("count", "sum", "min", "max", "avg"):
                    func = self.next()[1].lower()
                    self.expect("op", "(")
                    self.eat_word("distinct")
                    if self.peek() == ("op", "*"):
                        self.next()
                        inner = "*"
                    else:
                        t = self.parse_term()
                        if not isinstance(t, Var):
                            raise SparqlSyntaxError(
                                "ORDER BY aggregate needs a variable"
                            )
                        inner = t.name
                    self.expect("op", ")")
                    return f"{func}({inner})"
                t = self.parse_term()
                if not isinstance(t, Var):
                    raise SparqlSyntaxError("ORDER BY needs variables")
                return t.name

            while True:
                k, v = self.peek()
                if k == "word" and v.lower() in ("asc", "desc"):
                    desc = v.lower() == "desc"
                    self.next()
                    self.expect("op", "(")
                    name = sort_key()
                    self.expect("op", ")")
                elif k == "var" or (
                    k == "word"
                    and v.lower() in ("count", "sum", "min", "max", "avg")
                ):
                    desc = False
                    name = sort_key()
                else:
                    break
                order.append((name, desc))
        # LIMIT/OFFSET accepted in either order (SPARQL 1.1 grammar)
        offset = 0
        for _ in range(2):
            if self.eat_word("limit"):
                raw = self.expect("number")
                try:
                    limit = int(raw)
                except ValueError:
                    raise SparqlSyntaxError(f"LIMIT needs an integer, got {raw!r}")
            elif self.eat_word("offset"):
                raw = self.expect("number")
                try:
                    offset = int(raw)
                except ValueError:
                    raise SparqlSyntaxError(f"OFFSET needs an integer, got {raw!r}")
        return order, limit, offset


def _parse_select(p: _Parser) -> SelectQuery:
    """Everything after the ``SELECT`` keyword up to (not including)
    the closing delimiter — shared by top-level queries (which then
    expect eof) and subqueries (which expect ``}``)."""
    distinct = p.eat_word("distinct")
    p.eat_word("reduced")
    variables: list[str] = []
    aggregates: list[Aggregate] = []
    select_binds: list[BindBlock] = []  # (expr AS ?alias) projections
    aliases: list[str] = []  # every AS ?alias of the clause

    def new_alias(name: str) -> str:
        # SPARQL 1.1 §18.2.4.1: an AS variable must not already be bound
        if name in variables or name in aliases:
            raise SparqlSyntaxError(f"?{name} is already projected")
        aliases.append(name)
        return name

    if p.peek() == ("op", "*"):
        p.next()
    else:
        _AGG_FUNCS = (
            "count", "sum", "min", "max", "avg", "sample", "group_concat",
        )
        while True:
            if p.peek()[0] == "var":
                name = p.next()[1][1:]
                if name in aliases:
                    raise SparqlSyntaxError(f"?{name} is already projected")
                variables.append(name)
            elif (
                p.peek() == ("op", "(")
                and p.toks[p.i + 1][1].lower() not in _AGG_FUNCS
            ):
                # (expr AS ?alias) projection — desugared to a BIND
                # appended after the group's own BINDs
                p.next()
                expr = p.parse_expression()
                p.expect("word", "as")
                k, v = p.next()
                if k != "var":
                    raise SparqlSyntaxError("AS needs a variable alias")
                p.expect("op", ")")
                select_binds.append(BindBlock(expr, new_alias(v[1:])))
                variables.append(v[1:])
            elif p.peek() == ("op", "(") and p.toks[p.i + 1][1].lower() in _AGG_FUNCS:
                p.next()  # (
                func = p.next()[1].lower()
                p.expect("op", "(")
                agg_distinct = p.eat_word("distinct")
                if func in ("min", "max", "sample"):
                    agg_distinct = False  # DISTINCT is a no-op there
                if p.peek() == ("op", "*"):
                    p.next()
                    if func != "count":
                        raise SparqlSyntaxError(f"{func.upper()}(*) not allowed")
                    # COUNT(DISTINCT *) supported (r4 s4): distinct
                    # complete solutions, engine._aggregate_query
                    var = None
                else:
                    t = p.parse_term()
                    if not isinstance(t, Var):
                        raise SparqlSyntaxError("aggregate needs a variable")
                    var = t.name
                separator = " "  # GROUP_CONCAT spec default
                if func == "group_concat" and p.peek() == ("op", ";"):
                    p.next()
                    p.expect("word", "separator")
                    p.expect("op", "=")
                    sk, svv = p.next()
                    if sk != "string":
                        raise SparqlSyntaxError("SEPARATOR needs a string")
                    separator = _unescape(svv[1:-1])
                p.expect("op", ")")
                p.expect("word", "as")
                k, v = p.next()
                if k != "var":
                    raise SparqlSyntaxError("AS needs a variable alias")
                p.expect("op", ")")
                aggregates.append(
                    Aggregate(func, var, new_alias(v[1:]), agg_distinct, separator)
                )
            else:
                break
        if not variables and not aggregates:
            raise SparqlSyntaxError("SELECT needs variables or *")
    from_graphs, from_named = _parse_dataset_clause(p)
    p.eat_word("where")
    patterns, filters, optionals, binds = p.parse_group()
    if select_binds:
        if aggregates:
            raise SparqlSyntaxError(
                "(expr AS ?alias) projections cannot be combined with "
                "aggregates"
            )
        binds = list(binds) + select_binds
    group_by: list[str] = []
    if p.eat_word("group"):
        p.expect("word", "by")
        while p.peek()[0] == "var":
            key = p.next()[1][1:]
            if key not in group_by:  # GROUP BY ?s ?s groups once
                group_by.append(key)
        if not group_by:
            raise SparqlSyntaxError("GROUP BY needs variables")
        for key in group_by:
            if key in aliases:
                raise SparqlSyntaxError(f"?{key} is both grouped and an AS alias")
        if not (variables or aggregates):  # SPARQL 1.1 §18.2.4.1
            raise SparqlSyntaxError("SELECT * cannot be used with GROUP BY")
    if aggregates and variables and not set(variables) <= set(group_by):
        raise SparqlSyntaxError(
            "projected plain variables must appear in GROUP BY"
        )
    having: list[HavingCond] = []
    if p.eat_word("having"):
        if not aggregates:
            raise SparqlSyntaxError("HAVING requires aggregates")
        p.expect("op", "(")
        while True:
            if p.peek()[0] == "var":
                alias = p.next()[1][1:]
                func = var = None
            elif p.at_word("count", "sum", "min", "max", "avg"):
                func = p.next()[1].lower()
                p.expect("op", "(")
                if p.peek() == ("op", "*"):
                    p.next()
                    var = None
                else:
                    t = p.parse_term()
                    if not isinstance(t, Var):
                        raise SparqlSyntaxError("HAVING aggregate needs a variable")
                    var = t.name
                p.expect("op", ")")
                alias = None
            else:
                raise SparqlSyntaxError(
                    f"HAVING expects ?alias or FUNC(?v), got {p.peek()[1]!r}"
                )
            k, op = p.next()
            if k != "op" or op not in ("=", "!=", "<", "<=", ">", ">="):
                raise SparqlSyntaxError(f"bad HAVING operator {op!r}")
            nk, nv = p.next()
            if nk != "number":
                raise SparqlSyntaxError("HAVING compares against a number")
            having.append(HavingCond(func, var, alias, op, float(nv)))
            if p.peek() == ("op", "&&"):
                p.next()
                continue
            break
        p.expect("op", ")")
    order, limit, offset = p.parse_modifiers()
    return SelectQuery(
        variables, distinct, patterns, filters, order, limit, optionals,
        aggregates, group_by, having, offset, binds, from_graphs,
        from_named,
    )



def _parse_dataset_clause(p: _Parser) -> tuple[list[str], list[str]]:
    """``FROM <iri>`` / ``FROM NAMED <iri>`` repetitions."""
    from_graphs: list[str] = []
    from_named: list[str] = []
    while p.at_word("from"):
        p.next()
        named = p.eat_word("named")
        t = p.parse_term(allow_var=False)
        if t.kind != 0:
            raise SparqlSyntaxError("FROM needs an IRI")
        (from_named if named else from_graphs).append(t.value)
    return from_graphs, from_named


def parse_query(text: str) -> SelectQuery | AskQuery | ConstructQuery:
    p = _Parser(text)
    p.parse_prologue()
    if p.eat_word("select"):
        q = _parse_select(p)
        p.expect("eof")
        return q
    if p.eat_word("ask"):
        fg, fn = _parse_dataset_clause(p)
        p.eat_word("where")
        patterns, filters, optionals, binds = p.parse_group()
        p.expect("eof")
        return AskQuery(patterns, filters, optionals, binds, fg, fn)
    if p.eat_word("construct"):
        fg, fn = _parse_dataset_clause(p)
        if p.at_word("where"):
            # CONSTRUCT WHERE { … } shorthand: template = the pattern
            # block (plain triples only per the spec)
            p.next()
            p.expect("op", "{")
            patterns = p.parse_triples_block()
            p.expect("op", "}")
            for pat in patterns:
                if not all(isinstance(el, (Term, Var)) for el in pat) or any(
                    isinstance(el, Var) and "$" in el.name for el in pat
                ):
                    raise SparqlSyntaxError(
                        "property paths not allowed in CONSTRUCT WHERE"
                    )
            _, limit, offset = p.parse_modifiers()
            if offset:
                raise SparqlSyntaxError("OFFSET on CONSTRUCT not supported")
            p.expect("eof")
            return ConstructQuery(patterns, patterns, [], limit, [], [], fg, fn)
        p.expect("op", "{")
        template = p.parse_triples_block()
        p.expect("op", "}")
        fg2, fn2 = _parse_dataset_clause(p)
        fg, fn = fg + fg2, fn + fn2
        p.expect("word", "where")
        patterns, filters, optionals, binds = p.parse_group()
        _, limit, offset = p.parse_modifiers()
        if offset:
            raise SparqlSyntaxError("OFFSET on CONSTRUCT not supported")
        p.expect("eof")
        return ConstructQuery(
            template, patterns, filters, limit, optionals, binds, fg, fn
        )
    if p.eat_word("describe"):
        if p.peek()[0] == "var":
            v = p.next()[1][1:]
            fg, fn = _parse_dataset_clause(p)
            if not (p.eat_word("where") or p.peek() == ("op", "{")):
                raise SparqlSyntaxError(
                    "DESCRIBE ?var needs a WHERE group binding it"
                )
            patterns, filters, optionals, binds = p.parse_group()
            if optionals or binds:
                raise SparqlSyntaxError(
                    "OPTIONAL/BIND in DESCRIBE WHERE not supported"
                )
            p.expect("eof")
            return DescribeQuery(
                [], var=v, patterns=patterns, filters=filters,
                from_graphs=fg, from_named=fn,
            )
        terms: list[Term] = []
        while p.peek()[0] in ("iri", "pname"):
            terms.append(p.parse_term(allow_var=False))
        if not terms:
            raise SparqlSyntaxError("DESCRIBE needs IRIs or a variable")
        fg, fn = _parse_dataset_clause(p)
        p.expect("eof")
        return DescribeQuery(terms, from_graphs=fg, from_named=fn)
    raise SparqlSyntaxError(
        f"expected SELECT/ASK/CONSTRUCT/DESCRIBE, got {p.peek()[1]!r}"
    )


def _update_patterns(p: _Parser, what: str) -> list:
    """One ``{ … }`` block of plain triple patterns (Terms / Vars) for
    an update template or WHERE — property paths and group keywords are
    rejected with the block's role in the message."""
    p.expect("op", "{")
    pats = p.parse_triples_block(allow_var=True)
    p.expect("op", "}")
    for pat in pats:
        for el in pat:
            if isinstance(el, Var) and "$" in el.name:
                raise SparqlSyntaxError(f"property paths not allowed in {what}")
            if not isinstance(el, (Term, Var)):
                raise SparqlSyntaxError(f"property paths not allowed in {what}")
    return pats


def parse_update(text: str) -> list[UpdateOp | ModifyOp]:
    """``INSERT DATA`` / ``DELETE DATA`` / ``DELETE WHERE`` /
    ``DELETE { } [INSERT { }] WHERE { }`` / ``INSERT { } WHERE { }``,
    ';'-chained — the subset ``GraphStore.patch`` needs (the reference
    forwards the raw string: graphstoreservice.go:162-181)."""
    p = _Parser(text)
    ops: list[UpdateOp | ModifyOp] = []
    while True:
        p.parse_prologue()
        if p.peek()[0] == "eof":
            break
        if p.eat_word("insert"):
            if p.eat_word("data"):
                p.expect("op", "{")
                triples = p.parse_triples_block(allow_var=False)
                p.expect("op", "}")
                ops.append(UpdateOp("insert", triples))
            else:
                tmpl = _update_patterns(p, "an INSERT template")
                p.expect("word", "where")
                where = _update_patterns(p, "an update WHERE")
                ops.append(ModifyOp(None, tmpl, where))
        elif p.eat_word("delete"):
            if p.eat_word("data"):
                p.expect("op", "{")
                triples = p.parse_triples_block(allow_var=False)
                p.expect("op", "}")
                ops.append(UpdateOp("delete", triples))
            elif p.eat_word("where"):
                pats = _update_patterns(p, "DELETE WHERE")
                ops.append(ModifyOp(pats, None, pats))
            else:
                dtmpl = _update_patterns(p, "a DELETE template")
                itmpl = None
                if p.eat_word("insert"):
                    itmpl = _update_patterns(p, "an INSERT template")
                p.expect("word", "where")
                where = _update_patterns(p, "an update WHERE")
                ops.append(ModifyOp(dtmpl, itmpl, where))
        elif p.at_word("clear", "drop", "create", "copy", "move", "add"):
            ops.append(_parse_graph_mgmt(p))
        else:
            raise SparqlSyntaxError(
                f"expected INSERT/DELETE or a graph-management verb, "
                f"got {p.peek()[1]!r}"
            )
        if p.peek() == ("op", ";"):
            p.next()
            continue
    if not ops:
        raise SparqlSyntaxError("empty update request")
    return ops


def _mgmt_graph_ref(p: _Parser, allow_scopes: bool = True) -> str:
    """GRAPH <iri> | <iri> | DEFAULT (| NAMED | ALL for CLEAR/DROP).

    Per the SPARQL 1.1 Update grammar the GRAPH keyword is REQUIRED in
    the CLEAR/DROP IRI form (GraphRef) and optional only in
    COPY/MOVE/ADD (GraphOrDefault) — ``allow_scopes`` marks which
    production we are in."""
    if p.eat_word("default"):
        return "DEFAULT"
    if allow_scopes and p.eat_word("named"):
        return "NAMED"
    if allow_scopes and p.eat_word("all"):
        return "ALL"
    if not p.eat_word("graph") and allow_scopes:
        raise SparqlSyntaxError(
            "CLEAR/DROP needs GRAPH <iri> (or DEFAULT/NAMED/ALL)"
        )
    t = p.parse_term()
    if isinstance(t, Var) or t.kind != KIND_IRI:
        raise SparqlSyntaxError("graph management needs a graph IRI")
    return t.value


def _parse_graph_mgmt(p: _Parser) -> GraphMgmtOp:
    """One §3.2 graph-management operation (verb already peeked)."""
    verb = p.next()[1].lower()
    silent = bool(p.eat_word("silent"))
    if verb in ("clear", "drop"):
        return GraphMgmtOp(verb, _mgmt_graph_ref(p), None, silent)
    if verb == "create":
        p.expect("word", "graph")
        t = p.parse_term()
        if isinstance(t, Var) or t.kind != KIND_IRI:
            raise SparqlSyntaxError("CREATE needs a graph IRI")
        return GraphMgmtOp(verb, t.value, None, silent)
    src = _mgmt_graph_ref(p, allow_scopes=False)
    p.expect("word", "to")
    dst = _mgmt_graph_ref(p, allow_scopes=False)
    return GraphMgmtOp(verb, src, dst, silent)
