"""loop DSL (operator T6): compiler fixtures, interpreter semantics
table, end-to-end compile→evaluate."""

import pathlib

import pytest

from argo_ray.loop import LoopError, LoopGraph, Resource, compile_loop, evaluate
from argo_ray.loop.interpreter import LOOP_NS
from argo_ray.terms import IRI, RDF_NS, XSD_NS, Blank, Literal

A = IRI(RDF_NS + "type")


def test_compile_reference_fixture():
    """``ldi.loop``: two functions in the loopc grammar — ``name``
    declarations, a slashed function URI, a typed and labelled
    argument, labels on the function and (``of i``) on the argument,
    and a call with named arguments."""
    src = (pathlib.Path(__file__).parent / "ldi.loop").read_text()
    triples, funcs, prefixes = compile_loop(src)
    assert funcs == [
        "http://kierdavis.com/data/opencpu/nmicro/inst/nop/impl",
        "http://kierdavis.com/data/opencpu/nmicro/inst/ldi/impl",
    ]
    spo = {(s.value, p.value, o.value) for s, p, o in triples}
    ldi = funcs[1]
    # func typed Function; arg typed+restricted; labels attached to the
    # function node and (via 'of i') to the argument node
    assert (ldi, RDF_NS + "type", LOOP_NS + "Function") in spo
    assert (ldi + "/arg/i", RDF_NS + "type", LOOP_NS + "Argument") in spo
    assert (ldi + "/arg/i", LOOP_NS + "restrictType", LOOP_NS + "Integer") in spo
    assert (ldi + "/arg/i", "http://www.w3.org/2000/01/rdf-schema#label",
            "Value of immediate field") in spo
    assert (ldi, "http://www.w3.org/2000/01/rdf-schema#label",
            "Implementation of LDI instruction") in spo
    # the StoreRegister call is in the code list with its named args
    calls = [s for s, p, o in triples
             if p.value == RDF_NS + "type"
             and o.value == "http://kierdavis.com/data/opencpu/lib/StoreRegister"]
    assert len(calls) == 1
    call_props = {p.value for s, p, o in triples if s == calls[0]}
    assert "http://kierdavis.com/data/opencpu/lib/register" in call_props
    assert "http://kierdavis.com/data/opencpu/lib/value" in call_props
    # deterministic recompilation (skolemized anon nodes)
    assert compile_loop(src)[0] == triples


@pytest.mark.parametrize(
    "lit,expected",
    [
        (Literal("true", datatype=XSD_NS + "boolean"), True),
        (Literal("0", datatype=XSD_NS + "boolean"), False),
        (Literal("aGk=", datatype=XSD_NS + "base64Binary"), b"hi"),
        (Literal("6869", datatype=XSD_NS + "hexBinary"), b"hi"),
        (Literal("2.5", datatype=XSD_NS + "float"), 2.5),
        (Literal("-7", datatype=XSD_NS + "integer"), -7),
        (Literal("9", datatype=XSD_NS + "unsignedByte"), 9),
        (Literal("http://r/", datatype=XSD_NS + "anyURI"), Resource(IRI("http://r/"))),
        (Literal("plain"), "plain"),
        (Literal("tagged", lang="en"), "tagged"),
    ],
)
def test_literal_evaluation_table(lit, expected):
    assert evaluate(LoopGraph(), lit) == expected


def test_literal_errors():
    with pytest.raises(LoopError, match="boolean"):
        evaluate(LoopGraph(), Literal("maybe", datatype=XSD_NS + "boolean"))
    with pytest.raises(LoopError, match="QName"):
        evaluate(LoopGraph(), Literal("nocolon", datatype=XSD_NS + "QName"))
    g = LoopGraph(prefixes={"ex": "http://ex/"})
    assert evaluate(g, Literal("ex:x", datatype=XSD_NS + "QName")) == Resource(
        IRI("http://ex/x")
    )
    with pytest.raises(LoopError, match="Namespace"):
        evaluate(g, Literal("zz:x", datatype=XSD_NS + "QName"))


def test_variable_and_byreference():
    var = IRI("http://v/1")
    pred_ref = IRI("http://f/arg/r")
    func = IRI("http://f/")
    triples = [
        (var, A, IRI(LOOP_NS + "Variable")),
        (pred_ref, A, IRI(LOOP_NS + "Argument")),
        (pred_ref, IRI(LOOP_NS + "byReference"), Literal("true")),
    ]
    g = LoopGraph(triples)
    with pytest.raises(LoopError, match="unset variable"):
        evaluate(g, var)
    assert evaluate(g, var, {"http://v/1": 42}) == 42

    # byReference argument: the raw term flows in, unevaluated
    fn = IRI("http://fn")
    call = Blank("c")
    triples += [
        (fn, A, IRI(LOOP_NS + "Function")),
        (call, A, fn),
        (call, pred_ref, var),  # byRef → Resource(var), NOT a ctx lookup
        # code list: single expr returning the argument
        (fn, IRI(LOOP_NS + "code"), Blank("l0")),
        (Blank("l0"), IRI(RDF_NS + "first"), pred_ref),
        (Blank("l0"), IRI(RDF_NS + "rest"), IRI(RDF_NS + "nil")),
    ]
    g2 = LoopGraph(triples)
    assert evaluate(g2, call) == Resource(var)


def test_builtin_add_type_errors_and_promotion():
    def call(a_lit, b_lit):
        c = Blank("c")
        g = LoopGraph(
            [
                (c, A, IRI(LOOP_NS + "Add")),
                (c, IRI(LOOP_NS + "a"), a_lit),
                (c, IRI(LOOP_NS + "b"), b_lit),
            ]
        )
        return evaluate(g, c)

    xi, xf = XSD_NS + "integer", XSD_NS + "double"
    assert call(Literal("3", datatype=xi), Literal("4", datatype=xi)) == 7
    assert call(Literal("3", datatype=xi), Literal("0.5", datatype=xf)) == 3.5
    with pytest.raises(LoopError, match="Add expects"):
        call(Literal("three"), Literal("4", datatype=xi))


def test_missing_arg_and_cyclic_code():
    c = Blank("c")
    g = LoopGraph([(c, A, IRI(LOOP_NS + "Add"))])
    with pytest.raises(LoopError, match="missing required"):
        evaluate(g, c)
    fn, call, l0 = IRI("http://fn"), Blank("c2"), Blank("l0")
    g2 = LoopGraph(
        [
            (fn, A, IRI(LOOP_NS + "Function")),
            (call, A, fn),
            (fn, IRI(LOOP_NS + "code"), l0),
            (l0, IRI(RDF_NS + "first"), Literal("x")),
            (l0, IRI(RDF_NS + "rest"), l0),  # cycle
        ]
    )
    with pytest.raises(LoopError, match="cyclic"):
        evaluate(g2, call)


def test_resolver_hook_replaces_fetch():
    """FetchIfNeeded equivalent: unknown IRI subjects resolve through
    the injected hook (driver-side pre-fetched map; no network)."""
    remote_fn = IRI("http://remote/fn")
    fetched = {
        "http://remote/fn": [
            (remote_fn, A, IRI(LOOP_NS + "Function")),
            (remote_fn, IRI(LOOP_NS + "code"), Blank("r0")),
            (Blank("r0"), IRI(RDF_NS + "first"), Literal("5", datatype=XSD_NS + "integer")),
            (Blank("r0"), IRI(RDF_NS + "rest"), IRI(RDF_NS + "nil")),
        ]
    }
    call = Blank("c")
    g = LoopGraph([(call, A, remote_fn)], resolver=lambda uri: fetched.get(uri, []))
    assert evaluate(g, call) == 5


def test_compile_and_run_end_to_end():
    src = """
name <http://ex.org/> as ex
func ex/F (a integer "left", b float) {
    rdfs:label "adder"
    loop:Add(loop:a a, loop:b b)
}
func ex/main() {
    ex/F(<http://ex.org/F/arg/a> 5, <http://ex.org/F/arg/b> "7.5"^^xsd:double)
}
"""
    triples, funcs, prefixes = compile_loop(src)
    call = Blank("call0")
    g = LoopGraph(
        triples + [(call, A, IRI("http://ex.org/main"))], prefixes
    )
    assert evaluate(g, call) == 12.5
    # evaluating the function TERM (not a call node) yields the resource
    # itself — runloop's argument is a call node (cf. runloop/test.rdf)
    assert evaluate(g, IRI("http://ex.org/main")) == Resource(
        IRI("http://ex.org/main")
    )
