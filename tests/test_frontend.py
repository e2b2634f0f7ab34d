"""DSL parsing, structural compilation, formatting, round trips."""

import random

import pytest

from mvfa.expr_core import (
    BoxDomain,
    Compose,
    Const,
    Diagonal,
    Expr,
    Inverse,
    Lift,
    Prim,
    Primitive,
    StructureError,
    evaluate,
)
from mvfa.frontend import (
    AstCall,
    AstConst,
    AstSymbol,
    ParseError,
    ast_to_text,
    format_expr,
    parse,
    parse_equation,
    parse_structural,
    to_structural,
)

from util import ADD, E, MUL, POW, ast_eval, count_symbols, random_ast


# --- parse ---

def test_parse_nested_calls():
    ast = parse("pow(add(x,a), mul(x,b))")
    assert ast == AstCall(POW,
                          AstCall(ADD, AstSymbol("x"), AstSymbol("a")),
                          AstCall(MUL, AstSymbol("x"), AstSymbol("b")))


def test_parse_symbol():
    assert parse("x") == AstSymbol("x")


def test_parse_numbers():
    assert parse("3") == AstConst(3.0)
    assert parse("-2.5e-1") == AstConst(-0.25)
    assert parse("add(x,-1)") == AstCall(ADD, AstSymbol("x"), AstConst(-1.0))


def test_parse_unary_call_is_error():
    with pytest.raises(ParseError) as err:
        parse("pow(x)")
    assert "two arguments" in str(err.value)


def test_parse_unknown_primitive():
    with pytest.raises(ParseError) as err:
        parse("foo(x,y)")
    assert "unknown primitive" in str(err.value)
    assert err.value.line == 1 and err.value.col == 1


def test_parse_error_location():
    with pytest.raises(ParseError) as err:
        parse("add(x,\n  ?)")
    assert err.value.line == 2
    assert err.value.col == 3


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse("add(x,y) z")


def test_parse_whitespace_insignificant():
    assert parse(" add ( x , y ) ") == AstCall(ADD, AstSymbol("x"), AstSymbol("y"))


def test_parse_equation():
    lhs, rhs = parse_equation("pow(x,x) = c")
    assert isinstance(lhs, AstCall) and rhs == AstSymbol("c")
    lhs, rhs = parse_equation("add(x,a) = 5")
    assert rhs == AstConst(5.0)
    with pytest.raises(ParseError):
        parse_equation("add(x,a) = mul(b,c)")


# --- to_structural ---

def test_structural_trace_and_binding():
    form = to_structural(parse("pow(add(x,a),mul(x,b))"))
    assert form.expr.arity == 4
    assert form.binding == {1: "x", 2: "a", 3: "x", 4: "b"}
    assert form.trace == [
        "A4_{1,3}(pow)", "C4_{1}", "A4_{1,2}(add)", "C4_{3}", "A4_{3,4}(mul)"]
    assert evaluate(form.expr, [2, 1, 2, 1]) == pytest.approx(9.0, abs=1e-12)


def test_structural_first_slot_subtlety():
    # the outer lift must target each branch's first slot (1 and 3), not (1, 2):
    # using (1, 2) would compute a different function
    form = to_structural(parse("pow(add(x,a),mul(x,b))"))
    lift_node = form.expr.f.f
    assert isinstance(lift_node, Lift)
    assert lift_node.positions == (1, 3)


def test_structural_symbol():
    form = to_structural(parse("x"))
    assert form.expr == Prim(E)
    assert form.binding == {1: "x"}


def test_structural_const():
    form = to_structural(parse("4.5"))
    assert form.expr == Const(4.5) and form.binding == {}


def test_structural_flat_call():
    form = to_structural(parse("add(a,b)"))
    assert form.expr == Lift(Prim(ADD), 2, (1, 2))
    assert form.binding == {1: "a", 2: "b"}


def test_structural_with_constant_argument():
    form = to_structural(parse("pow(x,2)"))
    assert form.expr.arity == 1
    assert form.binding == {1: "x"}
    assert evaluate(form.expr, [3.0]) == pytest.approx(9.0, abs=1e-12)


def test_structural_constants_fold_away():
    form = to_structural(parse("add(2,3)"))
    assert form.expr == Const(5.0)


def test_structural_constant_only_subtree():
    form = to_structural(parse("pow(add(2,3),x)"))  # 5^x
    assert form.expr.arity == 1 and form.binding == {1: "x"}
    assert evaluate(form.expr, [2.0]) == pytest.approx(25.0, abs=1e-12)


def test_structural_slot_count_equals_occurrences():
    rng = random.Random(31)
    for _ in range(50):
        ast = random_ast(rng, 3, ["x", "y", "z"], const_prob=0.3)
        form = to_structural(ast)
        assert form.expr.arity == count_symbols(ast)
        assert len(form.binding) == count_symbols(ast)


def test_compile_soundness_random():
    from util import SAFE_LEAF_RANGE
    rng = random.Random(41)
    for trial in range(200):
        ast = random_ast(rng, 4, ["x", "y", "z", "w"], const_prob=0.2)
        form = to_structural(ast)
        env = {name: rng.uniform(*SAFE_LEAF_RANGE) for name in ["x", "y", "z", "w"]}
        point = [env[form.binding[s]] for s in range(1, form.expr.arity + 1)]
        want = ast_eval(ast, env)
        got = evaluate(form.expr, point)
        assert abs(got - want) <= 1e-12, f"trial {trial}: {got} != {want}"


def test_pointful_round_trip():
    rng = random.Random(59)
    for _ in range(100):
        ast = random_ast(rng, 3, ["x", "y"], const_prob=0.25)
        assert parse(ast_to_text(ast)) == ast


# --- format / structural reader ---

def test_format_examples():
    assert format_expr(Diagonal(Prim(POW), 1, 2)) == "C2_{1,2}(pow)"
    assert format_expr(Lift(Prim(ADD), 4, (1, 4))) == "A4_{1,4}(add)"
    assert format_expr(Const(3)) == "3"
    assert format_expr(Const(0.5)) == "0.5"
    assert format_expr(Prim(E)) == "e"
    assert format_expr(Inverse(Prim(ADD), 1, (-0.5, 3))) == "I_{1}(add,-0.5:3)"


def test_structural_reader_round_trip():
    rng = random.Random(67)
    samples = [
        Diagonal(Prim(POW), 1, 2),
        Lift(Prim(ADD), 4, (1, 4)),
        Const(3.0),
        Prim(E),
        Inverse(Diagonal(Prim(POW), 1, 2), 1, (0.5, 5.0)),
    ]
    for _ in range(40):
        ast = random_ast(rng, 3, ["x", "y", "z"], const_prob=0.2)
        form = to_structural(ast)
        samples.append(form.expr)
    for e in samples:
        text = format_expr(e)
        back = parse_structural(text)
        assert back == e, text
        assert format_expr(back) == text


def test_structural_reader_has_no_variables():
    # slots are routed by lift positions; a pointful name is not notation
    with pytest.raises(ParseError, match="unknown name 'x2'"):
        parse_structural("x2")


def test_structural_reader_rejects_garbage():
    with pytest.raises(ParseError):
        parse_structural("A4_{1,2}(add")
    with pytest.raises(ParseError):
        parse_structural("B4_{1}(add)")
    with pytest.raises(ParseError):
        parse_structural("C2_{1,2,3}(pow)")


def test_structural_reader_error_location():
    with pytest.raises(ParseError) as err:
        parse_structural("C2_{1}(add,\n  ?)")
    assert (err.value.line, err.value.col) == (2, 3)


@pytest.mark.parametrize("read, text, line, col", [
    (parse, "add(x,1e999)", 1, 7),
    (parse_structural, "C2_{2}(A2_{1,2}(add),-1e999)", 1, 22),
    (parse_structural, "I_{1}(add,0:\n 1e400)", 2, 2),
])
def test_overflowing_literal_is_parse_error_at_its_location(read, text, line, col):
    with pytest.raises(ParseError, match="not finite") as err:
        read(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_negative_zero_keeps_its_sign_in_text():
    f = to_structural(parse("mul(x,-0.0)")).expr
    text = format_expr(f)
    assert "-0.0" in text
    assert evaluate(parse_structural(text), [1.0]).hex() == evaluate(f, [1.0]).hex() == "-0x0.0p+0"
    assert ast_to_text(parse("mul(x,-0.0)")) == "mul(x,-0.0)"
    assert format_expr(Const(-1.0)) == "-1"


@pytest.mark.parametrize("text", ["I_{1}(add)", "I_{1}(add,0)", "I_{1}(add,0:x)", "I_{1}(add,0:1"])
def test_inverse_notation_needs_its_interval(text):
    with pytest.raises(ParseError):
        parse_structural(text)


def test_inverse_notation_refuses_an_empty_interval():
    with pytest.raises(StructureError, match="search interval"):
        parse_structural("I_{1}(add,2:1)")


# One sample of each node kind, every one of which has a text form.
NODE_SAMPLES = {
    Const: Const(-2.5e-320),
    Prim: Prim(E),
    Lift: Lift(Prim(ADD), 3, (3, 1)),
    Compose: Compose(Lift(Prim(MUL), 2, (1, 2)), 2, Const(1e16)),
    Diagonal: Diagonal(Prim(POW), 2, 1),
    Inverse: Inverse(Lift(Prim(POW), 2, (1, 2)), 1, (-0.0, 3.25)),
}


def _node_kinds(cls=Expr):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_kinds(sub)


def test_every_node_kind_reads_back():
    # a new node kind must get a text form, and a sample here
    assert set(_node_kinds()) == set(NODE_SAMPLES)
    for e in NODE_SAMPLES.values():
        text = format_expr(e)
        back = parse_structural(text)
        assert back == e and format_expr(back) == text, text
