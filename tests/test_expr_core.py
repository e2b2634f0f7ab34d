"""Node semantics, arity/used-slot derivation, evaluation, equivalence."""

import math
import random
import re
from collections import Counter

import pytest

from mvfa import expr_core

from mvfa.expr_core import (
    BoxDomain,
    Compose,
    Const,
    Diagonal,
    EvalDomainError,
    EvalError,
    Inverse,
    Lift,
    NoSolutionError,
    Prim,
    Primitive,
    StructureError,
    equivalent_on,
    evaluate,
)
from mvfa.structure_ops import substitute_const

from util import ADD, DIV, E, LOG, MUL, POW, ROOT, poly_sum, x_pow


# --- primitive table ---

@pytest.mark.parametrize("op,args,expected", [
    (ADD, (2, 3), 5.0),
    (MUL, (2, 3), 6.0),
    (DIV, (8, 2), 4.0),
    (POW, (2, 10), 1024.0),
    (ROOT, (27, 3), 3.0),
    (LOG, (8, 2), 3.0),
])
def test_primitive_values(op, args, expected):
    assert evaluate(Prim(op), args) == pytest.approx(expected, abs=1e-9)


def test_identity_primitive():
    assert Prim(E).arity == 1
    assert evaluate(Prim(E), [7.5]) == 7.5


def test_primitive_arities():
    assert Prim(POW).arity == 2
    assert all(Prim(p).arity == 2 for p in (ADD, MUL, DIV, ROOT, LOG))


# --- arity examples ---

def test_arity_of_diagonal_pow():
    assert Diagonal(Prim(POW), 1, 2).arity == 1


def test_arity_of_const():
    assert Const(5).arity == 0


# --- used slots ---

def test_used_slots_lift():
    assert Lift(Prim(ADD), 4, (1, 4)).used_slots == {1, 4}


def test_used_slots_identity():
    assert Prim(E).used_slots == {1}


def test_used_slots_constant_composition_consumes_slot():
    e = Compose(Lift(Prim(ADD), 3, (1, 2)), 2, Const(7))
    assert e.used_slots == {1}
    # slot 2 must not affect the value
    base = evaluate(e, [1, 0, 0])
    for v in (-3.0, 0.5, 11.0):
        assert evaluate(e, [1, v, 123.0]) == base


# --- evaluation semantics ---

def test_eval_diagonal_pow_is_x_to_x():
    assert evaluate(Diagonal(Prim(POW), 1, 2), [2]) == 4.0


def test_eval_reindexed_partial_composite():
    # (x1^2 + x3^3) composed at slot 1 with (x2^2 + x4^4), then evaluated
    # with every live coordinate at 1: (1+1)^2 + 1 = 5.
    f = poly_sum(4, [(1, 2.0), (3, 3.0)])
    g = poly_sum(4, [(2, 2.0), (4, 4.0)])
    comp = Compose(f, 1, g)
    assert comp.used_slots == {2, 3, 4}
    assert evaluate(comp, [99.0, 1, 1, 1]) == pytest.approx(5.0, abs=1e-12)


def test_eval_log():
    assert evaluate(Prim(LOG), [8, 2]) == pytest.approx(3.0, abs=1e-9)


def test_eval_is_bitwise_deterministic():
    e = x_pow(1, 1, 0.7)
    a = evaluate(e, [1.37])
    b = evaluate(e, [1.37])
    assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_unused_slot_independence():
    rng = random.Random(1)
    e = Lift(poly_sum(2, [(1, 2.0), (2, 3.0)]), 5, (2, 4))
    assert e.used_slots == {2, 4}
    for _ in range(50):
        pt = [rng.uniform(-2, 2) for _ in range(5)]
        base = evaluate(e, pt)
        for s in (1, 3, 5):
            bumped = list(pt)
            bumped[s - 1] = rng.uniform(-100, 100)
            assert evaluate(e, bumped) == base


# --- domain errors carry node and point ---

def test_division_by_zero():
    with pytest.raises(EvalDomainError) as err:
        evaluate(Prim(DIV), [1, 0])
    assert err.value.point == (1.0, 0.0)
    assert err.value.node is not None


def test_error_inside_routing_carries_primitive_and_local_point():
    div = Prim(DIV)
    # add(y1, y2 / y1): Diagonal copies y1 into the divisor slot of the lift
    quotient = Diagonal(Lift(div, 3, (3, 2)), 2, 1)
    e = Compose(Lift(Prim(ADD), 2, (1, 2)), 2, quotient)
    with pytest.raises(EvalDomainError) as err:
        evaluate(e, [0.0, 5.0])
    assert err.value.node is div
    assert err.value.point == (5.0, 0.0)


def test_log_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(Prim(LOG), [-1, 2])
    with pytest.raises(EvalDomainError):
        evaluate(Prim(LOG), [2, 1])
    with pytest.raises(EvalDomainError):
        evaluate(Prim(LOG), [2, -2])


def test_fractional_power_of_negative_base():
    with pytest.raises(EvalDomainError):
        evaluate(Prim(POW), [-2, 0.5])
    # integer exponents of negative bases are fine
    assert evaluate(Prim(POW), [-2, 3]) == -8.0


def test_root_domain():
    with pytest.raises(EvalDomainError):
        evaluate(Prim(ROOT), [-8, 3])
    with pytest.raises(EvalDomainError):
        evaluate(Prim(ROOT), [8, 0])


def test_point_length_must_match_arity():
    with pytest.raises(StructureError):
        evaluate(Prim(ADD), [1, 2, 3])


# --- structural validation ---

def test_lift_validation():
    with pytest.raises(StructureError):
        Lift(Prim(ADD), 4, (1, 1))      # duplicate
    with pytest.raises(StructureError):
        Lift(Prim(ADD), 4, (0, 2))      # out of range
    with pytest.raises(StructureError):
        Lift(Prim(ADD), 1, (1, 2))      # target too small
    with pytest.raises(StructureError):
        Lift(Prim(ADD), 4, (1,))        # wrong count


def test_diagonal_validation():
    with pytest.raises(StructureError):
        Diagonal(Prim(POW), 1, 1)
    with pytest.raises(StructureError):
        Diagonal(Prim(E), 1, 2)         # arity 1
    with pytest.raises(StructureError):
        Diagonal(Prim(POW), 1, 3)


def test_compose_arity_validation():
    with pytest.raises(StructureError):
        Compose(Prim(ADD), 1, Prim(E))  # 2 vs 1, no lift
    with pytest.raises(StructureError):
        Compose(Const(1), 1, Const(2))


def _exactly(message: str) -> str:
    """A `match` pattern for the whole of `message`."""
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize("build, message", [
    (lambda: Prim("add"), "not a primitive: 'add'"),
    (lambda: Lift(Prim(ADD), -1, ()), "lift target arity must be a nonnegative integer, got -1"),
    (lambda: Lift(Prim(ADD), 2.0, (1, 2)),
     "lift target arity must be a nonnegative integer, got 2.0"),
    (lambda: Lift(Prim(ADD), 1, (1, 2)), "cannot lift arity 2 down to arity 1"),
    (lambda: Lift(Prim(ADD), 4, (1,)),
     "lift needs one position per inner variable: got 1 for arity 2"),
    (lambda: Lift(Prim(ADD), 4, (3, 3)), "lift positions must be distinct, got (3, 3)"),
    (lambda: Lift(Prim(ADD), 4, (0, 2)), "lift position out of range 1..4: (0, 2)"),
    (lambda: Lift(Prim(ADD), 4, (2, 5)), "lift position out of range 1..4: (2, 5)"),
    # a position that is not an int is refused, as a slot is, not truncated
    (lambda: Lift(Prim(E), 2, (1.9,)), "lift position out of range 1..2: (1.9,)"),
    (lambda: Lift(Prim(ADD), 2, (1.0, 2)), "lift position out of range 1..2: (1.0, 2)"),
    (lambda: Compose(Const(1), 1, Const(2)), "cannot compose two nullary expressions"),
    (lambda: Compose(Prim(ADD), 1, Prim(E)),
     "composition operands must share arity or be nullary; got 2 and 1 (lift first)"),
    (lambda: Compose(Prim(E), 1, Prim(ADD)),
     "composition operands must share arity or be nullary; got 1 and 2 (lift first)"),
    (lambda: Compose(Prim(ADD), 0, Prim(MUL)), "composition slot 0 out of range 1..2"),
    (lambda: Compose(Prim(ADD), 3, Const(1)), "composition slot 3 out of range 1..2"),
    (lambda: Compose(Const(1), 1.0, Prim(E)), "composition slot 1.0 out of range 1..1"),
    (lambda: Diagonal(Prim(E), 1, 2), "oblique projection needs arity >= 2, got 1"),
    (lambda: Diagonal(Const(1), 1, 2), "oblique projection needs arity >= 2, got 0"),
    (lambda: Diagonal(Prim(POW), 0, 1), "projection slot 0 out of range 1..2"),
    (lambda: Diagonal(Prim(POW), 1, 3), "projection slot 3 out of range 1..2"),
    (lambda: Diagonal(Prim(POW), 2, "1"), "projection slot '1' out of range 1..2"),
    (lambda: Diagonal(Prim(POW), 1, 1), "projection slots must differ"),
    (lambda: Inverse(Const(1), 1, (0, 1)), "cannot invert a nullary expression"),
    (lambda: Inverse(Prim(ADD), 3, (0, 1)), "inverse slot 3 out of range 1..2"),
    (lambda: Inverse(Prim(ADD), "1", (0, 1)), "inverse slot '1' out of range 1..2"),
    (lambda: Inverse(Prim(ADD), 1, (2, 1)), "bad inverse search interval (2.0, 1.0)"),
    # True == 1, but a node built on it would not read back from its notation
    (lambda: Compose(Prim(ADD), True, Const(2)),
     "composition slot True out of range 1..2"),
    (lambda: Lift(Prim(E), True, (1,)),
     "lift target arity must be a nonnegative integer, got True"),
    (lambda: Lift(Prim(E), 2, (True,)), "lift position out of range 1..2: (True,)"),
    (lambda: Diagonal(Prim(ADD), True, 2), "projection slot True out of range 1..2"),
    (lambda: Diagonal(Lift(Prim(ADD), 3, (1, 2)), 1, True),
     "projection slot True out of range 1..3"),
    (lambda: Inverse(Prim(ADD), True, (0, 1)), "inverse slot True out of range 1..2"),
])
def test_each_structure_error_keeps_its_message(build, message):
    with pytest.raises(StructureError, match=_exactly(message)):
        build()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_const_refuses_a_value_that_is_not_finite(value):
    # the notation writes only finite numbers, so such a node would not
    # read back; substitute_const builds its constant the same way
    with pytest.raises(StructureError, match=_exactly(f"constant {value} is not finite")):
        Const(value)
    with pytest.raises(StructureError, match=_exactly(f"constant {value} is not finite")):
        substitute_const(Prim(ADD), 2, value)


def test_box_domain_validation():
    with pytest.raises(StructureError):
        BoxDomain(((1.0, 0.0),))
    d = BoxDomain(((0, 1), (2, 3)))
    assert d.dim == 2 and d.axis(2) == (2.0, 3.0)
    assert d.with_axis(1, (5, 6)).axis(1) == (5.0, 6.0)


# --- equivalent_on ---

def test_equivalent_commutative_lifts():
    e1 = Lift(Prim(ADD), 2, (1, 2))
    e2 = Lift(Prim(ADD), 2, (2, 1))
    assert equivalent_on(e1, e2, BoxDomain(((0, 1), (0, 1))), 100, 1e-12)


def test_equivalent_diagonal_pow_vs_pointful():
    # x^x written with an explicitly swapped lift, projected the other way
    e1 = Diagonal(Prim(POW), 1, 2)
    e2 = Diagonal(Lift(Prim(POW), 2, (2, 1)), 2, 1)
    assert equivalent_on(e1, e2, BoxDomain(((1.0, 2.0),)), 100, 1e-12)


def test_not_equivalent_pow_mul():
    box = BoxDomain(((2.0, 3.0), (2.0, 3.0)))
    assert not equivalent_on(Prim(POW), Prim(MUL), box, 100, 1e-12)
    # oracle: a concrete counterexample point
    assert abs(evaluate(Prim(POW), [2, 3]) - evaluate(Prim(MUL), [2, 3])) > 1.0


def test_equivalent_is_seed_deterministic():
    box = BoxDomain(((0.1, 2.0),))
    e1 = Diagonal(Prim(POW), 1, 2)
    e2 = Diagonal(Prim(POW), 1, 2)
    assert equivalent_on(e1, e2, box, 50, 0.0, seed=7)  # identical values, zero tol


def test_error_only_one_side_false():
    recip = Compose(Lift(Prim(DIV), 2, (1, 2)), 1, Const(1.0))  # 1/x2, arity 2
    ident = Lift(Prim(E), 2, (2,))
    box = BoxDomain(((0, 1), (-1, 1)))
    assert not equivalent_on(recip, ident, box, 200, 1e-9)


def test_equivalent_on_lowers_each_side_once_and_checks_once(monkeypatch):
    # the arities are checked once; then each sample goes straight to the
    # two lowered functions, never through the checked entry
    calls = Counter()
    check, lower = expr_core.evaluate, expr_core._lower
    monkeypatch.setattr(expr_core, "evaluate", lambda *a: calls.update(["evaluate"]) or check(*a))
    monkeypatch.setattr(expr_core, "_lower", lambda *a: calls.update(["lower"]) or lower(*a))
    e1, e2 = Lift(Prim(DIV), 2, (1, 2)), Lift(Prim(DIV), 2, (2, 1))
    box = BoxDomain(((0.0, 1.0), (0.0, 1.0)))
    assert not equivalent_on(e1, e2, box, samples=32)
    assert calls == {"lower": 2}
    assert equivalent_on(e1, Lift(Prim(E), 2, (1,)), BoxDomain(((0.0, 1.0), (1.0, 1.0))))
    assert calls == {"lower": 3}


# --- inverse node evaluation ---

def test_inverse_node_eval_smallest_root():
    sq = x_pow(1, 1, 2.0)  # x^2, arity 1
    inv = Inverse(sq, 1, axis=(-1.0, 1.0))
    assert inv.arity == 1
    assert evaluate(inv, [0.25]) == pytest.approx(-0.5, abs=1e-8)


def test_inverse_node_no_solution():
    sq = x_pow(1, 1, 2.0)
    inv = Inverse(sq, 1, axis=(0.0, 1.0))
    with pytest.raises(NoSolutionError):
        evaluate(inv, [9.0])


def test_inverse_node_matches_invert_at_default():
    # formula evaluation and invert_at share one default tolerance and grid
    from mvfa.inverse import invert_at

    inv = Inverse(Prim(POW), 1, axis=(0.0, 5.0))
    roots = invert_at(Prim(POW), 1, 9.0, [2.0], BoxDomain(((0.0, 5.0), (2.0, 2.0))))
    assert evaluate(inv, [9.0, 2.0]).hex() == roots[0].hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_inverse_node_rejects_non_finite_coordinate(bad):
    # a point where the node does not evaluate, which a scan skips; the
    # output value too, which no scan would match
    inv = Inverse(Prim(POW), 1, axis=(0.0, 5.0))
    for point in ([9.0, bad], [bad, 2.0]):
        with pytest.raises(EvalDomainError, match="non-finite argument of an inverse") as info:
            evaluate(inv, point)
        assert info.value.node is inv


def test_inverse_node_needs_axis():
    with pytest.raises(TypeError, match="axis"):
        Inverse(x_pow(1, 1, 2.0), 1)


@pytest.mark.parametrize("axis", [(-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0), (2.0, 1.0)])
def test_inverse_node_needs_an_axis_of_finite_width(axis):
    # (-1e308, 1e308) has finite ends, but its width overflows to inf
    with pytest.raises(StructureError, match="bad inverse search interval"):
        Inverse(x_pow(1, 1, 2.0), 1, axis)


def test_inverse_formula_stops_at_its_first_root(monkeypatch):
    # x/2 = 0.25 on [0, 10]: the only root, 0.5, lies in the first tenth
    from mvfa import expr_core
    from mvfa.inverse import DEFAULT_GRID, invert_at

    calls = []
    apply = expr_core._CHECKED[DIV]
    monkeypatch.setitem(expr_core._CHECKED, DIV, lambda *a: calls.append(a) or apply(*a))
    half = Diagonal(Compose(Lift(Prim(DIV), 2, (1, 2)), 2, Const(2.0)), 2, 1)
    value = evaluate(Inverse(half, 1, axis=(0.0, 10.0)), [0.25])
    assert 0 < len(calls) < DEFAULT_GRID // 2
    assert value.hex() == invert_at(half, 1, 0.25, [], BoxDomain(((0.0, 10.0),)))[0].hex()


# --- range enclosures ---

def _unary(text):
    """The function of x that text spells, x in every slot."""
    from mvfa.frontend import parse, to_structural
    from mvfa.structure_ops import diagonal

    f = to_structural(parse(text)).expr
    while f.arity > 1:
        f = diagonal(f, 1, 2)
    return f


@pytest.mark.parametrize("text", [
    # each primitive with x in both arguments, over ranges where a corner
    # that is not the lower-lower or the upper-upper one is an extreme
    "add(x,mul(x,-2))", "mul(x,add(x,-1))", "div(add(x,-1),add(x,3))",
    "pow(add(x,2),add(x,-1))", "root(add(x,2),add(x,-3))", "log(add(x,1.5),add(x,3))",
])
def test_enclosure_holds_each_primitive_on_mixed_signs(text):
    from mvfa.expr_core import lowered_enclosure
    from mvfa.inverse import DEFAULT_GRID, _axis_points, _section, _values

    f = _unary(text)
    ts = _axis_points(-1.0, 1.0, DEFAULT_GRID)
    for a, b in ((0, DEFAULT_GRID - 1), (0, 511), (512, DEFAULT_GRID - 1), (300, 700)):
        low, high = lowered_enclosure(f, 1)(ts[a], ts[b], 0.5)
        vals = [v for _, v in _values(_section(f, 1, (), 0.5), ts[a:b + 1])]
        assert -math.inf < low <= min(vals) and max(vals) <= high < math.inf


def test_enclosure_gives_up_where_it_cannot_bound():
    from mvfa.expr_core import lowered_enclosure
    from mvfa.frontend import parse, to_structural

    whole = (-math.inf, math.inf)
    for text, lo, hi in (("div(1,x)", -1.0, 1.0), ("pow(x,0.5)", 0.0, 1.0),
                         ("log(x,2)", -1.0, 1.0), ("log(2,x)", 0.5, 2.0),
                         ("root(x,add(x,-1))", 0.5, 2.0), ("pow(x,2000)", 1.0, 2.0)):
        assert lowered_enclosure(_unary(text), 1)(lo, hi, 0.0) == whole, text
    f = to_structural(parse("add(x,y)")).expr
    assert lowered_enclosure(f, 1)(0.0, 1.0, 0.0, 1.0) != whole
    for target, y in ((math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf), (0.0, math.nan)):
        assert lowered_enclosure(f, 1)(0.0, 1.0, target, y) == whole
    # an Inverse inside the function that an Inverse node scans
    cube_root = Inverse(x_pow(1, 1, 3.0), 1, (0.0, 2.0))
    assert lowered_enclosure(cube_root, 1)(0.0, 1.0, 0.0) == whole


# --- lowering cache ---

def _count_lowerings(monkeypatch):
    """Record (expression, slot) for every lowering: slot None for a point
    function, the scanned slot for a range enclosure and its section."""
    from mvfa import expr_core

    lowered = []
    lower = expr_core._lower

    def counting(e, slot=None):
        lowered.append((e, slot))
        return lower(e, slot)

    monkeypatch.setattr(expr_core, "_lower", counting)
    return lowered


def _once_each(lowered, *expected):
    """Each expected (expression, slot) lowered exactly once, nothing else."""
    return (len(lowered) == len(expected)
            and all(sum(e is x and s == slot for e, s in lowered) == 1 for x, slot in expected))


def test_invert_at_scan_lowers_once(monkeypatch):
    from mvfa.inverse import invert_at

    lowered = _count_lowerings(monkeypatch)
    sq = x_pow(1, 1, 2.0)
    for _ in range(2):
        roots = invert_at(sq, 1, 0.25, [], BoxDomain(((-1.0, 1.0),)), grid=1024)
        assert roots == pytest.approx([-0.5, 0.5], abs=1e-8)
    # one lowering along the slot: the enclosure, and the section that the
    # scan and bisection evaluate
    assert _once_each(lowered, (sq, 1))


def test_inverse_formula_lowers_inner_once(monkeypatch):
    lowered = _count_lowerings(monkeypatch)
    sq = x_pow(1, 1, 2.0)
    inv = Inverse(sq, 1, axis=(-1.0, 1.0))
    assert evaluate(inv, [0.25]) == evaluate(inv, [0.25])
    assert _once_each(lowered, (inv, None), (sq, 1))


def test_solve_lowers_its_bound_expression_once(monkeypatch):
    # the branch scans run through the point function the split lowered;
    # invert_at and Inverse nodes, which have no split, lower the slot's
    # enclosure and section instead
    from mvfa.frontend import parse, to_structural
    from mvfa.inverse import invert_at
    from mvfa.solver import Equation, solve

    lowered = _count_lowerings(monkeypatch)
    form = to_structural(parse("pow(add(x,a),mul(x,b))"))
    eq = Equation(form.expr, form.binding, 9.0, {"a": 1.0, "b": 1.0}, BoxDomain(((0.5, 5.0),)))
    report = solve(eq)
    assert report.roots == pytest.approx([2.0], abs=1e-6)
    assert len(lowered) == 1
    bound, slot = lowered[0]
    assert slot is None and bound.arity == 1
    assert invert_at(bound, 1, 9.0, [], eq.domain) == pytest.approx([2.0], abs=1e-6)
    assert _once_each(lowered, (bound, None), (bound, 1))
    lowered.clear()
    formula = report.formula
    assert evaluate(formula, [9.0, 1.0, 1.0]) == pytest.approx(2.0, abs=1e-6)
    # the scan encloses the inner function and evaluates its section, both
    # from one lowering along the slot
    assert _once_each(lowered, (formula, None), (formula.inner, 1))


# --- code shared by expressions of one shape ---

def _count_compiles(monkeypatch):
    """Empty the code cache, then record the source of every lowering's
    call of the builtin compile."""
    import builtins

    from mvfa import expr_core

    sources = []
    compile_ = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if filename == "<lowered expression>":
            sources.append(source)
        return compile_(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    expr_core._compile.cache_clear()
    return sources


def _log_base(c, op=LOG):
    """log(x1, c) at arity 2, or op(x1, c), and its primitive's node: one
    shape for every c, and for every checked op."""
    prim = Prim(op)
    return Compose(Lift(prim, 2, (1, 2)), 2, Const(c)), prim


def test_one_compile_per_shape(monkeypatch):
    from mvfa.expr_core import lowered, lowered_enclosure
    from mvfa.frontend import format_expr, parse, parse_structural, to_structural

    sources = _count_compiles(monkeypatch)
    f, _ = _log_base(2.0)
    same = [f, parse_structural(format_expr(f)), _log_base(4.0)[0]]
    fns = [lowered(e) for e in same]
    assert len(sources) == 1 and len({id(fn) for fn in fns}) == 3
    assert [fn(8.0, 0.0).hex() for fn in fns] == [
        math.log(8.0, 2.0).hex(), math.log(8.0, 2.0).hex(), math.log(8.0, 4.0).hex()]
    # the enclosure is another text, compiled once for the same shape too
    bounds = [lowered_enclosure(e, 1)(8.0, 8.0, 1.0, 0.0) for e in same]
    assert len(sources) == 2
    assert bounds[0] == bounds[1] != bounds[2]
    assert all(low < math.log(8.0, c) - 1.0 < high
               for (low, high), c in zip(bounds, (2.0, 2.0, 4.0)))
    # each node's checked function reaches the code by name: one text
    del sources[:]
    fns = [lowered(to_structural(parse(f"{op}(x,1.3)")).expr)
           for op in ("div", "pow", "root", "log")]
    assert [fn(3.7).hex() for fn in fns] == [
        v.hex() for v in (3.7 / 1.3, 3.7 ** 1.3, 3.7 ** (1.0 / 1.3), math.log(3.7, 1.3))]
    assert len(sources) == 1
    # a sum's or a product's operands are written in one order: a text for
    # op(x, c) and op(c, x), and one for op(x1, x2) and op(x2, x1)
    for op, apply in ((ADD, float.__add__), (MUL, float.__mul__)):
        del sources[:]
        swaps = [(to_structural(parse(f"{op.value}(x,1.3)")).expr, (3.7,), (3.7, 1.3)),
                 (to_structural(parse(f"{op.value}(1.3,x)")).expr, (3.7,), (1.3, 3.7)),
                 (Lift(Prim(op), 2, (1, 2)), (3.7, 1.3), (3.7, 1.3)),
                 (Lift(Prim(op), 2, (2, 1)), (3.7, 1.3), (1.3, 3.7))]
        assert [lowered(e)(*point).hex() for e, point, _ in swaps] == [
            apply(*operands).hex() for _, _, operands in swaps]
        assert len(sources) == 2


def test_shared_code_keeps_each_expression_its_constants_and_nodes(monkeypatch):
    sources = _count_compiles(monkeypatch)
    (f, f_log), (g, g_log) = _log_base(2.0), _log_base(4.0)
    assert f != g and f_log == g_log and f_log is not g_log
    assert evaluate(f, [8.0, 0.0]).hex() == math.log(8.0, 2.0).hex()
    assert evaluate(g, [8.0, 0.0]).hex() == math.log(8.0, 4.0).hex()
    for e, log, c in ((f, f_log, 2.0), (g, g_log, 4.0)):
        with pytest.raises(EvalDomainError) as info:
            evaluate(e, [-1.0, 0.0])
        assert info.value.node is log and info.value.point == (-1.0, c)
    # a division shares the logarithm's code, and raises with its own node
    h, h_div = _log_base(0.0, DIV)
    with pytest.raises(EvalDomainError, match="division by zero") as info:
        evaluate(h, [8.0, 0.0])
    assert info.value.node is h_div and info.value.point == (8.0, 0.0)
    with pytest.raises(EvalDomainError, match="logarithm of a non-positive") as info:
        evaluate(f, [0.0, 0.0])
    assert info.value.node is f_log and info.value.point == (0.0, 2.0)
    assert len(sources) == 1


def test_code_cache_is_bounded():
    from mvfa import expr_core

    bound = expr_core._CODE_CACHE_SIZE
    expr_core._compile.cache_clear()
    for n in range(2, bound + 12):   # bound + 10 shapes: x1 + xn at arity n
        assert evaluate(Lift(Prim(ADD), n, (1, n)), [1.0] * n) == 2.0
    info = expr_core._compile.cache_info()
    assert info.misses == bound + 10 and info.currsize <= bound


def test_evaluated_expression_still_pickles():
    import pickle

    e = Inverse(x_pow(1, 1, 2.0), 1, axis=(-1.0, 1.0))
    value = evaluate(e, [0.25])
    assert {"_lowered", "_grid"} <= set(e.__dict__) and "_enclosures" in e.inner.__dict__
    restored = pickle.loads(pickle.dumps(e))
    caches = {"_lowered", "_enclosures", "_grid"}
    assert not caches & (set(restored.__dict__) | set(restored.inner.__dict__))
    assert restored == e and evaluate(restored, [0.25]) == value


def test_restored_inverse_rebuilds_its_enclosure():
    import pickle

    from mvfa.expr_core import lowered_enclosure

    # x**2 = 0.25 on 0:1 is bounded everywhere, so its scan prunes
    e = Inverse(x_pow(1, 1, 2.0), 1, axis=(0.0, 1.0))
    value = evaluate(e, [0.25])
    enclose = lowered_enclosure(e.inner, 1)
    # x**2 - 0.25 on [0.5, 0.75], each bound pushed out by its ulps
    assert enclose(0.5, 0.75, 0.25) == (-5.551115123125784e-17, 0.3125000000000003)
    restored = pickle.loads(pickle.dumps(e))
    assert "_enclosures" not in restored.inner.__dict__
    assert evaluate(restored, [0.25]).hex() == value.hex()
    rebuilt = restored.inner.__dict__["_enclosures"][1]
    assert rebuilt is not enclose and rebuilt(0.5, 0.75, 0.25) == enclose(0.5, 0.75, 0.25)
