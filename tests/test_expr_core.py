"""Node semantics, arity/used-slot derivation, evaluation, equivalence."""

import math
import random

import pytest

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


def test_box_domain_validation():
    with pytest.raises(StructureError):
        BoxDomain(((1.0, 0.0),))
    d = BoxDomain(((0, 1), (2, 3)))
    assert d.dim == 2 and d.axis(2) == (2.0, 3.0)
    assert d.contains([0.5, 2.5]) and not d.contains([0.5, 4.0])
    assert d.with_axis(1, (5, 6)).axis(1) == (5.0, 6.0)


# --- equivalent_on ---

def test_equivalent_commutative_lifts():
    e1 = Lift(Prim(ADD), 2, (1, 2))
    e2 = Lift(Prim(ADD), 2, (2, 1))
    assert equivalent_on(e1, e2, BoxDomain.unit(2), 100, 1e-12)


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
    inv = Inverse(Prim(POW), 1, axis=(0.0, 5.0))
    with pytest.raises(StructureError, match="axis 2 bounds must be finite"):
        evaluate(inv, [9.0, bad])


def test_inverse_node_needs_axis():
    with pytest.raises(TypeError, match="axis"):
        Inverse(x_pow(1, 1, 2.0), 1)


def test_inverse_formula_stops_at_its_first_root(monkeypatch):
    # x/2 = 0.25 on [0, 10]: the only root, 0.5, lies in the first tenth
    from mvfa import expr_core
    from mvfa.inverse import DEFAULT_GRID, invert_at

    calls = []
    apply = expr_core._checked_div
    monkeypatch.setattr(expr_core, "_checked_div",
                        lambda *a: calls.append(a) or apply(*a))
    half = Diagonal(Compose(Lift(Prim(DIV), 2, (1, 2)), 2, Const(2.0)), 2, 1)
    value = evaluate(Inverse(half, 1, axis=(0.0, 10.0)), [0.25])
    assert 0 < len(calls) < DEFAULT_GRID // 2
    assert value.hex() == invert_at(half, 1, 0.25, [], BoxDomain(((0.0, 10.0),)))[0].hex()


# --- lowering cache ---

def _count_lowerings(monkeypatch):
    """Record (expression, slot) for every lowering: slot None for a point
    function, the scanned slot for a scan kernel."""
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
    # one scan kernel for the 1 024 points, one point function for bisection
    assert _once_each(lowered, (sq, 1), (sq, None))


def test_inverse_formula_lowers_inner_once(monkeypatch):
    lowered = _count_lowerings(monkeypatch)
    sq = x_pow(1, 1, 2.0)
    inv = Inverse(sq, 1, axis=(-1.0, 1.0))
    assert evaluate(inv, [0.25]) == evaluate(inv, [0.25])
    assert _once_each(lowered, (inv, None), (sq, 1), (sq, None))


def test_solve_lowers_its_bound_expression_once(monkeypatch):
    # the branch scans run through the point function the split lowered;
    # invert_at and Inverse nodes, which have no split, build the scan kernel
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
    # 2.0 is one of the formula's scan points, so no bisection lowers the
    # inner point function
    assert _once_each(lowered, (formula, None), (formula.inner, 1))


def test_evaluated_expression_still_pickles():
    import pickle

    e = Inverse(x_pow(1, 1, 2.0), 1, axis=(-1.0, 1.0))
    value = evaluate(e, [0.25])
    assert {"_lowered", "_grid"} <= set(e.__dict__) and "_scans" in e.inner.__dict__
    restored = pickle.loads(pickle.dumps(e))
    caches = {"_lowered", "_scans", "_grid"}
    assert not caches & (set(restored.__dict__) | set(restored.inner.__dict__))
    assert restored == e and evaluate(restored, [0.25]) == value
