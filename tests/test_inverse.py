"""Invertibility verdicts, symbolic and numeric partial inverses, splitting."""

import math
import random

import pytest

from mvfa.expr_core import (
    BoxDomain,
    Compose,
    Const,
    Lift,
    Prim,
    Primitive,
    StructureError,
    evaluate,
)
from mvfa.frontend import parse, to_structural
from mvfa.inverse import (
    DegenerateInputError,
    UnsupportedInverseError,
    check_invertible,
    inverse_fn,
    invert_at,
    invert_primitive,
    piecewise_split,
)
from mvfa.solver import Equation, collapse_unknowns
from mvfa.structure_ops import compose_at, diagonal, normalize

from util import ADD, DIV, E, LOG, MUL, POW, ROOT, poly_sum, x_pow


CUBE_PLUS_SQUARE = poly_sum(2, [(1, 3.0), (2, 2.0)])  # x1^3 + x2^2


# --- check_invertible ---

def test_invertible_about_first_slot():
    box = BoxDomain(((-1.0, 1.0), (-1.0, 1.0)))
    verdict = check_invertible(CUBE_PLUS_SQUARE, 1, box, grid=33)
    assert verdict.invertible and verdict.witness is None


def test_not_invertible_about_second_slot_with_witness():
    box = BoxDomain(((-1.0, 1.0), (-1.0, 1.0)))
    verdict = check_invertible(CUBE_PLUS_SQUARE, 2, box, grid=33)
    assert not verdict.invertible
    w = verdict.witness
    assert w is not None and w.t1 != w.t2
    # witness reproduces: same fiber, equal values within tolerance
    v1 = evaluate(CUBE_PLUS_SQUARE, [w.fixed[0], w.t1])
    v2 = evaluate(CUBE_PLUS_SQUARE, [w.fixed[0], w.t2])
    assert abs(v1 - v2) <= 1e-9
    # the square section is symmetric: witness points straddle zero
    assert w.t1 < 0 < w.t2


def test_pow_invertible_in_base():
    box = BoxDomain(((2.0, 3.0), (2.0, 3.0)))
    assert check_invertible(Prim(POW), 1, box, grid=17).invertible
    # oracle: dense scan of one section confirms strict increase
    vals = [evaluate(Prim(POW), [2.0 + k * 0.001, 2.5]) for k in range(1001)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_flat_section_yields_witness():
    const_in_2 = Compose(Lift(Prim(ADD), 2, (1, 2)), 2, Const(1.0))  # x1 + 1
    verdict = check_invertible(const_in_2, 2, BoxDomain(((0, 1), (0, 1))), grid=5)
    assert not verdict.invertible
    w = verdict.witness
    assert w.v1 == w.v2 and w.t1 != w.t2


def test_grid_validation():
    with pytest.raises(StructureError):
        check_invertible(Prim(POW), 1, BoxDomain(((1, 2), (1, 2))), grid=2)


# --- invert_primitive: the symbolic table ---

def test_invert_pow_about_base_is_root():
    inv = invert_primitive(POW, 1)
    # z = x1^x2, so x1 = z^(1/x2): slot 1 carries z
    assert evaluate(inv, [9.0, 2.0]) == pytest.approx(3.0, abs=1e-12)
    assert inv == Prim(ROOT)


def test_invert_pow_about_exponent_is_log():
    inv = invert_primitive(POW, 2)
    # z = x1^x2, so x2 = log of z in base x1: slot 2 carries z
    assert evaluate(inv, [2.0, 8.0]) == pytest.approx(3.0, abs=1e-12)


def test_invert_add_is_difference():
    inv = invert_primitive(ADD, 2)
    # z = x1 + x2, so x2 = z - x1: slot 2 carries z
    assert evaluate(inv, [1.5, 5.0]) == pytest.approx(3.5, abs=1e-12)
    inv1 = invert_primitive(ADD, 1)
    assert evaluate(inv1, [5.0, 1.5]) == pytest.approx(3.5, abs=1e-12)


def test_invert_identity():
    assert evaluate(invert_primitive(E, 1), [4.0]) == 4.0


def test_invert_table_unsupported():
    with pytest.raises(UnsupportedInverseError):
        invert_primitive(E, 2)


@pytest.mark.parametrize("op", [ADD, MUL, DIV, POW, ROOT, LOG])
@pytest.mark.parametrize("i", [1, 2])
def test_symbolic_inverse_round_trip(op, i):
    """For z = op(x1, x2), the table inverse recovers slot i exactly."""
    rng = random.Random(hash((op.value, i)) & 0xFFFF)
    inv = invert_primitive(op, i)
    for _ in range(100):
        x1 = rng.uniform(1.5, 3.0)
        x2 = rng.uniform(1.2, 2.5)
        z = evaluate(Prim(op), [x1, x2])
        args = [x1, x2]
        args[i - 1] = z
        recovered = evaluate(inv, args)
        assert recovered == pytest.approx((x1, x2)[i - 1], abs=1e-8)


# --- invert_at ---

def test_invert_at_square_two_roots():
    sq = x_pow(1, 1, 2.0)
    roots = invert_at(sq, 1, 0.25, [], BoxDomain(((-1.0, 1.0),)), tol=1e-10)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-0.5, abs=1e-8)
    assert roots[1] == pytest.approx(0.5, abs=1e-8)


def test_invert_at_pow_fixed_exponent():
    roots = invert_at(Prim(POW), 1, 9.0, [2.0], BoxDomain(((0.0, 5.0), (2.0, 2.0))))
    assert len(roots) == 1 and roots[0] == pytest.approx(3.0, abs=1e-8)


def test_invert_at_cube_negative_target():
    f = poly_sum(2, [(1, 3.0), (2, 2.0)])
    roots = invert_at(f, 1, -8.0, [0.0], BoxDomain(((-3.0, 3.0), (0.0, 0.0))))
    assert len(roots) == 1 and roots[0] == pytest.approx(-2.0, abs=1e-8)


def test_invert_at_no_root_is_empty():
    sq = x_pow(1, 1, 2.0)
    assert invert_at(sq, 1, 9.0, [], BoxDomain(((0.0, 1.0),))) == []


def test_invert_at_round_trip_residuals():
    rng = random.Random(17)
    sq = x_pow(1, 1, 2.0)
    for _ in range(25):
        target = rng.uniform(0.01, 0.9)
        for t in invert_at(sq, 1, target, [], BoxDomain(((-1.0, 1.0),)), tol=1e-10):
            assert abs(evaluate(sq, [t]) - target) <= 1e-10


def test_invert_at_skips_error_subintervals():
    # log base 2 of x over a domain crossing zero: nonpositive side errors out
    f, _ = normalize(Compose(Lift(Prim(LOG), 2, (1, 2)), 2, Const(2.0)))
    warnings = []
    roots = invert_at(f, 1, 3.0, [], BoxDomain(((-4.0, 16.0),)), warnings=warnings)
    assert len(roots) == 1 and roots[0] == pytest.approx(8.0, abs=1e-7)
    assert warnings  # the nonpositive stretch was skipped and recorded


def test_invert_at_nan_end_forms_no_bracket():
    # x*1e308 - x*1e308 - x^2 is NaN at t = +-2 (inf - inf) and -x^2 elsewhere:
    # the intervals with a NaN end are skipped and noted, not bisected
    form = to_structural(parse("add(add(mul(x,1e308),mul(x,-1e308)),mul(mul(x,x),-1))"))
    f, _, _ = collapse_unknowns(Equation(form.expr, form.binding, rhs=0.0, params={},
                                         domain=BoxDomain(((-2.0, 2.0),))))
    warnings = []
    roots = invert_at(f, 1, 0.0, [], BoxDomain(((-2.0, 2.0),)), grid=9, warnings=warnings)
    assert roots == [0.0]
    assert warnings == ["skipped interval [-2.0, -1.5]: nan",
                        "skipped interval [1.5, 2.0]: nan"]


# --- piecewise_split ---

def test_split_square_two_branches():
    sq = x_pow(1, 1, 2.0)
    pw = piecewise_split(sq, 1, BoxDomain(((-1.0, 1.0),)), grid=33)
    assert len(pw.branches) == 2
    (b1, b2) = pw.branches
    assert b1.interval[0] == -1.0 and b2.interval[1] == 1.0
    assert b1.interval[1] == b2.interval[0]            # shared endpoint
    assert abs(b1.interval[1]) < 1e-6                  # split near zero
    assert b1.sign == -1 and b2.sign == 1


def test_split_cube_one_branch():
    cube = x_pow(1, 1, 3.0)
    pw = piecewise_split(cube, 1, BoxDomain(((-1.0, 1.0),)), grid=33)
    assert len(pw.branches) == 1
    assert pw.branches[0].sign == 1
    assert pw.branches[0].interval == (-1.0, 1.0)


def test_split_cubic_three_branches():
    # x^3 - x: slope changes sign at +-1/sqrt(3).  Built as x1^3 - x2 on
    # two slots, then projected onto the diagonal.
    cube = x_pow(2, 1, 3.0)                                            # x1^3 at arity 2
    minus_x = compose_at(Lift(Prim(MUL), 2, (1, 2)), 1, Const(-1.0))   # -x2 at arity 2
    two_var = compose_at(compose_at(Lift(Prim(ADD), 2, (1, 2)), 1, cube), 2, minus_x)
    f = diagonal(two_var, 2, 1)
    assert f.arity == 1
    assert evaluate(f, [2.0]) == pytest.approx(6.0, abs=1e-12)  # 8 - 2

    # independent oracle: discrete slope sign changes on a dense scan
    ts = [-2.0 + 4.0 * k / 4000 for k in range(4001)]
    vals = [t ** 3 - t for t in ts]
    flips = [ts[k] for k in range(1, 4000)
             if (vals[k + 1] > vals[k]) != (vals[k] > vals[k - 1])]
    assert len(flips) == 2
    expected = 1.0 / math.sqrt(3.0)
    assert flips[0] == pytest.approx(-expected, abs=1e-2)
    assert flips[1] == pytest.approx(expected, abs=1e-2)

    pw = piecewise_split(f, 1, BoxDomain(((-2.0, 2.0),)), grid=65)
    assert len(pw.branches) == 3
    cuts = [b.interval[1] for b in pw.branches[:-1]]
    assert cuts[0] == pytest.approx(-expected, abs=1e-4)
    assert cuts[1] == pytest.approx(expected, abs=1e-4)
    assert [b.sign for b in pw.branches] == [1, -1, 1]
    # branch coverage: intervals tile the axis exactly
    assert pw.branches[0].interval[0] == -2.0
    assert pw.branches[-1].interval[1] == 2.0
    for a, b in zip(pw.branches, pw.branches[1:]):
        assert a.interval[1] == b.interval[0]


def test_split_branch_budget():
    sq = x_pow(1, 1, 2.0)
    with pytest.raises(DegenerateInputError):
        piecewise_split(sq, 1, BoxDomain(((-1.0, 1.0),)), grid=33, max_branches=1)


# --- inverse_fn ---

def test_inverse_fn_pow_cube_root():
    fn = inverse_fn(Prim(POW), 1, BoxDomain(((0.0, 5.0), (1.0, 4.0))), split_grid=9)
    roots = fn(27.0, 3.0)  # z=27 at slot 1, exponent 3
    assert len(roots) == 1 and roots[0] == pytest.approx(3.0, abs=1e-8)


def test_inverse_fn_x_to_x():
    xx = diagonal(Prim(POW), 1, 2)
    fn = inverse_fn(xx, 1, BoxDomain(((1.0, 4.0),)))
    roots = fn(27.0)
    assert len(roots) == 1 and roots[0] == pytest.approx(3.0, abs=1e-8)


def test_split_two_dimensional():
    # x1^2 + x2 about slot 1: the valley at x1=0 is shared by every fiber
    f = poly_sum(2, [(1, 2.0), (2, 1.0)])
    pw = piecewise_split(f, 1, BoxDomain(((-1.0, 1.0), (0.0, 1.0))), grid=17)
    assert len(pw.branches) == 2
    assert abs(pw.branches[0].interval[1]) < 1e-6
    assert pw.branches[0].sign == -1 and pw.branches[1].sign == 1


def test_inverse_fn_two_dimensional_multivalued():
    f = poly_sum(2, [(1, 2.0), (2, 1.0)])  # x1^2 + x2
    fn = inverse_fn(f, 1, BoxDomain(((-1.0, 1.0), (0.0, 1.0))), split_grid=17)
    roots = fn(0.75, 0.5)  # x1^2 = 0.25
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-0.5, abs=1e-8)
    assert roots[1] == pytest.approx(0.5, abs=1e-8)


def test_inverse_fn_multivalued():
    sq = x_pow(1, 1, 2.0)
    fn = inverse_fn(sq, 1, BoxDomain(((-1.0, 1.0),)))
    roots = fn(0.25)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-0.5, abs=1e-8)
    assert roots[1] == pytest.approx(0.5, abs=1e-8)
    assert len(fn.pieces.branches) == 2


# --- golden values: exact results of the scan/bisection core ---

LOG2, _ = normalize(Compose(Lift(Prim(LOG), 2, (1, 2)), 2, Const(2.0)))     # log2(x1)
CUBIC = diagonal(compose_at(compose_at(Lift(Prim(ADD), 2, (1, 2)), 1, x_pow(2, 1, 3.0)),
                            2, compose_at(Lift(Prim(MUL), 2, (1, 2)), 1, Const(-1.0))),
                 2, 1)                                                         # x^3 - x
FLAT_IN_2 = Compose(Lift(Prim(ADD), 2, (1, 2)), 2, Const(1.0))                # x1 + 1
SQUARE_PLUS = poly_sum(2, [(1, 2.0), (2, 1.0)])                               # x1^2 + x2
UNIT_SQUARE = BoxDomain(((0, 1), (0, 1)))
PLUS_MINUS_ONE = BoxDomain(((-1.0, 1.0), (-1.0, 1.0)))


def _invert_with_warnings(*args, **kw):
    warnings = []
    return invert_at(*args, warnings=warnings, **kw), warnings


GOLDEN = {
    "grid-point-roots": (
        lambda: _invert_with_warnings(x_pow(1, 1, 2.0), 1, 0.25, [], BoxDomain(((-1.0, 1.0),)),
                                      tol=1e-10, grid=9),
        "([-0.5, 0.5], [])"),
    "bisected-root": (
        lambda: _invert_with_warnings(Prim(POW), 1, 9.0, [2.0],
                                      BoxDomain(((0.0, 5.0), (2.0, 2.0))), tol=1e-12, grid=10),
        "([3.00000000000005], [])"),
    "bisection-abort": (
        lambda: _invert_with_warnings(Prim(DIV), 2, 0.5, [1.0],
                                      BoxDomain(((1.0, 1.0), (-1.0, 3.0))), tol=1e-9, grid=3),
        "([2.0], ['bisection aborted near t=0.0: division by zero'])"),
    "bisection-stall": (
        lambda: _invert_with_warnings(Prim(DIV), 2, 0.0, [1.0],
                                      BoxDomain(((1.0, 1.0), (-1.0, 0.5))), tol=1e-9, grid=3),
        "([], ['bisection stalled near t=0.5 (residual 2.0)'])"),
    "skipped-interval": (
        lambda: _invert_with_warnings(LOG2, 1, 3.0, [], BoxDomain(((-4.0, 16.0),)),
                                      tol=1e-9, grid=11),
        "([8.0], ['evaluation failed at t=-4.0: logarithm of a non-positive value', "
        "'evaluation failed at t=-2.0: logarithm of a non-positive value', "
        "'evaluation failed at t=0.0: logarithm of a non-positive value', "
        "'skipped interval [0.0, 2.0]'])"),
    "flat-step-witness": (
        lambda: check_invertible(FLAT_IN_2, 2, UNIT_SQUARE, grid=5, tol=1e-9),
        "InvertVerdict(invertible=False, witness=Witness(fixed=(0.0,), t1=0.0, t2=0.25, "
        "v1=1.0, v2=1.0))"),
    "turning-point-witness": (
        lambda: check_invertible(CUBE_PLUS_SQUARE, 2, PLUS_MINUS_ONE, grid=33, tol=1e-9),
        "InvertVerdict(invertible=False, witness=Witness(fixed=(-1.0,), "
        "t1=-0.04419417679309845, t2=0.04419417679309845, "
        "v1=-0.9980468747375804, v2=-0.9980468747375804))"),
    "invertible": (
        lambda: check_invertible(CUBE_PLUS_SQUARE, 1, PLUS_MINUS_ONE, grid=9, tol=1e-9),
        "InvertVerdict(invertible=True, witness=None)"),
    "three-branch-split": (
        lambda: piecewise_split(CUBIC, 1, BoxDomain(((-2.0, 2.0),)), grid=65, tol=1e-10).branches,
        "(Branch(interval=(-2.0, -0.5773502731187958), sign=1, branch_id=1), "
        "Branch(interval=(-0.5773502731187958, 0.5773502731187958), sign=-1, branch_id=2), "
        "Branch(interval=(0.5773502731187958, 2.0), sign=1, branch_id=3))"),
    "flat-split": (
        lambda: piecewise_split(FLAT_IN_2, 2, UNIT_SQUARE, grid=5, tol=1e-9),
        "DegenerateInputError: flat section segment on axis 2 near t=0.0: "
        "cannot isolate strictly monotone branches"),
    "two-dim-split": (
        lambda: piecewise_split(SQUARE_PLUS, 1, BoxDomain(((-1.0, 1.0), (0.0, 1.0))),
                                grid=17, tol=1e-9).branches,
        "(Branch(interval=(-1.0, -7.032441786194785e-11), sign=-1, branch_id=1), "
        "Branch(interval=(-7.032441786194785e-11, 1.0), sign=1, branch_id=2))"),
    "multi-branch-inverse-fn": (
        lambda: inverse_fn(CUBIC, 1, BoxDomain(((-2.0, 2.0),)), tol=1e-10, grid=257,
                           split_grid=33)(0.1),
        "[-0.94564927392914, -0.1010312578288459, 1.0466805317940984]"),
    "two-dim-inverse-fn": (
        lambda: inverse_fn(SQUARE_PLUS, 1, BoxDomain(((-1.0, 1.0), (0.0, 1.0))), tol=1e-9,
                           grid=129, split_grid=17)(0.75, 0.5),
        "[-0.5000000000351622, 0.4999999999648378]"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_values(name):
    """Exact roots, warnings, witnesses and branches at explicit tolerances."""
    call, expected = GOLDEN[name]
    try:
        got = repr(call())
    except DegenerateInputError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == expected
