"""Invertibility verdicts, symbolic and numeric partial inverses, splitting."""

import math
import random
import struct
from collections import Counter

import pytest

from mvfa.expr_core import (
    DEFAULT_TOL,
    BoxDomain,
    Compose,
    Const,
    EvalDomainError,
    Inverse,
    Lift,
    NoSolutionError,
    Prim,
    Primitive,
    StructureError,
    evaluate,
    lowered,
)
from mvfa.frontend import parse, to_structural
from mvfa.inverse import (
    DEFAULT_GRID,
    PRUNE_MISSES,
    Branch,
    DegenerateInputError,
    InvertVerdict,
    UnsupportedInverseError,
    _axis_points,
    _bisect,
    _edge_root,
    _refine_root,
    _section,
    check_invertible,
    inverse_fn,
    invert_at,
    invert_primitive,
    piecewise_split,
)
from mvfa.solver import Equation, bind_params, collapse_unknowns, solve
from mvfa.structure_ops import compose_at, diagonal, normalize

from util import ADD, DIV, E, LOG, MUL, POW, ROOT, full_scan_roots, poly_sum, x_pow


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
    # x + 1 = 3.5 at 2.5: a scan of fewer than 3 points is refused, not empty
    f, box = unary("add(x,1)", 0.0, 3.0), BoxDomain(((0.0, 3.0),))
    for grid in (0, 1, 2):
        with pytest.raises(StructureError):
            invert_at(f, 1, 3.5, [], box, grid=grid)
        with pytest.raises(StructureError):
            inverse_fn(f, 1, box, grid=grid)
    assert invert_at(f, 1, 3.5, [], box, grid=3) == pytest.approx([2.5])
    assert inverse_fn(f, 1, box, grid=3)(3.5) == pytest.approx([2.5])


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


@pytest.mark.parametrize("target", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda f, box, target: invert_at(f, 1, target, [], box),
    lambda f, box, target: inverse_fn(f, 1, box)(target),
], ids=["invert_at", "inverse_fn"])
def test_non_finite_target_is_refused(call, target):
    # refused as a non-finite fixed value is, not scanned to an empty result
    with pytest.raises(StructureError, match="target .* is not finite"):
        call(x_pow(1, 1, 2.0), BoxDomain(((0.0, 1.0),)), target)


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


@pytest.mark.parametrize("text", [
    # NaN at t = +-2 (inf - inf), -x^2 elsewhere
    "add(add(mul(x,1e308),mul(x,-1e308)),mul(mul(x,x),-1))",
    # +inf at t = +-2 and +-1.5 (x^2 * 1e308 overflows), a flat pair of infinities
    "mul(mul(x,x),1e308)",
], ids=["nan", "inf"])
def test_non_finite_section_values_give_no_witness(text):
    form = to_structural(parse(text))
    box = BoxDomain(((-2.0, 2.0),))
    f, _, _ = collapse_unknowns(Equation(form.expr, form.binding, rhs=0.0, params={},
                                         domain=box))
    verdict = check_invertible(f, 1, box, grid=9)
    w = verdict.witness
    # the true turning point at 0, not the stretch with non-finite values
    assert not verdict.invertible and w.t1 < 0 < w.t2
    assert math.isfinite(w.v1) and math.isfinite(w.v2) and abs(w.v1 - w.v2) <= 1e-9
    branches = piecewise_split(f, 1, box, grid=9).branches
    assert len(branches) == 2 and abs(branches[0].interval[1]) < 1e-6


# --- piecewise_split ---

def test_split_square_two_branches():
    sq = x_pow(1, 1, 2.0)
    pw = piecewise_split(sq, 1, BoxDomain(((-1.0, 1.0),)), grid=33)
    assert len(pw.branches) == 2
    (b1, b2) = pw.branches
    assert b1.interval[0] == -1.0 and b2.interval[1] == 1.0
    assert b1.interval[1] == b2.interval[0]            # shared endpoint
    assert abs(b1.interval[1]) < 1e-6                  # split near zero


def test_split_cube_one_branch():
    cube = x_pow(1, 1, 3.0)
    pw = piecewise_split(cube, 1, BoxDomain(((-1.0, 1.0),)), grid=33)
    assert len(pw.branches) == 1
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
    # branch coverage: intervals tile the axis exactly
    assert pw.branches[0].interval[0] == -2.0
    assert pw.branches[-1].interval[1] == 2.0
    for a, b in zip(pw.branches, pw.branches[1:]):
        assert a.interval[1] == b.interval[0]


def test_split_branch_budget(monkeypatch):
    import mvfa.inverse as inverse

    monkeypatch.setattr(inverse, "MAX_BRANCHES", 1)
    sq = x_pow(1, 1, 2.0)
    with pytest.raises(DegenerateInputError):
        piecewise_split(sq, 1, BoxDomain(((-1.0, 1.0),)), grid=33)


def test_split_probes_each_branch_at_its_own_tolerance(monkeypatch):
    # (x - 1)^2 over 0:2 turns once, so each of its two branches is probed;
    # the probe's witness bisections must run at the split's tolerance
    import mvfa.inverse as inverse

    tols = []
    probe = inverse._probe

    def spy(f, i, d, grid, *rest, **kw):
        tols.append(kw.get("tol", rest[0] if rest else None))
        return probe(f, i, d, grid, *rest, **kw)

    monkeypatch.setattr(inverse, "_probe", spy)
    f = to_structural(parse("pow(add(x,-1),2)")).expr
    pw = piecewise_split(f, 1, BoxDomain(((0.0, 2.0),)), grid=65, tol=1e-6)
    assert len(pw.branches) == 2 and tols == [1e-6, 1e-6]


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


# --- work counts: every scan point of a solve is evaluated once ---

def _solve_counting(monkeypatch, text, rhs, lo, hi):
    """Solve text = rhs over lo:hi; return the report, the number of point
    function calls the inverse core made at each t, and the equation."""
    import mvfa.inverse as inverse

    calls = Counter()
    lower = inverse.lowered

    def counting(e):
        fn = lower(e)

        def point(t):
            calls[t] += 1
            return fn(t)
        return point

    form = to_structural(parse(text))
    eq = Equation(form.expr, form.binding, rhs, {}, BoxDomain(((lo, hi),)))
    monkeypatch.setattr(inverse, "lowered", counting)
    report = solve(eq)
    monkeypatch.undo()
    return report, calls, eq


def test_one_branch_solve_evaluates_each_split_point_once(monkeypatch):
    # no turn: the split's scan checks the branch and serves the root scan
    report, calls, _ = _solve_counting(monkeypatch, "pow(x,x)", 10.0, 1.0, 4.0)
    assert report.roots == pytest.approx([2.5061841455887692], abs=1e-8)
    assert all(calls[t] == 1 for t in _axis_points(1.0, 4.0, 65))


def test_two_branch_solve_evaluates_each_scan_grid_once(monkeypatch):
    # the split's grid once, and each branch's grid once, in its probe; the
    # root scan reuses the probe's values
    report, calls, eq = _solve_counting(monkeypatch, "mul(add(x,-1),add(x,-1))", 0.25, 0.0, 3.0)
    assert report.roots == pytest.approx([0.5, 1.5], abs=1e-8)
    bound = bind_params(*collapse_unknowns(eq)[:2], {})
    pieces = piecewise_split(bound, 1, eq.domain, grid=65)
    assert len(pieces.branches) == 2
    grids = Counter(_axis_points(0.0, 3.0, 65))
    for branch in pieces.branches:
        grids.update(_axis_points(*branch.interval, 65))
    # the cut ends one branch grid and starts the next; the extremum
    # refinement that placed it may have evaluated it as well
    cut = pieces.branches[0].interval[1]
    assert calls.pop(cut) - grids.pop(cut) in (0, 1)
    assert all(calls[t] == n for t, n in grids.items())


# --- work counts: an Inverse formula scans only the blocks that can hold a root ---

def _formula_counts(monkeypatch, formula, point, prune=True, blocks=None, every_root=False,
                    refine=False, evaluated=None):
    """The first root of formula's Inverse node at point (None where there
    is none), with the number of scan points its scan passed to `_roots`
    and of enclosures it used (not those of a nested Inverse): through
    `evaluate`, or, without `prune`, through the reference scan of every
    point of the same grid (`full_scan_roots`).  With `every_root`, the
    scan is that of `invert_at` on the formula's axis, which goes on past
    the first root, and the first value is the list of all its roots.
    `blocks`, when a list, receives the grid indices (a, b) of each block
    enclosed, with whether its enclosure dropped it.  With `refine`, the
    counts also hold the section's evaluations at grid points ("grid": the
    scan points, and the probes and midpoints that place the search's
    splits) and between them ("refine": the bracket refinement).
    `evaluated`, when a Counter, receives the number of evaluations of the
    section at each grid point."""
    import mvfa.inverse as inverse

    counts = Counter()
    per_point = Counter() if evaluated is None else evaluated
    between = Counter()     # the evaluations elsewhere, per point
    i = formula.slot
    ts = _axis_points(*formula.axis, DEFAULT_GRID)
    grid = set(ts)
    ours = set()    # the counted sections of formula.inner
    roots_of, enclosure_of, section_of = inverse._roots, inverse.lowered_enclosure, inverse._section

    def counted_section(h):
        def counted(t):
            (per_point if t in grid else between)[t] += 1
            return h(t)
        ours.add(counted)
        return counted

    def counted_points(items):
        for item in items:
            counts["points"] += 1
            yield item

    def counting_roots(h, points, *args):
        return roots_of(h, counted_points(points) if h in ours else points, *args)

    def counting_enclosure(e, slot):
        enclose = enclosure_of(e, slot)
        if e is not formula.inner:
            return enclose

        def counted(lo, hi, *args):
            counts["enclosures"] += 1
            low, high = enclose(lo, hi, *args)
            if blocks is not None:
                blocks.append(((ts.index(lo), ts.index(hi)),
                               low > DEFAULT_TOL or high < -DEFAULT_TOL))
            return low, high
        counted.section = lambda *args: counted_section(enclose.section(*args))
        return counted

    def counting_section(f, *args):
        h = section_of(f, *args)
        return counted_section(h) if f is formula.inner else h

    monkeypatch.setattr(inverse, "_roots", counting_roots)
    monkeypatch.setattr(inverse, "lowered_enclosure", counting_enclosure)
    monkeypatch.setattr(inverse, "_section", counting_section)
    fixed = point[: i - 1] + point[i:]
    if not prune:
        roots = full_scan_roots(formula.inner, i, fixed, ts, point[i - 1], DEFAULT_TOL, [])
        root = list(roots) if every_root else next(roots, None)
    elif every_root:
        box = BoxDomain(tuple(formula.axis if k == i else (v, v)
                              for k, v in enumerate(point, start=1)))
        root = invert_at(formula.inner, i, point[i - 1], fixed, box)
    else:
        try:
            root = evaluate(formula, point)
        except NoSolutionError:
            root = None
    monkeypatch.undo()
    if refine:
        counts["grid"], counts["refine"] = sum(per_point.values()), sum(between.values())
    return root, counts


def _replay_formula(x=None):
    """The benchmark's formula-replay equation (x+a)^(x*b) = c over 0.5:3
    with a and b at a seeded point: its Inverse formula, the point (c, a, b)
    to evaluate it at, and its root x, the seeded one unless given."""
    rng = random.Random(1901)
    a, b = round(rng.uniform(0.5, 2.0), 4), round(rng.uniform(0.5, 2.0), 4)
    x = rng.uniform(0.6, 2.8) if x is None else x
    form = to_structural(parse("pow(add(x,a),mul(x,b))"))
    rhs = (x + a) ** (x * b)
    report = solve(Equation(form.expr, form.binding, rhs, {"a": a, "b": b},
                            BoxDomain(((0.5, 3.0),))))
    return report.formula, [rhs, a, b], x


def test_inverse_formula_scans_a_few_points(monkeypatch):
    # the values at the ends of the grid lie on either side of the target:
    # before any enclosure, the search bisects the grid indices for the
    # crossing cell (10 probes, and the two ends), whose left side drops
    for x, full, pruned in (
        # the seeded root mid-axis
        (None, 333, {"points": 3, "enclosures": 1, "grid": 12, "refine": 2}),
        # a root in the first 16 cells: the scan of every point reaches it
        # soon, and the split reaches it as soon as the seeded one
        (0.5 + 10.3 * 2.5 / (DEFAULT_GRID - 1), 12,
         {"points": 3, "enclosures": 1, "grid": 12, "refine": 4}),
    ):
        formula, point, x = _replay_formula(x)
        root, counts = _formula_counts(monkeypatch, formula, point, refine=True)
        want, before = _formula_counts(monkeypatch, formula, point, prune=False)
        assert root.hex() == want.hex() and root == pytest.approx(x, abs=1e-8)
        assert before == {"points": full}
        assert counts == pruned


def test_replay_evaluation_evaluates_no_point_twice(monkeypatch):
    # at 40 roots across the axis, a formula evaluation makes one
    # enclosure, evaluates no grid point twice (the first and the last
    # point, the 10 probes, and the crossing cell's ends among them) and
    # makes at most 17 section evaluations, refinement included; invert_at
    # encloses the right side of the crossing as well
    formula, (_, a, b), _ = _replay_formula()
    for every_root in (False, True):
        totals = Counter()
        for k in range(40):
            x = 0.6 + 2.2 * (k + 0.5) / 40
            evaluated = Counter()
            root, counts = _formula_counts(monkeypatch, formula, [(x + a) ** (x * b), a, b],
                                           every_root=every_root, refine=True,
                                           evaluated=evaluated)
            assert root == pytest.approx([x] if every_root else x, abs=1e-8)
            assert max(evaluated.values()) == 1
            assert counts["enclosures"] == 1 + every_root and counts["grid"] == 12
            totals[counts["grid"] + counts["refine"]] += 1
        assert totals == {14: 14, 16: 26}


@pytest.mark.parametrize("cell, every_root, pruned", [
    # the crossing in the first cell: no block before it, and the formula
    # stops at its root with no enclosure
    (0, False, {"points": 2, "grid": 12, "refine": 2}),
    (0, True, {"points": 3, "enclosures": 1, "grid": 12, "refine": 2}),
    # in the last cell: no block after it
    (DEFAULT_GRID - 2, False, {"points": 3, "enclosures": 1, "grid": 11, "refine": 4}),
    (DEFAULT_GRID - 2, True, {"points": 3, "enclosures": 1, "grid": 11, "refine": 4}),
], ids=["first-formula", "first-invert_at", "last-formula", "last-invert_at"])
def test_crossing_in_an_end_cell_yields_each_point_once(monkeypatch, cell, every_root, pruned):
    formula, (_, a, b), _ = _replay_formula()
    ts = _axis_points(*formula.axis, DEFAULT_GRID)
    x = 0.5 * ts[cell] + 0.5 * ts[cell + 1]
    root, counts = _formula_counts(monkeypatch, formula, [(x + a) ** (x * b), a, b],
                                   every_root=every_root, refine=True)
    assert root == pytest.approx([x] if every_root else x, abs=1e-8) and counts == pruned


LOOSE = "add(add(mul(x,x),mul(mul(x,x),-1)),x)"   # x*x - x*x + x, enclosed loosely


@pytest.mark.parametrize("text, axis, target, count, pruned, first", [
    # three roots: the bisection of the whole grid, before any enclosure,
    # lands on the last crossing, so its left side (0, 716) crosses twice
    # more; its enclosure straddles and it is halved, and each half is split
    # at its own crossing before its sides are enclosed
    ("mul(mul(add(x,-0.3),add(x,-0.5)),add(x,-0.7))", (0.0, 1.0), 0.0, 3,
     {"points": 9, "enclosures": 6, "grid": 31, "refine": 5},
     [((0, 716), False), ((0, 306), True), ((307, 358), True)]),
    # a root on the grid point 512: the right side of the first split starts
    # within tol there, so it and its left halves are halved with no
    # crossing search, one evaluation (the midpoint) each
    ("add(x,-512)", (0.0, 1023.0), 0.0, 1,
     {"points": 23, "enclosures": 12, "grid": 31, "refine": 0},
     [((0, 511), True), ((512, 1023), False), ((512, 767), False)]),
    # loose enclosures of the difference: the sides of the first split, at
    # 0.5, do not drop and are halved; each half is enclosed, the right one
    # after its left one dropped too
    (LOOSE, (0.0, 1.0), 0.5, 1,
     {"points": 62, "enclosures": 30, "grid": 70, "refine": 1},
     [((0, 511), False), ((0, 255), True), ((255, 511), False)]),
], ids=["three-roots", "end-within-tol", "loose"])
def test_split_finds_the_roots_of_the_scan_of_every_point(monkeypatch, text, axis, target,
                                                          count, pruned, first):
    # invert_at finds every root of the full scan, and the formula its first
    formula = Inverse(unary(text, *axis), 1, axis=axis)
    blocks = []
    roots, counts = _formula_counts(monkeypatch, formula, [target], blocks=blocks,
                                    every_root=True, refine=True)
    want, _ = _formula_counts(monkeypatch, formula, [target], prune=False, every_root=True)
    assert [r.hex() for r in roots] == [r.hex() for r in want] and len(roots) == count
    assert counts == pruned and blocks[: len(first)] == first
    root, _ = _formula_counts(monkeypatch, formula, [target])
    assert root.hex() == want[0].hex()


@pytest.mark.parametrize("text, t, value", [
    ("mul(x,-1)", 0.0, "-0x0.0p+0"),   # the target -0.0 turns it into 0.0
    ("add(mul(x,1e308),mul(x,-1e308))", 10.0, "nan"),   # inf - inf
    ("add(pow(x,2),-1)", 0.5, "-0x1.8000000000000p-1"),
])
def test_unary_section_is_its_function_minus_the_target(text, t, value):
    f = unary(text, -20.0, 20.0)
    fn = lowered(f)
    assert fn(t).hex() == value
    for target in (0.0, -0.0, 0.25):
        got = _section(f, 1, (), target)(t)
        assert struct.pack("<d", got) == struct.pack("<d", fn(t) - target)


@pytest.mark.parametrize("inner, axis, value", [
    # a nested Inverse: the cube root's inverse, y -> y**3, whose end values
    # cross, so the grid is bisected for the crossing before any enclosure
    (Inverse(x_pow(1, 1, 3.0), 1, axis=(0.0, 2.0)), (0.0, 8.0), 1.5),
    # 1/(x - 0.5), whose divisor range holds 0 on 0:2
    (to_structural(parse("div(1,add(x,-0.5))")).expr, (0.0, 2.0), 1.0),
])
def test_unbounded_inverse_formula_scans_every_point(monkeypatch, inner, axis, value):
    # the one enclosure, of the whole grid or of the left side of its
    # crossing, says it cannot bound its block, so the scan evaluates every
    # point the unpruned scan evaluates; beyond those it evaluates the last
    # grid point, and the crossing search's 10 probes but the 2 it keeps
    extra = {1.5: 1 + 10 - 2, 1.0: 1}[value]
    formula = Inverse(inner, 1, axis=axis)
    root, counts = _formula_counts(monkeypatch, formula, [value], refine=True)
    want, before = _formula_counts(monkeypatch, formula, [value], prune=False, refine=True)
    assert root.hex() == want.hex()
    assert counts == {"points": before["points"], "enclosures": 1,
                      "grid": before["grid"] + extra, "refine": before["refine"]}
    assert before["points"] == before["grid"] > DEFAULT_GRID // 3


def test_probe_that_does_not_evaluate_sends_its_block_to_its_enclosure(monkeypatch):
    # x + log2(x*x - 0.25) = 0 on -1:1: the end values cross, and the first
    # probe of the crossing search, at the grid point 512, falls in the gap
    # (-0.5, 0.5).  No enclosure vouched for it, so the whole grid goes to
    # its enclosure, which cannot bound it, and every point is scanned: the
    # probe's point is evaluated again and noted once, where the scan
    # reaches it, and the roots and warnings are those of the full scan
    f = unary("add(x,log(add(mul(x,x),-0.25),2))", -1.0, 1.0)
    ts = _axis_points(-1.0, 1.0, DEFAULT_GRID)
    warnings, notes = [], []
    roots = invert_at(f, 1, 0.0, [], BoxDomain(((-1.0, 1.0),)), warnings=warnings)
    want = list(full_scan_roots(f, 1, [], ts, 0.0, DEFAULT_TOL, notes))
    assert [r.hex() for r in roots] == [r.hex() for r in want] and len(roots) == 1
    assert warnings == notes and len(warnings) == 514
    formula = Inverse(f, 1, axis=(-1.0, 1.0))
    evaluated, blocks = Counter(), []
    _, counts = _formula_counts(monkeypatch, formula, [0.0], blocks=blocks, every_root=True,
                                refine=True, evaluated=evaluated)
    assert blocks == [((0, DEFAULT_GRID - 1), False)]
    assert counts == {"points": DEFAULT_GRID, "enclosures": 1, "grid": DEFAULT_GRID + 1,
                      "refine": 44}
    assert [ts.index(t) for t, n in evaluated.items() if n > 1] == [512]


def test_formula_stops_enclosing_where_no_block_drops(monkeypatch):
    # x*x - x*x + 1 = 1.000001 has no root, and each enclosure of the
    # difference is as wide as its block, so none drops one: after
    # PRUNE_MISSES of them the scan takes every remaining point, each
    # evaluated once (the ends of the halved blocks are evaluated as they
    # are halved, and kept)
    formula = Inverse(unary("add(add(mul(x,x),mul(mul(x,x),-1)),1)", 0.0, 1.0), 1,
                      axis=(0.0, 1.0))
    root, counts = _formula_counts(monkeypatch, formula, [1.000001], refine=True)
    assert root is None
    assert counts == {"points": DEFAULT_GRID, "enclosures": PRUNE_MISSES,
                      "grid": DEFAULT_GRID, "refine": 0}


# --- root refinement: Illinois steps, with bisection as the safeguard ---

def test_replay_root_bracket_is_refined_in_two_evaluations(monkeypatch):
    # at the seeded formula-replay point, the one bracket around the root
    # costs 2 evaluations of the section beyond its scan points, where
    # bisection cost 21; for the formula (first root) and invert_at alike
    formula, point, x = _replay_formula()
    for every_root, pruned in (
        (False, {"points": 3, "enclosures": 1, "grid": 12, "refine": 2}),
        (True, {"points": 4, "enclosures": 2, "grid": 12, "refine": 2}),
    ):
        root, counts = _formula_counts(monkeypatch, formula, point, every_root=every_root,
                                       refine=True)
        assert root == pytest.approx([x] if every_root else x, abs=1e-8) and counts == pruned


def _refined(search, h, a, b, tol=DEFAULT_TOL):
    """`search`'s (t, |h(t)|) on the bracket (a, b), its notes and the
    number of evaluations of h it made."""
    calls, notes = [], []

    def counted(t):
        calls.append(t)
        return h(t)
    t, err = search(counted, a, b, h(a), h(b), tol, notes)
    return t, err, notes, len(calls)


@pytest.mark.parametrize("h, a, b", [
    (lambda t: math.exp(40 * t) - 2, -1.0, 1.0),
    (lambda t: t ** 15 - 1e-3, 0.0, 2.0),
    (lambda t: math.tanh(1e4 * (t - 0.3)), 0.0, 1.0),
    (lambda t: math.copysign(abs(t - 0.7) ** (1 / 3), t - 0.7), -1.0, 2.0),
], ids=["exp", "t^15", "tanh-step", "cube-root-kink"])
def test_refinement_makes_no_more_evaluations_than_bisection(h, a, b):
    # brackets where a secant step gains little: the midpoint safeguard
    # keeps the refinement within bisection's count
    t, err, notes, refined = _refined(_refine_root, h, a, b)
    t0, err0, notes0, bisected = _refined(_bisect, h, a, b)
    assert err <= DEFAULT_TOL and a < t < b and notes == notes0 == []
    assert refined <= bisected


def _gap_at_half(t):
    if 0.45 < t < 0.55:
        raise EvalDomainError("undefined near 0.5")
    return t - 0.5


ONE_ULP = math.nextafter(1.0, 2.0)


@pytest.mark.parametrize("h, a, b, t, notes, evaluations", [
    # a*hb - b*ha overflows: the steps are midpoints until the secant fits
    (lambda t: (t - 1.5e308) / 1e300, 1e308, 1.7e308, 1.5e308, [], 29),
    (lambda t: (t + 1.5e308) / 1e300, -1.7e308, -1e308, -1.5e308, [], 29),
    # ends in descending order, as `_edge_root` passes them walking left
    (lambda t: t * t - 2, 2.0, 0.0, 1.4142135622801104, [], 7),
    # the first secant point does not evaluate
    (_gap_at_half, 0.0, 1.0, 0.5, ["bisection aborted near t=0.5: undefined near 0.5"], 1),
    # the midpoint of a bracket one ulp wide is an end: a stall, at once
    (lambda t: -2.0 if t == 1.0 else 1.0, 1.0, ONE_ULP, ONE_ULP,
     [f"bisection stalled near t={ONE_ULP!r} (residual 1.0)"], 0),
], ids=["overflow-high", "overflow-low", "descending", "eval-error", "one-ulp"])
def test_refinement_edge_cases(h, a, b, t, notes, evaluations):
    got, err, got_notes, count = _refined(_refine_root, h, a, b)
    assert (got, got_notes, count) == (t, notes, evaluations)
    assert err <= DEFAULT_TOL or notes
    # the same bracket with its ends swapped is refined alike
    assert _refined(_refine_root, h, b, a) == (got, err, got_notes, count)


def test_bisection_of_a_one_ulp_bracket_stalls_at_once():
    # the midpoint rounds to an end, so no step can narrow the bracket
    h = lambda t: (t - 1.0) * 1e20 - 5e3
    assert _refined(_bisect, h, 1.0, ONE_ULP) == (
        1.0, 5000.0, ["bisection stalled near t=1.0 (residual 5000.0)"], 0)


def test_witness_bisection_near_the_top_of_the_float_range():
    # ((x - 1.5e308) / 1e300)^2 turns at 1.5e308; the sum of two ends near
    # 1.7e308 overflows, and each witness end must still be a midpoint
    f = unary("pow(div(add(x,-1.5e308),1e300),2)", 1e308, 1.7e308)
    w = check_invertible(f, 1, BoxDomain(((1e308, 1.7e308),)), grid=9).witness
    assert w.t1 < 1.5e308 < w.t2
    assert w.v1 == pytest.approx(2.265625e13) and abs(w.v1 - w.v2) <= DEFAULT_TOL


def test_witness_level_near_the_top_of_the_float_range():
    # 1.7e308 - 1e307 x^2 peaks at 1.7e308; the sum of the peak value and
    # its neighbour's overflows, and the witness level must not
    f = unary("add(1.7e308,mul(mul(x,x),-1e307))", -2.0, 2.0)
    verdict = check_invertible(f, 1, BoxDomain(((-2.0, 2.0),)), grid=5)
    w = verdict.witness
    assert not verdict.invertible and w.t1 < 0 < w.t2 and w.v1 == w.v2


# --- undefined stretches: a gap in every scan, never an error ---

RECIP, _ = normalize(Compose(Lift(Prim(DIV), 2, (1, 2)), 1, Const(1.0)))    # 1/x1


def unary(text: str, lo: float, hi: float):
    form = to_structural(parse(text))
    f, _, _ = collapse_unknowns(Equation(form.expr, form.binding, rhs=0.0, params={},
                                         domain=BoxDomain(((lo, hi),))))
    return f


def test_invert_at_searches_up_to_the_gap_edge():
    # log2((x-1)(x-3)) = -6 at 0.99222 and 3.00778: at 65 points each root
    # lies in a scan cell with one undefined end, 1.0 or 3.0
    f = unary("log(mul(add(x,-1),add(x,-3)),2)", 0.0, 4.0)
    warnings = []
    roots = invert_at(f, 1, -6.0, [], BoxDomain(((0.0, 4.0),)), grid=65, warnings=warnings)
    half_width = math.sqrt(1 + 2 ** -6)
    assert roots == pytest.approx([2 - half_width, 2 + half_width], abs=1e-8)
    assert "skipped interval [0.9375, 1.0]" in warnings
    assert "skipped interval [3.0, 3.0625]" in warnings


def test_gap_edge_walk_near_the_top_of_the_float_range():
    # sqrt((x - 1.6e308) / 1e308) = 0.005 between the gap edge at 1.6e308
    # and the first defined scan point; the sum of two points of the walk
    # toward the gap overflows, and each must still be a midpoint
    f = unary("root(div(add(x,-1.6e308),1e308),2)", 1e308, 1.7e308)
    roots = invert_at(f, 1, 0.005, [], BoxDomain(((1e308, 1.7e308),)))
    assert roots == [pytest.approx(1.600025e308, rel=1e-12)]


def test_gap_edge_walk_stops_where_the_midpoint_is_an_end():
    # sqrt((x - 1.6e308) / 1e308) + 1 has no root; its gap edge at 1.6e308
    # is first reached where tol is far below the float spacing, so the
    # walk toward the gap ends once its midpoint rounds to an end
    h = lowered(unary("add(root(div(add(x,-1.6e308),1e308),2),1)", 1e308, 1.7e308))
    calls, notes = [], []

    def counted(t):
        calls.append(t)
        return h(t)
    start, gap = 1.60009775e308, 1.59941349e308
    assert _edge_root(counted, start, h(start), gap, DEFAULT_TOL, notes) == (1.6e308, 1.0)
    assert (len(calls), notes) == (41, [])


def test_nested_inverse_at_a_non_finite_argument_is_a_gap():
    # h(x) = I_1(add)(1, x*1e308*10) on 0:1: past x = 0.18 the product is
    # inf, where the nested Inverse does not evaluate
    mul = Lift(Prim(MUL), 2, (1, 2))
    scaled = Compose(Compose(mul, 2, Const(10.0)), 1, Compose(mul, 2, Const(1e308)))
    inv = Inverse(Prim(ADD), 1, axis=(-10.0, 10.0))
    h, _ = normalize(Compose(Compose(inv, 1, Const(1.0)), 2, scaled))
    box = BoxDomain(((0.0, 1.0),))
    with pytest.raises(EvalDomainError, match="non-finite argument of an inverse") as info:
        evaluate(h, [0.5])
    assert info.value.node is inv
    warnings = []
    assert invert_at(h, 1, 0.5, [], box, warnings=warnings) == []
    assert any("non-finite argument of an inverse" in w for w in warnings)
    assert check_invertible(h, 1, box, 33).invertible
    assert inverse_fn(h, 1, box)(0.5) == []


def test_witness_bisection_into_a_pole_gives_no_witness():
    # on the grid -3, -1, 1, 3 the values -1/3, -1, 1, 1/3 turn twice, and
    # one witness bisection of each turn lands on the pole at 0
    verdict = check_invertible(RECIP, 1, BoxDomain(((-3.0, 3.0),)), grid=4)
    assert verdict == InvertVerdict(True, None)


@pytest.mark.parametrize("text, lo, hi", [
    ("log(x,2)", -4.0, 16.0),
    ("log(x,0.5)", -4.0, 16.0),
    # falls on [0, 1), undefined on [1, 3], rises on (3, 4]: no values are
    # compared across the gap, so the two runs make one branch
    ("log(mul(add(x,-1),add(x,-3)),2)", 0.0, 4.0),
], ids=["log2", "log-half", "two-runs"])
def test_undefined_stretch_is_skipped_not_cut(text, lo, hi):
    f = unary(text, lo, hi)
    box = BoxDomain(((lo, hi),))
    assert check_invertible(f, 1, box, grid=65).invertible
    assert piecewise_split(f, 1, box, grid=65).branches == (Branch((lo, hi)),)


def test_cut_refinement_stops_at_a_gap():
    # sqrt((x-0.3)(x-0.4)) is undefined on (0.3, 0.4), between grid points;
    # the refinement of the slope's root around the grid turn at 0.5 meets
    # it, and the cut falls where it stopped, here inside the undefined stretch
    f = unary("root(mul(add(x,-0.3),add(x,-0.4)),2)", -1.0, 1.0)
    box = BoxDomain(((-1.0, 1.0),))
    (a, cut), (cut_again, b) = (branch.interval
                                for branch in piecewise_split(f, 1, box, grid=5).branches)
    assert (a, cut_again, b) == (-1.0, cut, 1.0) and 0.3 < cut < 0.4
    with pytest.raises(EvalDomainError):
        evaluate(f, [cut])
    roots = inverse_fn(f, 1, box, split_grid=5)(0.2)
    assert roots == pytest.approx([0.35 - math.sqrt(0.0425), 0.35 + math.sqrt(0.0425)], abs=1e-8)


def test_cut_next_to_a_gap_edge_on_the_grid():
    # sqrt(x) - 3x peaks at 1/36; its grid turn is ts[33] = 0.03125, and the
    # gap x < 0 begins just below ts[32] = 0.0, the bracket's left end, where
    # a difference centred on that end would not evaluate
    f = unary("add(root(x,2),mul(x,-3))", -1.0, 1.0)
    box = BoxDomain(((-1.0, 1.0),))
    (_, cut), _ = (branch.interval for branch in piecewise_split(f, 1, box, grid=65).branches)
    assert cut == pytest.approx(1 / 36, abs=DEFAULT_TOL)
    # u - 3u^2 = 0.0832 at u = sqrt(x) = 0.16 and 0.52 / 3
    roots = inverse_fn(f, 1, box, split_grid=65)(0.0832)
    assert roots == pytest.approx([0.0256, (0.52 / 3) ** 2], abs=1e-8)


def test_cut_is_a_root_of_the_slope_in_a_few_evaluations(monkeypatch):
    # x^3 - x turns at -+1/sqrt(3); each cut is the root of a central
    # difference of the section, refined to float resolution
    import mvfa.inverse as inverse

    calls = []
    section = inverse._section

    def counted(*args):
        s, seen = section(*args), []
        calls.append(seen)
        return lambda t: seen.append(t) or s(t)

    monkeypatch.setattr(inverse, "_section", counted)
    branches = piecewise_split(CUBIC, 1, BoxDomain(((-2.0, 2.0),)), grid=65).branches
    assert [branch.interval[1] for branch in branches[:-1]] == [
        pytest.approx(-1 / math.sqrt(3), abs=DEFAULT_TOL),
        pytest.approx(1 / math.sqrt(3), abs=DEFAULT_TOL)]
    # the split's fiber: its 65 scan points, then the cuts, one on each side of 0
    refined = calls[0][65:]
    assert 0 < sum(t < 0 for t in refined) <= 30 and 0 < sum(t > 0 for t in refined) <= 30


def test_cut_without_a_slope_sign_change_is_the_grid_turn():
    # across the pole of 1/x on -1:0.9 the scan jumps from -49.2 to 106.7,
    # two grid turns; the slope is negative at both ends of each bracket, so
    # each cut is its grid turn, and the second, one cell from the first,
    # is merged into it
    f = unary("div(1,x)", -1.0, 0.9)
    ts = _axis_points(-1.0, 0.9, 65)
    with pytest.raises(DegenerateInputError) as info:
        piecewise_split(f, 1, BoxDomain(((-1.0, 0.9),)), grid=65)
    assert str(info.value) == f"branch 2 [{ts[33]!r}, 0.9] is not monotone at grid 65"


# --- golden values: exact results of the scan/bisection core ---

LOG2, _ = normalize(Compose(Lift(Prim(LOG), 2, (1, 2)), 2, Const(2.0)))     # log2(x1)
CUBIC = diagonal(compose_at(compose_at(Lift(Prim(ADD), 2, (1, 2)), 1, x_pow(2, 1, 3.0)),
                            2, compose_at(Lift(Prim(MUL), 2, (1, 2)), 1, Const(-1.0))),
                 2, 1)                                                         # x^3 - x
FLAT_IN_2 = Compose(Lift(Prim(ADD), 2, (1, 2)), 2, Const(1.0))                # x1 + 1
SQUARE_PLUS = poly_sum(2, [(1, 2.0), (2, 1.0)])                               # x1^2 + x2
WELL = to_structural(parse("mul(pow(add(x,-0.5),2),1e12)")).expr            # 1e12 (x - 0.5)^2
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
        "([2.9999999999999956], [])"),
    # a root bracket that spans the pole at 0: the refinement stalls next to
    # it on [-1, 1], and its second secant point meets it on [-1, 0.5]
    "bisection-abort": (
        lambda: _invert_with_warnings(Prim(DIV), 2, 0.5, [1.0],
                                      BoxDomain(((1.0, 1.0), (-1.0, 3.0))), tol=1e-9, grid=3),
        "([2.00000000352902], ['bisection stalled near t=1.0 (residual 0.5)'])"),
    "bisection-stall": (
        lambda: _invert_with_warnings(Prim(DIV), 2, 0.0, [1.0],
                                      BoxDomain(((1.0, 1.0), (-1.0, 0.5))), tol=1e-9, grid=3),
        "([], ['bisection aborted near t=0.0: division by zero'])"),
    "skipped-interval": (
        lambda: _invert_with_warnings(LOG2, 1, 3.0, [], BoxDomain(((-4.0, 16.0),)),
                                      tol=1e-9, grid=11),
        "([8.0], ['evaluation failed at t=-4.0: logarithm of a non-positive value', "
        "'evaluation failed at t=-2.0: logarithm of a non-positive value', "
        "'evaluation failed at t=0.0: logarithm of a non-positive value', "
        "'skipped interval [0.0, 2.0]'])"),
    # every grid point is a root, each its own group
    "constant-section": (
        lambda: _invert_with_warnings(FLAT_IN_2, 2, 1.0, [0.0], UNIT_SQUARE, tol=1e-9, grid=5),
        "([0.0, 0.25, 0.5, 0.75, 1.0], [])"),
    # two bracketed roots 6.3e-9 apart, in the cells on either side of 0.5:
    # one group, and the root of least residual
    "close-roots-one-group": (
        lambda: _invert_with_warnings(WELL, 1, 1e-5, [], BoxDomain(((0.4999, 0.5001),)),
                                      tol=1e-9, grid=41),
        "([0.5000000031622229], [])"),
    "formula-close-roots": (
        lambda: evaluate(Inverse(WELL, 1, axis=(0.499489, 0.500512)), [1e-5]),
        "0.5000000031621702"),
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
        "(Branch(interval=(-2.0, -0.5773502691832202)), "
        "Branch(interval=(-0.5773502691832202, 0.5773502691832202)), "
        "Branch(interval=(0.5773502691832202, 2.0)))"),
    "flat-split": (
        lambda: piecewise_split(FLAT_IN_2, 2, UNIT_SQUARE, grid=5, tol=1e-9),
        "DegenerateInputError: flat section segment on axis 2 near t=0.0: "
        "cannot isolate strictly monotone branches"),
    "two-dim-split": (
        lambda: piecewise_split(SQUARE_PLUS, 1, BoxDomain(((-1.0, 1.0), (0.0, 1.0))),
                                grid=17, tol=1e-9).branches,
        "(Branch(interval=(-1.0, 0.0)), Branch(interval=(0.0, 1.0)))"),
    "multi-branch-inverse-fn": (
        lambda: inverse_fn(CUBIC, 1, BoxDomain(((-2.0, 2.0),)), tol=1e-10, grid=257,
                           split_grid=33)(0.1),
        "[-0.9456492739227879, -0.10103125788101083, 1.0466805318044134]"),
    "two-dim-inverse-fn": (
        lambda: inverse_fn(SQUARE_PLUS, 1, BoxDomain(((-1.0, 1.0), (0.0, 1.0))), tol=1e-9,
                           grid=129, split_grid=17)(0.75, 0.5),
        "[-0.5, 0.5]"),
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
