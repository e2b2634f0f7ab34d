"""Property tests: structural evaluation against pointful oracles, bitwise.

The structural compiler and the structural operators must reproduce the
pointful value exactly, not just within a tolerance: they route
coordinates, and routing changes no float operation.  Likewise an Inverse
formula, whose scan stops early and skips the blocks that its range
enclosure rules out, must give invert_at's first root exactly, and
invert_at, which skips the same blocks, the roots and warnings of the scan
of every point; each enclosure must hold every value of the scan it rules
on, and equal bitwise the same rules walked over the tree; the section the
search evaluates must be the point function minus the target, errors
included; and the inverse core must treat every point where a function is
undefined as a gap, never as an error.  The operator notation must read
back every expression, Inverse nodes included, as one that evaluates
bitwise alike.
Expressions of one shape share their compiled code, and each must still
evaluate as its own fresh compile does, constants, error node and point
included.
A root bracket's refinement must end strictly inside it within tol, or
note why, and halve it at least every 3 evaluations.
A solve, which scans each monotone branch only at its split's resolution,
must find the roots an independent dense scan finds, next to the stretches
where a function is undefined too.
"""

import dataclasses
import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvfa import expr_core
from mvfa.expr_core import (
    DEFAULT_TOL,
    BoxDomain,
    Compose,
    Const,
    Diagonal,
    EvalError,
    Expr,
    Inverse,
    Lift,
    NoSolutionError,
    Prim,
    Primitive,
    evaluate,
    lowered,
    lowered_enclosure,
)
from mvfa.frontend import (
    AstCall, AstConst, AstSymbol, format_expr, parse, parse_structural, to_structural,
)
from mvfa.inverse import (
    DEFAULT_GRID, DegenerateInputError, _axis_points, _refine_root, _scan_fiber, _section,
    _values, check_invertible, inverse_fn, invert_at,
)
from mvfa.solver import Equation, solve
from mvfa.structure_ops import compose_at, diagonal, lift, normalize, substitute_const

from util import (
    ADD, DIV, E, LOG, MUL, POW, ROOT, ast_eval, count_symbols, full_scan_roots,
    reference_enclosure, scan_roots,
)

# Seeded, so tier-1 runs are reproducible, and without a deadline, so a
# slow shared host does not turn timing into a failure.
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)

SYMBOLS = ("u", "v", "w")


def asts(prims, constants, max_leaves):
    leaves = st.one_of(st.sampled_from(SYMBOLS).map(AstSymbol), constants.map(AstConst))
    return st.recursive(
        leaves,
        lambda sub: st.builds(AstCall, st.sampled_from(prims), sub, sub),
        max_leaves=max_leaves)


def rounded(lo, hi):
    return st.floats(lo, hi).map(lambda v: round(v, 3))


# add/mul/pow/div over mixed-sign constants and coordinates: domain errors,
# overflow and complex results happen and are filtered out.
MIXED = asts((ADD, MUL, POW, DIV), st.one_of(rounded(-3.0, 3.0), st.integers(-3, 3).map(float)), 8)
MIXED_VALUE = st.one_of(st.floats(0.25, 3.0), st.integers(-3, 3).map(float))

# MIXED with the constants whose text is hardest to get back bitwise:
# -0.0, subnormals, and magnitudes of 1e16 and above (no longer integer text).
TINY = sys.float_info.min   # the smallest normal float: nearer zero, all are subnormal
EDGE_CONSTANTS = st.one_of(rounded(-3.0, 3.0), st.just(-0.0), st.floats(-TINY, TINY),
                           st.floats(1e16, 1e300), st.floats(-1e300, -1e16))
EDGE = asts((ADD, MUL, POW, DIV), EDGE_CONSTANTS, 8)

# log/root/div towers over mixed-sign constants: each is undefined somewhere
# on a box whose every axis crosses zero.
PARTIAL = asts((LOG, ROOT, DIV, ADD),
               st.one_of(rounded(-3.0, 3.0), st.integers(-3, 3).map(float)), 6)

# add/mul/pow over [0.5, 2]: no domain errors (towers may still overflow).
TAME = asts((ADD, MUL, POW), rounded(0.5, 2.0), 6)


def tame_point(n):
    return st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)


def structural(ast):
    """The structural form of ast; an all-constant tower that overflows
    while being folded is rejected."""
    try:
        return to_structural(ast).expr
    except EvalError:
        assume(False)


def outcome(e, point):
    """The bitwise value of e at point, or the error it raises."""
    try:
        return evaluate(e, point).hex()
    except EvalError as exc:
        return (type(exc).__name__, str(exc), exc.point)


@PROPERTY
@given(ast=MIXED, values=st.tuples(MIXED_VALUE, MIXED_VALUE, MIXED_VALUE))
def test_structural_form_evaluates_as_pointful_ast(ast, values):
    env = dict(zip(SYMBOLS, values))
    try:
        want = ast_eval(ast, env)
    except (ZeroDivisionError, OverflowError):
        want = None
    assume(isinstance(want, float) and math.isfinite(want))
    form = to_structural(ast)
    point = [env[form.binding[s]] for s in range(1, form.expr.arity + 1)]
    assert evaluate(form.expr, point).hex() == want.hex()


@PROPERTY
@given(ast=TAME, data=st.data())
def test_lift_routes_coordinates(ast, data):
    f = structural(ast)
    m = data.draw(st.integers(f.arity, f.arity + 2))
    positions = data.draw(st.permutations(range(1, m + 1)))[: f.arity]
    x = data.draw(tame_point(m))
    assert outcome(lift(f, m, positions), x) == outcome(f, [x[p - 1] for p in positions])


@PROPERTY
@given(ast=TAME, data=st.data())
def test_diagonal_feeds_coordinate_j_to_slot_i(ast, data):
    f = structural(ast)
    n = f.arity
    assume(n >= 2)
    i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
    y = data.draw(tame_point(n - 1))

    def renumbered(k):  # position of original slot k once slot i is deleted
        return k - 1 if k > i else k

    x = [y[renumbered(j) - 1] if k == i else y[renumbered(k) - 1] for k in range(1, n + 1)]
    assert outcome(diagonal(f, i, j), y) == outcome(f, x)


@PROPERTY
@given(ast=TAME, data=st.data())
def test_diagonal_factors_through_compose_and_lift(ast, data):
    # diagonal(f, i, j) = normalize(compose_at(f, i, lift(e, n, (j,)))): both
    # sides only route coordinates, so they agree bitwise
    f = structural(ast)
    n = f.arity
    assume(n >= 2)
    i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
    left = diagonal(f, i, j)
    right, mapping = normalize(compose_at(f, i, lift(Prim(E), n, (j,))))
    assert mapping == {k: k - 1 if k > i else k for k in range(1, n + 1) if k != i}
    y = data.draw(tame_point(n - 1))
    assert outcome(right, y) == outcome(left, y)


@PROPERTY
@given(f_ast=TAME, g_ast=asts((ADD, MUL, POW), rounded(0.5, 2.0), 3), data=st.data())
def test_compose_at_feeds_g_into_slot(f_ast, g_ast, data):
    f = structural(f_ast)
    g = structural(g_ast)
    n = f.arity
    assume(n >= 1 and g.arity <= n)
    i = data.draw(st.integers(1, n))
    x = data.draw(tame_point(n))
    if 0 < g.arity < n:
        positions = data.draw(st.permutations(range(1, n + 1)))[: g.arity]
        g_point = [x[p - 1] for p in positions]
    else:
        positions = None
        g_point = x if g.arity else []
    try:
        fed = list(x)
        fed[i - 1] = evaluate(g, g_point)
    except EvalError:
        assume(False)
    assert outcome(compose_at(f, i, g, positions), x) == outcome(f, fed)


@PROPERTY
@given(ast=TAME, pin=st.booleans(), data=st.data())
def test_normalize_keeps_values_of_used_slots(ast, pin, data):
    f = structural(ast)
    m = data.draw(st.integers(max(f.arity, 1), f.arity + 3))
    positions = data.draw(st.permutations(range(1, m + 1)))[: f.arity]
    x = data.draw(tame_point(m))
    e = lift(f, m, positions)
    if pin:
        s = data.draw(st.integers(1, m))
        c = data.draw(rounded(0.5, 2.0))
        e = substitute_const(e, s, c)
        x[s - 1] = float(c)
    try:
        out, mapping = normalize(e)
    except EvalError:  # nothing stays used and the constant overflows
        assume(False)
    assert out.arity == len(mapping) and sorted(mapping) == sorted(e.used_slots)
    y = [0.0] * out.arity
    for s, k in mapping.items():
        y[k - 1] = x[s - 1]
    assert outcome(out, y) == outcome(f, [x[p - 1] for p in positions])


def _full_scan(f, i, target, fixed, box):
    """The roots, as hex texts, and the notes of the scan of every point of
    invert_at's grid."""
    notes = []
    ts = _axis_points(*box.axis(i), DEFAULT_GRID)
    roots = full_scan_roots(f, i, fixed, ts, target, DEFAULT_TOL, notes)
    return [r.hex() for r in roots], notes


@PROPERTY
@given(ast=st.one_of(MIXED, PARTIAL), data=st.data())
def test_inverse_formula_is_first_root_of_invert_at(ast, data):
    # the formula's scan stops at its first root; invert_at scans the whole
    # axis.  Mixed signs make subintervals fail (domain errors, overflow),
    # and log and root towers have gap edges, where the search's probes,
    # made before any enclosure, may fail.
    f = structural(ast)
    assume(f.arity >= 1)
    i = data.draw(st.integers(1, f.arity))
    # a one-point axis in about one draw of ten; otherwise distinct ends,
    # so the scan has a grid to prune
    lo = data.draw(rounded(-3.0, 3.0))
    one_point = data.draw(st.integers(0, 9)) == 0
    hi = lo if one_point else round(lo + data.draw(rounded(0.01, 6.0)), 3)
    fixed = data.draw(st.lists(MIXED_VALUE, min_size=f.arity - 1, max_size=f.arity - 1))
    # mostly a planted root: the value at a drawn point of the axis
    t = lo + (hi - lo) * data.draw(st.floats(0.0, 1.0))
    try:
        target = evaluate(f, fixed[: i - 1] + [t] + fixed[i - 1:])
    except EvalError:
        target = math.inf
    if not abs(target) < 1e6:
        target = data.draw(rounded(-4.0, 4.0))
    point = fixed[: i - 1] + [target] + fixed[i - 1:]
    box = BoxDomain(tuple((lo, hi) if k == i else (v, v) for k, v in enumerate(point, start=1)))
    warnings = []
    roots = invert_at(f, i, target, fixed, box, warnings=warnings)
    assert _full_scan(f, i, target, fixed, box) == ([r.hex() for r in roots], warnings)
    formula = Inverse(f, i, axis=(lo, hi))
    if roots:
        assert evaluate(formula, point).hex() == roots[0].hex()
    else:
        with pytest.raises(NoSolutionError):
            evaluate(formula, point)
    # and so does the formula read back from its text
    assert outcome(parse_structural(format_expr(formula)), point) == outcome(formula, point)


@PROPERTY
@given(ast=TAME, data=st.data())
def test_pruned_formula_is_first_root_of_invert_at(ast, data):
    # towers over positive ranges can be bounded, so the formula's scan
    # drops blocks of its grid, which the mixed-sign draws above seldom do
    f = structural(ast)
    assume(f.arity >= 1)
    i = data.draw(st.integers(1, f.arity))
    lo, hi = data.draw(st.tuples(rounded(0.5, 1.0), rounded(1.5, 2.0)))
    fixed = data.draw(tame_point(f.arity - 1))
    try:
        target = evaluate(f, fixed[: i - 1] + [data.draw(st.floats(lo, hi))] + fixed[i - 1:])
    except EvalError:   # the tower overflows
        assume(False)
    point = fixed[: i - 1] + [target] + fixed[i - 1:]
    box = BoxDomain(tuple((lo, hi) if k == i else (v, v) for k, v in enumerate(point, start=1)))
    warnings = []
    roots = invert_at(f, i, target, fixed, box, warnings=warnings)
    assert _full_scan(f, i, target, fixed, box) == ([r.hex() for r in roots], warnings)
    formula = Inverse(f, i, axis=(lo, hi))
    if roots:
        assert evaluate(formula, point).hex() == roots[0].hex()
    else:   # a planted root where the function only touches the target
        with pytest.raises(NoSolutionError):
            evaluate(formula, point)


@PROPERTY
@given(ast=st.one_of(EDGE, MIXED, PARTIAL), data=st.data())
def test_enclosure_holds_every_scan_value(ast, data):
    # an Inverse formula's scan drops a block of its grid on the word of the
    # enclosure: every point of it must evaluate, to a value inside it
    f = structural(ast)
    assume(f.arity >= 1)
    i = data.draw(st.integers(1, f.arity))
    lo, hi = sorted(data.draw(st.tuples(rounded(-3.0, 3.0), rounded(-3.0, 3.0))))
    fixed = data.draw(st.lists(MIXED_VALUE, min_size=f.arity - 1, max_size=f.arity - 1))
    target = data.draw(st.one_of(rounded(-4.0, 4.0), EDGE_CONSTANTS))
    ts = _axis_points(lo, hi, DEFAULT_GRID)
    a, b = sorted(data.draw(st.tuples(*[st.integers(0, len(ts) - 1)] * 2)))
    low, high = lowered_enclosure(f, i)(ts[a], ts[b], target, *fixed)
    if (low, high) == (-math.inf, math.inf):
        return
    notes = []
    for t, v in _values(_section(f, i, fixed, target), ts[a:b + 1], notes):
        assert v is not None and low <= v <= high, (t, v, notes)


# log/root/div/pow towers over positive constants, on positive ranges: the
# logarithm and root rules give finite bounds here, not only (-inf, inf).
POSITIVE = asts((LOG, ROOT, DIV, POW, MUL), rounded(0.25, 3.0), 6)
NONFINITE = st.sampled_from([math.inf, -math.inf, math.nan])


def hexes(bounds):
    return [v.hex() for v in bounds]


@PROPERTY
@given(ast=st.one_of(EDGE, MIXED, PARTIAL, POSITIVE), data=st.data())
def test_enclosure_is_the_reference_enclosure(ast, data):
    # the enclosure, written out inline, must give bitwise the bounds of the
    # rules walked over the tree, where they give up as well
    f = structural(ast)
    assume(f.arity >= 1)
    i = data.draw(st.integers(1, f.arity))
    axis = data.draw(st.sampled_from([(-3.0, 3.0), (0.25, 3.0)]))
    lo, hi = sorted(data.draw(st.tuples(rounded(*axis), rounded(*axis))))
    fixed = data.draw(st.lists(st.one_of(MIXED_VALUE, rounded(0.25, 3.0)),
                               min_size=f.arity - 1, max_size=f.arity - 1))
    target = data.draw(st.one_of(rounded(-4.0, 4.0), EDGE_CONSTANTS))
    # now and then a target or a fixed coordinate that is not finite
    k = data.draw(st.integers(0, 9))
    if k == 0:
        target = data.draw(NONFINITE)
    elif k <= len(fixed) and k < 3:
        fixed[k - 1] = data.draw(NONFINITE)
    got = lowered_enclosure(f, i)(lo, hi, target, *fixed)
    assert hexes(got) == hexes(reference_enclosure(f, i, lo, hi, target, *fixed))


@pytest.mark.parametrize("text, lo, hi, target, fixed", [
    ("div(1,add(x,y))", -1.0, 1.0, 0.0, [0.5]),       # a divisor range that holds 0
    ("pow(add(x,y),2)", -1.0, 1.0, 0.0, [0.5]),       # a base not above 0
    ("log(3,x)", 0.5, 2.0, 0.0, []),                  # a log base range that holds 1
    ("root(3,add(x,-1))", 0.5, 2.0, 0.0, []),         # a root index range that holds 0
    ("pow(x,mul(y,1000))", 1.0, 2.0, 0.0, [3.0]),     # overflow in **
    ("mul(x,mul(y,1e300))", 1e10, 2e10, 0.0, [3.0]),  # a product that overflows
    ("add(x,y)", 0.0, 1.0, math.inf, [1.0]),          # a target that is not finite
    ("add(x,y)", 0.0, 1.0, math.nan, [1.0]),
    ("add(x,y)", 0.0, 1.0, 0.0, [-math.inf]),         # a fixed value that is not finite
    ("add(x,y)", 0.0, 1.0, 0.0, [math.nan]),
])
def test_enclosure_gives_up_as_the_reference_does(text, lo, hi, target, fixed):
    f = to_structural(parse(text)).expr
    got = lowered_enclosure(f, 1)(lo, hi, target, *fixed)
    assert got == (-math.inf, math.inf)
    assert hexes(got) == hexes(reference_enclosure(f, 1, lo, hi, target, *fixed))


@PROPERTY
@given(ast=EDGE, values=st.lists(rounded(-3.0, 3.0), min_size=8, max_size=8, unique=True),
       target=st.one_of(rounded(-4.0, 4.0), EDGE_CONSTANTS))
# (u + v) / w: its section along slot 1 tells its fixed coordinates apart
@example(ast=AstCall(DIV, AstCall(ADD, AstSymbol("u"), AstSymbol("v")), AstSymbol("w")),
         values=[0.5, 1.5, 2.5, 0.0, 0.0, 0.0, 0.0, 0.0], target=0.25)
def test_section_is_the_point_function_minus_the_target(ast, values, target):
    # at every slot, the section of the pruned search is the point function
    # at that point minus the target, bitwise, or raises its error at the
    # same node and point; the coordinates differ, so the section must not
    # mix up its fixed ones
    f = structural(ast)
    assume(f.arity >= 1)
    point = values[: f.arity]

    def result(value):
        try:
            return value().hex()
        except EvalError as exc:
            return type(exc), str(exc), id(exc.node), exc.point

    want = result(lambda: lowered(f)(*point) - target)
    for i in range(1, f.arity + 1):
        section = lowered_enclosure(f, i).section(target, *point[: i - 1], *point[i:])
        assert result(lambda: section(point[i - 1])) == want, i


@PROPERTY
@given(ast=EDGE, invert=st.booleans(), data=st.data())
def test_notation_reads_back_every_expression(ast, invert, data):
    if not count_symbols(ast):
        try:
            value = ast_eval(ast, {})
        except (ZeroDivisionError, OverflowError):
            value = None
        if isinstance(value, float) and not math.isfinite(value):
            # a constant tower that folds to inf or nan has no structural
            # form: a constant node holds a finite value, which has a text
            with pytest.raises(EvalError):
                to_structural(ast)
            return
    e = structural(ast)
    if invert and e.arity:
        lo, hi = sorted(data.draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
        e = Inverse(e, data.draw(st.integers(1, e.arity)), axis=(lo, hi))
    back = parse_structural(format_expr(e))
    assert back == e
    point = data.draw(st.lists(MIXED_VALUE, min_size=e.arity, max_size=e.arity))
    assert outcome(back, point) == outcome(e, point)


def subexpressions(e):
    """The fields of e that hold expressions, by name."""
    return {field.name: getattr(e, field.name) for field in dataclasses.fields(e)
            if isinstance(getattr(e, field.name), Expr)}


def count_constants(e):
    return 1 if isinstance(e, Const) else sum(map(count_constants, subexpressions(e).values()))


CHECKED = (DIV, POW, ROOT, LOG)


def count_checked(e):
    if isinstance(e, Prim):
        return e.op in CHECKED
    return sum(map(count_checked, subexpressions(e).values()))


def with_constants(e, values):
    """A copy of e, every node new, its constants taken in turn from values:
    the same shape, so the same lowered source text."""
    if isinstance(e, Const):
        return Const(next(values))
    return dataclasses.replace(e, **{name: with_constants(sub, values)
                                     for name, sub in subexpressions(e).items()})


def swapped(e, ops):
    """A copy of e, every node new, each checked primitive taken in turn from
    ops and the two operands of each sum and product swapped: the same
    lowered value text, which calls other functions in another order."""
    if isinstance(e, Prim):
        if e.op in (ADD, MUL):
            return Lift(Prim(e.op), 2, (2, 1))
        return Prim(next(ops) if e.op in CHECKED else e.op)
    if isinstance(e, Const):
        return Const(e.value)
    return dataclasses.replace(e, **{name: swapped(sub, ops)
                                     for name, sub in subexpressions(e).items()})


def lowered_outcome(e, point):
    """The bitwise value of a fresh lowering of e at point, or the error it
    raises with the identity of the node it names."""
    try:
        return expr_core._lower(e)(*point).hex()
    except EvalError as exc:
        return (type(exc).__name__, str(exc), id(exc.node), exc.point)


@PROPERTY
@given(ast=st.one_of(MIXED, EDGE, PARTIAL), data=st.data())
def test_shared_code_evaluates_as_fresh_code(ast, data):
    # one twin differs from e only in its constants, the other only in its
    # checked primitives and the operand order of its sums and products;
    # whichever of e and a twin is lowered second runs the code compiled for
    # the first, and must do what a cold compile does
    e = structural(ast)
    n, k = count_constants(e), count_checked(e)
    constants = data.draw(st.lists(EDGE_CONSTANTS, min_size=n, max_size=n))
    checked = data.draw(st.lists(st.sampled_from(CHECKED), min_size=k, max_size=k))
    twins = (with_constants(e, iter(constants)), swapped(e, iter(checked)))
    point = [float(v) for v in data.draw(st.lists(MIXED_VALUE, min_size=e.arity, max_size=e.arity))]
    for twin in twins:
        cold = []
        for x in (e, twin):
            expr_core._compile.cache_clear()
            cold.append(lowered_outcome(x, point))
        for order in ((e, twin), (twin, e)):
            expr_core._compile.cache_clear()
            warm = [lowered_outcome(x, point) for x in order]
            assert expr_core._compile.cache_info().hits == 1
            assert warm == (cold if order[0] is e else cold[::-1])


@PROPERTY
@given(ast=PARTIAL, data=st.data())
def test_inverse_core_skips_undefined_points(ast, data):
    # check_invertible, piecewise_split and inverse_fn raise no EvalError
    # (or TypeError) where the function is undefined: only a flat stretch
    # or the branch budget is a degenerate input
    f = structural(ast)
    assume(f.arity >= 1)
    n = f.arity
    i = data.draw(st.integers(1, n))
    box = BoxDomain(tuple(data.draw(st.tuples(rounded(-3.0, -0.25), rounded(0.25, 3.0)))
                          for _ in range(n)))
    check_invertible(f, i, box, grid=9)
    try:
        fn = inverse_fn(f, i, box, grid=257, split_grid=9)
    except DegenerateInputError:
        return
    lo, hi = box.axis(i)
    edges = [b.interval for b in fn.pieces.branches]
    assert edges[0][0] == lo and edges[-1][1] == hi
    assert all(a < b for a, b in edges)
    assert all(left[1] == right[0] for left, right in zip(edges, edges[1:]))
    fixed = [data.draw(st.floats(*box.axis(k))) for k in range(1, n + 1) if k != i]
    # mostly a planted root: the value at a drawn point of the axis
    t = data.draw(st.floats(lo, hi))
    try:
        target = evaluate(f, fixed[: i - 1] + [t] + fixed[i - 1:])
    except EvalError:
        target = math.inf
    if not abs(target) < 1e6:
        target = data.draw(rounded(-4.0, 4.0))
    for root in fn(*fixed[: i - 1], target, *fixed[i - 1:]):
        assert lo <= root <= hi
        assert abs(evaluate(f, fixed[: i - 1] + [root] + fixed[i - 1:]) - target) <= DEFAULT_TOL


# A fiber's value at one scan point: a few exact repeats, any finite float,
# NaN, an infinity, or None for a point where the section raises EvalError.
FIBER_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, None]),
)


@PROPERTY
@given(values=st.lists(FIBER_VALUE, min_size=1, max_size=12))
def test_scan_fiber_finds_the_first_flat_step_and_the_turns_before_it(values):
    # _scan_fiber against a plain reference: one value per point, None where
    # the section raises; its flat step is the first equal pair of finite
    # values; its turns are the slope sign changes of finite triples, up to
    # that pair
    def section(t):
        v = values[int(t)]
        if v is None:
            raise EvalError("undefined", point=(t,))
        return v

    vals, flat, turns = _scan_fiber(section, [float(k) for k in range(len(values))])
    assert len(vals) == len(values) and all(v is w for v, w in zip(vals, values))
    finite = [v is not None and math.isfinite(v) for v in values]
    first = next((k for k in range(len(values) - 1)
                  if finite[k] and finite[k + 1] and values[k] == values[k + 1]), None)
    assert flat == first
    end = len(values) - 1 if first is None else first
    assert turns == [k for k in range(1, end) if all(finite[k - 1:k + 2])
                     and (values[k + 1] > values[k]) != (values[k] > values[k - 1])]


@PROPERTY
@given(root=rounded(-3.0, 3.0), powers=st.tuples(st.floats(0.2, 8.0), st.floats(0.2, 8.0)),
       scales=st.tuples(st.integers(-3, 6), st.integers(-3, 6)),
       reach=st.tuples(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0)),
       falling=st.booleans(), descending=st.booleans())
def test_root_refinement_converges_inside_and_halves_its_bracket(root, powers, scales, reach,
                                                                 falling, descending):
    # a monotone section with its root inside the bracket, of a different
    # power and scale on each side: the refinement returns a point strictly
    # inside with |h| <= tol, or notes why not, and the bracket that its
    # evaluations keep halves at least every 3 evaluations
    sign = -1.0 if falling else 1.0

    def h(t):
        if t >= root:
            return sign * 10.0 ** scales[1] * (t - root) ** powers[1]
        return -sign * 10.0 ** scales[0] * (root - t) ** powers[0]

    a, b = root - reach[0], root + reach[1]
    if descending:
        a, b = b, a
    ha, hb = h(a), h(b)
    assume(abs(ha) > DEFAULT_TOL and abs(hb) > DEFAULT_TOL)
    calls, notes = [], []

    def counted(t):
        calls.append(t)
        return h(t)
    t, err = _refine_root(counted, a, b, ha, hb, DEFAULT_TOL, notes)
    assert notes or (err <= DEFAULT_TOL and min(a, b) < t < max(a, b))
    widths = [abs(b - a)]
    for m in calls:
        assert min(a, b) < m < max(a, b)
        if (h(m) < 0) == (ha < 0):
            a = m
        else:
            b = m
        widths.append(abs(b - a))
    assert all(w <= 0.5 * before for before, w in zip(widths, widths[3:]))


def tower(draw, leaves):
    """A random binary add/mul/pow tree over the leaves, in order."""
    if len(leaves) == 1:
        return leaves[0]
    k = draw(st.integers(1, len(leaves) - 1))
    return AstCall(draw(st.sampled_from((ADD, MUL, POW))),
                   tower(draw, leaves[:k]), tower(draw, leaves[k:]))


def solve_request(ast, params, planted, domain):
    """The equation ast = (its value at x = planted) over the domain."""
    rhs = ast_eval(ast, dict(params, x=planted))
    return ast, to_structural(ast), params, rhs, domain


def real_value(ast, env):
    """ast_eval, with the complex result of an even root of a negative
    value read as undefined, as the expression's own evaluation reads it."""
    value = ast_eval(ast, env)
    if isinstance(value, complex):
        raise ValueError("root of a negative value")
    return value


@st.composite
def solve_requests(draw):
    """An equation with a planted root: one of the benchmark's solve stream
    (an add/mul/pow tower with x at two or more of its 3-5 leaves and each
    parameter once, over 0.5:2.5, or p3(p1(x,a), p2(x,b)) over 0.5:3), or
    one whose roots lie 1e-3 to 0.5 from the edge of a stretch where it is
    undefined (log2((x+a)(x+b)) over 0:4, with a root on each side of its
    gap, or sqrt(x+a) over -1:1)."""
    x = AstSymbol("x")
    family = draw(st.sampled_from(("tower", "two-branch", "gap")))
    if family == "gap":
        near = 10 ** draw(st.floats(-3.0, -0.31))
        if draw(st.booleans()):
            ast = AstCall(LOG, AstCall(MUL, AstCall(ADD, x, AstSymbol("a")),
                                       AstCall(ADD, x, AstSymbol("b"))), AstConst(2.0))
            params = {"a": draw(rounded(-1.5, -0.5)), "b": draw(rounded(-3.5, -2.5))}
            return solve_request(ast, params, -params["a"] - near, (0.0, 4.0))
        ast = AstCall(ROOT, AstCall(ADD, x, AstSymbol("a")), AstConst(2.0))
        params = {"a": draw(rounded(-0.8, 0.8))}
        return solve_request(ast, params, -params["a"] + near, (-1.0, 1.0))
    if family == "tower":
        leaves = draw(st.integers(3, 5))
        x_count = draw(st.integers(2, leaves - 1))
        x_at = draw(st.permutations(range(leaves)))[:x_count]
        names = iter("abdg")
        values = [x if pos in x_at else AstSymbol(next(names)) for pos in range(leaves)]
        ast, domain, planted = tower(draw, values), (0.5, 2.5), (0.6, 2.4)
    else:
        p1, p2, p3 = (draw(st.sampled_from((ADD, MUL, POW))) for _ in range(3))
        ast = AstCall(p3, AstCall(p1, x, AstSymbol("a")), AstCall(p2, x, AstSymbol("b")))
        domain, planted = (0.5, 3.0), (0.6, 2.8)
    params = {name: draw(rounded(0.5, 2.0))
              for name in sorted(set(to_structural(ast).binding.values()) - {"x"})}
    return solve_request(ast, params, draw(st.floats(*planted)), domain)


# (0.5209x)^(1.3454x) falls to its minimum near x = 0.706 and then rises, so
# this right side has a root on each of its two branches; drawn two-branch
# equations seldom have two roots
TWO_ROOTS = solve_request(
    AstCall(POW, AstCall(MUL, AstSymbol("x"), AstSymbol("a")),
            AstCall(MUL, AstSymbol("x"), AstSymbol("b"))),
    {"a": 0.5209, "b": 1.3454}, 0.9, (0.5, 3.0))


@settings(PROPERTY, max_examples=90)
@example(request=TWO_ROOTS)
@given(request=solve_requests())
def test_solve_finds_the_roots_of_a_dense_scan(request):
    ast, form, params, rhs, (lo, hi) = request
    report = solve(Equation(form.expr, form.binding, rhs, params, BoxDomain(((lo, hi),))))
    want = scan_roots(lambda x: real_value(ast, dict(params, x=x)) - rhs, lo, hi,
                      points=20_000, tol=DEFAULT_TOL)
    assert len(report.roots) == len(want)
    assert all(abs(got - r) <= 1e-6 for got, r in zip(report.roots, want))


# --- arity and used slots, derived again by routing slots ---

NODE_KINDS = ("const", "prim", "lift", "compose", "diagonal", "inverse", "inverse")


@st.composite
def trees(draw, depth=4, constants=rounded(-2.0, 2.0), kinds=NODE_KINDS):
    """A random valid expression tree of the node types in `kinds` (every
    one by default), its constants drawn from `constants`."""
    kind = draw(st.sampled_from(kinds[:2] if depth == 0 else kinds))
    if kind == "const":
        return Const(draw(constants))
    if kind == "prim":
        return Prim(draw(st.sampled_from(list(Primitive))))
    inner = draw(trees(depth - 1, constants, kinds))
    m = inner.arity
    if kind == "lift":
        n = draw(st.integers(m, m + 2))
        return Lift(inner, n, tuple(draw(st.permutations(range(1, n + 1)))[:m]))
    if kind == "diagonal" and m >= 2:
        i, j = draw(st.permutations(range(1, m + 1)))[:2]
        return Diagonal(inner, i, j)
    if kind == "inverse" and m >= 1:
        return Inverse(inner, draw(st.integers(1, m)), (0.0, 1.0))
    if kind != "compose":
        return inner
    g = draw(trees(depth - 1, constants, kinds))
    if 0 < g.arity < m:
        g = Lift(g, m, tuple(draw(st.permutations(range(1, m + 1)))[: g.arity]))
    elif 0 < m < g.arity:
        inner = Lift(inner, g.arity, tuple(draw(st.permutations(range(1, g.arity + 1)))[:m]))
    n = max(inner.arity, g.arity)
    if n == 0:
        return inner
    return Compose(inner, draw(st.integers(1, n)), g)


def reference_arity(e) -> int:
    if isinstance(e, Const):
        return 0
    if isinstance(e, Prim):
        return 1 if e.op is Primitive.IDENTITY else 2
    if isinstance(e, Lift):
        return e.target_arity
    if isinstance(e, Compose):
        return max(reference_arity(e.f), reference_arity(e.g))
    if isinstance(e, Diagonal):
        return reference_arity(e.inner) - 1
    return reference_arity(e.inner)   # Inverse


def reaches(e, args: list) -> set:
    """The outer slots that reach e's value, where args[k] is the set of
    outer slots routed to e's slot k + 1: the routing that lowering does."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Prim):
        return set().union(*args)
    if isinstance(e, Lift):
        return reaches(e.inner, [args[p - 1] for p in e.positions])
    if isinstance(e, Diagonal):
        routed = list(args)
        routed.insert(e.i - 1, args[(e.j - 1 if e.j > e.i else e.j) - 1])
        return reaches(e.inner, routed)
    if isinstance(e, Compose):
        own = [{k} for k in range(1, reference_arity(e.f) + 1)]
        if e.slot not in reaches(e.f, own):
            return reaches(e.f, args[: reference_arity(e.f)])
        routed = list(args)
        routed[e.slot - 1] = reaches(e.g, args if reference_arity(e.g) else [])
        return reaches(e.f, routed)
    return reaches(e.inner, args) | args[e.slot - 1]   # Inverse: its slot is the output value


@PROPERTY
@given(e=trees())
def test_arity_and_used_slots_match_a_routing_derivation(e):
    n = reference_arity(e)
    assert e.arity == n
    assert e.used_slots == reaches(e, [{k} for k in range(1, n + 1)])


@PROPERTY
@given(e=trees(3, EDGE_CONSTANTS, NODE_KINDS[:5]), data=st.data())
def test_notation_reads_back_every_built_node(e, data):
    # nodes built directly, not from an AST: a lift of a nullary function
    # (no positions), a projection, a composition into a slot its outer
    # function may not use, and the constants hardest to write bitwise
    # (no Inverse, whose nesting would make each evaluation a scan of scans)
    text = format_expr(e)
    back = parse_structural(text)
    assert back == e and format_expr(back) == text
    point = data.draw(st.lists(MIXED_VALUE, min_size=e.arity, max_size=e.arity))
    assert outcome(back, point) == outcome(e, point)
