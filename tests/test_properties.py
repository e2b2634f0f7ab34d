"""Property tests: structural evaluation against pointful oracles, bitwise.

The structural compiler and the structural operators must reproduce the
pointful value exactly, not just within a tolerance: they route
coordinates, and routing changes no float operation.  Likewise an Inverse
formula, whose scan stops early, must give invert_at's first root exactly,
and the inverse core must treat every point where a function is undefined
as a gap, never as an error.  The operator notation must read back every
expression, Inverse nodes included, as one that evaluates bitwise alike.
A solve, which scans each monotone branch only at its split's resolution,
must find the roots an independent dense scan finds, next to the stretches
where a function is undefined too.
"""

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvfa.expr_core import (
    DEFAULT_TOL,
    BoxDomain,
    EvalError,
    Inverse,
    NoSolutionError,
    Prim,
    evaluate,
)
from mvfa.frontend import (
    AstCall, AstConst, AstSymbol, format_expr, parse_structural, to_structural,
)
from mvfa.inverse import DegenerateInputError, check_invertible, inverse_fn, invert_at
from mvfa.solver import Equation, solve
from mvfa.structure_ops import compose_at, diagonal, lift, normalize, substitute_const

from util import ADD, DIV, E, LOG, MUL, POW, ROOT, ast_eval, scan_roots

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


@PROPERTY
@given(ast=MIXED, data=st.data())
def test_inverse_formula_is_first_root_of_invert_at(ast, data):
    # the formula's scan stops at its first root; invert_at scans the whole
    # axis.  Mixed signs make subintervals fail (domain errors, overflow).
    f = structural(ast)
    assume(f.arity >= 1)
    i = data.draw(st.integers(1, f.arity))
    lo, hi = sorted(data.draw(st.tuples(rounded(-3.0, 3.0), rounded(-3.0, 3.0))))
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
    roots = invert_at(f, i, target, fixed, box)
    formula = Inverse(f, i, axis=(lo, hi))
    if roots:
        assert evaluate(formula, point).hex() == roots[0].hex()
    else:
        with pytest.raises(NoSolutionError):
            evaluate(formula, point)
    # and so does the formula read back from its text
    assert outcome(parse_structural(format_expr(formula)), point) == outcome(formula, point)


@PROPERTY
@given(ast=EDGE, invert=st.booleans(), data=st.data())
def test_notation_reads_back_every_expression(ast, invert, data):
    e = structural(ast)
    # a constant tower folded to inf or nan has no text: literals are finite,
    # and the rule for overflow is still open
    assume(e.arity or math.isfinite(e.value))
    if invert and e.arity:
        lo, hi = sorted(data.draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
        e = Inverse(e, data.draw(st.integers(1, e.arity)), axis=(lo, hi))
    back = parse_structural(format_expr(e))
    assert back == e
    point = data.draw(st.lists(MIXED_VALUE, min_size=e.arity, max_size=e.arity))
    assert outcome(back, point) == outcome(e, point)


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
