"""Property tests: structural evaluation against pointful oracles, bitwise.

The structural compiler and the structural operators must reproduce the
pointful value exactly, not just within a tolerance: they route
coordinates, and routing changes no float operation.  Likewise an Inverse
formula, whose scan stops early, must give invert_at's first root exactly,
and the inverse core must treat every point where a function is undefined
as a gap, never as an error.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvfa.expr_core import (
    DEFAULT_TOL,
    BoxDomain,
    EvalError,
    Inverse,
    NoSolutionError,
    evaluate,
)
from mvfa.frontend import AstCall, AstConst, AstSymbol, to_structural
from mvfa.inverse import DegenerateInputError, check_invertible, inverse_fn, invert_at
from mvfa.structure_ops import compose_at, diagonal, lift, normalize, substitute_const

from util import ADD, DIV, LOG, MUL, POW, ROOT, ast_eval

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
