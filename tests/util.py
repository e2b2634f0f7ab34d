"""Shared builders and independent oracles for the test suite.

The AST evaluator and the scan-and-bisect root finder here are deliberately
written against plain Python floats, independent of the expression
pipeline, so they can serve as oracles for it.  `full_scan_roots` is the
1 024-point search of `invert_at` and Inverse nodes without its enclosures:
the scan of every point, which the pruned scan must match bitwise.
`reference_enclosure` is the range enclosure as a walk of the tree, one
function per primitive: the rules that `lowered_enclosure` writes out
inline, which it must match bitwise.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from mvfa import inverse
from mvfa.expr_core import (
    BoxDomain, Compose, ConfigError, Const, Diagonal, EvalError, Expr, Inverse, Lift, Prim, Primitive,
    evaluate,
)
from mvfa.frontend import AstCall, AstConst, AstSymbol, _format_number
from mvfa.kst import DEFAULT_DEPTH, inner_psi
from mvfa.structure_ops import diagonal

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

# For the tests that fit a superposition (`kst decompose`, `decompose`), the
# one computation that needs numpy: they skip where it cannot be imported.
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the superposition fit needs numpy")

ADD, MUL, DIV, POW, ROOT, LOG, E = (
    Primitive.ADD, Primitive.MUL, Primitive.DIV, Primitive.POW,
    Primitive.ROOT, Primitive.LOG, Primitive.IDENTITY,
)


def x_pow(n: int, slot: int, exponent: float) -> Expr:
    """x_slot ** exponent as an n-ary expression using only `slot`."""
    if n == 1:
        pinned = Compose(Lift(Prim(POW), 2, (1, 2)), 2, Const(exponent))
        return Diagonal(pinned, 2, 1)  # spare slot is unused; drop it
    spare = 1 if slot != 1 else 2
    lifted = Lift(Prim(POW), n, (slot, spare))
    return Compose(lifted, spare, Const(exponent))


def poly_sum(n: int, terms: list[tuple[int, float]]) -> Expr:
    """Sum of powers x_s ** e over (s, e) pairs, as an n-ary expression."""
    built = [x_pow(n, s, e) for s, e in terms]
    out = built[0]
    prev_slot = terms[0][0]
    for (slot, _), term in zip(terms[1:], built[1:]):
        lifted = Lift(Prim(ADD), n, (prev_slot, slot))
        out = Compose(Compose(lifted, prev_slot, out), slot, term)
    return out


def assert_matches_fn(expr: Expr, fn, box: BoxDomain, samples: int = 100,
                      tol: float = 1e-12, seed: int = 0) -> None:
    """Compare an expression against a plain Python function on seeded samples."""
    rng = random.Random(seed)
    for _ in range(samples):
        x = [rng.uniform(lo, hi) for lo, hi in box.axes]
        got = evaluate(expr, x)
        want = fn(*x)
        assert abs(got - want) <= tol, f"{got} != {want} at {x}"


# Independent pointful-AST evaluator (oracle for the structural compiler).

def ast_eval(ast, env: dict[str, float]) -> float:
    if isinstance(ast, AstConst):
        return ast.value
    if isinstance(ast, AstSymbol):
        return env[ast.name]
    a = ast_eval(ast.left, env)
    b = ast_eval(ast.right, env)
    if ast.prim is ADD:
        return a + b
    if ast.prim is MUL:
        return a * b
    if ast.prim is DIV:
        return a / b
    if ast.prim is POW:
        return a ** b
    if ast.prim is ROOT:
        return a ** (1.0 / b)
    if ast.prim is LOG:
        return math.log(a) / math.log(b)
    raise AssertionError(ast.prim)


def ast_to_text(ast) -> str:
    """Render a pointful AST back to DSL text (inverse of `parse`)."""
    if isinstance(ast, AstConst):
        return _format_number(ast.value)
    if isinstance(ast, AstSymbol):
        return ast.name
    return f"{ast.prim.value}({ast_to_text(ast.left)},{ast_to_text(ast.right)})"


def replay_trace(e: Expr, trace) -> Expr:
    """Re-apply a solve's recorded operator sequence to an expression."""
    out = e
    for step in trace:
        if step.op == "diagonal":
            _, i, j = step.args
            out = diagonal(out, i, j)
        elif step.op == "lift":
            n, positions = step.args
            out = Lift(out, n, positions)
        elif step.op == "inverse":
            slot, axis = step.args
            out = Inverse(out, slot, axis)
        else:
            raise ConfigError(f"unknown trace step {step.op!r}")
    return out


# Leaf values in this range keep depth-4 towers of add/mul/pow finite and
# small enough for absolute comparisons at 1e-12.
SAFE_LEAF_RANGE = (1.05, 1.2)


def random_ast(rng: random.Random, depth: int, symbols: list[str],
               prims=(ADD, MUL, POW), const_prob: float = 0.0):
    """Random pointful AST; constants stay in the safe leaf range."""
    if depth <= 0 or rng.random() < 0.25:
        if const_prob and rng.random() < const_prob:
            return AstConst(round(rng.uniform(*SAFE_LEAF_RANGE), 3))
        return AstSymbol(rng.choice(symbols))
    prim = rng.choice(prims)
    return AstCall(prim,
                   random_ast(rng, depth - 1, symbols, prims, const_prob),
                   random_ast(rng, depth - 1, symbols, prims, const_prob))


def count_symbols(ast) -> int:
    if isinstance(ast, AstCall):
        return count_symbols(ast.left) + count_symbols(ast.right)
    return 1 if isinstance(ast, AstSymbol) else 0


def full_scan_roots(f: Expr, i: int, fixed, ts, target: float, tol: float, notes: list):
    """The roots, ascending and lazily, that `invert_at` and Inverse nodes
    find with f - target along slot i on the scan points `ts`, with every
    point evaluated through f's point function (`inverse._values` over
    `inverse._section`, looked up on the module so a test can wrap them)
    and no enclosure; evaluation failures and skipped intervals go to
    `notes`."""
    h = inverse._section(f, i, fixed, target)
    return inverse._roots(h, inverse._values(h, ts, notes), tol, notes)


# Independent dense-scan + bisection root oracle over plain callables.

def scan_roots(fn, lo: float, hi: float, points: int = 100_000,
               tol: float = 1e-9) -> list[float]:
    step = (hi - lo) / (points - 1)
    ts = [lo + k * step for k in range(points)]
    ts[-1] = hi
    vals = []
    for t in ts:
        try:
            vals.append(fn(t))
        except (ValueError, ZeroDivisionError, OverflowError):
            vals.append(None)
    roots = []
    for t, v in zip(ts, vals):
        if v is not None and abs(v) <= tol:
            roots.append(t)
    for k in range(points - 1):
        a, b = vals[k], vals[k + 1]
        if a is None or b is None or abs(a) <= tol or abs(b) <= tol:
            continue
        if (a < 0) != (b < 0):
            x0, x1 = ts[k], ts[k + 1]
            fa = a
            for _ in range(200):
                m = 0.5 * (x0 + x1)
                fm = fn(m)
                if abs(fm) <= tol:
                    break
                if (fm < 0) == (fa < 0):
                    x0, fa = m, fm
                else:
                    x1 = m
            roots.append(0.5 * (x0 + x1))
    roots.sort()
    out = []
    for r in roots:
        if not out or r - out[-1] > 1e-7:
            out.append(r)
    return out


def raises_eval_error(expr: Expr, point) -> bool:
    try:
        evaluate(expr, point)
        return False
    except EvalError:
        return True


def strict_json(text: str):
    """Parse `text`, refusing the NaN and Infinity extensions of json.loads."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def psi_base_reference(t: float) -> float:
    """The inner series sum for k = 1..K of 2**-k * t**(k/(k+1)) at K =
    DEFAULT_DEPTH, added left to right one term at a time: no sum(), whose
    float result is compensated from Python 3.12 on."""
    total = 0.0
    for k in range(1, DEFAULT_DEPTH + 1):
        total += 2.0 ** -k * t ** (k / (k + 1))
    return total


def reconstruct_reference(rep, point) -> float:
    """`kst.reconstruct` at a point of the unit square, by its definition:
    each inner sum through the checked `inner_psi`, and each outer function
    through `np.interp` over its knots, after the clamp to its knot range."""
    import numpy as np   # only here: the rest of the helpers run without numpy

    total = 0.0
    for q, fn in enumerate(rep.outer):
        s = sum((inner_psi(q, 1, point[0]), inner_psi(q, 2, point[1])))
        s = min(max(s, fn.lo), fn.hi)
        total += float(np.interp(s, fn.knots, fn.values))
    return total


# The range enclosure, walked over the tree.  Each primitive's rule takes
# the bounds of its two arguments, every one finite, and returns the bounds
# of every value its `_checked_*` twin can return for arguments in those
# ranges, or raises `Unbounded`.  Each primitive is monotone in each
# argument where its domain check passes, so its extremes lie at the
# corners.  A bound is pushed outward by one ulp per float operation, and
# by two for a libm call (`**`, `math.log`).

class Unbounded(Exception):
    """An enclosure that cannot bound its values."""


def _outward(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    if -math.inf < lo <= hi < math.inf:   # NaN fails too
        return lo, hi
    raise Unbounded


def _outward_libm(lo: float, hi: float) -> tuple[float, float]:
    return _outward(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def _enclose_add(al, ah, bl, bh):
    return _outward(al + bl, ah + bh)


def _enclose_mul(al, ah, bl, bh):
    corners = (al * bl, al * bh, ah * bl, ah * bh)
    return _outward(min(corners), max(corners))


def _enclose_div(al, ah, bl, bh):
    if bl <= 0 <= bh:
        raise Unbounded
    corners = (al / bl, al / bh, ah / bl, ah / bh)
    return _outward(min(corners), max(corners))


def _enclose_pow(al, ah, bl, bh):
    if not al > 0:
        raise Unbounded
    try:
        corners = (al ** bl, al ** bh, ah ** bl, ah ** bh)
    except OverflowError:
        raise Unbounded from None
    return _outward_libm(min(corners), max(corners))


def _enclose_root(al, ah, bl, bh):
    return _enclose_pow(al, ah, *_enclose_div(1.0, 1.0, bl, bh))


def _enclose_log(al, ah, bl, bh):
    # math.log(a, b) divides the two natural logarithms
    if not (al > 0 and bl > 0):
        raise Unbounded
    return _enclose_div(*_outward_libm(math.log(al), math.log(ah)),
                        *_outward_libm(math.log(bl), math.log(bh)))


_ENCLOSE = {ADD: _enclose_add, MUL: _enclose_mul, DIV: _enclose_div,
            POW: _enclose_pow, ROOT: _enclose_root, LOG: _enclose_log}


def _enclose_node(e: Expr, args: list) -> tuple[float, float]:
    """The bounds of e over argument ranges `args`, one (lo, hi) per slot."""
    if isinstance(e, Const):
        return (e.value, e.value) if math.isfinite(e.value) else (-math.inf, math.inf)
    if isinstance(e, Lift):
        return _enclose_node(e.inner, [args[p - 1] for p in e.positions])
    if isinstance(e, Diagonal):
        jj = e.j - 1 if e.j > e.i else e.j
        return _enclose_node(e.inner, args[: e.i - 1] + [args[jj - 1]] + args[e.i - 1:])
    if isinstance(e, Compose):
        if e.slot not in e.f.used_slots:
            return _enclose_node(e.f, args[: e.f.arity])
        routed = list(args)
        routed[e.slot - 1] = _enclose_node(e.g, args if e.g.arity else [])
        return _enclose_node(e.f, routed)
    if isinstance(e, Prim):
        if e.op is E:
            return args[0]
        return _ENCLOSE[e.op](*args[0], *args[1])
    raise Unbounded   # a nested Inverse


def reference_enclosure(e: Expr, slot: int, lo: float, hi: float, target: float,
                        *fixed: float) -> tuple[float, float]:
    """What `lowered_enclosure(e, slot)(lo, hi, target, *fixed)` returns: the
    bounds of e - target with [lo, hi] in `slot`, or (-inf, inf) where the
    inputs, summed left to right, are not finite, or a rule gives up."""
    total = lo + hi + target
    for v in fixed:
        total += v
    if not -math.inf < total < math.inf:
        return -math.inf, math.inf
    args = [(v, v) for v in fixed]
    args.insert(slot - 1, (lo, hi))
    try:
        low, high = _enclose_node(e, args)
        return _outward(low - target, high - target)
    except Unbounded:
        return -math.inf, math.inf
