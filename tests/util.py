"""Shared builders and independent oracles for the test suite.

The AST evaluator and the scan-and-bisect root finder here are deliberately
written against plain Python floats, independent of the expression
pipeline, so they can serve as oracles for it.
"""

from __future__ import annotations

import json
import math
import random

from mvfa.expr_core import BoxDomain, Compose, Const, EvalError, Expr, Lift, Prim, Primitive, evaluate
from mvfa.frontend import AstCall, AstConst, AstSymbol

ADD, MUL, DIV, POW, ROOT, LOG, E = (
    Primitive.ADD, Primitive.MUL, Primitive.DIV, Primitive.POW,
    Primitive.ROOT, Primitive.LOG, Primitive.IDENTITY,
)


def x_pow(n: int, slot: int, exponent: float) -> Expr:
    """x_slot ** exponent as an n-ary expression using only `slot`."""
    from mvfa.expr_core import Diagonal

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
