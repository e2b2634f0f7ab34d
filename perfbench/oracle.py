"""Correctness oracles owned by the benchmark, independent of `mvfa`.

Expressions are the benchmark's own nested tuples ``(prim, left, right)``
whose leaves are symbol names (str) or constants (float); the primitives
are the ones the workloads generate: add, mul, div, pow and log.  They are
rendered to DSL text for `mvfa` and evaluated here with plain floats (one
point) or numpy arrays (a dense scan).  Nothing in this module imports
`mvfa`.
"""

from __future__ import annotations

import json
import math

import numpy as np

class OracleDomainError(ValueError):
    """The plain-float evaluator left the real domain."""


def render(expr) -> str:
    """DSL text for an expression tuple."""
    if isinstance(expr, str):
        return expr
    if isinstance(expr, float):
        return repr(expr)
    prim, left, right = expr
    return f"{prim}({render(left)},{render(right)})"


def symbols(expr) -> list[str]:
    """Symbol occurrences, left to right (one slot each in the compiled form)."""
    if isinstance(expr, str):
        return [expr]
    if isinstance(expr, float):
        return []
    return symbols(expr[1]) + symbols(expr[2])


def _pow(a: float, b: float) -> float:
    if a < 0 and not float(b).is_integer():
        raise OracleDomainError("fractional power of a negative base")
    if a == 0 and b < 0:
        raise OracleDomainError("zero base with a negative exponent")
    return a ** b


def plain_eval(expr, env) -> float:
    """Evaluate at one point with plain floats.

    `env` maps symbol names to values, or is a list of per-occurrence values
    consumed left to right.  Out-of-domain arguments raise OracleDomainError,
    overflow raises OverflowError.
    """
    if isinstance(env, dict):
        return _eval_named(expr, env)
    it = iter(env)
    return _eval_named(expr, None, it)


def _eval_named(expr, env, it=None) -> float:
    if isinstance(expr, str):
        return float(next(it)) if it is not None else float(env[expr])
    if isinstance(expr, float):
        return expr
    prim, left, right = expr
    a = _eval_named(left, env, it)
    b = _eval_named(right, env, it)
    if prim == "add":
        return a + b
    if prim == "mul":
        return a * b
    if prim == "div":
        if b == 0:
            raise OracleDomainError("division by zero")
        return a / b
    if prim == "pow":
        return _pow(a, b)
    if prim == "log":
        if a <= 0 or b <= 0 or b == 1:
            raise OracleDomainError("logarithm outside its domain")
        return math.log(a) / math.log(b)
    raise ValueError(f"unknown primitive {prim!r}")


def array_eval(expr, env: dict) -> np.ndarray:
    """Evaluate over numpy arrays; points outside the domain give NaN."""
    if isinstance(expr, str):
        return np.asarray(env[expr], dtype=float)
    if isinstance(expr, float):
        return np.asarray(expr)
    prim, left, right = expr
    a = array_eval(left, env)
    b = array_eval(right, env)
    with np.errstate(all="ignore"):
        if prim == "add":
            out = a + b
        elif prim == "mul":
            out = a * b
        elif prim == "div":
            out = np.where(b == 0, np.nan, a / np.where(b == 0, 1.0, b))
        elif prim == "pow":
            bad = ((a < 0) & (b != np.floor(b))) | ((a == 0) & (b < 0))
            out = np.where(bad, np.nan, np.power(a, b))
        elif prim == "log":
            bad = (a <= 0) | (b <= 0) | (b == 1)
            safe_a = np.where(bad, 2.0, a)
            safe_b = np.where(bad, 2.0, b)
            out = np.where(bad, np.nan, np.log(safe_a) / np.log(safe_b))
        else:
            raise ValueError(f"unknown primitive {prim!r}")
    return out


# Magnitudes within which an absolute residual tolerance of 1e-9 resolves
# roots: below, tiny right sides are matched by whole intervals; above,
# slopes outrun the spacing of doubles.
TAME_RANGE = (1e-4, 1e6)
# Ten times the solver's residual tolerance.  A function that stays this
# close to the right side at two neighbouring scan points meets the
# tolerance along a whole stretch, so its root set at that tolerance is an
# interval, not the crossings the root oracle finds.
FLAT_TOL = 1e-8


def tame_on(expr, unknown: str, env: dict, lo: float, hi: float, rhs: float,
            points: int = 4097) -> bool:
    """True when expr(unknown), at every scan point of [lo, hi], is defined,
    keeps its magnitude within TAME_RANGE, differs from its neighbours (no
    stretch flat to double precision) and is not within FLAT_TOL of `rhs`
    at two neighbouring points (no stretch flat to the solver's tolerance)."""
    scan_env = dict(env)
    scan_env[unknown] = np.linspace(lo, hi, points)
    vals = array_eval(expr, scan_env)
    mag = np.abs(vals)
    small, large = TAME_RANGE
    near = np.abs(vals - rhs) <= FLAT_TOL
    return bool(np.all(np.isfinite(mag) & (mag >= small) & (mag <= large))
                and np.all(np.diff(vals) != 0)
                and not np.any(near[:-1] & near[1:]))


SCAN_CHUNK = 8192   # points per array evaluation, to keep the oracle's memory small


def scan_roots(expr, unknown: str, env: dict, rhs: float, lo: float, hi: float,
               points: int = 100_001) -> list[float]:
    """Every root of expr(unknown) = rhs on [lo, hi], by dense scan and bisection.

    The scan runs on numpy arrays; each sign change is bisected to the last
    bit with the plain-float evaluator.  Roots are crossings, not points of
    small residual: a root the solver accepts at its residual tolerance is
    compared with `root_error_allowed`.  Roots closer than 1e-7 are merged.
    """
    ts = np.linspace(lo, hi, points)
    vals = np.concatenate([array_eval(expr, dict(env, **{unknown: chunk})) - rhs
                           for chunk in np.array_split(ts, -(-points // SCAN_CHUNK))])
    finite = np.isfinite(vals)
    roots = [float(t) for t in ts[finite & (vals == 0)]]
    a, b = vals[:-1], vals[1:]
    bracket = np.isfinite(a) & np.isfinite(b) & (a != 0) & (b != 0) & ((a < 0) != (b < 0))
    point_env = dict(env)

    def g(t: float) -> float:
        point_env[unknown] = t
        return plain_eval(expr, point_env) - rhs

    for k in np.nonzero(bracket)[0]:
        x0, x1 = float(ts[k]), float(ts[k + 1])
        neg0 = a[k] < 0
        for _ in range(200):
            m = 0.5 * (x0 + x1)
            if m in (x0, x1):
                break
            fm = g(m)
            if fm == 0:
                x0 = x1 = m
                break
            if (fm < 0) == neg0:
                x0 = m
            else:
                x1 = m
        roots.append(0.5 * (x0 + x1))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-7:
            merged.append(r)
    return merged


def root_error_allowed(expr, unknown: str, env: dict, root: float, tol: float = 1e-9,
                       h: float = 1e-7) -> float:
    """How far a root accepted at residual `tol` may sit from the true root.

    1e-6, widened by tol / |slope| where the function is flat.
    """
    point_env = dict(env)
    point_env[unknown] = root + h
    up = plain_eval(expr, point_env)
    point_env[unknown] = root - h
    slope = abs(up - plain_eval(expr, point_env)) / (2 * h)
    return 1e-6 + (tol / slope if slope > 0 else math.inf)


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse one JSON document, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
