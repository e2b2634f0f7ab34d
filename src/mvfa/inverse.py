"""Partial invertibility and partial inverses.

Invertibility about one slot is probed on finite grids of fibers: for each
assignment of the other coordinates, the one-variable section must be
strictly monotone.  A passing verdict is evidence at the probed resolution,
not a proof; resolution is configurable everywhere.  Non-invertible
functions are split into monotone branches along the inverted axis so that
every preimage is reported (the multivalued reading).

Every entry point runs on one small core: `_check_slot` validates the
arguments, `_scan_fiber` finds a fiber's flat steps and turning points,
`_bisect` is the one bisection (roots, and the equal-value witnesses of a
turning point), and `_roots` is the sign-change scan, bracketing and root
grouping shared by `invert_at`, `inverse_fn` and the evaluation of Inverse
nodes.  The default tolerance is the package's `DEFAULT_TOL` (1e-9).

Primitives also carry closed-form partial inverses; the symbolic table and
the numeric path agree within tolerance (tested, not assumed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .expr_core import (
    DEFAULT_TOL,
    BoxDomain,
    Compose,
    Const,
    EvalError,
    Expr,
    Lift,
    MvfaError,
    Prim,
    Primitive,
    StructureError,
    lowered,
)

DEFAULT_GRID = 1024        # scan points along the inverted axis
DEFAULT_SPLIT_GRID = 65    # probe points per axis when isolating branches
MAX_BISECT_STEPS = 200
MAX_BRANCHES = 64


class UnsupportedInverseError(MvfaError):
    """No closed-form inverse in the symbolic table; use invert_at."""


class DegenerateInputError(MvfaError):
    """Monotone-branch isolation failed or exceeded the branch budget."""


@dataclass(frozen=True)
class Witness:
    """Two distinct axis values with equal section values on one fiber."""

    fixed: tuple[float, ...]   # coordinates of the other slots, ascending
    t1: float
    t2: float
    v1: float
    v2: float


@dataclass(frozen=True)
class InvertVerdict:
    invertible: bool
    witness: Witness | None = None


@dataclass(frozen=True)
class Branch:
    """One monotone piece of an axis interval."""

    interval: tuple[float, float]
    sign: int        # +1 increasing, -1 decreasing (on the first probed fiber)
    branch_id: int


@dataclass(frozen=True)
class PiecewiseInverse:
    """Monotone-branch decomposition of one axis of one function.

    Branch sub-intervals share endpoints, have pairwise-disjoint interiors
    and cover the axis interval exactly.
    """

    axis: int
    branches: tuple[Branch, ...]
    source: Expr
    domain: BoxDomain


def _axis_points(lo: float, hi: float, count: int) -> list[float]:
    if count < 2 or hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    pts = [lo + k * step for k in range(count)]
    pts[-1] = hi
    return pts


def _fibers(d: BoxDomain, i: int, grid: int):
    """All grid assignments of the slots other than i, ascending slot order."""
    other_axes = [d.axis(k) for k in range(1, d.dim + 1) if k != i]
    if not other_axes:
        yield ()
        return
    yield from product(*(_axis_points(lo, hi, grid) for lo, hi in other_axes))


def _section(f: Expr, i: int, fixed):
    """The one-variable section t -> f(fixed, with t at slot i).

    It calls f's lowered function directly: the callers validate their
    inputs once, not at every point of a scan.
    """
    fn = lowered(f)
    before, after = tuple(fixed[: i - 1]), tuple(fixed[i - 1:])
    return lambda t: fn(*before, t, *after)


def _check_slot(f: Expr, i: int, d: BoxDomain, grid: int | None = None,
                fixed=None) -> list[float] | None:
    """Validate slot `i` of `f` over the box `d`, and the fiber grid or the
    fixed coordinates when given; return the fixed coordinates as floats."""
    n = f.arity
    if not 1 <= i <= n:
        raise StructureError(f"slot {i} out of range 1..{n}")
    if d.dim != n:
        raise StructureError(f"domain has {d.dim} axes, function has arity {n}")
    if grid is not None and grid < 3:
        raise StructureError(f"grid must be at least 3 points per axis, got {grid}")
    if fixed is None:
        return None
    fixed = [float(v) for v in fixed]
    if len(fixed) != n - 1:
        raise StructureError(f"expected {n - 1} fixed values, got {len(fixed)}")
    for k, v in zip((s for s in range(1, n + 1) if s != i), fixed):
        lo, hi = d.axis(k)
        if not lo <= v <= hi:
            raise StructureError(f"fixed value {v} for slot {k} outside [{lo}, {hi}]")
    return fixed


def _scan_fiber(section, ts):
    """The section's values at `ts`, the index k of its first flat step
    (vals[k] == vals[k+1]) or None, and the indices of its turning points
    (where the discrete slope changes sign) before that step."""
    vals = [section(t) for t in ts]
    turns = []
    rising = None
    prev = vals[0]
    for k in range(1, len(vals)):
        v = vals[k]
        if v == prev:
            return vals, k - 1, turns
        up = v > prev
        if up != rising and rising is not None:
            turns.append(k - 1)
        rising, prev = up, v
    return vals, None, turns


def _bisect(h, a, b, ha, hb, tol, notes=None) -> tuple[float, float]:
    """Bisect [a, b], where ha = h(a) and hb = h(b) lie on opposite sides of
    zero; return (t, |h(t)|) for the first t with |h(t)| <= tol, else for the
    best t seen.

    With a `notes` list, an evaluation failure ends the search with an
    infinite residual and is noted, as is a search that ends above `tol`;
    without one, the failure propagates.
    """
    best_t, best_err = a, abs(ha)
    if abs(hb) < best_err:
        best_t, best_err = b, abs(hb)
    neg_left = ha < 0
    for _ in range(MAX_BISECT_STEPS):
        m = 0.5 * (a + b)
        try:
            hm = h(m)
        except EvalError as exc:
            if notes is None:
                raise
            notes.append(f"bisection aborted near t={m!r}: {exc}")
            return m, math.inf
        err = abs(hm)
        if err < best_err:
            best_t, best_err = m, err
        if err <= tol:
            return m, err
        if (hm < 0) == neg_left:
            a = m
        else:
            b = m
        if a == b:
            break
    if notes is not None and not best_err <= tol:
        notes.append(f"bisection stalled near t={best_t!r} (residual {best_err!r})")
    return best_t, best_err


def _roots(section, lo: float, hi: float, target: float, tol: float, grid: int,
           notes: list) -> list[float]:
    """All t in [lo, hi] with |section(t) - target| <= tol, ascending.

    A scan at `grid` points brackets sign changes, bisection refines each
    bracket, and roots closer than 10*tol keep the one of least residual.
    Points and brackets where evaluation fails are skipped and noted.
    """
    def g(t: float) -> float:
        return section(t) - target

    ts = _axis_points(lo, hi, grid)
    vals: list[float | None] = []
    for t in ts:
        try:
            vals.append(g(t))
        except EvalError as exc:
            vals.append(None)
            notes.append(f"evaluation failed at t={t!r}: {exc}")

    candidates = [(t, abs(v)) for t, v in zip(ts, vals) if v is not None and abs(v) <= tol]
    for k in range(len(ts) - 1):
        a, b = vals[k], vals[k + 1]
        if a is None or b is None:
            if (a is None) != (b is None):
                notes.append(f"skipped interval [{ts[k]!r}, {ts[k + 1]!r}]")
            continue
        # An end within tol is a root already counted.  Every comparison with
        # NaN is false, so a NaN end lands here too and forms no bracket.
        if not (abs(a) > tol and abs(b) > tol):
            if a != a or b != b:
                notes.append(f"skipped interval [{ts[k]!r}, {ts[k + 1]!r}]: nan")
            continue
        if (a < 0) != (b < 0):
            t, err = _bisect(g, ts[k], ts[k + 1], a, b, tol, notes)
            if err <= tol:
                candidates.append((t, err))

    candidates.sort()
    roots: list[float] = []
    group: list[tuple[float, float]] = []
    for cand in candidates:
        if group and cand[0] - group[-1][0] > 10 * tol:
            roots.append(min(group, key=lambda c: (c[1], c[0]))[0])
            group = []
        group.append(cand)
    if group:
        roots.append(min(group, key=lambda c: (c[1], c[0]))[0])
    return roots


def check_invertible(f: Expr, i: int, d: BoxDomain, grid: int,
                     tol: float = DEFAULT_TOL) -> InvertVerdict:
    """Probe whether `f` is invertible about slot `i` over the box `d`.

    Every sampled fiber's section must be strictly monotone.  On the first
    violation a reproducible witness (two axis values with equal section
    values, |v1-v2| <= tol) is constructed by bisection and returned.
    """
    _check_slot(f, i, d, grid)
    ts = _axis_points(*d.axis(i), grid)
    for fixed in _fibers(d, i, grid):
        section = _section(f, i, fixed)
        vals, flat, turns = _scan_fiber(section, ts)
        if flat is not None:
            witness = Witness(tuple(fixed), ts[flat], ts[flat + 1], vals[flat], vals[flat + 1])
            return InvertVerdict(False, witness)
        if turns:
            # vals[k] is a local extremum; any level strictly between it and
            # the nearer neighbour value is crossed on both sides.
            k = turns[0]
            va, vb, vc = vals[k - 1], vals[k], vals[k + 1]
            level = (vb + (max(va, vc) if vb > va else min(va, vc))) / 2.0

            def h(t: float) -> float:
                return section(t) - level

            t1, _ = _bisect(h, ts[k - 1], ts[k], va - level, vb - level, tol / 2.0)
            t2, _ = _bisect(h, ts[k], ts[k + 1], vb - level, vc - level, tol / 2.0)
            return InvertVerdict(False, Witness(tuple(fixed), t1, t2, section(t1), section(t2)))
    return InvertVerdict(True, None)


# Closed-form partial inverses.  Convention: the result has the primitive's
# arity and its slot i carries the output value z; the other slot keeps its
# variable.  Subtraction is not a primitive, so inverses of addition are
# assembled as x + (-1 * y).

def _swap(op: Primitive) -> Expr:
    return Lift(Prim(op), 2, (2, 1))


def _difference(a_slot: int, b_slot: int) -> Expr:
    negated = Compose(Lift(Prim(Primitive.MUL), 2, (a_slot, b_slot)), a_slot, Const(-1.0))
    return Compose(Lift(Prim(Primitive.ADD), 2, (a_slot, b_slot)), b_slot, negated)


_INVERSE_TABLE = {
    (Primitive.ADD, 1): lambda: _difference(1, 2),   # x1 = z - x2
    (Primitive.ADD, 2): lambda: _difference(2, 1),   # x2 = z - x1
    (Primitive.MUL, 1): lambda: Prim(Primitive.DIV),  # x1 = z / x2
    (Primitive.MUL, 2): lambda: _swap(Primitive.DIV),  # x2 = z / x1
    (Primitive.DIV, 1): lambda: Prim(Primitive.MUL),  # x1 = z * x2
    (Primitive.DIV, 2): lambda: Prim(Primitive.DIV),  # x2 = x1 / z
    (Primitive.POW, 1): lambda: Prim(Primitive.ROOT),  # x1 = z ** (1/x2)
    (Primitive.POW, 2): lambda: _swap(Primitive.LOG),  # x2 = log of z in base x1
    (Primitive.ROOT, 1): lambda: Prim(Primitive.POW),  # x1 = z ** x2
    (Primitive.ROOT, 2): lambda: Prim(Primitive.LOG),  # x2 = log of x1 in base z
    (Primitive.LOG, 1): lambda: _swap(Primitive.POW),  # x1 = x2 ** z
    (Primitive.LOG, 2): lambda: Prim(Primitive.ROOT),  # x2 = x1 ** (1/z)
    (Primitive.IDENTITY, 1): lambda: Prim(Primitive.IDENTITY),
}


def invert_primitive(p: Primitive, i: int) -> Expr:
    """Closed-form partial inverse of primitive `p` about slot `i`."""
    try:
        build = _INVERSE_TABLE[(p, i)]
    except KeyError:
        raise UnsupportedInverseError(
            f"no closed-form inverse of {p.name} about slot {i}; use invert_at") from None
    return build()


def invert_at(f: Expr, i: int, target: float, fixed, d: BoxDomain,
              tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID,
              warnings: list | None = None) -> list[float]:
    """All axis-i values t in d with |f(..., t, ...) - target| <= tol.

    `fixed` gives the values of the other slots in ascending slot order.
    Roots are isolated by a sign-change scan at `grid` points and refined by
    bisection until the residual meets `tol`; the returned list is ascending
    and deduplicated within 10*tol.  Subintervals where evaluation fails are
    skipped and recorded in `warnings` when a list is supplied.  An empty
    result is not an error.
    """
    fixed = _check_slot(f, i, d, fixed=fixed)
    return _roots(_section(f, i, fixed), *d.axis(i), float(target), tol, grid,
                  [] if warnings is None else warnings)


def piecewise_split(f: Expr, i: int, d: BoxDomain, grid: int,
                    tol: float = DEFAULT_TOL,
                    max_branches: int = MAX_BRANCHES) -> PiecewiseInverse:
    """Split axis `i` into monotone branches.

    Section extrema are detected as sign changes of the discrete slope on
    every probed fiber and localized by ternary refinement; cut points from
    all fibers are merged within one grid cell.  Each resulting branch must
    pass check_invertible at the same resolution.  More than `max_branches`
    branches (or a flat section segment) is a degenerate input.
    """
    _check_slot(f, i, d, grid)
    lo, hi = d.axis(i)
    ts = _axis_points(lo, hi, grid)
    cell = (hi - lo) / (grid - 1)

    cuts: list[float] = []
    for fixed in _fibers(d, i, grid):
        section = _section(f, i, fixed)
        vals, flat, turns = _scan_fiber(section, ts)
        if flat is not None:
            raise DegenerateInputError(
                f"flat section segment on axis {i} near t={ts[flat]!r}: "
                "cannot isolate strictly monotone branches")
        for k in turns:
            cuts.append(_refine_extremum(section, ts[k - 1], ts[k + 1],
                                         peak=vals[k] > vals[k - 1], tol=tol))

    merged: list[float] = []
    for c in sorted(cuts):
        if merged and c - merged[-1] <= cell:
            continue
        merged.append(c)
    merged = [c for c in merged if lo + tol < c < hi - tol]
    if len(merged) + 1 > max_branches:
        raise DegenerateInputError(
            f"{len(merged) + 1} branches exceed the budget of {max_branches}")

    edges = [lo, *merged, hi]
    first_section = _section(f, i, next(_fibers(d, i, grid)))
    branches = []
    for bid, (a, b) in enumerate(zip(edges, edges[1:]), start=1):
        sub = d.with_axis(i, (a, b))
        verdict = check_invertible(f, i, sub, grid)
        if not verdict.invertible:
            raise DegenerateInputError(
                f"branch {bid} [{a!r}, {b!r}] is not monotone at grid {grid}")
        qa = first_section(a + 0.25 * (b - a))
        qb = first_section(a + 0.75 * (b - a))
        branches.append(Branch((a, b), 1 if qb > qa else -1, bid))
    return PiecewiseInverse(axis=i, branches=tuple(branches), source=f, domain=d)


def _refine_extremum(section, a, b, peak: bool, tol: float) -> float:
    for _ in range(MAX_BISECT_STEPS):
        if b - a <= tol:
            break
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        v1 = section(m1)
        v2 = section(m2)
        if (v1 < v2) == peak:
            a = m1
        else:
            b = m2
    return 0.5 * (a + b)


def inverse_fn(f: Expr, i: int, d: BoxDomain, tol: float = DEFAULT_TOL,
               grid: int = DEFAULT_GRID, split_grid: int = DEFAULT_SPLIT_GRID):
    """Callable partial inverse of `f` about slot `i` over the box `d`.

    The domain is decomposed into monotone branches up front; each call
    takes the full argument tuple (output value at position `i`, the other
    coordinates in place) and returns every preimage found across all
    branches, ascending.  The branch decomposition is exposed on the
    returned callable as `.pieces`.
    """
    pieces = piecewise_split(f, i, d, split_grid, tol=tol)

    def fn(*args: float) -> list[float]:
        if len(args) != f.arity:
            raise StructureError(f"expected {f.arity} arguments, got {len(args)}")
        fixed = _check_slot(f, i, d, fixed=args[: i - 1] + args[i:])
        section = _section(f, i, fixed)
        target = float(args[i - 1])
        found: list[float] = []
        for branch in pieces.branches:
            found.extend(_roots(section, *branch.interval, target, tol, grid, []))
        found.sort()
        roots: list[float] = []
        for t in found:
            if not roots or t - roots[-1] > 10 * tol:
                roots.append(t)
        return roots

    fn.pieces = pieces
    return fn
