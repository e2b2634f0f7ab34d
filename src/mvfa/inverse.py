"""Partial invertibility and partial inverses.

Invertibility about one slot is probed on finite grids of fibers: for each
assignment of the other coordinates, the one-variable section must be
strictly monotone.  A passing verdict is evidence at the probed resolution,
not a proof; resolution is configurable everywhere.  Non-invertible
functions are split into monotone branches along the inverted axis so that
every preimage is reported (the multivalued reading).

Every entry point runs on one small core: `_check_slot` validates the
arguments, `_values` evaluates a section along a scan with None where it
does not evaluate, `_scan_fiber` finds a fiber's flat steps and turning
points, `_bisect` is the one bisection (roots, and the equal-value
witnesses of a turning point), `_edge_root` searches a scan interval with
one undefined end up to the gap edge, and `_roots` is the sign-change
scan, bracketing and root grouping shared by `invert_at`, `inverse_fn` and
the evaluation of Inverse nodes: one lazy pass over a stream of scan
values, so the evaluation of an Inverse node stops at its first root.
`inverse_fn` scans each branch at 65 points by default, the split's probe
count, through the point function the split already lowered; `invert_at`
and Inverse nodes, which have no split, scan 1 024 points through the
expression's compiled scan kernel (`_kernel_roots`).  The default
tolerance is the package's `DEFAULT_TOL` (1e-9).

The core has one failure rule.  A point where the section does not
evaluate (log, root or division outside its domain, overflow in a power)
is a gap: it ends a run of the scan, takes part in no flat-step,
turning-point or sign test, ends a bisection or an extremum refinement
where it stands, and is noted where a notes list exists (`invert_at`'s
`warnings`).  It is never raised out of `check_invertible`,
`piecewise_split`, `invert_at` or `inverse_fn`: the stretches where the
function is undefined are skipped, and the defined runs are searched.
No values are compared across a gap, so a verdict holds run by run: on
0:4, log2((x-1)(x-3)) falls on [0, 1) and rises on (3, 4], and it is
reported invertible as one branch.  A solve still finds both of its
preimages of 0.5, because a branch's scan searches every one of its runs,
each up to its gap edge.

Primitives also carry closed-form partial inverses; the symbolic table and
the numeric path agree within tolerance (tested, not assumed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
    lowered_scan,
)

DEFAULT_GRID = 1024        # scan points of invert_at and Inverse nodes, which have no split
DEFAULT_SPLIT_GRID = 65    # probe points per axis when isolating branches, and
                           # scan points per branch of inverse_fn
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
    # +1 increasing, -1 decreasing: the first step between two finite values
    # in the branch's own invertibility probe (the first fiber that has
    # one), or +1 where the section is nowhere finite twice in a row
    sign: int
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


def _section(f: Expr, i: int, fixed, target: float = 0.0):
    """The one-variable section t -> f(fixed, with t at slot i) - target.

    It calls f's lowered function directly: the callers validate their
    inputs once, not at every point of a scan.  `v - 0.0` is bitwise `v`,
    -0.0 included.  A point that does not evaluate raises `EvalError`, and
    every caller turns it into a gap.
    """
    fn = lowered(f)
    before, after = tuple(fixed[: i - 1]), tuple(fixed[i - 1:])
    return lambda t: fn(*before, t, *after) - target


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


def _values(section, ts):
    """Yield the section's value at each t of `ts`, or None where it does
    not evaluate."""
    for t in ts:
        try:
            yield section(t)
        except EvalError:
            yield None


def _scan_fiber(section, ts):
    """The section's values at `ts`, the index k of its first flat step
    (vals[k] == vals[k+1]) or None, and the indices of its turning points
    (where the discrete slope changes sign) before that step.

    A point that does not evaluate has the value None and ends a run: no
    step or turn spans it.  A non-finite value takes part in neither test:
    a step or a turn that involves one is passed over, so every reported
    value is finite.
    """
    vals = list(_values(section, ts))
    turns = []
    rising = prev = None
    for k, v in enumerate(vals):
        if v is None or prev is None:
            rising, prev = None, v
            continue
        up = v > prev
        if v == prev:
            if math.isfinite(v):
                return vals, k - 1, turns
        elif up != rising and rising is not None:
            if all(map(math.isfinite, vals[k - 2: k + 1])):
                turns.append(k - 1)
        rising, prev = up, v
    return vals, None, turns


def _bisect(h, a, b, ha, hb, tol, notes: list) -> tuple[float, float]:
    """Bisect [a, b], where ha = h(a) and hb = h(b) lie on opposite sides of
    zero; return (t, |h(t)|) for the first t with |h(t)| <= tol, else for the
    best t seen.

    A point that does not evaluate ends the search with an infinite
    residual: the bracket spans a gap.  That, and a search that ends above
    `tol`, is noted.
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
    if not best_err <= tol:
        notes.append(f"bisection stalled near t={best_t!r} (residual {best_err!r})")
    return best_t, best_err


def _edge_root(h, t, v, gap, tol, notes: list) -> tuple[float, float]:
    """Search from t, where h(t) = v lies beyond tol, toward `gap`, a point
    where h does not evaluate, for a root before the gap edge; return
    (t, |h(t)|) as `_bisect` does, for the root or for the last defined
    point of the walk.

    The defined end walks toward the gap by bisection until h is within
    tol there, or changes sign, which brackets a root for `_bisect`; the
    walk ends when the two ends are within tol of each other.  A NaN value
    counts as a gap.
    """
    for _ in range(MAX_BISECT_STEPS):
        if abs(gap - t) <= tol:
            break
        m = 0.5 * (t + gap)
        try:
            hm = h(m)
        except EvalError:
            hm = math.nan
        if hm != hm:
            gap = m
        elif abs(hm) <= tol:
            return m, abs(hm)
        elif (hm < 0) != (v < 0):
            return _bisect(h, t, m, v, hm, tol, notes)
        else:
            t, v = m, hm
    return t, abs(v)


def _roots(section, ts: list[float], vals, tol: float, notes: list):
    """Yield, ascending, the t in [ts[0], ts[-1]] with |h(t)| <= tol that
    the ascending scan points `ts` isolate, where h = section() is the
    point function t -> f(..., t, ...) - target of one fiber.

    `vals` yields h(t) at each t of `ts`, or None where it does not
    evaluate; `section` is called once, when the first bisection needs a
    point.  One pass over the values brackets sign changes, bisection
    refines each bracket, and roots closer than 10*tol keep the one of
    least residual.  An interval with one end undefined is searched from
    its defined end to the gap edge (`_edge_root`), so a root between the
    last scan point of a run and the end of the run is found too.  A
    group's root is yielded once the scan is past it by more than 10*tol,
    so a caller that needs the first root stops there.  Points and
    brackets where evaluation fails are skipped and noted; the notes on
    intervals and bisections follow any that the value stream itself
    appends.
    """
    later: list[str] = []
    band = 10 * tol
    h = None              # the point function, for bisection only
    best = last = None    # the open group's (residual, root) and its last member
    scan = zip(ts, vals)
    ta, a = next(scan)
    if a is not None and abs(a) <= tol:
        best, last = (abs(a), ta), ta
    for t, b in scan:
        found = None
        if a is None or b is None:
            if a is not b:
                later.append(f"skipped interval [{ta!r}, {t!r}]")
                end, v, gap = (ta, a, t) if b is None else (t, b, ta)
                if abs(v) <= tol:
                    # a root already counted at ta, or one to count at t
                    found = (abs(v), t) if end == t else None
                elif v == v:
                    if h is None:
                        h = section()
                    m, err = _edge_root(h, end, v, gap, tol, later)
                    if err <= tol:
                        found = (err, m)
        elif abs(a) > tol and abs(b) > tol:
            if (a < 0) != (b < 0):
                if h is None:
                    h = section()
                m, err = _bisect(h, ta, t, a, b, tol, later)
                if err <= tol:
                    found = (err, m)
        else:
            # An end within tol is a root already counted.  Every comparison
            # with NaN is false, so a NaN end lands here too and forms no
            # bracket.
            if a != a or b != b:
                later.append(f"skipped interval [{ta!r}, {t!r}]: nan")
            if abs(b) <= tol:
                found = (abs(b), t)
        if found is not None:
            # Candidates arrive in ascending order: a bracket's root lies
            # strictly between its ends, whose residuals exceed tol.
            if best is not None and found[1] - last > band:
                yield best[1]
                best = None
            if best is None or found < best:
                best = found
            last = found[1]
        if best is not None and t - last > band:
            # every later candidate lies at or beyond t
            yield best[1]
            best = None
        ta, a = t, b
    notes.extend(later)
    if best is not None:
        yield best[1]


def _kernel_roots(f: Expr, i: int, fixed, ts: list[float], target: float, tol: float,
                  notes: list):
    """`_roots` of f - target along slot i (the other slots at `fixed`)
    over f's compiled scan kernel: the scan of `invert_at` and of Inverse
    nodes, which have no branch split."""
    vals = lowered_scan(f, i)(ts, target, notes, *fixed)
    return _roots(partial(_section, f, i, fixed, target), ts, vals, tol, notes)


def check_invertible(f: Expr, i: int, d: BoxDomain, grid: int,
                     tol: float = DEFAULT_TOL) -> InvertVerdict:
    """Probe whether `f` is invertible about slot `i` over the box `d`.

    Every sampled fiber's section must be strictly monotone on each run of
    probe points where it evaluates; points where it does not are skipped,
    and no values are compared across them, so the verdict holds run by
    run.  On the first violation a reproducible witness (two axis values
    with equal section values, |v1-v2| <= tol) is constructed by bisection
    and returned.  A turning point whose witness bisection meets a point
    that does not evaluate spans a gap and gives no witness.
    """
    _check_slot(f, i, d, grid)
    return _probe(f, i, d, grid, tol)[0]


def _probe(f: Expr, i: int, d: BoxDomain, grid: int,
           tol: float = DEFAULT_TOL) -> tuple[InvertVerdict, int]:
    """check_invertible without the argument check, and the direction of the
    first step between two finite values it computed, +1 if there is none."""
    ts = _axis_points(*d.axis(i), grid)
    sign = None
    for fixed in _fibers(d, i, grid):
        section = _section(f, i, fixed)
        vals, flat, turns = _scan_fiber(section, ts)
        if flat is not None:
            witness = Witness(tuple(fixed), ts[flat], ts[flat + 1], vals[flat], vals[flat + 1])
            return InvertVerdict(False, witness), 1
        for k in turns:
            # vals[k] is a local extremum; any level strictly between it and
            # the nearer neighbour value is crossed on both sides.
            va, vb, vc = vals[k - 1], vals[k], vals[k + 1]
            level = (vb + (max(va, vc) if vb > va else min(va, vc))) / 2.0
            h = _section(f, i, fixed, level)
            t1, err1 = _bisect(h, ts[k - 1], ts[k], va - level, vb - level, tol / 2.0, [])
            t2, err2 = _bisect(h, ts[k], ts[k + 1], vb - level, vc - level, tol / 2.0, [])
            if max(err1, err2) < math.inf:
                witness = Witness(tuple(fixed), t1, t2, section(t1), section(t2))
                return InvertVerdict(False, witness), 1
        if sign is None:
            sign = next((1 if b > a else -1 for a, b in zip(vals, vals[1:])
                         if a is not None and b is not None
                         and math.isfinite(a) and math.isfinite(b)), None)
    return InvertVerdict(True, None), sign or 1


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
    return list(_kernel_roots(f, i, fixed, _axis_points(*d.axis(i), grid), float(target), tol,
                              [] if warnings is None else warnings))


def piecewise_split(f: Expr, i: int, d: BoxDomain, grid: int,
                    tol: float = DEFAULT_TOL,
                    max_branches: int = MAX_BRANCHES) -> PiecewiseInverse:
    """Split axis `i` into monotone branches.

    Section extrema are detected as sign changes of the discrete slope on
    every probed fiber and localized by ternary refinement, which stops at
    its current bracket where the section does not evaluate; cut points
    from all fibers are merged within one grid cell.  Each resulting branch
    must pass check_invertible at the same resolution, and its sign is the
    direction of the first finite step that probe computed.  Stretches
    where the section does not evaluate are skipped, never cut at and never
    an error: a branch may hold several runs separated by such gaps, and
    the root scan searches all of them.  More than `max_branches` branches
    (or a flat section segment) is a degenerate input.
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
    branches = []
    for bid, (a, b) in enumerate(zip(edges, edges[1:]), start=1):
        verdict, sign = _probe(f, i, d.with_axis(i, (a, b)), grid)
        if not verdict.invertible:
            raise DegenerateInputError(
                f"branch {bid} [{a!r}, {b!r}] is not monotone at grid {grid}")
        branches.append(Branch((a, b), sign, bid))
    return PiecewiseInverse(axis=i, branches=tuple(branches), source=f, domain=d)


def _refine_extremum(section, a, b, peak: bool, tol: float) -> float:
    for _ in range(MAX_BISECT_STEPS):
        if b - a <= tol:
            break
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        try:
            v1 = section(m1)
            v2 = section(m2)
        except EvalError:
            break  # a gap: the extremum is cut at the current bracket
        if (v1 < v2) == peak:
            a = m1
        else:
            b = m2
    return 0.5 * (a + b)


def inverse_fn(f: Expr, i: int, d: BoxDomain, tol: float = DEFAULT_TOL,
               grid: int = DEFAULT_SPLIT_GRID, split_grid: int = DEFAULT_SPLIT_GRID):
    """Callable partial inverse of `f` about slot `i` over the box `d`.

    The domain is decomposed into monotone branches up front; each call
    takes the full argument tuple (output value at position `i`, the other
    coordinates in place) and returns every preimage found across all
    branches, ascending.  Each branch is scanned at `grid` points through
    f's point function, the one the split lowered; the default, 65, is the
    split's default probe count.  A sign change between scan points is
    bisected, and an interval with one undefined end is searched up to the
    gap edge.  Two roots in one scan cell, where the ends show no sign
    change, are missed: the split saw each branch monotone only at its own
    probe points, and for arity > 1 only on its grid fibers, so pass a
    larger `grid` where a branch may turn between them.  The branch
    decomposition is exposed on the returned callable as `.pieces`.
    """
    pieces = piecewise_split(f, i, d, split_grid, tol=tol)
    scans = [_axis_points(*branch.interval, grid) for branch in pieces.branches]

    def fn(*args: float) -> list[float]:
        if len(args) != f.arity:
            raise StructureError(f"expected {f.arity} arguments, got {len(args)}")
        fixed = _check_slot(f, i, d, fixed=args[: i - 1] + args[i:])
        target = float(args[i - 1])
        h = _section(f, i, fixed, target)
        found: list[float] = []
        for ts in scans:
            found.extend(_roots(lambda: h, ts, _values(h, ts), tol, []))
        found.sort()
        roots: list[float] = []
        for t in found:
            if not roots or t - roots[-1] > 10 * tol:
                roots.append(t)
        return roots

    fn.pieces = pieces
    return fn
