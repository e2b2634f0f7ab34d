"""Partial invertibility and partial inverses.

Invertibility about one slot is probed on finite grids of fibers: for each
assignment of the other coordinates, the one-variable section must be
strictly monotone.  A passing verdict is evidence at the probed resolution,
not a proof; resolution is configurable everywhere.  Non-invertible
functions are split into monotone branches along the inverted axis so that
every preimage is reported (the multivalued reading).

Every entry point runs on one small core.  `_check_slot` validates the
arguments; `_values`, through which a scan evaluates its runs of points,
pairs each scan point with the section's value there, or None where it
does not evaluate; `_fiber_scans` walks the fibers of a probe or a split,
and `_scan_fiber` finds each one's flat steps and turning points;
`_refine_root` is the one bracket refiner (Illinois regula falsi, with
bisection steps as its safeguard) of roots and of branch cuts, which are
roots of a central difference of the section, and `_bisect` bisects only
the equal-value witnesses of a turning point; `_edge_root` searches a scan
interval with one undefined end up to the gap edge; and `_roots` is the
sign-change scan, bracketing and root grouping shared by `invert_at`,
`inverse_fn` and the evaluation of Inverse nodes: one lazy pass over a
stream of scan values, so the evaluation of an Inverse node stops at its
first root.
`inverse_fn` scans each branch at 65 points by default, the split's probe
count, through the point function the split already lowered.  Each of
those points is evaluated once per solve: a split whose fibers have no
turning point is its one branch's probe, so it is not probed again, and
for a unary function the branch scans at the split's resolution take the
values of the scan that checked the branch, minus the target.
`invert_at` and Inverse nodes, which have no split, run one search of a
1 024-point grid (`_pruned_roots`).  One lookup of the lowering of the
function along the slot (`lowered_enclosure`) gives its range enclosure
and its section (`enclose.section`): the section is bitwise the point
function minus the target, with the other coordinates bound once, not
passed at every point.  The search (`_pruned_values`) yields the pairs
(t, value) of only the points that can matter to the roots, each
evaluated once (but a crossing search's probe that a later run scans): a
block of the grid whose end values lie beyond tol on opposite sides is
split, before any enclosure, around a crossing cell that a bisection of
its grid indices finds through the section, so that both sides of the
cell can drop; a block whose range enclosure lies beyond tol on one side
holds no root, no bracket end and no point that fails, so it is dropped
but for its ends; and any other block is halved.  The roots, refinements
included, and the notes are bitwise those of the scan of every point.  An
Inverse node stops at its first root.  The default tolerance is the
package's `DEFAULT_TOL` (1e-9).

The core has one failure rule.  A point where the section does not
evaluate (log, root or division outside its domain, overflow in a power,
a nested Inverse at a non-finite argument or without a preimage) is a
gap: it ends a run of the scan, takes part in no flat-step,
turning-point or sign test, ends a refinement (of a root or of a cut) or a
bisection where it stands, and is noted where a notes list
exists (`invert_at`'s `warnings`).  It is never raised out of
`check_invertible`, `piecewise_split`, `invert_at` or `inverse_fn`: the
stretches where the function is undefined are skipped, and the defined
runs are searched.
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
    _axis_points,
    lowered,
    lowered_enclosure,
)

DEFAULT_GRID = 1024        # scan points of invert_at and Inverse nodes, which have no split
DEFAULT_SPLIT_GRID = 65    # probe points per axis when isolating branches, and
                           # scan points per branch of inverse_fn
PRUNE_BLOCK = 16           # cells of the blocks that the 1 024-point scan no longer halves
PRUNE_MISSES = 12          # enclosures in a row that drop nothing, after which it scans the rest
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


@dataclass(frozen=True)
class PiecewiseInverse:
    """Monotone-branch decomposition of one axis of one function.

    Branch sub-intervals share endpoints, have pairwise-disjoint interiors
    and cover the axis interval exactly.
    """

    branches: tuple[Branch, ...]


def _section(f: Expr, i: int, fixed, target: float = 0.0):
    """The one-variable section t -> f(fixed, with t at slot i) - target,
    for the probe, the split and `inverse_fn`, which share f's point
    function with `evaluate` (the pruned search lowers its own section
    along the slot: `lowered_enclosure`'s `section`).

    It calls f's lowered function directly, with no argument tuple to build
    for a unary f: the callers validate their inputs once, not at every
    point of a scan.  `v - 0.0` is bitwise `v`, -0.0 included.  A point
    that does not evaluate raises `EvalError`, and every caller turns it
    into a gap.
    """
    fn = lowered(f)
    if f.arity == 1:
        return lambda t: fn(t) - target
    before, after = tuple(fixed[: i - 1]), tuple(fixed[i - 1:])
    return lambda t: fn(*before, t, *after) - target


def _check_slot(f: Expr, i: int, d: BoxDomain, grid: int | None = None,
                fixed=None, target: float | None = None) -> list[float] | None:
    """Validate slot `i` of `f` over the box `d`, and the fiber grid, the
    target or the fixed coordinates when given; return the fixed
    coordinates as floats."""
    n = f.arity
    if not 1 <= i <= n:
        raise StructureError(f"slot {i} out of range 1..{n}")
    if d.dim != n:
        raise StructureError(f"domain has {d.dim} axes, function has arity {n}")
    if grid is not None and grid < 3:
        raise StructureError(f"grid must be at least 3 points per axis, got {grid}")
    if target is not None and not math.isfinite(target):
        raise StructureError(f"target {target} is not finite")
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


def _values(section, ts, notes: list | None = None):
    """Yield the pairs (t, section(t)) for each t of `ts`, with None for the
    value where the section does not evaluate, which is noted in `notes`
    when a list is given.  Every scan point of every scan is evaluated
    here, and `ts` may be lazy: the points are drawn one at a time."""
    for t in ts:
        try:
            yield t, section(t)
        except EvalError as exc:
            if notes is not None:
                notes.append(f"evaluation failed at t={t!r}: {exc}")
            yield t, None


def _scan_fiber(section, ts):
    """The section's values at `ts`, the index k of its first flat step
    (vals[k] == vals[k+1]) or None, and before that step, the indices of
    its turning points (where the discrete slope changes sign).

    A point that does not evaluate has the value None and ends a run: no
    step or turn spans it.  A non-finite value takes part in neither test:
    a step or a turn that involves one is passed over, so every reported
    value is finite.
    """
    vals = [v for _, v in _values(section, ts)]
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


def _fiber_scans(f: Expr, i: int, d: BoxDomain, grid: int):
    """Yield, for each grid assignment of the slots other than i in
    ascending slot order (one empty assignment where there are none), its
    coordinates, the section along axis i, the scan points of that axis and
    `_scan_fiber`'s scan of them."""
    ts = _axis_points(*d.axis(i), grid)
    for fixed in product(*(_axis_points(*d.axis(k), grid) for k in range(1, d.dim + 1) if k != i)):
        section = _section(f, i, fixed)
        yield fixed, section, ts, _scan_fiber(section, ts)


def _bisect(h, a, b, ha, hb, tol, notes: list) -> tuple[float, float]:
    """Bisect [a, b], where ha = h(a) and hb = h(b) lie on opposite sides of
    zero; return (t, |h(t)|) for the first t with |h(t)| <= tol, else for the
    best t seen.

    A point that does not evaluate ends the search with an infinite
    residual: the bracket spans a gap.  That, and a search that ends above
    `tol` (at a midpoint equal to an end, or after `MAX_BISECT_STEPS`
    steps), is noted.  Only `_probe`'s equal-value witnesses are bisected:
    a turning point whose witness bracket holds a pole must meet the pole
    to give no witness, and a midpoint lands on it where a secant point
    need not.  Root brackets are refined by `_refine_root`.
    """
    best_t, best_err = a, abs(ha)
    if abs(hb) < best_err:
        best_t, best_err = b, abs(hb)
    neg_left = ha < 0
    for _ in range(MAX_BISECT_STEPS):
        m = 0.5 * a + 0.5 * b   # a + b may overflow
        if m == a or m == b:
            break
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
    if not best_err <= tol:
        notes.append(f"bisection stalled near t={best_t!r} (residual {best_err!r})")
    return best_t, best_err


def _refine_root(h, a, b, ha, hb, tol, notes: list) -> tuple[float, float]:
    """Refine the root bracket between a and b, in either order, where
    ha = h(a) and hb = h(b) lie on opposite sides of zero; return (t,
    |h(t)|) for the first t with |h(t)| <= tol, else for the best t seen,
    with the notes of `_bisect`: a point that does not evaluate aborts the
    search, and a midpoint equal to an end, or `MAX_BISECT_STEPS` steps,
    stall it.

    Each step takes the secant point of the two ends, where the value of an
    end kept twice in a row is halved (the Illinois method), or the
    midpoint where that point is not strictly inside the bracket (a NaN, an
    overflow or a halved value that underflowed in the secant formula) or
    where the last two steps did not halve the bracket, so its width halves
    at least every 3 evaluations.
    """
    best_t, best_err = a, abs(ha)
    if abs(hb) < best_err:
        best_t, best_err = b, abs(hb)
    neg_a = ha < 0
    kept = 0            # the end the last step kept: -1 for a, 1 for b
    w1 = w2 = math.inf  # the bracket's width one and two steps ago
    for _ in range(MAX_BISECT_STEPS):
        m = 0.5 * a + 0.5 * b   # a + b may overflow
        if m == a or m == b:
            break
        w = abs(b - a)
        if w <= 0.5 * w2 and ha != hb:
            s = (a * hb - b * ha) / (hb - ha)
            if a < s < b or b < s < a:
                m = s
        w2, w1 = w1, w
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
        if (hm < 0) == neg_a:
            if kept == 1:
                hb *= 0.5
            a, ha, kept = m, hm, 1
        else:
            if kept == -1:
                ha *= 0.5
            b, hb, kept = m, hm, -1
    if not best_err <= tol:
        notes.append(f"bisection stalled near t={best_t!r} (residual {best_err!r})")
    return best_t, best_err


def _edge_root(h, t, v, gap, tol, notes: list) -> tuple[float, float]:
    """Search from t, where h(t) = v lies beyond tol, toward `gap`, a point
    where h does not evaluate, for a root before the gap edge; return
    (t, |h(t)|) as `_refine_root` does, for the root or for the last
    defined point of the walk.

    The defined end walks toward the gap by bisection until h is within
    tol there, or changes sign, which brackets a root for `_refine_root`
    (its ends in descending order where the gap lies to the left); the
    walk ends when the two ends are within tol of each other, or where the
    midpoint equals an end.  A NaN value counts as a gap.
    """
    for _ in range(MAX_BISECT_STEPS):
        if abs(gap - t) <= tol:
            break
        m = 0.5 * t + 0.5 * gap   # t + gap may overflow
        if m == t or m == gap:   # tol is below the float spacing here
            break
        try:
            hm = h(m)
        except EvalError:
            hm = math.nan
        if hm != hm:
            gap = m
        elif abs(hm) <= tol:
            return m, abs(hm)
        elif (hm < 0) != (v < 0):
            return _refine_root(h, t, m, v, hm, tol, notes)
        else:
            t, v = m, hm
    return t, abs(v)


def _roots(h, points, tol: float, notes: list):
    """Yield, ascending, the t between the first and the last scan point
    with |h(t)| <= tol that the scan points isolate, where h is the point
    function t -> f(..., t, ...) - target of one fiber.

    `points` yields the pairs (t, h(t)) for ascending t, with None for
    h(t) where it does not evaluate.  One pass over the values brackets
    sign changes, `_refine_root` refines each bracket, and roots closer
    than 10*tol keep the one of least residual.  An interval with one end
    undefined is searched from its defined end to the gap edge
    (`_edge_root`), so a root between the last scan point of a run and the
    end of the run is found too.  A group's root is yielded once the scan
    is past it by more than 10*tol, so a caller that needs the first root
    stops there.  Points and brackets where evaluation fails are skipped
    and noted; the notes on intervals and refinements follow any that the
    value stream itself appends.
    """
    later: list[str] = []
    band = 10 * tol
    best = last = None    # the open group's (residual, root) and its last member
    scan = iter(points)
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
                    m, err = _edge_root(h, end, v, gap, tol, later)
                    if err <= tol:
                        found = (err, m)
        elif abs(a) > tol and abs(b) > tol:
            if (a < 0) != (b < 0):
                m, err = _refine_root(h, ta, t, a, b, tol, later)
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


def _pruned_roots(f: Expr, i: int, fixed, ts: list[float], target: float, tol: float,
                  notes: list):
    """`_roots` of f - target along slot i (the other slots at `fixed`) over
    the pairs (t, value) that `_pruned_values` yields from the scan points
    of `ts`: the scan of `invert_at` and of Inverse nodes, which have no
    branch split.  One lowering gives the search its enclosure and the
    section that it, `_roots` and the refinements evaluate."""
    enclose = lowered_enclosure(f, i)
    h = enclose.section(target, *fixed)
    return _roots(h, _pruned_values(h, enclose, ts, target, fixed, tol, notes), tol, notes)


def _pruned_values(h, enclose, ts: list[float], target: float, fixed, tol: float,
                   notes: list):
    """Yield, ascending, the pairs (t, h(t)) of the scan points of `ts`
    that `_roots` needs to find what it finds on all of them, as `_values`
    yields them (None where h does not evaluate, noted in `notes`), where
    h = f - target is the section along the slot that `enclose` bounds.
    A run of points scanned one by one goes through `_values`, lazily, so a
    caller that stops at its first root stops the scan there.  The first
    point, the last one, the ends of a crossing cell and the midpoints of
    halved blocks are evaluated here, and each value is kept until its
    point is yielded, so no point is evaluated twice but a probe of a
    crossing search that a later run scans again.

    The first point is yielded as it is evaluated, and the last one is
    evaluated next.  Where either does not evaluate, no enclosure bounds the
    grid, and every other point is yielded through `_values`, the last one
    included.  Otherwise the scan is a depth-first branch-and-bound over the
    whole grid, left block first.  A block on the stack carries the value
    at its right end, and the value at its left end is the one last
    yielded.  A block whose end values lie beyond tol on opposite sides is
    split at a sign change before any enclosure: a bisection over its grid
    indices finds an index r whose value has left the left end's side (it
    has the other sign or lies within tol) while the value at r - 1 has
    not, and the block becomes (a, r-1), the one cell (r-1, r) and (r, b),
    each with its right end value; a block of one cell is yielded with no
    enclosure.  A probe that does not evaluate there ends the bisection,
    and the block goes to its enclosure, as any other block does.  A block
    whose enclosure (`enclose`) lies strictly above tol or strictly below
    -tol holds values that are all defined, finite and of one sign beyond
    tol, so no scan point inside it is a root or ends a bracket, and it is
    dropped: only its right end is yielded.  Any other block is halved,
    with the value at its midpoint, down to `PRUNE_BLOCK` cells and then
    scanned point by point; a finite enclosure means that every point of
    its block evaluates, so those midpoints raise and note nothing.  Where
    the enclosures stop paying, the rest of the grid is scanned point by
    point: from a block whose enclosure is (-inf, inf), so an expression
    that cannot be bounded is scanned at every point, and after
    `PRUNE_MISSES` enclosures in a row that dropped nothing, which bounds
    their cost where none can drop a block.
    """
    last = len(ts) - 1
    try:
        ha = h(ts[0])
    except EvalError as exc:
        notes.append(f"evaluation failed at t={ts[0]!r}: {exc}")
        ha = None
    yield ts[0], ha
    hb = None
    if ha is not None and last:
        try:
            hb = h(ts[last])
        except EvalError:
            pass    # `_values` evaluates it again, and notes it, where the scan reaches it
    if hb is None:
        yield from _values(h, ts[1:], notes)
        return
    blocks = [(0, last, hb)]
    misses = 0      # enclosures in a row that dropped nothing
    while blocks:
        a, b, hb = blocks.pop()
        if b - a > 1:
            if ha > tol and hb < -tol or ha < -tol and hb > tol:
                # the bisection keeps the value at r - 1 (hl) on a's side and
                # the one at k (hk) off it, however often the block crosses
                side = 1.0 if ha > 0 else -1.0
                r, k, hl, hk = a + 1, b, ha, hb
                try:
                    while r < k:
                        m = (r + k) // 2
                        v = h(ts[m])
                        if side * v <= tol:
                            k, hk = m, v
                        else:
                            r, hl = m + 1, v
                except EvalError:
                    pass    # no enclosure vouched for the probe: the block's decides
                else:
                    if r < b:
                        blocks.append((r, b, hb))
                    blocks.append((r - 1, r, hk))
                    if r - 1 > a:
                        blocks.append((a, r - 1, hl))
                    continue
            lo, hi = enclose(ts[a], ts[b], target, *fixed)
            if lo > tol or hi < -tol:
                misses = 0
            else:
                misses += 1
                if lo == -math.inf or misses == PRUNE_MISSES:
                    blocks.append((a, b, hb))
                    for a, b, hb in reversed(blocks):
                        yield from _values(h, ts[a + 1:b], notes)
                        yield ts[b], hb
                    return
                if b - a > PRUNE_BLOCK:
                    m = (a + b) // 2
                    blocks += (m, b, hb), (a, m, h(ts[m]))
                    continue
                yield from _values(h, ts[a + 1:b], notes)
        yield ts[b], hb
        ha = hb


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
           tol: float) -> tuple[InvertVerdict, list[float], list]:
    """check_invertible without the argument check; also its scan points
    along axis i, and the values of the last fiber it scanned (for a unary
    f, its only one)."""
    for fixed, section, ts, (vals, flat, turns) in _fiber_scans(f, i, d, grid):
        if flat is not None:
            witness = Witness(tuple(fixed), ts[flat], ts[flat + 1], vals[flat], vals[flat + 1])
            return InvertVerdict(False, witness), ts, vals
        for k in turns:
            # vals[k] is a local extremum; any level strictly between it and
            # the nearer neighbour value is crossed on both sides.
            va, vb, vc = vals[k - 1], vals[k], vals[k + 1]
            near = max(va, vc) if vb > va else min(va, vc)
            level = 0.5 * vb + 0.5 * near   # vb + near may overflow
            h = _section(f, i, fixed, level)
            t1, err1 = _bisect(h, ts[k - 1], ts[k], va - level, vb - level, tol / 2.0, [])
            t2, err2 = _bisect(h, ts[k], ts[k + 1], vb - level, vc - level, tol / 2.0, [])
            if max(err1, err2) < math.inf:
                witness = Witness(tuple(fixed), t1, t2, section(t1), section(t2))
                return InvertVerdict(False, witness), ts, vals
    return InvertVerdict(True, None), ts, vals


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
    Roots are isolated by a sign-change scan at `grid` points and each
    bracket is refined (`_refine_root`: Illinois regula falsi, safeguarded by
    bisection) until the residual meets `tol`; the returned list is ascending
    and deduplicated within 10*tol.  The scan is the one of Inverse nodes:
    it evaluates only the points that range enclosures cannot rule out,
    and finds the roots and warnings that a scan of every point finds.
    Subintervals where evaluation fails are skipped and recorded in
    `warnings` when a list is supplied.  An empty result is not an error;
    a target that is not finite, a fixed value outside `d` or a grid of
    fewer than 3 points is a `StructureError`.
    """
    target = float(target)
    fixed = _check_slot(f, i, d, grid, fixed, target)
    return list(_pruned_roots(f, i, fixed, _axis_points(*d.axis(i), grid), target, tol,
                              [] if warnings is None else warnings))


def piecewise_split(f: Expr, i: int, d: BoxDomain, grid: int,
                    tol: float = DEFAULT_TOL) -> PiecewiseInverse:
    """Split axis `i` into monotone branches.

    Section extrema are detected as sign changes of the discrete slope on
    every probed fiber.  Each is cut at the root of the central difference
    s(t + delta) - s(t - delta), delta = 1e-6 of the axis interval,
    which `_refine_root` refines to float resolution over the two cells
    around the turn (one-sided within delta of their outer ends), or at the
    grid turn where the difference shows no sign change there; a refinement
    that meets a point where s does not evaluate cuts there, within delta
    of the undefined stretch.  Cut points from
    all fibers are merged within one grid cell.  Each resulting branch must
    pass check_invertible at the same resolution.  Where no fiber
    turns, the one branch is the whole axis and that probe would repeat the
    split's own scan point for point, so it is not run.
    Stretches where the section does not evaluate are skipped, never cut
    at and never an error: a branch may hold several runs separated by such
    gaps, and the root scan searches all of them.  More than `MAX_BRANCHES`
    branches (or a flat section segment) is a degenerate input.
    """
    return _split(f, i, d, grid, tol)[0]


def _split(f: Expr, i: int, d: BoxDomain, grid: int, tol: float):
    """piecewise_split, and for each branch the scan points and the values of
    the last fiber that checked it: the branch's probe, or the split's own
    scan where no fiber turned.  For a unary f these are the section's
    values along the branch at `grid` points, as `_values` yields them."""
    _check_slot(f, i, d, grid)
    lo, hi = d.axis(i)
    cell = (hi - lo) / (grid - 1)
    delta = 1e-6 * (hi - lo)    # the step of the difference whose roots are the cuts

    cuts: list[float] = []
    for _, section, ts, (vals, flat, turns) in _fiber_scans(f, i, d, grid):
        if flat is not None:
            raise DegenerateInputError(
                f"flat section segment on axis {i} near t={ts[flat]!r}: "
                "cannot isolate strictly monotone branches")

        for k in turns:
            a, b = ts[k - 1], ts[k + 1]
            # one-sided within delta of the bracket's ends, whose values the scan holds
            def slope(t, s=section, a=a, b=b):
                return s(min(t + delta, b)) - s(max(t - delta, a))
            try:
                ga, gb = section(a + delta) - vals[k - 1], vals[k + 1] - section(b - delta)
            except EvalError:
                ga = gb = 0.0   # no sign change: the cut is the grid turn
            cuts.append(_refine_root(slope, a, b, ga, gb, 0.0, [])[0]
                        if ga < 0 < gb or gb < 0 < ga else ts[k])

    merged: list[float] = []
    for c in sorted(cuts):
        if merged and c - merged[-1] <= cell:
            continue
        merged.append(c)
    merged = [c for c in merged if lo + tol < c < hi - tol]
    if len(merged) + 1 > MAX_BRANCHES:
        raise DegenerateInputError(
            f"{len(merged) + 1} branches exceed the budget of {MAX_BRANCHES}")

    edges = [lo, *merged, hi]
    branches, scans = [], []
    for bid, (a, b) in enumerate(zip(edges, edges[1:]), start=1):
        if cuts:
            # a fiber turned: even where every cut was dropped, the probe
            # may find a witness
            verdict, *scan = _probe(f, i, d.with_axis(i, (a, b)), grid, tol)
            if not verdict.invertible:
                raise DegenerateInputError(
                    f"branch {bid} [{a!r}, {b!r}] is not monotone at grid {grid}")
        else:
            # the one branch [lo, hi]: its probe is the scan just made
            scan = ts, vals
        branches.append(Branch((a, b)))
        scans.append(scan)
    return PiecewiseInverse(tuple(branches)), scans


def inverse_fn(f: Expr, i: int, d: BoxDomain, tol: float = DEFAULT_TOL,
               grid: int = DEFAULT_SPLIT_GRID, split_grid: int = DEFAULT_SPLIT_GRID):
    """Callable partial inverse of `f` about slot `i` over the box `d`.

    The domain is decomposed into monotone branches up front; each call
    takes the full argument tuple (output value at position `i`, the other
    coordinates in place) and returns every preimage found across all
    branches, ascending; an output value that is not finite is a
    `StructureError`, and so is a `grid` or a `split_grid` of fewer than 3
    points.  Each branch is scanned at `grid` points through
    f's point function, the one the split lowered; the default, 65, is the
    split's default probe count.  For a unary f scanned at the split's
    resolution, the scan evaluates nothing: its values are the ones that
    checked the branch (the split's scan, or the branch's probe) minus the
    target, bitwise what the point function would give.  A sign change
    between scan points is refined as in `invert_at`, and an interval with
    one undefined end is searched up to the gap edge.  Two roots in one
    scan cell, where the ends show no sign change, are missed: the split
    saw each branch monotone only at its own probe points, and for arity
    > 1 only on its grid fibers, so pass a larger `grid` where a branch may
    turn between them.  The branch decomposition is exposed on the returned callable as
    `.pieces`.
    """
    _check_slot(f, i, d, grid)
    pieces, scans = _split(f, i, d, split_grid, tol)
    if f.arity != 1 or grid != split_grid:
        scans = [(_axis_points(*branch.interval, grid), None) for branch in pieces.branches]

    def fn(*args: float) -> list[float]:
        if len(args) != f.arity:
            raise StructureError(f"expected {f.arity} arguments, got {len(args)}")
        target = float(args[i - 1])
        fixed = _check_slot(f, i, d, fixed=args[: i - 1] + args[i:], target=target)
        h = _section(f, i, fixed, target)
        found: list[float] = []
        for ts, vals in scans:
            values = (_values(h, ts) if vals is None
                      else zip(ts, (None if v is None else v - target for v in vals)))
            found.extend(_roots(h, values, tol, []))
        found.sort()
        roots: list[float] = []
        for t in found:
            if not roots or t - roots[-1] > 10 * tol:
                roots.append(t)
        return roots

    fn.pieces = pieces
    return fn
