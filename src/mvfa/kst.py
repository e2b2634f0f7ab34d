"""Desk-scale superposition decomposition.

A bivariate continuous function on the unit square is approximated as

    f(x1, x2)  ~=  sum over q = 0..2n of  Phi_q( sum over p of psi_{q,p}(x_p) )

with a fixed, function-independent family of strictly monotone inner maps
psi_{q,p} and numerically fitted outer functions Phi_q stored on uniform
knot grids with linear interpolation.  Exact continuous outer functions are
not computable from finite data; this module realizes the decomposition
operator numerically and its guarantees are the tested properties, not
proof-grade accuracy.

Inner family (the package's own documented choice): a truncated series

    psi(t) = sum for k = 1..K of 2**-k * t**(k/(k+1))

which is strictly increasing and continuous for t >= 0, evaluated at
t = x + q*eps with shift eps = 1/(2n+2), and scaled per coordinate by
rationally independent weights (1, sqrt(2), sqrt(3), ...).  The parameters
are recorded in every representation and never depend on the target
function.

Fitting is iterative residual correction: per iteration the current
residual is binned by inner-sum value for each q and a damped per-bin mean
correction is added to Phi_q.  The correction is shared equally across the
2n+1 outer functions (factor 2*damping/(2n+1), which is 1/(2n+1) at the
default damping of 0.5), so a constant function is absorbed exactly in one
iteration.  Corrections are fitted on a coarse bin grid and resampled onto
the storage knots to keep held-out reconstruction smooth.  A step that
would raise the max-norm training residual is halved until it does not
(kept unchanged in the worst case), so the recorded residual history is
non-increasing by construction.

The fit runs on a plan built once per call.  The training grid is a
product grid, so each inner sum adds one precomputed psi value per
coordinate: (2n+1)*n*grid inner-map calls, not (2n+1)*n*grid**2.  The
inner sums never change during the fit, so each sample's knot cell,
offset and cell width, and its bin and bin weight, are found once; an
iteration then gathers the outer functions and the correction at those
cells, and every step-halving trial is elementwise arithmetic.  That
arithmetic is np.interp's own, so the fit is bitwise the one that calls
np.interp on every trial.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .expr_core import (
    BoxDomain,
    Const,
    EvalDomainError,
    EvalError,
    Expr,
    MvfaError,
    Prim,
    Primitive,
    StructureError,
    lowered,
)
from .structure_ops import compose_at, lift, normalize

# Since version 2, each outer function's values are one base64 string of
# their little-endian IEEE-754 float64 bytes (`_pack`).
KST_FORMAT_VERSION = 2

DEFAULT_DEPTH = 10       # series truncation K
DEFAULT_KNOTS = 2 ** 12  # storage grid per outer function
DEFAULT_BINS = 64        # correction-fit nodes per iteration
DEFAULT_DAMPING = 0.5

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


class FormatError(MvfaError):
    """Unreadable or version-mismatched representation document."""


def _psi_base(t: float, depth: int = DEFAULT_DEPTH) -> float:
    return sum(2.0 ** -k * t ** (k / (k + 1)) for k in range(1, depth + 1))


def inner_weight(p: int) -> float:
    if p == 1:
        return 1.0
    return math.sqrt(_PRIMES[p - 2])


def inner_shift(n: int) -> float:
    return 1.0 / (2 * n + 2)


def inner_params(n: int, depth: int = DEFAULT_DEPTH) -> dict:
    """The inner-family parameters; identical for every decomposed function."""
    return {
        "family": "dyadic-rational-series",
        "depth": depth,
        "shift": inner_shift(n),
        "weights": [inner_weight(p) for p in range(1, n + 1)],
        "dimension": n,
    }


def inner_psi(q: int, p: int, x: float, n: int = 2, depth: int = DEFAULT_DEPTH) -> float:
    """Value of the inner map psi_{q,p} at x in [0, 1].

    Strictly increasing in x, continuous, and independent of any target
    function.  Arguments outside the unit interval are a domain error:
    rescale the target first.
    """
    if not 0 <= q <= 2 * n:
        raise StructureError(f"q must lie in 0..{2 * n}, got {q}")
    if not 1 <= p <= n:
        raise StructureError(f"p must lie in 1..{n}, got {p}")
    if not 0.0 <= x <= 1.0:
        raise EvalDomainError(f"inner maps take arguments in [0, 1], got {x}; rescale first")
    return inner_weight(p) * _psi_base(x + q * inner_shift(n), depth)


@dataclass
class OuterFunction:
    """A sampled unary function on a uniform knot grid, linearly interpolated."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) < 2:
            raise StructureError("outer function needs at least two knots")
        self.knots = np.linspace(self.lo, self.hi, len(self.values))

    def __call__(self, s: float) -> float:
        return float(np.interp(s, self.knots, self.values))


class ClampCounter:
    """Counts inner sums that fell outside an outer function's knot range."""

    def __init__(self):
        self.count = 0

    def add(self):
        self.count += 1


@dataclass
class KstRep:
    """A fitted superposition representation.

    Exactly 2n+1 outer functions; `history[k]` is the max-norm training
    residual after k iterations (history[0] is the pre-fit residual).
    Treat instances as immutable once `decompose` has returned them.
    """

    dimension: int
    inner: dict
    outer: list[OuterFunction]
    iterations: int
    history: list[float]
    grid: int

    @property
    def residual(self) -> float:
        return self.history[-1]

    def to_dict(self) -> dict:
        return {
            "version": KST_FORMAT_VERSION,
            "dimension": self.dimension,
            "inner_params": self.inner,
            "outer": [
                {"lo": fn.lo, "hi": fn.hi, "values": _pack(fn.values)}
                for fn in self.outer
            ],
            "iterations": self.iterations,
            "history": list(self.history),
            "grid": self.grid,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "KstRep":
        if not isinstance(doc, dict) or "version" not in doc:
            raise FormatError("not a superposition representation document")
        if doc["version"] != KST_FORMAT_VERSION:
            raise FormatError(
                f"unsupported representation version {doc['version']!r}, "
                f"expected {KST_FORMAT_VERSION}")
        try:
            rep = cls(
                dimension=int(doc["dimension"]),
                inner=dict(doc["inner_params"]),
                outer=[_outer_from_doc(o) for o in doc["outer"]],
                iterations=int(doc["iterations"]),
                history=[float(h) for h in doc["history"]],
                grid=int(doc.get("grid", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed representation document: {exc}") from exc
        if not np.isfinite(rep.history).all():
            raise FormatError("residual history holds a value that is not finite")
        if len(rep.history) != rep.iterations + 1:
            raise FormatError("residual history needs one entry per iteration, plus one")
        if len(rep.outer) != 2 * rep.dimension + 1:
            raise FormatError("document does not carry 2n+1 outer functions")
        expected = inner_params(rep.dimension, int(rep.inner.get("depth", DEFAULT_DEPTH)))
        if rep.inner != expected:
            raise FormatError("inner parameters do not match the fixed family")
        return rep

    def save(self, path) -> None:
        text = json.dumps(self.to_dict())  # one write, not json.dump's many small ones
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "KstRep":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh, parse_constant=_refuse_constant)
        except (OSError, ValueError) as exc:   # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"cannot read representation file: {exc}") from exc
        return cls.from_dict(doc)


def _pack(values: np.ndarray) -> str:
    """Base64 of the values' little-endian float64 bytes: exact and compact."""
    return base64.b64encode(values.astype("<f8", copy=False).tobytes()).decode("ascii")


def _unpack(text: str) -> np.ndarray:
    """The float64 values of a `_pack` string, two knots at least."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:   # binascii.Error, or a str that is not ASCII
        raise FormatError(f"outer values are not valid base64: {exc}") from exc
    if len(raw) % 8 or len(raw) < 16:
        raise FormatError(f"outer values take {len(raw)} bytes, "
                          "not 8 per knot for two knots or more")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def _outer_from_doc(o: dict) -> OuterFunction:
    lo, hi, values = o["lo"], o["hi"], _unpack(o["values"])
    if not (math.isfinite(lo) and math.isfinite(hi) and np.isfinite(values).all()):
        raise FormatError("outer function holds a value that is not finite")
    if not lo < hi:
        raise FormatError(f"outer function knot range [{lo!r}, {hi!r}] is empty")
    return OuterFunction(lo, hi, values)


def _refuse_constant(name: str):
    raise FormatError(f"representation file holds {name}, which is not strict JSON")


def _inner_sum(q: int, point, n: int, depth: int) -> float:
    return sum(inner_psi(q, p, point[p - 1], n, depth) for p in range(1, n + 1))


def _interp_plan(s: np.ndarray, xp: np.ndarray):
    """np.interp(s[q], xp[q], fp[q]) for every row q, split into the search,
    done here once, and the arithmetic, left to the caller.

    Returns the flat index `cell` of each sample's left knot xp[j] (the j
    with xp[j] <= s < xp[j+1]), the offset dx = s - xp[j], the cell width
    h = xp[j+1] - xp[j], and the flat indices `ends` of the samples on the
    last knot.  (fp[j+1] - fp[j]) / h * dx + fp[j], set to fp[j+1] at the
    ends, is np.interp's own arithmetic: for finite fp it gives np.interp's
    floats, except that a -0.0 knot value hit exactly may come out as 0.0.
    """
    rows, knots = xp.shape
    s = np.clip(s, xp[:, :1], xp[:, -1:])  # np.interp holds the end values
    j = np.array([np.searchsorted(x, v, side="right") for x, v in zip(xp, s)])
    cell = np.minimum(j - 1, knots - 2) + knots * np.arange(rows)[:, None]
    left = xp.take(cell)
    return cell, s - left, xp.take(cell + 1) - left, np.flatnonzero(s == xp[:, -1:])


def _interp_cells(left, right, dx, h, ends):
    """np.interp's values at the samples of an `_interp_plan`, from the knot
    values fp[j] (`left`) and fp[j+1] (`right`) of each sample's cell;
    computed in `right`'s buffer, which is returned."""
    at_ends = right.take(ends)
    right -= left
    right /= h
    right *= dx
    right += left
    right.put(ends, at_ends)
    return right


def decompose(f: Expr, grid: int = 33, iters: int = 50, *,
              knots: int = DEFAULT_KNOTS, bins: int = DEFAULT_BINS,
              damping: float = DEFAULT_DAMPING,
              depth: int = DEFAULT_DEPTH) -> KstRep:
    """Fit outer functions for `f` on the unit square.

    `f` must be a bivariate expression evaluable on [0, 1]^2.  Training uses
    a uniform grid x grid sample; each iteration bins the current residual
    by inner-sum value for every q and adds the damped per-bin mean
    correction (equally shared across the 2n+1 outer functions) to Phi_q.
    With iters = 0 the outer functions are identically zero and the recorded
    residual equals max|f| on the grid.  A target value that is not finite
    raises EvalError naming its training point before anything is fitted.
    """
    n = f.arity
    if n != 2:
        raise StructureError(f"decomposition is implemented for arity 2, got {n}")
    if grid < 2:
        raise StructureError("training grid needs at least 2 points per axis")
    if iters < 0:
        raise StructureError("iteration count must be nonnegative")
    if bins < 2 or knots < 2:
        raise StructureError("bin and knot counts must be at least 2")

    q_count = 2 * n + 1
    axis = np.linspace(0.0, 1.0, grid).tolist()
    fn = lowered(f)
    F = np.array([fn(x1, x2) for x1 in axis for x2 in axis])
    if not np.isfinite(F).all():
        k = int(np.flatnonzero(~np.isfinite(F))[0])
        point = (axis[k // grid], axis[k % grid])
        raise EvalError(f"target is not finite at {point}: {float(F[k])!r}", f, point)

    # The training grid is a product grid, so every inner sum is one value of
    # psi_{q,1} plus one of psi_{q,2}: (2n+1)*n*grid scalar maps, not
    # (2n+1)*n*grid**2.  The sums are the floats _inner_sum adds, in its order.
    S = np.empty((q_count, F.size))
    for q in range(q_count):
        psi1, psi2 = ([inner_psi(q, p, x, n, depth) for x in axis] for p in (1, 2))
        S[q] = np.add.outer(psi1, psi2).ravel()
    # Exact inner-sum range over the unit box: the maps are increasing, so
    # the extremes sit at the all-zero and all-one corners, which are the
    # first and the last training point.
    los, his = S[:, 0].copy(), S[:, -1].copy()

    knot_xs = np.array([np.linspace(los[q], his[q], knots) for q in range(q_count)])
    node_xs = [np.linspace(los[q], his[q], bins) for q in range(q_count)]
    phi = np.zeros((q_count, knots))
    share = 2.0 * damping / q_count

    # Everything that depends only on S is computed once: the interpolation
    # plan, and the binning: each sample's bin (flat index `b` into the bin
    # rows), its linear weight `w` (in S's buffer, which the plan no longer
    # needs) and the per-bin weight totals `den`.  Only the weighted
    # residual sums depend on the iteration.
    cell, dx, h, ends = _interp_plan(S, knot_xs)
    w = np.subtract(S, los[:, None], out=S)
    w /= (his - los)[:, None]
    w *= bins - 1
    b = np.clip(np.floor(w).astype(int), 0, bins - 2)
    w -= b
    b = (b + bins * np.arange(q_count)[:, None]).ravel()
    size = q_count * bins
    den = (np.bincount(b, weights=(1.0 - w).ravel(), minlength=size)
           + np.bincount(b + 1, weights=w.ravel(), minlength=size))
    hit = den > 1e-12

    # history[-1] is always the max-norm residual of `fit`, the training
    # reconstruction, so the accepted trial becomes the next `fit` as is.
    fit = np.zeros(F.size)
    delta = np.empty((q_count, knots))
    phi_l, phi_r, delta_l, delta_r, left, vals = (np.empty(w.shape) for _ in range(6))
    err = np.empty(F.size)
    history = [float(np.max(np.abs(F)))]
    for _ in range(iters):
        R = F - fit
        current = history[-1]
        np.subtract(1.0, w, out=left)   # the trial buffers hold the weighted residuals
        left *= R
        np.multiply(R, w, out=vals)
        num = (np.bincount(b, weights=left.ravel(), minlength=size)
               + np.bincount(b + 1, weights=vals.ravel(), minlength=size))
        corr = np.zeros(size)
        corr[hit] = num[hit] / den[hit]
        for q, c, on in zip(range(q_count), corr.reshape(q_count, bins),
                            hit.reshape(q_count, bins)):
            if not on.all():
                c = np.interp(node_xs[q], node_xs[q][on], c[on])
            delta[q] = share * np.interp(knot_xs[q], node_xs[q], c)
        # accept the largest halving of the step that does not raise the
        # max-norm residual; keep Phi unchanged if none does.  A trial
        # interpolates phi + scale*delta through the plan: gathers once per
        # iteration, elementwise arithmetic in two buffers per trial.
        # (the cells are in range; mode="clip" writes `out` without a bounce buffer)
        phi.take(cell, out=phi_l, mode="clip")
        phi.take(cell + 1, out=phi_r, mode="clip")
        delta.take(cell, out=delta_l, mode="clip")
        delta.take(cell + 1, out=delta_r, mode="clip")
        scale = 1.0
        accepted = current
        while scale > 2.0 ** -24:
            np.multiply(delta_l, scale, out=left)   # fp[j]
            left += phi_l
            np.multiply(delta_r, scale, out=vals)   # fp[j+1]
            vals += phi_r
            trial = np.zeros(F.size)   # q by q from zero, not numpy's reduction order
            for row in _interp_cells(left, vals, dx, h, ends):
                trial += row
            np.subtract(F, trial, out=err)
            trial_max = float(np.abs(err, out=err).max())
            if trial_max <= current:
                phi += scale * delta
                fit, accepted = trial, trial_max
                break
            scale *= 0.5
        history.append(accepted)

    outer = [OuterFunction(float(los[q]), float(his[q]), phi[q]) for q in range(q_count)]
    return KstRep(dimension=n, inner=inner_params(n, depth), outer=outer,
                  iterations=iters, history=history, grid=grid)


def reconstruct(rep: KstRep, point, warnings: ClampCounter | None = None) -> float:
    """Evaluate the superposition at a point of the unit box.

    Inner sums falling outside an outer function's knot range are clamped to
    the nearest knot; each clamp is counted on `warnings` when supplied.
    """
    n = rep.dimension
    if len(point) != n:
        raise StructureError(f"point has {len(point)} coordinates, expected {n}")
    pt = [float(v) for v in point]
    for v in pt:
        if not 0.0 <= v <= 1.0:
            raise EvalDomainError(f"reconstruction point must lie in the unit box, got {pt}")
    depth = int(rep.inner["depth"])
    total = 0.0
    for q in range(2 * n + 1):
        s = _inner_sum(q, pt, n, depth)
        fn = rep.outer[q]
        if s < fn.lo or s > fn.hi:
            s = min(max(s, fn.lo), fn.hi)
            if warnings is not None:
                warnings.add()
        total += fn(s)
    return total


def _affine_slot(n: int, k: int, scale: float, offset: float) -> Expr:
    """An n-ary expression using only slot k: offset + scale * x_k."""
    if n >= 2:
        spare = 1 if k != 1 else 2
        scaled = compose_at(lift(Prim(Primitive.MUL), n, (spare, k)), spare, Const(scale))
        return compose_at(
            compose_at(lift(Prim(Primitive.ADD), n, (spare, k)), spare, Const(offset)),
            k, scaled)
    scaled = compose_at(lift(Prim(Primitive.MUL), 2, (1, 2)), 1, Const(scale))
    shifted = compose_at(
        compose_at(lift(Prim(Primitive.ADD), 2, (1, 2)), 1, Const(offset)), 2, scaled)
    out, _ = normalize(shifted)
    return out


def rescale(f: Expr, box: BoxDomain) -> Expr:
    """Pre-compose `f` with the affine map sending [0,1]^n onto `box`."""
    n = f.arity
    if box.dim != n:
        raise StructureError(f"box has {box.dim} axes, function has arity {n}")
    out = f
    for k in range(1, n + 1):
        lo, hi = box.axis(k)
        if hi == lo:
            raise StructureError(f"axis {k} of the box has zero width")
        out = compose_at(out, k, _affine_slot(n, k, hi - lo, lo))
    return out
