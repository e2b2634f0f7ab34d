"""Desk-scale superposition decomposition.

A bivariate continuous function on the unit square is approximated as

    f(x1, x2)  ~=  sum over q = 0..4 of  Phi_q( psi_{q,1}(x1) + psi_{q,2}(x2) )

with a fixed, function-independent family of strictly monotone inner maps
psi_{q,p} and numerically fitted outer functions Phi_q stored as their
values on uniform 64-knot grids, linearly interpolated.  Exact continuous
outer functions are not computable from finite data; this module realizes
the decomposition operator numerically and its guarantees are the tested
properties, not proof-grade accuracy.

Inner family (the package's own documented choice): a truncated series

    psi(t) = sum for k = 1..K of 2**-k * t**(k/(k+1))

which is strictly increasing and continuous for t >= 0, evaluated at
t = x + q*eps with shift eps = 1/(2n+2) = 1/6, and scaled per coordinate by
the rationally independent weights (1, sqrt(2)).  The parameters are
recorded in every representation and never depend on the target function.
The family, its depth K = 10, the 64 knots per outer function and the
damping 0.5 are fixed: no caller chooses them, and the loader refuses a
document with other inner parameters or another knot count.

Fitting is iterative residual correction: per iteration the current
residual is binned by inner-sum value for each q and a damped per-bin mean
correction is added to Phi_q.  The correction is shared equally across the
2n+1 = 5 outer functions (factor 2*damping/(2n+1), which is 1/5 at the
damping of 0.5), so a constant function is absorbed exactly in one
iteration.  The outer functions are fitted as values on the 64 bin nodes,
where a correction's value at a sample is its hat expansion through the
sample's bin and bin weight, and the node values are what is stored.  A
step that would raise the max-norm training residual is halved until it
does not, so the recorded residual history is non-increasing by
construction.  An iteration that accepts no halving leaves the residual
and the outer functions unchanged, so every later iteration would reject
the same step again: the first such iteration ends the fit, and `history`
is padded with its value up to one entry per iteration.

The training grid is a product grid, so each inner sum adds one
precomputed psi value per coordinate: (2n+1)*n*grid inner-map calls, not
(2n+1)*n*grid**2.  The inner sums never change during the fit, so each
sample's bin and bin weight, and the nodes no sample reaches, are found
once, and a step-halving trial is one vector: the residual minus the
scaled step.  Only the fit computes with arrays, and `decompose` imports
numpy when called; outer functions, reconstruction and files are plain Python.
"""

from __future__ import annotations

import base64
import copy
import json
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass

from .expr_core import (
    ConfigError,
    EvalDomainError,
    EvalError,
    Expr,
    MvfaError,
    StructureError,
    _axis_points,
    lowered,
)

# Version 3: each outer function's values are its DEFAULT_BINS knot values,
# one base64 string of their little-endian IEEE-754 float64 bytes (`_pack`).
KST_FORMAT_VERSION = 3

DEFAULT_DEPTH = 10       # series truncation K
DEFAULT_BINS = 64        # knots per outer function: the fit's correction nodes
DEFAULT_DAMPING = 0.5

_WEIGHTS = (1.0, math.sqrt(2))  # per-coordinate scales of the inner maps
_SHIFT = 1.0 / 6                # eps = 1/(2n+2) at n = 2


class FormatError(MvfaError):
    """Unreadable, unwritable or version-mismatched representation document."""


def _psi_base(t: float) -> float:
    # the K = DEFAULT_DEPTH terms 2**-k * t**(k/(k+1)), added left to right:
    # the same floats on every Python (sum() of floats is compensated from 3.12)
    return (0.5 * t ** (1 / 2) + 0.25 * t ** (2 / 3) + 0.125 * t ** (3 / 4)
            + 0.0625 * t ** (4 / 5) + 0.03125 * t ** (5 / 6) + 0.015625 * t ** (6 / 7)
            + 0.0078125 * t ** (7 / 8) + 0.00390625 * t ** (8 / 9)
            + 0.001953125 * t ** (9 / 10) + 0.0009765625 * t ** (10 / 11))


def inner_params() -> dict:
    """The inner-family parameters; identical for every decomposed function.

    A new dict on each call: a representation's `inner` is its own.
    """
    return {
        "family": "dyadic-rational-series",
        "depth": DEFAULT_DEPTH,
        "shift": _SHIFT,
        "weights": list(_WEIGHTS),
        "dimension": 2,
    }


def inner_psi(q: int, p: int, x: float) -> float:
    """Value of the inner map psi_{q,p} at x in [0, 1].

    Strictly increasing in x, continuous, and independent of any target
    function.  Arguments outside the unit interval are a domain error.
    """
    if not 0 <= q <= 4:
        raise StructureError(f"q must lie in 0..4, got {q}")
    if not 1 <= p <= 2:
        raise StructureError(f"p must lie in 1..2, got {p}")
    if not 0.0 <= x <= 1.0:
        raise EvalDomainError(f"inner maps take arguments in [0, 1], got {x}")
    return _WEIGHTS[p - 1] * _psi_base(x + q * _SHIFT)


@dataclass(frozen=True)
class OuterFunction:
    """A sampled unary function on a uniform knot grid, linearly interpolated.

    Immutable; `values` and `knots` are float tuples, the knots those of
    `_axis_points(lo, hi, len(values))`.  Calls give `numpy.interp(s, knots,
    values)` bitwise, in plain Python.
    """

    lo: float
    hi: float
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(map(float, self.values))
        if not (len(values) >= 2 and self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise StructureError(f"outer function needs two knots or more on lo < hi of finite "
                                 f"width, got {len(values)} on [{self.lo!r}, {self.hi!r}]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "knots", tuple(_axis_points(self.lo, self.hi, len(values))))

    def __call__(self, s: float) -> float:
        # numpy's interp, step for step: clamp at the ends, the knot's own
        # value on a knot, and its two fallbacks when the line gives NaN
        xs, ys = self.knots, self.values
        if s != s:
            return s
        j = bisect_right(xs, s) - 1
        if j < 0:
            return ys[0]
        if j >= len(xs) - 1:
            return ys[-1]
        if xs[j] == s:
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        v = slope * (s - xs[j]) + ys[j]
        if v != v:
            v = slope * (s - xs[j + 1]) + ys[j + 1]
            if v != v and ys[j] == ys[j + 1]:
                v = ys[j]
        return v


@dataclass
class KstRep:
    """A fitted superposition representation.

    Exactly 2n+1 = 5 outer functions; `history[k]` is the max-norm training
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
            "inner_params": copy.deepcopy(self.inner),
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
            inner = doc["inner_params"]
            if type(inner) is not dict:
                raise FormatError(f"inner_params must be a JSON object, got {inner!r}")
            rep = cls(
                dimension=_count(doc, "dimension", 1),
                inner=copy.deepcopy(inner),
                outer=[_outer_from_doc(o) for o in doc["outer"]],
                iterations=_count(doc, "iterations", 0),
                history=[_number(h, "history entry") for h in doc["history"]],
                grid=_count(doc, "grid", 2),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"malformed representation document: {exc}") from exc
        if not all(map(math.isfinite, rep.history)):
            raise FormatError("residual history holds a value that is not finite")
        if len(rep.history) != rep.iterations + 1:
            raise FormatError("residual history needs one entry per iteration, plus one")
        if rep.dimension != 2:
            raise FormatError(f"representation has dimension {rep.dimension}, not 2")
        if len(rep.outer) != 5:
            raise FormatError("document does not carry 2n+1 outer functions")
        if rep.inner != inner_params():
            raise FormatError("inner parameters do not match the fixed family")
        return rep

    def save(self, path) -> None:
        text = json.dumps(self.to_dict())  # one write, not json.dump's many small ones
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(f"cannot write representation file: {exc}") from exc

    @classmethod
    def load(cls, path) -> "KstRep":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh, parse_constant=_refuse_constant)
        except (OSError, ValueError) as exc:   # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"cannot read representation file: {exc}") from exc
        return cls.from_dict(doc)


def _pack(values) -> str:
    """Base64 of the values' little-endian float64 bytes: exact and compact."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _unpack(text: str) -> tuple[float, ...]:
    """The float64 values of a `_pack` string."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:   # binascii.Error, or a str that is not ASCII
        raise FormatError(f"outer values are not valid base64: {exc}") from exc
    if len(raw) % 8:
        raise FormatError(f"outer values take {len(raw)} bytes, not 8 per knot")
    return struct.unpack(f"<{len(raw) // 8}d", raw)


def _count(doc: dict, key: str, least: int) -> int:
    """doc[key], a JSON integer (no float, no boolean) of at least `least`."""
    value = doc[key]
    if type(value) is not int or value < least:
        raise FormatError(f"{key} must be an integer of at least {least}, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """`value`, a JSON number (no string, no boolean), as a float."""
    if type(value) not in (int, float):
        raise FormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _outer_from_doc(o: dict) -> OuterFunction:
    lo, hi, values = _number(o["lo"], "lo"), _number(o["hi"], "hi"), _unpack(o["values"])
    if not (math.isfinite(hi - lo) and all(map(math.isfinite, values))):
        raise FormatError("outer function holds a value or a knot range width that is not finite")
    if not lo < hi:
        raise FormatError(f"outer function knot range [{lo!r}, {hi!r}] is empty")
    if len(values) != DEFAULT_BINS:
        raise FormatError(f"outer values take {8 * len(values)} bytes, so the outer "
                          f"function has {len(values)} knots, not {DEFAULT_BINS}")
    return OuterFunction(lo, hi, values)


def _refuse_constant(name: str):
    raise FormatError(f"representation file holds {name}, which is not strict JSON")


def decompose(f: Expr, grid: int = 33, iters: int = 50) -> KstRep:
    """Fit outer functions for `f` on the unit square.

    `f` must be a bivariate expression evaluable on [0, 1]^2.  Training uses
    a uniform grid x grid sample; each iteration bins the current residual
    by inner-sum value for every q and adds the damped per-bin mean
    correction (equally shared across the 2n+1 outer functions) to Phi_q.
    An iteration that accepts no halving of its step ends the fit, and
    `history` is padded with its last value to iters + 1 entries, as the
    remaining iterations would have recorded it.  With iters = 0 the outer
    functions are identically zero and the recorded residual equals max|f|
    on the grid.  A target value that is not finite raises EvalError
    naming its training point before anything is fitted.
    """
    n = f.arity
    if n != 2:
        raise StructureError(f"decomposition is implemented for arity 2, got {n}")
    if grid < 2:
        raise StructureError("training grid needs at least 2 points per axis")
    if iters < 0:
        raise StructureError("iteration count must be nonnegative")
    try:   # the fit is the one part of mvfa that computes with arrays
        import numpy as np
    except ImportError as exc:
        raise ConfigError(f"decompose needs numpy, which cannot be imported: {exc}") from exc

    q_count = 2 * n + 1
    axis = _axis_points(0.0, 1.0, grid)
    fn = lowered(f)
    F = np.array([fn(x1, x2) for x1 in axis for x2 in axis])
    if not np.isfinite(F).all():
        k = int(np.flatnonzero(~np.isfinite(F))[0])
        point = (axis[k // grid], axis[k % grid])
        raise EvalError(f"target is not finite at {point}: {float(F[k])!r}", f, point)

    # The training grid is a product grid, so every inner sum is one value of
    # psi_{q,1} plus one of psi_{q,2}, and the two maps are weights times one
    # series: (2n+1)*grid series, not (2n+1)*n*grid**2.  The sums are the
    # floats `inner_psi` gives and `reconstruct` adds, in its order.
    S = np.empty((q_count, F.size))
    for q in range(q_count):
        base = [_psi_base(x + q * _SHIFT) for x in axis]
        S[q] = np.add.outer([_WEIGHTS[0] * v for v in base],
                            [_WEIGHTS[1] * v for v in base]).ravel()
    # Exact inner-sum range over the unit box: the maps are increasing, so
    # the extremes sit at the all-zero and all-one corners, which are the
    # first and the last training point.
    los, his = S[:, 0].copy(), S[:, -1].copy()

    bins = DEFAULT_BINS
    node_xs = [np.array(_axis_points(los[q], his[q], bins)) for q in range(q_count)]
    share = 2.0 * DEFAULT_DAMPING / q_count

    # The inner sums never change, so the binning is computed once: each
    # sample's bin (flat index `b` into the bin rows) and its linear weight
    # `w` toward the bin's right node.  A function of node values v reads
    # (1 - w)*v[b] + w*v[b + 1] at the samples, its hat expansion, and
    # `to_nodes` spreads sample values back onto the nodes by the same weights.
    w = np.subtract(S, los[:, None], out=S)
    w /= (his - los)[:, None]
    w *= bins - 1
    b = np.clip(np.floor(w).astype(int), 0, bins - 2)
    w -= b
    b += bins * np.arange(q_count)[:, None]
    size = q_count * bins
    # The left weights, the right nodes and two scratch arrays are made once:
    # at grid 65 each array of this shape is 169 KB, and a fresh temporary of
    # that size per operation cost more in page faults than the fit's
    # arithmetic whenever the allocator handed it back to the system.
    rest, b_right = 1.0 - w, b + 1
    left, right = np.empty_like(w), np.empty_like(w)

    def to_nodes(v):
        np.multiply(rest, v, out=left)
        np.multiply(w, v, out=right)
        return (np.bincount(b.ravel(), weights=left.ravel(), minlength=size)
                + np.bincount(b_right.ravel(), weights=right.ravel(), minlength=size)
                ).reshape(q_count, bins)

    den = to_nodes(1.0)
    hit = den > 1e-12
    # the rows with a node no sample reaches, each with the indices and
    # positions of its reached nodes (one row at grids 33 and 65)
    gaps = [(q, np.flatnonzero(on), node_xs[q][on])
            for q, on in enumerate(hit) if not on.all()]

    # The outer functions are fitted as node values; R is the training
    # residual F minus their summed hat expansions, so history[-1] is
    # always max|R|.
    phi = np.zeros((q_count, bins))
    R = F
    history = [float(np.max(np.abs(F)))]
    for _ in range(iters):
        # each reached node's weighted mean of R; a row's unreached nodes
        # interpolate between its reached ones
        num = to_nodes(R)
        delta = np.divide(num, den, out=np.zeros((q_count, bins)), where=hit)
        for q, on, xs in gaps:
            delta[q] = np.interp(node_xs[q], xs, delta[q].take(on))
        delta *= share
        # (1 - w)*delta[b] + w*delta[b + 1], summed over q; every index is in
        # range, so mode="clip" only spares take a buffered copy
        delta.take(b, out=left, mode="clip")
        left *= rest
        delta.take(b_right, out=right, mode="clip")
        right *= w
        left += right
        step = left.sum(axis=0)
        # accept the largest halving of the step that does not raise the
        # max-norm residual
        scale = 1.0
        while scale > 2.0 ** -24:
            trial = R - scale * step
            trial_max = float(np.max(np.abs(trial)))
            if trial_max <= history[-1]:
                phi += scale * delta
                R = trial
                history.append(trial_max)
                break
            scale *= 0.5
        else:
            # stalled: no halving was accepted, so R and phi are unchanged,
            # and so is everything the next iteration reads (R, phi, den,
            # hit, b, w, node_xs); it would reject the same step again
            break
    history += [history[-1]] * (iters + 1 - len(history))

    outer = [OuterFunction(float(los[q]), float(his[q]), phi[q]) for q in range(q_count)]
    return KstRep(dimension=n, inner=inner_params(), outer=outer,
                  iterations=iters, history=history, grid=grid)


def reconstruct(rep: KstRep, point, warnings: list[str] | None = None) -> float:
    """Evaluate the superposition at a point of the unit square.

    Inner sums falling outside an outer function's knot range are clamped to
    the nearest knot; each clamp appends one note to `warnings` when supplied.
    """
    if len(point) != 2:
        raise StructureError(f"point has {len(point)} coordinates, expected 2")
    pt = [float(v) for v in point]
    for v in pt:
        if not 0.0 <= v <= 1.0:
            raise EvalDomainError(f"reconstruction point must lie in the unit box, got {pt}")
    x1, x2 = pt
    total = 0.0
    for q, fn in enumerate(rep.outer):
        # psi_{q,1}(x1) + psi_{q,2}(x2), the floats of inner_psi without its
        # argument checks: the point is checked above
        shift = q * _SHIFT
        s = _WEIGHTS[0] * _psi_base(x1 + shift) + _WEIGHTS[1] * _psi_base(x2 + shift)
        if s < fn.lo or s > fn.hi:
            if warnings is not None:
                warnings.append(f"inner sum {s!r} of outer function {q} clamped "
                                f"to [{fn.lo!r}, {fn.hi!r}]")
            s = min(max(s, fn.lo), fn.hi)
        total += fn(s)
    return total
