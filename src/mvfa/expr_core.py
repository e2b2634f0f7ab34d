"""Expression trees for multivariate real functions.

An expression is an immutable tree of function-valued nodes: arithmetic
primitives, constants, and structural operators (arity lift, positional
composition, oblique projection, partial inverse).  Every node derives its
arity and the set of slots that can affect its value; evaluation is pure and
never reads a slot outside that set, so partially-applied functions keep
stable slot numbering until they are explicitly compacted.

Slot indices are 1-based everywhere.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

# Absolute comparison tolerance used when nothing tighter is requested.
DEFAULT_TOL = 1e-9

# How many lowered source texts keep their compiled code (least recently
# used dropped first): one per expression shape in use.
_CODE_CACHE_SIZE = 256


class MvfaError(Exception):
    """Base class for every error raised by this package."""


class StructureError(MvfaError):
    """Malformed expression tree: bad arity, slot out of range, duplicates."""


class ConfigError(MvfaError):
    """Invalid or incomplete configuration (missing parameter, domain, ...)."""


class EvalError(MvfaError):
    """Evaluation failed; carries the offending node and point."""

    def __init__(self, message: str, node=None, point=None):
        super().__init__(message)
        self.node = node
        self.point = tuple(point) if point is not None else None


class EvalDomainError(EvalError):
    """A primitive was applied outside its real domain."""


class NoSolutionError(EvalError):
    """An inverse node found no preimage in its search interval."""


class Primitive(Enum):
    """The built-in pointwise operations.

    ADD(x,y)=x+y, MUL=x*y, DIV=x/y, POW=x**y, ROOT(x,y)=x**(1/y),
    LOG(x,y)=log of x in base y, IDENTITY(x)=x.  ROOT is single-valued real:
    it requires x >= 0 and y != 0 (negative-base odd roots are excluded).
    """

    ADD = "add"
    MUL = "mul"
    DIV = "div"
    POW = "pow"
    ROOT = "root"
    LOG = "log"
    IDENTITY = "e"

    @property
    def arity(self) -> int:
        return 1 if self is Primitive.IDENTITY else 2


@dataclass(frozen=True)
class Expr:
    """Abstract base node.  Subclasses populate arity and used slots."""

    def __post_init__(self):  # pragma: no cover - abstract
        raise TypeError("Expr is abstract; construct a concrete node")

    @property
    def arity(self) -> int:
        """Number of variables the expression accepts."""
        return self._arity

    @property
    def used_slots(self) -> frozenset[int]:
        """Slots whose value can affect evaluation (syntactic occurrence)."""
        return self._used

    def __call__(self, *point: float) -> float:
        return evaluate(self, point)

    def __getstate__(self):
        # lowered code and an Inverse's axis grid are per-process caches,
        # rebuilt on first use
        state = dict(self.__dict__)
        for cache in ("_lowered", "_enclosures", "_grid"):
            state.pop(cache, None)
        return state

    def _derive(self, arity: int, used) -> None:
        object.__setattr__(self, "_arity", arity)
        object.__setattr__(self, "_used", frozenset(used))


@dataclass(frozen=True)
class Const(Expr):
    """A real constant; a function of no variables."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        self._derive(0, ())


@dataclass(frozen=True)
class Prim(Expr):
    """A primitive operation used as a bare function of its own arity."""

    op: Primitive

    def __post_init__(self):
        if not isinstance(self.op, Primitive):
            raise StructureError(f"not a primitive: {self.op!r}")
        self._derive(self.op.arity, range(1, self.op.arity + 1))


@dataclass(frozen=True)
class Lift(Expr):
    """Embed an m-ary function at arity n, routing variable k to slot positions[k-1]."""

    inner: Expr
    target_arity: int
    positions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        m = self.inner.arity
        n = self.target_arity
        if not isinstance(n, int) or n < 0:
            raise StructureError(f"lift target arity must be a nonnegative integer, got {n!r}")
        if m > n:
            raise StructureError(f"cannot lift arity {m} down to arity {n}")
        if len(self.positions) != m:
            raise StructureError(
                f"lift needs one position per inner variable: got {len(self.positions)} for arity {m}")
        if len(set(self.positions)) != len(self.positions):
            raise StructureError(f"lift positions must be distinct, got {self.positions}")
        if any(p < 1 or p > n for p in self.positions):
            raise StructureError(f"lift position out of range 1..{n}: {self.positions}")
        self._derive(n, (self.positions[k - 1] for k in self.inner.used_slots))


@dataclass(frozen=True)
class Compose(Expr):
    """Positional composition: f with slot `slot` fed by the value of g.

    f and g must share an arity; a nullary operand embeds at any arity
    (a constant is a special n-ary function lacking every variable).  When
    `slot` is not used by f, no replacement happens and the result behaves
    exactly as f; g is then never evaluated.
    """

    f: Expr
    slot: int
    g: Expr

    def __post_init__(self):
        nf, ng = self.f.arity, self.g.arity
        n = max(nf, ng)
        if n == 0:
            raise StructureError("cannot compose two nullary expressions")
        if nf not in (0, n) or ng not in (0, n):
            raise StructureError(
                f"composition operands must share arity or be nullary; got {nf} and {ng} (lift first)")
        if not isinstance(self.slot, int) or not 1 <= self.slot <= n:
            raise StructureError(f"composition slot {self.slot!r} out of range 1..{n}")
        if self.slot in self.f.used_slots:
            used = (self.f.used_slots - {self.slot}) | self.g.used_slots
        else:
            used = self.f.used_slots
        self._derive(n, used)


@dataclass(frozen=True)
class Diagonal(Expr):
    """Oblique projection: coordinate j replaces coordinate i, slot i is
    deleted and the remaining slots are renumbered order-preservingly."""

    inner: Expr
    i: int
    j: int

    def __post_init__(self):
        n = self.inner.arity
        if n < 2:
            raise StructureError(f"oblique projection needs arity >= 2, got {n}")
        for s in (self.i, self.j):
            if not isinstance(s, int) or not 1 <= s <= n:
                raise StructureError(f"projection slot {s!r} out of range 1..{n}")
        if self.i == self.j:
            raise StructureError("projection slots must differ")
        s = self.inner.used_slots
        if self.i in s:
            s = (s - {self.i}) | {self.j}
        self._derive(n - 1, (k - 1 if k > self.i else k for k in s))


@dataclass(frozen=True)
class Inverse(Expr):
    """Partial inverse about one slot.

    The node has the same arity as its operand; its slot `slot` carries the
    output value and the remaining slots keep their variables.  Numeric
    evaluation searches `axis` (a closed interval for the inverted slot) and
    returns the smallest preimage; the full multivalued set is exposed by
    the inverse module.
    """

    inner: Expr
    slot: int
    axis: tuple[float, float]

    def __post_init__(self):
        n = self.inner.arity
        if n < 1:
            raise StructureError("cannot invert a nullary expression")
        if not isinstance(self.slot, int) or not 1 <= self.slot <= n:
            raise StructureError(f"inverse slot {self.slot!r} out of range 1..{n}")
        lo, hi = self.axis
        object.__setattr__(self, "axis", (float(lo), float(hi)))
        if not math.isfinite(hi - lo) or lo > hi:
            raise StructureError(f"bad inverse search interval {self.axis}")
        self._derive(n, self.inner.used_slots | {self.slot})


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box of closed real intervals, one per slot."""

    axes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        axes = tuple((float(lo), float(hi)) for lo, hi in self.axes)
        object.__setattr__(self, "axes", axes)
        for k, (lo, hi) in enumerate(axes, start=1):
            if not math.isfinite(hi - lo) or lo > hi:
                raise StructureError(f"axis {k} must be lo <= hi of finite width, got [{lo}, {hi}]")

    @classmethod
    def unit(cls, n: int) -> "BoxDomain":
        return cls(((0.0, 1.0),) * n)

    @property
    def dim(self) -> int:
        return len(self.axes)

    def axis(self, k: int) -> tuple[float, float]:
        if not 1 <= k <= self.dim:
            raise StructureError(f"axis {k} out of range 1..{self.dim}")
        return self.axes[k - 1]

    def with_axis(self, k: int, interval: tuple[float, float]) -> "BoxDomain":
        lo, hi = float(interval[0]), float(interval[1])
        return BoxDomain(self.axes[: k - 1] + ((lo, hi),) + self.axes[k:])

    def contains(self, point: Sequence[float], slack: float = 0.0) -> bool:
        if len(point) != self.dim:
            return False
        return all(lo - slack <= v <= hi + slack for v, (lo, hi) in zip(point, self.axes))


def _axis_points(lo: float, hi: float, count: int) -> list[float]:
    """lo + k*step for k < count, ending at hi: the floats of `numpy.linspace`
    wherever lo < hi and the step is finite and not 0."""
    if count < 2 or hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    pts = [lo + k * step for k in range(count)]
    pts[-1] = hi
    return pts


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """Evaluate `e` at `point` (length must equal the arity).

    Deterministic: the same expression and point always give the bitwise
    identical result.  Domain violations raise :class:`EvalDomainError`
    carrying the offending node and point.
    """
    pt = tuple(float(v) for v in point)
    if len(pt) != e.arity:
        raise StructureError(f"point has {len(pt)} coordinates, expression expects {e.arity}")
    return lowered(e)(*pt)


def lowered(e: Expr):
    """The straight-line function that evaluates `e`, built on first use and
    cached on the node.

    It takes the arity's worth of coordinates as positional floats and does
    no conversion or arity check of its own; `evaluate` is the checked entry.
    Building it compiles nothing when an expression of the same shape was
    lowered recently: see `_lower`.
    """
    try:
        return e.__dict__["_lowered"]
    except KeyError:
        fn = _lower(e)
        object.__setattr__(e, "_lowered", fn)
        return fn


def lowered_enclosure(e: Expr, slot: int):
    """The range enclosure of `e` along `slot`, built on first use and
    cached on the node per slot.

    `enclose(lo, hi, target, *fixed)` returns an interval (a, b) that holds
    e(...) - target for every t in [lo, hi] put in `slot`, with the other
    coordinates `fixed` (ascending slot order) and computed as `lowered`
    computes it: each value is defined, finite and in [a, b].  It is
    (-inf, inf) where it cannot bound them: a domain check that may fail in
    the range (a divisor range that holds 0, a base or logarithm argument
    not > 0, a logarithm base range that holds 1), a bound that overflows
    or is NaN, a nested Inverse, or a non-finite target or fixed
    coordinate.
    """
    enclosures = e.__dict__.setdefault("_enclosures", {})
    if slot not in enclosures:
        enclosures[slot] = _lower(e, slot)
    return enclosures[slot]


def _lower(e: Expr, slot: int | None = None):
    """Compile `e` once into a flat Python function of its coordinates, or,
    given a `slot`, into its range enclosure along it.

    Slot routing (Lift, Diagonal, and a Compose whose slot f ignores)
    only renames arguments and emits no code.  Each arithmetic primitive
    emits one line (DIV, POW, ROOT and LOG a call of their `_checked_*`
    function), a Compose computes g before f, and an Inverse calls
    `_eval_inverse`: the same float operations in the same order as a walk
    of the tree, so results and errors (node and local point) are unchanged.
    The enclosure is the same routing over pairs of names, each the lower
    and upper bound of a value, where each primitive calls its `_enclose_*`
    function, a nested Inverse gives up, and the scanned slot holds the
    range [lo, hi].  Constants and nodes reach the code through its
    namespace, never through its text.

    So the source text depends only on the shape of `e`, and it is compiled
    once per text: the code objects of the last `_CODE_CACHE_SIZE` (256)
    texts are kept and run in each lowering's own fresh namespace.  Sharing
    a code object is safe because it holds no constant and no node; the
    function, which binds them, is never shared.
    """
    namespace = {"_checked_div": _checked_div, "_checked_pow": _checked_pow,
                 "_checked_root": _checked_root, "_checked_log": _checked_log,
                 "_eval_inverse": _eval_inverse,
                 "_enclose_add": _enclose_add, "_enclose_mul": _enclose_mul,
                 "_enclose_div": _enclose_div, "_enclose_pow": _enclose_pow,
                 "_enclose_root": _enclose_root, "_enclose_log": _enclose_log,
                 "_outward": _outward, "_Unbounded": _Unbounded, "inf": math.inf}

    def bind(obj) -> str:
        name = f"o{len(namespace)}"
        namespace[name] = obj
        return name

    def emit(node: Expr, args: list[str], lines: list[str], bounds: bool) -> str:
        """Emit the code for `node` over argument names into `lines`; return
        its value's name.  With `bounds`, each name is a pair "lo, hi"."""
        if isinstance(node, Const):
            if not bounds:
                return bind(node.value)
            v = node.value
            lo, hi = (v, v) if math.isfinite(v) else (-math.inf, math.inf)
            return f"{bind(lo)}, {bind(hi)}"
        if isinstance(node, Lift):
            return emit(node.inner, [args[p - 1] for p in node.positions], lines, bounds)
        if isinstance(node, Diagonal):
            # coordinate j, found at index jj once slot i is deleted, fills slot i
            jj = node.j - 1 if node.j > node.i else node.j
            routed = list(args)
            routed.insert(node.i - 1, args[jj - 1])
            return emit(node.inner, routed, lines, bounds)
        if isinstance(node, Compose):
            if node.slot not in node.f.used_slots:
                # no replacement: behaves as f, g never evaluated
                return emit(node.f, args[: node.f.arity], lines, bounds)
            routed = list(args)
            routed[node.slot - 1] = emit(node.g, args if node.g.arity else [], lines, bounds)
            return emit(node.f, routed, lines, bounds)
        n = len(lines)
        out = f"l{n}, h{n}" if bounds else f"t{n}"
        if isinstance(node, Prim):
            if node.op is Primitive.IDENTITY:
                return args[0]
            a, b = args
            if bounds:
                lines.append(f"{out} = _enclose_{node.op.value}({a}, {b})")
            elif node.op is Primitive.ADD:
                lines.append(f"{out} = {a} + {b}")
            elif node.op is Primitive.MUL:
                lines.append(f"{out} = {a} * {b}")
            else:
                lines.append(f"{out} = _checked_{node.op.value}({a}, {b}, {bind(node)})")
            return out
        if isinstance(node, Inverse):
            if bounds:
                lines.append("raise _Unbounded")
            else:
                point = "".join(f"{a}, " for a in args)
                lines.append(f"{out} = _eval_inverse({bind(node)}, ({point}))")
            return out
        raise StructureError(f"unknown node type: {type(node).__name__}")

    params = [f"x{k}" for k in range(e.arity)]
    lines: list[str] = []
    if slot is None:
        result = emit(e, params, lines, False)
        body = "".join(f"    {line}\n" for line in lines)
        source = f"def lowered({', '.join(params)}):\n{body}    return {result}\n"
    else:
        params.pop(slot - 1)
        args = [f"{p}, {p}" for p in params]
        args.insert(slot - 1, "lo, hi")
        low, high = emit(e, args, lines, True).split(", ")
        body = "".join(f"        {line}\n" for line in lines)
        source = (f"def enclose({', '.join(['lo', 'hi', 'target', *params])}):\n"
                  # a non-finite input makes the sum inf or NaN, which fail the
                  # test; so does, harmlessly, a sum of finite inputs that overflows
                  f"    if not -inf < {' + '.join(['lo', 'hi', 'target', *params])} < inf:\n"
                  "        return -inf, inf\n"
                  f"    try:\n{body}"
                  f"        return _outward({low} - target, {high} - target)\n"
                  "    except _Unbounded:\n"
                  "        return -inf, inf\n")
    exec(_compile(source), namespace)
    return namespace["lowered" if slot is None else "enclose"]


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _compile(source: str):
    """The code object of a lowered source text, compiled once per text."""
    return compile(source, "<lowered expression>", "exec")


def _eval_inverse(e: Inverse, pt: tuple[float, ...]) -> float:
    if not all(map(math.isfinite, pt)):
        raise EvalDomainError("non-finite argument of an inverse", node=e, point=pt)
    try:
        ts = e.__dict__["_grid"]
    except KeyError:
        ts = _axis_points(*e.axis, DEFAULT_GRID)
        object.__setattr__(e, "_grid", ts)
    fixed = pt[: e.slot - 1] + pt[e.slot:]
    # the smallest root: the scan stops once it is past that root's group
    root = next(_pruned_roots(e.inner, e.slot, fixed, ts, pt[e.slot - 1], DEFAULT_TOL, []), None)
    if root is None:
        raise NoSolutionError(
            f"no preimage of {pt[e.slot - 1]} on {list(e.axis)}", node=e, point=pt)
    return root


# The primitives with domain checks, as `_lower` emits them: each takes its
# two arguments and its node, and an error names the node at the point (a, b).

def _checked_div(a: float, b: float, node) -> float:
    if b == 0:
        raise EvalDomainError("division by zero", node, (a, b))
    return a / b


def _checked_pow(a: float, b: float, node) -> float:
    if a < 0 and not float(b).is_integer():
        raise EvalDomainError("fractional power of a negative base", node, (a, b))
    if a == 0 and b < 0:
        raise EvalDomainError("zero base with a negative exponent", node, (a, b))
    try:
        return a ** b
    except OverflowError as exc:
        raise EvalError(f"overflow in power {a} ** {b}", node, (a, b)) from exc


def _checked_root(a: float, b: float, node) -> float:
    if b == 0:
        raise EvalDomainError("zeroth root", node, (a, b))
    if a < 0:
        raise EvalDomainError("root of a negative base", node, (a, b))
    try:
        return _checked_pow(a, 1.0 / b, node)
    except EvalError as exc:
        exc.point = (a, b)   # the root's own point, not the power's
        raise


def _checked_log(a: float, b: float, node) -> float:
    if a <= 0:
        raise EvalDomainError("logarithm of a non-positive value", node, (a, b))
    if b <= 0 or b == 1:
        raise EvalDomainError("logarithm base must be positive and not 1", node, (a, b))
    return math.log(a, b)


# The enclosures of the primitives, as the enclosure form emits them: each
# takes the bounds of its two arguments, every one finite, and returns the
# bounds of every value its `_checked_*` twin can return for arguments in
# those ranges, or raises `_Unbounded`.  Each primitive is monotone in each
# argument where its domain check passes, so its extremes lie at the
# corners.  A bound is pushed outward by one ulp per float operation, and
# by two for a libm call (`**`, `math.log`), which is assumed accurate to
# within one ulp.

class _Unbounded(Exception):
    """An enclosure that cannot bound its values."""


def _outward(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    if -math.inf < lo <= hi < math.inf:   # NaN fails too
        return lo, hi
    raise _Unbounded


def _outward_libm(lo: float, hi: float) -> tuple[float, float]:
    return _outward(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def _enclose_add(al, ah, bl, bh):
    return _outward(al + bl, ah + bh)


def _enclose_mul(al, ah, bl, bh):
    corners = (al * bl, al * bh, ah * bl, ah * bh)
    return _outward(min(corners), max(corners))


def _enclose_div(al, ah, bl, bh):
    if bl <= 0 <= bh:
        raise _Unbounded
    corners = (al / bl, al / bh, ah / bl, ah / bh)
    return _outward(min(corners), max(corners))


def _enclose_pow(al, ah, bl, bh):
    if not al > 0:
        raise _Unbounded
    try:
        corners = (al ** bl, al ** bh, ah ** bl, ah ** bh)
    except OverflowError:
        raise _Unbounded from None
    return _outward_libm(min(corners), max(corners))


def _enclose_root(al, ah, bl, bh):
    return _enclose_pow(al, ah, *_enclose_div(1.0, 1.0, bl, bh))


def _enclose_log(al, ah, bl, bh):
    # math.log(a, b) divides the two natural logarithms
    if not (al > 0 and bl > 0):
        raise _Unbounded
    return _enclose_div(*_outward_libm(math.log(al), math.log(ah)),
                        *_outward_libm(math.log(bl), math.log(bh)))


def equivalent_on(e1: Expr, e2: Expr, domain: BoxDomain, samples: int = 100,
                  tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    """Sampled evaluation equivalence of two expressions over a box.

    True iff |e1(x) - e2(x)| <= tol at every sampled x at which both sides
    evaluate.  A point where exactly one side raises an evaluation error is
    a counterexample; a point where both raise is skipped.  Sampling is
    uniform and deterministic for a given seed.
    """
    if e1.arity != e2.arity:
        raise StructureError(f"arity mismatch: {e1.arity} vs {e2.arity}")
    if e1.arity != domain.dim:
        raise StructureError(f"domain has {domain.dim} axes, expressions have arity {e1.arity}")
    rng = random.Random(seed)
    for _ in range(samples):
        x = [rng.uniform(lo, hi) for lo, hi in domain.axes]
        try:
            v1 = evaluate(e1, x)
            ok1 = True
        except EvalError:
            ok1 = False
        try:
            v2 = evaluate(e2, x)
            ok2 = True
        except EvalError:
            ok2 = False
        if ok1 != ok2:
            return False
        if ok1 and not abs(v1 - v2) <= tol:
            return False
    return True


# The inverse core builds on this module, so it is imported once this
# module is complete: an Inverse node's evaluation runs on it.
from .inverse import DEFAULT_GRID, _pruned_roots  # noqa: E402
