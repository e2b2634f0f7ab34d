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
# used dropped first): one per expression shape in use.  A small shape's
# code takes about 0.7 KB for a value text and 3.7 KB for a slot text, so a
# full cache holds a few MB.
_CODE_CACHE_SIZE = 1024


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


# Each primitive's used slots, 1..arity: `Prim` reads its arity from here.
_PRIM_USED = {p: frozenset(range(1, p.arity + 1)) for p in Primitive}


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

    def _derive(self, arity: int, used: frozenset[int]) -> None:
        fields = self.__dict__
        fields["_arity"] = arity
        fields["_used"] = used


@dataclass(frozen=True)
class Const(Expr):
    """A real constant; a function of no variables.  Its value is finite,
    as the notation can write only a finite number."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value):
            raise StructureError(f"constant {value} is not finite")
        object.__setattr__(self, "value", value)
        self._derive(0, frozenset())


@dataclass(frozen=True)
class Prim(Expr):
    """A primitive operation used as a bare function of its own arity."""

    op: Primitive

    def __post_init__(self):
        if not isinstance(self.op, Primitive):
            raise StructureError(f"not a primitive: {self.op!r}")
        used = _PRIM_USED[self.op]
        self._derive(len(used), used)


@dataclass(frozen=True)
class Lift(Expr):
    """Embed an m-ary function at arity n, routing variable k to slot positions[k-1]."""

    inner: Expr
    target_arity: int
    positions: tuple[int, ...]

    def __post_init__(self):
        positions = tuple(self.positions)
        object.__setattr__(self, "positions", positions)
        m = self.inner._arity
        n = self.target_arity
        if type(n) is not int or n < 0:
            raise StructureError(f"lift target arity must be a nonnegative integer, got {n!r}")
        if m > n:
            raise StructureError(f"cannot lift arity {m} down to arity {n}")
        if len(positions) != m:
            raise StructureError(
                f"lift needs one position per inner variable: got {len(positions)} for arity {m}")
        if len(set(positions)) != m:
            raise StructureError(f"lift positions must be distinct, got {positions}")
        for p in positions:
            if type(p) is not int or not 1 <= p <= n:
                raise StructureError(f"lift position out of range 1..{n}: {positions}")
        self._derive(n, frozenset([positions[k - 1] for k in self.inner._used]))


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
        nf, ng = self.f._arity, self.g._arity
        n = nf if nf > ng else ng
        if n == 0:
            raise StructureError("cannot compose two nullary expressions")
        if nf not in (0, n) or ng not in (0, n):
            raise StructureError(
                f"composition operands must share arity or be nullary; got {nf} and {ng} (lift first)")
        slot = self.slot
        if type(slot) is not int or not 1 <= slot <= n:
            raise StructureError(f"composition slot {slot!r} out of range 1..{n}")
        used = self.f._used
        if slot in used:
            used = (used - {slot}) | self.g._used
        self._derive(n, used)


@dataclass(frozen=True)
class Diagonal(Expr):
    """Oblique projection: coordinate j replaces coordinate i, slot i is
    deleted and the remaining slots are renumbered order-preservingly."""

    inner: Expr
    i: int
    j: int

    def __post_init__(self):
        n = self.inner._arity
        if n < 2:
            raise StructureError(f"oblique projection needs arity >= 2, got {n}")
        i, j = self.i, self.j
        for s in (i, j):
            if type(s) is not int or not 1 <= s <= n:
                raise StructureError(f"projection slot {s!r} out of range 1..{n}")
        if i == j:
            raise StructureError("projection slots must differ")
        s = self.inner._used
        if i in s:
            s = (s - {i}) | {j}
        self._derive(n - 1, frozenset([k - 1 if k > i else k for k in s]))


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
        if type(self.slot) is not int or not 1 <= self.slot <= n:
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
    """Evaluate `e` at `point` (length must equal the arity): the checked
    entry to `lowered(e)`, which converts each coordinate to float.

    Deterministic: the same expression and point always give the bitwise
    identical result.  Domain violations raise :class:`EvalDomainError`
    carrying the offending node and point.
    """
    pt = tuple(map(float, point))
    if len(pt) != e._arity:
        raise StructureError(f"point has {len(pt)} coordinates, expression expects {e._arity}")
    return (e.__dict__.get("_lowered") or lowered(e))(*pt)


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
    coordinate.  The same lowering gives the section along `slot`, as the
    function's `section` attribute: `section(target, *fixed)` returns the
    one-variable function t -> e(..., t, ...) - target, bitwise `lowered(e)`
    at that point minus the target, with the same error, node and point
    where it raises; so a scan that encloses and evaluates along one slot
    lowers `e` once.
    """
    enclosures = e.__dict__.setdefault("_enclosures", {})
    if slot not in enclosures:
        enclosures[slot] = _lower(e, slot)
    return enclosures[slot]


def _lower(e: Expr, slot: int | None = None):
    """Compile `e` once into a flat Python function of its coordinates, or,
    given a `slot`, into its range enclosure and its section along it.

    Slot routing (Lift, Diagonal, and a Compose whose slot f ignores)
    only renames arguments and emits no code.  Each arithmetic primitive
    emits one line: ADD and MUL take their operands in sorted name order,
    as `+` and `*` on floats commute bitwise (but for the sign a NaN of two
    NaN operands takes, which no output shows), and DIV, POW, ROOT and LOG
    call their checked function from `_CHECKED`.  A Compose computes g
    before f, and an Inverse calls `_eval_inverse`: the same float
    operations as a walk of the tree, in the same order, so results and
    errors (node and local point) are unchanged.
    Given a `slot`, the text holds two functions.  `section(target,
    *fixed)` returns a closure over the other coordinates that runs those
    same lines on t and subtracts the target.  `enclose(lo, hi, target,
    *fixed)` is the same routing over pairs of names, each the lower and
    upper bound of a value, the scanned slot holding the range [lo, hi]; it
    is written out inline, with no call per primitive but `**`, `log` and
    `nextafter`.  Each primitive is monotone in each argument where its
    domain check passes, so its bounds are its least and greatest corner
    (a corner that a fixed coordinate repeats is computed once); a domain
    check that may fail in the range, or a nested Inverse, gives up
    (returns (-inf, inf)); and each bound is pushed outward by one ulp per
    float operation, and by two for a libm call (`**`, `math.log`), which
    is assumed accurate to within one ulp, and must then be finite and
    ordered, or the enclosure gives up as it does where `**` overflows.
    Constants, nodes and each node's checked function reach the code
    through its namespace, never through its text.

    So the source text depends only on the shape of `e` (and `slot`), up to
    which checked primitive sits at a node and the order of a sum's or a
    product's operands, and it is compiled once per text: the code objects
    of the last `_CODE_CACHE_SIZE` (1 024) texts are kept and run in each
    lowering's own fresh namespace.  Sharing a code object is safe because
    it holds no constant, no node and no checked function; the function,
    which binds them, is never shared.
    """
    namespace = {"_eval_inverse": _eval_inverse,
                 "log": math.log, "nextafter": math.nextafter, "inf": math.inf}

    def bind(obj) -> str:
        name = f"o{len(namespace)}"
        namespace[name] = obj
        return name

    def emit(node: Expr, args: list, lines: list[str], bounds: bool):
        """Emit the code for `node` over its arguments into `lines`; return
        its value's name, or with `bounds`, where each argument is a pair
        of names, the pair of its bounds.  It dispatches on the exact type."""
        kind = type(node)
        if kind is Const:
            if not bounds:
                return bind(node.value)
            return bind(node.value), bind(node.value)
        if kind is Lift:
            return emit(node.inner, [args[p - 1] for p in node.positions], lines, bounds)
        if kind is Diagonal:
            # coordinate j, found at index jj once slot i is deleted, fills slot i
            jj = node.j - 1 if node.j > node.i else node.j
            routed = list(args)
            routed.insert(node.i - 1, args[jj - 1])
            return emit(node.inner, routed, lines, bounds)
        if kind is Compose:
            f, g = node.f, node.g
            if node.slot not in f._used:
                # no replacement: behaves as f, g never evaluated
                return emit(f, args[: f._arity], lines, bounds)
            routed = list(args)
            routed[node.slot - 1] = emit(g, args if g._arity else [], lines, bounds)
            return emit(f, routed, lines, bounds)
        if kind is Prim:
            if node.op is Primitive.IDENTITY:
                return args[0]
            if bounds:
                return _enclose_lines(node.op, *args, lines)
            a, b = args
            out = f"t{len(lines)}"
            infix = _INFIX.get(node.op)
            if infix:
                if b < a:   # + and * commute bitwise: one order serves both
                    a, b = b, a
                lines.append(f"{out} = {a} {infix} {b}")
            else:
                lines.append(f"{out} = {bind(_CHECKED[node.op])}({a}, {b}, {bind(node)})")
            return out
        if kind is Inverse:
            if bounds:
                lines.append("return -inf, inf")
                return "inf", "inf"    # never reached
            out = f"t{len(lines)}"
            point = "".join(f"{a}, " for a in args)
            lines.append(f"{out} = _eval_inverse({bind(node)}, ({point}))")
            return out
        raise StructureError(f"unknown node type: {type(node).__name__}")

    params = [f"x{k}" for k in range(e._arity)]
    lines: list[str] = []
    result = emit(e, params, lines, False)
    if slot is None:
        source = f"def lowered({', '.join(params)}):\n{_indent(lines, 1)}    return {result}\n"
    else:
        fixed = params[: slot - 1] + params[slot:]
        bounds: list[str] = []
        args = [(p, p) for p in fixed]
        args.insert(slot - 1, ("lo", "hi"))
        low, high = emit(e, args, bounds, True)
        low, high = _outward_lines(f"{low} - target", f"{high} - target", 1, bounds)
        inputs = " + ".join(["lo", "hi", "target", *fixed])
        source = (f"def section({', '.join(['target', *fixed])}):\n"
                  f"    def h({params[slot - 1]}):\n{_indent(lines, 2)}"
                  f"        return {result} - target\n"
                  "    return h\n"
                  f"def enclose({', '.join(['lo', 'hi', 'target', *fixed])}):\n"
                  # a non-finite input makes the sum inf or NaN, which fail the
                  # test; so does, harmlessly, a sum of finite inputs that overflows
                  f"    if not -inf < {inputs} < inf:\n"
                  "        return -inf, inf\n"
                  f"    try:\n{_indent(bounds, 2)}"
                  f"        return {low}, {high}\n"
                  "    except OverflowError:   # from **\n"
                  "        return -inf, inf\n")
    exec(_compile(source), namespace)
    if slot is None:
        return namespace["lowered"]
    enclose = namespace["enclose"]
    enclose.section = namespace["section"]
    return enclose


def _indent(lines: list[str], depth: int) -> str:
    return "".join(f"{'    ' * depth}{line}\n" for line in lines)


# The enclosure's lines, as `_lower` emits them: each takes the names of the
# bounds of its arguments and appends lines to `lines` that bind the bounds
# of its value to new names, which it returns.  A name is "v" and the index
# of the line that binds it, so it is new in its function.

def _let(lines: list[str], value: str) -> str:
    name = f"v{len(lines)}"
    lines.append(f"{name} = {value}")
    return name


def _outward_lines(lo: str, hi: str, ulps: int, lines: list[str]) -> tuple[str, str]:
    """The bounds lo and hi (expressions) pushed outward by `ulps` ulps
    each, and the check that they are finite and ordered."""
    if lo == hi and not lo.isidentifier():
        lo = hi = _let(lines, lo)   # one expression for both bounds: compute it once
    for _ in range(ulps):
        lo, hi = f"nextafter({lo}, -inf)", f"nextafter({hi}, inf)"
    low, high = _let(lines, lo), _let(lines, hi)
    lines.append(f"if not -inf < {low} <= {high} < inf: return -inf, inf")
    return low, high


def _corner_lines(a, op: str, b, ulps: int, lines: list[str]) -> tuple[str, str]:
    """The least and the greatest of a op b over the corners of the ranges a
    and b, in the order and with the ties of `min` and `max`, pushed outward
    by `ulps` ulps."""
    values = [_let(lines, text) for text in dict.fromkeys(f"{x} {op} {y}" for x in a for y in b)]
    least = most = values[0]
    if len(values) > 1:
        least, most = _let(lines, values[0]), _let(lines, values[0])
        for v in values[1:]:
            lines += [f"if {v} < {least}: {least} = {v}", f"if {v} > {most}: {most} = {v}"]
    return _outward_lines(least, most, ulps, lines)


def _enclose_lines(op: Primitive, a, b, lines: list[str]) -> tuple[str, str]:
    """The bounds of op over the ranges a and b, giving up (returning
    (-inf, inf)) where its `_checked_*` twin may raise."""
    (al, ah), (bl, bh) = a, b
    if op is Primitive.ADD:
        return _outward_lines(f"{al} + {bl}", f"{ah} + {bh}", 1, lines)
    if op is Primitive.MUL:
        return _corner_lines(a, "*", b, 1, lines)
    if op is Primitive.DIV:
        lines.append(f"if {bl} <= 0 <= {bh}: return -inf, inf")
        return _corner_lines(a, "/", b, 1, lines)
    if op is Primitive.POW:
        lines.append(f"if not {al} > 0: return -inf, inf")
        return _corner_lines(a, "**", b, 2, lines)
    if op is Primitive.ROOT:
        return _enclose_lines(Primitive.POW, a,
                              _enclose_lines(Primitive.DIV, ("1.0", "1.0"), b, lines), lines)
    # LOG: math.log(a, b) divides the two natural logarithms
    lines.append(f"if not ({al} > 0 and {bl} > 0): return -inf, inf")
    return _enclose_lines(Primitive.DIV, _outward_lines(f"log({al})", f"log({ah})", 2, lines),
                          _outward_lines(f"log({bl})", f"log({bh})", 2, lines), lines)


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


# How a lowering writes each primitive: ADD and MUL as an operator, each
# other one as a call of its checked function, which it binds by name at
# each node, as it binds the node itself.
_INFIX = {Primitive.ADD: "+", Primitive.MUL: "*"}
_CHECKED = {Primitive.DIV: _checked_div, Primitive.POW: _checked_pow,
            Primitive.ROOT: _checked_root, Primitive.LOG: _checked_log}


def equivalent_on(e1: Expr, e2: Expr, domain: BoxDomain, samples: int = 100,
                  tol: float = DEFAULT_TOL, seed: int = 0) -> bool:
    """Sampled evaluation equivalence of two expressions over a box.

    True iff |e1(x) - e2(x)| <= tol at every sampled x at which both sides
    evaluate.  A point where exactly one side raises an evaluation error is
    a counterexample; a point where both raise is skipped.  Sampling is
    uniform and deterministic for a given seed.  The arities are checked
    once; each sample, floats of the right count, goes to `lowered` directly.
    """
    if e1.arity != e2.arity:
        raise StructureError(f"arity mismatch: {e1.arity} vs {e2.arity}")
    if e1.arity != domain.dim:
        raise StructureError(f"domain has {domain.dim} axes, expressions have arity {e1.arity}")
    f1, f2 = lowered(e1), lowered(e2)
    rng = random.Random(seed)
    for _ in range(samples):
        x = [rng.uniform(lo, hi) for lo, hi in domain.axes]
        try:
            v1 = f1(*x)
            ok1 = True
        except EvalError:
            ok1 = False
        try:
            v2 = f2(*x)
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
