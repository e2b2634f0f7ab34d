"""Equation solving over structural expressions.

Repeated unknown slots are merged pairwise by oblique projections, named
parameters are pinned, and the resulting unary function is inverted over
the supplied search interval.
The report carries both the operator-formula solution (an expression with
one inverse node whose arguments are the right-hand value followed by the
parameters in binding order) and the verified numeric root set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr_core import (
    DEFAULT_TOL,
    BoxDomain,
    ConfigError,
    Expr,
    Inverse,
    Lift,
    evaluate,
)
from .inverse import DEFAULT_SPLIT_GRID, inverse_fn
from .structure_ops import diagonal, normalize, substitute_const


@dataclass
class Equation:
    """One equation lhs(slots) = rhs over a structural expression.

    `binding` assigns every slot a symbol name; the unique name without a
    parameter value is the unknown.  Parameter names may not repeat across
    slots (the inverse's argument order would be ambiguous); the unknown may
    occupy any number of slots.  `domain` is the search interval for the
    unknown, given as a 1-axis box or a (lo, hi) pair.
    """

    lhs: Expr
    binding: dict[int, str]
    rhs: float
    params: dict[str, float]
    domain: BoxDomain

    def __post_init__(self):
        if not isinstance(self.domain, BoxDomain):
            self.domain = BoxDomain((tuple(self.domain),))
        if self.domain.dim != 1:
            raise ConfigError("the unknown's domain must be a single interval")
        self.rhs = float(self.rhs)
        self.params = {str(k): float(v) for k, v in self.params.items()}
        n = self.lhs.arity
        if sorted(self.binding) != list(range(1, n + 1)):
            raise ConfigError(f"binding must cover slots 1..{n} exactly")
        unknowns = {name for name in self.binding.values() if name not in self.params}
        if len(unknowns) != 1:
            raise ConfigError(
                f"exactly one unknown symbol required, found {sorted(unknowns) or 'none'}")
        counts: dict[str, int] = {}
        for name in self.binding.values():
            counts[name] = counts.get(name, 0) + 1
        for name, count in counts.items():
            if name in self.params and count > 1:
                raise ConfigError(f"parameter {name!r} is bound to {count} slots; "
                                  "repeated parameters are not supported")

    @property
    def unknown(self) -> str:
        return next(name for name in self.binding.values() if name not in self.params)


@dataclass(frozen=True)
class TraceStep:
    """One applied operator; `label` is its operator notation."""

    op: str                 # "diagonal" | "lift" | "inverse"
    args: tuple
    label: str


def replay_trace(e: Expr, trace) -> Expr:
    """Re-apply a recorded operator sequence to an expression."""
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


@dataclass(frozen=True)
class SolveReport:
    """Solution formula, numeric roots, residuals and the operator trace."""

    formula: Expr
    roots: tuple[float, ...]
    residuals: tuple[float, ...]
    trace: tuple[TraceStep, ...]
    status: str                      # "ok" | "no-solution"
    unknown: str
    param_names: tuple[str, ...]     # binding order; formula args are (rhs, *params)
    param_values: tuple[float, ...]
    rhs: float
    tolerance: float

    def to_json_dict(self) -> dict:
        from .frontend import format_expr

        return {
            "status": self.status,
            "unknown": self.unknown,
            "formula": format_expr(self.formula),
            "formula_args": [self.rhs, *self.param_values],
            "trace": [step.label for step in self.trace],
            "roots": list(self.roots),
            "residuals": list(self.residuals),
            "rhs": self.rhs,
            "params": dict(zip(self.param_names, self.param_values)),
            "tolerance": self.tolerance,
        }


def unknown_slots(eq: Equation) -> list[int]:
    """Ascending slots bound to the unknown."""
    unk = eq.unknown
    return sorted(s for s, name in eq.binding.items() if name == unk)


def collapse_unknowns(eq: Equation) -> tuple[Expr, dict[int, str], list[TraceStep]]:
    """Merge repeated unknown slots until exactly one remains.

    Each step projects the lowest unknown slot onto the next one and is
    recorded in the trace; the returned binding maps the renumbered slots.
    The result evaluates exactly as the original whenever all unknown
    coordinates are equal.
    """
    expr = eq.lhs
    binding = dict(eq.binding)
    steps: list[TraceStep] = []
    unk = eq.unknown
    slots = sorted(s for s, name in binding.items() if name == unk)
    while len(slots) > 1:
        i, j = slots[0], slots[1]
        n = expr.arity
        expr = diagonal(expr, i, j)
        steps.append(TraceStep("diagonal", (n, i, j), f"C{n}_{{{i},{j}}}"))
        binding = {(s - 1 if s > i else s): name
                   for s, name in binding.items() if s != i}
        slots = sorted(s for s, name in binding.items() if name == unk)
    return expr, binding, steps


def bind_params(e: Expr, binding: dict[int, str], params: dict[str, float]) -> Expr:
    """Pin every parameter slot and compact to a unary function of the unknown."""
    non_params = {name for name in binding.values() if name not in params}
    if len(non_params) > 1:
        raise ConfigError(f"missing parameter values for {sorted(non_params)}")
    out = e
    for slot in sorted(binding):
        name = binding[slot]
        if name in params:
            out = substitute_const(out, slot, params[name])
    out, _ = normalize(out)
    if out.arity != 1:
        raise ConfigError("binding did not leave a unary function of the unknown "
                          "(does the unknown affect the expression?)")
    return out


def solve(eq: Equation, tol: float = DEFAULT_TOL,
          grid: int = DEFAULT_SPLIT_GRID, split_grid: int = DEFAULT_SPLIT_GRID) -> SolveReport:
    """Solve `eq` for its unknown.

    The formula is the partial inverse (about slot 1) of the collapsed
    expression, reordered if necessary so that the unknown sits first and
    the parameters follow in binding order; its arguments are
    (rhs, parameters...).  Roots come from the multivalued inverse of the
    parameter-bound unary function over the unknown's domain; every root's
    residual is verified against `tol`.  An empty root set is reported as
    status "no-solution", not an error.
    """
    collapsed, binding, steps = collapse_unknowns(eq)
    unk = eq.unknown
    u_slot = next(s for s, name in binding.items() if name == unk)
    param_slots = [s for s in sorted(binding) if binding[s] != unk]
    m = collapsed.arity

    order = [u_slot, *param_slots]
    if order != list(range(1, m + 1)):
        target = {u_slot: 1}
        for k, s in enumerate(param_slots):
            target[s] = k + 2
        positions = tuple(target[s] for s in range(1, m + 1))
        subs = ",".join(str(p) for p in positions)
        formula_inner: Expr = Lift(collapsed, m, positions)
        steps.append(TraceStep("lift", (m, positions), f"A{m}_{{{subs}}}"))
    else:
        formula_inner = collapsed
    axis = eq.domain.axis(1)
    formula = Inverse(formula_inner, 1, axis)
    steps.append(TraceStep("inverse", (1, axis), "I_{1}"))

    bound = bind_params(collapsed, binding, eq.params)
    fn = inverse_fn(bound, 1, eq.domain, tol=tol, grid=grid, split_grid=split_grid)
    roots = tuple(fn(eq.rhs))
    residuals = tuple(abs(evaluate(bound, (r,)) - eq.rhs) for r in roots)

    return SolveReport(
        formula=formula,
        roots=roots,
        residuals=residuals,
        trace=tuple(steps),
        status="ok" if roots else "no-solution",
        unknown=unk,
        param_names=tuple(binding[s] for s in param_slots),
        param_values=tuple(eq.params[binding[s]] for s in param_slots),
        rhs=eq.rhs,
        tolerance=tol,
    )
