"""Command-line surface.

Every command prints one JSON document on stdout, on success and on failure
alike, and is fully deterministic: identical invocations are byte-identical.
Exit codes: 0 success (including a solve with no roots), 1 computation
error, 2 usage error.

The `eval`, `solve` and `kst decompose` commands take pointful DSL text
(see the frontend grammar); `lift`, `compose`, `diag` and `invert` speak the
canonical operator notation that `format`/solve output, e.g. "A4_{1,2}(add)".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from .expr_core import (
    DEFAULT_TOL,
    BoxDomain,
    ConfigError,
    EvalDomainError,
    EvalError,
    MvfaError,
    NoSolutionError,
    StructureError,
    evaluate,
)
from .frontend import (
    ParseError,
    StructuralForm,
    format_expr,
    parse,
    parse_equation,
    parse_structural,
    to_structural,
    AstConst,
    AstSymbol,
)
from .inverse import (
    DegenerateInputError,
    UnsupportedInverseError,
    invert_at,
)
from .kst import FormatError, KstRep, decompose, reconstruct
from .solver import Equation, solve
from .structure_ops import compose_at, diagonal, lift


class UsageError(MvfaError):
    """Bad or missing command-line input."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value that starts with a minus sign and a digit is a value, not an
        # option: argparse's own rule covers "-1" but not "-1:5" or "-0.5,0.5".
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # argparse would print usage text and exit
        raise UsageError(message)


def _emit(obj: dict, pretty: bool = False) -> None:
    """Print `obj` as strict JSON; a NaN or infinity in it is an evaluation error."""
    try:
        text = json.dumps(obj, indent=2 if pretty else None, allow_nan=False)
    except ValueError:
        raise EvalError("the result is not finite and has no JSON form") from None
    print(text)


def _error_obj(kind: str, message: str, location=None) -> dict:
    return {"error": {"kind": kind, "message": message, "location": location}}


def _number(text: str, complaint: str) -> float:
    """`text` as a finite float; a non-number, NaN or infinity is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(complaint)
    return value


def _default_tol() -> float:
    raw = os.environ.get("MVFA_TOL")
    if raw is None:
        return DEFAULT_TOL
    return _number(raw, f"MVFA_TOL is not a number: {raw!r}")


def _resolve_tol(args) -> float:
    tol = _default_tol() if args.tol is None else args.tol
    if not (tol > 0 and math.isfinite(tol)):
        raise UsageError(f"the tolerance must be positive and finite, got {tol}")
    return tol


def _parse_assignments(text: str, what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise UsageError(f"{what} entries look like name=value, got {piece!r}")
        name, _, value = piece.partition("=")
        out[name.strip()] = _number(value, f"bad numeric value in {what}: {piece!r}")
    return out


def _parse_interval(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError(f"intervals look like lo:hi, got {text!r}")
    complaint = f"bad interval bounds: {text!r}"
    return _number(lo, complaint), _number(hi, complaint)


def _parse_box(text: str) -> BoxDomain:
    return BoxDomain(tuple(_parse_interval(p) for p in text.split(",")))


def _parse_positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"positions are a comma-separated integer list, got {text!r}") from None


def _cmd_eval(args) -> int:
    form: StructuralForm = to_structural(parse(args.expr))
    values = _parse_assignments(args.at, "--at") if args.at else {}
    point = []
    for slot in range(1, form.expr.arity + 1):
        name = form.binding[slot]
        if name not in values:
            raise UsageError(f"no --at value for symbol {name!r}")
        point.append(values[name])
    _emit({"value": evaluate(form.expr, point)}, args.pretty)
    return 0


def _cmd_solve(args) -> int:
    lhs_ast, rhs_ast = parse_equation(args.equation)
    params = {}
    for entry in args.param or []:
        params.update(_parse_assignments(entry, "--param"))
    if isinstance(rhs_ast, AstConst):
        rhs = rhs_ast.value
    else:
        assert isinstance(rhs_ast, AstSymbol)
        if rhs_ast.name not in params:
            raise UsageError(f"right side {rhs_ast.name!r} needs a --param value")
        rhs = params[rhs_ast.name]
    if args.domain is None:
        raise UsageError("solve needs --domain lo:hi for the unknown")
    form = to_structural(lhs_ast)
    lhs_names = set(form.binding.values())
    unknowns = sorted(lhs_names - set(params))
    if len(unknowns) != 1:
        raise UsageError(
            f"equation must have exactly one unknown symbol, found {unknowns or 'none'}"
            " (bind the others with --param)")
    eq = Equation(form.expr, form.binding, rhs, params,
                  BoxDomain((_parse_interval(args.domain),)))
    report = solve(eq, tol=_resolve_tol(args))
    out = report.to_json_dict()
    out["compile_trace"] = form.trace
    out["domain"] = list(eq.domain.axis(1))
    _emit(out, args.pretty)
    return 0


def _emit_expr(e, args) -> int:
    """Output of the structural commands: the expression, its arity and used slots."""
    _emit({"expr": format_expr(e), "arity": e.arity,
           "used_slots": sorted(e.used_slots)}, args.pretty)
    return 0


def _cmd_lift(args) -> int:
    inner = parse_structural(args.expr)
    return _emit_expr(lift(inner, args.arity, _parse_positions(args.positions)), args)


def _cmd_compose(args) -> int:
    f = parse_structural(args.f)
    g = parse_structural(args.g)
    positions = _parse_positions(args.positions) if args.positions else None
    return _emit_expr(compose_at(f, args.slot, g, positions), args)


def _cmd_diag(args) -> int:
    return _emit_expr(diagonal(parse_structural(args.expr), args.i, args.j), args)


def _cmd_invert(args) -> int:
    f = parse_structural(args.expr)
    if args.domain is None:
        raise UsageError("invert needs --domain with one lo:hi per axis")
    d = _parse_box(args.domain)
    fixed_map = _parse_assignments(args.fixed, "--fixed") if args.fixed else {}
    fixed = []
    for slot in range(1, f.arity + 1):
        if slot == args.slot:
            continue
        key = str(slot)
        if key not in fixed_map:
            raise UsageError(f"no --fixed value for slot {slot}")
        fixed.append(fixed_map[key])
    if not math.isfinite(args.target):
        raise UsageError(f"--target must be finite, got {args.target}")
    warnings: list[str] = []
    roots = invert_at(f, args.slot, args.target, fixed, d,
                      tol=_resolve_tol(args), warnings=warnings)
    _emit({"roots": roots, "warnings": warnings}, args.pretty)
    return 0


def _cmd_kst_decompose(args) -> int:
    form = to_structural(parse(args.expr))
    names = list(form.binding.values())
    if len(set(names)) != len(names):
        raise UsageError("decompose needs each symbol to occur exactly once")
    if form.expr.arity != 2:
        raise UsageError(f"decompose takes a function of 2 variables, got {form.expr.arity}")
    if args.output is None:
        raise UsageError("decompose needs -o PATH for the representation file")
    rep = decompose(form.expr, grid=args.grid, iters=args.iters)
    rep.save(args.output)
    _emit({
        "dimension": rep.dimension,
        "grid": rep.grid,
        "iterations": rep.iterations,
        "final_residual": rep.residual,
        "history_tail": rep.history[-5:],
        "output": args.output,
    }, args.pretty)
    return 0


def _cmd_kst_reconstruct(args) -> int:
    rep = KstRep.load(args.rep)
    if args.at is None:
        raise UsageError("reconstruct needs --at with comma-separated coordinates")
    point = [_number(v, f"bad point: {args.at!r}") for v in args.at.split(",")]
    if len(point) != rep.dimension:
        raise UsageError(f"--at takes {rep.dimension} coordinates, got {len(point)}")
    warnings: list[str] = []
    value = reconstruct(rep, point, warnings)
    _emit({"value": value, "clamps": len(warnings)}, args.pretty)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pretty", action="store_true", help="indent the JSON output")


def build_parser() -> _Parser:
    parser = _Parser(prog="mvfa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a pointful expression")
    p.add_argument("expr")
    p.add_argument("--at", help="symbol values, e.g. x=2,y=10")
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("solve", help="solve lhs = rhs for its unknown")
    p.add_argument("equation")
    p.add_argument("--param", action="append", help="name=value (repeatable)")
    p.add_argument("--domain", help="search interval lo:hi for the unknown")
    p.add_argument("--tol", type=float, help="tolerance (default 1e-9, or MVFA_TOL)")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lift", help="embed a function at a larger arity")
    p.add_argument("expr", help="operator notation, e.g. add")
    p.add_argument("arity", type=int)
    p.add_argument("--positions", required=True, help="e.g. 1,2")
    _add_common(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("compose", help="replace one slot by another function")
    p.add_argument("f")
    p.add_argument("slot", type=int)
    p.add_argument("g")
    p.add_argument("--positions", help="lift positions for a smaller g")
    _add_common(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("diag", help="oblique projection: slot j replaces slot i")
    p.add_argument("expr")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("invert", help="numeric partial inverse about one slot")
    p.add_argument("expr")
    p.add_argument("slot", type=int)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--fixed", help="slot=value pairs, e.g. 2=3")
    p.add_argument("--domain", help="one lo:hi per axis, comma separated")
    p.add_argument("--tol", type=float, help="tolerance (default 1e-9, or MVFA_TOL)")
    _add_common(p)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("kst", help="superposition decomposition")
    ksub = p.add_subparsers(dest="kst_command", required=True)

    k = ksub.add_parser("decompose", help="fit outer functions for a bivariate expression")
    k.add_argument("expr")
    k.add_argument("--grid", type=int, default=33)
    k.add_argument("--iters", type=int, default=50)
    k.add_argument("-o", "--output")
    _add_common(k)
    k.set_defaults(func=_cmd_kst_decompose)

    k = ksub.add_parser("reconstruct", help="evaluate a stored representation")
    k.add_argument("rep", help="representation file written by decompose")
    k.add_argument("--at", help="point, e.g. 0.5,0.5")
    _add_common(k)
    k.set_defaults(func=_cmd_kst_reconstruct)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of `main`, built once per process: building it costs
    milliseconds, a large share of a short command run in-process."""
    return build_parser()


_ERROR_KINDS = (  # first match wins; usage and parse errors are caught before
    (NoSolutionError, "no-solution"),
    (EvalDomainError, "domain"),
    (EvalError, "evaluation"),
    (UnsupportedInverseError, "unsupported"),
    (DegenerateInputError, "degenerate"),
    (FormatError, "format"),
    (StructureError, "structure"),
    (ConfigError, "config"),
    (MvfaError, "error"),
)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    pretty = "--pretty" in argv
    try:
        args = _shared_parser().parse_args(argv)
    except UsageError as exc:
        _emit(_error_obj("usage", str(exc)), pretty)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        _emit(_error_obj("usage", str(exc)), args.pretty)
        return 2
    except ParseError as exc:
        _emit(_error_obj("parse", str(exc), {"line": exc.line, "col": exc.col}), args.pretty)
        return 1
    except MvfaError as exc:
        kind = next(kind for klass, kind in _ERROR_KINDS if isinstance(exc, klass))
        _emit(_error_obj(kind, str(exc)), args.pretty)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
