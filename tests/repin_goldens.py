"""Re-record the goldens that pin refined roots, and check every change.

Run from the root of a checkout, with the goldens as they were recorded
before the change (for instance from `git show <rev>:tests/golden_solve.json`
and `git show <rev>:tests/test_inverse.py`):

    python tests/repin_goldens.py OLD_GOLDEN_JSON OLD_TEST_INVERSE_PY [--write]

For each `solve` and `invert` case of the golden file, for the 2-D
`inverse_fn` calls and for the `GOLDEN` rows of `test_inverse.py`, the case
is run on this checkout and compared with its old record.  A case that
changed passes only where

- the exit code, the root count and every other output field, the CLI
  warnings included, are unchanged;
- each moved root r has |f(r) - c| <= tol under an evaluator independent of
  the lowering: `util.ast_eval` for pointful equations, a walk of the tree
  in plain floats for operator notation (a nested Inverse by
  `util.scan_roots`), and plain Python functions for the `GOLDEN` rows;
- each moved root lies within 1e-6 + tol/|slope| of its old value, the
  slope taken by a central difference at the new root.

A branch end that moved, in the 2-D `inverse_fn` branches or in the
`GOLDEN` rows that print branches, passes only where the branch count is
unchanged, the end lies within 1e-6 of its old value, and the independent
evaluator, on one fiber, shows the slope changing sign across it: the
differences f(e) - f(e - 1e-6) and f(e + 1e-6) - f(e) have opposite signs.
The `degenerate` message of a solve that names a branch moves with the cut
that ends the branch: it may change only in the cases of `CUT_MESSAGES`,
and only within its pattern, with the exit code and the error kind
unchanged.

The two pole rows, where a bracket spans the pole of 1/t, may trade the
note that ends that bracket ("bisection aborted" for "bisection stalled"):
whether a search meets the pole exactly or stalls next to it depends on
its steps.  Every case is printed; the exit status is 1 if any check fails.
With `--write`, the new outputs replace the golden file's records
(`GOLDEN` rows are edited by hand).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "src")]

from mvfa import BoxDomain, cli, inverse_fn, parse, parse_equation, to_structural  # noqa: E402
from mvfa.expr_core import Compose, Const, Diagonal, Inverse, Lift, Prim  # noqa: E402
from mvfa.frontend import parse_structural  # noqa: E402
from mvfa.inverse import DegenerateInputError  # noqa: E402
from util import ADD, DIV, LOG, MUL, POW, ROOT, ast_eval, scan_roots  # noqa: E402

PLAIN = {ADD: lambda a, b: a + b, MUL: lambda a, b: a * b, DIV: lambda a, b: a / b,
         POW: lambda a, b: a ** b, ROOT: lambda a, b: a ** (1.0 / b),
         LOG: lambda a, b: math.log(a) / math.log(b)}

# f(t) - c for the GOLDEN rows of test_inverse.py whose roots are refined
ROWS = {
    "bisected-root": (lambda t: t ** 2 - 9.0, 1e-12),
    "bisection-abort": (lambda t: 1.0 / t - 0.5, 1e-9),
    "bisection-stall": (lambda t: 1.0 / t, 1e-9),
    "close-roots-one-group": (lambda t: (t - 0.5) ** 2 * 1e12 - 1e-5, 1e-9),
    "formula-close-roots": (lambda t: (t - 0.5) ** 2 * 1e12 - 1e-5, 1e-9),
    "multi-branch-inverse-fn": (lambda t: t ** 3 - t - 0.1, 1e-10),
    "two-dim-inverse-fn": (lambda t: t ** 2 + 0.5 - 0.75, 1e-9),
}
# f along the cut axis, on one fiber, for the GOLDEN rows that print branches
CUT_ROWS = {
    "three-branch-split": lambda t: t ** 3 - t,
    "two-dim-split": lambda t: t ** 2,    # x1^2 + x2 on the fiber x2 = 0
}
CUT_BOUND = 1e-6
BRANCH = re.compile(r"Branch\(interval=\(([^,]+), ([^)]+)\)\)")
# solves whose degenerate message names a branch, and so moves with its cut
CUT_MESSAGES = {"solve[6]"}
NOT_MONOTONE = re.compile(r"branch \d+ \[\S+, \S+\] is not monotone at grid \d+")
POLE_ROWS = {"bisection-abort", "bisection-stall"}
POLE_NOTE = re.compile(r"bisection (aborted|stalled) near t=")
# `Branch.branch_id` no longer exists: old reprs are compared without it
DELETED_FIELD = re.compile(r", branch_id=\d+")


def tree_value(e, args: list[float]) -> float:
    """e at the point `args`, walking the tree in plain floats."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Lift):
        return tree_value(e.inner, [args[p - 1] for p in e.positions])
    if isinstance(e, Diagonal):
        jj = e.j - 1 if e.j > e.i else e.j
        return tree_value(e.inner, args[: e.i - 1] + [args[jj - 1]] + args[e.i - 1:])
    if isinstance(e, Compose):
        if e.slot not in e.f.used_slots:
            return tree_value(e.f, args[: e.f.arity])
        routed = list(args)
        routed[e.slot - 1] = tree_value(e.g, args if e.g.arity else [])
        return tree_value(e.f, routed)
    if isinstance(e, Prim):
        return args[0] if e.op.arity == 1 else PLAIN[e.op](*args)
    if isinstance(e, Inverse):
        s = e.slot - 1

        def h(t):
            return tree_value(e.inner, args[:s] + [t] + args[s + 1:]) - args[s]
        return scan_roots(h, *e.axis)[0]
    raise TypeError(e)


def moved_roots(label, old, new, h, tol, failures):
    """Check and print the roots of one case that moved; h(t) = f(t) - c."""
    if len(old) != len(new):
        failures.append(f"{label}: {len(old)} roots became {len(new)}")
        return
    for r0, r in zip(old, new):
        if r0 == r:
            continue
        step = 1e-7 * max(1.0, abs(r))
        slope = abs(h(r + step) - h(r - step)) / (2 * step)
        residual, bound = abs(h(r)), 1e-6 + (tol / slope if slope else math.inf)
        ok = residual <= tol and abs(r - r0) <= bound
        print(f"  {label}: {r0!r} -> {r!r}  moved {abs(r - r0):.3g} (bound {bound:.3g}), "
              f"|f-c| {residual:.3g} (tol {tol:g}){'' if ok else '  FAIL'}")
        if not ok:
            failures.append(label)


def moved_cuts(label, old, new, s, failures):
    """Check and print the branch ends of one case that moved; `old` and
    `new` are lists of (a, b), and s(t) is f along the cut axis."""
    if len(old) != len(new):
        failures.append(f"{label}: {len(old)} branches became {len(new)}")
        return
    for e0, e in zip((a for a, _ in old[1:]), (a for a, _ in new[1:])):
        if e0 == e:
            continue
        left, right = s(e) - s(e - CUT_BOUND), s(e + CUT_BOUND) - s(e)
        ok = abs(e - e0) <= CUT_BOUND and (left < 0 < right or right < 0 < left)
        print(f"  {label}: cut {e0!r} -> {e!r}  moved {abs(e - e0):.3g} (bound {CUT_BOUND:g}), "
              f"slope {left:.3g} | {right:.3g}{'' if ok else '  FAIL'}")
        if not ok:
            failures.append(f"{label}: branch end {e0!r} -> {e!r}")
    ends = [x for branch in new for x in branch]
    if ends[0] != old[0][0] or ends[-1] != old[-1][1] or ends[1:-1:2] != ends[2:-1:2]:
        failures.append(f"{label}: branches no longer tile the axis")


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_case(section, k, case, failures):
    label = f"{section}[{k}]"
    code, out = run_cli(case["argv"])
    if (code, out) == (case["exit"], case["stdout"]):
        return case
    old, new = json.loads(case["stdout"]), json.loads(out)
    if label in CUT_MESSAGES and "error" in old:
        (old_error, old_message), (new_error, new_message) = (
            ({**rec["error"], "message": None}, rec["error"]["message"]) for rec in (old, new))
        print(f"  {label}: {old_message!r} -> {new_message!r}")
        if (code, new_error) != (case["exit"], old_error) or not all(
                map(NOT_MONOTONE.fullmatch, (old_message, new_message))):
            failures.append(f"{label}: exit code, error kind or message pattern changed")
        return {**case, "stdout": out}
    unrefined = ({k: v for k, v in rec.items() if k not in ("roots", "residuals")}
                 for rec in (old, new))
    if code != case["exit"] or next(unrefined) != next(unrefined):
        failures.append(f"{label}: exit code or a field other than roots changed")
        return {**case, "exit": code, "stdout": out}
    args = cli.build_parser().parse_args(case["argv"])
    if section == "solve":
        lhs, _ = parse_equation(args.equation)
        env = {}
        for entry in args.param or []:
            env.update(cli._parse_assignments(entry, "--param"))
        c, tol, name = new["rhs"], new["tolerance"], new["unknown"]

        def h(t):
            return ast_eval(lhs, {**env, name: t}) - c
    else:
        f = parse_structural(args.expr)
        fixed = cli._parse_assignments(args.fixed, "--fixed") if args.fixed else {}
        tol = cli._resolve_tol(args)

        def h(t):
            point = [t if k == args.slot else fixed[str(k)] for k in range(1, f.arity + 1)]
            return tree_value(f, point) - args.target
    moved_roots(label, old["roots"], new["roots"], h, tol, failures)
    return {**case, "stdout": out}


def inverse_fn_case(spec, failures):
    lhs = parse(spec["expr"])
    form = to_structural(lhs)
    fn = inverse_fn(form.expr, spec["slot"], BoxDomain(tuple(map(tuple, spec["domain"]))),
                    tol=spec["tol"], grid=spec["grid"], split_grid=spec["split_grid"])
    names = [form.binding[k] for k in sorted(form.binding)]
    branches = [[*b.interval] for b in fn.pieces.branches]
    if branches != spec["branches"]:
        # the fiber at the lower end of every other axis
        fiber = {n: lo for n, (lo, _) in zip(names, spec["domain"])}
        axis = names[spec["slot"] - 1]
        moved_cuts("inverse_fn", spec["branches"], branches,
                   lambda t: ast_eval(lhs, {**fiber, axis: t}), failures)
    calls = []
    for k, call in enumerate(spec["calls"]):
        args = call["args"]
        roots = fn(*args)
        # the argument at the inverted slot is the target; the unknown
        # takes its name
        env = {n: v for n, v in zip(names, args)}
        unknown, c = names[spec["slot"] - 1], args[spec["slot"] - 1]

        def h(t, env=env, unknown=unknown, c=c):
            return ast_eval(lhs, {**env, unknown: t}) - c
        moved_roots(f"inverse_fn[{k}]", call["roots"], roots, h, spec["tol"], failures)
        calls.append({**call, "roots": roots})
    return {**spec, "branches": branches, "calls": calls}


def roots_and_warnings(value):
    """A GOLDEN row's output as (roots, warnings): invert_at's pair, an
    Inverse node's one root, or inverse_fn's roots."""
    if isinstance(value, tuple):
        return value
    return ([value] if isinstance(value, float) else value), []


def golden_rows(old_test_path, failures):
    with open(old_test_path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "GOLDEN")
    # each row is (call, expected repr): the repr is a string literal
    old = {ast.literal_eval(key): DELETED_FIELD.sub("", ast.literal_eval(row.elts[1]))
           for key, row in zip(table.keys, table.values)}
    import test_inverse
    for name, (call, _) in test_inverse.GOLDEN.items():
        try:
            got = repr(call())
        except DegenerateInputError as exc:   # as test_golden_values prints it
            got = f"{type(exc).__name__}: {exc}"
        if got == old[name]:
            continue
        print(f"GOLDEN[{name}]: {old[name]}\n  -> {got}")
        if name in CUT_ROWS:
            moved_cuts(f"GOLDEN[{name}]", *(
                [(float(a), float(b)) for a, b in BRANCH.findall(text)]
                for text in (old[name], got)), CUT_ROWS[name], failures)
            continue
        if name not in ROWS:
            failures.append(f"GOLDEN[{name}] changed and has no check")
            continue
        (r0, w0), (r1, w1) = (roots_and_warnings(ast.literal_eval(text))
                              for text in (old[name], got))
        if name in POLE_ROWS:
            same = len(w0) == len(w1) and all(map(POLE_NOTE.match, w0 + w1))
        else:
            same = w0 == w1
        if not same:
            failures.append(f"GOLDEN[{name}]: warnings changed")
        h, tol = ROWS[name]
        moved_roots(f"GOLDEN[{name}]", r0, r1, h, tol, failures)


def main(argv):
    old_golden, old_test = argv[:2]
    with open(old_golden, encoding="utf-8") as fh:
        golden = json.load(fh)
    failures: list[str] = []
    new = {"solve": [cli_case("solve", k, c, failures) for k, c in enumerate(golden["solve"])],
           "inverse_fn": inverse_fn_case(golden["inverse_fn"], failures),
           "invert": [cli_case("invert", k, c, failures) for k, c in enumerate(golden["invert"])]}
    golden_rows(old_test, failures)
    for line in failures:
        print("FAIL", line)
    print(f"{len(failures)} failed checks")
    if "--write" in argv:
        with open(os.path.join(HERE, "golden_solve.json"), "w", encoding="utf-8") as fh:
            json.dump(new, fh, indent=1)
            fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
