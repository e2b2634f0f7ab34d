"""The four seeded workloads.

Each workload generates its inputs from the seed alone, runs one op per
input against `mvfa` (the timed part), checks the op's output against the
oracles in `oracle.py` (untimed), and, in the traced run, replays the op
step by step through the public functions of each module.

Every call into `mvfa` that a per-layer metric reads sits inside a span
named after the layer and the call (see `LAYER_METRICS`).
"""

from __future__ import annotations

import dataclasses
import inspect
import io
import itertools
import json
import math
import os
import random
from contextlib import redirect_stdout

import numpy as np

from mvfa import (
    BoxDomain, Equation, Expr, KstRep, Prim, Primitive, bind_params,
    check_invertible, collapse_unknowns, compose_at, decompose, diagonal,
    equivalent_on, evaluate, format_expr, inner_psi, invert_at, lift,
    normalize, parse, parse_equation, parse_structural, piecewise_split,
    reconstruct, solve, to_structural,
)
from mvfa import cli

import oracle
from oracle import (tame_on, plain_eval, render, root_error_allowed, scan_roots,
                    strict_json)
from spans import NullTracer

# Per-layer metrics of the traced run: (name, unit, kind, source).
#   self    median self time of the spans called `source`, per call
#   per_op  median over ops of the total time of the spans called `source`
#   count   mean per op of the count called `source`
# A layer a workload never calls reports 0 for its metrics there.
LAYER_METRICS = (
    ("frontend.parse_us", "us", "self", "frontend.parse"),
    ("frontend.compile_us", "us", "self", "frontend.compile"),
    ("frontend.format_us", "us", "self", "frontend.format"),
    ("frontend.read_us", "us", "self", "frontend.read"),
    ("structure_ops.project_us", "us", "self", "structure_ops.project"),
    ("structure_ops.nodes", "count", "count", "structure_ops.nodes"),
    ("expr_core.eval_us", "us", "self", "expr_core.eval"),
    ("expr_core.equiv_ms", "ms", "self", "expr_core.equiv"),
    ("expr_core.formula_eval_ms", "ms", "self", "expr_core.formula_eval"),
    ("inverse.split_ms", "ms", "self", "inverse.split"),
    ("inverse.scan_ms", "ms", "self", "inverse.scan"),
    ("inverse.branches", "count", "count", "inverse.branches"),
    ("inverse.roots", "count", "count", "inverse.roots"),
    ("inverse.invert_ms", "ms", "self", "inverse.invert"),
    ("inverse.probe_ms", "ms", "self", "inverse.probe"),
    ("solver.collapse_us", "us", "self", "solver.collapse"),
    ("solver.bind_us", "us", "self", "solver.bind"),
    ("solver.solve_ms", "ms", "self", "solver.solve"),
    ("kst.decompose_ms", "ms", "self", "kst.decompose"),
    ("kst.sample_ms", "ms", "self", "kst.sample"),
    ("kst.inner_sums_ms", "ms", "self", "kst.inner_sums"),
    ("kst.reconstruct_us", "us", "self", "kst.reconstruct"),
    ("kst.save_ms", "ms", "self", "kst.save"),
    ("kst.load_ms", "ms", "self", "kst.load"),
    ("kst.doc_bytes", "bytes", "count", "kst.doc_bytes"),
    ("kst.clamps", "count", "count", "kst.clamps"),
    ("cli.main_ms", "ms", "per_op", "cli.main"),
    ("cli.emit_us", "us", "self", "cli.emit"),
)

# Metrics whose layer a workload calls; the smoke test holds the traced run
# to a nonzero value for each of these.  kst.clamps counts clamped inner
# sums, which are 0 for points inside the unit box.
APPLIES = {
    "solve-distinct": (
        "frontend.parse_us", "frontend.compile_us", "structure_ops.nodes",
        "expr_core.eval_us", "inverse.split_ms", "inverse.scan_ms",
        "inverse.branches", "inverse.roots", "solver.collapse_us",
        "solver.bind_us", "solver.solve_ms", "cli.main_ms", "cli.emit_us"),
    "formula-replay": (
        "structure_ops.nodes", "expr_core.formula_eval_ms", "inverse.invert_ms",
        "inverse.roots"),
    "algebra-oneshot": (
        "frontend.parse_us", "frontend.compile_us", "frontend.format_us",
        "frontend.read_us", "structure_ops.project_us", "structure_ops.nodes",
        "expr_core.eval_us", "expr_core.equiv_ms", "inverse.probe_ms"),
    "kst-fit": (
        "frontend.parse_us", "frontend.compile_us", "structure_ops.nodes",
        "kst.decompose_ms", "kst.sample_ms", "kst.inner_sums_ms",
        "kst.reconstruct_us", "kst.save_ms", "kst.load_ms", "kst.doc_bytes",
        "cli.main_ms"),
}

SOLVE_DEFAULTS = {name: p.default for name, p in inspect.signature(solve).parameters.items()
                  if p.default is not inspect.Parameter.empty}


class OpFailure(Exception):
    """An op failed; `cause` names why (exit code and error kind, or the check)."""

    def __init__(self, cause: str, detail: str = ""):
        super().__init__(f"{cause}: {detail}" if detail else cause)
        self.cause = cause


def call_cli(argv: list[str], tr) -> str:
    """Run `mvfa.cli.main` in-process; return what it printed.

    A nonzero exit raises OpFailure named after the exit code and the error
    kind; the output of a successful command is parsed by the checks.
    """
    buf = io.StringIO()
    with tr.span("cli.main"), redirect_stdout(buf):
        rc = cli.main(argv)
    text = buf.getvalue()
    if rc != 0:
        try:
            error = strict_json(text)["error"]
        except (ValueError, KeyError, TypeError):
            raise OpFailure(f"exit{rc}:non-json") from None
        raise OpFailure(f"exit{rc}:{error.get('kind')}", error.get("message", ""))
    return text


def parse_output(text: str):
    """The strict-JSON document a command printed; OpFailure when it is not."""
    try:
        return strict_json(text)
    except ValueError as exc:
        raise OpFailure("non-json", str(exc)) from None


def node_count(e: Expr) -> int:
    """Nodes of an expression tree, found through its dataclass fields."""
    return 1 + sum(node_count(v) for v in (getattr(e, f.name) for f in dataclasses.fields(e))
                   if isinstance(v, Expr))


def same_floats(xs, ys) -> bool:
    """Bitwise equality of two float sequences."""
    return len(xs) == len(ys) and all(float(x).hex() == float(y).hex() for x, y in zip(xs, ys))


def _close(got: float, want: float, scale: float = 1.0, rel: float = 1e-12) -> bool:
    return abs(got - want) <= rel * max(scale, abs(want))


def random_tree(rng: random.Random, leaves: int, prims):
    """Random binary tree with `leaves` placeholder leaves (None)."""
    if leaves == 1:
        return None
    left = rng.randint(1, leaves - 1)
    return (rng.choice(prims), random_tree(rng, left, prims),
            random_tree(rng, leaves - left, prims))


def fill_leaves(tree, values: list):
    """Replace placeholder leaves left to right by `values`."""
    it = iter(values)

    def walk(node):
        if node is None:
            return next(it)
        return (node[0], walk(node[1]), walk(node[2]))

    return walk(tree)


def fill_constants(expr, values: dict):
    """Replace the named placeholder leaves of `expr` by constants."""
    if isinstance(expr, str):
        return values.get(expr, expr)
    return (expr[0], fill_constants(expr[1], values), fill_constants(expr[2], values))


def two_branch(rng: random.Random):
    """The two-branch family p3(p1(x,a), p2(x,b)) with a planted root."""
    p1, p2, p3 = (rng.choice(("add", "mul", "pow")) for _ in range(3))
    a = round(rng.uniform(0.5, 2.0), 4)
    b = round(rng.uniform(0.5, 2.0), 4)
    expr = (p3, (p1, "x", "a"), (p2, "x", "b"))
    x_star = rng.uniform(0.6, 2.8)
    return expr, {"a": a, "b": b}, x_star, (0.5, 3.0)


class Workload:
    name = ""
    # The timed loop stops at a multiple of this many ops, so that every run
    # sends whole cycles of a workload whose inputs come in a fixed pattern.
    CYCLE = 1
    # The host-speed reference timed before each op (hostspeed.py).
    REFERENCE = "python"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, key) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{key}")

    def make_input(self, k: int):
        """Timed input k (called for k = 0, 1, 2, ... in order)."""
        return self.draw(self.rng(k), k)

    def warmup_input(self):
        """An input outside the timed stream, run once before timing starts."""
        return self.draw(self.rng("warmup"), 0)

    def draw(self, rng: random.Random, k: int):
        raise NotImplementedError

    def op(self, inp, tr):
        """The timed op; returns its output or raises (OpFailure for known causes)."""
        raise NotImplementedError

    def check(self, inp, out, full: bool) -> str | None:
        """Oracle check of one output; a cause string when it disagrees.

        The cheap part runs on every op; `full` adds the expensive part
        (dense root scans), which runs as far as the oracle budget allows.
        """
        return None

    def stepwise(self, inp, out, tr) -> str | None:
        """Traced step-by-step replay after an op; a cause on mismatch."""
        return None

    def summary(self) -> dict:
        """Figures the checks gathered, for the report."""
        return {}

    def close(self) -> None:
        pass


class SolveDistinct(Workload):
    """Distinct equations through `mvfa solve`; nothing shared between requests."""

    name = "solve-distinct"

    # One request in this many is log(x,a)=c over an interval reaching below
    # zero.  Requests whose function is undefined somewhere on the search
    # interval, leaves oracle.TAME_RANGE there or stays within
    # oracle.FLAT_TOL of the right side along a stretch, go to the edge
    # probe (see `edge_probe`).
    DOMAIN_EVERY = 8
    EDGE_MINIMUM = 8
    EDGE_CAP = 64

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.edge: list[dict] = []
        self.stream = 0

    def make_input(self, k: int):
        """The next request of the stream whose function is tame on its whole
        search interval; edge requests met on the way are kept for the probe."""
        while True:
            req = self.request(self.rng(self.stream), self.stream)
            self.stream += 1
            if not req["edge"]:
                return req
            if len(self.edge) < self.EDGE_CAP:
                self.edge.append(req)

    def warmup_input(self):
        for idx in range(self.DOMAIN_EVERY - 1):
            req = self.request(self.rng(f"warmup-{idx}"), idx)
            if not req["edge"]:
                return req
        raise RuntimeError("no tame warm-up request")

    def request(self, rng: random.Random, idx: int):
        """Request idx of the seeded stream."""
        if idx % self.DOMAIN_EVERY == self.DOMAIN_EVERY - 1:
            return self._log_outside(rng)
        family = two_branch if rng.random() < 0.4 else self._tower
        while True:  # an equation needs a finite right side
            expr, params, x_star, (lo, hi) = family(rng)
            try:
                rhs = plain_eval(expr, dict(params, x=x_star))
                break
            except OverflowError:
                continue
        argv = ["solve", f"{render(expr)} = c"]
        for name, value in params.items():
            argv += ["--param", f"{name}={value!r}"]
        argv += ["--param", f"c={rhs!r}", "--domain", f"{lo!r}:{hi!r}"]
        return {"argv": argv, "expr": expr, "params": params, "rhs": rhs, "domain": (lo, hi),
                "edge": not tame_on(expr, "x", params, lo, hi, rhs)}

    @staticmethod
    def _tower(rng: random.Random):
        """A random add/mul/pow tower: x at two or more leaves, each parameter once."""
        leaves = rng.randint(3, 5)
        tree = random_tree(rng, leaves, ("add", "mul", "pow"))
        x_count = rng.randint(2, leaves - 1)
        x_at = set(rng.sample(range(leaves), x_count))
        names = iter("abdg")
        values = []
        params = {}
        for pos in range(leaves):
            if pos in x_at:
                values.append("x")
            else:
                name = next(names)
                params[name] = round(rng.uniform(0.5, 2.0), 4)
                values.append(name)
        return fill_leaves(tree, values), params, rng.uniform(0.6, 2.4), (0.5, 2.5)

    @staticmethod
    def _log_outside(rng: random.Random):
        a = round(rng.uniform(1.5, 4.0), 3)
        c = round(rng.uniform(0.2, 1.2), 3)
        lo = round(rng.uniform(-2.0, -0.1), 2)
        hi = round(a ** c + rng.uniform(0.5, 3.0), 2)
        interval = f"{lo!r}:{hi!r}"
        # typed as a user would: half as two words, half with "="
        domain = ["--domain", interval] if rng.random() < 0.5 else [f"--domain={interval}"]
        argv = ["solve", "log(x,a) = c", "--param", f"a={a!r}", "--param", f"c={c!r}", *domain]
        return {"argv": argv, "expr": ("log", "x", "a"), "params": {"a": a}, "rhs": c,
                "domain": (lo, hi), "edge": True}

    def op(self, inp, tr):
        return call_cli(inp["argv"], tr)

    def check(self, inp, out, full):
        out = parse_output(out)
        if out.get("status") != "ok":
            return "oracle:status"
        roots = out.get("roots")
        lo, hi = inp["domain"]
        rhs = inp["rhs"]
        env = dict(inp["params"])
        for r in roots:
            env["x"] = r
            if not (lo <= r <= hi and abs(plain_eval(inp["expr"], env) - rhs)
                    <= 1e-9 + 1e-12 * abs(rhs)):
                return "oracle:residual"
        if full:
            want = scan_roots(inp["expr"], "x", inp["params"], rhs, lo, hi)
            if len(want) != len(roots) or any(
                    abs(g - w) > root_error_allowed(inp["expr"], "x", inp["params"], w)
                    for g, w in zip(roots, want)):
                return "oracle:root-set"
        return None

    def stepwise(self, inp, out, tr):
        lo, hi = inp["domain"]
        with tr.span("frontend.parse"):
            lhs_ast, _ = parse_equation(inp["argv"][1])
        with tr.span("frontend.compile"):
            form = to_structural(lhs_ast)
        tr.count("structure_ops.nodes", node_count(form.expr))
        params = dict(inp["params"])
        eq = Equation(form.expr, form.binding, inp["rhs"], params, BoxDomain(((lo, hi),)))
        with tr.span("solver.solve"):
            report = solve(eq)
        with tr.span("cli.emit"):
            json.dumps(report.to_json_dict())

        tol = report.tolerance
        with tr.span("solver.collapse"):
            collapsed, binding, _ = collapse_unknowns(eq)
        with tr.span("solver.bind"):
            bound = bind_params(collapsed, binding, eq.params)
        with tr.span("inverse.split"):
            pieces = piecewise_split(bound, 1, eq.domain, SOLVE_DEFAULTS["split_grid"], tol=tol)
        found: list[float] = []
        for branch in pieces.branches:
            with tr.span("inverse.scan"):
                found += invert_at(bound, 1, eq.rhs, [], eq.domain.with_axis(1, branch.interval),
                                   tol=tol, grid=SOLVE_DEFAULTS["grid"])
        found.sort()
        roots: list[float] = []
        for t in found:
            if not roots or t - roots[-1] > 10 * tol:
                roots.append(t)
        for r in roots:
            with tr.span("expr_core.eval"):
                evaluate(bound, (r,))
        tr.count("inverse.branches", len(pieces.branches))
        tr.count("inverse.roots", len(roots))
        if not (same_floats(roots, report.roots)
                and same_floats(roots, parse_output(out)["roots"])):
            return "stepwise:roots"
        return None

    def edge_probe(self) -> dict:
        """Send the edge requests met while drawing the timed ones, untimed:
        at least EDGE_MINIMUM, at most EDGE_CAP.

        Most of these fail at the seed commit: `--domain -1:5` is a usage
        error, `--domain=-1:5` a domain error from the branch split, an
        overflow inside the interval an evaluation error, and tiny or huge
        values give flat-section or root-set failures.  The timed loop sends
        only requests on which no op should fail, so these are sent here,
        checked against the same oracle and reported by cause.
        """
        while len(self.edge) < self.EDGE_MINIMUM:  # short runs draw further
            self.make_input(self.stream)
        causes: dict[str, int] = {}
        attempted = 0
        for inp in self.edge:
            attempted += 1
            try:
                out = self.op(inp, NullTracer())
                cause = self.check(inp, out, full=True)
            except OpFailure as exc:
                cause = exc.cause
            except Exception as exc:  # the probe reports every cause and keeps going
                cause = f"raised:{type(exc).__name__}"
            if cause is not None:
                causes[cause] = causes.get(cause, 0) + 1
        failed = sum(causes.values())
        return {"attempted": attempted, "failed": failed,
                "failed_ratio": failed / attempted if attempted else 0.0, "causes": causes}


class FormulaReplay(Workload):
    """One solve, then many evaluations of its Inverse-node formula."""

    name = "formula-replay"
    # The headline equation (x+a)^(x*b) = c.  Its structure is fixed so that
    # the cost of one evaluation does not depend on the seed; the seed draws
    # the solved instance and every replay point.
    EQUATION = ("pow", ("add", "x", "a"), ("mul", "x", "b"))
    PARAMS = ("a", "b")       # the formula's argument order after the right side
    DOMAIN = (0.5, 3.0)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        first = self.draw(self.rng("equation"), 0)
        form = to_structural(parse(render(self.EQUATION)))
        report = solve(Equation(form.expr, form.binding, first["rhs"], first["params"],
                                BoxDomain((self.DOMAIN,))))
        if report.param_names != self.PARAMS:
            raise RuntimeError(f"formula arguments are {report.param_names}, not {self.PARAMS}")
        self.formula = report.formula
        self.nodes = node_count(self.formula)

    def draw(self, rng, k):
        params = {name: round(rng.uniform(0.5, 2.0), 4) for name in self.PARAMS}
        x_star = rng.uniform(0.6, 2.8)
        rhs = plain_eval(self.EQUATION, dict(params, x=x_star))
        return {"args": (rhs, *(params[n] for n in self.PARAMS)), "params": params, "rhs": rhs}

    def op(self, inp, tr):
        with tr.span("expr_core.formula_eval"):
            return evaluate(self.formula, inp["args"])

    def check(self, inp, out, full):
        lo, hi = self.DOMAIN
        rhs = inp["rhs"]
        if not (lo <= out <= hi and abs(plain_eval(self.EQUATION, dict(inp["params"], x=out)) - rhs)
                <= 1e-9 + 1e-12 * abs(rhs)):
            return "oracle:residual"
        if full:
            want = scan_roots(self.EQUATION, "x", inp["params"], rhs, lo, hi)
            if not want or abs(out - want[0]) > root_error_allowed(self.EQUATION, "x",
                                                                   inp["params"], want[0]):
                return "oracle:smallest-root"
        return None

    def stepwise(self, inp, out, tr):
        tr.count("structure_ops.nodes", self.nodes)
        f = self.formula
        args = inp["args"]
        fixed = [v for k, v in enumerate(args, start=1) if k != f.slot]
        box = BoxDomain(tuple(f.axis if k == f.slot else (v, v)
                              for k, v in enumerate(args, start=1)))
        with tr.span("inverse.invert"):
            roots = invert_at(f.inner, f.slot, args[f.slot - 1], fixed, box)
        tr.count("inverse.roots", len(roots))
        if not roots or not same_floats([roots[0]], [out]):
            return "stepwise:formula"
        return None


class AlgebraOneshot(Workload):
    """Small distinct expressions through the whole algebra, one call each."""

    name = "algebra-oneshot"
    SYMBOLS = ("u", "v", "w", "s")
    BOX = (0.5, 2.0)
    PROBE_GRID = {1: 33, 2: 9, 3: 5}   # points per axis by probed arity
    EQUIV_SAMPLES = 16

    def draw(self, rng, k):
        pool = self.SYMBOLS[: rng.randint(2, 4)]
        while True:
            leaves = rng.randint(2, 4)
            values = [rng.choice(pool) if rng.random() < 0.85
                      else round(rng.uniform(1.05, 1.2), 3) for _ in range(leaves)]
            if sum(isinstance(v, str) for v in values) >= 2:
                break
        expr = fill_leaves(random_tree(rng, leaves, ("add", "mul", "pow", "div")), values)
        env = {name: rng.uniform(*self.BOX) for name in pool}
        n = len(oracle.symbols(expr))
        i = rng.randint(1, n)
        j = rng.choice([s for s in range(1, n + 1) if s != i])
        return {"text": render(expr), "expr": expr, "env": env, "i": i, "j": j, "n": n}

    def op(self, inp, tr):
        with tr.span("frontend.parse"):
            ast = parse(inp["text"])
        with tr.span("frontend.compile"):
            form = to_structural(ast)
        f = form.expr
        point = [inp["env"][form.binding[s]] for s in range(1, f.arity + 1)]
        with tr.span("expr_core.eval"):
            value = evaluate(f, point)
        with tr.span("frontend.format"):
            text = format_expr(f)
        with tr.span("frontend.read"):
            back = parse_structural(text)
        with tr.span("expr_core.eval"):
            back_value = evaluate(back, point)

        n, i, j = f.arity, inp["i"], inp["j"]
        with tr.span("structure_ops.project"):
            left = diagonal(f, i, j)
        with tr.span("structure_ops.project"):
            routed = compose_at(f, i, lift(Prim(Primitive.IDENTITY), n, (j,)))
        with tr.span("structure_ops.project"):
            right, _ = normalize(routed)
        box = BoxDomain((self.BOX,) * (n - 1))
        with tr.span("expr_core.equiv"):
            law = equivalent_on(left, right, box, samples=self.EQUIV_SAMPLES, tol=1e-12,
                                seed=self.seed)
        slot = j - 1 if j > i else j
        with tr.span("inverse.probe"):
            verdict = check_invertible(left, slot, box, self.PROBE_GRID[n - 1])
        return {"expr": f, "value": value, "back_value": back_value, "law": law,
                "invertible": verdict.invertible, "witness": verdict.witness}

    def stepwise(self, inp, out, tr):
        tr.count("structure_ops.nodes", node_count(out["expr"]))
        return None

    def _projected(self, inp, y):
        """The projected expression at y, through the plain evaluator."""
        i, j = inp["i"], inp["j"]
        jj = j - 1 if j > i else j
        x = [y[jj - 1] if s == i else y[(s - 1 if s > i else s) - 1]
             for s in range(1, inp["n"] + 1)]
        return plain_eval(inp["expr"], x)

    def check(self, inp, out, full):
        if out["expr"].arity != inp["n"]:
            return "oracle:arity"
        want = plain_eval(inp["expr"], inp["env"])
        if not _close(out["value"], want):
            return "oracle:value"
        if not same_floats([out["back_value"]], [out["value"]]):
            return "oracle:round-trip"
        if out["law"] is not True:
            return "oracle:projection-law"
        return self._check_probe(inp, out)

    def _check_probe(self, inp, out):
        m = inp["n"] - 1
        grid = self.PROBE_GRID[m]
        lo, hi = self.BOX
        step = (hi - lo) / (grid - 1)
        axis = [lo + k * step for k in range(grid)]
        axis[-1] = hi
        i, j = inp["i"], inp["j"]
        slot = j - 1 if j > i else j
        w = out["witness"]
        if w is not None:
            y1 = list(w.fixed)
            y2 = list(w.fixed)
            y1.insert(slot - 1, w.t1)
            y2.insert(slot - 1, w.t2)
            v1, v2 = self._projected(inp, y1), self._projected(inp, y2)
            if out["invertible"] or w.t1 == w.t2 or not _close(v1, v2, rel=1e-8):
                return "oracle:witness"
            return None
        if not out["invertible"]:
            return "oracle:verdict"
        # invertible: every probed section must be monotone (ties at rounding
        # level count as either)
        others = [axis] * (m - 1)
        for fixed in itertools.product(*others):
            vals = []
            for t in axis:
                y = list(fixed)
                y.insert(slot - 1, t)
                vals.append(self._projected(inp, y))
            diffs = [b - a for a, b in zip(vals, vals[1:])]
            scale = max(abs(v) for v in vals)
            ups = any(d > 1e-12 * scale for d in diffs)
            downs = any(d < -1e-12 * scale for d in diffs)
            if ups and downs:
                return "oracle:verdict"
        return None


class KstFit(Workload):
    """`kst decompose` to a file, then CLI and held-out reconstruction from it."""

    name = "kst-fit"
    # One cycle: (target family, grid, iterations).  Fit time depends on the
    # target through the step-halving loop, so each slot keeps its family;
    # the seed draws the coefficients.  The families were picked for fit
    # times that vary little with the coefficient, and the odd cycle length
    # puts the median and the 90th percentile inside one slot each.
    CYCLE_SPEC = (
        (("add", ("pow", "x", "c1"), "y"), 33, 50),
        (("add", ("mul", "x", "c1"), ("mul", "y", "c1")), 33, 50),
        (("mul", ("mul", "x", "c1"), "y"), 33, 50),
        (("mul", "x", ("add", "y", "c1")), 33, 50),
        (("add", ("mul", "x", "y"), "c1"), 65, 100),
    )
    CYCLE = len(CYCLE_SPEC)
    REFERENCE = "numpy"
    CLI_POINTS = 2
    HELDOUT = 8          # held-out points per axis, at cell centres

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, f"kst-{seed}.json")
        self.step_path = os.path.join(workdir, f"kst-{seed}-stepwise.json")
        off = (np.arange(self.HELDOUT) + 0.5) / self.HELDOUT
        self.heldout = [(float(a), float(b)) for a in off for b in off]
        self.residuals: list[float] = []
        self.rmses: list[float] = []

    def draw(self, rng, k):
        family, grid, iters = self.CYCLE_SPEC[k % self.CYCLE]
        expr = fill_constants(family, {"c1": round(rng.uniform(0.5, 2.0), 3)})
        points = [(round(rng.random(), 6), round(rng.random(), 6))
                  for _ in range(self.CLI_POINTS)]
        return {"expr": expr, "text": render(expr), "grid": grid, "iters": iters,
                "points": points}

    def op(self, inp, tr):
        doc = call_cli(["kst", "decompose", inp["text"], "--grid", str(inp["grid"]),
                        "--iters", str(inp["iters"]), "-o", self.path], tr)
        cli_values = [call_cli(["kst", "reconstruct", self.path, "--at", f"{u!r},{v!r}"], tr)
                      for u, v in inp["points"]]
        with tr.span("kst.load"):
            rep = KstRep.load(self.path)
        heldout = []
        for pt in self.heldout:
            with tr.span("kst.reconstruct"):
                heldout.append(reconstruct(rep, pt))
        lib_values = [reconstruct(rep, pt) for pt in inp["points"]]
        return {"doc": doc, "cli_values": cli_values, "lib_values": lib_values,
                "heldout": heldout}

    def check(self, inp, out, full):
        doc = parse_output(out["doc"])
        cli_values = [parse_output(text)["value"] for text in out["cli_values"]]
        tail = doc["history_tail"]
        if any(b > a for a, b in zip(tail, tail[1:])) or doc["final_residual"] != tail[-1]:
            return "oracle:history"
        if not same_floats(cli_values, out["lib_values"]):
            return "oracle:cli-vs-library"
        want = [plain_eval(inp["expr"], {"x": a, "y": b}) for a, b in self.heldout]
        rmse = math.sqrt(sum((g - w) ** 2 for g, w in zip(out["heldout"], want)) / len(want))
        self.residuals.append(doc["final_residual"])
        self.rmses.append(rmse)
        # the fit must carry over to points it was not trained on: held-out
        # RMSE within the max-norm training residual
        if not rmse <= doc["final_residual"]:
            return "oracle:heldout-rmse"
        return None

    def stepwise(self, inp, out, tr):
        with tr.span("frontend.parse"):
            ast = parse(inp["text"])
        with tr.span("frontend.compile"):
            f = to_structural(ast).expr
        tr.count("structure_ops.nodes", node_count(f))
        grid = inp["grid"]
        axis = np.linspace(0.0, 1.0, grid)
        points = [(float(a), float(b)) for a in axis for b in axis]
        with tr.span("kst.sample"):
            [evaluate(f, pt) for pt in points]
        with tr.span("kst.inner_sums"):
            for q in range(5):  # the 2n+1 outer functions of a bivariate fit
                [inner_psi(q, 1, a) + inner_psi(q, 2, b) for a, b in points]
        with tr.span("kst.decompose"):
            rep = decompose(f, grid=grid, iters=inp["iters"])
        with tr.span("kst.save"):
            rep.save(self.step_path)
        tr.count("kst.doc_bytes", os.path.getsize(self.step_path))
        for text in out["cli_values"]:
            tr.count("kst.clamps", parse_output(text)["clamps"])
        if not same_floats([rep.residual], [parse_output(out["doc"])["final_residual"]]):
            return "stepwise:decompose"
        return None

    def summary(self):
        return {"kst.final_residual": max(self.residuals, default=None),
                "kst.heldout_rmse": max(self.rmses, default=None)}

    def warmup_input(self):
        return dict(super().warmup_input(), grid=9, iters=2)

    def close(self):
        for path in (self.path, self.step_path):
            if os.path.exists(path):
                os.remove(path)


WORKLOADS = {cls.name: cls for cls in (SolveDistinct, FormulaReplay, AlgebraOneshot, KstFit)}
