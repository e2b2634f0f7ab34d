"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured-output section on failure) and enforces the stated tolerances and
runtime budgets.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from mvfa.expr_core import (
    BoxDomain,
    Const,
    Diagonal,
    Prim,
    Primitive,
    equivalent_on,
    evaluate,
)
from mvfa.frontend import parse, to_structural
from mvfa.inverse import check_invertible, invert_at, invert_primitive
from mvfa.kst import decompose, reconstruct
from mvfa.solver import Equation, solve
from mvfa.structure_ops import compose_at, diagonal, lift, lift_count, normalize

from util import (
    ADD,
    DIV,
    E,
    LOG,
    MUL,
    POW,
    ROOT,
    SAFE_LEAF_RANGE,
    ast_eval,
    assert_matches_fn,
    needs_numpy,
    poly_sum,
    random_ast,
    scan_roots,
    x_pow,
)


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num} ({label}): PASS  [{elapsed:.2f}s]")


def seeded_points(box, count, seed):
    rng = random.Random(seed)
    return [[rng.uniform(lo, hi) for lo, hi in box.axes] for _ in range(count)]


def test_criterion_1_note_laws():
    with criterion(1, "composition and substitution laws") as _:
        start = time.perf_counter()

        # partial-function composition identity (both operands lack slots)
        f = poly_sum(4, [(1, 2.0), (3, 3.0)])
        g = poly_sum(4, [(2, 2.0), (4, 4.0)])
        comp = compose_at(f, 1, g)
        for pt in seeded_points(BoxDomain(((0.0, 2.0),) * 4), 100, 101):
            want = (pt[1] ** 2 + pt[3] ** 4) ** 2 + pt[2] ** 3
            assert abs(evaluate(comp, pt) - want) <= 1e-12

        # constant left operand absorbs the composition
        g3 = poly_sum(3, [(1, 2.0), (3, 4.0)])
        a_const = compose_at(Const(2.75), 1, g3)
        for pt in seeded_points(BoxDomain(((0.0, 2.0),) * 3), 100, 102):
            assert abs(evaluate(a_const, pt) - 2.75) <= 1e-12

        # constant substitution drops one live variable
        h = poly_sum(3, [(1, 1.0), (2, 2.0), (3, 3.0)])
        from mvfa.structure_ops import substitute_const
        pinned = substitute_const(h, 2, 1.25)
        for pt in seeded_points(BoxDomain(((0.0, 2.0),) * 3), 100, 103):
            want = pt[0] + 1.25 ** 2 + pt[2] ** 3
            assert abs(evaluate(pinned, pt) - want) <= 1e-12

        assert time.perf_counter() - start < 1.0, "runtime budget exceeded"


def test_criterion_2_oblique_projection():
    with criterion(2, "oblique projection"):
        start = time.perf_counter()

        xx = diagonal(Prim(POW), 1, 2)
        assert_matches_fn(xx, lambda x: x ** x, BoxDomain(((0.5, 3.0),)),
                          samples=100, tol=1e-12, seed=201)

        rng = random.Random(202)
        checked = 0
        while checked < 50:
            syms = ["u", "v", "w", "s"][: rng.randint(2, 4)]
            form = to_structural(random_ast(rng, 3, syms))
            n = form.expr.arity
            if n < 2:
                continue
            i = rng.randint(1, n)
            j = rng.choice([k for k in range(1, n + 1) if k != i])
            left = diagonal(form.expr, i, j)
            right, _ = normalize(compose_at(form.expr, i, lift(Prim(E), n, [j])))
            box = BoxDomain((SAFE_LEAF_RANGE,) * left.arity)
            assert equivalent_on(left, right, box, 100, 1e-12, seed=checked)
            checked += 1

        assert time.perf_counter() - start < 5.0, "runtime budget exceeded"


def test_criterion_3_invertibility_verdicts():
    with criterion(3, "invertibility verdicts"):
        start = time.perf_counter()

        f = poly_sum(2, [(1, 3.0), (2, 2.0)])  # x1^3 + x2^2
        box = BoxDomain(((-1.0, 1.0), (-1.0, 1.0)))
        assert check_invertible(f, 1, box, grid=33).invertible

        verdict = check_invertible(f, 2, box, grid=33)
        assert not verdict.invertible
        w = verdict.witness
        assert w is not None and w.t1 != w.t2
        v1 = evaluate(f, [w.fixed[0], w.t1])
        v2 = evaluate(f, [w.fixed[0], w.t2])
        assert abs(v1 - v2) <= 1e-9  # witness reproduces

        assert time.perf_counter() - start < 1.0, "runtime budget exceeded"


def test_criterion_4_inverse_round_trip():
    with criterion(4, "inverse round trip"):
        rng = random.Random(404)
        prims = (ADD, MUL, DIV, POW, ROOT, LOG)
        for trial in range(100):
            p = prims[trial % 6]
            i = 1 + (trial // 6) % 2
            x1 = rng.uniform(1.5, 3.0)
            x2 = rng.uniform(1.2, 2.5)
            target = evaluate(Prim(p), [x1, x2])
            fixed = [x2] if i == 1 else [x1]
            axes = [(1.5, 3.0), (1.2, 2.5)]
            axes[1 - (i - 1)] = (fixed[0], fixed[0])
            roots = invert_at(Prim(p), i, target, fixed, BoxDomain(tuple(axes)),
                              tol=1e-9)
            assert roots, f"no root recovered for {p} slot {i}"
            for t in roots:
                args = [x1, x2]
                args[i - 1] = t
                assert abs(evaluate(Prim(p), args) - target) <= 1e-9

            # symbolic table inverse agrees with the numeric root
            sym = invert_primitive(p, i)
            sym_args = [x1, x2]
            sym_args[i - 1] = target
            sym_value = evaluate(sym, sym_args)
            assert min(abs(sym_value - t) for t in roots) <= 1e-8


def _two_branch_equation(rng):
    prim_names = {ADD: "add", MUL: "mul", POW: "pow"}
    p1, p2, p3 = (rng.choice((ADD, MUL, POW)) for _ in range(3))
    a = round(rng.uniform(0.5, 2.0), 4)
    b = round(rng.uniform(0.5, 2.0), 4)
    ops = {ADD: lambda u, v: u + v, MUL: lambda u, v: u * v,
           POW: lambda u, v: u ** v}

    def plain(x):
        return ops[p3](ops[p1](x, a), ops[p2](x, b))

    x_star = rng.uniform(0.6, 2.8)
    c = plain(x_star)
    text = (f"{prim_names[p3]}({prim_names[p1]}(x,a),"
            f"{prim_names[p2]}(x,b))")
    form = to_structural(parse(text))
    eq = Equation(form.expr, form.binding, c, {"a": a, "b": b},
                  BoxDomain(((0.5, 3.0),)))
    return eq, plain, c


def test_criterion_5_solver_oracle_equivalence():
    with criterion(5, "solver vs oracle"):
        start = time.perf_counter()

        # the two pinned instances
        form = to_structural(parse("pow(add(x,a),mul(x,b))"))
        eq = Equation(form.expr, form.binding, 9.0, {"a": 1.0, "b": 1.0},
                      BoxDomain(((0.5, 5.0),)))
        report = solve(eq)
        assert len(report.roots) == 1
        assert abs(report.roots[0] - 2.0) <= 1e-6

        form = to_structural(parse("pow(x,x)"))
        eq = Equation(form.expr, form.binding, 27.0, {}, BoxDomain(((1.0, 4.0),)))
        report = solve(eq)
        assert len(report.roots) == 1
        assert abs(report.roots[0] - 3.0) <= 1e-6

        rng = random.Random(505)
        for trial in range(25):
            eq, plain, c = _two_branch_equation(rng)
            report = solve(eq)
            oracle = scan_roots(lambda x: plain(x) - c, 0.5, 3.0,
                                points=100_000, tol=1e-9)
            assert len(report.roots) == len(oracle), \
                f"trial {trial}: {report.roots} vs {oracle}"
            for got, want in zip(report.roots, oracle):
                assert abs(got - want) <= 1e-6, f"trial {trial}"

        assert time.perf_counter() - start < 30.0, "runtime budget exceeded"


def test_criterion_6_structural_compilation():
    with criterion(6, "structural compilation"):
        form = to_structural(parse("pow(add(x,a),mul(x,b))"))
        assert form.trace == ["A4_{1,3}(pow)", "C4_{1}", "A4_{1,2}(add)",
                              "C4_{3}", "A4_{3,4}(mul)"]
        assert form.binding == {1: "x", 2: "a", 3: "x", 4: "b"}

        rng = random.Random(606)
        for _ in range(200):
            ast = random_ast(rng, 4, ["x", "y", "z", "w"], const_prob=0.2)
            compiled = to_structural(ast)
            env = {name: rng.uniform(*SAFE_LEAF_RANGE)
                   for name in ["x", "y", "z", "w"]}
            point = [env[compiled.binding[s]]
                     for s in range(1, compiled.expr.arity + 1)]
            assert abs(evaluate(compiled.expr, point) - ast_eval(ast, env)) <= 1e-12


def test_criterion_7_lift_count_enumeration():
    with criterion(7, "lift counting"):
        import itertools
        for n in range(1, 7):
            for m in range(1, n + 1):
                brute = sum(1 for _ in itertools.permutations(range(n), m))
                assert lift_count(m, n) == brute


@needs_numpy
def test_criterion_8_kst_properties():
    with criterion(8, "superposition properties"):
        start = time.perf_counter()

        add_xy = to_structural(parse("add(x,y)")).expr
        mul_xy = to_structural(parse("mul(x,y)")).expr

        rep_add = decompose(add_xy, grid=33, iters=50)
        rep_mul = decompose(mul_xy, grid=65, iters=100)

        assert len(rep_add.outer) == 5 and len(rep_mul.outer) == 5
        assert json.dumps(rep_add.inner) == json.dumps(rep_mul.inner)

        for hist in (rep_add.history, rep_mul.history):
            for a, b in zip(hist, hist[1:]):
                assert b <= a, "residual history increased"

        const_expr = to_structural(parse("add(mul(x,0),add(mul(y,0),4.25))")).expr
        rep_const = decompose(const_expr, grid=9, iters=1)
        assert rep_const.history[-1] <= 1e-9
        assert abs(reconstruct(rep_const, [0.31, 0.77]) - 4.25) <= 1e-9

        off = [(k + 0.5) / 64 for k in range(64)]
        errs = [reconstruct(rep_mul, [a, b]) - a * b for a in off for b in off]
        rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
        assert rmse <= 0.05, f"held-out RMSE {rmse}"

        assert time.perf_counter() - start < 120.0, "runtime budget exceeded"


def test_criterion_9_cli_contract():
    with criterion(9, "command-line contract"):
        cases = [
            (("solve", "pow(add(x,a),mul(x,b)) = c", "--param", "a=1",
              "--param", "b=1", "--param", "c=9", "--domain", "0.5:5"), [2.0]),
            (("solve", "pow(x,x) = c", "--param", "c=27", "--domain", "1:4"), [3.0]),
            (("solve", "add(x,a) = c", "--param", "a=2", "--param", "c=5",
              "--domain", "0:10"), [3.0]),
        ]
        for args, expected in cases:
            cmd = [sys.executable, "-m", "mvfa", *args]
            first = subprocess.run(cmd, capture_output=True, text=True)
            second = subprocess.run(cmd, capture_output=True, text=True)
            assert first.returncode == 0 and second.returncode == 0
            assert first.stdout == second.stdout, "rerun differed"
            out = json.loads(first.stdout)
            assert len(out["roots"]) == len(expected)
            for got, want in zip(out["roots"], expected):
                assert abs(got - want) <= 1e-6
