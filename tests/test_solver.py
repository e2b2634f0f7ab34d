"""Unknown collapse, parameter binding, end-to-end solving, trace replay."""

import math
import random

import pytest

from mvfa.expr_core import BoxDomain, ConfigError, Inverse, evaluate
from mvfa.frontend import format_expr, parse, to_structural
from mvfa.solver import (
    Equation,
    bind_params,
    collapse_unknowns,
    replay_trace,
    solve,
    unknown_slots,
)

from util import random_ast, scan_roots


def make_eq(text, rhs, params, domain):
    form = to_structural(parse(text))
    return Equation(form.expr, form.binding, rhs, params, BoxDomain((domain,)))


POW_EQ = make_eq("pow(add(x,a),mul(x,b))", 9.0, {"a": 1.0, "b": 1.0}, (0.5, 5.0))


# --- Equation validation ---

def test_equation_requires_single_unknown():
    form = to_structural(parse("add(x,y)"))
    with pytest.raises(ConfigError):
        Equation(form.expr, form.binding, 1.0, {}, BoxDomain(((0, 1),)))


def test_equation_rejects_repeated_parameter():
    form = to_structural(parse("add(mul(a,x),a)"))
    with pytest.raises(ConfigError):
        Equation(form.expr, form.binding, 1.0, {"a": 2.0}, BoxDomain(((0, 1),)))


def test_equation_requires_total_binding():
    form = to_structural(parse("add(x,a)"))
    with pytest.raises(ConfigError):
        Equation(form.expr, {1: "x"}, 1.0, {"a": 1.0}, BoxDomain(((0, 1),)))


# --- unknown_slots ---

def test_unknown_slots_repeated_unknown():
    assert unknown_slots(POW_EQ) == [1, 3]


def test_unknown_slots_single():
    eq = make_eq("add(a,pow(x,2))", 5.0, {"a": 1.0}, (0.0, 5.0))
    assert unknown_slots(eq) == [2]


def test_unknown_slots_all():
    eq = make_eq("pow(pow(x,x),pow(x,x))", 2.0, {}, (1.0, 2.0))
    assert unknown_slots(eq) == [1, 2, 3, 4]


# --- collapse_unknowns ---

def test_collapse_repeated_unknown():
    collapsed, binding, steps = collapse_unknowns(POW_EQ)
    assert [s.label for s in steps] == ["C4_{1,3}"]
    assert collapsed.arity == 3
    assert binding == {1: "a", 2: "x", 3: "b"}
    # equal unknown coordinates: collapsed(a, t, b) == original(t, a, t, b)
    rng = random.Random(7)
    for _ in range(100):
        t = rng.uniform(0.5, 3.0)
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        assert evaluate(collapsed, [a, t, b]) == pytest.approx(
            evaluate(POW_EQ.lhs, [t, a, t, b]), abs=1e-12)


def test_collapse_single_unknown_noop():
    eq = make_eq("add(a,pow(x,2))", 5.0, {"a": 1.0}, (0.0, 5.0))
    collapsed, binding, steps = collapse_unknowns(eq)
    assert steps == [] and collapsed is eq.lhs and binding == eq.binding


def test_collapse_three_occurrences():
    eq = make_eq("mul(x,mul(x,x))", 8.0, {}, (0.0, 3.0))
    collapsed, binding, steps = collapse_unknowns(eq)
    assert collapsed.arity == 1
    assert len(steps) == 2
    assert [s.label for s in steps] == ["C3_{1,2}", "C2_{1,2}"]
    rng = random.Random(9)
    for _ in range(100):
        t = rng.uniform(0.1, 2.0)
        assert evaluate(collapsed, [t]) == pytest.approx(
            evaluate(eq.lhs, [t, t, t]), abs=1e-12)


def test_collapse_soundness_random():
    rng = random.Random(77)
    trials = 0
    while trials < 100:
        ast = random_ast(rng, 3, ["x", "p", "q"])
        form = to_structural(ast)
        names = list(form.binding.values())
        if "x" not in names:
            continue
        if any(names.count(n) > 1 for n in set(names) - {"x"}):
            continue  # repeated parameters are rejected by design
        params = {n: rng.uniform(1.1, 1.5) for n in set(names) - {"x"}}
        eq = Equation(form.expr, form.binding, 1.0, params, BoxDomain(((1.0, 2.0),)))
        collapsed, binding, _ = collapse_unknowns(eq)
        t = rng.uniform(1.05, 1.6)
        point = [params[binding[s]] if binding[s] != "x" else t
                 for s in range(1, collapsed.arity + 1)]
        original_point = [params[form.binding[s]] if form.binding[s] != "x" else t
                          for s in range(1, form.expr.arity + 1)]
        assert evaluate(collapsed, point) == pytest.approx(
            evaluate(form.expr, original_point), abs=1e-12)
        trials += 1


# --- bind_params ---

def test_bind_params_two_parameters():
    collapsed, binding, _ = collapse_unknowns(POW_EQ)
    unary = bind_params(collapsed, binding, POW_EQ.params)
    assert unary.arity == 1
    assert evaluate(unary, [2.0]) == pytest.approx(9.0, abs=1e-12)  # (2+1)^2


def test_bind_params_zero_parameters():
    eq = make_eq("pow(x,x)", 27.0, {}, (1.0, 4.0))
    collapsed, binding, _ = collapse_unknowns(eq)
    unary = bind_params(collapsed, binding, {})
    assert unary.arity == 1
    assert evaluate(unary, [3.0]) == pytest.approx(27.0, abs=1e-12)


def test_bind_params_missing_value():
    collapsed, binding, _ = collapse_unknowns(POW_EQ)
    with pytest.raises(ConfigError):
        bind_params(collapsed, binding, {"a": 1.0})


def test_bind_params_unused_slot_is_noop():
    # slot 3 never occurs in the expression; pinning it must not change values
    from mvfa.expr_core import Lift, Prim, Primitive
    lhs = Lift(Prim(Primitive.ADD), 3, (1, 2))   # x1 + x2, slot 3 unused
    binding = {1: "x", 2: "a", 3: "b"}
    unary = bind_params(lhs, binding, {"a": 2.0, "b": 99.0})
    assert unary.arity == 1
    assert evaluate(unary, [5.0]) == pytest.approx(7.0, abs=1e-12)


# --- solve ---

def test_solve_two_branch_equation():
    report = solve(POW_EQ)
    assert report.status == "ok"
    assert len(report.roots) == 1
    assert report.roots[0] == pytest.approx(2.0, abs=1e-6)
    assert all(r <= report.tolerance for r in report.residuals)
    # oracle: dense scan + bisection on the plain function
    oracle = scan_roots(lambda x: (x + 1.0) ** x - 9.0, 0.5, 5.0)
    assert len(oracle) == 1 and abs(oracle[0] - report.roots[0]) < 1e-6


def test_solve_x_to_x():
    eq = make_eq("pow(x,x)", 27.0, {}, (1.0, 4.0))
    report = solve(eq)
    assert report.roots[0] == pytest.approx(3.0, abs=1e-6)
    oracle = scan_roots(lambda x: x ** x - 27.0, 1.0, 4.0)
    assert len(oracle) == len(report.roots) == 1


@pytest.mark.parametrize("text, rhs, domain, fn", [
    # roots in [0.9375, 1) and (3, 3.0625], the last probe cells before and
    # after the gap [1, 3] of the 65-point branch scan
    ("log(mul(add(x,-1),add(x,-3)),2)", -6.0, (0.0, 4.0),
     lambda x: math.log2((x - 1) * (x - 3)) + 6.0),
    # the root 0.3025 lies in (0.28125, 0.3125), whose left end is undefined
    ("root(add(x,-0.3),2)", 0.05, (-1.0, 1.0), lambda x: math.sqrt(x - 0.3) - 0.05),
], ids=["log-both-edges", "root-left-edge"])
def test_solve_finds_roots_next_to_a_gap(text, rhs, domain, fn):
    report = solve(make_eq(text, rhs, {}, domain))
    oracle = scan_roots(fn, *domain)
    assert len(oracle) == len(report.roots) >= 1
    assert all(abs(got - want) < 1e-6 for got, want in zip(report.roots, oracle))
    assert all(r <= report.tolerance for r in report.residuals)


def test_solve_linear():
    eq = make_eq("add(x,a)", 5.0, {"a": 2.0}, (0.0, 10.0))
    report = solve(eq)
    assert len(report.roots) == 1
    assert report.roots[0] == pytest.approx(3.0, abs=1e-6)
    assert format_expr(report.formula).startswith("I_{1}(")


def test_solve_formula_shape_and_args():
    report = solve(POW_EQ)
    assert isinstance(report.formula, Inverse)
    assert report.formula.arity == 1 + len(report.param_names)
    assert report.param_names == ("a", "b")
    # argument convention: the formula applied at (rhs, a, b) returns the
    # unknown
    got = evaluate(report.formula, [9.0, 1.0, 1.0])
    assert got == pytest.approx(2.0, abs=1e-6)
    assert "C4_{1,3}" in format_expr(report.formula)


def test_solve_trace_replays_to_formula():
    for eq in (POW_EQ,
               make_eq("pow(x,x)", 27.0, {}, (1.0, 4.0)),
               make_eq("add(x,a)", 5.0, {"a": 2.0}, (0.0, 10.0)),
               make_eq("add(a,pow(x,x))", 28.0, {"a": 1.0}, (1.0, 4.0))):
        report = solve(eq)
        assert replay_trace(eq.lhs, report.trace) == report.formula


def test_solve_unknown_not_first():
    # unknown occupies slots 2 and 3; the formula still takes (rhs, params)
    eq = make_eq("add(a,pow(x,x))", 28.0, {"a": 1.0}, (1.0, 4.0))
    report = solve(eq)
    assert report.roots[0] == pytest.approx(3.0, abs=1e-6)
    got = evaluate(report.formula, [28.0, 1.0])
    assert got == pytest.approx(3.0, abs=1e-6)


def test_solve_parameter_before_unknown():
    # a^x = c with the parameter in slot 1: the formula permutes the slots
    eq = make_eq("pow(a,x)", 8.0, {"a": 2.0}, (0.0, 10.0))
    report = solve(eq)
    assert len(report.roots) == 1
    assert report.roots[0] == pytest.approx(3.0, abs=1e-6)
    assert [s.label for s in report.trace] == ["A2_{2,1}", "I_{1}"]
    assert evaluate(report.formula, [8.0, 2.0]) == pytest.approx(3.0, abs=1e-6)
    assert replay_trace(eq.lhs, report.trace) == report.formula


def test_solve_four_unknown_occurrences():
    # (x^x)^(x^x) = 256: three projections collapse the four occurrences
    eq = make_eq("pow(pow(x,x),pow(x,x))", 256.0, {}, (1.0, 3.0))
    report = solve(eq)
    assert [s.label for s in report.trace] == [
        "C4_{1,2}", "C3_{1,2}", "C2_{1,2}", "I_{1}"]
    assert len(report.roots) == 1
    assert report.roots[0] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("text,params,rhs,domain,expected", [
    ("div(x,a)", {"a": 4.0}, 2.5, (0.0, 20.0), 10.0),
    ("root(x,a)", {"a": 2.0}, 3.0, (0.0, 20.0), 9.0),
    ("log(x,a)", {"a": 2.0}, 3.0, (1.0, 20.0), 8.0),
    ("log(a,x)", {"a": 64.0}, 3.0, (1.1, 20.0), 4.0),
])
def test_solve_other_primitives(text, params, rhs, domain, expected):
    report = solve(make_eq(text, rhs, params, domain))
    assert len(report.roots) == 1
    assert report.roots[0] == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("text,rhs,domain,expected", [
    # undefined below 2; a quarter point of the interval lies there
    ("root(add(x,-2),2)", 0.5, (0.0, 2.5), [2.25]),
    # log2((x-1)(x-3)): undefined on [1, 3], one root in each defined run
    ("log(mul(add(x,-1),add(x,-3)),2)", 0.5, (0.0, 4.0),
     [2.0 - math.sqrt(1.0 + math.sqrt(2.0)), 2.0 + math.sqrt(1.0 + math.sqrt(2.0))]),
    # the pole at 0 is a grid point of the branch split
    ("div(1,x)", 4.0, (-1.0, 1.0), [0.25]),
], ids=["root", "log", "div"])
def test_solve_skips_undefined_stretch(text, rhs, domain, expected):
    report = solve(make_eq(text, rhs, {}, domain))
    assert report.roots == pytest.approx(expected, abs=1e-8)
    assert all(resid <= report.tolerance for resid in report.residuals)


def test_solve_multivalued():
    eq = make_eq("pow(x,2)", 0.25, {}, (-1.0, 1.0))
    report = solve(eq)
    assert len(report.roots) == 2
    assert report.roots[0] == pytest.approx(-0.5, abs=1e-6)
    assert report.roots[1] == pytest.approx(0.5, abs=1e-6)


def test_solve_no_solution_status():
    eq = make_eq("pow(x,2)", 9.0, {}, (0.0, 1.0))
    report = solve(eq)
    assert report.status == "no-solution" and report.roots == ()


def test_solve_residual_bound_holds():
    rng = random.Random(13)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        c = rng.uniform(2.0, 30.0)
        eq = make_eq("pow(add(x,a),x)", c, {"a": a}, (0.5, 4.0))
        report = solve(eq)
        for root, resid in zip(report.roots, report.residuals):
            assert resid <= report.tolerance
            assert abs(evaluate(bind_params(*collapse_unknowns(eq)[:2],
                                            eq.params), [root]) - c) <= 1e-9


def test_report_json_dict():
    out = solve(POW_EQ).to_json_dict()
    assert out["status"] == "ok"
    assert out["roots"] == [pytest.approx(2.0, abs=1e-6)]
    assert out["trace"][0] == "C4_{1,3}"
    assert out["formula"].startswith("I_{1}(")
    assert out["params"] == {"a": 1.0, "b": 1.0}
