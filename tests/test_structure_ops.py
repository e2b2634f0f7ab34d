"""Lift, composition, substitution, projection and compaction laws."""

import itertools
import random
import re

import pytest

from mvfa.expr_core import (
    BoxDomain,
    Compose,
    Const,
    Diagonal,
    EvalError,
    Lift,
    Prim,
    StructureError,
    equivalent_on,
    evaluate,
)
from mvfa.frontend import to_structural
from mvfa.structure_ops import (
    compose_at,
    diagonal,
    lift,
    lift_count,
    normalize,
    substitute_const,
)

from util import ADD, E, MUL, POW, assert_matches_fn, poly_sum, random_ast, x_pow


# --- lift ---

def test_lift_selects_coordinates():
    e = lift(Prim(ADD), 4, [1, 2])
    assert evaluate(e, [10, 20, 3, 4]) == 30
    e = lift(Prim(ADD), 4, [3, 4])
    assert evaluate(e, [10, 20, 3, 4]) == 7
    e = lift(Prim(E), 5, [3])
    assert evaluate(e, [1, 2, 42, 4, 5]) == 42


def test_lift_projection_law():
    rng = random.Random(3)
    f = poly_sum(2, [(1, 2.0), (2, 3.0)])
    for _ in range(25):
        n = rng.randint(2, 6)
        positions = rng.sample(range(1, n + 1), 2)
        e = lift(f, n, positions)
        pt = [rng.uniform(0.5, 2.0) for _ in range(n)]
        proj = [pt[p - 1] for p in positions]
        assert evaluate(e, pt) == pytest.approx(evaluate(f, proj), abs=1e-12)


# --- lift_count ---

def brute_force_lift_count(m, n):
    return sum(1 for _ in itertools.permutations(range(1, n + 1), m))


@pytest.mark.parametrize("m,n,expected", [(2, 4, 12), (1, 1, 1), (3, 5, 60)])
def test_lift_count_examples(m, n, expected):
    assert brute_force_lift_count(m, n) == expected  # oracle agrees with frozen value
    assert lift_count(m, n) == expected


def test_lift_count_matches_enumeration_up_to_six():
    for n in range(1, 7):
        for m in range(1, n + 1):
            assert lift_count(m, n) == brute_force_lift_count(m, n)


@pytest.mark.parametrize("m, n", [(True, 2), (1, True), (1.0, 2)])
def test_lift_count_refuses_what_is_not_an_int(m, n):
    with pytest.raises(StructureError, match=re.escape(f"got m={m!r}, n={n!r}")):
        lift_count(m, n)


def test_lift_count_rejects_bad_input():
    with pytest.raises(StructureError):
        lift_count(3, 2)
    with pytest.raises(StructureError):
        lift_count(0, 2)


# --- compose_at ---

def test_compose_partial_functions():
    f = poly_sum(4, [(1, 2.0), (3, 3.0)])   # x1^2 + x3^3
    g = poly_sum(4, [(2, 2.0), (4, 4.0)])   # x2^2 + x4^4
    e = compose_at(f, 1, g)
    assert_matches_fn(
        e, lambda x1, x2, x3, x4: (x2 ** 2 + x4 ** 4) ** 2 + x3 ** 3,
        BoxDomain(((0.0, 2.0),) * 4))


def test_compose_constant_left_absorbs():
    g = poly_sum(3, [(1, 2.0), (3, 4.0)])
    e = compose_at(Const(5.5), 1, g)
    assert e.arity == 3 and e.used_slots == frozenset()
    assert_matches_fn(e, lambda *_: 5.5, BoxDomain(((0.0, 2.0),) * 3))


def test_compose_identity_doubles():
    e = compose_at(Prim(ADD), 2, lift(Prim(E), 2, [1]))
    assert_matches_fn(e, lambda x1, x2: 2 * x1, BoxDomain(((-3.0, 3.0),) * 2))


def _random_nary(rng, n):
    """A random expression lifted to exactly arity n (possibly partial)."""
    while True:
        form = to_structural(random_ast(rng, 2, ["u", "v", "w"][: n]))
        m = form.expr.arity
        if 1 <= m <= n:
            return lift(form.expr, n, rng.sample(range(1, n + 1), m)) if m < n else form.expr


def test_compose_replaces_slot_value_random():
    rng = random.Random(11)
    for trial in range(50):
        n = rng.randint(2, 4)
        f = _random_nary(rng, n)
        g = _random_nary(rng, n)
        i = rng.randint(1, n)
        comp = compose_at(f, i, g)
        pt = [rng.uniform(1.05, 1.6) for _ in range(n)]
        replaced = list(pt)
        replaced[i - 1] = evaluate(g, pt)
        if i in f.used_slots:
            assert evaluate(comp, pt) == pytest.approx(evaluate(f, replaced), abs=1e-12)
        else:
            assert evaluate(comp, pt) == pytest.approx(evaluate(f, pt), abs=1e-12)


def test_compose_unused_slot_ignores_g():
    rng = random.Random(5)
    f = poly_sum(3, [(2, 2.0)])  # uses only slot 2
    for _ in range(10):
        g = _random_nary(rng, 3)
        comp = compose_at(f, 1, g)
        assert equivalent_on(comp, f, BoxDomain(((1.05, 1.6),) * 3), 50, 1e-12)


def test_compose_requires_positions_for_smaller_g():
    with pytest.raises(StructureError):
        compose_at(lift(Prim(ADD), 3, [1, 2]), 1, Prim(E))
    e = compose_at(lift(Prim(ADD), 3, [1, 2]), 1, Prim(E), positions=[3])
    assert evaluate(e, [0, 5, 7]) == 12  # x3 + x2


@pytest.mark.parametrize("g, positions", [(Prim(ADD), [2, 1]), (Const(3.0), [2])],
                         ids=["same-arity", "nullary"])
def test_compose_refuses_positions_it_would_not_use(g, positions):
    # positions lift only a g of smaller nonzero arity; for any other g they
    # were dropped without a word
    with pytest.raises(StructureError, match="lift positions"):
        compose_at(Prim(ADD), 1, g, positions)


# --- substitute_const ---

def test_substitute_drops_live_variable():
    f = poly_sum(3, [(1, 1.0), (2, 2.0), (3, 3.0)])  # x1 + x2^2 + x3^3
    e = substitute_const(f, 2, 1.5)
    assert e.arity == 3 and e.used_slots == {1, 3}
    assert_matches_fn(e, lambda x1, x2, x3: x1 + 1.5 ** 2 + x3 ** 3,
                      BoxDomain(((0.0, 2.0),) * 3))
    norm, mapping = normalize(e)
    assert norm.arity == 2 and mapping == {1: 1, 3: 2}
    assert_matches_fn(norm, lambda x1, x3: x1 + 2.25 + x3 ** 3,
                      BoxDomain(((0.0, 2.0),) * 2))


def test_substitute_pow_exponent_one():
    e, _ = normalize(substitute_const(Prim(POW), 2, 1.0))
    assert equivalent_on(e, Prim(E), BoxDomain(((0.1, 3.0),)), 100, 1e-12)


def test_substitute_mul_zero():
    e, _ = normalize(substitute_const(Prim(MUL), 1, 0.0))
    assert_matches_fn(e, lambda x: 0.0, BoxDomain(((-5.0, 5.0),)))


# --- diagonal ---

def test_diagonal_pow_is_x_to_x():
    e = diagonal(Prim(POW), 1, 2)
    assert e.arity == 1
    assert_matches_fn(e, lambda x: x ** x, BoxDomain(((0.5, 3.0),)))


def test_diagonal_add_doubles():
    e = diagonal(Prim(ADD), 1, 2)
    assert_matches_fn(e, lambda x: 2 * x, BoxDomain(((-3.0, 3.0),)))


def test_diagonal_of_partial_lift():
    # x1*x3 with slot 1 replaced by slot 2, slot 1 deleted -> old slots
    # (2,3) renumber to (1,2): result is x1*x2.
    e = diagonal(lift(Prim(MUL), 3, [1, 3]), 1, 2)
    assert e.arity == 2
    assert_matches_fn(e, lambda p, q: p * q, BoxDomain(((-2.0, 2.0),) * 2))


def test_diagonal_factorization_law():
    rng = random.Random(23)
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
        assert left.arity == right.arity
        assert equivalent_on(left, right, BoxDomain(((1.05, 1.6),) * left.arity),
                             100, 1e-12, seed=checked)
        checked += 1


# --- normalize ---

def test_normalize_compacts_lift():
    e = Lift(Prim(ADD), 4, (1, 4))
    out, mapping = normalize(e)
    assert mapping == {1: 1, 4: 2}
    assert out.arity == 2 and out.used_slots == {1, 2}
    assert equivalent_on(out, Lift(Prim(ADD), 2, (1, 2)),
                         BoxDomain(((-1.0, 1.0),) * 2), 100, 1e-12)


def test_normalize_identity_on_compact():
    e = Lift(Prim(ADD), 2, (1, 2))
    out, mapping = normalize(e)
    assert out is e and mapping == {1: 1, 2: 2}


def test_normalize_pinned_slot():
    f = poly_sum(3, [(1, 1.0), (2, 2.0), (3, 3.0)])
    pinned = substitute_const(f, 2, 0.5)
    out, mapping = normalize(pinned)
    assert out.arity == 2
    rng = random.Random(2)
    for _ in range(50):
        x1, x3 = rng.uniform(0, 2), rng.uniform(0, 2)
        assert evaluate(out, [x1, x3]) == pytest.approx(
            evaluate(pinned, [x1, 123.0, x3]), abs=1e-12)


def test_normalize_fully_unused_collapses_to_const():
    e = substitute_const(substitute_const(Prim(ADD), 1, 2.0), 2, 3.0)
    out, mapping = normalize(e)
    assert out == Const(5.0) and mapping == {}


@pytest.mark.parametrize("a,b,value", [(1e300, 1e300, "inf")])
def test_normalize_refuses_a_non_finite_constant(a, b, value):
    # a constant node holds a finite value, the only kind its notation writes
    e = substitute_const(substitute_const(Prim(MUL), 1, a), 2, b)
    with pytest.raises(EvalError, match=f"not finite: {value}") as info:
        normalize(e)
    assert info.value.node is e and info.value.point == (0.0, 0.0)


def test_normalize_refuses_a_nan_constant():
    # (1e300 * 1e300) * 0 is NaN; a constant node can no longer hold inf,
    # so the NaN comes from a fold of finite constants
    overflow = substitute_const(substitute_const(Prim(MUL), 1, 1e300), 2, 1e300)
    e = Compose(substitute_const(Prim(MUL), 2, 0.0), 1, overflow)
    assert not e.used_slots
    with pytest.raises(EvalError, match="not finite: nan") as info:
        normalize(e)
    assert info.value.node is e and info.value.point == (0.0, 0.0)
