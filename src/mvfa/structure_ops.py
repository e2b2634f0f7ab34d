"""Structural operators over expression trees.

Arity lift, positional composition, constant substitution, oblique
projection and slot compaction.  All functions are pure and return new
immutable expressions.
"""

from __future__ import annotations

import math

from .expr_core import (
    Compose,
    Const,
    Diagonal,
    EvalError,
    Expr,
    Lift,
    StructureError,
    evaluate,
)


# Arity lift and oblique projection are their node constructors:
# lift(f, n, positions) and diagonal(f, i, j).
lift = Lift
diagonal = Diagonal


def lift_count(m: int, n: int) -> int:
    """Number of distinct lifts of an m-ary function to arity n."""
    if not (type(m) is int and type(n) is int and 1 <= m <= n):
        raise StructureError(f"lift_count needs 1 <= m <= n, got m={m!r}, n={n!r}")
    return math.perm(n, m)


def compose_at(f: Expr, i: int, g: Expr, positions=None) -> Compose:
    """Replace slot `i` of `f` by the value of `g`.

    Both operands must share an arity, with two escapes: a nullary operand
    embeds at any arity, and a smaller `g` is lifted to f's arity first when
    an explicit position list is supplied.  Positions are never guessed, and
    positions for any other `g` are a `StructureError`, not ignored.
    """
    nf, ng = f.arity, g.arity
    if 0 < ng < nf:
        if positions is None:
            raise StructureError(
                f"g has arity {ng} < {nf}; supply lift positions explicitly")
        g = Lift(g, nf, positions)
    elif positions is not None:
        raise StructureError(
            f"lift positions given, but g of arity {ng} is not lifted to arity {nf}")
    return Compose(f, i, g)


def substitute_const(f: Expr, i: int, value: float) -> Compose:
    """Pin slot `i` of `f` at a constant.

    The slot stays in the arity but becomes unused; `normalize` compacts it
    away, dropping the arity by one.
    """
    if not 1 <= i <= f.arity:
        raise StructureError(f"slot {i} out of range 1..{f.arity}")
    return Compose(f, i, Const(value))


def normalize(e: Expr) -> tuple[Expr, dict[int, int]]:
    """Renumber slots so that used_slots == 1..arity, order-preservingly.

    Returns the compacted expression together with the slot permutation
    mapping each originally used slot to its new index.  Unused slots are
    removed one at a time by projecting them onto an arbitrary surviving
    slot, which cannot change any value.  A fully-unused expression is
    constant and collapses to the constant it evaluates to; one whose value
    is inf or nan raises :class:`EvalError` naming it, because a constant
    node holds only a finite value that its notation can write.
    """
    used = sorted(e.used_slots)
    mapping = {s: k + 1 for k, s in enumerate(used)}
    if used == list(range(1, e.arity + 1)):
        return e, mapping
    if not used:
        point = (0.0,) * e.arity
        value = evaluate(e, point)
        if not math.isfinite(value):
            raise EvalError(f"constant expression is not finite: {value}", e, point)
        return Const(value), {}
    out = e
    while len(out.used_slots) < out.arity:
        unused = max(set(range(1, out.arity + 1)) - out.used_slots)
        out = Diagonal(out, unused, 1 if unused != 1 else 2)
    return out, mapping
