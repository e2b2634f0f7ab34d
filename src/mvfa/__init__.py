"""Operator algebra over multivariate real functions.

Expression trees with arity lift, positional composition, oblique
projection and partial inverses; a solver that turns transcendental
equations into operator-formula solutions plus verified numeric roots; and
a desk-scale superposition decomposer.
"""

from .expr_core import (
    BoxDomain,
    Compose,
    ConfigError,
    Const,
    Diagonal,
    EvalDomainError,
    EvalError,
    Expr,
    Inverse,
    Lift,
    MvfaError,
    NoSolutionError,
    Prim,
    Primitive,
    StructureError,
    equivalent_on,
    evaluate,
)
from .frontend import (
    ParseError,
    StructuralForm,
    ast_to_text,
    format_expr,
    parse,
    parse_equation,
    parse_structural,
    to_structural,
)
from .inverse import (
    Branch,
    DegenerateInputError,
    InvertVerdict,
    PiecewiseInverse,
    UnsupportedInverseError,
    Witness,
    check_invertible,
    inverse_fn,
    invert_at,
    invert_primitive,
    piecewise_split,
)
from .kst import FormatError, KstRep, decompose, inner_psi, reconstruct, rescale
from .solver import Equation, SolveReport, bind_params, collapse_unknowns, solve, unknown_slots
from .structure_ops import compose_at, diagonal, lift, lift_count, normalize, substitute_const

__version__ = "0.1.0"

__all__ = [
    "BoxDomain", "Compose", "ConfigError", "Const", "Diagonal",
    "EvalDomainError", "EvalError", "Expr", "Inverse", "Lift", "MvfaError",
    "NoSolutionError", "Prim", "Primitive", "StructureError",
    "equivalent_on", "evaluate",
    "ParseError", "StructuralForm", "ast_to_text", "format_expr", "parse",
    "parse_equation", "parse_structural", "to_structural",
    "Branch", "DegenerateInputError", "InvertVerdict", "PiecewiseInverse",
    "UnsupportedInverseError", "Witness", "check_invertible", "inverse_fn",
    "invert_at", "invert_primitive", "piecewise_split",
    "FormatError", "KstRep", "decompose", "inner_psi",
    "reconstruct", "rescale",
    "Equation", "SolveReport", "bind_params", "collapse_unknowns", "solve",
    "unknown_slots",
    "compose_at", "diagonal", "lift", "lift_count", "normalize",
    "substitute_const",
]
