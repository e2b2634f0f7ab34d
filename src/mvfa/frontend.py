"""Textual equation DSL and the pointful-to-structural compiler.

Grammar (whitespace insignificant)::

    expr  := IDENT | NUMBER | PRIM "(" expr "," expr ")"
    PRIM  := "add" | "mul" | "div" | "pow" | "root" | "log"
    IDENT := letter (letter | digit | "_")*
    NUMBER: finite decimal literal, optional sign and exponent

Equations are ``expr "=" expr`` where the right side must be a NUMBER or an
IDENT supplied as a parameter.

Compilation assigns one slot per symbol *occurrence*, left to right, and
emits the double-branch pattern: the outer primitive is lifted to the full
arity at each branch's first slot, then every non-leaf branch is composed in
at its first slot.  The structural result never contains pointful variable
nodes; repeated symbols simply occupy several slots (the solver collapses
them by oblique projection).

The module also owns the canonical operator notation for expressions and a
reader for it, so every node's formatted text reads back as that node::

    node := NUMBER | PRIM | "e"
          | "A" n "_{" p1 "," ... "," pm "}(" node ")"       lift, m >= 0
          | "C" n "_{" k "}(" node "," node ")"               composition
          | "C" n "_{" i "," j "}(" node ")"                  projection
          | "I_{" k "}(" node "," NUMBER ":" NUMBER ")"       inverse on lo:hi

Both grammars are read by one parser over one token stream.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NoReturn

from .expr_core import (
    Compose,
    Const,
    Diagonal,
    Expr,
    Inverse,
    Lift,
    MvfaError,
    Prim,
    Primitive,
    StructureError,
)
from .structure_ops import normalize


class ParseError(MvfaError):
    """Syntax error with a 1-based source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class AstConst:
    value: float


@dataclass(frozen=True)
class AstSymbol:
    name: str


@dataclass(frozen=True)
class AstCall:
    prim: Primitive
    left: "AstConst | AstSymbol | AstCall"
    right: "AstConst | AstSymbol | AstCall"


PointfulAst = AstConst | AstSymbol | AstCall

# the binary primitives, by name; IDENTITY ("e") is no DSL call
PRIM_NAMES = {p.value: p for p in Primitive if p.arity == 2}

_NUMBER_RE = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_IDENT_RE = r"[A-Za-z_][A-Za-z0-9_]*"
# an operator symbol with its subscripts, matched whole: A4_{1,3}, C2_{1,2}, I_{1};
# a lift of a nullary function has no positions: A2_{}
_OP_RE = r"A\d+_\{(?:\d+(?:,\d+)*)?\}|C\d+_\{\d+(?:,\d+)*\}|I_\{\d+\}"
# A token is one match: exactly one of its four groups (operator symbol,
# name, number, single character) is non-empty.
_TOKEN_RE = re.compile(rf"({_OP_RE})|({_IDENT_RE})|({_NUMBER_RE})|(\S)")
_END = ("", "", "", "")


class _Parser:
    """Recursive descent over one token stream, for the DSL and the operator
    notation alike.  A token is (op, name, number, char), as `_TOKEN_RE`
    finds it; the stream ends with `_END`.  Token offsets are looked up only
    to raise an error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [_END]
        self.pos = 0

    def fail(self, message: str, index: int) -> NoReturn:
        """Raise a ParseError at the line and column of token `index`."""
        offsets = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        offset = offsets[index]
        line = self.text.count("\n", 0, offset) + 1
        raise ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def shown(self, index: int) -> str:
        token = self.tokens[index]
        return "end of input" if token == _END else repr("".join(token))

    def expect(self, char: str) -> None:
        if self.tokens[self.pos][3] != char:
            self.fail(f"expected {char!r}, got {self.shown(self.pos)}", self.pos)
        self.pos += 1

    def end(self, result):
        """`result`, read from the whole text: trailing input is an error."""
        if self.tokens[self.pos] != _END:
            self.fail(f"unexpected trailing input {self.shown(self.pos)}", self.pos)
        return result

    def number(self, what: str = "an expression") -> float:
        text = self.tokens[self.pos][2]
        if not text:
            self.fail(f"expected {what}, got {self.shown(self.pos)}", self.pos)
        value = float(text)
        if not math.isfinite(value):
            self.fail(f"number literal {text!r} is not finite", self.pos)
        self.pos += 1
        return value

    def pointful(self) -> PointfulAst:
        """expr := IDENT | NUMBER | PRIM "(" expr "," expr ")" """
        name = self.tokens[self.pos][1]
        if not name:
            return AstConst(self.number())
        self.pos += 1
        if self.tokens[self.pos][3] != "(":
            return AstSymbol(name)
        if name not in PRIM_NAMES:
            self.fail(f"unknown primitive name {name!r}", self.pos - 1)
        self.pos += 1
        left = self.pointful()
        if self.tokens[self.pos][3] == ")":
            self.fail(f"primitive {name!r} takes two arguments", self.pos)
        self.expect(",")
        right = self.pointful()
        self.expect(")")
        return AstCall(PRIM_NAMES[name], left, right)

    def structural(self) -> Expr:
        """The operator notation that `format_expr` writes."""
        op, name, _, _ = self.tokens[self.pos]
        if name:
            prim = Primitive.IDENTITY if name == "e" else PRIM_NAMES.get(name)
            if prim is None:
                self.fail(f"unknown name {name!r} in operator notation", self.pos)
            self.pos += 1
            return Prim(prim)
        if not op:
            return Const(self.number())
        at = self.pos
        self.pos += 1
        head, subs = op[:-1].split("_{")
        slots = [int(s) for s in subs.split(",")] if subs else []
        self.expect("(")
        first = self.structural()
        if head == "I":
            self.expect(",")
            lo = self.number("a number")
            self.expect(":")
            hi = self.number("a number")
            self.expect(")")
            return Inverse(first, slots[0], (lo, hi))
        n = int(head[1:])
        if head[0] == "A":
            self.expect(")")
            return Lift(first, n, tuple(slots))
        if len(slots) == 1:
            self.expect(",")
            node = Compose(first, slots[0], self.structural())
        elif len(slots) == 2:
            node = Diagonal(first, *slots)
        else:
            self.fail("projection takes exactly two subscripts", at)
        self.expect(")")
        if node.arity != (n if isinstance(node, Compose) else n - 1):
            self.fail(f"stated arity {n} does not match operands", at)
        return node


def parse(text: str) -> PointfulAst:
    """Parse DSL text into a pointful AST; raises ParseError with location."""
    parser = _Parser(text)
    return parser.end(parser.pointful())


def parse_equation(text: str) -> tuple[PointfulAst, PointfulAst]:
    """Parse ``lhs = rhs``; the right side must be a NUMBER or an IDENT."""
    parser = _Parser(text)
    lhs = parser.pointful()
    parser.expect("=")
    at = parser.pos
    rhs = parser.pointful()
    if not isinstance(rhs, (AstConst, AstSymbol)):
        parser.fail("right side of an equation must be a number or a name", at)
    return parser.end((lhs, rhs))


def parse_structural(text: str) -> Expr:
    """Read the canonical operator notation back into an expression."""
    parser = _Parser(text)
    return parser.end(parser.structural())


@dataclass
class StructuralForm:
    """Point-free compilation result.

    `expr` has one slot per symbol occurrence (constants are pinned and
    compacted away); `binding` maps slots to symbol names, repeats allowed;
    `trace` records the emitted operators in reading order.
    """

    expr: Expr
    binding: dict[int, str]
    trace: list[str] = field(default_factory=list)


def _leaf_count(node: PointfulAst) -> int:
    if isinstance(node, AstCall):
        return _leaf_count(node.left) + _leaf_count(node.right)
    return 1


def to_structural(ast: PointfulAst) -> StructuralForm:
    """Compile a pointful AST to the structural (point-free) form."""
    if isinstance(ast, AstSymbol):
        return StructuralForm(Prim(Primitive.IDENTITY), {1: ast.name})
    if isinstance(ast, AstConst):
        return StructuralForm(Const(ast.value), {})

    n = _leaf_count(ast)
    binding: dict[int, str] = {}

    def compile_node(node, start):
        """Returns (expr, or None for a symbol; representative slot; next free slot; trace)."""
        if isinstance(node, AstSymbol):
            binding[start] = node.name
            return None, start, start + 1, []
        if isinstance(node, AstConst):
            return Const(node.value), start, start + 1, []
        lexpr, lrep, mid, ltrace = compile_node(node.left, start)
        rexpr, rrep, end, rtrace = compile_node(node.right, mid)
        expr = Lift(Prim(node.prim), n, (lrep, rrep))
        trace = [f"A{n}_{{{lrep},{rrep}}}({node.prim.value})"]
        for sub, rep, subtrace in ((lexpr, lrep, ltrace),
                                   (rexpr, rrep, rtrace)):
            if sub is not None:
                expr = Compose(expr, rep, sub)
                trace.append(f"C{n}_{{{rep}}}")
                trace.extend(subtrace)
        return expr, lrep, end, trace

    expr, _, end, trace = compile_node(ast, 1)
    assert end == n + 1
    if len(binding) != n:  # constants occupied slots; compact them away
        expr, mapping = normalize(expr)
        binding = {mapping[s]: name for s, name in binding.items()}
        trace.append("normalize")
    return StructuralForm(expr, binding, trace)


def _format_number(v: float) -> str:
    """The shortest text that reads back as `v` bitwise: an integer below
    1e16 without its ".0", anything else, -0.0 included, by `repr`."""
    v = float(v)
    if v.is_integer() and abs(v) < 1e16 and (v or math.copysign(1.0, v) > 0):
        return str(int(v))
    return repr(v)


def format_expr(e: Expr) -> str:
    """Canonical operator notation; round-trips through `parse_structural`."""
    if isinstance(e, Const):
        return _format_number(e.value)
    if isinstance(e, Prim):
        return e.op.value
    if isinstance(e, Lift):
        subs = ",".join(str(p) for p in e.positions)
        return f"A{e.target_arity}_{{{subs}}}({format_expr(e.inner)})"
    if isinstance(e, Compose):
        return f"C{e.arity}_{{{e.slot}}}({format_expr(e.f)},{format_expr(e.g)})"
    if isinstance(e, Diagonal):
        return f"C{e.inner.arity}_{{{e.i},{e.j}}}({format_expr(e.inner)})"
    if isinstance(e, Inverse):
        lo, hi = e.axis
        return f"I_{{{e.slot}}}({format_expr(e.inner)},{_format_number(lo)}:{_format_number(hi)})"
    raise StructureError(f"unknown node type: {type(e).__name__}")
