"""Textual equation DSL and the pointful-to-structural compiler.

Grammar (whitespace insignificant)::

    expr  := IDENT | NUMBER | PRIM "(" expr "," expr ")"
    PRIM  := "add" | "mul" | "div" | "pow" | "root" | "log"
    IDENT := letter (letter | digit | "_")*
    NUMBER: decimal literal, optional sign and exponent

Equations are ``expr "=" expr`` where the right side must be a NUMBER or an
IDENT supplied as a parameter.

Compilation assigns one slot per symbol *occurrence*, left to right, and
emits the double-branch pattern: the outer primitive is lifted to the full
arity at each branch's first slot, then every non-leaf branch is composed in
at its first slot.  The structural result never contains pointful variable
nodes; repeated symbols simply occupy several slots (the solver collapses
them by oblique projection).

The module also owns the canonical operator notation for expressions and a
reader for it, so formatted text round-trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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

PRIM_NAMES = {
    "add": Primitive.ADD,
    "mul": Primitive.MUL,
    "div": Primitive.DIV,
    "pow": Primitive.POW,
    "root": Primitive.ROOT,
    "log": Primitive.LOG,
}

_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str          # "ident" | "number" | "punct" | "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        if ch in "(),=":
            tokens.append(_Token("punct", ch, line, col))
            pos += 1
            col += 1
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(_Token("ident", m.group(), line, col))
            col += len(m.group())
            pos = m.end()
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(_Token("number", m.group(), line, col))
            col += len(m.group())
            pos = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.advance()
        if tok.text != text:
            got = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {text!r}, got {got}", tok.line, tok.col)
        return tok

    def expr(self) -> PointfulAst:
        tok = self.advance()
        if tok.kind == "number":
            return AstConst(float(tok.text))
        if tok.kind == "ident":
            if self.peek().text == "(":
                if tok.text not in PRIM_NAMES:
                    raise ParseError(f"unknown primitive name {tok.text!r}", tok.line, tok.col)
                self.expect("(")
                left = self.expr()
                sep = self.advance()
                if sep.text == ")":
                    raise ParseError(
                        f"primitive {tok.text!r} takes two arguments", sep.line, sep.col)
                if sep.text != ",":
                    raise ParseError(f"expected ',', got {sep.text!r}", sep.line, sep.col)
                right = self.expr()
                self.expect(")")
                return AstCall(PRIM_NAMES[tok.text], left, right)
            return AstSymbol(tok.text)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.col)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse(text: str) -> PointfulAst:
    """Parse DSL text into a pointful AST; raises ParseError with location."""
    parser = _Parser(_tokenize(text))
    ast = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.line, tail.col)
    return ast


def parse_equation(text: str) -> tuple[PointfulAst, PointfulAst]:
    """Parse ``lhs = rhs``; the right side must be a NUMBER or an IDENT."""
    parser = _Parser(_tokenize(text))
    lhs = parser.expr()
    parser.expect("=")
    rhs_tok = parser.peek()
    rhs = parser.expr()
    if not isinstance(rhs, (AstConst, AstSymbol)):
        raise ParseError("right side of an equation must be a number or a name",
                         rhs_tok.line, rhs_tok.col)
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.line, tail.col)
    return lhs, rhs


@dataclass
class StructuralForm:
    """Point-free compilation result.

    `expr` has one slot per symbol occurrence (constants are pinned and
    compacted away); `binding` maps slots to symbol names, repeats allowed;
    `slot_order` lists the names in slot order; `trace` records the emitted
    operators in reading order.
    """

    expr: Expr
    binding: dict[int, str]
    slot_order: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)


def _leaf_count(node: PointfulAst) -> int:
    if isinstance(node, AstCall):
        return _leaf_count(node.left) + _leaf_count(node.right)
    return 1


def to_structural(ast: PointfulAst) -> StructuralForm:
    """Compile a pointful AST to the structural (point-free) form."""
    if isinstance(ast, AstSymbol):
        return StructuralForm(Prim(Primitive.IDENTITY), {1: ast.name}, [ast.name], [])
    if isinstance(ast, AstConst):
        return StructuralForm(Const(ast.value), {}, [], [])

    n = _leaf_count(ast)
    binding: dict[int, str] = {}
    order: list[str] = []

    def compile_node(node, start):
        """Returns (kind, expr-or-value, representative slot, next free slot, trace)."""
        if isinstance(node, AstSymbol):
            binding[start] = node.name
            order.append(node.name)
            return "sym", None, start, start + 1, []
        if isinstance(node, AstConst):
            return "const", node.value, start, start + 1, []
        lkind, lval, lrep, mid, ltrace = compile_node(node.left, start)
        rkind, rval, rrep, end, rtrace = compile_node(node.right, mid)
        expr = Lift(Prim(node.prim), n, (lrep, rrep))
        trace = [f"A{n}_{{{lrep},{rrep}}}({node.prim.value})"]
        for kind, val, rep, sub in ((lkind, lval, lrep, ltrace),
                                    (rkind, rval, rrep, rtrace)):
            if kind == "call":
                expr = Compose(expr, rep, val)
                trace.append(f"C{n}_{{{rep}}}")
                trace.extend(sub)
            elif kind == "const":
                expr = Compose(expr, rep, Const(val))
                trace.append(f"C{n}_{{{rep}}}")
        return "call", expr, lrep, end, trace

    _, expr, _, end, trace = compile_node(ast, 1)
    assert end == n + 1
    if len(binding) != n:  # constants occupied slots; compact them away
        expr, mapping = normalize(expr)
        binding = {mapping[s]: name for s, name in binding.items()}
        trace.append("normalize")
    return StructuralForm(expr, binding, order, trace)


def ast_to_text(ast: PointfulAst) -> str:
    """Render a pointful AST back to DSL text (inverse of `parse`)."""
    if isinstance(ast, AstConst):
        return _format_number(ast.value)
    if isinstance(ast, AstSymbol):
        return ast.name
    return f"{ast.prim.value}({ast_to_text(ast.left)},{ast_to_text(ast.right)})"


def _format_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


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
        return f"I_{{{e.slot}}}({format_expr(e.inner)})"
    raise StructureError(f"unknown node type: {type(e).__name__}")


_OP_RE = re.compile(r"(?:([AC])(\d+)_\{(\d+(?:,\d+)*)\})|(?:I_\{(\d+)\})")


class _StructuralReader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _fail(self, message: str):
        raise ParseError(message, 1, self.pos + 1)

    def _eat(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self._fail(f"expected {ch!r}")
        self.pos += 1

    def expr(self) -> Expr:
        self._skip_ws()
        m = _OP_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            if m.group(4) is not None:
                self._eat("(")
                inner = self.expr()
                self._eat(")")
                return Inverse(inner, int(m.group(4)))
            kind, n = m.group(1), int(m.group(2))
            subs = [int(s) for s in m.group(3).split(",")]
            self._eat("(")
            first = self.expr()
            self._skip_ws()
            if kind == "A":
                self._eat(")")
                return Lift(first, n, tuple(subs))
            if len(subs) == 1:
                self._eat(",")
                second = self.expr()
                self._eat(")")
                node = Compose(first, subs[0], second)
            else:
                if len(subs) != 2:
                    self._fail("projection takes exactly two subscripts")
                self._eat(")")
                node = Diagonal(first, subs[0], subs[1])
            if node.arity != (n if isinstance(node, Compose) else n - 1):
                self._fail(f"stated arity {n} does not match operands")
            return node
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Const(float(m.group()))
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            self.pos = m.end()
            if name == "e":
                return Prim(Primitive.IDENTITY)
            if name in PRIM_NAMES:
                return Prim(PRIM_NAMES[name])
            self._fail(f"unknown name {name!r} in operator notation")
        self._fail("expected an expression")


def parse_structural(text: str) -> Expr:
    """Read the canonical operator notation back into an expression."""
    reader = _StructuralReader(text)
    e = reader.expr()
    reader._skip_ws()
    if reader.pos != len(text):
        reader._fail("unexpected trailing input")
    return e
