"""Recursive-descent parser for the expression grammar.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | 'i' | 'z' | ident '(' expr ')' | '(' expr ')' | '-' base

Numbers are unsigned decimals with an optional exponent part.  The allowed
identifiers are exp, sin, cos, tan, lacunary, canprod and fatou.  lacunary
and canprod take a constant parameter, not an argument in z; fatou(w) is
sugar for w + 1 + exp(-w) and is expanded at parse time.
"""

from __future__ import annotations

from .nodes import (
    Add,
    CanonicalProduct,
    Const,
    Div,
    Func,
    LacunarySeries,
    MeroExpr,
    Mul,
    Neg,
    Node,
    Pow,
    Sub,
    Var,
)

__all__ = ["parse", "as_expr", "ParseError"]

_IDENTIFIERS = {"exp", "sin", "cos", "tan", "lacunary", "canprod", "fatou"}

_DIGITS = "0123456789"


class ParseError(ValueError):
    """Syntax or semantic error in expression text, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.reason = message


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    # -- character helpers ------------------------------------------------

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    # -- grammar productions ----------------------------------------------

    def parse(self) -> Node:
        node = self.expr()
        if self._peek() != "":
            raise ParseError("unexpected trailing input", self.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                node = Add(node, self.term())
            elif ch == "-":
                self.pos += 1
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                node = Mul(node, self.factor())
            elif ch == "/":
                self.pos += 1
                node = Div(node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        if self._peek() == "^":
            self.pos += 1
            node = Pow(node, self._integer())
        return node

    def base(self) -> Node:
        ch = self._peek()
        if ch == "":
            raise ParseError("expected operand", self.pos)
        if ch == "-":
            self.pos += 1
            return Neg(self.base())
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self._expect(")")
            return node
        if ch in _DIGITS or ch == ".":
            return Const(complex(self._number()))
        if ch.isalpha():
            return self._ident()
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    # -- terminals --------------------------------------------------------

    def _number(self) -> float:
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos < len(text) and text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(text) and text[self.pos] in _DIGITS:
                self.pos += 1
        if self.pos == start or text[start : self.pos] == ".":
            raise ParseError("malformed number", start)
        if self.pos < len(text) and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos] in _DIGITS:
                while self.pos < len(text) and text[self.pos] in _DIGITS:
                    self.pos += 1
            else:
                # not an exponent after all (e.g. "2e" would be malformed;
                # but "2exp(z)" is not valid either since implicit
                # multiplication is not in the grammar)
                self.pos = mark
        try:
            return float(text[start : self.pos])
        except ValueError:
            raise ParseError("malformed number", start) from None

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        text = self.text
        if self.pos < len(text) and text[self.pos] == "-":
            self.pos += 1
        digits_from = self.pos
        while self.pos < len(text) and text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == digits_from:
            raise ParseError("expected integer exponent", start)
        if self.pos < len(text) and text[self.pos] in ".eE":
            raise ParseError("non-integer exponent", start)
        return int(text[start : self.pos])

    def _ident(self) -> Node:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start : self.pos]
        if name == "z":
            return Var()
        if name == "i":
            return Const(1j)
        if name not in _IDENTIFIERS:
            raise ParseError(f"unknown identifier '{name}'", start)
        self._expect("(")
        arg = self.expr()
        self._expect(")")
        if name in ("exp", "sin", "cos", "tan"):
            return Func(name, arg)
        if name == "fatou":
            return Add(Add(arg, Const(1 + 0j)), Func("exp", Neg(arg)))
        value = _constant_value(arg, start)
        if name == "lacunary":
            if value.imag != 0.0 or not value.real > 1.0:
                raise ParseError("lacunary ratio must be a real number > 1", start)
            return LacunarySeries(float(value.real))
        # canprod
        if value.imag != 0.0 or value.real != int(value.real) or value.real < 2:
            raise ParseError("canprod power must be an integer >= 2", start)
        return CanonicalProduct(int(value.real))


def _constant_value(node: Node, offset: int) -> complex:
    """Fold a constant subtree; parameters of builtins may not involve z."""
    if isinstance(node, Const):
        return complex(node.value)
    if isinstance(node, Neg):
        return -_constant_value(node.operand, offset)
    if isinstance(node, Add):
        return _constant_value(node.left, offset) + _constant_value(node.right, offset)
    if isinstance(node, Sub):
        return _constant_value(node.left, offset) - _constant_value(node.right, offset)
    if isinstance(node, Mul):
        return _constant_value(node.left, offset) * _constant_value(node.right, offset)
    if isinstance(node, Div):
        den = _constant_value(node.denominator, offset)
        if den == 0:
            raise ParseError("division by zero in constant parameter", offset)
        return _constant_value(node.numerator, offset) / den
    if isinstance(node, Pow):
        return _constant_value(node.base, offset) ** node.exponent
    raise ParseError("builtin parameter must be a constant expression", offset)


def parse(text: str) -> MeroExpr:
    """Parse expression text into a MeroExpr.

    Raises ParseError (with a byte offset) on syntax errors, unknown
    identifiers, non-integer exponents and invalid builtin parameters.
    """
    return MeroExpr(_Parser(text).parse(), source=text)


def as_expr(f) -> MeroExpr:
    """Coerce source text, an expression tree or a MeroExpr to a MeroExpr."""
    if isinstance(f, str):
        return parse(f)
    return f if isinstance(f, MeroExpr) else MeroExpr(f)
