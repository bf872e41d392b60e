"""Expression trees for meromorphic functions of one complex variable.

A function is represented as an immutable tree of small dataclass nodes.
Trees compare and hash structurally, which lets downstream layers memoize
per-expression work (pole catalogs, characteristic values) safely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Node",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Func",
    "LacunarySeries",
    "CanonicalProduct",
    "MeroExpr",
    "FUNCTION_NAMES",
    "polynomial_coefficients",
    "to_string",
]

# identifiers accepted for Func nodes; lacunary/canprod/fatou are handled
# separately by the parser (parameterized series, product, and a sugar form)
FUNCTION_NAMES = ("exp", "sin", "cos", "tan")

# polynomial bookkeeping gives up beyond this degree; such subtrees are
# simply treated as non-polynomial and fall back to numeric handling
_MAX_POLY_DEGREE = 256


@dataclass(frozen=True)
class Node:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Const(Node):
    value: complex


@dataclass(frozen=True)
class Var(Node):
    """The independent variable z."""


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Div(Node):
    """Quotient node.

    Every quotient records, at construction time, whether its denominator
    is a polynomial in z (and if so its coefficients, low degree first).
    Near-pole detection keys off this field.
    """

    numerator: Node
    denominator: Node
    denominator_poly: tuple | None = field(init=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "denominator_poly", polynomial_coefficients(self.denominator)
        )


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class Func(Node):
    """Application of a named entire function: exp, sin, cos or tan."""

    name: str
    argument: Node


@dataclass(frozen=True)
class LacunarySeries(Node):
    """The entire series sum_{n>=0} ratio^(-n^2) z^n, ratio > 1.

    Evaluation truncates per point.  Term log-magnitudes are concave in n
    with a single peak at n* = log|z| / (2 log ratio), so each point stops
    at its own last term max(8, ceil(n* + sqrt(60 / log ratio) + 8)), where
    every dropped term lies more than 60 nats below the largest one (see
    merolab.expr.evaluate).
    """

    ratio: float

    def __post_init__(self):
        if not (self.ratio > 1.0):
            raise ValueError("lacunary ratio must be > 1")


@dataclass(frozen=True)
class CanonicalProduct(Node):
    """The entire product prod_{k>=1} (1 + z / k^power), integer power >= 2.

    Evaluation runs over the power-th roots w of -z (see
    merolab.expr.evaluate).  An even power pairs the roots +-w and takes
    one factor sin(pi w) / (pi w) per pair; an odd power takes one
    1/Gamma(1 - w) per root, through loggamma.
    """

    power: int

    def __post_init__(self):
        if self.power < 2:
            raise ValueError("canonical product power must be an integer >= 2")


def _poly_add(a, b, sign=1):
    n = max(len(a), len(b))
    out = [0j] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul(a, b):
    if len(a) + len(b) - 1 > _MAX_POLY_DEGREE:
        return None
    out = [0j] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def polynomial_coefficients(node: Node) -> tuple | None:
    """Coefficients (low degree first) if ``node`` is a polynomial in z.

    Returns None for non-polynomial subtrees, and also for polynomial
    shapes whose degree would exceed the internal cap.
    """
    if isinstance(node, Const):
        return (complex(node.value),)
    if isinstance(node, Var):
        return (0j, 1 + 0j)
    if isinstance(node, Neg):
        inner = polynomial_coefficients(node.operand)
        return None if inner is None else tuple(-c for c in inner)
    if isinstance(node, (Add, Sub)):
        a = polynomial_coefficients(node.left)
        b = polynomial_coefficients(node.right)
        if a is None or b is None:
            return None
        return _poly_add(a, b, sign=-1 if isinstance(node, Sub) else 1)
    if isinstance(node, Mul):
        a = polynomial_coefficients(node.left)
        b = polynomial_coefficients(node.right)
        if a is None or b is None:
            return None
        return _poly_mul(a, b)
    if isinstance(node, Div):
        num = polynomial_coefficients(node.numerator)
        den = polynomial_coefficients(node.denominator)
        if num is None or den is None or len(den) != 1 or den[0] == 0:
            return None
        return tuple(c / den[0] for c in num)
    if isinstance(node, Pow):
        if node.exponent < 0:
            return None
        base = polynomial_coefficients(node.base)
        if base is None:
            return None
        out = (1 + 0j,)
        for _ in range(node.exponent):
            out = _poly_mul(out, base)
            if out is None:
                return None
        return out
    return None


# printing: precedence levels used for minimal parenthesization
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_POW = 3
_LEVEL_ATOM = 4


def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_const(value: complex) -> str:
    if value.imag == 0.0:
        return _fmt_real(value.real)
    if value == 1j:
        return "i"
    if value.real == 0.0:
        return f"{_fmt_real(value.imag)}*i"
    sign = "+" if value.imag >= 0 else "-"
    return f"({_fmt_real(value.real)} {sign} {_fmt_real(abs(value.imag))}*i)"


def _render(node: Node, level: int) -> str:
    if isinstance(node, Const):
        text = _fmt_const(complex(node.value))
        mine = _LEVEL_ATOM if not text.startswith("-") else _LEVEL_MUL
    elif isinstance(node, Var):
        text, mine = "z", _LEVEL_ATOM
    elif isinstance(node, Add):
        text = f"{_render(node.left, _LEVEL_ADD)} + {_render(node.right, _LEVEL_MUL)}"
        mine = _LEVEL_ADD
    elif isinstance(node, Sub):
        text = f"{_render(node.left, _LEVEL_ADD)} - {_render(node.right, _LEVEL_MUL)}"
        mine = _LEVEL_ADD
    elif isinstance(node, Mul):
        text = f"{_render(node.left, _LEVEL_MUL)}*{_render(node.right, _LEVEL_POW)}"
        mine = _LEVEL_MUL
    elif isinstance(node, Div):
        text = (
            f"{_render(node.numerator, _LEVEL_MUL)}"
            f"/{_render(node.denominator, _LEVEL_POW)}"
        )
        mine = _LEVEL_MUL
    elif isinstance(node, Pow):
        text = f"{_render(node.base, _LEVEL_ATOM)}^{node.exponent}"
        mine = _LEVEL_POW
    elif isinstance(node, Neg):
        inner = _render(node.operand, _LEVEL_ATOM)
        text, mine = f"-{inner}", _LEVEL_MUL
    elif isinstance(node, Func):
        text = f"{node.name}({_render(node.argument, _LEVEL_ADD)})"
        mine = _LEVEL_ATOM
    elif isinstance(node, LacunarySeries):
        text, mine = f"lacunary({_fmt_real(node.ratio)})", _LEVEL_ATOM
    elif isinstance(node, CanonicalProduct):
        text, mine = f"canprod({node.power})", _LEVEL_ATOM
    else:
        raise TypeError(f"unknown node type {type(node)!r}")
    if mine < level:
        return f"({text})"
    return text


def to_string(node: Node) -> str:
    """Render a tree back to source text.

    Any tree produced by the parser re-parses to a structurally identical
    tree.  Programmatically built constants with negative real part or a
    general complex value render to an equal-valued but differently shaped
    source form; the parser never produces such nodes itself.
    """
    return _render(node, _LEVEL_ADD)


@dataclass(frozen=True)
class MeroExpr:
    """A parsed meromorphic function.  Thin immutable wrapper over the tree."""

    root: Node
    source: str = field(compare=False, default="")

    def __str__(self) -> str:
        return to_string(self.root)

    def __repr__(self) -> str:
        return f"MeroExpr({to_string(self.root)!r})"
