"""Evaluation of expression trees over collections of complex points.

Two evaluation paths are provided:

* a plain value path (``evaluate`` / ``evaluate_many``) returning complex
  values together with pole / overflow markers.  Magnitudes above 1e300
  become overflow markers; iteration pipelines treat them as escaped.
  The path allocates only what it computes: a constant stays a single
  value, z is never copied (only the root copies, so the result never
  aliases the input), and tan's pole test takes cos only at the points
  where |tan| > 1e11, since |sin|^2 + |cos|^2 >= 1 makes every point
  with |cos| < 1e-12 one of them.  tan itself comes from Kahan's
  real-arithmetic formula (one real tan and one sinh per point, see
  _tan), whose normwise relative error stays within 4 eps: 2.8 eps at
  most against 40-digit mpmath on tanz orbits, points 1e-8 from a pole,
  |Im z| up to 700, |Re z| up to 1e5 and |z| < 1e-6.  The overflow test
  takes each value's modulus once, and evaluate_many's pair carries it
  to the orbit loop, which need not take it again.

* a log-polar path (``log_modulus``) carrying each intermediate value as
  (log modulus, unit phase).  Sums rescale by the larger operand before
  combining, so quantities such as log|exp(z)| at radius 1e4 come out
  exact instead of saturating.  All circle averages and modulus extrema
  in the growth layer run on this path.  The log modulus itself is capped
  at +-1e300; the only way to reach the cap is to stack exponentials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .nodes import (
    Add,
    CanonicalProduct,
    Const,
    Div,
    Func,
    LacunarySeries,
    Mul,
    Neg,
    Node,
    Pow,
    Sub,
    Var,
)
from .parser import as_expr

__all__ = [
    "POLE",
    "OVERFLOW",
    "OK_FLAG",
    "POLE_FLAG",
    "OVERFLOW_FLAG",
    "HUGE",
    "LOG_HUGE",
    "evaluate",
    "evaluate_many",
    "log_polar",
    "log_modulus",
]

HUGE = 1e300
LOG_HUGE = math.log(HUGE)  # 690.7755278982137
_LOG_CAP = 1e300           # cap on the log modulus itself
_POLE_TOL = 1e-12          # proximity at which a point counts as "at a pole"
_TAN_SUSPECT = 1e11        # |tan| beyond this may lie within _POLE_TOL of a pole
_CANPROD_CHUNK = 8192      # points per canprod batch; bounds the (N, p) temporaries
_TWO_BY_SQRT_PI = 2.0 / math.sqrt(math.pi)
_LACUNARY_CELLS = 1 << 16  # (point, term) cells per lacunary batch

OK_FLAG, POLE_FLAG, OVERFLOW_FLAG = 0, 1, 2


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


POLE = _Marker("POLE")
OVERFLOW = _Marker("OVERFLOW")


# ---------------------------------------------------------------------------
# plain value path
# ---------------------------------------------------------------------------


def _horner(coeffs, z):
    """Polynomial value at z: a complex for a scalar z, an array for an array."""
    acc = 0j * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _poly_derivative(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0j,)


def _tan(w: np.ndarray) -> np.ndarray:
    """tan of a one-dimensional array by Kahan's real-arithmetic formula.

    With t = tan x, s = sinh y and b = 1 + t^2 (= 1 / cos^2 x),
    tan(x + iy) = (t + i b s sqrt(1 + s^2)) / (1 + b s^2) (Kahan, *Branch
    cuts for complex elementary functions*, 1987): two real transcendental
    calls and no cancellation.  For |y| >= 22, where 1 + s^2 rounds to s^2
    and s^2 overflows from |y| of about 355 on, tan is
    4 sin x cos x e^{-2|y|} + i sign y to within an ulp.  An
    infinite y gives 0 + i sign y whatever x is (C99 Annex G); any other
    non-finite input gives NaN.  The real arithmetic runs on contiguous
    copies of the parts: on the strided parts of a complex array numpy's
    real tan and sinh run 1.7 to 2.6 times slower, which costs far more
    than the copies.  The copies and the two scratch rows share one
    allocation, which the heap keeps from one orbit step to the next;
    four separate arrays are trimmed and faulted in again at every step
    (5,100 minor faults in a 128^2 tanz render against 570).
    """
    x, y, beta, ss = np.empty((4,) + w.shape)
    x[...] = w.real
    y[...] = w.imag
    np.abs(y, out=beta)
    far = np.flatnonzero(beta >= 22.0)
    t = np.tan(x, out=x)
    s = np.sinh(y, out=y)
    np.multiply(t, t, out=beta)
    beta += 1.0
    np.multiply(s, s, out=ss)
    s *= beta
    beta *= ss
    beta += 1.0  # the denominator 1 + b s^2
    ss += 1.0
    np.sqrt(ss, out=ss)  # cosh y
    s *= ss
    s /= beta
    t /= beta
    if far.size:
        xf, yf = w.real[far], w.imag[far]
        e = np.exp(-np.abs(yf))
        re = 4.0 * np.sin(xf) * np.cos(xf) * e * e
        re[np.isinf(yf)] = 0.0
        t[far] = re
        s[far] = np.copysign(1.0, yf)
    out = np.empty(w.shape, dtype=np.complex128)
    out.real = t
    out.imag = s
    return out


def _values(node: Node, z: np.ndarray) -> np.ndarray:
    # z is one-dimensional.  A constant stays a one-element array, which
    # broadcasts like a scalar but keeps constant subtrees on numpy's array
    # loops (numpy's scalar arithmetic rounds a complex product
    # differently), and z itself is never copied: only evaluate_many, at
    # the root, copies or broadcasts.
    if isinstance(node, Const):
        return np.full(1, complex(node.value), dtype=np.complex128)
    if isinstance(node, Var):
        return z
    if isinstance(node, Add):
        return _values(node.left, z) + _values(node.right, z)
    if isinstance(node, Sub):
        return _values(node.left, z) - _values(node.right, z)
    if isinstance(node, Mul):
        # the operator may reuse the right operand's temporary with the
        # operands swapped, which can move a complex product's last bit
        return np.multiply(_values(node.left, z), _values(node.right, z))
    if isinstance(node, Div):
        num = _values(node.numerator, z)
        den = _values(node.denominator, z)
        out = num / den
        bad = np.abs(den) < 1e-300
        if node.denominator_poly is not None and len(node.denominator_poly) > 1:
            dp = _horner(_poly_derivative(node.denominator_poly), z)
            dist = np.abs(den) / np.maximum(np.abs(dp), 1e-290)
            bad = bad | (dist < _POLE_TOL)
        if bad.any():
            out = np.where(bad, np.nan + 0j, out)
        return out
    if isinstance(node, Pow):
        base = _values(node.base, z)
        if node.exponent >= 0:
            return base**node.exponent
        inner = base ** (-node.exponent)
        out = 1.0 / inner
        out[np.abs(inner) < 1e-300] = np.nan
        return out
    if isinstance(node, Neg):
        return -_values(node.operand, z)
    if isinstance(node, Func):
        arg = _values(node.argument, z)
        if node.name == "exp":
            return np.exp(arg)
        if node.name == "sin":
            return np.sin(arg)
        if node.name == "cos":
            return np.cos(arg)
        # tan: a point closer than about 1e-12 to a pole of tan has |cos|
        # of the same size there; report the pole marker.  |sin|^2 + |cos|^2
        # >= 1 off the real axis too, so |cos| < 1e-12 forces |tan| > 1e11:
        # cos is needed only at the suspects, where |tan| is that large or NaN
        out = _tan(arg)
        suspects = np.flatnonzero(~(np.abs(out) <= _TAN_SUSPECT))
        if suspects.size:
            out[suspects[np.abs(np.cos(arg[suspects])) < _POLE_TOL]] = np.nan
        return out
    if isinstance(node, (LacunarySeries, CanonicalProduct)):
        logmod, phase = _lp(node, z)
        with np.errstate(over="ignore"):
            return np.where(logmod > LOG_HUGE, np.inf + 0j, np.exp(logmod) * phase)
    raise TypeError(f"unknown node type {type(node)!r}")


class _Evaluation(tuple):
    """evaluate_many's (values, flags) pair.  Its modulus attribute holds
    |values| as the overflow test took it, so an orbit step reads it
    instead of taking it again."""

    def __new__(cls, values, flags, modulus):
        out = super().__new__(cls, (values, flags))
        out.modulus = modulus
        return out


def evaluate_many(f, z: np.ndarray):
    """Evaluate f on an array of points.

    Returns (values, flags) of z's shape, where flags is 0 for a regular
    value, 1 for a pole marker and 2 for an overflow marker
    (|value| > 1e300).  The values are a new array, never a view of z.
    The pair also carries |values|, of z's shape, as its modulus
    attribute.
    """
    root = as_expr(f).root
    z = np.asarray(z, dtype=np.complex128)
    flat = z.reshape(-1)
    with np.errstate(all="ignore"):
        vals = _values(root, flat)
        if vals.shape != flat.shape or np.may_share_memory(vals, flat):
            # a constant function, or the identity
            vals = np.broadcast_to(vals, flat.shape).copy()
        mod = np.abs(vals)
    # NaN in either part marks a pole, and makes the modulus NaN or
    # infinite: only the points that fail the overflow test can be poles
    flags = np.zeros(flat.shape, dtype=np.uint8)
    bad = np.flatnonzero(~(mod <= HUGE))
    if bad.size:
        flags[bad] = np.where(np.isnan(vals[bad]), np.uint8(POLE_FLAG), np.uint8(OVERFLOW_FLAG))
    return _Evaluation(vals.reshape(z.shape), flags.reshape(z.shape), mod.reshape(z.shape))


def evaluate(f, z: complex):
    """Evaluate f at one point: a complex value, or POLE / OVERFLOW."""
    vals, flags = evaluate_many(f, np.array([z], dtype=np.complex128))
    if flags[0] == POLE_FLAG:
        return POLE
    if flags[0] == OVERFLOW_FLAG:
        return OVERFLOW
    return complex(vals[0])


# ---------------------------------------------------------------------------
# log-polar path
# ---------------------------------------------------------------------------


def _lp_from_values(w: np.ndarray):
    a = np.abs(w)
    with np.errstate(divide="ignore"):
        logmod = np.log(a)
    phase = np.where(a > 0, w / np.where(a > 0, a, 1.0), 1.0 + 0j)
    return logmod, phase


def _lp_scales(l1, l2):
    """Two log moduli over a common reference: (e1, e2, ref, big).

    l_k = ref + log e_k, with ref the larger of the two where it is
    finite; big is that larger value itself.
    """
    big = np.maximum(l1, l2)
    ok = np.isfinite(big)
    ref = np.where(ok, big, 0.0)
    with np.errstate(invalid="ignore"):
        e1 = np.exp(np.where(ok, l1 - ref, -np.inf))
        e2 = np.exp(np.where(ok, l2 - ref, -np.inf))
    return e1, e2, ref, big


def _lp_rescaled(w, ref, big):
    """Log-polar value of e^ref w, the sum of two operands rescaled by _lp_scales."""
    logmod, phase = _lp_from_values(w)
    logmod = np.where(np.isfinite(big), ref + logmod, big)
    # either operand at a pole (+inf) or lost (NaN) poisons the sum
    return np.where(np.isnan(big), np.inf, logmod), phase


def _lp_add(l1, p1, l2, p2, sign):
    e1, e2, ref, big = _lp_scales(l1, l2)
    return _lp_rescaled(e1 * p1 + sign * e2 * p2, ref, big)


def _lp_exp(l, p):
    """exp of a log-polar value.  Needs the actual argument w = e^l * p."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(np.minimum(l, 709.0))
        big = l > 709.0
        re = scale * np.real(p)
        im = scale * np.imag(p)
        re = np.where(big, np.sign(np.real(p)) * _LOG_CAP, re)
        im = np.where(big, np.sign(np.imag(p)) * _LOG_CAP, im)
    logmod = np.clip(re, -_LOG_CAP, _LOG_CAP)
    phase = np.exp(1j * np.clip(im, -_LOG_CAP, _LOG_CAP))
    bad = np.isnan(l) | np.isposinf(l)
    logmod = np.where(bad, np.nan, logmod)
    return logmod, phase


def _lp_scale(l, p, factor: complex):
    return l + math.log(abs(factor)), p * (factor / abs(factor))


def _lp_euler(l, p):
    """e^{iw} = e^ref u and e^{-iw} = e^ref v from one exp: (u, v, ref, big).

    e^{-iw} is the reciprocal of e^{iw}: log modulus negated, phase
    conjugated.  sin, cos and tan combine u and v as _lp_add would.
    """
    l1, p1 = _lp_exp(l, p * 1j)  # i w
    e1, e2, ref, big = _lp_scales(l1, -l1)
    return e1 * p1, e2 * np.conj(p1), ref, big


def _lp_sin(u, v, ref, big):
    # sin w = (e^{iw} - e^{-iw}) / 2i
    return _lp_scale(*_lp_rescaled(u - v, ref, big), 1 / 2j)


def _lp_cos(u, v, ref, big):
    return _lp_scale(*_lp_rescaled(u + v, ref, big), 0.5)


def _lp_canprod(node: CanonicalProduct, z: np.ndarray):
    """log of prod_{k>=1} (1 + z/k^p) over the p-th roots w of -z.

    Each factor splits over the roots: 1 + z/k^p = prod_w (1 - w/k).
    Even p pairs the roots +-w, and prod_k (1 - w^2/k^2) = sin(pi w)/(pi w)
    (DLMF 4.22.1), so half the roots and no gamma function are needed
    (_lp_canprod_even).  Odd p takes prod_w 1/Gamma(1 - w), the
    Weierstrass product of 1/Gamma (DLMF 5.8.2), whose convergence factors
    cancel because the roots sum to zero (_lp_canprod_odd).

    Both routes share the head: next to the zero -n^p, n = max(1, rint|w|),
    a rounded root misses n by up to an ulp of n, so the factor
    prod_w (n - w) = n^p + z is taken from z itself and divided out of a
    summand that is regular at w = n; both take the real root of a negative
    z exactly (_canprod_roots).  Large inputs run in chunks of 8192
    points, so the complex (N, p) temporaries stay small; a point's value
    does not depend on its batch, so chunking changes no bit.
    """
    flat = z.reshape(-1)
    if flat.size > _CANPROD_CHUNK:
        parts = [_lp_canprod(node, flat[i : i + _CANPROD_CHUNK]) for i in range(0, flat.size, _CANPROD_CHUNK)]
        return tuple(np.concatenate(a).reshape(z.shape) for a in zip(*parts))
    route = _lp_canprod_odd if node.power % 2 else _lp_canprod_even
    logmod, phase = route(node.power, flat)
    return logmod.reshape(z.shape), phase.reshape(z.shape)


def _canprod_roots(p: int, z: np.ndarray, count: int):
    """Roots w_0..w_{count-1} of w^p = -z, n = max(1, rint|w|), (n^p + z) / 2^p, axis rows.

    w_0 is the root nearest the positive real axis, so next to the zero
    -n^p it is the root near n.  The head n^p + z is halved p times: exact
    scaling, finite up to the largest double.  At z = -x < 0, where the
    real root x^(1/p) loses its fractional digits past 2^52, n and the
    head are exact (_canprod_axis); those rows come back as (indices,
    x^(1/p) - n, n mod 2), since float(n) loses n's parity past 2^53.
    """
    size = np.abs(z) ** (1.0 / p)
    w = (size * np.exp(np.angle(-z) * (1j / p)))[:, None] * _unit_roots(p, count)
    n = np.maximum(np.rint(size), 1.0)
    head = (0.5 * n) ** p + z * 0.5**p
    rows, delta, odd = [], np.zeros(z.size), np.zeros(z.size)
    if not z.imag.all():
        for i in ((z.imag == 0) & (z.real < 0)).nonzero()[0]:
            exact = _canprod_axis(p, -float(z.real[i]))
            if exact is not None:
                k, delta[i], head[i] = exact
                n[i], odd[i] = k, k % 2
                rows.append(i)
    return w, n, head, (rows, delta[rows], odd[rows])


@lru_cache(maxsize=None)
def _unit_roots(p: int, count: int) -> np.ndarray:
    """exp(2 pi i j / p) for j < count, one read-only array per (p, count)."""
    roots = np.exp(2j * math.pi * np.arange(count) / p)
    roots.flags.writeable = False
    return roots


def _lp_canprod_even(p: int, z: np.ndarray):
    """Even p = 2q: log f = log(n^p + z) + sum_w log[sin(pi w) / (pi w (n^2 - w^2))].

    w runs over one root of each pair +-w, and prod_w (n^2 - w^2) = n^p + z.
    sin(pi w) = (-1)^m sin(pi (w - m)) with m = rint(Re w): w - m is exact
    next to an integer, and np.sin keeps its relative accuracy next to its
    zero.  Where np.sin overflows (|Im pi (w - m)| > 710), sin goes
    through _lp_euler, whose subtraction has no cancellation there.
    The summand's limits at w = 0 and w = n are taken explicitly.  A
    negative real z takes w - n from its axis row (_canprod_roots).  A
    non-finite z comes out NaN, the pole marker, on its own.
    """
    w, n, head, (rows, delta, odd) = _canprod_roots(p, z, p // 2)
    m = np.rint(w.real)
    d = w - m
    if rows:
        d[rows, 0], m[rows, 0] = delta, odd  # m sets only the sign (-1)^m
    nn = n[:, None]
    wn = w / nn
    # w (n^2 - w^2) / n^2.  Complex products here take named operands:
    # numpy may reuse a large temporary in place with the operands swapped,
    # which moves the product's last bit, so a value would depend on the
    # size of its batch
    near, far = nn - w, 1.0 + wn
    if rows:
        near[rows, 0] = -d[rows, 0]  # n - w, exact
    den = wn * near * far
    sign = (-1.0) ** m
    s = np.sin(math.pi * d) * sign  # sin(pi w)
    t = s / den
    over = None
    if not np.isfinite(t).all():
        # the summand's limits at w = 0 (z = 0) and at w = n, which only an
        # exact zero reaches (its head, log 0 = -inf, decides the value)
        at = den == 0
        t[at] = np.where(w[at] == 0, math.pi, -0.5 * math.pi * sign[at])
        over = ~np.isfinite(t)  # np.sin overflowed
    abs_t = np.abs(t)
    lt = np.log(abs_t)
    pt = t / abs_t
    if over is not None and over.any():
        ls, ps = _lp_sin(*_lp_euler(*_lp_from_values(math.pi * d[over])))
        abs_den = np.abs(den[over])
        lt[over] = ls - np.log(abs_den)
        unit = np.conj(den[over]) / abs_den
        pt[over] = ps * sign[over] * unit
    abs_head = np.abs(head)
    phase = head / abs_head
    if not abs_head.all():
        phase[abs_head == 0] = 1.0  # a true zero: log 0 = -inf below
    # f = 2^p head / (pi^q n^p) * prod t, and 2^p / (pi^q n^p) = (2 / (sqrt(pi) n))^p
    logmod = np.log(abs_head) + p * np.log(_TWO_BY_SQRT_PI / n) + lt.sum(axis=-1)
    roots_phase = np.multiply.reduce(pt, axis=-1)
    return logmod, phase * roots_phase


def _canprod_axis(p: int, x: float):
    """Integer n, x^(1/p) - n and (n^p - x) / 2^p for the product at -x < 0.

    The real root is x^(1/p).  With n the integer nearest x^(1/p)
    and x - n^p exact in integers, delta = x^(1/p) - n comes out to full
    relative accuracy even where the root has no fractional digit left.
    None where the float route stays: x = inf, and x^(1/p) below 1/2,
    where the only integer near the root is 0 and sin(pi w) loses nothing.
    """
    if x == math.inf:
        return None
    n = _iroot(math.floor(x), p)
    if Fraction(x) * 2**p > (2 * n + 1) ** p:
        n += 1
    if n == 0:
        return None
    excess = Fraction(x) - n**p
    root, nf = x ** (1.0 / p), float(n)
    delta = float(excess) / sum(root**j * nf ** (p - 1 - j) for j in range(p))
    return n, delta, -float(excess) * 0.5**p


def _iroot(k: int, p: int) -> int:
    """floor(k^(1/p)) for an integer k >= 0, by Newton's method from above."""
    if k < 2:
        return k
    r = 1 << -(-k.bit_length() // p)
    while True:
        nxt = ((p - 1) * r + k // r ** (p - 1)) // p
        if nxt >= r:
            return r
        r = nxt


def loggamma(z):
    """scipy.special.loggamma, imported on first use: only the odd-p route
    needs it, and importing scipy takes longer than most CLI jobs run."""
    from scipy.special import loggamma as scipy_loggamma

    return scipy_loggamma(z)


def _lp_canprod_odd(p: int, z: np.ndarray):
    """Odd p: log f = log(n^p + z) - sum_w [loggamma(1 - w) + log(n - w)].

    The summand is regular at w = n, and z = -n^p gives log 0 = -inf.  On
    an axis row (_canprod_roots) the real root n + delta takes the
    reflected summand -loggamma(n + delta) - log[(-1)^(n+1) sinc delta]
    (DLMF 5.5.3), and the other roots are rebuilt from the same n + delta:
    their loggamma terms cancel only between roots of one modulus.  f is
    real there, so their imaginary parts, which cancel between conjugate
    roots but reach 1e99, are dropped and the phase stays +-1.
    """
    w, n, head, (rows, delta, odd) = _canprod_roots(p, z, p)
    if rows:
        root = n[rows] + delta
        w[rows] = root[:, None] * _unit_roots(p, p)
    terms = loggamma(1.0 - w) + np.log(n[:, None] - w)
    if rows:
        # log (-1)^(n+1) is i pi for even n
        terms[rows, 0] = -loggamma(root) - (np.log(np.sinc(delta)) + 1j * math.pi * (1 - odd))
        terms[rows, 1:] = terms[rows, 1:].real
    log_f = np.log(head) + math.log(2.0**p) - terms.sum(axis=-1)
    phase = np.exp(1j * log_f.imag)
    phase[head == 0] = 1.0  # a true zero: log 0 = -inf
    # a non-finite z gets the NaN pole marker
    return np.where(np.isfinite(z), log_f.real, np.nan), phase


def _lp_lacunary(node: LacunarySeries, z: np.ndarray):
    """log of sum_{n>=0} q^(-n^2) z^n, each point truncated at its own last term.

    Term n has log modulus n log|z| - n^2 log q, concave in n with its peak
    at n* = log|z| / (2 log q); n* + D sits D^2 log q below the peak.  A
    point sums n = 0..N with N = max(8, ceil(n* + sqrt(60 / log q) + 8)), so
    every dropped term is below e^-60 of the largest.  The reference is the
    largest term itself, at the integer nearest n* (at least 0), so no
    scaled term exceeds 1.  The scaled moduli of a batch form one
    (term, point) array, zero past each point's N, and Horner's rule in the
    unit phase of z runs down from the batch's largest N: the zeros above a
    point's own N leave its sum at exactly +0, so its value does not depend
    on its batch.  Points run in chunks of at most 2^16 array cells.
    """
    logq = math.log(node.ratio)
    lz, pz = _lp_from_values(z.reshape(-1))
    lz_finite = np.where(np.isfinite(lz), lz, 0.0)
    peak = lz_finite / (2.0 * logq)
    last = np.maximum(np.ceil(peak + (math.sqrt(60.0 / logq) + 8.0)), 8.0)
    k = np.maximum(np.rint(peak), 0.0)
    ref = k * (lz_finite - k * logq)
    acc = np.zeros(lz.shape, dtype=np.complex128)
    cols = max(1, _LACUNARY_CELLS // int(last.max(initial=0.0) + 1.0))
    for i in range(0, lz.size, cols):
        part = slice(i, i + cols)
        n = np.arange(last[part].max() + 1.0)[:, None]
        scaled = lz[part] - n * logq
        scaled *= n
        scaled -= ref[part]
        scaled[0] = -ref[part]  # 0 * log|0| would be NaN
        np.exp(scaled, out=scaled)
        scaled *= n <= last[part]
        total, unit = acc[part], pz[part]
        for row in scaled[::-1]:
            total = total * unit + row
        acc[part] = total
    logmod, phase = _lp_from_values(acc)
    return (ref + logmod).reshape(z.shape), phase.reshape(z.shape)


def _lp(node: Node, z: np.ndarray):
    if isinstance(node, Const):
        c = complex(node.value)
        a = abs(c)
        l = np.full(z.shape, math.log(a) if a > 0 else -np.inf)
        p = np.full(z.shape, c / a if a > 0 else 1.0 + 0j, dtype=np.complex128)
        return l, p
    if isinstance(node, Var):
        return _lp_from_values(z)
    if isinstance(node, Add):
        return _lp_add(*_lp(node.left, z), *_lp(node.right, z), 1)
    if isinstance(node, Sub):
        return _lp_add(*_lp(node.left, z), *_lp(node.right, z), -1)
    if isinstance(node, Mul):
        l1, p1 = _lp(node.left, z)
        l2, p2 = _lp(node.right, z)
        return l1 + l2, p1 * p2
    if isinstance(node, Div):
        l1, p1 = _lp(node.numerator, z)
        l2, p2 = _lp(node.denominator, z)
        return l1 - l2, p1 * np.conj(p2)
    if isinstance(node, Pow):
        l, p = _lp(node.base, z)
        return node.exponent * l, p**node.exponent
    if isinstance(node, Neg):
        l, p = _lp(node.operand, z)
        return l, -p
    if isinstance(node, Func):
        l, p = _lp(node.argument, z)
        if node.name == "exp":
            return _lp_exp(l, p)
        euler = _lp_euler(l, p)
        if node.name == "sin":
            return _lp_sin(*euler)
        if node.name == "cos":
            return _lp_cos(*euler)
        ls, ps = _lp_sin(*euler)
        lc, pc = _lp_cos(*euler)
        return ls - lc, ps * np.conj(pc)
    if isinstance(node, LacunarySeries):
        return _lp_lacunary(node, z)
    if isinstance(node, CanonicalProduct):
        return _lp_canprod(node, z)
    raise TypeError(f"unknown node type {type(node)!r}")


def log_polar(f, z: np.ndarray):
    """(log modulus, unit phase) arrays for f on an array of points.

    A +inf log modulus marks a pole, -inf an exact zero.  NaN marks a
    point where even the rescaled arithmetic lost the value; callers
    treat it like a pole marker.
    """
    root = as_expr(f).root
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        return _lp(root, z)


def log_modulus(f, z: np.ndarray) -> np.ndarray:
    """log|f| on an array of points, stable far beyond double overflow."""
    return log_polar(f, z)[0]
