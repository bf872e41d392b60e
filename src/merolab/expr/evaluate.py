"""Evaluation of expression trees over collections of complex points.

Two evaluation paths are provided:

* a plain value path (``evaluate`` / ``evaluate_many``) returning complex
  values together with pole / overflow markers.  Magnitudes above 1e300
  become overflow markers; iteration pipelines treat them as escaped.

* a log-polar path (``log_modulus``) carrying each intermediate value as
  (log modulus, unit phase).  Sums rescale by the larger operand before
  combining, so quantities such as log|exp(z)| at radius 1e4 come out
  exact instead of saturating.  All circle averages and modulus extrema
  in the growth layer run on this path.  The log modulus itself is capped
  at +-1e300; the only way to reach the cap is to stack exponentials.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import loggamma

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
_CANPROD_CHUNK = 8192      # points per canprod batch; bounds the (N, p) temporaries

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


def _values(node: Node, z: np.ndarray) -> np.ndarray:
    if isinstance(node, Const):
        return np.full(z.shape, complex(node.value), dtype=np.complex128)
    if isinstance(node, Var):
        return z.astype(np.complex128, copy=True)
    if isinstance(node, Add):
        return _values(node.left, z) + _values(node.right, z)
    if isinstance(node, Sub):
        return _values(node.left, z) - _values(node.right, z)
    if isinstance(node, Mul):
        return _values(node.left, z) * _values(node.right, z)
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
        return np.where(np.abs(inner) < 1e-300, np.nan + 0j, out)
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
        # tan: a point closer than about 1e-12 to a pole of tan has
        # |cos| of the same size there; report the pole marker
        c = np.cos(arg)
        out = np.tan(arg)
        return np.where(np.abs(c) < _POLE_TOL, np.nan + 0j, out)
    if isinstance(node, (LacunarySeries, CanonicalProduct)):
        logmod, phase = _lp(node, z)
        with np.errstate(over="ignore"):
            return np.where(logmod > LOG_HUGE, np.inf + 0j, np.exp(logmod) * phase)
    raise TypeError(f"unknown node type {type(node)!r}")


def evaluate_many(f, z: np.ndarray):
    """Evaluate f on an array of points.

    Returns (values, flags) where flags is 0 for a regular value, 1 for a
    pole marker and 2 for an overflow marker (|value| > 1e300).
    """
    root = as_expr(f).root
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        vals = _values(root, z)
    flags = np.zeros(z.shape, dtype=np.uint8)
    absval = np.abs(vals)
    flags[~np.isfinite(absval)] = OVERFLOW_FLAG
    flags[absval > HUGE] = OVERFLOW_FLAG
    nan_mask = np.isnan(vals.real) | np.isnan(vals.imag)
    flags[nan_mask] = POLE_FLAG
    return vals, flags


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


def _lp_add(l1, p1, l2, p2, sign):
    big = np.maximum(l1, l2)
    ok = np.isfinite(big)
    ref = np.where(ok, big, 0.0)
    with np.errstate(invalid="ignore"):
        w = np.exp(np.where(ok, l1 - ref, -np.inf)) * p1
        w = w + sign * np.exp(np.where(ok, l2 - ref, -np.inf)) * p2
    logmod, phase = _lp_from_values(w)
    logmod = np.where(ok, ref + logmod, big)
    # either operand at a pole poisons the sum
    pole = np.isposinf(l1) | np.isposinf(l2) | np.isnan(l1) | np.isnan(l2)
    logmod = np.where(pole, np.inf, logmod)
    return logmod, phase


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


def _lp_mul_i(l, p, s=1j):
    return l, p * s


def _lp_scale(l, p, factor: complex):
    return l + math.log(abs(factor)), p * (factor / abs(factor))


def _lp_sin(l, p):
    # sin w = (e^{iw} - e^{-iw}) / 2i, assembled from two stable exps
    l1, p1 = _lp_exp(*_lp_mul_i(l, p, 1j))
    l2, p2 = _lp_exp(*_lp_mul_i(l, p, -1j))
    ls, ps = _lp_add(l1, p1, l2, p2, -1)
    return _lp_scale(ls, ps, 1 / 2j)


def _lp_cos(l, p):
    l1, p1 = _lp_exp(*_lp_mul_i(l, p, 1j))
    l2, p2 = _lp_exp(*_lp_mul_i(l, p, -1j))
    ls, ps = _lp_add(l1, p1, l2, p2, 1)
    return _lp_scale(ls, ps, 0.5)


def _lp_canprod(node: CanonicalProduct, z: np.ndarray):
    """log of prod_{k>=1} (1 + z/k^p) through the gamma function.

    With w over the p-th roots of -z, prod(1 + z/k^p) = prod_w 1/Gamma(1 - w):
    the Weierstrass product of 1/Gamma (DLMF 5.8.2), whose convergence
    factors cancel because the roots sum to zero.  Next to the zero -n^p,
    n = max(1, rint|w|), a rounded root misses the pole of Gamma by up to
    an ulp of n, so the factor prod_w (n - w) = n^p + z is taken from z:

        log f = log(n^p + z) - sum_w [loggamma(1 - w) + log(n - w)],

    with a summand regular at w = n.  z = -n^p then gives log 0 = -inf.
    Large inputs run in chunks of 8192 points, so the complex (N, p)
    temporaries stay small; a point's value does not depend on its batch,
    so chunking changes no bit.
    """
    if z.size > _CANPROD_CHUNK:
        flat = z.reshape(-1)
        logmod = np.empty(flat.shape)
        phase = np.empty(flat.shape, dtype=np.complex128)
        for i in range(0, flat.size, _CANPROD_CHUNK):
            part = slice(i, i + _CANPROD_CHUNK)
            logmod[part], phase[part] = _lp_canprod(node, flat[part])
        return logmod.reshape(z.shape), phase.reshape(z.shape)
    p = node.power
    rho = np.abs(z) ** (1.0 / p) * np.exp(1j * np.angle(-z) / p)
    w = rho[..., None] * np.exp(2j * math.pi * np.arange(p) / p)
    n = np.maximum(np.rint(np.abs(rho)), 1.0)
    # n^p + z halved p times: exact scaling, finite up to the largest double
    head = np.log((0.5 * n) ** p + z * 0.5**p) + math.log(2.0**p)
    log_f = head - (loggamma(1.0 - w) + np.log(n[..., None] - w)).sum(axis=-1)
    # a non-finite log at a finite point is a zero: z = -n^p exactly, or a
    # root that rounded onto the pole of Gamma
    zero = ~(np.isfinite(log_f.real) & np.isfinite(log_f.imag))
    logmod = np.where(zero, -np.inf, log_f.real)
    phase = np.where(zero, 1.0 + 0j, np.exp(1j * log_f.imag))
    # non-finite input gets the NaN pole marker
    finite = np.isfinite(z.real) & np.isfinite(z.imag)
    return np.where(finite, logmod, np.nan), phase


def _lp_lacunary(node: LacunarySeries, z: np.ndarray):
    logq = math.log(node.ratio)
    lz, pz = _lp_from_values(z)
    # running rescaled sum: value = e^ref * acc
    ref = np.zeros(z.shape)
    acc = np.ones(z.shape, dtype=np.complex128)  # n = 0 term
    pzn = np.ones(z.shape, dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        peak = np.nanmax(np.where(np.isfinite(lz), lz, 0.0)) / (2.0 * logq)
        n_cap = int(max(8, math.ceil(peak + math.sqrt(60.0 / logq) + 8)))
        for n in range(1, n_cap + 1):
            pzn = pzn * pz
            ln = np.where(np.isneginf(lz), -np.inf, n * lz - n * n * logq)
            new_ref = np.maximum(ref, ln)
            shift = np.exp(ref - new_ref)
            term = np.exp(np.where(np.isneginf(ln), -np.inf, ln - new_ref))
            acc = acc * shift + pzn * term
            ref = new_ref
    logmod, phase = _lp_from_values(acc)
    return ref + logmod, phase


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
        if node.name == "sin":
            return _lp_sin(l, p)
        if node.name == "cos":
            return _lp_cos(l, p)
        ls, ps = _lp_sin(l, p)
        lc, pc = _lp_cos(l, p)
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
