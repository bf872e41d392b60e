"""The plain value path: bit-for-bit against a frozen reference, tan's pole rule, no aliasing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merolab import parse
from merolab.expr import HUGE, OVERFLOW_FLAG, POLE_FLAG, evaluate_many
from merolab.expr.nodes import Add, Const, Div, Func, MeroExpr, Mul, Neg, Pow, Sub, Var

# ---------------------------------------------------------------------------
# reference: a plain path that fills an array for every constant, copies
# z, flags in six passes, takes tan by Kahan's formula without in-place
# steps and takes cos at every tan point; evaluate_many must agree with it
# bit for bit
# ---------------------------------------------------------------------------


def _ref_horner(coeffs, z):
    acc = 0j * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _ref_poly_derivative(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0j,)


def _ref_tan(w):
    # (t + i (s b) cosh y) / (1 + b s^2) with t = tan x, s = sinh y,
    # b = 1 + t^2, in the path's order of operations; for |y| >= 22 the
    # limit 4 sin x cos x e^{-2|y|} + i sign y, and 0 + i sign y at y = +-inf
    x, y = w.real, w.imag
    t = np.tan(x)
    s = np.sinh(y)
    beta = t * t + 1.0
    den = beta * (s * s) + 1.0
    re = t / den
    im = s * beta * np.sqrt(s * s + 1.0) / den
    e = np.exp(-np.abs(y))
    far = np.abs(y) >= 22.0
    re = np.where(far, np.where(np.isinf(y), 0.0, 4.0 * np.sin(x) * np.cos(x) * e * e), re)
    im = np.where(far, np.copysign(1.0, y), im)
    out = np.empty(w.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _ref_values(node, z):
    if isinstance(node, Const):
        return np.full(z.shape, complex(node.value), dtype=np.complex128)
    if isinstance(node, Var):
        return z.astype(np.complex128, copy=True)
    if isinstance(node, Add):
        return _ref_values(node.left, z) + _ref_values(node.right, z)
    if isinstance(node, Sub):
        return _ref_values(node.left, z) - _ref_values(node.right, z)
    if isinstance(node, Mul):
        return _ref_values(node.left, z) * _ref_values(node.right, z)
    if isinstance(node, Div):
        num = _ref_values(node.numerator, z)
        den = _ref_values(node.denominator, z)
        out = num / den
        bad = np.abs(den) < 1e-300
        if node.denominator_poly is not None and len(node.denominator_poly) > 1:
            dp = _ref_horner(_ref_poly_derivative(node.denominator_poly), z)
            dist = np.abs(den) / np.maximum(np.abs(dp), 1e-290)
            bad = bad | (dist < 1e-12)
        if bad.any():
            out = np.where(bad, np.nan + 0j, out)
        return out
    if isinstance(node, Pow):
        base = _ref_values(node.base, z)
        if node.exponent >= 0:
            return base**node.exponent
        inner = base ** (-node.exponent)
        out = 1.0 / inner
        return np.where(np.abs(inner) < 1e-300, np.nan + 0j, out)
    if isinstance(node, Neg):
        return -_ref_values(node.operand, z)
    if isinstance(node, Func):
        arg = _ref_values(node.argument, z)
        if node.name == "exp":
            return np.exp(arg)
        if node.name == "sin":
            return np.sin(arg)
        if node.name == "cos":
            return np.cos(arg)
        c = np.cos(arg)
        out = _ref_tan(arg)
        return np.where(np.abs(c) < 1e-12, np.nan + 0j, out)
    raise TypeError(f"no reference for {type(node)!r}")


def _ref_evaluate_many(root, z):
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        vals = _ref_values(root, z)
    flags = np.zeros(z.shape, dtype=np.uint8)
    absval = np.abs(vals)
    flags[~np.isfinite(absval)] = 2
    flags[absval > HUGE] = 2
    flags[np.isnan(vals.real) | np.isnan(vals.imag)] = 1
    return vals, flags


def _assert_matches_reference(root, z):
    vals, flags = evaluate_many(MeroExpr(root), z)
    ref_vals, ref_flags = _ref_evaluate_many(root, z)
    assert vals.shape == ref_vals.shape
    assert np.array_equal(vals, ref_vals, equal_nan=True)
    assert np.array_equal(flags, ref_flags)


def _special_points():
    # infinities, NaN, the largest doubles, and points within 1e-15 of
    # pi/2 + k pi, where tan's pole test decides
    poles = [math.pi / 2 + k * math.pi for k in (-3, -1, 0, 1, 2, 7, 1000)]
    near = [p + d for p in poles for d in (0.0, 1e-15, -1e-15, 3e-16)]
    near += [complex(p, 1e-15) for p in poles]
    return np.array(
        [complex(math.inf, 0), complex(-math.inf, 0), complex(0, math.inf), complex(math.inf, math.inf),
         complex(math.nan, 0), complex(0, math.nan), complex(math.nan, math.nan),
         1e308, -1e308, complex(1e308, 1e308), complex(0, -1e308), 0j, 1.0, -1.0, 1j]
        + near,
        dtype=np.complex128,
    )


@pytest.mark.parametrize("source", [
    "2", "z", "tan(1)*z", "exp(2) + z", "1/(z-1)", "z^-2",
    "z*exp(z)", "exp(z)*z", "(2+i)*(3-0.7*i)*z", "(0.3+1.1*i)^2",
])
@pytest.mark.parametrize("size", [200, 20000])
def test_explicit_trees_match_reference(source, size):
    # 20000 points pass numpy's 256 KiB threshold for reusing temporaries
    # in place, where an operator may swap a product's operands
    rng = np.random.default_rng(size)
    z = rng.standard_normal(size) * 10 ** rng.uniform(-3, 3, size) + 1j * rng.standard_normal(size) * 3
    z[: len(_special_points())] = _special_points()
    root = parse(source).root
    _assert_matches_reference(root, z)
    _assert_matches_reference(root, z.reshape(-1, 50))


_PART = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
_LEAF = st.one_of(st.just(Var()), st.builds(lambda a, b: Const(complex(a, b)), _PART, _PART))


def _extend(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(-3, 4)),
        st.builds(Neg, children),
        st.builds(Func, st.sampled_from(["exp", "sin", "cos", "tan"]), children),
    )


_TREE = st.recursive(_LEAF, _extend, max_leaves=8)
_COORD = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(tree=_TREE, points=st.lists(st.builds(complex, _COORD, _COORD), max_size=30))
def test_random_trees_match_reference(tree, points):
    z = np.concatenate([_special_points(), np.array(points, dtype=np.complex128)])
    _assert_matches_reference(tree, z)


# ---------------------------------------------------------------------------
# tan's pole rule
# ---------------------------------------------------------------------------


def test_tan_suspects_flag_exactly_the_cos_rule():
    # |sin|^2 + |cos|^2 >= 1, so |cos| < 1e-12 forces |tan| > 1e11; the
    # path takes cos only where |tan| exceeds that, and must flag the same
    # points as the cos test on every point
    rng = np.random.default_rng(20)
    n = 1_000_000
    k = rng.integers(-(10**6), 10**6 + 1, n)
    offset = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-18, -6, n)
    imag = np.where(rng.random(n) < 0.3, rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-18, -8, n), 0.0)
    z = (math.pi / 2 + k * math.pi + offset) + 1j * imag
    z[: n // 10] = rng.uniform(-100, 100, n // 10) + 1j * rng.uniform(-5, 5, n // 10)
    _, flags = evaluate_many("tan(z)", z)
    expected = np.abs(np.cos(z)) < 1e-12
    assert np.array_equal(flags == POLE_FLAG, expected)
    # both sides of the rule occur: poles, and suspects that are none
    suspects = ~(np.abs(np.tan(z)) <= 1e11)
    assert expected.sum() > 1000
    assert suspects.sum() > 2 * expected.sum()


def _tan_oracle_points():
    rng = np.random.default_rng(5)
    # orbits of the tanz render (window (0, 3), 128^2 pixel centres) after
    # 1 to 511 steps
    frac = (np.arange(128) + 0.5) / 128
    cur = rng.choice(-3.0 + 6.0 * frac, 16) + 1j * rng.choice(3.0 - 6.0 * frac, 16)
    orbits = []
    for _ in range(511):
        cur, _ = evaluate_many("tan(z)", cur)
        orbits.append(cur)
    # within 1e-8 of pi/2 + k pi, on and off the real axis
    n = 1000
    k = rng.integers(-(10**4), 10**4, n)
    offset = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-11, -8, n)
    imag = np.where(rng.random(n) < 0.5, 0.0, rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-12, -8, n))
    poles = (math.pi / 2 + k * math.pi + offset) + 1j * imag
    # |Im z| around the switch to the limit at 22, and out to 700
    height = np.concatenate([rng.uniform(20, 24, 750), rng.uniform(24, 700, 250)])
    far = rng.uniform(-10, 10, n) + 1j * rng.choice([-1.0, 1.0], n) * height
    # |Re z| up to 1e5, and |z| < 1e-6
    wide = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(0, 5, n) + 1j * rng.standard_normal(n)
    tiny = 10 ** rng.uniform(-12, -6, n) * np.exp(2j * math.pi * rng.random(n))
    return np.concatenate(orbits + [poles, far, wide, tiny])


def test_tan_agrees_with_mpmath():
    mpmath = pytest.importorskip("mpmath")
    z = _tan_oracle_points()
    vals, flags = evaluate_many("tan(z)", z)
    # the marker only at the points within 1e-12 of a pole
    assert np.array_equal(flags == POLE_FLAG, np.abs(np.cos(z)) < 1e-12)
    assert not (flags == OVERFLOW_FLAG).any()
    keep = flags == 0
    assert keep.sum() > 12000
    worst = 0.0
    with mpmath.workdps(40):
        for a, b in zip(z[keep].tolist(), vals[keep].tolist()):
            ref = mpmath.tan(mpmath.mpc(a))
            worst = max(worst, float(abs(mpmath.mpc(b) - ref) / abs(ref)))
    # normwise relative error: at most 2.8 eps on these points (numpy's
    # complex tan: 2.4 eps)
    assert worst <= 4 * np.finfo(float).eps


def test_tan_flags_of_special_points():
    # C99 Annex G: tan(x +- i inf) = 0 +- i for every x, infinite or NaN
    # too, so those two are regular values; inf, NaN and the points near a
    # pole are markers
    _, flags = evaluate_many("tan(z)", _special_points())
    special = [POLE_FLAG, POLE_FLAG, 0, 0, POLE_FLAG, POLE_FLAG, POLE_FLAG] + [0] * 8
    assert flags.tolist() == special + [POLE_FLAG] * 35


# ---------------------------------------------------------------------------
# shapes and aliasing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(5,), (3, 4), ()])
def test_identity_values_are_a_new_array(shape):
    z = (np.arange(int(np.prod(shape))) + 0.5j).reshape(shape)
    before = z.copy()
    vals, flags = evaluate_many("z", z)
    assert vals.shape == flags.shape == shape
    assert not np.shares_memory(vals, z)
    vals[...] = 7.0
    assert np.array_equal(z, before)


@pytest.mark.parametrize("source, value", [("2", 2.0), ("exp(1)", math.e)])
@pytest.mark.parametrize("shape", [(6,), (3, 4), (0,), ()])
def test_constant_functions_take_the_shape_of_z(source, value, shape):
    z = np.ones(shape, dtype=np.complex128)
    vals, flags = evaluate_many(source, z)
    assert vals.shape == flags.shape == shape
    assert np.all(vals == pytest.approx(value, rel=1e-15))
    assert not flags.any()
    if vals.size > 1:
        vals.reshape(-1)[0] = 0.0
        assert vals.reshape(-1)[1] == pytest.approx(value, rel=1e-15)
