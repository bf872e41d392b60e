import cmath
import importlib
import math

import numpy as np
import pytest
from scipy.special import loggamma

from merolab import evaluate, parse
from merolab.expr import OVERFLOW, POLE, evaluate_many, log_modulus, log_polar, poles_in_disk


def test_plain_values():
    assert evaluate(parse("z^2 + 1"), 2j) == pytest.approx(-3.0)
    assert evaluate(parse("exp(z)"), 1 + 0j) == pytest.approx(math.e)
    assert evaluate(parse("sin(z)"), 0.5 + 0j) == pytest.approx(math.sin(0.5))


def test_pole_and_overflow_sentinels():
    assert evaluate(parse("1/z"), 0j) is POLE
    assert evaluate(parse("1/(z*(z-1)*(z-2))"), 1 + 0j) is POLE
    assert evaluate(parse("exp(z)"), 800 + 0j) is OVERFLOW


def test_tan_at_float_pole_reports_pole():
    # the closest double to pi/2 sits ~6e-17 off the true pole, but the
    # evaluator still reports the pole marker there
    assert evaluate(parse("tan(z)"), complex(math.pi / 2, 0)) is POLE
    v = evaluate(parse("tan(z)"), 1.5 + 0j)
    assert isinstance(v, complex) and v.real == pytest.approx(math.tan(1.5))


def test_evaluate_many_flags():
    vals, flags = evaluate_many(parse("1/z"), np.array([1 + 0j, 0j, 2 + 0j]))
    assert list(flags) == [0, 1, 0]
    assert vals[0] == pytest.approx(1.0)
    assert vals[2] == pytest.approx(0.5)
    _, flags = evaluate_many(parse("exp(z)"), np.array([0j, 800 + 0j]))
    assert list(flags) == [0, 2]


def test_log_modulus_exact_for_exp():
    pts = np.array([1.0e6 + 1.0j, 1.0e8 - 3.0j, -5.0e5 + 0j])
    lm = log_modulus(parse("exp(z)"), pts)
    assert np.allclose(lm, pts.real, rtol=1e-14, atol=1e-12)


def test_log_polar_phase_for_exp():
    lm, ph = log_polar(parse("exp(z)"), np.array([1.0e6 + 1.0j]))
    assert lm[0] == pytest.approx(1.0e6)
    assert complex(ph[0]) == pytest.approx(cmath.exp(1j))


def test_log_modulus_product_combines():
    f = parse("z^2 * exp(z)")
    pts = np.array([1000.0 + 0j, 2000.0 + 500.0j])
    expected = 2.0 * np.log(np.abs(pts)) + pts.real
    assert np.allclose(log_modulus(f, pts), expected, rtol=1e-12)


def test_log_modulus_sum_dominated_by_exponential():
    fatou = parse("z + 1 + exp(-z)")
    lm = log_modulus(fatou, np.array([-1000.0 + 0j]))
    assert lm[0] == pytest.approx(1000.0, abs=1e-9)
    lm = log_modulus(fatou, np.array([1000.0 + 0j]))
    assert lm[0] == pytest.approx(math.log(1001.0), abs=1e-9)


def test_lacunary_partial_sum_oracle(lacunary2):
    # independent oracle: direct partial sums of sum 2^(-n^2) z^n
    for z in (1.0 + 0j, 2.0 + 0j, 0.5 + 0.5j, -3.0 + 1.0j):
        oracle = sum(2.0 ** (-(n * n)) * z**n for n in range(60))
        assert evaluate(lacunary2, z) == pytest.approx(oracle, rel=1e-13)


def test_lacunary_peak_term_growth(lacunary2):
    # log M(r) tracks the largest term (log r)^2 / (4 log 2) for large r
    r = 2.0**40
    lm = float(log_modulus(lacunary2, np.array([r + 0j]))[0])
    peak = math.log(r) ** 2 / (4.0 * math.log(2.0))
    assert peak <= lm <= peak + math.log(64.0)


def test_canprod_small_radius_oracle(canprod4):
    # independent oracle: explicit factors to k=300, then the zeta tail
    zeta4 = math.pi**4 / 90.0
    ks = np.arange(1, 301, dtype=np.float64)
    for z in (3.0 + 4.0j, -7.0 + 1.0j, 10.0 + 0j, 0j):
        head = np.log(1.0 + z / ks**4).sum()
        tail = z * (zeta4 - float((ks**-4).sum()))
        oracle = (head + tail).real
        got = float(log_modulus(canprod4, np.array([z]))[0])
        assert got == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_canprod_zero_on_negative_axis(p):
    # every -k^p below is an exact double; the p-th root of 27 rounds to
    # 3.0000000000000004, which still has to land on the zero
    f = parse(f"canprod({p})")
    zeros = np.array([-float(k**p) for k in (1, 2, 3, 7, 10)], dtype=np.complex128)
    assert evaluate(f, complex(-(2**p))) == 0
    assert np.isneginf(log_modulus(f, zeros)).all()


def test_canprod_nonfinite_input_is_pole_marker(canprod4):
    pts = np.array([complex(math.inf, 0.0), complex(math.nan, 1.0), complex(1.0, -math.inf)])
    assert np.isnan(log_modulus(canprod4, pts)).all()
    assert evaluate(canprod4, complex(math.inf, 0.0)) is POLE


@pytest.mark.parametrize("z", [1.0 + 0j, 3.0 + 4.0j, 1.0e-3 + 0j])
def test_canprod2_closed_form(z):
    # prod(1 + z/k^2) = sinh(pi sqrt z) / (pi sqrt z)
    s = math.pi * cmath.sqrt(z)
    assert evaluate(parse("canprod(2)"), z) == pytest.approx(cmath.sinh(s) / s, rel=1e-13)


def test_canprod_gamma_route_agrees_with_factor_route(canprod4):
    # independent oracle: explicit factors to k=300, then the zeta tail;
    # the dropped z^2 tail term is below 1e-10 at |z| = 1e4
    zeta4 = math.pi**4 / 90.0
    ks = np.arange(1, 301, dtype=np.float64)
    pts = np.array([1.0e4 + 0j, 8000.0 + 6000.0j, -9999.5 + 11.0j])
    oracle = [
        (np.log(1.0 + z / ks**4).sum() + z * (zeta4 - float((ks**-4).sum()))).real
        for z in pts
    ]
    assert np.allclose(log_modulus(canprod4, pts), oracle, rtol=0, atol=1e-8)


def test_canprod_asymptotic_slope(canprod4):
    # log max term ~ pi sqrt(2) r^(1/4) on the positive axis
    r = 1.0e24
    lm = float(log_modulus(canprod4, np.array([r + 0j]))[0])
    assert lm == pytest.approx(math.pi * math.sqrt(2.0) * r**0.25, rel=1e-3)


def test_canprod_gamma_route_zero(canprod4):
    # -2^80 = -(2^20)^4 is exactly representable, and its factor count
    # pushes the evaluation onto the gamma route
    z = -(2.0**80)
    lm = float(log_modulus(canprod4, np.array([z + 0j]))[0])
    assert lm == -math.inf


def _canprod_log_oracle(mpmath, p, z):
    # 30-digit log prod(1 + z/k^p): nprod's extrapolation only up to
    # |z| = 100 (it drifts beyond), the loggamma form of the identity
    # prod(1 + z/k^p) = prod_{w^p = -z} 1/Gamma(1 - w) past that
    z = mpmath.mpc(z)
    if abs(z) <= 100:
        return mpmath.log(mpmath.nprod(lambda k: 1 + z / k**p, [1, mpmath.inf]))
    rho = abs(z) ** (mpmath.mpf(1) / p) * mpmath.expj(mpmath.arg(-z) / p)
    roots = (rho * mpmath.expj(2 * mpmath.pi * j / p) for j in range(p))
    return -mpmath.fsum(mpmath.loggamma(1 - w) for w in roots)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_canprod_mpmath_oracle(p):
    mpmath = pytest.importorskip("mpmath")
    pts = [
        r * cmath.exp(1j * t)
        for r in (1e-3, 0.7, 10.0, 100.0, 1e3, 1e6, 1e12, 1e24)
        for t in (0.0, 1.0, 2.5, -3.0)
    ]
    # within 1e-6 of the zeros -k^p
    pts += [-float(k**p) + d for k in (1, 2, 3, 10) for d in (1e-6, -1e-6, 1e-6j, -7e-7j)]
    lm, phase = log_polar(parse(f"canprod({p})"), np.array(pts))
    with mpmath.workdps(30):
        for z, got_l, got_phase in zip(pts, lm, phase):
            ref = _canprod_log_oracle(mpmath, p, z)
            ref_phase = complex(mpmath.expj(ref.imag))
            err = complex(got_l - float(ref.real), cmath.phase(got_phase / ref_phase))
            assert abs(err) <= 1e-12 * max(1.0, float(abs(ref))), z


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_canprod_no_false_zero_from_rounding(p):
    # -fl(n^p) with fl(n^p) != n^p, and the next double past -2^p: both
    # once read as exact zeros (the rounded root lands on n)
    mpmath = pytest.importorskip("mpmath")
    n = {2: 2**27 + 1, 3: 2**18 + 1, 4: 2**14 + 1, 5: 2**11 + 1}[p]
    assert float(n**p) != n**p
    pts = [-float(n**p), float(np.nextafter(-(2.0**p), -math.inf))]
    lm, phase = log_polar(parse(f"canprod({p})"), np.array(pts, dtype=np.complex128))
    with mpmath.workdps(40):
        for z, got_l, got_phase, k in zip(pts, lm, phase, (n, 2)):
            ref = _canprod_log_oracle(mpmath, p, z)
            err = complex(got_l - float(ref.real), cmath.phase(got_phase / complex(mpmath.expj(ref.imag))))
            # the rounded roots carry an absolute error of about 1e-16 of the
            # largest loggamma term, k log k
            assert abs(err) <= 1e-12 + 2e-15 * k * math.log(k), z
    # a true zero above 2^53 stays exact: -2^60 = -(2^30)^2
    assert np.isneginf(log_modulus(parse("canprod(2)"), np.array([-(2.0**60)]))).all()


def _assert_canprod_on_negative_axis(p, x):
    # f is real at -x, so the phase is +-1, even where the odd-p loggamma
    # terms reach 1e99
    mpmath = pytest.importorskip("mpmath")
    lm, phase = log_polar(parse(f"canprod({p})"), np.array([complex(-x, 0.0)]))
    with mpmath.workdps(500):
        # log prod_w 1/Gamma(1 - w) = sum_w log[Gamma(w) sin(pi w) / pi]
        rho = mpmath.mpf(x) ** (mpmath.mpf(1) / p)
        ref = mpmath.fsum(
            mpmath.loggamma(w) + mpmath.log(mpmath.sin(mpmath.pi * w) / mpmath.pi)
            for w in (rho * mpmath.expj(2 * mpmath.pi * j / p) for j in range(p))
        )
        want = float(ref.real)
        unit = complex(mpmath.expj(ref.imag))
    assert abs(lm[0] - want) <= 1e-12 * max(1.0, abs(want))
    assert abs(phase[0] - unit) <= 1e-12


@pytest.mark.parametrize(
    "p, x",
    [(2, 1e30), (2, 1e40), (2, 1.7e308), (2, 2.25), (2, 12.25), (4, 5.0625), (6, 11.390625)],
)
def test_even_canprod_on_negative_axis(p, x):
    # far out, the real root x^(1/p) has no fractional digit left in floats,
    # so the value needs n and x - n^p from the exact double; at a root
    # k + 1/2 (k odd for all but 12.25), a rounding tie, n may be k or k + 1
    # but must be the same n throughout
    _assert_canprod_on_negative_axis(p, x)


@pytest.mark.parametrize(
    "p, x",
    [(3, 1e150), (3, 2.78e298), (5, 5.43e298),
     (3, float(np.nextafter(1e15, math.inf))), (5, float(np.nextafter(1e15, math.inf))),
     (3, float(np.nextafter(float(3 * 2**40) ** 3, 0.0))),
     (5, float(np.nextafter(float(3 * 2**30) ** 5, math.inf)))],
)
def test_odd_canprod_on_negative_axis(p, x):
    # the same exact axis rule for odd p: the real root's summand in its
    # reflected form, the other roots rebuilt from the same exact n + delta;
    # next to a zero -k^p the plain loggamma route lost whole digits
    _assert_canprod_on_negative_axis(p, x)


def _evaluate_module():
    return importlib.import_module("merolab.expr.evaluate")


@pytest.mark.parametrize("p", [2, 4, 6])
def test_even_canprod_makes_no_loggamma_call(monkeypatch, p):
    def refuse(*args):
        raise AssertionError("loggamma called for an even power")

    monkeypatch.setattr(_evaluate_module(), "loggamma", refuse)
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    for r in (0.5, 16.0, 1e3, 1e24):
        lm, _ = log_polar(parse(f"canprod({p})"), r * np.exp(1j * theta))
        assert np.isfinite(lm).all()


def _canprod_gamma_reference(p, z):
    # the 1/Gamma form prod_w 1/Gamma(1 - w) for every power, with the
    # factor n^p + z of the nearest zero taken from z
    rho = np.abs(z) ** (1.0 / p) * np.exp(1j * np.angle(-z) / p)
    w = rho[..., None] * np.exp(2j * math.pi * np.arange(p) / p)
    n = np.maximum(np.rint(np.abs(rho)), 1.0)
    head = np.log((0.5 * n) ** p + z * 0.5**p) + math.log(2.0**p)
    return head - (loggamma(1.0 - w) + np.log(n[..., None] - w)).sum(axis=-1)


@pytest.mark.parametrize("p", [2, 4, 6])
@pytest.mark.parametrize("r", [0.5, 3.0, 16.0, 40.0, 1e3, 1e4, 2e13])
def test_even_canprod_agrees_with_gamma_route(p, r):
    # |log f| is taken as the loggamma sum gives it, imaginary part
    # unreduced: the scale of the reference's own rounding
    z = r * np.exp(2j * math.pi * np.arange(4096) / 4096)
    ref = _canprod_gamma_reference(p, z)
    lm, phase = log_polar(parse(f"canprod({p})"), z)
    err = np.abs((lm - ref.real) + 1j * np.angle(phase * np.exp(-1j * ref.imag)))
    assert (err <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_lacunary_mpmath_oracle(q):
    mpmath = pytest.importorskip("mpmath")
    pts = [
        r * cmath.exp(1j * t)
        for r in (1e-3, 0.7, 3.0, 40.0, 1e3, 1e6)
        for t in (0.0, 1.0, 2.5, -3.0, math.pi)
    ]
    lm, phase = log_polar(parse(f"lacunary({q})"), np.array(pts))
    with mpmath.workdps(40):
        for z, got_l, got_phase in zip(pts, lm, phase):
            z = mpmath.mpc(z)
            terms = lambda n, z=z: mpmath.mpf(q) ** (-n * n) * z**n  # noqa: E731
            ref = mpmath.log(mpmath.nsum(terms, [0, mpmath.inf]))
            # the terms cancel where z is near the negative axis; bound the
            # error by their total modulus over the sum, the condition number
            size = mpmath.nsum(lambda n: abs(terms(n)), [0, mpmath.inf])
            cond = float(size / abs(mpmath.exp(ref)))
            err = complex(got_l - float(ref.real), cmath.phase(got_phase / complex(mpmath.expj(ref.imag))))
            assert abs(err) <= 1e-15 * cond * max(1.0, float(abs(ref))), z


def test_source_text_accepted_everywhere():
    src = "1/(exp(z)-2)"
    f = parse(src)
    pts = np.array([0.5 + 0.5j, 3.0 - 2.0j, math.log(2.0) + 0j])
    assert poles_in_disk(src, 16.0).entries == poles_in_disk(f, 16.0).entries
    assert evaluate("z^2", 3) == evaluate(parse("z^2"), 3)
    for call in (evaluate_many, log_polar):
        for got, want in zip(call(src, pts), call(f, pts)):
            assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(log_modulus(src, pts), log_modulus(f, pts))
