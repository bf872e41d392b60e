import math

import numpy as np
import pytest

from merolab import (
    RadiusGrid,
    build_profile,
    characteristic,
    circle_bound_witness,
    corpus_function,
    corpus_names,
    counting,
    growth_summary,
    log_max_modulus,
    log_min_modulus,
    max_modulus,
    min_modulus,
    parse,
    proximity,
)
from merolab.expr import log_modulus, poles_in_disk
from merolab.nevanlinna import InsufficientSpanError, _log_min_bound


# ---------------------------------------------------------------------------
# proximity / characteristic anchors
# ---------------------------------------------------------------------------


def test_proximity_exp_closed_form(expz):
    # m(r, exp) = r/pi; at r = pi the value is exactly 1
    assert proximity(expz, math.pi) == pytest.approx(1.0, abs=1e-7)
    for r in (5.0, 12.0):
        assert proximity(expz, r) == pytest.approx(r / math.pi, rel=1e-7)


def test_characteristic_inverse_z():
    invz = parse("1/z")
    for r in (math.e, 10.0, 100.0):
        assert characteristic(invz, r) == pytest.approx(math.log(r), abs=1e-9)


def test_characteristic_exp_linear(expz):
    for r in (10.0, 20.0, 50.0):
        assert characteristic(expz, r) * math.pi / r == pytest.approx(1.0, abs=1e-2)


def test_characteristic_tan_asymptote(tanz):
    # T(r, tan) ~ 2r/pi up to bounded terms
    t = characteristic(tanz, 50.0)
    assert t / (2 * 50.0 / math.pi) == pytest.approx(1.0, abs=0.05)


def test_entire_function_counting_is_zero(expz, canprod4):
    assert counting(expz, 50.0) == 0.0
    assert counting(canprod4, 50.0) == 0.0


# ---------------------------------------------------------------------------
# counting versus independent integration
# ---------------------------------------------------------------------------


def _counting_by_integration(f, r: float) -> float:
    """Piecewise-exact integral of n(t)/t dt plus the origin term."""
    entries = poles_in_disk(f, r).entries
    moduli = sorted(abs(b) for b, m in entries for _ in range(m))
    at_origin = sum(1 for s in moduli if s == 0.0)
    total = at_origin * math.log(r)
    positive = [s for s in moduli if s > 0.0]
    for i, s in enumerate(positive):
        # each pole contributes log(r/s); accumulate as the step integral
        total += math.log(r / s)
    return total


@pytest.mark.parametrize("r", [5.0, 20.0])
def test_counting_matches_integration_tan(tanz, r):
    assert counting(tanz, r) == pytest.approx(
        _counting_by_integration(tanz, r), rel=1e-3
    )


@pytest.mark.parametrize("r", [5.0, 20.0])
def test_counting_matches_integration_rational(r):
    f = parse("1/(z*(z-1)*(z-2))")
    assert counting(f, r) == pytest.approx(_counting_by_integration(f, r), rel=1e-3)


# ---------------------------------------------------------------------------
# modulus extrema
# ---------------------------------------------------------------------------


def test_extrema_closed_forms(expz, tanz):
    assert min_modulus(expz, 5.0) == pytest.approx(math.exp(-5.0), rel=1e-9)
    assert max_modulus(parse("z^2 + 1"), 2.0) == pytest.approx(5.0, rel=1e-9)
    assert max_modulus(tanz, 1.0) == pytest.approx(math.tan(1.0), rel=1e-9)
    assert min_modulus(tanz, 1.0) == pytest.approx(math.tanh(1.0), rel=1e-9)


def test_extrema_bracket_circle_samples(fatou, tanz, lacunary2):
    rng = np.random.default_rng(7)
    for f in (fatou, tanz, lacunary2):
        for r in (2.0, 7.3):
            lo = log_min_modulus(f, r)
            hi = log_max_modulus(f, r)
            theta = rng.uniform(0.0, 2.0 * math.pi, 64)
            samples = log_modulus(f, r * np.exp(1j * theta))
            assert (samples >= lo - 1e-9).all()
            assert (samples <= hi + 1e-9).all()


def test_pole_on_circle_conventions():
    # a structurally cataloged pole on the sampled circle saturates M
    assert log_max_modulus(parse("1/(z-1)"), 1.0) == math.inf
    assert min_modulus(parse("z - 1"), 1.0) == 0.0


@pytest.mark.parametrize("name", corpus_names())
def test_scan_bound_is_an_upper_bound(name):
    f = corpus_function(name)
    for r in (0.5, 1.0, 10.0, 40.0, 160.0):
        assert _log_min_bound(f, r) >= log_min_modulus(f, r)


def test_scan_bound_on_degenerate_circles(canprod4, tanz, invz):
    # the zero -16 of canprod(4) lies on |z| = 16; the node at angle pi
    # misses it by an ulp, so the value is tiny rather than -inf
    assert _log_min_bound(canprod4, 16.0) >= log_min_modulus(canprod4, 16.0)
    assert log_min_modulus(canprod4, 16.0) < -30.0
    # a sampled zero and a cataloged pole on the circle are exact -inf
    assert _log_min_bound("z - 1", 1.0) == log_min_modulus("z - 1", 1.0) == -math.inf
    assert _log_min_bound("1/(z-1)", 1.0) == log_min_modulus("1/(z-1)", 1.0) == -math.inf
    # a pole of tan lies on |z| = pi/2
    assert _log_min_bound(tanz, math.pi / 2) >= log_min_modulus(tanz, math.pi / 2)
    # constant modulus: the scan is already exact
    assert _log_min_bound(invz, 3.0) == log_min_modulus(invz, 3.0)
    assert log_min_modulus(invz, 3.0) == pytest.approx(-math.log(3.0), rel=1e-15)


# ---------------------------------------------------------------------------
# grids and profiles
# ---------------------------------------------------------------------------


def test_radius_grid_overshoots_geometrically():
    grid = RadiusGrid(1.0, 10.0, 2.0)
    radii = grid.radii()
    assert radii[0] == 1.0
    assert radii[-1] >= 10.0
    assert np.allclose(np.diff(np.log(radii)), math.log(2.0))
    with pytest.raises(ValueError):
        RadiusGrid(10.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        RadiusGrid(1.0, 10.0, 1.0)


def test_profile_identities(exp_profile):
    for s in exp_profile.samples:
        assert s.T == s.m + s.N
        assert s.L <= s.M
        assert s.m_converged
    radii = exp_profile.radii()
    assert (np.diff(radii) > 0).all()


def test_characteristic_monotone_and_convex(tan_profile):
    t = np.array([s.T for s in tan_profile.samples])
    assert (np.diff(t) >= -1e-9).all()
    logr = np.log(tan_profile.radii())
    slopes = np.diff(t) / np.diff(logr)
    # convex in log r up to quadrature noise
    assert (np.diff(slopes) >= -5e-2).all()


def test_profile_perturbs_pole_radius(tanz):
    grid = RadiusGrid(math.pi / 2, 10.0, 2.0)
    profile = build_profile(tanz, grid)
    first = profile.samples[0]
    assert first.perturbed_from == pytest.approx(math.pi / 2)
    assert first.r > math.pi / 2
    assert math.isfinite(first.M)


# ---------------------------------------------------------------------------
# growth summaries
# ---------------------------------------------------------------------------


def test_growth_summary_exp(exp_profile):
    g = growth_summary(exp_profile)
    assert g.order == pytest.approx(1.0, abs=0.02)
    assert g.lower_order == pytest.approx(1.0, abs=0.02)
    assert g.deficiency == pytest.approx(1.0, abs=1e-6)
    assert g.residual < 0.05


def test_growth_summary_tan(tan_profile):
    g = growth_summary(tan_profile)
    assert g.order == pytest.approx(1.0, abs=0.1)
    assert g.deficiency <= 0.05


def test_growth_summary_needs_span(expz):
    short = build_profile(expz, RadiusGrid(1.0, 20.0))
    with pytest.raises(InsufficientSpanError):
        growth_summary(short)


def test_first_fundamental_offset(expz):
    # T(r, 1/(f-1)) = T(r, f) + O(1)
    shifted = parse("1/(exp(z) - 1)")
    for r in (5.0, 10.0, 20.0):
        assert abs(characteristic(shifted, r) - characteristic(expz, r)) <= 5.0


# ---------------------------------------------------------------------------
# circle bound witness
# ---------------------------------------------------------------------------


def test_circle_bound_witness_anchors():
    r, value, bound = circle_bound_witness(parse("1/z"), 1.0)
    assert 1.0 < r < 2.0
    assert r == pytest.approx(2.0 ** (0.5 / 64.0))
    assert value == 0.0  # |1/z| < 1 beyond radius 1
    assert bound == pytest.approx(24.0 * math.log(3.0), rel=1e-9)


def test_circle_bound_witness_exp(expz):
    r, value, bound = circle_bound_witness(expz, 1.0)
    assert value <= bound
    assert value == pytest.approx(r, rel=1e-9)  # max log|exp| on |z|=r is r
    assert bound == pytest.approx(24.0 * 3.0 / math.pi, rel=1e-2)
