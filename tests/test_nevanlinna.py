import functools
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
    nevanlinna,
    parse,
    proximity,
)
from merolab.expr import log_modulus, poles_in_disk
from merolab.nevanlinna import (
    InsufficientSpanError,
    _log_min_bound,
    _pole_on_circle,
    golden_min,
)


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


def test_plain_moduli_saturate_like_the_profile():
    f = parse("1e305 + z")
    sample = build_profile(f, RadiusGrid(1.0, 2.0, 2.0)).samples[0]
    assert sample.r == 1.0
    assert min_modulus(f, 1.0) == sample.L == 1e300
    assert max_modulus(f, 1.0) == sample.M == 1e300


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


def _one_extremum(f, r, want_max):
    """Reference: each extreme scanned and refined on its own."""
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    lm = log_modulus(f, r * np.exp(1j * theta))
    sign = -1.0 if want_max else 1.0
    marker = np.isnan(lm) | np.isposinf(lm)
    if marker.any():
        if _pole_on_circle(f, r):
            return math.inf if want_max else -math.inf
        lm = lm.copy()
        lm[marker] = math.inf * sign
    if not want_max and np.isneginf(lm).any():
        return -math.inf
    obj = sign * lm
    neighbors = np.minimum(np.roll(obj, 1), np.roll(obj, -1))
    local = np.flatnonzero(obj <= neighbors)
    best = local[np.argsort(obj[local])][:8]
    step = 2.0 * math.pi / 4096
    _, refined, _ = golden_min(lambda t: sign * log_modulus(f, r * np.exp(1j * t)),
                               theta[best] - step, theta[best] + step, 1e-10)
    return sign * min(float(obj[best[0]]), float(refined.min()))


def _assert_extrema_match_reference(f, r):
    assert log_min_modulus(f, r) == _one_extremum(f, r, False)
    assert log_max_modulus(f, r) == _one_extremum(f, r, True)


@pytest.mark.parametrize("name", corpus_names())
def test_shared_pass_equals_per_extreme_refinement(name):
    f = corpus_function(name)
    for r in (0.5, 1.0, 3.0, 10.0, 40.0, 160.0):
        _assert_extrema_match_reference(f, r)


def test_shared_pass_equals_per_extreme_refinement_on_degenerate_circles(canprod4, tanz):
    # (z - 1)(z + 0.3i) at r = 1: a sampled zero, and a maximum between nodes
    cases = [(parse("z - 1"), 1.0), (parse("1/(z-1)"), 1.0), (tanz, math.pi / 2),
             (canprod4, 16.0), (parse("exp(i*z)"), 3.0), (parse("2"), 3.0),
             (parse("(z - 1)*(z + 0.3*i)"), 1.0)]
    for f, r in cases:
        _assert_extrema_match_reference(f, r)
    # a sampled zero leaves the maximum finite and refined
    assert log_min_modulus("z - 1", 1.0) == -math.inf < log_max_modulus("z - 1", 1.0)


def _cold(monkeypatch, name):
    """Give the nevanlinna cache `name` a fresh, empty lru_cache."""
    fresh = functools.lru_cache(maxsize=None)(getattr(nevanlinna, name).__wrapped__)
    monkeypatch.setattr(nevanlinna, name, fresh)


def test_profile_scans_and_refines_each_circle_once(monkeypatch, lacunary2):
    _cold(monkeypatch, "_modulus_scan")
    _cold(monkeypatch, "_modulus_extrema")
    kernel, refine = nevanlinna.log_modulus, nevanlinna.golden_min
    scans, refinements = [], []

    def counted_kernel(f, z):
        # the scan's nodes start at angle 0; the quadrature's 4096-node
        # level starts at pi/4096
        if z.size == 4096 and z[0].imag == 0.0:
            scans.append(z[0])
        return kernel(f, z)

    def counted_refine(*args):
        refinements.append(args)
        return refine(*args)

    monkeypatch.setattr(nevanlinna, "log_modulus", counted_kernel)
    monkeypatch.setattr(nevanlinna, "golden_min", counted_refine)
    profile = build_profile(lacunary2, RadiusGrid(1.0, 4.0, 2.0 ** 0.5))
    assert len(profile.samples) == len(scans) == len(refinements) == 5


def test_profile_and_characteristic_share_one_quadrature(monkeypatch, expz):
    _cold(monkeypatch, "_proximity_detail")
    samples = nevanlinna._logplus_samples
    starts = []

    def counted(f, r, theta):
        if theta[0] == 0.0:  # the first level of one quadrature
            starts.append(r)
        return samples(f, r, theta)

    monkeypatch.setattr(nevanlinna, "_logplus_samples", counted)
    sample = build_profile(expz, RadiusGrid(2.0, 4.0, 2.0)).samples[0]
    assert characteristic(expz, 2.0) == sample.T
    assert starts == [2.0, 4.0]


# ---------------------------------------------------------------------------
# the golden-section helper
# ---------------------------------------------------------------------------

_MINIMISERS = np.array([-3.2, 0.1, 0.77, 5.0, 1e-3])
_BELOW = np.array([0.5, 2.0, 0.01, 1.3, 0.2])
_ABOVE = np.array([1.1, 0.3, 0.4, 0.02, 3.0])


@pytest.mark.parametrize("shape", [np.square, np.abs])
def test_golden_min_finds_each_bracket_minimiser(shape):
    tol = 1e-9

    def fun(x):
        return shape(x - _MINIMISERS)

    x, value, _ = golden_min(fun, _MINIMISERS - _BELOW, _MINIMISERS + _ABOVE, tol)
    assert x.shape == value.shape == _MINIMISERS.shape
    assert np.all(np.abs(x - _MINIMISERS) <= tol)
    assert np.array_equal(value, fun(x))


def test_golden_min_takes_scalar_brackets():
    x, value, _ = golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-9)
    assert float(x) == pytest.approx(0.3, abs=1e-9)
    assert float(value) == (float(x) - 0.3) ** 2


def test_golden_min_never_returns_a_nan_probe():
    def fun(x):
        # NaN on a band around each minimiser, and everywhere in the last bracket
        v = np.square(x - _MINIMISERS)
        v = np.where(np.abs(x - _MINIMISERS) < 0.05, np.nan, v)
        v[-1] = np.nan
        return v

    x, value, _ = golden_min(fun, _MINIMISERS - _BELOW, _MINIMISERS + _ABOVE, 1e-9)
    assert not np.isnan(value).any()
    assert value[-1] == math.inf
    assert not np.isnan(fun(x)[:-1]).any()
    assert np.all(np.abs(x - _MINIMISERS)[:-1] >= 0.05)


def test_golden_min_counts_its_calls():
    calls = []

    def fun(x):
        calls.append(x)
        return np.abs(x - _MINIMISERS)

    for tol in (1.0, 1e-3, 1e-12):
        calls.clear()
        _, _, probes = golden_min(fun, _MINIMISERS - _BELOW, _MINIMISERS + _ABOVE, tol)
        assert probes == len(calls)
    assert probes > 2


def test_golden_min_on_a_constant_is_deterministic():
    a, b, tol = np.array([0.0, -1.0]), np.array([1.0, 2.0]), 1e-10
    first = golden_min(lambda x: np.full(x.shape, 7.0), a, b, tol)
    second = golden_min(lambda x: np.full(x.shape, 7.0), a, b, tol)
    assert np.array_equal(first[0], second[0]) and first[2] == second[2]
    assert np.array_equal(first[1], [7.0, 7.0])
    # ties move to the upper half, so the kept point runs up to b
    assert np.all((b - tol <= first[0]) & (first[0] <= b))


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
