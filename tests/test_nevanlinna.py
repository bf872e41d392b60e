import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from merolab.expr import (
    Add,
    Const,
    Div,
    Func,
    MeroExpr,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    as_expr,
    log_modulus,
    poles,
    poles_in_disk,
)
from merolab.nevanlinna import (
    InsufficientSpanError,
    _conjugate_symmetric,
    _log_min_subset_bound,
    _modulus_scan,
    golden_min,
    grid_min,
    growth_grid,
)


# ---------------------------------------------------------------------------
# proximity / characteristic anchors
# ---------------------------------------------------------------------------


def test_gauss_legendre_constants_equal_leggauss():
    x, w = nevanlinna._GL_NODES, nevanlinna._GL_WEIGHTS
    want_x, want_w = np.polynomial.legendre.leggauss(15)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    assert np.array_equal(np.signbit(x), np.signbit(want_x))


def test_proximity_exp_closed_form(expz):
    # m(r, exp) = r/pi; at r = pi the value is exactly 1
    assert proximity(expz, math.pi) == pytest.approx(1.0, abs=1e-13)
    for r in (5.0, 10.0, 12.0, 500.0):
        assert proximity(expz, r) == pytest.approx(r / math.pi, rel=1e-13)


def _mp_proximity(F, r, cuts):
    """Reference m(r): 20-digit mpmath quad of log+ |F(r e^{it})| / 2pi,
    split at the angles `cuts` in [0, 2pi] where |F| = 1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        r = mpmath.mpf(r)

        def log_abs(t):
            return mpmath.log(abs(F(r * mpmath.expj(t))))

        edges = [mpmath.mpf(0), *sorted(cuts), 2 * mpmath.pi]
        total = mpmath.mpf(0)
        for a, b in zip(edges, edges[1:]):
            if log_abs((a + b) / 2) > 0:
                total += mpmath.quad(log_abs, [a, b])
        return float(total / (2 * mpmath.pi))


# the tanz circles of RadiusGrid(1, 1000, 2^(1/8)) where a uniform
# trapezoid rule stopped unconverged at 2^20 nodes
_TAN_HARD_RADII = (24.67537320652708, 32.000000000000036, 34.89624744528828,
                   38.054627680087115, 41.49886574883236, 53.8173705762378,
                   90.50966799187822, 165.99546299532952, 197.40298565221676)


def _mp_proximity_tan(r):
    mpmath = pytest.importorskip("mpmath")
    # |tan(x + iy)|^2 = (cosh 2y - cos 2x) / (cosh 2y + cos 2x), so |tan| = 1
    # exactly where x = pi/4 + k pi/2
    k = math.ceil(2.0 * r / math.pi)
    cuts = []
    for x in math.pi / 4 + math.pi / 2 * np.arange(-k, k):
        if abs(x) < r:
            t = mpmath.acos(mpmath.mpf(x) / mpmath.mpf(r))
            cuts += [t, 2 * mpmath.pi - t]
    return _mp_proximity(mpmath.tan, r, cuts)


@pytest.mark.parametrize("r", _TAN_HARD_RADII)
def test_proximity_tan_oracle(tanz, r):
    ref = _mp_proximity_tan(r)
    assert abs(proximity(tanz, r) - ref) <= 1e-8 * max(1.0, characteristic(tanz, r))


def test_proximity_sees_a_kink_next_to_a_panel_edge(tanz):
    # on r = sqrt(2), |tan| = 1 at angle acos(pi / (4 sqrt 2)) = 0.98200, which
    # lies 2.5e-4 rad past the starting panel edge 10 * 2pi/64, closer to it
    # than any node of the panel's rule or of its halves
    r = math.sqrt(2.0)
    assert proximity(tanz, r) == pytest.approx(_mp_proximity_tan(r), abs=1e-12)


def test_proximity_lacunary_oracle_next_to_a_zero(lacunary2):
    # the circle r = 512 passes 1.5e-6 from the zero of lacunary(2) near
    # -512, and log|f| dips below 0 on an arc of about 6e-6 rad
    mpmath = pytest.importorskip("mpmath")
    r = 512.000000000001
    coeffs = [mpmath.mpf(2) ** (-n * n) for n in reversed(range(30))]

    def F(z):
        return mpmath.polyval(coeffs, z)

    theta = 2.0 * math.pi * np.arange(2**16 + 1) / 2**16
    below = log_modulus(lacunary2, r * np.exp(1j * theta)) < 0.0
    cuts = []
    with mpmath.workdps(20):
        for i in np.flatnonzero(below[1:] != below[:-1]):
            cuts.append(mpmath.findroot(
                lambda t: mpmath.log(abs(F(r * mpmath.expj(t)))),
                (theta[i], theta[i + 1]), solver="anderson"))
    assert len(cuts) == 2
    ref = _mp_proximity(F, r, cuts)
    assert abs(proximity(lacunary2, r) - ref) <= 1e-8 * max(1.0, characteristic(lacunary2, r))


def test_proximity_stops_at_its_node_cap(monkeypatch, tanz):
    # the full quadrature of this circle evaluates 4,353 nodes on [0, pi]
    r = 8.724061861322067
    full = proximity(tanz, r)
    monkeypatch.setattr(nevanlinna, "_QUAD_CAP", 3000)
    m, nodes, converged = nevanlinna._proximity_detail(tanz, [r])[0]
    assert not converged and nodes <= 3000
    assert m == pytest.approx(full, rel=1e-5)


@pytest.mark.parametrize("r, want", [(861.0779292198056, 1.1410823810266e-4),
                                     (1024.0000000000023, 1.8058481033000e-4)])
def test_proximity_sees_narrow_arcs_next_to_poles(r, want):
    # the circle passes 0.28 and 0.16 from poles log 2 + 2 pi i k of
    # 1/(exp(z) - 2); log+ |f| > 0 only on two arcs of about 1e-3 rad.
    # References: 30-digit mpmath quad split at the four |f| = 1 crossings
    assert proximity("1/(exp(z)-2)", r) == pytest.approx(want, abs=1e-12)


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


def _scan_min(f, r):
    """The scan minimum of log|f| on |z| = r, before refinement."""
    return _modulus_scan(as_expr(f), r)[0][0]


@pytest.mark.parametrize("name", corpus_names())
def test_scan_bound_is_an_upper_bound(name):
    f = corpus_function(name)
    for r in (0.5, 1.0, 10.0, 40.0, 160.0):
        assert _scan_min(f, r) >= log_min_modulus(f, r)


def test_scan_bound_on_degenerate_circles(canprod4, tanz, invz):
    # the zero -16 of canprod(4) lies on |z| = 16, at the scan node -16
    assert _scan_min(canprod4, 16.0) >= log_min_modulus(canprod4, 16.0)
    assert log_min_modulus(canprod4, 16.0) < -30.0
    # a sampled zero and a cataloged pole on the circle are exact -inf
    assert _scan_min("z - 1", 1.0) == log_min_modulus("z - 1", 1.0) == -math.inf
    assert _scan_min("1/(z-1)", 1.0) == log_min_modulus("1/(z-1)", 1.0) == -math.inf
    # a pole of tan lies on |z| = pi/2
    assert _scan_min(tanz, math.pi / 2) >= log_min_modulus(tanz, math.pi / 2)
    # constant modulus: the scan is already exact
    assert _scan_min(invz, 3.0) == log_min_modulus(invz, 3.0)
    assert log_min_modulus(invz, 3.0) == pytest.approx(-math.log(3.0), rel=1e-15)


def _subset_reference(f, r):
    """Reference: every 16th sample of one whole-route scan batch, markers
    dropped, or -inf for a pole marker the catalog confirms."""
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    if _conjugate_symmetric(f):
        z = r * np.exp(1j * theta[:2049])
        z[-1] = -r
    else:
        z = r * np.exp(1j * theta)
    lm = log_modulus(f, z)[::16]
    marker = np.isnan(lm) | np.isposinf(lm)
    if marker.any() and poles_in_disk(f, r * (1.0 + 1e-6) + 1e-6).near(r, 1e-9):
        return -math.inf
    return float(lm[~marker].min(initial=math.inf))


@pytest.mark.parametrize("source", [*(str(corpus_function(n)) for n in corpus_names()),
                                    "exp(z) + 0.5*i"])
def test_subset_bound_is_above_the_scan_bound(source):
    # exp(z) + 0.5*i has a complex constant: the subset spans the full circle
    f = parse(source)
    for r in (0.5, 1.0, 10.0, 40.0, 160.0):
        assert _log_min_subset_bound(f, r) >= _scan_min(f, r) >= log_min_modulus(f, r)
        # the subset's samples are the scan's own, bit for bit
        assert _log_min_subset_bound(f, r) == _subset_reference(f, r)


def test_subset_bound_on_degenerate_circles(canprod4):
    # a sampled zero and a cataloged pole on the circle are exact -inf
    assert _log_min_subset_bound(parse("z - 1"), 1.0) == -math.inf
    assert _log_min_subset_bound(parse("1/(z-1)"), 1.0) == -math.inf
    # the scan minimum of canprod(4) at r = 16 sits on node 2048, which is -16
    # and one of the subset's nodes
    assert _log_min_subset_bound(canprod4, 16.0) == _scan_min(canprod4, 16.0)


def _scan_samples_by_circle(f, r, stride):
    """Reference: _scan_samples with each circle's points from _circle,
    the pole markers replaced in a copy."""
    theta = nevanlinna._SCAN_THETA
    half = _conjugate_symmetric(f)
    lm = nevanlinna.log_modulus(f, nevanlinna._circle(r, theta[:2049:stride] if half else theta[::stride],
                                                      half))
    marker = np.isnan(lm) | np.isposinf(lm)
    if marker.any() and nevanlinna._pole_on_circle(f, r):
        return None
    return np.where(marker, math.nan, lm)


@pytest.mark.parametrize("source", [*(str(corpus_function(n)) for n in corpus_names()),
                                    "exp(z) + 0.5*i", "1/(z-1)", "z - 1"])
def test_scan_samples_equal_those_of_the_circle(source):
    f = parse(source)
    for r in (0.5, 1.0, math.pi / 2, 10.0, 40.0, 160.0):
        for stride in (1, 16):
            got, want = nevanlinna._scan_samples(f, r, stride), _scan_samples_by_circle(f, r, stride)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want, equal_nan=True)


def test_scan_samples_drop_markers_off_the_catalog(monkeypatch, expz):
    # exp has no poles, so every marker reads NaN
    kernel = nevanlinna.log_modulus

    def marked(f, z):
        lm = kernel(f, z)
        lm[::7], lm[3::11] = math.nan, math.inf
        return lm

    monkeypatch.setattr(nevanlinna, "log_modulus", marked)
    for stride in (1, 16):
        got = nevanlinna._scan_samples(expz, 10.0, stride)
        assert np.isnan(got).any() and not np.isinf(got).any()
        assert np.array_equal(got, _scan_samples_by_circle(expz, 10.0, stride), equal_nan=True)


def _scan_extrema_by_roll(lm):
    """Reference: the extrema and centers of _modulus_scan from samples lm,
    neighbours by np.roll, the folded centers by np.unique."""
    exact = np.empty(0)
    if lm is None:
        return (-math.inf, exact), (math.inf, exact)
    node = np.arange(4096)
    if lm.size < 4096:
        lm = np.concatenate([lm, lm[2047:0:-1]])
        node = np.minimum(node, 4096 - node)
    sides = []
    for sign in (1.0, -1.0):
        obj = sign * lm
        obj[np.isnan(obj)] = math.inf
        if sign > 0 and np.isneginf(obj).any():
            sides.append((-math.inf, exact))
            continue
        neighbors = np.minimum(np.roll(obj, 1), np.roll(obj, -1))
        local = np.flatnonzero(obj <= neighbors)
        best = local[np.argsort(obj[local])][:8]
        sides.append((sign * float(obj[best[0]]), nevanlinna._SCAN_THETA[np.unique(node[best])]))
    return tuple(sides)


def _scan_inputs(size):
    rng = np.random.default_rng(size)
    noisy = rng.normal(size=size)
    tied = np.round(rng.normal(size=size), 1)
    with_nan, with_neginf = noisy.copy(), noisy.copy()
    with_nan[rng.integers(0, size, 40)] = math.nan
    with_neginf[rng.integers(0, size, 3)] = -math.inf
    wave = np.cos(7.0 * np.arange(size) / size)
    yield from (noisy, tied, with_nan, with_neginf, wave, np.full(size, 2.5), np.zeros(size),
                np.full(size, math.nan), np.where(np.arange(size) % 5, math.nan, noisy), None)


@pytest.mark.parametrize("size", [2049, 4096])
def test_modulus_scan_equals_the_roll_reference(monkeypatch, size):
    # 2049 samples take the half route (mirrored, centers folded), 4096 the full
    for lm in _scan_inputs(size):
        monkeypatch.setattr(nevanlinna, "_scan_samples",
                            lambda f, r, stride: None if lm is None else lm.copy())
        got = _modulus_scan(None, 1.0)
        want = _scan_extrema_by_roll(None if lm is None else lm.copy())
        for (value, centers), (want_value, want_centers) in zip(got, want):
            assert value == want_value
            assert np.array_equal(centers, want_centers)


def _one_extremum(f, r, want_max):
    """Reference: each extreme scanned and refined on its own, on the
    route's nodes: for real coefficients, nodes 0..2048 (the last exactly
    -r) mirrored, and one bracket per mirror pair."""
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    half = _conjugate_symmetric(as_expr(f))
    if half:
        z = r * np.exp(1j * theta[:2049])
        z[-1] = -r
        lm = log_modulus(f, z)
        lm = np.concatenate([lm, lm[2047:0:-1]])
    else:
        lm = log_modulus(f, r * np.exp(1j * theta))
    sign = -1.0 if want_max else 1.0
    marker = np.isnan(lm) | np.isposinf(lm)
    if marker.any():
        if poles_in_disk(f, r * (1.0 + 1e-6) + 1e-6).near(r, 1e-9):
            return math.inf if want_max else -math.inf
        lm = lm.copy()
        lm[marker] = math.inf * sign
    if not want_max and np.isneginf(lm).any():
        return -math.inf
    obj = sign * lm
    neighbors = np.minimum(np.roll(obj, 1), np.roll(obj, -1))
    local = np.flatnonzero(obj <= neighbors)
    best = local[np.argsort(obj[local])][:8]
    centers = theta[np.unique(np.minimum(best, 4096 - best))] if half else theta[best]
    _, refined, _ = grid_min(lambda t: sign * log_modulus(f, r * np.exp(1j * t)),
                             centers, 2.0 * math.pi / 4096, 1e-10)
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


# ---------------------------------------------------------------------------
# conjugate symmetry: real-coefficient functions take half of each circle
# ---------------------------------------------------------------------------

_HALF_ROUTE = ["z^2 + 1", "1/(exp(z)-2)", *(str(corpus_function(n)) for n in corpus_names())]


@pytest.mark.parametrize("source, half", [("exp(i*z)", False), ("z + i", False), ("1/(z - i)", False),
                                          *((source, True) for source in _HALF_ROUTE)])
def test_circle_route(monkeypatch, source, half):
    f = parse(source)
    assert _conjugate_symmetric(f) is half
    points = []

    def recorded(g, z):
        points.append(z.ravel())
        return log_modulus(g, z)

    monkeypatch.setattr(nevanlinna, "log_modulus", recorded)
    nevanlinna._modulus_scan(f, 2.5)
    nevanlinna._proximity_detail(f, [2.5])
    assert bool(np.concatenate(points).imag.min() >= 0.0) is half


def test_a_real_zero_on_the_circle_reads_minus_inf(canprod4):
    # the zeros -1 and -16 of canprod(4) are the scan nodes at angle pi
    assert log_min_modulus(canprod4, 1.0) == log_min_modulus(canprod4, 16.0) == -math.inf


def _full_circle(f, r):
    """(m, converged, log L, log M) from the full-circle route, forced for any f."""
    with mock.patch.object(nevanlinna, "_conjugate_symmetric", lambda f: False):
        m, _, converged = nevanlinna._proximity_detail(f, [r])[0]
        return m, converged, *nevanlinna._modulus_extrema(f, [r])[0]


_LEAF = st.one_of(st.just(Var()), st.integers(-20, 20).map(lambda k: Const(complex(k / 7))))
_REAL_TREE = st.recursive(
    _LEAF,
    lambda inner: st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(Neg, inner),
        st.builds(Pow, inner, st.integers(2, 3)),
        st.builds(Func, st.sampled_from(["exp", "sin", "cos", "tan"]), inner),
        # one pole on the real axis, inside every sampled circle
        st.builds(Div, inner, st.integers(-6, 6).map(lambda k: Sub(Var(), Const(complex(k / 7))))),
    ),
    max_leaves=5,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(tree=_REAL_TREE, radius=st.floats(1.0, 6.0))
def test_half_circle_matches_the_full_circle(tree, radius):
    # the radius is scaled off the constants' grid, so no zero sits at -r,
    # where the full route's node r e^{i pi} misses it
    f, r = MeroExpr(tree), radius * math.sqrt(2.0)
    assert _conjugate_symmetric(f)
    m, converged, lo, hi = _full_circle(f, r)
    half_m, _, half_converged = nevanlinna._proximity_detail(f, [r])[0]
    assert half_converged == converged
    # N >= 0 for r >= 1, so this is no looser than 1e-12 * max(1, T)
    assert abs(half_m - m) <= 1e-12 * max(1.0, m)
    for half, full in ((log_min_modulus(f, r), lo), (log_max_modulus(f, r), hi)):
        if math.isinf(full):
            assert half == full
        else:
            # an error d in log |f| is a relative error d in |f|
            assert abs(half - full) <= 1e-12 * max(1.0, abs(full))


def _counted(monkeypatch, module, name, size=lambda *args: 1):
    """Wrap module.name so that each call adds size(*args) to the returned list."""
    fun = getattr(module, name)
    counts = []

    def counted(*args):
        counts.append(size(*args))
        return fun(*args)

    monkeypatch.setattr(module, name, counted)
    return counts


def test_profile_scans_and_refines_each_circle_once(monkeypatch, lacunary2):
    extrema = _counted(monkeypatch, nevanlinna, "_modulus_extrema", lambda f, radii: len(radii))
    scans = _counted(monkeypatch, nevanlinna, "_modulus_scan")
    quadratures = _counted(monkeypatch, nevanlinna, "_proximity_detail", lambda f, radii: len(radii))
    refine = nevanlinna.grid_min
    refinements = []

    def counted_refine(*args):
        refinements.append(args)
        return refine(*args)

    monkeypatch.setattr(nevanlinna, "grid_min", counted_refine)
    profile = build_profile(lacunary2, RadiusGrid(1.0, 4.0, 2.0 ** 0.5))
    assert len(profile.samples) == len(scans) == sum(quadratures) == sum(extrema) == 5
    # every circle's brackets enter the one lockstep pass, once, in circle order
    brackets = [np.concatenate([lo, hi]) for (_, lo), (_, hi)
                in (nevanlinna._modulus_scan(lacunary2, s.r) for s in profile.samples)]
    assert len(refinements) == 1
    assert np.array_equal(refinements[0][1], np.concatenate(brackets))


def test_profile_and_characteristic_agree_on_T(expz):
    sample = build_profile(expz, RadiusGrid(2.0, 4.0, 2.0)).samples[0]
    assert characteristic(expz, 2.0) == sample.T


# ---------------------------------------------------------------------------
# circles in lockstep against circles one at a time
# ---------------------------------------------------------------------------


def _lockstep_and_alone(f, radii):
    """The quadrature and refinement of the circles radii, once all in
    lockstep and once one circle at a time."""
    quadrature = nevanlinna._proximity_detail
    refinement = nevanlinna._modulus_extrema
    together = quadrature(f, radii), refinement(f, radii)
    alone = [quadrature(f, [r])[0] for r in radii], [refinement(f, [r])[0] for r in radii]
    return together, alone


_MIXED_RADII = [0.5, 1.0, 1.7, 3.0, 8.724061861322067, 40.0, 100.0]


@pytest.mark.parametrize("name", corpus_names())
def test_lockstep_circles_equal_circles_alone(name):
    together, alone = _lockstep_and_alone(corpus_function(name), _MIXED_RADII)
    assert together == alone


@pytest.mark.parametrize("source, radii", [
    ("exp(z) + 0.5*i", _MIXED_RADII),   # the full-circle route
    ("z - 1", [0.5, 1.0, 2.0]),         # a zero on the circle r = 1
    ("1/(z-1)", [0.5, 1.0, 2.0]),       # a pole on the circle r = 1
])
def test_lockstep_circles_equal_circles_alone_on_both_routes(source, radii):
    together, alone = _lockstep_and_alone(parse(source), radii)
    assert together == alone


def test_lockstep_profile_equals_circles_alone_with_nudged_radii():
    f = parse("1/(exp(z)-2)")
    # the grid starts on the pole log 2, so its first circle is nudged
    samples = build_profile(f, RadiusGrid(math.log(2.0), 16.0, 2.0 ** 0.125)).samples
    assert any(s.perturbed_from is not None for s in samples)
    radii = [s.r for s in samples]
    _, (details, extrema) = _lockstep_and_alone(f, radii)
    got = [((s.m, s.quadrature_nodes, s.m_converged), (s.log_L, s.log_M)) for s in samples]
    assert got == list(zip(details, extrema))


def test_lockstep_circles_equal_circles_alone_past_the_node_cap(monkeypatch, tanz):
    # with the cap at 3000 nodes the circle next to a pole stops early, and
    # the others converge: the lockstep drops the one and keeps the rest
    monkeypatch.setattr(nevanlinna, "_QUAD_CAP", 3000)
    together, alone = _lockstep_and_alone(tanz, _MIXED_RADII)
    assert together == alone
    converged = [c for _, _, c in together[0]]
    assert not all(converged) and any(converged)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(tree=_REAL_TREE, radii=st.lists(st.floats(1.0, 6.0), min_size=1, max_size=4))
def test_lockstep_circles_equal_circles_alone_for_real_trees(tree, radii):
    together, alone = _lockstep_and_alone(MeroExpr(tree), [r * math.sqrt(2.0) for r in radii])
    assert together == alone


def test_profile_kernel_calls(monkeypatch, lacunary2):
    # the default analyze grid: 81 circles.  The lockstep makes 196 calls
    # here, 81 of them scans; 1,468 when each circle ran its own levels
    kernel = nevanlinna.log_modulus
    calls = []

    def counted(g, z):
        calls.append(z.size)
        return kernel(g, z)

    monkeypatch.setattr(nevanlinna, "log_modulus", counted)
    build_profile(lacunary2, RadiusGrid(1.0, 1000.0, 2.0 ** 0.125))
    assert len(calls) <= 220
    assert max(calls) <= nevanlinna._CALL_POINTS


@pytest.mark.parametrize("name", ["expz", "canprod4", "lacunary2", "tanz"])
def test_panel_shares_equal_rows_alone(name):
    # a BLAS product g @ w rounds a row differently with its place in the
    # block; each panel's share must not depend on the panels beside it
    f = corpus_function(name)
    rng = np.random.default_rng(11)
    for rows in (5, 64, 300):
        r = 10.0 ** rng.uniform(0.0, 3.0, rows)
        left = rng.uniform(0.0, 2.0 * math.pi, rows)
        width = 2.0 * math.pi / 2 ** rng.integers(6, 14)
        g, share = nevanlinna._panel_level(f, r, left, width)
        for i in range(rows):
            g_i, share_i = nevanlinna._panel_level(f, r[i:i + 1], left[i:i + 1], width)
            assert np.array_equal(g_i[0], g[i])
            assert share_i[0] == share[i]


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


def _golden_min_all_steps(fun, a, b, tol):
    """Reference: golden_min whose brackets all step until the widest is at
    most tol wide; on one bracket that is golden_min's own rule."""

    def probe(x):
        v = fun(x)
        return np.where(np.isnan(v), np.inf, v)

    xc = c = b - nevanlinna._INVPHI * (b - a)
    xd = d = a + nevanlinna._INVPHI * (b - a)
    fc, fd = probe(c), probe(d)
    probes = 2
    while float(np.max(b - a)) > tol:
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - nevanlinna._INVPHI * (b - a)
        d = a + nevanlinna._INVPHI * (b - a)
        x = np.where(left, c, d)
        fresh = probe(x)
        probes += 1
        xc, xd = np.where(left, x, xd), np.where(left, xc, x)
        fc, fd = np.where(left, fresh, fd), np.where(left, fc, fresh)
    return np.where(fc < fd, xc, xd), np.minimum(fc, fd), probes


def test_golden_min_brackets_stop_at_their_own_width():
    tol = 1e-4
    # brackets of widths from under tol to 3: each takes its own steps
    a = np.array([0.0, 0.3, -2.0, 5.0, 1.0, 2.0])
    b = a + np.array([1.0, 0.01, 3.0, 0.5e-4, 0.5, 1.0 / 32.0])
    seen = []

    def fun(x):
        seen.append(~np.isnan(x))
        return np.cos(7.0 * x) + 0.1 * x

    x, value, probes = golden_min(fun, a, b, tol)
    seen = np.array(seen)
    assert probes == len(seen)
    for i in range(a.size):
        alone = _golden_min_all_steps(lambda t: np.cos(7.0 * t) + 0.1 * t, a[i], b[i], tol)
        assert (x[i], value[i]) == (float(alone[0]), float(alone[1]))
        # the bracket's abscissa reads NaN once it is closed, never before
        assert seen[:, i].tolist() == [True] * alone[2] + [False] * (probes - alone[2])
        assert golden_min(lambda t: np.cos(7.0 * t) + 0.1 * t, a[i], b[i], tol)[2] == alone[2]


@pytest.mark.parametrize("tol", [1e-4, 1e-9])
@pytest.mark.parametrize("width", [1.0, 2.0 / 64.0, 1.0 / 64.0 - 1e-9, 1e-5])
def test_golden_min_on_one_bracket_takes_every_step(width, tol):
    def fun(x):
        return np.abs(np.sin(3.0 * x) - 0.2)

    got = golden_min(fun, 1.0, 1.0 + width, tol)
    want = _golden_min_all_steps(fun, 1.0, 1.0 + width, tol)
    assert (float(got[0]), float(got[1]), got[2]) == (float(want[0]), float(want[1]), want[2])


# ---------------------------------------------------------------------------
# the nested-grid helper
# ---------------------------------------------------------------------------

# the golden-section brackets above, as centre +- half width
_CENTRES = _MINIMISERS + (_ABOVE - _BELOW) / 2.0
_HALF_WIDTHS = (_BELOW + _ABOVE) / 2.0


@pytest.mark.parametrize("shape", [np.square, np.abs])
def test_grid_min_finds_each_bracket_minimiser(shape):
    tol = 1e-9

    def fun(x):
        return shape(x - _MINIMISERS[:, None])

    x, value, _ = grid_min(fun, _CENTRES, _HALF_WIDTHS, tol)
    assert x.shape == value.shape == _MINIMISERS.shape
    assert np.all(np.abs(x - _MINIMISERS) <= tol)
    assert np.array_equal(value, fun(x[:, None])[:, 0])


def test_grid_min_takes_scalar_brackets():
    x, value, _ = grid_min(lambda x: (x - 0.3) ** 2, 0.5, 0.5, 1e-9)
    assert float(x) == pytest.approx(0.3, abs=1e-9)
    assert float(value) == (float(x) - 0.3) ** 2


def test_grid_min_never_returns_a_nan_probe():
    def fun(x):
        # NaN on a band around each minimiser, and everywhere in the last bracket
        v = np.square(x - _MINIMISERS[:, None])
        v = np.where(np.abs(x - _MINIMISERS[:, None]) < 0.05, np.nan, v)
        v[-1] = np.nan
        return v

    x, value, _ = grid_min(fun, _CENTRES, _HALF_WIDTHS, 1e-9)
    assert not np.isnan(value).any()
    assert value[-1] == math.inf and x[-1] == _CENTRES[-1]
    assert not np.isnan(fun(x[:, None])[:-1, 0]).any()
    assert np.all(np.abs(x - _MINIMISERS)[:-1] >= 0.05)


def test_grid_min_counts_its_calls():
    calls = []

    def fun(x):
        calls.append(x)
        return np.abs(x - _MINIMISERS[:, None])

    for tol in (1.0, 1e-3, 1e-12):
        calls.clear()
        _, _, levels = grid_min(fun, _CENTRES, _HALF_WIDTHS, tol)
        assert levels == len(calls)
        # one call per level, each with every bracket's 33 points
        assert all(x.shape == (_MINIMISERS.size, 33) for x in calls)
    assert levels > 2


def test_grid_min_on_a_constant_is_deterministic():
    centre, half, tol = np.array([0.5, 0.5]), np.array([0.5, 1.5]), 1e-10
    first = grid_min(lambda x: np.full(x.shape, 7.0), centre, half, tol)
    second = grid_min(lambda x: np.full(x.shape, 7.0), centre, half, tol)
    assert np.array_equal(first[0], second[0]) and first[2] == second[2]
    assert np.array_equal(first[1], [7.0, 7.0])
    # ties go to the point nearest the centre, so the centre is kept
    assert np.array_equal(first[0], centre)


@pytest.mark.parametrize("name", corpus_names())
def test_a_refined_circle_makes_at_most_seven_kernel_calls(monkeypatch, name):
    # up to 16 brackets of 3.1e-3 rad, all in each call and 16 times
    # narrower per level: 7 levels reach 1e-10 rad
    f = corpus_function(name)
    calls = []

    def recorded(g, z):
        calls.append(z.size)
        return log_modulus(g, z)

    for r in (0.5, 3.0, 40.0):
        # the scan is taken beforehand, so only the refinement's calls count
        scan = nevanlinna._modulus_scan(f, r)
        monkeypatch.setattr(nevanlinna, "_modulus_scan", lambda g, t: scan)
        monkeypatch.setattr(nevanlinna, "log_modulus", recorded)
        calls.clear()
        nevanlinna._modulus_extrema(f, [r])
        monkeypatch.undo()
        assert len(calls) <= 7
        assert all(size > 16 for size in calls)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(tree=_REAL_TREE, radius=st.floats(1.0, 6.0))
def test_grid_refinement_matches_golden_section(tree, radius):
    f, r = MeroExpr(tree), radius * math.sqrt(2.0)
    step = 2.0 * math.pi / 4096
    (lo, lo_centers), (hi, hi_centers) = nevanlinna._modulus_scan(f, r)
    for sign, scan, centers, value in ((1.0, lo, lo_centers, log_min_modulus(f, r)),
                                       (-1.0, hi, hi_centers, log_max_modulus(f, r))):
        # never worse than the scan
        assert sign * value <= sign * scan
        if centers.size == 0:
            assert value == scan
            continue
        _, refined, _ = golden_min(lambda t: sign * log_modulus(f, r * np.exp(1j * t)),
                                   centers - step, centers + step, 1e-10)
        golden = sign * min(sign * scan, float(refined.min()))
        if math.isinf(golden):
            assert value == golden
        else:
            assert abs(value - golden) <= 1e-12 * max(1.0, abs(golden))


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


@pytest.mark.parametrize("bounds", [(1.0, math.inf), (1.0, math.nan), (-math.inf, 10.0),
                                    (1.0, 10.0, math.inf)])
def test_radius_grid_refuses_non_finite_values(bounds):
    with pytest.raises(ValueError, match="finite"):
        RadiusGrid(*bounds)


def test_profile_identities(exp_profile):
    for s in exp_profile.samples:
        assert s.T == s.m + s.N
        assert s.L <= s.M
        assert s.m_converged
    radii = exp_profile.radii()
    assert (np.diff(radii) > 0).all()


def test_tan_profile_quadrature_converges(tan_profile):
    assert all(s.m_converged for s in tan_profile.samples)


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
    assert first.record()["perturbed_from"] == first.perturbed_from
    assert first.r > math.pi / 2
    assert math.isfinite(first.M)


@pytest.mark.parametrize("pole", [64.0, 512.0])
def test_profile_perturbs_the_last_grid_radius(pole):
    # radii 1, 8, 64, 512: the last one lies past r_max, and its nudges
    # reach 512 * 8^(1/2); the catalog must cover them
    f = parse("1/(z-%r)" % pole)
    sample = build_profile(f, RadiusGrid(1.0, 100.0, 8.0)).samples[round(math.log(pole, 8))]
    assert sample.perturbed_from == pole
    assert sample.r == pole * 8.0 ** (1.0 / 16.0)
    assert math.isfinite(sample.log_L) and math.isfinite(sample.log_M)


def test_profile_holds_its_function():
    source = "exp(z) + 1/(z-16)"
    assert build_profile(source, RadiusGrid(1.0, 100.0)).function == as_expr(source)


def test_profile_catalogs_stop_at_the_reach_of_its_nudges(monkeypatch):
    # the last radius of [0.5, 50] at ratio 2^(1/8) is 2^(54/8) / 2 = 53.8,
    # whose nudges reach 53.8 * 2^(1/16) = 56.2: no catalog needs a bucket
    # past 64
    asked = []
    catalog_at = poles._catalog_at

    def recorded(f, radius):
        asked.append(radius)
        return catalog_at(f, radius)

    monkeypatch.setattr(poles, "_catalog_at", recorded)
    samples = build_profile(parse("1/(exp(z)-2)"), RadiusGrid(0.5, 50.0)).samples
    assert samples[-1].r == pytest.approx(0.5 * 2.0 ** (54 / 8), rel=1e-12)
    assert max(asked) == 64.0


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


def test_growth_grid_refuses_what_no_profile_can_pass():
    for grid, message in ((RadiusGrid(1.0, 50.0), "two decades"),
                          (RadiusGrid(1.0, 1000.0, 2.0), "16 samples")):
        with pytest.raises(InsufficientSpanError, match=message):
            growth_grid(grid)
    growth_grid(RadiusGrid(1.0, 100.0))
    # the top circle of this grid, 98.5, lies on a pole: the profile nudges
    # it to 100.2, past two decades, so the grid alone is not refused
    grid = RadiusGrid(1.0, 98.0, 1.31)
    top = float(grid.radii()[-1])
    growth_grid(grid)
    profile = build_profile(f"exp(z) + 1/(z - {top!r})", grid)
    assert top < 99.9 < profile.samples[-1].r and profile.samples[-1].perturbed_from == top
    growth_summary(profile)


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
