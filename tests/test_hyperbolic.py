import cmath
import math

import numpy as np
import pytest
from scipy.special import stdtr
from scipy.stats import linregress

from merolab import (
    Annulus,
    Disk,
    HalfPlane,
    HyperbolicSample,
    NonEscapingSampleError,
    OutsideDomainError,
    PolygonDomain,
    PuncturedPlane,
    UnsupportedDomainError,
    circle_bound_constant_audit,
    corpus_function,
    distortion_check,
    domain_constant,
    hyperbolic_density,
    hyperbolic_distance,
    schwarz_pick_check,
    trace_radius_recursion,
)
from merolab.hyperbolic import _sample_domain, _t_tail, _trend
from merolab.nevanlinna import characteristic

_SQUARE = PolygonDomain((0j, 1.0 + 0j, 1.0 + 1.0j, 1.0j))


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def test_domain_validation():
    with pytest.raises(ValueError):
        Disk(0j, 0.0)
    with pytest.raises(ValueError):
        HalfPlane(0j, 0j)
    with pytest.raises(ValueError):
        Annulus(0j, 2.0, 1.0)
    with pytest.raises(ValueError):
        PuncturedPlane((1j,))
    with pytest.raises(ValueError):
        PuncturedPlane((1j, 1j))
    with pytest.raises(ValueError):
        PolygonDomain((0j, 1.0))


def test_polygon_membership_and_distance():
    assert _SQUARE.contains(0.5 + 0.5j)
    assert not _SQUARE.contains(1.5 + 0.5j)
    assert _SQUARE.boundary_distance(0.5 + 0.5j) == pytest.approx(0.5)
    assert _SQUARE.boundary_distance(0.25 + 0.5j) == pytest.approx(0.25)


def test_sample_bracket_is_validated():
    with pytest.raises(ValueError):
        HyperbolicSample(0j, 5.0, 0.1, 1.0, 1.0, True)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def test_density_disk_anchors():
    s = hyperbolic_density(Disk(), 0j)
    assert s.density == pytest.approx(1.0)
    assert s.exact and s.boundary_distance == pytest.approx(1.0)
    assert hyperbolic_density(Disk(), 0.5).density == pytest.approx(4.0 / 3.0)
    assert hyperbolic_density(Disk(2.0, 3.0), 2.0).density == pytest.approx(1.0 / 3.0)


def test_density_half_plane_anchors():
    assert hyperbolic_density(HalfPlane(), 1.0).density == pytest.approx(0.5)
    assert hyperbolic_density(HalfPlane(), 3.0 + 4.0j).density == pytest.approx(1.0 / 6.0)


def test_density_annulus_middle_is_closed_form():
    ring = Annulus(0j, 1.0, math.e**2)
    s = hyperbolic_density(ring, math.e + 0j)
    assert s.exact
    assert s.density == pytest.approx(math.pi / (4.0 * math.e), rel=1e-12)
    assert s.lower == s.upper == s.density


def test_density_polygon_brackets_reciprocal_distance():
    s = hyperbolic_density(_SQUARE, 0.5 + 0.5j)
    assert not s.exact
    assert s.density == pytest.approx(2.0)
    assert s.lower == pytest.approx(1.0)
    assert s.upper == pytest.approx(4.0)


def test_density_punctured_plane_bounds():
    pp = PuncturedPlane((0j, 1.0))
    far = hyperbolic_density(pp, 10.0)
    assert not far.exact
    assert far.lower == 0.0
    assert far.upper == pytest.approx(1.0 / 9.0)
    near = hyperbolic_density(pp, 1e-3)
    assert near.upper == pytest.approx(1.0 / (2e-3 * math.log(1e3)), rel=1e-12)


def test_density_bracket_covers_exact_value():
    # the two-sided boundary-distance bracket on simply connected domains
    rng = np.random.default_rng(3)
    for domain in (Disk(), Disk(1.0 + 2.0j, 3.0), HalfPlane(1.0j, 1.0 + 1.0j)):
        for z in _sample_domain(domain, 1000, rng):
            s = hyperbolic_density(domain, complex(z))
            assert s.exact
            assert s.lower <= s.density <= s.upper


def test_density_outside_and_unsupported():
    with pytest.raises(OutsideDomainError):
        hyperbolic_density(Disk(), 2.0)
    with pytest.raises(OutsideDomainError):
        hyperbolic_density(PuncturedPlane((0j, 1.0)), 1.0)

    class Everything:
        def contains(self, z):
            return True

    with pytest.raises(UnsupportedDomainError):
        hyperbolic_density(Everything(), 0j)


# ---------------------------------------------------------------------------
# distance and the contraction inequality
# ---------------------------------------------------------------------------


def test_distance_disk_anchor():
    for r in (0.1, 0.5, 0.9):
        assert hyperbolic_distance(Disk(), 0j, r) == pytest.approx(math.atanh(r))


def test_distance_half_plane_anchor():
    # doubling the boundary distance costs log(2)/2 under curvature -4
    assert hyperbolic_distance(HalfPlane(), 1.0, 2.0) == pytest.approx(
        math.log(2.0) / 2.0, rel=1e-12
    )


def test_distance_metric_axioms():
    rng = np.random.default_rng(17)
    pts = _sample_domain(Disk(), 30, rng)
    for a, b, c in zip(pts[:10], pts[10:20], pts[20:]):
        ab = hyperbolic_distance(Disk(), a, b)
        ba = hyperbolic_distance(Disk(), b, a)
        assert ab == pytest.approx(ba, rel=1e-12)
        assert ab >= 0.0
        ac = hyperbolic_distance(Disk(), a, c)
        cb = hyperbolic_distance(Disk(), c, b)
        assert ab <= ac + cb + 1e-12


def test_distance_unsupported_domain():
    ring = Annulus(0j, 1.0, 4.0)
    with pytest.raises(UnsupportedDomainError):
        hyperbolic_distance(ring, 2.0, 3.0)
    with pytest.raises(OutsideDomainError):
        hyperbolic_distance(Disk(), 0j, 2.0)


def test_contraction_for_interior_maps():
    rng = np.random.default_rng(23)
    maps = []
    for _ in range(40):
        a = complex(*(0.6 * (rng.random(2) - 0.5)))
        theta = 2.0 * math.pi * rng.random()

        def mobius(z, a=a, theta=theta):
            w = cmath.exp(1j * theta) * z
            return (w - a) / (1.0 - a.conjugate() * w)

        def squeeze(z, a=a):
            return 0.5 * (z * z + a)

        maps.append((mobius, True))
        maps.append((squeeze, False))
    for f, isometry in maps:
        z1 = complex(*(0.8 * (rng.random(2) - 0.5)))
        z2 = complex(*(0.8 * (rng.random(2) - 0.5)))
        lhs, rhs, ok = schwarz_pick_check(Disk(), Disk(), f, z1, z2)
        assert ok
        if isometry:
            assert lhs == pytest.approx(rhs, abs=1e-9)
        elif z1 != z2:
            assert lhs < rhs


def test_contraction_cayley_is_isometry():
    def cayley(z):
        return (1.0 + z) / (1.0 - z)

    lhs, rhs, ok = schwarz_pick_check(Disk(), HalfPlane(), cayley, 0j, 0.3 + 0.4j)
    assert ok
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_contraction_rejects_non_self_maps():
    with pytest.raises(ValueError):
        schwarz_pick_check(Disk(), Disk(), lambda z: 2.0 * z, 0j, 0.5)


# ---------------------------------------------------------------------------
# domain constant
# ---------------------------------------------------------------------------


def test_domain_constant_disk_boundary_anchor():
    got = domain_constant(Disk(), 1.0)
    # inf over x of (1 - x) / (1 - x^2) = 1/2, approached at the boundary
    assert got.value >= 0.5
    assert got.value == pytest.approx(0.5, abs=5e-4)
    assert got.samples > 48 * 64


def test_domain_constant_disk_exact_interior_minimum():
    got = domain_constant(Disk(), 3.0)
    assert got.value == pytest.approx((3.0 + 2.0 * math.sqrt(2.0)) / 2.0, rel=1e-3)


def test_domain_constant_needs_outside_anchor():
    with pytest.raises(ValueError):
        domain_constant(Disk(), 0.5)
    with pytest.raises(ValueError):
        domain_constant(Disk(), 1.0, n_radial=1)


def test_domain_constant_vanishes_at_punctures():
    # the sampled constant keeps dropping as the grid approaches the
    # puncture, the signature separating these from honest boundaries
    pp = PuncturedPlane((0j, 1.0))
    values = [
        domain_constant(pp, 0j, r_min=r).value for r in (1e-6, 1e-12, 1e-18)
    ]
    assert values[0] > values[1] > values[2] > 0.0
    disk_value = domain_constant(Disk(), 1.0).value
    assert values[-1] < 0.1 * disk_value


# ---------------------------------------------------------------------------
# distortion along escaping orbits
# ---------------------------------------------------------------------------


def test_distortion_bounded_for_parabolic_drift(fatou):
    samples = [5.0 + k * 0.05 for k in range(21)]
    rep = distortion_check(fatou, samples, 30, r_esc=50.0)
    assert rep.steps_used == 30
    assert not rep.truncated
    assert rep.max_ratio < 1.2
    assert not rep.trend_detected
    assert rep.p_value > 0.5
    assert rep.as_dict()["max_ratio"] == rep.max_ratio


def test_distortion_detects_polynomial_spread(zsq):
    rep = distortion_check(zsq, [2.0, 4.0], 12)
    assert rep.truncated
    assert rep.steps_used == 8
    assert rep.trend_detected
    assert rep.slope > 0.0
    assert rep.p_value < 0.05
    # the log spread doubles every step: ratio after n steps is 2^(2^n)
    assert rep.per_step[2] == pytest.approx(2.0**8, rel=1e-9)


def test_distortion_degenerate_sample_is_flat(zsq):
    rep = distortion_check(zsq, [2.0, 2.0], 6)
    assert set(rep.per_step) == {1.0}
    assert rep.max_ratio == 1.0
    assert not rep.trend_detected


def test_distortion_rejects_non_escaping(zsq):
    with pytest.raises(NonEscapingSampleError):
        distortion_check(zsq, [0.5, 2.0], 8)
    # the first sample that does not escape is named
    with pytest.raises(NonEscapingSampleError,
                       match=r"^sample 1 \(\(0\.5\+0j\)\) classified ATTRACTED, not escaping$"):
        distortion_check(zsq, [2.0, 0.5], 8)
    with pytest.raises(ValueError, match="escape radius"):
        distortion_check(zsq, [2.0], 8, r_esc=5.0)
    with pytest.raises(ValueError):
        distortion_check(zsq, [], 8)
    with pytest.raises(ValueError):
        distortion_check(zsq, [2.0], 1)


def _linregress_trend(logs):
    # the reference: scipy's two-sided p-value, halved for a positive slope
    half = len(logs) // 2
    fit = linregress(np.arange(half + 1, len(logs) + 1, dtype=float), logs[half:])
    p = fit.pvalue / 2.0 if fit.slope > 0 else 1.0 - fit.pvalue / 2.0
    return float(fit.slope), float(p)


def test_t_tail_matches_stdtr():
    deepest = 1.0
    for nu in range(1, 61):
        for size in (0.0, 1e-8, 0.5, 3.0, 40.0, 1e3, 1e6, 1e10, 1e100, 1e299):
            for t in (size, -size):
                got = _t_tail(nu, t)
                # stdtr reads 0.49999999526 for nu = 1 at t = 1e-8, 3.1e-9
                # off the Cauchy tail
                want = math.atan2(1.0, t) / math.pi if nu == 1 else float(stdtr(nu, -t))
                if want < 1e-300:
                    assert got < 1e-290
                    continue
                deepest = min(deepest, want)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert _t_tail(nu, math.inf) == 0.0
        assert _t_tail(nu, -math.inf) == 1.0
    assert deepest < 1e-299


def test_trend_matches_linregress_on_noisy_series():
    rng = np.random.default_rng(20)
    for _ in range(500):
        n = int(rng.integers(6, 60))
        trend = rng.normal() * rng.choice([1e-3, 1.0, 10.0])
        # noise at least the per-step trend, where scipy's stderr is accurate
        noise = abs(trend) * rng.uniform(1.0, 100.0)
        logs = trend * np.arange(1, n + 1) + noise * rng.standard_normal(n) + rng.normal()
        slope, p = _trend(logs)
        ref_slope, ref_p = _linregress_trend(logs)
        assert slope == pytest.approx(ref_slope, rel=1e-13)
        assert p == pytest.approx(ref_p, rel=2.8e-12)


@pytest.mark.parametrize(
    "name, samples, n_max, r_esc",
    [
        ("fatou", [5.0 + k * 0.05 for k in range(21)], 30, 50.0),
        ("zsq", [2.0, 4.0], 12, 1e6),
    ],
)
def test_distortion_trend_matches_linregress(name, samples, n_max, r_esc):
    rep = distortion_check(corpus_function(name), samples, n_max, r_esc=r_esc)
    ref_slope, ref_p = _linregress_trend(np.log(rep.per_step))
    assert rep.slope == pytest.approx(ref_slope, rel=1e-12)
    assert rep.p_value == pytest.approx(ref_p, rel=2.8e-12)
    assert rep.trend_detected == (ref_slope > 0 and ref_p < 0.05)


# ---------------------------------------------------------------------------
# radius recursion trace
# ---------------------------------------------------------------------------


def test_trace_exponent_arithmetic():
    st = trace_radius_recursion(0.5, 2.0, 4.0, 24.0)
    assert (st.k, st.h, st.m, st.H) == (2, 4.0, 6, 4096.0)
    # minimality of k and m
    assert st.D ** (st.k - 1) * st.alpha >= 1.0
    assert st.D ** (st.k - 2) * st.alpha < 1.0
    assert st.D ** ((st.m - 1) * st.k - 1) > st.K * st.h**st.m
    assert not st.D ** ((st.m - 2) * st.k - 1) > st.K * st.h ** (st.m - 1)
    d = st.as_dict()
    assert d["derived"] == {"k": 2, "h": 4.0, "m": 6, "H": 4096.0}
    assert d["radii"] == [1.0]


def test_trace_requires_spread_exponents():
    with pytest.raises(ValueError, match="requires D > d"):
        trace_radius_recursion(0.5, 2.0, 2.0)
    with pytest.raises(ValueError):
        trace_radius_recursion(0.5, 1.0, 4.0)
    with pytest.raises(ValueError):
        trace_radius_recursion(0.5, 2.0, 4.0, K=0.0)


def test_trace_clips_alpha():
    assert trace_radius_recursion(1.5, 2.0, 4.0).alpha == 0.99
    assert trace_radius_recursion(0.0, 2.0, 4.0).alpha == 0.01


def test_trace_radius_recursion_for_exp(expz):
    st = trace_radius_recursion(0.5, 2.0, 4.0, 24.0, f=expz, r0=1.0)
    assert st.radii[0] == 1.0
    expected = math.exp(24.0 * characteristic(expz, 3.0))
    assert st.radii[1] == pytest.approx(expected, rel=1e-9)
    assert st.radii[1] == pytest.approx(8980413230.963484, rel=1e-6)
    assert st.radii[2] == "overflow"
    assert st.as_dict()["radii"] == list(st.radii)


def test_trace_curve_separation(zsq):
    st = trace_radius_recursion(0.5, 2.0, 4.0, f=zsq, r0=1.0, curve=[2.0, 3.0], n_max=2)
    steps = st.as_dict()["steps"]
    assert len(steps) == 2
    first = steps[0]
    assert first["n"] == 1
    assert first["z_n"] == [3.0, 0.0]
    assert first["w_n"] == [2.0, 0.0]
    assert first["mod_z"] == pytest.approx(9.0)
    assert first["mod_w"] == pytest.approx(4.0)
    # log 9 is nowhere near H log 4 with H = 4096
    assert first["separation_holds"] is False


# ---------------------------------------------------------------------------
# constant audit
# ---------------------------------------------------------------------------


def test_constant_audit_chain():
    audit = circle_bound_constant_audit()
    assert audit.inverse_log_six_fifths == pytest.approx(5.4848, abs=1e-4)
    assert audit.counting_multiplier == 6.0
    assert audit.six_log_ten_e == pytest.approx(19.8155, abs=1e-4)
    assert audit.kernel_bound == 9.0
    assert audit.ceiling == 24.0
    assert audit.chain_holds
    assert audit.inverse_log_six_fifths <= audit.counting_multiplier
    assert max(audit.kernel_bound, audit.six_log_ten_e) < audit.ceiling
    assert audit.as_dict()["chain_holds"] is True
