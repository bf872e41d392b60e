import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from merolab import (
    CriterionParams,
    DensityReport,
    NotEntireError,
    RadiusGrid,
    build_profile,
    check_L_over_r,
    check_L_versus_M,
    check_deficiency_order,
    check_entire_conditions,
    check_growth_chain,
    check_main,
    check_strong,
    characteristic,
    corpus_function,
    corpus_names,
    exceptional_set,
    log_density,
    log_max_modulus,
    log_min_modulus,
    nevanlinna,
    parse,
)
from merolab.criteria import Witness, _ladder_exponents, _search_log_L_many, _searches, _verdict
from merolab.corpus import CORPUS
from merolab.dynamics import absorbing_half_plane
from merolab.nevanlinna import InsufficientSpanError, RadialProfile, golden_min

_GRID = RadiusGrid(1.0, 1000.0)
_SHORT = RadiusGrid(10.0, 100.0)


@functools.lru_cache(maxsize=None)
def _profile(f, grid=_GRID):
    return build_profile(f, grid)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_params_validation():
    CriterionParams(0.3, 2.0, 1.5)  # D < d is allowed at the type level
    with pytest.raises(ValueError):
        CriterionParams(0.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        CriterionParams(1.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        CriterionParams(0.5, 1.0, 4.0)
    with pytest.raises(ValueError):
        CriterionParams(0.5, 2.0, 1.0)


# ---------------------------------------------------------------------------
# L(r)/r decade doubling
# ---------------------------------------------------------------------------


def test_L_over_r_exp_fails(expz):
    v = check_L_over_r(_profile(expz))
    assert v.condition == "L-over-r-growth"
    assert not v.holds_on_grid
    assert v.first_failure is not None


def test_L_over_r_monomial_holds(zsq):
    v = check_L_over_r(_profile(zsq))
    assert v.holds_on_grid
    # L(r)/r = r, so each decade multiplies the running maximum by 10
    for w in v.witnesses:
        assert w.lhs >= w.rhs - 1e-9


def test_L_over_r_fatou_fails(fatou):
    assert not check_L_over_r(_profile(fatou)).holds_on_grid


def test_L_over_r_lacunary_holds(lacunary2):
    v = check_L_over_r(_profile(lacunary2, RadiusGrid(1.0, 1.0e6, 2.0**0.25)))
    assert v.holds_on_grid


def test_L_over_r_needs_three_decades(expz):
    with pytest.raises(InsufficientSpanError):
        check_L_over_r(_profile(expz, RadiusGrid(1.0, 100.0)))


# ---------------------------------------------------------------------------
# main criterion
# ---------------------------------------------------------------------------


def test_main_exp_fails_at_warmup_edge(expz):
    v = check_main(_profile(expz), CriterionParams(0.5, 2.0, 4.0))
    assert v.condition == "main-growth"
    assert not v.holds_on_grid
    # the first tested radius at or past the warmup is 2^(27/8)
    assert v.first_failure["r"] == pytest.approx(2.0 ** (27.0 / 8.0), rel=1e-12)


def test_main_fatou_fails_past_forty(fatou):
    v = check_main(_profile(fatou), CriterionParams(0.5, 2.0, 4.0))
    assert not v.holds_on_grid
    assert 40.0 < v.first_failure["r"] < 43.0


def test_no_corpus_map_with_an_absorbing_half_plane_passes_main():
    # an absorbing half-plane lies in an unbounded Fatou component (a Baker
    # domain), which the main growth condition rules out: every certified
    # map must fail it
    certified = [name for name in corpus_names()
                 if absorbing_half_plane(corpus_function(name)) is not None]
    assert certified == ["fatou"]
    for name in certified:
        v = check_main(_profile(corpus_function(name)), CriterionParams(0.5, 2.0, 4.0))
        assert v.condition == "main-growth"
        assert not v.holds_on_grid


def test_main_canprod_holds(canprod_main):
    assert canprod_main.holds_on_grid
    assert canprod_main.first_failure is None
    # two witnesses per tested radius: the t-search hit and the T growth
    assert len(canprod_main.witnesses) == 110
    for w in canprod_main.witnesses:
        assert w.lhs > w.rhs
        assert w.margin == pytest.approx(w.lhs - w.rhs, abs=1e-12)


def test_main_canprod_witness_replay(canprod4, canprod_main):
    # witnesses alternate per radius: the t-search hit, then the T growth
    searched = canprod_main.witnesses[0::2][:5]
    assert all(w.r < w.t < w.r**2.0 for w in searched)
    for w in searched:
        # recomputing log L at a stored t must reproduce the stored lhs
        again = float(log_min_modulus(canprod4, w.t))
        assert again == pytest.approx(w.lhs, abs=1e-9)


def test_main_alpha_only_scales_rhs(zsq):
    lo = check_main(_profile(zsq, _SHORT), CriterionParams(0.15, 2.0, 1.5))
    hi = check_main(_profile(zsq, _SHORT), CriterionParams(0.3, 2.0, 1.5))
    assert lo.holds_on_grid and hi.holds_on_grid
    # the t-search does not depend on alpha, so the witnesses align
    assert [w.t for w in lo.witnesses] == [w.t for w in hi.witnesses]
    assert [w.lhs for w in lo.witnesses] == [w.lhs for w in hi.witnesses]


def test_main_enlarging_d_preserves_success(zsq):
    narrow = check_main(_profile(zsq, _SHORT), CriterionParams(0.3, 2.0, 1.5))
    wide = check_main(_profile(zsq, _SHORT), CriterionParams(0.3, 2.5, 1.5))
    assert narrow.holds_on_grid and wide.holds_on_grid
    pairs = zip(narrow.witnesses, wide.witnesses)
    for w_narrow, w_wide in pairs:
        if w_narrow.t > w_narrow.r:  # t-search witnesses only
            assert w_wide.lhs >= w_narrow.lhs - 1e-9


# ---------------------------------------------------------------------------
# the grid checks read the profile
# ---------------------------------------------------------------------------


def _circle_by_circle_checks(f, grid, alpha, d, D, functionals):
    """The four grid checks as built from T, log L and log M recomputed at
    each grid radius r by functionals(r), the circle searches as they are,
    all on one profile without samples."""
    circles = RadialProfile((), f)
    radii = [float(r) for r in grid.radii()]
    tested = [r for r in radii if r >= 10.0 * (1.0 - 1e-12)]
    n_dec = int(math.floor(math.log10(radii[-1] / radii[0]) + 1e-9))
    best, best_r = [-math.inf] * n_dec, [0.0] * n_dec
    for r in radii:
        k = min(int(math.log10(r / radii[0]) + 1e-12), n_dec - 1)
        v = functionals[r][1] - math.log(r)
        if v > best[k]:
            best[k], best_r[k] = v, r

    def decades():
        for k in range(1, n_dec):
            lhs, rhs = best[k], best[k - 1] + math.log(2.0)
            yield (lhs > rhs, best_r[k], Witness(best_r[k], best_r[k - 1], lhs, rhs, lhs - rhs),
                   "decade maximum of L(r)/r failed to double")

    def main():
        for r in tested:
            T = functionals[r][0]
            t, lhs = _search_log_L_many(circles, [r], d, closed=False)[0]
            yield (lhs > alpha * T, r, Witness(r, t, lhs, alpha * T, lhs - alpha * T),
                   "no t in (r, r^d) lifts log L above alpha*T(r)")
            grown = characteristic(f, r**d)
            yield (grown >= D * T, r, Witness(r, r**d, grown, D * T, grown - D * T),
                   "characteristic at r^d fell below D*T(r)")

    def versus():
        for r in tested:
            t, lhs = _search_log_L_many(circles, [r], d, closed=True)[0]
            rhs = d * functionals[r][2]
            yield (lhs - rhs >= -1e-9, r, Witness(r, t, lhs, rhs, max(lhs - rhs, 0.0)),
                   "no t in [r, r^d] lifts log L to d*log M(r)")

    def strong():
        for r in tested:
            t, lhs = _search_log_L_many(circles, [r], d, closed=True)[0]
            rhs = D * functionals[r][0]
            yield (lhs > rhs, r, Witness(r, t, lhs, rhs, lhs - rhs),
                   "no t in [r, r^d] lifts log L above D*T(r)")

    return [_verdict("L-over-r-growth", decades()), _verdict("main-growth", main()),
            _verdict("L-versus-M", versus()), _verdict("strong-characteristic", strong())]


def _grid_checks(profile, alpha, d, D):
    return [check_L_over_r(profile), check_main(profile, CriterionParams(alpha, d, D)),
            check_L_versus_M(profile, d), check_strong(profile, d, D)]


@pytest.mark.parametrize("name", corpus_names())
def test_grid_checks_equal_circle_by_circle_functionals(name):
    f = corpus_function(name)
    got = _grid_checks(_profile(f), 0.5, 2.0, 4.0)
    # T, log L and log M of each grid circle, one circle at a time
    functionals = {}
    for r in _GRID.radii():
        r = float(r)
        functionals[r] = (characteristic(f, r), *nevanlinna._modulus_extrema(f, [r])[0])
    assert got == _circle_by_circle_checks(f, _GRID, 0.5, 2.0, 4.0, functionals)


def test_grid_checks_read_the_nudged_circle():
    # the pole 16 lies on the first circle of the grid 16, 160, 1600, 16000,
    # which the profile nudges to 16 * 10^(1/16): every check reports that
    # circle, not the grid radius
    grid = RadiusGrid(16.0, 16000.0, 10.0)
    profile = build_profile("exp(z) + 1/(z-16)", grid)
    first = profile.samples[0]
    assert first.perturbed_from == 16.0 and first.r == 16.0 * 10.0 ** (1.0 / 16.0)
    for v in _grid_checks(profile, 0.5, 2.0, 4.0)[1:]:
        assert v.first_failure["r"] == first.r
    # L(r)/r of exp falls, so its first failure is in the second decade; that
    # of z^2 grows, and the nudged circle is the first decade's maximum
    rising = build_profile("z^2 + 1/(z-16)", grid)
    v = check_L_over_r(rising)
    assert v.holds_on_grid and v.witnesses[0].t == rising.samples[0].r == first.r


# ---------------------------------------------------------------------------
# the minimum-modulus ladder search
# ---------------------------------------------------------------------------

_SEARCH_RADII = (10.0, 40.0, 160.0)


@functools.lru_cache(maxsize=None)
def _log_L(expr, r):
    """log_min_modulus, kept by circle: the search references revisit circles."""
    return log_min_modulus(expr, r)


def _search(expr, r, d, closed):
    """The search at radius r on a fresh profile of expr without samples."""
    return _search_log_L_many(RadialProfile((), expr), [r], d, closed)[0]


def _exhaustive_search(expr, r, d, closed):
    """Reference: refine every ladder circle, argmax, golden exponent phase."""
    exps = _ladder_exponents(d, closed)
    vals = [_log_L(expr, r**e) for e in exps]
    k = int(np.argmax(vals))
    best_e, best_v = exps[k], vals[k]
    edge = 0.0 if closed else 1e-9
    a = max(1.0 + edge, best_e - 1.0 / 64.0)
    b = min(d - edge, best_e + 1.0 / 64.0)
    if b > a:
        e, v, _ = golden_min(lambda e: -_log_L(expr, r ** float(e)), a, b, 1e-4)
        if -float(v) > best_v:
            best_e, best_v = float(e), -float(v)
    return r**best_e, best_v


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("name", ["lacunary2", "canprod4", "expz", "fatou", "zsq"])
def test_pruned_search_equals_exhaustive_ladder(name, closed):
    f = corpus_function(name)
    for r in _SEARCH_RADII:
        assert _search(f, r, 2.0, closed) == _exhaustive_search(f, r, 2.0, closed)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("source", ["tan(z)", "1/z", "exp(z) + 0.5*i", "1/(exp(z)-2)"])
def test_pruned_search_equals_exhaustive_ladder_with_poles(source, closed):
    # poles on the ladder circles, and a complex constant (full-circle nodes)
    f = parse(source)
    for r in _SEARCH_RADII:
        assert _search(f, r, 2.0, closed) == _exhaustive_search(f, r, 2.0, closed)


def test_pruned_search_kernel_point_budget(monkeypatch, canprod4):
    kernel = nevanlinna.log_modulus
    points = []

    def counted(g, z):
        points.append(np.size(z))
        return kernel(g, z)

    monkeypatch.setattr(nevanlinna, "log_modulus", counted)
    # a fresh profile, so every circle is evaluated here
    _search(canprod4, 40.0, 2.0, False)
    # 164,703 points when every ladder circle paid a full 4096-node scan
    assert sum(points) <= 50_000


@pytest.mark.parametrize("closed", [False, True])
def test_pruned_search_ties_go_to_first_exponent(closed):
    const = parse("2")
    t, value = _search(const, 10.0, 2.0, closed)
    assert (t, value) == _exhaustive_search(const, 10.0, 2.0, closed)
    assert t == 10.0 ** _ladder_exponents(2.0, closed)[0]
    assert value == log_min_modulus(const, 10.0)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("name", ["lacunary2", "canprod4"])
def test_pruned_search_refines_few_circles(monkeypatch, name, closed):
    f = corpus_function(name)
    refine = nevanlinna.grid_min
    refined = []

    def counted(*args):
        refined.append(args)
        return refine(*args)

    # _modulus_extrema refines each circle in one grid_min pass
    monkeypatch.setattr(nevanlinna, "grid_min", counted)
    for r in _SEARCH_RADII:
        # a fresh profile, so every refined circle is counted once
        refined.clear()
        _search(f, r, 2.0, closed)
        # the exhaustive ladder refines 76-78 circles here
        assert 0 < len(refined) <= 20


@pytest.mark.parametrize("name", ["lacunary2", "canprod4"])
def test_a_check_scans_each_circle_once(monkeypatch, name):
    # the three searching checks on one profile scan each circle off the
    # grid once, and the profile keeps it: check_strong reads
    # check_L_versus_M's closed search from there
    grid = _profile(corpus_function(name))
    profile = RadialProfile(grid.samples, grid.function)  # a fresh memo: the samples only
    scan = nevanlinna._modulus_scan
    scans = []

    def counted(f, r):
        scans.append(r)
        return scan(f, r)

    extrema = RadialProfile.extrema
    asked = []

    def asking(self, radii):
        asked.extend(radii)
        return extrema(self, radii)

    monkeypatch.setattr(nevanlinna, "_modulus_scan", counted)
    monkeypatch.setattr(RadialProfile, "extrema", asking)
    check_main(profile, CriterionParams(0.5, 2.0, 4.0))
    check_L_versus_M(profile, 2.0)
    check_strong(profile, 2.0, 4.0)
    off_grid = set(profile._extrema) - {s.r for s in profile.samples}
    assert sorted(scans) == sorted(off_grid) and scans
    assert len(asked) > len(scans)


def test_two_profiles_share_no_circle(monkeypatch, canprod4):
    # a profile keeps its own circles: a second profile of the same
    # function scans every circle of the search again
    samples = build_profile(canprod4, RadiusGrid(10.0, 40.0, 2.0)).samples
    scans = []
    scan = nevanlinna._modulus_scan
    monkeypatch.setattr(nevanlinna, "_modulus_scan", lambda f, r: scans.append(r) or scan(f, r))
    first = check_L_versus_M(RadialProfile(samples, canprod4), 2.0)
    scanned, scans[:] = scans[:], []
    assert check_L_versus_M(RadialProfile(samples, canprod4), 2.0) == first
    assert scans == scanned and scans


def test_entire_conditions_never_rescan_a_grid_circle(monkeypatch, expz):
    # at ratio 2 the doubled circles 2r of the trailing decade are grid
    # circles but the last: each of those reads its sample
    profile = build_profile(expz, RadiusGrid(1.0, 2.0**15, 2.0))
    grid = {s.r for s in profile.samples}
    scans = []
    scan = nevanlinna._modulus_scan
    monkeypatch.setattr(nevanlinna, "_modulus_scan", lambda f, r: scans.append(r) or scan(f, r))
    check_entire_conditions(profile)
    doubled = {2.0 * r for r in grid if r >= 2.0**15 / 10.0}
    assert doubled & grid == {2.0**13, 2.0**14, 2.0**15}
    assert scans and not grid & set(scans)
    assert 2.0**16 in scans


def test_main_reads_T_of_grid_circles_from_the_samples(monkeypatch, fatou):
    # at the default grid and d = 2 some circles r^d are grid circles;
    # their T is the sample's, and only circles off the grid take a quadrature
    profile = _profile(fatou)
    grid = {s.r for s in profile.samples}
    asked = []
    monkeypatch.setattr("merolab.criteria.characteristic",
                        lambda f, r: asked.append(r) or characteristic(f, r))
    v = check_main(profile, CriterionParams(0.5, 2.0, 4.0))
    tops = {w.t for w in v.witnesses if w.t == w.r**2.0}
    assert tops & grid
    assert asked and not grid & set(asked)


@pytest.mark.parametrize("name", ["zsq", "expz", "canprod4"])
def test_search_in_open_range_below_the_exponent_edge(name):
    # d - 1 < 2e-9 leaves the open exponent range no golden bracket; the
    # witness must still lie strictly inside (r, r^d)
    f = corpus_function(name)
    r, d = 10.0, 1.0 + 1e-10
    t, value = _search(f, r, d, False)
    assert r < t < r**d
    assert value == log_min_modulus(f, t)


# ---------------------------------------------------------------------------
# L versus M and the strong variant
# ---------------------------------------------------------------------------


def test_L_versus_M_exp_fails(expz):
    v = check_L_versus_M(_profile(expz), 2.0)
    assert v.condition == "L-versus-M"
    assert not v.holds_on_grid


def test_L_versus_M_monomial_boundary():
    cubed = parse("z^3")
    v = check_L_versus_M(_profile(cubed, _SHORT), 2.0)
    assert v.holds_on_grid
    for w in v.witnesses:
        # monomials attain equality exactly at t = r^d
        assert w.margin == 0.0
        assert w.t == pytest.approx(w.r**2.0, rel=1e-9)


def test_L_versus_M_lacunary_holds(lacunary2):
    v = check_L_versus_M(_profile(lacunary2, RadiusGrid(100.0, 1600.0, 2.0**0.5)), 2.0)
    assert v.holds_on_grid
    assert min(w.margin for w in v.witnesses) > 10.0


def test_strong_exp_and_reciprocal_fail(expz, invz):
    assert not check_strong(_profile(expz), 2.0, 1.2).holds_on_grid
    assert not check_strong(_profile(invz), 2.0, 1.2).holds_on_grid


def test_strong_canprod_holds(canprod4, canprod_main):
    v = check_strong(_profile(canprod4, RadiusGrid(10.0, 1000.0)), 2.0, 1.2)
    assert v.condition == "strong-characteristic"
    assert v.holds_on_grid


# ---------------------------------------------------------------------------
# deficiency and order
# ---------------------------------------------------------------------------


def test_deficiency_order_canprod(canprod_profile):
    v = check_deficiency_order(canprod_profile)
    assert v.condition == "deficiency-order"
    assert v.holds_on_grid
    assert len(v.witnesses) == 3
    assert all(w.r == 0.0 and w.t == 0.0 for w in v.witnesses)
    order_w, lower_w, defic_w = v.witnesses
    # order subtest stores the bound on the left: lhs = 1/2, rhs = order
    assert order_w.lhs == 0.5
    assert order_w.rhs == pytest.approx(0.25, abs=0.05)
    assert lower_w.lhs > lower_w.rhs == 0.05
    assert defic_w.lhs > defic_w.rhs
    assert defic_w.rhs == pytest.approx(
        1.0 - math.cos(math.pi * order_w.rhs), abs=1e-12
    )


def test_deficiency_order_exp_fails(exp_profile):
    v = check_deficiency_order(exp_profile)
    assert not v.holds_on_grid
    assert len(v.witnesses) == 3  # witnesses recorded even on failure
    # order 1 fails first; the deficiency subtest after it fails too
    assert v.first_failure == {"r": 0.0, "diagnostics": "order stays below one half failed"}
    assert [w.lhs > w.rhs for w in v.witnesses] == [False, True, False]


def test_deficiency_order_tan_fails(tan_profile):
    v = check_deficiency_order(tan_profile)
    assert not v.holds_on_grid
    defic = v.witnesses[2].lhs
    assert defic <= 0.05


# ---------------------------------------------------------------------------
# entire-function conditions
# ---------------------------------------------------------------------------


def test_entire_conditions_exp(exp_profile):
    verdicts = check_entire_conditions(exp_profile)
    names = [v.condition for v in verdicts]
    assert names == [
        "entire-M-ratio",
        "entire-log-derivative",
        "entire-power-doubling",
        "entire-lower-order",
    ]
    assert all(v.holds_on_grid for v in verdicts)


def test_entire_conditions_canprod(canprod_profile):
    verdicts = check_entire_conditions(canprod_profile)
    assert all(v.holds_on_grid for v in verdicts)


@pytest.mark.parametrize("name, profile", [("expz", "exp_profile"), ("canprod4", "canprod_profile")])
def test_power_doubling_witnesses_replay(request, name, profile):
    # every lhs is log M(r^m) itself, out to r^m = 1e18
    f = request.getfixturevalue(name)
    verdicts = check_entire_conditions(request.getfixturevalue(profile))
    witnesses = {v.condition: v for v in verdicts}["entire-power-doubling"].witnesses
    assert max(w.t for w in witnesses) > 1e6
    for w in witnesses:
        assert w.lhs == log_max_modulus(f, w.t)


def test_entire_conditions_monomial_fails(zsq):
    # the lower-order slope for a polynomial decays like 1/log(r), so the
    # grid has to reach ~1e9 before the estimate drops under the floor
    profile = build_profile(zsq, RadiusGrid(1.0, 1.0e12))
    verdicts = {v.condition: v.as_dict() for v in check_entire_conditions(profile)}
    # each failing verdict keeps every witness, and its first failure sits
    # on a grid radius 2^(k/8)
    for name, count, k, diagnostics in (
        ("entire-log-derivative", 26, 293, "logarithmic derivative dropped to 1 or below"),
        ("entire-power-doubling", 79, 213, "power test failed at m=2"),
    ):
        v = verdicts[name]
        assert not v["holds_on_grid"]
        assert len(v["witnesses"]) == count
        assert v["first_failure"]["r"] == pytest.approx(2.0 ** (k / 8), rel=1e-12)
        assert v["first_failure"]["diagnostics"] == diagnostics
    lower = verdicts["entire-lower-order"]
    assert not lower["holds_on_grid"] and len(lower["witnesses"]) == 1
    assert lower["first_failure"] == {"r": 0.0, "diagnostics": "lower-order estimate at or below 0.05"}


def test_power_doubling_without_bases_keeps_the_other_powers(expz):
    # the ratio-4 grid holds two base radii in [top/10, top] for m = 2 and
    # 4, but only 64 in [1e18^(1/8)/10, 1e18^(1/8)] for m = 8
    profile = build_profile(expz, RadiusGrid(2.0**-18, 2.0**14, 4.0))
    v = check_entire_conditions(profile)[2]
    assert v.condition == "entire-power-doubling" and not v.holds_on_grid
    assert v.first_failure == {"r": 16384.0, "diagnostics": "fewer than two usable base radii for power 8"}
    assert [(w.r, w.t) for w in v.witnesses] == [
        (4096.0, 2.0**24), (16384.0, 2.0**28), (4096.0, 2.0**48), (16384.0, 2.0**56)
    ]
    assert all(w.margin > 0.0 for w in v.witnesses)


def test_entire_conditions_reject_poles(tan_profile):
    with pytest.raises(NotEntireError):
        check_entire_conditions(tan_profile)


def test_entire_conditions_reject_poles_beyond_the_profile():
    # the poles +-1000i lie outside every circle of the profile on [1, 100]
    f = parse("exp(z) + 1/(z^2+1e6)")
    with pytest.raises(NotEntireError, match="may have poles"):
        check_entire_conditions(build_profile(f, RadiusGrid(1.0, 100.0)))


# ---------------------------------------------------------------------------
# growth chain
# ---------------------------------------------------------------------------


def test_growth_chain_exp(exp_profile):
    rep = check_growth_chain(exp_profile, 2, 0.1)
    assert rep.applicable and rep.holds
    assert bool(rep)
    assert [link.name for link in rep.links] == [
        "modulus-above-power",
        "power-gap",
        "power-above-modulus",
    ]
    for link in rep.links:
        assert link.holds and link.lhs >= link.rhs


def test_growth_chain_polynomial_inapplicable(zsq):
    profile = _profile(zsq)
    rep = check_growth_chain(profile, 2, 0.1)
    assert not rep.applicable
    assert not bool(rep)
    assert rep.note == "precondition (lower order - eps) * m > order + 2*eps fails for the estimates"
    assert rep.links == () and rep.r == profile.samples[-1].r


def test_growth_chain_overflow_inapplicable(exp_profile):
    # the precondition holds, but r^160 at r = 107.6 passes e^690
    rep = check_growth_chain(exp_profile, 160, 0.1)
    assert not rep.applicable and not rep.holds
    assert rep.note == "power r^m overflows the double range at the top radius"
    assert rep.links == () and rep.r == exp_profile.samples[-1].r


def test_growth_chain_canprod_deep(canprod4, canprod_deep_profile):
    rep = check_growth_chain(canprod_deep_profile, 3, 0.05)
    assert rep.applicable and rep.holds
    third = rep.links[2]
    assert third.lhs / third.rhs == pytest.approx(1.095, abs=0.05)
    # r^3 is about 8e39: link 1 is still a full circle scan
    assert rep.note == ""
    assert rep.links[0].lhs == log_max_modulus(canprod4, rep.r**3)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def test_log_density_extremes():
    assert log_density([(1.0, 2.0**20)], 2.0**20) == pytest.approx(1.0)
    assert log_density([], 2.0**20) == 0.0
    assert log_density([(2.0**21, 2.0**22)], 2.0**20) == 0.0  # clipped away


def test_log_density_alternating_octaves():
    intervals = [(2.0 ** (2 * k), 2.0 ** (2 * k + 1)) for k in range(10)]
    assert log_density(intervals, 2.0**20) == pytest.approx(0.5, abs=1e-12)


def test_log_density_monotone_under_enlargement():
    base = [(4.0, 8.0), (64.0, 128.0)]
    bigger = base + [(1000.0, 4000.0)]
    assert log_density(bigger, 2.0**20) >= log_density(base, 2.0**20)


def test_density_report_validation():
    DensityReport(((2.0, 4.0), (8.0, 16.0)), 0.25)
    with pytest.raises(ValueError):
        DensityReport(((4.0, 2.0),), 0.0)
    with pytest.raises(ValueError):
        DensityReport(((2.0, 8.0), (4.0, 16.0)), 0.0)  # overlap
    with pytest.raises(ValueError):
        DensityReport((), 1.5)


def test_exceptional_set_exp_empty(exp_profile):
    report = exceptional_set(exp_profile, 0.3)
    assert report.intervals == ()
    assert report.lower_log_density == 0.0


def test_exceptional_set_monomial_full(zsq):
    report = exceptional_set(_profile(zsq), 0.3)
    assert report.intervals
    assert report.lower_log_density > 0.9


# ---------------------------------------------------------------------------
# the lockstep search across radii
# ---------------------------------------------------------------------------


def _search_alone(expr, r, d, closed):
    """The search of one radius as it ran before the lockstep: the pruned
    ladder, then one golden_min bracket probed circle by circle."""
    exps = _ladder_exponents(d, closed)
    bounds = [nevanlinna._log_min_subset_bound(expr, r**e) for e in exps]
    k, best_v = 0, -math.inf
    for j in sorted(range(len(exps)), key=lambda j: (-bounds[j], j)):
        if bounds[j] < best_v:
            break
        v = _log_L(expr, r**exps[j])
        if v > best_v or (v == best_v and j < k):
            k, best_v = j, v
    best_e = exps[k]
    edge = 0.0 if closed else 1e-9
    a = max(1.0 + edge, best_e - 1.0 / 64.0)
    b = min(d - edge, best_e + 1.0 / 64.0)
    if b > a:
        e, v, _ = golden_min(lambda e: -_log_L(expr, r ** float(e)), a, b, 1e-4)
        if -float(v) > best_v:
            best_e, best_v = float(e), -float(v)
    return r**best_e, best_v


# chunks of 1, 2, 4 and 8 radii: 3, 7 and 16 radii end on a chunk edge or one past it
_LOCKSTEP_RADII = tuple(10.0 * 2.0 ** (k / 5.0) for k in range(16))


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("source", sorted(set(CORPUS.values()) | {"1/(exp(z)-2)", "exp(z) + 0.5*i"}))
def test_lockstep_search_equals_search_alone(source, closed):
    # at d = 1.25 the closed brackets at the ends of the range are half as wide
    f, d = parse(source), 1.25
    alone = [_search_alone(f, r, d, closed) for r in _LOCKSTEP_RADII]
    # a fresh profile, so the probe circles of each round are evaluated
    # together; the first chunks of 16 radii are those of 1, 3 and 7
    circles = RadialProfile((), f)
    for n in (16, 7, 3, 1):
        samples = [SimpleNamespace(r=r) for r in _LOCKSTEP_RADII[:n]]
        got = list(_searches(circles, samples, d, closed))
        assert [s for s, _ in got] == samples
        assert [found for _, found in got] == alone[:n]


@pytest.mark.parametrize("name", ["zsq", "expz", "canprod4"])
def test_lockstep_search_without_brackets(name):
    # d - 1 < 2e-9 opens no bracket in the open range, and every radius
    # keeps its ladder winner
    f = corpus_function(name)
    d = 1.0 + 1e-10
    samples = [SimpleNamespace(r=r) for r in _LOCKSTEP_RADII[:7]]
    got = [found for _, found in _searches(RadialProfile((), f), samples, d, False)]
    assert got == [_search_alone(f, s.r, d, False) for s in samples]
    for r in _LOCKSTEP_RADII[:7]:
        assert _search(f, r, d, False) == _search_alone(f, r, d, False)
