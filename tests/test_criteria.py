import functools
import math

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
    corpus_function,
    exceptional_set,
    log_density,
    log_min_modulus,
    nevanlinna,
    parse,
)
from merolab.criteria import _ladder_exponents, _search_log_L
from merolab.nevanlinna import InsufficientSpanError

_GRID = RadiusGrid(1.0, 1000.0)
_SHORT = RadiusGrid(10.0, 100.0)


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
    with pytest.raises(ValueError):
        CriterionParams(0.5, 2.0, 4.0, K=0.0)


# ---------------------------------------------------------------------------
# L(r)/r decade doubling
# ---------------------------------------------------------------------------


def test_L_over_r_exp_fails(expz):
    v = check_L_over_r(expz, _GRID)
    assert v.condition == "L-over-r-growth"
    assert not v.holds_on_grid
    assert v.first_failure is not None


def test_L_over_r_monomial_holds(zsq):
    v = check_L_over_r(zsq, _GRID)
    assert v.holds_on_grid
    # L(r)/r = r, so each decade multiplies the running maximum by 10
    for w in v.witnesses:
        assert w.lhs >= w.rhs - 1e-9


def test_L_over_r_fatou_fails(fatou):
    assert not check_L_over_r(fatou, _GRID).holds_on_grid


def test_L_over_r_lacunary_holds(lacunary2):
    v = check_L_over_r(lacunary2, RadiusGrid(1.0, 1.0e6, 2.0**0.25))
    assert v.holds_on_grid


def test_L_over_r_needs_three_decades(expz):
    with pytest.raises(InsufficientSpanError):
        check_L_over_r(expz, RadiusGrid(1.0, 100.0))


# ---------------------------------------------------------------------------
# main criterion
# ---------------------------------------------------------------------------


def test_main_exp_fails_at_warmup_edge(expz):
    v = check_main(expz, CriterionParams(0.5, 2.0, 4.0, grid=_GRID))
    assert v.condition == "main-growth"
    assert not v.holds_on_grid
    # the first tested radius at or past the warmup is 2^(27/8)
    assert v.first_failure["r"] == pytest.approx(2.0 ** (27.0 / 8.0), rel=1e-12)


def test_main_fatou_fails_past_forty(fatou):
    v = check_main(fatou, CriterionParams(0.5, 2.0, 4.0, grid=_GRID))
    assert not v.holds_on_grid
    assert 40.0 < v.first_failure["r"] < 43.0


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
    lo = check_main(zsq, CriterionParams(0.15, 2.0, 1.5, grid=_SHORT))
    hi = check_main(zsq, CriterionParams(0.3, 2.0, 1.5, grid=_SHORT))
    assert lo.holds_on_grid and hi.holds_on_grid
    # the t-search does not depend on alpha, so the witnesses align
    assert [w.t for w in lo.witnesses] == [w.t for w in hi.witnesses]
    assert [w.lhs for w in lo.witnesses] == [w.lhs for w in hi.witnesses]


def test_main_enlarging_d_preserves_success(zsq):
    narrow = check_main(zsq, CriterionParams(0.3, 2.0, 1.5, grid=_SHORT))
    wide = check_main(zsq, CriterionParams(0.3, 2.5, 1.5, grid=_SHORT))
    assert narrow.holds_on_grid and wide.holds_on_grid
    pairs = zip(narrow.witnesses, wide.witnesses)
    for w_narrow, w_wide in pairs:
        if w_narrow.t > w_narrow.r:  # t-search witnesses only
            assert w_wide.lhs >= w_narrow.lhs - 1e-9


# ---------------------------------------------------------------------------
# the minimum-modulus ladder search
# ---------------------------------------------------------------------------

_SEARCH_RADII = (10.0, 40.0, 160.0)


def _exhaustive_search(expr, r, d, closed):
    """Reference: refine every ladder circle, argmax, golden exponent phase."""
    exps = _ladder_exponents(d, closed)
    vals = [log_min_modulus(expr, r**e) for e in exps]
    k = int(np.argmax(vals))
    best_e, best_v = exps[k], vals[k]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    edge = 0.0 if closed else 1e-9
    a = max(1.0 + edge, best_e - 1.0 / 64.0)
    b = min(d - edge, best_e + 1.0 / 64.0)
    c = b - invphi * (b - a)
    e2 = a + invphi * (b - a)
    fc = log_min_modulus(expr, r**c)
    fd = log_min_modulus(expr, r**e2)
    while b - a > 1e-4:
        if fc >= fd:
            b, e2, fd = e2, c, fc
            c = b - invphi * (b - a)
            fc = log_min_modulus(expr, r**c)
            if fc > best_v:
                best_e, best_v = c, fc
        else:
            a, c, fc = c, e2, fd
            e2 = a + invphi * (b - a)
            fd = log_min_modulus(expr, r**e2)
            if fd > best_v:
                best_e, best_v = e2, fd
    return r**best_e, best_v


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("name", ["lacunary2", "canprod4", "expz", "fatou", "zsq"])
def test_pruned_search_equals_exhaustive_ladder(name, closed):
    f = corpus_function(name)
    for r in _SEARCH_RADII:
        assert _search_log_L(f, r, 2.0, closed) == _exhaustive_search(f, r, 2.0, closed)


@pytest.mark.parametrize("closed", [False, True])
def test_pruned_search_ties_go_to_first_exponent(closed):
    const = parse("2")
    t, value = _search_log_L(const, 10.0, 2.0, closed)
    assert (t, value) == _exhaustive_search(const, 10.0, 2.0, closed)
    assert t == 10.0 ** _ladder_exponents(2.0, closed)[0]
    assert value == log_min_modulus(const, 10.0)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("name", ["lacunary2", "canprod4"])
def test_pruned_search_refines_few_circles(monkeypatch, name, closed):
    f = corpus_function(name)
    refine = nevanlinna._golden_refine
    refined = []

    def counted(g, r, *args):
        refined.append(r)
        return refine(g, r, *args)

    monkeypatch.setattr(nevanlinna, "_golden_refine", counted)
    for r in _SEARCH_RADII:
        # a cold refinement cache, so every refined circle is counted once
        fresh = functools.lru_cache(maxsize=None)(nevanlinna._modulus_extremum)
        monkeypatch.setattr(nevanlinna, "_extremum_cached", fresh)
        refined.clear()
        _search_log_L(f, r, 2.0, closed)
        # the exhaustive ladder refines 76-78 circles here
        assert 0 < len(refined) <= 20


# ---------------------------------------------------------------------------
# L versus M and the strong variant
# ---------------------------------------------------------------------------


def test_L_versus_M_exp_fails(expz):
    v = check_L_versus_M(expz, 2.0, _GRID)
    assert v.condition == "L-versus-M"
    assert not v.holds_on_grid


def test_L_versus_M_monomial_boundary():
    cubed = parse("z^3")
    v = check_L_versus_M(cubed, 2.0, _SHORT)
    assert v.holds_on_grid
    for w in v.witnesses:
        # monomials attain equality exactly at t = r^d
        assert w.margin == 0.0
        assert w.t == pytest.approx(w.r**2.0, rel=1e-9)


def test_L_versus_M_lacunary_holds(lacunary2):
    v = check_L_versus_M(lacunary2, 2.0, RadiusGrid(100.0, 1600.0, 2.0**0.5))
    assert v.holds_on_grid
    assert min(w.margin for w in v.witnesses) > 10.0


def test_strong_exp_and_reciprocal_fail(expz, invz):
    assert not check_strong(expz, 2.0, 1.2, _GRID).holds_on_grid
    assert not check_strong(invz, 2.0, 1.2, _GRID).holds_on_grid


def test_strong_canprod_holds(canprod4, canprod_main):
    v = check_strong(canprod4, 2.0, 1.2, RadiusGrid(10.0, 1000.0))
    assert v.condition == "strong-characteristic"
    assert v.holds_on_grid


# ---------------------------------------------------------------------------
# deficiency and order
# ---------------------------------------------------------------------------


def test_deficiency_order_canprod(canprod4, canprod_profile):
    v = check_deficiency_order(canprod4, canprod_profile)
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


def test_deficiency_order_exp_fails(expz, exp_profile):
    v = check_deficiency_order(expz, exp_profile)
    assert not v.holds_on_grid
    assert len(v.witnesses) == 3  # witnesses recorded even on failure


def test_deficiency_order_tan_fails(tanz, tan_profile):
    v = check_deficiency_order(tanz, tan_profile)
    assert not v.holds_on_grid
    defic = v.witnesses[2].lhs
    assert defic <= 0.05


# ---------------------------------------------------------------------------
# entire-function conditions
# ---------------------------------------------------------------------------


def test_entire_conditions_exp(expz, exp_profile):
    verdicts = check_entire_conditions(expz, exp_profile)
    names = [v.condition for v in verdicts]
    assert names == [
        "entire-M-ratio",
        "entire-log-derivative",
        "entire-power-doubling",
        "entire-lower-order",
    ]
    assert all(v.holds_on_grid for v in verdicts)


def test_entire_conditions_canprod(canprod4, canprod_profile):
    verdicts = check_entire_conditions(canprod4, canprod_profile)
    assert all(v.holds_on_grid for v in verdicts)


def test_entire_conditions_monomial_fails(zsq):
    # the lower-order slope for a polynomial decays like 1/log(r), so the
    # grid has to reach ~1e9 before the estimate drops under the floor
    profile = build_profile(zsq, RadiusGrid(1.0, 1.0e12))
    verdicts = {v.condition: v for v in check_entire_conditions(zsq, profile)}
    assert not verdicts["entire-log-derivative"].holds_on_grid
    assert not verdicts["entire-power-doubling"].holds_on_grid
    assert not verdicts["entire-lower-order"].holds_on_grid


def test_entire_conditions_reject_poles(tanz, tan_profile):
    with pytest.raises(NotEntireError):
        check_entire_conditions(tanz, tan_profile)


# ---------------------------------------------------------------------------
# growth chain
# ---------------------------------------------------------------------------


def test_growth_chain_exp(expz, exp_profile):
    rep = check_growth_chain(expz, exp_profile, 2, 0.1)
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
    profile = build_profile(zsq, _GRID)
    rep = check_growth_chain(zsq, profile, 2, 0.1)
    assert not rep.applicable
    assert not bool(rep)
    assert "precondition" in rep.note


def test_growth_chain_canprod_deep(canprod4, canprod_deep_profile):
    rep = check_growth_chain(canprod4, canprod_deep_profile, 3, 0.05)
    assert rep.applicable and rep.holds
    third = rep.links[2]
    assert third.lhs / third.rhs == pytest.approx(1.095, abs=0.05)
    assert "lower bound" in rep.note


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
    profile = build_profile(zsq, _GRID)
    report = exceptional_set(profile, 0.3)
    assert report.intervals
    assert report.lower_log_density > 0.9
