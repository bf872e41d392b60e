"""Finite-grid decision procedures for the boundedness criteria.

Each check evaluates one sufficient condition for the absence of
unbounded invariant-domain behaviour, on an explicit radius grid, and
returns a verdict carrying numeric witnesses.  Verdicts are grid
relative by construction: they assert inequalities at the sampled radii,
never limits.  "All sufficiently large r" is operationalized as all grid
radii at or beyond the warm-up radius 10.

Witness records are replayable: feeding the stored (r, t) back through
the circle functionals reproduces lhs and rhs to within 1e-9 of the
stored margin.  Checks for distinct radii are independent; results are
assembled in radius order, so sequential evaluation is already
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .expr import as_expr
from .nevanlinna import (
    InsufficientSpanError,
    RadialProfile,
    RadiusGrid,
    characteristic,
    golden_min,
    growth_summary,
    log_max_modulus,
    log_min_modulus,
    poles_in_disk,
    _log_min_bound,
)

_DEFAULT_GRID = RadiusGrid(1.0, 1000.0)
_WARMUP = 10.0
_LADDER_STEP = 1.0 / 64.0
_EXPONENT_TOL = 1e-4
_BOUNDARY_TOL = 1e-9
_MU_FLOOR = 0.05
_RATIO_SPREAD = 0.05
_POWER_CAP = 1e18


class NotEntireError(ValueError):
    """The entire-function conditions were asked about a map with poles."""


# ---------------------------------------------------------------------------
# verdict types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionParams:
    """Parameters shared by the main growth criterion.

    alpha scales the characteristic on the right-hand side, d sets the
    search range [r, r^d] and D the required characteristic multiplication.
    """

    alpha: float
    d: float
    D: float
    grid: RadiusGrid = _DEFAULT_GRID

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not self.d > 1.0:
            raise ValueError("search exponent d must exceed 1")
        if not self.D > 1.0:
            raise ValueError("growth factor D must exceed 1")


@dataclass(frozen=True)
class Witness:
    """One verified inequality: lhs compared against rhs at radii (r, t)."""

    r: float
    t: float
    lhs: float
    rhs: float
    margin: float


@dataclass(frozen=True)
class CriterionVerdict:
    condition: str
    holds_on_grid: bool
    witnesses: tuple[Witness, ...]
    first_failure: dict | None = None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DensityReport:
    """Disjoint radius intervals plus their lower logarithmic density."""

    intervals: tuple[tuple[float, float], ...]
    lower_log_density: float

    def __post_init__(self):
        prev = 0.0
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValueError("intervals must have positive length")
            if lo < prev:
                raise ValueError("intervals must be sorted and disjoint")
            prev = hi
        if not 0.0 <= self.lower_log_density <= 1.0:
            raise ValueError("lower logarithmic density must lie in [0, 1]")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ChainLink:
    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class ChainReport:
    """Per-link outcome of the power-to-power growth chain.

    Truthiness means the chain is applicable and every link holds, so a
    report can sit directly in a conditional.
    """

    applicable: bool
    holds: bool
    r: float
    links: tuple[ChainLink, ...]
    note: str = ""

    def __bool__(self) -> bool:
        return self.applicable and self.holds

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# search helpers
# ---------------------------------------------------------------------------


def _tested_radii(grid: RadiusGrid | None) -> list[float]:
    g = grid if grid is not None else _DEFAULT_GRID
    radii = [float(r) for r in g.radii() if r >= _WARMUP * (1.0 - 1e-12)]
    if not radii:
        raise ValueError("no grid radii at or beyond the warm-up threshold")
    return radii


def _first_failure(condition: str, steps) -> CriterionVerdict:
    """Collect witnesses from steps until the first one that fails.

    steps yields (holds, witness, diagnostics) and is not resumed after
    a failure; the failure is recorded at the witness radius r.
    """
    witnesses = []
    for holds, witness, diagnostics in steps:
        if not holds:
            failure = {"r": witness.r, "diagnostics": diagnostics}
            return CriterionVerdict(condition, False, tuple(witnesses), failure)
        witnesses.append(witness)
    return CriterionVerdict(condition, True, tuple(witnesses), None)


def _ladder_exponents(d: float, closed: bool) -> list[float]:
    # Candidate exponents live on the fixed lattice 1 + j/64, so enlarging
    # d only ever adds candidates; the closed variant appends the exact
    # endpoint d when the lattice misses it.
    span = d - 1.0
    if closed:
        n = int(math.floor(span / _LADDER_STEP + 1e-9))
        exps = [1.0 + j * _LADDER_STEP for j in range(n + 1)]
        if d - exps[-1] > 1e-12:
            exps.append(d)
    else:
        n = int(math.ceil(span / _LADDER_STEP - 1e-9)) - 1
        exps = [1.0 + j * _LADDER_STEP for j in range(1, n + 1)]
        if not exps:
            exps = [1.0 + span / 2.0]
    return exps


def _search_log_L(expr, r: float, d: float, closed: bool) -> tuple[float, float]:
    """Maximize log L(r^e) over ladder exponents e, with golden refinement.

    Returns (t, value) where t = r**e_best.  Every ladder circle is
    scanned, but refined only while it can still win: circles go in
    descending order of their scan bound (never below the refined log L),
    and the walk stops at the first bound strictly below the best refined
    value.  Ties go to the lowest ladder index, so the winner is the
    exhaustive ladder's argmax, bit for bit.  golden_min then refines the
    exponent to 1e-4 within a ladder step of it; its best probe replaces
    the winner only when strictly larger, so the ladder maximum is a floor.
    """
    exps = _ladder_exponents(d, closed)
    bounds = [_log_min_bound(expr, r**e) for e in exps]
    k, best_v = 0, -math.inf
    for j in sorted(range(len(exps)), key=lambda j: (-bounds[j], j)):
        if bounds[j] < best_v:
            break
        v = log_min_modulus(expr, r**exps[j])
        if v > best_v or (v == best_v and j < k):
            k, best_v = j, v
    best_e = exps[k]
    edge = 0.0 if closed else _BOUNDARY_TOL
    a = max(1.0 + edge, best_e - _LADDER_STEP)
    b = min(d - edge, best_e + _LADDER_STEP)
    if b > a:  # an open range narrower than 2e-9 leaves no bracket
        e, v, _ = golden_min(lambda e: -log_min_modulus(expr, r ** float(e)),
                             a, b, _EXPONENT_TOL)
        if -float(v) > best_v:
            best_e, best_v = float(e), -float(v)
    return r**best_e, best_v


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def check_L_over_r(f, grid: RadiusGrid | None = None) -> CriterionVerdict:
    """Decade-over-decade doubling of L(r)/r along the grid.

    L(r)/r is summarized by its maximum over each complete decade; the
    verdict holds when every decade maximum is at least twice the one
    before.  A trailing partial decade folds into the last complete one.
    Witness values are logarithmic (lhs = log of the decade maximum,
    rhs = previous decade's log maximum plus log 2, t = radius attaining
    the previous maximum), which keeps the record finite even when L(r)/r
    overflows the double range.
    """
    expr = as_expr(f)
    g = grid if grid is not None else _DEFAULT_GRID
    radii = [float(r) for r in g.radii()]
    n_dec = int(math.floor(math.log10(radii[-1] / radii[0]) + 1e-9))
    if n_dec < 3:
        raise InsufficientSpanError(
            "decade comparison needs a grid spanning at least three decades"
        )
    best = [-math.inf] * n_dec
    best_r = [0.0] * n_dec
    for r in radii:
        k = min(int(math.log10(r / radii[0]) + 1e-12), n_dec - 1)
        v = log_min_modulus(expr, r) - math.log(r)
        if v > best[k]:
            best[k], best_r[k] = v, r

    def steps():
        for k in range(1, n_dec):
            lhs = best[k]
            rhs = best[k - 1] + math.log(2.0)
            yield (lhs > rhs, Witness(best_r[k], best_r[k - 1], lhs, rhs, lhs - rhs),
                   "decade maximum of L(r)/r failed to double")

    return _first_failure("L-over-r-growth", steps())


def check_main(f, params: CriterionParams) -> CriterionVerdict:
    """Minimum-modulus spike plus characteristic multiplication.

    At every tested radius r two things must happen: some t strictly
    inside (r, r^d) has log L(t) > alpha * T(r), and T(r^d) >= D * T(r).
    The t search scans 64 log-uniform candidate circles per unit
    exponent, refines the minimum modulus only on circles whose scan can
    still beat the best refined value (the winner is the one an
    exhaustive ladder would pick), and then refines the exponent around
    that winner.  The search itself never looks at alpha,
    so a verdict that holds at some alpha holds at every smaller alpha
    with identical witnesses.
    """
    expr = as_expr(f)
    radii = _tested_radii(params.grid)

    def steps():
        for r in radii:
            base = characteristic(expr, r)
            t, lhs = _search_log_L(expr, r, params.d, closed=False)
            rhs = params.alpha * base
            yield (lhs > rhs, Witness(r, t, lhs, rhs, lhs - rhs),
                   "no t in (r, r^d) lifts log L above alpha*T(r)")
            top = r**params.d
            grown = characteristic(expr, top)
            need = params.D * base
            yield (grown >= need, Witness(r, top, grown, need, grown - need),
                   "characteristic at r^d fell below D*T(r)")

    return _first_failure("main-growth", steps())


def check_L_versus_M(f, d: float, grid: RadiusGrid | None = None) -> CriterionVerdict:
    """Somewhere in [r, r^d] the minimum modulus beats d times log M(r).

    The search range is closed at both ends.  Margins within 1e-9 of zero
    are clamped to zero and count as holding; monomials sit exactly on
    this boundary, since L = M turns both sides into the same number at
    t = r^d.
    """
    expr = as_expr(f)
    if not d > 1.0:
        raise ValueError("search exponent d must exceed 1")
    radii = _tested_radii(grid)

    def steps():
        for r in radii:
            t, lhs = _search_log_L(expr, r, d, closed=True)
            rhs = d * log_max_modulus(expr, r)
            margin = lhs - rhs
            yield (margin >= -_BOUNDARY_TOL, Witness(r, t, lhs, rhs, max(margin, 0.0)),
                   "no t in [r, r^d] lifts log L to d*log M(r)")

    return _first_failure("L-versus-M", steps())


def check_strong(f, d: float, D: float, grid: RadiusGrid | None = None) -> CriterionVerdict:
    """Somewhere in [r, r^d] the minimum modulus beats D times T(r)."""
    expr = as_expr(f)
    if not d > 1.0:
        raise ValueError("search exponent d must exceed 1")
    if not D > 0.0:
        raise ValueError("growth factor D must be positive")
    radii = _tested_radii(grid)

    def steps():
        for r in radii:
            t, lhs = _search_log_L(expr, r, d, closed=True)
            rhs = D * characteristic(expr, r)
            yield (lhs > rhs, Witness(r, t, lhs, rhs, lhs - rhs),
                   "no t in [r, r^d] lifts log L above D*T(r)")

    return _first_failure("strong-characteristic", steps())


def check_deficiency_order(f, profile: RadialProfile) -> CriterionVerdict:
    """Order below one half, positive lower order, deficiency above the cosine gap.

    The three inequalities are evaluated on the profile's growth
    estimates: order < 1/2, lower order > 0.05, and deficiency at
    infinity > 1 - cos(pi * order).  All three sub-tests are recorded as
    witnesses whether or not they hold; summary-level records carry
    r = t = 0 since no single radius is involved.
    """
    del f
    gs = growth_summary(profile)
    gap = 1.0 - math.cos(math.pi * gs.order)
    subtests = (
        ("order stays below one half", 0.5, gs.order),
        ("lower order clears the floor", gs.lower_order, _MU_FLOOR),
        ("deficiency beats the cosine gap", gs.deficiency, gap),
    )
    witnesses = []
    failure = None
    for name, lhs, rhs in subtests:
        witnesses.append(Witness(0.0, 0.0, lhs, rhs, lhs - rhs))
        if lhs <= rhs and failure is None:
            failure = {"r": 0.0, "diagnostics": name + " failed"}
    return CriterionVerdict("deficiency-order", failure is None, tuple(witnesses), failure)


def _entire_window(profile: RadialProfile) -> list:
    top = profile.samples[-1].r
    return [s for s in profile.samples if s.r >= top / 10.0 * (1.0 - 1e-12)]


def check_entire_conditions(f, profile: RadialProfile) -> list[CriterionVerdict]:
    """Four classical sufficient conditions for entire functions.

    (1) log M(2r)/log M(r) settles, over the trailing decade, inside a
        band of width 0.05 at a level c >= 1.
    (2) the discrete logarithmic derivative x * phi'(x)/phi(x) with
        phi(x) = log M(e^x) stays above 1 on the trailing decade.
    (3) log M(r^m) >= m^2 * log M(r) at m in {2, 4, 8} for base radii in
        the top tested decade (capped so r^m stays below 1e18), each
        log M(r^m) from the full circle scan of log_max_modulus.
    (4) the lower-order estimate exceeds 0.05.

    Raises NotEntireError when the pole catalog inside the profile's top
    radius is nonempty.
    """
    expr = as_expr(f)
    top = profile.samples[-1].r
    catalog = poles_in_disk(expr, top)
    if catalog.entries:
        raise NotEntireError(
            "pole catalog holds %d entries inside radius %g; the entire-function"
            " conditions do not apply" % (len(catalog.entries), top)
        )
    verdicts = []
    window = _entire_window(profile)

    # (1) doubling-ratio stabilization
    witnesses = []
    failure = None
    if any(s.log_M <= 0.0 for s in window):
        failure = {"r": window[0].r, "diagnostics": "log M not positive on the trailing decade"}
    else:
        ratios = []
        for s in window:
            c = log_max_modulus(expr, 2.0 * s.r) / s.log_M
            ratios.append(c)
            witnesses.append(Witness(s.r, 2.0 * s.r, c, 1.0, c - 1.0))
        c_min, c_max = min(ratios), max(ratios)
        if c_min < 1.0 - _BOUNDARY_TOL:
            failure = {
                "r": window[ratios.index(c_min)].r,
                "diagnostics": "doubling ratio of log M fell below 1",
            }
        elif c_max - c_min > _RATIO_SPREAD:
            failure = {
                "r": window[ratios.index(c_max)].r,
                "diagnostics": "doubling ratio spread %.4f exceeds %.2f" % (c_max - c_min, _RATIO_SPREAD),
            }
    verdicts.append(CriterionVerdict("entire-M-ratio", failure is None, tuple(witnesses), failure))

    # (2) logarithmic derivative of log M against log r
    witnesses = []
    failure = None
    samples = profile.samples
    lo_r = window[0].r
    interior = [
        i
        for i in range(1, len(samples) - 1)
        if samples[i].r >= lo_r and samples[i].log_M > 0.0
    ]
    if not interior:
        failure = {"r": top, "diagnostics": "no interior samples with positive log M"}
    else:
        for i in interior:
            x = math.log(samples[i].r)
            dx = math.log(samples[i + 1].r) - math.log(samples[i - 1].r)
            dphi = samples[i + 1].log_M - samples[i - 1].log_M
            q = x * (dphi / dx) / samples[i].log_M
            witnesses.append(Witness(samples[i].r, 0.0, q, 1.0, q - 1.0))
            if q <= 1.0 + _BOUNDARY_TOL and failure is None:
                failure = {
                    "r": samples[i].r,
                    "diagnostics": "logarithmic derivative dropped to 1 or below",
                }
    verdicts.append(CriterionVerdict("entire-log-derivative", failure is None, tuple(witnesses), failure))

    # (3) power doubling of log M
    witnesses = []
    failure = None
    for m in (2, 4, 8):
        r_hi = min(top, _POWER_CAP ** (1.0 / m))
        bases = [s for s in profile.samples if 10.0 <= s.r <= r_hi and s.r >= r_hi / 10.0]
        if len(bases) < 2:
            if failure is None:
                failure = {
                    "r": top,
                    "diagnostics": "fewer than two usable base radii for power %d" % m,
                }
            continue
        for s in bases:
            big = s.r**m
            lhs = log_max_modulus(expr, big)
            rhs = float(m * m) * s.log_M
            witnesses.append(Witness(s.r, big, lhs, rhs, lhs - rhs))
            if lhs < rhs - _BOUNDARY_TOL and failure is None:
                failure = {"r": s.r, "diagnostics": "power test failed at m=%d" % m}
    verdicts.append(CriterionVerdict("entire-power-doubling", failure is None, tuple(witnesses), failure))

    # (4) positive lower order
    gs = growth_summary(profile)
    w = Witness(0.0, 0.0, gs.lower_order, _MU_FLOOR, gs.lower_order - _MU_FLOOR)
    failure = None
    if gs.lower_order <= _MU_FLOOR:
        failure = {"r": 0.0, "diagnostics": "lower-order estimate at or below 0.05"}
    verdicts.append(CriterionVerdict("entire-lower-order", failure is None, (w,), failure))
    return verdicts


def check_growth_chain(f, profile: RadialProfile, m: int, eps: float) -> ChainReport:
    """Link-by-link audit of the power-to-power growth chain.

    At the profile's top radius r the chain reads

        log M(r^m) > (r^m)^(mu-eps) > r^(lam+2*eps) >= log M(r)
                                      with the last comparison at r^(lam+eps),

    where lam and mu are the profile's order and lower-order estimates.
    The chain is applicable only when (mu - eps) * m > lam + 2 * eps;
    otherwise the report says so and carries no links.  Link 1 takes
    log M(r^m) from the full circle scan of log_max_modulus.
    """
    expr = as_expr(f)
    if m < 2:
        raise ValueError("power m must be at least 2")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    gs = growth_summary(profile)
    lam, mu = gs.order, gs.lower_order
    r = profile.samples[-1].r
    if (mu - eps) * m <= lam + 2.0 * eps:
        return ChainReport(
            False,
            False,
            r,
            (),
            "precondition (lower order - eps) * m > order + 2*eps fails for the estimates",
        )
    lx = math.log(r)
    if (mu - eps) * m * lx > 690.0 or m * lx > 690.0:
        return ChainReport(
            False,
            False,
            r,
            (),
            "power r^m overflows the double range at the top radius",
        )
    mid = math.exp((mu - eps) * m * lx)
    low = math.exp((lam + 2.0 * eps) * lx)
    top = log_max_modulus(expr, r**m)
    tail_lhs = math.exp((lam + eps) * lx)
    tail_rhs = profile.samples[-1].log_M
    links = (
        ChainLink("modulus-above-power", top, mid, top > mid),
        ChainLink("power-gap", mid, low, mid > low),
        ChainLink("power-above-modulus", tail_lhs, tail_rhs, tail_lhs >= tail_rhs),
    )
    return ChainReport(True, all(link.holds for link in links), r, links, "")


# ---------------------------------------------------------------------------
# exceptional set and logarithmic density
# ---------------------------------------------------------------------------


def log_density(intervals, r_max: float) -> float:
    """Finite-window lower logarithmic density of a union of intervals.

    Computes inf over s in [sqrt(r_max), r_max] (65 geometric points) of
    the dt/t measure of the set intersected with (1, s], divided by
    log s.  Inputs are clipped to (1, r_max]; overlapping inputs are
    merged first, which makes the result monotone under set enlargement.
    """
    if not r_max > 1.0:
        raise ValueError("r_max must exceed 1")
    clipped = []
    for lo, hi in sorted((float(lo), float(hi)) for lo, hi in intervals):
        lo, hi = max(lo, 1.0), min(hi, r_max)
        if hi <= lo:
            continue
        if clipped and lo <= clipped[-1][1]:
            clipped[-1][1] = max(clipped[-1][1], hi)
        else:
            clipped.append([lo, hi])
    if not clipped:
        return 0.0
    lows = np.array([iv[0] for iv in clipped])
    highs = np.array([iv[1] for iv in clipped])
    worst = math.inf
    for s in np.geomspace(math.sqrt(r_max), r_max, 65):
        cut = np.minimum(highs, s)
        meas = float(np.sum(np.clip(np.log(cut) - np.log(lows), 0.0, None)))
        worst = min(worst, meas / math.log(s))
    return float(min(max(worst, 0.0), 1.0))


def exceptional_set(profile: RadialProfile, alpha: float) -> DensityReport:
    """Radius cells where log L exceeds alpha times the characteristic.

    Every flagged sample contributes the geometric cell
    [r/sqrt(q), r*sqrt(q)] around its base grid radius, q being the grid
    ratio; touching cells merge.  The density field is the finite-window
    lower logarithmic density up to the top profile radius.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    bases = [s.r if s.perturbed_from is None else s.perturbed_from for s in profile.samples]
    if len(bases) < 2:
        raise ValueError("profile must hold at least two samples")
    half = math.sqrt(bases[1] / bases[0])
    r_max = profile.samples[-1].r
    merged: list[list[float]] = []
    for s, b in zip(profile.samples, bases):
        if not s.log_L > alpha * s.T:
            continue
        lo, hi = max(b / half, 1.0), min(b * half, r_max)
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1] * (1.0 + 1e-12):
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    intervals = tuple((lo, hi) for lo, hi in merged)
    dens = log_density(intervals, r_max) if intervals else 0.0
    return DensityReport(intervals, dens)
