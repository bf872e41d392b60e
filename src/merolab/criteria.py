"""Finite-grid decision procedures for the boundedness criteria.

Each check evaluates one sufficient condition for the absence of
unbounded invariant-domain behaviour on a profile (build_profile) and
returns a verdict carrying numeric witnesses.  A grid circle's T, log L
and log M come from its sample; only circles off the grid (the t search,
r^d, 2r, r^m) are evaluated, from the profile's function, and the
profile keeps each one's extrema and ladder bound for the other checks
(RadialProfile.extrema and ladder_bound).  Verdicts
assert inequalities at the sampled radii, never limits.  "All
sufficiently large r" means all samples whose grid radius is at least 10.

Every verdict is built by _verdict from the check's steps.  The growth
checks stop at the first failing step and keep the witnesses before it;
deficiency-order and the four entire-function conditions keep every
witness and record the first failing step.

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

from .expr import has_poles
from .nevanlinna import (
    InsufficientSpanError,
    RadialProfile,
    characteristic,
    golden_min,
    growth_summary,
)

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
    """Parameters of the main growth criterion.

    alpha scales the characteristic on the right-hand side, d sets the
    search range [r, r^d] and D the required characteristic multiplication.
    """

    alpha: float
    d: float
    D: float

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


def _tested(profile: RadialProfile) -> list:
    """The samples whose grid radius is at or beyond the warm-up radius."""
    samples = [s for s in profile.samples if s.grid_radius >= _WARMUP * (1.0 - 1e-12)]
    if not samples:
        raise ValueError("no grid radii at or beyond the warm-up threshold")
    return samples


def _verdict(condition: str, steps, every: bool = False) -> CriterionVerdict:
    """Build the verdict of a check from its steps.

    steps yields (holds, r, witness, diagnostics); witness is None for a
    failing step that has none, and a failure is recorded at radius r.
    By default the verdict keeps the witnesses before the first failing
    step and steps is not resumed after it; with every set it keeps every
    witness and records the first failing step.
    """
    witnesses = []
    failure = None
    for holds, r, witness, diagnostics in steps:
        if not holds and failure is None:
            failure = {"r": r, "diagnostics": diagnostics}
            if not every:
                break
        if witness is not None:
            witnesses.append(witness)
    return CriterionVerdict(condition, failure is None, tuple(witnesses), failure)


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


def _search_log_L_many(profile: RadialProfile, radii, d: float, closed: bool) -> list[tuple[float, float]]:
    """Maximize log L(r^e) over ladder exponents e, with golden refinement,
    at every radius r of radii, on the circles of profile's function.

    Returns (t, value) per radius, t = r**e_best.  Every circle is read
    through profile, which evaluates it once.  Every ladder circle gets
    a bound from every 16th node of its circle scan (profile.ladder_bound,
    never below the refined log L), but is scanned in full and refined only
    while it can still win: circles go in descending order of their bound,
    and the walk stops at the first bound strictly below the best refined
    value.  Ties go to the lowest ladder index, so the winner is the
    exhaustive ladder's argmax, bit for bit.  One golden_min then refines
    the exponents of all radii to 1e-4, each within a ladder step of its
    winner; each round's probe circles r**e go through one profile.extrema
    call, so their refinement levels share kernel calls.  A probe's best
    value replaces the winner only when strictly larger, so the ladder
    maximum is a floor.  Each bracket stops at its own width, so each
    radius gets the result of its search alone.
    """
    exps = _ladder_exponents(d, closed)
    edge = 0.0 if closed else _BOUNDARY_TOL
    best, owner, lo, hi = [], [], [], []
    for i, r in enumerate(radii):
        bounds = [profile.ladder_bound(r**e) for e in exps]
        k, best_v = 0, -math.inf
        for j in sorted(range(len(exps)), key=lambda j: (-bounds[j], j)):
            if bounds[j] < best_v:
                break
            v = profile.extrema([r**exps[j]])[0][0]
            if v > best_v or (v == best_v and j < k):
                k, best_v = j, v
        best.append((exps[k], best_v))
        a = max(1.0 + edge, exps[k] - _LADDER_STEP)
        b = min(d - edge, exps[k] + _LADDER_STEP)
        if b > a:  # an open range narrower than 2e-9 leaves no bracket
            owner.append(i)
            lo.append(a)
            hi.append(b)
    if owner:
        base = [radii[i] for i in owner]

        def fun(e):
            # a closed bracket's exponent reads NaN: its circle is not probed
            live = np.flatnonzero(~np.isnan(e)).tolist()
            values = np.full(e.shape, math.nan)
            extrema = profile.extrema([base[j] ** float(e[j]) for j in live])
            values[live] = [-log_L for log_L, _ in extrema]
            return values

        e, v, _ = golden_min(fun, np.array(lo), np.array(hi), _EXPONENT_TOL)
        for i, e_i, v_i in zip(owner, e.tolist(), v.tolist()):
            if -v_i > best[i][1]:
                best[i] = (e_i, -v_i)
    return [(r**e, v) for r, (e, v) in zip(radii, best)]


def _searches(profile: RadialProfile, samples, d: float, closed: bool):
    """(sample, (t, value)) of the search at each sample's radius, in order.

    The searches run in lockstep in chunks of 1, 2, 4, ... samples, so a
    check that stops at its first failure pays for less than one chunk it
    does not read.
    """
    start, size = 0, 1
    while start < len(samples):
        chunk = samples[start:start + size]
        yield from zip(chunk, _search_log_L_many(profile, [s.r for s in chunk], d, closed))
        start += size
        size *= 2


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def decade_count(radii) -> int:
    """Complete decades spanned by increasing grid radii.

    Raises InsufficientSpanError below three, the fewest that the decade
    comparison of check_L_over_r needs; a grid's radii() give the count
    before any profile is built.
    """
    n_dec = int(math.floor(math.log10(radii[-1] / radii[0]) + 1e-9))
    if n_dec < 3:
        raise InsufficientSpanError(
            "decade comparison needs a grid spanning at least three decades"
        )
    return n_dec


def check_L_over_r(profile: RadialProfile) -> CriterionVerdict:
    """Decade-over-decade doubling of L(r)/r along the profile.

    L(r)/r is summarized by its maximum over each complete decade of grid
    radii; the verdict holds when every decade maximum is at least twice
    the one before.  A trailing partial decade folds into the last one.
    Witness values are logarithmic (lhs = log of the decade maximum,
    rhs = previous decade's log maximum plus log 2, t = radius attaining
    the previous maximum), which keeps the record finite even when L(r)/r
    overflows the double range.
    """
    base = [s.grid_radius for s in profile.samples]
    n_dec = decade_count(base)
    best = [-math.inf] * n_dec
    best_r = [0.0] * n_dec
    for s, b in zip(profile.samples, base):
        k = min(int(math.log10(b / base[0]) + 1e-12), n_dec - 1)
        v = s.log_L - math.log(s.r)
        if v > best[k]:
            best[k], best_r[k] = v, s.r

    def steps():
        for k in range(1, n_dec):
            lhs = best[k]
            rhs = best[k - 1] + math.log(2.0)
            yield (lhs > rhs, best_r[k], Witness(best_r[k], best_r[k - 1], lhs, rhs, lhs - rhs),
                   "decade maximum of L(r)/r failed to double")

    return _verdict("L-over-r-growth", steps())


def check_main(profile: RadialProfile, params: CriterionParams) -> CriterionVerdict:
    """Minimum-modulus spike plus characteristic multiplication.

    At every tested radius r two things must happen: some t strictly
    inside (r, r^d) has log L(t) > alpha * T(r), and T(r^d) >= D * T(r).
    The t search bounds log L on 64 log-uniform candidate circles per
    unit exponent from every 16th node of each circle's scan, scans and
    refines the minimum modulus only on circles whose bound can still
    beat the best refined value (the winner is the one an exhaustive
    ladder would pick), and then refines the exponent around that
    winner.  The search itself never looks at alpha, so a verdict that
    holds at some alpha holds at every smaller alpha with identical
    witnesses.  T(r^d) is the sample's own T when r^d is a grid circle.
    """
    T = {s.r: s.T for s in profile.samples}

    def steps():
        for s, (t, lhs) in _searches(profile, _tested(profile), params.d, closed=False):
            r = s.r
            rhs = params.alpha * s.T
            yield (lhs > rhs, r, Witness(r, t, lhs, rhs, lhs - rhs),
                   "no t in (r, r^d) lifts log L above alpha*T(r)")
            top = r**params.d
            grown = T[top] if top in T else characteristic(profile.function, top)
            need = params.D * s.T
            yield (grown >= need, r, Witness(r, top, grown, need, grown - need),
                   "characteristic at r^d fell below D*T(r)")

    return _verdict("main-growth", steps())


def check_L_versus_M(profile: RadialProfile, d: float) -> CriterionVerdict:
    """Somewhere in [r, r^d] the minimum modulus beats d times log M(r).

    The search range is closed at both ends.  Margins within 1e-9 of zero
    are clamped to zero and count as holding; monomials sit exactly on
    this boundary, since L = M turns both sides into the same number at
    t = r^d.
    """
    if not d > 1.0:
        raise ValueError("search exponent d must exceed 1")

    def steps():
        for s, (t, lhs) in _searches(profile, _tested(profile), d, closed=True):
            rhs = d * s.log_M
            margin = lhs - rhs
            yield (margin >= -_BOUNDARY_TOL, s.r, Witness(s.r, t, lhs, rhs, max(margin, 0.0)),
                   "no t in [r, r^d] lifts log L to d*log M(r)")

    return _verdict("L-versus-M", steps())


def check_strong(profile: RadialProfile, d: float, D: float) -> CriterionVerdict:
    """Somewhere in [r, r^d] the minimum modulus beats D times T(r)."""
    if not d > 1.0:
        raise ValueError("search exponent d must exceed 1")
    if not D > 0.0:
        raise ValueError("growth factor D must be positive")

    def steps():
        for s, (t, lhs) in _searches(profile, _tested(profile), d, closed=True):
            rhs = D * s.T
            yield (lhs > rhs, s.r, Witness(s.r, t, lhs, rhs, lhs - rhs),
                   "no t in [r, r^d] lifts log L above D*T(r)")

    return _verdict("strong-characteristic", steps())


def check_deficiency_order(profile: RadialProfile) -> CriterionVerdict:
    """Order below one half, positive lower order, deficiency above the cosine gap.

    The three inequalities are evaluated on the profile's growth
    estimates: order < 1/2, lower order > 0.05, and deficiency at
    infinity > 1 - cos(pi * order).  All three sub-tests are recorded as
    witnesses whether or not they hold; summary-level records carry
    r = t = 0 since no single radius is involved.
    """
    gs = growth_summary(profile)
    gap = 1.0 - math.cos(math.pi * gs.order)
    subtests = (
        ("order stays below one half", 0.5, gs.order),
        ("lower order clears the floor", gs.lower_order, _MU_FLOOR),
        ("deficiency beats the cosine gap", gs.deficiency, gap),
    )
    steps = ((not lhs <= rhs, 0.0, Witness(0.0, 0.0, lhs, rhs, lhs - rhs), name + " failed")
             for name, lhs, rhs in subtests)
    return _verdict("deficiency-order", steps, every=True)


def check_entire_conditions(profile: RadialProfile) -> list[CriterionVerdict]:
    """Four classical sufficient conditions for entire functions.

    (1) log M(2r)/log M(r) settles, over the trailing decade, inside a
        band of width 0.05 at a level c >= 1.
    (2) the discrete logarithmic derivative x * phi'(x)/phi(x) with
        phi(x) = log M(e^x) stays above 1 on the trailing decade.
    (3) log M(r^m) >= m^2 * log M(r) at m in {2, 4, 8} for base radii in
        the top tested decade (capped so r^m stays below 1e18), each
        log M(r^m) from the full circle scan and refinement.
    (4) the lower-order estimate exceeds 0.05.

    The circles 2r of (1) and r^m of (3) off the grid each go through the
    circle refinement in lockstep, as the profile's circles do; those on
    the grid read their samples.

    Raises NotEntireError when has_poles does not prove the tree
    pole-free, wherever its poles would lie; no catalog is built.
    """
    expr = profile.function
    if has_poles(expr):
        raise NotEntireError(f"the entire-function conditions do not apply: {expr} may have poles")
    samples = profile.samples
    top = samples[-1].r
    window = [s for s in samples if s.r >= top / 10.0 * (1.0 - 1e-12)]

    def ratio_steps():
        # (1) doubling-ratio stabilization
        if any(s.log_M <= 0.0 for s in window):
            yield False, window[0].r, None, "log M not positive on the trailing decade"
            return
        doubled = profile.extrema([2.0 * s.r for s in window])
        ratios = [log_M / s.log_M for s, (_, log_M) in zip(window, doubled)]
        for s, c in zip(window, ratios):
            yield True, s.r, Witness(s.r, 2.0 * s.r, c, 1.0, c - 1.0), ""
        c_min, c_max = min(ratios), max(ratios)
        if c_min < 1.0 - _BOUNDARY_TOL:
            yield False, window[ratios.index(c_min)].r, None, "doubling ratio of log M fell below 1"
        elif c_max - c_min > _RATIO_SPREAD:
            yield (False, window[ratios.index(c_max)].r, None,
                   "doubling ratio spread %.4f exceeds %.2f" % (c_max - c_min, _RATIO_SPREAD))

    def derivative_steps():
        # (2) logarithmic derivative of log M against log r
        interior = [i for i in range(1, len(samples) - 1)
                    if samples[i].r >= window[0].r and samples[i].log_M > 0.0]
        if not interior:
            yield False, top, None, "no interior samples with positive log M"
        for i in interior:
            x = math.log(samples[i].r)
            dx = math.log(samples[i + 1].r) - math.log(samples[i - 1].r)
            dphi = samples[i + 1].log_M - samples[i - 1].log_M
            q = x * (dphi / dx) / samples[i].log_M
            yield (not q <= 1.0 + _BOUNDARY_TOL, samples[i].r, Witness(samples[i].r, 0.0, q, 1.0, q - 1.0),
                   "logarithmic derivative dropped to 1 or below")

    def power_steps():
        # (3) power doubling of log M, the circles r^m of every power in lockstep
        powers = {}
        for m in (2, 4, 8):
            r_hi = min(top, _POWER_CAP ** (1.0 / m))
            powers[m] = [s for s in samples if 10.0 <= s.r <= r_hi and s.r >= r_hi / 10.0]
        circles = [s.r**m for m, bases in powers.items() if len(bases) >= 2 for s in bases]
        log_M = {r: hi for r, (_, hi) in zip(circles, profile.extrema(circles))}
        for m, bases in powers.items():
            if len(bases) < 2:
                yield False, top, None, "fewer than two usable base radii for power %d" % m
                continue
            for s in bases:
                big = s.r**m
                lhs = log_M[big]
                rhs = float(m * m) * s.log_M
                yield (not lhs < rhs - _BOUNDARY_TOL, s.r, Witness(s.r, big, lhs, rhs, lhs - rhs),
                       "power test failed at m=%d" % m)

    # (4) positive lower order
    mu = growth_summary(profile).lower_order
    lower = (not mu <= _MU_FLOOR, 0.0, Witness(0.0, 0.0, mu, _MU_FLOOR, mu - _MU_FLOOR),
             "lower-order estimate at or below 0.05")
    return [
        _verdict("entire-M-ratio", ratio_steps(), every=True),
        _verdict("entire-log-derivative", derivative_steps(), every=True),
        _verdict("entire-power-doubling", power_steps(), every=True),
        _verdict("entire-lower-order", [lower], every=True),
    ]


def check_growth_chain(profile: RadialProfile, m: int, eps: float) -> ChainReport:
    """Link-by-link audit of the power-to-power growth chain.

    At the profile's top radius r the chain reads

        log M(r^m) > (r^m)^(mu-eps) > r^(lam+2*eps) >= log M(r)
                                      with the last comparison at r^(lam+eps),

    where lam and mu are the profile's order and lower-order estimates.
    The chain is applicable only when (mu - eps) * m > lam + 2 * eps;
    otherwise the report says so and carries no links.  Link 1 takes
    log M(r^m) from the full circle scan and refinement of that circle.
    """
    if m < 2:
        raise ValueError("power m must be at least 2")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    gs = growth_summary(profile)
    lam, mu = gs.order, gs.lower_order
    r = profile.samples[-1].r
    lx = math.log(r)
    if (mu - eps) * m <= lam + 2.0 * eps:
        note = "precondition (lower order - eps) * m > order + 2*eps fails for the estimates"
    elif (mu - eps) * m * lx > 690.0 or m * lx > 690.0:
        note = "power r^m overflows the double range at the top radius"
    else:
        note = ""
    if note:
        return ChainReport(False, False, r, (), note)
    mid = math.exp((mu - eps) * m * lx)
    low = math.exp((lam + 2.0 * eps) * lx)
    top = profile.extrema([r**m])[0][1]
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
    bases = [s.grid_radius for s in profile.samples]
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
