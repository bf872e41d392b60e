"""Radial value-distribution functionals and growth summaries.

Everything downstream (criteria, traces, reports) consumes the circle
functionals computed here: the proximity average m(r), the integrated
pole count N(r), the characteristic T(r) = m(r) + N(r), and the modulus
extremes L(r), M(r).  Circle averages run on the log-modulus evaluation
path, so radii far beyond double overflow (log M(r) in the thousands)
stay representable; the plain L and M fields saturate at 1e300 / flush
to 0 for serialization while the log-space fields keep the true values.

m uses the standard 1/(2pi) circle-average normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expr import MeroExpr, as_expr, log_modulus, poles_in_disk

__all__ = [
    "RadiusGrid",
    "RadialSample",
    "RadialProfile",
    "GrowthSummary",
    "InsufficientSpanError",
    "CircleBoundSearchError",
    "proximity",
    "counting",
    "characteristic",
    "min_modulus",
    "max_modulus",
    "log_min_modulus",
    "log_max_modulus",
    "build_profile",
    "growth_summary",
    "circle_bound_witness",
]

_HUGE = 1e300
_POLE_RADIUS_TOL = 1e-9     # a circle this close to a pole modulus is perturbed
_QUAD_START = 512
_QUAD_CAP = 2**20
_SCAN_NODES = 4096
_ANGLE_TOL = 1e-10


class InsufficientSpanError(ValueError):
    """The radius grid is too short for a growth estimate."""


class CircleBoundSearchError(ArithmeticError):
    """No circle in (R, 2R) satisfied the universal bound.

    The bound holds for every meromorphic function in exact arithmetic,
    so reaching this error signals a numerical defect (or an unsupported
    function), never a counterexample.
    """


# ---------------------------------------------------------------------------
# grids and samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusGrid:
    """Geometric radius grid; the default spans [1, 2^16] at ratio 2^(1/8)."""

    r_min: float = 1.0
    r_max: float = 65536.0
    ratio: float = 2.0 ** 0.125

    def __post_init__(self):
        if not (self.r_min > 0 and self.r_max > self.r_min):
            raise ValueError("need 0 < r_min < r_max")
        if not self.ratio > 1.0:
            raise ValueError("grid ratio must exceed 1")

    def radii(self) -> np.ndarray:
        steps = math.ceil(
            math.log(self.r_max / self.r_min) / math.log(self.ratio) - 1e-9
        )
        return self.r_min * self.ratio ** np.arange(steps + 1)


@dataclass(frozen=True)
class RadialSample:
    """Circle functionals at one radius.

    L and M are plain moduli saturated to [0, 1e300]; log_L and log_M
    carry the unsaturated values (log_L is -inf when a zero lies on the
    circle).  T = m + N exactly as stored.  perturbed_from records the
    grid radius when the circle was moved off a pole modulus, and
    m_converged goes False when the proximity quadrature hit its node
    cap (the value is then the best available estimate).
    """

    r: float
    m: float
    N: float
    T: float
    L: float
    M: float
    quadrature_nodes: int
    log_L: float
    log_M: float
    m_converged: bool = True
    perturbed_from: float | None = None

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("proximity must be nonnegative")
        if self.T != self.m + self.N:
            raise ValueError("characteristic must equal m + N exactly")
        if self.L > self.M:
            raise ValueError("min modulus above max modulus")

    def record(self) -> dict:
        return {
            "r": self.r,
            "m": self.m,
            "N": self.N,
            "T": self.T,
            "L": self.L,
            "M": self.M,
        }


@dataclass(frozen=True)
class RadialProfile:
    """Samples on a geometric radius grid for one function."""

    samples: tuple
    function_id: str = ""

    def __post_init__(self):
        base = [
            s.r if s.perturbed_from is None else s.perturbed_from
            for s in self.samples
        ]
        for a, b in zip(base, base[1:]):
            if not b > a:
                raise ValueError("grid radii must increase strictly")
        ratios = [b / a for a, b in zip(base, base[1:])]
        if ratios and max(ratios) - min(ratios) > 1e-12 * max(ratios):
            raise ValueError("grid ratio must be constant")

    def radii(self) -> np.ndarray:
        return np.array([s.r for s in self.samples])

    def records(self) -> list:
        return [s.record() for s in self.samples]


@dataclass(frozen=True)
class GrowthSummary:
    """Finite-window estimates of order, lower order and deficiency.

    These stand in for limsup/liminf quantities and are exactly as good
    as the profile's span; fit_window and residual say which radii the
    regressions saw and how well a power law fit.
    """

    order: float
    lower_order: float
    deficiency: float
    fit_window: tuple
    residual: float

    def __post_init__(self):
        if not 0 <= self.lower_order <= self.order:
            raise ValueError("need 0 <= lower order <= order")
        if not 0 <= self.deficiency <= 1:
            raise ValueError("deficiency must lie in [0, 1]")


# ---------------------------------------------------------------------------
# proximity (circle average of log+ |f|)
# ---------------------------------------------------------------------------


def _logplus_samples(f, r: float, theta: np.ndarray) -> np.ndarray:
    z = r * np.exp(1j * theta)
    lm = log_modulus(f, z)
    # a pole or lost value on the circle contributes the overflow cap;
    # profile construction perturbs radii so this stays a stray-sample
    # safeguard rather than a systematic bias
    lm = np.where(np.isnan(lm) | np.isposinf(lm), math.log(_HUGE), lm)
    return np.maximum(lm, 0.0)


def _proximity_detail(f, r: float):
    """(value, nodes, converged) for the adaptive circle average."""
    f = as_expr(f)
    n = _QUAD_START
    theta = 2.0 * math.pi * np.arange(n) / n
    total = float(_logplus_samples(f, r, theta).sum())
    est = total / n
    while n < _QUAD_CAP:
        mid = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        total += float(_logplus_samples(f, r, mid).sum())
        n *= 2
        new = total / n
        if abs(new - est) <= 1e-8 * max(abs(new), 1e-12):
            return new, n, True
        est = new
    return est, n, False


def proximity(f, r: float) -> float:
    """m(r, f): the circle average of log+ |f| at radius r.

    Adaptive trapezoid doubling (periodic, so the trapezoid rule is the
    node mean) until successive estimates agree to 1e-8 relative; past
    the 2^20 node cap the best estimate stands (see RadialSample for the
    flagged variant).
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    return _proximity_detail(f, r)[0]


# ---------------------------------------------------------------------------
# counting and characteristic
# ---------------------------------------------------------------------------


def counting(f, r: float) -> float:
    """N(r, f): poles weighted by log(r/|b|), plus the origin term.

    Equals the integral of n(t)/t in its integrated-by-parts form.  For
    r below 1 a pole at the origin makes this negative, matching the
    standard definition; profiles start at r >= 1 so stored samples keep
    N >= 0.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    catalog = poles_in_disk(f, r)
    n0 = catalog.multiplicity_at_origin()
    total = n0 * math.log(r)
    for b, mult in catalog.entries:
        if abs(b) > 1e-9:
            total += mult * math.log(r / abs(b))
    return total


@lru_cache(maxsize=4096)
def _characteristic_cached(f: MeroExpr, r: float) -> float:
    return proximity(f, r) + counting(f, r)


def characteristic(f, r: float) -> float:
    """T(r, f) = m(r, f) + N(r, f)."""
    return _characteristic_cached(as_expr(f), float(r))


# ---------------------------------------------------------------------------
# modulus extremes on circles
# ---------------------------------------------------------------------------


def _golden_refine(f, r: float, centers: np.ndarray, step: float, sign: float) -> float:
    """Smallest sign*log|f(r e^{i theta})| over lockstep golden sections.

    Each center spawns a bracket (center - step, center + step); all
    brackets advance together so every iteration costs one vectorized
    circle evaluation instead of one call per bracket.  NaN probes
    (lost values near poles) rank as +inf so they never win.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = centers - step
    b = centers + step

    def probe(t):
        v = sign * log_modulus(f, r * np.exp(1j * t))
        return np.where(np.isnan(v), np.inf, v)

    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = probe(c)
    fd = probe(d)
    while float((b - a).max()) > _ANGLE_TOL:
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fresh = probe(np.where(left, c, d))
        fc, fd = np.where(left, fresh, fd), np.where(left, fc, fresh)
    return float(np.minimum(fc, fd).min())


def _pole_on_circle(f, r: float) -> bool:
    catalog = poles_in_disk(f, r * (1.0 + 1e-6) + 1e-6)
    return any(abs(abs(b) - r) <= _POLE_RADIUS_TOL for b, _ in catalog.entries)


@lru_cache(maxsize=65536)
def _modulus_scan(f: MeroExpr, r: float, want_max: bool):
    """Cached coarse 4096-node scan of the circle |z| = r: (value, centers).

    When centers is None the value is already the exact extremum: a pole
    marker among the samples forces the degenerate convention (-inf for
    the minimum, +inf for the maximum) only when the catalog confirms a
    pole modulus within 1e-9 of r, and a sampled zero makes the minimum
    -inf.  Otherwise the marker samples are dropped, the value is the
    scan extremum of log|f| and centers holds the angles of the eight
    best local brackets.  Refinement can only improve on the scan, so the
    value bounds the extremum from above (minimum) or below (maximum).
    """
    theta = 2.0 * math.pi * np.arange(_SCAN_NODES) / _SCAN_NODES
    lm = log_modulus(f, r * np.exp(1j * theta))
    sign = -1.0 if want_max else 1.0
    marker = np.isnan(lm) | np.isposinf(lm)
    if marker.any():
        if _pole_on_circle(f, r):
            return (math.inf if want_max else -math.inf), None
        lm = lm.copy()
        lm[marker] = math.inf * sign
    if not want_max and np.isneginf(lm).any():
        return -math.inf, None
    obj = sign * lm
    neighbors = np.minimum(np.roll(obj, 1), np.roll(obj, -1))
    local = np.flatnonzero(obj <= neighbors)
    best = local[np.argsort(obj[local])][:8]
    return sign * float(obj[best[0]]), theta[best]


def _modulus_extremum(f: MeroExpr, r: float, want_max: bool) -> float:
    """log of the modulus extremum over the circle |z| = r.

    Scan then refine: the coarse scan of _modulus_scan, then
    golden-section refinement of its eight brackets.  The result is the
    better of the scan extremum and the refined one, so it never falls
    behind the scan bound that _log_min_bound reports.
    """
    value, centers = _modulus_scan(f, r, want_max)
    if centers is None:
        return value
    sign = -1.0 if want_max else 1.0
    step = 2.0 * math.pi / _SCAN_NODES
    return sign * min(sign * value, _golden_refine(f, r, centers, step, sign))


@lru_cache(maxsize=65536)
def _extremum_cached(f: MeroExpr, r: float, want_max: bool) -> float:
    return _modulus_extremum(f, r, want_max)


def _log_min_bound(f, r: float) -> float:
    """Scan upper bound on log L(r, f), without refinement.

    Never below log_min_modulus(f, r), and equal to it on the degenerate
    circles; a search can skip refining any circle whose bound is already
    beaten.
    """
    return _modulus_scan(as_expr(f), float(r), False)[0]


def log_min_modulus(f, r: float) -> float:
    """log L(r, f); -inf when a zero or cataloged pole sits on the circle."""
    if not r > 0:
        raise ValueError("radius must be positive")
    return _extremum_cached(as_expr(f), float(r), False)


def log_max_modulus(f, r: float) -> float:
    """log M(r, f); +inf when a cataloged pole sits on the circle."""
    if not r > 0:
        raise ValueError("radius must be positive")
    return _extremum_cached(as_expr(f), float(r), True)


def min_modulus(f, r: float) -> float:
    """L(r, f) as a plain modulus (flushes to 0 below the double range)."""
    lv = log_min_modulus(f, r)
    if lv == -math.inf:
        return 0.0
    return float(np.exp(min(lv, math.log(_HUGE))))


def max_modulus(f, r: float) -> float:
    """M(r, f) as a plain modulus, saturated at 1e300."""
    lv = log_max_modulus(f, r)
    if lv == -math.inf:
        return 0.0
    if lv >= math.log(_HUGE):
        return _HUGE
    return float(np.exp(lv))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def _saturate(log_value: float) -> float:
    if log_value == -math.inf:
        return 0.0
    if log_value >= math.log(_HUGE):
        return _HUGE
    v = float(np.exp(log_value))
    return v


def build_profile(f, grid: RadiusGrid | None = None, function_id: str = "") -> RadialProfile:
    """Sample the circle functionals over a geometric radius grid.

    Radii whose circle passes within 1e-9 of a cataloged pole modulus
    are nudged up by ratio^(1/16) (repeatedly if needed, up to 8 times)
    and the original grid radius is recorded on the sample.
    """
    f = as_expr(f)
    if grid is None:
        grid = RadiusGrid()
    pole_moduli = [abs(b) for b, _ in poles_in_disk(f, grid.r_max * 2.0).entries]
    notch = grid.ratio ** (1.0 / 16.0)
    samples = []
    for r0 in grid.radii():
        r = float(r0)
        perturbed = None
        for _ in range(8):
            if all(abs(pm - r) > _POLE_RADIUS_TOL for pm in pole_moduli):
                break
            perturbed = float(r0)
            r *= notch
        m, nodes, converged = _proximity_detail(f, r)
        N = counting(f, r)
        log_L = log_min_modulus(f, r)
        log_M = log_max_modulus(f, r)
        samples.append(
            RadialSample(
                r=r,
                m=m,
                N=N,
                T=m + N,
                L=_saturate(log_L),
                M=_saturate(log_M),
                quadrature_nodes=nodes,
                log_L=log_L,
                log_M=log_M,
                m_converged=converged,
                perturbed_from=perturbed,
            )
        )
    return RadialProfile(samples=tuple(samples), function_id=function_id)


# ---------------------------------------------------------------------------
# growth summaries
# ---------------------------------------------------------------------------

_MIN_SAMPLES = 16
_MIN_SPAN = 99.9        # grid must span two decades (e.g. [1, 100])
_MIN_WINDOW = 8


def _slope(x: np.ndarray, y: np.ndarray):
    n = x.size
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    denom = float(np.dot(dx, dx))
    slope = float(np.dot(dx, y - ym) / denom)
    resid = y - (ym + slope * (x - xm))
    return slope, math.sqrt(float(np.dot(resid, resid)) / n)


def growth_summary(profile: RadialProfile) -> GrowthSummary:
    """Order, lower order, and deficiency estimates from a profile.

    Regression windows are the suffixes of the grid that start in its
    trailing half, so every window ends at r_max and the small-r
    transient never enters.  The order estimate is the largest
    least-squares slope of log T against log r over those windows, the
    lower-order estimate the smallest, and the deficiency estimate the
    smallest m/T over the trailing half.  All three are finite-window
    stand-ins for the limsup/liminf definitions, nothing more.
    """
    samples = [s for s in profile.samples if s.T > 1e-12]
    if len(samples) < _MIN_SAMPLES:
        raise InsufficientSpanError("need at least 16 samples with T > 0")
    if samples[-1].r / samples[0].r < _MIN_SPAN:
        raise InsufficientSpanError("grid must span at least two decades")
    x = np.log([s.r for s in samples])
    y = np.log([s.T for s in samples])
    half = len(samples) // 2
    slopes = []
    residual = 0.0
    for i in range(half, len(samples) - _MIN_WINDOW + 1):
        sl, res = _slope(x[i:], y[i:])
        slopes.append(sl)
        residual = max(residual, res)
    if not slopes:
        sl, residual = _slope(x[half:], y[half:])
        slopes = [sl]
    order = max(max(slopes), 0.0)
    lower = min(max(min(slopes), 0.0), order)
    tail = samples[half:]
    ratios = [s.m / s.T for s in tail]
    deficiency = min(1.0, max(0.0, min(ratios)))
    return GrowthSummary(
        order=order,
        lower_order=lower,
        deficiency=deficiency,
        fit_window=(samples[half].r, samples[-1].r),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# the universal circle bound
# ---------------------------------------------------------------------------


def circle_bound_witness(f, R: float):
    """A radius r in (R, 2R) where max log+ |f| <= 24 T(3R, f).

    Searches a 64-point log-uniform grid, skipping circles within 1e-6
    of a cataloged pole modulus, and returns (r, max_logplus, bound) at
    the first success.  Failure raises CircleBoundSearchError loudly:
    the bound holds for every meromorphic function, so a miss means the
    numerics (not the mathematics) broke down.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    f = as_expr(f)
    bound = 24.0 * characteristic(f, 3.0 * R)
    pole_moduli = [abs(b) for b, _ in poles_in_disk(f, 2.0 * R).entries]
    for i in range(64):
        r = R * 2.0 ** ((i + 0.5) / 64.0)
        if any(abs(pm - r) <= 1e-6 for pm in pole_moduli):
            continue
        max_logplus = max(log_max_modulus(f, r), 0.0)
        if max_logplus <= bound:
            return r, max_logplus, bound
    raise CircleBoundSearchError(
        f"no circle in ({R}, {2 * R}) satisfied max log+|f| <= 24 T(3R)"
    )
