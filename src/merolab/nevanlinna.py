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
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .expr import HUGE, LOG_HUGE, MeroExpr, as_expr, log_modulus, poles_in_disk

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

_POLE_RADIUS_TOL = 1e-9     # a circle this close to a pole modulus is perturbed
_QUAD_PANELS = 64
_QUAD_TOL = 1e-10
_QUAD_CAP = 2**20
_QUAD_CHUNK = 2**17
_SCAN_NODES = 4096
_ANGLE_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    carry the unsaturated values (log_L is -inf only when a scan node hits
    a zero exactly, or a cataloged pole lies on the circle; a zero between
    nodes reads finite, see log_min_modulus).  T = m + N exactly as stored.
    perturbed_from records the grid radius when the circle was moved off a
    pole modulus.  quadrature_nodes counts the points the panel quadrature
    of m evaluated, and m_converged goes False when its next level would
    have passed the 2^20 node cap (m is then the best available estimate,
    see proximity).  record() reports these three with the functionals.
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
        """The fields without log_L and log_M, which can be infinite: the
        JSON reports refuse non-finite values, and -inf has no JSON
        convention yet."""
        out = asdict(self)
        del out["log_L"], out["log_M"]
        return out


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
    lm = np.where(np.isnan(lm) | np.isposinf(lm), LOG_HUGE, lm)
    return np.maximum(lm, 0.0)


@lru_cache(maxsize=None)
def _gauss_legendre():
    """The 15-point Gauss-Legendre nodes and weights on [-1, 1].

    Made on first use: leggauss runs LAPACK, whose set-up adds about
    0.7 MiB to the resident memory of a process that never integrates.
    """
    return np.polynomial.legendre.leggauss(15)


def _panel_rule(f, r: float, left: np.ndarray, width: float):
    """log+ |f| at the 15 Gauss-Legendre nodes of each panel [left, left + width]
    (one row per panel), and each panel's share of m(r)."""
    x, w = _gauss_legendre()
    theta = (left[:, None] + 0.5 * width * (1.0 + x)).ravel()
    g = np.concatenate([
        _logplus_samples(f, r, theta[i:i + _QUAD_CHUNK])
        for i in range(0, theta.size, _QUAD_CHUNK)
    ]).reshape(-1, x.size)
    return g, g @ w * (width / (4.0 * math.pi))


@lru_cache(maxsize=4096)
def _proximity_detail(f: MeroExpr, r: float):
    """(value, nodes, converged) for the adaptive circle average, cached per circle.

    Each level evaluates both halves of every open panel in one batch.  A
    panel's error estimate is the difference between its rule and the sum
    over its halves, plus a bound on what a kink of log+ |f| can hide
    between a half's edge and its node next to that edge, where no rule
    looks: the edge values come from the 64 starting edges and from the
    centre node of each panel's own rule.  A panel whose estimate is at
    most tol * width / 2pi is accepted, so the accepted estimates add up to
    at most tol = 1e-10 * max(1, m0), m0 the first-level value; the others
    are bisected.  A level that would take the node count past 2^20 is not
    run: the value is then the accepted halves plus the open panels' last
    estimates, and converged is False.
    """
    x, _ = _gauss_legendre()
    centre = x.size // 2
    gap = 0.5 * (1.0 + x[0])   # a panel edge's distance to its nearest node, in widths
    width = 2.0 * math.pi / _QUAD_PANELS
    left = width * np.arange(_QUAD_PANELS)
    lo = _logplus_samples(f, r, left)
    g, est = _panel_rule(f, r, left, width)
    mid, hi = g[:, centre], np.roll(lo, -1)
    nodes = lo.size + g.size
    tol = _QUAD_TOL * max(1.0, float(est.sum()))
    value = 0.0
    while left.size:
        if nodes + 2 * g.size > _QUAD_CAP:
            return value + float(est.sum()), nodes, False
        width *= 0.5
        left = np.column_stack([left, left + width])
        g, halves = _panel_rule(f, r, left.ravel(), width)
        nodes += g.size
        g, halves = g.reshape(-1, 2, x.size), halves.reshape(-1, 2)
        # each half's edge values against its nodes next to them; where
        # they straddle |f| = 1, the kink between them can hide up to the
        # larger value times the gap
        edge = np.stack([lo, mid, mid, hi], axis=1)
        near = g[:, :, [0, -1]].reshape(-1, 4)
        hidden = np.where((edge > 0.0) != (near > 0.0), edge + near, 0.0).sum(axis=1)
        err = np.abs(est - halves.sum(axis=1)) + hidden * (gap * width / (2.0 * math.pi))
        # tol * (parent width) / 2pi, the parent being 2 * width wide
        open_ = err > tol * width / math.pi
        value += float(halves[~open_].sum())
        lo = np.column_stack([lo, mid])[open_].ravel()
        hi = np.column_stack([mid, hi])[open_].ravel()
        mid = g[open_, :, centre].ravel()
        left, est = left[open_].ravel(), halves[open_].ravel()
        g = g[open_]
    return value, nodes, True


def proximity(f, r: float) -> float:
    """m(r, f): the circle average of log+ |f| at radius r.

    Adaptive 15-point Gauss-Legendre panels on [0, 2pi], from 64 equal
    panels.  A panel is bisected while its rule and the sum over its
    halves, plus what a kink could hide between an edge and its nearest
    node, differ by more than 1e-10 * max(1, m) in proportion to its width.
    The kinks of log+ |f| where |f| = 1 and the log peaks next to poles
    near the circle draw the bisections; smooth stretches pass the first
    comparison.  As with any sampling rule, an arc of log+ |f| > 0 that
    falls between the first comparison's nodes (about 2e-3 rad apart) goes
    unseen.  Past the 2^20 node cap the best estimate stands (RadialSample
    flags it).  build_profile and characteristic share its cache.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    return _proximity_detail(as_expr(f), float(r))[0]


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


def characteristic(f, r: float) -> float:
    """T(r, f) = m(r, f) + N(r, f), m from the per-circle proximity cache."""
    return proximity(f, r) + counting(f, r)


# ---------------------------------------------------------------------------
# modulus extremes on circles
# ---------------------------------------------------------------------------


def golden_min(fun, a, b, tol: float):
    """Golden-section minima of fun on the brackets [a, b], in lockstep.

    fun maps one abscissa per bracket to one value per bracket; steps run
    until every bracket is at most tol wide.  NaN ranks as +inf and ties
    move up.  Each bracket keeps its best probe so far, so the returned
    (x, value) is its best probe, value == fun(x); probes counts calls.
    """

    def probe(x):
        v = fun(x)
        return np.where(np.isnan(v), np.inf, v)

    xc = c = b - _INVPHI * (b - a)
    xd = d = a + _INVPHI * (b - a)
    fc, fd = probe(c), probe(d)
    probes = 2
    while float(np.max(b - a)) > tol:
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        x = np.where(left, c, d)
        fresh = probe(x)
        probes += 1
        xc, xd = np.where(left, x, xd), np.where(left, xc, x)
        fc, fd = np.where(left, fresh, fd), np.where(left, fc, fresh)
    return np.where(fc < fd, xc, xd), np.minimum(fc, fd), probes


def _pole_on_circle(f, r: float) -> bool:
    catalog = poles_in_disk(f, r * (1.0 + 1e-6) + 1e-6)
    return any(abs(abs(b) - r) <= _POLE_RADIUS_TOL for b, _ in catalog.entries)


@lru_cache(maxsize=65536)
def _modulus_scan(f: MeroExpr, r: float):
    """Cached coarse 4096-node scan of |z| = r: the min and max (value, centers).

    An empty centers means the value is already the exact extremum: a
    pole marker among the samples gives (-inf, +inf) only when the catalog
    confirms a pole modulus within 1e-9 of r, and a sampled zero makes the
    minimum -inf.  Otherwise the marker samples are dropped from both
    sides, each value is the side's scan extremum of log|f| and centers
    holds the angles of its eight best local brackets.  Refinement can only
    improve on the scan, so the values bound log L from above and log M
    from below.
    """
    theta = 2.0 * math.pi * np.arange(_SCAN_NODES) / _SCAN_NODES
    lm = log_modulus(f, r * np.exp(1j * theta))
    marker = np.isnan(lm) | np.isposinf(lm)
    exact = np.empty(0)
    if marker.any() and _pole_on_circle(f, r):
        return (-math.inf, exact), (math.inf, exact)
    sides = []
    for sign in (1.0, -1.0):
        obj = sign * lm
        obj[marker] = math.inf
        if sign > 0 and np.isneginf(obj).any():
            sides.append((-math.inf, exact))
            continue
        neighbors = np.minimum(np.roll(obj, 1), np.roll(obj, -1))
        local = np.flatnonzero(obj <= neighbors)
        best = local[np.argsort(obj[local])][:8]
        sides.append((sign * float(obj[best[0]]), theta[best]))
    return tuple(sides)


@lru_cache(maxsize=65536)
def _modulus_extrema(f: MeroExpr, r: float):
    """(log L, log M) over the circle |z| = r.

    Scan then refine: one golden_min call takes the brackets of both
    _modulus_scan sides (one scan step either side of each center, the
    maximum's as -log|f|) to 1e-10 rad.  Each side is the better of its
    scan and refined extrema, so the minimum never falls behind the scan
    bound that _log_min_bound reports.
    """
    (lo, lo_centers), (hi, hi_centers) = _modulus_scan(f, r)
    centers = np.concatenate([lo_centers, hi_centers])
    if centers.size == 0:
        return lo, hi
    k = lo_centers.size  # 0 when a sampled zero already made log L = -inf
    sign = np.repeat([1.0, -1.0], [k, hi_centers.size])
    step = 2.0 * math.pi / _SCAN_NODES
    _, refined, _ = golden_min(lambda t: sign * log_modulus(f, r * np.exp(1j * t)),
                               centers - step, centers + step, _ANGLE_TOL)
    lo = min(lo, float(refined[:k].min(initial=math.inf)))
    hi = -min(-hi, float(refined[k:].min()))
    return lo, hi


def _log_min_bound(f, r: float) -> float:
    """Scan upper bound on log L(r, f), without refinement.

    Never below log_min_modulus(f, r), and equal to it on the degenerate
    circles; a search can skip refining any circle whose bound is already
    beaten.
    """
    return _modulus_scan(as_expr(f), float(r))[0][0]


def log_min_modulus(f, r: float) -> float:
    """log L(r, f).

    -inf when one of the 4096 scan nodes hits a zero exactly, or when a
    cataloged pole sits on the circle.  A zero on the circle between nodes
    reads finite and very negative: canprod(4) at r = 16 reads -34.27,
    because the node at angle pi is -16 + 2e-15i.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    return _modulus_extrema(as_expr(f), float(r))[0]


def log_max_modulus(f, r: float) -> float:
    """log M(r, f); +inf when a cataloged pole sits on the circle."""
    if not r > 0:
        raise ValueError("radius must be positive")
    return _modulus_extrema(as_expr(f), float(r))[1]


def min_modulus(f, r: float) -> float:
    """L(r, f) as a plain modulus, saturated to [0, 1e300] like RadialSample.L."""
    return _saturate(log_min_modulus(f, r))


def max_modulus(f, r: float) -> float:
    """M(r, f) as a plain modulus, saturated to [0, 1e300] like RadialSample.M."""
    return _saturate(log_max_modulus(f, r))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def _saturate(log_value: float) -> float:
    if log_value == -math.inf:
        return 0.0
    if log_value >= LOG_HUGE:
        return HUGE
    return float(np.exp(log_value))


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
_MIN_WINDOW = 8         # _MIN_SAMPLES >= 2 * _MIN_WINDOW: the trailing half holds a window


def _slope(x: np.ndarray, y: np.ndarray):
    """Least-squares slope of y on x, the rms residual, and the slope's
    standard error (from the residual sum, with n - 2 degrees of freedom)."""
    n = x.size
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    denom = float(np.dot(dx, dx))
    slope = float(np.dot(dx, y - ym) / denom)
    resid = y - (ym + slope * (x - xm))
    sse = float(np.dot(resid, resid))
    return slope, math.sqrt(sse / n), math.sqrt(sse / ((n - 2) * denom))


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
        sl, res, _ = _slope(x[i:], y[i:])
        slopes.append(sl)
        residual = max(residual, res)
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
