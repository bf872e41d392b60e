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
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .expr import HUGE, LOG_HUGE, Const, MeroExpr, Node, as_expr, log_modulus, poles_in_disk

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
_SCAN_NODES = 4096
_CALL_POINTS = _SCAN_NODES // 2 + 1  # at most a half-circle scan's points per lockstep call
_SCAN_THETA = 2.0 * math.pi * np.arange(_SCAN_NODES) / _SCAN_NODES
_SCAN_THETA.flags.writeable = False
# e^{i theta} at the scan nodes: r times a slice of it is _circle(r, theta, half)
# at those nodes, bit for bit, without a complex exp per circle
_SCAN_UNIT = np.exp(1j * _SCAN_THETA)
_SCAN_UNIT.flags.writeable = False
_BOUND_STRIDE = 16  # a ladder circle's pruning bound reads every 16th scan node
_ANGLE_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 33
_GRID_SHRINK = _GRID_POINTS // 2  # a level narrows a bracket from 2 * 16 grid cells to 2
# a level's grid in cells from the bracket centre, nearest first: ties go
# to the point nearest the centre, and the centre wins them all
_GRID_OFFSETS = np.array(sorted(range(-_GRID_SHRINK, _GRID_SHRINK + 1), key=abs), dtype=float)


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
    """Geometric radius grid; the defaults, [1, 1000] at ratio 2^(1/8), are the CLI's."""

    r_min: float = 1.0
    r_max: float = 1000.0
    ratio: float = 2.0 ** 0.125

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r_min, self.r_max, self.ratio))):
            raise ValueError("grid bounds and ratio must be finite")
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
    of m evaluated, which is about half the circle's worth for a function
    with real coefficients (see proximity), and m_converged goes False when
    its next level would have passed the 2^20 node cap (m is then the best
    available estimate).  record() reports these three with the functionals.
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

    @property
    def grid_radius(self) -> float:
        """The grid radius the circle stands for: perturbed_from, else r."""
        return self.r if self.perturbed_from is None else self.perturbed_from

    def record(self) -> dict:
        """The fields without log_L and log_M, which can be infinite: the
        JSON reports refuse non-finite values, and -inf has no JSON
        convention yet."""
        out = asdict(self)
        del out["log_L"], out["log_M"]
        return out


@dataclass(frozen=True)
class RadialProfile:
    """Samples of function on a geometric radius grid, and the circles read off it.

    build_profile samples the grid; RadialProfile((), f) holds no samples,
    only the circles of f that its methods are asked for.  Every circle
    that a check reads goes through extrema and ladder_bound, which
    evaluate each circle once per profile: the extrema start from the
    samples' own circles, so a check never rescans a grid circle.  Two
    profiles share no circle, and a command builds at most one.
    """

    samples: tuple
    function: MeroExpr
    _extrema: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _bounds: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        base = [s.grid_radius for s in self.samples]
        for a, b in zip(base, base[1:]):
            if not b > a:
                raise ValueError("grid radii must increase strictly")
        ratios = [b / a for a, b in zip(base, base[1:])]
        if ratios and max(ratios) - min(ratios) > 1e-12 * max(ratios):
            raise ValueError("grid ratio must be constant")
        self._extrema.update((s.r, (s.log_L, s.log_M)) for s in self.samples)

    def extrema(self, radii) -> list:
        """(log L, log M) of function on each circle of radii, in order.

        The circles not met before, each once in order of first
        appearance, go through one _modulus_extrema call, in lockstep.
        """
        known = self._extrema
        new = list(dict.fromkeys(r for r in radii if r not in known))
        if new:
            known.update(zip(new, _modulus_extrema(self.function, new)))
        return [known[r] for r in radii]

    def ladder_bound(self, r: float) -> float:
        """_log_min_subset_bound of function at radius r, evaluated once."""
        bounds = self._bounds
        if r not in bounds:
            bounds[r] = _log_min_subset_bound(self.function, r)
        return bounds[r]

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
# conjugate symmetry
# ---------------------------------------------------------------------------


def _real_tree(node: Node) -> bool:
    if isinstance(node, Const):
        return complex(node.value).imag == 0.0
    return all(_real_tree(child) for child in vars(node).values() if isinstance(child, Node))


@lru_cache(maxsize=None)
def _conjugate_symmetric(f: MeroExpr) -> bool:
    """True when every constant of f is real.

    Every other node (exp, sin, cos, tan, lacunary, canprod, integer
    powers, quotients) has real Taylor coefficients, so then
    f(conj z) = conj f(z) and |f(r e^{-i theta})| = |f(r e^{i theta})|: each
    circle functional needs only theta in [0, pi].
    """
    return _real_tree(f.root)


def _circle(r, theta: np.ndarray, half: bool) -> np.ndarray:
    """r e^{i theta} for one radius r, or for a column of radii (a row each).

    On the half route (half true) the angles run from 0 up to a last one of
    pi, and that point is exactly -r: r e^{i pi} is -r + 1.2e-16 r i, which
    misses a zero on the negative axis.
    """
    z = r * np.exp(1j * theta)
    if half:
        z[..., -1:] = -r
    return z


# ---------------------------------------------------------------------------
# proximity (circle average of log+ |f|)
# ---------------------------------------------------------------------------


def _logplus(f, z: np.ndarray) -> np.ndarray:
    lm = log_modulus(f, z)
    # a pole or lost value on the circle contributes the overflow cap;
    # profile construction perturbs radii so this stays a stray-sample
    # safeguard rather than a systematic bias
    lm = np.where(np.isnan(lm) | np.isposinf(lm), LOG_HUGE, lm)
    return np.maximum(lm, 0.0)


# np.polynomial.legendre.leggauss(15), written out bit for bit: leggauss
# imports numpy.polynomial and sets up LAPACK, about 3 ms and 1.5 MiB per process
_GL_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_GL_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


def _in_calls(fun, rows: int, per_row: int):
    """The (rows, per_row) values of fun(s) over consecutive row slices s of
    at most _CALL_POINTS points (one row at least).

    The lockstep routines evaluate the rows of every circle of a level this
    way: each kernel call is about the size of a scan call, each slice's
    angles and radii are built only when its call is made, and the values
    go straight into one array.
    """
    step = max(1, _CALL_POINTS // per_row)
    if rows <= step:
        return fun(slice(0, rows))
    out = np.empty((rows, per_row))
    for i in range(0, rows, step):
        out[i:i + step] = fun(slice(i, i + step))
    return out


def _panel_level(f, r: np.ndarray, left: np.ndarray, width: float):
    """log+ |f| at the 15 Gauss-Legendre nodes of each panel [left, left + width]
    on the circle of radius r (one row per panel), and each panel's share of m.

    A share sums its own row's 15 weighted values in a fixed order, so it
    does not depend on the other rows of the level, nor on the BLAS build: a
    BLAS product g @ w rounds a row differently with its place in the block.
    """
    offsets = 0.5 * width * (1.0 + _GL_NODES)
    g = _in_calls(lambda s: _logplus(f, _circle(r[s, None], left[s, None] + offsets, False)),
                  left.size, _GL_NODES.size)
    return g, (g * _GL_WEIGHTS).sum(axis=1) * (width / (4.0 * math.pi))


def _proximity_detail(f: MeroExpr, radii):
    """(value, nodes, converged) of the adaptive circle average on each circle
    of radii, all circles in lockstep.

    The 64 starting panels tile [0, 2pi].  For a function with real
    coefficients (_conjugate_symmetric) only the 32 on [0, pi] and their 33
    edges are evaluated, and their panels' shares count twice: the panels
    on [pi, 2pi] mirror them.  Each level evaluates both halves of every
    open panel of every circle in the same few kernel calls (_in_calls), as
    do the starting edges and the first rule.  The open panels of all
    circles lie in flat arrays, circle by circle, owner giving each one's
    circle; each per-circle sum (the first level, the accepted halves, the
    open panels of a capped circle) is one np.bincount over owner, which
    adds in panel order, so a circle's sum reads only its own panels.  A
    panel's error estimate is the difference between its rule and the sum
    over its halves, plus a bound on what a kink of log+ |f| can hide
    between a half's edge and its node next to that edge, where no rule
    looks: the edge values come from the starting edges and from the centre
    node of each panel's own rule.  A panel whose estimate is at most
    tol * width / 2pi is accepted, so the accepted estimates over a whole
    circle add up to at most tol = 1e-10 * max(1, m0), m0 that circle's
    first-level value; the others are bisected.  nodes counts the points a
    circle evaluated.  A circle whose next level would take it past 2^20
    leaves the lockstep before that level: its value is then the accepted
    halves plus the open panels' last estimates, and converged is False.
    Each circle's result equals the one it gets alone.
    """
    x = _GL_NODES
    centre = x.size // 2
    gap = 0.5 * (1.0 + x[0])   # a panel edge's distance to its nearest node, in widths
    width = 2.0 * math.pi / _QUAD_PANELS
    n = len(radii)
    r = np.array(radii, dtype=float)
    half = _conjugate_symmetric(f)
    copies = 2.0 if half else 1.0
    start = width * np.arange(_QUAD_PANELS // 2 if half else _QUAD_PANELS)
    theta = np.append(start, math.pi) if half else start
    edges = _in_calls(lambda s: _logplus(f, _circle(r[s, None], theta, half)), n, theta.size)
    hi = edges[:, 1:] if half else np.roll(edges, -1, axis=1)
    # the open panels, circle by circle; owner is each panel's circle
    owner = np.repeat(np.arange(n), start.size)
    lo, hi, left = edges[:, :start.size].ravel(), hi.ravel(), np.tile(start, n)
    g, est = _panel_level(f, r[owner], left, width)
    mid = g[:, centre]
    tol = _QUAD_TOL * np.maximum(1.0, copies * np.bincount(owner, est, n))
    nodes = np.full(n, theta.size + start.size * x.size)
    value = np.zeros(n)
    converged = np.ones(n, dtype=bool)
    while owner.size:
        capped = nodes + 2 * x.size * np.bincount(owner, minlength=n) > _QUAD_CAP
        if capped.any():
            value[capped] += np.bincount(owner, est, n)[capped]
            converged &= ~capped
            keep = ~capped[owner]
            left, est, lo, mid, hi, owner = (v[keep] for v in (left, est, lo, mid, hi, owner))
            if not owner.size:
                break
        width *= 0.5
        left = np.column_stack([left, left + width])
        pair = np.repeat(owner, 2)
        g, halves = _panel_level(f, r[pair], left.ravel(), width)
        g, halves = g.reshape(-1, 2, x.size), halves.reshape(-1, 2)
        # each half's edge values against its nodes next to them; where
        # they straddle |f| = 1, the kink between them can hide up to the
        # larger value times the gap
        edge = np.stack([lo, mid, mid, hi], axis=1)
        near = g[:, :, [0, -1]].reshape(-1, 4)
        hidden = np.where((edge > 0.0) != (near > 0.0), edge + near, 0.0).sum(axis=1)
        both = halves.sum(axis=1)
        err = np.abs(est - both) + hidden * (gap * width / (2.0 * math.pi))
        # tol * (parent width) / 2pi, the parent being 2 * width wide
        open_ = err > tol[owner] * width / math.pi
        nodes += x.size * np.bincount(pair, minlength=n)
        value += np.bincount(owner[~open_], both[~open_], n)
        lo = np.column_stack([lo, mid])[open_].ravel()
        hi = np.column_stack([mid, hi])[open_].ravel()
        mid = g[open_, :, centre].ravel()
        left, est = left[open_].ravel(), halves[open_].ravel()
        owner = np.repeat(owner[open_], 2)
    return list(zip((copies * value).tolist(), nodes.tolist(), converged.tolist()))


def proximity(f, r: float) -> float:
    """m(r, f): the circle average of log+ |f| at radius r.

    Adaptive 15-point Gauss-Legendre panels on [0, 2pi], from 64 equal
    panels; for a function with real coefficients, on [0, pi] from 32,
    doubled, as |f| is symmetric about the real axis.  A panel is bisected
    while its rule and the sum over its halves, plus what a kink could hide
    between an edge and its nearest node, differ by more than
    1e-10 * max(1, m) in proportion to its width.  The kinks of log+ |f|
    where |f| = 1 and the log peaks next to poles near the circle draw the
    bisections; smooth stretches pass the first comparison.  As with any
    sampling rule, an arc of log+ |f| > 0 that falls between the first
    comparison's nodes (about 2e-3 rad apart) goes unseen.  Past the 2^20
    cap on evaluated nodes the best estimate stands (RadialSample flags
    it).  Nothing is cached: each call runs the quadrature afresh, and
    build_profile runs all its circles through one lockstep quadrature.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    return _proximity_detail(as_expr(f), [float(r)])[0][0]


# ---------------------------------------------------------------------------
# counting and characteristic
# ---------------------------------------------------------------------------


def counting(f, r: float) -> float:
    """N(r, f): poles weighted by log(r/|b|), plus the origin term.

    Equals the integral of n(t)/t in its integrated-by-parts form.  For
    r below 1 a pole at the origin makes this negative, matching the
    standard definition; profiles start at r >= 1 so stored samples keep
    N >= 0.  Summed in order, the origin term first, like a scalar loop.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    catalog = poles_in_disk(f, r)
    k = len(catalog.within(0.0))  # the poles at the origin, up to the merge tolerance
    terms = catalog.multiplicities[k:] * np.log(r / catalog.moduli[k:])
    head = int(catalog.multiplicities[:k].sum()) * math.log(r)
    return float(np.cumsum(np.concatenate(([head], terms)))[-1])


def characteristic(f, r: float) -> float:
    """T(r, f) = m(r, f) + N(r, f)."""
    return proximity(f, r) + counting(f, r)


# ---------------------------------------------------------------------------
# modulus extremes on circles
# ---------------------------------------------------------------------------


def golden_min(fun, a, b, tol: float):
    """Golden-section minima of fun on the brackets [a, b], in lockstep.

    fun maps one abscissa per bracket to one value per bracket.  Each
    bracket steps until it is at most tol wide; after that its abscissa
    reads NaN and its value is ignored, so fun can skip it.  NaN ranks as
    +inf and ties move up.  Each bracket keeps its best probe so far, so
    the returned (x, value) is its best probe, value == fun(x), and both
    equal what the bracket gets alone; probes counts calls, two plus the
    most steps any bracket takes.
    """

    def probe(x):
        v = fun(x)
        return np.where(np.isnan(v), np.inf, v)

    xc = c = b - _INVPHI * (b - a)
    xd = d = a + _INVPHI * (b - a)
    fc, fd = probe(c), probe(d)
    probes = 2
    open_ = b - a > tol
    while np.any(open_):
        left = fc < fd
        lower, upper = open_ & left, open_ & ~left
        b = np.where(lower, d, b)
        a = np.where(upper, c, a)
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        x = np.where(lower, c, np.where(upper, d, np.nan))
        fresh = probe(x)
        probes += 1
        # a closed bracket keeps its two points
        xc, xd = (np.where(lower, x, np.where(upper, xd, xc)),
                  np.where(upper, x, np.where(lower, xc, xd)))
        fc, fd = (np.where(lower, fresh, np.where(upper, fd, fc)),
                  np.where(upper, fresh, np.where(lower, fc, fd)))
        open_ = b - a > tol
    return np.where(fc < fd, xc, xd), np.minimum(fc, fd), probes


def grid_min(fun, center, half_width, tol: float):
    """Nested-grid minima of fun on the brackets center +- half_width, one call per level.

    Each level lays _GRID_POINTS evenly spaced abscissae across every
    bracket, its centre among them, and fun maps that array (one row per
    bracket) to the values there; the brackets may come from many circles
    (_modulus_extrema), as each row's search is independent of the others.
    NaN ranks as +inf.  Each bracket then
    recentres on its best point, ties going to the point nearest the
    centre, and narrows to the two grid cells around it (16 times narrower
    at 33 points) until every bracket is at most tol wide; a best point at
    an end moves the bracket on by one cell.  The next level evaluates
    each centre again at the same abscissa, so the returned (x, value) is
    each bracket's best probe, value == fun(x); levels counts calls.
    """
    x = np.asarray(center, dtype=float)
    cell = np.asarray(half_width, dtype=float) / _GRID_SHRINK
    levels = 0
    while True:
        grid = x[..., None] + cell[..., None] * _GRID_OFFSETS
        v = fun(grid)
        v = np.where(np.isnan(v), np.inf, v)
        best = np.argmin(v, axis=-1)[..., None]
        x = np.take_along_axis(grid, best, -1)[..., 0]
        value = np.take_along_axis(v, best, -1)[..., 0]
        levels += 1
        if float(np.max(2.0 * cell)) <= tol:
            return x, value, levels
        cell = cell / _GRID_SHRINK


def _pole_on_circle(f: MeroExpr, r: float) -> bool:
    """True when the catalog confirms a pole modulus within 1e-9 of r."""
    return poles_in_disk(f, r * (1.0 + 1e-6) + 1e-6).near(r, _POLE_RADIUS_TOL)


def _scan_samples(f: MeroExpr, r: float, stride: int):
    """log|f| at every stride-th node of the 4096-node scan of |z| = r, or
    None when the catalog confirms a pole modulus within 1e-9 of r.

    For a function with real coefficients (_conjugate_symmetric) the nodes
    run over [0, pi] only, the last one (node 2048) exactly -r, and the rest
    of the circle mirrors them; otherwise they run over the whole circle.
    A pole marker (NaN or +inf) among the samples gives None when the
    catalog confirms the pole; otherwise it reads NaN, which every caller
    drops.  A sample does not depend on the stride.
    """
    if _conjugate_symmetric(f):
        z = r * _SCAN_UNIT[:_SCAN_NODES // 2 + 1:stride]
        z[-1] = -r
    else:
        z = r * _SCAN_UNIT[::stride]
    lm = log_modulus(f, z)
    marker = ~(lm < math.inf)   # NaN or +inf
    if not marker.any():
        return lm
    if _pole_on_circle(f, r):
        return None
    lm[marker] = math.nan
    return lm


def _modulus_scan(f: MeroExpr, r: float):
    """The coarse 4096-node scan of |z| = r: the min and max (value, centers).

    The samples are _scan_samples(f, r, 1).  For a function with real
    coefficients these are nodes 0 to 2048, on [0, pi], the axis ones at
    exactly r and -r, mirrored here onto the rest; each center past pi then
    folds onto its mirror image in [0, pi], and duplicates go, so
    _modulus_extrema refines one bracket per mirror pair.
    An empty centers means the value is already the exact extremum: a
    confirmed pole on the circle gives (-inf, +inf), and a sampled zero
    makes the minimum -inf.  Otherwise the marker samples (NaN) are dropped
    from both sides, each value is the side's scan extremum of log|f| and
    centers holds the angles of its eight best local brackets, one scan step
    either side of each.  Refinement (grid_min in _modulus_extrema) can
    only improve on the scan, so the values bound log L from above and
    log M from below.  Only _modulus_extrema calls it; a profile's
    extrema keep the result of each circle's scan and refinement.
    """
    lm = _scan_samples(f, r, 1)
    exact = np.empty(0)
    if lm is None:
        return (-math.inf, exact), (math.inf, exact)
    n = _SCAN_NODES
    folded = lm.size < n
    # the whole circle between one wrapped node either side: wrap[k + 1] is node k
    wrap = np.empty(n + 2)
    wrap[1:lm.size + 1] = lm
    if folded:
        wrap[lm.size + 1:n + 1] = lm[n // 2 - 1:0:-1]
    wrap[0], wrap[n + 1] = wrap[n], wrap[1]
    sides = []
    for sign in (1.0, -1.0):
        obj = sign * wrap
        obj[np.isnan(obj)] = math.inf
        nodes = obj[1:n + 1]
        if sign > 0 and np.isneginf(nodes).any():
            sides.append((-math.inf, exact))
            continue
        local = np.flatnonzero(nodes <= np.minimum(obj[:n], obj[2:]))
        best = local[np.argsort(nodes[local])][:8].tolist()
        centers = sorted({min(k, n - k) for k in best} if folded else set(best))
        sides.append((sign * float(nodes[best[0]]), _SCAN_THETA[centers]))
    return tuple(sides)


def _modulus_extrema(f: MeroExpr, radii):
    """(log L, log M) over each circle |z| = r of radii, all circles in lockstep.

    Scan then refine: one grid_min pass takes the brackets of both
    _modulus_scan sides of every circle (one scan step either side of each
    center, the maximum's as -log|f|) to 1e-10 rad.  Each level evaluates
    the brackets of all circles in the same few kernel calls (_in_calls),
    seven levels in all; for a function with real coefficients the centers
    lie in [0, pi], one per mirror pair.  Each side is the better of its
    scan and refined extrema (np.minimum.at over the brackets' side index),
    so the minimum never falls behind the scan minimum.  Each circle's
    result equals the one it gets alone.
    """
    scans = [_modulus_scan(f, r) for r in radii]
    # side 2k is circle k's log L, side 2k + 1 its -log M; a row per bracket,
    # side by side (a sampled zero leaves its minimum side without one)
    best = np.array([(lo, -hi) for (lo, _), (hi, _) in scans], dtype=float).reshape(-1)
    centers = [c for sides in scans for _, c in sides]
    side = np.repeat(np.arange(best.size), [c.size for c in centers])
    if side.size:
        rows = np.asarray(radii, dtype=float)[side // 2]
        sign = np.where(side % 2, -1.0, 1.0)[:, None]

        def fun(t):
            return _in_calls(lambda s: sign[s] * log_modulus(f, _circle(rows[s, None], t[s], False)),
                             t.shape[0], t.shape[1])

        step = 2.0 * math.pi / _SCAN_NODES
        _, refined, _ = grid_min(fun, np.concatenate(centers), step, _ANGLE_TOL)
        np.minimum.at(best, side, refined)
    return [(lo, -hi) for lo, hi in best.reshape(-1, 2).tolist()]


def _log_min_subset_bound(f: MeroExpr, r: float) -> float:
    """Upper bound on log L(r, f) from _scan_samples(f, r, 16).

    For a function with real coefficients these are nodes 0, 16, ..., 2048
    of the half circle (129 points, the last exactly -r), else every 16th
    of the 4096 (256 points).  Each sample is bit-identical to that node's
    scan sample, so the bound is never below the scan minimum
    _modulus_scan(f, r)[0][0], which is never below log_min_modulus.  The
    scan's marker rule holds: a confirmed pole on the circle gives -inf,
    and any other marker is dropped.  A criteria search prunes its ladder
    with it at a sixteenth of the scan's kernel points, each circle once
    per profile (RadialProfile.ladder_bound); nothing is cached here.
    """
    lm = _scan_samples(f, r, _BOUND_STRIDE)
    return -math.inf if lm is None else float(np.fmin.reduce(lm, initial=math.inf))


def log_min_modulus(f, r: float) -> float:
    """log L(r, f).

    -inf when one of the 4096 scan nodes hits a zero exactly, or when a
    cataloged pole sits on the circle.  For a function with real
    coefficients the nodes at angles 0 and pi are exactly r and -r, so a
    zero on the real axis reads -inf: canprod(4) at r = 16 does.  A zero
    on the circle off the real axis, between nodes, reads finite and very
    negative.  (With a complex constant the node at angle pi is
    -r + 1.2e-16 r i, so a zero at -r reads finite too.)  Nothing is
    cached: each call scans and refines its circle afresh, as
    log_max_modulus does; the checks read their circles through a
    profile (RadialProfile.extrema), which keeps them.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    return _modulus_extrema(as_expr(f), [float(r)])[0][0]


def log_max_modulus(f, r: float) -> float:
    """log M(r, f); +inf when a cataloged pole sits on the circle."""
    if not r > 0:
        raise ValueError("radius must be positive")
    return _modulus_extrema(as_expr(f), [float(r)])[0][1]


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


def build_profile(f, grid: RadiusGrid = RadiusGrid()) -> RadialProfile:
    """Sample the circle functionals over a geometric radius grid.

    Radii whose circle passes within 1e-9 of a cataloged pole modulus
    are nudged up by ratio^(1/16), up to 8 times, and the original grid
    radius is recorded on the sample; one catalog, up to the top grid
    radius times ratio^(1/2), reaches every nudge.
    All circles go through the quadrature of m (_proximity_detail) and
    the refinement of L and M (_modulus_extrema) in lockstep, so each
    level of either takes a few kernel calls for the whole profile; each
    sample equals the one its circle gets alone.
    """
    f = as_expr(f)
    grid_radii = grid.radii()
    catalog = poles_in_disk(f, float(grid_radii[-1]) * grid.ratio**0.5)
    notch = grid.ratio ** (1.0 / 16.0)
    radii, perturbed = [], []
    for r0 in grid_radii:
        r = float(r0)
        moved = None
        for _ in range(8):
            if not catalog.near(r, _POLE_RADIUS_TOL):
                break
            moved = float(r0)
            r *= notch
        radii.append(r)
        perturbed.append(moved)
    samples = []
    for r, moved, (m, nodes, converged), (log_L, log_M) in zip(
            radii, perturbed, _proximity_detail(f, radii), _modulus_extrema(f, radii)):
        N = counting(f, r)
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
                perturbed_from=moved,
            )
        )
    return RadialProfile(samples=tuple(samples), function=f)


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


def growth_grid(grid: RadiusGrid) -> None:
    """Refuse a grid on which no profile can pass growth_summary.

    Raises InsufficientSpanError with growth_summary's message when grid
    has fewer than 16 radii, or when its top radius, nudged up by
    ratio^(1/2) (the most build_profile moves a circle), still spans less
    than two decades from its first.  A grid that passes can still fail
    growth_summary on samples with T = 0.
    """
    radii = grid.radii()
    if radii.size < _MIN_SAMPLES:
        raise InsufficientSpanError("need at least 16 samples with T > 0")
    if radii[-1] * grid.ratio**0.5 / radii[0] < _MIN_SPAN * (1.0 - 1e-12):
        raise InsufficientSpanError("grid must span at least two decades")


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
    catalog = poles_in_disk(f, 2.0 * R)
    for i in range(64):
        r = R * 2.0 ** ((i + 0.5) / 64.0)
        if catalog.near(r, 1e-6):
            continue
        max_logplus = max(log_max_modulus(f, r), 0.0)
        if max_logplus <= bound:
            return r, max_logplus, bound
    raise CircleBoundSearchError(
        f"no circle in ({R}, {2 * R}) satisfied max log+|f| <= 24 T(3R)"
    )
