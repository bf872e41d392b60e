"""Hyperbolic densities, contraction checks, and the growth recursion.

Normalization: the unit-disk density at the origin equals 1, so the
metric has curvature -4 and a simply connected domain W satisfies

    1/(2 d(z)) <= lambda_W(z) <= 2/d(z)

with d(z) the euclidean boundary distance.  Every sample carries that
two-sided interval next to the density itself; domains without a closed
form (polygons, planes with punctures removed) report the interval as
the value.  For punctured planes the reported estimate is the subset
comparison bound (a disk, or punctured disk, inside the domain), which
lies above the true density; a vanishing estimate therefore certifies a
vanishing domain constant.

The trace utilities replay the growth recursion R_n = exp(K T(3 R_{n-1}))
and the combinatorial exponents built from (alpha, d, D, K), recording
every inequality numerically instead of asserting it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import stdtr

from .expr import OVERFLOW_FLAG, POLE_FLAG, as_expr, evaluate_many
from .nevanlinna import _slope, characteristic, golden_min

_CONTRACTION_TOL = 1e-9
_LOG_RADIUS_TOL = 1e-9
_N_ANGULAR = 64
_R_MAX = 64.0
_MAP_SAMPLES = 1000
_SAMPLER_SEED = 12905
_EXP_OVERFLOW = 709.0
_ALPHA_CLIP = (0.01, 0.99)
_TREND_LEVEL = 0.05


class UnsupportedDomainError(TypeError):
    """The requested operation has no implementation for this domain."""


class OutsideDomainError(ValueError):
    """A sample point does not lie in the domain."""


class NonEscapingSampleError(ValueError):
    """A distortion sample failed the escape precheck."""


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius

    def boundary_distance(self, z: complex) -> float:
        return self.radius - abs(z - self.center)


@dataclass(frozen=True)
class HalfPlane:
    """The half-plane on the inward-normal side of a boundary point."""

    boundary_point: complex = 0j
    inward_normal: complex = 1.0 + 0j

    def __post_init__(self):
        if abs(self.inward_normal) == 0:
            raise ValueError("inward normal must be nonzero")

    def _signed(self, z: complex) -> float:
        n = self.inward_normal / abs(self.inward_normal)
        return ((z - self.boundary_point) * n.conjugate()).real

    def contains(self, z: complex) -> bool:
        return self._signed(z) > 0

    def boundary_distance(self, z: complex) -> float:
        return self._signed(z)


@dataclass(frozen=True)
class Annulus:
    center: complex
    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if not 0 < self.inner_radius < self.outer_radius:
            raise ValueError("annulus needs 0 < inner radius < outer radius")

    def contains(self, z: complex) -> bool:
        return self.inner_radius < abs(z - self.center) < self.outer_radius

    def boundary_distance(self, z: complex) -> float:
        s = abs(z - self.center)
        return min(s - self.inner_radius, self.outer_radius - s)


@dataclass(frozen=True)
class PuncturedPlane:
    """The plane with at least two points removed."""

    punctures: tuple

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.punctures)
        object.__setattr__(self, "punctures", pts)
        if len(pts) < 2:
            raise ValueError("a punctured plane needs at least two punctures")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] == pts[j]:
                    raise ValueError("punctures must be distinct")

    def contains(self, z: complex) -> bool:
        return all(z != p for p in self.punctures)

    def boundary_distance(self, z: complex) -> float:
        return min(abs(z - p) for p in self.punctures)


@dataclass(frozen=True)
class PolygonDomain:
    """Interior of a simple closed polygon given by its vertices in order."""

    vertices: tuple

    def __post_init__(self):
        pts = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", pts)
        if len(pts) < 3:
            raise ValueError("a polygon needs at least three vertices")

    def contains(self, z: complex) -> bool:
        # even-odd ray casting against a horizontal ray to the right
        x, y = z.real, z.imag
        inside = False
        pts = self.vertices
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            if (a.imag > y) != (b.imag > y):
                t = (y - a.imag) / (b.imag - a.imag)
                if x < a.real + t * (b.real - a.real):
                    inside = not inside
        return inside

    def boundary_distance(self, z: complex) -> float:
        best = math.inf
        pts = self.vertices
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            ab = b - a
            denom = (ab * ab.conjugate()).real
            t = ((z - a) * ab.conjugate()).real / denom if denom > 0 else 0.0
            t = min(1.0, max(0.0, t))
            best = min(best, abs(z - (a + t * ab)))
        return best


# ---------------------------------------------------------------------------
# densities and distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperbolicSample:
    """Density information at one point of a domain.

    lower/upper hold the boundary-distance interval [1/(2d), 2/d] for
    simply connected domains, the exact value twice for the annulus, and
    the comparison bracket for punctured planes.  density is the exact
    value when one exists and the interval's representative otherwise.
    """

    z: complex
    density: float
    lower: float
    upper: float
    boundary_distance: float
    exact: bool

    def __post_init__(self):
        if not self.density > 0 and self.exact:
            raise ValueError("hyperbolic density must be positive")
        if self.lower > self.density + 1e-12 or self.density > self.upper + 1e-12:
            raise ValueError("density must lie inside its own bracket")


def _require_inside(domain, z: complex):
    if not domain.contains(z):
        raise OutsideDomainError("point %s lies outside the domain" % (z,))


def hyperbolic_density(domain, z: complex) -> HyperbolicSample:
    """Density of the hyperbolic metric at z, normalized to 1 at the disk center.

    Closed forms for disks, half-planes, and annuli; the two-sided
    boundary-distance interval for polygons; the subset comparison bound
    for punctured planes (upper estimate, lower bound 0).
    """
    z = complex(z)
    _require_inside(domain, z)
    if isinstance(domain, Disk):
        s = abs(z - domain.center)
        R = domain.radius
        lam = R / (R * R - s * s)
        d = R - s
        return HyperbolicSample(z, lam, 1.0 / (2.0 * d), 2.0 / d, d, True)
    if isinstance(domain, HalfPlane):
        d = domain.boundary_distance(z)
        lam = 1.0 / (2.0 * d)
        return HyperbolicSample(z, lam, 1.0 / (2.0 * d), 2.0 / d, d, True)
    if isinstance(domain, Annulus):
        s = abs(z - domain.center)
        L = math.log(domain.outer_radius / domain.inner_radius)
        phase = math.pi * math.log(s / domain.inner_radius) / L
        lam = math.pi / (2.0 * L * s * math.sin(phase))
        return HyperbolicSample(z, lam, lam, lam, domain.boundary_distance(z), True)
    if isinstance(domain, PolygonDomain):
        d = domain.boundary_distance(z)
        return HyperbolicSample(z, 1.0 / d, 1.0 / (2.0 * d), 2.0 / d, d, False)
    if isinstance(domain, PuncturedPlane):
        dists = sorted(abs(z - p) for p in domain.punctures)
        s = dists[0]
        upper = 1.0 / s
        nearest = min(domain.punctures, key=lambda p: abs(z - p))
        gap = min(abs(q - nearest) for q in domain.punctures if q != nearest)
        if s < gap:
            # punctured disk around the nearest puncture sharpens the bound
            upper = min(upper, 1.0 / (2.0 * s * math.log(gap / s))) if gap / s > 1.0 else upper
        return HyperbolicSample(z, upper, 0.0, upper, s, False)
    raise UnsupportedDomainError("no density rule for %r" % type(domain).__name__)


def _to_unit_disk(domain, z: complex) -> complex:
    if isinstance(domain, Disk):
        return (z - domain.center) / domain.radius
    if isinstance(domain, HalfPlane):
        n = domain.inward_normal / abs(domain.inward_normal)
        w = (z - domain.boundary_point) * n.conjugate()
        return (w - 1.0) / (w + 1.0)
    raise UnsupportedDomainError(
        "hyperbolic distance is implemented for disks and half-planes only"
    )


def hyperbolic_distance(domain, z1: complex, z2: complex) -> float:
    """Exact hyperbolic distance on a disk or half-plane.

    Under the curvature -4 normalization the unit-disk distance is
    atanh of the pseudo-hyperbolic quotient.
    """
    z1, z2 = complex(z1), complex(z2)
    _require_inside(domain, z1)
    _require_inside(domain, z2)
    u1 = _to_unit_disk(domain, z1)
    u2 = _to_unit_disk(domain, z2)
    q = abs((u1 - u2) / (1.0 - u1.conjugate() * u2))
    q = min(q, 1.0 - 1e-16)
    return math.atanh(q)


def _sample_domain(domain, n: int, rng) -> np.ndarray:
    if isinstance(domain, Disk):
        r = domain.radius * np.sqrt(rng.random(n))
        th = 2.0 * math.pi * rng.random(n)
        return domain.center + r * np.exp(1j * th)
    if isinstance(domain, HalfPlane):
        u = domain.inward_normal / abs(domain.inward_normal)
        depth = rng.exponential(1.0, n)
        side = rng.standard_cauchy(n)
        return domain.boundary_point + (depth + 1j * side) * u
    if isinstance(domain, Annulus):
        r = np.exp(
            rng.uniform(math.log(domain.inner_radius), math.log(domain.outer_radius), n)
        )
        th = 2.0 * math.pi * rng.random(n)
        return domain.center + r * np.exp(1j * th)
    if isinstance(domain, PolygonDomain):
        xs = [v.real for v in domain.vertices]
        ys = [v.imag for v in domain.vertices]
        out = []
        guard = 0
        while len(out) < n and guard < 1000 * n:
            z = complex(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
            guard += 1
            if domain.contains(z):
                out.append(z)
        if len(out) < n:
            raise ValueError("polygon sampling failed; degenerate polygon?")
        return np.array(out, dtype=np.complex128)
    if isinstance(domain, PuncturedPlane):
        ctr = sum(domain.punctures) / len(domain.punctures)
        spread = max(abs(p - ctr) for p in domain.punctures) + 1.0
        pts = ctr + spread * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        keep = np.array([domain.contains(complex(z)) for z in pts])
        return pts[keep] if keep.all() else _sample_domain(domain, n, rng)
    raise UnsupportedDomainError("no sampler for %r" % type(domain).__name__)


def schwarz_pick_check(source, target, f, z1: complex, z2: complex):
    """Contraction of hyperbolic distance under an analytic map.

    Validates on 1000 deterministic samples that f maps the source
    domain into the target, then returns (distance in the target between
    the images, distance in the source, contraction boolean with 1e-9
    tolerance).
    """
    z1, z2 = complex(z1), complex(z2)
    _require_inside(source, z1)
    _require_inside(source, z2)
    rng = np.random.default_rng(_SAMPLER_SEED)
    for w in _sample_domain(source, _MAP_SAMPLES, rng):
        image = f(complex(w))
        if not target.contains(complex(image)):
            raise ValueError(
                "map sends %s to %s outside the target domain" % (w, image)
            )
    lhs = hyperbolic_distance(target, f(z1), f(z2))
    rhs = hyperbolic_distance(source, z1, z2)
    return lhs, rhs, lhs <= rhs + _CONTRACTION_TOL


# ---------------------------------------------------------------------------
# domain constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainConstant:
    """Sampled infimum of |z - a| times the density."""

    a: complex
    value: float
    samples: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("domain constant cannot be negative")


def domain_constant(domain, a: complex, n_radial: int = 48,
                    r_min: float = 1e-6) -> DomainConstant:
    """Minimum of |z - a| * lambda(z) over a log-radial grid around a.

    The grid has 64 angles and n_radial radii from r_min to 64, and a
    must lie outside the domain.  The density used is the exact one
    where available; for punctured planes it is the subset comparison
    bound, which lies above the truth, so small values soundly certify
    the vanishing-constant signature.  The grid minimum is refined by
    golden_min in log radius, one grid step either side of the best
    sample at its angle, to a width of 1e-9; samples counts every
    density evaluation, the refinement's probes included.
    """
    a = complex(a)
    if domain.contains(a):
        raise ValueError("the anchor point must lie outside the domain")
    if not n_radial >= 2:
        raise ValueError("need at least 2 radii")

    def probe(r: float, theta: float) -> float:
        z = a + r * complex(math.cos(theta), math.sin(theta))
        if not domain.contains(z):
            return math.inf
        return r * hyperbolic_density(domain, z).density

    radii = np.geomspace(r_min, _R_MAX, n_radial)
    angles = 2.0 * math.pi * np.arange(_N_ANGULAR) / _N_ANGULAR
    best = math.inf
    best_rt = None
    for th in angles:
        for r in radii:
            v = probe(float(r), float(th))
            if v < best:
                best, best_rt = v, (float(r), float(th))
    if best_rt is None:
        raise ValueError("no sample fell inside the domain")
    r0, th0 = best_rt
    ratio = radii[1] / radii[0]
    _, v, probes = golden_min(lambda lr: probe(math.exp(lr), th0),
                              math.log(r0 / ratio), math.log(r0 * ratio), _LOG_RADIUS_TOL)
    return DomainConstant(a, min(best, float(v)), n_radial * _N_ANGULAR + probes)


# ---------------------------------------------------------------------------
# distortion along escaping orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionReport:
    """Per-step modulus spread across an escaping sample set.

    per_step[n-1] is max over pairs of |f^n(z)| / |f^n(w)|.  The trend
    test regresses log ratios over the last half of the usable steps;
    truncated reports that overflow cut the range short of n_max.
    """

    max_ratio: float
    per_step: tuple
    steps_used: int
    trend_detected: bool
    slope: float
    p_value: float
    truncated: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _trend(logs: np.ndarray) -> tuple[float, float]:
    """Slope of the last half of logs against the step number, and the
    one-sided Student t p-value that it is positive (only growth counts).
    Tails shorter than three steps or flat within 1e-15 give (0, 1)."""
    half = logs.size // 2
    tail = logs[half:]
    if tail.size < 3 or float(tail.max() - tail.min()) <= 1e-15:
        return 0.0, 1.0
    ns = np.arange(half + 1, logs.size + 1, dtype=float)
    slope, _, stderr = _slope(ns, tail)
    t = slope / stderr if stderr > 0 else math.copysign(math.inf, slope)
    return slope, float(stdtr(tail.size - 2, -t))


def distortion_check(f, sample_set, n_max: int, r_esc: float = 1e6) -> DistortionReport:
    """Empirical bounded-distortion test on a compact sample set.

    Every sample must generate an escaping orbit (checked first with the
    given escape radius; NonEscapingSampleError otherwise).  Ratios are
    collected for n = 1..n_max or until some iterate overflows; the
    growth trend is a one-sided Student t test of the least-squares slope
    at the 5% level on the log ratios over the last half of the usable
    steps.
    """
    from .dynamics import OrbitClass, _classify_points

    expr = as_expr(f)
    pts = np.asarray([complex(z) for z in sample_set], dtype=np.complex128)
    if pts.size == 0:
        raise ValueError("sample set must be nonempty")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    classes = _classify_points(expr, pts, max(200, 4 * n_max), float(r_esc))[0]
    stuck = np.flatnonzero(classes != OrbitClass.ESCAPING)
    if stuck.size:
        i = stuck[0]
        raise NonEscapingSampleError(
            "sample %d (%s) classified %s, not escaping"
            % (i, pts[i], OrbitClass(int(classes[i])).name)
        )
    ratios = []
    cur = pts.copy()
    truncated = False
    for _ in range(n_max):
        cur, fl = evaluate_many(expr, cur)
        if (fl == POLE_FLAG).any() or (fl == OVERFLOW_FLAG).any():
            truncated = True
            break
        mods = np.abs(cur)
        if (mods == 0.0).any():
            truncated = True
            break
        ratios.append(float(mods.max() / mods.min()))
    if not ratios:
        raise ValueError("no usable iteration steps before overflow")
    slope, p = _trend(np.log(np.array(ratios)))
    detected = slope > 0 and p < _TREND_LEVEL
    return DistortionReport(
        float(max(ratios)),
        tuple(ratios),
        len(ratios),
        detected,
        slope,
        p,
        truncated,
    )


# ---------------------------------------------------------------------------
# growth recursion trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceState:
    """Arithmetic skeleton and radius recursion of the growth argument.

    derived holds (k, h, m, H): k minimal with D^(k-1) * alpha >= 1,
    h = d^k, m minimal with D^((m-1)k-1) > K h^m, and H = h^m.  radii
    follows R_n = exp(K T(3 R_{n-1})) until the exponent leaves the
    double range, in which case the sentinel string "overflow" ends the
    list.  steps records, per iteration of a sampled curve, the extremal
    sample points and whether max |f^n| exceeds min |f^n| raised to H.
    """

    alpha: float
    d: float
    D: float
    K: float
    k: int
    h: float
    m: int
    H: float
    radii: tuple
    steps: tuple

    def as_dict(self) -> dict:
        return {
            "params": {"alpha": self.alpha, "d": self.d, "D": self.D, "K": self.K},
            "derived": {"k": self.k, "h": self.h, "m": self.m, "H": self.H},
            "radii": list(self.radii),
            "steps": [dict(s) for s in self.steps],
        }


def trace_radius_recursion(alpha: float, d: float, D: float, K: float = 24.0,
                           f=None, r0: float = 1.0, curve=None, n_max: int = 8) -> TraceState:
    """Replay the exponent bookkeeping and radius recursion numerically.

    alpha is clipped into [0.01, 0.99].  Requires D > d: otherwise
    D^((m-1)k-1) > K h^m fails for every m and a ValueError("requires
    D > d") is raised.  With a function supplied the radius list iterates
    R_n = exp(K T(3 R_{n-1})) from r0; with a curve (a sequence of
    complex samples) the per-step extremal moduli and the separation
    max > min^H are recorded.
    """
    alpha = min(max(float(alpha), _ALPHA_CLIP[0]), _ALPHA_CLIP[1])
    d, D, K = float(d), float(D), float(K)
    if not d > 1.0:
        raise ValueError("search exponent d must exceed 1")
    if not K > 0.0:
        raise ValueError("universal constant K must be positive")
    if not D > d:
        raise ValueError("requires D > d")
    k = 1
    while D ** (k - 1) * alpha < 1.0:
        k += 1
        if k > 10_000:
            raise ArithmeticError("no admissible k below 10000; parameters degenerate")
    h = d**k
    m = 1
    while not D ** ((m - 1) * k - 1) > K * h**m:
        m += 1
        if m > 10_000:
            raise ValueError("requires D > d")
    H = h**m

    radii: list = [float(r0)]
    if f is not None:
        if not r0 > 0:
            raise ValueError("starting radius must be positive")
        expr = as_expr(f)
        for _ in range(n_max):
            exponent = K * characteristic(expr, 3.0 * radii[-1])
            if exponent >= _EXP_OVERFLOW:
                radii.append("overflow")
                break
            radii.append(float(math.exp(exponent)))

    steps: list = []
    if curve is not None and f is not None:
        expr = as_expr(f)
        pts = np.asarray([complex(z) for z in curve], dtype=np.complex128)
        if pts.size < 2:
            raise ValueError("curve needs at least two samples")
        cur = pts.copy()
        for n in range(1, n_max + 1):
            cur, fl = evaluate_many(expr, cur)
            if (fl != 0).any():
                break
            mods = np.abs(cur)
            hi, lo = int(np.argmax(mods)), int(np.argmin(mods))
            mod_z, mod_w = float(mods[hi]), float(mods[lo])
            sep = math.log(mod_z) > H * math.log(mod_w) if mod_w > 0 else True
            steps.append(
                (
                    ("n", n),
                    ("z_n", [float(pts[hi].real), float(pts[hi].imag)]),
                    ("w_n", [float(pts[lo].real), float(pts[lo].imag)]),
                    ("mod_z", mod_z),
                    ("mod_w", mod_w),
                    ("separation_holds", bool(sep)),
                )
            )
    return TraceState(alpha, d, D, K, k, h, m, H, tuple(radii), tuple(steps))


# ---------------------------------------------------------------------------
# constant audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantAudit:
    """The arithmetic chain behind the universal circle-bound constant."""

    inverse_log_six_fifths: float
    counting_multiplier: float
    six_log_ten_e: float
    kernel_bound: float
    ceiling: float
    chain_holds: bool

    def as_dict(self) -> dict:
        return asdict(self)


def circle_bound_constant_audit() -> ConstantAudit:
    """Verify the arithmetic behind the universal constant 24.

    (log 6/5)^-1 ~ 5.4848 rounds up to the counting multiplier 6; six
    times log(10 e) ~ 19.8155; the boundary kernel contributes at most 9;
    and max(9, 19.8155) stays below the ceiling 24.
    """
    inv = 1.0 / math.log(6.0 / 5.0)
    six_log = 6.0 * math.log(10.0 * math.e)
    holds = inv <= 6.0 and max(9.0, six_log) < 24.0
    return ConstantAudit(inv, 6.0, six_log, 9.0, 24.0, holds)
