"""Winding counts and pole catalogs.

Pole location runs on two routes.  The exact route applies when every
pole of the expression provably comes from a polynomial denominator or a
tan node with an affine argument; roots then come from companion-matrix
eigenvalues polished by Newton steps, and tan poles from the closed-form
lattice.  Everything else falls back to a numeric search: the disk is
covered by a grid of boxes, each box classified by its boundary winding
number, and boxes that enclose poles are subdivided until the pole is
isolated to a 1e-6 diameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .evaluate import _horner, log_polar
from .nodes import (
    Add,
    CanonicalProduct,
    Div,
    Func,
    LacunarySeries,
    MeroExpr,
    Mul,
    Neg,
    Node,
    Pow,
    Sub,
    polynomial_coefficients,
)
from .parser import as_expr

__all__ = [
    "SingularityList",
    "winding_count",
    "poles_in_disk",
    "BoundarySingularityError",
    "WindingConvergenceError",
    "UnresolvedRegionError",
    "UnsupportedExpressionError",
]

_MERGE_TOL = 1e-9       # poles closer than this are merged
_BOX_DIAMETER = 1e-6    # numeric search stops at this box diameter


class BoundarySingularityError(ValueError):
    """A zero or pole of f sits on (or hugs) the integration boundary."""


class WindingConvergenceError(ArithmeticError):
    """Winding estimates failed to settle near an integer."""


class UnresolvedRegionError(ArithmeticError):
    """Numeric pole search could not resolve part of the disk."""

    def __init__(self, detail):
        super().__init__(f"unresolved singular region: {detail}")
        self.detail = detail


class UnsupportedExpressionError(ValueError):
    """The expression has a non-polar finite singularity (not supported)."""


@dataclass(frozen=True)
class SingularityList:
    """Poles of f in a closed disk, sorted by modulus.

    entries are (location, multiplicity) pairs; exact is True when the
    catalog came from the structural route.  Numeric catalogs locate
    poles to about 1e-6 and assume pole/zero separation above the search
    grid cell size (see poles_in_disk).
    """

    entries: tuple
    exact: bool
    radius: float

    def __post_init__(self):
        for _, mult in self.entries:
            if mult < 1:
                raise ValueError("pole multiplicity must be >= 1")

    def multiplicity_at_origin(self) -> int:
        return sum(m for b, m in self.entries if abs(b) <= _MERGE_TOL)


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------


def _boundary_points(box, n: int) -> np.ndarray:
    x0, x1, y0, y1 = box
    w, h = x1 - x0, y1 - y0
    per = 2.0 * (w + h)
    t = (np.arange(n) + 0.5) / n * per
    pts = np.empty(n, dtype=np.complex128)
    m0 = t < w
    m1 = (t >= w) & (t < w + h)
    m2 = (t >= w + h) & (t < 2 * w + h)
    m3 = t >= 2 * w + h
    pts[m0] = x0 + t[m0] + 1j * y0
    pts[m1] = x1 + 1j * (y0 + (t[m1] - w))
    pts[m2] = x1 - (t[m2] - w - h) + 1j * y1
    pts[m3] = x0 + 1j * (y1 - (t[m3] - 2 * w - h))
    return pts


def _check_boundary_regular(logmod: np.ndarray):
    if not np.all(np.isfinite(logmod)):
        raise BoundarySingularityError("zero or pole detected on the boundary")
    # a dip or spike of ~9 decades against samples two steps away marks a
    # singularity hugging the boundary; smooth growth along the boundary
    # (exp on a large box, say) does not trip this
    if logmod.size >= 8:
        left = np.roll(logmod, 2)
        right = np.roll(logmod, -2)
        if np.any(logmod < np.minimum(left, right) - 20.7):
            raise BoundarySingularityError("near-boundary zero detected by sampling")
        if np.any(logmod > np.maximum(left, right) + 20.7):
            raise BoundarySingularityError("near-boundary pole detected by sampling")


def winding_count(f, box, n_start: int = 256, n_cap: int = 2**17) -> int:
    """Net winding of f around an axis-aligned box (zeros minus poles).

    box is (re_min, re_max, im_min, im_max), traversed counterclockwise.
    The boundary is sampled adaptively until two successive estimates
    agree to 0.25 and the estimate sits within 0.25 of an integer.
    Requires f to be regular near the boundary; a zero or pole on it
    raises BoundarySingularityError (detected by sampling, so a
    singularity well inside the sample spacing can only show up as a
    WindingConvergenceError).
    """
    x0, x1, y0, y1 = box
    if not (x1 > x0 and y1 > y0):
        raise ValueError("box must have positive width and height")
    prev = None
    n = n_start
    while n <= n_cap:
        pts = _boundary_points(box, n)
        logmod, phase = log_polar(f, pts)
        _check_boundary_regular(logmod)
        ang = np.angle(phase)
        d = np.diff(ang, append=ang[:1])
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        if np.any(np.abs(d) > 2.8):
            # a near-2pi jump between adjacent samples is ambiguous
            n *= 2
            continue
        est = float(d.sum() / (2.0 * math.pi))
        if prev is not None and abs(est - prev) < 0.25 and abs(est - round(est)) < 0.25:
            return int(round(est))
        prev = est
        n *= 2
    raise WindingConvergenceError("winding estimates did not stabilize")


# ---------------------------------------------------------------------------
# exact catalogs
# ---------------------------------------------------------------------------


def _poly_roots(coeffs) -> list:
    """Roots of a polynomial as (location, multiplicity), polished."""
    arr = np.array(coeffs, dtype=np.complex128)
    while arr.size > 1 and arr[-1] == 0:
        arr = arr[:-1]
    if arr.size <= 1:
        return []
    raw = np.roots(arr[::-1])
    scale = max(1.0, float(np.abs(raw).max(initial=0.0)))
    clusters: list[list[complex]] = []
    for r in sorted(raw, key=lambda w: (abs(w), w.real, w.imag)):
        for cl in clusters:
            if abs(r - cl[0]) <= 1e-6 * scale:
                cl.append(r)
                break
        else:
            clusters.append([r])
    deriv = tuple((k + 1) * c for k, c in enumerate(coeffs[1:]))
    out = []
    for cl in clusters:
        loc = complex(np.mean(np.array(cl)))
        if len(cl) == 1:
            # Newton polish; multiple roots keep the cluster mean, which
            # is where the eigenvalue scatter centers
            for _ in range(4):
                dv = _horner(deriv, loc)
                if abs(dv) < 1e-290:
                    break
                step = _horner(coeffs, loc) / dv
                loc -= step
                if abs(step) < 1e-14 * max(1.0, abs(loc)):
                    break
        out.append((loc, len(cl)))
    return out


class _NeedsNumeric(Exception):
    """Internal: structural analysis cannot certify the pole set."""


def _merge_pole(poles: dict, loc: complex, mult: int):
    for known in poles:
        if abs(known - loc) <= _MERGE_TOL:
            poles[known] += mult
            return
    poles[loc] = mult


def _poly_scale(coeffs, loc: complex) -> float:
    return max(abs(c) * max(1.0, abs(loc)) ** k for k, c in enumerate(coeffs)) or 1.0


def _cancel_against(other: Node, loc: complex, mult: int):
    """Pole multiplicity at loc after cancellation by zeros of other.

    Returns the reduced multiplicity, or None when the factor vanishes
    (or blows up) at loc and the outcome is not certifiable.
    """
    coeffs = polynomial_coefficients(other)
    if coeffs is not None:
        work = list(coeffs)
        k = 0
        while k < mult and work and abs(_horner(tuple(work), loc)) <= 1e-9 * _poly_scale(work, loc):
            work = [(j + 1) * c for j, c in enumerate(work[1:])]
            k += 1
        return mult - k
    val = log_polar(other, np.array([loc], dtype=np.complex128))[0][0]
    if not np.isfinite(val) or val < math.log(1e-8):
        return None
    return mult


def _tan_lattice(argument: Node, radius: float):
    """Poles of tan(a*z + b) in the disk, or None for non-affine arguments."""
    coeffs = polynomial_coefficients(argument)
    if coeffs is None or len(coeffs) != 2 or coeffs[1] == 0:
        return None
    b, a = coeffs
    out: dict = {}
    k_max = int(math.ceil((abs(a) * radius + abs(b) + 0.5 * math.pi + 1.0) / math.pi))
    for k in range(-k_max, k_max + 1):
        loc = ((k + 0.5) * math.pi - b) / a
        if abs(loc) <= radius * (1 + 1e-12) + _MERGE_TOL:
            _merge_pole(out, loc, 1)
    return out


def _structural_poles(node: Node, radius: float) -> dict:
    """Pole map {location: multiplicity} inside the disk.

    Raises _NeedsNumeric when the pole set is not certifiable from the
    tree, and UnsupportedExpressionError when an entire function is
    applied to something with poles (an essential singularity at a
    finite point).
    """
    if polynomial_coefficients(node) is not None:
        return {}
    if isinstance(node, Neg):
        return _structural_poles(node.operand, radius)
    if isinstance(node, (LacunarySeries, CanonicalProduct)):
        return {}
    if isinstance(node, (Add, Sub)):
        pa = _structural_poles(node.left, radius)
        pb = _structural_poles(node.right, radius)
        for loc in pa:
            for other in pb:
                if abs(loc - other) <= _MERGE_TOL:
                    # principal parts might cancel
                    raise _NeedsNumeric
        merged = dict(pa)
        merged.update(pb)
        return merged
    if isinstance(node, Mul):
        out: dict = {}
        for poles, other in (
            (_structural_poles(node.left, radius), node.right),
            (_structural_poles(node.right, radius), node.left),
        ):
            for loc, mult in poles.items():
                reduced = _cancel_against(other, loc, mult)
                if reduced is None:
                    raise _NeedsNumeric
                if reduced > 0:
                    _merge_pole(out, loc, reduced)
        return out
    if isinstance(node, Div):
        if node.denominator_poly is None:
            raise _NeedsNumeric
        out = {}
        for loc, mult in _structural_poles(node.numerator, radius).items():
            _merge_pole(out, loc, mult)
        for loc, mult in _poly_roots(node.denominator_poly):
            reduced = _cancel_against(node.numerator, loc, mult)
            if reduced is None:
                raise _NeedsNumeric
            if reduced > 0:
                _merge_pole(out, loc, reduced)
        return out
    if isinstance(node, Pow):
        if node.exponent >= 0:
            if node.exponent == 0:
                return {}
            inner = _structural_poles(node.base, radius)
            return {loc: m * node.exponent for loc, m in inner.items()}
        base_coeffs = polynomial_coefficients(node.base)
        if base_coeffs is None:
            raise _NeedsNumeric
        return {loc: m * (-node.exponent) for loc, m in _poly_roots(base_coeffs)}
    if isinstance(node, Func):
        if _structural_poles(node.argument, radius):
            raise UnsupportedExpressionError(
                "entire function applied to a subexpression with poles "
                "creates an essential singularity at a finite point"
            )
        if node.name != "tan":
            return {}
        lattice = _tan_lattice(node.argument, radius)
        if lattice is None:
            raise _NeedsNumeric
        return lattice
    raise _NeedsNumeric


# ---------------------------------------------------------------------------
# numeric search
# ---------------------------------------------------------------------------


def _subdivide(f, box, winding, found, budget):
    """Split a pole-carrying box until it isolates its poles.

    The children partition the parent exactly, so every pole is counted
    once; a split line landing on a singularity is retried at shifted
    fractions.
    """
    x0, x1, y0, y1 = box
    diam = math.hypot(x1 - x0, y1 - y0)
    if diam < _BOX_DIAMETER:
        found.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), -winding))
        return budget
    for attempt in range(6):
        xm = x0 + (0.5 + 0.013 * attempt) * (x1 - x0)
        ym = y0 + (0.5 + 0.017 * attempt) * (y1 - y0)
        children = [
            (x0, xm, y0, ym),
            (xm, x1, y0, ym),
            (x0, xm, ym, y1),
            (xm, x1, ym, y1),
        ]
        try:
            ws = [winding_count(f, c) for c in children]
        except (BoundarySingularityError, WindingConvergenceError):
            continue
        break
    else:
        if diam < 1e-3:
            # the box already brackets a single pole cluster; settle for
            # its center rather than failing the whole search
            found.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), -winding))
            return budget
        raise UnresolvedRegionError(box)
    for child, w in zip(children, ws):
        if w >= 0:
            continue
        budget -= 1
        if budget <= 0:
            raise UnresolvedRegionError("subdivision budget exhausted")
        budget = _subdivide(f, child, w, found, budget)
    return budget


def _grid_search(f, radius: float, origin: float, extent: float, cell: float):
    n_cells = max(2, math.ceil((extent - origin) / cell))
    found: list = []
    budget = 20000
    for i in range(n_cells):
        x0 = origin + i * cell
        nx = x0 if x0 > 0 else (x0 + cell if x0 + cell < 0 else 0.0)
        for j in range(n_cells):
            y0 = origin + j * cell
            ny = y0 if y0 > 0 else (y0 + cell if y0 + cell < 0 else 0.0)
            if math.hypot(nx, ny) > radius + _MERGE_TOL:
                continue
            w = winding_count(f, (x0, x0 + cell, y0, y0 + cell))
            if w < 0:
                budget = _subdivide(f, (x0, x0 + cell, y0, y0 + cell), w, found, budget)
    merged: dict = {}
    for loc, mult in sorted(found, key=lambda t: (abs(t[0]), t[0].real, t[0].imag)):
        _merge_pole(merged, loc, mult)
    return list(merged.items())


def _numeric_poles(f, radius: float, base_cell: float = 0.7) -> list:
    """Locate poles by winding-number search over a grid of boxes.

    Boxes with nonnegative net winding are pruned, so a pole and enough
    zeros inside one cell mask each other; base_cell must stay below the
    pole-to-zero separation of the function, which holds with margin for
    the supported families.  A grid line landing on a singularity is
    detected and the whole grid is re-laid at a shifted origin.
    """
    pad = 0.02 * max(radius, 1.0) + 0.011
    last_err = None
    for restart in range(6):
        origin = -(radius + pad) - 0.0137 * restart * base_cell
        try:
            return _grid_search(f, radius, origin, radius + pad, base_cell)
        except (BoundarySingularityError, WindingConvergenceError) as err:
            last_err = err
    raise UnresolvedRegionError(f"grid search failed after restarts: {last_err}")


# ---------------------------------------------------------------------------
# public catalog interface
# ---------------------------------------------------------------------------


def _bucket_radius(radius: float) -> float:
    return float(2.0 ** math.ceil(math.log2(max(radius, 1.0)) - 1e-12))


@lru_cache(maxsize=512)
def _catalog_at(f: MeroExpr, radius: float) -> SingularityList:
    try:
        poles = _structural_poles(f.root, radius)
        entries = [
            (loc, m)
            for loc, m in poles.items()
            if abs(loc) <= radius * (1 + 1e-12) + _MERGE_TOL
        ]
        exact = True
    except _NeedsNumeric:
        entries = _numeric_poles(f, radius)
        # locations below the locator's resolution snap to the origin;
        # otherwise N(r) would pick up a spurious log(r/|b|) blow-up
        entries = [(0j if abs(loc) < 1e-6 else loc, m) for loc, m in entries]
        exact = False
    entries.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
    return SingularityList(entries=tuple(entries), exact=exact, radius=radius)


def poles_in_disk(f, radius: float) -> SingularityList:
    """Catalog of poles with |location| <= radius.

    Catalogs are computed per power-of-two bucket radius and filtered
    down, so sweeping a radius grid reuses one search.  Raises
    UnsupportedExpressionError for expressions with finite non-polar
    singularities and UnresolvedRegionError when the numeric search
    cannot settle.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    bucket = _catalog_at(as_expr(f), _bucket_radius(radius))
    entries = tuple(
        e for e in bucket.entries if abs(e[0]) <= radius * (1 + 1e-12) + _MERGE_TOL
    )
    return SingularityList(entries=entries, exact=bucket.exact, radius=radius)
