"""Winding counts and pole catalogs.

Pole location runs on two routes.  The exact route applies when every
pole of the expression provably comes from a polynomial denominator or a
tan node with an affine argument; roots then come from companion-matrix
eigenvalues polished by Newton steps, and tan poles from the closed-form
lattice.  Everything else falls back to a numeric search by the argument
principle: the disk is covered by a grid of square cells, and cells with
negative winding (more poles than zeros) are split 2x2 until each pole
is isolated to a 1e-6 diameter.  All windings of one grid, the top grid
or a 2x2 split, come from one sweep (_grid_windings) that samples every
cell edge once per level, endpoints included, so neighbouring cells
share their common edge.  A top grid with more than 2^19 cells in the
disk is refused before anything is evaluated.
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
_GRID_CELLS = 2**19     # most in-disk cells a numeric search may lay out
_LATTICE_POLES = 2**21  # most tan lattice indices a catalog may walk (see README)
_EDGE_START = 64        # segments per cell edge at the first winding level
_EDGE_CAP = 2**15       # segments per cell edge at the last level
_MAX_STEP = 2.8         # largest unambiguous phase step between samples (rad)
_CHUNK_POINTS = 2**17   # samples per log_polar call in the winding sweep
_BASE_CELL = 0.7        # side of a numeric-search grid cell


class BoundarySingularityError(ValueError):
    """A zero or pole of f sits on (or hugs) the integration boundary."""


class WindingConvergenceError(ArithmeticError):
    """Winding estimates failed to settle near an integer."""


class UnresolvedRegionError(ArithmeticError):
    """A pole catalog could not resolve the disk within its budget."""

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


def _edge_samples(lo, hi, fixed, horizontal, m: int) -> np.ndarray:
    """m + 1 points per edge, k/m of the way from lo to hi, endpoints exact.

    t = k/m equals 2k/2m exactly, so the 2m-segment samples of an edge
    contain its m-segment samples bit for bit.
    """
    t = np.arange(m + 1) / m
    along = lo[:, None] + (hi - lo)[:, None] * t
    along[:, -1] = hi
    fixed = np.broadcast_to(fixed[:, None], along.shape)
    pts = np.empty(along.shape, dtype=np.complex128)
    pts.real = np.where(horizontal[:, None], along, fixed)
    pts.imag = np.where(horizontal[:, None], fixed, along)
    return pts


def _irregular(logmod: np.ndarray) -> np.ndarray:
    """Per edge: a non-finite sample, or a dip or spike of ~9 decades.

    Each sample is compared with the samples two steps away along its
    edge (on one side only at the edge's ends).  Smooth growth along the
    edge (exp on a large cell, say) does not trip this.
    """
    left = np.concatenate([logmod[:, 2:4], logmod[:, :-2]], axis=1)
    right = np.concatenate([logmod[:, 2:], logmod[:, -4:-2]], axis=1)
    with np.errstate(invalid="ignore"):
        dip = logmod < np.minimum(left, right) - 20.7
        spike = logmod > np.maximum(left, right) + 20.7
    return ~np.isfinite(logmod).all(axis=1) | (dip | spike).any(axis=1)


def _edge_levels(f, lo, hi, fixed, horizontal, m: int):
    """Phase statistics of each edge at m/2 and at m segments.

    Returns (steps, jumps, bad), each of shape (2, n_edges) with row 0 for
    m/2 segments (the even samples) and row 1 for m: the sum of the
    wrapped phase steps, the largest step, and whether _irregular flags
    the samples.  Samples are made and evaluated a chunk of edges at a
    time, at most _CHUNK_POINTS per log_polar call.
    """
    n = lo.size
    steps = np.empty((2, n))
    jumps = np.empty((2, n))
    bad = np.empty((2, n), dtype=bool)
    per_call = max(1, _CHUNK_POINTS // (m + 1))
    for a in range(0, n, per_call):
        part = slice(a, a + per_call)
        logmod, phase = log_polar(
            f, _edge_samples(lo[part], hi[part], fixed[part], horizontal[part], m)
        )
        ang = np.angle(phase)
        for level, stride in ((0, 2), (1, 1)):
            d = np.diff(ang[:, ::stride], axis=1)
            d = (d + math.pi) % (2.0 * math.pi) - math.pi
            steps[level, part] = d.sum(axis=1)
            jumps[level, part] = np.abs(d).max(axis=1)
            bad[level, part] = _irregular(logmod[:, ::stride])
    return steps, jumps, bad


def _grid_windings(f, xs, ys, wanted) -> np.ndarray:
    """Net winding of f (zeros minus poles) around the wanted grid cells.

    xs and ys are the increasing edge coordinates of a rectilinear grid;
    cell (j, i) is [xs[i], xs[i+1]] x [ys[j], ys[j+1]] and is counted
    where wanted[j, i] is true.  Returns an int array shaped like wanted,
    0 at the other cells.

    Neighbouring cells share their common edge: each edge is sampled with
    its endpoints, its wrapped phase steps are summed once, and a cell's
    winding is (bottom + right - top - left) / 2 pi.  The sampling runs at
    64, 128, ..., 2^15 segments per edge, two levels per evaluation (the
    coarser level is the even samples of the finer one).  Each evaluation
    samples the edges of the cells still open afresh, so only per-edge
    sums outlive it and memory stays at one log_polar chunk.  A cell is
    accepted at the first level where no step on its edges exceeds 2.8 rad
    (a near-2 pi step is ambiguous) and the estimate agrees with that of
    the previous such level within 0.25 and sits within 0.25 of an
    integer; only cells still open go on to finer levels.  A non-finite
    sample or a dip or spike of ~9 decades on the edges of an open cell
    raises BoundarySingularityError (a singularity on or hugging the
    boundary; one well inside the sample spacing can only show up as a
    WindingConvergenceError, raised when a cell is still open at 2^15).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx = xs.size - 1
    n_h = ys.size * nx  # horizontal edges come first in the numbering
    cj, ci = np.nonzero(wanted)
    # edge ids per cell, rows: bottom, right, top, left
    cell_edges = np.stack(
        [
            cj * nx + ci,
            n_h + cj * (nx + 1) + ci + 1,
            (cj + 1) * nx + ci,
            n_h + cj * (nx + 1) + ci,
        ]
    )
    prev = np.full(cj.size, np.nan)
    wind = np.zeros(cj.size, dtype=np.int64)
    still_open = np.ones(cj.size, dtype=bool)
    m = _EDGE_START
    while 2 * m <= _EDGE_CAP and still_open.any():
        cells = np.flatnonzero(still_open)
        ids, inv = np.unique(cell_edges[:, cells], return_inverse=True)
        inv = inv.reshape(4, cells.size)
        split = np.searchsorted(ids, n_h)
        hrow, hcol = np.divmod(ids[:split], nx)
        vrow, vcol = np.divmod(ids[split:] - n_h, nx + 1)
        steps, jumps, bad = _edge_levels(
            f,
            np.concatenate([xs[hcol], ys[vrow]]),
            np.concatenate([xs[hcol + 1], ys[vrow + 1]]),
            np.concatenate([ys[hrow], xs[vcol]]),
            np.arange(ids.size) < split,
            2 * m,
        )
        for level in (0, 1):
            live = still_open[cells]
            c, e = cells[live], inv[:, live]
            if bad[level][e].any():
                raise BoundarySingularityError("zero or pole on or near a cell boundary")
            s = steps[level][e]
            est = (s[0] + s[1] - s[2] - s[3]) / (2.0 * math.pi)
            smooth = jumps[level][e].max(axis=0) <= _MAX_STEP
            whole = np.rint(est)
            done = smooth & (np.abs(est - prev[c]) < 0.25) & (np.abs(est - whole) < 0.25)
            wind[c[done]] = whole[done]
            still_open[c[done]] = False
            prev[c[smooth]] = est[smooth]
        m *= 4
    if still_open.any():
        raise WindingConvergenceError("winding estimates did not stabilize")
    out = np.zeros(np.shape(wanted), dtype=np.int64)
    out[cj, ci] = wind
    return out


def winding_count(f, box) -> int:
    """Net winding of f around an axis-aligned box (zeros minus poles).

    box is (re_min, re_max, im_min, im_max), traversed counterclockwise;
    this is the one-cell case of the grid sweep used by the pole search,
    with the same acceptance rule.  Requires f to be regular near the
    boundary; a zero or pole on it raises BoundarySingularityError
    (detected by sampling, so a singularity well inside the sample
    spacing can only show up as a WindingConvergenceError).
    """
    x0, x1, y0, y1 = box
    if not (x1 > x0 and y1 > y0):
        raise ValueError("box must have positive width and height")
    wanted = np.ones((1, 1), dtype=bool)
    return int(_grid_windings(as_expr(f), (x0, x1), (y0, y1), wanted)[0, 0])


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
    # a pole lies in the disk only if |(k + 1/2) pi - b| <= |a| r, so
    # (k + 1/2) pi lies within |a| r of Re(b); the window drops the 1/2 and
    # so keeps half an index of slack at each end
    limit = radius * (1 + 1e-12) + _MERGE_TOL
    k_lo = (b.real - abs(a) * limit) / math.pi
    k_hi = (b.real + abs(a) * limit) / math.pi
    if not k_hi - k_lo <= _LATTICE_POLES:
        raise UnresolvedRegionError(
            f"{k_hi - k_lo:.0f} tan lattice indices for the disk of radius {radius:g} "
            f"exceed the budget of {_LATTICE_POLES}"
        )
    out: dict = {}
    for k in range(math.floor(k_lo), math.ceil(k_hi) + 1):
        loc = ((k + 0.5) * math.pi - b) / a
        if abs(loc) <= limit:
            out[loc] = 1  # lattice poles lie pi/|a| apart: none merge
    return out


def _structural_poles(node: Node, radius: float) -> dict:
    """Pole map {location: multiplicity} inside the disk.

    Locations lie more than _MERGE_TOL apart.  Raises _NeedsNumeric when
    the pole set is not certifiable from the tree, and
    UnsupportedExpressionError when an entire function is applied to
    something with poles (an essential singularity at a finite point).
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
            fresh = not out  # a map merges into an empty one by copying
            for loc, mult in poles.items():
                reduced = _cancel_against(other, loc, mult)
                if reduced is None:
                    raise _NeedsNumeric
                if reduced > 0 and fresh:
                    out[loc] = reduced
                elif reduced > 0:
                    _merge_pole(out, loc, reduced)
        return out
    if isinstance(node, Div):
        if node.denominator_poly is None:
            raise _NeedsNumeric
        out = dict(_structural_poles(node.numerator, radius))
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
    once; their four windings come from one 2x2 grid sweep, and a split
    line landing on a singularity is retried at shifted fractions.
    """
    x0, x1, y0, y1 = box
    diam = math.hypot(x1 - x0, y1 - y0)
    if diam < _BOX_DIAMETER:
        found.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), -winding))
        return budget
    for attempt in range(6):
        xs = (x0, x0 + (0.5 + 0.013 * attempt) * (x1 - x0), x1)
        ys = (y0, y0 + (0.5 + 0.017 * attempt) * (y1 - y0), y1)
        try:
            ws = _grid_windings(f, xs, ys, np.ones((2, 2), dtype=bool))
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
    for j, i in ((0, 0), (0, 1), (1, 0), (1, 1)):
        w = int(ws[j, i])
        if w >= 0:
            continue
        budget -= 1
        if budget <= 0:
            raise UnresolvedRegionError("subdivision budget exhausted")
        budget = _subdivide(f, (xs[i], xs[i + 1], ys[j], ys[j + 1]), w, found, budget)
    return budget


def _grid_search(f, radius: float, origin: float, extent: float, cell: float):
    n_cells = max(2, math.ceil((extent - origin) / cell))
    starts = [origin + i * cell for i in range(n_cells)]
    # per axis, the coordinate of each cell closest to 0
    near = [s if s > 0 else (s + cell if s + cell < 0 else 0.0) for s in starts]
    limit = radius + _MERGE_TOL
    # the budget is checked before anything is evaluated or laid out per
    # cell: in each row y, the cells with |x| <= sqrt(limit^2 - y^2)
    dist = np.abs(near)
    reach = np.sqrt(limit**2 - dist[dist <= limit] ** 2)
    n_in = int(np.searchsorted(np.sort(dist), reach, side="right").sum())
    if n_in > _GRID_CELLS:
        raise UnresolvedRegionError(
            f"{n_in} grid cells in the disk of radius {radius:g} exceed the "
            f"budget of {_GRID_CELLS}"
        )
    wanted = np.array([[math.hypot(x, y) <= limit for x in near] for y in near])
    edges = starts + [starts[-1] + cell]
    windings = _grid_windings(f, edges, edges, wanted)
    found: list = []
    budget = 20000
    for i, j in zip(*np.nonzero(windings.T < 0)):
        # start + cell can miss the next start by an ulp; subdividing
        # [start, start + cell] keeps the pole locations independent of
        # the edge array the sweep used
        x0, y0 = starts[i], starts[j]
        box = (x0, x0 + cell, y0, y0 + cell)
        budget = _subdivide(f, box, int(windings[j, i]), found, budget)
    merged: dict = {}
    for loc, mult in sorted(found, key=lambda t: (abs(t[0]), t[0].real, t[0].imag)):
        _merge_pole(merged, loc, mult)
    return list(merged.items())


def _numeric_poles(f, radius: float) -> list:
    """Locate poles by winding-number search over a grid of boxes.

    Boxes with nonnegative net winding are pruned, so a pole and enough
    zeros inside one cell mask each other; _BASE_CELL must stay below the
    pole-to-zero separation of the function, which holds with margin for
    the supported families.  A grid line landing on a singularity is
    detected and the whole grid is re-laid at a shifted origin.
    """
    pad = 0.02 * max(radius, 1.0) + 0.011
    last_err = None
    for restart in range(6):
        origin = -(radius + pad) - 0.0137 * restart * _BASE_CELL
        try:
            return _grid_search(f, radius, origin, radius + pad, _BASE_CELL)
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
    cannot settle or a catalog would exceed its size budget.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    bucket = _catalog_at(as_expr(f), _bucket_radius(radius))
    entries = tuple(
        e for e in bucket.entries if abs(e[0]) <= radius * (1 + 1e-12) + _MERGE_TOL
    )
    return SingularityList(entries=entries, exact=bucket.exact, radius=radius)
