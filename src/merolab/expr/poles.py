"""Winding counts, pole catalogs, and whether a tree may have poles.

Pole location runs on two routes.  The exact route applies when every
pole of the expression provably comes from a denominator that is a
polynomial times level sets g(a z + b) - c of g in exp, sin, cos, tan,
or from a tan node with an affine argument.  Polynomial roots come from
companion-matrix eigenvalues polished by Newton steps; level-set zeros
and tan poles come from closed-form lattices in w = a z + b (see
_level_set), and exp of a pole-free tree has no zeros.  A lattice walks only
the indices whose points can lie in the disk and refuses more than 2^21
of them.  The tree walk holds each pole set as two arrays (locations,
multiplicities), finds the poles two sets share by one query on sorted
moduli, and lowers a pole by the orders of the zeros of a polynomial or
level-set factor within 1e-9 of it.  Everything else falls back to a
numeric search by the argument principle: the disk is covered by a grid
of square cells, and cells with negative winding (more poles than zeros)
are split 2x2 until each pole is isolated to a 1e-6 diameter.  One sweep
(_grid_windings) gives all windings of a grid, sampling each shared cell
edge once per level; a top grid with more than 2^19 cells in the disk is
refused before anything is evaluated.  Either route gives one
SingularityList per power-of-two bucket radius: arrays sorted by
modulus, cut to a radius by within.  poles_in_disk first asks has_poles
(_entire of the tree, at no radius), which refuses a function of an
argument not proven pole-free; a pole-free tree gets no catalog.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .evaluate import _horner, _poly_derivative, log_polar
from .nodes import (
    Add,
    CanonicalProduct,
    Const,
    Div,
    Func,
    LacunarySeries,
    MeroExpr,
    Mul,
    Neg,
    Node,
    Pow,
    Sub,
    _poly_mul,
    polynomial_coefficients,
)
from .parser import as_expr

__all__ = [
    "SingularityList",
    "winding_count",
    "poles_in_disk",
    "has_poles",
    "BoundarySingularityError",
    "WindingConvergenceError",
    "UnresolvedRegionError",
    "UnsupportedExpressionError",
]

_MERGE_TOL = 1e-9       # poles closer than this are merged
_BOX_DIAMETER = 1e-6    # numeric search stops at this box diameter
_GRID_CELLS = 2**19     # most in-disk cells a numeric search may lay out
_LATTICE_POLES = 2**21  # most indices one lattice may walk (see README)
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


@dataclass(frozen=True, eq=False)
class SingularityList:
    """Poles of f in a closed disk: parallel arrays sorted by (modulus, real, imag).

    moduli are np.hypot of each location's parts, equal to the builtin abs
    bit for bit (np.abs differs in the last bit on many points).  exact
    marks the structural route; numeric catalogs hold to about 1e-6.
    Compare catalogs by entries: (location, multiplicity) pairs.
    """

    locations: np.ndarray
    multiplicities: np.ndarray
    moduli: np.ndarray
    exact: bool

    def __post_init__(self):
        for a in (self.locations, self.multiplicities, self.moduli):
            a.flags.writeable = False  # every cut of a cached bucket shares its arrays
        if (self.multiplicities < 1).any():
            raise ValueError("pole multiplicity must be >= 1")

    def __len__(self) -> int:
        return self.locations.size

    @property
    def entries(self) -> tuple:
        return tuple(zip(self.locations.tolist(), self.multiplicities.tolist()))

    def within(self, radius: float) -> SingularityList:
        """The poles with modulus <= radius, up to the merge tolerance."""
        k = np.searchsorted(self.moduli, radius * (1 + 1e-12) + _MERGE_TOL, side="right")
        return SingularityList(self.locations[:k], self.multiplicities[:k], self.moduli[:k], self.exact)

    def near(self, r: float, tol: float) -> bool:
        """Whether a modulus lies within tol of r; |m - r| is monotone on each side of r."""
        k = int(np.searchsorted(self.moduli, r))
        return any(abs(m - r) <= tol for m in self.moduli[max(k - 1, 0):k + 1].tolist())


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


def _moduli(locs: np.ndarray) -> np.ndarray:
    """The builtin abs of each location, bit for bit (np.abs is not)."""
    return np.hypot(locs.real, locs.imag)


_EMPTY = (np.empty(0, dtype=np.complex128), np.empty(0, dtype=np.int64))
_NO_POLES = SingularityList(*_EMPTY, np.empty(0), True)


def _poly_roots(coeffs):
    """Roots of a polynomial as a pole set (locations, multiplicities), polished."""
    arr = np.array(coeffs, dtype=np.complex128)
    while arr.size > 1 and arr[-1] == 0:
        arr = arr[:-1]
    if arr.size <= 1:
        return _EMPTY
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
    deriv = _poly_derivative(coeffs)
    locs = []
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
        locs.append(loc)
    mults = np.array([len(cl) for cl in clusters], dtype=np.int64)
    return np.array(locs, dtype=np.complex128), mults


class _NeedsNumeric(Exception):
    """Internal: structural analysis cannot certify the pole set."""


def _coincident(a: np.ndarray, b: np.ndarray):
    """Index pairs (i, j), i nondecreasing, with |a[i] - b[j]| <= _MERGE_TOL.

    Candidates come from a searchsorted window on the sorted moduli of b,
    since ||a| - |b|| <= |a - b|, widened for the rounding of the moduli;
    each is tested by the builtin abs of its difference.
    """
    mb = _moduli(b)
    order = np.argsort(mb, kind="stable")
    mb = mb[order]
    ma = _moduli(a)
    slack = 2 * _MERGE_TOL + 1e-15 * ma
    lo = np.searchsorted(mb, ma - slack)
    n = np.searchsorted(mb, ma + slack, side="right") - lo
    i = np.repeat(np.arange(a.size), n)
    j = order[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())]
    hit = _moduli(a[i] - b[j]) <= _MERGE_TOL
    return i[hit], j[hit]


def _joined(a, b):
    """Pole set a with the poles of set b: a pole of b within _MERGE_TOL of
    poles of a adds its multiplicity to the first, the others append."""
    i, j = _coincident(a[0], b[0])
    j, first = np.unique(j, return_index=True)  # i is sorted: first is the lowest
    mults = a[1].copy()
    np.add.at(mults, i[first], b[1][j])
    rest = np.ones(b[0].size, dtype=bool)
    rest[j] = False
    return np.concatenate([a[0], b[0][rest]]), np.concatenate([mults, b[1][rest]])


class _Coset(NamedTuple):
    """The points ((k + shift) * period - b) / a over the integers k, each
    of multiplicity mult; name is the function whose lattice it is."""

    name: str
    a: complex
    b: complex
    period: complex
    shift: float
    mult: int


def _children(node: Node) -> list:
    return [child for child in vars(node).values() if isinstance(child, Node)]


def _entire(node: Node) -> bool:
    """Whether node is pole-free by construction, at every radius.

    A tree is pole-free when it holds no tan and every function argument
    is pole-free; each quotient has a pole-free numerator, a denominator
    whose _zero_set has no zero cosets, and a numerator that cancels
    (_cancel_against) every root of the denominator's polynomial part, so
    sin(z)/z and (exp(z) - 1)/z count; and each negative power has a base
    whose zero set is empty.  A tree _zero_set cannot certify
    (_NeedsNumeric) and a denominator with a factor that vanishes
    identically (_zero_factor) are not pole-free.  False means "not
    proven", not "has a pole".
    """
    if isinstance(node, Func):
        return node.name != "tan" and _entire(node.argument)
    if isinstance(node, Pow) and node.exponent < 0:
        return _entire(Div(Const(1), node.base))  # the poles of 1/base, raised
    if not isinstance(node, Div):
        return all(_entire(child) for child in _children(node))
    if _zero_factor(node.denominator) or not _entire(node.numerator):
        return False
    try:
        roots, zero_cosets, _ = _zero_set(node.denominator)
        return not zero_cosets and not _cancel_against(node.numerator, roots)[0].size
    except _NeedsNumeric:
        return False


def _level_set(node: Node):
    """Zero cosets and pole cosets of node when it is a level set
    g(a z + b) - c up to sign, with g one of exp, sin, cos, tan and a != 0:
    g(w) - c, c - g(w), g(w) + c, c + g(w), a bare g(w) (c = 0) or Neg of
    any of these, or exp(h(z)) of any tree h that is pole-free by
    construction (no zeros, see _entire); else None.

    In w = a z + b, exp(w) = c at Log c + 2 pi i k (none for c = 0);
    sin(w) = c at arcsin c + 2 pi k and pi - arcsin c + 2 pi k, cos(w) = c
    at +-arccos c + 2 pi k; tan(w) = c at arctan c + pi k (none for
    c = +-i).  Where the two cosets of sin or cos coincide (c = +-1), the
    zeros are double: joins and _hits add their multiplicities.  Only tan
    has poles, at (k + 1/2) pi.
    """
    while isinstance(node, Neg):
        node = node.operand
    c = 0j
    if isinstance(node, (Add, Sub)):
        sign = -1 if isinstance(node, Add) else 1
        for func, const in ((node.left, node.right), (node.right, node.left)):
            k = polynomial_coefficients(const)
            if isinstance(func, Func) and k is not None and len(k) == 1:
                node, c = func, sign * k[0]
                break
    if not isinstance(node, Func):
        return None
    coeffs = polynomial_coefficients(node.argument)
    if node.name == "exp" and c == 0 and _entire(node.argument):
        return [], []
    if coeffs is None or len(coeffs) != 2 or coeffs[1] == 0:
        return None
    b, a = coeffs
    name = node.name
    poles = [_Coset(name, a, b, math.pi, 0.5, 1)] if name == "tan" else []
    if name == "exp":
        period, roots = 2j * math.pi, [cmath.log(c)]
    elif name == "tan":
        period, roots = math.pi, [cmath.atan(c)] if c not in (1j, -1j) else []
    else:
        w = cmath.asin(c) if name == "sin" else cmath.acos(c)
        period, roots = 2 * math.pi, [w, math.pi - w] if name == "sin" else [w, -w]
    return [_Coset(name, a, b - v, period, 0.0, 1) for v in roots], poles


def _lattice(coset: _Coset, radius: float):
    """The points of a coset in the disk as a pole set, in increasing k."""
    name, a, b, period, shift, mult = coset
    # a point lies in the disk only if |(k + shift) period - b| <= |a| r, so
    # (k + shift) |period| lies within |a| r of the component of b along
    # the period; walking k from floor(k_lo) - 1 keeps at least half an
    # index of slack at each end
    limit = radius * (1 + 1e-12) + _MERGE_TOL
    step = abs(period)
    along = (b / (period / step)).real
    k_lo = (along - abs(a) * limit) / step
    k_hi = (along + abs(a) * limit) / step
    if not k_hi - k_lo <= _LATTICE_POLES:
        raise UnresolvedRegionError(
            f"{k_hi - k_lo:.0f} {name} lattice indices for the disk of radius {radius:g} "
            f"exceed the budget of {_LATTICE_POLES}"
        )
    k = np.arange(math.floor(k_lo) - 1, math.ceil(k_hi) + 1)
    locs = ((k + shift) * period - b) / a
    locs = locs[_moduli(locs) <= limit]
    return locs, np.full(locs.size, mult, dtype=np.int64)


def _hits(cosets, locs: np.ndarray) -> np.ndarray:
    """Per location, the summed multiplicity of the coset points within
    _MERGE_TOL of it: one nearest index per coset, no window, no budget.

    A location farther than that but within rounding (1e-13 relative) of a
    coset point cannot be certified either way and raises _NeedsNumeric.
    """
    total = np.zeros(locs.size, dtype=np.int64)
    for _, a, b, period, shift, mult in cosets:
        with np.errstate(over="ignore", invalid="ignore"):
            k = np.rint(((a * locs + b) / period).real - shift)
            dist = _moduli(((k + shift) * period - b) / a - locs)
        if ((dist > _MERGE_TOL) & (dist <= 1e-13 * _moduli(locs))).any():
            raise _NeedsNumeric
        total += np.where(dist <= _MERGE_TOL, mult, 0)
    return total


def _vanishing_order(coeffs, locs: np.ndarray) -> np.ndarray:
    """Per location, the largest k >= 2 (else 0) such that a k-fold root is
    within _MERGE_TOL: the first k - 1 of the polynomial and its derivatives
    vanish within rounding (1e-13 of their terms' moduli) and the Newton
    step of the next is that short; the zero polynomial vanishes to all k."""
    p, idx = np.array(coeffs[::-1]), np.arange(locs.size)
    order = np.full(locs.size, 0 if p.any() else np.iinfo(np.int64).max)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, p.size):
            size = np.polyval(np.abs(p), _moduli(locs[idx]))
            idx = idx[(np.abs(np.polyval(p, locs[idx])) <= 1e-13 * size) & (size < np.inf)]
            p, dp, z = np.polyder(p), np.polyder(p, 2), locs[idx]
            order[idx[np.abs(np.polyval(p, z)) <= _MERGE_TOL * np.abs(np.polyval(dp, z))]] = k
    return order


def _reduced(poles, orders: np.ndarray):
    """The pole set with each multiplicity lowered by the order of a zero
    there (at most to 0), poles of multiplicity 0 dropped."""
    locs, mults = poles
    left = mults - np.minimum(mults, orders)
    return locs[left > 0], left[left > 0]


def _factors(node: Node, power: int = 1) -> list:
    """(factor, power) pairs of a product; polynomial subtrees stay whole."""
    if polynomial_coefficients(node) is None:
        if isinstance(node, Neg):
            return _factors(node.operand, power)
        if isinstance(node, Mul):
            return _factors(node.left, power) + _factors(node.right, power)
        if isinstance(node, Pow) and node.exponent > 0:
            return _factors(node.base, power * node.exponent)
    return [(node, power)]


def _zero_factor(node: Node) -> bool:
    """Whether a factor of the product node vanishes identically: the zero
    polynomial, or a difference of equal trees (a - a, a + -a, -a + a)."""
    return any(polynomial_coefficients(g) == (0j,) or isinstance(g, Sub) and g.left == g.right
               or isinstance(g, Add) and (g.right == Neg(g.left) or g.left == Neg(g.right))
               for g, _ in _factors(node))


def _zero_set(node: Node):
    """Zeros and poles of a polynomial times level sets (see _level_set) at
    any radius: the roots of its polynomial part as a pole set, the zero
    cosets and the pole cosets.  Raises _NeedsNumeric for other trees."""
    coeffs = polynomial_coefficients(node)
    if coeffs is not None:
        return _poly_roots(coeffs), [], []
    poly, zeros, poles = (1 + 0j,), [], []
    for factor, power in _factors(node):
        coeffs = polynomial_coefficients(factor)
        if coeffs is not None:
            for _ in range(power):
                poly = _poly_mul(poly, coeffs)
                if poly is None:
                    raise _NeedsNumeric
            continue
        level = _level_set(factor)
        if level is None:
            raise _NeedsNumeric
        zeros += [c._replace(mult=c.mult * power) for c in level[0]]
        poles += [c._replace(mult=c.mult * power) for c in level[1]]
    return _poly_roots(poly), zeros, poles


def _divisor(node: Node, radius: float):
    """The zeros of _zero_set(node) in the disk as one pole set, and its pole
    cosets; a zero of one factor on a pole of another raises _NeedsNumeric,
    a factor that vanishes identically UnsupportedExpressionError."""
    if _zero_factor(node):
        raise UnsupportedExpressionError("a denominator vanishes identically")
    zeros, zero_cosets, poles = _zero_set(node)
    for coset in zero_cosets:
        zeros = _joined(zeros, _lattice(coset, radius))
    if _hits(poles, zeros[0]).any():
        raise _NeedsNumeric
    return zeros, poles


def _cancel_against(other: Node, poles):
    """The pole set left after cancellation by the zeros of the factor other:
    a polynomial or level-set factor lowers each pole by the summed
    multiplicity of the zeros of _zero_set(other) within _MERGE_TOL of it
    (_coincident, _hits), a polynomial at least by its _vanishing_order, as
    the computed roots of a multiple root scatter farther.  Any other factor
    raises _NeedsNumeric where it vanishes (or blows up) at a pole."""
    locs = poles[0]
    coeffs = polynomial_coefficients(other)
    if coeffs is not None or _level_set(other) is not None:
        (roots, orders), cosets, _ = _zero_set(other)
        hits = _hits(cosets, locs)
        i, j = _coincident(locs, roots)
        np.add.at(hits, i, orders[j])
        if coeffs is not None:
            hits = np.maximum(hits, _vanishing_order(coeffs, locs))
        return _reduced(poles, hits)
    if locs.size:
        val = log_polar(other, locs)[0]
        if not (np.isfinite(val) & (val >= math.log(1e-8))).all():
            raise _NeedsNumeric
    return poles


def _structural_poles(node: Node, radius: float):
    """Pole set (locations complex128, multiplicities int64) inside the disk.

    The locations of one set lie more than _MERGE_TOL apart: lattice
    points at least |period| / |a| >= radius / 2^20 apart under the index
    budget, polynomial roots 1e-6 scale apart, and Add and Sub refuse, Mul
    and Div join, the poles of two sets that coincide.  So only poles of
    different sets are ever compared.  Raises _NeedsNumeric when the pole
    set is not certifiable from the tree (has_poles vetted every argument).
    """
    if polynomial_coefficients(node) is not None:
        return _EMPTY
    if isinstance(node, Neg):
        return _structural_poles(node.operand, radius)
    if isinstance(node, (LacunarySeries, CanonicalProduct)):
        return _EMPTY
    if isinstance(node, (Add, Sub)):
        pa = _structural_poles(node.left, radius)
        pb = _structural_poles(node.right, radius)
        if _coincident(pa[0], pb[0])[0].size:
            # principal parts might cancel
            raise _NeedsNumeric
        return np.concatenate([pa[0], pb[0]]), np.concatenate([pa[1], pb[1]])
    if isinstance(node, Mul):
        pa = _structural_poles(node.left, radius)
        pb = _structural_poles(node.right, radius)
        return _joined(_cancel_against(node.right, pa), _cancel_against(node.left, pb))
    if isinstance(node, Div):
        zeros, den_poles = _divisor(node.denominator, radius)
        pa = _structural_poles(node.numerator, radius)
        # a pole of the denominator is a zero of the quotient
        pa = _reduced(pa, _hits(den_poles, pa[0]))
        return _joined(pa, _cancel_against(node.numerator, zeros))
    if isinstance(node, Pow):
        if node.exponent >= 0:
            locs, mults = _structural_poles(node.base, radius) if node.exponent else _EMPTY
        else:
            locs, mults = _divisor(node.base, radius)[0]
        return locs, mults * abs(node.exponent)
    if isinstance(node, Func):
        return _lattice(_zero_set(node)[2][0], radius) if node.name == "tan" else _EMPTY
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
    limit = radius + _MERGE_TOL
    # the budget is checked before anything is evaluated or laid out: the
    # row through 0 alone covers [-limit, limit], so a long axis is refused
    if 2 * limit > _GRID_CELLS * cell:
        raise UnresolvedRegionError(f"one row of the disk of radius {radius:g} exceeds the budget")
    n_cells = max(2, math.ceil((extent - origin) / cell))
    starts = [origin + i * cell for i in range(n_cells)]
    # per axis, the coordinate of each cell closest to 0
    near = [s if s > 0 else (s + cell if s + cell < 0 else 0.0) for s in starts]
    # else the count is exact: in each row y, the cells with |x| <= sqrt(limit^2 - y^2)
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
    # the boxes are disjoint and at least 3e-7 wide, so no two centres merge
    return sorted(found, key=lambda t: (abs(t[0]), t[0].real, t[0].imag))


def _numeric_poles(f, radius: float) -> list:
    """Locate poles by winding-number search over a grid of boxes.

    This serves the trees the exact route cannot certify, such as
    1/(exp(z) + z); a denominator that is a polynomial times level sets of
    exp, sin, cos and tan, such as 1/(exp(z) - 2), takes the exact route.

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


@lru_cache(maxsize=512)
def has_poles(f) -> bool:
    """Whether f may have a pole anywhere in the plane: not _entire of its tree.

    This is decided from the tree alone, with no radius and no catalog;
    the only evaluation is of a numerator at the roots of its
    denominator's polynomial part (_cancel_against).  True means "not
    proven pole-free": it holds for 1/(z^2 + 1e6), whose poles lie at
    +-1000i, and for (exp(z) + z)/(exp(z) + z), which has none.  Raises
    UnsupportedExpressionError where exp, sin, cos or tan is applied to an
    argument that is not proven pole-free, since a pole there would be an
    essential singularity at a finite point.
    """
    root = as_expr(f).root
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Func) and not _entire(node.argument):
            raise UnsupportedExpressionError(
                "function applied to a subexpression not proven pole-free: a pole "
                "there would be an essential singularity at a finite point"
            )
        stack += _children(node)
    return not _entire(root)


def _bucket_radius(radius: float) -> float:
    return float(2.0 ** math.ceil(math.log2(max(radius, 1.0)) - 1e-12))


@lru_cache(maxsize=512)
def _catalog_at(f: MeroExpr, radius: float) -> SingularityList:
    try:
        locs, mults = _structural_poles(f.root, radius)
        exact = True
    except _NeedsNumeric:
        found = _numeric_poles(f, radius)
        locs = np.array([loc for loc, _ in found], dtype=np.complex128)
        mults = np.array([m for _, m in found], dtype=np.int64)
        # locations below the locator's resolution snap to the origin;
        # otherwise N(r) would pick up a spurious log(r/|b|) blow-up
        locs[_moduli(locs) < 1e-6] = 0
        exact = False
    moduli = _moduli(locs)
    order = np.lexsort((locs.imag, locs.real, moduli))
    return SingularityList(locs[order], mults[order], moduli[order], exact)


def poles_in_disk(f, radius: float) -> SingularityList:
    """Catalog of poles with |location| <= radius.

    has_poles decides first; a pole-free tree gets one shared exact, empty
    catalog.  Other catalogs are computed per power-of-two bucket radius
    and cut down by SingularityList.within, so a radius grid reuses one
    search.  Raises UnsupportedExpressionError where has_poles refuses the
    tree or a denominator vanishes identically, and UnresolvedRegionError
    when the numeric search cannot settle or a catalog exceeds its budget.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    f = as_expr(f)
    if not has_poles(f):
        return _NO_POLES
    return _catalog_at(f, _bucket_radius(radius)).within(radius)
