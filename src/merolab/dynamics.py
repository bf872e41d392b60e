"""Pixel-grid orbit classification and empirical boundedness probes.

Orbits are classified into escaping, attracted (to a finite cycle),
pole-hit, or undecided.  Cycle detection runs Brent's power-of-two test
on the iteration: one saved point per orbit and one map evaluation per
step, so the same code path serves single points and full pixel grids.
Orbits run in tiles of about 2^16 points, a grid's tile being a band of
whole rows, and each tile finishes all its steps before the next one
starts: loop state is sized to a tile, and a grid keeps 9 bytes per
pixel (class, step count, cycle id).  Cycle ids are numbered as one
batch of all orbits would number them, by orbit step and then index of
each cycle's first detection, so the tiling never shows in the output.
Escape is decided by growth beyond r_esc, by a cycle-test coincidence
beyond r_esc (rounding such as z + 1 == z far out, not a cycle) or, for
maps of the form f = z + c + h(z) with c != 0 and h a finite sum of
a_k exp(alpha_k z + d_k) that decays along u = c/|c|
(alpha_k = -beta_k conj(u), beta_k > 0), by an absorbing half-plane
H_s = {Re(conj(u) z) > s}: s is chosen so that |h| <= 3|c|/4 on H_s, so
Re(conj(u) f(z)) >= Re(conj(u) z) + |c|/4 there, H_s is forward-invariant
and every orbit that enters it tends to infinity.  An orbit is escaping at
the first step that lands in H_s.
Components of the stable set are approximated by 4-connected patches of
decided pixels of the same class: the connected components of the graph
whose edges join 4-neighbours of equal class key.  Undecided and
pole-hit pixels have no key and act as barriers, which may oversegment
but never merges across possible Julia points.  Labelling, component
boxes and collars are numpy array passes: row runs of equal keys merged
by hooking and pointer jumping, boxes from the runs' extents, collars
from four shifted copies of a mask.

Boundedness of a component is probed, not proved: windows are recentered
on a seed and rescaled, and the verdict reports whether the component
keeps reaching the window edge as the window grows.  The scale list
travels with the verdict so its epistemic status stays auditable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import IntEnum
from fractions import Fraction

import numpy as np

from .expr import (
    OK_FLAG,
    POLE_FLAG,
    Add,
    Div,
    Func,
    Mul,
    Neg,
    Sub,
    as_expr,
    evaluate_many,
    has_poles,
    polynomial_coefficients,
)

_ESCAPE_DEFAULT = 1e6
_POLE_LANDING = 1e12      # |f(z)| beyond this, for a map with poles, counts
                          # as landing within pole tolerance of some pole
_CYCLE_TOL = 1e-9
_CYCLE_MATCH_TOL = 1e-6
_PERIOD_CAP = 32
_MAX_RESOLUTION = 8192
_TILE_PIXELS = 2**16      # orbits run together; a grid tile is a band of
                          # max(1, _TILE_PIXELS // resolution) whole rows
_GROWTH_RUN = 3

_PALETTE = (
    (66, 135, 245),
    (245, 188, 66),
    (66, 245, 161),
    (188, 66, 245),
    (245, 66, 188),
    (66, 222, 245),
    (152, 245, 66),
    (245, 108, 66),
)
_POLE_COLOR = (200, 30, 30)


class OrbitClass(IntEnum):
    UNDECIDED = 0
    ESCAPING = 1
    ATTRACTED = 2
    POLE_HIT = 3


_CLASS_NAMES = {
    OrbitClass.UNDECIDED: "undecided",
    OrbitClass.ESCAPING: "escaping",
    OrbitClass.ATTRACTED: "attracted",
    OrbitClass.POLE_HIT: "pole-hit",
}


class SeedUndecidedError(ValueError):
    """The probe seed fell on a pixel without a usable component."""


@dataclass(frozen=True)
class OrbitResult:
    """Classification of a single orbit.

    final holds the last orbit value for escaping and undecided orbits,
    the cycle representative for attracted ones, and the point that
    mapped onto the pole for pole hits.  steps counts orbit steps: the
    step s at which escape, a cycle or a coincidence without a cycle was
    detected (x_s the s-th iterate), or 2·budget when the budget ran out
    undecided.  cycle_id is 0 unless attracted.
    pole_step is derived from steps: the index of the orbit point that
    landed on a pole, which is steps for pole hits, and -1 otherwise.
    """

    orbit_class: OrbitClass
    steps: int
    final: complex
    cycle_id: int = 0
    pole_step: int = -1


@dataclass(frozen=True, eq=False)
class ClassifiedGrid:
    center: complex
    half_width: float
    resolution: int
    budget: int
    escape_radius: float
    classes: np.ndarray
    steps: np.ndarray
    cycle_ids: np.ndarray
    cycles: tuple
    labels: np.ndarray | None = None
    certified_pixels: int = 0  # escapes decided by the absorbing half-plane

    def pixel_centers(self) -> np.ndarray:
        return _pixel_centers(self.center, self.half_width, self.resolution)


@dataclass(frozen=True)
class ComponentReport:
    """Verdict on one component probed across window scales."""

    component_id: int
    orbit_class: str
    pixels: int
    touches_boundary: bool
    verdict: str
    scales: tuple
    observations: tuple

    def as_dict(self) -> dict:
        # components.json keeps its keys "id" and "class"; "class" is a
        # keyword, so no field can carry that name
        out = asdict(self)
        out["id"] = out.pop("component_id")
        out["class"] = out.pop("orbit_class")
        return out


# ---------------------------------------------------------------------------
# orbit iteration
# ---------------------------------------------------------------------------


def _summands(node, sign=1.0):
    """(sign, node) for each summand of a tree of Add, Sub and Neg nodes;
    a polynomial subtree is one summand."""
    if polynomial_coefficients(node) is None:
        if isinstance(node, (Add, Sub)):
            yield from _summands(node.left, sign)
            yield from _summands(node.right, -sign if isinstance(node, Sub) else sign)
            return
        if isinstance(node, Neg):
            yield from _summands(node.operand, -sign)
            return
    yield sign, node


def _constant(node):
    coeffs = polynomial_coefficients(node)
    return coeffs[0] if coeffs is not None and len(coeffs) == 1 else None


def _exp_term(node):
    """(a, alpha, d) when node is a exp(alpha z + d) with a constant factor a
    (Neg, or Mul or Div by a constant) and alpha != 0, else None."""
    if isinstance(node, Func):
        arg = polynomial_coefficients(node.argument) if node.name == "exp" else None
        return (1.0, arg[1], arg[0]) if arg is not None and len(arg) == 2 else None
    if isinstance(node, Neg):
        a, inner = -1.0, node.operand
    elif isinstance(node, Mul):
        a, inner = _constant(node.left), node.right
        if a is None:
            a, inner = _constant(node.right), node.left
    elif isinstance(node, Div):
        a, inner = _constant(node.denominator), node.numerator
        a = 1.0 / a if a else None
    else:
        return None
    term = None if a is None else _exp_term(inner)
    return None if term is None else (a * term[0], *term[1:])


def absorbing_half_plane(f):
    """Certified escape region of f as (u, s), or None.

    For f = z + c + sum_k a_k exp(alpha_k z + d_k) with c != 0, u = c/|c|
    and every beta_k = -alpha_k / conj(u) real and positive, |h| <= 3|c|/4
    on H_s = {Re(conj(u) z) > s}, so f moves every point of H_s at least
    |c|/4 further along u: H_s is forward-invariant and every orbit that
    enters it tends to infinity.  s is the largest of the per-term
    thresholds that hold each of the n terms to 3|c|/(4n); for one term it
    is the smallest such s (log(4/3) for z + 1 + exp(-z)).  The form is
    recognised structurally (summands through Add, Sub and Neg; constant
    factors through Neg, Mul and Div; linear exponents) in a few
    microseconds, afresh for each orbit grid; any other map gives None.
    """
    c = slope = 0j
    terms = []
    for sign, node in _summands(as_expr(f).root):
        coeffs = polynomial_coefficients(node)
        if coeffs is None:
            term = _exp_term(node)
            if term is None:
                return None
            terms.append((sign * term[0], *term[1:]))
        elif len(coeffs) <= 2:
            lo, hi = (*coeffs, 0j)[:2]
            c += sign * lo
            slope += sign * hi
        else:
            return None
    size = math.hypot(c.real, c.imag)
    if slope != 1 or not terms or not 0 < size < math.inf:
        return None
    u = c / size
    bounds = []
    for a, alpha, d in terms:
        if not (a and math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            return None
        # beta = -alpha / conj(u) = -alpha u: alpha c must be real exactly in
        # the constants' binary values, and beta positive
        ar, ai, cr, ci = map(Fraction, (alpha.real, alpha.imag, c.real, c.imag))
        beta = -(alpha * u).real
        if ar * ci + ai * cr != 0 or not beta > 0:
            return None
        # on H_s this term is at most |a| exp(Re d - beta s), which is
        # 3|c| / (4 n) at the s below: the n terms sum to at most 3|c|/4
        log_a = math.log(math.hypot(a.real, a.imag))
        bounds.append((d.real + log_a + math.log(4 * len(terms) / 3) - math.log(size)) / beta)
    # a non-finite a, d or beta leaves no usable threshold
    if not all(map(math.isfinite, bounds)):
        return None
    return u, max(bounds)


def _canonical_rep(points) -> complex:
    # deterministic cycle representative: smallest modulus, ties broken
    # lexicographically on rounded coordinates
    def key(w):
        return (round(abs(w), 7), round(w.real, 7), round(w.imag, 7))

    return min(points, key=key)


def _extract_cycles(expr, seeds: np.ndarray, registry: list):
    """Find the cycle each seed sits on and its id in the registry.

    Seeds come from a Brent coincidence, so they are within detection
    tolerance of an attracting cycle.  Returns (ids, reps) with reps the
    canonical cycle point and ids counted from 1 in registry order: a rep
    takes the first entry within match tolerance, and the first rep that
    matches none is appended, as if the reps were matched in turn.  Seeds
    whose period exceeds the cap get id 0 and keep the seed as rep.
    """
    traj = [seeds]
    cur = seeds
    period = np.zeros(seeds.size, dtype=np.int32)
    for k in range(1, _PERIOD_CAP + 1):
        cur, fl = evaluate_many(expr, cur)
        bad = fl != 0
        if bad.any():
            cur = np.where(bad, traj[-1], cur)
        traj.append(cur)
        hit = (np.abs(cur - seeds) <= _CYCLE_MATCH_TOL) & (period == 0) & ~bad
        period[hit] = k
        if (period > 0).all():
            break
    # a period-1 seed is its own rep; longer cycles pick theirs by key
    reps = seeds.copy()
    for i in np.flatnonzero(period >= 2):
        reps[i] = _canonical_rep([complex(traj[j][i]) for j in range(period[i])])
    ids = np.zeros(seeds.size, dtype=np.int32)
    pending = period > 0
    j = 0
    while pending.any():
        if j == len(registry):
            registry.append(complex(reps[pending.argmax()]))
        hit = pending & (np.abs(reps - registry[j]) <= _CYCLE_MATCH_TOL)
        ids[hit] = j + 1
        pending &= ~hit
        j += 1
    return ids, reps


def _classify_tile(expr, pts, budget, r_esc, meromorphic, plane, classes, steps, cyc, final):
    """Run every orbit of one tile to its verdict.

    Writes each orbit's class, step count and cycle id into classes, steps
    and cyc, and its final value into final unless that is None; all four
    are tile-sized views.  plane is the map's absorbing half-plane (u, s)
    or None.  Cycle ids count from 1 in a registry local to the tile.
    Returns (rows, certified): the registry as (step, index, rep) rows,
    one per id (the orbit step that first detected the cycle, the tile
    index of the first pixel then found on it, and that pixel's rep), and
    the number of orbits the half-plane decided.
    """
    # Loop state holds only the undecided orbits, row k being pixel live[k]:
    # most pixels settle early, and gathering from and scattering into
    # tile-sized arrays at every step costs more than evaluating the map.
    # Boolean filtering keeps live ascending, so cycles register in pixel
    # order.
    live = np.arange(pts.size)
    saved = cur = pts
    cmod = np.abs(cur)
    grow = np.zeros(pts.size, dtype=np.int16)
    registry: list[complex] = []
    first: list[tuple[int, int]] = []
    certified = 0

    def decide(mask, cls, step_count, *extra):
        # records the orbits under mask, whose final values are those of
        # cur, and drops them from the loop state; returns extra filtered
        # alike
        nonlocal live, saved, cur, cmod, grow
        if not mask.any():
            return extra
        idx = live[mask]
        classes[idx] = cls
        steps[idx] = step_count
        if final is not None:
            final[idx] = cur[mask]
        keep = ~mask
        live, saved, cur, cmod, grow = (a[keep] for a in (live, saved, cur, cmod, grow))
        return tuple(a[keep] for a in extra)

    # Brent's test compares x_s with x_p, p = 0 or the largest power of 2 below s
    for s in range(1, 2 * budget + 1):
        if live.size == 0:
            break
        w, fl = step = evaluate_many(expr, cur)
        m = step.modulus
        # decide filters w, m and fl; the pair would keep this step's
        # unfiltered arrays alive through the next evaluation
        del step
        if meromorphic:
            pole = (fl == POLE_FLAG) | (m >= _POLE_LANDING)
            w, m, fl = decide(pole, OrbitClass.POLE_HIT, s - 1, w, m, fl)
        # without poles, a NaN flagged as a pole came from inf arithmetic:
        # the image overflowed
        w, m = decide(fl != OK_FLAG, OrbitClass.ESCAPING, s, w, m)
        # grow counts the consecutive steps beyond r_esc that grew |z|
        grow += 1
        grow *= (cmod > r_esc) & (m > cmod)
        cur, cmod = w, m
        decide(grow >= _GROWTH_RUN, OrbitClass.ESCAPING, s)
        if plane is not None:
            u, depth = plane
            inside = cur.real * u.real + cur.imag * u.imag > depth
            certified += int(np.count_nonzero(inside))
            decide(inside, OrbitClass.ESCAPING, s)
        close = np.abs(cur - saved) <= _CYCLE_TOL
        if close.any():
            # beyond r_esc a coincidence is rounding, such as z + 1 == z,
            # not a cycle: the orbit escapes at this step
            (close,) = decide(close & (cmod > r_esc), OrbitClass.ESCAPING, s, close)
        if close.any():
            known = len(registry)
            ids, reps = _extract_cycles(expr, cur[close], registry)
            idx = live[close]
            cyc[idx] = ids
            # a new entry's first pixel is the first seed that took its id
            first += [(s, int(idx[np.argmax(ids == j)])) for j in range(known + 1, len(registry) + 1)]
            ok = ids > 0
            # cur is this step's image, a new array, so no saved point
            # changes
            cur[close] = reps
            decide(close, np.where(ok, OrbitClass.ATTRACTED, OrbitClass.UNDECIDED), s)
        if s & (s - 1) == 0:
            saved = cur

    if final is not None:
        final[live] = cur
    return [(s, i, rep) for (s, i), rep in zip(first, registry)], certified


def _classify_tiles(expr, n, tiles, budget, r_esc, with_final):
    """Classify n orbits tile by tile.

    tiles yields (start, points): consecutive tiles of the n starting
    points, start being the index of a tile's first point.  Each tile runs
    all its orbit steps before the next one starts, so loop state is
    tile-sized and only the class, step count and cycle id (9 bytes) are
    kept per orbit, plus the final value (16 bytes) when with_final is
    set; otherwise final is None.  Returns (classes, steps, cycle ids,
    final, cycle registry, count of escapes the absorbing half-plane
    decided).

    Whether an orbit can hit a pole is has_poles of the tree, decided
    without a radius or a catalog: for a map not proven pole-free, an
    image with |f| >= 1e12 is a pole hit.  A function applied to a
    subexpression not proven pole-free raises UnsupportedExpressionError
    before any orbit runs.

    Cycle ids are those of one batch of all n orbits: ids count from 1 in
    the order (step, index) of each cycle's first detection, and a cycle's
    rep is the one from that detection.  After the last tile the local
    registries merge in that order, each entry taking the first global
    entry within match tolerance or else a new id, and every tile's local
    ids are remapped to the global ones.
    """
    if not r_esc >= 10.0:
        raise ValueError("escape radius must be at least 10")
    classes = np.zeros(n, dtype=np.uint8)
    steps = np.full(n, 2 * budget, dtype=np.int32)
    cyc = np.zeros(n, dtype=np.int32)
    final = np.empty(n, dtype=np.complex128) if with_final else None
    meromorphic = has_poles(expr)
    plane = absorbing_half_plane(expr)
    spans = []
    entries = []
    certified = 0
    for start, pts in tiles:
        part = slice(start, start + pts.size)
        local, count = _classify_tile(expr, pts, budget, r_esc, meromorphic, plane, classes[part],
                                      steps[part], cyc[part], None if final is None else final[part])
        certified += count
        spans.append((part, len(entries), len(local)))
        entries += [(s, start + i, rep) for s, i, rep in local]
    # a batch of all orbits detects in step order, and within a step in
    # pixel order
    order = sorted(range(len(entries)), key=lambda k: entries[k][:2])
    reps = np.empty(len(entries), dtype=np.complex128)
    gid = np.zeros(len(entries), dtype=np.int32)
    size = 0
    for k in order:
        rep = entries[k][2]
        hit = np.flatnonzero(np.abs(reps[:size] - rep) <= _CYCLE_MATCH_TOL)
        if hit.size:
            gid[k] = hit[0] + 1
        else:
            reps[size] = rep
            size += 1
            gid[k] = size
    for part, offset, count in spans:
        cyc[part] = np.concatenate(([0], gid[offset:offset + count]))[cyc[part]]
    return classes, steps, cyc, final, tuple(complex(r) for r in reps[:size]), certified


def _classify_points(expr, pts: np.ndarray, budget: int, r_esc: float):
    """Classify the orbit of each point in tiles of _TILE_PIXELS points.

    Returns (classes, steps, cycle ids, final values, cycle registry,
    certified count), exactly as one batch of all points would give them.
    """
    pts = np.asarray(pts, dtype=np.complex128)
    tiles = ((lo, pts[lo:lo + _TILE_PIXELS]) for lo in range(0, pts.size, _TILE_PIXELS))
    return _classify_tiles(expr, pts.size, tiles, budget, r_esc, True)


def iterate_orbit(f, z0: complex, max_steps: int = 1000, R_esc: float = _ESCAPE_DEFAULT) -> OrbitResult:
    """Classify the orbit of a single starting point.

    Escape requires the modulus to sit beyond R_esc and grow on three
    consecutive steps, or an image to overflow outright; for a map
    without poles a NaN image (from inf arithmetic) is such an overflow,
    so only maps with poles hit one.  A map with an absorbing half-plane
    H_s (see absorbing_half_plane; z + 1 + exp(-z) has Re z > log(4/3))
    escapes at the first orbit step that lands in H_s, since from there
    every step moves at least |c|/4 further along u.  Cycles are
    detected by Brent's power-of-two test with tolerance 1e-9; a
    coincidence beyond R_esc is rounding, not a cycle, and escapes there;
    2·max_steps orbit steps without a verdict yield undecided, with steps
    == 2·max_steps, since steps always counts orbit steps.  Failures never
    raise, they absorb into undecided.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    expr = as_expr(f)
    classes, steps, cyc, final, _, _ = _classify_points(
        expr, np.array([z0], dtype=np.complex128), max_steps, float(R_esc)
    )
    cls = OrbitClass(int(classes[0]))
    step_count = int(steps[0])
    pole_step = step_count if cls is OrbitClass.POLE_HIT else -1
    return OrbitResult(cls, step_count, complex(final[0]), int(cyc[0]), pole_step)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _pixel_axes(center: complex, half_width: float, resolution: int):
    """Real parts of the pixel columns and imaginary parts of the rows;
    near the float limit they overflow to inf or NaN, which classify_grid
    refuses."""
    frac = (np.arange(resolution) + 0.5) / resolution
    with np.errstate(over="ignore", invalid="ignore"):
        xs = center.real - half_width + 2.0 * half_width * frac
        ys = center.imag + half_width - 2.0 * half_width * frac
    return xs, ys


def _pixel_centers(center: complex, half_width: float, resolution: int) -> np.ndarray:
    xs, ys = _pixel_axes(center, half_width, resolution)
    return xs[None, :] + 1j * ys[:, None]


def classify_grid(f, window, resolution: int, budget: int, r_esc: float = _ESCAPE_DEFAULT) -> ClassifiedGrid:
    """Classify every pixel-center orbit in a square window.

    window is (center, half_width); row 0 is the top of the window and
    pixels are sampled at their centers; orbits take up to 2·budget orbit
    steps, and steps counts orbit steps (2·budget for an orbit the budget
    leaves undecided).  The output is a pure function of (f, window,
    resolution, budget, r_esc).  A window whose pixel axes are not finite
    (2·half_width overflows near 1e308, say) raises ValueError before any
    orbit runs.

    Orbits run in tiles, bands of max(1, 2^16 // resolution) whole rows
    whose pixel centers are built as each band starts, so loop state is
    sized to a tile and the grid keeps 9 bytes per pixel: class, steps and
    cycle id.  Cycle ids count from 1 in the order of each cycle's first
    detection, by orbit step and then raster index, as one batch of the
    whole grid would number them.
    """
    center, half_width = window
    center = complex(center)
    half_width = float(half_width)
    resolution = int(resolution)
    if not 1 <= resolution <= _MAX_RESOLUTION:
        raise ValueError("resolution must lie in [1, %d]" % _MAX_RESOLUTION)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not half_width > 0:
        raise ValueError("window half-width must be positive")
    expr = as_expr(f)
    xs, ys = _pixel_axes(center, half_width, resolution)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("the window's pixel grid is not finite")
    rows = max(1, _TILE_PIXELS // resolution)
    tiles = ((r * resolution, (xs[None, :] + 1j * ys[r:r + rows, None]).reshape(-1))
             for r in range(0, resolution, rows))
    classes, steps, cyc, _, registry, certified = _classify_tiles(
        expr, resolution * resolution, tiles, int(budget), float(r_esc), False)
    shape = (resolution, resolution)
    return ClassifiedGrid(
        center,
        half_width,
        resolution,
        int(budget),
        float(r_esc),
        classes.reshape(shape),
        steps.reshape(shape),
        cyc.reshape(shape),
        registry,
        certified_pixels=certified,
    )


def _component_keys(grid: ClassifiedGrid) -> np.ndarray:
    # one key per labelable class; 0 marks barrier pixels (undecided and
    # pole-hit alike, the latter being Julia-adjacent); int32 holds
    # 2 + 4·id for ids up to res^2 <= 2^26.  Built in place, so only the
    # keys and one bool mask are whole-grid at a time.
    classes = grid.classes.reshape(-1)
    keys = grid.cycle_ids.reshape(-1).astype(np.int32)
    keys *= 4
    keys += 2
    keys[classes != OrbitClass.ATTRACTED] = 0
    keys[classes == OrbitClass.ESCAPING] = 1
    return keys


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the first pixel of every row run of equal values."""
    start = np.ones(a.shape, dtype=bool)
    np.not_equal(a[:, 1:], a[:, :-1], out=start[:, 1:])
    return start


def label_components(grid: ClassifiedGrid) -> ClassifiedGrid:
    """Connected components of the equal-key 4-neighbour graph.

    Pixels are nodes; an edge joins 4-neighbours with the same class key.
    Escaping pixels form one class; attracted pixels split by cycle id.
    Undecided and pole-hit pixels have no key, stay at label 0 and
    separate components.  Label ids count up in raster order of each
    component's first pixel.

    The row runs of equal keys are the nodes of the merge (He, Chao and
    Suzuki, IEEE Trans. Image Process. 17, 2008), numbered in raster
    order.  A run overlaps a run of the next row exactly when one lies
    above the other at the later of their two starts, so the union of two
    adjacent rows' run starts yields each overlapping pair once, and pairs
    of equal non-zero keys are the edges.  Hooking and pointer jumping
    (Shiloach and Vishkin, J. Algorithms 3, 1982) then run over run ids:
    each edge between two roots hooks the larger root under the smaller,
    and the roots' pointers jump to a fixpoint, until no edge joins two
    roots.  Hooks point to smaller ids, so a component's root is its first
    run, which starts at its first pixel.  Beyond the labels, the
    whole-grid temporaries are the int32 keys, dropped once each run's key
    is read, the int32 run-id map and bool masks; everything else is sized
    by runs.
    """
    res = grid.resolution
    keys = _component_keys(grid).reshape(res, res)
    start = _run_starts(keys)
    run_key = keys.reshape(-1)[np.flatnonzero(start)]
    del keys
    # run ids in raster order; int32 suffices: res^2 <= 8192^2 < 2^31
    runid = start.reshape(-1).astype(np.int32)
    np.cumsum(runid, out=runid)
    runid -= 1
    pos = np.flatnonzero(start[:-1] | start[1:])
    del start
    upper, lower = runid[pos], runid[pos + res]
    del pos
    joined = run_key[upper] == run_key[lower]
    joined &= run_key[upper] != 0
    lo, hi = upper[joined], lower[joined]
    root = np.arange(run_key.size, dtype=np.int32)
    # the runs that are still roots
    tops = root.copy()
    while True:
        live = lo != hi
        if not live.any():
            break
        lo, hi = np.minimum(lo[live], hi[live]), np.maximum(lo[live], hi[live])
        # among duplicate hooks of one root any winner is a valid hook
        root[hi] = lo
        # hooks join roots, so the jumps run over the roots alone
        while True:
            parent = root[tops]
            grand = root[parent]
            if np.array_equal(grand, parent):
                break
            root[tops] = grand
        root = root[root]
        tops = tops[root[tops] == tops]
        lo, hi = root[lo], root[hi]
    # a barrier run keeps label 0; a component takes the rank of its root
    decided = run_key != 0
    rank = np.cumsum(decided & (root == np.arange(root.size)), dtype=np.int32)
    run_label = np.where(decided, rank[root], 0)
    return replace(grid, labels=run_label[runid].reshape(res, res))


def _component_table(grid: ClassifiedGrid) -> tuple[list, list]:
    """JSON-ready summary and bounding box of every component, by label - 1.

    A component's pixels share one class, read at its first pixel; it
    touches the boundary when its box reaches row or column 0 or res.
    Boxes are (row slice, column slice) pairs, as ndimage.find_objects
    gives them, and pixel counts are sums of run lengths, both found from
    the row runs of equal labels.
    """
    if grid.labels is None:
        raise ValueError("grid has no labels; run label_components first")
    res = grid.resolution
    flat = grid.labels.reshape(-1)
    first = np.flatnonzero(_run_starts(grid.labels))
    last = np.append(first[1:], flat.size) - 1
    run_label = flat[first]
    size = int(run_label.max()) + 1
    top = np.full(size, flat.size)
    bottom = np.zeros(size, dtype=np.intp)
    left = np.full(size, res)
    right = np.zeros(size, dtype=np.intp)
    np.minimum.at(top, run_label, first)
    np.maximum.at(bottom, run_label, last)
    np.minimum.at(left, run_label, first % res)
    np.maximum.at(right, run_label, last % res)
    pixels = np.zeros(size, dtype=np.intp)
    np.add.at(pixels, run_label, last - first + 1)
    # label 0 (barrier pixels) is no component
    pixels = pixels[1:].tolist()
    classes = grid.classes.reshape(-1)[top[1:]].tolist()
    boxes = [
        (slice(r0, r1 + 1), slice(c0, c1 + 1))
        for r0, r1, c0, c1 in zip(*(a[1:].tolist() for a in (top // res, bottom // res, left, right)))
    ]
    summaries = [
        {
            "id": lab,
            "class": _CLASS_NAMES[OrbitClass(cls)],
            "pixels": count,
            "touches_boundary": 0 in (rows.start, cols.start) or res in (rows.stop, cols.stop),
        }
        for lab, (cls, count, (rows, cols)) in enumerate(zip(classes, pixels, boxes), start=1)
    ]
    return summaries, boxes


def component_summaries(grid: ClassifiedGrid) -> list:
    """Per-component JSON-ready summaries of a labeled grid."""
    return _component_table(grid)[0]


def class_counts(grid: ClassifiedGrid) -> dict:
    """Pixel count of each orbit class, keyed by class name."""
    return {_CLASS_NAMES[cls]: int(np.count_nonzero(grid.classes == cls)) for cls in OrbitClass}


# ---------------------------------------------------------------------------
# boundedness probe
# ---------------------------------------------------------------------------


def _seed_pixel(resolution: int) -> tuple[int, int]:
    # windows are recentered on the seed, so the seed pixel is the center one
    return resolution // 2, resolution // 2


def _collar(mask: np.ndarray) -> np.ndarray:
    """Pixels outside mask 4-adjacent to it."""
    grown = mask.copy()
    grown[1:] |= mask[:-1]
    grown[:-1] |= mask[1:]
    grown[:, 1:] |= mask[:, :-1]
    grown[:, :-1] |= mask[:, 1:]
    return grown & ~mask


def _component_stats(grid: ClassifiedGrid, row: int, col: int):
    lab = int(grid.labels[row, col])
    if lab == 0:
        return None
    summaries, boxes = _component_table(grid)
    summary = summaries[lab - 1]
    rows, cols = boxes[lab - 1]
    touches = summary["touches_boundary"]
    res = grid.resolution
    px = 2.0 * grid.half_width / res
    width = (cols.stop - cols.start) * px
    height = (rows.stop - rows.start) * px
    # collar: every pixel 4-adjacent to the component must be decided
    collar_ok = True
    if not touches:
        collar = _collar(grid.labels == lab)
        collar_ok = not bool((collar & (grid.classes == OrbitClass.UNDECIDED)).any())
    return {
        "label": lab,
        "pixels": summary["pixels"],
        "touches": touches,
        "diameter": float(math.hypot(width, height)),
        "collar_decided": collar_ok,
    }


def boundedness_probe(f, seed: complex, scales, resolution: int = 256, budget: int = 256,
                      r_esc: float = _ESCAPE_DEFAULT) -> ComponentReport:
    """Probe whether the component holding the seed stays bounded.

    Windows are centered on the seed, one per half-width in scales
    (probed in ascending order).  Verdicts:

    * unbounded-empirical: the component reaches the window edge at every
      scale and its diameter grows at least half-proportionally to the
      half-width;
    * bounded-empirical: at some scale the component stays strictly
      inside the window with every adjacent pixel decided;
    * inconclusive: anything else.

    Raises SeedUndecidedError when the seed pixel has no component at the
    smallest scale (undecided or pole-hit).
    """
    expr = as_expr(f)
    seed = complex(seed)
    hw_list = sorted(float(s) for s in scales)
    if not hw_list:
        raise ValueError("scales must be a nonempty list of half-widths")
    if any(not s > 0 for s in hw_list):
        raise ValueError("scales must be positive half-widths")
    row, col = _seed_pixel(int(resolution))
    observations = []
    base = None
    for hw in hw_list:
        grid = label_components(classify_grid(expr, (seed, hw), resolution, budget, r_esc))
        stats = _component_stats(grid, row, col)
        if stats is None:
            if hw == hw_list[0]:
                cls = OrbitClass(int(grid.classes[row, col]))
                raise SeedUndecidedError(
                    "seed pixel is %s at the smallest scale; no component to probe"
                    % _CLASS_NAMES[cls]
                )
            observations.append({"half_width": hw, "component": None})
            continue
        if base is None:
            base = (grid, stats)
        observations.append(
            {
                "half_width": hw,
                "pixels": stats["pixels"],
                "touches": stats["touches"],
                "diameter": stats["diameter"],
                "collar_decided": stats["collar_decided"],
            }
        )
    base_grid, base_stats = base
    seed_class = OrbitClass(int(base_grid.classes[row, col]))
    full = [o for o in observations if "touches" in o]
    bounded = any((not o["touches"]) and o["collar_decided"] for o in full)
    unbounded = False
    if len(full) == len(observations) and all(o["touches"] for o in full):
        first, last = full[0], full[-1]
        ratio_needed = 0.5 * last["half_width"] / first["half_width"]
        unbounded = last["diameter"] >= first["diameter"] * ratio_needed
    if bounded:
        verdict = "bounded-empirical"
    elif unbounded:
        verdict = "unbounded-empirical"
    else:
        verdict = "inconclusive"
    return ComponentReport(
        base_stats["label"],
        _CLASS_NAMES[seed_class],
        base_stats["pixels"],
        base_stats["touches"],
        verdict,
        tuple(hw_list),
        tuple(observations),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def to_ppm(grid: ClassifiedGrid) -> bytearray:
    """Render the class map as a binary PPM (P6) image.

    Fixed colormap: escaping pixels in grayscale scaled by step count,
    attracted pixels from an 8-color palette cycled by cycle id, pole
    hits in red, undecided in black.  The header and pixels share one
    buffer, coloured in bands of max(1, 2^16 // resolution) whole rows,
    so the masks and index arrays of the colouring are band-sized.
    """
    res = grid.resolution
    header = b"P6\n%d %d\n255\n" % (res, res)
    out = bytearray(len(header) + 3 * res * res)
    out[:len(header)] = header
    rgb = np.frombuffer(out, dtype=np.uint8, offset=len(header)).reshape(res, res, 3)
    palette = np.array(_PALETTE, dtype=np.uint8)
    rows = max(1, _TILE_PIXELS // res)
    for r in range(0, res, rows):
        band = slice(r, r + rows)
        classes, band_rgb = grid.classes[band], rgb[band]
        esc = classes == OrbitClass.ESCAPING
        shade = 40 + (215 * np.minimum(grid.steps[band][esc], grid.budget)) // max(grid.budget, 1)
        band_rgb[esc] = shade.astype(np.uint8)[:, None]
        att = classes == OrbitClass.ATTRACTED
        band_rgb[att] = palette[(grid.cycle_ids[band][att] - 1) % len(_PALETTE)]
        band_rgb[classes == OrbitClass.POLE_HIT] = np.array(_POLE_COLOR, dtype=np.uint8)
    return out
