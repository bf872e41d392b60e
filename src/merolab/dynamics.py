"""Pixel-grid orbit classification and empirical boundedness probes.

Orbits are classified into escaping, attracted (to a finite cycle),
pole-hit, or undecided.  Cycle detection runs Brent's power-of-two test
on the iteration: one saved point per orbit and one map evaluation per
step, so the same code path serves single points and full pixel grids.
Components of the stable set are approximated by 4-connected patches of
decided pixels of the same class: the connected components of the graph
whose edges join 4-neighbours of equal class key.  Undecided and
pole-hit pixels have no key and act as barriers, which may oversegment
but never merges across possible Julia points.

Boundedness of a component is probed, not proved: windows are recentered
on a seed and rescaled, and the verdict reports whether the component
keeps reaching the window edge as the window grows.  The scale list
travels with the verdict so its epistemic status stays auditable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import IntEnum
from functools import lru_cache

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .expr import OVERFLOW_FLAG, POLE_FLAG, as_expr, evaluate_many, poles_in_disk

_ESCAPE_DEFAULT = 1e6
_POLE_LANDING = 1e12      # |f(z)| beyond this, for a map with poles, counts
                          # as landing within pole tolerance of some pole
_CYCLE_TOL = 1e-9
_CYCLE_MATCH_TOL = 1e-6
_PERIOD_CAP = 32
_MAX_RESOLUTION = 8192
_POLE_SCOUT_RADIUS = 256.0
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
    mapped onto the pole for pole hits.  steps is the orbit step s at
    which escape or a cycle was detected (x_s the s-th iterate), and the
    budget for undecided orbits.  cycle_id is 0 unless attracted.
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


@lru_cache(maxsize=256)
def _has_poles(expr) -> bool:
    return bool(poles_in_disk(expr, _POLE_SCOUT_RADIUS).entries)


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


def _classify_points(expr, pts: np.ndarray, budget: int, r_esc: float):
    if not r_esc >= 10.0:
        raise ValueError("escape radius must be at least 10")
    n = pts.size
    classes = np.zeros(n, dtype=np.uint8)
    steps = np.full(n, budget, dtype=np.int32)
    cyc = np.zeros(n, dtype=np.int32)
    final = np.empty(n, dtype=np.complex128)
    # Loop state holds only the undecided orbits, row k being pixel live[k]:
    # most pixels settle early, and gathering from and scattering into
    # whole-grid arrays at every step costs more than evaluating the map.
    # Boolean filtering keeps live ascending, so cycles register in pixel
    # order.
    live = np.arange(n)
    saved = cur = np.asarray(pts, dtype=np.complex128)
    cmod = np.abs(cur)
    grow = np.zeros(n, dtype=np.int16)
    registry: list[complex] = []
    meromorphic = _has_poles(expr)

    def decide(mask, cls, step_count, values, *extra):
        # records the orbits under mask, whose final values are given, and
        # drops them from the loop state; returns extra filtered alike
        nonlocal live, saved, cur, cmod, grow
        idx = live[mask]
        if idx.size == 0:
            return extra
        classes[idx] = cls
        steps[idx] = step_count
        final[idx] = values
        keep = ~mask
        live, saved, cur, cmod, grow = (a[keep] for a in (live, saved, cur, cmod, grow))
        return tuple(a[keep] for a in extra)

    # Brent's test compares x_s with x_p, p = 0 or the largest power of 2 below s
    for s in range(1, 2 * budget + 1):
        if live.size == 0:
            break
        w, fl = evaluate_many(expr, cur)
        m = np.abs(w)
        pole = fl == POLE_FLAG
        if meromorphic:
            pole = pole | (m >= _POLE_LANDING)
        w, m, fl = decide(pole, OrbitClass.POLE_HIT, s - 1, cur[pole], w, m, fl)
        over = fl == OVERFLOW_FLAG
        w, m = decide(over, OrbitClass.ESCAPING, s, cur[over], w, m)
        grew = (cmod > r_esc) & (m > cmod)
        grow = np.where(grew, grow + 1, 0).astype(np.int16)
        cur, cmod = w, m
        esc = grow >= _GROWTH_RUN
        decide(esc, OrbitClass.ESCAPING, s, cur[esc])
        close = np.abs(cur - saved) <= _CYCLE_TOL
        if close.any():
            ids, reps = _extract_cycles(expr, cur[close], registry)
            cyc[live[close]] = ids
            ok = ids > 0
            decide(close, np.where(ok, OrbitClass.ATTRACTED, OrbitClass.UNDECIDED),
                   np.where(ok, s, budget), reps)
        if s & (s - 1) == 0:
            saved = cur

    final[live] = cur
    return classes, steps, cyc, final, tuple(registry)


def iterate_orbit(f, z0: complex, max_steps: int = 1000, R_esc: float = _ESCAPE_DEFAULT) -> OrbitResult:
    """Classify the orbit of a single starting point.

    Escape requires the modulus to sit beyond R_esc and grow on three
    consecutive steps (or to overflow outright); cycles are detected by
    Brent's power-of-two test with tolerance 1e-9; 2·max_steps orbit
    steps without a verdict yield undecided.  Failures never raise, they
    absorb into undecided.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    expr = as_expr(f)
    classes, steps, cyc, final, _ = _classify_points(
        expr, np.array([z0], dtype=np.complex128), max_steps, float(R_esc)
    )
    cls = OrbitClass(int(classes[0]))
    step_count = int(steps[0])
    pole_step = step_count if cls is OrbitClass.POLE_HIT else -1
    return OrbitResult(cls, step_count, complex(final[0]), int(cyc[0]), pole_step)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _pixel_centers(center: complex, half_width: float, resolution: int) -> np.ndarray:
    frac = (np.arange(resolution) + 0.5) / resolution
    xs = center.real - half_width + 2.0 * half_width * frac
    ys = center.imag + half_width - 2.0 * half_width * frac
    return xs[None, :] + 1j * ys[:, None]


def classify_grid(f, window, resolution: int, budget: int, r_esc: float = _ESCAPE_DEFAULT) -> ClassifiedGrid:
    """Classify every pixel-center orbit in a square window.

    window is (center, half_width); row 0 is the top of the window and
    pixels are sampled at their centers; orbits take 2·budget steps.  The
    output is a pure function of (f, window, resolution, budget, r_esc).
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
    pts = _pixel_centers(center, half_width, resolution).reshape(-1)
    classes, steps, cyc, _, registry = _classify_points(expr, pts, int(budget), float(r_esc))
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
    )


def _component_keys(grid: ClassifiedGrid) -> np.ndarray:
    # one key per labelable class; 0 marks barrier pixels (undecided and
    # pole-hit alike, the latter being Julia-adjacent)
    classes = grid.classes.reshape(-1)
    cyc = grid.cycle_ids.reshape(-1).astype(np.int64)
    keys = np.zeros(classes.size, dtype=np.int64)
    keys[classes == OrbitClass.ESCAPING] = 1
    attracted = classes == OrbitClass.ATTRACTED
    keys[attracted] = 2 + cyc[attracted] * 4
    return keys


def label_components(grid: ClassifiedGrid) -> ClassifiedGrid:
    """Connected components of the equal-key 4-neighbour graph.

    Pixels are nodes; an edge joins 4-neighbours with the same class key.
    Escaping pixels form one class; attracted pixels split by cycle id.
    Undecided and pole-hit pixels have no key, stay at label 0 and
    separate components.  Label ids count up in raster order of each
    component's first pixel.
    """
    res = grid.resolution
    keys = _component_keys(grid).reshape(res, res)
    # int32 indices suffice: res^2 <= 8192^2 < 2^31
    index = np.arange(res * res, dtype=np.int32).reshape(res, res)
    decided = keys != 0
    across = (keys[:, 1:] == keys[:, :-1]) & decided[:, 1:]
    down = (keys[1:, :] == keys[:-1, :]) & decided[1:, :]
    tail = np.concatenate([index[:, :-1][across], index[:-1, :][down]])
    head = np.concatenate([index[:, 1:][across], index[1:, :][down]])
    edges = coo_matrix((np.ones(tail.size, dtype=np.int8), (tail, head)), shape=(res * res,) * 2)
    _, comp = connected_components(edges, directed=False)
    # a barrier pixel is a component of its own and keeps label 0
    roots, first = np.unique(comp[decided.reshape(-1)], return_index=True)
    renumber = np.zeros(comp.max() + 1, dtype=np.int32)
    renumber[roots[np.argsort(first)]] = np.arange(1, roots.size + 1, dtype=np.int32)
    return replace(grid, labels=renumber[comp].reshape(res, res))


def _component_table(grid: ClassifiedGrid) -> tuple[list, list]:
    """JSON-ready summary and bounding box of every component, by label - 1.

    A component's pixels share one class, read at its first pixel; it
    touches the boundary when its box reaches row or column 0 or res.
    """
    if grid.labels is None:
        raise ValueError("grid has no labels; run label_components first")
    res = grid.resolution
    flat = grid.labels.reshape(-1)
    pixels = np.bincount(flat)
    present, first = np.unique(flat, return_index=True)
    classes = np.zeros(pixels.size, dtype=np.uint8)
    classes[present] = grid.classes.reshape(-1)[first]
    boxes = ndimage.find_objects(grid.labels)
    summaries = [
        {
            "id": lab,
            "class": _CLASS_NAMES[OrbitClass(int(classes[lab]))],
            "pixels": int(pixels[lab]),
            "touches_boundary": 0 in (rows.start, cols.start) or res in (rows.stop, cols.stop),
        }
        for lab, (rows, cols) in enumerate(boxes, start=1)
    ]
    return summaries, boxes


def component_summaries(grid: ClassifiedGrid) -> list:
    """Per-component JSON-ready summaries of a labeled grid."""
    return _component_table(grid)[0]


def class_counts(grid: ClassifiedGrid) -> dict:
    """Pixel count of each orbit class, keyed by class name."""
    counts = np.bincount(grid.classes.reshape(-1), minlength=len(OrbitClass))
    return {_CLASS_NAMES[cls]: int(counts[cls]) for cls in OrbitClass}


# ---------------------------------------------------------------------------
# boundedness probe
# ---------------------------------------------------------------------------


def _seed_pixel(resolution: int) -> tuple[int, int]:
    # windows are recentered on the seed, so the seed pixel is the center one
    return resolution // 2, resolution // 2


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
        mask = grid.labels == lab
        # the default structuring element is the 4-neighbour cross
        collar = ndimage.binary_dilation(mask) & ~mask
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


def to_ppm(grid: ClassifiedGrid) -> bytes:
    """Render the class map as a binary PPM (P6) image.

    Fixed colormap: escaping pixels in grayscale scaled by step count,
    attracted pixels from an 8-color palette cycled by cycle id, pole
    hits in red, undecided in black.
    """
    res = grid.resolution
    rgb = np.zeros((res, res, 3), dtype=np.uint8)
    esc = grid.classes == OrbitClass.ESCAPING
    if esc.any():
        shade = 40 + (215 * np.minimum(grid.steps[esc], grid.budget)) // max(grid.budget, 1)
        rgb[esc] = shade.astype(np.uint8)[:, None]
    att = grid.classes == OrbitClass.ATTRACTED
    if att.any():
        idx = (grid.cycle_ids[att] - 1) % len(_PALETTE)
        palette = np.array(_PALETTE, dtype=np.uint8)
        rgb[att] = palette[idx]
    rgb[grid.classes == OrbitClass.POLE_HIT] = np.array(_POLE_COLOR, dtype=np.uint8)
    header = b"P6\n%d %d\n255\n" % (res, res)
    return header + rgb.tobytes()
