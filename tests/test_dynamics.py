import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merolab import (
    OrbitClass,
    SeedUndecidedError,
    boundedness_probe,
    classify_grid,
    component_summaries,
    iterate_orbit,
    label_components,
    to_ppm,
)
from merolab import dynamics
from merolab.cli import main
from merolab.dynamics import _PALETTE, _POLE_COLOR, ClassifiedGrid, _component_stats
from merolab.expr import (
    POLE_FLAG, Add, Const, Func, MeroExpr, Mul, Var, as_expr, has_poles, poles, poles_in_disk,
)


def _blank_grid(classes, cycle_ids, steps=None, budget=8):
    res = classes.shape[0]
    if steps is None:
        steps = np.zeros((res, res), dtype=np.int32)
    return ClassifiedGrid(
        0j, 1.0, res, budget, 1e6,
        classes.astype(np.uint8), steps, cycle_ids.astype(np.int32), (),
    )


# ---------------------------------------------------------------------------
# single orbits
# ---------------------------------------------------------------------------


def test_orbit_attracted_to_origin(zsq):
    res = iterate_orbit(zsq, 0.5)
    assert res.orbit_class is OrbitClass.ATTRACTED
    # steps counts orbit steps: x_9 = 0.5^512 is the first iterate within
    # 1e-9 of its checkpoint, x_8
    assert res.steps == 9
    assert abs(res.final) < 1e-9
    assert res.cycle_id == 1
    assert res.pole_step == -1


def test_orbit_escaping(zsq):
    res = iterate_orbit(zsq, 2.0)
    assert res.orbit_class is OrbitClass.ESCAPING
    assert res.steps == 8
    assert abs(res.final) > 1e6
    assert res.cycle_id == 0


def test_orbit_pole_hit(tanz):
    res = iterate_orbit(tanz, math.pi / 2.0)
    assert res.orbit_class is OrbitClass.POLE_HIT
    assert res.steps == 0
    assert res.pole_step == 0
    assert res.final == pytest.approx(math.pi / 2.0)


def test_orbit_budget_exhaustion_is_undecided(zsq):
    res = iterate_orbit(zsq, 0.999, max_steps=3)
    assert res.orbit_class is OrbitClass.UNDECIDED
    assert res.steps == 6
    # a budget of 3 allows 6 orbit steps, and final is the last of them
    assert res.final == pytest.approx(0.999**64, rel=1e-12)


def test_orbit_attracting_two_cycle():
    # z -> z^2 - 1 has the superattracting cycle 0 -> -1 -> 0
    res = iterate_orbit("z^2 - 1", 0.01)
    assert res.orbit_class is OrbitClass.ATTRACTED
    # canonical representative is the cycle point of smallest modulus
    assert abs(res.final) < 1e-6


def test_orbit_escape_is_forward_invariant(zsq):
    for z0 in (2.0, 1.5 + 0.5j, -3.0j):
        first = iterate_orbit(zsq, z0)
        pushed = iterate_orbit(zsq, z0 * z0)
        assert first.orbit_class is OrbitClass.ESCAPING
        assert pushed.orbit_class is OrbitClass.ESCAPING
        assert pushed.steps <= first.steps


def test_orbit_lands_on_pole_after_one_step():
    # tan maps atan(pi/2) onto pi/2, where tan is beyond the landing threshold
    res = iterate_orbit("tan(z)", math.atan(math.pi / 2.0))
    assert res.orbit_class is OrbitClass.POLE_HIT
    assert res.steps == 1
    assert res.pole_step == 1
    assert res.final == pytest.approx(math.pi / 2.0)


def test_orbit_overflow_of_an_entire_map_escapes():
    # the sixth image of 1.9 + 0.3i under z^4 overflows to inf + nan*i;
    # z^4 has no poles, so that NaN is an escape, not a pole hit
    res = iterate_orbit("z^4", 1.9 + 0.3j)
    assert res.orbit_class is OrbitClass.ESCAPING
    assert res.steps == 6
    assert res.pole_step == -1


@pytest.mark.parametrize("f", ["z^4", "z^4 - 1.0*z", "z^3 + z", "z*exp(z)"])
def test_grid_of_an_entire_map_has_no_pole_hits(f):
    grid = classify_grid(f, (0j, 3.0), 32, 32)
    assert not (grid.classes == OrbitClass.POLE_HIT).any()
    if f == "z^4":
        # the basin of 0 is the unit disk, as for z^2; every other orbit escapes
        assert np.array_equal(grid.classes, classify_grid("z^2", (0j, 3.0), 32, 32).classes)


@pytest.mark.parametrize("f", [
    "z^2", "tan(z)", "z + 1 + exp(-z)", "(z^2 + 1)/(2*z)", "z^2 - 1", "z^2 - 1.3",
    "z^2 - 0.1226 + 0.7449*i", "z^4", "z^4 - 1.0*z", "z^3 + z", "z*exp(z)",
])
def test_pole_scouting_agrees_with_the_disk_of_radius_256(f):
    # on these maps the tree rule and the catalog agree: every pole lies
    # near the origin, and the pole-free ones are entire by construction
    expr = as_expr(f)
    assert has_poles(expr) == (len(poles_in_disk(expr, 256.0)) > 0)


def _decided_with_sweeps(monkeypatch, f):
    """has_poles of f, and the radii of the numeric sweeps run while deciding it."""
    radii = []
    numeric = poles._numeric_poles

    def recording(g, radius):
        radii.append(radius)
        return numeric(g, radius)

    monkeypatch.setattr(poles, "_numeric_poles", recording)
    poles._catalog_at.cache_clear()
    has_poles.cache_clear()
    return has_poles(as_expr(f)), radii


@pytest.mark.parametrize("f, found", [
    ("1/(exp(z)-2)", True), ("z + 1/(sin(z)-0.5)", True), ("1/exp(z)", False),
])
def test_pole_scouting_of_level_sets_sweeps_nothing(monkeypatch, f, found):
    assert _decided_with_sweeps(monkeypatch, f) == (found, [])


def _no_catalog(*args):
    raise AssertionError("a pole catalog was built")


@pytest.mark.parametrize("f, found", [
    ("z^2", False), ("tan(z)", True), ("z + 1 + exp(-z)", False), ("(z^2 + 1)/(2*z)", True),
    ("z^2 - 1", False), ("z^2 - 1.3", False), ("z^2 - 0.1226 + 0.7449*i", False), ("z^4", False),
    ("z^4 - 1.0*z", False), ("z^3 + z", False), ("z*exp(z)", False),
    ("1/(exp(z)+z)", True), ("z + 1/(cos(z)-z)", True),
    ("1/(exp(z)-2)", True), ("z + 1/(sin(z)-0.5)", True), ("1/exp(z)", False),
    # a root of the denominator's polynomial part that the numerator
    # cancels, and a level set without zeros (tan w = i has no solution)
    ("sin(z)/z", False), ("(exp(z)-1)/z", False), ("1/(tan(z)-i)", False),
    ("exp(1/exp(exp(z)))", False),
    # the pole-free corpus entries not listed above (expz, lacunary2, canprod4)
    ("exp(z)", False), ("lacunary(2)", False), ("canprod(4)", False),
    # not proven pole-free: the poles lie at +-1000i, beyond the disk of
    # radius 256, and exp(z) + z is no level set
    ("1/(z^2+1e6)", True), ("(exp(z)+z)/(exp(z)+z)", True),
    # a zero factor makes the denominator vanish everywhere
    ("1/(0*exp(z))", True),
])
def test_has_poles_decides_from_the_tree(monkeypatch, f, found):
    monkeypatch.setattr(poles, "_catalog_at", _no_catalog)
    has_poles.cache_clear()
    assert has_poles(f) is found
    if not found:
        # a pole-free tree gets its empty catalog from the same rule
        for radius in (0.5, 2.0, 1e6):
            catalog = poles_in_disk(f, radius)
            assert catalog.exact and catalog.entries == ()


@pytest.mark.parametrize("f", ["1/(exp(z)+z)", "1/(exp(z)+z+1e30)"])
def test_orbits_build_no_pole_catalog(monkeypatch, tmp_path, f):
    # every catalog, structural or numeric, is built in _catalog_at
    monkeypatch.setattr(poles, "_catalog_at", _no_catalog)
    monkeypatch.setattr(poles, "poles_in_disk", _no_catalog)
    has_poles.cache_clear()
    grid = classify_grid(f, (0j, 2.0), 16, 8)
    assert grid.classes.size == 256
    argv = ["render", "--function", f, "--window", "0,2", "--res", "16", "--budget", "8"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "render.ppm").exists()


def test_orbit_validation(zsq):
    with pytest.raises(ValueError):
        iterate_orbit(zsq, 1.0, max_steps=0)
    with pytest.raises(ValueError):
        iterate_orbit(zsq, 1.0, R_esc=1.0)


# ---------------------------------------------------------------------------
# grid classification
# ---------------------------------------------------------------------------


def test_grid_matches_unit_circle(zsq):
    grid = classify_grid(zsq, (0j, 2.0), 64, 256)
    centers = grid.pixel_centers()
    # no pixel center sits near the circle, so every verdict is forced
    assert np.abs(np.abs(centers) - 1.0).min() > 2e-3
    expected = np.where(np.abs(centers) > 1.0, OrbitClass.ESCAPING, OrbitClass.ATTRACTED)
    assert np.array_equal(grid.classes, expected.astype(np.uint8))
    inside = grid.classes == OrbitClass.ATTRACTED
    assert (grid.cycle_ids[inside] == 1).all()
    assert (grid.cycle_ids[~inside] == 0).all()
    assert len(grid.cycles) == 1 and abs(grid.cycles[0]) < 1e-6


def test_grid_is_deterministic(zsq):
    a = classify_grid(zsq, (0.1 + 0.2j, 1.5), 32, 64)
    b = classify_grid(zsq, (0.1 + 0.2j, 1.5), 32, 64)
    assert np.array_equal(a.classes, b.classes)
    assert np.array_equal(a.steps, b.steps)
    assert np.array_equal(a.cycle_ids, b.cycle_ids)


def test_grid_row_zero_is_top(zsq):
    grid = classify_grid(zsq, (0j, 2.0), 8, 16)
    centers = grid.pixel_centers()
    assert centers[0, 0].imag > centers[-1, 0].imag
    assert centers[0, 0].real < centers[0, -1].real


@pytest.mark.parametrize("window", [
    (0j, 1e308), (1.7e308, 8e307), (1e308j, 9e307), (-1.7e308, 1e308),
])
def test_grid_refuses_a_window_whose_pixels_are_not_finite(monkeypatch, window):
    # 2 * half_width overflows, or the pixel centres do: no orbit may run
    def no_orbits(*args):
        raise AssertionError("orbits ran")

    monkeypatch.setattr(dynamics, "_classify_tiles", no_orbits)
    with pytest.raises(ValueError, match="not finite"):
        classify_grid("z^2", window, 16, 8)


def test_grid_pole_hits_near_tangent_pole(tanz):
    grid = classify_grid(tanz, (math.pi / 2.0, 1e-11), 64, 8)
    hits = grid.classes == OrbitClass.POLE_HIT
    assert hits.any()
    labeled = label_components(grid)
    assert (labeled.labels[hits] == 0).all()


def test_grid_registers_cycles_found_in_one_batch():
    # Newton's map for z^2 - 1: both roots are first detected in the same
    # step, and the basins split along the imaginary axis
    grid = classify_grid("(z^2 + 1)/(2*z)", (0j, 2.0), 64, 64)
    assert (grid.classes == OrbitClass.ATTRACTED).all()
    assert len(grid.cycles) == 2
    assert abs(grid.cycles[0] + 1.0) < 1e-6 and abs(grid.cycles[1] - 1.0) < 1e-6
    left = grid.pixel_centers().real < 0.0
    assert (grid.cycle_ids[left] == 1).all()
    assert (grid.cycle_ids[~left] == 2).all()


@pytest.mark.parametrize("f, window, res, budget", [
    ("(z^2 + 1)/(2*z)", (0.3, 2.0), 10, 64),
    ("z + 1 + exp(-z)", (0j, 6.0), 12, 64),
    ("tan(z)", (0j, 3.0), 8, 32),
    ("tan(z)", (math.pi / 2.0, 1e-11), 7, 8),
    ("z^2 - 1", (0j, 2.0), 12, 64),
])
def test_grid_pixels_match_single_orbits(f, window, res, budget):
    grid = classify_grid(f, window, res, budget)
    for z0, cls, steps, cid in zip(grid.pixel_centers().ravel(), grid.classes.ravel(),
                                   grid.steps.ravel(), grid.cycle_ids.ravel()):
        orbit = iterate_orbit(f, z0, max_steps=budget)
        assert (orbit.orbit_class, orbit.steps) == (cls, steps), z0
        if cls == OrbitClass.ATTRACTED:
            assert abs(grid.cycles[cid - 1] - orbit.final) <= 1e-6


def _floyd_classify(f, pts, budget, r_esc=1e6):
    """The Floyd tortoise-and-hare loop that Brent's test replaced, kept as
    the reference: per loop the hare takes two orbit steps and the tortoise
    one, and a coincidence within 1e-9 marks a cycle.  Returns the classes,
    the steps in loop units for attracted orbits, the cycle ids and the
    cycle registry."""
    expr = as_expr(f)
    n = pts.size
    classes = np.zeros(n, dtype=np.uint8)
    steps = np.full(n, budget, dtype=np.int32)
    cycle_ids = np.zeros(n, dtype=np.int32)
    live = np.arange(n)
    tort = hare = np.asarray(pts, dtype=np.complex128)
    hmod = np.abs(hare)
    grow = np.zeros(n, dtype=np.int16)
    registry = []
    meromorphic = has_poles(expr)

    def decide(mask, cls, step_count, *extra):
        nonlocal live, tort, hare, hmod, grow
        idx = live[mask]
        if idx.size == 0:
            return extra
        classes[idx] = cls
        steps[idx] = step_count
        keep = ~mask
        live, tort, hare, hmod, grow = (a[keep] for a in (live, tort, hare, hmod, grow))
        return tuple(a[keep] for a in extra)

    def hare_substep(orbit_index):
        nonlocal hare, hmod, grow
        w, fl = dynamics.evaluate_many(expr, hare)
        m = np.abs(w)
        if meromorphic:
            pole = (fl == POLE_FLAG) | (m >= dynamics._POLE_LANDING)
            w, m, fl = decide(pole, OrbitClass.POLE_HIT, orbit_index, w, m, fl)
        # a map without poles flags only overflows, NaN from inf arithmetic too
        w, m = decide(fl != 0, OrbitClass.ESCAPING, orbit_index + 1, w, m)
        grew = (hmod > r_esc) & (m > hmod)
        grow = np.where(grew, grow + 1, 0).astype(np.int16)
        hare, hmod = w, m
        decide(grow >= dynamics._GROWTH_RUN, OrbitClass.ESCAPING, orbit_index + 1)

    for loop in range(1, budget + 1):
        if live.size == 0:
            break
        hare_substep(2 * loop - 2)
        hare_substep(2 * loop - 1)
        w, fl = dynamics.evaluate_many(expr, tort)
        pole = (fl == POLE_FLAG) & meromorphic
        w, fl = decide(pole, OrbitClass.POLE_HIT, loop - 1, w, fl)
        (tort,) = decide(fl != 0, OrbitClass.ESCAPING, loop, w)
        close = np.abs(hare - tort) <= 1e-9
        if close.any():
            ids, _ = dynamics._extract_cycles(expr, tort[close], registry)
            cycle_ids[live[close]] = ids
            ok = ids > 0
            decide(close, np.where(ok, OrbitClass.ATTRACTED, OrbitClass.UNDECIDED),
                   np.where(ok, loop, budget))
    return classes, steps, cycle_ids, registry


def _half_plane_entry(f, pts, budget):
    """The first orbit step, up to 2 budget, at which each orbit lands in the
    absorbing half-plane of f, found by plain iteration; 2 budget + 1 when
    it does not, or when f has no such half-plane.  An orbit whose image is
    flagged stops there."""
    entry = np.full(pts.size, 2 * budget + 1)
    plane = dynamics.absorbing_half_plane(f)
    if plane is None:
        return entry
    u, s = plane
    expr = as_expr(f)
    cur = pts
    alive = np.ones(pts.size, dtype=bool)
    for k in range(1, 2 * budget + 1):
        w, fl = dynamics.evaluate_many(expr, cur)
        alive &= fl == 0
        cur = np.where(alive, w, 0j)
        entry[alive & (entry > k) & (cur.real * u.real + cur.imag * u.imag > s)] = k
    return entry


@pytest.mark.parametrize("budget", [7, 37])
@pytest.mark.parametrize("f, window", [
    ("z + 1 + exp(-z)", (0j, 2.0)),
    ("tan(z)", (0j, 3.0)),
    ("z^2", (0j, 2.0)),
    ("(z^2 + 1)/(2*z)", (0j, 2.0)),
    ("z^2 - 0.1226 + 0.7449*i", (0j, 1.5)),
    ("z^2 - 1.3", (0j, 2.0)),
    ("z^4 - 1.0*z", (0j, 1.5)),
])
def test_grid_matches_floyd_reference(f, window, budget):
    grid = classify_grid(f, window, 24, budget)
    pts = grid.pixel_centers().reshape(-1)
    ref_classes, ref_steps, ref_ids, ref_cycles = _floyd_classify(f, pts, budget)
    classes = grid.classes.reshape(-1)
    steps = grid.steps.reshape(-1)
    # a pixel the certificate touches is one still live when its orbit
    # lands in the absorbing half-plane: it escapes there, no later than the
    # reference escapes, and the reference finds no pole on it.  The only
    # cycles the reference finds there are rounding fixed points far
    # beyond r_esc, where z + 1 rounds to z and exp(-z) underflows
    touched = _half_plane_entry(f, pts, budget) <= steps
    ref_escape = np.where(ref_classes == OrbitClass.ESCAPING, ref_steps, 2 * budget)
    assert (classes[touched] == OrbitClass.ESCAPING).all()
    assert (steps[touched] <= ref_escape[touched]).all()
    assert not (ref_classes[touched] == OrbitClass.POLE_HIT).any()
    spurious = np.array([0j, *ref_cycles])[ref_ids[touched & (ref_classes == OrbitClass.ATTRACTED)]]
    assert (np.abs(spurious) > 1e6).all()
    assert np.array_equal(dynamics.evaluate_many(as_expr(f), spurious)[0], spurious)
    # every other pixel: both loops walk the same orbit, so escapes and
    # pole hits agree exactly
    ref_cycles = [ref_cycles[i - 1] for i in np.unique(ref_ids[~touched]) if i]
    classes, steps = classes[~touched], steps[~touched]
    ref_classes, ref_steps = ref_classes[~touched], ref_steps[~touched]
    sure = np.isin(ref_classes, (OrbitClass.ESCAPING, OrbitClass.POLE_HIT))
    assert np.array_equal(np.isin(classes, (OrbitClass.ESCAPING, OrbitClass.POLE_HIT)), sure)
    assert np.array_equal(classes[sure], ref_classes[sure])
    assert np.array_equal(steps[sure], ref_steps[sure])
    # Brent may find a cycle that Floyd did not reach within the budget
    changed = classes != ref_classes
    assert (ref_classes[changed] == OrbitClass.UNDECIDED).all()
    assert (classes[changed] == OrbitClass.ATTRACTED).all()
    for rep in ref_cycles:
        assert min(abs(rep - c) for c in grid.cycles) <= 1e-6


def test_grid_evaluates_once_per_orbit_step(monkeypatch):
    points = []
    evaluate = dynamics.evaluate_many

    def counting(expr, z):
        points.append(np.size(z))
        return evaluate(expr, z)

    monkeypatch.setattr(dynamics, "evaluate_many", counting)
    grid = classify_grid("tan(z)", (0, 3), 16, 8)
    # no orbit is decided, so all 16^2 take the full 2 * 8 orbit steps
    assert (grid.classes == OrbitClass.UNDECIDED).all()
    assert sum(points) == 16 * 16 * 16
    # and each reports those steps in the same unit as a decided orbit
    assert (grid.steps == 16).all()


@pytest.mark.parametrize("f, window, res, budget", [
    ("(2*z^3 + 1)/(3*z^2)", (0j, 2.0), 48, 64),
    ("z^2 - 0.1226 + 0.7449*i", (0j, 1.5), 48, 64),
    ("z^2 - 1", (0j, 2.0), 48, 64),
    ("(z^2 + 1)/(2*z)", (0j, 2.0), 48, 64),
    ("z + 1 + exp(-z)", (0j, 2.0), 64, 64),
    # outside the absorbing half-plane family: spurious cycles far out,
    # first detected at many different steps
    ("z + 1 + exp(-z^2)", (0j, 2.0), 64, 64),
])
def test_grid_tiles_number_cycles_as_one_batch(monkeypatch, f, window, res, budget):
    whole = classify_grid(f, window, res, budget)
    # one row per tile: a cycle first found at an earlier step in a later
    # row must still take the smaller id
    monkeypatch.setattr(dynamics, "_TILE_PIXELS", 1)
    rows = classify_grid(f, window, res, budget)
    assert np.array_equal(rows.classes, whole.classes)
    assert np.array_equal(rows.steps, whole.steps)
    assert np.array_equal(rows.cycle_ids, whole.cycle_ids)
    assert rows.cycles == whole.cycles


def test_grid_memory_is_bounded_by_the_tile():
    # 9 bytes per pixel (9 MiB at 1024^2) plus one tile's loop state; one
    # batch of the whole grid traced 144 MiB here
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        classify_grid("z^2", (0j, 2.0), 1024, 64)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_grid_validation(zsq):
    with pytest.raises(ValueError):
        classify_grid(zsq, (0j, 2.0), 0, 16)
    with pytest.raises(ValueError):
        classify_grid(zsq, (0j, 2.0), 100000, 16)
    with pytest.raises(ValueError):
        classify_grid(zsq, (0j, 2.0), 16, 0)
    with pytest.raises(ValueError):
        classify_grid(zsq, (0j, -1.0), 16, 16)


# ---------------------------------------------------------------------------
# absorbing half-planes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("f, direction", [
    ("z + 1 + exp(-z)", 1), ("z - 1 + exp(z)", -1), ("z + i + exp(i*z)", 1j),
    ("exp(-z) + z + 1", 1), ("-(-z - 1 - exp(-z))", 1), ("fatou(z)", 1),
])
def test_half_plane_of_one_exp_term(f, direction):
    # |a| = 1, d = 0 and beta = 1: e^(-s) = 3/4 at the smallest s
    u, s = dynamics.absorbing_half_plane(f)
    assert u == direction
    assert s == pytest.approx(math.log(4.0 / 3.0), rel=1e-15)


def test_half_plane_of_several_terms():
    # each of the n terms is held to 3|c|/(4n): (Re d + log|a| + log(4n/3)
    # - log|c|) / beta, the largest over the terms
    u, s = dynamics.absorbing_half_plane("z + 2 - 3*exp(-2*z + 1)/2 + exp(-z - i)")
    assert u == 1
    assert s == pytest.approx((1.0 + math.log(1.5) + math.log(8.0 / 3.0) - math.log(2.0)) / 2.0)
    # alpha = -(1 - i) points against conj(u) = (1 - i)/sqrt(2): beta = sqrt(2)
    u, s = dynamics.absorbing_half_plane("z + (1 + i) + exp(-(1 - i)*z)")
    assert u == pytest.approx((1 + 1j) / math.sqrt(2.0), rel=1e-15)
    assert s == pytest.approx((math.log(4.0 / 3.0) - math.log(math.sqrt(2.0))) / math.sqrt(2.0))


@pytest.mark.parametrize("f", [
    "z + 1 + exp(-z^2)",       # exponent not linear
    "z + 1 + z*exp(-z)",       # factor not constant
    "2*z + 1 + exp(-z)",       # z-coefficient not 1
    "z + exp(-z)",             # c = 0
    "z + 1 + exp(z)",          # beta = -1
    "z + 1 + exp(i*z)",        # beta = -i, not real
    "z + (1 + i) + exp(-z)",   # beta = (1 - i)/sqrt(2), not real
    "z + 1",                   # no exponential term
    "z + 1 + 0*exp(-z)",
    "z + 1 + exp(-z)/0",
    "z + 1 + exp(-z) + sin(z)",
    "z + 1 + exp(-z) + z^2",
    # non-finite constants leave no usable threshold
    "z + 1e400 + exp(-z)", "z + 1 + 1e400*exp(-z)", "z + 1 + exp(-1e400*z)",
    "z + 1 + exp(-z + (1e400 - 1e400))",
    "exp(-z^2)", "z*exp(-z)", "z^2", "tan(z)", "1/z",
])
def test_half_plane_outside_the_family(f):
    assert dynamics.absorbing_half_plane(f) is None


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(-8, 8), q=st.integers(1, 8), flip=st.booleans(), scale=st.integers(-2, 2),
    terms=st.lists(st.tuples(st.integers(1, 16), st.integers(0, 4), st.floats(0.01, 10.0),
                             st.floats(-4.0, 4.0), st.floats(-2.0, 2.0), st.floats(-4.0, 4.0)),
                   min_size=1, max_size=3),
    depth=st.floats(1e-6, 20.0), height=st.floats(-50.0, 50.0),
)
def test_half_plane_is_absorbing(p, q, flip, scale, terms, depth, height):
    # c = (p + q i) 2^scale is off the real axis, and alpha = -m 2^-e (p - q i)
    # is exactly anti-parallel to conj(c): beta = m 2^-e |p + q i| > 0
    q = -q if flip else q
    c = complex(p, q) * 2.0**scale
    root = Add(Var(), Const(c))
    for m, e, size, angle, dr, di in terms:
        alpha = -m * 2.0**-e * complex(p, -q)
        arg = Add(Mul(Const(alpha), Var()), Const(complex(dr, di)))
        root = Add(root, Mul(Const(complex(size * np.exp(1j * angle))), Func("exp", arg)))
    f = MeroExpr(root)
    u, s = dynamics.absorbing_half_plane(f)
    assert u == pytest.approx(c / abs(c), rel=1e-15)
    # a point of H_s maps into H_{s + |c|/4}
    z = u * complex(s + depth, height)
    w, flag = dynamics.evaluate_many(f, np.array([z]))
    assert flag[0] == 0
    assert (w[0] * u.conjugate()).real > s + abs(c) / 4.0


def test_fatou_grid_is_decided_and_cycle_free():
    grid = classify_grid("z + 1 + exp(-z)", (0j, 2.0), 256, 256)
    assert (grid.classes == OrbitClass.ESCAPING).all()
    assert grid.cycles == ()
    # the rest overflow: exp(-z) for Re z far below 0
    assert grid.certified_pixels == 64972


@pytest.mark.parametrize("f", ["z^2", "tan(z)", "z + 1 + exp(-z^2)"])
def test_maps_outside_the_family_certify_nothing(f):
    assert classify_grid(f, (0j, 2.0), 16, 16).certified_pixels == 0


def test_rounding_fixed_points_escape():
    # far out z + 1 rounds to z and exp(-z^2) underflows, so f(c) == c in
    # floats; the 564 pixels whose orbits reach such a point escape at the
    # coincidence step instead of reading as attracted to it
    grid = classify_grid("z + 1 + exp(-z^2)", (0j, 2.0), 64, 64)
    assert grid.cycles == ()
    assert not grid.cycle_ids.any()
    assert (grid.classes == OrbitClass.ESCAPING).sum() == 2908
    assert (grid.classes == OrbitClass.UNDECIDED).sum() == 1188


# ---------------------------------------------------------------------------
# component labeling
# ---------------------------------------------------------------------------


def _bfs_labels(classes, cycle_ids):
    res = classes.shape[0]
    keys = {}
    for r in range(res):
        for c in range(res):
            cls = int(classes[r, c])
            if cls == OrbitClass.ESCAPING:
                keys[(r, c)] = ("esc",)
            elif cls == OrbitClass.ATTRACTED:
                keys[(r, c)] = ("att", int(cycle_ids[r, c]))
    labels = np.zeros((res, res), dtype=np.int32)
    nxt = 1
    for r in range(res):
        for c in range(res):
            if (r, c) not in keys or labels[r, c] != 0:
                continue
            want = keys[(r, c)]
            queue = deque([(r, c)])
            labels[r, c] = nxt
            while queue:
                i, j = queue.popleft()
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < res and 0 <= nj < res and labels[ni, nj] == 0 \
                            and keys.get((ni, nj)) == want:
                        labels[ni, nj] = nxt
                        queue.append((ni, nj))
            nxt += 1
    return labels


def test_labels_match_bfs_on_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(100):
        classes = rng.integers(0, 4, size=(64, 64))
        cyc = np.where(classes == OrbitClass.ATTRACTED, rng.integers(1, 3, size=(64, 64)), 0)
        grid = _blank_grid(classes, cyc)
        labeled = label_components(grid)
        assert np.array_equal(labeled.labels, _bfs_labels(classes, cyc))


def test_labels_are_raster_ordered():
    rng = np.random.default_rng(11)
    classes = rng.integers(0, 4, size=(32, 32))
    cyc = np.where(classes == OrbitClass.ATTRACTED, 1, 0)
    labeled = label_components(_blank_grid(classes, cyc))
    flat = labeled.labels.reshape(-1)
    seen = []
    for lab in flat:
        if lab != 0 and lab not in seen:
            seen.append(int(lab))
    assert seen == list(range(1, len(seen) + 1))


def test_labels_checkerboard():
    res = 8
    rows, cols = np.indices((res, res))
    classes = np.where((rows + cols) % 2 == 0, OrbitClass.ESCAPING, OrbitClass.UNDECIDED)
    labeled = label_components(_blank_grid(classes, np.zeros((res, res))))
    # isolated pixels: one label each, counted in raster order
    assert labeled.labels.max() == res * res // 2
    assert labeled.labels[0, 0] == 1
    assert labeled.labels[0, 2] == 2
    assert labeled.labels[1, 1] == res // 2 + 1


def test_cycle_id_separates_attracted_components():
    classes = np.full((4, 4), int(OrbitClass.ATTRACTED))
    cyc = np.ones((4, 4), dtype=np.int64)
    cyc[:, 2:] = 2
    labeled = label_components(_blank_grid(classes, cyc))
    assert labeled.labels[0, 0] == 1
    assert labeled.labels[0, 3] == 2
    assert len(np.unique(labeled.labels)) == 2


def test_labels_match_bfs_with_many_cycle_ids():
    rng = np.random.default_rng(13)
    res = 64
    for _ in range(10):
        # 4x4 blocks of 256 cycle ids, with scattered barrier and escaping pixels
        blocks = rng.permutation(256).reshape(16, 16) + 1
        cyc = np.kron(blocks, np.ones((4, 4), dtype=np.int64))
        classes = rng.choice([0, 1, 2, 2, 2, 2, 3], size=(res, res))
        cyc = np.where(classes == OrbitClass.ATTRACTED, cyc, 0)
        assert np.unique(cyc[cyc > 0]).size >= 150
        labeled = label_components(_blank_grid(classes, cyc))
        assert np.array_equal(labeled.labels, _bfs_labels(classes, cyc))


def test_labels_match_bfs_on_tiny_grids():
    for cls in OrbitClass:
        classes = np.full((1, 1), int(cls))
        cyc = np.where(classes == OrbitClass.ATTRACTED, 1, 0)
        labeled = label_components(_blank_grid(classes, cyc))
        assert labeled.labels.dtype == np.int32
        assert np.array_equal(labeled.labels, _bfs_labels(classes, cyc))
    # every class pattern of a 2x2 grid, attracted pixels on two cycles
    cycle_pattern = np.array([[1, 2], [2, 2]])
    for code in range(4 ** 4):
        classes = np.array([(code >> (2 * k)) & 3 for k in range(4)]).reshape(2, 2)
        cyc = np.where(classes == OrbitClass.ATTRACTED, cycle_pattern, 0)
        labeled = label_components(_blank_grid(classes, cyc))
        assert np.array_equal(labeled.labels, _bfs_labels(classes, cyc))


def _serpentine(res):
    # one corridor along the even rows, joined at alternate ends
    corridor = np.zeros((res, res), dtype=bool)
    corridor[::2] = True
    corridor[1::4, -1] = True
    corridor[3::4, 0] = True
    return corridor


def _spiral(res):
    # a corridor winding inward two pixels at a time, walls one pixel thick
    corridor = np.zeros((res, res), dtype=bool)
    row, col, (dr, dc) = 0, 0, (0, 1)
    corridor[0, 0] = True
    for _ in range(res * res):
        for _turn in range(2):
            nr, nc = row + 2 * dr, col + 2 * dc
            if 0 <= nr < res and 0 <= nc < res and not corridor[nr, nc]:
                corridor[row + dr, col + dc] = corridor[nr, nc] = True
                row, col = nr, nc
                break
            dr, dc = dc, -dr
        else:
            return corridor
    raise AssertionError("the spiral did not close")


@pytest.mark.parametrize("shape", [_serpentine, _spiral])
@pytest.mark.parametrize("res", [63, 64])
@pytest.mark.parametrize("transpose", [False, True])
def test_labels_match_bfs_on_winding_corridors(shape, res, transpose):
    # long one-pixel paths, the deepest trees for hooking and pointer
    # jumping; the walls are attracted pixels, so both classes wind
    corridor = shape(res).T if transpose else shape(res)
    classes = np.where(corridor, OrbitClass.ESCAPING, OrbitClass.ATTRACTED)
    cyc = np.where(corridor, 0, 1)
    labels = label_components(_blank_grid(classes, cyc)).labels
    assert np.array_equal(labels, _bfs_labels(classes, cyc))
    assert np.unique(labels[corridor]).size == 1


def _random_labeled_grids(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        res = int(rng.integers(1, 40))
        block = int(rng.integers(1, 6))
        coarse = rng.integers(0, 4, size=(res // block + 1,) * 2)
        classes = np.kron(coarse, np.ones((block, block), dtype=np.int64))[:res, :res]
        cyc = np.where(classes == OrbitClass.ATTRACTED, rng.integers(1, 4, size=(res, res)), 0)
        yield label_components(_blank_grid(classes, cyc))


def test_component_boxes_match_find_objects():
    ndimage = pytest.importorskip("scipy.ndimage")
    for grid in _random_labeled_grids(19, 60):
        assert dynamics._component_table(grid)[1] == ndimage.find_objects(grid.labels)


def test_collar_matches_binary_dilation():
    ndimage = pytest.importorskip("scipy.ndimage")
    for grid in _random_labeled_grids(23, 30):
        for lab in range(1, int(grid.labels.max(initial=0)) + 1):
            mask = grid.labels == lab
            expected = ndimage.binary_dilation(mask) & ~mask
            assert np.array_equal(dynamics._collar(mask), expected)


def _brute_force_components(grid):
    # one full-grid mask per label, as a reference for the one-pass table
    res = grid.resolution
    px = 2.0 * grid.half_width / res
    out = []
    for lab in range(1, int(grid.labels.max(initial=0)) + 1):
        rows, cols = np.nonzero(grid.labels == lab)
        touches = bool((rows == 0).any() or (cols == 0).any()
                       or (rows == res - 1).any() or (cols == res - 1).any())
        diameter = math.hypot((cols.max() - cols.min() + 1) * px, (rows.max() - rows.min() + 1) * px)
        cls = OrbitClass(int(grid.classes[rows[0], cols[0]]))
        out.append((lab, cls, rows.size, touches, diameter, (rows[0], cols[0])))
    return out


def test_component_table_matches_brute_force():
    names = {OrbitClass.ESCAPING: "escaping", OrbitClass.ATTRACTED: "attracted"}
    for grid in _random_labeled_grids(17, 40):
        reference = _brute_force_components(grid)
        summaries = component_summaries(grid)
        assert len(summaries) == len(reference)
        for summary, (lab, cls, pixels, touches, diameter, (row, col)) in zip(summaries, reference):
            assert summary == {
                "id": lab, "class": names[cls], "pixels": pixels, "touches_boundary": touches,
            }
            stats = _component_stats(grid, row, col)
            assert (stats["label"], stats["pixels"], stats["touches"]) == (lab, pixels, touches)
            assert stats["diameter"] == diameter


def test_component_summaries(zsq):
    labeled = label_components(classify_grid(zsq, (0j, 2.0), 64, 256))
    summaries = component_summaries(labeled)
    by_class = {s["class"]: s for s in summaries}
    assert by_class["escaping"]["touches_boundary"] is True
    assert by_class["attracted"]["touches_boundary"] is False
    total = sum(s["pixels"] for s in summaries)
    assert total == 64 * 64  # every pixel decided for this window
    with pytest.raises(ValueError):
        component_summaries(classify_grid(zsq, (0j, 2.0), 8, 16))


# ---------------------------------------------------------------------------
# boundedness probe
# ---------------------------------------------------------------------------


def test_probe_basin_of_origin_is_bounded(zsq):
    report = boundedness_probe(zsq, 0.5, [2.0, 4.0, 8.0], resolution=64, budget=256)
    assert report.verdict == "bounded-empirical"
    assert report.orbit_class == "attracted"
    assert report.scales == (2.0, 4.0, 8.0)
    assert not report.touches_boundary
    assert len(report.observations) == 3
    assert report.as_dict()["verdict"] == "bounded-empirical"


def test_probe_escaping_region_is_unbounded(zsq):
    report = boundedness_probe(zsq, 3.0, [4.0, 8.0, 16.0], resolution=64, budget=256)
    assert report.verdict == "unbounded-empirical"
    assert report.orbit_class == "escaping"
    assert all(o["touches"] for o in report.observations)


def test_probe_drifting_orbit_unbounded(fatou):
    report = boundedness_probe(
        fatou, 5.0, [4.0, 8.0, 16.0], resolution=64, budget=256, r_esc=50.0
    )
    assert report.verdict == "unbounded-empirical"
    assert report.orbit_class == "escaping"


def test_probe_undecided_seed_raises(zsq):
    with pytest.raises(SeedUndecidedError):
        boundedness_probe(zsq, 0.99, [1.0], resolution=9, budget=2)


def test_probe_scale_validation(zsq):
    with pytest.raises(ValueError):
        boundedness_probe(zsq, 0.5, [])
    with pytest.raises(ValueError):
        boundedness_probe(zsq, 0.5, [0.0, 2.0])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_ppm_bytes_exact():
    classes = np.array(
        [[OrbitClass.ESCAPING, OrbitClass.ATTRACTED],
         [OrbitClass.POLE_HIT, OrbitClass.UNDECIDED]]
    )
    steps = np.array([[3, 0], [0, 0]], dtype=np.int32)
    cyc = np.array([[0, 2], [0, 0]])
    grid = _blank_grid(classes, cyc, steps=steps, budget=10)
    shade = 40 + (215 * 3) // 10
    expected = b"P6\n2 2\n255\n" + bytes(
        [shade, shade, shade, *_PALETTE[1], *_POLE_COLOR, 0, 0, 0]
    )
    assert to_ppm(grid) == expected


def test_ppm_renders_pole_pixels(tanz):
    grid = classify_grid(tanz, (math.pi / 2.0, 1e-11), 64, 8)
    data = to_ppm(grid)
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == len(b"P6\n64 64\n255\n") + 3 * 64 * 64
    assert bytes(_POLE_COLOR) in data


def _masked_ppm(grid):
    # whole-grid boolean-mask colouring, the reference for the banded one
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


@pytest.mark.parametrize("res", [300, 320])
def test_ppm_bands_are_seamless(res):
    # more than one band, the last one partial; all four classes, 20 cycle
    # ids (the palette has 8) and step counts up to three budgets
    assert res > max(1, dynamics._TILE_PIXELS // res)
    rng = np.random.default_rng(res)
    classes = rng.integers(0, 4, size=(res, res))
    cyc = np.where(classes == OrbitClass.ATTRACTED, rng.integers(1, 21, size=(res, res)), 0)
    steps = rng.integers(0, 3 * 16, size=(res, res)).astype(np.int32)
    grid = _blank_grid(classes, cyc, steps=steps, budget=16)
    assert set(np.unique(grid.classes)) == set(OrbitClass)
    assert to_ppm(grid) == _masked_ppm(grid)


def test_labelling_and_output_memory_is_bounded():
    # beyond their results, the labelling, the image and the tables hold
    # run- or band-sized temporaries: about 9 bytes per pixel at most,
    # against 38 for whole-grid keys, roots, raster indices and ranks
    res = 512
    grid = classify_grid("z^2", (0j, 2.0), res, 64)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    peaks = {}
    try:
        for name, call in [("label_components", label_components), ("to_ppm", to_ppm),
                           ("component_summaries", component_summaries),
                           ("class_counts", dynamics.class_counts)]:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = call(grid)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
            if name == "label_components":
                grid = out
            del out
    finally:
        if not tracing:
            tracemalloc.stop()
    assert all(peak <= 16 * res * res for peak in peaks.values()), peaks


def test_ppm_shade_clamps_at_budget():
    classes = np.full((1, 1), int(OrbitClass.ESCAPING))
    steps = np.full((1, 1), 99, dtype=np.int32)
    grid = _blank_grid(classes, np.zeros((1, 1)), steps=steps, budget=10)
    body = to_ppm(grid)[len(b"P6\n1 1\n255\n"):]
    assert body == bytes([255, 255, 255])
