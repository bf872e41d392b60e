import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from merolab import parse
from merolab.cli import main
from merolab.expr import (
    BoundarySingularityError,
    UnresolvedRegionError,
    UnsupportedExpressionError,
    WindingConvergenceError,
    has_poles,
    log_polar,
    poles_in_disk,
    winding_count,
)
from merolab.expr import poles


def test_winding_counts_zeros_minus_poles():
    assert winding_count(parse("z^2"), (-1, 1, -1, 1)) == 2
    assert winding_count(parse("1/z"), (-1, 1, -1, 1)) == -1
    assert winding_count(parse("exp(z)"), (-1, 1, -1, 1)) == 0
    # two zeros, one pole inside the box
    f = parse("(z-0.2)*(z+0.3)/(z-0.1)")
    assert winding_count(f, (-1, 1, -1, 1)) == 1


def test_winding_rejects_boundary_singularity():
    # the pole sits on the left edge; depending on whether a sample lands
    # on it, either diagnostic is correct
    with pytest.raises((BoundarySingularityError, WindingConvergenceError)):
        winding_count(parse("1/z"), (0, 1, -1, 1))


def test_rational_pole_catalog():
    cat = poles_in_disk(parse("1/(z*(z-1)*(z-2))"), 5.0)
    locs = sorted((abs(b), m) for b, m in cat.entries)
    assert [(round(a, 9), m) for a, m in locs] == [(0.0, 1), (1.0, 1), (2.0, 1)]
    cat = poles_in_disk(parse("1/(z*(z-1)*(z-2))"), 1.5)
    assert len(cat.entries) == 2


def test_double_pole_multiplicity():
    cat = poles_in_disk(parse("1/(z^2*(z-1))"), 0.5)
    assert len(cat.entries) == 1
    loc, mult = cat.entries[0]
    assert abs(loc) < 1e-6 and mult == 2


def test_entire_functions_have_empty_catalog():
    for src in ("exp(z)", "z^2", "canprod(4)", "lacunary(2)", "z + 1 + exp(-z)"):
        assert poles_in_disk(parse(src), 100.0).entries == ()


def test_tan_poles_match_half_pi_lattice():
    cat = poles_in_disk(parse("tan(z)"), 10.0)
    expected = []
    k = 0
    while True:
        p = math.pi / 2 + k * math.pi
        if p > 10.0:
            break
        expected.extend([p, -p])
        k += 1
    got = sorted(b.real for b, _ in cat.entries)
    assert len(got) == len(expected)
    for g, e in zip(got, sorted(expected)):
        assert g == pytest.approx(e, abs=1e-6)
    assert all(abs(b.imag) < 1e-6 for b, _ in cat.entries)
    assert all(m == 1 for _, m in cat.entries)


def test_counting_radius_monotone():
    f = parse("tan(z)")
    counts = [len(poles_in_disk(f, r).entries) for r in (1.0, 2.0, 5.0, 8.0, 20.0)]
    assert counts == sorted(counts)
    # n(r) jumps by 2 each time the lattice pi/2 + k pi enters
    assert counts[0] == 0 if math.pi / 2 > 1.0 else 2
    assert counts[1] == 2


# ---------------------------------------------------------------------------
# numeric route
# ---------------------------------------------------------------------------


def test_numeric_catalog_closed_form():
    # poles of 1/(exp(z) + z): -W_k(1) over the branches k of Lambert's W
    mpmath = pytest.importorskip("mpmath")
    cat = poles_in_disk(parse("1/(exp(z)+z)"), 16.0)
    assert cat.exact is False
    expected = [complex(-mpmath.lambertw(1, k)) for k in range(-2, 3)]
    assert all(abs(b) <= 16.0 for b in expected) and abs(complex(mpmath.lambertw(1, 3))) > 16.0
    assert len(cat.entries) == 5
    for want in expected:
        assert [m for b, m in cat.entries if abs(b - want) < 1e-6] == [1]


def test_exact_catalog_closed_form():
    # poles of 1/(exp(z) - 2): log 2 + 2 pi i k, from the exp lattice
    mpmath = pytest.importorskip("mpmath")
    cat = poles_in_disk(parse("1/(exp(z)-2)"), 32.0)
    assert cat.exact is True
    expected = [complex(mpmath.log(2) + 2j * mpmath.pi * k) for k in range(-5, 6)]
    assert all(abs(b) <= 32.0 for b in expected) and abs(complex(math.log(2.0), 12 * math.pi)) > 32.0
    assert len(cat.entries) == 11
    for want in expected:
        assert [m for b, m in cat.entries if abs(b - want) <= 1e-12 * abs(want)] == [1]


def _per_box_winding(f, box, n_start=256, n_cap=2**17):
    """The per-box winding count the grid sweep replaced: midpoint samples
    spread over the whole perimeter, each box evaluated on its own."""
    x0, x1, y0, y1 = box
    w, h = x1 - x0, y1 - y0
    prev = None
    n = n_start
    while n <= n_cap:
        t = (np.arange(n) + 0.5) / n * (2.0 * (w + h))
        pts = np.empty(n, dtype=np.complex128)
        m0 = t < w
        m1 = (t >= w) & (t < w + h)
        m2 = (t >= w + h) & (t < 2 * w + h)
        m3 = t >= 2 * w + h
        pts[m0] = x0 + t[m0] + 1j * y0
        pts[m1] = x1 + 1j * (y0 + (t[m1] - w))
        pts[m2] = x1 - (t[m2] - w - h) + 1j * y1
        pts[m3] = x0 + 1j * (y1 - (t[m3] - 2 * w - h))
        logmod, phase = log_polar(f, pts)
        if not np.all(np.isfinite(logmod)):
            raise BoundarySingularityError("zero or pole detected on the boundary")
        left, right = np.roll(logmod, 2), np.roll(logmod, -2)
        if np.any(logmod < np.minimum(left, right) - 20.7):
            raise BoundarySingularityError("near-boundary zero")
        if np.any(logmod > np.maximum(left, right) + 20.7):
            raise BoundarySingularityError("near-boundary pole")
        ang = np.angle(phase)
        d = np.diff(ang, append=ang[:1])
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        if np.any(np.abs(d) > 2.8):
            n *= 2
            continue
        est = float(d.sum() / (2.0 * math.pi))
        if prev is not None and abs(est - prev) < 0.25 and abs(est - round(est)) < 0.25:
            return int(round(est))
        prev = est
        n *= 2
    raise WindingConvergenceError("winding estimates did not stabilize")


def _per_box_subdivide(f, box, winding, found, budget):
    x0, x1, y0, y1 = box
    diam = math.hypot(x1 - x0, y1 - y0)
    if diam < poles._BOX_DIAMETER:
        found.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), -winding))
        return budget
    for attempt in range(6):
        xm = x0 + (0.5 + 0.013 * attempt) * (x1 - x0)
        ym = y0 + (0.5 + 0.017 * attempt) * (y1 - y0)
        children = [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]
        try:
            ws = [_per_box_winding(f, c) for c in children]
        except (BoundarySingularityError, WindingConvergenceError):
            continue
        break
    else:
        if diam < 1e-3:
            found.append((complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)), -winding))
            return budget
        raise UnresolvedRegionError(box)
    for child, w in zip(children, ws):
        if w >= 0:
            continue
        budget -= 1
        if budget <= 0:
            raise UnresolvedRegionError("subdivision budget exhausted")
        budget = _per_box_subdivide(f, child, w, found, budget)
    return budget


def _per_box_numeric_poles(f, radius, base_cell=0.7):
    """The per-box numeric search, kept as the reference for the sweep."""
    pad = 0.02 * max(radius, 1.0) + 0.011
    for restart in range(6):
        origin = -(radius + pad) - 0.0137 * restart * base_cell
        n_cells = max(2, math.ceil((radius + pad - origin) / base_cell))
        found, budget = [], 20000
        try:
            for i in range(n_cells):
                x0 = origin + i * base_cell
                nx = x0 if x0 > 0 else (x0 + base_cell if x0 + base_cell < 0 else 0.0)
                for j in range(n_cells):
                    y0 = origin + j * base_cell
                    ny = y0 if y0 > 0 else (y0 + base_cell if y0 + base_cell < 0 else 0.0)
                    if math.hypot(nx, ny) > radius + poles._MERGE_TOL:
                        continue
                    box = (x0, x0 + base_cell, y0, y0 + base_cell)
                    w = _per_box_winding(f, box)
                    if w < 0:
                        budget = _per_box_subdivide(f, box, w, found, budget)
        except (BoundarySingularityError, WindingConvergenceError):
            continue
        # disjoint boxes at least 3e-7 wide: no two centres are within the
        # merge tolerance, so none merge
        pairs = itertools.combinations([loc for loc, _ in found], 2)
        assert all(abs(p - q) > poles._MERGE_TOL for p, q in pairs)
        return sorted(found, key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
    raise UnresolvedRegionError("grid search failed after restarts")


@pytest.mark.parametrize("radius", [8.0, 16.0, 32.0])
@pytest.mark.parametrize(
    "src", ["1/(exp(z)-2)", "1/(sin(z)-0.5)", "exp(z)/(exp(z)+z)", "1/(exp(z) - 1)"]
)
def test_grid_sweep_matches_per_box_search(src, radius):
    f = parse(src)
    assert poles._numeric_poles(f, radius) == _per_box_numeric_poles(f, radius)


def test_grid_sweep_windings_of_mixed_cells():
    # poles at 0.3+0.3i (order 2) and -0.6-0.2i, a zero at 0.7-0.7i
    f = parse("(z - 0.7 + 0.7*i) / ((z - 0.3 - 0.3*i)^2 * (z + 0.6 + 0.2*i))")
    xs, ys = (-1.0, -0.1, 0.5, 1.0), (-1.0, 0.1, 1.0)
    wanted = np.array([[True, True, True], [True, True, False]])
    got = poles._grid_windings(f, xs, ys, wanted)
    assert got.tolist() == [[-1, 0, 1], [0, -2, 0]]
    for j in range(2):
        for i in range(3):
            if wanted[j, i]:
                box = (xs[i], xs[i + 1], ys[j], ys[j + 1])
                assert winding_count(f, box) == got[j, i]


class _SweepReached(Exception):
    pass


def test_grid_budget_refuses_before_evaluating(monkeypatch):
    seen = []

    def sweep(f, xs, ys, wanted):
        seen.append(int(wanted.sum()))
        raise _SweepReached

    monkeypatch.setattr(poles, "_grid_windings", sweep)
    f = parse("1/(exp(z)-2)")
    with pytest.raises(UnresolvedRegionError, match=r"1683688 grid cells .* radius 512"):
        poles._numeric_poles(f, 512.0)
    assert seen == []
    # the largest admitted bucket reaches the sweep
    with pytest.raises(_SweepReached):
        poles._numeric_poles(f, 256.0)
    assert seen == [421642]


def test_grid_budget_refuses_a_long_axis_before_laying_it_out():
    # about 2.9e10 cells per axis: the row through 0 alone exceeds the budget
    f = parse("1/(exp(z)+z)")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(UnresolvedRegionError, match="radius 1e[+]10 exceeds the budget"):
            poles._numeric_poles(f, 1e10)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 10 * 2**20


def test_cli_trace_refuses_a_numeric_catalog_past_the_budget(tmp_path, capsys):
    # trace's first catalog radius is past 1e18: a numeric failure (exit 3)
    rc = main(["trace", "--function", "1/(exp(z)+z)", "--out", str(tmp_path)])
    assert rc == 3
    assert "exceeds the budget" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_refuses_unbudgeted_numeric_catalog(tmp_path, capsys):
    # defaults ask for the bucket-2048 catalog, about 27 M cells
    rc = main(["analyze", "--function", "1/(exp(z)+z)", "--out", str(tmp_path)])
    assert rc == 3
    assert "exceed the budget" in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()


def test_cli_analyzes_an_exp_level_set_with_defaults(tmp_path):
    # the bucket-2048 catalog is the exp lattice: about 650 poles
    assert main(["analyze", "--function", "1/(exp(z)-2)", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "profile.json").exists()


def test_tan_lattice_budget_refuses_before_walking(monkeypatch):
    poles._catalog_at.cache_clear()
    monkeypatch.setattr(poles, "_LATTICE_POLES", 64)
    # 2 * 100 * 4 / pi = 254.6 indices
    with pytest.raises(UnresolvedRegionError, match=r"255 tan lattice indices .* radius 4 "):
        poles_in_disk(parse("tan(100*z)"), 4.0)


def test_tan_lattice_walks_only_the_disk(monkeypatch):
    # the shift b = 2e6 moves the lattice, not the disk: one pole in the
    # unit disk, within a budget of four indices
    poles._catalog_at.cache_clear()
    monkeypatch.setattr(poles, "_LATTICE_POLES", 4)
    k = round(2e6 / math.pi - 0.5)
    assert poles_in_disk(parse("tan(z+2e6)"), 1.0).entries == (
        (complex((k + 0.5) * math.pi - 2e6), 1),
    )


@pytest.mark.parametrize("a, rc", [(100, 0), (101, 3)])
def test_cli_tan_lattice_at_the_budget_edge(monkeypatch, a, rc, tmp_path):
    # analyze up to --rmax 2 reads the bucket-4 catalog: 254.6 indices for
    # tan(100*z), 257.2 for tan(101*z), against a budget of 255
    poles._catalog_at.cache_clear()
    monkeypatch.setattr(poles, "_LATTICE_POLES", 255)
    argv = ["analyze", "--function", f"tan({a}*z)", "--rmin", "0.02", "--rmax", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == rc
    assert (tmp_path / "profile.json").exists() == (rc == 0)


@pytest.mark.parametrize(
    "argv",
    [
        # about 4e13 lattice poles in the disk of radius 2048
        ["analyze", "--function", "tan(3e10*z)"],
        # T(3 R_1) needs about 9e13 lattice poles
        ["trace", "--corpus", "tanz", "--alpha", "0.5", "--d", "2", "--D", "4"],
    ],
)
def test_cli_refuses_oversized_tan_lattice(argv, tmp_path, capsys):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 3
    assert "tan lattice indices" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_lattice_through_rational_factors_is_copied():
    # 12,224 lattice poles: merged pole by pole, these took seconds each
    lattice = dict(poles_in_disk(parse("tan(300*z)"), 64.0).entries)
    assert len(lattice) == 12224
    assert dict(poles_in_disk(parse("(z-100)*tan(300*z)"), 64.0).entries) == lattice
    assert dict(poles_in_disk(parse("tan(300*z)/(z-10)"), 64.0).entries) == {**lattice, 10: 1}


@pytest.mark.parametrize(
    "left, op, right, radius",
    [
        # 8,190 poles: checked pair by pair, this sum took 1.7 s
        ("tan(100*z)", "+", "tan(101*z)", 64.0),
        ("tan(30*z)", "+", "tan(31*z)", 64.0),
        ("tan(3*z)", "*", "tan(3*z+1)", 20.0),
    ],
)
def test_disjoint_lattices_combine_into_their_union(left, op, right, radius):
    union = {
        **dict(poles_in_disk(parse(left), radius).entries),
        **dict(poles_in_disk(parse(right), radius).entries),
    }
    cat = poles_in_disk(parse(left + op + right), radius)
    assert cat.exact
    assert dict(cat.entries) == union


def test_sum_with_coincident_poles_goes_numeric():
    # tan(z + pi) has the poles of tan(z): principal parts might cancel
    assert poles_in_disk(parse("tan(z)+tan(z+3.141592653589793)"), 16.0).exact is False


@pytest.mark.parametrize(
    "src, radius",
    [
        # the argument's poles come from the exact route (log 2 + 2 pi i k
        # for exp(z) - 2)
        ("exp(1/z)", 1.0),
        ("exp(1/z)/z", 2.0),
        ("exp(1/(exp(z)-2))", 1.0),
        # the argument's pole (the zero -0.567 of exp(z) + z) comes from
        # the numeric route
        ("sin(1/(exp(z)+z))", 4.0),
    ],
)
def test_essential_singularities_are_refused(src, radius):
    with pytest.raises(UnsupportedExpressionError, match="essential singularity"):
        poles_in_disk(parse(src), radius)


@pytest.mark.parametrize("src", [
    "1/(0*z)", "1/(0*exp(z))", "exp(z)/(z*0)",
    # a difference of equal trees vanishes as well, though it is no level set
    "1/(exp(z)-exp(z))", "z/(exp(z) + -exp(z))", "1/(z*(-sin(z) + sin(z)))",
])
def test_identically_zero_denominators_are_refused(src, tmp_path):
    # every point is a pole: has_poles says so (render hits a pole at every
    # pixel), and a catalog or a profile is refused
    assert has_poles(src)
    with pytest.raises(UnsupportedExpressionError, match="vanishes identically"):
        poles_in_disk(parse(src), 2.0)
    assert main(["analyze", "--function", src, "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_pole_free_entire_exp_argument_is_exact():
    # exp(z) is entire by construction, so exp(exp(z)) has no zeros
    cat = poles_in_disk(parse("exp(1/exp(exp(z)))"), 2.0)
    assert cat.exact is True and cat.entries == ()


@pytest.mark.parametrize("src", ["1/exp(tan(z))", "1/exp(1/z)", "1/exp(z^-1)"])
def test_exp_of_a_tree_with_poles_is_no_level_set(src):
    # exp(tan(z)) and exp(1/z) have no zeros either, but their arguments'
    # poles are essential singularities, so they keep the numeric route
    assert poles._level_set(parse(src).root.denominator) is None


def test_pole_free_polynomial_exp_argument_is_exact():
    cat = poles_in_disk(parse("exp(1/exp(z^2))"), 2.0)
    assert cat.exact is True and cat.entries == ()


def test_pole_free_exact_argument_stays_exact():
    cat = poles_in_disk(parse("exp(1/exp(z))"), 4.0)
    assert cat.exact is True and cat.entries == ()


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--window", "0,2", "--res", "16", "--budget", "8"],
        ["trace"],
    ],
)
def test_cli_refuses_essential_singularity_behind_a_numeric_argument(argv, tmp_path, capsys):
    rc = main(argv + ["--function", "exp(1/(exp(z)+z))", "--out", str(tmp_path)])
    assert rc == 2
    assert "essential singularity" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["render", "--window", "0,2", "--res", "16", "--budget", "8"],
        ["trace"],
    ],
)
def test_cli_refuses_essential_singularity_behind_an_exact_argument(argv, tmp_path, capsys):
    rc = main(argv + ["--function", "exp(1/(exp(z)-2))", "--out", str(tmp_path)])
    assert rc == 2
    assert "essential singularity" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# the flags of each command beyond --function; analyze and check take the
# radius grid of the map
_COMMAND_FLAGS = {"trace": [], "render": ["--window", "0,2", "--res", "16", "--budget", "8"]}
_ESSENTIAL = [
    # tan's nearest poles lie outside the disk of radius 1 that --rmax 0.5 reads
    ("exp(tan(z))", ["--rmin", "0.001", "--rmax", "0.5"]),
    ("exp(1/(exp(z)+z))", ["--rmin", "0.125", "--rmax", "16"]),
    # the argument has no poles, but exp(z) + z is no level set
    ("exp((exp(z)+z)/(exp(z)+z))", ["--rmin", "0.125", "--rmax", "16"]),
    # the argument's nearest poles, where exp(z) = -1e30 - z, lie near |z| = 69
    ("sin(1/(exp(z)+z+1e30))", ["--rmin", "0.125", "--rmax", "16"]),
]


def _no_sweep(f, radius):
    raise AssertionError("a numeric sweep ran")


@pytest.mark.parametrize("f, radii", _ESSENTIAL, ids=[f for f, _ in _ESSENTIAL])
@pytest.mark.parametrize("command", ["analyze", "check", "trace", "render"])
def test_commands_refuse_essential_singularities_fast(
    monkeypatch, command, f, radii, tmp_path, capsys
):
    # every command refuses from the tree (has_poles), whatever its grid,
    # with no catalog or sweep of the argument and no orbit
    monkeypatch.setattr(poles, "_numeric_poles", _no_sweep)
    poles._catalog_at.cache_clear()
    poles.has_poles.cache_clear()
    flags = _COMMAND_FLAGS.get(command, radii)
    argv = [command, "--function", f] + flags
    start = time.perf_counter()
    rc = main(argv + ["--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert rc == 2
    assert "essential singularity" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert elapsed < 1.0
