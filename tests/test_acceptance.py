"""Acceptance gate: one test per release criterion.

Each test is a single pass/fail line under pytest -v.  Tolerances are
pinned here and nowhere else; the bodies reuse the session fixtures from
conftest so the expensive profiles are built once.
"""

import cmath
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from test_dynamics import _bfs_labels

from merolab import (
    CriterionParams,
    Disk,
    HalfPlane,
    OrbitClass,
    RadiusGrid,
    boundedness_probe,
    build_profile,
    characteristic,
    check_deficiency_order,
    check_main,
    circle_bound_constant_audit,
    circle_bound_witness,
    classify_grid,
    corpus_function,
    corpus_names,
    counting,
    distortion_check,
    hyperbolic_density,
    label_components,
    parse,
    schwarz_pick_check,
    trace_radius_recursion,
)
from merolab.cli import _DEFAULTS, RunConfig, cmd_analyze, cmd_check, cmd_render, cmd_trace
from merolab.dynamics import ClassifiedGrid
from merolab.expr import poles_in_disk
from merolab.hyperbolic import _sample_domain


def test_criterion_01_characteristic_closed_forms(expz, invz):
    for r in (10.0, 20.0, 50.0):
        scaled = characteristic(expz, r) * math.pi / r
        assert 0.99 <= scaled <= 1.01
    for r in (math.e, 10.0, 100.0):
        assert characteristic(invz, r) == pytest.approx(math.log(r), abs=1e-9)


def _integrated_counting(f, r):
    # independent oracle: numerically integrate n(t)/t over (0, r] with
    # the origin contribution handled in closed form
    entries = poles_in_disk(f, r).entries
    origin = sum(m for loc, m in entries if abs(loc) == 0.0)
    moduli = np.sort(
        np.array([abs(loc) for loc, m in entries for _ in range(m) if abs(loc) > 0.0])
    )
    total = origin * math.log(r)
    if moduli.size:
        ts = np.geomspace(moduli[0] * 0.5, r, 40001)
        n_of_t = np.searchsorted(moduli, ts * (1.0 + 1e-12), side="right")
        total += float(np.trapezoid(n_of_t, np.log(ts)))
    return total


def test_criterion_02_counting_matches_integrated_pole_count(tanz):
    rational = parse("1/(z*(z-1)*(z-2))")
    for f in (tanz, rational):
        for r in (5.0, 20.0):
            got = counting(f, r)
            want = _integrated_counting(f, r)
            assert got == pytest.approx(want, rel=1e-3)


def test_criterion_03_circle_bound_witness_full_corpus():
    for name in corpus_names():
        f = corpus_function(name)
        for R in (2.0, 4.0, 8.0, 16.0):
            r, max_logplus, bound = circle_bound_witness(f, R)
            assert R < r < 2.0 * R
            assert max_logplus <= bound


def test_criterion_04_constant_audit_chain():
    audit = circle_bound_constant_audit()
    assert audit.inverse_log_six_fifths == pytest.approx(5.4848, abs=1e-4)
    assert audit.six_log_ten_e == pytest.approx(19.8155, abs=1e-4)
    assert audit.inverse_log_six_fifths < audit.ceiling == 24.0
    assert audit.six_log_ten_e < 24.0
    assert audit.chain_holds


def test_criterion_05_criteria_controls(expz, fatou, canprod_main, canprod_profile, tan_profile):
    default_grid = RadiusGrid(1.0, 1000.0)
    for f in (expz, fatou):
        verdict = check_main(build_profile(f, default_grid), CriterionParams(0.5, 2.0, 4.0))
        assert not verdict.holds_on_grid
    assert canprod_main.holds_on_grid  # (0.3, 2, 1.5) on [10, 1000]

    good = check_deficiency_order(canprod_profile)
    assert good.holds_on_grid
    order = good.witnesses[0].rhs
    assert order == pytest.approx(0.25, abs=0.05)
    assert good.witnesses[2].lhs >= 0.9

    bad = check_deficiency_order(tan_profile)
    assert not bad.holds_on_grid
    assert bad.witnesses[2].lhs <= 0.05


def test_criterion_06_recursion_arithmetic():
    state = trace_radius_recursion(0.5, 2.0, 4.0, 24.0)
    assert (state.k, state.h, state.m, state.H) == (2, 4.0, 6, 4096.0)
    with pytest.raises(ValueError, match="requires D > d"):
        trace_radius_recursion(0.5, 2.0, 2.0, 24.0)


def test_criterion_07_component_labels_and_circle_ground_truth(zsq):
    rng = np.random.default_rng(29)
    for _ in range(100):
        classes = rng.integers(0, 4, size=(64, 64))
        cyc = np.where(
            classes == OrbitClass.ATTRACTED, rng.integers(1, 3, size=(64, 64)), 0
        )
        grid = ClassifiedGrid(
            0j, 1.0, 64, 8, 1e6,
            classes.astype(np.uint8),
            np.zeros((64, 64), dtype=np.int32),
            cyc.astype(np.int32),
            (),
        )
        assert np.array_equal(label_components(grid).labels, _bfs_labels(classes, cyc))

    grid = classify_grid(zsq, (0j, 2.0), 256, 256)
    centers = grid.pixel_centers()
    truth = np.where(np.abs(centers) > 1.0, OrbitClass.ESCAPING, OrbitClass.ATTRACTED)
    pixel = 2.0 * 2.0 / 256
    decisive = np.abs(np.abs(centers) - 1.0) > pixel
    assert np.array_equal(grid.classes[decisive], truth[decisive].astype(np.uint8))


def test_criterion_08_boundedness_probes(zsq, fatou):
    scales = (4.0, 8.0, 16.0)
    basin = boundedness_probe(zsq, 0j, scales)
    assert basin.verdict == "bounded-empirical"
    escape = boundedness_probe(zsq, 3.0, scales)
    assert escape.verdict == "unbounded-empirical"
    drifting = boundedness_probe(fatou, 5.0, scales, r_esc=50.0)
    assert drifting.verdict == "unbounded-empirical"


def test_criterion_09_hyperbolic_suite(fatou):
    rng = np.random.default_rng(31)
    disk = Disk()
    for i in range(1000):
        a = complex(*(0.6 * (rng.random(2) - 0.5)))
        theta = 2.0 * math.pi * rng.random()

        def mobius(z, a=a, theta=theta):
            w = cmath.exp(1j * theta) * z
            return (w - a) / (1.0 - a.conjugate() * w)

        def composed(z, a=a, theta=theta):
            w = cmath.exp(1j * theta) * z * z
            return (w - a) / (1.0 - a.conjugate() * w)

        f = mobius if i % 2 == 0 else composed
        z1 = complex(*(0.8 * (rng.random(2) - 0.5)))
        z2 = complex(*(0.8 * (rng.random(2) - 0.5)))
        _, _, ok = schwarz_pick_check(disk, disk, f, z1, z2)
        assert ok

    for domain in (disk, HalfPlane()):
        for z in _sample_domain(domain, 1000, rng):
            sample = hyperbolic_density(domain, complex(z))
            assert sample.lower <= sample.density <= sample.upper

    segment = [5.0 + 0.05 * k for k in range(21)]
    report = distortion_check(fatou, segment, 30, r_esc=50.0)
    assert report.steps_used == 30 and not report.truncated
    assert report.max_ratio < 1.2
    assert not report.trend_detected


def _config(**overrides):
    merged = dict(_DEFAULTS)
    merged.update(overrides)
    return RunConfig(**merged)


def test_criterion_10_byte_identical_reruns(tmp_path):
    def run(out):
        out.mkdir()
        base = str(out)
        cmd_analyze(_config(corpus="expz", rmax=100.0, out=base))
        cmd_check(_config(corpus="zsq", ratio=2.0**0.5, out=base))
        cmd_render(_config(corpus="zsq", res=64, budget=64, scales="2,4", out=base))
        cmd_trace(_config(corpus="expz", out=base))
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert set(first) == {
        "components.json", "criteria.json", "growth.json", "profile.json",
        "render.ppm", "trace.json",
    }
    assert first == second
    # sanity: the JSON really is loadable and carries the verdict payload
    json.loads(first["criteria.json"].decode())
