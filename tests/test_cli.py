import argparse
import ast
import inspect
import json
import math
import shutil
import subprocess
import sys
import textwrap
from dataclasses import fields

import pytest

from merolab import cli
from merolab.cli import RunConfig, main
from merolab.criteria import ChainLink, ChainReport, CriterionVerdict, DensityReport, Witness
from merolab.dynamics import ComponentReport
from merolab.hyperbolic import DistortionReport, circle_bound_constant_audit
from merolab.nevanlinna import RadialSample

_CONDITIONS = {
    "L-over-r-growth",
    "main-growth",
    "L-versus-M",
    "strong-characteristic",
    "deficiency-order",
}


def _read(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_writes_profile_and_growth(tmp_path):
    rc = main(["analyze", "--function", "exp(z)", "--rmax", "100", "--out", str(tmp_path)])
    assert rc == 0
    profile = _read(tmp_path / "profile.json")
    assert profile["function"] == "exp(z)"
    assert profile["corpus"] is None
    assert profile["grid"]["r_max"] == 100.0
    assert profile["samples"][0]["r"] == 1.0
    for sample in profile["samples"]:
        assert sample["m_converged"] is True and sample["perturbed_from"] is None
        # the 33 edges and 32 panels of [0, pi], and one full bisection level
        assert sample["quadrature_nodes"] >= 33 + 32 * 15 * 3
    growth = _read(tmp_path / "growth.json")
    assert growth["order"] == pytest.approx(1.0, abs=0.05)
    assert growth["deficiency"] == pytest.approx(1.0, abs=0.05)


def test_analyze_parse_error(capsys):
    rc = main(["analyze", "--function", "z +"])
    assert rc == 2
    assert "parse error at offset 3" in capsys.readouterr().err


def test_analyze_requires_a_function(capsys):
    assert main(["analyze"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_analyze_rejects_two_sources(tmp_path):
    rc = main([
        "analyze", "--function", "z^2", "--corpus", "expz", "--out", str(tmp_path)
    ])
    assert rc == 2


def test_analyze_unknown_corpus(capsys):
    assert main(["analyze", "--corpus", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_analyze_refuses_a_short_grid_before_the_profile(tmp_path, capsys, monkeypatch):
    # no profile on a grid of fewer than 16 radii, or on one short of two
    # decades even with its top circle nudged, passes the growth fit
    def no_profile(*args, **kwargs):
        raise AssertionError("analyze built a profile for a grid it cannot use")

    monkeypatch.setattr(cli, "build_profile", no_profile)
    for flags, message in (
        (["--function", "1/(exp(z)+z)", "--rmin", "1", "--rmax", "50"], "at least two decades"),
        (["--corpus", "expz", "--rmax", "1000", "--ratio", "2"], "at least 16 samples"),
    ):
        assert main(["analyze", *flags, "--out", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err
    # a tree with an essential singularity is refused first
    rc = main(["analyze", "--function", "exp(tan(z))", "--rmin", "1", "--rmax", "50",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_exp_fails_everything(tmp_path):
    rc = main(["check", "--corpus", "expz", "--out", str(tmp_path)])
    assert rc == 0
    report = _read(tmp_path / "criteria.json")
    assert set(report["conditions"]) == _CONDITIONS
    assert report["params"] == {"alpha": 0.5, "d": 2.0, "D": 4.0}
    for verdict in report["conditions"].values():
        assert verdict["holds_on_grid"] is False
        assert verdict["first_failure"] is not None


def test_check_short_span_is_a_numeric_failure(tmp_path, capsys):
    rc = main(["check", "--corpus", "expz", "--rmax", "50", "--out", str(tmp_path)])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_check_refuses_a_short_grid_before_the_profile(tmp_path, capsys, monkeypatch):
    # the span is known from the flags: no profile is built for a grid of
    # fewer than three decades
    def no_profile(*args, **kwargs):
        raise AssertionError("check built a profile for a grid it cannot use")

    monkeypatch.setattr(cli, "build_profile", no_profile)
    rc = main([
        "check", "--function", "1/(exp(z)+z)", "--rmin", "1", "--rmax", "16",
        "--out", str(tmp_path),
    ])
    assert rc == 3
    assert "at least three decades" in capsys.readouterr().err
    assert not (tmp_path / "criteria.json").exists()


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_square_window(tmp_path):
    rc = main([
        "render", "--corpus", "zsq", "--res", "64", "--budget", "64",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    data = (tmp_path / "render.ppm").read_bytes()
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == len(b"P6\n64 64\n255\n") + 3 * 64 * 64
    report = _read(tmp_path / "components.json")
    assert report["resolution"] == 64
    assert report["escape_radius"] == 1e6
    assert report["window"] == {"center": [0.0, 0.0], "half_width": 2.0}
    classes = {c["class"] for c in report["components"]}
    assert classes == {"escaping", "attracted"}
    assert sum(c["pixels"] for c in report["components"]) == 64 * 64


def test_render_probe_section(tmp_path):
    rc = main([
        "render", "--corpus", "zsq", "--res", "64", "--budget", "128",
        "--scales", "2,4", "--out", str(tmp_path),
    ])
    assert rc == 0
    probe = _read(tmp_path / "components.json")["probe"]
    assert probe["verdict"] == "bounded-empirical"
    assert probe["scales"] == [2.0, 4.0]


def test_render_drifting_map_escapes_everywhere(tmp_path):
    rc = main([
        "render", "--corpus", "fatou", "--window", "5,2", "--res", "32",
        "--budget", "128", "--resc", "50", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = _read(tmp_path / "components.json")
    assert len(report["components"]) == 1
    only = report["components"][0]
    assert only["class"] == "escaping"
    assert only["pixels"] == 32 * 32
    assert only["touches_boundary"] is True
    # every pixel starts in Re z > log(4/3) and escapes through it at step 1
    assert report["absorbing_half_plane"] == {
        "direction": [1.0, 0.0], "s": math.log(4.0 / 3.0), "certified_pixels": 32 * 32,
    }


def test_render_of_a_map_without_a_half_plane_has_no_certificate_key(tmp_path):
    for name in ("zsq", "tanz"):
        rc = main([
            "render", "--corpus", name, "--res", "16", "--budget", "8",
            "--out", str(tmp_path / name),
        ])
        assert rc == 0
        assert "absorbing_half_plane" not in _read(tmp_path / name / "components.json")


def test_render_reports_class_counts(tmp_path):
    rc = main([
        "render", "--corpus", "zsq", "--res", "32", "--budget", "8", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = _read(tmp_path / "components.json")
    counts = report["class_counts"]
    assert set(counts) == {"undecided", "escaping", "attracted", "pole-hit"}
    assert sum(counts.values()) == 32 * 32
    assert report["undecided_fraction"] == counts["undecided"] / (32 * 32)
    in_components = sum(c["pixels"] for c in report["components"])
    assert in_components == counts["escaping"] + counts["attracted"]


def test_render_parabolic_map_reports_all_undecided(tmp_path):
    rc = main([
        "render", "--corpus", "tanz", "--window", "0,3", "--res", "16", "--budget", "32",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    report = _read(tmp_path / "components.json")
    assert report["components"] == []
    assert report["class_counts"]["undecided"] == 16 * 16
    assert report["undecided_fraction"] == 1.0


def test_render_resolution_cap(capsys):
    assert main(["render", "--corpus", "zsq", "--res", "100000"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_render_window_validation(tmp_path):
    assert main(["render", "--corpus", "zsq", "--window", "0"]) == 2
    assert main(["render", "--corpus", "zsq", "--window", "a,b"]) == 2
    assert main(["render", "--corpus", "zsq", "--scales", "x", "--res", "16"]) == 2


@pytest.mark.parametrize("flags", [("--window", "nan,2"), ("--window", "0,inf"),
                                   ("--window", "1+infj,2"), ("--scales", "4,inf"),
                                   ("--resc", "nan"), ("--window", "0,1e308")])
def test_render_refuses_non_finite_values_before_any_output(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["render", "--corpus", "zsq", "--res", "16", *flags, "--out", str(out)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--rmax", "inf"), ("--rmin", "nan"), ("--ratio", "inf")])
def test_analyze_refuses_non_finite_grid_values(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["analyze", "--corpus", "expz", *flags, "--out", str(out)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_defaults(tmp_path):
    rc = main(["trace", "--out", str(tmp_path)])
    assert rc == 0
    report = _read(tmp_path / "trace.json")
    assert report["function"] is None and report["corpus"] is None
    assert report["derived"] == {"k": 2, "h": 4.0, "m": 6, "H": 4096.0}
    assert report["params"] == {"alpha": 0.5, "d": 2.0, "D": 4.0, "K": 24.0}
    assert report["radii"] == [1.0]
    assert report["steps"] == []


def test_trace_radius_overflow_sentinel(tmp_path):
    rc = main(["trace", "--corpus", "expz", "--out", str(tmp_path)])
    assert rc == 0
    radii = _read(tmp_path / "trace.json")["radii"]
    assert radii[0] == 1.0
    assert radii[1] == pytest.approx(8980413230.963484, rel=1e-6)
    assert radii[2] == "overflow"


def test_trace_rejects_equal_exponents(capsys):
    assert main(["trace", "--D", "2"]) == 2
    assert "requires D > d" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flags and config files
# ---------------------------------------------------------------------------


def _fields_read(func):
    """RunConfig fields a cli function reads from `config`, through helpers too."""
    found = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "config":
            found.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and any(getattr(a, "id", None) == "config" for a in node.args):
            found |= _fields_read(getattr(cli, node.func.id))
    return found


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._HANDLERS)
    read_anywhere = set()
    for name, parser in sub.choices.items():
        flags = {a.dest for a in parser._actions} - {"help", "config"}
        read = _fields_read(cli._HANDLERS[name])
        assert flags == read, name
        read_anywhere |= read
    # no RunConfig field, hence no config key, that no handler reads
    assert read_anywhere == {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("argv", [
    ["analyze", "--corpus", "zsq", "--window", "0,2"],
    ["render", "--corpus", "zsq", "--seed", "1"],
    ["trace", "--rmax", "10"],
    ["check", "--K", "24"],
])
def test_flag_of_another_subcommand_is_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_config_keys_of_other_subcommands_are_accepted(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"corpus": "expz", "window": "0,1", "alpha": 0.4}))
    assert main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert _read(tmp_path / "trace.json")["params"]["alpha"] == 0.4


def test_config_seed_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert main(["trace", "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


def test_config_supplies_values_and_flags_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"corpus": "zsq", "rmax": 400.0}))
    out = tmp_path / "out"
    rc = main([
        "analyze", "--config", str(cfg), "--rmax", "800", "--out", str(out)
    ])
    assert rc == 0
    profile = _read(out / "profile.json")
    assert profile["corpus"] == "zsq"
    assert profile["function"] == "z^2"
    assert profile["grid"]["r_max"] == 800.0


def test_cli_function_displaces_config_corpus(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"corpus": "expz"}))
    out = tmp_path / "out"
    # rmax 200, not 100: the r = 1 sample has T = 0 and drops out of the
    # growth fit, and the surviving span must still cover two decades
    rc = main([
        "analyze", "--config", str(cfg), "--function", "z^2", "--rmax", "200",
        "--out", str(out),
    ])
    assert rc == 0
    profile = _read(out / "profile.json")
    assert profile["function"] == "z^2"
    assert profile["corpus"] is None


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", "null", "3", '"expz"'])
def test_config_that_is_not_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert main(["analyze", "--corpus", "expz", "--config", str(cfg)]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_config_with_a_non_finite_value(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"rmax": Infinity}')
    assert main(["analyze", "--corpus", "expz", "--config", str(cfg)]) == 2
    assert "non-finite value for rmax" in capsys.readouterr().err


def test_config_with_both_sources(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"corpus": "expz", "function": "z^2"}))
    assert main(["analyze", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command", ["analyze", "check", "render", "trace"])
@pytest.mark.parametrize(
    "bad",
    [{"budget": "64"}, {"rmax": "100"}, {"alpha": None}, {"res": 8.5},
     {"resc": True}, {"corpus": 3}, {"window": [0, 2]}],
)
def test_config_value_of_the_wrong_type(tmp_path, capsys, command, bad):
    # the value is refused before any work, so nothing is written
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"corpus": "zsq", **bad}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and repr(next(iter(bad))) in err
    assert not out.exists()


def test_config_int_stands_for_a_float_and_null_for_a_null_default(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"corpus": "expz", "rmax": 200, "alpha": 0, "scales": None}))
    assert main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# report layouts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dump, keys, nested",
    [
        (
            CriterionVerdict("main-growth", True, (Witness(2.0, 4.0, 1.0, 0.5, 0.5),)).as_dict,
            {"condition", "holds_on_grid", "witnesses", "first_failure"},
            ("witnesses", {"r", "t", "lhs", "rhs", "margin"}),
        ),
        (
            ChainReport(True, True, 10.0, (ChainLink("power", 2.0, 1.0, True),)).as_dict,
            {"applicable", "holds", "r", "links", "note"},
            ("links", {"name", "lhs", "rhs", "holds"}),
        ),
        (
            DensityReport(((1.0, 2.0),), 0.5).as_dict,
            {"intervals", "lower_log_density"},
            None,
        ),
        (
            DistortionReport(1.1, (1.0, 1.1), 2, False, 0.0, 1.0, False).as_dict,
            {"max_ratio", "per_step", "steps_used", "trend_detected", "slope", "p_value",
             "truncated"},
            None,
        ),
        (
            circle_bound_constant_audit().as_dict,
            {"inverse_log_six_fifths", "counting_multiplier", "six_log_ten_e", "kernel_bound",
             "ceiling", "chain_holds"},
            None,
        ),
        (
            ComponentReport(1, "attracted", 4, False, "inconclusive", (4.0,),
                            ({"half_width": 4.0, "component": None},)).as_dict,
            {"id", "class", "pixels", "touches_boundary", "verdict", "scales", "observations"},
            None,
        ),
        (
            RadialSample(1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 960, 0.0, math.log(2.0)).record,
            {"r", "m", "N", "T", "L", "M", "quadrature_nodes", "m_converged", "perturbed_from"},
            None,
        ),
    ],
)
def test_report_keys(dump, keys, nested):
    # the JSON layout of each report; a field rename must show up here
    report = dump()
    assert set(report) == keys
    if nested is not None:
        field, inner = nested
        assert report[field] and all(set(item) == inner for item in report[field])


# ---------------------------------------------------------------------------
# determinism and the installed entry point
# ---------------------------------------------------------------------------


def _run_everywhere(out):
    base = str(out)
    assert main(["analyze", "--corpus", "zsq", "--rmax", "200", "--out", base]) == 0
    assert main([
        "check", "--corpus", "zsq", "--ratio", str(2.0**0.5), "--out", base
    ]) == 0
    assert main([
        "render", "--corpus", "zsq", "--res", "48", "--budget", "64",
        "--scales", "2,4", "--out", base,
    ]) == 0
    assert main(["trace", "--corpus", "expz", "--out", base]) == 0


def test_outputs_are_byte_identical_across_runs(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    _run_everywhere(first)
    _run_everywhere(second)
    names = sorted(p.name for p in first.iterdir())
    assert names == [
        "components.json", "criteria.json", "growth.json", "profile.json",
        "render.ppm", "trace.json",
    ]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_console_entry_point(tmp_path):
    exe = shutil.which("merolab")
    if exe is None:
        pytest.skip("package not installed with console scripts")
    proc = subprocess.run(
        [exe, "trace", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "trace.json").exists()


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "merolab.cli", "trace", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "trace.json").exists()


def test_cli_leaves_out_scipy(tmp_path):
    # scipy loads only for odd-p canonical products: the CLI's import, the
    # corpus commands and the hyperbolic calls run on numpy alone
    code = textwrap.dedent(
        f"""
        import sys

        import numpy as np

        def assert_no_scipy(after):
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, f"{{after}} loaded {{loaded[:5]}}"

        from merolab.cli import main
        assert_no_scipy("import merolab.cli")
        assert main(["analyze", "--corpus", "expz", "--rmax", "100", "--out", {str(tmp_path / "a")!r}]) == 0
        assert main([
            "render", "--corpus", "zsq", "--res", "32", "--budget", "64", "--scales", "2,4",
            "--out", {str(tmp_path / "r")!r},
        ]) == 0
        assert_no_scipy("analyze and render")
        from merolab import corpus_function, distortion_check
        distortion_check(corpus_function("fatou"), [5.0, 5.5, 6.0], 30, r_esc=50.0)
        assert_no_scipy("distortion_check")

        # the odd-p route imports loggamma on first use
        from merolab.expr import log_polar, parse
        log_mod, _ = log_polar(parse("canprod(3)"), np.array([0.5, 3 + 4j, -1e4 + 1j]))
        assert np.isfinite(log_mod).all(), log_mod
        assert "scipy.special" in sys.modules
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_leaves_out_lazy_numpy_modules(tmp_path):
    # numpy imports numpy.ma on the first np.unique and numpy.polynomial on
    # first use, each a few milliseconds and about 1.5 MiB: the corpus
    # analyze and check run without either
    code = textwrap.dedent(
        f"""
        import sys

        from merolab.cli import main
        assert main(["analyze", "--corpus", "expz", "--out", {str(tmp_path / "a")!r}]) == 0
        assert main(["check", "--corpus", "expz", "--out", {str(tmp_path / "c")!r}]) == 0
        lazy = (["numpy", "ma"], ["numpy", "polynomial"])
        loaded = sorted(m for m in sys.modules if m.split(".")[:2] in lazy)
        assert not loaded, loaded
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
