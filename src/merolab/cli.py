"""Command line front end for profiles, criteria reports, renders, and traces.

Four subcommands, all writing into an output directory:

* analyze  -> profile.json, growth.json
* check    -> criteria.json
* render   -> render.ppm, components.json
* trace    -> trace.json

Exit codes: 0 on success, 2 on validation or parse errors, 3 on numeric
failures (insufficient radius span, non-finite report values).  Each
subcommand accepts only the flags it reads.  A JSON config file may
supply any flag value of any subcommand, so one file serves them all;
explicit flags override it.  Identical configurations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import CORPUS, corpus_function
from .criteria import (
    CriterionParams,
    check_L_over_r,
    check_L_versus_M,
    check_deficiency_order,
    check_main,
    check_strong,
    decade_count,
)
from .dynamics import (
    absorbing_half_plane,
    boundedness_probe,
    class_counts,
    classify_grid,
    component_summaries,
    label_components,
    to_ppm,
)
from .expr import ParseError, has_poles, parse
from .hyperbolic import trace_radius_recursion
from .nevanlinna import (
    InsufficientSpanError,
    RadiusGrid,
    build_profile,
    growth_grid,
    growth_summary,
)

@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation."""

    function: str | None = None
    corpus: str | None = None
    rmin: float = RadiusGrid.r_min
    rmax: float = RadiusGrid.r_max
    ratio: float = RadiusGrid.ratio
    alpha: float = 0.5
    d: float = 2.0
    D: float = 4.0
    K: float = 24.0
    window: str = "0,2"
    res: int = 256
    budget: int = 256
    resc: float = 1e6
    scales: str | None = None
    out: str = "."
    r0: float = 1.0


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


# argparse options of each flag; a flag not listed takes a plain float
_FLAGS = {
    "function": {"help": "inline expression in z"},
    "corpus": {"help": "named corpus entry (%s)" % ", ".join(sorted(CORPUS))},
    "config": {"help": "JSON file mirroring the flags"},
    "out": {"help": "output directory (default current)"},
    "window": {"help": "center,half-width (center may be complex)"},
    "res": {"type": int},
    "budget": {"type": int},
    "resc": {"type": float, "help": "escape radius for orbit classification"},
    "scales": {"help": "comma-separated probe half-widths"},
    "r0": {"type": float, "help": "starting radius for trace"},
}

_RADII = ("rmin", "rmax", "ratio")
_CRITERION = ("alpha", "d", "D")

# every subcommand takes --function, --corpus, --config and --out, plus
# only the flags its handler reads; a config file may still name any key
_COMMANDS = {
    "analyze": ("sample m, N, T, L, M over a radius grid", _RADII),
    "check": ("evaluate the boundedness criteria on a radius grid", _RADII + _CRITERION),
    "render": ("classify pixel orbits and emit a PPM image",
               ("window", "res", "budget", "resc", "scales")),
    "trace": ("replay the exponent arithmetic and radius recursion", _CRITERION + ("K", "r0")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merolab",
        description="growth profiles, boundedness criteria, orbit renders, "
        "and recursion traces for meromorphic functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb)
        for flag in ("function", "corpus", "config", "out") + flags:
            cmd.add_argument("--" + flag, **_FLAGS.get(flag, {"type": float}))
    return parser


def _resolve_config(args) -> RunConfig:
    merged = dict(_DEFAULTS)
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object, got %r" % (raw,))
        unknown = sorted(set(raw) - set(_DEFAULTS))
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(unknown))
        for key, val in raw.items():
            # each value takes its flag's type: an int may stand for a
            # float, and null only for a key whose default is null
            if val is None and _DEFAULTS[key] is None:
                continue
            want = _FLAGS.get(key, {"type": float}).get("type", str)
            allowed = (int, float) if want is float else want
            if isinstance(val, bool) or not isinstance(val, allowed):
                raise ValueError("config key %r needs a %s, got %r" % (key, want.__name__, val))
        merged.update(raw)
    cli_function = args.function is not None
    cli_corpus = args.corpus is not None
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    # an explicit flag choosing the function source displaces the other one
    if cli_function and not cli_corpus:
        merged["corpus"] = None
    if cli_corpus and not cli_function:
        merged["function"] = None
    if merged["function"] is not None and merged["corpus"] is not None:
        raise ValueError("choose either --function or --corpus, not both")
    # no report can hold inf or nan, so such a value is refused before any work
    non_finite = sorted(k for k, v in merged.items() if isinstance(v, float) and not math.isfinite(v))
    if non_finite:
        raise ValueError("non-finite value for %s" % ", ".join(non_finite))
    return RunConfig(**merged)


def _resolve_function(config: RunConfig, required: bool = True):
    """Returns (expression or None, source text or None, corpus name or None)."""
    if config.corpus is not None:
        return corpus_function(config.corpus), CORPUS[config.corpus], config.corpus
    if config.function is not None:
        return parse(config.function), config.function, None
    if required:
        raise ValueError("a function is required: pass --function or --corpus")
    return None, None, None


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("window must be center,half-width")
    try:
        center = complex(parts[0])
        half_width = float(parts[1])
    except ValueError:
        raise ValueError("could not parse window %r" % text) from None
    if not (cmath.isfinite(center) and math.isfinite(half_width)):
        raise ValueError("window %r is not finite" % text)
    return center, half_width


def _parse_scales(text: str):
    try:
        values = tuple(float(s) for s in text.split(","))
    except ValueError:
        raise ValueError("could not parse scales %r" % text) from None
    if not all(map(math.isfinite, values)):
        raise ValueError("scales %r are not finite" % text)
    return values


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _write_json(path: Path, obj) -> None:
    try:
        text = json.dumps(_jsonify(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ArithmeticError("report contains non-finite values: %s" % exc) from None
    path.write_text(text)


def _grid(config: RunConfig) -> RadiusGrid:
    return RadiusGrid(config.rmin, config.rmax, config.ratio)


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_analyze(config: RunConfig) -> None:
    expr, source, name = _resolve_function(config)
    grid = _grid(config)
    # before the profile, a tree with an essential singularity is refused
    # (exit 2), then a grid on which no growth fit can pass (exit 3)
    has_poles(expr)
    growth_grid(grid)
    profile = build_profile(expr, grid)
    summary = growth_summary(profile)
    out = _out_dir(config)
    _write_json(
        out / "profile.json",
        {
            "function": source,
            "corpus": name,
            "grid": asdict(grid),
            "samples": profile.records(),
        },
    )
    _write_json(
        out / "growth.json",
        {"function": source, "corpus": name, **asdict(summary)},
    )


def cmd_check(config: RunConfig) -> None:
    expr, source, name = _resolve_function(config)
    grid = _grid(config)
    params = CriterionParams(config.alpha, config.d, config.D)
    # before the profile, a tree with an essential singularity is refused
    # (exit 2), then a grid too short for the decade comparison (exit 3)
    has_poles(expr)
    decade_count(grid.radii())
    profile = build_profile(expr, grid)
    verdicts = [
        check_L_over_r(profile),
        check_main(profile, params),
        check_L_versus_M(profile, config.d),
        check_strong(profile, config.d, config.D),
        check_deficiency_order(profile),
    ]
    out = _out_dir(config)
    _write_json(
        out / "criteria.json",
        {
            "function": source,
            "corpus": name,
            "params": {"alpha": config.alpha, "d": config.d, "D": config.D},
            "grid": asdict(grid),
            "conditions": {v.condition: v.as_dict() for v in verdicts},
        },
    )


def cmd_render(config: RunConfig) -> None:
    expr, source, name = _resolve_function(config)
    center, half_width = _parse_window(config.window)
    # validate before classifying so a bad flag leaves no partial output
    scales = _parse_scales(config.scales) if config.scales is not None else None
    grid = classify_grid(
        expr, (center, half_width), config.res, config.budget, r_esc=config.resc
    )
    labeled = label_components(grid)
    out = _out_dir(config)
    (out / "render.ppm").write_bytes(to_ppm(labeled))
    counts = class_counts(labeled)
    report = {
        "function": source,
        "corpus": name,
        "window": {"center": center, "half_width": half_width},
        "resolution": config.res,
        "budget": config.budget,
        "escape_radius": config.resc,
        "cycles": labeled.cycles,
        "components": component_summaries(labeled),
        "class_counts": counts,
        "undecided_fraction": counts["undecided"] / labeled.classes.size,
    }
    # only a map with a certified escape region gets the key, so every
    # other report keeps its bytes
    plane = absorbing_half_plane(expr)
    if plane is not None:
        report["absorbing_half_plane"] = {
            "direction": plane[0], "s": plane[1], "certified_pixels": labeled.certified_pixels,
        }
    if scales is not None:
        probe = boundedness_probe(
            expr, center, scales, resolution=config.res, budget=config.budget,
            r_esc=config.resc
        )
        report["probe"] = probe.as_dict()
    _write_json(out / "components.json", report)


def cmd_trace(config: RunConfig) -> None:
    expr, source, name = _resolve_function(config, required=False)
    state = trace_radius_recursion(
        config.alpha, config.d, config.D, config.K, f=expr, r0=config.r0
    )
    out = _out_dir(config)
    report = {"function": source, "corpus": name}
    report.update(state.as_dict())
    _write_json(out / "trace.json", report)


_HANDLERS = {
    "analyze": cmd_analyze,
    "check": cmd_check,
    "render": cmd_render,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        _HANDLERS[args.command](config)
    except ParseError as exc:
        print("parse error at offset %d: %s" % (exc.offset, exc.reason), file=sys.stderr)
        return 2
    except InsufficientSpanError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3
    except (KeyError, ValueError, OSError) as exc:
        print("invalid configuration: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, OverflowError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
