#!/usr/bin/env python3
"""merolab benchmark: real CLI jobs, one fresh interpreter per job.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload profile --seed 3 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* profile  - `analyze` on four corpus functions and on a numeric-pole
             function, `trace` on canprod4; plus the known `trace tanz`
             hang, run under a short limit and reported apart.
* criteria - `check` on lacunary2 and canprod4 over [0.1, 100].
* orbits   - four `render` jobs and the hyperbolic library calls.

Jobs run one at a time, each in a fresh interpreter, so every
lru_cache starts cold as it does for a user.  The seed shifts each
radius grid down by a fraction of a grid step and each render window by a
fraction of a pixel; seed 0 is the unshifted configuration.  Passes over
the workload's jobs repeat until --seconds have elapsed (at least one).

--trace 0 prints the end-to-end metrics: wall_s (imports done to
reports written, summed over jobs), cpu_s and peak_rss_mb, each the
median over passes, and setup_s (interpreter start plus `import
merolab.cli`: the median of at least three starts, times the number of
jobs).  --trace 1 runs one untraced and one traced pass
and prints the per-layer metrics of the traced pass, each job's
seconds, and the tracing overhead.  The last line of standard output is
the JSON result.  Output checks run after all passes, outside the timed
region; any failed check or failed job makes "correct" false.
"""

from __future__ import annotations

import os

# one process, one thread: set before numpy loads here or in a job
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

JOB_LIMIT_S = 60.0
PROBE_LIMIT_S = 3.0
KILL_GRACE_S = 5.0
SETUP_SAMPLES = 3
REPLAY_TOL = 1e-9
DEFAULT_GRID = (1.0, 1000.0, 2.0 ** 0.125)
CHECK_GRID = (0.1, 100.0, 2.0 ** 0.5)

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("expr.log_polar.calls", "count"),
    ("expr.log_polar.points", "count"),
    ("expr.log_polar.self_s", "s"),
    ("expr.log_polar.small_calls", "count"),
    ("expr.log_polar.small_self_s", "s"),
    ("expr.evaluate_many.calls", "count"),
    ("expr.evaluate_many.points", "count"),
    ("expr.evaluate_many.self_s", "s"),
    ("expr.poles_in_disk.calls", "count"),
    ("expr.poles_in_disk.self_s", "s"),
    ("expr.poles_in_disk.numeric_catalogs", "count"),
    ("expr.winding_count.calls", "count"),
    ("expr.winding_count.self_s", "s"),
    ("expr.winding_count.raised", "count"),
    ("nevanlinna.build_profile.self_s", "s"),
    ("nevanlinna.quadrature_nodes", "count"),
    ("nevanlinna.m_unconverged", "count"),
    ("nevanlinna.log_min_modulus.calls", "count"),
    ("nevanlinna.log_min_modulus.distinct", "count"),
    ("nevanlinna.log_min_modulus.self_s", "s"),
    ("nevanlinna.characteristic.calls", "count"),
    ("nevanlinna.characteristic.self_s", "s"),
    ("nevanlinna.log_max_modulus.calls", "count"),
    ("nevanlinna.log_max_modulus.self_s", "s"),
    ("nevanlinna.counting.calls", "count"),
    ("nevanlinna.counting.self_s", "s"),
    ("criteria.self_s", "s"),
    ("criteria.radii_tested", "count"),
    ("criteria.kernel_calls_per_radius", "calls/radius"),
    ("dynamics.classify_grid.pixels", "count"),
    ("dynamics.classify_grid.self_s", "s"),
    ("dynamics.evals_per_pixel", "evals/pixel"),
    ("dynamics.undecided_frac", "1"),
    ("dynamics.label_components.pixels", "count"),
    ("dynamics.label_components.self_s", "s"),
    ("dynamics.boundedness_probe.self_s", "s"),
    ("dynamics.render_out.self_s", "s"),
    ("hyperbolic.trace_radius_recursion.self_s", "s"),
    ("hyperbolic.distortion_check.self_s", "s"),
    ("hyperbolic.domain_constant.self_s", "s"),
    ("hyperbolic.domain_constant.samples", "count"),
    ("cli.self_s", "s"),
    ("setup.import_s", "s"),
)

# the criteria functions that walk tested radii with the golden search
SEARCH_CHECKS = ("criteria.check_main", "criteria.check_L_versus_M", "criteria.check_strong")
SMALL_BATCH = 16


# ---------------------------------------------------------------------------
# output checks: each takes a job's output directory, returns problems
# ---------------------------------------------------------------------------


def _load(out: Path, name: str):
    return json.loads((out / name).read_text())


def check_profile(out: Path) -> list:
    problems = []
    for s in _load(out, "profile.json")["samples"]:
        if s["T"] != s["m"] + s["N"]:
            problems.append("T != m + N at r=%r" % s["r"])
        if not s["L"] <= s["M"]:
            problems.append("L > M at r=%r" % s["r"])
        if not s["N"] >= 0:
            problems.append("N < 0 at r=%r" % s["r"])
    return problems


def check_order(lo: float, hi: float, out: Path) -> list:
    order = _load(out, "growth.json")["order"]
    return [] if lo <= order <= hi else ["order %r outside [%r, %r]" % (order, lo, hi)]


def check_trace(out: Path) -> list:
    report = _load(out, "trace.json")
    derived = report["derived"]
    got = (derived["k"], derived["h"], derived["m"], derived["H"])
    problems = [] if got == (2, 4.0, 6, 4096.0) else ["derived (k, h, m, H) = %r" % (got,)]
    if report["radii"][0] != 1.0:
        problems.append("trace does not start at r0 = 1")
    return problems


def check_main_holds(out: Path) -> list:
    main = _load(out, "criteria.json")["conditions"]["main-growth"]
    return [] if main["holds_on_grid"] else ["main-growth failed at %r" % main["first_failure"]]


def check_replay(out: Path) -> list:
    """Recompute every witness's lhs and rhs in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from merolab import characteristic, log_max_modulus, log_min_modulus, parse

    report = _load(out, "criteria.json")
    f = parse(report["function"])
    p = report["params"]
    log_r = math.log

    def main_growth(i, w):
        if i % 2 == 0:
            return log_min_modulus(f, w["t"]), p["alpha"] * characteristic(f, w["r"])
        return characteristic(f, w["t"]), p["D"] * characteristic(f, w["r"])

    replays = {
        "main-growth": main_growth,
        "L-versus-M": lambda i, w: (
            log_min_modulus(f, w["t"]),
            p["d"] * log_max_modulus(f, w["r"]),
        ),
        "strong-characteristic": lambda i, w: (
            log_min_modulus(f, w["t"]),
            p["D"] * characteristic(f, w["r"]),
        ),
        "L-over-r-growth": lambda i, w: (
            log_min_modulus(f, w["r"]) - log_r(w["r"]),
            log_min_modulus(f, w["t"]) - log_r(w["t"]) + log_r(2.0),
        ),
    }
    problems = []
    for condition, replay in replays.items():
        for i, w in enumerate(report["conditions"][condition]["witnesses"]):
            lhs, rhs = replay(i, w)
            if abs(lhs - w["lhs"]) > REPLAY_TOL or abs(rhs - w["rhs"]) > REPLAY_TOL:
                problems.append(
                    "%s witness %d replays to (%r, %r), stored (%r, %r)"
                    % (condition, i, lhs, rhs, w["lhs"], w["rhs"])
                )
    return problems


UNDECIDED, ESCAPING, ATTRACTED, POLE_HIT = 0, 1, 2, 3
POLE_COLOR = (200, 30, 30)


def _ppm_classes(out: Path):
    """Orbit classes decoded from render.ppm (black undecided, gray escaping)."""
    import numpy as np

    data = (out / "render.ppm").read_bytes()
    magic, dims, depth, pixels = data.split(b"\n", 3)
    width, height = map(int, dims.split())
    if magic != b"P6" or depth != b"255" or len(pixels) != width * height * 3:
        raise ValueError("malformed render.ppm")
    rgb = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3).astype(int)
    gray = (rgb[..., 0] == rgb[..., 1]) & (rgb[..., 1] == rgb[..., 2])
    classes = np.full((height, width), ATTRACTED)
    classes[gray & (rgb[..., 0] >= 40)] = ESCAPING
    classes[(rgb == 0).all(axis=2)] = UNDECIDED
    classes[(rgb == POLE_COLOR).all(axis=2)] = POLE_HIT
    return classes


def check_render(out: Path) -> list:
    """Components cover exactly the escaping and attracted pixels."""
    classes = _ppm_classes(out)
    labelled = int(((classes == ESCAPING) | (classes == ATTRACTED)).sum())
    in_components = sum(c["pixels"] for c in _load(out, "components.json")["components"])
    if labelled != in_components:
        return ["%d decided pixels, %d in components" % (labelled, in_components)]
    return []


def check_all_undecided(out: Path) -> list:
    n = int((_ppm_classes(out) != UNDECIDED).sum())
    return ["%d pixels decided, expected none" % n] if n else []


def check_unit_circle(out: Path) -> list:
    """z^2 classes match |z| = 1 truth away from a one-pixel band."""
    import numpy as np

    classes = _ppm_classes(out)
    report = _load(out, "components.json")
    res = report["resolution"]
    hw = report["window"]["half_width"]
    cx, cy = report["window"]["center"]
    frac = (np.arange(res) + 0.5) / res
    xs = cx - hw + 2.0 * hw * frac
    ys = cy + hw - 2.0 * hw * frac
    modulus = np.abs(xs[None, :] + 1j * ys[:, None])
    decisive = np.abs(modulus - 1.0) > 2.0 * hw / res
    truth = np.where(modulus > 1.0, ESCAPING, ATTRACTED)
    wrong = int((classes[decisive] != truth[decisive]).sum())
    return ["%d pixels off the |z| = 1 truth" % wrong] if wrong else []


def check_probe_bounded(out: Path) -> list:
    verdict = _load(out, "components.json")["probe"]["verdict"]
    return [] if verdict == "bounded-empirical" else ["probe verdict %s" % verdict]


def check_hyperbolic(out: Path) -> list:
    report = _load(out, "hyperbolic.json")
    dist = report["distortion"]
    consts = {k: v["value"] for k, v in report["domain_constants"].items()}
    problems = []
    if dist["steps_used"] != 30 or dist["truncated"]:
        problems.append("distortion used %d steps" % dist["steps_used"])
    if not dist["max_ratio"] < 1.2 or dist["trend_detected"]:
        problems.append("distortion grew: %r" % dist["max_ratio"])
    for name in ("disk", "half_plane"):
        if not 0.5 - 1e-12 <= consts[name] <= 0.5 + 5e-4:
            problems.append("%s constant %r, expected 1/2" % (name, consts[name]))
    if not consts["punctured_plane"] < 0.1 * consts["disk"]:
        problems.append("punctured-plane constant %r does not vanish" % consts["punctured_plane"])
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    checks: tuple = ()
    kind: str = "cli"  # or "hyperbolic" (library calls) or "import" (set-up only)
    # a known failure: run once per run under a short limit, reported
    # apart and left out of the measured jobs
    probe: bool = False
    limit_s: float = JOB_LIMIT_S


def _fractions(seed: int):
    """Two seed-derived fractions in [0, 1); both 0 for seed 0."""
    return (seed * 0.6180339887498949) % 1.0, (seed * 0.4142135623730951) % 1.0


def _grid(rmin: float, rmax: float, ratio: float, u: float) -> tuple:
    # Down by at most a tenth of a step.  Down, so 2 r_max stays in the
    # power-of-two pole-catalog bucket of seed 0: one bucket up costs the
    # numeric route four times more.  At most a tenth, so the verdicts and
    # the count of radii past the criteria warm-up stay those of seed 0:
    # lacunary2's L-versus-M flips from 7 witnesses to none past 0.12.
    shift = ratio ** (-0.1 * u)
    return ("--rmin", repr(rmin * shift), "--rmax", repr(rmax * shift), "--ratio", repr(ratio))


def _window(center: complex, half_width: float, res: int, u: float, v: float) -> tuple:
    c = center + complex(u, v) * (2.0 * half_width / res)
    return ("--window", "%r%+.17gj,%r" % (c.real, c.imag, half_width), "--res", str(res))


def profile_jobs(seed: int, tiny: bool) -> list:
    u, _ = _fractions(seed)
    orders = {"expz": (0.95, 1.05), "canprod4": (0.2, 0.5), "lacunary2": (0.0, 0.5), "tanz": (0.95, 1.05)}
    grid = _grid(1.0, 128.0, 2.0 ** 0.25, u) if tiny else _grid(*DEFAULT_GRID, u)
    # tanz keeps the listed grid: how many circles pass near its real-axis
    # poles and hit the 2^20-node quadrature cap (9 of 81 here) moves with
    # any shift, and with it the job's time by up to 30 %
    jobs = [
        Job("analyze-" + name, ("analyze", "--corpus", name)
            + (_grid(*DEFAULT_GRID, 0.0) if name == "tanz" else grid),
            (check_profile, partial(check_order, *band)))
        for name, band in orders.items()
        if not tiny or name == "expz"
    ]
    if not tiny:
        jobs.append(Job("analyze-exp-pole", ("analyze", "--function", "1/(exp(z)-2)")
                        + _grid(0.125, 16.0, DEFAULT_GRID[2], u), (check_profile,)))
    trace = ("--alpha", "0.5", "--d", "2", "--D", "4")
    jobs.append(Job("trace-canprod4", ("trace", "--corpus", "canprod4") + trace, (check_trace,)))
    # needs T(3 R1) with R1 ~ 3.4e13: the tan lattice walks ~6e13 poles
    jobs.append(Job("trace-tanz", ("trace", "--corpus", "tanz") + trace, probe=True,
                    limit_s=PROBE_LIMIT_S))
    return jobs


def criteria_jobs(seed: int, tiny: bool) -> list:
    u, _ = _fractions(seed)
    grid = _grid(*CHECK_GRID, u)
    if tiny:
        return [Job("check-expz", ("check", "--corpus", "expz") + grid, (check_replay,))]
    checks = (check_main_holds, check_replay)
    return [
        Job("check-lacunary2", ("check", "--corpus", "lacunary2") + grid, checks),
        Job("check-canprod4", ("check", "--corpus", "canprod4", "--alpha", "0.3", "--D", "1.5")
            + grid, checks),
    ]


def orbits_jobs(seed: int, tiny: bool) -> list:
    u, v = _fractions(seed)
    if tiny:
        return [
            Job("render-zsq", ("render", "--corpus", "zsq", "--budget", "64")
                + _window(0j, 2.0, 64, u, v), (check_render, check_unit_circle)),
            Job("hyperbolic", (), (check_hyperbolic,), kind="hyperbolic"),
        ]
    return [
        Job("render-fatou", ("render", "--corpus", "fatou", "--budget", "256")
            + _window(0j, 2.0, 256, u, v), (check_render,)),
        Job("render-tanz", ("render", "--corpus", "tanz", "--budget", "256")
            + _window(0j, 3.0, 128, u, v), (check_render, check_all_undecided)),
        Job("render-zsq-1024", ("render", "--corpus", "zsq", "--budget", "64")
            + _window(0j, 2.0, 1024, u, v), (check_render, check_unit_circle)),
        Job("render-zsq-probe", ("render", "--corpus", "zsq", "--budget", "256",
                                 "--scales", "4,8,16") + _window(0j, 2.0, 256, u, v),
            (check_render, check_unit_circle, check_probe_bounded)),
        Job("hyperbolic", (), (check_hyperbolic,), kind="hyperbolic"),
    ]


WORKLOADS = {"profile": profile_jobs, "criteria": criteria_jobs, "orbits": orbits_jobs}


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


@dataclass
class JobRun:
    job: Job
    out: Path
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mib: float
    status: str
    record: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok" and not self.problems

    @property
    def import_s(self) -> float:
        return self.record.get("t_ready", 0.0) - self.record.get("t_import", 0.0)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(job: Job, pass_dir: Path, trace: bool) -> JobRun:
    out = pass_dir / job.name
    out.mkdir(parents=True)
    record_path = pass_dir / (job.name + ".record.json")
    spec = {
        "src": str(SRC),
        "kind": job.kind,
        "argv": list(job.argv),
        "out": str(out),
        "trace": trace,
        "record": str(record_path),
    }
    cmd = [sys.executable, str(BENCH / "job.py"), json.dumps(spec)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=_env(), cwd=str(ROOT), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    killed = False
    try:
        _, err = proc.communicate(timeout=job.limit_s)
    except subprocess.TimeoutExpired:
        killed = True
        proc.send_signal(signal.SIGTERM)
        try:
            _, err = proc.communicate(timeout=KILL_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
    except BaseException:
        # the benchmark itself is stopping: leave no job behind
        proc.kill()
        proc.wait()
        raise
    t_end = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    t_ready = record.get("t_ready", t_spawn)
    t_done = record.get("t_done", t_end)
    if killed:
        status = "killed at %.0f s limit" % job.limit_s
    elif proc.returncode != 0:
        status = "exit %d" % proc.returncode
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        status += (": " + " | ".join(tail)) if tail else ""
    else:
        status = "ok"
    return JobRun(job, out, t_ready - t_spawn, t_done - t_ready, cpu,
                  record.get("maxrss_kib", 0) / 1024.0, status, record)


def run_pass(jobs: list, pass_dir: Path, trace: bool, with_probes: bool) -> list:
    return [run_job(job, pass_dir, trace) for job in jobs if with_probes or not job.probe]


def pass_metrics(runs: list) -> dict:
    measured = [r for r in runs if not r.job.probe]
    return {
        "wall_s": sum(r.wall_s for r in measured),
        "cpu_s": sum(r.cpu_s for r in measured),
        "peak_rss_mb": max(r.rss_mib for r in measured),
    }


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_outputs(passes: list, state_file: Path) -> None:
    """Run every job's checks and the byte-identity checks; problems land on the runs."""
    first = {}
    for runs in passes:
        for r in runs:
            if r.job.probe or r.status != "ok":
                continue
            for check in r.job.checks:
                try:
                    r.problems.extend(check(r.out))
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    r.problems.append("%s: %s: %s" % (getattr(check, "__name__", "check"),
                                                      type(exc).__name__, exc))
            digest = _digest(r.out)
            if first.setdefault(r.job.name, digest) != digest:
                r.problems.append("reports differ from an earlier pass with the same seed")
    # reports of an earlier run with this seed and this source tree
    earlier = json.loads(state_file.read_text()) if state_file.exists() else {}
    for runs in passes[:1]:
        for r in runs:
            if r.job.name in first and earlier.get(r.job.name, first[r.job.name]) != first[r.job.name]:
                r.problems.append("reports differ from an earlier run with the same seed")
    earlier.update(first)
    state_file.parent.mkdir(parents=True, exist_ok=True)
    state_file.write_text(json.dumps(earlier, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def _self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (name, start, end, parent, info), c in zip(spans, child)]


def layer_metrics(runs: list):
    """Per-layer metrics of a traced pass, and self time summed per layer."""
    acc = defaultdict(float)
    layers = defaultdict(float)
    for r in runs:
        if r.job.probe:
            continue
        acc["setup.import_s"] += r.import_s
        for name, n in r.record.get("distinct", {}).items():
            acc[name + ".distinct"] += n
        spans = r.record.get("spans", [])
        # bit 1: inside a criteria search, bit 2: inside classify_grid
        inside = [0] * len(spans)
        for i, ((name, start, end, parent, info), self_s) in enumerate(
                zip(spans, _self_times(spans))):
            flags = inside[parent] if parent >= 0 else 0
            info = info or {}
            acc[name + ".calls"] += 1
            acc[name + ".self_s"] += self_s
            layers[name.split(".")[0]] += self_s
            for key, value in info.items():
                acc[name + "." + key] += value
            if name == "expr.log_polar":
                if info["points"] <= SMALL_BATCH:
                    acc["expr.log_polar.small_calls"] += 1
                    acc["expr.log_polar.small_self_s"] += self_s
                if flags & 1:
                    acc["criteria.kernel_calls"] += 1
            if name == "expr.evaluate_many" and flags & 2:
                acc["dynamics.classify_evals"] += info["points"]
            if name in SEARCH_CHECKS:
                flags |= 1
            if name == "dynamics.classify_grid":
                flags |= 2
            inside[i] = flags
    acc["criteria.self_s"] = layers.get("criteria", 0.0)

    def ratio(a, b):
        return acc[a] / acc[b] if acc[b] else 0.0

    derived = {
        "expr.poles_in_disk.numeric_catalogs": acc["expr.poles_in_disk.numeric"],
        "nevanlinna.quadrature_nodes": acc["nevanlinna.build_profile.nodes"],
        "nevanlinna.m_unconverged": acc["nevanlinna.build_profile.unconverged"],
        "criteria.radii_tested": sum(acc[n + ".radii"] for n in SEARCH_CHECKS),
        "criteria.kernel_calls_per_radius": 0.0,
        "dynamics.evals_per_pixel": ratio("dynamics.classify_evals", "dynamics.classify_grid.pixels"),
        "dynamics.undecided_frac": ratio("dynamics.classify_grid.undecided",
                                         "dynamics.classify_grid.pixels"),
        "dynamics.render_out.self_s": acc["dynamics.to_ppm.self_s"]
        + acc["dynamics.component_summaries.self_s"],
        "cli.self_s": acc["cli.main.self_s"],
    }
    if derived["criteria.radii_tested"]:
        derived["criteria.kernel_calls_per_radius"] = (
            acc["criteria.kernel_calls"] / derived["criteria.radii_tested"])
    return {name: derived.get(name, acc[name]) for name, _ in PER_LAYER}, layers


def _top_self(run: JobRun) -> str:
    """A traced job's three largest self times, with their share of the job's wall."""
    by_name = defaultdict(float)
    spans = run.record.get("spans", [])
    for (name, *_), self_s in zip(spans, _self_times(spans)):
        by_name[name] += self_s
    top = sorted(by_name.items(), key=lambda kv: -kv[1])[:3]
    return ", ".join("%s %.2f s (%.0f %%)" % (name, t, 100.0 * t / run.wall_s) for name, t in top)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _print_jobs(label: str, runs: list) -> None:
    print("%s pass, seconds per job:" % label)
    for r in runs:
        flag = r.status if r.status != "ok" else ("ok" if not r.problems else "CHECK FAILED")
        print("  %-20s setup %7.3f s  wall %8.3f s  cpu %8.3f s  rss %7.1f MiB  %s%s"
              % (r.job.name, r.setup_s, r.wall_s, r.cpu_s, r.rss_mib, flag,
                 "  [known failure, not measured]" if r.job.probe else ""))
        if r.record.get("spans"):
            print("      self time: %s" % _top_self(r))
        for problem in r.problems[:5]:
            print("      problem: %s" % problem)


def _print_metrics(title: str, values: dict, units) -> None:
    print(title)
    for name, unit in units:
        print("  %s = %.6g %s" % (name, values[name], unit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small seed-0 style jobs, for the smoke test")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "merolab" / "cli.py").is_file():
        print("no merolab source tree at %s" % SRC, file=sys.stderr)
        return 2
    tag = "%s-seed%d%s" % (args.workload, args.seed, "-tiny" if args.tiny else "")
    work = WORK / "work" / tag
    shutil.rmtree(work, ignore_errors=True)

    jobs = WORKLOADS[args.workload](args.seed, args.tiny)
    passes = []
    if args.trace:
        passes.append(run_pass(jobs, work / "pass0", False, with_probes=False))
        passes.append(run_pass(jobs, work / "pass1", True, with_probes=True))
        untraced = passes[:1]
    else:
        t_start = time.monotonic()
        while not passes or time.monotonic() - t_start < args.seconds:
            passes.append(run_pass(jobs, work / ("pass%d" % len(passes)), False,
                                   with_probes=not passes))
        untraced = passes

    state = WORK / "state" / ("%s-%s.json" % (tag, _source_digest()))
    check_outputs(passes, state)

    print("merolab benchmark: workload %s, seed %d, %d pass(es), tracing %s"
          % (args.workload, args.seed, len(passes), "on" if args.trace else "off"))
    for i, runs in enumerate(passes):
        _print_jobs("traced" if args.trace and i == 1 else "untraced", runs)
    per_pass = [pass_metrics(runs) for runs in untraced]
    e2e = {name: statistics.median(m[name] for m in per_pass)
           for name, _ in END_TO_END if name != "setup_s"}
    # set-up is the same for every job: the median start, times the jobs
    starts = [r for runs in untraced for r in runs if "t_ready" in r.record]
    starts += [run_job(Job("import-%d" % i, (), kind="import"), work / "setup", False)
               for i in range(SETUP_SAMPLES - len(starts))]
    n_measured = sum(not job.probe for job in jobs)
    e2e["setup_s"] = n_measured * statistics.median(r.setup_s for r in starts)
    import_s = n_measured * statistics.median(r.import_s for r in starts)
    _print_metrics("end-to-end (median of %d untraced pass(es)):" % len(per_pass), e2e, END_TO_END)

    all_runs = [r for runs in passes for r in runs]
    measured = [r for r in all_runs if not r.job.probe]
    probes = [r for r in all_runs if r.job.probe]
    failed = sum(not r.ok for r in measured)
    probe_failed = sum(r.status != "ok" for r in probes)
    print("  fail_ratio = %.6g 1   (%d of %d jobs, the known-failure job included)"
          % ((failed + probe_failed) / len(all_runs), failed + probe_failed, len(all_runs)))
    print("  setup.import_s = %.6g s   (import merolab.cli alone, part of setup_s)" % import_s)
    for r in probes:
        print("known failure %s (%s): %s" % (r.job.name, " ".join(r.job.argv), r.status))

    result_metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        traced = passes[1]
        layers, self_by_layer = layer_metrics(traced)
        _print_metrics("per-layer (traced pass):", layers, PER_LAYER)
        traced_wall = pass_metrics(traced)["wall_s"]
        print("self time by layer, share of traced wall_s %.3f s:" % traced_wall)
        for layer, own in sorted(self_by_layer.items(), key=lambda kv: -kv[1]):
            print("  %-11s %8.3f s  %5.1f %%" % (layer, own, 100.0 * own / traced_wall))
        print("tracing overhead: traced wall_s - untraced wall_s = %.3f s (%+.1f %%)"
              % (traced_wall - e2e["wall_s"], 100.0 * (traced_wall / e2e["wall_s"] - 1.0)))
        result_metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(measured),
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
