"""One benchmark job, run in a fresh interpreter by perfbench/run.py.

Usage: python3 perfbench/job.py '<spec json>'

The spec names the source tree, the job kind ("import", "cli" or
"hyperbolic"), the CLI arguments, the output directory, whether to
trace, and the record file.  Every job starts with cold lru_caches, as
a user's CLI invocation does.

The record (JSON) holds monotonic timestamps taken when the imports
started, when `import merolab.cli` finished and when the reports were
written, the exit status, the peak RSS of this process and, when
traced, every span.  CLOCK_MONOTONIC is system-wide on Linux, so the
parent compares these stamps with its own spawn time.

Tracing wraps the public functions of each layer at every module
attribute of the merolab package where they are bound, so calls across
modules and within a module both pass through the wrapper.  A span is
[name, start, end, parent index, info]; info holds counts taken from
call arguments and return values, never from program internals.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback


class JobKilled(BaseException):
    """Raised by the SIGTERM handler so open spans close and the record is written."""


def _on_term(signum, frame):
    raise JobKilled()


# module -> (layer, public functions wrapped in the traced run)
LAYERS = {
    "merolab.expr.evaluate": ("expr", ("log_polar", "evaluate_many")),
    "merolab.expr.poles": ("expr", ("poles_in_disk", "winding_count")),
    "merolab.nevanlinna": (
        "nevanlinna",
        (
            "build_profile",
            "growth_summary",
            "proximity",
            "counting",
            "characteristic",
            "log_min_modulus",
            "log_max_modulus",
        ),
    ),
    "merolab.criteria": (
        "criteria",
        (
            "check_L_over_r",
            "check_main",
            "check_L_versus_M",
            "check_strong",
            "check_deficiency_order",
        ),
    ),
    "merolab.dynamics": (
        "dynamics",
        (
            "classify_grid",
            "label_components",
            "component_summaries",
            "boundedness_probe",
            "to_ppm",
        ),
    ),
    "merolab.hyperbolic": (
        "hyperbolic",
        ("trace_radius_recursion", "distortion_check", "domain_constant"),
    ),
}


def _points(args, kwargs, out):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return {"points": int(getattr(z, "size", 1))}


def _catalog(args, kwargs, out):
    return {"numeric": int(not out.exact)}


def _profile(args, kwargs, out):
    return {
        "nodes": sum(int(s.quadrature_nodes) for s in out.samples),
        "unconverged": sum(1 for s in out.samples if not s.m_converged),
    }


def _radii(args, kwargs, out):
    radii = {w.r for w in out.witnesses}
    if out.first_failure is not None:
        radii.add(out.first_failure["r"])
    return {"radii": len(radii)}


def _classes(args, kwargs, out):
    return {"pixels": int(out.classes.size), "undecided": int((out.classes == 0).sum())}


def _labels(args, kwargs, out):
    return {"pixels": int(out.labels.size)}


def _samples(args, kwargs, out):
    return {"samples": int(out.samples)}


INFO = {
    "expr.log_polar": _points,
    "expr.evaluate_many": _points,
    "expr.poles_in_disk": _catalog,
    "nevanlinna.build_profile": _profile,
    "criteria.check_main": _radii,
    "criteria.check_L_versus_M": _radii,
    "criteria.check_strong": _radii,
    "dynamics.classify_grid": _classes,
    "dynamics.label_components": _labels,
    "hyperbolic.domain_constant": _samples,
}

# functions whose distinct (f, r) arguments are counted, to show cache use
DISTINCT = ("nevanlinna.log_min_modulus",)


class Tracer:
    """In-memory spans for one job; written out when the job ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.distinct = {name: set() for name in DISTINCT}

    def wrap(self, name, fn):
        info = INFO.get(name)
        seen = self.distinct.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[4] = {"raised": 1}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if seen is not None:
                seen.add((args[0], float(args[1])))
            if info is not None:
                span[4] = info(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Replace each layer function at every merolab attribute bound to it."""
        wrappers = {}
        for modname, (layer, names) in LAYERS.items():
            module = sys.modules[modname]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = self.wrap(layer + "." + fname, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "merolab" and not modname.startswith("merolab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def record(self):
        return {
            "spans": self.spans,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
        }


def _hyperbolic_calls(out_dir):
    """The orbits workload's library calls; writes hyperbolic.json."""
    import merolab

    fatou = merolab.corpus_function("fatou")
    segment = [5.0 + 0.05 * k for k in range(21)]
    report = merolab.distortion_check(fatou, segment, 30, r_esc=50.0)
    anchors = {
        "disk": (merolab.Disk(), 1.0),
        "half_plane": (merolab.HalfPlane(), 0j),
        "punctured_plane": (merolab.PuncturedPlane((0j, 1.0)), 0j),
    }
    constants = {}
    for name, (domain, anchor) in anchors.items():
        got = merolab.domain_constant(domain, anchor)
        constants[name] = {"value": got.value, "samples": got.samples}
    text = json.dumps(
        {"distortion": report.as_dict(), "domain_constants": constants},
        indent=2,
        sort_keys=True,
    )
    with open(out_dir + "/hyperbolic.json", "w") as fh:
        fh.write(text + "\n")
    return 0


def main(spec):
    signal.signal(signal.SIGTERM, _on_term)
    sys.path.insert(0, spec["src"])
    record = {"t_import": time.monotonic()}
    status = "error"
    tracer = None
    try:
        import merolab.cli as cli

        record["t_ready"] = time.monotonic()
        if spec["trace"]:
            tracer = Tracer()
            tracer.install()
        if spec["kind"] == "cli":
            run = cli.main
            args = (spec["argv"] + ["--out", spec["out"]],)
        elif spec["kind"] == "hyperbolic":
            run = _hyperbolic_calls
            args = (spec["out"],)
        else:
            run, args = (lambda: 0), ()
        if tracer is not None:
            run = tracer.wrap("cli.main" if spec["kind"] == "cli" else "lib." + spec["kind"], run)
        status = run(*args)
    except JobKilled:
        status = "killed"
    except Exception:
        traceback.print_exc()
    finally:
        record["t_done"] = time.monotonic()
        record["status"] = status
        record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record.update(tracer.record())
        with open(spec["record"], "w") as fh:
            json.dump(record, fh)
    return status if isinstance(status, int) else 1


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
