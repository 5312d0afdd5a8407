"""Run one workload in this process for a time budget; write result.json.

run.py starts this file in a fresh interpreter whose BLAS thread
variables are already pinned, so they hold before numpy loads:

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR

A pass runs every step of the workload once through ``catsim.cli.main``
and is followed by the oracle checks of each step.  Passes repeat until
the budget is spent, so the last one may end up to one pass beyond it.
With ``--trace 1`` passes alternate untraced and traced, starting
untraced, and at least one of each runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from operator import attrgetter
from pathlib import Path

import numpy as np
import scipy

from catsim import catfit, cli, dynamics, hilbert, io_utils, phase_space, \
    pipeline, tomography

from checks import CHECKS
from tracer import Tracer
from workloads import STEP_NAMES, WORKLOADS

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "CATSIM_THREADS")
MODULES = ("cli", "io_utils", "pipeline", "dynamics", "phase_space",
           "tomography", "catfit", "hilbert")


def _proc_status(field: str):
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    a = np.ones((256, 256))
    a @ a  # start the BLAS thread pool before counting threads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": _proc_status("Threads"),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


# -- spans at the layer boundaries ------------------------------------------

def _counts(**fields):
    """Hook adding fn(result) to the count '<span name>.<field>'."""
    def record(tracer, result, name, args):
        for field, fn in fields.items():
            tracer.count(f"{name}.{field}", fn(result))
    return record


def _file_bytes(tracer, result, name, args):
    tracer.count("io_utils.bytes", os.path.getsize(args[0]))


def _wigner_name(args):
    return "phase_space.wigner_" + args[0].kind


def install_spans(tracer: Tracer):
    """Wrap the public functions of each layer that the CLI reaches."""
    states = _counts(states=lambda r: len(r.states))
    fit = _counts(n_evals=attrgetter("n_evals"), converged=attrgetter("converged"))
    for fn in ("write_json", "write_csv"):
        tracer.patch(io_utils, fn, "io_utils.write", _file_bytes)
    for fn in ("cat_decay_time", "prepare_cat", "free_decay",
               "negativity_series", "simulate_tomography"):
        tracer.patch(pipeline, fn, "pipeline." + fn)
    tracer.patch(dynamics, "lindblad_evolve", "dynamics.lindblad_evolve", states)
    tracer.patch(dynamics, "jc_trajectory", "dynamics.jc_trajectory", states)
    tracer.patch(dynamics, "jc_evolve_exact", "dynamics.jc_evolve_exact")
    tracer.patch(phase_space, "wigner", _wigner_name,
                 _counts(points=lambda r: len(r.points)))
    tracer.patch(tomography, "sample_wigner", "tomography.sample_wigner",
                 _counts(points=lambda r: len(r.betas)))
    tracer.patch(tomography, "mle_reconstruct", "tomography.mle_reconstruct",
                 _counts(iterations=attrgetter("iterations"),
                         converged=attrgetter("converged")))
    tracer.patch(catfit, "fit_css", "catfit.fit_css", fit)
    tracer.patch(catfit, "fit_analytical", "catfit.fit_analytical", fit)
    for fn in ("fidelity", "partial_trace", "displacement_operator"):
        tracer.patch(hilbert, fn, "hilbert." + fn)
    tracer.patch(hilbert.JointState, "__post_init__", "hilbert.JointState")
    tracer.patch(hilbert.OperatorSet, "__init__", "hilbert.OperatorSet")


def layer_metrics(spans: dict, counts: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    def secs(name):
        return spans.get(name, {}).get("s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    m = {f"cli.{step}.s": (secs("cli." + step), "s") for step in STEP_NAMES}
    m["io_utils.write.s"] = (secs("io_utils.write"), "s")
    m["io_utils.bytes"] = (counts.get("io_utils.bytes", 0), "bytes")
    for fn in ("prepare_cat", "free_decay", "negativity_series",
               "simulate_tomography"):
        m[f"pipeline.{fn}.s"] = (secs("pipeline." + fn), "s")
    m["dynamics.lindblad_evolve.s"] = (secs("dynamics.lindblad_evolve"), "s")
    m["dynamics.lindblad_evolve.calls"] = (calls("dynamics.lindblad_evolve"), "count")
    m["dynamics.lindblad_evolve.states"] = (
        counts.get("dynamics.lindblad_evolve.states", 0), "count")
    m["dynamics.jc_trajectory.s"] = (secs("dynamics.jc_trajectory"), "s")
    m["dynamics.jc_trajectory.states"] = (
        counts.get("dynamics.jc_trajectory.states", 0), "count")
    name = "phase_space.wigner_mixed"
    points = counts.get(name + ".points", 0)
    m[name + ".s"] = (secs(name), "s")
    m[name + ".points"] = (points, "count")
    m[name + ".us_per_point"] = (per(secs(name), points, 1e6), "us")
    m["tomography.sample_wigner.s"] = (secs("tomography.sample_wigner"), "s")
    m["tomography.sample_wigner.points"] = (
        counts.get("tomography.sample_wigner.points", 0), "count")
    name = "tomography.mle_reconstruct"
    iters = counts.get(name + ".iterations", 0)
    m[name + ".s"] = (secs(name), "s")
    m[name + ".iterations"] = (iters, "count")
    m[name + ".converged"] = (counts.get(name + ".converged", 0), "count")
    m[name + ".ms_per_iter"] = (per(secs(name), iters, 1e3), "ms")
    for fit in ("fit_css", "fit_analytical"):
        name = "catfit." + fit
        evals = counts.get(name + ".n_evals", 0)
        m[name + ".s"] = (secs(name), "s")
        m[name + ".n_evals"] = (evals, "count")
        m[name + ".us_per_eval"] = (per(secs(name), evals, 1e6), "us")
    m["catfit.fit_analytical.converged"] = (
        counts.get("catfit.fit_analytical.converged", 0), "count")
    for fn in ("fidelity", "partial_trace", "displacement_operator"):
        m[f"hilbert.{fn}.calls"] = (calls("hilbert." + fn), "count")
        m[f"hilbert.{fn}.s"] = (secs("hilbert." + fn), "s")
    m["hilbert.JointState.validations"] = (calls("hilbert.JointState"), "count")
    m["hilbert.JointState.s"] = (secs("hilbert.JointState"), "s")
    m["hilbert.OperatorSet.builds"] = (calls("hilbert.OperatorSet"), "count")
    self_total = 0.0
    for module in MODULES:
        own = sum(v["self_s"] for k, v in spans.items()
                  if k.split(".")[0] == module)
        self_total += own
        m[module + ".self_s"] = (own, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (wall - self_total, "s")
    return m


# -- passes -----------------------------------------------------------------

def _capture(captured: dict):
    """Keep simulate_tomography's result for the checks; returns an undo."""
    original = cli.simulate_tomography

    def keep(*args, **kwargs):
        captured["simulate_tomography"] = result = original(*args, **kwargs)
        return result

    cli.simulate_tomography = keep
    return lambda: setattr(cli, "simulate_tomography", original)


def run_pass(steps, out: Path, seed: int, tracer: Tracer | None):
    """Run each step once; returns (wall_s, {step: s}, {step: exit code})."""
    times, codes = {}, {}
    start = time.perf_counter()
    for step in steps:
        argv = [step.command, "--config", str(out / f"{step.name}.json"),
                "--out", str(out / step.name), "--quiet"]
        if step.seeded:
            argv += ["--seed", str(seed)]
        t0 = time.perf_counter()
        with tracer.span("cli." + step.name) if tracer else nullcontext():
            codes[step.name] = cli.main(argv)
        times[step.name] = time.perf_counter() - t0
    return time.perf_counter() - start, times, codes


def run_checks(steps, out: Path, captured: dict, codes: dict) -> list:
    """[(name, ok, value, limit)] for every command and oracle check."""
    results = []
    for step in steps:
        ok = codes[step.name] == 0
        results.append((f"{step.name}.exit_code", ok, codes[step.name], 0))
        if not ok:
            continue
        try:
            checks = CHECKS[step.name](out / step.name, step.config, captured)
        except Exception as exc:  # a malformed output fails its step's checks
            results.append((f"{step.name}.check_error", False, repr(exc), None))
            continue
        results.extend((f"{step.name}.{c.name}", c.ok, c.value, c.limit)
                       for c in checks)
    return results


def _median_dict(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    steps = WORKLOADS[args.workload]
    out = Path(args.out)
    for step in steps:
        (out / f"{step.name}.json").write_text(json.dumps(step.full_config()))
    env = environment()
    tracer = Tracer() if args.trace else None

    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        captured = {}
        if traced:
            install_spans(tracer)
        undo = _capture(captured)
        try:
            wall, step_s, codes = run_pass(steps, out, args.seed,
                                           tracer if traced else None)
        finally:
            undo()
            if traced:
                tracer.unpatch()
        checks = run_checks(steps, out, captured, codes)
        record = {"traced": traced, "wall_s": wall, "step_s": step_s,
                  "checks": checks}
        if traced:
            record["layers"] = layer_metrics(tracer.summary(), tracer.counts,
                                             wall)
            tracer.clear()
        passes.append(record)
        need_traced = tracer is not None and not any(p["traced"] for p in passes)
        if not need_traced and time.perf_counter() - start >= args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    checks = [c for p in passes for c in p["checks"]]
    result = {
        "env": env,
        "passes": len(passes),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "wall_s_all": [p["wall_s"] for p in plain],
        "step_s": _median_dict([p["step_s"] for p in plain]),
        "attempted": len(checks),
        "failed": sum(1 for c in checks if not c[1]),
        "failures": sorted({(c[0], str(c[2]), str(c[3])) for c in checks
                            if not c[1]}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        layers = {name: (statistics.median(p["layers"][name][0] for p in traced),
                         unit)
                  for name, (_, unit) in traced[0]["layers"].items()}
        overhead = layers["trace.wall_s"][0] - result["wall_s"]
        layers["trace.untraced_wall_s"] = (result["wall_s"], "s")
        layers["trace.overhead_s"] = (overhead, "s")
        result["layers"] = layers
        # self times cover the traced pass up to the benchmark's own glue
        gap = abs(layers["trace.unattributed_s"][0])
        ok = gap <= max(abs(overhead), 1e-3)
        result["attempted"] += 1
        result["failed"] += not ok
        if not ok:
            result["failures"].append(("trace.self_times_sum_to_wall", str(gap),
                                       str(abs(overhead))))
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
