"""Tests of the benchmark itself: every oracle check rejects a corrupted
result, the tracer accounts for time and restores what it patches, and a
smoke-sized pass runs every step of every workload.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import worker
from catsim import catfit, hilbert, io_utils
from catsim.catfit import analytical_target, css_state
from catsim.dynamics import SystemParams, excited_population
from catsim.hilbert import HilbertSpace, JointState, coherent_state, fidelity
from catsim.phase_space import raster_grid
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def write_csv(path, columns: dict):
    io_utils.write_csv(path, list(columns), zip(*columns.values()))


def failing(results):
    return {c.name for c in results if not c.ok}


# -- decay ------------------------------------------------------------------

def decay_out(tmp_path, negativities, tau):
    write_csv(tmp_path / "negativity_decay.csv",
              {"wait": np.arange(len(negativities), dtype=float),
               "negativity": np.asarray(negativities, dtype=float)})
    (tmp_path / "decay_fit.json").write_text(json.dumps({"tau_cat": tau}))
    return checks.check_decay(tmp_path, {}, {})


def test_decay_checks(tmp_path):
    assert failing(decay_out(tmp_path, [0.3, 0.2, 0.1, 0.05], 12.0)) == set()
    assert failing(decay_out(tmp_path, [0.3, -0.01, 0.1, 0.0], 12.0)) == {
        "negativities_finite_nonnegative"}
    assert "negativities_finite_nonnegative" in failing(
        decay_out(tmp_path, [0.3, math.nan, 0.1, 0.0], 12.0))
    assert failing(decay_out(tmp_path, [0.0, 0.2, 0.1, 0.0], 12.0)) == {
        "first_negativity_positive"}
    for tau in (0.0, -1.0, math.nan, math.inf):
        assert failing(decay_out(tmp_path, [0.3, 0.2, 0.1, 0.0], tau)) == {
            "tau_cat_finite_positive"}


# -- tomo -------------------------------------------------------------------

def test_displaced_parities_of_coherent_state():
    space = HilbertSpace(20)
    rho = coherent_state(0.7, space).density_matrix()
    betas = raster_grid(2.2, 5).points
    expected = np.exp(-2.0 * np.abs(betas - 0.7) ** 2)
    assert np.allclose(checks.displaced_parities(rho, betas), expected,
                       atol=1e-9)


def tomo_case(tmp_path, ll=(1.0, 2.0, 2.5), parity_shift=0.0,
              css_shift=0.0, ana_shift=0.0):
    cfg = {"drive_amplitude": 0.25}
    space = HilbertSpace(8)
    state = JointState(space, coherent_state(0.8, space).density_matrix(),
                       "mixed")
    betas = raster_grid(1.5, 5).points
    parities = checks.displaced_parities(state.data, betas) + parity_shift
    samples = SimpleNamespace(betas=betas, parities=parities)
    mle = SimpleNamespace(state=state, log_likelihoods=np.array(ll))
    t_cat, g0 = (checks.SCHEMAS["tomo"][k].default for k in ("t_cat", "g0"))
    f_css = fidelity(css_state(0.8, -0.8, 0.0, space), state)
    f_ana = fidelity(state, analytical_target(0.9, 0.3, 1.0, 0.0, t_cat, g0,
                                              space))
    (tmp_path / "reconstruction.json").write_text(json.dumps({
        "css_fit": {"alpha1": [0.8, 0.0], "alpha2": [-0.8, 0.0],
                    "vartheta": 0.0, "fidelity": f_css + css_shift},
        "analytical_fit": {"alpha_fit": 0.9, "theta": 0.3,
                           "fidelity": f_ana + ana_shift},
    }))
    return checks.check_tomo(tmp_path, cfg,
                             {"simulate_tomography": (samples, mle)})


def test_tomo_checks(tmp_path):
    sigma = 1.0 / (0.9 * math.sqrt(500))
    assert failing(tomo_case(tmp_path)) == set()
    assert failing(tomo_case(tmp_path, parity_shift=1.9 * sigma)) == set()
    assert failing(tomo_case(tmp_path, ll=(1.0, 2.0, 1.5))) == {
        "mle_loglike_nondecreasing"}
    assert failing(tomo_case(tmp_path, parity_shift=2.1 * sigma)) == {
        "mle_parity_rms_sigmas"}
    assert failing(tomo_case(tmp_path, css_shift=2e-6)) == {
        "css_fit_fidelity_recomputed"}
    assert failing(tomo_case(tmp_path, ana_shift=-2e-6)) == {
        "analytical_fit_fidelity_recomputed"}


# -- trajectory -------------------------------------------------------------

def test_open_simulate_check(tmp_path):
    cfg = {"alpha0": 2.0, "closed": False}
    t = np.linspace(0.0, 10.0, 501)
    kappa = 1.0 / 84.0
    # excitations all in the phonon, relaxing at kappa
    n_mean = 4.0 * np.exp(-kappa * t)

    def run(n):
        write_csv(tmp_path / "trajectory.csv",
                  {"t": t, "P_e": np.zeros_like(t), "n_mean": n})
        return checks.check_open_simulate(tmp_path, cfg, {})

    assert failing(run(n_mean)) == set()
    assert failing(run(n_mean + 1e-3)) == {"excitation_balance"}
    # qubit decay ignored: loss at 2 kappa violates the balance
    assert failing(run(4.0 * np.exp(-2 * kappa * t))) == {"excitation_balance"}


def test_closed_simulate_check(tmp_path):
    cfg = {"alpha0": 2.0}
    times = np.linspace(0.0, 10.0, 501)
    g0 = checks.SCHEMAS["simulate"]["g0"].default
    pe = excited_population(SystemParams(g0=g0, alpha0=2.0), times)

    def run(values):
        write_csv(tmp_path / "trajectory.csv",
                  {"t": times[:len(values)], "P_e": values})
        return checks.check_closed_simulate(tmp_path, cfg, {})

    assert failing(run(pe)) == set()
    bad = pe.copy()
    bad[100] += 1e-6
    assert failing(run(bad)) == {"pe_matches_exact_series"}
    assert failing(run(pe[:-1])) == {"pe_matches_exact_series"}


def test_phase_scan_check(tmp_path):
    phi = np.linspace(0.0, 6.0, 50)
    unit = {"sx": np.cos(phi) * 0.6, "sy": np.sin(phi) * 0.6,
            "sz": np.full_like(phi, 0.8)}

    def run(scale):
        write_csv(tmp_path / "phase_scan.csv",
                  {k: v * scale for k, v in unit.items()})
        return checks.check_phase_scan(tmp_path, {}, {})

    assert failing(run(1.0)) == set()
    assert failing(run(1.001)) == {"bloch_length_at_most_one"}


def test_every_step_has_a_check():
    steps = [s.name for steps in WORKLOADS.values() for s in steps]
    assert sorted(steps) == sorted(checks.CHECKS)


# -- tracer -----------------------------------------------------------------

def test_tracer_self_times_and_unpatch():
    tracer = Tracer()
    original = hilbert.fidelity
    tracer.patch(hilbert, "fidelity", "hilbert.fidelity")
    assert catfit.fidelity is hilbert.fidelity is not original
    space = HilbertSpace(6)
    rho = JointState(space, np.eye(7) / 7.0, "mixed")
    psi = coherent_state(0.5, space)
    with tracer.span("root"):
        catfit.fidelity(rho, psi)  # recurses once inside hilbert
    tracer.unpatch()
    assert catfit.fidelity is original and hilbert.fidelity is original
    spans = tracer.summary()
    assert spans["hilbert.fidelity"]["calls"] == 1
    total_self = sum(v["self_s"] for v in spans.values())
    assert total_self == pytest.approx(spans["root"]["s"], rel=1e-9)
    assert spans["hilbert.fidelity"]["s"] <= spans["root"]["s"]


# -- smoke pass -------------------------------------------------------------

SMOKE = {
    "decay": {"n_waits": 4},
    "tomo": {"shots": 200, "n_grid": 5, "recon_n_max": 8},
    "simulate_open_a2": {"t_max": 1.0, "n_times": 21},
    "simulate_open_a3": {"t_max": 1.0, "n_times": 21},
    "simulate_closed_a2": {"n_times": 21},
    "qubit_phase_scan": {"n_phases": 3, "n_times": 11},
}


# counts each workload's traced pass must record
WORK_COUNTS = {
    "decay": ["phase_space.wigner_mixed.points",
              "dynamics.lindblad_evolve.states", "io_utils.bytes",
              "hilbert.displacement_operator.calls"],
    "tomo": ["tomography.sample_wigner.points",
             "tomography.mle_reconstruct.iterations", "catfit.fit_css.n_evals",
             "catfit.fit_analytical.n_evals", "hilbert.fidelity.calls",
             "hilbert.JointState.validations"],
    "trajectory": ["dynamics.lindblad_evolve.states",
                   "dynamics.jc_trajectory.states", "hilbert.partial_trace.calls",
                   "hilbert.OperatorSet.builds"],
}


def smoke_steps(workload):
    return [dataclasses.replace(s, config={**s.config, **SMOKE[s.name]})
            for s in WORKLOADS[workload]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_pass_runs_every_step(tmp_path, workload):
    steps = smoke_steps(workload)
    for step in steps:
        (tmp_path / f"{step.name}.json").write_text(
            json.dumps(step.full_config()))
    tracer = Tracer()
    worker.install_spans(tracer)
    captured = {}
    undo = worker._capture(captured)
    try:
        wall, step_s, codes = worker.run_pass(steps, tmp_path, 3, tracer)
    finally:
        undo()
        tracer.unpatch()
    assert codes == {s.name: 0 for s in steps}
    results = worker.run_checks(steps, tmp_path, captured, codes)
    names = {r[0] for r in results}
    for step in steps:
        assert f"{step.name}.exit_code" in names
        assert any(n.startswith(step.name + ".") and not n.endswith(
            (".exit_code", ".check_error")) for n in names)
    layers = worker.layer_metrics(tracer.summary(), tracer.counts, wall)
    for step in steps:
        assert layers[f"cli.{step.name}.s"][0] > 0.0
    for name in WORK_COUNTS[workload]:
        assert layers[name][0] > 0, name
    # self times cover the pass except the loop between steps
    assert 0.0 <= layers["trace.unattributed_s"][0] < 0.01 * wall + 1e-3


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = worker.layer_metrics({}, {}, 1.0)
    produced = {name: unit for name, (_, unit) in layers.items()}
    produced.update({"trace.untraced_wall_s": "s", "trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == produced
    assert [m["name"] for m in spec["workloads"]] == list(WORKLOADS)


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
