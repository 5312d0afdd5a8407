import collections
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import catsim
from catsim import __version__, catfit, cli, dynamics, hilbert, pipeline, tomography
from catsim.cli import SCHEMAS, main
from catsim.hilbert import JointState


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == __version__


def test_schema_flag(capsys):
    code, out, _ = run(capsys, "--schema")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["commands"]) == set(SCHEMAS)
    assert doc["commands"]["simulate"]["alpha0"]["required"] is True


def test_usage_errors(capsys):
    code, _, _ = run(capsys)
    assert code == 1
    code, _, _ = run(capsys, "frobnicate", "--config", "x.json")
    assert code == 1
    code, _, _ = run(capsys, "simulate")  # --config is mandatory
    assert code == 1


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,\n  "alpha0": }\n', encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "line 2" in err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"schema_version": 1, "alpha0": 1.0}\xff')
    code, _, err = run(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert str(path) in err and "Traceback" not in err


def test_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    # nested past the recursion limit, the JSON reader raises RecursionError
    depth = sys.getrecursionlimit() + 10
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert str(path) in err and "Traceback" not in err


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "bogus_knob": 3})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "bogus_knob" in err


def test_missing_required_field_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "alpha0" in err


def test_wrong_type_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": "big"})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "alpha0" in err


def test_schema_version_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 99, "alpha0": 1.0})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "schema_version" in err


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "t_max": 2.0, "n_times": 11})
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--out",
                     str(out_dir), "--quiet")
    assert code == 0
    assert (out_dir / "trajectory.csv").exists()
    times = json.loads((out_dir / "characteristic_times.json").read_text())
    assert times["t_collapse"] == pytest.approx(0.9, abs=1e-12)


def test_simulate_trajectory_csv_columns(tmp_path, capsys):
    # the closed and the open route write the same columns, one row per time
    for closed in (True, False):
        cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                      "closed": closed, "t_max": 1.0,
                                      "n_times": 5})
        out_dir = tmp_path / f"closed_{closed}"
        code, _, _ = run(capsys, "simulate", "--config", cfg, "--out",
                         str(out_dir), "--quiet")
        assert code == 0
        lines = (out_dir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,P_e,purity,sx,sy,sz,n_mean"
        assert len(lines) == 1 + 5


def test_qubit_phase_scan_rows_are_phase_major(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "n_phases": 3, "t_max": 1.0, "n_times": 4})
    code, _, _ = run(capsys, "qubit-phase-scan", "--config", cfg, "--out",
                     str(tmp_path), "--quiet")
    assert code == 0
    # reference: one row at a time, phase by phase
    times = np.linspace(0.0, 1.0, 4)
    lines = ["phase,time,P_e,sx,sy,sz"]
    for phase in np.linspace(0.0, 2.0 * math.pi, 3):
        c_e = complex(math.cos(phase), math.sin(phase)) / math.sqrt(2.0)
        obs = dynamics.jc_trajectory(dynamics.SystemParams(
            g0=SCHEMAS["qubit-phase-scan"]["g0"].default, alpha0=1.0,
            c_g=1.0 / math.sqrt(2.0), c_e=c_e), 1.0, 4).observables
        for i, t in enumerate(times):
            lines.append(",".join("%.17g" % v for v in (
                phase, t, obs["P_e"][i], obs["sx"][i], obs["sy"][i],
                obs["sz"][i])))
    assert (tmp_path / "phase_scan.csv").read_text() == "\n".join(lines) + "\n"


def test_qubit_phase_scan_builds_no_state(tmp_path, capsys, monkeypatch):
    # the scan reads observables only: no JointState is built, checked or
    # trusted, at any phase or time
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(JointState, "_trusted", classmethod(
        counted("_trusted", JointState._trusted.__func__)))
    monkeypatch.setattr(JointState, "__post_init__",
                        counted("__post_init__", JointState.__post_init__))
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "n_phases": 3, "t_max": 1.0, "n_times": 4})
    code, _, _ = run(capsys, "qubit-phase-scan", "--config", cfg, "--out",
                     str(tmp_path / "scan"), "--quiet")
    assert code == 0
    assert calls == {}
    # nor does the closed simulate, which writes the same observables
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "t_max": 1.0, "n_times": 4})
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--out",
                     str(tmp_path / "closed"), "--quiet")
    assert code == 0
    assert calls == {}
    # the counters see jc_trajectory, which keeps its states
    dynamics.jc_trajectory(dynamics.SystemParams(g0=1.0, alpha0=1.0), 1.0, 4)
    assert calls == {"_trusted": 4}
    JointState(hilbert.HilbertSpace(1), np.array([1.0, 0.0]), "pure")
    assert calls["__post_init__"] == 1


def test_open_simulate_builds_no_state(tmp_path, capsys, monkeypatch):
    # the open run reads its observables from two propagated coherence
    # blocks: no joint state is built, certified or partial-traced
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (hilbert, dynamics, pipeline):
        for name in ("partial_trace", "_psd_certified"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    monkeypatch.setattr(JointState, "_trusted", classmethod(
        counted("_trusted", JointState._trusted.__func__)))
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "closed": False, "t_max": 2.0,
                                  "n_times": 11})
    code, _, _ = run(capsys, "simulate", "--config", cfg,
                     "--out", str(tmp_path / "out"), "--quiet")
    assert code == 0
    assert calls == {}
    # the counters see the full-state route that prepares a cat
    pipeline.prepare_cat(1.0, pipeline.ExperimentConfig())
    assert set(calls) == {"partial_trace", "_psd_certified", "_trusted"}


def test_simulate_vacuum_skips_characteristic_times(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 0.0,
                                  "t_max": 1.0, "n_times": 6})
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--out",
                     str(out_dir), "--quiet")
    assert code == 0
    assert (out_dir / "trajectory.csv").exists()
    assert not (out_dir / "characteristic_times.json").exists()


def test_mass_outputs_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code, _, _ = run(capsys, "mass", "--config", cfg, "--out", str(out),
                         "--quiet")
        assert code == 0
    assert (out_a / "mass.json").read_bytes() == (out_b / "mass.json").read_bytes()
    doc = json.loads((out_a / "mass.json").read_text())
    assert doc["conventions"]["max"]["M0_ug"] == pytest.approx(4.0, rel=0.03)


def test_calibrate_drive_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "drive"})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code, _, _ = run(capsys, "calibrate", "--config", cfg, "--seed", "7",
                         "--out", str(out), "--quiet")
        assert code == 0
    for name in ("drive_samples.csv", "drive_fit.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_calibrate_drive_fit_does_not_depend_on_the_prefactor(tmp_path, capsys):
    # one seed draws the same relative noise, so the samples scale with C
    # and the fitted B stays at the true 0.2 however small C is
    fits = []
    for drive_c in (1.1, 1e-8):
        cfg = write_config(tmp_path, {"schema_version": 1, "kind": "drive",
                                      "drive_c": drive_c})
        out = tmp_path / f"c{drive_c:g}"
        code, _, _ = run(capsys, "calibrate", "--config", cfg, "--seed", "7",
                         "--out", str(out), "--quiet")
        assert code == 0
        fits.append(json.loads((out / "drive_fit.json").read_text()))
    assert fits[0]["B_fit"] == pytest.approx(0.2, rel=0.05)
    assert fits[1]["B_fit"] == pytest.approx(fits[0]["B_fit"], rel=1e-9)
    assert fits[1]["C_fit"] == pytest.approx(1e-8 / 1.1 * fits[0]["C_fit"], rel=1e-9)


@pytest.mark.parametrize("action", ["default", "error", "ignore"])
def test_calibrate_prints_the_drive_fit_warning_in_cli_format(tmp_path, capsys,
                                                              action):
    # at noise 0.1 and seed 0 the samples fall by more than the noise: the
    # warning reaches stderr once in the CLI's format, and the run exits 0,
    # whatever the filters (python -W error::UserWarning included)
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "drive",
                                  "noise": 0.1})
    with warnings.catch_warnings():
        warnings.simplefilter(action, UserWarning)
        code, _, err = run(capsys, "calibrate", "--config", cfg, "--seed", "0",
                           "--out", str(tmp_path / "out"), "--quiet")
    assert code == 0
    assert err == ("catsim: warning: drive calibration data is non-monotone "
                   "beyond noise\n")
    assert (tmp_path / "out" / "drive_fit.json").exists()


def test_seed_changes_samples(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "drive"})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(capsys, "calibrate", "--config", cfg, "--seed", "7", "--out",
        str(out_a), "--quiet")
    run(capsys, "calibrate", "--config", cfg, "--seed", "8", "--out",
        str(out_b), "--quiet")
    assert (out_a / "drive_samples.csv").read_bytes() \
        != (out_b / "drive_samples.csv").read_bytes()


SMALL_TOMO = {"schema_version": 1, "drive_amplitude": 0.25, "n_grid": 5,
              "recon_n_max": 6, "shots": 50}
UNDER_DETERMINED = ("catsim: warning: reconstruction is under-determined: 25 "
                    "parity points for 48 density-matrix parameters (d^2 - 1 "
                    "at recon_n_max 6)\n")


def test_tomo_logs_fit_work_counts(tmp_path, capsys, monkeypatch):
    fits = {}

    def keep(name, fit):
        def wrapped(*args):
            fits[name] = fit(*args)
            return fits[name]
        return wrapped

    for name in ("fit_css", "fit_analytical"):
        monkeypatch.setattr(cli, name, keep(name, getattr(cli, name)))
    cfg = write_config(tmp_path, SMALL_TOMO)
    code, out, err = run(capsys, "tomo", "--config", cfg,
                         "--out", str(tmp_path / "out"))
    assert code == 0
    assert set(fits) == {"fit_css", "fit_analytical"}
    for name, fit in fits.items():
        assert (f"{name} {fit.n_evals} evaluations, {fit.n_capped} capped"
                in out)
    # each fit's first-order stationarity is printed next to its work count
    fc, fa = fits["fit_css"], fits["fit_analytical"]
    assert f"capped, |dF/dalpha| {fc.grad_norm:.1e};" in out
    met = "met" if fa.alpha_converged else "not met"
    assert (f"capped, |dF/dtheta| {fa.theta_slope:.1e}, alpha tolerance {met})"
            in out)
    # the MLE meets its gap threshold, so the one warning is that 5^2 = 25
    # points cannot determine a 7 x 7 density matrix; the gap is recorded
    assert err == UNDER_DETERMINED
    rec = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert rec["mle_converged"] is True
    assert 0.0 <= rec["mle_stationarity_gap"] <= tomography.MLE_GAP_TOL


def test_tomo_samples_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_TOMO)
    code, _, _ = run(capsys, "tomo", "--config", cfg, "--quiet",
                     "--out", str(tmp_path / "out"))
    assert code == 0
    lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert lines[0] == "re_beta,im_beta,parity,shots"
    assert len(lines) == 1 + SMALL_TOMO["n_grid"] ** 2
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"50"}


def test_tomo_warns_when_mle_is_unconverged(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "mle_reconstruct",
                        functools.partial(tomography.mle_reconstruct,
                                          max_iters=1))
    cfg = write_config(tmp_path, SMALL_TOMO)
    code, _, err = run(capsys, "tomo", "--config", cfg, "--quiet",
                       "--out", str(tmp_path / "out"))
    assert code == 0
    rec = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert rec["mle_converged"] is False and rec["mle_iterations"] == 1
    gap = rec["mle_stationarity_gap"]
    assert gap > tomography.MLE_GAP_TOL
    # the one-step iterate is near the maximally mixed start, which no cat
    # fits, so the CSS fit is flagged degenerate too
    mle_line = (f"catsim: warning: MLE not converged after 1 iterations: "
                f"stationarity gap {gap:.2e} > 1e-07\n")
    assert err.startswith(mle_line + UNDER_DETERMINED)
    assert err[len(mle_line + UNDER_DETERMINED):].startswith(
        "catsim: warning: the CSS fit is degenerate: ")
    assert err.count("\n") == 3


def test_tomo_warns_on_a_degenerate_css_fit(tmp_path, capsys, monkeypatch):
    # a degenerate fit's D is no cat size: stderr says why, the log prints
    # no D, and reconstruction.json keeps its layout
    fits = []

    def degenerate(rho):
        fits.append(dataclasses.replace(cli_fit_css(rho), degenerate=True))
        return fits[-1]

    cli_fit_css = cli.fit_css
    monkeypatch.setattr(cli, "fit_css", degenerate)
    cfg = write_config(tmp_path, SMALL_TOMO)
    code, out, err = run(capsys, "tomo", "--config", cfg, "--out", str(tmp_path / "out"))
    assert code == 0
    (fit,) = fits
    assert err == UNDER_DETERMINED + (
        f"catsim: warning: the CSS fit is degenerate: F {fit.fidelity:.4f} lies "
        f"within 0.01 of the fidelity at D = 0.001 (gap {fit.shrink_gap:.1e}), the "
        f"limit of a displaced single-phonon state, so its D is no cat size\n")
    assert "(CSS fit degenerate, no cat size; MLE " in out and "D =" not in out
    rec = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert set(rec["css_fit"]) == {"alpha1", "alpha2", "vartheta", "D", "fidelity"}


def test_tomo_warns_when_a_fit_hits_its_cap(tmp_path, capsys, monkeypatch):
    # one iteration caps both searches: stderr says so under --quiet, which
    # silences the log that carries the capped counts.  7^2 points determine
    # the 7 x 7 reconstruction, so the cap warnings are the only ones
    monkeypatch.setattr(catfit, "FIT_MAXITER", 1)
    cfg = write_config(tmp_path, {**SMALL_TOMO, "drive_amplitude": 0.35,
                                  "n_grid": 7})
    code, out, err = run(capsys, "tomo", "--config", cfg, "--quiet",
                         "--out", str(tmp_path / "out"))
    assert code == 0 and out == ""
    assert err == ("catsim: warning: fit_css stopped at its iteration cap\n"
                   "catsim: warning: fit_analytical stopped at its iteration cap\n")


@pytest.mark.parametrize("field", ["t1_phonon", "t1_qubit", "t2_qubit"])
def test_open_simulate_rejects_nonpositive_lifetimes(tmp_path, capsys, field):
    for value in (0.0, -5.0):
        cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                      "closed": False, field: value})
        code, _, err = run(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert field in err


def test_open_simulate_rejects_t2_beyond_twice_t1(tmp_path, capsys):
    # T2 = 30 us > 2 T1 = 20 us needs a negative dephasing rate: a config
    # error, not a run at the clamped T2 = 2 T1
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "closed": False, "t1_qubit": 10.0,
                                  "t2_qubit": 30.0})
    code, _, err = run(capsys, "simulate", "--config", cfg,
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert "t2_qubit" in err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_numerical_failure_exit_code(tmp_path, capsys):
    # contrast + offset push outcome probabilities beyond 1: a model
    # consistency failure deep in the run, not a config-shape problem
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "parity",
                                  "contrast": 0.9, "offset": 0.2})
    code, _, err = run(capsys, "calibrate", "--config", cfg, "--out",
                       str(tmp_path / "out"), "--quiet")
    assert code == 3
    assert "numerical failure" in err


# a lifetime of 1e-300 us makes the open simulate's propagators overflow to
# nan, and puts the Taylor steps of prepare_cat's evolution beyond their
# bound: each run stops at once, with no state to write, instead of writing
# nan rows or failing later in a fit
@pytest.mark.parametrize("command,payload,message", [
    ("simulate", {"alpha0": 1.0, "closed": False, "t1_phonon": 1e-300,
                  "n_times": 5, "t_max": 1.0}, "trace drift nan at t = "),
    ("decay", {"t1_phonon": 1e-300},
     "||L||_1 dt = 1.798e+302 needs more than 1000 Taylor steps at t = 2.9\n"),
    ("tomo", {"t1_qubit": 1e-300, "t2_qubit": 1e-300},
     "||L||_1 dt = 5.800e+300 needs more than 1000 Taylor steps at t = 2.9\n"),
], ids=["simulate_open", "decay", "tomo"])
def test_nan_states_are_integration_errors(tmp_path, capsys, command,
                                           payload, message):
    cfg = write_config(tmp_path, {"schema_version": 1, **payload})
    start = time.perf_counter()
    code, _, err = run(capsys, command, "--config", cfg,
                       "--out", str(tmp_path / "out"), "--quiet")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "(IntegrationError): " + message in err
    assert "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []


# configs whose values would overflow, underflow or make inf samples: each is
# a config error naming its field, or a numerical failure raised before any
# file is written, never a traceback or a nan in an output
@pytest.mark.parametrize("command,payload,code,message", [
    ("mass", {"p": 200}, 2, "field p:"),
    ("mass", {"l": 300}, 2, "field l:"),
    ("mass", {"l": -200}, 2, "field l:"),
    ("mass", {"w0_um": 1e-300}, 2, "field w0_um:"),
    ("mass", {"w0_um": 1e200}, 2, "field w0_um:"),
    ("mass", {"alpha": 1e300}, 2, "field alpha:"),
    ("mass", {"length_um": 1e300}, 2, "field length_um:"),
    # JSON integers beyond the float range, where a float or a list of
    # numbers is expected
    ("wigner", {"state": "decayed-css", "vartheta": 10 ** 400}, 2, "field vartheta:"),
    ("simulate", {"alpha0": 1.0, "c_e": [0, -10 ** 400]}, 2, "field c_e:"),
    # the mode frequency overflows: nan and inf in 9 fields of mass.json
    ("mass", {"length_um": 1e-300}, 3, "mass.json would hold a nan or inf"),
    ("mass", {"wavelength_um": 1e-300}, 3, "mass.json would hold a nan or inf"),
    # at the smallest waist the mode volume L w0^2, or M_eff omega, underflows
    # to 0, which Python refuses to divide by
    ("mass", {"w0_um": 1e-3, "length_um": 1e-300}, 3,
     "(CatsimError): mode volume L w0^2 of a 1e-300 um long, 0.001 um waist "
     "mode underflows to 0"),
    ("mass", {"w0_um": 1e-3, "length_um": 1e-290}, 3,
     "(CatsimError): M_eff omega of a 1e-290 um long, 0.001 um waist mode "
     "underflows to 0"),
    # a huge raster is refused before any parity or W is computed
    pytest.param("wigner", {"state": "coherent", "extent": 1e300, "n_grid": 5},
                 2, "field extent:",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("tomo", {"extent": 1e300, "n_grid": 5}, 2, "field extent:",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    ("calibrate", {"kind": "drive", "drive_b": 1e-6}, 3, "(FitError)"),
    # the drive model itself overflows: e^(A/B) at B = 1e-300
    pytest.param("calibrate", {"kind": "drive", "drive_b": 1e-300}, 3,
                 "(FitError): drive model C (e^(A/B) - 1) at B = 1e-300",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # samples near the float limit overflow the drive fit's squares
    pytest.param("calibrate", {"kind": "drive", "noise": 1e300}, 3,
                 "(FitError): drive calibration fit diverged: overflow",
                 marks=[pytest.mark.filterwarnings("error::RuntimeWarning"),
                        pytest.mark.filterwarnings(
                            "ignore:drive calibration data is non-monotone")]),
    pytest.param("calibrate", {"kind": "drive", "drive_c": 1e300}, 3,
                 "(FitError): drive calibration fit diverged: overflow",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # the noisy samples themselves overflow, before any fit
    pytest.param("calibrate", {"kind": "drive", "noise": 1e308}, 3,
                 "(FitError): drive calibration samples must be finite",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # past wait 100 us no negativity is left: one positive point is no decay
    pytest.param("decay", {"wait_max": 1000.0}, 3,
                 "(FitError): fewer than two positive negativities",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # |0> - |0> has no norm: refused before W is divided by it
    pytest.param("wigner", {"state": "decayed-css", "alpha": 0.0,
                            "vartheta": math.pi},
                 3, "(FitError): degenerate CSS (components cancel)",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
], ids=["mass_p", "mass_l", "mass_l_negative", "mass_w0", "mass_w0_huge",
        "mass_alpha", "mass_length_huge", "wigner_int_beyond_float",
        "simulate_list_int_beyond_float", "mass_length_tiny",
        "mass_wavelength_tiny", "mass_volume_underflow", "mass_m_eff_underflow",
        "wigner_extent", "tomo_extent", "calibrate_drive", "calibrate_drive_b_tiny",
        "calibrate_drive_noise", "calibrate_drive_c", "calibrate_drive_noise_huge",
        "decay_no_decay_left",
        "wigner_decayed_css_degenerate"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows under test
def test_extreme_configs_exit_without_traceback(tmp_path, capsys, command,
                                                payload, code, message):
    cfg = write_config(tmp_path, {"schema_version": 1, **payload})
    out_dir = tmp_path / "out"
    got, _, err = run(capsys, command, "--config", cfg,
                      "--out", str(out_dir), "--quiet")
    assert got == code
    assert err.startswith("catsim: ") and "Traceback" not in err
    assert message in err
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


def test_wigner_decayed_css(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "state": "decayed-css",
                                  "alpha": 1.2, "kappa_t": 0.1,
                                  "extent": 2.0, "n_grid": 21})
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "wigner", "--config", cfg, "--out", str(out_dir),
                     "--quiet")
    assert code == 0
    meta = json.loads((out_dir / "wigner_meta.json").read_text())
    assert meta["negativity"] > 0.0
    lines = (out_dir / "wigner.csv").read_text().splitlines()
    assert lines[0] == "re_beta,im_beta,w"
    assert len(lines) == 1 + 21 * 21


def test_calibrate_fock_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "fock",
                                  "beta": 1.0, "noise": 0.005})
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "calibrate", "--config", cfg, "--seed", "3",
                     "--out", str(out_dir), "--quiet")
    assert code == 0
    doc = json.loads((out_dir / "fock_fit.json").read_text())
    assert doc["beta_fit"] == pytest.approx(1.0, rel=0.05)


# out-of-bounds values and an unnormalised qubit state are config errors,
# caught before any computation, not tracebacks or numerical failures
@pytest.mark.parametrize("command,payload,field", [
    ("simulate", {"alpha0": 1.0, "c_g": [1, 0, 0]}, "c_g"),
    ("simulate", {"alpha0": 1.0, "g0": -1}, "g0"),
    ("simulate", {"alpha0": 1.0, "n_times": 0}, "n_times"),
    ("simulate", {"alpha0": 1.0, "t_max": -1}, "t_max"),
    ("simulate", {"alpha0": 1.0, "c_g": [0.5, 0], "c_e": [0.5, 0]}, "c_g"),
    ("tomo", {"shots": 0}, "shots"),
    ("tomo", {"recon_n_max": 0}, "recon_n_max"),
    ("simulate", {"alpha0": 1.0, "n_times": 10**9}, "n_times"),
    ("qubit-phase-scan", {"alpha0": 1.0, "n_times": 10**9}, "n_times"),
    ("qubit-phase-scan", {"alpha0": 1.0, "n_phases": 10**9}, "n_phases"),
    ("wigner", {"state": "coherent", "n_grid": 10**9}, "n_grid"),
    ("tomo", {"n_grid": 10**9}, "n_grid"),
    ("tomo", {"shots": 10**9}, "shots"),
    ("tomo", {"recon_n_max": 10**9}, "recon_n_max"),
    ("decay", {"n_waits": 10**9}, "n_waits"),
    ("calibrate", {"kind": "parity", "shots": 10**9}, "shots"),
], ids=["c_g_length", "g0_negative", "n_times_zero", "t_max_negative",
        "qubit_not_normalized", "tomo_shots_zero", "tomo_recon_n_max_zero",
        "n_times_huge", "scan_n_times_huge", "n_phases_huge",
        "wigner_n_grid_huge", "tomo_n_grid_huge", "tomo_shots_huge",
        "recon_n_max_huge", "n_waits_huge", "calibrate_shots_huge"])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, command,
                                               payload, field):
    cfg = write_config(tmp_path, {"schema_version": 1, **payload})
    code, _, err = run(capsys, command, "--config", cfg,
                       "--out", str(tmp_path / "out"), "--quiet")
    assert code == 2
    assert "config error" in err and field in err


def test_tomo_kernel_stack_budget_is_a_config_error(tmp_path, capsys,
                                                   monkeypatch):
    # each field alone is in bounds, but together they ask for a ~26 GB
    # parity-kernel stack: rejected before any state is prepared
    def unreachable(*args, **kwargs):
        raise AssertionError("tomo ran past config validation")

    monkeypatch.setattr(cli, "prepare_cat", unreachable)
    cfg = write_config(tmp_path, {"schema_version": 1, "n_grid": 200,
                                  "recon_n_max": 200})
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "tomo", "--config", cfg,
                           "--out", str(tmp_path / "out"), "--quiet")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "n_grid" in err and "recon_n_max" in err
    assert peak < 2 ** 20
    tomo = SCHEMAS["tomo"]
    assert "recon_n_max" in tomo["n_grid"].desc
    assert "n_grid" in tomo["recon_n_max"].desc


class _Reached(Exception):
    """Raised by a patched solver: the run got past config validation."""


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize("command,solver,payload,fields", [
    # 1,000 phases x 10,000 times: 10^7 rows built before any is written
    ("qubit-phase-scan", "jc_observables",
     {"alpha0": 1.0, "n_phases": 1_000, "n_times": 10_000},
     ("n_phases", "n_times")),
], ids=["phase_scan_rows"])
def test_joint_size_budgets_are_config_errors(tmp_path, capsys, monkeypatch,
                                              command, solver, payload,
                                              fields):
    # each field alone is in bounds; their product is rejected before any
    # state is allocated
    monkeypatch.setattr(cli, solver, _reached)
    cfg = write_config(tmp_path, {"schema_version": 1, **payload})
    tracemalloc.start()
    try:
        code, _, err = run(capsys, command, "--config", cfg,
                           "--out", str(tmp_path / "out"), "--quiet")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "config error" in err and all(f in err for f in fields)
    assert peak < 2 ** 20
    schema = SCHEMAS[command]  # --schema states the budget on both fields
    assert fields[1] in schema[fields[0]].desc
    assert fields[0] in schema[fields[1]].desc


@pytest.mark.parametrize("command,solver,payload", [
    ("simulate", "lindblad_observables", {"alpha0": 6.0, "closed": False}),
    # simulate has no joint budget: an open run holds two coherence blocks
    # and a closed run the JC series, both linear in each field
    ("simulate", "lindblad_observables",
     {"alpha0": 6.0, "closed": False, "n_times": 10_000}),
    ("simulate", "jc_observables", {"alpha0": 6.0, "n_times": 10_000}),
    ("qubit-phase-scan", "jc_observables", {"alpha0": 1.0}),
], ids=["open_default_n_times", "open_max_config", "closed_max_n_times",
        "phase_scan_defaults"])
def test_joint_size_budgets_admit_defaults(tmp_path, capsys, monkeypatch,
                                           command, solver, payload):
    monkeypatch.setattr(cli, solver, _reached)
    cfg = write_config(tmp_path, {"schema_version": 1, **payload})
    with pytest.raises(_Reached):
        main([command, "--config", cfg, "--out", str(tmp_path / "out"),
              "--quiet"])


# the required fields of each command, at admissible values
_REQUIRED = {"simulate": {"alpha0": 1.0}, "qubit-phase-scan": {"alpha0": 1.0},
             "wigner": {"state": "coherent"}, "calibrate": {"kind": "parity"}}
# json.loads admits NaN and +-Infinity: every float field, and every entry
# of a list field, given one of them
_NONFINITE = [
    pytest.param(command, name, value, id=f"{command}-{name}-{text}")
    for command, schema in SCHEMAS.items()
    for name, field in schema.items()
    for text, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))
    if field.typ is float] + [
    pytest.param(command, name, value, id=f"{command}-{name}-{text}")
    for command, schema in SCHEMAS.items()
    for name, field in schema.items()
    for text, value in (("nan_re", [math.nan, 0.0]), ("inf_im", [0.0, math.inf]))
    if field.length is not None]


@pytest.mark.parametrize("command,name,value", _NONFINITE)
def test_nonfinite_config_values_are_config_errors(tmp_path, capsys, command,
                                                   name, value):
    cfg = write_config(tmp_path, {"schema_version": 1,
                                  **_REQUIRED.get(command, {}), name: value})
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, command, "--config", cfg, "--out", str(out_dir),
                       "--quiet")
    assert code == 2
    assert f"config error: config field {name}:" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_schema_lists_value_bounds(capsys):
    code, out, _ = run(capsys, "--schema")
    assert code == 0
    simulate = json.loads(out)["commands"]["simulate"]
    assert simulate["g0"]["exclusive_minimum"] == 0
    assert simulate["n_times"]["minimum"] == 2
    assert simulate["n_times"]["maximum"] == 10_000
    assert simulate["c_g"]["length"] == 2
    assert "minimum" not in simulate["closed"]
    for command, schema in SCHEMAS.items():
        for name, field in schema.items():
            if name != "schema_version" and field.default is not None:
                field.check(name, field.default)  # defaults are admissible


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "drive"})
    code, _, err = run(capsys, "calibrate", "--config", cfg, "--seed", "-1",
                       "--out", str(tmp_path / "out"), "--quiet")
    assert code == 1
    assert "seed" in err


def test_uncreatable_out_dir_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "n_times": 2})
    blocker = tmp_path / "some_file"
    blocker.write_text("not a directory", encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", cfg,
                       "--out", str(blocker / "x"), "--quiet")
    assert code == 2
    assert "config error: cannot create output directory" in err


# importing catsim and running the commands that need no scipy routine must
# not load scipy; each entry is (label, argv, expected exit code)
_SCIPY_FREE_SCRIPT = """
import json, sys
import catsim
from catsim import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = [("import catsim", 0, scipy_modules())]
for label, argv, _ in json.loads(sys.argv[1]):
    code = cli.main(argv)
    report.append((label, code, scipy_modules()))
print(json.dumps(report))
"""


def test_light_commands_load_no_scipy(tmp_path):
    bad = write_config(tmp_path, {"schema_version": 1}, name="bad.json")
    closed = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                     "t_max": 2.0, "n_times": 11},
                          name="closed.json")
    scan = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                   "n_phases": 3, "n_times": 5},
                        name="scan.json")
    coherent = write_config(tmp_path, {"schema_version": 1, "state": "coherent",
                                       "n_grid": 5}, name="coherent.json")
    # the pipeline state runs prepare_cat, whose Lindblad evolution loads no scipy
    pipeline_cat = write_config(tmp_path, {"schema_version": 1,
                                           "state": "pipeline", "n_grid": 5},
                                name="pipeline.json")
    out = str(tmp_path / "out")
    steps = [
        ("--schema", ["--schema"], 0),
        ("config error", ["simulate", "--config", bad, "--out", out], 2),
        ("closed simulate", ["simulate", "--config", closed, "--out", out,
                             "--quiet"], 0),
        ("qubit-phase-scan", ["qubit-phase-scan", "--config", scan,
                              "--out", out, "--quiet"], 0),
        ("wigner coherent", ["wigner", "--config", coherent, "--out", out,
                             "--quiet"], 0),
        ("wigner pipeline", ["wigner", "--config", pipeline_cat, "--out", out,
                             "--quiet"], 0),
    ]
    src = str(Path(catsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_SCRIPT, json.dumps(steps)],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    report = json.loads(proc.stdout.splitlines()[-1])
    expected = [("import catsim", 0)] + [(label, code) for label, _, code in steps]
    assert [(label, code) for label, code, _ in report] == expected
    for label, _, scipy_modules in report:
        assert scipy_modules == [], label
