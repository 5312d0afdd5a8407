"""Batch command-line front end.

Every subcommand is a pure function of (config, seed): it reads a JSON
config, runs one of the module pipelines, and writes CSV/JSON tables into
the output directory with fixed float formatting, so repeated runs with
the same inputs are byte-identical.

Exit codes: 0 success, 1 usage error, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import __version__, io_utils
from .acoustics import AcousticMode, delocalization, half_wavelength_mass, \
    mass_model
from .catfit import CSS_FLAT_TOL, CSS_SHRUNK_D, css_state, fit_analytical, \
    fit_css
from .dynamics import OBSERVABLE_COLUMNS, SystemParams, \
    characteristic_times, excited_population, jc_observables, \
    lindblad_observables
from .errors import CatsimError, ConfigError, FitError
from .hilbert import HilbertSpace, coherent_state, default_cutoff
from .phase_space import decayed_css_wigner, negativity, raster_grid, wigner
from .pipeline import T1_PHONON_DEFAULT, T1_QUBIT_DEFAULT, T2_QUBIT_DEFAULT, \
    ExperimentConfig, cat_decay_time, drive_alpha, prepare_cat, \
    simulate_tomography
from .tomography import MLE_GAP_TOL, DriveCalibration, ReadoutModel, \
    calibrate_drive, calibrate_parity, extract_fock_populations

SCHEMA_VERSION = 1


# (bound keyword, test a value must pass, its wording in messages)
_BOUNDS = (("minimum", operator.ge, ">="),
           ("exclusive_minimum", operator.gt, ">"),
           ("maximum", operator.le, "<="))


def _finite(value) -> bool:
    """Whether a JSON number is finite: json.loads admits NaN and Infinity,
    and an integer beyond the float range is not finite as a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class _Field:
    """One config field: its type, default and the values it admits.

    minimum / exclusive_minimum / maximum bound a number; length fixes the
    number of entries of a list, whose entries must be numbers.  Bounds
    appear in --schema and a value outside them is a config error (exit 2).
    """

    def __init__(self, typ, required=False, default=None, desc="",
                 minimum=None, exclusive_minimum=None, maximum=None,
                 length=None):
        self.typ = typ
        self.required = required
        self.default = default
        self.desc = desc
        self.minimum = minimum
        self.exclusive_minimum = exclusive_minimum
        self.maximum = maximum
        self.length = length

    def constraints(self) -> dict:
        keys = [key for key, _, _ in _BOUNDS] + ["length"]
        return {key: getattr(self, key) for key in keys
                if getattr(self, key) is not None}

    def check(self, name: str, value):
        """Raise ConfigError unless value lies within the field's bounds; a
        float, and every entry of a list, must also be finite."""
        if self.length is not None and (len(value) != self.length or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and _finite(v) for v in value)):
            raise ConfigError(
                f"config field {name}: expected a list of {self.length} "
                f"finite numbers, got {value!r}")
        if self.typ is float and not _finite(value):
            raise ConfigError(f"config field {name}: must be finite, got {value}")
        for key, admits, wording in _BOUNDS:
            bound = getattr(self, key)
            if bound is not None and not admits(value, bound):
                raise ConfigError(
                    f"config field {name}: must be {wording} {bound}, "
                    f"got {value}")


# Fock cutoffs grow as 4 |alpha|^2 (hilbert.default_cutoff); |alpha| <= 6
# keeps every state within the n_max ~ 150 the dense matrices are sized for
_MAX_AMPLITUDE = 6.0
# the longest admitted mode geometry (w0, length), 1 m; see the mass schema
_MAX_LENGTH_UM = 1e6
# the largest raster half-width: W of any state within _MAX_AMPLITUDE has
# vanished long before |beta| = 100, and an extent of 1000 still runs
# without a floating-point warning
_MAX_EXTENT = 100.0


def _amplitude(default=None, required=False, desc=""):
    return _Field(float, required=required, default=default, desc=desc,
                  minimum=-_MAX_AMPLITUDE, maximum=_MAX_AMPLITUDE)


def _positive(default, desc="", maximum=None):
    return _Field(float, default=default, desc=desc, exclusive_minimum=0,
                  maximum=maximum)


def _experiment_fields():
    return {
        "g0": _positive(ExperimentConfig().g0, desc="JC coupling, rad/us"),
        "t_cat": _positive(ExperimentConfig().t_cat,
                           desc="interaction time, us"),
        "t1_phonon": _positive(T1_PHONON_DEFAULT, desc="phonon T1, us"),
        "t1_qubit": _positive(T1_QUBIT_DEFAULT, desc="qubit T1, us"),
        "t2_qubit": _positive(T2_QUBIT_DEFAULT, desc="qubit T2, us; <= 2 t1_qubit"),
    }


# Counts (n_times, n_phases, n_grid, n_waits, shots, recon_n_max) have a
# maximum, >= 10x every default, test and benchmark config, so a huge count
# is a config error instead of a run that exhausts memory or time.  Where two
# fields multiply into one allocation, a joint budget, >= 10x the same
# configs, is checked before anything is allocated:
# - qubit-phase-scan: n_phases x n_times rows, 4,221 at the defaults (~47x);
# - tomo: the MLE's n_grid^2 x (recon_n_max + 1)^2 x 16 B parity-kernel
#   stack, 0.85 MB at the defaults (~78x, ~200x for the benchmark).
# simulate needs none: at its largest config (alpha0 6, n_times 10,000) an
# open run, which holds only the k = 0 and k = 1 coherence blocks, peaks at
# ~300 MiB, and a closed run, which builds no state, peaks at ~140 MB of JC
# series and its temporaries
_SCAN_ROWS = 200_000
_SCAN_LIMIT = f"n_phases * n_times must not exceed {_SCAN_ROWS} (the scan rows)"
_KERNEL_STACK_BYTES = 64 * 2 ** 20
_STACK_LIMIT = (f"n_grid^2 * (recon_n_max + 1)^2 * 16 B must not exceed "
                f"{_KERNEL_STACK_BYTES} B (the MLE kernel stack)")
SCHEMAS = {
    "simulate": {
        "schema_version": _Field(int, required=True),
        "alpha0": _amplitude(required=True,
                             desc="initial coherent amplitude"),
        "g0": _positive(ExperimentConfig().g0),
        "c_g": _Field(list, default=[1.0, 0.0], length=2,
                      desc="qubit ground amplitude [re, im]"),
        "c_e": _Field(list, default=[0.0, 0.0], length=2,
                      desc="qubit excited amplitude [re, im]"),
        "t_max": _positive(10.0, desc="trajectory end time, us"),
        "n_times": _Field(int, default=501, minimum=2, maximum=10_000),
        "closed": _Field(bool, default=True, desc="skip dissipation channels"),
        "t1_phonon": _positive(T1_PHONON_DEFAULT),
        "t1_qubit": _positive(T1_QUBIT_DEFAULT),
        "t2_qubit": _positive(T2_QUBIT_DEFAULT, desc="qubit T2, us; <= 2 t1_qubit"),
    },
    "qubit-phase-scan": {
        "schema_version": _Field(int, required=True),
        "alpha0": _amplitude(required=True),
        "g0": _positive(ExperimentConfig().g0),
        "n_phases": _Field(int, default=21, minimum=1, maximum=1_000,
                           desc=_SCAN_LIMIT),
        "t_max": _positive(10.0),
        "n_times": _Field(int, default=201, minimum=1, maximum=10_000,
                          desc=_SCAN_LIMIT),
    },
    "wigner": {
        "schema_version": _Field(int, required=True),
        "state": _Field(str, required=True,
                        desc="'coherent', 'css', 'decayed-css', or 'pipeline'"),
        "alpha": _amplitude(1.5, desc="amplitude (real)"),
        "vartheta": _Field(float, default=0.0, desc="CSS superposition phase"),
        "kappa_t": _Field(float, default=0.0, minimum=0,
                          desc="decayed-css: kappa * t of the decay"),
        "drive_amplitude": _Field(float, default=0.35, desc="pipeline preset"),
        "extent": _positive(3.0, maximum=_MAX_EXTENT),
        "n_grid": _Field(int, default=81, minimum=1, maximum=1_000),
        **_experiment_fields(),
    },
    # the default 11 x 11 raster over +-2.2 spaces its points 0.44 apart,
    # below half the fringe wavelength, pi / (4 D) = 0.46, of the largest
    # default cat (fit_css gives D = 1.70 at drive 0.35)
    "tomo": {
        "schema_version": _Field(int, required=True),
        "drive_amplitude": _Field(float, default=0.35),
        "contrast": _Field(float, default=0.9, exclusive_minimum=0,
                           maximum=1.0),
        "offset": _Field(float, default=0.02),
        "shots": _Field(int, default=500, minimum=1, maximum=10_000_000),
        "extent": _positive(2.2, maximum=_MAX_EXTENT),
        "n_grid": _Field(int, default=11, minimum=1, maximum=200,
                         desc="tomography raster points per axis; "
                              + _STACK_LIMIT),
        "recon_n_max": _Field(int, default=20, minimum=1, maximum=200,
                              desc="reconstruction Fock cutoff; "
                                   + _STACK_LIMIT),
        "seed": _Field(int, default=0, minimum=0),
        **_experiment_fields(),
    },
    "decay": {
        "schema_version": _Field(int, required=True),
        "drive_amplitude": _Field(float, default=0.35),
        "wait_max": _positive(40.0, desc="longest wait time, us"),
        "n_waits": _Field(int, default=11, minimum=4, maximum=1_000,
                          desc="the decay fit needs 4 points"),
        **_experiment_fields(),
    },
    # p + |l| <= 100 keeps the Laguerre-Gauss (p + |l|)! below 170!, the float
    # limit, and w0_um >= 1e-3 keeps w0^2 in m^2 clear of underflow.  Lengths
    # up to 1 m keep w0^2 and the mode mass clear of overflow, and the
    # one-phonon displacement u^2 ~ 1 / length clear of underflow; a length
    # or wavelength so tiny that the mode leaves the float range is a numerical failure
    "mass": {
        "schema_version": _Field(int, required=True),
        "w0_um": _Field(float, default=27.0, minimum=1e-3,
                        maximum=_MAX_LENGTH_UM),
        "length_um": _Field(float, default=435.0, exclusive_minimum=0,
                            maximum=_MAX_LENGTH_UM),
        "wavelength_um": _positive(1.7),
        "p": _Field(int, default=0, minimum=0, maximum=50),
        "l": _Field(int, default=0, minimum=-50, maximum=50),
        "alpha": _Field(float, default=1.61, minimum=0,
                        maximum=_MAX_AMPLITUDE,
                        desc="cat size for delocalization"),
    },
    "calibrate": {
        "schema_version": _Field(int, required=True),
        "kind": _Field(str, required=True, desc="'drive', 'parity', or 'fock'"),
        "seed": _Field(int, default=0, minimum=0),
        "contrast": _Field(float, default=0.9, exclusive_minimum=0,
                           maximum=1.0),
        "offset": _Field(float, default=0.02),
        "shots": _Field(int, default=10000, minimum=1, maximum=10_000_000),
        "drive_b": _positive(0.2, desc="true drive exponent scale"),
        "drive_c": _positive(1.1, desc="true drive prefactor"),
        "noise": _Field(float, default=0.01, minimum=0,
                        desc="relative noise on samples"),
        "beta": _amplitude(1.3, desc="fock: true coherent amplitude"),
        "g0": _positive(ExperimentConfig().g0),
    },
}


def _load_config(path: str, command: str) -> dict:
    schema = SCHEMAS[command]
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply to parse") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    out = {}
    for name, field in schema.items():
        if name not in data:
            if field.required:
                raise ConfigError(f"missing required config field: {name}")
            out[name] = field.default
            continue
        value = data[name]
        if field.typ is float and isinstance(value, int) \
                and not isinstance(value, bool) and _finite(value):
            value = float(value)
        if not isinstance(value, field.typ) or isinstance(value, bool) \
                and field.typ is not bool:
            raise ConfigError(
                f"config field {name}: expected {field.typ.__name__}, "
                f"got {type(value).__name__}")
        field.check(name, value)
        out[name] = value
    if out["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config field schema_version: expected {SCHEMA_VERSION}, "
            f"got {out['schema_version']}")
    return out


def _check_budget(fields: str, need: int, budget: int, limit: str):
    """Config error unless the joint need of several fields fits its budget."""
    if need > budget:
        raise ConfigError(f"config fields {fields}: {limit}, got {need}")


def _experiment_config(cfg: dict) -> ExperimentConfig:
    return ExperimentConfig(g0=cfg["g0"], t_cat=cfg["t_cat"],
                            t1_phonon=cfg["t1_phonon"],
                            t1_qubit=cfg["t1_qubit"], t2_qubit=cfg["t2_qubit"])


def _schema_json() -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "commands": {}}
    for command, schema in SCHEMAS.items():
        doc["commands"][command] = {
            name: {
                "type": field.typ.__name__,
                "required": field.required,
                "default": field.default,
                "description": field.desc,
                **field.constraints(),
            }
            for name, field in schema.items()
        }
    return doc


# -- subcommand bodies -------------------------------------------------------

def _cmd_simulate(cfg, out_dir, seed, log):
    c_g, c_e = complex(*cfg["c_g"]), complex(*cfg["c_e"])
    norm_sq = abs(c_g) ** 2 + abs(c_e) ** 2
    if abs(norm_sq - 1.0) > 1e-6:
        raise ConfigError(
            f"config fields c_g, c_e: |c_g|^2 + |c_e|^2 = {norm_sq:g}, must be 1")
    if cfg["closed"]:
        params = SystemParams(g0=cfg["g0"], alpha0=cfg["alpha0"], c_g=c_g,
                              c_e=c_e)
        traj = jc_observables(params, cfg["t_max"], cfg["n_times"])
    else:
        params = ExperimentConfig(
            g0=cfg["g0"], t1_phonon=cfg["t1_phonon"], t1_qubit=cfg["t1_qubit"],
            t2_qubit=cfg["t2_qubit"]).system_params(cfg["alpha0"], c_g, c_e)
        traj = lindblad_observables(params, cfg["t_max"], cfg["n_times"])
    io_utils.write_csv(out_dir / "trajectory.csv", ("t",) + OBSERVABLE_COLUMNS,
                       zip(traj.times, *(traj.observables[name]
                                         for name in OBSERVABLE_COLUMNS)))
    if abs(params.alpha0) > 0:
        ct = characteristic_times(params)
        io_utils.write_json(out_dir / "characteristic_times.json", {
            "t_collapse": ct.t_collapse, "t_revival": ct.t_R, "t_cat": ct.t_C,
        })
    log(f"wrote trajectory.csv ({len(traj.times)} times)")


def _cmd_qubit_phase_scan(cfg, out_dir, seed, log):
    _check_budget("n_phases, n_times", cfg["n_phases"] * cfg["n_times"],
                  _SCAN_ROWS, _SCAN_LIMIT)
    phases = np.linspace(0.0, 2.0 * math.pi, cfg["n_phases"])
    runs = [
        jc_observables(SystemParams(
            g0=cfg["g0"], alpha0=cfg["alpha0"], c_g=1.0 / math.sqrt(2.0),
            c_e=complex(math.cos(phase), math.sin(phase)) / math.sqrt(2.0)),
            cfg["t_max"], cfg["n_times"])
        for phase in phases]
    times = runs[0].times
    names = ("P_e", "sx", "sy", "sz")
    # one row per (phase, time), phase-major
    io_utils.write_csv(out_dir / "phase_scan.csv", ("phase", "time") + names,
                       zip(np.repeat(phases, len(times)),
                           np.tile(times, len(phases)),
                           *(np.concatenate([run.observables[name]
                                             for run in runs])
                             for name in names)))
    log(f"wrote phase_scan.csv ({len(phases) * len(times)} rows)")


def _cmd_wigner(cfg, out_dir, seed, log):
    grid = raster_grid(cfg["extent"], cfg["n_grid"])
    kind = cfg["state"]
    if kind == "coherent":
        space = HilbertSpace(default_cutoff(cfg["alpha"]))
        wg = wigner(coherent_state(cfg["alpha"], space), grid)
    elif kind == "css":
        space = HilbertSpace(default_cutoff(cfg["alpha"]))
        wg = wigner(css_state(cfg["alpha"], -cfg["alpha"], cfg["vartheta"],
                              space), grid)
    elif kind == "decayed-css":
        wg = decayed_css_wigner(cfg["alpha"], cfg["kappa_t"], grid,
                                vartheta=cfg["vartheta"])
    elif kind == "pipeline":
        econf = _experiment_config(cfg)
        alpha0 = drive_alpha(cfg["drive_amplitude"])
        wg = wigner(prepare_cat(alpha0, econf), grid)
    else:
        raise ConfigError(
            "config field state: must be 'coherent', 'css', 'decayed-css', "
            "or 'pipeline'")
    neg = negativity(wg)  # fails on a nan value before any file is written
    io_utils.write_csv(out_dir / "wigner.csv", ("re_beta", "im_beta", "w"),
                       zip(wg.points.real, wg.points.imag, wg.values))
    io_utils.write_json(out_dir / "wigner_meta.json", {
        "state": kind, "extent": cfg["extent"], "n_grid": cfg["n_grid"],
        "negativity": neg,
    })
    log(f"wrote wigner.csv ({cfg['n_grid']}^2 points)")


def _cmd_tomo(cfg, out_dir, seed, log):
    _check_budget("n_grid, recon_n_max",
                  cfg["n_grid"] ** 2 * (cfg["recon_n_max"] + 1) ** 2 * 16,
                  _KERNEL_STACK_BYTES, _STACK_LIMIT)
    econf = _experiment_config(cfg)
    alpha0 = drive_alpha(cfg["drive_amplitude"])
    rho = prepare_cat(alpha0, econf)
    model = ReadoutModel(contrast=cfg["contrast"], offset=cfg["offset"],
                         shots=cfg["shots"], seed=seed)
    grid = raster_grid(cfg["extent"], cfg["n_grid"])
    samples, mle = simulate_tomography(rho, model, grid,
                                       recon_n_max=cfg["recon_n_max"])
    io_utils.write_csv(out_dir / "samples.csv",
                       ("re_beta", "im_beta", "parity", "shots"),
                       zip(samples.betas.real, samples.betas.imag,
                           samples.parities,
                           np.full(len(samples.betas), samples.shots_per_point)))
    if not mle.converged:
        print(f"catsim: warning: MLE not converged after {mle.iterations} "
              f"iterations: stationarity gap {mle.stationarity_gap:.2e} > "
              f"{MLE_GAP_TOL:.0e}", file=sys.stderr)
    if mle.n_data < mle.n_params:
        print(f"catsim: warning: reconstruction is under-determined: "
              f"{mle.n_data} parity points for {mle.n_params} density-matrix "
              f"parameters (d^2 - 1 at recon_n_max {cfg['recon_n_max']})",
              file=sys.stderr)
    fc = fit_css(mle.state)
    if fc.degenerate:
        print(f"catsim: warning: the CSS fit is degenerate: F {fc.fidelity:.4f} "
              f"lies within {CSS_FLAT_TOL:g} of the fidelity at D = "
              f"{CSS_SHRUNK_D:g} (gap {fc.shrink_gap:.1e}), the limit of a "
              f"displaced single-phonon state, so its D is no cat size",
              file=sys.stderr)
    fa = fit_analytical(mle.state, 1.0, 0.0, econf.t_cat, econf.g0)
    io_utils.write_json(out_dir / "reconstruction.json", {
        "drive_amplitude": cfg["drive_amplitude"],
        "alpha0": alpha0,
        "mle_iterations": mle.iterations,
        "mle_converged": mle.converged,
        "mle_stationarity_gap": mle.stationarity_gap,
        "log_likelihood": float(mle.log_likelihoods[-1]),
        "css_fit": {
            "alpha1": fc.alpha1, "alpha2": fc.alpha2, "vartheta": fc.vartheta,
            "D": fc.D, "fidelity": fc.fidelity,
        },
        "analytical_fit": {
            "alpha_fit": fa.alpha_fit, "theta": fa.theta,
            "fidelity": fa.fidelity,
        },
    })
    size = "CSS fit degenerate, no cat size" if fc.degenerate else f"D = {fc.D:.3f}"
    log(f"wrote samples.csv and reconstruction.json ({size}; MLE "
        f"{mle.iterations} iterations, stationarity gap "
        f"{mle.stationarity_gap:.2e}; fit_css {fc.n_evals} evaluations, "
        f"{fc.n_capped} capped, |dF/dalpha| {fc.grad_norm:.1e}; fit_analytical "
        f"{fa.n_evals} evaluations, {fa.n_capped} capped, |dF/dtheta| "
        f"{fa.theta_slope:.1e}, alpha tolerance "
        f"{'met' if fa.alpha_converged else 'not met'})")


def _cmd_decay(cfg, out_dir, seed, log):
    econf = _experiment_config(cfg)
    alpha0 = drive_alpha(cfg["drive_amplitude"])
    waits = np.linspace(0.0, cfg["wait_max"], cfg["n_waits"])
    result = cat_decay_time(prepare_cat(alpha0, econf), econf, waits)
    io_utils.write_csv(out_dir / "negativity_decay.csv",
                       ("wait", "negativity"),
                       zip(result.waits, result.negativities))
    io_utils.write_json(out_dir / "decay_fit.json", {
        "drive_amplitude": cfg["drive_amplitude"],
        "alpha0": alpha0,
        "tau_cat": result.fit.tau_cat,
        "amplitude": result.fit.amplitude,
        "offset": result.fit.offset,
        "residual": result.fit.residual,
    })
    log(f"wrote negativity_decay.csv (tau_cat = {result.fit.tau_cat:.2f} us)")


def _cmd_mass(cfg, out_dir, seed, log):
    mode = AcousticMode.from_wavelength(cfg["w0_um"], cfg["length_um"],
                                        cfg["wavelength_um"], p=cfg["p"],
                                        l=cfg["l"])
    doc = {
        "mode": {
            "w0_um": mode.w0_um, "length_um": mode.length_um, "m": mode.m,
            "wavelength_um": mode.wavelength_um,
            "frequency_ghz": mode.omega_p / (2.0 * math.pi * 1e9),
            "rayleigh_um": mode.rayleigh_um,
        },
        "half_wavelength_mass_ng": half_wavelength_mass(mode) * 1e12,
        "conventions": {},
    }
    for convention in ("max", "rms"):
        model = mass_model(mode, convention)
        x_eff, sep = delocalization(model, cfg["alpha"])
        doc["conventions"][convention] = {
            "S0": model.S0,
            "M0_ug": model.M0_ug,
            "M_eff_ug": model.M_eff_ug,
            "x_zpf_m": model.x_zpf_m,
            "x_eff_m": x_eff,
            "separation_m": sep,
        }
    io_utils.write_json(out_dir / "mass.json", doc)
    log("wrote mass.json")


def _cmd_calibrate(cfg, out_dir, seed, log):
    rng = np.random.default_rng(seed)
    kind = cfg["kind"]
    if kind == "drive":
        amps = np.linspace(0.05, 0.4, 15)
        truth = DriveCalibration(B=cfg["drive_b"], C=cfg["drive_c"],
                                 residual=0.0)
        betas = np.array([truth.beta_abs(a) for a in amps])
        try:
            with np.errstate(over="raise"):
                noisy = betas * (1.0 + cfg["noise"] * rng.standard_normal(len(amps)))
        except FloatingPointError as exc:
            raise FitError("drive calibration samples must be finite") from exc
        fit = calibrate_drive(list(zip(amps, noisy)))
        io_utils.write_csv(out_dir / "drive_samples.csv",
                           ("amplitude", "beta_abs"), zip(amps, noisy))
        io_utils.write_json(out_dir / "drive_fit.json", {
            "B_true": cfg["drive_b"], "C_true": cfg["drive_c"],
            "B_fit": fit.B, "C_fit": fit.C, "residual": fit.residual,
        })
        log(f"wrote drive_fit.json (B = {fit.B:.4g}, C = {fit.C:.4g})")
    elif kind == "parity":
        model = ReadoutModel(contrast=cfg["contrast"], offset=cfg["offset"],
                             shots=cfg["shots"], seed=seed)
        norm = calibrate_parity(model)
        io_utils.write_json(out_dir / "parity_fit.json", {
            "contrast_true": cfg["contrast"], "offset_true": cfg["offset"],
            "amplitude_fit": norm.amplitude, "offset_fit": norm.offset,
        })
        log(f"wrote parity_fit.json (amplitude = {norm.amplitude:.4f})")
    elif kind == "fock":
        beta = cfg["beta"]
        g0 = cfg["g0"]
        times = np.linspace(0.0, 6.0 * math.pi / g0, 241)
        params = SystemParams(g0=g0, alpha0=beta, c_g=0.0, c_e=1.0)
        # transfer probability out of |e>, which oscillates at 2 g0 sqrt(n+1)
        p_swap = 1.0 - excited_population(params, times)
        noisy = np.clip(
            p_swap + cfg["noise"] * rng.standard_normal(len(times)), 0.0, 1.0)
        pops = extract_fock_populations(times, noisy, g0, n_fit=10)
        io_utils.write_csv(out_dir / "rabi_trace.csv", ("time", "P_e"),
                           zip(times, noisy))
        io_utils.write_json(out_dir / "fock_fit.json", {
            "beta_true": beta,
            "beta_fit": pops.beta_abs,
            "populations": list(pops.populations),
            "gamma_d": pops.gamma_d,
        })
        log(f"wrote fock_fit.json (|beta| = {pops.beta_abs:.4f})")
    else:
        raise ConfigError(
            "config field kind: must be 'drive', 'parity', or 'fock'")


COMMANDS = {
    "simulate": _cmd_simulate,
    "qubit-phase-scan": _cmd_qubit_phase_scan,
    "wigner": _cmd_wigner,
    "tomo": _cmd_tomo,
    "decay": _cmd_decay,
    "mass": _cmd_mass,
    "calibrate": _cmd_calibrate,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for config problems and uses 1 for usage
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catsim",
                     description="Deterministic batch pipelines for the "
                                 "qubit-phonon cat-state simulations.")
    parser.add_argument("--version", action="store_true",
                        help="print the package version and exit")
    parser.add_argument("--schema", action="store_true",
                        help="print the JSON config schema and exit")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the config's random seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress messages")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.version:
        print(__version__)
        return 0
    if args.schema:
        print(json.dumps(_schema_json(), sort_keys=True, indent=1))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    def log(message):
        if not args.quiet:
            print(message)

    try:
        cfg = _load_config(args.config, args.command)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {out_dir}: {exc}") from exc
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        COMMANDS[args.command](cfg, out_dir, seed, log)
    except ConfigError as exc:
        print(f"catsim: config error: {exc}", file=sys.stderr)
        return 2
    except CatsimError as exc:
        print(f"catsim: numerical failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
