"""Oracle checks on the outputs of each workload step.

The oracles are conservation laws, second computational routes and closed
forms.  None of them pins a fitted decay time or cat size, so they stay
valid when a correctness fix moves the physics numbers on purpose.

Each check function takes the step's output directory, the step config
and the values captured from the run, and returns a list of ``Check``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from catsim.catfit import analytical_target, css_state
from catsim.cli import SCHEMAS
from catsim.dynamics import SystemParams, excited_population
from catsim.hilbert import fidelity

FIDELITY_TOL = 1e-6
BALANCE_TOL = 1e-4       # relative to the initial excitation number
CLOSED_PE_TOL = 1e-9
BLOCH_TOL = 1e-9
PARITY_RMS_SIGMAS = 2.0
# padded Fock dimension for the independent displaced-parity route; ample
# for states on n <= 20 displaced by |beta| <= 3.2
PARITY_PAD_DIM = 100


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    limit: float


def _field(command: str, cfg: dict, name: str):
    return cfg[name] if name in cfg else SCHEMAS[command][name].default


def read_table(path: Path) -> dict:
    """CSV written by catsim.io_utils as {column: float array}."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _max_or_nan(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.max(values)) if values.size else math.nan


def check_decay(out: Path, cfg: dict, capture: dict) -> list[Check]:
    neg = read_table(out / "negativity_decay.csv")["negativity"]
    tau = json.loads((out / "decay_fit.json").read_text())["tau_cat"]
    finite = bool(np.all(np.isfinite(neg)))
    return [
        Check("negativities_finite_nonnegative",
              finite and bool(np.all(neg >= 0.0)), float(np.min(neg)), 0.0),
        Check("first_negativity_positive", bool(neg[0] > 0.0),
              float(neg[0]), 0.0),
        Check("tau_cat_finite_positive",
              math.isfinite(tau) and tau > 0.0, float(tau), 0.0),
    ]


def displaced_parities(rho: np.ndarray, betas) -> np.ndarray:
    """Tr[D(beta)^dag rho D(beta) Pi] for each beta.

    Uses scipy's expm of the generator on a padded Fock space, a route
    independent of catsim's displacement kernels.
    """
    dim = rho.shape[0]
    big = max(PARITY_PAD_DIM, 2 * dim)
    a = np.diag(np.sqrt(np.arange(1.0, big)), 1).astype(complex)
    parity = (-1.0) ** np.arange(big)
    out = np.empty(len(betas))
    for k, beta in enumerate(betas):
        rows = expm(beta * a.conj().T - np.conj(beta) * a)[:dim, :]
        diag = np.einsum("ik,ij,jk->k", rows.conj(), rho, rows)
        out[k] = float((parity @ diag).real)
    return out


def check_tomo(out: Path, cfg: dict, capture: dict) -> list[Check]:
    samples, mle = capture["simulate_tomography"]
    rec = json.loads((out / "reconstruction.json").read_text())
    ll = np.asarray(mle.log_likelihoods, dtype=float)
    steps = np.diff(ll)
    sigma = 1.0 / (_field("tomo", cfg, "contrast")
                   * math.sqrt(_field("tomo", cfg, "shots")))
    resid = displaced_parities(mle.state.data, samples.betas) - samples.parities
    rms = float(np.sqrt(np.mean(resid ** 2)))

    space = mle.state.space
    css = rec["css_fit"]
    target = css_state(complex(*css["alpha1"]), complex(*css["alpha2"]),
                       css["vartheta"], space)
    css_err = abs(fidelity(target, mle.state) - css["fidelity"])
    ana = rec["analytical_fit"]
    target = analytical_target(ana["alpha_fit"], ana["theta"], 1.0, 0.0,
                               _field("tomo", cfg, "t_cat"),
                               _field("tomo", cfg, "g0"), space)
    ana_err = abs(fidelity(mle.state, target) - ana["fidelity"])
    return [
        Check("mle_loglike_nondecreasing",
              bool(np.all(steps >= 0.0)) and bool(np.all(np.isfinite(ll))),
              float(np.min(steps)) if steps.size else 0.0, 0.0),
        Check("mle_parity_rms_sigmas", rms <= PARITY_RMS_SIGMAS * sigma,
              rms / sigma, PARITY_RMS_SIGMAS),
        Check("css_fit_fidelity_recomputed", css_err <= FIDELITY_TOL,
              css_err, FIDELITY_TOL),
        Check("analytical_fit_fidelity_recomputed", ana_err <= FIDELITY_TOL,
              ana_err, FIDELITY_TOL),
    ]


def check_open_simulate(out: Path, cfg: dict, capture: dict) -> list[Check]:
    """<n> + P_e = N0 - int (kappa <n> + gamma P_e) dt: the JC Hamiltonian
    and dephasing conserve the excitation number, the two decays remove it."""
    tab = read_table(out / "trajectory.csv")
    t, n_mean, pe = tab["t"], tab["n_mean"], tab["P_e"]
    kappa = 1.0 / _field("simulate", cfg, "t1_phonon")
    gamma = 1.0 / _field("simulate", cfg, "t1_qubit")
    n0 = abs(_field("simulate", cfg, "alpha0")) ** 2 \
        + abs(complex(*_field("simulate", cfg, "c_e"))) ** 2
    loss = kappa * n_mean + gamma * pe
    lost = np.concatenate(([0.0], np.cumsum(np.diff(t) * (loss[1:] + loss[:-1]) / 2.0)))
    err = _max_or_nan(np.abs(n_mean + pe - (n0 - lost))) / n0
    return [Check("excitation_balance", err <= BALANCE_TOL, err, BALANCE_TOL)]


def check_closed_simulate(out: Path, cfg: dict, capture: dict) -> list[Check]:
    tab = read_table(out / "trajectory.csv")
    params = SystemParams(g0=_field("simulate", cfg, "g0"),
                          alpha0=_field("simulate", cfg, "alpha0"),
                          c_g=complex(*_field("simulate", cfg, "c_g")),
                          c_e=complex(*_field("simulate", cfg, "c_e")))
    times = np.linspace(0.0, _field("simulate", cfg, "t_max"),
                        _field("simulate", cfg, "n_times"))
    pe = tab["P_e"]
    err = _max_or_nan(np.abs(pe - excited_population(params, times))) \
        if pe.shape == times.shape else math.nan
    return [Check("pe_matches_exact_series", err <= CLOSED_PE_TOL, err,
                  CLOSED_PE_TOL)]


def check_phase_scan(out: Path, cfg: dict, capture: dict) -> list[Check]:
    tab = read_table(out / "phase_scan.csv")
    length = _max_or_nan(np.sqrt(tab["sx"] ** 2 + tab["sy"] ** 2 + tab["sz"] ** 2))
    return [Check("bloch_length_at_most_one", length <= 1.0 + BLOCH_TOL,
                  length, 1.0 + BLOCH_TOL)]


CHECKS = {
    "decay": check_decay,
    "tomo": check_tomo,
    "simulate_open_a2": check_open_simulate,
    "simulate_open_a3": check_open_simulate,
    "simulate_closed_a2": check_closed_simulate,
    "qubit_phase_scan": check_phase_scan,
}
