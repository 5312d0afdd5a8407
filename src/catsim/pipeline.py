"""End-to-end cat-state pipelines with experiment-scale default parameters.

Glue between the dynamics, phase-space, and fitting modules: drive-amplitude
presets, master-equation cat preparation, free decay of the phonon state
(the closed-form amplitude-damping channel), and the raster negativity
series used for decay-time extraction.

Times are in microseconds, rates in inverse microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, lindblad_evolve
from .errors import ConfigError
from .hilbert import HilbertSpace, JointState, _fock_table, displaced_parity, \
    partial_trace
from .phase_space import NegativityDecayFit, WignerGrid, fit_negativity_decay, \
    negativity, raster_grid
from .tomography import calibrate_parity, mle_reconstruct, sample_wigner

# Coherent amplitudes calibrated per drive-amplitude setting.
DRIVE_PRESETS = {0.25: 1.28, 0.30: 1.74, 0.35: 2.05}

G0_DEFAULT = math.sqrt(2.0) / 0.9   # rad/us, from the 0.9 us collapse time
# us, the interaction time of every preset; the model's qubit purity does
# not peak there (it peaks near 4.05 us at drives 0.30 and 0.35)
T_CAT_DEFAULT = 2.9
T1_PHONON_DEFAULT = 84.0            # us
T1_QUBIT_DEFAULT = 10.0             # us, tuned within the transmon-plausible range
T2_QUBIT_DEFAULT = 10.0             # us


@dataclass(frozen=True)
class ExperimentConfig:
    """Device-scale defaults for the cat preparation and decay pipelines."""

    g0: float = G0_DEFAULT
    t_cat: float = T_CAT_DEFAULT
    t1_phonon: float = T1_PHONON_DEFAULT
    t1_qubit: float = T1_QUBIT_DEFAULT
    t2_qubit: float = T2_QUBIT_DEFAULT

    def __post_init__(self):
        # each check is written so that a nan fails it
        for name in ("g0", "t_cat", "t1_phonon", "t1_qubit", "t2_qubit"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.t2_qubit > 2.0 * self.t1_qubit:
            raise ConfigError("t2_qubit must not exceed 2 * t1_qubit")

    @property
    def kappa_phonon(self) -> float:
        return 1.0 / self.t1_phonon

    @property
    def gamma_qubit(self) -> float:
        return 1.0 / self.t1_qubit

    @property
    def gamma_phi(self) -> float:
        # T2 = 1 / (1/(2 T1) + gamma_phi); pure dephasing is the remainder,
        # exactly 0.0 at T2 = 2 T1 since 1/(2 T1) and 0.5/T1 round alike
        return 1.0 / self.t2_qubit - 0.5 / self.t1_qubit

    def system_params(self, alpha0: float, c_g: complex = 1.0,
                      c_e: complex = 0.0) -> SystemParams:
        return SystemParams(g0=self.g0, alpha0=alpha0, c_g=c_g, c_e=c_e,
                            kappa_phonon=self.kappa_phonon,
                            gamma_qubit=self.gamma_qubit,
                            gamma_phi=self.gamma_phi)


def drive_alpha(amplitude: float) -> float:
    """Initial coherent amplitude for a calibrated drive setting."""
    for key, val in DRIVE_PRESETS.items():
        if abs(amplitude - key) < 1e-9:
            return val
    known = ", ".join(f"{k:g}" for k in sorted(DRIVE_PRESETS))
    raise ConfigError(f"no drive preset for amplitude {amplitude:g} (known: {known})")


def prepare_cat(alpha0: float, config: ExperimentConfig) -> JointState:
    """Master-equation cat preparation; returns the reduced phonon state.

    Evolves the lossy Jaynes-Cummings system of config.system_params(alpha0)
    from |g> (x) |alpha0> at n_max = default_cutoff(alpha0) to the cat
    time, and sums the qubit blocks (hilbert.partial_trace): the phonon state
    post-selected on the qubit outcome |+x>, not the trace over the qubit.
    """
    return partial_trace(lindblad_evolve(config.system_params(alpha0),
                                         config.t_cat).states[0])


def _amplitude_damping(rho: np.ndarray, kappa_ts: np.ndarray) -> np.ndarray:
    """(T, d, d) stack of rho after phonon energy relaxation for each kappa t in
    kappa_ts, all > 0.

    The bosonic amplitude-damping channel (Chuang, Leung & Yamamoto, PRA 56,
    1114 (1997)), exact on the truncated space: with eta = e^{-kappa t},
    rho_mn(t) = eta^{(m+n)/2} sum_j (1-eta)^j B_j[m, n], where
    B_j[m, n] = sqrt(C(m+j,j) C(n+j,j)) rho_{m+j,n+j}, zero past the edge.
    The B_j are built once, and the sums over j for all the waits are one
    real (T, d) @ (d, 2 d^2) product.
    """
    dim = len(rho)
    n, log_fact = _fock_table(dim - 1)
    j = n[:, None]
    shift = np.minimum(n + j, dim - 1)
    # root[j, m] = sqrt(C(m + j, j)), zero past the edge
    root = np.where(n + j < dim, np.exp(0.5 * (log_fact[shift] - log_fact[n] - log_fact[j])),
                    0.0)
    stack = rho[shift[:, :, None], shift[:, None, :]]
    stack *= root[:, :, None] * root[:, None, :]
    kappa_ts = np.asarray(kappa_ts, dtype=float)[:, None]
    loss = (-np.expm1(-kappa_ts)) ** n  # (1 - eta)^j, with 0^0 = 1
    sums = (loss @ stack.reshape(dim, -1).view(float)).view(complex).reshape(-1, dim, dim)
    half = np.exp(-0.5 * kappa_ts * n)  # eta^{m/2}
    sums *= half[:, :, None] * half[:, None, :]
    return sums


def free_decay(rho_phonon: JointState, waits,
               config: ExperimentConfig | None = None) -> list[JointState]:
    """Phonon-only energy relaxation of a prepared state over wait times.

    waits must start at 0 and be increasing; returns one density matrix per
    wait, the amplitude-damping channel applied in closed form to all the
    nonzero waits at once.  The wait 0 returns the input's density matrix
    exactly.
    """
    config = config or ExperimentConfig()
    waits = np.asarray(waits, dtype=float)
    if waits.size == 0 or waits[0] != 0.0 or np.any(np.diff(waits) <= 0):
        raise ConfigError("waits must start at 0 and increase")
    if rho_phonon.space.has_qubit:
        raise ConfigError("free_decay expects a phonon-only state")
    space = rho_phonon.space
    rho = rho_phonon.density_matrix()
    return [JointState(space, rho, "mixed")] + [
        JointState(space, decayed, "mixed")
        for decayed in _amplitude_damping(rho, config.kappa_phonon * waits[1:])]


def negativity_grid(extent: float = 3.0, n: int = 61):
    """2D raster used for the decay-time negativity integral.

    A full-area integral is insensitive to the fringe orientation of the
    distorted cat components, unlike a fixed 1D cut.
    """
    return raster_grid(extent, n)


def negativity_series(states, grid=None) -> np.ndarray:
    """Wigner negativity of each state in a decay series over one grid.

    The states share one displaced_parity pass, whose (S, N) rows scale in
    place to W = (2/pi) <Pi>.
    """
    grid = grid if grid is not None else negativity_grid()
    values = displaced_parity(states, grid.points)
    values *= 2.0 / math.pi
    return np.array([negativity(WignerGrid(grid.points, row, grid.weights))
                     for row in values])


def simulate_tomography(rho_phonon: JointState, model, grid,
                        recon_n_max: int):
    """Sample displaced-parity data from a state and reconstruct it.

    The model's seed drives both the parity calibration and the samples.
    Returns (samples, MleResult); the reconstruction lives on a phonon
    space with cutoff recon_n_max.
    """
    normalization = calibrate_parity(model)
    samples = sample_wigner(rho_phonon, grid.points, model, normalization)
    result = mle_reconstruct(samples, HilbertSpace(recon_n_max))
    return samples, result


@dataclass(frozen=True)
class DecayResult:
    """Negativity decay series and its fitted time constant."""

    waits: np.ndarray
    negativities: np.ndarray
    fit: NegativityDecayFit


def cat_decay_time(rho_phonon: JointState, config: ExperimentConfig,
                   waits) -> DecayResult:
    """Let a prepared cat relax and fit its fringe negativity decay; wait 0
    leaves the state as is, so negativities[0] is the prepared cat's own."""
    states = free_decay(rho_phonon, waits, config)
    deltas = negativity_series(states)
    fit = fit_negativity_decay(waits, deltas)
    return DecayResult(waits=np.asarray(waits, dtype=float),
                       negativities=deltas, fit=fit)
