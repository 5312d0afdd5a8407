"""Resonant Jaynes-Cummings dynamics and Lindblad open-system evolution.

Closed-system evolution uses the exact Fock-basis solution of the resonant
JC interaction (Rabi frequency g0 sqrt(n) between |g,n> and |e,n-1>), so
no integrator is involved; a trajectory evaluates it once over its time
grid.  Open-system evolution solves the Lindblad master equation with
collapse channels sqrt(kappa) a, sqrt(gamma) sigma-, and
sqrt(gamma_phi/2) sigma_z exactly: the Hamiltonian and all three channels
conserve the coherence order k = N_row - N_col of the excitation number
N = n + q, so the Liouvillian splits into independent blocks, one per k
(Buca & Prosen, NJP 14, 073007 (2012)), each propagated with one matrix
exponential per distinct time step.  Two routes share that block
propagator: lindblad_evolve propagates every block and returns certified
states, and lindblad_observables propagates only the k = 0 and k = 1
blocks, in which every observable column is linear, and builds no state.
Closed and open trajectories take their observables from one routine,
vectorised over states.  Free decay of a phonon state alone is the
amplitude-damping channel, applied in closed form by pipeline.free_decay.

Times are in microseconds, rates in 1/us, g0 in rad/us.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import io_utils
from .errors import DimensionMismatchError, IntegrationError, StateValidationError
from .hilbert import (
    HilbertSpace,
    JointState,
    OperatorSet,
    _psd_certified,
    check_truncation,
    coherent_amplitudes,
    default_cutoff,
)

_SIGMA = {
    "sx": np.array([[0, 1], [1, 0]], dtype=complex),
    "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sz": np.array([[-1, 0], [0, 1]], dtype=complex),  # |e> -> +1
}

OBSERVABLE_COLUMNS = ("P_e", "purity", "sx", "sy", "sz", "n_mean")


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of one experimental configuration."""

    g0: float                      # rad/us
    alpha0: complex = 0.0          # initial coherent amplitude
    c_g: complex = 1.0             # initial qubit amplitude on |g>
    c_e: complex = 0.0             # initial qubit amplitude on |e>
    kappa_phonon: float = 0.0      # 1/us, = 1/T1_ph
    gamma_qubit: float = 0.0       # 1/us
    gamma_phi: float = 0.0         # 1/us, pure dephasing

    def __post_init__(self):
        if self.g0 <= 0:
            raise ValueError("g0 must be positive")
        for name in ("kappa_phonon", "gamma_qubit", "gamma_phi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        norm_sq = abs(self.c_g) ** 2 + abs(self.c_e) ** 2
        if abs(norm_sq - 1.0) > 1e-6:
            raise StateValidationError(f"|c_g|^2 + |c_e|^2 = {norm_sq} deviates from 1")
        if abs(norm_sq - 1.0) > 0:
            s = math.sqrt(norm_sq)
            object.__setattr__(self, "c_g", self.c_g / s)
            object.__setattr__(self, "c_e", self.c_e / s)


@dataclass(frozen=True)
class CharacteristicTimes:
    t_collapse: float
    t_R: float
    t_C: float


@dataclass
class Trajectory:
    """Time series of states and/or named observables."""

    times: np.ndarray
    states: list | None
    observables: dict

    def to_csv(self, path):
        cols = [self.observables.get(c) for c in OBSERVABLE_COLUMNS]
        rows = []
        for i, t in enumerate(self.times):
            row = [t]
            for col in cols:
                row.append(float(col[i]) if col is not None else float("nan"))
            rows.append(row)
        io_utils.write_csv(path, ("t",) + OBSERVABLE_COLUMNS, rows)


def characteristic_times(params: SystemParams) -> CharacteristicTimes:
    """Collapse, revival, and cat times: sqrt(2)/g0, 2 pi |alpha|/g0, t_R/2."""
    t_collapse = math.sqrt(2.0) / params.g0
    if abs(params.alpha0) == 0:
        raise ValueError("revival time undefined for alpha0 = 0")
    t_r = 2.0 * math.pi * abs(params.alpha0) / params.g0
    return CharacteristicTimes(t_collapse=t_collapse, t_R=t_r, t_C=t_r / 2.0)


def _jc_series(params: SystemParams, times, n_max: int) -> np.ndarray:
    """psi_g(t), psi_e(t) of the exact Fock-basis JC solution on a time grid.

    Returns a (T, 2, n_max + 1) array, normalised per time.  Keeps the
    truncation guard, and raises IntegrationError at the first time whose
    truncated state norm deviates from 1 by more than 1e-6.
    """
    check_truncation(params.alpha0, HilbertSpace(n_max, has_qubit=True))
    c, _ = coherent_amplitudes(params.alpha0, n_max)
    t = np.asarray(times, dtype=float)[:, None]
    n = np.arange(n_max + 1)
    sq_n = np.sqrt(n)
    sq_np1 = np.sqrt(n + 1.0)
    c_prev = np.concatenate(([0.0], c[:-1]))
    c_next = np.concatenate((c[1:], [0.0]))
    psi_g = c * params.c_g * np.cos(params.g0 * sq_n * t) \
        - 1j * c_prev * params.c_e * np.sin(params.g0 * sq_n * t)
    psi_e = c * params.c_e * np.cos(params.g0 * sq_np1 * t) \
        - 1j * c_next * params.c_g * np.sin(params.g0 * sq_np1 * t)
    flat = np.concatenate((psi_g, psi_e), axis=1)[:, None, :]
    # sqrt(re.re + im.im) by BLAS dots, as np.linalg.norm computes it for one
    # complex vector: each state is bit-identical to its np.linalg.norm
    # normalisation, which keeps the catfit and tomo outputs unchanged
    norms = np.sqrt(flat.real @ flat.real.swapaxes(1, 2)
                    + flat.imag @ flat.imag.swapaxes(1, 2))[:, 0, 0]
    bad = np.abs(norms - 1.0) > 1e-6
    if bad.any():
        k = int(np.argmax(bad))
        raise IntegrationError(
            f"truncated JC state norm {norms[k]} at t = {t[k, 0]:.4g}; increase n_max")
    return (flat / norms[:, None, None]).reshape(len(t), 2, n_max + 1)


def jc_evolve_exact(params: SystemParams, t: float, n_max: int | None = None) -> JointState:
    """Closed-system JC state at time t, from the exact Fock-basis solution."""
    if n_max is None:
        n_max = default_cutoff(params.alpha0)
    psi = _jc_series(params, [t], n_max)
    return JointState._trusted(HilbertSpace(n_max, has_qubit=True), psi.ravel(), "pure")


def excited_population(params: SystemParams, times, n_max: int | None = None) -> np.ndarray:
    """P_e(t) from the exact JC series, evaluated on a time grid."""
    if n_max is None:
        n_max = default_cutoff(params.alpha0)
    check_truncation(params.alpha0, HilbertSpace(n_max, has_qubit=True))
    times = np.asarray(times, dtype=float)
    c, _ = coherent_amplitudes(params.alpha0, n_max)
    n = np.arange(n_max)
    omega = params.g0 * np.sqrt(n + 1.0)            # (n,)
    phase = np.outer(times, omega)                  # (t, n)
    cos2 = np.cos(phase) ** 2
    sin2 = np.sin(phase) ** 2
    cross = np.cos(phase) * np.sin(phase)
    w_e = np.abs(c[:-1]) ** 2 * abs(params.c_e) ** 2
    w_g = np.abs(c[1:]) ** 2 * abs(params.c_g) ** 2
    w_x = 2.0 * np.imag(c[1:] * np.conj(c[:-1]) * params.c_g * np.conj(params.c_e))
    pe = cos2 @ w_e + sin2 @ w_g + cross @ w_x
    # n = n_max term contributes |c_nmax|^2 |c_e|^2 cos^2 via the diagonal
    pe += np.abs(c[-1]) ** 2 * abs(params.c_e) ** 2 * np.cos(params.g0 * math.sqrt(n_max + 1.0) * times) ** 2
    return np.clip(pe, 0.0, 1.0)


def excited_population_envelope(params: SystemParams, times) -> np.ndarray:
    """Closed-form Gaussian-damped approximation to P_e(t); no revivals.

    Valid for |alpha| >> 1 and t << alpha/g0.
    """
    if abs(params.alpha0) < 3:
        warnings.warn("envelope approximation is inaccurate for |alpha| < 3", stacklevel=2)
    times = np.asarray(times, dtype=float)
    a = abs(params.alpha0)
    # oscillation at the mean Rabi frequency 2 g0 sqrt(n_mean + 1); the
    # Poisson spread of Fock frequencies gives the Gaussian damping with
    # rate g0 a / sqrt(a^2 + 1) -> g0 for large a
    mean_freq = 2.0 * params.g0 * math.sqrt(a * a + 1.0)
    damp_rate = params.g0 * a / math.sqrt(a * a + 1.0)
    damp = np.exp(-((damp_rate * times) ** 2) / 2.0)
    osc = (abs(params.c_e) ** 2 - abs(params.c_g) ** 2) * np.cos(mean_freq * times) \
        + 2.0 * np.imag(params.c_g * np.conj(params.c_e)) * np.sin(mean_freq * times)
    return 0.5 * (1.0 + damp * osc)


def phi_states(params: SystemParams, t: float, n_max: int | None = None):
    """The counter-rotating phonon states Phi+/-(t) = sum c_n e^{-/+ i g0 t sqrt(n)} |n>."""
    alpha = complex(params.alpha0)
    if alpha.imag != 0 or alpha.real <= 0:
        raise ValueError("phi_states uses the alpha real-positive phase convention")
    if n_max is None:
        n_max = default_cutoff(alpha)
    space = HilbertSpace(n_max, has_qubit=False)
    check_truncation(alpha, space)
    c, _ = coherent_amplitudes(alpha, n_max)
    phases = params.g0 * t * np.sqrt(np.arange(n_max + 1))
    plus = c * np.exp(-1j * phases)
    minus = c * np.exp(1j * phases)
    return (
        JointState(space, plus / np.linalg.norm(plus), "pure"),
        JointState(space, minus / np.linalg.norm(minus), "pure"),
    )


def _time_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("the time grid is empty")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def _observables(space: HilbertSpace, pops, red) -> dict:
    """Standard observables of T states on one qubit (x) phonon space.

    pops (T, dim) are the states' Fock-basis populations and give n_mean;
    red (T, 2, 2) holds their hermitian, unit-trace qubit reductions, which
    give P_e, the qubit purity and <sigma_x,y,z>.
    """
    obs = {"n_mean": pops @ (np.arange(space.dim) % space.phonon_dim),
           "purity": np.sum(np.abs(red) ** 2, axis=(1, 2)),
           "P_e": red[:, 1, 1].real}
    for name, sig in _SIGMA.items():
        obs[name] = np.trace(red @ sig, axis1=1, axis2=2).real
    return obs


def jc_trajectory(params: SystemParams, times, n_max: int | None = None) -> Trajectory:
    """Closed-system trajectory with states and standard observables."""
    times = _time_grid(times)
    if n_max is None:
        n_max = default_cutoff(params.alpha0)
    space = HilbertSpace(n_max, has_qubit=True)
    psi = _jc_series(params, times, n_max)
    red = np.einsum("tin,tjn->tij", psi, psi.conj())
    red = 0.5 * (red + red.conj().swapaxes(1, 2))
    red = red / np.trace(red, axis1=1, axis2=2).real[:, None, None]
    psi = psi.reshape(len(times), -1)
    obs = _observables(space, np.abs(psi) ** 2, red)
    states = [JointState._trusted(space, vec, "pure") for vec in psi]
    return Trajectory(times=times, states=states, observables=obs)


def pe_trajectory(params: SystemParams, times) -> Trajectory:
    """Observable-only trajectory carrying just the exact P_e series."""
    times = _time_grid(times)
    pe = excited_population(params, times)
    return Trajectory(times=times, states=None, observables={"P_e": pe})


def _excitations(space: HilbertSpace) -> np.ndarray:
    """N = n + q of every basis index (q = 1 on |e>).

    The JC Hamiltonian and sigma_z keep N; a and sigma- lower it by one.
    """
    index = np.arange(space.dim)
    return index % space.phonon_dim + index // space.phonon_dim


def _distinct_steps(times: np.ndarray):
    """The grid's steps, merging steps that differ only by float rounding.

    Returns (steps, which): each group's mean step, and the group index of
    every step.  A linspace grid has a few distinct float steps that all
    round the same value; they share one propagator.
    """
    dt = np.diff(times)
    tol = 8.0 * np.finfo(float).eps * np.abs(times).max()
    which = np.empty(len(dt), dtype=int)
    first = -np.inf
    group = -1
    for i in np.argsort(dt):
        if dt[i] - first > tol:
            first = dt[i]
            group += 1
        which[i] = group
    return np.bincount(which, dt) / np.bincount(which), which


def _block_series(initial: JointState, params: SystemParams, times, orders):
    """The coherence-order blocks k in orders of rho(t) on the time grid.

    Builds the lossy JC master equation for initial's qubit (x) phonon
    space: collapse channels sqrt(kappa_phonon) a, sqrt(gamma_qubit) sigma-
    and sqrt(gamma_phi/2) sigma_z, and drift A = -iH - 1/2 sum g L^dag L, so
    that d rho/dt = A rho + rho A^dag + sum g L rho L^dag.  The elements
    rho[i, j] with N_i - N_j = k evolve on their own under
    S_k[(i,j),(l,m)] = A_il d_jm + d_il conj(A_jm) + sum g L_il conj(L_jm),
    stepped with one exp(S_k dt) per distinct step.

    Returns (blocks, series): blocks[b] = (rows, cols) lists block b's
    elements in row-major order, and series (T, total size) holds every
    block's elements at every time, block after block.
    """
    from scipy.linalg import expm

    space = initial.space
    if not space.has_qubit:
        raise DimensionMismatchError(
            "the lossy JC master equation needs a qubit (x) phonon state; "
            "the free decay of a phonon state is pipeline.free_decay")
    ops = OperatorSet(space)
    collapse = [(g, L) for g, L in ((params.kappa_phonon, ops.a),
                                    (params.gamma_qubit, ops.sigma_minus),
                                    (params.gamma_phi / 2.0, ops.sigma_z))
                if g > 0]
    drift = -1j * params.g0 * (ops.sigma_plus @ ops.a
                               + ops.sigma_minus @ ops.a_dagger)
    for g, L in collapse:
        drift = drift - 0.5 * g * (L.conj().T @ L)
    rho0 = initial.density_matrix().astype(complex)

    steps, which = _distinct_steps(times)
    excitations = _excitations(space)
    order = excitations[:, None] - excitations[None, :]
    blocks = [np.nonzero(order == k) for k in orders]
    series = np.empty((len(times), sum(len(r) for r, _ in blocks)), dtype=complex)
    stop = 0
    for rows, cols in blocks:
        block = slice(stop, stop + len(rows))
        stop = block.stop
        gen = drift[np.ix_(rows, rows)] * (cols[:, None] == cols) \
            + (rows[:, None] == rows) * drift[np.ix_(cols, cols)].conj()
        for g, L in collapse:
            gen += g * L[np.ix_(rows, rows)] * L[np.ix_(cols, cols)].conj()
        props = [expm(gen * h) for h in steps]
        series[0, block] = rho0[rows, cols]
        for t, w in enumerate(which):
            series[t + 1, block] = props[w] @ series[t, block]
    return blocks, series


def _exact_states(initial: JointState, params: SystemParams, times):
    """Yield rho(t) on the grid, from every coherence-order block.

    Only the k >= 0 blocks are propagated; the k < 0 blocks are their
    conjugates, since rho is hermitian.
    """
    dim = initial.space.dim
    blocks, series = _block_series(initial, params, times,
                                   range(initial.space.n_max + 2))
    rows, cols = (np.concatenate(idx) for idx in zip(*blocks))
    upper, lower = rows * dim + cols, cols * dim + rows
    for values in series:
        rho = np.empty(dim * dim, dtype=complex)
        rho[lower] = values.conj()
        rho[upper] = values  # written last: k = 0 keeps its own elements
        yield rho.reshape(dim, dim)


def lindblad_evolve(initial: JointState, params: SystemParams, times) -> Trajectory:
    """Solve the Lindblad master equation of the lossy JC system on a time grid.

    The initial state lives on a qubit (x) phonon space.  Collapse channels:
    sqrt(kappa_phonon) a, sqrt(gamma_qubit) sigma- and sqrt(gamma_phi/2)
    sigma_z.  Each coherence-order block of the Liouvillian is propagated
    with its matrix exponential; steps that differ only by float rounding
    share one propagator.  Returns the states and no observables: those of
    a trajectory come from lindblad_observables, which builds no state.  A
    one-point grid returns the initial state, checked like any other.
    """
    times = _time_grid(times)
    # the loop makes JointState's checks on every state (hermitian, unit
    # trace, and the constructor's eigenvalue bound by its own Cholesky
    # certificate), so it builds them unchecked.  Only a state that fails
    # the certificate is diagonalised: below -1e-7 it is an error, above it
    # the negative eigenvalues, which only roundoff can leave, are clipped;
    # a certified state is kept as computed
    states = []
    for k, rho in enumerate(_exact_states(initial, params, times)):
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > 1e-8:
            raise IntegrationError(f"trace drift {tr - 1.0:.3e} at t = {times[k]:.4g}")
        rho = rho / tr
        if not _psd_certified(rho):
            evals, evecs = np.linalg.eigh(rho)
            if evals.min() < -1e-7:
                raise IntegrationError(
                    f"negative eigenvalue {evals.min():.3e} below -1e-7 at "
                    f"t = {times[k]:.4g}")
            rho = (evecs * np.clip(evals, 0.0, None)) @ evecs.conj().T
            rho = rho / np.trace(rho).real
        states.append(JointState._trusted(initial.space, rho, "mixed"))
    return Trajectory(times=times, states=states, observables={})


def _first_failure(bad, times):
    """Index of the first time flagged in bad, or None if none is."""
    return int(np.argmax(bad)) if bad.any() else None


def _lambda_min(a, b, c):
    """Smaller eigenvalue of the hermitian 2 x 2 matrices [[a, c*], [c, b]]."""
    return 0.5 * (a + b) - np.hypot(0.5 * (a - b), np.abs(c))


def lindblad_observables(initial: JointState, params: SystemParams,
                         times) -> Trajectory:
    """Observables of the lossy JC trajectory, with no state built.

    Every observable column is linear in the coherence-order blocks k = 0
    and k = 1 of rho: the Fock-basis populations (P_e, n_mean) lie on the
    k = 0 diagonal, and the qubit coherence
    rho_q[e, g] = sum_n rho[(e, n), (g, n)] lies in k = 1.  Only those two
    blocks are propagated, by the same block propagator as lindblad_evolve,
    and states is None.  Every time is checked: a k = 0 trace that drifts
    from 1 by more than 1e-8, or an eigenvalue below -1e-7 of a 2 x 2
    matrix the route reads, is an IntegrationError.  Those matrices are
    the excitation sectors {|g, N>, |e, N-1>} of the k = 0 block, each a
    principal submatrix of rho, and the qubit reduction, whose Bloch vector
    is then longer than 1 + 2e-7; both bounds are closed forms.
    """
    times = _time_grid(times)
    space = initial.space
    blocks, series = _block_series(initial, params, times, (0, 1))
    (rows, cols), (rows1, cols1) = blocks
    zero, one = series[:, :len(rows)], series[:, len(rows):]
    pops = zero[:, rows == cols].real
    tr = pops.sum(axis=1)
    k = _first_failure(np.abs(tr - 1.0) > 1e-8, times)
    if k is not None:
        raise IntegrationError(f"trace drift {tr[k] - 1.0:.3e} at t = {times[k]:.4g}")
    pops = pops / tr[:, None]

    # the 2 x 2 sectors {|g, N>, |e, N-1>}, by their element above the
    # diagonal, and the 1 x 1 sectors |g, 0> and |e, n_max>, by the diagonal
    above = rows < cols
    coupling = zero[:, above] / tr[:, None]
    sector_min = np.minimum(
        _lambda_min(pops[:, rows[above]], pops[:, cols[above]], coupling).min(axis=1),
        pops.min(axis=1))
    k = _first_failure(sector_min < -1e-7, times)
    if k is not None:
        raise IntegrationError(
            f"negative eigenvalue {sector_min[k]:.3e} below -1e-7 in an "
            f"excitation sector at t = {times[k]:.4g}")

    pd = space.phonon_dim
    red = np.empty((len(times), 2, 2), dtype=complex)
    red[:, 0, 0] = pops[:, :pd].sum(axis=1)
    red[:, 1, 1] = pops[:, pd:].sum(axis=1)
    red[:, 1, 0] = one[:, rows1 - cols1 == pd].sum(axis=1) / tr
    red[:, 0, 1] = red[:, 1, 0].conj()
    red = red / np.trace(red, axis1=1, axis2=2).real[:, None, None]
    qubit_min = _lambda_min(red[:, 0, 0].real, red[:, 1, 1].real, red[:, 1, 0])
    k = _first_failure(qubit_min < -1e-7, times)
    if k is not None:
        raise IntegrationError(
            f"qubit Bloch vector of length {1.0 - 2.0 * qubit_min[k]:.9f} > 1 "
            f"(eigenvalue {qubit_min[k]:.3e} below -1e-7) at t = {times[k]:.4g}")
    return Trajectory(times=times, states=None,
                      observables=_observables(space, pops, red))


def revival_contrast(traj: Trajectory, t_r: float | None = None) -> float:
    """Peak-to-trough P_e amplitude in the revival window [0.8 t_R, 1.2 t_R].

    With t_r=None the full trajectory is used (vacuum Rabi case, where no
    revival window exists).
    """
    pe = np.asarray(traj.observables["P_e"], dtype=float)
    if t_r is None:
        window = np.ones_like(traj.times, dtype=bool)
    else:
        if traj.times[0] > 0.8 * t_r or traj.times[-1] < 1.2 * t_r:
            raise ValueError("trajectory does not cover the revival window")
        window = (traj.times >= 0.8 * t_r) & (traj.times <= 1.2 * t_r)
    seg = pe[window]
    return float(seg.max() - seg.min())
