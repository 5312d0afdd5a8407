"""Resonant Jaynes-Cummings dynamics and Lindblad open-system evolution.

Closed-system evolution uses the exact Fock-basis solution of the resonant
JC interaction (Rabi frequency g0 sqrt(n) between |g,n> and |e,n-1>), so
no integrator is involved; a trajectory evaluates it once over its time
grid.  Every trajectory route takes (t_max, n_times) and runs on one grid,
np.linspace(0, t_max, n_times), from the start state its SystemParams
fixes at t = 0.  jc_trajectory returns the states and their observables,
jc_observables the observables alone.  Open-system evolution solves the
Lindblad master equation with collapse channels sqrt(kappa) a,
sqrt(gamma) sigma-, and sqrt(gamma_phi/2) sigma_z exactly, by two routes,
both in the frame rotated by a phase i on |e>, where the Liouvillian is
real.  lindblad_evolve returns one certified state at one time t by the
truncated-Taylor action of the Liouvillian over [0, t] (Al-Mohy & Higham,
SIAM J. Sci. Comput. 33, 488 (2011)), seven diagonals on one real array;
it forms no propagator.  lindblad_observables builds no state: the
Hamiltonian and all three channels conserve the coherence order
k = N_row - N_col of the excitation number N = n + q, so the Liouvillian
splits into independent blocks, one per k (Buca & Prosen, NJP 14, 073007
(2012)); every observable column is linear in the k = 0 and k = 1 blocks,
each stepped along the uniform grid by one real matrix exponential.
Closed and open trajectories take their observables from one routine,
vectorised over states, with the Pauli expectations in closed form.
Free decay of a phonon state alone is the amplitude-damping channel,
applied in closed form by pipeline.free_decay.

Times are in microseconds, rates in 1/us, g0 in rad/us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, StateValidationError
from .hilbert import (
    HilbertSpace,
    JointState,
    OperatorSet,
    _psd_certified,
    check_truncation,
    coherent_amplitudes,
    default_cutoff,
)

OBSERVABLE_COLUMNS = ("P_e", "purity", "sx", "sy", "sz", "n_mean")


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of one experimental configuration, which also fix
    every route's start state (c_g |g> + c_e |e>) (x) |alpha0>."""

    g0: float                      # rad/us
    alpha0: complex = 0.0          # initial coherent amplitude
    c_g: complex = 1.0             # initial qubit amplitude on |g>
    c_e: complex = 0.0             # initial qubit amplitude on |e>
    kappa_phonon: float = 0.0      # 1/us, = 1/T1_ph
    gamma_qubit: float = 0.0       # 1/us
    gamma_phi: float = 0.0         # 1/us, pure dephasing

    def __post_init__(self):
        # each check is written so that a nan fails it
        if not self.g0 > 0:
            raise ValueError("g0 must be positive")
        for name in ("kappa_phonon", "gamma_qubit", "gamma_phi"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not abs(self.alpha0) < math.inf:
            raise ValueError("alpha0 must be finite")
        norm_sq = abs(self.c_g) ** 2 + abs(self.c_e) ** 2
        if not abs(norm_sq - 1.0) <= 1e-6:
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
    check_truncation(params.alpha0, n_max)
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
    bad = ~(np.abs(norms - 1.0) <= 1e-6)  # written so that a nan fails
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


def excited_population(params: SystemParams, times) -> np.ndarray:
    """P_e(t) from the exact JC series at n_max = default_cutoff(alpha0),
    evaluated at the given times."""
    n_max = default_cutoff(params.alpha0)
    check_truncation(params.alpha0, n_max)
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


def _time_grid(t_max: float, n_times: int) -> np.ndarray:
    """Every trajectory's grid: n_times >= 1 points np.linspace(0, t_max),
    from the start state at t = 0 to a finite t_max >= 0."""
    t_max = float(t_max)
    if not 0.0 <= t_max < math.inf:  # written so that a nan fails
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if not n_times >= 1:
        raise ValueError(f"n_times must be >= 1, got {n_times}")
    return np.linspace(0.0, t_max, n_times)


def _observables(space: HilbertSpace, pops, red) -> dict:
    """Standard observables of T states on one qubit (x) phonon space.

    pops (T, dim) are the states' Fock-basis populations and give n_mean;
    red (T, 2, 2) holds their hermitian, unit-trace qubit reductions, which
    give P_e, the qubit purity and, in closed form, <sigma_x> = 2 Re rho_eg,
    <sigma_y> = 2 Im rho_eg and <sigma_z> = rho_ee - rho_gg (|e> -> +1).
    Adding 0.0 turns a -0.0 into the +0.0 that Tr(red sigma) gives, so each
    column equals that trace bit for bit.
    """
    return {"n_mean": pops @ (np.arange(space.dim) % space.phonon_dim),
            "purity": np.sum(np.abs(red) ** 2, axis=(1, 2)),
            "P_e": red[:, 1, 1].real,
            "sx": 2.0 * red[:, 1, 0].real + 0.0,
            "sy": 2.0 * red[:, 1, 0].imag + 0.0,
            "sz": red[:, 1, 1].real - red[:, 0, 0].real}


def _jc_run(params: SystemParams, t_max: float, n_times: int):
    """(times, space, psi, observables) of the closed trajectory: the JC
    series psi (T, dim) at n_max = default_cutoff(alpha0) on the grid and
    its standard observables."""
    times = _time_grid(t_max, n_times)
    n_max = default_cutoff(params.alpha0)
    space = HilbertSpace(n_max, has_qubit=True)
    psi = _jc_series(params, times, n_max)
    red = np.einsum("tin,tjn->tij", psi, psi.conj())
    red = 0.5 * (red + red.conj().swapaxes(1, 2))
    red = red / np.trace(red, axis1=1, axis2=2).real[:, None, None]
    psi = psi.reshape(n_times, -1)
    return times, space, psi, _observables(space, np.abs(psi) ** 2, red)


def jc_observables(params: SystemParams, t_max: float, n_times: int) -> Trajectory:
    """Closed-system observables on the grid _time_grid(t_max, n_times),
    with no state built (states is None): the closed counterpart of
    lindblad_observables."""
    times, _, _, obs = _jc_run(params, t_max, n_times)
    return Trajectory(times=times, states=None, observables=obs)


def jc_trajectory(params: SystemParams, t_max: float, n_times: int) -> Trajectory:
    """Closed-system trajectory: jc_observables' columns and the state at
    every time."""
    # nothing in the package calls this route: it stays because the
    # benchmark harness patches it by name, and the tests use its states as
    # the per-state reference
    times, space, psi, obs = _jc_run(params, t_max, n_times)
    states = [JointState._trusted(space, vec, "pure") for vec in psi]
    return Trajectory(times=times, states=states, observables=obs)


def _excitations(space: HilbertSpace) -> np.ndarray:
    """N = n + q of every basis index (q = 1 on |e>).

    The JC Hamiltonian and sigma_z keep N; a and sigma- lower it by one.
    """
    index = np.arange(space.dim)
    return index % space.phonon_dim + index // space.phonon_dim


def _start_state(params: SystemParams, n_max: int):
    """(space, rho0): params' start state as a density matrix on the qubit
    (x) phonon space at n_max."""
    check_truncation(params.alpha0, n_max)
    psi = np.kron(np.array([params.c_g, params.c_e], dtype=complex),
                  coherent_amplitudes(params.alpha0, n_max)[0])
    return HilbertSpace(n_max, has_qubit=True), np.outer(psi, psi.conj())


# i^(q_row - q_col) at q_row - q_col = 0, 1, -1 (negative reads from the end):
# U = diag(i^q) on rho, the real frame of _block_series and _taylor_action
_QUARTER_TURNS = np.array([1.0, 1j, -1j])


def _block_series(space: HilbertSpace, rho0, params: SystemParams,
                  t_max: float, n_times: int, orders):
    """The coherence-order blocks k in orders of rho(t) on the grid
    _time_grid(t_max, n_times).

    Builds the lossy JC master equation on rho0's qubit (x) phonon space:
    collapse channels sqrt(kappa_phonon) a, sqrt(gamma_qubit) sigma- and
    sqrt(gamma_phi/2) sigma_z, and drift A = -iH - 1/2 sum g L^dag L, so
    that d rho/dt = A rho + rho A^dag + sum g L rho L^dag.  The elements
    rho[i, j] with N_i - N_j = k evolve on their own under
    S_k[(i,j),(l,m)] = A_il d_jm + d_il conj(A_jm) + sum g L_il conj(L_jm).

    Every S_k is taken in the rotated frame rho~ = U rho U^dag,
    U = diag(i^q), a phase i on |e>, where it is real: the drift becomes
    g0 (sigma+ a - sigma- a^dag) - 1/2 sum g L^dag L, and the sigma- jump,
    rotated to -i sigma-, enters S_k as (-i)(+i) = 1.  A block starts from
    ph rho0[rows, cols], ph = i^(q_row - q_col), and is stepped in place
    by one real exp(S_k h), h = t_max / (n_times - 1), acting on its
    elements as real (re, im) pairs; the end multiplies it by conj(ph).

    Returns (blocks, series): blocks[b] = (rows, cols) lists block b's
    elements in row-major order, and series (T, total size) holds every
    block's elements at every time, block after block.
    """
    from scipy.linalg import expm

    ops = OperatorSet(space)
    a, a_dagger, sigma_plus, sigma_minus, sigma_z = (
        op.real for op in (ops.a, ops.a_dagger, ops.sigma_plus,
                           ops.sigma_minus, ops.sigma_z))
    collapse = [(g, L) for g, L in ((params.kappa_phonon, a),
                                    (params.gamma_qubit, sigma_minus),
                                    (params.gamma_phi / 2.0, sigma_z))
                if g > 0]
    drift = params.g0 * (sigma_plus @ a - sigma_minus @ a_dagger)
    for g, L in collapse:
        drift = drift - 0.5 * g * (L.T @ L)

    step = t_max / (n_times - 1) if n_times > 1 else 0.0
    excitations = _excitations(space)
    order = excitations[:, None] - excitations[None, :]
    qubit = np.arange(space.dim) // space.phonon_dim
    blocks = [np.nonzero(order == k) for k in orders]
    series = np.empty((n_times, sum(len(r) for r, _ in blocks)), dtype=complex)
    stop = 0
    for rows, cols in blocks:
        block = slice(stop, stop + len(rows))
        stop = block.stop
        gen = drift[np.ix_(rows, rows)] * (cols[:, None] == cols) \
            + (rows[:, None] == rows) * drift[np.ix_(cols, cols)]
        for g, L in collapse:
            gen += g * L[np.ix_(rows, rows)] * L[np.ix_(cols, cols)]
        prop = expm(gen * step)
        ph = _QUARTER_TURNS[qubit[rows] - qubit[cols]]
        series[0, block] = ph * rho0[rows, cols]
        pairs = series[:, block].view(float).reshape(n_times, -1, 2)
        for t in range(n_times - 1):
            np.matmul(prop, pairs[t], out=pairs[t + 1])
        series[:, block] *= ph.conj()
    return blocks, series


def _first_failure(bad):
    """Index of the first time flagged in bad, or None if none is."""
    return int(np.argmax(bad)) if bad.any() else None


# A Taylor step of the action exp(L h) rho spans ||L||_1 h <= 9.9 with at
# most 55 terms for a backward error of 2^-53: theta_55 of Al-Mohy & Higham,
# SIAM J. Sci. Comput. 33, 488 (2011)
_TAYLOR_THETA = 9.9
_TAYLOR_TERMS = 55
# the drive presets take 7 steps to the cat time; an interval that needs more
# than this (a lifetime of 1e-300 us makes ||L||_1 ~ 1e301) is an error at
# once, not a run that never ends
_MAX_TAYLOR_STEPS = 1000


def _liouvillian(params: SystemParams, d: int):
    """The lossy JC Liouvillian L~ of _block_series' rotated frame, as a
    function on real arrays P over the flat index (q, p, n, m): the four
    qubit blocks of rho[q n, p m] in turn, each holding its phonon indices
    (n, m) row-major.

    L~ P = A P + P A^T + kappa a P a^T + gamma sigma- P sigma+, with the
    sigma_z dephasing, A = g0 (sigma+ a - sigma- a^dag) - 1/2 sum g L^T L.
    On the flat index that is the coefficients -(kappa (n + m) + gamma
    (q + p)) / 2 - gamma_phi [q != p] on the main diagonal and six
    diagonals of constant offset, each one contiguous slice multiply-add
    from its first to its last nonzero weight: the two hops on the row and
    on the column, the kappa jump and the gamma jump of the ee block into
    gg.  In this order only the column hops span a block of zero weights,
    the one between their two qubit rows.
    """
    n = np.arange(d)
    decay = 0.5 * (params.kappa_phonon * n + params.gamma_qubit * np.arange(2)[:, None])
    coef = -(decay[:, None, :, None] + decay[:, None])
    coef[[0, 1], [1, 0]] -= params.gamma_phi  # the qubit coherences ge, eg
    block = d * d
    root = params.g0 * np.sqrt(n[1:])
    along_n = np.r_[np.repeat(root, d), np.zeros(d)]  # one block's root[n], n < d - 1
    along_m = np.tile(np.r_[root, 0.0], d)            # and its root[m], m < d - 1
    hop_row = np.tile(along_n, 2)[:-d]
    hop_col = np.r_[along_m, np.zeros(block), along_m][:-1]
    jump = np.zeros((4, d, d))
    jump[:, :-1, :-1] = params.kappa_phonon * np.sqrt(np.outer(n[1:], n[1:]))
    spans = ((hop_row, 2 * block, d),   # sigma+ a: row (e, n) from (g, n + 1)
             (-hop_row, d, 2 * block),  # -sigma- a^dag: (g, n) from (e, n - 1)
             (hop_col, block, 1),       # the same two hops on the column
             (-hop_col, 1, block),
             (jump.ravel()[:-d - 1], 0, d + 1),
             # (-i sigma-) rho~ (-i sigma-)^dag: ee into gg
             (np.full(block, params.gamma_qubit), 0, 3 * block))
    diagonals = [(slice(target, target + w.size), slice(source, source + w.size), w)
                 for w, target, source in spans if w.any()]
    coef = coef.ravel()

    def apply(packed):
        out = coef * packed
        for target, source, w in diagonals:
            out[target] += w * packed[source]
        return out

    return apply


def _liouvillian_norm(params: SystemParams, d: int) -> float:
    """A bound on ||L||_1, the largest column sum of _liouvillian's L~: the
    hops give 2 g0 sqrt(d), the main diagonal its largest |c|, and the
    jumps kappa (d - 1) + gamma.  In Python floats, a rate that overflows
    gives inf with no warning."""
    largest_c = params.kappa_phonon * (d - 1) + max(
        params.gamma_qubit, 0.5 * params.gamma_qubit + params.gamma_phi)
    return (2.0 * params.g0 * math.sqrt(d) + largest_c
            + params.kappa_phonon * (d - 1) + params.gamma_qubit)


def _taylor_action(space: HilbertSpace, rho0, params: SystemParams, t: float):
    """rho(t) from rho0 by the truncated-Taylor action of the Liouvillian
    over [0, t] (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).

    It runs on one real array P = Re rho~ + Im rho~, rho~ = ph rho0, in
    _liouvillian's qubit-block order.  L~ is real and keeps hermiticity, so
    it keeps the symmetric Re rho~ and the antisymmetric Im rho~ apart: the
    packing is exact for a hermitian rho0, and conj(ph) (sym P + i antisym
    P) is hermitian bit for bit.  The interval takes s = ceil(||L||_1 t /
    9.9) steps, at least one, each summing at most 55 terms and stopping
    once two successive terms fall below 2^-53 of the partial sum in
    max |P_i|; that maximum is taken only once twice the triangle bound
    max |P_0| + sum max |term| lets the test pass, which leaves every stop
    where it was.  No propagator is formed.
    An interval that would need more than _MAX_TAYLOR_STEPS steps, or
    whose ||L||_1 t is not finite, is an IntegrationError before any step.
    """
    d = space.phonon_dim
    norm_t = _liouvillian_norm(params, d) * t
    if not norm_t <= _TAYLOR_THETA * _MAX_TAYLOR_STEPS:
        raise IntegrationError(
            f"||L||_1 dt = {norm_t:.3e} needs more than {_MAX_TAYLOR_STEPS} "
            f"Taylor steps at t = {t:.4g}")
    if t == 0.0:  # no term to apply: rho0 itself, made exactly hermitian
        return 0.5 * (rho0 + rho0.conj().T)
    apply = _liouvillian(params, d)
    tol = 2.0 ** -53
    steps = max(1, math.ceil(norm_t / _TAYLOR_THETA))
    h = t / steps
    qubit = np.arange(space.dim) // d
    ph = _QUARTER_TURNS[qubit[:, None] - qubit]
    packed = ph * rho0
    packed = (packed.real + packed.imag).reshape(2, d, 2, d).transpose(0, 2, 1, 3).ravel()
    for _ in range(steps):
        total, term = packed.copy(), packed
        last = bound = np.abs(term).max()
        for j in range(1, _TAYLOR_TERMS + 1):
            term = apply(term)
            term *= h / j
            total += term
            size = np.abs(term).max()
            # bound >= max |total| by the triangle inequality, and twice it
            # covers the rounding of <= 56 additions: the stop test cannot
            # pass unless the first one does
            bound += size
            if last + size <= tol * 2.0 * bound and last + size <= tol * np.abs(total).max():
                break
            last = size
        packed = total
    packed = packed.reshape(2, 2, d, d).transpose(0, 2, 1, 3).reshape(space.dim, space.dim)
    return ph.conj() * (0.5 * (packed + packed.T) + 0.5j * (packed - packed.T))


def lindblad_evolve(params: SystemParams, t: float) -> Trajectory:
    """The lossy JC state at time t >= 0, by the Lindblad master equation.

    The run starts from params' state (c_g |g> + c_e |e>) (x) |alpha0> at
    n_max = default_cutoff(alpha0).  Collapse channels:
    sqrt(kappa_phonon) a, sqrt(gamma_qubit) sigma- and sqrt(gamma_phi/2)
    sigma_z.  rho is advanced over [0, t] by one truncated-Taylor action of
    the Liouvillian (_taylor_action), with no propagator and no scipy
    routine; an interval too stiff for that is an IntegrationError.  The
    state comes out hermitian; its trace is checked against 1e-8 and
    restored, and its eigenvalue bound certified as JointState's
    constructor would; a state that fails is an IntegrationError, with no
    repair.  t = 0 returns the start state, bit for bit if it is exactly
    hermitian.  Trajectories belong to lindblad_observables, which builds
    no state.
    """
    t = float(t)
    if not 0.0 <= t < math.inf:  # written so that a nan fails
        raise ValueError(f"t must be finite and >= 0, got {t}")
    space, rho0 = _start_state(params, default_cutoff(params.alpha0))
    rho = _taylor_action(space, rho0, params, t)
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= 1e-8:  # written so that a nan trace fails
        raise IntegrationError(f"trace drift {tr - 1.0:.3e} at t = {t:.4g}")
    rho = rho / tr
    if not _psd_certified(rho):
        raise IntegrationError(
            f"negative eigenvalue {np.linalg.eigvalsh(rho).min():.3e} below "
            f"-1e-9 at t = {t:.4g}")
    # one state, in a Trajectory: the benchmark harness counts
    # len(result.states) on this call
    return Trajectory(times=np.array([t]),
                      states=[JointState._trusted(space, rho, "mixed")],
                      observables={})


def _lambda_min(a, b, c):
    """Smaller eigenvalue of the hermitian 2 x 2 matrices [[a, c*], [c, b]]."""
    return 0.5 * (a + b) - np.hypot(0.5 * (a - b), np.abs(c))


def lindblad_observables(params: SystemParams, t_max: float, n_times: int) -> Trajectory:
    """Observables of the lossy JC trajectory on the grid
    _time_grid(t_max, n_times), with no state built.

    Like every route, the run starts from params' state at t = 0.  Every
    observable column is linear in the coherence-order blocks k = 0 and
    k = 1 of rho: the Fock-basis populations (P_e, n_mean) lie on the
    k = 0 diagonal, and the qubit coherence
    rho_q[e, g] = sum_n rho[(e, n), (g, n)] lies in k = 1.  Only those two
    blocks are propagated, by _block_series, and states is None.  Every
    time is checked: a k = 0 trace that drifts from 1 by more than 1e-8,
    or an eigenvalue below -1e-7 of a 2 x 2 matrix the route reads, is an
    IntegrationError.  Those matrices are
    the excitation sectors {|g, N>, |e, N-1>} of the k = 0 block, each a
    principal submatrix of rho, and the qubit reduction, whose Bloch vector
    is then longer than 1 + 2e-7; both bounds are closed forms.
    """
    times = _time_grid(t_max, n_times)
    space, rho0 = _start_state(params, default_cutoff(params.alpha0))
    blocks, series = _block_series(space, rho0, params, t_max, n_times, (0, 1))
    (rows, cols), (rows1, cols1) = blocks
    zero, one = series[:, :len(rows)], series[:, len(rows):]
    pops = zero[:, rows == cols].real
    tr = pops.sum(axis=1)
    # each check is written so that a nan fails it
    k = _first_failure(~(np.abs(tr - 1.0) <= 1e-8))
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
    k = _first_failure(~(sector_min >= -1e-7))
    if k is not None:
        raise IntegrationError(
            f"negative eigenvalue {sector_min[k]:.3e} below -1e-7 in an "
            f"excitation sector at t = {times[k]:.4g}")

    pd = space.phonon_dim
    red = np.empty((n_times, 2, 2), dtype=complex)
    red[:, 0, 0] = pops[:, :pd].sum(axis=1)
    red[:, 1, 1] = pops[:, pd:].sum(axis=1)
    red[:, 1, 0] = one[:, rows1 - cols1 == pd].sum(axis=1) / tr
    red[:, 0, 1] = red[:, 1, 0].conj()
    red = red / np.trace(red, axis1=1, axis2=2).real[:, None, None]
    qubit_min = _lambda_min(red[:, 0, 0].real, red[:, 1, 1].real, red[:, 1, 0])
    k = _first_failure(~(qubit_min >= -1e-7))
    if k is not None:
        raise IntegrationError(
            f"qubit Bloch vector of length {1.0 - 2.0 * qubit_min[k]:.9f} > 1 "
            f"(eigenvalue {qubit_min[k]:.3e} below -1e-7) at t = {times[k]:.4g}")
    return Trajectory(times=times, states=None,
                      observables=_observables(space, pops, red))
