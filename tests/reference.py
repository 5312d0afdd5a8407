"""Physics references that the tests compare the package against.

No command computes these, so they live with the tests: the Fock state,
the purity, the fidelity to a low-rank state given by its factor, the
Gaussian envelope of P_e, the counter-rotating JC branches Phi+/- and the
revival contrast of a P_e series.
"""

import math
import warnings

import numpy as np

from catsim.errors import DimensionMismatchError, TruncationError
from catsim.hilbert import (
    HilbertSpace,
    JointState,
    check_truncation,
    coherent_amplitudes,
    default_cutoff,
)


def fock_state(n: int, space: HilbertSpace) -> JointState:
    if space.has_qubit:
        raise DimensionMismatchError("fock_state builds phonon-only states")
    if not 0 <= n <= space.n_max:
        raise TruncationError(f"Fock index {n} outside 0..{space.n_max}")
    vec = np.zeros(space.dim, dtype=complex)
    vec[n] = 1.0
    return JointState(space, vec, "pure")


def purity(state: JointState) -> float:
    """Tr(rho^2); 1 for pure states."""
    if state.kind == "pure":
        return 1.0
    rho = state.data
    return float(np.sum(np.abs(rho) ** 2))


def factored_fidelity(rho: np.ndarray, factor: np.ndarray) -> float:
    """Fidelity of the density matrix rho to sigma = V V^dag / Tr(V^dag V).

    The nonzero eigenvalues of sqrt(rho) V V^dag sqrt(rho) are those of
    V^dag rho V, so F = Tr sqrt(V^dag rho V / Tr(V^dag V)): an r x r
    eigenproblem for a d x r factor V, with no d x d square root.
    """
    gram = factor.conj().T @ rho @ factor
    evals = np.linalg.eigvalsh(gram) / np.vdot(factor, factor).real
    return float(min(1.0, np.sum(np.sqrt(np.clip(evals, 0.0, None)))))


def excited_population_envelope(params, times) -> np.ndarray:
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


def phi_states(params, t: float, n_max: int | None = None):
    """The counter-rotating phonon states Phi+/-(t) = sum c_n e^{-/+ i g0 t sqrt(n)} |n>."""
    alpha = complex(params.alpha0)
    if alpha.imag != 0 or alpha.real <= 0:
        raise ValueError("phi_states uses the alpha real-positive phase convention")
    if n_max is None:
        n_max = default_cutoff(alpha)
    space = HilbertSpace(n_max, has_qubit=False)
    check_truncation(alpha, n_max)
    c, _ = coherent_amplitudes(alpha, n_max)
    phases = params.g0 * t * np.sqrt(np.arange(n_max + 1))
    plus = c * np.exp(-1j * phases)
    minus = c * np.exp(1j * phases)
    return (
        JointState(space, plus / np.linalg.norm(plus), "pure"),
        JointState(space, minus / np.linalg.norm(minus), "pure"),
    )


def revival_contrast(times, pe, t_r: float) -> float:
    """Peak-to-trough amplitude of the P_e series pe in the revival window
    [0.8 t_R, 1.2 t_R], which the time grid must cover."""
    times = np.asarray(times, dtype=float)
    if times[0] > 0.8 * t_r or times[-1] < 1.2 * t_r:
        raise ValueError("trajectory does not cover the revival window")
    window = (times >= 0.8 * t_r) & (times <= 1.2 * t_r)
    seg = np.asarray(pe, dtype=float)[window]
    return float(seg.max() - seg.min())
