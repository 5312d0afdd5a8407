"""Physics references that the tests compare the package against.

No command computes these, so they live with the tests: the Fock state,
the purity, the qubit reduction of a joint state, the fidelity to a
low-rank state given by its factor, the generic fidelity by two matrix
square roots, the closed form of the exact P_e and its Gaussian envelope,
the counter-rotating JC branches Phi+/- and the revival contrast of a P_e
series.  The CSS fit's former 16-start grid search is kept as the
reference for its Husimi-Q start, and the analytical fit's former bracket
grid as the reference for its one Brent run, with the fixed corpus of
states the fits are compared on.
"""

import math
import warnings

import numpy as np

from catsim.catfit import (
    FIT_GTOL,
    FIT_MAXITER,
    FIT_XATOL,
    AnalyticalFit,
    CssFit,
    _analytical_profile,
    _css_fit,
)
from catsim.dynamics import lindblad_evolve
from catsim.errors import DimensionMismatchError, StateValidationError, TruncationError
from catsim.hilbert import (
    HilbertSpace,
    JointState,
    check_truncation,
    coherent_amplitudes,
    default_cutoff,
    max_amplitude,
)
from catsim.phase_space import raster_grid
from catsim.pipeline import ExperimentConfig, drive_alpha, prepare_cat, simulate_tomography
from catsim.tomography import ReadoutModel


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


def qubit_reduction(state: JointState) -> JointState:
    """The trace over the phonon of a qubit (x) phonon state, rho_q[i, j] =
    sum_n rho[(i, n), (j, n)], as a mixed state on a two-level space."""
    if not state.space.has_qubit:
        raise DimensionMismatchError("qubit_reduction needs a qubit (x) phonon state")
    pd = state.space.phonon_dim
    red = np.einsum("injn->ij", state.density_matrix().reshape(2, pd, 2, pd))
    return JointState(HilbertSpace(1), red, "mixed")


def factored_fidelity(rho: np.ndarray, factor: np.ndarray) -> float:
    """Fidelity of the density matrix rho to sigma = V V^dag / Tr(V^dag V).

    The nonzero eigenvalues of sqrt(rho) V V^dag sqrt(rho) are those of
    V^dag rho V, so F = Tr sqrt(V^dag rho V / Tr(V^dag V)): an r x r
    eigenproblem for a d x r factor V, with no d x d square root.
    """
    gram = factor.conj().T @ rho @ factor
    evals = np.linalg.eigvalsh(gram) / np.vdot(factor, factor).real
    return float(min(1.0, np.sum(np.sqrt(np.clip(evals, 0.0, None)))))


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix by eigh, roundoff eigenvalues clipped at 0."""
    evals, evecs = np.linalg.eigh(mat)
    if evals.min() < -1e-8:
        raise StateValidationError(f"matrix not PSD (min eigenvalue {evals.min()})")
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def sqrtm_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)) of two density matrices, the
    generic route: two d x d square roots whose clipped roundoff
    eigenvalues leave a noise floor of ~1e-8 on rank-deficient pairs."""
    sr = psd_sqrt(rho)
    return float(min(1.0, np.trace(psd_sqrt(sr @ sigma @ sr)).real))


def excited_population_closed_form(params, times) -> np.ndarray:
    """P_e(t) of the exact JC solution, summed over the Fock pairs
    {|g, n + 1>, |e, n>} in closed form at n_max = default_cutoff(alpha0).

    Each pair contributes |c_n c_e|^2 cos^2 + |c_{n+1} c_g|^2 sin^2 of its
    Rabi phase g0 sqrt(n + 1) t, plus the cross term
    2 Im(c_{n+1} conj(c_n) c_g conj(c_e)) cos sin; |e, n_max>, whose
    partner the space drops, adds |c_nmax c_e|^2 cos^2.
    """
    n_max = default_cutoff(params.alpha0)
    check_truncation(params.alpha0, n_max)
    times = np.asarray(times, dtype=float)
    c, _ = coherent_amplitudes(params.alpha0, n_max)
    phase = np.outer(times, params.g0 * np.sqrt(np.arange(n_max) + 1.0))
    w_e = np.abs(c[:-1]) ** 2 * abs(params.c_e) ** 2
    w_g = np.abs(c[1:]) ** 2 * abs(params.c_g) ** 2
    w_x = 2.0 * np.imag(c[1:] * np.conj(c[:-1]) * params.c_g * np.conj(params.c_e))
    pe = np.cos(phase) ** 2 @ w_e + np.sin(phase) ** 2 @ w_g \
        + (np.cos(phase) * np.sin(phase)) @ w_x
    pe += np.abs(c[-1]) ** 2 * abs(params.c_e) ** 2 \
        * np.cos(params.g0 * math.sqrt(n_max + 1.0) * times) ** 2
    return np.clip(pe, 0.0, 1.0)


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


# the CSS fit's start grid before its Husimi-Q start: 4 radii x 4 angles,
# each start a pair (a, -a)
GRID_STARTS = [(a.real, a.imag, -a.real, -a.imag)
               for a in (r * np.exp(1j * phi) for r in (0.75, 1.25, 1.75, 2.25)
                         for phi in np.arange(4) * math.pi / 4)]


def fit_css_grid(rho: JointState) -> CssFit:
    """fit_css as it ran from the 16 GRID_STARTS: the best of 16 BFGS runs."""
    return _css_fit(rho, GRID_STARTS)


# the analytical fit's bracket grid before its one Brent run
ALPHA_GRID = 24


def fit_analytical_grid(rho: JointState, c_g: complex, c_e: complex,
                        t_c: float, g0: float) -> AnalyticalFit:
    """fit_analytical as it ran with a bracket grid: the profile at
    ALPHA_GRID points over (0, max_amplitude(n_max)], then bounded Brent
    between the grid neighbours of the best one; the best profiled point
    wins."""
    from scipy.optimize import minimize_scalar

    rho_data = rho.density_matrix()
    grid = np.linspace(0.0, max_amplitude(rho.space.n_max), ALPHA_GRID + 1)
    profiled = []

    def profile(alpha):
        theta, f, slope = _analytical_profile(rho_data, alpha, c_g, c_e, t_c, g0)
        profiled.append((f, alpha, theta, slope))
        return -f

    best = int(np.argmin([profile(alpha) for alpha in grid[1:]])) + 1
    res = minimize_scalar(profile, bounds=(grid[best - 1], grid[min(best + 1, ALPHA_GRID)]),
                          method="bounded",
                          options={"xatol": FIT_XATOL, "maxiter": FIT_MAXITER})
    f, alpha, theta, slope = max(profiled)
    return AnalyticalFit(alpha_fit=float(alpha), theta=theta, fidelity=f,
                         converged=bool(res.success) and slope <= FIT_GTOL,
                         n_evals=len(profiled), n_capped=int(res.status == 1),
                         theta_slope=slope, alpha_converged=bool(res.success))


def traced_cat(drive: float) -> JointState:
    """The phonon state at the cat time with the qubit traced out.

    prepare_cat post-selects the qubit on |+x>; this is the trace itself,
    einsum("inim->nm") over the joint density matrix.
    """
    config = ExperimentConfig()
    joint = lindblad_evolve(config.system_params(drive_alpha(drive)), config.t_cat).states[0]
    pd = joint.space.phonon_dim
    red = np.einsum("inim->nm", joint.data.reshape(2, pd, 2, pd))
    red = 0.5 * (red + red.conj().T)
    return JointState(HilbertSpace(joint.space.n_max), red / np.trace(red).real, "mixed")


# the comparison corpus of the CSS fit: the MLE states of 8 sampling seeds at
# (drive, recon_n_max) below, with tomo's default readout and raster, and the
# +x (prepare_cat) and traced states of the three drives
CORPUS_MLE = [(0.25, 20), (0.30, 20), (0.35, 20), (0.30, 12)]
CORPUS_SEEDS = range(8)
CORPUS_DRIVES = (0.25, 0.30, 0.35)


def corpus_state(name: str) -> JointState:
    """One corpus state by name: "plusx_<drive>", "traced_<drive>" or
    "mle_<drive>_<recon_n_max>_<seed>"."""
    kind, drive, *rest = name.split("_")
    drive = float(drive)
    if kind == "plusx":
        return prepare_cat(drive_alpha(drive), ExperimentConfig())
    if kind == "traced":
        return traced_cat(drive)
    n_max, seed = map(int, rest)
    model = ReadoutModel(contrast=0.9, offset=0.02, shots=500, seed=seed)
    _, mle = simulate_tomography(prepare_cat(drive_alpha(drive), ExperimentConfig()),
                                 model, raster_grid(2.2, 11), recon_n_max=n_max)
    return mle.state


def corpus_names() -> list[str]:
    """All 38 corpus names, in a fixed order."""
    names = [f"{kind}_{drive:.2f}" for drive in CORPUS_DRIVES for kind in ("plusx", "traced")]
    names += [f"mle_{drive:.2f}_{n_max}_{seed}" for drive, n_max in CORPUS_MLE
              for seed in CORPUS_SEEDS]
    return names
