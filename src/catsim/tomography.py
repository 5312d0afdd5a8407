"""Simulated parity readout, calibrations, and MLE state reconstruction.

The parity readout is modeled at the operator level: a displaced-parity
POVM whose outcome probabilities are compressed by a scalar contrast and
shifted by an offset.  All randomness flows through seeded generators;
identical seeds reproduce sample sets bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitError, StateValidationError
from .hilbert import HilbertSpace, JointState, _fock_table, displaced_parity, \
    parity_kernels

_PARITY_PHASES = 41
# mle_reconstruct's default stationarity-gap threshold; the gap stalls near
# 1e-9 in double precision
MLE_GAP_TOL = 1e-7


@dataclass(frozen=True)
class ReadoutModel:
    """Scalar-contrast parity readout: expected raw value contrast*Pi + offset."""

    contrast: float = 1.0
    offset: float = 0.0
    shots: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.contrast <= 1.0:
            raise ValueError("contrast must be in (0, 1]")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass(frozen=True)
class ParityNormalization:
    """Affine map from raw readout to parity: parity = (raw - offset)/amplitude."""

    amplitude: float
    offset: float

    @classmethod
    def identity(cls):
        return cls(amplitude=1.0, offset=0.0)

    def apply(self, raw):
        return (np.asarray(raw, dtype=float) - self.offset) / self.amplitude

    def unapply(self, parity):
        return np.asarray(parity, dtype=float) * self.amplitude + self.offset


def _draw_parity(pi_true: float, model: ReadoutModel, rng) -> float:
    """Empirical mean of `shots` Bernoulli parity outcomes around pi_true."""
    p_plus = (1.0 + model.contrast * pi_true + model.offset) / 2.0
    if not 0.0 <= p_plus <= 1.0:
        raise StateValidationError(
            f"readout model gives outcome probability {p_plus}; "
            "contrast/offset are inconsistent"
        )
    k = rng.binomial(model.shots, p_plus)
    return 2.0 * k / model.shots - 1.0


def calibrate_parity(model: ReadoutModel) -> ParityNormalization:
    """Vacuum Ramsey phase sweep; cosine fit yields the raw->parity map.

    Sweeping the analysis phase of the final pi/2 pulse with the phonon in
    |0> oscillates the raw readout between its extremes; the fitted cosine
    amplitude and offset normalize subsequent measurements so the vacuum
    reads parity +1.
    """
    rng = np.random.default_rng(model.seed)
    phases = np.linspace(0.0, 2.0 * math.pi, _PARITY_PHASES, endpoint=False)
    raw = np.empty(_PARITY_PHASES)
    for i, phi in enumerate(phases):
        raw[i] = _draw_parity(math.cos(phi), model, rng)
    basis = np.column_stack([np.cos(phases), np.ones_like(phases)])
    coef, *_ = np.linalg.lstsq(basis, raw, rcond=None)
    amplitude, offset = float(coef[0]), float(coef[1])
    if amplitude <= 0:
        raise FitError("parity calibration cosine fit failed (non-positive amplitude)")
    return ParityNormalization(amplitude=amplitude, offset=offset)


@dataclass(frozen=True)
class DriveCalibration:
    """Phenomenological drive-to-displacement model |beta| = C (e^{A/B} - 1)."""

    B: float
    C: float
    residual: float = 0.0

    def __post_init__(self):
        if self.B <= 0 or self.C <= 0:
            raise ValueError("B and C must be positive")

    def beta_abs(self, amplitude):
        """C (e^{A/B} - 1); a value beyond the float range is a FitError."""
        try:
            with np.errstate(over="raise"):
                return self.C * (np.exp(np.asarray(amplitude, dtype=float) / self.B) - 1.0)
        except FloatingPointError as exc:
            raise FitError(f"drive model C (e^(A/B) - 1) at B = {self.B:g} overflows") from exc


def calibrate_drive(samples) -> DriveCalibration:
    """Fit (B, C) of |beta| = C (e^{A/B} - 1) to (A, |beta|) samples.

    The model is linear in C, so C is profiled out in closed form: with
    f = e^{x u} - 1 at x = A / max A and u = max A / B, C*(u) = sum f beta /
    sum f^2.  u alone is searched, first on a log grid over [1e-3, 300] and
    then as the root of the least squares' derivative in u, proportional to
    sum (beta - C* f) x e^{x u}, between the grid points beside the best one.
    Scaling every |beta| by s scales C by s and leaves B as it is.  A best u
    at the grid's edge, or C* <= 0, is a FitError.
    """
    from scipy.optimize import brentq

    samples = [(float(a), float(b)) for a, b in samples]
    if len(samples) < 3:
        raise FitError("need at least 3 (A, |beta|) samples")
    amps = np.array([s[0] for s in samples])
    betas = np.array([s[1] for s in samples])
    if not (np.isfinite(amps).all() and np.isfinite(betas).all()):
        raise FitError("drive calibration samples must be finite")
    if np.any(amps < 0):
        raise FitError("drive amplitudes must be >= 0")
    if amps.max() == 0:
        raise FitError("drive calibration needs a nonzero amplitude")
    order = np.argsort(amps)
    if np.any(np.diff(betas[order]) < -0.05 * max(betas.max(), 1e-9)):
        warnings.warn("drive calibration data is non-monotone beyond noise", stacklevel=2)
    x = amps / amps.max()

    def profile(u):
        """C* and the residuals beta - C* f at the exponent scale(s) u."""
        f = np.expm1(np.multiply.outer(u, x))
        c = f @ betas / np.einsum("...i,...i->...", f, f)
        return c, betas - c[..., None] * f, f

    def slope(u):
        _, resid, f = profile(u)
        return resid @ (x * (f + 1.0))

    # samples near the float limit overflow the sums of squares, and brentq
    # raises ValueError on a bracket whose ends share a sign
    try:
        with np.errstate(over="raise"):
            grid = np.geomspace(1e-3, 300.0, 241)
            _, resid, _ = profile(grid)
            best = int(np.argmin(np.einsum("ij,ij->i", resid, resid)))
            if best in (0, len(grid) - 1):
                raise FitError(f"drive calibration least squares has no interior minimum "
                               f"in max A / B on [{grid[0]:g}, {grid[-1]:g}]")
            u = brentq(slope, grid[best - 1], grid[best + 1])
            c, resid, _ = profile(u)
    except (ValueError, FloatingPointError) as exc:
        raise FitError(f"drive calibration fit diverged: {exc}") from exc
    if c <= 0:
        raise FitError(f"drive calibration gives prefactor C = {c:g} <= 0")
    return DriveCalibration(B=float(amps.max() / u), C=float(c),
                            residual=float(np.sqrt(np.mean(resid ** 2))))


@dataclass(frozen=True)
class FockPopulations:
    populations: np.ndarray
    gamma_d: float
    beta_abs: float
    residual: float


def _rabi_basis(times, g0, n_terms, gamma_d):
    """Damped resonant Rabi traces: column n is (1 - cos(2 g0 sqrt(n+1) t) e^{-gamma_d t})/2."""
    times = np.asarray(times, dtype=float)
    n = np.arange(n_terms)
    phase = 2.0 * g0 * np.sqrt(n + 1.0)[None, :] * times[:, None]
    return (1.0 - np.cos(phase) * np.exp(-gamma_d * times)[:, None]) / 2.0


def extract_fock_populations(times, p_e, g0: float, n_fit: int) -> FockPopulations:
    """Fock populations from a resonant Rabi trace, plus a Poisson |beta| fit.

    Nonnegative least squares over p_0..p_{n_fit} at each candidate shared
    damping gamma_d, with a 1D outer search over gamma_d.
    """
    from scipy.optimize import minimize_scalar, nnls

    times = np.asarray(times, dtype=float)
    p_e = np.asarray(p_e, dtype=float)
    t_rabi = math.pi / g0  # vacuum Rabi period of the model
    if times[-1] - times[0] < 2.0 * t_rabi:
        raise FitError(
            f"trace spans {times[-1] - times[0]:.3g} us < two vacuum Rabi periods "
            f"({2 * t_rabi:.3g} us); populations are ill-conditioned"
        )
    cond = np.linalg.cond(_rabi_basis(times, g0, n_fit + 1, 0.0))
    if cond > 1e8:
        raise FitError(f"Rabi basis condition number {cond:.2e}; trace too short "
                       f"or n_fit too large")

    def solve(gamma):
        basis = _rabi_basis(times, g0, n_fit + 1, gamma)
        pops, rnorm = nnls(basis, p_e)
        return pops, rnorm

    res = minimize_scalar(lambda g: solve(g)[1], bounds=(0.0, 5.0), method="bounded",
                          options={"xatol": 1e-6})
    gamma_d = float(res.x)
    pops, rnorm = solve(gamma_d)
    total = pops.sum()
    if total > 1.0 + 1e-6:
        pops = pops / total
    resid = float(rnorm / math.sqrt(len(times)))

    n, log_fact = _fock_table(n_fit)

    def poisson(b):
        return np.exp(-b * b + 2.0 * n * np.log(max(b, 1e-12)) - log_fact)

    pres = minimize_scalar(lambda b: float(np.sum((pops - poisson(b)) ** 2)),
                           bounds=(1e-6, math.sqrt(n_fit) + 1.0), method="bounded",
                           options={"xatol": 1e-8})
    beta_abs = float(pres.x)
    return FockPopulations(populations=pops, gamma_d=gamma_d, beta_abs=beta_abs,
                           residual=resid)


@dataclass
class WignerSampleSet:
    """Normalized parity samples over a set of displacement points."""

    betas: np.ndarray
    parities: np.ndarray       # normalized, clamped to [-1, 1]
    shots_per_point: int
    normalization: ParityNormalization

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=complex)
        self.parities = np.clip(np.asarray(self.parities, dtype=float), -1.0, 1.0)
        if self.betas.shape != self.parities.shape:
            raise ValueError("betas/parities length mismatch")


def sample_wigner(state: JointState, betas, model: ReadoutModel,
                  normalization: ParityNormalization | None = None) -> WignerSampleSet:
    """Simulate a Wigner tomography run over `betas`, one readout per point.

    The true parities are displaced_parity's, exact for the truncated state
    at every beta.  Point i draws from its own generator, seeded with
    seed ^ (i + 1), so points can be sampled in any order (or in parallel)
    with identical results.  Those seeds collide across runs: point i of
    seed s and point j of seed s' share a stream whenever
    s ^ (i + 1) == s' ^ (j + 1), as point 1 of seed 0 and point 0 of seed 3
    do.
    """
    betas = np.asarray(betas, dtype=complex).ravel()
    if normalization is None:
        normalization = ParityNormalization.identity()
    pi_true = displaced_parity([state], betas)[0]
    raw = np.empty(len(betas))
    for i in range(len(betas)):
        rng = np.random.default_rng(model.seed ^ (i + 1))
        raw[i] = _draw_parity(pi_true[i], model, rng)
    return WignerSampleSet(betas=betas, parities=normalization.apply(raw),
                           shots_per_point=model.shots, normalization=normalization)


@dataclass
class MleResult:
    """The outcome of mle_reconstruct.

    log_likelihoods holds l(x) of the iterate before the first step and after
    each step (iterations + 1 entries); it never decreases.  converged is true
    iff stationarity_gap <= the tol of the call.
    """

    state: JointState
    log_likelihoods: np.ndarray
    converged: bool
    iterations: int
    stationarity_gap: float  # lambda_max(R)/Tr(R rho) - 1 at state; 0 at the ML estimate


def _flat_kernels(betas, dim: int) -> np.ndarray:
    """The parity_kernels stack at betas as one real (N, 2 dim^2) matrix: a view, not a copy.

    Each row holds the (re, im) pairs of one Hermitian kernel K_k, so for a
    Hermitian rho, Tr(K_k rho) = sum_ij K_ij conj(rho_ij) is _kernel_traces,
    and sum_k c_k K_k for real c_k is _kernel_sum: one real GEMV each.
    """
    return parity_kernels(betas, dim).reshape(len(betas), -1).view(float)


def _kernel_traces(kflat: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr(K_k rho) for every kernel row of kflat and a Hermitian rho."""
    return kflat @ rho.ravel().view(float)


def _kernel_sum(coeffs: np.ndarray, kflat: np.ndarray, dim: int) -> np.ndarray:
    """sum_k coeffs_k K_k, a dim x dim complex matrix, for real coeffs."""
    return (coeffs @ kflat).view(complex).reshape(dim, dim)


def _project_density(h: np.ndarray) -> np.ndarray:
    """The density matrix nearest to the Hermitian h in Frobenius norm.

    One eigh, then the Euclidean projection of the eigenvalues onto the
    probability simplex (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)):
    mu_i = max(lambda_i - s, 0), with the one shift s that makes sum mu = 1.
    """
    evals, evecs = np.linalg.eigh(h)
    desc = evals[::-1]
    excess = np.cumsum(desc) - 1.0
    k = np.flatnonzero(desc * np.arange(1, len(desc) + 1) > excess)[-1]
    mu = np.maximum(evals - excess[k] / (k + 1), 0.0)
    rho = (evecs * mu) @ evecs.conj().T
    return 0.5 * (rho + rho.conj().T)


def mle_reconstruct(samples: WignerSampleSet, space: HilbertSpace,
                    max_iters: int = 30000,
                    tol: float = MLE_GAP_TOL) -> MleResult:
    """Maximum-likelihood reconstruction from parity samples.

    Binary displaced-parity POVMs E+ = ((1 + off) I + amp K)/2, E- = I - E+,
    adjusted by the sample set's readout amplitude/offset.  The concave
    log-likelihood l has gradient shots * R, R = sum_k (f+_k/p+_k) E+_k +
    (f-_k/p-_k) E-_k, evaluated as two real GEMVs over _flat_kernels.

    Accelerated projected-gradient ascent (Shang, Zhang & Ng, PRA 95, 062336
    (2017)) from the maximally mixed state: FISTA steps z = project(y + tR(y))
    (_project_density), t halved until the quadratic upper bound
    l(z) >= l(y) + shots (Tr(R(y)(z - y)) - |z - y|^2 / 2t) holds and grown
    1.5x after each step.  Monotone safeguard: z replaces the iterate x only
    if l(z) >= l(x); otherwise the momentum restarts from x.

    Stops once the stationarity (KKT) gap lambda_max(R)/Tr(R x) - 1 (>= 0,
    and 0 only at the ML estimate) is <= tol: by concavity,
    l(sigma) - l(x) <= shots Tr(R x) gap for every density matrix sigma.  A
    step from x itself that no longer raises l, or max_iters, ends the loop
    unconverged.
    """
    if space.has_qubit:
        raise ValueError("reconstruction space must be phonon-only")
    if len(samples.betas) == 0:
        raise ValueError("sample set is empty")
    dim = space.dim
    amp = samples.normalization.amplitude
    off = samples.normalization.offset
    # calibration estimates carry shot noise, so allow a small excess over
    # the exact physicality bound; probabilities are clipped below anyway
    if amp <= 0 or abs(off) + amp > 1.02:
        raise StateValidationError(
            f"normalization record (amplitude={amp}, offset={off}) implies an "
            "unphysical POVM"
        )
    shots = samples.shots_per_point
    raw = samples.normalization.unapply(samples.parities)
    f_plus = (1.0 + raw) / 2.0
    f_minus = 1.0 - f_plus
    if not np.all((f_plus >= -1e-12) & (f_plus <= 1.0 + 1e-12)):
        raise StateValidationError("raw frequencies outside [0, 1] or not finite; "
                                   "record inconsistent")
    f_plus = np.clip(f_plus, 0.0, 1.0)
    f_minus = np.clip(f_minus, 0.0, 1.0)

    kflat = _flat_kernels(samples.betas, dim)

    def probs(rho):
        pi_exp = _kernel_traces(kflat, rho)
        p_plus = (1.0 + amp * pi_exp + off) / 2.0
        return np.clip(p_plus, 1e-12, 1.0 - 1e-12)

    def loglike(p_plus):
        return float(shots * np.sum(f_plus * np.log(p_plus)
                                    + f_minus * np.log(1.0 - p_plus)))

    def r_parts(p_plus):
        # R = c I + G.  G = sum_k c_k K_k is the exact gradient of l / shots
        # as computed; c I moves no trace-one step, and leaving it out keeps
        # the trace roundoff of y, times c ~ N, out of the backtracking test
        w_plus = f_plus / p_plus
        w_minus = f_minus / (1.0 - p_plus)
        c_i = 0.5 * np.sum(w_plus * (1.0 + off) + w_minus * (1.0 - off))
        return c_i, _kernel_sum(0.5 * (w_plus - w_minus) * amp, kflat, dim)

    def gap_of(rho, c_i, grad):
        # lambda_max(R) / Tr(R rho) - 1
        return float((c_i + np.linalg.eigvalsh(grad)[-1])
                     / (c_i + np.vdot(rho, grad).real) - 1.0)

    x = np.eye(dim, dtype=complex) / dim
    p_x = probs(x)
    ll = [loglike(p_x)]
    c_x, g_x = r_parts(p_x)
    gap = gap_of(x, c_x, g_x)
    y, l_y, g_y = x, ll[0], g_x
    theta, step = 1.0, 1.0 / len(samples.betas)  # Tr(R rho) ~ N
    while gap > tol and len(ll) <= max_iters:
        while True:
            z = _project_density(y + step * g_y)
            p_z = probs(z)
            l_z = loglike(p_z)
            dz = z - y
            bound = l_y + shots * (np.vdot(g_y, dz).real
                                   - np.vdot(dz, dz).real / (2.0 * step))
            if l_z >= bound:
                break
            step *= 0.5
        step *= 1.5
        if l_z >= ll[-1]:
            theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
            momentum = (theta - 1.0) / theta_next
            y = z + momentum * (z - x) if momentum else z
            theta, x = theta_next, z
            c_x, g_x = r_parts(p_z)
            gap = gap_of(x, c_x, g_x)
            ll.append(l_z)
        elif y is x:
            break  # stalled: a step from x itself no longer raises l
        else:
            theta, y = 1.0, x  # monotone safeguard: restart the momentum
            ll.append(ll[-1])
        if y is x:
            l_y, g_y = ll[-1], g_x
        else:
            p_y = probs(y)
            l_y, g_y = loglike(p_y), r_parts(p_y)[1]

    state = JointState(space, x, "mixed")
    return MleResult(state=state, log_likelihoods=np.array(ll),
                     converged=gap <= tol, iterations=len(ll) - 1,
                     stationarity_gap=gap)
