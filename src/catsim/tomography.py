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
from scipy.optimize import curve_fit, minimize_scalar, nnls

from . import io_utils
from .errors import FitError, StateValidationError, TruncationError
from .hilbert import HilbertSpace, JointState, displaced_parity, parity_kernels

_PARITY_PHASES = 41


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


def parity_expectation(state: JointState, beta: complex) -> float:
    """True displaced-parity expectation <Pi_beta> of a phonon state."""
    return float(displaced_parity(state, [beta])[0])


def _check_displacement(state: JointState, betas):
    beyond = np.abs(betas)[np.abs(betas) > math.sqrt(state.space.n_max)]
    if len(beyond):
        raise TruncationError(f"displacement |beta|={beyond[0]:.2f} beyond cutoff trust")


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


def simulate_parity_readout(state: JointState, beta: complex,
                            model: ReadoutModel, rng=None) -> float:
    """Empirical mean of `shots` Bernoulli parity outcomes, in [-1, 1]."""
    _check_displacement(state, beta)
    pi_true = parity_expectation(state, beta)
    if rng is None:
        rng = np.random.default_rng(model.seed)
    return _draw_parity(pi_true, model, rng)


def calibrate_parity(model: ReadoutModel, n_phases: int = _PARITY_PHASES,
                     n_max: int = 4) -> ParityNormalization:
    """Vacuum Ramsey phase sweep; cosine fit yields the raw->parity map.

    Sweeping the analysis phase of the final pi/2 pulse with the phonon in
    |0> oscillates the raw readout between its extremes; the fitted cosine
    amplitude and offset normalize subsequent measurements so the vacuum
    reads parity +1.
    """
    rng = np.random.default_rng(model.seed)
    phases = np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)
    raw = np.empty(n_phases)
    for i, phi in enumerate(phases):
        p_e = (1.0 + model.contrast * math.cos(phi) + model.offset) / 2.0
        if not 0.0 <= p_e <= 1.0:
            raise StateValidationError("readout model probabilities outside [0, 1]")
        raw[i] = 2.0 * rng.binomial(model.shots, p_e) / model.shots - 1.0
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
        return self.C * (np.exp(np.asarray(amplitude, dtype=float) / self.B) - 1.0)


def calibrate_drive(samples) -> DriveCalibration:
    """Fit (B, C) of |beta| = C (e^{A/B} - 1) to (A, |beta|) samples."""
    samples = [(float(a), float(b)) for a, b in samples]
    if len(samples) < 3:
        raise FitError("need at least 3 (A, |beta|) samples")
    amps = np.array([s[0] for s in samples])
    betas = np.array([s[1] for s in samples])
    if np.any(amps < 0):
        raise FitError("drive amplitudes must be >= 0")
    order = np.argsort(amps)
    if np.any(np.diff(betas[order]) < -0.05 * max(betas.max(), 1e-9)):
        warnings.warn("drive calibration data is non-monotone beyond noise", stacklevel=2)

    def model(a, b, c):
        return c * (np.exp(a / b) - 1.0)

    b0 = max(amps.max(), 1e-3)
    c0 = max(betas.max(), 1e-3) / max(math.expm1(amps.max() / b0), 1e-9)
    try:
        popt, _ = curve_fit(model, amps, betas, p0=(b0, c0),
                            bounds=([1e-6, 1e-9], [np.inf, np.inf]), maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"drive calibration fit diverged: {exc}") from exc
    resid = float(np.sqrt(np.mean((model(amps, *popt) - betas) ** 2)))
    return DriveCalibration(B=float(popt[0]), C=float(popt[1]), residual=resid)


@dataclass(frozen=True)
class FockPopulations:
    populations: np.ndarray
    gamma_d: float
    beta_abs: float
    residual: float
    poisson_residual: float


def rabi_trace_model(times, populations, g0: float, gamma_d: float) -> np.ndarray:
    """Damped resonant Rabi trace Sum_n p_n (1 - cos(2 g0 sqrt(n+1) t) e^{-g t})/2."""
    times = np.asarray(times, dtype=float)
    basis = _rabi_basis(times, g0, len(populations), gamma_d)
    return basis @ np.asarray(populations, dtype=float)


def _rabi_basis(times, g0, n_terms, gamma_d):
    times = np.asarray(times, dtype=float)
    n = np.arange(n_terms)
    phase = 2.0 * g0 * np.sqrt(n + 1.0)[None, :] * times[:, None]
    return (1.0 - np.cos(phase) * np.exp(-gamma_d * times)[:, None]) / 2.0


def extract_fock_populations(times, p_e, g0: float, n_fit: int) -> FockPopulations:
    """Fock populations from a resonant Rabi trace, plus a Poisson |beta| fit.

    Nonnegative least squares over p_0..p_{n_fit} at each candidate shared
    damping gamma_d, with a 1D outer search over gamma_d.
    """
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

    n = np.arange(n_fit + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n_fit + 1)))))

    def poisson(b):
        return np.exp(-b * b + 2.0 * n * np.log(max(b, 1e-12)) - log_fact)

    pres = minimize_scalar(lambda b: float(np.sum((pops - poisson(b)) ** 2)),
                           bounds=(1e-6, math.sqrt(n_fit) + 1.0), method="bounded",
                           options={"xatol": 1e-8})
    beta_abs = float(pres.x)
    return FockPopulations(populations=pops, gamma_d=gamma_d, beta_abs=beta_abs,
                           residual=resid,
                           poisson_residual=float(math.sqrt(pres.fun / (n_fit + 1))))


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

    def to_csv(self, path):
        rows = [(b.real, b.imag, p, float(self.shots_per_point))
                for b, p in zip(self.betas, self.parities)]
        io_utils.write_csv(path, ("re_beta", "im_beta", "parity", "shots"), rows)


def sample_wigner(state: JointState, betas, model: ReadoutModel,
                  normalization: ParityNormalization | None = None) -> WignerSampleSet:
    """Simulate a Wigner tomography run over `betas`, one readout per point.

    Per-point generators are derived as seed XOR point index, so points can
    be sampled in any order (or in parallel) with identical results.
    """
    betas = np.asarray(betas, dtype=complex).ravel()
    if normalization is None:
        normalization = ParityNormalization.identity()
    _check_displacement(state, betas)
    pi_true = displaced_parity(state, betas)
    raw = np.empty(len(betas))
    for i in range(len(betas)):
        rng = np.random.default_rng(model.seed ^ (i + 1))
        raw[i] = _draw_parity(pi_true[i], model, rng)
    return WignerSampleSet(betas=betas, parities=normalization.apply(raw),
                           shots_per_point=model.shots, normalization=normalization)


@dataclass
class MleResult:
    state: JointState
    log_likelihoods: np.ndarray
    converged: bool
    iterations: int


def mle_reconstruct(samples: WignerSampleSet, space: HilbertSpace,
                    max_iters: int = 30000, tol: float = 1e-12) -> MleResult:
    """Iterative maximum-likelihood reconstruction from parity samples.

    Binary displaced-parity POVMs adjusted by the sample set's readout
    amplitude/offset; multiplicative R rho R updates with dilution fallback
    so the log-likelihood never decreases.
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
    if np.any(f_plus < -1e-12) or np.any(f_plus > 1.0 + 1e-12):
        raise StateValidationError("raw frequencies outside [0, 1]; record inconsistent")
    f_plus = np.clip(f_plus, 0.0, 1.0)
    f_minus = np.clip(f_minus, 0.0, 1.0)

    kernels = parity_kernels(samples.betas, dim)
    eye = np.eye(dim, dtype=complex)

    def probs(rho):
        pi_exp = np.einsum("kij,ji->k", kernels, rho).real
        p_plus = (1.0 + amp * pi_exp + off) / 2.0
        return np.clip(p_plus, 1e-12, 1.0 - 1e-12)

    def loglike(p_plus):
        return float(shots * np.sum(f_plus * np.log(p_plus)
                                    + f_minus * np.log(1.0 - p_plus)))

    def r_op(p_plus):
        # E+ = ((1+off)I + amp K)/2, E- = ((1-off)I - amp K)/2
        w_plus = f_plus / p_plus
        w_minus = f_minus / (1.0 - p_plus)
        c_i = 0.5 * np.sum(w_plus * (1.0 + off) + w_minus * (1.0 - off))
        c_k = 0.5 * (w_plus - w_minus) * amp
        return c_i * eye + np.einsum("k,kij->ij", c_k, kernels)

    rho = eye / dim
    p_cur = probs(rho)
    ll = [loglike(p_cur)]
    n_points = len(samples.betas)
    converged = False
    for it in range(max_iters):
        r = r_op(p_cur)
        cand = r @ rho @ r
        cand = cand / np.trace(cand).real
        cand = 0.5 * (cand + cand.conj().T)
        p_new = probs(cand)
        ll_new = loglike(p_new)
        if ll_new < ll[-1]:
            # dilute toward the identity until the step is uphill
            r_hat = r / n_points
            mu = 0.5
            while mu > 1e-8:
                t_op = (eye + mu * r_hat) / (1.0 + mu)
                cand = t_op @ rho @ t_op.conj().T
                cand = cand / np.trace(cand).real
                cand = 0.5 * (cand + cand.conj().T)
                p_new = probs(cand)
                ll_new = loglike(p_new)
                if ll_new >= ll[-1]:
                    break
                mu /= 2.0
            if ll_new < ll[-1]:
                converged = True  # no uphill direction left: stationary point
                break
        improvement = ll_new - ll[-1]
        rho, p_cur = cand, p_new
        ll.append(ll_new)
        if improvement < tol * max(1.0, abs(ll_new)):
            converged = True
            break

    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals, 0.0, None)
    rho = (evecs * evals) @ evecs.conj().T
    rho = rho / np.trace(rho).real
    state = JointState(space, rho, "mixed")
    return MleResult(state=state, log_likelihoods=np.array(ll),
                     converged=converged, iterations=len(ll) - 1)
