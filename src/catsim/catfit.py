"""Fits of reconstructed phonon states to cat-state target families.

Two target families: the analytical phonon state left by the resonant JC
interaction (traced over the qubit, with a free phase-space rotation), and
two-component coherent-state superpositions.  Cat size D is half the
phase-space distance between the fitted coherent components.

The analytical target is the reduction of a pure joint state, so the fits
handle it as its low-rank phonon factor V (hilbert.phonon_factor) and
score it with hilbert.factored_fidelity: an r x r eigenproblem (r <= 2)
per evaluation, exact to roundoff, with no d x d matrix square root and no
state validation inside the optimizer loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .dynamics import SystemParams, jc_evolve_exact
from .errors import DimensionMismatchError, FitError
from .hilbert import (
    HilbertSpace,
    JointState,
    coherent_amplitudes,
    factored_fidelity,
    fidelity,
    phonon_factor,
)

FIT_FTOL = 1e-8
# Nelder-Mead iteration cap per start of fit_css / fit_analytical
FIT_MAXITER = 4000


def css_state(alpha1: complex, alpha2: complex, vartheta: float,
              space: HilbertSpace) -> JointState:
    """Normalized superposition N(|alpha1> + e^{i vartheta} |alpha2>)."""
    if space.has_qubit:
        raise DimensionMismatchError("css_state builds phonon-only states")
    c1, _ = coherent_amplitudes(alpha1, space.n_max)
    c2, _ = coherent_amplitudes(alpha2, space.n_max)
    vec = c1 + np.exp(1j * vartheta) * c2
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise FitError("degenerate CSS (components cancel)")
    return JointState(space, vec / norm, "pure")


def _analytical_factor(alpha: float, theta: float, c_g: complex, c_e: complex,
                       t_c: float, g0: float, n_max: int) -> np.ndarray:
    """Phonon factor of the analytical target, rotated by exp(-i theta n).

    jc_evolve_exact keeps its truncation guard and its JC norm check; the
    rotation acts on the factor's rows, so sigma = V V^dag / Tr(V^dag V) is
    the rotated reduction.
    """
    params = SystemParams(g0=g0, alpha0=alpha, c_g=c_g, c_e=c_e)
    factor = phonon_factor(jc_evolve_exact(params, t_c, n_max=n_max))
    return np.exp(-1j * theta * np.arange(n_max + 1))[:, None] * factor


def analytical_target(alpha: float, theta: float, c_g: complex, c_e: complex,
                      t_c: float, g0: float, space: HilbertSpace) -> JointState:
    """Phonon state after JC evolution to t_c, rotated by exp(-i theta n)."""
    factor = _analytical_factor(alpha, theta, c_g, c_e, t_c, g0, space.n_max)
    rho = factor @ factor.conj().T
    return JointState(space, rho / np.trace(rho).real, "mixed")


@dataclass(frozen=True)
class AnalyticalFit:
    alpha_fit: float
    theta: float
    fidelity: float
    converged: bool
    n_evals: int
    n_capped: int  # starts stopped by the iteration cap


@dataclass(frozen=True)
class CssFit:
    alpha1: complex
    alpha2: complex
    vartheta: float
    fidelity: float
    D: float
    converged: bool
    n_evals: int
    n_capped: int  # starts stopped by the iteration cap


@dataclass(frozen=True)
class SensitivityInterval:
    best: float
    low: float
    high: float
    drop: float
    low_bounded: bool = True
    high_bounded: bool = True


def _multistart(objective, starts, xatol=1e-5):
    """Best Nelder-Mead result over the starts.

    Returns (x, fidelity, converged, evaluations, capped starts).
    """
    best = None
    total_evals = 0
    capped = 0
    converged = False
    for x0 in starts:
        res = minimize(objective, np.asarray(x0, dtype=float), method="Nelder-Mead",
                       options={"xatol": xatol, "fatol": FIT_FTOL / 10.0,
                                "maxiter": FIT_MAXITER})
        total_evals += res.nfev
        capped += int(res.nit >= FIT_MAXITER)
        key = (res.fun, tuple(np.round(res.x, 10)))
        if best is None or key < best[0]:
            best = (key, res.x, res.fun)
            converged = bool(res.success)
        elif abs(res.fun - best[2]) < FIT_FTOL:
            converged = converged or bool(res.success)
    return best[1], -best[2], converged, total_evals, capped


def fit_analytical(rho: JointState, c_g: complex, c_e: complex,
                   t_c: float, g0: float) -> AnalyticalFit:
    """Maximize fidelity of rho to the analytical JC target over (alpha, theta)."""
    if rho.space.has_qubit:
        raise DimensionMismatchError("fit_analytical expects a phonon-only state")
    n_max = rho.space.n_max
    rho_data = rho.density_matrix()
    alpha_cap = math.sqrt(n_max / 4.0)

    def objective(x):
        alpha, theta = x
        if not (0.0 < alpha <= alpha_cap):
            return 1.0 + abs(alpha)
        factor = _analytical_factor(alpha, theta, c_g, c_e, t_c, g0, n_max)
        return -factored_fidelity(rho_data, factor)

    starts = [(a, th) for a in (0.5, 1.0, 1.5, 2.0)
              for th in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    x, f, converged, n_evals, n_capped = _multistart(objective, starts)
    return AnalyticalFit(alpha_fit=float(x[0]), theta=float(x[1]) % (2 * math.pi),
                         fidelity=f, converged=converged, n_evals=n_evals,
                         n_capped=n_capped)


def fit_css(rho: JointState) -> CssFit:
    """Maximize fidelity of rho to N(|a1> + e^{i t}|a2>) over (a1, a2, t)."""
    if rho.space.has_qubit:
        raise DimensionMismatchError("fit_css expects a phonon-only state")
    space = rho.space

    def objective(x):
        a1 = complex(x[0], x[1])
        a2 = complex(x[2], x[3])
        if abs(a1) ** 2 > space.n_max / 4.0 or abs(a2) ** 2 > space.n_max / 4.0:
            return 1.0 + abs(a1) + abs(a2)
        if abs(a1 - a2) < 1e-6:
            return 1.0
        target = css_state(a1, a2, x[4], space)
        return -fidelity(target, rho)

    starts = []
    for r in (0.75, 1.25, 1.75, 2.25):
        for phi in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            a1 = r * np.exp(1j * phi)
            starts.append((a1.real, a1.imag, -a1.real, -a1.imag, 0.0))
    x, f, converged, n_evals, n_capped = _multistart(objective, starts)
    a1 = complex(x[0], x[1])
    a2 = complex(x[2], x[3])
    return CssFit(alpha1=a1, alpha2=a2, vartheta=float(x[4]) % (2 * math.pi),
                  fidelity=f, D=abs(a1 - a2) / 2.0, converged=converged,
                  n_evals=n_evals, n_capped=n_capped)


def find_drop_crossings(profile, best_x: float, best_f: float, drop: float,
                        step: float, max_steps: int = 60, xtol: float = 1e-4):
    """Locate the two x where profile(x) = best_f - drop, bracketing best_x.

    profile is a callable returning the (re-optimized) fidelity at a fixed
    constrained parameter value.  Returns (low, high, low_bounded,
    high_bounded); an unbracketed side returns the last probed x with its
    bounded flag cleared.
    """
    if drop <= 0:
        return best_x, best_x, True, True
    target = best_f - drop

    def walk(direction):
        x_in, f_in = best_x, best_f
        for k in range(1, max_steps + 1):
            x = best_x + direction * k * step
            f = profile(x)
            if f < target:
                a, b = x_in, x  # profile(a) >= target > profile(b)
                while abs(b - a) > xtol:
                    m = 0.5 * (a + b)
                    if profile(m) >= target:
                        a = m
                    else:
                        b = m
                return 0.5 * (a + b), True
            x_in, f_in = x, f
        return x_in, False

    high, high_bounded = walk(+1.0)
    low, low_bounded = walk(-1.0)
    return low, high, low_bounded, high_bounded


def sensitivity_interval(rho: JointState, fit, param: str, drop: float = 0.01,
                         **context) -> SensitivityInterval:
    """Fidelity-drop error interval for alpha_fit (analytical) or D (CSS).

    Sweeps the constrained parameter, re-optimizing the remaining fit
    parameters from a warm start, and bisects for the two crossings where
    the profile fidelity is `drop` below the best fit.  Analytical fits
    need the target context (c_g, c_e, t_c, g0) as keyword arguments.
    """
    space = rho.space
    if isinstance(fit, AnalyticalFit):
        if param != "alpha_fit":
            raise ValueError("analytical fits constrain param='alpha_fit'")
        missing = [k for k in ("c_g", "c_e", "t_c", "g0") if k not in context]
        if missing:
            raise FitError(f"analytical sensitivity needs target context {missing}")
        return sensitivity_interval_analytical(
            rho, fit, context["c_g"], context["c_e"], context["t_c"],
            context["g0"], drop=drop)
    elif isinstance(fit, CssFit):
        if param != "D":
            raise ValueError("CSS fits constrain param='D'")
        center = (fit.alpha1 + fit.alpha2) / 2.0
        phi0 = np.angle(fit.alpha1 - fit.alpha2)
        warm = [center.real, center.imag, phi0, fit.vartheta]

        def profile(d_val):
            if d_val <= 0:
                return 0.0

            def objective(x):
                c = complex(x[0], x[1])
                a1 = c + d_val * np.exp(1j * x[2])
                a2 = c - d_val * np.exp(1j * x[2])
                if max(abs(a1), abs(a2)) ** 2 > space.n_max / 4.0:
                    return 1.0
                return -fidelity(css_state(a1, a2, x[3], space), rho)

            res = minimize(objective, warm, method="Nelder-Mead",
                           options={"xatol": 1e-4, "fatol": FIT_FTOL, "maxiter": 2000})
            warm[:] = list(res.x)
            return -res.fun

        step = max(0.04 * fit.D, 0.02)
        low, high, lb, hb = find_drop_crossings(profile, fit.D, fit.fidelity,
                                                drop, step)
        return SensitivityInterval(best=fit.D, low=low, high=high, drop=drop,
                                   low_bounded=lb, high_bounded=hb)
    else:
        raise TypeError(f"unsupported fit type {type(fit)!r}")


def sensitivity_interval_analytical(rho: JointState, fit: AnalyticalFit,
                                    c_g: complex, c_e: complex, t_c: float,
                                    g0: float, drop: float = 0.01) -> SensitivityInterval:
    """Fidelity-drop interval for alpha_fit, re-optimizing theta per point."""
    n_max = rho.space.n_max
    rho_data = rho.density_matrix()
    warm = [fit.theta]

    def profile(alpha):
        if not (0.0 < alpha and alpha ** 2 <= n_max / 4.0):
            return 0.0

        def objective(x):
            factor = _analytical_factor(alpha, x[0], c_g, c_e, t_c, g0, n_max)
            return -factored_fidelity(rho_data, factor)

        res = minimize(objective, warm, method="Nelder-Mead",
                       options={"xatol": 1e-5, "fatol": FIT_FTOL, "maxiter": 1000})
        warm[0] = float(res.x[0])
        return -res.fun

    step = max(0.04 * fit.alpha_fit, 0.02)
    low, high, lb, hb = find_drop_crossings(profile, fit.alpha_fit, fit.fidelity,
                                            drop, step)
    return SensitivityInterval(best=fit.alpha_fit, low=low, high=high, drop=drop,
                               low_bounded=lb, high_bounded=hb)
