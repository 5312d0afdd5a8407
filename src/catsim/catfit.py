"""Fits of reconstructed phonon states to cat-state target families.

Two target families: the analytical phonon state left by the resonant JC
interaction (traced over the qubit, with a free phase-space rotation), and
two-component coherent-state superpositions.  Cat size D is half the
phase-space distance between the fitted coherent components.

The analytical target is the reduction of a pure joint state, so the fits
handle it as its low-rank phonon factor V (hilbert.phonon_factor) and
score it with hilbert.factored_fidelity: an r x r eigenproblem (r <= 2)
per evaluation, exact to roundoff, with no d x d matrix square root.

The CSS fit scores raw amplitude vectors: _coherent_pair builds both
truncated coherent components in one expression, and for a fixed pair
(u, v) the fidelity of N(u + e^{i t} v) to rho is a ratio of two
sinusoids in t, maximised in closed form by _css_phase.  Nelder-Mead
therefore searches only (alpha1, alpha2); the reported fidelity comes
from one public hilbert.fidelity(css_state(...), rho) at the optimum.

States are checked once, where they enter: the fits take a validated
JointState, and the states they build per evaluation (the CSS pair, and
the JC state behind the analytical factor) are normalised by the code
that builds them, which checks their norm itself, so no JointState
validation runs inside an optimizer loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, jc_evolve_exact
from .errors import DimensionMismatchError, FitError
from .hilbert import (
    HilbertSpace,
    JointState,
    _fock_table,
    factored_fidelity,
    fidelity,
    phonon_factor,
)

FIT_FTOL = 1e-8
# Nelder-Mead parameter tolerance and iteration cap per start of fit_css /
# fit_analytical
FIT_XATOL = 1e-5
FIT_MAXITER = 4000
# bisection width at which find_drop_crossings stops
DROP_XTOL = 1e-4


def _coherent_pair(alpha1: complex, alpha2: complex, n_max: int) -> np.ndarray:
    """(2, n_max + 1): the renormalised truncated coherent vectors of alpha1, alpha2.

    alpha^n / sqrt(n!) = exp(n log alpha - log(n!) / 2) for both amplitudes
    in one expression; the renormalisation absorbs e^{-|alpha|^2/2}.  log 0
    would make the n = 0 term NaN (0 * -inf), so a vacuum component is set
    to |0> explicitly.
    """
    n, log_fact = _fock_table(n_max)
    logs = [cmath.log(alpha1 or 1.0), cmath.log(alpha2 or 1.0)]
    pair = np.exp(np.multiply.outer(logs, n) - 0.5 * log_fact)
    if alpha1 == 0 or alpha2 == 0:
        for row, alpha in zip(pair, (alpha1, alpha2)):
            if alpha == 0:
                row[:] = n == 0
    pair /= np.sqrt((pair.view(float) ** 2).sum(axis=1, keepdims=True))
    return pair


def _css_phase(alpha1: complex, alpha2: complex, rho: np.ndarray):
    """Best phase t of N(|alpha1> + e^{it} |alpha2>) for rho, and its fidelity.

    With u, v the rows of _coherent_pair, x = u + z v = (1 + z) u + z e for
    z = e^{it} and e = v - u, so with the 2 x 2 forms G = B^dag rho B and
    S = B^dag B of B = [u e], F^2(t) = c^dag G c / c^dag S c at c = (1 + z, z).
    Expanded, that is a ratio of sinusoids (P + Re(z Q)) / (D + Re(z T)); in
    exact arithmetic D = 2, P = u^dag rho u + v^dag rho v, Q = 2 u^dag rho v
    and T = 2 u^dag v.  Its stationary points solve Im(z W) = -Im(conj(Q) T),
    W = P T - D Q: two roots on the circle, a maximum and a minimum, of which
    the larger value is kept (W = 0 makes F^2 constant, so any t is optimal).
    Each root is scored in the (1 + z, z) form, which stays accurate where
    the expanded one cancels to roundoff (alpha2 -> alpha1, |1 + z| ~ |e|).
    Returns (t, F), F clipped to [0, 1] as hilbert.fidelity clips it.
    """
    pair = _coherent_pair(alpha1, alpha2, len(rho) - 1)
    basis = pair.copy()
    basis[1] -= pair[0]  # e, elementwise, so it keeps its digits as v -> u
    conj = basis.conj()
    g00, g01, _, g11 = (conj @ rho @ basis.T).ravel().tolist()
    s00, s01, _, s11 = (conj @ basis.T).ravel().tolist()
    p = 2.0 * (g00.real + g01.real) + g11.real
    q = 2.0 * (g00 + g01)
    d = 2.0 * (s00.real + s01.real) + s11.real
    t = 2.0 * (s00 + s01)
    w = p * t - d * q
    rhs = -(q.conjugate() * t).imag
    root = math.asin(max(-1.0, min(1.0, rhs / abs(w)))) if w else 0.0
    best_t, best_f2 = 0.0, -math.inf
    for phase in (root - cmath.phase(w), math.pi - root - cmath.phase(w)):
        y = 1.0 + cmath.exp(1j * phase)
        norm_sq = abs(y) ** 2 * s00.real + s11.real + 2.0 * (y * s01).real
        if norm_sq > 0.0:
            f2 = (abs(y) ** 2 * g00.real + g11.real + 2.0 * (y * g01).real) / norm_sq
            if f2 > best_f2:
                best_t, best_f2 = phase, f2
    return best_t, math.sqrt(min(1.0, max(best_f2, 0.0)))


def css_state(alpha1: complex, alpha2: complex, vartheta: float,
              space: HilbertSpace) -> JointState:
    """Normalized superposition N(|alpha1> + e^{i vartheta} |alpha2>)."""
    if space.has_qubit:
        raise DimensionMismatchError("css_state builds phonon-only states")
    c1, c2 = _coherent_pair(alpha1, alpha2, space.n_max)
    vec = c1 + np.exp(1j * vartheta) * c2
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise FitError("degenerate CSS (components cancel)")
    return JointState._trusted(space, vec / norm, "pure")


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


def _multistart(objective, starts):
    """Best Nelder-Mead result over the starts.

    Returns (x, fidelity, converged, evaluations, capped starts).
    """
    from scipy.optimize import minimize

    best = None
    total_evals = 0
    capped = 0
    converged = False
    for x0 in starts:
        res = minimize(objective, np.asarray(x0, dtype=float), method="Nelder-Mead",
                       options={"xatol": FIT_XATOL, "fatol": FIT_FTOL / 10.0,
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


def _canonical_pair(alpha1: complex, alpha2: complex):
    """(alpha1, alpha2) ordered larger real part first, then larger imaginary
    part when the real parts agree within FIT_XATOL.

    (a1, a2, t) and (a2, a1, -t) are the same CSS up to a global phase, so
    the order is a label, and an optimizer picks it by chance.
    """
    if abs(alpha1.real - alpha2.real) > FIT_XATOL:
        swap = alpha2.real > alpha1.real
    else:
        swap = alpha2.imag > alpha1.imag
    return (alpha2, alpha1) if swap else (alpha1, alpha2)


def fit_css(rho: JointState) -> CssFit:
    """Maximize fidelity of rho to N(|a1> + e^{i t}|a2>) over (a1, a2, t).

    Nelder-Mead searches (a1, a2); t is the closed-form best phase of each
    pair (_css_phase), solved after the pair is put in its canonical order
    (_canonical_pair).  The reported fidelity is the public
    hilbert.fidelity of css_state at the optimum, which cross-checks the
    closed form.
    """
    if rho.space.has_qubit:
        raise DimensionMismatchError("fit_css expects a phonon-only state")
    space = rho.space
    rho_data = rho.density_matrix()

    def objective(x):
        a1 = complex(x[0], x[1])
        a2 = complex(x[2], x[3])
        if abs(a1) ** 2 > space.n_max / 4.0 or abs(a2) ** 2 > space.n_max / 4.0:
            return 1.0 + abs(a1) + abs(a2)
        if abs(a1 - a2) < 1e-6:
            return 1.0
        return -_css_phase(a1, a2, rho_data)[1]

    starts = []
    for r in (0.75, 1.25, 1.75, 2.25):
        for phi in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            a1 = r * np.exp(1j * phi)
            starts.append((a1.real, a1.imag, -a1.real, -a1.imag))
    x, _, converged, n_evals, n_capped = _multistart(objective, starts)
    a1, a2 = _canonical_pair(complex(x[0], x[1]), complex(x[2], x[3]))
    vartheta, _ = _css_phase(a1, a2, rho_data)
    vartheta %= 2 * math.pi
    return CssFit(alpha1=a1, alpha2=a2, vartheta=vartheta,
                  fidelity=fidelity(css_state(a1, a2, vartheta, space), rho),
                  D=abs(a1 - a2) / 2.0, converged=converged,
                  n_evals=n_evals, n_capped=n_capped)


def find_drop_crossings(profile, best_x: float, best_f: float, drop: float,
                        step: float, max_steps: int = 60):
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
                while abs(b - a) > DROP_XTOL:
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


def sensitivity_interval(rho: JointState, fit, drop: float = 0.01,
                         **context) -> SensitivityInterval:
    """Fidelity-drop error interval for alpha_fit (analytical) or D (CSS).

    The fit's type names the constrained parameter.  Sweeps it,
    re-optimizing the remaining fit parameters (theta, or the CSS centre
    and axis) from a warm start, and bisects for the two crossings where
    the profile fidelity is `drop` below the best fit.  Analytical fits
    need the target context (c_g, c_e, t_c, g0) as keyword arguments.
    """
    from scipy.optimize import minimize

    n_max = rho.space.n_max
    rho_data = rho.density_matrix()
    if isinstance(fit, AnalyticalFit):
        missing = [k for k in ("c_g", "c_e", "t_c", "g0") if k not in context]
        if missing:
            raise FitError(f"analytical sensitivity needs target context {missing}")
        c_g, c_e, t_c, g0 = (context[k] for k in ("c_g", "c_e", "t_c", "g0"))
        best, warm, xatol, maxiter = fit.alpha_fit, [fit.theta], 1e-5, 1000

        def admits(alpha):
            return 0.0 < alpha and alpha ** 2 <= n_max / 4.0

        def objective(x, alpha):
            factor = _analytical_factor(alpha, x[0], c_g, c_e, t_c, g0, n_max)
            return -factored_fidelity(rho_data, factor)
    elif isinstance(fit, CssFit):
        center = (fit.alpha1 + fit.alpha2) / 2.0
        warm = [center.real, center.imag, np.angle(fit.alpha1 - fit.alpha2)]
        best, xatol, maxiter = fit.D, 1e-4, 2000

        def admits(d_val):
            return d_val > 0

        def objective(x, d_val):
            c = complex(x[0], x[1])
            a1 = c + d_val * cmath.exp(1j * x[2])
            a2 = c - d_val * cmath.exp(1j * x[2])
            if max(abs(a1), abs(a2)) ** 2 > n_max / 4.0:
                return 1.0
            return -_css_phase(a1, a2, rho_data)[1]
    else:
        raise TypeError(f"unsupported fit type {type(fit)!r}")

    def profile(value):
        if not admits(value):
            return 0.0
        res = minimize(objective, warm, args=(value,), method="Nelder-Mead",
                       options={"xatol": xatol, "fatol": FIT_FTOL,
                                "maxiter": maxiter})
        warm[:] = list(res.x)
        return -res.fun

    low, high, lb, hb = find_drop_crossings(profile, best, fit.fidelity, drop,
                                            max(0.04 * best, 0.02))
    return SensitivityInterval(best=best, low=low, high=high, drop=drop,
                               low_bounded=lb, high_bounded=hb)
