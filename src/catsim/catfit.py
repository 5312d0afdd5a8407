"""Fits of reconstructed phonon states to cat-state target families.

Two target families: the analytical phonon state left by the resonant JC
interaction, reduced as hilbert.partial_trace reduces the pipeline's state
(the sum of the qubit blocks, the +x post-selection), with a free
phase-space rotation; and two-component coherent-state superpositions.
Cat size D is half the phase-space distance between the fitted coherent
components.

The analytical target is the reduction of a pure joint state, so the fits
handle it as its low-rank phonon factor V (hilbert.phonon_factor) and
score it as F = Tr sqrt(V^dag rho V / Tr V^dag V): an r x r eigenproblem
(r <= 2), exact to roundoff, with no d x d matrix square root.  The
rotation R(theta) = diag(e^{-i theta n}) enters only through the r x r
matrix G(theta) = V^dag R^dag rho R V = sum_k c_k e^{ik theta}, a
trigonometric polynomial of degree n_max whose coefficient c_k sums the
k-th diagonal of conj(V_a) rho V_b.  _theta_profile scores every theta of
a fine grid by one FFT of the c_k, and polishes the best one by Newton
steps on the polynomial, so fit_analytical is a 1-D search over alpha:
one bounded Brent run over (0, max_amplitude(n_max)).

The CSS fit scores raw amplitude vectors from hilbert.coherent_amplitudes,
the package's one coherent-state kernel, which renormalises truncated
coherent vectors for any number of amplitudes at once.  For a fixed pair
(u, v) of them the fidelity of N(u + e^{i t} v) to rho is a ratio of two
sinusoids in t, maximised in closed form by _css_phase.
Because that phase is optimal, the gradient of F(alpha1, alpha2) is its
partial gradient at that phase (the envelope theorem), which _css_gradient
evaluates exactly from the same pair and the same rho [u, v - u] product.
One BFGS run searches (alpha1, alpha2) on that gradient, started from the
two highest peaks of rho's Husimi Q function, which the same kernel's rows
evaluate on a grid as one (N x d)(d x d) product; the reported fidelity
comes from one public hilbert.fidelity(css_state(...), rho) at the
optimum.  As alpha2 -> alpha1 the CSS family tends to a displaced
single-phonon state, not a cat, so a fit whose F barely beats the same
pair shrunk to D = CSS_SHRUNK_D is flagged `degenerate`: its D is then
no cat size.

A fit's `converged` means first-order stationarity was met at the
reported optimum: the CSS gradient, or dF/dtheta after the polish with
the alpha search inside its tolerance, is at most FIT_GTOL.

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
    coherent_amplitudes,
    fidelity,
    max_amplitude,
    phonon_factor,
)

# alpha tolerance of the analytical Brent search, and the width within
# which _canonical_pair treats two real parts as equal
FIT_XATOL = 1e-5
# first-order stationarity: the largest |dF/dx| a converged fit leaves
FIT_GTOL = 1e-8
# iteration cap of each BFGS start and of the Brent search
FIT_MAXITER = 200
# theta grid of the analytical profile (at least)
_THETA_GRID = 1024
# Newton polish of theta: step cap, and the step below which it stops; the
# step cap also bounds the CSS stationarity polish
_NEWTON_STEPS = 6
_NEWTON_XTOL = 1e-12
# fit_css's start: local maxima of Husimi Q on a _Q_POINTS^2 grid over
# [-_Q_HALF_WIDTH, _Q_HALF_WIDTH]^2 (step 0.15); a lone peak starts the pair
# at peak +/- _LONE_PEAK_SPLIT, and a peak past the truncation wall moves
# radially onto _WALL_PULL of it
_Q_POINTS = 41
_Q_HALF_WIDTH = 3.0
_LONE_PEAK_SPLIT = 0.5
_WALL_PULL = 0.95
# the degenerate-limit test of a CSS fit: the optimum's pair shrunk about
# its centre to D = CSS_SHRUNK_D, and the fidelity gap below which F counts as
# flat in D (measured: 0.0012 on a flat landscape, >= 0.178 on the cats of
# the comparison corpus in tests/reference.py)
CSS_SHRUNK_D = 1e-3
CSS_FLAT_TOL = 0.01


def _css_optimum(pair: np.ndarray, rho: np.ndarray):
    """Best phase t of N(u + e^{it} v) for rho, u, v the rows of pair.

    x = u + z v = (1 + z) u + z e for z = e^{it} and e = v - u, so with the
    2 x 2 forms G = B^dag rho B and S = B^dag B of B = [u e],
    F^2(t) = c^dag G c / c^dag S c at c = (1 + z, z).  Expanded, that is a
    ratio of sinusoids (P + Re(z Q)) / (D + Re(z T)); in exact arithmetic
    D = 2, P = u^dag rho u + v^dag rho v, Q = 2 u^dag rho v and T = 2 u^dag v.
    Its stationary points solve Im(z W) = -Im(conj(Q) T), W = P T - D Q: two
    roots on the circle, a maximum and a minimum, of which the larger value
    is kept (W = 0 makes F^2 constant, so any t is optimal).  Each root is
    scored in the (1 + z, z) form, which stays accurate where the expanded
    one cancels to roundoff (alpha2 -> alpha1, |1 + z| ~ |e|).
    Returns (t, F^2, x, rho x, |x|^2) at the best root, x and rho x in the
    same (1 + z, z) form; F^2 is -inf if neither root has |x| > 0.
    """
    basis = pair.copy()
    basis[1] -= pair[0]  # e, elementwise, so it keeps its digits as v -> u
    rho_basis = rho @ basis.T
    conj = basis.conj()
    g00, g01, _, g11 = (conj @ rho_basis).ravel().tolist()
    s00, s01, _, s11 = (conj @ basis.T).ravel().tolist()
    p = 2.0 * (g00.real + g01.real) + g11.real
    q = 2.0 * (g00 + g01)
    d = 2.0 * (s00.real + s01.real) + s11.real
    t = 2.0 * (s00 + s01)
    w = p * t - d * q
    rhs = -(q.conjugate() * t).imag
    root = math.asin(max(-1.0, min(1.0, rhs / abs(w)))) if w else 0.0
    best_t, best_f2, best_norm_sq = 0.0, -math.inf, 0.0
    for phase in (root - cmath.phase(w), math.pi - root - cmath.phase(w)):
        y = 1.0 + cmath.exp(1j * phase)
        norm_sq = abs(y) ** 2 * s00.real + s11.real + 2.0 * (y * s01).real
        if norm_sq > 0.0:
            f2 = (abs(y) ** 2 * g00.real + g11.real + 2.0 * (y * g01).real) / norm_sq
            if f2 > best_f2:
                best_t, best_f2, best_norm_sq = phase, f2, norm_sq
    c = np.array([1.0 + cmath.exp(1j * best_t), cmath.exp(1j * best_t)])
    return best_t, best_f2, c @ basis, rho_basis @ c, best_norm_sq


def _css_phase(alpha1: complex, alpha2: complex, rho: np.ndarray):
    """Best phase t of N(|alpha1> + e^{it} |alpha2>) for rho, and its fidelity.

    Returns (t, F), F clipped to [0, 1] as hilbert.fidelity clips it; see
    _css_optimum for the closed form.
    """
    t, f2, *_ = _css_optimum(coherent_amplitudes((alpha1, alpha2), len(rho) - 1)[0], rho)
    return t, math.sqrt(min(1.0, max(f2, 0.0)))


def _css_gradient(alpha1: complex, alpha2: complex, rho: np.ndarray):
    """F at the best phase of (alpha1, alpha2) and its exact gradient.

    The phase is optimal for every pair, so by the envelope theorem the
    gradient of F(alpha1, alpha2) is its partial gradient at that phase.
    With x = u + z v, |x|^2 F^2 = x^dag rho x and w = (rho x - F^2 x) / |x|^2,
    a move dx changes F^2 by 2 Re(dx^dag w), and F by that over 2F.  For the
    renormalised truncated coherent vector u of alpha, with d = a^dag u
    truncated to the space, du = d - u Re(u^dag d) along Re alpha and the
    same with i d in place of d along Im alpha; dx is du for alpha1 and
    z dv for alpha2.  A vacuum component is covered: d = |1> there.
    Returns (F, dF/d(Re alpha1, Im alpha1, Re alpha2, Im alpha2)); F is not
    clipped at 1, so it is the function whose gradient is returned.
    """
    n_max = len(rho) - 1
    pair = coherent_amplitudes((alpha1, alpha2), n_max)[0]
    t, f2, x, rho_x, norm_sq = _css_optimum(pair, rho)
    if not f2 > 0.0:
        return 0.0, np.zeros(4)
    f = math.sqrt(f2)
    w = (rho_x - f2 * x) / norm_sq
    sqrt_n = np.sqrt(_fock_table(n_max)[0][1:])
    coef = np.array([1.0, cmath.exp(-1j * t)])  # conj of the pair's weights in x
    a = coef * (pair[:, :-1].conj() @ (sqrt_n * w[1:]))  # d^dag w, d_n = sqrt(n) u_{n-1}
    b = coef * (pair.conj() @ w)
    s = (pair[:, 1:].conj() * pair[:, :-1]) @ sqrt_n  # u^dag d
    grad = np.column_stack(((a - s.real * b).real, a.imag + s.imag * b.real))
    return f, grad.ravel() / f


def css_state(alpha1: complex, alpha2: complex, vartheta: float,
              space: HilbertSpace) -> JointState:
    """Normalized superposition N(|alpha1> + e^{i vartheta} |alpha2>)."""
    if space.has_qubit:
        raise DimensionMismatchError("css_state builds phonon-only states")
    c1, c2 = coherent_amplitudes((alpha1, alpha2), space.n_max)[0]
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


def _rotation_derivatives(coef: np.ndarray, k: np.ndarray, theta: float):
    """s = Tr sqrt(G(theta)) and its first two theta derivatives.

    G, G' and G'' come from the coefficients; in the eigenbasis of
    G = U diag(lam) U^dag, with P = U^dag G' U and Q = U^dag G'' U,
    s' = sum_i P_ii / (2 sqrt(lam_i)) and
    s'' = sum_i Q_ii / (2 sqrt(lam_i)) + sum_ij H_ij |P_ij|^2, where
    H_ij = -1 / (2 sqrt(lam_i lam_j) (sqrt(lam_i) + sqrt(lam_j))) is the
    divided difference of 1 / (2 sqrt(lam)) (Daleckii-Krein).  A G that is
    singular to roundoff (lam_min <= 1e-12 lam_max) has no usable derivative
    there: s' is then inf, which stops the polish and fails the stationarity
    test.
    """
    phase = np.exp(1j * k * theta)
    g0 = coef @ phase
    g1 = coef @ (1j * k * phase)
    g2 = coef @ (-(k * k) * phase)
    lam, vec = np.linalg.eigh(g0)
    if not lam[0] > 1e-12 * lam[-1]:
        return float(np.sqrt(np.clip(lam, 0.0, None)).sum()), math.inf, 0.0
    root = np.sqrt(lam)
    p = vec.conj().T @ g1 @ vec
    q = vec.conj().T @ g2 @ vec
    h = -0.5 / (np.outer(root, root) * (root[:, None] + root[None, :]))
    slope = float(np.sum(p.diagonal().real / (2.0 * root)))
    curv = float(np.sum(q.diagonal().real / (2.0 * root)) + np.sum(h * np.abs(p) ** 2))
    return float(root.sum()), slope, curv


def _theta_profile(rho: np.ndarray, factor: np.ndarray):
    """Best rotation of the target factor V for rho: (theta, F, |dF/dtheta|).

    F(theta) = Tr sqrt(G(theta) / Tr V^dag V), with the r x r matrix
    G(theta) = V^dag R^dag rho R V = sum_k c_k e^{ik theta}, k = -n_max..n_max,
    and c_k[a, b] the sum of the k-th diagonal of conj(V_a) rho V_b.  One
    inverse FFT of the c_k gives G on a grid of at least _THETA_GRID points
    (16 per Fourier mode), batched r x r eigenvalues score it, and Newton
    steps on the polynomial polish the best grid point; a point where the
    curvature is not negative, or a step out of the grid cell, stops the
    polish.  F is the polynomial's value at the polished theta (the
    fidelity to the rotated factor's state, to roundoff), and |dF/dtheta|
    the stationarity the polish left.
    """
    dim, rank = factor.shape
    k = np.arange(1 - dim, dim)
    n = np.arange(dim)
    terms = factor.conj().T[:, None, :, None] * rho * factor.T[None, :, None, :]
    # element (a, b, m, n) adds to slot (a, b, k = m - n)
    slots = (np.arange(rank * rank)[:, None] * len(k)
             + (n[:, None] - n[None, :] + dim - 1).ravel()).ravel()
    flat = terms.reshape(-1)
    coef = (np.bincount(slots, flat.real, minlength=rank * rank * len(k))
            + 1j * np.bincount(slots, flat.imag, minlength=rank * rank * len(k))
            ).reshape(rank, rank, len(k))
    n_grid = max(_THETA_GRID, 16 * dim)
    spectrum = np.zeros((rank, rank, n_grid), dtype=complex)
    spectrum[..., k % n_grid] = coef
    grams = np.moveaxis(np.fft.ifft(spectrum, axis=-1), -1, 0) * n_grid
    scores = np.sqrt(np.clip(np.linalg.eigvalsh(grams), 0.0, None)).sum(axis=1)
    spacing = 2.0 * math.pi / n_grid
    start = theta = spacing * int(np.argmax(scores))
    score, slope, curv = _rotation_derivatives(coef, k, theta)
    for _ in range(_NEWTON_STEPS):
        if not curv < 0.0 or abs(slope) <= _NEWTON_XTOL * -curv:
            break
        step = -slope / curv
        if abs(theta + step - start) > spacing:
            break
        theta += step
        score, slope, curv = _rotation_derivatives(coef, k, theta)
    scale = math.sqrt(np.vdot(factor, factor).real)
    return theta % (2.0 * math.pi), min(1.0, score / scale), abs(slope) / scale


def _analytical_profile(rho: np.ndarray, alpha: float, c_g: complex, c_e: complex,
                        t_c: float, g0: float):
    """(theta, F, |dF/dtheta|) of the analytical target at alpha, best over theta."""
    factor = _analytical_factor(alpha, 0.0, c_g, c_e, t_c, g0, len(rho) - 1)
    return _theta_profile(rho, factor)


@dataclass(frozen=True)
class AnalyticalFit:
    alpha_fit: float
    theta: float
    fidelity: float
    converged: bool
    n_evals: int  # theta profiles, one target factor each
    n_capped: int  # 1 if the alpha search stopped at its iteration cap
    theta_slope: float  # |dF/dtheta| left after the Newton polish
    alpha_converged: bool  # the alpha search met FIT_XATOL


@dataclass(frozen=True)
class CssFit:
    alpha1: complex
    alpha2: complex
    vartheta: float
    fidelity: float
    D: float
    converged: bool
    n_evals: int  # value-and-gradient evaluations over all starts
    n_capped: int  # starts stopped by the iteration cap
    grad_norm: float  # largest |dF/dx| component at the optimum
    shrink_gap: float  # F less that of the pair shrunk to D = CSS_SHRUNK_D (0 if D is smaller)
    degenerate: bool  # D <= CSS_SHRUNK_D or shrink_gap < CSS_FLAT_TOL: D is no cat size


def fit_analytical(rho: JointState, c_g: complex, c_e: complex,
                   t_c: float, g0: float) -> AnalyticalFit:
    """Maximize fidelity of rho to the analytical JC target over (alpha, theta).

    theta is profiled out by _theta_profile.  alpha is searched by one
    bounded Brent run over (0, max_amplitude(n_max)), on which the profiled
    fidelity has one maximum; the best profiled point wins.
    """
    from scipy.optimize import minimize_scalar

    if rho.space.has_qubit:
        raise DimensionMismatchError("fit_analytical expects a phonon-only state")
    rho_data = rho.density_matrix()
    profiled = []

    def profile(alpha):
        theta, f, slope = _analytical_profile(rho_data, alpha, c_g, c_e, t_c, g0)
        profiled.append((f, alpha, theta, slope))
        return -f

    res = minimize_scalar(profile, bounds=(0.0, max_amplitude(rho.space.n_max)),
                          method="bounded",
                          options={"xatol": FIT_XATOL, "maxiter": FIT_MAXITER})
    f, alpha, theta, slope = max(profiled)
    return AnalyticalFit(alpha_fit=float(alpha), theta=theta, fidelity=f,
                         converged=bool(res.success) and slope <= FIT_GTOL,
                         n_evals=len(profiled), n_capped=int(res.status == 1),
                         theta_slope=slope, alpha_converged=bool(res.success))


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


def _css_admissible(a1: complex, a2: complex, n_max: int) -> bool:
    """Inside the truncation wall, and off the |a1 - a2| < 1e-6 plateau."""
    return max(abs(a1), abs(a2)) <= max_amplitude(n_max) and abs(a1 - a2) >= 1e-6


def _css_objective(x: np.ndarray, rho: np.ndarray):
    """-F and its gradient over x = (Re a1, Im a1, Re a2, Im a2).

    Past the truncation wall the value is 1 + |a1| + |a2|, and on the
    |a1 - a2| < 1e-6 plateau it is 1: both above any -F, and both flat, so
    a line search backs away from them and a start on them stops at once.
    _css_search never counts such a stop as converged.
    """
    a1, a2 = complex(x[0], x[1]), complex(x[2], x[3])
    if max(abs(a1), abs(a2)) > max_amplitude(len(rho) - 1):
        return 1.0 + abs(a1) + abs(a2), np.zeros(4)
    if abs(a1 - a2) < 1e-6:
        return 1.0, np.zeros(4)
    f, grad = _css_gradient(a1, a2, rho)
    return -f, -grad


def _css_search(rho: np.ndarray, starts):
    """Best BFGS result over the starts, on _css_objective.

    BFGS stops once its line search can no longer lower -F measurably, which
    near the optimum can leave |dF/dx| just above FIT_GTOL; quasi-Newton
    steps x - H g with BFGS's final inverse Hessian H then polish the
    stationarity on the exact gradient alone, each kept only while it stays
    admissible and shrinks the gradient, at most _NEWTON_STEPS of them.
    Returns (x, converged, evaluations, capped starts, gradient norm) of the
    best start; converged needs |dF/dx| <= FIT_GTOL at an admissible point.
    """
    from scipy.optimize import minimize

    n_max = len(rho) - 1
    best = None
    n_evals = n_capped = 0
    for x0 in starts:
        res = minimize(_css_objective, np.asarray(x0, dtype=float), args=(rho,),
                       jac=True, method="BFGS",
                       options={"gtol": FIT_GTOL, "maxiter": FIT_MAXITER})
        n_evals += res.nfev
        n_capped += int(res.nit >= FIT_MAXITER)
        x, fun, grad = res.x, res.fun, res.jac
        for _ in range(_NEWTON_STEPS):
            if np.max(np.abs(grad)) <= FIT_GTOL:
                break
            y = x - res.hess_inv @ grad
            fun_y, grad_y = _css_objective(y, rho)
            n_evals += 1
            if not (_css_admissible(complex(y[0], y[1]), complex(y[2], y[3]), n_max)
                    and np.max(np.abs(grad_y)) < np.max(np.abs(grad))):
                break
            x, fun, grad = y, fun_y, grad_y
        key = (fun, tuple(np.round(x, 10)))
        if best is None or key < best[0]:
            best = (key, x, grad)
    _, x, grad = best
    grad_norm = float(np.max(np.abs(grad)))
    converged = grad_norm <= FIT_GTOL and _css_admissible(
        complex(x[0], x[1]), complex(x[2], x[3]), n_max)
    return x, converged, n_evals, n_capped, grad_norm


def _husimi_peaks(rho: np.ndarray) -> np.ndarray:
    """The local maxima of the Husimi Q function of rho on the start grid,
    highest first.

    Q(beta) = <beta|rho|beta> / pi (Husimi, Proc. Phys.-Math. Soc. Jpn. 22,
    264 (1940)) at every grid point is one (N x d)(d x d) product over the
    grid's renormalised coherent vectors, each weighted back by its norm
    1 - deficit before renormalisation, since rho lives on 0..n_max; the
    constant 1 / pi is left out.  A point is a maximum when no neighbour of
    its 8 is higher.
    """
    axis = np.linspace(-_Q_HALF_WIDTH, _Q_HALF_WIDTH, _Q_POINTS)
    betas = (axis + 1j * axis[:, None]).ravel()
    rows, deficit = coherent_amplitudes(betas, len(rho) - 1)
    q = (1.0 - deficit) * np.einsum("kn,kn->k", rows.conj() @ rho, rows).real
    q = q.reshape(_Q_POINTS, _Q_POINTS)
    padded = np.pad(q, 1, constant_values=-np.inf)
    peak = np.ones(q.shape, dtype=bool)
    for di in range(3):
        for dj in range(3):
            peak &= q >= padded[di:di + _Q_POINTS, dj:dj + _Q_POINTS]
    which = np.flatnonzero(peak)
    return betas[which[np.argsort(-q.ravel()[which], kind="stable")]]


def _husimi_start(rho: np.ndarray):
    """fit_css's one start (Re a1, Im a1, Re a2, Im a2): the two highest
    Husimi-Q peaks, or a lone peak +/- _LONE_PEAK_SPLIT, each moved radially
    onto _WALL_PULL max_amplitude(n_max) if it lies past the wall."""
    peaks = _husimi_peaks(rho)[:2]
    if len(peaks) == 1:
        peaks = [peaks[0] + _LONE_PEAK_SPLIT, peaks[0] - _LONE_PEAK_SPLIT]
    wall = max_amplitude(len(rho) - 1)
    a1, a2 = (p if abs(p) <= wall else _WALL_PULL * wall * p / abs(p) for p in peaks)
    return a1.real, a1.imag, a2.real, a2.imag


def _css_fit(rho: JointState, starts) -> CssFit:
    """The CssFit of the best of _css_search's runs from the starts.

    The pair is put in its canonical order (_canonical_pair) before its
    closed-form phase (_css_phase) is solved.  The degenerate-limit test
    shrinks the pair about its centre, along its axis, to D = CSS_SHRUNK_D,
    scores that pair at its own best phase (one _css_phase), and flags the
    fit when F exceeds that by less than CSS_FLAT_TOL, or when D itself is
    at most CSS_SHRUNK_D (the |a1 - a2| guard included).
    """
    rho_data = rho.density_matrix()
    x, converged, n_evals, n_capped, grad_norm = _css_search(rho_data, starts)
    a1, a2 = _canonical_pair(complex(x[0], x[1]), complex(x[2], x[3]))
    vartheta, _ = _css_phase(a1, a2, rho_data)
    vartheta %= 2 * math.pi
    f = fidelity(css_state(a1, a2, vartheta, rho.space), rho)
    d = abs(a1 - a2) / 2.0
    shrink_gap = 0.0
    if d > CSS_SHRUNK_D:
        shift = CSS_SHRUNK_D * (a1 - a2) / abs(a1 - a2)
        centre = (a1 + a2) / 2.0
        shrink_gap = f - _css_phase(centre + shift, centre - shift, rho_data)[1]
    return CssFit(alpha1=a1, alpha2=a2, vartheta=vartheta, fidelity=f, D=d,
                  converged=converged, n_evals=n_evals, n_capped=n_capped,
                  grad_norm=grad_norm, shrink_gap=shrink_gap,
                  degenerate=d <= CSS_SHRUNK_D or shrink_gap < CSS_FLAT_TOL)


def fit_css(rho: JointState) -> CssFit:
    """Maximize fidelity of rho to N(|a1> + e^{i t}|a2>) over (a1, a2, t).

    One BFGS run searches (a1, a2) on the exact envelope gradient
    (_css_gradient), started from the two highest peaks of rho's Husimi Q
    function (_husimi_start); t is the closed-form best phase of each pair
    (_css_phase).  The reported fidelity is the public hilbert.fidelity of
    css_state at the optimum, which cross-checks the closed form.
    `degenerate` says when F is flat in D, so that D is no cat size
    (_css_fit).
    """
    if rho.space.has_qubit:
        raise DimensionMismatchError("fit_css expects a phonon-only state")
    return _css_fit(rho, [_husimi_start(rho.density_matrix())])
