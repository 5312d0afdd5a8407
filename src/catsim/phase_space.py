"""Wigner functions, negativity, and negativity-decay analysis.

Convention: W(beta) = (2/pi) Tr[D^dag(beta) rho D(beta) Pi], so that a
coherent state |alpha> gives a Gaussian centered at alpha with peak 2/pi
and integral over d^2 beta equal to 1.

Pure and mixed states take one route, hilbert.displaced_parity (exact
Laguerre elements, no padding): W is exact for the truncated state, at
O(d^2 R + N d) for N points at R distinct |beta| on a d-level state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import io_utils
from .errors import DimensionMismatchError, FitError
from .hilbert import JointState, displaced_parity

DEFAULT_EXTENT = 3.5
DEFAULT_RASTER_N = 81
DEFAULT_SLICE_N = 101


@dataclass
class GridSpec:
    """Flattened sampling points with trapezoidal integration weights."""

    points: np.ndarray   # complex, flat
    weights: np.ndarray  # real, flat; Riemann element per point


def _trapz_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += dx / 2.0
    w[1:] += dx / 2.0
    return w


def raster_grid(extent: float = DEFAULT_EXTENT, n: int = DEFAULT_RASTER_N) -> GridSpec:
    """Square 2D raster over [-extent, extent]^2, row-major by Im then Re.

    The axis is its upper half mirrored, so it is exactly antisymmetric:
    |beta| is bit-identical at (+-x, +-y) and (+-y, +-x), and the Wigner
    kernel works once per distinct radius.
    """
    half = np.linspace(0.0 if n % 2 else extent / (n - 1), extent, (n + 1) // 2)
    x = np.concatenate((-half[::-1][:n // 2], half))
    wx = _trapz_weights(x)
    re, im = np.meshgrid(x, x)  # rows vary Im, columns vary Re
    pts = (re + 1j * im).ravel()
    weights = np.outer(wx, wx).ravel()
    return GridSpec(pts, weights)


def slice_grid(
    start: float = -DEFAULT_EXTENT,
    stop: float = DEFAULT_EXTENT,
    n: int = DEFAULT_SLICE_N,
    offset: float = 0.0,
    axis: str = "re",
) -> GridSpec:
    """1D slice; axis 're' sweeps Re(beta) at Im(beta)=offset, 'im' vice versa."""
    x = np.linspace(start, stop, n)
    if axis == "re":
        pts = x + 1j * offset
    elif axis == "im":
        pts = offset + 1j * x
    else:
        raise ValueError("axis must be 're' or 'im'")
    return GridSpec(pts, _trapz_weights(x))


@dataclass
class WignerGrid:
    """Sampled Wigner function, normalized so that int W d^2 beta = 1."""

    points: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def to_csv(self, path):
        rows = [(p.real, p.imag, v) for p, v in zip(self.points, self.values)]
        io_utils.write_csv(path, ("re_beta", "im_beta", "w"), rows)


def _as_grid(points) -> GridSpec:
    if isinstance(points, GridSpec):
        return points
    pts = np.asarray(points, dtype=complex).ravel()
    return GridSpec(pts, np.full(pts.shape, np.nan))


def wigner(state: JointState, points) -> WignerGrid:
    """Displaced-parity Wigner function of a phonon-only state."""
    if state.space.has_qubit:
        raise DimensionMismatchError("wigner expects a phonon-only state")
    grid = _as_grid(points)
    values = (2.0 / math.pi) * displaced_parity(state, grid.points)
    return WignerGrid(grid.points, values, grid.weights)


def negativity(grid: WignerGrid) -> float:
    """Integrated negative part, int (|W| - W), over the grid's measure.

    For 1D slices this is the main-text line integral along the slice; for
    2D rasters it is the full area integral.
    """
    if len(grid.points) == 0:
        raise FitError("empty Wigner grid")
    if np.any(np.isnan(grid.weights)):
        raise FitError("grid carries no integration weights")
    w = np.asarray(grid.values, dtype=float)
    val = float(np.sum(grid.weights * (np.abs(w) - w)))
    return 0.0 if val < 1e-12 else val


def decayed_css_wigner(alpha, kappa_t: float, points,
                       vartheta: float = 0.0) -> WignerGrid:
    """Analytic Wigner function of a decaying coherent-state superposition.

    The state is N(|alpha> + e^{i vartheta} |-alpha>) with alpha real
    positive, relaxed for a time t at rate kappa, kappa_t = kappa t;
    epsilon = e^{-kappa_t / 2} scales the component amplitudes and
    xi = e^{-2 alpha^2 (1 - epsilon^2)} suppresses the interference fringes.
    """
    a = complex(alpha)
    if abs(a.imag) > 1e-12:
        raise ValueError("decayed_css_wigner uses the alpha real phase convention")
    a = a.real
    grid = _as_grid(points)
    beta = grid.points
    eps = math.exp(-kappa_t / 2.0)
    xi = math.exp(-2.0 * a * a * (1.0 - eps * eps))
    norm = math.pi * (1.0 + math.cos(vartheta) * math.exp(-2.0 * a * a))
    vals = (
        np.exp(-2.0 * np.abs(beta - a * eps) ** 2)
        + np.exp(-2.0 * np.abs(beta + a * eps) ** 2)
        + 2.0 * xi * np.exp(-2.0 * np.abs(beta) ** 2)
        * np.cos(4.0 * a * eps * beta.imag + vartheta)
    ) / norm
    return WignerGrid(beta, vals, grid.weights)


@dataclass(frozen=True)
class NegativityDecayFit:
    """Exponential-plus-offset fit delta(tau) = amplitude e^{-tau/tau_cat} + offset."""

    tau_cat: float
    amplitude: float
    offset: float
    residual: float


def fit_negativity_decay(taus, deltas) -> NegativityDecayFit:
    """Least-squares fit of a negativity time series to exp decay + offset."""
    from scipy.optimize import curve_fit

    taus = np.asarray(taus, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if len(taus) < 4:
        raise FitError("need at least 4 points for the decay fit")
    if np.any(deltas < 0):
        raise FitError("negativities must be >= 0")
    spread = deltas.max() - deltas.min()
    if spread <= 1e-12 * max(1.0, deltas.max()):
        raise FitError("constant negativity series; decay fit is degenerate")

    def model(tau, amp, tau_cat, off):
        return amp * np.exp(-tau / tau_cat) + off

    tau0 = max((taus[-1] - taus[0]) / 3.0, 1e-6)
    p0 = (spread, tau0, float(deltas.min()))
    try:
        popt, _ = curve_fit(
            model, taus, deltas, p0=p0,
            bounds=([0.0, 1e-9, -np.inf], [np.inf, np.inf, np.inf]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise FitError(f"negativity decay fit did not converge: {exc}") from exc
    resid = float(np.sqrt(np.mean((model(taus, *popt) - deltas) ** 2)))
    return NegativityDecayFit(tau_cat=float(popt[1]), amplitude=float(popt[0]),
                              offset=float(popt[2]), residual=resid)


def tau_cat_large_alpha(alpha, t1_phonon: float) -> float:
    """Large-|alpha| cat negativity decay constant T1_ph / (2 |alpha|^2)."""
    a = abs(alpha)
    if a == 0:
        raise ValueError("tau_cat undefined for alpha = 0")
    return t1_phonon / (2.0 * a * a)
