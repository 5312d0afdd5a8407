import math

import numpy as np
import pytest
from scipy.integrate import quad

from catsim.catfit import css_state
from catsim.errors import FitError
from catsim.hilbert import (
    HilbertSpace,
    JointState,
    coherent_state,
    default_cutoff,
    displacement_operator,
)
from catsim.phase_space import (
    GridSpec,
    _trapz_weights,
    decayed_css_wigner,
    fit_negativity_decay,
    negativity,
    raster_grid,
    tau_cat_large_alpha,
    wigner,
)
from catsim.pipeline import ExperimentConfig, free_decay
from reference import fock_state

SPACE = HilbertSpace(30)
# n_max 60 leaves the test states of |alpha| <= 1.2 a negligible Fock tail,
# so comparisons with untruncated Gaussians see only the Wigner evaluation
SPACE_BIG = HilbertSpace(60)


def test_vacuum_peak():
    wg = wigner(fock_state(0, SPACE), np.array([0.0 + 0.0j]))
    assert wg.values[0] == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_fock_one_negative_at_origin():
    wg = wigner(fock_state(1, SPACE), np.array([0.0 + 0.0j]))
    assert wg.values[0] == pytest.approx(-2.0 / math.pi, abs=1e-12)


def test_coherent_gaussian_centered_at_alpha():
    alpha = 1.0 + 0.5j
    state = coherent_state(alpha, SPACE_BIG)
    grid = raster_grid(2.5, 81)
    wg = wigner(state, grid)
    k = int(np.argmax(wg.values))
    assert abs(wg.points[k] - alpha) < 0.05
    assert wg.values[k] == pytest.approx(2.0 / math.pi, abs=1e-3)
    expected = (2.0 / math.pi) * np.exp(-2.0 * np.abs(grid.points - alpha) ** 2)
    assert np.max(np.abs(wg.values - expected)) < 1e-6


def test_pure_and_mixed_paths_agree():
    state = coherent_state(0.9, SPACE)
    as_mixed = JointState(SPACE, state.density_matrix(), "mixed")
    pts = np.array([0.3 + 0.2j, -1.0 + 0.5j, 0.0j])
    assert np.allclose(wigner(state, pts).values,
                       wigner(as_mixed, pts).values, atol=1e-10)


def test_fock_one_negativity_quadrature_oracle():
    # closed-form W_1(r) = (2/pi)(4 r^2 - 1) e^{-2 r^2}; the negative lobe
    # sits inside r < 1/2, so the area negativity has an adaptive-quadrature
    # oracle independent of the raster evaluation
    oracle, _ = quad(
        lambda r: 2.0 * (2.0 / math.pi) * (1.0 - 4.0 * r * r)
        * math.exp(-2.0 * r * r) * 2.0 * math.pi * r, 0.0, 0.5)
    wg = wigner(fock_state(1, SPACE), raster_grid(3.0, 161))
    assert negativity(wg) == pytest.approx(oracle, rel=0.01)


def test_css_slice_matches_analytic_formula():
    # cat on the imaginary axis: a slice along Re(beta) crosses the fringes
    # and must reproduce the analytic undecayed expression (the analytic
    # routine uses the real-axis convention, so its points are rotated 90deg)
    a = 1.43
    space = HilbertSpace(40)  # a negligible Fock tail for the 1.43 cat
    state = css_state(1j * a, -1j * a, 0.0, space)
    x = np.linspace(-3.0, 3.0, 101)
    numeric = wigner(state, GridSpec(x + 0j, _trapz_weights(x)))
    analytic = decayed_css_wigner(a, kappa_t=0.0,
                                  points=GridSpec(1j * x, _trapz_weights(x)))
    assert np.max(np.abs(numeric.values - analytic.values)) < 1e-6
    assert negativity(numeric) == pytest.approx(negativity(analytic), rel=1e-6)


@pytest.mark.parametrize("vartheta, tol", [(0.0, 1e-9), (math.pi, 3e-9)])
def test_css_raster_exact_at_its_own_cutoff(vartheta, tol):
    # the raster reaches |beta| = 4.24 at its corners; exact elements leave
    # only the state's own truncation at n_max 30 (6.5e-10 even, 1.9e-9
    # odd) at every point.  The odd cat holds only odd Fock levels, so it
    # also pins the sign of the parity
    grid = raster_grid(3.0, 81)
    state = css_state(2.0, -2.0, vartheta, HilbertSpace(default_cutoff(2.0)))
    analytic = decayed_css_wigner(2.0, 0.0, grid, vartheta)
    assert np.max(np.abs(wigner(state, grid).values - analytic.values)) <= tol


def test_decayed_css_full_decay_is_vacuum():
    x = np.linspace(-2.0, 2.0, 41)
    wg = decayed_css_wigner(1.2, kappa_t=200.0, points=x)
    vac = (2.0 / math.pi) * np.exp(-2.0 * x ** 2)
    assert np.max(np.abs(wg.values - vac)) < 1e-10


def test_decayed_css_matches_master_equation():
    # dual route: analytic decayed-cat expression vs Lindblad evolution of
    # the exact superposition followed by numeric Wigner evaluation
    a, kappa = 2.0, 0.1
    t = math.log(2.0) / kappa  # epsilon^2 = 1/2, fringe factor e^{-4}
    space = HilbertSpace(default_cutoff(a))
    state = css_state(a, -a, 0.0, space)
    decayed = free_decay(state, [0.0, t], ExperimentConfig(t1_phonon=1.0 / kappa))[-1]
    pts = 1j * np.linspace(-2.5, 2.5, 61)
    numeric = wigner(decayed, pts)
    analytic = decayed_css_wigner(a, kappa * t, pts)
    assert np.max(np.abs(numeric.values - analytic.values)) < 1e-4


def test_wigner_normalization():
    for state in (coherent_state(1.0, SPACE_BIG),
                  css_state(1.2, -1.2, 0.0, SPACE_BIG)):
        wg = wigner(state, raster_grid(3.0, 101))
        assert float(np.sum(wg.weights * wg.values)) == pytest.approx(1.0, abs=0.02)


def test_wigner_linear_in_state():
    rho1 = coherent_state(0.8, SPACE).density_matrix()
    rho2 = fock_state(1, SPACE).density_matrix()
    p = 0.3
    mix = JointState(SPACE, p * rho1 + (1 - p) * rho2, "mixed")
    pts = np.array([0.2 + 0.1j, -0.5j, 1.0 + 0.0j])
    w_mix = wigner(mix, pts).values
    w1 = wigner(JointState(SPACE, rho1, "mixed"), pts).values
    w2 = wigner(JointState(SPACE, rho2, "mixed"), pts).values
    assert np.max(np.abs(w_mix - (p * w1 + (1 - p) * w2))) < 1e-10


def test_wigner_displacement_covariance():
    delta = 0.6 - 0.4j
    state = css_state(1.0, -1.0, 0.0, SPACE)
    d = displacement_operator(delta, SPACE.dim)
    displaced = JointState(SPACE, d @ state.density_matrix() @ d.conj().T,
                           "mixed")
    pts = np.array([0.1 + 0.2j, -0.3 + 0.7j, 0.9 - 0.1j])
    w_shifted = wigner(displaced, pts).values
    w_orig = wigner(state, pts - delta).values
    assert np.max(np.abs(w_shifted - w_orig)) < 1e-8


def test_empty_points_give_empty_grid():
    wg = wigner(css_state(1.0, -1.0, 0.0, SPACE), np.array([], dtype=complex))
    assert wg.points.shape == wg.values.shape == (0,)


def test_negativity_requires_weights():
    wg = wigner(fock_state(1, SPACE), np.array([0.1 + 0.1j]))
    with pytest.raises(FitError):
        negativity(wg)


def test_fit_negativity_decay_roundtrip():
    taus = np.linspace(0.0, 35.0, 8)
    deltas = 3.0 * np.exp(-taus / 12.34) + 0.1
    fit = fit_negativity_decay(taus, deltas)
    assert fit.tau_cat == pytest.approx(12.34, abs=1e-6)
    assert fit.amplitude == pytest.approx(3.0, abs=1e-6)
    assert fit.offset == pytest.approx(0.1, abs=1e-6)
    assert fit.residual < 1e-9


def test_fit_negativity_decay_rejects_bad_series():
    with pytest.raises(FitError):
        fit_negativity_decay([0.0, 1.0, 2.0], [1.0, 0.5, 0.3])
    with pytest.raises(FitError):
        fit_negativity_decay([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, -0.1, 0.2])
    with pytest.raises(FitError):
        fit_negativity_decay([0.0, 1.0, 2.0, 3.0], [0.4, 0.4, 0.4, 0.4])
    # one positive point: any tau_cat below the first wait fits the step
    with pytest.raises(FitError, match="fewer than two positive"):
        fit_negativity_decay(np.linspace(0.0, 1000.0, 11), [0.43] + [0.0] * 10)


def test_fit_negativity_decay_fits_two_positive_points():
    # the default cat's decay series at waits up to 400 us: two positive points
    taus = np.linspace(0.0, 400.0, 11)
    fit = fit_negativity_decay(taus, [0.4264362016, 0.0036030571] + [0.0] * 9)
    assert fit.tau_cat == pytest.approx(40.0 / math.log(0.4264362016 / 0.0036030571),
                                        rel=1e-3)


def test_tau_cat_large_alpha_values():
    assert tau_cat_large_alpha(1.61, 84.0) == pytest.approx(16.20, abs=0.01)
    assert tau_cat_large_alpha(2.0, 84.0) == pytest.approx(
        4.0 * tau_cat_large_alpha(4.0, 84.0), rel=1e-12)
    with pytest.raises(ValueError):
        tau_cat_large_alpha(0.0, 84.0)


def test_decayed_negativity_monotone_in_time():
    grid = raster_grid(3.0, 81)
    negs = [negativity(decayed_css_wigner(1.5, t, grid))
            for t in np.linspace(0.0, 2.0, 9)]
    assert all(b <= a + 1e-12 for a, b in zip(negs, negs[1:]))


def test_small_cat_phase_sensitivity():
    # for alpha well below the macroscopic regime the superposition phase
    # visibly changes the negativity decay curve
    grid = raster_grid(2.5, 81)
    t_probe = 0.3
    negs = {vt: negativity(decayed_css_wigner(0.8, t_probe, grid,
                                              vartheta=vt))
            for vt in (0.0, math.pi / 2.0, math.pi)}
    base = max(negs.values())
    spread = (max(negs.values()) - min(negs.values())) / base
    assert spread > 0.05


@pytest.mark.parametrize("extent, n", [(3.0, 61), (3.5, 81), (2.2, 11),
                                       (2.0, 8), (1.5, 2), (1.0, 1)])
def test_raster_axis_is_exactly_antisymmetric(extent, n):
    grid = raster_grid(extent, n)
    pts = grid.points.reshape(n, n)
    x = pts[0].real
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(pts.imag[:, 0], x)
    if n > 1:
        assert x[0] == -extent and x[-1] == extent
        assert np.max(np.abs(x - np.linspace(-extent, extent, n))) <= 1e-15


def test_decay_raster_radii_fold_by_symmetry():
    # the 61^2 decay raster holds 450 distinct |beta| (a linspace axis gave
    # 894), so displaced_parity runs its recurrence over half as many radii
    points = raster_grid(3.0, 61).points
    assert len(np.unique(np.abs(points))) == 450

