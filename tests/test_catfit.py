import math

import numpy as np
import pytest

from catsim.catfit import (
    _analytical_factor,
    analytical_target,
    css_state,
    find_drop_crossings,
    fit_analytical,
    fit_css,
    sensitivity_interval,
)
from catsim.errors import FitError
from catsim.hilbert import HilbertSpace, factored_fidelity, fidelity

G0 = math.sqrt(2.0) / 0.9
SPACE = HilbertSpace(26)


def _cat_time(alpha):
    return math.pi * alpha / G0


def test_analytical_self_fit():
    alpha = 1.62
    rho = analytical_target(alpha, 0.0, 1.0, 0.0, _cat_time(alpha), G0, SPACE)
    fit = fit_analytical(rho, 1.0, 0.0, _cat_time(alpha), G0)
    assert fit.alpha_fit == pytest.approx(alpha, rel=0.01)
    assert fit.fidelity > 0.999


def test_analytical_self_fit_has_no_capped_starts():
    alpha = 1.62
    rho = analytical_target(alpha, 0.0, 1.0, 0.0, _cat_time(alpha), G0, SPACE)
    fit = fit_analytical(rho, 1.0, 0.0, _cat_time(alpha), G0)
    assert fit.n_capped == 0
    assert fit.converged


def test_analytical_objective_has_no_noise_floor():
    # a noiseless target is fitted well inside the iteration caps, and the
    # objective is smooth at the 1e-10 scale: off the optimum its values
    # follow their linear trend to roundoff, where the generic fidelity
    # route jitters by ~2e-8 (above the 1e-9 fatol of every start)
    alpha, theta0, space = 1.3, 0.7, HilbertSpace(12)
    t_c = _cat_time(alpha)
    rho = analytical_target(alpha, theta0, 1.0, 0.0, t_c, G0, space)
    fit = fit_analytical(rho, 1.0, 0.0, t_c, G0)
    assert fit.converged
    assert fit.n_capped == 0
    assert fit.n_evals <= 3000
    steps = np.arange(20)
    values = np.array([
        factored_fidelity(rho.data, _analytical_factor(
            alpha + 1e-10 * k, theta0 + 0.3, 1.0, 0.0, t_c, G0, space.n_max))
        for k in steps])
    trend = np.polyval(np.polyfit(steps, values, 1), steps)
    assert np.ptp(values - trend) <= 1e-12


def test_analytical_target_is_the_factored_state():
    alpha, theta = 1.4, 2.1
    t_c = _cat_time(alpha)
    target = analytical_target(alpha, theta, 1.0, 0.0, t_c, G0, SPACE)
    factor = _analytical_factor(alpha, theta, 1.0, 0.0, t_c, G0, SPACE.n_max)
    assert factored_fidelity(target.data, factor) == pytest.approx(1.0, abs=1e-12)


def test_analytical_fit_recovers_rotation():
    alpha, theta0 = 1.3, 0.7
    t_c = _cat_time(alpha)
    rho = analytical_target(alpha, theta0, 1.0, 0.0, t_c, G0, SPACE)
    fit = fit_analytical(rho, 1.0, 0.0, t_c, G0)
    one_degree = math.pi / 180.0
    wrapped = (fit.theta - theta0 + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(wrapped) < one_degree
    assert fit.alpha_fit == pytest.approx(alpha, rel=0.01)


def test_css_exact_recovery():
    target = css_state(1.61j, -1.61j, 0.0, SPACE)
    fit = fit_css(target)
    assert fit.fidelity > 1.0 - 1e-6
    assert fit.D == pytest.approx(1.61, abs=1e-3)
    # components recovered up to the swap symmetry
    found = sorted([fit.alpha1, fit.alpha2], key=lambda z: z.imag)
    assert abs(found[0] - (-1.61j)) < 0.01
    assert abs(found[1] - 1.61j) < 0.01


def test_css_swap_symmetry():
    # swapping the components while negating the relative phase leaves the
    # state invariant up to global phase
    a1, a2, vt = 1.2 + 0.3j, -1.0 - 0.2j, 0.8
    s1 = css_state(a1, a2, vt, SPACE)
    s2 = css_state(a2, a1, -vt, SPACE)
    assert fidelity(s1, s2) == pytest.approx(1.0, abs=1e-10)


def test_css_degenerate_components_rejected():
    with pytest.raises(FitError):
        css_state(1.0, 1.0, math.pi, SPACE)


def test_drop_crossings_quadratic_profile_oracle():
    # analytic profile F(x) = F* - k (x - x*)^2 has crossings at
    # x* +/- sqrt(drop / k)
    f_star, x_star, k, drop = 0.95, 1.5, 0.35, 0.01

    def profile(x):
        return f_star - k * (x - x_star) ** 2

    low, high, lb, hb = find_drop_crossings(profile, x_star, f_star, drop,
                                            step=0.05)
    half_width = math.sqrt(drop / k)
    assert lb and hb
    assert low == pytest.approx(x_star - half_width, rel=0.01)
    assert high == pytest.approx(x_star + half_width, rel=0.01)


def test_drop_crossings_zero_drop():
    low, high, lb, hb = find_drop_crossings(lambda x: 1.0, 2.0, 1.0, 0.0, 0.1)
    assert low == high == 2.0
    assert lb and hb


def test_drop_crossings_unbounded_side():
    low, high, lb, hb = find_drop_crossings(lambda x: 1.0, 0.0, 1.0, 0.01,
                                            step=0.1, max_steps=5)
    assert not lb and not hb


def test_sensitivity_interval_css():
    space = HilbertSpace(16)
    target = css_state(1.1j, -1.1j, 0.0, space)
    fit = fit_css(target)
    interval = sensitivity_interval(target, fit, "D", drop=0.01)
    assert interval.low < fit.D < interval.high
    assert interval.low_bounded and interval.high_bounded
    zero = sensitivity_interval(target, fit, "D", drop=0.0)
    assert zero.low == zero.high == fit.D


def test_sensitivity_interval_analytical_needs_context():
    alpha = 1.2
    rho = analytical_target(alpha, 0.0, 1.0, 0.0, _cat_time(alpha), G0,
                            HilbertSpace(16))
    fit = fit_analytical(rho, 1.0, 0.0, _cat_time(alpha), G0)
    with pytest.raises(FitError):
        sensitivity_interval(rho, fit, "alpha_fit", drop=0.01)
    interval = sensitivity_interval(rho, fit, "alpha_fit", drop=0.01,
                                    c_g=1.0, c_e=0.0,
                                    t_c=_cat_time(alpha), g0=G0)
    assert interval.low < fit.alpha_fit < interval.high


def test_fit_rejects_joint_states():
    import catsim.hilbert as h
    joint_space = HilbertSpace(4, has_qubit=True)
    vec = np.zeros(joint_space.dim, dtype=complex)
    vec[0] = 1.0
    joint = h.JointState(joint_space, vec, "pure")
    with pytest.raises(Exception):
        fit_css(joint)
