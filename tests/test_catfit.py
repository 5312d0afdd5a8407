import math

import numpy as np
import pytest

from catsim.catfit import (
    FIT_XATOL,
    _analytical_factor,
    _coherent_pair,
    _css_phase,
    _multistart,
    analytical_target,
    css_state,
    find_drop_crossings,
    fit_analytical,
    fit_css,
    sensitivity_interval,
)
from catsim.errors import FitError
from catsim.hilbert import (
    HilbertSpace,
    JointState,
    coherent_amplitudes,
    factored_fidelity,
    fidelity,
)

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


@pytest.mark.parametrize("a1, a2, vt", [(0.2 - 1.2j, -0.3 + 1.1j, 0.8),
                                        (1.4j, -1.4j, 2.5)])
def test_css_fit_labels_are_canonical(a1, a2, vt):
    # (a1, a2, t) and (a2, a1, -t) are one state, so both fit to one
    # labelling: larger real part first, larger imaginary part on a tie
    space = HilbertSpace(16)
    first, second = (fit_css(css_state(a1, a2, vt, space)),
                     fit_css(css_state(a2, a1, -vt, space)))
    for fit in (first, second):
        if abs(fit.alpha1.real - fit.alpha2.real) > FIT_XATOL:
            assert fit.alpha1.real > fit.alpha2.real
        else:
            assert fit.alpha1.imag > fit.alpha2.imag
    assert abs(first.alpha1 - a1) < 1e-3 and abs(first.alpha2 - a2) < 1e-3
    assert abs(first.alpha1 - second.alpha1) <= FIT_XATOL
    assert abs(first.alpha2 - second.alpha2) <= FIT_XATOL
    dt = first.vartheta - second.vartheta
    assert abs((dt + math.pi) % (2 * math.pi) - math.pi) <= FIT_XATOL
    assert abs(first.D - second.D) <= FIT_XATOL
    assert abs(first.fidelity - second.fidelity) <= FIT_XATOL


def test_css_degenerate_components_rejected():
    with pytest.raises(FitError):
        css_state(1.0, 1.0, math.pi, SPACE)


@pytest.mark.parametrize("a1, a2", [(0.0, 1.2), (1.2 + 0.3j, -1.0),
                                    (-0.7j, 0.0)])
def test_css_state_matches_coherent_amplitudes(a1, a2):
    # the pair builder against one coherent_amplitudes call per component,
    # vacuum components included (log 0 would make the n = 0 term NaN)
    vt = 0.8
    c1, _ = coherent_amplitudes(a1, SPACE.n_max)
    c2, _ = coherent_amplitudes(a2, SPACE.n_max)
    ref = c1 + np.exp(1j * vt) * c2
    ref /= np.linalg.norm(ref)
    assert np.max(np.abs(css_state(a1, a2, vt, SPACE).data - ref)) <= 1e-14
    assert np.max(np.abs(_coherent_pair(a1, a2, SPACE.n_max)
                         - np.array([c1, c2]))) <= 1e-14


def _random_state(rng, space, rank):
    m = rng.normal(size=(space.dim, rank)) + 1j * rng.normal(size=(space.dim, rank))
    rho = m @ m.conj().T
    return JointState(space, rho / np.trace(rho).real, "mixed")


def test_css_phase_is_the_scan_maximum():
    # oracle: on random (a1, a2, rho) the closed-form phase beats a
    # 721-point scan of the relative phase, and the public route through
    # css_state reproduces its value
    rng = np.random.default_rng(11)
    space = HilbertSpace(12)
    scan = np.linspace(0.0, 2.0 * math.pi, 721)
    for trial in range(30):
        rho = _random_state(rng, space, rank=1 + trial % 4)
        a1, a2 = rng.normal(scale=0.9, size=2) + 1j * rng.normal(scale=0.9, size=2)
        vt, f = _css_phase(a1, a2, rho.data)
        scanned = max(fidelity(css_state(a1, a2, t, space), rho) for t in scan)
        assert f ** 2 >= scanned ** 2 - 1e-12
        assert fidelity(css_state(a1, a2, vt, space), rho) == pytest.approx(f, abs=1e-12)


def test_css_phase_near_equal_components():
    # expanded, F^2 is a ratio of two terms that cancel to ~|a1 - a2|^2,
    # which leaves ~1e-16 / |a1 - a2|^2 of noise; the scored form keeps
    # the value of the public route near the |a1 - a2| >= 1e-6 guard
    rho = _random_state(np.random.default_rng(5), SPACE, rank=2)
    a1 = 0.4 + 0.2j
    for gap in (1e-3, 1e-4, 1e-5):
        a2 = a1 + gap * (0.6 + 0.8j)
        vt, f = _css_phase(a1, a2, rho.data)
        assert fidelity(css_state(a1, a2, vt, SPACE), rho) == pytest.approx(f, abs=1e-9)


def test_css_fit_reports_the_public_fidelity():
    rho = _random_state(np.random.default_rng(3), HilbertSpace(8), rank=2)
    fit = fit_css(rho)
    assert fit.fidelity == fidelity(
        css_state(fit.alpha1, fit.alpha2, fit.vartheta, rho.space), rho)


def _reference_fit_css(rho):
    """The 5-parameter route: Nelder-Mead over (a1, a2, t), scored by the
    public fidelity of css_state, from the same 16 starts."""
    space = rho.space

    def objective(x):
        a1, a2 = complex(x[0], x[1]), complex(x[2], x[3])
        if abs(a1) ** 2 > space.n_max / 4.0 or abs(a2) ** 2 > space.n_max / 4.0:
            return 1.0 + abs(a1) + abs(a2)
        if abs(a1 - a2) < 1e-6:
            return 1.0
        return -fidelity(css_state(a1, a2, x[4], space), rho)

    starts = [(a.real, a.imag, -a.real, -a.imag, 0.0)
              for a in (r * np.exp(1j * phi) for r in (0.75, 1.25, 1.75, 2.25)
                        for phi in np.arange(4) * math.pi / 4)]
    x, f, *_ = _multistart(objective, starts)
    return complex(x[0], x[1]), complex(x[2], x[3]), x[4] % (2 * math.pi), f


@pytest.mark.parametrize("case", ["noisy_css", "dephased_cat"])
def test_css_fit_matches_five_parameter_route(case):
    space = HilbertSpace(12)
    if case == "noisy_css":
        cat = css_state(1.1 + 0.4j, -0.9 - 0.6j, 0.9, space).density_matrix()
        thermal = np.diag(0.6 ** np.arange(13))
        rho = 0.85 * cat + 0.15 * thermal / np.trace(thermal)
    else:
        plus = css_state(0.3 + 1.3j, 0.6 - 1.2j, 0.0, space).density_matrix()
        minus = css_state(0.3 + 1.3j, 0.6 - 1.2j, math.pi, space).density_matrix()
        rho = 0.7 * plus + 0.3 * minus
    rho = JointState(space, rho, "mixed")
    a1, a2, vt, f = _reference_fit_css(rho)
    fit = fit_css(rho)
    b1, b2, bt = fit.alpha1, fit.alpha2, fit.vartheta
    if abs(b1 - a2) < abs(b1 - a1):
        # (a1, a2, t) and (a2, a1, -t) are one state; the starts tie to
        # roundoff between the two orderings
        b1, b2, bt = b2, b1, -bt
    assert abs(b1 - a1) <= 1e-4 and abs(b2 - a2) <= 1e-4
    assert fit.D == pytest.approx(abs(a1 - a2) / 2.0, abs=1e-4)
    assert abs((bt - vt + math.pi) % (2 * math.pi) - math.pi) <= 1e-4
    assert fit.fidelity >= f - 1e-8
    assert fit.n_capped == 0


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
    interval = sensitivity_interval(target, fit, drop=0.01)
    assert interval.low < fit.D < interval.high
    assert interval.low_bounded and interval.high_bounded
    zero = sensitivity_interval(target, fit, drop=0.0)
    assert zero.low == zero.high == fit.D


def test_sensitivity_interval_analytical_needs_context():
    alpha = 1.2
    rho = analytical_target(alpha, 0.0, 1.0, 0.0, _cat_time(alpha), G0,
                            HilbertSpace(16))
    fit = fit_analytical(rho, 1.0, 0.0, _cat_time(alpha), G0)
    with pytest.raises(FitError):
        sensitivity_interval(rho, fit, drop=0.01)
    interval = sensitivity_interval(rho, fit, drop=0.01, c_g=1.0, c_e=0.0,
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
