import math

import numpy as np
import pytest

from catsim.catfit import (
    FIT_GTOL,
    FIT_XATOL,
    _analytical_factor,
    _analytical_profile,
    _css_gradient,
    _css_phase,
    _css_search,
    _husimi_peaks,
    _theta_profile,
    analytical_target,
    css_state,
    fit_analytical,
    fit_css,
)
from catsim.errors import FitError, TruncationError
from catsim.hilbert import (
    HilbertSpace,
    JointState,
    coherent_amplitudes,
    coherent_state,
    displacement_operator,
    fidelity,
    max_amplitude,
)
from catsim.pipeline import ExperimentConfig, drive_alpha, prepare_cat
from reference import GRID_STARTS, corpus_names, corpus_state, factored_fidelity, \
    fit_analytical_grid, fit_css_grid, traced_cat

G0 = math.sqrt(2.0) / 0.9
SPACE = HilbertSpace(26)
# fatol of the Nelder-Mead reference fits, and the value gap within which
# _multistart counts two starts as reaching the same optimum
REFERENCE_FTOL = 1e-8


def _cat_time(alpha):
    return math.pi * alpha / G0


def _multistart(objective, starts):
    """Reference: best Nelder-Mead result over the starts, as the fits ran
    it before the profiled searches.

    Returns (x, fidelity, converged, evaluations, capped starts).
    """
    from scipy.optimize import minimize

    best = None
    total_evals = 0
    capped = 0
    converged = False
    for x0 in starts:
        res = minimize(objective, np.asarray(x0, dtype=float), method="Nelder-Mead",
                       options={"xatol": FIT_XATOL, "fatol": REFERENCE_FTOL / 10.0,
                                "maxiter": 4000})
        total_evals += res.nfev
        capped += int(res.nit >= 4000)
        key = (res.fun, tuple(np.round(res.x, 10)))
        if best is None or key < best[0]:
            best = (key, res.x, res.fun)
            converged = bool(res.success)
        elif abs(res.fun - best[2]) < REFERENCE_FTOL:
            converged = converged or bool(res.success)
    return best[1], -best[2], converged, total_evals, capped


def _reference_fit_analytical(rho, c_g, c_e, t_c, g0):
    """Reference: Nelder-Mead over (alpha, theta) from 16 starts, scored by
    factored_fidelity.  Returns (alpha, theta, F)."""
    n_max = rho.space.n_max

    def objective(x):
        alpha, theta = x
        if not 0.0 < alpha <= max_amplitude(n_max):
            return 1.0 + abs(alpha)
        factor = _analytical_factor(alpha, theta, c_g, c_e, t_c, g0, n_max)
        return -factored_fidelity(rho.data, factor)

    starts = [(a, th) for a in (0.5, 1.0, 1.5, 2.0)
              for th in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    x, f, *_ = _multistart(objective, starts)
    return float(x[0]), float(x[1]) % (2 * math.pi), f


def _reference_fit_css_pair(rho):
    """Reference: Nelder-Mead over (a1, a2) from the 16 GRID_STARTS, each
    pair scored at its closed-form phase.  Returns (a1, a2, F)."""
    n_max = rho.space.n_max

    def objective(x):
        a1, a2 = complex(x[0], x[1]), complex(x[2], x[3])
        if max(abs(a1), abs(a2)) > max_amplitude(n_max):
            return 1.0 + abs(a1) + abs(a2)
        if abs(a1 - a2) < 1e-6:
            return 1.0
        return -_css_phase(a1, a2, rho.data)[1]

    x, f, *_ = _multistart(objective, GRID_STARTS)
    return complex(x[0], x[1]), complex(x[2], x[3]), f


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
    assert fit.alpha_converged and fit.theta_slope <= FIT_GTOL


def test_analytical_objective_has_no_noise_floor():
    # a noiseless target is fitted in 9 theta profiles, and the objective
    # is smooth at the 1e-10 scale: off the optimum its values follow their
    # linear trend to roundoff, where the generic fidelity route jitters by
    # ~2e-8, far above the alpha search's resolution
    alpha, theta0, space = 1.3, 0.7, HilbertSpace(12)
    t_c = _cat_time(alpha)
    rho = analytical_target(alpha, theta0, 1.0, 0.0, t_c, G0, space)
    fit = fit_analytical(rho, 1.0, 0.0, t_c, G0)
    assert fit.converged
    assert fit.n_capped == 0
    assert fit.n_evals <= 9
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
    # css_state, built from one two-row coherent_amplitudes call, against one
    # call per component, vacuum components included
    vt = 0.8
    c1, _ = coherent_amplitudes(a1, SPACE.n_max)
    c2, _ = coherent_amplitudes(a2, SPACE.n_max)
    ref = c1 + np.exp(1j * vt) * c2
    ref /= np.linalg.norm(ref)
    assert np.max(np.abs(css_state(a1, a2, vt, SPACE).data - ref)) <= 1e-14


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
    public fidelity of css_state, from the 16 GRID_STARTS."""
    space = rho.space

    def objective(x):
        a1, a2 = complex(x[0], x[1]), complex(x[2], x[3])
        if abs(a1) ** 2 > space.n_max / 4.0 or abs(a2) ** 2 > space.n_max / 4.0:
            return 1.0 + abs(a1) + abs(a2)
        if abs(a1 - a2) < 1e-6:
            return 1.0
        return -fidelity(css_state(a1, a2, x[4], space), rho)

    x, f, *_ = _multistart(objective, [start + (0.0,) for start in GRID_STARTS])
    return complex(x[0], x[1]), complex(x[2], x[3]), x[4] % (2 * math.pi), f


def _case_state(case):
    if case == "pipeline_0.3":
        return prepare_cat(drive_alpha(0.30), ExperimentConfig())
    space = HilbertSpace(12)
    if case == "noisy_css":
        cat = css_state(1.1 + 0.4j, -0.9 - 0.6j, 0.9, space).density_matrix()
        thermal = np.diag(0.6 ** np.arange(13))
        rho = 0.85 * cat + 0.15 * thermal / np.trace(thermal)
    else:
        plus = css_state(0.3 + 1.3j, 0.6 - 1.2j, 0.0, space).density_matrix()
        minus = css_state(0.3 + 1.3j, 0.6 - 1.2j, math.pi, space).density_matrix()
        rho = 0.7 * plus + 0.3 * minus
    return JointState(space, rho, "mixed")


def _matching_order(fit, a1, a2):
    """fit's (alpha1, alpha2, vartheta) in the order closest to (a1, a2):
    (a1, a2, t) and (a2, a1, -t) are one state."""
    b1, b2, bt = fit.alpha1, fit.alpha2, fit.vartheta
    if abs(b1 - a2) < abs(b1 - a1):
        b1, b2, bt = b2, b1, -bt
    return b1, b2, bt


@pytest.mark.parametrize("case", ["noisy_css", "dephased_cat"])
def test_css_fit_matches_five_parameter_route(case):
    rho = _case_state(case)
    a1, a2, vt, f = _reference_fit_css(rho)
    fit = fit_css(rho)
    b1, b2, bt = _matching_order(fit, a1, a2)
    assert abs(b1 - a1) <= 1e-4 and abs(b2 - a2) <= 1e-4
    assert fit.D == pytest.approx(abs(a1 - a2) / 2.0, abs=1e-4)
    assert abs((bt - vt + math.pi) % (2 * math.pi) - math.pi) <= 1e-4
    assert fit.fidelity >= f - 1e-8
    assert fit.n_capped == 0


@pytest.mark.parametrize("case", ["noisy_css", "dephased_cat", "pipeline_0.3"])
def test_css_fit_matches_nelder_mead_route(case):
    # dual route: BFGS on the envelope gradient against Nelder-Mead on the
    # same objective from the same starts; each optimum here is unique
    rho = _case_state(case)
    a1, a2, f = _reference_fit_css_pair(rho)
    fit = fit_css(rho)
    b1, b2, _ = _matching_order(fit, a1, a2)
    assert fit.fidelity >= f - 1e-8
    assert abs(b1 - a1) <= FIT_XATOL and abs(b2 - a2) <= FIT_XATOL
    assert fit.converged and fit.grad_norm <= FIT_GTOL
    assert fit.n_capped == 0


@pytest.mark.parametrize("case", ["noisy_css", "dephased_cat", "pipeline_0.3"])
def test_analytical_fit_matches_nelder_mead_route(case):
    # dual route: the profiled search against Nelder-Mead over (alpha, theta)
    config = ExperimentConfig()
    rho = _case_state(case)
    alpha, theta, f = _reference_fit_analytical(rho, 1.0, 0.0, config.t_cat,
                                                config.g0)
    fit = fit_analytical(rho, 1.0, 0.0, config.t_cat, config.g0)
    assert fit.fidelity >= f - 1e-8
    assert abs(fit.alpha_fit - alpha) <= FIT_XATOL
    assert abs((fit.theta - theta + math.pi) % (2 * math.pi) - math.pi) <= FIT_XATOL
    assert fit.converged and fit.n_evals <= 9


def _finite_difference(a1, a2, rho, h=1e-6):
    """Central differences of _css_gradient's F, Richardson-extrapolated
    from steps h and h / 2."""
    x = np.array([a1.real, a1.imag, a2.real, a2.imag])

    def value(y):
        return _css_gradient(complex(y[0], y[1]), complex(y[2], y[3]), rho)[0]

    def central(step):
        return np.array([(value(x + step * e) - value(x - step * e)) / (2 * step)
                         for e in np.eye(4)])

    return (4.0 * central(h / 2) - central(h)) / 3.0


@pytest.mark.parametrize("dim", [8, 13])
def test_css_gradient_matches_finite_differences(dim):
    # oracle for the envelope gradient on random states, with a vacuum
    # component on either side and a pair 1e-3 apart, where the gradient
    # is ~50 and the value cancels hardest
    rng = np.random.default_rng(dim)
    space = HilbertSpace(dim - 1)
    pairs = [(0.4 + 0.3j, -0.5 + 0.1j), (0.0, 0.8 - 0.2j), (0.7 - 0.2j, 0.0),
             (0.3 + 0.1j, 0.3 + 0.1j + 1e-3 * (0.6 + 0.8j))]
    for rank in (1, 3):
        rho = _random_state(rng, space, rank).data
        for a1, a2 in pairs:
            f, grad = _css_gradient(a1, a2, rho)
            assert f == pytest.approx(_css_phase(a1, a2, rho)[1], abs=1e-14)
            fd = _finite_difference(a1, a2, rho)
            assert np.max(np.abs(grad - fd)) <= 1e-8 * max(1.0, np.max(np.abs(grad)))


def test_css_search_never_converges_off_the_admissible_region():
    # the plateau |a1 - a2| < 1e-6 and the space past the truncation wall
    # are flat, so BFGS meets its gradient tolerance at once there; neither
    # stop counts as converged
    rho = _random_state(np.random.default_rng(2), HilbertSpace(12), rank=2).data
    for start in [(0.3, 0.1, 0.3, 0.1), (2.0, 0.0, -2.0, 0.0)]:
        x, converged, n_evals, _, grad_norm = _css_search(rho, [start])
        assert np.array_equal(x, start) and grad_norm == 0.0
        assert not converged
    _, converged, *_ = _css_search(rho, [(0.75, 0.0, -0.75, 0.0)])
    assert converged


def test_husimi_peaks_sit_at_the_components():
    # Q of a mixture of two distant coherent states peaks at their
    # amplitudes (grid points here), the heavier component first
    space = HilbertSpace(30)
    a, b = 1.5 + 0.6j, -1.2 - 0.9j
    rho = 0.4 * coherent_state(a, space).density_matrix() \
        + 0.6 * coherent_state(b, space).density_matrix()
    assert np.max(np.abs(_husimi_peaks(rho)[:2] - [b, a])) <= 1e-12


# a fixed subset of the corpus of reference.corpus_names(): at drive 0.30,
# recon_n_max 12 and sampling seed 1 one lobe's Q peak lies past the
# truncation wall (|beta| <= 1.732), so the start must be pulled inside
CORPUS_SUBSET = ["mle_0.30_12_1", "mle_0.25_20_2", "mle_0.35_20_0", "plusx_0.30",
                 "traced_0.35"]


@pytest.mark.parametrize("name", CORPUS_SUBSET)
def test_css_fit_matches_grid_reference_on_corpus(name):
    rho = corpus_state(name)
    fit, ref = fit_css(rho), fit_css_grid(rho)
    assert abs(fit.D - ref.D) <= 1e-4
    assert abs(fit.fidelity - ref.fidelity) <= 1e-6
    assert fit.converged and not fit.degenerate and not ref.degenerate
    assert fit.n_evals < ref.n_evals
    if name == "mle_0.30_12_1":
        assert np.max(np.abs(_husimi_peaks(rho.data)[:2])) > max_amplitude(12)
        assert fit.n_evals <= 60


def test_analytical_fit_matches_grid_reference_on_corpus():
    # the one Brent run over the whole alpha interval against the former
    # bracket grid, on every corpus state; the oracle that lets one run
    # suffice: the profiled F(alpha) on a 120-point grid has one local
    # maximum
    config = ExperimentConfig()
    args = (1.0, 0.0, config.t_cat, config.g0)
    for name in corpus_names():
        rho = corpus_state(name)
        fit, ref = fit_analytical(rho, *args), fit_analytical_grid(rho, *args)
        assert abs(fit.alpha_fit - ref.alpha_fit) <= FIT_XATOL, name
        assert abs(fit.fidelity - ref.fidelity) <= 1e-9, name
        assert fit.converged and fit.n_evals <= 12, name
        grid = np.linspace(0.0, max_amplitude(rho.space.n_max), 121)[1:]
        f = np.array([_analytical_profile(rho.density_matrix(), alpha, *args)[1]
                      for alpha in grid])
        padded = np.r_[-np.inf, f, -np.inf]
        assert np.count_nonzero((f > padded[:-2]) & (f >= padded[2:])) == 1, name


def test_css_fit_flags_a_displaced_single_phonon_state():
    # N(|a> - |a + delta>) -> D(a)|1> as delta -> 0: F rises toward 1 only
    # as D falls toward 0, so D is no cat size
    space = HilbertSpace(20)
    vec = displacement_operator(0.6 + 0.3j, space.dim)[:, 1]
    fit = fit_css(JointState(space, vec / np.linalg.norm(vec), "pure"))
    assert fit.degenerate
    assert fit.fidelity > 0.99


@pytest.mark.parametrize("vartheta", [0.0, math.pi])
def test_css_fit_recovers_a_unit_cat_unflagged(vartheta):
    fit = fit_css(css_state(1.0, -1.0, vartheta, HilbertSpace(20)))
    assert fit.D == pytest.approx(1.0, abs=1e-4)
    assert fit.fidelity > 1.0 - 1e-9
    assert fit.converged and not fit.degenerate
    assert fit.shrink_gap > 0.05


def test_traced_cat_at_drive_025_is_flagged_under_both_searches():
    # the qubit traced out at drive 0.25: F is flat in D, so the Husimi-Q
    # start stops at one D and the 16 grid starts at another, and both are
    # flagged
    rho = traced_cat(0.25)
    fit, ref = fit_css(rho), fit_css_grid(rho)
    assert fit.degenerate and ref.degenerate
    assert abs(fit.D - ref.D) > 0.1 and abs(fit.fidelity - ref.fidelity) < 1e-3


def test_theta_profile_is_the_scan_maximum():
    # oracle: the FFT profile's polished maximum beats a 721-point scan of
    # factored_fidelity over theta, for the one-column analytical factor and
    # for a synthetic two-column factor, and reports its value there
    rng = np.random.default_rng(17)
    space = HilbertSpace(14)
    scan = np.linspace(0.0, 2.0 * math.pi, 721)
    factors = [_analytical_factor(1.3, 0.0, 1.0, 0.0, _cat_time(1.3), G0, 14),
               rng.normal(size=(15, 2)) + 1j * rng.normal(size=(15, 2))]
    for factor in factors:
        for rank in (2, 5):
            rho = _random_state(rng, space, rank).data
            theta, f, slope = _theta_profile(rho, factor)
            scanned = max(factored_fidelity(
                rho, np.exp(-1j * t * np.arange(15))[:, None] * factor) for t in scan)
            rotated = np.exp(-1j * theta * np.arange(15))[:, None] * factor
            assert f >= scanned - 1e-12
            assert f == pytest.approx(factored_fidelity(rho, rotated), abs=1e-12)
            assert slope <= FIT_GTOL


@pytest.mark.parametrize("n_max", [20, 40])
def test_analytical_profile_at_max_amplitude(n_max):
    # fit_analytical's alpha search is bounded by max_amplitude(n_max), so
    # the profile there is a number, and one ulp further the truncation guard
    # raises (sqrt(n_max / 4) squared exceeds n_max / 4 at these n_max)
    config = ExperimentConfig()
    rho = _random_state(np.random.default_rng(n_max), HilbertSpace(n_max), 2).data
    cap = max_amplitude(n_max)
    _, f, _ = _analytical_profile(rho, cap, 1.0, 0.0, config.t_cat, config.g0)
    assert 0.0 < f <= 1.0
    with pytest.raises(TruncationError):
        _analytical_profile(rho, math.nextafter(cap, math.inf), 1.0, 0.0,
                            config.t_cat, config.g0)


def test_fit_rejects_joint_states():
    import catsim.hilbert as h
    joint_space = HilbertSpace(4, has_qubit=True)
    vec = np.zeros(joint_space.dim, dtype=complex)
    vec[0] = 1.0
    joint = h.JointState(joint_space, vec, "pure")
    with pytest.raises(Exception):
        fit_css(joint)
