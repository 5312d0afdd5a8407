import math

import numpy as np
import pytest

from catsim.dynamics import SystemParams, excited_population
from catsim.pipeline import ExperimentConfig, drive_alpha, prepare_cat
from catsim.errors import FitError, StateValidationError
from catsim.catfit import css_state
from catsim.hilbert import (
    HilbertSpace,
    coherent_state,
    displaced_parity,
    fidelity,
    parity_kernels,
)
from catsim.phase_space import raster_grid
from catsim.tomography import (
    DriveCalibration,
    ParityNormalization,
    ReadoutModel,
    WignerSampleSet,
    _flat_kernels,
    _kernel_sum,
    _kernel_traces,
    _project_density,
    calibrate_drive,
    calibrate_parity,
    extract_fock_populations,
    mle_reconstruct,
    sample_wigner,
)
from reference import fock_state, purity

G0 = math.sqrt(2.0) / 0.9


def test_parity_expectation_eigenstates():
    space = HilbertSpace(20)
    assert displaced_parity([fock_state(0, space)], [0.0])[0, 0] == pytest.approx(1.0)
    assert displaced_parity([fock_state(1, space)], [0.0])[0, 0] == pytest.approx(-1.0)


def test_parity_expectation_coherent():
    # <Pi_beta> of |alpha> is e^{-2|alpha-beta|^2}
    space = HilbertSpace(30)
    state = coherent_state(1.1, space)
    for beta in (0.0, 0.5 + 0.3j, 1.1):
        expected = math.exp(-2.0 * abs(1.1 - beta) ** 2)
        assert displaced_parity([state], [beta])[0, 0] == pytest.approx(expected, abs=1e-8)


def test_readout_mean_within_binomial_error():
    space = HilbertSpace(10)
    model = ReadoutModel(contrast=0.8, offset=0.0, shots=10000, seed=5)
    # one point, identity normalisation: the parity is the raw readout mean
    raw = sample_wigner(fock_state(0, space), [0.0], model).parities[0]
    p_plus = (1.0 + 0.8) / 2.0
    sigma = 2.0 * math.sqrt(p_plus * (1.0 - p_plus) / model.shots)
    assert abs(raw - 0.8) < 3.0 * sigma


def test_deep_displacement_reads_the_truncated_state():
    # displaced_parity is exact for the truncated state at every beta, so the
    # vacuum on n_max 9 reads e^{-2 |beta|^2} = e^{-32} far beyond |beta| = sqrt(9)
    state = fock_state(0, HilbertSpace(9))
    exact = math.exp(-32.0)
    assert displaced_parity([state], [4.0])[0, 0] == pytest.approx(exact, rel=1e-12, abs=0.0)
    model = ReadoutModel(shots=10000, seed=1)
    parity = sample_wigner(state, [4.0], model).parities[0]
    # p_plus = (1 + e^{-32}) / 2 is 1/2 to roundoff, so the shot noise is 1/sqrt(shots)
    assert abs(parity - exact) < 3.0 / math.sqrt(model.shots)


def test_sample_wigner_reads_shallow_and_deep_points_alike():
    # no point of a list is refused: each reads its own e^{-2 |beta|^2} within
    # 3 sigma of its binomial shot noise, the shallow one included
    state = fock_state(0, HilbertSpace(9))
    betas = np.array([0.5, 4.0j, 5.0])
    exact = np.exp(-2.0 * np.abs(betas) ** 2)
    assert displaced_parity([state], betas)[0] == pytest.approx(exact, rel=1e-12, abs=0.0)
    model = ReadoutModel(shots=10000, seed=1)
    parities = sample_wigner(state, betas, model).parities
    p_plus = (1.0 + exact) / 2.0
    sigma = 2.0 * np.sqrt(p_plus * (1.0 - p_plus) / model.shots)
    assert parities.shape == betas.shape
    assert np.all(np.abs(parities - exact) < 3.0 * sigma)


def test_parity_calibration_ideal_model():
    norm = calibrate_parity(ReadoutModel(contrast=1.0, offset=0.0,
                                         shots=200000, seed=1))
    assert norm.amplitude == pytest.approx(1.0, abs=0.01)
    assert norm.offset == pytest.approx(0.0, abs=0.01)


def test_parity_calibration_recovers_contrast():
    norm = calibrate_parity(ReadoutModel(contrast=0.7, offset=0.05,
                                         shots=10000, seed=2))
    assert norm.amplitude == pytest.approx(0.7, rel=0.02)
    # the normalization gain is the reciprocal of the fitted contrast
    assert 1.0 / norm.amplitude == pytest.approx(1.0 / 0.7, rel=0.02)


def test_normalized_vacuum_reads_plus_one():
    space = HilbertSpace(16)
    model = ReadoutModel(contrast=0.85, offset=0.03, shots=50000, seed=3)
    norm = calibrate_parity(model)
    samples = sample_wigner(fock_state(0, space), np.array([0.0 + 0.0j]),
                            model, norm)
    assert samples.parities[0] == pytest.approx(1.0, abs=0.02)


def test_sample_order_independence():
    space = HilbertSpace(16)
    model = ReadoutModel(contrast=0.9, shots=500, seed=11)
    state = coherent_state(0.8, space)
    betas = np.array([0.0j, 0.5 + 0.0j, -0.2 + 0.4j])
    full = sample_wigner(state, betas, model)
    # per-point seeding: the first point's value does not depend on how many
    # other points were sampled, and repeat runs are bitwise identical
    assert full.parities[0] == pytest.approx(
        sample_wigner(state, betas[:1], model).parities[0])
    repeat = sample_wigner(state, betas, model)
    assert np.array_equal(full.parities, repeat.parities)


def test_drive_calibration_roundtrip():
    rng = np.random.default_rng(17)
    truth = DriveCalibration(B=0.5, C=0.9)
    amps = np.linspace(0.05, 1.0, 20)
    betas = truth.beta_abs(amps) * (1.0 + 0.01 * rng.standard_normal(len(amps)))
    fit = calibrate_drive(list(zip(amps, betas)))
    assert fit.B == pytest.approx(0.5, rel=0.05)
    assert fit.C == pytest.approx(0.9, rel=0.05)


def test_drive_calibration_is_scale_invariant():
    # the model is linear in C: scaling every |beta| by s scales C_fit and the
    # residual by s and leaves B_fit as it is, for tiny and huge prefactors alike
    rng = np.random.default_rng(41)
    amps = np.linspace(0.05, 0.4, 15)
    betas = DriveCalibration(B=0.2, C=1.1).beta_abs(amps) \
        * (1.0 + 0.01 * rng.standard_normal(len(amps)))
    ref = calibrate_drive(list(zip(amps, betas)))
    assert ref.B == pytest.approx(0.2, rel=0.05)
    for s in (1e-8, 1.0, 1e20):
        fit = calibrate_drive(list(zip(amps, s * betas)))
        assert fit.B == pytest.approx(ref.B, rel=1e-9, abs=0.0)
        assert fit.C == pytest.approx(s * ref.C, rel=1e-9, abs=0.0)
        assert fit.residual == pytest.approx(s * ref.residual, rel=1e-9, abs=0.0)


def test_drive_calibration_refuses_a_negative_prefactor_and_a_straight_line():
    # the mirrored curve -C (e^{A/B} - 1) is best fit by C = -1.1, which a
    # displacement magnitude has no room for
    amps = np.linspace(0.05, 0.4, 15)
    betas = -DriveCalibration(B=0.2, C=1.1).beta_abs(amps)
    with pytest.warns(UserWarning, match="non-monotone"), \
            pytest.raises(FitError, match="prefactor C = -1.1 <= 0"):
        calibrate_drive(list(zip(amps, betas)))
    # |beta| linear in A has its least squares at B -> infinity
    with pytest.raises(FitError, match="no interior minimum"):
        calibrate_drive(list(zip(amps, 3.0 * amps)))


def test_drive_model_slope_and_monotonicity():
    cal = DriveCalibration(B=0.4, C=1.2)
    eps = 1e-7
    slope = (cal.beta_abs(eps) - cal.beta_abs(0.0)) / eps
    assert slope == pytest.approx(1.2 / 0.4, rel=1e-5)
    amps = np.linspace(0.0, 1.0, 50)
    assert np.all(np.diff(cal.beta_abs(amps)) > 0)


def test_drive_calibration_needs_enough_points():
    with pytest.raises(FitError):
        calibrate_drive([(0.1, 0.2), (0.2, 0.5)])


def _swap_trace(beta, g0=G0, n_times=241):
    # transfer probability out of an initially excited qubit, which carries
    # the Fock populations of the phonon state at frequencies 2 g0 sqrt(n+1)
    times = np.linspace(0.0, 6.0 * math.pi / g0, n_times)
    params = SystemParams(g0=g0, alpha0=beta, c_g=0.0, c_e=1.0)
    return times, 1.0 - excited_population(params, times)


def test_fock_extraction_coherent_one():
    times, trace = _swap_trace(1.0)
    pops = extract_fock_populations(times, trace, G0, n_fit=8)
    assert pops.populations[0] == pytest.approx(math.exp(-1.0), abs=0.02)
    assert pops.populations[1] == pytest.approx(math.exp(-1.0), abs=0.02)
    assert pops.beta_abs == pytest.approx(1.0, abs=0.03)
    assert pops.residual < 1e-6


def test_fock_extraction_vacuum():
    times, trace = _swap_trace(0.0)
    pops = extract_fock_populations(times, trace, G0, n_fit=6)
    assert pops.populations[0] == pytest.approx(1.0, abs=0.01)
    assert np.all(pops.populations[1:] < 0.01)


def test_fock_extraction_with_noise():
    rng = np.random.default_rng(23)
    times, trace = _swap_trace(1.3)
    noisy = np.clip(trace + 0.01 * rng.standard_normal(len(times)), 0.0, 1.0)
    pops = extract_fock_populations(times, noisy, G0, n_fit=10)
    assert pops.beta_abs == pytest.approx(1.3, rel=0.05)


def test_fock_extraction_dual_route_model():
    # the exact series for an excited qubit on a coherent state equals the
    # damped-Rabi fitting model with zero damping,
    # sum_n p_n (1 - cos(2 g0 sqrt(n+1) t))/2
    times, trace = _swap_trace(0.9)
    pops_true = np.abs(coherent_state(0.9, HilbertSpace(20)).data) ** 2
    rabi = 2.0 * G0 * np.sqrt(np.arange(13) + 1.0)
    modeled = (1.0 - np.cos(np.outer(times, rabi))) / 2.0 @ pops_true[:13]
    assert np.max(np.abs(modeled - trace)) < 1e-8


def test_fock_extraction_rejects_short_trace():
    times = np.linspace(0.0, 0.5 * math.pi / G0, 40)
    with pytest.raises(FitError):
        extract_fock_populations(times, np.zeros_like(times), G0, n_fit=6)


def _roundtrip(state, shots, seed, recon_n_max=10, extent=2.0, n=9):
    model = ReadoutModel(contrast=1.0, offset=0.0, shots=shots, seed=seed)
    grid = raster_grid(extent, n)
    samples = sample_wigner(state, grid.points, model)
    return mle_reconstruct(samples, HilbertSpace(recon_n_max))


def test_mle_vacuum_reconstruction():
    # noise-free frequencies isolate the algorithm from shot noise
    space = HilbertSpace(40)  # large source space: exact sampled parities
    state = fock_state(0, space)
    grid = raster_grid(2.0, 9)
    parities = displaced_parity([state], grid.points)[0]
    samples = WignerSampleSet(betas=grid.points, parities=parities,
                              shots_per_point=100000,
                              normalization=ParityNormalization.identity())
    result = mle_reconstruct(samples, HilbertSpace(8))
    vac = fock_state(0, result.state.space)
    assert fidelity(vac, result.state) > 0.999
    assert purity(result.state) > 0.999
    # log-likelihood must never decrease across iterations
    assert np.all(np.diff(result.log_likelihoods) >= 0.0)


def test_mle_error_decreases_with_shots():
    space = HilbertSpace(40)
    state = coherent_state(0.7, space)
    errors = []
    for shots in (100, 1000, 10000):
        result = _roundtrip(state, shots=shots, seed=9)
        target = coherent_state(0.7, result.state.space)
        errors.append(1.0 - fidelity(target, result.state))
    assert errors[2] < errors[1] < errors[0]


def test_mle_rejects_unphysical_normalization():
    samples = WignerSampleSet(
        betas=np.array([0.0j]), parities=np.array([0.5]), shots_per_point=100,
        normalization=ParityNormalization(amplitude=0.9, offset=0.5))
    with pytest.raises(StateValidationError):
        mle_reconstruct(samples, HilbertSpace(4))


def test_mle_rejects_non_finite_parities():
    samples = WignerSampleSet(
        betas=np.array([0.0j, 0.5 + 0.0j]), parities=np.array([np.nan, 0.3]),
        shots_per_point=100, normalization=ParityNormalization.identity())
    with pytest.raises(StateValidationError, match="not finite"):
        mle_reconstruct(samples, HilbertSpace(4))


def test_mle_rejects_empty_sample_set():
    samples = WignerSampleSet(
        betas=np.array([], dtype=complex), parities=np.array([]),
        shots_per_point=100, normalization=ParityNormalization.identity())
    with pytest.raises(ValueError, match="sample set is empty"):
        mle_reconstruct(samples, HilbertSpace(4))


@pytest.mark.parametrize("dim", [5, 13, 21])
def test_flat_kernels_match_einsum_contractions(dim):
    # dual route: the real (N, 2 d^2) view gives Tr(K_k rho) and sum_k c_k K_k
    # as the complex einsum contractions of the kernel stack do
    rng = np.random.default_rng(dim)
    betas = rng.normal(size=30) + 1j * rng.normal(size=30)
    kernels = parity_kernels(betas, dim)
    kflat = _flat_kernels(betas, dim)
    assert kflat.shape == (30, 2 * dim * dim) and not kflat.flags.owndata
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m + m.conj().T
    coeffs = rng.normal(size=30)
    traces = np.einsum("kij,ji->k", kernels, rho).real
    assert np.max(np.abs(_kernel_traces(kflat, rho) - traces)) <= 1e-13 * np.max(np.abs(traces))
    r_op = np.einsum("k,kij->ij", coeffs, kernels)
    assert np.max(np.abs(_kernel_sum(coeffs, kflat, dim) - r_op)) <= 1e-13 * np.max(np.abs(r_op))


def _einsum_likelihood(samples, dim):
    """l(rho) and R(rho) of the parity likelihood on einsum contractions."""
    kernels = parity_kernels(samples.betas, dim)
    amp, off = samples.normalization.amplitude, samples.normalization.offset
    f_plus = (1.0 + samples.normalization.unapply(samples.parities)) / 2.0
    f_plus, f_minus = np.clip(f_plus, 0.0, 1.0), np.clip(1.0 - f_plus, 0.0, 1.0)
    eye = np.eye(dim, dtype=complex)

    def probs(rho):
        pi_exp = np.einsum("kij,ji->k", kernels, rho).real
        return np.clip((1.0 + amp * pi_exp + off) / 2.0, 1e-12, 1.0 - 1e-12)

    def loglike(rho):
        p = probs(rho)
        return samples.shots_per_point * np.sum(f_plus * np.log(p) + f_minus * np.log(1.0 - p))

    def r_op(rho):
        p = probs(rho)
        w_plus, w_minus = f_plus / p, f_minus / (1.0 - p)
        return 0.5 * np.sum(w_plus * (1.0 + off) + w_minus * (1.0 - off)) * eye \
            + np.einsum("k,kij->ij", 0.5 * (w_plus - w_minus) * amp, kernels)

    return loglike, r_op


def _einsum_mle(samples, dim, max_iters=30000, tol=1e-12):
    """Reference diluted RrhoR iteration (Rehacek et al., PRA 75, 042108
    (2007)) on einsum contractions: its log-likelihood trace and final state."""
    loglike, r_op = _einsum_likelihood(samples, dim)
    eye = np.eye(dim, dtype=complex)
    n_points = len(samples.betas)

    def step(t_op, rho):
        cand = t_op @ rho @ t_op.conj().T
        cand = cand / np.trace(cand).real
        return 0.5 * (cand + cand.conj().T)

    rho, ll = eye / dim, [loglike(eye / dim)]
    for _ in range(max_iters):
        r = r_op(rho)
        cand, mu = step(r, rho), 0.5
        l_cand = loglike(cand)
        while l_cand < ll[-1] and mu > 1e-8:
            cand, mu = step((eye + mu * r / n_points) / (1.0 + mu), rho), mu / 2.0
            l_cand = loglike(cand)
        if l_cand < ll[-1]:
            break
        rho = cand
        ll.append(l_cand)
        if ll[-1] - ll[-2] < tol * max(1.0, abs(ll[-1])):
            break
    return np.array(ll), rho


def _css_samples(shots=100, seed=3):
    model = ReadoutModel(contrast=0.9, offset=0.02, shots=shots, seed=seed)
    state = css_state(1.2, -1.2, 0.0, HilbertSpace(30))
    return sample_wigner(state, raster_grid(2.0, 7).points, model,
                         calibrate_parity(model))


@pytest.fixture(scope="module")
def drive_samples():
    """The tomo workload's sample set: drive 0.3, 11 x 11 points over +-2.2."""
    model = ReadoutModel(contrast=0.9, offset=0.02, shots=500, seed=0)
    rho = prepare_cat(drive_alpha(0.3), ExperimentConfig())
    return sample_wigner(rho, raster_grid(2.2, 11).points, model,
                         calibrate_parity(model))


def test_mle_reaches_einsum_reference_likelihood(drive_samples):
    # dual route: the gradient route stops on the stationarity gap, at or
    # above the log-likelihood where the diluted RrhoR iteration stops
    for samples, n_max in ((_css_samples(), 6), (drive_samples, 12)):
        result = mle_reconstruct(samples, HilbertSpace(n_max))
        reference, _ = _einsum_mle(samples, n_max + 1)
        assert result.converged and result.stationarity_gap <= 1e-7
        assert result.log_likelihoods[-1] >= reference[-1]
        assert np.all(np.diff(result.log_likelihoods) >= 0.0)


@pytest.mark.parametrize("max_iters", [1, 3, 30000])
def test_mle_gap_bounds_likelihood_deficit(max_iters):
    # l is concave, so l(sigma) - l(rho) <= shots Tr(R rho) gap(rho) for every
    # density matrix sigma: the gap certifies the returned state.  Early
    # stops have large gaps, against which the bound is tight within 2x
    samples = _css_samples()
    result = mle_reconstruct(samples, HilbertSpace(6), max_iters=max_iters)
    loglike, r_op = _einsum_likelihood(samples, 7)
    rho = result.state.data
    ll_rho = loglike(rho)
    bound = samples.shots_per_point * np.vdot(rho, r_op(rho)).real \
        * result.stationarity_gap
    assert ll_rho == pytest.approx(result.log_likelihoods[-1], rel=1e-12)
    rng = np.random.default_rng(4)
    sigmas = [np.eye(7) / 7.0, _einsum_mle(samples, 7)[1],
              mle_reconstruct(samples, HilbertSpace(6), tol=0.0).state.data]
    for rank in rng.integers(1, 8, size=20):
        g = rng.normal(size=(7, rank)) + 1j * rng.normal(size=(7, rank))
        sigmas.append(g @ g.conj().T / np.vdot(g, g).real)
    for sigma in sigmas:
        assert loglike(sigma) - ll_rho <= bound + 1e-9 * abs(ll_rho)


def test_mle_stops_unconverged_at_the_roundoff_floor():
    # tol = 0 is out of reach: the loop ends when a step from the iterate
    # no longer raises l, well before the cap, and says it has not converged
    result = mle_reconstruct(_css_samples(), HilbertSpace(6), tol=0.0)
    assert not result.converged
    assert result.iterations < 30000
    assert 0.0 <= result.stationarity_gap < 1e-8


def test_project_density_is_the_nearest_density_matrix():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = m + m.conj().T
    rho = _project_density(h)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-15
    assert np.allclose(_project_density(rho), rho, atol=1e-14)
    for _ in range(20):
        g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        sigma = g @ g.conj().T / np.vdot(g, g).real
        assert np.linalg.norm(h - rho) <= np.linalg.norm(h - sigma)


def test_mle_stationarity_gap():
    # lambda_max(R) >= Tr(R rho) for every state, with equality only at the
    # ML estimate, so the gap is >= 0 and shrinks as the iteration converges
    samples = _css_samples()
    early = mle_reconstruct(samples, HilbertSpace(6), max_iters=20)
    done = mle_reconstruct(samples, HilbertSpace(6))
    assert done.converged and not early.converged
    assert early.stationarity_gap > done.stationarity_gap >= -1e-12
