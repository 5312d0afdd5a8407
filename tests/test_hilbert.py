import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsim import hilbert
from catsim.cli import SCHEMAS
from catsim.errors import (
    DimensionMismatchError,
    StateValidationError,
    TruncationError,
)
from catsim.hilbert import (
    HilbertSpace,
    JointState,
    OperatorSet,
    _fock_table,
    _laguerre_rows,
    _psd_certified,
    coherent_amplitudes,
    coherent_state,
    default_cutoff,
    displaced_parity,
    displacement_operator,
    fidelity,
    parity_kernels,
    partial_trace,
    phonon_factor,
)
from catsim.phase_space import raster_grid
from catsim.pipeline import ExperimentConfig, drive_alpha, free_decay, negativity_grid, \
    prepare_cat
from reference import factored_fidelity, fock_state, psd_sqrt, purity, qubit_reduction, \
    sqrtm_fidelity


def test_coherent_zero_is_vacuum():
    space = HilbertSpace(10)
    state = coherent_state(0.0, space)
    assert state.data[0] == 1.0
    assert np.all(state.data[1:] == 0.0)


def test_coherent_mean_occupation():
    space = HilbertSpace(default_cutoff(1.75))
    state = coherent_state(1.75, space)
    ops = OperatorSet(space)
    n_mean = np.vdot(state.data, ops.number_op @ state.data).real
    assert n_mean == pytest.approx(1.75 ** 2, abs=1e-6)


def test_coherent_norm_deficit_matches_poisson_tail():
    # independent oracle: the pre-renormalization deficit is the Poisson
    # tail probability P(N > n_max) with mean |alpha|^2
    alpha, n_max = 1.75, 40
    _, deficit = coherent_amplitudes(alpha, n_max)
    lam = alpha ** 2
    log_terms = [-lam + n * math.log(lam) - math.lgamma(n + 1)
                 for n in range(n_max + 1)]
    tail = 1.0 - sum(math.exp(t) for t in log_terms)
    assert abs(deficit) < 1e-12
    assert deficit == pytest.approx(tail, abs=1e-13)


@pytest.mark.parametrize("n_max", [1, 12, 40, 144])
def test_coherent_amplitudes_cached_table_is_bit_identical(n_max):
    # the cached (n, log n!) table must leave the arithmetic, and so every
    # amplitude, exactly as the inline formula computes it
    n = np.arange(n_max + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n_max + 1)))))
    for alpha in (0.0, 1.3, -0.4 + 2.1j, 3.7j):
        amps, deficit = coherent_amplitudes(alpha, n_max)
        if alpha == 0:
            expected = np.zeros(n_max + 1, dtype=complex)
            expected[0] = 1.0
            assert np.array_equal(amps, expected) and deficit == 0.0
            continue
        log_mag = -abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - 0.5 * log_fact
        raw = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
        norm_sq = float(np.sum(np.abs(raw) ** 2))
        assert np.array_equal(amps, raw / math.sqrt(norm_sq))
        assert deficit == 1.0 - norm_sq


def test_coherent_amplitudes_rows_are_coherent_states():
    # oracle on the one coherent-state kernel, K amplitudes in one call: at a
    # cutoff whose tail is below 1e-15, |<a|b>|^2 = e^{-|a - b|^2}, and the
    # truncated eigenrelation sqrt(n + 1) c_{n+1} = alpha c_n holds for n < n_max
    alphas = np.array([0.0, 1.2 - 0.4j, -2.5j, 0.3 + 1.9j])
    n_max = 60
    rows, deficit = coherent_amplitudes(alphas, n_max)
    assert rows.shape == (len(alphas), n_max + 1)
    assert np.max(np.abs(deficit)) <= 1e-15
    overlaps = np.abs(rows.conj() @ rows.T) ** 2
    expected = np.exp(-np.abs(alphas[:, None] - alphas[None, :]) ** 2)
    assert np.max(np.abs(overlaps - expected)) <= 1e-14
    lowered = np.sqrt(np.arange(1, n_max + 1)) * rows[:, 1:]
    assert np.max(np.abs(lowered - alphas[:, None] * rows[:, :-1])) <= 1e-14


def test_coherent_amplitudes_table_is_read_only():
    coherent_amplitudes(0.5, 12)
    for table in _fock_table(12):
        with pytest.raises(ValueError):
            table[0] = 1


def test_truncation_guard():
    with pytest.raises(TruncationError):
        coherent_state(3.0, HilbertSpace(20))  # 9 > 20/4


@given(st.floats(min_value=0.0, max_value=8.0))
def test_default_cutoff_satisfies_guard(a):
    assert default_cutoff(a) >= 4.0 * a * a
    assert default_cutoff(a) >= 10


def test_bell_like_state_gives_maximally_mixed_qubit():
    phonon_space = HilbertSpace(4)
    space = HilbertSpace(4, has_qubit=True)
    vec = np.zeros(space.dim, dtype=complex)
    vec[0] = 1.0 / math.sqrt(2.0)        # |g, 0>
    vec[space.phonon_dim + 1] = 1.0 / math.sqrt(2.0)  # |e, 1>
    state = JointState(space, vec, "pure")
    rho_q = qubit_reduction(state)
    assert np.allclose(rho_q.data, np.eye(2) / 2.0, atol=1e-12)
    assert purity(rho_q) == pytest.approx(0.5, abs=1e-12)


def test_partial_trace_of_product_state():
    phonon = coherent_state(1.2, HilbertSpace(20))
    joint = JointState(HilbertSpace(20, has_qubit=True),
                       np.kron([1.0, 0.0], phonon.data), "pure")
    rho_p = partial_trace(joint)
    expected = np.outer(phonon.data, phonon.data.conj())
    assert np.allclose(rho_p.data, expected, atol=1e-12)
    rho_q = qubit_reduction(joint)
    assert rho_q.data[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_fidelity_vacuum_vs_coherent():
    space = HilbertSpace(25)
    f = fidelity(fock_state(0, space), coherent_state(1.0, space))
    assert f == pytest.approx(math.exp(-0.5), abs=1e-9)


def test_fidelity_symmetric_mixed_inputs():
    space = HilbertSpace(8)
    rng = np.random.default_rng(3)

    def random_mixed():
        m = rng.standard_normal((space.dim, space.dim)) \
            + 1j * rng.standard_normal((space.dim, space.dim))
        rho = m @ m.conj().T
        return JointState(space, rho / np.trace(rho).real, "mixed")

    rho, sigma = random_mixed(), random_mixed()
    assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-9)


def test_fidelity_pure_equals_mixed_route():
    # a rank-1 pair is exact to roundoff whichever argument is given mixed
    space = HilbertSpace(15)
    psi = coherent_state(1.1, space)
    phi = coherent_state(-0.4, space)
    exact = abs(np.vdot(psi.data, phi.data))
    psi_mixed = JointState(space, psi.density_matrix(), "mixed")
    phi_mixed = JointState(space, phi.density_matrix(), "mixed")
    for rho, sigma in ((psi, phi), (psi, phi_mixed), (psi_mixed, phi),
                       (psi_mixed, phi_mixed)):
        assert abs(fidelity(rho, sigma) - exact) <= 1e-14
        assert abs(fidelity(sigma, rho) - exact) <= 1e-14


def _random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", [5, 13, 41])
def test_factored_fidelity_matches_generic_route(dim):
    # sigma = V V^dag / Tr(V^dag V): the generic two-square-root reference
    # clips the roundoff eigenvalues of its rank-deficient square roots
    # (~1e-8 of bias and jitter), the factored route is exact, so they
    # agree to that floor for low-rank V and to roundoff for full-rank V;
    # hilbert.fidelity, which factors sigma by eigh, meets the reference's
    # given factor to roundoff
    rng = np.random.default_rng(dim)
    space = HilbertSpace(dim - 1)
    rho = JointState(space, _random_density(rng, dim), "mixed")
    for rank, tol in ((1, 1e-7), (2, 1e-7), (dim, 1e-10)):
        factor = rng.standard_normal((dim, rank)) \
            + 1j * rng.standard_normal((dim, rank))
        sigma = factor @ factor.conj().T
        sigma = JointState(space, sigma / np.trace(sigma).real, "mixed")
        generic = sqrtm_fidelity(rho.data, sigma.data)
        factored = factored_fidelity(rho.data, factor)
        for got in (fidelity(rho, sigma), fidelity(sigma, rho)):
            assert abs(got - generic) <= tol
            assert abs(got - factored) <= 1e-13


@pytest.mark.parametrize("n_max", [1, 6, 30])
def test_phonon_factor_is_the_phonon_reduction(n_max):
    # partial_trace of a pure and of a mixed input and the factor must give
    # one reduction, so a change to it cannot reach one route only
    rng = np.random.default_rng(n_max)
    space = HilbertSpace(n_max, has_qubit=True)
    vec = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    psi = JointState(space, vec / np.linalg.norm(vec), "pure")
    factor = phonon_factor(psi)
    assert factor.shape[0] == space.phonon_dim
    from_factor = factor @ factor.conj().T / np.vdot(factor, factor).real
    from_pure = partial_trace(psi).data
    from_mixed = partial_trace(JointState(space, psi.density_matrix(), "mixed")).data
    assert np.max(np.abs(from_factor - from_pure)) <= 1e-14
    assert np.max(np.abs(from_factor - from_mixed)) <= 1e-14


def test_phonon_factor_rejects_mixed_and_phonon_only_states():
    space = HilbertSpace(3, has_qubit=True)
    rho = np.eye(space.dim) / space.dim
    with pytest.raises(DimensionMismatchError):
        phonon_factor(JointState(space, rho, "mixed"))
    with pytest.raises(DimensionMismatchError):
        phonon_factor(fock_state(0, HilbertSpace(3)))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    mat = m @ m.conj().T
    root = psd_sqrt(mat)
    assert np.linalg.norm(root @ root - mat) < 1e-9 * np.linalg.norm(mat)


@pytest.mark.parametrize("dim", [8, 62, 88])
def test_psd_certificate_matches_eigenvalue_oracle(dim):
    # the Cholesky certificate, and so the constructor, accepts exactly the
    # matrices whose smallest eigvalsh eigenvalue is >= -1e-9
    rng = np.random.default_rng(dim)
    space = HilbertSpace(dim - 1)
    for lam_min in (-1e-6, -2e-9, -5e-10, 0.0, 1e-12):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        evals = np.concatenate(([lam_min], (1.0 - lam_min) * rng.dirichlet(np.ones(dim - 1))))
        rho = (q * evals) @ q.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        oracle = np.linalg.eigvalsh(rho).min()
        assert abs(oracle + 1e-9) >= 1e-10  # every case stays clear of the bound
        assert _psd_certified(rho) == (oracle >= -1e-9)
        if oracle >= -1e-9:
            JointState(space, rho, "mixed")
        else:
            with pytest.raises(StateValidationError, match="has eigenvalue"):
                JointState(space, rho, "mixed")


def test_displacement_is_unitary_and_displaces_vacuum():
    beta = 0.7 - 0.3j
    d = displacement_operator(beta, 30)
    assert np.allclose(d @ d.conj().T, np.eye(30), atol=1e-10)
    space = HilbertSpace(29)
    displaced = d @ fock_state(0, space).data
    target = coherent_state(beta, space).data
    assert abs(abs(np.vdot(displaced, target)) - 1.0) < 1e-8


def test_displacement_composes_with_phase():
    # D(b1) D(b2) = e^{i Im(b1 b2*)} D(b1 + b2)
    b1, b2 = 0.4 + 0.2j, -0.3 + 0.5j
    dim = 40
    lhs = displacement_operator(b1, dim) @ displacement_operator(b2, dim)
    rhs = np.exp(1j * (b1 * np.conj(b2)).imag) * displacement_operator(b1 + b2, dim)
    # compare on the low-Fock block, away from truncation edge effects
    assert np.allclose(lhs[:10, :10], rhs[:10, :10], atol=1e-8)


@pytest.mark.parametrize("dim", [5, 41])
def test_displaced_parity_is_double_displacement(dim):
    # Pi anticommutes with the truncated generator, so D(b) Pi D(b)^dag =
    # D(2b) Pi holds on the truncated space, also at displacements far
    # beyond the cutoff's accuracy
    parity = np.diag((-1.0) ** np.arange(dim))
    for beta in (0.0, 0.7 - 0.3j, -1.2, 2.5 + 0.5j, 4.0j):
        d = displacement_operator(beta, dim)
        lhs = d @ parity @ d.conj().T
        rhs = displacement_operator(2.0 * beta, dim) @ parity
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# beta = 0, the negative real axis (angle +-pi) and off-raster points
PARITY_POINTS = np.array([0.0, -1.0, -2.5 + 0.0j, complex(-0.4, -0.0), 1e-9,
                          0.37 - 1.91j, 2.2 + 1.3j, -1.7 - 0.2j, 3.1j])


@pytest.mark.parametrize("dim", [5, 41, 112])
def test_displaced_parity_matches_dense_reference(dim):
    rng = np.random.default_rng(dim)
    space = HilbertSpace(dim - 1)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # the exact operator: a dense D Pi D^dag padded far beyond the state's
    # levels, restricted to them
    parity = np.diag((-1.0) ** np.arange(dim + 150))
    for state in (JointState(space, rho / np.trace(rho).real, "mixed"),
                  JointState(space, vec / np.linalg.norm(vec), "pure")):
        dense = state.density_matrix()
        ref = []
        for beta in PARITY_POINTS:
            d = displacement_operator(beta, dim + 150)
            ref.append(np.trace(dense @ (d @ parity @ d.conj().T)[:dim, :dim]).real)
        got = displaced_parity([state], PARITY_POINTS)[0]
        assert np.max(np.abs(got - np.array(ref))) <= 1e-12


def _padded_kernels(betas, dim, pad):
    """Dense D Pi D^dag on dim + pad levels, restricted to the first dim."""
    parity = (-1.0) ** np.arange(dim + pad)
    kernels = []
    for beta in betas:
        d = displacement_operator(beta, dim + pad)[:dim]
        kernels.append((d * parity) @ d.conj().T)
    return np.array(kernels)


@pytest.mark.parametrize("dim", [13, 21])
def test_parity_kernels_match_padded_reference(dim):
    betas = raster_grid(2.2, 11).points  # the tomo command's default raster
    kernels = parity_kernels(betas, dim)
    assert np.max(np.abs(kernels - _padded_kernels(betas, dim, 150))) <= 1e-12
    assert np.array_equal(kernels, kernels.conj().transpose(0, 2, 1))
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T / np.trace(m @ m.conj().T).real
    state = JointState(HilbertSpace(dim - 1), rho, "mixed")
    traces = np.einsum("kij,ji->k", kernels, rho).real
    assert np.max(np.abs(traces - displaced_parity([state], betas)[0])) <= 1e-13


def test_displaced_parity_exact_far_beyond_the_state():
    # dim 145 (the cutoff of |alpha| = 6) out to |beta| = 6, where
    # 4|beta|^2 = 144 reaches the top level; 300 padding levels are enough:
    # doubling them moves the reference by < 1e-14
    dim = 145
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T / np.trace(m @ m.conj().T).real
    betas = np.array([r * np.exp(0.7j) for r in (0.0, 1e-9, 3.0, 4.24, 6.0)]
                     + [-3.0, complex(-4.24, -0.0), -6.0])
    ref = np.einsum("kij,ji->k", _padded_kernels(betas, dim, 300), rho).real
    doubled = np.einsum("kij,ji->k", _padded_kernels(betas, dim, 600), rho).real
    assert np.max(np.abs(ref - doubled)) < 1e-14
    got = displaced_parity([JointState(HilbertSpace(dim - 1), rho, "mixed")], betas)[0]
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_laguerre_seed_row_matches_scipy_special():
    # G_0[k] = x^(k/2) e^(-x/2) / sqrt(k!) seeds every row; its log k! comes
    # from _fock_table, scipy's route takes gammaln and xlogy.  x = 0 gives
    # 0^0 = 1 at k = 0 and 0 above it, with no warning
    from scipy.special import gammaln, xlogy

    dim = 145
    x = np.array([0.0, 1e-9, 0.5, 4.0, 19.36, 72.0, 144.0])
    k = np.arange(dim)[:, None]
    ref = np.exp(xlogy(k / 2, x) - x / 2 - 0.5 * gammaln(k + 1))
    seed = next(_laguerre_rows(x, dim))
    assert np.array_equal(seed[:, 0], np.eye(dim)[0])
    assert np.array_equal(seed == 0, ref == 0)
    nonzero = ref > 0
    # each route's log k! is within ~1.5 ulp of log 144! = 1.1e-13 of exact
    tol = 2.0 * np.spacing(gammaln(dim))
    assert np.max(np.abs(seed - ref)[nonzero] / ref[nonzero]) <= tol


def _random_stack(dim, size):
    """size random states on dim levels, mixed and pure in turn."""
    rng = np.random.default_rng(dim)
    space, states = HilbertSpace(dim - 1), []
    for i in range(size):
        if i % 2:
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            states.append(JointState(space, vec / np.linalg.norm(vec), "pure"))
        else:
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = m @ m.conj().T
            states.append(JointState(space, rho / np.trace(rho).real, "mixed"))
    return states


@pytest.mark.parametrize("dim", [13, 21])
def test_displaced_parity_stack_matches_padded_reference(dim):
    # more distinct radii than one block, so the stack spans several
    # recurrence passes; each row is its state's own S = 1 call
    betas = np.concatenate((raster_grid(2.2, 41).points, PARITY_POINTS))
    states = _random_stack(dim, 5)
    got = displaced_parity(states, betas)
    assert got.shape == (5, len(betas))
    kernels = _padded_kernels(betas, dim, 150)
    for state, row in zip(states, got):
        ref = np.einsum("kij,ji->k", kernels, state.density_matrix()).real
        assert np.max(np.abs(row - ref)) <= 1e-12
        assert np.max(np.abs(row - displaced_parity([state], betas)[0])) <= 1e-15


def test_displaced_parity_memory_stays_within_its_blocks():
    # the default decay stack, 11 states at d = 32 on 3721 points: the Laguerre
    # table, the order sums and the (S, N) result take 3.8 units of
    # S x d x _PARITY_BLOCK complex values.  A variant that gathers every
    # order's sums for 1024 points at once peaks at 19 units, and a decay run
    # holds about 10 MiB more resident memory from its second pass on
    config = ExperimentConfig()
    decay = SCHEMAS["decay"]
    waits = np.linspace(0.0, decay["wait_max"].default, decay["n_waits"].default)
    states = free_decay(prepare_cat(drive_alpha(decay["drive_amplitude"].default), config),
                        waits, config)
    points = negativity_grid().points
    tracemalloc.start()
    try:
        displaced_parity(states, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = len(states) * states[0].space.dim * hilbert._PARITY_BLOCK * 16
    assert peak <= 5 * unit


def test_displaced_parity_empty_and_joint_inputs():
    assert displaced_parity([fock_state(1, HilbertSpace(6))], []).shape == (1, 0)
    assert displaced_parity(_random_stack(5, 3), []).shape == (3, 0)
    joint = JointState(HilbertSpace(4, has_qubit=True),
                       np.kron([1.0, 0.0], fock_state(0, HilbertSpace(4)).data),
                       "pure")
    with pytest.raises(DimensionMismatchError):
        displaced_parity([joint], [0.0])
    with pytest.raises(DimensionMismatchError):
        # one dimension, 10, but one member carries a qubit
        displaced_parity([fock_state(0, HilbertSpace(9)), joint], [0.0])
    with pytest.raises(DimensionMismatchError):
        displaced_parity([fock_state(0, HilbertSpace(4)), fock_state(0, HilbertSpace(6))],
                         [0.0])
    with pytest.raises(DimensionMismatchError):
        displaced_parity([], [0.0])
    for bad in (np.nan, np.inf, complex(0.5, np.nan)):
        with pytest.raises(ValueError, match="finite betas"):
            displaced_parity([fock_state(0, HilbertSpace(4))], [0.3, bad])


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_coherent_overlap_formula(r, phi):
    alpha = r * np.exp(1j * phi)
    space = HilbertSpace(40)
    f = fidelity(coherent_state(alpha, space), coherent_state(0.5, space))
    expected = math.exp(-abs(alpha - 0.5) ** 2 / 2.0)
    assert f == pytest.approx(expected, abs=1e-8)


def test_operator_commutator():
    ops = OperatorSet(HilbertSpace(30))
    comm = ops.a @ ops.a_dagger - ops.a_dagger @ ops.a
    # truncation breaks the last diagonal entry only
    assert np.allclose(comm[:-1, :-1], np.eye(comm.shape[0] - 1), atol=1e-12)


def test_state_validation():
    space = HilbertSpace(3)
    with pytest.raises(StateValidationError):
        JointState(space, np.ones(4) * 0.9, "pure")
    with pytest.raises(DimensionMismatchError):
        JointState(space, np.zeros(7), "pure")
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(StateValidationError):
        JointState(space, bad, "mixed")


@pytest.mark.parametrize("kind,data", [
    ("pure", np.full(4, np.nan)),
    ("mixed", np.full((4, 4), np.nan)),
])
def test_state_validation_rejects_nan(kind, data):
    # a nan passes every tolerance comparison, so it is rejected by name
    with pytest.raises(StateValidationError, match="nan or inf"):
        JointState(HilbertSpace(3), data, kind)


def test_psd_certificate_rejects_nan():
    # LAPACK's Cholesky need not raise on a nan; the factor's diagonal shows it
    rho = np.eye(4, dtype=complex) / 4
    assert _psd_certified(rho)
    rho[2, 1] = rho[1, 2] = np.nan
    assert not _psd_certified(rho)
