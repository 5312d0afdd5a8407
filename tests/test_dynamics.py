import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsim import dynamics
from catsim.catfit import css_state, fit_css
from catsim.dynamics import (
    SystemParams,
    characteristic_times,
    excited_population,
    excited_population_envelope,
    jc_evolve_exact,
    jc_trajectory,
    lindblad_evolve,
    phi_states,
    revival_contrast,
)
from catsim.errors import IntegrationError
from catsim.hilbert import (
    HilbertSpace,
    JointState,
    OperatorSet,
    coherent_state,
    default_cutoff,
    expectation,
    fidelity,
    partial_trace,
    purity,
    qubit_state,
    tensor,
)

G0 = math.sqrt(2.0) / 0.9


def test_vacuum_rabi_from_excited_qubit():
    params = SystemParams(g0=2.0, alpha0=0.0, c_g=0.0, c_e=1.0)
    times = np.linspace(0.0, 3.0, 200)
    pe = excited_population(params, times, n_max=4)
    assert np.allclose(pe, np.cos(2.0 * times) ** 2, atol=1e-12)


def test_series_matches_exact_state_route():
    # dual route: closed-form P_e series vs full state evolution + trace
    params = SystemParams(g0=G0, alpha0=2.0, c_g=1.0 / math.sqrt(2.0),
                          c_e=1j / math.sqrt(2.0))
    times = np.linspace(0.0, 8.0, 25)
    pe_series = excited_population(params, times)
    for t, pe in zip(times, pe_series):
        joint = jc_evolve_exact(params, t)
        rho_q = partial_trace(joint, "qubit")
        assert abs(rho_q.data[1, 1].real - pe) < 1e-10


def test_x_eigenstates_are_stationary_in_population():
    # the oscillation/collapse/revival structure vanishes for +/-X: the
    # envelope is exactly 1/2 and the exact series stays near it
    for sign in (+1.0, -1.0):
        params = SystemParams(g0=G0, alpha0=3.0,
                              c_g=1.0 / math.sqrt(2.0),
                              c_e=sign / math.sqrt(2.0))
        times = np.linspace(0.0, 5.0, 60)
        env = excited_population_envelope(params, times)
        assert np.all(np.abs(env - 0.5) < 1e-12)
        pe = excited_population(params, times)
        assert np.all(np.abs(pe - 0.5) < 0.1)


def test_envelope_tracks_exact_before_revival():
    params = SystemParams(g0=G0, alpha0=5.0, c_g=0.0, c_e=1.0)
    ct = characteristic_times(params)
    times = np.linspace(0.0, ct.t_R / 3.0, 400)
    exact = excited_population(params, times)
    env = excited_population_envelope(params, times)
    assert np.max(np.abs(env - exact)) < 0.02


def test_envelope_amplitude_at_collapse_time():
    alpha = 50.0  # dense oscillation peaks, so one sits close to t_collapse
    params = SystemParams(g0=G0, alpha0=alpha, c_g=0.0, c_e=1.0)
    t_collapse = math.sqrt(2.0) / G0
    # oscillation amplitude 2|P_e - 1/2| maxima decay as exp(-(g0 t)^2/2),
    # equal to 1/e at t_collapse
    t_peak = round(G0 * alpha * t_collapse / math.pi) * math.pi / (G0 * alpha)
    env = excited_population_envelope(params, np.array([t_peak]))[0]
    assert 2.0 * abs(env - 0.5) == pytest.approx(math.exp(-1.0), abs=0.05)


def test_envelope_warns_for_small_alpha():
    params = SystemParams(g0=G0, alpha0=1.0)
    with pytest.warns(UserWarning):
        excited_population_envelope(params, np.array([0.1]))


def test_revival_time_linear_in_alpha():
    ts = [characteristic_times(SystemParams(g0=G0, alpha0=a)).t_R
          for a in (2.0, 4.0, 8.0)]
    assert ts[1] == pytest.approx(2.0 * ts[0], rel=1e-12)
    assert ts[2] == pytest.approx(2.0 * ts[1], rel=1e-12)
    with pytest.raises(ValueError):
        characteristic_times(SystemParams(g0=G0, alpha0=0.0))


def test_phi_states_initially_coherent_then_rotate():
    params = SystemParams(g0=G0, alpha0=6.0)
    space = HilbertSpace(default_cutoff(6.0))
    plus0, minus0 = phi_states(params, 0.0, n_max=space.n_max)
    alpha_state = coherent_state(6.0, space)
    assert fidelity(plus0, alpha_state) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(minus0, alpha_state) == pytest.approx(1.0, abs=1e-12)

    # short times: each branch is close to a slightly rotated coherent state
    t_small = 0.05 * 6.0 / G0
    plus, minus = phi_states(params, t_small, n_max=space.n_max)
    rot = 6.0 * np.exp(-1j * G0 * t_small / (2.0 * 6.0))
    assert fidelity(plus, coherent_state(rot, space)) > 0.999
    assert fidelity(minus, coherent_state(np.conj(rot), space)) > 0.999


def test_phi_states_orthogonal_at_cat_time():
    params = SystemParams(g0=G0, alpha0=6.0)
    t_c = characteristic_times(params).t_C
    plus, minus = phi_states(params, t_c)
    overlap = abs(np.vdot(plus.data, minus.data))
    assert overlap < 0.01


def test_lindblad_zero_rates_matches_exact():
    params = SystemParams(g0=G0, alpha0=2.0)
    t_c = characteristic_times(params).t_C
    space = HilbertSpace(default_cutoff(2.0), has_qubit=True)
    initial = tensor(qubit_state(1.0, 0.0),
                     coherent_state(2.0, space.phonon_only()))
    traj = lindblad_evolve(initial, params, hamiltonian_on=True,
                           times=[0.0, t_c])
    exact = jc_evolve_exact(params, t_c, n_max=space.n_max)
    assert fidelity(traj.states[-1], exact) > 1.0 - 1e-6


def test_damped_coherent_state_analytic_oracle():
    # pure phonon decay: |alpha> stays coherent with amplitude alpha e^{-kt/2}
    kappa, t, alpha = 0.2, 3.0, 1.5
    space = HilbertSpace(default_cutoff(alpha))
    initial = coherent_state(alpha, space)
    params = SystemParams(g0=1.0, alpha0=0.0, kappa_phonon=kappa)
    traj = lindblad_evolve(initial, params, hamiltonian_on=False,
                           times=[0.0, t])
    target = coherent_state(alpha * math.exp(-kappa * t / 2.0), space)
    assert fidelity(target, traj.states[-1]) > 1.0 - 1e-6
    evals = np.linalg.eigvalsh(traj.states[-1].data)
    assert evals.min() >= -1e-7


def test_revival_contrast_decreases_with_phonon_loss():
    contrasts = []
    for kappa in (0.0, 0.01, 0.05):
        params = SystemParams(g0=G0, alpha0=2.0, kappa_phonon=kappa)
        t_r = characteristic_times(params).t_R
        times = np.linspace(0.0, 1.25 * t_r, 220)
        space = HilbertSpace(default_cutoff(2.0), has_qubit=True)
        initial = tensor(qubit_state(1.0, 0.0),
                         coherent_state(2.0, space.phonon_only()))
        traj = lindblad_evolve(initial, params, hamiltonian_on=True,
                               times=times)
        contrasts.append(revival_contrast(traj, t_r))
    assert contrasts[0] > contrasts[1] > contrasts[2]


def test_closed_system_energy_conservation():
    # <sigma_z>/2 + <n> is conserved by the exchange interaction
    params = SystemParams(g0=G0, alpha0=2.0, c_g=0.6, c_e=0.8)
    traj = jc_trajectory(params, np.linspace(0.0, 6.0, 40))
    energy = traj.observables["sz"] / 2.0 + traj.observables["n_mean"]
    assert np.max(np.abs(energy - energy[0])) < 1e-8


def test_integrator_order_against_damped_coherent_state():
    # step-size scaling against the analytic damped-coherent solution:
    # with a loose error tolerance the step cap dominates, and halving it
    # should shrink the error by roughly the integrator's 5th order (~32x)
    kappa, t, alpha = 0.3, 2.0, 1.2
    space = HilbertSpace(default_cutoff(alpha))
    initial = coherent_state(alpha, space)
    params = SystemParams(g0=1.0, kappa_phonon=kappa)
    target = coherent_state(alpha * math.exp(-kappa * t / 2.0),
                            space).density_matrix()

    def err(h):
        traj = lindblad_evolve(initial, params, hamiltonian_on=False,
                               times=[0.0, t], method="rk45", rtol=1e-3,
                               atol=1e-8, max_step=h)
        return np.max(np.abs(traj.states[-1].data - target))

    e_coarse, e_fine = err(0.4), err(0.2)
    assert e_fine < e_coarse / 8.0
    assert e_fine < 1e-8


@settings(max_examples=12, deadline=None)
@given(st.floats(min_value=0.0, max_value=math.pi),
       st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_cat_time_qubit_state_universality(theta, phi):
    # at t_C the reduced qubit ends up near -Y regardless of where it started
    c_g = math.cos(theta / 2.0)
    c_e = math.sin(theta / 2.0) * np.exp(1j * phi)
    params = SystemParams(g0=G0, alpha0=4.0, c_g=c_g, c_e=c_e)
    t_c = characteristic_times(params).t_C
    joint = jc_evolve_exact(params, t_c)
    rho_q = partial_trace(joint, "qubit")
    minus_y = np.array([1.0, -1j]) / math.sqrt(2.0)
    f = float(np.real(minus_y.conj() @ rho_q.data @ minus_y))
    assert f > 0.98


def test_trajectory_csv_columns(tmp_path):
    params = SystemParams(g0=G0, alpha0=1.0)
    traj = jc_trajectory(params, np.linspace(0.0, 1.0, 5))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,P_e,purity,sx,sy,sz,n_mean"


_PAULI = {
    "sx": np.array([[0, 1], [1, 0]], dtype=complex),
    "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sz": np.array([[-1, 0], [0, 1]], dtype=complex),
}


def _reference_observables(state):
    # one state at a time, through the generic partial trace and operators
    row = {"n_mean": expectation(OperatorSet(state.space).number_op, state).real}
    if not state.space.has_qubit:
        row["purity"] = purity(state)
        return row
    rho_q = partial_trace(state, "qubit")
    row["purity"] = purity(rho_q)
    row["P_e"] = rho_q.data[1, 1].real
    for name, sig in _PAULI.items():
        row[name] = np.trace(rho_q.data @ sig).real
    return row


def _assert_matches_reference(traj):
    rows = [_reference_observables(s) for s in traj.states]
    assert set(traj.observables) == set(rows[0])
    for name, series in traj.observables.items():
        ref = np.array([row[name] for row in rows])
        assert np.max(np.abs(series - ref)) <= 1e-12, name


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=0.0, max_value=math.pi),
       st.floats(min_value=0.0, max_value=2.0 * math.pi),
       st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_jc_trajectory_observables_match_per_state_reference(theta, phi,
                                                             r, arg):
    params = SystemParams(g0=G0, alpha0=r * np.exp(1j * arg),
                          c_g=math.cos(theta / 2.0),
                          c_e=math.sin(theta / 2.0) * np.exp(1j * phi))
    _assert_matches_reference(jc_trajectory(params, np.linspace(0.0, 9.0, 37)))


def test_lindblad_observables_match_per_state_reference():
    params = SystemParams(g0=G0, alpha0=1.5, c_g=0.6, c_e=0.8j,
                          kappa_phonon=0.05, gamma_qubit=0.1, gamma_phi=0.2)
    space = HilbertSpace(default_cutoff(1.5), has_qubit=True)
    initial = tensor(qubit_state(0.6, 0.8j),
                     coherent_state(1.5, space.phonon_only()))
    joint = lindblad_evolve(initial, params, hamiltonian_on=True,
                            times=np.linspace(0.0, 4.0, 9))
    _assert_matches_reference(joint)
    phonon = lindblad_evolve(coherent_state(1.5, space.phonon_only()), params,
                             hamiltonian_on=False,
                             times=np.linspace(0.0, 4.0, 9))
    _assert_matches_reference(phonon)


def test_jc_evolve_exact_matches_trajectory_states():
    params = SystemParams(g0=G0, alpha0=2.0 + 0.5j, c_g=0.6, c_e=0.8j)
    times = np.linspace(0.0, 8.0, 17)
    traj = jc_trajectory(params, times)
    for t, state in zip(times, traj.states):
        exact = jc_evolve_exact(params, t)
        assert np.max(np.abs(exact.data - state.data)) <= 1e-15


def test_truncated_jc_norm_names_first_failing_time():
    # |e, n_max> leaks into the dropped |g, n_max + 1>: at n_max = 4 the
    # norm deficit passes 1e-6 first at the grid's second point
    params = SystemParams(g0=1.0, alpha0=1.0, c_g=0.0, c_e=1.0)
    with pytest.raises(IntegrationError, match=r"at t = 0\.5;"):
        jc_trajectory(params, np.linspace(0.0, 3.0, 7), n_max=4)


def test_lindblad_one_point_grid_returns_initial_state():
    params = SystemParams(g0=G0, alpha0=1.0, c_g=0.6, c_e=0.8,
                          kappa_phonon=0.1)
    space = HilbertSpace(default_cutoff(1.0), has_qubit=True)
    initial = tensor(qubit_state(0.6, 0.8),
                     coherent_state(1.0, space.phonon_only()))
    traj = lindblad_evolve(initial, params, hamiltonian_on=True, times=[0.5])
    assert list(traj.times) == [0.5]
    assert np.max(np.abs(traj.states[0].data - initial.density_matrix())) < 1e-15
    assert traj.observables["P_e"][0] == pytest.approx(0.64, abs=1e-14)
    assert traj.observables["n_mean"][0] == pytest.approx(1.0, abs=1e-12)
    _assert_matches_reference(traj)


@pytest.mark.parametrize("evolve", ["jc_trajectory", "lindblad_evolve"])
def test_empty_time_grid_is_rejected(evolve):
    params = SystemParams(g0=G0, alpha0=1.0)
    if evolve == "jc_trajectory":
        with pytest.raises(ValueError):
            jc_trajectory(params, [])
    else:
        space = HilbertSpace(default_cutoff(1.0), has_qubit=True)
        initial = tensor(qubit_state(1.0, 0.0),
                         coherent_state(1.0, space.phonon_only()))
        with pytest.raises(ValueError):
            lindblad_evolve(initial, params, hamiltonian_on=True, times=[])


@pytest.mark.parametrize("method", ["exact", "rk45"])
def test_lindblad_rejects_unordered_grid(method):
    params, initial = _lossy_joint(1.0, 1.0, 0.0)
    for times in ([1.0, 0.0], [0.0, 0.5, 0.5]):
        with pytest.raises(ValueError, match="strictly increasing"):
            lindblad_evolve(initial, params, hamiltonian_on=True,
                            times=times, method=method)


def _lossy_joint(alpha, c_g, c_e):
    params = SystemParams(g0=G0, alpha0=alpha, c_g=c_g, c_e=c_e,
                          kappa_phonon=0.05, gamma_qubit=0.1, gamma_phi=0.2)
    space = HilbertSpace(default_cutoff(alpha), has_qubit=True)
    initial = tensor(qubit_state(c_g, c_e),
                     coherent_state(alpha, space.phonon_only()))
    return params, initial


def test_exact_route_matches_tight_rk45():
    params, initial = _lossy_joint(1.2 + 0.4j, 0.6, 0.8j)
    times = [0.0, 0.15, 0.9, 1.0, 2.7, 4.0]
    exact = lindblad_evolve(initial, params, hamiltonian_on=True, times=times)
    reference = lindblad_evolve(initial, params, hamiltonian_on=True,
                                times=times, method="rk45", rtol=1e-12,
                                atol=1e-14)
    for a, b in zip(exact.states, reference.states):
        assert np.max(np.abs(a.data - b.data)) <= 1e-10
    assert np.max(np.abs(exact.states[-1].data - initial.density_matrix())) > 0.1


def test_lindblad_settings_belong_to_rk45():
    params, initial = _lossy_joint(1.0, 1.0, 0.0)
    for setting in ({"rtol": 1e-6}, {"atol": 1e-9}, {"max_step": 0.1}):
        with pytest.raises(ValueError, match="method='rk45'"):
            lindblad_evolve(initial, params, hamiltonian_on=True,
                            times=[0.0, 1.0], **setting)
    with pytest.raises(ValueError, match="unknown method"):
        lindblad_evolve(initial, params, hamiltonian_on=True,
                        times=[0.0, 1.0], method="euler")


def test_rounded_linspace_steps_share_one_propagator(monkeypatch):
    params, initial = _lossy_joint(1.0, 0.6, 0.8)
    n_blocks = initial.space.n_max + 2  # k = 0 .. n_max + 1
    calls = []
    expm = dynamics.expm

    def counting_expm(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    grid = np.linspace(0.0, 10.0, 501)
    assert len(np.unique(np.diff(grid))) > 1  # rounding gives several steps
    lindblad_evolve(initial, params, hamiltonian_on=True, times=grid)
    assert len(calls) == n_blocks
    calls.clear()
    lindblad_evolve(initial, params, hamiltonian_on=True,
                    times=[0.0, 0.5, 1.0, 3.0, 5.0])
    assert len(calls) == 2 * n_blocks


def test_liouvillian_keeps_coherence_order():
    # the premise of the exact route: H and all three channels couple only
    # elements rho_ij of equal k = N_i - N_j, N = n + q
    space = HilbertSpace(4, has_qubit=True)
    ops = OperatorSet(space)
    excitations = np.diagonal(ops.number_op + ops.sigma_plus @ ops.sigma_minus).real
    assert np.array_equal(excitations, dynamics._excitations(space))
    eye = np.eye(space.dim)
    h = 1.3 * (ops.sigma_plus @ ops.a + ops.sigma_minus @ ops.a_dagger)
    # row-major vec: vec(A rho B) = kron(A, B^T) vec(rho)
    liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for g, L in ((0.2, ops.a), (0.3, ops.sigma_minus), (0.4, ops.sigma_z)):
        ldl = L.conj().T @ L
        liouvillian += g * (np.kron(L, L.conj())
                            - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T))
    order = (excitations[:, None] - excitations[None, :]).ravel()
    coupled = np.abs(liouvillian) > 0
    assert coupled.any()
    assert not np.any(coupled & (order[:, None] != order[None, :]))



def test_trace_drift_names_the_route(monkeypatch):
    params, initial = _lossy_joint(1.0, 1.0, 0.0)

    def drifting(drift, collapse, excitations, rho0, times):
        for _ in times:
            yield 1.1 * rho0

    monkeypatch.setattr(dynamics, "_exact_states", drifting)
    with pytest.raises(IntegrationError,
                       match=r"^trace drift 1\.000e-01 at t = 0 on the exact route$"):
        lindblad_evolve(initial, params, hamiltonian_on=True, times=[0.0, 1.0])


def _assert_constructor_accepts(states):
    """The states, built unchecked, pass JointState's checks and are read-only."""
    assert states
    for state in states:
        JointState(state.space, state.data.copy(), state.kind)
        assert not state.data.flags.writeable


def test_jc_and_css_states_pass_the_constructor():
    params = SystemParams(g0=G0, alpha0=1.5, c_g=0.6, c_e=0.8j)
    _assert_constructor_accepts(jc_trajectory(params, np.linspace(0.0, 3.0, 7)).states)
    _assert_constructor_accepts([jc_evolve_exact(params, 1.1)])
    _assert_constructor_accepts([css_state(1.2, -1.2j, 0.4, HilbertSpace(12))])


@pytest.mark.parametrize("method", ["exact", "rk45"])
@pytest.mark.parametrize("joint", [True, False], ids=["joint", "phonon"])
@pytest.mark.parametrize("times", [[0.0, 0.4, 1.5], [0.7]], ids=["grid", "one_point"])
def test_lindblad_states_pass_the_constructor(method, joint, times):
    params, initial = _lossy_joint(1.0, 0.6, 0.8j)
    if not joint:
        initial = coherent_state(1.0, initial.space.phonon_only())
    traj = lindblad_evolve(initial, params, hamiltonian_on=joint, times=times,
                           method=method)
    _assert_constructor_accepts(traj.states)


def test_evolved_states_are_not_validated_again(monkeypatch):
    params, initial = _lossy_joint(1.0, 0.6, 0.8j)
    target = css_state(1.2, -1.2j, 0.4, HilbertSpace(12))
    validated = []
    check = JointState.__post_init__

    def counting(state):
        validated.append(state.space.dim)
        check(state)

    monkeypatch.setattr(JointState, "__post_init__", counting)
    jc_trajectory(params, np.linspace(0.0, 3.0, 7))
    lindblad_evolve(initial, params, hamiltonian_on=True, times=[0.0, 0.4, 1.5])
    fit_css(target)
    # only lindblad_evolve's 2 x 2 qubit reductions, one per time
    assert validated == [2, 2, 2]
