import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from catsim import dynamics
from catsim.catfit import css_state, fit_css
from catsim.dynamics import (
    SystemParams,
    characteristic_times,
    excited_population,
    jc_evolve_exact,
    jc_observables,
    jc_trajectory,
    lindblad_evolve,
    lindblad_observables,
)
from catsim.pipeline import DRIVE_PRESETS, ExperimentConfig, free_decay
from catsim.errors import IntegrationError, StateValidationError
from catsim.hilbert import (
    HilbertSpace,
    JointState,
    OperatorSet,
    coherent_amplitudes,
    coherent_state,
    default_cutoff,
    fidelity,
)
from reference import excited_population_closed_form, excited_population_envelope, \
    phi_states, purity, qubit_reduction, revival_contrast

G0 = math.sqrt(2.0) / 0.9


def test_vacuum_rabi_from_excited_qubit():
    params = SystemParams(g0=2.0, alpha0=0.0, c_g=0.0, c_e=1.0)
    times = np.linspace(0.0, 3.0, 200)
    pe = excited_population(params, times)
    assert np.allclose(pe, np.cos(2.0 * times) ** 2, atol=1e-12)


@pytest.mark.parametrize("params", [
    SystemParams(g0=G0, alpha0=2.0 + 0.5j, c_g=0.6j, c_e=(0.6 + 0.8j) * 0.8),
    SystemParams(g0=ExperimentConfig().g0, alpha0=1.3, c_g=0.0, c_e=1.0)],
    ids=["complex_qubit", "calibrate_fock"])
def test_excited_population_matches_closed_form(params):
    # dual route: the JC series against the closed form of its Fock pairs,
    # with the cross term on (complex c_g and c_e) and at calibrate fock's
    # default case
    times = np.linspace(0.0, 6.0 * math.pi / params.g0, 241)
    pe = excited_population(params, times)
    assert pe.shape == times.shape
    assert np.max(np.abs(pe - excited_population_closed_form(params, times))) <= 1e-13


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
    traj = lindblad_evolve(params, t_c)
    assert list(traj.times) == [t_c] and len(traj.states) == 1
    exact = jc_evolve_exact(params, t_c)
    assert fidelity(traj.states[0], exact) > 1.0 - 1e-6
    # the time contract: open and closed trajectories of one grid start from
    # one state at t = 0 and agree in every column
    for alpha in (1.5, 2.0, 3.0):
        params = SystemParams(g0=G0, alpha0=alpha, c_g=0.6, c_e=0.8j)
        open_run = lindblad_observables(params, 10.0, 501)
        closed_run = jc_observables(params, 10.0, 501)
        assert np.array_equal(open_run.times, closed_run.times)
        for name, closed in closed_run.observables.items():
            assert np.max(np.abs(open_run.observables[name] - closed)) <= 1e-12, name


def test_damped_coherent_state_analytic_oracle():
    # pure phonon decay: |alpha> stays coherent with amplitude alpha e^{-kt/2}
    kappa, t, alpha = 0.2, 3.0, 1.5
    space = HilbertSpace(default_cutoff(alpha))
    initial = coherent_state(alpha, space)
    decayed = free_decay(initial, [0.0, t], ExperimentConfig(t1_phonon=1.0 / kappa))[-1]
    target = coherent_state(alpha * math.exp(-kappa * t / 2.0), space)
    assert fidelity(target, decayed) > 1.0 - 1e-6
    evals = np.linalg.eigvalsh(decayed.data)
    assert evals.min() >= -1e-7


def test_revival_contrast_decreases_with_phonon_loss():
    contrasts = []
    for kappa in (0.0, 0.01, 0.05):
        params = SystemParams(g0=G0, alpha0=2.0, kappa_phonon=kappa)
        t_r = characteristic_times(params).t_R
        traj = lindblad_observables(params, 1.25 * t_r, 220)
        contrasts.append(revival_contrast(traj.times, traj.observables["P_e"], t_r))
    assert contrasts[0] > contrasts[1] > contrasts[2]


def test_closed_system_energy_conservation():
    # <sigma_z>/2 + <n> is conserved by the exchange interaction
    params = SystemParams(g0=G0, alpha0=2.0, c_g=0.6, c_e=0.8)
    traj = jc_observables(params, 6.0, 40)
    energy = traj.observables["sz"] / 2.0 + traj.observables["n_mean"]
    assert np.max(np.abs(energy - energy[0])) < 1e-8


def _rk45_states(hamiltonian, channels, rho0, times, rtol, atol, max_step=np.inf):
    """Reference route: rho(t) on the grid from an adaptive RK45 integration of
    d rho/dt = -i[H, rho] + sum g (L rho L^dag - 1/2 {L^dag L, rho}) over the
    channels (g, L)."""
    dim = len(rho0)
    # drift A = -iH - 1/2 sum g L^dag L; rhs = A rho + rho A^dag + sum g L rho L^dag
    drift = -1j * hamiltonian - 0.5 * sum(g * (L.conj().T @ L) for g, L in channels)

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        out = drift @ rho + rho @ drift.conj().T
        for g, L in channels:
            out += g * (L @ rho @ L.conj().T)
        return out.ravel()

    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.astype(complex).ravel(),
                    t_eval=times, method="RK45", rtol=rtol, atol=atol,
                    max_step=max_step)
    assert sol.success, sol.message
    return [y.reshape(dim, dim) for y in sol.y.T]


def _jc_master_equation(space, params):
    """H and the channels (g, L) that lindblad_evolve integrates."""
    ops = OperatorSet(space)
    h = params.g0 * (ops.sigma_plus @ ops.a + ops.sigma_minus @ ops.a_dagger)
    return h, [(params.kappa_phonon, ops.a), (params.gamma_qubit, ops.sigma_minus),
               (params.gamma_phi / 2.0, ops.sigma_z)]


def _phonon_loss(space, kappa):
    """H = 0 and the one channel sqrt(kappa) a of free decay."""
    return np.zeros((space.dim, space.dim)), [(kappa, OperatorSet(space).a)]


def test_integrator_order_against_damped_coherent_state():
    # step-size scaling of the reference route against the analytic
    # damped-coherent solution: with a loose error tolerance the step cap
    # dominates, and halving it should shrink the error by roughly the
    # integrator's 5th order (~32x)
    kappa, t, alpha = 0.3, 2.0, 1.2
    space = HilbertSpace(default_cutoff(alpha))
    initial = coherent_state(alpha, space).density_matrix()
    target = coherent_state(alpha * math.exp(-kappa * t / 2.0),
                            space).density_matrix()

    def err(h):
        final = _rk45_states(*_phonon_loss(space, kappa), initial, [0.0, t],
                             rtol=1e-3, atol=1e-8, max_step=h)[-1]
        return np.max(np.abs(final - target))

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
    rho_q = qubit_reduction(joint)
    minus_y = np.array([1.0, -1j]) / math.sqrt(2.0)
    f = float(np.real(minus_y.conj() @ rho_q.data @ minus_y))
    assert f > 0.98


_PAULI = {
    "sx": np.array([[0, 1], [1, 0]], dtype=complex),
    "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sz": np.array([[-1, 0], [0, 1]], dtype=complex),
}


def _reference_observables(state):
    # one state at a time, through the reference qubit reduction and operators
    number_op = OperatorSet(state.space).number_op
    row = {"n_mean": np.trace(number_op @ state.density_matrix()).real}
    rho_q = qubit_reduction(state)
    row["purity"] = purity(rho_q)
    row["P_e"] = rho_q.data[1, 1].real
    for name, sig in _PAULI.items():
        row[name] = np.trace(rho_q.data @ sig).real
    return row


def _assert_matches_reference(observables, states):
    rows = [_reference_observables(s) for s in states]
    assert set(observables) == set(rows[0])
    for name, series in observables.items():
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
    traj = jc_trajectory(params, 9.0, 37)
    _assert_matches_reference(traj.observables, traj.states)


def test_lindblad_observables_match_per_state_reference():
    # dual route: the two-block observables against the per-state reference
    # of lindblad_evolve's states, all three channels on
    for alpha in (1.5, 3.0):
        params = _lossy(alpha, 0.6, 0.8j)
        traj = lindblad_observables(params, 6.5, 11)
        assert traj.states is None
        assert np.array_equal(traj.times, np.linspace(0.0, 6.5, 11))
        _assert_matches_reference(
            traj.observables,
            [lindblad_evolve(params, t).states[0] for t in traj.times])


def test_jc_observables_are_the_trajectory_columns_without_states():
    params = SystemParams(g0=G0, alpha0=2.0 + 0.5j, c_g=0.6, c_e=0.8j)
    traj = jc_observables(params, 8.0, 17)
    assert traj.states is None
    assert np.array_equal(traj.times, np.linspace(0.0, 8.0, 17))
    reference = jc_trajectory(params, 8.0, 17).observables
    assert set(traj.observables) == set(reference)
    for name, series in traj.observables.items():
        assert series.tobytes() == reference[name].tobytes(), name


def test_closed_form_paulis_equal_the_trace_bit_for_bit():
    # <sigma> = Tr(red sigma) of hermitian, unit-trace 2 x 2 matrices, with
    # exact zeros, -0.0 and tiny values among the entries
    rng = np.random.default_rng(11)
    size = 4000
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.25])

    def entries(values):
        pick = rng.random(size) < 0.3
        return np.where(pick, rng.choice(special, size), values)

    p = np.where(rng.random(size) < 0.1, rng.choice([0.0, 0.5, 1.0], size),
                 rng.random(size))
    red = np.zeros((size, 2, 2), dtype=complex)
    red.real[:, 0, 0] = 1.0 - p
    red.real[:, 1, 1] = p
    red.imag[:, 0, 0] = rng.choice([0.0, -0.0], size)
    red.imag[:, 1, 1] = rng.choice([0.0, -0.0], size)
    red.real[:, 1, 0] = entries(0.5 * rng.normal(size=size))
    red.imag[:, 1, 0] = entries(0.5 * rng.normal(size=size))
    red[:, 0, 1] = red[:, 1, 0].conj()
    assert np.any(np.signbit(red.imag[:, 1, 0]) & (red.imag[:, 1, 0] == 0))
    assert np.any(np.signbit(red.real[:, 1, 0]) & (red.real[:, 1, 0] == 0))
    space = HilbertSpace(1, has_qubit=True)
    obs = dynamics._observables(space, np.zeros((size, space.dim)), red)
    for name, sig in _PAULI.items():
        trace = np.trace(red @ sig, axis1=1, axis2=2).real
        assert obs[name].view(np.int64).tolist() == trace.view(np.int64).tolist(), name


def test_jc_evolve_exact_matches_trajectory_states():
    params = SystemParams(g0=G0, alpha0=2.0 + 0.5j, c_g=0.6, c_e=0.8j)
    traj = jc_trajectory(params, 8.0, 17)
    for t, state in zip(traj.times, traj.states):
        exact = jc_evolve_exact(params, t)
        assert np.max(np.abs(exact.data - state.data)) <= 1e-15


def test_truncated_jc_norm_names_first_failing_time():
    # |e, n_max> leaks into the dropped |g, n_max + 1>: at n_max = 4 the
    # norm deficit passes 1e-6 first at the grid's second point
    params = SystemParams(g0=1.0, alpha0=1.0, c_g=0.0, c_e=1.0)
    with pytest.raises(IntegrationError, match=r"at t = 0\.5;"):
        dynamics._jc_series(params, np.linspace(0.0, 3.0, 7), 4)


def test_nan_amplitudes_fail_the_jc_norm_check(monkeypatch):
    # the norm check is written so that a nan norm fails it, instead of
    # returning columns of nan
    monkeypatch.setattr(dynamics, "coherent_amplitudes",
                        lambda alpha, n_max: (np.full(n_max + 1, np.nan), 0.0))
    with pytest.raises(IntegrationError, match=r"^truncated JC state norm nan at t = 0;"):
        jc_observables(SystemParams(g0=G0, alpha0=1.0), 1.0, 2)


@pytest.mark.parametrize("field", ["g0", "alpha0", "c_g", "c_e", "kappa_phonon",
                                   "gamma_qubit", "gamma_phi"])
def test_system_params_reject_nan(field):
    values = {"g0": G0, "alpha0": 1.0, "c_g": 1.0, "c_e": 0.0, field: math.nan}
    with pytest.raises((ValueError, StateValidationError)):
        SystemParams(**values)


def test_system_params_normalise_or_reject_qubit_amplitudes():
    # a norm 1e-7 off 1 is restored; one 1e-5 off is refused
    params = SystemParams(g0=G0, c_g=math.sqrt(1.0 + 1e-7), c_e=0.0)
    assert abs(params.c_g) == pytest.approx(1.0, abs=1e-15)
    skew = SystemParams(g0=G0, c_g=0.6 * (1.0 + 5e-8), c_e=0.8j * (1.0 + 5e-8))
    assert abs(skew.c_g) ** 2 + abs(skew.c_e) ** 2 == pytest.approx(1.0, abs=1e-15)
    assert skew.c_e / skew.c_g == pytest.approx(0.8j / 0.6, abs=1e-15)
    with pytest.raises(StateValidationError, match="deviates from 1"):
        SystemParams(g0=G0, c_g=math.sqrt(1.0 + 1e-5), c_e=0.0)


def test_lindblad_one_point_grid_returns_initial_state():
    # t = 0 returns the start state exactly, with its trace restored; a
    # one-point grid of the observables route is t = 0 and reads that
    # state's columns
    params = SystemParams(g0=G0, alpha0=1.0, c_g=0.6, c_e=0.8,
                          kappa_phonon=0.1)
    psi = np.kron(np.array([0.6, 0.8], dtype=complex),
                  coherent_amplitudes(1.0, default_cutoff(1.0))[0])
    rho0 = np.outer(psi, psi.conj())
    traj = lindblad_evolve(params, 0.0)
    assert list(traj.times) == [0.0]
    assert np.array_equal(traj.states[0].data, rho0 / np.trace(rho0).real)
    assert np.max(np.abs(traj.states[0].data - rho0)) < 1e-15
    one_point = lindblad_observables(params, 0.5, 1)
    assert list(one_point.times) == [0.0]
    obs = one_point.observables
    assert obs["P_e"][0] == pytest.approx(0.64, abs=1e-14)
    assert obs["n_mean"][0] == pytest.approx(1.0, abs=1e-12)
    _assert_matches_reference(obs, traj.states)
    # a complex c_e and alpha0: np.outer's start is hermitian only to about
    # 1e-17, and t = 0 returns it hermitised, with no Taylor round trip
    params = _lossy(1.2 + 0.4j, 0.6, 0.8j)
    _, rho0 = dynamics._start_state(params, default_cutoff(params.alpha0))
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    assert np.array_equal(lindblad_evolve(params, 0.0).states[0].data,
                          rho0 / np.trace(rho0).real)


@pytest.mark.parametrize("evolve", ["jc_trajectory", "jc_observables",
                                    "lindblad_observables"])
def test_empty_time_grid_is_rejected(evolve):
    params = SystemParams(g0=G0, alpha0=1.0)
    with pytest.raises(ValueError, match=r"^n_times must be >= 1, got 0$"):
        getattr(dynamics, evolve)(params, 1.0, 0)


@pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_lindblad_evolve_rejects_a_negative_or_nonfinite_time(t):
    with pytest.raises(ValueError, match=r"^t must be finite and >= 0, got "):
        lindblad_evolve(_lossy(1.0, 1.0, 0.0), t)


def test_trajectory_routes_reject_a_bad_grid():
    # the grid runs from t = 0 to a finite t_max >= 0; each check is
    # written so that a nan fails it
    params = _lossy(1.0, 1.0, 0.0)
    for route in (jc_trajectory, jc_observables, lindblad_observables):
        for t_max in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"^t_max must be finite and >= 0, got "):
                route(params, t_max, 5)
        with pytest.raises(ValueError, match=r"^n_times must be >= 1, got -3$"):
            route(params, 1.0, -3)


def _lossy(alpha, c_g, c_e):
    return SystemParams(g0=G0, alpha0=alpha, c_g=c_g, c_e=c_e,
                        kappa_phonon=0.05, gamma_qubit=0.1, gamma_phi=0.2)


def test_exact_route_matches_tight_rk45():
    params = _lossy(1.2 + 0.4j, 0.6, 0.8j)
    space, rho0 = dynamics._start_state(params, default_cutoff(params.alpha0))
    times = [0.0, 0.15, 0.9, 1.0, 2.7, 4.0]
    exact = [lindblad_evolve(params, t).states[0].data for t in times]
    reference = _rk45_states(*_jc_master_equation(space, params),
                             rho0, times, rtol=1e-12, atol=1e-14)
    for a, b in zip(exact, reference):
        assert np.max(np.abs(a - b)) <= 1e-10
    assert np.max(np.abs(exact[-1] - rho0)) > 0.1


def test_rounded_linspace_steps_share_one_propagator(monkeypatch):
    params = _lossy(1.0, 0.6, 0.8)
    calls = []
    expm = scipy.linalg.expm

    def counting_expm(m):
        # every block generator is real in the rotated frame
        assert m.dtype == np.float64
        calls.append(m.shape)
        return expm(m)

    # _block_series imports expm when it runs, so it picks up the patch
    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    # rounding gives the grid several distinct steps; one propagator steps
    # each of the blocks k = 0 and 1 along all of them
    assert len(np.unique(np.diff(np.linspace(0.0, 10.0, 501)))) > 1
    for t_max, n_times in ((10.0, 501), (5.0, 5), (5.0, 1)):
        lindblad_observables(params, t_max, n_times)
        assert len(calls) == 2
        calls.clear()
    # lindblad_evolve applies the Liouvillian to rho and forms no propagator
    lindblad_evolve(params, 5.0)
    assert calls == []


def test_open_observables_hold_one_series_of_memory():
    # the two blocks are propagated in place: the run's peak allocation
    # stays within twice the bytes of the (T, block elements) series it
    # fills, where a second series-sized copy would pass that
    params = _lossy(3.0, 1.0, 0.0)
    space, _ = dynamics._start_state(params, default_cutoff(params.alpha0))
    excitations = dynamics._excitations(space)
    order = excitations[:, None] - excitations[None, :]
    series_bytes = 2001 * np.count_nonzero((order == 0) | (order == 1)) \
        * np.dtype(complex).itemsize
    lindblad_observables(params, 10.0, 2001)  # imports and caches outside the count
    tracemalloc.start()
    try:
        lindblad_observables(params, 10.0, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * series_bytes


def _block_expm_state(space, rho0, params, t):
    """Reference for _taylor_action's raw state at t: every coherence-order
    block k >= 0 propagated over [0, t] by its matrix exponential, the k < 0
    blocks their conjugates."""
    blocks, series = dynamics._block_series(space, rho0, params, t, 2,
                                            range(space.n_max + 2))
    rows, cols = (np.concatenate(idx) for idx in zip(*blocks))
    rho = np.empty((space.dim, space.dim), dtype=complex)
    rho[cols, rows] = series[-1].conj()
    rho[rows, cols] = series[-1]  # written last: k = 0 keeps its own elements
    return rho


def _cat_preparation(alpha, n_max):
    config = ExperimentConfig()
    params = config.system_params(alpha)
    return params, dynamics._start_state(params, n_max), [0.0, config.t_cat]


@pytest.mark.parametrize("case", [
    *((alpha, 40) for alpha in DRIVE_PRESETS.values()),
    (3.0, default_cutoff(3.0)), (4.0, default_cutoff(4.0)), "grid"],
    ids=["drive_0.25", "drive_0.30", "drive_0.35", "alpha_3", "alpha_4",
         "nonuniform_grid"])
def test_taylor_action_matches_block_expm(case):
    # dual route: the action of the Liouvillian on rho, from 0 to each time
    # on its own, against every coherence-order block's matrix exponential
    if case == "grid":
        params = _lossy(1.2 + 0.4j, 0.6, 0.8j)
        start = dynamics._start_state(params, default_cutoff(params.alpha0))
        times = [0.0, 0.15, 0.9, 1.0, 2.7, 4.0, 6.5]
    else:
        params, start, times = _cat_preparation(*case)
    states = [dynamics._taylor_action(*start, params, t) for t in times]
    reference = [_block_expm_state(*start, params, t) for t in times]
    for rho, ref in zip(states, reference):
        assert np.max(np.abs(rho - ref)) <= 1e-13
    assert np.max(np.abs(states[-1] - states[0])) > 0.1


@pytest.mark.parametrize("case", [*sorted(DRIVE_PRESETS.values()), "grid"],
                         ids=["drive_0.25", "drive_0.30", "drive_0.35",
                              "nonuniform_grid"])
def test_taylor_action_is_exactly_hermitian(case):
    # the unpack of the real packed array gives conj(rho)^T = rho bit for
    # bit, for a real start and the complex c_e and alpha0 of the grid case
    if case == "grid":
        params = _lossy(1.2 + 0.4j, 0.6, 0.8j)
    else:
        params = ExperimentConfig().system_params(case)
    start = dynamics._start_state(params, default_cutoff(params.alpha0))
    for t in (0.0, 0.9, 2.9, 6.5):
        rho = dynamics._taylor_action(*start, params, t)
        assert np.array_equal(rho, rho.conj().T), t


def _liouvillian_apply(params, d):
    """P -> L~ P from _liouvillian's main diagonal and diagonals."""
    coef, diagonals = dynamics._liouvillian(params, d)

    def apply(packed):
        out = coef * packed
        for target, source, w in diagonals:
            out[target] += w * packed[source]
        return out

    return apply


def _taylor_exact_stop(space, rho0, params, t):
    """_taylor_action with max |partial sum| taken at every term, the stop
    test written out without its triangle-bound shortcut."""
    d = space.phonon_dim
    apply = _liouvillian_apply(params, d)
    norm_t = dynamics._liouvillian_norm(params, d) * t
    steps = max(1, math.ceil(norm_t / dynamics._TAYLOR_THETA))
    h = t / steps
    qubit = np.arange(space.dim) // d
    ph = dynamics._QUARTER_TURNS[qubit[:, None] - qubit]
    packed = ph * rho0
    packed = (packed.real + packed.imag).reshape(2, d, 2, d).transpose(0, 2, 1, 3).ravel()
    for _ in range(steps):
        total, term = packed.copy(), packed
        last = np.abs(term).max()
        for j in range(1, dynamics._TAYLOR_TERMS + 1):
            term = apply(term) * (h / j)
            total += term
            size = np.abs(term).max()
            if last + size <= 2.0 ** -53 * np.abs(total).max():
                break
            last = size
        packed = total
    packed = packed.reshape(2, 2, d, d).transpose(0, 2, 1, 3).reshape(space.dim, space.dim)
    return ph.conj() * (0.5 * (packed + packed.T) + 0.5j * (packed - packed.T))


@pytest.mark.parametrize("case", [*sorted(DRIVE_PRESETS.values()), "grid", "kappa"],
                         ids=["drive_0.25", "drive_0.30", "drive_0.35",
                              "nonuniform_grid", "phonon_loss_only"])
def test_taylor_action_stops_where_the_exact_test_stops(case):
    # the shortcut skips max |total| only where the stop test cannot pass, so
    # every step sums the same terms and the state is the same bit for bit;
    # with phonon loss alone the triangle bound is tight enough that half of
    # it would skip a stop
    if case == "grid":
        params = _lossy(1.2 + 0.4j, 0.6, 0.8j)
    elif case == "kappa":
        params = SystemParams(g0=1.5, alpha0=1.0, kappa_phonon=0.3)
    else:
        params = ExperimentConfig().system_params(case)
    start = dynamics._start_state(params, default_cutoff(params.alpha0))
    for t in (0.9, 3.0, 6.5):
        rho = dynamics._taylor_action(*start, params, t)
        assert rho.tobytes() == _taylor_exact_stop(*start, params, t).tobytes(), t


def _rotated_superoperator(params, d):
    """The dense rotated-frame Liouvillian in row-major vec,
    vec(A P B) = kron(A, B^T) vec(P), with drift
    A = g0 (sigma+ a - sigma- a^dag) - 1/2 sum g L^T L and jumps a, sigma-
    and sigma_z (the rotated jump -i sigma- enters as (-i)(+i) = 1)."""
    ops = OperatorSet(HilbertSpace(d - 1, has_qubit=True))
    a, a_dagger, sigma_plus, sigma_minus, sigma_z = (
        op.real for op in (ops.a, ops.a_dagger, ops.sigma_plus,
                           ops.sigma_minus, ops.sigma_z))
    eye = np.eye(2 * d)
    drift = params.g0 * (sigma_plus @ a - sigma_minus @ a_dagger)
    jumps = 0.0
    for g, L in ((params.kappa_phonon, a), (params.gamma_qubit, sigma_minus),
                 (params.gamma_phi / 2.0, sigma_z)):
        drift = drift - 0.5 * g * (L.T @ L)
        jumps = jumps + g * np.kron(L, L)
    return np.kron(drift, eye) + np.kron(eye, drift) + jumps


def test_liouvillian_diagonals_match_dense_superoperator():
    # oracle for every offset and sign of _liouvillian's diagonals
    d = 5
    params = SystemParams(g0=1.3, kappa_phonon=0.2, gamma_qubit=0.3,
                          gamma_phi=0.4)
    packed = np.random.default_rng(5).standard_normal(4 * d * d)
    reference = _rotated_superoperator(params, d) @ packed
    # _liouvillian takes the same elements in the qubit-block order (q, p, n, m)
    blocks = np.arange(4 * d * d).reshape(2, d, 2, d).transpose(0, 2, 1, 3).ravel()
    applied = _liouvillian_apply(params, d)(packed[blocks])
    assert np.max(np.abs(applied - reference[blocks])) <= 1e-14 * np.max(np.abs(reference))


@pytest.mark.parametrize("rates", [
    {"kappa_phonon": 0.2, "gamma_qubit": 0.3, "gamma_phi": 0.4},
    {"kappa_phonon": 0.0, "gamma_qubit": 0.3, "gamma_phi": 0.4},
    {"kappa_phonon": 0.2, "gamma_qubit": 0.3, "gamma_phi": 0.0},
    {"kappa_phonon": 0.2, "gamma_qubit": 0.0, "gamma_phi": 0.4}],
    ids=["all_rates", "no_kappa", "no_gamma_phi", "no_gamma"])
def test_block_generators_match_dense_superoperator(monkeypatch, rates):
    # oracle for _block_series' index arithmetic: each S_k, captured as the
    # matrix it exponentiates over a unit step, is the dense rotated-frame
    # superoperator restricted to block k's elements; a zero rate drops
    # its diagonal from _liouvillian
    d = 6
    params = SystemParams(g0=1.3, **rates)
    space = HilbertSpace(d - 1, has_qubit=True)
    generators = []
    expm = scipy.linalg.expm

    def capturing_expm(m):
        generators.append(m.copy())
        return expm(m)

    monkeypatch.setattr(scipy.linalg, "expm", capturing_expm)
    rho0 = np.eye(space.dim) / space.dim
    blocks, _ = dynamics._block_series(space, rho0, params, 1.0, 2, (0, 1))
    superop = _rotated_superoperator(params, d)
    scale = np.max(np.abs(superop))
    assert len(generators) == 2
    for (rows, cols), gen in zip(blocks, generators):
        vec = rows * space.dim + cols
        assert np.max(np.abs(gen - superop[np.ix_(vec, vec)])) <= 1e-14 * scale


@pytest.mark.parametrize("rates,norm_dt", [
    ({"kappa_phonon": 1e300}, r"3\.800e\+301"),  # 2 kappa n_max, n_max 19
    ({"gamma_qubit": 1e300, "gamma_phi": 5e299}, r"2\.000e\+300"),
    ({"kappa_phonon": 1e308}, "inf")], ids=["kappa", "gamma", "norm_inf"])
@pytest.mark.filterwarnings("error")
def test_stiff_interval_is_an_error_at_once(rates, norm_dt):
    # ||L||_1 dt far beyond _MAX_TAYLOR_STEPS steps, or not finite: no step is
    # taken, no overflow warning is raised, and the error names ||L||_1 dt
    # and the time
    params = SystemParams(g0=G0, alpha0=1.0, **rates)
    start = time.perf_counter()
    with pytest.raises(IntegrationError,
                       match=rf"^\|\|L\|\|_1 dt = {norm_dt} needs more than 1000 "
                             r"Taylor steps at t = 1$"):
        lindblad_evolve(params, 1.0)
    assert time.perf_counter() - start < 1.0


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
    params = _lossy(1.0, 1.0, 0.0)
    monkeypatch.setattr(dynamics, "_taylor_action",
                        lambda space, rho0, params, t: 1.1 * rho0)
    with pytest.raises(IntegrationError,
                       match=r"^trace drift 1\.000e-01 at t = 1$"):
        lindblad_evolve(params, 1.0)


def _with_negative_eigenvalue(pure, eps):
    """(1 + eps)|psi><psi| - eps|phi><phi|, phi orthogonal to psi: unit trace,
    eigenvalues 1 + eps, -eps and 0."""
    psi = pure.data
    phi = np.zeros_like(psi)
    phi[-1] = 1.0
    phi -= np.vdot(psi, phi) * psi
    phi /= np.linalg.norm(phi)
    return (1.0 + eps) * np.outer(psi, psi.conj()) - eps * np.outer(phi, phi.conj())


def test_negative_eigenvalue_names_route_and_bound(monkeypatch):
    params = _lossy(1.0, 0.6, 0.8j)
    initial = jc_evolve_exact(params, 0.0)
    bad = _with_negative_eigenvalue(initial, 1e-6)
    monkeypatch.setattr(dynamics, "_taylor_action", lambda *args: bad)
    with pytest.raises(IntegrationError,
                       match=r"^negative eigenvalue -1\.000e-06 below -1e-9 at "
                             r"t = 1$"):
        lindblad_evolve(params, 1.0)


def test_small_negative_eigenvalue_is_an_error(monkeypatch):
    # -1e-8 fails the certificate's -1e-9 bound: the state is refused, not
    # repaired
    params = _lossy(1.0, 0.6, 0.8j)
    initial = jc_evolve_exact(params, 0.0)
    bad = _with_negative_eigenvalue(initial, 1e-8)
    monkeypatch.setattr(dynamics, "_taylor_action", lambda *args: bad)
    with pytest.raises(IntegrationError,
                       match=r"^negative eigenvalue -1\.000e-08 below -1e-9 at "
                             r"t = 1$"):
        lindblad_evolve(params, 1.0)


def test_certified_state_is_the_hermitised_taylor_action(monkeypatch):
    # a certified state is _taylor_action's output renormalised, bit for
    # bit: that output is already hermitian, so hermitising it is an identity
    params = _lossy(2.0, 1.0, 0.0)
    raw = []
    taylor_action = dynamics._taylor_action

    def recording(*args):
        raw.append(taylor_action(*args))
        return raw[-1]

    monkeypatch.setattr(dynamics, "_taylor_action", recording)
    for t in (0.0, 0.3, 2.9, 10.0):
        state = lindblad_evolve(params, t).states[0]
        rho = 0.5 * (raw[-1] + raw[-1].conj().T)
        rho = rho / np.trace(rho).real
        assert np.array_equal(state.data, rho), t
    assert len(raw) == 4


def test_open_run_diagonalises_no_state(monkeypatch):
    # each state is certified by one Cholesky factorisation; an eigensolver
    # per state would cost several times as much
    params = _lossy(2.0, 1.0, 0.0)
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counting(*args, _solver=solver, **kwargs):
            calls.append(_solver.__name__)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    traj = lindblad_evolve(params, 10.0)
    assert len(traj.states) == 1
    assert calls == []


def _corrupt_block_series(monkeypatch, corrupt):
    """Patch the block propagator so that corrupt(blocks, series) edits the
    propagated series before the observables read it."""
    block_series = dynamics._block_series

    def corrupted(*args):
        blocks, series = block_series(*args)
        corrupt(blocks, series)
        return blocks, series

    monkeypatch.setattr(dynamics, "_block_series", corrupted)


def test_two_block_trace_drift_is_an_error(monkeypatch):
    params = _lossy(1.0, 1.0, 0.0)

    def drift(blocks, series):
        series[1] *= 1.1

    _corrupt_block_series(monkeypatch, drift)
    with pytest.raises(IntegrationError, match=r"^trace drift 1\.000e-01 at t = 1$"):
        lindblad_observables(params, 2.0, 3)


def test_two_block_negative_sector_eigenvalue_is_an_error(monkeypatch):
    # rho[(g, 1), (e, 0)] = 0.5 in both triangles of the k = 0 block: the
    # sector {|g, 1>, |e, 0>} has populations 0.31 and 0.05 at t = 2, so an
    # eigenvalue of -0.34, while the trace and the qubit reduction are as
    # they were
    params = _lossy(1.0, 1.0, 0.0)
    pd = default_cutoff(1.0) + 1

    def negative(blocks, series):
        rows, cols = blocks[0]
        for i, j in ((1, pd), (pd, 1)):
            series[2, np.nonzero((rows == i) & (cols == j))[0]] = 0.5

    _corrupt_block_series(monkeypatch, negative)
    with pytest.raises(IntegrationError,
                       match=r"^negative eigenvalue -3\.\d{3}e-01 below -1e-7 in "
                             r"an excitation sector at t = 2$"):
        lindblad_observables(params, 2.0, 3)


def test_two_block_bloch_vector_beyond_one_is_an_error(monkeypatch):
    # the qubit coherence rho_q[e, g] lives in k = 1 alone: scaling that
    # block leaves the populations and every k = 0 sector as they were
    params = _lossy(1.0, 0.6, 0.8j)

    def stretched(blocks, series):
        series[1, len(blocks[0][0]):] *= 1.5

    _corrupt_block_series(monkeypatch, stretched)
    with pytest.raises(IntegrationError,
                       match=r"^qubit Bloch vector of length 1\.\d+ > 1 .* at t = 1$"):
        lindblad_observables(params, 1.0, 2)


def _assert_constructor_accepts(states):
    """The states, built unchecked, pass JointState's checks and are read-only."""
    assert states
    for state in states:
        JointState(state.space, state.data.copy(), state.kind)
        assert not state.data.flags.writeable


def test_jc_and_css_states_pass_the_constructor():
    params = SystemParams(g0=G0, alpha0=1.5, c_g=0.6, c_e=0.8j)
    _assert_constructor_accepts(jc_trajectory(params, 3.0, 7).states)
    _assert_constructor_accepts([jc_evolve_exact(params, 1.1)])
    _assert_constructor_accepts([css_state(1.2, -1.2j, 0.4, HilbertSpace(12))])


@pytest.mark.parametrize("times", [[0.0, 0.4, 1.5], [0.7]], ids=["grid", "one_point"])
def test_lindblad_states_pass_the_constructor(times):
    params = _lossy(1.0, 0.6, 0.8j)
    _assert_constructor_accepts([lindblad_evolve(params, t).states[0] for t in times])


def _random_mixed(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return JointState(HilbertSpace(dim - 1), rho / np.trace(rho).real, "mixed")


def test_free_decay_matches_rk45_reference():
    # the closed-form channel against an integration of
    # d rho/dt = kappa (a rho a^dag - 1/2 {a^dag a, rho})
    state = _random_mixed(21, 5)
    config = ExperimentConfig(t1_phonon=7.0)
    waits = [0.0, 0.4, 3.0, 40.0]
    reference = _rk45_states(*_phonon_loss(state.space, config.kappa_phonon),
                             state.data, waits, rtol=1e-12, atol=1e-14)
    for t, out, ref in zip(waits, free_decay(state, waits, config), reference):
        assert np.max(np.abs(out.data - ref)) <= 1e-9, t
    assert np.max(np.abs(reference[-1] - state.data)) > 0.1


def test_free_decay_at_wait_zero_returns_the_input():
    state = _random_mixed(21, 8)
    first = free_decay(state, [0.0, 2.0])[0]
    assert first.kind == "mixed"
    assert np.array_equal(first.data, state.data)
    pure = coherent_state(1.3, HilbertSpace(12))
    assert np.array_equal(free_decay(pure, [0.0])[0].data, pure.density_matrix())


def test_evolved_states_are_not_validated_again(monkeypatch):
    params = _lossy(1.0, 0.6, 0.8j)
    target = css_state(1.2, -1.2j, 0.4, HilbertSpace(12))
    validated = []
    check = JointState.__post_init__

    def counting(state):
        validated.append(state.space.dim)
        check(state)

    monkeypatch.setattr(JointState, "__post_init__", counting)
    jc_trajectory(params, 3.0, 7)
    for t in (0.0, 0.4, 1.5):
        lindblad_evolve(params, t)
    lindblad_observables(params, 1.5, 3)
    fit_css(target)
    assert validated == []
