import math
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from catsim import dynamics, hilbert
from catsim.cli import SCHEMAS
from catsim.errors import ConfigError
from catsim.hilbert import HilbertSpace, JointState, coherent_state, default_cutoff, \
    partial_trace
from catsim.phase_space import negativity, wigner
from catsim.pipeline import (
    DRIVE_PRESETS,
    ExperimentConfig,
    drive_alpha,
    free_decay,
    negativity_grid,
    negativity_series,
    prepare_cat,
    simulate_tomography,
)
from catsim.tomography import ReadoutModel
from reference import fock_state, purity


def test_drive_presets():
    for amp, alpha in DRIVE_PRESETS.items():
        assert drive_alpha(amp) == alpha
    with pytest.raises(ConfigError):
        drive_alpha(0.5)


def test_experiment_config_rates():
    config = ExperimentConfig(t1_phonon=84.0, t1_qubit=10.0, t2_qubit=10.0)
    assert config.kappa_phonon == pytest.approx(1.0 / 84.0)
    assert config.gamma_qubit == pytest.approx(0.1)
    # T2 = T1: pure dephasing rate 1/T2 - 1/(2 T1)
    assert config.gamma_phi == pytest.approx(0.05)
    # T2 = 2 T1: no pure dephasing, exactly, since 1/(2 T1) and 0.5/T1 round alike
    for t1 in (0.3, 1.0, 5.0, 7.0, 10.0, 13.7, 84.0, 1e3):
        assert ExperimentConfig(t1_qubit=t1, t2_qubit=2.0 * t1).gamma_phi == 0.0
    with pytest.raises(ConfigError):
        ExperimentConfig(t1_phonon=-1.0)


@pytest.mark.parametrize("field", ["g0", "t_cat", "t1_phonon", "t1_qubit", "t2_qubit"])
def test_experiment_config_refuses_nan(field):
    # a nan passes `x <= 0`, so each check is written to fail on it
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: math.nan})


def test_t2_beyond_twice_t1_is_a_config_error():
    # T2 = 1 / (1/(2 T1) + gamma_phi) cannot exceed 2 T1 without a negative
    # dephasing rate, so such a T2 is rejected instead of clamped
    with pytest.raises(ConfigError, match="t2_qubit"):
        ExperimentConfig(t1_qubit=10.0, t2_qubit=30.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(t1_qubit=5.0, t2_qubit=math.nextafter(10.0, math.inf))


def test_prepare_cat_returns_phonon_state():
    config = ExperimentConfig()
    rho = prepare_cat(0.8, config)
    assert not rho.space.has_qubit
    assert rho.kind == "mixed"
    assert np.trace(rho.data).real == pytest.approx(1.0, abs=1e-8)
    # decoherence during the interaction leaves a mixed phonon state
    assert purity(rho) < 1.0


@pytest.mark.parametrize("amplitude", sorted(DRIVE_PRESETS))
def test_prepare_cat_tail_weight_at_default_cutoff(amplitude):
    # prepare_cat's cutoff is default_cutoff(alpha0): the top three Fock
    # levels hold no weight, and the same chain ten levels higher gives the
    # same state
    alpha0, config = drive_alpha(amplitude), ExperimentConfig()
    rho = prepare_cat(alpha0, config).data
    n_max = default_cutoff(alpha0)
    assert len(rho) == n_max + 1
    assert np.trace(rho[-3:, -3:]).real <= 1e-14
    params = config.system_params(alpha0)
    space, rho0 = dynamics._start_state(params, n_max + 10)
    joint = dynamics._taylor_action(space, rho0, params, config.t_cat)
    joint = JointState(space, joint, "mixed")
    reference = partial_trace(joint).data[:n_max + 1, :n_max + 1]
    assert np.max(np.abs(rho - reference)) <= 1e-8


def test_free_decay_validation():
    config = ExperimentConfig()
    state = coherent_state(1.0, HilbertSpace(12))
    mixed = state  # a pure phonon state is accepted: free_decay takes its density matrix
    with pytest.raises(ConfigError):
        free_decay(mixed, [1.0, 2.0], config)
    with pytest.raises(ConfigError):
        free_decay(mixed, [0.0, 2.0, 1.0], config)


def test_free_decay_rejects_empty_waits():
    with pytest.raises(ConfigError, match="waits must start at 0"):
        free_decay(coherent_state(1.0, HilbertSpace(12)), [], ExperimentConfig())


def test_free_decay_drains_energy():
    config = ExperimentConfig(t1_phonon=5.0)
    state = coherent_state(1.0, HilbertSpace(12))
    states = free_decay(state, [0.0, 5.0, 10.0], config)
    occupations = [float(np.trace(np.diag(np.arange(13)) @ s.data).real)
                   for s in states]
    assert occupations[0] > occupations[1] > occupations[2]
    assert occupations[1] == pytest.approx(np.exp(-1.0), rel=0.01)


def _amplitude_damping(rho, eta):
    # rho_mn(t) = sum_j sqrt(C(m+j,j) C(n+j,j)) eta^((m+n)/2) (1-eta)^j rho_{m+j,n+j}
    dim = len(rho)
    out = np.zeros_like(rho)
    for m in range(dim):
        for n in range(dim):
            for j in range(dim - max(m, n)):
                out[m, n] += math.sqrt(comb(m + j, j) * comb(n + j, j)) \
                    * eta ** ((m + n) / 2.0) * (1.0 - eta) ** j * rho[m + j, n + j]
    return out


def test_free_decay_is_the_amplitude_damping_channel():
    # the stacked channel against the triple loop, with kappa t from 1e-12,
    # where 1 - eta is tiny, through 1 to 50, where eta^((m+n)/2) underflows;
    # the wait 0 is the input itself
    config = ExperimentConfig(t1_phonon=7.0)
    waits = [0.0, 7e-12, 0.4, 3.0, 3.5, 7.0, 11.0, 40.0, 350.0]
    for dim in (21, 32):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        state = JointState(HilbertSpace(dim - 1), rho / np.trace(rho).real, "mixed")
        decayed = free_decay(state, waits, config)
        assert decayed[0].data.tobytes() == state.data.tobytes()
        for t, out in zip(waits, decayed):
            expected = _amplitude_damping(state.data, math.exp(-t / 7.0))
            assert np.max(np.abs(out.data - expected)) <= 1e-15, (dim, t)


def test_negativity_series_on_decaying_fock():
    config = ExperimentConfig(t1_phonon=5.0)
    state = fock_state(1, HilbertSpace(20))
    states = free_decay(state, [0.0, 2.0, 6.0, 12.0], config)
    deltas = negativity_series(states, negativity_grid(2.0, 41))
    assert np.all(deltas >= 0.0)
    assert np.all(np.diff(deltas) <= 0.0)
    assert deltas[1] < deltas[0]  # Fock |1> negativity drains quickly


def test_negativity_series_runs_one_recurrence_per_radius_block(monkeypatch):
    # the default decay command's 11 states share each Laguerre pass; a loop
    # over the states would run the recurrence 11 times per block of radii
    config = ExperimentConfig()
    decay = SCHEMAS["decay"]
    waits = np.linspace(0.0, decay["wait_max"].default, decay["n_waits"].default)
    states = free_decay(prepare_cat(drive_alpha(decay["drive_amplitude"].default),
                                    config), waits, config)
    grid = negativity_grid()
    calls = []
    laguerre_rows = hilbert._laguerre_rows

    def counting(x, dim):
        calls.append(len(x))
        return laguerre_rows(x, dim)

    monkeypatch.setattr(hilbert, "_laguerre_rows", counting)
    deltas = negativity_series(states, grid)
    radii = len(np.unique(np.abs(grid.points)))
    assert len(states) == 11
    assert len(calls) == math.ceil(radii / hilbert._PARITY_BLOCK) < len(states)
    assert sum(calls) == radii
    monkeypatch.undo()
    each = [negativity(wigner(state, grid)) for state in states]
    assert np.max(np.abs(deltas - each)) <= 1e-15


def test_grids():
    grid = negativity_grid(3.0, 61)
    assert len(grid.points) == 61 * 61


def test_simulate_tomography_smoke():
    state = fock_state(0, HilbertSpace(30))
    model = ReadoutModel(contrast=0.95, offset=0.01, shots=400, seed=13)
    grid = negativity_grid(1.5, 5)
    samples, result = simulate_tomography(state, model, grid, recon_n_max=4)
    assert len(samples.parities) == 25
    assert result.state.space.n_max == 4
    assert result.state.data[0, 0].real > 0.8
    # same seed reproduces the identical sample set
    samples2, _ = simulate_tomography(state, model, grid, recon_n_max=4)
    assert np.array_equal(samples.parities, samples2.parities)
    # the seed comes from the model: a model that differs only in its seed
    # draws different samples
    other, _ = simulate_tomography(state, replace(model, seed=14), grid,
                                   recon_n_max=4)
    assert not np.array_equal(samples.parities, other.parities)
