"""End-to-end checks of the headline physics numbers.

These tests exercise the full toolkit the way the experiment scripts do:
closed-system collapse/revival, open-system cat preparation and decay,
tomographic reconstruction, state fitting, the acoustic mass model, the
calibration round trips, and CLI determinism.
"""

import json
import math

import numpy as np
import pytest

from catsim.acoustics import AcousticMode, delocalization, mass_model
from catsim.catfit import analytical_target, css_state, fit_analytical, fit_css
from catsim.cli import main as cli_main
from catsim.dynamics import (
    SystemParams,
    characteristic_times,
    excited_population,
    jc_evolve_exact,
    jc_observables,
)
from catsim.hilbert import (
    HilbertSpace,
    default_cutoff,
    fidelity,
)
from catsim.phase_space import (
    decayed_css_wigner,
    fit_negativity_decay,
    negativity,
    raster_grid,
    wigner,
)
from catsim.pipeline import (
    DRIVE_PRESETS,
    ExperimentConfig,
    cat_decay_time,
    prepare_cat,
    simulate_tomography,
)
from catsim.tomography import (
    DriveCalibration,
    ReadoutModel,
    calibrate_drive,
    calibrate_parity,
    extract_fock_populations,
    mle_reconstruct,
    sample_wigner,
)
from reference import qubit_reduction, revival_contrast

G0 = math.sqrt(2.0) / 0.9


@pytest.fixture(scope="module")
def prepared_cats():
    """Lossy master-equation cat states for the three drive settings."""
    config = ExperimentConfig()
    return {
        amp: prepare_cat(alpha0, config)
        for amp, alpha0 in DRIVE_PRESETS.items()
    }


def test_collapse_and_revival_times():
    params = SystemParams(g0=G0, alpha0=1.75, c_g=1.0, c_e=0.0)
    times = np.linspace(0.0, 9.0, 9001)
    pe = excited_population(params, times)
    amp = np.abs(pe - 0.5)

    # oscillation peaks up to the collapse region, including the t=0 extreme
    peaks = [(0.0, float(amp[0]))]
    for i in range(1, 4500):
        if amp[i] >= amp[i - 1] and amp[i] >= amp[i + 1] and amp[i] > 0.05:
            peaks.append((float(times[i]), float(amp[i])))
    # envelope time: where the peak envelope crosses 1/e, interpolating
    # log-amplitude against t^2 (Gaussian envelope is linear there)
    t_sq = np.array([t * t for t, _ in peaks])
    log_a = np.log([2.0 * a for _, a in peaks])
    target = -1.0
    k = int(np.searchsorted(-log_a, -target))
    frac = (target - log_a[k - 1]) / (log_a[k] - log_a[k - 1])
    t_collapse = math.sqrt(t_sq[k - 1] + frac * (t_sq[k] - t_sq[k - 1]))
    assert t_collapse == pytest.approx(0.9, rel=0.05)

    # revival: energy centroid of the oscillation burst between the end of
    # the collapse and the second revival (the burst is broad and lumpy at
    # this cat size, so a single-peak estimate is unstable)
    window = (times > 4.0) & (times < 10.0)
    t_revival = float(np.sum(times[window] * amp[window] ** 2)
                      / np.sum(amp[window] ** 2))
    assert 6.3 < t_revival < 7.4


def test_qubit_purity_extrema():
    params = SystemParams(g0=G0, alpha0=1.75, c_g=1.0, c_e=0.0)
    ct = characteristic_times(params)
    traj = jc_observables(params, 5.0, 301)
    times, gamma = traj.times, traj.observables["purity"]

    early = times < 2.0
    t_min = float(times[early][np.argmin(gamma[early])])
    assert abs(t_min - ct.t_collapse) <= 0.2 * ct.t_collapse

    late = (times >= 2.0) & (times <= 5.0)
    t_max = float(times[late][np.argmax(gamma[late])])
    assert abs(t_max - ct.t_C) <= 0.2 * ct.t_C


def test_cat_time_qubit_universality():
    # 12-point Bloch grid of initial qubit states; at the cat time the
    # reduced qubit always lands on the -Y axis
    minus_y = np.array([1.0, -1j]) / math.sqrt(2.0)
    t_c = characteristic_times(SystemParams(g0=G0, alpha0=4.0)).t_C
    for theta in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi):
        for phi in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
            c_g = math.cos(theta / 2.0)
            c_e = math.sin(theta / 2.0) * np.exp(1j * phi)
            params = SystemParams(g0=G0, alpha0=4.0, c_g=c_g, c_e=c_e)
            rho_q = qubit_reduction(jc_evolve_exact(params, t_c))
            overlap = float(np.real(minus_y.conj() @ rho_q.data @ minus_y))
            assert math.sqrt(overlap) > 0.99


def test_revival_contrast_large_cats():
    contrasts = []
    for alpha in (6.0, 8.0, 10.0):
        params = SystemParams(g0=G0, alpha0=alpha, c_g=1.0, c_e=0.0)
        t_r = characteristic_times(params).t_R
        times = np.linspace(0.75 * t_r, 1.25 * t_r, 4000)
        pe = excited_population(params, times)
        contrasts.append(revival_contrast(times, pe, t_r))
    limit = (1.0 + math.pi ** 2) ** -0.25
    for c in contrasts:
        assert 0.45 < c < 0.60
    gaps = [abs(c - limit) for c in contrasts]
    assert gaps[1] <= gaps[0] + 1e-3
    assert gaps[2] <= gaps[1] + 1e-3


def test_analytic_cat_wigner_oracle():
    # undecayed limit of the analytic decayed-cat expression against the
    # numeric displaced-parity Wigner function, pointwise on the default grid
    grid = raster_grid()  # extent 3.5, 81 x 81
    corner = abs(grid.points[0])
    n_max = int(math.ceil(4.0 * corner ** 2)) + 12
    for alpha in (1.0, 2.0, 3.0):
        space = HilbertSpace(max(n_max, default_cutoff(alpha)))
        state = css_state(1j * alpha, -1j * alpha, 0.0, space)
        numeric = wigner(state, grid)
        # the analytic routine uses the real-axis convention: rotate points
        analytic = decayed_css_wigner(alpha, 0.0, -1j * grid.points)
        assert np.max(np.abs(numeric.values - analytic.values)) < 1e-6


def test_negativity_decay_constant_matches_half_life():
    # fringe negativity of the analytic decayed cat decays at T1/(2 alpha^2)
    alpha, t1 = 2.5, 84.0
    kappa = 1.0 / t1
    grid = raster_grid(3.5, 81)
    taus = np.linspace(0.0, 20.0, 9)
    deltas = [negativity(decayed_css_wigner(alpha, kappa * t, grid))
              for t in taus]
    fit = fit_negativity_decay(taus, deltas)
    assert fit.tau_cat == pytest.approx(t1 / (2.0 * alpha ** 2), rel=0.10)

    # small cats keep a visible dependence on the superposition phase
    small = raster_grid(2.5, 61)
    probe = [negativity(decayed_css_wigner(0.8, 0.3, small, vartheta=vt))
             for vt in (0.0, math.pi / 2.0, math.pi)]
    assert (max(probe) - min(probe)) / max(probe) > 0.05


def test_pipeline_decay_times(prepared_cats):
    # cat preparation + free phonon decay + negativity fitting reproduces
    # the cat-size ordering and the expected time constants
    config = ExperimentConfig()
    waits = np.linspace(0.0, 40.0, 11)
    expected = {0.25: 24.68, 0.30: 12.34, 0.35: 10.52}
    fitted = {amp: cat_decay_time(rho, config, waits).fit.tau_cat
              for amp, rho in prepared_cats.items()}
    assert fitted[0.25] > fitted[0.30] > fitted[0.35]
    for amp, tau_ref in expected.items():
        assert abs(fitted[amp] - tau_ref) <= 0.25 * tau_ref


def test_mle_roundtrip_cat():
    # 81 displacement points x 1e4 shots of a mid-size cat reconstruct the
    # state to high fidelity, with a monotone likelihood ascent
    space = HilbertSpace(40)
    truth = css_state(1.4j, -1.4j, 0.0, space)
    model = ReadoutModel(contrast=1.0, offset=0.0, shots=10000, seed=7)
    grid = raster_grid(2.0, 9)
    samples = sample_wigner(truth, grid.points, model)
    result = mle_reconstruct(samples, HilbertSpace(10))
    target = css_state(1.4j, -1.4j, 0.0, result.state.space)
    assert fidelity(target, result.state) > 0.99
    assert np.all(np.diff(result.log_likelihoods) >= 0.0)


def test_cat_fits(prepared_cats):
    # noiseless self-consistency
    space = HilbertSpace(26)
    t_c = math.pi * 1.62 / G0
    rho = analytical_target(1.62, 0.0, 1.0, 0.0, t_c, G0, space)
    self_fit = fit_analytical(rho, 1.0, 0.0, t_c, G0)
    assert self_fit.alpha_fit == pytest.approx(1.62, rel=0.01)
    assert self_fit.fidelity > 0.999

    # cat sizes of the lossy pipeline states for the three drive settings
    expected_d = {0.25: 1.09, 0.30: 1.43, 0.35: 1.61}
    fits = {amp: fit_css(rho) for amp, rho in prepared_cats.items()}
    for amp, d_ref in expected_d.items():
        assert abs(fits[amp].D - d_ref) <= 0.15
    assert fits[0.25].D < fits[0.30].D < fits[0.35].D

    # the measured-state fidelities include tomography noise: push the
    # largest cat through the simulated readout + reconstruction chain
    config = ExperimentConfig()
    model = ReadoutModel(contrast=0.9, offset=0.02, shots=500, seed=20260824)
    _, mle = simulate_tomography(prepared_cats[0.35], model,
                                 raster_grid(2.2, 11), recon_n_max=20)
    fit_an = fit_analytical(mle.state, 1.0, 0.0, config.t_cat, config.g0)
    fit_cs = fit_css(mle.state)
    assert 0.70 <= fit_an.fidelity <= 0.85
    assert 0.55 <= fit_cs.fidelity <= 0.75
    # the superposition ansatz never beats the full analytical target
    for amp, rho in prepared_cats.items():
        f_an = fit_analytical(rho, 1.0, 0.0, config.t_cat, config.g0).fidelity
        assert fits[amp].fidelity <= f_an + 1e-6


def test_acoustic_masses():
    mode = AcousticMode.from_wavelength(27.0, 435.0, 1.7)
    m_max = mass_model(mode, "max")
    m_rms = mass_model(mode, "rms")
    assert m_max.M0_ug == pytest.approx(4.0, rel=0.05)
    assert m_rms.M_eff_ug == pytest.approx(16.2, rel=0.05)
    assert m_max.M_eff_ug == pytest.approx(1.0, rel=0.05)
    _, sep_rms = delocalization(m_rms, 1.61)
    _, sep_max = delocalization(m_max, 1.61)
    assert sep_rms == pytest.approx(2.1e-18, rel=0.05)
    assert sep_max == pytest.approx(8.4e-18, rel=0.05)
    # maximal delocalization of the largest cat in zero-point units
    assert sep_rms / m_rms.x_zpf_m == pytest.approx(7.0, rel=0.02)
    assert sep_max / m_max.x_zpf_m == pytest.approx(7.0, rel=0.02)


def test_calibration_roundtrips():
    # drive model
    rng = np.random.default_rng(41)
    truth = DriveCalibration(B=0.2, C=1.1)
    amps = np.linspace(0.05, 0.4, 15)
    betas = truth.beta_abs(amps) * (1.0 + 0.01 * rng.standard_normal(len(amps)))
    drive_fit = calibrate_drive(list(zip(amps, betas)))
    assert drive_fit.B == pytest.approx(0.2, rel=0.05)
    assert drive_fit.C == pytest.approx(1.1, rel=0.05)

    # parity normalization
    norm = calibrate_parity(ReadoutModel(contrast=0.82, offset=0.03,
                                         shots=10000, seed=5))
    assert norm.amplitude == pytest.approx(0.82, rel=0.02)

    # Fock populations from a swap trace
    beta = 1.3
    times = np.linspace(0.0, 6.0 * math.pi / G0, 241)
    params = SystemParams(g0=G0, alpha0=beta, c_g=0.0, c_e=1.0)
    swap = 1.0 - excited_population(params, times)
    noisy = np.clip(swap + 0.01 * rng.standard_normal(len(times)), 0.0, 1.0)
    pops = extract_fock_populations(times, noisy, G0, n_fit=10)
    assert pops.beta_abs == pytest.approx(beta, rel=0.05)


def test_cli_determinism(tmp_path, capsys):
    configs = {
        "simulate": {"schema_version": 1, "alpha0": 1.2, "t_max": 3.0,
                     "n_times": 31},
        "mass": {"schema_version": 1},
        "calibrate": {"schema_version": 1, "kind": "drive"},
        "wigner": {"schema_version": 1, "state": "coherent", "alpha": 1.0,
                   "extent": 2.0, "n_grid": 21},
    }
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}"
            code = cli_main([command, "--config", str(cfg), "--seed", "11",
                             "--out", str(out), "--quiet"])
            capsys.readouterr()
            assert code == 0
            outputs.append(sorted(out.iterdir()))
        names_a = [p.name for p in outputs[0]]
        names_b = [p.name for p in outputs[1]]
        assert names_a == names_b and names_a
        for pa, pb in zip(outputs[0], outputs[1]):
            assert pa.read_bytes() == pb.read_bytes()
