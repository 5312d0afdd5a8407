import math

import pytest
from scipy.constants import hbar
from scipy.integrate import quad

from catsim import acoustics
from catsim.acoustics import (
    AcousticMode,
    delocalization,
    UM,
    half_wavelength_mass,
    lg_profile,
    lg_rms_factor,
    mass_model,
    um_to_m,
)

# device geometry: 27 um waist, 435 um long crystal, 1.7 um acoustic
# wavelength (longitudinal index 512)
MODE = AcousticMode.from_wavelength(27.0, 435.0, 1.7)


def test_longitudinal_index_selection():
    assert MODE.m == round(2.0 * 435.0 / 1.7)
    assert MODE.wavelength_um == pytest.approx(1.7, rel=2e-3)


@pytest.mark.parametrize("field", ["w0_um", "length_um", "c33", "density"])
def test_acoustic_mode_refuses_nan(field):
    # a nan passes `x <= 0`, so each check is written to fail on it
    with pytest.raises(ValueError, match=field):
        AcousticMode(**{"w0_um": 27.0, "length_um": 435.0, "m": 512, field: math.nan})


def test_hbar_is_scipy_codata_value():
    # the literal h / 2 pi must equal scipy's value bit for bit, so that the
    # mass outputs do not move
    assert acoustics.hbar == hbar


def test_unit_roundtrip_exact():
    assert um_to_m(27.0) / UM == 27.0


def test_lg00_on_axis_value():
    val = lg_profile(MODE, 0.0)
    assert abs(val) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


def test_lg_normalization_integral():
    for p, l in ((0, 0), (1, 0), (0, 1), (2, 1)):
        mode = AcousticMode.from_wavelength(27.0, 435.0, 1.7, p=p, l=l)
        # |LG|^2 r dr dphi over the plane, cut at 8 w0
        val, _ = quad(lambda r: abs(lg_profile(mode, r)) ** 2 * r, 0.0,
                      8.0 * mode.w0_um, limit=200)
        norm = 2.0 * math.pi * val
        assert norm == pytest.approx(mode.w0_um ** 2, rel=1e-3)


def test_lg_rms_factor_near_paper_value():
    for p in (0, 1):
        mode = AcousticMode.from_wavelength(27.0, 435.0, 1.7, p=p)
        assert lg_rms_factor(mode) == pytest.approx(0.28, abs=0.015)


def test_geometric_mode_mass():
    model = mass_model(MODE, "max")
    assert model.M0_ug == pytest.approx(4.0, rel=0.03)


def test_effective_mass_conventions():
    m_max = mass_model(MODE, "max")
    m_rms = mass_model(MODE, "rms")
    # on-axis antinode convention reduces the mass to exactly a quarter of
    # the geometric mode mass
    assert m_max.M_eff_kg == pytest.approx(m_max.M0_kg / 4.0, rel=1e-12)
    assert m_max.M_eff_ug == pytest.approx(1.0, rel=0.05)
    assert m_rms.M_eff_ug == pytest.approx(16.2, rel=0.05)


def test_mass_ratio_geometry_independent():
    def ratio(w0, length, wavelength):
        mode = AcousticMode.from_wavelength(w0, length, wavelength)
        return mass_model(mode, "rms").M_eff_kg / mass_model(mode, "max").M_eff_kg

    r1 = ratio(27.0, 435.0, 1.7)
    r2 = ratio(40.0, 600.0, 2.5)
    assert r1 == pytest.approx(r2, rel=1e-9)
    assert r1 == pytest.approx(16.2, rel=0.05)


def test_delocalization_separations():
    _, sep_rms = delocalization(mass_model(MODE, "rms"), 1.61)
    _, sep_max = delocalization(mass_model(MODE, "max"), 1.61)
    assert sep_rms == pytest.approx(2.1e-18, rel=0.05)
    assert sep_max == pytest.approx(8.4e-18, rel=0.05)


def test_delocalization_vacuum_limit():
    model = mass_model(MODE, "rms")
    x_eff, sep = delocalization(model, 0.0)
    assert x_eff == pytest.approx(math.sqrt(2.0) * model.x_zpf_m, rel=1e-12)
    assert sep == pytest.approx(2.0 * x_eff, rel=1e-12)


def test_single_phonon_energy_consistency():
    # one phonon of potential energy in the equivalent oscillator:
    # 1/2 M_eff omega^2 x_eff(0)^2 = 1/2 M_eff omega^2 2 x_zpf^2 = hbar omega / 2
    for convention in ("max", "rms"):
        model = mass_model(MODE, convention)
        x_eff, _ = delocalization(model, 0.0)
        energy = 0.5 * model.M_eff_kg * model.omega_p ** 2 * x_eff ** 2
        assert energy == pytest.approx(0.5 * hbar * model.omega_p, rel=1e-9)


def test_rayleigh_length_exceeds_crystal():
    assert MODE.rayleigh_um / MODE.length_um > 3.0


def test_mode_frequency_band():
    freq_ghz = MODE.omega_p / (2.0 * math.pi * 1e9)
    assert 5.0 < freq_ghz < 6.5


def test_half_wavelength_mass_order_of_magnitude():
    mass_ng = half_wavelength_mass(MODE) * 1e12
    assert 20.0 < mass_ng < 45.0
