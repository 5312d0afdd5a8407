"""Acoustic-mode model: Laguerre-Gaussian profile, strain per phonon,
effective-mass conventions, and lattice delocalization.

Geometry is specified in micrometers; derived quantities are SI unless a
name says otherwise.  The default material constants are documented as
inferred for sapphire (the source experiment states neither the density
nor c33 numerically): density 3980 kg/m^3 and c33 = 3.92e11 Pa, which
together reproduce the quoted mode mass and delocalization scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CatsimError

SAPPHIRE_DENSITY = 3980.0   # kg/m^3, inferred default
SAPPHIRE_C33 = 3.92e11      # Pa, inferred default

UM = 1e-6

DISK_RADIUS_W0 = 2.0  # disk radius / w0 of the RMS and section-mass estimates

hbar = 6.62607015e-34 / (2.0 * math.pi)  # J s, the exact SI value of h / 2 pi


def um_to_m(x_um: float) -> float:
    return x_um * UM


@dataclass(frozen=True)
class AcousticMode:
    """Standing-wave acoustic mode with a Laguerre-Gaussian transverse profile."""

    w0_um: float
    length_um: float
    m: int               # longitudinal index; wavelength = 2 L / m
    p: int = 0
    l: int = 0
    c33: float = SAPPHIRE_C33
    density: float = SAPPHIRE_DENSITY

    def __post_init__(self):
        # each check is written so that a nan fails it
        for name in ("w0_um", "length_um", "c33", "density"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not (self.m >= 1 and self.p >= 0):
            raise ValueError("need m >= 1 and p >= 0")

    @classmethod
    def from_wavelength(cls, w0_um: float, length_um: float, wavelength_um: float,
                        **kwargs) -> "AcousticMode":
        """Pick the integer longitudinal index closest to a target wavelength."""
        m = max(1, round(2.0 * length_um / wavelength_um))
        return cls(w0_um=w0_um, length_um=length_um, m=m, **kwargs)

    @property
    def wavelength_um(self) -> float:
        return 2.0 * self.length_um / self.m

    @property
    def rayleigh_um(self) -> float:
        return math.pi * self.w0_um ** 2 / self.wavelength_um

    @property
    def sound_speed(self) -> float:
        """Longitudinal sound speed sqrt(c33/density), m/s."""
        return math.sqrt(self.c33 / self.density)

    @property
    def omega_p(self) -> float:
        """Mode angular frequency 2 pi c / lambda, rad/s."""
        return 2.0 * math.pi * self.sound_speed / um_to_m(self.wavelength_um)


def lg_profile(mode: AcousticMode, r_um, phi=0.0):
    """Transverse Laguerre-Gaussian amplitude LG_pl(r, phi).

    Normalized so that the integral of |LG|^2 r dr dphi equals w0^2.
    """
    from scipy.special import eval_genlaguerre

    r = np.asarray(r_um, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be >= 0")
    w0 = mode.w0_um
    la = abs(mode.l)
    pref = math.sqrt(2.0 * math.factorial(mode.p)
                     / (math.pi * math.factorial(mode.p + la)))
    x = 2.0 * r ** 2 / w0 ** 2
    radial = pref * (r * math.sqrt(2.0) / w0) ** la * np.exp(-(r / w0) ** 2) \
        * eval_genlaguerre(mode.p, la, x)
    return radial * np.exp(-1j * mode.l * np.asarray(phi, dtype=float))


def lg_rms_factor(mode: AcousticMode) -> float:
    """RMS of |LG| over a disk of radius DISK_RADIUS_W0 * w0 (l=0 conventions)."""
    from scipy.integrate import quad

    r_disk = DISK_RADIUS_W0 * mode.w0_um
    area = math.pi * r_disk ** 2
    val, _ = quad(lambda r: abs(lg_profile(mode, r)) ** 2 * r, 0.0, r_disk,
                  limit=200)
    return math.sqrt(2.0 * math.pi * val / area)


@dataclass(frozen=True)
class MassModel:
    """Strain-per-phonon and effective 1D oscillator for one convention."""

    convention: str      # "max" or "rms"
    S0: float            # strain per phonon, dimensionless
    M0_kg: float
    M_eff_kg: float
    x_zpf_m: float
    omega_p: float       # rad/s

    @property
    def M0_ug(self) -> float:
        return self.M0_kg * 1e9

    @property
    def M_eff_ug(self) -> float:
        return self.M_eff_kg * 1e9


def mass_model(mode: AcousticMode, convention: str) -> MassModel:
    """Effective mass and zero-point motion under the chosen displacement convention.

    'max' uses the on-axis displacement antinode; 'rms' uses the RMS
    displacement over a disk of radius 2 w0 together with the longitudinal
    cosine RMS factor 1/sqrt(2).
    """
    if convention not in ("max", "rms"):
        raise ValueError("convention must be 'max' or 'rms'")
    w0 = um_to_m(mode.w0_um)
    length = um_to_m(mode.length_um)
    omega = mode.omega_p
    if length * w0 ** 2 == 0.0:  # a divisor: Python raises where IEEE gives inf
        raise CatsimError(f"mode volume L w0^2 of a {mode.length_um:g} um long, "
                          f"{mode.w0_um:g} um waist mode underflows to 0")
    s0 = math.sqrt(4.0 * hbar * omega / (length * w0 ** 2 * mode.c33))
    m0 = mode.density * math.pi * w0 ** 2 * length
    if convention == "max":
        factor = math.sqrt(2.0 / math.pi)
        u = (length / (mode.m * math.pi)) * factor * s0
    else:
        factor = lg_rms_factor(mode)
        u = (length / (mode.m * math.pi)) * (factor / math.sqrt(2.0)) * s0
    # x_eff = u at one-phonon energy: U = hbar omega = M_eff omega^2 u^2 / 2
    m_eff = 2.0 * hbar / (omega * u ** 2)
    if 2.0 * m_eff * omega == 0.0:
        raise CatsimError(f"M_eff omega of a {mode.length_um:g} um long, "
                          f"{mode.w0_um:g} um waist mode underflows to 0")
    x_zpf = math.sqrt(hbar / (2.0 * m_eff * omega))
    return MassModel(convention=convention, S0=s0, M0_kg=m0, M_eff_kg=m_eff,
                     x_zpf_m=x_zpf, omega_p=omega)


def delocalization(model: MassModel, alpha: float):
    """Effective amplitude and spatial separation 2 x_eff for coherent size alpha.

    x_eff(alpha) = sqrt(2 (1 + 2 alpha^2)) x_zpf.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    x_eff = math.sqrt(2.0 * (1.0 + 2.0 * alpha ** 2)) * model.x_zpf_m
    return x_eff, 2.0 * x_eff


def half_wavelength_mass(mode: AcousticMode) -> float:
    """Order-of-magnitude mass (kg) of one half-wavelength section.

    Cross-section convention: a disk of radius DISK_RADIUS_W0 * w0 (the same
    disk as the RMS displacement estimate); the result is indicative only.
    """
    radius = DISK_RADIUS_W0 * um_to_m(mode.w0_um)
    return mode.density * math.pi * radius ** 2 * um_to_m(mode.wavelength_um) / 2.0
