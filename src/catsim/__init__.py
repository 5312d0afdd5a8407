"""Desk-scale simulation toolkit for qubit-phonon cat-state experiments.

Subpackages cover truncated Fock-space algebra (hilbert), resonant
Jaynes-Cummings dynamics with and without dissipation (dynamics), Wigner
functions and negativity analysis (phase_space), simulated parity
tomography and maximum-likelihood reconstruction (tomography), cat-state
fitting (catfit), the acoustic-mode mass model (acoustics), and the
experiment-scale pipelines tying them together (pipeline).
"""

__version__ = "0.1.0"

from .errors import (
    CatsimError,
    ConfigError,
    DimensionMismatchError,
    FitError,
    IntegrationError,
    StateValidationError,
    TruncationError,
)
from .hilbert import (
    HilbertSpace,
    JointState,
    OperatorSet,
    coherent_state,
    default_cutoff,
    fidelity,
    fock_state,
    partial_trace,
    purity,
    qubit_state,
    tensor,
)
from .dynamics import (
    CharacteristicTimes,
    SystemParams,
    Trajectory,
    characteristic_times,
    excited_population,
    excited_population_envelope,
    jc_evolve_exact,
    jc_trajectory,
    lindblad_evolve,
    lindblad_observables,
    pe_trajectory,
    phi_states,
    revival_contrast,
)
from .phase_space import (
    NegativityDecayFit,
    WignerGrid,
    decayed_css_wigner,
    fit_negativity_decay,
    negativity,
    raster_grid,
    slice_grid,
    tau_cat_large_alpha,
    wigner,
)
from .tomography import (
    DriveCalibration,
    FockPopulations,
    MleResult,
    ParityNormalization,
    ReadoutModel,
    WignerSampleSet,
    calibrate_drive,
    calibrate_parity,
    extract_fock_populations,
    mle_reconstruct,
    sample_wigner,
)
from .catfit import (
    AnalyticalFit,
    CssFit,
    SensitivityInterval,
    analytical_target,
    css_state,
    fit_analytical,
    fit_css,
    sensitivity_interval,
)
from .acoustics import (
    AcousticMode,
    MassModel,
    delocalization,
    half_wavelength_mass,
    lg_profile,
    mass_model,
)
from .pipeline import (
    DecayResult,
    DRIVE_PRESETS,
    ExperimentConfig,
    cat_decay_time,
    drive_alpha,
    free_decay,
    prepare_cat,
    simulate_tomography,
)
