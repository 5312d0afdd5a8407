"""Desk-scale simulation toolkit for qubit-phonon cat-state experiments.

Subpackages cover truncated Fock-space algebra (hilbert), resonant
Jaynes-Cummings dynamics with and without dissipation (dynamics), Wigner
functions and negativity analysis (phase_space), simulated parity
tomography and maximum-likelihood reconstruction (tomography), cat-state
fitting (catfit), the acoustic-mode mass model (acoustics), and the
experiment-scale pipelines tying them together (pipeline).  Names are
imported from their module, as in `from catsim.pipeline import prepare_cat`;
the command-line front end is catsim.cli.
"""

__version__ = "0.1.0"
