"""Workload definitions: fixed CLI command sequences with their configs.

Each workload is a list of steps; one pass of a workload runs every step
once through ``catsim.cli.main``.  The benchmark seed is passed to every
command as ``--seed`` except ``tomo``, the only one that draws random
numbers.  ``tomo`` samples with its config's default seed 0: the cost of
its cat fits varies up to 1.5x between sampling seeds (Nelder-Mead starts
that do or do not reach their iteration cap), so a seeded ``tomo`` would
spread more across benchmark seeds than any regression bound.  All three
workloads therefore give the same inputs for every benchmark seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Step:
    """One CLI command: a step name, the subcommand and its JSON config."""

    name: str
    command: str
    config: dict = field(default_factory=dict)
    seeded: bool = True  # pass the benchmark seed as --seed

    def full_config(self) -> dict:
        return {"schema_version": 1, **self.config}


WORKLOADS = {
    # mixed-state Wigner rasters dominate (11 states x 61^2 points at dim
    # 41); two Lindblad runs (joint preparation, phonon-only decay)
    "decay": [
        Step("decay", "decay", {"drive_amplitude": 0.35}),
    ],
    # MLE reconstruction and the two cat fits dominate; no Wigner raster.
    # Drive 0.3 (alpha0 = 1.74) and recon_n_max 12 keep one pass near 21 s
    # (35k fit_analytical evaluations; 66k at drive 0.25, 113k at the
    # default 0.35), so a run usually holds two passes; the fits take the
    # same code path as at the defaults (0.35, 20)
    "tomo": [
        Step("tomo", "tomo",
             {"drive_amplitude": 0.3, "recon_n_max": 12, "seed": 0},
             seeded=False),
    ],
    # dense-output Lindblad at two joint dimensions (62 and 88), so a cost
    # that scales with dimension shows; closed JC series and phase scan
    # rebuild operators and validate states per time point
    "trajectory": [
        Step("simulate_open_a2", "simulate", {"alpha0": 2.0, "closed": False}),
        Step("simulate_open_a3", "simulate", {"alpha0": 3.0, "closed": False}),
        Step("simulate_closed_a2", "simulate", {"alpha0": 2.0}),
        Step("qubit_phase_scan", "qubit-phase-scan", {"alpha0": 2.0}),
    ],
}

STEP_NAMES = [step.name for steps in WORKLOADS.values() for step in steps]
