#!/usr/bin/env python3
"""Negativity decay time versus cat size for the calibrated drive settings.

Prepares each cat with the lossy master equation, relaxes it over a wait
ladder, fits the negativity decay, and compares the fitted time constant
with the large-cat estimate T1 / (2 D^2).
"""

import argparse
from pathlib import Path

import numpy as np

from catsim import (
    DRIVE_PRESETS,
    ExperimentConfig,
    fit_css,
    fit_negativity_decay,
    free_decay,
    prepare_cat,
    tau_cat_large_alpha,
)
from catsim.io_utils import write_csv
from catsim.pipeline import negativity_series


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--wait-max", type=float, default=40.0)
    ap.add_argument("--n-waits", type=int, default=11)
    ap.add_argument("--out", default="decay_study_out")
    args = ap.parse_args()

    config = ExperimentConfig()
    waits = np.linspace(0.0, args.wait_max, args.n_waits)
    rows = []
    for amp, alpha0 in sorted(DRIVE_PRESETS.items()):
        cat = prepare_cat(alpha0, config)  # one master-equation run per cat
        d = fit_css(cat).D
        fit = fit_negativity_decay(
            waits, negativity_series(free_decay(cat, waits, config)))
        tau_ref = tau_cat_large_alpha(d, config.t1_phonon)
        rows.append((amp, alpha0, d, fit.tau_cat, tau_ref))
        print(f"A = {amp:.2f}: D = {d:.3f}, tau_cat = {fit.tau_cat:.2f} us "
              f"(large-cat estimate {tau_ref:.2f} us)")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "decay_summary.csv",
              ("drive_amplitude", "alpha0", "D", "tau_cat", "tau_large_cat"),
              rows)
    print(f"wrote {out}/decay_summary.csv")


if __name__ == "__main__":
    main()
