#!/usr/bin/env python3
"""Cat size and fringe decay time for each calibrated drive setting.

For every drive preset this prepares the lossy cat once, fits the
two-component superposition, relaxes the cat over a wait ladder and fits
its negativity decay.  It writes one row per preset to preset_summary.csv:
the drive amplitude, alpha0, the prepared cat's Wigner negativity, the CSS
size D and fidelity, the fitted decay time tau_cat and the large-cat
estimate T1 / (2 D^2).

    PYTHONPATH=src python3 scripts/preset_summary.py --out summary_out

Per-preset Wigner rasters come from `catsim wigner` with state "pipeline".
"""

import argparse
from pathlib import Path

import numpy as np

from catsim.catfit import fit_css
from catsim.io_utils import write_csv
from catsim.phase_space import tau_cat_large_alpha
from catsim.pipeline import DRIVE_PRESETS, ExperimentConfig, cat_decay_time, \
    prepare_cat


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--wait-max", type=float, default=40.0)
    ap.add_argument("--n-waits", type=int, default=11)
    ap.add_argument("--out", default="preset_summary_out")
    args = ap.parse_args()

    config = ExperimentConfig()
    waits = np.linspace(0.0, args.wait_max, args.n_waits)
    rows = []
    for amp, alpha0 in sorted(DRIVE_PRESETS.items()):
        cat = prepare_cat(alpha0, config)  # one master-equation run per cat
        fit = fit_css(cat)
        decay = cat_decay_time(cat, config, waits)
        tau_ref = tau_cat_large_alpha(fit.D, config.t1_phonon)
        rows.append((amp, alpha0, decay.negativities[0], fit.D, fit.fidelity,
                     decay.fit.tau_cat, tau_ref))
        print(f"A = {amp:.2f}: alpha0 = {alpha0:.2f}, D = {fit.D:.3f}, "
              f"delta = {decay.negativities[0]:.3f}, tau_cat = "
              f"{decay.fit.tau_cat:.2f} us (large-cat estimate {tau_ref:.2f} us)")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "preset_summary.csv",
              ("drive_amplitude", "alpha0", "negativity", "D", "css_fidelity",
               "tau_cat", "tau_large_cat"), rows)
    print(f"wrote {out}/preset_summary.csv")


if __name__ == "__main__":
    main()
