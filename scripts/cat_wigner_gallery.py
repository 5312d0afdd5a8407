#!/usr/bin/env python3
"""Wigner rasters of the prepared cats for each calibrated drive setting.

For every drive preset this prepares the lossy cat, rasters its Wigner
function, fits the two-component superposition, and writes one CSV per
setting plus a summary JSON.
"""

import argparse
from pathlib import Path

from catsim import (
    DRIVE_PRESETS,
    ExperimentConfig,
    fit_css,
    negativity,
    prepare_cat,
    raster_grid,
    wigner,
)
from catsim.io_utils import write_json


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--extent", type=float, default=3.0)
    ap.add_argument("--n-grid", type=int, default=61)
    ap.add_argument("--out", default="wigner_gallery_out")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = ExperimentConfig()
    grid = raster_grid(args.extent, args.n_grid)
    summary = {}
    for amp, alpha0 in sorted(DRIVE_PRESETS.items()):
        rho = prepare_cat(alpha0, config)
        wg = wigner(rho, grid)
        tag = f"A{amp:.2f}".replace(".", "p")
        wg.to_csv(out / f"wigner_{tag}.csv")
        fit = fit_css(rho)
        summary[f"{amp:.2f}"] = {
            "alpha0": alpha0,
            "negativity": negativity(wg),
            "D": fit.D,
            "css_fidelity": fit.fidelity,
        }
        print(f"A = {amp:.2f}: alpha0 = {alpha0:.2f}, D = {fit.D:.3f}, "
              f"delta = {summary[f'{amp:.2f}']['negativity']:.3f}")
    write_json(out / "summary.json", summary)
    print(f"wrote {out}/summary.json")


if __name__ == "__main__":
    main()
