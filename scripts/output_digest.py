#!/usr/bin/env python3
"""SHA-256 digests of the CLI outputs of a source tree at fixed configs and seed.

Runs `simulate` (open at alpha0 2 and 3, closed at 2), `qubit-phase-scan`,
`tomo`, `decay`, `wigner` (pipeline and css), `calibrate` (drive, parity and
fock) and `mass`, each in a fresh interpreter with the tree's `src` on
PYTHONPATH and single-threaded BLAS, and prints one `<run>/<file> <sha256>`
line per output file.  Two trees that compute the same outputs print the
same lines, so

    python3 scripts/output_digest.py OLD_TREE > old.txt
    python3 scripts/output_digest.py NEW_TREE > new.txt
    diff old.txt new.txt

shows whether a change keeps every output byte-identical.  The whole run
takes about fifteen seconds on one core.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 7

# (run name, subcommand, config without schema_version)
RUNS = [
    ("simulate_open_a2", "simulate", {"alpha0": 2.0, "closed": False}),
    ("simulate_open_a3", "simulate", {"alpha0": 3.0, "closed": False}),
    ("simulate_closed_a2", "simulate", {"alpha0": 2.0}),
    ("qubit_phase_scan", "qubit-phase-scan", {"alpha0": 2.0}),
    ("tomo", "tomo", {"drive_amplitude": 0.3, "recon_n_max": 12}),
    ("decay", "decay", {"drive_amplitude": 0.35}),
    ("wigner_pipeline", "wigner", {"state": "pipeline"}),
    ("wigner_css", "wigner", {"state": "css", "alpha": 2.0}),
    ("calibrate_drive", "calibrate", {"kind": "drive"}),
    ("calibrate_parity", "calibrate", {"kind": "parity"}),
    ("calibrate_fock", "calibrate", {"kind": "fock"}),
    ("mass", "mass", {}),
]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digests(tree: Path, work: Path):
    """Yield (run/file, sha256) for every output file of every run."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           **{var: "1" for var in THREAD_VARS}}
    for name, command, config in RUNS:
        cfg = work / f"{name}.json"
        cfg.write_text(json.dumps({"schema_version": 1, **config}))
        out = work / name
        subprocess.run([sys.executable, "-m", "catsim.cli", command,
                        "--config", str(cfg), "--seed", str(SEED),
                        "--out", str(out), "--quiet"], env=env, check=True)
        for path in sorted(out.iterdir()):
            yield f"{name}/{path.name}", hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", nargs="?", default=Path(__file__).resolve().parents[1],
                    type=Path, help="source tree holding src/catsim "
                                    "(default: this script's tree)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work:
        for label, digest in digests(args.tree.resolve(), Path(work)):
            print(f"{label} {digest}")


if __name__ == "__main__":
    main()
