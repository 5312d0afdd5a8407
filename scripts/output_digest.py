#!/usr/bin/env python3
"""SHA-256 digests of the CLI outputs of a source tree at fixed configs and seed.

Runs `simulate` (open at alpha0 2 and 3, closed at 2), `qubit-phase-scan`,
`tomo` (at drive 0.3 and at the CLI defaults), `decay`, `wigner` (pipeline,
coherent, css and decayed-css), `calibrate` (drive, parity and fock) and
`mass`, each in a fresh interpreter with the tree's `src` on PYTHONPATH and
single-threaded BLAS, and prints one `<run>/<file> <sha256>` line per output
file.  Two trees that compute the same outputs print the same lines, so

    python3 scripts/output_digest.py OLD_TREE > old.txt
    python3 scripts/output_digest.py NEW_TREE > new.txt
    diff old.txt new.txt

shows whether a change keeps every output byte-identical.  Given two trees,

    python3 scripts/output_digest.py OLD_TREE NEW_TREE

runs both and prints one line per output file: `same` when the bytes agree,
else the largest numeric difference and where it is (a JSON key path or a
CSV row and column), so a roundoff-only move reads as such instead of as a
bare hash mismatch.  It exits 1 when any file is not `same` or exists in
only one tree, and 0 otherwise.  One tree takes about fifteen seconds on
one core.
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
    # tomo at the CLI defaults (drive 0.35, recon_n_max 20)
    ("tomo_default", "tomo", {}),
    ("decay", "decay", {"drive_amplitude": 0.35}),
    ("wigner_pipeline", "wigner", {"state": "pipeline"}),
    ("wigner_coherent", "wigner", {"state": "coherent", "alpha": 2.0}),
    ("wigner_css", "wigner", {"state": "css", "alpha": 2.0}),
    ("wigner_decayed_css", "wigner",
     {"state": "decayed-css", "alpha": 2.0, "kappa_t": 0.1}),
    ("calibrate_drive", "calibrate", {"kind": "drive"}),
    ("calibrate_parity", "calibrate", {"kind": "parity"}),
    ("calibrate_fock", "calibrate", {"kind": "fock"}),
    ("mass", "mass", {}),
]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def outputs(tree: Path, work: Path):
    """Yield (run/file, path) for every output file of every run of tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           **{var: "1" for var in THREAD_VARS}}
    work.mkdir(exist_ok=True)
    for name, command, config in RUNS:
        cfg = work / f"{name}.json"
        cfg.write_text(json.dumps({"schema_version": 1, **config}))
        out = work / name
        subprocess.run([sys.executable, "-m", "catsim.cli", command,
                        "--config", str(cfg), "--seed", str(SEED),
                        "--out", str(out), "--quiet"], env=env, check=True)
        for path in sorted(out.iterdir()):
            yield f"{name}/{path.name}", path


def _fields(path: Path) -> dict:
    """{location: value} of a JSON or CSV output, numbers as floats."""
    def flatten(obj, where):
        if isinstance(obj, dict):
            for key, val in obj.items():
                yield from flatten(val, f"{where}.{key}" if where else key)
        elif isinstance(obj, list):
            for i, val in enumerate(obj):
                yield from flatten(val, f"{where}[{i}]")
        else:
            yield where, obj

    if path.suffix == ".json":
        return dict(flatten(json.loads(path.read_text()), ""))
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    fields = {}
    for i, row in enumerate(rows, start=1):
        for col, text in zip(header, row):
            try:
                fields[f"row {i} {col}"] = float(text)
            except ValueError:
                fields[f"row {i} {col}"] = text
    return fields


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(old: Path, new: Path) -> str:
    """'same', or the largest numeric difference between two outputs and where."""
    if old.read_bytes() == new.read_bytes():
        return "same"
    a, b = _fields(old), _fields(new)
    if a.keys() != b.keys():
        return f"differs in layout: {sorted(a.keys() ^ b.keys())[:3]}"
    moved = [key for key in a if a[key] != b[key]]
    if not moved:
        return "same values, different bytes"
    for key in moved:
        if not (_is_number(a[key]) and _is_number(b[key])):
            return f"differs at {key}: {a[key]!r} -> {b[key]!r}"
    worst = max(moved, key=lambda key: abs(b[key] - a[key]))
    return (f"max |diff| {abs(b[worst] - a[worst]):.3g} at {worst}: "
            f"{a[worst]!r} -> {b[worst]!r} ({len(moved)} of {len(a)} values differ)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", nargs="?", default=Path(__file__).resolve().parents[1],
                    type=Path, help="source tree holding src/catsim "
                                    "(default: this script's tree)")
    ap.add_argument("new_tree", nargs="?", type=Path,
                    help="second tree: compare its outputs with tree's")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        if args.new_tree is None:
            for label, path in outputs(args.tree.resolve(), work):
                print(f"{label} {hashlib.sha256(path.read_bytes()).hexdigest()}")
            return 0
        old = dict(outputs(args.tree.resolve(), work / "old"))
        new = dict(outputs(args.new_tree.resolve(), work / "new"))
        moved = False
        for label in sorted(old.keys() | new.keys()):
            if label not in old or label not in new:
                verdict = f"only in {'new' if label in new else 'old'} tree"
            else:
                verdict = compare(old[label], new[label])
            moved |= verdict != "same"
            print(f"{label} {verdict}")
        return int(moved)


if __name__ == "__main__":
    sys.exit(main())
