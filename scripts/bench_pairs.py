#!/usr/bin/env python3
"""Alternating parent/change pairs of bench/run.py runs, with their summary.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \
        --pairs N --seconds S

Each pair runs `bench/run.py --trace 0 --seed SEED` once in PARENT_TREE
and once in CHANGE_TREE, each tree with its own harness and sources; odd
pairs run the parent first and even pairs the change, so that a drift of
the host's speed over minutes falls on both trees alike.  The script prints one line
per pair with wall_s, setup_s and peak_rss_mb of both runs, then, per
metric, each tree's median and quartiles over the pairs and the number of
pairs in which the change reads lower (all three are lower-is-better).
bench/run.py times each setup probe with subprocess.run(timeout=60), whose
wait polls the child about every 50 ms, so a setup_s difference within
5 ms of a whole number of those ticks is marked: it is likely the poll and
not the import.  Exits 1 if a run fails or reports `correct: false`, and 0
otherwise.  Uses the standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SEED = 707
TICK_S = 0.05
TICK_TOL_S = 0.005


def parse_metrics(stdout: str) -> dict:
    """{metric: value} of the three end-to-end metrics in the last stdout
    line of one `bench/run.py --trace 0` run; ValueError if the run is not
    correct."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise ValueError(f"run not correct: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    return {name: result["metrics"][name]["value"] for name in METRICS}


def tick_mark(delta: float) -> str:
    """' (k ticks)' if a setup_s difference is within TICK_TOL_S of k != 0
    whole TICK_S poll ticks, else ''."""
    ticks = round(delta / TICK_S)
    if ticks and abs(delta - ticks * TICK_S) <= TICK_TOL_S:
        return f" ({ticks:+d} tick{'s' if abs(ticks) > 1 else ''})"
    return ""


def _cell(name: str, old: float, new: float) -> str:
    mark = tick_mark(new - old) if name == "setup_s" else ""
    return f"{name} {old:.4f} -> {new:.4f}{mark}"


def _pair_line(i: int, old: dict, new: dict) -> str:
    return f"pair {i}: " + "  ".join(_cell(name, old[name], new[name])
                                     for name in METRICS)


def summary(pairs: list) -> list:
    """Report lines for [(parent metrics, change metrics), ...], one per
    metric, with both medians and quartiles and the change's wins."""
    lines = []
    for name in METRICS:
        old, new = ([run[name] for run in side] for side in zip(*pairs))
        wins = sum(c < p for p, c in zip(old, new))
        medians = statistics.median(old), statistics.median(new)
        lines.append(f"median {_cell(name, *medians)} "
                     f"({100.0 * (medians[1] / medians[0] - 1.0):+.1f}%), "
                     f"quartiles {_quartiles(old)} -> {_quartiles(new)}, "
                     f"change lower in {wins} of {len(pairs)} pairs")
    return lines


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return f"[{values[0]:.4f}, {values[0]:.4f}]"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"[{q1:.4f}, {q3:.4f}]"


def run(tree: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload,
         "--seed", str(SEED), "--seconds", str(args.seconds),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ValueError(f"bench/run.py in {tree} exited with "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return parse_metrics(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="parent source tree")
    ap.add_argument("change", type=Path, help="changed source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    pairs = []
    try:
        for i in range(1, args.pairs + 1):
            if i % 2:
                old = run(args.parent.resolve(), args)
                new = run(args.change.resolve(), args)
            else:
                new = run(args.change.resolve(), args)
                old = run(args.parent.resolve(), args)
            pairs.append((old, new))
            print(_pair_line(i, old, new), flush=True)
    except ValueError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {SEED}, "
          f"{args.seconds:g} s per run")
    for line in summary(pairs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
