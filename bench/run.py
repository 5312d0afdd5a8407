"""catsim benchmark: CLI workloads timed end to end and layer by layer.

    python3 bench/run.py --workload decay|tomo|trajectory --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The workload runs in a fresh interpreter
(bench/worker.py) whose BLAS thread variables are pinned to 1 before
numpy loads.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics: wall_s (median pass), setup_s (median interpreter +
``import catsim.cli`` + first CLI call, in fresh processes) and
peak_rss_mb.  With ``--trace 1`` it carries the per-layer metrics of a
traced run.  Lines before it give the environment, one row per CLI
command and every failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3
SETUP_SNIPPET = (
    "import contextlib, io\n"
    "import catsim.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    raise SystemExit(catsim.cli.main(['--schema']))\n"
)
# worker budget: the whole run must end within 180 s
WORKER_TIMEOUT_S = 165.0
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def pinned_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                       cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def report(args, res: dict, setup: list[float]):
    env = res["env"]
    print(f"catsim bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} passes={res['passes']}")
    print("env: " + json.dumps(env, sort_keys=True))
    plain = len(res["wall_s_all"])
    print(f"{'step':<20} {'command':<18} {'median_s':>10} {'passes':>7}")
    for step in WORKLOADS[args.workload]:
        print(f"{step.name:<20} {step.command:<18} "
              f"{res['step_s'][step.name]:>10.4f} {plain:>7}")
    print(f"pass wall_s: " + " ".join(f"{w:.4f}" for w in res["wall_s_all"]))
    if setup:
        print("setup_s probes: " + " ".join(f"{s:.4f}" for s in setup))
    for name, value, limit in res["failures"]:
        print(f"FAILED check {name}: value {value}, limit {limit}")
    print(f"ops: attempted={res['attempted']} failed={res['failed']} "
          f"ops_failed_ratio={res['failed'] / res['attempted']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catsim" / "cli.py").is_file():
        print(f"bench: no catsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = pinned_env()
    out = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True)
    try:
        setup = [] if args.trace else setup_seconds(env)
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads((out / "result.json").read_text())
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            out.parent.rmdir()

    report(args, res, setup)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
