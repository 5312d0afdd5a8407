"""The scripts under scripts/: the preset summary runs end to end, and the
output digest's run list and comparison and the bench pairs' summary are
checked without running a tree (one digest run takes about fifteen seconds,
one bench pair up to a minute)."""

import csv
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from catsim import cli
from catsim.pipeline import DRIVE_PRESETS, ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = _load_script("output_digest")
bench_pairs = _load_script("bench_pairs")


def test_preset_summary_writes_one_finite_row_per_preset(tmp_path):
    env = {**os.environ, **{var: "1" for var in digest.THREAD_VARS},
           "PYTHONPATH": os.pathsep.join(
               filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "preset_summary.py"),
         "--wait-max", "20", "--n-waits", "5", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "preset_summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [float(r["drive_amplitude"]) for r in rows] == sorted(DRIVE_PRESETS)
    t1 = ExperimentConfig().t1_phonon
    for row in rows:
        values = {key: float(val) for key, val in row.items()}
        assert all(math.isfinite(v) for v in values.values())
        assert values["alpha0"] == DRIVE_PRESETS[values["drive_amplitude"]]
        assert values["tau_large_cat"] == t1 / (2.0 * values["D"] * values["D"])


def _branches(command):
    """The values a subcommand body dispatches on: its `kind == "..."` tests."""
    return set(re.findall(r'kind == "([^"]+)"', inspect.getsource(command)))


def test_digest_runs_cover_every_command_state_and_kind():
    assert {command for _, command, _ in digest.RUNS} == set(cli.COMMANDS)
    for command, field, body in (("wigner", "state", cli._cmd_wigner),
                                 ("calibrate", "kind", cli._cmd_calibrate)):
        accepted = _branches(body)
        assert accepted
        assert {cfg[field] for _, cmd, cfg in digest.RUNS
                if cmd == command} == accepted


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_digest_compare_same_bytes(tmp_path):
    text = "re_beta,im_beta,w\n0,0,0.5\n1,0,0.25\n"
    assert digest.compare(_write(tmp_path / "a.csv", text),
                          _write(tmp_path / "b.csv", text)) == "same"


def test_digest_compare_reports_largest_roundoff_move(tmp_path):
    old = _write(tmp_path / "a.csv", "re_beta,im_beta,w\n0,0,0.5\n1,0,0.25\n")
    new = _write(tmp_path / "b.csv",
                 "re_beta,im_beta,w\n0,0,0.50000000000000011\n"
                 "1,0,0.25000000000000044\n")
    assert digest.compare(old, new) == (
        "max |diff| 4.44e-16 at row 2 w: 0.25 -> 0.25000000000000044 "
        "(2 of 6 values differ)")
    old = _write(tmp_path / "a.json", json.dumps({"fit": {"D": 1.5, "n": 3}}))
    new = _write(tmp_path / "b.json",
                 json.dumps({"fit": {"D": 1.5000000000000002, "n": 3}}))
    assert digest.compare(old, new).startswith("max |diff| 2.22e-16 at fit.D: ")


def test_digest_compare_reports_layout_difference(tmp_path):
    old = _write(tmp_path / "a.csv", "wait,negativity\n0,0.2\n")
    new = _write(tmp_path / "b.csv", "wait,negativity,tau\n0,0.2,3\n")
    assert digest.compare(old, new) == "differs in layout: ['row 1 tau']"
    old = _write(tmp_path / "a.json", json.dumps({"D": 1.0}))
    new = _write(tmp_path / "b.json", json.dumps({"D": 1.0, "F": 0.9}))
    assert digest.compare(old, new).startswith("differs in layout: ")


def _digest_main(monkeypatch, capsys, old, new):
    """digest.main over two trees whose `outputs` are the files in them."""
    monkeypatch.setattr(digest, "outputs", lambda tree, work: (
        (path.name, path) for path in sorted(tree.iterdir())))
    monkeypatch.setattr(sys, "argv", ["output_digest.py", str(old), str(new)])
    code = digest.main()
    return code, capsys.readouterr().out.splitlines()


def test_digest_exit_status_says_whether_anything_moved(tmp_path, monkeypatch, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    for tree in (old, new):
        _write(tree / "a.json", json.dumps({"D": 1.5}))
    assert _digest_main(monkeypatch, capsys, old, new) == (0, ["a.json same"])
    _write(new / "a.json", json.dumps({"D": 1.5000000000000002}))
    code, lines = _digest_main(monkeypatch, capsys, old, new)
    assert code == 1 and lines[0].startswith("a.json max |diff|")
    _write(new / "a.json", json.dumps({"D": 1.5}))
    _write(old / "b.csv", "w\n0.5\n")
    assert _digest_main(monkeypatch, capsys, old, new) == (
        1, ["a.json same", "b.csv only in old tree"])


def _bench_stdout(wall, setup, rss, correct=True):
    """The last lines of one `bench/run.py --trace 0` run."""
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MiB"}}
    return ("catsim bench: workload=decay seed=707 seconds=25.0 trace=0 passes=9\n"
            "ops: attempted=9 failed=0 ops_failed_ratio=0\n"
            + json.dumps({"correct": correct, "attempted": 9,
                          "failed": 0 if correct else 1, "metrics": metrics}) + "\n")


def test_bench_pairs_reads_the_last_line_and_refuses_an_incorrect_run():
    assert bench_pairs.parse_metrics(_bench_stdout(0.0493, 0.215, 86.0)) == {
        "wall_s": 0.0493, "setup_s": 0.215, "peak_rss_mb": 86.0}
    with pytest.raises(ValueError, match="1 of 9 operations failed"):
        bench_pairs.parse_metrics(_bench_stdout(0.0493, 0.215, 86.0, correct=False))


def test_bench_pairs_marks_whole_poll_ticks_only():
    assert bench_pairs.tick_mark(0.214 - 0.168) == " (+1 tick)"
    assert bench_pairs.tick_mark(0.1655 - 0.2651) == " (-2 ticks)"
    assert bench_pairs.tick_mark(0.023) == ""
    assert bench_pairs.tick_mark(0.003) == ""


def test_bench_pairs_summary_gives_medians_and_wins():
    runs = [((0.0493, 0.215, 86.0), (0.0404, 0.165, 86.1)),
            ((0.0493, 0.170, 86.0), (0.0410, 0.170, 86.0)),
            ((0.0551, 0.168, 86.2), (0.0427, 0.172, 85.9))]
    pairs = [tuple(dict(zip(bench_pairs.METRICS, run)) for run in pair)
             for pair in runs]
    assert [bench_pairs._pair_line(i, *pair)
            for i, pair in enumerate(pairs, start=1)] == [
        "pair 1: wall_s 0.0493 -> 0.0404  setup_s 0.2150 -> 0.1650 (-1 tick)  "
        "peak_rss_mb 86.0000 -> 86.1000",
        "pair 2: wall_s 0.0493 -> 0.0410  setup_s 0.1700 -> 0.1700  "
        "peak_rss_mb 86.0000 -> 86.0000",
        "pair 3: wall_s 0.0551 -> 0.0427  setup_s 0.1680 -> 0.1720  "
        "peak_rss_mb 86.2000 -> 85.9000"]
    assert bench_pairs.summary(pairs) == [
        "median wall_s 0.0493 -> 0.0410 (-16.8%), quartiles [0.0493, 0.0522] -> "
        "[0.0407, 0.0418], change lower in 3 of 3 pairs",
        "median setup_s 0.1700 -> 0.1700 (+0.0%), quartiles [0.1690, 0.1925] -> "
        "[0.1675, 0.1710], change lower in 1 of 3 pairs",
        "median peak_rss_mb 86.0000 -> 86.0000 (+0.0%), quartiles [86.0000, 86.1000] -> "
        "[85.9500, 86.0500], change lower in 1 of 3 pairs"]
    assert bench_pairs.summary([({"wall_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 80.0},
                           {"wall_s": 0.5, "setup_s": 0.1, "peak_rss_mb": 80.0})])[0] == (
        "median wall_s 1.0000 -> 0.5000 (-50.0%), quartiles [1.0000, 1.0000] -> "
        "[0.5000, 0.5000], change lower in 1 of 1 pairs")
