"""The scripts under scripts/: the preset summary runs end to end, and the
output digest's run list and comparison are checked without running a tree
(one digest run takes about fifteen seconds)."""

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
