import json

import pytest

from catsim import __version__
from catsim.cli import SCHEMAS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == __version__


def test_schema_flag(capsys):
    code, out, _ = run(capsys, "--schema")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["commands"]) == set(SCHEMAS)
    assert doc["commands"]["simulate"]["alpha0"]["required"] is True


def test_usage_errors(capsys):
    code, _, _ = run(capsys)
    assert code == 1
    code, _, _ = run(capsys, "frobnicate", "--config", "x.json")
    assert code == 1
    code, _, _ = run(capsys, "simulate")  # --config is mandatory
    assert code == 1


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,\n  "alpha0": }\n', encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "line 2" in err


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "bogus_knob": 3})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "bogus_knob" in err


def test_missing_required_field_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "alpha0" in err


def test_wrong_type_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": "big"})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "alpha0" in err


def test_schema_version_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 99, "alpha0": 1.0})
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "schema_version" in err


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                  "t_max": 2.0, "n_times": 11})
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--out",
                     str(out_dir), "--quiet")
    assert code == 0
    assert (out_dir / "trajectory.csv").exists()
    times = json.loads((out_dir / "characteristic_times.json").read_text())
    assert times["t_collapse"] == pytest.approx(0.9, abs=1e-12)


def test_simulate_vacuum_skips_characteristic_times(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 0.0,
                                  "t_max": 1.0, "n_times": 6})
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--out",
                     str(out_dir), "--quiet")
    assert code == 0
    assert (out_dir / "trajectory.csv").exists()
    assert not (out_dir / "characteristic_times.json").exists()


def test_mass_outputs_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code, _, _ = run(capsys, "mass", "--config", cfg, "--out", str(out),
                         "--quiet")
        assert code == 0
    assert (out_a / "mass.json").read_bytes() == (out_b / "mass.json").read_bytes()
    doc = json.loads((out_a / "mass.json").read_text())
    assert doc["conventions"]["max"]["M0_ug"] == pytest.approx(4.0, rel=0.03)


def test_calibrate_drive_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "drive"})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code, _, _ = run(capsys, "calibrate", "--config", cfg, "--seed", "7",
                         "--out", str(out), "--quiet")
        assert code == 0
    for name in ("drive_samples.csv", "drive_fit.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_changes_samples(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "drive"})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(capsys, "calibrate", "--config", cfg, "--seed", "7", "--out",
        str(out_a), "--quiet")
    run(capsys, "calibrate", "--config", cfg, "--seed", "8", "--out",
        str(out_b), "--quiet")
    assert (out_a / "drive_samples.csv").read_bytes() \
        != (out_b / "drive_samples.csv").read_bytes()


@pytest.mark.parametrize("field", ["t1_phonon", "t1_qubit", "t2_qubit"])
def test_open_simulate_rejects_nonpositive_lifetimes(tmp_path, capsys, field):
    for value in (0.0, -5.0):
        cfg = write_config(tmp_path, {"schema_version": 1, "alpha0": 1.0,
                                      "closed": False, field: value})
        code, _, err = run(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert field in err


def test_numerical_failure_exit_code(tmp_path, capsys):
    # contrast + offset push outcome probabilities beyond 1: a model
    # consistency failure deep in the run, not a config-shape problem
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "parity",
                                  "contrast": 0.9, "offset": 0.2})
    code, _, err = run(capsys, "calibrate", "--config", cfg, "--out",
                       str(tmp_path / "out"), "--quiet")
    assert code == 3
    assert "numerical failure" in err


def test_wigner_decayed_css(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "state": "decayed-css",
                                  "alpha": 1.2, "kappa_t": 0.1,
                                  "extent": 2.0, "n_grid": 21})
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "wigner", "--config", cfg, "--out", str(out_dir),
                     "--quiet")
    assert code == 0
    meta = json.loads((out_dir / "wigner_meta.json").read_text())
    assert meta["negativity"] > 0.0
    lines = (out_dir / "wigner.csv").read_text().splitlines()
    assert lines[0] == "re_beta,im_beta,w"
    assert len(lines) == 1 + 21 * 21


def test_calibrate_fock_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "fock",
                                  "beta": 1.0, "noise": 0.005})
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "calibrate", "--config", cfg, "--seed", "3",
                     "--out", str(out_dir), "--quiet")
    assert code == 0
    doc = json.loads((out_dir / "fock_fit.json").read_text())
    assert doc["beta_fit"] == pytest.approx(1.0, rel=0.05)


# out-of-bounds values and an unnormalised qubit state are config errors,
# caught before any computation, not tracebacks or numerical failures
@pytest.mark.parametrize("command,payload,field", [
    ("simulate", {"alpha0": 1.0, "c_g": [1, 0, 0]}, "c_g"),
    ("simulate", {"alpha0": 1.0, "g0": -1}, "g0"),
    ("simulate", {"alpha0": 1.0, "n_times": 0}, "n_times"),
    ("simulate", {"alpha0": 1.0, "t_max": -1}, "t_max"),
    ("simulate", {"alpha0": 1.0, "c_g": [0.5, 0], "c_e": [0.5, 0]}, "c_g"),
    ("tomo", {"shots": 0}, "shots"),
    ("tomo", {"recon_n_max": 0}, "recon_n_max"),
    ("simulate", {"alpha0": 1.0, "n_times": 10**9}, "n_times"),
    ("qubit-phase-scan", {"alpha0": 1.0, "n_times": 10**9}, "n_times"),
    ("qubit-phase-scan", {"alpha0": 1.0, "n_phases": 10**9}, "n_phases"),
    ("wigner", {"state": "coherent", "n_grid": 10**9}, "n_grid"),
    ("tomo", {"n_grid": 10**9}, "n_grid"),
    ("tomo", {"shots": 10**9}, "shots"),
    ("tomo", {"recon_n_max": 10**9}, "recon_n_max"),
    ("decay", {"n_waits": 10**9}, "n_waits"),
    ("calibrate", {"kind": "parity", "shots": 10**9}, "shots"),
], ids=["c_g_length", "g0_negative", "n_times_zero", "t_max_negative",
        "qubit_not_normalized", "tomo_shots_zero", "tomo_recon_n_max_zero",
        "n_times_huge", "scan_n_times_huge", "n_phases_huge",
        "wigner_n_grid_huge", "tomo_n_grid_huge", "tomo_shots_huge",
        "recon_n_max_huge", "n_waits_huge", "calibrate_shots_huge"])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, command,
                                               payload, field):
    cfg = write_config(tmp_path, {"schema_version": 1, **payload})
    code, _, err = run(capsys, command, "--config", cfg,
                       "--out", str(tmp_path / "out"), "--quiet")
    assert code == 2
    assert "config error" in err and field in err


def test_schema_lists_value_bounds(capsys):
    code, out, _ = run(capsys, "--schema")
    assert code == 0
    simulate = json.loads(out)["commands"]["simulate"]
    assert simulate["g0"]["exclusive_minimum"] == 0
    assert simulate["n_times"]["minimum"] == 2
    assert simulate["n_times"]["maximum"] == 10_000
    assert simulate["c_g"]["length"] == 2
    assert "minimum" not in simulate["closed"]
    for command, schema in SCHEMAS.items():
        for name, field in schema.items():
            if name != "schema_version" and field.default is not None:
                field.check(name, field.default)  # defaults are admissible


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "drive"})
    code, _, err = run(capsys, "calibrate", "--config", cfg, "--seed", "-1",
                       "--out", str(tmp_path / "out"), "--quiet")
    assert code == 1
    assert "seed" in err
