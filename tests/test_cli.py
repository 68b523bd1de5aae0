"""Command-line entry points: parsing, outputs, exit codes, invariants."""

import csv
import dataclasses
import importlib.util
import json
import pathlib
import re
import sys

import pytest

from cloneguard.cli import (build_parser, check_report_invariants, main,
                            parse_config_file, ConfigFileError)
from cloneguard.sim import NetworkConfig, run_experiment

REPO_ROOT = pathlib.Path(__file__).parent.parent
REPRODUCE_SCRIPT = REPO_ROOT / "scripts" / "reproduce_results.py"


# --- config files ---


def test_parse_config_file_values_and_comments(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(
        "# experiment setup\n"
        "num_devices = 200\n"
        "environment = dense\n"
        "num_clones = 30   # mid-band\n"
        "\n"
        "latency_ms = 2.5\n"
        "seed = 0x10\n")
    values = parse_config_file(str(path))
    assert values == {"num_devices": 200, "environment": "dense",
                      "num_clones": 30, "latency_ms": 2.5, "seed": 16}


# One value per field type, written as a config file would spell it.
_FIELD_SAMPLES = {int: ("12", 12), float: ("2.5", 2.5), str: ("dense", "dense")}


@pytest.mark.parametrize("field", dataclasses.fields(NetworkConfig),
                         ids=lambda f: f.name)
def test_every_config_field_parses_to_its_type(tmp_path, field):
    # The resolved default's type: an ``int | None`` field resolves to an int.
    kind = type(getattr(NetworkConfig().resolve(), field.name))
    text, expected = _FIELD_SAMPLES[kind]
    path = tmp_path / "net.cfg"
    path.write_text(f"{field.name} = {text}\n")
    values = parse_config_file(str(path))
    assert values == {field.name: expected}
    assert type(getattr(NetworkConfig(**values), field.name)) is kind
    if kind is int:
        path.write_text(f"{field.name} = 0x1f\n")
        assert parse_config_file(str(path)) == {field.name: 31}


def test_readme_config_example_is_valid(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    path = tmp_path / "experiment.cfg"
    path.write_text(blocks[0])
    values = parse_config_file(str(path))
    assert values
    NetworkConfig(**values).validate()


def test_parse_config_file_reports_line_numbers(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("num_devices = 100\nnum_rounds 3\n")
    with pytest.raises(ConfigFileError) as exc:
        parse_config_file(str(path))
    assert "net.cfg:2" in str(exc.value)


def test_parse_config_file_unknown_key(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ConfigFileError, match="warp_speed"):
        parse_config_file(str(path))


def test_parse_config_file_bad_value(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("num_devices = many\n")
    with pytest.raises(ConfigFileError, match="net.cfg:1"):
        parse_config_file(str(path))


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["comm_radius", "randomizer_bits", "trust_alpha", "trust_beta"])
def test_removed_config_key_is_exit_2(tmp_path, capsys, key):
    path = tmp_path / "old.cfg"
    path.write_text(f"num_devices = 100\n{key} = 1.0\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"old.cfg:2: unknown key '{key}'" in capsys.readouterr().err


def test_duplicate_config_key_is_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.cfg"
    path.write_text("seed = 1\nnum_devices = 100\nseed = 2\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "dup.cfg:3: duplicate key 'seed' (first set on line 1)" in capsys.readouterr().err
    assert not out.exists()


def test_area_side_below_one_quantisation_step_is_exit_2(tmp_path, capsys, monkeypatch):
    # Such an area puts every position in the victim's cell, and clone
    # injection would resample forever; reaching the run fails the test
    # instead of hanging it.
    def unreachable(config):
        raise AssertionError("an invalid config reached run_experiment")

    monkeypatch.setattr("cloneguard.cli.run_experiment", unreachable)
    path = tmp_path / "tiny.cfg"
    path.write_text("area_side = 0.001\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "area_side (0.001) must be in [0.00390625, 256]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--devices", "100"], ["bench"]])
def test_out_path_that_is_a_file_is_exit_2(tmp_path, capsys, monkeypatch, argv):
    def unreachable(*args):
        raise AssertionError("a run started with an unusable --out")

    monkeypatch.setattr("cloneguard.cli.run_experiment", unreachable)
    monkeypatch.setattr("cloneguard.cli._bench_batch", unreachable)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: --out: cannot create directory") and str(out) in err
    assert out.read_text() == "not a directory\n"


def test_smallest_area_side_run_finishes(tmp_path):
    # Exactly one quantisation step (1/256): two cells per axis, so every
    # clone still finds a cell other than its victim's.
    path = tmp_path / "small.cfg"
    path.write_text("area_side = 0.00390625\n")
    code = main(["run", "--config", str(path), "--seed", "5", "--rounds", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 0


def test_non_finite_config_value_is_exit_2(tmp_path, capsys):
    path = tmp_path / "net.cfg"
    path.write_text("latency_ms = nan\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "latency_ms (nan) must be finite" in capsys.readouterr().err
    assert not out.exists()


# --- run ---


def test_run_writes_report_and_csvs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--seed", "7", "--rounds", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "detection=1.000" in stdout
    report = json.loads((out / "report_rep0.json").read_text())
    assert report["seed"] == 7
    assert report["detection_probability"] == 1.0
    assert report["false_positives"] == 0
    assert {p.name for p in out.iterdir()} == {
        "report_rep0.json", "detection.csv", "overhead_messages.csv",
        "overhead_bytes.csv", "storage.csv"}
    with open(out / "detection.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20  # every clone caught once
    assert all(float(r["detection_time_ms"]) > 0 for r in rows)


def test_run_is_deterministic_in_process(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--seed", "7", "--rounds", "1", "--out", str(out_a)]) == 0
    assert main(["run", "--seed", "7", "--rounds", "1", "--out", str(out_b)]) == 0
    report_a = (out_a / "report_rep0.json").read_bytes()
    report_b = (out_b / "report_rep0.json").read_bytes()
    assert report_a == report_b


def test_run_reps_use_derived_seeds(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--seed", "3", "--rounds", "1", "--reps", "2",
                 "--out", str(out)]) == 0
    r0 = json.loads((out / "report_rep0.json").read_text())
    r1 = json.loads((out / "report_rep1.json").read_text())
    assert r0["seed"] == 3
    assert r1["seed"] == 4
    assert r0 != r1


def test_run_flags_override_config_file(tmp_path):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("seed = 5\nrounds = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--seed", "9",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report_rep0.json").read_text())
    assert report["seed"] == 9
    assert report["config"]["rounds"] == 1


def test_run_invalid_combo_is_exit_2(tmp_path, capsys):
    code = main(["run", "--devices", "500", "--clones", "600",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "num_clones" in err


def test_run_unknown_flag_is_exit_2(tmp_path):
    assert main(["run", "--warp", "9"]) == 2


# --- bench ---


def test_bench_batch_reports_speedup(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["bench", "--reps", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "speedup" in stdout
    with open(out / "batch_timing.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    sizes = {int(r["batch_size"]) for r in rows}
    assert sizes == {5, 10, 15, 20, 25}
    schemes = {r["scheme"] for r in rows}
    assert schemes == {"ecdsa", "ecdsa_star_batch"}


def test_bench_has_no_target_or_devices(tmp_path):
    out = str(tmp_path / "bench")
    assert main(["bench", "keygen", "--out", out]) == 2
    assert main(["bench", "--devices", "5", "--out", out]) == 2


# --- reproduce script ---


def test_reproduce_script_sends_only_argvs_the_cli_accepts(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("reproduce_results", REPRODUCE_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    parser = build_parser()
    sent = []

    def parse_only(argv):
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"cloneguard rejects {argv}")
        sent.append(argv[0])
        return 0

    monkeypatch.setattr(script, "cli", parse_only)
    (tmp_path / "sweep").mkdir()
    (tmp_path / "sweep" / "sweep_summary.json").write_text(
        json.dumps({"complexity": {"verdict": "linear", "per_device_ratio": 1.0}}))
    monkeypatch.setattr(sys, "argv", ["reproduce_results.py", "--out", str(tmp_path)])
    assert script.main() == 0
    assert sent == ["run", "run", "bench", "sweep"]


# --- sweep ---


def test_sweep_single_cell(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--devices", "100", "--env", "sparse",
                 "--rounds", "1", "--seed", "2", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    [cell] = summary["cells"]
    assert cell["cell"] == "n100_sparse_b25"
    assert cell["detection_probability"] == 1.0
    assert summary["complexity"]["verdict"] == "inconclusive"
    assert (out / "n100_sparse_b25" / "report_n100_sparse_b25_rep0.json").exists()
    assert (out / "detection.csv").exists()


def test_sweep_rejects_unreachable_cell_upfront(tmp_path, capsys):
    # dense requires 25..50 clones, so a 20-clone dense cell must abort the
    # whole sweep before any cell runs
    out = tmp_path / "sweep"
    code = main(["sweep", "--devices", "100", "--env", "sparse,dense",
                 "--clones", "20", "--rounds", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "n100_dense_b25" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flags, cells", [
    (["--devices", "100"], ["n100_dense_b10"]),
    ([], ["n100_dense_b10"]),
    (["--env", "sparse,dense"], ["n100_sparse_b10", "n100_dense_b10"]),
    (["--batch-size", "25"], ["n100_dense_b25"]),
])
def test_sweep_axes_take_the_config_file_unless_a_flag_is_given(tmp_path, flags, cells):
    # An axis flag takes precedence over the file, and the file over the
    # built-in axis defaults (sparse, 25, 100..500).
    path = tmp_path / "f.cfg"
    path.write_text("num_devices = 100\nenvironment = dense\nbatch_size = 10\nrounds = 1\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)] + flags) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [cell["cell"] for cell in summary["cells"]] == cells
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(cells)


@pytest.mark.parametrize("axis, values, repeated", [
    ("--devices", "100,100", "100"),
    ("--devices", "100,0x64", "100"),
    ("--env", "sparse,dense,sparse", "'sparse'"),
    ("--batch-size", "10,25,10", "10"),
])
def test_sweep_rejects_a_repeated_axis_value_upfront(tmp_path, capsys, axis, values, repeated):
    # A repeated value would run the same cell twice into one directory
    # and write its rows twice, so the sweep stops before any run.
    out = tmp_path / "sweep"
    argv = ["sweep", "--devices", "100", "--rounds", "1", "--out", str(out)]
    code = main(argv + [axis, values])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{axis} lists {repeated} more than once" in err
    assert not out.exists()


# --- non-positive counts ---


@pytest.mark.parametrize("argv, flag", [
    (["run", "--reps", "0"], "--reps"),
    (["run", "--reps", "-2"], "--reps"),
    (["bench", "--reps", "0"], "--reps"),
    (["bench", "--reps", "-1"], "--reps"),
    (["sweep", "--devices", "100", "--reps", "0"], "--reps"),
])
def test_non_positive_counts_are_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and f"{flag} must be at least 1" in err
    assert not out.exists()


# --- report invariants ---


def test_invariants_pass_on_real_report():
    report = run_experiment(NetworkConfig(seed=7, rounds=1).resolve())
    assert check_report_invariants(report) == []


def test_invariants_catch_false_positives():
    report = run_experiment(NetworkConfig(seed=7, rounds=1).resolve())
    tampered = dataclasses.replace(report, false_positives=1)
    assert any("soundness" in p for p in check_report_invariants(tampered))


@pytest.mark.parametrize("time_ms", [0.0, float("nan")])
def test_invariants_catch_bad_detection_time(time_ms):
    report = run_experiment(NetworkConfig(seed=7, rounds=1).resolve())
    bad = dataclasses.replace(report.detections[0], detection_time_ms=time_ms)
    tampered = dataclasses.replace(report, detections=[bad] + report.detections[1:])
    assert any("timing" in p for p in check_report_invariants(tampered))


def test_invariants_catch_missed_detection():
    report = run_experiment(NetworkConfig(seed=7, rounds=1).resolve())
    tampered = dataclasses.replace(report, detection_probability=0.9)
    assert any("detection" in p for p in check_report_invariants(tampered))
