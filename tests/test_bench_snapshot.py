"""scripts/bench_snapshot.py on stand-in checkouts whose run.py prints a canned result."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_snapshot.py"


@pytest.fixture
def snapshot(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ledger_of", lambda checkout: {"scenario": {"doublings": 1}})
    return module


def fake_checkout(root: Path, name: str, body: str) -> Path:
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(textwrap.dedent(body), encoding="utf-8")
    return checkout


def result_printer(p50: float, rss: float) -> str:
    return f"""
        import json, sys
        seed = int(sys.argv[sys.argv.index("--seed") + 1])
        print("human readable line")
        print(json.dumps({{"correct": True, "attempted": 10 + seed, "failed": 0, "metrics": {{
            "step_s.p50": {{"value": {p50} + seed / 1000}},
            "peak_rss_mb": {{"value": {rss}}}}}}}))
    """


def test_two_checkouts_get_attempted_steps_and_a_comparison(snapshot, tmp_path):
    first = fake_checkout(tmp_path, "first", result_printer(p50=0.02, rss=20.0))
    second = fake_checkout(tmp_path, "second", result_printer(p50=0.01, rss=21.0))
    out = tmp_path / "snap.json"
    assert snapshot.main(["--out", str(out), "--workloads", "proof-mix", "--seeds", "1-2",
                          "--held-out", "9", "--seconds", "1",
                          "--checkout", f"a={first}", "--checkout", f"b={second}"]) == 0
    written = json.loads(out.read_text())
    assert written["held_out_seeds"] == [9]
    a = written["checkouts"]["a"]
    assert a["workloads"]["proof-mix"]["attempted"]["values"] == [11, 12]
    assert a["held_out"]["proof-mix"]["attempted"]["values"] == [19, 19, 19]
    assert a["ledger"] == {"scenario": {"doublings": 1}}
    comparison = written["comparison"]
    assert (comparison["first"], comparison["second"], comparison["ledger_equal"]) == ("a", "b", True)
    p50 = comparison["workloads"]["proof-mix"]["step_s.p50"]
    assert p50["better"] == "lower" and (p50["pairs"], p50["second_won"]) == (2, 2)
    assert p50["median_difference"] == pytest.approx(-0.01)
    assert p50["first_iqr"] == pytest.approx(0.0005)
    assert p50["clears_claim_rule"]
    rss = comparison["held_out"]["proof-mix"]["peak_rss_mb"]
    assert (rss["pairs"], rss["second_won"], rss["clears_claim_rule"]) == (3, 0, False)
    assert "attempted" not in comparison["workloads"]["proof-mix"]


def test_compare_follows_the_metric_direction(snapshot):
    higher = snapshot.compare([100, 110, 120, 130], [131, 111, 121, 101], "higher")
    assert (higher["second_won"], higher["pairs"]) == (3, 4)
    assert not higher["clears_claim_rule"]  # 3 of 4 is below nine in ten
    lower = snapshot.compare([1.0, 1.1, 1.2, 1.3], [0.5, 0.6, 0.7, 0.8], "lower")
    assert lower["second_won"] == 4 and lower["clears_claim_rule"]
    close = snapshot.compare([1.0, 1.1, 1.2, 1.3], [0.99, 1.09, 1.19, 1.29], "lower")
    assert close["second_won"] == 4 and not close["clears_claim_rule"]  # within the IQR


def test_a_checkout_name_given_twice_is_refused(snapshot, tmp_path, capsys):
    out = tmp_path / "snap.json"
    with pytest.raises(SystemExit) as exit_:
        snapshot.main(["--out", str(out), "--checkout", f"same={tmp_path}",
                       "--checkout", f"same={tmp_path / 'other'}"])
    assert exit_.value.code == 2
    assert "'same' given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_an_empty_seed_range_is_refused(snapshot, tmp_path, capsys):
    out = tmp_path / "snap.json"
    with pytest.raises(SystemExit) as exit_:
        snapshot.main(["--out", str(out), "--seeds", "5-1", "--checkout", f"only={tmp_path}"])
    assert exit_.value.code == 2
    assert "empty seed range '5-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body", ["", "print('no json here')"])
def test_a_run_without_a_json_line_stops_with_a_message(snapshot, tmp_path, body):
    silent = fake_checkout(tmp_path, "silent", body)
    out = tmp_path / "snap.json"
    with pytest.raises(SystemExit) as exit_:
        snapshot.main(["--out", str(out), "--workloads", "proof-mix", "--seconds", "1",
                       "--checkout", f"only={silent}"])
    assert "printed no JSON result line" in str(exit_.value.code)
    assert not out.exists()
