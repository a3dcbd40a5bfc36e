import json
from pathlib import Path

import pytest

from attestsim import cli
from attestsim.cli import main

SMOKE = str(Path(__file__).parent.parent / "scenarios" / "smoke.json")


def test_run_prints_summary_and_writes_outputs(tmp_path, capsys):
    code = main(["run", "--scenario", SMOKE, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed 42" in out
    assert "conservation: exact" in out
    assert (tmp_path / "trace.jsonl").exists()
    assert (tmp_path / "summary.json").exists()


def test_run_seed_override(capsys):
    assert main(["run", "--scenario", SMOKE, "--seed", "7"]) == 0
    assert "seed 7" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_rejects_out_of_range_seed_override(seed, capsys):
    assert main(["run", "--scenario", SMOKE, "--seed", seed]) == 1
    assert "seed" in capsys.readouterr().err


def test_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "seed": -3}))
    assert main(["run", "--scenario", str(bad)]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_run_rejects_missing_file(capsys):
    assert main(["run", "--scenario", "/does/not/exist.json"]) == 1


def test_verify_trace_roundtrip_and_tamper(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", SMOKE, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    trace = out_dir / "trace.jsonl"
    assert main(["verify-trace", str(trace)]) == 0
    assert ": OK" in capsys.readouterr().out

    lines = trace.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if '"Revealed"' in ln)
    obj = json.loads(lines[idx])
    obj["payload"]["vote"] = -obj["payload"]["vote"] or 1
    lines[idx] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    assert main(["verify-trace", str(tampered)]) == 2
    assert "FAILED" in capsys.readouterr().out


def test_verify_trace_names_the_line_of_an_unrebuildable_message(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", SMOKE, "--out", str(out_dir)]) == 0
    trace = out_dir / "trace.jsonl"
    lines = trace.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if '"kind":"Registered"' in ln)
    obj = json.loads(lines[idx])
    obj["payload"]["signature"] = "zz" + obj["payload"]["signature"][2:]
    lines[idx] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify-trace", str(trace)]) == 2
    assert f"FAILED (line {idx + 1}): replay failed" in capsys.readouterr().out


def test_sweep_runs_each_seed(tmp_path, capsys):
    code = main(["sweep", "--scenario", SMOKE, "--seeds", "3", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    for seed in (42, 43, 44):
        assert f"seed {seed}" in out
        assert (tmp_path / f"seed-{seed}" / "trace.jsonl").exists()


def test_sweep_rejects_nonpositive_seed_count(capsys):
    assert main(["sweep", "--scenario", SMOKE, "--seeds", "0"]) == 1


def test_sweep_reports_run_errors_as_config_errors(monkeypatch, capsys):
    def refuse(config, seed=None, payment_variant=None):
        raise ValueError("no such run")

    monkeypatch.setattr(cli, "run", refuse)
    assert main(["sweep", "--scenario", SMOKE, "--seeds", "2"]) == 1
    assert "invalid scenario: no such run" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "2"]])
def test_unfundable_vendor_exits_1(command, tmp_path, capsys):
    raw = json.loads(Path(SMOKE).read_text())
    raw["vendor_funds"] = "1"
    scenario = tmp_path / "poor_vendor.json"
    scenario.write_text(json.dumps(raw))
    assert main([command[0], "--scenario", str(scenario), *command[1:]]) == 1
    assert "could not announce design 0" in capsys.readouterr().err


def test_verify_trace_exits_2_on_non_finite_numbers(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", SMOKE, "--out", str(out_dir)]) == 0
    trace = out_dir / "trace.jsonl"
    text = trace.read_text()
    start = text.index('"final_score":') + len('"final_score":')
    trace.write_text(text[:start] + "Infinity" + text[text.index(",", start):])
    capsys.readouterr()
    assert main(["verify-trace", str(trace)]) == 2
    assert "FAILED (line" in capsys.readouterr().out


def test_payment_variant_override(capsys):
    assert main(["run", "--scenario", SMOKE, "--payment-variant", "derivation"]) == 0
