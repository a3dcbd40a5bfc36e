import json
import os
import subprocess
import sys
import tracemalloc
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


@pytest.mark.parametrize("amount", ['"NaN"', '"Infinity"', '"1e1000000"', "NaN", "-Infinity", "1e1000000"])
def test_run_rejects_a_non_finite_or_overflowing_amount(amount, tmp_path, capsys):
    text = Path(SMOKE).read_text().replace('"effort_cost": "1"', f'"effort_cost": {amount}')
    assert amount in text
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["run", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario: constants.effort_cost:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [("effort_cost", '"1e300000"'), ("effort_cost", "1e999990"),
     ("quality_threshold", '"1e9999999"'), ("quality_threshold", "-1e-9999999")],
)
def test_run_rejects_a_huge_exponent_in_well_under_ten_seconds(key, value, tmp_path):
    original = json.loads(Path(SMOKE).read_text())["constants"][key]
    text = Path(SMOKE).read_text().replace(f'"{key}": "{original}"', f'"{key}": {value}')
    assert value in text
    (tmp_path / "bad.json").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "attestsim.cli", "run", "--scenario", "bad.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1
    assert f"invalid scenario: constants.{key}:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "content",
    [
        Path(SMOKE).read_bytes()[:200],  # truncated: JSONDecodeError
        b'{"seed": "\xff"}',  # not UTF-8: UnicodeDecodeError
        b"[" * 100_000 + b"]" * 100_000,  # too deep: RecursionError
        b'{"seed": ' + b"1" * 5000 + b"}",  # int literal past 4300 digits: ValueError
    ],
    ids=["truncated", "not-utf8", "too-deep", "too-many-digits"],
)
def test_run_rejects_a_file_that_is_not_json(content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["run", "--scenario", str(bad)]) == 1
    assert "invalid scenario: not a UTF-8 JSON document" in capsys.readouterr().err


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


def test_verify_trace_names_the_failing_layer(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", SMOKE, "--out", str(out_dir)]) == 0
    trace = out_dir / "trace.jsonl"
    lines = trace.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if '"kind":"ResultCalculated"' in ln)
    obj = json.loads(lines[idx])
    obj["payload"]["final_score"] = 0.125
    lines[idx] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify-trace", str(trace)]) == 2
    out = capsys.readouterr().out
    assert f"FAILED (line {idx + 1}): final score mismatch" in out
    assert out.rstrip().endswith("[layer: mirror]")


def test_sweep_runs_each_seed(tmp_path, capsys):
    code = main(["sweep", "--scenario", SMOKE, "--seeds", "3", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    for seed in (42, 43, 44):
        assert f"seed {seed}" in out
        assert (tmp_path / f"seed-{seed}" / "trace.jsonl").exists()


def test_a_sweep_holds_one_run_at_a_time(tmp_path, monkeypatch):
    """Each seed's report is dropped before the next run, and a finished run
    leaves no cycle behind, so three seeds peak like one (a sweep that held
    the previous report during the next run peaked near 2x)."""
    raw = json.loads(Path(SMOKE).read_text())
    raw["rounds"] = 40
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    monkeypatch.setattr(cli, "_print", lambda *args, **kwargs: None)  # captured text grows

    def sweep_peak(seeds: int) -> int:
        tracemalloc.start()
        try:
            assert main(["sweep", "--scenario", str(scenario), "--seeds", str(seeds)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep_peak(1)  # warm-up: lazy imports and caches
    one = sweep_peak(1)
    assert sweep_peak(3) <= 1.2 * one


def test_sweep_rejects_nonpositive_seed_count(capsys):
    assert main(["sweep", "--scenario", SMOKE, "--seeds", "0"]) == 1


def test_sweep_reports_run_errors_as_config_errors(monkeypatch, capsys):
    def refuse(config, seed=None):
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


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "2"]])
def test_a_reward_that_rounds_to_zero_exits_1(command, tmp_path, capsys):
    raw = json.loads(Path(SMOKE).read_text())
    raw["constants"].update(effort_cost="0.000001", quality_threshold="1")
    scenario = tmp_path / "zero_reward.json"
    scenario.write_text(json.dumps(raw))
    assert main([command[0], "--scenario", str(scenario), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario: reward 1/2000000 rounds to 0 micro-units" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "2"]])
@pytest.mark.parametrize("out", ["file", "file/x"])
def test_an_unusable_out_directory_exits_1(command, out, tmp_path, capsys):
    (tmp_path / "file").write_text("not a directory")
    code = main([command[0], "--scenario", SMOKE, *command[1:], "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot write outputs:" in err
    assert "Traceback" not in err


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


def _smoke_trace(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", SMOKE, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir / "trace.jsonl"


def test_verify_trace_exits_2_on_bytes_that_are_not_utf8(tmp_path, capsys):
    trace = _smoke_trace(tmp_path, capsys)
    lines = trace.read_bytes().split(b"\n")
    lines[4] = lines[4][:3] + b"\xff" + lines[4][4:]
    trace.write_bytes(b"\n".join(lines))
    assert main(["verify-trace", str(trace)]) == 2
    assert "FAILED (line 5): not UTF-8" in capsys.readouterr().out


def test_verify_trace_exits_2_on_deeply_nested_json(tmp_path, capsys):
    trace = _smoke_trace(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    lines[4] = lines[4].replace('"payload":', '"payload":' + "[" * 1000 + "]" * 1000 + ',"x":', 1)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["verify-trace", str(trace)]) == 2
    assert "FAILED (line 5): malformed JSON" in capsys.readouterr().out


def test_payment_variant_override(capsys):
    assert main(["run", "--scenario", SMOKE, "--payment-variant", "derivation"]) == 0


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize(
    "command", [["run", "--out", "out"], ["sweep", "--seeds", "3", "--out", "out"]]
)
def test_closed_stdout_still_writes_every_output_and_keeps_the_exit_code(
    command, buffered, tmp_path
):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first line is printed
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "attestsim.cli", command[0], "--scenario", SMOKE, *command[1:]],
            cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""
    runs = ["seed-42", "seed-43", "seed-44"] if command[0] == "sweep" else ["."]
    for run_dir in runs:
        assert (tmp_path / "out" / run_dir / "summary.json").exists()
