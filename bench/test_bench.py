"""Tests for the benchmark itself. Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run as bench  # noqa: E402
from tracer import CONTRACT_OPS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

attestsim = bench.import_attestsim()
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _shrunk(workload, seed=5):
    raw, seeds = WORKLOADS[workload](seed, shrink=True)
    return raw, seeds, attestsim.validate_config(raw)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_shrunk_workload_passes_every_check(workload, tmp_path):
    raw, seeds, config = _shrunk(workload)
    record = bench.one_pass(attestsim, config, seeds, tmp_path)
    found = bench.check_outputs(workload, raw, seeds, tmp_path)
    assert bench.tally([record], found, seeds) == (bench.CALLS_PER_SEED * len(seeds), 0, [])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_shrunk_traces_match_the_pins(workload):
    pins = json.loads(bench.PINS.read_text())
    assert bench.pin_hashes(attestsim, workload) == pins[workload]


def _decided_evaluation(lines):
    return next(
        i for i, line in enumerate(lines)
        if '"kind":"ResultCalculated"' in line
        and json.loads(line)["payload"]["round"] == "evaluation"
        and json.loads(line)["payload"]["result"] != 0
    )


def _alter(payload, what):
    if what == "payout":
        row = next(r for r in payload["players"] if r["payout"] > 0)
        row["payout"] = 0
    else:
        payload["result"] = -payload["result"]


@pytest.mark.parametrize("what", ["payout", "result"])
def test_checks_reject_one_altered_settlement(what, tmp_path):
    _, seeds, config = _shrunk("wide_market")
    paths = attestsim.write_outputs(attestsim.run(config, seed=seeds[0]), tmp_path)
    trace = Path(paths["trace"])
    assert checks.check_trace(trace).problems == []

    lines = trace.read_text().splitlines()
    i = _decided_evaluation(lines)
    event = json.loads(lines[i])
    _alter(event["payload"], what)
    lines[i] = json.dumps(event, sort_keys=True, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n")
    assert checks.check_trace(trace).problems


def test_checks_reject_an_overdrawn_account(tmp_path):
    _, seeds, config = _shrunk("incentive_sweep")
    paths = attestsim.write_outputs(attestsim.run(config, seed=seeds[0]), tmp_path)
    trace = Path(paths["trace"])
    text = trace.read_text()
    first = text.index('"amount":') + len('"amount":')
    end = text.index(",", first)
    trace.write_text(text[:first] + "10000000000" + text[end:])
    assert any("went negative" in p for p in checks.check_trace(trace).problems)


def test_schedule_formulas():
    # derivation at q = 3/4: reward 2 / (1/4 + 1/2) = 8/3; simplified: 1 / (9/8) = 8/9
    q = Fraction(3, 4)
    assert checks.schedule_micro(1, q, Fraction(2), "derivation") == (2666667, -4666667)
    assert checks.schedule_micro(1, q, Fraction(1, 1000), "simplified") == (888889, -889889)


def test_traced_pass_reports_every_layer(tmp_path):
    _, seeds, config = _shrunk("wide_market")
    original = attestsim.trust.compute_weight
    tracer = Tracer()
    tracer.install()
    try:
        passes = bench.measure(attestsim, config, seeds, tmp_path, 0, tracer)
    finally:
        tracer.uninstall()
    assert attestsim.trust.compute_weight is original

    reference = {"run_s": 1.0, "write_s": 0.1, "verify_s": 1.0, "run_peak_mib": 1.0,
                 "write_peak_mib": 0.0, "verify_peak_mib": 1.0}
    metrics = bench.layer_metrics(passes, [(0.1, 0.01)], reference, 0.5)
    assert [(name, m["unit"]) for name, m in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    value = {name: m["value"] for name, m in metrics.items()}
    for phase in ("run", "verify"):
        calls = sum(value[f"{phase}.contract.{op}_calls"] for op in CONTRACT_OPS)
        assert calls == value[f"{phase}.ledger.messages"] > 0
        assert value[f"{phase}.trust.compute_weight_s"] > 0
        assert value[f"{phase}.oracle.agreement_sign_exact_calls"] > 0
    assert value["run.contract.register_rejected"] == value["run.ledger.rejected"] > 0
    assert value["verify.ledger.rejected"] == 0
    assert value["run.contract.open_feedback_calls"] > 0
    assert value["run.ledger.events"] == value["verify.ledger.events"]
    assert value["verify.crypto.signature_cache_hits"] == value["verify.crypto.signature_calls"]


def test_end_to_end_names_match_the_spec():
    passes = [{"samples": {op: {7: [10**9]} for op in ("run", "write", "verify")}}]
    metrics = bench.end_to_end_metrics(passes, [(0.1, 0.01)], 10.0)
    assert [(name, m["unit"]) for name, m in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide_market", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
