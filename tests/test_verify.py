import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from corpus import corpus_configs

from attestsim.scenario import run, write_outputs
from attestsim.verify import verify_trace


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    out = tmp_path_factory.mktemp("genuine")
    report = run(corpus_configs()["feedback_pass"])
    paths = write_outputs(report, out)
    return Path(paths["trace"])


def reserialize(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_mutant(genuine, tmp_path, fn, name):
    lines = genuine.read_text().splitlines()
    out = []
    mutated = False
    for line in lines:
        obj = json.loads(line)
        if not mutated and fn(obj):
            mutated = True
            line = reserialize(obj)
        out.append(line)
    assert mutated, f"mutation {name} found no target"
    path = tmp_path / f"{name}.jsonl"
    path.write_text("\n".join(out) + "\n")
    return path


def test_genuine_trace_verifies(genuine):
    outcome = verify_trace(genuine)
    assert outcome.ok and bool(outcome)


def test_missing_file_fails_gracefully(tmp_path):
    outcome = verify_trace(tmp_path / "nope.jsonl")
    assert not outcome.ok
    assert "cannot read" in outcome.error


def test_empty_and_headerless_traces_fail(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert not verify_trace(empty).ok

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"tick":0,"seq":0,"kind":"Transfer","design":0,"payload":{}}\n')
    outcome = verify_trace(headerless)
    assert not outcome.ok and outcome.line == 1


def test_malformed_json_reports_its_line(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    lines[3] = lines[3][:-5]
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(broken)
    assert not outcome.ok and outcome.line == 4
    assert "JSON" in outcome.error


@pytest.mark.parametrize(
    "name,fn",
    [
        ("final_score", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"].__setitem__("final_score", 0.42) is None),
        ("result_code", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"].__setitem__("result", -o["payload"]["result"] or 1) is None),
        ("payout", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"]["players"][0].__setitem__(
                "payout", o["payload"]["players"][0]["payout"] + 1) is None),
        ("vendor_refund", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"]["round"] == "evaluation"
            and o["payload"].__setitem__("vendor_refund", 0) is None),
        ("reputation_after", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"]["players"][0].__setitem__("reputation_after", 0.9) is None),
        ("count_after", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"]["players"][0].__setitem__("count_after", 9) is None),
        ("vote", lambda o: o["kind"] == "Revealed"
            and o["payload"].__setitem__("vote", -o["payload"]["vote"] or 1) is None),
        ("blinding", lambda o: o["kind"] == "Revealed"
            and o["payload"].__setitem__("blinding", "00" * 32) is None),
        ("commit_digest", lambda o: o["kind"] == "Committed"
            and o["payload"].__setitem__("digest", "11" * 32) is None),
        ("deposit", lambda o: o["kind"] == "Registered"
            and o["payload"].__setitem__("deposit", o["payload"]["deposit"] + 7) is None),
        ("transfer_amount", lambda o: o["kind"] == "Transfer"
            and o["payload"].__setitem__("amount", o["payload"]["amount"] + 1) is None),
        ("collateral", lambda o: o["kind"] == "NewDesign"
            and o["payload"].__setitem__("collateral", o["payload"]["collateral"] * 2) is None),
        ("tick_shift", lambda o: o["kind"] == "ResultCalculated"
            and o.__setitem__("tick", o["tick"] - 1) is None),
        ("header_reward", lambda o: o.get("kind") == "genesis"
            and o.__setitem__("reward_micro", o["reward_micro"] + 1) is None),
        ("header_variant", lambda o: o.get("kind") == "genesis"
            and o.__setitem__("payment_variant", "derivation") is None),
    ],
)
def test_single_field_mutations_are_rejected(genuine, tmp_path, name, fn):
    mutant = write_mutant(genuine, tmp_path, fn, name)
    outcome = verify_trace(mutant)
    assert not outcome.ok, f"mutation {name} slipped through"


def test_free_input_edits_yield_consistent_alternative_documents(genuine, tmp_path):
    """Traces are self-contained: fields that only *define* the starting
    state (genesis balances, the recorded seed) have no downstream value to
    contradict, so editing them produces a different-but-valid document.
    Verification promises internal consistency, not provenance."""
    def bump_balance(o):
        if o.get("kind") == "genesis":
            o["genesis_balances"]["vendor"] += 1_000_000
            return True

    def change_seed(o):
        if o.get("kind") == "genesis":
            o["seed"] = o["seed"] + 1
            return True

    for name, fn in (("free_balance", bump_balance), ("free_seed", change_seed)):
        mutant = write_mutant(genuine, tmp_path, fn, name)
        assert verify_trace(mutant).ok


def test_dropped_event_is_detected(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    victim = next(i for i, ln in enumerate(lines) if '"kind":"Committed"' in ln)
    dropped = tmp_path / "dropped.jsonl"
    dropped.write_text("\n".join(lines[:victim] + lines[victim + 1:]) + "\n")
    outcome = verify_trace(dropped)
    assert not outcome.ok and outcome.line == victim + 1


def test_swapped_events_are_detected(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if '"kind":"Registered"' in ln)
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    swapped = tmp_path / "swapped.jsonl"
    swapped.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(swapped)
    assert not outcome.ok
    assert "sequence" in outcome.error


def test_appended_forged_event_is_detected(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    last = json.loads(lines[-1])
    forged = {
        "tick": last["tick"] + 1,
        "seq": last["seq"] + 1,
        "kind": "Transfer",
        "design": 0,
        "payload": {"amount": 1, "from": "contract", "to": "vendor"},
    }
    appended = tmp_path / "appended.jsonl"
    appended.write_text("\n".join(lines + [reserialize(forged)]) + "\n")
    outcome = verify_trace(appended)
    assert not outcome.ok


def test_every_failure_names_a_line(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    target = next(i for i, ln in enumerate(lines) if '"kind":"ResultCalculated"' in ln)
    obj = json.loads(lines[target])
    obj["payload"]["final_score"] = 0.123
    lines[target] = reserialize(obj)
    mutant = tmp_path / "lineno.jsonl"
    mutant.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(mutant)
    assert outcome.line == target + 1


def _first_settlement(o):
    return o["kind"] == "ResultCalculated"


@pytest.mark.parametrize(
    "name,fn",
    [
        ("final_score", lambda o: _first_settlement(o)
            and o["payload"].__setitem__("final_score", float("inf")) is None),
        ("reputation", lambda o: _first_settlement(o)
            and o["payload"]["players"][0].__setitem__("reputation", float("nan")) is None),
        ("weight_epsilon", lambda o: o.get("kind") == "genesis"
            and o.__setitem__("weight_epsilon", float("-inf")) is None),
    ],
)
def test_non_finite_numbers_fail_on_their_line(genuine, tmp_path, name, fn):
    mutant = write_mutant(genuine, tmp_path, fn, name)
    line = next(
        i + 1 for i, ln in enumerate(mutant.read_text().splitlines())
        if "Infinity" in ln or "NaN" in ln
    )
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == line
    assert "non-finite" in outcome.error


SMOKE = Path(__file__).parent.parent / "scenarios" / "smoke.json"


@pytest.fixture(scope="module")
def smoke_trace(tmp_path_factory):
    from attestsim.scenario import load_config

    out = tmp_path_factory.mktemp("smoke")
    return Path(write_outputs(run(load_config(SMOKE)), out)["trace"])


def test_unrebuildable_message_fails_on_its_line(smoke_trace, tmp_path):
    mutant = write_mutant(
        smoke_trace, tmp_path,
        lambda o: o.get("kind") == "Registered"
        and o["payload"].__setitem__("signature", "zz" + o["payload"]["signature"][2:]) is None,
        "signature",
    )
    line = next(
        i + 1 for i, ln in enumerate(mutant.read_text().splitlines())
        if '"kind":"Registered"' in ln
    )
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == line
    assert outcome.error.startswith("replay failed: ValueError")


def test_unusable_replay_constants_fail_on_the_header(genuine, tmp_path):
    mutant = write_mutant(
        genuine, tmp_path,
        lambda o: o.get("kind") == "genesis" and o.__setitem__("commit_window", 0) is None,
        "commit_window",
    )
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == 1
    assert "replay failed" in outcome.error


def test_replay_crash_names_the_first_event_it_did_not_produce(genuine, tmp_path):
    # The mirror accepts a negative weight epsilon; the contract's first
    # settlement raises before it moves any money.
    mutant = write_mutant(
        genuine, tmp_path,
        lambda o: o.get("kind") == "genesis" and o.__setitem__("weight_epsilon", -1.0) is None,
        "weight_epsilon",
    )
    lines = mutant.read_text().splitlines()
    line = next(i for i, ln in enumerate(lines) if '"kind":"ResultCalculated"' in ln)
    while '"kind":"Transfer"' in lines[line - 1]:
        line -= 1
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == line + 1
    assert "replay failed" in outcome.error
