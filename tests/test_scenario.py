import copy
import csv
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from corpus import RAW_CORPUS, corpus_configs, scenario, truthful

from attestsim.scenario import (
    ScenarioValidationError,
    load_config,
    run,
    validate_config,
    write_outputs,
)
from attestsim.verify import verify_trace

SMOKE = Path(__file__).parent.parent / "scenarios" / "smoke.json"


def base_raw():
    return copy.deepcopy(RAW_CORPUS["unanimity_valid"])


# ------------------------------------------------------------- validation

def test_validation_collects_every_violation_at_once():
    raw = base_raw()
    raw["seed"] = -1
    raw["constants"]["quality_threshold"] = "0.4"
    raw["constants"]["commit_window"] = 1
    raw["players"][0]["deposit"] = "0"
    with pytest.raises(ScenarioValidationError) as exc:
        validate_config(raw)
    text = str(exc.value)
    assert len(exc.value.violations) >= 4
    for phrase in ("seed", "quality_threshold", "commit_window", "deposit"):
        assert phrase in text


def test_validation_rejects_unknown_keys_everywhere():
    for mutate in (
        lambda r: r.update(surprise=1),
        lambda r: r["constants"].update(surprise=1),
        lambda r: r["players"][0].update(surprise=1),
        lambda r: r["designs"][0].update(surprise=1),
    ):
        raw = base_raw()
        mutate(raw)
        with pytest.raises(ScenarioValidationError, match="surprise"):
            validate_config(raw)


def test_validation_rejects_reserved_and_duplicate_ids():
    raw = base_raw()
    raw["players"][0]["id"] = "vendor"
    with pytest.raises(ScenarioValidationError, match="reserved"):
        validate_config(raw)
    raw = base_raw()
    raw["players"][1]["id"] = raw["players"][0]["id"]
    with pytest.raises(ScenarioValidationError, match="duplicate"):
        validate_config(raw)


def test_validation_requires_two_evaluation_players():
    raw = scenario([truthful("only", 0.9)])
    with pytest.raises(ScenarioValidationError, match="at least 2"):
        validate_config(raw)


def test_validation_money_and_threshold_parse_exactly():
    config = validate_config(base_raw())
    assert config.effort_cost_micro == 1_000_000
    assert config.epsilon_micro == 1_000
    assert float(config.quality_threshold) == 0.75
    # defaults: rounds = number of designs, vendor funds = sum of collaterals
    assert config.rounds == 1
    assert config.vendor_funds_micro == 15_000_000


def test_load_config_reads_the_sample_file():
    config = load_config(SMOKE)
    assert config.seed == 42
    assert config.feedback_size == 2
    assert len(config.players) == 8


# ------------------------------------------------------------ end to end

def test_same_seed_is_byte_identical_different_seed_is_not():
    config = load_config(SMOKE)
    first = run(config).trace_lines()
    second = run(config).trace_lines()
    assert first == second
    other = run(config, seed=43).trace_lines()
    assert first != other


def test_seed_and_variant_overrides_land_in_the_header():
    config = corpus_configs()["unanimity_valid"]
    report = run(config, seed=99, payment_variant="derivation")
    assert report.header["seed"] == 99
    assert report.header["payment_variant"] == "derivation"
    assert report.seed == 99


@pytest.mark.parametrize("seed", [-1, 2**64, True, "7"])
def test_out_of_range_seed_override_is_a_value_error(seed):
    with pytest.raises(ValueError, match="seed"):
        run(corpus_configs()["unanimity_valid"], seed=seed)


def test_unfundable_vendor_is_a_value_error_naming_the_design():
    raw = base_raw()
    raw["vendor_funds"] = "1"
    with pytest.raises(ValueError, match="design 0"):
        run(validate_config(raw))


def test_threshold_just_below_one_decides_exactly(tmp_path):
    # float("0.99999999999999999") == 1.0, so a float comparison would annul a
    # unanimous round that the exact threshold accepts.
    config = validate_config(scenario(
        [truthful(f"p{i}", quality=1.0) for i in range(4)],
        quality_threshold="0.99999999999999999",
    ))
    report = run(config)
    assert [row["result_eval"] for row in report.design_rows] == [1]
    paths = write_outputs(report, tmp_path)
    assert verify_trace(paths["trace"]).ok


def test_player_balances_tie_out_to_payouts():
    for name in ("unanimity_valid", "free_riders_penalized", "guessers_mixed",
                 "feedback_pass", "roster_cap_binding"):
        report = run(corpus_configs()[name])
        for row in report.player_rows:
            assert row["final_balance_micro"] == 100_000_000 + row["total_payout_micro"], (
                name, row["player"])


def test_every_corpus_run_conserves_and_verifies(tmp_path):
    for name, config in corpus_configs().items():
        report = run(config)
        assert report.conservation_ok, name
        paths = write_outputs(report, tmp_path / name)
        outcome = verify_trace(paths["trace"])
        assert outcome.ok, (name, outcome.error, outcome.line)


def test_written_outputs_have_the_documented_shape(tmp_path):
    report = run(load_config(SMOKE))
    paths = write_outputs(report, tmp_path)
    assert set(paths) == {"trace", "payouts", "reputation", "designs", "summary"}

    with open(paths["payouts"]) as fh:
        payouts = list(csv.DictReader(fh))
    assert payouts and set(payouts[0]) == {"design", "round", "player", "amount", "reason"}
    assert all(r["reason"] in {"annulled", "not_received", "no_reveal", "zero_vote",
                               "agree", "disagree", "neutral"} for r in payouts)

    with open(paths["reputation"]) as fh:
        reputation = list(csv.DictReader(fh))
    assert reputation and set(reputation[0]) == {"design", "round", "player", "before", "after"}

    summary = json.loads(Path(paths["summary"]).read_text())
    assert summary["conservation_ok"] is True
    assert len(summary["players"]) == 8

    lines = Path(paths["trace"]).read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "genesis"
    assert json.loads(lines[1])["seq"] == 0


def test_feedback_size_larger_than_buyer_pool_is_clamped():
    raw = scenario(
        [truthful(f"p{i}", 1.0) for i in range(3)]
        + [truthful("b0", 1.0, phase="feedback")],
        feedback_size=10,
        seed=77,
    )
    report = run(validate_config(raw))
    assert report.design_rows[0]["final_phase"] in {"attested", "removed", "annulled"}
