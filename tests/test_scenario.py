import copy
import csv
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus import RAW_CORPUS, corpus_configs, fixed, scenario, truthful

from attestsim.cli import main
from attestsim.ledger import PAYLOAD_KEYS, LedgerEvent
from attestsim.money import format_micro
from attestsim.scenario import (
    ScenarioValidationError,
    load_config,
    run,
    validate_config,
    write_outputs,
)
from attestsim.verify import _HEX_ARGS, verify_trace

SMOKE = Path(__file__).parent.parent / "scenarios" / "smoke.json"


def base_raw():
    return copy.deepcopy(RAW_CORPUS["unanimity_valid"])


class Int(int):
    """An `int` subclass, which no input boundary takes for an integer."""


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


def test_an_unusable_id_is_not_checked_against_the_other_ids():
    raw = base_raw()
    raw["players"][0]["id"] = "_invalid_1"
    raw["players"][1]["id"] = ""
    with pytest.raises(ScenarioValidationError) as exc:
        validate_config(raw)
    assert exc.value.violations == ["players[1].id: must be a non-empty string"]


@pytest.mark.parametrize("version", [True, 1.0])
def test_validation_requires_schema_version_to_be_the_integer_1(version):
    raw = base_raw()
    raw["schema_version"] = version
    with pytest.raises(ScenarioValidationError) as exc:
        validate_config(raw)
    assert exc.value.violations == ["schema_version: expected 1"]


@pytest.mark.parametrize(
    "section,key", [("constants", "commit_window"), ("constants", "reveal_window"),
                    ("constants", "feedback_size"), (None, "rounds")],
)
def test_validation_refuses_an_int_subclass_where_an_integer_belongs(section, key):
    raw = base_raw()
    (raw[section] if section else raw)[key] = Int(5)
    with pytest.raises(ScenarioValidationError) as exc:
        validate_config(raw)
    label = f"{section}.{key}" if section else key
    assert exc.value.violations == [f"{label}: must be an integer"]


def test_validation_rejects_an_id_holding_a_lone_surrogate(tmp_path, capsys):
    raw = base_raw()
    raw["players"][1]["id"] = "p\ud800"
    with pytest.raises(ScenarioValidationError) as exc:
        validate_config(raw)
    assert exc.value.violations == ["players[1].id: must be UTF-8 text"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert '"p\\ud800"' in path.read_text()  # the JSON escape a scenario file can carry
    assert main(["run", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario: players[1].id: must be UTF-8 text" in err
    assert "Traceback" not in err


def test_validation_requires_two_evaluation_players():
    raw = scenario([truthful("only", 0.9)])
    with pytest.raises(ScenarioValidationError, match="at least 2"):
        validate_config(raw)


@pytest.mark.parametrize(
    "strategy",
    [
        {"kind": "truthful_effort", "quality": True},
        {"kind": "guess", "bias": False},
        {"kind": "colluder", "group": [1, 2], "target": 1},
        {"kind": "colluder", "group": None, "target": 1},
        {"kind": "colluder", "group": "", "target": 1},
        {"kind": "truthful_effort", "quality": 10**400},
        {"kind": "fixed_vote", "vote": Int(1)},
        {"kind": "colluder", "group": "ring", "target": Int(1)},
    ],
)
def test_validation_rejects_boolean_and_malformed_strategy_parameters(strategy):
    raw = base_raw()
    raw["players"][2]["strategy"] = strategy
    with pytest.raises(ScenarioValidationError) as exc:
        validate_config(raw)
    assert [v.split(":")[0] for v in exc.value.violations] == ["players[2].strategy"]


def test_validation_money_and_threshold_parse_exactly():
    config = validate_config(base_raw())
    assert config.effort_cost_micro == 1_000_000
    assert config.epsilon_micro == 1_000
    assert float(config.quality_threshold) == 0.75
    # defaults: rounds = number of designs, vendor funds = sum of collaterals
    assert config.rounds == 1
    assert config.vendor_funds_micro == 15_000_000


@pytest.mark.parametrize(
    "collaterals,rounds",
    [(["15"], 1), (["15"], 4), (["1", "2.5", "7"], 2), (["1", "2.5", "7"], 3), (["1", "2.5", "7"], 8)],
)
def test_default_vendor_funds_are_every_rounds_collateral(collaterals, rounds):
    raw = base_raw()
    raw["designs"] = [{"valid": True, "collateral": c} for c in collaterals]
    raw["rounds"] = rounds
    micro = [int(float(c) * 1_000_000) for c in collaterals]
    expected = sum(micro[i % len(micro)] for i in range(rounds))
    assert validate_config(raw).vendor_funds_micro == expected


def test_default_vendor_funds_hold_nothing_per_round():
    """A million rounds validate in well under 1 MiB (one list slot per
    round peaked at 8 MiB)."""
    raw = base_raw()
    raw["rounds"] = 10**6
    tracemalloc.start()
    try:
        config = validate_config(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert config.vendor_funds_micro == 10**6 * 15_000_000
    assert peak < 2**20


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
    header = json.loads(report.genesis)
    assert header["seed"] == 99
    assert header["payment_variant"] == "derivation"
    assert report.seed == 99


class _Seed(int):
    """An int subclass, which the seed rule refuses as it refuses a bool."""


@pytest.mark.parametrize("seed", [-1, 2**64, True, "7",
                                  pytest.param(_Seed(7), id="int_subclass")])
def test_out_of_range_seed_override_is_a_value_error(seed):
    with pytest.raises(ValueError, match="seed"):
        run(corpus_configs()["unanimity_valid"], seed=seed)


def test_a_seed_of_an_int_subclass_is_a_violation():
    raw = base_raw()
    raw["seed"] = _Seed(7)
    with pytest.raises(ScenarioValidationError) as exc:
        validate_config(raw)
    assert exc.value.violations == ["seed: must be an unsigned 64-bit integer"]


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
        paths = write_outputs(report, tmp_path / name)
        outcome = verify_trace(paths["trace"])
        assert outcome.ok, (name, outcome.error, outcome.line)


def test_a_late_joiner_settles_beside_veterans_under_a_split_vote(tmp_path):
    """A first-time voter's weight basis is `WEIGHT_EPSILON`, not 1, where it
    counts: design 0's collateral of 2 rewards only two players, so `a` and
    `b` vote there and `c` and `d` join design 1 with a count of 0, `c`
    against the rest. The run's own referee check would stop the run if
    the two disagreed."""
    raw = scenario([fixed("a", 1), fixed("b", 1), fixed("c", -1), truthful("d")],
                   designs=((True, "2"), (True, "5")))
    paths = write_outputs(run(validate_config(raw)), tmp_path)
    assert verify_trace(paths["trace"])
    settlements = [json.loads(line)["payload"] for line in Path(paths["trace"]).read_text().splitlines()
                   if '"kind":"ResultCalculated"' in line]
    assert [len(s["players"]) for s in settlements] == [2, 4]
    rows = settlements[1]["players"]
    assert {r["player"]: r["count"] for r in rows} == {"a": 1, "b": 1, "c": 0, "d": 0}
    assert {r["vote"] for r in rows} == {-1, 1}


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


def test_streamed_trace_is_the_report_trace_and_drains_nothing(tmp_path):
    report = run(load_config(SMOKE))
    first = write_outputs(report, tmp_path / "first")
    second = write_outputs(report, tmp_path / "second")
    assert Path(first["trace"]).read_text() == "\n".join(report.trace_lines()) + "\n"
    for name, path in first.items():
        assert Path(path).read_bytes() == Path(second[name]).read_bytes(), name


def _smoke_config(rounds: int):
    raw = json.loads(SMOKE.read_text())
    raw["rounds"] = rounds
    return validate_config(raw)


def _write_transient(report, out_dir) -> tuple:
    """(tracemalloc peak beyond what is held, paths) of one `write_outputs`,
    after a warm-up write for lazy imports and caches."""
    write_outputs(report, out_dir)
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        paths = write_outputs(report, out_dir)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held, paths


def test_writing_the_trace_holds_under_half_its_size(tmp_path):
    """write_outputs streams every output: the trace one line at a time
    (building every line first peaked at 1.35 times the trace) and
    summary.json chunk by chunk, so the write's transient does not grow with
    rounds (building the summary text first made it 1.74 times as large at
    400 smoke rounds as at 100)."""
    short, _ = _write_transient(run(_smoke_config(100)), tmp_path / "short")
    transient, paths = _write_transient(run(_smoke_config(400)), tmp_path / "long")
    assert transient < Path(paths["trace"]).stat().st_size / 2
    assert transient <= 1.2 * short


def test_a_run_holds_at_most_240_bytes_per_event():
    """A run holds every event as one flat tuple with its `seq` implied,
    every bytes value (design hash, signature, digest, blinding) raw as the
    message carried it, so a player's `Registered` events share one
    signature object, and one int per tick: at 400 smoke rounds about 201 B
    per event (a value tuple with hex digests held 300, a payload dict per
    event 446)."""
    config = _smoke_config(400)
    run(config)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        report = run(config)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(report.events) <= 240
    raw = [e[3:][0] for e in report.events if e.kind in ("Committed", "Revealed")]
    raw += [e[3:][2] for e in report.events if e.kind == "NewDesign"]  # design hashes
    signatures = [e[3:][3] for e in report.events if e.kind == "Registered"]
    assert raw and signatures and all(type(value) is bytes for value in raw + signatures)
    assert len({id(s) for s in signatures}) == len(set(signatures))


def test_a_payload_value_is_held_as_bytes_exactly_when_the_trace_writes_it_as_hex():
    """The keys the replay decodes from hex, `verify._HEX_ARGS`, are exactly
    those whose values a run holds as bytes; `payload` gives their hex."""
    for name, config in {**corpus_configs(), "smoke": load_config(SMOKE)}.items():
        for event in run(config).events:
            payload = event.payload
            for key, value in zip(PAYLOAD_KEYS[event.kind], event[3:], strict=True):
                assert (type(value) is bytes) == (key in _HEX_ARGS), (name, event.kind, key)
                assert payload[key] == (value.hex() if key in _HEX_ARGS else value), (name, key)


def test_payouts_name_a_settlement_row_without_confirmed_receipt(tmp_path):
    # The manager confirms receipt for every registered player, so no run
    # logs received=false; the report still names such a row's reason.
    report = run(corpus_configs()["unanimity_valid"])
    i, event = next((i, e) for i, e in enumerate(report.events) if e.kind == "ResultCalculated")
    first = dict(event.payload["players"][0], received=False, vote=None)
    payload = dict(event.payload, players=[first, *event.payload["players"][1:]])
    report.events[i] = LedgerEvent((event.tick, event.kind, event.design, *payload.values()))
    with open(write_outputs(report, tmp_path)["payouts"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert (rows[0]["player"], rows[0]["reason"]) == (first["player"], "not_received")
    assert {row["reason"] for row in rows[1:]} == {"agree"}


def test_each_payout_reason_names_the_amount_of_line_1(tmp_path):
    """The writer reads agree, disagree and neutral from a payout's sign;
    each such row pays exactly the header's reward, its penalty or 0. A
    neutral row occurs in an evaluation round too: a lone receiver, or one
    whose other receivers' votes cancel."""
    reasons = set()
    for name, config in {**corpus_configs(), "smoke": load_config(SMOKE)}.items():
        report = run(config)
        header = json.loads(report.genesis)
        expected = {"agree": format_micro(header["reward_micro"]),
                    "disagree": format_micro(header["penalty_micro"]),
                    "neutral": format_micro(0)}
        with open(write_outputs(report, tmp_path / name)["payouts"], newline="") as fh:
            for row in csv.DictReader(fh):
                if row["reason"] in expected:
                    reasons.add((row["reason"], row["round"]))
                    assert row["amount"] == expected[row["reason"]], (name, row)
    assert {reason for reason, _ in reasons} == {"agree", "disagree", "neutral"}
    assert ("neutral", "evaluation") in reasons


def test_feedback_size_larger_than_buyer_pool_is_clamped():
    raw = scenario(
        [truthful(f"p{i}", 1.0) for i in range(3)]
        + [truthful("b0", 1.0, phase="feedback")],
        feedback_size=10,
        seed=77,
    )
    report = run(validate_config(raw))
    assert report.design_rows[0]["final_phase"] in {"attested", "removed", "annulled"}


# ------------------------------------------- mutated configs (ROADMAP item 5)

MONEY = st.one_of(
    st.decimals(min_value="0.000001", max_value=50, places=6).map(str),
    st.integers(min_value=1, max_value=2000),
    st.sampled_from(["0", "-1", "0.0000001", "abc", None]),
)
WINDOWS = st.integers(min_value=-1, max_value=9)
COUNTS = st.integers(min_value=-1, max_value=5)
THRESHOLDS = st.one_of(
    st.decimals(min_value="0.50000001", max_value=1, places=8).map(str),
    st.sampled_from(["0.5", "1.000001", "0.99999999999999999", "x", 0.8, 2]),
)
PROBABILITIES = st.one_of(
    st.floats(min_value=-0.5, max_value=1.5),
    st.sampled_from([True, False, None, "0.9", "1.5", "-0.1", "x", 10**400]),
)
SIGNS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([True, False, None, "1", "-1", 1.0]),
)
MUTABLE = {
    "quality_threshold": THRESHOLDS,
    "payment_variant": st.sampled_from(["simplified", "derivation", "bogus"]),
    "effort_cost": MONEY,
    "epsilon": MONEY,
    "commit_window": WINDOWS,
    "reveal_window": WINDOWS,
    "feedback_size": COUNTS,
    "rounds": COUNTS,
    "vendor_funds": MONEY,
    "collateral": MONEY,
    "deposit": MONEY,
    "funds": MONEY,
    "quality": PROBABILITIES,
    "bias": PROBABILITIES,
    "vote": SIGNS,
    "target": SIGNS,
    "group": st.sampled_from(["ring", "other", "", None, True, [1, 2], 7]),
    "phase": st.sampled_from(["evaluation", "feedback", "buyer", None, True]),
    "seed": st.one_of(
        st.integers(min_value=-1, max_value=2**64),
        st.sampled_from([2**64 - 1, True, "7", 1.5, None]),
    ),
    # A player's id may also be redrawn as another player's (a duplicate).
    "id": st.sampled_from(["", 7, None, True, "vendor", "manager", "contract", "\ud800", "x"]),
    "valid": st.sampled_from([True, False, None, 1, "true"]),
    "kind": st.sampled_from(
        ["truthful_effort", "guess", "free_ride", "fixed_vote", "colluder", "abstain", "bogus", None, 1]
    ),
}


# A redrawn roster: 2 to 192 players, each of a valid strategy of any kind in
# either phase, with the deposit and funds of the entry's first player.
STRATEGIES = st.one_of(
    st.floats(min_value=0.5, max_value=1).map(lambda q: {"kind": "truthful_effort", "quality": q}),
    st.floats(min_value=0, max_value=1).map(lambda b: {"kind": "guess", "bias": b}),
    st.sampled_from([-1, 0, 1]).map(lambda v: {"kind": "fixed_vote", "vote": v}),
    st.sampled_from([-1, 1]).map(lambda t: {"kind": "colluder", "group": "ring", "target": t}),
    st.sampled_from(["free_ride", "abstain"]).map(lambda kind: {"kind": kind}),
)
ROSTERS = st.sampled_from([2, 12, 48, 192]).flatmap(
    lambda n: st.lists(st.tuples(STRATEGIES, st.sampled_from(["evaluation", "feedback"])),
                       min_size=n, max_size=n)
)


def mutated_corpus_config(name, data) -> dict:
    """A deep copy of `RAW_CORPUS[name]`, its roster redrawn or not, with one
    to four MUTABLE fields redrawn."""
    raw = copy.deepcopy(RAW_CORPUS[name])
    if data.draw(st.booleans(), label="redraw roster"):
        first = raw["players"][0]
        raw["players"] = [
            {"id": f"r{i:03d}", "strategy": strategy, "deposit": first["deposit"],
             "funds": first["funds"], "phase": phase}
            for i, (strategy, phase) in enumerate(data.draw(ROSTERS, label="roster"))
        ]
    ids = st.sampled_from([p["id"] for p in raw["players"]])
    fields = [(raw["constants"], key) for key in raw["constants"] if key in MUTABLE]
    fields += [(raw, "rounds"), (raw, "vendor_funds"), (raw, "seed")]
    fields += [(design, key) for design in raw["designs"] for key in ("valid", "collateral")]
    fields += [(p, key) for p in raw["players"] for key in ("id", "deposit", "funds", "phase")]
    fields += [(p["strategy"], key) for p in raw["players"] for key in p["strategy"] if key in MUTABLE]
    for owner, key in data.draw(st.lists(st.sampled_from(fields), min_size=1, max_size=4)):
        owner[key] = data.draw(MUTABLE[key] | ids if key == "id" else MUTABLE[key], label=key)
    return raw


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(RAW_CORPUS)), data=st.data())
def test_mutated_corpus_config_runs_or_fails_as_a_config_error(name, data):
    raw = mutated_corpus_config(name, data)
    try:
        config = validate_config(raw)
    except ScenarioValidationError:
        return
    try:
        report = run(config)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as out:
        outcome = verify_trace(write_outputs(report, out)["trace"])
    assert outcome.ok, (outcome.error, outcome.line)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(RAW_CORPUS)), data=st.data())
def test_mutated_corpus_config_exits_0_or_1_through_the_cli(name, data):
    """`attest run` on a mutated config exits 0 or 1 and never raises; a
    trace it writes passes `attest verify-trace`."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(json.dumps(mutated_corpus_config(name, data)))
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert code in (0, 1)
        if code == 0:
            assert main(["verify-trace", str(out / "trace.jsonl")]) == 0
