import csv
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from corpus import corpus_configs

from attestsim.agents import (
    Abstain,
    Agent,
    FixedVote,
    FreeRide,
    Guess,
    IdentityProvider,
    TruthfulEffort,
    decide_vote,
    observe,
    strategy_from_config,
    utility_micro,
)
from attestsim.crypto import verify_account_signature
from attestsim.money import to_micro
from attestsim.scenario import run, write_outputs


def test_strategy_parsing_all_kinds():
    assert strategy_from_config({"kind": "truthful_effort", "quality": 0.9}) == TruthfulEffort(0.9)
    assert strategy_from_config({"kind": "truthful_effort", "quality": "0.9"}) == TruthfulEffort(0.9)
    assert strategy_from_config({"kind": "guess", "bias": 0.25}) == Guess(0.25)
    assert strategy_from_config({"kind": "free_ride"}) == FreeRide()
    assert strategy_from_config({"kind": "fixed_vote", "vote": -1}) == FixedVote(-1)
    assert strategy_from_config({"kind": "colluder", "group": "g", "target": 1}) == FixedVote(1)
    assert strategy_from_config({"kind": "colluder", "group": "h", "target": -1}) == FixedVote(-1)
    assert strategy_from_config({"kind": "abstain"}) == Abstain()


def test_strategy_parsing_rejects_bad_input():
    with pytest.raises(ValueError):
        strategy_from_config({"kind": "nope"})
    with pytest.raises(ValueError):
        strategy_from_config({"kind": "truthful_effort", "quality": 0.3})
    with pytest.raises(ValueError):
        strategy_from_config({"kind": "fixed_vote", "vote": 2})
    with pytest.raises(ValueError):
        strategy_from_config({"kind": "fixed_vote", "vote": True})
    with pytest.raises(ValueError):
        strategy_from_config({"kind": "colluder", "group": "g", "target": 0})
    with pytest.raises(TypeError):
        strategy_from_config({"kind": "guess", "bias": 0.5, "extra": 1})


def test_observation_channel_frequency_and_cost():
    rng = random.Random(123)
    agent = Agent("a", TruthfulEffort(0.9))
    draws = 10_000
    correct = sum(observe(agent, True, rng) == 1 for _ in range(draws))
    assert agent.effort_count == draws
    assert abs(correct / draws - 0.9) < 0.02
    # flipped truth flips the correct sign
    agent2 = Agent("b", TruthfulEffort(0.9))
    correct_neg = sum(observe(agent2, False, rng) == -1 for _ in range(draws))
    assert abs(correct_neg / draws - 0.9) < 0.02


def test_observe_only_applies_to_truthful_agents():
    with pytest.raises(ValueError):
        observe(Agent("g", Guess(0.5)), True, random.Random(0))


def test_decide_vote_per_strategy():
    rng = random.Random(7)
    assert decide_vote(Agent("x", FixedVote(0)), True, rng) == 0
    colluder = strategy_from_config({"kind": "colluder", "group": "g", "target": -1})
    assert decide_vote(Agent("x", colluder), True, rng) == -1
    assert decide_vote(Agent("x", FreeRide()), True, rng) is None
    assert decide_vote(Agent("x", Abstain()), True, rng) is None
    assert decide_vote(Agent("x", Guess(1.0)), False, rng) == 1
    assert decide_vote(Agent("x", Guess(0.0)), True, rng) == -1
    truthful = Agent("x", TruthfulEffort(1.0))
    assert decide_vote(truthful, False, rng) == -1
    assert truthful.effort_count == 1


def test_roster_participation_flags():
    assert Agent("x", Abstain()).registers() is False
    assert Agent("x", FreeRide()).registers() is True
    assert Agent("x", FreeRide()).commits() is False
    assert Agent("x", FixedVote(1)).commits() is True


def test_utility_is_income_minus_effort():
    agent = Agent("x", TruthfulEffort(0.9))
    agent.payout_micro = 888_889 - 889_889
    agent.effort_count = 2
    assert utility_micro(agent, 1_000_000) == 888_889 - 889_889 - 2_000_000


def test_identity_provider_signs_verifiably_and_caches():
    identity = IdentityProvider(b"\x42" * 32)
    sig = identity.signature_for("alice")
    assert identity.signature_for("alice") is sig
    assert verify_account_signature(identity.public_key, "alice", sig)
    assert not verify_account_signature(identity.public_key, "bob", sig)


# ------------------------------------------------ strategy-level economics

def test_colluding_ring_loses_money_when_outvoted():
    """8 honest voters vs a 3-seat ring at a threshold the majority clears:
    the ring's utility is negative in the vast majority of seeded runs."""
    config = corpus_configs()["colluders_outvoted"]
    ring_losses = 0
    runs = 60
    for i in range(runs):
        report = run(config, seed=1000 + i)
        ring = [r["utility_micro"] for r in report.player_rows
                if r["player"].startswith("c")]
        assert len(ring) == 3
        if all(u < 0 for u in ring):
            ring_losses += 1
    assert ring_losses >= int(runs * 0.9)


def test_free_riders_lose_their_penalty_when_round_decides(tmp_path):
    config = corpus_configs()["free_riders_penalized"]
    report = run(config)
    riders = [r for r in report.player_rows if r["strategy"] == "free_ride"]
    assert riders and all(r["utility_micro"] < 0 for r in riders)
    # a free ride costs no effort, so the loss is exactly the penalty
    with open(write_outputs(report, tmp_path)["payouts"], newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["player"].startswith("fr")]
    assert rows
    for row in rows:
        assert row["reason"] == "no_reveal"
        assert to_micro(row["amount"]) < 0


def test_abstainers_end_exactly_where_they_started():
    config = corpus_configs()["abstainers"]
    report = run(config)
    for row in report.player_rows:
        if row["strategy"] == "abstain":
            assert row["utility_micro"] == 0
            assert row["final_balance_micro"] == 100_000_000
            assert row["final_reputation"] is None
