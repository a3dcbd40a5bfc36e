"""Output checks made apart from attestsim, in the benchmark's own arithmetic.

`check_trace` streams one trace.jsonl and recomputes, with exact rationals
and without importing attestsim:

- conservation: every Transfer replayed from the genesis balances, no
  balance ever negative, the total unchanged at the end;
- the header's reward_micro and penalty_micro from the paper's formulas;
- each settlement's result from its logged final_score against the
  threshold, compared exactly;
- each payout by class: annulled and not-received pay 0, a silent or zero
  vote pays the penalty, otherwise reward, penalty or 0 by the exact sign
  of the leave-one-out sum (one pass over the roster per settlement);
  feedback rounds pay nothing;
- each vendor_refund as collateral minus the sum of payouts.

It also returns what the workload-level checks need: per-player payouts
and commit counts (for utilities), final phases and roster sizes.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction

MICRO = 10**6


def schedule_micro(effort_cost: Fraction, threshold: Fraction, epsilon: Fraction, variant: str):
    """(reward, penalty) in micro-units, rounded half-even like the ledger.

    simplified: C / (2 q^2); derivation: 2C / (m^2 + m) with m = 2q - 1;
    the penalty is the negated reward less epsilon.
    """
    if variant == "simplified":
        reward = effort_cost / (2 * threshold * threshold)
    elif variant == "derivation":
        margin = 2 * threshold - 1
        reward = 2 * effort_cost / (margin * margin + margin)
    else:
        raise ValueError(f"unknown payment variant {variant!r}")
    return round(reward * MICRO), round((-reward - epsilon) * MICRO)


def decide(score: Fraction, threshold: Fraction) -> int:
    if score > threshold:
        return 1
    if score < 1 - threshold:
        return -1
    return 0


def expected_payouts(rows, result: int, weight_epsilon: Fraction, reward: int, penalty: int):
    """Evaluation-round payouts recomputed from the logged settlement rows.

    Weights share the positive denominator sum(basis), so the sign of a
    weighted sum is the sign of the same sum over vote * reputation * basis.
    """
    if result == 0:
        return [0] * len(rows)
    influence = []
    for row in rows:
        if not row["received"]:
            influence.append(Fraction(0))
            continue
        basis = Fraction(row["count"]) if row["count"] > 0 else weight_epsilon
        influence.append((row["vote"] or 0) * Fraction(row["reputation"]) * basis)
    total = sum(influence, Fraction(0))
    payouts = []
    for row, own in zip(rows, influence):
        if not row["received"]:
            payouts.append(0)
        elif not row["vote"]:
            payouts.append(penalty)
        else:
            rest = total - own
            if own == 0 or rest == 0:
                payouts.append(0)
            else:
                payouts.append(reward if (own > 0) == (rest > 0) else penalty)
    return payouts


class TraceFacts:
    """What one trace says, as recomputed by `check_trace`."""

    def __init__(self):
        self.problems: list = []
        self.sha256 = ""
        self.balances: dict = {}
        self.payouts = Counter()  # player -> micro
        self.commits = Counter()  # player -> Committed events
        self.final_phase: dict = {}  # design -> phase after its last settlement
        self.eval_roster: dict = {}  # design -> evaluation roster size
        self.effort_cost_micro = 0
        self.reward_micro = 0
        self.collateral: dict = {}  # design -> collateral posted
        self.settlements = Counter()  # (round, result) -> count
        self.payout_classes = Counter()  # silent / zero_vote / agree / ...

    def problem(self, line_no: int, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"line {line_no}: {text}")


def check_trace(path) -> TraceFacts:
    facts = TraceFacts()
    digest = hashlib.sha256()
    collateral = facts.collateral
    with open(path, "rb") as fh:
        header_line = fh.readline()
        digest.update(header_line)
        header = json.loads(header_line)
        if header.get("kind") != "genesis":
            facts.problem(1, "first line is not the genesis header")
            return facts
        threshold = Fraction(header["quality_threshold"])
        facts.effort_cost_micro = header["effort_cost_micro"]
        facts.reward_micro = header["reward_micro"]
        reward, penalty = schedule_micro(
            Fraction(header["effort_cost_micro"], MICRO), threshold,
            Fraction(header["epsilon_micro"], MICRO), header["payment_variant"],
        )
        if (reward, penalty) != (header["reward_micro"], header["penalty_micro"]):
            facts.problem(1, f"schedule ({header['reward_micro']}, {header['penalty_micro']}) "
                             f"!= formula ({reward}, {penalty})")
        weight_epsilon = Fraction(header["weight_epsilon"])
        balances = dict(header["genesis_balances"])
        genesis_total = sum(balances.values())

        for line_no, line in enumerate(fh, start=2):
            digest.update(line)
            event = json.loads(line)
            kind, payload, design = event["kind"], event["payload"], event["design"]
            if kind == "Transfer":
                amount = payload["amount"]
                if not isinstance(amount, int) or amount < 0:
                    facts.problem(line_no, f"bad transfer amount {amount!r}")
                    continue
                balances[payload["from"]] -= amount
                balances[payload["to"]] += amount
                if balances[payload["from"]] < 0:
                    facts.problem(line_no, f"{payload['from']} went negative")
            elif kind == "NewDesign":
                collateral[design] = payload["collateral"]
            elif kind == "Committed":
                facts.commits[payload["player"]] += 1
            elif kind == "ResultCalculated":
                _check_settlement(facts, line_no, design, payload, threshold, weight_epsilon,
                                  reward, penalty, collateral)

    if sum(balances.values()) != genesis_total:
        facts.problem(0, f"total {sum(balances.values())} != genesis {genesis_total}")
    facts.balances = balances
    facts.sha256 = digest.hexdigest()
    return facts


def _check_settlement(facts, line_no, design, payload, threshold, weight_epsilon,
                      reward, penalty, collateral) -> None:
    rows = payload["players"]
    result = payload["result"]
    expected_result = decide(Fraction(payload["final_score"]), threshold)
    if result != expected_result:
        facts.problem(line_no, f"result {result}, threshold says {expected_result}")
    facts.settlements[(payload["round"], result)] += 1
    if payload["round"] == "evaluation":
        facts.eval_roster[design] = len(rows)
        expected = expected_payouts(rows, result, weight_epsilon, reward, penalty)
        refund = collateral.get(design, 0) - sum(row["payout"] for row in rows)
        if payload["vendor_refund"] != refund:
            facts.problem(line_no, f"vendor_refund {payload['vendor_refund']}, expected {refund}")
    else:
        expected = [0] * len(rows)
        if payload["vendor_refund"] is not None:
            facts.problem(line_no, "feedback settlement refunds the vendor")
    for row, want in zip(rows, expected):
        if row["payout"] != want:
            facts.problem(line_no, f"payout of {row['player']} is {row['payout']}, expected {want}")
        facts.payouts[row["player"]] += row["payout"]
        if payload["round"] == "evaluation" and result != 0 and row["received"]:
            facts.payout_classes[_payout_class(row, reward, penalty)] += 1
    facts.final_phase[design] = payload["phase"]


def _payout_class(row, reward: int, penalty: int) -> str:
    if row["vote"] is None:
        return "silent"
    if row["vote"] == 0:
        return "zero_vote"
    return {reward: "agree", penalty: "disagree"}.get(row["payout"], "neutral")


def utilities(facts: TraceFacts, truthful: set) -> dict:
    """Payout income less effort: truthful players pay the effort cost once
    per committed vote (each commit follows one observation)."""
    players = set(facts.payouts) | set(facts.commits)
    return {
        p: facts.payouts[p] - (facts.commits[p] * facts.effort_cost_micro if p in truthful else 0)
        for p in players
    }


def check_summary(facts: TraceFacts, summary_path, truthful: set) -> list:
    """summary.json's balances and utilities against the recomputed ones."""
    with open(summary_path) as fh:
        summary = json.load(fh)
    utility = utilities(facts, truthful)
    problems = []
    if summary["conservation_ok"] is not True:
        problems.append("summary reports broken conservation")
    for row in summary["players"]:
        player = row["player"]
        if row["final_balance_micro"] != facts.balances.get(player):
            problems.append(f"summary balance of {player} disagrees with the transfers")
        if row["utility_micro"] != utility.get(player, 0):
            problems.append(f"summary utility of {player} is {row['utility_micro']}, "
                            f"recomputed {utility.get(player, 0)}")
    return problems

