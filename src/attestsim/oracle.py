"""Exact referee for the trust formulas.

Everything here recomputes the scoring and settlement arithmetic with no
rounding and no shared code with the float implementations in `trust`.
Trace verification and the test suite use these functions as the
independent source of truth; the float path is required to land within
1e-12 of them.

The referee decides on exact integers, in O(n) per settlement of a roster
of n. Its inputs are ints, floats (dyadic rationals) or Fractions, so
`as_integer_ratio()` turns every reputation x weight into an integer over
one common denominator. Each influence and their total are formed once; a
player's rest of the roster is the total less its own influence; and the
result and every agreement sign are integer comparisons, decided by
cross-multiplication instead of by building Fractions (Shewchuk's exact
predicates, 1997).

`settle_exact` is the referee's one settlement: it reads a round's logged
rows once, forms the weight bases and scales the influences once, and
decides the score, the result and every payout from them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .money import MICRO


def weight_exact(transaction_counts: dict, subject) -> Fraction:
    total = sum((Fraction(transaction_counts[p]) for p in transaction_counts), Fraction(0))
    if total == 0:
        return Fraction(1, len(transaction_counts))
    return Fraction(transaction_counts[subject]) / total


def scaled_influences(players, reputations: dict, weights: dict) -> dict:
    """reputation * weight for each of `players`, as integers over one
    common positive denominator, which is dropped. That keeps every sign
    and every ratio of sums, which is all a settlement compares."""
    ratios = {}
    for player in players:
        rep_num, rep_den = reputations[player].as_integer_ratio()
        weight_num, weight_den = weights[player].as_integer_ratio()
        ratios[player] = (rep_num * weight_num, rep_den * weight_den)
    common = math.lcm(*(den for _, den in ratios.values()))
    return {player: num * (common // den) for player, (num, den) in ratios.items()}


def _score(agreement: int, mass: int) -> Fraction:
    """(agreement / mass + 1) / 2 for a non-negative mass; 1/2 when it is zero."""
    if mass == 0:
        return Fraction(1, 2)
    return Fraction(agreement + mass, 2 * mass)


def decide_result_exact(final_score, quality_threshold) -> int:
    score_num, score_den = final_score.as_integer_ratio()
    threshold_num, threshold_den = quality_threshold.as_integer_ratio()
    if score_num * threshold_den > threshold_num * score_den:
        return 1
    if score_num * threshold_den < (threshold_den - threshold_num) * score_den:
        return -1
    return 0


def reward_exact(effort_cost, quality_threshold, variant: str = "simplified") -> Fraction:
    cost = Fraction(effort_cost)
    threshold = Fraction(quality_threshold)
    if variant == "simplified":
        return cost / (2 * threshold**2)
    if variant == "derivation":
        margin = 2 * threshold - 1
        return 2 * cost / (margin**2 + margin)
    raise ValueError(f"unknown payment variant {variant!r}")


def penalty_exact(effort_cost, quality_threshold, epsilon, variant: str = "simplified") -> Fraction:
    return -reward_exact(effort_cost, quality_threshold, variant) - Fraction(epsilon)


def quantize_micro(amount: Fraction) -> int:
    """Round-half-even to integer micro-units, mirroring the ledger boundary."""
    return round(amount * MICRO)


def agreement_sign_exact(own: int, total: int) -> int:
    """+1 if a player's signed influence `own` shares the sign of the rest of
    the roster's, `total - own`; -1 if they oppose; 0 if either is zero."""
    rest = total - own
    if own == 0 or rest == 0:
        return 0
    return 1 if (own > 0) == (rest > 0) else -1


def settle_exact(
    rows: list,
    weight_epsilon,
    quality_threshold,
    reward_micro: int,
    penalty_micro: int,
    pays: bool,
) -> tuple:
    """(exact final score, result, micro-unit payouts) of one round, from
    its logged rows: `player`, `received`, `vote` (None if unrevealed),
    `reputation` and the participation `count`.

    A receiver's weight basis is its count, or `weight_epsilon` for a
    first-time voter. The bases' positive sum cancels from the score and
    every agreement sign, so they stand in for the weights; an all-zero
    roster splits evenly. A round that does not pay (feedback) or annuls
    settles everyone at 0; silence or a 0 vote after receipt owes the
    penalty; other revealers settle by agreement with the other receivers.
    """
    votes, reputations, basis = {}, {}, {}
    for row in rows:
        if row["received"]:
            player = row["player"]
            votes[player] = row["vote"] or 0
            reputations[player] = row["reputation"]
            basis[player] = row["count"] if row["count"] > 0 else weight_epsilon
    if not any(basis.values()):
        basis = dict.fromkeys(basis, 1)
    influence = scaled_influences(votes, reputations, basis)
    signed = {player: votes[player] * influence[player] for player in votes}
    total = sum(signed.values())
    score = _score(total, sum(influence.values()))
    result = decide_result_exact(score, quality_threshold)

    payouts = {}
    for row in rows:
        player = row["player"]
        if not pays or result == 0 or not row["received"]:
            payouts[player] = 0
        elif not votes[player]:
            payouts[player] = penalty_micro
        else:
            # A lone receiver's rest is zero, so it settles at 0.
            side = agreement_sign_exact(signed[player], total)
            payouts[player] = reward_micro if side > 0 else penalty_micro if side < 0 else 0
    return score, result, payouts
