"""Trust scoring and settlement rules for two-phase design voting.

Votes are -1 (invalid), 0 (abstain/no reveal) or +1 (valid). Each player
carries a reputation in [0, 1] built from how their past votes lined up
with the decided outcomes, and a per-transaction weight proportional to
how many settled transactions they have taken part in. A transaction's
final score folds the roster's votes, reputations and weights into [0, 1];
the result is decided against a quality threshold strictly above one half.

Scores and reputations are binary floats computed in sorted key order, so
they are independent of map insertion order and bitwise reproducible.
A settlement reads its rows once and weighs the roster once, in O(n); its
decisions (the result and every agreement sign) are made on integers, the
exact rationals the floats represent over one common denominator. The
exact-rational mirror in `oracle` is this module's referee; keep the two
routes separate.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .money import MICRO, to_fraction

VALID_VOTES = (-1, 0, 1)
PAYMENT_VARIANTS = ("simplified", "derivation")

# Result codes for a settled transaction.
RESULT_VALID = 1
RESULT_INVALID = -1
RESULT_ANNULLED = 0

# A first-time voter's small but non-zero reputation and weight basis.
REPUTATION_EPSILON = WEIGHT_EPSILON = 0.01


class DomainError(ValueError):
    """An argument is outside the domain the trust formulas are defined on."""


def check_vote(value: int) -> int:
    if type(value) is not int or value not in VALID_VOTES:
        raise DomainError(f"vote must be one of {VALID_VOTES}, got {value!r}")
    return value


def check_score(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"score must lie in [0, 1], got {value!r}")
    return value


def check_quality_threshold(value: float | Fraction) -> None:
    if not 0.5 < value <= 1:
        raise DomainError(f"quality threshold must lie in (0.5, 1], got {value!r}")


def compute_weight(transaction_counts: dict) -> dict:
    """Per-transaction voting weight of every roster member, by player.

    weight = the player's participation count / the roster's total count,
    or 1/len(roster) each when nobody has any history ({} for no roster).
    Counts may be fractional (new players contribute a small epsilon).
    """
    for player in transaction_counts:
        if transaction_counts[player] < 0:
            raise DomainError(f"negative participation count for {player!r}")
    total = sum(float(transaction_counts[p]) for p in sorted(transaction_counts))
    if total == 0.0:
        return {p: 1.0 / len(transaction_counts) for p in transaction_counts}
    return {p: float(count) / total for p, count in transaction_counts.items()}


def compute_reputation(history: list) -> float:
    """Reputation in [0, 1] from (vote, result, final_score) triples: the
    agreement of past votes with decided results, weighted by each final
    score and shifted from [-1, 1]. Annulled results are skipped; an empty
    history (or one whose scores sum to zero) is the neutral 0.5."""
    numerator = 0.0
    denominator = 0.0
    for vote, result, final_score in history:
        if result == RESULT_ANNULLED:
            continue
        numerator += vote * result * final_score
        denominator += final_score
    return score_from_sums(numerator, denominator)


def score_from_sums(numerator: float, denominator: float) -> float:
    """The signed mean numerator/denominator shifted from [-1, 1] to [0, 1];
    a zero denominator is the neutral 0.5. Reputations and final scores."""
    if denominator == 0.0:
        return 0.5
    return 0.5 * (numerator / denominator + 1.0)


def _check_roster_maps(votes: dict, reputations: dict, weights: dict) -> None:
    if not (votes.keys() == reputations.keys() == weights.keys()):
        raise DomainError("votes, reputations and weights must share one key set")
    for player in votes:
        check_vote(votes[player])
        check_score(reputations[player])
        if not 0.0 <= weights[player] <= 1.0:
            raise DomainError(f"weight of {player!r} outside [0, 1]")


def compute_final_score(votes: dict, reputations: dict, weights: dict) -> float:
    """Roster consensus score in [0, 1].

    score = ((sum of vote*reputation*weight) / (sum of reputation*weight) + 1) / 2.
    A zero denominator (empty roster, or all reputation mass zero) is the
    undecided 0.5. Weights must sum to 1 within 1e-9 for non-empty rosters.
    A mass below the smallest normal float is summed on exact rationals, so
    an underflowed product cannot turn a decided score into 0.5.
    """
    _check_roster_maps(votes, reputations, weights)
    if not votes:
        return 0.5
    weight_sum = sum(weights[p] for p in sorted(weights))
    if abs(weight_sum - 1.0) > 1e-9:
        raise DomainError(f"weights must sum to 1, got {weight_sum!r}")
    numerator = 0.0
    denominator = 0.0
    for player in sorted(votes):
        influence = reputations[player] * weights[player]
        numerator += votes[player] * influence
        denominator += influence
    if denominator < sys.float_info.min:
        # Subnormal or underflowed products lose their relative precision
        # (0.5 * 5e-324 rounds to 0.0), so tiny masses are summed exactly.
        signed, mass = _exact_influences(votes, reputations, weights)
        if mass:
            return (sum(signed.values()) + mass) / (2 * mass)  # int / int rounds correctly
    return score_from_sums(numerator, denominator)


def decide_result(final_score: float | Fraction, quality_threshold: float | Fraction) -> int:
    """+1 above the threshold, -1 below its mirror, 0 (annulled) between.
    Exact when both arguments are `Fraction`s."""
    check_score(final_score)
    check_quality_threshold(quality_threshold)
    if final_score > quality_threshold:
        return RESULT_VALID
    if final_score < 1 - quality_threshold:
        return RESULT_INVALID
    return RESULT_ANNULLED


def reward_amount(
    effort_cost: Fraction | int | str,
    quality_threshold: Fraction | int | str,
    variant: str = "simplified",
) -> Fraction:
    """Exact reward for agreeing with the weighted majority.

    simplified: effort_cost / (2 * threshold^2)
    derivation: 2 * effort_cost / (margin^2 + margin), margin = 2*threshold - 1

    The two are deliberately not equal; the variant is a deployment choice.
    Returned exact; quantize to micro-units only at the ledger boundary.
    """
    cost = to_fraction(effort_cost)
    threshold = to_fraction(quality_threshold)
    if cost <= 0:
        raise DomainError("effort cost must be positive")
    check_quality_threshold(threshold)
    if variant == "simplified":
        return cost / (2 * threshold * threshold)
    if variant == "derivation":
        margin = 2 * threshold - 1
        return 2 * cost / (margin * margin + margin)
    raise DomainError(f"unknown payment variant {variant!r}")


def penalty_amount(
    effort_cost: Fraction | int | str,
    quality_threshold: Fraction | int | str,
    epsilon: Fraction | int | str,
    variant: str = "simplified",
) -> Fraction:
    """Exact penalty: the negated reward less a strictly positive epsilon."""
    eps = to_fraction(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    return -reward_amount(effort_cost, quality_threshold, variant) - eps


class Record:
    """A slotted record equal to one of its own class whose slots hold equal values."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return [getattr(self, n) for n in self.__slots__] == [getattr(other, n) for n in self.__slots__]


class PaymentSchedule(Record):
    """Deployment-time payment constants, exact and micro-quantized.

    `reward`/`penalty` are exact rationals in currency units; `reward_micro`
    and `penalty_micro` are the integer amounts the ledger actually moves.
    """

    __slots__ = ("effort_cost", "quality_threshold", "epsilon", "variant",
                 "_reward", "_penalty", "_reward_micro", "_penalty_micro")

    def __init__(self, effort_cost, quality_threshold, epsilon, variant: str = "simplified"):
        self.effort_cost = to_fraction(effort_cost)
        self.quality_threshold = to_fraction(quality_threshold)
        self.epsilon = to_fraction(epsilon)
        self.variant = variant
        # Derived once, since registration, the roster cap and every payout
        # read them. penalty_amount raises on a non-positive cost or epsilon,
        # a threshold outside (0.5, 1] or an unknown variant; the roster cap
        # divides by the micro reward, so it must not round to zero.
        self._penalty = penalty_amount(self.effort_cost, self.quality_threshold, self.epsilon, variant)
        self._reward = reward_amount(self.effort_cost, self.quality_threshold, variant)
        self._reward_micro = round(self._reward * MICRO)
        if self._reward_micro < 1:
            raise DomainError(f"reward {self._reward} rounds to 0 micro-units")
        self._penalty_micro = round(self._penalty * MICRO)

    @property
    def reward(self) -> Fraction:
        return self._reward

    @property
    def penalty(self) -> Fraction:
        return self._penalty

    @property
    def reward_micro(self) -> int:
        return self._reward_micro

    @property
    def penalty_micro(self) -> int:
        return self._penalty_micro


def _exact_influences(votes: dict, reputations: dict, factors: dict) -> tuple:
    """(signed, mass): vote * reputation * factor by player and the sum of
    reputation * factor, as integers over one common positive denominator,
    which is dropped. Every sign and every ratio of sums is kept exactly."""
    ratios = {}
    for player in votes:
        rep_num, rep_den = reputations[player].as_integer_ratio()
        num, den = factors[player].as_integer_ratio()
        ratios[player] = (rep_num * num, rep_den * den)
    common = math.lcm(*(den for _, den in ratios.values()))
    influence = {p: num * (common // den) for p, (num, den) in ratios.items()}
    return {p: votes[p] * influence[p] for p in votes}, sum(influence.values())


def _side(own, rest) -> int:
    """+1 if two signed influences share a sign, -1 if they oppose, 0 if
    either is zero."""
    if own == 0 or rest == 0:
        return 0
    return 1 if (own > 0) == (rest > 0) else -1


def agreement_sign(subject, votes: dict, reputations: dict, weights: dict) -> int:
    """+1 if the subject's signed influence matches the rest of the roster's,
    -1 if it opposes it, 0 if either side is neutral (zero). Decided on the
    exact rationals the floats represent."""
    _check_roster_maps(votes, reputations, weights)
    if subject not in votes:
        raise DomainError(f"subject {subject!r} not in roster")
    if len(votes) < 2:
        raise DomainError("agreement needs a roster of at least two")
    signed, _ = _exact_influences(votes, reputations, weights)
    return _side(signed[subject], sum(signed.values()) - signed[subject])


def settle_evaluation(rows: list, schedule: PaymentSchedule) -> tuple:
    """Settle one round from the roster rows the contract logs, in one pass.

    Each row names a `player` and carries `received`, the revealed `vote`
    (None when the player revealed nothing), `reputation` and the
    participation `count`. A receiver's weight basis is its count, or
    `WEIGHT_EPSILON` for a first-time voter. Returns `(final_score, result,
    payouts)`:

    - `final_score` is the logged float, from `compute_final_score` on the
      weights one `compute_weight` call gives the whole roster;
    - `result` and the agreement signs are decided exactly, on integers:
      the weights' common denominator cancels from every comparison, so
      each uses reputation * basis; the result by `decide_result`;
    - `payouts` (micro-units, by player) are what an evaluation round pays.
      Annulled rounds pay everyone 0. Receivers who revealed nothing (or 0)
      owe the penalty; other revealers earn the reward when they agree
      with the rest of the receivers, owe the penalty when they disagree,
      and get 0 on a neutral comparison. Non-receivers settle at 0.
    """
    votes, reputations, basis = {}, {}, {}
    for row in rows:
        if row["received"]:
            player = row["player"]
            votes[player] = 0 if row["vote"] is None else row["vote"]
            reputations[player] = row["reputation"]
            basis[player] = row["count"] or WEIGHT_EPSILON
        elif row["vote"] is not None:
            raise DomainError(f"vote recorded for {row['player']!r} who never received the design")
    final_score = compute_final_score(votes, reputations, compute_weight(basis))

    signed, mass = _exact_influences(votes, reputations, basis)
    total = sum(signed.values())
    exact_score = Fraction(total + mass, 2 * mass) if mass else Fraction(1, 2)
    result = decide_result(exact_score, schedule.quality_threshold)

    amounts = {1: schedule.reward_micro, -1: schedule.penalty_micro, 0: 0}
    payouts = dict.fromkeys((row["player"] for row in rows), 0)
    if result != RESULT_ANNULLED:
        for player, own in signed.items():  # silence or a 0 vote owes the penalty
            payouts[player] = amounts[_side(own, total - own) if votes[player] else -1]
    return final_score, result, payouts
