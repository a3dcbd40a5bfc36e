"""Trust scoring and settlement rules for two-phase design voting.

Votes are -1 (invalid), 0 (abstain/no reveal) or +1 (valid). Each player
carries a reputation in [0, 1] built from how their past votes lined up
with the decided outcomes, and a per-transaction weight proportional to
how many settled transactions they have taken part in. A transaction's
final score folds the roster's votes, reputations and weights into [0, 1];
the result is decided against a quality threshold strictly above one half.

Scores and reputations are binary floats computed in sorted key order, so
they are independent of map insertion order and bitwise reproducible.
Settlement decisions (the result and every agreement sign) are made on the
exact rationals those floats represent. The exact-rational mirror lives in
`oracle` and is the referee for this module; keep the two routes separate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .money import MICRO

VALID_VOTES = (-1, 0, 1)
PHASES = ("evaluation", "feedback")
PAYMENT_VARIANTS = ("simplified", "derivation")

# Result codes for a settled transaction.
RESULT_VALID = 1
RESULT_INVALID = -1
RESULT_ANNULLED = 0


class DomainError(ValueError):
    """An argument is outside the domain the trust formulas are defined on."""


def check_vote(value: int) -> int:
    if isinstance(value, bool) or value not in VALID_VOTES:
        raise DomainError(f"vote must be one of {VALID_VOTES}, got {value!r}")
    return value


def check_score(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"score must lie in [0, 1], got {value!r}")
    return value


def check_quality_threshold(value: float | Fraction) -> None:
    if not 0.5 < value <= 1:
        raise DomainError(f"quality threshold must lie in (0.5, 1], got {value!r}")


@dataclass(frozen=True)
class VoteRecord:
    """One settled, non-annulled transaction a player took part in."""

    design: int
    phase: str
    vote: int
    result: int
    final_score: float

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise DomainError(f"unknown phase {self.phase!r}")
        check_vote(self.vote)
        if self.result not in (RESULT_VALID, RESULT_INVALID):
            raise DomainError("recorded results are decided, non-annulled: -1 or +1")
        check_score(self.final_score)


def compute_weight(transaction_counts: dict, subject) -> float:
    """Per-transaction voting weight of `subject` among the given roster.

    weight = subject's participation count / sum of the roster's counts.
    When nobody has any history the weight falls back to 1/len(roster).
    Counts may be fractional (new players contribute a small epsilon).
    """
    if not transaction_counts:
        raise DomainError("empty roster")
    if subject not in transaction_counts:
        raise DomainError(f"subject {subject!r} not in roster")
    for player in transaction_counts:
        if transaction_counts[player] < 0:
            raise DomainError(f"negative participation count for {player!r}")
    total = sum(float(transaction_counts[p]) for p in sorted(transaction_counts))
    if total == 0.0:
        return 1.0 / len(transaction_counts)
    return float(transaction_counts[subject]) / total


def compute_reputation(history: list[VoteRecord]) -> float:
    """Reputation in [0, 1]: agreement of past votes with decided results,
    weighted by each transaction's final score and shifted from [-1, 1].

    An empty history (or one whose scores sum to zero) is the neutral 0.5.
    """
    numerator = 0.0
    denominator = 0.0
    for record in history:
        if record.result == RESULT_ANNULLED:
            continue
        numerator += record.vote * record.result * record.final_score
        denominator += record.final_score
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
    return score_from_sums(numerator, denominator)


def decide_result(final_score: float, quality_threshold: float) -> int:
    """+1 above the threshold, -1 below its mirror, 0 (annulled) between."""
    check_score(final_score)
    check_quality_threshold(quality_threshold)
    if final_score > quality_threshold:
        return RESULT_VALID
    if final_score < 1.0 - quality_threshold:
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
    cost = Fraction(effort_cost)
    threshold = Fraction(quality_threshold)
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
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    return -reward_amount(effort_cost, quality_threshold, variant) - eps


@dataclass(frozen=True)
class PaymentSchedule:
    """Deployment-time payment constants, exact and micro-quantized.

    `reward`/`penalty` are exact rationals in currency units; `reward_micro`
    and `penalty_micro` are the integer amounts the ledger actually moves.
    """

    effort_cost: Fraction
    quality_threshold: Fraction
    epsilon: Fraction
    variant: str = "simplified"

    @classmethod
    def build(
        cls,
        effort_cost,
        quality_threshold,
        epsilon,
        variant: str = "simplified",
    ) -> "PaymentSchedule":
        if variant not in PAYMENT_VARIANTS:
            raise DomainError(f"unknown payment variant {variant!r}")
        return cls(
            effort_cost=Fraction(effort_cost),
            quality_threshold=Fraction(quality_threshold),
            epsilon=Fraction(epsilon),
            variant=variant,
        )

    def __post_init__(self) -> None:
        # Derived once, since registration, the roster cap and every payout
        # read them. penalty_amount raises on a non-positive cost or epsilon
        # and on a threshold outside (0.5, 1].
        penalty = penalty_amount(self.effort_cost, self.quality_threshold, self.epsilon, self.variant)
        reward = reward_amount(self.effort_cost, self.quality_threshold, self.variant)
        object.__setattr__(self, "_reward", reward)
        object.__setattr__(self, "_penalty", penalty)
        object.__setattr__(self, "_reward_micro", round(reward * MICRO))
        object.__setattr__(self, "_penalty_micro", round(penalty * MICRO))
        object.__setattr__(self, "_effort_cost_micro", round(self.effort_cost * MICRO))

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

    @property
    def effort_cost_micro(self) -> int:
        return self._effort_cost_micro


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
    signed = {p: votes[p] * Fraction(reputations[p]) * Fraction(weights[p]) for p in votes}
    return _side(signed[subject], sum(signed.values()) - signed[subject])


def settle_evaluation(rows: list, weight_epsilon: float, schedule: PaymentSchedule) -> tuple:
    """Settle one round from the roster rows the contract logs.

    Each row names a `player` and carries `received`, the revealed `vote`
    (None when the player revealed nothing), `reputation` and the
    participation `count`. A receiver's weight basis is its count, or
    `weight_epsilon` for a first-time voter. Returns `(final_score, result,
    payouts)`:

    - `final_score` is the logged float, from `compute_weight` and
      `compute_final_score`;
    - `result` and the agreement signs are decided exactly, on the
      rationals the floats represent. The weights' common denominator
      cancels from every comparison, so each uses reputation * basis;
    - `payouts` (micro-units, by player) are what an evaluation round pays.
      Annulled rounds pay everyone 0. Receivers who revealed nothing (or 0)
      owe the penalty; other revealers earn the reward when they agree
      with the rest of the receivers, owe the penalty when they disagree,
      and get 0 on a neutral comparison. Non-receivers settle at 0.
    """
    for row in rows:
        if row["vote"] is not None:
            check_vote(row["vote"])
            if not row["received"]:
                raise DomainError(f"vote recorded for {row['player']!r} who never received the design")
    receivers = [row for row in rows if row["received"]]
    basis = {row["player"]: row["count"] or weight_epsilon for row in receivers}
    votes = {row["player"]: row["vote"] or 0 for row in receivers}
    reputations = {row["player"]: row["reputation"] for row in receivers}
    weights = {p: compute_weight(basis, p) for p in basis}
    final_score = compute_final_score(votes, reputations, weights)

    if not any(basis.values()):
        basis = dict.fromkeys(basis, 1)  # compute_weight's even split
    influence = {p: Fraction(reputations[p]) * Fraction(basis[p]) for p in basis}
    signed = {p: votes[p] * influence[p] for p in basis}
    total = sum(signed.values())
    # score > q  <=>  total > (2q - 1) * mass, and symmetrically below 1 - q.
    margin = (2 * schedule.quality_threshold - 1) * sum(influence.values())
    if total > margin:
        result = RESULT_VALID
    elif total < -margin:
        result = RESULT_INVALID
    else:
        result = RESULT_ANNULLED

    amounts = {1: schedule.reward_micro, -1: schedule.penalty_micro, 0: 0}
    payouts = {}
    for row in rows:
        player = row["player"]
        if result == RESULT_ANNULLED or not row["received"]:
            payouts[player] = 0
        elif not row["vote"]:
            payouts[player] = schedule.penalty_micro
        else:
            payouts[player] = amounts[_side(signed[player], total - signed[player])]
    return final_score, result, payouts
