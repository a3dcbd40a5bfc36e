"""Exact referee for the trust formulas.

Everything here recomputes the scoring and settlement arithmetic with no
rounding and no shared code with the float implementations in `trust`.
The run's check of its own settlements, trace verification and the test
suite use this module as the independent source of truth; the float path
is required to land within `SCORE_TOLERANCE` (1e-12) of it.

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
`RationalMirror` is its chain across settlements: it re-derives the
payment schedule from a header and tracks every reputation and count
exactly. Both form the rule's (S / T + 1) / 2 with `shifted_mean`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .contract import REPUTATION_EPSILON, ROUND_EVALUATION, WEIGHT_EPSILON
from .money import MICRO, to_fraction

SCORE_TOLERANCE = Fraction(1, 10**12)
_TOLERANCE_NUM, _TOLERANCE_DEN = SCORE_TOLERANCE.as_integer_ratio()
_FLOAT_UNIT = 2**1074  # every finite float times this is an integer
_NEWCOMER_REPUTATION = REPUTATION_EPSILON.as_integer_ratio()


class OracleMismatch(Exception):
    pass


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


def shifted_mean(agreement: int, mass: int) -> tuple:
    """(agreement / mass + 1) / 2 as (numerator, positive denominator); 1/2
    when the mass is zero."""
    if mass == 0:
        return 1, 2
    if mass < 0:
        return -(agreement + mass), -2 * mass
    return agreement + mass, 2 * mass


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
    quality_threshold,
    reward_micro: int,
    penalty_micro: int,
    pays: bool,
) -> tuple:
    """(exact final score, result, micro-unit payouts) of one round, from
    its logged rows: `player`, `received`, `vote` (None if unrevealed),
    `reputation` and the participation `count`.

    A receiver's weight basis is its count, or `WEIGHT_EPSILON` for a
    first-time voter. The bases' positive sum cancels from the score and
    every agreement sign, so they stand in for the weights. A round that
    does not pay (feedback) or annuls settles everyone at 0; silence or a 0
    vote after receipt owes the penalty; other revealers settle by
    agreement with the other receivers.
    """
    votes, reputations, basis = {}, {}, {}
    for row in rows:
        if row["received"]:
            player = row["player"]
            votes[player] = row["vote"] or 0
            reputations[player] = row["reputation"]
            basis[player] = row["count"] if row["count"] > 0 else WEIGHT_EPSILON
    influence = scaled_influences(votes, reputations, basis)
    signed = {player: votes[player] * influence[player] for player in votes}
    total = sum(signed.values())
    score = Fraction(*shifted_mean(total, sum(influence.values())))
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


class RationalMirror:
    """Exact-rational shadow of settlement state, anchored at logged values.

    Keeps per-player reputation accumulators (sum of vote*result*score and
    sum of scores) plus participation counts, and the collateral of each
    announced design. Each ResultCalculated payload is recomputed from its
    own logged inputs; chained state (reputations, counts) is tracked
    exactly so drift cannot hide across rounds. The accumulators are
    integers in units of 2**-1074, of which every finite float is a whole
    multiple; the unit cancels from the reputation they define.
    """

    def __init__(self, header: dict):
        quality = to_fraction(header["quality_threshold"])
        effort = Fraction(header["effort_cost_micro"], MICRO)
        epsilon = Fraction(header["epsilon_micro"], MICRO)
        variant = header["payment_variant"]
        reward = quantize_micro(reward_exact(effort, quality, variant))
        penalty = quantize_micro(penalty_exact(effort, quality, epsilon, variant))
        if reward != header["reward_micro"] or penalty != header["penalty_micro"]:
            raise OracleMismatch(
                f"header schedule inconsistent: derived ({reward}, {penalty}), "
                f"logged ({header['reward_micro']}, {header['penalty_micro']})"
            )
        self.reward_micro, self.penalty_micro, self.quality_threshold = reward, penalty, quality
        self.players: dict = {}  # account -> [S, T, count], S and T in _FLOAT_UNITs
        self.collateral: dict = {}

    def observe_new_design(self, design: int, collateral: int) -> None:
        self.collateral[design] = collateral

    def _reputation(self, account: str) -> tuple:
        """(S / T + 1) / 2 as (numerator, positive denominator)."""
        if account not in self.players:
            return _NEWCOMER_REPUTATION
        agreement, mass, _ = self.players[account]
        return shifted_mean(agreement, mass)

    def _count(self, account: str) -> int:
        return self.players[account][2] if account in self.players else 0

    def check_result(self, design: int, payload: dict) -> None:
        rows = payload["players"]
        accounts = [row["player"] for row in rows]
        if accounts != sorted(accounts):
            raise OracleMismatch("settlement rows not in sorted player order")
        if not _finite(payload["final_score"]):
            raise TypeError(f"final score {payload['final_score']!r} is not a finite number")
        for row in rows:
            vote = row["vote"]
            if not (
                _finite(row["reputation"])
                and _finite(row["reputation_after"])
                and type(row["count"]) is int
                and (vote is None or type(vote) is int)
            ):
                raise TypeError(f"a reputation, count or vote of {row['player']!r} is not a number")

        for row in rows:
            tracked_num, tracked_den = self._reputation(row["player"])
            if _off(row["reputation"], tracked_num, tracked_den):
                raise OracleMismatch(
                    f"reputation of {row['player']} drifted from the rational chain: "
                    f"logged {row['reputation']}, expected {tracked_num / tracked_den}"
                )
            if row["count"] != self._count(row["player"]):
                raise OracleMismatch(
                    f"participation count of {row['player']} is {row['count']}, "
                    f"expected {self._count(row['player'])}"
                )

        score, result, payouts = settle_exact(
            rows,
            self.quality_threshold,
            self.reward_micro,
            self.penalty_micro,
            payload["round"] == ROUND_EVALUATION,
        )
        if _off(payload["final_score"], score.numerator, score.denominator):
            raise OracleMismatch(
                f"final score mismatch: logged {payload['final_score']}, "
                f"rational {float(score)}"
            )
        if result != payload["result"]:
            raise OracleMismatch(
                f"result mismatch: logged {payload['result']}, rational {result}"
            )
        for row in rows:
            if row["payout"] != payouts[row["player"]]:
                raise OracleMismatch(
                    f"payout of {row['player']} is {row['payout']}, "
                    f"expected {payouts[row['player']]}"
                )

        if payload["round"] == ROUND_EVALUATION:
            expected_refund = self.collateral.get(design, 0) - sum(payouts.values())
            if payload["vendor_refund"] != expected_refund:
                raise OracleMismatch(
                    f"vendor refund is {payload['vendor_refund']}, expected {expected_refund}"
                )
        elif payload["vendor_refund"] is not None:
            raise OracleMismatch("feedback settlements do not refund the vendor")

        anchor_num, anchor_den = payload["final_score"].as_integer_ratio()
        anchor = anchor_num * (_FLOAT_UNIT // anchor_den)
        for row in rows:
            account = row["player"]
            if row["received"] and result != 0:
                state = self.players.setdefault(account, [0, 0, 0])
                state[0] += (row["vote"] or 0) * result * anchor
                state[1] += anchor
                state[2] += 1
            after_num, after_den = self._reputation(account)
            if _off(row["reputation_after"], after_num, after_den):
                raise OracleMismatch(
                    f"updated reputation of {account} mismatches the rational chain: "
                    f"logged {row['reputation_after']}, expected {after_num / after_den}"
                )
            if row["count_after"] != self._count(account):
                raise OracleMismatch(
                    f"updated count of {account} is {row['count_after']}, "
                    f"expected {self._count(account)}"
                )


def _finite(value) -> bool:
    """A payload number: a finite int or float, never a bool or a string."""
    return type(value) is int or type(value) is float and math.isfinite(value)


def _off(logged, num: int, den: int) -> bool:
    """|logged - num / den| > SCORE_TOLERANCE for den > 0, by integer
    cross-multiplication."""
    logged_num, logged_den = logged.as_integer_ratio()
    gap = abs(logged_num * den - num * logged_den)
    return gap * _TOLERANCE_DEN > _TOLERANCE_NUM * logged_den * den
