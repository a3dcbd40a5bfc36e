"""Exact-rational definitions of the trust formulas, for the tests only.

Each one is the formula written out on Fractions, with no shortcut: every
player's rest of the roster is re-summed per player, every weight is
re-normalised per subject, every comparison is made on Fractions. They are
slow and obviously right. The float layer (`trust`) and the integer
referee (`oracle`) are checked against them; neither imports them.
"""

from fractions import Fraction


def exact(value) -> Fraction:
    """Lossless conversion: ints, Fractions, decimal strings and floats
    (a float converts to the exact rational it represents in binary)."""
    return Fraction(value)


def weight_exact(transaction_counts: dict, subject) -> Fraction:
    total = sum((exact(transaction_counts[p]) for p in transaction_counts), Fraction(0))
    if total == 0:
        return Fraction(1, len(transaction_counts))
    return exact(transaction_counts[subject]) / total


def reputation_exact(history) -> Fraction:
    """history: iterable of (vote, result, final_score) triples; annulled
    results (0) are skipped."""
    numerator = Fraction(0)
    denominator = Fraction(0)
    for vote, result, final_score in history:
        if result == 0:
            continue
        score = exact(final_score)
        numerator += vote * result * score
        denominator += score
    if denominator == 0:
        return Fraction(1, 2)
    return (numerator / denominator + 1) / 2


def final_score_exact(votes: dict, reputations: dict, weights: dict) -> Fraction:
    numerator = Fraction(0)
    denominator = Fraction(0)
    for player in votes:
        influence = exact(reputations[player]) * exact(weights[player])
        numerator += votes[player] * influence
        denominator += influence
    if denominator == 0:
        return Fraction(1, 2)
    return (numerator / denominator + 1) / 2


def decide_result_exact(final_score: Fraction, quality_threshold: Fraction) -> int:
    if final_score > quality_threshold:
        return 1
    if final_score < 1 - quality_threshold:
        return -1
    return 0


def _signed_influence(player, votes, reputations, weights) -> Fraction:
    return votes[player] * exact(reputations[player]) * exact(weights[player])


def agreement_sign_exact(subject, votes: dict, reputations: dict, weights: dict) -> int:
    own = _signed_influence(subject, votes, reputations, weights)
    rest = Fraction(0)
    for player in votes:
        if player != subject:
            rest += _signed_influence(player, votes, reputations, weights)
    if own == 0 or rest == 0:
        return 0
    return 1 if (own > 0) == (rest > 0) else -1
