"""Scoring and payment formulas against the exact-rational oracle.

The frozen values were worked out by hand; the property tests then pin the
float implementations to the Fraction oracle at 1e-12 and check the
algebraic identities exactly on the rational layer.

The functions under "Reference" are verbatim copies (renamed `old_*`) of
the settlement `trust` used before it weighed each roster once and decided
on integers: one `compute_weight` call per receiver, each re-validating,
sorting and re-summing the roster, and two Fractions per receiver. The
properties at the end require the one-pass settlement to match them bit
for bit.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from exact_formulas import final_score_exact, reputation_exact, weight_exact

from attestsim import oracle, trust
from attestsim.money import MoneyError
from attestsim.trust import (
    RESULT_ANNULLED,
    WEIGHT_EPSILON,
    DomainError,
    PaymentSchedule,
    _check_roster_maps,
    _side,
    agreement_sign,
    check_vote,
    compute_final_score,
    compute_reputation,
    compute_weight,
    decide_result,
    penalty_amount,
    reward_amount,
    score_from_sums,
    settle_evaluation,
)

TOL = 1e-12


# ---------------------------------------------------------------- weights

def test_weight_frozen_example():
    counts = {"a": 10, "b": 6, "c": 4}
    assert compute_weight(counts)["a"] == pytest.approx(0.5, abs=TOL)
    assert compute_weight(counts)["b"] == pytest.approx(0.3, abs=TOL)
    assert compute_weight(counts)["c"] == pytest.approx(0.2, abs=TOL)


def test_weight_all_newcomers_split_evenly():
    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    for p in counts:
        assert compute_weight(counts)[p] == 0.25


def test_weight_domain_errors():
    with pytest.raises(DomainError):
        compute_weight({"a": -1, "b": 2})


@given(
    st.dictionaries(
        st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=10**6),
        min_size=1,
        max_size=12,
    )
)
def test_weight_matches_oracle_and_sums_to_one(counts):
    total = 0.0
    for p in counts:
        w = compute_weight(counts)[p]
        assert 0.0 <= w <= 1.0
        assert abs(w - float(weight_exact(counts, p))) <= TOL
        total += w
    assert total == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------- reputation

def test_reputation_frozen_example():
    history = [(1, 1, 0.9), (-1, 1, 0.8)]
    # (0.9 - 0.8) / (0.9 + 0.8) = 1/17, shifted: (1/17 + 1)/2 = 9/17
    assert compute_reputation(history) == pytest.approx(9 / 17, abs=TOL)


def test_reputation_empty_history_is_neutral():
    assert compute_reputation([]) == 0.5


def test_reputation_single_record_extremes():
    agree = [(1, 1, 1.0)]
    oppose = [(-1, 1, 1.0)]
    assert compute_reputation(agree) == 1.0
    assert compute_reputation(oppose) == 0.0


def test_reputation_zero_scores_are_neutral():
    history = [(1, 1, 0.0)]
    assert compute_reputation(history) == 0.5


def test_reputation_skips_annulled_results():
    assert compute_reputation([(1, 0, 0.9)]) == 0.5
    assert compute_reputation([(-1, 0, 0.9), (1, 1, 0.8)]) == 1.0


@given(
    st.lists(
        st.tuples(
            st.sampled_from([-1, 0, 1]),
            st.sampled_from([-1, 0, 1]),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        max_size=30,
    )
)
def test_reputation_matches_oracle_and_stays_in_range(history):
    rep = compute_reputation(history)
    assert 0.0 <= rep <= 1.0
    assert abs(rep - float(reputation_exact(history))) <= TOL


# ------------------------------------------------------------ final score

def test_final_score_frozen_example():
    votes = {"a": 1, "b": 1, "c": -1}
    reps = {"a": 0.8, "b": 0.9, "c": 0.2}
    weights = {"a": 0.5, "b": 0.3, "c": 0.2}
    # numerator 0.4+0.27-0.04 = 0.63, denominator 0.71 -> (63/71+1)/2 = 67/71
    assert compute_final_score(votes, reps, weights) == pytest.approx(67 / 71, abs=TOL)


def test_final_score_unanimous_extremes():
    votes_up = {"a": 1, "b": 1}
    votes_down = {"a": -1, "b": -1}
    reps = {"a": 0.7, "b": 0.4}
    weights = {"a": 0.5, "b": 0.5}
    assert compute_final_score(votes_up, reps, weights) == 1.0
    assert compute_final_score(votes_down, reps, weights) == 0.0


def test_final_score_empty_and_zero_mass_are_neutral():
    assert compute_final_score({}, {}, {}) == 0.5
    votes = {"a": 1, "b": -1}
    assert compute_final_score(votes, {"a": 0.0, "b": 0.0}, {"a": 0.5, "b": 0.5}) == 0.5


def test_final_score_domain_errors():
    with pytest.raises(DomainError):
        compute_final_score({"a": 1}, {"b": 0.5}, {"a": 1.0})
    with pytest.raises(DomainError):
        compute_final_score({"a": 1, "b": 1}, {"a": 0.5, "b": 0.5}, {"a": 0.3, "b": 0.3})
    with pytest.raises(DomainError):
        compute_final_score({"a": 2}, {"a": 0.5}, {"a": 1.0})
    for vote in (1.0, True):
        with pytest.raises(DomainError):
            check_vote(vote)


def _roster_maps(draw_keys, draw):
    keys = sorted(set(draw_keys))
    votes = {k: draw(st.sampled_from([-1, 0, 1]), label=f"vote[{k}]") for k in keys}
    reps = {
        k: draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), label=f"rep[{k}]")
        for k in keys
    }
    counts = {
        k: draw(st.integers(min_value=0, max_value=50), label=f"count[{k}]") for k in keys
    }
    weights = {k: compute_weight(counts)[k] for k in keys}
    exact_weights = {k: weight_exact(counts, k) for k in keys}
    return votes, reps, weights, exact_weights


@st.composite
def _rosters(draw):
    keys = draw(
        st.lists(
            st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=5),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        label="keys",
    )
    return _roster_maps(keys, draw)


# Both reputation x weight products round to 0.0 as floats (0.5 * 5e-324),
# while the exact score is 0.
UNDERFLOW = (
    {"a": -1, "b": -1},
    {"a": 0.0, "b": 5e-324},
    {"a": 0.5, "b": 0.5},
    {"a": Fraction(1, 2), "b": Fraction(1, 2)},
)


@given(_rosters())
@example(UNDERFLOW)
def test_final_score_matches_oracle(roster):
    votes, reps, weights, exact_weights = roster
    score = compute_final_score(votes, reps, weights)
    assert 0.0 <= score <= 1.0
    expected = final_score_exact(votes, reps, exact_weights)
    assert abs(score - float(expected)) <= TOL


@given(
    st.lists(
        st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=5),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    st.data(),
)
def test_final_score_is_permutation_invariant_bitwise(keys, data):
    votes, reps, weights, _ = _roster_maps(keys, data.draw)
    order = data.draw(st.permutations(sorted(votes)), label="order")
    shuffled = (
        {k: votes[k] for k in order},
        {k: reps[k] for k in order},
        {k: weights[k] for k in order},
    )
    assert compute_final_score(*shuffled) == compute_final_score(votes, reps, weights)


@given(
    st.lists(
        st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=5),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    st.data(),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
)
def test_final_score_scale_invariance_in_reputation(keys, data, scale):
    """Multiplying every reputation by the same positive factor is a no-op
    (checked on the referee's integer route, where the identity is exact)."""
    votes, reps, _, exact_weights = _roster_maps(keys, data.draw)
    exact_reps = {k: Fraction(v) for k, v in reps.items()}
    scaled = {k: v * scale for k, v in exact_reps.items()}

    def referee_score(reputations):
        influence = oracle.scaled_influences(votes, reputations, exact_weights)
        return Fraction(*oracle.shifted_mean(
            sum(votes[k] * influence[k] for k in votes), sum(influence.values())
        ))

    assert referee_score(scaled) == referee_score(exact_reps)
    assert referee_score(exact_reps) == final_score_exact(votes, exact_reps, exact_weights)


# ----------------------------------------------------------------- decide

def test_decide_result_bands_and_boundaries():
    assert decide_result(0.76, 0.75) == 1
    assert decide_result(0.75, 0.75) == 0  # at the threshold: annulled
    assert decide_result(0.25, 0.75) == 0  # at the mirror: annulled
    assert decide_result(0.24, 0.75) == -1
    assert decide_result(1.0, 1.0) == 0  # threshold 1 can never attest
    assert decide_result(0.0, 1.0) == 0


def test_decide_result_domain_errors():
    with pytest.raises(DomainError):
        decide_result(1.2, 0.75)
    with pytest.raises(DomainError):
        decide_result(0.5, 0.5)
    with pytest.raises(DomainError):
        decide_result(0.5, 1.01)


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.fractions(min_value=Fraction(51, 100), max_value=Fraction(1)),
)
def test_decide_result_matches_oracle(fs, q):
    assert decide_result(fs, float(q)) == oracle.decide_result_exact(Fraction(fs), q)


# --------------------------------------------------------------- payments

def test_reward_frozen_values():
    assert reward_amount(1, Fraction(3, 4)) == Fraction(8, 9)
    assert reward_amount(1, 1) == Fraction(1, 2)
    assert reward_amount(1, Fraction(3, 4), "derivation") == Fraction(8, 3)
    assert reward_amount(1, 1, "derivation") == Fraction(1)
    assert reward_amount(10, Fraction(3, 4)) == Fraction(80, 9)


def test_penalty_frozen_values():
    assert penalty_amount(1, Fraction(3, 4), Fraction(1, 1000)) == Fraction(-8009, 9000)
    assert penalty_amount(2, Fraction(3, 4), Fraction(1, 1000)) == Fraction(-16009, 9000)


def test_payment_domain_errors():
    with pytest.raises(DomainError):
        reward_amount(0, Fraction(3, 4))
    with pytest.raises(DomainError):
        reward_amount(1, Fraction(1, 2))
    with pytest.raises(DomainError):
        reward_amount(1, Fraction(3, 4), "nonsense")
    with pytest.raises(DomainError):
        penalty_amount(1, Fraction(3, 4), 0)


COSTS = [Fraction(1, 10), Fraction(1), Fraction(10)]
THRESHOLDS = [Fraction(11, 20), Fraction(3, 4), Fraction(19, 20), Fraction(1)]


@pytest.mark.parametrize("variant", ["simplified", "derivation"])
def test_payment_identities_exact(variant):
    eps = Fraction(1, 1000)
    for cost in COSTS:
        for q in THRESHOLDS:
            reward = reward_amount(cost, q, variant)
            assert reward > 0
            # the penalty always outweighs the reward by exactly epsilon
            assert penalty_amount(cost, q, eps, variant) == -reward - eps
            # exact linearity in the effort cost
            assert reward_amount(3 * cost, q, variant) == 3 * reward
            # exact agreement with the oracle
            assert reward == oracle.reward_exact(cost, q, variant)


@pytest.mark.parametrize("variant", ["simplified", "derivation"])
def test_reward_strictly_decreases_in_threshold(variant):
    for cost in COSTS:
        rewards = [reward_amount(cost, q, variant) for q in THRESHOLDS]
        assert all(a > b for a, b in zip(rewards, rewards[1:]))


@given(
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
    st.fractions(min_value=Fraction(501, 1000), max_value=Fraction(1)),
)
def test_derivation_variant_always_pays_more(cost, q):
    assert reward_amount(cost, q, "derivation") > reward_amount(cost, q, "simplified")


def test_payment_schedule_quantizes_half_even():
    schedule = PaymentSchedule(1, Fraction(3, 4), Fraction(1, 1000))
    assert schedule.reward == Fraction(8, 9)
    assert schedule.reward_micro == 888_889
    assert schedule.penalty_micro == -889_889
    with pytest.raises(DomainError):
        PaymentSchedule(1, Fraction(3, 4), Fraction(1, 1000), "bogus")


def test_payment_schedule_holds_its_constants_as_fractions():
    exact = PaymentSchedule(1, Fraction(3, 4), Fraction(1, 1000))
    assert PaymentSchedule("1", "0.75", "0.001") == exact
    assert PaymentSchedule(1.0, 0.75, "1e-3") == exact
    schedule = PaymentSchedule("1", 0.1 + 0.65, "0.001")
    assert schedule.quality_threshold == Fraction(0.1 + 0.65)
    for value in (schedule.effort_cost, schedule.quality_threshold, schedule.epsilon):
        assert type(value) is Fraction
    assert decide_result(0.9, schedule.quality_threshold) == 1


@pytest.mark.parametrize("huge", ["1e5000000", "1e-100000000"])
def test_payment_amounts_refuse_a_huge_exponent_unbuilt(huge):
    for call in (
        lambda: reward_amount("1", huge),
        lambda: penalty_amount("1", "0.75", huge),
        lambda: PaymentSchedule(huge, "0.75", "0.001"),
    ):
        with pytest.raises(MoneyError, match="exponent beyond"):
            call()


# ------------------------------------------------------------- settlement

def _flat_weights(roster):
    return {p: 1.0 / len(roster) for p in roster}


def test_agreement_sign_majority_and_neutral():
    # Leave-one-out comparison: in an equal-influence 2-vs-1 split the two
    # majority voters each see the rest cancel to zero (neutral); only the
    # minority voter sees a decided rest and disagrees with it.
    reps = {"a": 0.5, "b": 0.5, "c": 0.5}
    weights = _flat_weights(reps)
    votes = {"a": 1, "b": 1, "c": -1}
    assert agreement_sign("a", votes, reps, weights) == 0
    assert agreement_sign("b", votes, reps, weights) == 0
    assert agreement_sign("c", votes, reps, weights) == -1
    # in a 3-vs-1 split the majority is decided from every seat
    reps4 = {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
    weights4 = _flat_weights(reps4)
    votes4 = {"a": 1, "b": 1, "c": 1, "d": -1}
    assert agreement_sign("a", votes4, reps4, weights4) == 1
    assert agreement_sign("d", votes4, reps4, weights4) == -1
    # zero own influence or zero rest influence is neutral
    assert agreement_sign("a", {"a": 0, "b": 1, "c": 1}, reps, weights) == 0
    assert agreement_sign("a", {"a": 1, "b": 1, "c": -1}, {"a": 0.5, "b": 0.5, "c": 0.5},
                          {"a": 1.0, "b": 0.0, "c": 0.0}) == 0


def test_agreement_sign_needs_two_players():
    with pytest.raises(DomainError):
        agreement_sign("a", {"a": 1}, {"a": 0.5}, {"a": 1.0})


def _schedule():
    # A threshold low enough that split rosters decide instead of annulling.
    return PaymentSchedule(1, Fraction(11, 20), Fraction(1, 1000))


def _rows(votes, received, reputations, counts):
    return [
        {
            "player": p,
            "received": received[p],
            "vote": votes.get(p),
            "reputation": reputations[p],
            "count": counts[p],
        }
        for p in sorted(received)
    ]


def _oracle_settlement(votes, received, reputations, counts, schedule):
    """(result, payouts) from the exact oracle, on the same rows."""
    _, result, payouts = oracle.settle_exact(
        _rows(votes, received, reputations, counts),
        schedule.quality_threshold, schedule.reward_micro, schedule.penalty_micro, True,
    )
    return result, payouts


def _settle(votes, received, reputations=None, counts=None, schedule=None):
    reputations = reputations or dict.fromkeys(received, 0.5)
    counts = counts or dict.fromkeys(received, 1)
    schedule = schedule or _schedule()
    _, result, payouts = settle_evaluation(_rows(votes, received, reputations, counts), schedule)
    assert (result, payouts) == _oracle_settlement(votes, received, reputations, counts, schedule)
    return result, payouts


def test_settle_unanimous_agreement_rewards_everyone():
    received = dict.fromkeys("abc", True)
    result, payouts = _settle({"a": 1, "b": 1, "c": 1}, received)
    assert result == 1
    assert payouts == dict.fromkeys("abc", _schedule().reward_micro)


def test_settle_disagreeing_minority_pays_penalty():
    received = dict.fromkeys("abcd", True)
    result, payouts = _settle({"a": 1, "b": 1, "c": 1, "d": -1}, received)
    schedule = _schedule()
    assert result == 1
    assert payouts["a"] == payouts["b"] == payouts["c"] == schedule.reward_micro
    assert payouts["d"] == schedule.penalty_micro


def test_settle_two_vs_one_split_leaves_majority_neutral():
    # The leave-one-out rest cancels for both majority voters.
    result, payouts = _settle({"a": 1, "b": 1, "c": -1}, dict.fromkeys("abc", True))
    assert result == 1
    assert payouts["a"] == payouts["b"] == 0
    assert payouts["c"] == _schedule().penalty_micro


def test_settle_silent_and_zero_voters_pay_penalty():
    # d received but never revealed
    _, payouts = _settle({"a": 1, "b": 1, "c": 0}, dict.fromkeys("abcd", True))
    assert payouts["c"] == payouts["d"] == _schedule().penalty_micro


def test_settle_not_received_pays_nothing():
    _, payouts = _settle({"a": 1, "b": 1}, {"a": True, "b": True, "c": False})
    assert payouts["c"] == 0


def test_settle_annulled_pays_nothing_to_anyone():
    # an even split with c silent: the result annuls
    result, payouts = _settle({"a": 1, "b": -1}, dict.fromkeys("abc", True))
    assert result == 0
    assert payouts == {"a": 0, "b": 0, "c": 0}


def test_settle_single_receiver_is_neutral():
    result, payouts = _settle({"a": 1}, {"a": True, "b": False})
    assert result == 1
    assert payouts == {"a": 0, "b": 0}


def test_settle_exact_cancellation_is_neutral():
    # a and b cancel exactly (0.75 * 4 == 1.0 * 3), so s compares against a
    # zero rest; as floats 0.75 * 0.4 - 1.0 * 0.3 comes out positive.
    result, payouts = _settle(
        {"a": 1, "b": -1, "s": 1},
        dict.fromkeys("abs", True),
        reputations={"a": 0.75, "b": 1.0, "s": 0.5},
        counts={"a": 4, "b": 3, "s": 3},
    )
    assert result == 1
    assert payouts["s"] == 0


def test_settle_rejects_votes_from_unreceived_players():
    rows = _rows({"a": 1, "b": 1}, {"a": True, "b": False}, {"a": 0.5, "b": 0.5}, {"a": 1, "b": 1})
    with pytest.raises(DomainError):
        settle_evaluation(rows, _schedule())


def test_settle_logs_the_float_score():
    rows = _rows({"a": 1, "b": 1, "c": -1}, dict.fromkeys("abc", True),
                 {"a": 0.8, "b": 0.9, "c": 0.2}, {"a": 10, "b": 6, "c": 4})
    score, _, _ = settle_evaluation(rows, _schedule())
    weights = {p: compute_weight({"a": 10, "b": 6, "c": 4})[p] for p in "abc"}
    assert score == compute_final_score({"a": 1, "b": 1, "c": -1},
                                        {"a": 0.8, "b": 0.9, "c": 0.2}, weights)


@settings(max_examples=200)
@given(st.data())
def test_settle_matches_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=8), label="n")
    roster = [f"p{i}" for i in range(n)]
    received = {p: data.draw(st.booleans(), label=f"rcv[{p}]") for p in roster}
    votes = {}
    for p in roster:
        if received[p] and data.draw(st.booleans(), label=f"reveals[{p}]"):
            votes[p] = data.draw(st.sampled_from([-1, 0, 1]), label=f"vote[{p}]")
    reps = {
        p: data.draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), label=f"rep[{p}]")
        for p in roster
    }
    counts = {p: data.draw(st.integers(min_value=0, max_value=20), label=f"cnt[{p}]") for p in roster}
    q = data.draw(st.sampled_from(THRESHOLDS), label="threshold")
    schedule = PaymentSchedule(1, q, Fraction(1, 1000))

    _, result, payouts = settle_evaluation(_rows(votes, received, reps, counts), schedule)
    assert (result, payouts) == _oracle_settlement(votes, received, reps, counts, schedule)
    if result == 0:
        assert all(v == 0 for v in payouts.values())
    for p in roster:
        if not received[p]:
            assert payouts[p] == 0


# ------------------------------------------------------------- reference


def old_compute_weight(transaction_counts: dict, subject) -> float:
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


def old_compute_final_score(votes: dict, reputations: dict, weights: dict) -> float:
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
        exact = {p: Fraction(reputations[p]) * Fraction(weights[p]) for p in votes}
        mass = sum(exact.values())
        if mass:
            return float((sum(votes[p] * exact[p] for p in votes) / mass + 1) / 2)
    return score_from_sums(numerator, denominator)


def old_agreement_sign(subject, votes: dict, reputations: dict, weights: dict) -> int:
    _check_roster_maps(votes, reputations, weights)
    if subject not in votes:
        raise DomainError(f"subject {subject!r} not in roster")
    if len(votes) < 2:
        raise DomainError("agreement needs a roster of at least two")
    signed = {p: votes[p] * Fraction(reputations[p]) * Fraction(weights[p]) for p in votes}
    return _side(signed[subject], sum(signed.values()) - signed[subject])


def old_settle_evaluation(rows: list, weight_epsilon: float, schedule: PaymentSchedule) -> tuple:
    for row in rows:
        if row["vote"] is not None:
            check_vote(row["vote"])
            if not row["received"]:
                raise DomainError(f"vote recorded for {row['player']!r} who never received the design")
    receivers = [row for row in rows if row["received"]]
    basis = {row["player"]: row["count"] or weight_epsilon for row in receivers}
    votes = {row["player"]: row["vote"] or 0 for row in receivers}
    reputations = {row["player"]: row["reputation"] for row in receivers}
    weights = {p: old_compute_weight(basis, p) for p in basis}
    final_score = old_compute_final_score(votes, reputations, weights)

    if not any(basis.values()):
        basis = dict.fromkeys(basis, 1)  # compute_weight's even split
    influence = {p: Fraction(reputations[p]) * Fraction(basis[p]) for p in basis}
    signed = {p: votes[p] * influence[p] for p in basis}
    total = sum(signed.values())
    mass = sum(influence.values())
    exact_score = Fraction(total + mass, 2 * mass) if mass else Fraction(1, 2)
    result = decide_result(exact_score, schedule.quality_threshold)

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


# ------------------------------------------------- one pass, bit for bit


def _bits(weights: dict) -> dict:
    return {p: w.hex() for p, w in weights.items()}


@given(
    st.dictionaries(
        st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=5),
        st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=10**6),
            st.sampled_from([WEIGHT_EPSILON, 1e-300, 5e-324]),
            st.floats(min_value=0.0, max_value=1e6),
        ),
        max_size=12,
    )
)
@example({})
@example(dict.fromkeys("abc", 0))
@example({"a": WEIGHT_EPSILON, "b": WEIGHT_EPSILON, "c": 7})
def test_roster_weights_equal_the_per_subject_weights_bitwise(counts):
    weights = compute_weight(counts)
    assert list(weights) == list(counts)
    assert _bits(weights) == {p: old_compute_weight(counts, p).hex() for p in counts}


@given(_rosters())
@example(UNDERFLOW)
def test_final_score_and_agreement_equal_the_fraction_versions_bitwise(roster):
    votes, reps, weights, _ = roster
    score = compute_final_score(votes, reps, weights)
    assert score.hex() == old_compute_final_score(votes, reps, weights).hex()
    if len(votes) >= 2:
        for p in votes:
            assert agreement_sign(p, votes, reps, weights) == old_agreement_sign(p, votes, reps, weights)


def _row(player, received, vote, reputation, count):
    return {"player": player, "received": received, "vote": vote,
            "reputation": reputation, "count": count}


@st.composite
def _settlements(draw):
    raw = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from([-1, 0, 1, None]),
                st.floats(min_value=0.0, max_value=1.0),
                st.one_of(st.just(0), st.integers(min_value=0, max_value=20)),
            ),
            max_size=200,
        ),
        label="rows",
    )
    rows = [
        _row(f"p{i:03d}", received, vote if received else None, reputation, count)
        for i, (received, vote, reputation, count) in enumerate(raw)
    ]
    return rows, draw(st.sampled_from(THRESHOLDS), label="threshold")


NO_RECEIVERS = ([_row("a", False, None, 0.5, 3), _row("b", False, None, 0.25, 0)], Fraction(3, 4))
LONE_RECEIVER = ([_row("a", True, 1, 0.5, 2), _row("b", False, None, 0.5, 4)], Fraction(3, 4))
# Both reputation x weight products underflow to 0.0, so the logged score
# comes from the exact branch of compute_final_score.
UNDERFLOW_ROWS = ([_row("a", True, -1, 0.0, 0), _row("b", True, -1, 5e-324, 0)], Fraction(3, 4))


def _wide_roster(n, seed):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        received = rng.random() < 0.9
        vote = rng.choice([-1, 0, 1, 1, 1, None]) if received else None
        rows.append(_row(f"p{i:03d}", received, vote, rng.random(), rng.choice([0, rng.randint(1, 20)])))
    return rows, Fraction(11, 20)


@settings(max_examples=150, deadline=None)
@given(_settlements())
@example(NO_RECEIVERS)
@example(LONE_RECEIVER)
@example(UNDERFLOW_ROWS)
@example(_wide_roster(200, 11))
def test_one_pass_settlement_equals_the_per_receiver_one_and_the_referee(case):
    rows, threshold = case
    schedule = PaymentSchedule(1, threshold, Fraction(1, 1000))
    score, result, payouts = settle_evaluation(rows, schedule)
    old_score, old_result, old_payouts = old_settle_evaluation(rows, WEIGHT_EPSILON, schedule)
    assert (score.hex(), result, payouts) == (old_score.hex(), old_result, old_payouts)
    assert list(payouts) == list(old_payouts)
    _, exact_result, exact_payouts = oracle.settle_exact(
        rows, threshold, schedule.reward_micro, schedule.penalty_micro, True
    )
    assert (result, payouts) == (exact_result, exact_payouts)


def test_settlement_weighs_the_roster_once(monkeypatch):
    calls = []
    weigh = trust.compute_weight
    monkeypatch.setattr(trust, "compute_weight", lambda counts: calls.append(dict(counts)) or weigh(counts))
    rows, _ = _wide_roster(50, 3)
    settle_evaluation(rows, _schedule())
    assert calls == [{row["player"]: row["count"] or WEIGHT_EPSILON for row in rows if row["received"]}]
