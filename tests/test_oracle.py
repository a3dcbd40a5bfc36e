"""The linear-time, integer referee against the quadratic one it replaced.

The functions under "Reference", with the formulas they import from
`exact_formulas`, are verbatim copies of the exact-rational definitions the
referee used before it moved to integers: every player's rest of the roster
re-summed per player, every weight re-normalised per receiver, every
comparison made on Fractions. They are slow and obviously right; the
property requires the fast referee to agree with them on every roster,
including exact cancellations.
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from exact_formulas import (
    agreement_sign_exact,
    decide_result_exact,
    exact,
    final_score_exact,
    weight_exact,
)

from attestsim import oracle, scenario
from attestsim.contract import ROUND_EVALUATION, ROUND_FEEDBACK, WEIGHT_EPSILON
from attestsim.oracle import SCORE_TOLERANCE, _off

THRESHOLDS = [Fraction(11, 20), Fraction(3, 4), Fraction(19, 20), Fraction(1)]
REWARD_MICRO = 1_888_889
PENALTY_MICRO = -1_889_889


# ------------------------------------------------------------- reference


def settle_exact(
    roster,
    votes: dict,
    received: dict,
    reputations: dict,
    weights: dict,
    reward_micro: int,
    penalty_micro: int,
    result: int,
) -> dict:
    if result == 0:
        return {player: 0 for player in roster}
    receivers = [p for p in roster if received.get(p, False)]
    effective = {p: votes.get(p, 0) for p in receivers}
    payouts: dict = {}
    for player in roster:
        if not received.get(player, False):
            payouts[player] = 0
            continue
        vote = votes.get(player)
        if vote is None or vote == 0:
            payouts[player] = penalty_micro
            continue
        if len(effective) < 2:
            payouts[player] = 0
            continue
        side = agreement_sign_exact(
            player,
            effective,
            {p: reputations[p] for p in effective},
            {p: weights[p] for p in effective},
        )
        payouts[player] = reward_micro if side > 0 else penalty_micro if side < 0 else 0
    return payouts


def mirror_settlement(rows, round_name, weight_epsilon, quality_threshold):
    """(score, result, payouts) as the quadratic mirror derived them."""
    accounts = [row["player"] for row in rows]
    receivers = [row["player"] for row in rows if row["received"]]
    votes = {
        row["player"]: row["vote"]
        for row in rows
        if row["received"] and row["vote"] is not None
    }
    effective = {p: votes.get(p, 0) for p in receivers}
    reputations = {row["player"]: exact(row["reputation"]) for row in rows}
    basis = {
        row["player"]: (
            Fraction(row["count"]) if row["count"] > 0 else exact(weight_epsilon)
        )
        for row in rows
        if row["received"]
    }
    weights = {p: weight_exact(basis, p) for p in receivers}

    score = final_score_exact(
        effective, {p: reputations[p] for p in receivers}, weights
    )
    result = decide_result_exact(score, quality_threshold)
    received_map = {row["player"]: row["received"] for row in rows}
    if round_name == ROUND_EVALUATION:
        payouts = settle_exact(
            accounts, votes, received_map, reputations, weights,
            REWARD_MICRO, PENALTY_MICRO, result,
        )
    else:
        payouts = {p: 0 for p in accounts}
    return score, result, payouts


# ------------------------------------------------------------- property


def check_against_reference(rows, quality_threshold, round_name):
    roster = [row["player"] for row in rows]
    received = {row["player"]: row["received"] for row in rows}
    votes = {
        row["player"]: row["vote"] for row in rows if row["received"] and row["vote"] is not None
    }
    reputations = {row["player"]: exact(row["reputation"]) for row in rows}
    receivers = [p for p in roster if received[p]]
    basis = {
        row["player"]: Fraction(row["count"]) if row["count"] > 0 else exact(WEIGHT_EPSILON)
        for row in rows
        if row["received"]
    }
    weights = {p: weight_exact(basis, p) for p in receivers}
    effective = {p: votes.get(p, 0) for p in receivers}

    # The score and the result, from normalised weights, on scaled integers.
    influence = oracle.scaled_influences(receivers, reputations, weights)
    signed = {p: effective[p] * influence[p] for p in receivers}
    total = sum(signed.values())
    score = Fraction(*oracle.shifted_mean(total, sum(influence.values())))
    assert score == final_score_exact(effective, reputations, weights)
    assert oracle.decide_result_exact(score, quality_threshold) == decide_result_exact(
        score, quality_threshold
    )

    # Each agreement sign: own against the total.
    if len(receivers) >= 2:
        for p in receivers:
            assert oracle.agreement_sign_exact(signed[p], total) == agreement_sign_exact(
                p, effective, reputations, weights
            )

    # The whole settlement, from the logged rows.
    expected = mirror_settlement(rows, round_name, WEIGHT_EPSILON, quality_threshold)
    assert oracle.settle_exact(
        rows, quality_threshold, REWARD_MICRO, PENALTY_MICRO,
        round_name == ROUND_EVALUATION,
    ) == expected

    # The final-score tolerance check, on and around its boundary.
    exact_score = expected[0]
    for logged in (
        float(exact_score),
        float(exact_score + SCORE_TOLERANCE),
        float(exact_score - SCORE_TOLERANCE),
        float(exact_score + 2 * SCORE_TOLERANCE),
        0.42,
    ):
        assert _off(logged, exact_score.numerator, exact_score.denominator) == (
            abs(exact(logged) - exact_score) > SCORE_TOLERANCE
        )
        for gap in (SCORE_TOLERANCE, SCORE_TOLERANCE * Fraction(10**9 + 1, 10**9)):
            for near in (exact(logged) + gap, exact(logged) - gap):
                assert _off(logged, near.numerator, near.denominator) == (gap > SCORE_TOLERANCE)


def _row(player, received, vote, reputation, count):
    return {
        "player": player,
        "received": received,
        "vote": vote,
        "reputation": reputation,
        "count": count,
    }


@st.composite
def settlements(draw):
    n = draw(st.integers(min_value=1, max_value=10), label="n")
    rows = []
    for i in range(n):
        received = draw(st.booleans(), label=f"received[{i}]")
        rows.append(
            _row(
                f"p{i}",
                received,
                draw(st.sampled_from([-1, 0, 1, None]), label=f"vote[{i}]"),
                draw(st.floats(min_value=0.0, max_value=1.0), label=f"reputation[{i}]"),
                draw(
                    st.one_of(st.just(0), st.integers(min_value=0, max_value=20)),
                    label=f"count[{i}]",
                ),
            )
        )
    threshold = draw(st.sampled_from(THRESHOLDS), label="threshold")
    round_name = draw(st.sampled_from([ROUND_EVALUATION, ROUND_FEEDBACK]), label="round")
    return rows, threshold, round_name


# a and b cancel exactly (0.75 * 4 == 1.0 * 3), so s's rest is zero.
CANCELLATION = (
    [
        _row("a", True, 1, 0.75, 4),
        _row("b", True, -1, 1.0, 3),
        _row("s", True, 1, 0.5, 3),
    ],
    Fraction(11, 20),
    ROUND_EVALUATION,
)


# Newcomers only: every basis is WEIGHT_EPSILON, so weights split evenly.
NEWCOMERS_ONLY = (
    [_row("a", True, 1, 0.25, 0), _row("b", True, -1, 0.5, 0), _row("c", True, 1, 1.0, 0)],
    Fraction(3, 4),
    ROUND_EVALUATION,
)


def _evaluation(votes, threshold=Fraction(3, 4)):
    """An evaluation round with every payout branch: two heavy voters, a
    light one, a silent receiver, a newcomer who votes 0, and a player who
    never received the design."""
    rows = [
        _row("a", True, votes[0], 1.0, 4),
        _row("b", True, votes[1], 1.0, 4),
        _row("c", True, votes[2], 0.5, 1),
        _row("d", True, None, 0.5, 2),
        _row("e", True, 0, 0.5, 0),
        _row("f", False, None, 0.5, 3),
    ]
    return rows, threshold, ROUND_EVALUATION


DECIDES_VALID = _evaluation([1, 1, -1])
DECIDES_INVALID = _evaluation([-1, -1, 1])
DECIDES_ANNULLED = _evaluation([1, -1, 1])


@settings(max_examples=300, deadline=None)
@given(settlements())
@example(CANCELLATION)
@example(NEWCOMERS_ONLY)
@example(DECIDES_VALID)
@example(DECIDES_INVALID)
@example(DECIDES_ANNULLED)
def test_linear_referee_matches_the_quadratic_one(case):
    check_against_reference(*case)


@pytest.mark.parametrize(
    "case,result",
    [(DECIDES_VALID, 1), (DECIDES_INVALID, -1), (DECIDES_ANNULLED, 0)],
)
def test_the_pinned_evaluations_decide_each_result(case, result):
    rows, threshold, _ = case
    score, decided, payouts = oracle.settle_exact(
        rows, threshold, REWARD_MICRO, PENALTY_MICRO, True
    )
    assert decided == result
    if result:
        assert payouts == {"a": REWARD_MICRO, "b": REWARD_MICRO, "c": PENALTY_MICRO,
                           "d": PENALTY_MICRO, "e": PENALTY_MICRO, "f": 0}
    else:
        assert payouts == dict.fromkeys("abcdef", 0)
    # A feedback round decides the same way and pays nothing.
    assert oracle.settle_exact(
        rows, threshold, REWARD_MICRO, PENALTY_MICRO, False
    ) == (score, decided, dict.fromkeys("abcdef", 0))


def test_exact_cancellation_is_neutral_for_the_referee():
    rows, threshold, round_name = CANCELLATION
    check_against_reference(*CANCELLATION)
    _, result, payouts = oracle.settle_exact(
        rows, threshold, REWARD_MICRO, PENALTY_MICRO, True
    )
    assert result == 1
    assert payouts == {"a": PENALTY_MICRO, "b": PENALTY_MICRO, "s": 0}


def _imported_modules(module) -> set:
    """The last dotted part of every module that `module`'s source imports."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.module == "attestsim":
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.rsplit(".", 1)[-1])
    return names


def test_the_run_and_the_referee_do_not_import_the_verifier():
    """The referee is one module, which the run checks its settlements with;
    the verifier reads traces and is not needed to write one."""
    for module in (scenario, oracle):
        assert "verify" not in _imported_modules(module), module.__name__
