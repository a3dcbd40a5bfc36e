"""Shared scenario corpus for settlement, conservation and lifecycle tests.

Each entry is a raw config dict (same shape as a scenario file) passed
through the real validator, so the corpus also exercises the loading path.
The mix deliberately covers unanimity, splits, annulments, silent players,
collusion, roster caps, abstention, both payment variants and threshold
boundary values.
"""

from attestsim.scenario import validate_config


def player(pid, kind, phase="evaluation", deposit="1", funds="100", **params):
    return {
        "id": pid,
        "strategy": {"kind": kind, **params},
        "deposit": deposit,
        "funds": funds,
        "phase": phase,
    }


def truthful(pid, quality=0.9, **kw):
    return player(pid, "truthful_effort", quality=quality, **kw)


def fixed(pid, vote, **kw):
    return player(pid, "fixed_vote", vote=vote, **kw)


def scenario(
    players,
    designs=((True, "15"),),
    rounds=None,
    seed=1,
    quality_threshold="0.75",
    effort_cost="1",
    epsilon="0.001",
    payment_variant="simplified",
    feedback_size=0,
    commit_window=5,
    reveal_window=5,
):
    raw = {
        "schema_version": 1,
        "seed": seed,
        "constants": {
            "quality_threshold": quality_threshold,
            "effort_cost": effort_cost,
            "epsilon": epsilon,
            "commit_window": commit_window,
            "reveal_window": reveal_window,
            "payment_variant": payment_variant,
            "feedback_size": feedback_size,
        },
        "designs": [{"valid": valid, "collateral": collateral} for valid, collateral in designs],
        "players": list(players),
    }
    if rounds is not None:
        raw["rounds"] = rounds
    return raw


RAW_CORPUS = {
    "unanimity_valid": scenario(
        [truthful(f"p{i}", 1.0) for i in range(4)], seed=11
    ),
    "unanimity_invalid": scenario(
        [truthful(f"p{i}", 1.0) for i in range(4)],
        designs=((False, "15"),),
        seed=12,
    ),
    "split_three_two": scenario(
        [fixed(f"y{i}", 1) for i in range(3)] + [fixed(f"n{i}", -1) for i in range(2)],
        seed=13,
    ),
    "all_zero_votes": scenario(
        [fixed(f"z{i}", 0) for i in range(4)], seed=14
    ),
    "free_riders_penalized": scenario(
        [truthful(f"p{i}", 1.0) for i in range(4)]
        + [player(f"fr{i}", "free_ride") for i in range(2)],
        seed=15,
    ),
    "free_rider_in_annulled_round": scenario(
        [fixed("y0", 1), fixed("y1", 1), fixed("n0", -1), fixed("n1", -1),
         player("fr0", "free_ride")],
        seed=16,
    ),
    "feedback_pass": scenario(
        [truthful(f"p{i}", 1.0) for i in range(4)]
        + [truthful(f"b{i}", 1.0, phase="feedback") for i in range(3)],
        feedback_size=2,
        seed=17,
    ),
    "feedback_fail": scenario(
        [truthful(f"p{i}", 1.0) for i in range(4)]
        + [fixed(f"b{i}", -1, phase="feedback") for i in range(3)],
        feedback_size=3,
        seed=18,
    ),
    "feedback_annulled": scenario(
        [truthful(f"p{i}", 1.0) for i in range(4)]
        + [fixed(f"b{i}", 0, phase="feedback") for i in range(2)],
        feedback_size=2,
        seed=19,
    ),
    "feedback_free_rider": scenario(
        [truthful(f"p{i}", 1.0) for i in range(4)]
        + [fixed("b0", 1, phase="feedback"), fixed("b1", 1, phase="feedback"),
           player("bfr", "free_ride", phase="feedback")],
        feedback_size=3,
        seed=20,
    ),
    "colluders_outvoted": scenario(
        # 8 honest vs 3: the best reachable score is 8/11, so the threshold
        # must sit below it for the ring to actually lose money. The lower
        # threshold raises the reward (and so the penalty), hence the
        # bigger deposits and collateral.
        [truthful(f"p{i}", 0.95, deposit="1.5") for i in range(8)]
        + [player(f"c{i}", "colluder", group="ring", target=-1, deposit="1.5")
           for i in range(3)],
        designs=((True, "15.3"),),
        quality_threshold="0.6",
        seed=21,
    ),
    "colluders_block_attestation": scenario(
        # Same ring at a 0.75 threshold: it cannot flip the result, but it
        # drags the score into the annulment band.
        [truthful(f"p{i}", 0.95) for i in range(8)]
        + [player(f"c{i}", "colluder", group="ring", target=-1) for i in range(3)],
        seed=34,
    ),
    "colluders_capture_majority": scenario(
        [truthful("p0", 1.0), truthful("p1", 1.0)]
        + [player(f"c{i}", "colluder", group="ring", target=-1) for i in range(7)],
        seed=22,
    ),
    "roster_cap_binding": scenario(
        [truthful(f"p{i}", 1.0) for i in range(5)],
        designs=((True, "2.7"),),  # floor(2.7 / reward) = 3 seats
        seed=23,
    ),
    "deposit_too_small_rejected": scenario(
        [truthful(f"p{i}", 1.0) for i in range(4)]
        + [truthful("cheap", 1.0, deposit="0.5")],
        seed=24,
    ),
    "abstainers": scenario(
        [truthful(f"p{i}", 0.9) for i in range(3)]
        + [player(f"a{i}", "abstain") for i in range(2)],
        seed=25,
    ),
    "zero_vote_minority": scenario(
        [truthful(f"p{i}", 1.0) for i in range(3)] + [fixed(f"z{i}", 0) for i in range(2)],
        seed=26,
    ),
    "two_player_minimum": scenario(
        [truthful("p0", 1.0), truthful("p1", 1.0)], seed=27
    ),
    "derivation_variant": scenario(
        [truthful(f"p{i}", 0.9, deposit="3.5") for i in range(5)]
        + [player("g0", "guess", bias=0.5, deposit="3.5")],
        designs=((True, "30"), (False, "30")),
        payment_variant="derivation",
        seed=28,
    ),
    "large_epsilon": scenario(
        [truthful(f"p{i}", 0.9, deposit="3.5") for i in range(4)],
        epsilon="2.5",
        seed=29,
    ),
    "multi_design_reputation_chain": scenario(
        [truthful(f"p{i}", 0.9) for i in range(5)],
        designs=((True, "15"), (False, "15")),
        rounds=6,
        seed=30,
    ),
    "guessers_mixed": scenario(
        [truthful(f"p{i}", 0.9) for i in range(5)]
        + [player(f"g{i}", "guess", bias=0.5) for i in range(2)],
        designs=((True, "15"), (False, "15")),
        rounds=4,
        seed=31,
    ),
    "threshold_one_annuls_everything": scenario(
        [truthful(f"p{i}", 1.0) for i in range(3)],
        quality_threshold="1",
        seed=32,
    ),
    "threshold_barely_above_half": scenario(
        [truthful(f"p{i}", 0.9, deposit="2.5") for i in range(4)],
        quality_threshold="0.500001",
        seed=33,
    ),
}


# Settlement rows of a late joiner: `c` and `d` vote for the first time
# (count 0) beside two veterans, `c` against the rest, so a newcomer's weight
# basis moves the score. They are design 1's rows in
# `test_scenario.py::test_a_late_joiner_settles_beside_veterans_under_a_split_vote`.
LATE_JOINER_ROWS = [
    {"player": "a", "received": True, "vote": 1, "reputation": 1.0, "count": 1},
    {"player": "b", "received": True, "vote": 1, "reputation": 1.0, "count": 1},
    {"player": "c", "received": True, "vote": -1, "reputation": 0.01, "count": 0},
    {"player": "d", "received": True, "vote": 1, "reputation": 0.01, "count": 0},
]


def corpus_configs():
    """name -> validated ScenarioConfig for every corpus entry."""
    return {name: validate_config(raw) for name, raw in RAW_CORPUS.items()}
