"""Scenario generators for the benchmark's workloads.

Each workload turns the benchmark seed into one scenario file (the raw
config dict) plus the list of run seeds it is executed under. Only the
random draws depend on the seed: roster make-up, design list and round
count are fixed per workload, so every seed does the same amount of work.
`shrink=True` gives a small instance of the same shape for tests and for
the pinned trace hashes.
"""

from __future__ import annotations

from fractions import Fraction

MICRO = 10**6
SWEEP_SEEDS = 3


def _player(pid, strategy, deposit, funds, phase="evaluation"):
    return {"id": pid, "strategy": strategy, "deposit": deposit, "funds": funds, "phase": phase}


def _scenario(seed, players, designs, rounds, **constants):
    return {
        "schema_version": 1,
        "seed": seed,
        "constants": {
            "quality_threshold": "0.75",
            "effort_cost": "1",
            "commit_window": 5,
            "reveal_window": 5,
            **constants,
        },
        "designs": [{"valid": valid, "collateral": collateral} for valid, collateral in designs],
        "rounds": rounds,
        "players": players,
    }


def _criterion6_population(seed: int, rounds: int) -> dict:
    """11 diligent evaluators (accuracy 0.9) against one coin-flip guesser
    under the derivation schedule: the paper's truthfulness experiment."""
    players = [
        _player(f"hon-{i:02d}", {"kind": "truthful_effort", "quality": 0.9}, "5", "400")
        for i in range(11)
    ]
    players.append(_player("guess-1", {"kind": "guess", "bias": 0.5}, "5", "400"))
    return _scenario(
        seed, players, [(True, "33"), (False, "33")], rounds,
        epsilon="2", payment_variant="derivation", feedback_size=0,
    )


def incentive_sweep(seed: int, shrink: bool = False):
    seeds = 2 if shrink else SWEEP_SEEDS
    base = seed * seeds
    return _criterion6_population(base, 20 if shrink else 200), [base + i for i in range(seeds)]


def long_history(seed: int, shrink: bool = False):
    return _criterion6_population(seed, 40 if shrink else 1600), [seed]


# One block of 16 evaluation players; the roster repeats it. Every strategy
# kind appears, and the truthful share keeps both decisions far from the
# threshold (about 0.89 on valid designs, 0.19 on invalid ones).
_WIDE_BLOCK = (
    ("truthful_effort", {"quality": 0.95}), ("truthful_effort", {"quality": 0.95}),
    ("guess", {"bias": 0.5}), ("truthful_effort", {"quality": 0.95}),
    ("free_ride", {}), ("truthful_effort", {"quality": 0.95}),
    ("truthful_effort", {"quality": 0.95}), ("abstain", {}),
    ("truthful_effort", {"quality": 0.95}), ("fixed_vote", {"vote": 0}),
    ("truthful_effort", {"quality": 0.95}), ("truthful_effort", {"quality": 0.95}),
    ("colluder", {"group": "ring", "target": 1}), ("truthful_effort", {"quality": 0.95}),
    ("truthful_effort", {"quality": 0.95}), ("truthful_effort", {"quality": 0.95}),
)
WIDE_REWARD = Fraction(1) / (2 * Fraction(3, 4) ** 2)  # simplified schedule, q = 0.75


def wide_market(seed: int, shrink: bool = False):
    evaluators = 32 if shrink else 192
    buyers, feedback_size, rounds = (6, 3, 2) if shrink else (32, 8, 6)
    # A sixteenth of the evaluators abstain. Registrations arrive in account
    # order, and the last sixteenth of the players find the roster full.
    seats = evaluators - 2 * (evaluators // 16)
    players = []
    for i in range(evaluators):
        kind, params = _WIDE_BLOCK[i % len(_WIDE_BLOCK)]
        players.append(_player(f"ev-{i:03d}", {"kind": kind, **params}, "1", "100"))
    for i in range(buyers):
        players.append(
            _player(f"buyer-{i:03d}", {"kind": "truthful_effort", "quality": 1.0}, "1", "100",
                    phase="feedback")
        )
    # Collateral for `seats` rewards plus half a reward: the cap floors to `seats`.
    reward_micro = round(WIDE_REWARD * MICRO)
    collateral_micro = reward_micro * seats + reward_micro // 2
    collateral = f"{collateral_micro // MICRO}.{collateral_micro % MICRO:06d}"
    raw = _scenario(
        seed, players, [(True, collateral), (False, collateral)], rounds,
        epsilon="0.001", payment_variant="simplified", feedback_size=feedback_size,
    )
    return raw, [seed]


WORKLOADS = {
    "incentive_sweep": incentive_sweep,
    "long_history": long_history,
    "wide_market": wide_market,
}
