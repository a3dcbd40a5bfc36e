"""Agents for the protocol simulator.

Strategies are deliberately simple and non-adaptive:

- TruthfulEffort(quality): pays the effort cost to observe the design's
  true validity through a symmetric noisy channel (correct with
  probability `quality`) and votes the observation.
- Guess(bias): votes +1 with probability `bias`, else -1, without paying
  for effort.
- FreeRide: registers and receives but never commits.
- FixedVote(vote): always commits and reveals the same vote (0 allowed).
- Abstain: never registers at all.

The manager confirms receipt on-chain for every registered player. The
identity provider signs each account id once and hands the signature out
on request.
"""

from __future__ import annotations

from .contract import MANAGER
from .crypto import commitment_digest, public_bytes, sign_account_id, signing_key_from_seed
from .ledger import SimLedger
from .trust import Record


class TruthfulEffort(Record):
    __slots__ = ("quality",)

    def __init__(self, quality: float):
        if not 0.5 <= quality <= 1.0:
            raise ValueError("observation quality must lie in [0.5, 1]")
        self.quality = quality


class Guess(Record):
    __slots__ = ("bias",)

    def __init__(self, bias: float):
        if not 0.0 <= bias <= 1.0:
            raise ValueError("guess bias must lie in [0, 1]")
        self.bias = bias


class FreeRide(Record):
    __slots__ = ()

    def __init__(self):  # a stray parameter is a config error naming the class
        pass


class FixedVote(Record):
    __slots__ = ("vote",)

    def __init__(self, vote: int):
        if type(vote) is not int or vote not in (-1, 0, 1):
            raise ValueError("fixed vote must be -1, 0 or +1")
        self.vote = vote


def _colluder(group: str, target: int) -> FixedVote:
    """A ring member votes `target` whatever the design; `group` only names
    the ring in the config, so a colluder is a `FixedVote` of its target."""
    if not isinstance(group, str) or not group:
        raise ValueError("collusion group must be a non-empty string")
    if type(target) is not int or target not in (-1, 1):
        raise ValueError("collusion target must be -1 or +1")
    return FixedVote(target)


class Abstain(Record):
    __slots__ = ()

    def __init__(self):  # a stray parameter is a config error naming the class
        pass


STRATEGY_KINDS = {
    "truthful_effort": TruthfulEffort,
    "guess": Guess,
    "free_ride": FreeRide,
    "fixed_vote": FixedVote,
    "colluder": _colluder,
    "abstain": Abstain,
}


_FLOAT_PARAMS = frozenset({"quality", "bias"})
_INT_PARAMS = frozenset({"vote", "target"})


def strategy_from_config(spec: dict):
    kind = spec.get("kind")
    cls = STRATEGY_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown strategy kind {kind!r}")
    params = {}
    for key, value in spec.items():
        if key == "kind":
            continue
        if key in _FLOAT_PARAMS:
            if isinstance(value, bool):
                raise ValueError(f"{key} must be a number")
            value = float(value)  # scenario files parse numbers as strings
        elif key in _INT_PARAMS and type(value) is not int:
            raise ValueError(f"{key} must be an integer")
        params[key] = value
    return cls(**params)


class Agent:
    __slots__ = ("account", "strategy", "effort_count", "payout_micro")

    def __init__(self, account: str, strategy):
        self.account = account
        self.strategy = strategy
        self.effort_count = 0
        self.payout_micro = 0

    def registers(self) -> bool:
        return not isinstance(self.strategy, Abstain)

    def commits(self) -> bool:
        return not isinstance(self.strategy, (Abstain, FreeRide))


def observe(agent: Agent, truth: bool, rng) -> int:
    """One costly observation of the design's true validity.

    The channel is symmetric: the correct sign comes through with
    probability `quality`, the flipped sign otherwise. Charges one unit of
    effort to the agent's tally.
    """
    if not isinstance(agent.strategy, TruthfulEffort):
        raise ValueError("only TruthfulEffort agents observe")
    agent.effort_count += 1
    correct = 1 if truth else -1
    return correct if rng.random() < agent.strategy.quality else -correct


def decide_vote(agent: Agent, truth: bool, rng) -> int | None:
    """The vote this agent will commit for the current design, or None."""
    strategy = agent.strategy
    if isinstance(strategy, TruthfulEffort):
        return observe(agent, truth, rng)
    if isinstance(strategy, Guess):
        return 1 if rng.random() < strategy.bias else -1
    if isinstance(strategy, FixedVote):
        return strategy.vote
    return None


def utility_micro(agent: Agent, effort_cost_micro: int) -> int:
    """Settlement income minus effort spent, in micro-units."""
    return agent.payout_micro - agent.effort_count * effort_cost_micro


class IdentityProvider:
    """Signs account ids once; players attach the signature when registering."""

    def __init__(self, key_seed: bytes):
        self._key = signing_key_from_seed(key_seed)
        self._issued: dict[str, bytes] = {}

    @property
    def public_key(self) -> bytes:
        return public_bytes(self._key)

    def signature_for(self, account: str) -> bytes:
        if account not in self._issued:
            self._issued[account] = sign_account_id(self._key, account)
        return self._issued[account]


def run_party_round(
    ledger: SimLedger,
    design: int,
    agents: list,
    deposits: dict,
    truth: bool,
    identity: IdentityProvider,
    settle_initiator: str,
    commit_window: int,
    reveal_window: int,
    start: int,
    rng,
):
    """Drive one commit-reveal round for `design` and return the settlement
    payload the contract logged (`ResultCalculated`).

    Schedule, relative to `start` (the announce tick for evaluation rounds,
    the feedback opening tick otherwise): registrations at +1, receipt
    confirmations at +2, commits at +3, reveals one tick after the commit
    deadline, settlement one tick after the reveal deadline. Requires
    commit_window >= 3. Each tick is computed once, so every message and
    event of that tick shares one int.
    """
    register_at, received_at, commit_at = start + 1, start + 2, start + 3
    for agent in agents:
        if agent.registers():
            ledger.submit(
                agent.account,
                "register",
                {
                    "design": design,
                    "deposit": deposits[agent.account],
                    "signature": identity.signature_for(agent.account),
                },
                register_at,
            )
    registered = {
        r.message.sender
        for r in ledger.advance(register_at)
        if r.accepted and r.message.op == "register" and r.message.args["design"] == design
    }

    for agent in agents:
        if agent.account in registered:
            ledger.submit(
                MANAGER, "set_received", {"design": design, "player": agent.account}, received_at
            )
    ledger.advance(received_at)

    openings: dict[str, tuple[int, bytes]] = {}
    for agent in agents:
        if agent.account not in registered or not agent.commits():
            continue
        vote = decide_vote(agent, truth, rng)
        blinding = rng.randbytes(32)
        openings[agent.account] = (vote, blinding)
        ledger.submit(
            agent.account,
            "commit",
            {"design": design, "digest": commitment_digest(vote, blinding)},
            commit_at,
        )
    ledger.advance(commit_at)

    reveal_at = start + commit_window + 1
    for agent in agents:
        if agent.account in openings:
            vote, blinding = openings[agent.account]
            ledger.submit(
                agent.account,
                "reveal",
                {"design": design, "vote": vote, "blinding": blinding},
                reveal_at,
            )
    ledger.advance(reveal_at)

    settle_at = start + commit_window + reveal_window + 1
    settle = ledger.submit(settle_initiator, "calculate_result", {"design": design}, settle_at)
    return next(r.result for r in ledger.advance(settle_at) if r.message is settle)
