"""Contract state machine: registration, windows, settlement, lifecycle."""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from attestsim.agents import IdentityProvider
from attestsim.contract import (
    FIXED_HEADER,
    ContractConstants,
    DesignVotingContract,
    PHASE_ANNULLED,
    PHASE_ATTESTED,
    PHASE_EVAL_COMMIT,
    PHASE_EVAL_REVEAL,
    PHASE_ON_SALE,
    PHASE_REMOVED,
    ROUND_FEEDBACK,
    Round,
    deploy,
    genesis_header,
)
from attestsim.crypto import commitment_digest
from attestsim.ledger import PAYLOAD_KEYS, SimLedger, canonical_json
from attestsim.scenario import load_config, run
from attestsim.trust import DomainError, PaymentSchedule, compute_reputation

sys.path.insert(0, str(Path(__file__).parent))
from corpus import corpus_configs

IDENTITY = IdentityProvider(b"\x11" * 32)
DESIGN_BYTES = b"some model bytes"
DESIGN_HASH = hashlib.sha256(DESIGN_BYTES).digest()
FUNDS = 100_000_000


class Int(int):
    """An `int` subclass, which no handler takes for an integer."""


class Bytes(bytes):
    """A `bytes` subclass, which no handler takes for a byte string."""


def blinding_for(player: str) -> bytes:
    return hashlib.sha256(f"blind:{player}".encode()).digest()


class Env:
    def __init__(
        self,
        quality=Fraction(3, 4),
        effort=1,
        epsilon=Fraction(1, 1000),
        commit_window=5,
        reveal_window=5,
        variant="simplified",
        players=8,
    ):
        self.schedule = PaymentSchedule(effort, quality, epsilon, variant)
        self.constants = ContractConstants(
            schedule=self.schedule,
            commit_window=commit_window,
            reveal_window=reveal_window,
            ip_public_key=IDENTITY.public_key,
        )
        balances = {"vendor": FUNDS, "manager": 0, "contract": 0}
        balances.update({f"p{i}": FUNDS for i in range(players)})
        balances.update({f"b{i}": FUNDS for i in range(4)})
        self.genesis_total = sum(balances.values())
        self.ledger = SimLedger(balances)
        self.contract = DesignVotingContract(self.constants, self.ledger)

    def step(self, sender, op, at, **args):
        at = max(at, self.ledger.clock)  # defaults may lag the clock
        self.ledger.submit(sender, op, args)
        return self.ledger.advance(at)[-1]

    def ok(self, sender, op, at, **args):
        receipt = self.step(sender, op, at, **args)
        assert receipt.accepted, f"{op} rejected: {receipt.error}"
        return receipt

    def refuse(self, sender, op, at, **args):
        receipt = self.step(sender, op, at, **args)
        assert not receipt.accepted, f"{op} unexpectedly accepted"
        return receipt.error

    # -- choreography helpers (default timeline: announce at 1, cw=rw=5) --

    def announce(self, at=1, collateral=15_000_000):
        self.ok("vendor", "announce", at, design_hash=DESIGN_HASH, collateral=collateral)
        return len(self.contract.designs) - 1

    def register(self, player, design=0, at=2, deposit=1_000_000):
        self.ok(
            player, "register", at,
            design=design, deposit=deposit, signature=IDENTITY.signature_for(player),
        )

    def receive(self, player, design=0, at=3):
        self.ok("manager", "set_received", at, design=design, player=player)

    def commit(self, player, vote, design=0, at=4):
        digest = commitment_digest(vote, blinding_for(player))
        self.ok(player, "commit", at, design=design, digest=digest)

    def reveal(self, player, vote, design=0, at=7):
        self.ok(player, "reveal", at, design=design, vote=vote, blinding=blinding_for(player))

    def settle(self, design=0, at=12, initiator="vendor"):
        return self.ok(initiator, "calculate_result", at, design=design).result

    def run_evaluation(self, votes: dict, design=0, silent=(), unreceived=(),
                       deposit=1_000_000):
        """votes: player -> vote for everyone who reveals."""
        everyone = sorted(set(votes) | set(silent) | set(unreceived))
        for p in everyone:
            self.register(p, design=design, deposit=deposit)
        for p in everyone:
            if p not in unreceived:
                self.receive(p, design=design)
        for p in sorted(votes):
            self.commit(p, votes[p], design=design)
        for p in sorted(votes):
            self.reveal(p, votes[p], design=design)
        return self.settle(design=design)


# ----------------------------------------------------------- happy paths

def genesis(**edits) -> dict:
    """The decoded genesis header of an `Env` deployment, with `edits`."""
    env = Env()
    header = json.loads(genesis_header(7, env.constants, env.ledger.accounts))
    return {**header, **edits}


def test_the_genesis_header_deploys_what_it_describes():
    header = genesis()
    assert {key: header[key] for key in FIXED_HEADER} == FIXED_HEADER
    ledger, contract = deploy(header)
    assert contract.constants == Env().constants
    assert ledger.accounts == Env().ledger.accounts
    assert genesis_header(7, contract.constants, ledger.accounts) == canonical_json(header)


@pytest.mark.parametrize(
    "key,value",
    [
        ("weight_epsilon", -1.0),
        ("weight_epsilon", "0.01"),
        ("weight_epsilon", True),
        ("weight_epsilon", float("inf")),
        ("weight_epsilon", 10**400),  # beyond the float range: no weight can use it
        ("reputation_epsilon", 2.0),
        ("reputation_epsilon", -0.5),
        ("reputation_epsilon", "0.01"),
        ("reputation_epsilon", False),
        ("reputation_epsilon", float("nan")),
    ],
)
def test_constants_reject_out_of_range_epsilons(key, value):
    with pytest.raises(DomainError, match=key):
        deploy(genesis(**{key: value}))


def test_deploy_rejects_any_other_epsilon_even_in_range():
    """The newcomer epsilons are fixed, so a value the old range check let
    through is a different contract, not another deployment of this one."""
    for reputation_epsilon, weight_epsilon in ((0, 0), (1, int(sys.float_info.max)), (0.0, 0.5), (1.0, 7)):
        for key, value in (("reputation_epsilon", reputation_epsilon),
                           ("weight_epsilon", weight_epsilon)):
            with pytest.raises(DomainError, match=key):
                deploy(genesis(**{key: value}))


@pytest.mark.parametrize("key", ["commit_window", "reveal_window"])
@pytest.mark.parametrize("value", [5.0, 1.0, True])
def test_windows_must_be_integers(key, value):
    windows = {"commit_window": 5, "reveal_window": 5, key: value}
    with pytest.raises(DomainError, match="windows must be positive tick counts"):
        ContractConstants(
            schedule=PaymentSchedule(1, Fraction(3, 4), Fraction(1, 1000)),
            ip_public_key=IDENTITY.public_key,
            **windows,
        )
    with pytest.raises(DomainError, match="windows must be positive tick counts"):
        deploy(genesis(**{key: value}))


def test_unanimous_valid_design_goes_on_sale():
    env = Env()
    env.announce()
    out = env.run_evaluation({f"p{i}": 1 for i in range(4)})
    assert out["result"] == 1
    assert out["final_score"] == 1.0
    assert env.contract.designs[0].phase == PHASE_ON_SALE
    # every voter got deposit + reward back; net worth grew by the reward
    for i in range(4):
        assert env.ledger.balance_of(f"p{i}") == FUNDS + env.schedule.reward_micro
    # vendor paid 4 rewards out of the collateral
    assert env.ledger.balance_of("vendor") == FUNDS - 4 * env.schedule.reward_micro
    assert env.ledger.balance_of("contract") == 0
    assert env.ledger.total_balance() == env.genesis_total


def test_settlement_receipt_carries_the_logged_payload():
    env = Env()
    env.announce()
    out = env.run_evaluation({f"p{i}": 1 for i in range(3)})
    logged = env.ledger.events[-1]
    assert logged.kind == "ResultCalculated"
    assert out == logged.payload
    keys = PAYLOAD_KEYS["ResultCalculated"]
    assert all(out[key] is value for key, value in zip(keys, logged[3:], strict=True))


def test_unanimous_invalid_design_is_removed():
    env = Env()
    env.announce()
    out = env.run_evaluation({f"p{i}": -1 for i in range(4)})
    assert out["result"] == -1
    assert out["final_score"] == 0.0
    assert env.contract.designs[0].phase == PHASE_REMOVED


def test_even_split_annuls_and_refunds_everyone():
    env = Env()
    env.announce()
    out = env.run_evaluation({"p0": 1, "p1": -1})
    assert out["result"] == 0
    assert env.contract.designs[0].phase == PHASE_ANNULLED
    for p in ("p0", "p1"):
        assert env.ledger.balance_of(p) == FUNDS  # deposit back, no payout
    assert env.ledger.balance_of("vendor") == FUNDS  # full collateral back


def test_silent_receiver_pays_penalty():
    env = Env()
    env.announce()
    out = env.run_evaluation({f"p{i}": 1 for i in range(3)}, silent=("p3",))
    assert out["result"] == 1
    assert env.ledger.balance_of("p3") == FUNDS + env.schedule.penalty_micro
    assert env.ledger.total_balance() == env.genesis_total


def test_unreceived_player_settles_at_zero():
    env = Env()
    env.announce()
    env.run_evaluation({f"p{i}": 1 for i in range(3)}, unreceived=("p3",))
    assert env.ledger.balance_of("p3") == FUNDS


def test_single_receiver_settles_neutral():
    env = Env()
    env.announce()
    out = env.run_evaluation({"p0": 1}, unreceived=("p1",))
    assert out["final_score"] == 1.0  # one voice decides the score alone
    assert out["result"] == 1
    assert env.ledger.balance_of("p0") == FUNDS  # no comparison set: payout 0


def test_full_feedback_cycle_reaches_attested():
    env = Env()
    env.announce()
    env.run_evaluation({f"p{i}": 1 for i in range(3)})
    assert env.contract.designs[0].phase == PHASE_ON_SALE
    for b in ("b0", "b1"):
        env.register(b, at=13)
    env.ok("manager", "open_feedback", 14, design=0)
    for b in ("b0", "b1"):
        env.receive(b, at=15)
    for b in ("b0", "b1"):
        digest = commitment_digest(1, blinding_for(b))
        env.ok(b, "commit", 16, design=0, digest=digest)
    for b in ("b0", "b1"):
        env.ok(b, "reveal", 20, design=0, vote=1, blinding=blinding_for(b))
    out = env.ok("manager", "calculate_result", 25, design=0).result
    assert out["result"] == 1
    assert env.contract.designs[0].phase == PHASE_ATTESTED
    # feedback rounds move no reward money: deposits come back unchanged
    for b in ("b0", "b1"):
        assert env.ledger.balance_of(b) == FUNDS
    assert env.ledger.total_balance() == env.genesis_total


def test_feedback_failure_removes_design():
    env = Env()
    env.announce()
    env.run_evaluation({f"p{i}": 1 for i in range(3)})
    for b in ("b0", "b1"):
        env.register(b, at=13)
    env.ok("manager", "open_feedback", 14, design=0)
    for b in ("b0", "b1"):
        env.receive(b, at=15)
    for b in ("b0", "b1"):
        env.ok(b, "commit", 16, design=0, digest=commitment_digest(-1, blinding_for(b)))
    for b in ("b0", "b1"):
        env.ok(b, "reveal", 20, design=0, vote=-1, blinding=blinding_for(b))
    out = env.ok("manager", "calculate_result", 25, design=0).result
    assert out["result"] == -1
    assert env.contract.designs[0].phase == PHASE_REMOVED


def test_settled_designs_keep_no_per_player_state():
    env = Env()
    env.announce()
    env.run_evaluation({f"p{i}": 1 for i in range(3)}, silent=("p3",), unreceived=("p4",))
    record = env.contract.designs[0]
    assert record.phase == PHASE_ON_SALE
    # The settled round is replaced by an empty, unopened feedback round.
    assert record.active == Round(ROUND_FEEDBACK, None)
    # On sale, the evaluation roster still bars its players from buying in.
    assert set(record.evaluators) == {f"p{i}" for i in range(5)}
    sig = IDENTITY.signature_for("p0")
    assert env.refuse("p0", "register", 13, design=0, deposit=1_000_000, signature=sig) == (
        "evaluation players are barred from the feedback roster"
    )
    buyers = ("b0", "b1", "b2")
    for b in buyers:
        env.register(b, at=13)
    env.ok("manager", "open_feedback", 14, design=0)
    for b in buyers:
        env.receive(b, at=15)
        env.ok(b, "commit", 16, design=0, digest=commitment_digest(1, blinding_for(b)))
    for b in ("b0", "b1"):  # b2 never opens its commitment
        env.ok(b, "reveal", 20, design=0, vote=1, blinding=blinding_for(b))
    env.ok("manager", "calculate_result", 25, design=0)
    assert record.phase == PHASE_ATTESTED
    assert (record.active, record.evaluators) == (None, {})

    # Late messages for the settled design keep their reasons.
    settled = "design 0 is settled (attested)"
    assert env.refuse("b2", "commit", 26, design=0, digest=bytes(32)) == settled
    assert env.refuse("b2", "reveal", 26, design=0, vote=1, blinding=blinding_for("b2")) == settled
    assert env.refuse("manager", "set_received", 26, design=0, player="b2") == settled
    sig = IDENTITY.signature_for("b3")
    assert env.refuse("b3", "register", 26, design=0, deposit=1_000_000, signature=sig) == (
        "registration closed in phase attested"
    )

    removed = Env()
    removed.announce()
    removed.run_evaluation({"p0": -1, "p1": -1}, silent=("p2",))
    record = removed.contract.designs[0]
    assert record.phase == PHASE_REMOVED
    assert (record.active, record.evaluators) == (None, {})


# ------------------------------------------------------------ announcing

def test_announce_validation():
    env = Env()
    env.refuse("vendor", "announce", 1, design_hash=b"short", collateral=1_000_000)
    env.refuse("vendor", "announce", 1, design_hash=DESIGN_HASH, collateral=0)
    env.refuse("vendor", "announce", 1, design_hash=DESIGN_HASH, collateral=-5)
    env.refuse("vendor", "announce", 1, design_hash=DESIGN_HASH, collateral=True)
    env.refuse("vendor", "announce", 1, design_hash=DESIGN_HASH, collateral=Int(1_000_000))
    env.refuse("vendor", "announce", 1, design_hash=Bytes(DESIGN_HASH), collateral=1_000_000)
    env.refuse("vendor", "announce", 1, design_hash=DESIGN_HASH, collateral=FUNDS + 1)
    assert env.contract.designs == []


def test_announce_moves_collateral_to_escrow():
    env = Env()
    env.announce(collateral=15_000_000)
    assert env.ledger.balance_of("vendor") == FUNDS - 15_000_000
    assert env.ledger.balance_of("contract") == 15_000_000


# ----------------------------------------------------------- registering

def test_register_validation():
    env = Env()
    env.announce()
    env.register("p0")
    sig = IDENTITY.signature_for("p1")
    # duplicate
    env.refuse("p0", "register", 2, design=0, deposit=1_000_000,
               signature=IDENTITY.signature_for("p0"))
    # wrong identity signature (signed for another account)
    env.refuse("p1", "register", 2, design=0, deposit=1_000_000,
               signature=IDENTITY.signature_for("p2"))
    env.refuse("p1", "register", 2, design=0, deposit=1_000_000, signature=b"junk")
    # deposit must cover the penalty: |penalty| = 889_889 here
    env.refuse("p1", "register", 2, design=0, deposit=889_888, signature=sig)
    env.refuse("p1", "register", 2, design=0, deposit=True, signature=sig)
    env.refuse("p1", "register", 2, design=0, deposit=Int(1_000_000), signature=sig)
    env.refuse("p1", "register", 2, design=0, deposit=1_000_000, signature=Bytes(sig))
    env.refuse("p1", "register", 2, design=0, deposit=FUNDS + 1, signature=sig)
    env.refuse("p1", "register", 2, design=7, deposit=1_000_000, signature=sig)
    env.ok("p1", "register", 2, design=0, deposit=889_889, signature=sig)


def test_roster_cap_is_collateral_over_reward():
    env = Env()
    env.announce(collateral=2_700_000)  # floor(2.7 / 0.888889) = 3 seats
    for p in ("p0", "p1", "p2"):
        env.register(p)
    error = env.refuse("p3", "register", 2, design=0, deposit=1_000_000,
                       signature=IDENTITY.signature_for("p3"))
    assert "roster full" in error


def test_registration_closes_after_first_reveal():
    env = Env()
    env.announce()
    for p in ("p0", "p1"):
        env.register(p)
        env.receive(p)
        env.commit(p, 1)
    env.reveal("p0", 1)
    assert env.contract.designs[0].phase == PHASE_EVAL_REVEAL
    env.refuse("p2", "register", 8, design=0, deposit=1_000_000,
               signature=IDENTITY.signature_for("p2"))


def test_late_registration_allowed_while_commit_phase_lasts():
    # Time does not gate registration; the commit deadline does that for
    # votes. A late registrant simply cannot commit any more.
    env = Env()
    env.announce()
    for p in ("p0", "p1"):
        env.register(p)
        env.receive(p)
        env.commit(p, 1)
    env.ok("p2", "register", 9, design=0, deposit=1_000_000,
           signature=IDENTITY.signature_for("p2"))
    env.ok("manager", "set_received", 9, design=0, player="p2")
    env.refuse("p2", "commit", 9, design=0,
               digest=commitment_digest(1, blinding_for("p2")))


def test_feedback_roster_bars_evaluation_players():
    env = Env()
    env.announce()
    env.run_evaluation({f"p{i}": 1 for i in range(3)})
    error = env.refuse("p0", "register", 13, design=0, deposit=1_000_000,
                       signature=IDENTITY.signature_for("p0"))
    assert "barred" in error
    env.register("b0", at=13)  # fresh account is fine


# ------------------------------------------------------- receipt + commit

def test_set_received_is_manager_only_and_idempotent():
    env = Env()
    env.announce()
    env.register("p0")
    env.refuse("p0", "set_received", 3, design=0, player="p0")
    env.refuse("manager", "set_received", 3, design=0, player="p9")
    env.receive("p0")
    env.receive("p0")  # idempotent
    assert env.contract.designs[0].active.ballots == {"p0": [None, None]}


def test_a_repeated_receipt_keeps_the_commitment_and_the_vote():
    env = Env()
    env.announce()
    for p in ("p0", "p1"):
        env.register(p)
        env.receive(p)
        env.commit(p, 1)
    env.receive("p0", at=5)  # after the commit: the reveal must still open it
    env.reveal("p0", 1)
    env.reveal("p1", 1)
    env.receive("p1", at=8)  # after the reveal: settlement must still count it
    out = env.settle()
    assert [(row["player"], row["vote"]) for row in out["players"]] == [("p0", 1), ("p1", 1)]


def test_commit_requires_registration_and_receipt():
    env = Env()
    env.announce()
    env.register("p0")
    digest = commitment_digest(1, blinding_for("p0"))
    error = env.refuse("p0", "commit", 4, design=0, digest=digest)
    assert "receipt" in error
    env.refuse("p9", "commit", 4, design=0, digest=digest)
    env.receive("p0")
    env.ok("p0", "commit", 4, design=0, digest=digest)


def test_commit_window_boundary():
    env = Env()  # announce at 1, commit window 5: last valid commit tick is 6
    env.announce()
    env.register("p0")
    env.register("p1")
    env.receive("p0")
    env.receive("p1")
    digest = commitment_digest(1, blinding_for("p0"))
    env.ok("p0", "commit", 6, design=0, digest=digest)
    error = env.refuse("p1", "commit", 7, design=0,
                       digest=commitment_digest(1, blinding_for("p1")))
    assert "window" in error


def test_commit_rejects_malformed_digests():
    env = Env()
    env.announce()
    env.register("p0")
    env.receive("p0")
    env.refuse("p0", "commit", 4, design=0, digest=b"short")
    env.refuse("p0", "commit", 4, design=0, digest="0" * 64)
    env.refuse("p0", "commit", 4, design=0, digest=Bytes(commitment_digest(1, blinding_for("p0"))))


def test_commit_overwrite_latest_wins():
    env = Env()
    env.announce()
    for p in ("p0", "p1"):
        env.register(p)
        env.receive(p)
    env.commit("p0", -1)
    digest = commitment_digest(1, blinding_for("p0"))
    env.ok("p0", "commit", 5, design=0, digest=digest)  # overwrite
    env.commit("p1", 1)
    env.refuse("p0", "reveal", 7, design=0, vote=-1, blinding=blinding_for("p0"))
    env.reveal("p0", 1)


# ----------------------------------------------------------------- reveal

def test_reveal_window_boundaries():
    env = Env()
    env.announce()
    for p in ("p0", "p1", "p2"):
        env.register(p)
        env.receive(p)
        env.commit(p, 1)
    # commit window still open at tick 6: reveal refused
    error = env.refuse("p0", "reveal", 6, design=0, vote=1, blinding=blinding_for("p0"))
    assert "commit window" in error
    env.reveal("p0", 1, at=7)  # first tick after the commit deadline
    env.reveal("p1", 1, at=11)  # exactly at the reveal deadline
    error = env.refuse("p2", "reveal", 12, design=0, vote=1, blinding=blinding_for("p2"))
    assert "closed" in error


def test_reveal_must_match_commitment():
    env = Env()
    env.announce()
    for p in ("p0", "p1"):
        env.register(p)
        env.receive(p)
    env.commit("p0", 1)
    env.refuse("p0", "reveal", 7, design=0, vote=-1, blinding=blinding_for("p0"))
    env.refuse("p0", "reveal", 7, design=0, vote=1, blinding=bytes(32))
    env.refuse("p0", "reveal", 7, design=0, vote=2, blinding=blinding_for("p0"))
    env.refuse("p0", "reveal", 7, design=0, vote=1, blinding=b"short")
    env.refuse("p0", "reveal", 7, design=0, vote=1, blinding=Bytes(blinding_for("p0")))
    for vote in (1.0, Int(1)):
        error = env.refuse("p0", "reveal", 7, design=0, vote=vote, blinding=blinding_for("p0"))
        assert error == "vote must be -1, 0 or +1"
    # p1 never committed
    env.refuse("p1", "reveal", 7, design=0, vote=1, blinding=blinding_for("p1"))
    env.reveal("p0", 1)


# ------------------------------------------------------------- settlement

def test_settlement_waits_for_the_reveal_deadline():
    env = Env()
    env.announce()
    env.register("p0")
    env.register("p1")
    error = env.refuse("vendor", "calculate_result", 11, design=0)
    assert "still open" in error
    env.ok("vendor", "calculate_result", 12, design=0)


def test_settlement_is_permissionless_after_deadline():
    env = Env()
    env.announce()
    env.register("p0")
    env.register("p1")
    env.ok("p9", "calculate_result", 12, design=0)  # any account may settle


def test_terminal_designs_refuse_everything():
    env = Env()
    env.announce()
    env.run_evaluation({"p0": 1, "p1": -1})  # annulled
    assert env.contract.designs[0].phase == PHASE_ANNULLED
    sig = IDENTITY.signature_for("p5")
    env.refuse("p5", "register", 13, design=0, deposit=1_000_000, signature=sig)
    env.refuse("manager", "set_received", 13, design=0, player="p0")
    env.refuse("p0", "commit", 13, design=0, digest=bytes(32))
    env.refuse("p0", "reveal", 13, design=0, vote=1, blinding=bytes(32))
    env.refuse("vendor", "calculate_result", 13, design=0)
    env.refuse("manager", "open_feedback", 13, design=0)


def test_vendor_refund_includes_collected_penalties():
    # With a 0.6 threshold two voters clear the score while three silent
    # receivers owe penalties: the vendor gets back more than the collateral.
    env = Env(quality=Fraction(3, 5))
    reward = env.schedule.reward_micro   # 1_388_889
    penalty = env.schedule.penalty_micro
    env.announce(collateral=7_000_000)
    out = env.run_evaluation(
        {"p0": 1, "p1": 1},
        silent=("p2", "p3", "p4"),
        deposit=1_500_000,  # the 0.6 threshold raises |penalty| to ~1.39
    )
    assert out["result"] == 1
    expected_refund = 7_000_000 - (2 * reward + 3 * penalty)
    assert expected_refund > 7_000_000
    assert env.ledger.balance_of("vendor") == FUNDS - 7_000_000 + expected_refund
    assert env.ledger.total_balance() == env.genesis_total


def test_open_feedback_requires_on_sale_and_is_single_shot():
    env = Env()
    env.announce()
    env.refuse("manager", "open_feedback", 2, design=0)
    env.run_evaluation({f"p{i}": 1 for i in range(3)})
    env.ok("manager", "open_feedback", 13, design=0)
    env.refuse("manager", "open_feedback", 14, design=0)


def test_feedback_commit_needs_opened_round():
    env = Env()
    env.announce()
    env.run_evaluation({f"p{i}": 1 for i in range(3)})
    env.register("b0", at=13)
    env.ok("manager", "set_received", 13, design=0, player="b0")
    error = env.refuse("b0", "commit", 13, design=0,
                       digest=commitment_digest(1, blinding_for("b0")))
    assert "not yet open" in error


# -------------------------------------------------- reputation evolution

def test_reputations_and_counts_update_only_on_decided_rounds():
    env = Env()
    env.announce()
    env.run_evaluation({"p0": 1, "p1": -1})  # annulled: no updates
    assert env.contract.players["p0"].transaction_count == 0
    assert env.contract.players["p0"].reputation == 0.01

    env.ok("vendor", "announce", 13, design_hash=DESIGN_HASH, collateral=15_000_000)
    for p in ("p0", "p1", "p2"):
        env.ok(p, "register", 14, design=1, deposit=1_000_000,
               signature=IDENTITY.signature_for(p))
        env.ok("manager", "set_received", 15, design=1, player=p)
        env.ok(p, "commit", 16, design=1, digest=commitment_digest(1, blinding_for(p)))
    for p in ("p0", "p1", "p2"):
        env.ok(p, "reveal", 19, design=1, vote=1, blinding=blinding_for(p))
    out = env.ok("vendor", "calculate_result", 25, design=1).result
    assert out["result"] == 1
    state = env.contract.players["p0"]
    assert state.transaction_count == 1
    assert state.reputation == 1.0  # voted with a unanimous +1 at score 1.0


def logged_histories(events):
    """Yield (row, records so far) for each logged settlement row, where the
    player's (vote, result, final_score) records are rebuilt from the
    ResultCalculated rows: one per decided round the player received the
    design in."""
    histories = {}
    for event in events:
        if event.kind != "ResultCalculated":
            continue
        payload = event.payload
        for row in payload["players"]:
            records = histories.setdefault(row["player"], [])
            if row["received"] and payload["result"] != 0:
                records.append((row["vote"] or 0, payload["result"], payload["final_score"]))
            yield row, list(records)


def rebuilt_histories(events):
    return {row["player"]: records for row, records in logged_histories(events)}


def test_stored_reputation_always_recomputable_from_history():
    env = Env()
    env.announce()
    # 3-vs-1 with equal newcomer influence scores exactly 0.75: annulled,
    # so no record is rebuilt and everyone keeps the newcomer epsilon.
    out = env.run_evaluation({"p0": 1, "p1": 1, "p2": 1, "p3": -1})
    assert out["result"] == 0
    histories = rebuilt_histories(env.ledger.events)
    for player, state in env.contract.players.items():
        assert histories[player] == []
        assert state.reputation == 0.01
        assert state.transaction_count == 0

    # a decided round makes the stored value the recomputation of the rows
    env.ok("vendor", "announce", 13, design_hash=DESIGN_HASH, collateral=15_000_000)
    for p in ("p0", "p1", "p2", "p3"):
        env.ok(p, "register", 14, design=1, deposit=1_000_000,
               signature=IDENTITY.signature_for(p))
        env.ok("manager", "set_received", 15, design=1, player=p)
        env.ok(p, "commit", 16, design=1, digest=commitment_digest(1, blinding_for(p)))
    for p in ("p0", "p1", "p2", "p3"):
        env.ok(p, "reveal", 19, design=1, vote=1, blinding=blinding_for(p))
    out = env.ok("vendor", "calculate_result", 24, design=1).result
    assert out["result"] == 1
    histories = rebuilt_histories(env.ledger.events)
    for player, state in env.contract.players.items():
        assert histories[player] != []
        assert state.reputation == compute_reputation(histories[player])
        assert state.transaction_count == len(histories[player])


@pytest.mark.parametrize("source", ["multi_design_reputation_chain", "incentives.json"])
def test_every_logged_reputation_is_the_fold_of_the_rows_so_far(source):
    # Bitwise equality pins the order in which the running sums are added.
    if source.endswith(".json"):
        config = load_config(Path(__file__).parent.parent / "scenarios" / source)
    else:
        config = corpus_configs()[source]
    decided = 0
    for row, records in logged_histories(run(config).events):
        assert row["count_after"] == len(records)
        if records:
            decided += 1
            assert row["reputation_after"] == compute_reputation(records)
        else:
            assert row["reputation_after"] == row["reputation"]
    assert decided > 20


# ------------------------------------------------------- dispatch hygiene

def test_unknown_and_malformed_operations_reject_cleanly():
    env = Env()
    env.refuse("p0", "frobnicate", 1)
    error = env.refuse("vendor", "announce", 1, design_hash=DESIGN_HASH)  # missing arg
    assert "malformed" in error
    env.refuse("p0", "register", 1, design=0.5, deposit=1, signature=b"")
    env.refuse("p0", "register", 1, design=True, deposit=1, signature=b"")
    env.announce(at=2)
    env.refuse("p0", "register", 2, design=Int(0), deposit=1_000_000,
               signature=IDENTITY.signature_for("p0"))


# ----------------------------------------------------- random op traffic

OPS = st.sampled_from(["announce", "register", "set_received", "commit",
                       "reveal", "open_feedback", "calculate_result"])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_traffic_never_corrupts_money_or_crashes(data):
    env = Env(players=4)
    senders = ["vendor", "manager", "p0", "p1", "p2", "p3"]
    tick = 1
    for _ in range(data.draw(st.integers(min_value=1, max_value=40), label="steps")):
        tick += data.draw(st.integers(min_value=0, max_value=3), label="dt")
        sender = data.draw(st.sampled_from(senders), label="sender")
        op = data.draw(OPS, label="op")
        args = {}
        if op == "announce":
            args = {"design_hash": DESIGN_HASH, "collateral": 5_000_000}
        elif op == "register":
            args = {"design": data.draw(st.integers(0, 2), label="d"),
                    "deposit": data.draw(st.sampled_from([1, 889_889, 1_000_000]), label="dep"),
                    "signature": IDENTITY.signature_for(sender)}
        elif op == "set_received":
            args = {"design": data.draw(st.integers(0, 2), label="d"),
                    "player": data.draw(st.sampled_from(senders), label="pl")}
        elif op == "commit":
            vote = data.draw(st.sampled_from([-1, 0, 1]), label="v")
            args = {"design": data.draw(st.integers(0, 2), label="d"),
                    "digest": commitment_digest(vote, blinding_for(sender))}
        elif op == "reveal":
            args = {"design": data.draw(st.integers(0, 2), label="d"),
                    "vote": data.draw(st.sampled_from([-1, 0, 1]), label="v"),
                    "blinding": blinding_for(sender)}
        else:
            args = {"design": data.draw(st.integers(0, 2), label="d")}
        env.ledger.submit(sender, op, args)
        env.ledger.advance(tick)

    assert env.ledger.total_balance() == env.genesis_total
    assert env.ledger.balance_of("contract") >= 0
    # trace-level safety: every reveal opens a commitment made earlier
    seen_commits = {}
    for event in env.ledger.events:
        if event.kind == "Committed":
            seen_commits[(event.payload["player"], event.design)] = event.payload["digest"]
        elif event.kind == "Revealed":
            key = (event.payload["player"], event.design)
            assert key in seen_commits
            expected = commitment_digest(
                event.payload["vote"], bytes.fromhex(event.payload["blinding"])
            )
            assert expected.hex() == seen_commits[key]
