"""Commit-reveal design voting contract.

A vendor announces a design hash with collateral. Players register with an
identity signature and a deposit, receive the design off-chain (the manager
flags receipt on-chain), then commit a blinded vote and later reveal it.
After the reveal window closes, anyone may trigger settlement: the roster's
weighted votes produce a final score, the score decides the result, money
moves, and reputations update. Each player's reputation is kept as two
running sums (vote * result * final score, and final score) added in
settlement order, so it equals `trust.compute_reputation` over the player's
logged settlement rows. Designs that pass evaluation go on sale and face a
second, reputation-only feedback round run by a disjoint roster of buyers;
passing that too makes the design attested.

Every state change happens in a message handler and is appended to the
ledger's event log, so a trace replays to bit-identical state. Rejected
messages change nothing.

Phase order: evaluation_commit -> evaluation_reveal ->
on_sale_feedback_commit -> feedback_reveal -> attested, with removed and
annulled as terminal alternatives. Phases only move forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import trust
from .crypto import BLINDING_LEN, commitment_digest, verify_account_signature
from .ledger import Reject, SimLedger
from .trust import PaymentSchedule

PHASE_EVAL_COMMIT = "evaluation_commit"
PHASE_EVAL_REVEAL = "evaluation_reveal"
PHASE_ON_SALE = "on_sale_feedback_commit"
PHASE_FEEDBACK_REVEAL = "feedback_reveal"
PHASE_ATTESTED = "attested"
PHASE_REMOVED = "removed"
PHASE_ANNULLED = "annulled"

ROUND_EVALUATION = "evaluation"
ROUND_FEEDBACK = "feedback"

HASH_LEN = 32
DIGEST_LEN = 32

# Defaults for first-time voters: a small but non-zero standing.
REPUTATION_EPSILON = 0.01
WEIGHT_EPSILON = 0.01


@dataclass(frozen=True)
class ContractConstants:
    schedule: PaymentSchedule
    commit_window: int
    reveal_window: int
    manager: str
    ip_public_key: bytes
    escrow: str = "contract"
    reputation_epsilon: float = REPUTATION_EPSILON
    weight_epsilon: float = WEIGHT_EPSILON

    def __post_init__(self) -> None:
        if self.commit_window <= 0 or self.reveal_window <= 0:
            raise trust.DomainError("commit and reveal windows must be positive tick counts")
        if len(self.ip_public_key) != 32:
            raise trust.DomainError("identity provider key must be raw 32-byte Ed25519")


@dataclass(frozen=True)
class TransactionOutput:
    result: int
    final_score: float
    round: str


@dataclass
class DesignRecord:
    index: int
    vendor: str
    design_hash: bytes
    announced_at: int
    balance: int
    phase: str = PHASE_EVAL_COMMIT
    eval_roster: dict = field(default_factory=dict)  # player -> deposit (micro)
    feedback_roster: dict = field(default_factory=dict)
    feedback_opened_at: int | None = None


@dataclass
class ContractPlayerState:
    reputation: float
    transaction_count: int = 0
    agreement_sum: float = 0.0  # sum of vote * result * final_score
    score_sum: float = 0.0  # sum of final_score
    commitments: dict = field(default_factory=dict)  # design -> digest
    votes: dict = field(default_factory=dict)  # design -> revealed vote
    received: dict = field(default_factory=dict)  # design -> bool


class DesignVotingContract:
    """Message-driven voting contract bound to a `SimLedger`."""

    def __init__(self, constants: ContractConstants, ledger: SimLedger):
        self.constants = constants
        self.ledger = ledger
        self.designs: list[DesignRecord] = []
        self.players: dict[str, ContractPlayerState] = {}
        self._ops = {
            "announce": self._op_announce,
            "register": self._op_register,
            "set_received": self._op_set_received,
            "commit": self._op_commit,
            "reveal": self._op_reveal,
            "open_feedback": self._op_open_feedback,
            "calculate_result": self._op_calculate_result,
        }
        ledger.set_handler(self.handle)

    # ------------------------------------------------------------------ #
    # dispatch

    def handle(self, message):
        handler = self._ops.get(message.op)
        if handler is None:
            raise Reject(f"unknown operation {message.op!r}")
        try:
            return handler(message.sender, message.tick, **message.args)
        except TypeError as exc:
            raise Reject(f"malformed {message.op} message: {exc}") from None

    def _design(self, index) -> DesignRecord:
        if not isinstance(index, int) or isinstance(index, bool):
            raise Reject("design index must be an integer")
        if not 0 <= index < len(self.designs):
            raise Reject(f"unknown design {index}")
        return self.designs[index]

    def _active_round(self, record: DesignRecord):
        """(round name, roster, start tick or None) for a live design."""
        if record.phase in (PHASE_EVAL_COMMIT, PHASE_EVAL_REVEAL):
            return ROUND_EVALUATION, record.eval_roster, record.announced_at
        if record.phase in (PHASE_ON_SALE, PHASE_FEEDBACK_REVEAL):
            return ROUND_FEEDBACK, record.feedback_roster, record.feedback_opened_at
        raise Reject(f"design {record.index} is settled ({record.phase})")

    # ------------------------------------------------------------------ #
    # operations

    def _op_announce(self, sender: str, now: int, design_hash: bytes, collateral: int):
        if not isinstance(design_hash, bytes) or len(design_hash) != HASH_LEN:
            raise Reject("design hash must be 32 bytes")
        if not isinstance(collateral, int) or isinstance(collateral, bool) or collateral <= 0:
            raise Reject("collateral must be a positive amount")
        if self.ledger.balance_of(sender) < collateral:
            raise Reject("vendor cannot fund the collateral")
        index = len(self.designs)
        record = DesignRecord(
            index=index,
            vendor=sender,
            design_hash=design_hash,
            announced_at=now,
            balance=collateral,
        )
        self.designs.append(record)
        self.ledger.transfer(sender, self.constants.escrow, collateral, index)
        self.ledger.emit(
            "NewDesign",
            index,
            {
                "vendor": sender,
                "design_hash": design_hash.hex(),
                "collateral": collateral,
                "announced_at": now,
            },
        )
        return index

    def _op_register(self, sender: str, now: int, design: int, deposit: int, signature: bytes):
        record = self._design(design)
        if record.phase == PHASE_EVAL_COMMIT:
            round_name, roster = ROUND_EVALUATION, record.eval_roster
        elif record.phase == PHASE_ON_SALE:
            round_name, roster = ROUND_FEEDBACK, record.feedback_roster
        else:
            raise Reject(f"registration closed in phase {record.phase}")
        if sender in roster:
            raise Reject("already registered for this design")
        if round_name == ROUND_FEEDBACK and sender in record.eval_roster:
            raise Reject("evaluation players are barred from the feedback roster")
        if not isinstance(signature, bytes) or not verify_account_signature(
            self.constants.ip_public_key, sender, signature
        ):
            raise Reject("identity signature rejected")
        if (
            not isinstance(deposit, int)
            or isinstance(deposit, bool)
            or deposit < -self.constants.schedule.penalty_micro
        ):
            raise Reject("deposit does not cover the penalty")
        if round_name == ROUND_EVALUATION:
            cap = record.balance // self.constants.schedule.reward_micro
            if len(roster) + 1 > cap:
                raise Reject("roster full: collateral cannot reward another player")
        if self.ledger.balance_of(sender) < deposit:
            raise Reject("player cannot fund the deposit")
        self.ledger.transfer(sender, self.constants.escrow, deposit, design)
        roster[sender] = deposit
        if sender not in self.players:
            self.players[sender] = ContractPlayerState(
                reputation=self.constants.reputation_epsilon
            )
        self.ledger.emit(
            "Registered",
            design,
            {
                "player": sender,
                "deposit": deposit,
                "signature": signature.hex(),
                "round": round_name,
            },
        )

    def _op_set_received(self, sender: str, now: int, design: int, player: str):
        record = self._design(design)
        if sender != self.constants.manager:
            raise Reject("only the manager confirms receipt")
        round_name, roster, _ = self._active_round(record)
        if player not in roster:
            raise Reject("player is not registered in the active round")
        self.players[player].received[design] = True
        self.ledger.emit("Received", design, {"player": player, "round": round_name})

    def _op_commit(self, sender: str, now: int, design: int, digest: bytes):
        record = self._design(design)
        if not isinstance(digest, bytes) or len(digest) != DIGEST_LEN:
            raise Reject("commitment digest must be 32 bytes")
        round_name, roster, start = self._active_round(record)
        if start is None:
            raise Reject("feedback round not yet open")
        if sender not in roster or not self.players[sender].received.get(design, False):
            raise Reject("commit requires confirmed receipt of the design")
        if now > start + self.constants.commit_window:
            raise Reject("commit window closed")
        self.players[sender].commitments[design] = digest
        self.ledger.emit(
            "Committed",
            design,
            {"player": sender, "digest": digest.hex(), "round": round_name},
        )

    def _op_reveal(self, sender: str, now: int, design: int, vote: int, blinding: bytes):
        record = self._design(design)
        if isinstance(vote, bool) or vote not in trust.VALID_VOTES:
            raise Reject("vote must be -1, 0 or +1")
        if not isinstance(blinding, bytes) or len(blinding) != BLINDING_LEN:
            raise Reject(f"blinding must be {BLINDING_LEN} bytes")
        round_name, roster, start = self._active_round(record)
        if start is None:
            raise Reject("feedback round not yet open")
        if now <= start + self.constants.commit_window:
            raise Reject("reveal arrived during the commit window")
        if now > start + self.constants.commit_window + self.constants.reveal_window:
            raise Reject("reveal window closed")
        state = self.players.get(sender)
        if sender not in roster or state is None or design not in state.commitments:
            raise Reject("no commitment to open")
        if commitment_digest(vote, blinding) != state.commitments[design]:
            raise Reject("opening does not match the commitment")
        state.votes[design] = vote
        if record.phase == PHASE_EVAL_COMMIT:
            record.phase = PHASE_EVAL_REVEAL
        elif record.phase == PHASE_ON_SALE:
            record.phase = PHASE_FEEDBACK_REVEAL
        self.ledger.emit(
            "Revealed",
            design,
            {"player": sender, "vote": vote, "blinding": blinding.hex(), "round": round_name},
        )

    def _op_open_feedback(self, sender: str, now: int, design: int):
        record = self._design(design)
        if record.phase != PHASE_ON_SALE:
            raise Reject(f"cannot open feedback in phase {record.phase}")
        if record.feedback_opened_at is not None:
            raise Reject("feedback round already open")
        record.feedback_opened_at = now
        self.ledger.emit("FeedbackOpened", design, {"initiator": sender, "opened_at": now})

    def _op_calculate_result(self, sender: str, now: int, design: int):
        record = self._design(design)
        round_name, roster, start = self._active_round(record)
        if start is None:
            raise Reject("feedback round not yet open")
        deadline = start + self.constants.commit_window + self.constants.reveal_window
        if now <= deadline:
            raise Reject("reveal window still open")

        player_rows = []
        for player in sorted(roster):
            state = self.players[player]
            received = state.received.get(design, False)
            player_rows.append(
                {
                    "player": player,
                    "received": received,
                    "vote": state.votes.get(design) if received else None,
                    "reputation": state.reputation,
                    "count": state.transaction_count,
                    "deposit": roster[player],
                }
            )
        final_score, result, payouts = trust.settle_evaluation(
            player_rows, self.constants.weight_epsilon, self.constants.schedule
        )
        if round_name != ROUND_EVALUATION:
            payouts = dict.fromkeys(payouts, 0)  # feedback moves reputation only

        for row in player_rows:
            state = self.players[row["player"]]
            row["payout"] = payouts[row["player"]]
            if row["received"] and result != trust.RESULT_ANNULLED:
                state.agreement_sum += (row["vote"] or 0) * result * final_score
                state.score_sum += final_score
                state.transaction_count += 1
                state.reputation = trust.score_from_sums(state.agreement_sum, state.score_sum)
            row["reputation_after"] = state.reputation
            row["count_after"] = state.transaction_count

        for player in sorted(roster):
            self.ledger.transfer(
                self.constants.escrow, player, roster[player] + payouts[player], design
            )

        vendor_refund = None
        passed = PHASE_ATTESTED
        if round_name == ROUND_EVALUATION:
            vendor_refund = record.balance - sum(payouts.values())
            self.ledger.transfer(self.constants.escrow, record.vendor, vendor_refund, design)
            record.balance = 0
            passed = PHASE_ON_SALE
        record.phase = {
            trust.RESULT_VALID: passed,
            trust.RESULT_INVALID: PHASE_REMOVED,
            trust.RESULT_ANNULLED: PHASE_ANNULLED,
        }[result]

        self.ledger.emit(
            "ResultCalculated",
            design,
            {
                "initiator": sender,
                "round": round_name,
                "final_score": final_score,
                "result": result,
                "players": player_rows,
                "vendor_refund": vendor_refund,
                "phase": record.phase,
            },
        )
        return TransactionOutput(result, final_score, round_name)
