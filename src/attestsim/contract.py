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
ledger's event log, so a trace replays to bit-identical state; every event
is one flat tuple holding its payload values in `ledger.PAYLOAD_KEYS` order,
a design hash, an identity signature, a commitment digest and a blinding as
the raw bytes the message carried.
`OPS` is the message schema; the verifier's replay rebuilds each message
from its event by it. An integer argument must be an `int` and a byte
string `bytes`, not a subclass. Rejected messages change nothing. An
accepted settlement returns its logged `ResultCalculated` payload as a dict
whose values are the logged objects.

A design holds only its live `Round`: the roster, the ballots of the
players whose receipt was confirmed, and the tick the round started.
Settlement replaces it with a fresh feedback round when the design goes on
sale, else with none, so a settled round leaves no state behind; a design
on sale keeps only its evaluators, who are barred from the feedback roster.

A trace's line 1, its genesis header, is the contract's deployment:
`genesis_header` writes it and `deploy` reads it back. Its `FIXED_HEADER`
fields (kind, schema, the manager, escrow and vendor accounts, and the
newcomer epsilons that `trust` defines) hold one value in every run.

Phase order: evaluation_commit -> evaluation_reveal ->
on_sale_feedback_commit -> feedback_reveal -> attested, with removed and
annulled as terminal alternatives. Phases only move forward.
"""

from __future__ import annotations

from fractions import Fraction

from . import trust
from .crypto import BLINDING_LEN, commitment_digest, verify_account_signature
from .ledger import Reject, SimLedger, canonical_json
from .money import MICRO, to_fraction
from .trust import REPUTATION_EPSILON, WEIGHT_EPSILON, PaymentSchedule, Record

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

# The genesis header fields that hold one value in every run: the accounts,
# and a first-time voter's reputation and weight basis, from `trust`.
MANAGER, ESCROW, VENDOR = "manager", "contract", "vendor"
FIXED_HEADER = {"kind": "genesis", "schema": 1, "manager": MANAGER, "escrow": ESCROW,
                "vendor": VENDOR, "reputation_epsilon": REPUTATION_EPSILON,
                "weight_epsilon": WEIGHT_EPSILON}
MAX_SEED = 2**64 - 1


def is_seed(value) -> bool:
    """The one seed rule: an `int`, not a subclass, in [0, MAX_SEED]."""
    return type(value) is int and 0 <= value <= MAX_SEED


class ContractConstants(Record):
    __slots__ = ("schedule", "commit_window", "reveal_window", "ip_public_key")

    def __init__(self, schedule: PaymentSchedule, commit_window, reveal_window, ip_public_key):
        if not all(type(w) is int and w > 0 for w in (commit_window, reveal_window)):
            raise trust.DomainError("commit and reveal windows must be positive tick counts")
        if len(ip_public_key) != 32:
            raise trust.DomainError("identity provider key must be raw 32-byte Ed25519")
        self.schedule = schedule
        self.commit_window = commit_window
        self.reveal_window = reveal_window
        self.ip_public_key = ip_public_key


class Round(Record):
    __slots__ = ("name", "start", "roster", "ballots")

    def __init__(self, name: str, start: int | None):
        self.name = name
        self.start = start  # the announce tick, or the tick feedback opened (None before)
        self.roster = {}  # player -> deposit (micro)
        self.ballots = {}  # receiver -> [digest, vote]


class DesignRecord:
    __slots__ = ("index", "vendor", "balance", "active", "phase", "evaluators")

    def __init__(self, index: int, vendor: str, balance: int, active: Round | None):
        self.index = index
        self.vendor = vendor
        self.balance = balance
        self.active = active  # None once the design is settled
        self.phase = PHASE_EVAL_COMMIT
        self.evaluators = {}  # the settled roster, while on sale


class ContractPlayerState:
    __slots__ = ("reputation", "transaction_count", "agreement_sum", "score_sum")

    def __init__(self):
        self.reputation = REPUTATION_EPSILON
        self.transaction_count = 0
        self.agreement_sum = 0.0  # sum of vote * result * final_score
        self.score_sum = 0.0  # sum of final_score


class DesignVotingContract:
    """Message-driven voting contract bound to a `SimLedger`."""

    def __init__(self, constants: ContractConstants, ledger: SimLedger):
        self.constants = constants
        self.ledger = ledger
        self.designs: list[DesignRecord] = []
        self.players: dict[str, ContractPlayerState] = {}
        ledger.set_handler(self.handle)

    # ------------------------------------------------------------------ #
    # dispatch

    def handle(self, message):
        entry = OPS.get(message.op)
        if entry is None:
            raise Reject(f"unknown operation {message.op!r}")
        try:
            return entry[0](self, message.sender, self.ledger.clock, **message.args)
        except TypeError as exc:
            raise Reject(f"malformed {message.op} message: {exc}") from None

    def _design(self, index) -> DesignRecord:
        if type(index) is not int:
            raise Reject("design index must be an integer")
        if not 0 <= index < len(self.designs):
            raise Reject(f"unknown design {index}")
        return self.designs[index]

    def _active_round(self, record: DesignRecord) -> Round:
        if record.active is None:
            raise Reject(f"design {record.index} is settled ({record.phase})")
        return record.active

    # ------------------------------------------------------------------ #
    # operations

    def _op_announce(self, sender: str, now: int, design_hash: bytes, collateral: int):
        if type(design_hash) is not bytes or len(design_hash) != HASH_LEN:
            raise Reject("design hash must be 32 bytes")
        if type(collateral) is not int or collateral <= 0:
            raise Reject("collateral must be a positive amount")
        if self.ledger.balance_of(sender) < collateral:
            raise Reject("vendor cannot fund the collateral")
        index = len(self.designs)
        self.designs.append(DesignRecord(index, sender, collateral, Round(ROUND_EVALUATION, now)))
        self.ledger.transfer(sender, ESCROW, collateral, index)
        self.ledger.emit("NewDesign", index, (now, collateral, design_hash, sender))

    def _op_register(self, sender: str, now: int, design: int, deposit: int, signature: bytes):
        record = self._design(design)
        if record.phase not in (PHASE_EVAL_COMMIT, PHASE_ON_SALE):
            raise Reject(f"registration closed in phase {record.phase}")
        active = record.active
        if sender in active.roster:
            raise Reject("already registered for this design")
        if sender in record.evaluators:
            raise Reject("evaluation players are barred from the feedback roster")
        if type(signature) is not bytes or not verify_account_signature(
            self.constants.ip_public_key, sender, signature
        ):
            raise Reject("identity signature rejected")
        if type(deposit) is not int or deposit < -self.constants.schedule.penalty_micro:
            raise Reject("deposit does not cover the penalty")
        if active.name == ROUND_EVALUATION:
            cap = record.balance // self.constants.schedule.reward_micro
            if len(active.roster) + 1 > cap:
                raise Reject("roster full: collateral cannot reward another player")
        if self.ledger.balance_of(sender) < deposit:
            raise Reject("player cannot fund the deposit")
        self.ledger.transfer(sender, ESCROW, deposit, design)
        active.roster[sender] = deposit
        if sender not in self.players:
            self.players[sender] = ContractPlayerState()
        self.ledger.emit("Registered", design, (deposit, sender, active.name, signature))

    def _op_set_received(self, sender: str, now: int, design: int, player: str):
        record = self._design(design)
        if sender != MANAGER:
            raise Reject("only the manager confirms receipt")
        active = self._active_round(record)
        if player not in active.roster:
            raise Reject("player is not registered in the active round")
        active.ballots.setdefault(player, [None, None])
        self.ledger.emit("Received", design, (player, active.name))

    def _op_commit(self, sender: str, now: int, design: int, digest: bytes):
        record = self._design(design)
        if type(digest) is not bytes or len(digest) != DIGEST_LEN:
            raise Reject("commitment digest must be 32 bytes")
        active = self._active_round(record)
        if active.start is None:
            raise Reject("feedback round not yet open")
        if sender not in active.ballots:
            raise Reject("commit requires confirmed receipt of the design")
        if now > active.start + self.constants.commit_window:
            raise Reject("commit window closed")
        active.ballots[sender][0] = digest
        self.ledger.emit("Committed", design, (digest, sender, active.name))

    def _op_reveal(self, sender: str, now: int, design: int, vote: int, blinding: bytes):
        record = self._design(design)
        if type(vote) is not int or vote not in trust.VALID_VOTES:
            raise Reject("vote must be -1, 0 or +1")
        if type(blinding) is not bytes or len(blinding) != BLINDING_LEN:
            raise Reject(f"blinding must be {BLINDING_LEN} bytes")
        active = self._active_round(record)
        if active.start is None:
            raise Reject("feedback round not yet open")
        if now <= active.start + self.constants.commit_window:
            raise Reject("reveal arrived during the commit window")
        if now > active.start + self.constants.commit_window + self.constants.reveal_window:
            raise Reject("reveal window closed")
        ballot = active.ballots.get(sender)
        if ballot is None or ballot[0] is None:
            raise Reject("no commitment to open")
        if commitment_digest(vote, blinding) != ballot[0]:
            raise Reject("opening does not match the commitment")
        ballot[1] = vote
        if record.phase == PHASE_EVAL_COMMIT:
            record.phase = PHASE_EVAL_REVEAL
        elif record.phase == PHASE_ON_SALE:
            record.phase = PHASE_FEEDBACK_REVEAL
        self.ledger.emit("Revealed", design, (blinding, sender, active.name, vote))

    def _op_open_feedback(self, sender: str, now: int, design: int):
        record = self._design(design)
        if record.phase != PHASE_ON_SALE:
            raise Reject(f"cannot open feedback in phase {record.phase}")
        if record.active.start is not None:
            raise Reject("feedback round already open")
        record.active.start = now
        self.ledger.emit("FeedbackOpened", design, (sender, now))

    def _op_calculate_result(self, sender: str, now: int, design: int):
        record = self._design(design)
        active = self._active_round(record)
        if active.start is None:
            raise Reject("feedback round not yet open")
        deadline = active.start + self.constants.commit_window + self.constants.reveal_window
        if now <= deadline:
            raise Reject("reveal window still open")

        player_rows = []
        for player in sorted(active.roster):
            state = self.players[player]
            ballot = active.ballots.get(player)
            player_rows.append(
                {
                    "player": player,
                    "received": ballot is not None,
                    "vote": ballot[1] if ballot else None,
                    "reputation": state.reputation,
                    "count": state.transaction_count,
                    "deposit": active.roster[player],
                }
            )
        final_score, result, payouts = trust.settle_evaluation(
            player_rows, self.constants.schedule
        )
        if active.name != ROUND_EVALUATION:
            payouts = dict.fromkeys(payouts, 0)  # feedback moves reputation only

        for row in player_rows:
            player = row["player"]
            state = self.players[player]
            row["payout"] = payouts[player]
            if row["received"] and result != trust.RESULT_ANNULLED:
                state.agreement_sum += (row["vote"] or 0) * result * final_score
                state.score_sum += final_score
                state.transaction_count += 1
                state.reputation = trust.score_from_sums(state.agreement_sum, state.score_sum)
            row["reputation_after"] = state.reputation
            row["count_after"] = state.transaction_count
            self.ledger.transfer(ESCROW, player, row["deposit"] + row["payout"], design)

        vendor_refund = None
        passed = PHASE_ATTESTED
        if active.name == ROUND_EVALUATION:
            vendor_refund = record.balance - sum(payouts.values())
            self.ledger.transfer(ESCROW, record.vendor, vendor_refund, design)
            record.balance = 0
            passed = PHASE_ON_SALE
        record.phase = {
            trust.RESULT_VALID: passed,
            trust.RESULT_INVALID: PHASE_REMOVED,
            trust.RESULT_ANNULLED: PHASE_ANNULLED,
        }[result]
        if record.phase == PHASE_ON_SALE:
            record.evaluators, record.active = active.roster, Round(ROUND_FEEDBACK, None)
        else:
            record.evaluators, record.active = {}, None

        return self.ledger.emit(
            "ResultCalculated",
            design,
            (final_score, sender, record.phase, player_rows, result, active.name, vendor_refund),
        ).payload


# The message schema: op -> (handler, the event it logs, the payload key
# naming its sender or None for the manager, its argument keys, of which
# `design` is the event's own field). Handlers are plain functions, so a
# contract holds no bound method of itself.
_C = DesignVotingContract
OPS = {
    "announce": (_C._op_announce, "NewDesign", "vendor", ("design_hash", "collateral")),
    "register": (_C._op_register, "Registered", "player", ("design", "deposit", "signature")),
    "set_received": (_C._op_set_received, "Received", None, ("design", "player")),
    "commit": (_C._op_commit, "Committed", "player", ("design", "digest")),
    "reveal": (_C._op_reveal, "Revealed", "player", ("design", "vote", "blinding")),
    "open_feedback": (_C._op_open_feedback, "FeedbackOpened", "initiator", ("design",)),
    "calculate_result": (_C._op_calculate_result, "ResultCalculated", "initiator", ("design",)),
}


def genesis_header(seed: int, constants: ContractConstants, balances: dict) -> str:
    """Line 1 of a trace: the canonical JSON of the run's seed, the deployment
    `constants` and `balances` describe, and the `FIXED_HEADER` fields."""
    if not is_seed(seed):
        raise trust.DomainError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    schedule = constants.schedule
    return canonical_json({
        **FIXED_HEADER,
        "seed": seed,
        "quality_threshold": str(schedule.quality_threshold),
        "effort_cost_micro": round(schedule.effort_cost * MICRO),
        "epsilon_micro": round(schedule.epsilon * MICRO),
        "payment_variant": schedule.variant,
        "reward_micro": schedule.reward_micro,
        "penalty_micro": schedule.penalty_micro,
        "commit_window": constants.commit_window,
        "reveal_window": constants.reveal_window,
        "ip_public_key": constants.ip_public_key.hex(),
        "genesis_balances": balances,
    })


def deploy(header: dict) -> tuple:
    """(ledger, contract) for the deployment a genesis header describes,
    which must hold every `FIXED_HEADER` field with its value and type."""
    for key, value in FIXED_HEADER.items():
        if type(header.get(key)) is not type(value) or header[key] != value:
            raise trust.DomainError(f"genesis header {key} must be {value!r}")
    schedule = PaymentSchedule(
        Fraction(header["effort_cost_micro"], MICRO), to_fraction(header["quality_threshold"]),
        Fraction(header["epsilon_micro"], MICRO), header["payment_variant"],
    )
    constants = ContractConstants(
        schedule, header["commit_window"], header["reveal_window"],
        bytes.fromhex(header["ip_public_key"]),
    )
    ledger = SimLedger(dict(header["genesis_balances"]))
    return ledger, DesignVotingContract(constants, ledger)
