"""Deterministic single-process chain: logical clock, accounts, event log.

Time is an integer tick counter. Messages are queued with a delivery tick
and executed in (tick, sender id, per-sender nonce) order, so any two runs
fed the same genesis and the same per-sender message sequences produce
byte-identical event logs. Balances are integer micro-units and every move
is a balanced transfer, which keeps the global sum constant by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

EVENT_KINDS = (
    "NewDesign",
    "Registered",
    "Received",
    "Committed",
    "Revealed",
    "FeedbackOpened",
    "ResultCalculated",
    "Transfer",
)

# The one canonical encoding of a trace line: sorted keys, no spaces.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class LedgerError(Exception):
    """An account or transfer violated ledger rules. Not a protocol reject:
    handlers are expected to pre-check funds, so this escaping means a bug."""


class Reject(Exception):
    """A protocol-level rejection: the message is discarded with a reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class Message:
    sender: str
    op: str
    args: dict
    tick: int
    nonce: int


@dataclass(frozen=True)
class Receipt:
    message: Message
    accepted: bool
    error: str | None = None
    result: Any = None


@dataclass(frozen=True, slots=True)
class LedgerEvent:
    tick: int
    seq: int
    kind: str
    design: int | None
    payload: dict

    def to_json_line(self) -> str:
        body = {
            "tick": self.tick,
            "seq": self.seq,
            "kind": self.kind,
            "design": self.design,
            "payload": self.payload,
        }
        return canonical_json(body)


@dataclass
class SimLedger:
    genesis_balances: dict
    clock: int = 0
    accounts: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    emitted: int = 0  # events ever emitted: a reader may drain `events`
    _pending: list = field(default_factory=list)
    _nonces: dict = field(default_factory=dict)
    _handler: Callable[[Message], Any] | None = None
    _executing: bool = False

    def __post_init__(self) -> None:
        for account, balance in self.genesis_balances.items():
            if balance < 0:
                raise LedgerError(f"negative genesis balance for {account!r}")
            self.accounts[account] = int(balance)

    def set_handler(self, handler: Callable[[Message], Any]) -> None:
        self._handler = handler

    def balance_of(self, account: str) -> int:
        if account not in self.accounts:
            raise LedgerError(f"unknown account {account!r}")
        return self.accounts[account]

    def total_balance(self) -> int:
        return sum(self.accounts.values())

    def submit(self, sender: str, op: str, args: dict, at: int) -> Message:
        if self._executing:
            raise LedgerError("cannot submit while executing")
        if at < self.clock:
            raise LedgerError(f"delivery tick {at} is in the past (clock={self.clock})")
        nonce = self._nonces.get(sender, 0)
        self._nonces[sender] = nonce + 1
        message = Message(sender=sender, op=op, args=args, tick=at, nonce=nonce)
        self._pending.append(message)
        return message

    def advance(self, to: int) -> list:
        """Execute every queued message with tick <= `to`, in deterministic
        order, and move the clock to `to`. Returns one receipt per message."""
        if to < self.clock:
            raise LedgerError(f"cannot rewind clock from {self.clock} to {to}")
        if self._handler is None:
            raise LedgerError("no message handler registered")
        due = sorted(
            (m for m in self._pending if m.tick <= to),
            key=lambda m: (m.tick, m.sender, m.nonce),
        )
        self._pending = [m for m in self._pending if m.tick > to]
        receipts = []
        for message in due:
            self.clock = message.tick
            self._executing = True
            try:
                result = self._handler(message)
            except Reject as rejection:
                receipts.append(Receipt(message, accepted=False, error=rejection.reason))
            else:
                receipts.append(Receipt(message, accepted=True, result=result))
            finally:
                self._executing = False
        self.clock = to
        return receipts

    def transfer(self, source: str, destination: str, amount: int, design: int | None) -> None:
        """Move `amount` micro-units. Zero-amount transfers are recorded too:
        settlement refunds of zero keep the trace shape uniform."""
        if amount < 0:
            raise LedgerError("transfer amount must be non-negative")
        if self.balance_of(source) < amount:
            raise LedgerError(
                f"insufficient funds: {source!r} has {self.accounts[source]}, needs {amount}"
            )
        self.balance_of(destination)
        self.accounts[source] -= amount
        self.accounts[destination] += amount
        self.emit(
            "Transfer",
            design,
            {"from": source, "to": destination, "amount": amount},
        )

    def emit(self, kind: str, design: int | None, payload: dict) -> LedgerEvent:
        if kind not in EVENT_KINDS:
            raise LedgerError(f"unknown event kind {kind!r}")
        event = LedgerEvent(
            tick=self.clock,
            seq=self.emitted,
            kind=kind,
            design=design,
            payload=payload,
        )
        self.emitted += 1
        self.events.append(event)
        return event
