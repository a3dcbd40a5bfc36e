"""Deterministic single-process chain: logical clock, accounts, event log.

Time is an integer tick counter, and the chain runs one block per tick:
messages are queued for the next block, and `advance(to)` runs the whole
block at tick `to` in sender id order, each sender's in submission order, so
two runs fed the same genesis and per-sender message sequences produce
byte-identical event logs. Balances are integer micro-units and every move
is a balanced transfer, which keeps the global sum constant by construction.

Each logged event is one flat tuple, `(tick, kind, design, *values)`. Its
trace `seq` is its position in the log and is not stored, so a reader
that drains `events` counts what it has drained. Every `bytes` payload
value (a design hash, an identity signature, a commitment digest or a
blinding) is held raw, and this module is the one place that turns it into
its hex string.
"""

from __future__ import annotations

import json
from operator import attrgetter, itemgetter
from typing import Any, Callable, NamedTuple

# The trace's payload schema for every kind: its keys, sorted. A
# `LedgerEvent` holds its payload values as a tuple in this order.
PAYLOAD_KEYS = {
    "NewDesign": ("announced_at", "collateral", "design_hash", "vendor"),
    "Registered": ("deposit", "player", "round", "signature"),
    "Received": ("player", "round"),
    "Committed": ("digest", "player", "round"),
    "Revealed": ("blinding", "player", "round", "vote"),
    "FeedbackOpened": ("initiator", "opened_at"),
    "Transfer": ("amount", "from", "to"),
    "ResultCalculated": ("final_score", "initiator", "phase", "players", "result", "round",
                         "vendor_refund"),
}
EVENT_KINDS = tuple(PAYLOAD_KEYS)  # a tuple: a decoded kind may be unhashable

# The one canonical encoding of a trace line: sorted keys, no spaces.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_encode_str = json.encoder.encode_basestring_ascii
# Per kind: the line's text from `kind` up to the payload's first key, and
# each payload key's `"key":` prefix, comma-led after the first.
_LINE_PARTS = {
    kind: (f',"kind":{_encode_str(kind)},"payload":{{',
           tuple(("," if i else "") + _encode_str(key) + ":" for i, key in enumerate(keys)))
    for kind, keys in PAYLOAD_KEYS.items()
}


def _encode_value(value) -> str:
    """`canonical_json(value)`, with its two common types done directly; a
    `bytes` value is encoded as its hex string."""
    if type(value) is str:
        return _encode_str(value)
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is bytes:
        return f'"{value.hex()}"'
    return canonical_json(value)


class LedgerError(Exception):
    """An account or transfer violated ledger rules. Not a protocol reject:
    handlers are expected to pre-check funds, so this escaping means a bug."""


class Reject(Exception):
    """A protocol-level rejection: the message is discarded; its text is the reason."""


class Message(NamedTuple):
    sender: str
    op: str
    args: dict


class Receipt(NamedTuple):
    message: Message
    accepted: bool
    error: str | None = None
    result: Any = None


class LedgerEvent(tuple):
    """A logged event, built like any tuple from `(tick, kind, design, *values)`
    with its payload values in the order of `PAYLOAD_KEYS[kind]`. Its `seq`
    is its position in the log, so it is not held: the caller passes it to
    `to_json_line`. The line is the canonical JSON of the event with its
    payload as a dict, a `bytes` value (a design hash, a signature, a digest
    or a blinding) as its hex."""

    __slots__ = ()
    tick = property(itemgetter(0))
    kind = property(itemgetter(1))
    design = property(itemgetter(2))

    @property
    def payload(self) -> dict:
        return {
            key: value.hex() if type(value) is bytes else value
            for key, value in zip(PAYLOAD_KEYS[self[1]], self[3:], strict=True)
        }

    def to_json_line(self, seq: int) -> str:
        head, keys = _LINE_PARTS[self[1]]
        body = "".join([key + _encode_value(value) for key, value in zip(keys, self[3:], strict=True)])
        return (
            f'{{"design":{_encode_value(self[2])}{head}{body}}},'
            f'"seq":{_encode_value(seq)},"tick":{_encode_value(self[0])}}}'
        )


class SimLedger:
    def __init__(self, genesis_balances: dict) -> None:
        self.clock = 0
        self.accounts = {}
        self.events = []
        self._pending = []
        self._handler: Callable[[Message], Any] | None = None
        self._executing = False
        for account, balance in genesis_balances.items():
            if balance < 0:
                raise LedgerError(f"negative genesis balance for {account!r}")
            if type(balance) is not int:
                raise LedgerError(f"genesis balance for {account!r} is not whole micro-units")
            self.accounts[account] = balance

    def set_handler(self, handler: Callable[[Message], Any] | None) -> None:
        self._handler = handler

    def balance_of(self, account: str) -> int:
        if account not in self.accounts:
            raise LedgerError(f"unknown account {account!r}")
        return self.accounts[account]

    def total_balance(self) -> int:
        return sum(self.accounts.values())

    def submit(self, sender: str, op: str, args: dict) -> None:
        if self._executing:
            raise LedgerError("cannot submit while executing")
        self._pending.append(Message(sender, op, args))

    def advance(self, to: int) -> list:
        """Run the pending block at tick `to`, in sender order, each sender's
        messages in submission order; every event it logs holds `to`.
        Returns one receipt per message."""
        if to < self.clock:
            raise LedgerError(f"cannot rewind clock from {self.clock} to {to}")
        if self._handler is None:
            raise LedgerError("no message handler registered")
        self.clock = to
        # `_pending` is in submission order, and the sort is stable.
        block = sorted(self._pending, key=attrgetter("sender"))
        self._pending = []
        receipts = []
        for message in block:
            self._executing = True
            try:
                result = self._handler(message)
            except Reject as rejection:
                receipts.append(Receipt(message, accepted=False, error=str(rejection)))
            else:
                receipts.append(Receipt(message, accepted=True, result=result))
            finally:
                self._executing = False
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
        self.emit("Transfer", design, (amount, source, destination))

    def emit(self, kind: str, design: int | None, values: tuple) -> LedgerEvent:
        """Log an event: its payload values in `PAYLOAD_KEYS[kind]` order."""
        keys = PAYLOAD_KEYS.get(kind)
        if keys is None:
            raise LedgerError(f"unknown event kind {kind!r}")
        if len(values) != len(keys):
            raise LedgerError(f"{kind} takes {len(keys)} payload values, got {len(values)}")
        event = LedgerEvent((self.clock, kind, design, *values))
        self.events.append(event)
        return event
