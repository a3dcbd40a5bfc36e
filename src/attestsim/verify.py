"""Independent trace verification, in one streaming pass over the file.

Each line is decoded, checked, recomputed and replayed as it is read, and
dropped once compared, so memory does not grow with the trace. The layers:

1. parse: every line is UTF-8 JSON without non-finite numbers.
2. structure: line 1 is the genesis header; every event has exactly the
   five event fields, a known kind, the next `seq` and a non-decreasing
   integer tick.
3. mirror (rational recomputation): every settlement's weights, final
   score, result and payouts are recomputed exactly from its logged rows by
   `oracle.settle_exact`, and its vendor refund and reputation updates by
   the mirror, `oracle.RationalMirror` (anchored at the logged values, so
   each settlement is linear in roster size). They must match within 1e-12
   for scores, exactly for integers. Payload values are type-checked before
   any arithmetic: a string, boolean or null where a number belongs fails
   its line, and so does a number whose check overflows a float.
4. replay: `contract.deploy` builds a fresh ledger and contract from the
   genesis header, as the run did, and line 1 must be byte for byte the
   line `contract.genesis_header` writes for that deployment. Every message
   is rebuilt from its event and pushed through them, one ledger block per
   tick, and the regenerated log must byte-for-byte equal the original.
   Reordered, dropped, forged or edited events all surface as a
   first-divergence line.

One rule gives the verdict: the first failing line of the highest layer
that fails. A parse failure ends the pass at once. Below it, failures are
ranked strongest first: structure, mirror, then the replay's three stages
in order, rebuild (a message that cannot be rebuilt, or a header that
cannot deploy or is not the line its deployment writes), execute (an
exception while executing) and compare (a byte divergence). A check of one
rank runs only while no failure of that rank or a stronger one stands,
which gives the verdict of checking each rank over the whole file in turn.
`VerifyResult.layer` names the layer (`read` for an unreadable file).

Traces are self-contained: line 1 is a genesis header carrying constants,
keys and starting balances.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import NamedTuple

from .contract import MANAGER, OPS, deploy, genesis_header
from .ledger import EVENT_KINDS, LedgerError, Reject, canonical_json
from .oracle import OracleMismatch, RationalMirror
from .trust import DomainError


class VerifyResult(NamedTuple):
    ok: bool
    error: str | None = None
    line: int | None = None
    layer: str | None = None  # read, parse, structure, mirror or replay

    def __bool__(self) -> bool:
        return self.ok


def _finite_float(text: str) -> float:
    """Decodes a float literal or a NaN or Infinity constant, rejecting any
    value that is not finite (a literal beyond the float range too)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


# Event kind -> (op, sender key, argument keys), from the contract's `OPS`.
_MESSAGES = {kind: (op, sender, args) for op, (_, kind, sender, args) in OPS.items()}
_HEX_ARGS = frozenset(("design_hash", "signature", "digest", "blinding"))


def _reconstruct_message(event: dict):
    """(sender, op, args) for the message that produced this event. A sender
    that is not a string fails here, on its event's line: the ledger could
    not order it among the other senders."""
    kind = event["kind"]
    op, sender_key, arg_keys = _MESSAGES[kind]
    payload = event["payload"]
    sender = MANAGER if sender_key is None else payload[sender_key]
    args = {}
    for key in arg_keys:
        value = event["design"] if key == "design" else payload[key]
        args[key] = bytes.fromhex(value) if key in _HEX_ARGS else value
    if not isinstance(sender, str):
        raise TypeError(f"sender {sender!r} of a {kind} event is not a string")
    return sender, op, args


def _header_difference(header: dict, rebuilt: dict) -> str:
    """The error for a line 1 that is not the line its deployment writes."""
    ours, theirs = ({k: canonical_json(v) for k, v in h.items()} for h in (header, rebuilt))
    differ = [k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k)]
    if not differ:
        return "replay: line 1 is not canonical JSON"
    return f"replay: line 1 differs from its rebuild at key {min(differ)!r}"


_PAYLOAD_ERRORS = (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError, RecursionError)
_REPLAY_ERRORS = (Reject, LedgerError, DomainError, KeyError, TypeError, ValueError, RecursionError)
_EVENT_FIELDS = frozenset(("tick", "seq", "kind", "design", "payload"))
# Failure ranks, strongest first (see the module docstring), and the layer
# each reports; `_NONE` ranks below every failure.
_STRUCTURE, _MIRROR, _REBUILD, _EXECUTE, _COMPARE, _NONE = range(6)
_LAYERS = ("structure", "mirror", "replay", "replay", "replay")


def _structure_problem(event, index: int, last_tick: int) -> str | None:
    if not isinstance(event, dict) or event.keys() != _EVENT_FIELDS:
        return "event line missing required fields"
    if event["kind"] not in EVENT_KINDS:
        return f"unknown event kind {event['kind']!r}"
    if type(event["seq"]) is not int or event["seq"] != index:
        return f"sequence break: expected {index}, got {event['seq']}"
    if type(event["tick"]) is not int or event["tick"] < last_tick:
        return "ticks must be non-decreasing"
    return None


class _Pass:
    """Every layer below parse, fed one decoded line at a time; a check of
    rank r runs only while no failure of rank <= r stands.

    The replay submits messages as their events are read; when the first
    event of a later tick arrives, the previous tick's block is executed,
    so the ledger's order, by sender, then submission, is the one a replay
    of the whole file would run. Replayed and trace lines meet in two FIFOs
    in trace order and are dropped once compared.
    """

    def __init__(self):
        self.failure = (_NONE, None, None)  # (rank, error, line) of the strongest failure
        self.mirror = self.ledger = None
        self.last_tick = 0  # the latest tick; the replay has run every earlier tick
        self.trace = deque()  # trace lines not yet compared
        self.replayed = deque()  # replayed lines not yet compared
        self.compared = 0
        self.drained = 0  # events the replay logged and this pass drained

    def _fail(self, rank: int, error: str, line: int) -> None:
        if rank < self.failure[0]:
            self.failure = (rank, error, line)
        self.trace.clear()
        self.replayed.clear()

    def genesis(self, header, text: str) -> None:
        if not isinstance(header, dict) or header.get("kind") != "genesis":
            self._fail(_STRUCTURE, "first line must be the genesis header", 1)
            return
        try:
            self.mirror = RationalMirror(header)
        except OracleMismatch as exc:
            self._fail(_MIRROR, str(exc), 1)
        except _PAYLOAD_ERRORS as exc:
            self._fail(_MIRROR, f"unusable genesis header: {exc!r}", 1)
        else:
            try:
                self.ledger, contract = deploy(header)
                rebuilt = genesis_header(header["seed"], contract.constants, self.ledger.accounts)
            except _REPLAY_ERRORS as exc:
                self._fail(_REBUILD, f"replay failed: {exc!r}", 1)
                return
            if rebuilt != text:
                self._fail(_REBUILD, _header_difference(header, _DECODER.decode(rebuilt)), 1)

    def event(self, line: int, event, text: str) -> None:
        if self.failure[0] <= _STRUCTURE:
            return
        problem = _structure_problem(event, line - 2, self.last_tick)
        if problem is not None:
            self._fail(_STRUCTURE, problem, line)
            return
        previous, self.last_tick = self.last_tick, event["tick"]
        kind = event["kind"]
        if self.failure[0] > _MIRROR:
            try:
                if kind == "NewDesign":
                    self.mirror.observe_new_design(event["design"], event["payload"]["collateral"])
                elif kind == "ResultCalculated":
                    self.mirror.check_result(event["design"], event["payload"])
            except OracleMismatch as exc:
                self._fail(_MIRROR, str(exc), line)
            except _PAYLOAD_ERRORS as exc:
                self._fail(_MIRROR, f"unusable header or payload: {exc!r}", line)
        if self.failure[0] <= _REBUILD:
            return
        if self.last_tick > previous and self.failure[0] > _EXECUTE:
            self._advance(previous)
        try:
            if kind != "Transfer":
                sender, op, args = _reconstruct_message(event)
                if self.failure[0] > _EXECUTE:
                    self.ledger.submit(sender, op, args)
        except _REPLAY_ERRORS as exc:
            self._fail(_REBUILD, f"replay failed: {exc!r}", line)
            return
        if self.failure[0] > _COMPARE:
            self.trace.append(text)

    def _advance(self, tick: int) -> None:
        """Execute the pending block at `tick` and compare what it logged.
        The ledger's events are drained only after `advance` returns, so
        `advance`, and whatever wraps it, sees each batch whole; the pass
        counts what it drains, which gives each replayed event its seq."""
        ledger = self.ledger
        try:
            ledger.advance(tick)
        except _REPLAY_ERRORS as exc:
            self._fail(_EXECUTE, f"replay failed: {exc!r}", self.drained + len(ledger.events) + 2)
            return
        if self.failure[0] > _COMPARE:
            self.replayed.extend(
                event.to_json_line(seq) for seq, event in enumerate(ledger.events, self.drained)
            )
        self.drained += len(ledger.events)
        ledger.events.clear()
        trace, replayed = self.trace, self.replayed
        while trace and replayed:
            ours, theirs = trace.popleft(), replayed.popleft()
            if ours != theirs:
                self._fail(
                    _COMPARE,
                    f"replay divergence: trace line {ours[:120]!r} vs replayed {theirs[:120]!r}",
                    self.compared + 2,
                )
                return
            self.compared += 1
        # What is left on one side can only meet lines of later ticks, so its
        # first line fails already; the rest is never compared.
        for fifo in (trace, replayed):
            while len(fifo) > 1:
                fifo.pop()

    def finish(self) -> VerifyResult:
        if self.failure[0] > _EXECUTE:
            self._advance(self.last_tick)
        if self.failure[0] > _COMPARE and self.trace:
            self._fail(_COMPARE, "trace has events the replay did not produce", self.compared + 2)
        if self.failure[0] > _COMPARE and self.replayed:
            self._fail(_COMPARE, "replay produced events missing from the trace", self.compared + 2)
        rank, error, line = self.failure
        return VerifyResult(True) if rank == _NONE else VerifyResult(False, error, line, _LAYERS[rank])


def verify_trace(path) -> VerifyResult:
    """Check a trace file in one pass; see the module docstring. Any readable
    file gives OK or FAILED with a line and a layer, never an exception."""
    checks, line = _Pass(), 0
    try:
        # Undecodable bytes are kept as lone surrogates, so they fail their
        # own line below instead of the whole read.
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for text in fh:
                text = text.rstrip("\n")
                if not text:
                    continue
                line += 1
                try:
                    text.encode()
                    obj = _DECODER.decode(text)
                except UnicodeEncodeError:
                    return VerifyResult(False, "not UTF-8 text", line, "parse")
                except (ValueError, RecursionError) as exc:
                    return VerifyResult(False, f"malformed JSON: {exc}", line, "parse")
                if line == 1:
                    checks.genesis(obj, text)
                else:
                    checks.event(line, obj, text)
    except OSError as exc:
        return VerifyResult(False, f"cannot read trace: {exc}", layer="read")
    if line == 0:
        return VerifyResult(False, "empty trace", 1, "structure")
    return checks.finish()
