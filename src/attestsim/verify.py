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
   the mirror (anchored at the logged values, so each settlement is linear
   in roster size). They must match within 1e-12 for scores, exactly for
   integers. Payload values are type-checked before any arithmetic: a
   string, boolean or null where a number belongs fails its line, and so
   does a number whose check overflows a float.
4. replay: every message is rebuilt from its event and pushed through a
   fresh ledger and contract that `contract.deploy` builds from the genesis
   header (whose balances must be whole micro-units), as the run did, and
   the regenerated log must byte-for-byte equal the original. Reordered,
   dropped, forged or edited events all surface as a first-divergence line.

One rule gives the verdict: the first failing line of the highest layer
that fails. A parse failure ends the pass at once. Below it, failures are
ranked strongest first: structure, mirror, then the replay's three stages
in order, rebuild (a message that cannot be rebuilt, or a header that
cannot deploy), execute (an exception while executing) and compare (a
byte divergence). A check of one rank runs only while no failure of that
rank or a stronger one stands, which gives the verdict of checking each
rank over the whole file in turn. `VerifyResult.layer` names the layer, or
`read` when the file cannot be read.

Traces are self-contained: line 1 is a genesis header carrying constants,
keys and starting balances.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .contract import ROUND_EVALUATION, check_epsilons, deploy
from .ledger import EVENT_KINDS, LedgerError, Reject
from .money import MICRO, to_fraction
from .trust import DomainError

SCORE_TOLERANCE = Fraction(1, 10**12)
_TOLERANCE_NUM, _TOLERANCE_DEN = SCORE_TOLERANCE.as_integer_ratio()
_FLOAT_UNIT = 2**1074  # every finite float times this is an integer


class OracleMismatch(Exception):
    pass


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    error: str | None = None
    line: int | None = None
    layer: str | None = None  # read, parse, structure, mirror or replay

    def __bool__(self) -> bool:
        return self.ok


class RationalMirror:
    """Exact-rational shadow of settlement state, anchored at logged values.

    Keeps per-player reputation accumulators (sum of vote*result*score and
    sum of scores) plus participation counts, and the collateral of each
    announced design. Each ResultCalculated payload is recomputed from its
    own logged inputs; chained state (reputations, counts) is tracked
    exactly so drift cannot hide across rounds. The accumulators are
    integers in units of 2**-1074, of which every finite float is a whole
    multiple; the unit cancels from the reputation they define.
    """

    def __init__(self, header: dict):
        check_epsilons(header["reputation_epsilon"], header["weight_epsilon"])
        quality = to_fraction(header["quality_threshold"])
        effort = Fraction(header["effort_cost_micro"], MICRO)
        epsilon = Fraction(header["epsilon_micro"], MICRO)
        variant = header["payment_variant"]
        reward = oracle.quantize_micro(oracle.reward_exact(effort, quality, variant))
        penalty = oracle.quantize_micro(oracle.penalty_exact(effort, quality, epsilon, variant))
        if reward != header["reward_micro"] or penalty != header["penalty_micro"]:
            raise OracleMismatch(
                f"header schedule inconsistent: derived ({reward}, {penalty}), "
                f"logged ({header['reward_micro']}, {header['penalty_micro']})"
            )
        self.reward_micro, self.penalty_micro, self.quality_threshold = reward, penalty, quality
        self.newcomer_reputation = header["reputation_epsilon"].as_integer_ratio()
        self.weight_epsilon = header["weight_epsilon"]
        self.players: dict = {}  # account -> [S, T, count], S and T in _FLOAT_UNITs
        self.collateral: dict = {}

    def observe_new_design(self, design: int, collateral: int) -> None:
        self.collateral[design] = collateral

    def _reputation(self, account: str) -> tuple:
        """(S / T + 1) / 2 as (numerator, positive denominator)."""
        if account not in self.players:
            return self.newcomer_reputation
        agreement, mass, _ = self.players[account]
        if mass == 0:
            return 1, 2
        if mass < 0:
            return -(agreement + mass), -2 * mass
        return agreement + mass, 2 * mass

    def _count(self, account: str) -> int:
        return self.players[account][2] if account in self.players else 0

    def check_result(self, design: int, payload: dict) -> None:
        rows = payload["players"]
        accounts = [row["player"] for row in rows]
        if accounts != sorted(accounts):
            raise OracleMismatch("settlement rows not in sorted player order")
        if not _finite(payload["final_score"]):
            raise TypeError(f"final score {payload['final_score']!r} is not a finite number")
        for row in rows:
            vote = row["vote"]
            if not (
                _finite(row["reputation"])
                and _finite(row["reputation_after"])
                and type(row["count"]) is int
                and (vote is None or type(vote) is int)
            ):
                raise TypeError(f"a reputation, count or vote of {row['player']!r} is not a number")

        for row in rows:
            tracked_num, tracked_den = self._reputation(row["player"])
            if _off(row["reputation"], tracked_num, tracked_den):
                raise OracleMismatch(
                    f"reputation of {row['player']} drifted from the rational chain: "
                    f"logged {row['reputation']}, expected {tracked_num / tracked_den}"
                )
            if row["count"] != self._count(row["player"]):
                raise OracleMismatch(
                    f"participation count of {row['player']} is {row['count']}, "
                    f"expected {self._count(row['player'])}"
                )

        score, result, payouts = oracle.settle_exact(
            rows,
            self.weight_epsilon,
            self.quality_threshold,
            self.reward_micro,
            self.penalty_micro,
            payload["round"] == ROUND_EVALUATION,
        )
        if _off(payload["final_score"], score.numerator, score.denominator):
            raise OracleMismatch(
                f"final score mismatch: logged {payload['final_score']}, "
                f"rational {float(score)}"
            )
        if result != payload["result"]:
            raise OracleMismatch(
                f"result mismatch: logged {payload['result']}, rational {result}"
            )
        for row in rows:
            if row["payout"] != payouts[row["player"]]:
                raise OracleMismatch(
                    f"payout of {row['player']} is {row['payout']}, "
                    f"expected {payouts[row['player']]}"
                )

        if payload["round"] == ROUND_EVALUATION:
            expected_refund = self.collateral.get(design, 0) - sum(payouts.values())
            if payload["vendor_refund"] != expected_refund:
                raise OracleMismatch(
                    f"vendor refund is {payload['vendor_refund']}, expected {expected_refund}"
                )
        elif payload["vendor_refund"] is not None:
            raise OracleMismatch("feedback settlements do not refund the vendor")

        anchor_num, anchor_den = payload["final_score"].as_integer_ratio()
        anchor = anchor_num * (_FLOAT_UNIT // anchor_den)
        for row in rows:
            account = row["player"]
            if row["received"] and result != 0:
                state = self.players.setdefault(account, [0, 0, 0])
                state[0] += (row["vote"] or 0) * result * anchor
                state[1] += anchor
                state[2] += 1
            after_num, after_den = self._reputation(account)
            if _off(row["reputation_after"], after_num, after_den):
                raise OracleMismatch(
                    f"updated reputation of {account} mismatches the rational chain: "
                    f"logged {row['reputation_after']}, expected {after_num / after_den}"
                )
            if row["count_after"] != self._count(account):
                raise OracleMismatch(
                    f"updated count of {account} is {row['count_after']}, "
                    f"expected {self._count(account)}"
                )


def _finite(value) -> bool:
    """A payload number: a finite int or float, never a bool or a string."""
    return type(value) is int or type(value) is float and math.isfinite(value)


def _off(logged, num: int, den: int) -> bool:
    """|logged - num / den| > SCORE_TOLERANCE for den > 0, by integer
    cross-multiplication."""
    logged_num, logged_den = logged.as_integer_ratio()
    gap = abs(logged_num * den - num * logged_den)
    return gap * _TOLERANCE_DEN > _TOLERANCE_NUM * logged_den * den


def _finite_float(text: str) -> float:
    """Decodes a float literal or a NaN or Infinity constant, rejecting any
    value that is not finite (a literal beyond the float range too)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


# Event kind -> (op, payload key naming the sender or None for the header's
# manager, argument keys); `design` is the event's own field.
_MESSAGES = {
    "NewDesign": ("announce", "vendor", ("design_hash", "collateral")),
    "Registered": ("register", "player", ("design", "deposit", "signature")),
    "Received": ("set_received", None, ("design", "player")),
    "Committed": ("commit", "player", ("design", "digest")),
    "Revealed": ("reveal", "player", ("design", "vote", "blinding")),
    "FeedbackOpened": ("open_feedback", "initiator", ("design",)),
    "ResultCalculated": ("calculate_result", "initiator", ("design",)),
}
_HEX_ARGS = frozenset(("design_hash", "signature", "digest", "blinding"))


def _reconstruct_message(event: dict, header: dict):
    """(sender, op, args) for the message that produced this event. A sender
    that is not a string fails here, on its event's line: the ledger could
    not order it among the other senders."""
    kind = event["kind"]
    op, sender_key, arg_keys = _MESSAGES[kind]
    payload = event["payload"]
    sender = header["manager"] if sender_key is None else payload[sender_key]
    args = {}
    for key in arg_keys:
        value = event["design"] if key == "design" else payload[key]
        args[key] = bytes.fromhex(value) if key in _HEX_ARGS else value
    if not isinstance(sender, str):
        raise TypeError(f"sender {sender!r} of a {kind} event is not a string")
    return sender, op, args


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
    if event["seq"] != index:
        return f"sequence break: expected {index}, got {event['seq']}"
    if not isinstance(event["tick"], int) or event["tick"] < last_tick:
        return "ticks must be non-decreasing"
    return None


class _Pass:
    """Every layer below parse, fed one decoded line at a time; a check of
    rank r runs only while no failure of rank <= r stands.

    The replay submits messages as their events are read; when the first
    event of a later tick arrives, every message of the earlier ticks is
    executed, so the (tick, sender, nonce) order is the one a replay of the
    whole file would run. The replayed lines and the trace lines meet in two
    FIFOs in trace order and are dropped once compared.
    """

    def __init__(self):
        self.failure = (_NONE, None, None)  # (rank, error, line) of the strongest failure
        self.header = self.mirror = self.ledger = None
        self.last_tick = 0  # the latest tick; the replay has run every earlier tick
        self.trace = deque()  # trace lines not yet compared
        self.replayed = deque()  # replayed lines not yet compared
        self.compared = 0

    def _fail(self, rank: int, error: str, line: int) -> None:
        if rank < self.failure[0]:
            self.failure = (rank, error, line)
        self.trace.clear()
        self.replayed.clear()

    def genesis(self, header) -> None:
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
            self.header = header
            try:
                self.ledger, _ = deploy(header)
            except _REPLAY_ERRORS as exc:
                self._fail(_REBUILD, f"replay failed: {exc!r}", 1)

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
                sender, op, args = _reconstruct_message(event, self.header)
                if self.failure[0] > _EXECUTE:
                    self.ledger.submit(sender, op, args, self.last_tick)
        except _REPLAY_ERRORS as exc:
            self._fail(_REBUILD, f"replay failed: {exc!r}", line)
            return
        if self.failure[0] > _COMPARE:
            self.trace.append(text)

    def _advance(self, tick: int) -> None:
        """Execute every message up to `tick` and compare what it logged.
        The ledger's events are drained only after `advance` returns, so
        `advance`, and whatever wraps it, sees each batch whole."""
        ledger = self.ledger
        try:
            ledger.advance(tick)
        except _REPLAY_ERRORS as exc:
            self._fail(_EXECUTE, f"replay failed: {exc!r}", ledger.emitted + 2)
            return
        if self.failure[0] > _COMPARE:
            first = ledger.emitted - len(ledger.events)  # the seq of the batch's first event
            self.replayed.extend(
                event.to_json_line(first + i) for i, event in enumerate(ledger.events)
            )
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
                    checks.genesis(obj)
                else:
                    checks.event(line, obj, text)
    except OSError as exc:
        return VerifyResult(False, f"cannot read trace: {exc}", layer="read")
    if line == 0:
        return VerifyResult(False, "empty trace", 1, "structure")
    return checks.finish()
