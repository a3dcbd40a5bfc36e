"""Independent trace verification.

Two layers, both required to pass:

1. Byte replay: every message is reconstructed from its event, pushed
   through a fresh ledger and contract that `contract.deploy` builds from
   the genesis header, as the run did, and the regenerated log must
   byte-for-byte equal the original. Reordered, dropped, forged or edited
   events all surface as a first-divergence line.
2. Rational recomputation: every settlement's weights, final score,
   result and payouts are recomputed exactly from its logged rows by
   `oracle.settle_exact`, and its vendor refund and reputation updates by
   the mirror (anchored at the logged values, so verification stays linear
   in trace length and each settlement linear in roster size). They must
   match within 1e-12 for scores, exactly for integers. Payload values are
   type-checked before any arithmetic: a string, boolean or null where a
   number belongs fails its line.

Traces are self-contained: line 1 is a genesis header carrying constants,
keys and starting balances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .contract import ROUND_EVALUATION, check_epsilons, deploy
from .ledger import EVENT_KINDS, LedgerError, Reject
from .money import MICRO
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

    def __init__(
        self,
        reward_micro: int,
        penalty_micro: int,
        quality_threshold: Fraction,
        reputation_epsilon: float,
        weight_epsilon: float,
    ):
        self.reward_micro = reward_micro
        self.penalty_micro = penalty_micro
        self.quality_threshold = quality_threshold
        self.newcomer_reputation = reputation_epsilon.as_integer_ratio()
        self.weight_epsilon = weight_epsilon
        self.players: dict = {}  # account -> [S, T, count], S and T in _FLOAT_UNITs
        self.collateral: dict = {}

    @classmethod
    def from_header(cls, header: dict) -> "RationalMirror":
        check_epsilons(header["reputation_epsilon"], header["weight_epsilon"])
        quality = Fraction(header["quality_threshold"])
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
        return cls(
            reward_micro=reward,
            penalty_micro=penalty,
            quality_threshold=quality,
            reputation_epsilon=header["reputation_epsilon"],
            weight_epsilon=header["weight_epsilon"],
        )

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


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")  # a literal beyond the float range
    return value


_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)


def _reconstruct_message(event: dict, header: dict):
    """(sender, op, args) for the message that produced this event."""
    kind = event["kind"]
    payload = event["payload"]
    design = event["design"]
    if kind == "NewDesign":
        return payload["vendor"], "announce", {
            "design_hash": bytes.fromhex(payload["design_hash"]),
            "collateral": payload["collateral"],
        }
    if kind == "Registered":
        return payload["player"], "register", {
            "design": design,
            "deposit": payload["deposit"],
            "signature": bytes.fromhex(payload["signature"]),
        }
    if kind == "Received":
        return header["manager"], "set_received", {"design": design, "player": payload["player"]}
    if kind == "Committed":
        return payload["player"], "commit", {
            "design": design,
            "digest": bytes.fromhex(payload["digest"]),
        }
    if kind == "Revealed":
        return payload["player"], "reveal", {
            "design": design,
            "vote": payload["vote"],
            "blinding": bytes.fromhex(payload["blinding"]),
        }
    if kind == "FeedbackOpened":
        return payload["initiator"], "open_feedback", {"design": design}
    if kind == "ResultCalculated":
        return payload["initiator"], "calculate_result", {"design": design}
    raise ValueError(f"no message reconstruction for {kind!r}")


def verify_trace(path) -> VerifyResult:
    """Replay and recompute a trace file; first divergence wins. Any readable
    file gives OK or FAILED with a line, never an exception."""
    try:
        # Undecodable bytes are kept as lone surrogates, so they fail their
        # own line below instead of the whole read.
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            raw_lines = [ln for ln in fh.read().split("\n") if ln]
    except OSError as exc:
        return VerifyResult(False, f"cannot read trace: {exc}")
    if not raw_lines:
        return VerifyResult(False, "empty trace", 1)

    parsed = []
    for i, line in enumerate(raw_lines):
        try:
            line.encode()
            parsed.append(_DECODER.decode(line))
        except UnicodeEncodeError:
            return VerifyResult(False, "not UTF-8 text", i + 1)
        except (ValueError, RecursionError) as exc:
            return VerifyResult(False, f"malformed JSON: {exc}", i + 1)

    header = parsed[0]
    if not isinstance(header, dict) or header.get("kind") != "genesis":
        return VerifyResult(False, "first line must be the genesis header", 1)

    events = parsed[1:]
    last_tick = 0
    for i, event in enumerate(events):
        line_no = i + 2
        if not isinstance(event, dict) or set(event) != {"tick", "seq", "kind", "design", "payload"}:
            return VerifyResult(False, "event line missing required fields", line_no)
        if event["kind"] not in EVENT_KINDS:
            return VerifyResult(False, f"unknown event kind {event['kind']!r}", line_no)
        if event["seq"] != i:
            return VerifyResult(False, f"sequence break: expected {i}, got {event['seq']}", line_no)
        if not isinstance(event["tick"], int) or event["tick"] < last_tick:
            return VerifyResult(False, "ticks must be non-decreasing", line_no)
        last_tick = event["tick"]

    # Layer 2 first: rational recomputation over the logged payloads. Running
    # it before the replay gives sharper errors for value edits.
    try:
        mirror = RationalMirror.from_header(header)
    except OracleMismatch as exc:
        return VerifyResult(False, str(exc), 1)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return VerifyResult(False, f"unusable genesis header: {exc!r}", 1)
    try:
        for i, event in enumerate(events):
            if event["kind"] == "NewDesign":
                mirror.observe_new_design(event["design"], event["payload"]["collateral"])
            elif event["kind"] == "ResultCalculated":
                mirror.check_result(event["design"], event["payload"])
    except OracleMismatch as exc:
        return VerifyResult(False, str(exc), i + 2)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        return VerifyResult(False, f"unusable header or payload: {exc!r}", i + 2)

    # Layer 1: full byte replay through a fresh contract. A failure names the
    # header, the event whose message could not be rebuilt, or else the first
    # event the replay did not produce.
    line = 1
    try:
        ledger, _ = deploy(header)
        for line, event in enumerate(events, start=2):
            if event["kind"] == "Transfer":
                continue
            sender, op, args = _reconstruct_message(event, header)
            ledger.submit(sender, op, args, event["tick"])
        line = None
        ledger.advance(last_tick)
    except (Reject, LedgerError, DomainError, KeyError, TypeError, ValueError, RecursionError) as exc:
        return VerifyResult(False, f"replay failed: {exc!r}", line or len(ledger.events) + 2)

    replayed = ledger.event_lines()
    for i in range(max(len(replayed), len(events))):
        line_no = i + 2
        if i >= len(replayed):
            return VerifyResult(False, "trace has events the replay did not produce", line_no)
        if i >= len(events):
            return VerifyResult(False, "replay produced events missing from the trace", line_no)
        if raw_lines[i + 1] != replayed[i]:
            return VerifyResult(
                False,
                f"replay divergence: trace line {raw_lines[i + 1][:120]!r} vs "
                f"replayed {replayed[i][:120]!r}",
                line_no,
            )
    return VerifyResult(True)
