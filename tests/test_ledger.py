import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from attestsim.ledger import (
    PAYLOAD_KEYS,
    LedgerError,
    LedgerEvent,
    Reject,
    SimLedger,
    canonical_json,
)


def fresh(balances=None):
    return SimLedger(dict(balances or {"alice": 100, "bob": 50, "escrow": 0}))


def recording_handler(ledger, log):
    def handle(message):
        if message.args.get("boom"):
            raise Reject("asked to fail")
        log.append((ledger.clock, message.sender, message.op))
        return message.op
    return handle


def test_messages_execute_in_tick_sender_submission_order():
    ledger = fresh()
    log = []
    ledger.set_handler(recording_handler(ledger, log))
    ledger.submit("alice", "a1", {})
    ledger.advance(1)
    # submitted out of order on purpose: a2 is alice's first submission, so
    # it runs before a3, her later one of the same block
    ledger.submit("bob", "b1", {})
    ledger.submit("alice", "a2", {})
    ledger.submit("alice", "a3", {})
    ledger.advance(2)
    assert log == [
        (1, "alice", "a1"),
        (2, "alice", "a2"),
        (2, "alice", "a3"),
        (2, "bob", "b1"),
    ]


def test_rejects_become_receipts_not_crashes():
    ledger = fresh()
    ledger.set_handler(recording_handler(ledger, []))
    ledger.submit("alice", "x", {"boom": True})
    receipts = ledger.advance(1)
    assert len(receipts) == 1
    assert not receipts[0].accepted
    assert "asked to fail" in receipts[0].error


def test_internal_errors_escape():
    ledger = fresh()

    def broken(message):
        raise LedgerError("bug")

    ledger.set_handler(broken)
    ledger.submit("alice", "x", {})
    with pytest.raises(LedgerError):
        ledger.advance(1)


@pytest.mark.parametrize("balance", [0.5, True])
def test_genesis_balances_must_be_whole_micro_units(balance):
    with pytest.raises(LedgerError):
        SimLedger({"a": balance})


@pytest.mark.parametrize("state", [{"clock": 5}, {"events": []}])
def test_the_constructor_takes_only_the_genesis_balances(state):
    with pytest.raises(TypeError):
        SimLedger({}, **state)


def test_no_submitting_while_a_block_runs():
    ledger = fresh()

    def nest(message):
        if message.op == "nest":
            ledger.submit("bob", "nested", {})
        return message.op

    ledger.set_handler(nest)
    ledger.submit("alice", "nest", {})
    with pytest.raises(LedgerError, match="^cannot submit while executing$"):
        ledger.advance(1)
    # the guard is reset, and neither the failed block nor the nested
    # message is left queued
    ledger.submit("alice", "plain", {})
    (receipt,) = ledger.advance(2)
    assert receipt.accepted and receipt.result == "plain"


def test_clock_only_moves_forward():
    ledger = fresh()
    ledger.set_handler(lambda m: None)
    ledger.advance(4)
    with pytest.raises(LedgerError):
        ledger.advance(3)


def test_transfer_conserves_and_checks_funds():
    ledger = fresh()
    ledger.transfer("alice", "bob", 30, None)
    assert ledger.balance_of("alice") == 70
    assert ledger.balance_of("bob") == 80
    assert ledger.total_balance() == 150
    with pytest.raises(LedgerError):
        ledger.transfer("alice", "bob", 1000, None)
    with pytest.raises(LedgerError):
        ledger.transfer("alice", "bob", -1, None)
    assert ledger.total_balance() == 150


def test_transfers_are_logged_as_events():
    ledger = fresh()
    ledger.transfer("alice", "escrow", 10, 0)
    ledger.transfer("escrow", "bob", 0, 0)  # zero amounts still leave a record
    kinds = [e.kind for e in ledger.events]
    assert kinds == ["Transfer", "Transfer"]
    assert ledger.events[0].payload == {"amount": 10, "from": "alice", "to": "escrow"}
    assert ledger.events[1].payload["amount"] == 0


def test_event_lines_are_canonical_json():
    ledger = fresh()
    ledger.transfer("alice", "bob", 5, 7)
    (line,) = [event.to_json_line(seq) for seq, event in enumerate(ledger.events)]
    assert json.loads(line) == {
        "tick": 0,
        "seq": 0,
        "kind": "Transfer",
        "design": 7,
        "payload": {"amount": 5, "from": "alice", "to": "bob"},
    }
    # canonical form: sorted keys, no whitespace
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


# Any JSON value the encoder may meet: big ints, bools, signed zeros and
# non-finite floats, None, non-ASCII text and lone surrogates, and nesting.
# A payload value may also be raw bytes (a digest or a blinding), which the
# line and the payload dict hold as hex.
JSON_SCALARS = (
    st.integers(min_value=-(2**80), max_value=2**80)
    | st.booleans()
    | st.floats()
    | st.sampled_from([-0.0, math.inf, -math.inf, math.nan])
    | st.none()
    | st.text(st.characters(categories=["L", "N", "P", "S", "Z", "Cc", "Cs"]))
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize("kind", sorted(PAYLOAD_KEYS))
@settings(max_examples=60)
@given(data=st.data())
def test_flat_event_line_is_the_canonical_encoding_of_its_dict(kind, data):
    keys = PAYLOAD_KEYS[kind]
    assert list(keys) == sorted(keys)
    values = data.draw(st.tuples(*[JSON_VALUES | st.binary(max_size=40)] * len(keys)), label="values")
    tick, seq = data.draw(st.tuples(st.integers(0, 2**70), st.integers(0, 2**70)), label="tick, seq")
    design = data.draw(st.none() | JSON_VALUES, label="design")
    hexed = {key: value.hex() if type(value) is bytes else value for key, value in zip(keys, values)}
    for event in (LedgerEvent((tick, kind, design, *values)), LedgerEvent((tick, kind, None, *values))):
        assert tuple(event) == (tick, kind, event.design, *values) and event[3:] == values
        body = {
            "tick": tick,
            "seq": seq,
            "kind": kind,
            "design": event.design,
            "payload": hexed,
        }
        assert event.to_json_line(seq) == canonical_json(body)
        assert canonical_json(event.payload) == canonical_json(body["payload"])


def test_a_value_tuple_of_the_wrong_length_raises():
    for values in ((5, "alice"), (5, "alice", "bob", "carol")):
        event = LedgerEvent((0, "Transfer", 7, *values))
        with pytest.raises(ValueError):
            event.payload
        with pytest.raises(ValueError):
            event.to_json_line(0)
        ledger = fresh()
        with pytest.raises(LedgerError, match="Transfer takes 3 payload values"):
            ledger.emit("Transfer", 7, values)
        assert ledger.events == []


def test_emit_builds_one_event_class_and_rejects_unknown_kinds():
    ledger = fresh()
    received = ledger.emit("Received", 3, ("alice", "evaluation"))
    assert type(received) is LedgerEvent
    assert received.payload == {"player": "alice", "round": "evaluation"}
    rows = [{"player": "alice", "payout": 7}]
    values = (0.5, "bob", "on_sale_feedback_commit", rows, 1, "evaluation", 3)
    settled = ledger.emit("ResultCalculated", 3, values)
    assert type(settled) is LedgerEvent and settled[3:] == values
    assert list(settled.payload) == list(PAYLOAD_KEYS["ResultCalculated"])
    assert settled.payload["players"] is rows
    assert json.loads(settled.to_json_line(1)) == {
        "tick": 0, "seq": 1, "kind": "ResultCalculated", "design": 3,
        "payload": dict(zip(PAYLOAD_KEYS["ResultCalculated"], values)),
    }
    with pytest.raises(LedgerError, match="unknown event kind"):
        ledger.emit("Minted", 3, ())
    assert ledger.events == [received, settled]


def test_sequence_numbers_are_dense_and_ticks_stamped():
    ledger = fresh()
    ledger.set_handler(lambda m: ledger.transfer("alice", "bob", 1, None))
    for tick, messages in ((1, 1), (3, 2)):
        for _ in range(messages):
            ledger.submit("alice", "t", {})
        ledger.advance(tick)
    lines = [json.loads(e.to_json_line(seq)) for seq, e in enumerate(ledger.events)]
    assert [line["seq"] for line in lines] == [0, 1, 2]
    assert [e.tick for e in ledger.events] == [1, 3, 3]


def test_every_event_of_a_block_holds_the_block_tick_object():
    ledger = fresh()

    def handle(message):
        ledger.emit("Received", 0, (message.sender, "evaluation"))
        ledger.transfer(message.sender, "escrow", 1, 0)

    ledger.set_handler(handle)
    for text in ("300", "4097"):
        # above 256, so two equal ticks are two objects unless the ledger
        # shares one
        tick = int(text)
        assert int(text) is not tick
        ledger.submit("bob", "x", {})
        ledger.submit("alice", "x", {})
        drained = len(ledger.events)
        ledger.advance(tick)
        block = ledger.events[drained:]
        assert [e.kind for e in block] == ["Received", "Transfer"] * 2
        assert all(e.tick is tick for e in block)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=25,
    )
)
def test_execution_order_is_submission_order_independent(plan):
    """Any submission interleaving of the same (sender, tick) plan executes
    identically: each tick's messages run as one block, by sender, each
    sender's in submission order, so the plan itself gives the canonical
    order."""
    logs = []
    for reverse in (False, True):
        ledger = SimLedger({})
        log = []
        ledger.set_handler(recording_handler(ledger, log))
        for block in sorted({tick for _, tick in plan}):
            per_sender = {}
            for idx, (sender, tick) in enumerate(plan):
                if tick == block:
                    per_sender.setdefault(sender, []).append(idx)
            # submit sender-by-sender, optionally in reversed sender order;
            # within a sender, submission order must stay the plan order
            for sender in sorted(per_sender, reverse=reverse):
                for idx in per_sender[sender]:
                    ledger.submit(sender, f"op{idx}", {})
            ledger.advance(block)
        logs.append(log)
    assert logs[0] == logs[1]
    canonical = sorted(enumerate(plan), key=lambda item: (item[1][1], item[1][0], item[0]))
    assert logs[0] == [(tick, sender, f"op{idx}") for idx, (sender, tick) in canonical]


def test_total_balance_is_exactly_conserved_under_traffic():
    ledger = fresh()

    def shuffle_money(message):
        ledger.transfer(message.sender, "escrow", 7, None)
        ledger.transfer("escrow", "bob", 3, None)

    ledger.set_handler(shuffle_money)
    for tick in range(1, 11):
        ledger.submit("alice", "m", {})
        ledger.advance(tick)
    assert ledger.total_balance() == 150
