import json
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus import corpus_configs
from make_verify_pins import VALUES

from attestsim import oracle
from attestsim.contract import deploy, genesis_header
from attestsim.money import MICRO
from attestsim.scenario import run, write_outputs
from attestsim.verify import verify_trace


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    out = tmp_path_factory.mktemp("genuine")
    report = run(corpus_configs()["feedback_pass"])
    paths = write_outputs(report, out)
    return Path(paths["trace"])


def reserialize(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_mutant(genuine, tmp_path, fn, name):
    lines = genuine.read_text().splitlines()
    out = []
    mutated = False
    for line in lines:
        obj = json.loads(line)
        if not mutated and fn(obj):
            mutated = True
            line = reserialize(obj)
        out.append(line)
    assert mutated, f"mutation {name} found no target"
    path = tmp_path / f"{name}.jsonl"
    path.write_text("\n".join(out) + "\n")
    return path


def test_genuine_trace_verifies(genuine):
    outcome = verify_trace(genuine)
    assert outcome.ok and bool(outcome) and outcome.layer is None


def test_missing_file_fails_gracefully(tmp_path):
    outcome = verify_trace(tmp_path / "nope.jsonl")
    assert not outcome.ok and outcome.layer == "read"
    assert "cannot read" in outcome.error


def test_empty_and_headerless_traces_fail(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert not verify_trace(empty).ok

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"tick":0,"seq":0,"kind":"Transfer","design":0,"payload":{}}\n')
    outcome = verify_trace(headerless)
    assert not outcome.ok and outcome.line == 1


def test_malformed_json_reports_its_line(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    lines[3] = lines[3][:-5]
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(broken)
    assert not outcome.ok and outcome.line == 4
    assert "JSON" in outcome.error


@pytest.mark.parametrize(
    "name,fn",
    [
        ("final_score", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"].__setitem__("final_score", 0.42) is None),
        ("result_code", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"].__setitem__("result", -o["payload"]["result"] or 1) is None),
        ("payout", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"]["players"][0].__setitem__(
                "payout", o["payload"]["players"][0]["payout"] + 1) is None),
        ("vendor_refund", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"]["round"] == "evaluation"
            and o["payload"].__setitem__("vendor_refund", 0) is None),
        ("reputation_after", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"]["players"][0].__setitem__("reputation_after", 0.9) is None),
        ("count_after", lambda o: o["kind"] == "ResultCalculated"
            and o["payload"]["players"][0].__setitem__("count_after", 9) is None),
        ("vote", lambda o: o["kind"] == "Revealed"
            and o["payload"].__setitem__("vote", -o["payload"]["vote"] or 1) is None),
        ("blinding", lambda o: o["kind"] == "Revealed"
            and o["payload"].__setitem__("blinding", "00" * 32) is None),
        ("commit_digest", lambda o: o["kind"] == "Committed"
            and o["payload"].__setitem__("digest", "11" * 32) is None),
        ("deposit", lambda o: o["kind"] == "Registered"
            and o["payload"].__setitem__("deposit", o["payload"]["deposit"] + 7) is None),
        ("transfer_amount", lambda o: o["kind"] == "Transfer"
            and o["payload"].__setitem__("amount", o["payload"]["amount"] + 1) is None),
        ("collateral", lambda o: o["kind"] == "NewDesign"
            and o["payload"].__setitem__("collateral", o["payload"]["collateral"] * 2) is None),
        ("tick_shift", lambda o: o["kind"] == "ResultCalculated"
            and o.__setitem__("tick", o["tick"] - 1) is None),
        ("header_reward", lambda o: o.get("kind") == "genesis"
            and o.__setitem__("reward_micro", o["reward_micro"] + 1) is None),
        ("header_variant", lambda o: o.get("kind") == "genesis"
            and o.__setitem__("payment_variant", "derivation") is None),
    ],
)
def test_single_field_mutations_are_rejected(genuine, tmp_path, name, fn):
    mutant = write_mutant(genuine, tmp_path, fn, name)
    outcome = verify_trace(mutant)
    assert not outcome.ok, f"mutation {name} slipped through"


def test_free_input_edits_yield_consistent_alternative_documents(genuine, tmp_path):
    """Traces are self-contained: fields that only *define* the starting
    state (genesis balances, the recorded seed) have no downstream value to
    contradict, so editing them produces a different-but-valid document.
    Verification promises internal consistency, not provenance."""
    def bump_balance(o):
        if o.get("kind") == "genesis":
            o["genesis_balances"]["vendor"] += 1_000_000
            return True

    def change_seed(o):
        if o.get("kind") == "genesis":
            o["seed"] = o["seed"] + 1
            return True

    for name, fn in (("free_balance", bump_balance), ("free_seed", change_seed)):
        mutant = write_mutant(genuine, tmp_path, fn, name)
        assert verify_trace(mutant).ok


def test_dropped_event_is_detected(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    victim = next(i for i, ln in enumerate(lines) if '"kind":"Committed"' in ln)
    dropped = tmp_path / "dropped.jsonl"
    dropped.write_text("\n".join(lines[:victim] + lines[victim + 1:]) + "\n")
    outcome = verify_trace(dropped)
    assert not outcome.ok and outcome.line == victim + 1


def test_swapped_events_are_detected(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if '"kind":"Registered"' in ln)
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    swapped = tmp_path / "swapped.jsonl"
    swapped.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(swapped)
    assert not outcome.ok
    assert "sequence" in outcome.error


def test_appended_forged_event_is_detected(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    last = json.loads(lines[-1])
    forged = {
        "tick": last["tick"] + 1,
        "seq": last["seq"] + 1,
        "kind": "Transfer",
        "design": 0,
        "payload": {"amount": 1, "from": "contract", "to": "vendor"},
    }
    appended = tmp_path / "appended.jsonl"
    appended.write_text("\n".join(lines + [reserialize(forged)]) + "\n")
    outcome = verify_trace(appended)
    assert not outcome.ok


def test_every_failure_names_a_line(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    target = next(i for i, ln in enumerate(lines) if '"kind":"ResultCalculated"' in ln)
    obj = json.loads(lines[target])
    obj["payload"]["final_score"] = 0.123
    lines[target] = reserialize(obj)
    mutant = tmp_path / "lineno.jsonl"
    mutant.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(mutant)
    assert outcome.line == target + 1


def _first_settlement(o):
    return o["kind"] == "ResultCalculated"


@pytest.mark.parametrize(
    "name,fn",
    [
        ("final_score", lambda o: _first_settlement(o)
            and o["payload"].__setitem__("final_score", float("inf")) is None),
        ("reputation", lambda o: _first_settlement(o)
            and o["payload"]["players"][0].__setitem__("reputation", float("nan")) is None),
        ("weight_epsilon", lambda o: o.get("kind") == "genesis"
            and o.__setitem__("weight_epsilon", float("-inf")) is None),
    ],
)
def test_non_finite_numbers_fail_on_their_line(genuine, tmp_path, name, fn):
    mutant = write_mutant(genuine, tmp_path, fn, name)
    line = next(
        i + 1 for i, ln in enumerate(mutant.read_text().splitlines())
        if "Infinity" in ln or "NaN" in ln
    )
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == line
    assert "non-finite" in outcome.error


SMOKE = Path(__file__).parent.parent / "scenarios" / "smoke.json"


@pytest.fixture(scope="module")
def smoke_trace(tmp_path_factory):
    from attestsim.scenario import load_config

    out = tmp_path_factory.mktemp("smoke")
    return Path(write_outputs(run(load_config(SMOKE)), out)["trace"])


def test_unrebuildable_message_fails_on_its_line(smoke_trace, tmp_path):
    mutant = write_mutant(
        smoke_trace, tmp_path,
        lambda o: o.get("kind") == "Registered"
        and o["payload"].__setitem__("signature", "zz" + o["payload"]["signature"][2:]) is None,
        "signature",
    )
    line = next(
        i + 1 for i, ln in enumerate(mutant.read_text().splitlines())
        if '"kind":"Registered"' in ln
    )
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == line
    assert outcome.error.startswith("replay failed: ValueError")


def test_a_fractional_genesis_balance_fails_on_the_header(smoke_trace, tmp_path):
    """Balances are whole micro-units: half a micro-unit more for the vendor
    is not truncated away, it stops the replay's ledger on line 1."""
    def half_unit(o):
        if o.get("kind") == "genesis":
            o["genesis_balances"]["vendor"] += 0.5
            return True

    outcome = verify_trace(write_mutant(smoke_trace, tmp_path, half_unit, "half_unit"))
    assert (outcome.ok, outcome.line, outcome.layer) == (False, 1, "replay")
    assert outcome.error.startswith("replay failed: LedgerError")


def test_unusable_replay_constants_fail_on_the_header(genuine, tmp_path):
    mutant = write_mutant(
        genuine, tmp_path,
        lambda o: o.get("kind") == "genesis" and o.__setitem__("commit_window", 0) is None,
        "commit_window",
    )
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == 1
    assert "replay failed" in outcome.error


def test_a_schedule_whose_reward_rounds_to_zero_fails_on_the_header(genuine, tmp_path):
    # A self-consistent header, so the mirror accepts it: a reward of
    # 1/2,000,000 rounds half-even to 0 micro-units, and the replay's roster
    # cap would divide by it.
    def zero_reward(o):
        if o.get("kind") != "genesis":
            return False
        o.update(effort_cost_micro=1, quality_threshold="1", payment_variant="simplified",
                 reward_micro=0)
        o["penalty_micro"] = oracle.quantize_micro(oracle.penalty_exact(
            Fraction(1, MICRO), Fraction(1), Fraction(o["epsilon_micro"], MICRO), "simplified"))
        return True

    mutant = write_mutant(genuine, tmp_path, zero_reward, "zero_reward")
    lines = mutant.read_text().splitlines()
    settled = next(i for i, ln in enumerate(lines) if '"kind":"ResultCalculated"' in ln)
    # Cut before the first settlement, whose payouts the mirror would check.
    mutant.write_text("\n".join(lines[:settled]) + "\n")
    outcome = verify_trace(mutant)
    assert (outcome.ok, outcome.line, outcome.layer) == (False, 1, "replay")
    assert "rounds to 0 micro-units" in outcome.error


def test_replay_crash_names_the_first_event_it_did_not_produce(genuine, tmp_path):
    # A header without the escrow account is still the line its deployment
    # writes; the replay's first transfer into the escrow raises before the
    # ledger logs any event.
    def no_escrow(o):
        if o.get("kind") == "genesis":
            del o["genesis_balances"]["contract"]
            return True

    mutant = write_mutant(genuine, tmp_path, no_escrow, "escrow")
    lines = mutant.read_text().splitlines()
    line = next(i for i, ln in enumerate(lines) if '"kind":"Transfer"' in ln)
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == line + 1
    assert "replay failed" in outcome.error


BEYOND_FLOATS = [10**400, -(10**400), 2**1024]  # ints that float() cannot convert


@pytest.mark.parametrize(
    "key,value",
    [
        ("weight_epsilon", -1.0),
        ("weight_epsilon", "0.01"),
        *[("weight_epsilon", value) for value in BEYOND_FLOATS],
        ("reputation_epsilon", 2.0),
        ("reputation_epsilon", -0.5),
    ],
)
def test_out_of_range_header_epsilons_fail_on_the_header(genuine, tmp_path, key, value):
    mutant = write_mutant(
        genuine, tmp_path,
        lambda o: o.get("kind") == "genesis" and o.__setitem__(key, value) is None,
        key,
    )
    outcome = verify_trace(mutant)
    assert (outcome.ok, outcome.line, outcome.layer) == (False, 1, "replay")
    assert outcome.error == f"replay failed: DomainError('genesis header {key} must be 0.01')"


@pytest.mark.parametrize("key", ["commit_window", "reveal_window"])
@pytest.mark.parametrize("value", [5.0, 1.0, True])
def test_a_window_that_is_not_a_json_integer_fails_on_the_header(genuine, tmp_path, key, value):
    mutant = write_mutant(
        genuine, tmp_path,
        lambda o: o.get("kind") == "genesis" and o.__setitem__(key, value) is None,
        key,
    )
    outcome = verify_trace(mutant)
    assert (outcome.ok, outcome.line, outcome.layer) == (False, 1, "replay")
    assert "windows must be positive tick counts" in outcome.error


# The header keys a layer before the replay reads: the structure layer reads
# `kind`, the mirror the schedule, so an edit of one of them may fail line 1
# there first.
_READ_BEFORE_REPLAY = frozenset((
    "kind", "quality_threshold", "effort_cost_micro", "epsilon_micro", "payment_variant",
    "reward_micro", "penalty_micro",
))


def _header_mutants(header: dict):
    """(edited keys, line 1) for every value of `VALUES` at every header key,
    every key deleted, and edits of the line's spelling alone."""
    for key in header:
        for value in VALUES:
            yield {key}, reserialize({**header, key: value})
        yield {key}, reserialize({k: v for k, v in header.items() if k != key})
    yield set(), reserialize({**header, "note": "x"})
    yield set(), json.dumps(header, sort_keys=True)  # spaces after , and :
    yield set(), json.dumps(dict(reversed(sorted(header.items()))), separators=(",", ":"))
    yield set(), reserialize({**header, "ip_public_key": header["ip_public_key"].upper()})
    yield set(), reserialize({**header, "manager": 5})
    for threshold in ("0.75", "6/8"):
        yield set(), reserialize({**header, "quality_threshold": threshold})


def test_every_header_edit_fails_line_1_or_is_canonical(genuine, tmp_path):
    """A line 1 that is not the line `genesis_header` writes for the
    deployment it describes fails line 1: in the replay, unless it edits a
    key that the structure or mirror layer reads first."""
    lines = genuine.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["quality_threshold"] == "3/4" and len(header) == 18
    path = tmp_path / "header.jsonl"
    verdicts = set()
    for keys, first in _header_mutants(header):
        path.write_text("\n".join([first, *lines[1:]]) + "\n")
        outcome = verify_trace(path)
        try:
            edited = json.loads(first)
            ledger, contract = deploy(edited)
            canonical = genesis_header(edited["seed"], contract.constants, ledger.accounts) == first
        except Exception:
            canonical = False
        verdicts.add((canonical, outcome.ok, outcome.layer))
        if canonical:
            continue
        layers = ("structure", "mirror", "replay") if keys & _READ_BEFORE_REPLAY else ("replay",)
        assert (outcome.ok, outcome.line) == (False, 1) and outcome.layer in layers, (first, outcome)
    # The rest describe another deployment: another seed, or here a reveal
    # window of 1 or 2, verifies OK; most replay to a later divergence.
    assert {(True, True, None), (True, False, "replay"), (False, False, "replay")} <= verdicts


@pytest.mark.parametrize("threshold", ["1e100000000", "1e-100000000"])
def test_a_huge_threshold_exponent_fails_on_the_header_unbuilt(genuine, tmp_path, threshold):
    # Fraction would build 10**100000000 before any range check.
    mutant = write_mutant(
        genuine, tmp_path,
        lambda o: o.get("kind") == "genesis"
        and o.__setitem__("quality_threshold", threshold) is None,
        "threshold",
    )
    start = time.perf_counter()
    outcome = verify_trace(mutant)
    assert time.perf_counter() - start < 5.0
    assert (outcome.ok, outcome.line, outcome.layer) == (False, 1, "mirror")
    assert "exponent beyond 10**4" in outcome.error


@pytest.mark.parametrize("value", ["0.5", True, None])
@pytest.mark.parametrize(
    "field", ["reputation", "count", "vote", "final_score", "reputation_after"]
)
def test_wrongly_typed_settlement_values_fail_on_their_line(genuine, tmp_path, field, value):
    def edit(o):
        if o["kind"] != "ResultCalculated":
            return False
        target = o["payload"] if field == "final_score" else o["payload"]["players"][0]
        target[field] = value
        return True

    mutant = write_mutant(genuine, tmp_path, edit, field)
    line = next(
        i + 1 for i, ln in enumerate(mutant.read_text().splitlines())
        if '"kind":"ResultCalculated"' in ln
    )
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == line


def test_number_literals_beyond_the_float_range_fail_on_their_line(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    target = next(i for i, ln in enumerate(lines) if '"kind":"ResultCalculated"' in ln)
    assert '"final_score":' in lines[target]
    obj = json.loads(lines[target])
    lines[target] = reserialize(obj).replace(
        f'"final_score":{json.dumps(obj["payload"]["final_score"])}', '"final_score":1e999'
    )
    assert "1e999" in lines[target]
    mutant = tmp_path / "huge.jsonl"
    mutant.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == target + 1
    assert "non-finite" in outcome.error


@pytest.mark.parametrize("value", BEYOND_FLOATS)
def test_a_vote_beyond_the_float_range_fails_on_its_line(smoke_trace, tmp_path, value):
    mutant = write_mutant(
        smoke_trace, tmp_path,
        lambda o: o["kind"] == "ResultCalculated"
        and o["payload"]["players"][0].__setitem__("vote", value) is None,
        "vote",
    )
    line = _line_of(mutant.read_text().splitlines(), "ResultCalculated") + 1
    outcome = verify_trace(mutant)
    assert (outcome.ok, outcome.line, outcome.layer) == (False, line, "mirror")


@pytest.mark.parametrize("shift,layer", [(1e-9, "mirror"), (1e-13, "replay")])
def test_a_moved_score_fails_the_mirror_beyond_1e_12_and_only_the_replay_within(
    smoke_trace, tmp_path, shift, layer
):
    """The mirror's tolerance, held by behaviour and not by the constant: a
    settlement score moved by 1e-9 is a mismatch, one moved by 1e-13 passes
    the mirror and fails only the byte comparison. The smoke trace's three
    settlements score 0.8, 1.0 and 0.0."""
    lines = smoke_trace.read_text().splitlines()
    settlements = [i for i, ln in enumerate(lines) if '"kind":"ResultCalculated"' in ln]
    assert [json.loads(lines[i])["payload"]["final_score"] for i in settlements] == [0.8, 1.0, 0.0]
    for i in settlements:
        edited = list(lines)
        line = _edit(edited, i, lambda o: o["payload"].__setitem__(
            "final_score", o["payload"]["final_score"] + shift))
        mutant = tmp_path / f"line-{line}.jsonl"
        mutant.write_text("\n".join(edited) + "\n")
        outcome = verify_trace(mutant)
        assert (outcome.ok, outcome.line, outcome.layer) == (False, line, layer)
        assert ("final score mismatch" in outcome.error) == (layer == "mirror")


def _numeric_leaves(obj, path=()):
    """The path to every int or float (not bool) inside `obj`."""
    if type(obj) in (int, float):
        yield path
    elif isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _numeric_leaves(value, (*path, key))


@settings(max_examples=40, deadline=None, derandomize=True)  # the same 40 edits every run
@given(data=st.data())
def test_verify_trace_is_total_on_numbers_at_and_beyond_the_float_range(
    smoke_trace, mangle_dir, data
):
    """A header number or a settlement's numeric leaf set to an edge of the
    float range gives a verdict, never an exception."""
    lines = smoke_trace.read_text().splitlines()
    targets = [(0, path) for path in _numeric_leaves(json.loads(lines[0]))] + [
        (i, ("payload", *path))
        for i, ln in enumerate(lines)
        if '"kind":"ResultCalculated"' in ln
        for path in _numeric_leaves(json.loads(ln)["payload"])
    ]
    i, path = data.draw(st.sampled_from(targets), label="target")
    value = data.draw(st.sampled_from([*BEYOND_FLOATS, 1e308, 5e-324, -0.0]), label="value")
    obj = json.loads(lines[i])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    lines[i] = reserialize(obj)
    mutant = mangle_dir / "edge.jsonl"
    mutant.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(mutant)
    assert outcome.ok or outcome.line is not None


def test_crlf_line_endings_and_blank_lines_still_verify(genuine, tmp_path):
    lines = genuine.read_text().splitlines()
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert verify_trace(crlf).ok
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n\n".join(lines) + "\n\n")
    assert verify_trace(spaced).ok


@pytest.mark.parametrize("depth", [1000, 100_000])
def test_deeply_nested_json_fails_on_its_line(genuine, tmp_path, depth):
    lines = genuine.read_text().splitlines()
    lines[3] = lines[3].replace('"payload":', '"payload":' + "[" * depth + "]" * depth + ',"x":', 1)
    mutant = tmp_path / "nested.jsonl"
    mutant.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(mutant)
    assert not outcome.ok and outcome.line == 4
    assert "malformed JSON" in outcome.error


@pytest.fixture(scope="module")
def mangle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mangled")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_trace_never_raises_on_mangled_bytes(genuine, mangle_dir, data):
    """Byte overwrites, truncations and dropped or duplicated lines give a
    verdict, never an exception; a failure names its line."""
    blob = genuine.read_bytes()
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="edits")):
        edit = data.draw(st.sampled_from(["overwrite", "truncate", "drop", "duplicate"]))
        if not blob:
            break
        at = data.draw(st.integers(min_value=0, max_value=len(blob) - 1), label="at")
        if edit == "overwrite":
            byte = data.draw(st.integers(min_value=0, max_value=255), label="byte")
            blob = blob[:at] + bytes([byte]) + blob[at + 1:]
        elif edit == "truncate":
            blob = blob[:at]
        else:
            lines = blob.split(b"\n")
            line = blob[:at].count(b"\n")
            if edit == "drop":
                del lines[line]
            else:
                lines.insert(line, lines[line])
            blob = b"\n".join(lines)
    path = mangle_dir / "mangled.jsonl"
    path.write_bytes(blob)
    outcome = verify_trace(path)
    assert outcome.ok or outcome.line is not None


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_non_ascii_byte_fails_the_line_that_holds_it(genuine, mangle_dir, data):
    blob = genuine.read_bytes()
    at = data.draw(st.integers(min_value=0, max_value=len(blob) - 1), label="at")
    if blob[at:at + 1] == b"\n":
        at -= 1
    byte = data.draw(st.integers(min_value=0x80, max_value=0xFF), label="byte")
    path = mangle_dir / "non_ascii.jsonl"
    path.write_bytes(blob[:at] + bytes([byte]) + blob[at + 1:])
    outcome = verify_trace(path)
    assert not outcome.ok and outcome.line == blob[:at].count(b"\n") + 1
    assert "not UTF-8" in outcome.error


@pytest.mark.parametrize(
    "kind,field,value",
    [
        ("Committed", "player", 7),
        ("Revealed", "player", None),
        ("ResultCalculated", "initiator", ["p0"]),
    ],
)
def test_a_non_string_sender_fails_the_line_of_its_event(genuine, tmp_path, kind, field, value):
    """Replaying a number as a sender next to string senders could only fail
    in the ledger's sort of the messages that share its tick; the sender is
    rejected when its message is rebuilt instead."""
    mutant = write_mutant(
        genuine, tmp_path,
        lambda o: o.get("kind") == kind and o["payload"].__setitem__(field, value) is None,
        kind,
    )
    line = next(
        i + 1 for i, ln in enumerate(mutant.read_text().splitlines())
        if f'"kind":"{kind}"' in ln
    )
    assert line != 2
    outcome = verify_trace(mutant)
    assert (outcome.ok, outcome.line) == (False, line)
    assert outcome.layer == "replay"
    reason = TypeError(f"sender {value!r} of a {kind} event is not a string")
    assert outcome.error == f"replay failed: {reason!r}"


def _line_of(lines, kind, last=False):
    """Index of the first (or last) line of that event kind."""
    found = [i for i, ln in enumerate(lines) if f'"kind":"{kind}"' in ln]
    return found[-1] if last else found[0]


def _edit(lines, i, fn):
    obj = json.loads(lines[i])
    fn(obj)
    lines[i] = reserialize(obj)
    return i + 1


def _truncate(lines, i):
    lines[i] = lines[i][:-5]
    return i + 1


def _swap(lines, i):
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return i + 1


def _final_score(lines, i):
    return _edit(lines, i, lambda o: o["payload"].__setitem__("final_score", 0.123))


def _blinding(lines, i):
    return _edit(lines, i, lambda o: o["payload"].__setitem__("blinding", "00" * 32))


def _signature(lines, i):
    return _edit(lines, i, lambda o: o["payload"].__setitem__("signature", "zz"))


def _unfunded_last_registrant(lines):
    """Drops the genesis balance of the last player to register: replaying
    its deposit raises, and the deposit transfer just before its
    Registered line is the first event the replay cannot produce."""
    last = _line_of(lines, "Registered", last=True)
    player = json.loads(lines[last])["payload"]["player"]
    _edit(lines, 0, lambda o: o["genesis_balances"].pop(player))
    return last  # the 1-based number of the line before the Registered one


def _mutated(genuine, tmp_path, edit):
    lines = genuine.read_text().splitlines()
    line = edit(lines)
    path = tmp_path / "mutant.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path, line


def _boolean_ticks(lines):
    """Sets the tick of the two tick-1 events (the collateral transfer and
    the `NewDesign`), and the announce time, to true."""
    for i in (1, 2):
        _edit(lines, i, lambda o: o.__setitem__("tick", True))
    _edit(lines, 2, lambda o: o["payload"].__setitem__("announced_at", True))
    return 2


@pytest.mark.parametrize(
    "layer,edit,error",
    [
        ("parse", lambda ls: _truncate(ls, 3), "malformed JSON"),
        ("structure", lambda ls: _swap(ls, _line_of(ls, "Registered")), "sequence break"),
        # `true` and `1.0` equal 1, but no run writes them.
        ("structure", _boolean_ticks, "ticks must be non-decreasing"),
        ("structure", lambda ls: _edit(ls, 2, lambda o: o.__setitem__("seq", True)),
         "sequence break: expected 1, got True"),
        ("structure", lambda ls: _edit(ls, 2, lambda o: o.__setitem__("seq", 1.0)),
         "sequence break: expected 1, got 1.0"),
        ("mirror", lambda ls: _final_score(ls, _line_of(ls, "ResultCalculated")),
         "final score mismatch"),
        ("replay", lambda ls: _blinding(ls, _line_of(ls, "Revealed")), "replay divergence"),
    ],
)
def test_a_failure_names_its_layer(genuine, tmp_path, layer, edit, error):
    mutant, line = _mutated(genuine, tmp_path, edit)
    outcome = verify_trace(mutant)
    assert (outcome.ok, outcome.line, outcome.layer) == (False, line, layer)
    assert outcome.error.startswith(error)


@pytest.mark.parametrize(
    "first,then,layer,error",
    [
        # A later line of a higher layer beats an earlier line of a lower one.
        (lambda ls: _swap(ls, _line_of(ls, "Registered")), lambda ls: _truncate(ls, len(ls) - 1),
         "parse", "malformed JSON"),
        (lambda ls: _final_score(ls, _line_of(ls, "ResultCalculated")),
         lambda ls: _edit(ls, len(ls) - 1, lambda o: o.__setitem__("seq", 10**6)),
         "structure", "sequence break"),
        (lambda ls: _blinding(ls, _line_of(ls, "Revealed")),
         lambda ls: _final_score(ls, _line_of(ls, "ResultCalculated", last=True)),
         "mirror", "final score mismatch"),
        # In the replay, a message that cannot be rebuilt, or an exception
        # while executing, beats a divergence.
        (lambda ls: _edit(ls, 1, lambda o: o["payload"].__setitem__("amount", 1)),
         _unfunded_last_registrant, "replay", "replay failed: LedgerError"),
        (lambda ls: _blinding(ls, _line_of(ls, "Revealed")),
         lambda ls: _signature(ls, _line_of(ls, "Registered", last=True)),
         "replay", "replay failed: ValueError"),
        # A later message that cannot be rebuilt beats an exception while
        # executing.
        (_unfunded_last_registrant,
         lambda ls: _edit(ls, _line_of(ls, "Revealed", last=True),
                          lambda o: o["payload"].__setitem__("blinding", "zz")),
         "replay", "replay failed: ValueError"),
    ],
)
def test_the_highest_failing_layer_wins_over_an_earlier_line(
    genuine, tmp_path, first, then, layer, error
):
    lines = genuine.read_text().splitlines()
    earlier, line = first(lines), then(lines)
    assert earlier < line
    mutant = tmp_path / "mutant.jsonl"
    mutant.write_text("\n".join(lines) + "\n")
    outcome = verify_trace(mutant)
    assert (outcome.ok, outcome.line, outcome.layer) == (False, line, layer)
    assert outcome.error.startswith(error)


def test_verification_memory_does_not_grow_with_the_trace(tmp_path):
    """The verifier keeps no copy of the trace: at 200 rounds its peak is
    under half the file's size (loading every line, event and replayed
    line at once took about twelve times the file)."""
    from attestsim.scenario import validate_config

    raw = json.loads(SMOKE.read_text())
    raw["rounds"] = 200
    trace = Path(write_outputs(run(validate_config(raw)), tmp_path)["trace"])
    tracemalloc.start()
    try:
        assert verify_trace(trace).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trace.stat().st_size / 2


def test_verification_memory_grows_at_most_a_kib_per_round(tmp_path):
    """The replay's contract keeps a settled design's DesignRecord but not
    its round's roster and ballots: between 100 and 400 rounds the peak
    grows by at most 1 KiB per round (about 0.55; keeping that state cost
    2.75)."""
    from attestsim.scenario import validate_config

    raw = json.loads(SMOKE.read_text())
    peaks = {}
    for rounds in (100, 400):
        raw["rounds"] = rounds
        trace = Path(write_outputs(run(validate_config(raw)), tmp_path / str(rounds))["trace"])
        tracemalloc.start()
        try:
            assert verify_trace(trace).ok
            _, peaks[rounds] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[400] - peaks[100] <= (400 - 100) * 1024
