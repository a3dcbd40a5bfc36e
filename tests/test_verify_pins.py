"""The streaming verifier gives the verdicts the whole-file verifier gave.

`tests/data/verify_pins.json` holds `(ok, line, error)` for a seeded corpus
of mutated corpus traces, written by `tests/make_verify_pins.py` against the
verifier that loaded the whole trace before checking it. Every mutant is
rebuilt from its recorded edits and must get its pinned verdict, apart from
two intended changes:

- a sender that is not a string now fails on its own event's line (the
  `sender_class` entries), where the old replay reported whatever its sort
  of all messages raised;
- line 1 must be the line `contract.genesis_header` writes for the
  deployment it describes, so a header with another fixed field, a window
  that is not a JSON integer, or a spelling of its own now fails line 1 in
  the replay. `tests/data/verify_pins_moved.json` records each pin this
  moved, with its old and its new verdict, and the new one is required.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from corpus import corpus_configs
from make_verify_pins import OUT, apply_edits

from attestsim.scenario import run
from attestsim.verify import verify_trace

PINS = json.loads(OUT.read_text())
MOVED = json.loads((OUT.parent / "verify_pins_moved.json").read_text())


def _key(entry):
    return entry["trace"], json.dumps(entry["edits"])


NEW_VERDICTS = {
    group: {_key(entry): entry["new"] for entry in entries} for group, entries in MOVED.items()
}


@pytest.fixture(scope="module")
def traces():
    blobs = {name: ("\n".join(run(config).trace_lines()) + "\n").encode()
             for name, config in corpus_configs().items()}
    assert {name: hashlib.sha256(b).hexdigest() for name, b in blobs.items()} == PINS["traces"]
    return blobs


def _verdicts(traces, entries, path):
    for entry in entries:
        path.write_bytes(apply_edits(traces[entry["trace"]], entry["edits"]))
        yield entry, verify_trace(path)


def test_the_pins_cover_every_layer_and_criterion_9():
    errors = [pin["error"] or "" for pin in PINS["pins"]]
    assert len(PINS["pins"]) > 1500 and len(PINS["sender_class"]) > 10
    for prefix in ("not UTF-8", "malformed JSON", "first line", "sequence break",
                   "unusable header or payload", "header schedule", "replay failed",
                   "replay divergence", "trace has events"):
        assert any(e.startswith(prefix) for e in errors), prefix
    assert sum(1 for pin in PINS["pins"] if pin["ok"]) > 0


# The layer each error prefix belongs to; any other error is the mirror's.
LAYER_PREFIXES = {
    "parse": ("not UTF-8", "malformed JSON"),
    "structure": ("first line", "event line missing", "unknown event kind", "sequence break",
                  "ticks must", "empty trace"),
    "replay": ("replay", "trace has events"),
}


def _layer_of(error):
    if error is None:
        return None
    return next((layer for layer, prefixes in LAYER_PREFIXES.items()
                 if error.startswith(prefixes)), "mirror")


def test_each_moved_verdict_is_a_pinned_mutant_now_failing_line_1_in_the_replay():
    pinned = {group: {_key(entry): entry for entry in PINS[group]} for group in MOVED}
    assert (len(MOVED["pins"]), len(MOVED["sender_class"])) == (21, 1)
    for group, entries in MOVED.items():
        for entry in entries:
            pin = pinned[group][_key(entry)]
            assert {k: v for k, v in pin.items() if k not in ("trace", "edits")} == entry["old"]
            assert (entry["new"]["ok"], entry["new"]["line"]) == (False, 1)
            assert _layer_of(entry["new"]["error"]) == "replay"


def test_every_pinned_verdict_is_reproduced(traces, tmp_path):
    """The pins store no layer, so each verdict's layer is checked against
    the one its error text implies."""
    moved = []
    for entry, outcome in _verdicts(traces, PINS["pins"], tmp_path / "mutant.jsonl"):
        expected = NEW_VERDICTS["pins"].get(_key(entry), entry)
        if (outcome.ok, outcome.line, outcome.error, outcome.layer) != (
            expected["ok"], expected["line"], expected["error"], _layer_of(expected["error"])
        ):
            moved.append((entry["trace"], entry["edits"], expected, outcome))
    assert not moved, f"{len(moved)} verdicts moved, first: {moved[:3]}"


def test_a_non_string_sender_fails_the_line_of_its_event(traces, tmp_path):
    for entry, outcome in _verdicts(traces, PINS["sender_class"], tmp_path / "mutant.jsonl"):
        new = NEW_VERDICTS["sender_class"].get(_key(entry))
        if new is not None:
            assert (outcome.ok, outcome.line, outcome.error) == (new["ok"], new["line"], new["error"])
            continue
        assert not outcome.ok and outcome.layer == "replay", entry
        assert outcome.line == entry["expect_line"], (entry, outcome)
        assert outcome.error.startswith("replay failed"), (entry, outcome)
