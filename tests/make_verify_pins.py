"""Write tests/data/verify_pins.json: the verdicts `verify_trace` gives on a
seeded corpus of mutated traces.

    PYTHONPATH=src python3 tests/make_verify_pins.py

The mutants are built from the 24 corpus traces (tests/corpus.py):
criterion 9's 50 mutations of `feedback_pass`, and per trace seeded byte
overwrites, truncations, dropped, duplicated and swapped lines, JSON value
swaps and deletions, and pairs of edits on different lines (so that
failures of different layers meet in one file). Each mutant is stored as
the explicit list of edits that builds it, with the verdict
`(ok, line, error)` it received, so `tests/test_verify_pins.py` can rebuild
it without this script's random draws.

The file pins the verdicts of the verifier this script ran against; it is
not regenerated to make a later verifier pass. Mutants in which an event's
sender (or the header's manager) is not a string, and whose verdict comes
from the replay (OK included), are kept apart in `sender_class`: there the
verdict depends on which messages share a tick, so each also records the
line of the first event that names such a sender (or that cannot be
rebuilt), which is where a verifier that type-checks senders must fail.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from corpus import corpus_configs  # noqa: E402

from attestsim.contract import deploy  # noqa: E402
from attestsim.scenario import run  # noqa: E402
from attestsim.verify import verify_trace  # noqa: E402

OUT = HERE / "data" / "verify_pins.json"
SEED = 20261018
CRITERION_9_TRACE = "feedback_pass"

# Per trace: how many mutants of each kind.
COUNTS = {
    "overwrite": 14,
    "truncate": 3,
    "drop": 4,
    "duplicate": 3,
    "swap": 4,
    "set": 24,
    "delete": 4,
    "pair": 14,
}
VALUES = [
    10**30, -(10**30), 2**64, 2**63, -(2**64), 2**53 + 1, 0, 1, -1, 2, 7,
    0.5, -0.0, 1e308, 5e-324, 0.123456, True, False, "", "x", "p0", "00" * 32,
    None, [], {}, [1], {"a": 1},
]
# Bytes an overwrite draws from: mostly ones that keep a line parseable.
BYTES = b'0123456789abcdef-.,:"{}[] e' + bytes([0x80, 0xFF, 0x0D])


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def leaf_paths(obj, prefix=()):
    """Every path into obj, the containers included."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from leaf_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield prefix + (i,)
            yield from leaf_paths(value, prefix + (i,))


def lookup(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def apply_edits(blob: bytes, edits) -> bytes:
    """The bytes of the trace after the edits, in order. Line indices count
    every b"\\n"-separated piece."""
    for edit in edits:
        kind = edit[0]
        if kind == "overwrite":
            _, at, byte = edit
            blob = blob[:at] + bytes([byte]) + blob[at + 1:]
        elif kind == "truncate":
            blob = blob[:edit[1]]
        elif kind in ("drop", "duplicate", "swap", "set", "delete"):
            lines = blob.split(b"\n")
            i = edit[1]
            if kind == "drop":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            elif kind == "swap":
                j = edit[2]
                lines[i], lines[j] = lines[j], lines[i]
            else:
                obj = json.loads(lines[i])
                *parent, last = edit[2]
                target = lookup(obj, parent)
                if kind == "set":
                    target[last] = edit[3]
                else:
                    del target[last]
                lines[i] = canonical(obj).encode()
            blob = b"\n".join(lines)
        else:
            raise ValueError(f"unknown edit {kind!r}")
    return blob


def json_edit(rng: random.Random, lines, names) -> list:
    """A "set" or "delete" on a random path of a random line."""
    i = rng.randrange(len(lines))
    obj = json.loads(lines[i])
    path = rng.choice(list(leaf_paths(obj)))
    if rng.random() < 0.12:
        return ["delete", i, list(path)]
    old = lookup(obj, path)
    roll = rng.random()
    if roll < 0.5:
        value = rng.choice(VALUES)
    elif roll < 0.7:
        value = rng.choice(names)  # another account's name
    elif isinstance(old, bool) or not isinstance(old, (int, float)):
        other = json.loads(lines[rng.randrange(len(lines))])
        value = lookup(other, rng.choice(list(leaf_paths(other))))
        if isinstance(value, (dict, list)):
            value = rng.choice(VALUES)
    elif isinstance(old, int):
        value = old + rng.choice([-1, 1, old, -2 * old])
    else:
        value = rng.choice([old * 2, -old, old + 1e-9, 0.0])
    return ["set", i, list(path), value]


def random_mutants(rng: random.Random, blob: bytes) -> list:
    lines = blob.decode().split("\n")[:-1]
    header = json.loads(lines[0])
    names = sorted(header["genesis_balances"]) + [header["manager"]]
    mutants = []
    for kind, count in COUNTS.items():
        for _ in range(count):
            if kind == "overwrite":
                edits = [["overwrite", rng.randrange(len(blob)), rng.choice(BYTES)]
                         for _ in range(rng.choice([1, 1, 2]))]
            elif kind == "truncate":
                edits = [["truncate", rng.randrange(len(blob))]]
            elif kind in ("drop", "duplicate"):
                edits = [[kind, rng.randrange(len(lines))]]
            elif kind == "swap":
                i = rng.randrange(len(lines) - 1)
                j = i + 1 if rng.random() < 0.5 else rng.randrange(len(lines))
                edits = [["swap", i, j]]
            elif kind in ("set", "delete"):
                edits = [json_edit(rng, lines, names)]
                while edits[0][0] != kind:
                    edits = [json_edit(rng, lines, names)]
            else:
                first = json_edit(rng, lines, names)
                second = json_edit(rng, lines, names)
                while second[1] == first[1]:
                    second = json_edit(rng, lines, names)
                edits = [first, second]
                if rng.random() < 0.3:  # a byte edit on top, maybe a parse failure
                    edits.append(["overwrite", rng.randrange(len(blob)), rng.choice(BYTES)])
            mutants.append(edits)
    return mutants


def single_change(before, after, path=()):
    """The path and new value of the one leaf `after` changes in `before`."""
    if isinstance(before, dict) and isinstance(after, dict) and before.keys() == after.keys():
        changed = [k for k in before if before[k] != after[k] or type(before[k]) is not type(after[k])]
        if len(changed) == 1:
            return single_change(before[changed[0]], after[changed[0]], path + (changed[0],))
    if isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        changed = [i for i in range(len(before)) if before[i] != after[i]]
        if len(changed) == 1:
            return single_change(before[changed[0]], after[changed[0]], path + (changed[0],))
    return list(path), after


def criterion_9_mutants(blob: bytes) -> list:
    from test_acceptance import _mutation_pool

    lines = blob.decode().split("\n")[:-1]
    mutants = []
    for _, mutated in _mutation_pool(lines):
        (i,) = [k for k in range(len(lines)) if lines[k] != mutated[k]]
        path, value = single_change(json.loads(lines[i]), json.loads(mutated[i]))
        edits = [["set", i, path, value]]
        assert apply_edits(blob, edits) == ("\n".join(mutated) + "\n").encode()
        mutants.append(edits)
        if len(mutants) == 50:
            break
    return mutants


# The verdicts a replay gives; the layers before it never read a sender.
REPLAY_ERRORS = ("replay", "trace has events")
SENDER_FIELD = {
    "NewDesign": "vendor", "Registered": "player", "Committed": "player",
    "Revealed": "player", "FeedbackOpened": "initiator", "ResultCalculated": "initiator",
}


def first_unsendable_line(path: Path):
    """For a trace whose verdict comes from the replay: the line of the
    first event whose sender is not a string or whose message cannot be
    rebuilt (1 when the header cannot deploy), or None when every sender is
    a string."""
    from attestsim.verify import _reconstruct_message

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    header = json.loads(lines[0])
    events = [json.loads(ln) for ln in lines[1:]]

    def sender(event):
        try:
            if event["kind"] == "Received":
                return header["manager"]
            return event["payload"][SENDER_FIELD[event["kind"]]]
        except (KeyError, TypeError):
            return ""  # no sender to type-check; a rebuild failure if anything

    if all(isinstance(sender(e), str) for e in events if e["kind"] != "Transfer"):
        return None
    try:
        deploy(header)
    except Exception:
        return 1
    for line, event in enumerate(events, start=2):
        if event["kind"] == "Transfer":
            continue
        try:
            _reconstruct_message(event)
        except Exception:
            return line
        if not isinstance(sender(event), str):
            return line
    raise AssertionError("unreachable")


def verdict(path: Path) -> dict:
    outcome = verify_trace(path)
    return {"ok": outcome.ok, "line": outcome.line, "error": outcome.error}


def main() -> None:
    rng = random.Random(SEED)
    traces = {name: ("\n".join(run(config).trace_lines()) + "\n").encode()
              for name, config in corpus_configs().items()}
    plan = [(CRITERION_9_TRACE, edits) for edits in criterion_9_mutants(traces[CRITERION_9_TRACE])]
    for name, blob in traces.items():
        plan += [(name, edits) for edits in random_mutants(rng, blob)]

    pins, sender_class = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.jsonl"
        for name, edits in plan:
            path.write_bytes(apply_edits(traces[name], edits))
            entry = {"trace": name, "edits": edits, **verdict(path)}
            if entry["ok"] or entry["error"].startswith(REPLAY_ERRORS):
                line = first_unsendable_line(path)
                if line is not None:
                    sender_class.append({**entry, "expect_line": line})
                    continue
            pins.append(entry)

    OUT.parent.mkdir(exist_ok=True)
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in traces.items()}
    with open(OUT, "w") as fh:  # one mutant a line, so a diff names the mutant
        fh.write(f'{{"seed": {SEED},\n"traces": {json.dumps(digests, sort_keys=True)},\n')
        for key, entries in (("pins", pins), ("sender_class", sender_class)):
            rows = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
            fh.write(f'"{key}": [\n{rows}\n]' + (",\n" if key == "pins" else "}\n"))
    print(f"{len(pins)} pins, {len(sender_class)} in the sender class -> {OUT}")


if __name__ == "__main__":
    main()
