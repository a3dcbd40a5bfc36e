"""Write tests/data/validation_pins.json: the violations `validate_config`
reports on a seeded corpus of mutated scenario configs.

    PYTHONPATH=src python3 tests/make_validation_pins.py

The mutants are built from the scenario files under scenarios/ (parsed as
`load_config` parses them) and from the 24 configs of tests/corpus.py's
RAW_CORPUS. Each takes one to four edits, drawn against the config as the
earlier edits left it: a field redrawn from values chosen for that field or
from a pool of wrong types, a key deleted, an unknown key added, a section,
a list entry or the whole document replaced by the wrong type, or a player
appended as a copy of another. Each mutant is stored as the explicit list
of edits that builds it, with the violation list `validate_config` raised,
in order, or "OK" when it validated, so `tests/test_validation_pins.py`
can rebuild it without this script's random draws.

The file pins the violations of the validator this script ran against; it
is not regenerated to make a later validator pass.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from corpus import RAW_CORPUS  # noqa: E402

from attestsim.scenario import ScenarioValidationError, validate_config  # noqa: E402

OUT = HERE / "data" / "validation_pins.json"
SCENARIOS = HERE.parent / "scenarios"
SEED = 20261019
MUTANTS_PER_BASE = 48

KINDS = ["truthful_effort", "guess", "free_ride", "fixed_vote", "colluder", "abstain"]
MONEY = ["0", "-1", "0.0000001", "0.000001", "abc", "", None, "1e16", "1e15", "NaN",
         "Infinity", "-Infinity", True, 5, 0, -3, "2.5", "1e100000", 1.5, [], {},
         "1.0000000000000000000000000001", "15", "1000"]
INTS = [-1, 0, 1, 2, 3, 5, 9, True, "5", 5.0, None, 10**400, []]
FRACTIONS = [0.5, 1.0, -0.1, 1.5, 0.9, True, None, "0.9", "1.5", "x", 10**400, 0, 1, []]
SIGNS = [-1, 0, 1, 2, -3, True, None, "1", 1.0]
DUPLICATE = object()  # an id: resolved to another player's id when drawn
FIELD_VALUES = {
    "schema_version": [1, 2, 0, "1", True, None, 1.0],
    "seed": [0, 7, -1, 2**64 - 1, 2**64, True, "7", 1.5, None, 10**400],
    "quality_threshold": ["0.75", "0.5", "1", "1.000001", "0.99999999999999999", "0.50000001",
                          "x", "", 0.8, 2, "1e10001", "1e-10001", "3/4", "NaN", "Infinity",
                          "1/0", None, True, [1]],
    "effort_cost": MONEY, "epsilon": MONEY, "collateral": MONEY, "deposit": MONEY,
    "funds": MONEY, "vendor_funds": MONEY,
    "commit_window": INTS, "reveal_window": INTS, "feedback_size": INTS, "rounds": INTS,
    "payment_variant": ["simplified", "derivation", "bogus", None, 1, ""],
    "valid": [True, False, None, 1, 0, "true"],
    "id": ["", 7, None, True, "vendor", "manager", "contract", DUPLICATE, DUPLICATE,
           "\ud800", "a\udcffb", "p99", "x"],
    "strategy": [{}, {"kind": "bogus"}, "truthful_effort", None, [],
                 {"kind": "fixed_vote", "vote": 1, "extra": 2}, {"kind": "guess"},
                 *({"kind": kind} for kind in KINDS)],
    "kind": [*KINDS, "bogus", None, 1, "", [1]],
    "quality": FRACTIONS, "bias": FRACTIONS, "vote": SIGNS, "target": SIGNS,
    "group": ["ring", "", None, True, [1], 7],
    "phase": ["evaluation", "feedback", "buyer", None, True],
    "constants": [None, [], {}, "x", [1]],
    "designs": [None, [], {}, "x", [1], [{}]],
    "players": [None, [], {}, "x", [1], [{}]],
}
WRONG = [None, True, False, 0, -1, 2, 2**64, 10**400, 1.5, "", "x", "1", "0.9", "NaN",
         "1e999", [], [1], {}, {"a": 1}, "\ud800"]
ENTRIES = [None, 3, "x", [], {}]
ROOTS = [[], "x", None, 3, [{}]]
UNKNOWN = ["bogus", "Seed", "extra", "players2"]
KNOWN = {
    (): ["schema_version", "seed", "constants", "designs", "rounds", "players", "vendor_funds"],
    ("constants",): ["quality_threshold", "effort_cost", "epsilon", "commit_window",
                     "reveal_window", "payment_variant", "feedback_size"],
    ("designs", None): ["valid", "collateral"],
    ("players", None): ["id", "strategy", "deposit", "funds", "phase"],
    ("players", None, "strategy"): ["kind", "quality", "bias", "vote", "target", "group"],
}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def bases() -> dict:
    """Every config the mutants start from, by name."""
    found = {f"scenarios/{path.name}": json.loads(path.read_text(encoding="utf-8"), parse_float=str)
             for path in sorted(SCENARIOS.glob("*.json"))}
    found.update((f"corpus/{name}", copy.deepcopy(raw)) for name, raw in sorted(RAW_CORPUS.items()))
    return found


def lookup(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def apply_edits(raw, edits):
    """A deep copy of `raw` after the edits, in order. A `set` with an
    empty path replaces the whole document."""
    raw = copy.deepcopy(raw)
    for kind, path, *value in edits:
        if kind == "set" and not path:
            raw = copy.deepcopy(value[0])
            continue
        *parent, last = path
        target = lookup(raw, parent)
        if kind == "set":
            target[last] = copy.deepcopy(value[0])
        elif kind == "append":
            target[last].append(copy.deepcopy(value[0]))
        elif kind == "delete":
            del target[last]
        else:
            raise ValueError(f"unknown edit {kind!r}")
    return raw


def violations(raw):
    try:
        validate_config(raw)
    except ScenarioValidationError as exc:
        return exc.violations
    return "OK"


def containers(raw):
    """(path, schema key) of every object the schema describes that `raw`
    holds as an object."""
    if not isinstance(raw, dict):
        return []
    found = [((), ())]
    if isinstance(raw.get("constants"), dict):
        found.append((("constants",), ("constants",)))
    for section in ("designs", "players"):
        entries = raw.get(section)
        if not isinstance(entries, list):
            continue
        for i, entry in enumerate(entries):
            if isinstance(entry, dict):
                found.append(((section, i), (section, None)))
                if section == "players" and isinstance(entry.get("strategy"), dict):
                    found.append((("players", i, "strategy"), ("players", None, "strategy")))
    return found


def player_ids(raw) -> list:
    players = raw.get("players") if isinstance(raw, dict) else None
    if not isinstance(players, list):
        return []
    return [p["id"] for p in players if isinstance(p, dict) and isinstance(p.get("id"), str)]


def draw_value(rng, raw, key):
    pool = FIELD_VALUES.get(key, WRONG) if rng.random() < 0.75 else WRONG
    value = rng.choice(pool)
    if value is DUPLICATE:
        ids = player_ids(raw)
        value = rng.choice(ids) if ids else "p0"
    return copy.deepcopy(value)


def draw_edit(rng, raw):
    """One edit that applies to `raw`."""
    places = containers(raw)
    roll = rng.random()
    if not places or roll < 0.01:
        return ["set", [], copy.deepcopy(rng.choice(ROOTS))]
    schema = rng.choice(sorted({schema for _, schema in places}))
    path = rng.choice([path for path, kind in places if kind == schema])
    if roll < 0.62:  # redraw a field, present or not
        key = rng.choice(KNOWN[schema])
        return ["set", [*path, key], draw_value(rng, raw, key)]
    if roll < 0.77:  # delete a key or a list entry
        obj = lookup(raw, path)
        if not obj:
            return ["set", [*path, rng.choice(UNKNOWN)], 1]
        key = rng.choice(sorted(obj))
        entries = obj[key]
        if key in ("designs", "players") and isinstance(entries, list) and entries and rng.random() < 0.5:
            return ["delete", [key, rng.randrange(len(entries))]]
        return ["delete", [*path, key]]
    if roll < 0.86:
        return ["set", [*path, rng.choice(UNKNOWN)], rng.choice([1, None, "x"])]
    section = rng.choice(["constants", "designs", "players"])
    entries = raw.get(section)
    if roll < 0.91 or not isinstance(entries, list) or not entries:
        return ["set", [section], copy.deepcopy(rng.choice(FIELD_VALUES[section]))]
    if section == "players" and roll < 0.96:
        return ["append", ["players"], copy.deepcopy(rng.choice(entries))]
    return ["set", [section, rng.randrange(len(entries))], copy.deepcopy(rng.choice(ENTRIES))]


def main() -> None:
    rng = random.Random(SEED)
    start = bases()
    pins = []
    for name, raw in start.items():
        for _ in range(MUTANTS_PER_BASE):
            mutant, edits = raw, []
            for _ in range(rng.randint(1, 4)):
                edit = json.loads(json.dumps(draw_edit(rng, mutant)))  # as the test reads it
                edits.append(edit)
                mutant = apply_edits(mutant, [edit])
            pins.append({"base": name, "edits": edits, "violations": violations(mutant)})
    OUT.parent.mkdir(exist_ok=True)
    digests = {name: hashlib.sha256(canonical(raw).encode()).hexdigest() for name, raw in start.items()}
    with open(OUT, "w") as fh:  # one mutant a line, so a diff names the mutant
        fh.write('{"bases": ' + json.dumps(digests, sort_keys=True) + ',\n "pins": [\n')
        fh.write(",\n".join(json.dumps(pin, sort_keys=True) for pin in pins))
        fh.write("\n]}\n")
    ok = sum(1 for pin in pins if pin["violations"] == "OK")
    print(f"{len(pins)} pins, {ok} of them OK -> {OUT}")


if __name__ == "__main__":
    main()
