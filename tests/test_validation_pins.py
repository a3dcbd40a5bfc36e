"""`validate_config` reports the violations it reported when the pins were made.

`tests/data/validation_pins.json` holds, for a seeded corpus of mutated
scenario configs, the violation list `validate_config` raised (or "OK"),
written by `tests/make_validation_pins.py`. Every mutant is rebuilt from its
recorded edits and must get its pinned list, entry for entry and in order.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from make_validation_pins import OUT, apply_edits, bases, canonical, violations

PINS = json.loads(OUT.read_text())

# Every violation `validate_config` can report, with list indices as `[]`.
MONEY = r"(not a monetary amount: .+|not a finite amount: .+|.+ exceeds \d+ currency units" \
        r"|.+ has more than 6 decimal places|must be positive)"
VIOLATIONS = [
    r"top level: expected an object",
    r"unknown key '.+'",
    r"schema_version: expected 1",
    r"seed: must be an unsigned 64-bit integer",
    r"constants: section missing",
    r"constants: unknown key '.+'",
    r"constants\.quality_threshold: not a number",
    r"constants\.quality_threshold: must lie in \(0\.5, 1\]",
    rf"constants\.(effort_cost|epsilon): {MONEY}",
    r"constants\.commit_window: must be an integer",
    r"constants\.commit_window: must be >= 3",
    r"constants\.reveal_window: must be an integer",
    r"constants\.reveal_window: must be >= 1",
    r"constants\.feedback_size: must be an integer",
    r"constants\.feedback_size: must be >= 0",
    r"constants\.payment_variant: must be 'simplified' or 'derivation'",
    r"designs: need a non-empty list",
    r"designs\[\]: expected an object",
    r"designs\[\]: unknown key '.+'",
    r"designs\[\]\.valid: must be true or false",
    rf"designs\[\]\.collateral: {MONEY}",
    r"rounds: must be an integer",
    r"rounds: must be >= 1",
    r"players: need a non-empty list",
    r"players\[\]: expected an object",
    r"players\[\]: unknown key '.+'",
    r"players\[\]\.id: must be a non-empty string",
    r"players\[\]\.id: must be UTF-8 text",
    r"players\[\]\.id: '.+' is reserved",
    r"players\[\]\.id: duplicate id '.+'",
    r"players\[\]\.strategy: expected an object",
    r"players\[\]\.strategy: unknown strategy kind .+",
    r"players\[\]\.strategy: .+ got an unexpected keyword argument '.+'",
    r"players\[\]\.strategy: .+ missing \d required positional arguments?: .+",
    r"players\[\]\.strategy: (quality|bias) must be a number",
    r"players\[\]\.strategy: (vote|target) must be an integer",
    r"players\[\]\.strategy: (could not convert string to float|float\(\) argument must be).+",
    r"players\[\]\.strategy: int too large to convert to float",
    r"players\[\]\.strategy: unhashable type: .+",
    r"players\[\]\.strategy: (observation quality|guess bias|fixed vote|collusion \w+) must .+",
    rf"players\[\]\.deposit: {MONEY}",
    rf"players\[\]\.funds: {MONEY.replace('must be positive', 'must not be negative')}",
    r"players\[\]\.phase: must be 'evaluation' or 'feedback'",
    r"players: need at least 2 evaluation-phase players",
    rf"vendor_funds: {MONEY.replace('must be positive', 'must not be negative')}",
]


def test_the_bases_are_the_ones_the_pins_were_made_from():
    assert {name: hashlib.sha256(canonical(raw).encode()).hexdigest()
            for name, raw in bases().items()} == PINS["bases"]


def test_the_pins_cover_every_violation():
    pins = PINS["pins"]
    assert len(pins) >= 1000
    assert sum(1 for pin in pins if pin["violations"] == "OK") > 0
    hits = dict.fromkeys(VIOLATIONS, 0)
    for pin in pins:
        for violation in [] if pin["violations"] == "OK" else pin["violations"]:
            shape = re.sub(r"\[\d+\]", "[]", violation, count=1)
            matched = [p for p in VIOLATIONS if re.fullmatch(p, shape, re.DOTALL)]
            assert matched, violation
            hits[matched[0]] += 1
    assert not [p for p, n in hits.items() if n == 0]


def test_every_pinned_violation_list_is_reproduced():
    start = bases()
    moved = [
        (pin, got)
        for pin in PINS["pins"]
        if (got := violations(apply_edits(start[pin["base"]], pin["edits"]))) != pin["violations"]
    ]
    assert not moved, f"{len(moved)} of {len(PINS['pins'])} violation lists moved, first: {moved[:3]}"
