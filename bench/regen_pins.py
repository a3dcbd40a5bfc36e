#!/usr/bin/env python3
"""Regenerate pins.json: the sha256 of every trace of each shrunk workload.

    python3 bench/regen_pins.py

Run it from the repository root only when a change is meant to alter trace
bytes; the benchmark and its tests compare against these pins.
"""

import json
import sys

from run import PINS, WORKLOADS, import_attestsim, pin_hashes


def main() -> int:
    attestsim = import_attestsim()
    pins = {name: pin_hashes(attestsim, name) for name in sorted(WORKLOADS)}
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
