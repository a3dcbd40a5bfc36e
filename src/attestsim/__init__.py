"""Deterministic simulator for a two-phase commit-reveal design voting protocol.

The package namespace holds the five entry points: `load_config`,
`validate_config`, `run` and `write_outputs` from `scenario`, and
`verify_trace` from `verify`. Everything else is imported from the module
that defines it: the pure scoring library (`trust`), the exact-rational
referee (`oracle`, with `RationalMirror` and `settle_exact`), the
message-ordered ledger simulation (`ledger`), the voting contract
(`contract`), strategy-driven participants (`agents`), scenario
orchestration (`scenario`), trace verification (`verify`), keys and
commitments (`crypto`) and micro-unit amounts (`money`).
"""

from .scenario import load_config, run, validate_config, write_outputs
from .verify import verify_trace

__version__ = "0.1.0"

__all__ = ["load_config", "run", "validate_config", "verify_trace", "write_outputs"]
