"""Every function that `trust`, `oracle`, `ledger` and `contract` define is
reached.

One smoke run, its written outputs and their verification are profiled
with `sys.setprofile`. Each function, method and property whose code lives
in the module's own file must be called at least once; the dunders that
`dataclass` generates live elsewhere and are not counted. The names allowed
to go uncalled are the ones the benchmark's tracer (`bench/tracer.py`)
patches by name, which go with its next change, and `KEPT_UNCALLED`.
"""

import inspect
import sys
from pathlib import Path

from attestsim import contract, ledger, load_config, oracle, run, trust, verify_trace, write_outputs

SMOKE = Path(__file__).parent.parent / "scenarios" / "smoke.json"
TRACER_PINNED = {
    "oracle.weight_exact",
    "trust.PaymentSchedule.penalty",
    "trust.PaymentSchedule.reward",
    "trust.agreement_sign",
    "trust.compute_reputation",
}
# `LedgerEvent`'s constructor: tests build events with it, and `emit` skips
# it for speed, building the tuple directly.
KEPT_UNCALLED = {"ledger.LedgerEvent.__new__"}


def defined_functions(module) -> dict:
    """{qualified name: code object} of the module's own functions, and of
    the methods and property getters of the classes it defines."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    members = []
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            members += [(f"{prefix}.{name}.{attr}", value) for attr, value in vars(obj).items()]
        else:
            members.append((f"{prefix}.{name}", obj))
    found = {}
    for name, obj in members:
        if isinstance(obj, property):
            obj = obj.fget
        elif isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        code = getattr(obj, "__code__", None)
        if code is not None and code.co_filename == module.__file__:
            found[name] = code
    return found


def test_every_scoring_and_referee_function_is_called(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    config = load_config(SMOKE)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        outcome = verify_trace(write_outputs(run(config), tmp_path)["trace"])
    finally:
        sys.setprofile(previous)
    assert outcome.ok

    defined = {}
    for module in (trust, oracle, ledger, contract):
        defined.update(defined_functions(module))
    assert len(defined) > 50
    uncalled = {name for name, code in defined.items() if code not in called}
    assert uncalled == TRACER_PINNED | KEPT_UNCALLED
