"""Every function that `trust`, `oracle`, `ledger`, `contract`, `agents`,
`scenario` and `verify` define is reached.

Loading the smoke scenario, one run of it, its written outputs and their
verification are profiled with `sys.setprofile`, and with them one config
that fails validation, one run of a corpus config with colluders, and the
verification of a trace whose line 1 is not canonical JSON, the strategies
that take no parameter, and one comparison of payment schedules. Each
function, method and property whose code lives in the module's own file
must be called at least once, hand-written dunders such as `__init__` and
`__eq__` included; the methods that `NamedTuple` generates live elsewhere
and are not counted. The only names allowed to go uncalled are the ones the
benchmark's tracer (`bench/tracer.py`) patches by name, which go with its
next change.

The package namespace holds the five entry points and nothing else.
"""

import inspect
import sys
from pathlib import Path

import pytest

import attestsim
from attestsim import agents, contract, ledger, oracle, scenario, trust, verify
from attestsim import load_config, run, validate_config, verify_trace, write_outputs

sys.path.insert(0, str(Path(__file__).parent))
from corpus import RAW_CORPUS

SMOKE = Path(__file__).parent.parent / "scenarios" / "smoke.json"
TRACER_PINNED = {
    "oracle.weight_exact",
    "scenario.RunReport.trace_lines",
    "trust.PaymentSchedule.penalty",
    "trust.PaymentSchedule.reward",
    "trust.agreement_sign",
    "trust.compute_reputation",
}


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

    invalid = {**RAW_CORPUS["unanimity_valid"], "rounds": 0}
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        trace = Path(write_outputs(run(load_config(SMOKE)), tmp_path)["trace"])
        assert verify_trace(trace)
        with pytest.raises(scenario.ScenarioValidationError):
            validate_config(invalid)
        run(validate_config(RAW_CORPUS["colluders_outvoted"]))
        header, rest = trace.read_text().split("\n", 1)
        trace.write_text(header.replace(":", ": ", 1) + "\n" + rest)
        spaced = verify_trace(trace)
        idle = [agents.strategy_from_config({"kind": kind}) for kind in ("free_ride", "abstain")]
        schedules = [trust.PaymentSchedule(1, "0.75", "0.001"), trust.PaymentSchedule("1", 0.75, "1e-3")]
        same_schedule = schedules[0] == schedules[1]
    finally:
        sys.setprofile(previous)
    assert spaced.error == "replay: line 1 is not canonical JSON"
    assert [type(s) for s in idle] == [agents.FreeRide, agents.Abstain] and same_schedule

    defined = {}
    for module in (trust, oracle, ledger, contract, agents, scenario, verify):
        defined.update(defined_functions(module))
    assert len(defined) > 50
    uncalled = {name for name, code in defined.items() if code not in called}
    assert uncalled == TRACER_PINNED


def test_the_package_namespace_is_the_five_entry_points():
    entry_points = {
        "load_config": scenario.load_config,
        "run": scenario.run,
        "validate_config": scenario.validate_config,
        "verify_trace": verify.verify_trace,
        "write_outputs": scenario.write_outputs,
    }
    assert sorted(attestsim.__all__) == sorted(entry_points)
    for name, obj in entry_points.items():
        assert getattr(attestsim, name) is obj, name
    public = {
        name for name, obj in vars(attestsim).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == set(entry_points)
