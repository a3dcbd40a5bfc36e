#!/usr/bin/env python3
"""Benchmark attestsim's run(), write_outputs() and verify_trace() on one workload.

Run from the repository root:

    python3 bench/run.py --workload incentive_sweep --seed 0 --seconds 20 --trace 0

The workload's scenario file is generated from --seed (workloads.py). The
command then:

1. times `import attestsim` + `load_config` in fresh processes (setup);
2. repeats passes until --seconds have gone by; for each seed of the
   workload a pass calls run(), then write_outputs() three times, then
   verify_trace(), in this process;
3. checks the outputs apart from the program (checks.py) and the pinned
   trace hashes of the shrunk workload (pins.json), outside the timed parts;
4. prints one JSON line: correct, attempted, failed and the metrics.

With --trace 0 the metrics are the end-to-end ones, medians over the calls.
With --trace 1 the passes run with spans around the package's public
functions (tracer.py) and the metrics are the per-layer ones; one untraced
pass in fresh processes (reference.py) gives the tracing overhead and the
per-phase peak memory. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINS = BENCH / "pins.json"
PIN_SEED = 0
SETUP_SAMPLES = 7
CHILD_TIMEOUT = 170

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
from tracer import CONTRACT_OPS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_CHILD = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import attestsim\n"
    "imported = time.perf_counter()\n"
    "attestsim.load_config(sys.argv[2])\n"
    "print(imported - start, time.perf_counter() - imported)\n"
)
# write_outputs() is cheap next to run(): repeating it gives its median
# enough samples to be steady.
WRITES = 3
OPS = ("run", "write", "verify")
CALLS_PER_SEED = 1 + WRITES + 1
# A failure in one call fails the calls that need its output too.
DOWNSTREAM = {"run": CALLS_PER_SEED, "write": WRITES + 1, "verify": 1}


def require_sources() -> None:
    if not (SRC / "attestsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no attestsim sources under {SRC}")


def import_attestsim():
    """Import the package from this checkout's src/, never from elsewhere."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import attestsim

    if Path(attestsim.__file__).resolve().parent != SRC / "attestsim":
        raise SystemExit(f"bench: imported attestsim from {attestsim.__file__}, not {SRC}")
    return attestsim


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _sha256(path: Path) -> str:
    # Small reads keep the hashing's own memory out of the peak measured
    # by the calls that follow it.
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _child(argv) -> str:
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} failed: {proc.stderr.strip()[-400:]}")
    return proc.stdout


def measure_setup(scenario: Path) -> list:
    """(import_s, load_config_s) from fresh processes; the first one, which
    may compile bytecode, is not kept."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = _child(["-c", SETUP_CHILD, str(SRC), str(scenario)])
        if i:
            samples.append(tuple(float(x) for x in out.split()))
    return samples


# ---------------------------------------------------------------------- #
# timed passes


def _timed(tracer, phase, layer, fn, *args):
    start = time.perf_counter_ns()
    if tracer is None:
        value = fn(*args)
    else:
        value = tracer.top(phase, layer, fn, *args)
    return value, time.perf_counter_ns() - start


def one_pass(attestsim, config, seeds, out: Path, tracer=None) -> dict:
    """run() once, write_outputs() WRITES times and verify_trace() once per seed.

    Returns the ns of every call, by call and seed, the error that stopped
    each failed seed, and the sha256 of each written trace (hashed outside
    the timed calls)."""
    samples = {op: {seed: [] for seed in seeds} for op in OPS}
    errors, sha = {}, {}
    for seed in seeds:
        seed_dir = out / f"seed-{seed}"
        failed = None
        gc.collect()
        try:
            report, ns = _timed(tracer, "run", "scenario.self", attestsim.run, config, seed)
            samples["run"][seed].append(ns)
            try:
                for _ in range(WRITES):
                    _, ns = _timed(tracer, "write", "scenario.files", attestsim.write_outputs,
                                   report, seed_dir)
                    samples["write"][seed].append(ns)
            except Exception as exc:  # a failed call is counted, not fatal
                failed = ("write", repr(exc))
            del report
        except Exception as exc:
            failed = ("run", repr(exc))
        gc.collect()
        if failed is None:
            try:
                outcome, ns = _timed(tracer, "verify", "compare", attestsim.verify_trace,
                                     seed_dir / "trace.jsonl")
                samples["verify"][seed].append(ns)
                if not outcome.ok:
                    failed = ("verify", f"FAILED line {outcome.line}: {outcome.error}")
            except Exception as exc:
                failed = ("verify", repr(exc))
            sha[seed] = _sha256(seed_dir / "trace.jsonl")
        if failed is not None:
            errors[seed] = failed
    return {"samples": samples, "errors": errors, "sha": sha}


def measure(attestsim, config, seeds, out: Path, seconds: float, tracer=None) -> list:
    """Whole passes until `seconds` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        record = one_pass(attestsim, config, seeds, out, tracer)
        if tracer is not None:
            record["spans"] = (dict(tracer.self_ns), dict(tracer.calls), dict(tracer.counts))
            tracer.reset()
        passes.append(record)
    return passes


# ---------------------------------------------------------------------- #
# output checks


def workload_problems(workload: str, raw: dict, facts) -> list:
    """What the workload promises to exercise, and the paper's property."""
    kinds = {p["id"]: p["strategy"]["kind"] for p in raw["players"]}
    problems = []
    if workload in ("incentive_sweep", "long_history"):
        utility = checks.utilities(facts, {p for p, k in kinds.items() if k == "truthful_effort"})
        honest = [utility.get(p, 0) for p in kinds if p.startswith("hon-")]
        guesser = utility.get("guess-1", 0)
        if not sum(honest) / len(honest) > 0 > guesser:
            problems.append(f"truthfulness: honest mean {sum(honest) / len(honest)}, "
                            f"guesser {guesser}")
    if workload == "wide_market":
        phases = list(facts.final_phase.values())
        if "attested" not in phases or all(p == "attested" for p in phases):
            problems.append(f"want attested and not-attested designs, got {phases}")
        registering = sum(1 for p in raw["players"]
                          if p["phase"] == "evaluation" and kinds[p["id"]] != "abstain")
        caps = {d: c // facts.reward_micro for d, c in facts.collateral.items()}
        if facts.eval_roster != caps or not max(caps.values()) < registering:
            problems.append(f"roster cap turned nobody away: rosters {facts.eval_roster}")
        if not any(rnd == "feedback" for rnd, _ in facts.settlements):
            problems.append("no feedback settlement")
        for needed in ("silent", "zero_vote", "agree", "disagree"):
            if not facts.payout_classes[needed]:
                problems.append(f"no {needed} payout")
    return problems


def check_outputs(workload: str, raw: dict, seeds, out: Path) -> dict:
    """seed -> (sha256 of the trace the last pass left, problems found in it)."""
    truthful = {p["id"] for p in raw["players"] if p["strategy"]["kind"] == "truthful_effort"}
    found = {}
    for seed in seeds:
        seed_dir = out / f"seed-{seed}"
        try:
            facts = checks.check_trace(seed_dir / "trace.jsonl")
            problems = list(facts.problems)
            problems += checks.check_summary(facts, seed_dir / "summary.json", truthful)
            problems += workload_problems(workload, raw, facts)
            found[seed] = (facts.sha256, problems)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found[seed] = (None, [f"outputs unreadable: {exc!r}"])
    return found


def pin_hashes(attestsim, workload: str) -> list:
    """sha256 of each trace of the shrunk workload at PIN_SEED."""
    raw, seeds = WORKLOADS[workload](PIN_SEED, shrink=True)
    config = attestsim.validate_config(raw)
    hashes = []
    for seed in seeds:
        seed_dir = OUT / workload / "pin" / f"seed-{seed}"
        attestsim.write_outputs(attestsim.run(config, seed=seed), seed_dir)
        hashes.append(_sha256(seed_dir / "trace.jsonl"))
    return hashes


def tally(passes, found, seeds) -> tuple:
    """(attempted, failed, problems). A call fails when it raises, when
    verify_trace says FAILED, or when its trace fails a check or differs
    from the other passes' trace of the same seed. Only the last three are
    problems: they make the run incorrect."""
    attempted = failed = 0
    problems = set()
    for record in passes:
        for seed in seeds:
            attempted += CALLS_PER_SEED
            sha, seed_problems = found[seed]
            if seed in record["errors"]:
                op, text = record["errors"][seed]
                failed += DOWNSTREAM[op]
                if text.startswith("FAILED"):
                    problems.add(f"seed {seed}: verify_trace {text}")
            elif seed_problems or record["sha"][seed] != sha:
                failed += 1
                problems.update(f"seed {seed}: {p}" for p in seed_problems)
                if record["sha"][seed] != sha:
                    problems.add(f"seed {seed}: trace differs between passes")
    return attempted, failed, sorted(problems)


# ---------------------------------------------------------------------- #
# metrics


def _family(phase: str) -> list:
    """(name, unit, kind, layer) for the layers a run and a replay share."""
    spec = [
        (f"{phase}.ledger.advance_s", "s", "self", "ledger.advance"),
        (f"{phase}.ledger.messages", "count", "count", "ledger.messages"),
        (f"{phase}.ledger.rejected", "count", "count", "ledger.rejected"),
        (f"{phase}.ledger.events", "count", "count", "ledger.events"),
    ]
    for op in CONTRACT_OPS:
        # open_feedback never runs in two of the workloads, so its time
        # would read 0 on every run there; its calls are still counted.
        if op != "open_feedback":
            spec.append((f"{phase}.contract.{op}_s", "s", "self", f"contract.{op}"))
        spec.append((f"{phase}.contract.{op}_calls", "count", "calls", f"contract.{op}"))
        if phase == "run":
            spec.append((f"{phase}.contract.{op}_rejected", "count", "count",
                         f"contract.{op}_rejected"))
    spec += [
        (f"{phase}.trust.compute_weight_s", "s", "self", "trust.compute_weight"),
        (f"{phase}.trust.compute_weight_calls", "count", "calls", "trust.compute_weight"),
        (f"{phase}.trust.compute_final_score_s", "s", "self", "trust.compute_final_score"),
        (f"{phase}.trust.settle_evaluation_s", "s", "self", "trust.settle_evaluation"),
        (f"{phase}.trust.agreement_sign_calls", "count", "count", "trust.agreement_sign_calls"),
        (f"{phase}.trust.compute_reputation_s", "s", "self", "trust.compute_reputation"),
        (f"{phase}.trust.compute_reputation_calls", "count", "calls", "trust.compute_reputation"),
        (f"{phase}.trust.reputation_records", "count", "count", "trust.reputation_records"),
        (f"{phase}.trust.schedule_s", "s", "self", "trust.schedule"),
        (f"{phase}.trust.schedule_calls", "count", "calls", "trust.schedule"),
        ("run.verify.mirror_s" if phase == "run" else "verify.mirror_s", "s", "self",
         "verify.mirror"),
        (f"{phase}.oracle.weight_exact_s", "s", "self", "oracle.weight_exact"),
        (f"{phase}.oracle.weight_exact_calls", "count", "calls", "oracle.weight_exact"),
        (f"{phase}.oracle.agreement_sign_exact_s", "s", "self", "oracle.agreement_sign_exact"),
        (f"{phase}.oracle.agreement_sign_exact_calls", "count", "calls",
         "oracle.agreement_sign_exact"),
        (f"{phase}.oracle.settle_exact_s", "s", "self", "oracle.settle_exact"),
        (f"{phase}.crypto.commitment_digest_s", "s", "self", "crypto.commitment_digest"),
        (f"{phase}.crypto.commitment_digest_calls", "count", "calls", "crypto.commitment_digest"),
        (f"{phase}.crypto.signature_s", "s", "self", "crypto.signature"),
        (f"{phase}.crypto.signature_calls", "count", "calls", "crypto.signature"),
        (f"{phase}.crypto.signature_cache_hits", "count", "count", "crypto.signature_cache_hits"),
    ]
    return [(name, unit, kind, phase, layer) for name, unit, kind, layer in spec]


def layer_spec() -> list:
    """Every per-layer metric: (name, unit, kind, phase, layer). Kinds
    `self`, `calls` and `count` come from the tracer; the others are
    filled in by `layer_metrics`."""
    return (
        [
            ("setup.import_s", "s", "setup", None, 0),
            ("setup.scenario.load_config_s", "s", "setup", None, 1),
            ("run.scenario.self_s", "s", "self", "run", "scenario.self"),
            ("run.agents.round_s", "s", "self", "run", "agents.round"),
            ("run.agents.rounds", "count", "calls", "run", "agents.round"),
        ]
        + _family("run")
        + [
            ("run.peak_mib", "MiB", "reference", None, "run_peak_mib"),
            ("write.scenario.trace_lines_s", "s", "self", "write", "scenario.trace_lines"),
            ("write.scenario.files_s", "s", "self", "write", "scenario.files"),
            ("write.trace_mib", "MiB", "trace_mib", None, None),
            ("write.peak_mib", "MiB", "reference", None, "write_peak_mib"),
            ("verify.parse_s", "s", "self", "verify", "parse"),
            ("verify.compare_s", "s", "self", "verify", "compare"),
            ("verify.peak_mib", "MiB", "reference", None, "verify_peak_mib"),
        ]
        + _family("verify")
        + [("trace.overhead_pct", "%", "overhead", None, None)]
    )


def op_seconds(passes, op: str) -> float:
    """A call's time for the workload, summed over its seeds.

    Every seed of a workload does the same amount of work, so the calls of
    all seeds and passes are pooled: the seed count times their median."""
    calls = [ns for record in passes for seed_calls in record["samples"][op].values()
             for ns in seed_calls]
    return len(passes[0]["samples"][op]) * statistics.median(calls) / 1e9 if calls else 0.0


def layer_metrics(passes, setup, reference, trace_mib) -> dict:
    """Per-layer values: times are medians over the traced passes, counts
    come from the first pass (every pass does the same work)."""
    columns = {"self": 0, "calls": 1, "count": 2}
    metrics = {}
    for name, unit, kind, phase, layer in layer_spec():
        if kind in columns:
            values = [record["spans"][columns[kind]].get((phase, layer), 0) for record in passes]
            value = statistics.median(values) / 1e9 if kind == "self" else values[0]
            if phase == "write":
                value /= WRITES  # per write_outputs() call
        elif kind == "setup":
            value = statistics.median(sample[layer] for sample in setup)
        elif kind == "reference":
            value = reference[layer]
        elif kind == "trace_mib":
            value = trace_mib
        else:
            untraced = reference["run_s"] + reference["write_s"] + reference["verify_s"]
            traced = sum(op_seconds(passes, op) for op in OPS)
            value = (traced / untraced - 1) * 100
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def end_to_end_metrics(passes, setup, peak_mib) -> dict:
    return {
        "setup_s": {"value": statistics.median(a + b for a, b in setup), "unit": "s"},
        "run_s": {"value": op_seconds(passes, "run"), "unit": "s"},
        "write_s": {"value": op_seconds(passes, "write"), "unit": "s"},
        "verify_s": {"value": op_seconds(passes, "verify"), "unit": "s"},
        "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
    }


def run_reference(scenario: Path, out: Path, seeds) -> dict:
    """One untraced pass, split over two fresh processes (reference.py)."""
    reference = {}
    for mode in ("run", "verify"):
        line = _child([str(BENCH / "reference.py"), mode, str(SRC), str(scenario), str(out),
                       *map(str, seeds)])
        reference.update(json.loads(line))
    return reference


# ---------------------------------------------------------------------- #


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    raw, seeds = WORKLOADS[args.workload](args.seed)
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps(raw, indent=1) + "\n")

    # Setup first: its discarded first child compiles the package's bytecode,
    # which would otherwise land in this process's peak memory.
    setup = measure_setup(scenario)
    attestsim = import_attestsim()
    config = attestsim.load_config(scenario)
    tracer = reference = None
    if args.trace:
        reference = run_reference(scenario, out, seeds)
        tracer = Tracer()
        tracer.install()
    try:
        passes = measure(attestsim, config, seeds, out, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_mib = _maxrss_mib()

    found = check_outputs(args.workload, raw, seeds, out)
    attempted, failed, problems = tally(passes, found, seeds)
    if reference is not None:
        attempted += 3 * len(seeds)  # one call of each kind per seed
        if not reference["ok"]:
            failed += len(seeds)
            problems.append("verify_trace failed in the untraced reference pass")
    pins = json.loads(PINS.read_text())
    if pin_hashes(attestsim, args.workload) != pins.get(args.workload):
        problems.append("shrunk trace hashes differ from pins.json")
    for line in problems:
        print(f"bench: {line}", file=sys.stderr)

    if args.trace:
        trace_mib = sum((out / f"seed-{s}" / "trace.jsonl").stat().st_size for s in seeds) / 2**20
        metrics = layer_metrics(passes, setup, reference, trace_mib)
    else:
        metrics = end_to_end_metrics(passes, setup, peak_mib)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
