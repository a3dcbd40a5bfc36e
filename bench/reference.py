"""One untraced pass of a workload in a fresh process, for the traced run.

    python3 bench/reference.py run    SRC SCENARIO OUT SEED...
    python3 bench/reference.py verify SRC SCENARIO OUT SEED...

`run` calls run() and write_outputs() for each seed; `verify` calls
verify_trace() on the traces a `run` child wrote. Each prints one JSON
line: the summed wall times and how far the first seed's call raised the
process's peak resident memory (ru_maxrss), in MiB. A phase gets a process
of its own because ru_maxrss cannot be reset: in one process, run's peak
would hide verify's.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv) -> int:
    mode, src, scenario, out = argv[:4]
    seeds = [int(s) for s in argv[4:]]
    sys.path.insert(0, src)
    import attestsim

    config = attestsim.load_config(scenario)
    gc.collect()
    result = {"ok": True}
    times = {"run": 0, "write": 0, "verify": 0}
    for i, seed in enumerate(seeds):
        trace = Path(out) / f"seed-{seed}" / "trace.jsonl"
        before = _maxrss_mib()
        if mode == "run":
            start = time.perf_counter_ns()
            report = attestsim.run(config, seed=seed)
            times["run"] += time.perf_counter_ns() - start
            after_run = _maxrss_mib()
            start = time.perf_counter_ns()
            attestsim.write_outputs(report, trace.parent)
            times["write"] += time.perf_counter_ns() - start
            if i == 0:
                result["run_peak_mib"] = after_run - before
                result["write_peak_mib"] = _maxrss_mib() - after_run
            del report
        else:
            start = time.perf_counter_ns()
            outcome = attestsim.verify_trace(trace)
            times["verify"] += time.perf_counter_ns() - start
            result["ok"] = result["ok"] and outcome.ok
            if i == 0:
                result["verify_peak_mib"] = _maxrss_mib() - before
        gc.collect()
    phases = ("run", "write") if mode == "run" else ("verify",)
    result.update({f"{phase}_s": times[phase] / 1e9 for phase in phases})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
