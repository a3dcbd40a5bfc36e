"""Do the semantic tests kill each one-line mutant of the settlement rules?

Run from anywhere: `python tests/mutation_probe.py`. pytest does not
collect this file.

The probe copies `src`, `tests`, `bench`, `scenarios`, `pyproject.toml` and
`BENCHMARK.json` to a temporary directory. There it first runs the suite unmutated, which
must pass, and then, one at a time, applies each mutant in `MUTANTS`, a
`(file, old, new)` replacement that changes one line, and runs
`pytest -x` again. It prints `killed` with the first failing test, or
`survived`, per mutant, and exits 1 if any mutant survived.

Left out of each run: the byte pins (`test_golden.py`,
`test_verify_pins.py`, `test_validation_pins.py` and the `bench/pins.json`
comparison), which would catch any change in a logged byte and so say
nothing about the semantic tests, and criterion 6's `simplified` variant,
which fails by design. Hypothesis runs with a root `conftest.py` that
turns its shrink phase and example database off and derandomizes
generation, so a killed property fails fast and every run draws the same
examples. A mutant that outlives `TIME_LIMIT` counts as killed.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIME_LIMIT = 300  # seconds per pytest run
TREES = ("src", "tests", "bench", "scenarios", "pyproject.toml", "BENCHMARK.json")
TRUST, CONTRACT, ORACLE = (f"src/attestsim/{m}.py" for m in ("trust", "contract", "oracle"))

# name -> (file, old, new); `old` occurs exactly once in `file`.
MUTANTS = {
    "valid_band_at_q": (TRUST, "if final_score > quality_threshold:",
                        "if final_score >= quality_threshold:"),
    "invalid_band_at_1_minus_q": (TRUST, "if final_score < 1 - quality_threshold:",
                                  "if final_score <= 1 - quality_threshold:"),
    "neutral_paid_reward": (TRUST, "-1: schedule.penalty_micro, 0: 0}",
                            "-1: schedule.penalty_micro, 0: schedule.reward_micro}"),
    "M3_newcomer_basis_1": (TRUST, 'basis[player] = row["count"] or WEIGHT_EPSILON',
                            'basis[player] = row["count"] or 1'),
    "M8_silence_paid_0": (TRUST, "if votes[player] else -1]", "if votes[player] else 0]"),
    "lone_receiver_paid": (TRUST, "if own == 0 or rest == 0:\n        return 0\n",
                           "if own == 0 or rest == 0:\n        return 0 if own == 0 else 1\n"),
    "M4_annulled_moves_reputation": (CONTRACT,
                                     'if row["received"] and result != trust.RESULT_ANNULLED:',
                                     'if row["received"]:'),
    "vendor_refund_short_1": (CONTRACT, "vendor_refund = record.balance - sum(payouts.values())",
                              "vendor_refund = record.balance - sum(payouts.values()) - 1"),
    "feedback_round_pays": (CONTRACT, "payouts = dict.fromkeys(payouts, 0)",
                            "payouts = dict(payouts)"),
    "reputation_ignores_result": (CONTRACT,
                                  'state.agreement_sum += (row["vote"] or 0) * result * final_score',
                                  'state.agreement_sum += (row["vote"] or 0) * final_score'),
    "oracle_valid_band_at_q": (ORACLE, "if score_num * threshold_den > threshold_num * score_den:",
                               "if score_num * threshold_den >= threshold_num * score_den:"),
    "oracle_silence_paid_0": (ORACLE,
                              "elif not votes[player]:\n            payouts[player] = penalty_micro\n",
                              "elif not votes[player]:\n            payouts[player] = 0\n"),
    "R3_tolerance_1e-6": (ORACLE, "SCORE_TOLERANCE = Fraction(1, 10**12)",
                          "SCORE_TOLERANCE = Fraction(1, 10**6)"),
}

PROFILE = """\
from hypothesis import Phase, settings

settings.register_profile("probe", phases=[Phase.explicit, Phase.generate], database=None,
                          derandomize=True)
settings.load_profile("probe")
"""

PYTEST = [
    "-m", "pytest", "tests", "bench", "-x", "-q", "-rf", "-p", "no:cacheprovider",
    "--ignore=tests/test_golden.py",
    "--ignore=tests/test_verify_pins.py",
    "--ignore=tests/test_validation_pins.py",
    "--deselect=bench/test_bench.py::test_shrunk_traces_match_the_pins",
    "--deselect=tests/test_acceptance.py::test_criterion_6_incentives_simplified_variant",
]


def run_tests(copy: Path) -> tuple:
    """(exit code or None past `TIME_LIMIT`, first failing test id or '', seconds, output)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *PYTEST], cwd=copy, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "", time.monotonic() - start, ""
    failed = next((line.split()[1] for line in out.splitlines() if line.startswith("FAILED ")), "")
    return proc.returncode, failed, time.monotonic() - start, out


def _left_behind(directory: str, names: list) -> set:
    """What a run leaves in the tree, which the copy does without."""
    skip = {"__pycache__", ".hypothesis", ".pytest_cache"}
    if Path(directory) == ROOT / "bench":
        skip.add("out")
    return skip & set(names)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp)
        for name in TREES:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=_left_behind)
            else:
                shutil.copy2(source, copy / name)
        (copy / "conftest.py").write_text(PROFILE)

        code, failed, seconds, out = run_tests(copy)
        if code != 0:
            print(out[-3000:])
            raise SystemExit(f"the unmutated suite does not pass ({failed or code}); nothing to probe")
        print(f"{'unmutated':30} passed    ({seconds:.0f} s)", flush=True)

        survivors = 0
        for name, (path, old, new) in MUTANTS.items():
            target = copy / path
            original = target.read_text()
            if original.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} does not occur exactly once in {path}")
            target.write_text(original.replace(old, new))
            try:
                code, failed, seconds, _ = run_tests(copy)
            finally:
                target.write_text(original)
            if code == 0:
                survivors += 1
                print(f"{name:30} survived  ({seconds:.0f} s)", flush=True)
            elif code is None:
                print(f"{name:30} killed    ({seconds:.0f} s, past the time limit)", flush=True)
            else:
                print(f"{name:30} killed    ({seconds:.0f} s) by {failed or f'exit {code}'}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
