"""Command-line front end.

    attest run --scenario cfg.json [--seed N] [--out DIR] [--payment-variant V]
    attest verify-trace trace.jsonl
    attest sweep --scenario cfg.json --seeds N --out DIR

Exit codes: 0 on success, 1 on configuration problems or an `--out` that
cannot be written, 2 when a trace fails verification. A reader that closes
stdout early (`attest ... | head`) only cuts the printed output short: every
output is still written and the exit code stays the same.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .money import format_micro
from .scenario import ScenarioValidationError, load_config, run, write_outputs
from .trust import PAYMENT_VARIANTS
from .verify import verify_trace


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario config (JSON)")
    parser.add_argument("--out", help="directory for trace/CSV/summary outputs")
    parser.add_argument(
        "--payment-variant",
        choices=sorted(PAYMENT_VARIANTS),
        help="override the configured payment variant",
    )


def _print(*args, **kwargs) -> None:
    """print() to stdout; once its reader has gone, stdout becomes the null
    device and the command carries on."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_report(report) -> None:
    _print(f"seed {report.seed}: {len(report.design_rows)} design round(s)")
    for row in report.design_rows:
        parts = [f"  design {row['design']:>3} truth={'+1' if row['truth'] else '-1'}",
                 f"eval={row['final_score_eval']:.6f} ({row['result_eval']:+d})"]
        if row["final_score_feedback"] is not None:
            parts.append(
                f"feedback={row['final_score_feedback']:.6f} ({row['result_feedback']:+d})"
            )
        parts.append(f"phase={row['final_phase']}")
        _print("  ".join(parts))
    for row in report.player_rows:
        reputation = (
            f"{row['final_reputation']:.6f}" if row["final_reputation"] is not None else "—"
        )
        _print(
            f"  {row['player']:<12} strategy={row['strategy']:<16} "
            f"utility={format_micro(row['utility_micro'])} reputation={reputation}"
        )
    _print("  conservation: exact")  # `run` raises on a broken sum


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="attest",
        description="commit-reveal design voting: simulate, sweep, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    _add_run_args(run_p)
    run_p.add_argument("--seed", type=int, help="override the configured seed")

    verify_p = sub.add_parser("verify-trace", help="check a trace file")
    verify_p.add_argument("trace", help="trace.jsonl produced by a run")

    sweep_p = sub.add_parser("sweep", help="run the same scenario over many seeds")
    _add_run_args(sweep_p)
    sweep_p.add_argument("--seeds", type=int, required=True, help="number of seeds")

    code = _execute(parser.parse_args(argv))
    _print(end="", flush=True)  # buffered output meets a closed pipe here
    return code


def _execute(args) -> int:
    if args.command == "verify-trace":
        outcome = verify_trace(args.trace)
        if outcome.ok:
            _print(f"{args.trace}: OK")
            return 0
        where = f" (line {outcome.line})" if outcome.line is not None else ""
        _print(f"{args.trace}: FAILED{where}: {outcome.error} [layer: {outcome.layer}]")
        return 2

    try:
        config = load_config(args.scenario)
    except (OSError, ScenarioValidationError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    if args.payment_variant is not None:
        config = config._replace(payment_variant=args.payment_variant)

    try:
        if args.command == "run":
            report = run(config, seed=args.seed)
            _print_report(report)
            if args.out:
                paths = write_outputs(report, Path(args.out))
                for name in sorted(paths):
                    _print(f"  wrote {paths[name]}")
            return 0

        if args.command == "sweep":
            if args.seeds < 1:
                print("invalid scenario: --seeds must be at least 1", file=sys.stderr)
                return 1
            out_root = Path(args.out) if args.out else None
            for i in range(args.seeds):
                seed = (config.seed + i) % 2**64
                report = run(config, seed=seed)
                _print_report(report)
                if out_root is not None:
                    paths = write_outputs(report, out_root / f"seed-{seed}")
                    _print(f"  wrote {len(paths)} files under {out_root / f'seed-{seed}'}")
                del report  # the next run must not start while this one is held
            return 0
    except ValueError as exc:  # from run(): a bad seed or an unfundable vendor
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # from write_outputs: an --out that cannot be written
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
