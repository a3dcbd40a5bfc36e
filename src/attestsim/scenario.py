"""Scenario configuration, end-to-end runs, and report files.

A scenario is one JSON file with flat sections:

    {
      "schema_version": 1,
      "seed": 42,
      "constants": {
        "quality_threshold": "0.75",   # in (0.5, 1]; decimal string or number
        "effort_cost": "1",            # currency units
        "epsilon": "0.001",            # added on top of the negated reward
        "commit_window": 5,            # ticks; >= 3 (the round choreography
        "reveal_window": 5,            #   needs registration/receipt/commit slots)
        "payment_variant": "simplified",  # or "derivation"
        "feedback_size": 5             # buyers sampled per passing design
      },
      "designs": [{"valid": true, "collateral": "15"}, ...],
      "rounds": 10,                    # optional; defaults to len(designs),
                                       #   cycles through the list if larger
      "players": [{"id": "p01",
                   "strategy": {"kind": "truthful_effort", "quality": 0.9},
                   "deposit": "1", "funds": "1000",
                   "phase": "evaluation"}, ...],
      "vendor_funds": "150"            # optional; default: sum of collaterals
    }

Monetary values and the quality threshold are parsed exactly (decimal
strings; JSON numbers are read with parse_float=str), so runs are
bit-reproducible from the file. Evaluation and feedback rosters are
disjoint by construction: each player belongs to exactly one phase.

Validation collects every violation before failing. Runs are strictly
sequential per design, all randomness flows from the single seed, and
every settlement event is re-checked against the exact-rational oracle
before the run is reported.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import verify as verify_mod
from .agents import Agent, IdentityProvider, Manager, run_party_round, strategy_from_config, utility_micro
from .contract import (
    ContractConstants,
    DesignVotingContract,
    PHASE_ON_SALE,
    ROUND_EVALUATION,
    ROUND_FEEDBACK,
)
from .ledger import SimLedger
from .money import MoneyError, format_micro, to_micro
from .trust import PaymentSchedule, RESULT_ANNULLED

SCHEMA_VERSION = 1
RESERVED_ACCOUNTS = ("vendor", "manager", "contract")
MAX_SEED = 2**64 - 1


class ScenarioValidationError(ValueError):
    """Carries every violation found in a scenario file."""

    def __init__(self, violations: list):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class DesignSpec:
    valid: bool
    collateral_micro: int


@dataclass(frozen=True)
class PlayerSpec:
    account: str
    strategy: object
    strategy_config: dict
    deposit_micro: int
    funds_micro: int
    phase: str


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    quality_threshold: Fraction
    effort_cost_micro: int
    epsilon_micro: int
    commit_window: int
    reveal_window: int
    payment_variant: str
    feedback_size: int
    designs: tuple
    rounds: int
    players: tuple
    vendor_funds_micro: int


def _money_field(raw, label: str, errors: list, positive: bool = True) -> int:
    try:
        value = to_micro(raw)
    except MoneyError as exc:
        errors.append(f"{label}: {exc}")
        return 0
    if positive and value <= 0:
        errors.append(f"{label}: must be positive")
    elif not positive and value < 0:
        errors.append(f"{label}: must not be negative")
    return value


def _int_field(raw, label: str, errors: list, minimum: int) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        errors.append(f"{label}: must be an integer")
        return minimum
    if raw < minimum:
        errors.append(f"{label}: must be >= {minimum}")
    return raw


def _is_seed(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_SEED


def validate_config(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed JSON, or raise with every violation."""
    errors: list = []
    if not isinstance(raw, dict):
        raise ScenarioValidationError(["top level: expected an object"])

    known_top = {"schema_version", "seed", "constants", "designs", "rounds", "players", "vendor_funds"}
    for key in sorted(set(raw) - known_top):
        errors.append(f"unknown key {key!r}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}")

    seed = raw.get("seed", 0)
    if not _is_seed(seed):
        errors.append("seed: must be an unsigned 64-bit integer")
        seed = 0

    constants = raw.get("constants")
    if not isinstance(constants, dict):
        errors.append("constants: section missing")
        constants = {}
    known_constants = {
        "quality_threshold",
        "effort_cost",
        "epsilon",
        "commit_window",
        "reveal_window",
        "payment_variant",
        "feedback_size",
    }
    for key in sorted(set(constants) - known_constants):
        errors.append(f"constants: unknown key {key!r}")

    try:
        quality_threshold = Fraction(str(constants.get("quality_threshold", "0.75")))
    except (ValueError, ZeroDivisionError):
        errors.append("constants.quality_threshold: not a number")
        quality_threshold = Fraction(3, 4)
    if not Fraction(1, 2) < quality_threshold <= 1:
        errors.append("constants.quality_threshold: must lie in (0.5, 1]")
        quality_threshold = Fraction(3, 4)

    effort_cost = _money_field(constants.get("effort_cost", "1"), "constants.effort_cost", errors)
    epsilon = _money_field(constants.get("epsilon", "0.001"), "constants.epsilon", errors)
    commit_window = _int_field(constants.get("commit_window", 5), "constants.commit_window", errors, 3)
    reveal_window = _int_field(constants.get("reveal_window", 5), "constants.reveal_window", errors, 1)
    feedback_size = _int_field(constants.get("feedback_size", 5), "constants.feedback_size", errors, 0)
    payment_variant = constants.get("payment_variant", "simplified")
    if payment_variant not in ("simplified", "derivation"):
        errors.append("constants.payment_variant: must be 'simplified' or 'derivation'")
        payment_variant = "simplified"

    designs: list = []
    raw_designs = raw.get("designs")
    if not isinstance(raw_designs, list) or not raw_designs:
        errors.append("designs: need a non-empty list")
        raw_designs = []
    for i, entry in enumerate(raw_designs):
        label = f"designs[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{label}: expected an object")
            continue
        for key in sorted(set(entry) - {"valid", "collateral"}):
            errors.append(f"{label}: unknown key {key!r}")
        valid = entry.get("valid")
        if not isinstance(valid, bool):
            errors.append(f"{label}.valid: must be true or false")
            valid = True
        collateral = _money_field(entry.get("collateral", "10"), f"{label}.collateral", errors)
        designs.append(DesignSpec(valid=valid, collateral_micro=collateral))

    rounds = raw.get("rounds", len(designs) or 1)
    rounds = _int_field(rounds, "rounds", errors, 1)

    players: list = []
    seen_ids: set = set()
    raw_players = raw.get("players")
    if not isinstance(raw_players, list) or not raw_players:
        errors.append("players: need a non-empty list")
        raw_players = []
    for i, entry in enumerate(raw_players):
        label = f"players[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{label}: expected an object")
            continue
        for key in sorted(set(entry) - {"id", "strategy", "deposit", "funds", "phase"}):
            errors.append(f"{label}: unknown key {key!r}")
        account = entry.get("id")
        if not isinstance(account, str) or not account:
            errors.append(f"{label}.id: must be a non-empty string")
            account = f"_invalid_{i}"
        if account in RESERVED_ACCOUNTS:
            errors.append(f"{label}.id: {account!r} is reserved")
        if account in seen_ids:
            errors.append(f"{label}.id: duplicate id {account!r}")
        seen_ids.add(account)
        strategy_config = entry.get("strategy")
        strategy = None
        if not isinstance(strategy_config, dict):
            errors.append(f"{label}.strategy: expected an object")
            strategy_config = {}
        else:
            try:
                strategy = strategy_from_config(strategy_config)
            except (ValueError, TypeError) as exc:
                errors.append(f"{label}.strategy: {exc}")
        deposit = _money_field(entry.get("deposit", "1"), f"{label}.deposit", errors)
        funds = _money_field(entry.get("funds", "1000"), f"{label}.funds", errors, positive=False)
        phase = entry.get("phase", "evaluation")
        if phase not in (ROUND_EVALUATION, ROUND_FEEDBACK):
            errors.append(f"{label}.phase: must be 'evaluation' or 'feedback'")
            phase = ROUND_EVALUATION
        players.append(
            PlayerSpec(
                account=account,
                strategy=strategy,
                strategy_config=dict(strategy_config),
                deposit_micro=deposit,
                funds_micro=funds,
                phase=phase,
            )
        )

    if sum(1 for p in players if p.phase == ROUND_EVALUATION) < 2:
        errors.append("players: need at least 2 evaluation-phase players")

    round_collaterals = [
        designs[i % len(designs)].collateral_micro for i in range(rounds)
    ] if designs else []
    default_vendor_funds = sum(round_collaterals)
    vendor_funds = raw.get("vendor_funds")
    if vendor_funds is None:
        vendor_funds_micro = default_vendor_funds
    else:
        vendor_funds_micro = _money_field(vendor_funds, "vendor_funds", errors, positive=False)

    if errors:
        raise ScenarioValidationError(errors)
    return ScenarioConfig(
        seed=seed,
        quality_threshold=quality_threshold,
        effort_cost_micro=effort_cost,
        epsilon_micro=epsilon,
        commit_window=commit_window,
        reveal_window=reveal_window,
        payment_variant=payment_variant,
        feedback_size=feedback_size,
        designs=tuple(designs),
        rounds=rounds,
        players=tuple(players),
        vendor_funds_micro=vendor_funds_micro,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    text = Path(path).read_text()
    raw = json.loads(text, parse_float=str)
    return validate_config(raw)


def _with_overrides(config: ScenarioConfig, seed=None, payment_variant=None) -> ScenarioConfig:
    if seed is not None:
        if not _is_seed(seed):
            raise ValueError(f"seed: must be an unsigned 64-bit integer, got {seed!r}")
        config = dataclasses.replace(config, seed=seed)
    if payment_variant is not None:
        config = dataclasses.replace(config, payment_variant=payment_variant)
    return config


@dataclass
class RunReport:
    seed: int
    header: dict
    design_rows: list
    player_rows: list
    payout_rows: list
    reputation_rows: list
    events: list
    genesis_total: int
    final_balances: dict

    @property
    def conservation_ok(self) -> bool:
        return sum(self.final_balances.values()) == self.genesis_total

    def trace_lines(self) -> list:
        header_line = json.dumps(
            {"kind": "genesis", **self.header}, sort_keys=True, separators=(",", ":")
        )
        return [header_line] + [event.to_json_line() for event in self.events]


def _build_schedule(config: ScenarioConfig) -> PaymentSchedule:
    return PaymentSchedule.build(
        Fraction(config.effort_cost_micro, 10**6),
        config.quality_threshold,
        Fraction(config.epsilon_micro, 10**6),
        config.payment_variant,
    )


def run(config: ScenarioConfig, seed: int | None = None, payment_variant: str | None = None) -> RunReport:
    """Execute the scenario and return the full report.

    Every design runs to settlement before the next is announced. Designs
    that pass evaluation get a feedback round with a sampled buyer roster;
    if the scenario has no feedback players the design simply stays on sale.
    Raises `ValueError` on a bad override or when the vendor cannot fund a
    design's collateral.
    """
    config = _with_overrides(config, seed, payment_variant)
    rng = random.Random(config.seed)
    schedule = _build_schedule(config)
    identity = IdentityProvider(
        hashlib.sha256(b"attestsim-identity-" + config.seed.to_bytes(8, "big")).digest()
    )

    genesis = {"contract": 0, "manager": 0, "vendor": config.vendor_funds_micro}
    for spec in config.players:
        genesis[spec.account] = spec.funds_micro
    ledger = SimLedger(genesis)
    constants = ContractConstants(
        schedule=schedule,
        commit_window=config.commit_window,
        reveal_window=config.reveal_window,
        manager="manager",
        ip_public_key=identity.public_key,
    )
    contract = DesignVotingContract(constants, ledger)
    manager = Manager("manager", ledger)

    header = {
        "schema": SCHEMA_VERSION,
        "seed": config.seed,
        "quality_threshold": str(config.quality_threshold),
        "effort_cost_micro": config.effort_cost_micro,
        "epsilon_micro": config.epsilon_micro,
        "payment_variant": config.payment_variant,
        "reward_micro": schedule.reward_micro,
        "penalty_micro": schedule.penalty_micro,
        "commit_window": config.commit_window,
        "reveal_window": config.reveal_window,
        "manager": "manager",
        "escrow": "contract",
        "vendor": "vendor",
        "ip_public_key": identity.public_key.hex(),
        "reputation_epsilon": constants.reputation_epsilon,
        "weight_epsilon": constants.weight_epsilon,
        "genesis_balances": dict(sorted(genesis.items())),
    }
    mirror = verify_mod.RationalMirror.from_header(header)

    agents = {spec.account: Agent(spec.account, spec.strategy) for spec in config.players}
    eval_specs = [s for s in config.players if s.phase == ROUND_EVALUATION]
    buyer_specs = sorted(
        (s for s in config.players if s.phase == ROUND_FEEDBACK), key=lambda s: s.account
    )
    deposits = {spec.account: spec.deposit_micro for spec in config.players}

    design_rows: list = []
    payout_rows: list = []
    reputation_rows: list = []

    def consume_results(receipts, design_no: int):
        """Pull the settlement out of a round's receipts, check it against
        the exact-rational mirror, and fold payouts into agent tallies."""
        outcome = None
        for receipt in receipts:
            if receipt.message.op != "calculate_result" or not receipt.accepted:
                continue
            outcome = receipt.result
            payload = next(
                e.payload
                for e in reversed(ledger.events)
                if e.kind == "ResultCalculated" and e.design == design_no
                and e.payload["round"] == outcome.round
            )
            mirror.check_result(design_no, payload)
            for row in payload["players"]:
                agents[row["player"]].payouts.append(row["payout"])
                payout_rows.append(
                    {
                        "design": design_no,
                        "round": payload["round"],
                        "player": row["player"],
                        "payout_micro": row["payout"],
                        "reason": _payout_reason(row, payload["result"], schedule),
                    }
                )
                reputation_rows.append(
                    {
                        "design": design_no,
                        "round": payload["round"],
                        "player": row["player"],
                        "before": row["reputation"],
                        "after": row["reputation_after"],
                    }
                )
        return outcome

    for design_no in range(config.rounds):
        spec = config.designs[design_no % len(config.designs)]
        design_bytes = rng.randbytes(64)
        design_hash = hashlib.sha256(design_bytes).digest()

        announce_at = ledger.clock + 1
        ledger.submit(
            "vendor",
            "announce",
            {"design_hash": design_hash, "collateral": spec.collateral_micro},
            announce_at,
        )
        announce_receipts = [r for r in ledger.advance(announce_at) if r.message.op == "announce"]
        if not announce_receipts[-1].accepted:
            # Fines and rewards move vendor funds, so only a run can tell.
            raise ValueError(
                f"vendor could not announce design {design_no}: {announce_receipts[-1].error}"
            )
        mirror.observe_new_design(design_no, spec.collateral_micro)

        eval_agents = [agents[s.account] for s in eval_specs]
        receipts = run_party_round(
            ledger,
            design_no,
            ROUND_EVALUATION,
            eval_agents,
            deposits,
            design_bytes,
            design_hash,
            spec.valid,
            manager,
            identity,
            "vendor",
            config.commit_window,
            config.reveal_window,
            announce_at,
            rng,
        )
        eval_out = consume_results(receipts, design_no)
        feedback_out = None

        record = contract.designs[design_no]
        if record.phase == PHASE_ON_SALE and buyer_specs and config.feedback_size > 0:
            count = min(config.feedback_size, len(buyer_specs))
            chosen = rng.sample(buyer_specs, count)
            chosen = sorted(chosen, key=lambda s: s.account)
            open_at = ledger.clock + 1
            ledger.submit("manager", "open_feedback", {"design": design_no}, open_at)
            ledger.advance(open_at)
            receipts = run_party_round(
                ledger,
                design_no,
                ROUND_FEEDBACK,
                [agents[s.account] for s in chosen],
                deposits,
                design_bytes,
                design_hash,
                spec.valid,
                manager,
                identity,
                "manager",
                config.commit_window,
                config.reveal_window,
                open_at,
                rng,
            )
            feedback_out = consume_results(receipts, design_no)

        design_rows.append(
            {
                "design": design_no,
                "truth": spec.valid,
                "final_score_eval": eval_out.final_score if eval_out else None,
                "result_eval": eval_out.result if eval_out else None,
                "final_score_feedback": feedback_out.final_score if feedback_out else None,
                "result_feedback": feedback_out.result if feedback_out else None,
                "final_phase": contract.designs[design_no].phase,
            }
        )

    genesis_total = sum(genesis.values())
    if ledger.total_balance() != genesis_total:
        raise RuntimeError(
            f"conservation broken: genesis {genesis_total}, final {ledger.total_balance()}"
        )

    player_rows = []
    for spec in config.players:
        agent = agents[spec.account]
        player_rows.append(
            {
                "player": spec.account,
                "strategy": spec.strategy_config.get("kind", "?"),
                "phase": spec.phase,
                "total_payout_micro": sum(agent.payouts),
                "effort_count": agent.effort_count,
                "utility_micro": utility_micro(agent, config.effort_cost_micro),
                "final_reputation": contract.players[spec.account].reputation
                if spec.account in contract.players
                else None,
                "final_balance_micro": ledger.accounts[spec.account],
            }
        )

    return RunReport(
        seed=config.seed,
        header=header,
        design_rows=design_rows,
        player_rows=player_rows,
        payout_rows=payout_rows,
        reputation_rows=reputation_rows,
        events=list(ledger.events),
        genesis_total=genesis_total,
        final_balances=dict(ledger.accounts),
    )


def _payout_reason(row: dict, result: int, schedule: PaymentSchedule) -> str:
    if result == RESULT_ANNULLED:
        return "annulled"
    if not row["received"]:
        return "not_received"
    if row["vote"] is None:
        return "no_reveal"
    if row["vote"] == 0:
        return "zero_vote"
    if row["payout"] == schedule.reward_micro:
        return "agree"
    if row["payout"] == schedule.penalty_micro:
        return "disagree"
    return "neutral"


def write_outputs(report: RunReport, out_dir: str | Path) -> dict:
    """Write trace.jsonl, payouts.csv, reputation.csv, designs.csv and
    summary.json into `out_dir`; returns the path map."""
    import csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": out / "trace.jsonl",
        "payouts": out / "payouts.csv",
        "reputation": out / "reputation.csv",
        "designs": out / "designs.csv",
        "summary": out / "summary.json",
    }

    paths["trace"].write_text("\n".join(report.trace_lines()) + "\n")

    with paths["payouts"].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "round", "player", "amount", "reason"])
        for row in report.payout_rows:
            writer.writerow(
                [row["design"], row["round"], row["player"],
                 format_micro(row["payout_micro"]), row["reason"]]
            )

    with paths["reputation"].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "round", "player", "before", "after"])
        for row in report.reputation_rows:
            writer.writerow(
                [row["design"], row["round"], row["player"],
                 repr(row["before"]), repr(row["after"])]
            )

    with paths["designs"].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["design", "truth", "final_score_eval", "result_eval",
             "final_score_feedback", "result_feedback", "final_phase"]
        )
        for row in report.design_rows:
            writer.writerow(
                [row["design"], row["truth"],
                 "" if row["final_score_eval"] is None else repr(row["final_score_eval"]),
                 "" if row["result_eval"] is None else row["result_eval"],
                 "" if row["final_score_feedback"] is None else repr(row["final_score_feedback"]),
                 "" if row["result_feedback"] is None else row["result_feedback"],
                 row["final_phase"]]
            )

    summary = {
        "seed": report.seed,
        "conservation_ok": report.conservation_ok,
        "designs": report.design_rows,
        "players": report.player_rows,
    }
    paths["summary"].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {name: str(path) for name, path in paths.items()}
