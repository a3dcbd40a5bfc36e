"""Scenario configuration, end-to-end runs, and report files.

A scenario is one JSON file with flat sections:

    {
      "schema_version": 1,
      "seed": 42,
      "constants": {
        "quality_threshold": "0.75",   # in (0.5, 1]; decimal string or number
        "effort_cost": "1",            # currency units, at most 10**15
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
      "vendor_funds": "150"            # optional; default: every round's
                                       #   collateral, cycling through designs
    }

Monetary values and the quality threshold are parsed exactly (decimal
strings; JSON numbers are read with parse_float=str), so runs are
bit-reproducible from the file. Evaluation and feedback rosters are
disjoint by construction: each player belongs to exactly one phase.

Validation collects every violation before failing. Runs are strictly
sequential per design, all randomness flows from the single seed, and
every settlement event is re-checked against the exact-rational oracle
before the run is reported. payouts.csv and reputation.csv are written
from the report's ResultCalculated events; the run keeps no other copy.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .agents import Agent, IdentityProvider, run_party_round, strategy_from_config, utility_micro
from .contract import ESCROW, MANAGER, PHASE_ON_SALE, ROUND_EVALUATION, ROUND_FEEDBACK, VENDOR
from .contract import ContractConstants, deploy, genesis_header, is_seed
from .money import MICRO, MoneyError, format_micro, to_fraction, to_micro
from .oracle import RationalMirror
from .trust import PAYMENT_VARIANTS, RESULT_ANNULLED, PaymentSchedule

SCHEMA_VERSION = 1
RESERVED_ACCOUNTS = (VENDOR, MANAGER, ESCROW)


class ScenarioValidationError(ValueError):
    """Carries every violation found in a scenario file."""

    def __init__(self, violations: list):
        super().__init__("; ".join(violations))
        self.violations = violations


class DesignSpec(NamedTuple):
    valid: bool
    collateral_micro: int


class PlayerSpec(NamedTuple):
    account: str
    strategy: object
    kind: str
    deposit_micro: int
    funds_micro: int
    phase: str


class ScenarioConfig(NamedTuple):
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
    if type(raw) is not int:
        errors.append(f"{label}: must be an integer")
        return minimum
    if raw < minimum:
        errors.append(f"{label}: must be >= {minimum}")
    return raw


def _unknown_keys(obj: dict, known: set, prefix: str, errors: list) -> None:
    for key in sorted(set(obj) - known):
        errors.append(f"{prefix}unknown key {key!r}")


def _objects(raw: dict, name: str, known: set, errors: list):
    """Yield (label, entry) for each object in the non-empty list `raw[name]`,
    reporting a missing list, a non-object and an unknown key."""
    entries = raw.get(name)
    if not isinstance(entries, list) or not entries:
        errors.append(f"{name}: need a non-empty list")
        return
    for i, entry in enumerate(entries):
        label = f"{name}[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{label}: expected an object")
            continue
        _unknown_keys(entry, known, f"{label}: ", errors)
        yield label, entry


def validate_config(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed JSON, or raise with every violation."""
    errors: list = []
    if not isinstance(raw, dict):
        raise ScenarioValidationError(["top level: expected an object"])

    known = {"schema_version", "seed", "constants", "designs", "rounds", "players", "vendor_funds"}
    _unknown_keys(raw, known, "", errors)
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}")

    seed = raw.get("seed", 0)
    if not is_seed(seed):
        errors.append("seed: must be an unsigned 64-bit integer")

    constants = raw.get("constants")
    if not isinstance(constants, dict):
        errors.append("constants: section missing")
        constants = {}
    known = {"quality_threshold", "effort_cost", "epsilon", "commit_window", "reveal_window",
             "payment_variant", "feedback_size"}
    _unknown_keys(constants, known, "constants: ", errors)

    try:
        quality_threshold = to_fraction(str(constants.get("quality_threshold", "0.75")))
    except MoneyError:  # no threshold in (0.5, 1] needs an exponent beyond 10**4
        quality_threshold = Fraction(0)
    except (ValueError, ZeroDivisionError):
        errors.append("constants.quality_threshold: not a number")
        quality_threshold = Fraction(3, 4)
    if not Fraction(1, 2) < quality_threshold <= 1:
        errors.append("constants.quality_threshold: must lie in (0.5, 1]")

    effort_cost = _money_field(constants.get("effort_cost", "1"), "constants.effort_cost", errors)
    epsilon = _money_field(constants.get("epsilon", "0.001"), "constants.epsilon", errors)
    commit_window = _int_field(constants.get("commit_window", 5), "constants.commit_window", errors, 3)
    reveal_window = _int_field(constants.get("reveal_window", 5), "constants.reveal_window", errors, 1)
    feedback_size = _int_field(constants.get("feedback_size", 5), "constants.feedback_size", errors, 0)
    payment_variant = constants.get("payment_variant", "simplified")
    if payment_variant not in PAYMENT_VARIANTS:
        errors.append("constants.payment_variant: must be 'simplified' or 'derivation'")

    designs: list = []
    for label, entry in _objects(raw, "designs", {"valid", "collateral"}, errors):
        valid = entry.get("valid")
        if not isinstance(valid, bool):
            errors.append(f"{label}.valid: must be true or false")
        collateral = _money_field(entry.get("collateral", "10"), f"{label}.collateral", errors)
        designs.append(DesignSpec(valid=valid, collateral_micro=collateral))

    rounds = raw.get("rounds", len(designs) or 1)
    rounds = _int_field(rounds, "rounds", errors, 1)

    players: list = []
    seen_ids: set = set()
    known = {"id", "strategy", "deposit", "funds", "phase"}
    for label, entry in _objects(raw, "players", known, errors):
        account = entry.get("id")
        if not isinstance(account, str) or not account:
            errors.append(f"{label}.id: must be a non-empty string")
        else:
            if account.encode(errors="ignore").decode() != account:  # a lone surrogate
                errors.append(f"{label}.id: must be UTF-8 text")
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
            except (ValueError, TypeError, OverflowError) as exc:
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
                kind=strategy_config.get("kind"),
                deposit_micro=deposit,
                funds_micro=funds,
                phase=phase,
            )
        )

    if sum(1 for p in players if p.phase == ROUND_EVALUATION) < 2:
        errors.append("players: need at least 2 evaluation-phase players")

    vendor_funds = raw.get("vendor_funds")
    if vendor_funds is None:  # every round's collateral, cycling through the designs
        collaterals = [spec.collateral_micro for spec in designs]
        cycles, rest = divmod(rounds, len(designs) or 1)
        vendor_funds_micro = sum(collaterals) * cycles + sum(collaterals[:rest])
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
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=str)
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8 and int-digit errors
        raise ScenarioValidationError([f"not a UTF-8 JSON document: {exc}"]) from exc
    return validate_config(raw)


class RunReport:
    __slots__ = ("seed", "genesis", "design_rows", "player_rows", "events")

    def __init__(self, seed: int, genesis: str, design_rows: list, player_rows: list, events: list):
        self.seed = seed
        self.genesis = genesis  # line 1 of the trace, as `contract.genesis_header` wrote it
        self.design_rows = design_rows
        self.player_rows = player_rows
        self.events = events

    def trace_lines(self) -> list:
        lines = [event.to_json_line(seq) for seq, event in enumerate(self.events)]
        return [self.genesis, *lines]


def run(config: ScenarioConfig, seed: int | None = None) -> RunReport:
    """Execute the scenario and return the full report.

    Every design runs to settlement before the next is announced. Designs
    that pass evaluation get a feedback round with a sampled buyer roster;
    if the scenario has no feedback players the design simply stays on sale.
    Raises `ValueError` on a bad seed override or when the vendor cannot
    fund a design's collateral.
    """
    if seed is not None:
        if not is_seed(seed):
            raise ValueError(f"seed: must be an unsigned 64-bit integer, got {seed!r}")
        config = config._replace(seed=seed)
    rng = random.Random(config.seed)
    identity = IdentityProvider(
        hashlib.sha256(b"attestsim-identity-" + config.seed.to_bytes(8, "big")).digest()
    )

    balances = {ESCROW: 0, MANAGER: 0, VENDOR: config.vendor_funds_micro}
    for spec in config.players:
        balances[spec.account] = spec.funds_micro
    schedule = PaymentSchedule(
        Fraction(config.effort_cost_micro, MICRO), config.quality_threshold,
        Fraction(config.epsilon_micro, MICRO), config.payment_variant,
    )
    constants = ContractConstants(
        schedule, config.commit_window, config.reveal_window, identity.public_key
    )
    line = genesis_header(config.seed, constants, balances)
    header = json.loads(line)
    ledger, contract = deploy(header)
    mirror = RationalMirror(header)

    agents = {spec.account: Agent(spec.account, spec.strategy) for spec in config.players}
    buyer_specs = sorted(
        (s for s in config.players if s.phase == ROUND_FEEDBACK), key=lambda s: s.account
    )
    deposits = {spec.account: spec.deposit_micro for spec in config.players}
    eval_roster = [agents[s.account] for s in config.players if s.phase == ROUND_EVALUATION]

    def play_round(design: int, truth: bool, roster: list, initiator: str, start: int) -> dict:
        """Play one round and return its settlement payload, checked by the
        mirror, with each payout credited to its agent. `run_party_round` is
        looked up in this module at call time, so a wrapper set on the module
        sees every round."""
        payload = run_party_round(
            ledger, design, roster, deposits, truth, identity,
            initiator, config.commit_window, config.reveal_window, start, rng,
        )
        mirror.check_result(design, payload)
        for row in payload["players"]:
            agents[row["player"]].payout_micro += row["payout"]
        return payload

    design_rows: list = []
    feedback_on = bool(buyer_specs) and config.feedback_size > 0
    for design_no in range(config.rounds):
        spec = config.designs[design_no % len(config.designs)]
        design_hash = hashlib.sha256(rng.randbytes(64)).digest()

        announce_at = ledger.clock + 1
        ledger.submit(
            VENDOR, "announce", {"design_hash": design_hash, "collateral": spec.collateral_micro}
        )
        (announced,) = ledger.advance(announce_at)
        if not announced.accepted:
            # Fines and rewards move vendor funds, so only a run can tell.
            raise ValueError(f"vendor could not announce design {design_no}: {announced.error}")
        mirror.observe_new_design(design_no, spec.collateral_micro)

        evaluation = play_round(design_no, spec.valid, eval_roster, VENDOR, announce_at)
        feedback = None
        if feedback_on and contract.designs[design_no].phase == PHASE_ON_SALE:
            chosen = rng.sample(buyer_specs, min(config.feedback_size, len(buyer_specs)))
            buyers = [agents[s.account] for s in sorted(chosen, key=lambda s: s.account)]
            start = ledger.clock + 1
            ledger.submit(MANAGER, "open_feedback", {"design": design_no})
            ledger.advance(start)
            feedback = play_round(design_no, spec.valid, buyers, MANAGER, start)

        design_rows.append(
            {
                "design": design_no,
                "truth": spec.valid,
                "final_score_eval": evaluation["final_score"],
                "result_eval": evaluation["result"],
                "final_score_feedback": feedback["final_score"] if feedback else None,
                "result_feedback": feedback["result"] if feedback else None,
                "final_phase": contract.designs[design_no].phase,
            }
        )

    genesis_total = sum(balances.values())
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
                "strategy": spec.kind,
                "phase": spec.phase,
                "total_payout_micro": agent.payout_micro,
                "effort_count": agent.effort_count,
                "utility_micro": utility_micro(agent, config.effort_cost_micro),
                "final_reputation": contract.players[spec.account].reputation
                if spec.account in contract.players
                else None,
                "final_balance_micro": ledger.accounts[spec.account],
            }
        )

    # The ledger lets go of the contract, which holds it, so no cycle keeps the
    # ledger alive into a sweep's next run: the report holds the only log.
    ledger.set_handler(None)
    return RunReport(
        seed=config.seed,
        genesis=line,
        design_rows=design_rows,
        player_rows=player_rows,
        events=ledger.events,
    )


_DESIGN_COLUMNS = ("design", "truth", "final_score_eval", "result_eval",
                   "final_score_feedback", "result_feedback", "final_phase")


def _payout_reason(row: dict, result: int) -> str:
    if result == RESULT_ANNULLED:
        return "annulled"
    if not row["received"]:
        return "not_received"
    if row["vote"] is None:
        return "no_reveal"
    if row["vote"] == 0:
        return "zero_vote"
    # A counted vote is paid the reward (at least 1 micro-unit), the penalty
    # (at most -1) or nothing: in a feedback round, or in an evaluation round
    # whose other receivers' signed influence sums to 0. The sign names which.
    if row["payout"] > 0:
        return "agree"
    if row["payout"] < 0:
        return "disagree"
    return "neutral"


def write_outputs(report: RunReport, out_dir: str | Path) -> dict:
    """Write trace.jsonl, payouts.csv, reputation.csv, designs.csv and
    summary.json into `out_dir`; returns the path map. The trace is encoded
    and written one line at a time, never held whole. The payout and
    reputation rows are read from the trace's ResultCalculated events."""
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

    with paths["trace"].open("w") as fh:
        fh.write(report.genesis + "\n")
        fh.writelines(event.to_json_line(seq) + "\n" for seq, event in enumerate(report.events))

    with paths["payouts"].open("w", newline="") as pay_fh, \
            paths["reputation"].open("w", newline="") as rep_fh:
        payouts, reputation = csv.writer(pay_fh), csv.writer(rep_fh)
        payouts.writerow(["design", "round", "player", "amount", "reason"])
        reputation.writerow(["design", "round", "player", "before", "after"])
        for event in report.events:
            if event.kind != "ResultCalculated":
                continue
            payload = event.payload
            for row in payload["players"]:
                key = [event.design, payload["round"], row["player"]]
                reason = _payout_reason(row, payload["result"])
                payouts.writerow(key + [format_micro(row["payout"]), reason])
                reputation.writerow(key + [repr(row["reputation"]), repr(row["reputation_after"])])

    # `csv` writes a float as its repr and None as an empty field.
    with paths["designs"].open("w", newline="") as fh:
        writer = csv.DictWriter(fh, _DESIGN_COLUMNS)
        writer.writeheader()
        writer.writerows(report.design_rows)

    summary = {
        "seed": report.seed,
        "conservation_ok": True,  # `run` raises rather than return a broken sum
        "designs": report.design_rows,
        "players": report.player_rows,
    }
    with paths["summary"].open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {name: str(path) for name, path in paths.items()}
