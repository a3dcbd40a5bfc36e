"""Acceptance gate: one test per shipping criterion, one printed line each.

Every criterion prints `[criterion N] PASS/FAIL <detail>` to the real
stdout (bypassing capture) so the acceptance verdict is readable straight
off the pytest log. A FAIL line is followed by a failing assertion: the
red is supposed to show.

Criterion 6 note: under the `simplified` payment variant the honest
expected settlement per design (0.9*reward + 0.1*penalty ~ 0.71) is below
the effort cost 1, so honest mean utility is negative by construction and
the criterion cannot pass as stated; it is implemented faithfully and left
red. The companion test drives the identical population under the
`derivation` variant, whose reward (8/3) covers effort with margin, and is
green — the mechanism works when the reward is sized as derived.
"""

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from corpus import corpus_configs, player, scenario, truthful
from exact_formulas import final_score_exact, reputation_exact, weight_exact

from attestsim import oracle
from attestsim.agents import IdentityProvider
from attestsim.contract import ContractConstants, DesignVotingContract
from attestsim.crypto import commitment_digest
from attestsim.ledger import SimLedger
from attestsim.scenario import run, validate_config, write_outputs
from attestsim.trust import (
    PaymentSchedule,
    compute_final_score,
    compute_reputation,
    compute_weight,
    decide_result,
    penalty_amount,
    reward_amount,
)
from attestsim.verify import verify_trace

TOL = 1e-12

# One verdict line per criterion; conftest.py echoes these after the run so
# they survive pytest's output capture.
VERDICTS: list[str] = []


def report(criterion, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


# --------------------------------------------------------------------- 1

def test_criterion_1_formulas_match_exact_oracle():
    """1,000 random instances of every scoring formula live within 1e-12
    of an independent exact-rational recomputation, in under 5 seconds."""
    rng = random.Random(0xC1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 12)
        roster = [f"p{i}" for i in range(n)]
        counts = {p: rng.randint(0, 1000) for p in roster}
        votes = {p: rng.choice((-1, 0, 1)) for p in roster}
        reps = {p: rng.random() for p in roster}

        weights, exact_weights = {}, {}
        for p in roster:
            weights[p] = compute_weight(counts)[p]
            exact_weights[p] = weight_exact(counts, p)
            worst = max(worst, abs(weights[p] - float(exact_weights[p])))

        fs = compute_final_score(votes, reps, weights)
        fs_exact = final_score_exact(votes, reps, exact_weights)
        worst = max(worst, abs(fs - float(fs_exact)))

        q = Fraction(rng.randint(501, 1000), 1000)
        assert decide_result(fs, float(q)) == oracle.decide_result_exact(Fraction(fs), q)

        history = [
            (rng.choice((-1, 0, 1)), rng.choice((-1, 1)), rng.random())
            for _ in range(rng.randint(0, 10))
        ]
        rep = compute_reputation(history)
        worst = max(worst, abs(rep - float(reputation_exact(history))))
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL and elapsed < 5.0
    report(1, ok, f"1000 instances, worst |float-exact| = {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------- 2

def test_criterion_2_trivial_cases_exact():
    checks = [
        (compute_final_score({"a": 1, "b": 1}, {"a": 0.3, "b": 0.9},
                             {"a": 0.5, "b": 0.5}), 1.0),
        (compute_final_score({"a": -1, "b": -1, "c": -1},
                             {"a": 0.3, "b": 0.9, "c": 0.1},
                             {"a": 0.2, "b": 0.3, "c": 0.5}), 0.0),
        (compute_final_score({"a": 0, "b": 0}, {"a": 0.5, "b": 0.5},
                             {"a": 0.5, "b": 0.5}), 0.5),
        (compute_final_score({}, {}, {}), 0.5),
        (compute_reputation([]), 0.5),
        (compute_reputation([(1, 1, 1.0)]), 1.0),
        (compute_reputation([(-1, 1, 1.0)]), 0.0),
        (compute_weight({"a": 7})["a"], 1.0),
        (compute_weight({"a": 0, "b": 0})["a"], 0.5),
        (reward_amount(1, 1), Fraction(1, 2)),
        (reward_amount(1, Fraction(3, 4)), Fraction(8, 9)),
        (decide_result(0.75, 0.75), 0),
        (decide_result(0.25, 0.75), 0),
        (decide_result(1.0, 0.75), 1),
        (decide_result(0.0, 0.75), -1),
    ]
    bad = [i for i, (got, want) in enumerate(checks) if got != want]
    report(2, not bad, f"{len(checks)} boundary identities exact"
           + (f"; failing: {bad}" if bad else ""))


# --------------------------------------------------------------------- 3

def test_criterion_3_payment_identities_exact():
    costs = [Fraction(1, 10), Fraction(1), Fraction(10)]
    thresholds = [Fraction(55, 100), Fraction(3, 4), Fraction(95, 100)]
    eps = Fraction(1, 1000)
    problems = []
    for variant in ("simplified", "derivation"):
        for cost in costs:
            rewards = []
            for q in thresholds:
                r = reward_amount(cost, q, variant)
                rewards.append(r)
                if penalty_amount(cost, q, eps, variant) != -r - eps:
                    problems.append(f"{variant} penalty identity at C={cost} q={q}")
                if reward_amount(7 * cost, q, variant) != 7 * r:
                    problems.append(f"{variant} linearity at C={cost} q={q}")
            if not all(a > b for a, b in zip(rewards, rewards[1:])):
                problems.append(f"{variant} monotonicity at C={cost}")
    report(3, not problems,
           "penalty = -reward - eps, linear in cost, strictly decreasing in "
           f"threshold, {len(costs)}x{len(thresholds)}x2 grid"
           + (f"; {problems}" if problems else ""))


# --------------------------------------------------------------------- 4

def test_criterion_4_random_message_fuzz():
    """10,000 random protocol messages: no reveal without a matching
    commitment, nothing lands outside its window, openings always match."""
    t0 = time.perf_counter()
    identity = IdentityProvider(b"\x23" * 32)
    schedule = PaymentSchedule(1, Fraction(3, 4), Fraction(1, 1000))
    constants = ContractConstants(
        schedule=schedule, commit_window=5, reveal_window=5, ip_public_key=identity.public_key,
    )
    players = [f"p{i}" for i in range(8)]
    balances = {"vendor": 10**12, "manager": 0, "contract": 0}
    balances.update({p: 10**10 for p in players})
    genesis_total = sum(balances.values())
    ledger = SimLedger(balances)
    DesignVotingContract(constants, ledger)

    rng = random.Random(0xF00D)
    design_hash = bytes(range(32))
    senders = players + ["manager", "vendor"]
    openings = {}
    sent = 0
    tick = 0
    n_designs = 0

    def submit(sender, op, args):
        nonlocal sent
        ledger.submit(sender, op, args)
        receipts = ledger.advance(tick)
        sent += 1
        return receipts[-1].accepted

    def noise():
        """A message aimed anywhere, often at a dead or unknown design."""
        design = rng.randrange(n_designs + 1)
        roll = rng.random()
        if roll < 0.25:
            submit(rng.choice(players), "register", {
                "design": design,
                "deposit": rng.choice((1, 889_889, 1_000_000)),
                "signature": identity.signature_for(rng.choice(players)),
            })
        elif roll < 0.45:
            submit("manager", "set_received",
                   {"design": design, "player": rng.choice(players)})
        elif roll < 0.65:
            submit(rng.choice(players), "commit",
                   {"design": design, "digest": rng.randbytes(32)})
        elif roll < 0.85:
            submit(rng.choice(players), "reveal", {
                "design": design, "vote": rng.choice((-1, 0, 1)),
                "blinding": rng.randbytes(32),
            })
        elif roll < 0.95:
            submit(rng.choice(senders), "calculate_result", {"design": design})
        else:
            submit(rng.choice(senders), "open_feedback", {"design": design})

    def commit_phase(design, group, start):
        """Returns the players whose commit was accepted. Sender choice is
        biased toward the players that have made it through the previous
        gate, with a random tail to keep hammering the rejection paths."""
        nonlocal tick
        registered, received, committed = [], [], []

        def pick(pool):
            if pool and rng.random() < 0.8:
                return rng.choice(pool)
            return rng.choice(group)

        for _ in range(rng.randint(10, 16)):
            if sent >= 10_000:
                break
            tick = min(tick + rng.choice((0, 0, 1)), start + 5)
            roll = rng.random()
            if roll < 0.30:
                sender = rng.choice(group)
                if submit(sender, "register", {
                    "design": design,
                    "deposit": rng.choice((1, 889_889, 2_000_000)),
                    "signature": identity.signature_for(sender),
                }) and sender not in registered:
                    registered.append(sender)
            elif roll < 0.55:
                player = pick(registered)
                if submit("manager", "set_received",
                          {"design": design, "player": player}) and player not in received:
                    received.append(player)
            elif roll < 0.85:
                sender = pick(received)
                if rng.random() < 0.7:
                    vote = rng.choice((-1, 0, 1))
                    blinding = rng.randbytes(32)
                    digest = commitment_digest(vote, blinding)
                else:
                    vote, blinding, digest = None, None, rng.randbytes(32)
                if submit(sender, "commit", {"design": design, "digest": digest}):
                    if vote is None:
                        openings.pop((sender, design), None)
                    else:
                        openings[(sender, design)] = (vote, blinding)
                    if sender not in committed:
                        committed.append(sender)
            elif roll < 0.95:  # premature reveal, must be rejected
                submit(rng.choice(group), "reveal", {
                    "design": design, "vote": rng.choice((-1, 0, 1)),
                    "blinding": rng.randbytes(32),
                })
            else:
                noise()
        return committed

    def reveal_phase(design, group, committed, start):
        nonlocal tick
        tick = max(tick, start + 6)
        for _ in range(rng.randint(6, 12)):
            if sent >= 10_000:
                return
            tick = max(tick, min(tick + rng.choice((0, 1)),
                                 start + 10 + rng.choice((0, 0, 1))))
            roll = rng.random()
            if roll < 0.70:
                if committed and rng.random() < 0.8:
                    sender = rng.choice(committed)
                else:
                    sender = rng.choice(group)
                known = openings.get((sender, design))
                if known and rng.random() < 0.8:
                    vote, blinding = known
                    if rng.random() < 0.2:  # mismatched opening, must be rejected
                        vote = rng.choice([v for v in (-1, 0, 1) if v != vote])
                else:
                    vote, blinding = rng.choice((-1, 0, 1)), rng.randbytes(32)
                submit(sender, "reveal",
                       {"design": design, "vote": vote, "blinding": blinding})
            elif roll < 0.80:  # late commit, must be rejected
                submit(rng.choice(group), "commit",
                       {"design": design, "digest": rng.randbytes(32)})
            elif roll < 0.90:  # early settlement attempt, must be rejected
                submit(rng.choice(senders), "calculate_result", {"design": design})
            else:
                noise()

    buyers = players[4:]
    while sent < 10_000:
        tick += rng.choice((1, 1, 2))
        submit("vendor", "announce",
               {"design_hash": design_hash, "collateral": 20_000_000})
        design = n_designs
        n_designs += 1
        start = tick
        committed = commit_phase(design, players, start)
        reveal_phase(design, players, committed, start)
        tick = start + 11 + rng.choice((0, 1, 2))
        if sent < 10_000:
            submit(rng.choice(senders), "calculate_result", {"design": design})
        if rng.random() < 0.4 and sent < 10_000:
            tick += 1
            submit(rng.choice(senders), "open_feedback", {"design": design})
            fstart = tick
            committed = commit_phase(design, buyers, fstart)
            reveal_phase(design, buyers, committed, fstart)
            tick = fstart + 11 + rng.choice((0, 1))
            if sent < 10_000:
                submit(rng.choice(senders), "calculate_result", {"design": design})
    elapsed = time.perf_counter() - t0

    # post-hoc safety audit of the accepted history
    eval_start, feedback_start = {}, {}
    commits = {}
    accepted_commits = accepted_reveals = 0
    violations = []
    for event in ledger.events:
        p = event.payload
        if event.kind == "NewDesign":
            eval_start[event.design] = p["announced_at"]
        elif event.kind == "FeedbackOpened":
            feedback_start[event.design] = p["opened_at"]
        elif event.kind == "Committed":
            accepted_commits += 1
            start = (eval_start if p["round"] == "evaluation" else feedback_start)[event.design]
            if not event.tick <= start + 5:
                violations.append(f"late commit at {event.tick} (start {start})")
            commits[(p["player"], event.design)] = p["digest"]
        elif event.kind == "Revealed":
            accepted_reveals += 1
            start = (eval_start if p["round"] == "evaluation" else feedback_start)[event.design]
            if not start + 5 < event.tick <= start + 10:
                violations.append(f"reveal outside window at {event.tick} (start {start})")
            digest = commits.get((p["player"], event.design))
            if digest is None:
                violations.append(f"reveal without commitment by {p['player']}")
            elif commitment_digest(p["vote"], bytes.fromhex(p["blinding"])).hex() != digest:
                violations.append(f"mismatched opening accepted for {p['player']}")
    if ledger.total_balance() != genesis_total:
        violations.append("conservation broken")
    if accepted_commits == 0 or accepted_reveals == 0:
        violations.append("fuzz never exercised the commit/reveal path")
    ok = not violations and elapsed < 30.0
    report(4, ok, f"{sent} messages, {accepted_commits} commits / "
           f"{accepted_reveals} reveals accepted, {elapsed:.1f}s"
           + (f"; violations: {violations[:3]}" if violations else ""))


# --------------------------------------------------------------------- 5

def test_criterion_5_conservation_across_corpus():
    """Every Transfer of each trace, replayed onto line 1's genesis balances,
    keeps the total, never drives a balance negative, and lands each player
    on the final balance the report gives."""
    configs = corpus_configs()
    broken = []
    transfers = 0
    for name, config in configs.items():
        result = run(config)
        balances = dict(json.loads(result.genesis)["genesis_balances"])
        total = sum(balances.values())
        for event in result.events:
            if event.kind != "Transfer":
                continue
            transfers += 1
            p = event.payload
            balances[p["from"]] -= p["amount"]
            balances[p["to"]] += p["amount"]
            if balances[p["from"]] < 0:
                broken.append(f"{name} ({p['from']} negative at tick {event.tick})")
        if sum(balances.values()) != total:
            broken.append(f"{name} (total {sum(balances.values())} != genesis {total})")
        for row in result.player_rows:
            if balances[row["player"]] != row["final_balance_micro"]:
                broken.append(f"{name} ({row['player']} replays to {balances[row['player']]})")
    report(5, not broken and transfers > 0,
           f"money conserved exactly across {len(configs)} scenarios, "
           f"{transfers} transfers replayed from the trace"
           + (f"; broken: {broken[:3]}" if broken else ""))


# --------------------------------------------------------------------- 6

def _incentive_scenario(variant: str):
    if variant == "simplified":
        deposit, collateral, epsilon = "1.5", "11", "0.5"
    else:
        deposit, collateral, epsilon = "5", "33", "2"
    return validate_config(scenario(
        [truthful(f"hon-{i:02d}", 0.9, deposit=deposit, funds="400") for i in range(11)]
        + [player("guess-1", "guess", bias=0.5, deposit=deposit, funds="400")],
        designs=((True, collateral), (False, collateral)),
        rounds=200,
        epsilon=epsilon,
        payment_variant=variant,
        seed=0,
    ))


def _run_incentive_seeds(variant: str):
    config = _incentive_scenario(variant)
    passing = 0
    truthful_means, guesser_totals = [], []
    for seed in range(20):
        result = run(config, seed=seed)
        honest = [r["utility_micro"] for r in result.player_rows
                  if r["player"].startswith("hon-")]
        guesser = next(r["utility_micro"] for r in result.player_rows
                       if r["player"] == "guess-1")
        mean_honest = sum(honest) / len(honest)
        truthful_means.append(mean_honest)
        guesser_totals.append(guesser)
        if mean_honest > 0 and guesser < 0:
            passing += 1
    return passing, truthful_means, guesser_totals


def test_criterion_6_incentives_simplified_variant():
    """As stated (simplified variant): honest effort must profit and blind
    guessing must lose, in >= 18 of 20 seeds. The reward this variant sets
    (8/9 per agreement) cannot cover the effort cost 1 at 90% accuracy, so
    the honest clause fails deterministically. Expected red; the companion
    below shows the same population profits under the derivation variant."""
    passing, truthful_means, guesser_totals = _run_incentive_seeds("simplified")
    mean_honest = sum(truthful_means) / len(truthful_means) / 10**6
    mean_guess = sum(guesser_totals) / len(guesser_totals) / 10**6
    report(6, passing >= 18,
           f"simplified variant: {passing}/20 seeds had honest mean > 0 > guesser "
           f"(avg honest {mean_honest:+.1f}, avg guesser {mean_guess:+.1f}); "
           "reward 8/9 < effort 1 makes the honest clause unattainable")


def test_criterion_6_companion_derivation_variant_is_green():
    passing, truthful_means, guesser_totals = _run_incentive_seeds("derivation")
    mean_honest = sum(truthful_means) / len(truthful_means) / 10**6
    mean_guess = sum(guesser_totals) / len(guesser_totals) / 10**6
    report("6-companion", passing >= 18,
           f"derivation variant: {passing}/20 seeds had honest mean > 0 > guesser "
           f"(avg honest {mean_honest:+.1f}, avg guesser {mean_guess:+.1f})")


# --------------------------------------------------------------------- 7

def test_criterion_7_free_riders_settle_at_exact_penalty():
    """Every received-but-silent player in a decided evaluation round is
    debited exactly the penalty amount, across the whole corpus."""
    configs = dict(corpus_configs())
    configs["dense_free_riders"] = validate_config(scenario(
        [truthful(f"hon-{i}", 1.0) for i in range(6)]
        + [player(f"fr{i}", "free_ride") for i in range(4)],
        designs=((True, "15"), (False, "15")),
        rounds=6,
    ))
    checked = 0
    problems = []
    for name, config in configs.items():
        result = run(config)
        penalty = json.loads(result.genesis)["penalty_micro"]
        for event in result.events:
            if event.kind != "ResultCalculated":
                continue
            payload = event.payload
            if payload["round"] != "evaluation" or payload["result"] == 0:
                continue
            for row in payload["players"]:
                if row["received"] and row["vote"] is None:
                    checked += 1
                    if row["payout"] != penalty:
                        problems.append(f"{name}:{row['player']} got {row['payout']}")
    ok = checked > 0 and not problems
    report(7, ok, f"{checked} silent receivers all settled at the exact penalty"
           + (f"; {problems[:3]}" if problems else ""))


# --------------------------------------------------------------------- 8

def test_criterion_8_lifecycle_matches_threshold_arithmetic():
    configs = corpus_configs()
    checked = 0
    problems = []
    for name, config in configs.items():
        result = run(config)
        q = config.quality_threshold
        for row in result.design_rows:
            checked += 1
            fs_e = row["final_score_eval"]
            r_e = oracle.decide_result_exact(Fraction(fs_e), q)
            if r_e == -1:
                expected = "removed"
            elif r_e == 0:
                expected = "annulled"
            elif row["final_score_feedback"] is None:
                expected = "on_sale_feedback_commit"
            else:
                r_f = oracle.decide_result_exact(Fraction(row["final_score_feedback"]), q)
                expected = {1: "attested", 0: "annulled", -1: "removed"}[r_f]
            if row["final_phase"] != expected:
                problems.append(f"{name}#{row['design']}: {row['final_phase']} != {expected}")
    report(8, not problems,
           f"{checked} design lifecycles match brute-force threshold comparison"
           + (f"; {problems[:3]}" if problems else ""))


# --------------------------------------------------------------------- 9

def _mutation_pool(lines):
    """(description, mutated-lines) generator over derived/integrity fields."""
    def edited(idx, transform):
        out = list(lines)
        obj = json.loads(out[idx])
        transform(obj)
        out[idx] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return out

    for idx, line in enumerate(lines):
        obj = json.loads(line)
        kind = obj.get("kind")
        if kind == "genesis":
            yield "header reward", edited(idx, lambda o: o.__setitem__(
                "reward_micro", o["reward_micro"] + 1))
            yield "header penalty", edited(idx, lambda o: o.__setitem__(
                "penalty_micro", o["penalty_micro"] - 1))
            continue
        payload = obj["payload"]
        if kind == "NewDesign":
            yield f"L{idx} collateral", edited(idx, lambda o: o["payload"].__setitem__(
                "collateral", o["payload"]["collateral"] + 1))
            yield f"L{idx} announce tick echo", edited(idx, lambda o: o["payload"].__setitem__(
                "announced_at", o["payload"]["announced_at"] + 1))
        elif kind == "Registered":
            yield f"L{idx} deposit", edited(idx, lambda o: o["payload"].__setitem__(
                "deposit", o["payload"]["deposit"] + 1))
            yield f"L{idx} signature", edited(idx, lambda o: o["payload"].__setitem__(
                "signature", "ab" * 32))
        elif kind == "Received":
            yield f"L{idx} receipt player", edited(idx, lambda o: o["payload"].__setitem__(
                "player", "nobody"))
        elif kind == "Committed":
            yield f"L{idx} digest", edited(idx, lambda o: o["payload"].__setitem__(
                "digest", "11" * 32))
        elif kind == "Revealed":
            yield f"L{idx} vote", edited(idx, lambda o: o["payload"].__setitem__(
                "vote", -o["payload"]["vote"] or 1))
            yield f"L{idx} blinding", edited(idx, lambda o: o["payload"].__setitem__(
                "blinding", "22" * 32))
        elif kind == "Transfer":
            yield f"L{idx} amount", edited(idx, lambda o: o["payload"].__setitem__(
                "amount", o["payload"]["amount"] + 1))
        elif kind == "ResultCalculated":
            yield f"L{idx} final score", edited(idx, lambda o: o["payload"].__setitem__(
                "final_score", 0.123456))
            yield f"L{idx} result", edited(idx, lambda o: o["payload"].__setitem__(
                "result", -o["payload"]["result"] or 1))
            if payload["vendor_refund"] is not None:
                yield f"L{idx} vendor refund", edited(idx, lambda o: o["payload"].__setitem__(
                    "vendor_refund", o["payload"]["vendor_refund"] + 1))
            for j in range(len(payload["players"])):
                yield f"L{idx} payout[{j}]", edited(idx, lambda o, j=j: o["payload"]["players"][j].__setitem__(
                    "payout", o["payload"]["players"][j]["payout"] + 1))
                yield f"L{idx} reputation[{j}]", edited(idx, lambda o, j=j: o["payload"]["players"][j].__setitem__(
                    "reputation_after", 0.987654))
                yield f"L{idx} count[{j}]", edited(idx, lambda o, j=j: o["payload"]["players"][j].__setitem__(
                    "count_after", o["payload"]["players"][j]["count_after"] + 1))


def test_criterion_9_determinism_and_trace_integrity(tmp_path):
    configs = corpus_configs()
    problems = []

    # (a) bit-identical reruns for every corpus scenario
    for name, config in configs.items():
        if run(config).trace_lines() != run(config).trace_lines():
            problems.append(f"nondeterministic: {name}")

    # (b) a genuine rich trace verifies...
    result = run(configs["feedback_pass"])
    paths = write_outputs(result, tmp_path)
    genuine = verify_trace(paths["trace"])
    if not genuine.ok:
        problems.append(f"genuine trace failed: {genuine.error}")

    # (c) ...and 50 single-field mutations of derived fields are all caught
    lines = Path(paths["trace"]).read_text().splitlines()
    mutants = []
    for name, mutated in _mutation_pool(lines):
        mutants.append((name, mutated))
        if len(mutants) == 50:
            break
    caught = 0
    for name, mutated in mutants:
        target = tmp_path / "mutant.jsonl"
        target.write_text("\n".join(mutated) + "\n")
        if verify_trace(target).ok:
            problems.append(f"mutation not caught: {name}")
        else:
            caught += 1
    if len(mutants) < 50:
        problems.append(f"only {len(mutants)} mutations generated")
    report(9, not problems,
           f"{len(configs)} scenarios bit-stable, genuine trace verified, "
           f"{caught}/{len(mutants)} mutations rejected"
           + (f"; {problems[:3]}" if problems else ""))
