"""Span tracing around attestsim's public functions, from outside the package.

`Tracer.install()` replaces public functions and methods on the
imported modules with wrappers that time each call; `uninstall()` puts the
originals back. Nothing inside `src/` is edited: the wrappers sit at the
module attributes the callers look up. Spans nest through a stack, and a
span's self time is its duration minus the time of the spans it caused.

Spans are aggregated as they close, keyed by (phase, layer), instead of
being stored one by one: a long run opens millions of them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

CONTRACT_OPS = (
    "announce", "register", "set_received", "commit", "reveal", "open_feedback",
    "calculate_result",
)
SCHEDULE_READS = ("reward", "penalty", "reward_micro", "penalty_micro")


class _JsonProxy:
    """Stands in for the `json` module inside `attestsim.verify` so that the
    trace parse (`json.loads`) is timed; everything else is forwarded."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.phase = "idle"
        self.self_ns = defaultdict(int)  # (phase, layer) -> ns
        self.calls = defaultdict(int)  # (phase, layer) -> number of spans
        self.counts = defaultdict(int)  # (phase, counter) -> value
        self._stack = []  # one [child_ns] cell per open span
        self._patches = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()

    def call(self, layer: str, fn, args, kwargs):
        """Run fn(*args, **kwargs) as a span named `layer` in the current phase."""
        cell = [0]
        stack = self._stack
        stack.append(cell)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            key = (self.phase, layer)
            self.self_ns[key] += elapsed - cell[0]
            self.calls[key] += 1
            if stack:
                stack[-1][0] += elapsed

    # ------------------------------------------------------------------ #
    # wrappers

    def _span(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)

        return traced

    def _counted(self, counter, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[(self.phase, counter)] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def top(self, phase: str, layer: str, fn, *args):
        """A top-level call from the benchmark: sets the phase for every span
        it causes and counts the signature-memo hits it scores."""
        from attestsim.crypto import _verify_cached

        self.phase = phase
        hits = _verify_cached.cache_info().hits
        try:
            return self.call(layer, fn, args, {})
        finally:
            self.counts[(phase, "crypto.signature_cache_hits")] += (
                _verify_cached.cache_info().hits - hits
            )
            self.phase = "idle"

    def install(self) -> None:
        from attestsim import agents, contract, crypto, ledger, oracle, scenario, trust, verify

        tracer = self
        span = self._span

        self._patch(scenario, "run_party_round", span("agents.round", scenario.run_party_round))
        self._patch(scenario.RunReport, "trace_lines",
                    span("scenario.trace_lines", scenario.RunReport.trace_lines))

        advance = ledger.SimLedger.advance

        @functools.wraps(advance)
        def traced_advance(ledger_self, to):
            before = len(ledger_self.events)
            receipts = tracer.call("ledger.advance", advance, (ledger_self, to), {})
            phase = tracer.phase
            tracer.counts[(phase, "ledger.messages")] += len(receipts)
            tracer.counts[(phase, "ledger.rejected")] += sum(1 for r in receipts if not r.accepted)
            tracer.counts[(phase, "ledger.events")] += len(ledger_self.events) - before
            return receipts

        self._patch(ledger.SimLedger, "advance", traced_advance)

        handle = contract.DesignVotingContract.handle

        @functools.wraps(handle)
        def traced_handle(contract_self, message):
            layer = "contract." + str(message.op)
            try:
                return tracer.call(layer, handle, (contract_self, message), {})
            except ledger.Reject:
                tracer.counts[(tracer.phase, layer + "_rejected")] += 1
                raise

        self._patch(contract.DesignVotingContract, "handle", traced_handle)

        for name in ("compute_weight", "compute_final_score", "settle_evaluation"):
            self._patch(trust, name, span("trust." + name, getattr(trust, name)))
        self._patch(trust, "agreement_sign",
                    self._counted("trust.agreement_sign_calls", trust.agreement_sign))

        compute_reputation = trust.compute_reputation

        @functools.wraps(compute_reputation)
        def traced_reputation(history):
            tracer.counts[(tracer.phase, "trust.reputation_records")] += len(history)
            return tracer.call("trust.compute_reputation", compute_reputation, (history,), {})

        self._patch(trust, "compute_reputation", traced_reputation)

        for name in SCHEDULE_READS:
            prop = trust.PaymentSchedule.__dict__[name]
            self._patch(trust.PaymentSchedule, name, property(span("trust.schedule", prop.fget)))

        self._patch(verify.RationalMirror, "check_result",
                    span("verify.mirror", verify.RationalMirror.check_result))
        for name in ("weight_exact", "agreement_sign_exact", "settle_exact"):
            self._patch(oracle, name, span("oracle." + name, getattr(oracle, name)))

        digest = span("crypto.commitment_digest", crypto.commitment_digest)
        self._patch(agents, "commitment_digest", digest)
        self._patch(contract, "commitment_digest", digest)
        self._patch(contract, "verify_account_signature",
                    span("crypto.signature", contract.verify_account_signature))

        self._patch(verify, "json", _JsonProxy(span("parse", json.loads)))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
