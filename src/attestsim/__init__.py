"""Deterministic simulator for a two-phase commit-reveal design voting protocol.

The package splits into a pure scoring library (`trust`), an exact-rational
referee (`oracle`), a message-ordered ledger simulation (`ledger`), the
voting contract (`contract`), strategy-driven participants (`agents`),
scenario orchestration (`scenario`), and trace verification (`verify`).
"""

from .contract import (
    ContractConstants,
    DesignVotingContract,
    PHASE_ANNULLED,
    PHASE_ATTESTED,
    PHASE_EVAL_COMMIT,
    PHASE_EVAL_REVEAL,
    PHASE_FEEDBACK_REVEAL,
    PHASE_ON_SALE,
    PHASE_REMOVED,
    ROUND_EVALUATION,
    ROUND_FEEDBACK,
)
from .crypto import commitment_digest, sign_account_id, signing_key_from_seed
from .ledger import LedgerError, Message, Receipt, Reject, SimLedger
from .money import MICRO, format_micro, to_micro
from .oracle import RationalMirror
from .scenario import ScenarioValidationError, load_config, run, validate_config, write_outputs
from .trust import (
    DomainError,
    PaymentSchedule,
    compute_final_score,
    compute_reputation,
    compute_weight,
    decide_result,
    penalty_amount,
    reward_amount,
    settle_evaluation,
)
from .verify import VerifyResult, verify_trace

__version__ = "0.1.0"

__all__ = [
    "MICRO",
    "ContractConstants",
    "DesignVotingContract",
    "DomainError",
    "LedgerError",
    "Message",
    "PaymentSchedule",
    "PHASE_ANNULLED",
    "PHASE_ATTESTED",
    "PHASE_EVAL_COMMIT",
    "PHASE_EVAL_REVEAL",
    "PHASE_FEEDBACK_REVEAL",
    "PHASE_ON_SALE",
    "PHASE_REMOVED",
    "RationalMirror",
    "Receipt",
    "Reject",
    "ROUND_EVALUATION",
    "ROUND_FEEDBACK",
    "ScenarioValidationError",
    "SimLedger",
    "VerifyResult",
    "commitment_digest",
    "compute_final_score",
    "compute_reputation",
    "compute_weight",
    "decide_result",
    "format_micro",
    "load_config",
    "penalty_amount",
    "reward_amount",
    "run",
    "settle_evaluation",
    "sign_account_id",
    "signing_key_from_seed",
    "to_micro",
    "validate_config",
    "verify_trace",
    "write_outputs",
]
