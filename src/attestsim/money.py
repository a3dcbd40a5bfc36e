"""Fixed-point money: integer micro-units, six decimal places.

Every on-ledger amount is a plain int so conservation checks are exact.
Exact rationals (Fraction) are used upstream where a formula produces a
non-representable value; each is rounded half-even to micro-units where it
is derived: `PaymentSchedule`, `oracle.quantize_micro`, `genesis_header`.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

MICRO = 10**6
MAX_UNITS = 10**15  # the largest amount, in currency units
MICRO_STEP = Decimal("0.000001")


class MoneyError(ValueError):
    """Raised when an amount cannot be parsed or quantized."""


def to_micro(value: int | str | float | Decimal | Fraction) -> int:
    """Convert a decimal-ish amount in currency units to integer micro-units.

    Strings and Decimals convert exactly; floats go through str() so that
    e.g. 0.1 means the decimal 0.1, not its binary approximation. Fractions
    are rounded half-even at the sixth decimal. Both checks decide on the
    exact value: an amount beyond MAX_UNITS is rejected before int(), which
    takes seconds on one like "1e300000", and a decimal with a nonzero
    digit past the sixth place is rejected however many digits it has.
    """
    if isinstance(value, bool):
        raise MoneyError(f"not a monetary amount: {value!r}")
    if isinstance(value, Fraction):
        amount = value
    else:
        try:
            amount = Decimal(str(value) if isinstance(value, float) else value)
        except (ArithmeticError, TypeError, ValueError) as exc:  # InvalidOperation too
            raise MoneyError(f"not a monetary amount: {value!r}") from exc
        if not amount.is_finite():
            raise MoneyError(f"not a finite amount: {value!r}")
    if not -MAX_UNITS <= amount <= MAX_UNITS:  # abs() would round a Decimal
        raise MoneyError(f"{value!r} exceeds {MAX_UNITS} currency units")
    if isinstance(amount, Fraction):
        return round(amount * MICRO)
    # Within MAX_UNITS six places take at most 22 digits, so quantizing is
    # exact in the default 28-digit context; multiplying an amount with
    # more digits by MICRO would round it first.
    micros = amount.quantize(MICRO_STEP)
    if micros != amount:
        raise MoneyError(f"{value!r} has more than 6 decimal places")
    return int(micros.scaleb(6))


def to_fraction(value) -> Fraction:
    """Fraction(value), refusing a decimal string with an exponent beyond
    10**4, for which Fraction would spend seconds building 10**exponent.
    Other values go straight to Fraction, so a float keeps its binary value."""
    if isinstance(value, str):
        exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", value, re.IGNORECASE)
        if exponent and abs(int(exponent[1])) > 10**4:
            raise MoneyError(f"{value!r} has an exponent beyond 10**4")
    return Fraction(value)


def format_micro(amount: int) -> str:
    """Render micro-units as a fixed 6-decimal string, e.g. -888889 -> '-0.888889'."""
    sign = "-" if amount < 0 else ""
    whole, frac = divmod(abs(amount), MICRO)
    return f"{sign}{whole}.{frac:06d}"
