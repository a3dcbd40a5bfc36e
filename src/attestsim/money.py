"""Fixed-point money: integer micro-units, six decimal places.

Every on-ledger amount is a plain int so conservation checks are exact.
Exact rationals (Fraction) are used upstream where a formula produces a
non-representable value; quantization happens once, here.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

MICRO = 10**6
MAX_UNITS = 10**15  # the largest amount, in currency units


class MoneyError(ValueError):
    """Raised when an amount cannot be parsed or quantized."""


def to_micro(value: int | str | float | Decimal | Fraction) -> int:
    """Convert a decimal-ish amount in currency units to integer micro-units.

    Strings and Decimals convert exactly; floats go through str() so that
    e.g. 0.1 means the decimal 0.1, not its binary approximation. Fractions
    are rounded half-even at the sixth decimal. An amount beyond MAX_UNITS
    is rejected before int(), which takes seconds on one like "1e300000".
    """
    if isinstance(value, bool):
        raise MoneyError(f"not a monetary amount: {value!r}")
    if isinstance(value, Fraction):
        quantized = round(value * MICRO)
    else:
        try:
            quantized = Decimal(str(value) if isinstance(value, float) else value) * MICRO
        except (ArithmeticError, TypeError, ValueError) as exc:  # decimal's Overflow too
            raise MoneyError(f"not a monetary amount: {value!r}") from exc
        if not quantized.is_finite():
            raise MoneyError(f"not a finite amount: {value!r}")
    if abs(quantized) > MAX_UNITS * MICRO:
        raise MoneyError(f"{value!r} exceeds {MAX_UNITS} currency units")
    whole = int(quantized)
    if whole != quantized:
        raise MoneyError(f"{value!r} has more than 6 decimal places")
    return whole


def from_micro(amount: int) -> Fraction:
    """Exact currency value of an integer micro-unit amount."""
    return Fraction(amount, MICRO)


def format_micro(amount: int) -> str:
    """Render micro-units as a fixed 6-decimal string, e.g. -888889 -> '-0.888889'."""
    sign = "-" if amount < 0 else ""
    whole, frac = divmod(abs(amount), MICRO)
    return f"{sign}{whole}.{frac:06d}"
