from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from attestsim.money import MAX_UNITS, MICRO, MoneyError, format_micro, to_micro


def test_integers_scale_exactly():
    assert to_micro(0) == 0
    assert to_micro(7) == 7_000_000
    assert to_micro(-3) == -3_000_000


def test_decimal_strings_parse_exactly():
    assert to_micro("0.000001") == 1
    assert to_micro("1.5") == 1_500_000
    assert to_micro("-2.25") == -2_250_000
    assert to_micro("0.888889") == 888_889
    assert to_micro("1.000000000000000000000000000000") == 1_000_000  # zeros past 28 digits


def test_fractions_round_half_even():
    assert to_micro(Fraction(8, 9)) == 888_889
    assert to_micro(Fraction(1, 2_000_000)) == 0  # 0.5 micro rounds to even
    assert to_micro(Fraction(3, 2_000_000)) == 2  # 1.5 micro rounds to even


def test_too_many_decimals_rejected():
    with pytest.raises(MoneyError):
        to_micro("0.0000001")


@pytest.mark.parametrize(
    "bad",
    [None, [], {}, True, False, "abc", "",
     # non-finite or overflowing: NaN, infinities and decimal.Overflow
     "NaN", "-NaN", "sNaN", "Infinity", "-Infinity", "1e1000000", float("nan"), float("inf"),
     # beyond MAX_UNITS: converting "1e300000" to an int would take seconds
     "1e300000", "-1e999990", "1000000000000000.000001", 10**15 + 1, Fraction(-(10**16)),
     # more digits than decimal's 28-digit context: decided on the exact value
     "1.0000000000000000000000000001", "999999999999999.99999999999999",
     "-0.9999999999999999999999999999999"],
)
def test_garbage_rejected(bad):
    with pytest.raises(MoneyError):
        to_micro(bad)


def test_amounts_up_to_max_units_are_accepted():
    assert to_micro(MAX_UNITS) == MAX_UNITS * MICRO
    assert to_micro(f"-{MAX_UNITS}.000000") == -MAX_UNITS * MICRO


def test_round_trip_through_fraction():
    assert to_micro(Fraction(3, 2)) == 1_500_000
    assert to_micro(Fraction(888_889, MICRO)) == 888_889


def test_format_is_fixed_width_six_decimals():
    assert format_micro(0) == "0.000000"
    assert format_micro(1_500_000) == "1.500000"
    assert format_micro(-889_889) == "-0.889889"


@given(st.integers(min_value=-10**15, max_value=10**15))
def test_format_parse_round_trip(amount):
    assert to_micro(format_micro(amount)) == amount


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_integer_scaling_round_trips(units):
    assert Fraction(to_micro(units), MICRO) == units
