"""Exact money arithmetic.

Dollar amounts are held as `fractions.Fraction` throughout the library.
Unit prices such as $0.03 per 2,592,000 requests are non-terminating in
decimal, so exact rationals are the only representation under which the
bundled regression values reproduce bit-for-bit. Display quantizes:
cents by default, six decimal places in JSON reports.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

# Quantization used when "full precision" is requested for a rational
# whose decimal expansion does not terminate.
FULL_PRECISION_PLACES = 12

# Published price multiple of a function instance versus an always-on VM
# of equal memory; not derivable from list prices, so it is an input with
# this value as the conventional default.
FALLACY_COST_RATIO = 7.5

# Largest decimal exponent `usd` reads. Fraction expands 10**exponent in
# full, so "1e9999999" would cost seconds of CPU; prices and quantities sit
# far inside this bound.
MAX_EXPONENT = 1000


def decimal_literal(value: float | int | str | Decimal) -> Decimal:
    """A number as the decimal literal the caller wrote: floats by their
    shortest repr, not their binary value, so 0.1 + 0.2 equals 0.3."""
    if isinstance(value, float):
        return Decimal(repr(value))
    return value if isinstance(value, Decimal) else Decimal(value)


def usd(value) -> Fraction:
    """Convert a price or quantity into an exact Fraction.

    Accepts int, str (plain, scientific, or "p/q" rational), Decimal and
    Fraction. Floats are read by `decimal_literal`. NaN, infinities and
    decimal exponents beyond +-MAX_EXPONENT raise ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            literal = Decimal(value)
        except InvalidOperation:
            return Fraction(value)  # "p/q", or ValueError
    elif isinstance(value, (int, float, Decimal)):
        literal = decimal_literal(value)
    else:
        raise TypeError(f"cannot interpret {value!r} as a number")
    if not literal.is_finite():
        raise ValueError(f"{value!r} is not a finite number")
    if abs(literal.as_tuple().exponent) > MAX_EXPONENT:
        raise ValueError(f"{value!r} has a decimal exponent beyond +-{MAX_EXPONENT}")
    return Fraction(literal)


def json_integer(value, message: str) -> int:
    """A JSON Schema integer: an int, or a float or Decimal without a fraction, so 5.0 reads as 5. Anything else,
    a bool or a string among them, raises ValueError: `message`, then the value."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    if type(value) is Decimal and (number := usd(value)).denominator == 1:
        return number.numerator
    raise ValueError(f"{message}, not {value if type(value) is Decimal else repr(value)}")


def usd_decimal(amount: Fraction, places: int = 6) -> Decimal:
    """Round an exact dollar amount to `places` decimals, ties away from zero.

    Exact at any magnitude: floor(|amount| * 10^places + 1/2), signed.
    """
    numerator, denominator = abs(amount.numerator), amount.denominator
    digits = (2 * numerator * 10**places + denominator) // (2 * denominator)
    return Decimal((amount < 0, tuple(map(int, str(digits))), -places))


def usd_json(amount: Fraction) -> float:
    """Dollar amount as a JSON number at six decimal places; ValueError if
    it is too large for a double."""
    rounded = usd_decimal(amount, 6)
    value = float(rounded)
    if not math.isfinite(value):
        raise ValueError(f"dollar amount {rounded:.3e} is too large to report")
    return value


def report_float(value: Fraction | float, what: str) -> float:
    """An exact quantity as a JSON number; ValueError naming `what` if it is too large for a double."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if math.isinf(number):
        raise ValueError(f"{what} is too large to report")
    return number


def usd_str(amount: Fraction, places: int | None = 2) -> str:
    """Render dollars in plain decimals: cents by default, 12 places when asked."""
    if places is None:
        places = FULL_PRECISION_PLACES
    return f"{usd_decimal(amount, places):f}"


def breakeven_duty_cycle(per_minute_cost_ratio) -> Fraction:
    """Busy fraction below which functions beat an equal-memory VM: 1/ratio."""
    ratio = usd(per_minute_cost_ratio)
    if ratio <= 0:
        raise ValueError("cost ratio must be positive")
    return 1 / ratio
