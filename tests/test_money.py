"""Exact money: rounding at report precision and rejection of non-finite amounts and huge exponents."""

import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import faasim
from faasim.money import MAX_EXPONENT, breakeven_duty_cycle, usd, usd_decimal, usd_json

HALF_MICRO = Fraction(5, 10**7)
TINY = Fraction(1, 10**40)


def check_rounding(amount: Fraction, places: int) -> None:
    """The result has `places` decimals, lies within half a unit of `amount`,
    and on an exact tie lies further from zero than `amount`."""
    got = usd_decimal(amount, places)
    assert got.as_tuple().exponent == -places
    assert got.is_signed() == (amount < 0)
    error = abs(Fraction(got) - amount)
    half_unit = Fraction(1, 2 * 10**places)
    assert error <= half_unit
    if error == half_unit:
        assert abs(Fraction(got)) > abs(amount)


@given(
    st.fractions(max_denominator=10**45),
    st.sampled_from([0, 2, 4, 6, 12]),
)
@example(HALF_MICRO - TINY, 6)
@example(HALF_MICRO + TINY, 6)
@example(HALF_MICRO, 6)
@example(-HALF_MICRO, 6)
@example(Fraction(10**30) + HALF_MICRO - TINY, 6)
@example(Fraction(23 * 10**27), 6)
@example(Fraction(-7 * 10**40, 3), 6)
def test_usd_decimal_matches_exact_rounding(amount, places):
    check_rounding(amount, places)


@given(st.integers(min_value=30, max_value=80), st.integers(min_value=-10**12, max_value=10**12))
def test_usd_decimal_exact_beyond_28_digits(exponent, micro):
    amount = Fraction(10**exponent) + Fraction(micro, 10**6) + Fraction(1, 2 * 10**6)
    check_rounding(amount, 6)
    check_rounding(amount - TINY, 6)


def test_usd_decimal_no_double_rounding():
    assert usd_decimal(HALF_MICRO - TINY) == Decimal("0.000000")
    assert usd_decimal(HALF_MICRO) == Decimal("0.000001")
    assert str(usd_decimal(Fraction(23 * 10**28))) == "230000000000000000000000000000.000000"


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), Decimal("Infinity"), Decimal("NaN")])
def test_usd_rejects_non_finite(value):
    with pytest.raises(ValueError):
        usd(value)


def test_usd_json_rejects_amounts_beyond_a_double():
    assert usd_json(Fraction(10**300)) == 1e300
    with pytest.raises(ValueError):
        usd_json(Fraction(10**400))


def test_usd_reads_every_literal_form():
    assert usd("2.5e-3") == usd(Decimal("0.0025")) == usd(0.0025) == Fraction(1, 400)
    assert usd("1/2") == Fraction(1, 2)
    assert usd(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    for bad in ("nan", "-inf", "abc", "1/0x"):
        with pytest.raises(ValueError):
            usd(bad)


@pytest.mark.parametrize("value", ["1e9999999", "-1E+2000000", "1e-9999999", "0e9999999", f"1e{MAX_EXPONENT + 1}",
                                   Decimal("2e-9999999")])
def test_usd_refuses_huge_exponents(value):
    with pytest.raises(ValueError, match="exponent"):
        usd(value)


# units reads its numbers through money, the one exact reader, and loads nothing else.
@pytest.mark.parametrize("module,below", [("faasim.money", []), ("faasim.units", ["faasim.money"])],
                         ids=["faasim.money", "faasim.units"])
def test_leaf_module_imports_no_other_faasim_module(module, below):
    src = str(Path(faasim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = f"import sys, {module}; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'faasim')))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout.split() == sorted(["faasim", module, *below])


def test_breakeven_duty_cycle():
    duty = breakeven_duty_cycle(7.5)
    assert duty == Fraction(2, 15)
    assert abs(float(duty) - 0.1333) < 1e-3
    assert breakeven_duty_cycle(1) == 1
    with pytest.raises(ValueError):
        breakeven_duty_cycle(0)
