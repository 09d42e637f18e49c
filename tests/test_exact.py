"""Exact sums back to floats: integer_sum_to_float against Fraction and Decimal."""

import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from skillsgraph.errors import FloatRangeExceeded
from skillsgraph.exact import integer_sum_to_float, scale_to_integers


def decimal_float(total, denominator):
    """total / denominator through 1,500 significant digits, then float().

    For operands below 2**1300 the quotient lies at least 10**-800 (relative)
    from any halfway point between floats unless it is one, so rounding to
    1,500 digits first cannot move it across one; float() of a Decimal is
    correctly rounded, and inf past the float range.
    """
    with localcontext() as ctx:
        ctx.prec = 1500
        return float(Decimal(total) / Decimal(denominator))


def assert_correctly_rounded(total, denominator):
    want = decimal_float(total, denominator)
    if want in (float("inf"), float("-inf")):
        with pytest.raises(FloatRangeExceeded, match="float range"):
            integer_sum_to_float(total, denominator)
        return
    got = integer_sum_to_float(total, denominator)
    assert got == want == float(Fraction(total, denominator))
    assert str(got) == str(want)  # the sign of a zero too


def test_random_ratios_up_to_2_to_the_1200():
    rng = random.Random(31)
    for _ in range(5000):
        total = rng.getrandbits(rng.randint(1, 1200)) * rng.choice((1, -1))
        assert_correctly_rounded(total, rng.getrandbits(rng.randint(1, 1200)) + 1)


def test_power_of_two_denominators():
    # the denominators scale_to_integers hands out
    rng = random.Random(32)
    for _ in range(5000):
        values = [rng.uniform(-1e6, 1e6) * 2.0 ** rng.randint(-60, 60) for _ in range(rng.randint(1, 6))]
        numerators, denominator = scale_to_integers(values)
        assert_correctly_rounded(sum(numerators), denominator)
        assert integer_sum_to_float(sum(numerators), denominator) == float(sum(map(Fraction, values)))


def test_subnormal_results():
    rng = random.Random(33)
    smallest = 2.0 ** -1074
    for _ in range(3000):
        total = rng.getrandbits(rng.randint(1, 80)) + 1
        # quotients from below the smallest subnormal up into the normal range
        denominator = (1 << (1074 + total.bit_length() + rng.randint(-60, 2))) + rng.getrandbits(40)
        assert_correctly_rounded(total, denominator)
    assert integer_sum_to_float(1, 1 << 1074) == smallest
    assert integer_sum_to_float(1, 1 << 1075) == 0.0  # halfway: ties to even
    assert integer_sum_to_float(3, 1 << 1076) == smallest  # 0.75 of it: up


def test_huge_operands_with_a_float_quotient():
    rng = random.Random(34)
    for _ in range(3000):
        denominator = rng.getrandbits(rng.randint(1000, 1200)) + 1
        total = denominator * rng.getrandbits(rng.randint(1, 60)) + rng.getrandbits(900)
        assert_correctly_rounded(total, denominator)


def test_past_the_float_range():
    top = int(sys.float_info.max)
    ulp = 1 << 971  # the spacing of the largest floats
    assert integer_sum_to_float(top, 1) == sys.float_info.max
    assert integer_sum_to_float(top + ulp // 2 - 1, 1) == sys.float_info.max
    for total, denominator in ((top + ulp // 2, 1), (1 << 1024, 1), (-(1 << 1030), 3), ((1 << 1100) + 1, 1 << 70)):
        with pytest.raises(FloatRangeExceeded, match="float range"):
            integer_sum_to_float(total, denominator)
    rng = random.Random(35)
    for _ in range(500):
        denominator = rng.getrandbits(rng.randint(1, 200)) + 1
        assert_correctly_rounded(denominator * (1 << 1024) + rng.getrandbits(100), denominator)
