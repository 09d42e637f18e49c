"""Exact integer views of float quantities.

Optimizers here promise exact optimality with deterministic tie-breaking, and
tests hold them to exact equality against brute-force oracles. Comparing
accumulated float sums cannot honor that: addition order perturbs ties. Every
finite float is a dyadic rational, so a family of floats can be rewritten as
integers over one shared power-of-two denominator; integer sums are exact and
order-free, and converting a final sum back by int true division, which
CPython rounds correctly, yields the correctly rounded float regardless of
how the optimum was assembled.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import FloatRangeExceeded


def scale_to_integers(values: Iterable[float]) -> tuple[list[int], int]:
    """Rewrite floats exactly as (numerators, common power-of-two denominator)."""
    ratios = []
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {v!r} cannot be scaled exactly")
        ratios.append(float(v).as_integer_ratio())
    if not ratios:
        return [], 1
    # float denominators are powers of two, so the lcm is just the max
    common = max(den for _, den in ratios)
    return [num * (common // den) for num, den in ratios], common


def integer_sum_to_float(total: int, denominator: int) -> float:
    """Correctly rounded float of the exact rational total/denominator;
    FloatRangeExceeded where that is beyond the largest float."""
    try:
        return total / denominator
    except OverflowError:
        raise FloatRangeExceeded("an exact sum is beyond the float range") from None


def quantize_hundredths(values: Sequence[float], what: str) -> list[int]:
    """Convert values to integer hundredths, rejecting finer precision.

    Cost-like quantities are contracted to at most two decimal places; anything
    finer is an input mistake we refuse to round silently. So is a value
    whose hundredths overflow a float.
    """
    out = []
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite {what} {v!r}")
        scaled = v * 100.0
        if not math.isfinite(scaled):
            raise ValueError(f"{what} {v!r} is too large to count in hundredths")
        nearest = round(scaled)
        if abs(scaled - nearest) > 1e-6:
            raise ValueError(f"{what} {v!r} has more than two decimal places")
        out.append(int(nearest))
    return out
