"""Integer and statistics helpers used throughout the synthesis flow.

The paper's equations are dominated by ceilings (crossbar-set sizing,
pipeline step counts) and population statistics (the SA energy function of
Eq. 4 uses standard deviations), so these helpers are kept dependency-free
and exact for integers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def ceil_div(numerator: int, denominator: int) -> int:
    """Exact integer ceiling division.

    Used for every ``ceil(x / y)`` in the paper (Eq. 1, step counts,
    bit-serial iteration counts).

    >>> ceil_div(7, 2)
    4
    >>> ceil_div(8, 2)
    4
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval ``[low, high]``."""
    if low > high:
        raise ValueError(f"empty interval [{low}, {high}]")
    return max(low, min(high, value))


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def next_power_of_two(value: int) -> int:
    """Smallest power of two that is >= ``value`` (>=1)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, ``((0.0 + v0) + v1) + ...``.

    The array kernels add cross-layer terms in layer order, one add at
    a time, and the scalar oracle must add the same way to stay
    bit-identical to them. Builtin :func:`sum` did so for floats until
    Python 3.12, which made it compensated: ``sum([0.1] * 10)`` is
    ``1.0`` there but ``0.9999999999999999`` left to right. Float sums
    that a kernel reproduces go through this helper instead; integer
    sums are exact either way and keep :func:`sum`.

    >>> ordered_sum([0.1] * 10)
    0.9999999999999999
    """
    total = 0.0
    for value in values:
        total += value
    return total


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on an empty iterable."""
    data = list(values)
    if not data:
        raise ValueError("mean of empty sequence")
    return sum(data) / len(data)


def stdev(values: Iterable[float]) -> float:
    """Population standard deviation, as used by the SA energy (Eq. 4).

    The paper's ``stdev`` balances per-layer quantities across *all*
    layers, so the population (not sample) form is the natural choice;
    a single-layer network legitimately has zero spread.
    """
    data = list(values)
    if not data:
        raise ValueError("stdev of empty sequence")
    mu = ordered_sum(data) / len(data)
    return math.sqrt(ordered_sum((x - mu) ** 2 for x in data) / len(data))


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (used for 'average improvement')."""
    data = list(values)
    if not data:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in data):
        raise ValueError("geomean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in data) / len(data))
