"""Shared small utilities beneath the synthesis flow.

:mod:`repro.utils.mathutils` carries the integer ceiling/power-of-two
arithmetic that Eq. 1's crossbar-set math and the Table I grids lean
on; :mod:`repro.utils.rng` provides the label-split seeded RNG scheme
that makes Alg. 1's stochastic stages (SA filter, EA) reproducible and
order-independent — the property the parallel DSE executor relies on.
"""

from repro.utils.mathutils import (
    ceil_div,
    clamp,
    geomean,
    is_power_of_two,
    mean,
    next_power_of_two,
    ordered_sum,
    stdev,
)
from repro.utils.rng import SeedSequence, make_rng, randbelow

__all__ = [
    "ceil_div",
    "clamp",
    "geomean",
    "is_power_of_two",
    "mean",
    "next_power_of_two",
    "ordered_sum",
    "stdev",
    "SeedSequence",
    "make_rng",
    "randbelow",
]
