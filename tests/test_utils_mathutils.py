"""Unit tests for repro.utils.mathutils."""

import math

import pytest

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


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(8, 2) == 4

    def test_rounds_up(self):
        assert ceil_div(7, 2) == 4
        assert ceil_div(1, 128) == 1

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_large_values(self):
        assert ceil_div(25088, 128) == 196  # VGG16 fc6 row tiling

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_rejects_negative_numerator(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 2)

    def test_matches_math_ceil(self):
        for n in range(0, 50):
            for d in range(1, 20):
                assert ceil_div(n, d) == math.ceil(n / d)


class TestClamp:
    def test_inside(self):
        assert clamp(0.25, 0.1, 0.4) == 0.25

    def test_below(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)


class TestPowersOfTwo:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(128)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(3) == 4
        assert next_power_of_two(128) == 128
        assert next_power_of_two(129) == 256

    def test_next_power_handles_zero(self):
        assert next_power_of_two(0) == 1


class TestOrderedSum:
    def test_adds_left_to_right(self):
        """Builtin ``sum()`` is compensated from Python 3.12 on (it
        gives 1.0 here); the helper adds one term at a time on every
        version, as the array kernels do."""
        assert ordered_sum([0.1] * 10) == 0.9999999999999999

    def test_matches_a_written_out_loop(self):
        values = [1e16, 1.0, 1.0, 1.0, -1e16, 0.1, 0.2]
        total = 0.0
        for value in values:
            total = total + value
        assert ordered_sum(values) == total
        assert ordered_sum(iter(values)) == total

    def test_empty_is_float_zero(self):
        assert ordered_sum([]) == 0.0
        assert isinstance(ordered_sum([]), float)


class TestStatistics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev_constant_is_zero(self):
        assert stdev([5.0, 5.0, 5.0]) == 0.0

    def test_stdev_population_form(self):
        # population stdev of [1, 3] is 1, sample stdev would be sqrt(2)
        assert stdev([1.0, 3.0]) == pytest.approx(1.0)

    def test_stdev_single_element(self):
        assert stdev([42.0]) == 0.0

    def test_stdev_empty_rejected(self):
        with pytest.raises(ValueError):
            stdev([])

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
        with pytest.raises(ValueError):
            geomean([])
