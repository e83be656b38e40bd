"""Tests for the functional analog crossbar model.

These verify the paper's §III correctness claim: with the minimum ADC
resolution, the bit-sliced / bit-serial crossbar path is bit-exact
against the integer MVM, for every configuration in the design space —
and loses accuracy as soon as the resolution drops below the minimum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hardware.analog import (
    adc_quantize,
    convolution_via_crossbar,
    crossbar_mvm,
    reference_mvm,
    slice_activations,
    slice_weights,
)
from repro.hardware.crossbar import map_layer_weights
from repro.nn.layers import ConvLayer


def _random_case(rng, rows, cols, weight_precision, act_precision):
    weights = rng.integers(0, 1 << weight_precision, size=(rows, cols))
    activations = rng.integers(0, 1 << act_precision, size=rows)
    return weights, activations


class TestSlicing:
    def test_weight_slices_reconstruct(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(0, 1 << 16, size=(8, 4))
        slices = slice_weights(weights, 2, 16)
        assert len(slices) == 8
        rebuilt = sum(
            s.astype(np.int64) << (2 * k) for k, s in enumerate(slices)
        )
        np.testing.assert_array_equal(rebuilt, weights)

    def test_slice_values_in_cell_range(self):
        rng = np.random.default_rng(1)
        weights = rng.integers(0, 1 << 16, size=(8, 4))
        for res in (1, 2, 4):
            for s in slice_weights(weights, res, 16):
                assert np.all(s >= 0)
                assert np.all(s < (1 << res))

    def test_activation_groups_reconstruct(self):
        rng = np.random.default_rng(2)
        acts = rng.integers(0, 1 << 16, size=32)
        groups = slice_activations(acts, 4, 16)
        assert len(groups) == 4
        rebuilt = sum(
            g.astype(np.int64) << (4 * k) for k, g in enumerate(groups)
        )
        np.testing.assert_array_equal(rebuilt, acts)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            slice_weights(np.array([[-1]]), 2, 16)

    def test_overrange_rejected(self):
        with pytest.raises(ConfigurationError):
            slice_weights(np.array([[1 << 16]]), 2, 16)
        with pytest.raises(ConfigurationError):
            slice_activations(np.array([1 << 8]), 2, 8)


class TestAdcQuantize:
    def test_passthrough_in_range(self):
        sums = np.array([0, 100, 255])
        np.testing.assert_array_equal(adc_quantize(sums, 8), sums)

    def test_saturation(self):
        sums = np.array([256, 1000])
        np.testing.assert_array_equal(
            adc_quantize(sums, 8), np.array([255, 255])
        )

    def test_bad_resolution_rejected(self):
        with pytest.raises(ConfigurationError):
            adc_quantize(np.array([1]), 0)


class TestCrossbarMvmExactness:
    @pytest.mark.parametrize("res_rram", [1, 2, 4])
    @pytest.mark.parametrize("res_dac", [1, 2, 4])
    def test_exact_for_all_design_space_points(self, res_rram, res_dac):
        """The §III claim across the whole ResRram x ResDAC grid."""
        rng = np.random.default_rng(42)
        weights, acts = _random_case(rng, 64, 16, 16, 16)
        result = crossbar_mvm(weights, acts, res_rram, res_dac, 16, 16)
        np.testing.assert_array_equal(
            result, reference_mvm(weights, acts)
        )

    def test_row_tiling_exact(self):
        """Row tiling + digital merge (Fig. 1 multi-crossbar sets)."""
        rng = np.random.default_rng(7)
        weights, acts = _random_case(rng, 300, 8, 16, 16)
        tiled = crossbar_mvm(weights, acts, 2, 1, 16, 16, xb_size=128)
        np.testing.assert_array_equal(
            tiled, reference_mvm(weights, acts)
        )

    def test_insufficient_adc_resolution_loses_accuracy(self):
        """Dropping below the minimum resolution must corrupt results —
        this is the failure mode the paper's rule prevents."""
        rng = np.random.default_rng(3)
        # All-max weights and activations guarantee saturation.
        weights = np.full((128, 4), (1 << 16) - 1, dtype=np.int64)
        acts = np.full(128, (1 << 16) - 1, dtype=np.int64)
        exact = crossbar_mvm(weights, acts, 2, 1, 16, 16)
        lossy = crossbar_mvm(
            weights, acts, 2, 1, 16, 16, adc_resolution=4
        )
        np.testing.assert_array_equal(exact, reference_mvm(weights,
                                                           acts))
        assert np.any(lossy != exact)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            crossbar_mvm(np.zeros((4,)), np.zeros(4), 2, 1)
        with pytest.raises(ConfigurationError):
            crossbar_mvm(np.zeros((4, 2)), np.zeros(3), 2, 1)

    @given(
        st.integers(1, 64),  # rows
        st.integers(1, 8),  # cols
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 4]),
        st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_bit_exact(self, rows, cols, res_rram, res_dac,
                                seed):
        rng = np.random.default_rng(seed)
        weights, acts = _random_case(rng, rows, cols, 8, 8)
        result = crossbar_mvm(weights, acts, res_rram, res_dac, 8, 8)
        np.testing.assert_array_equal(
            result, reference_mvm(weights, acts)
        )

    def test_eq1_tiles_compute_the_layer_mvm(self):
        """Each Eq. 1 tile holds one bit slice of one weight block; the
        shifted sum of the tiles' products is the layer's integer MVM."""
        layer = ConvLayer(name="c", inputs=("input",), kernel=3,
                          in_channels=20, out_channels=40)
        res_rram, precision = 2, 8
        tiling = map_layer_weights(layer, 64, res_rram, precision)
        assert (tiling.row_tiles, tiling.col_tiles) == (3, 1)
        rng = np.random.default_rng(5)
        weights, acts = _random_case(rng, layer.weight_rows, 40,
                                     precision, precision)
        result = np.zeros(40, dtype=np.int64)
        for tile in tiling.tiles:
            block = weights[tile.row_start:tile.row_end,
                            tile.col_start:tile.col_end]
            cells = slice_weights(block, res_rram, precision)[
                tile.bit_slice
            ]
            partial = acts[tile.row_start:tile.row_end] @ cells
            result[tile.col_start:tile.col_end] += (
                partial << (tile.bit_slice * res_rram)
            )
        np.testing.assert_array_equal(result,
                                      reference_mvm(weights, acts))


class TestConvolutionEndToEnd:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(11)
        kernel = rng.integers(0, 256, size=(4, 3, 3, 3))
        fmap = rng.integers(0, 256, size=(3, 8, 8))
        via_crossbar = convolution_via_crossbar(
            kernel, fmap, res_rram=2, res_dac=1,
            weight_precision=8, act_precision=8, xb_size=16,
        )
        # Direct integer convolution as the gold reference.
        co, ci, wk, _ = kernel.shape
        out = np.zeros((co, 6, 6), dtype=np.int64)
        for o in range(co):
            for y in range(6):
                for x in range(6):
                    window = fmap[:, y:y + wk, x:x + wk]
                    out[o, y, x] = int(
                        (kernel[o].astype(np.int64) * window).sum()
                    )
        np.testing.assert_array_equal(via_crossbar, out)

    def test_output_shape(self):
        kernel = np.ones((2, 1, 3, 3), dtype=np.int64)
        fmap = np.ones((1, 5, 7), dtype=np.int64)
        result = convolution_via_crossbar(kernel, fmap,
                                          weight_precision=4,
                                          act_precision=4)
        assert result.shape == (2, 3, 5)
        # all-ones kernel over all-ones map: each output is 9
        assert np.all(result == 9)
