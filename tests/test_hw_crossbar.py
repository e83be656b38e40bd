"""Unit tests for Eq. 1 crossbar-set math and weight mapping."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError
from repro.hardware.crossbar import (
    CrossbarTile,
    crossbar_set_size,
    crossbar_tiling_summary,
    crossbars_for_layer,
    map_layer_weights,
    required_adc_resolution,
)
from repro.nn.layers import ConvLayer, FCLayer, PoolLayer


def _conv(ci, co, kernel=3):
    return ConvLayer(name="c", inputs=("input",), kernel=kernel,
                     in_channels=ci, out_channels=co)


class TestEq1:
    def test_small_layer_single_tile(self):
        # 3x3x3=27 rows, 64 cols at 128 crossbar: 1x1 tiles, 8 slices
        assert crossbar_set_size(_conv(3, 64), 128, 2, 16) == 8

    def test_row_tiling(self):
        # 3x3x64=576 rows -> ceil(576/128)=5 row tiles
        assert crossbar_set_size(_conv(64, 64), 128, 2, 16) == 5 * 1 * 8

    def test_col_tiling(self):
        # 512 cols at 128 -> 4 col tiles
        assert crossbar_set_size(_conv(3, 512), 128, 2, 16) == 1 * 4 * 8

    def test_bit_slicing_factor(self):
        layer = _conv(3, 64)
        assert crossbar_set_size(layer, 128, 1, 16) == 16
        assert crossbar_set_size(layer, 128, 2, 16) == 8
        assert crossbar_set_size(layer, 128, 4, 16) == 4

    def test_fc_layer(self):
        fc = FCLayer(name="f", inputs=("input",), in_features=25088,
                     out_features=4096)
        # 196 row tiles x 32 col tiles x 8 slices (VGG16 fc6 at 128/2)
        assert crossbar_set_size(fc, 128, 2, 16) == 196 * 32 * 8

    def test_larger_crossbar_needs_fewer(self):
        layer = _conv(64, 512)
        assert crossbar_set_size(layer, 512, 2, 16) < crossbar_set_size(
            layer, 128, 2, 16
        )

    def test_duplication_multiplies(self):
        layer = _conv(3, 64)
        assert crossbars_for_layer(layer, 5, 128, 2, 16) == \
            5 * crossbar_set_size(layer, 128, 2, 16)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            crossbar_set_size(_conv(3, 64), 0, 2)
        with pytest.raises(ConfigurationError):
            crossbar_set_size(_conv(3, 64), 128, 0)
        with pytest.raises(ConfigurationError):
            crossbars_for_layer(_conv(3, 64), 0, 128, 2)


class TestAdcResolution:
    def test_isaac_design_point(self):
        # ISAAC: 128 rows, 2-bit cells, 1-bit DAC -> its 8-bit ADC.
        assert required_adc_resolution(128, 2, 1) == 8

    def test_scaling_with_rows(self):
        assert required_adc_resolution(512, 1, 1) == 9

    def test_floor_clamp(self):
        assert required_adc_resolution(2, 1, 1) == 7  # library floor

    def test_ceiling_clamp(self):
        assert required_adc_resolution(512, 4, 4) == 14

    def test_monotone_in_resolutions(self):
        base = required_adc_resolution(128, 1, 1)
        assert required_adc_resolution(128, 2, 1) >= base
        assert required_adc_resolution(128, 1, 2) >= base

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            required_adc_resolution(0, 2, 1)
        with pytest.raises(ConfigurationError):
            required_adc_resolution(128, 0, 1)


class TestWeightMapping:
    def test_tile_count_matches_eq1(self):
        for layer in (_conv(3, 64), _conv(64, 512), _conv(128, 128, 1)):
            for xb in (128, 256, 512):
                for res in (1, 2, 4):
                    tiling = map_layer_weights(layer, xb, res, 16)
                    assert tiling.num_crossbars == crossbar_set_size(
                        layer, xb, res, 16
                    )

    def test_tiles_cover_all_rows_and_cols(self):
        layer = _conv(64, 200)
        tiling = map_layer_weights(layer, 128, 2, 16)
        rows = {(t.row_start, t.row_end) for t in tiling.tiles}
        covered = sorted(rows)
        assert covered[0][0] == 0
        assert covered[-1][1] == layer.weight_rows
        cols = sorted({(t.col_start, t.col_end) for t in tiling.tiles})
        assert cols[0][0] == 0
        assert cols[-1][1] == 200

    def test_tiles_within_crossbar_bounds(self):
        tiling = map_layer_weights(_conv(64, 200), 128, 2, 16)
        for tile in tiling.tiles:
            assert 0 < tile.rows <= 128
            assert 0 < tile.cols <= 128

    def test_bit_slices_counted(self):
        tiling = map_layer_weights(_conv(3, 8), 128, 4, 16)
        assert tiling.bit_slices == 4

    def test_row_col_tile_properties(self):
        tiling = map_layer_weights(_conv(64, 200), 128, 2, 16)
        assert tiling.row_tiles == 5  # 576 / 128
        assert tiling.col_tiles == 2  # 200 / 128

    def test_tiles_cover_each_weight_once_per_slice(self):
        layer = _conv(64, 200)
        tiling = map_layer_weights(layer, 128, 2, 16)
        for bit_slice in range(tiling.bit_slices):
            cover = np.zeros((layer.weight_rows, 200), dtype=int)
            for tile in tiling.tiles:
                if tile.bit_slice == bit_slice:
                    cover[tile.row_start:tile.row_end,
                          tile.col_start:tile.col_end] += 1
            assert np.all(cover == 1)

    def test_tiles_listed_bit_slice_major(self):
        tiling = map_layer_weights(_conv(64, 200), 128, 4, 16)
        order = [(t.bit_slice, t.row_start, t.col_start)
                 for t in tiling.tiles]
        assert order == sorted(order)
        assert len(set(order)) == len(order)

    def test_fc_layer_rows_are_input_features(self):
        fc = FCLayer(name="f", inputs=("input",), in_features=300,
                     out_features=10)
        tiling = map_layer_weights(fc, 128, 2, 16)
        assert (tiling.row_tiles, tiling.col_tiles) == (3, 1)
        last = max(tiling.tiles, key=lambda t: t.row_start)
        assert (last.row_start, last.row_end) == (256, 300)
        assert (last.col_start, last.col_end) == (0, 10)

    def test_uneven_bit_slicing_rounds_up(self):
        layer = _conv(3, 64)
        assert crossbar_set_size(layer, 128, 3, 16) == 6
        tiling = map_layer_weights(layer, 128, 3, 16)
        assert tiling.bit_slices == 6
        assert tiling.num_crossbars == 6

    def test_set_records_its_mapping(self):
        tiling = map_layer_weights(_conv(3, 64), 256, 4, 8)
        assert tiling.layer_name == "c"
        assert (tiling.xb_size, tiling.res_rram,
                tiling.weight_precision) == (256, 4, 8)

    def test_non_weighted_layer_rejected(self):
        pool = PoolLayer(name="p", inputs=("input",), kernel=2, stride=2)
        with pytest.raises(ModelError):
            crossbar_set_size(pool, 128, 2)
        with pytest.raises(ModelError):
            map_layer_weights(pool, 128, 2)
        with pytest.raises(ModelError):
            crossbar_tiling_summary(pool, 128, 2)

    def test_tiling_summary_rejects_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            crossbar_tiling_summary(_conv(3, 64), 0, 2)
        with pytest.raises(ConfigurationError):
            crossbar_tiling_summary(_conv(3, 64), 128, 0)


class TestCrossbarTile:
    def test_extents_are_half_open(self):
        tile = CrossbarTile(row_start=128, row_end=200, col_start=0,
                            col_end=128, bit_slice=3)
        assert (tile.rows, tile.cols) == (72, 128)
