"""Tensorized evaluation of the outer DSE task grid.

PR 3 flattened the EA's *inner* loop into ``(population, layers)``
arrays (:mod:`repro.core.batch_eval`); this module applies the same move
to the *outer* (design point x WtDup x ResDAC) task walk. Before any EA
launches, the executor needs every task's analytical throughput upper
bound (:func:`repro.core.evaluator.throughput_upper_bound`) to order the
queue and prune dominated tasks — per task, the scalar path rebuilds a
full :class:`~repro.ir.builder.DataflowSpec` (re-materializing every
layer's crossbar tiling) just to read a handful of per-layer integers.
Profiling shows that listcomp dominating cold synthesis now that the EA
itself is batched.

:class:`GridBoundEvaluator` instead assembles one ``(tasks, layers)``
:class:`~repro.core.backend.TaskGrid` and hands it to the numpy kernel
:func:`~repro.core.backend.compute_bounds`:

- the crossbar tiling (``set``, row tiles, bit slices) depends only on
  ``(layer, XbSize, ResRram)`` — never on WtDup or ResDAC — so it is
  materialized once per outer combo and broadcast over every task that
  shares it, instead of once per task;
- the per-layer ADC resolution/power and the per-crossbar DAC/S&H fixed
  cost depend only on ``(XbSize, ResRram, ResDAC)`` and are likewise
  cached per combo, computed through the *real* scalar functions
  (:func:`repro.hardware.crossbar.required_adc_resolution`,
  ``HardwareParams.adc_power_of`` / ``dac_power_of``) so a component-
  model change propagates into the grid path automatically;
- everything WtDup-dependent (block counts, per-block operands, rule-c
  group caps, Eq. 5 conversion workloads) is exact int64 arithmetic on
  the assembled arrays.

Exactness contract
------------------
Identical to :mod:`repro.core.batch_eval`'s: the kernel replicates the
scalar oracle's IEEE-754 float64 operation order (ordered layer-axis
reductions, left-associated products, exact integer intermediates), so
``bounds(tasks)[i]`` is bit-identical — ``==``, not merely close — to
``_TaskRunner.throughput_bound(tasks[i])`` for every task.
``tests/test_grid_eval_differential`` pins this across the model zoo;
the executor's pruning decisions (exact float comparisons against the
incumbent) therefore cannot differ between the tensorized and the
per-task walk.

Without numpy (:func:`repro.core.backend.numpy_available` is False)
the executor bounds tasks one at a time through the scalar walk
instead — same bounds, slower.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.core.backend import TaskGrid, compute_bounds, numpy_module
from repro.core.config import SynthesisConfig
from repro.hardware.crossbar import (
    crossbar_tiling_summary,
    required_adc_resolution,
)
from repro.nn.model import CNNModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import EvaluationTask


class GridBoundEvaluator:
    """Computes pruning bounds for whole task queues in one pass.

    One instance serves one ``(model, config)`` pair — the same pairing
    a :class:`~repro.core.executor._TaskRunner` owns — and caches every
    task-independent quantity across calls, so re-bounding a queue
    (e.g. phase 1 and phase 2 of pareto mode) only pays for the
    WtDup-dependent arrays.
    """

    def __init__(self, model: CNNModel, config: SynthesisConfig) -> None:
        np = numpy_module()
        if np is None:
            raise RuntimeError(
                "grid evaluation requires numpy; gate on "
                "repro.core.backend.numpy_available() before "
                "constructing"
            )
        self.model = model
        self.config = config
        self.params = config.params
        layers = model.weighted_layers
        self._num_layers = len(layers)
        # Static per-layer geometry (mirrors DataflowSpec.__post_init__).
        rows: List[int] = []
        cols: List[int] = []
        out_positions: List[int] = []
        for layer in layers:
            assert layer.output_shape is not None
            _, ho, wo = layer.output_shape
            n_cols = getattr(layer, "out_channels", None)
            if n_cols is None:
                n_cols = layer.out_features  # type: ignore[attr-defined]
            rows.append(layer.weight_rows)  # type: ignore[attr-defined]
            cols.append(n_cols)
            out_positions.append(ho * wo)
        self._rows = np.asarray(rows, dtype=np.int64)
        self._cols = np.asarray(cols, dtype=np.int64)
        self._out_positions = np.asarray(out_positions, dtype=np.int64)
        self._vector_ops = np.asarray(
            model.vector_op_workloads(), dtype=np.float64
        )
        # Scalar constants, in the scalar code's own expressions.
        self._act_bytes = model.act_precision / 8.0
        self._per_macro_fixed = (
            self.params.edram_power + self.params.noc_power
            + self.params.register_power_per_macro
        )
        n_layers = self._num_layers
        self._min_macros = (
            -(-n_layers // 2) if config.enable_macro_sharing else n_layers
        )
        # Per-combo caches (the whole point of the grid walk: tilings
        # and ADC tables are shared by every task of a combo).
        self._tilings: Dict[Tuple[int, int], Tuple] = {}
        self._adc_power: Dict[Tuple[int, int, int], "object"] = {}
        self._per_crossbar: Dict[Tuple[int, int], float] = {}
        self._bits: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Per-combo quantities
    # ------------------------------------------------------------------
    def _tiling(self, xb_size: int, res_rram: int):
        """(set_size, row_tiles, bit_slices) arrays for one combo."""
        key = (xb_size, res_rram)
        cached = self._tilings.get(key)
        if cached is None:
            np = numpy_module()
            sets: List[int] = []
            row_tiles: List[int] = []
            bit_slices: List[int] = []
            for layer in self.model.weighted_layers:
                tiling = crossbar_tiling_summary(
                    layer, xb_size, res_rram,
                    self.model.weight_precision,
                )
                sets.append(tiling.num_crossbars)
                row_tiles.append(tiling.row_tiles)
                bit_slices.append(tiling.bit_slices)
            cached = (
                np.asarray(sets, dtype=np.int64),
                np.asarray(row_tiles, dtype=np.int64),
                np.asarray(bit_slices, dtype=np.int64),
            )
            self._tilings[key] = cached
        return cached

    def _adc_power_row(
        self, xb_size: int, res_rram: int, res_dac: int
    ):
        """Per-layer ADC power at the lossless-readout resolution."""
        key = (xb_size, res_rram, res_dac)
        cached = self._adc_power.get(key)
        if cached is None:
            np = numpy_module()
            adc_lo, adc_hi = self.params.adc_resolution_range
            cached = np.asarray([
                self.params.adc_power_of(
                    required_adc_resolution(
                        min(xb_size, int(n_rows)), res_rram, res_dac,
                        min_resolution=adc_lo, max_resolution=adc_hi,
                    )
                )
                for n_rows in self._rows
            ], dtype=np.float64)
            self._adc_power[key] = cached
        return cached

    def _per_crossbar_fixed(self, xb_size: int, res_dac: int) -> float:
        """DAC + sample-hold power of one crossbar (fixed overhead)."""
        key = (xb_size, res_dac)
        cached = self._per_crossbar.get(key)
        if cached is None:
            cached = xb_size * (
                self.params.dac_power_of(res_dac)
                + self.params.sample_hold_power
            )
            self._per_crossbar[key] = cached
        return cached

    def _bits_of(self, res_dac: int) -> int:
        """ceil(PrecAct / ResDAC) — DataflowSpec.bits."""
        cached = self._bits.get(res_dac)
        if cached is None:
            cached = -(-self.model.act_precision // res_dac)
            self._bits[res_dac] = cached
        return cached

    # ------------------------------------------------------------------
    # Grid assembly + evaluation
    # ------------------------------------------------------------------
    def build_grid(self, tasks: Sequence["EvaluationTask"]) -> TaskGrid:
        """Assemble the ``(tasks, layers)`` arrays for one queue."""
        np = numpy_module()
        n_tasks = len(tasks)
        n_layers = self._num_layers
        wt_dup = np.empty((n_tasks, n_layers), dtype=np.int64)
        set_size = np.empty((n_tasks, n_layers), dtype=np.int64)
        row_tiles = np.empty((n_tasks, n_layers), dtype=np.int64)
        bit_slices = np.empty((n_tasks, n_layers), dtype=np.int64)
        adc_power = np.empty((n_tasks, n_layers), dtype=np.float64)
        bits = np.empty(n_tasks, dtype=np.int64)
        per_crossbar = np.empty(n_tasks, dtype=np.float64)
        peripheral = np.empty(n_tasks, dtype=np.float64)
        total_power = self.config.total_power
        for t, task in enumerate(tasks):
            point = task.point
            sets, tiles, slices = self._tiling(
                point.xb_size, point.res_rram
            )
            wt_dup[t] = task.wt_dup
            set_size[t] = sets
            row_tiles[t] = tiles
            bit_slices[t] = slices
            adc_power[t] = self._adc_power_row(
                point.xb_size, point.res_rram, task.res_dac
            )
            bits[t] = self._bits_of(task.res_dac)
            per_crossbar[t] = self._per_crossbar_fixed(
                point.xb_size, task.res_dac
            )
            # PowerBudget.peripheral_power, verbatim.
            peripheral[t] = total_power * (1.0 - point.ratio_rram)

        # WtDup-dependent geometry (LayerGeometry properties, exact
        # int64 — every product stays far below 2**63, and int -> float
        # conversions round identically to Python's).
        total_blocks = -(-self._out_positions[None, :] // wt_dup)
        inputs_per_block = wt_dup * self._rows[None, :]
        outputs_per_block = wt_dup * self._cols[None, :]
        crossbars = wt_dup * set_size
        conversions_per_block_bit = (
            wt_dup * row_tiles * bit_slices * self._cols[None, :]
        )
        group_cap = np.minimum(wt_dup * row_tiles, crossbars)

        return TaskGrid(
            total_blocks=total_blocks,
            inputs_per_block=inputs_per_block,
            outputs_per_block=outputs_per_block,
            group_cap=group_cap,
            crossbars=crossbars,
            conversions_per_block_bit=conversions_per_block_bit,
            bits=bits,
            adc_power=adc_power,
            vector_ops=self._vector_ops,
            per_crossbar_fixed=per_crossbar,
            peripheral_power=peripheral,
            crossbar_latency=self.params.crossbar_latency,
            act_bytes=self._act_bytes,
            edram_bandwidth=self.params.edram_bandwidth,
            per_macro_fixed=self._per_macro_fixed,
            adc_sample_rate=self.params.adc_sample_rate,
            alu_power=self.params.alu_power,
            alu_frequency=self.params.alu_frequency,
            min_macros=self._min_macros,
            macro_sharing=self.config.enable_macro_sharing,
        )

    def bounds_array(self, tasks: Sequence["EvaluationTask"]):
        """Per-task bounds as a float64 array."""
        np = numpy_module()
        if not tasks:
            return np.zeros(0, dtype=np.float64)
        return compute_bounds(self.build_grid(tasks))

    def bounds(self, tasks: Sequence["EvaluationTask"]) -> List[float]:
        """Per-task bounds as Python floats (positionally aligned).

        Bit-identical to ``[_TaskRunner.throughput_bound(t) for t in
        tasks]`` — the differential suite's core claim.
        """
        return [float(value) for value in self.bounds_array(tasks)]
