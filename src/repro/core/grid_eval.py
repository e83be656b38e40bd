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

- the crossbar tiling (``set``, row tiles, bit slices), the per-layer
  ADC resolution/power and the per-crossbar DAC/S&H fixed cost depend
  only on the task's ``(XbSize, ResRram, ResDAC)`` combo — never on
  WtDup — so they are materialized once per combo, through the *real*
  scalar functions (:func:`repro.hardware.crossbar.
  crossbar_tiling_summary`, :func:`~repro.hardware.crossbar.
  required_adc_resolution`, ``HardwareParams.adc_power_of`` /
  ``dac_power_of``), and gathered per task by one fancy index, so a
  component-model change propagates into the grid path automatically;
- everything WtDup-dependent (block counts, per-block operands, rule-c
  group caps, Eq. 5 conversion workloads) is exact int64 arithmetic on
  the assembled arrays.

The same grid feeds the population kernel. :meth:`GridBoundEvaluator.
population_context` turns a chunk's grid into the stacked
:class:`~repro.core.backend.PopulationContext` its lock-stepped EA or
NSGA-II launches score through, one row per task, in one ``(chunk,
layers)`` pass; a launch needs no spec and no scalar evaluator.

Exactness contract
------------------
Identical to :mod:`repro.core.batch_eval`'s: the kernel replicates the
scalar oracle's IEEE-754 float64 operation order (ordered layer-axis
reductions, left-associated products, exact integer intermediates), so
``bounds(tasks)[i]`` is bit-identical — ``==``, not merely close — to
``_TaskRunner.throughput_bound(tasks[i])`` for every task, and every
context column is the one the scalar oracle's helpers give that task.
``tests/test_grid_eval_differential`` pins both across the model zoo;
the executor's pruning decisions (exact float comparisons against the
incumbent) therefore cannot differ between the tensorized and the
per-task walk.

Without numpy (:func:`repro.core.backend.numpy_available` is False)
the executor bounds tasks one at a time through the scalar walk, and
its launches score genes through the scalar oracle — same values,
slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.backend import (
    PopulationContext,
    TaskGrid,
    compute_bounds,
    numpy_module,
    row_sums,
)
from repro.core.config import SynthesisConfig
from repro.hardware.crossbar import (
    crossbar_tiling_summary,
    required_adc_resolution,
)
from repro.nn.model import CNNModel
from repro.nn.workload import model_macs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import EvaluationTask


@dataclass(frozen=True, eq=False)
class ModelContext:
    """The model-level half of a scoring context, shared by every task.

    The inter-layer edge structure (``interlayer_edges()`` order) as the
    gene-free index arrays :class:`~repro.core.backend.PopulationContext`
    shares across its rows, and ``2 * MACs``. None of it depends on a
    task, so a :class:`GridBoundEvaluator` builds it once and every
    context it builds shares these arrays by identity.
    ``lat_consumer`` holds each ``lat_*`` edge's consumer, for the
    per-task pipeline fractions.
    """

    model: CNNModel
    comm_producer: "object"  # (E,) int64
    comm_consumer: "object"  # (E,) int64
    lat_producer: "object"  # (E,) int64
    lat_consumer: "object"  # (E,) int64
    out_slots: Tuple[Tuple["object", "object"], ...]
    levels: Tuple[Tuple["object", "object", "object"], ...]
    macs2: float

    @classmethod
    def of(cls, model: CNNModel) -> "ModelContext":
        """Build ``model``'s context from two CSR walks over its edges:
        producer-major for transfers (the §IV-B accumulation order),
        consumer-major for the latency forward pass. Needs numpy."""
        np = numpy_module()
        n = model.num_weighted_layers
        consumer_lists: Dict[int, List[int]] = {}
        producer_of: Dict[int, List[int]] = {}
        for producer, consumer in model.interlayer_edges():
            consumer_lists.setdefault(producer, []).append(consumer)
            producer_of.setdefault(consumer, []).append(producer)
        producers_of = tuple(
            tuple(producer_of.get(idx, ())) for idx in range(n)
        )
        comm_offsets = np.zeros(n + 1, dtype=np.int64)
        comm_consumer: List[int] = []
        for producer in range(n):
            comm_consumer.extend(consumer_lists.get(producer, []))
            comm_offsets[producer + 1] = len(comm_consumer)
        lat_offsets = np.zeros(n + 1, dtype=np.int64)
        lat_producer: List[int] = []
        for idx, producers in enumerate(producers_of):
            lat_producer.extend(producers)
            lat_offsets[idx + 1] = len(lat_producer)
        lat_producer = np.asarray(lat_producer, dtype=np.int64)

        # Out-edge slots for the transfer fold, topological levels for
        # the latency pass.
        out_degree = np.diff(comm_offsets)
        out_slots = []
        for slot in range(int(out_degree.max(initial=0))):
            producers = np.flatnonzero(out_degree > slot)
            out_slots.append((producers, comm_offsets[producers] + slot))
        level = [0] * n
        for idx in range(n):  # weighted layers are in topological order
            for producer in producers_of[idx]:
                level[idx] = max(level[idx], level[producer] + 1)
        levels = []
        for depth in range(1, max(level, default=0) + 1):
            consumers = np.flatnonzero(np.asarray(level) == depth)
            in_edges = [
                range(lat_offsets[idx], lat_offsets[idx + 1])
                for idx in consumers
            ]
            width = max(len(edges) for edges in in_edges)
            # A short in-edge list repeats its first edge: max-neutral.
            edges = np.array(
                [[e[d] if d < len(e) else e[0] for e in in_edges]
                 for d in range(width)],
                dtype=np.int64,
            )
            levels.append((consumers, lat_producer[edges], edges))
        return cls(
            model=model,
            comm_producer=np.repeat(
                np.arange(n, dtype=np.int64), out_degree
            ),
            comm_consumer=np.asarray(comm_consumer, dtype=np.int64),
            lat_producer=lat_producer,
            lat_consumer=np.repeat(
                np.arange(n, dtype=np.int64), np.diff(lat_offsets)
            ),
            out_slots=tuple(out_slots),
            levels=tuple(levels),
            macs2=2.0 * model_macs(model),
        )


class GridBoundEvaluator:
    """Computes pruning bounds for whole task queues in one pass, and
    the stacked population contexts of a queue's chunks.

    One instance serves one ``(model, config)`` pair — the same pairing
    a :class:`~repro.core.executor._TaskRunner` owns, and the runner
    keeps one for both uses — and caches every task-independent
    quantity across calls, so re-bounding a queue (e.g. phase 1 and
    phase 2 of pareto mode) or building a chunk's context only pays for
    the WtDup-dependent arrays. ``config`` supplies the hardware
    ``params``, ``total_power``, ``enable_macro_sharing`` and
    ``specialized_macros``.
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
        self.model_context = ModelContext.of(model)
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
        # Each in-edge's model-level terms of DataflowBuilder.
        # producer_block_for: the producer-to-consumer position scale
        # and the producer's one-row halo.
        producers = self.model_context.lat_producer.tolist()
        consumers = self.model_context.lat_consumer.tolist()
        self._lat_scale = np.asarray([
            out_positions[p] / out_positions[c]
            for p, c in zip(producers, consumers)
        ], dtype=np.float64)
        self._lat_halo = np.asarray([
            int(math.sqrt(out_positions[p])) for p in producers
        ], dtype=np.int64)
        n_layers = self._num_layers
        self._min_macros = (
            -(-n_layers // 2) if config.enable_macro_sharing else n_layers
        )
        # Per-combo tables: one row per (XbSize, ResRram, ResDAC) a
        # task has named, stacked into arrays on the next gather.
        self._combos: Dict[Tuple[int, int, int], int] = {}
        self._combo_rows: List[Tuple] = []
        self._tables: Optional[List] = None

    # ------------------------------------------------------------------
    # Per-combo quantities
    # ------------------------------------------------------------------
    def _combo_row(self, xb_size: int, res_rram: int, res_dac: int):
        """One combo's table row, in :meth:`build_grid`'s order: the
        crossbar tiling (set size, row tiles, bit slices) and the
        partial-sum merge rounds per layer, the per-layer ADC power at
        the lossless-readout resolution and the identical-macro ADC
        unit power at the largest of them, ``ceil(PrecAct / ResDAC)``
        (``DataflowSpec.bits``), the DAC + sample-hold power of one
        crossbar, and one crossbar's read power."""
        params = self.params
        tilings = [
            crossbar_tiling_summary(
                layer, xb_size, res_rram, self.model.weight_precision
            )
            for layer in self.model.weighted_layers
        ]
        adc_lo, adc_hi = params.adc_resolution_range
        resolutions = [
            required_adc_resolution(
                min(xb_size, n_rows), res_rram, res_dac,
                min_resolution=adc_lo, max_resolution=adc_hi,
            )
            for n_rows in self._rows.tolist()
        ]
        return (
            [tiling.num_crossbars for tiling in tilings],
            [tiling.row_tiles for tiling in tilings],
            [tiling.bit_slices for tiling in tilings],
            [math.ceil(math.log2(tiling.row_tiles))
             if tiling.row_tiles > 1 else 0 for tiling in tilings],
            [params.adc_power_of(r) for r in resolutions],
            params.adc_power_of(max(resolutions)),
            -(-self.model.act_precision // res_dac),
            xb_size * (params.dac_power_of(res_dac)
                       + params.sample_hold_power),
            params.crossbar_power_of(xb_size),
        )

    def _gather(self, tasks: Sequence["EvaluationTask"]) -> List:
        """Each task's row of every per-combo table
        (:meth:`_combo_row`), by one fancy index per table."""
        np = numpy_module()
        combos = self._combos
        index = []
        for task in tasks:
            point = task.point
            key = (point.xb_size, point.res_rram, task.res_dac)
            row = combos.get(key)
            if row is None:
                row = combos[key] = len(self._combo_rows)
                self._combo_rows.append(self._combo_row(*key))
                self._tables = None
            index.append(row)
        if self._tables is None:
            self._tables = [
                np.asarray(column) for column in zip(*self._combo_rows)
            ]
        index = np.asarray(index, dtype=np.int64)
        return [table[index] for table in self._tables]

    # ------------------------------------------------------------------
    # Grid assembly + evaluation
    # ------------------------------------------------------------------
    def build_grid(self, tasks: Sequence["EvaluationTask"]) -> TaskGrid:
        """Assemble the ``(tasks, layers)`` arrays for one queue."""
        np = numpy_module()
        (set_size, row_tiles, bit_slices, merge_rounds, adc_power,
         adc_power_unit, bits, per_crossbar, crossbar_power) = (
            self._gather(tasks)
        )
        wt_dup = np.asarray(
            [task.wt_dup for task in tasks], dtype=np.int64
        ).reshape(len(tasks), self._num_layers)
        ratio_rram = np.asarray(
            [task.point.ratio_rram for task in tasks], dtype=np.float64
        )

        # WtDup-dependent geometry (LayerGeometry properties, exact
        # int64 — every product stays far below 2**63, and int -> float
        # conversions round identically to Python's).
        crossbars = wt_dup * set_size
        return TaskGrid(
            wt_dup=wt_dup,
            total_blocks=-(-self._out_positions[None, :] // wt_dup),
            inputs_per_block=wt_dup * self._rows[None, :],
            outputs_per_block=wt_dup * self._cols[None, :],
            group_cap=np.minimum(wt_dup * row_tiles, crossbars),
            crossbars=crossbars,
            conversions_per_block_bit=(
                wt_dup * row_tiles * bit_slices * self._cols[None, :]
            ),
            merge_rounds=merge_rounds,
            bits=bits,
            adc_power=adc_power,
            adc_power_unit=adc_power_unit,
            vector_ops=self._vector_ops,
            per_crossbar_fixed=per_crossbar,
            crossbar_power=crossbar_power,
            # PowerBudget.peripheral_power, verbatim.
            peripheral_power=self.config.total_power * (1.0 - ratio_rram),
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

    def population_context(self, grid: TaskGrid) -> PopulationContext:
        """The stacked scoring context of ``grid``'s tasks (a
        :meth:`build_grid`), row ``k`` scoring task ``k``: every
        per-row column in one ``(tasks, layers)`` pass, each composed
        in the scalar oracle's operation order — the
        ``PerformanceEvaluator`` stage-time helpers, ``layer_workloads``
        and ``allocate_components``' ordered Eq. 6 sums,
        ``fixed_overhead_power``, ``_actual_power`` and
        ``DataflowBuilder.producer_block_for`` — so each row is ``==``
        to what they give the task's (spec, budget, ResDAC). The edge
        arrays are the grid's :class:`ModelContext`'s, by identity."""
        np = numpy_module()
        shared = self.model_context
        params = self.params
        act_bytes = grid.act_bytes
        total_blocks = grid.total_blocks
        block_bits = total_blocks * grid.bits[:, None]
        # Eq. 5 workloads (layer_workloads).
        adc_wl = (block_bits * grid.conversions_per_block_bit).astype(
            np.float64
        )
        alu_wl = adc_wl + grid.vector_ops
        # Each in-edge's pipeline fraction: producer_block_for(producer,
        # consumer, 0) + 1 over the producer's blocks.
        src, dst = shared.lat_producer, shared.lat_consumer
        needed = np.minimum(
            self._out_positions[src],
            np.ceil(grid.wt_dup[:, dst] * self._lat_scale).astype(np.int64)
            + self._lat_halo,
        )
        src_blocks = total_blocks[:, src]
        first = np.clip(
            -(-needed // grid.wt_dup[:, src]) - 1, 0, src_blocks - 1
        )
        crossbars = grid.crossbars.sum(axis=1)
        return PopulationContext(
            mvm=block_bits * grid.crossbar_latency,
            load_num=(total_blocks * grid.inputs_per_block) * act_bytes,
            store_num=(total_blocks * grid.outputs_per_block) * act_bytes,
            total_blocks=total_blocks,
            merge_rounds=grid.merge_rounds,
            per_round_num=grid.outputs_per_block * act_bytes,
            out_bytes=np.broadcast_to(
                (self._out_positions * self._cols) * act_bytes,
                total_blocks.shape,
            ),
            adc_wl=adc_wl,
            alu_wl=alu_wl,
            adc_powers=grid.adc_power,
            merge_layers=grid.merge_rounds > 0,
            comm_producer=shared.comm_producer,
            comm_consumer=shared.comm_consumer,
            lat_producer=src,
            lat_fraction=(first + 1) / src_blocks,
            out_slots=shared.out_slots,
            levels=shared.levels,
            denom=row_sums(
                grid.adc_power * adc_wl / grid.adc_sample_rate
            ) + row_sums(grid.alu_power * alu_wl / grid.alu_frequency),
            crossbar_fixed=crossbars * grid.per_crossbar_fixed,
            peripheral_power=grid.peripheral_power,
            adc_power_unit=grid.adc_power_unit,
            rram_power=crossbars * grid.crossbar_power,
            per_macro_fixed=grid.per_macro_fixed,
            adc_rate=grid.adc_sample_rate,
            alu_rate=grid.alu_frequency,
            alu_power=grid.alu_power,
            edram_bandwidth=grid.edram_bandwidth,
            noc_port_bandwidth=params.noc_port_bandwidth,
            noc_hop_latency=params.noc_hop_latency,
            macs2=shared.macs2,
            # allocate_components' default, the one the explorer's
            # scalar score runs with.
            overlap_window=4,
            enable_macro_sharing=self.config.enable_macro_sharing,
            identical_macros=not self.config.specialized_macros,
        )
