"""Batched population evaluator for the DSE hot path.

The EA of :mod:`repro.optim.evolution` and the DSE executor score one
gene at a time through :meth:`repro.core.macro_partition.
MacroPartitionExplorer.score` — a chain of pure-Python per-layer loops
(gene decode, Eq. 5/6 component allocation, the §IV-B pipeline timing
model). At population scale that is thousands of interpreter
round-trips per EA generation for what is, mathematically, a handful of
elementwise array formulas.

:class:`BatchPerformanceEvaluator` evaluates a whole population of
macro-partition genes in one pass: the model's edge structure is built
once per model (:class:`ModelContext`), geometries, workloads and every
other gene-independent quantity once per (spec, budget, ResDAC) context
into one row of a :class:`repro.core.backend.PopulationContext`, and
the per-gene work — group sizing, fixed overhead, the Eq. 6 balanced
delay, the ADC-sharing post-pass, stage times, the fine-grained
pipeline latency and the power account — runs as the one fused numpy
kernel :func:`repro.core.backend.score_population`, whose record,
:class:`BatchEvaluation` (defined there and re-exported here with its
field lists :data:`BATCH_FIELDS` and :data:`DEFERRED_FIELDS`),
:meth:`BatchPerformanceEvaluator.evaluate_population` returns as is.
The kernel's call runs the stage pass, all the EA's fitness needs; the
record runs the pipeline latency and the power account only when one
of their fields is first read, as the winners' rows do.
:meth:`BatchPerformanceEvaluator.stack` stacks the rows of many tasks
of one model, so the lock-stepped EA launches of a DSE wave score all
their genes in one call.

Exactness contract
------------------
The batched path is a drop-in replacement for the scalar oracle, not an
approximation: every formula is evaluated with the *same operation
order* as the scalar code (`allocate_components` /
``PerformanceEvaluator.evaluate``), and IEEE-754 float64 arithmetic is
deterministic, so batched metrics are bit-identical to the scalar ones,
on every field, for every gene the decode accepts. Cross-layer
reductions that the scalar code performs as ordered sums
(:func:`repro.utils.mathutils.ordered_sum`) are likewise accumulated in
layer order. ``tests/test_batch_eval_differential.py`` pins the
contract across the entire model zoo, and full synthesis selects the
identical solution with numpy and without it (where the explorer scores
one gene at a time through the scalar oracle).

Both paths accept the same genes: the kernel's gene decode, and so
:meth:`BatchPerformanceEvaluator.evaluate_population`, raises
:class:`ConfigurationError` wherever ``MacroPartition.from_gene`` does,
including on an owner shared by two or more layers (rule b allows
pairs only).

Genes that the scalar path rejects with :class:`InfeasibleError`
(fixed overhead exceeding the peripheral budget, a collapsed
identical-macro budget) simply score ``0.0`` — the same fitness the
explorer assigns them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# The numpy gate is shared with every batched path (grid_eval, the SA
# filter) through repro.core.backend — one switch to stub or
# monkeypatch, not three. Call sites bind `np = numpy_module()` live
# (never a module-level snapshot) so patching the gate reaches every
# method uniformly. This module never imports numpy directly (an AST
# guard in tests/test_backend_conformance.py enforces that).
from repro.core.backend import (
    BATCH_FIELDS,
    DEFERRED_FIELDS,
    BatchEvaluation,
    PopulationContext,
    numpy_module,
    score_population,
    stack_contexts,
)

from repro.core.component_alloc import (
    fixed_overhead_power,
    layer_workloads,
)
from repro.core.evaluator import PerformanceEvaluator
from repro.errors import ConfigurationError, PimsynError
from repro.hardware.crossbar import required_adc_resolution
from repro.hardware.power import PowerBudget
from repro.ir.builder import DataflowBuilder, DataflowSpec
from repro.nn.model import CNNModel
from repro.nn.workload import model_macs
from repro.utils.mathutils import ordered_sum

Gene = Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ModelContext:
    """The model-level half of a scoring context, shared by every task.

    The inter-layer edge structure (``interlayer_edges()`` order) as the
    gene-free index arrays :class:`~repro.core.backend.PopulationContext`
    shares across its rows, and ``2 * MACs``. None of it depends on a
    task, so the caller that builds many evaluators of one model builds
    this once and passes it to each (a DSE task runner does), and every
    context built over it shares these arrays by identity, which
    :func:`~repro.core.backend.stack_contexts` checks in O(1).
    ``producers_of[idx]`` lists layer ``idx``'s producers in the order
    of the ``lat_*`` edges, for the per-task pipeline fractions.
    """

    model: CNNModel
    producers_of: Tuple[Tuple[int, ...], ...]
    comm_producer: "object"  # (E,) int64
    comm_consumer: "object"  # (E,) int64
    lat_producer: "object"  # (E,) int64
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
            producers_of=producers_of,
            comm_producer=np.repeat(
                np.arange(n, dtype=np.int64), out_degree
            ),
            comm_consumer=np.asarray(comm_consumer, dtype=np.int64),
            lat_producer=lat_producer,
            out_slots=tuple(out_slots),
            levels=tuple(levels),
            macs2=2.0 * model_macs(model),
        )


class BatchPerformanceEvaluator:
    """Scores whole gene populations for one (spec, budget, ResDAC), or
    for several at once when stacked (:meth:`stack`).

    Parameters mirror the knobs :meth:`MacroPartitionExplorer.score`
    reads from :class:`repro.core.config.SynthesisConfig`:

    enable_macro_sharing:
        Apply rule-b sharing pairs (the scalar path passes ``()`` as
        ``sharing_pairs`` when disabled).
    identical_macros:
        Use the §V-C2 identical-macro allocation (the scalar
        ``identical_macros=not config.specialized_macros``).
    model_context:
        ``spec.model``'s :class:`ModelContext`, when the caller keeps
        one for many evaluators; built here otherwise.
    """

    def __init__(
        self,
        spec: DataflowSpec,
        budget: PowerBudget,
        res_dac: int,
        enable_macro_sharing: bool = True,
        identical_macros: bool = False,
        overlap_window: int = 4,
        model_context: Optional[ModelContext] = None,
    ) -> None:
        if numpy_module() is None:  # pragma: no cover - defensive gate
            raise ConfigurationError(
                "numpy is required for batched evaluation; without "
                "it, MacroPartitionExplorer scores genes one at a time "
                "through its scalar oracle"
            )
        self.spec = spec
        self.budget = budget
        self.res_dac = res_dac
        self.enable_macro_sharing = enable_macro_sharing
        self.identical_macros = identical_macros
        self.overlap_window = overlap_window
        if model_context is None:
            model_context = ModelContext.of(spec.model)
        elif model_context.model is not spec.model:
            raise ConfigurationError(
                f"the model context of {model_context.model.name!r} "
                f"cannot score a spec of {spec.model.name!r}"
            )
        self.model_context = model_context
        self._precompute()

    # ------------------------------------------------------------------
    # Gene-independent context (computed once per evaluator)
    # ------------------------------------------------------------------
    @property
    def context(self) -> PopulationContext:
        """The gene-independent scoring context handed to the kernel
        (one per evaluator; one row unless stacked)."""
        return self._ctx

    def _precompute(self) -> None:
        np = numpy_module()
        spec = self.spec
        params = spec.params
        budget = self.budget
        geos = spec.geometries
        n = len(geos)
        self.num_layers = n
        shared = self.model_context

        # The scalar oracle's own helpers supply every per-layer scalar,
        # so a model change propagates here automatically.
        oracle = PerformanceEvaluator(spec, budget)
        act_bytes = oracle._bytes_per_activation()
        blocks = [geo.total_blocks for geo in geos]
        mvm = np.array(
            [oracle._mvm_time(geo) for geo in geos], dtype=np.float64
        )
        # load/store numerators exactly as _memory_times composes them:
        # ((total_blocks * inputs_per_block) * act_bytes) / bandwidth.
        load_num = np.array(
            [count * geo.inputs_per_block * act_bytes
             for count, geo in zip(blocks, geos)],
            dtype=np.float64,
        )
        store_num = np.array(
            [count * geo.outputs_per_block * act_bytes
             for count, geo in zip(blocks, geos)],
            dtype=np.float64,
        )
        row_tiles = np.array(
            [geo.row_tiles for geo in geos], dtype=np.int64
        )
        merge_rounds = np.array(
            [math.ceil(math.log2(geo.row_tiles)) if geo.row_tiles > 1
             else 0 for geo in geos],
            dtype=np.int64,
        )
        per_round_num = np.array(
            [geo.outputs_per_block * act_bytes for geo in geos],
            dtype=np.float64,
        )
        out_bytes = np.array(
            [geo.out_positions * geo.cols * act_bytes for geo in geos],
            dtype=np.float64,
        )

        # Eq. 5 workloads and the Eq. 6 denominator (all gene-free).
        adc_wl, alu_wl = layer_workloads(geos, spec.model, spec.bits)
        xb_size = budget.xb_size
        adc_lo, adc_hi = params.adc_resolution_range
        adc_resolutions = [
            required_adc_resolution(
                min(xb_size, geo.rows), budget.res_rram, self.res_dac,
                min_resolution=adc_lo, max_resolution=adc_hi,
            )
            for geo in geos
        ]
        adc_powers = [
            params.adc_power_of(r) for r in adc_resolutions
        ]
        adc_rate = params.adc_sample_rate
        alu_rate = params.alu_frequency
        # Ordered sums, identical to allocate_components.
        denom = ordered_sum(
            p * wl / adc_rate for p, wl in zip(adc_powers, adc_wl)
        ) + ordered_sum(
            params.alu_power * wl / alu_rate for wl in alu_wl
        )

        # Fixed-overhead constants, composed exactly as
        # fixed_overhead_power does: fixed == total_macros * per_macro
        # + total_crossbars * per_crossbar. Checked against the real
        # function for one macro, so a power-model change there cannot
        # silently diverge from the kernel's copy.
        per_macro_fixed = (
            params.edram_power + params.noc_power
            + params.register_power_per_macro
        )
        per_crossbar = xb_size * (
            params.dac_power_of(self.res_dac) + params.sample_hold_power
        )
        total_crossbars = sum(geo.crossbars for geo in geos)
        crossbar_fixed = total_crossbars * per_crossbar
        oracle_fixed = fixed_overhead_power(
            geos, [[0]] * n, params, xb_size, self.res_dac
        )
        if oracle_fixed != 1 * per_macro_fixed + crossbar_fixed:
            raise PimsynError(
                f"fixed_overhead_power gives {oracle_fixed!r} W for one "
                "macro, but the batched kernel's copy of its constants "
                f"gives {per_macro_fixed + crossbar_fixed!r} W: the "
                "power model changed under the kernel"
            )

        # Identical-macro constants (§V-C2).
        max_resolution = max(adc_resolutions)
        adc_power_unit = params.adc_power_of(max_resolution)

        # Each in-edge's pipeline fraction, in the shared lat_* order.
        builder = DataflowBuilder(spec)
        lat_fraction = [
            (builder.producer_block_for(geos[producer], geos[idx], 0) + 1)
            / blocks[producer]
            for idx, producers in enumerate(shared.producers_of)
            for producer in producers
        ]

        # Power account scalars.
        rram_power = total_crossbars * params.crossbar_power_of(xb_size)

        # One row: per-layer arrays and per-task scalars gain a
        # leading row axis (see PopulationContext).
        def row(values, dtype=np.float64):
            return np.array([values], dtype=dtype)

        self._ctx = PopulationContext(
            mvm=mvm[None],
            load_num=load_num[None],
            store_num=store_num[None],
            total_blocks=row(blocks, np.int64),
            merge_rounds=merge_rounds[None],
            per_round_num=per_round_num[None],
            out_bytes=out_bytes[None],
            adc_wl=row(adc_wl),
            alu_wl=row(alu_wl),
            adc_powers=row(adc_powers),
            merge_layers=(row_tiles > 1)[None],
            comm_producer=shared.comm_producer,
            comm_consumer=shared.comm_consumer,
            lat_producer=shared.lat_producer,
            lat_fraction=row(lat_fraction),
            out_slots=shared.out_slots,
            levels=shared.levels,
            denom=row(denom),
            crossbar_fixed=row(crossbar_fixed),
            peripheral_power=row(budget.peripheral_power),
            adc_power_unit=row(adc_power_unit),
            rram_power=row(rram_power),
            per_macro_fixed=per_macro_fixed,
            adc_rate=adc_rate,
            alu_rate=alu_rate,
            alu_power=params.alu_power,
            edram_bandwidth=params.edram_bandwidth,
            noc_port_bandwidth=params.noc_port_bandwidth,
            noc_hop_latency=params.noc_hop_latency,
            macs2=shared.macs2,
            overlap_window=self.overlap_window,
            enable_macro_sharing=self.enable_macro_sharing,
            identical_macros=self.identical_macros,
        )

    @classmethod
    def stack(
        cls, evaluators: Sequence["BatchPerformanceEvaluator"]
    ) -> "BatchPerformanceEvaluator":
        """One evaluator over the context rows of ``evaluators``, in
        order (:func:`repro.core.backend.stack_contexts`): its
        :meth:`evaluate_population` scores each gene under the row its
        ``rows`` entry names. The evaluators must score one model's
        tasks under one config. A single evaluator is its own stack.
        """
        if len(evaluators) == 1:
            return evaluators[0]
        stacked = cls.__new__(cls)
        stacked.num_layers = evaluators[0].num_layers
        stacked.model_context = evaluators[0].model_context
        stacked._ctx = stack_contexts(
            [evaluator.context for evaluator in evaluators]
        )
        return stacked

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate_population(
        self, genes: Sequence[Gene], rows: Optional[Sequence[int]] = None
    ) -> BatchEvaluation:
        """Score every gene; metrics are 0.0 where infeasible.

        ``rows`` names each gene's context row (a :meth:`stack` of
        several tasks' evaluators); without it every gene scores under
        row 0.
        """
        np = numpy_module()
        if len(genes) == 0:
            return BatchEvaluation.empty()
        genes_arr = np.asarray(genes, dtype=np.int64)
        if genes_arr.ndim != 2 or genes_arr.shape[1] != self.num_layers:
            raise ConfigurationError(
                f"population shape {genes_arr.shape} does not match "
                f"{self.num_layers} layers"
            )
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.shape != (len(genes_arr),) or not (
                0 <= rows.min() and rows.max() < self._ctx.num_rows
            ):
                raise ConfigurationError(
                    f"rows must name one of the {self._ctx.num_rows} "
                    f"context rows for each of {len(genes_arr)} genes"
                )
        return score_population(self._ctx, genes_arr, rows)

    def fitness_of(
        self, genes: Sequence[Gene], rows: Optional[Sequence[int]] = None
    ) -> List[float]:
        """EA-facing adapter: population fitness as plain floats."""
        return self.evaluate_population(genes, rows).fitness.tolist()
