"""The numpy kernels of the batched DSE paths, and the one numpy gate.

The grid evaluator of :mod:`repro.core.grid_eval` flattens the outer
(design point x WtDup x ResDAC) task walk into ``(tasks, layers)``
arrays (:class:`TaskGrid`), :mod:`repro.core.batch_eval` does the same
for the inner ``(population, layers)`` EA scoring, under the
:class:`PopulationContext` rows the grid builds from a chunk's
:class:`TaskGrid`, and the stage-1 SA filter scores whole proposal
rounds at once. Each calls one kernel of this module: :func:`row_sums`
(the SA filter's Eq. 4 sums), :func:`compute_bounds` (task-grid
bounds) and :func:`score_population` (population scores).

Whether numpy imports is the only thing that decides whether they run.
Without it (:func:`numpy_available` is False) no array is ever built
and each caller runs its scalar oracle instead:
:func:`repro.utils.mathutils.ordered_sum` for the SA sums,
:func:`repro.core.evaluator.throughput_upper_bound` for the task
bounds and :meth:`repro.core.macro_partition.MacroPartitionExplorer.
score` for population scores. There is no setting for it.
``SynthesisConfig.backend`` reports the engine that runs (``"numpy"``
or ``"python"``), and :func:`backend_status` lists both for ``repro
backends``.

Exactness contract
------------------
Every kernel returns results ``==`` to its scalar oracle: not merely
close, because the DSE pruning decisions and EA tournaments ride on
exact float comparisons, and the point of the batched paths is that
they cannot change a solution. The kernels get there by keeping the
oracles' operation order: an ordered row sum is the last column of a
sequential ``cumsum``, and a row maximum is exact in any grouping. So
whether numpy imports never enters a content fingerprint — eval memos,
serve job keys and store entries are shared by hosts with and without
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, NamedTuple, Tuple

from repro.errors import ConfigurationError

try:  # numpy is optional: without it every caller runs its scalar
    import numpy as _np  # oracle; the image bakes it in.
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None


def numpy_module():
    """The numpy module, or None — the single gate every batched path
    (the SA filter, batch_eval, grid_eval) consults. Tests block numpy
    by setting ``_np`` to None."""
    return _np


def numpy_available() -> bool:
    """True when the batched DSE paths can run on this interpreter;
    without numpy each caller takes its scalar oracle instead."""
    return _np is not None


class Engine(NamedTuple):
    """One row of :func:`backend_status`."""

    name: str
    available: bool
    note: str  # what the engine is, or why it is unavailable


def backend_status() -> List[Engine]:
    """The engines the batched paths can run on, preferred first:
    ``numpy`` (this module's kernels, when numpy imports) and
    ``python`` (the scalar oracles, always)."""
    return [
        Engine(
            "numpy", _np is not None,
            "vectorized numpy kernels" if _np is not None
            else "numpy is not importable on this interpreter",
        ),
        Engine("python", True, "scalar oracles (the reference)"),
    ]


def get_backend(name: str) -> Engine:
    """The status row of an *available* engine. Unknown names and an
    unavailable ``numpy`` raise :class:`~repro.errors.
    ConfigurationError` naming what is usable here."""
    status = backend_status()
    for engine in status:
        if engine.name == name:
            if not engine.available:
                raise ConfigurationError(
                    f"backend {name!r} is unavailable: {engine.note}"
                )
            return engine
    raise ConfigurationError(
        f"unknown backend {name!r}; available: "
        f"{[engine.name for engine in status if engine.available]}"
    )


#: The paper's MacAlloc gene packing, ``owner * ENCODING_BASE +
#: #macros`` (:mod:`repro.core.macro_partition`): its one definition,
#: which the gene codec, the batched validator and the manual baselines
#: import, so a layer holds at most ``ENCODING_BASE - 1`` macros.
ENCODING_BASE = 1000


# ----------------------------------------------------------------------
# The task-grid input contract
# ----------------------------------------------------------------------
@dataclass
class TaskGrid:
    """The tensorized task walk's input: one row per DSE task.

    All 2-D arrays are ``(tasks, layers)`` int64/float64; 1-D arrays are
    per-task or per-layer as noted. Integer arrays hold exact values
    (every product taken inside the kernels stays far below 2**53, so
    int -> float conversions are exact and match the scalar oracle's
    arbitrary-precision arithmetic bit for bit). :func:`compute_bounds`
    reads it, and so does :meth:`repro.core.grid_eval.
    GridBoundEvaluator.population_context`, which also reads the
    columns the bound does not (``wt_dup``, ``merge_rounds``,
    ``adc_power_unit``, ``crossbar_power``).
    """

    wt_dup: "object"  # (T, L) int64 — the task's WtDup vector
    total_blocks: "object"  # (T, L) int64 — ceil(out_positions / WtDup)
    inputs_per_block: "object"  # (T, L) int64 — WtDup * rows
    outputs_per_block: "object"  # (T, L) int64 — WtDup * cols
    group_cap: "object"  # (T, L) int64 — min(WtDup*row_tiles, crossbars)
    crossbars: "object"  # (T, L) int64 — WtDup * set_size
    conversions_per_block_bit: "object"  # (T, L) int64
    merge_rounds: "object"  # (T, L) int64 — ceil(log2(row_tiles)), or 0
    bits: "object"  # (T,) int64 — ceil(PrecAct / ResDAC)
    adc_power: "object"  # (T, L) float64 — ADC power at required res.
    adc_power_unit: "object"  # (T,) float64 — at the largest of them
    vector_ops: "object"  # (L,) float64 — ALU-only workload per layer
    per_crossbar_fixed: "object"  # (T,) float64 — XbSize*(DAC+S&H)
    crossbar_power: "object"  # (T,) float64 — one crossbar's read power
    peripheral_power: "object"  # (T,) float64 — (1-RatioRram)*TotalPower
    crossbar_latency: float
    act_bytes: float
    edram_bandwidth: float
    per_macro_fixed: float  # eDRAM + NoC + register power per macro
    adc_sample_rate: float
    alu_power: float
    alu_frequency: float
    min_macros: int  # ceil(L/2) under rule-b sharing, L otherwise
    macro_sharing: bool  # halves the ADC denominator (rule b)

    @property
    def num_layers(self) -> int:
        return len(self.vector_ops)


# ----------------------------------------------------------------------
# The population-scoring input/output contract (batch_eval seam)
# ----------------------------------------------------------------------
@dataclass
class PopulationContext:
    """Gene-independent context for fused population scoring.

    Each row is one (spec, budget, ResDAC) evaluation function. The
    task grid builds the rows of a chunk of tasks of one model under
    one config in one pass (:meth:`repro.core.grid_eval.
    GridBoundEvaluator.population_context`), so one kernel call can
    score the genes of many EA launches. Per-row arrays are numpy
    float64/int64 with a leading row axis, like :class:`TaskGrid`'s,
    from whose columns they are built. The inter-layer
    edges, in ``spec.model.interlayer_edges()`` order, are shared by
    every row and come as gene-free index arrays, so the kernel's
    Python loops run over out-edge slots and topological levels rather
    than over layers and edges:

    * ``comm_producer`` / ``comm_consumer`` — every edge, grouped by
      producer (the §IV-B activation-transfer order); with them every
      edge's transfer time is one ``(population, E)`` array.
    * ``lat_producer`` / ``lat_fraction`` — every edge again, grouped
      by consumer (the fine-grained pipeline forward pass);
      ``lat_fraction`` depends on the geometry, so it is per row.
    * ``out_slots`` — one ``(producers, edges)`` pair per out-edge slot
      ``k``: the producers with more than ``k`` out-edges and the
      ``comm_consumer`` position of each one's ``k``-th edge. Folding
      the transfers in slot order adds each producer's terms left to
      right.
    * ``levels`` — one ``(consumers, producers, edges)`` triple per
      topological level >= 1 (level 0 layers start at 0). ``producers``
      and ``edges`` are ``(D, K)``: row ``d`` holds each consumer's
      ``d``-th in-edge, as a producer layer and a ``lat_*`` position;
      consumers with fewer than ``D`` in-edges repeat their first one,
      which cannot change a ``max``.
    * ``merge_layers`` — per row, a mask of the row-tiled layers
      (``row_tiles > 1``), the only ones with a partial-sum merge term.
    """

    # Per-row, per-layer geometry / workload arrays (R, L).
    mvm: "object"  # float64 — exact MVM time per layer
    load_num: "object"  # float64 — load-bytes numerator
    store_num: "object"  # float64 — store-bytes numerator
    total_blocks: "object"  # int64
    merge_rounds: "object"  # int64 — ceil(log2(row_tiles)) when > 1
    per_round_num: "object"  # float64 — outputs_per_block * act_bytes
    out_bytes: "object"  # float64 — out_positions * cols * act_bytes
    adc_wl: "object"  # float64 — Eq. 5 ADC workload
    alu_wl: "object"  # float64 — Eq. 5 ALU workload
    adc_powers: "object"  # float64 — ADC power at required resolution
    merge_layers: "object"  # bool — row_tiles > 1
    # Inter-layer edges (shared), and the per-row (R, E) fractions.
    comm_producer: "object"  # (E,) int64
    comm_consumer: "object"  # (E,) int64
    lat_producer: "object"  # (E,) int64
    lat_fraction: "object"  # (R, E) float64
    out_slots: Tuple[Tuple["object", "object"], ...]
    levels: Tuple[Tuple["object", "object", "object"], ...]
    # Per-row scalars (R,) float64.
    denom: "object"  # Eq. 6 balanced-delay denominator
    crossbar_fixed: "object"
    peripheral_power: "object"
    adc_power_unit: "object"  # identical-macro ADC unit power (§V-C2)
    rram_power: "object"
    # Shared scalars.
    per_macro_fixed: float
    adc_rate: float
    alu_rate: float
    alu_power: float
    edram_bandwidth: float
    noc_port_bandwidth: float
    noc_hop_latency: float
    macs2: float  # 2 * model MACs
    overlap_window: int
    enable_macro_sharing: bool
    identical_macros: bool

    @property
    def num_layers(self) -> int:
        return self.mvm.shape[1]

    @property
    def num_rows(self) -> int:
        return self.mvm.shape[0]


#: The PopulationContext fields with one entry per row.
_ROW_FIELDS = frozenset({
    "mvm", "load_num", "store_num", "total_blocks", "merge_rounds",
    "per_round_num", "out_bytes", "adc_wl", "alu_wl", "adc_powers",
    "merge_layers", "lat_fraction", "denom", "crossbar_fixed",
    "peripheral_power", "adc_power_unit", "rram_power",
})


#: Every :class:`BatchEvaluation` field, in the order :meth:`BatchEvaluation.
#: rows` lists them: the one list a field-wise comparison walks.
BATCH_FIELDS = (
    "feasible", "fitness", "period", "latency", "throughput", "tops",
    "power", "tops_per_watt", "energy_per_image", "edp",
    "bottleneck_layer", "num_macros",
)

#: The :data:`BATCH_FIELDS` of the deferred metrics pass; the rest come
#: from the stage pass every EA generation pays for.
DEFERRED_FIELDS = (
    "latency", "tops", "power", "tops_per_watt", "energy_per_image", "edp",
)


class _Deferred:
    """A metrics-pass field of :class:`BatchEvaluation`. The first read
    of any of them runs the pass, which sets all six on the instance;
    an instance attribute shadows this non-data descriptor, so later
    reads are plain lookups."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, batch, owner=None):
        if batch is None:
            return self
        metrics, batch._metrics = batch._metrics, None
        # A field assigned before the pass keeps its assigned value.
        for name, values in metrics().items():
            batch.__dict__.setdefault(name, values)
        return batch.__dict__[self.name]


class BatchEvaluation:
    """Population-wide metric arrays, one numpy entry per gene, in
    order: what :func:`score_population` returns.

    ``feasible`` marks genes the scalar path evaluates successfully.
    Infeasible lanes are fully masked *inside* the kernel (metrics 0.0,
    ``bottleneck_layer`` -1, ``num_macros`` 0), the values the scalar
    oracle's infeasible genes get, so every field is defined and
    ``==``-comparable to it rather than NaN. Field meanings mirror
    :class:`repro.core.evaluator.EvaluationResult`.

    The stage pass sets ``feasible``, ``fitness``, ``period``,
    ``throughput``, ``bottleneck_layer`` and ``num_macros``, all the
    EA ranks by. ``metrics``, a zero-argument callable returning the
    :data:`DEFERRED_FIELDS` arrays, is the metrics pass: it runs once,
    the first time one of them is read.
    """

    latency = _Deferred()
    tops = _Deferred()
    power = _Deferred()
    tops_per_watt = _Deferred()
    energy_per_image = _Deferred()
    edp = _Deferred()

    def __init__(
        self, feasible, fitness, period, throughput, bottleneck_layer,
        num_macros, metrics,
    ) -> None:
        self.feasible = feasible  # (P,) bool
        self.fitness = fitness  # (P,) float64 — EA fitness (img/s)
        self.period = period
        self.throughput = throughput
        self.bottleneck_layer = bottleneck_layer  # (P,) int64, -1 masked
        self.num_macros = num_macros  # (P,) int64, 0 masked
        self._metrics = metrics

    @classmethod
    def empty(cls) -> "BatchEvaluation":
        """The scores of an empty population."""
        floats = _np.zeros(0, dtype=_np.float64)
        ints = _np.zeros(0, dtype=_np.int64)
        return cls(
            _np.zeros(0, dtype=bool), floats, floats, floats, ints, ints,
            metrics=lambda: dict.fromkeys(DEFERRED_FIELDS, floats),
        )

    def __len__(self) -> int:
        return int(self.fitness.shape[0])

    def rows(self) -> List[Dict[str, object]]:
        """Each gene's fields as plain Python values, in gene order:
        the shape of :meth:`repro.core.macro_partition.
        MacroPartitionExplorer.score_fields`, so a batch row and the
        scalar oracle's row compare with ``==``."""
        columns = [getattr(self, name).tolist() for name in BATCH_FIELDS]
        return [dict(zip(BATCH_FIELDS, values)) for values in zip(*columns)]


# ----------------------------------------------------------------------
# The numpy kernels
# ----------------------------------------------------------------------
def row_sums(terms):
    """Left-to-right row sums of a ``(T, L)`` float64 array: the last
    column of a sequential ``cumsum``. It adds exactly like
    :func:`repro.utils.mathutils.ordered_sum` over each row, except that
    a row of only ``-0.0`` terms sums to ``-0.0`` instead of ``+0.0``
    (the two are ``==``). The kernels pass non-negative terms, with a
    skipped term set to ``+0.0``, which adds exactly nothing."""
    return _np.cumsum(terms, axis=1)[:, -1]


def _offsets(pop: int, n: int):
    """Each gene's offset into a raveled ``(pop, n)`` array: a layer
    index array plus these indexes the flat array, a cheaper gather
    than 2-D fancy indexing."""
    return _np.arange(0, pop * n, n, dtype=_np.int64)[:, None]


def _decode(genes):
    """(owners, is_owner, total_macros, group_start, group_len) of a
    ``(population, layers)`` gene array: contiguous owner groups in
    layer order, exactly as ``MacroPartition.from_gene`` assigns them.

    It raises :class:`~repro.errors.ConfigurationError` wherever
    ``from_gene`` does, including on an owner shared by two or more
    layers (rule b allows pairs only), so both scoring paths accept the
    same genes."""
    pop, n = genes.shape
    owners = genes // ENCODING_BASE
    counts = genes - owners * ENCODING_BASE
    layer_idx = _np.arange(n, dtype=_np.int64)
    if (counts < 1).any():
        raise ConfigurationError("batch decode: #macros < 1")
    if (owners > layer_idx).any():
        raise ConfigurationError("batch decode: owner > layer index")
    # Every referenced owner must own itself (rule b).
    at_owner = None if (owners < 0).any() else owners + _offsets(pop, n)
    if at_owner is None or (owners.ravel()[at_owner] != owners).any():
        raise ConfigurationError(
            "batch decode: layer shares with a non-owner"
        )
    # Now only owners are named, each by itself and its sharers.
    if _np.bincount(at_owner.ravel()).max() > 2:
        raise ConfigurationError(
            "batch decode: an owner is shared by more than one "
            "layer (rule b allows pairs only)"
        )
    is_owner = owners == layer_idx
    sizes = _np.where(is_owner, counts, 0)
    group_ends = _np.cumsum(sizes, axis=1)
    group_start = (group_ends - sizes).ravel()[at_owner]
    group_len = counts.ravel()[at_owner]
    return owners, is_owner, group_ends[:, -1], group_start, group_len


def _mesh_ends(total_macros, group_start, group_len):
    """Each layer's group ends on its gene's ``MeshNoC``, once per
    layer: ``((first_row, first_col, last_row, last_col), neighbor)``,
    ``(population, layers)`` int32 arrays.

    They are the mesh row and column of each group's first and last
    macro, and ``MeshNoC.hops`` from its first macro to its second: 1
    when a next column exists, else ``cols``, the wrap to column 0 of
    the next row. Macro ids stay below the gene's macro count, at most
    ``(ENCODING_BASE - 1) * layers``, so int32 holds them exactly."""
    cols = _np.ceil(
        _np.sqrt(_np.maximum(1, total_macros))
    ).astype(_np.int32)[:, None]
    ends = _np.stack((group_start, group_start + group_len - 1))
    mesh_row, mesh_col = _np.divmod(ends.astype(_np.int32), cols)
    neighbor = _np.where(mesh_col[0] + 1 < cols, 1, cols)
    return (mesh_row[0], mesh_col[0], mesh_row[1], mesh_col[1]), neighbor


def _edge_hops(ends, src, dst):
    """Each inter-layer edge's hops, ``(population, edges)``: the
    minimum of ``MeshNoC.hops`` over the four pairs of end macros of
    producer ``src`` and consumer ``dst``, given :func:`_mesh_ends`'s
    ``ends``."""
    at_src = [position[:, src] for position in ends]
    at_dst = [position[:, dst] for position in ends]

    def corner(a, b):  # 0: the first macro, 2: the last
        return (_np.abs(at_src[a] - at_dst[b])
                + _np.abs(at_src[a + 1] - at_dst[b + 1]))

    return _np.minimum(
        _np.minimum(corner(0, 0), corner(2, 0)),
        _np.minimum(corner(0, 2), corner(2, 2)),
    )


def compute_bounds(grid: TaskGrid):
    """Per-task throughput upper bounds for a whole task grid: ``==``
    to :func:`repro.core.evaluator.throughput_upper_bound` on each
    task."""
    total_blocks = grid.total_blocks
    bits = grid.bits[:, None]
    with _np.errstate(all="ignore"):
        # Structural floor. Operation order mirrors the scalar
        # PerformanceEvaluator helpers: (blocks * bits) * latency,
        # ((blocks * per_block) * act_bytes) / bandwidth.
        max_group = _np.maximum(1, grid.group_cap.max(axis=1))
        bandwidth = (grid.edram_bandwidth * max_group)[:, None]
        mvm = (total_blocks * bits) * grid.crossbar_latency
        load = (
            (total_blocks * grid.inputs_per_block) * grid.act_bytes
        ) / bandwidth
        store = (
            (total_blocks * grid.outputs_per_block) * grid.act_bytes
        ) / bandwidth
        period_floor = _np.maximum(
            _np.maximum(mvm, load), store
        ).max(axis=1)

        # Fixed-overhead floor (integer sums are exact in any order).
        fixed = (
            grid.min_macros * grid.per_macro_fixed
            + grid.crossbars.sum(axis=1) * grid.per_crossbar_fixed
        )
        available = grid.peripheral_power - fixed

        # Eq. 6 power floor with the rule-b sharing halving.
        adc_wl = (
            (total_blocks * bits) * grid.conversions_per_block_bit
        ).astype(_np.float64)
        alu_wl = adc_wl + grid.vector_ops
        adc_denom = row_sums(
            grid.adc_power * adc_wl / grid.adc_sample_rate
        )
        alu_denom = row_sums(
            grid.alu_power * alu_wl / grid.alu_frequency
        )
        if grid.macro_sharing:
            adc_denom = adc_denom / 2.0
        period = _np.maximum(
            period_floor, (adc_denom + alu_denom) / available
        )
        return _np.where(
            available <= 0,
            0.0,
            _np.where(period <= 0, math.inf, 1.0 / period),
        )


def score_population(
    ctx: PopulationContext, genes, rows=None
) -> BatchEvaluation:
    """Score a whole population of pairs-only genes at once: ``==``,
    on every field, to :meth:`repro.core.macro_partition.
    MacroPartitionExplorer.score` on each gene (``allocate_components``
    then ``PerformanceEvaluator.evaluate``) under its context row.

    ``rows`` names each gene's row of ``ctx`` (a ``(population,)``
    int array); without it every gene scores under row 0, the one
    row of a single task's context. The kernel gathers each gene's
    per-row arrays and scalars, and a gene's score never depends on
    the other genes or rows in the call.

    It runs in two passes. This call runs the stage pass: the decode,
    which rejects what ``MacroPartition.from_gene`` rejects, the Eq. 6
    allocation with rule-b sharing, the stage times, the period and
    feasibility, all that the EA's fitness needs. The record it
    returns runs :func:`_metrics_pass` (the pipeline latency, the
    power account and the derived metrics) the first time one of its
    :data:`DEFERRED_FIELDS` is read.

    Per-layer and per-edge quantities are whole ``(population,
    layers)`` and ``(population, edges)`` array ops over the
    context's gene-free index arrays; the only Python loops run
    over ``ctx.out_slots`` (at most the largest out-degree) and
    ``ctx.levels`` (the DAG depth). Every step keeps the scalar
    oracle's IEEE-754 evaluation order, so the result is its bits:

    * elementwise formulas are the oracle's, operand for operand, and
      integer ones (the decode, mesh positions, hops) are exact in any
      arrangement;
    * ordered sums (rule-b savings, the ADC and ALU power accounts)
      are :func:`row_sums` over term arrays — no term is negative
      and a skipped one is ``+0.0``, so these are the oracle's adds,
      in layer order;
    * ``comm`` starts as the partial-sum merge term, and each
      producer's activation transfers are folded in one out-edge
      slot at a time, i.e. in its left-to-right edge order;
    * stage maxima, the period and the latency forward pass are
      ``max`` reductions, exact in any grouping, so the forward
      pass runs one topological level at a time.

    The population's shape and ``rows`` are the caller's to check:
    :meth:`~repro.core.batch_eval.BatchPerformanceEvaluator.
    evaluate_population` does.
    """
    genes = _np.asarray(genes, dtype=_np.int64)
    pop, n = genes.shape
    if rows is None:  # one row broadcasts against the population
        def per_row(values):
            return values[:1]
    else:
        rows = _np.asarray(rows)

        def per_row(values):
            return values.take(rows, axis=0)

    def at(values, flat, layers):
        """``values[g, layers[g, i]]``, ``flat`` being ``layers`` plus
        :func:`_offsets`; a one-row ``values`` broadcasts."""
        if len(values) == 1:
            return values[0][layers]
        return values.ravel()[flat]

    offsets = _offsets(pop, n)
    adc_wl = per_row(ctx.adc_wl)
    alu_wl = per_row(ctx.alu_wl)
    with _np.errstate(all="ignore"):
        owners, is_owner, total_macros, group_start, group_len = (
            _decode(genes)
        )
        at_owner = owners + offsets

        # -- Eq. 6 allocation + rule-b sharing ---------------------
        fixed = (
            total_macros.astype(_np.float64) * ctx.per_macro_fixed
            + per_row(ctx.crossbar_fixed)
        )
        available = per_row(ctx.peripheral_power) - fixed
        feasible = available > 0.0
        if ctx.identical_macros:
            adc_power_unit = per_row(ctx.adc_power_unit)
            macro_count = group_len  # every group has >= 1 macro
            adc_demand = (adc_wl / macro_count).max(axis=1)
            alu_demand = (alu_wl / macro_count).max(axis=1)
            adc_share_weight = (
                adc_power_unit * adc_demand / ctx.adc_rate
            )
            alu_share_weight = (
                ctx.alu_power * alu_demand / ctx.alu_rate
            )
            weight_sum = adc_share_weight + alu_share_weight
            feasible = feasible & (weight_sum > 0.0)
            adc_power_total = (
                available * adc_share_weight / weight_sum
            )
            alu_power_total = (
                available * alu_share_weight / weight_sum
            )
            per_macro_adc = adc_power_total / (
                total_macros * adc_power_unit
            )
            per_macro_alu = alu_power_total / (
                total_macros * ctx.alu_power
            )
            feasible = feasible & (per_macro_adc > 0.0) & (
                per_macro_alu > 0.0
            )
            bank = per_macro_adc[:, None] * macro_count
            lanes = per_macro_alu[:, None] * macro_count
            adc_delay = adc_wl / (ctx.adc_rate * bank)
            alu_delay = alu_wl / (ctx.alu_rate * lanes)

            def power_draw():
                return adc_power_total + alu_power_total
        else:
            denom = per_row(ctx.denom)
            # Gene-independent: the scalar path raises for every gene
            # of a row whose denominator is not positive.
            feasible = feasible & ~(denom <= 0)
            balanced_delay = denom / available
            adc_alloc = adc_wl / (
                ctx.adc_rate * balanced_delay
            )[:, None]
            alu_alloc = alu_wl / (
                ctx.alu_rate * balanced_delay
            )[:, None]
            adc_powers = per_row(ctx.adc_powers)

            # Sharing post-pass (rule b): every sharer layer i
            # against its owner j = owners[:, i] at once.
            savings = _np.zeros(pop, dtype=_np.float64)
            partner = _np.full((pop, n), -1, dtype=_np.int64)
            if ctx.enable_macro_sharing:
                a_j = adc_alloc.ravel()[at_owner]
                p_j = at(adc_powers, at_owner, owners)
                separate = p_j * a_j + adc_powers * adc_alloc
                merged = _np.maximum(p_j, adc_powers) * _np.maximum(
                    a_j, adc_alloc
                )
                include = ~is_owner & (merged < separate)
                savings = row_sums(
                    _np.where(include, separate - merged, 0.0)
                )
                # Rule b pairs an owner with at most one sharer, which
                # becomes the owner's partner when included.
                partner = _np.where(include, owners, -1)
                sharers = _np.flatnonzero(include)
                partner.ravel()[at_owner.ravel()[sharers]] = sharers % n

            apply_scale = (savings > 0.0) & (savings < available)
            scale = _np.where(
                apply_scale,
                available / _np.where(
                    apply_scale, available - savings, 1.0
                ),
                1.0,
            )[:, None]

            has_partner = partner >= 0
            partner_idx = _np.where(has_partner, partner, 0)
            at_partner = partner_idx + offsets
            bank = _np.maximum(
                adc_alloc, adc_alloc.ravel()[at_partner]
            ) * scale
            layer_idx = _np.arange(n, dtype=_np.int64)
            distance = _np.abs(layer_idx - partner_idx)
            overlap = _np.maximum(
                0.0,
                1.0 - distance / max(1, ctx.overlap_window),
            )
            effective_adc = _np.where(
                has_partner,
                bank / (1.0 + overlap),
                adc_alloc * scale,
            )
            effective_alu = alu_alloc * scale
            adc_delay = adc_wl / (ctx.adc_rate * effective_adc)
            alu_delay = alu_wl / (ctx.alu_rate * effective_alu)

            def power_draw():
                # A shared bank is counted once, at the pair's first
                # (owner-side) index.
                solo = (adc_powers * adc_alloc) * scale
                pair = _np.maximum(
                    adc_powers, at(adc_powers, at_partner, partner_idx)
                ) * bank
                counted = ~has_partner | (partner_idx > layer_idx)
                adc_power_used = row_sums(
                    _np.where(
                        counted, _np.where(has_partner, pair, solo), 0.0
                    )
                )
                alu_power_used = row_sums(
                    (ctx.alu_power * alu_alloc) * scale
                )
                return adc_power_used + alu_power_used

        # -- §IV-B stage times -------------------------------------
        bandwidth = ctx.edram_bandwidth * group_len
        load = per_row(ctx.load_num) / bandwidth
        store = per_row(ctx.store_num) / bandwidth
        ends, neighbor = _mesh_ends(total_macros, group_start, group_len)
        # Partial-sum merge of the row-tiled layers spanning more
        # than one macro; comm starts here, as 0.0 + merge == merge.
        # ``neighbor`` is at least 1, so the oracle's max(1, hops) is
        # the identity.
        total_blocks = per_row(ctx.total_blocks)
        per_round_bytes = per_row(ctx.per_round_num) / group_len
        per_block = per_row(ctx.merge_rounds) * (
            per_round_bytes / ctx.noc_port_bandwidth
            + neighbor * ctx.noc_hop_latency
        )
        comm = _np.where(
            per_row(ctx.merge_layers) & (group_len > 1),
            total_blocks * per_block,
            0.0,
        )

        # Activation transfers of every inter-layer edge at once:
        # the four-corner hop minimum between the group ranges' end
        # macros, serialization over the narrower group, head flits.
        src = ctx.comm_producer
        dst = ctx.comm_consumer
        hops = _edge_hops(ends, src, dst)
        ports = _np.minimum(group_len[:, src], group_len[:, dst])
        serialization = per_row(ctx.out_bytes[:, src]) / (
            ctx.noc_port_bandwidth * ports
        )
        head = (
            per_row(ctx.total_blocks[:, src]) * hops
        ) * ctx.noc_hop_latency
        # An edge inside one macro group moves nothing; its +0.0
        # term leaves the never-negative comm bit-for-bit unchanged.
        transfer = _np.where(
            owners[:, src] == owners[:, dst], 0.0, serialization + head
        )
        # Slot k adds each producer's k-th out-edge, so every
        # producer sums its transfers in the oracle's edge order.
        for producers, edges in ctx.out_slots:
            comm[:, producers] = comm[:, producers] + transfer[:, edges]

        stage_total = _np.maximum(per_row(ctx.mvm), adc_delay)
        stage_total = _np.maximum(stage_total, alu_delay)
        stage_total = _np.maximum(stage_total, load)
        stage_total = _np.maximum(stage_total, store)
        stage_total = _np.maximum(stage_total, comm)

        # The first maximum of each row is its maximum.
        bottleneck = stage_total.argmax(axis=1)
        period = stage_total.ravel()[bottleneck + offsets[:, 0]]
        throughput = _np.where(feasible, 1.0 / period, 0.0)

    return BatchEvaluation(
        feasible=feasible,
        fitness=throughput,
        period=_np.where(feasible, period, 0.0),
        throughput=throughput,
        bottleneck_layer=_np.where(feasible, bottleneck, -1),
        num_macros=_np.where(feasible, total_macros, 0),
        metrics=partial(
            _metrics_pass, ctx, per_row, feasible, fixed, period,
            stage_total, power_draw,
        ),
    )


def _metrics_pass(ctx, per_row, feasible, fixed, period, stage_total,
                  power_draw):
    """The deferred half of :func:`score_population`: its
    :data:`DEFERRED_FIELDS`, masked like the stage pass's fields.
    ``per_row`` gathers the genes' rows of a context array, and
    ``power_draw()`` is the allocation's ADC plus ALU power."""
    pop, n = stage_total.shape
    with _np.errstate(all="ignore"):
        # Fine-grained pipeline latency, one topological level at a
        # time: a layer starts at the latest of its producers'
        # start + stage * fraction. Every candidate is a
        # non-negative start plus a non-negative share, so the
        # oracle's 0.0 seed never changes the max.
        shares = stage_total[:, ctx.lat_producer] * per_row(
            ctx.lat_fraction
        )
        starts = _np.zeros((pop, n), dtype=_np.float64)
        for consumers, producers, edges in ctx.levels:
            starts[:, consumers] = (
                starts[:, producers] + shares[:, edges]
            ).max(axis=1)
        latency = (starts + stage_total).max(axis=1)

        power = per_row(ctx.rram_power) + (fixed + power_draw())
        tops = ctx.macs2 / period / 1e12
        tops_per_watt = _np.where(power > 0, tops / power, 0.0)
        energy = power * latency
        edp = energy * latency
    metrics = {
        "latency": latency, "tops": tops, "power": power,
        "tops_per_watt": tops_per_watt, "energy_per_image": energy,
        "edp": edp,
    }
    return {
        name: _np.where(feasible, values, 0.0)
        for name, values in metrics.items()
    }
