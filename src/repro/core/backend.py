"""Array-execution backends for the tensorized DSE paths.

The grid evaluator of :mod:`repro.core.grid_eval` flattens the outer
(design point x WtDup x ResDAC) task walk into ``(tasks, layers)``
arrays, :mod:`repro.core.batch_eval` does the same for the inner
``(population, layers)`` EA scoring, and the stage-1 SA filter scores
whole proposal rounds at once. All of these are pure array arithmetic,
so the engine that runs them is an execution detail, selected by
``SynthesisConfig.backend`` (``--backend`` on the CLI) from a fixed
table of three:

``numpy``
    Vectorized ``(tasks, layers)`` / ``(population, layers)`` numpy
    operations; the default whenever numpy imports.
``python``
    Scalar loops over the same arrays, in exactly the scalar oracle's
    operation order: the reference every other engine is compared
    against. It is the default on an interpreter without numpy, where
    the executor walks tasks one at a time and the SA and EA score one
    state or gene at a time, so no array is ever built.
``numba``
    The ``python`` loop kernels (:func:`_bound_loops` and the fused
    :func:`_score_loops` population kernel) JIT-compiled with
    ``numba.njit`` (``fastmath`` off, so the IEEE-754 evaluation order
    is preserved). Always listed, but only *available* when numba
    imports; selecting it without numba raises a
    :class:`~repro.errors.ConfigurationError` naming the missing
    dependency.

Exactness contract
------------------
Every engine returns results ``==`` to the python loop oracle for its
three calls — the SA filter's :meth:`ArrayBackend.ordered_sum` and the
fused kernels :meth:`ArrayBackend.compute_bounds` and
:meth:`ArrayBackend.score_population`: not merely close, because the
DSE pruning decisions and EA tournaments ride on exact float
comparisons, and the point of the tensorized walk is that it cannot
change a solution. The numpy engine gets there by keeping the loops'
order: an ordered row sum is the last column of a sequential
``cumsum``, and a row maximum is exact in any grouping.

Content-key contract
--------------------
A backend changes *how fast* the task walk and the EA inner loop run,
never *what* they return, so ``backend`` lives in
:data:`repro.core.executor.EXECUTION_ONLY_FIELDS` and is excluded from
every content fingerprint — eval memos, serve job keys and store
entries are shared across backends. Whether the batched paths run at
all is not a setting: :func:`numpy_available` decides it, and without
numpy each path runs its scalar oracle instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.utils import mathutils

try:  # numpy is optional at this layer (the ``python`` backend runs
    import numpy as _np  # without it); the image bakes it in.
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None


def numpy_module():
    """The numpy module, or None — the single gate every tensorized
    path (the SA filter, batch_eval, grid_eval, the backends)
    consults. Tests block numpy by setting ``_np`` to None."""
    return _np


def numpy_available() -> bool:
    """True when the batched DSE paths can run on this interpreter;
    without numpy each caller takes its scalar oracle instead."""
    return _np is not None


#: Gene encoding base — keep in sync with repro.core.macro_partition.
_ENCODING_BASE = 1000


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
    arbitrary-precision arithmetic bit for bit).
    """

    total_blocks: "object"  # (T, L) int64 — ceil(out_positions / WtDup)
    inputs_per_block: "object"  # (T, L) int64 — WtDup * rows
    outputs_per_block: "object"  # (T, L) int64 — WtDup * cols
    group_cap: "object"  # (T, L) int64 — min(WtDup*row_tiles, crossbars)
    crossbars: "object"  # (T, L) int64 — WtDup * set_size
    conversions_per_block_bit: "object"  # (T, L) int64
    bits: "object"  # (T,) int64 — ceil(PrecAct / ResDAC)
    adc_power: "object"  # (T, L) float64 — ADC power at required res.
    vector_ops: "object"  # (L,) float64 — ALU-only workload per layer
    per_crossbar_fixed: "object"  # (T,) float64 — XbSize*(DAC+S&H)
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
    def num_tasks(self) -> int:
        return len(self.bits)

    @property
    def num_layers(self) -> int:
        return len(self.vector_ops)


# ----------------------------------------------------------------------
# The population-scoring input/output contract (batch_eval seam)
# ----------------------------------------------------------------------
@dataclass
class PopulationContext:
    """Gene-independent context for fused population scoring.

    Built once per (spec, budget, ResDAC) by
    :class:`repro.core.batch_eval.BatchPerformanceEvaluator` — all
    per-layer arrays are host numpy (float64/int64) regardless of the
    backend that consumes them, exactly like :class:`TaskGrid`. The
    inter-layer edge structure arrives as two CSR walks so the loop
    kernels (and their numba JIT) never touch Python containers:

    * ``comm_offsets`` / ``comm_consumer`` — producer-major, in
      ``spec.model.interlayer_edges()`` order: the §IV-B activation
      transfer accumulation order.
    * ``lat_offsets`` / ``lat_producer`` / ``lat_fraction`` —
      consumer-major: the fine-grained pipeline forward pass.

    The vectorized engine reads the same edges through gene-free index
    arrays, so its Python loops run over out-edge slots and topological
    levels rather than over layers and edges. They are built with the
    CSR walks and live on the context, so they go when it goes:

    * ``comm_producer`` — the producer of each ``comm_consumer`` entry;
      with it every edge's transfer time is one ``(population, E)``
      array.
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
    * ``merge_layers`` — the row-tiled layers (``row_tiles > 1``), the
      only ones with a partial-sum merge term.
    """

    # Per-layer geometry / workload arrays (L,).
    mvm: "object"  # float64 — exact MVM time per layer
    load_num: "object"  # float64 — load-bytes numerator
    store_num: "object"  # float64 — store-bytes numerator
    total_blocks: "object"  # int64
    row_tiles: "object"  # int64
    merge_rounds: "object"  # int64 — ceil(log2(row_tiles)) when > 1
    per_round_num: "object"  # float64 — outputs_per_block * act_bytes
    out_bytes: "object"  # float64 — out_positions * cols * act_bytes
    adc_wl: "object"  # float64 — Eq. 5 ADC workload
    alu_wl: "object"  # float64 — Eq. 5 ALU workload
    adc_powers: "object"  # float64 — ADC power at required resolution
    # Inter-layer edges (CSR, host int64/float64).
    comm_offsets: "object"  # (L+1,) int64
    comm_consumer: "object"  # (E,) int64
    lat_offsets: "object"  # (L+1,) int64
    lat_producer: "object"  # (E,) int64
    lat_fraction: "object"  # (E,) float64
    # The same edges as gene-free index arrays (vectorized engine).
    comm_producer: "object"  # (E,) int64
    out_slots: Tuple[Tuple["object", "object"], ...]
    levels: Tuple[Tuple["object", "object", "object"], ...]
    merge_layers: "object"  # (R,) int64
    # Scalars.
    denom: float  # Eq. 6 balanced-delay denominator
    per_macro_fixed: float
    crossbar_fixed: float
    peripheral_power: float
    adc_rate: float
    alu_rate: float
    alu_power: float
    adc_power_unit: float  # identical-macro ADC unit power (§V-C2)
    edram_bandwidth: float
    noc_port_bandwidth: float
    noc_hop_latency: float
    rram_power: float
    macs2: float  # 2 * model MACs
    overlap_window: int
    enable_macro_sharing: bool
    identical_macros: bool

    @property
    def num_layers(self) -> int:
        return len(self.mvm)


@dataclass
class PopulationScores:
    """Fused-kernel output: one host-numpy entry per gene, in order.

    Infeasible lanes are fully masked *inside* the kernel (metrics 0.0,
    ``bottleneck_layer`` -1, ``num_macros`` 0) so every field is
    defined and ``==``-comparable across backends — loop engines skip
    infeasible lanes entirely rather than propagating NaN.
    """

    feasible: "object"  # (P,) bool
    fitness: "object"  # (P,) float64 — EA fitness (img/s)
    period: "object"
    latency: "object"
    throughput: "object"
    tops: "object"
    power: "object"
    tops_per_watt: "object"
    energy_per_image: "object"
    edp: "object"
    bottleneck_layer: "object"  # (P,) int64 (-1 when infeasible)
    num_macros: "object"  # (P,) int64 (0 when infeasible)


def _bound_loops(
    total_blocks, inputs_per_block, outputs_per_block, group_cap,
    crossbars, conversions_per_block_bit, bits, adc_power, vector_ops,
    per_crossbar_fixed, peripheral_power, crossbar_latency, act_bytes,
    edram_bandwidth, per_macro_fixed, adc_sample_rate, alu_power,
    alu_frequency, min_macros, macro_sharing, out,
):
    """Scalar-loop bound kernel (the ``python`` and ``numba`` engine).

    Replicates :func:`repro.core.evaluator.throughput_upper_bound` one
    task at a time, in the exact operation order of the scalar code —
    this function is deliberately numba-``njit``-compatible (flat loops,
    no Python containers), so the JIT backend compiles it unchanged.
    """
    num_tasks, num_layers = total_blocks.shape
    for t in range(num_tasks):
        # Rule c's largest permitted macro group bounds eDRAM bandwidth.
        max_group = group_cap[t, 0]
        for l in range(1, num_layers):
            if group_cap[t, l] > max_group:
                max_group = group_cap[t, l]
        if max_group < 1:
            max_group = 1
        bandwidth = edram_bandwidth * max_group

        # Structural floor: exact MVM time, best-case load/store.
        period_floor = 0.0
        for l in range(num_layers):
            mvm = (total_blocks[t, l] * bits[t]) * crossbar_latency
            load = (
                (total_blocks[t, l] * inputs_per_block[t, l]) * act_bytes
            ) / bandwidth
            store = (
                (total_blocks[t, l] * outputs_per_block[t, l]) * act_bytes
            ) / bandwidth
            stage = mvm
            if load > stage:
                stage = load
            if store > stage:
                stage = store
            if stage > period_floor:
                period_floor = stage

        # Fixed-overhead floor (fewest macros any partition can use).
        total_crossbars = 0
        for l in range(num_layers):
            total_crossbars += crossbars[t, l]
        fixed = (
            min_macros * per_macro_fixed
            + total_crossbars * per_crossbar_fixed[t]
        )
        available = peripheral_power[t] - fixed
        if available <= 0:
            out[t] = 0.0
            continue

        # Eq. 6 power floor: holding every delay at D costs denom / D.
        adc_denom = 0.0
        alu_denom = 0.0
        for l in range(num_layers):
            conversions = (
                total_blocks[t, l] * bits[t]
            ) * conversions_per_block_bit[t, l]
            adc_wl = float(conversions)
            alu_wl = float(conversions) + vector_ops[l]
            adc_denom = adc_denom + (
                adc_power[t, l] * adc_wl / adc_sample_rate
            )
            alu_denom = alu_denom + (
                alu_power * alu_wl / alu_frequency
            )
        if macro_sharing:
            adc_denom = adc_denom / 2.0
        power_floor = (adc_denom + alu_denom) / available
        if power_floor > period_floor:
            period_floor = power_floor
        if period_floor <= 0:
            out[t] = math.inf
        else:
            out[t] = 1.0 / period_floor
    return out


def _score_loops(
    genes,
    mvm, load_num, store_num, total_blocks, row_tiles, merge_rounds,
    per_round_num, out_bytes, adc_wl, alu_wl, adc_powers,
    comm_offsets, comm_consumer, lat_offsets, lat_producer,
    lat_fraction,
    denom, per_macro_fixed, crossbar_fixed, peripheral_power,
    adc_rate, alu_rate, alu_power, adc_power_unit,
    edram_bandwidth, noc_port_bandwidth, noc_hop_latency,
    rram_power, macs2, overlap_window,
    enable_macro_sharing, identical_macros,
    feasible_out, fitness_out, period_out, latency_out,
    throughput_out, tops_out, power_out, tops_per_watt_out,
    energy_out, edp_out, bottleneck_out, num_macros_out,
):
    """Scalar-loop population kernel (the ``python``/``numba`` engine).

    Replicates the vectorized batch-eval math one gene at a time, in
    the exact per-lane operation order of the numpy engine (which in
    turn mirrors the scalar oracle), so outputs are bit-identical for
    every lane the oracle evaluates. Validation is the caller's job —
    this kernel assumes well-formed genes. Deliberately
    numba-``njit``-compatible: flat loops, preallocated scratch, no
    Python containers.
    """
    pop, n = genes.shape
    owners = _np.empty(n, _np.int64)
    counts = _np.empty(n, _np.int64)
    sbo = _np.empty(n, _np.int64)  # group start, by owner layer
    group_start = _np.empty(n, _np.int64)
    group_len = _np.empty(n, _np.int64)
    partner = _np.empty(n, _np.int64)
    adc_alloc = _np.empty(n, _np.float64)
    alu_alloc = _np.empty(n, _np.float64)
    adc_delay = _np.empty(n, _np.float64)
    alu_delay = _np.empty(n, _np.float64)
    load_arr = _np.empty(n, _np.float64)
    store_arr = _np.empty(n, _np.float64)
    comm = _np.empty(n, _np.float64)
    stage = _np.empty(n, _np.float64)
    starts = _np.empty(n, _np.float64)
    ow = overlap_window
    if ow < 1:
        ow = 1
    for p in range(pop):
        # -- decode: contiguous owner groups in layer order ------------
        total_macros = 0
        acc = 0
        for l in range(n):
            owner = genes[p, l] // _ENCODING_BASE
            owners[l] = owner
            counts[l] = genes[p, l] - owner * _ENCODING_BASE
        for l in range(n):
            sbo[l] = acc
            if owners[l] == l:
                acc += counts[l]
                total_macros += counts[l]
        for l in range(n):
            o = owners[l]
            group_start[l] = sbo[o]
            group_len[l] = counts[o]

        # -- Eq. 6 allocation + rule-b sharing -------------------------
        fixed = float(total_macros) * per_macro_fixed + crossbar_fixed
        available = peripheral_power - fixed
        feas = available > 0.0
        adc_alu_power = 0.0
        if identical_macros:
            if feas:
                adc_demand = adc_wl[0] / group_len[0]
                alu_demand = alu_wl[0] / group_len[0]
                for l in range(1, n):
                    v = adc_wl[l] / group_len[l]
                    if v > adc_demand:
                        adc_demand = v
                    v = alu_wl[l] / group_len[l]
                    if v > alu_demand:
                        alu_demand = v
                adc_share_weight = adc_power_unit * adc_demand / adc_rate
                alu_share_weight = alu_power * alu_demand / alu_rate
                weight_sum = adc_share_weight + alu_share_weight
                if weight_sum > 0.0:
                    adc_power_total = (
                        available * adc_share_weight / weight_sum
                    )
                    alu_power_total = (
                        available * alu_share_weight / weight_sum
                    )
                    per_macro_adc = adc_power_total / (
                        float(total_macros) * adc_power_unit
                    )
                    per_macro_alu = alu_power_total / (
                        float(total_macros) * alu_power
                    )
                    if per_macro_adc > 0.0 and per_macro_alu > 0.0:
                        for l in range(n):
                            bank = per_macro_adc * group_len[l]
                            lanes = per_macro_alu * group_len[l]
                            adc_delay[l] = adc_wl[l] / (adc_rate * bank)
                            alu_delay[l] = alu_wl[l] / (alu_rate * lanes)
                        adc_alu_power = adc_power_total + alu_power_total
                    else:
                        feas = False
                else:
                    feas = False
        else:
            if denom <= 0.0:
                feas = False
            if feas:
                balanced = denom / available
                t_adc = adc_rate * balanced
                t_alu = alu_rate * balanced
                for l in range(n):
                    adc_alloc[l] = adc_wl[l] / t_adc
                    alu_alloc[l] = alu_wl[l] / t_alu
                    partner[l] = -1
                # Sharing post-pass (rule b): per sharer layer i, in
                # ascending i order — the exact pair order the scalar
                # code receives from MacroPartition.from_gene.
                savings = 0.0
                if enable_macro_sharing:
                    for i in range(n):
                        if owners[i] == i:
                            continue
                        j = owners[i]
                        a_i = adc_alloc[i]
                        a_j = adc_alloc[j]
                        p_i = adc_powers[i]
                        p_j = adc_powers[j]
                        bank = a_j if a_j > a_i else a_i
                        unit = p_j if p_j > p_i else p_i
                        separate = p_j * a_j + p_i * a_i
                        merged = unit * bank
                        if merged < separate:
                            savings = savings + (separate - merged)
                            partner[i] = j
                            partner[j] = i
                if savings > 0.0 and savings < available:
                    scale = available / (available - savings)
                else:
                    scale = 1.0
                for l in range(n):
                    pj = partner[l]
                    if pj >= 0:
                        a_l = adc_alloc[l]
                        a_p = adc_alloc[pj]
                        bank2 = (a_l if a_l > a_p else a_p) * scale
                        dist = l - pj
                        if dist < 0:
                            dist = -dist
                        overlap = 1.0 - dist / ow
                        if overlap < 0.0:
                            overlap = 0.0
                        eff_adc = bank2 / (1.0 + overlap)
                    else:
                        eff_adc = adc_alloc[l] * scale
                    eff_alu = alu_alloc[l] * scale
                    adc_delay[l] = adc_wl[l] / (adc_rate * eff_adc)
                    alu_delay[l] = alu_wl[l] / (alu_rate * eff_alu)
                # Power drawn: shared banks counted once, at the pair's
                # first (owner-side) index; ordered accumulation.
                adc_used = 0.0
                for l in range(n):
                    pj = partner[l]
                    if pj >= 0:
                        if l < pj:
                            a_l = adc_alloc[l]
                            a_p = adc_alloc[pj]
                            bank2 = (a_l if a_l > a_p else a_p) * scale
                            pw_l = adc_powers[l]
                            pw_p = adc_powers[pj]
                            pw = pw_l if pw_l > pw_p else pw_p
                            adc_used = adc_used + pw * bank2
                    else:
                        adc_used = adc_used + (
                            adc_powers[l] * adc_alloc[l]
                        ) * scale
                alu_used = 0.0
                for l in range(n):
                    alu_used = alu_used + (
                        alu_power * alu_alloc[l]
                    ) * scale
                adc_alu_power = adc_used + alu_used

        if feas:
            # -- §IV-B stage times -------------------------------------
            tm = total_macros
            if tm < 1:
                tm = 1
            cols = int(math.ceil(math.sqrt(float(tm))))
            if cols < 1:
                cols = 1
            for l in range(n):
                bw = edram_bandwidth * group_len[l]
                load_arr[l] = load_num[l] / bw
                store_arr[l] = store_num[l] / bw
                commv = 0.0
                # Partial-sum merge for row-tiled layers spanning macros.
                if row_tiles[l] > 1 and group_len[l] > 1:
                    s = group_start[l]
                    neighbor = abs(s // cols - (s + 1) // cols) + abs(
                        s % cols - (s + 1) % cols
                    )
                    if neighbor < 1:
                        neighbor = 1
                    prb = per_round_num[l] / group_len[l]
                    per_block = merge_rounds[l] * (
                        prb / noc_port_bandwidth
                        + neighbor * noc_hop_latency
                    )
                    commv = commv + total_blocks[l] * per_block
                comm[l] = commv
            # Activation transfers, per inter-layer edge in model order.
            for producer in range(n):
                for e in range(
                    comm_offsets[producer], comm_offsets[producer + 1]
                ):
                    consumer = comm_consumer[e]
                    if owners[producer] == owners[consumer]:
                        continue
                    s0 = group_start[producer]
                    s1 = s0 + group_len[producer] - 1
                    d0 = group_start[consumer]
                    d1 = d0 + group_len[consumer] - 1
                    h1 = abs(s0 // cols - d0 // cols) + abs(
                        s0 % cols - d0 % cols
                    )
                    h2 = abs(s1 // cols - d0 // cols) + abs(
                        s1 % cols - d0 % cols
                    )
                    h3 = abs(s0 // cols - d1 // cols) + abs(
                        s0 % cols - d1 % cols
                    )
                    h4 = abs(s1 // cols - d1 // cols) + abs(
                        s1 % cols - d1 % cols
                    )
                    ha = h1 if h1 < h2 else h2
                    hb = h3 if h3 < h4 else h4
                    hmin = ha if ha < hb else hb
                    gp = group_len[producer]
                    gc = group_len[consumer]
                    ports = gp if gp < gc else gc
                    serialization = out_bytes[producer] / (
                        noc_port_bandwidth * ports
                    )
                    head = (
                        total_blocks[producer] * hmin
                    ) * noc_hop_latency
                    comm[producer] = comm[producer] + (
                        serialization + head
                    )
            # Stage maxima; argmax keeps the first occurrence like
            # np.argmax.
            per = 0.0
            bot = 0
            for l in range(n):
                st = mvm[l]
                if adc_delay[l] > st:
                    st = adc_delay[l]
                if alu_delay[l] > st:
                    st = alu_delay[l]
                if load_arr[l] > st:
                    st = load_arr[l]
                if store_arr[l] > st:
                    st = store_arr[l]
                if comm[l] > st:
                    st = comm[l]
                stage[l] = st
                if l == 0 or st > per:
                    per = st
                    bot = l
            # Fine-grained pipeline latency (forward pass).
            lat = 0.0
            for idx in range(n):
                s = 0.0
                for e in range(lat_offsets[idx], lat_offsets[idx + 1]):
                    prod = lat_producer[e]
                    cand = starts[prod] + stage[prod] * lat_fraction[e]
                    if cand > s:
                        s = cand
                starts[idx] = s
                end = s + stage[idx]
                if idx == 0 or end > lat:
                    lat = end
            # -- power account + derived metrics -----------------------
            power = rram_power + (fixed + adc_alu_power)
            throughput = 1.0 / per
            tops = macs2 / per / 1e12
            if power > 0.0:
                tpw = tops / power
            else:
                tpw = 0.0
            energy = power * lat
            edp = energy * lat
            feasible_out[p] = True
            fitness_out[p] = throughput
            period_out[p] = per
            latency_out[p] = lat
            throughput_out[p] = throughput
            tops_out[p] = tops
            power_out[p] = power
            tops_per_watt_out[p] = tpw
            energy_out[p] = energy
            edp_out[p] = edp
            bottleneck_out[p] = bot
            num_macros_out[p] = total_macros
        else:
            feasible_out[p] = False
            fitness_out[p] = 0.0
            period_out[p] = 0.0
            latency_out[p] = 0.0
            throughput_out[p] = 0.0
            tops_out[p] = 0.0
            power_out[p] = 0.0
            tops_per_watt_out[p] = 0.0
            energy_out[p] = 0.0
            edp_out[p] = 0.0
            bottleneck_out[p] = -1
            num_macros_out[p] = 0


# ----------------------------------------------------------------------
# Backend interface
# ----------------------------------------------------------------------
class ArrayBackend:
    """One array-execution engine for the tensorized DSE paths.

    Subclasses implement the three calls the DSE makes: the SA
    filter's ordered row sum and the fused kernels (task-grid bounds,
    population scoring). The module's engine table holds one shared
    instance per name. ``available()`` gates optional dependencies —
    an unavailable engine stays listed (with its reason) but cannot be
    selected.
    """

    #: Table key; subclasses must override with a non-empty name.
    name: str = ""
    description: str = ""

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can execute on this interpreter."""
        return True

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        """Human-readable reason when :meth:`available` is False."""
        return None

    def ordered_sum(self, terms) -> "object":
        """Left-to-right sum over axis 1 of a ``(T, L)`` array.

        Matches the scalar oracle's ordered sums
        (:func:`repro.utils.mathutils.ordered_sum`) — *not* numpy's
        pairwise ``np.sum``, which can differ in the last ulp.
        """
        raise NotImplementedError

    def compute_bounds(self, grid: TaskGrid) -> "object":
        """Per-task throughput upper bounds for a whole task grid.

        Must be bit-identical to calling :func:`repro.core.evaluator.
        throughput_upper_bound` once per task.
        """
        raise NotImplementedError

    def score_population(
        self, ctx: PopulationContext, genes
    ) -> PopulationScores:
        """Fused batch-eval kernel: score a whole gene population.

        Must match the scalar oracle per lane, bit for bit. Outputs are
        numpy arrays with infeasible lanes masked.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# The vectorized engine
# ----------------------------------------------------------------------
def _row_sums(terms):
    """Left-to-right row sums of a ``(T, L)`` float64 array: the last
    column of a sequential ``cumsum``. It adds exactly like the loops'
    ``acc = 0.0; acc = acc + term``, except that a row of only ``-0.0``
    terms sums to ``-0.0`` instead of ``+0.0`` (the two are ``==``).
    The kernels pass non-negative terms, with a skipped term set to
    ``+0.0``, which adds exactly nothing."""
    return _np.cumsum(terms, axis=1)[:, -1]


def _manhattan(a, b):
    """Hops between two ``(row, col)`` mesh positions."""
    return _np.abs(a[0] - b[0]) + _np.abs(a[1] - b[1])


def _hops(a, b, cols):
    return _manhattan(_np.divmod(a, cols), _np.divmod(b, cols))


def _decode(genes):
    """(owners, is_owner, total_macros, group_start, group_len):
    contiguous owner groups in layer order, exactly as
    ``MacroPartition.from_gene`` assigns them."""
    owners, counts = _np.divmod(genes, _ENCODING_BASE)
    is_owner = owners == _np.arange(genes.shape[1], dtype=_np.int64)
    sizes = _np.where(is_owner, counts, 0)
    group_starts_by_owner = _np.cumsum(sizes, axis=1) - sizes
    total_macros = sizes.sum(axis=1)
    group_start = _np.take_along_axis(group_starts_by_owner, owners, axis=1)
    group_len = _np.take_along_axis(counts, owners, axis=1)
    return owners, is_owner, total_macros, group_start, group_len


class NumpyBackend(ArrayBackend):
    """Vectorized ``(tasks, layers)`` evaluation (the default)."""

    name = "numpy"
    description = "vectorized numpy engine (default)"

    @classmethod
    def available(cls) -> bool:
        return _np is not None

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        if _np is None:
            return "numpy is not importable on this interpreter"
        return None

    def ordered_sum(self, terms):
        return _row_sums(_np.asarray(terms, dtype=_np.float64))

    def compute_bounds(self, grid: TaskGrid):
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
            adc_denom = _row_sums(
                grid.adc_power * adc_wl / grid.adc_sample_rate
            )
            alu_denom = _row_sums(
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

    def score_population(self, ctx: PopulationContext, genes):
        """Vectorized batch-eval kernel.

        Per-layer and per-edge quantities are whole ``(population,
        layers)`` and ``(population, edges)`` array ops over the
        context's gene-free index arrays; the only Python loops run
        over ``ctx.out_slots`` (at most the largest out-degree) and
        ``ctx.levels`` (the DAG depth). Every step keeps the loop
        kernel's IEEE-754 evaluation order, so the result is its bits:

        * elementwise formulas are the loops', operand for operand;
        * ordered sums (rule-b savings, the ADC and ALU power accounts)
          are :func:`_row_sums` over term arrays — no term is negative
          and a skipped one is ``+0.0``, so these are the loops' adds,
          in layer order; the owner side of a sharing pair keeps the
          loops' last write, its largest sharer;
        * ``comm`` starts as the partial-sum merge term, and each
          producer's activation transfers are folded in one out-edge
          slot at a time, i.e. in its left-to-right edge order;
        * stage maxima, the period and the latency forward pass are
          ``max`` reductions, exact in any grouping, so the forward
          pass runs one topological level at a time.
        """
        genes = _np.asarray(genes, dtype=_np.int64)
        pop, n = genes.shape
        adc_wl = ctx.adc_wl[None, :]
        alu_wl = ctx.alu_wl[None, :]
        adc_powers = ctx.adc_powers
        with _np.errstate(all="ignore"):
            owners, is_owner, total_macros, group_start, group_len = (
                _decode(genes)
            )
            layer_idx = _np.arange(n, dtype=_np.int64)

            # -- Eq. 6 allocation + rule-b sharing ---------------------
            fixed = (
                total_macros.astype(_np.float64) * ctx.per_macro_fixed
                + ctx.crossbar_fixed
            )
            available = ctx.peripheral_power - fixed
            feasible = available > 0.0
            if ctx.identical_macros:
                macro_count = group_len  # every group has >= 1 macro
                adc_demand = (adc_wl / macro_count).max(axis=1)
                alu_demand = (alu_wl / macro_count).max(axis=1)
                adc_share_weight = (
                    ctx.adc_power_unit * adc_demand / ctx.adc_rate
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
                    total_macros * ctx.adc_power_unit
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
                adc_alu_power = adc_power_total + alu_power_total
            else:
                if ctx.denom <= 0:
                    # Gene-independent: the scalar path raises for
                    # every gene.
                    feasible = _np.zeros(pop, dtype=bool)
                balanced_delay = ctx.denom / available
                adc_alloc = adc_wl / (
                    ctx.adc_rate * balanced_delay
                )[:, None]
                alu_alloc = alu_wl / (
                    ctx.alu_rate * balanced_delay
                )[:, None]

                # Sharing post-pass (rule b): every sharer layer i
                # against its owner j = owners[:, i] at once.
                savings = _np.zeros(pop, dtype=_np.float64)
                partner = _np.full((pop, n), -1, dtype=_np.int64)
                if ctx.enable_macro_sharing:
                    a_j = _np.take_along_axis(adc_alloc, owners, axis=1)
                    p_j = adc_powers[owners]
                    p_i = adc_powers[None, :]
                    separate = p_j * a_j + p_i * adc_alloc
                    merged = _np.maximum(p_j, p_i) * _np.maximum(
                        a_j, adc_alloc
                    )
                    include = ~is_owner & (merged < separate)
                    savings = _row_sums(
                        _np.where(include, separate - merged, 0.0)
                    )
                    # The oracle pairs i -> j and j -> i in ascending i,
                    # so an owner keeps its largest included sharer.
                    claims = include[:, :, None] & (
                        owners[:, :, None] == layer_idx[None, None, :]
                    )
                    owner_side = _np.where(
                        claims, layer_idx[None, :, None], -1
                    ).max(axis=1)
                    partner = _np.where(include, owners, owner_side)

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
                partner_alloc = _np.take_along_axis(
                    adc_alloc, partner_idx, axis=1
                )
                bank = _np.maximum(adc_alloc, partner_alloc) * scale
                distance = _np.abs(layer_idx[None, :] - partner_idx)
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

                # Power drawn: a shared bank is counted once, at the
                # pair's first (owner-side) index.
                solo = (adc_powers[None, :] * adc_alloc) * scale
                pair = _np.maximum(
                    adc_powers[None, :], adc_powers[partner_idx]
                ) * bank
                counted = ~has_partner | (
                    partner_idx > layer_idx[None, :]
                )
                adc_power_used = _row_sums(
                    _np.where(
                        counted, _np.where(has_partner, pair, solo), 0.0
                    )
                )
                alu_power_used = _row_sums(
                    (ctx.alu_power * alu_alloc) * scale
                )
                adc_alu_power = adc_power_used + alu_power_used

            # -- §IV-B stage times -------------------------------------
            bandwidth = ctx.edram_bandwidth * group_len
            load = ctx.load_num[None, :] / bandwidth
            store = ctx.store_num[None, :] / bandwidth
            cols = _np.maximum(
                1,
                _np.ceil(
                    _np.sqrt(_np.maximum(1, total_macros))
                ).astype(_np.int64),
            )[:, None]
            # Partial-sum merge of the row-tiled layers spanning more
            # than one macro; comm starts here, as 0.0 + merge == merge.
            comm = _np.zeros((pop, n), dtype=_np.float64)
            tiled = ctx.merge_layers
            length = group_len[:, tiled]
            start = group_start[:, tiled]
            neighbor = _hops(start, start + 1, cols)
            per_round_bytes = ctx.per_round_num[tiled] / length
            per_block = ctx.merge_rounds[tiled] * (
                per_round_bytes / ctx.noc_port_bandwidth
                + _np.maximum(1, neighbor) * ctx.noc_hop_latency
            )
            merge_time = ctx.total_blocks[tiled] * per_block
            comm[:, tiled] = _np.where(length > 1, merge_time, 0.0)

            # Activation transfers of every inter-layer edge at once:
            # the four-corner hop minimum between the group ranges' end
            # macros, serialization over the narrower group, head flits.
            src = ctx.comm_producer
            dst = ctx.comm_consumer
            last = group_start + group_len - 1
            s0, s1, d0, d1 = (
                _np.divmod(macro, cols) for macro in (
                    group_start[:, src], last[:, src],
                    group_start[:, dst], last[:, dst],
                )
            )
            hops = _np.minimum(
                _np.minimum(_manhattan(s0, d0), _manhattan(s1, d0)),
                _np.minimum(_manhattan(s0, d1), _manhattan(s1, d1)),
            )
            ports = _np.minimum(group_len[:, src], group_len[:, dst])
            serialization = ctx.out_bytes[src] / (
                ctx.noc_port_bandwidth * ports
            )
            head = (ctx.total_blocks[src] * hops) * ctx.noc_hop_latency
            # An edge inside one macro group moves nothing; its +0.0
            # term leaves the never-negative comm bit-for-bit unchanged.
            transfer = _np.where(
                owners[:, src] == owners[:, dst], 0.0, serialization + head
            )
            # Slot k adds each producer's k-th out-edge, so every
            # producer sums its transfers in the loops' edge order.
            for producers, edges in ctx.out_slots:
                comm[:, producers] = comm[:, producers] + transfer[:, edges]

            stage_total = _np.maximum(ctx.mvm[None, :], adc_delay)
            stage_total = _np.maximum(stage_total, alu_delay)
            stage_total = _np.maximum(stage_total, load)
            stage_total = _np.maximum(stage_total, store)
            stage_total = _np.maximum(stage_total, comm)

            period = stage_total.max(axis=1)
            bottleneck = stage_total.argmax(axis=1)

            # Fine-grained pipeline latency, one topological level at a
            # time: a layer starts at the latest of its producers'
            # start + stage * fraction. Every candidate is a
            # non-negative start plus a non-negative share, so the
            # loops' 0.0 seed never changes the max.
            shares = stage_total[:, ctx.lat_producer] * ctx.lat_fraction
            starts = _np.zeros((pop, n), dtype=_np.float64)
            for consumers, producers, edges in ctx.levels:
                starts[:, consumers] = (
                    starts[:, producers] + shares[:, edges]
                ).max(axis=1)
            latency = (starts + stage_total).max(axis=1)

            # -- power account + derived metrics -----------------------
            power = ctx.rram_power + (fixed + adc_alu_power)
            throughput = 1.0 / period
            tops = ctx.macs2 / period / 1e12
            tops_per_watt = _np.where(power > 0, tops / power, 0.0)
            energy = power * latency
            edp = energy * latency

        def _mask(values):
            return _np.where(feasible, values, 0.0)

        return PopulationScores(
            feasible=feasible,
            fitness=_mask(throughput),
            period=_mask(period),
            latency=_mask(latency),
            throughput=_mask(throughput),
            tops=_mask(tops),
            power=_mask(power),
            tops_per_watt=_mask(tops_per_watt),
            energy_per_image=_mask(energy),
            edp=_mask(edp),
            bottleneck_layer=_np.where(feasible, bottleneck, -1),
            num_macros=_np.where(feasible, total_macros, 0),
        )


# ----------------------------------------------------------------------
# The loop engines
# ----------------------------------------------------------------------
class PythonBackend(ArrayBackend):
    """Dependency-free scalar loops — the conformance reference."""

    name = "python"
    description = "pure-Python loop engine (reference / fallback)"

    def ordered_sum(self, terms):
        return [
            mathutils.ordered_sum(float(value) for value in row)
            for row in terms
        ]

    def _kernel(self):
        """The bound loop kernel to run (the JIT backend overrides)."""
        return _bound_loops

    def _score_kernel(self):
        """The population loop kernel (the JIT backend overrides)."""
        return _score_loops

    def compute_bounds(self, grid: TaskGrid):
        if _np is None:  # pragma: no cover - grid assembly needs numpy
            raise ConfigurationError(
                "grid evaluation requires numpy (the TaskGrid arrays "
                "are numpy even for the loop backends)"
            )
        out = _np.zeros(grid.num_tasks, dtype=_np.float64)
        return self._kernel()(
            grid.total_blocks, grid.inputs_per_block,
            grid.outputs_per_block, grid.group_cap, grid.crossbars,
            grid.conversions_per_block_bit, grid.bits, grid.adc_power,
            grid.vector_ops, grid.per_crossbar_fixed,
            grid.peripheral_power, grid.crossbar_latency,
            grid.act_bytes, grid.edram_bandwidth, grid.per_macro_fixed,
            grid.adc_sample_rate, grid.alu_power, grid.alu_frequency,
            grid.min_macros, grid.macro_sharing, out,
        )

    def score_population(self, ctx: PopulationContext, genes):
        if _np is None:  # pragma: no cover - ctx assembly needs numpy
            raise ConfigurationError(
                "batched evaluation requires numpy (the "
                "PopulationContext arrays are numpy even for the "
                "loop backends)"
            )
        genes = _np.asarray(genes, dtype=_np.int64)
        pop = genes.shape[0]
        feasible = _np.zeros(pop, dtype=bool)
        fitness = _np.zeros(pop, dtype=_np.float64)
        period = _np.zeros(pop, dtype=_np.float64)
        latency = _np.zeros(pop, dtype=_np.float64)
        throughput = _np.zeros(pop, dtype=_np.float64)
        tops = _np.zeros(pop, dtype=_np.float64)
        power = _np.zeros(pop, dtype=_np.float64)
        tops_per_watt = _np.zeros(pop, dtype=_np.float64)
        energy = _np.zeros(pop, dtype=_np.float64)
        edp = _np.zeros(pop, dtype=_np.float64)
        bottleneck = _np.zeros(pop, dtype=_np.int64)
        num_macros = _np.zeros(pop, dtype=_np.int64)
        # errstate: the kernel's per-lane numpy-scalar arithmetic may
        # produce inf/nan exactly where the vectorized engine does;
        # suppress the matching warnings the same way.
        with _np.errstate(all="ignore"):
            self._score_kernel()(
                genes,
                ctx.mvm, ctx.load_num, ctx.store_num, ctx.total_blocks,
                ctx.row_tiles, ctx.merge_rounds, ctx.per_round_num,
                ctx.out_bytes, ctx.adc_wl, ctx.alu_wl, ctx.adc_powers,
                ctx.comm_offsets, ctx.comm_consumer, ctx.lat_offsets,
                ctx.lat_producer, ctx.lat_fraction,
                ctx.denom, ctx.per_macro_fixed, ctx.crossbar_fixed,
                ctx.peripheral_power, ctx.adc_rate, ctx.alu_rate,
                ctx.alu_power, ctx.adc_power_unit,
                ctx.edram_bandwidth, ctx.noc_port_bandwidth,
                ctx.noc_hop_latency, ctx.rram_power, ctx.macs2,
                int(ctx.overlap_window),
                bool(ctx.enable_macro_sharing),
                bool(ctx.identical_macros),
                feasible, fitness, period, latency, throughput, tops,
                power, tops_per_watt, energy, edp, bottleneck,
                num_macros,
            )
        return PopulationScores(
            feasible=feasible, fitness=fitness, period=period,
            latency=latency, throughput=throughput, tops=tops,
            power=power, tops_per_watt=tops_per_watt,
            energy_per_image=energy, edp=edp,
            bottleneck_layer=bottleneck, num_macros=num_macros,
        )


class NumbaBackend(PythonBackend):
    """The loop kernels JIT-compiled with ``numba.njit`` (IEEE-strict).

    ``fastmath`` stays off: reassociation would break the bit-identity
    contract that makes the tensorized walk safe. Both compiled kernels
    (bounds and population scoring) are cached on the class after the
    first call.
    """

    name = "numba"
    description = "numba-JIT loop engine (optional dependency)"
    _compiled = None
    _score_compiled = None

    @classmethod
    def available(cls) -> bool:
        try:
            import numba  # noqa: F401
        except ImportError:
            return False
        return _np is not None

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        if not cls.available():
            return (
                "numba is not importable on this interpreter "
                "(install numba to enable the JIT backend)"
            )
        return None  # pragma: no cover - numba present

    def _kernel(self):  # pragma: no cover - needs numba installed
        if NumbaBackend._compiled is None:
            import numba

            NumbaBackend._compiled = numba.njit(
                cache=False, fastmath=False
            )(_bound_loops)
        return NumbaBackend._compiled

    def _score_kernel(self):  # pragma: no cover - needs numba installed
        if NumbaBackend._score_compiled is None:
            import numba

            NumbaBackend._score_compiled = numba.njit(
                cache=False, fastmath=False
            )(_score_loops)
        return NumbaBackend._score_compiled


# ----------------------------------------------------------------------
# The engine table
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, ArrayBackend] = {
    backend.name: backend
    for backend in (NumpyBackend(), PythonBackend(), NumbaBackend())
}

#: The backend every config selects unless told otherwise: the
#: vectorized engine when numpy imports, the loop oracle otherwise.
DEFAULT_BACKEND = "numpy" if numpy_available() else "python"


def get_backend(name: str = DEFAULT_BACKEND) -> ArrayBackend:
    """Look up an *available* backend by name; an instance passes
    through unchanged.

    Unknown names and unavailable engines (``numba`` without numba
    installed) both raise :class:`~repro.errors.ConfigurationError`
    with an actionable message — configs fail fast at construction,
    not mid-walk. The unknown-name message lists the selectable
    engines, then every other one with the reason it is unavailable.
    """
    if isinstance(name, ArrayBackend):
        return name
    backend = _BACKENDS.get(name)
    if backend is None:
        status = backend_status()
        message = f"unknown backend {name!r}; available: " + str(
            [other for other, ok, _ in status if ok]
        )
        for other, ok, reason in status:
            if not ok:
                message += f"; {other!r} is unavailable: {reason}"
        raise ConfigurationError(message)
    if not backend.available():
        raise ConfigurationError(
            f"backend {name!r} is unavailable: "
            f"{backend.unavailable_reason()}"
        )
    return backend


def available_backends() -> List[str]:
    """Every backend name in table order, selectable here or not
    (:func:`backend_status` says which)."""
    return list(_BACKENDS)


def backend_status() -> List[Tuple[str, bool, str]]:
    """(name, available, description-or-reason) for every backend."""
    rows = []
    for name, backend in _BACKENDS.items():
        ok = backend.available()
        note = backend.description if ok else (
            backend.unavailable_reason() or "unavailable"
        )
        rows.append((name, ok, note))
    return rows
