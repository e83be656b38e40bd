"""Pluggable array-execution backends for the tensorized DSE paths.

PR 3 vectorized the inner EA population scoring with numpy; the grid
evaluator of :mod:`repro.core.grid_eval` applies the same
flatten-to-tensor move to the *outer* (design point x WtDup x ResDAC)
task walk; and :mod:`repro.core.batch_eval` routes the hottest kernel
in the system — the ``(population, layers)`` EA scoring — through the
same seam. All of these paths are pure array arithmetic, so the
concrete array engine is an execution detail — exactly like the device
technology is a content detail — and this module gives it the same
shape as :mod:`repro.hardware.tech`: a named, validated registry of
:class:`ArrayBackend` objects, selected by ``SynthesisConfig.backend``
(``--backend`` on the CLI).

Five backends ship built in:

``numpy``
    The default: vectorized ``(tasks, layers)`` / ``(population,
    layers)`` operations, layer reductions accumulated in layer order
    so every value is bit-identical to the scalar oracle.
``python``
    Scalar loops over the same arrays, in exactly the scalar oracle's
    operation order — the conformance reference every other backend
    (including third-party registrations) is compared against. When
    numpy itself is absent the executor skips grid evaluation entirely
    and walks tasks one at a time, as before PR 6.
``numba``
    The ``python`` loop kernels (:func:`_bound_loops` and the fused
    :func:`_score_loops` population kernel) JIT-compiled with
    ``numba.njit`` (``fastmath`` off, so IEEE-754 evaluation order —
    and therefore bit-identity — is preserved). Registered
    unconditionally but only *available* when numba is importable;
    selecting it without numba installed raises a
    :class:`~repro.errors.ConfigurationError` naming the missing
    dependency.
``cupy``
    The vectorized engine running on CUDA through cupy's numpy-drop-in
    API. Registered unconditionally (like a device technology);
    *available* only when cupy imports and a CUDA device is present.
``torch``
    The vectorized engine on torch tensors — CUDA when
    ``torch.cuda.is_available()``, CPU tensors otherwise. Registered
    unconditionally; available whenever torch imports.

Exactness contract
------------------
Exact backends (``numpy``, ``python``, ``numba`` — ``exact = True``)
must return bit-identical results for the op-level primitives
(``ordered_sum``, ``ordered_max``, ``prune_mask``, and the integer
``decode_population`` / ``mesh_hops``) and the fused kernels
(:meth:`ArrayBackend.compute_bounds`,
:meth:`ArrayBackend.score_population`) — *not* merely close: the DSE
pruning decisions and EA tournaments ride on exact float comparisons,
and the whole point of the tensorized walk is that it cannot change a
solution.

GPU tolerance contract
----------------------
The GPU backends (``cupy``, ``torch`` — ``exact = False``) keep the
integer/geometry primitives exact (``==``: decode, hops, bottleneck
indices, macro counts, feasibility flags) but may diverge from the
IEEE-754 reference in the last ulps of float kernels (different FMA
contraction and reduction hardware). Their ``float_tolerance``
attribute (1e-9) is the maximum *relative* error the conformance tier
accepts for float outputs. End-to-end solution identity is still
guaranteed: ``MacroPartitionExplorer.explore`` re-scores the winning
gene through the scalar oracle on the host, so the reported solution
metrics are bit-identical regardless of which engine scored the
population. ``tests/test_backend_conformance.py`` pins both contracts
for every registered backend.

Content-key contract
--------------------
A backend changes *how fast* the task walk and the EA inner loop run,
never *what* they return, so ``backend`` (and the ``grid_eval`` /
``batch_eval`` switches) live in
:data:`repro.core.executor.EXECUTION_ONLY_FIELDS` and are excluded from
every content fingerprint — eval memos, serve job keys and store
entries are shared across backends.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

try:  # numpy is optional at this layer (the ``python`` backend runs
    import numpy as _np  # without it); the image bakes it in.
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None


def numpy_module():
    """The numpy module, or None — the single gate every tensorized
    path (batch_eval, grid_eval, the backends) consults."""
    return _np


def numpy_available() -> bool:
    """True when the vectorized engines can run on this interpreter."""
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
# Backend interface + built-in engines
# ----------------------------------------------------------------------
class ArrayBackend:
    """One array-execution engine for the tensorized DSE paths.

    Subclasses implement the op-level primitives and the fused kernels
    (task-grid bounds, population scoring); the registry hands out one
    shared instance per name. ``available()`` gates optional
    dependencies — an unavailable backend stays listed (with its
    reason) but cannot be selected.
    """

    #: Registry key; subclasses must override with a non-empty name.
    name: str = ""
    description: str = ""
    #: Exact backends are held to bit-identity (``==``) on every
    #: primitive and fused kernel. Non-exact (GPU) backends keep
    #: integer/geometry outputs exact but may diverge on float kernels
    #: by up to ``float_tolerance`` relative error.
    exact: bool = True
    float_tolerance: float = 0.0

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can execute on this interpreter."""
        return True

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        """Human-readable reason when :meth:`available` is False."""
        return None

    # -- op-level primitives (conformance-tested per backend) ----------
    def ordered_sum(self, terms) -> "object":
        """Left-to-right sum over axis 1 of a ``(T, L)`` array.

        Matches the scalar oracle's ordered Python ``sum`` — *not*
        numpy's pairwise ``np.sum``, which can differ in the last ulp.
        """
        raise NotImplementedError

    def ordered_max(self, terms) -> "object":
        """Maximum over axis 1 of a ``(T, L)`` array."""
        raise NotImplementedError

    def prune_mask(
        self, bounds, positions, incumbent_fitness: float,
        incumbent_index: int,
    ) -> "object":
        """Dominated-task mask over ``positions`` (task indices).

        True where the task provably cannot beat the incumbent: its
        bound is below the incumbent's fitness, or ties it with a
        larger task index (the executor's exact tie-break rule).
        """
        raise NotImplementedError

    def decode_population(self, genes) -> Tuple[
        "object", "object", "object", "object", "object"
    ]:
        """Decode a ``(P, L)`` gene array into macro-group arrays.

        Returns host arrays ``(owners, is_owner, total_macros,
        group_start, group_len)`` — integer-exact on every backend
        (``==``, GPU included). Validation is the caller's concern;
        this primitive assumes well-formed genes.
        """
        raise NotImplementedError

    def mesh_hops(self, a, b, cols) -> "object":
        """Elementwise MeshNoC hop count: Manhattan distance between
        macro ids ``a`` and ``b`` on a row-major mesh with ``cols``
        columns. Integer-exact on every backend."""
        raise NotImplementedError

    def compute_bounds(self, grid: TaskGrid) -> "object":
        """Per-task throughput upper bounds for a whole task grid.

        Must be bit-identical to calling :func:`repro.core.evaluator.
        throughput_upper_bound` once per task (within
        ``float_tolerance`` for non-exact backends).
        """
        raise NotImplementedError

    def score_population(
        self, ctx: PopulationContext, genes
    ) -> PopulationScores:
        """Fused batch-eval kernel: score a whole gene population.

        Must match the scalar oracle per lane — bit-identical for exact
        backends, within ``float_tolerance`` relative error on float
        fields for GPU backends (feasibility flags, bottleneck indices
        and macro counts stay exact everywhere). Outputs are host numpy
        arrays with infeasible lanes masked.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# Array-module adapters (numpy / cupy / torch)
# ----------------------------------------------------------------------
class _ArrayOps:
    """numpy-flavored adapter the vectorized engine is written against.

    For numpy every method delegates 1:1 (bit-identity with the
    pre-seam code is structural, not accidental); cupy reuses this
    class wholesale because its API is a numpy drop-in.
    """

    def __init__(self, xp) -> None:
        self.xp = xp
        self.float64 = xp.float64
        self.int64 = xp.int64
        self.bool_ = xp.bool_

    def asarray(self, a, dtype=None):
        return self.xp.asarray(a, dtype=dtype)

    def zeros(self, shape, dtype):
        return self.xp.zeros(shape, dtype=dtype)

    def full(self, shape, fill, dtype):
        return self.xp.full(shape, fill, dtype=dtype)

    def arange(self, n):
        return self.xp.arange(n, dtype=self.int64)

    def divmod(self, a, b):
        return self.xp.divmod(a, b)

    def take_along(self, a, idx):
        return self.xp.take_along_axis(a, idx, axis=1)

    def cumsum1(self, a):
        return self.xp.cumsum(a, axis=1)

    def sum1(self, a):
        return self.xp.sum(a, axis=1)

    def max1(self, a):
        return self.xp.max(a, axis=1)

    def argmax1(self, a):
        return self.xp.argmax(a, axis=1)

    def maximum(self, a, b):
        return self.xp.maximum(a, b)

    def minimum(self, a, b):
        return self.xp.minimum(a, b)

    def where(self, cond, a, b):
        return self.xp.where(cond, a, b)

    def abs(self, a):
        return self.xp.abs(a)

    def sqrt(self, a):
        return self.xp.sqrt(a)

    def ceil(self, a):
        return self.xp.ceil(a)

    def astype(self, a, dtype):
        return a.astype(dtype)

    def copy(self, a):
        return a.copy()

    def errstate(self):
        return self.xp.errstate(all="ignore")

    def to_host(self, a):
        return a


class _CupyOps(_ArrayOps):
    """cupy flavor: no errstate (CUDA math never warns), explicit
    device-to-host copies on the way out."""

    def errstate(self):
        return contextlib.nullcontext()

    def to_host(self, a):
        return self.xp.asnumpy(a)


class _TorchOps:
    """torch flavor of the adapter interface.

    ``errstate()`` doubles as a float64-default guard: torch promotes
    ``python-float * int64-tensor`` to the *default* dtype (float32 out
    of the box), which would silently degrade the IEEE-754 contract —
    every fused kernel runs inside this context so mixed scalar/int
    arithmetic lands in float64, matching numpy's promotion rules.
    """

    def __init__(self, torch, device) -> None:
        self.torch = torch
        self.device = device
        self.float64 = torch.float64
        self.int64 = torch.int64
        self.bool_ = torch.bool

    def _wrap(self, x, ref=None):
        t = self.torch
        if isinstance(x, t.Tensor):
            return x
        dtype = ref.dtype if isinstance(ref, t.Tensor) else None
        return t.as_tensor(x, dtype=dtype, device=self.device)

    def asarray(self, a, dtype=None):
        t = self.torch
        if isinstance(a, t.Tensor):
            out = a.to(self.device)
            return out if dtype is None else out.to(dtype)
        return t.as_tensor(a, dtype=dtype, device=self.device)

    def zeros(self, shape, dtype):
        return self.torch.zeros(shape, dtype=dtype, device=self.device)

    def full(self, shape, fill, dtype):
        return self.torch.full(
            shape, fill, dtype=dtype, device=self.device
        )

    def arange(self, n):
        return self.torch.arange(
            n, dtype=self.int64, device=self.device
        )

    def divmod(self, a, b):
        q = self.torch.div(a, b, rounding_mode="floor")
        return q, a - q * b

    def take_along(self, a, idx):
        return self.torch.take_along_dim(a, idx, dim=1)

    def cumsum1(self, a):
        return self.torch.cumsum(a, dim=1)

    def sum1(self, a):
        return self.torch.sum(a, dim=1)

    def max1(self, a):
        return self.torch.max(a, dim=1).values

    def argmax1(self, a):
        return self.torch.argmax(a, dim=1)

    def maximum(self, a, b):
        return self.torch.maximum(self._wrap(a, b), self._wrap(b, a))

    def minimum(self, a, b):
        return self.torch.minimum(self._wrap(a, b), self._wrap(b, a))

    def where(self, cond, a, b):
        return self.torch.where(cond, self._wrap(a, b), self._wrap(b, a))

    def abs(self, a):
        return self.torch.abs(a)

    def sqrt(self, a):
        if not a.is_floating_point():
            a = a.to(self.float64)
        return self.torch.sqrt(a)

    def ceil(self, a):
        return self.torch.ceil(a)

    def astype(self, a, dtype):
        return a.to(dtype)

    def copy(self, a):
        return a.clone()

    @contextlib.contextmanager
    def errstate(self):
        prev = self.torch.get_default_dtype()
        self.torch.set_default_dtype(self.torch.float64)
        try:
            yield
        finally:
            self.torch.set_default_dtype(prev)

    def to_host(self, a):
        return a.detach().cpu().numpy()


class VectorBackend(ArrayBackend):
    """Shared vectorized engine, parameterized by an array adapter.

    ``numpy``, ``cupy`` and ``torch`` are all this implementation with
    a different :class:`_ArrayOps` flavor — one source of truth for the
    vectorized math, so the GPU backends cannot drift from the pinned
    numpy semantics except through the adapter (which the conformance
    tier exercises per backend).
    """

    def _ops(self):
        raise NotImplementedError

    # -- op-level primitives -------------------------------------------
    def ordered_sum(self, terms):
        ops = self._ops()
        terms = ops.asarray(terms, dtype=ops.float64)
        acc = ops.zeros(terms.shape[0], ops.float64)
        for l in range(terms.shape[1]):  # layer order == scalar order
            acc = acc + terms[:, l]
        return ops.to_host(acc)

    def ordered_max(self, terms):
        ops = self._ops()
        terms = ops.asarray(terms, dtype=ops.float64)
        acc = ops.copy(terms[:, 0])
        for l in range(1, terms.shape[1]):
            acc = ops.maximum(acc, terms[:, l])
        return ops.to_host(acc)

    def prune_mask(
        self, bounds, positions, incumbent_fitness, incumbent_index
    ):
        ops = self._ops()
        bounds = ops.asarray(bounds, dtype=ops.float64)
        positions = ops.asarray(positions, dtype=ops.int64)
        values = bounds[positions]
        mask = (values < incumbent_fitness) | (
            (values == incumbent_fitness)
            & (positions > incumbent_index)
        )
        return ops.to_host(mask)

    def decode_population(self, genes):
        ops = self._ops()
        genes = ops.asarray(genes, dtype=ops.int64)
        decoded = self._decode_dev(ops, genes)
        return tuple(ops.to_host(a) for a in decoded)

    def mesh_hops(self, a, b, cols):
        ops = self._ops()
        a = ops.asarray(a, dtype=ops.int64)
        b = ops.asarray(b, dtype=ops.int64)
        cols = ops.asarray(cols, dtype=ops.int64)
        return ops.to_host(self._hops_dev(ops, a, b, cols))

    # -- device-side helpers -------------------------------------------
    @staticmethod
    def _manhattan_dev(ops, a, b):
        """Hops between two ``(row, col)`` mesh positions."""
        return ops.abs(a[0] - b[0]) + ops.abs(a[1] - b[1])

    @staticmethod
    def _hops_dev(ops, a, b, cols):
        return VectorBackend._manhattan_dev(
            ops, ops.divmod(a, cols), ops.divmod(b, cols)
        )

    @staticmethod
    def _decode_dev(ops, genes):
        """(owners, is_owner, total_macros, group_start, group_len) on
        the device; contiguous owner groups in layer order, exactly as
        ``MacroPartition.from_gene`` assigns them."""
        n = genes.shape[1]
        owners, counts = ops.divmod(genes, _ENCODING_BASE)
        layer_idx = ops.arange(n)
        is_owner = owners == layer_idx[None, :]
        sizes = ops.where(is_owner, counts, 0)
        group_starts_by_owner = ops.cumsum1(sizes) - sizes
        total_macros = ops.sum1(sizes)
        group_start = ops.take_along(group_starts_by_owner, owners)
        group_len = ops.take_along(counts, owners)
        return owners, is_owner, total_macros, group_start, group_len

    @staticmethod
    def _ordered_sum_dev(ops, terms):
        acc = ops.zeros(terms.shape[0], ops.float64)
        for l in range(terms.shape[1]):
            acc = acc + terms[:, l]
        return acc

    @staticmethod
    def _ordered_max_dev(ops, terms):
        acc = ops.copy(terms[:, 0])
        for l in range(1, terms.shape[1]):
            acc = ops.maximum(acc, terms[:, l])
        return acc

    # -- fused kernels -------------------------------------------------
    def compute_bounds(self, grid: TaskGrid):
        ops = self._ops()
        with ops.errstate():
            total_blocks = ops.asarray(
                grid.total_blocks, dtype=ops.int64
            )
            inputs_per_block = ops.asarray(
                grid.inputs_per_block, dtype=ops.int64
            )
            outputs_per_block = ops.asarray(
                grid.outputs_per_block, dtype=ops.int64
            )
            group_cap = ops.asarray(grid.group_cap, dtype=ops.float64)
            crossbars = ops.asarray(grid.crossbars, dtype=ops.int64)
            conversions_pbb = ops.asarray(
                grid.conversions_per_block_bit, dtype=ops.int64
            )
            bits = ops.asarray(grid.bits, dtype=ops.int64)
            adc_power = ops.asarray(grid.adc_power, dtype=ops.float64)
            vector_ops = ops.asarray(
                grid.vector_ops, dtype=ops.float64
            )
            per_crossbar_fixed = ops.asarray(
                grid.per_crossbar_fixed, dtype=ops.float64
            )
            peripheral_power = ops.asarray(
                grid.peripheral_power, dtype=ops.float64
            )
            # Structural floor. Operation order mirrors the scalar
            # PerformanceEvaluator helpers: (blocks * bits) * latency,
            # ((blocks * per_block) * act_bytes) / bandwidth.
            max_group = ops.maximum(
                1, self._ordered_max_dev(ops, group_cap)
            )
            bandwidth = grid.edram_bandwidth * max_group
            mvm = (
                total_blocks * bits[:, None]
            ) * grid.crossbar_latency
            load = (
                (total_blocks * inputs_per_block) * grid.act_bytes
            ) / bandwidth[:, None]
            store = (
                (total_blocks * outputs_per_block) * grid.act_bytes
            ) / bandwidth[:, None]
            stage = ops.maximum(ops.maximum(mvm, load), store)
            period_floor = self._ordered_max_dev(ops, stage)

            # Fixed-overhead floor (integer sums are exact in any order).
            total_crossbars = ops.sum1(crossbars)
            fixed = (
                grid.min_macros * grid.per_macro_fixed
                + total_crossbars * per_crossbar_fixed
            )
            available = peripheral_power - fixed

            # Eq. 6 power floor with the rule-b sharing halving.
            conversions = (
                total_blocks * bits[:, None]
            ) * conversions_pbb
            adc_wl = ops.astype(conversions, ops.float64)
            alu_wl = adc_wl + vector_ops[None, :]
            adc_denom = self._ordered_sum_dev(
                ops, adc_power * adc_wl / grid.adc_sample_rate
            )
            alu_denom = self._ordered_sum_dev(
                ops, grid.alu_power * alu_wl / grid.alu_frequency
            )
            if grid.macro_sharing:
                adc_denom = adc_denom / 2.0
            period = ops.maximum(
                period_floor, (adc_denom + alu_denom) / available
            )
            result = ops.where(
                available <= 0,
                0.0,
                ops.where(period <= 0, math.inf, 1.0 / period),
            )
            return ops.to_host(result)

    @staticmethod
    def _row_sums_dev(ops, terms):
        """Left-to-right row sums of ``(P, L)`` terms: the last column
        of a sequential ``cumsum``. Bit-identical to the loops'
        ``acc = 0.0; acc = acc + term`` when no partial sum is ``-0.0``
        — callers pass non-negative terms, with a skipped term set to
        ``+0.0``, which adds exactly nothing."""
        return ops.cumsum1(terms)[:, -1]

    def score_population(self, ctx: PopulationContext, genes):
        """Vectorized batch-eval kernel, written against the adapter.

        Per-layer and per-edge quantities are whole ``(population,
        layers)`` and ``(population, edges)`` array ops over the
        context's gene-free index arrays; the only Python loops run
        over ``ctx.out_slots`` (at most the largest out-degree) and
        ``ctx.levels`` (the DAG depth). Every step keeps the loop
        kernel's IEEE-754 evaluation order, so exact adapters return
        its bits:

        * elementwise formulas are the loops', operand for operand;
        * ordered sums (rule-b savings, the ADC and ALU power accounts)
          are :meth:`_row_sums_dev` over term arrays — no term is
          negative and a skipped one is ``+0.0``, so these are the
          loops' adds, in layer order; the owner side of a sharing
          pair keeps the loops' last write, its largest sharer;
        * ``comm`` starts as the partial-sum merge term, and each
          producer's activation transfers are folded in one out-edge
          slot at a time, i.e. in its left-to-right edge order;
        * stage maxima, the period and the latency forward pass are
          ``max`` reductions, exact in any grouping, so the forward
          pass runs one topological level at a time.

        The index arrays stay host numpy in ``ctx``; the elementwise
        math runs on the adapter's device, where GPU scans and
        reductions fall under the 1e-9 tolerance contract.
        """
        if _np is None:  # pragma: no cover - ctx assembly needs numpy
            raise ConfigurationError(
                "batched evaluation requires numpy (the "
                "PopulationContext arrays are numpy even for the "
                "loop backends)"
            )
        ops = self._ops()
        genes_host = _np.asarray(genes, dtype=_np.int64)
        pop, n = genes_host.shape

        def index(host):
            return ops.asarray(host, dtype=ops.int64)

        with ops.errstate():
            genes_d = ops.asarray(genes_host, dtype=ops.int64)
            owners, is_owner, total_macros, group_start, group_len = (
                self._decode_dev(ops, genes_d)
            )
            layer_idx = ops.arange(n)
            # Device copies of the per-layer context arrays that feed
            # elementwise math (scalars stay host python floats/ints).
            adc_wl = ops.asarray(ctx.adc_wl, dtype=ops.float64)
            alu_wl = ops.asarray(ctx.alu_wl, dtype=ops.float64)
            adc_powers = ops.asarray(ctx.adc_powers, dtype=ops.float64)
            mvm = ops.asarray(ctx.mvm, dtype=ops.float64)
            load_num = ops.asarray(ctx.load_num, dtype=ops.float64)
            store_num = ops.asarray(ctx.store_num, dtype=ops.float64)

            # -- Eq. 6 allocation + rule-b sharing ---------------------
            fixed = (
                ops.astype(total_macros, ops.float64)
                * ctx.per_macro_fixed
                + ctx.crossbar_fixed
            )
            available = ctx.peripheral_power - fixed
            feasible = available > 0.0
            if ctx.identical_macros:
                macro_count = group_len  # every group has >= 1 macro
                adc_demand = ops.max1(adc_wl[None, :] / macro_count)
                alu_demand = ops.max1(alu_wl[None, :] / macro_count)
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
                adc_delay = adc_wl[None, :] / (ctx.adc_rate * bank)
                alu_delay = alu_wl[None, :] / (ctx.alu_rate * lanes)
                adc_alu_power = adc_power_total + alu_power_total
            else:
                if ctx.denom <= 0:
                    # Gene-independent: the scalar path raises for
                    # every gene.
                    feasible = ops.zeros(pop, ops.bool_)
                balanced_delay = ctx.denom / available
                adc_alloc = adc_wl[None, :] / (
                    ctx.adc_rate * balanced_delay
                )[:, None]
                alu_alloc = alu_wl[None, :] / (
                    ctx.alu_rate * balanced_delay
                )[:, None]

                # Sharing post-pass (rule b): every sharer layer i
                # against its owner j = owners[:, i] at once.
                savings = ops.zeros(pop, ops.float64)
                partner = ops.full((pop, n), -1, ops.int64)
                if ctx.enable_macro_sharing:
                    a_j = ops.take_along(adc_alloc, owners)
                    p_j = adc_powers[owners]
                    p_i = adc_powers[None, :]
                    separate = p_j * a_j + p_i * adc_alloc
                    merged = ops.maximum(p_j, p_i) * ops.maximum(
                        a_j, adc_alloc
                    )
                    include = ~is_owner & (merged < separate)
                    savings = self._row_sums_dev(
                        ops, ops.where(include, separate - merged, 0.0)
                    )
                    # The oracle pairs i -> j and j -> i in ascending i,
                    # so an owner keeps its largest included sharer.
                    claims = include[:, :, None] & (
                        owners[:, :, None] == layer_idx[None, None, :]
                    )
                    owner_side = ops.max1(
                        ops.where(claims, layer_idx[None, :, None], -1)
                    )
                    partner = ops.where(include, owners, owner_side)

                apply_scale = (savings > 0.0) & (savings < available)
                scale = ops.where(
                    apply_scale,
                    available / ops.where(
                        apply_scale, available - savings, 1.0
                    ),
                    1.0,
                )

                has_partner = partner >= 0
                partner_idx = ops.where(has_partner, partner, 0)
                partner_alloc = ops.take_along(adc_alloc, partner_idx)
                bank = (
                    ops.maximum(adc_alloc, partner_alloc)
                    * scale[:, None]
                )
                distance = ops.abs(layer_idx[None, :] - partner_idx)
                overlap = ops.maximum(
                    0.0,
                    1.0 - distance / max(1, ctx.overlap_window),
                )
                effective_adc = ops.where(
                    has_partner,
                    bank / (1.0 + overlap),
                    adc_alloc * scale[:, None],
                )
                effective_alu = alu_alloc * scale[:, None]
                adc_delay = adc_wl[None, :] / (
                    ctx.adc_rate * effective_adc
                )
                alu_delay = alu_wl[None, :] / (
                    ctx.alu_rate * effective_alu
                )

                # Power drawn: a shared bank is counted once, at the
                # pair's first (owner-side) index.
                solo = (adc_powers[None, :] * adc_alloc) * scale[:, None]
                pair = ops.maximum(
                    adc_powers[None, :], adc_powers[partner_idx]
                ) * bank
                counted = ~has_partner | (
                    partner_idx > layer_idx[None, :]
                )
                adc_power_used = self._row_sums_dev(
                    ops,
                    ops.where(
                        counted, ops.where(has_partner, pair, solo), 0.0
                    ),
                )
                alu_power_used = self._row_sums_dev(
                    ops, (ctx.alu_power * alu_alloc) * scale[:, None]
                )
                adc_alu_power = adc_power_used + alu_power_used

            # -- §IV-B stage times -------------------------------------
            bandwidth = ctx.edram_bandwidth * group_len
            load = load_num[None, :] / bandwidth
            store = store_num[None, :] / bandwidth
            cols = ops.maximum(
                1,
                ops.astype(
                    ops.ceil(
                        ops.sqrt(ops.maximum(1, total_macros))
                    ),
                    ops.int64,
                ),
            )[:, None]
            # Partial-sum merge of the row-tiled layers spanning more
            # than one macro; comm starts here, as 0.0 + merge == merge.
            comm = ops.zeros((pop, n), ops.float64)
            tiled = ctx.merge_layers
            columns = index(tiled)
            length = group_len[:, columns]
            start = group_start[:, columns]
            neighbor = self._hops_dev(ops, start, start + 1, cols)
            per_round_bytes = ops.asarray(
                ctx.per_round_num[tiled], dtype=ops.float64
            ) / length
            per_block = ops.asarray(
                ctx.merge_rounds[tiled], dtype=ops.int64
            ) * (
                per_round_bytes / ctx.noc_port_bandwidth
                + ops.maximum(1, neighbor) * ctx.noc_hop_latency
            )
            merge_time = ops.asarray(
                ctx.total_blocks[tiled], dtype=ops.int64
            ) * per_block
            comm[:, columns] = ops.where(length > 1, merge_time, 0.0)

            # Activation transfers of every inter-layer edge at once:
            # the four-corner hop minimum between the group ranges' end
            # macros, serialization over the narrower group, head flits.
            src = index(ctx.comm_producer)
            dst = index(ctx.comm_consumer)
            last = group_start + group_len - 1
            s0, s1, d0, d1 = (
                ops.divmod(macro, cols) for macro in (
                    group_start[:, src], last[:, src],
                    group_start[:, dst], last[:, dst],
                )
            )
            hops = ops.minimum(
                ops.minimum(
                    self._manhattan_dev(ops, s0, d0),
                    self._manhattan_dev(ops, s1, d0),
                ),
                ops.minimum(
                    self._manhattan_dev(ops, s0, d1),
                    self._manhattan_dev(ops, s1, d1),
                ),
            )
            ports = ops.minimum(group_len[:, src], group_len[:, dst])
            serialization = ops.asarray(
                ctx.out_bytes[ctx.comm_producer], dtype=ops.float64
            ) / (ctx.noc_port_bandwidth * ports)
            head = (
                ops.asarray(
                    ctx.total_blocks[ctx.comm_producer], dtype=ops.int64
                ) * hops
            ) * ctx.noc_hop_latency
            # An edge inside one macro group moves nothing; its +0.0
            # term leaves the never-negative comm bit-for-bit unchanged.
            transfer = ops.where(
                owners[:, src] == owners[:, dst], 0.0, serialization + head
            )
            # Slot k adds each producer's k-th out-edge, so every
            # producer sums its transfers in the loops' edge order.
            for producers, edges in ctx.out_slots:
                columns = index(producers)
                comm[:, columns] = comm[:, columns] + transfer[:, index(edges)]

            stage_total = ops.maximum(mvm[None, :], adc_delay)
            stage_total = ops.maximum(stage_total, alu_delay)
            stage_total = ops.maximum(stage_total, load)
            stage_total = ops.maximum(stage_total, store)
            stage_total = ops.maximum(stage_total, comm)

            period = ops.max1(stage_total)
            bottleneck = ops.argmax1(stage_total)

            # Fine-grained pipeline latency, one topological level at a
            # time: a layer starts at the latest of its producers'
            # start + stage * fraction. Every candidate is a
            # non-negative start plus a non-negative share, so the
            # loops' 0.0 seed never changes the max.
            shares = stage_total[:, index(ctx.lat_producer)] * ops.asarray(
                ctx.lat_fraction, dtype=ops.float64
            )
            starts = ops.zeros((pop, n), ops.float64)
            for consumers, producers, edges in ctx.levels:
                starts[:, index(consumers)] = ops.max1(
                    starts[:, index(producers)] + shares[:, index(edges)]
                )
            latency = ops.max1(starts + stage_total)

            # -- power account + derived metrics -----------------------
            power = ctx.rram_power + (fixed + adc_alu_power)
            throughput = 1.0 / period
            tops = ctx.macs2 / period / 1e12
            tops_per_watt = ops.where(power > 0, tops / power, 0.0)
            energy = power * latency
            edp = energy * latency

            def _mask(values):
                return ops.where(feasible, values, 0.0)

            return PopulationScores(
                feasible=ops.to_host(feasible),
                fitness=ops.to_host(_mask(throughput)),
                period=ops.to_host(_mask(period)),
                latency=ops.to_host(_mask(latency)),
                throughput=ops.to_host(_mask(throughput)),
                tops=ops.to_host(_mask(tops)),
                power=ops.to_host(_mask(power)),
                tops_per_watt=ops.to_host(_mask(tops_per_watt)),
                energy_per_image=ops.to_host(_mask(energy)),
                edp=ops.to_host(_mask(edp)),
                bottleneck_layer=ops.to_host(
                    ops.where(feasible, bottleneck, -1)
                ),
                num_macros=ops.to_host(
                    ops.where(feasible, total_macros, 0)
                ),
            )


class NumpyBackend(VectorBackend):
    """Vectorized ``(tasks, layers)`` evaluation (the default)."""

    name = "numpy"
    description = "vectorized numpy engine (default)"
    _ops_cache: Optional[_ArrayOps] = None

    @classmethod
    def available(cls) -> bool:
        return _np is not None

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        if _np is None:  # pragma: no cover - the image bakes numpy in
            return "numpy is not importable on this interpreter"
        return None

    def _ops(self):
        if NumpyBackend._ops_cache is None:
            NumpyBackend._ops_cache = _ArrayOps(_np)
        return NumpyBackend._ops_cache


class CupyBackend(VectorBackend):
    """The vectorized engine on CUDA through cupy (numpy drop-in).

    Registered unconditionally, like a device technology; available
    only when cupy imports *and* a CUDA device is present. Float
    kernels are held to the 1e-9 relative GPU tolerance; integer and
    geometry outputs stay exact.
    """

    name = "cupy"
    description = "cupy CUDA engine (optional dependency, GPU)"
    exact = False
    float_tolerance = 1e-9
    _ops_cache: Optional[_CupyOps] = None

    @classmethod
    def available(cls) -> bool:
        if _np is None:
            return False
        try:
            import cupy

            return int(cupy.cuda.runtime.getDeviceCount()) > 0
        except Exception:
            return False

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        if not cls.available():
            return (
                "cupy with a visible CUDA device is required "
                "(install cupy and run on a GPU host to enable it)"
            )
        return None  # pragma: no cover - needs a CUDA device

    def _ops(self):  # pragma: no cover - needs a CUDA device
        if CupyBackend._ops_cache is None:
            import cupy

            CupyBackend._ops_cache = _CupyOps(cupy)
        return CupyBackend._ops_cache


class TorchBackend(VectorBackend):
    """The vectorized engine on torch tensors (CUDA when available).

    Falls back to CPU tensors without a GPU — still useful as an
    independent execution engine for conformance cross-checks. Float
    kernels are held to the 1e-9 relative GPU tolerance; integer and
    geometry outputs stay exact.
    """

    name = "torch"
    description = "torch tensor engine (optional dependency, GPU/CPU)"
    exact = False
    float_tolerance = 1e-9
    _ops_cache: Optional[_TorchOps] = None

    @classmethod
    def available(cls) -> bool:
        if _np is None:
            return False
        try:
            import torch  # noqa: F401
        except Exception:
            return False
        return True

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        if not cls.available():
            return (
                "torch is not importable on this interpreter "
                "(install torch to enable the tensor backend)"
            )
        return None  # pragma: no cover - torch present

    def _ops(self):  # pragma: no cover - needs torch installed
        if TorchBackend._ops_cache is None:
            import torch

            device = "cuda" if torch.cuda.is_available() else "cpu"
            TorchBackend._ops_cache = _TorchOps(torch, device)
        return TorchBackend._ops_cache


class PythonBackend(ArrayBackend):
    """Dependency-free scalar loops — the conformance reference."""

    name = "python"
    description = "pure-Python loop engine (reference / fallback)"

    @staticmethod
    def _rows(terms) -> List[Sequence[float]]:
        return [list(row) for row in terms]

    def ordered_sum(self, terms):
        out = []
        for row in self._rows(terms):
            acc = 0.0
            for value in row:
                acc = acc + float(value)
            out.append(acc)
        return out

    def ordered_max(self, terms):
        out = []
        for row in self._rows(terms):
            acc = float(row[0])
            for value in row[1:]:
                value = float(value)
                if value > acc:
                    acc = value
            out.append(acc)
        return out

    def prune_mask(
        self, bounds, positions, incumbent_fitness, incumbent_index
    ):
        values = [float(bounds[int(p)]) for p in positions]
        return [
            value < incumbent_fitness
            or (
                value == incumbent_fitness
                and int(position) > incumbent_index
            )
            for value, position in zip(values, positions)
        ]

    def decode_population(self, genes):
        if _np is None:  # pragma: no cover - gene arrays are numpy
            raise ConfigurationError(
                "population decoding returns numpy arrays; numpy is "
                "not importable on this interpreter"
            )
        genes = _np.asarray(genes, dtype=_np.int64)
        pop, n = genes.shape
        owners = _np.zeros((pop, n), dtype=_np.int64)
        is_owner = _np.zeros((pop, n), dtype=bool)
        total_macros = _np.zeros(pop, dtype=_np.int64)
        group_start = _np.zeros((pop, n), dtype=_np.int64)
        group_len = _np.zeros((pop, n), dtype=_np.int64)
        for p in range(pop):
            counts = []
            starts = []
            acc = 0
            total = 0
            for l in range(n):
                owner = int(genes[p, l]) // _ENCODING_BASE
                count = int(genes[p, l]) - owner * _ENCODING_BASE
                owners[p, l] = owner
                is_owner[p, l] = owner == l
                counts.append(count)
                starts.append(acc)
                if owner == l:
                    acc += count
                    total += count
            total_macros[p] = total
            for l in range(n):
                owner = int(owners[p, l])
                group_start[p, l] = starts[owner]
                group_len[p, l] = counts[owner]
        return owners, is_owner, total_macros, group_start, group_len

    def mesh_hops(self, a, b, cols):
        if _np is None:  # pragma: no cover - hop arrays are numpy
            raise ConfigurationError(
                "mesh_hops returns numpy arrays; numpy is not "
                "importable on this interpreter"
            )
        a = _np.asarray(a, dtype=_np.int64)
        b = _np.asarray(b, dtype=_np.int64)
        cols_arr = _np.broadcast_to(
            _np.asarray(cols, dtype=_np.int64), a.shape
        )
        out = _np.zeros(a.shape, dtype=_np.int64)
        flat_a = a.ravel()
        flat_b = b.ravel()
        flat_c = cols_arr.ravel()
        flat_out = out.ravel()
        for i in range(flat_a.shape[0]):
            av = int(flat_a[i])
            bv = int(flat_b[i])
            cv = int(flat_c[i])
            flat_out[i] = abs(av // cv - bv // cv) + abs(
                av % cv - bv % cv
            )
        return out

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
# Registry (mirrors repro.hardware.tech)
# ----------------------------------------------------------------------
#: Names whose engines are defined by this module and cannot be
#: replaced with different implementations.
BUILTIN_BACKENDS: Tuple[str, ...] = (
    "numpy", "python", "numba", "cupy", "torch"
)

#: The backend every config selects unless told otherwise.
DEFAULT_BACKEND = "numpy"

_REGISTRY: Dict[str, ArrayBackend] = {}


def _ensure_builtins() -> None:
    if not _REGISTRY:
        for backend_cls in (
            NumpyBackend, PythonBackend, NumbaBackend, CupyBackend,
            TorchBackend,
        ):
            _REGISTRY[backend_cls.name] = backend_cls()


def register_backend(
    backend: ArrayBackend, replace: bool = False
) -> ArrayBackend:
    """Add a backend instance to the registry.

    Re-registering an existing name requires ``replace=True``; the
    built-in names can never be rebound to a different class (the
    conformance suite and the CLI docs are defined against them) —
    re-registering an instance of the *same* class is a no-op success.
    """
    _ensure_builtins()
    if not isinstance(backend, ArrayBackend):
        raise ConfigurationError(
            f"expected an ArrayBackend, got {type(backend).__name__}"
        )
    if not backend.name or not isinstance(backend.name, str):
        raise ConfigurationError(
            "backend name must be a non-empty string"
        )
    existing = _REGISTRY.get(backend.name)
    if backend.name in BUILTIN_BACKENDS:
        if type(existing) is not type(backend):
            raise ConfigurationError(
                f"the built-in {backend.name!r} backend cannot be "
                "replaced; register the engine under a new name"
            )
        return existing
    if existing is not None and not replace:
        raise ConfigurationError(
            f"backend {backend.name!r} is already registered "
            "(pass replace=True to update it)"
        )
    _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a user-registered backend (built-ins cannot be removed)."""
    _ensure_builtins()
    if name in BUILTIN_BACKENDS:
        raise ConfigurationError(
            f"the built-in {name!r} backend cannot be unregistered"
        )
    _REGISTRY.pop(name, None)


def get_backend(name: str = DEFAULT_BACKEND) -> ArrayBackend:
    """Look up an *available* backend by name.

    Unknown names and registered-but-unavailable backends (e.g.
    ``numba`` without numba installed, ``cupy`` without a CUDA device)
    both raise :class:`~repro.errors.ConfigurationError` with an
    actionable message — configs fail fast at construction, not
    mid-walk.
    """
    _ensure_builtins()
    if isinstance(name, ArrayBackend):
        return name
    try:
        backend = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: "
            f"{available_backends()}"
        ) from None
    if not backend.available():
        raise ConfigurationError(
            f"backend {name!r} is unavailable: "
            f"{backend.unavailable_reason()}"
        )
    return backend


def available_backends() -> List[str]:
    """Registered backend names, built-ins first, extras sorted."""
    _ensure_builtins()
    extras = sorted(n for n in _REGISTRY if n not in BUILTIN_BACKENDS)
    return list(BUILTIN_BACKENDS) + extras


def backend_status() -> List[Tuple[str, bool, str]]:
    """(name, available, description-or-reason) for every backend."""
    _ensure_builtins()
    rows = []
    for name in available_backends():
        backend = _REGISTRY[name]
        ok = backend.available()
        note = backend.description if ok else (
            backend.unavailable_reason() or "unavailable"
        )
        rows.append((name, ok, note))
    return rows
