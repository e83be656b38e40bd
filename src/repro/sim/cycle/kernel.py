"""Structure-of-arrays lowering and the flat-loop event-wheel kernel.

:mod:`repro.sim.cycle.machine` drives Python ``MicroOp`` objects
through a ``heapq`` of ``(feasible_cycle, uid)`` events — correct,
readable, and the *oracle* every other engine is pinned against. This
module lowers the same program to a structure-of-arrays form the
compiled engines consume:

- int64 arrays for per-uop cycles, layer, class, stage and fault flags;
- CSR-flattened successor edges (``succ_off`` / ``succ``);
- a unit table with per-unit slot claim rows (``slot_off`` into one
  flat ``slot_free`` timeline, capacity slots per unit);
- pre-drawn splitmix64 fault streams: attempts per uop are a pure
  function of ``(seed, uid)``, so they are drawn *outside* the wheel
  (vectorized over the faultable uops) and passed in as one array.

Two implementations of the same wheel walk those tables:

- :func:`wheel_heapq` — the interpreter-tuned variant: the C
  ``heapq`` over ``(cycle, uid)`` tuples plus plain list indexing.
  The ``numpy`` engine runs this one; per-event cost drops from the
  oracle's attribute walks and dict lookups to a handful of list
  reads.
- :func:`wheel_loops` — the whole wheel as one flat loop with an
  *inlined* binary min-heap on lexicographic ``(cycle, uid)`` keys,
  written in numba's njit-compatible subset (flat loops, no Python
  containers). Interpreted it is no faster
  than the oracle (a pure-Python sift loses to C ``heapq``); its job
  is to be compiled — the ``numba`` engine JITs it with ``fastmath``
  off over the int64 array mirrors.

Why the wheel stays a loop instead of going wide: every pop depends on
the unit frontiers left by the previous commit, and the retire order
is the observable contract (``(cycle, uid)`` lexicographic, unique per
event because a uop is queued at most once at a time). Any wave-style
vectorization would have to re-discover that sequence to stay
``==``-exact, so the win comes from lowering the *per-event* cost to a
handful of integer array reads — and from JIT-compiling the loop when
numba is present.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.ir.dag import IRDag
from repro.ir.nodes import IRNode, IROp
from repro.sim.cycle.clock import DEFAULT_RESOLUTION, CycleClock
from repro.sim.cycle.machine import MAX_ATTEMPTS, fault_draw
from repro.sim.cycle.uops import (
    _CAPACITY_OF_KIND,
    _EXEC_CLASS,
    _FAULTABLE,
    MicroProgram,
    exec_unit_table,
    lower_dag,
)
from repro.sim.latency import IRLatencyModel

try:  # pragma: no cover - exercised through engine availability
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a core dependency
    _np = None

#: Attribution classes in id order — ``klass_id`` indexes this tuple.
KLASS_NAMES: Tuple[str, ...] = (
    "register", "crossbar", "adc", "alu", "load", "store", "noc"
)
_KLASS_ID = {name: index for index, name in enumerate(KLASS_NAMES)}

#: ``stalls`` row order of :func:`wheel_loops`.
STALL_KINDS: Tuple[str, ...] = ("dependency", "bank", "noc", "fault")

# wheel_loops error codes (kept as ints so the kernel stays njit-able).
OK = 0
ERR_NOT_A_DAG = 1
ERR_INCOMPLETE = 2


class LoweredProgram:
    """One DAG lowered to flat arrays — reusable across fault replays.

    Uop ``uid`` layout is the same contract the object lowering keeps:
    node ``i`` (in ``node_id`` order) owns uids ``3i`` (read),
    ``3i + 1`` (execute) and ``3i + 2`` (write). Everything an engine
    or the report assembly needs is a plain Python list here; numpy
    mirrors for the JIT engines are materialized once on demand.
    """

    def __init__(
        self,
        nodes: List[IRNode],
        clock: CycleClock,
        cycles: List[int],
        layer: List[int],
        klass_id: List[int],
        is_execute: List[int],
        faultable: List[int],
        first_unit_link: List[int],
        npreds: List[int],
        succ_off: List[int],
        succ: List[int],
        unit_off: List[int],
        unit_ids: List[int],
        unit_kinds: List[str],
        unit_capacity: List[int],
        num_layers: int,
    ) -> None:
        self.nodes = nodes
        self.clock = clock
        self.n = len(cycles)
        self.cycles = cycles
        self.layer = layer
        self.klass_id = klass_id
        self.is_execute = is_execute
        self.faultable = faultable
        self.first_unit_link = first_unit_link
        self.npreds = npreds
        self.succ_off = succ_off
        self.succ = succ
        self.unit_off = unit_off
        self.unit_ids = unit_ids
        self.unit_kinds = unit_kinds
        self.unit_capacity = unit_capacity
        self.num_units = len(unit_kinds)
        self.num_layers = num_layers
        self.slot_off = [0] * (self.num_units + 1)
        for index, capacity in enumerate(unit_capacity):
            self.slot_off[index + 1] = self.slot_off[index] + capacity
        self.num_slots = self.slot_off[-1]
        self._faultable_uids: Optional[List[int]] = None
        self._arrays: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def exec_cycles(self, node_index: int) -> int:
        """Execute-stage cycles of node ``node_index`` (uid ``3i + 1``)."""
        return self.cycles[3 * node_index + 1]

    def faultable_uids(self) -> List[int]:
        if self._faultable_uids is None:
            self._faultable_uids = [
                uid for uid, flag in enumerate(self.faultable) if flag
            ]
        return self._faultable_uids

    def arrays(self) -> Dict[str, object]:
        """int64 numpy mirrors of the flat tables (cached)."""
        if _np is None:  # pragma: no cover - numpy is a core dependency
            raise SimulationError(
                "numpy is required for the array view of a lowered "
                "program"
            )
        if self._arrays is None:
            as64 = lambda seq: _np.asarray(seq, dtype=_np.int64)  # noqa: E731
            self._arrays = {
                "cycles": as64(self.cycles),
                "layer": as64(self.layer),
                "klass_id": as64(self.klass_id),
                "is_execute": as64(self.is_execute),
                "first_unit_link": as64(self.first_unit_link),
                "npreds": as64(self.npreds),
                "succ_off": as64(self.succ_off),
                "succ": as64(self.succ),
                "unit_off": as64(self.unit_off),
                "unit_ids": as64(self.unit_ids),
                "slot_off": as64(self.slot_off),
            }
        return self._arrays


def _lower_context(latency_model: IRLatencyModel):
    """Shared-ADC bank map — identical to the object lowering's."""
    adc_bank_of: Dict[int, int] = {}
    for index, layer_alloc in enumerate(latency_model.allocation.layers):
        partner = layer_alloc.shared_with
        adc_bank_of[index] = (
            min(index, partner) if partner is not None else index
        )
    return adc_bank_of


def lower_arrays(
    dag: IRDag,
    latency_model: IRLatencyModel,
    clock: Optional[CycleClock] = None,
    resolution: int = DEFAULT_RESOLUTION,
) -> LoweredProgram:
    """Lower a windowed IR DAG straight to a :class:`LoweredProgram`.

    Produces exactly the structure :func:`repro.sim.cycle.uops.
    lower_dag` would (same uid layout, same unit table in
    first-appearance order, same successor edge order, same derived
    clock) without materializing any ``MicroOp`` objects — the
    equivalence is pinned by :func:`program_to_arrays` differential
    tests.
    """
    noc = latency_model.noc
    macro_groups = latency_model.macro_groups
    adc_bank_of = _lower_context(latency_model)

    nodes = sorted(dag, key=lambda n: n.node_id)
    durations = [latency_model.latency(node) for node in nodes]
    if clock is None:
        clock = CycleClock.derive(durations, resolution=resolution)

    num_nodes = len(nodes)
    n = 3 * num_nodes
    cycles = [1] * n
    layer = [0] * n
    klass_id = [0] * n
    is_execute = [0] * n
    faultable = [0] * n
    first_unit_link = [0] * n
    npreds = [0] * n

    unit_of: Dict[tuple, int] = {}
    unit_kinds: List[str] = []
    unit_capacity: List[int] = []

    def unit_id(key: tuple) -> int:
        uidx = unit_of.get(key)
        if uidx is None:
            uidx = len(unit_kinds)
            unit_of[key] = uidx
            unit_kinds.append(key[0])
            capacity = _CAPACITY_OF_KIND.get(key[0])
            if capacity is None:
                raise SimulationError(f"unknown unit kind in key {key}")
            unit_capacity.append(capacity)
        return uidx

    unit_off = [0] * (n + 1)
    unit_ids: List[int] = []
    merge_links: Dict[int, tuple] = {}
    node_index = {node.node_id: i for i, node in enumerate(nodes)}

    for i, node in enumerate(nodes):
        units = exec_unit_table(
            node, noc, macro_groups, adc_bank_of, merge_links
        )
        exec_cycles = clock.cycles(durations[i])
        read, execute, write = 3 * i, 3 * i + 1, 3 * i + 2
        # read
        layer[read] = node.layer
        unit_ids.append(unit_id(("reg_read", node.layer)))
        unit_off[read + 1] = len(unit_ids)
        # execute
        cycles[execute] = exec_cycles
        layer[execute] = node.layer
        klass_id[execute] = _KLASS_ID[_EXEC_CLASS[node.op]]
        is_execute[execute] = 1
        faultable[execute] = int(
            node.op in _FAULTABLE and bool(units) and exec_cycles > 0
        )
        first_unit_link[execute] = int(
            bool(units) and units[0][0] == "link"
        )
        for key in units:
            unit_ids.append(unit_id(key))
        unit_off[execute + 1] = len(unit_ids)
        # write
        layer[write] = node.layer
        unit_ids.append(unit_id(("reg_write", node.layer)))
        unit_off[write + 1] = len(unit_ids)
        # intra-node pipeline edges (cross-node edges follow below, in
        # the same global order the object lowering appends them)
        npreds[execute] = 1
        npreds[write] = 1

    succ_lists: List[List[int]] = [[] for _ in range(n)]
    for i in range(num_nodes):
        succ_lists[3 * i].append(3 * i + 1)
        succ_lists[3 * i + 1].append(3 * i + 2)
    for i, node in enumerate(nodes):
        read = 3 * i
        for pred in dag.predecessors(node):
            succ_lists[3 * node_index[pred.node_id] + 1].append(read)
            npreds[read] += 1

    succ_off = [0] * (n + 1)
    succ: List[int] = []
    for uid in range(n):
        succ.extend(succ_lists[uid])
        succ_off[uid + 1] = len(succ)

    num_layers = max(layer) + 1 if layer else 1
    return LoweredProgram(
        nodes=nodes,
        clock=clock,
        cycles=cycles,
        layer=layer,
        klass_id=klass_id,
        is_execute=is_execute,
        faultable=faultable,
        first_unit_link=first_unit_link,
        npreds=npreds,
        succ_off=succ_off,
        succ=succ,
        unit_off=unit_off,
        unit_ids=unit_ids,
        unit_kinds=unit_kinds,
        unit_capacity=unit_capacity,
        num_layers=num_layers,
    )


def program_to_arrays(program: MicroProgram) -> LoweredProgram:
    """Flatten an object :class:`MicroProgram` to the same SoA form.

    Exists for the differential suite: ``lower_arrays(dag, ...)`` must
    equal ``program_to_arrays(lower_dag(dag, ...))`` table for table,
    which pins the no-objects lowering to the oracle's.
    """
    ops = program.ops
    n = len(ops)
    unit_of: Dict[tuple, int] = {}
    unit_kinds: List[str] = []
    unit_capacity: List[int] = []

    def unit_id(key: tuple) -> int:
        uidx = unit_of.get(key)
        if uidx is None:
            uidx = len(unit_kinds)
            unit_of[key] = uidx
            unit_kinds.append(key[0])
            unit_capacity.append(_CAPACITY_OF_KIND[key[0]])
        return uidx

    unit_off = [0] * (n + 1)
    unit_ids: List[int] = []
    succ_off = [0] * (n + 1)
    succ: List[int] = []
    for op in ops:
        for key in op.units:
            unit_ids.append(unit_id(key))
        unit_off[op.uid + 1] = len(unit_ids)
        succ.extend(op.succs)
        succ_off[op.uid + 1] = len(succ)

    layers = [op.layer for op in ops]
    return LoweredProgram(
        nodes=program.nodes,
        clock=program.clock,
        cycles=[op.cycles for op in ops],
        layer=layers,
        klass_id=[_KLASS_ID[op.klass] for op in ops],
        is_execute=[int(op.stage.value == "execute") for op in ops],
        faultable=[int(op.faultable) for op in ops],
        first_unit_link=[
            int(bool(op.units) and op.units[0][0] == "link")
            for op in ops
        ],
        npreds=[op.npreds for op in ops],
        succ_off=succ_off,
        succ=succ,
        unit_off=unit_off,
        unit_ids=unit_ids,
        unit_kinds=unit_kinds,
        unit_capacity=unit_capacity,
        num_layers=max(layers) + 1 if layers else 1,
    )


# ----------------------------------------------------------------------
# Fault pre-draws
# ----------------------------------------------------------------------
def draw_attempts(
    lowered: LoweredProgram, fault_rate: float, fault_seed: int
) -> List[int]:
    """Attempts per uop (>= 1), identical to the machine's lazy draws.

    ``fault_draw`` is a pure splitmix64 hash of ``(seed, uid,
    attempt)``, so the whole stream can be drawn ahead of the wheel:
    vectorized in wrap-exact ``uint64`` when numpy is importable, the
    scalar reference otherwise. An op keeps re-drawing while its draw
    falls under ``fault_rate``, capped at :data:`MAX_ATTEMPTS`.
    """
    if not 0.0 <= fault_rate < 1.0:
        raise SimulationError(
            f"fault_rate must be in [0, 1), got {fault_rate}"
        )
    attempts = [1] * lowered.n
    if fault_rate == 0.0:
        return attempts
    uids = lowered.faultable_uids()
    if not uids:
        return attempts
    if _np is None:  # pragma: no cover - numpy is a core dependency
        for uid in uids:
            attempt = 1
            while (
                fault_draw(fault_seed, uid, attempt) < fault_rate
                and attempt < MAX_ATTEMPTS
            ):
                attempt += 1
            attempts[uid] = attempt
        return attempts

    active = _np.asarray(uids, dtype=_np.uint64)
    seed_mix = _np.uint64(_mix64(fault_seed & ((1 << 64) - 1)))
    shift20 = _np.uint64(20)
    attempt = 1
    while active.size and attempt < MAX_ATTEMPTS:
        value = (active << shift20) | _np.uint64(attempt)
        mixed = _splitmix64_vec(seed_mix ^ _splitmix64_vec(value))
        draws = (mixed >> _np.uint64(11)).astype(_np.float64) / float(
            1 << 53
        )
        active = active[draws < fault_rate]
        for uid in active.tolist():
            attempts[uid] += 1
        attempt += 1
    return attempts


def _mix64(value: int) -> int:
    """Scalar splitmix64 round (python ints, matches machine's)."""
    mask = (1 << 64) - 1
    value = (value + 0x9E3779B97F4A7C15) & mask
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & mask
    return value ^ (value >> 31)


def _splitmix64_vec(value):
    """splitmix64 over a ``uint64`` ndarray (wrap-around exact)."""
    value = value + _np.uint64(0x9E3779B97F4A7C15)
    value = (value ^ (value >> _np.uint64(30))) * _np.uint64(
        0xBF58476D1CE4E5B9
    )
    value = (value ^ (value >> _np.uint64(27))) * _np.uint64(
        0x94D049BB133111EB
    )
    return value ^ (value >> _np.uint64(31))


# ----------------------------------------------------------------------
# The event wheel over flat tables, C-heapq variant (interpreter path)
# ----------------------------------------------------------------------
def wheel_heapq(lowered: LoweredProgram, attempts: List[int]):
    """:meth:`CycleMachine.run` over flat tables, on the C ``heapq``.

    Same pop sequence as the oracle and as :func:`wheel_loops` —
    ``heapq`` orders ``(cycle, uid)`` tuples lexicographically and the
    keys are unique, so the relaxation commits in the identical order.
    Returns ``(start, finish, retire, busy_flat, unit_busy,
    unit_touch, stalls, counters, code)`` with ``counters = [executed,
    makespan, faults, touched_units]``.
    """
    n = lowered.n
    cycles = lowered.cycles
    npreds_init = lowered.npreds
    npreds_left = list(npreds_init)
    succ_off = lowered.succ_off
    succ_list = lowered.succ
    unit_off = lowered.unit_off
    unit_ids = lowered.unit_ids
    slot_off = lowered.slot_off
    slot_free = [0] * lowered.num_slots
    first_unit_link = lowered.first_unit_link
    is_execute = lowered.is_execute
    layer = lowered.layer
    klass_id = lowered.klass_id
    num_classes = len(KLASS_NAMES)

    ready = [0] * n
    first_pred = [-1] * n
    start = [-1] * n
    finish = [-1] * n
    retire = [0] * n
    busy_flat = [0] * (lowered.num_layers * num_classes)
    unit_busy = [0] * lowered.num_units
    unit_touch = [0] * lowered.num_units
    stalls = [0, 0, 0, 0]
    counters = [0, 0, 0, 0]

    heap = [(0, uid) for uid in range(n) if npreds_init[uid] == 0]
    heapq.heapify(heap)  # uid order at cycle 0 is already a heap; O(n)
    heappush = heapq.heappush
    heappop = heapq.heappop

    executed = 0
    makespan = 0
    faults = 0
    touch_seq = 0

    while heap:
        _, uid = heappop(heap)
        at = ready[uid]
        n_attempts = attempts[uid]
        total = cycles[uid] * n_attempts
        feasible = at
        lo_k = unit_off[uid]
        hi_k = unit_off[uid + 1]
        if total > 0:
            for k in range(lo_k, hi_k):
                unit = unit_ids[k]
                if unit_touch[unit] == 0:
                    touch_seq += 1
                    unit_touch[unit] = touch_seq
                lo = slot_off[unit]
                hi = slot_off[unit + 1]
                soonest = (
                    slot_free[lo]
                    if hi - lo == 1
                    else min(slot_free[lo:hi])
                )
                if soonest > feasible:
                    feasible = soonest
        if heap and feasible > heap[0][0]:
            heappush(heap, (feasible, uid))
            continue

        begin = feasible
        end = begin + total
        if total > 0:
            for k in range(lo_k, hi_k):
                unit = unit_ids[k]
                lo = slot_off[unit]
                best = lo
                for s in range(lo + 1, slot_off[unit + 1]):
                    if slot_free[s] < slot_free[best]:
                        best = s
                slot_free[best] = end
                unit_busy[unit] += total
        start[uid] = begin
        finish[uid] = end
        retire[executed] = uid
        executed += 1
        if end > makespan:
            makespan = end

        if first_pred[uid] >= 0 and npreds_init[uid] > 1:
            stalls[0] += at - first_pred[uid]
        wait = begin - at
        if wait > 0:
            if first_unit_link[uid] != 0:
                stalls[2] += wait
            else:
                stalls[1] += wait
        if n_attempts > 1:
            faults += n_attempts - 1
            stalls[3] += cycles[uid] * (n_attempts - 1)
        if is_execute[uid] != 0 and cycles[uid] != 0:
            busy_flat[layer[uid] * num_classes + klass_id[uid]] += total

        for k in range(succ_off[uid], succ_off[uid + 1]):
            succ_uid = succ_list[k]
            if finish[succ_uid] >= 0:
                counters[0] = executed
                counters[1] = makespan
                counters[2] = faults
                counters[3] = touch_seq
                return (
                    start, finish, retire, busy_flat, unit_busy,
                    unit_touch, stalls, counters, ERR_NOT_A_DAG,
                )
            if end > ready[succ_uid]:
                ready[succ_uid] = end
            if first_pred[succ_uid] < 0:
                first_pred[succ_uid] = end
            elif end < first_pred[succ_uid]:
                first_pred[succ_uid] = end
            npreds_left[succ_uid] -= 1
            if npreds_left[succ_uid] == 0:
                heappush(heap, (ready[succ_uid], succ_uid))

    counters[0] = executed
    counters[1] = makespan
    counters[2] = faults
    counters[3] = touch_seq
    code = OK if executed == n else ERR_INCOMPLETE
    return (
        start, finish, retire, busy_flat, unit_busy, unit_touch,
        stalls, counters, code,
    )


# ----------------------------------------------------------------------
# The event wheel as one flat loop (njit-compatible)
# ----------------------------------------------------------------------
def wheel_loops(
    n,
    cycles,
    attempts,
    npreds_init,
    npreds_left,
    succ_off,
    succ,
    unit_off,
    unit_ids,
    slot_off,
    slot_free,
    first_unit_link,
    is_execute,
    layer,
    klass_id,
    num_classes,
    ready,
    first_pred,
    start,
    finish,
    heap_cycle,
    heap_uid,
    retire,
    busy_flat,
    unit_busy,
    unit_touch,
    stalls,
    counters,
):
    """Replica of :meth:`CycleMachine.run` over flat int64 tables.

    Mutates the scratch/output arrays in place and returns an error
    code (:data:`OK` / :data:`ERR_NOT_A_DAG` / :data:`ERR_INCOMPLETE`).
    The heap is an inlined binary min-heap on lexicographic ``(cycle,
    uid)`` keys; keys are unique (a uop is queued at most once at a
    time), so the pop sequence — and with it every start/finish cycle,
    stall attribution and the retire order — is exactly the object
    machine's, independent of heap internals. ``counters`` returns
    ``[executed, makespan, faults, touched_units]``.
    """
    heap_size = 0
    for uid in range(n):
        ready[uid] = 0
        first_pred[uid] = -1
        start[uid] = -1
        finish[uid] = -1
        npreds_left[uid] = npreds_init[uid]
        if npreds_init[uid] == 0:
            # keys arrive in increasing uid at cycle 0: already a heap.
            heap_cycle[heap_size] = 0
            heap_uid[heap_size] = uid
            heap_size += 1
    executed = 0
    makespan = 0
    faults = 0
    touch_seq = 0

    while heap_size > 0:
        uid = heap_uid[0]
        # pop-min: move the last entry to the root and sift down.
        heap_size -= 1
        if heap_size > 0:
            hole_c = heap_cycle[heap_size]
            hole_u = heap_uid[heap_size]
            i = 0
            while True:
                child = 2 * i + 1
                if child >= heap_size:
                    break
                right = child + 1
                if right < heap_size and (
                    heap_cycle[right] < heap_cycle[child]
                    or (
                        heap_cycle[right] == heap_cycle[child]
                        and heap_uid[right] < heap_uid[child]
                    )
                ):
                    child = right
                if heap_cycle[child] < hole_c or (
                    heap_cycle[child] == hole_c
                    and heap_uid[child] < hole_u
                ):
                    heap_cycle[i] = heap_cycle[child]
                    heap_uid[i] = heap_uid[child]
                    i = child
                else:
                    break
            heap_cycle[i] = hole_c
            heap_uid[i] = hole_u

        at = ready[uid]
        n_attempts = attempts[uid]
        total = cycles[uid] * n_attempts
        feasible = at
        if total > 0:
            for k in range(unit_off[uid], unit_off[uid + 1]):
                unit = unit_ids[k]
                if unit_touch[unit] == 0:
                    touch_seq += 1
                    unit_touch[unit] = touch_seq
                lo = slot_off[unit]
                soonest = slot_free[lo]
                for s in range(lo + 1, slot_off[unit + 1]):
                    if slot_free[s] < soonest:
                        soonest = slot_free[s]
                if soonest > feasible:
                    feasible = soonest
        if heap_size > 0 and feasible > heap_cycle[0]:
            # stale estimate: requeue at the refreshed cycle (sift up).
            i = heap_size
            heap_size += 1
            while i > 0:
                parent = (i - 1) // 2
                if heap_cycle[parent] > feasible or (
                    heap_cycle[parent] == feasible
                    and heap_uid[parent] > uid
                ):
                    heap_cycle[i] = heap_cycle[parent]
                    heap_uid[i] = heap_uid[parent]
                    i = parent
                else:
                    break
            heap_cycle[i] = feasible
            heap_uid[i] = uid
            continue

        begin = feasible
        end = begin + total
        if end > begin:
            for k in range(unit_off[uid], unit_off[uid + 1]):
                unit = unit_ids[k]
                lo = slot_off[unit]
                best = lo
                for s in range(lo + 1, slot_off[unit + 1]):
                    if slot_free[s] < slot_free[best]:
                        best = s
                slot_free[best] = end
                unit_busy[unit] += end - begin
        start[uid] = begin
        finish[uid] = end
        retire[executed] = uid
        executed += 1
        if end > makespan:
            makespan = end

        if first_pred[uid] >= 0 and npreds_init[uid] > 1:
            stalls[0] += at - first_pred[uid]
        wait = begin - at
        if wait > 0:
            if first_unit_link[uid] != 0:
                stalls[2] += wait
            else:
                stalls[1] += wait
        if n_attempts > 1:
            faults += n_attempts - 1
            stalls[3] += cycles[uid] * (n_attempts - 1)
        if is_execute[uid] != 0 and cycles[uid] != 0:
            busy_flat[layer[uid] * num_classes + klass_id[uid]] += total

        for k in range(succ_off[uid], succ_off[uid + 1]):
            succ_uid = succ[k]
            if finish[succ_uid] >= 0:
                counters[0] = executed
                counters[1] = makespan
                counters[2] = faults
                counters[3] = touch_seq
                return 1  # ERR_NOT_A_DAG
            if end > ready[succ_uid]:
                ready[succ_uid] = end
            if first_pred[succ_uid] < 0:
                first_pred[succ_uid] = end
            elif end < first_pred[succ_uid]:
                first_pred[succ_uid] = end
            npreds_left[succ_uid] -= 1
            if npreds_left[succ_uid] == 0:
                key = ready[succ_uid]
                i = heap_size
                heap_size += 1
                while i > 0:
                    parent = (i - 1) // 2
                    if heap_cycle[parent] > key or (
                        heap_cycle[parent] == key
                        and heap_uid[parent] > succ_uid
                    ):
                        heap_cycle[i] = heap_cycle[parent]
                        heap_uid[i] = heap_uid[parent]
                        i = parent
                    else:
                        break
                heap_cycle[i] = key
                heap_uid[i] = succ_uid

    counters[0] = executed
    counters[1] = makespan
    counters[2] = faults
    counters[3] = touch_seq
    if executed != n:
        return 2  # ERR_INCOMPLETE
    return 0
