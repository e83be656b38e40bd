"""Execution engines for the cycle simulator's event wheel.

A fixed table of three. Every simulator runs ``auto`` — the first of
numba, numpy and python that imports (``SynthesisConfig.sim_engine``
reports which); the ``engine=`` keyword of :class:`~repro.sim.cycle.
simulator.CycleSimulator` and :func:`~repro.sim.cycle.validate.
cross_validate` names one, which is how tests and benches hold each
wheel to the oracle:

- ``python`` — the object :class:`~repro.sim.cycle.machine.
  CycleMachine`, kept as the oracle every other engine is pinned
  against;
- ``numpy`` — the structure-of-arrays lowering of
  :mod:`repro.sim.cycle.kernel` with vectorized splitmix64 fault
  pre-draws, driving :func:`~repro.sim.cycle.kernel.wheel_heapq`: the
  C ``heapq`` over flat list tables (the wheel itself is inherently
  sequential — each pop depends on the unit frontiers the previous
  commit left — so the vectorization lives in the lowering and the
  fault streams, and the per-event cost drops to a few integer list
  reads);
- ``numba`` — the *same* ``wheel_loops`` JIT-compiled with
  ``numba.njit`` over the int64 array mirrors. ``fastmath`` stays off;
  the kernel is integer-only, but the flag also licenses reassociation
  and contraction patterns that would silently void the bit-identity
  contract if a float ever enters the kernel.

All engines return a :class:`~repro.sim.cycle.machine.MachineResult`
that is ``==``-identical to the oracle's, field for field — start and
finish cycles, retire order, per-cause stall attribution, per-layer
busy accounting and fault draws. Unknown names and unavailable
engines raise :class:`~repro.errors.ConfigurationError` with an
actionable message, so a simulator fails fast when it is built.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.ir.dag import IRDag
from repro.sim.cycle.clock import DEFAULT_RESOLUTION, CycleClock
from repro.sim.cycle.kernel import (
    KLASS_NAMES,
    STALL_KINDS,
    LoweredProgram,
    _np,
    draw_attempts,
    lower_arrays,
    wheel_heapq,
    wheel_loops,
)
from repro.sim.cycle.machine import CycleMachine, MachineResult
from repro.sim.cycle.uops import MicroProgram, lower_dag
from repro.sim.latency import IRLatencyModel


class PreparedProgram:
    """One DAG's lowering context, shared across engines and replays.

    Materializes the object :class:`MicroProgram` (oracle path) and
    the :class:`LoweredProgram` arrays (compiled paths) lazily and at
    most once each, so a fault-rate sweep lowers once and replays
    many, and a single run never pays for the representation it does
    not use. Both lowerings derive the same clock from the same
    durations, and uid layout is the shared ``3i / 3i+1 / 3i+2``
    node-stage contract.
    """

    def __init__(
        self,
        dag: IRDag,
        latency_model: IRLatencyModel,
        clock: Optional[CycleClock] = None,
        resolution: int = DEFAULT_RESOLUTION,
    ) -> None:
        self.dag = dag
        self.latency_model = latency_model
        self._clock = clock
        self._resolution = resolution
        self._program: Optional[MicroProgram] = None
        self._lowered: Optional[LoweredProgram] = None

    @property
    def program(self) -> MicroProgram:
        if self._program is None:
            self._program = lower_dag(
                self.dag,
                self.latency_model,
                clock=self._clock,
                resolution=self._resolution,
            )
        return self._program

    @property
    def lowered(self) -> LoweredProgram:
        if self._lowered is None:
            self._lowered = lower_arrays(
                self.dag,
                self.latency_model,
                clock=self._clock,
                resolution=self._resolution,
            )
        return self._lowered

    @property
    def clock(self) -> CycleClock:
        if self._program is not None:
            return self._program.clock
        return self.lowered.clock

    @property
    def nodes(self):
        if self._program is not None:
            return self._program.nodes
        return self.lowered.nodes

    def __len__(self) -> int:
        if self._program is not None:
            return len(self._program)
        return self.lowered.n

    def exec_cycles(self, node_index: int) -> int:
        """Execute-stage cycles of the ``node_index``-th node."""
        if self._program is not None:
            return self._program.ops[3 * node_index + 1].cycles
        return self.lowered.exec_cycles(node_index)


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class CycleEngine:
    """Base class: a named way to run one prepared program."""

    #: Table name (the ``engine=`` value).
    name: str = ""
    #: One-line description for status tables.
    description: str = ""

    def available(self) -> bool:
        return True

    def unavailable_reason(self) -> Optional[str]:
        return None

    def run(
        self,
        prepared: PreparedProgram,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
    ) -> MachineResult:
        raise NotImplementedError


class PythonEngine(CycleEngine):
    """The object event wheel — the oracle (always available)."""

    name = "python"
    description = "object event wheel (pure-python oracle)"

    def run(
        self,
        prepared: PreparedProgram,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
    ) -> MachineResult:
        machine = CycleMachine(
            prepared.program,
            fault_rate=fault_rate,
            fault_seed=fault_seed,
        )
        return machine.run()


def _assemble_result(
    lowered: LoweredProgram,
    attempts: List[int],
    start: List[int],
    finish: List[int],
    retire: List[int],
    busy_flat: List[int],
    unit_busy: List[int],
    unit_touch: List[int],
    stalls: List[int],
    counters: List[int],
    code: int,
) -> MachineResult:
    """Kernel outputs -> the oracle's :class:`MachineResult` shape."""
    executed = counters[0]
    if code == 1:
        raise SimulationError(
            "successor executed before its producer - "
            "lowered program is not a DAG"
        )
    if code == 2:
        raise SimulationError(
            f"executed {executed} of {lowered.n} micro-ops - the "
            "lowered program has a cycle or unreachable micro-ops"
        )
    num_classes = len(KLASS_NAMES)
    busy: Dict[Tuple[int, str], int] = {}
    for layer in range(lowered.num_layers):
        row = layer * num_classes
        for klass in range(num_classes):
            total = busy_flat[row + klass]
            if total:
                busy[(layer, KLASS_NAMES[klass])] = total
    # Aggregate per kind in unit first-touch order — the same insertion
    # order the object pool's create-on-demand dict produces.
    touched = sorted(
        (unit_touch[u], u)
        for u in range(lowered.num_units)
        if unit_touch[u] > 0
    )
    busy_by_kind: Dict[str, int] = {}
    slots_by_kind: Dict[str, int] = {}
    for _, unit in touched:
        kind = lowered.unit_kinds[unit]
        busy_by_kind[kind] = busy_by_kind.get(kind, 0) + unit_busy[unit]
        slots_by_kind[kind] = (
            slots_by_kind.get(kind, 0) + lowered.unit_capacity[unit]
        )
    return MachineResult(
        start=start,
        finish=finish,
        makespan=counters[1],
        executed=executed,
        stall_cycles=dict(zip(STALL_KINDS, stalls)),
        busy_by_layer_class=busy,
        faults_injected=counters[2],
        attempts=list(attempts),
        retire_order=list(retire[:executed]),
        busy_by_kind=busy_by_kind,
        slots_by_kind=slots_by_kind,
    )


class NumpyEngine(CycleEngine):
    """SoA lowering + the C-``heapq`` flat wheel over list tables."""

    name = "numpy"
    description = (
        "structure-of-arrays wheel with vectorized fault pre-draws"
    )

    def available(self) -> bool:
        return _np is not None

    def unavailable_reason(self) -> Optional[str]:
        if self.available():
            return None  # pragma: no cover - numpy present in CI
        return (
            "numpy is not importable on this interpreter "
            "(install numpy to enable the array engines)"
        )

    def run(
        self,
        prepared: PreparedProgram,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
    ) -> MachineResult:
        lowered = prepared.lowered
        attempts = draw_attempts(lowered, fault_rate, fault_seed)
        outputs = wheel_heapq(lowered, attempts)
        return _assemble_result(lowered, attempts, *outputs)


class NumbaEngine(NumpyEngine):
    """:func:`wheel_loops` JIT-compiled with ``numba.njit``.

    ``fastmath`` stays off — the wheel is integer-exact and must stay
    that way; the compiled function is cached on the class after the
    first call (compilation is paid once per process).
    """

    name = "numba"
    description = "numba-JIT flat-loop wheel (optional dependency)"
    _compiled = None

    def available(self) -> bool:
        try:
            import numba  # noqa: F401
        except ImportError:
            return False
        return _np is not None

    def unavailable_reason(self) -> Optional[str]:
        if not self.available():
            return (
                "numba is not importable on this interpreter "
                "(install numba to enable the JIT engine)"
            )
        return None  # pragma: no cover - numba present

    def _kernel(self):  # pragma: no cover - needs numba installed
        if NumbaEngine._compiled is None:
            import numba

            NumbaEngine._compiled = numba.njit(
                cache=False, fastmath=False
            )(wheel_loops)
        return NumbaEngine._compiled

    def run(  # pragma: no cover - needs numba installed
        self,
        prepared: PreparedProgram,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
    ) -> MachineResult:
        lowered = prepared.lowered
        attempts = draw_attempts(lowered, fault_rate, fault_seed)
        tables = lowered.arrays()
        n = lowered.n
        i64 = _np.int64
        zeros = _np.zeros
        ready = zeros(n, i64)
        first_pred = zeros(n, i64)
        start = zeros(n, i64)
        finish = zeros(n, i64)
        heap_cycle = zeros(n, i64)
        heap_uid = zeros(n, i64)
        npreds_left = zeros(n, i64)
        retire = zeros(n, i64)
        slot_free = zeros(lowered.num_slots, i64)
        busy_flat = zeros(lowered.num_layers * len(KLASS_NAMES), i64)
        unit_busy = zeros(lowered.num_units, i64)
        unit_touch = zeros(lowered.num_units, i64)
        stalls = zeros(4, i64)
        counters = zeros(4, i64)
        code = self._kernel()(
            n, tables["cycles"],
            _np.asarray(attempts, dtype=i64), tables["npreds"],
            npreds_left, tables["succ_off"], tables["succ"],
            tables["unit_off"], tables["unit_ids"], tables["slot_off"],
            slot_free, tables["first_unit_link"], tables["is_execute"],
            tables["layer"], tables["klass_id"], len(KLASS_NAMES),
            ready, first_pred, start, finish, heap_cycle, heap_uid,
            retire, busy_flat, unit_busy, unit_touch, stalls, counters,
        )
        return _assemble_result(
            lowered, attempts, start.tolist(), finish.tolist(),
            retire.tolist(), busy_flat.tolist(), unit_busy.tolist(),
            unit_touch.tolist(), stalls.tolist(), counters.tolist(),
            int(code),
        )


# ----------------------------------------------------------------------
# The engine table (fixed; named, validated lookup)
# ----------------------------------------------------------------------
_ENGINES: Dict[str, CycleEngine] = {
    engine.name: engine
    for engine in (PythonEngine(), NumpyEngine(), NumbaEngine())
}

#: The engine every simulator selects unless told otherwise: resolves
#: to the fastest *available* engine (numba > numpy > python) at run
#: time — safe because every engine is ``==``-exact by contract.
DEFAULT_ENGINE = "auto"

#: Resolution order of the ``auto`` meta-engine.
AUTO_ORDER: Tuple[str, ...] = ("numba", "numpy", "python")


def resolve_engine_name(name: str = DEFAULT_ENGINE) -> str:
    """Collapse ``auto`` to the fastest available concrete engine."""
    if name != "auto":
        return name
    for candidate in AUTO_ORDER:
        if _ENGINES[candidate].available():
            return candidate
    return "python"  # pragma: no cover - python is always available


def get_engine(name: str = DEFAULT_ENGINE) -> CycleEngine:
    """Look up an *available* engine by name (``auto`` resolves first).

    Unknown names and unavailable engines (e.g. ``numba`` without
    numba installed) both raise :class:`~repro.errors.
    ConfigurationError` with an actionable message — configs fail fast
    at construction, not mid-replay.
    """
    name = resolve_engine_name(name)
    engine = _ENGINES.get(name)
    if engine is None:
        raise ConfigurationError(
            f"unknown cycle engine {name!r}; available: "
            f"{available_engines()}"
        )
    if not engine.available():
        raise ConfigurationError(
            f"cycle engine {name!r} is unavailable: "
            f"{engine.unavailable_reason()}"
        )
    return engine


def available_engines() -> List[str]:
    """Every engine name in table order, usable here or not
    (:func:`engine_status` says which)."""
    return list(_ENGINES)


def engine_status() -> List[Tuple[str, bool, str]]:
    """(name, available, description-or-reason) for every engine."""
    rows = []
    for name, engine in _ENGINES.items():
        ok = engine.available()
        note = engine.description if ok else (
            engine.unavailable_reason() or "unavailable"
        )
        rows.append((name, ok, note))
    return rows
