"""Top-level driver: solution → micro-ops → event wheel → report.

:class:`CycleSimulator` mirrors the float engine's surface
(:class:`repro.sim.engine.SimulationEngine`): construct it from a
``(spec, allocation, macro_groups)`` triple or replay a finished
:class:`~repro.core.solution.SynthesisSolution`, and it builds the same
windowed IR DAG, lowers it to stage-pipelined micro-ops, runs the
integer event wheel on the configured engine, and assembles a
:class:`~repro.sim.cycle.report.CycleSimReport`.

The wheel itself runs on one of the registered engines
(:mod:`repro.sim.cycle.engine`): the pure-Python object machine (the
oracle), the structure-of-arrays flat loop, or its numba JIT — all
``==``-exact, so engine choice only moves wall time. The DAG and both
lowerings are cached on the simulator (:meth:`prepare`), so a
fault-rate sweep lowers once and replays many (:meth:`replay`).

Two extrapolations leave the window:

- the **measured** path reuses :func:`repro.sim.metrics.extrapolate`
  on the IR-level trace (store-to-store periods, stall-inclusive);
- the **steady** path divides each layer's per-class execute occupancy
  by its window block count and scales by the true block count — the
  occupancy roofline the analytical algebra computes, which is what
  cross-validation compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.component_alloc import ComponentAllocation
from repro.errors import SimulationError
from repro.hardware.noc import MeshNoC
from repro.ir.builder import DataflowSpec
from repro.ir.dag import IRDag
from repro.ir.nodes import IROp
from repro.nn.workload import model_macs
from repro.sim.cycle.clock import DEFAULT_RESOLUTION, CycleClock
from repro.sim.cycle.energy import (
    KIND_TO_CLASS,
    busy_idle_energy,
    component_power,
)
from repro.sim.cycle.engine import (
    DEFAULT_ENGINE,
    PreparedProgram,
    get_engine,
)
from repro.sim.cycle.machine import MachineResult
from repro.sim.cycle.report import CycleSimReport
from repro.sim.cycle.uops import MicroProgram
from repro.sim.latency import IRLatencyModel
from repro.sim.metrics import extrapolate
from repro.sim.trace import SimTrace

#: Unit classes that participate in the steady-state roofline — the
#: pipeline stages of the analytical evaluator. Register ports are a
#: lowering artifact and stay diagnostic-only.
_STEADY_CLASSES = ("crossbar", "adc", "alu", "load", "store", "noc")


@dataclass
class CycleSimResult:
    """Everything one cycle run produces."""

    report: CycleSimReport
    trace: SimTrace  # IR-level intervals in seconds (JSONL-able)
    machine: MachineResult
    prepared: PreparedProgram

    @property
    def program(self) -> MicroProgram:
        """The object micro-program (materialized on demand — the
        compiled engines run on the array lowering instead)."""
        return self.prepared.program


@dataclass
class CycleSimulator:
    """Cycle-accurate replay of one synthesized design."""

    spec: DataflowSpec
    allocation: ComponentAllocation
    macro_groups: Sequence[Sequence[int]]
    fault_rate: float = 0.0
    fault_seed: int = 2024
    cycle_time: Optional[float] = None
    resolution: int = DEFAULT_RESOLUTION
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        total_macros = len(
            {m for group in self.macro_groups for m in group}
        )
        self.noc = MeshNoC(
            num_macros=max(1, total_macros), params=self.spec.params
        )
        self.latency_model = IRLatencyModel(
            spec=self.spec,
            allocation=self.allocation,
            macro_groups=self.macro_groups,
            noc=self.noc,
        )
        # Fail fast on unknown/unavailable engines.
        get_engine(self.engine)
        self._prepared: Optional[PreparedProgram] = None
        self._prepared_host: Optional[Dict] = None

    @classmethod
    def for_solution(
        cls, solution, **kwargs
    ) -> "CycleSimulator":
        """Replay a finished :class:`SynthesisSolution`.

        Simulators of the same solution share one lowering cache
        (attached to the solution object, keyed by ``(cycle_time,
        resolution)``): the windowed DAG and its lowerings are pure
        functions of the solution, so replaying it under different
        engines, fault rates or seeds — the serve tier's and
        ``cross_validate``'s pattern — builds them once.
        """
        simulator = cls(
            spec=solution.spec,
            allocation=solution.allocation,
            macro_groups=solution.partition.macro_groups,
            **kwargs,
        )
        try:
            host = solution.__dict__.setdefault(
                "_cycle_prepared_cache", {}
            )
        except AttributeError:  # pragma: no cover - exotic solution
            host = None
        simulator._prepared_host = host
        return simulator

    def build_dag(self) -> IRDag:
        """The same windowed DAG the float engine simulates."""
        from repro.ir.builder import DataflowBuilder

        macro_alloc = {
            geo.index: list(self.macro_groups[geo.index])
            for geo in self.spec.geometries
        }
        return DataflowBuilder(self.spec).build(macro_alloc=macro_alloc)

    def prepare(self, dag: Optional[IRDag] = None) -> PreparedProgram:
        """The cached lowering context (build the DAG at most once).

        Passing an explicit ``dag`` returns a fresh uncached context
        for it; the default path builds and lowers the simulator's own
        DAG once and reuses it across every subsequent run — the
        lower-once / replay-many contract fault sweeps rely on.
        """
        clock = (
            CycleClock(self.cycle_time)
            if self.cycle_time is not None
            else None
        )
        if dag is not None:
            return PreparedProgram(
                dag, self.latency_model, clock, self.resolution
            )
        if self._prepared is None:
            key = (self.cycle_time, self.resolution)
            host = self._prepared_host
            if host is not None and key in host:
                self._prepared = host[key]
            else:
                self._prepared = PreparedProgram(
                    self.build_dag(),
                    self.latency_model,
                    clock,
                    self.resolution,
                )
                if host is not None:
                    host[key] = self._prepared
        return self._prepared

    def lower(self, dag: Optional[IRDag] = None) -> MicroProgram:
        return self.prepare(dag).program

    def run(
        self,
        dag: Optional[IRDag] = None,
        fault_rate: Optional[float] = None,
        fault_seed: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> CycleSimResult:
        """Lower (or reuse), execute, extrapolate, and price one window.

        ``fault_rate`` / ``fault_seed`` / ``engine`` default to the
        simulator's own fields; passing them per call replays the
        cached lowering under different fault draws or engines.
        """
        rate = self.fault_rate if fault_rate is None else fault_rate
        seed = self.fault_seed if fault_seed is None else fault_seed
        wheel = get_engine(self.engine if engine is None else engine)
        prepared = self.prepare(dag)
        result = wheel.run(prepared, fault_rate=rate, fault_seed=seed)
        clock = prepared.clock
        nodes = prepared.nodes

        # IR-level trace in seconds: node interval = read start to
        # register write-back, appended in node_id order (node ``i``
        # owns uids ``3i``..``3i + 2`` — the shared lowering layout).
        trace = SimTrace()
        for index, node in enumerate(nodes):
            trace.record(
                node,
                clock.seconds(result.start[3 * index]),
                clock.seconds(result.finish[3 * index + 2]),
            )
        measured = extrapolate(trace, self.spec)

        steady_periods, bottleneck, steady_period = (
            self._steady_extrapolate(result, clock, prepared)
        )

        inventory = component_power(
            self.spec, self.allocation, self.macro_groups
        )
        utilization = self._utilization(result)
        window_seconds = clock.seconds(result.makespan)
        energy_by_class = busy_idle_energy(
            inventory, utilization, window_seconds
        )

        macs = model_macs(self.spec.model)
        report = CycleSimReport(
            model_name=getattr(self.spec.model, "name", "model"),
            cycle_time=clock.cycle_time,
            total_cycles=result.makespan,
            micro_ops=len(prepared),
            window_makespan=window_seconds,
            steady_image_period=steady_period,
            steady_throughput=1.0 / steady_period,
            steady_tops=2.0 * macs / steady_period / 1e12,
            measured_image_period=measured.image_period,
            measured_throughput=measured.throughput,
            measured_latency=measured.latency,
            power=inventory.total,
            power_by_class=dict(inventory.by_class),
            steady_energy_per_image=inventory.total * steady_period,
            measured_energy_per_image=(
                inventory.total * measured.latency
            ),
            energy_by_class=energy_by_class,
            utilization=utilization,
            stall_cycles=dict(result.stall_cycles),
            faults_injected=result.faults_injected,
            fault_rate=rate,
            fault_seed=seed,
            layer_block_periods=steady_periods,
            bottleneck_layer=bottleneck,
        )
        return CycleSimResult(
            report=report, trace=trace, machine=result,
            prepared=prepared,
        )

    def replay(
        self,
        fault_rate: float,
        fault_seed: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> CycleSimResult:
        """Re-run the cached lowering under different fault draws.

        The DAG build and both lowerings are shared across replays —
        only the (vectorized) fault pre-draws and the wheel itself run
        per call, which is what makes fault-rate sweeps cheap.
        """
        return self.run(
            fault_rate=fault_rate, fault_seed=fault_seed, engine=engine
        )

    def simulate(self, dag: Optional[IRDag] = None) -> CycleSimReport:
        """Engine-compatible convenience: just the report."""
        return self.run(dag).report

    # ------------------------------------------------------------------
    # Extrapolation helpers
    # ------------------------------------------------------------------
    def _steady_extrapolate(
        self,
        result: MachineResult,
        clock: CycleClock,
        prepared: PreparedProgram,
    ) -> Tuple[Dict[int, float], int, float]:
        """Occupancy roofline: per-layer per-image time from unit busy.

        A layer's busy cycles extrapolate by its own window fraction —
        except transfers, which the builder emits once per *consumer*
        block: their occupancy scales with the consumer's fraction, or
        a producer whose consumers window differently (e.g. a conv
        feeding an FC layer that fits its window entirely) would have
        its NoC time mis-extrapolated by the ratio of the two.
        """
        spec = self.spec
        transfer_raw: Dict[int, int] = {}
        transfer_image: Dict[int, float] = {}
        for index, node in enumerate(prepared.nodes):
            if node.op is not IROp.TRANSFER:
                continue
            exec_uid = 3 * index + 1
            cycles = (
                prepared.exec_cycles(index)
                * result.attempts[exec_uid]
            )
            scale_idx = (
                node.dst_layer if node.dst_layer >= 0 else node.layer
            )
            factor = spec.geometries[scale_idx].total_blocks / max(
                1, spec.window_blocks(scale_idx)
            )
            transfer_raw[node.layer] = (
                transfer_raw.get(node.layer, 0) + cycles
            )
            transfer_image[node.layer] = (
                transfer_image.get(node.layer, 0.0) + cycles * factor
            )

        periods: Dict[int, float] = {}
        layer_times: Dict[int, float] = {}
        for geo in spec.geometries:
            window = max(1, spec.window_blocks(geo.index))
            own_factor = geo.total_blocks / window
            best = 0.0
            for klass in _STEADY_CLASSES:
                busy = result.busy_by_layer_class.get(
                    (geo.index, klass), 0
                )
                if klass == "noc":
                    image_cycles = (
                        (busy - transfer_raw.get(geo.index, 0))
                        * own_factor
                        + transfer_image.get(geo.index, 0.0)
                    )
                else:
                    image_cycles = busy * own_factor
                best = max(best, image_cycles)
            if best <= 0:
                raise SimulationError(
                    f"layer {geo.index} executed no busy cycles in "
                    "the window"
                )
            layer_times[geo.index] = clock.seconds(best)
            periods[geo.index] = (
                layer_times[geo.index] / geo.total_blocks
            )
        bottleneck = max(layer_times, key=lambda i: layer_times[i])
        return periods, bottleneck, layer_times[bottleneck]

    def _utilization(self, result: MachineResult) -> Dict[str, float]:
        """Busy fraction per power class over the simulated window."""
        if result.makespan <= 0:
            return {}
        by_class_busy: Dict[str, int] = {}
        by_class_slots: Dict[str, int] = {}
        for kind, total in result.busy_by_kind.items():
            klass = KIND_TO_CLASS[kind]
            by_class_busy[klass] = by_class_busy.get(klass, 0) + total
        for kind, count in result.slots_by_kind.items():
            klass = KIND_TO_CLASS[kind]
            by_class_slots[klass] = (
                by_class_slots.get(klass, 0) + count
            )
        return {
            klass: by_class_busy.get(klass, 0)
            / (slots * result.makespan)
            for klass, slots in by_class_slots.items()
        }
