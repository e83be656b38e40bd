"""Cycle-level pipelined trace simulator — the analytical model's
second opinion.

:mod:`repro.sim` estimates performance two ways: the closed-form
analytical algebra in :mod:`repro.core.evaluator` (what the DSE
optimizes) and the windowed list scheduler in :mod:`repro.sim.engine`
(IR-level, float service times). Both consume the *same* per-IR rate
model, so neither can catch drift in the other's structural
assumptions. This subpackage executes a synthesized solution at a
third, lower level: every IR is lowered to read→execute→write
micro-ops, functional units (crossbar sets, ADC banks, ALU lanes,
banked eDRAM load/store ports, register-file ports) carry integer-cycle
occupancy timelines, inter-macro traffic claims the concrete XY-route
links of the mesh NoC with per-link contention, and a global event
wheel (``heapq``) drives cycle-accurate start/finish times.

Outputs:

- :class:`~repro.sim.cycle.report.CycleSimReport` — measured
  (stall-inclusive) and steady-state (occupancy-roofline) throughput,
  an energy account priced from the same
  :class:`~repro.hardware.tech.TechnologyProfile` tables the analytical
  model uses, per-stage utilization, and a stall breakdown
  (dependency vs bank vs NoC vs fault) no closed form can produce;
- :func:`~repro.sim.cycle.validate.cross_validate` — replays any
  :class:`~repro.core.solution.SynthesisSolution` and checks the
  analytical throughput/energy against the cycle simulation within a
  stated tolerance (the zoo-wide drift tripwire);
- deterministic fault injection — seeded stuck crossbar reads and NoC
  link faults with stall-and-retry semantics, the first scenario the
  analytical model cannot express.

Everything is integer-cycle arithmetic after quantization, so a run is
byte-deterministic for a fixed ``(solution, fault_rate, fault_seed)``
— on *every* engine: the wheel runs on one of the three
:mod:`~repro.sim.cycle.engine` engines (object oracle,
structure-of-arrays flat loop, or its numba JIT), all ``==``-exact by
contract.
"""

from repro.sim.cycle.clock import CycleClock
from repro.sim.cycle.engine import (
    DEFAULT_ENGINE,
    CycleEngine,
    PreparedProgram,
    available_engines,
    engine_status,
    get_engine,
    resolve_engine_name,
)
from repro.sim.cycle.kernel import (
    LoweredProgram,
    draw_attempts,
    lower_arrays,
    program_to_arrays,
)
from repro.sim.cycle.machine import CycleMachine, MachineResult
from repro.sim.cycle.report import CycleSimReport
from repro.sim.cycle.simulator import CycleSimResult, CycleSimulator
from repro.sim.cycle.uops import (
    MicroOp,
    MicroProgram,
    Stage,
    clear_route_cache,
    lower_dag,
    route_cache_stats,
)
from repro.sim.cycle.validate import (
    DEFAULT_TOLERANCE,
    CrossValidationReport,
    cross_validate,
)

__all__ = [
    "CycleClock",
    "CycleMachine",
    "MachineResult",
    "CycleSimReport",
    "CycleSimResult",
    "CycleSimulator",
    "MicroOp",
    "MicroProgram",
    "Stage",
    "lower_dag",
    "clear_route_cache",
    "route_cache_stats",
    "DEFAULT_TOLERANCE",
    "CrossValidationReport",
    "cross_validate",
    "DEFAULT_ENGINE",
    "CycleEngine",
    "PreparedProgram",
    "available_engines",
    "engine_status",
    "get_engine",
    "resolve_engine_name",
    "LoweredProgram",
    "draw_attempts",
    "lower_arrays",
    "program_to_arrays",
]
