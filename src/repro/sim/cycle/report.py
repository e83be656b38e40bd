"""The cycle simulator's user-facing result object.

A :class:`CycleSimReport` carries two throughput numbers on purpose:

- ``steady_*`` — the occupancy roofline: each layer's per-block busy
  cycles on its most-loaded unit class, scaled to the full image. This
  is the quantity the analytical evaluator's pipeline algebra computes
  (period = slowest stage of the slowest layer), so it is what
  :func:`~repro.sim.cycle.validate.cross_validate` pins.
- ``measured_*`` — the store-to-store period actually observed on the
  event wheel, which folds in everything the closed form cannot see:
  windowed dependency stalls, register pipeline overhead, link
  contention, fault retries. The stall breakdown explains the gap.

Everything in the payload is a plain JSON value so reports can be
diffed byte-for-byte (determinism tests) and shipped in bench
artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import SimulationError


@dataclass
class CycleSimReport:
    """Cycle-accurate replay summary of one synthesized solution."""

    model_name: str
    cycle_time: float  # seconds per clock cycle
    total_cycles: int  # window makespan in cycles
    micro_ops: int
    window_makespan: float  # seconds to drain the simulated window

    # Occupancy-roofline steady state (the analytical model's claim).
    steady_image_period: float
    steady_throughput: float
    steady_tops: float

    # Measured on the event wheel (stall-inclusive).
    measured_image_period: float
    measured_throughput: float
    measured_latency: float

    # Bottom-up energy account.
    power: float
    power_by_class: Dict[str, float]
    steady_energy_per_image: float  # power x steady image period
    measured_energy_per_image: float  # power x measured latency
    energy_by_class: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )

    # Diagnostics no analytical path can produce.
    utilization: Dict[str, float] = field(default_factory=dict)
    stall_cycles: Dict[str, int] = field(default_factory=dict)
    faults_injected: int = 0
    fault_rate: float = 0.0
    fault_seed: int = 0
    layer_block_periods: Dict[int, float] = field(default_factory=dict)
    bottleneck_layer: int = -1

    def tops_per_watt(self) -> float:
        if self.power <= 0:
            raise SimulationError("power must be positive")
        return self.steady_tops / self.power

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe, deterministic dict (dict order is insertion order,
        which is itself deterministic here)."""
        return {
            "model": self.model_name,
            "engine": "cycle",
            "cycle_time": self.cycle_time,
            "total_cycles": self.total_cycles,
            "micro_ops": self.micro_ops,
            "window_makespan": self.window_makespan,
            "steady": {
                "image_period": self.steady_image_period,
                "throughput": self.steady_throughput,
                "tops": self.steady_tops,
                "energy_per_image": self.steady_energy_per_image,
            },
            "measured": {
                "image_period": self.measured_image_period,
                "throughput": self.measured_throughput,
                "latency": self.measured_latency,
                "energy_per_image": self.measured_energy_per_image,
            },
            "power": self.power,
            "power_by_class": dict(sorted(self.power_by_class.items())),
            "energy_by_class": {
                klass: dict(sorted(split.items()))
                for klass, split in sorted(self.energy_by_class.items())
            },
            "utilization": dict(sorted(self.utilization.items())),
            "stall_cycles": dict(sorted(self.stall_cycles.items())),
            "faults": {
                "injected": self.faults_injected,
                "rate": self.fault_rate,
                "seed": self.fault_seed,
            },
            "layer_block_periods": {
                str(layer): period
                for layer, period in sorted(
                    self.layer_block_periods.items()
                )
            },
            "bottleneck_layer": self.bottleneck_layer,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=False)

    def summary(self) -> str:
        """Terminal-friendly report (the CLI's default rendering)."""
        lines = [
            f"cycle simulation - {self.model_name}",
            f"  clock             {self.cycle_time:.3e} s/cycle "
            f"({self.total_cycles} cycles, {self.micro_ops} micro-ops)",
            f"  steady throughput {self.steady_throughput:.2f} img/s "
            f"({self.steady_tops:.3f} TOPS)",
            f"  measured          {self.measured_throughput:.2f} img/s "
            f"(latency {self.measured_latency:.3e} s)",
            f"  power             {self.power:.3f} W "
            f"({self.tops_per_watt():.3f} TOPS/W)",
            f"  energy/image      {self.steady_energy_per_image:.3e} J "
            f"steady, {self.measured_energy_per_image:.3e} J measured",
            f"  bottleneck        layer {self.bottleneck_layer}",
        ]
        if self.utilization:
            busiest = sorted(
                self.utilization.items(),
                key=lambda kv: kv[1],
                reverse=True,
            )
            rendered = ", ".join(
                f"{klass}={util:.0%}" for klass, util in busiest
            )
            lines.append(f"  utilization       {rendered}")
        if self.stall_cycles:
            rendered = ", ".join(
                f"{kind}={cycles}"
                for kind, cycles in sorted(self.stall_cycles.items())
            )
            lines.append(f"  stall cycles      {rendered}")
        if self.fault_rate > 0.0:
            lines.append(
                f"  faults            {self.faults_injected} injected "
                f"(rate={self.fault_rate}, seed={self.fault_seed})"
            )
        return "\n".join(lines)
