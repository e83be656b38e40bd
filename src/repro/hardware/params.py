"""Hardware setup parameters (Table III), with provenance.

The paper gives Table III as ranges and defers the remaining constants to
ISAAC [2] and MNSIM [15]. This module pins every constant the synthesis
flow needs, re-derived as documented below. All powers are in watts,
latencies in seconds, energies in joules, areas in mm^2.

Derivations
-----------
- **ReRAM crossbar** read power: Table III gives 0.3-4.8 mW across sizes
  128/256/512. Read power scales with cell count, i.e. ~4x per size
  doubling, which reproduces the published endpoints exactly:
  128 -> 0.3 mW, 256 -> 1.2 mW, 512 -> 4.8 mW. Cell resolution does not
  change read power to first order (same array current); it changes the
  number of crossbars needed via Eq. 1.
- **Crossbar MVM latency**: 100 ns per in-situ read (ISAAC).
- **DAC**: Table III gives 4-30 uW for resolutions 1/2/4; intermediate
  point interpolated geometrically (2-bit ~= 11 uW).
- **ADC**: Table III gives 2-54 mW for resolutions 7-14. We interpolate
  geometrically: P(r) = 2 mW * (54/2)^((r-7)/7), i.e. ~1.6x per bit.
  Sample rate 1.2 GS/s (ISAAC's 8-bit ADC); held constant across
  resolutions for simplicity (resolution cost is carried by power).
- **eDRAM scratchpad**: 64 KB, 256-bit bus, 20.7 mW (Table III). Bus at
  1 GHz -> 32 GB/s per macro.
- **NoC router**: 32-bit flits, 8 ports, 42 mW (Table III); 1 GHz ->
  4 GB/s per port, 1 cycle per hop plus serialization.
- **ALU (shift-and-add / pooling / ReLU)**: ISAAC's S+A unit, 0.2 mW at
  1 GHz, one element operation per cycle.
- **Sample & hold**: ISAAC, ~10 uW per 128 units -> 0.08 uW each.
- **Register files**: ISAAC input/output registers ~1.47 mW per macro.
- **Areas** (reporting only): ISAAC table 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigurationError

# Exploration domains of Table I / Table III for the paper's ReRAM
# device. These module constants are the ``reram`` technology profile's
# domains (see :mod:`repro.hardware.tech`); other technologies carry
# their own domains on their profiles — prefer
# ``get_technology(name).xb_size_choices`` etc. in new code.
XBSIZE_CHOICES: Tuple[int, ...] = (128, 256, 512)
RESRRAM_CHOICES: Tuple[int, ...] = (1, 2, 4)
RESDAC_CHOICES: Tuple[int, ...] = (1, 2, 4)
ADC_RESOLUTION_RANGE: Tuple[int, int] = (7, 14)
RATIO_RRAM_RANGE: Tuple[float, float] = (0.1, 0.4)


def _default_crossbar_power() -> Dict[int, float]:
    # 4x per size doubling, anchored at the Table III endpoints.
    return {128: 0.3e-3, 256: 1.2e-3, 512: 4.8e-3}


def _default_dac_power() -> Dict[int, float]:
    # Table III endpoints 4 uW (1-bit) and 30 uW (4-bit), geometric midpoint.
    return {1: 4e-6, 2: 11e-6, 4: 30e-6}


def _default_adc_power() -> Dict[int, float]:
    low, high = ADC_RESOLUTION_RANGE
    base, top = 2e-3, 54e-3
    ratio = (top / base) ** (1.0 / (high - low))
    return {r: base * ratio ** (r - low) for r in range(low, high + 1)}


@dataclass
class HardwareParams:
    """All device/circuit constants consumed by the synthesis flow.

    Every field has the Table III / ISAAC / MNSIM default; tests and
    users may override any of them to model a different technology.
    """

    # -- ReRAM crossbar --------------------------------------------------
    crossbar_power: Dict[int, float] = field(
        default_factory=_default_crossbar_power
    )
    crossbar_latency: float = 100e-9  # one in-situ MVM read
    crossbar_area: Dict[int, float] = field(
        default_factory=lambda: {128: 0.0025, 256: 0.01, 512: 0.04}
    )

    # -- DAC -------------------------------------------------------------
    dac_power: Dict[int, float] = field(default_factory=_default_dac_power)
    dac_latency: float = 1e-9
    dac_area: float = 1.67e-7  # per DAC

    # -- ADC -------------------------------------------------------------
    adc_power: Dict[int, float] = field(default_factory=_default_adc_power)
    adc_sample_rate: float = 1.2e9  # samples/s
    adc_area: float = 0.0012  # per ADC (8-bit reference point)

    # -- eDRAM scratchpad (per macro) -------------------------------------
    edram_size_bytes: int = 64 * 1024
    edram_bus_bits: int = 256
    edram_power: float = 20.7e-3
    edram_frequency: float = 1e9
    edram_area: float = 0.083

    # -- NoC router (per macro) -------------------------------------------
    noc_flit_bits: int = 32
    noc_ports: int = 8
    noc_power: float = 42e-3
    noc_frequency: float = 1e9
    noc_hop_latency: float = 1e-9
    noc_area: float = 0.151

    # -- ALU (shift-and-add / pooling / ReLU vector unit) ------------------
    alu_power: float = 0.2e-3
    alu_frequency: float = 1e9
    alu_area: float = 6e-5

    # -- sample & hold, registers ------------------------------------------
    sample_hold_power: float = 0.08e-6  # per unit (one per crossbar column)
    sample_hold_area: float = 3e-8
    register_power_per_macro: float = 1.47e-3
    register_area_per_macro: float = 0.0043

    # -- quantification (paper: 16-bit) ------------------------------------
    act_precision: int = 16
    weight_precision: int = 16

    # -- provenance --------------------------------------------------------
    #: Name of the :class:`repro.hardware.tech.TechnologyProfile` these
    #: constants came from. Participates in content fingerprints (the
    #: default is skipped for key stability — see
    #: :func:`repro.core.executor.params_fingerprint`), so two
    #: technologies never share memoized evaluations or stored results.
    technology: str = "reram"

    def __post_init__(self) -> None:
        if self.crossbar_latency <= 0:
            raise ConfigurationError("crossbar latency must be positive")
        if self.adc_sample_rate <= 0:
            raise ConfigurationError("ADC sample rate must be positive")
        if not self.adc_power:
            raise ConfigurationError("adc_power table must be non-empty")
        for size in self.crossbar_power:
            if size <= 0 or self.crossbar_power[size] <= 0:
                raise ConfigurationError(f"bad crossbar power entry {size}")
        if self.act_precision <= 0 or self.weight_precision <= 0:
            raise ConfigurationError("precisions must be positive")

    # ------------------------------------------------------------------
    # Technology routing
    # ------------------------------------------------------------------
    @classmethod
    def from_technology(cls, technology) -> "HardwareParams":
        """Materialize the params of a technology profile (or name).

        The canonical construction path: every layer of the flow that
        needs hardware constants receives a ``HardwareParams`` built
        here (directly or via :func:`repro.hardware.tech.
        default_params`), so the device is always an explicit,
        content-keyed choice. ``HardwareParams.from_technology("reram")``
        equals a default-constructed ``HardwareParams()`` field for
        field — the pre-profile behavior is the default profile.
        """
        from repro.hardware.tech import get_technology

        profile = get_technology(technology)
        return cls(technology=profile.name, **profile.device_constants())

    # ------------------------------------------------------------------
    # Lookups with validation
    # ------------------------------------------------------------------
    def crossbar_power_of(self, xb_size: int) -> float:
        """Read power of one crossbar of ``xb_size`` x ``xb_size`` cells."""
        if xb_size not in self.crossbar_power:
            raise ConfigurationError(
                f"no crossbar power for size {xb_size}; "
                f"known sizes: {sorted(self.crossbar_power)}"
            )
        return self.crossbar_power[xb_size]

    def dac_power_of(self, resolution: int) -> float:
        """Power of one DAC at the given resolution."""
        if resolution not in self.dac_power:
            raise ConfigurationError(
                f"no DAC power for resolution {resolution}; "
                f"known: {sorted(self.dac_power)}"
            )
        return self.dac_power[resolution]

    def adc_power_of(self, resolution: int) -> float:
        """Power of one ADC at the given resolution."""
        if resolution not in self.adc_power:
            raise ConfigurationError(
                f"no ADC power for resolution {resolution}; "
                f"known: {sorted(self.adc_power)}"
            )
        return self.adc_power[resolution]

    @property
    def adc_resolution_range(self) -> Tuple[int, int]:
        """(min, max) ADC resolution this technology's curve covers.

        Derived from the ``adc_power`` table so it can never disagree
        with the curve; :func:`repro.hardware.crossbar.
        required_adc_resolution` clamps into this range.
        """
        return (min(self.adc_power), max(self.adc_power))

    @property
    def edram_bandwidth(self) -> float:
        """Scratchpad bandwidth in bytes/second."""
        return self.edram_bus_bits / 8 * self.edram_frequency

    @property
    def noc_port_bandwidth(self) -> float:
        """One NoC port's bandwidth in bytes/second."""
        return self.noc_flit_bits / 8 * self.noc_frequency

    def dacs_per_pe(self, xb_size: int) -> int:
        """One DAC per crossbar word line (Fig. 2c)."""
        return xb_size

    def act_bit_iterations(self, res_dac: int) -> int:
        """Bit-serial iterations per computation block.

        If activation precision exceeds the DAC resolution, inputs are
        streamed ``ceil(PrecAct / ResDAC)`` bits at a time (§II-A).
        """
        if res_dac <= 0:
            raise ConfigurationError("DAC resolution must be positive")
        return math.ceil(self.act_precision / res_dac)
