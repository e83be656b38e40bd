"""Post-synthesis analysis toolkit around the core flow.

Houses the studies that turn solutions into paper artifacts and
deployment answers: the Fig. 5 ADC-reuse curves (:mod:`.adc_reuse`),
power-constraint sweeps over the §V experiment setup (:mod:`.sweep`),
per-layer energy attribution (:mod:`.energy`), technology sensitivity
of §VI's device-agnosticism claim (:mod:`.sensitivity`), trace Gantt
rendering (:mod:`.gantt`), and the ASCII table formatting every bench
prints (:mod:`.report`).
"""

from repro.analysis.adc_reuse import AdcReuseSample, adc_reuse_study
from repro.analysis.energy import (
    LayerEnergy,
    dominant_resource,
    layer_energy_breakdown,
)
from repro.analysis.gantt import render_gantt
from repro.analysis.report import (
    format_pareto_front,
    format_table,
    normalize_series,
    pareto_front_csv,
    tech_compare_table,
)
from repro.analysis.sweep import (
    PowerSweepRow,
    TechCompareRow,
    power_sweep,
    technology_sweep,
)

__all__ = [
    "AdcReuseSample",
    "adc_reuse_study",
    "LayerEnergy",
    "dominant_resource",
    "layer_energy_breakdown",
    "render_gantt",
    "format_pareto_front",
    "format_table",
    "normalize_series",
    "pareto_front_csv",
    "PowerSweepRow",
    "power_sweep",
    "TechCompareRow",
    "technology_sweep",
    "tech_compare_table",
]
