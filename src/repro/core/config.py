"""Synthesis configuration: user inputs plus DSE effort knobs.

The paper's user inputs are the CNN model, a total power constraint and
the hardware setup parameters (§III). Everything else here controls how
much of Table I's space Alg. 1 walks — the full grid reproduces the
paper's four-hour synthesis; the ``fast()`` preset keeps unit tests and
benches snappy while exercising every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.backend import numpy_available
from repro.errors import ConfigurationError
from repro.hardware.params import HardwareParams
from repro.hardware.tech import DEFAULT_TECHNOLOGY, get_technology
from repro.optim.annealing import AnnealingSchedule

#: Metrics the multi-objective (pareto) mode can optimize, mapped to
#: their sense: ``+1`` maximized as-is, ``-1`` negated so the shared
#: dominance helpers (which maximize every component) minimize them.
#: Names match :class:`repro.core.evaluator.EvaluationResult` fields,
#: plus ``num_macros`` (the partition's macro count — the area/cost
#: proxy Table I's grid prices in macro periphery).
OBJECTIVE_SENSES = {
    "throughput": 1,
    "tops_per_watt": 1,
    "tops": 1,
    "energy_per_image": -1,
    "num_macros": -1,
    "power": -1,
    "latency": -1,
    "edp": -1,
}

#: Default pareto objective set: the trade-off surface the ROADMAP
#: names — speed vs energy vs macro/area cost.
DEFAULT_OBJECTIVES = ("throughput", "energy_per_image", "num_macros")


def objective_vector(metrics, objectives) -> Tuple[float, ...]:
    """Sense-adjusted (maximized) objective vector from a metric map.

    The one place metric values become dominance coordinates: minimized
    metrics are negated, everything else passes through bit-unchanged.
    Both the scalar and the batched scoring paths funnel through here,
    which is what makes their fronts identical, not merely close. A
    map marked infeasible (a ``score_fields`` row whose ``feasible`` is
    False) gets the all ``-inf`` sentinel: dominated by every feasible
    vector (all metrics are finite), never dominating a twin (equal
    vectors tie under strict dominance).
    """
    if not metrics.get("feasible", True):
        return tuple(float("-inf") for _ in objectives)
    return tuple(
        float(metrics[name]) if OBJECTIVE_SENSES[name] > 0
        else -float(metrics[name])
        for name in objectives
    )


@dataclass
class SynthesisConfig:
    """All knobs of one PIMSYN run.

    Parameters
    ----------
    total_power:
        The user's power constraint in watts (§III input).
    tech:
        Name of the device-technology profile (see
        :mod:`repro.hardware.tech`): supplies the hardware params and
        the default exploration domains, and participates in result
        content keys so two technologies never share cached results.
        Defaults to the paper's ``"reram"`` device.
    params:
        The concrete hardware constants. ``None`` (the default)
        materializes them from the ``tech`` profile; an explicit
        object overrides the profile's constants (``tech`` remains
        the provenance label — the sensitivity sweeps use this).
    ratio_rram_choices / res_rram_choices / xb_size_choices /
    res_dac_choices:
        The Table I grids Alg. 1 traverses (lines 3-5, 8). ``None``
        entries resolve to the technology profile's domains; explicit
        grids are validated against the technology's device tables
        (and, for profile-derived params, its cell resolutions).
    num_wtdup_candidates:
        Stage 1 keeps this many SA-filtered WtDup candidates (paper: 30).
    sa_* :
        Annealing schedule of the stage-1 filter (:attr:`sa_schedule`),
        validated when the config is built.
    sa_alpha:
        Eq. 4's empirical ``alpha`` balancing workload vs access-volume
        spread.
    ea_* :
        Alg. 2 population knobs.

    Every count field (the ``ea_*`` knobs, ``num_wtdup_candidates``,
    ``sa_steps_per_temp``, ``sa_proposal_batch``,
    ``max_blocks_per_layer``) must be an ``int`` (not a ``bool``) of at
    least 1, and every real-valued one (``total_power``, the other
    ``sa_*`` knobs) a finite ``int`` or ``float`` (not a ``bool``);
    anything else raises :class:`ConfigurationError` when the config
    is built.
    specialized_macros:
        Per-layer macro customization (§V-C2). ``False`` forces identical
        macros chip-wide.
    enable_macro_sharing:
        Inter-layer macro/ADC reuse (§IV-C1 rule b, §V-C3).
    jobs:
        Worker processes for the DSE executor: 1 (default) evaluates the
        flat (point, WtDup, ResDAC) task queue in-process, ``n > 1``
        fans it out over a ``multiprocessing`` pool, and 0 means "one per
        CPU core". Serial and parallel runs return identical solutions
        for a fixed seed.
    prune_dominated:
        Skip the EA for tasks whose analytical throughput upper bound
        (:func:`repro.core.evaluator.throughput_upper_bound`) cannot
        beat the incumbent. The bound is sound, so pruning never changes
        the solution — only the telemetry (fewer EA runs).
    sa_proposal_batch:
        Neighbor proposals the stage-1 SA filter draws and scores per
        batch (its Eq. 4 energies vectorize the same way). ``1``
        reproduces the classic one-proposal-per-step chain exactly;
        larger batches draw each round's proposals from the round's
        entry state, which changes the (still deterministic) walk —
        the value therefore participates in result content keys.
    pareto:
        Multi-objective synthesis mode: :meth:`repro.core.synthesizer.
        Pimsyn.synthesize_pareto` runs NSGA-II per DSE task and merges
        the per-task fronts into one global Pareto front over
        ``objectives``. The flag participates in result content keys
        (a front is a different artifact than a single solution); the
        serve layer routes on it.
    objectives:
        The (ordered) metrics pareto mode trades off — names from
        :data:`OBJECTIVE_SENSES`, minimized metrics negated
        internally. At least two distinct objectives are required
        (one-objective fronts degenerate to the scalar EA — use
        ``synthesize()``).
    seed:
        Master seed for all stochastic stages.

    The array engine of the batched DSE paths is not a setting: the
    read-only :attr:`backend` reports it. Nor is the cycle simulator's
    event wheel (:attr:`sim_engine`), nor the evaluation memo: every
    task runner keeps one (:mod:`repro.core.executor`).
    """

    total_power: float = 50.0
    params: Optional[HardwareParams] = None

    ratio_rram_choices: Optional[Tuple[float, ...]] = None
    res_rram_choices: Optional[Tuple[int, ...]] = None
    xb_size_choices: Optional[Tuple[int, ...]] = None
    res_dac_choices: Optional[Tuple[int, ...]] = None

    num_wtdup_candidates: int = 30
    sa_initial_temperature: float = 1.0
    sa_min_temperature: float = 1e-2
    sa_cooling_rate: float = 0.9
    sa_steps_per_temp: int = 40
    sa_alpha: float = 0.5

    ea_population_size: int = 16
    ea_offspring_per_gen: int = 16
    ea_max_generations: int = 12
    ea_patience: int = 5

    specialized_macros: bool = True
    enable_macro_sharing: bool = True
    max_blocks_per_layer: int = 8
    jobs: int = 1
    prune_dominated: bool = True
    sa_proposal_batch: int = 8
    pareto: bool = False
    objectives: Tuple[str, ...] = DEFAULT_OBJECTIVES
    seed: int = 2024
    tech: str = DEFAULT_TECHNOLOGY

    @property
    def resolved_jobs(self) -> int:
        """The concrete worker count (``jobs == 0`` means all cores)."""
        if self.jobs == 0:
            import os

            return max(1, os.cpu_count() or 1)
        return self.jobs

    @property
    def backend(self) -> str:
        """The engine the batched DSE paths (task-grid bounds,
        EA/NSGA-II population scoring, the SA filter's Eq. 4 sums) run
        on: ``"numpy"`` when numpy imports, else ``"python"``, their
        scalar oracles. Both return the same values, so it never enters
        a content key (see :mod:`repro.core.backend`)."""
        return "numpy" if numpy_available() else "python"

    @property
    def sim_engine(self) -> str:
        """The event wheel the cycle simulator runs on: what ``auto``
        resolves to (``numba``, ``numpy`` or ``python``, the oracle,
        the first that imports). Every wheel returns ``==`` results,
        so it never enters a content key (see
        :mod:`repro.sim.cycle.engine`)."""
        # Local import: a config build never loads the cycle simulator.
        from repro.sim.cycle.engine import resolve_engine_name

        return resolve_engine_name("auto")

    @property
    def sa_schedule(self) -> AnnealingSchedule:
        """The stage-1 filter's cooling schedule, from the ``sa_*``
        fields."""
        return AnnealingSchedule(
            initial_temperature=self.sa_initial_temperature,
            min_temperature=self.sa_min_temperature,
            cooling_rate=self.sa_cooling_rate,
            steps_per_temp=self.sa_steps_per_temp,
        )

    def __post_init__(self) -> None:
        # A bad value must not build and then fail mid-synthesis (or
        # reach a serve client as an internal error). Nothing is
        # coerced, so every accepted value keeps its content key.
        for name in (
            "total_power", "sa_initial_temperature", "sa_min_temperature",
            "sa_cooling_rate", "sa_alpha",
        ):
            value = getattr(self, name)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        for name in (
            "num_wtdup_candidates", "sa_steps_per_temp",
            "sa_proposal_batch", "ea_population_size",
            "ea_offspring_per_gen", "ea_max_generations", "ea_patience",
            "max_blocks_per_layer",
        ):
            value = getattr(self, name)
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < 1
            ):
                raise ConfigurationError(
                    f"{name} must be >= 1 (an integer), got {value!r}"
                )
        if self.total_power <= 0:
            raise ConfigurationError("total_power must be positive")
        # Resolve the device technology: the profile supplies hardware
        # params and any exploration domain the caller left unset, so a
        # config is always fully concrete after construction. An
        # explicitly passed ``params`` object wins over the profile's
        # constants (the sensitivity sweeps perturb profile-derived
        # params this way); ``tech`` stays as the content-key label.
        profile = get_technology(self.tech)
        profile_derived = self.params is None
        if self.params is None:
            self.params = HardwareParams.from_technology(profile)
        if self.ratio_rram_choices is None:
            self.ratio_rram_choices = profile.ratio_rram_choices
        if self.res_rram_choices is None:
            self.res_rram_choices = profile.res_rram_choices
        if self.xb_size_choices is None:
            self.xb_size_choices = profile.xb_size_choices
        if self.res_dac_choices is None:
            self.res_dac_choices = profile.res_dac_choices
        for ratio in self.ratio_rram_choices:
            if not 0.0 < ratio < 1.0:
                raise ConfigurationError(
                    f"RatioRram {ratio} outside (0, 1)"
                )
        for name, choices in (
            ("res_rram_choices", self.res_rram_choices),
            ("xb_size_choices", self.xb_size_choices),
            ("res_dac_choices", self.res_dac_choices),
        ):
            if not choices:
                raise ConfigurationError(f"{name} must be non-empty")
            if any(c <= 0 for c in choices):
                raise ConfigurationError(f"{name} entries must be positive")
        # The grids must be priceable by the technology's tables —
        # otherwise the DSE dies mid-walk with a lookup error.
        for xb in self.xb_size_choices:
            self.params.crossbar_power_of(xb)
        for res in self.res_dac_choices:
            self.params.dac_power_of(res)
        if profile_derived:
            # Profile-derived params: the cell's physics constrains the
            # grid (e.g. SRAM has no multi-bit cells).
            bad = [r for r in self.res_rram_choices
                   if r not in profile.res_rram_choices]
            if bad:
                raise ConfigurationError(
                    f"ResRram choices {bad} not offered by technology "
                    f"{profile.name!r} (cells: "
                    f"{profile.res_rram_choices})"
                )
        # Schedule errors surface here, not when stage 1 runs: a serve
        # request is keyed (and queued) only after its config is built.
        try:
            self.sa_schedule
        except ConfigurationError as exc:
            raise ConfigurationError(f"sa_* schedule: {exc}") from None
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool):
            raise ConfigurationError(
                f"jobs must be an integer, got {self.jobs!r} "
                f"({type(self.jobs).__name__})"
            )
        if self.jobs < 0:
            raise ConfigurationError(
                "jobs must be >= 0 (0 selects one worker per CPU core)"
            )
        if not isinstance(self.pareto, bool):
            raise ConfigurationError(
                f"pareto must be a bool, got {self.pareto!r}"
            )
        objectives = tuple(self.objectives)
        if len(objectives) < 2:
            raise ConfigurationError(
                "objectives needs at least two metrics (a one-metric "
                "front is the scalar EA; use synthesize())"
            )
        if len(set(objectives)) != len(objectives):
            raise ConfigurationError(
                f"objectives has duplicates: {objectives}"
            )
        unknown = [o for o in objectives if o not in OBJECTIVE_SENSES]
        if unknown:
            raise ConfigurationError(
                f"unknown objectives {unknown}; valid: "
                f"{sorted(OBJECTIVE_SENSES)}"
            )
        self.objectives = objectives

    @classmethod
    def fast(cls, total_power: float = 50.0, seed: int = 2024,
             **overrides) -> "SynthesisConfig":
        """A reduced-effort preset that still walks every stage.

        One outer grid point per variable except the two that matter most
        (XbSize and ResDAC keep two values), small SA/EA budgets, and 6
        WtDup candidates. Used by tests and the quicker benches.

        The reduced grids are carved out of the technology profile's
        domains (``overrides`` may carry ``tech``), so the preset is
        valid for every device: a mid-grid RatioRram and cell
        resolution, the two smallest crossbar sizes and DAC
        resolutions. Under the default ``reram`` profile this yields
        exactly the historical ``(0.3,) / (2,) / (128, 256) / (1, 2)``
        preset, keeping fast-config content keys stable.
        """
        profile = get_technology(overrides.get("tech",
                                               DEFAULT_TECHNOLOGY))
        ratios = profile.ratio_rram_choices
        cells = profile.res_rram_choices
        defaults = dict(
            total_power=total_power,
            ratio_rram_choices=(ratios[max(0, len(ratios) - 2)],),
            res_rram_choices=(cells[len(cells) // 2],),
            xb_size_choices=profile.xb_size_choices[:2],
            res_dac_choices=profile.res_dac_choices[:2],
            num_wtdup_candidates=6,
            sa_steps_per_temp=15,
            sa_cooling_rate=0.8,
            ea_population_size=8,
            ea_offspring_per_gen=8,
            ea_max_generations=6,
            ea_patience=3,
            seed=seed,
        )
        defaults.update(overrides)
        return cls(**defaults)
