"""Tests for the exception hierarchy and SynthesisConfig validation."""

import math

import pytest

from repro.core.config import SynthesisConfig
from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    IRError,
    ModelError,
    PimsynError,
    SimulationError,
)


class TestErrorHierarchy:
    def test_all_derive_from_base(self):
        for exc_type in (ConfigurationError, InfeasibleError, IRError,
                         ModelError, SimulationError):
            assert issubclass(exc_type, PimsynError)

    def test_single_catch_covers_package(self):
        with pytest.raises(PimsynError):
            raise InfeasibleError("x")

    def test_types_distinct(self):
        with pytest.raises(ModelError):
            raise ModelError("m")
        assert not issubclass(ModelError, IRError)


class TestSynthesisConfigValidation:
    def test_defaults_are_paper_grid(self):
        config = SynthesisConfig()
        assert config.ratio_rram_choices == (0.1, 0.2, 0.3, 0.4)
        assert config.res_rram_choices == (1, 2, 4)
        assert config.xb_size_choices == (128, 256, 512)
        assert config.res_dac_choices == (1, 2, 4)
        assert config.num_wtdup_candidates == 30  # paper's top-30

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig(total_power=0.0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig(ratio_rram_choices=(1.5,))
        with pytest.raises(ConfigurationError):
            SynthesisConfig(ratio_rram_choices=(0.0,))

    def test_empty_choice_lists_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig(xb_size_choices=())
        with pytest.raises(ConfigurationError):
            SynthesisConfig(res_dac_choices=(0,))

    def test_candidate_floor(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig(num_wtdup_candidates=0)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig(jobs=-1)

    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"sa_cooling_rate": 1.5}, "cooling_rate must lie in",
                     id="sa_cooling_rate=1.5"),
        pytest.param({"sa_steps_per_temp": 0}, "steps_per_temp must be >= 1",
                     id="sa_steps_per_temp=0"),
        pytest.param({"sa_min_temperature": 0},
                     "temperatures must be positive",
                     id="sa_min_temperature=0"),
        pytest.param({"sa_min_temperature": 2.0},
                     "min_temperature must not exceed initial_temperature",
                     id="sa_min_temperature-above-initial"),
        pytest.param({"ea_population_size": 0},
                     "ea_population_size must be >= 1",
                     id="ea_population_size=0"),
        pytest.param({"ea_offspring_per_gen": 0},
                     "ea_offspring_per_gen must be >= 1",
                     id="ea_offspring_per_gen=0"),
        pytest.param({"ea_max_generations": 0},
                     "ea_max_generations must be >= 1",
                     id="ea_max_generations=0"),
        # Wrong types and values that used to build (then fail in the
        # search, or run silently) or raise a bare TypeError.
        *(
            pytest.param({name: value}, f"{name} must be >= 1",
                         id=f"{name}={value!r}")
            for name, value in (
                ("ea_patience", "5"),
                ("ea_patience", 0),
                ("ea_population_size", 2.5),
                ("ea_population_size", "8"),
                ("ea_offspring_per_gen", 2.5),
                ("ea_max_generations", 2.5),
                ("ea_max_generations", True),
                ("num_wtdup_candidates", 2.5),
                ("num_wtdup_candidates", "3"),
                ("sa_steps_per_temp", 2.5),
                ("sa_proposal_batch", 2.5),
                ("max_blocks_per_layer", "3"),
                ("max_blocks_per_layer", 2.5),
            )
        ),
        *(
            pytest.param({name: value}, f"{name} must be a finite number",
                         id=f"{name}={value!r}")
            for name, value in (
                ("sa_alpha", "x"),
                ("sa_alpha", math.nan),
                ("sa_alpha", True),
                ("sa_cooling_rate", "0.9"),
                ("sa_initial_temperature", math.inf),
                ("sa_min_temperature", None),
                ("total_power", "5"),
                ("total_power", math.nan),
            )
        ),
    ])
    def test_bad_search_schedule_rejected_at_construction(
        self, overrides, message
    ):
        """A schedule or population stage 1 or the EA would refuse
        fails when the config is built, not when the search launches."""
        with pytest.raises(ConfigurationError, match=message):
            SynthesisConfig(**overrides)
        with pytest.raises(ConfigurationError, match=message):
            SynthesisConfig.fast(**{"total_power": 2.0, **overrides})

    def test_sa_schedule_follows_the_sa_fields(self):
        config = SynthesisConfig.fast(total_power=2.0)
        schedule = config.sa_schedule
        assert (
            schedule.initial_temperature, schedule.min_temperature,
            schedule.cooling_rate, schedule.steps_per_temp,
        ) == (
            config.sa_initial_temperature, config.sa_min_temperature,
            config.sa_cooling_rate, config.sa_steps_per_temp,
        )

    def test_non_integer_jobs_rejected_early(self):
        """A bad jobs value must fail here, not deep inside
        multiprocessing.Pool at DSE time."""
        for bad in (2.5, "2", True, None):
            with pytest.raises(ConfigurationError):
                SynthesisConfig(jobs=bad)

    @pytest.mark.parametrize("switch", ["batch_eval", "grid_eval"])
    def test_removed_path_switches_rejected(self, switch):
        """Numpy alone picks the batched or scalar DSE paths; a config
        naming a removed switch fails instead of being ignored."""
        with pytest.raises(TypeError, match=switch):
            SynthesisConfig.fast(total_power=2.0, **{switch: False})

    def test_jobs_zero_means_all_cores(self):
        config = SynthesisConfig(jobs=0)
        assert config.resolved_jobs >= 1

    def test_fast_preset_overridable(self):
        config = SynthesisConfig.fast(
            total_power=9.0, xb_size_choices=(512,), seed=77
        )
        assert config.total_power == 9.0
        assert config.xb_size_choices == (512,)
        assert config.seed == 77

    def test_fast_preset_params_override(self):
        from repro.hardware.params import HardwareParams

        custom = HardwareParams(crossbar_latency=50e-9)
        config = SynthesisConfig.fast(total_power=2.0, params=custom)
        assert config.params.crossbar_latency == 50e-9

    def test_fast_smaller_than_full(self):
        fast = SynthesisConfig.fast()
        full = SynthesisConfig()
        fast_points = (
            len(fast.ratio_rram_choices) * len(fast.res_rram_choices)
            * len(fast.xb_size_choices)
        )
        full_points = (
            len(full.ratio_rram_choices) * len(full.res_rram_choices)
            * len(full.xb_size_choices)
        )
        assert fast_points < full_points
        assert fast.num_wtdup_candidates < full.num_wtdup_candidates
