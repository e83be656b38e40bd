"""Engine table + compiled-wheel exactness suite.

Every cycle engine must reproduce the python oracle ``==``-exactly —
start/finish cycles, retire order, per-cause stall attribution, fault
draws, busy accounting, and the byte-identical report JSON. This
module pins that contract zoo-wide, pins the structure-of-arrays
lowering against the object lowering table for table, and holds the
engine lookup to its fail-fast behavior.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pimsyn, SynthesisConfig
from repro.core.design_space import DesignSpace
from repro.errors import ConfigurationError, SimulationError
from repro.nn import zoo
from repro.sim.cycle import (
    CycleSimulator,
    available_engines,
    clear_route_cache,
    engine_status,
    get_engine,
    lower_arrays,
    program_to_arrays,
    resolve_engine_name,
    route_cache_stats,
)
from repro.sim.cycle.kernel import (
    KLASS_NAMES,
    LoweredProgram,
    draw_attempts,
    wheel_heapq,
)
from repro.sim.cycle.machine import MAX_ATTEMPTS, fault_draw
from repro.sim.cycle.uops import lower_dag

#: Engines exercised by the exactness matrix (oracle included — it
#: must trivially match itself, which catches result-assembly drift).
ENGINES = tuple(available_engines())


def _engine_or_skip(name: str):
    try:
        return get_engine(name)
    except ConfigurationError as exc:
        pytest.skip(str(exc))


_SOLUTIONS = {}


def _solution(name: str):
    if name not in _SOLUTIONS:
        model = zoo.by_name(name)
        probe = SynthesisConfig.fast()
        power = DesignSpace(model, probe).minimum_feasible_power(
            margin=2.0
        )
        config = SynthesisConfig.fast(total_power=power, seed=7)
        _SOLUTIONS[name] = Pimsyn(model, config).synthesize()
    return _SOLUTIONS[name]


# ----------------------------------------------------------------------
# SoA lowering differential: lower_arrays == program_to_arrays∘lower_dag
# ----------------------------------------------------------------------
_TABLES = (
    "n", "cycles", "layer", "klass_id", "is_execute", "faultable",
    "first_unit_link", "npreds", "succ_off", "succ", "unit_off",
    "unit_ids", "unit_kinds", "unit_capacity", "slot_off", "num_units",
    "num_slots", "num_layers",
)


class TestLoweringDifferential:
    @pytest.mark.parametrize("name", ["lenet5", "alexnet_cifar"])
    def test_direct_lowering_matches_object_lowering(self, name):
        solution = _solution(name)
        simulator = solution.cycle_simulator()
        dag = simulator.build_dag()
        model = simulator.latency_model
        direct = lower_arrays(dag, model)
        via_objects = program_to_arrays(lower_dag(dag, model))
        for table in _TABLES:
            assert getattr(direct, table) == getattr(
                via_objects, table
            ), table
        assert direct.clock.cycle_time == (
            via_objects.clock.cycle_time
        )
        assert [n.node_id for n in direct.nodes] == [
            n.node_id for n in via_objects.nodes
        ]

    def test_lowering_reused_across_replays(self):
        solution = _solution("lenet5")
        simulator = solution.cycle_simulator(engine="numpy")
        first = simulator.run()
        again = simulator.replay(fault_rate=0.05)
        assert first.prepared is again.prepared
        assert first.prepared.lowered is again.prepared.lowered

    def test_prepared_context_shared_across_simulators(self):
        solution = _solution("lenet5")
        a = solution.cycle_simulator(engine="python")
        b = solution.cycle_simulator(engine="numpy")
        assert a.prepare() is b.prepare()


# ----------------------------------------------------------------------
# Per-engine cycle-exactness vs the oracle, zoo-wide
# ----------------------------------------------------------------------
class TestEngineExactness:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", zoo.available_models())
    def test_machine_result_equals_oracle(self, name, engine):
        _engine_or_skip(engine)
        solution = _solution(name)
        oracle = solution.cycle_simulator(engine="python").run()
        result = solution.cycle_simulator(engine=engine).run()
        assert result.machine.retire_order == (
            oracle.machine.retire_order
        )
        assert result.machine.stall_cycles == (
            oracle.machine.stall_cycles
        )
        assert result.machine == oracle.machine

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ["lenet5", "vgg8"])
    def test_report_json_byte_identical(self, name, engine):
        _engine_or_skip(engine)
        solution = _solution(name)
        payloads = [
            json.dumps(
                solution.cycle_simulator(engine=e).run()
                .report.to_payload(),
                sort_keys=True,
            )
            for e in ("python", engine)
        ]
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("rate", [0.01, 0.2])
    def test_faulty_replay_equals_oracle(self, engine, rate):
        _engine_or_skip(engine)
        solution = _solution("lenet5")
        oracle = solution.cycle_simulator(
            engine="python", fault_rate=rate, fault_seed=11
        ).run()
        result = solution.cycle_simulator(
            engine=engine, fault_rate=rate, fault_seed=11
        ).run()
        assert result.machine == oracle.machine

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cross_validate_agrees_per_engine(self, engine):
        _engine_or_skip(engine)
        report = _solution("lenet5").cross_validate(engine=engine)
        assert report.ok


# ----------------------------------------------------------------------
# Property tests (small direct triple — fast enough for hypothesis)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_lowered():
    solution = _solution("lenet5")
    simulator = solution.cycle_simulator()
    return simulator.prepare().lowered


def _run_outputs(lowered: LoweredProgram, attempts):
    out = wheel_heapq(lowered, attempts)
    assert out[-1] == 0
    return out[:-1]


class TestEngineProperties:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_succ_permutation_invariance(self, tiny_lowered, seed):
        """Shuffling each uop's successor list never changes results.

        Releases at equal keys land in different heap-push order, but
        the pop sequence is fixed by the unique ``(cycle, uid)`` keys.
        """
        lowered = tiny_lowered
        rng = random.Random(seed)
        succ = list(lowered.succ)
        for uid in range(lowered.n):
            lo, hi = lowered.succ_off[uid], lowered.succ_off[uid + 1]
            row = succ[lo:hi]
            rng.shuffle(row)
            succ[lo:hi] = row
        shuffled = copy.copy(lowered)
        shuffled.succ = succ
        attempts = [1] * lowered.n
        assert _run_outputs(shuffled, attempts) == _run_outputs(
            lowered, attempts
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        low=st.floats(0.0, 0.4),
        delta=st.floats(0.0, 0.5),
    )
    def test_fault_attempts_monotone_in_rate(
        self, tiny_lowered, seed, low, delta
    ):
        lower = draw_attempts(tiny_lowered, low, seed)
        higher = draw_attempts(tiny_lowered, low + delta, seed)
        assert all(a <= b for a, b in zip(lower, higher))

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.floats(0.0, 0.9),
    )
    def test_vectorized_draws_equal_scalar_oracle(
        self, tiny_lowered, seed, rate
    ):
        drawn = draw_attempts(tiny_lowered, rate, seed)
        for uid in range(tiny_lowered.n):
            expected = 1
            if rate > 0.0 and tiny_lowered.faultable[uid]:
                while (
                    fault_draw(seed, uid, expected) < rate
                    and expected < MAX_ATTEMPTS
                ):
                    expected += 1
            assert drawn[uid] == expected

    @pytest.mark.parametrize("engine", ENGINES)
    def test_seed_determinism_byte_for_byte(self, engine):
        _engine_or_skip(engine)
        solution = _solution("lenet5")
        blobs = [
            json.dumps(
                solution.cycle_simulator(
                    engine=engine, fault_rate=0.1, fault_seed=42
                ).run().report.to_payload(),
                sort_keys=True,
            ).encode()
            for _ in range(2)
        ]
        assert blobs[0] == blobs[1]

    def test_invalid_fault_rate_rejected(self, tiny_lowered):
        with pytest.raises(SimulationError, match=r"fault_rate"):
            draw_attempts(tiny_lowered, 1.0, 0)


# ----------------------------------------------------------------------
# Route memoization (uops satellite)
# ----------------------------------------------------------------------
class TestRouteCache:
    def test_relowering_hits_the_route_cache(self):
        solution = _solution("vgg8")
        simulator = solution.cycle_simulator()
        model = simulator.latency_model
        dag = simulator.build_dag()
        clear_route_cache()
        lower_arrays(dag, model)
        first = route_cache_stats()
        assert first["misses"] > 0
        lower_arrays(dag, model)
        second = route_cache_stats()
        assert second["misses"] == first["misses"]
        assert second["hits"] > first["hits"]


# ----------------------------------------------------------------------
# Engine table contract
# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_unknown_engine_is_actionable(self):
        with pytest.raises(
            ConfigurationError, match=r"unknown cycle engine"
        ):
            get_engine("no-such-wheel")

    def test_unavailable_engine_is_actionable(self):
        status = {name: ok for name, ok, _ in engine_status()}
        if status["numba"]:
            pytest.skip("numba installed here; nothing is unavailable")
        with pytest.raises(
            ConfigurationError,
            match=r"cycle engine 'numba' is unavailable: numba is not "
                  r"importable",
        ):
            get_engine("numba")

    def test_auto_resolves_to_an_available_builtin(self):
        name = resolve_engine_name("auto")
        assert name in ENGINES
        assert get_engine(name).available()

    def test_engine_table_is_fixed(self):
        assert available_engines() == ["python", "numpy", "numba"]

    def test_status_covers_all_builtins(self):
        rows = {name: (ok, note) for name, ok, note in engine_status()}
        for name in ENGINES:
            assert name in rows
            ok, note = rows[name]
            assert note  # description or an actionable reason
        assert rows["python"][0] is True

    def test_config_validates_sim_engine(self):
        """The event wheel is no config field: naming it fails like
        any unknown keyword."""
        for build in (SynthesisConfig, SynthesisConfig.fast):
            with pytest.raises(TypeError, match="sim_engine"):
                build(sim_engine="python")

    def test_sim_engine_is_execution_only(self):
        """``sim_engine`` only reports the wheel ``auto`` resolves to:
        no field, so no content key sees it, and nothing sets it."""
        config = SynthesisConfig.fast(total_power=2.0)
        assert config.sim_engine == resolve_engine_name("auto")
        assert SynthesisConfig().sim_engine == resolve_engine_name("auto")
        assert "sim_engine" not in {
            f.name for f in dataclasses.fields(SynthesisConfig)
        }
        with pytest.raises(AttributeError):
            config.sim_engine = "python"

    def test_synthesis_never_loads_the_cycle_simulator(self):
        """Building configs and synthesizing leave ``repro.sim`` out of
        a fresh interpreter; only a replay loads it."""
        script = (
            "import sys\n"
            "from repro.core import Pimsyn, SynthesisConfig\n"
            "from repro.nn import lenet5\n"
            "Pimsyn(lenet5(), SynthesisConfig.fast(total_power=2.0))"
            ".synthesize()\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] == ['repro', 'sim']))\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
