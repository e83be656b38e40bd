"""verify-zoo: cycle-level verification of one design per zoo model.

Set-up synthesizes the designs (fast preset, 2x each model's
feasibility floor, ``DESIGN_SEED``). Main operation: one pass, which
re-loads every design as fresh objects through
``solution_from_payload`` (so no lowering is cached between passes),
cross-validates it against the analytical model (DAG build, lowering,
event wheel) and replays it at two fault rates (the wheel alone, on
the cached lowering). An untraced run times passes in one lane per CPU
(see ``common.LEAST_PER_LANE``) and reports the median calibrated
time. The workload
seed sets the pass order and each design's fault seed.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List, Tuple

from common import (
    DESIGN_SEED,
    LEAST_PER_LANE,
    CpuSpeed,
    Ledger,
    digest,
    median,
    note,
    peak_rss_mb,
    run_lanes,
    timed_setups,
)
from tracing import (
    largest_layer,
    layer_metrics,
    overhead_extras,
    traced_pair,
)

FAULT_RATES = (0.01, 0.05)


def synthesize_designs() -> Dict[str, dict]:
    from repro.core import Pimsyn, SynthesisConfig
    from repro.core.design_space import DesignSpace
    from repro.nn import zoo

    designs = {}
    for name in zoo.available_models():
        model = zoo.by_name(name)
        power = DesignSpace(
            model, SynthesisConfig.fast()
        ).minimum_feasible_power(margin=2.0)
        config = SynthesisConfig.fast(total_power=power, seed=DESIGN_SEED)
        designs[name] = Pimsyn(model, config).synthesize().to_payload()
    return designs


def verify_loop(designs: Dict[str, dict], seed: int, seconds: float,
                least: int) -> dict:
    """Verify passes until ``seconds`` have passed and ``least`` ran."""
    from repro.core.persistence import solution_from_payload
    from repro.nn import zoo

    models = {name: zoo.by_name(name) for name in designs}
    ledger = Ledger()
    rng = random.Random(f"verify-zoo:{seed}")
    order = sorted(designs)
    fault_seeds = {name: rng.randrange(1, 2**31) for name in order}
    passes: List[float] = []
    scaled: List[float] = []
    outputs: Dict[str, str] = {}
    max_dev = 0.0
    rss = 0.0
    def verify(name: str) -> None:
        nonlocal max_dev
        solution = solution_from_payload(designs[name], models[name])
        report = solution.cross_validate()
        ledger.check(
            report.ok,
            f"{name}: deviation {report.max_deviation:.3f} beyond "
            f"tolerance {report.tolerance}",
        )
        max_dev = max(max_dev, report.max_deviation)
        simulator = solution.cycle_simulator(fault_seed=fault_seeds[name])
        faults = []
        for rate in FAULT_RATES:
            result = simulator.replay(rate)
            faults.append(result.machine.faults_injected)
        ledger.check(
            faults == sorted(faults),
            f"{name}: injected faults fell as the rate rose",
        )
        outputs.setdefault(name, digest([report.to_payload(), faults]))

    started = time.perf_counter()
    with CpuSpeed() as speed:
        while (len(passes) < least
               or time.perf_counter() - started < seconds):
            rng.shuffle(order)
            t0 = time.perf_counter()
            for name in order:
                verify(name)
            t1 = time.perf_counter()
            passes.append(t1 - t0)
            scaled.append(speed.calibrated(t0, t1))
            rss = rss or peak_rss_mb()  # one pass, however many run
    return {"passes": passes, "scaled": scaled, "rss": rss,
            "outputs": outputs, "max_dev": max_dev, "ledger": ledger}


class VerifyZoo:
    workload = "verify-zoo"

    def setup_only(self, _seed: int) -> str:
        return json.dumps(synthesize_designs(), sort_keys=True)

    def lane(self, args: dict) -> dict:
        run = verify_loop(args["designs"], args["seed"], args["seconds"],
                          LEAST_PER_LANE)
        return {**run, "ledger": run["ledger"].to_payload()}

    def run(self, seed: int, seconds: float, trace: bool
            ) -> Tuple[Ledger, Dict[str, Tuple[float, str]]]:
        if trace:
            return self._traced(synthesize_designs(), seed, seconds)
        setups, datas = timed_setups(self.workload, seed)
        lanes = run_lanes(self.workload, {
            "designs": json.loads(datas[-1]), "seed": seed,
            "seconds": seconds,
        })
        ledger = Ledger()
        for lane in lanes:
            ledger.merge(Ledger.from_payload(lane["ledger"]))
        if len(set(datas)) != 1:
            ledger.fail_run("set-up designs differ between processes")
        if any(lane["outputs"] != lanes[0]["outputs"] for lane in lanes):
            ledger.fail_run("lanes' verify outputs differ")
        passes = [p for lane in lanes for p in lane["passes"]]
        scaled = [s for lane in lanes for s in lane["scaled"]]
        self._describe(lanes[0], passes)
        note(f"calibrated verify_s {median(scaled):.4f} s")
        return ledger, {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (max(lane["rss"] for lane in lanes), "MB"),
            "main_ms": (median(scaled) * 1e3, "ms"),
        }

    def _describe(self, run: dict, passes: List[float]) -> None:
        note(f"{len(run['outputs'])} designs, seed {DESIGN_SEED}, fault "
             f"rates {FAULT_RATES}: digest {digest(run['outputs'])[:16]}")
        note(f"verify_s {median(passes):.4f} s (median of {len(passes)} "
             f"passes, best {min(passes):.4f} s)")
        note(f"sim_max_deviation {run['max_dev']:.6f} ratio")

    def _traced(self, designs: Dict[str, dict], seed: int, seconds: float
                ) -> Tuple[Ledger, Dict[str, float]]:
        plain, traced, stats, restored = traced_pair(
            verify_loop, designs, seed, seconds, 1
        )
        self._describe(plain, plain["passes"])
        ledger = plain["ledger"]
        ledger.merge(traced["ledger"])
        if not restored:
            ledger.fail_run("tracer left a wrapper installed")
        if traced["outputs"] != plain["outputs"]:
            ledger.fail_run("traced pass outputs differ from untraced")
        traced_ms = median(traced["passes"]) * 1e3
        values = layer_metrics(
            stats, len(traced["passes"]),
            overhead_extras(traced_ms, median(plain["passes"]) * 1e3),
        )
        note(f"largest layer: {largest_layer(values)}")
        return ledger, values
