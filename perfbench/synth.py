"""synth-vgg16 / synth-resnet18: cold ``Pimsyn.synthesize()`` runs.

Main operation: one synthesize() with the default ``SynthesisConfig``
(``jobs=1``, so every call runs in one process). An untraced run times
syntheses in one lane per CPU (see ``common.LEAST_PER_LANE``) and
reports the median calibrated time. Each winner is reloaded through
``solution_from_payload``, the integrity-checked path a saved design
ships through.
"""

from __future__ import annotations

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
    executor_extras,
    largest_layer,
    layer_metrics,
    overhead_extras,
    traced_pair,
)

#: Winner (img/s, TOPS/W) at ``DESIGN_SEED`` on the commit that added
#: this benchmark; a differing design is reported, not failed.
REFERENCE = {
    "vgg16_cifar": (39062.5, 0.6201),
    "resnet18_cifar": (26151.4, 0.4919),
}


def problem(model_name: str, power: float):
    from repro.core import SynthesisConfig
    from repro.nn import zoo

    model = zoo.by_name(model_name)
    return model, SynthesisConfig(total_power=power, seed=DESIGN_SEED)


def synthesize_loop(model_name: str, power: float, seconds: float,
                    least: int) -> dict:
    """synthesize() until ``seconds`` have passed and ``least``
    syntheses ran. One synthesis fails when its payload differs from
    the first one's or its winner does not reload within the budget."""
    from repro.core import Pimsyn
    from repro.core.persistence import solution_from_payload

    model, config = problem(model_name, power)
    ledger = Ledger()
    synths: List[float] = []
    scaled: List[float] = []
    reports: List[dict] = []
    first = payload = None
    rss = 0.0
    started = time.perf_counter()
    with CpuSpeed() as speed:
        while (len(synths) < least
               or time.perf_counter() - started < seconds):
            synthesizer = Pimsyn(model, config)
            t0 = time.perf_counter()
            solution = synthesizer.synthesize()
            t1 = time.perf_counter()
            synths.append(t1 - t0)
            scaled.append(speed.calibrated(t0, t1))
            rss = rss or peak_rss_mb()  # one synthesis, however many run
            payload = solution.to_payload()
            key = digest(payload)
            first = first or key
            report = synthesizer.report
            reports.append({
                "ea_runs": report.ea_runs,
                "pruned_tasks": report.pruned_tasks,
                "cache_hits": report.cache_hits,
                "ea_evaluations": report.ea_evaluations,
            })
            try:
                reloaded = solution_from_payload(payload, model)
            except Exception as exc:  # the integrity check failed
                ledger.check(False, f"winner reload failed: {exc}")
                continue
            ledger.check(
                key == first
                and reloaded.evaluation.power <= config.total_power,
                "synthesize() payloads differ between runs of one seed, "
                "or the reloaded winner exceeds the power budget",
            )
    return {"synths": synths, "scaled": scaled, "rss": rss,
            "reports": reports, "payload": payload, "digest": first,
            "ledger": ledger}


class Synth:
    def __init__(self, workload: str, model_name: str, power: float
                 ) -> None:
        self.workload = workload
        self.model_name = model_name
        self.power = power

    def setup_only(self, _seed: int) -> str:
        problem(self.model_name, self.power)
        return ""

    def lane(self, args: dict) -> dict:
        run = synthesize_loop(self.model_name, self.power, args["seconds"],
                              LEAST_PER_LANE)
        return {**run, "ledger": run["ledger"].to_payload()}

    def run(self, seed: int, seconds: float, trace: bool
            ) -> Tuple[Ledger, Dict[str, Tuple[float, str]]]:
        if trace:
            return self._traced(seconds)
        setups, _ = timed_setups(self.workload, seed)
        lanes = run_lanes(self.workload, {"seconds": seconds})
        ledger = Ledger()
        for lane in lanes:
            ledger.merge(Ledger.from_payload(lane["ledger"]))
        if len({lane["digest"] for lane in lanes}) != 1:
            ledger.fail_run("lanes synthesized different designs")
        synths = [s for lane in lanes for s in lane["synths"]]
        scaled = [s for lane in lanes for s in lane["scaled"]]
        self._describe(lanes[0], synths)
        note(f"calibrated synth_s {median(scaled):.4f} s")
        return ledger, {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (max(lane["rss"] for lane in lanes), "MB"),
            "main_ms": (median(scaled) * 1e3, "ms"),
        }

    def _describe(self, run: dict, synths: List[float]) -> None:
        payload = run["payload"]
        metrics = payload["metrics"]
        thr, tpw = metrics["throughput_img_s"], metrics["tops_per_watt"]
        ref_thr, ref_tpw = REFERENCE[self.model_name]
        note(f"design {self.model_name} @ {self.power:g} W, seed "
             f"{DESIGN_SEED}: digest {run['digest'][:16]}, "
             f"{len(payload['wt_dup'])} layers, "
             f"{payload['num_macros']} macros")
        note("reference design: " + (
            "match" if round(thr, 1) == ref_thr and round(tpw, 4) == ref_tpw
            else f"differs (reference {ref_thr} img/s, {ref_tpw} TOPS/W)"
        ))
        note(f"synth_s {median(synths):.4f} s (median of {len(synths)}, "
             f"best {min(synths):.4f} s)")
        note(f"design_img_per_s {thr:.1f} img/s")
        note(f"design_tops_per_watt {tpw:.4f} TOPS/W")

    def _traced(self, seconds: float
                ) -> Tuple[Ledger, Dict[str, float]]:
        plain, traced, stats, restored = traced_pair(
            synthesize_loop, self.model_name, self.power, seconds, 1
        )
        self._describe(plain, plain["synths"])
        ledger = plain["ledger"]
        ledger.merge(traced["ledger"])
        if not restored:
            ledger.fail_run("tracer left a wrapper installed")
        if traced["digest"] != plain["digest"]:
            ledger.fail_run("traced synthesize() payload differs")
        traced_ms = median(traced["synths"]) * 1e3
        values = layer_metrics(
            stats, len(traced["synths"]),
            {**executor_extras(traced["reports"]),
             **overhead_extras(traced_ms, median(plain["synths"]) * 1e3)},
        )
        self._stage_table(traced_ms / 1e3, values)
        note(f"largest layer: {largest_layer(values)}")
        return ledger, values

    def _stage_table(self, cold: float, values: Dict[str, float]) -> None:
        rows = [
            ("cold synth", cold),
            ("SA filter (stage 1)", values["weight_duplication.busy_s"]),
            ("EA explore", values["macro_partition.busy_s"]),
            ("  of which score_population", values["batch_eval.busy_s"]),
            ("grid bounds", values["grid_eval.busy_s"]),
        ]
        note(f"stage table: {self.model_name} @ {self.power:g} W, traced, "
             "seconds per synthesize()")
        for label, seconds in rows:
            share = 100.0 * seconds / cold if cold else 0.0
            note(f"  {label:<30} {seconds:8.3f} s {share:6.1f}%")
