"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public calls listed in ``PROBES`` with
wrappers that time or count each call; ``uninstall`` puts every
original object back and reports whether all of them are in place.
Nothing in ``src/`` changes. A timed call is a span on a per-thread
stack: its busy time counts only the outermost span of a key, and its
self time is its duration minus the spans nested directly inside it.
Very hot calls (``is_feasible`` runs ~115k times per synthesis) are
counted, never timed: timing them adds about 30% to a run.
"""

from __future__ import annotations

import copy
import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from common import median

PRELOAD = (
    "repro.cli", "repro.analysis", "repro.baselines", "repro.serve",
    "repro.core.persistence", "repro.core.refinement", "repro.sim.cycle",
)

#: (module, attribute path, key, mode, hook). ``mode`` is ``"time"``
#: (span), ``"count"`` (call count only) or ``"sample"`` (span that also
#: keeps every duration, for medians). ``hook`` names a helper below.
PROBES: List[Tuple[str, str, str, str, Optional[str]]] = [
    ("repro.core.synthesizer", "Pimsyn.synthesize", "synth", "sample", None),
    ("repro.core.weight_duplication",
     "WeightDuplicationFilter.top_candidates", "wd.filter", "time", None),
    ("repro.core.weight_duplication",
     "WeightDuplicationFilter.batch_energy", "wd.energy", "count", "len1"),
    ("repro.core.weight_duplication",
     "WeightDuplicationFilter.is_feasible", "wd.feasible", "count", None),
    ("repro.core.batch_eval",
     "BatchPerformanceEvaluator.evaluate_population", "batch_eval",
     "time", "len1"),
    ("repro.core.macro_partition", "MacroPartitionExplorer.explore",
     "macro_partition", "time", None),
    ("repro.core.macro_partition", "MacroPartitionExplorer.score",
     "evaluator", "time", None),
    ("repro.core.grid_eval", "GridBoundEvaluator.bounds_array",
     "grid_eval", "time", None),
    ("repro.core.dataflow", "make_spec", "dataflow", "time", None),
    ("repro.sim.cycle.simulator", "CycleSimulator.build_dag", "ir",
     "time", None),
    ("repro.sim.cycle.simulator", "CycleSimulator.run", "sim.run",
     "time", "cycle_result"),
    ("repro.sim.cycle.simulator", "CycleSimulator.replay", "sim.replay",
     "count", None),
    ("repro.sim.cycle.engine", "PythonEngine.run", "sim.wheel", "time",
     None),
    ("repro.sim.cycle.engine", "NumpyEngine.run", "sim.wheel", "time",
     None),
    ("repro.sim.cycle.engine", "NumbaEngine.run", "sim.wheel", "time",
     None),
    ("repro.sim.cycle.kernel", "lower_arrays", "sim.lower", "time", None),
    ("repro.sim.cycle.uops", "lower_dag", "sim.lower", "time", None),
    ("repro.serve.job", "JobRequest.content_key", "job.key", "sample",
     None),
    ("repro.serve.scheduler", "JobScheduler.submit", "scheduler.submit",
     "sample", "hit_or_miss"),
    ("repro.serve.store", "ResultStore.get", "store.get", "sample", None),
    ("repro.serve.store", "ResultStore.put", "store.put", "sample", None),
    ("repro.serve.store", "ResultStore.load_memo", "store.memo_load",
     "sample", None),
    ("repro.serve.store", "ResultStore.merge_memo", "store.memo_merge",
     "sample", None),
    ("repro.serve.store", "ResultStore.claim", "store.claim", "sample",
     None),
]


@dataclass
class Stat:
    """Everything recorded for one probe key."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    items: int = 0
    samples: Dict[str, List[float]] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    def reset(self) -> None:
        self.calls, self.busy, self.self_time, self.items = 0, 0.0, 0.0, 0
        self.samples.clear()
        self.extra.clear()

    def to_payload(self) -> dict:
        return {
            "calls": self.calls, "busy": self.busy,
            "self_time": self.self_time, "items": self.items,
            "samples": self.samples, "extra": self.extra,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Stat":
        return cls(**payload)


def _len1(args, _result, stat: Stat) -> None:
    stat.items += len(args[1])


def _cycle_result(_args, result, stat: Stat) -> None:
    report = result.report
    stat.extra["uops"] = stat.extra.get("uops", 0) + report.micro_ops
    stat.extra["cycles"] = (
        stat.extra.get("cycles", 0) + report.total_cycles
    )


def _hit_or_miss(record) -> str:
    return "hit" if record.done and record.source == "store" else "miss"


class Tracer:
    """Wraps ``PROBES`` in place and aggregates what they record."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        # (class or module, attribute, original object)
        self._patches: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, Callable] = {}  # kept alive: ids stay unique

    # -- recording -------------------------------------------------------
    def _stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def _wrap(self, fn: Callable, key: str, mode: str,
              hook: Optional[str]) -> Callable:
        stat = self._stat(key)
        lock = self._lock
        after = {"len1": _len1, "cycle_result": _cycle_result}.get(hook)
        if mode == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with lock:
                    stat.calls += 1
                    if after is not None:
                        after(args, None, stat)
                return fn(*args, **kwargs)

            return counted

        local = self._local
        keep = mode == "sample"
        bucket_of = _hit_or_miss if hook == "hit_or_miss" else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            outermost = all(frame[0] != key for frame in stack)
            frame = [key, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
            with lock:
                stat.calls += 1
                stat.self_time += elapsed - frame[1]
                if outermost:
                    stat.busy += elapsed
                if after is not None:
                    after(args, result, stat)
                if keep:
                    bucket = bucket_of(result) if bucket_of else "all"
                    stat.samples.setdefault(bucket, []).append(elapsed)
            return result

        return timed

    def reset(self) -> None:
        """Zero every statistic (wrappers hold their ``Stat``)."""
        with self._lock:
            for stat in self.stats.values():
                stat.reset()

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        # Modules that copy a probed function with ``from x import f``
        # must be loaded first, so the copies are found and rebound.
        for name in PRELOAD:
            importlib.import_module(name)
        for module_name, path, key, mode, hook in PROBES:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                targets = [getattr(module, owner_name)]
            else:
                attr = path
                targets = [
                    other for other in _program_modules()
                    if vars(other).get(attr) is getattr(module, attr)
                ]
            original = vars(targets[0])[attr]
            wrapper = self._wrap(original, key, mode, hook)
            self._wrappers[id(wrapper)] = wrapper
            for target in targets:
                setattr(target, attr, wrapper)
                self._patches.append((target, attr, original))

    def uninstall(self) -> bool:
        """Restore every original; True when no wrapper is left."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        restored = all(
            vars(target).get(attr) is original
            for target, attr, original in self._patches
        )
        self._patches = []
        leftover = any(
            id(value) in self._wrappers
            and self._wrappers[id(value)] is value
            for module in _program_modules()
            for value in _bound_values(module)
        )
        return restored and not leftover

    def snapshot(self) -> Dict[str, Stat]:
        with self._lock:
            return copy.deepcopy(self.stats)


def traced_pair(loop: Callable, *args
                ) -> Tuple[dict, dict, Dict[str, Stat], bool]:
    """``loop(*args)`` untraced, then again traced, in this process.

    Returns both results, the traced loop's statistics and whether
    every wrapped attribute was restored afterwards.
    """
    plain = loop(*args)
    tracer = Tracer()
    tracer.install()
    try:
        traced = loop(*args)
    finally:
        restored = tracer.uninstall()
    return plain, traced, tracer.snapshot(), restored


def _program_modules():
    return [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _bound_values(module):
    """Module-level values plus the attributes of its own classes."""
    for value in list(vars(module).values()):
        yield value
        if isinstance(value, type) and value.__module__ == module.__name__:
            yield from list(vars(value).values())


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Name -> (unit, better). Every traced run reports all of them; a
#: layer a workload never calls reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "weight_duplication.busy_s": ("s", "lower"),
    "weight_duplication.filters": ("count", "lower"),
    "weight_duplication.energy_calls": ("count", "lower"),
    "weight_duplication.energy_states": ("count", "lower"),
    "weight_duplication.feasible_calls": ("count", "lower"),
    "batch_eval.busy_s": ("s", "lower"),
    "batch_eval.calls": ("count", "lower"),
    "batch_eval.genes": ("count", "lower"),
    "batch_eval.us_per_gene": ("us", "lower"),
    "macro_partition.busy_s": ("s", "lower"),
    "macro_partition.launches": ("count", "lower"),
    "macro_partition.self_s": ("s", "lower"),
    "evaluator.busy_s": ("s", "lower"),
    "evaluator.calls": ("count", "lower"),
    "executor.ea_runs": ("count", "lower"),
    "executor.pruned_tasks": ("count", "higher"),
    "executor.prune_ratio": ("ratio", "higher"),
    "executor.memo_hit_ratio": ("ratio", "higher"),
    "grid_eval.busy_s": ("s", "lower"),
    "dataflow.busy_s": ("s", "lower"),
    "synthesizer.self_s": ("s", "lower"),
    "ir.busy_s": ("s", "lower"),
    "sim.lower_s": ("s", "lower"),
    "sim.wheel_s": ("s", "lower"),
    "sim.report_s": ("s", "lower"),
    "sim.lowerings": ("count", "lower"),
    "sim.replays": ("count", "lower"),
    "sim.uops": ("count", "lower"),
    "sim.cycles": ("count", "lower"),
    "sim.uops_per_s": ("1/s", "higher"),
    "api.self_ms": ("ms", "lower"),
    "job.key_ms": ("ms", "lower"),
    "job.key_calls": ("count", "lower"),
    "scheduler.submit_ms": ("ms", "lower"),
    "scheduler.submit_calls": ("count", "lower"),
    "scheduler.queue_wait_ms": ("ms", "lower"),
    "store.get_ms": ("ms", "lower"),
    "store.get_calls": ("count", "lower"),
    "store.put_ms": ("ms", "lower"),
    "store.put_calls": ("count", "lower"),
    "store.memo_load_ms": ("ms", "lower"),
    "store.memo_merge_ms": ("ms", "lower"),
    "store.claim_ms": ("ms", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "serve.synth_ms": ("ms", "lower"),
    "serve.synth_calls": ("count", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(
    stats: Dict[str, Stat],
    per: int,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer values from a trace.

    Busy times and counts are divided by ``per`` (the traced run's
    synthesize() calls or verify passes), so they compare with one
    operation; ``_ms`` values are medians over every call. ``extras``
    carries what the trace cannot see (report telemetry, client-side
    latencies, overhead) under its per-layer names.
    """
    per = max(per, 1)
    empty = Stat()

    def get(key: str) -> Stat:
        return stats.get(key, empty)

    def med_ms(key: str, bucket: str = "all") -> float:
        return median(get(key).samples.get(bucket, [])) * 1e3

    genes = get("batch_eval").items
    wheel_self = get("sim.wheel").self_time
    uops = get("sim.run").extra.get("uops", 0)
    values = {
        "weight_duplication.busy_s": get("wd.filter").busy / per,
        "weight_duplication.filters": get("wd.filter").calls / per,
        "weight_duplication.energy_calls": get("wd.energy").calls / per,
        "weight_duplication.energy_states": get("wd.energy").items / per,
        "weight_duplication.feasible_calls": get("wd.feasible").calls / per,
        "batch_eval.busy_s": get("batch_eval").busy / per,
        "batch_eval.calls": get("batch_eval").calls / per,
        "batch_eval.genes": genes / per,
        "batch_eval.us_per_gene": (
            get("batch_eval").busy / genes * 1e6 if genes else 0.0
        ),
        "macro_partition.busy_s": get("macro_partition").busy / per,
        "macro_partition.launches": get("macro_partition").calls / per,
        "macro_partition.self_s": get("macro_partition").self_time / per,
        "evaluator.busy_s": get("evaluator").busy / per,
        "evaluator.calls": get("evaluator").calls / per,
        "grid_eval.busy_s": get("grid_eval").busy / per,
        "dataflow.busy_s": get("dataflow").busy / per,
        "synthesizer.self_s": get("synth").self_time / per,
        "ir.busy_s": get("ir").busy / per,
        "sim.lower_s": get("sim.lower").busy / per,
        "sim.wheel_s": wheel_self / per,
        "sim.report_s": get("sim.run").self_time / per,
        "sim.lowerings": get("sim.lower").calls / per,
        "sim.replays": get("sim.replay").calls / per,
        "sim.uops": uops / per,
        "sim.cycles": get("sim.run").extra.get("cycles", 0) / per,
        "sim.uops_per_s": uops / wheel_self if wheel_self else 0.0,
        "job.key_ms": med_ms("job.key"),
        "job.key_calls": get("job.key").calls,
        "scheduler.submit_ms": med_ms("scheduler.submit", "hit"),
        "scheduler.submit_calls": get("scheduler.submit").calls,
        "store.get_ms": med_ms("store.get"),
        "store.get_calls": get("store.get").calls,
        "store.put_ms": med_ms("store.put"),
        "store.put_calls": get("store.put").calls,
        "store.memo_load_ms": med_ms("store.memo_load"),
        "store.memo_merge_ms": med_ms("store.memo_merge"),
        "store.claim_ms": med_ms("store.claim"),
    }
    for name in PER_LAYER:
        values.setdefault(name, 0.0)
    values.update(extras)
    return values


def executor_extras(reports: List[dict]) -> Dict[str, float]:
    """``executor.*`` per synthesis from ``SynthesisReport`` fields."""
    count = max(len(reports), 1)
    ea_runs = sum(r["ea_runs"] for r in reports)
    pruned = sum(r["pruned_tasks"] for r in reports)
    hits = sum(r["cache_hits"] for r in reports)
    evaluations = sum(r["ea_evaluations"] for r in reports)
    return {
        "executor.ea_runs": ea_runs / count,
        "executor.pruned_tasks": pruned / count,
        "executor.prune_ratio": (
            pruned / (pruned + ea_runs) if pruned + ea_runs else 0.0
        ),
        "executor.memo_hit_ratio": (
            hits / (hits + evaluations) if hits + evaluations else 0.0
        ),
    }


def overhead_extras(traced_ms: float, untraced_ms: float
                    ) -> Dict[str, float]:
    delta = traced_ms - untraced_ms
    return {
        "trace.overhead_ms": delta,
        "trace.overhead_pct": (
            100.0 * delta / untraced_ms if untraced_ms else 0.0
        ),
    }


def largest_layer(values: Dict[str, float]) -> str:
    """The busiest timed layer among the top-level spans."""
    busy = {
        name: values[name] for name in (
            "weight_duplication.busy_s", "batch_eval.busy_s",
            "macro_partition.self_s", "evaluator.busy_s",
            "grid_eval.busy_s", "dataflow.busy_s", "synthesizer.self_s",
            "ir.busy_s", "sim.lower_s", "sim.wheel_s", "sim.report_s",
        )
    }
    return max(busy, key=busy.get)
