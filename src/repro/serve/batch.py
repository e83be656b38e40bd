"""Batch manifests: declarative (model x power x config) grids.

A manifest is a YAML or JSON document describing a sweep::

    # sweep.yaml
    models: [lenet5, alexnet_cifar]
    powers: [2.0, 4.0, 8.0]
    configs:                  # optional, default [{}]
      - {}
      - {enable_macro_sharing: false}
    preset: fast
    seed: 2024
    jobs:                     # optional explicit extra jobs
      - {model: vgg16_cifar, power: 12.0, priority: 5}

The grid expands to ``models x powers x configs`` plus the explicit
``jobs`` list; entries that hash to the same content key are submitted
once (the scheduler and the shared store deduplicate the rest — a
manifest overlapping a previous batch re-runs nothing).

YAML needs PyYAML; when it is unavailable the loader degrades to JSON
with a clear error instead of an ImportError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.analysis import format_table
from repro.errors import ConfigurationError
from repro.serve.job import JobRecord, JobRequest
from repro.serve.scheduler import JobScheduler
from repro.serve.store import ResultStore


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a manifest document from disk (YAML by extension, else JSON)."""
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except FileNotFoundError as exc:
        raise ConfigurationError(f"manifest not found: {path}") from exc
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read manifest {path}: {exc.strerror}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"cannot read manifest {path}: not UTF-8 text"
        ) from exc
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:
            raise ConfigurationError(
                "YAML manifest needs PyYAML, which is not installed; "
                "convert the manifest to JSON"
            ) from exc
        document = yaml.safe_load(text)
    else:
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"manifest {path} is not valid JSON: {exc}"
            ) from exc
    if not isinstance(document, Mapping):
        raise ConfigurationError("manifest must be a mapping")
    return dict(document)


def expand_manifest(document: Mapping[str, Any]) -> List[JobRequest]:
    """The manifest's full job list (grid product + explicit jobs)."""
    known = {"models", "powers", "configs", "preset", "seed",
             "priority", "jobs"}
    unknown = set(document) - known
    if unknown:
        raise ConfigurationError(
            f"unknown manifest fields {sorted(unknown)}; "
            f"valid: {sorted(known)}"
        )
    def _as_list(field_name):
        value = document.get(field_name, [])
        # A scalar string would iterate character-by-character; a
        # bare mapping would iterate its keys. Demand a real list.
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(
                f"manifest '{field_name}' must be a list, got "
                f"{value!r}"
            )
        return list(value)

    models = _as_list("models")
    powers = _as_list("powers")
    configs = _as_list("configs") if "configs" in document else [{}]
    explicit = _as_list("jobs")
    if not (models and powers) and not explicit:
        raise ConfigurationError(
            "manifest needs 'models' and 'powers' (grid mode) "
            "and/or a 'jobs' list"
        )
    preset = str(document.get("preset", "fast"))
    try:
        seed = int(document.get("seed", 2024))
        priority = int(document.get("priority", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            "manifest 'seed' and 'priority' must be integers"
        ) from exc

    requests: List[JobRequest] = []
    for model in models:
        for power in powers:
            for overrides in configs:
                if not isinstance(overrides, Mapping):
                    raise ConfigurationError(
                        f"manifest config entry {overrides!r} must be "
                        "a mapping"
                    )
                requests.append(JobRequest.from_payload({
                    "model": model,
                    "power": power,
                    "preset": preset,
                    "seed": seed,
                    "priority": priority,
                    "config": dict(overrides),
                }))
    for entry in explicit:
        payload = dict(entry)
        payload.setdefault("preset", preset)
        payload.setdefault("seed", seed)
        payload.setdefault("priority", priority)
        requests.append(JobRequest.from_payload(payload))
    return requests


@dataclass
class BatchRow:
    """One manifest job's outcome, flattened for reporting."""

    model: str
    total_power: float
    key: str
    state: str
    source: Optional[str]
    throughput: Optional[float]
    tops_per_watt: Optional[float]
    error: Optional[str]

    @classmethod
    def from_record(cls, record: JobRecord) -> "BatchRow":
        metrics = record.metrics or {}
        return cls(
            model=record.request.model_name,
            total_power=record.request.total_power,
            key=record.key,
            state=record.state,
            source=record.source,
            throughput=metrics.get("throughput_img_s"),
            tops_per_watt=metrics.get("tops_per_watt"),
            error=record.error,
        )


@dataclass
class BatchReport:
    """Everything a batch run produced, plus dedup/cache accounting."""

    rows: List[BatchRow] = field(default_factory=list)
    requested: int = 0
    unique: int = 0
    executed: int = 0
    store_hits: int = 0
    failures: int = 0
    wall_seconds: float = 0.0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "requested": self.requested,
            "unique": self.unique,
            "executed": self.executed,
            "store_hits": self.store_hits,
            "failures": self.failures,
            "wall_seconds": self.wall_seconds,
            "rows": [vars(row).copy() for row in self.rows],
        }

    def to_table(self) -> str:
        table = [
            (
                row.model,
                f"{row.total_power:.2f}",
                row.key[:12],
                row.state + (f" ({row.source})" if row.source else ""),
                "-" if row.throughput is None
                else f"{row.throughput:.1f}",
                "-" if row.tops_per_watt is None
                else f"{row.tops_per_watt:.4f}",
            )
            for row in self.rows
        ]
        return format_table(
            ["model", "power (W)", "key", "state", "img/s", "TOPS/W"],
            table,
            title=(
                f"batch: {self.requested} jobs "
                f"({self.unique} unique, {self.executed} computed, "
                f"{self.store_hits} store hits, "
                f"{self.failures} failed) in {self.wall_seconds:.2f} s"
            ),
        )


def run_batch(
    document: Mapping[str, Any],
    store: ResultStore,
    workers: int = 1,
    synth_jobs: int = 1,
    progress=None,
) -> BatchReport:
    """Execute a manifest against a store; returns the batch report.

    Jobs sharing a content key are submitted once; everything else the
    shared store deduplicates (previous batches, concurrent
    schedulers). The report keeps one row per *requested* job so grid
    positions stay visible even when deduplicated.
    """
    import time

    requests = expand_manifest(document)
    started = time.perf_counter()
    report = BatchReport(requested=len(requests))

    scheduler = JobScheduler(
        store, workers=workers, synth_jobs=synth_jobs, name="batch"
    )
    try:
        records: List[JobRecord] = []
        seen: Dict[str, JobRecord] = {}
        for request in requests:
            key = request.content_key()
            record = seen.get(key)
            if record is None:
                record = scheduler.submit(request)
                seen[key] = record
                if progress is not None:
                    progress(
                        f"submitted {request.model_name} @ "
                        f"{request.total_power} W -> {key[:12]}"
                    )
            records.append(record)
        report.unique = len(seen)
        scheduler.drain()
    except KeyboardInterrupt:
        # Prompt exit: fail what is still queued and leave in-flight
        # daemon workers to die with the process. Their claims go
        # stale and are broken by the next run; finished results are
        # already safe in the store.
        scheduler.shutdown(wait=False)
        raise
    else:
        scheduler.shutdown(wait=True)
    report.executed = scheduler.executed
    report.store_hits = scheduler.store_hits
    report.failures = scheduler.failures

    report.rows = [BatchRow.from_record(r) for r in records]
    report.wall_seconds = time.perf_counter() - started
    return report


def run_batch_file(
    path: Union[str, Path],
    store: ResultStore,
    workers: int = 1,
    synth_jobs: int = 1,
    progress=None,
) -> BatchReport:
    """``run_batch`` over a manifest file path."""
    return run_batch(
        load_manifest(path), store,
        workers=workers, synth_jobs=synth_jobs, progress=progress,
    )
