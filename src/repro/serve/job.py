"""The synthesis service's job model.

A *job* is one synthesis request: a model (zoo name or inline JSON
document), a total power constraint, and the DSE configuration. Its
identity is a **content key** — a digest over the resolved model, the
hardware parameters and every result-affecting config field, built from
the same fingerprint scheme as the executor's evaluation memo
(:func:`repro.core.executor.model_fingerprint` /
:func:`~repro.core.executor.params_fingerprint` /
:func:`~repro.core.executor.config_fingerprint`). Execution-only knobs
(``jobs`` and pruning) are excluded by construction, so the same
request replayed with a different worker count maps to the same stored
result. The array engine of the batched DSE paths and the cycle
simulator's event wheel are no knobs at all (what imports picks them),
and neither is sharing the evaluation memo, so a request that names
``backend``, ``sim_engine`` or ``share_eval_cache`` is rejected as an
unknown override.

:class:`JobRecord` is the scheduler-side lifecycle object: state
machine (queued -> running -> done/failed), timestamps, store
provenance and a metrics summary for API responses.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.config import SynthesisConfig
from repro.core.executor import (
    config_fingerprint,
    model_fingerprint,
    params_fingerprint,
)
from repro.errors import ConfigurationError
from repro.nn import zoo
from repro.nn.model import CNNModel
from repro.nn.onnx_io import model_from_json

#: Config overrides a request may carry — every SynthesisConfig field
#: except the ones a request expresses directly (``total_power``,
#: ``seed``), the hardware params object (not JSON-expressible in
#: requests yet), and ``jobs``, which the *scheduler* owns: a request
#: cannot dictate the service's process fan-out, and silently ignoring
#: it would be worse than rejecting it.
_ALLOWED_OVERRIDES = frozenset(
    f.name for f in fields(SynthesisConfig)
    if f.name not in ("total_power", "params", "seed", "jobs")
)

_PRESETS = ("fast", "full")


def job_content_key(model: CNNModel, config: SynthesisConfig) -> str:
    """Canonical content address of a (model, power, config) request."""
    text = "|".join((
        model_fingerprint(model),
        params_fingerprint(config.params),
        config_fingerprint(config),
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


@dataclass
class JobRequest:
    """One synthesis request as submitted by a client.

    ``model`` is a zoo name (``"vgg16"``) or an inline model document
    (the :mod:`repro.nn.onnx_io` JSON schema as a dict). ``overrides``
    are :class:`SynthesisConfig` keyword overrides applied on top of
    the chosen preset; ``priority`` orders the scheduler queue (larger
    first, FIFO within a level).
    """

    model: Union[str, Dict[str, Any]]
    total_power: float
    preset: str = "fast"
    overrides: Dict[str, Any] = field(default_factory=dict)
    seed: int = 2024
    priority: int = 0

    def __post_init__(self) -> None:
        if self.preset not in _PRESETS:
            raise ConfigurationError(
                f"unknown preset {self.preset!r}; choose from {_PRESETS}"
            )
        unknown = set(self.overrides) - _ALLOWED_OVERRIDES
        if unknown:
            raise ConfigurationError(
                f"unknown config overrides {sorted(unknown)}; "
                f"valid: {sorted(_ALLOWED_OVERRIDES)}"
            )
        self._cached_key: Optional[str] = None

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_model(self) -> CNNModel:
        """The live CNN this request targets (zoo lookup or inline)."""
        if isinstance(self.model, str):
            return zoo.by_name(self.model)
        return model_from_json(dict(self.model))

    @property
    def model_name(self) -> str:
        if isinstance(self.model, str):
            return self.model
        return str(self.model.get("name", "<inline>"))

    def build_config(self, jobs: int = 1) -> SynthesisConfig:
        """The request's SynthesisConfig; ``jobs`` is execution-only."""
        kwargs: Dict[str, Any] = dict(
            total_power=self.total_power, seed=self.seed
        )
        # JSON has no tuples; normalize list-valued overrides (the grid
        # choices) so content keys match natively built configs.
        for name, value in self.overrides.items():
            kwargs[name] = tuple(value) if isinstance(value, list) else value
        kwargs["jobs"] = jobs
        if self.preset == "fast":
            return SynthesisConfig.fast(**kwargs)
        return SynthesisConfig(**kwargs)

    def content_key(self) -> str:
        """Content address — validates the model and config en route.

        Computed once and cached: resolving the model and hashing the
        config is the expensive half of a store hit, and requests are
        treated as immutable after submission.
        """
        if self._cached_key is None:
            self._cached_key = job_content_key(
                self.resolve_model(), self.build_config()
            )
        return self._cached_key

    def apply_default_tech(self, tech: str) -> None:
        """Stamp a scheduler-level default technology onto the request.

        No-op when the request already names a technology. Invalidates
        the cached content key: a caller may have keyed the request
        before submitting it (the batch runner's dedup does), and the
        stamp is result content — keeping a pre-stamp key would store
        this job under the *default-technology* address, exactly the
        cross-technology aliasing the key scheme exists to prevent.
        """
        if "tech" in self.overrides:
            return
        self.overrides["tech"] = tech
        self._cached_key = None

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobRequest":
        """Parse an API/manifest job dict; raises ConfigurationError."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError("job must be a JSON object")
        known = {"model", "power", "total_power", "preset", "config",
                 "overrides", "seed", "priority"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown job fields {sorted(unknown)}; "
                f"valid: {sorted(known)}"
            )
        if "model" not in payload:
            raise ConfigurationError("job is missing 'model'")
        power = payload.get("power", payload.get("total_power"))
        if power is None:
            raise ConfigurationError("job is missing 'power'")
        try:
            power = float(power)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"job power must be a number, got {power!r}"
            ) from exc
        if "config" in payload and "overrides" in payload:
            raise ConfigurationError(
                "job has both 'config' and 'overrides'; they are "
                "aliases — send exactly one"
            )
        overrides = payload.get(
            "config", payload.get("overrides", {})
        )
        if not isinstance(overrides, Mapping):
            raise ConfigurationError("job 'config' must be an object")
        try:
            seed = int(payload.get("seed", 2024))
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                "job 'seed' and 'priority' must be integers"
            ) from exc
        return cls(
            model=payload["model"],
            total_power=power,
            preset=str(payload.get("preset", "fast")),
            overrides=dict(overrides),
            seed=seed,
            priority=priority,
        )

    def describe(self) -> Dict[str, Any]:
        """JSON-ready description stored alongside results."""
        return {
            "model": self.model if isinstance(self.model, str)
            else dict(self.model),
            "total_power": self.total_power,
            "preset": self.preset,
            "overrides": dict(self.overrides),
            "seed": self.seed,
            "priority": self.priority,
        }


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class JobState:
    """String constants — JSON-friendly, no enum machinery needed."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    TERMINAL = (DONE, FAILED)


@dataclass
class JobRecord:
    """Scheduler-side view of one submitted job.

    ``cache_hit`` is True when the result came from the store instead
    of a synthesis run; ``source`` says where from (``"computed"``,
    ``"store"``, or ``"peer"`` when another scheduler sharing the store
    produced it while we waited).
    """

    id: str
    request: JobRequest
    key: str
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    cache_hit: bool = False
    source: Optional[str] = None
    metrics: Optional[Dict[str, Any]] = None
    report: Optional[Dict[str, Any]] = None

    @property
    def done(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_payload(self) -> Dict[str, Any]:
        """The API's job representation."""
        return {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "model": self.request.model_name,
            "total_power": self.request.total_power,
            "preset": self.request.preset,
            "seed": self.request.seed,
            "priority": self.request.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "source": self.source,
            "metrics": self.metrics,
            "report": self.report,
        }


def result_payload(
    request: JobRequest, key: str, solution, report, front=None
) -> Dict[str, Any]:
    """The store's result document for one computed job.

    Embeds the exact :meth:`SynthesisSolution.to_payload` artifact, so
    a store hit returns byte-identical decision variables and metrics,
    and :func:`repro.core.persistence.solution_from_payload` can
    re-materialize the live solution client-side.

    Pareto jobs additionally embed the full front under ``"front"``
    (see :meth:`repro.core.pareto.ParetoSolutionSet.to_payload`), with
    ``"solution"`` still carrying the front's best point — so every
    store consumer that only understands single solutions (metrics
    summaries, :meth:`repro.serve.store.ResultStore.to_archive`) keeps
    working unchanged, while front-aware clients round-trip the whole
    trade-off surface via :meth:`~repro.core.pareto.ParetoSolutionSet.
    from_payload`.
    """
    payload = {
        "schema": 1,
        "key": key,
        "request": request.describe(),
        "solution": solution.to_payload(),
        "report": {
            "outer_points": report.outer_points,
            "candidates_tried": report.candidates_tried,
            "ea_runs": report.ea_runs,
            "nsga_runs": report.nsga_runs,
            "pruned_tasks": report.pruned_tasks,
            "ea_evaluations": report.ea_evaluations,
            "cache_hits": report.cache_hits,
            "jobs": report.jobs,
            "wall_seconds": report.wall_seconds,
        },
    }
    if front is not None:
        payload["front"] = front.to_payload()
    return payload
