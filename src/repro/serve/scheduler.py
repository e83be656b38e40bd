"""Worker pool and job queue of the synthesis service.

Stdlib-only: worker *threads* drain a priority queue of jobs; each job
runs the DSE through :class:`repro.core.synthesizer.Pimsyn`, which in
turn fans out over processes when the job's ``jobs`` knob asks for it —
so threads here cost nothing (the GIL is released in the pool workers)
while keeping the scheduler state trivially shareable.

The scheduler is store-first at every step:

1. ``submit()`` answers identical already-stored requests immediately
   (a *store hit* — zero evaluator calls) and coalesces duplicates of
   an in-flight request onto the same record;
2. a worker re-checks the store, then *claims* the key so a second
   scheduler sharing the store directory waits for our result instead
   of double-running it — and re-checks once more *after* acquiring
   the claim, because a peer may have finished inside the claim-break
   window;
3. a computed result is persisted alone: the next request for its key
   is a store hit, so nothing would ever read its evaluation memo.

Backpressure: with ``max_queue_depth`` set, ``submit()`` raises
:class:`repro.errors.SchedulerBusyError` (with a ``retry_after``
estimate) once that many jobs are queued — store hits and coalesced
duplicates are always admitted, since they cost no queue slot. This is
what lets many schedulers share one store under real traffic: each
node bounds its own backlog and sheds load explicitly (HTTP 429)
instead of building an unbounded latency queue.

Workers are crash-isolated: any :class:`Exception` marks that job
``failed`` and the worker moves on. If a job surfaces
:class:`SynthesisInterrupted`, its partial memo is persisted while the
job still holds its claim, so whichever scheduler takes the key next
resumes from the work already done. (Signals only reach the *main*
thread, so a service Ctrl-C/SIGTERM does not interrupt in-flight
worker-thread jobs — ``shutdown(wait=True)`` lets them finish, fails
everything still queued, and a second signal force-exits; the
engine-level interrupt path belongs to main-thread synthesis, e.g.
``repro synthesize``.)
"""

from __future__ import annotations

import itertools
import queue
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.core.synthesizer import Pimsyn
from repro.errors import (
    PimsynError,
    SchedulerBusyError,
    SynthesisInterrupted,
)
from repro.hardware.tech import get_technology
from repro.serve.job import (
    JobRecord,
    JobRequest,
    JobState,
    result_payload,
)
from repro.serve.store import ResultStore

#: Evicted-id memory: bounds the "410 Gone vs 404 Not Found" ledger.
_EVICTED_IDS_KEPT = 10_000


class JobScheduler:
    """FIFO + priority scheduler over a shared :class:`ResultStore`.

    Parameters
    ----------
    store:
        The content-addressed result store (shareable between
        schedulers and processes).
    workers:
        Concurrent jobs (worker threads). Distinct from ``synth_jobs``:
        ``workers=4, synth_jobs=2`` runs four jobs at once, each over a
        2-process DSE pool.
    synth_jobs:
        ``SynthesisConfig.jobs`` for every synthesis this scheduler
        runs (execution-only; never part of the content key).
    default_tech:
        Technology profile applied at submission to requests that do
        not carry a ``tech`` override themselves. Applied *before*
        the content key is computed, so a service defaulted to
        ``sram-pim`` never aliases a ``reram`` store entry. ``None``
        leaves requests untouched (the config default is the
        baseline ``reram`` profile).
    name:
        Label used in job ids and store claims.
    stale_claim_timeout:
        Seconds after which another scheduler's claim is presumed
        orphaned (crashed owner) and taken over.
    autostart:
        Start worker threads immediately (tests pass ``False`` to
        inspect queue order deterministically).
    max_history:
        Terminal job records kept in memory for ``GET /jobs/<id>``.
        Oldest finished records are evicted past this bound so a
        long-lived service does not grow without limit; results
        themselves live in the store, not the history. Evicted ids are
        remembered (bounded) so the API can answer 410 instead of 404.
    max_queue_depth:
        Backpressure bound: queued-but-not-running jobs beyond this
        raise :class:`SchedulerBusyError` at submission. ``None``
        (default) keeps the historical unbounded behavior (batch runs
        submit their whole manifest up front).
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        synth_jobs: int = 1,
        name: str = "sched",
        stale_claim_timeout: float = 600.0,
        autostart: bool = True,
        max_history: int = 10_000,
        default_tech: Optional[str] = None,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise PimsynError("scheduler needs at least one worker")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise PimsynError(
                "max_queue_depth must be positive (or None)"
            )
        if default_tech is not None:
            get_technology(default_tech)  # fail at startup, not submit
        self.store = store
        self.workers = workers
        self.synth_jobs = synth_jobs
        self.default_tech = default_tech
        self.name = name
        self.stale_claim_timeout = stale_claim_timeout
        self.max_history = max_history
        self.max_queue_depth = max_queue_depth
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._records: Dict[str, JobRecord] = {}
        self._inflight: Dict[str, JobRecord] = {}
        self._evicted: "OrderedDict[str, None]" = OrderedDict()
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._queued = 0       # jobs enqueued but not yet picked up
        self._running = 0      # jobs a worker is currently executing
        self._job_seconds_ema = 0.0
        self.executed = 0      # synthesis runs actually performed
        self.store_hits = 0    # jobs answered from the store
        self.failures = 0
        self.rejected = 0      # submissions shed by backpressure
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"{self.name}-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, wait: bool = True) -> None:
        """Graceful stop: running jobs finish; still-queued jobs are
        failed as "scheduler shut down" so every record reaches a
        terminal state (a waiting client gets an answer, not a hang)."""
        self._stop.set()
        # Sentinels sort *after* every real job, so workers drain the
        # queue (fast-failing remaining jobs) before exiting.
        for _ in range(max(len(self._threads), 1)):
            self._queue.put((float("inf"), next(self._seq), None))
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []
        self._fail_remaining_queued()

    def _fail_remaining_queued(self) -> None:
        """Terminal-ize whatever is still queued (threads never ran,
        or shutdown(wait=False) left items behind)."""
        while True:
            try:
                _prio, _seq, job_id = self._queue.get_nowait()
            except queue.Empty:
                return
            if job_id is not None:
                with self._lock:
                    self._queued -= 1
                    record = self._records.get(job_id)
                if record is not None and not record.done:
                    self._fail(record, "scheduler shut down")

    def __enter__(self) -> "JobScheduler":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Submission / queries
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> JobRecord:
        """Queue a request; returns its record (maybe already done).

        Raises :class:`repro.errors.PimsynError` subclasses for a bad
        request (unknown model, malformed config) — submission-time
        validation, not worker-time — and
        :class:`repro.errors.SchedulerBusyError` when the bounded
        queue is full. Store hits and coalesced duplicates are never
        rejected: they cost no queue slot.
        """
        if self.default_tech is not None:
            # Stamp the service default (and drop any pre-stamp cached
            # key) so the request's content address names the
            # technology it will actually be synthesized under.
            request.apply_default_tech(self.default_tech)
        key = request.content_key()
        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None:
                return inflight
            record = JobRecord(
                id=f"{self.name}-{next(self._seq):06d}",
                request=request,
                key=key,
            )
            self._records[record.id] = record
            self._inflight[key] = record
        try:
            payload = self.store.get(key)
        except BaseException as error:
            # The record was never queued: left registered, every later
            # submit of the key would join it and drain() would wait
            # on it forever. A submit that already joined it holds it,
            # so it fails before it goes.
            self._drop(record, f"store read failed: {error!r}")
            raise
        if payload is not None:
            self._finish_from_store(record, payload, source="store")
            return record
        with self._lock:
            busy = (
                self.max_queue_depth is not None
                and self._queued >= self.max_queue_depth
            )
            if busy:
                self.rejected += 1
                queued = self._queued
                retry_after = self._retry_after_locked()
            else:
                self._queued += 1
        if busy:
            # Shed the load *before* enqueueing: drop the record we
            # optimistically registered and tell the client when to
            # come back.
            self._drop(record, "queue full")
            raise SchedulerBusyError(
                f"queue full ({queued} jobs waiting, bound "
                f"{self.max_queue_depth}); retry in "
                f"{retry_after:.0f}s",
                retry_after=retry_after,
            )
        self._queue.put(
            (-request.priority, next(self._seq), record.id)
        )
        return record

    def _drop(self, record: JobRecord, error: str) -> None:
        """Fail a record ``submit`` registered but never queued, then
        forget it. A concurrent submit of its key may have joined it,
        and that caller's wait returns the failed record."""
        self._fail(record, error)
        with self._lock:
            self._records.pop(record.id, None)

    def _retry_after_locked(self) -> float:
        """Suggested client backoff: roughly one queue-drain interval
        under the recent per-job wall-time average."""
        per_job = self._job_seconds_ema or 1.0
        return max(
            1.0, self._queued * per_job / max(self.workers, 1)
        )

    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def was_evicted(self, job_id: str) -> bool:
        """True if ``job_id`` finished and fell out of the bounded
        history — lets the API answer 410 Gone instead of 404."""
        with self._lock:
            return job_id in self._evicted

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            return sorted(
                self._records.values(), key=lambda r: r.id
            )

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Block until the job reaches a terminal state.

        Returns ``None`` for an unknown or history-evicted job id —
        the record is gone, there is nothing to wait on. (This used to
        raise ``KeyError``, which escaped the API's ``?wait=1`` path
        uncaught and hung the client connection.)
        """
        with self._done:
            record = self._records.get(job_id)
            if record is None:
                return None
            self._done.wait_for(lambda: record.done, timeout=timeout)
            return record

    def wait_record(
        self, record: JobRecord, timeout: Optional[float] = None
    ) -> JobRecord:
        """Like :meth:`wait`, but on a record already in hand — immune
        to history eviction racing the wait."""
        with self._done:
            self._done.wait_for(lambda: record.done, timeout=timeout)
            return record

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job is terminal."""
        with self._done:
            return self._done.wait_for(
                lambda: all(r.done for r in self._records.values()),
                timeout=timeout,
            )

    def stats(self) -> Dict[str, Any]:
        """Queue/traffic counters (the ``GET /scheduler/stats``
        payload, and what the load harness samples)."""
        with self._lock:
            return {
                "name": self.name,
                "workers": self.workers,
                "queued": self._queued,
                "running": self._running,
                "records": len(self._records),
                "executed": self.executed,
                "store_hits": self.store_hits,
                "failures": self.failures,
                "rejected": self.rejected,
                "max_queue_depth": self.max_queue_depth,
                "job_seconds_ema": self._job_seconds_ema,
            }

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            _prio, _seq, job_id = self._queue.get()
            if job_id is None:  # shutdown sentinel
                break
            with self._lock:
                self._queued -= 1
                record = self._records.get(job_id)
            if record is None:  # defensive: queued ids are not evicted
                continue
            if self._stop.is_set():
                self._fail(record, "scheduler shut down")
                continue
            try:
                self._run_job(record)
            except SynthesisInterrupted as exc:
                # _run_job_inner persisted the partial memo and released
                # the claim on the way out
                self._fail(record, f"interrupted: {exc}")
            except Exception as exc:  # crash isolation per job
                self.store.release(record.key)
                self._fail(record, f"{type(exc).__name__}: {exc}")

    def _run_job(self, record: JobRecord) -> None:
        import time as _time

        with self._lock:
            record.state = JobState.RUNNING
            record.started_at = _time.time()
            self._running += 1
        try:
            self._run_job_inner(record)
        finally:
            with self._lock:
                self._running -= 1

    def _run_job_inner(self, record: JobRecord) -> None:
        import time as _time

        # peek(): this re-check is the same logical lookup submit()
        # already counted, so it stays out of the hit/miss stats.
        payload = self.store.peek(record.key)
        if payload is not None:
            self._finish_from_store(record, payload, source="store")
            return

        while not self.store.claim(
            record.key, owner=self.name,
            stale_after=self.stale_claim_timeout,
        ):
            # Another scheduler is computing this key: wait for it.
            # The owner heartbeats its claim, so a fresh claim means
            # it is alive — keep waiting however long the job takes;
            # claim() itself breaks genuinely stale (orphaned) claims.
            payload = self.store.wait_for(
                record.key, timeout=self.stale_claim_timeout
            )
            if payload is not None:
                self._finish_from_store(record, payload, source="peer")
                return

        # Claim acquired — but a peer that finished inside the
        # claim-break window may have already published this key.
        # Without this re-check the job is recomputed for nothing.
        payload = self.store.peek(record.key)
        if payload is not None:
            self.store.release(record.key)
            self._finish_from_store(record, payload, source="peer")
            return

        heartbeat_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._claim_heartbeat,
            args=(record.key, heartbeat_stop),
            name=f"{self.name}-heartbeat",
            daemon=True,
        )
        heartbeat.start()
        try:
            model = record.request.resolve_model()
            config = record.request.build_config(jobs=self.synth_jobs)
            warm = self.store.load_memo(record.key)
            synthesizer = Pimsyn(model, config, warm_memo=warm or None)
            if config.pareto:
                # Multi-objective request: the stored document carries
                # the whole front; "solution" stays the front's best
                # point so solution-only consumers are unaffected.
                front = synthesizer.synthesize_pareto()
                solution = front.solution
            else:
                front = None
                solution = synthesizer.synthesize()
            payload = result_payload(
                record.request, record.key, solution,
                synthesizer.report, front=front,
            )
            self.store.put(record.key, payload)
        except SynthesisInterrupted as exc:
            # Persist what the run learned before the claim goes: a
            # peer that takes the key next must find the memo to resume.
            self.store.merge_memo(record.key, exc.partial_memo)
            raise
        finally:
            heartbeat_stop.set()
            self.store.release(record.key)

        with self._done:
            self.executed += 1
            record.state = JobState.DONE
            record.finished_at = _time.time()
            record.cache_hit = False
            record.source = "computed"
            record.metrics = dict(payload["solution"]["metrics"])
            record.report = dict(payload["report"])
            wall = record.wall_seconds or 0.0
            self._job_seconds_ema = (
                wall if self._job_seconds_ema == 0.0
                else 0.8 * self._job_seconds_ema + 0.2 * wall
            )
            self._inflight.pop(record.key, None)
            self._trim_history_locked()
            self._done.notify_all()

    def _claim_heartbeat(
        self, key: str, stop: threading.Event
    ) -> None:
        """Refresh the claim's mtime while its job computes, so peers
        keep waiting instead of presuming us dead on long jobs."""
        interval = max(self.stale_claim_timeout / 4.0, 0.5)
        while not stop.wait(interval):
            self.store.refresh_claim(key)

    def _finish_from_store(
        self, record: JobRecord, payload: dict, source: str
    ) -> None:
        import time as _time

        with self._done:
            self.store_hits += 1
            record.state = JobState.DONE
            if record.started_at is None:
                record.started_at = _time.time()
            record.finished_at = _time.time()
            record.cache_hit = True
            record.source = source
            record.metrics = dict(payload["solution"]["metrics"])
            record.report = dict(payload.get("report", {}))
            self._inflight.pop(record.key, None)
            self._trim_history_locked()
            self._done.notify_all()

    def _fail(self, record: JobRecord, error: str) -> None:
        import time as _time

        with self._done:
            self.failures += 1
            record.state = JobState.FAILED
            record.finished_at = _time.time()
            record.error = error
            self._inflight.pop(record.key, None)
            self._trim_history_locked()
            self._done.notify_all()

    def _trim_history_locked(self) -> None:
        """Evict the oldest *terminal* records past ``max_history``
        (dict order is insertion order = submission order). Evicted
        ids go to a bounded ledger so lookups can say 410, not 404."""
        if len(self._records) <= self.max_history:
            return
        for job_id in list(self._records):
            if len(self._records) <= self.max_history:
                break
            if self._records[job_id].done:
                del self._records[job_id]
                self._evicted[job_id] = None
        while len(self._evicted) > _EVICTED_IDS_KEPT:
            self._evicted.popitem(last=False)
