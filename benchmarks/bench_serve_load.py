"""Serve layer — measured load test: async front end vs threaded baseline.

The serve rebuild replaced the thread-per-connection ``http.server``
front end with a single-event-loop asyncio server (keep-alive, bounded
queue, per-client quotas). The old front end now lives only in this
module (:class:`SynthesisServer`, over the service's own request
router), as the baseline of the comparison. This harness measures that
change instead of asserting it: raw-socket clients drive
``POST /jobs?wait=1`` against a prewarmed store in two disciplines —

- **closed loop**: N clients, each issuing its next request as soon as
  the previous response lands (throughput under sustained concurrency);
- **open loop**: requests arrive on a seeded Poisson process and
  latency is measured from the *scheduled* arrival time, so server-side
  queueing delay is charged to the server, not hidden by client pacing.

Both publish p50/p99 latency and jobs/sec into the pytest-benchmark
JSON (``extra_info``) for the CI ``serve-load`` gate. The default run
is small and assertion-light so tier-1 stays fast; set
``REPRO_SERVE_LOAD_FULL=1`` (the CI serve-load step does) to run the
32-client comparison that enforces the acceptance floor: the async
front end must clear >= 3x the threaded baseline's jobs/sec on a
warm-store mix.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

import pytest

from repro.analysis import format_table
from repro.serve import JobRequest, JobScheduler, ResultStore, make_server
from repro.serve.api import (
    MAX_BODY_BYTES,
    ClientQuotas,
    Response,
    _error,
    _Router,
)

_MODEL = "lenet5"
_POWERS = (2.0, 2.5, 3.0)
_SEED = 2024
_FULL_ENV = "REPRO_SERVE_LOAD_FULL"


# ----------------------------------------------------------------------
# Threaded front end (http.server) — the load gate's baseline
# ----------------------------------------------------------------------
class SynthesisServer(ThreadingHTTPServer):
    """Thread-per-connection server carrying the service state.

    The service's original front end, superseded by
    :class:`repro.serve.AsyncSynthesisServer`; it lives here only as
    the baseline the async front end is measured against, and routes
    every request through the same ``_Router``.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        scheduler: JobScheduler,
        store: ResultStore,
        verbose: bool = False,
        quota: Optional[int] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.store = store
        self.verbose = verbose
        self.router = _Router(scheduler, store, ClientQuotas(quota))


class _Handler(BaseHTTPRequestHandler):
    server: SynthesisServer

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, response: Response) -> None:
        status, body, headers = response
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            self._send(_error(400, "request body required"))
            return None
        if length > MAX_BODY_BYTES:
            self._send(_error(413, "request body too large"))
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send(_error(400, f"invalid JSON body: {exc}"))
            return None
        if not isinstance(payload, dict):
            self._send(_error(400, "body must be a JSON object"))
            return None
        return payload

    def _client_id(self) -> str:
        return self.headers.get(
            "X-Client-Id", self.client_address[0]
        )

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        parsed = urlparse(self.path)
        self._send(self.server.router.route_get(
            parsed.path, parse_qs(parsed.query)
        ))

    def do_POST(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        router = self.server.router
        if parts == ["store", "gc"]:
            self._send(router.route_post_gc(query))
            return
        if parts != ["jobs"]:
            self._send(_error(404, f"unknown path {parsed.path!r}"))
            return
        payload = self._read_body()
        if payload is None:
            return
        wait, timeout, error = router.parse_wait(query)
        if error is not None:
            self._send(error)
            return
        record, error = router.submit(payload, self._client_id())
        if error is not None:
            self._send(error)
            return
        if wait:
            # wait on the record object itself: immune to the history
            # evicting this id mid-wait (wait-by-id returns None then).
            record = self.server.scheduler.wait_record(
                record, timeout=timeout
            )
        self._send(router.record_response(record))


# ----------------------------------------------------------------------
# Raw-socket HTTP client (keep-alive aware, reconnects on close)
# ----------------------------------------------------------------------
class LoadClient:
    """Minimal HTTP/1.1 client speaking to one server address.

    Keeps its connection open across requests when the server allows it
    (the async front end does); transparently reconnects when the
    server closes per response (the HTTP/1.0 threaded baseline does).
    """

    def __init__(self, address: Tuple[str, int],
                 client_id: Optional[str] = None) -> None:
        self._address = address
        self._client_id = client_id
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(self._address, timeout=60)
        self._sock.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def request(
        self, method: str, target: str,
        payload: Optional[dict] = None,
    ) -> Tuple[int, dict]:
        """One round trip; returns (status, decoded JSON body)."""
        body = b"" if payload is None else json.dumps(payload).encode()
        head = [f"{method} {target} HTTP/1.1",
                f"Host: {self._address[0]}:{self._address[1]}",
                f"Content-Length: {len(body)}",
                "Content-Type: application/json"]
        if self._client_id:
            head.append(f"X-Client-Id: {self._client_id}")
        wire = ("\r\n".join(head) + "\r\n\r\n").encode() + body
        for attempt in (1, 2):
            if self._sock is None:
                self._connect()
            try:
                self._sock.sendall(wire)
                return self._read_response()
            except (BrokenPipeError, ConnectionResetError,
                    ConnectionAbortedError):
                # Stale keep-alive connection the server dropped; one
                # reconnect is legitimate, a second failure is real.
                self.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def _read_response(self) -> Tuple[int, dict]:
        status_line = self._rfile.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        version, status = parts[0], int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = self._rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        body = self._rfile.read(length) if length else b""
        closing = headers.get("connection", "").lower() == "close" or (
            version == "HTTP/1.0"
            and headers.get("connection", "").lower() != "keep-alive"
        )
        if closing:
            self.close()
        return status, json.loads(body) if body else {}


# ----------------------------------------------------------------------
# Load disciplines
# ----------------------------------------------------------------------
@dataclass
class LoadResult:
    """Latencies + wall time of one measured run."""

    mode: str
    latencies: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def jobs_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.latencies) / self.wall_seconds

    def percentile(self, pct: int) -> float:
        if not self.latencies:
            return 0.0
        if len(self.latencies) == 1:
            return self.latencies[0]
        cuts = statistics.quantiles(self.latencies, n=100)
        return cuts[pct - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)


def _job_payload(rng: random.Random) -> dict:
    return {
        "model": _MODEL,
        "total_power": rng.choice(_POWERS),
        "seed": _SEED,
    }


def _check(status: int, payload: dict, errors: List[str],
           lock: threading.Lock) -> None:
    if status != 200 or payload.get("state") != "done":
        with lock:
            errors.append(
                f"status={status} state={payload.get('state')!r} "
                f"error={payload.get('error')!r}"
            )


def run_closed_loop(
    address: Tuple[int, int], clients: int, requests_per_client: int,
    seed: int = _SEED, warmup: int = 1,
) -> LoadResult:
    """N clients, back-to-back requests each; wall clock over all."""
    result = LoadResult(mode="closed")
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def worker(index: int) -> None:
        rng = random.Random(seed * 1009 + index)
        client = LoadClient(address, client_id=f"closed-{index}")
        try:
            for _ in range(warmup):
                client.request("POST", "/jobs?wait=1&timeout=60",
                               _job_payload(rng))
            barrier.wait()
            laps = []
            for _ in range(requests_per_client):
                started = time.perf_counter()
                status, payload = client.request(
                    "POST", "/jobs?wait=1&timeout=60",
                    _job_payload(rng),
                )
                laps.append(time.perf_counter() - started)
                _check(status, payload, result.errors, lock)
            with lock:
                result.latencies.extend(laps)
        except Exception as exc:  # noqa: BLE001 — recorded, not raised
            with lock:
                result.errors.append(f"client {index}: {exc!r}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    result.wall_seconds = time.perf_counter() - started
    return result


def run_open_loop(
    address: Tuple[int, int], rate: float, total_requests: int,
    seed: int = _SEED,
) -> LoadResult:
    """Poisson arrivals at ``rate`` req/s; latency from scheduled send.

    Each request gets its own thread and connection, armed before the
    clock starts; a thread sleeps until its seeded arrival offset, so a
    slow server cannot throttle the offered load (the open-loop
    property closed-loop harnesses lose).
    """
    rng = random.Random(seed)
    offsets, at = [], 0.0
    for _ in range(total_requests):
        at += rng.expovariate(rate)
        offsets.append(at)
    payloads = [_job_payload(rng) for _ in range(total_requests)]

    result = LoadResult(mode="open")
    lock = threading.Lock()
    barrier = threading.Barrier(total_requests + 1)
    epoch: List[float] = []
    done_at: List[float] = []

    def worker(index: int) -> None:
        client = LoadClient(address, client_id=f"open-{index}")
        try:
            barrier.wait()
            scheduled = epoch[0] + offsets[index]
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            status, payload = client.request(
                "POST", "/jobs?wait=1&timeout=60", payloads[index]
            )
            finished = time.perf_counter()
            with lock:
                result.latencies.append(finished - scheduled)
                done_at.append(finished)
            _check(status, payload, result.errors, lock)
        except Exception as exc:  # noqa: BLE001
            with lock:
                result.errors.append(f"request {index}: {exc!r}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(total_requests)
    ]
    for thread in threads:
        thread.start()
    epoch.append(time.perf_counter() + 0.05)
    barrier.wait()
    for thread in threads:
        thread.join(timeout=120)
    if done_at:
        result.wall_seconds = max(done_at) - epoch[0]
    return result


# ----------------------------------------------------------------------
# Service fixture plumbing
# ----------------------------------------------------------------------
def _prewarm(store: ResultStore) -> None:
    with JobScheduler(store, workers=2) as scheduler:
        records = [
            scheduler.submit(JobRequest(
                model=_MODEL, total_power=power, seed=_SEED,
            ))
            for power in _POWERS
        ]
        for record in records:
            scheduler.wait_record(record, timeout=600)
            assert record.state == "done", record.error


class _Service:
    """One service over ``root``: the ``"async"`` front end (the
    product's) or the ``"threaded"`` baseline."""

    def __init__(self, root: str, kind: str) -> None:
        self.store = ResultStore(root)
        self.scheduler = JobScheduler(self.store, workers=4)
        if kind == "threaded":
            self.server = SynthesisServer(
                ("127.0.0.1", 0), self.scheduler, self.store
            )
        else:
            self.server = make_server(
                "127.0.0.1", 0, self.scheduler, self.store
            )
        self.address = self.server.server_address
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=10)
        self.scheduler.shutdown()


@pytest.fixture(scope="module")
def warm_store_root():
    root = tempfile.mkdtemp(prefix="pimsyn-bench-load-")
    try:
        _prewarm(ResultStore(root))
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _rows(tag: str, result: LoadResult) -> tuple:
    return (
        tag, result.mode, len(result.latencies),
        f"{result.p50 * 1e3:.2f}", f"{result.p99 * 1e3:.2f}",
        f"{result.jobs_per_sec:.0f}",
    )


# ----------------------------------------------------------------------
# Benches
# ----------------------------------------------------------------------
def test_serve_load_smoke(benchmark, warm_store_root):
    """Both disciplines against the async front end (fast default)."""

    def run():
        service = _Service(warm_store_root, kind="async")
        try:
            closed = run_closed_loop(
                service.address, clients=4, requests_per_client=6
            )
            opened = run_open_loop(
                service.address, rate=150.0, total_requests=24
            )
        finally:
            service.close()
        return closed, opened

    closed, opened = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(format_table(
        ["server", "mode", "requests", "p50 (ms)", "p99 (ms)",
         "jobs/s"],
        [_rows("async", closed), _rows("async", opened)],
        title="serve load smoke — warm-store mix (LeNet-5)",
    ))

    assert not closed.errors, closed.errors[:3]
    assert not opened.errors, opened.errors[:3]
    assert len(closed.latencies) == 24
    assert len(opened.latencies) == 24

    benchmark.extra_info["closed_jobs_per_sec"] = round(
        closed.jobs_per_sec, 1)
    benchmark.extra_info["closed_p50_ms"] = round(closed.p50 * 1e3, 3)
    benchmark.extra_info["closed_p99_ms"] = round(closed.p99 * 1e3, 3)
    benchmark.extra_info["open_jobs_per_sec"] = round(
        opened.jobs_per_sec, 1)
    benchmark.extra_info["open_p50_ms"] = round(opened.p50 * 1e3, 3)
    benchmark.extra_info["open_p99_ms"] = round(opened.p99 * 1e3, 3)


def test_serve_load_async_vs_threaded(benchmark, warm_store_root):
    """32-client closed loop: async must be >= 3x the threaded
    baseline's jobs/sec on a warm-store mix (acceptance floor)."""
    if not os.environ.get(_FULL_ENV):
        pytest.skip(f"set {_FULL_ENV}=1 for the full 32-client "
                    "comparison (CI serve-load runs it)")

    clients, per_client = 32, 12

    def run():
        measured = {}
        for kind in ("threaded", "async"):
            service = _Service(warm_store_root, kind=kind)
            try:
                measured[kind] = run_closed_loop(
                    service.address, clients=clients,
                    requests_per_client=per_client,
                )
            finally:
                service.close()
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    threaded, asynced = measured["threaded"], measured["async"]
    speedup = asynced.jobs_per_sec / max(threaded.jobs_per_sec, 1e-9)

    print()
    print(format_table(
        ["server", "mode", "requests", "p50 (ms)", "p99 (ms)",
         "jobs/s"],
        [_rows("threaded", threaded), _rows("async", asynced),
         ("speedup", "-", "-", "-", "-", f"{speedup:.1f}x")],
        title=f"serve load — async vs threaded, {clients} clients "
              "(warm-store mix)",
    ))

    for result in (threaded, asynced):
        assert not result.errors, result.errors[:3]
        assert len(result.latencies) == clients * per_client

    benchmark.extra_info["clients"] = clients
    benchmark.extra_info["requests_per_server"] = clients * per_client
    benchmark.extra_info["threaded_jobs_per_sec"] = round(
        threaded.jobs_per_sec, 1)
    benchmark.extra_info["async_jobs_per_sec"] = round(
        asynced.jobs_per_sec, 1)
    benchmark.extra_info["async_p50_ms"] = round(asynced.p50 * 1e3, 3)
    benchmark.extra_info["async_p99_ms"] = round(asynced.p99 * 1e3, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    assert speedup >= 3.0, (
        f"async front end only {speedup:.1f}x the threaded baseline "
        f"({asynced.jobs_per_sec:.0f} vs {threaded.jobs_per_sec:.0f} "
        "jobs/s); acceptance floor is 3x"
    )


if __name__ == "__main__":
    os.environ[_FULL_ENV] = "1"
    root = tempfile.mkdtemp(prefix="pimsyn-bench-load-")
    try:
        _prewarm(ResultStore(root))
        for kind in ("threaded", "async"):
            service = _Service(root, kind=kind)
            try:
                res = run_closed_loop(service.address, 32, 12)
                print(kind, f"{res.jobs_per_sec:.0f} jobs/s "
                            f"p99={res.p99 * 1e3:.1f}ms "
                            f"errors={len(res.errors)}")
            finally:
                service.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
