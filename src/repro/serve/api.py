"""JSON API over the scheduler and result store.

:class:`AsyncSynthesisServer` is the one front end: an ``asyncio``
HTTP/1.1 server. One event loop multiplexes every connection,
keep-alive is honored, and a long ``?wait=1`` costs a coroutine
polling the job record, not an OS thread. Blocking work (submission,
store walks) runs on the loop's thread pool. ``reuse_port=True`` sets
``SO_REUSEPORT`` so N processes can share one listening port for
multi-core scale-out. Request handling itself lives in the
wire-agnostic :class:`_Router`; ``benchmarks/bench_serve_load.py``
keeps a thread-per-connection ``http.server`` front end over the same
router as the baseline of its load gate.

Endpoints:

====== ======================= =========================================
Method Path                    Meaning
====== ======================= =========================================
POST   ``/jobs``               Submit a job (body: ``{"model": ...,
                               "power": ..., "config": {...}}``).
                               ``?wait=1`` blocks until terminal.
                               429 + ``Retry-After`` when the bounded
                               queue is full or the client is over its
                               active-job quota.
GET    ``/jobs``               All job records, oldest first.
GET    ``/jobs/<id>``          One job record (404 unknown, 410 when
                               evicted from the bounded history).
GET    ``/results/<key>``      Stored result document — served
                               verbatim from disk, so repeated GETs
                               are byte-identical.
GET    ``/store/stats``        Store counters; ``?models=1`` adds the
                               per-model inventory (O(store size)).
GET    ``/scheduler/stats``    Queue depth, running jobs, traffic
                               counters (what the load harness polls).
POST   ``/store/gc``           Compact the store (stale claims,
                               completed-job memos, leaked temp
                               files); returns the GC report.
GET    ``/models``             Machine-readable model zoo.
GET    ``/healthz``            Liveness probe.
====== ======================= =========================================

Error mapping: malformed requests (a bad request line, a
``Content-Length`` that is not a decimal byte count, a body that is
not a JSON object) and unknown models are 400 with a JSON body
(``PimsynError`` text), unknown ids/keys are 404, evicted
job ids are 410, backpressure/quota rejections are 429 with
``Retry-After``, anything else is a 500 without a traceback leak.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from http.client import responses as _REASONS
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import PimsynError, SchedulerBusyError
from repro.nn.zoo import model_catalog
from repro.serve.job import JobRecord, JobRequest
from repro.serve.scheduler import JobScheduler
from repro.serve.store import ResultStore

MAX_BODY_BYTES = 4 * 1024 * 1024  # inline model documents stay small
DEFAULT_WAIT_SECONDS = 300.0
KEEPALIVE_IDLE_SECONDS = 60.0

#: (status, body bytes, extra headers) — the router's wire-agnostic
#: response shape, rendered onto the wire by the front end.
Response = Tuple[int, bytes, Dict[str, str]]


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, indent=2).encode("utf-8")


def _error(status: int, message: str,
           headers: Optional[Dict[str, str]] = None) -> Response:
    return status, _json_bytes({"error": message}), headers or {}


class ClientQuotas:
    """Per-client cap on concurrently *active* (non-terminal) jobs.

    A client is its ``X-Client-Id`` header, falling back to the peer
    address — good enough to stop one runaway producer from occupying
    the whole queue. ``limit=None`` disables the check. Terminal
    records are pruned lazily on each admission test, so the registry
    stays bounded by live work, not by traffic history.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise PimsynError("client quota must be positive (or None)")
        self.limit = limit
        self._active: Dict[str, List[JobRecord]] = {}
        self._lock = threading.Lock()

    def admit(self, client: str) -> bool:
        if self.limit is None:
            return True
        with self._lock:
            live = [
                r for r in self._active.get(client, ()) if not r.done
            ]
            if live:
                self._active[client] = live
            else:
                self._active.pop(client, None)
            return len(live) < self.limit

    def track(self, client: str, record: JobRecord) -> None:
        if self.limit is None or record.done:
            return
        with self._lock:
            self._active.setdefault(client, []).append(record)


class _Router:
    """Wire-agnostic request handling behind the HTTP front end."""

    def __init__(
        self,
        scheduler: JobScheduler,
        store: ResultStore,
        quotas: Optional[ClientQuotas] = None,
    ) -> None:
        self.scheduler = scheduler
        self.store = store
        self.quotas = quotas or ClientQuotas(None)

    # -- GET ------------------------------------------------------------
    def route_get(self, path: str, query: Dict[str, List[str]]
                  ) -> Response:
        parts = [p for p in path.split("/") if p]
        try:
            if parts == ["healthz"]:
                return 200, _json_bytes({"ok": True}), {}
            if parts == ["models"]:
                return 200, _json_bytes(
                    {"models": model_catalog()}
                ), {}
            if parts == ["store", "stats"]:
                # Counters are O(1)-ish; the per-model inventory reads
                # every result document, so it is opt-in (?models=1)
                # to keep the endpoint cheap for polling monitors.
                with_models = query.get("models", ["0"])[0] not in (
                    "0", "", "false"
                )
                return 200, _json_bytes(self.store.stats(
                    include_models=with_models
                ).to_payload()), {}
            if parts == ["scheduler", "stats"]:
                return 200, _json_bytes(self.scheduler.stats()), {}
            if parts == ["jobs"]:
                return 200, _json_bytes({"jobs": [
                    r.to_payload() for r in self.scheduler.jobs()
                ]}), {}
            if len(parts) == 2 and parts[0] == "jobs":
                record = self.scheduler.job(parts[1])
                if record is not None:
                    return 200, _json_bytes(record.to_payload()), {}
                if self.scheduler.was_evicted(parts[1]):
                    return _error(
                        410,
                        f"job {parts[1]!r} finished and was evicted "
                        "from the bounded history; its result is "
                        "still addressable via GET /results/<key>",
                    )
                return _error(404, f"unknown job {parts[1]!r}")
            if len(parts) == 2 and parts[0] == "results":
                try:
                    data = self.store.get_bytes(parts[1])
                except PimsynError as exc:
                    return _error(400, str(exc))
                if data is None:
                    return _error(
                        404, f"no result for key {parts[1]!r}"
                    )
                return 200, data, {}
            return _error(404, f"unknown path {path!r}")
        except Exception as exc:  # never leak a traceback to the wire
            return _error(500, f"internal error: {type(exc).__name__}")

    # -- POST -----------------------------------------------------------
    def submit(
        self, payload: Dict[str, Any], client: str
    ) -> Tuple[Optional[JobRecord], Optional[Response]]:
        """Admit + submit one job; (record, None) or (None, error)."""
        if not self.quotas.admit(client):
            return None, _error(
                429,
                f"client {client!r} is at its active-job quota "
                f"({self.quotas.limit}); wait for a job to finish",
                {"Retry-After": "5"},
            )
        try:
            request = JobRequest.from_payload(payload)
            record = self.scheduler.submit(request)
        except SchedulerBusyError as exc:
            return None, _error(
                429, str(exc),
                {"Retry-After": str(max(1, round(exc.retry_after)))},
            )
        except PimsynError as exc:
            return None, _error(400, str(exc))
        except Exception as exc:
            return None, _error(
                500, f"internal error: {type(exc).__name__}"
            )
        self.quotas.track(client, record)
        return record, None

    def route_post_gc(self, query: Dict[str, List[str]]) -> Response:
        try:
            stale_after = float(query.get("stale", ["600"])[0])
        except ValueError:
            return _error(400, "stale must be a number of seconds")
        try:
            report = self.store.gc(stale_claims_after=stale_after)
        except Exception as exc:
            return _error(500, f"internal error: {type(exc).__name__}")
        return 200, _json_bytes(report.to_payload()), {}

    @staticmethod
    def parse_wait(query: Dict[str, List[str]]
                   ) -> Tuple[bool, float, Optional[Response]]:
        """(wait?, timeout, error) from a POST /jobs query string."""
        wait = query.get("wait", ["0"])[0] not in ("0", "", "false")
        try:
            timeout = float(
                query.get("timeout", [DEFAULT_WAIT_SECONDS])[0]
            )
        except ValueError:
            return False, 0.0, _error(400, "timeout must be a number")
        return wait, timeout, None

    @staticmethod
    def record_response(record: JobRecord) -> Response:
        return (
            200 if record.done else 202,
            _json_bytes(record.to_payload()),
            {},
        )


# ----------------------------------------------------------------------
# The front end (asyncio)
# ----------------------------------------------------------------------
class AsyncSynthesisServer:
    """Single-event-loop HTTP/1.1 front end.

    Shaped like ``http.server``'s servers where it matters:
    ``server_address``, blocking ``serve_forever()`` (run it in a
    thread), thread-safe ``shutdown()``. The listening socket is bound
    at construction, so ``port=0`` resolves to a real port before the
    loop starts.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        scheduler: JobScheduler,
        store: ResultStore,
        verbose: bool = False,
        quota: Optional[int] = None,
        reuse_port: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.store = store
        self.verbose = verbose
        self.router = _Router(scheduler, store, ClientQuotas(quota))
        self._sock = socket.create_server(
            address, reuse_port=reuse_port, backlog=128
        )
        self._sock.setblocking(False)
        self.server_address = self._sock.getsockname()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._serving = False
        self._shutdown_requested = False

    # -- lifecycle ------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the event loop in the calling thread until shutdown()."""
        self._serving = True
        try:
            asyncio.run(self._serve())
        finally:
            self._finished.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self._shutdown_requested:  # shutdown() raced serve_forever()
            # The socket may already be closed; don't serve on it.
            self._started.set()
            return
        server = await asyncio.start_server(
            self._handle_connection, sock=self._sock
        )
        self._started.set()
        async with server:
            await self._stop.wait()
        # asyncio.run() cancels the remaining per-connection tasks.

    def shutdown(self) -> None:
        """Stop the loop from any thread; idempotent."""
        self._shutdown_requested = True
        if not self._serving:
            # serve_forever() was never entered (bound but not run):
            # just close the pre-bound socket; a late serve_forever()
            # sees _shutdown_requested and returns without serving.
            try:
                self._sock.close()
            except OSError:
                pass
            return
        if not self._started.wait(timeout=5.0):
            # Loop never came up; close the pre-bound socket ourselves.
            try:
                self._sock.close()
            except OSError:
                pass
            return
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._finished.wait(timeout=5.0)

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peer = writer.get_extra_info("peername") or ("?", 0)
        try:
            while True:
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(),
                        timeout=KEEPALIVE_IDLE_SECONDS,
                    )
                except (asyncio.TimeoutError, ValueError):
                    break
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    await self._write(
                        writer, _error(400, "malformed request line"),
                        keep_alive=False,
                    )
                    break
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = (
                        line.decode("latin-1").partition(":")
                    )
                    headers[name.strip().lower()] = value.strip()
                keep_alive = (
                    version.upper() == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                length_text = headers.get("content-length") or "0"
                if not (length_text.isascii() and length_text.isdigit()):
                    await self._write(
                        writer,
                        _error(400, "malformed Content-Length header "
                                    f"{length_text!r}"),
                        keep_alive=False,
                    )
                    break
                length = int(length_text)
                if length > MAX_BODY_BYTES:
                    await self._write(
                        writer, _error(413, "request body too large"),
                        keep_alive=False,
                    )
                    break
                body = (
                    await reader.readexactly(length) if length else b""
                )
                response = await self._dispatch(
                    method.upper(), target, headers, body, peer
                )
                await self._write(writer, response, keep_alive)
                if self.verbose:
                    print(
                        f"{peer[0]} {method} {target} "
                        f"-> {response[0]}"
                    )
                if not keep_alive:
                    break
        except (
            ConnectionError, asyncio.IncompleteReadError, OSError
        ):
            pass
        except asyncio.CancelledError:
            pass  # event loop torn down mid-request (shutdown)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        status, body, extra = response
        reason = _REASONS.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: " + ("keep-alive" if keep_alive else "close"),
        ]
        headers.extend(f"{k}: {v}" for k, v in extra.items())
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
            + body
        )
        await writer.drain()

    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        peer: Tuple[str, int],
    ) -> Response:
        parsed = urlparse(target)
        query = parse_qs(parsed.query)
        loop = asyncio.get_running_loop()
        if method == "GET":
            # Store walks and document reads touch disk: keep them off
            # the event loop.
            return await loop.run_in_executor(
                None, self.router.route_get, parsed.path, query
            )
        if method != "POST":
            return _error(405, f"unsupported method {method!r}")
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["store", "gc"]:
            return await loop.run_in_executor(
                None, self.router.route_post_gc, query
            )
        if parts != ["jobs"]:
            return _error(404, f"unknown path {parsed.path!r}")
        if not body:
            return _error(400, "request body required")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _error(400, f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            return _error(400, "body must be a JSON object")
        wait, timeout, error = self.router.parse_wait(query)
        if error is not None:
            return error
        client = headers.get("x-client-id", peer[0])
        record, error = await loop.run_in_executor(
            None, self.router.submit, payload, client
        )
        if error is not None:
            return error
        assert record is not None
        if wait and not record.done:
            await self._await_record(record, timeout)
        return self.router.record_response(record)

    @staticmethod
    async def _await_record(
        record: JobRecord, timeout: float
    ) -> None:
        """Poll the record to a terminal state — a coroutine per
        waiting client instead of a blocked thread per client."""
        deadline = time.monotonic() + timeout
        delay = 0.002
        while not record.done and time.monotonic() < deadline:
            await asyncio.sleep(delay)
            delay = min(delay * 1.5, 0.05)


def make_server(
    host: str,
    port: int,
    scheduler: JobScheduler,
    store: ResultStore,
    verbose: bool = False,
    quota: Optional[int] = None,
    reuse_port: bool = False,
) -> AsyncSynthesisServer:
    """Bind the API server (``port=0`` picks a free port).

    ``quota`` caps each client's concurrently active jobs;
    ``reuse_port`` sets ``SO_REUSEPORT`` so multiple server processes
    can share the port.
    """
    return AsyncSynthesisServer(
        (host, port), scheduler, store,
        verbose=verbose, quota=quota, reuse_port=reuse_port,
    )
