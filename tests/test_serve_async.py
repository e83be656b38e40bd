"""Async front end + scheduler concurrency regressions.

Covers what the serve-tier rebuild changed above the store:

- ``JobScheduler.wait`` on an unknown/evicted id returns ``None``
  (used to raise ``KeyError``, which escaped the API's ``?wait=1``
  path); the API distinguishes 404 (never existed) from 410 (evicted);
- hit/miss/executed accounting: a worker's post-claim re-check uses an
  uncounted ``peek`` and answers from a peer's result instead of
  recomputing; ``wait_for`` timeouts do not inflate the miss counter;
- the asyncio front end itself: HTTP/1.1 keep-alive, oversized-body
  413, malformed-``Content-Length`` 400, bounded-queue 429 +
  ``Retry-After``, per-client quotas, and the new
  ``GET /scheduler/stats`` / ``POST /store/gc`` endpoints;
- ``make_server`` binding the one front end, with SO_REUSEPORT.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import PimsynError, SchedulerBusyError
from repro.serve import (
    AsyncSynthesisServer,
    ClientQuotas,
    JobRequest,
    JobScheduler,
    ResultStore,
    make_server,
)
from repro.serve.api import _Router
from repro.serve.job import JobState


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


def _request(power=2.0, seed=7, **kwargs) -> JobRequest:
    return JobRequest(
        model="lenet5", total_power=power, seed=seed, **kwargs
    )


def _fake_result(model: str = "lenet5") -> dict:
    return {
        "schema": 1,
        "solution": {
            "model": model,
            "metrics": {"throughput_img_s": 123.0, "power_w": 2.0},
        },
        "report": {"ea_evaluations": 0},
    }


def _prestore(store: ResultStore, request: JobRequest) -> str:
    """Plant a result for ``request`` so submission is a store hit."""
    key = request.content_key()
    store.put(key, _fake_result())
    return key


# ----------------------------------------------------------------------
# S2 — wait() on unknown/evicted ids
# ----------------------------------------------------------------------
class TestWaitUnknownJob:
    def test_wait_unknown_id_returns_none(self, store):
        with JobScheduler(store, workers=1) as scheduler:
            # pre-fix: KeyError from self._records[job_id]
            assert scheduler.wait("no-such-job", timeout=0.2) is None

    def test_wait_evicted_id_returns_none(self, store):
        with JobScheduler(
            store, workers=1, max_history=1
        ) as scheduler:
            first = _request(power=2.0)
            second = _request(power=2.5)
            _prestore(store, first)
            _prestore(store, second)
            evicted = scheduler.submit(first)
            kept = scheduler.submit(second)
            assert scheduler.job(evicted.id) is None
            assert scheduler.wait(evicted.id, timeout=0.2) is None
            assert scheduler.was_evicted(evicted.id)
            assert not scheduler.was_evicted("never-existed")
            waited = scheduler.wait(kept.id, timeout=5)
            assert waited is kept and waited.done

    def test_router_distinguishes_404_from_410(self, store):
        with JobScheduler(
            store, workers=1, max_history=1
        ) as scheduler:
            router = _Router(scheduler, store)
            _prestore(store, _request(power=2.0))
            _prestore(store, _request(power=2.5))
            evicted = scheduler.submit(_request(power=2.0))
            scheduler.submit(_request(power=2.5))

            status, _body, _h = router.route_get(
                f"/jobs/{evicted.id}", {}
            )
            assert status == 410
            status, _body, _h = router.route_get("/jobs/never", {})
            assert status == 404


# ----------------------------------------------------------------------
# S4 — store accounting: re-checks are free, peers are honored
# ----------------------------------------------------------------------
class TestAccounting:
    def test_post_claim_recheck_answers_from_peer(
        self, store, monkeypatch
    ):
        """A peer publishing the key inside the claim-break window:
        the worker holds a fresh claim but must NOT recompute."""
        scheduler = JobScheduler(store, workers=1, autostart=False)
        record = scheduler.submit(_request())

        real_claim = store.claim

        def claim_then_peer_publishes(key, owner, stale_after=600.0):
            won = real_claim(key, owner, stale_after=stale_after)
            if won:
                # simulate the peer's result landing just after our
                # claim (it won the break race, finished, released)
                store._result_path(key).write_bytes(
                    json.dumps(_fake_result(), indent=2).encode()
                )
            return won

        monkeypatch.setattr(store, "claim", claim_then_peer_publishes)

        def no_synthesis(*_a, **_k):
            raise AssertionError(
                "worker recomputed a key its peer already published"
            )

        monkeypatch.setattr(
            "repro.serve.scheduler.Pimsyn", no_synthesis
        )

        scheduler.start()
        try:
            scheduler.wait_record(record, timeout=30)
        finally:
            scheduler.shutdown(wait=True)

        assert record.state == JobState.DONE
        assert record.cache_hit is True
        assert record.source == "peer"
        assert scheduler.executed == 0
        assert scheduler.store_hits == 1
        assert not store.claimed(record.key)
        # one logical lookup, counted once at submit(): the worker's
        # pre-claim and post-claim re-checks stayed out of the stats
        assert (store.hits, store.misses) == (0, 1)

    def test_wait_for_timeout_is_not_a_second_miss(self, store):
        key = "ab" * 32
        assert store.get(key) is None  # the one counted miss
        assert store.wait_for(key, timeout=0.05) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_warm_hit_counts_once(self, store):
        request = _request()
        key = _prestore(store, request)
        assert store.puts == 1
        with JobScheduler(store, workers=1) as scheduler:
            record = scheduler.submit(request)
            scheduler.wait_record(record, timeout=10)
        assert record.cache_hit is True and record.source == "store"
        assert scheduler.executed == 0
        assert scheduler.store_hits == 1
        assert (store.hits, store.misses) == (1, 0)
        assert store.get_bytes(key) is not None  # still readable


# ----------------------------------------------------------------------
# Backpressure + quotas (scheduler layer)
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_bounded_queue_rejects_with_retry_after(self, store):
        scheduler = JobScheduler(
            store, workers=1, autostart=False, max_queue_depth=2
        )
        scheduler.submit(_request(power=2.0))
        scheduler.submit(_request(power=2.5))
        with pytest.raises(SchedulerBusyError) as err:
            scheduler.submit(_request(power=3.0))
        assert err.value.retry_after >= 1.0
        assert scheduler.rejected == 1
        # the shed submission left no ghost record behind
        assert len(scheduler.jobs()) == 2
        scheduler.shutdown(wait=True)

    def test_store_hits_and_duplicates_never_rejected(self, store):
        scheduler = JobScheduler(
            store, workers=1, autostart=False, max_queue_depth=1
        )
        queued = scheduler.submit(_request(power=9.9))
        # duplicate of the queued job coalesces, costs no slot
        assert scheduler.submit(_request(power=9.9)) is queued
        # a store hit answers immediately, costs no slot
        warm = _request(power=2.0)
        _prestore(store, warm)
        record = scheduler.submit(warm)
        assert record.done and record.cache_hit
        assert scheduler.rejected == 0
        scheduler.shutdown(wait=True)

    def test_bad_bound_rejected(self, store):
        with pytest.raises(PimsynError):
            JobScheduler(store, max_queue_depth=0, autostart=False)


class TestClientQuotas:
    def test_quota_blocks_at_limit_and_frees_on_completion(self):
        quotas = ClientQuotas(2)
        done = _record_like(done=True)
        active = _record_like(done=False)
        assert quotas.admit("alice")
        quotas.track("alice", active)
        quotas.track("alice", _record_like(done=False))
        assert not quotas.admit("alice")
        assert quotas.admit("bob")  # per-client, not global
        # finished jobs are pruned at the next admit
        active.state = JobState.DONE
        assert quotas.admit("alice")
        quotas.track("alice", done)
        assert quotas.admit("alice")

    def test_unlimited_by_default(self):
        quotas = ClientQuotas(None)
        for _ in range(100):
            quotas.track("alice", _record_like(done=False))
        assert quotas.admit("alice")

    def test_bad_limit_rejected(self):
        with pytest.raises(PimsynError):
            ClientQuotas(0)


def _record_like(done: bool):
    request = _request()
    from repro.serve.job import JobRecord

    record = JobRecord(
        id="t-000000", request=request, key=request.content_key()
    )
    if done:
        record.state = JobState.DONE
    return record


# ----------------------------------------------------------------------
# Async front end over a real socket
# ----------------------------------------------------------------------
@pytest.fixture()
def async_service(store):
    scheduler = JobScheduler(store, workers=2, name="async-api")
    server = make_server("127.0.0.1", 0, scheduler, store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, scheduler, store
    finally:
        server.shutdown()
        thread.join(timeout=10)
        scheduler.shutdown(wait=True)


def _http(server, method, target, body=None, headers=None):
    port = server.server_address[1]
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{target}", data=data,
        headers={"Content-Type": "application/json",
                 **(headers or {})},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, dict(response.headers),
                    json.loads(response.read().decode()))
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


class TestAsyncFrontEnd:
    def test_make_server_default_is_async(self, store):
        with JobScheduler(store, autostart=False) as scheduler:
            server = make_server("127.0.0.1", 0, scheduler, store)
            try:
                assert isinstance(server, AsyncSynthesisServer)
                assert server.server_address[1] > 0
            finally:
                server.shutdown()

    def test_keep_alive_serves_many_requests_per_connection(
        self, async_service
    ):
        server, _scheduler, _store = async_service
        with socket.create_connection(
            server.server_address, timeout=10
        ) as sock:
            reader = sock.makefile("rb")
            for _ in range(3):
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\n"
                    b"Host: t\r\nContent-Length: 0\r\n\r\n"
                )
                status_line = reader.readline()
                assert b"200" in status_line
                headers = {}
                while True:
                    line = reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                assert headers.get("connection") == "keep-alive"
                body = reader.read(int(headers["content-length"]))
                assert json.loads(body) == {"ok": True}

    def test_oversized_body_is_413(self, async_service):
        server, _scheduler, _store = async_service
        with socket.create_connection(
            server.server_address, timeout=10
        ) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 99999999\r\n\r\n"
            )
            response = sock.makefile("rb").readline()
        assert b"413" in response

    @pytest.mark.parametrize("length", ["abc", "1e3", "-5"])
    def test_malformed_content_length_is_400(
        self, async_service, length, caplog
    ):
        """A Content-Length that is not a decimal byte count gets a JSON
        400 naming the header and a closed connection, not an
        unhandled exception in the connection callback."""
        server, _scheduler, _store = async_service
        caplog.set_level(logging.ERROR, logger="asyncio")
        with socket.create_connection(
            server.server_address, timeout=10
        ) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
                + b"{}"
            )
            response = sock.makefile("rb").read()  # until the close
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        error = json.loads(body)["error"]
        assert "Content-Length" in error and repr(length) in error
        status, _headers, health = _http(server, "GET", "/healthz")
        assert (status, health) == (200, {"ok": True})
        assert not [
            r for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ]

    def test_scheduler_stats_endpoint(self, async_service):
        server, scheduler, _store = async_service
        status, _headers, stats = _http(
            server, "GET", "/scheduler/stats"
        )
        assert status == 200
        assert stats["workers"] == scheduler.workers
        assert {"queued", "running", "rejected"} <= set(stats)

    def test_store_gc_endpoint(self, async_service):
        server, _scheduler, store = async_service
        store.merge_memo("ab" * 32, [(("k",), 1.0)])
        store.put("ab" * 32, _fake_result())
        status, _headers, report = _http(
            server, "POST", "/store/gc", body={}
        )
        assert status == 200
        assert report["orphaned_memos"] == 1
        status, _headers, _body = _http(
            server, "POST", "/store/gc?stale=nope", body={}
        )
        assert status == 400

    def test_full_queue_maps_to_429_with_retry_after(self, store):
        scheduler = JobScheduler(
            store, workers=1, autostart=False, max_queue_depth=1,
            name="busy",
        )
        server = make_server("127.0.0.1", 0, scheduler, store)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            status, _h, _b = _http(
                server, "POST", "/jobs",
                body={"model": "lenet5", "power": 2.0},
            )
            assert status == 202  # queued (workers never started)
            status, headers, body = _http(
                server, "POST", "/jobs",
                body={"model": "lenet5", "power": 2.5},
            )
            assert status == 429
            assert float(headers["Retry-After"]) >= 1
            assert "queue full" in body["error"]
        finally:
            server.shutdown()
            thread.join(timeout=10)
            scheduler.shutdown(wait=True)

    def test_client_quota_maps_to_429(self, store):
        scheduler = JobScheduler(
            store, workers=1, autostart=False, name="quota"
        )
        server = make_server(
            "127.0.0.1", 0, scheduler, store, quota=1
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            status, _h, _b = _http(
                server, "POST", "/jobs",
                body={"model": "lenet5", "power": 2.0},
                headers={"X-Client-Id": "alice"},
            )
            assert status == 202
            status, headers, body = _http(
                server, "POST", "/jobs",
                body={"model": "lenet5", "power": 2.5},
                headers={"X-Client-Id": "alice"},
            )
            assert status == 429 and "quota" in body["error"]
            assert "Retry-After" in headers
            # another client is unaffected
            status, _h, _b = _http(
                server, "POST", "/jobs",
                body={"model": "lenet5", "power": 3.0},
                headers={"X-Client-Id": "bob"},
            )
            assert status == 202
        finally:
            server.shutdown()
            thread.join(timeout=10)
            scheduler.shutdown(wait=True)

    def test_evicted_job_id_is_410_over_http(self, store):
        scheduler = JobScheduler(
            store, workers=1, max_history=1, name="evict"
        )
        server = make_server("127.0.0.1", 0, scheduler, store)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            _prestore(store, _request(power=2.0))
            _prestore(store, _request(power=2.5))
            evicted = scheduler.submit(_request(power=2.0))
            scheduler.submit(_request(power=2.5))
            status, _h, body = _http(
                server, "GET", f"/jobs/{evicted.id}"
            )
            assert status == 410
            assert "evicted" in body["error"]
            status, _h, _b = _http(server, "GET", "/jobs/never")
            assert status == 404
        finally:
            server.shutdown()
            thread.join(timeout=10)
            scheduler.shutdown(wait=True)

    def test_reuse_port_servers_share_an_address(self, store):
        if not hasattr(socket, "SO_REUSEPORT"):
            pytest.skip("platform without SO_REUSEPORT")
        with JobScheduler(store, workers=1, name="rp") as scheduler:
            first = make_server(
                "127.0.0.1", 0, scheduler, store, reuse_port=True
            )
            port = first.server_address[1]
            try:
                second = make_server(
                    "127.0.0.1", port, scheduler, store,
                    reuse_port=True,
                )
                second.shutdown()
            finally:
                first.shutdown()
