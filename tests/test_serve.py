"""Tests for the persistent synthesis service (`repro.serve`).

The load-bearing contracts:

1. job content keys follow the executor memo's fingerprint scheme —
   sensitive to everything that changes a result, blind to
   execution-only knobs (``jobs``, pruning);
2. a repeated request is served from the content-addressed store with
   *zero* evaluator calls and a byte-identical artifact;
3. two schedulers sharing one store directory never corrupt results
   and never double-run an identical job;
4. a batch manifest's results match the corresponding serial
   ``Pimsyn.synthesize`` runs exactly, with overlap deduplicated.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.errors import (
    ConfigurationError,
    ModelError,
    PimsynError,
    SchedulerBusyError,
)
from repro.nn import lenet5
from repro.nn.onnx_io import model_to_json
from repro.serve import (
    JobRequest,
    JobScheduler,
    ResultStore,
    expand_manifest,
    make_server,
    run_batch,
)
from repro.serve.job import JobState


def _request(power=2.0, seed=7, **kwargs) -> JobRequest:
    return JobRequest(
        model="lenet5", total_power=power, seed=seed, **kwargs
    )


def _interrupt_second_wave(monkeypatch) -> None:
    """Make the second EA wave of the next synthesis raise
    KeyboardInterrupt, as Ctrl-C would, after one finished wave."""
    from repro.core import executor as executor_mod

    calls = {"n": 0}
    original = executor_mod._TaskRunner.run_tasks

    def _interrupting(self, tasks):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return original(self, tasks)

    monkeypatch.setattr(
        executor_mod._TaskRunner, "run_tasks", _interrupting
    )


def _unpruned_request() -> JobRequest:
    # pruning off (execution-only: same content key) so the walk
    # reaches a second run_tasks call to interrupt: lenet5's 24 tasks
    # go out in waves of 16
    return _request(overrides={"prune_dominated": False})


def _serial_solution(power=2.0, seed=7, **overrides):
    config = SynthesisConfig.fast(
        total_power=power, seed=seed, **overrides
    )
    return Pimsyn(lenet5(), config).synthesize()


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


class _GatedStore(ResultStore):
    """A store whose read of one key waits for ``release``, then raises
    ``error`` or, when it is None, misses."""

    def __init__(self, root, key, error):
        super().__init__(root)
        self.gated_key = key
        self.error = error
        self.entered = threading.Event()
        self.release = threading.Event()

    def get(self, key):
        if key != self.gated_key:
            return super().get(key)
        self.entered.set()
        assert self.release.wait(timeout=10)
        if self.error is not None:
            raise self.error
        return None


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------
class TestJobContentKey:
    def test_deterministic(self):
        assert _request().content_key() == _request().content_key()

    def test_sensitive_to_result_inputs(self):
        base = _request().content_key()
        assert _request(power=3.0).content_key() != base
        assert _request(seed=8).content_key() != base
        assert JobRequest(
            model="alexnet_cifar", total_power=2.0, seed=7
        ).content_key() != base
        assert _request(
            overrides={"enable_macro_sharing": False}
        ).content_key() != base

    def test_blind_to_execution_knobs(self):
        base = _request().content_key()
        assert _request(
            overrides={"prune_dominated": False}
        ).content_key() == base

    def test_share_eval_cache_override_is_rejected(self):
        """The memo is no config field, so a request naming it fails as
        an unknown override instead of being silently dropped."""
        with pytest.raises(
            ConfigurationError,
            match=r"unknown config overrides \['share_eval_cache'\]",
        ):
            _request(overrides={"share_eval_cache": False})

    def test_scheduler_owned_knobs_rejected_as_overrides(self):
        # 'jobs' belongs to the scheduler and 'seed' has its own
        # field; accepting them as overrides would silently ignore or
        # duplicate them.
        with pytest.raises(ConfigurationError):
            _request(overrides={"jobs": 4})
        with pytest.raises(ConfigurationError):
            _request(overrides={"seed": 99})

    def test_json_lists_normalize_to_tuples(self):
        native = _request(
            overrides={"xb_size_choices": (128, 256)}
        ).content_key()
        from_json = _request(
            overrides={"xb_size_choices": [128, 256]}
        ).content_key()
        assert native == from_json

    def test_inline_model_matches_zoo_model(self):
        document = json.loads(model_to_json(lenet5()))
        inline = JobRequest(
            model=document, total_power=2.0, seed=7
        )
        assert inline.content_key() == _request().content_key()

    def test_bad_inputs_rejected_at_submission_time(self):
        with pytest.raises(ConfigurationError):
            JobRequest(model="lenet5", total_power=2.0, preset="warp")
        with pytest.raises(ConfigurationError):
            JobRequest(model="lenet5", total_power=2.0,
                       overrides={"not_a_knob": 1})
        with pytest.raises(ModelError):
            JobRequest(model="nope", total_power=2.0).content_key()
        with pytest.raises(ModelError, match="'c1'.*'out_channels'"):
            JobRequest.from_payload({"power": 2.0, "model": {
                "name": "bad", "input_shape": [3, 8, 8],
                "nodes": [{"op": "Conv", "name": "c1",
                           "inputs": ["input"], "attrs": {"kernel": 3}}],
            }}).content_key()

    def test_from_payload_validation(self):
        with pytest.raises(ConfigurationError):
            JobRequest.from_payload({"power": 2.0})  # no model
        with pytest.raises(ConfigurationError):
            JobRequest.from_payload({"model": "lenet5"})  # no power
        with pytest.raises(ConfigurationError):
            JobRequest.from_payload(
                {"model": "lenet5", "power": "lots"}
            )
        with pytest.raises(ConfigurationError):
            JobRequest.from_payload(
                {"model": "lenet5", "power": 2.0, "surprise": 1}
            )
        with pytest.raises(ConfigurationError):
            JobRequest.from_payload(  # non-integer seed -> 400, not 500
                {"model": "lenet5", "power": 2.0, "seed": "abc"}
            )
        with pytest.raises(ConfigurationError):
            JobRequest.from_payload({  # ambiguous alias pair
                "model": "lenet5", "power": 2.0,
                "config": {}, "overrides": {"ea_patience": 2},
            })
        request = JobRequest.from_payload({
            "model": "lenet5", "power": 2.0, "seed": 7,
            "config": {"enable_macro_sharing": False},
        })
        assert request.total_power == 2.0
        assert request.overrides == {"enable_macro_sharing": False}


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_roundtrip_and_byte_identity(self, store):
        payload = {"schema": 1, "solution": {"model": "x"}}
        store.put("a" * 32, payload)
        assert store.get("a" * 32) == payload
        assert store.get_bytes("a" * 32) == store.get_bytes("a" * 32)

    def test_first_write_wins(self, store):
        store.put("b" * 32, {"v": 1})
        store.put("b" * 32, {"v": 2})
        assert store.get("b" * 32) == {"v": 1}

    def test_hit_miss_accounting(self, store):
        assert store.get("c" * 32) is None
        store.put("c" * 32, {})
        assert store.get("c" * 32) == {}
        assert store.hits == 1 and store.misses == 1

    def test_malformed_keys_rejected(self, store):
        for bad in ("", "../escape", "a/b", "a.b"):
            with pytest.raises(ConfigurationError):
                store.get(bad)

    def test_claims_are_exclusive_and_releasable(self, store):
        key = "d" * 32
        assert store.claim(key, owner="one")
        assert not store.claim(key, owner="two")
        store.release(key)
        assert store.claim(key, owner="two")
        store.release(key)

    def test_stale_claims_are_broken(self, store):
        key = "e" * 32
        assert store.claim(key, owner="dead")
        assert store.claim(key, owner="alive", stale_after=0.0)

    def test_memo_merge_roundtrip(self, store):
        key = "f" * 32
        entries = [
            ((("m", "p", 0.3, 2, 128, 64, (1, 2), 1), (1, 5, 9)), 2.5),
            ((("m", "p", 0.3, 2, 128, 64, (1, 2), 1), (2, 5, 9)), 1.5),
        ]
        assert store.merge_memo(key, entries) == 2
        assert sorted(store.load_memo(key)) == sorted(entries)
        # merging again is idempotent; first value wins per key
        more = [entries[0][:1] + (9.9,), ((("m",), (3,)), 0.5)]
        assert store.merge_memo(key, more) == 3
        loaded = dict(store.load_memo(key))
        assert loaded[entries[0][0]] == 2.5

    def test_stats_and_archive_reuse(self, store, tmp_path):
        solution = _serial_solution()
        from repro.serve import result_payload
        from repro.core.synthesizer import SynthesisReport

        store.put("9" * 32, result_payload(
            _request(), "9" * 32, solution, SynthesisReport()
        ))
        stats = store.stats()
        assert stats.results == 1
        assert stats.models == {"lenet5": 1}
        assert stats.result_bytes > 0
        archive = store.to_archive()
        assert len(archive) == 1
        assert archive.best().throughput == pytest.approx(
            solution.evaluation.throughput
        )


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class TestScheduler:
    def test_repeat_request_is_store_hit_with_zero_evaluator_calls(
        self, store, monkeypatch
    ):
        with JobScheduler(store, workers=1) as scheduler:
            first = scheduler.submit(_request())
            scheduler.wait(first.id, timeout=60)
            assert first.state == JobState.DONE
            assert not first.cache_hit
            assert first.report["ea_evaluations"] > 0
            assert scheduler.executed == 1

            # From here on, any synthesis attempt is a test failure.
            import repro.serve.scheduler as sched_mod

            def _bomb(*_a, **_k):
                raise AssertionError(
                    "store hit must not invoke the synthesizer"
                )

            monkeypatch.setattr(sched_mod, "Pimsyn", _bomb)
            second = scheduler.submit(_request())
            scheduler.wait(second.id, timeout=60)
            assert second.state == JobState.DONE
            assert second.cache_hit and second.source == "store"
            assert scheduler.executed == 1
            assert store.hits >= 1
            # byte-identical artifacts, matching the serial engine
            artifact = store.get_bytes(first.key)
            assert artifact == store.get_bytes(second.key)
            payload = json.loads(artifact.decode())
            assert payload["solution"] == (
                _serial_solution().to_payload()
            )

    def test_failing_store_read_leaves_no_phantom_job(self, store):
        """A torn result document makes submit()'s store read raise;
        the record it registered first must go with it, or every later
        submit of the key joins a job that is never queued and drain()
        never returns."""
        key = _request().content_key()
        store._result_path(key).write_bytes(b'{"schema": 1, "solu')
        with JobScheduler(store, workers=1) as scheduler:
            for _ in range(2):
                with pytest.raises(ValueError):
                    scheduler.submit(_request())
            assert scheduler.stats()["records"] == 0
            assert scheduler.drain(timeout=1)

    def test_job_over_an_unreadable_memo_runs_cold(self, store, tmp_path):
        """A memo of the wrong shape does not poison its key: the job
        runs cold and stores the solution a fresh store computes."""
        key = _request().content_key()
        store._memo_path(key).write_text('{"entries": 5}')
        cold_store = ResultStore(tmp_path / "cold")
        with JobScheduler(cold_store, workers=1) as scheduler:
            cold = scheduler.submit(_request())
            scheduler.wait(cold.id, timeout=60)
        with JobScheduler(store, workers=1) as scheduler:
            record = scheduler.submit(_request())
            scheduler.wait(record.id, timeout=60)
        assert record.state == JobState.DONE, record.error
        assert record.source == "computed"
        assert store.get(key)["solution"] == (
            cold_store.get(cold.key)["solution"]
        )
        assert record.report["cache_hits"] == cold.report["cache_hits"]
        assert record.report["ea_evaluations"] == (
            cold.report["ea_evaluations"]
        )

    @pytest.mark.parametrize(
        "torn", (True, False), ids=("store-error", "queue-full")
    )
    def test_a_submit_that_joined_a_dropped_record_sees_it_fail(
        self, tmp_path, torn
    ):
        """A duplicate submit joins the record of a submit whose store
        read is still running. When that read raises, or its miss finds
        the queue full, the record is dropped, and the joiner's wait
        (the API's ``?wait=1``) must get a failed record, not block
        until its timeout."""
        store = _GatedStore(
            tmp_path / "store", _request().content_key(),
            ValueError("torn result") if torn else None,
        )
        scheduler = JobScheduler(
            store, workers=1, autostart=False, max_queue_depth=1
        )
        scheduler.submit(_request(power=3.0))  # fills the queue
        raised = []

        def first_submit():
            try:
                scheduler.submit(_request())
            except (PimsynError, ValueError) as error:
                raised.append(error)

        thread = threading.Thread(target=first_submit)
        thread.start()
        try:
            assert store.entered.wait(timeout=10)
            joined = scheduler.submit(_request())
        finally:
            store.release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        record = scheduler.wait_record(joined, timeout=5)
        assert record.state == JobState.FAILED
        if torn:
            assert type(raised[0]) is ValueError
            assert "torn result" in record.error
        else:
            assert type(raised[0]) is SchedulerBusyError
            assert record.error == "queue full"
        assert scheduler.stats()["records"] == 1  # the queued job
        scheduler.shutdown()

    def test_inflight_duplicates_coalesce(self, store):
        scheduler = JobScheduler(store, workers=1, autostart=False)
        a = scheduler.submit(_request())
        b = scheduler.submit(_request())
        assert a is b
        scheduler.start()
        scheduler.drain(timeout=60)
        scheduler.shutdown()
        assert scheduler.executed == 1

    def test_priority_orders_queue_fifo_within_level(self, store):
        scheduler = JobScheduler(store, workers=1, autostart=False)
        low1 = scheduler.submit(_request(power=2.0))
        high = scheduler.submit(_request(power=2.5, priority=5))
        low2 = scheduler.submit(_request(power=3.0))
        order = [
            scheduler._queue.get()[2] for _ in range(3)
        ]
        assert order == [high.id, low1.id, low2.id]

    def test_shutdown_fails_queued_jobs_instead_of_orphaning(
        self, store
    ):
        scheduler = JobScheduler(store, workers=1, autostart=False)
        a = scheduler.submit(_request())
        b = scheduler.submit(_request(power=2.5))
        scheduler.shutdown(wait=True)
        # every record is terminal: a waiting client gets an answer
        assert a.state == JobState.FAILED
        assert b.state == JobState.FAILED
        assert "shut down" in a.error
        assert scheduler.drain(timeout=1)

    def test_history_eviction_is_bounded(self, store):
        with JobScheduler(
            store, workers=1, max_history=2
        ) as scheduler:
            records = [
                scheduler.submit(_request(power=2.0 + 0.5 * i))
                for i in range(4)
            ]
            scheduler.drain(timeout=120)
            assert len(scheduler.jobs()) == 2
            # newest records survive; oldest were evicted
            assert scheduler.job(records[-1].id) is not None
            assert scheduler.job(records[0].id) is None

    def test_failed_job_is_isolated(self, store):
        with JobScheduler(store, workers=1) as scheduler:
            bad = scheduler.submit(_request(power=1e-4))  # infeasible
            good = scheduler.submit(_request())
            scheduler.drain(timeout=120)
            assert bad.state == JobState.FAILED
            assert "InfeasibleError" in bad.error
            assert good.state == JobState.DONE
            assert scheduler.failures == 1
            # the failed key left no claim behind
            assert not store.claimed(bad.key)

    def test_two_schedulers_share_one_store_without_double_running(
        self, store
    ):
        request = _request(power=2.5)
        with JobScheduler(store, workers=2, name="a") as a, \
                JobScheduler(store, workers=2, name="b") as b:
            record_a = a.submit(request)
            record_b = b.submit(_request(power=2.5))
            a.wait(record_a.id, timeout=120)
            b.wait(record_b.id, timeout=120)
            assert record_a.state == JobState.DONE
            assert record_b.state == JobState.DONE
            assert a.executed + b.executed == 1
        # one uncorrupted result both agree on
        assert record_a.key == record_b.key
        payload = store.get(record_a.key)
        assert payload["solution"]["metrics"]["throughput_img_s"] > 0

    def test_interrupted_job_persists_partial_memo(
        self, store, monkeypatch
    ):
        _interrupt_second_wave(monkeypatch)
        with JobScheduler(store, workers=1) as scheduler:
            record = scheduler.submit(_unpruned_request())
            scheduler.wait(record.id, timeout=60)
            assert record.state == JobState.FAILED
            assert "interrupted" in record.error
            assert not store.claimed(record.key)
        # the two completed tasks' evaluations survived to disk
        assert len(store.load_memo(record.key)) > 0

    def test_partial_memo_is_written_before_the_claim_is_released(
        self, store, monkeypatch
    ):
        """A peer scheduler may take the key the moment the claim goes,
        so the memo it resumes from must already be on disk."""
        _interrupt_second_wave(monkeypatch)
        memo_at_release = []
        original = ResultStore.release

        def _spy(self, key):
            memo_at_release.append(len(self.load_memo(key)))
            original(self, key)

        monkeypatch.setattr(ResultStore, "release", _spy)
        with JobScheduler(store, workers=1) as scheduler:
            record = scheduler.submit(_unpruned_request())
            scheduler.wait(record.id, timeout=60)
        assert record.state == JobState.FAILED
        assert memo_at_release == [len(store.load_memo(record.key))]
        assert memo_at_release[0] > 0

    def test_resubmitted_interrupted_job_resumes(
        self, store, tmp_path, monkeypatch
    ):
        """The memo's one reader: a resubmission of an interrupted job
        replays its finished tasks and stores the uninterrupted run's
        solution, byte for byte."""
        cold_store = ResultStore(tmp_path / "cold")
        with JobScheduler(cold_store, workers=1) as scheduler:
            cold = scheduler.submit(_unpruned_request())
            scheduler.wait(cold.id, timeout=60)
        assert cold.state == JobState.DONE
        # a job computed without interruption persists no memo
        assert cold_store.stats().memo_files == 0

        with monkeypatch.context() as patch:
            _interrupt_second_wave(patch)
            with JobScheduler(store, workers=1) as scheduler:
                first = scheduler.submit(_unpruned_request())
                scheduler.wait(first.id, timeout=60)
        assert first.state == JobState.FAILED
        assert store.stats().memo_files == 1

        with JobScheduler(store, workers=1) as scheduler:
            resumed = scheduler.submit(_unpruned_request())
            scheduler.wait(resumed.id, timeout=60)
        assert resumed.state == JobState.DONE
        assert resumed.source == "computed"
        assert resumed.key == cold.key

        def solution_bytes(result_store, key):
            return json.dumps(result_store.get(key)["solution"]).encode()

        assert solution_bytes(store, resumed.key) == solution_bytes(
            cold_store, cold.key
        )
        hits = resumed.report["cache_hits"]
        evaluations = resumed.report["ea_evaluations"]
        assert hits > cold.report["cache_hits"]
        assert evaluations < cold.report["ea_evaluations"]
        # the same walk: every lookup is either a hit or an evaluation
        assert hits + evaluations == (
            cold.report["cache_hits"] + cold.report["ea_evaluations"]
        )
        # the resumed job wrote no memo of its own, and gc drops the
        # interrupted one now that the key's result exists
        assert store.stats().memo_files == 1
        assert store.gc().orphaned_memos == 1


# ----------------------------------------------------------------------
# Batch manifests
# ----------------------------------------------------------------------
class TestBatch:
    def test_expand_validates(self):
        with pytest.raises(ConfigurationError):
            expand_manifest({})
        with pytest.raises(ConfigurationError):
            expand_manifest({"models": ["lenet5"]})
        with pytest.raises(ConfigurationError):
            expand_manifest({
                "models": ["lenet5"], "powers": [2.0], "oops": 1,
            })
        with pytest.raises(ConfigurationError):
            expand_manifest(  # scalar, not a list: no per-char jobs
                {"models": "lenet5", "powers": [2.0]}
            )
        with pytest.raises(ConfigurationError):
            expand_manifest({
                "models": ["lenet5"], "powers": [2.0], "seed": "auto",
            })
        requests = expand_manifest({
            "models": ["lenet5"], "powers": [2.0, 3.0],
            "configs": [{}, {"enable_macro_sharing": False}],
            "seed": 7,
            "jobs": [{"model": "lenet5", "power": 4.0}],
        })
        assert len(requests) == 5

    def test_overlapping_manifest_matches_serial_runs(self, store):
        # >= 6 jobs, 3 unique keys: the dedup + store path must return
        # exactly what one-shot serial synthesis returns, per job.
        manifest = {
            "models": ["lenet5"],
            "powers": [2.0, 2.5, 3.0],
            # execution-only knob: both configs map to the same keys
            "configs": [{}, {"prune_dominated": False}],
            "seed": 7,
        }
        report = run_batch(manifest, store, workers=2)
        assert report.requested == 6
        assert report.unique == 3
        assert report.executed == 3
        assert report.failures == 0
        assert len(report.rows) == 6
        for row in report.rows:
            serial = _serial_solution(power=row.total_power)
            assert row.throughput == pytest.approx(
                serial.evaluation.throughput
            )
            stored = store.get(row.key)
            assert stored["solution"] == serial.to_payload()

    def test_second_batch_run_is_all_store_hits(self, store):
        manifest = {
            "models": ["lenet5"], "powers": [2.0, 2.5], "seed": 7,
        }
        first = run_batch(manifest, store)
        second = run_batch(manifest, store)
        assert first.executed == 2
        assert second.executed == 0
        assert second.store_hits == 2
        assert [r.throughput for r in first.rows] == [
            r.throughput for r in second.rows
        ]

    def test_yaml_manifest(self, store, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump({
            "models": ["lenet5"], "powers": [2.0], "seed": 7,
        }))
        from repro.serve import run_batch_file

        report = run_batch_file(path, store)
        assert report.requested == 1
        assert report.rows[0].state == JobState.DONE

    def test_batch_cli_round_trip(self, store, tmp_path, capsys):
        from repro.cli import main

        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "models": ["lenet5"], "powers": [2.0], "seed": 7,
        }))
        out = tmp_path / "report.json"
        assert main([
            "batch", "--manifest", str(manifest),
            "--store", str(store.root), "--out", str(out),
        ]) == 0
        assert "batch: 1 jobs" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["requested"] == 1
        assert payload["rows"][0]["state"] == "done"


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
@pytest.fixture()
def service(store):
    scheduler = JobScheduler(store, workers=2, name="api")
    server = make_server("127.0.0.1", 0, scheduler, store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, scheduler, store
    finally:
        server.shutdown()
        scheduler.shutdown(wait=True)


def _get(server, path):
    port = server.server_address[1]
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}"
    ) as response:
        return response.status, json.loads(response.read().decode())


def _post(server, body, query="?wait=1"):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/jobs{query}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read().decode())


class TestApi:
    def test_submit_wait_fetch_roundtrip(self, service):
        server, scheduler, store = service
        status, record = _post(
            server, {"model": "lenet5", "power": 2.0, "seed": 7}
        )
        assert status == 200
        assert record["state"] == "done"
        assert record["cache_hit"] is False
        assert record["metrics"]["throughput_img_s"] > 0

        status, again = _post(
            server, {"model": "lenet5", "power": 2.0, "seed": 7}
        )
        assert again["cache_hit"] is True
        assert again["key"] == record["key"]

        status, fetched = _get(server, f"/jobs/{record['id']}")
        assert status == 200 and fetched["state"] == "done"

        port = server.server_address[1]
        url = f"http://127.0.0.1:{port}/results/{record['key']}"
        with urllib.request.urlopen(url) as response:
            first = response.read()
        with urllib.request.urlopen(url) as response:
            assert response.read() == first  # byte-identical
        assert json.loads(first.decode())["solution"]["model"] == (
            "lenet5"
        )

    def test_stats_models_health(self, service):
        server, _scheduler, _store = service
        status, health = _get(server, "/healthz")
        assert status == 200 and health == {"ok": True}
        status, stats = _get(server, "/store/stats")
        assert status == 200 and "results" in stats
        assert "legacy_files" not in stats
        status, models = _get(server, "/models")
        names = [entry["name"] for entry in models["models"]]
        assert "lenet5" in names and "vgg16" in names

    def test_error_mapping(self, service):
        server, _scheduler, _store = service
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, {"model": "nope", "power": 2.0})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, {"model": "lenet5"})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, {"model": "lenet5", "power": 2.0,
                           "config": {"backend": "python"}})
        assert err.value.code == 400
        assert "unknown config overrides ['backend']" in \
            err.value.read().decode()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, {"model": "lenet5", "power": 2.0,
                           "config": {"batch_eval": False}})
        assert err.value.code == 400
        assert "unknown config overrides ['batch_eval']" in \
            err.value.read().decode()
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/jobs/unknown-id")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/results/" + "0" * 32)
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/nowhere")
        assert err.value.code == 404


    @pytest.mark.parametrize("config", [
        {"sa_cooling_rate": 1.5},
        {"ea_population_size": 0},
        # Wrong types used to queue the job (it failed later) or answer
        # 500; NaN and True used to run.
        {"ea_patience": "5"},
        {"ea_patience": 0},
        {"ea_population_size": "8"},
        {"ea_max_generations": True},
        {"max_blocks_per_layer": 2.5},
        {"sa_cooling_rate": "0.9"},
        {"sa_alpha": float("nan")},
        # The event wheel is no setting: naming it is an unknown
        # override.
        {"sim_engine": "python"},
    ], ids=[
        "sa_cooling_rate=1.5", "ea_population_size=0", "ea_patience='5'",
        "ea_patience=0", "ea_population_size='8'",
        "ea_max_generations=True", "max_blocks_per_layer=2.5",
        "sa_cooling_rate='0.9'", "sa_alpha=nan", "sim_engine='python'",
    ])
    def test_bad_search_schedule_is_a_400_and_never_queued(
        self, service, config
    ):
        server, scheduler, _store = service
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, {"model": "lenet5", "power": 2.0,
                           "config": config})
        assert err.value.code == 400
        assert scheduler.jobs() == []
        stats = scheduler.stats()
        assert (stats["queued"], stats["executed"]) == (0, 0)

    @pytest.mark.parametrize("attrs,field", [
        ({"kernel": 3}, "'out_channels'"),
        ({"kernel": None, "out_channels": 4}, "'kernel'"),
        ({"kernel": 3, "out_channels": 8.5}, "'out_channels'"),
    ], ids=["missing", "null", "non-integral"])
    def test_malformed_inline_model_is_a_400_and_never_queued(
        self, service, attrs, field
    ):
        """A malformed inline model document is a 400 naming the node
        and the field, not ``500 internal error: KeyError``, and no job
        is queued."""
        server, scheduler, _store = service
        document = {
            "name": "bad", "input_shape": [3, 8, 8],
            "nodes": [{"op": "Conv", "name": "c1", "inputs": ["input"],
                       "attrs": attrs}],
        }
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, {"model": document, "power": 2.0})
        assert err.value.code == 400
        message = err.value.read().decode()
        assert "'c1'" in message and field in message
        assert scheduler.jobs() == []

    def test_model_without_weighted_layers_is_a_400(self, service):
        server, scheduler, _store = service
        document = {"name": "empty", "input_shape": [3, 8, 8],
                    "nodes": []}
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, {"model": document, "power": 2.0})
        assert err.value.code == 400
        assert "no Conv or Gemm" in err.value.read().decode()
        assert scheduler.jobs() == []


def test_pimsyn_error_is_base_of_serve_errors():
    """Serve-layer rejections reuse the package error hierarchy."""
    assert issubclass(ConfigurationError, PimsynError)


class TestSchedulerTechnology:
    """The serve layer routes the device technology through content
    keys: per-request `tech` overrides and the scheduler's
    `default_tech` both key (and store) separately from reram."""

    def test_tech_override_produces_distinct_store_entries(self, store):
        with JobScheduler(store, workers=1) as scheduler:
            base = scheduler.submit(_request(power=4.0))
            lp = scheduler.submit(_request(
                power=4.0, overrides={"tech": "reram-lp"}
            ))
            scheduler.wait(base.id, timeout=120)
            scheduler.wait(lp.id, timeout=120)
        assert base.state == JobState.DONE
        assert lp.state == JobState.DONE
        assert base.key != lp.key
        assert scheduler.executed == 2
        assert store.get(base.key) is not None
        assert store.get(lp.key) is not None
        # Each stored request records its own technology.
        assert store.get(lp.key)["request"]["overrides"] == {
            "tech": "reram-lp"
        }

    def test_default_tech_stamped_before_keying(self, store):
        with JobScheduler(
            store, workers=1, default_tech="reram-lp"
        ) as scheduler:
            record = scheduler.submit(_request(power=4.0))
            scheduler.wait(record.id, timeout=120)
        assert record.state == JobState.DONE
        assert record.request.overrides["tech"] == "reram-lp"
        # The key equals an explicit reram-lp request's key — and not
        # a default-tech request's.
        assert record.key == _request(
            power=4.0, overrides={"tech": "reram-lp"}
        ).content_key()
        assert record.key != _request(power=4.0).content_key()

    def test_explicit_tech_wins_over_scheduler_default(self, store):
        scheduler = JobScheduler(
            store, workers=1, default_tech="reram-lp", autostart=False
        )
        record = scheduler.submit(_request(
            power=4.0, overrides={"tech": "sram-pim"}
        ))
        scheduler.shutdown(wait=False)
        assert record.request.overrides["tech"] == "sram-pim"

    def test_unknown_default_tech_rejected_at_startup(self, store):
        with pytest.raises(PimsynError):
            JobScheduler(
                store, workers=1, default_tech="finfet-9000",
                autostart=False,
            )

    def test_default_tech_invalidates_a_precomputed_key(self, store):
        """A caller may key a request before submitting (the batch
        runner's dedup does); the default-tech stamp must re-key it or
        the job would be stored under the reram address."""
        request = _request(power=4.0)
        stale = request.content_key()  # cached pre-stamp
        scheduler = JobScheduler(
            store, workers=1, default_tech="reram-lp", autostart=False
        )
        record = scheduler.submit(request)
        scheduler.shutdown(wait=False)
        assert record.key != stale
        assert record.key == _request(
            power=4.0, overrides={"tech": "reram-lp"}
        ).content_key()
