"""serve-mix: store-hit reads beside cold writes in one service.

The service is ``repro serve --port 0 --workers 1`` in its own process
over a fresh store; set-up starts it and prewarms ``PREWARM`` keys.
Two keep-alive closed-loop connections then post ``POST /jobs?wait=1``
for the whole run: a reader repeats the prewarmed keys in a
seed-chosen order (store hits, the main operation) and a writer
submits never-seen fast-preset jobs (computed). The workload seed sets
the prewarm and writer request seeds and the reader's order.

An untraced run reports the calibrated hit p50 as its main latency
(see ``common.calibrated``): the store-read path. The p99, where a hit
waits for the writer's compute to release the service's interpreter,
is printed beside it. Over four sets of five to ten seeds, the
calibrated p99 spread 6.5-12.1% between runs, the p50 6.0-9.9%.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    CPUS,
    ROOT,
    SETUP_SAMPLES,
    Ledger,
    WorkDir,
    calibrate,
    calibrated,
    digest,
    median,
    note,
    percentile,
    pin,
    proc_peak_rss_mb,
    src_env,
)
from tracing import Stat, executor_extras, layer_metrics, overhead_extras

HERE = Path(__file__).resolve().parent

#: Writer models in rotation, each at about twice its fast-preset
#: feasibility floor.
MODELS = (("alexnet_cifar", 8.0), ("vgg8", 6.0), ("resnet18_cifar", 13.0))
PREWARM = 8
#: Reader samples needed so that ten lie beyond the run's p99.
MIN_HITS = 1000
#: Hard stop for one measured mix, whatever the sample counts.
MAX_MIX_SECONDS = 120.0

#: The mix runs in phases: in each, the service's threads share one
#: CPU and the load generator uses another, and the CPUs swap between
#: phases, so both CPUs' slow spells fall on the service alike.
#: Unpinned, cross-core wake-ups of the service's threads made hit p50
#: swing 1.6-6.0 ms and p99 35-80 ms between identical runs. The
#: service CPU's speed is calibrated between phases.
PHASES = 8


class Client:
    """Minimal keep-alive HTTP/1.1 JSON client on one connection."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def request(self, method: str, target: str,
                payload: Optional[dict] = None) -> Tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Content-Type: application/json\r\n\r\n")
        self.sock.sendall(head.encode() + body)
        status = int(self.rfile.readline().split()[1])
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, json.loads(self.rfile.read(length) or b"{}")

    def submit(self, job: dict) -> Tuple[int, dict]:
        return self.request("POST", "/jobs?wait=1&timeout=120", job)


class Service:
    """One ``repro serve`` process over a fresh store."""

    def __init__(self, work: Path, index: int,
                 trace_out: Optional[Path] = None) -> None:
        store = work / f"store-{index}"
        self.log = open(work / f"serve-{index}.log", "w")
        if trace_out is None:
            head = [sys.executable, "-m", "repro"]
        else:
            head = [sys.executable, str(HERE / "serve_traced.py"),
                    str(trace_out)]
        # Inherits the benchmark's CPU (``run.py`` pins it).
        self.proc = subprocess.Popen(
            head + ["serve", "--store", str(store), "--port", "0",
                    "--workers", "1"],
            cwd=str(ROOT), env=src_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        # Drain stdout on a thread: the pipe never fills, and lines
        # can be awaited with a timeout.
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        line = self.read_line(60.0)
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        host, port = line.split("http://")[1].split()[0].rsplit(":", 1)
        self.address = (host, int(port))

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)

    def read_line(self, timeout: float) -> str:
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            return ""

    def reset_trace(self) -> None:
        """Zero the traced service's statistics (after the prewarm)."""
        self.proc.send_signal(signal.SIGUSR1)
        while True:
            line = self.read_line(30.0)
            if not line:
                raise RuntimeError("traced service did not reset")
            if line.startswith("RESET"):
                return

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful: running jobs finish), then wait."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        finally:
            self.reader.join(timeout=10)
            self.proc.stdout.close()
            self.log.close()
        return self.proc.returncode


def request_plan(seed: int) -> Tuple[List[dict], Iterator[dict]]:
    """Prewarm jobs and the writer's endless never-seen jobs."""
    rng = random.Random(f"serve-mix:{seed}")
    used = set()

    def fresh(index: int) -> dict:
        model, power = MODELS[index % len(MODELS)]
        request_seed = rng.randrange(1, 2**31)
        while request_seed in used:
            request_seed = rng.randrange(1, 2**31)
        used.add(request_seed)
        return {"model": model, "power": power, "seed": request_seed}

    prewarm = [fresh(i) for i in range(PREWARM)]
    writer = (fresh(i) for i in itertools.count(PREWARM))
    return prewarm, writer


def start(work: Path, index: int, seed: int, ledger: Ledger,
          trace_out: Optional[Path] = None):
    """Start a service and prewarm it; returns it with its replies."""
    service = Service(work, index, trace_out)
    try:
        prewarm, _ = request_plan(seed)
        client = Client(service.address)
        try:
            replies = []
            for job in prewarm:
                status, reply = client.submit(job)
                ledger.check(
                    status == 200 and reply.get("state") == "done"
                    and reply.get("source") == "computed",
                    f"prewarm: status {status}, {reply.get('error')}",
                )
                replies.append(reply)
        finally:
            client.close()
    except BaseException:
        service.stop()
        raise
    return service, replies


def reader_order(seed: int, count: int) -> Iterator[int]:
    """Prewarmed key indexes, each round in a new seed-chosen order."""
    rng = random.Random(f"serve-mix-reader:{seed}")
    while True:
        order = list(range(count))
        rng.shuffle(order)
        yield from order


def calibrate_cpus() -> Dict[int, float]:
    """``calibrate()`` on every CPU in turn, from the calling thread."""
    cals = {}
    try:
        for cpu in CPUS:
            pin(cpu)
            cals[cpu] = calibrate()
    finally:
        pin(CPUS[0])
    return cals


def place_service(service: Service, cpu: int) -> None:
    """Pin every thread of the service to one CPU."""
    for tid in os.listdir(f"/proc/{service.proc.pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # a thread that has just ended


def mix(service: Service, seed: int, seconds: float,
        prewarm_replies: List[dict], ledger: Ledger) -> dict:
    """Run the reader and the writer side by side for ``seconds``, in
    ``PHASES`` phases with the CPUs swapped between them.

    Between phases the load stops, so the service idles while every CPU
    is calibrated. A request's time is spent on both CPUs, so a phase's
    latencies are rescaled by the mean calibration of the CPUs before
    and after it (see ``common.calibrated``); over 24 phases, that left
    the phase hit p99s half as spread as the service CPU's alone did.
    """
    prewarm, writer_jobs = request_plan(seed)
    keys = reader_order(seed, len(prewarm))
    lock = threading.Lock()
    run: Dict[str, list] = {
        name: [] for name in ("hits", "colds", "scaled_hits",
                              "scaled_colds", "waits", "reports",
                              "written")
    }
    errors: List[str] = []

    def reader(cpu: int, stop: threading.Event,
               writer_done: threading.Event, hits: List[float]) -> None:
        pin(cpu)
        client = Client(service.address)
        try:
            while not (stop.is_set() and writer_done.is_set()):
                index = next(keys)
                t0 = time.perf_counter()
                status, reply = client.submit(prewarm[index])
                elapsed = time.perf_counter() - t0
                expected = prewarm_replies[index]
                with lock:
                    hits.append(elapsed)
                    ledger.check(
                        status == 200
                        and reply.get("state") == "done"
                        and reply.get("source") == "store"
                        and reply.get("metrics") == expected["metrics"],
                        f"reader: status {status}, source "
                        f"{reply.get('source')}",
                    )
        except Exception as exc:
            errors.append(f"reader: {exc!r}")
        finally:
            client.close()

    def writer(cpu: int, stop: threading.Event,
               writer_done: threading.Event, colds: List[float]) -> None:
        pin(cpu)
        client = Client(service.address)
        try:
            while not stop.is_set():
                t0 = time.perf_counter()
                status, reply = client.submit(next(writer_jobs))
                elapsed = time.perf_counter() - t0
                with lock:
                    ok = ledger.check(
                        status == 200 and reply.get("state") == "done"
                        and reply.get("source") == "computed",
                        f"writer: status {status}, source "
                        f"{reply.get('source')}, {reply.get('error')}",
                    )
                    if ok:
                        colds.append(elapsed)
                        run["waits"].append(
                            reply["started_at"] - reply["submitted_at"]
                        )
                        run["reports"].append(reply["report"])
                        run["written"].append(
                            (reply["key"], digest(reply["metrics"]))
                        )
        except Exception as exc:
            errors.append(f"writer: {exc!r}")
        finally:
            writer_done.set()
            client.close()

    started = time.perf_counter()
    hard_stop = started + MAX_MIX_SECONDS
    cals = calibrate_cpus()
    for phase in range(PHASES):
        service_cpu = CPUS[phase % len(CPUS)]
        client_cpu = CPUS[(phase + 1) % len(CPUS)]
        place_service(service, service_cpu)
        stop, writer_done = threading.Event(), threading.Event()
        hits: List[float] = []
        colds: List[float] = []
        threads = [
            threading.Thread(target=reader,
                             args=(client_cpu, stop, writer_done, hits)),
            threading.Thread(target=writer,
                             args=(client_cpu, stop, writer_done, colds)),
        ]
        for thread in threads:
            thread.start()
        deadline = time.perf_counter() + seconds / PHASES
        last = phase == PHASES - 1
        while time.perf_counter() < hard_stop and (
            time.perf_counter() < deadline
            or last and len(run["hits"]) + len(hits) < MIN_HITS
        ):
            time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=MAX_MIX_SECONDS)
            if thread.is_alive():
                errors.append("a load thread did not finish")
        after = calibrate_cpus()
        speeds = (sum(cals.values()) / len(cals),
                  sum(after.values()) / len(after))
        run["hits"] += hits
        run["colds"] += colds
        run["scaled_hits"] += [calibrated(h, *speeds) for h in hits]
        run["scaled_colds"] += [calibrated(c, *speeds) for c in colds]
        cals = after
        if errors:
            break
    wall = time.perf_counter() - started
    for error in errors:
        ledger.fail_run(error)

    client = Client(service.address)
    try:
        _, sched = client.request("GET", "/scheduler/stats")
        _, store = client.request("GET", "/store/stats")
    finally:
        client.close()
    if sched.get("failures") != 0 or sched.get("rejected") != 0:
        ledger.fail_run(
            f"scheduler stats: failures {sched.get('failures')}, "
            f"rejected {sched.get('rejected')}"
        )
    lookups = store.get("hits", 0) + store.get("misses", 0)
    return {
        **run, "wall": wall,
        "hit_ratio": store.get("hits", 0) / lookups if lookups else 0.0,
    }


def summarize(run: dict) -> float:
    """Print the run's figures; return its calibrated hit p50 (ms)."""
    hits, colds = run["hits"], run["colds"]
    note(f"hit_p50_ms {median(hits) * 1e3:.4f} ms, hit_p99_ms "
         f"{percentile(hits, 99) * 1e3:.4f} ms ({len(hits)} reads), "
         f"cold_p50_ms {median(colds) * 1e3:.4f} ms ({len(colds)} "
         f"writes), {(len(hits) + len(colds)) / run['wall']:.1f} "
         "requests/s")
    p50 = median(run["scaled_hits"]) * 1e3
    note(f"calibrated: hit_p50_ms {p50:.4f} ms, hit_p99_ms "
         f"{percentile(run['scaled_hits'], 99) * 1e3:.4f} ms, "
         f"cold_p50_ms {median(run['scaled_colds']) * 1e3:.4f} ms")
    return p50


class ServeMix:
    """Set-up is timed in-process: it is the service's start-up."""

    def run(self, seed: int, seconds: float, trace: bool
            ) -> Tuple[Ledger, Dict[str, Tuple[float, str]]]:
        ledger = Ledger()
        with WorkDir() as work:
            if trace:
                return ledger, self._traced(work, seed, seconds, ledger)
            setups = []
            service = None
            try:
                for index in range(SETUP_SAMPLES):
                    if service is not None:
                        ledger.check(service.stop() == 0,
                                     "service exited with an error")
                        service = None
                    pin(CPUS[index % len(CPUS)])  # the service inherits it
                    before = calibrate()
                    t0 = time.perf_counter()
                    service, replies = start(work, index, seed, ledger)
                    elapsed = time.perf_counter() - t0
                    setups.append(calibrated(elapsed, before, calibrate()))
                pin(CPUS[0])
                run = mix(service, seed, seconds, replies, ledger)
                rss = service.peak_rss_mb()
            finally:
                if service is not None:
                    ledger.check(service.stop() == 0,
                                 "service exited with an error")
        return ledger, {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
            "main_ms": (summarize(run), "ms"),
        }

    def _traced(self, work: Path, seed: int, seconds: float,
                ledger: Ledger) -> Dict[str, float]:
        service, replies = start(work, 0, seed, ledger)
        try:
            plain = mix(service, seed, seconds, replies, ledger)
        finally:
            ledger.check(service.stop() == 0,
                         "service exited with an error")
        summarize(plain)
        plain_p50 = median(plain["hits"]) * 1e3

        trace_out = work / "trace.json"
        service, traced_replies = start(work, 1, seed, ledger, trace_out)
        try:
            service.reset_trace()
            traced = mix(service, seed, seconds, traced_replies, ledger)
        finally:
            ledger.check(service.stop() == 0,
                         "traced service exited with an error")
        summarize(traced)
        traced_p50 = median(traced["hits"]) * 1e3
        dump = json.loads(trace_out.read_text())
        if not dump["restored"]:
            ledger.fail_run("tracer left a wrapper installed")
        common = min(len(plain["written"]), len(traced["written"]))
        if (
            [r["metrics"] for r in replies]
            != [r["metrics"] for r in traced_replies]
            or plain["written"][:common] != traced["written"][:common]
        ):
            ledger.fail_run("traced service results differ from untraced")

        stats = {key: Stat.from_payload(s)
                 for key, s in dump["stats"].items()}
        synth = stats.get("synth", Stat())
        submit_hit_ms = median(
            stats.get("scheduler.submit", Stat()).samples.get("hit", [])
        ) * 1e3
        extras = {
            **executor_extras(traced["reports"]),
            **overhead_extras(traced_p50, plain_p50),
            "api.self_ms": traced_p50 - submit_hit_ms,
            "scheduler.queue_wait_ms": median(traced["waits"]) * 1e3,
            "store.hit_ratio": traced["hit_ratio"],
            "serve.synth_ms": median(synth.samples.get("all", [])) * 1e3,
            "serve.synth_calls": synth.calls,
        }
        return layer_metrics(stats, synth.calls, extras)
