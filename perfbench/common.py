"""Helpers shared by the benchmark's workloads: paths, statistics, the
operation ledger, timing lanes, set-up sampling and the environment
stamp."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_PY = Path(__file__).resolve().parent / "run.py"

#: ``SynthesisConfig.seed`` of every design the benchmark synthesizes
#: for timing (ROADMAP's baseline seed). Synthesis work depends on this
#: seed — vgg16_cifar @ 40 W takes 2.4-5.3 s over seeds 1-10 — so it
#: stays fixed, and the workload seed varies only inputs whose cost
#: does not depend on it (see README.md).
DESIGN_SEED = 1

#: Fresh-process set-ups timed per run, alternating the CPU; ``setup_s``
#: is their median.
SETUP_SAMPLES = 5

#: A CPU-bound run times its operations in one lane per CPU at once
#: (see ``run_lanes``), samples the lane's CPU speed while they run
#: (see ``CpuSpeed``) and reports the median calibrated time. Each lane
#: times at least this many operations, and more while ``--seconds``
#: has not passed; only resnet18_cifar synthesis (11-19 s) is held to
#: the least.
LEAST_PER_LANE = 2

#: CPUs this process may use, read before any pinning.
CPUS = sorted(os.sched_getaffinity(0))

# Calibrated times. The machine this was tuned on (2 vCPUs under KVM,
# no CPU counters in the guest) runs each CPU at one of two speeds
# 1.6-1.7x apart, switching within seconds or holding for minutes, with
# no stolen time, so raw times of one workload moved by up to that
# factor between runs. Every timed end-to-end figure is therefore
# rescaled to the CPU speed at which ``CAL_LOOPS`` turns of ``spin``
# take ``CAL_REFERENCE_S`` of CPU time. ``spin`` shares no code with
# the program, so a program change moves a calibrated time as it moves
# the raw one.
CAL_LOOPS = 500_000
CAL_REFERENCE_S = 0.1
#: ``CpuSpeed`` spins this many turns (a few ms) every period.
SAMPLE_LOOPS = 20_000
SAMPLE_PERIOD_S = 0.1


def pin(cpu: int) -> None:
    """Run the calling thread, and what it starts later, on one CPU."""
    os.sched_setaffinity(0, {cpu})


def spin(loops: int) -> float:
    """CPU seconds this thread takes for ``loops`` turns of a fixed
    pure-Python loop: the speed of its CPU of the moment."""
    started = time.thread_time()
    acc, table = 0, {}
    for i in range(loops):
        acc += i * i % 7
        table[i % 101] = acc
    return time.thread_time() - started


def calibrate() -> float:
    """``spin(CAL_LOOPS)``, for a CPU that is otherwise idle."""
    return spin(CAL_LOOPS)


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, taking the CPU's speed from
    ``calibrate()`` just before and just after them."""
    return seconds * 2.0 * CAL_REFERENCE_S / (before + after)


class CpuSpeed:
    """Samples the speed of this process's CPU while operations run.

    A daemon thread runs ``spin(SAMPLE_LOOPS)`` every ``SAMPLE_PERIOD_S``
    on the process's one CPU. A sample is the thread's own CPU time, so
    waiting for the interpreter lock does not count. Calibrating only
    before and after each operation left resnet18_cifar synthesis
    (11-19 s, long enough for the speed to switch inside it) spread 10%
    over five seeds; sampling inside it, 2%.
    """

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []  # (at, cpu s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "CpuSpeed":
        self._sample_once()  # so every operation has a sample before it
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample_once(self) -> None:
        cpu = spin(SAMPLE_LOOPS)
        self._samples.append((time.perf_counter(), cpu))

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self._sample_once()

    def calibrated(self, started: float, ended: float) -> float:
        """The wall seconds from ``started`` to ``ended`` less the
        sampler's own CPU time, at the reference speed, taking the CPU's
        speed as the mean over the samples in between (or the last one
        before ``ended``)."""
        samples = list(self._samples)
        inside = [cpu for at, cpu in samples if started <= at <= ended]
        spent = sum(inside)
        if not inside:
            inside = [cpu for at, cpu in samples if at < ended][-1:]
        reference = CAL_REFERENCE_S * SAMPLE_LOOPS / CAL_LOOPS
        speed = sum(reference / cpu for cpu in inside) / len(inside)
        return (ended - started - spent) * speed


def src_env() -> Dict[str, str]:
    """Environment for child processes: ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def use_src() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """``pct``-th percentile (``statistics.quantiles`` cut points)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def digest(document) -> str:
    """sha256 of a JSON document's canonical encoding."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux: ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of another live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def note(text: str) -> None:
    """An informational output line (the result is always the last)."""
    print(f"# {text}", flush=True)


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return ok

    def fail_run(self, reason: str) -> None:
        """A whole-run check that failed (not one operation)."""
        self.failed += 1
        self.reasons.append(reason)

    def merge(self, other: "Ledger") -> None:
        """Add another lane's or run's operations to this ledger."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons)

    def to_payload(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": self.reasons}

    @classmethod
    def from_payload(cls, payload: dict) -> "Ledger":
        ledger = cls()
        ledger.attempted = payload["attempted"]
        ledger.failed = payload["failed"]
        ledger.reasons = list(payload["reasons"])
        return ledger


class WorkDir:
    """Scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = ROOT / ".perfbench-work" / str(os.getpid())

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *_exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def run_lanes(workload: str, args: dict) -> List[dict]:
    """The workload's ``lane(args)`` in one fresh ``run.py --lane``
    process per CPU, all at once, each pinned to its CPU; their results
    in CPU order. Arguments and results travel as JSON over the lanes'
    stdin and stdout, and every lane is waited for on every path out."""
    procs: List[subprocess.Popen] = []
    try:
        for cpu in CPUS:
            pin(cpu)  # the lane inherits it
            procs.append(subprocess.Popen(
                [sys.executable, str(RUN_PY), "--workload", workload,
                 "--lane"],
                cwd=str(ROOT), env=src_env(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True,
            ))
        pin(CPUS[0])
        request = json.dumps(args)
        for proc in procs:
            proc.stdin.write(request)
            proc.stdin.close()
        results = []
        for proc in procs:
            output = proc.stdout.read().splitlines()
            if proc.wait() != 0 or not output:
                raise RuntimeError(f"a {workload} lane failed")
            results.append(json.loads(output[-1]))
        return results
    finally:
        pin(CPUS[0])
        for proc in procs:
            if proc.poll() is None:  # interrupted, or another lane failed
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()


def timed_setups(workload: str, seed: int
                 ) -> Tuple[List[float], List[str]]:
    """Run the workload's set-up in fresh interpreters.

    Each child is ``run.py --setup-only`` on the next CPU in turn; it
    prints ``READY <data>`` once set up. Returns the seconds from spawn
    to that line, calibrated on the child's CPU, and the data, one entry
    per child.
    """
    samples: List[float] = []
    datas: List[str] = []
    try:
        for index in range(SETUP_SAMPLES):
            pin(CPUS[index % len(CPUS)])  # the child inherits it
            before = calibrate()
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(RUN_PY), "--workload", workload,
                 "--seed", str(seed), "--setup-only"],
                cwd=str(ROOT), env=src_env(), stdout=subprocess.PIPE,
                text=True,
            )
            ready = None
            try:
                for line in proc.stdout:
                    if line.startswith("READY"):
                        ready = time.perf_counter() - started
                        datas.append(line[len("READY"):].strip())
                        break
                proc.stdout.read()
                code = proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            if code != 0 or ready is None:
                raise RuntimeError(f"set-up child for {workload} failed")
            samples.append(calibrated(ready, before, calibrate()))
    finally:
        pin(CPUS[0])
    return samples, datas


def git_commit() -> Optional[str]:
    """HEAD when the checkout is itself a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def src_digest() -> str:
    """sha256 over ``src/`` Python sources: names the code measured
    when the checkout is not a git repository."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def env_stamp() -> Dict[str, object]:
    """What a result must not be compared across silently."""
    import numpy

    from repro.core.backend import backend_status, get_backend
    from repro.core.config import SynthesisConfig
    from repro.sim.cycle.engine import resolve_engine_name

    config = SynthesisConfig()
    available = {name: ok for name, ok, _ in backend_status()}
    return {
        "commit": git_commit(),
        "src_digest": src_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": available.get("numba", False),
        "torch": available.get("torch", False),
        "cupy": available.get("cupy", False),
        "backend": get_backend(config.backend).name,
        "sim_engine": resolve_engine_name(config.sim_engine),
        "nproc": os.cpu_count(),
        "cpus": CPUS,
    }
