#!/usr/bin/env python3
"""The repository benchmark.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

``NAME`` is one of ``WORKLOAD_NAMES`` below, or ``all`` to run every
workload in turn. Informational lines start with ``#``; the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics (tracing off);
``--trace 1`` reports the per-layer metrics of a traced run, including
the tracing overhead against an untraced run made alongside it.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys

from common import CPUS, ROOT, RUN_PY, SRC, env_stamp, note, pin, use_src

DEFAULT_SECONDS = 15


def _workloads():
    from serve_mix import ServeMix
    from synth import Synth
    from verify import VerifyZoo

    return {
        # Plain conv stack: the stage-1 SA filter dominates synthesis
        # and batched EA scoring is about a third of it.
        "synth-vgg16": Synth("synth-vgg16", "vgg16_cifar", 40.0),
        # Residual DAG, the mirror image: batched EA scoring dominates
        # and the SA filter is small.
        "synth-resnet18": Synth("synth-resnet18", "resnet18_cifar", 60.0),
        # The cycle simulator is under 1% of any synthesis, so only this
        # workload moves the ir/sim layers (DAG build, lowering, wheel).
        "verify-zoo": VerifyZoo(),
        # Reads beside compute and writes in one service: hit latency is
        # the store-read path, cold latency compute plus store writes,
        # and both contend for the service's interpreter.
        "serve-mix": ServeMix(),
    }


WORKLOAD_NAMES = ("synth-vgg16", "synth-resnet18", "verify-zoo", "serve-mix")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--lane", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process; a summary line per metric."""
    code, lines = 0, []
    for name in WORKLOAD_NAMES:
        note(f"== {name}")
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        output = proc.stdout.splitlines()
        for line in output[:-1]:
            print(line)
        if proc.returncode != 0 or not output:
            note(f"{name}: exit {proc.returncode}")
            code = code or proc.returncode or 1
            continue
        result = json.loads(output[-1])
        lines.append((name, result))
    note("== summary")
    for name, result in lines:
        note(f"{name}: correct={result['correct']} attempted="
             f"{result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            note(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in lines)
        and len(lines) == len(WORKLOAD_NAMES),
        "attempted": sum(r["attempted"] for _, r in lines),
        "failed": sum(r["failed"] for _, r in lines),
        "metrics": {
            f"{name}/{metric}": entry
            for name, result in lines
            for metric, entry in result["metrics"].items()
        },
    }))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the services and set-up
    # children a run started are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    use_src()
    if args.workload == "all":
        return run_all(args)
    # Work runs on a chosen CPU, never where the scheduler drifts it
    # (see common.LEAST_PER_LANE); set-up children and services
    # inherit this unless they are placed elsewhere.
    pin(CPUS[0])
    workload = _workloads()[args.workload]
    if args.setup_only:
        print("READY " + workload.setup_only(args.seed), flush=True)
        return 0
    if args.lane:  # one timing lane of common.run_lanes
        print(json.dumps(workload.lane(json.load(sys.stdin))), flush=True)
        return 0

    from tracing import PER_LAYER

    note(f"workload {args.workload}, seed {args.seed}, seconds "
         f"{args.seconds:g}, trace {args.trace}")
    note("env " + json.dumps(env_stamp(), sort_keys=True))
    ledger, values = workload.run(args.seed, args.seconds,
                                  bool(args.trace))
    if args.trace:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        }
    for reason in ledger.reasons:
        note(f"FAILED: {reason}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
