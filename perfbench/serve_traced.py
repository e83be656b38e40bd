"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: python3 perfbench/serve_traced.py TRACE_OUT serve [ARGS...]

The wrappers go in before the service starts. SIGUSR1 zeroes the
statistics and prints ``RESET`` (the benchmark sends it after its
prewarm); when the service exits, the statistics and whether every
wrapped attribute was restored are written to TRACE_OUT as JSON.
"""

from __future__ import annotations

import json
import signal
import sys

from common import use_src

use_src()

from tracing import Tracer  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    tracer.install()

    def reset(_signum, _frame) -> None:
        tracer.reset()
        print("RESET", flush=True)

    signal.signal(signal.SIGUSR1, reset)
    try:
        code = cli_main(argv)
    finally:
        restored = tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({
                "restored": restored,
                "stats": {key: stat.to_payload()
                          for key, stat in tracer.snapshot().items()},
            }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
