"""Traced stand-in for `python -m resokit.cli` in the cli_session workload.

Usage: cli_child.py SPANS_JSON SPAWN_MONOTONIC_S resokit-arguments...

Installs the benchmark's wrappers on the resokit modules, runs
resokit.cli.main under a `cli.<workflow>` span, writes the spans and the
start-up time (spawn to `import resokit.cli` done, on the system-wide
monotonic clock) to SPANS_JSON and exits with main's code.
"""

import json
import sys
import time

from tracer import Recorder

import resokit.cli  # noqa: E402  (timed: start-up ends here)

IMPORTED = time.monotonic()


def main():
    spans_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    recorder = Recorder()
    recorder.install()
    try:
        code = recorder.span(f"cli.{argv[0]}", resokit.cli.main, argv)
    finally:
        recorder.uninstall()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": recorder.spans, "import_s": IMPORTED - spawned},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
