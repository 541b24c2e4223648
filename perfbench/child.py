"""One CLI run in a fresh interpreter, for the traced measurements.

    python3 perfbench/child.py TIMING_PATH SPANS_PATH -- <cli arguments>

Imports ``plaquette_qgauge.cli`` (found through PYTHONPATH), installs the
tracer unless SPANS_PATH is ``-``, and times ``cli.main(argv)``.  The CLI
writes its output to this process's stdout.  The timing and exit code go to
TIMING_PATH as JSON; the spans go to SPANS_PATH.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main(argv: list[str]) -> int:
    timing_path, spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py TIMING_PATH SPANS_PATH -- <cli arguments>")
    from plaquette_qgauge import cli

    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        tracer.install()
    code = 1  # an exception escaping cli.main exits 1, as the console script would
    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        if tracer is not None:
            tracer.write(spans_path)
        with open(timing_path, "w", encoding="utf-8") as handle:
            json.dump({"main_s": main_s, "exit_code": code}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
