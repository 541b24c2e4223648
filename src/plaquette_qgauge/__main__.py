"""Process entry point: ``python -m plaquette_qgauge`` and the ``plaquette-qgauge`` script.

``run`` runs ``cli.main()`` with the garbage collector kept off the objects
that live until the process exits, and ends the process as soon as its
output is out.  Almost everything the import and the command build
(modules, functions, classes, the parser, the formatted output) stays
alive until then, and collecting or freeing it is work without a result:

* ``gc.disable()`` before ``from .cli import main``: the import of numpy
  and the package creates about 21,500 tracked objects, and the 32
  collections it would trigger (about 5 ms) free about 330 of them;
* ``gc.freeze()`` then ``gc.enable()``: the imported objects move to the
  permanent generation, which no collection scans, and the command runs
  with the normal collector, so garbage cycles it makes are still freed;
* once ``main`` returns, stdout and stderr are flushed and the process
  ends with ``os._exit(code)``, skipping the interpreter's teardown
  (module clean-up, finalizers and its full collections): on a 2-core
  x86 host the time from ``main`` returning to the process reaped fell
  from 4.3-4.8 ms to 1.1-1.2 ms on the benchmark workloads.

Skipping the teardown loses nothing: ``main`` has written and flushed its
output, ``--out`` files are closed by ``with`` blocks, and the package
starts no thread and registers no ``atexit`` hook.  A stream that cannot
be flushed, or an exception escaping ``main``, takes the normal exit path
(``sys.exit`` or the traceback), which reports it as before.  A tool that
reports at exit, such as a profiler or a coverage run, should call
``cli.main`` instead.  ``cli.main`` itself touches neither the collector
nor the exit, so the tests, the benchmark's in-process child and
``scripts/make_figure_data.py``, which call it in one process, keep the
default collector and their own exit.
"""

import gc
import os
import sys


def run() -> None:
    """Run the command line on ``sys.argv`` and end the process with its exit code."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
