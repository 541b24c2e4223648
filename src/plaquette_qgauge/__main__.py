"""Process entry point: ``python -m plaquette_qgauge`` and the ``plaquette-qgauge`` script.

``run`` is ``sys.exit(cli.main())`` with the garbage collector kept off the
objects that live until the process exits.  Almost everything the import
and the command build (modules, functions, classes, the parser, the
formatted output) stays alive until then, and collecting it is work
without a result:

* ``gc.disable()`` before ``from .cli import main``: the import of numpy
  and the package creates about 21,500 tracked objects, and the 32
  collections it would trigger (about 5 ms) free about 330 of them;
* ``gc.freeze()`` then ``gc.enable()``: the imported objects move to the
  permanent generation, which no collection scans, and the command runs
  with the normal collector, so garbage cycles it makes are still freed;
* ``gc.freeze()`` after ``main`` returns: what is still alive lives until
  exit, and the interpreter's full collections at shutdown (about 20 ms
  over some 22,000 objects) skip the permanent generation.

``cli.main`` itself does not touch the collector, so the tests, the
benchmark's in-process child and ``scripts/make_figure_data.py``, which
call it in one process, keep the default one.
"""

import gc
import sys


def run() -> None:
    """Run the command line on ``sys.argv`` and exit with its code."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
