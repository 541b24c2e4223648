"""Span tracer that wraps the package's public functions from outside.

``Tracer.install()`` replaces every public function of the traced modules
with a wrapper that records one span per call: an id, the id of the
enclosing traced call, the function key and start/end times.  Every binding
of a wrapped function inside the package is patched, including names bound
by ``from ... import`` (``costratified.theta3_prime``, ``verify.theta3_prime``,
``cli.monomial_decomposition``), so a call is counted whichever name the
caller uses.  The tridiagonal eigensolver is wrapped under the key
``mathieu.eigh_tridiagonal`` at the bindings ``mathieu`` can reach: the
``scipy.linalg`` package attribute and any package-level name bound to it.
scipy's own submodules keep the original, so its internal calls (for
example from ``eigvalsh_tridiagonal``) are not counted.

Spans stay in memory; ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time

PACKAGE = "plaquette_qgauge"
#: modules whose public functions are wrapped (``params`` and ``strata`` are
#: too small to time)
LAYERS = ("cli", "theta", "costratified", "mathieu", "spectrum", "geometry", "verify", "characters")
EIGENSOLVE_KEY = "mathieu.eigh_tridiagonal"


def _argument_note(key: str, args) -> str:
    """Per-call detail needed for the work ratios, empty for most keys."""
    if key == "costratified.norm_squared":
        return repr(float(args[0]))
    if key == EIGENSOLVE_KEY:
        d, e = args[0], args[1]
        return f"{len(d)}:{float(e[0]) if len(e) else 0.0!r}"
    return ""


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, str]] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self.keys: list[str] = []

    def _wrap(self, key: str, func):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        noted = key in ("costratified.norm_squared", EIGENSOLVE_KEY)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, key, start, end, _argument_note(key, args) if noted else "")
                )

        return wrapper

    def install(self) -> None:
        import scipy.linalg

        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        eigensolver = scipy.linalg.eigh_tridiagonal
        replacements = {id(eigensolver): (eigensolver, self._wrap(EIGENSOLVE_KEY, eigensolver))}
        self.keys.append(EIGENSOLVE_KEY)
        for name, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    key = f"{name}.{attr}"
                    replacements[id(obj)] = (obj, self._wrap(key, obj))
                    self.keys.append(key)
        bound = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in [*bound, scipy.linalg]:
            for attr, obj in list(vars(module).items()):
                entry = replacements.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"keys": self.keys}) + "\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


def read_spans(path: str):
    """Return (wrapped keys, spans) from a file written by ``Tracer.write``."""
    with open(path, encoding="utf-8") as handle:
        keys = json.loads(handle.readline())["keys"]
        spans = []
        for line in handle:
            span_id, parent, key, start, end, note = line.rstrip("\n").split("\t")
            spans.append((int(span_id), int(parent), key, int(start), int(end), note))
    return keys, spans
