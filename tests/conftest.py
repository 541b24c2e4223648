import pytest
import scipy.linalg

from plaquette_qgauge import mathieu


@pytest.fixture
def eigensolves(monkeypatch):
    """Record ``(rows, q)`` of every Mathieu eigensolve, whichever entry makes it.

    A full solve of up to ``mathieu._DENSE_MAX`` rows goes through
    ``mathieu.eigh_tridiagonal`` and a larger one through
    ``scipy.linalg.eigh_tridiagonal``; each solve calls exactly one of them.
    """
    calls = []

    def counting(entry):
        def wrapper(d, e, *args, **kwargs):
            calls.append((len(d), float(e[0]) if len(e) else 0.0))
            return entry(d, e, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(mathieu, "eigh_tridiagonal", counting(mathieu.eigh_tridiagonal))
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting(scipy.linalg.eigh_tridiagonal))
    return calls


@pytest.fixture
def dense_path(monkeypatch):
    """Send every full solve of up to ``mathieu._DENSE_MAX`` rows through the dense entry.

    The test process has loaded scipy.linalg, so ``mathieu._dense_path``
    would send every solve to scipy; this keeps the size rule alone.  The
    eigensystem cache is cleared so no earlier solve is reused.
    """
    monkeypatch.setattr(mathieu, "_dense_path", lambda trunc: trunc <= mathieu._DENSE_MAX)
    mathieu._eigensystem.cache_clear()
