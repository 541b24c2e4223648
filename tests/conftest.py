import pytest

from plaquette_qgauge import mathieu


@pytest.fixture
def eigensolves(monkeypatch):
    """Record ``(rows, q)`` of every Mathieu eigensolve.

    Every solve, full or block, is one call of ``mathieu.eigh_tridiagonal``.
    """
    calls = []
    entry = mathieu.eigh_tridiagonal

    def counting(d, e, *args, **kwargs):
        calls.append((len(d), float(e[0]) if len(e) else 0.0))
        return entry(d, e, *args, **kwargs)

    monkeypatch.setattr(mathieu, "eigh_tridiagonal", counting)
    return calls
