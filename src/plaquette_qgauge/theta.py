"""Jacobi theta constant theta3 and its derivative.

theta3(Q) = sum_{k=-inf}^{inf} Q^(k^2) = 1 + 2 sum_{k>=1} Q^(k^2) for a real
nome |Q| < 1.  Terms decay super-exponentially, so plain summation converges
for every admissible nome, in about 70 terms at Q = exp(-0.01).  For a
positive nome the terms share one sign and the sum is accurate to a few
ulps.  For a negative nome near -1 they alternate and cancel: theta3'(-e^-t)
is about exp(-pi^2 / 4t) times its largest term, so its relative accuracy is
lost below t ~ 0.25.  ``costratified`` therefore uses these sums (its direct
route) only for t >= 1 and the band it cross-checks, and the Poisson-dual
sums below.

``theta3_prime`` is the tunneling sweep's inner loop: ``costratified`` calls
it at +e^-t and -e^-t for every t >= 0.25, and most of its time falls in the
band 0.25 <= t <= 2, where both routes run and each sum takes about 7.6
terms.  It stays a function of one nome, called once per route and t,
because the benchmark traces ``tunneling_overlap -> norm_squared ->
theta3_prime`` per t (see ``costratified``).
"""

from __future__ import annotations

_REL_CUTOFF = 1e-18
_MIN_TERMS = 4
_MAX_TERMS = 100_000


def _check_nome(Q: float) -> float:
    Q = float(Q)
    if not abs(Q) < 1.0:
        raise ValueError(f"theta3 requires |Q| < 1, got Q={Q}")
    return Q


def theta3(Q: float) -> float:
    """Sum of Q^(k^2) over all integers k."""
    Q = _check_nome(Q)
    total = 1.0
    for k in range(1, _MAX_TERMS):
        term = 2.0 * Q ** (k * k)
        total += term
        if k >= _MIN_TERMS and abs(term) < _REL_CUTOFF * abs(total):
            return total
    raise FloatingPointError(f"theta3 series did not converge for Q={Q}")


def theta3_prime(Q: float) -> float:
    """Derivative d theta3 / dQ = 2 sum_{k>=1} k^2 Q^(k^2 - 1)."""
    Q = _check_nome(Q)
    # k = 1, 2, 3 are below _MIN_TERMS, so they never end the series: added
    # in order with no stop test, the same additions as the loop makes
    total = 2.0 + 8.0 * Q**3 + 18.0 * Q**8
    for k in range(_MIN_TERMS, _MAX_TERMS):
        kk = k * k
        term = 2.0 * kk * Q ** (kk - 1)
        total += term
        if abs(term) < _REL_CUTOFF * abs(total):
            return total
    raise FloatingPointError(f"theta3_prime series did not converge for Q={Q}")
