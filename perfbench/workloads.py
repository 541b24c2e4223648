"""The four benchmark workloads: CLI arguments from a seed, and the output oracle.

Grids are the stress configurations of the ROADMAP.  The seed moves the grid
endpoints outward by at most 1% (it never narrows a range) and picks the
rows the oracle checks.  The oracle runs outside every timed region and
never stops at a failed row: it counts them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

#: the tunneling oracle tolerance, relative
TUNNELING_RTOL = 1e-8
#: below this t the series and theta routes cancel to rounding noise (a known
#: defect, ROADMAP item 2; the last failing row is near t = 0.11).  Oracle
#: failures there are counted but do not mark the run incorrect.
TUNNELING_KNOWN_DEFECT_T = 0.125
SPECTRUM_RTOL = 1e-9
PROJECTOR_ATOL = 1e-10
COMPLETENESS_MIN = 1.0 - 1e-6


@dataclass
class Verdict:
    """Oracle outcome for one CLI output."""

    rows: int = 0
    checked: int = 0
    failed: int = 0
    #: problems that make the run incorrect (wrong shape, failures outside
    #: the known-defect region, non-zero exit)
    errors: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI arguments from a seeded generator
    make_argv: Callable[[np.random.Generator], list[str]]
    #: oracle: (output text, CLI arguments, seeded generator, expected rows)
    check_output: Callable[..., Verdict]
    expected_rows: int | None

    def argv(self, seed: int) -> list[str]:
        return self.make_argv(np.random.default_rng([seed, 0]))

    def check(self, text: str, exit_code: int, argv: list[str], seed: int) -> Verdict:
        if exit_code != 0:
            rows = self.expected_rows or 1
            return Verdict(rows, rows, rows, [f"exit code {exit_code}"])
        return self.check_output(text, argv, np.random.default_rng([seed, 1]), self.expected_rows)


def _stratified_sample(count: int, size: int, rng) -> np.ndarray:
    """One index per block when ``count`` is cut into ``size`` equal blocks."""
    edges = np.linspace(0, count, size + 1).astype(int)
    return np.array([rng.integers(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo])


def _csv_rows(text: str, columns: list[str], verdict: Verdict) -> list[list[str]]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# plaquette-qgauge v"):
        verdict.errors.append("missing CSV comment line")
        return []
    if lines[1].split(",") != columns:
        verdict.errors.append(f"unexpected header {lines[1]!r}")
        return []
    rows = [line.split(",") for line in lines[2:]]
    if any(len(row) != len(columns) for row in rows):
        verdict.errors.append("row with the wrong number of fields")
        return []
    return rows


def _range_values(spec: str) -> np.ndarray:
    lo, hi, count, *log = spec.split(":")
    space = np.geomspace if log else np.linspace
    return space(float(lo), float(hi), int(count))


# -- tunneling-sweep ---------------------------------------------------------


def _tunneling_argv(rng) -> list[str]:
    lo = 0.01 * (1.0 - 0.01 * rng.random())
    hi = 5.0 * (1.0 + 0.01 * rng.random())
    return ["tunneling", "--hbar-beta2", f"{lo!r}:{hi!r}:20000:log"]


def exact_overlap(t: float):
    """Tunneling overlap sum (-1)^(n+1) n^2 q^(n^2) / sum n^2 q^(n^2), q = e^-t, in mpmath.

    The working precision covers the cancellation: the overlap is about
    exp(-pi^2 / 4t) while the terms are of order N^2.
    """
    import mpmath

    digits = 30 + int(math.pi**2 / (4.0 * t) / math.log(10.0))
    with mpmath.workdps(digits):
        q = mpmath.exp(-mpmath.mpf(t))
        cutoff = mpmath.mpf(10) ** (-digits)
        norm = mpmath.mpf(0)
        alternating = mpmath.mpf(0)
        n = 1
        while True:
            term = n * n * q ** (n * n)
            norm += term
            alternating += term if n % 2 else -term
            if n > 4 and term < cutoff * norm:
                break
            n += 1
        return alternating / norm


def _check_tunneling(text, argv, rng, expected_rows) -> Verdict:
    verdict = Verdict()
    rows = _csv_rows(text, ["hbar_beta2", "overlap", "probability"], verdict)
    verdict.rows = len(rows)
    grid = _range_values(argv[2])
    if len(rows) != expected_rows:
        verdict.errors.append(f"{len(rows)} rows, expected {expected_rows}")
        return verdict
    if not np.array_equal(np.array([float(r[0]) for r in rows]), grid):
        verdict.errors.append("t column differs from the requested grid")
    for index in _stratified_sample(len(rows), 400, rng):
        t, overlap, probability = (float(v) for v in rows[index])
        exact = exact_overlap(t)
        ok = (
            abs(overlap - exact) <= TUNNELING_RTOL * abs(exact)
            and abs(probability - exact * exact) <= TUNNELING_RTOL * exact * exact
        )
        verdict.checked += 1
        if not ok:
            verdict.failed += 1
            if t >= TUNNELING_KNOWN_DEFECT_T:
                verdict.errors.append(f"t={t!r}: overlap {overlap!r}, exact {float(exact)!r}")
    return verdict


# -- spectrum-sweep ----------------------------------------------------------

SPECTRUM_LEVELS = 40


def _spectrum_argv(rng) -> list[str]:
    hi = 2000.0 * (1.0 + 0.01 * rng.random())
    return ["spectrum", "--nu-tilde", f"0:{hi!r}:400", "--n-max", str(SPECTRUM_LEVELS)]


def character_hamiltonian(nu_tilde: float, dim: int) -> np.ndarray:
    """Dense Hamiltonian in the character basis, in units of hbar^2 beta2.

    Diagonal k(k+2)/2 + 3 nu_tilde / 2, off-diagonal -nu_tilde / 2.
    """
    k = np.arange(dim, dtype=float)
    h = np.diag(0.5 * k * (k + 2.0) + 1.5 * nu_tilde)
    off = np.full(dim - 1, -0.5 * nu_tilde)
    return h + np.diag(off, 1) + np.diag(off, -1)


def _oracle_dim(nu_tilde: float) -> int:
    # eigenvectors of the low levels decay beyond k ~ 2 sqrt(4 nu_tilde);
    # twice that plus a margin leaves them exact to rounding
    return 2 * math.ceil(2.0 * math.sqrt(4.0 * nu_tilde)) + 120


def _check_spectrum(text, argv, rng, expected_rows) -> Verdict:
    verdict = Verdict()
    rows = _csv_rows(text, ["nu_tilde", "n", "E_n", "E_gap"], verdict)
    verdict.rows = len(rows)
    grid = _range_values(argv[2])
    if len(rows) != expected_rows:
        verdict.errors.append(f"{len(rows)} rows, expected {expected_rows}")
        return verdict
    table = np.array([[float(v) for v in row] for row in rows]).reshape(len(grid), SPECTRUM_LEVELS, 4)
    if not np.array_equal(table[:, 0, 0], grid):
        verdict.errors.append("nu_tilde column differs from the requested grid")
    for index in _stratified_sample(len(grid), 40, rng):
        nu_tilde = table[index, 0, 0]
        exact = np.linalg.eigvalsh(character_hamiltonian(nu_tilde, _oracle_dim(nu_tilde)))
        for n in range(SPECTRUM_LEVELS):
            energy, gap = table[index, n, 2], table[index, n, 3]
            exact_gap = exact[n + 1] - exact[n]
            ok = (
                abs(energy - exact[n]) <= SPECTRUM_RTOL * max(1.0, abs(exact[n]))
                and abs(gap - exact_gap) <= SPECTRUM_RTOL * max(1.0, abs(exact_gap))
            )
            verdict.checked += 1
            if not ok:
                verdict.failed += 1
                verdict.errors.append(f"nu_tilde={nu_tilde!r} n={n}: E_n {energy!r} vs {exact[n]!r}")
    return verdict


# -- projector-grid ----------------------------------------------------------

PROJECTOR_T = (0.03125, 0.125, 0.5)
PROJECTOR_LEVELS = 6


def _projector_argv(rng) -> list[str]:
    lo = 0.1 * (1.0 - 0.01 * rng.random())
    hi = 100.0 * (1.0 + 0.01 * rng.random())
    return [
        "projector-expectations",
        "--hbar-beta2",
        ",".join(map(repr, PROJECTOR_T)),
        "--nu-tilde",
        f"{lo!r}:{hi!r}:200:log",
    ]


def exact_projectors(t: float, nu_tilde: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """P_plus and P_minus of levels 0..count-1 from a dense eigendecomposition."""
    dim = _oracle_dim(nu_tilde)
    _, vectors = np.linalg.eigh(character_hamiltonian(nu_tilde, dim))
    k = np.arange(dim, dtype=float)
    plus = (k + 1.0) * np.exp(-t * (k + 1.0) ** 2 / 2.0)
    plus /= math.sqrt(float(np.sum(plus * plus)))
    minus = plus * (-1.0) ** k
    return (vectors[:, :count].T @ plus) ** 2, (vectors[:, :count].T @ minus) ** 2


def _check_projector(text, argv, rng, expected_rows) -> Verdict:
    verdict = Verdict()
    columns = ["hbar_beta2", "nu_tilde", "n", "P_plus", "P_minus", "sum_P_plus"]
    rows = _csv_rows(text, columns, verdict)
    verdict.rows = len(rows)
    grid = _range_values(argv[4])
    if len(rows) != expected_rows:
        verdict.errors.append(f"{len(rows)} rows, expected {expected_rows}")
        return verdict
    table = np.array([[float(v) for v in row] for row in rows]).reshape(
        len(PROJECTOR_T) * len(grid), PROJECTOR_LEVELS, 6
    )
    if not np.array_equal(table[:, 0, 1], np.tile(grid, len(PROJECTOR_T))):
        verdict.errors.append("nu_tilde column differs from the requested grid")
    for index in _stratified_sample(len(table), 100, rng):
        t, nu_tilde = table[index, 0, 0], table[index, 0, 1]
        plus, minus = exact_projectors(t, nu_tilde, PROJECTOR_LEVELS)
        for n in range(PROJECTOR_LEVELS):
            p_plus, p_minus, total = table[index, n, 3:6]
            ok = (
                abs(p_plus - plus[n]) <= PROJECTOR_ATOL
                and abs(p_minus - minus[n]) <= PROJECTOR_ATOL
                and total >= COMPLETENESS_MIN
                and 0.0 <= p_plus <= 1.0
                and 0.0 <= p_minus <= 1.0
            )
            verdict.checked += 1
            if not ok:
                verdict.failed += 1
                verdict.errors.append(f"t={t!r} nu_tilde={nu_tilde!r} n={n}: P+ {p_plus!r} vs {plus[n]!r}")
    return verdict


# -- selfcheck ---------------------------------------------------------------


def _check_selfcheck(text, argv, rng, expected_rows) -> Verdict:
    verdict = Verdict()
    lines = text.splitlines()
    checks = [line for line in lines if line.startswith("[")]
    verdict.rows = verdict.checked = len(checks)
    verdict.failed = sum(not line.startswith("[PASS] ") for line in checks)
    if not checks or lines[-1] != f"result: {len(checks)}/{len(checks)} checks passed":
        verdict.errors.append(f"report does not end with all checks passed: {lines[-1:]}")
    if verdict.failed:
        verdict.errors.append(f"{verdict.failed} checks did not pass")
    return verdict


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tunneling-sweep", _tunneling_argv, _check_tunneling, 20000),
        Workload("spectrum-sweep", _spectrum_argv, _check_spectrum, 400 * SPECTRUM_LEVELS),
        Workload(
            "projector-grid",
            _projector_argv,
            _check_projector,
            len(PROJECTOR_T) * 200 * PROJECTOR_LEVELS,
        ),
        Workload("selfcheck", lambda rng: ["verify"], _check_selfcheck, None),
    )
}

#: traced call counts that the workload design fixes: ">0" where the
#: workload must reach the function, "0" where it must bypass it.  A rename
#: that makes a counted function disappear fails here instead of reading 0.
EXPECTED_CALLS = {
    "tunneling-sweep": {
        ">0": ["theta.theta3_prime", "costratified.norm_squared", "costratified.tunneling_overlap",
               "cli.fmt", "cli.csv_text", "cli.cmd_tunneling"],
        "0": ["mathieu.solve", "mathieu.solve_many", "mathieu.eigh_tridiagonal",
              "spectrum.energy", "spectrum.projector_expectations", "geometry.bracket"],
    },
    "spectrum-sweep": {
        ">0": ["mathieu.solve", "mathieu.eigh_tridiagonal", "spectrum.energy", "cli.fmt",
               "cli.csv_text", "cli.cmd_spectrum"],
        "0": ["theta.theta3_prime", "costratified.norm_squared", "costratified.tunneling_overlap",
              "spectrum.projector_expectations", "geometry.bracket"],
    },
    "projector-grid": {
        ">0": ["theta.theta3_prime", "costratified.norm_squared", "mathieu.solve_many",
               "mathieu.eigh_tridiagonal", "spectrum.projector_expectations", "cli.fmt",
               "cli.csv_text", "cli.cmd_projector_expectations"],
        "0": ["costratified.tunneling_overlap", "spectrum.energy", "geometry.bracket"],
    },
    "selfcheck": {
        ">0": ["geometry.bracket", "geometry.jacobi_residual", "geometry.relation_casimir_residual",
               "geometry.symmetric_projection", "spectrum.energy", "spectrum.projector_expectation",
               "spectrum.projector_expectations", "spectrum.matrix_energies",
               "verify.geometry_checks", "verify.spectral_checks", "verify.state_checks",
               "theta.theta3_prime", "mathieu.eigh_tridiagonal"],
        "0": ["cli.csv_text", "cli.fmt"],
    },
}


def expectation_errors(workload: str, keys: list[str], calls: dict[str, int]) -> list[str]:
    """Violations of EXPECTED_CALLS for one traced run."""
    errors = []
    for rule, names in EXPECTED_CALLS[workload].items():
        for name in names:
            if name not in keys:
                errors.append(f"{name} is no longer a wrapped function")
            elif (calls.get(name, 0) > 0) != (rule == ">0"):
                errors.append(f"{name} made {calls.get(name, 0)} calls, expected {rule}")
    return errors

