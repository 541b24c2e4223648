"""Batch command-line front end: parameter sweeps, figure data, verification.

Subcommands
    tunneling               overlap and tunneling probability over a t grid
    spectrum                energy levels and gaps over a nu_tilde grid
    states                  vertex states or energy eigenfunctions on [0, pi]
    projector-expectations  stratum-projector expectations over (t, nu_tilde)
    decomp                  highest-weight monomial enumeration
    geometry-verify         classical-geometry residual suites
    verify                  all verification suites

Every data command emits deterministic CSV: a comment line
``# plaquette-qgauge v<version> config=<canonical-json>``, a header row, and
rows with floats printed as their shortest round-trip decimal.  A command
hands ``emit`` numeric columns: the swept ones as ``Axis`` objects, whose
values are formatted once for the config and every row, and the computed
ones as arrays, formatted and written a block of rows at a time.  Each option
is declared once, in ``OPTIONS``; a flat ``key = value`` config file can
provide any of them, read with the flag's type, and command-line flags win.
Grid values must be finite.  ``coupling_g`` with ``nu_tilde``, ``hbar`` or
``beta2`` with ``hbar_beta2``, and ``coupling_g`` with ``hbar_beta2`` but
without ``hbar`` or ``beta2`` (nu_tilde = 1/(g^2 hbar t) then depends on an
unset hbar) are refused as ambiguous; ``hbar``, ``beta2`` and
``coupling_g`` are checked as a ``ModelParams``.

Importing this module loads only the ``params``, ``strata``, ``theta`` and
``costratified`` layers, which ``tunneling`` needs.  Each other command
imports what it uses: ``spectrum`` (with ``mathieu`` and ``characters``)
for ``spectrum``, ``projector-expectations`` and ``states --state xi``,
``characters`` for ``states --state psi-*``, ``geometry`` for ``decomp``,
and ``verify`` (every layer) for the two verify commands.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure, 141 stdout closed by its reader before the output was written (as
by ``| head``), with no message.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, costratified
from .errors import ConsistencyError, ConvergenceError, TruncationError
from .params import ModelParams
from .strata import Stratum


class UsageError(Exception):
    pass


#: every option a flag or a config-file line can set, as argparse keywords;
#: the flag of ``key`` is ``--key`` with ``_`` spelled ``-``
OPTIONS = {
    "out": {"type": str, "help": "output path ('-' for stdout)"},
    "format": {"type": str, "choices": ("csv", "svg"), "help": "output format"},
    "hbar": {"type": float, "help": "Planck constant"},
    "beta2": {"type": float, "help": "inner-product scale"},
    "coupling_g": {"type": float, "help": "gauge coupling"},
    "nu_tilde": {"type": str, "help": "list 'a,b' or range 'lo:hi:n[:log]'"},
    "hbar_beta2": {"type": str, "help": "list 'a,b' or range 'lo:hi:n[:log]'"},
    "n_max": {"type": int, "help": "number of levels"},
    "grid": {"type": int, "help": "number of sample points"},
}


def parse_value_list(text: str) -> list[float]:
    """Parse 'a,b,c' or 'lo:hi:count' (linear) or 'lo:hi:count:log' into finite values."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise UsageError(f"bad range {text!r}; expected lo:hi:count[:log]")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"bad range {text!r}: {exc}") from exc
        if not math.isfinite(hi - lo):
            raise UsageError(f"bad range {text!r}; need finite ends a finite distance apart")
        if count < 1 or not hi > lo:
            raise UsageError(f"bad range {text!r}; need hi > lo and count >= 1")
        if len(parts) == 4:
            if lo <= 0:
                raise UsageError(f"log range {text!r} needs lo > 0")
            return [float(v) for v in np.geomspace(lo, hi, count)]
        return [float(v) for v in np.linspace(lo, hi, count)]
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad value list {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"empty value list {text!r}")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"values must be finite, got {text!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError(f"values must be strictly increasing, got {text!r}")
    return values


def read_config_file(path: str) -> dict:
    """Config-file values, each converted like its flag in ``OPTIONS``."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        choices = OPTIONS[key].get("choices", (text,))
        if text not in choices:
            raise UsageError(f"{path}:{lineno}: {key} must be {' or '.join(choices)}, got {text!r}")
        try:
            out[key] = OPTIONS[key]["type"](text)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


def merge_settings(args: argparse.Namespace) -> dict:
    settings = read_config_file(args.config) if args.config else {}
    settings.update({k: v for k, v in vars(args).items() if k in OPTIONS and v is not None})
    return settings


def _resolve(settings: dict, key: str, sources, derive, default: str) -> list[float]:
    """The ``key`` grid, else one value from ``sources`` via ``ModelParams``, else ``default``."""
    given = any(source in settings for source in sources)
    if key in settings and given:
        raise UsageError(f"supply either {'/'.join(sources)} or {key}, not both")
    if given:
        hbar, beta2 = settings.get("hbar", 1.0), settings.get("beta2", 1.0)
        return [derive(ModelParams(hbar, beta2, settings.get("coupling_g", math.inf)))]
    return parse_value_list(settings.get(key, default))


def resolve_t_values(settings: dict, default: str) -> list[float]:
    values = _resolve(settings, "hbar_beta2", ("hbar", "beta2"), lambda p: p.t, default)
    if any(v <= 0 for v in values):
        raise UsageError("hbar_beta2 values must be positive")
    return values


def resolve_nut_values(settings: dict, default: str) -> list[float]:
    # nu_tilde = 1 / (g^2 hbar t) needs an hbar that hbar_beta2 does not fix
    if {"coupling_g", "hbar_beta2"} <= set(settings) and not {"hbar", "beta2"} & set(settings):
        raise UsageError(
            "coupling_g with hbar_beta2 is ambiguous; "
            "supply nu_tilde, or hbar and beta2 instead of hbar_beta2"
        )
    values = _resolve(settings, "nu_tilde", ("coupling_g",), lambda p: p.nu_tilde, default)
    if any(v < 0 for v in values):
        raise UsageError("nu_tilde values must be non-negative")
    return values


def fmt(column) -> list[str]:
    """The shortest round-trip decimal of every value of a float column."""
    return list(map(float.__repr__, np.asarray(column, dtype=float).tolist()))


def _cells(column) -> list[str]:
    """The cells of a column: float values through ``fmt``, other values through ``str``."""
    values = np.asarray(column)
    return fmt(values) if values.dtype.kind == "f" else list(map(str, values.tolist()))


class Axis:
    """A swept column: its values in order, and their cells, each formatted once.

    ``emit`` writes the rows of the product of its axes, and a config entry
    that is an axis is written from the same cells.
    """

    def __init__(self, values):
        self.values = list(values)
        self.cells = _cells(self.values)


def canonical_config(command: str, **entries) -> str:
    """The command and its settings as JSON with sorted keys and no spaces.

    A list of floats is written as ``fmt`` writes it, and an ``Axis`` from
    its cells.
    """
    payload = {"command": command, **entries}
    items = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, Axis):
            text = "[" + ",".join(value.cells) + "]"
        elif isinstance(value, list):
            text = "[" + ",".join(fmt(value)) + "]"
        else:
            text = json.dumps(value)
        items.append(f"{json.dumps(key)}:{text}")
    return "{" + ",".join(items) + "}"


def csv_text(columns: list[list[str]]) -> str:
    """The CSV lines of a block of rows, from the cells of each column."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


_SVG_COLORS = ("#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#d4880c", "#3a3a3a")


def svg_text(config_json: str, series, xlabel: str, ylabel: str, logx: bool = False) -> str:
    """Minimal static line plot: labelled polylines in a 640x480 frame."""
    width, height, margin = 640.0, 480.0, 60.0
    xs_all = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series])
    if logx:
        xs_all = np.log10(xs_all)
    x_lo, x_hi = float(np.min(xs_all)), float(np.max(xs_all))
    y_lo, y_hi = float(np.min(ys_all)), float(np.max(ys_all))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def mapx(v):
        return margin + (v - x_lo) / x_span * (width - 2 * margin)

    def mapy(v):
        return height - margin - (v - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f"<!-- plaquette-qgauge v{__version__} config={config_json} -->",
        f'<rect x="{margin:.1f}" y="{margin:.1f}" width="{width - 2 * margin:.1f}" '
        f'height="{height - 2 * margin:.1f}" fill="none" stroke="#000000"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15:.1f}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{ylabel}</text>',
    ]
    for idx, (label, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        if logx:
            xs = np.log10(xs)
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        points = " ".join(f"{mapx(x):.3f},{mapy(y):.3f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" points="{points}"/>')
        parts.append(
            f'<text x="{width - margin + 4:.1f}" y="{margin + 16 * idx + 12:.1f}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_output(path: str, chunks):
    """Write the text ``chunks``, in order, to ``path``, or to stdout for '-'."""
    if path in ("-", ""):
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write output: {exc}") from exc


@dataclass(frozen=True)
class Plot:
    """SVG of rows: an (x, y) polyline per ``series`` value, labelled ``label.format(*value)``."""

    x: str
    y: str
    series: tuple[str, ...]
    label: str
    xlabel: str
    ylabel: str
    logx: bool = False


#: rows formatted and written at a time.  Only one block's strings are alive
#: at once, so writing adds little to the peak memory however many rows the
#: command has: on projector-grid (3,600 rows) 512-row blocks peak 0.5 MB
#: below building the whole CSV, and 2,048-row blocks 0.2 MB above it
_BLOCK_ROWS = 512


def _axis_indices(axes: dict, count: int, rows: np.ndarray):
    """For each axis, the index of its value in each of ``rows``, of ``count`` in all."""
    repeat = count
    for axis in axes.values():
        repeat //= len(axis.values)
        yield (rows // repeat % len(axis.values)).tolist()


def _csv_blocks(config_json: str, axes: dict, data: dict, count: int):
    """The CSV text: the comment and header lines, then blocks of ``_BLOCK_ROWS`` rows."""
    yield f"# plaquette-qgauge v{__version__} config={config_json}\n{','.join([*axes, *data])}\n"
    for start in range(0, count, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, count))
        indices = _axis_indices(axes, count, rows)
        columns = [[axis.cells[i] for i in index] for axis, index in zip(axes.values(), indices)]
        columns += [_cells(column[start : start + _BLOCK_ROWS]) for column in data.values()]
        yield csv_text(columns)


def _row_values(axes: dict, data: dict, count: int) -> dict[str, list]:
    """Every column's value in each row."""
    indices = _axis_indices(axes, count, np.arange(count))
    values = {
        name: [axis.values[i] for i in index]
        for (name, axis), index in zip(axes.items(), indices)
    }
    values.update((name, np.asarray(column).tolist()) for name, column in data.items())
    return values


def emit(settings: dict, command: str, config: dict, axes: dict, data: dict, plot=None) -> int:
    """Write the rows of ``axes`` and ``data`` as CSV, or as SVG with a ``plot``.

    The rows run over the product of the ``axes`` (each an ``Axis``), the
    last varying fastest, and ``data`` gives each further column as one
    value per row, an array or a list.  An axis cell is formatted once, and
    the CSV is formatted and written a block of rows at a time.  SVG series
    are drawn in order of first appearance.  Only a command with a plot
    takes ``--format svg``, and only its config records the format.
    """
    fmt_name = settings.get("format", "csv")
    if plot is not None:
        config = {**config, "format": fmt_name}
    elif fmt_name != "csv":
        raise UsageError(f"{command} only supports csv output")
    config_json = canonical_config(command, **config)
    count = math.prod(len(axis.values) for axis in axes.values())
    if fmt_name == "svg":
        values = _row_values(axes, data, count)
        keys = [values[name] for name in plot.series]
        groups: dict[tuple, tuple[list, list]] = {}
        for row in range(count):
            xs, ys = groups.setdefault(tuple(key[row] for key in keys), ([], []))
            xs.append(values[plot.x][row])
            ys.append(values[plot.y][row])
        series = [(plot.label.format(*key), xs, ys) for key, (xs, ys) in groups.items()]
        chunks = [svg_text(config_json, series, plot.xlabel, plot.ylabel, plot.logx)]
    else:
        chunks = _csv_blocks(config_json, axes, data, count)
    write_output(settings.get("out", "-"), chunks)
    return 0


def cmd_tunneling(args, settings) -> int:
    t_axis = Axis(resolve_t_values(settings, default="0.01:5:200:log"))
    overlaps = np.array([costratified.tunneling_overlap(t) for t in t_axis.values])
    plot = Plot(
        "hbar_beta2", "probability", (), "probability", "log10 hbar_beta2", "tunneling probability",
        logx=True,
    )
    data = {"overlap": overlaps, "probability": overlaps * overlaps}
    return emit(settings, "tunneling", {"hbar_beta2": t_axis}, {"hbar_beta2": t_axis}, data, plot)


def cmd_spectrum(args, settings) -> int:
    from . import spectrum

    nut_axis = Axis(resolve_nut_values(settings, default="0:24:49"))
    n_max = settings.get("n_max", 8)
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    energies = []
    for nut in nut_axis.values:
        params = ModelParams.from_reduced(1.0, nut)
        energies.append(spectrum.energy(np.arange(n_max + 1), params) / params.hbar2_beta2)
    energies = np.array(energies)
    plot = Plot("nu_tilde", "E_n", ("n",), "E_{}", "nu_tilde", "E_n / hbar^2 beta2")
    axes = {"nu_tilde": nut_axis, "n": Axis(range(n_max))}
    data = {"E_n": energies[:, :-1].ravel(), "E_gap": np.diff(energies).ravel()}
    return emit(settings, "spectrum", {"nu_tilde": nut_axis, "n_max": n_max}, axes, data, plot)


def cmd_states(args, settings) -> int:
    t_values = resolve_t_values(settings, default="0.125")
    nut_values = resolve_nut_values(settings, default="0")
    if len(t_values) != 1 or len(nut_values) != 1:
        raise UsageError("states needs a single hbar_beta2 and a single nu_tilde")
    params = ModelParams.from_reduced(t_values[0], nut_values[0])
    grid = settings.get("grid", 257)
    if grid < 2:
        raise UsageError("grid must be >= 2")
    x = np.linspace(0.0, math.pi, grid)
    if args.state in ("psi-plus", "psi-minus"):
        from . import characters

        stratum = Stratum.PLUS if args.state == "psi-plus" else Stratum.MINUS
        state = costratified.stratum_state(stratum, params)
        values = math.sqrt(2.0) * characters.sine_series(x, state.coeffs)
        label = args.state
    else:
        from . import spectrum

        level = args.level
        if level < 0:
            raise UsageError("level must be >= 0")
        values = spectrum.eigenfunction_x(level, params, x)
        label = f"xi_{level}"
    config = {"state": label, "hbar_beta2": t_values, "nu_tilde": nut_values, "grid": grid}
    plot = Plot("x", "value", (), label, "x", label)
    return emit(settings, "states", config, {"x": Axis(x)}, {"value": values}, plot)


def cmd_projector_expectations(args, settings) -> int:
    from . import spectrum

    t_axis = Axis(resolve_t_values(settings, default="0.03125,0.125,0.5"))
    nut_axis = Axis(resolve_nut_values(settings, default="0.1:100:30:log"))
    n_max = settings.get("n_max", 6)
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    # nu_tilde-major, so every t at one q reuses that q's cached eigensystem;
    # the rows are still written t-major
    results = {}
    for nut in nut_axis.values:
        for t in t_axis.values:
            params = ModelParams.from_reduced(t, nut)
            results[(t, nut)] = spectrum.projector_expectations(params, n_max)
    plus, minus, completeness = zip(
        *(results[(t, nut)] for t in t_axis.values for nut in nut_axis.values)
    )
    plot = Plot(
        "nu_tilde", "P_plus", ("n", "hbar_beta2"), "P+ n={} t={:g}", "log10 nu_tilde", "P_plus",
        logx=True,
    )
    config = {"hbar_beta2": t_axis, "nu_tilde": nut_axis, "n_max": n_max}
    axes = {"hbar_beta2": t_axis, "nu_tilde": nut_axis, "n": Axis(range(n_max))}
    data = {
        "P_plus": np.concatenate(plus),
        "P_minus": np.concatenate(minus),
        "sum_P_plus": np.repeat(completeness, n_max),
    }
    return emit(settings, "projector-expectations", config, axes, data, plot)


def cmd_decomp(args, settings) -> int:
    from . import geometry

    s, k = args.s, args.k
    if s < 1 or k < 0:
        raise UsageError("need s >= 1 and k >= 0")
    kernel = set(geometry.restriction_kernel(s, k)[0]) if s >= 2 else set()
    monomials = geometry.monomial_decomposition(s, k)
    axes = {"s": Axis([s]), "k": Axis([k]), "index": Axis(range(len(monomials)))}
    data = {
        "exponents": [" ".join(map(str, exps)) for exps in monomials],
        "in_kernel": [int(exps in kernel) for exps in monomials],
    }
    return emit(settings, "decomp", {"s": s, "k": k}, axes, data)


def cmd_verify(args, settings) -> int:
    from . import verify

    results = verify.all_checks() if args.command == "verify" else verify.geometry_checks()
    write_output(settings.get("out", "-"), [verify.render_report(results, args.command)])
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plaquette-qgauge",
        description="single-plaquette SU(2) gauge model: sweeps, figure data, verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # built on each call, not at import, so the handler that runs is the one
    # bound on the module now, a patched or traced one included
    states = {
        "--state": {
            "required": True,
            "choices": ["psi-plus", "psi-minus", "xi"],
            "help": "which state to sample",
        },
        "--level": {"type": int, "default": 0, "help": "level n for xi"},
    }
    decomp = {
        "--s": {"type": int, "required": True, "help": "rank bound"},
        "--k": {"type": int, "required": True, "help": "polynomial degree"},
    }
    commands = {
        "tunneling": (cmd_tunneling, {}),
        "spectrum": (cmd_spectrum, {}),
        "states": (cmd_states, states),
        "projector-expectations": (cmd_projector_expectations, {}),
        "decomp": (cmd_decomp, decomp),
        "geometry-verify": (cmd_verify, {}),
        "verify": (cmd_verify, {}),
    }
    for name, (func, extra) in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        for key, spec in OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, **spec)
        for flag, spec in extra.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


#: exit code when the reader of stdout closes it early: the status of a
#: process killed by SIGPIPE
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, merge_settings(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stop without a traceback, and send what stdout still buffers to
        # /dev/null, so the interpreter's flush at exit does not fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ConvergenceError,
        TruncationError,
        ConsistencyError,
        FloatingPointError,
        OverflowError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
