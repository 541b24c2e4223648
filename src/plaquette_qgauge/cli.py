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
ones as arrays.  The rows are the product of the axes, the last axis
varying fastest, written a block at a time from the pre-formatted axis
cells and that block's computed cells.  Every data command but ``decomp``
also hands ``emit`` a plot for ``--format svg``: ``svg_text``'s keyword
arguments, with one ``(label, xs, ys)`` series per polyline sliced from
the command's own arrays.  Each option is declared once, in
``OPTIONS``, and a command takes only the keys its handler reads (the
table in ``build_parser``; ``--config`` is on every command), as flags or
as lines of a flat ``key = value`` config file, read with the flag's type;
command-line flags win, and any other flag or config key exits 2, as does
a flag given twice or a key set on two config lines.  Only the commands
with a plot take ``format``.  Grid values, a range's included, must be
finite and strictly increasing.  ``resolve_axes`` turns the model options
into the reduced coordinates a run reads, t (``tunneling``, ``states``
of a vertex state) or nu_tilde (``spectrum``, ``states`` of an
eigenfunction) or both (``projector-expectations``), and refuses any
model option that feeds no coordinate the run reads: hbar and beta2 feed
t, and nu_tilde only with coupling_g.  It then refuses as ambiguous
``coupling_g`` with ``nu_tilde``, ``hbar`` or ``beta2`` with
``hbar_beta2``, and ``coupling_g`` with ``hbar_beta2`` but without
``hbar`` or ``beta2`` (nu_tilde = 1/(g^2 hbar t) then depends on an unset
hbar); ``hbar``, ``beta2`` and ``coupling_g`` are checked as a
``ModelParams``, which turns them into the (t, nu_tilde) that every
numerical layer takes.

Importing this module loads only the ``strata``, ``theta`` and
``costratified`` layers, which ``tunneling`` needs.  Each other command
imports what it uses: ``spectrum`` (with ``mathieu`` and ``characters``)
for ``spectrum``, ``projector-expectations`` and ``states --state xi``,
``characters`` for ``states --state psi-*``, ``geometry`` for ``decomp``,
and ``verify`` (every layer) for the two verify commands.  ``params``
(and ``dataclasses``) loads only on a run given hbar, beta2 or
coupling_g, and ``json`` at the first config line, so the verify commands
never load it.  ``main`` builds the parser of the one command its first
argument names; ``--help``, ``--version``, no command or an unknown one
build every command's, and both print the same help and usage text.

Exit codes: 0 success, 1 verification failure, 2 usage error (any
``ValueError`` but ``TruncationError``), 3 numerical failure or out of
memory (a grid or truncation too large to allocate, with a one-line ``out
of memory:`` message), 141 stdout closed by its reader before the output
was written (as by ``| head``), with no message.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import __version__, costratified
from .errors import ConsistencyError, ConvergenceError, TruncationError
from .strata import Stratum


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
    """Parse 'a,b,c' or 'lo:hi:count' (linear) or 'lo:hi:count:log' into finite values.

    Either form must give strictly increasing values: a range whose step is
    below the spacing of doubles would repeat one.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ValueError(f"bad range {text!r}; expected lo:hi:count[:log]")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad range {text!r}: {exc}") from exc
        if not math.isfinite(hi - lo):
            raise ValueError(f"bad range {text!r}; need finite ends a finite distance apart")
        if count < 1 or not hi > lo:
            raise ValueError(f"bad range {text!r}; need hi > lo and count >= 1")
        if len(parts) == 4 and lo <= 0:
            raise ValueError(f"log range {text!r} needs lo > 0")
        space = np.geomspace if len(parts) == 4 else np.linspace
        values = space(lo, hi, count).tolist()
    else:
        try:
            values = [float(v) for v in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad value list {text!r}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ValueError(f"values must be finite, got {text!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"values must be strictly increasing, got {text!r}")
    return values


def read_config_file(path: str, keys) -> dict:
    """Config-file values, each key one of ``keys``, set once and converted like its flag in ``OPTIONS``."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    out, set_on = {}, {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: this command takes no {key!r}, only {', '.join(keys)}")
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        choices = OPTIONS[key].get("choices", (text,))
        if text not in choices:
            raise ValueError(f"{path}:{lineno}: {key} must be {' or '.join(choices)}, got {text!r}")
        try:
            out[key] = OPTIONS[key]["type"](text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


def merge_settings(args: argparse.Namespace) -> dict:
    """The config file's settings, then the flags'.

    A command's parser has a flag for each ``OPTIONS`` key the command
    takes and for no other, so those are the keys its config may hold.
    """
    keys = [key for key in OPTIONS if hasattr(args, key)]
    settings = read_config_file(args.config, keys) if args.config else {}
    settings.update({k: v for k, v in vars(args).items() if k in OPTIONS and v is not None})
    return settings


def fmt(column) -> list[str]:
    """The shortest round-trip decimal of every value of a float column."""
    return list(map(float.__repr__, np.asarray(column, dtype=float).tolist()))


def _cells(column) -> list[str]:
    """The cells of a column: float values through ``fmt``, other values through ``str``."""
    values = np.asarray(column)
    return fmt(values) if values.dtype.kind == "f" else list(map(str, values.tolist()))


class Axis:
    """A swept column: its values in order, and their cells, each formatted once.

    ``emit`` writes the rows of the product of its axes, and every grid a
    config holds is an axis, written from the same cells.
    """

    def __init__(self, values):
        self.values = list(values)
        self.cells = _cells(self.values)


#: each reduced coordinate a run can read, by the key of its grid: the
#: options that derive it through ``ModelParams`` instead of the grid, the
#: ``ModelParams`` property it is, and the sign its values must have
COORDINATES = {
    "hbar_beta2": (("hbar", "beta2"), "t", "positive"),
    "nu_tilde": (("coupling_g",), "nu_tilde", "non-negative"),
}


def resolve_axes(settings: dict, **defaults: str) -> dict:
    """One ``Axis`` per reduced coordinate the run reads, keyed and ordered as ``defaults``.

    ``defaults`` maps each coordinate the run reads, ``hbar_beta2`` (t) or
    ``nu_tilde``, to its default grid.  t is the hbar_beta2 grid, else
    hbar * beta2; nu_tilde is the nu_tilde grid, else
    1/(coupling_g^2 hbar^2 beta2), so hbar and beta2 feed nu_tilde only
    with coupling_g.  A model option that feeds no coordinate the run reads
    is refused first.  Then, a coordinate at a time, come the ambiguity
    rules, the ``ModelParams`` checks and the sign of the values.
    """
    # hbar and beta2 feed t, and nu_tilde with coupling_g, which feeds only nu_tilde
    if {"hbar", "beta2"} & settings.keys() and "hbar_beta2" not in defaults and "coupling_g" not in settings:
        raise ValueError("hbar and beta2 derive nu_tilde only with coupling_g; supply it, or nu_tilde alone")
    for key in ("coupling_g", *COORDINATES):
        if key in settings and ("nu_tilde" if key == "coupling_g" else key) not in defaults:
            raise ValueError(f"{key} does not enter this run, which reads only {' and '.join(defaults)}")
    axes = {}
    for key, default in defaults.items():
        sources, derived, sign = COORDINATES[key]
        given = any(source in settings for source in sources)
        # nu_tilde = 1 / (g^2 hbar t) needs an hbar that hbar_beta2 does not fix
        if key == "nu_tilde" and given and "hbar_beta2" in settings and not {"hbar", "beta2"} & settings.keys():
            raise ValueError("coupling_g with hbar_beta2 is ambiguous; "
                             "supply nu_tilde, or hbar and beta2 instead of hbar_beta2")
        if key in settings and given:
            raise ValueError(f"supply either {'/'.join(sources)} or {key}, not both")
        if given:
            from .params import ModelParams

            hbar, beta2 = settings.get("hbar", 1.0), settings.get("beta2", 1.0)
            values = [getattr(ModelParams(hbar, beta2, settings.get("coupling_g", math.inf)), derived)]
        else:
            values = parse_value_list(settings.get(key, default))
        if any(v < 0 or v == 0 and sign == "positive" for v in values):
            raise ValueError(f"{key} values must be {sign}")
        axes[key] = Axis(values)
    return axes


def canonical_config(command: str, **entries) -> str:
    """The command and its settings as JSON with sorted keys and no spaces.

    An ``Axis`` is written from its cells.
    """
    import json

    payload = {"command": command, **entries}
    items = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, Axis):
            text = "[" + ",".join(value.cells) + "]"
        else:
            text = json.dumps(value)
        items.append(f"{json.dumps(key)}:{text}")
    return "{" + ",".join(items) + "}"


def csv_text(columns: list[list[str]]) -> str:
    """The CSV lines of a block of rows, from the cells of each column."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


_SVG_COLORS = ("#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#d4880c", "#3a3a3a")


def svg_text(config_json: str, series, xlabel: str, ylabel: str, logx: bool = False) -> str:
    """Minimal static line plot: labelled polylines in a 640x480 frame.

    ``series`` holds one ``(label, xs, ys)`` per polyline.  A log-x plot
    refuses an x <= 0, which has no logarithm.
    """
    width, height, margin = 640.0, 480.0, 60.0
    xs_all = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series])
    if logx:
        if np.any(xs_all <= 0):
            raise ValueError(f"the {xlabel} axis needs x > 0, got {float(np.min(xs_all))!r}")
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
            raise ValueError(f"cannot write output: {exc}") from exc


#: rows formatted and written at a time.  Only one block's strings are alive
#: at once, so writing adds little to the peak memory however many rows the
#: command has: on projector-grid (3,600 rows) 512-row blocks peak 0.5 MB
#: below building the whole CSV, and 2,048-row blocks 0.2 MB above it
_BLOCK_ROWS = 512


def _csv_blocks(config_json: str, axes: dict, data: dict, count: int):
    """The CSV text: the comment and header lines, then blocks of ``_BLOCK_ROWS`` rows."""
    yield f"# plaquette-qgauge v{__version__} config={config_json}\n{','.join([*axes, *data])}\n"
    rows = itertools.product(*(axis.cells for axis in axes.values()))
    for start in range(0, count, _BLOCK_ROWS):
        columns = list(zip(*itertools.islice(rows, _BLOCK_ROWS)))
        columns += [_cells(column[start : start + _BLOCK_ROWS]) for column in data.values()]
        yield csv_text(columns)


def emit(settings: dict, command: str, config: dict, axes: dict, data: dict, plot=None) -> int:
    """Write the rows of ``axes`` and ``data`` as CSV, or as SVG with a ``plot``.

    The rows run over the product of the ``axes`` (each an ``Axis``), the
    last varying fastest, and ``data`` gives each further column as one
    value per row, an array or a list.  An axis cell is formatted once, and
    the CSV is formatted and written a block of rows at a time.  A ``plot``
    is ``svg_text``'s keyword arguments, its series built by the command
    from its own arrays; only a command with a plot takes ``format``, and
    its config records it.
    """
    fmt_name = settings.get("format", "csv")
    if plot is not None:
        config = {**config, "format": fmt_name}
    config_json = canonical_config(command, **config)
    if fmt_name == "svg":
        chunks = [svg_text(config_json, **plot)]
    else:
        count = math.prod(len(axis.values) for axis in axes.values())
        chunks = _csv_blocks(config_json, axes, data, count)
    write_output(settings.get("out", "-"), chunks)
    return 0


def cmd_tunneling(args, settings) -> int:
    t_axis = resolve_axes(settings, hbar_beta2="0.01:5:200:log")["hbar_beta2"]
    overlaps = np.array([costratified.tunneling_overlap(t) for t in t_axis.values])
    data = {"overlap": overlaps, "probability": overlaps * overlaps}
    series = [("probability", t_axis.values, data["probability"])]
    plot = dict(series=series, xlabel="log10 hbar_beta2", ylabel="tunneling probability", logx=True)
    return emit(settings, "tunneling", {"hbar_beta2": t_axis}, {"hbar_beta2": t_axis}, data, plot)


def cmd_spectrum(args, settings) -> int:
    from . import spectrum

    # the energies are in units of hbar^2 beta2: hbar and beta2 enter only
    # through nu_tilde, with coupling_g
    nut_axis = resolve_axes(settings, nu_tilde="0:24:49")["nu_tilde"]
    n_max = settings.get("n_max", 8)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    energies = np.array([spectrum.energy(np.arange(n_max + 1), nut) for nut in nut_axis.values])
    series = [(f"E_{n}", nut_axis.values, energies[:, n]) for n in range(n_max)]
    plot = dict(series=series, xlabel="nu_tilde", ylabel="E_n / hbar^2 beta2")
    axes = {"nu_tilde": nut_axis, "n": Axis(range(n_max))}
    data = {"E_n": energies[:, :-1].ravel(), "E_gap": np.diff(energies).ravel()}
    return emit(settings, "spectrum", {"nu_tilde": nut_axis, "n_max": n_max}, axes, data, plot)


def cmd_states(args, settings) -> int:
    # a vertex state reads t alone, an eigenfunction nu_tilde alone
    vertex = args.state in ("psi-plus", "psi-minus")
    coordinate = resolve_axes(settings, **({"hbar_beta2": "0.125"} if vertex else {"nu_tilde": "0"}))
    ((key, axis),) = coordinate.items()
    if len(axis.values) != 1:
        raise ValueError(f"states needs a single {key}")
    grid = settings.get("grid", 257)
    if grid < 2:
        raise ValueError("grid must be >= 2")
    x = np.linspace(0.0, math.pi, grid)
    if vertex:
        if args.level is not None:
            raise ValueError(f"--level selects an eigenfunction of --state xi, not of {args.state}")
        from . import characters

        stratum = Stratum.PLUS if args.state == "psi-plus" else Stratum.MINUS
        state = costratified.stratum_state(stratum, axis.values[0])
        values = math.sqrt(2.0) * characters.sine_series(x, state)
        label = args.state
    else:
        from . import spectrum

        level = 0 if args.level is None else args.level
        if level < 0:
            raise ValueError("level must be >= 0")
        values = spectrum.eigenfunction_x(level, axis.values[0], x)
        label = f"xi_{level}"
    config = {"state": label, **coordinate, "grid": grid}
    plot = dict(series=[(label, x, values)], xlabel="x", ylabel=label)
    return emit(settings, "states", config, {"x": Axis(x)}, {"value": values}, plot)


def cmd_projector_expectations(args, settings) -> int:
    from . import spectrum

    coordinates = resolve_axes(settings, hbar_beta2="0.03125,0.125,0.5", nu_tilde="0.1:100:30:log")
    t_axis, nut_axis = coordinates.values()
    n_max = settings.get("n_max", 6)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # one call serves the sweep, its arrays in the (t, nu_tilde, n) order of the rows
    plus, minus, completeness = spectrum.projector_expectations(t_axis.values, nut_axis.values, n_max)
    series = [
        (f"P+ n={n} t={t:g}", nut_axis.values, plus[i, :, n])
        for i, t in enumerate(t_axis.values)
        for n in range(n_max)
    ]
    plot = dict(series=series, xlabel="log10 nu_tilde", ylabel="P_plus", logx=True)
    config = {**coordinates, "n_max": n_max}
    axes = {**coordinates, "n": Axis(range(n_max))}
    data = {
        "P_plus": plus.ravel(),
        "P_minus": minus.ravel(),
        "sum_P_plus": np.repeat(completeness.ravel(), n_max),
    }
    return emit(settings, "projector-expectations", config, axes, data, plot)


def cmd_decomp(args, settings) -> int:
    from . import geometry

    s, k = args.s, args.k
    if s < 1 or k < 0:
        raise ValueError("need s >= 1 and k >= 0")
    monomials = geometry.monomial_decomposition(s, k)
    axes = {"s": Axis([s]), "k": Axis([k]), "index": Axis(range(len(monomials)))}
    data = {
        "exponents": [" ".join(map(str, exps)) for exps in monomials],
        "in_kernel": [int(geometry.in_restriction_kernel(exps)) for exps in monomials],
    }
    return emit(settings, "decomp", {"s": s, "k": k}, axes, data)


def cmd_verify(args, settings) -> int:
    from . import verify

    results = verify.all_checks() if args.command == "verify" else verify.geometry_checks()
    write_output(settings.get("out", "-"), [verify.render_report(results, args.command)])
    return 0 if all(r.passed for r in results) else 1


class _Once(argparse.Action):
    """Store a flag's value, and refuse the flag given a second time.

    Every flag of a subcommand defaults to None, so a value already stored
    means the flag came before.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "may be given only once")
        setattr(namespace, self.dest, values)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with ``command``'s alone.

    A parser holding one subcommand parses that command's arguments and
    prints its help and usage errors exactly as the full parser does; any
    ``command`` that names no subcommand (None, an option, an unknown
    word) gets the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="plaquette-qgauge",
        description="single-plaquette SU(2) gauge model: sweeps, figure data, verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    # built on each call, not at import, so the handler that runs is the one
    # bound on the module now, a patched or traced one included.  A command
    # takes --config, the OPTIONS keys its handler reads and its own flags
    model = ("hbar", "beta2", "coupling_g", "nu_tilde", "hbar_beta2")
    states = {
        "--state": {
            "required": True,
            "choices": ["psi-plus", "psi-minus", "xi"],
            "help": "which state to sample",
        },
        "--level": {"type": int, "help": "level n for xi (default 0)"},
    }
    decomp = {
        "--s": {"type": int, "required": True, "help": "rank bound"},
        "--k": {"type": int, "required": True, "help": "polynomial degree"},
    }
    commands = {
        "tunneling": (cmd_tunneling, ("out", "format", "hbar", "beta2", "hbar_beta2"), {}),
        "spectrum": (cmd_spectrum, ("out", "format", "hbar", "beta2", "coupling_g", "nu_tilde", "n_max"), {}),
        "states": (cmd_states, ("out", "format", *model, "grid"), states),
        "projector-expectations": (cmd_projector_expectations, ("out", "format", *model, "n_max"), {}),
        "decomp": (cmd_decomp, ("out",), decomp),
        "geometry-verify": (cmd_verify, ("out",), {}),
        "verify": (cmd_verify, ("out",), {}),
    }
    if command in commands:
        # the top-level usage line, which an unrecognized argument prints,
        # still names every command; with no metavar argparse would name
        # only the one added
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(commands) + "}")
        commands = {command: commands[command]}
    else:
        sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, keys, extra) in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", action=_Once, help="flat key = value config file")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, action=_Once, **OPTIONS[key])
        for flag, spec in extra.items():
            p.add_argument(flag, action=_Once, **spec)
        p.set_defaults(func=func)
    return parser


#: exit code when the reader of stdout closes it early: the status of a
#: process killed by SIGPIPE
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run builds the parser of the command it names; --help, --version, no
    # command or an unknown one build the full parser
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
    except (
        ConvergenceError,
        TruncationError,
        ConsistencyError,
        FloatingPointError,
        OverflowError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's error names the array it could not allocate; a bare
        # MemoryError has no message
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
