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
rows with floats printed as their shortest round-trip decimal.  A flat
``key = value`` config file can provide any option; command-line flags win.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, costratified, mathieu, spectrum, verify
from .costratified import ConsistencyError, TruncationError
from .geometry import monomial_decomposition, restriction_kernel
from .params import ModelParams
from .strata import Stratum


class UsageError(Exception):
    pass


CONFIG_KEYS = (
    "hbar",
    "beta2",
    "coupling_g",
    "nu_tilde",
    "hbar_beta2",
    "n_max",
    "trunc",
    "grid",
    "out",
    "format",
)


def parse_value_list(text: str) -> list[float]:
    """Parse 'a,b,c' or 'lo:hi:count' (linear) or 'lo:hi:count:log'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise UsageError(f"bad range {text!r}; expected lo:hi:count[:log]")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"bad range {text!r}: {exc}") from exc
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
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError(f"values must be strictly increasing, got {text!r}")
    return values


def read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = value.strip()
    return out


def merge_settings(args: argparse.Namespace) -> dict[str, str]:
    settings = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = str(flag)
    return settings


def resolve_t_values(settings: dict[str, str], default: str) -> list[float]:
    if "hbar_beta2" in settings:
        values = parse_value_list(settings["hbar_beta2"])
    elif "hbar" in settings or "beta2" in settings:
        hbar = float(settings.get("hbar", "1.0"))
        beta2 = float(settings.get("beta2", "1.0"))
        values = [hbar * beta2]
    else:
        values = parse_value_list(default)
    if any(v <= 0 for v in values):
        raise UsageError("hbar_beta2 values must be positive")
    return values


def resolve_nut_values(settings: dict[str, str], default: str) -> list[float]:
    if "coupling_g" in settings and "nu_tilde" in settings:
        raise UsageError("supply either coupling_g or nu_tilde, not both")
    if "nu_tilde" in settings:
        values = parse_value_list(settings["nu_tilde"])
    elif "coupling_g" in settings:
        g = float(settings["coupling_g"])
        hbar = float(settings.get("hbar", "1.0"))
        beta2 = float(settings.get("beta2", "1.0"))
        params = ModelParams(hbar=hbar, beta2=beta2, coupling_g=g)
        values = [params.nu_tilde]
    else:
        values = parse_value_list(default)
    if any(v < 0 for v in values):
        raise UsageError("nu_tilde values must be non-negative")
    return values


def fmt(value: float) -> str:
    return repr(float(value))


def canonical_config(command: str, **entries) -> str:
    payload = {"command": command}
    for key, value in entries.items():
        if isinstance(value, (list, tuple)):
            payload[key] = [float(v) for v in value]
        else:
            payload[key] = value
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def csv_text(config_json: str, columns: list[str], rows: list[list[str]]) -> str:
    lines = [f"# plaquette-qgauge v{__version__} config={config_json}", ",".join(columns)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


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


def write_output(path: str, text: str):
    if path in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _out_and_format(settings) -> tuple[str, str]:
    out = settings.get("out", "-")
    fmt_name = settings.get("format", "csv")
    if fmt_name not in ("csv", "svg"):
        raise UsageError(f"unknown format {fmt_name!r}; expected csv or svg")
    return out, fmt_name


def cmd_tunneling(args) -> int:
    settings = merge_settings(args)
    t_values = resolve_t_values(settings, default="0.01:5:200:log")
    out, fmt_name = _out_and_format(settings)
    config_json = canonical_config("tunneling", hbar_beta2=t_values, format=fmt_name)
    overlaps = [costratified.tunneling_overlap(t) for t in t_values]
    probabilities = [o * o for o in overlaps]
    if fmt_name == "svg":
        text = svg_text(
            config_json,
            [("probability", t_values, probabilities)],
            xlabel="log10 hbar_beta2",
            ylabel="tunneling probability",
            logx=True,
        )
    else:
        rows = [
            [fmt(t), fmt(o), fmt(p)] for t, o, p in zip(t_values, overlaps, probabilities)
        ]
        text = csv_text(config_json, ["hbar_beta2", "overlap", "probability"], rows)
    write_output(out, text)
    return 0


def cmd_spectrum(args) -> int:
    settings = merge_settings(args)
    nut_values = resolve_nut_values(settings, default="0:24:49")
    n_max = int(settings.get("n_max", "8"))
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    out, fmt_name = _out_and_format(settings)
    config_json = canonical_config("spectrum", nu_tilde=nut_values, n_max=n_max, format=fmt_name)
    table: dict[float, np.ndarray] = {}
    for nut in nut_values:
        params = ModelParams.from_reduced(1.0, nut)
        levels = np.array(
            [spectrum.energy(n, params) / params.hbar2_beta2 for n in range(n_max + 1)]
        )
        table[nut] = levels
    if fmt_name == "svg":
        series = [
            (f"E_{n}", nut_values, [table[nut][n] for nut in nut_values]) for n in range(n_max)
        ]
        text = svg_text(config_json, series, xlabel="nu_tilde", ylabel="E_n / hbar^2 beta2")
    else:
        rows = []
        for nut in nut_values:
            levels = table[nut]
            for n in range(n_max):
                rows.append([fmt(nut), str(n), fmt(levels[n]), fmt(levels[n + 1] - levels[n])])
        text = csv_text(config_json, ["nu_tilde", "n", "E_n", "E_gap"], rows)
    write_output(out, text)
    return 0


def cmd_states(args) -> int:
    settings = merge_settings(args)
    t_values = resolve_t_values(settings, default="0.125")
    nut_values = resolve_nut_values(settings, default="0")
    if len(t_values) != 1 or len(nut_values) != 1:
        raise UsageError("states needs a single hbar_beta2 and a single nu_tilde")
    params = ModelParams.from_reduced(t_values[0], nut_values[0])
    grid = int(settings.get("grid", "257"))
    if grid < 2:
        raise UsageError("grid must be >= 2")
    trunc = int(settings["trunc"]) if "trunc" in settings else None
    x = np.linspace(0.0, math.pi, grid)
    selector = args.state
    if selector in ("psi-plus", "psi-minus"):
        stratum = Stratum.PLUS if selector == "psi-plus" else Stratum.MINUS
        state = costratified.stratum_state(stratum, params, trunc=trunc)
        basis = np.sqrt(2.0) * np.sin(np.multiply.outer(x, np.arange(state.trunc) + 1.0))
        values = basis @ np.asarray(state.coeffs, dtype=float)
        label = selector
    else:
        level = args.level
        if level < 0:
            raise UsageError("level must be >= 0")
        values = spectrum.eigenfunction_x(level, params, x)
        label = f"xi_{level}"
    out, fmt_name = _out_and_format(settings)
    config_json = canonical_config(
        "states",
        state=label,
        hbar_beta2=t_values,
        nu_tilde=nut_values,
        grid=grid,
        format=fmt_name,
    )
    if fmt_name == "svg":
        text = svg_text(config_json, [(label, x, values)], xlabel="x", ylabel=label)
    else:
        rows = [[fmt(xi), fmt(vi)] for xi, vi in zip(x, values)]
        text = csv_text(config_json, ["x", "value"], rows)
    write_output(out, text)
    return 0


def cmd_projector_expectations(args) -> int:
    settings = merge_settings(args)
    t_values = resolve_t_values(settings, default="0.03125,0.125,0.5")
    nut_values = resolve_nut_values(settings, default="0.1:100:30:log")
    n_max = int(settings.get("n_max", "6"))
    if n_max < 1:
        raise UsageError("n_max must be >= 1")
    out, fmt_name = _out_and_format(settings)
    config_json = canonical_config(
        "projector-expectations",
        hbar_beta2=t_values,
        nu_tilde=nut_values,
        n_max=n_max,
        format=fmt_name,
    )
    # nu_tilde-major, so every t at one q reuses that q's cached eigensystem;
    # the rows below are still emitted t-major
    results = {}
    for nut in nut_values:
        for t in t_values:
            params = ModelParams.from_reduced(t, nut)
            results[(t, nut)] = spectrum.projector_expectations(params, n_max)
    if fmt_name == "svg":
        series = []
        for t in t_values:
            for n in range(n_max):
                series.append(
                    (
                        f"P+ n={n} t={t:g}",
                        nut_values,
                        [results[(t, nut)][0][n] for nut in nut_values],
                    )
                )
        text = svg_text(
            config_json, series, xlabel="log10 nu_tilde", ylabel="P_plus", logx=True
        )
    else:
        rows = []
        for t in t_values:
            for nut in nut_values:
                plus, minus, completeness = results[(t, nut)]
                for n in range(n_max):
                    rows.append(
                        [fmt(t), fmt(nut), str(n), fmt(plus[n]), fmt(minus[n]), fmt(completeness)]
                    )
        text = csv_text(
            config_json,
            ["hbar_beta2", "nu_tilde", "n", "P_plus", "P_minus", "sum_P_plus"],
            rows,
        )
    write_output(out, text)
    return 0


def cmd_decomp(args) -> int:
    settings = merge_settings(args)
    s, k = args.s, args.k
    if s < 1 or k < 0:
        raise UsageError("need s >= 1 and k >= 0")
    out, fmt_name = _out_and_format(settings)
    if fmt_name != "csv":
        raise UsageError("decomp only supports csv output")
    config_json = canonical_config("decomp", s=s, k=k)
    monomials = monomial_decomposition(s, k)
    kernel = set(restriction_kernel(s, k)[0]) if s >= 2 else set()
    rows = [
        [str(s), str(k), str(idx), " ".join(str(e) for e in exps), str(int(exps in kernel))]
        for idx, exps in enumerate(monomials)
    ]
    write_output(out, csv_text(config_json, ["s", "k", "index", "exponents", "in_kernel"], rows))
    return 0


def cmd_geometry_verify(args) -> int:
    settings = merge_settings(args)
    results = verify.geometry_checks()
    write_output(settings.get("out", "-"), verify.render_report(results, "geometry-verify"))
    return 0 if all(r.passed for r in results) else 1


def cmd_verify(args) -> int:
    settings = merge_settings(args)
    results = verify.all_checks()
    write_output(settings.get("out", "-"), verify.render_report(results, "verify"))
    return 0 if all(r.passed for r in results) else 1


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=["csv", "svg"], help="output format")
    parser.add_argument("--hbar", type=float)
    parser.add_argument("--beta2", type=float)
    parser.add_argument("--coupling-g", dest="coupling_g", type=float)
    parser.add_argument("--nu-tilde", dest="nu_tilde", help="list 'a,b' or range 'lo:hi:n[:log]'")
    parser.add_argument(
        "--hbar-beta2", dest="hbar_beta2", help="list 'a,b' or range 'lo:hi:n[:log]'"
    )
    parser.add_argument("--n-max", dest="n_max", type=int, help="number of levels")
    parser.add_argument("--trunc", type=int, help="basis truncation override")
    parser.add_argument("--grid", type=int, help="number of sample points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plaquette-qgauge",
        description="single-plaquette SU(2) gauge model: sweeps, figure data, verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "tunneling": cmd_tunneling,
        "spectrum": cmd_spectrum,
        "states": cmd_states,
        "projector-expectations": cmd_projector_expectations,
        "decomp": cmd_decomp,
        "geometry-verify": cmd_geometry_verify,
        "verify": cmd_verify,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=func)
        if name == "states":
            p.add_argument(
                "--state",
                required=True,
                choices=["psi-plus", "psi-minus", "xi"],
                help="which state to sample",
            )
            p.add_argument("--level", type=int, default=0, help="level n for xi")
        if name == "decomp":
            p.add_argument("--s", type=int, required=True, help="rank bound")
            p.add_argument("--k", type=int, required=True, help="polynomial degree")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        mathieu.ConvergenceError,
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
