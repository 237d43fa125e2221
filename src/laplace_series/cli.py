"""Command-line front end: JSON problem configs, solves, CSV/SVG/report output.

Subcommands: solve, contours, streamlines, eval (all driven by a JSON config)
and cantor (driven by -m).  Reports print numbers to 13 significant digits and
all outputs are deterministic: the same config produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .basis import ExpansionSpec, eval_expansion, outer_index
from .cantor import MAX_GENERAL_LEVEL, MAX_LEVEL, cantor_degree, cantor_measures
from .field import (
    EQUIPOTENTIAL,
    STREAMLINE,
    TraceOptions,
    _domain_mask,
    default_window,
    extract_contours,
    streamline_fan,
)
from .geometry import (
    DISK,
    INNER,
    OUTER,
    SLIT,
    BoundaryComponent,
    GeometryError,
    boundary_distance,
    disk,
    slit,
)
from .solver import (
    BOUNDED,
    EXTERIOR,
    Problem,
    Solution,
    default_npts,
    harmonic_measures,
    solve_problem,
)


class ConfigError(ValueError):
    """A problem configuration failed to parse or validate."""


@dataclass(frozen=True)
class StreamlineRequest:
    count: int = 64
    eps: float | None = None


@dataclass(frozen=True)
class OutputPaths:
    report: str | None = "report.json"
    csv: str | None = "field.csv"
    svg: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """A parsed problem configuration plus its output requests."""

    problem: Problem
    spec: ExpansionSpec
    npts: tuple[int, ...]
    window: tuple[float, float, float, float]
    levels: tuple[float, ...] | None
    streamlines: StreamlineRequest
    outputs: OutputPaths
    eval_points: tuple[complex, ...] = ()


_TOP_KEYS = {
    "domain", "source", "components", "degree", "npts", "scaled",
    "window", "levels", "streamlines", "outputs", "eval",
}
_COMPONENT_KEYS = {"kind", "center", "radius", "halfspan", "value", "role"}
_STREAMLINE_KEYS = {"count", "eps"}
_OUTPUT_KEYS = {"report", "csv", "svg"}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _number(value, where: str, positive: bool = False) -> float:
    """A finite JSON number as a float; true, false, NaN and the infinities
    (which Python's json accepts) are not numbers here."""
    x = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not math.isfinite(x) or (positive and x <= 0):
        raise ConfigError(f"{where} must be a finite{' positive' if positive else ''} number")
    return x


def _point(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a [x, y] pair of numbers")
    return complex(_number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]"))


def _counts(value, key: str, n: int, least: int) -> tuple[int, ...]:
    """A per-component count: one integer for all n components, or a list of
    n integers, each at least ``least``."""
    counts = value if isinstance(value, list) else [value] * n
    if len(counts) != n:
        raise ConfigError(f"'{key}' list must give one entry per component")
    if not all(isinstance(x, int) and not isinstance(x, bool) and x >= least for x in counts):
        raise ConfigError(f"'{key}' must be an integer >= {least} or a list of them")
    return tuple(counts)


def _parse_component(entry, idx: int) -> tuple[BoundaryComponent, float]:
    where = f"components[{idx}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(entry, _COMPONENT_KEYS, where)
    kind = entry.get("kind")
    if kind not in (DISK, SLIT):
        raise ConfigError(f"{where}.kind must be 'disk' or 'slit'")
    if "center" not in entry:
        raise ConfigError(f"{where}.center is required")
    center = _point(entry["center"], f"{where}.center")
    role = entry.get("role", INNER)
    if role not in (INNER, OUTER):
        raise ConfigError(f"{where}.role must be 'inner' or 'outer'")
    value = _number(entry.get("value", 0.0), f"{where}.value")
    try:
        if kind == DISK:
            if "halfspan" in entry:
                raise ConfigError(f"key 'halfspan' is not valid for a disk in {where}")
            if "radius" not in entry:
                raise ConfigError(f"{where}.radius is required for a disk")
            comp = disk(center, _number(entry["radius"], f"{where}.radius", positive=True), role)
        else:
            if "radius" in entry:
                raise ConfigError(f"key 'radius' is not valid for a slit in {where}")
            if "halfspan" not in entry:
                raise ConfigError(f"{where}.halfspan is required for a slit")
            halfspan = _point(entry["halfspan"], f"{where}.halfspan")
            if role == OUTER:
                raise ConfigError(f"{where}: a slit cannot take the outer role")
            comp = slit(center, halfspan)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc
    return comp, value


def parse_problem_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON problem configuration."""
    return _validate_config(_decode_config(text))


def _decode_config(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("the configuration must be a JSON object")
    return raw


def _validate_config(raw: dict) -> RunConfig:
    _reject_unknown(raw, _TOP_KEYS, "the configuration")

    domain = raw.get("domain", EXTERIOR)
    if domain not in (EXTERIOR, BOUNDED):
        raise ConfigError("'domain' must be 'exterior' or 'bounded'")

    comps_raw = raw.get("components")
    if not isinstance(comps_raw, list) or not comps_raw:
        raise ConfigError("'components' must be a non-empty list")
    parsed = [_parse_component(entry, i) for i, entry in enumerate(comps_raw)]
    components = tuple(c for c, _ in parsed)
    boundary_data = tuple(v for _, v in parsed)

    if "source" in raw:
        source = None if raw["source"] is None else _point(raw["source"], "source")
    else:
        source = 0j if domain == EXTERIOR else None

    degree = _counts(raw.get("degree", 10), "degree", len(components), least=0)

    scaled = raw.get("scaled", True)
    if not isinstance(scaled, bool):
        raise ConfigError("'scaled' must be true or false")
    spec = ExpansionSpec(degrees=degree, scaled=scaled)

    try:
        problem = Problem(components, domain, source, boundary_data)
    except (GeometryError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    if raw.get("npts") is None:
        npts = tuple(default_npts(spec))
    else:
        npts = _counts(raw["npts"], "npts", len(components), least=1)

    if "window" in raw:
        win = raw["window"]
        if not isinstance(win, list) or len(win) != 4:
            raise ConfigError("'window' must be a list [x0, x1, y0, y1]")
        window = tuple(_number(v, f"window[{i}]") for i, v in enumerate(win))
        if not (window[0] < window[1] and window[2] < window[3]):
            raise ConfigError("'window' must have x0 < x1 and y0 < y1")
    else:
        window = default_window(problem)

    levels = None
    if "levels" in raw:
        lv = raw["levels"]
        if not isinstance(lv, list):
            raise ConfigError("'levels' must be a list of numbers")
        levels = tuple(_number(v, f"levels[{i}]") for i, v in enumerate(lv))

    sl = raw.get("streamlines", {})
    if not isinstance(sl, dict):
        raise ConfigError("'streamlines' must be an object")
    _reject_unknown(sl, _STREAMLINE_KEYS, "'streamlines'")
    count = sl.get("count", 64)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ConfigError("'streamlines.count' must be an integer >= 0")
    eps = sl.get("eps")
    if eps is not None:
        eps = _number(eps, "streamlines.eps", positive=True)
    streamlines = StreamlineRequest(count=count, eps=eps)

    out = raw.get("outputs", {})
    if not isinstance(out, dict):
        raise ConfigError("'outputs' must be an object")
    _reject_unknown(out, _OUTPUT_KEYS, "'outputs'")
    for key, path in out.items():
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"outputs.{key} must be a path or null")
    outputs = OutputPaths(**out)

    eval_points = ()
    if "eval" in raw:
        ev = raw["eval"]
        if not isinstance(ev, list):
            raise ConfigError("'eval' must be a list of [x, y] pairs")
        eval_points = tuple(_point(p, f"eval[{i}]") for i, p in enumerate(ev))

    return RunConfig(
        problem=problem,
        spec=spec,
        npts=npts,
        window=window,
        levels=levels,
        streamlines=streamlines,
        outputs=outputs,
        eval_points=eval_points,
    )


def _sig13(x: float) -> float:
    """Round to 13 significant digits, the precision quoted in reports."""
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.12e}")


def _auto_levels(solution: Solution, window) -> tuple[float, ...]:
    """Twelve regularly spaced levels spanning the field's bulk over the window."""
    x0, x1, y0, y1 = window
    xs = np.linspace(x0, x1, 60)
    ys = np.linspace(y0, y1, 60)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    mask = _domain_mask(solution.problem, Z)
    if solution.problem.source is not None:
        mask &= np.abs(Z - solution.problem.source) > 0.05 * (x1 - x0)
    z = Z[mask]
    if z.size == 0:
        return ()
    u = eval_expansion(solution.expansion, z)
    lo, hi = np.percentile(u, 4.0), np.percentile(u, 96.0)
    if not (hi > lo):
        return ()
    return tuple(float(v) for v in np.linspace(lo, hi, 14)[1:-1])


def build_report(solution: Solution, eval_points=()) -> dict:
    exp = solution.expansion
    report = harmonic_measures(solution)
    # report.json lists the outer circle's degree apart, with 0 in its place.
    oj = outer_index(exp.components)
    doc = {
        "domain": solution.problem.domain_kind,
        "constant": _sig13(exp.constant),
        "log_coefficients": [_sig13(d) for d in exp.log_coeffs],
        "source": None
        if solution.problem.source is None
        else [solution.problem.source.real, solution.problem.source.imag],
        "source_strength": exp.source_strength,
        "residual": _sig13(solution.residual),
        "measures": [_sig13(v) for v in report.measures],
        "measures_total": _sig13(report.total),
        "probabilistic": report.probabilistic,
        "fit": {
            "rows": solution.fit_report.rows,
            "cols": solution.fit_report.cols,
            "npts": list(solution.fit_report.npts),
            "degrees": [0 if j == oj else n for j, n in enumerate(exp.spec.degrees)],
            "outer_degree": 0 if oj is None else exp.spec.degrees[oj],
        },
        "coefficients": {
            "cos": [[_sig13(a) for a in blk.real] for blk in exp.blocks[:-1]],
            "sin": [[_sig13(b) for b in blk.imag] for blk in exp.blocks[:-1]],
            "outer_cos": [_sig13(a) for a in exp.blocks[-1].real],
            "outer_sin": [_sig13(b) for b in exp.blocks[-1].imag],
        },
        "eval": [
            {"point": [p.real, p.imag], "u": _sig13(float(eval_expansion(exp, p)))}
            for p in eval_points
        ],
    }
    return doc


def polylines_csv(polylines) -> str:
    """One polyline per blank-line-separated block: kind,level_or_seed,x,y."""
    lines = ["kind,level_or_seed,x,y"]
    for idx, poly in enumerate(polylines):
        if idx > 0:
            lines.append("")
        row = f"{poly.kind},{poly.value:.13g},".replace("%", "%%") + "%.13g,%.13g"
        xy = np.array(poly.points, dtype=complex).view(float).tolist()
        lines.append("\n".join([row] * len(poly.points)) % tuple(xy))
    return "\n".join(lines) + "\n"


_SVG_SIZE = 900.0


def emit_svg(polylines, components, window) -> str:
    """A standalone deterministic SVG: paths for polylines, glyphs for components."""
    x0, x1, y0, y1 = window
    if not (x1 > x0 and y1 > y0):
        raise ValueError("window must be a nonempty rectangle")
    scale = _SVG_SIZE / (x1 - x0)
    height = (y1 - y0) * scale

    def tx(z: complex) -> tuple[float, float]:
        return ((z.real - x0) * scale, (y1 - z.imag) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_SIZE:.0f} {height:.2f}" '
        f'width="{_SVG_SIZE:.0f}" height="{height:.2f}">',
        f'<rect width="{_SVG_SIZE:.0f}" height="{height:.2f}" fill="white"/>',
    ]
    color = {EQUIPOTENTIAL: "#2060c0", STREAMLINE: "#c03020"}
    for poly in polylines:
        pts = np.array(poly.points, dtype=complex)
        xy = np.empty((pts.size, 2))
        xy[:, 0] = (pts.real - x0) * scale
        xy[:, 1] = (y1 - pts.imag) * scale
        coords = " L".join(["%.3f %.3f"] * pts.size) % tuple(xy.ravel().tolist())
        parts.append(
            f'<path d="M{coords}" fill="none" stroke="{color.get(poly.kind, "#444444")}" '
            f'stroke-width="1"/>'
        )
    for comp in components:
        if comp.kind == DISK:
            cx, cy = tx(comp.center)
            fill = "none" if comp.role == OUTER else "#dddddd"
            parts.append(
                f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{comp.radius * scale:.3f}" '
                f'fill="{fill}" stroke="black" stroke-width="1.5"/>'
            )
        else:
            a, b = comp.endpoints
            (xa, ya), (xb, yb) = tx(a), tx(b)
            parts.append(
                f'<line x1="{xa:.3f}" y1="{ya:.3f}" x2="{xb:.3f}" y2="{yb:.3f}" '
                f'stroke="black" stroke-width="2"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _default_eps(problem: Problem) -> float:
    """A quarter of the source's distance to the nearest boundary."""
    return 0.25 * min(boundary_distance(c, problem.source) for c in problem.components)


def _field_polylines(solution: Solution, cfg: RunConfig, want_contours: bool,
                     want_streamlines: bool):
    polylines = []
    if want_contours:
        levels = cfg.levels if cfg.levels is not None else _auto_levels(solution, cfg.window)
        polylines.extend(extract_contours(solution, levels, cfg.window, grid_n=240))
    if want_streamlines and solution.problem.source is not None and cfg.streamlines.count > 0:
        eps = cfg.streamlines.eps or _default_eps(solution.problem)
        opts = TraceOptions(window=cfg.window)
        polylines.extend(streamline_fan(solution, cfg.streamlines.count, eps, opts))
    return polylines


def _write_outputs(files: dict) -> None:
    """Write every output or none: on failure, remove files created here."""
    written = []
    try:
        for path, content in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
            written.append(path)
    except OSError:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def _resolve(outdir: str, path: str | None) -> str | None:
    if path is None:
        return None
    return path if os.path.isabs(path) else os.path.join(outdir, path)


def _run_field_command(cfg: RunConfig, outdir: str, want_contours: bool,
                       want_streamlines: bool, want_report: bool) -> int:
    solution = solve_problem(cfg.problem, cfg.spec, list(cfg.npts))
    report = build_report(solution, cfg.eval_points)
    print(f"residual certificate: {report['residual']:.13g}")
    if solution.problem.domain_kind == EXTERIOR and solution.expansion.log_coeffs.size:
        tag = "" if report["probabilistic"] else " (non-probabilistic boundary data)"
        print("harmonic measures" + tag + ":")
        for j, v in enumerate(report["measures"]):
            print(f"  component {j}: {v:.13g}")
        print(f"  total: {report['measures_total']:.13g}")
    for entry in report["eval"]:
        print(f"u({entry['point'][0]:g}, {entry['point'][1]:g}) = {entry['u']:.13g}")

    polylines = _field_polylines(solution, cfg, want_contours, want_streamlines)
    fan = [line for line in polylines if line.kind == STREAMLINE]
    if fan:
        # How each traced line ended; build_report stays the solve's summary.
        report["streamlines"] = [
            {
                "seed_angle": _sig13(line.value),
                "termination": line.termination,
                "component_index": line.component_index,
                "stagnated": line.stagnated,
                "accepted_steps": line.accepted_steps,
                "rejected_steps": line.rejected_steps,
            }
            for line in fan
        ]
    files = {}
    if want_report and cfg.outputs.report:
        files[_resolve(outdir, cfg.outputs.report)] = (
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    if (want_contours or want_streamlines) and cfg.outputs.csv:
        files[_resolve(outdir, cfg.outputs.csv)] = polylines_csv(polylines)
    if (want_contours or want_streamlines) and cfg.outputs.svg:
        files[_resolve(outdir, cfg.outputs.svg)] = emit_svg(
            polylines, cfg.problem.components, cfg.window
        )
    _write_outputs(files)
    for path in files:
        print(f"wrote {path}")
    return 0


def _cmd_cantor(args) -> int:
    if not args.symmetry and MAX_GENERAL_LEVEL < args.m <= MAX_LEVEL:
        raise ValueError(f"level {args.m} does not fit in memory without --symmetry "
                         f"(at most {MAX_GENERAL_LEVEL}; {MAX_LEVEL} with --symmetry)")
    measures = cantor_measures(args.m, use_symmetry=args.symmetry)
    doc = {
        "m": args.m,
        "degree": cantor_degree(args.m),
        "symmetry": bool(args.symmetry),
        "measures": [_sig13(v) for v in measures],
        "right_half_total": _sig13(sum(measures)),
    }
    if args.m >= 2:
        doc["inner_half_sum"] = _sig13(sum(measures[: 2 ** (args.m - 2)]))
    print(f"level m={args.m}, degree N={doc['degree']}, "
          f"{2**args.m} slits ({len(measures)} in the right half-plane)")
    for j, v in enumerate(measures):
        print(f"  slit {j} (inside out): {v:.13g}")
    if "inner_half_sum" in doc:
        print(f"inner-half sum: {doc['inner_half_sum']:.13g}")
    path = _resolve(args.outdir, f"cantor_m{args.m}.json")
    _write_outputs({path: json.dumps(doc, indent=2, sort_keys=True) + "\n"})
    print(f"wrote {path}")
    return 0


def _load_config(args) -> RunConfig:
    """The config file with the flags set as its keys, checked as the keys are."""
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = _decode_config(fh.read())
    if args.degree is not None:
        raw["degree"], raw["npts"] = args.degree, args.npts  # no --npts: the default
    elif args.npts is not None:
        raw["npts"] = args.npts
    if args.no_scale:
        raw["scaled"] = False
    return _validate_config(raw)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON problem configuration")
    p.add_argument("--degree", type=int, default=None, help="override the expansion degree")
    p.add_argument("--npts", type=int, default=None, help="override samples per component")
    p.add_argument("--no-scale", action="store_true", help="use unscaled power columns")
    p.add_argument("-o", "--outdir", default=".", help="directory for output files")


# Each config-driven subcommand: its help text, and whether it writes
# contours, streamlines and the report.
_FIELD_COMMANDS = {
    "solve": ("solve and write report, field CSV, and optional SVG", True, True, True),
    "contours": ("solve and write equipotential polylines", True, False, False),
    "streamlines": ("solve and write streamline polylines", False, True, False),
    "eval": ("solve and print u at the configured eval points", False, False, True),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lapseries",
        description="Solve planar Laplace problems outside disks and slits by "
        "series expansion with least-squares boundary fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _FIELD_COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text))
    pc = sub.add_parser("cantor", help="measure study of a middle-thirds level")
    pc.add_argument("-m", type=int, required=True, help=(
        f"construction level (1..{MAX_GENERAL_LEVEL}; 1..{MAX_LEVEL} with --symmetry)"))
    pc.add_argument("--symmetry", action="store_true", help="use the symmetry-reduced solve")
    pc.add_argument("-o", "--outdir", default=".", help="directory for output files")

    args = parser.parse_args(argv)
    try:
        if args.command == "cantor":
            return _cmd_cantor(args)
        _, *wants = _FIELD_COMMANDS[args.command]
        return _run_field_command(_load_config(args), args.outdir, *wants)
    except (ConfigError, GeometryError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
