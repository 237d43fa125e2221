"""Seeded inputs, one timed operation and its output checks for each workload.

Each workload is a ``Workload`` with three parts:

- ``inputs(seed)`` returns an iterator of operation inputs.  It uses only the
  standard library's ``random``, so the same seed gives the same inputs on any
  numpy version, and the program sees nothing but the generated numbers.
- ``op(ls, item)`` is the timed operation.  It calls the program only through
  module attributes looked up at call time (``ls.solve_problem``,
  ``ls.cli.build_report`` ...), so the traced run can wrap them from outside.
- ``check(ls, item, out, state)`` returns a list of failure messages (empty
  when the output is correct) and is not timed.

``ls`` is the imported ``laplace_series`` package.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

# Degrees of the single solves, inclusive.
SINGLE_DEGREES = (4, 20)
# Points per single solve at which u and grad u are evaluated.
SINGLE_EVAL_POINTS = 4
# Clearance of evaluation points from every boundary and from the source.
EVAL_MARGIN = 0.1
# Absolute rounding allowance added to the certificate in max-principle checks.
ROUNDING_SLACK = 1e-12
GREEN_SUM_TOL = 1e-9

CANTOR_LEVEL = 7
CANTOR_AGREEMENT_TOL = 1e-6
CANTOR_HALF_TOL = 1e-9

FIGURE_DEGREE = 12
FIGURE_GRID = 240
FIGURE_LEVELS = 12
FIGURE_SEEDS = 64
TERMINATIONS = ("hit_boundary", "left_window", "step_limit")


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator]
    op: Callable
    check: Callable


# ---------------------------------------------------------------- geometry


def _boundary_distance(kind: str, center: complex, extent: complex, z: complex) -> float:
    """Distance from z to a circle (extent = radius) or a segment c + extent*[-1, 1]."""
    if kind == "disk":
        return abs(abs(z - center) - extent.real)
    a, b = center - extent, center + extent
    ab = b - a
    t = min(max(((z - a) * ab.conjugate()).real / abs(ab) ** 2, 0.0), 1.0)
    return abs(a + t * ab - z)


def _inside_disk(kind: str, center: complex, extent: complex, z: complex) -> bool:
    return kind == "disk" and abs(z - center) < extent.real


def _place(rng: random.Random, count: int, fits) -> list[tuple[str, complex, complex]]:
    """``count`` disks or slits with random centres, sizes and orientations.

    Each pair keeps a gap of at least the larger extent; ``fits(center, size)``
    adds the condition against the source or the outer disk.
    """
    while True:
        placed = []
        for _ in range(200):
            size = rng.uniform(0.25, 1.0)
            center = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
            if not fits(center, size):
                continue
            if any(abs(center - c) < size + s + max(size, s) for _, c, s in placed):
                continue
            placed.append((rng.choice(("disk", "slit")), center, size))
            if len(placed) == count:
                return [
                    (kind, c, complex(s) if kind == "disk"
                     else s * cmath.exp(1j * rng.uniform(0.0, math.pi)))
                    for kind, c, s in placed
                ]


def _domain_points(rng, comps, n, outer_radius=None, box=5.0):
    """Points at least EVAL_MARGIN from every boundary and from the source at 0."""
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if outer_radius is not None and abs(z) > outer_radius - EVAL_MARGIN:
            continue
        if outer_radius is None and abs(z) < EVAL_MARGIN:
            continue
        if any(_inside_disk(*c, z) or _boundary_distance(*c, z) < EVAL_MARGIN for c in comps):
            continue
        pts.append(z)
    return pts


# ---------------------------------------------------------------- single_solves


@dataclass(frozen=True)
class SingleSolve:
    bounded: bool
    comps: tuple          # (kind, center, extent) of the inner components
    values: tuple         # boundary values of the inner components (bounded only)
    outer_radius: float   # outer disk radius, centred at 0 (bounded only)
    outer_value: float
    degree: int
    points: tuple


def _single_item(rng: random.Random) -> SingleSolve:
    degree = rng.randint(*SINGLE_DEGREES)
    if rng.random() < 0.25:
        radius = rng.uniform(3.0, 4.0)
        if rng.random() < 1.0 / 3.0:  # concentric annulus: closed form exists
            comps = [("disk", 0j, complex(rng.uniform(0.5, 1.5)))]
        else:
            comps = _place(rng, rng.randint(1, 3), lambda c, s: abs(c) + 2.0 * s <= radius)
        values = tuple(rng.uniform(-1.0, 1.0) for _ in comps)
        pts = _domain_points(rng, comps, SINGLE_EVAL_POINTS, outer_radius=radius)
        return SingleSolve(True, tuple(comps), values, radius, rng.uniform(-1.0, 1.0),
                           degree, tuple(pts))
    # Exterior Green problem with the source at 0, clear of every component
    # by at least the component's own extent.
    comps = _place(rng, rng.randint(1, 3), lambda c, s: abs(c) >= 2.0 * s)
    pts = _domain_points(rng, comps, SINGLE_EVAL_POINTS)
    return SingleSolve(False, tuple(comps), (), 0.0, 0.0, degree, tuple(pts))


def single_inputs(seed: int) -> Iterator[SingleSolve]:
    rng = random.Random(seed)
    while True:
        yield _single_item(rng)


def _component(ls, kind, center, extent):
    return ls.disk(center, extent.real) if kind == "disk" else ls.slit(center, extent)


def single_op(ls, item: SingleSolve):
    comps = [_component(ls, *c) for c in item.comps]
    if item.bounded:
        outer = ls.disk(0j, item.outer_radius, role="outer")
        problem = ls.Problem([outer] + comps, "bounded", None,
                             (item.outer_value,) + item.values)
    else:
        problem = ls.green_problem(comps, source=0j)
    sol = ls.solve_problem(problem, ls.default_spec(problem, degree=item.degree))
    measures = ls.harmonic_measures(sol)
    pts = np.asarray(item.points)
    u = ls.eval_expansion(sol.expansion, pts)
    grad = ls.eval_gradient(sol.expansion, pts)
    return sol, measures, u, grad


def _closed_form(item: SingleSolve):
    """Exact u at the evaluation points, where a closed form exists, else None."""
    if item.bounded and len(item.comps) == 1 and item.comps[0][:2] == ("disk", 0j):
        r, big = item.comps[0][2].real, item.outer_radius
        g_in, g_out = item.values[0], item.outer_value
        return [g_in + (g_out - g_in) * math.log(abs(z) / r) / math.log(big / r)
                for z in item.points]
    if not item.bounded and len(item.comps) == 1 and item.comps[0][0] == "disk":
        # Image charge: u = log|z| - log|z - s*| - log(|c|/r), s* = c - r^2/conj(c).
        _, c, r = item.comps[0]
        r = r.real
        image = c - r * r / c.conjugate()
        return [math.log(abs(z)) - math.log(abs(z - image)) - math.log(abs(c) / r)
                for z in item.points]
    return None


def single_check(ls, item: SingleSolve, out, state) -> list[str]:
    sol, measures, u, grad = out
    u = [float(v) for v in u]
    errors = []
    if not all(math.isfinite(v) for v in u) or not all(cmath.isfinite(g) for g in grad):
        return ["non-finite u or grad u"]
    bound = sol.residual + ROUNDING_SLACK
    state.setdefault("cert", []).append(sol.residual)
    if item.bounded:
        # Maximum principle: u stays within the range of the constant data.
        data = item.values + (item.outer_value,)
        if min(u) < min(data) - bound or max(u) > max(data) + bound:
            errors.append("u leaves the range of the boundary data")
    else:
        if not measures.probabilistic or abs(measures.total - 1.0) > GREEN_SUM_TOL:
            errors.append(f"Green measures sum to {measures.total!r}")
        # The Green function is negative throughout the domain.
        if max(u) > bound:
            errors.append("Green function is positive inside the domain")
    exact = _closed_form(item)
    if exact is not None:
        err = max(abs(a - b) for a, b in zip(u, exact))
        if err > bound:
            errors.append(f"interior error {err:.3e} exceeds certificate {sol.residual:.3e}")
    return errors


# ---------------------------------------------------------------- cantor7


def cantor_inputs(seed: int) -> Iterator[int]:
    # The published construction: the seed does not apply.
    while True:
        yield CANTOR_LEVEL


def cantor_op(ls, level: int):
    general = ls.cantor_measures(level)
    symmetric = ls.cantor_measures(level, use_symmetry=True)
    return general, symmetric


def cantor_check(ls, level: int, out, state) -> list[str]:
    general, symmetric = out
    errors = []
    if "cert" not in state:
        # cantor_measures does not return its solution, and the level-7 problem
        # is fixed, so the certificate of its general solve is taken once a run.
        state["cert"] = [ls.cantor.cantor_solution(level).residual]
    if len(general) != 2 ** (level - 1) or len(symmetric) != len(general):
        return [f"expected {2 ** (level - 1)} right-half measures"]
    agreement = max(abs(a - b) for a, b in zip(general, symmetric))
    state["agreement"] = max(state.get("agreement", 0.0), agreement)
    if not agreement <= CANTOR_AGREEMENT_TOL:
        errors.append(f"general and symmetric paths differ by {agreement:.3e}")
    half = math.fsum(general)
    if not abs(half - 0.5) <= CANTOR_HALF_TOL:
        errors.append(f"right-half total {half!r} is not 0.5")
    return errors


# ---------------------------------------------------------------- figure


@dataclass(frozen=True)
class Figure:
    config: str
    eps: float


def figure_inputs(seed: int) -> Iterator[Figure]:
    """One disk and one slit around a source at 0, jittered by the seed.

    The jitter is about 1%: every seed draws the same picture with the same
    amount of tracing work and certificate digits, so seeds vary the inputs
    without varying what the workload measures.
    """
    rng = random.Random(seed)
    center_d = complex(-2.0 + rng.uniform(-0.02, 0.02), 1.0 + rng.uniform(-0.02, 0.02))
    radius = 0.8 * rng.uniform(0.99, 1.01)
    center_s = complex(2.5 + rng.uniform(-0.02, 0.02), -0.5 + rng.uniform(-0.02, 0.02))
    halfspan = rng.uniform(0.99, 1.01) * cmath.exp(1j * (0.4 + rng.uniform(-0.01, 0.01)))
    config = json.dumps({
        "domain": "exterior",
        "source": [0.0, 0.0],
        "degree": FIGURE_DEGREE,
        "components": [
            {"kind": "disk", "center": [center_d.real, center_d.imag], "radius": radius},
            {"kind": "slit", "center": [center_s.real, center_s.imag],
             "halfspan": [halfspan.real, halfspan.imag]},
        ],
        "streamlines": {"count": FIGURE_SEEDS},
    }, sort_keys=True)
    # As lapseries does: a quarter of the distance to the nearest component.
    eps = 0.25 * min(_boundary_distance("disk", center_d, complex(radius), 0j),
                     _boundary_distance("slit", center_s, halfspan, 0j))
    item = Figure(config, eps)
    while True:
        yield item


def _auto_levels(ls, sol, window):
    """Twelve levels spanning the 4th to 96th percentile of u on a 60x60 grid,
    skipping points inside disks, on slits or near the source, as lapseries
    picks them when the config gives no levels."""
    x0, x1, y0, y1 = window
    X, Y = np.meshgrid(np.linspace(x0, x1, 60), np.linspace(y0, y1, 60))
    Z = X + 1j * Y
    ok = np.abs(Z) > 0.05 * (x1 - x0)
    for comp in sol.problem.components:
        if comp.kind == "disk":
            ok &= np.abs(Z - comp.center) > comp.radius * (1.0 + 1e-12)
        else:
            a, b = comp.endpoints
            t = np.clip(((Z - a) * np.conj(b - a)).real / abs(b - a) ** 2, 0.0, 1.0)
            ok &= np.abs(a + t * (b - a) - Z) > 1e-6
    u = ls.eval_expansion(sol.expansion, Z[ok])
    lo, hi = np.percentile(u, 4.0), np.percentile(u, 96.0)
    return [float(v) for v in np.linspace(lo, hi, FIGURE_LEVELS + 2)[1:-1]]


def figure_op(ls, item: Figure):
    cli = ls.cli
    cfg = cli.parse_problem_config(item.config)
    sol = ls.solve_problem(cfg.problem, cfg.spec, list(cfg.npts))
    report = cli.build_report(sol, cfg.eval_points)
    levels = _auto_levels(ls, sol, cfg.window)
    contours = ls.extract_contours(sol, levels, cfg.window, FIGURE_GRID)
    fan = ls.streamline_fan(sol, cfg.streamlines.count, item.eps,
                            ls.TraceOptions(window=cfg.window))
    polylines = contours + fan
    outputs = (
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        cli.polylines_csv(polylines),
        cli.emit_svg(polylines, cfg.problem.components, cfg.window),
    )
    return sol, contours, fan, outputs


def figure_check(ls, item: Figure, out, state) -> list[str]:
    sol, contours, fan, outputs = out
    errors = []
    state.setdefault("cert", []).append(sol.residual)
    if len(fan) != FIGURE_SEEDS:
        errors.append(f"fan has {len(fan)} lines, expected {FIGURE_SEEDS}")
    if not contours:
        errors.append("no contours")
    for k, line in enumerate(fan):
        if line.termination not in TERMINATIONS:
            errors.append(f"streamline {k} has termination {line.termination!r}")
        u = ls.eval_expansion(sol.expansion, np.asarray(line.points))
        if not bool(np.all(np.diff(u) > 0.0)):
            errors.append(f"u does not increase strictly along streamline {k}")
    digest = hashlib.sha256("\0".join(outputs).encode()).hexdigest()
    if state.setdefault("digest", digest) != digest:
        errors.append("outputs differ from the first operation of the run")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload("single_solves", single_inputs, single_op, single_check),
        Workload("cantor7", cantor_inputs, cantor_op, cantor_check),
        Workload("figure", figure_inputs, figure_op, figure_check),
    )
}
