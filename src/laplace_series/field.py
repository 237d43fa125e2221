"""Equipotential polylines, gradient-ascent streamlines, slit side measures.

Streamlines integrate dz/dt = grad u / |grad u| with an embedded 2nd/3rd-order
Runge-Kutta pair and a small step cap; large steps near slits risk hopping
over the slit and picking the wrong branch, so steps that would cross a slit
are rejected outright.  All lines of a fan advance in lockstep, with one
vectorized evaluation per stage for every live line; the last stage gives u
and f' at the step end from one call.  A stage point where the field is
undefined is found by the evaluator's DomainError, and only its own line is
marked.  The proximity stop maps points through a slit's inverse map only
inside the ellipse the stop distance defines.  Each line carries a lower
bound on its distance to every boundary, as sphere tracing does (Hart, The
Visual Computer 12, 1996), so the crossing test runs only for steps that
could reach a boundary and the proximity test only for points that could be
near one; a skipped test would have found nothing.  Equipotentials come from
marching squares on a masked grid rather than ODE tracing, which sidesteps
branch bookkeeping when the topology changes.  Contour vertices are
grid-edge crossings, computed only for the edges of each level's chains, so
joins are exact at any scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import _evaluate, complex_derivative, eval_expansion
from .geometry import (
    SLIT,
    DomainError,
    boundary_distance,
    bounding_boxes,
    first_hole,
    in_hole,
    joukowski_forward,
    joukowski_inverse,
    segments_cross,
)
from .solver import Solution

HIT_BOUNDARY = "hit_boundary"
LEFT_WINDOW = "left_window"
STEP_LIMIT = "step_limit"

EQUIPOTENTIAL = "equipotential"
STREAMLINE = "streamline"

# A streamline stops within DELTA_STOP of a boundary; no step is shorter than H_MIN.
DELTA_STOP = 1e-3
H_MIN = 1e-10


@dataclass(frozen=True)
class Polyline:
    """An ordered point sequence: one equipotential level or one streamline.

    ``value`` is the contour level or the streamline seed angle.  ``termination``
    is None for closed contour loops (first vertex repeated at the end).
    ``accepted_steps`` and ``rejected_steps`` count a streamline's accepted
    and rejected trial steps (a line stopped before its first accepted step
    still carries a padding second point); both are 0 for contours.
    """

    points: tuple[complex, ...]
    kind: str
    value: float
    termination: str | None
    component_index: int | None = None
    stagnated: bool = False
    rejected_steps: int = 0
    accepted_steps: int = 0

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a polyline needs at least 2 points")


@dataclass(frozen=True)
class TraceOptions:
    h_max: float = 0.05
    max_steps: int = 20000
    window: tuple[float, float, float, float] | None = None
    step_tol: float = 1e-6


def default_window(problem) -> tuple[float, float, float, float]:
    """A square window 1.6 times the extent (at least 2) of the components and source."""
    lo, hi = bounding_boxes(problem.components)
    corners = [lo, hi]
    if problem.source is not None:
        corners.append([[problem.source.real, problem.source.imag]])
    corners = np.concatenate(corners)
    if corners.size == 0:
        corners = np.zeros((1, 2))
    (x0, y0), (x1, y1) = corners.min(axis=0), corners.max(axis=0)
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    half = max(x1 - x0, y1 - y0, 2.0) * 1.6 / 2.0
    return (float(cx - half), float(cx + half), float(cy - half), float(cy + half))


def _in_window(window, z):
    x0, x1, y0, y1 = window
    return (x0 <= z.real) & (z.real <= x1) & (y0 <= z.imag) & (z.imag <= y1)


def _stop_reach(comp, delta: float) -> float:
    """The farthest a point the proximity stop calls near ``comp`` can lie from
    it: delta for a disk, |h| sinh(delta/|h|) (1 + 1e-6) for a slit (see
    _near_component)."""
    if comp.kind != SLIT:
        return delta
    span = abs(comp.halfspan)
    rho = delta / span
    # (math.sinh overflows past 710.)
    return span * math.sinh(rho) * (1.0 + 1e-6) if rho < 700.0 else math.inf


def _near_component(problem, z, delta: float):
    """(near, clearance): the index of the first component whose boundary is
    within delta of each z, else -1, and the distance from each z to the
    nearest boundary (inf without components).

    Slits get a second proximity test through the preimage w: the
    angle-plane coordinate log|w| vanishes on the slit and scales like
    distance/|h| (h the halfspan), so the test log|w| < rho = delta/|h|
    catches approaches that Euclidean distance underestimates near the
    endpoints.  The map runs only where that test can pass.  With
    w = e^(r + i theta), z - c = h cosh(r + i theta), so log|w| < rho is the
    inside of the ellipse with semi-axes |h| cosh rho and |h| sinh rho about
    the slit, and none of it is farther than |h| sinh rho from the slit: a
    point of the ellipse with |cos theta| cosh rho > 1 lies past an endpoint
    at a squared distance (|h| (cosh rho |cos theta| - 1))^2 +
    (|h| sinh rho sin theta)^2, which is at most (|h| sinh rho)^2 because
    cosh rho - sinh rho = e^-rho <= 1.  A point farther than
    |h| sinh(rho) (1 + 1e-6) (_stop_reach) from the slit is therefore outside
    the ellipse of asinh(sinh(rho) (1 + 1e-6)), about rho + 1e-6 tanh rho.
    That margin is some 10^9 ulps of rho for small rho and never below 10^6,
    and in distance it is 1e-6 of the reach, far beyond the rounding of the
    map and of the distance while delta is above about 1e-9 of the
    coordinates' size, so skipping such points changes no answer.
    """
    near = np.full(z.shape, -1)
    clearance = np.full(z.shape, math.inf)
    # Later components go first, so each point keeps the first one's index.
    for j in reversed(range(len(problem.components))):
        comp = problem.components[j]
        dist = boundary_distance(comp, z)
        np.minimum(clearance, dist, out=clearance)
        hit = dist < delta
        if comp.kind == SLIT:
            hit |= in_hole(comp, z)
            inside = np.flatnonzero(~hit & (dist <= _stop_reach(comp, delta)))
            if inside.size:
                w = joukowski_inverse(comp.center, comp.halfspan, z[inside])
                hit[inside] = np.log(np.abs(w)) < delta / abs(comp.halfspan)
        near[hit] = j
    return near, clearance


def _crossed_boundary(problem, a, b):
    """Index of the first component whose boundary each step [a, b] jumps
    across, else -1.

    The expansion continues smoothly across every boundary (inside a disk it
    climbs toward the center singularities), so the integrator must not be
    allowed to ascend through; offending steps are rejected and shrunk until
    the proximity stop takes over.
    """
    crossed = np.full(b.shape, -1)
    # Later components go first, so each step keeps the first one's index.
    for j in reversed(range(len(problem.components))):
        comp = problem.components[j]
        hit = segments_cross(a, b, *comp.endpoints) if comp.kind == SLIT else in_hole(comp, b)
        crossed[hit] = j
    return crossed


# Per-line outcome of one Runge-Kutta stage.
_OK, _UNDEFINED, _STAGNANT = 0, 1, 2


def _directions(exp, z, status, want_u=False):
    """Unit ascent directions conj(f')/|f'| at z for the lines whose status is
    _OK, and u there if ``want_u`` (else None), from one evaluation.

    A point where the evaluator raises DomainError (the source, a disk
    center, a point on a slit or within rounding of a slit endpoint) marks its
    line _UNDEFINED and |f'| < 1e-12 marks it _STAGNANT, so one line's failure
    leaves the others running.  Lines that are not _OK get a zero direction
    and u = nan.
    """
    # status is all _OK unless an earlier stage of the pass failed a line.
    todo = np.flatnonzero(status == _OK) if np.count_nonzero(status) else None
    zt = z if todo is None else z[todo]
    if zt.size == 0:
        return np.zeros(z.shape, dtype=complex), np.full(z.shape, np.nan) if want_u else None
    try:
        ut, fp = _evaluate(exp, zt, want_u, True)
    except DomainError:
        # Some point is singular; evaluate one by one to single out its lines.
        ut, fp = np.full(zt.size, np.nan), np.full(zt.size, np.nan, dtype=complex)
        for n, p in enumerate(zt.tolist()):
            try:
                ut[n], fp[n] = _evaluate(exp, p, True, True)
            except DomainError:
                pass
        todo = np.flatnonzero(status == _OK)
        status[todo[np.isnan(fp)]] = _UNDEFINED
    mag = np.abs(fp)
    good = mag >= 1e-12
    if todo is None:
        if np.count_nonzero(good) == good.size:
            return np.conj(fp) / mag, ut
        todo = np.arange(z.size)
    status[todo[mag < 1e-12]] = _STAGNANT
    todo = todo[good]
    k = np.zeros(z.shape, dtype=complex)
    k[todo] = np.conj(fp[good]) / mag[good]
    if want_u:
        u = np.full(z.shape, np.nan)
        u[todo] = ut[good]
        return k, u
    return k, None


def _trace(solution: Solution, seeds, values, opts: TraceOptions = None) -> list[Polyline]:
    """Climb the gradient from every seed in lockstep; one Polyline per seed,
    carrying that seed's entry of ``values``.

    Each pass makes one trial step on every live line: three vectorized f'
    stages (the first stage reuses the direction at the current point), the
    last of which also gives u at the step end.  A line accepts its step only
    when the embedded error estimate passes, u strictly increases, and the
    step does not jump across a boundary; rejected steps shrink and are
    counted per line.  Lines stop independently at a boundary, at the window
    edge, or at the step cap.  The state arrays hold the live lines only, in
    seed order, and are compacted after a pass that stops some.

    Each line carries ``clear``, a lower bound on its distance to every
    boundary: the distance _near_component computes at the seeds and
    wherever the proximity test runs, less the length of each step accepted
    since.  A step whose length times (1 + 1e-6) is below it stays in the
    disk of radius ``clear`` about its start, which no boundary meets, so it
    crosses none and ends in no hole: _crossed_boundary runs only for the
    other steps.  An accepted point whose bound is above ``far``, (1 + 1e-6)
    times the farthest reach of the stop (delta for a disk,
    |h| sinh(delta/|h|) (1 + 1e-6) for a slit, see _stop_reach), is farther
    than delta from every boundary and outside every slit's ellipse, so
    _near_component runs only for the other points.  As with the ellipse
    margin in _near_component, 1e-6 of the bound or of the reach is far
    beyond rounding: the carried bound loses at most a few units of
    rounding of itself per step (about 1e-11 of it after 20,000 steps), and
    the distances are computed to a few units of rounding of the
    coordinates' size, which 1e-6 of the bound exceeds while the bound is
    above about 1e-9 of that size.  It is, for delta above that: the bound
    is at least delta where the proximity test ran (a nearer point stops)
    and above far where it was skipped; only a seed can start nearer.  So a
    skipped test would have returned -1, and skipping changes no answer.
    """
    problem = solution.problem
    exp = solution.expansion
    opts = opts or TraceOptions()
    window = opts.window or default_window(problem)
    tol = opts.step_tol
    z = np.array(seeds, dtype=complex)
    if np.count_nonzero((first_hole(problem.components, z) >= 0) | ~_in_window(window, z)):
        raise ValueError("streamline seed lies outside the domain")
    try:
        u, fp = _evaluate(exp, z, True, True)
    except DomainError:
        raise ValueError("streamline seed lies outside the domain")

    paths = [[p] for p in z.tolist()]
    ends = [None] * z.size  # (termination, component_index, stagnated) per line
    rejected = np.zeros(z.size, dtype=int)
    # Entry n of the state arrays below is line[n]; done marks the entries
    # to drop before the next pass.
    line = np.arange(z.size)
    done = np.zeros(z.size, dtype=bool)
    # clear[n] is a lower bound on the distance from z[n] to every boundary,
    # and far, with a margin, the largest at which the proximity stop fires.
    clear = _near_component(problem, z, DELTA_STOP)[1]
    far = max((_stop_reach(c, DELTA_STOP) for c in problem.components), default=0.0)
    far *= 1.0 + 1e-6

    def stop(entries, termination, stagnated, components=None):
        for n, i in enumerate(line[entries].tolist()):
            ends[i] = (termination, None if components is None else int(components[n]),
                       stagnated)
        done[entries] = True

    mag = np.abs(fp)
    k1 = np.conj(fp) / np.where(mag < 1e-12, 1.0, mag)
    if np.count_nonzero(flat := mag < 1e-12):
        stop(flat, STEP_LIMIT, True)
    h = np.full(z.size, opts.h_max / 8.0)
    # A line accepts at most one step per pass, so none reaches the cap
    # before pass max_steps; its accepted steps are its points but one.
    for npass in itertools.count():
        if npass >= opts.max_steps:
            steps = np.array([len(paths[i]) - 1 for i in line.tolist()])
            if np.count_nonzero(capped := steps >= opts.max_steps):
                stop(capped & ~done, STEP_LIMIT, False)
        if np.count_nonzero(done):
            live = ~done
            line, z, u, k1, h, clear = line[live], z[live], u[live], k1[live], h[live], clear[live]
            done = done[live]
        if line.size == 0:
            break
        status = np.zeros(line.size, dtype=np.int8)
        kb, _ = _directions(exp, z + 0.5 * h * k1, status)
        kc, _ = _directions(exp, z + 0.75 * h * kb, status)
        z_new = z + h * (2.0 * k1 + 3.0 * kb + 4.0 * kc) / 9.0
        kd, u_new = _directions(exp, z_new, status, want_u=True)
        err = np.abs(h * (-5.0 * k1 + 6.0 * kb + 8.0 * kc - 9.0 * kd) / 72.0)
        # An err below 1e-3 tol gives grow above 9, which both of its uses
        # below cap at 4 or never read, so the floor changes no step size and
        # keeps err = 0 from dividing by zero.
        grow = 0.9 * (tol / np.maximum(err, 1e-3 * tol)) ** (1.0 / 3.0)
        ok = status == _OK
        shrink = ok & (err > tol) & (h > H_MIN)
        rest = ok & ~shrink
        # Only lines in rest are tested, so cross lies in rest: the others'
        # steps are void.  A step shorter than its line's clearance crosses
        # no boundary.
        length = np.abs(z_new - z)
        crossed = np.full(line.size, -1)
        if np.count_nonzero(reach := rest & (length * (1.0 + 1e-6) >= clear)):
            reach = np.flatnonzero(reach)
            crossed[reach] = _crossed_boundary(problem, z[reach], z_new[reach])
        cross = crossed >= 0
        descend = (kept := rest & ~cross) & (u_new <= u)
        accept = kept & ~descend
        undefined = status == _UNDEFINED
        if np.count_nonzero(tiny := h <= 4.0 * H_MIN):
            if np.count_nonzero(bounce := cross & tiny):
                stop(bounce, HIT_BOUNDARY, False, crossed[bounce])
            if np.count_nonzero(stuck := (undefined | descend) & tiny):
                stop(stuck, STEP_LIMIT, True)
        if np.count_nonzero(flat := status == _STAGNANT):
            stop(flat, STEP_LIMIT, True)
        halve = (undefined | cross | descend) & ~tiny
        rejected[line[~accept & ~flat]] += 1
        entries = np.flatnonzero(accept)
        za, taken = z_new[entries], line[entries]
        z[entries], u[entries], k1[entries] = za, u_new[entries], kd[entries]
        clear[entries] -= length[entries]
        h = np.where(accept, np.minimum(h * np.minimum(4.0, grow), opts.h_max), np.where(
            shrink, np.maximum(h * np.maximum(0.25, grow), H_MIN),
            np.where(halve, np.maximum(h / 2.0, H_MIN), h)))
        for i, p in zip(taken.tolist(), za.tolist()):
            paths[i].append(p)
        left = ~_in_window(window, za)
        # Only a point within far of some boundary can be near one.
        if (close := np.flatnonzero(clear[entries] <= far)).size:
            near, clear[entries[close]] = _near_component(problem, za[close], DELTA_STOP)
            if np.count_nonzero(hit := near >= 0):
                stop(entries[close[hit]], HIT_BOUNDARY, False, near[hit])
                left[close[hit]] = False
        if np.count_nonzero(left):
            stop(entries[left], LEFT_WINDOW, False)
    return [_polyline(p, v, *end, int(r)) for p, v, end, r in zip(paths, values, ends, rejected)]


def trace_streamline(solution: Solution, z0: complex, opts: TraceOptions = None) -> Polyline:
    """Climb the gradient from z0 until a boundary, the window edge, or the step cap.

    Steps are accepted only when the embedded error estimate passes, u strictly
    increases, and the step does not jump across a slit.  This is the one-seed
    case of the lockstep tracer behind streamline_fan.
    """
    z0 = complex(z0)
    return _trace(solution, [z0], [_seed_angle(z0, solution.problem)], opts)[0]


def _seed_angle(z0: complex, problem) -> float:
    origin = problem.source if problem.source is not None else 0j
    return math.atan2((z0 - origin).imag, (z0 - origin).real)


def _polyline(points, value, termination, component_index, stagnated,
              rejected_steps) -> Polyline:
    accepted_steps = len(points) - 1
    # Degenerate immediate stops get a microscopic pad so the polyline keeps
    # its two-point invariant.
    if len(points) == 1:
        points = points + [points[0] + 1e-12]
    return Polyline(
        points=tuple(points),
        kind=STREAMLINE,
        value=value,
        termination=termination,
        component_index=component_index,
        stagnated=stagnated,
        rejected_steps=rejected_steps,
        accepted_steps=accepted_steps,
    )


def streamline_fan(solution: Solution, nseeds: int, eps: float, opts: TraceOptions = None):
    """Trace nseeds streamlines, in lockstep, from equally spaced points on an
    eps-circle around the source."""
    problem = solution.problem
    if problem.source is None:
        raise ValueError("streamline fans need a problem with a source")
    if nseeds < 1:
        raise ValueError("nseeds must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    for j, comp in enumerate(problem.components):
        if boundary_distance(comp, problem.source) <= eps:
            raise ValueError(f"eps-circle around the source reaches components[{j}]")
    angles = [2.0 * math.pi * k / nseeds for k in range(nseeds)]
    seeds = [problem.source + eps * complex(math.cos(a), math.sin(a)) for a in angles]
    return _trace(solution, seeds, angles, opts)


# Marching-squares lookup: cell corners 0..3 are (i,j),(i+1,j),(i+1,j+1),(i,j+1);
# edges 0..3 join corners (0,1),(1,2),(2,3),(3,0).  Entries map the 4-bit
# "corner above level" code to the pair of crossed edges; the two saddle codes
# are resolved by the cell-average rule, (below, above) the level.
_MS_EDGES = {
    1: (3, 0),
    2: (0, 1),
    3: (3, 1),
    4: (1, 2),
    6: (0, 2),
    7: (3, 2),
    8: (2, 3),
    9: (0, 2),
    11: (1, 2),
    12: (1, 3),
    13: (0, 1),
    14: (3, 0),
}
_MS_SADDLE = {
    5: ([(3, 0), (1, 2)], [(0, 1), (2, 3)]),
    10: ([(0, 1), (2, 3)], [(3, 0), (1, 2)]),
}
# The same as one table: _MS_PAIRS[average above level, code] holds a cell's
# two edge pairs, the second (-1, -1) unless the cell is a saddle.
_MS_PAIRS = np.full((2, 16, 2, 2), -1)
for _code, _pair in _MS_EDGES.items():
    _MS_PAIRS[:, _code, 0] = _pair
for _code, _pairs in _MS_SADDLE.items():
    _MS_PAIRS[:, _code] = _pairs


def _domain_mask(problem, Z):
    """True where the grid point Z lies in the domain, off the source."""
    ok = first_hole(problem.components, Z) < 0
    if problem.source is not None:
        ok &= Z != problem.source
    return ok


def _slit_cell_mask(problem, xs, ys):
    """Cells of the grid xs x ys that a slit meets, if only at a corner: those
    in the slit's box whose corners are not all strictly on one side of its
    line.  Interpolating u across a slit is meaningless."""
    bad = np.zeros((ys.size - 1, xs.size - 1), dtype=bool)
    for comp in problem.components:
        if comp.kind != SLIT:
            continue
        a, b = comp.endpoints
        # The cells in the slit's box: columns i[0]..i[-1], rows j[0]..j[-1].
        i = np.flatnonzero((xs[:-1] <= max(a.real, b.real)) & (xs[1:] >= min(a.real, b.real)))
        j = np.flatnonzero((ys[:-1] <= max(a.imag, b.imag)) & (ys[1:] >= min(a.imag, b.imag)))
        if not (i.size and j.size):
            continue
        x, y, d = xs[i[0] : i[-1] + 2], ys[j[0] : j[-1] + 2, None], b - a
        # The cross product of d with (node - a): its sign is the node's side.
        side = d.real * (y - a.imag) - d.imag * (x - a.real)
        corners = np.stack([side[:-1, :-1], side[:-1, 1:], side[1:, :-1], side[1:, 1:]])
        bad[j[0] : j[-1] + 1, i[0] : i[-1] + 1] |= (
            (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0))
    return bad


def extract_contours(solution: Solution, levels, window, grid_n: int):
    """Level polylines of u on a grid over the window, by marching squares.

    Vertices are crossings of numbered grid edges, so the segments of
    neighbouring cells join by edge number, exactly at any scale.  Crossings
    are computed only for the edges of each level's chains.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    x0, x1, y0, y1 = window
    xs = np.linspace(x0, x1, grid_n)
    ys = np.linspace(y0, y1, grid_n)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    mask = _domain_mask(solution.problem, Z)
    U = np.full(X.shape, np.nan)
    if mask.any():
        U[mask] = eval_expansion(solution.expansion, Z[mask])
    cell_ok = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, 1:] & mask[1:, :-1]
    cell_ok &= ~_slit_cell_mask(solution.problem, xs, ys)

    out = []
    for level in levels:
        level = float(level)
        chains = list(_chain_segments(_cells_to_segments(U, level, cell_ok)))
        if not chains:
            continue
        edges = np.concatenate([chain for chain, _ in chains])
        starts = np.cumsum([len(chain) for chain, _ in chains[:-1]])
        crossings = np.split(_edge_crossings(U, xs, ys, level, edges), starts)
        for (_, closed), points in zip(chains, crossings):
            # A level through a grid node meets two edges of a cell at that node.
            points = points[np.r_[True, points[1:] != points[:-1]]]
            if len(points) < 2:
                continue
            out.append(
                Polyline(
                    points=tuple(points.tolist()),
                    kind=EQUIPOTENTIAL,
                    value=level,
                    termination=None if closed else LEFT_WINDOW,
                )
            )
    return out


def _edge_crossings(U, xs, ys, level, edges):
    """The level's crossing of each numbered grid edge in ``edges``.

    Edge numbers run over the horizontal edges row by row, then the vertical
    ones.  Interpolation starts from the edge end whose value is nearer the
    level, so a level through a grid node gives the node exactly.  Every
    edge must be crossed by the level.
    """
    rows, n = U.shape
    horizontal = edges < rows * (n - 1)
    j, i = np.where(horizontal, np.divmod(edges, n - 1), np.divmod(edges - rows * (n - 1), n))
    a, b = U[j, i], U[j + ~horizontal, i + horizontal]
    # The edge's ends along its own axis: xs[i], xs[i+1] or ys[j], ys[j+1].
    axis = np.concatenate([xs, ys])
    k = np.where(horizontal, i, n + j)
    p, q = axis[k], axis[k + 1]
    from_p = np.abs(level - a) <= np.abs(level - b)
    t = np.where(from_p, p + (level - a) / (b - a) * (q - p), q + (level - b) / (a - b) * (p - q))
    return np.where(horizontal, t, xs[i]) + 1j * np.where(horizontal, ys[j], t)


def _cells_to_segments(U, level, cell_ok):
    """Marching-squares segments, as rows of the two edge numbers they join.

    Cells come row-major, and a saddle cell gives its two segments in
    _MS_SADDLE order.
    """
    rows, n = U.shape
    above = (U > level).view(np.uint8)
    code = above[:-1, :-1] | above[:-1, 1:] << 1 | above[1:, 1:] << 2 | above[1:, :-1] << 3
    jj, ii = np.nonzero(cell_ok & (code > 0) & (code < 15))
    code = code[jj, ii]
    avg_above = np.zeros(code.shape, dtype=np.intp)
    saddle = np.flatnonzero((code == 5) | (code == 10))
    j, i = jj[saddle], ii[saddle]
    avg_above[saddle] = (U[j, i] + U[j, i + 1] + U[j + 1, i + 1] + U[j + 1, i]) / 4.0 > level
    pairs = _MS_PAIRS[avg_above, code].reshape(-1, 4)
    # Numbers of each cell's edges 0..3: bottom, right, top, left.
    h = jj * (n - 1) + ii
    v = rows * (n - 1) + jj * n + ii
    numbers = np.stack([h, v + 1, h + n - 1, v], axis=1)
    segments = np.take_along_axis(numbers, pairs, axis=1).reshape(-1, 2)
    return segments[pairs.reshape(-1, 2)[:, 0] >= 0]


def _chain_segments(segments):
    """Join segments that share an edge into (edge numbers, closed) chains.

    ``segments`` holds one row of two edge numbers per segment; slot 2 s + e
    is end e of segment s.  An edge borders two cells, so at most two slots
    meet at it, and each slot has at most one partner.  A closed chain ends
    on its first edge.
    """
    ends = segments.ravel()
    order = np.argsort(ends)
    shared = np.flatnonzero(ends[order[1:]] == ends[order[:-1]])
    partner = np.full(ends.size, -1)
    partner[order[shared]] = order[shared + 1]
    partner[order[shared + 1]] = order[shared]
    ends, partner = ends.tolist(), partner.tolist()
    used = [False] * (len(ends) // 2)

    def walk(slot):
        # The edges met walking out of a segment through `slot`, that one first.
        chain = []
        while True:
            chain.append(ends[slot])
            slot = partner[slot]
            if slot < 0 or used[slot >> 1]:
                return chain
            used[slot >> 1] = True
            slot ^= 1

    for idx in range(len(used)):
        if used[idx]:
            continue
        used[idx] = True
        fwd = walk(2 * idx + 1)
        chain = walk(2 * idx)[::-1] + fwd
        yield chain, chain[0] == chain[-1]


def slit_side_measure(solution: Solution, slit_index: int, side: str) -> float:
    """Harmonic measure carried by one side of a slit.

    Integrates the flux (1/2pi) int du/dn ds by 256-node Gauss-Legendre
    quadrature along the image of half the circle |w| = 1 + 1e-4 under the
    slit map, which hugs the side and clusters the nodes at the endpoints.
    ``side`` is "facing" (toward the source) or "away".
    """
    problem = solution.problem
    comp = problem.components[slit_index]
    if comp.kind != SLIT:
        raise ValueError(f"components[{slit_index}] is not a slit")
    if side not in ("facing", "away"):
        raise ValueError("side must be 'facing' or 'away'")

    origin = problem.source if problem.source is not None else 0j
    # The upper half of the w-circle maps to the side displayed in direction
    # i*halfspan from the slit center.
    upper_is_facing = ((1j * comp.halfspan).conjugate() * (origin - comp.center)).real > 0
    want_upper = (side == "facing") == upper_is_facing

    nodes, weights = np.polynomial.legendre.leggauss(256)
    if want_upper:
        theta = 0.5 * np.pi * (nodes + 1.0)
    else:
        theta = np.pi + 0.5 * np.pi * (nodes + 1.0)
    w = (1.0 + 1e-4) * np.exp(1j * theta)
    z = joukowski_forward(comp.center, comp.halfspan, w)
    dz_dtheta = comp.halfspan / 2.0 * (1.0 - w**-2) * 1j * w
    fp = complex_derivative(solution.expansion, z)
    flux = float(np.imag(np.sum(weights * fp * dz_dtheta)) * 0.5 * np.pi)
    return -flux / (2.0 * np.pi)
