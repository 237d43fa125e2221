import cmath
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplace_series import (
    Expansion,
    ExpansionSpec,
    Problem,
    Solution,
    TraceOptions,
    default_spec,
    default_window,
    disk,
    eval_expansion,
    eval_gradient,
    extract_contours,
    green_problem,
    slit,
    slit_side_measure,
    solve_problem,
    streamline_fan,
    trace_streamline,
)
from laplace_series import basis, field
from laplace_series.cli import _default_eps
from laplace_series.field import (
    _OK,
    _UNDEFINED,
    EQUIPOTENTIAL,
    HIT_BOUNDARY,
    LEFT_WINDOW,
    STEP_LIMIT,
    _directions,
    _domain_mask,
    _near_component,
)
from laplace_series.geometry import (
    OUTER,
    SLIT,
    boundary_distance,
    first_hole,
    in_hole,
    joukowski_inverse,
    segments_cross,
)
from laplace_series.solver import FitReport


@pytest.fixture(scope="module")
def pure_source():
    prob = Problem(components=(), domain_kind="exterior", source=0j)
    exp = Expansion(
        components=(), spec=ExpansionSpec(degrees=()), vector=[0.0],
        source=0j, source_strength=1.0,
    )
    return Solution(prob, exp, 0.0, FitReport(0, 0, ()))


def test_pure_source_ray(pure_source):
    z0 = 0.01 * cmath.exp(1j * math.pi / 4)
    line = trace_streamline(pure_source, z0)
    assert line.termination == LEFT_WINDOW
    pts = np.array(line.points)
    direction = cmath.exp(1j * math.pi / 4)
    perp = np.abs((pts * np.conj(direction)).imag)
    assert np.max(perp) <= 1e-6


def test_streamline_rejects_bad_seed(disk1, slit1):
    with pytest.raises(ValueError):
        trace_streamline(disk1, 3 + 1j)  # inside the disk
    # The domain is open: a seed inside an inner disk, on its circle, on a
    # slit or at the source is rejected.
    for sol, seed in ((disk1, 3.5 + 1j), (disk1, 4 + 1j), (disk1, 3 + 2j), (disk1, 0j),
                      (slit1, 3 + 1j), (slit1, 4 + 0.5j), (slit1, 0j)):
        with pytest.raises(ValueError, match="outside the domain"):
            trace_streamline(sol, seed)
    prob = Problem((disk(0, 2.0, role="outer"), disk(0.5, 0.2)), "bounded", None, (1.0, 0.0))
    bounded = solve_problem(prob, default_spec(prob, degree=8))
    for seed in (2.0, -2j, 3.0, 2 + 2j):  # on and outside the outer circle
        with pytest.raises(ValueError, match="outside the domain"):
            trace_streamline(bounded, seed)
    trace_streamline(bounded, 1.0)


def test_fan_eps_counts_the_outer_disk():
    # The source is 0.05 from the outer circle and 1.35 from the inner disk.
    prob = Problem((disk(0, 1.0, role="outer"), disk(-0.5, 0.1)), "bounded", 0.95, (0.0, 0.0))
    sol = solve_problem(prob)
    eps = _default_eps(prob)
    assert eps == pytest.approx(0.25 * 0.05)
    fan = streamline_fan(sol, 16, eps, TraceOptions(window=default_window(prob)))
    assert len(fan) == 16
    assert {line.termination for line in fan} == {HIT_BOUNDARY}
    with pytest.raises(ValueError, match=r"reaches components\[0\]"):
        streamline_fan(sol, 16, 0.06)


def test_streamline_hits_disk(disk1):
    # A seed aimed straight at the disk terminates on it, within delta_stop.
    direction = (3 + 1j) / abs(3 + 1j)
    line = trace_streamline(disk1, 0.05 * direction)
    assert line.termination == HIT_BOUNDARY
    assert line.component_index == 0
    comp = disk1.problem.components[0]
    assert abs(abs(line.points[-1] - comp.center) - comp.radius) < 1e-3


def test_streamline_monotone_and_tangent(disk1):
    line = trace_streamline(disk1, 0.05 * cmath.exp(0.4j))
    u = [eval_expansion(disk1.expansion, p) for p in line.points]
    assert all(b > a for a, b in zip(u, u[1:]))
    for a, b in zip(line.points[:-1], line.points[1:]):
        g = eval_gradient(disk1.expansion, a)
        tangent = (b - a) / abs(b - a)
        sine = abs((tangent * g.conjugate()).imag) / abs(g)
        assert sine <= 1e-2


def test_fan_rays_of_pure_source(pure_source):
    fan = streamline_fan(pure_source, 4, 0.01)
    assert len(fan) == 4
    for k, line in enumerate(fan):
        angle = 2 * math.pi * k / 4
        direction = cmath.exp(1j * angle)
        pts = np.array(line.points)
        assert np.max(np.abs((pts * np.conj(direction)).imag)) <= 1e-9
        assert line.value == pytest.approx(angle)


def test_fan_argument_errors(disk1, pure_source):
    with pytest.raises(ValueError):
        streamline_fan(disk1, 0, 0.01)
    with pytest.raises(ValueError):
        streamline_fan(disk1, 4, -1.0)
    with pytest.raises(ValueError):
        streamline_fan(disk1, 4, 10.0)  # eps-circle reaches the disk
    sourceless = Solution(
        Problem((disk(3 + 1j, 1.0),), "exterior", None, (0.0,)),
        Expansion(
            components=(disk(3 + 1j, 1.0),), spec=ExpansionSpec(degrees=(0,)), vector=[0.0, 0.0],
        ),
        0.0,
        FitReport(0, 0, ()),
    )
    with pytest.raises(ValueError):
        streamline_fan(sourceless, 4, 0.01)


def test_step_cap_keeps_points_distinct(disk1):
    line = trace_streamline(disk1, 0.05 * cmath.exp(0.4j), TraceOptions(max_steps=5))
    assert line.termination == STEP_LIMIT
    assert not line.stagnated
    assert len(line.points) == 6
    assert len(set(line.points)) == 6
    u = eval_expansion(disk1.expansion, np.array(line.points))
    assert np.all(np.diff(u) > 0)


def test_slit_fan_matches_single_traces(slit1, monkeypatch):
    # A loose step tolerance lets steps jump the slit, so lines of one batch
    # take different numbers of reject-and-halve passes; each must still
    # follow the same path as when traced on its own.
    crossed = []
    crossed_boundary = field._crossed_boundary

    def counting(problem, a, b):
        hit = crossed_boundary(problem, a, b)
        crossed.append(int(np.sum(hit >= 0)))
        return hit

    opts = TraceOptions(h_max=0.2, step_tol=1e-2)
    monkeypatch.setattr(field, "_crossed_boundary", counting)
    fan = streamline_fan(slit1, 32, 0.01, opts)
    monkeypatch.undo()
    assert sum(crossed) > 0
    comp = slit1.problem.components[0]
    a, b = comp.endpoints
    for k, line in enumerate(fan):
        pts = line.points
        assert not any(segments_cross(p, q, a, b) for p, q in zip(pts, pts[1:]))
        u = eval_expansion(slit1.expansion, np.array(pts))
        assert np.all(np.diff(u) > 0)
        seed = slit1.problem.source + 0.01 * cmath.exp(2j * math.pi * k / 32)
        alone = trace_streamline(slit1, seed, opts)
        assert (line.termination, line.component_index) == (alone.termination, alone.component_index)
        assert len(line.points) == len(alone.points)
        assert np.max(np.abs(np.array(pts) - np.array(alone.points))) <= 1e-12
    assert {line.termination for line in fan} == {HIT_BOUNDARY, LEFT_WINDOW}


def test_stage_failures_stay_on_their_line():
    # Stage points on the slit, within rounding of its endpoint 3 (off the
    # slit, but f' is singular there) and at the source mark only their own
    # lines; the other lines get unit ascent directions.
    exp = Expansion(
        components=(slit(2.0, 1.0),), spec=ExpansionSpec(degrees=(2,)),
        vector=[0.0, -1.0, 0.1, 0.0, 0.0, 0.2], source=0j, source_strength=1.0,
    )
    z = np.array([2.5 + 0j, 0.5 + 0.5j, 3.0 + 1e-300j, 0j, -1.0 + 0j])
    status = np.zeros(z.size, dtype=np.int8)
    k, _ = _directions(exp, z, status)
    assert status.tolist() == [_UNDEFINED, _OK, _UNDEFINED, _UNDEFINED, _OK]
    g = eval_gradient(exp, z[[1, 4]])
    assert np.allclose(k[[1, 4]], g / np.abs(g), rtol=0, atol=1e-15)
    assert np.all(k[[0, 2, 3]] == 0)


@pytest.mark.parametrize("scaled", [False, True])
def test_stage_at_a_disk_center_stays_on_its_line(scaled):
    # With a disk, a slit and a source, a stage point at each of the three
    # kinds of singular point marks only its own line, for both disk scalings.
    exp = Expansion(
        components=(disk(2.0 + 1j, 0.5), slit(-2.0, 1j)),
        spec=ExpansionSpec(degrees=(2, 2), scaled=scaled),
        vector=[0.0, -0.5, -0.5, 0.1, 0.0, 0.0, 0.05, 0.2, 0.0, 0.0, 0.1],
        source=0j, source_strength=1.0,
    )
    z = np.array([2.0 + 1j, 0.5 + 0.5j, -2.0 + 0.5j, 0j, 1.0 - 2j, 2.0 + 1j])
    status = np.zeros(z.size, dtype=np.int8)
    k, u = _directions(exp, z, status, want_u=True)
    assert status.tolist() == [_UNDEFINED, _OK, _UNDEFINED, _UNDEFINED, _OK, _UNDEFINED]
    g = eval_gradient(exp, z[[1, 4]])
    assert np.allclose(k[[1, 4]], g / np.abs(g), rtol=0, atol=1e-15)
    assert np.allclose(u[[1, 4]], eval_expansion(exp, z[[1, 4]]), rtol=0, atol=1e-15)
    assert np.all(k[[0, 2, 3, 5]] == 0)
    assert np.all(np.isnan(u[[0, 2, 3, 5]]))


def _near_by_full_map(comp, z, delta):
    """The slit proximity rule with the inverse map run on every point."""
    hit = (boundary_distance(comp, z) < delta) | in_hole(comp, z)
    rest = ~hit
    w = joukowski_inverse(comp.center, comp.halfspan, z[rest])
    hit[rest] = np.log(np.abs(w)) < delta / abs(comp.halfspan)
    return np.where(hit, 0, -1)


@settings(max_examples=150, deadline=None)
@given(
    cx=st.floats(-5.0, 5.0), cy=st.floats(-5.0, 5.0),
    span=st.floats(1e-3, 10.0), angle=st.floats(-math.pi, math.pi),
    delta=st.floats(1e-6, 1e-1), seed=st.integers(0, 2**32 - 1),
)
def test_slit_prescreen_matches_the_full_map(cx, cy, span, angle, delta, seed):
    # Points around both endpoints, on the middle normal and in the band
    # delta <= dist < |h| sinh(delta/|h|), where only the map can say "near".
    center, unit = complex(cx, cy), cmath.exp(1j * angle)
    comp = slit(center, span * unit)
    problem = green_problem([comp], source=center + 3 * span * 1j * unit)
    reach = span * math.sinh(delta / span)
    rng = np.random.default_rng(seed)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, 24))
    local = np.concatenate([
        span + rng.uniform(0, 3, 24) * reach * phase,  # around the endpoint +h
        -span + rng.uniform(0, 3, 24) * reach * phase,  # around -h
        1j * rng.uniform(-3, 3, 24) * reach,  # the middle normal
        rng.uniform(-span, span, 24)  # the band, beside the slit
        + 1j * np.sign(rng.uniform(-1, 1, 24)) * rng.uniform(delta, reach, 24),
        span * (1 + 0j) + rng.uniform(delta, reach, 24) * phase * np.sign(phase.real),
    ])
    z = center + unit * local
    near, clearance = _near_component(problem, z, delta)
    assert np.array_equal(near, _near_by_full_map(comp, z, delta))
    assert np.array_equal(clearance, boundary_distance(comp, z))


def _boundary_points(problem, count, rng):
    """``count`` points on each component's boundary with unit normals into
    the domain; a third of each slit's points are its endpoints, with
    directions past the end."""
    points, normals = [], []
    for comp in problem.components:
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi, count))
        if comp.kind != SLIT:
            sign = -1.0 if comp.role == OUTER else 1.0
            points.append(comp.center + comp.radius * phase)
            normals.append(sign * phase)
            continue
        unit = comp.halfspan / abs(comp.halfspan)
        end = np.where(rng.uniform(-1, 1, count) < 0, -1.0, 1.0)
        t = np.where(np.arange(count) % 3 == 0, end, rng.uniform(-1, 1, count))
        side = unit * np.where(rng.uniform(-1, 1, count) < 0, -1j, 1j)
        beyond = unit * end * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2, count))
        points.append(comp.center + comp.halfspan * t)
        normals.append(np.where(np.abs(t) == 1.0, beyond, side))
    return np.concatenate(points), np.concatenate(normals)


@settings(max_examples=80, deadline=None)
@given(
    log_scale=st.floats(-3.0, 3.0), angle=st.floats(-math.pi, math.pi),
    log_delta=st.floats(-6.0, -0.5), seed=st.integers(0, 2**32 - 1),
)
def test_skipped_boundary_tests_would_find_nothing(log_scale, angle, log_delta, seed):
    # The skip rules of field._trace, on an outer circle, a disk and two
    # slits at scales 1e-3 to 1e3: a step whose length times (1 + 1e-6) is
    # below its line's carried clearance is not tested for crossings, and an
    # accepted point whose clearance is above far is not tested for
    # proximity (delta up to 0.3 of the scale).  Lines start at distances
    # from delta/10 to the scale, beside every boundary and around the slit
    # endpoints, and walk straight at their boundary point.  Each step is
    # about as long as the clearance, or leaves about far of it, within
    # 1e-15 to 1e-1 of that either way, so both rules are tried on both
    # sides of their thresholds.  Wherever a rule skips, the full test must
    # return -1.
    scale, delta = 10.0**log_scale, 10.0 ** (log_scale + log_delta)
    comps = (disk(0, 4 * scale, role="outer"), disk((-1.5 + 0.5j) * scale, 0.5 * scale),
             slit((1.2 + 1j) * scale, 0.6 * scale * cmath.exp(1j * angle)),
             slit((0.5 - 1.6j) * scale, 0.5j * scale))
    problem = Problem(comps, "bounded", None)
    far = max(field._stop_reach(c, delta) for c in comps) * (1.0 + 1e-6)
    rng = np.random.default_rng(seed)
    p, n = _boundary_points(problem, 40, rng)
    z = p + n * delta * 10.0 ** rng.uniform(-1, 1 - log_delta, p.size)
    inside = first_hole(comps, z) < 0
    z, n = z[inside], n[inside]
    near, clear = _near_component(problem, z, delta)
    z, n, clear = z[near < 0], n[near < 0], clear[near < 0]
    skipped = [0, 0]
    for k in range(8):
        sign = np.where(rng.uniform(-1, 1, z.size) < 0, -1.0, 1.0)
        jitter = 1.0 + sign * 10.0 ** rng.uniform(-15, -1, z.size)
        goal = clear - far * jitter if k % 2 else clear * jitter
        z_new = z - n * np.maximum(goal, 0.0)
        length = np.abs(z_new - z)
        skip = length * (1.0 + 1e-6) < clear
        assert np.all(field._crossed_boundary(problem, z[skip], z_new[skip]) == -1)
        clear = clear - length
        close = clear <= far
        assert np.all(_near_component(problem, z_new[~close], delta)[0] == -1)
        near, clear[close] = _near_component(problem, z_new[close], delta)
        skipped[0] += np.count_nonzero(skip)
        skipped[1] += np.count_nonzero(~close)
        # Lines whose step crosses a boundary or ends near one leave the walk.
        live = np.ones(z.size, dtype=bool)
        live[~skip] = field._crossed_boundary(problem, z[~skip], z_new[~skip]) < 0
        live[close] &= near < 0
        z, n, clear = z_new[live], n[live], clear[live]
    assert min(skipped) > 0


def test_step_cap_keeps_the_last_step_termination(disk1):
    # At a 25-step cap some lines leave the window on their 25th step: they
    # end there, and only lines still inside the window stop at the cap.
    window = default_window(disk1.problem)
    fan = streamline_fan(disk1, 32, 0.05, TraceOptions(max_steps=25))
    assert {line.termination for line in fan if line.accepted_steps == 25} == {
        LEFT_WINDOW, STEP_LIMIT}
    for line in fan:
        outside = not field._in_window(window, np.array(line.points[-1:]))[0]
        assert outside == (line.termination == LEFT_WINDOW)
        assert line.termination != STEP_LIMIT or line.accepted_steps == 25


def test_fan_fraction_matches_measure(disk1):
    opts = TraceOptions(window=(-700, 700, -700, 700))
    fan = streamline_fan(disk1, 64, 0.01, opts)
    hits = sum(1 for l in fan if l.termination == HIT_BOUNDARY)
    measure = -disk1.expansion.log_coeffs[0]
    assert abs(hits / 64 - measure) <= 2 / 64
    assert not any(l.termination == STEP_LIMIT for l in fan)


def test_contours_of_pure_source(pure_source):
    polys = extract_contours(pure_source, [0.0], (-2, 2, -2, 2), 201)
    assert len(polys) == 1
    (circle,) = polys
    assert circle.termination is None  # closed loop
    assert circle.points[0] == circle.points[-1]
    radii = np.abs(np.array(circle.points))
    assert np.max(np.abs(radii - 1.0)) <= 4 / 201


def _source_circle(pure_source, r):
    """The contour |z| = 0.93 r on a 101-point grid over a window of half-width 2r."""
    window = (-2 * r, 2 * r, -2 * r, 2 * r)
    (circle,) = extract_contours(pure_source, [math.log(0.93 * r)], window, 101)
    assert circle.termination is None
    return np.array(circle.points)


@pytest.mark.parametrize("r", [1.0, 1e-3, 1e-6, 1e-8, 1e-9])
def test_contours_are_scale_free(pure_source, r):
    # Segments join by grid edge, not by rounded coordinates, so shrinking the
    # picture shrinks the polyline and nothing else.
    ref = _source_circle(pure_source, 1.0)
    pts = _source_circle(pure_source, r) / r
    assert len(ref) == 189
    assert len(pts) == len(ref)
    assert np.max(np.abs(pts - ref)) <= 1e-12


def test_contour_through_grid_node(pure_source):
    # u = log|z| is exactly 0 at the node (1, 0); the two crossed edges of a
    # cell both meet the level there, and the node appears once, exactly.
    (line,) = extract_contours(pure_source, [0.0], (1 - 1e-3, 1 + 1e-3, -1e-3, 1e-3), 101)
    pts = np.array(line.points)
    assert len(pts) == 101
    assert np.all(pts[1:] != pts[:-1])
    assert np.count_nonzero(pts == 1.0) == 1


def _grid_values(solution, window, grid_n):
    """The grid extract_contours samples, u on it (nan off the domain), and the
    cells marching squares may use."""
    x0, x1, y0, y1 = window
    xs, ys = np.linspace(x0, x1, grid_n), np.linspace(y0, y1, grid_n)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    mask = _domain_mask(solution.problem, Z)
    U = np.full(Z.shape, np.nan)
    U[mask] = eval_expansion(solution.expansion, Z[mask])
    cell_ok = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, 1:] & mask[1:, :-1]
    return xs, ys, U, cell_ok & ~field._slit_cell_mask(solution.problem, window, grid_n)


def _all_edge_crossings(U, xs, ys, level):
    """The level's crossing of every grid edge, by edge number: the horizontal
    edges row by row, then the vertical ones, each interpolated from its end
    nearer the level (meaningless where the level does not cross)."""

    def cross(p, q, a, b):
        from_p = np.abs(level - a) <= np.abs(level - b)
        return np.where(from_p, p + (level - a) / (b - a) * (q - p), q + (level - b) / (a - b) * (p - q))

    with np.errstate(divide="ignore", invalid="ignore"):
        x = cross(xs[:-1], xs[1:], U[:, :-1], U[:, 1:])
        y = cross(ys[:-1, None], ys[1:, None], U[:-1], U[1:])
        return np.concatenate([(x + 1j * ys[:, None]).ravel(), (xs + 1j * y).ravel()])


def _cell_loop_segments(U, level, cell_ok):
    """Marching-squares segments by a loop over the cells, row-major."""
    rows, n = U.shape
    vals = U.tolist()
    segments = []
    for j, i in zip(*(ax.tolist() for ax in np.nonzero(cell_ok))):
        corners = (vals[j][i], vals[j][i + 1], vals[j + 1][i + 1], vals[j + 1][i])
        code = sum(1 << c for c, v in enumerate(corners) if v > level)
        if code in (0, 15):
            continue
        if code in field._MS_SADDLE:
            below, above = field._MS_SADDLE[code]
            pairs = above if sum(corners) / 4.0 > level else below
        else:
            pairs = [field._MS_EDGES[code]]
        h = j * (n - 1) + i
        v = rows * (n - 1) + j * n + i
        number = (h, v + 1, h + n - 1, v)
        segments.extend([number[e1], number[e2]] for e1, e2 in pairs)
    return segments


@pytest.mark.parametrize("grid_n", [60, 240])
@pytest.mark.parametrize("name", ["disk1", "slit1"])
def test_contour_vertices_are_edge_crossings(request, name, grid_n):
    # Each vertex equals (==) the all-edges crossing formula at its edge, and
    # the segments come in the order of a plain loop over the cells.  One
    # level runs through a grid node, which must appear as a vertex.
    sol = request.getfixturevalue(name)
    window = default_window(sol.problem)
    xs, ys, U, cell_ok = _grid_values(sol, window, grid_n)
    j, i = grid_n // 3, grid_n // 4
    assert np.isfinite(U[j, i])
    node_level = float(U[j, i])
    levels = [-0.3, -0.2, -0.1, node_level]
    polys = extract_contours(sol, levels, window, grid_n)
    for level in levels:
        segments = field._cells_to_segments(U, level, cell_ok)
        assert segments.tolist() == _cell_loop_segments(U, level, cell_ok)
        crossings = _all_edge_crossings(U, xs, ys, level)
        want = []
        for chain, closed in field._chain_segments(segments):
            pts = crossings[chain]
            pts = pts[np.r_[True, pts[1:] != pts[:-1]]]
            if len(pts) >= 2:
                want.append((tuple(pts.tolist()), None if closed else LEFT_WINDOW))
        got = [(p.points, p.termination) for p in polys if p.value == level]
        assert got == want
        assert got
    node = complex(xs[i], ys[j])
    assert any(node in p.points for p in polys if p.value == node_level)


@pytest.mark.parametrize("code", [5, 10])
@pytest.mark.parametrize("above", [False, True])
def test_saddle_cells_follow_the_table(code, above):
    # A 2x3 grid: the left cell is a saddle whose average lies above or below
    # the level 0.5, the right cell crosses once.  Corners 0..3 of the left
    # cell are U[0,0], U[0,1], U[1,1], U[1,0].
    hi, lo = (1.0, 0.2) if above else (0.9, 0.0)
    first = [hi, lo, hi, lo] if code == 5 else [lo, hi, lo, hi]
    U = np.array([[first[0], first[1], 1.0], [first[3], first[2], 1.0]])
    cell_ok = np.ones((1, 2), dtype=bool)
    assert (sum(first) / 4.0 > 0.5) == above
    segments = field._cells_to_segments(U, 0.5, cell_ok).tolist()
    # Edge numbers of the left cell's bottom, right, top and left edges.
    number = (0, 5, 2, 4)
    pairs = field._MS_SADDLE[code][above]
    want = [[number[e1], number[e2]] for e1, e2 in pairs]
    assert segments[:2] == want
    assert segments == _cell_loop_segments(U, 0.5, cell_ok)
    assert len(segments) == 3


def test_contours_empty_cases(pure_source):
    assert extract_contours(pure_source, [], (-2, 2, -2, 2), 50) == []
    assert extract_contours(pure_source, [10.0], (-2, 2, -2, 2), 50) == []
    with pytest.raises(ValueError):
        extract_contours(pure_source, [0.0], (-2, 2, -2, 2), 1)


def test_contour_vertices_satisfy_level(disk1):
    levels = [-0.1 * k for k in range(1, 13)]
    polys = extract_contours(disk1, levels, default_window(disk1.problem), 240)
    assert polys
    for poly in polys:
        assert poly.kind == EQUIPOTENTIAL
        u = eval_expansion(disk1.expansion, np.array(poly.points))
        assert np.max(np.abs(u - poly.value)) <= 1e-3 * max(1.0, abs(poly.value))


def test_contours_mask_slits(slit1):
    # Contours must not cross the slit; vertices stay clear of it.
    polys = extract_contours(slit1, [-0.05], (1.0, 5.0, -1.0, 3.0), 240)
    comp = slit1.problem.components[0]
    a, b = comp.endpoints
    ab = b - a
    for poly in polys:
        pts = np.array(poly.points)
        t = np.clip(((pts - a) * np.conj(ab)).real / abs(ab) ** 2, 0, 1)
        dist = np.abs(a + t * ab - pts)
        assert np.min(dist) > 1e-6


def _segment_crossings(pa, pb, qa, qb):
    """Vectorized proper-crossing test of one segment (pa,pb) against arrays."""
    def cross(o, a, b):
        return ((a - o) * np.conj(b - o)).imag

    d1 = cross(qa, qb, pa)
    d2 = cross(qa, qb, pb)
    d3 = cross(pa, pb, qa)
    d4 = cross(pa, pb, qb)
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def test_contour_streamline_orthogonality(disk1):
    levels = [-0.1 * k for k in range(1, 13)]
    window = default_window(disk1.problem)
    contours = extract_contours(disk1, levels, window, 400)
    qa = np.concatenate([np.array(p.points[:-1]) for p in contours])
    qb = np.concatenate([np.array(p.points[1:]) for p in contours])
    fan = streamline_fan(disk1, 12, 0.01, TraceOptions(window=window))
    checked = 0
    worst = 0.0
    for line in fan:
        for pa, pb in zip(line.points[:-1], line.points[1:]):
            hits = _segment_crossings(pa, pb, qa, qb)
            for idx in np.nonzero(hits)[0]:
                t_stream = (pb - pa) / abs(pb - pa)
                t_cont = (qb[idx] - qa[idx]) / abs(qb[idx] - qa[idx])
                angle = abs(math.degrees(math.acos(min(1.0, abs((t_stream * np.conj(t_cont)).real)))))
                worst = max(worst, abs(90.0 - angle))
                checked += 1
            if checked >= 50:
                break
        if checked >= 50:
            break
    assert checked >= 50
    assert worst <= 2.0


def test_slit_side_measure_paper_value(slit1):
    facing = slit_side_measure(slit1, 0, "facing")
    assert abs(facing - 0.582625) < 1e-4


def test_slit_sides_sum_to_total(slit1):
    facing = slit_side_measure(slit1, 0, "facing")
    away = slit_side_measure(slit1, 0, "away")
    total = -slit1.expansion.log_coeffs[0]
    assert abs((facing + away) - total) < 1e-5


def test_symmetric_slit_splits_evenly():
    prob = green_problem([slit(3.0, 1.0)], source=0j)
    sol = solve_problem(prob, default_spec(prob, degree=16))
    facing = slit_side_measure(sol, 0, "facing")
    away = slit_side_measure(sol, 0, "away")
    total = -sol.expansion.log_coeffs[0]
    assert abs(facing - 0.5 * total) < 1e-6
    assert abs(away - 0.5 * total) < 1e-6


def test_slit_side_measure_argument_errors(disk1, slit1):
    with pytest.raises(ValueError):
        slit_side_measure(disk1, 0, "facing")
    with pytest.raises(ValueError):
        slit_side_measure(slit1, 0, "leeward")


def test_evaluation_builds_no_design_matrix(disk1, slit1, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("design_matrix called during evaluation")

    monkeypatch.setattr(basis, "design_matrix", refuse)
    for sol in (disk1, slit1):
        pts = np.array([0.5 + 0.5j, -1.0 + 2.0j])
        assert np.all(np.isfinite(eval_expansion(sol.expansion, pts)))
        assert np.all(np.isfinite(basis.complex_derivative(sol.expansion, pts)))
        window = default_window(sol.problem)
        assert extract_contours(sol, [-0.2, -0.1], window, 60)
        fan = streamline_fan(sol, 8, 0.01, TraceOptions(window=window))
        assert {line.termination for line in fan} <= {HIT_BOUNDARY, LEFT_WINDOW}


def test_grid_evaluation_holds_no_matrix():
    # The figure benchmark's geometry: u on a 240x240 grid over the window.
    prob = green_problem([disk(-2 + 1j, 0.8), slit(2.5 - 0.5j, cmath.exp(0.4j))], source=0j)
    sol = solve_problem(prob, default_spec(prob, degree=12))
    x0, x1, y0, y1 = default_window(prob)
    X, Y = np.meshgrid(np.linspace(x0, x1, 240), np.linspace(y0, y1, 240))
    Z = X + 1j * Y
    z = Z[_domain_mask(prob, Z)]
    matrix_bytes = z.size * basis.column_layout(prob.components, sol.expansion.spec)[-1].stop * 8
    tracemalloc.start()
    try:
        eval_expansion(sol.expansion, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * matrix_bytes


def test_rejected_steps_are_counted(disk1):
    window = default_window(disk1.problem)
    opts = TraceOptions(window=window, step_tol=1e-8)
    fan = streamline_fan(disk1, 8, 0.01, opts)
    assert min(line.rejected_steps for line in fan) > 0
    alone = trace_streamline(disk1, disk1.problem.source + 0.01, opts)
    assert alone.rejected_steps == fan[0].rejected_steps
    contours = extract_contours(disk1, [-0.2], window, 60)
    assert contours and all(poly.rejected_steps == 0 for poly in contours)


# How each of the 64 lines of the figure benchmark's fan ends, for its
# picture without the seeded jitter, as "termination component:points:
# rejected steps" (H hit_boundary, W left_window): the values the tracer
# gave when each block's series was summed by a loop of its own.
FIGURE_FAN = (
    "H1:62:7 H1:61:3 H1:65:2 H1:70:3 H1:79:7 H1:92:11 H1:100:4 H1:125:7 "
    "H1:153:0 H1:231:0 W:116:0 H0:152:5 H0:119:0 H0:103:9 H0:89:6 H0:78:4 "
    "H0:72:10 H0:64:8 H0:57:5 H0:52:7 H0:47:6 H0:44:10 H0:39:7 H0:37:12 "
    "H0:31:6 H0:28:8 H0:26:7 H0:28:13 H0:28:13 H0:26:6 H0:27:7 H0:31:8 "
    "H0:34:4 H0:39:8 H0:44:10 H0:48:8 H0:52:5 H0:58:7 H0:65:10 H0:72:10 "
    "H0:78:4 H0:90:10 H0:99:0 H0:117:7 H0:140:6 H0:185:13 W:106:0 W:87:0 "
    "H1:197:9 H1:151:9 H1:130:8 H1:116:6 H1:106:6 H1:96:3 H1:90:5 H1:79:0 "
    "H1:63:15 H1:59:19 H1:56:6 H1:54:1 H1:55:2 H1:56:4 H1:56:3 H1:61:8"
).split()


def test_figure_fan_is_pinned():
    halfspan = complex(math.cos(0.4), math.sin(0.4))
    prob = green_problem([disk(-2 + 1j, 0.8), slit(2.5 - 0.5j, halfspan)], source=0j)
    sol = solve_problem(prob, default_spec(prob, degree=12))
    opts = TraceOptions(window=default_window(prob))
    fan = streamline_fan(sol, 64, _default_eps(prob), opts)
    code = {HIT_BOUNDARY: "H", LEFT_WINDOW: "W", STEP_LIMIT: "S"}
    got = [
        f"{code[line.termination]}{'' if line.component_index is None else line.component_index}"
        f":{len(line.points)}:{line.rejected_steps}"
        for line in fan
    ]
    assert got == FIGURE_FAN
    assert not any(line.stagnated for line in fan)
    assert all(line.accepted_steps == len(line.points) - 1 for line in fan)


# The 24-line fan of a bounded domain (an outer circle, a disk and two
# slits) as "termination component:points:rejected steps" and the SHA-256
# of the line's points as float64 (x, y) pairs, recorded before the tracer
# carried each line's clearance, with BLAS on one thread.
BOUNDED_FAN = (
    "H2:68:4 be927656d4add494984601f4da558b0dea8391d1d7de56cd885680681c9f9f97",
    "H2:59:5 a7599193cd06a57f6e62c684b978d78bb3d1b64f19cd33f6b5a6279ac1f6fcd3",
    "H2:52:3 8111545dcb81e08d0b6d1add1449ac25aed3283e736f4bb9a7ce5dbab45a696a",
    "H2:49:6 a8b2488bb713eac1dbaff8edf69297155968bbe5ee3d9f20e997aaa42b98b18d",
    "H2:46:19 d6c023a7afea453ed89976aaa649cbedfcc2dd2d341874fa54f03c35a2eeefcd",
    "H2:66:3 40e228fba49a034e0ce6681b815b0a1ca5da157cf7f2301d9a52e493e72f013a",
    "H2:80:2 df641835a3bc89d68afc7b2af2239aaeb4efa9f10642381c9e2df41deda85d29",
    "H2:148:3 1361e313986d5eb6be0a814ca9e6ff4b1d4aef2a685f02f7bec85590eb136d5f",
    "H0:108:10 1161a4d1f38fdf21cee414d0693dae5466927d7b585ad70567bfd0dfac182506",
    "H1:72:5 be1224fbfaae33e583b372c3b14f3bc3b8874214383423f2b0811457a86409aa",
    "H1:53:5 6575ba3fe925e1135945d8518ab7e8a4477f3fbba49d59d679ad76d2a933e587",
    "H1:39:5 be14385d7d7fc524a78eb826906433ffc179773247c431b64a210761c07e6481",
    "H1:34:9 0ea03c1f491c2862ebf9fe7204542f91e59736fe33bd2552f2e889f725b3347f",
    "H1:50:9 6741dc04d768909b2fdf54f45308d53cf85e989e112e8f0a73a9faa0db33df78",
    "H1:67:4 0b06a6e605e5bbe6365ed568921d72bd3e098c6f3ae4235f11ca71e29df5de48",
    "H1:128:0 c061fcbfb157769812a4810a81de8fb92acc4b94b5cb8f2fe42ed2848d4a5fdb",
    "H0:102:12 a112a383697bb3f1a1b2cf8efcea8a15eacea9af3374e6548b86e9bf5bef3350",
    "H3:76:5 26bdc32dd1001f06a109eed33a4024951256eb592b680d7a74d92a4233c0684a",
    "H3:65:5 77c7c93614355de7fa8819dc02fcd108e96d64fb10f8c28a421acf0f505964fc",
    "H3:45:14 a5c42f098d5f25f005d47bb2fe41517236d26edb28329cbfbd453e8c50842162",
    "H3:76:2 824234655b440639a9dfd3d6b694481be77c6c820a34fea868304961bc0aade0",
    "H3:101:3 8e1ae10cb017e6dd73c4ad3d1d23ee60fbac21220d375a2ead3a27a04c85d9a9",
    "H0:86:10 2e9696c7020a397def91dd93b69f80895dba48044a2dc644d2da5dfa98f3f0dd",
    "H2:133:2 77311d36913d6d9bc947d42e1b9cdee6a87da84c1ecd4a74a46f19f1fb411cbc",
)


def _bounded_fan_solution():
    comps = (disk(0.0, 4.0, role="outer"), disk(-1.5 + 0.5j, 0.5),
             slit(1.2 + 1.0j, 0.6 * cmath.exp(0.3j)), slit(0.5 - 1.6j, 0.5j))
    prob = Problem(comps, "bounded", 0.2 + 0.1j)
    return solve_problem(prob, default_spec(prob, degree=10))


def test_bounded_fan_is_pinned():
    fan = streamline_fan(_bounded_fan_solution(), 24, 0.01)
    code = {HIT_BOUNDARY: "H", LEFT_WINDOW: "W", STEP_LIMIT: "S"}
    got = [
        f"{code[line.termination]}{line.component_index}:{len(line.points)}:"
        f"{line.rejected_steps} "
        + hashlib.sha256(np.array(line.points, dtype=complex).view(float).tobytes()).hexdigest()
        for line in fan
    ]
    assert got == list(BOUNDED_FAN)
    assert {line.component_index for line in fan} == {0, 1, 2, 3}


def test_fan_makes_three_evaluations_per_pass(monkeypatch):
    # One evaluation at the seeds, then three per pass (one per stage), and
    # no other: the clearance comes from geometry alone.  Every pass takes one
    # trial step on each live line, so the pass count is the largest number
    # of trial steps a line took.
    calls = []
    evaluate = field._evaluate

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    sol = _bounded_fan_solution()
    monkeypatch.setattr(field, "_evaluate", counting)
    fan = streamline_fan(sol, 24, 0.01)
    passes = max(line.accepted_steps + line.rejected_steps for line in fan)
    assert not any(line.stagnated for line in fan)
    assert len(calls) == 1 + 3 * passes
