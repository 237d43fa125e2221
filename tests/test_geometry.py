import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laplace_series.geometry import (
    SLIT,
    BoundaryComponent,
    DomainError,
    boundary_nodes,
    components_overlap,
    disk,
    first_hole,
    first_overlap,
    in_hole,
    joukowski_forward,
    joukowski_inverse,
    segments_cross,
    slit,
    unit_slit_inverse,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_forward_examples():
    assert joukowski_forward(0, 1, 1.0 + 0j) == 1.0
    assert joukowski_forward(0, 1, 1j) == 0.0
    assert joukowski_forward(3, 1 - 0.5j, -1.0 + 0j) == 2 + 0.5j


def test_forward_rejects_zero():
    with pytest.raises(DomainError):
        joukowski_forward(0, 1, 0j)


def test_inverse_examples():
    assert abs(joukowski_inverse(0, 1, 2.0) - (2 + math.sqrt(3))) < 1e-14
    assert abs(joukowski_inverse(0, 1, 2j) - (2 + math.sqrt(5)) * 1j) < 1e-14


def test_inverse_rejects_on_slit():
    with pytest.raises(DomainError):
        joukowski_inverse(0, 1, 0.25 + 0j)
    with pytest.raises(DomainError):
        joukowski_inverse(1j, 2j, 1j)  # center of a vertical slit


@pytest.mark.parametrize("x", [-1.0, 0.5, 1.0])
@pytest.mark.parametrize("y", [0.0, -0.0])
def test_unit_inverse_rejects_the_slit_among_points_off_the_axis(x, y):
    # The on-slit test runs only when some imaginary part is zero, +0.0 or
    # -0.0; a point on the slit among points off the real axis still raises.
    zc = np.array([2j, complex(x, y), 0.5 + 1e-300j])
    with pytest.raises(DomainError):
        unit_slit_inverse(zc)
    with pytest.raises(DomainError):
        unit_slit_inverse(zc[1:2])
    assert np.all(unit_slit_inverse(zc[[0, 2]]).imag > 0)  # the upper side


def test_inverse_generic_triple_round_trip():
    c, r, z = 0.2 + 0.1j, 0.5 + 0.1j, 1.3 + 0.7j
    w = joukowski_inverse(c, r, z)
    assert abs(w) > 1
    assert abs(joukowski_forward(c, r, w) - z) <= 1e-12 * abs(z)


@settings(max_examples=300, deadline=None)
@given(cr=finite, ci=finite, rr=finite, ri=finite, zr=finite, zi=finite)
def test_round_trip_property(cr, ci, rr, ri, zr, zi):
    c = complex(cr, ci)
    r = complex(rr, ri)
    z = complex(zr, zi)
    if abs(r) < 1e-3:
        return
    zc = (z - c) / r
    if abs(zc.imag) < 1e-9 and abs(zc.real) < 1 + 1e-9:
        return  # on or nearly on the slit
    w = joukowski_inverse(c, r, z)
    assert abs(w) > 1.0
    assert abs(joukowski_forward(c, r, w) - z) <= 1e-12 * max(1.0, abs(z))


def test_branch_continuity_along_path():
    # A loop around the slit at a safe distance never jumps branches.
    c, r = 0.3 - 0.2j, 1.1 + 0.4j
    t = np.arange(0.0, 2 * np.pi, 1e-3 / 2.4)
    z = c + 2.4 * abs(r) * np.exp(1j * t)
    w = joukowski_inverse(c, r, z)
    steps = np.abs(np.diff(w))
    assert np.max(steps) < 5e-2


def test_branch_consistent_on_axis_points():
    # Points exactly on the extended slit axis (signed-zero corner) agree with
    # the limits from both sides.
    c, r = 0.0, 1.0
    for y in (0.7, 1.9):
        below = joukowski_inverse(c, r, complex(0.0, -y))
        left = joukowski_inverse(c, r, complex(-1e-12, -y))
        right = joukowski_inverse(c, r, complex(1e-12, -y))
        assert abs(below - left) < 1e-6
        assert abs(below - right) < 1e-6
        assert abs(below) > 1


def _exterior_root(z):
    """The larger-modulus root of z +- sqrt(z^2 - 1) for the unit slit, worked
    in 800-digit decimals, so the two moduli are told apart even where they
    agree to 600 digits (z within 1e-300 of the slit's middle)."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 800, -9999, 9999
        x, y = Decimal(z.real), Decimal(z.imag)
        a, b = x * x - y * y - 1, 2 * x * y
        m = (a * a + b * b).sqrt()
        if a >= 0:  # any square root of a + ib will do: both roots are compared
            qr = ((m + a) / 2).sqrt()
            qi = b / (2 * qr)
        else:
            qi = ((m - a) / 2).sqrt()
            qr = b / (2 * qi)
        roots = [(x + qr, y + qi), (x - qr, y - qi)]
        re, im = max(roots, key=lambda r: r[0] * r[0] + r[1] * r[1])
        return complex(float(re), float(im))


def test_inverse_takes_the_exterior_root():
    rng = np.random.default_rng(5)
    ys = [1e-300, 1e-8, 0.3, 1.0, 7.5, 1e8, 1e150, 1e160, 1e200, 1e300]
    pts = [complex(sr, sy * y) for y in ys for sr in (0.0, -0.0) for sy in (1, -1)]
    xs = [1 + 1e-15, 1.5, 2.0, 1e8, 1e150, 1e160, 1e200, 1e300]
    pts += [complex(sx * x, si) for x in xs for sx in (1, -1) for si in (0.0, -0.0)]
    # 1e-300 off the open slit, on both sides; near its middle the imaginary
    # part of z^2 underflows, so only the sign of Im z tells the sides apart.
    xs = [0.0, -0.0, 1e-300, -3e-300, 1e-8, 0.5, -0.999]
    pts += [complex(x, sy * 1e-300) for x in xs for sy in (1, -1)]
    pts += [complex(x, sy * 5e-324) for x in (0.2, -0.45) for sy in (1, -1)]
    # Far out, up to 1e300, where z^2 would overflow past about 1.3e154.
    for r in (1e-3, 1.0, 10.0, 1e50, 1e100, 1e150, 1e160, 1e200, 1e300):
        pts += list(r * np.exp(1j * rng.uniform(-np.pi, np.pi, 12)))
    # Near the endpoints, where zc^2 - 1 cancels: e + d*exp(i*theta) for 15
    # decades of d and 16 angles, less the points on the closed slit.
    near = np.array([-1.0, 1.0])[:, None, None] + np.logspace(-16, -2, 15)[:, None] * np.exp(
        2j * np.pi * np.arange(16) / 16
    )
    pts += [p for p in near.ravel().tolist() if not (p.imag == 0.0 and abs(p.real) <= 1.0)]
    z = np.array(pts)
    ref = np.array([_exterior_root(p) for p in pts])
    tol = 4 * np.finfo(float).eps * np.abs(ref)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        w = joukowski_inverse(0, 1, z)
        scalar = np.array([joukowski_inverse(0, 1, p) for p in pts])
    assert np.all(np.abs(w - ref) <= tol)
    assert np.all(np.abs(scalar - ref) <= tol)
    # On the slit's line beyond its ends, with the slit pointing each way, zc
    # is real and its zero imaginary part may come out with either sign.
    for x in (1 + 1e-15, 3.0, 1e300, -1 - 1e-15, -3.0, -1e300):
        ref = _exterior_root(complex(x, 0.0))
        for zero in (0.0, -0.0):
            axis = [(1, complex(x, zero)), (-1, complex(-x, zero)),
                    (1j, complex(zero, x)), (-1j, complex(zero, -x))]
            for r, p in axis:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    got = [joukowski_inverse(0, r, p), joukowski_inverse(0, r, np.array([p]))[0]]
                assert all(abs(g - ref) <= 4 * np.finfo(float).eps * abs(ref) for g in got)
    # The endpoints are on the closed slit, where the preimage is two-valued.
    ends = [(0, 1, complex(sx, si)) for sx in (1.0, -1.0) for si in (0.0, -0.0)]
    for c, r, z in ends + [(2, 3, 5.0), (2, 3, -1.0), (1j, 2j, 3j), (1j, 2j, -1j)]:
        with pytest.raises(DomainError):
            joukowski_inverse(c, r, z)
        with pytest.raises(DomainError):
            joukowski_inverse(c, r, np.array([c + 3 * r, z]))


def test_disk_sampling_examples():
    d = disk(2 + 1j, 0.5)
    got, pre = boundary_nodes(d, 4)
    want = [2.5 + 1j, 2 + 1.5j, 1.5 + 1j, 2 + 0.5j]
    assert got.shape == pre.shape == (4,)
    assert all(abs(g - w) < 1e-15 for g, w in zip(got, want))


def test_slit_sampling_two_sides():
    z, w = boundary_nodes(slit(0, 1), 4)
    pts = sorted(z, key=lambda p: (p.real, p.imag))
    x = math.sqrt(2) / 2
    assert abs(pts[0] - (-x)) < 1e-15 and abs(pts[1] - (-x)) < 1e-15
    assert abs(pts[2] - x) < 1e-15 and abs(pts[3] - x) < 1e-15
    # conjugate preimages distinguish the sides; the first half of the nodes
    # covers the upper side
    pre = sorted(w.imag)
    assert pre[0] < 0 < pre[3]
    assert np.all(w[:2].imag > 0) and np.all(w[2:].imag < 0)


def test_preimages_are_one_cached_read_only_grid():
    for comp, offset, want in ((disk(2 + 1j, 0.5), None, 0.0), (slit(0, 1), None, 0.5),
                               (slit(3, 1j), 0.25, 0.25), (disk(0, 2.0), 0.5, 0.5)):
        z, w = boundary_nodes(comp, 40, offset)
        fresh = np.exp(1j * (2.0 * np.pi * (np.arange(40) + want) / 40))
        assert w.tobytes() == fresh.tobytes()
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        again, same = boundary_nodes(comp, 40, offset)
        assert same is w
        assert again is not z and z.flags.writeable  # the points are the caller's own
    # One count and offset give one grid, whichever component is sampled.
    assert boundary_nodes(slit(5, 2j), 40)[1] is boundary_nodes(disk(0, 1.0), 40, 0.5)[1]


def test_sampling_rejects_bad_counts():
    with pytest.raises(ValueError):
        boundary_nodes(disk(0, 1.0), 0)
    with pytest.raises(ValueError):
        boundary_nodes(slit(0, 1), -3)


@settings(max_examples=100, deadline=None)
@given(
    npts=st.integers(min_value=1, max_value=64),
    cr=finite,
    ci=finite,
    ext=st.floats(min_value=0.05, max_value=4.0),
    is_disk=st.booleans(),
    tilt=st.floats(min_value=-3.1, max_value=3.1),
)
def test_samples_lie_on_boundary(npts, cr, ci, ext, is_disk, tilt):
    c = complex(cr, ci)
    if is_disk:
        comp = disk(c, ext)
        z, _ = boundary_nodes(comp, npts)
        assert np.all(np.abs(np.abs(z - c) - ext) <= 1e-13 * max(1.0, ext))
    else:
        comp = slit(c, ext * complex(math.cos(tilt), math.sin(tilt)))
        z, w = boundary_nodes(comp, npts)
        # each point is exactly the forward image of its preimage
        assert np.array_equal(joukowski_forward(comp.center, comp.halfspan, w), z)


def test_component_validation():
    with pytest.raises(ValueError):
        disk(0, -1.0)
    with pytest.raises(ValueError):
        disk(0, 0.0)
    with pytest.raises(ValueError):
        slit(0, 0.0)
    with pytest.raises(ValueError):
        BoundaryComponent("slit", 0j, 1.0, role="outer")
    with pytest.raises(ValueError):
        disk(complex("inf"), 1.0)


def test_segments_cross():
    assert segments_cross(-1, 1, -1j, 1j)
    assert not segments_cross(-1, 1, 2 - 1j, 2 + 1j)
    assert segments_cross(0, 1, 0.5 + 0j, 2 + 0j)  # collinear overlap


def test_segments_cross_on_arrays_matches_scalar_calls():
    # Segments against the slit [0, 2], as the tracer tests a batch of steps.
    cases = [
        (1 - 1j, 1 + 1j, True),  # proper crossing
        (0.5 - 1j, 1.5 + 2j, True),  # proper crossing, slanted
        (1 + 0j, 1 + 1j, True),  # an endpoint on the slit
        (2 + 0j, 3 + 1j, True),  # touches the slit's end
        (-1j, 1j, True),  # passes through the slit's end
        (1 + 0j, 3 + 0j, True),  # collinear, overlapping
        (-1 + 0j, 0j, True),  # collinear, end to end
        (3 + 0j, 4 + 0j, False),  # collinear, disjoint
        (-2 + 0j, -1 + 0j, False),  # collinear, disjoint
        (3 + 0j, 3 + 1j, False),  # starts on the slit's line, off the slit
        (1j, 2 + 1j, False),  # parallel, not collinear
        (3 - 1j, 3 + 1j, False),  # a miss
    ]
    a1, a2, want = (np.array(col) for col in zip(*cases))
    got = segments_cross(a1, a2, 0j, 2 + 0j)
    assert got.tolist() == want.tolist()
    assert got.tolist() == [segments_cross(p, q, 0j, 2 + 0j) for p, q, _ in cases]
    # The slit as arrays, in the first two places.
    b1, b2 = np.zeros(len(cases), dtype=complex), np.full(len(cases), 2 + 0j)
    assert segments_cross(b1, b2, a1, a2).tolist() == want.tolist()
    # A batch where no orientation is exactly 0 skips the collinear tests.
    some = [0, 1, 11]
    assert segments_cross(a1[some], a2[some], 0j, 2 + 0j).tolist() == [True, True, False]


@pytest.mark.parametrize("step", [0.5, None])
def test_first_overlap_matches_pairwise_loop(step):
    # The bounding-box screen must not change which pair is found: compare
    # with the plain loop over all pairs, on a half-integer grid (exact
    # touching is common there) and on random reals.
    rng = np.random.default_rng(7)

    def draw(lo, hi):
        x = rng.uniform(lo, hi)
        return round(x / step) * step if step else x

    for _ in range(300):
        comps = []
        for _ in range(rng.integers(2, 8)):
            center = complex(draw(-4, 4), draw(-4, 4))
            if rng.random() < 0.5:
                comps.append(disk(center, draw(0.5, 1.5)))
            else:
                comps.append(slit(center, complex(draw(0.5, 2), draw(-1, 1))))
        pairs = [(i, j) for i in range(len(comps)) for j in range(i + 1, len(comps))]
        expected = next((p for p in pairs if components_overlap(*(comps[k] for k in p))), None)
        assert first_overlap(comps) == expected


def test_boundary_points_are_in_the_hole():
    # Each component's hole is closed: its boundary belongs to it.
    cases = [
        (disk(2 + 1j, 0.5), [2.5 + 1j, 2 + 1.5j, 2 + 1j, 2.2 + 1j], [2.5000001 + 1j, 0j]),
        (disk(0, 2.0, role="outer"), [2.0, -2j, 3.0, 5 + 5j], [0j, 1.999999 + 0j]),
        (slit(1, 2j), [1 + 2j, 1 - 2j, 1 + 0j, 1 + 1.5j], [1.000001 + 0j, 1 + 2.000001j]),
    ]
    for comp, inside, outside in cases:
        z = np.array(inside + outside)
        want = np.arange(z.size) < len(inside)
        assert np.array_equal(in_hole(comp, z), want)
        assert np.array_equal(in_hole(comp, z.reshape(2, -1)), want.reshape(2, -1))
        assert [in_hole(comp, p) for p in z.tolist()] == want.tolist()
        assert all(type(in_hole(comp, p)) is bool for p in z.tolist())
        assert np.array_equal(first_hole([comp], z), np.where(want, 0, -1))
        assert [first_hole([comp], p) for p in z.tolist()] == np.where(want, 0, -1).tolist()


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_first_hole_matches_plain_loop(scale):
    # The bounding-box screen (taken above four components) must not change
    # any answer, also for points within rounding of a boundary, far from
    # the origin.
    rng = np.random.default_rng(11)
    for _ in range(100):
        comps = [disk(0, 6.0 * scale, role="outer")] if rng.random() < 0.3 else []
        for _ in range(rng.integers(1, 12)):
            center = scale * complex(*rng.uniform(-4, 4, 2))
            ext = rng.uniform(0.05, 1.0)
            if rng.random() < 0.5:
                comps.append(disk(center, ext))
            else:
                comps.append(slit(center, ext * complex(*rng.uniform(-1, 1, 2))))
        nodes = [boundary_nodes(c, 16)[0] for c in comps]
        owner = np.repeat(np.arange(len(comps)), 16)
        z = np.concatenate(nodes + [scale * (rng.uniform(-6, 6, 50) + 1j * rng.uniform(-6, 6, 50))])
        for c in comps:
            if c.kind == SLIT:
                z = np.concatenate([z, c.endpoints, [c.center]])
        z = np.concatenate([z, np.nextafter(z.real, np.inf) + 1j * z.imag,
                            z.real + 1j * np.nextafter(z.imag, -np.inf)])
        holes = np.array([in_hole(c, z) for c in comps])
        want = np.where(holes.any(axis=0), holes.argmax(axis=0), -1)
        assert np.array_equal(first_hole(comps, z), want)
        skip = np.full(z.size, -1)
        skip[: owner.size] = owner
        holes[skip[None, :] == np.arange(len(comps))[:, None]] = False
        want = np.where(holes.any(axis=0), holes.argmax(axis=0), -1)
        assert np.array_equal(first_hole(comps, z, skip=skip), want)


@settings(max_examples=300, deadline=None)
@given(
    cr=finite,
    ci=finite,
    ext=st.floats(min_value=1e-6, max_value=4.0),
    tilt=st.floats(min_value=-3.2, max_value=3.2),
    t=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(min_value=-1.1, max_value=1.1)),
    off=st.one_of(st.just(0.0), st.floats(min_value=-1e-3, max_value=1e-3)),
)
def test_in_hole_exactly_where_inverse_map_raises(cr, ci, ext, tilt, t, off):
    comp = slit(complex(cr, ci), ext * complex(math.cos(tilt), math.sin(tilt)))
    z = comp.center + comp.halfspan * complex(t, off)
    try:
        joukowski_inverse(comp.center, comp.halfspan, z)
        raised = False
    except DomainError:
        raised = True
    assert in_hole(comp, z) == raised


def _ulp_neighbours(points):
    """The points, each moved one ulp either way in x and in y, and each
    with its imaginary part replaced by +0.0 and by -0.0."""
    z = np.asarray(points, dtype=complex)
    x, y = z.real, z.imag
    out = [z]
    for d in (np.inf, -np.inf):
        out += [np.nextafter(x, d) + 1j * y, x + 1j * np.nextafter(y, d)]
    on_axis = x.astype(complex)  # imaginary part +0.0
    below = on_axis.copy()
    below.imag = -0.0
    return np.concatenate(out + [on_axis, below])


@st.composite
def _membership_geometries(draw):
    """Disks, slits (some along the real axis) and an outer circle at one
    scale from 1e-3 to 1e3, with the points each membership test is most
    likely to split: samples on every circle and slit, c +- h, and their
    one-ulp and signed-zero neighbours."""
    scale = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    coord = st.floats(min_value=-4.0, max_value=4.0)
    size = st.floats(min_value=0.05, max_value=1.5)
    comps, pts = [], []
    if draw(st.booleans()):
        comps.append(disk(complex(scale * draw(coord), scale * draw(coord)), scale * 9.0,
                          role="outer"))
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        y = draw(st.sampled_from([0.0, -0.0])) if draw(st.booleans()) else draw(coord)
        c = complex(scale * draw(coord), scale * y)
        kind = draw(st.sampled_from(["disk", "slit", "real slit"]))
        if kind == "disk":
            comps.append(disk(c, scale * draw(size)))
        else:
            tilt = 0.0 if kind == "real slit" else draw(st.floats(min_value=-3.2, max_value=3.2))
            h = scale * draw(size) * complex(math.cos(tilt), math.sin(tilt))
            comps.append(slit(c, h))
    thetas = st.floats(min_value=0.0, max_value=2 * math.pi)
    ts = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(min_value=-1.0, max_value=1.0))
    for comp in comps:
        if comp.kind == "disk":
            r = comp.radius
            pts += [comp.center + r * complex(math.cos(a), math.sin(a))
                    for a in draw(st.lists(thetas, min_size=1, max_size=4))]
            pts += [comp.center + r, comp.center - r, comp.center + 1j * r, comp.center - 1j * r]
        else:
            pts += [comp.center + comp.halfspan * t
                    for t in draw(st.lists(ts, min_size=1, max_size=4))]
            pts += list(comp.endpoints)
        pts.append(comp.center)
    return comps, _ulp_neighbours(pts)


@settings(max_examples=150, deadline=None)
@given(case=_membership_geometries(), seed=st.integers(0, 2**32 - 1))
def test_one_point_membership_matches_the_array_answer(case, seed):
    # A point tested alone, as a Python complex or as np.complex128, gets
    # the answer it gets inside an array of other points, from in_hole and
    # from first_hole (which sorts and bands the array above four
    # components), whatever the rounding that put the point within an ulp
    # of a boundary.
    comps, z = case
    z = z[np.random.default_rng(seed).permutation(z.size)]
    for comp in comps:
        want = in_hole(comp, z).tolist()
        assert [in_hole(comp, p) for p in z.tolist()] == want
        assert [in_hole(comp, np.complex128(p)) for p in z.tolist()] == want
    want = first_hole(comps, z).tolist()
    assert [first_hole(comps, p) for p in z.tolist()] == want
    assert [first_hole(comps, np.complex128(p)) for p in z.tolist()] == want
    assert all(type(first_hole(comps, p)) is int for p in z[:4].tolist())


@st.composite
def _overlap_configurations(draw):
    """Two to four inner components, random or touching: tangent disks, a
    slit ending on a circle, a disk through a slit's endpoint, slits sharing
    an endpoint or end to end, each within rounding of touching, one centre
    maybe moved one ulp."""
    scale = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    coord = st.floats(min_value=-4.0, max_value=4.0)
    size = st.floats(min_value=0.05, max_value=1.5)
    angle = st.floats(min_value=-3.2, max_value=3.2)

    def unit():
        if draw(st.booleans()):  # along an axis, where the boxes just touch
            return draw(st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j]))
        a = draw(angle)
        return complex(math.cos(a), math.sin(a))

    comps, count = [], draw(st.integers(min_value=2, max_value=4))
    while len(comps) < count:
        how = draw(st.sampled_from(["disk", "slit", "touch"])) if comps else "disk"
        if how != "touch":
            c = complex(scale * draw(coord), scale * draw(coord))
            comps.append(disk(c, scale * draw(size)) if how == "disk"
                         else slit(c, scale * draw(size) * unit()))
            continue
        base = comps[draw(st.integers(min_value=0, max_value=len(comps) - 1))]
        u = unit()
        point = (base.center + base.radius * u if base.kind == "disk"
                 else base.endpoints[draw(st.integers(min_value=0, max_value=1))])
        if draw(st.booleans()):
            r = scale * draw(size)
            comps.append(disk(point + r * u if base.kind == "slit"
                              else base.center + (base.radius + r) * u, r))
        else:
            h = scale * draw(size) * (base.halfspan / abs(base.halfspan)
                                      if base.kind == "slit" and draw(st.booleans()) else unit())
            comps.append(slit(point + h, h))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=len(comps) - 1))
        c = comps[k]
        moved = complex(np.nextafter(c.center.real, draw(st.sampled_from([np.inf, -np.inf]))),
                        c.center.imag)
        comps[k] = BoundaryComponent(c.kind, moved, c.extent, c.role)
    return comps


@settings(max_examples=300, deadline=None)
@given(comps=_overlap_configurations())
# Tangent along x: components_overlap finds them touching, while the right
# edge of the first box falls one ulp short of the left edge of the second.
@example(comps=[disk(1.2127437817821036 + 0.3j, 1.1936488591464942),
                disk(2.5924890417512385 + 0.3j, 0.18609640082264062)])
def test_direct_overlap_pairs_match_the_boxed_path(comps):
    # Up to four components are tested pair by pair; far disks appended
    # after them send the same pairs through the bounding-box path, which
    # must find the same first pair.
    scale = max(abs(c.center) + abs(c.extent) for c in comps)
    far = [disk(complex(1e4 * scale * (k + 2), 0.0), scale) for k in range(5 - len(comps))]
    assert first_overlap(comps) == first_overlap(comps + far)
