"""Boundary components (disks and slits), the slit map pair, boundary sampling,
and domain membership.

A slit with center c and halfspan r is the segment c + r*[-1, 1] in the complex
plane.  The exterior of the unit circle in the w-plane maps onto the exterior of
the slit through z = c + r*(w + 1/w)/2; the inverse branch is the one with
|w| > 1 off the slit.

The domain is open.  Each component's hole is the closed set it removes from
the plane: an inner disk's closed disk, a slit's closed segment, or the outer
disk's circle and everything outside it.  in_hole and first_hole decide
membership, exactly and without a tolerance; every other module asks them.
A single point, such as a problem's source, is tested in numpy scalars,
whose arithmetic is the array loops' own, so it gets the verdict it would
get inside an array, bit for bit (see in_hole).  near_slit adds the one
tolerance, a few units of rounding scaled to the slit, by which a problem
rejects a source that rounding put beside a slit.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

DISK = "disk"
SLIT = "slit"
INNER = "inner"
OUTER = "outer"


class DomainError(ValueError):
    """Evaluation requested at a point where the field is not defined."""


class GeometryError(ValueError):
    """Boundary components overlap or otherwise break the problem geometry."""


def _finite(x: complex) -> bool:
    return math.isfinite(x.real) and math.isfinite(x.imag)


@dataclass(frozen=True)
class BoundaryComponent:
    """One boundary piece: a circle (kind="disk") or a segment (kind="slit").

    ``extent`` is the disk radius (stored as a positive real) or the slit
    halfspan (a nonzero complex number).  Only disks may take the "outer" role,
    which marks the enclosing circle of a bounded problem.
    """

    kind: str
    center: complex
    extent: complex
    role: str = INNER

    def __post_init__(self):
        if self.kind not in (DISK, SLIT):
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.role not in (INNER, OUTER):
            raise ValueError(f"unknown component role {self.role!r}")
        if not (_finite(complex(self.center)) and _finite(complex(self.extent))):
            raise ValueError("component center/extent must be finite")
        if self.kind == DISK:
            if self.extent.imag != 0.0 or self.extent.real <= 0.0:
                raise ValueError("disk radius must be a positive real number")
        else:
            if self.extent == 0:
                raise ValueError("slit halfspan must be nonzero")
            if self.role == OUTER:
                raise ValueError("only a disk can take the outer role")

    @property
    def radius(self) -> float:
        assert self.kind == DISK
        return self.extent.real

    @property
    def halfspan(self) -> complex:
        assert self.kind == SLIT
        return self.extent

    @property
    def endpoints(self) -> tuple[complex, complex]:
        assert self.kind == SLIT
        return (self.center - self.extent, self.center + self.extent)


def disk(center: complex, radius: float, role: str = INNER) -> BoundaryComponent:
    return BoundaryComponent(DISK, complex(center), complex(radius), role)


def slit(center: complex, halfspan: complex) -> BoundaryComponent:
    return BoundaryComponent(SLIT, complex(center), complex(halfspan), INNER)


def joukowski_forward(center: complex, halfspan: complex, w):
    """Map w from the exterior of the unit circle to the exterior of the slit.

    A scalar w gives a Python complex, an array an array.
    """
    scalar = np.isscalar(w) or (isinstance(w, np.ndarray) and w.ndim == 0)
    wa = np.asarray(w, dtype=complex)
    if np.count_nonzero(wa) < wa.size:
        raise DomainError("joukowski_forward is undefined at w = 0")
    z = center + halfspan * (wa + 1.0 / wa) / 2.0
    return complex(z) if scalar else z


def _on_unit_slit(zc):
    """True where zc = (z - center)/halfspan, an array or a numpy scalar,
    lies on the closed slit [-1, 1]: where z is on the slit."""
    return (zc.imag == 0.0) & (abs(zc.real) <= 1.0)


# A point computed as center + halfspan*t, for real t in [-1, 1], lands
# within about one unit of rounding of |center| + |halfspan| of the slit
# (0.93 units at most in zc = (z - center)/halfspan, scaled by |halfspan|,
# over 10^6 such points on random slits); near_slit allows this many.
_NEAR_SLIT_ULPS = 8.0


def near_slit(component: BoundaryComponent, z: complex) -> bool:
    """True when the point z lies on the slit or within rounding of it.

    In zc = (z - center)/halfspan, as in_hole takes it, that is |Im zc| <= tol
    and |Re zc| <= 1 + tol, with tol _NEAR_SLIT_ULPS units of rounding of
    |center| + |halfspan|, divided by |halfspan|: the tolerance scales with
    the slit, not with the plane.  Such a point may lie outside the slit's
    hole by rounding alone.
    """
    zc = (complex(z) - component.center) / component.halfspan
    h = abs(component.halfspan)
    tol = _NEAR_SLIT_ULPS * sys.float_info.epsilon * (abs(component.center) + h) / h
    return abs(zc.imag) <= tol and abs(zc.real) <= 1.0 + tol


def joukowski_inverse(center: complex, halfspan: complex, z):
    """Invert the slit map, returning the preimage with |w| > 1.

    With zc = (z - center)/halfspan, w = zc + sqrt(zc - 1) sqrt(zc + 1) from
    principal square roots.  The product is the branch of sqrt(zc^2 - 1)
    that tends to zc far away and is cut only along [-1, 1]: for real
    zc < -1 both factors lie on their own cuts, so their jumps cancel.  So
    |w| > 1 everywhere off the slit.  zc^2 is never formed, so nothing
    overflows unless w ~ 2 zc itself does (|zc| above about 9e307), and
    nothing cancels near the endpoints.  zc + 1 is computed as zc - (-1.0):
    numpy adds 1 as 1 + 0j, which would turn a -0.0 imaginary part into +0.0
    and put the two factors on opposite sides of their cuts.  Raises
    DomainError for z on the closed slit, where the preimage is two-valued.
    """
    scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0)
    w = unit_slit_inverse((np.asarray(z, dtype=complex) - center) / halfspan)
    return complex(w) if scalar else w


def unit_slit_inverse(zc: np.ndarray) -> np.ndarray:
    """joukowski_inverse of the slit [-1, 1] on an array zc = (z - center)/halfspan.

    Raises DomainError where zc lies on the slit, that is where Im zc is
    +0.0 or -0.0 and |Re zc| <= 1.  The full test runs only when some
    imaginary part is exactly zero, which one count of the nonzero ones
    tells; off the real axis no point can be on the slit.
    """
    if np.count_nonzero(zc.imag) < zc.size and np.count_nonzero(_on_unit_slit(zc)):
        raise DomainError("inverse slit map is two-valued on the slit itself")
    return zc + np.sqrt(zc - 1.0) * np.sqrt(zc - -1.0)


def boundary_nodes(component: BoundaryComponent, npts: int, offset: float = None):
    """Place npts collocation points on a component; returns (points, preimages).

    The preimages sit at angles 2*pi*(k + offset)/npts on the unit circle.  The
    default offset is 0 for disks and half a step for slits, which keeps slit
    preimages away from w = +-1 (the endpoints) and lets the upper and lower
    halves of the circle cover the two sides of the slit, told apart by their
    conjugate preimages.  Each slit point is the forward image of its preimage.
    The preimages are the unit grid itself, shared by every component sampled
    with the same npts and offset (see _unit_grid), so they are read-only.
    Grids of more than _CACHED_GRID_POINTS points are made afresh and not
    kept.
    """
    if npts <= 0:
        raise ValueError(f"npts must be >= 1, got {npts}")
    if offset is None:
        offset = 0.5 if component.kind == SLIT else 0.0
    grid = _cached_unit_grid if npts <= _CACHED_GRID_POINTS else _unit_grid
    w = grid(int(npts), float(offset))
    if component.kind == DISK:
        z = component.center + component.radius * w
    else:
        z = joukowski_forward(component.center, component.halfspan, w)
    return z, w


# Grids of at most this many points are cached, which covers every grid the
# benchmark's workloads draw (the largest has 640 points).  Larger ones are
# built on each call, so a fine check grid is not kept.
_CACHED_GRID_POINTS = 1 << 14


def _unit_grid(npts: int, offset: float) -> np.ndarray:
    """The read-only unit-circle points exp(2*pi*i*(k + offset)/npts), k < npts.

    Solves draw their fit and check grids from a few dozen (npts, offset)
    pairs (default_npts gives one count per degree), so boundary_nodes
    computes each grid of at most _CACHED_GRID_POINTS points once and keeps
    it (_cached_unit_grid), as FFT libraries store their twiddle factors.  A
    degree takes at most four grids (fit and check, disk and slit), so 128
    hold those of 32 degrees.
    """
    theta = 2.0 * np.pi * (np.arange(npts) + offset) / npts
    w = np.exp(1j * theta)
    w.flags.writeable = False
    return w


_cached_unit_grid = functools.lru_cache(maxsize=128)(_unit_grid)


def segment_distance(a: complex, b: complex, z) -> float:
    """Euclidean distance from z to the segment [a, b]."""
    ab = b - a
    za = np.asarray(z, dtype=complex)
    t = np.minimum(np.maximum((np.conj(ab) * (za - a)).real / abs(ab) ** 2, 0.0), 1.0)
    d = np.abs(a + t * ab - za)
    return float(d) if np.isscalar(z) else d


def segments_cross(a1, a2, b1, b2):
    """True where the closed segments [a1,a2] and [b1,b2] intersect.

    Endpoints may be numpy arrays, so a batch of steps can be tested against
    one slit at once.  Apart from the np.any that decides whether any
    orientation is exactly 0, so that the collinear tests are needed at all,
    only operators that numbers and arrays share are used.  That keeps the
    scalar case in plain Python arithmetic (it runs once per pair of
    components when a problem is validated).
    """

    def orient(p, q, r):
        v = (q - p) * (r - p).conjugate()
        return -v.imag  # cross product (q-p) x (r-p)

    d1 = orient(b1, b2, a1)
    d2 = orient(b1, b2, a2)
    d3 = orient(a1, a2, b1)
    d4 = orient(a1, a2, b2)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    if not np.any((d1 == 0.0) | (d2 == 0.0) | (d3 == 0.0) | (d4 == 0.0)):
        return proper

    def between(p, q, r):
        # min(p, q) <= r <= max(p, q): p and q are neither both above nor both below r.
        return ((p <= r) | (q <= r)) & ((p >= r) | (q >= r))

    def on_seg(d, p, q, r):
        # r lies on [p, q]: collinear (d = orient(p, q, r) is 0) and inside the box.
        return (d == 0.0) & between(p.real, q.real, r.real) & between(p.imag, q.imag, r.imag)

    return (
        proper
        | on_seg(d1, b1, b2, a1) | on_seg(d2, b1, b2, a2)
        | on_seg(d3, a1, a2, b1) | on_seg(d4, a1, a2, b2)
    )


def boundary_distance(component: BoundaryComponent, z) -> float:
    """Distance from z to the boundary curve of a component."""
    if component.kind == DISK:
        d = np.abs(np.abs(np.asarray(z, dtype=complex) - component.center) - component.radius)
        return float(d) if np.isscalar(z) else d
    a, b = component.endpoints
    return segment_distance(a, b, z)


def in_hole(component: BoundaryComponent, z):
    """True where z is in the component's hole, so not in the domain.

    A slit's hole is decided by _on_unit_slit, the test unit_slit_inverse
    raises on.  A scalar z gives a bool, an array a boolean array.  A scalar
    is tested as np.complex128, at a fraction of a 0-d array's cost: numpy
    scalars divide and take np.abs as the array loops do, so a point within
    an ulp of a boundary gets the verdict it gets inside an array.  Python's
    complex division and abs() differ from the array loops' in the last bit:
    in 43% and 33% of 200,000 random pairs (numpy 2.4, an AVX-512 CPU),
    where the numpy scalars differed in none.
    """
    za = np.complex128(z) if isinstance(z, (complex, float, int)) else np.asarray(z, dtype=complex)
    if component.kind == SLIT:
        hole = _on_unit_slit((za - component.center) / component.halfspan)
    elif component.role == OUTER:
        hole = np.abs(za - component.center) >= component.radius
    else:
        hole = np.abs(za - component.center) <= component.radius
    return bool(hole) if za.ndim == 0 else hole


def first_hole(components, z, skip=None):
    """Index of the first component whose hole holds each z, else -1.

    ``skip`` names per point a component to leave out: boundary samples skip
    their own, which rounding can put inside it.  A scalar z gives an int,
    from in_hole's scalar test of each component in turn.  Above four
    components the points are sorted by x, and each in_hole test sees only
    the band whose x is in the hole's box, widened far beyond rounding; with
    fewer, the sort costs more than it saves, and every test sees every point.
    """
    if isinstance(z, (complex, float, int)):
        z = np.complex128(z)
        for j, comp in enumerate(components):
            if j != skip and in_hole(comp, z):
                return j
        return -1
    za = np.asarray(z, dtype=complex)
    flat, skip = za.ravel(), skip if skip is None else np.ravel(skip)
    bands, order = [slice(None)] * len(components), None
    if len(components) > 4:
        lo, hi = bounding_boxes(components)
        pad = 64 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi)).max(axis=1)
        pad[[c.role == OUTER for c in components]] = np.inf  # the outer hole is unbounded
        order = np.argsort(flat.real)
        flat, skip = flat[order], skip if skip is None else skip[order]
        start = np.searchsorted(flat.real, lo[:, 0] - pad)
        stop = np.searchsorted(flat.real, hi[:, 0] + pad, "right")
        bands = [slice(*ends) for ends in zip(start.tolist(), stop.tolist())]
    first = np.full(flat.shape, -1)
    # Later components go first, so each point keeps the first hole's index.
    for j in reversed(range(len(components))):
        band = bands[j]
        hit = in_hole(components[j], flat[band])
        if skip is not None:
            hit &= skip[band] != j
        first[hit if order is None else order[band][hit]] = j
    return int(first[0]) if za.ndim == 0 else first.reshape(za.shape)


def _box(c: BoundaryComponent) -> tuple[float, float, float, float]:
    """(x_lo, y_lo, x_hi, y_hi) of one component's bounding box, from its two
    corners (a disk) or its two endpoints (a slit)."""
    reach = complex(c.radius, c.radius) if c.kind == DISK else c.extent
    p, q = c.center - reach, c.center + reach
    return min(p.real, q.real), min(p.imag, q.imag), max(p.real, q.real), max(p.imag, q.imag)


def bounding_boxes(components):
    """(lo, hi): rows of the (x, y) corners of each component's bounding box."""
    boxes = np.array([_box(c) for c in components], dtype=float).reshape(-1, 4)
    return boxes[:, :2], boxes[:, 2:]


def components_overlap(a: BoundaryComponent, b: BoundaryComponent) -> bool:
    """True when two inner components touch or intersect."""
    if a.kind == DISK and b.kind == DISK:
        return abs(a.center - b.center) <= a.radius + b.radius
    if a.kind == DISK:
        a, b = b, a
    if b.kind == DISK:  # a slit, b disk
        p, q = a.endpoints
        return segment_distance(p, q, b.center) <= b.radius
    return segments_cross(*a.endpoints, *b.endpoints)


def first_overlap(components) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of inner components that touch or intersect.

    Only pairs whose bounding boxes meet go through components_overlap,
    which decides; so a pair it would call touching within rounding, whose
    boxes miss by an ulp, is not reported.  Above four components each box
    is tested against the boxes of all later components at once, in numpy.
    With fewer, numpy's per-call cost outweighs the pairs it saves, and the
    pairs are tested one by one, on the same boxes (_box), so both ways
    find the same pair.
    """
    if len(components) <= 4:
        boxes = [_box(c) for c in components]
        for i, j in itertools.combinations(range(len(components)), 2):
            (xl, yl, xh, yh), (bxl, byl, bxh, byh) = boxes[i], boxes[j]
            if (bxl <= xh and xl <= bxh and byl <= yh and yl <= byh
                    and components_overlap(components[i], components[j])):
                return i, j
        return None
    lo, hi = bounding_boxes(components)
    for i in range(len(components) - 1):
        meet = ((lo[i + 1 :] <= hi[i]) & (lo[i] <= hi[i + 1 :])).all(axis=1)
        for j in i + 1 + np.flatnonzero(meet):
            if components_overlap(components[i], components[j]):
                return i, int(j)
    return None


def inside_disk(outer: BoundaryComponent, comp: BoundaryComponent) -> bool:
    """True when comp lies strictly inside the disk ``outer``."""
    if comp.kind == DISK:
        return abs(comp.center - outer.center) + comp.radius < outer.radius
    p, q = comp.endpoints
    return max(abs(p - outer.center), abs(q - outer.center)) < outer.radius
