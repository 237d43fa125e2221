"""Series terms for exterior and bounded expansions, and their gradients.

An expansion approximates a harmonic function as

    u(z) = s*log|z - z_s| + C
         + sum_j [ d_j*L_j(z) + sum_k ( a_jk*Re T_j(z)^-k + b_jk*Im T_j(z)^-k ) ]
         + sum_k ( A_k*Re T_0(z)^k + B_k*Im T_0(z)^k )          (bounded only)

where for a disk component L_j = log|z - c_j| and T_j = (z - c_j)/r_j when the
basis is scaled (plain z - c_j otherwise), and for a slit component L_j =
log(|w_j(z)|*|r_j|/2) and T_j = w_j(z) with w_j the inverse slit map and r_j
the halfspan.  Far away w_j(z) ~ 2(z - c_j)/r_j, so every L_j behaves like
log|z - c_j| there and C is the limit of u at infinity whenever the log
coefficients cancel the source.  The outer block
T_0 = (z - c_0)/r_0 uses positive powers.  Each component's block runs to its
own degree (k = 1..N_j for an inner component, k = 1..N_0 for the outer
circle).  The source term has a fixed unit coefficient and never enters the
fitted columns.

Gradients use the identity grad Re f = conj(f') applied to the analytic
completion of each term.  ``design_matrix`` is the one assembly path; one
evaluator gives u, f' or both without it.  Both read each block's variable
T_j from one block map (``_block_maps``, ``_block_variable``), which maps
each slit once per call, and take the powers t, t^2, ... from ``_powers``:
assembly splits them into the Re/Im column pairs, and the evaluator builds one
table per degree over its blocks' points and sums each block's series from it
by a matrix-vector product, with the coefficients an expansion forms once, on
its first evaluation (``Expansion._plan``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import (
    DISK,
    INNER,
    OUTER,
    SLIT,
    BoundaryComponent,
    DomainError,
    unit_slit_inverse,
)


@dataclass(frozen=True)
class ExpansionSpec:
    """Degrees and scaling choices for one expansion.

    ``degrees[j]`` is the degree of component j's block: the highest negative
    power for an inner component, the highest positive power for the outer
    circle.  ``scaled`` switches disk power columns from (z-c)^-k to
    ((z-c)/r)^-k, which keeps matrix columns near unit size.
    """

    degrees: tuple[int, ...]
    scaled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(n) for n in self.degrees))
        if any(n < 0 for n in self.degrees):
            raise ValueError("degrees must be >= 0")


def validate_spec(components: tuple[BoundaryComponent, ...], spec: ExpansionSpec) -> None:
    if len(spec.degrees) != len(components):
        raise ValueError(
            f"spec lists {len(spec.degrees)} degrees for {len(components)} components"
        )


def inner_indices(components) -> list[int]:
    return [j for j, c in enumerate(components) if c.role == INNER]


def outer_index(components) -> int | None:
    for j, c in enumerate(components):
        if c.role == OUTER:
            return j
    return None


def column_layout(components, spec: ExpansionSpec) -> tuple[slice, ...]:
    """Where each block's (a_k, b_k) pairs sit in the columns, k = 1, 2, ...

    Column 0 is C and column 1 + slot is d of the slot-th inner component;
    the pairs of the inner blocks follow in that order and the outer block's
    (A_k, B_k) pairs come last (an empty slice without one), so the last
    slice ends at the column count.
    """
    return _layout(tuple(components), spec)[0]


def _powers(t: np.ndarray, n: int) -> np.ndarray:
    """t, t^2, ..., t^n as a Fortran-ordered (points, n) table, built power by
    power so each product runs over every point at once, however small n is.

    design_matrix fills its column pairs from one table per block; _evaluate
    builds one table per degree over the stacked points of its blocks and
    reads each block's rows as a (points, degree) matrix.
    """
    p = np.empty((n, t.shape[0]), dtype=complex)
    if n:
        p[0] = prev = t
    # Each row is the one before times t, walked without indexing p again.
    for row in p[1:]:
        prev = np.multiply(prev, t, out=row)
    return p.T


class _BlockMap(NamedTuple):
    """How one series block's variable zeta, T_j of the module formula (T_0
    for the outer circle), follows from z; an inner block's log column L_j is
    log|zeta| + offset."""

    j: int  # index of the block's component
    kind: str  # DISK, SLIT or OUTER
    center: complex
    scale: complex | None  # r, halfspan or r_0; None for an unscaled disk
    offset: float  # 0.0 for OUTER


# Each solve asks in its assembly, certificate, expansion and plan.  Equal
# geometries share an entry: a -0.0 part of a centre maps as +0.0 does.
@lru_cache(maxsize=64)
def _layout(components: tuple, spec: ExpansionSpec):
    """(column_layout, _block_maps) of one geometry and spec, formed once.
    Both are tuples of immutable entries, so every caller can share them."""
    inner = inner_indices(components)
    oj = outer_index(components)
    col = 1 + len(inner)
    blocks = []
    for n in [spec.degrees[j] for j in inner] + [0 if oj is None else spec.degrees[oj]]:
        blocks.append(slice(col, col + 2 * n))
        col += 2 * n
    maps = []
    for j in inner:
        comp = components[j]
        if comp.kind == DISK:
            scale, offset = (comp.radius, math.log(comp.radius)) if spec.scaled else (None, 0.0)
        else:
            scale, offset = comp.halfspan, math.log(abs(comp.halfspan) / 2.0)
        maps.append(_BlockMap(j, comp.kind, comp.center, scale, offset))
    if oj is not None and spec.degrees[oj]:
        out = components[oj]
        maps.append(_BlockMap(oj, OUTER, out.center, out.radius, 0.0))
    return tuple(blocks), tuple(maps)


def _block_maps(components, spec: ExpansionSpec) -> tuple[_BlockMap, ...]:
    """The maps of the blocks that have columns, in column order: each inner
    component's, then the outer circle's when its degree is positive."""
    return _layout(tuple(components), spec)[1]


def _block_variable(bmap: _BlockMap, dz, preimages=None, owner=None):
    """zeta of one block at the points z = center + dz: the one place a block
    is mapped.  The caller forms dz = z - center, which the evaluator's disk
    derivative 1/(z - c) reads as well.

    On rows whose ``owner`` is the block's slit itself, ``preimages`` (one per
    row) replaces the map.  Those rows are found by index and set off the
    real axis, so off the slit, before the map runs once over every row, so
    no mask of the other rows is formed and dz, ``preimages`` and ``owner``
    are only read.  Raises DomainError at a disk's centre and, through the
    map, on a slit.
    """
    if bmap.kind == SLIT:
        if owner is None:
            return unit_slit_inverse(dz / bmap.scale)
        own = np.flatnonzero(owner == bmap.j)
        if own.size == dz.size:
            return preimages
        zc = dz / bmap.scale
        # Off the real axis, so the map's on-slit test is not run for these
        # rows; the stored preimages replace them.
        zc[own] = 2j
        w = unit_slit_inverse(zc)
        w[own] = preimages[own]
        return w
    zeta = dz if bmap.scale is None else dz / bmap.scale
    if bmap.kind == DISK and np.count_nonzero(zeta) < dz.size:
        raise DomainError("expansion is singular at a component center")
    return zeta


def design_matrix(z, components, spec: ExpansionSpec, preimages=None, owner=None):
    """Rows of basis values at the points z (one row per point).

    ``owner``/``preimages`` give, per row, the index of the component the
    point was sampled on and its sampling preimage.  On a slit's own rows the
    inverse map is two-valued and the stored preimage decides the side; every
    other row of a slit block goes through the map, which raises DomainError
    for a point on that slit; a row at a disk's centre raises it too.  Rows of
    any mix of components can be stacked into one call.  The matrix is
    Fortran-ordered, filled column by column from _powers tables built the
    same way; a least-squares solve can factor it in place.
    """
    validate_spec(components, spec)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if (owner is None) != (preimages is None):
        raise ValueError("owner and preimages must be given together")
    if owner is not None:
        owner = np.asarray(owner)
        preimages = np.asarray(preimages, dtype=complex)
        if owner.shape != z.shape or preimages.shape != z.shape:
            raise ValueError("owner and preimages must give one entry per point")
    blocks, maps = _layout(tuple(components), spec)
    A = np.empty((z.shape[0], blocks[-1].stop), dtype=float, order="F")
    A[:, 0] = 1.0
    for slot, bmap in enumerate(maps):
        # t is the series variable: T_0 for the outer block, 1/zeta otherwise.
        t = _block_variable(bmap, z - bmap.center, preimages, owner)
        if bmap.kind != OUTER:
            A[:, 1 + slot] = np.log(np.abs(t)) + bmap.offset
            t = 1.0 / t
        cols = A[:, blocks[slot]]  # the pairs (Re t^k, Im t^k), k = 1, 2, ...
        p = _powers(t, cols.shape[1] // 2)
        cols[:, ::2] = p.real
        cols[:, 1::2] = p.imag
    return A


@dataclass(frozen=True, eq=False)
class Expansion:
    """A fitted expansion: its coefficient vector plus the geometry it refers to.

    ``vector``, the coefficients in design_matrix column order, is the only
    stored copy: a read-only, finite copy of what the constructor is given.
    ``constant`` is C in the module formula, ``log_coeffs`` the d_j and
    ``blocks[slot]`` the a_k + i b_k of the slot-th inner block (the outer
    block last), all read from ``vector`` as views.  A ``source`` adds the
    unit term log|z - source|.  Disk and slit log columns both behave like
    log|z - c_j| far away, so for an exterior problem whose log coefficients
    sum to minus the source strength, C is the value u tends to at infinity.
    """

    components: tuple[BoundaryComponent, ...]
    spec: ExpansionSpec
    vector: np.ndarray
    source: complex | None = None
    log_coeffs: np.ndarray = field(init=False, repr=False)
    blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        validate_spec(self.components, self.spec)
        layout = column_layout(self.components, self.spec)
        vec = np.array(self.vector, dtype=float)
        if vec.shape != (layout[-1].stop,):
            raise ValueError(f"coefficients do not fill the {layout[-1].stop} columns of the layout")
        if not (np.isfinite(vec).all() and (self.source is None or np.isfinite(self.source))):
            raise ValueError("expansion coefficients and source must be finite")
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "log_coeffs", vec[1 : layout[0].start])
        object.__setattr__(self, "blocks", tuple(vec[blk].view(complex) for blk in layout))

    @property
    def constant(self) -> float:
        return float(self.vector[0])

    @property
    def source_strength(self) -> float:
        return 1.0 if self.source is not None else 0.0

    # Equal when the geometry, the source and every coefficient are.
    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Expansion) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        coeffs = tuple(self.vector.tolist())
        return self.components, self.spec, self.source, coeffs

    # A pickle rebuilds the expansion from its fields, so the copy's views
    # and read-only vector are made as the constructor makes them.
    def __reduce__(self):
        return Expansion, (self.components, self.spec, self.vector, self.source)

    # The evaluation plan, derived from the fields on the first evaluation;
    # equality, hashing and pickles leave it out.
    @cached_property
    def _plan(self):
        return _evaluation_plan(self)


# Longer inputs are evaluated in near-equal chunks of at most this many
# points.  That caps points, not blocks: one chunk's power tables hold
# blocks x points x degree complex entries, under 1 MB for two blocks of
# degree 12 but 16.8 MB for a level-8 Cantor expansion (256 blocks of
# degree 2).
_CHUNK_POINTS = 2048


class _Block(NamedTuple):
    """One series block of an evaluation plan, in column order."""

    map: _BlockMap
    d: float  # log coefficient d_j; 0.0 for OUTER
    c: np.ndarray  # c_k = a_k - i b_k, k = 1..degree
    kc: np.ndarray  # k c_k
    table: int  # index of the power table of this block's degree
    row: int  # this block's row in that table


def _evaluation_plan(exp: Expansion):
    """(blocks, tables): what _evaluate needs of an expansion, formed once.

    ``blocks`` pairs each of _block_maps' maps with its coefficients.  Blocks
    of one degree share a power table; ``tables[i]`` is (degree, rows) of
    table i, so no block's powers run past its own degree.
    """
    maps = _block_maps(exp.components, exp.spec)
    degrees = list(dict.fromkeys(b.size for b in exp.blocks[: len(maps)]))
    rows = [0] * len(degrees)
    blocks = []
    # zip stops at the last map: an outer block takes d = 0.0, an empty one is left out.
    for bmap, d, b in zip(maps, [*exp.log_coeffs.tolist(), 0.0], exp.blocks):
        table, c = degrees.index(b.size), b.conj()
        blocks.append(_Block(bmap, d, c, np.arange(1, b.size + 1) * c, table, rows[table]))
        rows[table] += 1
    return tuple(blocks), tuple(zip(degrees, rows))


def _evaluate(exp: Expansion, z, want_u=True, want_fp=False):
    """(u, f') at z, each None unless asked for; a scalar z gives Python scalars.

    The analytic completion f has u = Re f and grad u = conj f'.  Inner
    block j adds d_j (log|zeta| + offset) + Re sum_k c_jk t^k to u and
    (d_j - sum_k k c_jk t^k) zeta'/zeta to f', with t = 1/zeta and c_jk =
    a_jk - i b_jk the conjugate of the expansion's block view; the outer
    block adds Re sum_k c_k t^k and sum_k k c_k t^(k-1) / r_0 with t = T_0.
    The expansion's plan (_evaluation_plan, built on its first evaluation)
    holds each block's map, c_k and k c_k.  One _powers table per degree
    holds t, ..., t^n for the points of every block of degree n, and each
    block's series is a matrix-vector product of its rows of the table with
    c_k for u and k c_k for f' (the outer block's k c_k against t^(k-1)).
    No basis matrix is built, each slit is mapped once per chunk of points,
    and the terms are added block by block in column order.  BLAS sums each
    point's series, and may add its terms in another order for another
    number of points, so a value can move in its last bits with the grouping
    of the points: by at most 1.6 eps relative to max(1, |v|), for u and f',
    on 24,581 points evaluated in one call and again in pieces of 1, 9,
    2,048, 2,049, 3,512 and 5,000 points (the figure geometry and three
    mixed-degree cases).
    """
    za = np.asarray(z, dtype=complex)
    flat = za.reshape(-1)
    chunks = -(-flat.size // _CHUNK_POINTS)
    if chunks <= 1:
        u, fp = _evaluate_flat(exp, flat, want_u, want_fp)
    else:
        parts = [_evaluate_flat(exp, part, want_u, want_fp)
                 for part in np.array_split(flat, chunks)]
        u = np.concatenate([p[0] for p in parts]) if want_u else None
        fp = np.concatenate([p[1] for p in parts]) if want_fp else None
    if za.ndim == 1:
        return u, fp
    if za.ndim == 0:
        return (None if u is None else float(u[0]), None if fp is None else complex(fp[0]))
    return (None if u is None else u.reshape(za.shape),
            None if fp is None else fp.reshape(za.shape))


def _evaluate_flat(exp: Expansion, z, want_u, want_fp):
    """_evaluate on a 1-D array of points: (u, f') as arrays or None."""
    blocks, tables = exp._plan
    if exp.source is not None:
        # count_nonzero is the cheapest test on a few dozen points; z - s is
        # 0 exactly where z == s.  The unit source term starts u and f'.
        zs = z - exp.source
        if np.count_nonzero(zs) < z.size:
            raise DomainError("the field is unbounded at the source point")
        u = np.log(np.abs(zs)) + exp.constant if want_u else None
        fp = 1.0 / zs if want_fp else None
    else:
        u = np.full(z.shape, exp.constant) if want_u else None
        fp = np.zeros(z.shape, dtype=complex) if want_fp else None
    # t[i][row] is the series variable of that block: 1/zeta, or T_0.
    t = [np.empty((rows, z.size), dtype=complex) for _, rows in tables]
    logs, dlogs = [], []
    for blk in blocks:
        bmap, ts = blk.map, t[blk.table][blk.row]
        dz = z - bmap.center
        zeta = _block_variable(bmap, dz)
        if bmap.kind == OUTER:
            ts[:] = zeta
            continue
        np.divide(1.0, zeta, out=ts)
        if want_u:
            logs.append(blk.d * (np.log(np.abs(zeta)) + bmap.offset))
        if want_fp:
            if bmap.kind == DISK:
                dlogs.append(1.0 / dz)
            else:
                denom = 1.0 - ts * ts
                if np.count_nonzero(np.abs(denom) < 1e-13):
                    raise DomainError("derivative is singular at a slit endpoint")
                dlogs.append(2.0 / (bmap.scale * denom * zeta))
    # One table of t, ..., t^n per degree n over its blocks' points, viewed
    # as (blocks, points, n) without a copy.
    p = [_powers(ti.reshape(-1), n).reshape(ti.shape + (n,)) for (n, _), ti in zip(tables, t)]
    # logs and dlogs hold the inner blocks, which come first.
    for i, blk in enumerate(blocks):
        pb = p[blk.table][blk.row]
        if blk.map.kind == OUTER:
            if want_u:
                u += (pb @ blk.c).real
            if want_fp:
                # d/dz t^k = k t^(k-1) / r_0: c_1 times t^0, then k c_k times t^(k-1)
                fp += (blk.kc[0] + pb[:, :-1] @ blk.kc[1:]) / blk.map.scale
            continue
        if want_u:
            u += logs[i] + (pb @ blk.c).real
        if want_fp:
            fp += (blk.d - pb @ blk.kc) * dlogs[i]
    return u, fp


def eval_expansion(exp: Expansion, z):
    """Evaluate u at z (scalar or array), off every slit, source and disk center."""
    return _evaluate(exp, z, want_u=True)[0]


def complex_derivative(exp: Expansion, z):
    """f'(z) for the analytic completion f of the expansion (so grad u = conj f').

    A scalar z gives a Python complex, an array an array.
    """
    return _evaluate(exp, z, want_u=False, want_fp=True)[1]


def eval_gradient(exp: Expansion, z):
    """grad u as a complex number (u_x + i u_y), via conj(f')."""
    fp = complex_derivative(exp, z)
    return np.conj(fp) if isinstance(fp, np.ndarray) else fp.conjugate()
