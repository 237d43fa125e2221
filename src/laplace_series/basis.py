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
evaluator gives u, f' or both without it, mapping each slit once per call.
Both take the powers t, t^2, ... from ``_powers``: assembly splits them into
the Re/Im column pairs, and the evaluator builds one table over every block's
points and sums each block's series from it by a matrix-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DISK,
    INNER,
    OUTER,
    BoundaryComponent,
    DomainError,
    joukowski_inverse,
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
    inner = inner_indices(components)
    oj = outer_index(components)
    col = 1 + len(inner)
    blocks = []
    for n in [spec.degrees[j] for j in inner] + [0 if oj is None else spec.degrees[oj]]:
        blocks.append(slice(col, col + 2 * n))
        col += 2 * n
    return tuple(blocks)


def column_count(components, spec: ExpansionSpec) -> int:
    return column_layout(components, spec)[-1].stop


def column_labels(components, spec: ExpansionSpec) -> list[str]:
    """Human-readable names for the columns, in matrix order."""
    inner = inner_indices(components)
    names = [("a", "b", f"{j},") for j in inner] + [("A", "B", "")]
    labels = ["C"] + [f"d[{j}]" for j in inner]
    for (a, b, j), blk in zip(names, column_layout(components, spec)):
        for k in range(1, (blk.stop - blk.start) // 2 + 1):
            labels += [f"{a}[{j}{k}]", f"{b}[{j}{k}]"]
    return labels


def _powers(t: np.ndarray, n: int) -> np.ndarray:
    """t, t^2, ..., t^n as a Fortran-ordered table built column by column, so
    each product runs over every row at once, however small n is.

    design_matrix fills its column pairs from one table per block; _evaluate
    builds one table over the stacked points of every block and reads each
    block's rows as a (points, degree) matrix.
    """
    p = np.empty((t.shape[0], n), dtype=complex, order="F")
    p[:, :1] = t[:, None]
    for k in range(1, n):
        np.multiply(p[:, k - 1], t, out=p[:, k])
    return p


def _local_coordinates(z, components, spec: ExpansionSpec, preimages=None, owner=None):
    """Yield (slot, j, zeta, log offset) for each inner component j.

    zeta is the block's local variable: (z - c)/r for a scaled disk, z - c for
    an unscaled one, and the inverse slit map w for a slit.  On rows whose
    ``owner`` is slit j itself, ``preimages`` (one per row) replaces the map;
    each slit's map runs once, over the rows it does not own.  The block's log
    column is log|zeta| + offset, which is log|z - c| for a disk and
    log(|w| |r|/2) for a slit, and its power columns are zeta^-k.
    """
    for slot, j in enumerate(inner_indices(components)):
        comp = components[j]
        if comp.kind == DISK:
            if spec.scaled:
                yield slot, j, (z - comp.center) / comp.radius, math.log(comp.radius)
            else:
                yield slot, j, z - comp.center, 0.0
            continue
        if owner is None or (rest := owner != j).all():
            w = joukowski_inverse(comp.center, comp.halfspan, z)
        elif rest.any():
            w = preimages.copy()
            w[rest] = joukowski_inverse(comp.center, comp.halfspan, z[rest])
        else:
            w = preimages
        yield slot, j, w, math.log(abs(comp.halfspan) / 2.0)


def design_matrix(z, components, spec: ExpansionSpec, preimages=None, owner=None):
    """Rows of basis values at the points z (one row per point).

    ``owner``/``preimages`` give, per row, the index of the component the
    point was sampled on and its sampling preimage.  On a slit's own rows the
    inverse map is two-valued and the stored preimage decides the side; every
    other row of a slit block goes through the map, which raises DomainError
    for a point on that slit.  Rows of any mix of components can be stacked
    into one call.  The matrix is Fortran-ordered, filled column by column from
    _powers tables built the same way; a least-squares solve can factor it in place.
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
    blocks = column_layout(components, spec)
    A = np.empty((z.shape[0], blocks[-1].stop), dtype=float, order="F")
    A[:, 0] = 1.0
    for slot, j, zeta, offset in _local_coordinates(z, components, spec, preimages, owner):
        A[:, 1 + slot] = np.log(np.abs(zeta)) + offset
        _fill_pairs(A[:, blocks[slot]], 1.0 / zeta)
    if blocks[-1].stop > blocks[-1].start:
        out = components[outer_index(components)]
        _fill_pairs(A[:, blocks[-1]], (z - out.center) / out.radius)
    return A


def _fill_pairs(cols, t):
    """Fill the column pairs (Re t^k, Im t^k), k = 1, 2, ..., of ``cols``."""
    p = _powers(t, cols.shape[1] // 2)
    cols[:, ::2] = p.real
    cols[:, 1::2] = p.imag


@dataclass(frozen=True, eq=False)
class Expansion:
    """A fitted expansion: its coefficient vector plus the geometry it refers to.

    ``vector``, the coefficients in design_matrix column order, is the only
    stored copy: a read-only, finite copy of what the constructor is given.
    ``constant`` is C in the module formula, ``log_coeffs`` the d_j and
    ``blocks[slot]`` the a_k + i b_k of the slot-th inner block (the outer
    block last), all read from ``vector`` as views.  Disk and slit log
    columns both behave like log|z - c_j| far away, so for an exterior
    problem whose log coefficients sum to minus the source strength, C is
    the value u tends to at infinity.
    """

    components: tuple[BoundaryComponent, ...]
    spec: ExpansionSpec
    vector: np.ndarray
    source: complex | None = None
    source_strength: float = 0.0
    log_coeffs: np.ndarray = field(init=False, repr=False)
    blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        validate_spec(self.components, self.spec)
        layout = column_layout(self.components, self.spec)
        vec = np.array(self.vector, dtype=float)
        if vec.shape != (layout[-1].stop,):
            raise ValueError(f"coefficients do not fill the {layout[-1].stop} columns of the layout")
        if not (np.isfinite(vec).all() and math.isfinite(self.source_strength)):
            raise ValueError("expansion coefficients must be finite")
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "log_coeffs", vec[1 : layout[0].start])
        object.__setattr__(self, "blocks", tuple(vec[blk].view(complex) for blk in layout))

    @property
    def constant(self) -> float:
        return float(self.vector[0])

    # Equal when the geometry, the source and every coefficient are.
    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Expansion) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        coeffs = tuple(self.vector.tolist())
        return self.components, self.spec, self.source, self.source_strength, coeffs


# Longer inputs are evaluated in near-equal chunks of at most this many
# points, so one chunk's power table stays under 1 MB for two blocks of
# degree 12: blocks x points x degree complex entries.
_CHUNK_POINTS = 2048


def _evaluate(exp: Expansion, z, want_u=True, want_fp=False):
    """(u, f') at z, each None unless asked for; a scalar z gives Python scalars.

    The analytic completion f has u = Re f and grad u = conj f'.  Inner
    block j adds d_j (log|zeta| + offset) + Re sum_k c_jk t^k to u and
    (d_j - sum_k k c_jk t^k) zeta'/zeta to f', with t = 1/zeta and c_jk =
    a_jk - i b_jk the conjugate of the expansion's block view; the outer
    block adds Re sum_k c_k t^k and sum_k k c_k t^(k-1) / r_0 with t = T_0.
    One _powers table holds t, ..., t^n for every block's points, n the
    largest degree, and each block's series is a matrix-vector product of
    its slice of the table, up to its own degree, with c_k for u and k c_k
    for f' (the outer block's k c_k against t^(k-1)).  No basis matrix is
    built, each slit is mapped once per chunk of points, and the terms are
    added block by block in column order.  BLAS sums each point's series,
    and may add its terms in another order for another number of points, so
    a value can move in its last bits with the grouping of the points: by at
    most 1.6 eps relative to max(1, |v|), for u and f', on 24,581 points
    evaluated in one call and again in pieces of 1, 9, 2,048, 2,049, 3,512
    and 5,000 points (the figure geometry and three mixed-degree cases).
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
    if za.ndim == 0:
        return (None if u is None else float(u[0]), None if fp is None else complex(fp[0]))
    return (None if u is None else u.reshape(za.shape),
            None if fp is None else fp.reshape(za.shape))


def _evaluate_flat(exp: Expansion, z, want_u, want_fp):
    """_evaluate on a 1-D array of points: (u, f') as arrays or None."""
    u = np.full(z.shape, exp.constant) if want_u else None
    fp = np.zeros(z.shape, dtype=complex) if want_fp else None
    if exp.source_strength != 0.0:
        if (z == exp.source).any():
            raise DomainError("the field is unbounded at the source point")
        zs = z - exp.source
        if want_u:
            u += exp.source_strength * np.log(np.abs(zs))
        if want_fp:
            fp += exp.source_strength / zs
    inner, outer = exp.blocks[:-1], exp.blocks[-1]
    blocks = exp.blocks if outer.size else inner
    # t[s] is the series variable of block s: 1/zeta, or T_0 last.
    t = np.empty((len(blocks), z.size), dtype=complex)
    logs, dlogs = [], []
    for slot, j, zeta, offset in _local_coordinates(z, exp.components, exp.spec):
        comp = exp.components[j]
        if comp.kind == DISK and (zeta == 0).any():
            raise DomainError("expansion is singular at a component center")
        ts = np.divide(1.0, zeta, out=t[slot])
        if want_u:
            logs.append(exp.log_coeffs[slot] * (np.log(np.abs(zeta)) + offset))
        if want_fp:
            if comp.kind == DISK:
                dlogs.append(1.0 / (z - comp.center))
            else:
                denom = 1.0 - ts * ts
                if (np.abs(denom) < 1e-13).any():
                    raise DomainError("derivative is singular at a slit endpoint")
                dlogs.append(2.0 / (comp.halfspan * denom * zeta))
    if outer.size:
        out = exp.components[outer_index(exp.components)]
        np.divide(z - out.center, out.radius, out=t[-1])
    # One table of t, ..., t^n over every block's points, n the largest
    # degree, viewed per block as (blocks, points, n) without a copy.  Each
    # block reads only the columns up to its own degree: the higher powers
    # of a block with a lower degree may overflow.
    n = max((b.size for b in blocks), default=0)
    p = _powers(t.reshape(-1), n).reshape(t.shape + (n,))
    for slot, b in enumerate(inner):
        pb, c = p[slot, :, : b.size], b.conj()
        if want_u:
            u += logs[slot] + (pb @ c).real
        if want_fp:
            fp += (exp.log_coeffs[slot] - pb @ (np.arange(1, b.size + 1) * c)) * dlogs[slot]
    if outer.size:
        pb, c = p[-1, :, : outer.size], outer.conj()
        if want_u:
            u += (pb @ c).real
        if want_fp:
            # d/dz t^k = k t^(k-1) / r_0: c_1 times t^0, then k c_k times t^(k-1)
            kc = np.arange(1, outer.size + 1) * c
            fp += (kc[0] + pb[:, :-1] @ kc[1:]) / out.radius
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
