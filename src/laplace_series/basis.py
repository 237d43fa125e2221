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
T_0 = (z - c_0)/r_0 uses positive powers.  The source term has a fixed unit
coefficient and never enters the fitted columns.

Gradients use the identity grad Re f = conj(f') applied to the analytic
completion of each term.  ``design_matrix`` is the one assembly path; one
evaluator gives u, f' or both without it, mapping each slit once per call and
summing each block's series by Horner's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DISK,
    INNER,
    OUTER,
    BoundaryComponent,
    DomainError,
    joukowski_inverse,
    on_slit,
)


@dataclass(frozen=True)
class ExpansionSpec:
    """Degrees and scaling choices for one expansion.

    ``degrees[j]`` is the negative-power degree of component j; the entry for
    an outer component must be 0, with its positive-power degree carried by
    ``outer_degree``.  ``scaled`` switches disk power columns from (z-c)^-k to
    ((z-c)/r)^-k, which keeps matrix columns near unit size.
    """

    degrees: tuple[int, ...]
    scaled: bool = True
    outer_degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(n) for n in self.degrees))
        if any(n < 0 for n in self.degrees):
            raise ValueError("degrees must be >= 0")
        if self.outer_degree < 0:
            raise ValueError("outer_degree must be >= 0")


def validate_spec(components: tuple[BoundaryComponent, ...], spec: ExpansionSpec) -> None:
    if len(spec.degrees) != len(components):
        raise ValueError(
            f"spec lists {len(spec.degrees)} degrees for {len(components)} components"
        )
    for j, comp in enumerate(components):
        if comp.role == OUTER and spec.degrees[j] != 0:
            raise ValueError("outer component takes outer_degree, not a negative-power degree")


def inner_indices(components) -> list[int]:
    return [j for j, c in enumerate(components) if c.role == INNER]


def outer_index(components) -> int | None:
    for j, c in enumerate(components):
        if c.role == OUTER:
            return j
    return None


def column_count(components, spec: ExpansionSpec) -> int:
    inner = inner_indices(components)
    return 1 + len(inner) + sum(2 * spec.degrees[j] for j in inner) + 2 * spec.outer_degree


def column_labels(components, spec: ExpansionSpec) -> list[str]:
    """Human-readable names for the columns, in matrix order."""
    inner = inner_indices(components)
    labels = ["C"] + [f"d[{j}]" for j in inner]
    for j in inner:
        for k in range(1, spec.degrees[j] + 1):
            labels += [f"a[{j},{k}]", f"b[{j},{k}]"]
    for k in range(1, spec.outer_degree + 1):
        labels += [f"A[{k}]", f"B[{k}]"]
    return labels


def _powers(t: np.ndarray, n: int) -> np.ndarray:
    """t, t^2, ..., t^n as a Fortran-ordered table built column by column, so
    each product runs over every row at once, however small n is."""
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
    ncols = column_count(components, spec)
    A = np.empty((z.shape[0], ncols), dtype=float, order="F")
    A[:, 0] = 1.0

    col = 1 + len(inner_indices(components))
    for slot, j, zeta, offset in _local_coordinates(z, components, spec, preimages, owner):
        n = spec.degrees[j]
        A[:, 1 + slot] = np.log(np.abs(zeta)) + offset
        p = _powers(1.0 / zeta, n)
        A[:, col : col + 2 * n : 2] = p.real
        A[:, col + 1 : col + 2 * n : 2] = p.imag
        col += 2 * n

    oj = outer_index(components)
    if spec.outer_degree > 0:
        if oj is None:
            raise ValueError("outer_degree > 0 requires an outer component")
        out = components[oj]
        p = _powers((z - out.center) / out.radius, spec.outer_degree)
        A[:, col : col + 2 * spec.outer_degree : 2] = p.real
        A[:, col + 1 : col + 2 * spec.outer_degree : 2] = p.imag
        col += 2 * spec.outer_degree
    assert col == ncols
    return A


@dataclass(frozen=True)
class Expansion:
    """A fitted expansion: coefficients plus the geometry they refer to.

    ``constant`` is C in the module formula.  Disk and slit log columns both
    behave like log|z - c_j| far away, so for an exterior problem whose log
    coefficients sum to minus the source strength, C is the value u tends to
    at infinity.
    """

    components: tuple[BoundaryComponent, ...]
    spec: ExpansionSpec
    constant: float
    log_coeffs: tuple[float, ...]
    cos_coeffs: tuple[tuple[float, ...], ...]
    sin_coeffs: tuple[tuple[float, ...], ...]
    outer_cos: tuple[float, ...] = ()
    outer_sin: tuple[float, ...] = ()
    source: complex | None = None
    source_strength: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        validate_spec(self.components, self.spec)
        vals = [self.constant, *self.log_coeffs, self.source_strength]
        vals += [v for row in self.cos_coeffs for v in row]
        vals += [v for row in self.sin_coeffs for v in row]
        vals += list(self.outer_cos) + list(self.outer_sin)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("expansion coefficients must be finite")
        # Per block (the inner ones, then the outer) c_k = a_k - i b_k and k c_k,
        # for the evaluator; not dataclass fields, so == and from_vector ignore them.
        pairs = [*zip(self.cos_coeffs, self.sin_coeffs), (self.outer_cos, self.outer_sin)]
        c = [np.array(a, dtype=float) - 1j * np.array(b, dtype=float) for a, b in pairs]
        object.__setattr__(self, "_c", tuple(c))
        object.__setattr__(self, "_kc", tuple(np.arange(1, ck.size + 1) * ck for ck in c))

    @classmethod
    def from_vector(cls, vec, components, spec, source=None, source_strength=0.0):
        """Unpack a least-squares solution vector in design_matrix column order."""
        vec = np.asarray(vec, dtype=float)
        inner = inner_indices(components)
        if vec.shape[0] != column_count(components, spec):
            raise ValueError("coefficient vector length does not match the column layout")
        log_coeffs = tuple(vec[1 : 1 + len(inner)])
        cos_rows, sin_rows = [], []
        col = 1 + len(inner)
        for j in inner:
            n = spec.degrees[j]
            cos_rows.append(tuple(vec[col : col + 2 * n : 2]))
            sin_rows.append(tuple(vec[col + 1 : col + 2 * n : 2]))
            col += 2 * n
        outer_cos = tuple(vec[col : col + 2 * spec.outer_degree : 2])
        outer_sin = tuple(vec[col + 1 : col + 2 * spec.outer_degree : 2])
        return cls(
            components=tuple(components),
            spec=spec,
            constant=float(vec[0]),
            log_coeffs=log_coeffs,
            cos_coeffs=tuple(cos_rows),
            sin_coeffs=tuple(sin_rows),
            outer_cos=outer_cos,
            outer_sin=outer_sin,
            source=source,
            source_strength=source_strength,
        )

    def coefficient_vector(self) -> np.ndarray:
        """The coefficients in design_matrix column order: C, d_j, then (a_k, b_k) pairs."""
        c = np.concatenate(self._c)
        return np.concatenate([[self.constant, *self.log_coeffs], c.conj().view(float)])


def singular_mask(exp: Expansion, z) -> np.ndarray:
    """True where the expansion is undefined: at the source, at an inner disk
    center, or on a closed slit.

    Points within rounding of a slit endpoint pass here; complex_derivative
    still rejects them because f' is singular there.
    """
    z = np.asarray(z, dtype=complex)
    bad = np.zeros(z.shape, dtype=bool)
    if exp.source_strength != 0.0 and exp.source is not None:
        bad |= z == exp.source
    for j in inner_indices(exp.components):
        comp = exp.components[j]
        if comp.kind == DISK:
            bad |= z == comp.center
        else:
            bad |= on_slit(comp.center, comp.halfspan, z)
    return bad


def _horner(coeffs, t):
    """sum_i coeffs[i] t^i by Horner's rule (0.0 for no coefficients)."""
    if not coeffs.size:
        return 0.0
    acc = np.full(t.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _evaluate(exp: Expansion, z, want_u=True, want_fp=False):
    """(u, f') at z, each None unless asked for; a scalar z gives Python scalars.

    The analytic completion f has u = Re f and grad u = conj f'.  Block j
    adds d_j (log|zeta| + offset) + Re sum_k c_jk zeta^-k to u and
    (d_j - sum_k k c_jk zeta^-k) zeta'/zeta to f', with c_jk = a_jk - i b_jk;
    both sums run by Horner's rule in 1/zeta, so no basis matrix is built and
    each slit is mapped once per call.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    u = np.full(z.shape, exp.constant) if want_u else None
    fp = np.zeros_like(z) if want_fp else None
    if exp.source_strength != 0.0:
        if np.any(z == exp.source):
            raise DomainError("the field is unbounded at the source point")
        if want_u:
            u += exp.source_strength * np.log(np.abs(z - exp.source))
        if want_fp:
            fp += exp.source_strength / (z - exp.source)
    for slot, j, zeta, offset in _local_coordinates(z, exp.components, exp.spec):
        comp, d, c, kc = exp.components[j], exp.log_coeffs[slot], exp._c[slot], exp._kc[slot]
        if comp.kind == DISK and np.any(zeta == 0):
            raise DomainError("expansion is singular at a component center")
        t = 1.0 / zeta
        if want_u:
            u += d * (np.log(np.abs(zeta)) + offset) + (t * _horner(c, t)).real
        if want_fp:
            if comp.kind == DISK:
                dlog = 1.0 / (z - comp.center)
            else:
                denom = 1.0 - t * t
                if np.any(np.abs(denom) < 1e-13):
                    raise DomainError("derivative is singular at a slit endpoint")
                dlog = 2.0 / (comp.halfspan * denom * zeta)
            fp += (d - t * _horner(kc, t)) * dlog
    if exp.spec.outer_degree > 0:
        out = exp.components[outer_index(exp.components)]
        c, kc = exp._c[-1], exp._kc[-1]
        t = (z - out.center) / out.radius
        if want_u:
            u += (t * _horner(c, t)).real
        if want_fp:
            # d/dz t^k = k t^(k-1) / r_0
            fp += _horner(kc, t) / out.radius
    if scalar:
        return (None if u is None else float(u[0]), None if fp is None else complex(fp[0]))
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
