"""Collocation assembly, constrained least-squares solves, residual certificates.

Boundary conditions are imposed at npts >> N sample points per component and
the coefficients solve the overdetermined system in the least-squares sense.
The samples of all components are stacked and the matrix is built by one
design_matrix call, which maps each slit once.  The solve is a Householder
QR of that Fortran-ordered matrix, factored in its own storage: LAPACK dgeqrf
for fits narrower than QRT_COLUMNS, the recursive compact-WY dgeqrt for wider
ones, in wider panels from QRT_WIDE_COLUMNS on.  The triangular factor is then
packed into the head of the same storage and read there.  Column pivoting
(LAPACK dgelsy) runs only on that small factor, and only when it is too
ill-conditioned to solve with directly.
Exterior problems hold sum(d_j) = -s exactly, which keeps the expansion
regular at infinity: the last log coefficient is eliminated as -s minus the
others before the solve and restored after it.  The solution vector, in
design_matrix column order, is the expansion's one stored copy of its
coefficients.  The a-posteriori certificate is the maximum boundary misfit
on a finer, offset sample grid: each row block, at most BLOCK_BUDGET bytes
of basis matrix unless the fit matrix is taller, is multiplied by that
vector, so most small solves check in one block.  By the maximum principle it bounds the solution error throughout the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.linalg.lapack import (
    dgelsy,
    dgelsy_lwork,
    dgemqrt,
    dgeqrf,
    dgeqrf_lwork,
    dgeqrt,
    dormqr,
    dtrcon,
    dtrtrs,
)

from .basis import (
    Expansion,
    ExpansionSpec,
    design_matrix,
    eval_gradient,
    inner_indices,
    validate_spec,
)
from .geometry import (
    DISK,
    OUTER,
    SLIT,
    BoundaryComponent,
    GeometryError,
    boundary_nodes,
    first_hole,
    first_overlap,
    inside_disk,
    near_slit,
)

EXTERIOR = "exterior"
BOUNDED = "bounded"

BoundaryData = Union[float, Callable[[np.ndarray], np.ndarray]]

# Pivot threshold of the rank-revealing fallback that solve_least_squares
# takes when the triangular factor R is too ill-conditioned to solve with.
RANK_TOL = 1e-13

# Fits with at least this many columns are factored by dgeqrt in panels of
# QRT_BLOCK columns (QRT_WIDE_BLOCK from QRT_WIDE_COLUMNS columns on),
# narrower ones by dgeqrf; see solve_least_squares.
QRT_COLUMNS = 64
QRT_BLOCK = 32
QRT_WIDE_COLUMNS = 512
QRT_WIDE_BLOCK = 128

# A certificate row block holds at most this many bytes of basis matrix
# (2**17 float64 entries, the 1 MB that also bounds a basis._CHUNK_POINTS
# power table), unless the fit matrix is taller; see boundary_residual.
BLOCK_BUDGET = 1 << 20


@dataclass(frozen=True)
class Problem:
    """A Laplace problem: geometry, domain kind, optional log source, boundary data.

    ``boundary_data[j]`` is either a constant or a real function of boundary
    position (called with an array of complex points).  Degenerate geometry, a
    non-finite source and non-finite constant data are rejected here, not
    discovered mid-solve.
    """

    components: tuple[BoundaryComponent, ...]
    domain_kind: str = EXTERIOR
    source: complex | None = None
    boundary_data: tuple[BoundaryData, ...] = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.boundary_data is None:
            object.__setattr__(self, "boundary_data", tuple(0.0 for _ in self.components))
        else:
            object.__setattr__(self, "boundary_data", tuple(self.boundary_data))
        if self.source is not None:
            object.__setattr__(self, "source", complex(self.source))
            if not np.isfinite(self.source):
                raise ValueError(f"the source point must be finite, got {self.source}")
        if self.domain_kind not in (EXTERIOR, BOUNDED):
            raise ValueError(f"unknown domain kind {self.domain_kind!r}")
        if len(self.boundary_data) != len(self.components):
            raise ValueError("boundary_data must give one entry per component")
        for j, g in enumerate(self.boundary_data):
            if not (callable(g) or math.isfinite(g)):
                raise ValueError(f"boundary_data[{j}] must be finite, got {g}")
        self._validate_geometry()

    def _validate_geometry(self):
        comps = self.components
        outers = [j for j, c in enumerate(comps) if c.role == OUTER]
        if self.domain_kind == EXTERIOR and outers:
            raise GeometryError("an exterior problem cannot have an outer component")
        if self.domain_kind == BOUNDED and len(outers) != 1:
            raise GeometryError("a bounded problem needs exactly one outer component")
        inner = inner_indices(comps)
        pair = first_overlap([comps[j] for j in inner])
        if pair is not None:
            i, j = inner[pair[0]], inner[pair[1]]
            raise GeometryError(f"components[{i}] and components[{j}] overlap")
        if outers:
            out = comps[outers[0]]
            for j in inner:
                if not inside_disk(out, comps[j]):
                    raise GeometryError(
                        f"components[{j}] does not lie strictly inside the outer disk"
                    )
        if self.source is None:
            return
        if (j := first_hole(comps, self.source)) >= 0:
            raise GeometryError(f"the source point lies in the hole of components[{j}]")
        for j, comp in enumerate(comps):
            if comp.kind == SLIT and near_slit(comp, self.source):
                raise GeometryError(f"the source point lies within rounding of components[{j}]")

    @property
    def source_strength(self) -> float:
        return 1.0 if self.source is not None else 0.0

    def data_values(self, j: int, z: np.ndarray) -> np.ndarray:
        g = self.boundary_data[j]
        if callable(g):
            return np.broadcast_to(np.asarray(g(z), dtype=float), z.shape)
        return np.full(z.shape, float(g))

    def is_green(self) -> bool:
        """Exterior problem, unit source, zero boundary values on every component."""
        return (
            self.domain_kind == EXTERIOR
            and self.source is not None
            and all((not callable(g)) and g == 0.0 for g in self.boundary_data)
        )


def green_problem(components, source: complex = 0j) -> Problem:
    """Exterior Green problem: zero boundary data, unit log source."""
    return Problem(tuple(components), EXTERIOR, source)


@dataclass(frozen=True)
class FitReport:
    rows: int
    cols: int
    npts: tuple[int, ...]


@dataclass(frozen=True)
class Solution:
    problem: Problem
    expansion: Expansion
    residual: float
    fit_report: FitReport

    def __post_init__(self):
        if not (math.isfinite(self.residual) and self.residual >= 0.0):
            raise ValueError("residual certificate must be finite and nonnegative")


@dataclass(frozen=True)
class MeasureReport:
    """Per-component harmonic measures (-d_j) and their sum.

    ``probabilistic`` is False when the solve was not an exterior Green
    problem; the coefficients are still reported but no longer sum to one.
    """

    measures: tuple[float, ...]
    total: float
    probabilistic: bool


def default_npts(spec: ExpansionSpec) -> list[int]:
    """Oversampled point counts: npts_j = max(32, 8 N_j)."""
    return [max(32, 8 * n) for n in spec.degrees]


def default_spec(problem: Problem, degree: int = 10, scaled: bool = True) -> ExpansionSpec:
    """The same degree for every component's block, inner or outer."""
    return ExpansionSpec(degrees=(degree,) * len(problem.components), scaled=scaled)


def _boundary_rows(problem: Problem, spec: ExpansionSpec, npts):
    """Collocation rows for all components in one call; rhs is g - (fixed source term)."""
    comps = problem.components
    nodes = []
    for j, comp in enumerate(comps):
        n = int(npts[j])
        if n < 2 * spec.degrees[j] + 2:
            raise ValueError(
                f"components[{j}] is undersampled: npts={n} for degree {spec.degrees[j]}"
            )
        nodes.append(boundary_nodes(comp, n))
    z, w, owner, b = _stack_nodes(problem, nodes)
    hole = first_hole(comps, z, skip=owner)
    if (bad := np.flatnonzero(hole >= 0)).size:
        i = bad[0]
        raise GeometryError(
            f"samples of components[{owner[i]}] fall in the hole of components[{hole[i]}]"
        )
    A = design_matrix(z, comps, spec, preimages=w, owner=owner)
    if problem.source_strength != 0.0:
        b -= problem.source_strength * np.log(np.abs(z - problem.source))
    return A, b


def _stack_nodes(problem: Problem, nodes):
    """Stack per-component (points, preimages) into rows: (z, w, owner, data)."""
    z = np.concatenate([zw[0] for zw in nodes])
    w = np.concatenate([zw[1] for zw in nodes])
    owner = np.repeat(np.arange(len(nodes)), [zw[0].shape[0] for zw in nodes])
    g = np.concatenate([problem.data_values(j, zw[0]) for j, zw in enumerate(nodes)])
    return z, w, owner, g


def assemble_system(problem: Problem, spec: ExpansionSpec, npts: Sequence[int]):
    """Build the collocation matrix and right-hand side, one row per sample."""
    if not problem.components:
        raise ValueError("a problem without boundary components has nothing to fit")
    validate_spec(problem.components, spec)
    if len(npts) != len(problem.components):
        raise ValueError("npts must give one count per component")
    return _boundary_rows(problem, spec, npts)


def solve_least_squares(A: np.ndarray, b: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Minimize ||Ax - b||_2 by Householder QR, A = QR.

    Fits narrower than QRT_COLUMNS (64) are factored by LAPACK dgeqrf, and
    Q^T b is formed by the unblocked dorm2r.  Wider fits are factored by
    dgeqrt, which does each panel by the recursive compact-WY QR of Elmroth
    and Gustavson (IBM J. Res. Dev. 44, 2000) in matrix-matrix products,
    where dgeqrf's panels are matrix-vector work (and dgeqrf runs unblocked
    below 128 columns); dgemqrt applies Q^T.  The panels are QRT_BLOCK (32)
    columns wide, QRT_WIDE_BLOCK (128) from QRT_WIDE_COLUMNS (512) columns
    on.  Both kernels leave R in the upper triangle.  The timings that set
    the switches are in CHANGES.md, under "Wide fits by recursive compact-WY
    QR", "wide QR panels for the deep Cantor fits", "128-column panels from
    512 columns" and "compact-WY QR from 64 columns"; scripts/qr_kernels.py
    repeats them.

    Once c = Q^T b is formed the reflectors are spent, and _pack_triangle
    moves R into the first n*n entries of the factored storage, where
    dtrcon, dtrtrs and the fallback read it as an F-ordered n-by-n array
    without a copy.  x solves R x = c[:n] when LAPACK's dtrcon estimate of
    the reciprocal 1-norm condition number of R is at least n*RANK_TOL,
    which (as cond_2 <= n*cond_1) keeps cond_2(R) below 1/RANK_TOL up to the
    estimate's accuracy.  Otherwise LAPACK's column-pivoting dgelsy runs on
    (R, c[:n]) with pivot threshold RANK_TOL.  Since ||Ax - b||^2 =
    ||Rx - c[:n]||^2 + ||c[n:]||^2 and Q changes no pivot choice, that is the
    minimum-norm, rank-truncated answer dgelsy gives on A itself, so
    duplicated or nearly dependent columns still give a finite minimizer.

    A and b are left unchanged unless ``overwrite_a`` is true.  Then a
    Fortran-ordered float64 A is factored in place, without a copy, and
    afterwards the first n*n entries of its storage, in column order, hold
    R in their upper triangle (and leftover reflector entries below it); the
    rest of A holds what the factorization left.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or not A.shape[0] >= A.shape[1] >= 1:
        raise ValueError(f"need rows >= cols >= 1, got shape {A.shape}")
    if b.shape != A.shape[:1]:
        raise ValueError(f"right-hand side of shape {b.shape} does not match {A.shape[0]} rows")
    # A's min and max are finite exactly when every entry is, and unlike
    # np.isfinite(A) they allocate nothing.
    if not (math.isfinite(A.min()) and math.isfinite(A.max()) and np.isfinite(b).all()):
        raise ValueError("matrix and right-hand side must be finite")
    m, n = A.shape
    qr = np.asarray(A, order="F") if overwrite_a else np.array(A, order="F")
    if n < QRT_COLUMNS:
        qr, tau, _, _ = dgeqrf(qr, lwork=int(dgeqrf_lwork(m, n)[0]), overwrite_a=1)
        # lwork=1 selects the unblocked dorm2r, the faster one for a single column.
        c, _, _ = dormqr("L", "T", qr, tau, b[:, None], lwork=1)
    else:
        panel = QRT_BLOCK if n < QRT_WIDE_COLUMNS else QRT_WIDE_BLOCK
        qr, t, _ = dgeqrt(panel, qr, overwrite_a=1)
        c, _ = dgemqrt(qr, t, b[:, None], "L", "T")
    R = _pack_triangle(qr)
    rcond, _ = dtrcon(R)
    if rcond >= n * RANK_TOL:
        x, info = dtrtrs(R, c, overwrite_b=1)
    else:
        lwork = int(dgelsy_lwork(n, n, 1, RANK_TOL)[0])
        _, x, _, _, info = dgelsy(np.triu(R), c[:n], np.zeros(n, dtype=np.int32),
                                  RANK_TOL, lwork, overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"least-squares solve failed (LAPACK info {info})")
    return x[:n, 0]


def _pack_triangle(qr: np.ndarray) -> np.ndarray:
    """R, the first n rows of the factored m-by-n F-ordered qr, moved into the
    first n*n entries of qr's own storage; returned as an F-ordered n-by-n view.

    Column j moves from offset j*m to j*n: from row j of the C-ordered view
    ``cols`` = qr.T to row j of the C-ordered view ``head`` of those entries,
    so every copy runs along contiguous memory on both sides.  Columns
    [j, j1) go in one copy when j1 <= j*m/n, since their new place then ends
    before column j's old one begins; column 0 already sits in place.  So a
    copy takes j up to about j*m/n, and the columns of R move in about
    log(n)/log(m/n) copies (4 at 4096 by 640).  A lone column whose new place
    overlaps its old one (m < 2n) goes through numpy's buffer of n entries.
    Entries below the diagonal are left over from the reflectors; only the
    upper triangle is R.
    """
    m, n = qr.shape
    if m == n:
        return qr
    cols = qr.T
    head = cols.reshape(-1)[: n * n].reshape(n, n)
    j = 1
    while j < n:
        j1 = min(n, max(j + 1, j * m // n))
        head[j:j1] = cols[j:j1, :n]
        j = j1
    return head.T


def solve_with_log_sum(A: np.ndarray, b: np.ndarray, nlog: int, total: float) -> np.ndarray:
    """Least squares over columns [C, d_1..d_nlog, ...] with sum(d) = total exactly.

    d_nlog = total - (d_1 + ... + d_nlog-1) is substituted into the system,
    which is then solved for the remaining coefficients.  A is overwritten:
    the reduced system is built in its storage, with the last column moved
    into the eliminated one's place, so no second matrix is allocated.
    """
    if nlog < 1:
        raise ValueError(f"need at least one log column to hold the sum, got nlog={nlog}")
    a = A[:, nlog].copy()
    A[:, 1:nlog] -= a[:, None]
    A[:, nlog] = A[:, -1]
    y = solve_least_squares(A[:, :-1], b - total * a, overwrite_a=True)
    return np.concatenate([y[:nlog], [total - y[1:nlog].sum()], y[nlog + 1 :], y[nlog : nlog + 1]])


def solve_problem(problem: Problem, spec: ExpansionSpec = None, npts=None) -> Solution:
    """Fit an expansion to the boundary data and certify it on a 4x finer grid."""
    if spec is None:
        spec = default_spec(problem)
    if npts is None:
        npts = default_npts(spec)
    A, b = assemble_system(problem, spec, npts)
    rows, cols = A.shape
    if problem.domain_kind == EXTERIOR:
        nlog = len(inner_indices(problem.components))
        x = solve_with_log_sum(A, b, nlog, -problem.source_strength)
    else:
        x = solve_least_squares(A, b, overwrite_a=True)
    del A, b  # the certificate's row blocks take the fit matrix's place
    expansion = Expansion(problem.components, spec, x, problem.source)
    report = FitReport(rows=rows, cols=cols, npts=tuple(int(n) for n in npts))
    sol = Solution(problem, expansion, 0.0, report)
    residual = boundary_residual(sol, [4 * int(n) for n in npts])
    return Solution(problem, expansion, residual, report)


# Check-grid offsets (fractions of the sample spacing) hold the certificate
# grid disjoint from the fit grid, which uses 0.0 for disks and 0.5 for slits.
_CHECK_OFFSET = {DISK: 0.5, SLIT: 0.25}


def boundary_residual(solution: Solution, nfine) -> float:
    """Max |u - g| over fresh boundary samples offset from the fit grid.

    The samples of all components are stacked and evaluated in contiguous
    row blocks of at most BLOCK_BUDGET (1 MB) of basis matrix, or as tall as
    the fit matrix if that is taller.  So the check holds no larger matrix
    than max(fit matrix, 1 MB), however fine the grid, and a check matrix
    under 1 MB is one block.  The block height moves no certificate:
    BLAS sums each row's product with the coefficients in the same order
    however tall the block is (tests/test_solver.py checks it bit for bit).
    """
    problem = solution.problem
    comps = problem.components
    if not comps:
        raise ValueError("a problem without boundary components has nothing to certify")
    if np.isscalar(nfine):
        nfine = [nfine] * len(comps)
    nfine = [int(n) for n in nfine]
    if len(nfine) != len(comps):
        raise ValueError("nfine must give one count per component")
    if any(n < 1 for n in nfine):
        raise ValueError("nfine must be >= 1 per component")
    z, w, owner, g = _stack_nodes(problem, [
        boundary_nodes(comp, n, _CHECK_OFFSET[comp.kind]) for comp, n in zip(comps, nfine)
    ])
    coeffs = solution.expansion.vector
    block = max(solution.fit_report.rows, BLOCK_BUDGET // coeffs.nbytes)
    worst = 0.0
    for start in range(0, z.shape[0], block):
        rows = slice(start, start + block)
        u = design_matrix(z[rows], comps, solution.expansion.spec,
                          preimages=w[rows], owner=owner[rows]) @ coeffs
        if problem.source_strength != 0.0:
            u = u + problem.source_strength * np.log(np.abs(z[rows] - problem.source))
        worst = max(worst, float(np.max(np.abs(u - g[rows]))))
    return worst


def harmonic_measures(solution: Solution) -> MeasureReport:
    """Measures -d_j per inner component; probabilistic only for Green problems."""
    measures = tuple(-d for d in solution.expansion.log_coeffs)
    return MeasureReport(
        measures=measures,
        total=float(sum(measures)),
        probabilistic=solution.problem.is_green(),
    )


def circle_flux(solution: Solution, center: complex, radius: float) -> float:
    """Line integral of the outward normal derivative around a circle.

    Trapezoid rule on 512 uniform nodes; equals 2*pi*d_j when the circle
    encloses only component j, and 2*pi*s around the source alone.
    """
    theta = 2.0 * np.pi * np.arange(512) / 512
    nhat = np.exp(1j * theta)
    z = center + radius * nhat
    grad = eval_gradient(solution.expansion, z)
    integrand = (np.conj(grad) * nhat).real
    return float(integrand.sum() * (2.0 * np.pi * radius / 512))
