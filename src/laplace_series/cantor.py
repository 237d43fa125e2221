"""Middle-thirds interval approximations and their harmonic-measure study.

Level m keeps the 2^m closed intervals left after removing the middle third of
each remaining piece m times, starting from [-1.5, 1.5].  Each interval becomes
a slit, the Green source sits at the origin, and the per-slit degree follows
the schedule N = max(2, 6 - m): once the slits are short and well separated, a
tiny degree already gives six digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .basis import ExpansionSpec, design_matrix
from .geometry import BoundaryComponent, boundary_nodes, slit
from .solver import (
    Problem,
    Solution,
    default_npts,
    green_problem,
    harmonic_measures,
    solve_problem,
    solve_with_log_sum,
)

MAX_LEVEL = 12


@dataclass(frozen=True)
class CantorLevel:
    m: int
    slits: tuple[BoundaryComponent, ...]
    total_span: tuple[float, float] = (-1.5, 1.5)


def cantor_degree(m: int) -> int:
    return max(2, 6 - m)


def cantor_components(m: int) -> CantorLevel:
    """The 2^m slits of the level-m approximation, left to right.

    Endpoints are built in exact ternary rationals and converted to floats
    once, so deep levels carry no accumulated drift.
    """
    if not 1 <= m <= MAX_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_LEVEL}, got {m}")
    intervals = [(Fraction(-3, 2), Fraction(3, 2))]
    for _ in range(m):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    slits = tuple(
        slit(float((a + b) / 2), float((b - a) / 2)) for a, b in intervals
    )
    return CantorLevel(m=m, slits=slits, total_span=(-1.5, 1.5))


def cantor_problem(m: int) -> Problem:
    return green_problem(cantor_components(m).slits, source=0j)


def cantor_spec(m: int, nslits: int = None) -> ExpansionSpec:
    n = nslits if nslits is not None else 2**m
    return ExpansionSpec(degrees=(cantor_degree(m),) * n, scaled=True)


def cantor_solution(m: int) -> Solution:
    """Green solve over all 2^m slits by the general path."""
    return solve_problem(cantor_problem(m), cantor_spec(m))


def cantor_measures(m: int, use_symmetry: bool = False) -> list[float]:
    """Harmonic measures of the right-half-plane slits, ordered inside out.

    With ``use_symmetry`` the solve keeps only the general system's rows on the
    upper side of the right-half slits, and folds each mirror-image pair of
    slits into shared columns: their log columns are added, their cosine
    columns are added with sign (-1)^k because w(-z) = -w(z), and the sine
    columns are dropped (u is even in y).  The mirror pairs' log coefficients
    then sum to -1/2 exactly, and the result agrees with the general path to
    solver accuracy.
    """
    if use_symmetry:
        return _symmetric_measures(m)
    sol = cantor_solution(m)
    report = harmonic_measures(sol)
    comps = sol.problem.components
    right = sorted(
        (j for j, c in enumerate(comps) if c.center.real > 0),
        key=lambda j: comps[j].center.real,
    )
    return [report.measures[j] for j in right]


def cantor_inner_half_sum(m: int) -> float:
    """Total measure of the half of the right-half-plane slits closer to the origin."""
    if m < 2:
        raise ValueError("inner-half sums need m >= 2")
    measures = cantor_measures(m)
    return float(sum(measures[: 2 ** (m - 2)]))


def _symmetric_measures(m: int) -> list[float]:
    slits = cantor_components(m).slits
    spec = cantor_spec(m)
    n = len(slits)
    right = np.arange(n // 2, n)
    mirror = n - 1 - right
    nr = len(right)
    # Cosine columns of the right and mirror slits, slit after slit in
    # design_matrix order; w(-z) = -w(z) maps a mirror slit's zeta^-k onto
    # (-1)^k times the right slit's.
    deg = cantor_degree(m)
    ks = np.arange(deg)
    cos_right = (1 + n + 2 * deg * right[:, None] + 2 * ks).ravel()
    cos_mirror = (1 + n + 2 * deg * mirror[:, None] + 2 * ks).ravel()
    sign = np.tile((-1.0) ** (ks + 1), nr)

    npts = default_npts(slits, spec)
    halves = [npts[j] // 2 for j in right]  # the first half of the nodes covers the upper side
    nodes = [boundary_nodes(slits[j], npts[j]) for j in right]
    z = np.concatenate([zj[:h] for (zj, _), h in zip(nodes, halves)])
    w = np.concatenate([wj[:h] for (_, wj), h in zip(nodes, halves)])
    owner = np.repeat(right, halves)
    A = design_matrix(z, slits, spec, preimages=w, owner=owner)
    # The fold is filled in Fortran order, so the solve factors it in place.
    folded = np.empty((z.shape[0], 1 + nr + nr * deg), order="F")
    folded[:, 0] = A[:, 0]
    np.add(A[:, 1 + right], A[:, 1 + mirror], out=folded[:, 1 : 1 + nr])
    np.multiply(sign, A[:, cos_mirror], out=folded[:, 1 + nr :])
    folded[:, 1 + nr :] += A[:, cos_right]
    del A  # the fold holds what the solve needs
    x = solve_with_log_sum(folded, -np.log(np.abs(z)), nr, -0.5)
    return [float(-d) for d in x[1 : 1 + nr]]
