"""Middle-thirds interval approximations and their harmonic-measure study.

Level m keeps the 2^m closed intervals left after removing the middle third of
each remaining piece m times, starting from [-1.5, 1.5].  Each interval becomes
a slit, the Green source sits at the origin, and the per-slit degree follows
the schedule N = max(2, 6 - m): once the slits are short and well separated, a
tiny degree already gives six digits.
"""

from __future__ import annotations

import numpy as np

from .basis import ExpansionSpec, column_layout, design_matrix
from .geometry import BoundaryComponent, boundary_nodes, slit
from .solver import (
    Problem,
    Solution,
    assemble_system,
    default_npts,
    green_problem,
    solve_problem,
    solve_with_log_sum,
)

MAX_LEVEL = 12
MAX_GENERAL_LEVEL = 10
# Rows of the symmetric fold built per pair of design_matrix calls; only one
# full-width right-half matrix of one block is held besides the fold.
FOLD_BLOCK_ROWS = 1024


def cantor_degree(m: int) -> int:
    return max(2, 6 - m)


def cantor_components(m: int) -> tuple[BoundaryComponent, ...]:
    """The 2^m slits of the level-m approximation, left to right.

    Left ends are exact integers in units of 1/(2*3^m), in which every slit
    is 6 long, and each center and halfspan is one correctly rounded integer
    division, so deep levels carry no accumulated drift.
    """
    if not 1 <= m <= MAX_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_LEVEL}, got {m}")
    unit = 2 * 3**m
    length = 3 * unit  # of [-3/2, 3/2]
    lefts = [-length // 2]
    for _ in range(m):
        length //= 3
        lefts = [a + shift for a in lefts for shift in (0, 2 * length)]
    return tuple(slit((a + 3) / unit, 3 / unit) for a in lefts)


def cantor_problem(m: int) -> Problem:
    return green_problem(cantor_components(m), source=0j)


def cantor_spec(m: int, nslits: int = None) -> ExpansionSpec:
    n = nslits if nslits is not None else 2**m
    return ExpansionSpec(degrees=(cantor_degree(m),) * n, scaled=True)


def cantor_solution(m: int) -> Solution:
    """Green solve over all 2^m slits by the general path, with its certificate."""
    return solve_problem(cantor_problem(m), cantor_spec(m))


def cantor_measures(m: int, use_symmetry: bool = False) -> list[float]:
    """Harmonic measures of the right-half-plane slits, ordered inside out.

    The general path solves over all 2^m slits and runs up to level
    MAX_GENERAL_LEVEL; its matrix at the next level would need about 5.4 GB.
    It fits the same system as cantor_solution but skips the certificate,
    which the measures do not use.
    With ``use_symmetry`` (every level up to MAX_LEVEL) the solve uses the
    mirror symmetry u(z) = u(-z) = u(conj z): the mirror of right-half slit j
    is the slit at -c_j, whose basis at z is slit j's basis at -z.  So each
    folded column is phi_j(z) + phi_j(-z) over the right-half slits alone,
    collocated on their upper sides.  The sine columns drop because u is even
    in y, and the folded log coefficients sum to -1/2 exactly.  The fold is
    assembled FOLD_BLOCK_ROWS rows at a time from one right-half matrix at a
    time: the matrix at z is copied in, then the one at -z added.  The result
    agrees with the general path to solver accuracy.
    """
    if not use_symmetry and MAX_GENERAL_LEVEL < m <= MAX_LEVEL:
        raise ValueError(f"level {m} does not fit in memory on this path "
                         f"(at most {MAX_GENERAL_LEVEL}); use_symmetry=True reaches {MAX_LEVEL}")
    if use_symmetry:
        return _symmetric_measures(m)
    problem, spec = cantor_problem(m), cantor_spec(m)
    A, b = assemble_system(problem, spec, default_npts(spec))
    x = solve_with_log_sum(A, b, 2**m, -1.0)
    return [float(-d) for d in x[1 + 2 ** (m - 1) : 1 + 2**m]]  # the slits run left to right


def cantor_inner_half_sum(m: int) -> float:
    """Total measure of the half of the right-half-plane slits closer to the
    origin, from the symmetric fold (so up to MAX_LEVEL)."""
    if m < 2:
        raise ValueError("inner-half sums need m >= 2")
    measures = cantor_measures(m, use_symmetry=True)
    return float(sum(measures[: 2 ** (m - 2)]))


def _symmetric_measures(m: int) -> list[float]:
    right = cantor_components(m)[2 ** (m - 1) :]
    nr = len(right)
    spec = cantor_spec(m, nr)
    npts = default_npts(spec)
    halves = [n // 2 for n in npts]  # the first half of the nodes covers the upper side
    nodes = [boundary_nodes(s, n) for s, n in zip(right, npts)]
    z = np.concatenate([zj[:h] for (zj, _), h in zip(nodes, halves)])
    w = np.concatenate([wj[:h] for (_, wj), h in zip(nodes, halves)])
    owner = np.repeat(np.arange(nr), halves)
    # The constant, the log and the cosine columns of the right-half layout
    # (every other column from k0, where the series pairs start), filled
    # block by block into a Fortran-ordered fold that the solve factors in
    # place.
    k0 = column_layout(right, spec)[0].start
    folded = np.empty((z.size, k0 + sum(spec.degrees)), order="F")
    for start in range(0, z.size, FOLD_BLOCK_ROWS):
        rows = slice(start, start + FOLD_BLOCK_ROWS)
        head, cos = folded[rows, :k0], folded[rows, k0:]
        A = design_matrix(z[rows], right, spec, preimages=w[rows], owner=owner[rows])
        head[:], cos[:] = A[:, :k0], A[:, k0::2]
        del A
        A = design_matrix(-z[rows], right, spec)  # -z lies on the mirror slits
        np.add(head, A[:, :k0], out=head)
        np.add(cos, A[:, k0::2], out=cos)
        del A
    folded[:, 0] = 1.0  # the constant, back to 1
    x = solve_with_log_sum(folded, -np.log(np.abs(z)), nr, -0.5)
    return [float(-d) for d in x[1 : 1 + nr]]
