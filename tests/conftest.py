import os
import sys

# Timed gates (acceptance criteria 1, 2 and 4, the Cantor level-8 budget) must
# not depend on BLAS thread scheduling: pin BLAS to one thread, as
# test_scripts.py does for its subprocesses.  The setting is read when numpy
# loads, so it only takes effect if nothing imported numpy before this file.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from laplace_series import (
    default_spec,
    disk,
    eval_expansion,
    green_problem,
    slit,
    solve_problem,
)
from laplace_series.geometry import OUTER, boundary_distance, first_hole

# Filled by tests/test_acceptance.py; printed at the end of the run.
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def disk1():
    """The single-disk Green problem: c = 3+i, r = 1, source at the origin."""
    prob = green_problem([disk(3 + 1j, 1.0)], source=0j)
    return solve_problem(prob, default_spec(prob, degree=12))


@pytest.fixture(scope="session")
def slit1():
    """The slanted-slit Green problem: c = 3+i, halfspan 1-0.5i, source at 0."""
    prob = green_problem([slit(3 + 1j, 1 - 0.5j)], source=0j)
    return solve_problem(prob, default_spec(prob, degree=16))


@pytest.fixture(scope="session")
def three_disks():
    comps = [disk(-2 + 2j, 1.0), disk(3 + 1j, 0.8), disk(1 - 2.5j, 0.4)]
    prob = green_problem(comps, source=0j)
    return solve_problem(prob, default_spec(prob, degree=10))


@pytest.fixture(scope="session")
def two_slits():
    comps = [slit(-2 + 1j, 0.8 + 0.3j), slit(2.5 - 1j, 1.0 - 0.2j)]
    prob = green_problem(comps, source=0j)
    return solve_problem(prob, default_spec(prob, degree=12))


def domain_points(problem, n, seed, margin=0.3, box=6.0):
    """Seeded random points in the problem domain, clear of all boundaries."""
    rng = np.random.default_rng(seed)
    outer = next((c for c in problem.components if c.role == OUTER), None)
    pts = []
    while len(pts) < n:
        if outer is not None:
            z = outer.center + complex(
                rng.uniform(-outer.radius, outer.radius),
                rng.uniform(-outer.radius, outer.radius),
            )
            if abs(z - outer.center) > outer.radius - margin:
                continue
        else:
            z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if first_hole(problem.components, z) >= 0 or any(
            boundary_distance(c, z) < margin for c in problem.components
        ):
            continue
        if problem.source is not None and abs(z - problem.source) < margin:
            continue
        pts.append(z)
    return np.array(pts)


def fd_gradient(expansion, pts, h=1e-3):
    """u_x + i u_y at pts by 6th-order central differences with step h.

    At h = 1e-3 both the truncation error (order h^6) and the rounding error
    (order eps/h) are near 1e-12 of the field's scale; a 2nd-order difference
    at h = 1e-6 is held to about 1e-10 by rounding alone.
    """
    weights = ((1, 45.0), (2, -9.0), (3, 1.0))

    def partial(step):
        return sum(w * (eval_expansion(expansion, pts + k * step)
                        - eval_expansion(expansion, pts - k * step)) for k, w in weights) / (60 * h)

    return partial(h) + 1j * partial(1j * h)
