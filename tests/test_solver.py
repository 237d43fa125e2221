import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import domain_points
from laplace_series import (
    Expansion,
    ExpansionSpec,
    GeometryError,
    Problem,
    assemble_system,
    boundary_residual,
    circle_flux,
    default_spec,
    disk,
    eval_expansion,
    green_problem,
    harmonic_measures,
    slit,
    solve_least_squares,
    solve_problem,
)
from laplace_series import solver
from laplace_series.cantor import (
    _symmetric_measures,
    cantor_components,
    cantor_measures,
    cantor_problem,
    cantor_spec,
)
from laplace_series.geometry import boundary_nodes, in_hole
from laplace_series.solver import (
    QRT_COLUMNS,
    QRT_WIDE_COLUMNS,
    RANK_TOL,
    FitReport,
    Solution,
    default_npts,
    solve_with_log_sum,
)

U2_REF = -0.5893274981708  # converged value of u(2) for the c=3+i, r=1 disk


def test_assembly_shape_single_disk():
    prob = green_problem([disk(3 + 1j, 1.0)], source=0j)
    A, b = assemble_system(prob, ExpansionSpec(degrees=(10,)), [200])
    assert A.shape == (200, 22)  # one row per sample; sum(d) = -s is not a row
    assert b.shape == (200,)


def test_assembly_shape_four_disks():
    comps = [disk(-3 + 3j, 1.0), disk(3 + 3j, 1.0), disk(3 - 3j, 0.3), disk(-3 - 3j, 0.3)]
    prob = green_problem(comps, source=0j)
    A, _ = assemble_system(prob, ExpansionSpec(degrees=(10,) * 4), [200] * 4)
    assert A.shape == (800, 85)


def test_assembly_green_rhs_is_negative_source_log():
    prob = green_problem([disk(3 + 1j, 1.0)], source=0j)
    A, b = assemble_system(prob, ExpansionSpec(degrees=(4,)), [40])
    z = 3 + 1j + np.exp(2j * np.pi * np.arange(40) / 40)
    assert np.allclose(b[:40], -np.log(np.abs(z)), atol=1e-15)


def test_assembly_rejects_undersampling():
    prob = green_problem([disk(3 + 1j, 1.0)], source=0j)
    with pytest.raises(ValueError, match="undersampled"):
        assemble_system(prob, ExpansionSpec(degrees=(10,)), [21])


def test_problem_validation():
    with pytest.raises(GeometryError, match="overlap"):
        green_problem([disk(0 + 2j, 1.0), disk(1.5 + 2j, 1.0)], source=0j)
    with pytest.raises(GeometryError, match="source"):
        green_problem([disk(0.1, 1.0)], source=0j)
    with pytest.raises(GeometryError, match="outer"):
        Problem((disk(0, 1.0, role="outer"),), "exterior", None, (0.0,))
    with pytest.raises(GeometryError, match="outer"):
        Problem((disk(0, 1.0),), "bounded", None, (0.0,))
    with pytest.raises(GeometryError, match="inside"):
        Problem(
            (disk(0, 1.0, role="outer"), disk(0.9, 0.5)),
            "bounded", None, (0.0, 0.0),
        )
    with pytest.raises(GeometryError, match="overlap"):
        green_problem([slit(2, 1.0), slit(2.5 + 1j, 1j)], source=0j)
    # A source on a slit, at an endpoint, or on or outside the outer circle
    # lies in a hole.
    for comps, source in (
        ([slit(2, 1.0)], 2.5),
        ([slit(3 + 1j, 1 - 0.5j)], 3 + 1j),
        ([slit(3 + 1j, 1 - 0.5j)], 2 + 1.5j),  # an endpoint
    ):
        with pytest.raises(GeometryError, match=r"source.*components\[0\]"):
            green_problem(comps, source=source)
    outer = disk(0, 2.0, role="outer")
    for source in (2.0, -2j, 3.0, 5 + 5j):  # on and outside the outer circle
        with pytest.raises(GeometryError, match=r"source.*components\[0\]"):
            Problem((outer, disk(0.5, 0.2)), "bounded", source, (0.0, 0.0))
    Problem((outer, disk(0.5, 0.2)), "bounded", 1.9, (0.0, 0.0))


def test_source_within_rounding_of_a_slit_is_rejected():
    c, h = 3 + 1j, 1 - 0.5j
    source = c + 0.3 * h  # 2.2e-16 off the slit, so not in its hole
    assert not in_hole(slit(c, h), source)
    with pytest.raises(GeometryError, match=r"source point lies within rounding of components\[0\]"):
        green_problem([slit(c, h)], source=source)
    # Points c + h*t on random slits of any scale, computed in floating
    # point, fall on the slit or within rounding of it, and both are
    # rejected; 1e-12 (|c| + |h|) off the slit, about 4,500 units of
    # rounding, a source is accepted.
    rng = np.random.default_rng(21)
    beside = 0
    for _ in range(500):
        c = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 3)
        h = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 3)
        source = c + h * rng.uniform(-1.0, 1.0)
        beside += not in_hole(slit(c, h), source)
        with pytest.raises(GeometryError, match=r"source point lies .*components\[1\]"):
            green_problem([disk(c + 4 * abs(h), abs(h)), slit(c, h)], source=source)
        green_problem([slit(c, h)], source=source + 1e-12 * (abs(c) + abs(h)) * 1j * h / abs(h))
    assert beside > 100


def test_sample_on_another_slit_names_both_components():
    # The disk's leftmost samples round onto the slit 1e-12 away.  The sample
    # check names both components instead of letting the slit's inverse map
    # fail inside design_matrix.
    prob = green_problem([slit(1e6, 1e-3j), disk(1e6 + 1e-3 + 1e-12, 1e-3)])
    with pytest.raises(GeometryError, match=r"samples of components\[1\].*components\[0\]"):
        solve_problem(prob)


def test_samples_are_not_tested_against_their_own_disk():
    # Rounding at |center| = 1e6 puts some of a disk's own samples inside its
    # circle; they are tested only against the other disk.
    prob = green_problem([disk(1e6, 1e-3), disk(1e6 + 2e-3 + 1e-10, 1e-3)])
    z, _ = boundary_nodes(prob.components[0], default_npts(default_spec(prob))[0])
    assert np.any(in_hole(prob.components[0], z) & (np.abs(z - 1e6) < 1e-3))
    sol = solve_problem(prob)
    assert math.isfinite(sol.residual)


def test_first_overlapping_pair_is_reported():
    slits = list(cantor_components(7))
    slits[77] = slits[76]
    with pytest.raises(GeometryError, match=r"components\[76\] and components\[77\] overlap"):
        green_problem(slits, source=0j)
    # Mixed disks and slits; several pairs overlap and the first in (i, j)
    # order is named, with indices counted over all components.
    outer = disk(0, 10.0, role="outer")
    cases = [
        ([disk(5, 1), slit(-5, 1), disk(8, 1), slit(5.5, 2j), disk(-5, 0.5)], 1, 4),
        ([slit(0, 1), disk(5, 1), disk(0.5 + 0.5j, 0.6), slit(5, 1)], 1, 3),
        ([slit(-4, 1), disk(0, 1), slit(3, 1), disk(1.5, 0.5), slit(0, 2j)], 2, 4),
        ([slit(4, 1), slit(4.5 + 1j, 2j), slit(-4, 1), disk(-4, 0.5)], 1, 2),
        # Touching counts, also where the bounding boxes only share an edge.
        ([slit(-3, 1), slit(0, 1), slit(1 + 1j, 1j)], 2, 3),
        ([slit(-3, 0.5), disk(0, 1), slit(2, 1)], 2, 3),
        ([disk(-3, 1), disk(0, 1), disk(1.5, 0.5)], 2, 3),
    ]
    for inner, i, j in cases:
        comps = (outer, *inner)
        with pytest.raises(GeometryError, match=rf"components\[{i}\] and components\[{j}\] overlap"):
            Problem(comps, "bounded", None, (0.0,) * len(comps))
        Problem(comps[:j], "bounded", None, (0.0,) * j)  # no overlap before j


def test_residual_needs_one_count_per_component(two_slits):
    for nfine in ([400], [400, 400, 400]):
        with pytest.raises(ValueError, match="one count per component"):
            boundary_residual(two_slits, nfine)


def test_lstsq_square_system():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = solve_least_squares(np.vstack([A]), np.array([3.0, 4.0]))
    assert np.allclose(A @ x, [3.0, 4.0], atol=1e-14)


def test_lstsq_consistent_overdetermined():
    A = np.array([[1.0, 2.0], [3.0, 1.0], [1.0, 2.0], [3.0, 1.0]])
    b = A @ np.array([0.7, -0.3])
    x = solve_least_squares(A, b)
    assert np.allclose(x, [0.7, -0.3], atol=1e-14)


def test_lstsq_duplicate_column_matches_reduced_system():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 4))
    A = np.column_stack([A, A[:, 1]])  # duplicated column
    b = rng.standard_normal(30)
    x = solve_least_squares(A, b)
    assert np.all(np.isfinite(x))
    r_full = np.linalg.norm(A @ x - b)
    x_red = solve_least_squares(A[:, :4], b)
    r_red = np.linalg.norm(A[:, :4] @ x_red - b)
    assert abs(r_full - r_red) < 1e-10


def test_lstsq_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_least_squares(np.ones((2, 3)), np.ones(2))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            solve_least_squares(np.array([[1.0], [bad]]), np.ones(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
def test_lstsq_never_worse_than_zero(cols, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((cols + 5, cols))
    b = rng.standard_normal(cols + 5)
    x = solve_least_squares(A, b)
    assert np.linalg.norm(A @ x - b) <= np.linalg.norm(b) + 1e-12


def test_lstsq_leaves_its_inputs_unchanged():
    # A one-column matrix is both C- and F-contiguous, so contiguity must not
    # decide whether the caller's matrix is factored in place.  A duplicated
    # column sends the solve down the rank-revealing fallback.  The widest
    # matrices take dgeqrt, whose dgemqrt must not write into the caller's b.
    rng = np.random.default_rng(7)
    for cols in (*range(1, 7), QRT_COLUMNS, QRT_COLUMNS + 6):
        for order in ("C", "F"):
            for duplicate in (False, True):
                A = np.array(rng.standard_normal((cols + 5, cols)), order=order)
                if duplicate:
                    A[:, -1] = A[:, 0]
                b = rng.standard_normal(cols + 5)
                A0, b0 = A.copy(order="K"), b.copy()
                solve_least_squares(A, b)
                assert A.tobytes() == A0.tobytes() and b.tobytes() == b0.tobytes()


@pytest.fixture
def fallbacks(monkeypatch):
    """Shapes of the matrices handed to dgelsy, the rank-revealing fallback."""
    calls = []
    real = solver.dgelsy

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(solver, "dgelsy", counting)
    return calls


@pytest.fixture
def kernels(monkeypatch):
    """(name, panel) of the QR kernel that factored each fit, in call order;
    the panel is dgeqrt's block size, None for dgeqrf."""
    calls = []

    def dgeqrf(*args, _real=solver.dgeqrf, **kwargs):
        calls.append(("dgeqrf", None))
        return _real(*args, **kwargs)

    def dgeqrt(panel, *args, _real=solver.dgeqrt, **kwargs):
        calls.append(("dgeqrt", panel))
        return _real(panel, *args, **kwargs)

    monkeypatch.setattr(solver, "dgeqrf", dgeqrf)
    monkeypatch.setattr(solver, "dgeqrt", dgeqrt)
    return calls


def _kernel(cols):
    return "dgeqrt" if cols >= QRT_COLUMNS else "dgeqrf"


# 79 to 81: the last of the 64-79-column fits that dgeqrt takes from QRT_COLUMNS
# on, and the widths past them.
@pytest.mark.parametrize(
    "cols", [1, 31, 32, 33, QRT_COLUMNS - 1, QRT_COLUMNS, QRT_COLUMNS + 1, 79, 80, 81,
             200, QRT_WIDE_COLUMNS - 1, QRT_WIDE_COLUMNS]
)
def test_both_qr_paths_match_scipy_lstsq(kernels, cols):
    # Gaussian matrices with twice as many rows as columns are well
    # conditioned (cond_2 below about 6), so both kernels agree with gelsd.
    rng = np.random.default_rng(100 + cols)
    A = rng.standard_normal((2 * cols + 20, cols))
    b = rng.standard_normal(2 * cols + 20)
    x = solve_least_squares(A, b)
    assert np.max(np.abs(x - scipy.linalg.lstsq(A, b)[0])) <= 1e-12
    assert [name for name, _ in kernels] == [_kernel(cols)]
    # 32-column panels up to the wide switch, 128-column panels from it on.
    panel = {QRT_WIDE_COLUMNS - 1: 32, QRT_WIDE_COLUMNS: 128}.get(cols)
    assert panel is None or kernels[0][1] == panel


def test_assembled_fits_match_scipy_lstsq_on_both_sides_of_the_switch(kernels):
    inner = (disk(-3 + 3j, 1.0), disk(3 + 3j, 1.0), slit(3 - 3j, 1 + 0.5j))
    prob = Problem((disk(0, 8.0, role="outer"), *inner), "bounded", None, (0.0, 1.0, -1.0, 0.5))
    widths = []
    for degree in (7, 8, 14):  # 60, 68 and 116 columns
        spec = default_spec(prob, degree=degree)
        A, b = assemble_system(prob, spec, default_npts(spec))
        x = solve_least_squares(A, b)
        assert np.max(np.abs(x - scipy.linalg.lstsq(A, b)[0])) <= 1e-12
        widths.append(A.shape[1])
    assert widths[0] < QRT_COLUMNS <= widths[1] < 80 <= widths[2]
    assert [name for name, _ in kernels] == ["dgeqrf", "dgeqrt", "dgeqrt"]


def test_cantor_fits_take_wide_panels_from_level_7(kernels):
    # The level-7 general fit has 640 columns after the elimination and takes
    # 128-column panels; the level-7 fold (192) stays on 32, the level-9
    # fold (768) takes 128.
    cantor_measures(7)
    cantor_measures(7, use_symmetry=True)
    cantor_measures(9, use_symmetry=True)
    assert kernels == [("dgeqrt", 128), ("dgeqrt", 32), ("dgeqrt", 128)]


def _rank_deficient_systems():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 4))
    yield np.column_stack([A, A[:, 1]]), rng.standard_normal(30)  # duplicated column
    A = rng.standard_normal((40, 6))
    A[:, 4] = 2.0 * A[:, 1]  # exactly dependent
    A[:, 5] = A[:, 3] + 1e-14 * rng.standard_normal(40)
    yield A, rng.standard_normal(40)
    # Unscaled disk columns grow like r^-k: rcond of R is about 5e-30.
    prob = green_problem([disk(2 + 1j, 0.2), slit(-2 - 1j, 1 + 0.5j)], source=0j)
    spec = default_spec(prob, degree=20, scaled=False)
    yield assemble_system(prob, spec, default_npts(spec))
    # Wide enough for dgeqrt, with one exactly dependent column.
    A = rng.standard_normal((3 * QRT_COLUMNS, QRT_COLUMNS + 8))
    A[:, -1] = A[:, 0] - A[:, 5]
    yield A, rng.standard_normal(3 * QRT_COLUMNS)


def test_fallback_matches_gelsy_on_the_full_matrix(fallbacks, kernels):
    # dgelsy on R and (Q^T b)[:n] must give dgelsy's answer on A itself,
    # whichever kernel factored A.
    for k, (A, b) in enumerate(_rank_deficient_systems(), start=1):
        x = solve_least_squares(A, b)
        assert kernels[-1][0] == _kernel(A.shape[1])
        want = scipy.linalg.lstsq(A, b, cond=RANK_TOL, lapack_driver="gelsy")[0]
        assert np.max(np.abs(x - want)) <= 1e-12
        assert abs(np.linalg.norm(A @ x - b) - np.linalg.norm(A @ want - b)) <= 1e-12
        assert len(fallbacks) == k and fallbacks[-1] == (A.shape[1], A.shape[1])  # R, not A


def test_fallback_stays_off_on_well_posed_fits(fallbacks, disk1, slit1, three_disks):
    for sol in (disk1, slit1, three_disks):
        again = solve_problem(sol.problem, sol.expansion.spec, sol.fit_report.npts)
        assert again.expansion == sol.expansion
    solve_problem(cantor_problem(5), cantor_spec(5))
    assert fallbacks == []


def test_log_sum_solve_factors_in_place(kernels):
    # Counts bytes, times nothing: the solve allocates no copy of the matrix,
    # of its triangular factor or of an entry-by-entry mask, on either side
    # of QRT_COLUMNS.  After the elimination the level-5 fit has 160 columns
    # (dgeqrt; its T and workspace are 0.06 of the matrix) and the
    # three-component one 63 (dgeqrf).  R alone would be 0.15 of the first.
    narrow = green_problem([disk(-3 + 3j, 1.0), disk(3 + 3j, 1.0), slit(3 - 3j, 1 + 0.5j)])
    cases = (
        (cantor_problem(5), cantor_spec(5), None),
        (narrow, default_spec(narrow, degree=10), [800] * 3),
    )
    for prob, spec, npts in cases:
        A, b = assemble_system(prob, spec, npts or default_npts(spec))
        nbytes = A.nbytes
        tracemalloc.start()
        try:
            solve_with_log_sum(A, b, len(prob.components), -1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * nbytes
    assert [name for name, _ in kernels] == ["dgeqrt", "dgeqrf"]


@pytest.fixture
def factors(monkeypatch):
    """(factor, Q^T b) as each solve formed them, copied before R is packed:
    the Q^T b kernels are the last to read the unpacked factor."""
    seen = []

    def dormqr(side, trans, qr, *args, _real=solver.dormqr, **kwargs):
        out = _real(side, trans, qr, *args, **kwargs)
        seen.append((qr.copy(order="F"), out[0].copy()))
        return out

    def dgemqrt(qr, *args, _real=solver.dgemqrt, **kwargs):
        out = _real(qr, *args, **kwargs)
        seen.append((qr.copy(order="F"), out[0].copy()))
        return out

    monkeypatch.setattr(solver, "dormqr", dormqr)
    monkeypatch.setattr(solver, "dgemqrt", dgemqrt)
    return seen


def _packing_rows(n):
    """Row counts of the fits with n columns: n, n+1, 2n-1, 2n and 6n."""
    return sorted({n, n + 1, 2 * n - 1, 2 * n, 6 * n})


@pytest.mark.parametrize("n", [1, 7, QRT_COLUMNS, 80, QRT_WIDE_COLUMNS + 8])
def test_triangular_factor_is_packed_where_it_was_factored(factors, n):
    # With overwrite_a the solve moves R into the first n*n entries of A's
    # own F-ordered storage, column by column, and reads it there: the
    # packed upper triangle is the unpacked factor's, and x is dtrtrs on the
    # unpacked factor bit for bit.
    rng = np.random.default_rng(n)
    for m in _packing_rows(n):
        A = np.asfortranarray(rng.standard_normal((m, n)))
        x = solve_least_squares(A, rng.standard_normal(m), overwrite_a=True)
        qr, c = factors[-1]
        packed = A.reshape(-1, order="F")[: n * n].reshape((n, n), order="F")
        assert np.triu(packed).tobytes() == np.triu(qr[:n]).tobytes()
        want, info = scipy.linalg.lapack.dtrtrs(qr, c)
        assert info == 0 and x.tobytes() == want[:n, 0].tobytes()
    assert len(factors) == len(_packing_rows(n))


@pytest.mark.parametrize("n", [80, QRT_WIDE_COLUMNS + 8])
def test_triangular_factor_is_not_copied(n):
    # Counts bytes, times nothing: no n-by-n array is allocated, where the
    # f2py copy of R took n*n*8 bytes.  Below about 80 columns fixed-size
    # objects (dgeqrt's T and workspace at QRT_COLUMNS = 64, dgeqrf's below
    # it) outweigh n*n*8 bytes, so the narrow sizes are left to the packing
    # test.
    rng = np.random.default_rng(n)
    for m in _packing_rows(n):
        A = np.asfortranarray(rng.standard_normal((m, n)))
        b = rng.standard_normal(m)
        tracemalloc.start()
        try:
            solve_least_squares(A, b, overwrite_a=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


def test_disk1_paper_digits():
    prob = green_problem([disk(3 + 1j, 1.0)], source=0j)
    for degree, digits in ((4, 4), (8, 7), (12, 10)):
        sol = solve_problem(prob, default_spec(prob, degree=degree))
        u2 = eval_expansion(sol.expansion, 2.0 + 0j)
        rel = abs(u2 - U2_REF) / abs(U2_REF)
        assert rel <= 10.0 ** (1 - digits)


def test_symmetric_disks_split_evenly():
    prob = green_problem([disk(-2.0, 0.5), disk(2.0, 0.5)], source=0j)
    sol = solve_problem(prob, default_spec(prob, degree=10))
    report = harmonic_measures(sol)
    assert report.probabilistic
    assert abs(report.measures[0] - 0.5) < 1e-9
    assert abs(report.measures[1] - 0.5) < 1e-9
    assert abs(report.total - 1.0) < 1e-9


def test_residual_certificate_values(disk1):
    # Recorded from this implementation: the degree-12 certificate sits at
    # 3.4e-8 (the exact truncation tail of the image-charge series).
    assert disk1.residual < 1e-7
    fine = boundary_residual(disk1, 1000)
    assert fine < 1e-7


@pytest.fixture(scope="module")
def bounded_mixed():
    comps = (disk(0, 5.0, role="outer"), disk(-2 + 1j, 0.7), slit(2 - 1j, 1 + 0.4j))
    prob = Problem(comps, "bounded", None, (0.3, 1.0, -0.5))
    return solve_problem(prob, default_spec(prob, degree=10))


def _certificate(monkeypatch, sol, budget):
    """(certificate on the 4x grid, rows of each design_matrix block) under
    BLOCK_BUDGET = budget."""
    blocks = []

    def design_matrix(z, *args, _real=solver.design_matrix, **kwargs):
        blocks.append(z.size)
        return _real(z, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "design_matrix", design_matrix)
        patch.setattr(solver, "BLOCK_BUDGET", budget)
        return boundary_residual(sol, [4 * n for n in sol.fit_report.npts]), blocks


@pytest.mark.parametrize("name", ["three_disks", "bounded_mixed", "two_slits"])
def test_certificate_does_not_depend_on_the_block_budget(request, monkeypatch, name):
    # A budget of three rows leaves blocks as tall as the fit matrix, shorter
    # than the 4x check grid of each component; a huge one puts every row in
    # one block.  Each row's product with the coefficients is the same in any
    # block, so the certificate is the same bit for bit.
    sol = request.getfixturevalue(name)
    nfine = [4 * n for n in sol.fit_report.npts]
    short, short_blocks = _certificate(monkeypatch, sol, 3 * sol.expansion.vector.nbytes)
    tall, tall_blocks = _certificate(monkeypatch, sol, 1 << 40)
    assert short == tall == sol.residual
    assert max(short_blocks) == sol.fit_report.rows < min(nfine)
    assert sum(short_blocks) == sum(nfine)
    assert tall_blocks == [sum(nfine)]


@pytest.mark.parametrize("level", [None, 5])
def test_certificate_blocks_stay_within_the_budget(monkeypatch, level):
    # Counts bytes, times nothing.  A block holds at most max(fit matrix,
    # BLOCK_BUDGET) of basis matrix: 1 MB for the three-component degree-20
    # fit (0.48 MB), the 1.3 MB fit matrix itself at Cantor level 5.  Both
    # check matrices are larger (1.9 and 5.3 MB), so one block over all rows
    # would not pass.  Besides its block (and the powers that fill it, no
    # larger) the certificate holds only its stacked samples: z, w, owner
    # and data, 48 bytes a row.
    if level is None:
        prob = green_problem([disk(2 + 1j, 0.5), slit(-2 - 1j, 1 + 0.5j), disk(-2 + 2j, 0.3)])
        spec = default_spec(prob, degree=20)
    else:
        prob, spec = cantor_problem(level), cantor_spec(level)
    sol = solve_problem(prob, spec)
    fit = sol.fit_report.rows * sol.fit_report.cols * 8
    bound = max(fit, solver.BLOCK_BUDGET)
    nfine = [4 * n for n in sol.fit_report.npts]
    held = []

    def design_matrix(*args, _real=solver.design_matrix, **kwargs):
        A = _real(*args, **kwargs)
        held.append(A.nbytes)
        return A

    monkeypatch.setattr(solver, "design_matrix", design_matrix)
    tracemalloc.start()
    try:
        boundary_residual(sol, nfine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(held) == sum(nfine) * sol.fit_report.cols * 8 > bound
    assert max(held) <= bound
    assert peak <= 2 * bound + 48 * sum(nfine)


def test_a_fine_check_grid_is_neither_held_whole_nor_kept():
    # Counts bytes, times nothing.  A million check points on one disk: the
    # certificate holds the 1 MB row block and its powers (no larger) and,
    # per point, the component's samples and preimages (32 bytes), the
    # stacked z, w, owner and data (48) and the data before stacking (8),
    # and keeps none of it once it returns, the grid included.
    prob = green_problem([disk(2 + 1j, 0.5)])
    sol = solve_problem(prob, default_spec(prob, degree=10))
    fit = sol.fit_report.rows * sol.fit_report.cols * 8
    npts = 10**6
    tracemalloc.start()
    try:
        residual = boundary_residual(sol, npts)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.residual <= residual <= 1.01 * sol.residual
    assert peak <= fit + 2 * solver.BLOCK_BUDGET + 96 * npts
    assert held < 64 * 1024


def test_identity_fit_has_machine_residual():
    # Bounded Green function of the unit disk with the source at the center
    # is exactly log|z|, which the expansion represents exactly.
    prob = Problem((disk(0, 1.0, role="outer"),), "bounded", 0j, (0.0,))
    sol = solve_problem(prob, default_spec(prob, degree=8))
    assert sol.residual <= 1e-14


def test_degree_zero_fit_has_positive_residual():
    prob = green_problem([disk(3 + 1j, 1.0)], source=0j)
    sol = solve_problem(prob, ExpansionSpec(degrees=(0,)))
    assert sol.residual > 1e-3


def test_constraint_row_enforced(disk1, three_disks, two_slits):
    # sum(d_j) = -s is eliminated exactly, so it holds to rounding, on the
    # general path and on the folded Cantor path (mirror pairs sum to -1/2).
    for sol in (disk1, three_disks, two_slits):
        assert abs(sum(sol.expansion.log_coeffs) + 1.0) <= 1e-14
    for m in range(1, 7):
        assert abs(2 * sum(_symmetric_measures(m)) - 1.0) <= 1e-14


@pytest.mark.parametrize("nlog,extra", [(1, 0), (3, 0), (1, 4), (3, 4)])
def test_log_sum_elimination_matches_null_space_solve(nlog, extra):
    # Least squares over the affine set {x : d_1 + ... + d_nlog = -1},
    # parametrized independently by a null-space basis of the constraint.
    rng = np.random.default_rng(nlog + 10 * extra)
    n = 1 + nlog + extra
    A = rng.standard_normal((40, n))
    b = rng.standard_normal(40)
    c = np.zeros(n)
    c[1 : 1 + nlog] = 1.0
    x0 = -c / (c @ c)
    N = scipy.linalg.null_space(c[None, :])
    want = x0 + N @ np.linalg.lstsq(A @ N, b - A @ x0, rcond=None)[0]
    got = solve_with_log_sum(A.copy(), b, nlog, -1.0)
    assert np.max(np.abs(got - want)) < 1e-12
    assert abs(sum(got[1 : 1 + nlog]) + 1.0) <= 1e-14


def test_empty_problem_is_rejected():
    # Without a log column there is no d to hold sum(d) = -s; eliminating the
    # constant column instead would return C = -1 with a zero certificate.
    prob = green_problem([], source=0j)
    with pytest.raises(ValueError, match="without boundary components"):
        solve_problem(prob)
    with pytest.raises(ValueError, match="without boundary components"):
        assemble_system(prob, ExpansionSpec(degrees=()), [])
    with pytest.raises(ValueError, match="nlog=0"):
        solve_with_log_sum(np.ones((4, 2)), np.ones(4), 0, -1.0)
    bare = Expansion((), ExpansionSpec(degrees=()), [0.0], source=0j)
    with pytest.raises(ValueError, match="without boundary components"):
        boundary_residual(Solution(prob, bare, 0.0, FitReport(0, 0, ())), 4)


def test_problem_rejects_nonfinite_source_and_data():
    # Caught when the problem is built, not by the solve's finiteness check.
    comps = (disk(3 + 1j, 1.0), disk(-3.0, 1.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="source point must be finite"):
            green_problem(comps[:1], source=complex(bad, 0.0))
        with pytest.raises(ValueError, match="source point must be finite"):
            green_problem(comps[:1], source=complex(0.0, bad))
        with pytest.raises(ValueError, match=r"boundary_data\[1\] must be finite"):
            Problem(comps, "exterior", 0j, (0.0, bad))
    # Function data is checked where it is sampled.
    Problem(comps, "exterior", 0j, (0.0, lambda z: z.real))


def test_flux_quantization(three_disks):
    comps = three_disks.problem.components
    for j, comp in enumerate(comps):
        others = [abs(comp.center - c.center) for k, c in enumerate(comps) if k != j]
        radius = comp.radius + 0.3 * (min(min(others), abs(comp.center)) - comp.radius)
        flux = circle_flux(three_disks, comp.center, radius)
        d = three_disks.expansion.log_coeffs[j]
        assert abs(flux - 2 * np.pi * d) < 1e-6 * abs(2 * np.pi * d)
    src = circle_flux(three_disks, 0j, 0.4)
    assert abs(src - 2 * np.pi) < 1e-6 * 2 * np.pi


def test_fit_error_is_the_image_charge_tail():
    # The exact Green function of the disk exterior is the source plus an
    # image charge at c + a, a = -r^2/conj(c), whose log expands into the
    # Laurent series -Re sum_k (a/(z-c))^k/k.  A degree-N fit reproduces the
    # first N terms, so its error in the domain is exactly the closed-form
    # tail Re sum_{k>N} -(a/(z-c))^k/k.
    c, r = 3 + 1j, 1.0
    prob = green_problem([disk(c, r)], source=0j)
    pts = np.append(domain_points(prob, 50, seed=17, margin=0.1), 2.0 + 0j)
    a = -r * r / np.conj(c)
    exact = np.log(np.abs(pts)) - np.log(np.abs(pts - (c + a))) - np.log(abs(c) / r)
    q = a / (pts - c)
    for degree in range(2, 15):
        sol = solve_problem(prob, default_spec(prob, degree=degree))
        k = np.arange(degree + 1, 400)[:, None]
        tail = np.real(np.sum(-(q**k) / k, axis=0))
        err = eval_expansion(sol.expansion, pts) - exact
        assert np.max(np.abs(tail)) > 1e-11  # the comparison below is not vacuous
        assert np.max(np.abs(err - tail)) <= 1e-12


def test_refinement_stability(disk1):
    prob = disk1.problem
    spec = default_spec(prob, degree=12)
    doubled = solve_problem(prob, spec, [2 * n for n in disk1.fit_report.npts])
    pts = domain_points(prob, 10, seed=21)
    du = np.abs(
        eval_expansion(disk1.expansion, pts) - eval_expansion(doubled.expansion, pts)
    )
    assert np.max(du) <= 10 * disk1.residual


def test_maximum_principle_negative_field(disk1):
    pts = domain_points(disk1.problem, 200, seed=13, box=8.0)
    u = eval_expansion(disk1.expansion, pts)
    assert np.all(u < disk1.residual)


def test_nonzero_boundary_data_flagged_non_probabilistic():
    comps = [disk(-2.0, 0.5), disk(2.0, 0.5)]
    prob = Problem(tuple(comps), "exterior", 0j, (0.0, -1.0))
    sol = solve_problem(prob, default_spec(prob, degree=10))
    report = harmonic_measures(sol)
    assert not report.probabilistic
    assert len(report.measures) == 2


def test_callable_boundary_data():
    prob = Problem(
        (disk(3 + 1j, 1.0),), "exterior", 0j,
        (lambda z: np.log(np.abs(z)),),
    )
    sol = solve_problem(prob, default_spec(prob, degree=16))
    assert sol.residual < 1e-10


def test_bounded_annulus_analytic_solution():
    prob = Problem(
        (disk(0, 2.0, role="outer"), disk(0, 1.0)),
        "bounded", None, (0.0, 1.0),
    )
    sol = solve_problem(prob, default_spec(prob, degree=10))
    u = eval_expansion(sol.expansion, complex(math.sqrt(2), 0))
    assert abs(u - 0.5) < 1e-8
    assert abs(sol.expansion.log_coeffs[0] + 1 / math.log(2)) < 1e-8
