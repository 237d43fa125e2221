import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from laplace_series import (
    basis,
    cantor,
    cantor_components,
    cantor_inner_half_sum,
    cantor_measures,
    solver,
)
from laplace_series.cantor import (
    _symmetric_measures,
    cantor_degree,
    cantor_problem,
    cantor_solution,
    cantor_spec,
)
from laplace_series.cli import main
from laplace_series.solver import boundary_residual, harmonic_measures, solve_problem

PAPER_TABLES = {
    1: [0.5],
    2: [0.367776, 0.132224],
    3: [0.253289, 0.111676, 0.066706, 0.068329],
    4: [0.162063, 0.088794, 0.058116, 0.054538, 0.038156, 0.029363, 0.029460, 0.039509],
}


def test_level_one_intervals():
    slits = cantor_components(1)
    got = [(s.center.real, s.halfspan.real) for s in slits]
    assert got == [(-1.0, 0.5), (1.0, 0.5)]


def test_level_two_intervals():
    slits = cantor_components(2)
    ends = [(s.center.real - s.halfspan.real, s.center.real + s.halfspan.real) for s in slits]
    want = [(-1.5, -7 / 6), (-5 / 6, -0.5), (0.5, 5 / 6), (7 / 6, 1.5)]
    assert all(abs(a - c) < 1e-15 and abs(b - d) < 1e-15 for (a, b), (c, d) in zip(ends, want))


def test_level_five_count_and_length():
    slits = cantor_components(5)
    assert len(slits) == 32
    assert all(abs(2 * s.halfspan.real - 3.0 ** (-4)) < 1e-16 for s in slits)


def test_exact_ternary_endpoints():
    # The level-m endpoints are ternary rationals: piece k starts at
    # -3/2 + 3 * sum_i 2 b_i 3^-i over the binary digits b_i of k and is
    # 3^(1-m) long.  Stored as center and halfspan, every endpoint of every
    # piece comes back within one rounding of the exact value.
    m = 6
    slits = cantor_components(m)
    assert slits[0].center.real - slits[0].halfspan.real == -1.5
    for k, piece in enumerate(slits):
        bits = [(k >> (m - i)) & 1 for i in range(1, m + 1)]
        a = Fraction(-3, 2) + 3 * sum(Fraction(2 * b, 3**i) for i, b in enumerate(bits, 1))
        b = a + Fraction(1, 3 ** (m - 1))
        for got, want in zip(piece.endpoints, (float(a), float(b))):
            assert abs(got.real - want) <= math.ulp(want)
            assert got.imag == 0.0


def test_centers_and_halfspans_are_correctly_rounded():
    # Each center and halfspan is the nearest float to the exact rational of
    # the middle-thirds construction, at every level.
    intervals = [(Fraction(-3, 2), Fraction(3, 2))]
    for m in range(1, 13):
        intervals = [
            piece for a, b in intervals for piece in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))
        ]
        slits = cantor_components(m)
        assert len(slits) == len(intervals) == 2**m
        for s, (a, b) in zip(slits, intervals):
            assert s.center.real.hex() == float((a + b) / 2).hex()
            assert s.halfspan.real.hex() == float((b - a) / 2).hex()
            assert s.center.imag == s.halfspan.imag == 0.0


def test_level_bounds():
    with pytest.raises(ValueError):
        cantor_components(0)
    with pytest.raises(ValueError):
        cantor_components(13)


def test_degree_schedule():
    assert [cantor_degree(m) for m in (1, 2, 3, 4, 5, 8)] == [5, 4, 3, 2, 2, 2]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_measures_match_tables(m):
    measures = cantor_measures(m)
    assert len(measures) == 2 ** (m - 1)
    for got, want in zip(measures, PAPER_TABLES[m]):
        assert abs(got - want) < 1e-6


def test_general_measures_skip_the_certificate(monkeypatch):
    # The measures are log coefficients of the fit; the 4x certificate grid
    # belongs to cantor_solution alone.
    def certificate(*args, **kwargs):
        raise AssertionError("the certificate was computed")

    monkeypatch.setattr(solver, "boundary_residual", certificate)
    measures = cantor_measures(4)
    assert len(measures) == len(PAPER_TABLES[4])
    for got, want in zip(measures, PAPER_TABLES[4]):
        assert abs(got - want) < 1e-6
    with pytest.raises(AssertionError, match="certificate"):
        cantor_solution(4)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_symmetric_path_agrees_with_general(m):
    general = cantor_measures(m)
    fast = cantor_measures(m, use_symmetry=True)
    assert max(abs(a - b) for a, b in zip(general, fast)) < 1e-12


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_symmetric_fold_never_builds_the_full_width_matrix():
    # Counts bytes, times nothing.  At m = 8 the fold is 2048 rows (16 upper
    # nodes on each of 128 right-half slits) by 1 + 128 + 128*2 columns.  The
    # right-half basis at z and at -z, added in place, stays below 4x that;
    # a matrix over all 256 slits, folded afterwards, would not.
    folded_bytes = 2048 * 385 * 8
    assert _traced_peak(_symmetric_measures, 8) < 4 * folded_bytes


def test_symmetric_fold_is_built_in_row_blocks():
    # Counts bytes, times nothing.  At m = 9 the fold is 4096 rows by
    # 1 + 256 + 256*2 columns; a right-half matrix is 1 + 256 + 256*4 columns
    # wide.  Built FOLD_BLOCK_ROWS rows at a time, nothing of full height is
    # held besides the fold itself, and one block matrix at a time: the one at
    # z goes before the one at -z is made, so the two never sit side by side.
    folded_bytes = 4096 * 769 * 8
    block_bytes = cantor.FOLD_BLOCK_ROWS * 1281 * 8
    assert cantor.FOLD_BLOCK_ROWS < 4096
    assert _traced_peak(_symmetric_measures, 9) < folded_bytes + 3 * block_bytes // 2


def test_levels_beyond_memory_fail_up_front():
    # The general matrix at m = 11 would be 65536 x 10241 (5.4 GB): levels
    # above MAX_GENERAL_LEVEL are refused on that path, and levels above
    # MAX_LEVEL, which cantor_components does not build, on both, before
    # anything is allocated.
    def refuse(m, use_symmetry, match):
        with pytest.raises(ValueError, match=match):
            cantor_measures(m, use_symmetry=use_symmetry)

    for m in (11, 12):
        assert _traced_peak(refuse, m, False, "use_symmetry=True reaches 12$") < 2**20
    for use_symmetry in (False, True):
        assert _traced_peak(refuse, 13, use_symmetry, r"level must be in 1\.\.12") < 2**20
    assert len(cantor_components(12)) == 4096


def test_level_twelve_takes_the_symmetric_fold(monkeypatch, tmp_path):
    # The fold is not built here: a stub stands in for it, so nothing of
    # level 12's size is allocated.  The refusal of the general path above
    # MAX_GENERAL_LEVEL does not reach the symmetric one.
    levels = []

    def fold(m):
        levels.append(m)
        return [0.5 / 2 ** (m - 1)] * 2 ** (m - 1)

    monkeypatch.setattr(cantor, "_symmetric_measures", fold)
    assert cantor_measures(12, use_symmetry=True) == [0.5 / 2048] * 2048
    assert main(["cantor", "-m", "12", "--symmetry", "-o", str(tmp_path)]) == 0
    assert levels == [12, 12]
    assert (tmp_path / "cantor_m12.json").exists()


def test_mirror_symmetry_of_general_solve():
    sol = cantor_solution(3)
    report = harmonic_measures(sol)
    comps = sol.problem.components
    by_center = {comps[j].center.real: report.measures[j] for j in range(len(comps))}
    for x, v in by_center.items():
        assert abs(v - by_center[-x]) < 1e-9


def test_total_measure_over_both_halves():
    for m in (2, 4):
        sol = cantor_solution(m)
        assert abs(harmonic_measures(sol).total - 1.0) < 1e-9


def test_inner_half_sums_match_paper_sequence():
    # The paper's printed sequence 0.367776, 0.364965, 0.363512, ... descends
    # from the level whose right half first splits, i.e. levels 2, 3, 4, ...
    assert abs(cantor_inner_half_sum(2) - 0.367776) < 1e-6
    assert abs(cantor_inner_half_sum(3) - 0.364965) < 1e-6
    assert abs(cantor_inner_half_sum(4) - 0.363512) < 1e-6


def test_inner_half_sums_take_the_symmetric_fold(monkeypatch):
    # The general path stops at MAX_GENERAL_LEVEL; the inner-half sums do not
    # need it.  That path assembles its system through assemble_system.
    def general_solve(*args, **kwargs):
        raise AssertionError("the general path was taken")

    monkeypatch.setattr(cantor, "cantor_solution", general_solve)
    monkeypatch.setattr(cantor, "assemble_system", general_solve)
    assert abs(cantor_inner_half_sum(4) - 0.363512) < 1e-6


def test_inner_half_sum_requires_split():
    with pytest.raises(ValueError):
        cantor_inner_half_sum(1)


def test_inner_half_sums_settle_monotonically():
    sums = [cantor_inner_half_sum(m) for m in range(4, 10)]
    assert all(b < a for a, b in zip(sums, sums[1:]))
    # Each step closes about half the remaining gap (observed ratios
    # 0.509-0.511), so the sums head geometrically toward a limit near 0.362.
    steps = [a - b for a, b in zip(sums, sums[1:])]
    assert all(0.45 < b / a < 0.55 for a, b in zip(steps, steps[1:]))
    assert sums[-1] > 0.3620


def test_level_eight_within_time_budget():
    t0 = time.perf_counter()
    measures = cantor_measures(8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert len(measures) == 128
    assert abs(2 * sum(measures) - 1.0) < 1e-9


def test_each_slit_is_mapped_once_per_row_set(monkeypatch):
    # Counts calls, measures no time: the fit, each certificate block and the
    # symmetric fold map every slit once, not once per collocation block.
    calls = []
    inverse = basis.unit_slit_inverse

    def counting_inverse(zc):
        calls.append(np.size(zc))
        return inverse(zc)

    monkeypatch.setattr(basis, "unit_slit_inverse", counting_inverse)
    sol = solve_problem(cantor_problem(5), cantor_spec(5))
    assert len(calls) <= 5 * 32  # one per slit in the fit and in each of 4 certificate blocks
    calls.clear()
    cantor_measures(5, use_symmetry=True)
    assert len(calls) <= 32

    rows = []
    assemble = solver.design_matrix

    def recording_design_matrix(z, *args, **kwargs):
        rows.append(np.size(z))
        return assemble(z, *args, **kwargs)

    monkeypatch.setattr(solver, "design_matrix", recording_design_matrix)
    nfine = [4 * n for n in sol.fit_report.npts]
    assert boundary_residual(sol, nfine) == sol.residual
    assert sum(rows) == sum(nfine)
    assert len(rows) <= len(nfine)
    assert max(rows) <= max(sol.fit_report.rows, max(nfine))
