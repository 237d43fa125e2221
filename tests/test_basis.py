import dataclasses
import math
import pickle

import numpy as np
import pytest

from conftest import domain_points, fd_gradient
from laplace_series import (
    Expansion,
    ExpansionSpec,
    Problem,
    default_spec,
    disk,
    eval_expansion,
    eval_gradient,
    green_problem,
    slit,
    solve_problem,
)
from laplace_series.basis import (
    _CHUNK_POINTS,
    _block_maps,
    _evaluate,
    _powers,
    column_layout,
    complex_derivative,
    design_matrix,
)
from laplace_series.geometry import OUTER, DomainError, boundary_nodes, joukowski_inverse
from laplace_series.solver import assemble_system, solve_with_log_sum


def _copy(exp, vector=None):
    return Expansion(exp.components, exp.spec, exp.vector if vector is None else vector,
                     exp.source)


def source_only():
    return Expansion(components=(), spec=ExpansionSpec(degrees=()), vector=[0.0], source=0j)


def test_row_length_one_disk():
    comps = (disk(3 + 1j, 1.0),)
    spec = ExpansionSpec(degrees=(2,))
    row = design_matrix(5 + 0j, comps, spec)[0]
    assert row.shape == (6,)
    # C, d, then (a_1, b_1), (a_2, b_2); an empty outer block ends the row.
    assert column_layout(comps, spec) == (slice(2, 6), slice(6, 6))


OWNER_CASES = {
    "exterior": green_problem(
        [disk(3 + 1j, 1.0), slit(-2 + 1j, 0.8 + 0.3j), slit(2.5 - 2j, 1.0 - 0.2j)],
        source=0j,
    ),
    "bounded": Problem(
        (disk(0, 4.0, role="outer"), slit(1 + 1j, 0.6j), disk(-1.5, 0.5), slit(0.5 - 2j, 0.7)),
        "bounded", None, (0.0, 1.0, 0.0, 0.5),
    ),
}


def _owner_nodes(problem, npts=24):
    nodes = [boundary_nodes(c, npts) for c in problem.components]
    z = np.concatenate([zw[0] for zw in nodes])
    w = np.concatenate([zw[1] for zw in nodes])
    owner = np.repeat(np.arange(len(nodes)), npts)
    return z, w, owner


@pytest.mark.parametrize("case", sorted(OWNER_CASES))
def test_owner_rows_match_per_component_calls(case):
    prob = OWNER_CASES[case]
    comps, spec = prob.components, default_spec(prob, 5)
    z, w, owner = _owner_nodes(prob)
    stacked = design_matrix(z, comps, spec, preimages=w, owner=owner)
    # Each component's rows alone: a block made only of one component's own rows.
    per_component = np.vstack([
        design_matrix(z[owner == j], comps, spec, preimages=w[owner == j],
                      owner=owner[owner == j])
        for j in range(len(comps))
    ])
    assert np.array_equal(stacked, per_component)
    # Owners need not come in runs: any row order gives the same rows.
    perm = np.random.default_rng(3).permutation(z.shape[0])
    shuffled = design_matrix(z[perm], comps, spec, preimages=w[perm], owner=owner[perm])
    assert np.array_equal(shuffled, stacked[perm])


@pytest.mark.parametrize("case", sorted(OWNER_CASES))
def test_assembly_leaves_its_inputs_alone(case):
    # A slit block sets its own rows off the slit in an array of its own, so
    # z, preimages and owner are only read: with owners interleaved, with
    # every row a slit's own (that slit's block returns the preimages), and
    # with no row of any slit (the disk's and the outer circle's rows).
    prob = OWNER_CASES[case]
    comps, spec = prob.components, default_spec(prob, 5)
    z, w, owner = _owner_nodes(prob)
    blocks = [np.random.default_rng(4).permutation(z.shape[0])]
    blocks += [np.flatnonzero(owner == j) for j in range(len(comps))]
    for rows in blocks:
        args = z[rows], w[rows], owner[rows]
        before = [a.tobytes() for a in args]
        design_matrix(args[0], comps, spec, preimages=args[1], owner=args[2])
        assert [a.tobytes() for a in args] == before


def test_owner_rows_take_the_stored_preimage():
    prob = OWNER_CASES["exterior"]
    comps, spec = prob.components, default_spec(prob, 5)
    z, w, owner = _owner_nodes(prob)
    # A block with no rows of the slits: their columns come from the inverse map.
    on_disk = owner == 0
    A = design_matrix(z[on_disk], comps, spec, preimages=w[on_disk], owner=owner[on_disk])
    assert np.array_equal(A, design_matrix(z[on_disk], comps, spec))
    # A block made only of slit 1's own rows: its columns come from the
    # stored preimages, which tell the two sides of the slit apart.
    own = owner == 1
    A = design_matrix(z[own], comps, spec, preimages=w[own], owner=owner[own])
    a1 = column_layout(comps, spec)[1].start  # (a_1, b_1) of slit 1's block
    b1 = a1 + 1
    halfspan = comps[1].halfspan
    assert np.array_equal(A[:, 2], np.log(np.abs(w[own])) + math.log(abs(halfspan) / 2.0))
    assert np.array_equal(A[:, a1], (1.0 / w[own]).real)
    assert np.array_equal(A[:, b1], (1.0 / w[own]).imag)
    assert np.all(A[:12, b1] < 0) and np.all(A[12:, b1] > 0)
    # The other slit still goes through its map on those rows.
    w2 = joukowski_inverse(comps[2].center, comps[2].halfspan, z[own])
    assert np.array_equal(A[:, 3], np.log(np.abs(w2)) + math.log(abs(comps[2].halfspan) / 2.0))


def test_non_owned_row_on_a_slit_is_rejected():
    prob = OWNER_CASES["exterior"]
    comps, spec = prob.components, default_spec(prob, 5)
    z, w, owner = _owner_nodes(prob)
    wrong = owner.copy()
    wrong[owner == 2] = 0  # slit 2's points, labelled as the disk's
    with pytest.raises(DomainError):
        design_matrix(z, comps, spec, preimages=w, owner=wrong)
    with pytest.raises(ValueError, match="together"):
        design_matrix(z, comps, spec, owner=owner)


@pytest.mark.parametrize("scaled", [True, False])
def test_design_matrix_rejects_disk_center(scaled):
    # The assembly maps a block as the evaluator does: a row at a disk's
    # centre raises instead of giving log 0 and 1/0.
    comps = (disk(1 + 1j, 0.5), slit(-2 + 0j, 0.7))
    spec = ExpansionSpec(degrees=(3, 2), scaled=scaled)
    with pytest.raises(DomainError, match="component center"):
        design_matrix(np.array([3 + 0j, 1 + 1j]), comps, spec)


def test_unscaled_power_column_value():
    comps = (disk(1 + 1j, 1.0),)
    spec = ExpansionSpec(degrees=(2,), scaled=False)
    row = design_matrix(comps[0].center + 2.0, comps, spec)[0]
    assert abs(row[2] - 0.5) < 1e-15  # Re((z-c)^-1) at z = c+2
    assert abs(row[3]) < 1e-15


def test_scaled_power_column_unit_magnitude_on_boundary():
    comps = (disk(-2 + 0.5j, 0.35),)
    spec = ExpansionSpec(degrees=(3,), scaled=True)
    for s in range(16):
        z = comps[0].center + comps[0].radius * np.exp(2j * np.pi * s / 16)
        row = design_matrix(z, comps, spec)[0]
        assert abs(math.hypot(row[2], row[3]) - 1.0) < 1e-14


def test_source_only_evaluation():
    exp = source_only()
    assert abs(eval_expansion(exp, complex(math.e, 0)) - 1.0) < 1e-15


def test_eval_rejects_source_point():
    exp = source_only()
    with pytest.raises(DomainError):
        eval_expansion(exp, 0j)
    with pytest.raises(DomainError):
        eval_gradient(exp, 0j)


def test_eval_rejects_on_slit():
    comps = (slit(2.0, 1.0),)
    spec = ExpansionSpec(degrees=(2,))
    exp = Expansion(
        components=comps, spec=spec, vector=[0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        source=0j,
    )
    with pytest.raises(DomainError):
        eval_expansion(exp, 2.5 + 0j)


def test_derivative_rejects_disk_center():
    comps = (disk(1 + 1j, 0.5),)
    exp = Expansion(
        components=comps, spec=ExpansionSpec(degrees=(1,)), vector=[0.0, -1.0, 0.3, 0.0],
        source=0j,
    )
    with pytest.raises(DomainError):
        complex_derivative(exp, 1 + 1j)
    assert type(complex_derivative(exp, 3 + 0j)) is complex


@pytest.mark.parametrize("degree", [0, 2])
def test_eval_rejects_disk_center(degree):
    comps = (disk(1 + 1j, 0.5),)
    exp = Expansion(
        components=comps, spec=ExpansionSpec(degrees=(degree,)),
        vector=[0.0, -1.0] + [0.3, 0.1] * degree, source=0j,
    )
    for z in (1 + 1j, np.array([3 + 0j, 1 + 1j])):
        with pytest.raises(DomainError, match="component center"):
            eval_expansion(exp, z)
        with pytest.raises(DomainError, match="component center"):
            complex_derivative(exp, z)


def test_gradient_of_pure_log():
    exp = source_only()
    assert abs(eval_gradient(exp, 2.0 + 0j) - 0.5) < 1e-15


def test_gradient_of_single_power_term():
    # u = Re(z^-1): grad at i is -1/conj(i)^2 = 1
    comps = (disk(0, 1.0),)
    spec = ExpansionSpec(degrees=(1,), scaled=False)
    exp = Expansion(components=comps, spec=spec, vector=[0.0, 0.0, 1.0, 0.0])
    assert abs(eval_gradient(exp, 1j) - 1.0) < 1e-14


def test_gradient_matches_finite_differences(disk1, slit1):
    prob = green_problem([disk(2 + 1j, 0.5), disk(-2 - 2j, 1.0)], source=0j)
    unscaled = solve_problem(prob, default_spec(prob, degree=12, scaled=False))
    for sol in (disk1, slit1, unscaled):
        pts = domain_points(sol.problem, 100, seed=11)
        grad = eval_gradient(sol.expansion, pts)
        rel = np.abs(grad - fd_gradient(sol.expansion, pts)) / np.abs(grad)
        assert np.max(rel) < 1e-8


def test_scalar_and_array_gradients_agree(slit1):
    pts = domain_points(slit1.problem, 20, seed=3)
    arr = eval_gradient(slit1.expansion, pts)
    for z, g in zip(pts, arr):
        assert abs(eval_gradient(slit1.expansion, complex(z)) - g) < 1e-13 * max(1.0, abs(g))
        assert abs(complex_derivative(slit1.expansion, complex(z)) - g.conjugate()) < 1e-13


def test_harmonicity_stencil(disk1):
    h = 1e-3
    pts = domain_points(disk1.problem, 25, seed=5)
    for z in pts:
        lap = (
            eval_expansion(disk1.expansion, z + h)
            + eval_expansion(disk1.expansion, z - h)
            + eval_expansion(disk1.expansion, z + 1j * h)
            + eval_expansion(disk1.expansion, z - 1j * h)
            - 4 * eval_expansion(disk1.expansion, z)
        ) / h**2
        assert abs(lap) < 1e-5


def test_scaling_invariance():
    prob = green_problem([disk(2 + 1j, 0.5), disk(-2 - 2j, 1.0)], source=0j)
    on = solve_problem(prob, default_spec(prob, degree=12, scaled=True))
    off = solve_problem(prob, default_spec(prob, degree=12, scaled=False))
    pts = domain_points(prob, 20, seed=9)
    du = np.abs(eval_expansion(on.expansion, pts) - eval_expansion(off.expansion, pts))
    assert np.max(du) < 1e-9


def test_far_field_approaches_constant(disk1, three_disks, slit1, two_slits):
    # Slit log columns log(|w|*|halfspan|/2) behave like log|z - c| far away,
    # so C is the limit at infinity for slits too, also beyond |z| of about
    # 1.3e154, where z^2 overflows.
    huge = np.array([1e160, -1e200j, 1e300 * np.exp(2j)])
    for sol in (disk1, three_disks, slit1, two_slits):
        far = eval_expansion(sol.expansion, 1e6 + 0.4e6j)
        assert abs(far - sol.expansion.constant) < 1e-5
        far = eval_expansion(sol.expansion, huge)
        assert np.all(np.abs(far - sol.expansion.constant) < 1e-10)


def test_expansion_rejects_nonfinite_coefficients():
    # A bounded layout has a column in every slot: C, d, a, b, A, B.
    comps = (disk(0, 2.0, role="outer"), disk(0.5, 0.3))
    spec = ExpansionSpec(degrees=(1, 1))
    assert column_layout(comps, spec) == (slice(2, 4), slice(4, 6))
    Expansion(comps, spec, [0.0] * 6)
    for slot in range(6):
        for bad in (math.nan, math.inf, -math.inf):
            vec = [0.0] * 6
            vec[slot] = bad
            with pytest.raises(ValueError, match="finite"):
                Expansion(comps, spec, vec)
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            Expansion(comps, spec, [0.0] * 6, source=bad)
    for wrong in ([0.0] * 5, [0.0] * 7, [[0.0] * 6], 0.0):
        with pytest.raises(ValueError, match="6 columns"):
            Expansion(comps, spec, wrong)


def test_vector_round_trip(three_disks):
    # The solve's vector is stored as it came out of the solve, and an
    # expansion built from the stored vector equals the original.
    exp = three_disks.expansion
    prob, npts = three_disks.problem, three_disks.fit_report.npts
    A, b = assemble_system(prob, exp.spec, npts)
    x = solve_with_log_sum(A, b, len(prob.components), -1.0)
    assert np.array_equal(exp.vector, x)
    again = Expansion(exp.components, exp.spec, exp.vector, exp.source)
    assert again == exp and hash(again) == hash(exp)
    vec = exp.vector.copy()
    vec[-1] = np.nextafter(vec[-1], np.inf)
    assert Expansion(exp.components, exp.spec, vec, exp.source) != exp
    assert Expansion(exp.components, exp.spec, exp.vector, exp.source + 0.5) != exp


def test_vector_is_read_only_and_owned():
    comps = (disk(0, 2.0, role="outer"), disk(0.5, 0.3))
    given = np.arange(6.0)
    exp = Expansion(comps, ExpansionSpec(degrees=(1, 1)), given)
    with pytest.raises(ValueError, match="read-only"):
        exp.vector[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        exp.blocks[0][0] = 1.0
    given[:] = -1.0  # the expansion keeps its own copy
    assert exp.vector.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_coefficients_are_views_of_the_vector(two_slits, evaluator_cases):
    for sol in (two_slits, *evaluator_cases):
        exp = sol.expansion
        layout = column_layout(exp.components, exp.spec)
        assert exp.constant == exp.vector[0] and type(exp.constant) is float
        assert np.shares_memory(exp.log_coeffs, exp.vector)
        assert np.array_equal(exp.log_coeffs, exp.vector[1 : layout[0].start])
        assert len(exp.blocks) == len(layout)
        for blk, cols in zip(exp.blocks, layout):
            assert blk.size == 0 or np.shares_memory(blk, exp.vector)
            assert np.array_equal(blk.real, exp.vector[cols][::2])
            assert np.array_equal(blk.imag, exp.vector[cols][1::2])


def test_column_layout_orders_the_blocks():
    # C, one d per inner component, the inner blocks' pairs in component
    # order (an empty block for degree 0), the outer block's pairs last.
    comps = (disk(0, 9.0, role="outer"), slit(1 + 1j, 0.6j), disk(-1.5, 0.5), slit(2 - 3j, 0.7))
    spec = ExpansionSpec(degrees=(4, 3, 0, 2))
    layout = column_layout(comps, spec)
    assert [(b.start, b.stop) for b in layout] == [(4, 10), (10, 10), (10, 14), (14, 22)]
    assert [(m.j, m.kind) for m in _block_maps(comps, spec)] == [
        (1, "slit"), (2, "disk"), (3, "slit"), (0, OUTER)
    ]


def test_layout_is_formed_once_per_geometry():
    # A list and a tuple of the same components share one cached layout and
    # one set of maps, and neither can be changed in place.
    comps = (disk(0, 9.0, role="outer"), slit(1 + 1j, 0.6j), disk(-1.5, 0.5))
    spec = ExpansionSpec(degrees=(2, 3, 1))
    assert column_layout(list(comps), spec) is column_layout(comps, spec)
    maps = _block_maps(comps, spec)
    assert _block_maps(list(comps), spec) is maps
    assert isinstance(maps, tuple) and all(isinstance(m, tuple) for m in maps)
    assert isinstance(column_layout(comps, spec), tuple)
    # Another spec on the same components is another layout.
    other = ExpansionSpec(degrees=(2, 3, 1), scaled=False)
    assert _block_maps(comps, other) != maps
    assert column_layout(comps, other) == column_layout(comps, spec)


@pytest.fixture(scope="module")
def evaluator_cases(disk1, slit1):
    """Scaled disk, unscaled disks, slit, and a source-free bounded problem
    whose outer block carries positive powers; then blocks of mixed degrees,
    so the evaluator's stacked series table pads rows: a degree-0 disk
    among unscaled disks and a slit, and a bounded problem whose outer
    degree differs from every inner one, with a degree-0 slit."""
    prob = green_problem([disk(2 + 1j, 0.5), disk(-2 - 2j, 1.0)], source=0j)
    unscaled = solve_problem(prob, default_spec(prob, degree=12, scaled=False))
    bounded = Problem(
        (disk(0, 6.0, role="outer"), disk(-2 + 1j, 0.8), slit(2 - 1j, 1 + 0.3j)),
        "bounded", None, (0.0, 1.0, -0.5),
    )
    mixed = green_problem([disk(2 + 1j, 0.5), disk(-2 - 2j, 1.0), slit(0.5 + 2.5j, 0.7 + 0.2j)],
                          source=0j)
    return [
        disk1, unscaled, slit1, solve_problem(bounded, default_spec(bounded, degree=10)),
        solve_problem(mixed, ExpansionSpec(degrees=(0, 9, 5), scaled=False)),
        solve_problem(bounded, ExpansionSpec(degrees=(14, 3, 0), scaled=False)),
    ]


def _reference_zeta(exp, comp, z):
    """A block's variable from its component alone, as the module docstring
    writes it: (z - c)/r or z - c for a disk, the inverse slit map for a slit."""
    if comp.kind == "disk":
        return (z - comp.center) / comp.radius if exp.spec.scaled else z - comp.center
    return joukowski_inverse(comp.center, comp.halfspan, z)


def _reference_terms(exp):
    """(component, log coefficient, c_k = a_k - i b_k) per block, in column order."""
    layout = column_layout(exp.components, exp.spec)
    cs = [exp.vector[cols][::2] - 1j * exp.vector[cols][1::2] for cols in layout]
    inner = [c for c in exp.components if c.role == "inner"]
    outer = [c for c in exp.components if c.role == "outer"]
    return list(zip(inner + outer, [*exp.log_coeffs, 0.0], cs))


def _reference_u(exp, z):
    """u from power tables, term by term as the module docstring writes it."""
    u = np.full(z.shape, exp.constant)
    if exp.source_strength != 0.0:
        u += exp.source_strength * np.log(np.abs(z - exp.source))
    for comp, d, c in _reference_terms(exp):
        if comp.role == "outer":
            u += (_powers((z - comp.center) / comp.radius, c.size) @ c).real
            continue
        zeta = _reference_zeta(exp, comp, z)
        if comp.kind == "disk":
            u += d * np.log(np.abs(z - comp.center))
        else:
            u += d * np.log(np.abs(zeta) * abs(comp.halfspan) / 2.0)
        u += (_powers(1.0 / zeta, c.size) @ c).real
    return u


def _reference_fprime(exp, z):
    """f' from power tables, term by term as the module docstring writes it."""
    fp = np.zeros_like(z)
    if exp.source_strength != 0.0:
        fp += exp.source_strength / (z - exp.source)
    for comp, d, c in _reference_terms(exp):
        n = c.size
        if comp.role == "outer":
            if n:
                t = (z - comp.center) / comp.radius
                powers = np.concatenate([np.ones((z.size, 1)), _powers(t, n - 1)], axis=1)
                fp += powers @ (np.arange(1, n + 1) * c) / comp.radius
            continue
        zeta = _reference_zeta(exp, comp, z)
        if comp.kind == "disk":
            dlog = 1.0 / (z - comp.center)
        else:
            dlog = 2.0 / (comp.halfspan * (1.0 - zeta**-2) * zeta)
        fp += (d - _powers(1.0 / zeta, n) @ (np.arange(1, n + 1) * c)) * dlog
    return fp


def _exact_powers(t, n):
    """t^k for k = 1..n, each computed exactly in Gaussian integers and
    rounded once (Python's int / int is correctly rounded)."""
    out = np.empty((t.size, n), dtype=complex)
    for i, v in enumerate(t.tolist()):
        (a, qa), (b, qb) = v.real.as_integer_ratio(), v.imag.as_integer_ratio()
        q = max(qa, qb)  # both powers of two, so v = (a' + i b') / q exactly
        a, b = a * (q // qa), b * (q // qb)
        x, y, d = 1, 0, 1
        for k in range(n):
            x, y, d = x * a - y * b, x * b + y * a, d * q
            out[i, k] = complex(x / d, y / d)
    return out


def test_powers_table():
    # The reference helper of the evaluator tests, checked on its own: each
    # column k is t^k within the rounding of k - 1 complex products (each at
    # most sqrt(5) u relative) plus the reference's own rounding (u).
    rng = np.random.default_rng(9)
    t = rng.uniform(0.05, 1.0, 4096) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4096))
    t[:6] = [0, 1, -1, 1j, -1j, 0.5 - 0.25j]
    exact = _exact_powers(t, 20)
    u = np.finfo(float).eps / 2
    for n in (0, 1, 2, 7, 20):
        p = _powers(t, n)
        assert p.shape == (4096, n) and p.dtype == complex and p.flags.f_contiguous
        k = np.arange(1, n + 1)
        tol = ((k - 1) * math.sqrt(5) + 1) * u * np.abs(exact[:, :n])
        assert np.all(np.abs(p - exact[:, :n]) <= tol)
    assert np.array_equal(_powers(t, 7)[:6, :4], exact[:6, :4])  # exact inputs stay exact


def test_evaluator_matches_design_matrix(evaluator_cases):
    # The evaluator and the assembled columns against each other and against
    # references that map each component themselves, to rounding.
    def close(got, ref):
        return np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    for sol in evaluator_cases:
        exp = sol.expansion
        pts = domain_points(sol.problem, 200, seed=21)
        ref = design_matrix(pts, exp.components, exp.spec) @ exp.vector
        if exp.source_strength != 0.0:
            ref += exp.source_strength * np.log(np.abs(pts - exp.source))
        u_ref, fp_ref = _reference_u(exp, pts), _reference_fprime(exp, pts)
        u, fp = _evaluate(exp, pts, True, True)
        assert close(eval_expansion(exp, pts), ref)
        assert close(u, u_ref) and close(ref, u_ref)
        assert close(complex_derivative(exp, pts), fp_ref) and close(fp, fp_ref)


def test_scalar_and_array_evaluations_agree(evaluator_cases):
    tol = 4 * np.finfo(float).eps
    for sol in evaluator_cases:
        exp = sol.expansion
        pts = domain_points(sol.problem, 20, seed=23)
        u, fp = _evaluate(exp, pts, True, True)
        for z, uz, fz in zip(pts, u, fp):
            us, fs = _evaluate(exp, complex(z), True, True)
            assert type(us) is float and type(fs) is complex
            assert abs(us - uz) <= tol * max(1.0, abs(uz))
            assert abs(fs - fz) <= tol * max(1.0, abs(fz))


def test_one_call_gives_both_values_bit_for_bit(evaluator_cases):
    for sol in evaluator_cases:
        exp = sol.expansion
        pts = domain_points(sol.problem, 50, seed=25)
        u, fp = _evaluate(exp, pts, True, True)
        assert np.array_equal(u, eval_expansion(exp, pts))
        assert np.array_equal(fp, complex_derivative(exp, pts))
        assert _evaluate(exp, pts, True, False)[1] is None
        assert _evaluate(exp, pts, False, True)[0] is None


def test_evaluation_in_any_grouping_agrees(evaluator_cases):
    # One call over more than three chunks' worth of points, then the same
    # points in pieces of other sizes, down to one scalar call per point: the
    # per-point series sums may round differently, by at most 2 eps.
    tol = 2 * np.finfo(float).eps
    for sol in evaluator_cases[4:]:  # disks and a slit; bounded, mixed degrees
        exp = sol.expansion
        pts = domain_points(sol.problem, 3 * _CHUNK_POINTS + 5, seed=27)
        u, fp = _evaluate(exp, pts, True, True)
        for size in (1, 7, 1000, _CHUNK_POINTS + 1):
            pieces = [_evaluate(exp, pts[i] if size == 1 else pts[i : i + size], True, True)
                      for i in range(0, pts.size, size)]
            up, fpp = (np.hstack(v) for v in zip(*pieces))
            assert np.all(np.abs(up - u) <= tol * np.maximum(1.0, np.abs(u)))
            assert np.all(np.abs(fpp - fp) <= tol * np.maximum(1.0, np.abs(fp)))


def test_powers_past_a_block_degree_are_not_read():
    # Near an unscaled disk of radius 1e-3, t = 1/(z - c) reaches 667, so its
    # powers overflow long before the other block's degree 110.  Each degree
    # has its own power table, so none is formed past the disk's degree 2;
    # an overflow warning would fail the test (pyproject.toml's filterwarnings).
    prob = green_problem([disk(0j, 1e-3), disk(3 + 0j, 1.0)], source=1.5 + 1j)
    exp = solve_problem(prob, ExpansionSpec(degrees=(2, 110), scaled=False)).expansion
    pts = np.array([0.0015 + 0j, 0.5 - 0.5j, -2 + 1j])
    u, fp = _evaluate(exp, pts, True, True)
    ref = design_matrix(pts, exp.components, exp.spec) @ exp.vector
    ref += exp.source_strength * np.log(np.abs(pts - exp.source))
    assert np.all(np.abs(u - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    fp_ref = _reference_fprime(exp, pts)
    assert np.all(np.abs(fp - fp_ref) <= 1e-13 * np.maximum(1.0, np.abs(fp_ref)))
    assert np.isfinite(eval_gradient(exp, np.array([0.0011j]))).all()


def test_expansions_on_one_geometry_keep_their_own_plans(evaluator_cases):
    # Same components and spec, different vectors, evaluated in alternation:
    # each gives, bit for bit, what it gives evaluated alone.
    sol = evaluator_cases[4]
    pts = domain_points(sol.problem, 40, seed=29)
    exps = [sol.expansion, _copy(sol.expansion, 0.5 * sol.expansion.vector + 0.25)]
    alone = [_evaluate(_copy(e), pts, True, True) for e in exps]
    assert not np.array_equal(alone[0][0], alone[1][0])
    for _ in range(2):
        for e, (u, fp) in zip(exps, alone):
            ue, fe = _evaluate(e, pts, True, True)
            assert np.array_equal(ue, u) and np.array_equal(fe, fp)


def test_plan_leaves_equality_hash_replace_and_pickle_alone(evaluator_cases):
    sol = evaluator_cases[3]  # bounded: an outer block as well as inner ones
    pts = domain_points(sol.problem, 30, seed=31)
    exp = _copy(sol.expansion)
    state, key = pickle.dumps(exp), hash(exp)
    u, fp = _evaluate(exp, pts, True, True)  # builds the plan
    assert "_plan" in vars(exp) and "_plan" not in repr(exp)
    assert exp == sol.expansion and hash(exp) == key
    assert pickle.dumps(exp) == state
    back = pickle.loads(state)
    assert back == exp and hash(back) == key and not back.vector.flags.writeable
    assert all(np.shares_memory(b, back.vector) for b in back.blocks if b.size)
    ub, fb = _evaluate(back, pts, True, True)
    assert np.array_equal(ub, u) and np.array_equal(fb, fp)
    assert dataclasses.replace(exp) == exp
    vec = exp.vector * 2.0
    changed = dataclasses.replace(exp, vector=vec)
    assert changed != exp and changed == _copy(exp, vec)
    uc, fc = _evaluate(changed, pts, True, True)
    ur, fr = _evaluate(_copy(exp, vec), pts, True, True)
    assert np.array_equal(uc, ur) and np.array_equal(fc, fr)
    assert not np.array_equal(uc, u)


def test_first_evaluation_matches_later_ones(evaluator_cases):
    # The call that builds the plan gives the same bits as the calls that
    # reuse it, for u, f' and both.
    for sol in evaluator_cases:
        pts = domain_points(sol.problem, 25, seed=33)
        for want in ((True, True), (True, False), (False, True)):
            first = _evaluate(_copy(sol.expansion), pts, *want)
            again = _evaluate(sol.expansion, pts, *want)
            for a, b in zip(first, again):
                assert (a is None and b is None) or np.array_equal(a, b)
