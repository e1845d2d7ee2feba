import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from cbie import solver
from cbie.assembly import BCSpec, assemble, compactness_probe
from cbie.conditions import BoundaryTrace, build_operators
from cbie.errors import DomainError, NumericError
from cbie.geometry import lens_domain
from cbie.manufactured import canonical_solutions, eval_solution, make_bc, make_trace
from cbie.quadrature import build_rule
from cbie.solver import (
    default_interior_grid,
    reconstruct_interior,
    solve_problem,
    solve_system,
    trace_from_solution,
)


def _window_trace_error(report, spec, domain, rule, delta=0.2):
    x = rule.nodes
    mask = (x >= domain.a1 + delta) & (x <= domain.b1 - delta)
    u1e = eval_solution(spec, x, np.asarray(domain.lower.value(x), dtype=float))[0]
    u2e = eval_solution(spec, x, np.asarray(domain.upper.value(x), dtype=float))[0]
    return max(np.max(np.abs((report.u_lower - u1e)[mask])),
               np.max(np.abs((report.u_upper - u2e)[mask])))


# ---------------------------------------------------------------------------
# solve_system
# ---------------------------------------------------------------------------

def _lens_system(lens, n):
    rule = build_rule("gauss-legendre", n, -1, 1)
    return assemble(lens, make_bc(canonical_solutions()["z2"], lens, 1.0, 2.0, rule), rule)


def test_identity_system_solved_exactly(lens):
    # the LU of the identity is exact; the residual is the assembled
    # system's at that solution, read from the conditions, not the matrix
    system = _lens_system(lens, 8)
    dense = np.max(np.abs(system.matrix @ system.rhs - system.rhs))
    system.matrix = np.eye(16, dtype=complex)
    report = solve_system(system)
    assert np.array_equal(np.concatenate([report.u_lower, report.u_upper]), system.rhs)
    assert report.method == "direct"
    assert report.condition_estimate == 1.0
    assert report.residual_norm == pytest.approx(dense, rel=1e-12)


def test_exactly_singular_system_falls_back(lens):
    system = _lens_system(lens, 4)
    system.matrix = np.eye(8, dtype=complex)
    system.matrix[3] = 0.0
    report = solve_system(system)
    assert report.method == "least-squares-fallback"
    assert report.condition_estimate == np.inf


def test_nonfinite_system_rejected(lens):
    system = _lens_system(lens, 4)
    system.matrix[2, 2] = np.nan
    with pytest.raises(NumericError):
        solve_system(system)


@pytest.mark.parametrize("bad", [np.inf, complex(0.0, np.nan), complex(-np.inf, 1.0)])
def test_nonfinite_entry_rejected_before_the_matrix_is_written(lens, bad):
    # the 1-norm's column sums find the entry: the matrix is not transposed
    # or factored, and a non-finite rhs is rejected as before
    system = _lens_system(lens, 4)
    system.matrix[5, 1] = bad
    before = system.matrix.copy()
    with pytest.raises(NumericError, match="non-finite"):
        solve_system(system)
    assert np.array_equal(system.matrix, before, equal_nan=True)
    system = _lens_system(lens, 4)
    system.rhs[6] = bad
    with pytest.raises(NumericError, match="non-finite"):
        solve_system(system)


def test_solve_drops_the_factored_matrix(lens):
    # the matrix buffer holds the factors after the solve: the system keeps
    # no reference to it, and the fallback assembles the matrix again
    for alphas, method in (((1.0, 2.0), "direct"), ((1.0, 1.0), "least-squares-fallback")):
        rule = build_rule("gauss-legendre", 32, -1, 1)
        bc = make_bc(canonical_solutions()["z2"], lens, *alphas, rule)
        system = assemble(lens, bc, rule)
        matrix = system.matrix.copy()
        report = solve_system(system, cond_threshold=1e6)
        assert report.method == method and system.matrix is None
        sol = np.concatenate([report.u_lower, report.u_upper])
        if method == "direct":
            expected = np.linalg.solve(matrix, system.rhs)
            assert np.max(np.abs(sol - expected)) <= 1e-10 * np.max(np.abs(expected))
        else:
            assert np.array_equal(sol, np.linalg.lstsq(matrix, system.rhs, rcond=None)[0])
        dense = np.max(np.abs(matrix @ sol - system.rhs))
        assert abs(report.residual_norm - dense) <= 1e-12 * max(1.0, np.max(np.abs(system.rhs)))


def test_constant_recovery_well_posed(lens):
    # alpha pair (1, 2) is away from the resonance: traces recovered sharply
    rule = build_rule("gauss-legendre", 64, -1, 1)
    c = 1.7 + 0.3j
    bc = BCSpec(1.0, 2.0, lambda x: 1.0 * c + 0 * np.asarray(x),
                lambda x: 2.0 * c + 0 * np.asarray(x))
    report = solve_system(assemble(lens, bc, rule))
    assert report.method == "direct"
    assert np.max(np.abs(report.u_lower - c)) <= 1e-8
    assert np.max(np.abs(report.u_upper - c)) <= 1e-8


def test_probe_condition_estimate_is_the_solves(lens, solutions):
    # the probe's own LU factors a copy, leaving the matrix as assembled, and
    # gives the estimate that the solve's LU then gives
    rule = build_rule("gauss-legendre", 32, -1, 1)
    bc = make_bc(solutions["z2"], lens, 1.0, 2.0, rule)
    system = assemble(lens, bc, rule)
    matrix = system.matrix.copy()
    standalone = compactness_probe(system).condition_estimate
    assert np.array_equal(system.matrix, matrix)
    report = solve_system(system)
    assert report.condition_estimate == standalone


def test_equal_alphas_hit_resonance_and_fall_back(lens):
    # alpha1 == alpha2 == a admits the homogeneous solution exp(-a z): the
    # condition estimate must blow past the threshold and flag the fallback
    rule = build_rule("gauss-legendre", 64, -1, 1)
    c = 1.0 + 0j
    bc = BCSpec(1.0, 1.0, lambda x: c + 0 * np.asarray(x),
                lambda x: c + 0 * np.asarray(x))
    system = assemble(lens, bc, rule)
    # the analytic null direction really sits in the numerical null space
    # (read before the solve, which factors the matrix in place)
    x = rule.nodes
    z1 = -(1 - x * x) + 1j * x
    z2 = (1 - x * x) + 1j * x
    null = np.concatenate([np.exp(-z1), np.exp(-z2)])
    rel = np.linalg.norm(system.matrix @ null) / np.linalg.norm(null)
    assert rel <= 1e-6
    report = solve_system(system, cond_threshold=1e6)
    assert report.method == "least-squares-fallback"
    assert report.condition_estimate > 1e6


def test_direct_and_lstsq_agree_when_well_conditioned(lens):
    rule = build_rule("gauss-legendre", 48, -1, 1)
    spec = canonical_solutions()["z"]
    bc = make_bc(spec, lens, 1.0, 2.0, rule)
    system = assemble(lens, bc, rule)
    direct = np.linalg.solve(system.matrix, system.rhs)
    lstsq = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)[0]
    assert np.max(np.abs(direct - lstsq)) <= 1e-8


# ---------------------------------------------------------------------------
# interior reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_constant(lens, solutions):
    rule = build_rule("gauss-legendre", 128, -1, 1)
    tr = make_trace(solutions["const"], lens, rule)
    for pt in [(0.0, 0.0), (0.3, -0.4), (-0.5, 0.2)]:
        assert abs(reconstruct_interior(lens, tr, pt) - 1.0) <= 1e-6


def test_reconstruct_linear_solution_value(lens, solutions):
    rule = build_rule("gauss-legendre", 256, -1, 1)
    tr = make_trace(solutions["z"], lens, rule)
    val = reconstruct_interior(lens, tr, (0.0, 0.2))
    assert abs(val - 0.2) <= 1e-3


@pytest.mark.parametrize("name", ["z", "z2", "z2_plus_cubic", "exp_half"])
def test_reconstruct_manufactured(lens, solutions, name):
    rule = build_rule("gauss-legendre", 128, -1, 1)
    tr = make_trace(solutions[name], lens, rule)
    for pt in [(0.1, 0.2), (-0.3, -0.5), (0.0, 0.6)]:
        exact = complex(eval_solution(solutions[name], pt[0], pt[1])[0])
        assert abs(reconstruct_interior(lens, tr, pt) - exact) <= 1e-10


def test_reconstruct_linearity(lens, solutions):
    rule = build_rule("gauss-legendre", 64, -1, 1)
    t1 = make_trace(solutions["z"], lens, rule)
    t2 = make_trace(solutions["z2"], lens, rule)
    combined = BoundaryTrace(
        rule,
        t1.u_lower + t2.u_lower, t1.u_upper + t2.u_upper,
        t1.du_lower + t2.du_lower, t1.du_upper + t2.du_upper,
    )
    pt = (0.2, -0.3)
    v = reconstruct_interior(lens, combined, pt)
    v1 = reconstruct_interior(lens, t1, pt)
    v2 = reconstruct_interior(lens, t2, pt)
    assert v == pytest.approx(v1 + v2, abs=1e-12)


def test_reconstruct_many_points_matches_one_at_a_time(lens, solutions):
    rule = build_rule("gauss-legendre", 64, -1, 1)
    tr = make_trace(solutions["exp_half"], lens, rule)
    pts = default_interior_grid(lens)
    many = reconstruct_interior(lens, tr, pts)
    one = [reconstruct_interior(lens, tr, pt) for pt in pts]
    assert many.shape == (len(pts),)
    assert np.max(np.abs(many - np.asarray(one))) <= 1e-14
    assert reconstruct_interior(lens, tr, []).shape == (0,)


def test_solve_problem_builds_the_running_integral_once(lens, solutions, monkeypatch):
    import cbie.solver

    original = cbie.solver.partial_integral_matrix
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cbie.solver, "partial_integral_matrix", counting)
    rule = build_rule("gauss-legendre", 32, -1, 1)
    report = solve_problem(lens, make_bc(solutions["z2"], lens, 1.0, 2.0, rule), rule)
    assert len(report.interior_samples) == 20
    assert len(calls) == 1


def test_reconstruct_outside_raises(lens, solutions):
    rule = build_rule("gauss-legendre", 32, -1, 1)
    tr = make_trace(solutions["z"], lens, rule)
    with pytest.raises(DomainError):
        reconstruct_interior(lens, tr, (0.0, 1.5))
    with pytest.raises(DomainError):
        reconstruct_interior(lens, tr, (0.0, 1.0))  # on the boundary
    with pytest.raises(DomainError):
        reconstruct_interior(lens, tr, [(0.0, 0.0), (0.0, 1.5)])


def test_default_interior_grid(lens):
    pts = default_interior_grid(lens)
    assert len(pts) == 20  # 5 x 4, all inside for the lens
    for (x1, x2) in pts:
        assert lens.contains(x1, x2)
    assert max(abs(p[0]) for p in pts) == pytest.approx(0.6, abs=1e-3)
    assert max(abs(p[1]) for p in pts) == pytest.approx(0.6, abs=1e-3)


def test_near_boundary_reconstruction_approaches_trace(lens, solutions):
    # the representation is continuous up to the boundary: values at points
    # approaching the lower curve approach the trace value there
    rule = build_rule("gauss-legendre", 256, -1, 1)
    spec = solutions["z2"]
    tr = make_trace(spec, lens, rule)
    x1 = 0.3
    target = complex(eval_solution(spec, x1, -(1 - x1 * x1))[0])
    errs = []
    for eps in (0.2, 0.1, 0.05):
        x2 = -(1 - x1 * x1) + eps
        errs.append(abs(reconstruct_interior(lens, tr, (x1, x2)) - target))
    assert errs[0] > errs[-1]


# ---------------------------------------------------------------------------
# end-to-end solve and sweeps
# ---------------------------------------------------------------------------

def test_solve_problem_quadratic(lens, solutions):
    spec = solutions["z2"]
    rule = build_rule("gauss-legendre", 256, -1, 1)
    bc = make_bc(spec, lens, 1.0, 2.0, rule)
    report = solve_problem(lens, bc, rule)
    assert report.method == "direct"
    assert report.condition_estimate <= 1e6
    assert _window_trace_error(report, spec, lens, rule) <= 1e-2
    worst = 0.0
    for (pt, val) in report.interior_samples:
        exact = complex(eval_solution(spec, pt[0], pt[1])[0])
        worst = max(worst, abs(val - exact))
    assert worst <= 1e-2


def test_trace_from_solution_eliminates_du(lens, solutions):
    spec = solutions["z2"]
    rule = build_rule("gauss-legendre", 64, -1, 1)
    bc = make_bc(spec, lens, 1.0, 2.0, rule)
    report = solve_problem(lens, bc, rule)
    tr = trace_from_solution(rule, bc, report.u_lower, report.u_upper)
    exact = make_trace(spec, lens, rule)
    assert np.max(np.abs(tr.du_lower - exact.du_lower)) <= 1e-6


def test_midpoint_solve_interior_samples(solutions):
    # a global polynomial through 192 equispaced nodes put interior errors
    # of up to 7.3 on this solve, whose traces are good to 1e-3
    spec = solutions["z2"]
    domain = lens_domain(0.8)
    rule = build_rule("midpoint-uniform", 192, -1, 1)
    report = solve_problem(domain, make_bc(spec, domain, 1.0, 2.0, None), rule)
    assert len(report.interior_samples) > 0
    for (pt, val) in report.interior_samples:
        assert abs(val - complex(eval_solution(spec, pt[0], pt[1])[0])) <= 2e-3


def test_solve_leaves_the_rule_its_fields_only(lens, solutions):
    # the Legendre transform is formed where it is used and kept by no one:
    # after a solve the rule holds its dataclass fields and nothing else
    rule = build_rule("gauss-legendre", 64, -1, 1)
    solve_problem(lens, make_bc(solutions["z2"], lens, 1.0, 2.0, None), rule)
    assert set(vars(rule)) == {f.name for f in fields(rule)}


def test_solve_samples_the_curves_once(lens, solutions):
    # assembly builds the cache entry, and the residual and the interior
    # reconstruction read it again: one miss and two hits per solve, and the
    # entry holds the O(N) node samples only, no kernel block or bundle
    n = 32
    rule = build_rule("gauss-legendre", n, -1, 1)
    bc = make_bc(solutions["z2"], lens, 1.0, 2.0, None)
    build_operators.cache_clear()
    solve_problem(lens, bc, rule)
    info = build_operators.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    ops = build_operators(lens, rule)
    arrays = [getattr(ops, f.name) for f in fields(ops)[1:]]
    assert arrays and all(np.shape(a) == (n,) for a in arrays)


def test_solve_holds_only_the_matrix_after_assembly(lens, solutions, monkeypatch):
    # past assembly a solve holds the matrix, factored in its own buffer,
    # and O(N) arrays: no LU copy (2.03 matrices with one) and no kernel
    # block outlives assembly (a held bundle would be about 1.9 matrices)
    bc = make_bc(solutions["z2"], lens, 1.0, 2.0, None)
    solve_problem(lens, bc, build_rule("gauss-legendre", 128, -1, 1))  # imports, LAPACK lookups
    # a fresh rule equal to the warm-up's: anything the solve kept on it counts
    rule = build_rule("gauss-legendre", 128, -1, 1)
    build_operators.cache_clear()
    sizes = []
    solve_system = solver.solve_system

    def after_assembly(system, *args):
        sizes.append(system.matrix.nbytes)
        tracemalloc.reset_peak()
        return solve_system(system, *args)

    monkeypatch.setattr(solver, "solve_system", after_assembly)
    tracemalloc.start()
    try:
        solve_problem(lens, bc, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sizes[0], peak / sizes[0]  # 1.08 here
