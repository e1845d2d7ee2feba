"""The dense linear algebra: the LU with its condition estimate, the LU
solve, both LAPACK bindings, and the Golub-Kahan-Lanczos spectrum probe."""

import tracemalloc

import numpy as np
import pytest

from cbie import linalg
from cbie.assembly import assemble
from cbie.errors import NumericError, ShapeError
from cbie.geometry import CurveDescriptor, PlaneDomain
from cbie.linalg import PROBE_K, PROBE_TOL, lu_condition, lu_solve, probe_spectrum
from cbie.manufactured import make_bc
from cbie.quadrature import build_rule

# closes at x1 = -1 and 1: gamma_2 - gamma_1 = 2 (1 - x^2)(1 + 0.2 x)
CLOSING_CUBIC = PlaneDomain(-1.0, 1.0,
                            lower=CurveDescriptor("polynomial", (-0.9, -0.1, 0.9, 0.1)),
                            upper=CurveDescriptor("polynomial", (1.1, 0.3, -1.1, -0.3)))


# ---------------------------------------------------------------------------
# spectrum probe
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [64, 300])
def test_probe_of_a_rank_3_operator(dim):
    # K = P Q^H: the Lanczos probe finds its 3 values, then breaks down, and
    # the other PROBE_K - 3 are exact zeros
    rng = np.random.default_rng(dim)
    p, q = (rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
            for _ in range(2))
    k = p @ q.conj().T
    sv, ratios = probe_spectrum(np.eye(dim) + k)
    dense = np.linalg.svd(k, compute_uv=False)[:3]
    assert len(sv) == PROBE_K
    assert np.allclose(sv[:3], dense, rtol=1e-12, atol=0)
    assert np.all(sv[3:] == 0.0)
    assert ratios == {5: 0.0, 10: 0.0, 20: 0.0}


def test_probe_of_repeated_values():
    # K = 2 W, W unitary: one Lanczos start finds one copy of the value 2,
    # and each fresh start another
    dim = 96
    w = np.linalg.qr(np.random.default_rng(5).standard_normal((dim, dim)))[0]
    sv, ratios = probe_spectrum(np.eye(dim) + 2.0 * w)
    assert np.allclose(sv, 2.0, rtol=1e-13, atol=0)
    assert ratios == pytest.approx({5: 1.0, 10: 1.0, 20: 1.0}, rel=1e-13)


@pytest.mark.parametrize("case", ["midpoint-lens", "cubic-complex-alpha"])
def test_probe_lanczos_path_matches_dense_svd(lens, solutions, case):
    if case == "midpoint-lens":
        domain, rule, alphas = lens, build_rule("midpoint-uniform", 96, -1, 1), (1.0, 2.0)
    else:
        domain = CLOSING_CUBIC
        rule, alphas = build_rule("gauss-legendre", 64, -1, 1), (0.7 + 0.2j, 1.5)
    matrix = assemble(domain, make_bc(solutions["z2"], domain, *alphas, rule), rule).matrix
    assert matrix.shape[0] > 3 * PROBE_K  # not the dense path
    dense = np.linalg.svd(matrix - np.eye(2 * rule.n), compute_uv=False)[:PROBE_K]
    sv, ratios = probe_spectrum(matrix)
    assert np.allclose(sv, dense, rtol=1e-12, atol=0)
    for m, ratio in ratios.items():
        assert ratio == pytest.approx(dense[m - 1] / dense[0], rel=1e-12, abs=0)


@pytest.mark.parametrize("alphas", [(1e-8, 2.0), (1e-10, 2.0), (1.0, 1e-8)])
def test_probe_of_values_spanning_many_decades(lens, solutions, alphas):
    # a boundary constant far below 1 spreads K's values over many decades
    # (sigma_20 / sigma_1 ~ 1e-6 at 1e-8): one-sided reorthogonalization
    # lost U's orthogonality there, and eigh of B B^T, which squares the
    # spread, is off by up to 8e-13 sigma_1 (PROBE_TOL = 1e-14)
    rule = build_rule("gauss-legendre", 64, -1, 1)
    matrix = assemble(lens, make_bc(solutions["z2"], lens, *alphas, rule), rule).matrix
    dense = np.linalg.svd(matrix - np.eye(2 * rule.n), compute_uv=False)[:PROBE_K]
    sv = probe_spectrum(matrix)[0]
    assert dense[PROBE_K - 1] <= 1e-4 * dense[0]
    assert np.max(np.abs(sv - dense)) <= 2 * PROBE_TOL * dense[0]


def test_probe_raises_on_a_non_finite_coefficient():
    matrix = np.eye(100, dtype=complex) + np.diag(np.linspace(1.0, 2.0, 100))
    matrix[7, 3] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        linalg._golub_kahan(matrix, 2)


def test_probe_is_deterministic_and_reads_only(lens, solutions):
    rule = build_rule("gauss-legendre", 64, -1, 1)
    matrix = assemble(lens, make_bc(solutions["z2"], lens, 1.0, 2.0, rule), rule).matrix
    before = matrix.copy()
    first, second = probe_spectrum(matrix)[0], probe_spectrum(matrix)[0]
    assert first.tobytes() == second.tobytes()
    assert np.array_equal(matrix, before)


def test_probe_raises_at_its_krylov_cap():
    # 100 values evenly spread over [1, 2]: the 2 largest do not converge
    # to PROBE_TOL within the 10 k = 20 steps
    matrix = np.eye(100) + np.diag(np.linspace(1.0, 2.0, 100)).astype(complex)
    with pytest.raises(NumericError, match="20 Lanczos steps"):
        linalg._golub_kahan(matrix, 2)


# ---------------------------------------------------------------------------
# LU, condition estimate and solve
# ---------------------------------------------------------------------------

def test_lu_condition_factors_in_place(lens, solutions):
    # the factors are written over the matrix: the factorization allocates
    # no copy of it (and the 1-norm, summed row by row, no |A|), and gives
    # lu_factor's factors and numpy's 1-norm estimate, bit for bit
    from scipy.linalg import get_lapack_funcs, lu_factor

    rule = build_rule("gauss-legendre", 128, -1, 1)
    m = assemble(lens, make_bc(solutions["z2"], lens, 1.0, 2.0, rule), rule).matrix
    lu_condition(m.copy())  # warm-up: imports and LAPACK lookups
    a = m.copy()
    tracemalloc.start()
    try:
        factors, cond = lu_condition(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * m.nbytes, peak / m.nbytes
    assert np.shares_memory(factors[0], a)
    lu, piv = lu_factor(m)
    assert np.array_equal(factors[0], lu) and np.array_equal(factors[1], piv)
    gecon = get_lapack_funcs("gecon", (lu,))
    assert cond == 1.0 / gecon(lu, np.linalg.norm(m, 1), norm="1")[0]


@pytest.mark.parametrize("n", [1, 5, 128, 300])
def test_lu_condition_transposes_any_size_in_place(n):
    # the tile transpose covers partial edge tiles and a single tile
    from scipy.linalg import lu_factor

    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 4 * n * np.eye(n)
    lu, piv = lu_factor(m)
    factors, cond = lu_condition(m.copy())
    assert np.array_equal(factors[0], lu) and np.array_equal(factors[1], piv)
    assert 1.0 <= cond < np.inf


def test_lu_solve_is_lu_solve_bit_for_bit(lens, solutions):
    # getrs on lu_condition's factors gives scipy's lu_solve on lu_factor's
    from scipy.linalg import lu_factor
    from scipy.linalg import lu_solve as scipy_lu_solve

    for n, alphas in ((65, (1.0, 2.0)), (128, (0.7 + 0.2j, 1.5))):
        rule = build_rule("gauss-legendre", n, -1, 1)
        system = assemble(lens, make_bc(solutions["z2"], lens, *alphas, rule), rule)
        factors = lu_condition(system.matrix.copy())[0]
        x = lu_solve(factors, system.rhs)
        assert np.array_equal(x, scipy_lu_solve(lu_factor(system.matrix), system.rhs))


def test_lu_solve_rejects_what_lapack_would_read_out_of_bounds():
    lu, piv = lu_condition(np.eye(4, dtype=complex))[0]
    for factors, b in (((lu, piv), np.ones(5)), ((lu, piv[:3]), np.ones(4)),
                       ((lu, piv + 1), np.ones(4)), ((lu[:3], piv), np.ones(4))):
        with pytest.raises(ShapeError):
            lu_solve(factors, b)


def test_scipy_lapack_gives_the_same_factors_estimate_and_solution(lens, solutions,
                                                                   monkeypatch):
    # a numpy without numpy.libs/libscipy_openblas64_* takes scipy's zgetrf,
    # zgecon and zgetrs: the same calls, the same bits, in place as well
    from scipy.linalg.lapack import zgetrs

    rule = build_rule("gauss-legendre", 64, -1, 1)
    system = assemble(lens, make_bc(solutions["z2"], lens, 1.0, 2.0, rule), rule)
    singular = np.eye(8, dtype=complex)
    singular[3] = 0.0

    def run():
        a = system.matrix.copy()
        (lu, piv), cond = lu_condition(a)
        assert np.shares_memory(lu, a)
        return lu, piv, cond, lu_solve((lu, piv), system.rhs), lu_condition(singular.copy())[1]

    own = run()
    monkeypatch.setattr(linalg, "_numpy_openblas", lambda: None)
    linalg._lapack.cache_clear()
    try:
        assert linalg._lapack()[2] is zgetrs
        fallback = run()
    finally:
        linalg._lapack.cache_clear()
    for mine, theirs in zip(own, fallback):
        assert np.array_equal(mine, theirs)
    assert fallback[-1] == np.inf
