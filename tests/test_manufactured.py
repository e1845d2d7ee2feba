import numpy as np
import pytest

from cbie.errors import ConfigurationError
from cbie.lcg import Lcg
from cbie.manufactured import (
    SolutionSpec,
    canonical_solutions,
    eval_solution,
    make_bc,
    make_trace,
    pde_residual_check,
    solution_from_config,
)
from cbie.quadrature import build_rule


def test_eval_linear_solution():
    spec = SolutionSpec("z", f_coeffs=(0.0, 1.0))
    u, du2, du1 = eval_solution(spec, 1.0, 2.0)
    assert u == pytest.approx(2.0 + 1.0j)
    assert du2 == pytest.approx(1.0)
    assert du1 == pytest.approx(1.0j)


def test_eval_pure_x1_solution():
    spec = SolutionSpec("g", g_coeffs=(0.0, 0.0, 1.0))
    u, du2, du1 = eval_solution(spec, 3.0, 7.0)
    assert u == pytest.approx(9.0)
    assert du2 == 0
    assert du1 == pytest.approx(6.0)


def test_eval_quadratic_solution():
    spec = SolutionSpec("z2", f_coeffs=(0.0, 0.0, 1.0))
    u, du2, du1 = eval_solution(spec, 0.0, 1.0)
    assert u == pytest.approx(1.0)
    assert du2 == pytest.approx(2.0)
    assert du1 == pytest.approx(2.0j)


def test_canonical_set_is_complete():
    sols = canonical_solutions()
    assert set(sols) == {"const", "x1", "z", "z2", "z2_plus_cubic", "exp_half"}
    assert sols["exp_half"].f_exp_scale == 0.5


def _random_points(count, lim=1.5, seed=42):
    rng = Lcg(seed)
    return [(rng.uniform(-lim, lim), rng.uniform(-lim, lim)) for _ in range(count)]


def test_pde_residual_polynomial_family():
    spec = SolutionSpec("mix", f_coeffs=(0.0, 0.0, 1.0), g_coeffs=(0.0, 0.0, 0.0, 1.0))
    assert pde_residual_check(spec, _random_points(50), 1e-3) <= 1e-6


def test_pde_residual_zero_solution():
    spec = SolutionSpec("zero")
    assert pde_residual_check(spec, _random_points(10), 1e-3) == 0


def test_pde_residual_exponential():
    spec = SolutionSpec("exp", f_exp_scale=1.0)
    pts = [(x1, x2) for (x1, x2) in _random_points(50) if abs(complex(x2, x1)) <= 2.0]
    assert pde_residual_check(spec, pts, 1e-4) <= 1e-5


def test_pde_residual_every_canonical_solution():
    pts = _random_points(25)
    for spec in canonical_solutions().values():
        assert pde_residual_check(spec, pts, 1e-4) <= 1e-5


def test_pde_residual_operator_flags_nonsolution():
    # the same finite-difference operator applied to conj(z)^2 (which solves
    # the conjugate equation, not this one) must report an O(1) residual
    h = 1e-3
    worst = 0.0
    u = lambda a, b: (b - 1j * a) ** 2
    for (x1, x2) in _random_points(20):
        d22 = (u(x1, x2 + h) - 2 * u(x1, x2) + u(x1, x2 - h)) / h**2
        d12 = (u(x1 + h, x2 + h) - u(x1 + h, x2 - h)
               - u(x1 - h, x2 + h) + u(x1 - h, x2 - h)) / (4 * h**2)
        worst = max(worst, abs(d22 + 1j * d12))
    assert worst > 1.0


def test_make_bc_constant_solution(lens):
    spec = canonical_solutions()["const"]
    bc = make_bc(spec, lens, 1.0, 2.0, None)
    for x in (-0.5, 0.0, 0.7):
        assert complex(bc.phi1(x)) == pytest.approx(1.0)
        assert complex(bc.phi2(x)) == pytest.approx(2.0)


def test_make_bc_linear_solution(lens):
    spec = canonical_solutions()["z"]
    bc = make_bc(spec, lens, 1.0, 1.0, None)
    for x in (-0.5, 0.0, 0.7):
        zk = (1 - x * x) + 1j * x
        assert complex(bc.phi2(x)) == pytest.approx(1.0 + zk)


def test_make_bc_matches_independent_evaluation(lens):
    spec = canonical_solutions()["z2"]
    bc = make_bc(spec, lens, 1.0, 1.0, None)
    rng = Lcg(42)
    for _ in range(10):
        x = rng.uniform(-0.99, 0.99)
        g2 = 1 - x * x
        z = g2 + 1j * x
        expected = 2 * z + z * z
        assert complex(bc.phi2(x)) == pytest.approx(expected, abs=1e-14)


def test_make_bc_reports_endpoint_magnitudes(lens):
    spec = canonical_solutions()["z"]
    bc = make_bc(spec, lens, 1.0, 2.0, None)
    before = dict(vars(bc))
    rep = bc.report_endpoints(lens.a1, lens.b1)
    assert vars(bc) == before  # reporting leaves the spec unchanged
    assert set(rep) == {"phi1", "phi2"}
    # traces at the ends: z = +-i, du = 1: |phi1| = |1 + 1*(+-i)| = sqrt(2)
    assert rep["phi1"][0] == pytest.approx(np.sqrt(2.0))


def test_trace_consistency_single_source(lens):
    spec = canonical_solutions()["z2"]
    rule = build_rule("gauss-legendre", 32, -1, 1)
    tr = make_trace(spec, lens, rule)
    x = rule.nodes
    g1 = -(1 - x * x)
    u_direct, du_direct, ux1_direct = eval_solution(spec, x, g1)
    assert np.array_equal(tr.u_lower, u_direct)
    assert np.array_equal(tr.du_lower, du_direct)
    assert np.array_equal(tr.ux1_lower, ux1_direct)


def test_solution_from_config_named():
    spec = solution_from_config({"name": "z2_plus_cubic"})
    assert spec.name == "z2_plus_cubic"
    with pytest.raises(ConfigurationError):
        solution_from_config({"name": "nope"})


def test_solution_from_config_custom():
    spec = solution_from_config({"f_coeffs": [[0.0, 0.0], [1.0, 0.5]], "g_coeffs": [2.0]})
    u, _, _ = eval_solution(spec, 0.0, 1.0)
    assert u == pytest.approx((1 + 0.5j) * 1.0 + 2.0)
