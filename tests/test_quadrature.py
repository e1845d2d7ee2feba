import numpy as np
import pytest
from scipy.integrate import quad

from cbie.errors import ConfigurationError, DomainError, ShapeError
from cbie.quadrature import (
    build_rule,
    diff_matrix,
    integrate,
    log_weight_matrix,
    partial_integral_functional,
    partial_integral_matrix,
    pv_integrate,
    pv_integrate_excluded_node,
    pv_weight_matrix,
    sample_interpolator,
)


# ---------------------------------------------------------------------------
# rule construction
# ---------------------------------------------------------------------------

def test_gauss_two_point():
    rule = build_rule("gauss-legendre", 2, -1, 1)
    assert np.allclose(rule.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(rule.weights, [1.0, 1.0])


def test_midpoint_four_point():
    rule = build_rule("midpoint-uniform", 4, 0, 1)
    assert np.allclose(rule.nodes, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(rule.weights, 0.25)


@pytest.mark.parametrize("family", ["gauss-legendre", "midpoint-uniform"])
@pytest.mark.parametrize("n", [2, 5, 33, 128])
def test_rule_invariants(family, n):
    rule = build_rule(family, n, -1.5, 2.25)
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > rule.a and rule.nodes[-1] < rule.b
    assert np.all(rule.weights > 0)
    assert np.sum(rule.weights) == pytest.approx(rule.b - rule.a, rel=1e-12)


def test_rule_size_error():
    with pytest.raises(ConfigurationError):
        build_rule("gauss-legendre", 1, -1, 1)
    with pytest.raises(ConfigurationError):
        build_rule("gauss-legendre", 8, 1, -1)
    with pytest.raises(ConfigurationError):
        build_rule("simpson", 8, -1, 1)


# ---------------------------------------------------------------------------
# plain integration
# ---------------------------------------------------------------------------

def test_integrate_quadratic_exact():
    rule = build_rule("gauss-legendre", 2, -1, 1)
    assert integrate(rule.nodes**2, rule) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_integrate_zero():
    rule = build_rule("gauss-legendre", 8, -1, 1)
    assert integrate(np.zeros(8), rule) == 0


def test_integrate_complex_exponential():
    rule = build_rule("gauss-legendre", 64, 0, np.pi)
    val = integrate(np.exp(1j * rule.nodes), rule)
    assert abs(val - 2j) <= 1e-12


def test_integrate_shape_error():
    rule = build_rule("gauss-legendre", 8, -1, 1)
    with pytest.raises(ShapeError):
        integrate(np.zeros(7), rule)


# ---------------------------------------------------------------------------
# principal values
# ---------------------------------------------------------------------------

def test_pv_corpus_analytic():
    rule = build_rule("gauss-legendre", 64, -1, 1)
    assert abs(pv_integrate(lambda x: 1.0, 0.0, rule)) <= 1e-12
    assert abs(pv_integrate(lambda x: x, 0.0, rule) - 2.0) <= 1e-12
    assert abs(pv_integrate(lambda x: 1.0, 0.5, rule) + np.log(3.0)) <= 1e-12


def test_pv_exp_against_adaptive():
    rule = build_rule("gauss-legendre", 64, -1, 1)
    xi = 0.3
    exact = (quad(lambda x: (np.exp(x) - np.exp(xi)) / (x - xi), -1, 1, limit=200)[0]
             + np.exp(xi) * np.log((1 - xi) / (1 + xi)))
    assert abs(pv_integrate(np.exp, xi, rule) - exact) <= 1e-10


def test_pv_polynomial_exactness():
    # subtracted integrand is a polynomial: any degree below the rule's
    # exactness integrates exactly
    rule = build_rule("gauss-legendre", 16, -1, 1)
    xi = 0.25
    coeffs = [0.3, -1.2, 0.5, 2.0, -0.7]
    f = lambda x: np.polyval(coeffs, x)
    df = lambda x: np.polyval(np.polyder(coeffs), x)
    reg = quad(lambda x: (f(x) - f(xi)) / (x - xi), -1, 1, limit=200)[0]
    exact = reg + f(xi) * np.log((1 - xi) / (1 + xi))
    assert abs(pv_integrate(f, xi, rule, df=df) - exact) <= 1e-12


def test_pv_antisymmetry():
    rule = build_rule("gauss-legendre", 32, -2, 2)
    assert abs(pv_integrate(lambda x: 1.0, 0.0, rule)) <= 1e-12


def test_pv_convergence_monotone():
    vals = {}
    for n in (16, 32, 64, 128):
        rule = build_rule("gauss-legendre", n, -1, 1)
        vals[n] = pv_integrate(lambda x: np.exp(np.sin(3 * x)), 0.2, rule)
    diffs = [abs(vals[16] - vals[32]), abs(vals[32] - vals[64]), abs(vals[64] - vals[128])]
    assert diffs[0] > diffs[1] > diffs[2] or diffs[2] < 1e-13


def test_pv_endpoint_error():
    rule = build_rule("gauss-legendre", 16, -1, 1)
    with pytest.raises(DomainError):
        pv_integrate(lambda x: 1.0, 1.0, rule)
    with pytest.raises(DomainError):
        pv_integrate(lambda x: 1.0, -1.2, rule)


def test_pv_at_a_node_uses_derivative():
    rule = build_rule("midpoint-uniform", 64, -1, 1)
    xi = float(rule.nodes[40])  # exactly a node
    f = lambda x: np.exp(x)
    exact = (quad(lambda x: (np.exp(x) - np.exp(xi)) / (x - xi), -1, 1,
                  points=[xi], limit=400)[0]
             + np.exp(xi) * np.log((1 - xi) / (1 + xi)))
    with_df = pv_integrate(f, xi, rule, df=np.exp)
    without_df = pv_integrate(f, xi, rule)
    assert abs(with_df - exact) <= 1e-3   # midpoint rule accuracy
    assert abs(with_df - without_df) <= 1e-9  # FD fallback agrees with analytic


def test_pv_excluded_node_oracle():
    # the node-dropped midpoint sum converges (first order) to the same PV
    vals = []
    for n in (201, 801, 3201):
        rule = build_rule("midpoint-uniform", n, -1, 1)
        xi = float(rule.nodes[(n - 1) // 2])
        vals.append(pv_integrate_excluded_node(np.exp, xi, rule))
    rule = build_rule("gauss-legendre", 128, -1, 1)
    ref = pv_integrate(np.exp, 0.0, rule, df=np.exp)
    errs = [abs(v - ref) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3


def test_pv_weight_matrix_matches_pv_integrate():
    rule = build_rule("gauss-legendre", 48, -1, 1)
    pmat = pv_weight_matrix(rule)
    g = np.exp(rule.nodes) * np.cos(rule.nodes)
    f = lambda x: np.exp(x) * np.cos(x)
    for i in (0, 7, 24, 47):
        xi = float(rule.nodes[i])
        reg = quad(lambda x: (f(x) - f(xi)) / (x - xi), -1, 1, points=[xi], limit=400)[0]
        exact = reg + f(xi) * np.log((1 - xi) / (1 + xi))
        assert abs(pmat[i] @ g - exact) <= 1e-10


# ---------------------------------------------------------------------------
# log product integration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,i", [(16, 5), (32, 0), (32, 31), (64, 20)])
def test_log_weights_gauss(n, i):
    rule = build_rule("gauss-legendre", n, -1, 1)
    wl = log_weight_matrix(rule)
    xi = float(rule.nodes[i])
    f = lambda x: np.exp(x)
    exact = quad(lambda x: f(x) * np.log(abs(x - xi)), -1, 1, points=[xi], limit=400)[0]
    assert abs(wl[i] @ f(rule.nodes) - exact) <= 5e-12


def test_log_weights_gauss_mapped_interval():
    rule = build_rule("gauss-legendre", 32, 0.5, 2.5)
    wl = log_weight_matrix(rule)
    xi = float(rule.nodes[10])
    exact = quad(lambda x: np.exp(x) * np.log(abs(x - xi)), 0.5, 2.5,
                 points=[xi], limit=400)[0]
    assert abs(wl[10] @ np.exp(rule.nodes) - exact) <= 1e-11


def test_log_weights_polynomial_exact():
    rule = build_rule("gauss-legendre", 12, -1, 1)
    wl = log_weight_matrix(rule)
    i = 4
    xi = float(rule.nodes[i])
    f = lambda x: x**3 - 2 * x + 1
    exact = quad(lambda x: f(x) * np.log(abs(x - xi)), -1, 1, points=[xi], limit=400)[0]
    assert abs(wl[i] @ f(rule.nodes) - exact) <= 1e-13


def test_log_weights_midpoint_window():
    rule = build_rule("midpoint-uniform", 200, -1, 1)
    wl = log_weight_matrix(rule)
    i = 77
    xi = float(rule.nodes[i])
    exact = quad(lambda x: np.exp(x) * np.log(abs(x - xi)), -1, 1,
                 points=[xi], limit=400)[0]
    assert abs(wl[i] @ np.exp(rule.nodes) - exact) <= 1e-3


def test_log_weights_families_agree():
    # the windowed midpoint scheme is the cross-check oracle for the
    # Legendre product integration
    f = lambda x: np.cos(2 * x)
    xi = None
    g_rule = build_rule("gauss-legendre", 96, -1, 1)
    g_wl = log_weight_matrix(g_rule)
    ig = None
    for i, x in enumerate(g_rule.nodes):
        if abs(x - 0.3) < 0.02:
            ig, xi = i, float(x)
            break
    m_rule = build_rule("midpoint-uniform", 4000, -1, 1)
    m_wl = log_weight_matrix(m_rule)
    im = int(np.argmin(np.abs(m_rule.nodes - xi)))
    exact = quad(lambda x: f(x) * np.log(abs(x - xi)), -1, 1, points=[xi], limit=400)[0]
    assert abs(g_wl[ig] @ f(g_rule.nodes) - exact) <= 1e-11
    m_exact = quad(lambda x: f(x) * np.log(abs(x - m_rule.nodes[im])), -1, 1,
                   points=[float(m_rule.nodes[im])], limit=400)[0]
    assert abs(m_wl[im] @ f(m_rule.nodes) - m_exact) <= 1e-5


# ---------------------------------------------------------------------------
# differentiation / partial integrals / interpolation
# ---------------------------------------------------------------------------

def test_diff_matrix_gauss():
    rule = build_rule("gauss-legendre", 32, -1, 1)
    d = diff_matrix(rule)
    assert np.max(np.abs(d @ np.sin(rule.nodes) - np.cos(rule.nodes))) <= 1e-12


def test_diff_matrix_midpoint():
    rule = build_rule("midpoint-uniform", 400, -1, 1)
    d = diff_matrix(rule)
    assert np.max(np.abs(d @ np.sin(rule.nodes) - np.cos(rule.nodes))) <= 1e-4


def test_partial_integral_matrix_gauss():
    rule = build_rule("gauss-legendre", 32, -1, 1)
    pm = partial_integral_matrix(rule)
    vals = pm @ np.exp(rule.nodes)
    exact = np.exp(rule.nodes) - np.exp(-1.0)
    assert np.max(np.abs(vals - exact)) <= 1e-13


def test_partial_integral_functional():
    rule = build_rule("gauss-legendre", 32, -1, 1)
    F = partial_integral_functional(rule, np.exp(rule.nodes))
    for x in (-0.9, -0.3, 0.123, 0.9):
        assert abs(F(x) - (np.exp(x) - np.exp(-1.0))) <= 1e-13


def test_partial_integral_midpoint():
    rule = build_rule("midpoint-uniform", 500, 0, 1)
    pm = partial_integral_matrix(rule)
    vals = pm @ rule.nodes**2
    exact = rule.nodes**3 / 3
    assert np.max(np.abs(vals - exact)) <= 1e-5


def test_sample_interpolator_complex():
    rule = build_rule("gauss-legendre", 32, -1, 1)
    f = sample_interpolator(rule, np.exp(1j * rule.nodes))
    for x in (-0.77, 0.0, 0.1234, 0.95):
        assert abs(f(x) - np.exp(1j * x)) <= 1e-12


def test_sample_interpolator_matches_pointwise_barycentric_formula():
    # reference: the second barycentric form evaluated one point at a time,
    # with the node sample returned when the point is a node
    from cbie.quadrature import barycentric_weights

    rule = build_rule("gauss-legendre", 24, -1, 1)
    values = np.cos(3 * rule.nodes) + 1j * rule.nodes ** 2
    beta = barycentric_weights(rule)
    t_nodes = rule.reference_nodes()
    xs = np.array([-0.93, -0.2, rule.nodes[7], 0.0, 0.61])
    expected = []
    for x in xs:
        diff = (x - rule.center) / rule.scale - t_nodes
        hit = np.abs(diff) < 1e-15
        if np.any(hit):
            expected.append(values[int(np.argmax(hit))])
        else:
            q = beta / diff
            expected.append(np.sum(q * values) / np.sum(q))
    f = sample_interpolator(rule, values)
    assert np.array_equal(f(xs), np.array(expected))
    assert [f(x) for x in xs] == [complex(v) for v in expected]
