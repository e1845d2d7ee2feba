import numpy as np
import pytest
from scipy.integrate import quad

from cbie.errors import ConfigurationError, DomainError
from cbie.quadrature import (
    _STREAM_ROWS,
    _gauss_legendre,
    _log_weight_matrix_midpoint,
    _node_windows,
    _recurrence_windows,
    _transform,
    build_rule,
    node_weight_matrices,
    node_weight_products,
    partial_integral_matrix,
    pv_integrate,
    sample_interpolator,
)
from reference import diff_matrix, pv_integrate_excluded_node, pv_weight_matrix


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


# end weights w_0 of the 512- and 1024-point rules on [-1, 1], from Newton
# on P_n in 50-digit arithmetic
END_WEIGHTS = {512: 2.825263737393469203874501e-05, 1024: 7.070076410182589871295805e-06}


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 31, 64, 512, 1024])
def test_gauss_rule_matches_leggauss(n):
    rule = build_rule("gauss-legendre", n, -1, 1)
    t, w = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(rule.nodes - t)) <= 2.3e-16
    # leggauss's own end weights are off by 1.1e-10 at n = 512 and 1.2e-9 at
    # n = 1024 against END_WEIGHTS; this rule's by 9e-13 and 4e-13
    assert np.max(np.abs(rule.weights / w - 1.0)) <= (2e-9 if n > 512 else 1e-9)
    if n in END_WEIGHTS:
        assert abs(rule.weights[0] / END_WEIGHTS[n] - 1.0) <= 1e-11
    assert abs(np.sum(rule.weights) - 2.0) <= 1e-14
    k = np.arange(n)[:, None]  # int t^(2k) dt = 2/(2k + 1), exact for k < n
    moments = (rule.nodes[None, :] ** (2 * k)) @ rule.weights
    assert np.max(np.abs(moments - 2.0 / (2 * k[:, 0] + 1))) <= 1e-14


def _legendre_recurrence(t, y0, y1, kmax):
    # rows y_0..y_kmax of the recurrence: the stream's all-rows call
    return next(_recurrence_windows(t, y0, y1, kmax, kmax))[1][1:]


@pytest.mark.parametrize("n", [2, 3, 64, 512, 1024])
def test_legendre_recurrence_p_rows_match_legvander(n):
    t = build_rule("gauss-legendre", n, -1, 1).reference_nodes()
    t = np.concatenate([[-1.0], t, [1.0]])
    p = _legendre_recurrence(t, 1.0, t, n)
    assert p.shape == (n + 1, n + 2)
    assert np.max(np.abs(p - np.polynomial.legendre.legvander(t, n).T)) <= 1e-12


def _legendre_q_textbook(tau, kmax):
    # Q_k on the cut by the textbook form of the forward recurrence,
    # (k+1) Q_{k+1} = (2k+1) tau Q_k - k Q_{k-1}
    q = np.empty((kmax + 1,) + tau.shape)
    q[0] = np.arctanh(tau)
    if kmax >= 1:
        q[1] = tau * q[0] - 1.0
    for k in range(1, kmax):
        q[k + 1] = ((2 * k + 1) * tau * q[k] - k * q[k - 1]) / (k + 1)
    return q


@pytest.mark.parametrize("n", [2, 3, 64, 512, 1024])
def test_legendre_recurrence_q_rows_match_textbook_form(n):
    t = build_rule("gauss-legendre", n, -1, 1).reference_nodes()
    q0 = np.arctanh(t)
    q = _legendre_recurrence(t, q0, t * q0 - 1.0, n)
    ref = _legendre_q_textbook(t, n)
    assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))


def _recurrence_allocating(t, y0, y1, kmax):
    # the recurrence as first written: every step allocates its temporaries
    # and copies the new row into place
    y = np.empty((kmax + 1,) + np.broadcast_shapes(np.shape(t), np.shape(y0), np.shape(y1)))
    y[0] = y0
    if kmax >= 1:
        y[1] = y1
    for k in range(1, kmax):
        ty = t * y[k]
        y[k + 1] = ty + (k / (k + 1)) * (ty - y[k - 1])
    return y


def _newton_rule(n, last_two):
    # the rule's Newton iteration and weights, with (P_{n-1}, P_n) at t
    # from last_two(t)
    def pn(t):
        p0, p1 = last_two(t)
        return p1, n * (t * p1 - p0) / (t * t - 1.0)

    k = np.arange(1, (n + 1) // 2 + 1)
    t = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(3):
        p, dp = pn(t)
        t = t - p / dp
    if n % 2:
        t[-1] = 0.0
    dp = pn(t)[1]
    w = 2.0 / ((1.0 - t * t) * dp * dp)
    m = len(t) - n % 2
    return np.concatenate([-t[:m], t[::-1]]), np.concatenate([w[:m], w[::-1]])


def _gauss_legendre_all_rows(n):
    # the rule as first written: each of the four evaluations of P_n runs a
    # recurrence that stores all n + 1 rows
    return _newton_rule(n, lambda t: _recurrence_allocating(t, 1.0, t, n)[n - 1:])


def _gauss_legendre_two_rows(n):
    # the rule as written before Newton read the stream: P_n from a ring of
    # two rows, each step in place
    def last_two(t):
        rows = [np.ones_like(t), t.copy()]
        ty = np.empty_like(t)
        for k in range(1, n):
            nxt = rows[(k + 1) % 2]
            np.multiply(t, rows[k % 2], out=ty)
            np.subtract(ty, rows[(k - 1) % 2], out=nxt)
            nxt *= k / (k + 1)
            nxt += ty
        return rows[(n - 1) % 2], rows[n % 2]

    return _newton_rule(n, last_two)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 127, 512, 1023, 1024])
def test_in_place_recurrence_is_bit_identical(n):
    # the recurrence writes each row in place and Newton reads the last two
    # rows of the stream, with the step arithmetic unchanged: nodes, weights
    # and rows keep their bits
    t, w = _gauss_legendre(n)
    ref_t, ref_w = _gauss_legendre_all_rows(n)
    assert np.array_equal(t, ref_t) and np.array_equal(w, ref_w)
    q0 = np.arctanh(t)
    assert np.array_equal(_legendre_recurrence(t, 1.0, t, n),
                          _recurrence_allocating(t, 1.0, t, n))
    assert np.array_equal(_legendre_recurrence(t, q0, t * q0 - 1.0, n),
                          _recurrence_allocating(t, q0, t * q0 - 1.0, n))
    lo, win = next(_node_windows(build_rule("gauss-legendre", n, -1, 1), n))
    assert lo == 0 and len(win) == n + 2
    assert np.array_equal(win[1:, 0], _recurrence_allocating(t, 1.0, t, n))
    assert np.array_equal(win[1:, 1], _recurrence_allocating(t, q0, t * q0 - 1.0, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 63, 64, 127, 128, 129, 130, 257, 512, 1024, 4096])
def test_newton_on_the_stream_keeps_the_two_row_bits(n):
    # Newton reads P_{n-1} and P_n from the last window of the streamed
    # recurrence, block boundaries included: nodes and weights keep the bits
    # of the two-row loop
    t, w = _gauss_legendre(n)
    ref_t, ref_w = _gauss_legendre_two_rows(n)
    assert np.array_equal(t, ref_t) and np.array_equal(w, ref_w)


@pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 257, 512, 1024])
def test_streamed_windows_are_the_recurrence_rows(n):
    # each block of the residual path's stream resumes from the last two
    # rows of the block before: every window row, the block boundaries'
    # included, has the bits of the all-rows run
    rule = build_rule("gauss-legendre", n, -1, 1)
    t = rule.reference_nodes()
    q0 = np.arctanh(t)
    p = _legendre_recurrence(t, 1.0, t, n)
    q = _legendre_recurrence(t, q0, t * q0 - 1.0, n)
    starts = []
    for lo, win in _node_windows(rule, _STREAM_ROWS):
        starts.append(lo)
        hi = min(lo + _STREAM_ROWS, n)
        assert len(win) == hi - lo + 2
        k = slice(max(lo - 1, 0), hi + 1)  # the window's rows, y_{-1} aside
        assert np.array_equal(win[k.start - lo + 1:, 0], p[k])
        assert np.array_equal(win[k.start - lo + 1:, 1], q[k])
        if lo == 0:
            assert not np.any(win[0])  # y_{-1} = 0
    assert starts == list(range(0, n, _STREAM_ROWS))


def _whole_table_node_matrices(rule):
    # node_weight_matrices and the rule's transform as the whole-table code
    # computed them: all (n + 1) x 2 x n rows of one recurrence, then whole
    # n x n moment and antiderivative arrays
    n, s, w = rule.n, rule.scale, rule.weights
    t = rule.reference_nodes()
    q0 = np.arctanh(t)
    rows = _recurrence_allocating(t, np.stack([np.ones_like(t), q0]),
                                  np.stack([t, t * q0 - 1.0]), n)
    p, q = rows[:, 0], rows[:, 1]
    legendre = ((2 * np.arange(n) + 1) / 2.0)[:, None] * p[:n] * (w / s)
    pair = np.empty((2, n, n))
    moments = np.empty((n, n))
    moments[0] = (1 - t) * np.log1p(-t) + (1 + t) * np.log1p(t) - 2.0
    np.subtract(q[2:], q[:-2], out=moments[1:])
    moments[1:] *= 2.0
    moments[1:] /= (2 * np.arange(1, n) + 1)[:, None]
    np.matmul(moments.T, legendre, out=pair[0])
    pair[0] *= s
    pair[0] += np.log(s) * w[None, :]
    anti = np.empty((n, n))
    anti[0] = p[1] + 1.0
    np.subtract(p[2:], p[:-2], out=anti[1:])
    anti[1:] /= (2 * np.arange(1, n) + 1)[:, None]
    np.matmul(anti.T, legendre, out=pair[1])
    pair[1] *= s
    return legendre, pair[0], pair[1]


def _stream_transform(rule):
    # the Legendre transform from the P rows of the stream over the nodes
    return _transform(rule, next(_node_windows(rule, rule.n))[1][1:-1, 0])


@pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 257, 512])
def test_node_matrices_are_the_whole_table_code(n):
    # the dense matrices are the stream's one-block call: the solve path
    # keeps the bits of the whole-table code
    rule = build_rule("gauss-legendre", n, -0.5, 2.0)
    legendre, log_w, partial = _whole_table_node_matrices(rule)
    got_log, got_partial = node_weight_matrices(rule)
    assert np.array_equal(got_log, log_w) and np.array_equal(got_partial, partial)
    assert np.array_equal(_stream_transform(rule), legendre)


@pytest.mark.parametrize("n", [2, 3, 4, 127, 512])
def test_node_matrices_built_in_a_matrix_buffer(n):
    # assemble hands over its 2n x 2n complex matrix, not yet written: the
    # pair comes back in its last 2 n^2 doubles with the bits of the plain
    # call; below n = 4 the build does not fit and allocates its own
    rule = build_rule("gauss-legendre", n, -0.5, 2.0)
    work = np.full(8 * n * n, np.nan)
    got = node_weight_matrices(rule, work)
    for a, b in zip(got, node_weight_matrices(rule)):
        assert np.array_equal(a, b)
    assert all(np.shares_memory(a, work[6 * n * n:]) for a in got) == (n >= 4)


def test_rule_legendre_transform_exact_and_identity_free():
    rule = build_rule("gauss-legendre", 16, -1, 2)
    # equal rules stay equal and hash alike
    other = build_rule("gauss-legendre", 16, -1, 2)
    assert rule == other and hash(rule) == hash(other)
    # exact for degree < n: the coefficients of P_3 on the reference interval
    coeffs = _stream_transform(rule) @ np.polynomial.legendre.legval(rule.reference_nodes(),
                                                                      [0, 0, 0, 1])
    assert np.max(np.abs(coeffs - np.eye(16)[3])) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 64, 129, 512])
def test_partial_integral_at_the_nodes_is_the_node_matrix(n):
    # the stacked recurrence over [x; nodes] gives each column its own
    # arithmetic: at x = nodes it is the node matrix's running integral
    rule = build_rule("gauss-legendre", n, -0.5, 2.0)
    assert np.array_equal(partial_integral_matrix(rule, rule.nodes), node_weight_matrices(rule)[1])


@pytest.mark.parametrize("n", [2, 3, 64, 257])
@pytest.mark.parametrize("first", ["legendre", "log", "partial", "both"])
def test_node_matrices_share_rows_bit_for_bit(n, first):
    # P_k and Q_k from separate recurrences, then the transform, the log
    # weights and the running integral with the arithmetic of their
    # docstrings: the shared run must give the same bits, whichever of the
    # three a fresh rule computes first (the rule holds no state)
    rule = build_rule("gauss-legendre", n, -0.5, 2.0)
    t, s, w = rule.reference_nodes(), rule.scale, rule.weights
    p = _legendre_recurrence(t, 1.0, t, n)
    q0 = np.arctanh(t)
    q = _legendre_recurrence(t, q0, t * q0 - 1.0, n)
    legendre = ((2 * np.arange(n) + 1) / 2.0)[:, None] * p[:n] * (w / s)
    odd = (2 * np.arange(1, n) + 1)[:, None]
    moments = np.empty((n, n))
    moments[0] = (1 - t) * np.log1p(-t) + (1 + t) * np.log1p(t) - 2.0
    moments[1:] = 2.0 * (q[2:] - q[:-2]) / odd
    log_w = s * (moments.T @ legendre) + np.log(s) * w[None, :]
    anti = np.empty((n, n))
    anti[0] = p[1] + 1.0
    anti[1:] = (p[2:] - p[:-2]) / odd
    partial = s * (anti.T @ legendre)

    if first == "legendre":
        assert np.array_equal(_stream_transform(rule), legendre)
    if first == "log":
        assert np.array_equal(node_weight_matrices(rule)[0], log_w)
    if first == "partial":
        assert np.array_equal(partial_integral_matrix(rule, rule.nodes), partial)
    if first == "both":
        got_log, got_partial = node_weight_matrices(rule)
        assert np.array_equal(got_log, log_w) and np.array_equal(got_partial, partial)
    assert np.array_equal(_stream_transform(rule), legendre)
    assert np.array_equal(node_weight_matrices(rule)[0], log_w)
    assert np.array_equal(partial_integral_matrix(rule, rule.nodes), partial)
    got_log, got_partial = node_weight_matrices(rule)
    assert np.array_equal(got_log, log_w) and np.array_equal(got_partial, partial)


def test_node_weight_matrices_midpoint():
    rule = build_rule("midpoint-uniform", 40, -1, 1)
    got_log, got_partial = node_weight_matrices(rule)
    assert np.array_equal(got_log, _log_weight_matrix_midpoint(rule))
    assert np.array_equal(got_partial, partial_integral_matrix(rule, rule.nodes))


@pytest.mark.parametrize("family,n", [("gauss-legendre", 2), ("gauss-legendre", 3),
                                      ("gauss-legendre", 64), ("gauss-legendre", 257),
                                      ("gauss-legendre", 1024), ("midpoint-uniform", 40)])
def test_node_weight_products_match_dense_matrices(family, n):
    # on [-0.5, 2] the scale is not 1, so the log(s) term of the log weights
    # counts; the products equal the dense matrices' within round-off of the
    # sum of their terms' magnitudes
    rule = build_rule(family, n, -0.5, 2.0)
    rng = np.random.default_rng(n)
    f = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for got, dense in zip(node_weight_products(rule, f), node_weight_matrices(rule)):
        assert got.shape == (n, 3)
        terms = np.abs(dense) @ np.abs(f)
        assert np.max(np.abs(got - dense @ f)) <= 1e-13 * np.max(terms)


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
    assert rule.weights @ rule.nodes**2 == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_integrate_complex_exponential():
    rule = build_rule("gauss-legendre", 64, 0, np.pi)
    val = rule.weights @ np.exp(1j * rule.nodes)
    assert abs(val - 2j) <= 1e-12


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
    wl = node_weight_matrices(rule)[0]
    xi = float(rule.nodes[i])
    f = lambda x: np.exp(x)
    exact = quad(lambda x: f(x) * np.log(abs(x - xi)), -1, 1, points=[xi], limit=400)[0]
    assert abs(wl[i] @ f(rule.nodes) - exact) <= 5e-12


def test_log_weights_gauss_mapped_interval():
    rule = build_rule("gauss-legendre", 32, 0.5, 2.5)
    wl = node_weight_matrices(rule)[0]
    xi = float(rule.nodes[10])
    exact = quad(lambda x: np.exp(x) * np.log(abs(x - xi)), 0.5, 2.5,
                 points=[xi], limit=400)[0]
    assert abs(wl[10] @ np.exp(rule.nodes) - exact) <= 1e-11


def test_log_weights_polynomial_exact():
    rule = build_rule("gauss-legendre", 12, -1, 1)
    wl = node_weight_matrices(rule)[0]
    i = 4
    xi = float(rule.nodes[i])
    f = lambda x: x**3 - 2 * x + 1
    exact = quad(lambda x: f(x) * np.log(abs(x - xi)), -1, 1, points=[xi], limit=400)[0]
    assert abs(wl[i] @ f(rule.nodes) - exact) <= 1e-13


def test_log_weights_midpoint_window():
    # exact cell moments: the error on the interior nodes falls at second
    # order (h^2 log h), and every row integrates a constant exactly
    f = lambda x: np.exp(0.7 * x) * np.cos(x)

    def exact(xi):
        return (quad(f, -1, xi, weight="alg-logb", wvar=(0, 0))[0]
                + quad(f, xi, 1, weight="alg-loga", wvar=(0, 0))[0])

    errs = []
    for n in (96, 192, 384, 768):
        rule = build_rule("midpoint-uniform", n, -1, 1)
        wl = node_weight_matrices(rule)[0]
        x = rule.nodes
        const = (1 - x) * (np.log(1 - x) - 1) + (1 + x) * (np.log(1 + x) - 1)
        assert np.max(np.abs(wl.sum(axis=1) - const)) <= 1e-13
        inner = np.abs(x) <= 0.8
        approx = wl[inner] @ f(x)
        errs.append(max(abs(v - exact(xi)) for v, xi in zip(approx, x[inner])))
    assert all(e0 / e1 >= 3.0 for e0, e1 in zip(errs, errs[1:])), errs


def test_log_weights_families_agree():
    # midpoint product integration (exact cell log moments) is the
    # cross-check oracle for the Legendre product integration
    f = lambda x: np.cos(2 * x)
    xi = None
    g_rule = build_rule("gauss-legendre", 96, -1, 1)
    g_wl = node_weight_matrices(g_rule)[0]
    ig = None
    for i, x in enumerate(g_rule.nodes):
        if abs(x - 0.3) < 0.02:
            ig, xi = i, float(x)
            break
    m_rule = build_rule("midpoint-uniform", 4000, -1, 1)
    m_wl = node_weight_matrices(m_rule)[0]
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
    pm = partial_integral_matrix(rule, rule.nodes)
    vals = pm @ np.exp(rule.nodes)
    exact = np.exp(rule.nodes) - np.exp(-1.0)
    assert np.max(np.abs(vals - exact)) <= 1e-13


@pytest.mark.parametrize("n", [64, 256])
def test_partial_integral_matrix_matches_legendre_integration_map(n):
    # reference: the Legendre antiderivative map applied as a dense
    # (n + 1) x n matrix, int P_0 = P_1, int P_k = (P_{k+1} - P_{k-1})/(2k+1),
    # after numpy's Legendre transform c_k = (2k+1)/2 sum_j w_j P_k(t_j) f_j
    rule = build_rule("gauss-legendre", n, -1, 1)
    t = rule.reference_nodes()
    lint = np.zeros((n + 1, n))
    lint[1, 0] = 1.0
    for k in range(1, n):
        lint[k + 1, k] = 1.0 / (2 * k + 1)
        lint[k - 1, k] = -1.0 / (2 * k + 1)
    ev = np.polynomial.legendre.legvander(t, n)
    ev0 = np.polynomial.legendre.legvander([-1.0], n)
    trans = ((2 * np.arange(n) + 1) / 2.0)[:, None] * ev[:, :n].T * rule.weights[None, :]
    expected = rule.scale * ((ev - ev0) @ lint @ trans)
    got = partial_integral_matrix(rule, rule.nodes)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_partial_integral_functional():
    # off the nodes: the running integral at any points of [a, b]
    xs = np.array([-1.0, -0.9, -0.3, 0.123, 0.9, 1.0])
    rule = build_rule("gauss-legendre", 32, -1, 1)
    vals = partial_integral_matrix(rule, xs) @ np.exp(rule.nodes)
    assert np.max(np.abs(vals - (np.exp(xs) - np.exp(-1.0)))) <= 1e-13
    # midpoint: exact for a constant integrand, also inside a cell
    rule = build_rule("midpoint-uniform", 10, -1, 1)
    vals = partial_integral_matrix(rule, xs) @ np.ones(rule.n)
    assert np.max(np.abs(vals - (xs + 1.0))) <= 1e-15


def test_partial_integral_midpoint():
    rule = build_rule("midpoint-uniform", 500, 0, 1)
    pm = partial_integral_matrix(rule, rule.nodes)
    vals = pm @ rule.nodes**2
    exact = rule.nodes**3 / 3
    assert np.max(np.abs(vals - exact)) <= 1e-5
    # at the nodes: whole cells to the left plus half the node's own cell
    cells = np.tril(np.tile(rule.weights, (rule.n, 1)), -1) + np.diag(0.5 * rule.weights)
    assert np.max(np.abs(pm - cells)) <= 1e-15


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
