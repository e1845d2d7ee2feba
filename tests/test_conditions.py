import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from cbie.assembly import assemble
from cbie.conditions import (
    _CORNERS,
    CONDITION_IDS,
    BoundaryTrace,
    Operators,
    _bounded_remainder,
    _corner_moments,
    _fill,
    _kernel_blocks,
    _real_matvec,
    build_operators,
    condition_report,
    condition_residuals,
    eq8_residuals,
    trace_products,
    window_mask,
)
from cbie.errors import DataError, NumericError, ShapeError
from cbie.geometry import CurveDescriptor, PlaneDomain, lens_domain
from cbie.kernel import TWO_PI, dU_dx2
from cbie.manufactured import make_bc, make_trace
from cbie.quadrature import (
    _pv_rows,
    _row_tiles,
    build_rule,
    node_weight_matrices,
)
from reference import pv_weight_matrix, representation_boundary

LEVELS = (64, 128, 256)
ALL_CONDITIONS = ("eq8", "eq9", "eq10", "eq11", "eq12")


# ---------------------------------------------------------------------------
# BoundaryTrace container
# ---------------------------------------------------------------------------

def test_trace_validates_lengths(lens):
    rule = build_rule("gauss-legendre", 8, -1, 1)
    good = np.zeros(8, dtype=complex)
    with pytest.raises(ShapeError):
        BoundaryTrace(rule, good[:-1], good, good, good)
    with pytest.raises(NumericError):
        bad = good.copy()
        bad[3] = np.nan
        BoundaryTrace(rule, bad, good, good, good)


def test_trace_tangential_required_for_eq9(lens):
    rule = build_rule("gauss-legendre", 8, -1, 1)
    z = np.zeros(8, dtype=complex)
    tr = BoundaryTrace(rule, z, z, z, z)
    for c in ("eq9", "eq11"):
        with pytest.raises(DataError):
            condition_residuals(tr, lens, [c])
    # eq10/eq12 fine without tangential data
    assert np.allclose(condition_residuals(tr, lens, ["eq10"])["eq10"], 0)
    with pytest.raises(DataError):
        condition_residuals(tr, lens, ["eq13"])


# ---------------------------------------------------------------------------
# singular factorization of the diagonal dU/dx2 kernel: the bounded
# remainders that the Cauchy operator carries on its diagonal-pair blocks
# ---------------------------------------------------------------------------

def _remainder(domain, side, n=32):
    """The rule and the remainder per unit weight, B[i, j] / w_j, on one curve."""
    rule = build_rule("gauss-legendre", n, domain.a1, domain.b1)
    curve, x = domain.curve(side), rule.nodes
    parts = np.empty((2, n, n))
    _bounded_remainder(parts, x, curve.value(x), curve.slope(x), curve.curvature(x),
                       rule.weights, 0)
    return rule, (parts[0] + 1j * parts[1]) / rule.weights[None, :]


def test_singular_factor_reconstructs_kernel(lens):
    # off the diagonal: Cauchy part + remainder = (1 - i g'(x_j)) dU/dx2
    for side in ("lower", "upper"):
        rule, rem = _remainder(lens, side)
        curve, x = lens.curve(side), rule.nodes
        g, gp = curve.value(x), curve.slope(x)
        dx = x[None, :] - x[:, None]
        np.fill_diagonal(dx, 1.0)
        kernel = (1 - 1j * gp)[None, :] * dU_dx2(dx, g[None, :] - g[:, None])
        off = ~np.eye(rule.n, dtype=bool)
        err = np.abs((-1j / TWO_PI) / dx + rem - kernel)[off]
        assert np.max(err / np.abs(kernel[off])) <= 1e-14


def test_singular_factor_straight_line_exact():
    # constant curve: the remainder vanishes identically, the kernel is the
    # pure Cauchy factor
    flat = PlaneDomain(-1.0, 1.0,
                       lower=CurveDescriptor("polynomial", (-1.0,)),
                       upper=CurveDescriptor("polynomial", (1.0,)))
    for side in ("lower", "upper"):
        assert np.all(_remainder(flat, side)[1] == 0)


def test_singular_factor_linear_curve():
    tilted = PlaneDomain(-1.0, 1.0,
                         lower=CurveDescriptor("polynomial", (-2.0, 1.0)),
                         upper=CurveDescriptor("polynomial", (2.0, 1.0)))
    for side in ("lower", "upper"):
        rule, rem = _remainder(tilted, side)
        assert np.all(np.diag(rem) == 0)
        assert np.max(np.abs(rem)) <= 1e-11  # round-off in g(x_j) - g(x_i) only


def test_singular_factor_lens_value(lens):
    # the diagonal is the limit of the continuous remainder, evaluated from
    # the kernel just off each node
    eps = 1e-5
    for side in ("lower", "upper"):
        rule, rem = _remainder(lens, side)
        curve, x = lens.curve(side), rule.nodes
        near = ((1 - 1j * curve.slope(x + eps)) * dU_dx2(eps, curve.value(x + eps) - curve.value(x))
                + (1j / TWO_PI) / eps)
        assert np.max(np.abs(near - np.diag(rem))) <= 1e-5  # O(eps)


# ---------------------------------------------------------------------------
# exactness on degenerate traces
# ---------------------------------------------------------------------------

def test_eq8_exact_zero_for_constant(lens):
    rule = build_rule("gauss-legendre", 32, -1, 1)
    c = 1.7 - 0.4j
    z = np.zeros(32, dtype=complex)
    tr = BoundaryTrace(rule, np.full(32, c), np.full(32, c), z, z)
    res = eq8_residuals(tr, lens)
    assert np.all(res == 0)


def test_eq8_exact_zero_for_pure_x1_trace(lens):
    rule = build_rule("gauss-legendre", 32, -1, 1)
    g = np.sin(3 * rule.nodes) + 1j * rule.nodes**2
    z = np.zeros(32, dtype=complex)
    tr = BoundaryTrace(rule, g, g, z, z)
    assert np.all(eq8_residuals(tr, lens) == 0)


# ---------------------------------------------------------------------------
# convergence on the manufactured family
# ---------------------------------------------------------------------------

def _window_sups(domain, spec, condition, levels=LEVELS):
    sups = []
    for n in levels:
        rule = build_rule("gauss-legendre", n, domain.a1, domain.b1)
        tr = make_trace(spec, domain, rule)
        sups.append(condition_report(tr, domain, condition).sup_window)
    return sups


@pytest.mark.parametrize("name", ["const", "x1", "z", "z2", "z2_plus_cubic", "exp_half"])
@pytest.mark.parametrize("condition", ALL_CONDITIONS)
def test_conditions_converge(lens, solutions, name, condition):
    sups = _window_sups(lens, solutions[name], condition, levels=(64, 128))
    # spectral discretization: residuals sit at the numerical floor
    assert sups[-1] <= 1e-10
    if name in ("const", "x1") and condition == "eq8":
        assert sups == [0.0, 0.0]


def test_linear_solution_small_at_modest_n(lens, solutions):
    rule = build_rule("gauss-legendre", 128, -1, 1)
    tr = make_trace(solutions["z"], lens, rule)
    for condition in ("eq9", "eq10", "eq11", "eq12"):
        rep = condition_report(tr, lens, condition)
        assert rep.sup_window <= 1e-6


def test_quadratic_sup_residual_gate(lens, solutions):
    for condition in ALL_CONDITIONS:
        sups = _window_sups(lens, solutions["z2"], condition, levels=(128, 256))
        assert sups[-1] <= 1e-3
        # halving gate, vacuous at the floor
        assert sups[-2] / max(sups[-1], 1e-300) >= 2.0 or sups[-1] <= 1e-10


def test_conditions_on_general_closing_domain(solutions):
    dom = PlaneDomain(-1.0, 1.0,
                      lower=CurveDescriptor("polynomial", (-0.7, 0.1, 0.7, -0.1)),
                      upper=CurveDescriptor("polynomial", (0.9, 0.2, -0.9, -0.2)))
    for condition in ("eq8", "eq10", "eq12", "eq7-boundary"):
        sups = _window_sups(dom, solutions["z2"], condition, levels=(64, 128))
        assert sups[-1] <= 1e-10


def test_vertical_tangent_domain_flagged_but_usable(solutions):
    # circle arcs: slopes blow up at the interval ends; validation flags the
    # domain, interior nodes stay finite, and the conditions still converge
    # (at reduced order, since the graph parameterization degenerates)
    from cbie.geometry import validate_domain

    circle = PlaneDomain(-1.0, 1.0,
                         lower=CurveDescriptor("ellipse-graph", (1.0, -1.0)),
                         upper=CurveDescriptor("ellipse-graph", (1.0, 1.0)))
    assert not validate_domain(circle, 101).valid
    sups = _window_sups(circle, solutions["z2"], "eq8", levels=(64, 256))
    assert sups[1] < sups[0]
    assert sups[1] <= 1e-3


def test_midpoint_family_cross_check(lens, solutions):
    sups = []
    for n in (64, 128, 256):
        rule = build_rule("midpoint-uniform", n, -1, 1)
        tr = make_trace(solutions["z2"], lens, rule)
        sups.append(condition_report(tr, lens, "eq10").sup_window)
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= 1e-4
    # every condition converges at the family's second order (h^2 log h)
    domain = lens_domain(0.8)
    ladder = {c: [] for c in CONDITION_IDS}
    for n in (96, 192, 384, 768):
        rule = build_rule("midpoint-uniform", n, -1, 1)
        tr = make_trace(solutions["z2"], domain, rule)
        mask = window_mask(rule, 0.2)
        for c, v in condition_residuals(tr, domain, CONDITION_IDS).items():
            ladder[c].append(np.max(np.abs(v[mask])))
    for c, s in ladder.items():
        assert s[1] / s[2] >= 3.5 and s[2] / s[3] >= 3.5, (c, s)


# ---------------------------------------------------------------------------
# boundary representation (the half-trace identity)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["const", "z", "z2", "exp_half"])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_eq7_boundary_residuals(lens, solutions, name, side):
    rule = build_rule("gauss-legendre", 256, -1, 1)
    tr = make_trace(solutions[name], lens, rule)
    target = tr.u_lower if side == "lower" else tr.u_upper
    res = representation_boundary(tr, lens, side) - target
    mask = window_mask(rule, 0.2)
    assert np.max(np.abs(res[mask])) <= 1e-3
    assert np.max(np.abs(res[mask])) <= 1e-10  # spectral floor in practice


def test_eq7_boundary_halving(lens, solutions):
    sups = _window_sups(lens, solutions["z"], "eq7-boundary", levels=(128, 256))
    assert sups[-1] <= 1e-3
    assert sups[-2] / max(sups[-1], 1e-300) >= 2.0 or sups[-1] <= 1e-10


def test_representation_boundary_equals_trace(lens, solutions):
    rule = build_rule("gauss-legendre", 128, -1, 1)
    tr = make_trace(solutions["z2"], lens, rule)
    mask = window_mask(rule, 0.2)
    lo = representation_boundary(tr, lens, "lower")
    up = representation_boundary(tr, lens, "upper")
    assert np.max(np.abs((lo - tr.u_lower)[mask])) <= 1e-10
    assert np.max(np.abs((up - tr.u_upper)[mask])) <= 1e-10


def test_pure_x1_trace_boundary_representation(lens):
    # traces of u = g(x1) with g vanishing at the ends
    rule = build_rule("gauss-legendre", 256, -1, 1)
    x = rule.nodes
    g = (1 - x * x) * np.exp(x)
    z = np.zeros(rule.n, dtype=complex)
    tr = BoundaryTrace(rule, g.astype(complex), g.astype(complex), z, z)
    res = representation_boundary(tr, lens, "lower") - tr.u_lower
    mask = window_mask(rule, 0.2)
    assert np.max(np.abs(res[mask])) <= 1e-3


def test_condition_report_window(lens, solutions):
    rule = build_rule("gauss-legendre", 64, -1, 1)
    tr = make_trace(solutions["z2"], lens, rule)
    rep = condition_report(tr, lens, "eq10", delta=0.3)
    mask = (rule.nodes >= -0.7) & (rule.nodes <= 0.7)
    assert rep.sup_window == pytest.approx(np.max(rep.residuals[mask]))
    assert rep.window_delta == 0.3


# ---------------------------------------------------------------------------
# the real-arithmetic kernels against their complex formulas
# ---------------------------------------------------------------------------

# closes at x1 = -1 and 1: gamma_2 - gamma_1 = 2 (1 - x^2)(1 + 0.2 x)
CLOSING_CUBIC = PlaneDomain(-1.0, 1.0,
                            lower=CurveDescriptor("polynomial", (-0.9, -0.1, 0.9, 0.1)),
                            upper=CurveDescriptor("polynomial", (1.1, 0.3, -1.1, -0.3)))


def _complex_formulas(domain, rule, trace):
    """eq8, cauchy and both boundary representations, rebuilt from the
    rule's node weight matrices with the complex logarithm, np.angle,
    complex division and the angle lift of the complex argument."""
    ops = build_operators(domain, rule)
    wlog, partial = node_weight_matrices(rule)
    x, w, n = rule.nodes, rule.weights, rule.n
    g1, g2, f1col, f2col = ops.g1, ops.g2, 1 - 1j * ops.g1p, 1 - 1j * ops.g2p
    dx = x[None, :] - x[:, None]
    off = dx + np.eye(n)  # 1 on the diagonal

    def lifted(v):
        ang = np.angle(v)
        return np.log(np.abs(v)) + 1j * np.where(ang < 0, ang + 2 * np.pi, ang)

    def m(g, gp):  # diffq + i
        q = (g[None, :] - g[:, None]) / off
        np.fill_diagonal(q, gp)
        return q + 1j

    def remainder(curve, g):
        gp, gpp = curve.slope(x), curve.curvature(x)
        dg = g[None, :] - g[:, None]
        core = (1j / TWO_PI) * (dg - gp[None, :] * off) / (off * (dg + 1j * off))
        np.fill_diagonal(core, -(1j / (2 * TWO_PI)) * gpp / (gp + 1j))
        return w[None, :] * core

    sign = -0.25j * (w[None, :] - 2.0 * partial)
    m1 = m(g1, ops.g1p)
    r1 = (np.log(np.abs(m1)) + 1j * (np.angle(m1) - np.pi / 2)) / TWO_PI
    den21 = (g2[None, :] - g1[:, None]) + 1j * dx
    den12 = (g1[None, :] - g2[:, None]) + 1j * dx
    eq8 = np.concatenate([(w * r1 + wlog / TWO_PI) * (-2.0 * f1col),
                          (w * np.log(den21) / TWO_PI + sign) * (2.0 * f2col)], axis=1)
    cauchy = np.block([
        [2.0 * remainder(domain.lower, g1), w * ((-2.0 / TWO_PI) / den21) * f2col],
        [w * ((2.0 / TWO_PI) / den12) * f1col, -2.0 * remainder(domain.upper, g2)]])

    a, b = rule.a, rule.b
    zeta1, zeta2 = g1 + 1j * x, g2 + 1j * x
    c_lo, c_hi = (complex(domain.lower.value(v)) + 1j * v for v in (a, b))
    d_lo, d_hi = (complex(domain.upper.value(v)) + 1j * v for v in (a, b))
    l21 = (np.log(d_hi - zeta1) - np.log(d_lo - zeta1)) / (2j * np.pi)
    l12 = (lifted(c_hi - zeta2) - lifted(c_lo - zeta2)) / (2j * np.pi)
    anti = lambda v: v * (np.log(v) - 1.0)
    g2_a, g2_b = d_lo.real, d_hi.real
    m21 = ((-1j / TWO_PI) * (anti(d_hi - zeta1) - anti(d_lo - zeta1))
           - 0.25j * ((b - x) - 1j * (g2_b - g2) - (x - a) + 1j * (g2 - g2_a)))
    dku21 = m21 - 0.5 * np.sum(eq8[:, n:], axis=1)
    diag = np.arange(n)
    eq8[diag, diag] += 2.0 * dku21
    cauchy[diag, diag] += -2.0 * l21 - np.sum(cauchy[:n, n:], axis=1)
    cauchy[n + diag, n + diag] += 2.0 * l12 - np.sum(cauchy[n:, :n], axis=1)

    du1, du2 = trace.du_lower, trace.du_upper
    lower = trace.u_lower - (0.5 * (eq8 @ np.concatenate([du1, du2])) - dku21 * du1
                             - sign @ (f2col * du2 - f1col * du1))
    m2 = m(g2, ops.g2p)
    kv22 = (w * (np.log(np.abs(m2)) + 1j * np.angle(m2)) / TWO_PI + wlog / TWO_PI
            - 0.5j * partial) * f2col
    kv12 = (w * lifted(den12) / TWO_PI - 1j * partial) * f1col
    upper = trace.u_lower - (kv22 @ du2 - kv12 @ du1)
    return eq8, cauchy, lower, upper


@pytest.mark.parametrize("family,n", [("gauss-legendre", 64), ("gauss-legendre", 256),
                                      ("midpoint-uniform", 48)])
@pytest.mark.parametrize("domain_name", ["lens", "cubic"])
def test_operators_match_complex_formulas(lens, solutions, domain_name, family, n):
    domain = lens if domain_name == "lens" else CLOSING_CUBIC
    rule = build_rule(family, n, domain.a1, domain.b1)
    trace = make_trace(solutions["exp_half"], domain, rule)
    eq8, cauchy = _dense_bundle(domain, rule)[:2]
    got = (eq8, cauchy, representation_boundary(trace, domain, "lower"),
           representation_boundary(trace, domain, "upper"))
    for actual, expected in zip(got, _complex_formulas(domain, rule, trace)):
        assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("family,n", [("gauss-legendre", 64), ("gauss-legendre", 256),
                                      ("midpoint-uniform", 48)])
@pytest.mark.parametrize("domain_name", ["lens", "cubic"])
def test_trace_products_match_dense_bundle(lens, domain_name, family, n):
    # the residual path applies each kernel block to the trace as it is
    # built; the products equal those of the dense reference bundle,
    # relative to the sum of their terms' magnitudes (dku21 is a moment
    # minus half a row sum, which nearly cancel)
    domain = lens if domain_name == "lens" else CLOSING_CUBIC
    rule = build_rule(family, n, domain.a1, domain.b1)
    rng = np.random.default_rng(17)
    u = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    prods = trace_products(BoundaryTrace(rule, *u), domain)
    eq8, cauchy, _, dku21 = _dense_bundle(domain, rule)
    d = np.concatenate(u[2:])
    for actual, expected, terms in (
            (prods.eq8, eq8 @ d, np.abs(eq8) @ np.abs(d)),
            (prods.cauchy, cauchy @ d, np.abs(cauchy) @ np.abs(d)),
            (prods.dku21, dku21, 0.5 * np.abs(eq8[:, n:]) @ np.ones(n))):
        assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(terms)


# ---------------------------------------------------------------------------
# row tiles: the untiled kernel blocks, kept as the reference the tiled
# generator must reproduce bit for bit
# ---------------------------------------------------------------------------

def _untiled_diffq(g, gp, x):
    dx = x[None, :] - x[:, None]
    dg = g[None, :] - g[:, None]
    np.fill_diagonal(dx, 1.0)
    m = dg / dx
    np.fill_diagonal(m, gp)
    return m


def _untiled_bounded_remainder(parts, x, gv, gp, gpp, w):
    dx, dg = parts
    np.subtract(x[None, :], x[:, None], out=dx)
    np.subtract(gv[None, :], gv[:, None], out=dg)
    np.fill_diagonal(dx, 1.0)
    den = dg * dg
    q = np.multiply(dx, dx)
    den += q
    den *= dx
    den *= TWO_PI
    np.multiply(dx, gp, out=q)
    np.subtract(dg, q, out=q)
    q /= den
    q *= w
    dx *= q
    dg *= q
    diag = w * (-(1j / (2 * TWO_PI)) * gpp / (gp + 1j))
    np.fill_diagonal(dx, diag.real)
    np.fill_diagonal(dg, diag.imag)


def _untiled_kernel_blocks(domain, rule, curves, wlog, partial):
    """(r, c, parts, gp) for each whole N x N block, the lower-left cross
    block read as the transpose of the eq10 one's operands."""
    x, w = rule.nodes, rule.weights
    g1, g2, g1p, g2p = curves
    parts = np.empty((2, rule.n, rule.n))
    re, im = parts
    d = _untiled_diffq(g1, g1p, x)
    np.multiply(d, d, out=re)
    np.log1p(re, out=re)
    re *= 0.5 * w
    re += wlog
    re *= -2.0 / TWO_PI
    np.arctan(d, out=im)
    im *= (2.0 / TWO_PI) * w
    yield 0, 0, parts, g1p
    dx = x[None, :] - x[:, None]
    gap21 = g2[None, :] - g1[:, None]
    rho = np.multiply(gap21, gap21)
    np.multiply(dx, dx, out=re)
    rho += re
    np.log(rho, out=re)
    re *= w / TWO_PI
    np.arctan2(dx, gap21, out=im)
    im *= (2.0 / TWO_PI) * w
    im += partial
    im -= 0.5 * w
    yield 0, 1, parts, g2p
    np.reciprocal(rho, out=rho)
    gap21 *= rho
    dx *= rho
    np.multiply(gap21, (-2.0 / TWO_PI) * w, out=re)
    np.multiply(dx, (2.0 / TWO_PI) * w, out=im)
    yield 1, 1, parts, g2p
    np.multiply(gap21.T, (-2.0 / TWO_PI) * w, out=re)
    np.multiply(dx.T, (2.0 / TWO_PI) * w, out=im)
    yield 2, 0, parts, g1p
    _untiled_bounded_remainder(parts, x, g1, g1p, domain.lower.curvature(x), 2.0 * w)
    yield 1, 0, parts, None
    _untiled_bounded_remainder(parts, x, g2, g2p, domain.upper.curvature(x), -2.0 * w)
    yield 2, 1, parts, None


def _filled_bundle(domain, rule, blocks, pv_matrix):
    """(eq8, cauchy, pv, dku21) written from the (r, c, lo, parts, gp) row
    tiles of `blocks` into one dense [eq8; cauchy] stack, the corner
    corrections from whole-block row sums; pv is `pv_matrix(rule)`."""
    n = rule.n
    ops = build_operators(domain, rule)
    stack = np.empty((3 * n, 2 * n), dtype=complex)

    def block(r, c):
        return stack[r * n:(r + 1) * n, c * n:(c + 1) * n]

    for r, c, lo, parts, gp in blocks(ops, *node_weight_matrices(rule)):
        _fill(block(r, c)[lo:lo + parts.shape[1]], parts[0], parts[1], gp)
    moments = _corner_moments(domain, ops)
    corners = {rc: moments[rc] - block(*cross) @ np.ones(n) for rc, cross in _CORNERS.items()}
    diag = np.arange(n)
    for (r, c), v in corners.items():
        stack[r * n + diag, c * n + diag] += v
    return stack[:n], stack[n:], pv_matrix(rule), 0.5 * corners[0, 0]


def _dense_bundle(domain, rule):
    """The dense reference operators (eq8, cauchy, pv, dku21) of
    docs/method.md section 6, from the untiled blocks."""
    def blocks(ops, wlog, partial):
        curves = (ops.g1, ops.g2, ops.g1p, ops.g2p)
        for r, c, parts, gp in _untiled_kernel_blocks(domain, rule, curves, wlog, partial):
            yield r, c, 0, parts, gp

    return _filled_bundle(domain, rule, blocks, pv_weight_matrix)


def _dense_assembly(domain, bc, rule):
    """(matrix, rhs) of the second-kind system from the dense reference
    bundle: block A is eq8, block B is (i/pi) pv eq8 minus the alpha-scaled
    Cauchy rows, with D = phi - alpha u eliminated."""
    n = rule.n
    eq8, cauchy, pv, _ = _dense_bundle(domain, rule)
    phi1, phi2 = bc.sample(rule.nodes)
    a1c, a2c = complex(bc.alpha1), complex(bc.alpha2)
    phi = np.concatenate([phi1, phi2])
    alpha = np.repeat([a1c, a2c], n)
    diag = np.arange(n)
    matrix = np.empty((2 * n, 2 * n), dtype=complex)
    top, g = matrix[:n], matrix[n:]
    tiles = _row_tiles(n)  # the GEMMs of assemble, whose bits depend on their row count
    for lo, hi in tiles:
        np.matmul(pv[lo:hi], eq8.view(float), out=g[lo:hi].view(float))
    g *= 1j / np.pi
    for rows, a in ((cauchy[:n], a1c), (cauchy[n:], a2c)):
        np.multiply(rows, 1.0 / a, out=top)
        g -= top
    g[diag, diag] -= 1.0 / a1c
    g[diag, n + diag] -= 1.0 / a2c
    top[...] = eq8
    rhs = -(matrix @ phi)
    v = phi1 / a1c - phi2 / a2c
    rhs[n:] -= (1j / np.pi) * np.concatenate([_real_matvec(pv[lo:hi], v) for lo, hi in tiles])
    matrix *= -alpha
    matrix[diag, diag] += 1.0
    matrix[diag, n + diag] -= 1.0
    return matrix, rhs


# below, at and across the 64-row tile edges; the midpoint PV's one-sided
# end stencils need three nodes, so its ladder starts at 3
@pytest.mark.parametrize("family,n", [("gauss-legendre", n) for n in (2, 3, 63, 64, 65, 133, 512)]
                         + [("midpoint-uniform", n) for n in (3, 63, 64, 65, 133, 512)])
def test_tiled_bundle_is_bit_identical(family, n):
    rule = build_rule(family, n, -1.0, 1.0)
    pv_rows = lambda rule: _pv_rows(rule, 0, rule.n)
    for got, ref in zip(_filled_bundle(CLOSING_CUBIC, rule, _kernel_blocks, pv_rows),
                        _dense_bundle(CLOSING_CUBIC, rule)):
        assert np.array_equal(got, ref)


# 65 = 64 + 1: a one-row last tile, whose row sums numpy would take as a dot
# product rather than the gemv of the other rows; 129 and 133: a short last
# PV tile, whose GEMM rows take other bits than in one whole-matrix GEMM
@pytest.mark.parametrize("n", [8, 63, 64, 65, 129, 133, 512])
@pytest.mark.parametrize("family", ["gauss-legendre", "midpoint-uniform"])
@pytest.mark.parametrize("domain_name", ["lens", "cubic"])
def test_assembly_from_tiles_is_bit_identical(lens, solutions, domain_name, family, n):
    # assemble writes each tile into the system as it is built; the system
    # equals the one assembled from the dense reference bundle, bit for bit
    domain = lens if domain_name == "lens" else CLOSING_CUBIC
    alpha1 = 1.0 if domain_name == "lens" else 0.7 + 0.2j
    rule = build_rule(family, n, domain.a1, domain.b1)
    bc = make_bc(solutions["exp_half"], domain, alpha1, 2.0, rule)
    system = assemble(domain, bc, rule)
    matrix, rhs = _dense_assembly(domain, bc, rule)
    assert np.array_equal(system.matrix, matrix)
    assert np.array_equal(system.rhs, rhs)


def test_kernel_blocks_come_whole_and_drop_the_weights_before_cauchy():
    # every tile of a block before the next block, eq8's two first; the
    # weight matrices, which only eq8 reads, are gone by the first cauchy tile
    n = 133
    rule = build_rule("gauss-legendre", n, -1.0, 1.0)
    wlog, partial = node_weight_matrices(rule)
    refs = [weakref.ref(a) for a in (wlog, partial, wlog.base)]  # base: their one allocation
    blocks = _kernel_blocks(build_operators(CLOSING_CUBIC, rule), wlog, partial)
    del wlog, partial
    seen = []
    for r, c, lo, parts, gp in blocks:
        if r and not any(rc[0] for rc in seen):
            assert [ref() for ref in refs] == [None] * len(refs)
        seen.append((r, c, lo))
    order = [(0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (2, 1)]
    assert seen == [(r, c, lo) for r, c in order for lo, _ in _row_tiles(n)]


def _residual_path_peak(solutions, n):
    """tracemalloc peak of a warm condition_residuals call, in n^2 doubles."""
    rule = build_rule("gauss-legendre", n, -1.0, 1.0)
    trace = make_trace(solutions["z2"], CLOSING_CUBIC, rule)
    condition_residuals(trace, CLOSING_CUBIC, CONDITION_IDS)  # first-call costs
    tracemalloc.start()
    try:
        condition_residuals(trace, CLOSING_CUBIC, CONDITION_IDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


def test_residual_path_forms_no_square_kernel_array(solutions):
    # the residual path's peak is the window of Legendre P and Q rows, one
    # k-block of moments and the kernel tiles, about 0.9 n^2 doubles at
    # n = 512; one more n x n array would exceed 1.5 n^2
    peak = _residual_path_peak(solutions, 512)
    assert peak <= 1.5, peak


def test_residual_path_peak_scales_with_n(solutions):
    # the residual path holds O(n) memory: its peak in n^2 doubles halves
    # as n doubles, about 0.44 n^2 at n = 1024
    peak = _residual_path_peak(solutions, 1024)
    assert peak <= 0.8, peak


def _direct_upper_representation(trace, domain):
    """The upper boundary representation from whole n x n kernel arrays and
    the dense node weight matrices: the curve-1 kernel seen from curve 2
    evaluated on its own grid, with the angle lifted to [0, 2pi)."""
    rule = trace.rule
    x, w = rule.nodes, rule.weights
    ops = build_operators(domain, rule)
    g1, g2, g1p, g2p = ops.g1, ops.g2, ops.g1p, ops.g2p
    v1 = (1 - 1j * g1p) * trace.du_lower
    v2 = (1 - 1j * g2p) * trace.du_upper
    wlog, partial = node_weight_matrices(rule)
    u1, u2 = w * v1, w * v2
    d = _untiled_diffq(g2, g2p, x)
    flux = 0.5 * np.log1p(d * d) @ u2 + 1j * (0.5 * np.pi * np.sum(u2) - np.arctan(d) @ u2)
    gap = g1[None, :] - g2[:, None]
    dx = x[None, :] - x[:, None]
    ang = np.arctan2(dx, gap)
    ang = np.where(ang < 0, ang + 2 * np.pi, ang)
    flux -= 0.5 * np.log(gap * gap + dx * dx) @ u1 + 1j * ang @ u1
    flux = (flux + wlog @ v2) / TWO_PI - 1j * (0.5 * partial @ v2 - partial @ v1)
    return trace.u_lower - flux


# on [-0.5, 2] the curves do not close: gap 1.3 + 0.2 x - 0.3 x^2 > 0
OPEN_DOMAIN = PlaneDomain(-0.5, 2.0,
                          lower=CurveDescriptor("polynomial", (-0.6, -0.1, 0.2)),
                          upper=CurveDescriptor("polynomial", (0.7, 0.1, -0.1)))


@pytest.mark.parametrize("family,n", [("gauss-legendre", 64), ("gauss-legendre", 257),
                                      ("midpoint-uniform", 40)])
def test_upper_representation_matches_direct_formula(solutions, family, n):
    rule = build_rule(family, n, OPEN_DOMAIN.a1, OPEN_DOMAIN.b1)
    trace = make_trace(solutions["exp_half"], OPEN_DOMAIN, rule)
    got = representation_boundary(trace, OPEN_DOMAIN, "upper")
    expected = _direct_upper_representation(trace, OPEN_DOMAIN)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(trace.u_upper))


@pytest.mark.parametrize("family,n", [("gauss-legendre", 64), ("gauss-legendre", 257),
                                      ("midpoint-uniform", 40)])
def test_pv_rows_are_the_matrix_rows(family, n):
    rule = build_rule(family, n, OPEN_DOMAIN.a1, OPEN_DOMAIN.b1)
    pv = pv_weight_matrix(rule)
    for lo, hi in ((0, 1), (0, min(n, 64)), (5, 38), (n - 1, n), (n - 3, n), (0, n)):
        assert np.array_equal(_pv_rows(rule, lo, hi), pv[lo:hi])
    if n > 64:
        for lo in range(0, n, 64):
            assert np.array_equal(_pv_rows(rule, lo, min(lo + 64, n)), pv[lo:lo + 64])


def test_operators_cached(lens):
    rule = build_rule("gauss-legendre", 32, -1, 1)
    assert build_operators(lens, rule) is build_operators(lens, rule)


def test_operator_cache_keeps_one_bundle(lens):
    # the cache holds only the latest rule's node samples: an earlier rule's
    # are never read again
    for n in (16, 32):
        build_operators(lens, build_rule("gauss-legendre", n, -1, 1))
    assert build_operators.cache_info().currsize == 1


def test_cached_operators_are_read_only(lens):
    # the cache hands the same node samples to every caller: a write would
    # change every later residual, assembly and interior reconstruction on
    # this (domain, rule) pair
    ops = build_operators(lens, build_rule("gauss-legendre", 16, -1, 1))
    for f in fields(Operators)[1:]:
        with pytest.raises(ValueError, match="read-only"):
            getattr(ops, f.name)[0] = 0
