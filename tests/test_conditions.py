import numpy as np
import pytest

from cbie.conditions import (
    BoundaryTrace,
    build_operators,
    condition_report,
    eq7_boundary_residuals,
    eq8_residuals,
    nc_residuals,
    representation_boundary,
    singular_factor,
    window_mask,
)
from cbie.errors import DataError, DomainError, NumericError, ShapeError
from cbie.geometry import CurveDescriptor, PlaneDomain
from cbie.kernel import dU_dx2
from cbie.lcg import Lcg
from cbie.manufactured import make_trace
from cbie.quadrature import build_rule

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
    with pytest.raises(DataError):
        nc_residuals(tr, lens, "eq9")
    with pytest.raises(DataError):
        nc_residuals(tr, lens, "eq11")
    # eq10/eq12 fine without tangential data
    assert np.allclose(nc_residuals(tr, lens, "eq10"), 0)
    with pytest.raises(DataError):
        nc_residuals(tr, lens, "eq13")


# ---------------------------------------------------------------------------
# singular factorization of the diagonal dU/dx2 kernel
# ---------------------------------------------------------------------------

def test_singular_factor_reconstructs_kernel(lens):
    rng = Lcg(42)
    for _ in range(1000):
        x1 = rng.uniform(-0.99, 0.99)
        xi1 = rng.uniform(-0.99, 0.99)
        if abs(x1 - xi1) < 1e-6:
            continue
        side = "upper" if rng.uniform() < 0.5 else "lower"
        kernel, singular, remainder = singular_factor(lens, side, x1, xi1)
        assert abs((singular + remainder) - kernel) <= 1e-13 * max(abs(kernel), 1.0)
        curve = lens.curve(side)
        direct = dU_dx2(x1 - xi1, float(curve.value(x1)) - float(curve.value(xi1)))
        assert kernel == pytest.approx(direct, rel=1e-14)


def test_singular_factor_straight_line_exact():
    # constant curve: remainder vanishes identically, kernel is the pure
    # Cauchy factor (1/2pi) / (i (x1 - xi1))
    flat = PlaneDomain(-1.0, 1.0,
                       lower=CurveDescriptor("polynomial", (-1.0,)),
                       upper=CurveDescriptor("polynomial", (1.0,)))
    kernel, singular, remainder = singular_factor(flat, "upper", 0.4, 0.1)
    assert remainder == pytest.approx(0.0, abs=1e-16)
    assert kernel == pytest.approx((1 / (2 * np.pi)) / (1j * 0.3), rel=1e-13)


def test_singular_factor_linear_curve():
    tilted = PlaneDomain(-1.0, 1.0,
                         lower=CurveDescriptor("polynomial", (-2.0, 1.0)),
                         upper=CurveDescriptor("polynomial", (2.0, 1.0)))
    for (x1, xi1) in ((0.4, 0.1), (-0.3, 0.7)):
        kernel, _, remainder = singular_factor(tilted, "upper", x1, xi1)
        expected = (1 / (2 * np.pi)) / ((x1 - xi1) * (1 + 1j))
        assert kernel == pytest.approx(expected, rel=1e-13)
        assert abs(remainder) <= 1e-14


def test_singular_factor_lens_value(lens):
    kernel, _, _ = singular_factor(lens, "upper", 0.3, 0.1)
    g2 = lambda x: 1 - x * x
    assert kernel == pytest.approx(dU_dx2(0.2, g2(0.3) - g2(0.1)), rel=1e-14)


def test_singular_factor_coincident_raises(lens):
    from cbie.errors import KernelSingularityError

    with pytest.raises(KernelSingularityError):
        singular_factor(lens, "upper", 0.3, 0.3)


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


# ---------------------------------------------------------------------------
# sign / normalization audit
# ---------------------------------------------------------------------------

def test_eq8_kernel_normalization_audit(lens, solutions):
    """The zero-anchored kernel reading must NOT converge (its defect is the
    Cauchy integral of the trace difference), while the symmetric-angle
    reading does."""
    sups_good, sups_bad = [], []
    for n in (64, 128):
        rule = build_rule("gauss-legendre", n, -1, 1)
        tr = make_trace(solutions["z2"], lens, rule)
        mask = window_mask(rule, 0.2)
        good = eq8_residuals(tr, lens, kernel_variant="symmetric")
        bad = eq8_residuals(tr, lens, kernel_variant="anchored0")
        sups_good.append(np.max(np.abs(good[mask])))
        sups_bad.append(np.max(np.abs(bad[mask])))
    assert sups_good[-1] <= 1e-10
    assert min(sups_bad) > 0.1  # stays O(1): rejected variant


def test_pv_sign_audit(lens, solutions):
    """Flipping the principal-value sign in the Cauchy-formula conditions
    must break convergence."""
    rule = build_rule("gauss-legendre", 128, -1, 1)
    tr = make_trace(solutions["z2"], lens, rule)
    mask = window_mask(rule, 0.2)
    good = nc_residuals(tr, lens, "eq10", pv_sign=+1.0)
    bad = nc_residuals(tr, lens, "eq10", pv_sign=-1.0)
    assert np.max(np.abs(good[mask])) <= 1e-10
    assert np.max(np.abs(bad[mask])) > 0.1


# ---------------------------------------------------------------------------
# boundary representation (the half-trace identity)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["const", "z", "z2", "exp_half"])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_eq7_boundary_residuals(lens, solutions, name, side):
    rule = build_rule("gauss-legendre", 256, -1, 1)
    tr = make_trace(solutions[name], lens, rule)
    res = eq7_boundary_residuals(tr, lens, side)
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
    res = eq7_boundary_residuals(tr, lens, "lower")
    mask = window_mask(rule, 0.2)
    assert np.max(np.abs(res[mask])) <= 1e-3


def test_condition_report_window(lens, solutions):
    rule = build_rule("gauss-legendre", 64, -1, 1)
    tr = make_trace(solutions["z2"], lens, rule)
    rep = condition_report(tr, lens, "eq10", delta=0.3)
    mask = (rule.nodes >= -0.7) & (rule.nodes <= 0.7)
    assert rep.sup_window == pytest.approx(np.max(rep.residuals[mask]))
    assert rep.window_delta == 0.3


def test_operators_cached(lens):
    rule = build_rule("gauss-legendre", 32, -1, 1)
    assert build_operators(lens, rule) is build_operators(lens, rule)
