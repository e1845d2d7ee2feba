import numpy as np
import pytest

from cbie.errors import DomainError, GeometryError
from cbie.geometry import (
    CurveDescriptor,
    PlaneDomain,
    validate_domain,
)


def test_lens_eval_upper_at_zero(lens):
    assert lens.upper.value(0.0) == 1.0
    assert lens.upper.slope(0.0) == 0.0


def test_lens_eval_lower(lens):
    assert lens.lower.value(0.5) == pytest.approx(-0.75)
    assert lens.lower.slope(0.5) == pytest.approx(1.0)


def test_tabulated_is_an_unknown_kind():
    # a monotone cubic through the points has a second derivative that jumps
    # at every point, and the solve does not converge on it
    with pytest.raises(GeometryError, match="unknown curve kind 'tabulated'"):
        CurveDescriptor("tabulated", (0.0, 1.0, 0.0, 1.0))


def test_eval_curve_vectorized(lens):
    x = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(lens.upper.value(x), 1 - x * x)
    assert np.allclose(lens.upper.slope(x), -2 * x)


def test_bad_side(lens):
    with pytest.raises(DomainError):
        lens.curve("middle")


def test_domain_requires_ordered_interval():
    c = CurveDescriptor("lens", (1.0,))
    with pytest.raises(GeometryError):
        PlaneDomain(1.0, -1.0, lower=c, upper=c)


def test_validate_lens(lens):
    report = validate_domain(lens, probes=101)
    assert report.valid
    assert not report.convexity_violations
    # slope of +-(1 - x^2) peaks at the interval ends: |gamma'| = 2 there
    assert report.max_abs_slope == pytest.approx(2.0)
    assert abs(report.max_slope_at) == pytest.approx(1.0)
    assert report.endpoint_gaps == (0.0, 0.0)


def test_validate_degenerate_flat_domain():
    flat = CurveDescriptor("polynomial", (0.0,))
    dom = PlaneDomain(-1.0, 1.0, lower=flat, upper=flat)
    report = validate_domain(dom, probes=11)
    assert not report.valid
    # every interior probe violates the gap condition
    assert len(report.convexity_violations) == 9


def test_validate_flags_vertical_tangents():
    dom = PlaneDomain(-1.0, 1.0,
                      lower=CurveDescriptor("ellipse-graph", (1.0, -1.0)),
                      upper=CurveDescriptor("ellipse-graph", (1.0, 1.0)))
    report = validate_domain(dom, probes=101)
    assert not report.valid
    assert report.nonfinite_points  # slope blows up at the interval ends
    # interior probes see |gamma'| = |x| / sqrt(1 - x^2)
    x = 0.98
    assert dom.upper.slope(x) == pytest.approx(-x / np.sqrt(1 - x * x))


def test_validate_needs_two_probes(lens):
    with pytest.raises(GeometryError):
        validate_domain(lens, probes=1)


def test_side_symmetry(lens):
    swapped = PlaneDomain(lens.a1, lens.b1, lower=lens.upper, upper=lens.lower)
    for x in (-0.7, 0.0, 0.3):
        for side, other in (("upper", "lower"), ("lower", "upper")):
            curve, mirror = lens.curve(side), swapped.curve(other)
            assert curve.value(x) == mirror.value(x)
            assert curve.slope(x) == mirror.slope(x)


def test_curvature_values(lens):
    assert lens.upper.curvature(0.3) == pytest.approx(-2.0)
    assert lens.lower.curvature(-0.4) == pytest.approx(2.0)
    poly = CurveDescriptor("polynomial", (1.0, 2.0, 3.0, 4.0))
    assert poly.curvature(0.5) == pytest.approx(6.0 + 24.0 * 0.5)
