"""Plane domains convex in the x2 direction.

The boundary consists of two graph curves over a common interval [a1, b1]:
a lower curve gamma_1 and an upper curve gamma_2 with gamma_1 < gamma_2 on
the open interval and equality permitted only at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError

CURVE_KINDS = ("lens", "ellipse-graph", "polynomial")


@dataclass(frozen=True)
class CurveDescriptor:
    """One boundary curve x2 = gamma(x1) with its first two derivatives.

    kind / parameters:
      "lens"          [a]            gamma(x) = a * (1 - x^2)
      "ellipse-graph" [rx, ry]       gamma(x) = ry * sqrt(1 - (x/rx)^2)
                                     (ry < 0 gives a lower arc)
      "polynomial"    [c0, ..., cm]  gamma(x) = sum c_k x^k
    """

    kind: str
    parameters: tuple

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise GeometryError(f"unknown curve kind {self.kind!r}")
        params = tuple(float(p) for p in self.parameters)
        object.__setattr__(self, "parameters", params)
        if self.kind == "lens" and len(params) != 1:
            raise GeometryError("lens curve takes one parameter")
        if self.kind == "ellipse-graph" and len(params) != 2:
            raise GeometryError("ellipse-graph curve takes [rx, ry]")
        if self.kind == "polynomial" and not params:
            raise GeometryError("polynomial curve needs coefficients")

    def value(self, x1):
        x1 = np.asarray(x1, dtype=float)
        if self.kind == "lens":
            (a,) = self.parameters
            return a * (1.0 - x1 * x1)
        if self.kind == "ellipse-graph":
            rx, ry = self.parameters
            with np.errstate(invalid="ignore"):
                return ry * np.sqrt(1.0 - (x1 / rx) ** 2)
        return np.polyval(self.parameters[::-1], x1)  # polynomial

    def slope(self, x1):
        x1 = np.asarray(x1, dtype=float)
        if self.kind == "lens":
            (a,) = self.parameters
            return -2.0 * a * x1
        if self.kind == "ellipse-graph":
            rx, ry = self.parameters
            with np.errstate(divide="ignore", invalid="ignore"):
                return -ry * x1 / (rx * rx * np.sqrt(1.0 - (x1 / rx) ** 2))
        c = self.parameters  # polynomial
        d = [k * c[k] for k in range(1, len(c))] or [0.0]
        return np.polyval(d[::-1], x1)

    def curvature(self, x1):
        """Second derivative gamma''(x1); needed by the singular-kernel splits."""
        x1 = np.asarray(x1, dtype=float)
        if self.kind == "lens":
            (a,) = self.parameters
            return np.full_like(x1, -2.0 * a)
        if self.kind == "ellipse-graph":
            rx, ry = self.parameters
            with np.errstate(divide="ignore", invalid="ignore"):
                return -ry / (rx * rx * (1.0 - (x1 / rx) ** 2) ** 1.5)
        c = self.parameters  # polynomial
        d2 = [k * (k - 1) * c[k] for k in range(2, len(c))] or [0.0]
        return np.polyval(d2[::-1], x1)


@dataclass(frozen=True)
class PlaneDomain:
    """Domain between lower and upper graph curves over [a1, b1]."""

    a1: float
    b1: float
    lower: CurveDescriptor
    upper: CurveDescriptor

    def __post_init__(self):
        if not self.a1 < self.b1:
            raise GeometryError(f"need a1 < b1, got [{self.a1}, {self.b1}]")

    def curve(self, side: str) -> CurveDescriptor:
        if side == "lower":
            return self.lower
        if side == "upper":
            return self.upper
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")

    def contains(self, x1: float, x2: float) -> bool:
        if not (self.a1 <= x1 <= self.b1):
            return False
        return float(self.lower.value(x1)) < x2 < float(self.upper.value(x1))


@dataclass
class ValidationReport:
    valid: bool
    convexity_violations: list
    nonfinite_points: list
    max_abs_slope: float
    max_slope_at: float
    endpoint_gaps: tuple = (0.0, 0.0)  # gamma_2 - gamma_1 at a1 and b1; the
    # boundary identities assume the curves meet there (closed contour)
    max_abs_gamma: float = 0.0  # largest |gamma_k| probed; nan if one is non-finite


def validate_domain(domain: PlaneDomain, probes: int) -> ValidationReport:
    """Probe the standing hypotheses on a uniform grid (report-only, never raises).

    Flags interior points where gamma_1 >= gamma_2, non-finite values or
    slopes, and records the largest finite |gamma'| and the largest |gamma_k|.
    """
    if probes < 2:
        raise GeometryError("probes must be >= 2")
    xs = np.linspace(domain.a1, domain.b1, probes)
    interior = (xs > domain.a1) & (xs < domain.b1)

    with np.errstate(all="ignore"):
        lo = domain.lower.value(xs)
        hi = domain.upper.value(xs)
        slo = domain.lower.slope(xs)
        shi = domain.upper.slope(xs)

    nonfinite = []
    for arr in (lo, hi, slo, shi):
        nonfinite.extend(xs[~np.isfinite(np.asarray(arr, dtype=float))].tolist())
    nonfinite = sorted(set(nonfinite))

    gap = hi - lo
    violations = xs[interior & ~(gap > 0)].tolist()

    slopes = np.concatenate([np.atleast_1d(slo), np.atleast_1d(shi)])
    xboth = np.concatenate([xs, xs])
    finite = np.isfinite(slopes)
    if np.any(finite):
        k = int(np.argmax(np.abs(np.where(finite, slopes, 0.0))))
        max_abs = float(abs(slopes[k]))
        max_at = float(xboth[k])
    else:
        max_abs, max_at = float("nan"), float("nan")

    with np.errstate(all="ignore"):
        gaps = (
            float(domain.upper.value(domain.a1) - domain.lower.value(domain.a1)),
            float(domain.upper.value(domain.b1) - domain.lower.value(domain.b1)),
        )
    return ValidationReport(
        valid=not violations and not nonfinite,
        convexity_violations=violations,
        nonfinite_points=nonfinite,
        max_abs_slope=max_abs,
        max_slope_at=max_at,
        endpoint_gaps=gaps,
        max_abs_gamma=float(np.max(np.abs([lo, hi]))),
    )


def lens_domain(half_height: float = 1.0) -> PlaneDomain:
    """The default test domain: gamma_2 = h(1-x^2), gamma_1 = -h(1-x^2) on [-1, 1]."""
    return PlaneDomain(
        a1=-1.0,
        b1=1.0,
        lower=CurveDescriptor("lens", (-half_height,)),
        upper=CurveDescriptor("lens", (half_height,)),
    )

