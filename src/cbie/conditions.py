"""Trace compatibility conditions for solutions of u_x2x2 + i u_x1x2 = 0.

Every solution with traces u_k = u(., gamma_k) and du_k = du/dx2(., gamma_k)
on the two boundary curves satisfies (see docs/method.md for derivations):

  eq8   trace-difference identity, weakly singular log kernels only:
        u_1(xi) - u_2(xi) + 2 int du_2 U(.) [1 - i g2'] - 2 int du_1 U(.) [1 - i g1'] = 0
        with U the symmetric-angle log kernel anchored at gamma_1(xi)

  eq10/eq12  boundary Cauchy formula for the x2-derivative (targets on the
        lower/upper curve), Cauchy-singular on the diagonal pair

  eq9/eq11   the same identities re-expressed through tangential traces

  eq7-boundary  the full representation formula pushed onto a curve; its
        principal-value evaluation there reproduces the half-trace jump

The Cauchy-singular kernels are split as

    (1 - i g') dU/dx2 |_diag = (-i/2pi)/(x - xi)  +  bounded remainder,

the principal-value part going through the discrete PV operator and the
remainder through the plain rule; the remainder's diagonal limit is
-(i/4pi) g''(xi) / (g'(xi) + i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    AssemblyError,
    DataError,
    DomainError,
    KernelSingularityError,
    NumericError,
    ShapeError,
)
from .geometry import PlaneDomain
from .kernel import TWO_PI
from .quadrature import (
    QuadratureRule,
    log_weight_matrix,
    partial_integral_matrix,
    pv_weight_matrix,
)

CONDITION_IDS = ("eq8", "eq9", "eq10", "eq11", "eq12", "eq7-boundary")


@dataclass
class BoundaryTrace:
    """Sampled boundary data at the rule's nodes.

    u_*: trace of u on each curve; du_*: trace of du/dx2.  The tangential
    arrays ux1_* (trace of du/dx1) are optional and only needed by the
    eq9/eq11 residuals.
    """

    rule: QuadratureRule
    u_lower: np.ndarray
    u_upper: np.ndarray
    du_lower: np.ndarray
    du_upper: np.ndarray
    ux1_lower: Optional[np.ndarray] = None
    ux1_upper: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.rule.n
        for name in ("u_lower", "u_upper", "du_lower", "du_upper", "ux1_lower", "ux1_upper"):
            tangential = name.startswith("ux1")
            if tangential and getattr(self, name) is None:
                continue
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != (n,):
                raise ShapeError(f"{name} has shape {arr.shape}, expected ({n},)")
            if not tangential and not np.all(np.isfinite(arr)):
                raise NumericError(f"{name} contains non-finite entries")
            setattr(self, name, arr)


@dataclass
class ResidualReport:
    condition_id: str
    residuals: np.ndarray
    sup_window: float
    window_delta: float


def _diffq(gamma_vals: np.ndarray, slope_vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m[i, j] = (gamma(x_j) - gamma(x_i)) / (x_j - x_i), slope on the diagonal."""
    dx = x[None, :] - x[:, None]
    dg = gamma_vals[None, :] - gamma_vals[:, None]
    np.fill_diagonal(dx, 1.0)
    m = dg / dx
    np.fill_diagonal(m, slope_vals)
    return m


def log_lifted(w):
    """log w with the angle lifted to [0, 2pi): the branch continuous
    across the negative real axis, for arguments in the left half-plane."""
    ang = np.angle(w)
    return np.log(np.abs(w)) + 1j * np.where(ang < 0, ang + 2 * np.pi, ang)


@dataclass(frozen=True)
class Operators:
    """Dense operator matrices for one (domain, rule) pair.

    All matrices act on raw trace sample vectors (the quadrature weights
    and the [1 - i gamma'] factors are folded into the entries).  Target
    rows are the rule nodes.
    """

    rule: QuadratureRule
    g1: np.ndarray = field(repr=False)
    g2: np.ndarray = field(repr=False)
    g1p: np.ndarray = field(repr=False)
    g2p: np.ndarray = field(repr=False)
    pv: np.ndarray = field(repr=False)          # discrete PV of a sample vector
    wlog: np.ndarray = field(repr=False)        # weights for int f log|x - x_i|
    partial: np.ndarray = field(repr=False)     # weights for int_a^{x_i} f
    ku11: np.ndarray = field(repr=False)        # eq8 kernel, curve 1 -> targets on curve 1
    ku21: np.ndarray = field(repr=False)        # eq8 kernel, curve 2 -> targets on curve 1
    c21: np.ndarray = field(repr=False)         # dU/dx2, curve 2 -> targets on curve 1
    c12: np.ndarray = field(repr=False)         # dU/dx2, curve 1 -> targets on curve 2
    b11: np.ndarray = field(repr=False)         # bounded remainder, diagonal pair curve 1
    b22: np.ndarray = field(repr=False)         # bounded remainder, diagonal pair curve 2
    dc21: np.ndarray = field(repr=False)        # corner corrections: exact zeroth
    dc12: np.ndarray = field(repr=False)        # kernel moments minus discrete row
    dku21: np.ndarray = field(repr=False)       # sums, applied to the continued trace

    # Cross-pair integrals evaluated with analytic-continuation subtraction:
    # the trace on the opposite curve at the target is the analytic
    # continuation of the density, so subtracting it removes the corner
    # quasi-singularity and the exact kernel moment restores the total.
    def cross_c21(self, du1, du2):
        return self.c21 @ du2 + self.dc21 * du1

    def cross_c12(self, du1, du2):
        return self.c12 @ du1 + self.dc12 * du2

    def cross_ku21(self, du1, du2):
        return self.ku21 @ du2 + self.dku21 * du1


def _bounded_remainder(x, gv, gp, gpp, w):
    """w_j [ (1 - i g'(x_j)) dU/dx2(x_j - x_i, g(x_j) - g(x_i)) + (i/2pi)/(x_j - x_i) ],
    with the continuous diagonal limit -(i/4pi) g''(x_i)/(g'(x_i) + i).

    The algebraic form (i/2pi)(dg - g'(x_j) dx) / (dx (dg + i dx)) already
    carries the (1 - i g') column factor."""
    dx = x[None, :] - x[:, None]
    dg = gv[None, :] - gv[:, None]
    np.fill_diagonal(dx, 1.0)
    num = dg - gp[None, :] * dx
    core = (1j / TWO_PI) * num / (dx * (dg + 1j * dx))
    np.fill_diagonal(core, -(1j / (2 * TWO_PI)) * gpp / (gp + 1j))
    return w[None, :] * core


def _sign_weights(rule: QuadratureRule, partial: np.ndarray) -> np.ndarray:
    """Weights of int f(x) (-(i/4)) sign(x - x_i) dx at the nodes, through the
    running integral: -(i/4) (int_a^b f - 2 int_a^{x_i} f)."""
    return -0.25j * (rule.weights[None, :] - 2.0 * partial)


@lru_cache(maxsize=8)
def build_operators(domain: PlaneDomain, rule: QuadratureRule) -> Operators:
    x, w = rule.nodes, rule.weights
    g1 = np.asarray(domain.lower.value(x), dtype=float)
    g2 = np.asarray(domain.upper.value(x), dtype=float)
    g1p = np.asarray(domain.lower.slope(x), dtype=float)
    g2p = np.asarray(domain.upper.slope(x), dtype=float)
    g1pp = np.asarray(domain.lower.curvature(x), dtype=float)
    g2pp = np.asarray(domain.upper.curvature(x), dtype=float)
    for arr, nm in ((g1, "gamma_1"), (g2, "gamma_2"), (g1p, "gamma_1'"), (g2p, "gamma_2'")):
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"{nm} non-finite at a quadrature node")
    gap = g2 - g1
    if np.any(gap <= 0):
        j = int(np.argmin(gap))
        raise AssemblyError(
            f"curves touch at node x1={x[j]} (gap {gap[j]}); kernels singular there")

    f1col = 1.0 - 1j * g1p
    f2col = 1.0 - 1j * g2p
    dx = x[None, :] - x[:, None]

    pv = pv_weight_matrix(rule)
    wlog = log_weight_matrix(rule)
    partial = partial_integral_matrix(rule)

    # eq8 kernel matrices, targets on the lower curve.
    # Diagonal pair: symmetric-angle kernel splits into (1/2pi) log|x - xi|
    # plus the smooth part (1/2pi)[log|m| + i(Arg m - pi/2)], m = diffq + i.
    m1 = _diffq(g1, g1p, x) + 1j
    r1 = (np.log(np.abs(m1)) + 1j * (np.angle(m1) - np.pi / 2)) / TWO_PI
    ku11 = (w[None, :] * r1 + wlog / TWO_PI) * f1col[None, :]
    # Cross pair gamma_2(x_j) - gamma_1(x_i) > 0: continuous principal-log
    # part with plain weights; the -(i/4) sign(x_j - x_i) part integrated
    # exactly through the running-integral weights.
    den21 = (g2[None, :] - g1[:, None]) + 1j * dx
    ku21 = (w[None, :] * (np.log(den21) / TWO_PI)
            + _sign_weights(rule, partial)) * f2col[None, :]

    # dU/dx2 cross matrices (smooth: the vertical gap never closes at nodes).
    c21 = w[None, :] * ((1.0 / TWO_PI) / den21) * f2col[None, :]
    den12 = (g1[None, :] - g2[:, None]) + 1j * dx
    c12 = w[None, :] * ((1.0 / TWO_PI) / den12) * f1col[None, :]

    b11 = _bounded_remainder(x, g1, g1p, g1pp, w)
    b22 = _bounded_remainder(x, g2, g2p, g2pp, w)

    # Exact zeroth moments of the cross kernels (contour antiderivatives).
    # Curve-2 kernels seen from curve 1 stay in the right complex half-plane
    # (principal branch); curve-1 kernels seen from curve 2 stay in the left
    # half-plane (branch continuous there: angles lifted to (0, 2pi)).
    a1, b1 = rule.a, rule.b
    zeta1 = g1 + 1j * x
    zeta2 = g2 + 1j * x
    c_lo = complex(domain.lower.value(a1)) + 1j * a1
    c_hi = complex(domain.lower.value(b1)) + 1j * b1
    d_lo = complex(domain.upper.value(a1)) + 1j * a1
    d_hi = complex(domain.upper.value(b1)) + 1j * b1

    l21 = (np.log(d_hi - zeta1) - np.log(d_lo - zeta1)) / (2j * np.pi)
    l12 = (log_lifted(c_hi - zeta2) - log_lifted(c_lo - zeta2)) / (2j * np.pi)

    def _anti(wv):
        return wv * (np.log(wv) - 1.0)

    g2_a = float(domain.upper.value(a1))
    g2_b = float(domain.upper.value(b1))
    m21 = (-1j / TWO_PI) * (_anti(d_hi - zeta1) - _anti(d_lo - zeta1))
    m21 += -0.25j * ((b1 - x) - 1j * (g2_b - g2) - (x - a1) + 1j * (g2 - g2_a))

    dc21 = l21 - c21 @ np.ones(rule.n)
    dc12 = l12 - c12 @ np.ones(rule.n)
    dku21 = m21 - ku21 @ np.ones(rule.n)

    return Operators(rule, g1, g2, g1p, g2p, pv, wlog, partial,
                     ku11, ku21, c21, c12, b11, b22, dc21, dc12, dku21)


# ---------------------------------------------------------------------------
# Singular factorization of the diagonal dU/dx2 kernel
# ---------------------------------------------------------------------------

def singular_factor(domain: PlaneDomain, side: str, x1: float, xi1: float):
    """Split dU/dx2 on a same-curve pair into its Cauchy part and remainder.

    Returns (kernel, singular_part, remainder) with
      kernel        = dU/dx2(x1 - xi1, gamma(x1) - gamma(xi1))
      singular_part = (1/2pi) / ((x1 - xi1) (gamma'(xi1) + i))
      remainder     = kernel - singular_part  (continuous as x1 -> xi1)
    """
    if x1 == xi1:
        raise KernelSingularityError("singular_factor requires x1 != xi1",
                                     point=(x1, xi1))
    curve = domain.curve(side)
    gx, gxi = float(curve.value(x1)), float(curve.value(xi1))
    gpxi = float(curve.slope(xi1))
    d1 = x1 - xi1
    kernel = (1.0 / TWO_PI) / ((gx - gxi) + 1j * d1)
    singular = (1.0 / TWO_PI) / (d1 * (gpxi + 1j))
    return kernel, singular, kernel - singular


# ---------------------------------------------------------------------------
# Residual sweeps (vectorized over all target nodes)
# ---------------------------------------------------------------------------

def _require_tangential(trace: BoundaryTrace, which: str):
    if trace.ux1_lower is None or trace.ux1_upper is None:
        raise DataError(f"{which} needs tangential (du/dx1) trace data")


def eq8_residuals(trace: BoundaryTrace, domain: PlaneDomain,
                  kernel_variant: str = "symmetric") -> np.ndarray:
    """u_1 - u_2 + 2 int du_2 U [1-i g2'] - 2 int du_1 U [1-i g1'] at every node.

    kernel_variant="anchored0" evaluates the rejected zero-anchored kernel
    normalization instead (kept for the normalization audit; it leaves a
    nonzero Cauchy-integral defect on exact solutions).
    """
    ops = build_operators(domain, trace.rule)
    du1, du2 = trace.du_lower, trace.du_upper
    if kernel_variant == "anchored0":
        # anchored kernel = symmetric kernel - (1/2pi) log|d1| on both pairs
        ku21 = ops.ku21 - (ops.wlog / TWO_PI) * (1.0 - 1j * ops.g2p)[None, :]
        ku11 = ops.ku11 - (ops.wlog / TWO_PI) * (1.0 - 1j * ops.g1p)[None, :]
        cross = ku21 @ du2 + ops.dku21 * du1
    elif kernel_variant == "symmetric":
        ku11 = ops.ku11
        cross = ops.cross_ku21(du1, du2)
    else:
        raise DataError(f"unknown eq8 kernel variant {kernel_variant!r}")
    return (trace.u_lower - trace.u_upper
            + 2.0 * cross - 2.0 * (ku11 @ du1))


def nc_residuals(trace: BoundaryTrace, domain: PlaneDomain, which: str,
                 pv_sign: float = 1.0) -> np.ndarray:
    """Residual vectors of the Cauchy-formula conditions eq9..eq12.

    pv_sign flips the sign of the extracted principal-value part; the
    audit asserts that only +1 converges.
    """
    ops = build_operators(domain, trace.rule)
    du1, du2 = trace.du_lower, trace.du_upper
    pv1 = ops.pv @ du1
    pv2 = ops.pv @ du2
    sing1 = pv_sign * (-1j / TWO_PI) * pv1 + ops.b11 @ du1
    sing2 = pv_sign * (-1j / TWO_PI) * pv2 + ops.b22 @ du2
    t21 = ops.cross_c21(du1, du2)
    t12 = ops.cross_c12(du1, du2)
    if which == "eq10":
        return du1 - 2.0 * t21 + 2.0 * sing1
    if which == "eq12":
        return du2 - 2.0 * sing2 + 2.0 * t12
    if which == "eq9":
        _require_tangential(trace, "eq9")
        return (trace.ux1_lower - trace.ux1_upper + 1j * du2
                + 2j * sing1 - 2j * t21)
    if which == "eq11":
        _require_tangential(trace, "eq11")
        return (trace.ux1_upper - trace.ux1_lower + 1j * du1
                + 2j * t12 - 2j * sing2)
    raise DataError(f"unknown condition {which!r}")


def representation_boundary(trace: BoundaryTrace, domain: PlaneDomain,
                            side: str) -> np.ndarray:
    """Principal-value boundary evaluation of the representation formula.

    Returns the reconstruction values at every node of the chosen curve;
    for exact traces these equal the trace itself (the raw layer integrals
    carry the half-trace, the anchor term the other half).
    """
    ops = build_operators(domain, trace.rule)
    du1, du2 = trace.du_lower, trace.du_upper
    f1col = 1.0 - 1j * ops.g1p
    f2col = 1.0 - 1j * ops.g2p
    if side == "lower":
        # The eq7 kernels on this curve are the eq8 kernels ku21 and ku11
        # without their -(i/4) sign(x - xi) term (see docs/method.md section 6).
        flux = (ops.ku21 @ du2 - ops.ku11 @ du1
                - _sign_weights(trace.rule, ops.partial) @ (f2col * du2 - f1col * du1))
    elif side == "upper":
        # Curve 2: diagonal log split as on curve 1, with the half-weighted
        # jump -(i/2) int_a^{xi}; curve 1: smooth in the (0, 2pi) branch plus
        # the full jump correction -i int_a^{xi}.
        x, w = trace.rule.nodes, trace.rule.weights
        m2 = _diffq(ops.g2, ops.g2p, x) + 1j
        sm2 = (np.log(np.abs(m2)) + 1j * np.angle(m2)) / TWO_PI
        kv22 = (w[None, :] * sm2 + ops.wlog / TWO_PI - 0.5j * ops.partial) * f2col[None, :]
        den12 = (ops.g1[None, :] - ops.g2[:, None]) + 1j * (x[None, :] - x[:, None])
        kv12 = (w[None, :] * (log_lifted(den12) / TWO_PI)
                - 1j * ops.partial) * f1col[None, :]
        flux = kv22 @ du2 - kv12 @ du1
    else:
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    return trace.u_lower - flux


def eq7_boundary_residuals(trace: BoundaryTrace, domain: PlaneDomain,
                           side: str) -> np.ndarray:
    """Representation on the curve minus the known trace (the half-trace
    identity stated as a residual: PV value minus u = (LHS - u/2) - u/2)."""
    target = trace.u_lower if side == "lower" else trace.u_upper
    return representation_boundary(trace, domain, side) - target


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def window_mask(rule: QuadratureRule, delta: float) -> np.ndarray:
    return (rule.nodes >= rule.a + delta) & (rule.nodes <= rule.b - delta)


def condition_report(trace: BoundaryTrace, domain: PlaneDomain, condition_id: str,
                     delta: Optional[float] = None) -> ResidualReport:
    """Evaluate one condition at all nodes and take the sup over the
    interior window [a + delta, b - delta] (default delta = 0.1 (b - a))."""
    rule = trace.rule
    if delta is None:
        delta = 0.1 * (rule.b - rule.a)
    if condition_id == "eq8":
        vals = eq8_residuals(trace, domain)
    elif condition_id in ("eq9", "eq10", "eq11", "eq12"):
        vals = nc_residuals(trace, domain, condition_id)
    elif condition_id == "eq7-boundary":
        lo = eq7_boundary_residuals(trace, domain, "lower")
        up = eq7_boundary_residuals(trace, domain, "upper")
        vals = np.where(np.abs(lo) >= np.abs(up), lo, up)
    else:
        raise DataError(f"unknown condition id {condition_id!r}")
    mags = np.abs(vals)
    mask = window_mask(rule, delta)
    sup = float(np.max(mags[mask])) if np.any(mask) else float(np.max(mags))
    return ResidualReport(condition_id, mags, sup, delta)
