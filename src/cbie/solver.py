"""Dense solve and interior reconstruction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .assembly import BCSpec, FredholmSystem, assemble, du_from_bc, lu_condition
from .conditions import BoundaryTrace, build_operators, log_parts
from .errors import DomainError, NumericError
from .geometry import PlaneDomain
from .kernel import TWO_PI
from .quadrature import QuadratureRule, partial_integral_matrix, sample_interpolator

COND_THRESHOLD = 1e8  # a larger 1-norm condition estimate takes least squares


@dataclass
class SolveReport:
    u_lower: np.ndarray
    u_upper: np.ndarray
    residual_norm: float
    condition_estimate: float
    method: str  # "direct" or "least-squares-fallback"
    interior_samples: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    system: Optional[FredholmSystem] = field(default=None, repr=False)


def solve_system(system: FredholmSystem, cond_threshold: float = COND_THRESHOLD) -> SolveReport:
    """Direct dense solve below the condition threshold, otherwise a
    minimum-norm least-squares fallback (the problem is Fredholm but not
    guaranteed uniquely solvable at every boundary-constant pair).

    One LU factorization gives both the 1-norm condition estimate, recorded
    on the system for the compactness probe, and the direct solution.  An
    exactly singular pivot estimates cond = inf and takes the fallback."""
    m, b = system.matrix, system.rhs
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(b))):
        raise NumericError("system contains non-finite entries")
    factors, cond = lu_condition(m)
    system.condition_estimate = cond
    if np.isfinite(cond) and cond <= cond_threshold:
        from scipy.linalg import lu_solve

        sol, method = lu_solve(factors, b, check_finite=False), "direct"
    else:
        del factors  # free the LU before lstsq copies the matrix
        sol, method = np.linalg.lstsq(m, b, rcond=None)[0], "least-squares-fallback"
    resid = float(np.max(np.abs(m @ sol - b)))
    u1, u2 = system.split(sol)
    warnings = list(system.warnings)
    if method != "direct":
        warnings.append(f"least-squares fallback: condition estimate {cond:.3g} exceeds "
                        f"cond_threshold {cond_threshold:.3g}; the traces may be wrong "
                        "although the residual is small")
    return SolveReport(u1, u2, resid, cond, method, [], warnings, system)


def reconstruct_interior(domain: PlaneDomain, trace: BoundaryTrace, xi):
    """Evaluate the representation formula at interior points.

    u(xi) = u_1(xi1) - int f_2 (1/2pi) Log(g2(x) - xi2 + i(x - xi1)) dx
                     + int f_1 (1/2pi) Log_c(g1(x) - xi2 + i(x - xi1)) dx
                     - i int_a^{xi1} f_1 dx,
    f_k = du_k (1 - i gk'); principal log on the upper curve, the branch
    continuous across the lower curve's cut on the lower one, and the
    running integral carrying the branch correction.  All terms evaluate
    from the trace samples (`sample_interpolator` supplies the point
    values between nodes).  xi is one point (x1, x2), which gives a complex,
    or an (m, 2) array of points, which gives m values; the running integral
    and the interpolant are built once for all of them.  The curve samples
    at the nodes come from `build_operators`, whose cached entry the solve's
    assembly has built.
    """
    single = np.shape(xi) == (2,)
    pts = np.asarray(xi, dtype=float).reshape(-1, 2)
    for xi1, xi2 in pts:
        if not domain.contains(float(xi1), float(xi2)):
            raise DomainError(f"point ({xi1}, {xi2}) is not strictly inside the domain")
    x, w = trace.rule.nodes, trace.rule.weights
    ops = build_operators(domain, trace.rule)
    f1 = trace.du_lower * (1.0 - 1j * ops.g1p)
    f2 = trace.du_upper * (1.0 - 1j * ops.g2p)
    xi1, xi2 = pts[:, :1], pts[:, 1:]

    i2 = np.sum(w * f2 * log_parts(ops.g2 - xi2, x - xi1), axis=1) / TWO_PI
    i1 = np.sum(w * f1 * log_parts(ops.g1 - xi2, x - xi1, lifted=True), axis=1) / TWO_PI

    corr = -1j * (partial_integral_matrix(trace.rule, pts[:, 0]) @ f1)
    u1_at = sample_interpolator(trace.rule, trace.u_lower)(pts[:, 0])
    vals = u1_at - i2 + i1 + corr
    return complex(vals[0]) if single else vals


def default_interior_grid(domain: PlaneDomain) -> list:
    """Evaluation grid: 5 x 4 points spanning 0.6 of the bounding box,
    filtered to points strictly inside the domain."""
    xs = np.linspace(domain.a1, domain.b1, 256)
    lo = float(np.min(domain.lower.value(xs)))
    hi = float(np.max(domain.upper.value(xs)))
    cx = 0.5 * (domain.a1 + domain.b1)
    cy = 0.5 * (lo + hi)
    half_x = 0.5 * 0.6 * (domain.b1 - domain.a1)
    half_y = 0.5 * 0.6 * (hi - lo)
    pts = []
    for x1 in np.linspace(cx - half_x, cx + half_x, 5):
        for x2 in np.linspace(cy - half_y, cy + half_y, 4):
            if domain.contains(float(x1), float(x2)):
                pts.append((float(x1), float(x2)))
    return pts


def trace_from_solution(system_rule: QuadratureRule, bc: BCSpec,
                        report: SolveReport) -> BoundaryTrace:
    """Boundary trace of a solved system: solved u plus du eliminated
    through the boundary data."""
    phi1, phi2 = bc.sample(system_rule.nodes)
    du1 = du_from_bc(report.u_lower, bc.alpha1, phi1)
    du2 = du_from_bc(report.u_upper, bc.alpha2, phi2)
    return BoundaryTrace(system_rule, report.u_lower, report.u_upper, du1, du2)


def solve_problem(domain: PlaneDomain, bc: BCSpec, rule: QuadratureRule,
                  cond_threshold: float = COND_THRESHOLD) -> SolveReport:
    """Assemble, solve, and reconstruct on the interior grid.  Past assembly
    the solve holds the matrix, its LU copy and the O(N) curve samples that
    assembly cached and the reconstruction reads again."""
    system = assemble(domain, bc, rule)
    report = solve_system(system, cond_threshold)
    trace = trace_from_solution(rule, bc, report)
    pts = default_interior_grid(domain)
    vals = reconstruct_interior(domain, trace, pts)
    report.interior_samples = [((x1, x2), complex(v)) for (x1, x2), v in zip(pts, vals)]
    return report

