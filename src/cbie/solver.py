"""Dense solve, interior reconstruction, and convergence sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import lu_solve

from .assembly import BCSpec, FredholmSystem, assemble, du_from_bc, lu_condition
from .conditions import BoundaryTrace, build_operators, log_lifted, window_mask
from .errors import DomainError, NumericError, SolverError
from .geometry import PlaneDomain
from .kernel import TWO_PI
from .manufactured import SolutionSpec, eval_solution, make_trace
from .quadrature import (
    QuadratureRule,
    build_rule,
    partial_integral_functional,
    sample_interpolator,
)


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


def solve_system(system: FredholmSystem, cond_threshold: float = 1e8) -> SolveReport:
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
        sol, method = lu_solve(factors, b, check_finite=False), "direct"
    else:
        del factors  # free the LU before lstsq copies the matrix
        try:
            sol, method = np.linalg.lstsq(m, b, rcond=None)[0], "least-squares-fallback"
        except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
            raise SolverError(f"both solve strategies failed: {exc}") from exc
    resid = float(np.max(np.abs(m @ sol - b)))
    u1, u2 = system.split(sol)
    return SolveReport(u1, u2, resid, cond, method, [], list(system.warnings), system)


def reconstruct_interior(domain: PlaneDomain, trace: BoundaryTrace, xi):
    """Evaluate the representation formula at interior points.

    u(xi) = u_1(xi1) - int f_2 (1/2pi) Log(g2(x) - xi2 + i(x - xi1)) dx
                     + int f_1 (1/2pi) Log_c(g1(x) - xi2 + i(x - xi1)) dx
                     - i int_a^{xi1} f_1 dx,
    f_k = du_k (1 - i gk'); principal log on the upper curve, the branch
    continuous across the lower curve's cut on the lower one, and the
    running integral carrying the branch correction.  All terms evaluate
    from the trace samples (polynomial interpolation supplies the point
    values between nodes).  xi is one point (x1, x2), which gives a complex,
    or an (m, 2) array of points, which gives m values; the running integral
    and the interpolant are built once for all of them.
    """
    single = np.shape(xi) == (2,)
    pts = np.asarray(xi, dtype=float).reshape(-1, 2)
    for xi1, xi2 in pts:
        if not domain.contains(float(xi1), float(xi2)):
            raise DomainError(f"point ({xi1}, {xi2}) is not strictly inside the domain")
    ops = build_operators(domain, trace.rule)
    x, w = trace.rule.nodes, trace.rule.weights
    f1 = trace.du_lower * (1.0 - 1j * ops.g1p)
    f2 = trace.du_upper * (1.0 - 1j * ops.g2p)
    xi1, xi2 = pts[:, :1], pts[:, 1:]

    w2 = (ops.g2 - xi2) + 1j * (x - xi1)
    i2 = np.sum(w * f2 * np.log(w2), axis=1) / TWO_PI

    w1 = (ops.g1 - xi2) + 1j * (x - xi1)
    i1 = np.sum(w * f1 * log_lifted(w1), axis=1) / TWO_PI

    corr = -1j * partial_integral_functional(trace.rule, f1)(pts[:, 0])
    u1_at = sample_interpolator(trace.rule, trace.u_lower)(pts[:, 0])
    vals = u1_at - i2 + i1 + corr
    return complex(vals[0]) if single else vals


def default_interior_grid(domain: PlaneDomain, nx: int = 5, ny: int = 4,
                          scale: float = 0.6) -> list:
    """Evaluation grid: nx x ny points spanning `scale` of the bounding box,
    filtered to points strictly inside the domain."""
    xs = np.linspace(domain.a1, domain.b1, 256)
    lo = float(np.min(domain.lower.value(xs)))
    hi = float(np.max(domain.upper.value(xs)))
    cx = 0.5 * (domain.a1 + domain.b1)
    cy = 0.5 * (lo + hi)
    half_x = 0.5 * scale * (domain.b1 - domain.a1)
    half_y = 0.5 * scale * (hi - lo)
    pts = []
    for x1 in np.linspace(cx - half_x, cx + half_x, nx):
        for x2 in np.linspace(cy - half_y, cy + half_y, ny):
            if domain.contains(float(x1), float(x2)):
                pts.append((float(x1), float(x2)))
    return pts


def trace_from_solution(system_rule: QuadratureRule, domain: PlaneDomain,
                        bc: BCSpec, report: SolveReport) -> BoundaryTrace:
    """Boundary trace of a solved system: solved u plus du eliminated
    through the boundary data."""
    phi1, phi2 = bc.sample(system_rule.nodes)
    du1 = du_from_bc(report.u_lower, bc.alpha1, phi1)
    du2 = du_from_bc(report.u_upper, bc.alpha2, phi2)
    return BoundaryTrace(system_rule, report.u_lower, report.u_upper, du1, du2)


def solve_problem(domain: PlaneDomain, bc: BCSpec, rule: QuadratureRule,
                  cond_threshold: float = 1e8,
                  interior_points: Optional[Sequence] = None) -> SolveReport:
    """Assemble, solve, and reconstruct on the interior grid."""
    system = assemble(domain, bc, rule)
    report = solve_system(system, cond_threshold)
    trace = trace_from_solution(rule, domain, bc, report)
    pts = default_interior_grid(domain) if interior_points is None else interior_points
    vals = reconstruct_interior(domain, trace, pts)
    report.interior_samples = [((x1, x2), complex(v)) for (x1, x2), v in zip(pts, vals)]
    return report


@dataclass
class ConvergenceTable:
    levels: list          # per level: dict with n, residual_norm, condition, ...
    ratios: list          # trace-error ratios between consecutive levels


def convergence_sweep(domain: PlaneDomain, bc: BCSpec, levels: Sequence[int],
                      family: str = "gauss-legendre",
                      truth: Optional[SolutionSpec] = None,
                      cond_threshold: float = 1e8,
                      delta: Optional[float] = None) -> ConvergenceTable:
    """Solve at each level; report residual, conditioning, and (when an
    exact solution is supplied) interior-window trace errors with their
    between-level ratios."""
    levels = list(levels)
    if sorted(levels) != levels or len(set(levels)) != len(levels):
        raise SolverError("levels must be strictly increasing")
    if delta is None:
        delta = 0.1 * (domain.b1 - domain.a1)
    rows = []
    for n in levels:
        rule = build_rule(family, n, domain.a1, domain.b1)
        report = solve_problem(domain, bc, rule, cond_threshold)
        row = {
            "n": n,
            "residual_norm": report.residual_norm,
            "condition": report.condition_estimate,
            "method": report.method,
        }
        if truth is not None:
            mask = window_mask(rule, delta)
            exact = make_trace(truth, domain, rule)
            err = max(
                float(np.max(np.abs((report.u_lower - exact.u_lower)[mask]))),
                float(np.max(np.abs((report.u_upper - exact.u_upper)[mask]))),
            )
            row["trace_error"] = err
            ierr = 0.0
            for (pt, val) in report.interior_samples:
                ue = complex(eval_solution(truth, pt[0], pt[1])[0])
                ierr = max(ierr, abs(val - ue))
            row["interior_error"] = ierr
        rows.append(row)
    ratios = []
    if truth is not None:
        for prev, cur in zip(rows, rows[1:]):
            e0, e1 = prev["trace_error"], cur["trace_error"]
            ratios.append(float("inf") if e1 == 0 else e0 / e1)
    return ConvergenceTable(rows, ratios)
