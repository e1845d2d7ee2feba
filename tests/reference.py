"""References that only the tests call.

Each is an independent check of what the package computes, or the whole
or pointwise form of something the package builds only in tiles.  No
`cbie` task runs them, so they live beside the tests rather than in the
package.
"""

from typing import Callable, Sequence

import numpy as np

from cbie.conditions import (
    BoundaryTrace,
    _representation_lower,
    _representation_upper,
    trace_products,
)
from cbie.errors import ConfigurationError
from cbie.geometry import PlaneDomain
from cbie.kernel import TWO_PI
from cbie.manufactured import SolutionSpec, eval_solution
from cbie.quadrature import QuadratureRule, _diff_rows, barycentric_weights


def pv_integrate_excluded_node(f: Callable, xi: float, rule: QuadratureRule) -> complex:
    """Cross-check oracle: midpoint rule with the singular node's cell dropped.

    Converges (slowly) to the PV because the excluded cell is symmetric
    about the rule's own node; only sensible for the midpoint family with
    xi equal to one of the nodes.  An independent reference for
    `pv_integrate`.
    """
    if rule.family != "midpoint-uniform":
        raise ConfigurationError("node-excluded PV oracle needs the midpoint family")
    x = rule.nodes
    k = int(np.argmin(np.abs(x - xi)))
    keep = np.ones(rule.n, dtype=bool)
    keep[k] = False
    vals = np.asarray([f(v) for v in x[keep]], dtype=complex)
    return complex(np.sum(rule.weights[keep] * vals / (x[keep] - xi)))


def diff_matrix(rule: QuadratureRule) -> np.ndarray:
    """The whole differentiation matrix on the rule's nodes: all rows of
    `_diff_rows`, which the PV rows read."""
    return _diff_rows(rule, 0, rule.n)


def pv_weight_matrix(rule: QuadratureRule) -> np.ndarray:
    """The discrete PV operator on node samples as one n x n matrix, built
    with whole-matrix arithmetic: row i approximates
    PV int_a^b g(x)/(x - x_i) dx from the samples g(x_j).  The reference
    for the row tiles of `quadrature._pv_rows`, which the package applies
    one tile at a time and never gathers."""
    x, w, n = rule.nodes, rule.weights, rule.n
    if rule.family == "gauss-legendre":
        t, beta = rule.reference_nodes(), barycentric_weights(rule)
        dt = t[:, None] - t[None, :]
        np.fill_diagonal(dt, 1.0)
        dmat = (beta[None, :] / beta[:, None]) / dt
        np.fill_diagonal(dmat, 0.0)
        np.fill_diagonal(dmat, -np.sum(dmat, axis=1))
        dmat = dmat / rule.scale
    else:
        h = w[0]
        dmat = (np.eye(n, k=1) - np.eye(n, k=-1)) * (0.5 / h)
        dmat[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
        dmat[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    dx = x[None, :] - x[:, None]
    np.fill_diagonal(dx, 1.0)
    p = w[None, :] / dx
    np.fill_diagonal(p, 0.0)
    diag = np.log((rule.b - x) / (x - rule.a)) - np.sum(p, axis=1)
    p[np.arange(n), np.arange(n)] += diag
    return p + w[:, None] * dmat


def pde_residual_check(spec: SolutionSpec, points: Sequence, h: float) -> float:
    """Max |second-order central-difference approximation of the operator|
    over the points; vanishes to O(h^2) for genuine solutions.  An
    independent check that the manufactured family solves the equation."""
    if h <= 0:
        raise ConfigurationError("step h must be positive")
    worst = 0.0
    for (x1, x2) in points:
        u = lambda a, b: eval_solution(spec, a, b)[0]
        d22 = (u(x1, x2 + h) - 2.0 * u(x1, x2) + u(x1, x2 - h)) / h**2
        d12 = (u(x1 + h, x2 + h) - u(x1 + h, x2 - h)
               - u(x1 - h, x2 + h) + u(x1 - h, x2 - h)) / (4.0 * h**2)
        worst = max(worst, abs(d22 + 1j * d12))
    return worst


def boundary_log_kernel(d1, d2):
    """Symmetric-angle log kernel used on boundary-trace pairs, pointwise;
    the kernel tiles of `conditions._kernel_blocks` implement it.

    value = (1/2pi) [ log|d2 + i d1| + i (Arg(d2 + i d1) - (pi/2) sign d1) ]

    Continuous in (d1, d2) away from the origin (the angle part cancels the
    principal-branch jump at d1 = 0), real-log singular at the origin.
    Broadcasts over arrays; entries with d1 = d2 = 0 yield -inf real part,
    callers handle the diagonal explicitly.
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    w = d2 + 1j * d1
    with np.errstate(divide="ignore", invalid="ignore"):
        ang = np.where(d1 == 0.0, 0.0, np.angle(w) - (np.pi / 2.0) * np.sign(d1))
        out = (np.log(np.abs(w)) + 1j * ang) / TWO_PI
    return complex(out) if out.ndim == 0 else out


def representation_boundary(trace: BoundaryTrace, domain: PlaneDomain,
                            side: str) -> np.ndarray:
    """The representation formula on the "lower" or "upper" curve
    (`conditions._representation_lower` or `_representation_upper`) from the
    trace's own products."""
    form = {"lower": _representation_lower, "upper": _representation_upper}[side]
    return form(trace, trace_products(trace, domain))


def ritz_augmented_eigh(b: np.ndarray, beta: float, k: int) -> tuple:
    """The k largest singular values of b (zeros past its rows) and their
    bounds min(r, r^2 / gap), from eigh of the symmetric [[0, b], [b^T, 0]],
    whose eigenvalues are +-sigma (and zeros): unlike eigh of b b^T it does
    not square the spread of the values.  For the eigenvector (x; y) of
    sigma, x / |x| = sqrt(2) x is b's left singular vector, r = beta
    sqrt(2) |x_last| its residual and gap the distance from sigma to the
    nearest other eigenvalue.  The probe's check (`linalg._ritz`) by the
    eigensolver it used before it took the SVD of b."""
    rows, cols = b.shape
    if not rows:  # K = 0
        return np.zeros(k), np.zeros(0)
    aug = np.zeros((rows + cols, rows + cols))
    aug[:rows, rows:] = b
    aug[rows:, :rows] = b.T
    w, z = np.linalg.eigh(aug)
    w, z = w[::-1], z[:, ::-1]
    top = min(k, rows, cols)
    d = w[:-1] - w[1:]
    gap = np.minimum(np.append(np.inf, d), np.append(d, np.inf))[:top]
    r = beta * np.sqrt(2.0) * np.abs(z[rows - 1, :top])
    with np.errstate(divide="ignore", invalid="ignore"):  # gap 0: a repeated value
        bound = np.fmin(r, r * r / gap)
    sv = np.zeros(k)
    sv[:top] = np.maximum(w[:top], 0.0)
    return sv, bound
