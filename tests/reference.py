"""References that only the tests call.

Each is an independent check of what the package computes, or the whole
or pointwise form of something the package builds only in tiles.  No
`cbie` task runs them, so they live beside the tests rather than in the
package.
"""

from typing import Callable, Sequence

import numpy as np

from cbie.conditions import BoundaryTrace, _representation, trace_products
from cbie.errors import ConfigurationError
from cbie.geometry import PlaneDomain
from cbie.kernel import TWO_PI
from cbie.manufactured import SolutionSpec, eval_solution
from cbie.quadrature import QuadratureRule, _diff_rows


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
    """The representation formula on one curve (`conditions._representation`)
    from the trace's own products."""
    return _representation(trace, trace_products(trace, domain), side)
