"""Quadrature rules on [a, b] with Cauchy principal-value and log-kernel support.

Two families:

  gauss-legendre   open Gauss rule; PV by singularity subtraction, log
                   kernels by global product integration against the
                   Legendre basis (exact log moments via Legendre Q
                   functions on the cut)
  midpoint-uniform composite midpoint; PV by the same subtraction with a
                   finite-difference diagonal, log kernels by windowed
                   local product integration; serves as the cross-check
                   oracle for the Gauss paths
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError


@dataclass(frozen=True)
class QuadratureRule:
    family: str
    a: float
    b: float
    size: int
    nodes: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.size

    @property
    def scale(self) -> float:
        return 0.5 * (self.b - self.a)

    @property
    def center(self) -> float:
        return 0.5 * (self.b + self.a)

    def reference_nodes(self) -> np.ndarray:
        return (self.nodes - self.center) / self.scale


def build_rule(family: str, n: int, a: float, b: float) -> QuadratureRule:
    if n < 2:
        raise ConfigurationError(f"rule size must be >= 2, got {n}")
    if not a < b:
        raise ConfigurationError(f"need a < b, got [{a}, {b}]")
    if family == "gauss-legendre":
        t, w = np.polynomial.legendre.leggauss(n)
        s, c = 0.5 * (b - a), 0.5 * (b + a)
        return QuadratureRule(family, a, b, n, c + s * t, s * w)
    if family == "midpoint-uniform":
        h = (b - a) / n
        nodes = a + h * (np.arange(n) + 0.5)
        return QuadratureRule(family, a, b, n, nodes, np.full(n, h))
    raise ConfigurationError(f"unknown quadrature family {family!r}")


def integrate(samples, rule: QuadratureRule) -> complex:
    samples = np.asarray(samples)
    if samples.shape != rule.nodes.shape:
        raise ShapeError(f"{len(samples)} samples for an {rule.n}-node rule")
    return complex(np.sum(rule.weights * samples))


def _fd4(f: Callable, x: float, h: float) -> complex:
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def pv_integrate(f: Callable, xi: float, rule: QuadratureRule,
                 df: Optional[Callable] = None) -> complex:
    """PV int_a^b f(x)/(x - xi) dx by singularity subtraction.

    = int (f(x) - f(xi))/(x - xi) dx  (regular, via the rule)
      + f(xi) log((b - xi)/(xi - a)).

    If a rule node coincides with xi the subtracted integrand needs f'(xi)
    there; it is taken from `df` when supplied, else from a fourth-order
    central difference of `f` itself.
    """
    a, b = rule.a, rule.b
    if not a < xi < b:
        raise DomainError(f"PV point xi={xi} must lie strictly inside ({a}, {b})")
    fxi = f(xi)
    x = rule.nodes
    dx = x - xi
    tol = 1e-12 * (b - a)
    phi = np.empty(rule.n, dtype=complex)
    hit = np.abs(dx) <= tol
    safe = ~hit
    fs = np.asarray([f(v) for v in x[safe]], dtype=complex)
    phi[safe] = (fs - fxi) / dx[safe]
    if np.any(hit):
        slope = df(xi) if df is not None else _fd4(f, xi, 1e-4 * (b - a))
        phi[hit] = slope
    return complex(np.sum(rule.weights * phi)) + fxi * np.log((b - xi) / (xi - a))


def pv_integrate_excluded_node(f: Callable, xi: float, rule: QuadratureRule) -> complex:
    """Cross-check oracle: midpoint rule with the singular node's cell dropped.

    Converges (slowly) to the PV because the excluded cell is symmetric
    about the rule's own node; only sensible for the midpoint family with
    xi equal to one of the nodes.
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
    """Differentiation matrix on the rule's nodes.

    Gauss: barycentric spectral differentiation (weights (-1)^j sqrt((1-t^2) w)).
    Midpoint: second-order finite differences (uniform grid).
    """
    n = rule.n
    if rule.family == "gauss-legendre":
        t = rule.reference_nodes()
        beta = barycentric_weights(rule)
        dt = t[:, None] - t[None, :]
        np.fill_diagonal(dt, 1.0)
        d = (beta[None, :] / beta[:, None]) / dt
        np.fill_diagonal(d, 0.0)
        np.fill_diagonal(d, -np.sum(d, axis=1))
        return d / rule.scale
    h = rule.weights[0]
    d = (np.eye(n, k=1) - np.eye(n, k=-1)) * (0.5 / h)
    d[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    d[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return d


def pv_weight_matrix(rule: QuadratureRule) -> np.ndarray:
    """Discrete PV operator on node samples: row i approximates
    PV int_a^b g(x)/(x - x_i) dx from the samples g(x_j).

    Columnwise subtraction (w_j/(x_j - x_i) off the diagonal, the
    compensating sum and endpoint log on the diagonal) plus the w_i g'(x_i)
    term of the subtracted integrand, realized through the differentiation
    matrix.
    """
    x, w = rule.nodes, rule.weights
    a, b = rule.a, rule.b
    dx = x[None, :] - x[:, None]
    np.fill_diagonal(dx, 1.0)
    p = w[None, :] / dx
    np.fill_diagonal(p, 0.0)
    diag = np.log((b - x) / (x - a)) - np.sum(p, axis=1)
    p[np.arange(rule.n), np.arange(rule.n)] += diag
    return p + w[:, None] * diff_matrix(rule)


def _legendre_q_on_cut(tau: np.ndarray, kmax: int) -> np.ndarray:
    """Q_k(tau) for tau in (-1,1), k = 0..kmax, forward recurrence (stable
    on the cut where both Legendre solutions oscillate)."""
    tau = np.asarray(tau, dtype=float)
    q = np.empty((kmax + 1,) + tau.shape)
    q[0] = np.arctanh(tau)
    if kmax >= 1:
        q[1] = tau * q[0] - 1.0
    for k in range(1, kmax):
        q[k + 1] = ((2 * k + 1) * tau * q[k] - k * q[k - 1]) / (k + 1)
    return q


def _log_weight_matrix_gauss(rule: QuadratureRule) -> np.ndarray:
    """Global product integration of f(x) log|x - x_i| on Gauss nodes.

    Expands the sampled f in Legendre polynomials (the transform is exact
    for degree < n) and integrates each mode against the log kernel with
    the closed-form moments

        int_-1^1 P_k(t) log|t - tau| dt = 2 (Q_{k+1} - Q_{k-1}) / (2k + 1)

    and the k = 0 moment (1-tau)log(1-tau) + (1+tau)log(1+tau) - 2.
    """
    n = rule.n
    t = rule.reference_nodes()
    qk = _legendre_q_on_cut(t, n)  # (n+1, n): qk[k, i] = Q_k(t_i); moments need Q up to n

    moments = np.empty((n, n))  # moments[k, i] = int P_k log|t - t_i| dt
    moments[0] = (1 - t) * np.log1p(-t) + (1 + t) * np.log1p(t) - 2.0
    for k in range(1, n):
        moments[k] = 2.0 * (qk[k + 1] - qk[k - 1]) / (2 * k + 1)

    wref_log = moments.T @ _legendre_transform_matrix(rule)  # (i, j)
    s = rule.scale
    return s * wref_log + np.log(s) * rule.weights[None, :]


def _log_monomial_moments(lo: float, hi: float, kmax: int) -> np.ndarray:
    """m_k = int_lo^hi u^k log|u| du (lo <= 0 <= hi allowed); closed form."""

    def anti(u, k):
        if u == 0.0:
            return 0.0
        return u ** (k + 1) / (k + 1) * (np.log(abs(u)) - 1.0 / (k + 1))

    return np.array([anti(hi, k) - anti(lo, k) for k in range(kmax + 1)])


def _log_weight_matrix_midpoint(rule: QuadratureRule, window_cells: int = 3) -> np.ndarray:
    """Windowed product integration of f(x) log|x - x_i| on the midpoint grid.

    Cells within `window_cells` of the singular node are integrated with
    local polynomial product weights (exact log moments); the remaining
    cells keep their plain midpoint weights.
    """
    x, w = rule.nodes, rule.weights
    n = rule.n
    h = w[0]
    out = np.zeros((n, n))
    for i in range(n):
        jlo = max(0, i - window_cells)
        jhi = min(n - 1, i + window_cells)
        idx = np.arange(jlo, jhi + 1)
        lo = x[jlo] - 0.5 * h - x[i]
        hi = x[jhi] + 0.5 * h - x[i]
        scale = max(abs(lo), abs(hi))
        mu = _log_monomial_moments(lo, hi, len(idx) - 1)
        mu /= scale ** np.arange(len(idx))
        v = ((x[idx] - x[i]) / scale)[None, :] ** np.arange(len(idx))[:, None]
        omega = np.linalg.solve(v, mu)
        row = out[i]
        outside = np.ones(n, dtype=bool)
        outside[idx] = False
        with np.errstate(divide="ignore"):
            row[outside] = w[outside] * np.log(np.abs(x[outside] - x[i]))
        row[idx] = omega
    return out


def log_weight_matrix(rule: QuadratureRule) -> np.ndarray:
    """Row i gives sample weights approximating int_a^b f(x) log|x - x_i| dx."""
    if rule.family == "gauss-legendre":
        return _log_weight_matrix_gauss(rule)
    return _log_weight_matrix_midpoint(rule)


def _legendre_transform_matrix(rule: QuadratureRule) -> np.ndarray:
    """Map node samples to Legendre coefficients (exact for degree < n):
    c_k = (2k+1)/2 sum_j w_j P_k(t_j) f_j."""
    n = rule.n
    t = rule.reference_nodes()
    wref = rule.weights / rule.scale
    pk = np.polynomial.legendre.legvander(t, n - 1).T  # (k, j)
    return ((2 * np.arange(n) + 1) / 2.0)[:, None] * pk * wref[None, :]


def _legendre_integration_coeffs(n: int) -> np.ndarray:
    """Map Legendre coefficients of f to those of its antiderivative:
    int P_0 = P_1, int P_k = (P_{k+1} - P_{k-1})/(2k+1)."""
    lint = np.zeros((n + 1, n))
    lint[1, 0] = 1.0
    for k in range(1, n):
        lint[k + 1, k] = 1.0 / (2 * k + 1)
        lint[k - 1, k] -= 1.0 / (2 * k + 1)
    return lint


def partial_integral_matrix(rule: QuadratureRule) -> np.ndarray:
    """Row i approximates int_a^{x_i} f dx from the samples f(x_j).

    Gauss: integrate the Legendre expansion (exact for degree < n).
    Midpoint: cumulative cell sums with a half-cell at the target.
    """
    n = rule.n
    if rule.family == "gauss-legendre":
        t = rule.reference_nodes()
        trans = _legendre_transform_matrix(rule)
        lint = _legendre_integration_coeffs(n)
        ev = np.polynomial.legendre.legvander(t, n)
        ev0 = np.polynomial.legendre.legvander([-1.0], n)
        return rule.scale * ((ev - ev0) @ lint @ trans)
    m = np.tril(np.tile(rule.weights, (n, 1)), -1)
    m[np.arange(n), np.arange(n)] = 0.5 * rule.weights
    return m


def partial_integral_functional(rule: QuadratureRule, samples) -> Callable:
    """Return F with F(x) ~ int_a^x f dx, built from the node samples."""
    samples = np.asarray(samples, dtype=complex)
    if rule.family == "gauss-legendre":
        trans = _legendre_transform_matrix(rule)
        lint = _legendre_integration_coeffs(rule.n)
        coeffs = lint @ (trans @ samples)
        s, c = rule.scale, rule.center
        base = np.polynomial.legendre.legval(-1.0, coeffs)

        def F(x):
            t = (np.asarray(x, dtype=float) - c) / s
            return s * (np.polynomial.legendre.legval(t, coeffs) - base)

        return F
    csum = np.concatenate([[0.0], np.cumsum(rule.weights * samples)])
    edges = np.concatenate([[rule.a], rule.nodes + 0.5 * rule.weights])

    def F(x):
        k = np.searchsorted(edges, x) - 1
        k = np.clip(k, 0, rule.n - 1)
        return csum[k] + (np.asarray(x) - edges[k]) * samples[k]

    return F


def barycentric_weights(rule: QuadratureRule) -> np.ndarray:
    """Deterministic barycentric weights for the rule's nodes.

    Gauss-Legendre nodes have the stable closed form (-1)^j sqrt((1-t^2) w);
    other node sets use the log-scaled product formula (any common scaling
    of the weights cancels in the barycentric ratio).
    """
    t = rule.reference_nodes()
    n = rule.n
    if rule.family == "gauss-legendre":
        wref = rule.weights / rule.scale
        return (-1.0) ** np.arange(n) * np.sqrt((1.0 - t * t) * wref)
    dt = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(dt, 1.0)
    logs = np.sum(np.log(dt), axis=1)
    return (-1.0) ** np.arange(n) * np.exp(-(logs - np.mean(logs)))


def sample_interpolator(rule: QuadratureRule, values) -> Callable:
    """Polynomial interpolant through node samples (barycentric, second
    form; stable on Gauss nodes).  Used to evaluate solved traces between
    nodes."""
    values = np.asarray(values, dtype=complex)
    beta = barycentric_weights(rule)
    t_nodes = rule.reference_nodes()
    s, c = rule.scale, rule.center

    def f(x):
        t = (np.asarray(x, dtype=float) - c) / s
        diff = np.atleast_1d(t)[:, None] - t_nodes[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = beta / diff
            out = np.sum(q * values, axis=1) / np.sum(q, axis=1)
        rows, cols = np.nonzero(np.abs(diff) < 1e-15)  # x on a node: its sample
        out[rows] = values[cols]
        return complex(out[0]) if t.ndim == 0 else out

    return f
