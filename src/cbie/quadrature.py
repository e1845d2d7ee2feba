"""Quadrature rules on [a, b] with Cauchy principal-value and log-kernel support.

Two families:

  gauss-legendre   open Gauss rule; PV by singularity subtraction, log
                   kernels by global product integration against the
                   Legendre basis (exact log moments via Legendre Q
                   functions on the cut); one three-term recurrence,
                   written in place row by row, streams its rows in
                   k-blocks through a fixed window (`_recurrence_windows`)
                   and gives the nodes (Newton reads the last two rows),
                   the Legendre transform (`_transform`, formed from the
                   P rows at the nodes wherever it is used and kept by no
                   one) and the Q moments.  The dense weight matrices are
                   its one-block call over the nodes, and the residual path
                   applies the log and running-integral weights to a few
                   sample columns block by block through their Legendre
                   coefficients (`node_weight_products`), O(n^2) time in
                   O(n) memory, with no weight matrix
  midpoint-uniform composite midpoint; PV by the same subtraction with a
                   finite-difference diagonal, log kernels by product
                   integration of the cell-wise constant samples (exact
                   cell log moments); serves as the cross-check oracle
                   for the Gauss paths

On both families each row of the PV matrix depends on that row alone: the
matrix is the all-rows call of `_pv_rows`, and the residual path applies it
one row tile at a time, with the matrix's bits and no n x n array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DomainError

FAMILIES = ("gauss-legendre", "midpoint-uniform")
# Smallest rule on which `diff_matrix` and the PV rows are defined: the
# midpoint family's one-sided end stencils read three nodes.
DIFF_MIN_NODES = {"gauss-legendre": 2, "midpoint-uniform": 3}

@dataclass(frozen=True)
class QuadratureRule:
    family: str
    a: float
    b: float
    n: int
    nodes: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)

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
        t, w = _gauss_legendre(n)
        s, c = 0.5 * (b - a), 0.5 * (b + a)
        return QuadratureRule(family, a, b, n, c + s * t, s * w)
    if family == "midpoint-uniform":
        h = (b - a) / n
        nodes = a + h * (np.arange(n) + 0.5)
        return QuadratureRule(family, a, b, n, nodes, np.full(n, h))
    raise ConfigurationError(f"unknown quadrature family {family!r}")


# Rows per k-block of the node recurrence's stream on the residual path
# (`node_weight_products`): a (130, 2, n) window of P and Q rows, 1 MB at
# n = 512.  Set by measurement under glibc's malloc: per warm verify ladder
# up to N = 512, 64 rows take about 3,200 minor page faults and run slower,
# 128 rows about 550 at no measurable cost, 256 rows none but raise the peak.
_STREAM_ROWS = 128


def _recurrence_windows(t, y0, y1, kmax: int, block: int):
    """The rows y_0..y_kmax (kmax >= 1) of (k+1) y_{k+1} = (2k+1) t y_k -
    k y_{k-1}, started from y0 and y1, streamed in k-blocks: yields
    (lo, win) for lo = 0, block, 2 block, ... < kmax, win[j] = y_{lo-1+j}
    the rows lo - 1..hi, hi = min(lo + block, kmax), with y_{-1} = 0.  The
    Legendre P_k start from 1 and t, the Legendre Q_k on the cut |t| < 1
    from arctanh t and t arctanh t - 1 (forward recurrence is stable there,
    where both solutions oscillate).  Starts stacked over a leading axis run
    side by side, each with the arithmetic of its own run.

    Each step is ty + (k/(k+1))(ty - y_{k-1}), ty = t y_k, written with out=
    ufuncs into the row it fills and one scratch row.  One (block + 2)-row
    window serves every block: each block resumes from the last two rows of
    the one before, and the next block overwrites it, so a reader that keeps
    rows copies them.  Every row has the bits of the all-rows call (block >=
    kmax), whatever the block size."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(y0), np.shape(y1))
    win = np.empty((min(block, kmax) + 2,) + shape)
    win[0], win[1], win[2] = 0.0, y0, y1
    rows = list(win)  # y_k in rows[k - lo + 1]
    ty = np.empty(shape)
    for lo in range(0, kmax, block):
        hi = min(lo + block, kmax)
        if lo:
            win[:2] = win[-2:]  # y_{lo-1} and y_lo, from the block before
        for k in range(max(lo, 1), hi):
            j = k - lo + 1
            nxt = rows[j + 1]
            np.multiply(t, rows[j], out=ty)
            np.subtract(ty, rows[j - 1], out=nxt)
            nxt *= k / (k + 1)
            nxt += ty
        yield lo, win[:hi - lo + 2]


def _gauss_legendre(n: int) -> tuple:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1] in O(n^2): Newton on P_n over the non-negative half of the
    rule, started from Tricomi's asymptotic nodes, then
    w = 2 / ((1 - t^2) P_n'(t)^2); the other half mirrors it."""
    def pn(t):  # (P_n(t), P_n'(t)) for |t| < 1, from the stream's last two rows
        for _, win in _recurrence_windows(t, 1.0, t, n, _STREAM_ROWS):
            pass
        p0, p1 = win[-2], win[-1]
        return p1, n * (t * p1 - p0) / (t * t - 1.0)

    k = np.arange(1, (n + 1) // 2 + 1)
    t = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(3):  # quadratic convergence: three steps reach round-off
        p, dp = pn(t)
        t = t - p / dp
    if n % 2:
        t[-1] = 0.0  # the middle node of an odd rule
    dp = pn(t)[1]
    w = 2.0 / ((1.0 - t * t) * dp * dp)
    m = len(t) - n % 2  # mirrored: all but an odd rule's middle node
    return np.concatenate([-t[:m], t[::-1]]), np.concatenate([w[:m], w[::-1]])


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
    xi equal to one of the nodes.  No solver path calls it: the test suite
    uses it as an independent reference for `pv_integrate`.
    """
    if rule.family != "midpoint-uniform":
        raise ConfigurationError("node-excluded PV oracle needs the midpoint family")
    x = rule.nodes
    k = int(np.argmin(np.abs(x - xi)))
    keep = np.ones(rule.n, dtype=bool)
    keep[k] = False
    vals = np.asarray([f(v) for v in x[keep]], dtype=complex)
    return complex(np.sum(rule.weights[keep] * vals / (x[keep] - xi)))


def _diagonal(lo: int, hi: int) -> tuple:
    """Index of the diagonal entries (k, lo + k) of the rows lo:hi of a
    square matrix, held as a (hi - lo) x n tile."""
    k = np.arange(hi - lo)
    return k, lo + k


def diff_matrix(rule: QuadratureRule) -> np.ndarray:
    """Differentiation matrix on the rule's nodes.

    Gauss: barycentric spectral differentiation (weights (-1)^j sqrt((1-t^2) w)).
    Midpoint: second-order finite differences (uniform grid).
    """
    return _diff_rows(rule, 0, rule.n)


def _diff_rows(rule: QuadratureRule, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of `diff_matrix`, each with the arithmetic of the whole
    matrix's row."""
    n, diag = rule.n, _diagonal(lo, hi)
    if rule.family == "gauss-legendre":
        t = rule.reference_nodes()
        beta = barycentric_weights(rule)
        dt = t[lo:hi, None] - t[None, :]
        dt[diag] = 1.0
        d = (beta[None, :] / beta[lo:hi, None]) / dt
        d[diag] = 0.0
        d[diag] = -np.sum(d, axis=1)
        return d / rule.scale
    h = rule.weights[0]
    d = (np.eye(hi - lo, n, lo + 1) - np.eye(hi - lo, n, lo - 1)) * (0.5 / h)
    if lo == 0:
        d[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    if hi == n:
        d[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return d


def pv_weight_matrix(rule: QuadratureRule) -> np.ndarray:
    """Discrete PV operator on node samples: row i approximates
    PV int_a^b g(x)/(x - x_i) dx from the samples g(x_j).

    Columnwise subtraction (w_j/(x_j - x_i) off the diagonal, the
    compensating sum and endpoint log on the diagonal) plus the w_i g'(x_i)
    term of the subtracted integrand, realized through the differentiation
    matrix.  The matrix is the all-rows call of `_pv_rows`, which the
    residual path calls one row tile at a time.
    """
    return _pv_rows(rule, 0, rule.n)


def _pv_rows(rule: QuadratureRule, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of `pv_weight_matrix`, bit for bit: every entry, the
    diagonal's row sum included, depends on its own row only."""
    x, w = rule.nodes, rule.weights
    diag = _diagonal(lo, hi)
    dx = x[None, :] - x[lo:hi, None]
    dx[diag] = 1.0
    p = w[None, :] / dx
    p[diag] = 0.0
    p[diag] += np.log((rule.b - x[lo:hi]) / (x[lo:hi] - rule.a)) - np.sum(p, axis=1)
    return p + w[lo:hi, None] * _diff_rows(rule, lo, hi)


def _transform(rule: QuadratureRule, p) -> np.ndarray:
    """The Legendre transform from the rows P_0..P_{n-1} at the nodes: the
    map from node samples to Legendre coefficients (exact for degree < n),
    c_k = (2k+1)/2 sum_j w_j P_k(t_j) f_j."""
    return ((2 * np.arange(rule.n) + 1) / 2.0)[:, None] * p[:rule.n] * (rule.weights / rule.scale)


def _node_windows(rule: QuadratureRule, block: int):
    """The stream of `_recurrence_windows` at a Gauss rule's reference
    nodes, k <= n, in k-blocks of `block` rows: win[j] = (P, Q)_{lo-1+j}."""
    t = rule.reference_nodes()
    q0 = np.arctanh(t)
    return _recurrence_windows(t, np.stack([np.ones_like(t), q0]),
                               np.stack([t, t * q0 - 1.0]), rule.n, block)


def _log_weights_gauss(rule: QuadratureRule, lo: int, q, coeffs, out) -> np.ndarray:
    """The terms k = lo..lo + h - 1 of global product integration of
    f(x) log|x - x_i| on Gauss nodes, on the reference interval: the window
    q = Q_{lo-1}..Q_{lo+h} at the nodes applied to the h rows `coeffs` of
    the samples' Legendre coefficients (`_transform` for the matrix).  The
    block at lo = 0 is written into out (None: a new array), the later ones
    are added to it; `_node_weights` scales the sum to [a, b].

    The Legendre expansion (exact for degree < n) is integrated mode by
    mode against the log kernel with the closed-form moments

        int_-1^1 P_k(t) log|t - tau| dt = 2 (Q_{k+1} - Q_{k-1}) / (2k + 1)

    and the k = 0 moment (1-tau)log(1-tau) + (1+tau)log(1+tau) - 2.
    """
    h = len(coeffs)
    moments = np.empty((h, rule.n))  # moments[k - lo, i] = int P_k log|t - t_i| dt
    np.subtract(q[2:], q[:-2], out=moments)
    moments *= 2.0
    moments /= (2 * np.arange(lo, lo + h) + 1)[:, None]
    if lo == 0:
        t = rule.reference_nodes()
        moments[0] = (1 - t) * np.log1p(-t) + (1 + t) * np.log1p(t) - 2.0
        return np.matmul(moments.T, coeffs, out=out)
    out += moments.T @ coeffs
    return out


def _running_integral_gauss(rule: QuadratureRule, lo: int, p, coeffs, out) -> np.ndarray:
    """The terms k = lo..lo + h - 1 of the running integral from -1 on the
    reference interval, at the points where the window p = P_{lo-1}..P_{lo+h}
    was taken, applied to the h rows `coeffs` of the Legendre coefficients
    (`_transform` for the matrix): the Legendre expansion (exact for degree
    < n) integrated through the antiderivatives int P_0 = P_1 + 1 and
    int P_k = (P_{k+1} - P_{k-1})/(2k+1); the lower limit drops out of the
    latter because P_{k+1}(-1) = P_{k-1}(-1).  The block at lo = 0 is
    written into out (None: a new array), the later ones are added to it;
    the caller scales the sum to [a, b]."""
    h = len(coeffs)
    anti = np.empty((h,) + p.shape[1:])  # anti[k - lo, m] = int_-1^{t_m} P_k
    np.subtract(p[2:], p[:-2], out=anti)
    anti /= (2 * np.arange(lo, lo + h) + 1)[:, None]
    if lo == 0:
        anti[0] = p[2] + 1.0
        return np.matmul(anti.T, coeffs, out=out)
    out += anti.T @ coeffs
    return out


def _node_weights(rule: QuadratureRule, block: int, coeffs, sums, out) -> tuple:
    """(W F, R F), (W, R) = node_weight_matrices(rule), for samples F given
    by their Legendre coefficients and plain rule sums, from one stream of
    the node recurrence in k-blocks of `block` rows: coeffs(lo, p) gives the
    coefficient rows lo..lo + h - 1 from the block's rows p = P_lo..P_{lo+h-1}
    at the nodes, sums is w @ F.  Each block's log moments and
    antiderivatives live while it does; s and log(s) sums are applied once
    at the end.  Written into out = (log, partial) (None: new arrays)."""
    log_f, partial_f = out
    for lo, win in _node_windows(rule, block):
        c = coeffs(lo, win[1:-1, 0])
        log_f = _log_weights_gauss(rule, lo, win[:, 1], c, log_f)
        partial_f = _running_integral_gauss(rule, lo, win[:, 0], c, partial_f)
    s = rule.scale
    log_f *= s
    log_f += np.log(s) * sums
    partial_f *= s
    return log_f, partial_f


def _log_weight_matrix_midpoint(rule: QuadratureRule) -> np.ndarray:
    """Product integration of f(x) log|x - x_i| on the midpoint grid, f taken
    constant on each cell: entry (i, j) is the exact cell moment
    int_cell_j log|x - x_i| dx = [u (log|u| - 1)] between the cell's edges.
    The edges sit at u = h (j - i -+ 1/2), never 0, so the entry depends on
    j - i only: 2n - 1 moments laid out as a Toeplitz matrix."""
    n, h = rule.n, rule.weights[0]
    t = np.arange(1 - n, n + 1) - 0.5  # edge offsets from a node, in cells
    anti = h * t * (np.log(h * np.abs(t)) - 1.0)
    return sliding_window_view(np.diff(anti), n)[::-1].copy()


def log_weight_matrix(rule: QuadratureRule) -> np.ndarray:
    """Row i gives sample weights approximating int_a^b f(x) log|x - x_i| dx."""
    if rule.family == "gauss-legendre":
        return node_weight_matrices(rule)[0]
    return _log_weight_matrix_midpoint(rule)


def partial_integral_matrix(rule: QuadratureRule, x) -> np.ndarray:
    """Row m approximates int_a^{x_m} f dx from the samples f(x_j), for any
    points x in [a, b]; the rows at x = rule.nodes are the running integral
    at the nodes.

    Gauss: integrate the Legendre expansion (`_running_integral_gauss`);
    one recurrence over the stacked points [x; nodes] gives the P rows at x
    for the antiderivatives and the node rows for the transform.
    Midpoint: whole cells left of x_m plus the covered part of its cell.
    """
    n = rule.n
    x = np.asarray(x, dtype=float)
    if rule.family == "gauss-legendre":
        t = np.concatenate([(x - rule.center) / rule.scale, rule.reference_nodes()])
        p = next(_recurrence_windows(t, 1.0, t, n, n))[1]
        m = len(x)
        out = _running_integral_gauss(rule, 0, p[:, :m], _transform(rule, p[1:, m:]), None)
        out *= rule.scale
        return out
    edges = np.concatenate([[rule.a], rule.nodes + 0.5 * rule.weights])
    k = np.clip(np.searchsorted(edges, x) - 1, 0, n - 1)
    m = np.where(np.arange(n)[None, :] < k[:, None], rule.weights[None, :], 0.0)
    m[np.arange(len(x)), k] = x - edges[k]
    return m


def node_weight_matrices(rule: QuadratureRule) -> tuple:
    """(log_weight_matrix(rule), partial_integral_matrix(rule, rule.nodes)),
    the pair the operator build needs.  On Gauss rules it is the one-block
    call of the stream that `node_weight_products` runs in blocks: one
    recurrence over the nodes gives both, with the P_k rows shared by the
    running integral and the rule's Legendre transform and the Q_k rows by
    the log moments.  The pair shares one (2, n, n) allocation, so that the
    allocator can hand it back whole once the build drops both: two n x n
    arrays can stay behind as heap holes (16 MB of a cold N = 1024 solve's
    peak)."""
    if rule.family == "gauss-legendre":
        pair = np.empty((2, rule.n, rule.n))
        _node_weights(rule, rule.n, lambda lo, p: _transform(rule, p),
                      rule.weights[None, :], pair)
        return pair[0], pair[1]
    return log_weight_matrix(rule), partial_integral_matrix(rule, rule.nodes)


def node_weight_products(rule: QuadratureRule, f) -> tuple:
    """(W f, R f) for the complex node samples f (n x m) with
    (W, R) = node_weight_matrices(rule), in real arithmetic on the (re, im)
    columns.  Gauss rules form neither matrix nor the transform L: one
    recurrence over the nodes streams its rows in k-blocks of _STREAM_ROWS,
    and each block's coefficient rows ((2k+1)/2) P_k (w/s f) go through its
    log moments and antiderivatives, O(n^2 m) time in O(n (_STREAM_ROWS +
    m)) memory.  Midpoint rules apply their matrices."""
    f = np.ascontiguousarray(f, dtype=complex)
    fr = f.view(float)
    if rule.family == "gauss-legendre":
        wf = (rule.weights / rule.scale)[:, None] * fr

        def coeffs(lo, p):
            c = p @ wf
            c *= ((2 * np.arange(lo, lo + len(p)) + 1) / 2.0)[:, None]
            return c

        log_f, partial_f = _node_weights(rule, _STREAM_ROWS, coeffs, rule.weights @ fr,
                                         (None, None))
    else:
        log_f, partial_f = (a @ fr for a in node_weight_matrices(rule))
    return log_f.view(complex), partial_f.view(complex)


def barycentric_weights(rule: QuadratureRule) -> np.ndarray:
    """Barycentric weights of Gauss-Legendre nodes, in the stable closed
    form (-1)^j sqrt((1-t^2) w)."""
    t = rule.reference_nodes()
    wref = rule.weights / rule.scale
    return (-1.0) ** np.arange(rule.n) * np.sqrt((1.0 - t * t) * wref)


def sample_interpolator(rule: QuadratureRule, values) -> Callable:
    """Interpolant through node samples, used to evaluate solved traces
    between nodes.  Gauss: the polynomial through all nodes (barycentric,
    second form).  Midpoint: piecewise linear, the family's second order
    (a global polynomial through equispaced nodes is ill-conditioned),
    constant between an end node and its interval end."""
    values = np.asarray(values, dtype=complex)
    if rule.family == "midpoint-uniform":
        def linear(x):
            out = np.interp(x, rule.nodes, values)
            return complex(out) if np.ndim(x) == 0 else out

        return linear
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
