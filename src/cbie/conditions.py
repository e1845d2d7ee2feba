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

Every N x N kernel block is built in row tiles of at most _TILE_ROWS rows,
each entry with the arithmetic of the whole block, and no reader stores the
blocks as one operator: `assemble` writes each tile into the system matrix
(the Cauchy tiles, scaled, subtracted from its bottom half), and the residual
path (`trace_products`, `condition_residuals`) applies each tile, the PV
rows and the upper representation's diagonal pair to the trace as they are
built.  What the readers share is cached: the curve samples at the nodes
(`build_operators`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import AssemblyError, DataError, NumericError, ShapeError
from .geometry import PlaneDomain
from .kernel import TWO_PI
from .quadrature import (
    _TILE_ROWS,
    QuadratureRule,
    _diagonal,
    _pv_rows,
    _row_tiles,
    node_weight_products,
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


def _diffq(gamma_vals: np.ndarray, slope_vals: np.ndarray, x: np.ndarray,
           lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of m[i, j] = (gamma(x_j) - gamma(x_i)) / (x_j - x_i), the
    slope on the diagonal (k, lo + k)."""
    diag = _diagonal(lo, hi)
    dx = x[None, :] - x[lo:hi, None]
    dg = gamma_vals[None, :] - gamma_vals[lo:hi, None]
    dx[diag] = 1.0
    m = dg / dx
    m[diag] = slope_vals[lo:hi]
    return m


def log_parts(re, im, lifted: bool = False):
    """log(re + i im) from its real and imaginary parts, with no complex
    logarithm: (1/2) log(re^2 + im^2) + i arctan2(im, re), with the
    principal angle or, lifted, the one in [0, 2pi), the branch continuous
    across the negative real axis, for arguments in the left half-plane."""
    ang = np.arctan2(im, re)
    if lifted:
        ang = np.where(ang < 0, ang + 2 * np.pi, ang)
    return 0.5 * np.log(re * re + im * im) + 1j * ang


def _real_matvec(a, v):
    """a @ v for a real matrix and a complex vector or matrix, as one real
    product on the (re, im) columns of v."""
    v = np.ascontiguousarray(v, dtype=complex)
    p = a @ v.reshape(len(v), -1).view(float)
    return p.view(complex).reshape(p.shape[:1] + v.shape[1:])


def _pv_matvec(rule: QuadratureRule, v):
    """The PV weight matrix of rule times a complex vector or matrix v,
    applied one row tile at a time: no N x N array is formed."""
    out = np.empty_like(v)
    for lo, hi in _row_tiles(rule.n):
        out[lo:hi] = _real_matvec(_pv_rows(rule, lo, hi), v)
    return out


@dataclass(frozen=True)
class Operators:
    """The node samples of one (domain, rule) pair that every kernel tile
    reads, gamma_k, gamma_k' and gamma_k'' at the rule nodes: O(N) each."""

    rule: QuadratureRule
    g1: np.ndarray = field(repr=False)
    g2: np.ndarray = field(repr=False)
    g1p: np.ndarray = field(repr=False)
    g2p: np.ndarray = field(repr=False)
    g1pp: np.ndarray = field(repr=False)
    g2pp: np.ndarray = field(repr=False)


def _fill(out, re, im, gp):
    """out = (re + i im)(1 - i gp), gp the slope at each column: the column
    factor [1 - i g'] applied in real arithmetic, (re + gp im) + i (im - gp re).
    Each part of out is written once, from a contiguous real temporary.  With
    gp None the block already carries its factor: out = re + i im."""
    if gp is None:
        out.real, out.imag = re, im
        return
    t = np.multiply(im, gp)
    np.add(re, t, out=out.real)
    np.multiply(re, gp, out=t)
    np.subtract(im, t, out=out.imag)


def _bounded_remainder(parts, x, gv, gp, gpp, w, lo):
    """parts = (re, im) of w_j [ (1 - i g'(x_j)) dU/dx2(x_j - x_i, g(x_j) - g(x_i))
    + (i/2pi)/(x_j - x_i) ], with the continuous diagonal limit
    -(i/4pi) g''(x_i)/(g'(x_i) + i).

    The algebraic form (i/2pi)(dg - g'(x_j) dx) / (dx (dg + i dx)) already
    carries the (1 - i g') column factor; with 1/(dg + i dx) =
    (dg - i dx)/(dg^2 + dx^2) it is q (dx + i dg), q real.  dx and dg are
    built in parts itself, the rows lo:lo + h of the block for parts of
    shape (2, h, n), with the diagonal at (k, lo + k).  Signed weights w
    scale the block."""
    dx, dg = parts
    hi = lo + dx.shape[0]
    diag = _diagonal(lo, hi)
    np.subtract(x[None, :], x[lo:hi, None], out=dx)
    np.subtract(gv[None, :], gv[lo:hi, None], out=dg)
    dx[diag] = 1.0
    den = dg * dg
    q = np.multiply(dx, dx)
    den += q
    den *= dx
    den *= TWO_PI
    np.multiply(dx, gp, out=q)
    np.subtract(dg, q, out=q)
    q /= den
    q *= w
    dx *= q
    dg *= q
    limit = w[lo:hi] * (-(1j / (2 * TWO_PI)) * gpp[lo:hi] / (gp[lo:hi] + 1j))
    dx[diag] = limit.real
    dg[diag] = limit.imag


# The kernel blocks of the stacked condition operator [eq8; cauchy], 3N x 2N:
# row block 0 is eq8 (targets on curve 1), 1 and 2 the eq10 and eq12 rows;
# column block c acts on du of curve c + 1.  The corner correction on the
# diagonal of each key block is its moment (`_corner_moments`) minus the row
# sums of the value, a cross block; `assemble` and `trace_products` both
# record those row sums as they meet the cross block.
_CORNERS = {(0, 0): (0, 1), (1, 0): (1, 1), (2, 1): (2, 0)}


def _kernel_blocks(ops: Operators, wlog, partial):
    """Yield (r, c, lo, parts, gp) for each row tile of each N x N kernel
    block of [eq8; cauchy]: rows lo:lo + h of the block are
    (parts[0] + i parts[1])(1 - i gp) with gp the slope at each column, or
    parts[0] + i parts[1] when gp is None (the bounded remainders carry
    their factor).  parts is one contiguous (2, h, N) real array of at most
    _TILE_ROWS rows, overwritten by the next tile: a reader that keeps a
    tile copies it.  Every entry has the arithmetic of the untiled block.
    The blocks come whole, in the order (0, 0), (0, 1), (1, 1), (1, 0),
    (2, 0), (2, 1): eq8 is complete before the first cauchy tile, each row
    block meets its column blocks in one order, whatever the tile height,
    each column block meets the eq10 rows before the eq12 rows, the order
    in which `assemble` subtracts them, and each cross block whose row sums
    a corner correction reads (`_CORNERS`) precedes that correction's
    block.

    The weight matrices wlog and partial (`node_weight_matrices`) enter
    blocks (0, 0) and (0, 1) only, and are dropped before the first cauchy
    tile is built.  With both None those blocks leave out the (-2/2pi) wlog
    and i partial terms, which a reader then applies itself
    (`trace_products`)."""
    rule = ops.rule
    x, w, n = rule.nodes, rule.weights, rule.n
    g1, g2, g1p, g2p = ops.g1, ops.g2, ops.g1p, ops.g2p
    tiles = _row_tiles(n)
    buf = np.empty(2 * min(n, _TILE_ROWS) * n)

    def tile(lo, hi):
        return buf[:2 * (hi - lo) * n].reshape(2, hi - lo, n)

    def cross(gap, dx, scratch):  # (gap, dx, rho = gap^2 + dx^2) of a cross block
        rho = np.multiply(gap, gap)
        np.multiply(dx, dx, out=scratch)
        rho += scratch
        return gap, dx, rho

    # eq8 (targets on the lower curve) carries -2 x the diagonal-pair kernel
    # and 2 x the cross kernel.  Diagonal pair: symmetric-angle kernel splits
    # into (1/2pi) log|x - xi| plus the smooth part
    # (1/2pi)[log|m| + i(Arg m - pi/2)], m = d + i with d = diffq real, that
    # is (1/2pi)[(1/2) log1p(d^2) - i arctan d].
    for lo, hi in tiles:
        parts = tile(lo, hi)
        re, im = parts
        d = _diffq(g1, g1p, x, lo, hi)
        np.multiply(d, d, out=re)
        np.log1p(re, out=re)
        re *= 0.5 * w
        if wlog is not None:
            re += wlog[lo:hi]
        re *= -2.0 / TWO_PI
        np.arctan(d, out=im)
        im *= (2.0 / TWO_PI) * w
        yield 0, 0, lo, parts, g1p

    # Cross pair gamma_2(x_j) - gamma_1(x_i) > 0: continuous principal-log
    # part with plain weights; the -(i/4) sign(x_j - x_i) part integrated
    # exactly through the running-integral weights,
    # -(i/4)(w_j - 2 int_a^{x_i}).  [eq10; eq12] carries -+2 x the dU/dx2
    # cross kernels (smooth: the vertical gap never closes at nodes),
    # 1/(gap + i dx) = (gap - i dx)/(gap^2 + dx^2); the eq10 one reads the
    # same gap, dx and rho as the eq8 one, built again for its own tiles.
    def cross21(lo, hi, scratch):
        return cross(g2[None, :] - g1[lo:hi, None], x[None, :] - x[lo:hi, None], scratch)

    for lo, hi in tiles:
        parts = tile(lo, hi)
        _log_cross(parts, *cross21(lo, hi, parts[0]), w)
        if partial is not None:
            parts[1] += partial[lo:hi]
        parts[1] -= 0.5 * w
        yield 0, 1, lo, parts, g2p
    del wlog, partial

    for lo, hi in tiles:
        parts = tile(lo, hi)
        _cauchy_cross(parts, *cross21(lo, hi, parts[0]), w)
        yield 1, 1, lo, parts, g2p

    def remainder(r, c, g, gp, gpp, ws):  # a diagonal pair's bounded remainder, +-2 x
        for lo, hi in tiles:
            parts = tile(lo, hi)
            _bounded_remainder(parts, x, g, gp, gpp, ws, lo)
            yield r, c, lo, parts, None

    yield from remainder(1, 0, g1, g1p, ops.g1pp, 2.0 * w)
    # Seen from curve 2 the pair (i, j) has the gap g2(x_i) - g1(x_j) and
    # dx = x_i - x_j: the (j, i) entries of the eq10 block's operands, built
    # for this block's own rows.
    for lo, hi in tiles:
        parts = tile(lo, hi)
        _cauchy_cross(parts, *cross(g2[lo:hi, None] - g1[None, :],
                                    x[lo:hi, None] - x[None, :], parts[0]), w)
        yield 2, 0, lo, parts, g1p
    yield from remainder(2, 1, g2, g2p, ops.g2pp, -2.0 * w)


def _log_cross(parts, gap, dx, rho, w):
    """parts = (re, im) of (w_j/2pi) log rho + i (2/2pi) w_j arctan2(dx, gap),
    rho = gap^2 + dx^2."""
    re, im = parts
    np.log(rho, out=re)
    re *= w / TWO_PI
    np.arctan2(dx, gap, out=im)
    im *= (2.0 / TWO_PI) * w


def _cauchy_cross(parts, gap, dx, rho, w):
    """parts = (re, im) of (-2/2pi) w_j / (gap + i dx), rho = gap^2 + dx^2,
    as (-2/2pi) w_j (gap - i dx) / rho; gap, dx and rho are overwritten."""
    np.reciprocal(rho, out=rho)
    gap *= rho
    dx *= rho
    np.multiply(gap, (-2.0 / TWO_PI) * w, out=parts[0])
    np.multiply(dx, (2.0 / TWO_PI) * w, out=parts[1])


def _corner_moments(domain: PlaneDomain, ops: Operators) -> dict:
    """{(r, c): moment} for each key of _CORNERS: the correction on the
    diagonal of block (r, c) is this moment minus the row sums of the cross
    block _CORNERS[r, c] (each with its column factor).

    The opposite curve's trace at the target continues the cross-pair density
    analytically, so subtracting it removes the corner quasi-singularity; the
    kernel's exact zeroth moment (contour antiderivatives) restores the
    total.  Each correction, moment minus discrete row sum, sits on the
    diagonal of the target curve's own block.  Curve-2 kernels seen from
    curve 1 stay in the right half-plane (principal branch), curve-1 kernels
    seen from curve 2 in the left one (branch continuous there: angles lifted
    to (0, 2pi)).  Block (0, 0) carries twice the log-kernel moment m21, so
    that its correction is 2 dku21 with dku21 = m21 - (1/2) row sum, and
    dku21 is half of it, bit for bit (scaling by 2 is exact)."""
    rule = ops.rule
    x = rule.nodes
    g1, g2 = ops.g1, ops.g2
    a1, b1 = rule.a, rule.b
    zeta1 = g1 + 1j * x
    d_lo = complex(domain.upper.value(a1)) + 1j * a1
    d_hi = complex(domain.upper.value(b1)) + 1j * b1
    g1_a = float(domain.lower.value(a1))
    g1_b = float(domain.lower.value(b1))

    l21 = (np.log(d_hi - zeta1) - np.log(d_lo - zeta1)) / (2j * np.pi)
    l12 = (log_parts(g1_b - g2, b1 - x, lifted=True)
           - log_parts(g1_a - g2, a1 - x, lifted=True)) / (2j * np.pi)

    def _anti(wv):
        return wv * (np.log(wv) - 1.0)

    g2_a = float(domain.upper.value(a1))
    g2_b = float(domain.upper.value(b1))
    m21 = (-1j / TWO_PI) * (_anti(d_hi - zeta1) - _anti(d_lo - zeta1))
    m21 += -0.25j * ((b1 - x) - 1j * (g2_b - g2) - (x - a1) + 1j * (g2 - g2_a))
    return {(0, 0): 2.0 * m21, (1, 0): -2.0 * l21, (2, 1): 2.0 * l12}


@lru_cache(maxsize=1)  # a solve's assembly and interior reconstruction share it
def build_operators(domain: PlaneDomain, rule: QuadratureRule) -> Operators:
    """The node samples that every kernel tile of one (domain, rule) pair
    reads (`_kernel_blocks`), and the interior reconstruction too.  A
    non-finite curve value or slope at a node is a NumericError naming the
    curve; curves that touch at a node (gap <= 0) an AssemblyError."""
    x = rule.nodes
    arrays = [np.asarray(f(x), dtype=float) for f in (
        domain.lower.value, domain.upper.value, domain.lower.slope, domain.upper.slope,
        domain.lower.curvature, domain.upper.curvature)]
    for arr, nm in zip(arrays, ("gamma_1", "gamma_2", "gamma_1'", "gamma_2'")):
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"{nm} non-finite at a quadrature node")
    gap = arrays[1] - arrays[0]
    if np.any(gap <= 0):
        j = int(np.argmin(gap))
        raise AssemblyError(
            f"curves touch at node x1={x[j]} (gap {gap[j]}); kernels singular there")
    for arr in arrays:  # the cache hands these to every caller
        arr.flags.writeable = False
    return Operators(rule, *arrays)


# ---------------------------------------------------------------------------
# Residual sweeps (vectorized over all target nodes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceProducts:
    """The kernel blocks of one (domain, rule) pair applied to one trace's
    D = [du_1; du_2], with the node samples the residuals also read (ops):
    eq8 @ D and cauchy @ D for the stacked condition operators of
    docs/method.md section 6, and dku21, half the corner correction on the
    eq8 block of du_1.  v holds the scaled densities [v_1, v_2],
    v_k = [1 - i g_k'] du_k, as columns; wlog and partial are the node weight matrices
    (`node_weight_matrices`) applied to them.  cross is the upper boundary
    representation's cross pair: the curve-1 kernel seen from curve 2,
    (1/2) log(gap^2 + dx^2) + i (A + pi), applied to u_1 = w v_1, with
    A = arctan2(dx, gap) the angle of block (0, 1) at the transposed pair."""

    ops: Operators
    v: np.ndarray
    wlog: np.ndarray
    partial: np.ndarray
    eq8: np.ndarray
    cauchy: np.ndarray
    dku21: np.ndarray
    cross: np.ndarray


def trace_products(trace: BoundaryTrace, domain: PlaneDomain) -> TraceProducts:
    """Apply each kernel tile to the trace as `_kernel_blocks` builds it,
    storing none: one real GEMM per tile on the interleaved (re, im)
    columns of the scaled density [1 - i g'] du, with the column factor
    stacked as two more columns, so the corner row sums come from the same
    pass.  While a tile of block (0, 1) is live its transposed product with
    u_1 = w v_1 accumulates too: the block's entry (i, j) is
    (w_j/2pi) log rho + i (w_j/pi) A - (i/2) w_j, so
    (pi/w) (u_1 @ block) + (3 pi i/2) sum u_1 is the cross pair.  The
    log-weight and running-integral terms of the eq8 blocks go through
    `node_weight_products` instead, on the columns [v_1, v_2, 1 - i g_2'],
    once per trace and before the blocks, in O(N^2): no weight matrix and
    no N x N kernel array is formed."""
    rule, n, w = trace.rule, trace.rule.n, trace.rule.weights
    ops = build_operators(domain, rule)
    du = (trace.du_lower, trace.du_upper)
    factor = (1.0 - 1j * ops.g1p, 1.0 - 1j * ops.g2p)
    cols = np.stack([factor[0] * du[0], factor[1] * du[1], factor[1]], axis=1)
    wlog, partial = node_weight_products(rule, cols)
    u1 = w * cols[:, 0]
    u1r = u1.view(float).reshape(n, 2)
    # each column block's GEMM operand, by whether its tiles carry the factor
    operands = {(c, carried): np.stack([du[c]] if carried else [cols[:, c], factor[c]],
                                       axis=1).view(float)
                for c in (0, 1) for carried in (False, True)}
    out = np.zeros((3, n), dtype=complex)
    sums = {rc: np.empty(n, dtype=complex) for rc in _CORNERS.values()}
    cross = np.zeros((2, 2, n))  # part k of block (0, 1), transposed, @ part m of u_1
    for r, c, lo, parts, gp in _kernel_blocks(ops, None, None):
        h = parts.shape[1]
        p = parts.reshape(2 * h, n) @ operands[c, gp is None]
        prod = (p[:h, 0::2] - p[h:, 1::2]) + 1j * (p[:h, 1::2] + p[h:, 0::2])
        out[r, lo:lo + h] += prod[:, 0]
        if (r, c) in sums:
            sums[r, c][lo:lo + h] = prod[:, 1]
        if (r, c) == (0, 1):
            cross += u1r[lo:lo + h].T @ parts
    out[0] += (-2.0 / TWO_PI) * wlog[:, 0] + 1j * partial[:, 1]
    sums[0, 1] += 1j * partial[:, 2]
    moments = _corner_moments(domain, ops)
    corners = {rc: moments[rc] - sums[block] for rc, block in _CORNERS.items()}
    for (r, c), v in corners.items():
        out[r] += v * du[c]
    cross = ((np.pi / w) * ((cross[0, 0] - cross[1, 1]) + 1j * (cross[0, 1] + cross[1, 0]))
             + 1.5j * np.pi * np.sum(u1))
    return TraceProducts(ops, cols[:, :2], wlog[:, :2], partial[:, :2],
                         out[0], out[1:].ravel(), 0.5 * corners[0, 0], cross)


def eq8_residuals(trace: BoundaryTrace, domain: PlaneDomain) -> np.ndarray:
    """u_1 - u_2 + 2 int du_2 U [1-i g2'] - 2 int du_1 U [1-i g1'] at every node,
    with U the symmetric-angle kernel (docs/method.md section 3)."""
    return condition_residuals(trace, domain, ("eq8",))["eq8"]


def _representation_lower(trace: BoundaryTrace, prods: TraceProducts) -> np.ndarray:
    """Principal-value boundary evaluation of the representation formula at
    every node of the lower curve; for exact traces it equals the trace
    itself (the raw layer integrals carry the half-trace, the anchor term
    the other half)."""
    # The eq7 kernels on this curve are half the eq8 kernels, without their
    # corner correction and their -(i/4) sign(x - xi) term (see
    # docs/method.md section 6), applied as -(i/4)(int f - 2 int_a^{xi} f).
    v1, v2 = prods.v.T  # densities [1 - i g'] du
    sign = -0.25j * (trace.rule.weights @ (v2 - v1)
                     - 2.0 * (prods.partial[:, 1] - prods.partial[:, 0]))
    flux = 0.5 * prods.eq8 - prods.dku21 * trace.du_lower - sign
    return trace.u_lower - flux


def _representation_upper(trace: BoundaryTrace, prods: TraceProducts) -> np.ndarray:
    """`_representation_lower` on the upper curve.  Curve 2: diagonal log
    split as on curve 1, with the half-weighted jump -(i/2) int_a^{xi},
    applied one row tile at a time to the weighted density u_2 = w v_2;
    curve 1: smooth in the (0, 2pi) branch (`TraceProducts.cross`) plus the
    full jump correction -i int_a^{xi}."""
    x, w = trace.rule.nodes, trace.rule.weights
    u2, ops = w * prods.v[:, 1], prods.ops
    flux = np.empty(trace.rule.n, dtype=complex)
    for lo, hi in _row_tiles(trace.rule.n):
        d = _diffq(ops.g2, ops.g2p, x, lo, hi)  # m = d + i, Arg m = pi/2 - arctan d
        flux[lo:hi] = (0.5 * _real_matvec(np.log1p(d * d), u2)
                       - 1j * _real_matvec(np.arctan(d, out=d), u2))
    flux += 0.5j * np.pi * np.sum(u2) - prods.cross
    flux = ((flux + prods.wlog[:, 1]) / TWO_PI
            - 1j * (0.5 * prods.partial[:, 1] - prods.partial[:, 0]))
    return trace.u_lower - flux


def condition_residuals(trace: BoundaryTrace, domain: PlaneDomain,
                        condition_ids) -> dict:
    """Residual vectors at every node, keyed by the requested condition ids.

    One `trace_products` serves every condition; eq9 and eq11 restate eq10
    and eq12 through the tangential traces.  eq7-boundary is the
    representation on each curve minus its trace (the half-trace identity as
    a residual), the larger of the two at each node."""
    ids = set(condition_ids)
    if ids - set(CONDITION_IDS):
        raise DataError(f"unknown condition ids {sorted(ids - set(CONDITION_IDS))}")
    prods = trace_products(trace, domain)
    out = {"eq8": trace.u_lower - trace.u_upper + prods.eq8}
    if ids & {"eq9", "eq10", "eq11", "eq12"}:
        du1, du2 = trace.du_lower, trace.du_upper
        pv = _pv_matvec(trace.rule, np.stack([du1, du2], axis=1))
        cauchy_pv = (1j / np.pi) * np.concatenate([-pv[:, 0], pv[:, 1]])
        eq10, eq12 = np.split(np.concatenate([du1, du2]) + cauchy_pv + prods.cauchy, 2)
        out.update(eq10=eq10, eq12=eq12)
        if ids & {"eq9", "eq11"}:
            if trace.ux1_lower is None or trace.ux1_upper is None:
                raise DataError("eq9 and eq11 need tangential (du/dx1) trace data")
            jump = trace.ux1_lower - trace.ux1_upper + 1j * (du2 - du1)
            out.update(eq9=jump + 1j * eq10, eq11=1j * eq12 - jump)
    if "eq7-boundary" in ids:
        lo = _representation_lower(trace, prods) - trace.u_lower
        up = _representation_upper(trace, prods) - trace.u_upper
        out["eq7-boundary"] = np.where(np.abs(lo) >= np.abs(up), lo, up)
    return {c: out[c] for c in condition_ids}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

WINDOW_FRACTION = 0.1  # the default window delta, as a fraction of b - a


def window_mask(rule: QuadratureRule, delta: float) -> np.ndarray:
    return (rule.nodes >= rule.a + delta) & (rule.nodes <= rule.b - delta)


def condition_report(trace: BoundaryTrace, domain: PlaneDomain, condition_id: str,
                     delta: Optional[float] = None) -> ResidualReport:
    """Evaluate one condition at all nodes and take the sup over the
    interior window [a + delta, b - delta] (default delta =
    WINDOW_FRACTION (b - a))."""
    rule = trace.rule
    if delta is None:
        delta = WINDOW_FRACTION * (rule.b - rule.a)
    vals = condition_residuals(trace, domain, (condition_id,))[condition_id]
    mags = np.abs(vals)
    mask = window_mask(rule, delta)
    sup = float(np.max(mags[mask])) if np.any(mask) else float(np.max(mags))
    return ResidualReport(condition_id, mags, sup, delta)
