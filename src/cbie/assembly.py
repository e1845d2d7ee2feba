"""Second-kind dense system for the two unknown boundary traces.

The boundary data  du/dx2|_k + alpha_k u_k = phi_k  eliminates the normal
derivatives; the trace-difference identity eq8 (row block A) and
(i/pi) PV eq8 minus the alpha-weighted combination of the two
Cauchy-formula conditions, in which the principal value of the unknown
cancels (row block B), then close a 2N x 2N system

    (I + K) [u_1; u_2] = b

in which every kernel entry is weakly singular or bounded.  Unknown
ordering: columns [0, N) are u on the lower curve at the rule nodes,
[N, 2N) u on the upper curve.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .conditions import (
    _CORNERS,
    BoundaryTrace,
    _corner_moments,
    _fill,
    _kernel_blocks,
    _pv_matvec,
    _real_matvec,
    build_operators,
    condition_residuals,
)
from .errors import AssemblyError, ConfigurationError, NumericError, ShapeError
from .geometry import PlaneDomain
from .linalg import _mapped, lu_condition, probe_spectrum
from .quadrature import (
    _TILE_ROWS,
    QuadratureRule,
    _diagonal,
    node_weight_matrices,
    pv_weight_matrix,
)

MAGIC = b"CBIE1"


@dataclass
class BCSpec:
    """Boundary constants and data functions of the coupled conditions."""

    alpha1: complex
    alpha2: complex
    phi1: Callable
    phi2: Callable

    def __post_init__(self):
        if self.alpha1 == 0 or self.alpha2 == 0:
            raise ConfigurationError("boundary constants alpha_k must be nonzero")

    def sample(self, x) -> tuple:
        """(phi_1, phi_2) at the nodes x: each phi_k is called once, on the array."""
        x = np.asarray(x, dtype=float)
        phi1 = np.broadcast_to(np.asarray(self.phi1(x), dtype=complex), x.shape)
        phi2 = np.broadcast_to(np.asarray(self.phi2(x), dtype=complex), x.shape)
        if not (np.all(np.isfinite(phi1)) and np.all(np.isfinite(phi2))):
            raise NumericError("boundary data non-finite at a quadrature node")
        return phi1, phi2

    def report_endpoints(self, a1: float, b1: float) -> dict:
        """|phi_k| at the interval ends; the regularity theory wants these
        to vanish, so they are reported rather than enforced."""
        return {
            "phi1": (abs(complex(self.phi1(a1))), abs(complex(self.phi1(b1)))),
            "phi2": (abs(complex(self.phi2(a1))), abs(complex(self.phi2(b1)))),
        }


def du_from_bc(u_trace, alpha: complex, phi_at_nodes) -> np.ndarray:
    """Eliminated normal-type derivative: du/dx2 = phi - alpha u, elementwise."""
    u = np.asarray(u_trace, dtype=complex)
    phi = np.asarray(phi_at_nodes, dtype=complex)
    if u.shape != phi.shape:
        raise ShapeError(f"u has shape {u.shape}, phi has shape {phi.shape}")
    return phi - alpha * u


@dataclass
class FredholmSystem:
    """The assembled system and the problem it was assembled from.  The
    solve factors matrix in its own buffer and then drops it (None), so
    whatever reads the matrix as assembled runs first."""

    matrix: Optional[np.ndarray]
    rhs: np.ndarray
    rule: QuadratureRule
    domain: PlaneDomain
    bc: BCSpec
    warnings: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.rule.n

    def residual(self, trace: BoundaryTrace) -> np.ndarray:
        """matrix @ [u_1; u_2] - rhs for the trace's u, whose du must be
        phi - alpha u, read from the conditions the rows combine rather than
        from the matrix: [eq8; (i/pi) PV eq8 - eq10/alpha1 - eq12/alpha2],
        the PV applied one row tile at a time.  O(N) memory."""
        res = condition_residuals(trace, self.domain, ("eq8", "eq10", "eq12"))
        eq8 = res["eq8"]
        block_b = ((1j / np.pi) * _pv_matvec(self.rule, eq8)
                   - res["eq10"] / complex(self.bc.alpha1)
                   - res["eq12"] / complex(self.bc.alpha2))
        return np.concatenate([eq8, block_b])


def assemble(domain: PlaneDomain, bc: BCSpec, rule: QuadratureRule) -> FredholmSystem:
    ops = build_operators(domain, rule)  # raises AssemblyError on touching curves
    n = rule.n
    phi1, phi2 = bc.sample(rule.nodes)

    a1c, a2c = complex(bc.alpha1), complex(bc.alpha2)
    warnings = []
    if abs(1.0 / a1c + 1.0 / a2c) < 1e-8:
        warnings.append(
            "near-degenerate alpha combination |1/alpha1 + 1/alpha2| < 1e-8; "
            "expect degraded conditioning")

    # With D = [du_1; du_2] = phi - alpha U (alpha scaling columns), block A
    # is eq8 and block B is (i/pi) PV eq8 - (eq10/alpha1 + eq12/alpha2), in
    # which the principal value of u_1 - u_2 cancels:
    # B = G D + (i/pi) PV[phi_1/alpha1 - phi_2/alpha2] with
    # G = (i/pi) PV eq8 - (I + cauchy)[:N]/alpha1 - (I + cauchy)[N:]/alpha2
    # (docs/method.md section 6 for eq8 and cauchy).

    matrix = np.empty((2 * n, 2 * n), dtype=complex)
    top, g = matrix[:n], matrix[n:]
    moments, sums = _corner_moments(domain, ops), {}  # the corner corrections' parts
    # pv is real, for one real GEMM on the interleaved (re, im) columns of
    # eq8 and one product.  It lives in a map of its own, so that none of it
    # stays resident under the probe and the LU, and is built before any
    # page of the matrix is touched, so that its build's row-tile
    # temporaries never sit beside a whole matrix.  The weight matrices are
    # then built in the matrix itself, not yet written: the pair in the last
    # rows of the bottom half, which no tile writes before eq8 is complete,
    # and the build's scratch before it.
    pv = pv_weight_matrix(rule, out=_mapped((n, n), float))
    tiles = _kernel_blocks(ops, *node_weight_matrices(rule, matrix.view(float).reshape(-1)))
    phi = np.concatenate([phi1, phi2])
    alpha = np.repeat([a1c, a2c], n)
    ones, diag = np.ones(n), np.arange(n)
    rows = np.zeros((min(n, _TILE_ROWS), n), dtype=complex)  # one cauchy tile
    # The eq8 tiles go straight into the top half.  The first cauchy tile
    # comes once eq8 is complete and its weight matrices are dropped:
    # (i/pi) PV eq8 then fills the bottom half, and each cauchy tile is
    # subtracted from it, with its corner correction, scaled by 1/alpha of
    # its row block.
    for r, c, lo, parts, gp in tiles:
        hi = lo + parts.shape[1]
        if r == 0:
            _fill(top[lo:hi, c * n:(c + 1) * n], parts[0], parts[1], gp)
            continue
        if (r, c, lo) == (1, 1, 0):
            sums[0, 1] = top[:, n:] @ ones
            top[diag, diag] += moments[0, 0] - sums[0, 1]
            np.matmul(pv, top.view(float), out=g.view(float))
            g *= 1j / np.pi
            pv_phi = _real_matvec(pv, phi1 / a1c - phi2 / a2c)
            del pv
        t = rows[:hi - lo]
        _fill(t, parts[0], parts[1], gp)
        if (r, c) in _CORNERS.values():
            # numpy takes a one-row product as a dot product, whose sum runs
            # in another order than the gemv of every other row: that row is
            # summed as the first of two
            s = sums.setdefault((r, c), np.empty(n, dtype=complex))
            s[lo:hi] = (rows[:2] @ ones)[:1] if hi - lo == 1 else t @ ones
        if (r, c) in _CORNERS:
            t[_diagonal(lo, hi)] += moments[r, c][lo:hi] - sums[_CORNERS[r, c]][lo:hi]
        t *= 1.0 / (a1c if r == 1 else a2c)
        g[lo:hi, c * n:(c + 1) * n] -= t
    g[diag, diag] -= 1.0 / a1c
    g[diag, n + diag] -= 1.0 / a2c

    rhs = -(matrix @ phi)
    rhs[n:] -= (1j / np.pi) * pv_phi
    matrix *= -alpha
    matrix[diag, diag] += 1.0
    matrix[diag, n + diag] -= 1.0
    if not np.all(np.isfinite(matrix)):
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise AssemblyError(f"non-finite system entry at row {i}, column {j} "
                            f"(nodes {rule.nodes[i % n]}, {rule.nodes[j % n]})")
    if not np.all(np.isfinite(rhs)):
        raise NumericError("non-finite right-hand side")
    return FredholmSystem(matrix, rhs, rule, domain, bc, warnings)


@dataclass
class DecayReport:
    singular_values: np.ndarray  # the PROBE_K largest of K, descending
    ratios: dict
    condition_estimate: float


def compactness_probe(system: FredholmSystem) -> DecayReport:
    """`probe_spectrum` of the system's matrix (Lanczos values, read
    without writing the matrix) plus its condition estimate, from the LU
    of a copy, which leaves the matrix as it was."""
    sv, ratios = probe_spectrum(system.matrix)
    return DecayReport(sv, ratios, float(lu_condition(system.matrix.copy())[1]))


def dump_system(system: FredholmSystem, path) -> None:
    """Binary dump: magic "CBIE1", u64 N, then the 2N x 2N matrix row-major
    with interleaved re/im little-endian doubles, then the length-2N rhs."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", system.n))
        # a little-endian complex128 is the (re, im) pair of "<f8" doubles
        fh.write(np.ascontiguousarray(system.matrix, dtype="<c16").data)
        fh.write(np.ascontiguousarray(system.rhs, dtype="<c16").data)


def load_system(path) -> tuple:
    """Read back a dump; returns (matrix, rhs)."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != MAGIC:
            raise ConfigurationError(f"bad magic {magic!r} in {path}")
        (n,) = struct.unpack("<Q", fh.read(8))
        m2 = 2 * n
        matrix = np.frombuffer(fh.read(16 * m2 * m2), dtype="<c16").reshape(m2, m2)
        rhs = np.frombuffer(fh.read(16 * m2), dtype="<c16")
    return matrix.astype(complex), rhs.astype(complex)
