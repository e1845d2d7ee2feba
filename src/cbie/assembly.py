"""Second-kind dense system for the two unknown boundary traces.

The boundary data  du/dx2|_k + alpha_k u_k = phi_k  eliminates the normal
derivatives; the trace-difference identity (row block A) and the
alpha-weighted combination of the two Cauchy-formula conditions with the
principal value of the unknown swapped for its double-integral expression
(row block B) then close a 2N x 2N system

    (I + K) [u_1; u_2] = b

in which every kernel entry is weakly singular or bounded.  Unknown
ordering: columns [0, N) are u on the lower curve at the rule nodes,
[N, 2N) u on the upper curve.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor
from scipy.sparse.linalg import LinearOperator, svds

from .conditions import build_operators
from .errors import AssemblyError, ConfigurationError, NumericError, ShapeError
from .geometry import PlaneDomain
from .quadrature import QuadratureRule

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
    matrix: np.ndarray
    rhs: np.ndarray
    rule: QuadratureRule
    warnings: list = field(default_factory=list)
    # 1-norm condition estimate, recorded by the solve that factorized matrix
    condition_estimate: Optional[float] = None

    @property
    def n(self) -> int:
        return self.rule.n

    def split(self, vec) -> tuple:
        """Split a length-2N vector into (lower, upper) traces."""
        n = self.n
        vec = np.asarray(vec)
        return vec[:n], vec[n:]


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

    eye = np.eye(n)
    P, KU11, KU21 = ops.pv, ops.ku11, ops.ku21
    C21, C12, B11, B22 = ops.c21, ops.c12, ops.b11, ops.b22
    dku21, dc21, dc12 = ops.dku21, ops.dc21, ops.dc12
    i_pi = 1j / np.pi

    # Row block A: trace-difference identity with du eliminated; cross
    # integrals carry the analytic-continuation corner correction (a
    # diagonal acting on the opposite curve's density).
    a_u1 = eye + 2.0 * a1c * (KU11 - np.diag(dku21))
    a_u2 = -eye - 2.0 * a2c * KU21
    rhs_a = 2.0 * (KU11 @ phi1) - 2.0 * (KU21 @ phi2) - 2.0 * dku21 * phi1

    # Row block B: alpha-weighted Cauchy-formula combination; the principal
    # value of (u_1 - u_2) is replaced by row block A's integral expression
    # (precomputed kernel products P @ KU).
    PK11 = P @ (KU11 - np.diag(dku21))
    PK21 = P @ KU21
    b_u1 = (eye + 2.0 * a1c * i_pi * PK11
            + 2.0 * B11 + (2.0 * a1c / a2c) * C12 - 2.0 * np.diag(dc21))
    b_u2 = (eye - 2.0 * a2c * i_pi * PK21
            - (2.0 * a2c / a1c) * C21 - 2.0 * B22 + 2.0 * np.diag(dc12))
    reg_phi = ((2.0 / a1c) * (C21 @ phi2 + dc21 * phi1) - (2.0 / a1c) * (B11 @ phi1)
               + (2.0 / a2c) * (B22 @ phi2) - (2.0 / a2c) * (C12 @ phi1 + dc12 * phi2))
    rhs_b = (phi1 / a1c + phi2 / a2c
             - i_pi * (P @ (phi1 / a1c - phi2 / a2c))
             + i_pi * (P @ rhs_a) - reg_phi)

    matrix = np.block([[a_u1, a_u2], [b_u1, b_u2]])
    rhs = np.concatenate([rhs_a, rhs_b])
    if not np.all(np.isfinite(matrix)):
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise AssemblyError(f"non-finite system entry at row {i}, column {j} "
                            f"(nodes {rule.nodes[i % n]}, {rule.nodes[j % n]})")
    if not np.all(np.isfinite(rhs)):
        raise NumericError("non-finite right-hand side")
    return FredholmSystem(matrix, rhs, rule, warnings)


def lu_condition(matrix: np.ndarray) -> tuple:
    """LU factors of the matrix and LAPACK's estimate of its 1-norm condition
    number (gecon on those factors, Hager-Higham); an exactly zero pivot
    gives inf."""
    with warnings.catch_warnings():  # a zero pivot is reported as cond = inf
        warnings.simplefilter("ignore", LinAlgWarning)
        factors = lu_factor(matrix, check_finite=False)
    gecon = get_lapack_funcs("gecon", (factors[0],))
    rcond, _ = gecon(factors[0], np.linalg.norm(matrix, 1), norm="1")
    return factors, (1.0 / rcond if rcond > 0 else np.inf)


@dataclass
class DecayReport:
    singular_values: np.ndarray  # the PROBE_K largest of K, descending
    ratios: dict
    condition_estimate: float


PROBE_K = 20


def compactness_probe(system: FredholmSystem) -> DecayReport:
    """Singular-value decay of K = matrix - identity plus the matrix's
    condition estimate; the numerical signature of the second-kind structure.

    The PROBE_K largest singular values come from Lanczos bidiagonalization
    (PROPACK) with K applied as an operator.  Below 3 PROBE_K unknowns the
    Krylov space has no room beyond k and PROPACK can fail to converge, so
    those small systems take the dense spectrum.  The condition estimate is
    the one the solve recorded, or a fresh LU estimate."""
    m = system.matrix
    dim = m.shape[0]
    if dim > 3 * PROBE_K:
        op = LinearOperator(m.shape, dtype=m.dtype,
                            matvec=lambda v: m @ v - v,
                            rmatvec=lambda v: (m.T @ v.conj()).conj() - v)
        sv = svds(op, k=PROBE_K, solver="propack", rng=0,
                  return_singular_vectors=False)[::-1]
    else:
        sv = np.linalg.svd(m - np.eye(dim), compute_uv=False)[:PROBE_K]
    ratios = {j: (float(sv[j - 1] / sv[0]) if len(sv) >= j and sv[0] > 0 else 0.0)
              for j in (5, 10, 20)}
    cond = system.condition_estimate
    if cond is None:
        cond = lu_condition(m)[1]
    return DecayReport(sv, ratios, float(cond))


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
