"""Fundamental solution of u_x2x2 + i u_x1x2 = 0 and its first derivatives.

The kernel anchored at x2 = 0,

    U(d1, x2, xi2) = (1/2pi) int_0^{x2} dt / (t - xi2 + i d1),

depends on x2 and xi2 separately, not only on their difference; the anchor
term is itself a solution of the homogeneous equation.  For d1 != 0 the
integration segment stays in one complex half-plane, so the principal
branch evaluates both logarithms consistently:

    U = (1/2pi) [ Log(x2 - xi2 + i d1) - Log(-xi2 + i d1) ].

The trace normalization of the same family measures the angle
symmetrically in d1, so that the kernel is continuous across d1 = 0 and
only a log|.| singularity remains.  That is the form under which the
trace-difference identity between the two curves closes (see
docs/method.md for the defect of the other normalizations).  The kernel
tiles of `conditions._kernel_blocks` implement it; its pointwise form is
the test reference `boundary_log_kernel` in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelSingularityError

TWO_PI = 2.0 * np.pi


def heaviside_sym(t: float) -> float:
    """Symmetric Heaviside: 1 for t>0, 0 for t<0, 1/2 at t=0."""
    if t > 0:
        return 1.0
    if t < 0:
        return 0.0
    return 0.5


@dataclass(frozen=True)
class KernelPoint:
    """Kernel arguments: d1 = x1 - xi1, plus x2 and xi2 separately."""

    d1: float
    x2: float
    xi2: float


def is_singular_config(p: KernelPoint) -> bool:
    """True when the integration segment [0, x2] passes through the pole.

    The pole of the integrand sits at t = xi2 on the line d1 = 0, so the
    configuration is singular iff d1 = 0 and xi2 lies in [min(0,x2), max(0,x2)]
    (endpoints included: they make the antiderivative logarithm blow up).
    """
    if p.d1 != 0.0:
        return False
    lo, hi = min(0.0, p.x2), max(0.0, p.x2)
    return lo <= p.xi2 <= hi


def fund_solution(p: KernelPoint) -> complex:
    """Closed-form evaluation of the anchored fundamental solution."""
    if is_singular_config(p):
        raise KernelSingularityError(f"singular kernel configuration {p}", point=p)
    if p.d1 != 0.0:
        w1 = complex(p.x2 - p.xi2, p.d1)
        w0 = complex(-p.xi2, p.d1)
        return (np.log(w1) - np.log(w0)) / TWO_PI
    # d1 == 0 with xi2 outside the segment: real integrand, real logs
    return (np.log(abs(p.x2 - p.xi2)) - np.log(abs(p.xi2))) / TWO_PI


def fund_solution_oracle(p: KernelPoint) -> complex:
    """Adaptive numerical integration of the defining integral (slow; used
    by the kernel-check oracle and the test suite)."""
    from scipy.integrate import quad

    if is_singular_config(p):
        raise KernelSingularityError(f"singular kernel configuration {p}", point=p)

    def integrand(t, part):
        return getattr(1.0 / complex(t - p.xi2, p.d1), part)

    re, im = (quad(integrand, 0.0, p.x2, args=(part,), epsabs=1e-13, epsrel=1e-13,
                   limit=400)[0] for part in ("real", "imag"))
    return complex(re, im) / TWO_PI


def dU_dx2(d1, d2):
    """dU/dx2 = (1/2pi) / (d2 + i d1), with d2 = x2 - xi2.  Broadcasts."""
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    den = d2 + 1j * d1
    if np.any(den == 0):
        bad = np.argwhere(np.atleast_1d(den) == 0)
        raise KernelSingularityError(
            f"dU_dx2 singular at d1=d2=0 (first offending index {bad[0]})",
            point=KernelPoint(0.0, 0.0, 0.0),
        )
    out = (1.0 / TWO_PI) / den
    return complex(out) if out.ndim == 0 else out


def dU_dx1(p: KernelPoint) -> complex:
    """dU/dx1 = (i/2pi) [ 1/(x2-xi2+i d1) - 1/(-xi2+i d1) ]."""
    if is_singular_config(p):
        raise KernelSingularityError(f"singular kernel configuration {p}", point=p)
    w1 = complex(p.x2 - p.xi2, p.d1)
    w0 = complex(-p.xi2, p.d1)
    if w1 == 0 or w0 == 0:
        raise KernelSingularityError(f"singular kernel configuration {p}", point=p)
    return (1j / TWO_PI) * (1.0 / w1 - 1.0 / w0)
