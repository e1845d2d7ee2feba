"""Exact solutions of u_x2x2 + i u_x1x2 = 0 and the data they induce.

The operator factors as d/dx2 (du/dx2 + i du/dx1), so

    u(x1, x2) = F(x2 + i x1) + g(x1)

solves it for any analytic F and smooth g; this family is the verification
oracle for every other module.  Closed forms:

    u      = F(z) + g(x1),        z = x2 + i x1
    du/dx2 = F'(z)
    du/dx1 = i F'(z) + g'(x1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .conditions import BoundaryTrace
from .errors import ConfigurationError
from .geometry import PlaneDomain
from .quadrature import QuadratureRule


def _poly(coeffs, z, derivative: bool = False):
    """sum_k c_k z^k for ascending coefficients c, or its derivative in z;
    zero when no coefficient is left."""
    c = np.asarray(coeffs, dtype=complex)
    if derivative:
        c = c[1:] * np.arange(1, len(c))
    if not len(c):
        return np.zeros_like(np.asarray(z, dtype=complex))
    return np.polyval(c[::-1], z)


@dataclass(frozen=True)
class SolutionSpec:
    """F is either a polynomial (f_coeffs, ascending) or exp(f_exp_scale * z);
    g is a polynomial in x1."""

    name: str
    f_coeffs: tuple = ()
    f_exp_scale: Optional[complex] = None
    g_coeffs: tuple = ()

    def _f(self, z):
        if self.f_exp_scale is not None:
            return np.exp(self.f_exp_scale * z)
        return _poly(self.f_coeffs, z)

    def _fp(self, z):
        if self.f_exp_scale is not None:
            return self.f_exp_scale * np.exp(self.f_exp_scale * z)
        return _poly(self.f_coeffs, z, derivative=True)


def eval_solution(spec: SolutionSpec, x1, x2):
    """Return (u, du/dx2, du/dx1) at the point(s)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    z = x2 + 1j * x1
    fp = spec._fp(z)
    u = spec._f(z) + _poly(spec.g_coeffs, x1)
    return u, fp, 1j * fp + _poly(spec.g_coeffs, x1, derivative=True)


def canonical_solutions() -> dict:
    """The standard verification set: constants, a pure-x1 solution, the
    identity and quadratic analytic parts, a coupled case, and an
    exponential to exercise non-polynomial quadrature."""
    return {
        "const": SolutionSpec("const", f_coeffs=(1.0,)),
        "x1": SolutionSpec("x1", g_coeffs=(0.0, 1.0)),
        "z": SolutionSpec("z", f_coeffs=(0.0, 1.0)),
        "z2": SolutionSpec("z2", f_coeffs=(0.0, 0.0, 1.0)),
        "z2_plus_cubic": SolutionSpec("z2_plus_cubic", f_coeffs=(0.0, 0.0, 1.0),
                                      g_coeffs=(0.0, 0.0, 0.0, 1.0)),
        "exp_half": SolutionSpec("exp_half", f_exp_scale=0.5),
    }


def complex_from_config(value, key: str) -> complex:
    """A config number given as a scalar or as [re, im]; a bad value raises
    ConfigurationError naming the key."""
    try:
        if isinstance(value, (list, tuple)):
            re, im = value
            return complex(float(re), float(im))
        return complex(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{key} must be a number or [re, im], got {value!r}") from exc


def solution_from_config(block: dict) -> SolutionSpec:
    if "name" in block and len(block) == 1:
        table = canonical_solutions()
        name = block["name"]
        if name not in table:
            raise ConfigurationError(
                f"unknown solution name {name!r}; known: {sorted(table)}")
        return table[name]

    def coeffs(key):
        return tuple(complex_from_config(c, f"bc.phi.solution.{key}")
                     for c in block.get(key, ()))

    scale = block.get("f_exp_scale")
    return SolutionSpec(
        name=block.get("name", "custom"),
        f_coeffs=coeffs("f_coeffs"),
        f_exp_scale=(None if scale is None
                     else complex_from_config(scale, "bc.phi.solution.f_exp_scale")),
        g_coeffs=coeffs("g_coeffs"),
    )


def make_trace(spec: SolutionSpec, domain: PlaneDomain, rule: QuadratureRule) -> BoundaryTrace:
    """Exact boundary traces at the rule's nodes (single source of truth for
    every residual and assembly test)."""
    x = rule.nodes
    g1 = domain.lower.value(x)
    g2 = domain.upper.value(x)
    u1, du1, ux1_1 = eval_solution(spec, x, g1)
    u2, du2, ux1_2 = eval_solution(spec, x, g2)
    return BoundaryTrace(rule, u1, u2, du1, du2, ux1_1, ux1_2)


def make_bc(spec: SolutionSpec, domain: PlaneDomain, alpha1: complex,
            alpha2: complex, rule: QuadratureRule):
    """Boundary data compatible with the solution:
    phi_k(x1) = du/dx2 + alpha_k u on curve k, exposed as evaluables with
    samples recoverable at any rule's nodes."""
    from .assembly import BCSpec

    def phi_on(side, alpha):
        curve = domain.curve(side)

        def phi(x1):
            u, du, _ = eval_solution(spec, x1, np.asarray(curve.value(x1), dtype=float))
            return du + alpha * u

        return phi

    return BCSpec(alpha1, alpha2, phi_on("lower", alpha1), phi_on("upper", alpha2))


def pde_residual_check(spec: SolutionSpec, points: Sequence, h: float) -> float:
    """Max |second-order central-difference approximation of the operator|
    over the points; vanishes to O(h^2) for genuine solutions."""
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
