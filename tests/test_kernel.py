import numpy as np
import pytest

from cbie.errors import KernelSingularityError
from cbie.kernel import (
    KernelPoint,
    dU_dx1,
    dU_dx2,
    fund_solution,
    fund_solution_oracle,
    heaviside_sym,
    is_singular_config,
)
from cbie.lcg import Lcg
from reference import boundary_log_kernel

TWO_PI = 2 * np.pi


# ---------------------------------------------------------------------------
# symmetric Heaviside
# ---------------------------------------------------------------------------

def test_heaviside_values():
    assert heaviside_sym(1.0) == 1.0
    assert heaviside_sym(-2.5) == 0.0
    assert heaviside_sym(0.0) == 0.5


def test_heaviside_partition_seeded():
    rng = Lcg(42)
    for _ in range(1000):
        t = rng.uniform(-10.0, 10.0)
        assert heaviside_sym(t) + heaviside_sym(-t) == 1.0
    assert heaviside_sym(0.0) + heaviside_sym(-0.0) == 1.0


# ---------------------------------------------------------------------------
# fundamental solution
# ---------------------------------------------------------------------------

def test_fund_solution_zero_range():
    assert fund_solution(KernelPoint(1.3, 0.0, 0.7)) == 0
    assert fund_solution(KernelPoint(0.0, 0.0, 0.7)) == 0


def test_fund_solution_closed_form_value():
    # d1=1, x2=1, xi2=0: (1/2pi)[Log(1+i) - Log(i)] = log(2)/(4 pi) - i/8
    val = fund_solution(KernelPoint(1.0, 1.0, 0.0))
    assert val == pytest.approx(np.log(2.0) / (4 * np.pi) - 0.125j, abs=1e-15)


def test_fund_solution_matches_integral_oracle():
    val = fund_solution(KernelPoint(1.0, 1.0, 0.0))
    ora = fund_solution_oracle(KernelPoint(1.0, 1.0, 0.0))
    assert abs(val - ora) <= 1e-10 * abs(ora)


def test_fund_solution_oracle_sweep():
    rng = Lcg(42)
    checked = 0
    while checked < 100:
        p = KernelPoint(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(p.d1) < 0.05 or is_singular_config(p):
            continue
        val = fund_solution(p)
        ora = fund_solution_oracle(p)
        assert abs(val - ora) <= 1e-10 * max(abs(ora), 1e-12), p
        checked += 1


def test_fund_solution_conjugation_symmetry():
    rng = Lcg(7)
    for _ in range(50):
        p = KernelPoint(rng.uniform(0.1, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = KernelPoint(-p.d1, p.x2, p.xi2)
        assert fund_solution(q) == pytest.approx(np.conj(fund_solution(p)), abs=1e-15)


def test_fund_solution_d1_zero_outside_segment():
    p = KernelPoint(0.0, 1.0, 2.0)  # pole at t=2 outside [0,1]
    assert fund_solution(p) == pytest.approx((np.log(1.0) - np.log(2.0)) / TWO_PI)


@pytest.mark.parametrize("p", [
    KernelPoint(0.0, 1.0, 0.5),
    KernelPoint(0.0, 1.0, 0.0),
    KernelPoint(0.0, 1.0, 1.0),
    KernelPoint(0.0, -2.0, -1.0),
    KernelPoint(0.0, 0.0, 0.0),
])
def test_singular_configurations_raise(p):
    assert is_singular_config(p)
    with pytest.raises(KernelSingularityError) as err:
        fund_solution(p)
    assert err.value.point == p
    with pytest.raises(KernelSingularityError):
        dU_dx1(p)


def test_nonsingular_predicate():
    assert not is_singular_config(KernelPoint(0.5, 1.0, 0.5))
    assert not is_singular_config(KernelPoint(0.0, 1.0, -0.1))


# ---------------------------------------------------------------------------
# first derivatives
# ---------------------------------------------------------------------------

def test_dU_dx2_reference_values():
    assert dU_dx2(0.0, 1.0) == pytest.approx(1.0 / TWO_PI)
    assert dU_dx2(1.0, 0.0) == pytest.approx(-1j / TWO_PI)


def test_dU_dx2_homogeneity():
    rng = Lcg(3)
    for _ in range(50):
        d1, d2 = rng.uniform(0.1, 2), rng.uniform(-2, 2)
        lam = rng.uniform(0.5, 3)
        assert dU_dx2(lam * d1, lam * d2) == pytest.approx(dU_dx2(d1, d2) / lam)


def test_dU_dx2_singular_at_origin():
    with pytest.raises(KernelSingularityError):
        dU_dx2(0.0, 0.0)


def test_dU_dx1_zero_at_x2_zero():
    assert dU_dx1(KernelPoint(0.7, 0.0, 0.4)) == 0


def test_dU_dx1_closed_form_value():
    val = dU_dx1(KernelPoint(1.0, 1.0, 0.0))
    expected = (1j / TWO_PI) * (1.0 / (1 + 1j) - 1.0 / 1j)
    assert val == pytest.approx(expected, abs=1e-15)
    assert val == pytest.approx((1j - 1) / (4 * np.pi), abs=1e-15)


def test_derivatives_match_finite_differences():
    rng = Lcg(42)
    h = 1e-5
    checked = 0
    while checked < 100:
        p = KernelPoint(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(p.d1) < 0.1 or abs(p.x2) < 0.1 or abs(p.x2 - p.xi2) < 0.1 or abs(p.xi2) < 0.1:
            continue
        fd2 = (fund_solution(KernelPoint(p.d1, p.x2 + h, p.xi2))
               - fund_solution(KernelPoint(p.d1, p.x2 - h, p.xi2))) / (2 * h)
        assert abs(fd2 - dU_dx2(p.d1, p.x2 - p.xi2)) <= 1e-8
        fd1 = (fund_solution(KernelPoint(p.d1 + h, p.x2, p.xi2))
               - fund_solution(KernelPoint(p.d1 - h, p.x2, p.xi2))) / (2 * h)
        assert abs(fd1 - dU_dx1(p)) <= 1e-8
        checked += 1


# ---------------------------------------------------------------------------
# annihilation identity (the kernel solves the homogeneous equation)
# ---------------------------------------------------------------------------

def test_annihilation_closed_forms_cancel_exactly():
    rng = Lcg(11)
    for _ in range(200):
        d1, d2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if abs(d1) < 0.05 and abs(d2) < 0.05:
            continue
        w = d2 + 1j * d1
        d22 = -(1.0 / TWO_PI) / (w * w)
        mixed_times_i = 1j * (-1j / TWO_PI) / (w * w)
        assert d22 + mixed_times_i == 0


def test_annihilation_finite_difference():
    rng = Lcg(42)
    h = 1e-4
    checked = 0
    while checked < 100:
        d1 = rng.uniform(-2, 2)
        x2 = rng.uniform(-2, 2)
        xi2 = rng.uniform(-2, 2)
        if abs(d1) < 0.1 or abs(x2 - xi2) < 0.1 or abs(x2) < 0.1 or abs(xi2) < 0.1:
            continue
        u = lambda dd1, xx2: fund_solution(KernelPoint(dd1, xx2, xi2))
        d22 = (u(d1, x2 + h) - 2 * u(d1, x2) + u(d1, x2 - h)) / h**2
        d12 = (u(d1 + h, x2 + h) - u(d1 + h, x2 - h)
               - u(d1 - h, x2 + h) + u(d1 - h, x2 - h)) / (4 * h**2)
        assert abs(d22 + 1j * d12) <= 1e-6
        checked += 1


def test_gradient_combination_constant_in_x2():
    # dU/dx2 + i dU/dx1 depends on x2 only through nothing: it equals
    # (1/2pi)/(-xi2 + i d1) for every x2
    rng = Lcg(5)
    for _ in range(50):
        d1 = rng.uniform(0.2, 2.0)
        xi2 = rng.uniform(-2, 2)
        vals = []
        for x2 in (0.3, 0.9, 1.7):
            combo = dU_dx2(d1, x2 - xi2) + 1j * dU_dx1(KernelPoint(d1, x2, xi2))
            vals.append(combo)
        expected = (1.0 / TWO_PI) / (-xi2 + 1j * d1)
        for v in vals:
            assert v == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# trace log kernels
# ---------------------------------------------------------------------------

def test_boundary_log_kernel_continuity_structure():
    # continuous along same-curve diagonal paths (d2 proportional to d1):
    # the principal-angle jump cancels against the sign term there
    slope = 0.7
    along_plus = boundary_log_kernel(1e-9, slope * 1e-9)
    along_minus = boundary_log_kernel(-1e-9, -slope * 1e-9)
    assert abs(along_plus.imag - along_minus.imag) < 1e-9
    # across a fixed positive offset (cross-curve path) the designed jump
    # is exactly -i/2; the assembly integrates that part analytically
    d2 = 0.8
    left = boundary_log_kernel(-1e-12, d2)
    right = boundary_log_kernel(1e-12, d2)
    assert (right - left) == pytest.approx(-0.5j, abs=1e-10)
    assert boundary_log_kernel(0.0, d2) == pytest.approx(np.log(d2) / TWO_PI)


def test_boundary_log_kernel_conjugation():
    rng = Lcg(9)
    for _ in range(50):
        d1, d2 = rng.uniform(0.05, 2), rng.uniform(-2, 2)
        assert boundary_log_kernel(-d1, d2) == pytest.approx(
            np.conj(boundary_log_kernel(d1, d2)), abs=1e-15)


def test_kernels_differ_by_real_log():
    # symmetric-angle kernel = zero-anchored kernel + log|d1| / 2pi
    rng = Lcg(17)
    for _ in range(50):
        d1 = rng.uniform(0.05, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        d2 = rng.uniform(-2, 2)
        diff = boundary_log_kernel(d1, d2) - fund_solution(KernelPoint(d1, d2, 0.0))
        assert diff == pytest.approx(np.log(abs(d1)) / TWO_PI, abs=1e-14)
