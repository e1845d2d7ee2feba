import tracemalloc

import numpy as np
import pytest

from cbie.assembly import (
    BCSpec,
    assemble,
    compactness_probe,
    dump_system,
    load_system,
)
from cbie.conditions import BoundaryTrace, build_operators, condition_residuals, eq8_residuals
from cbie.errors import AssemblyError, ConfigurationError, NumericError
from cbie.geometry import CurveDescriptor, PlaneDomain
from cbie.linalg import PROBE_K
from cbie.manufactured import make_bc, make_trace
from cbie.quadrature import build_rule
from reference import pv_weight_matrix


def _const_bc(c, alpha1=1.0, alpha2=1.0):
    return BCSpec(alpha1, alpha2,
                  lambda x: alpha1 * c + 0 * np.asarray(x),
                  lambda x: alpha2 * c + 0 * np.asarray(x))


def _exact_vector(spec, domain, rule):
    tr = make_trace(spec, domain, rule)
    return np.concatenate([tr.u_lower, tr.u_upper])


def test_bcspec_rejects_zero_alpha():
    with pytest.raises(ConfigurationError):
        BCSpec(0.0, 1.0, lambda x: x, lambda x: x)


# ---------------------------------------------------------------------------
# assembled system structure
# ---------------------------------------------------------------------------

def test_constant_compatible_data_residual(lens):
    rule = build_rule("gauss-legendre", 64, -1, 1)
    c = 2.0 + 0.5j
    system = assemble(lens, _const_bc(c), rule)
    uvec = np.full(2 * rule.n, c)
    assert np.max(np.abs(system.matrix @ uvec - system.rhs)) <= 1e-10 * abs(c)


def test_zero_data_zero_rhs(lens):
    rule = build_rule("gauss-legendre", 32, -1, 1)
    system = assemble(lens, _const_bc(0.0), rule)
    assert np.all(system.rhs == 0)


def test_rhs_linearity_in_phi(lens):
    rule = build_rule("gauss-legendre", 32, -1, 1)
    f = lambda x: np.sin(x) + 0.5j * x
    g = lambda x: np.cos(2 * x) - 0.25j
    bc_f = BCSpec(1.0, 2.0, f, f)
    bc_g = BCSpec(1.0, 2.0, g, g)
    bc_fg = BCSpec(1.0, 2.0, lambda x: f(x) + g(x), lambda x: f(x) + g(x))
    s_f = assemble(lens, bc_f, rule)
    s_g = assemble(lens, bc_g, rule)
    s_fg = assemble(lens, bc_fg, rule)
    assert np.allclose(s_fg.rhs, s_f.rhs + s_g.rhs, atol=1e-12)
    assert np.array_equal(s_f.matrix, s_g.matrix)


def test_exact_trace_consistency_converges(lens, solutions):
    for name in ("z", "z2", "exp_half"):
        spec = solutions[name]
        res = {}
        for n in (128, 256):
            rule = build_rule("gauss-legendre", n, -1, 1)
            bc = make_bc(spec, lens, 1.0, 2.0, rule)
            system = assemble(lens, bc, rule)
            ue = _exact_vector(spec, lens, rule)
            res[n] = np.max(np.abs(system.matrix @ ue - system.rhs))
        assert res[256] <= 1e-3
        assert res[128] / max(res[256], 1e-300) >= 2.0 or res[256] <= 1e-10


def test_du_zero_rows_reduce_to_trace_difference(lens):
    # phi_k = alpha_k * (common trace) makes du vanish: block A rows are
    # exactly u1 - u2 = 0
    rule = build_rule("gauss-legendre", 24, -1, 1)
    x = rule.nodes
    common = np.sin(x) + 1j * x**2
    from cbie.quadrature import sample_interpolator
    interp = sample_interpolator(rule, common)
    bc = BCSpec(1.0, 2.0, lambda v: 1.0 * interp(v), lambda v: 2.0 * interp(v))
    system = assemble(lens, bc, rule)
    vec = np.concatenate([common, common])
    rows_a = (system.matrix @ vec - system.rhs)[:rule.n]
    assert np.max(np.abs(rows_a)) <= 1e-10


# closes at x1 = -1 and 1: gamma_2 - gamma_1 = 2 (1 - x^2)(1 + 0.2 x)
CLOSING_CUBIC = PlaneDomain(-1.0, 1.0,
                            lower=CurveDescriptor("polynomial", (-0.9, -0.1, 0.9, 0.1)),
                            upper=CurveDescriptor("polynomial", (1.1, 0.3, -1.1, -0.3)))


@pytest.mark.parametrize("family,n", [("gauss-legendre", 64), ("midpoint-uniform", 48)])
@pytest.mark.parametrize("domain_name", ["lens", "cubic"])
def test_system_rows_are_the_conditions(lens, solutions, domain_name, family, n):
    # for any trace U with du = phi - alpha U, the system's residual is the
    # condition residuals: eq8 in block A and
    # (i/pi) PV eq8 - (eq10/alpha1 + eq12/alpha2) in block B
    domain = lens if domain_name == "lens" else CLOSING_CUBIC
    a1, a2 = 1.0 + 0.5j, 2.0
    rule = build_rule(family, n, domain.a1, domain.b1)
    bc = make_bc(solutions["exp_half"], domain, a1, a2, rule)
    system = assemble(domain, bc, rule)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    phi1, phi2 = bc.sample(rule.nodes)
    trace = BoundaryTrace(rule, u[:n], u[n:], phi1 - a1 * u[:n], phi2 - a2 * u[n:])
    eq8 = eq8_residuals(trace, domain)
    cauchy = condition_residuals(trace, domain, ["eq10", "eq12"])
    block_b = ((1j / np.pi) * (pv_weight_matrix(rule) @ eq8)
               - (cauchy["eq10"] / a1 + cauchy["eq12"] / a2))
    expected = np.concatenate([eq8, block_b])
    err = np.max(np.abs(system.matrix @ u - system.rhs - expected))
    assert err <= 1e-13 * np.max(np.abs(expected))


def test_second_kind_diagonal_blocks(lens):
    # identity plus a bounded kernel part: no Cauchy-type blowup anywhere,
    # and w_j |log w_j| column scaling away from the corners (corner-pair
    # entries are O(1) because the kernel grows exactly as the weights
    # shrink there)
    rule = build_rule("gauss-legendre", 64, -1, 1)
    bc = _const_bc(1.0, alpha1=1.0, alpha2=2.0)
    system = assemble(lens, bc, rule)
    n = rule.n
    w = rule.weights
    x = rule.nodes
    k = system.matrix - np.eye(2 * n)
    assert np.max(np.abs(k[:n, :n])) <= 1.5
    assert np.max(np.abs(k[n:, n:])) <= 1.5
    win = (x >= -0.8) & (x <= 0.8)
    bound = 40.0 * np.maximum(w * np.abs(np.log(w)), w)
    for block in (k[:n, :n], k[n:, n:]):
        inner = block[np.ix_(win, win)]
        assert np.all(np.abs(inner) <= bound[win][None, :])


def test_assemble_rejects_degenerate_domain():
    flat = CurveDescriptor("polynomial", (0.0,))
    dom = PlaneDomain(-1.0, 1.0, lower=flat, upper=flat)
    rule = build_rule("gauss-legendre", 16, -1, 1)
    with pytest.raises(AssemblyError):
        assemble(dom, _const_bc(1.0), rule)


def test_assemble_rejects_nan_phi_at_one_node(lens):
    rule = build_rule("gauss-legendre", 16, -1, 1)
    bad = rule.nodes[5]
    phi1 = lambda x: np.where(np.asarray(x) == bad, np.nan, 1.0)
    bc = BCSpec(1.0, 2.0, phi1, lambda x: 2.0 + 0 * np.asarray(x))
    assert np.isnan(bc.phi1(rule.nodes)).sum() == 1
    with pytest.raises(NumericError):
        assemble(lens, bc, rule)


def test_assemble_warns_on_degenerate_alpha_combination(lens):
    rule = build_rule("gauss-legendre", 16, -1, 1)
    bc = BCSpec(1.0, -1.0, lambda x: 0 * x, lambda x: 0 * x)  # 1/a1 + 1/a2 = 0
    system = assemble(lens, bc, rule)
    assert system.warnings


# ---------------------------------------------------------------------------
# compactness probe
# ---------------------------------------------------------------------------

def test_probe_identity_system(lens):
    rule = build_rule("gauss-legendre", 16, -1, 1)
    system = assemble(lens, _const_bc(1.0), rule)
    system.matrix = np.eye(2 * rule.n, dtype=complex)
    probe = compactness_probe(system)
    assert probe.ratios[5] == 0.0
    assert probe.ratios[20] == 0.0
    assert probe.condition_estimate == pytest.approx(1.0)


def test_probe_identity_system_lanczos_path(lens):
    # 2N = 128 > 3 PROBE_K: the Golub-Kahan-Lanczos probe, not the dense
    # spectrum; K = 0 breaks down at the first step
    rule = build_rule("gauss-legendre", 64, -1, 1)
    system = assemble(lens, _const_bc(1.0), rule)
    system.matrix = np.eye(2 * rule.n, dtype=complex)
    probe = compactness_probe(system)
    assert probe.ratios == {5: 0.0, 10: 0.0, 20: 0.0}
    assert np.all(probe.singular_values == 0.0)


@pytest.mark.parametrize("n", [8, 10, 16, 31, 64])
def test_probe_matches_dense_svd(lens, solutions, n):
    rule = build_rule("gauss-legendre", n, -1, 1)
    system = assemble(lens, make_bc(solutions["z2"], lens, 1.0, 2.0, rule), rule)
    sv = np.linalg.svd(system.matrix - np.eye(2 * n), compute_uv=False)
    probe = compactness_probe(system)
    k = min(PROBE_K, 2 * n)
    assert np.allclose(probe.singular_values, sv[:k], rtol=1e-12, atol=0)
    for m, ratio in probe.ratios.items():
        dense = sv[m - 1] / sv[0] if 2 * n >= m else 0.0
        assert ratio == pytest.approx(dense, rel=1e-12, abs=0)


def test_condition_estimate_within_norm_equivalence(lens, solutions):
    # LAPACK's 1-norm estimate against the 2-norm cond: for a d x d matrix the
    # two condition numbers differ by at most a factor d = 2N
    n = 64
    rule = build_rule("gauss-legendre", n, -1, 1)
    for alphas in ((1.0, 2.0), (1.0, 1.0)):
        system = assemble(lens, make_bc(solutions["z2"], lens, *alphas, rule), rule)
        estimate = compactness_probe(system).condition_estimate
        cond2 = np.linalg.cond(system.matrix)
        assert 1.0 / (2 * n) <= estimate / cond2 <= 2 * n


def test_residual_is_the_matrix_residual(lens, solutions):
    # the residual path gives matrix @ u - rhs without the matrix, for
    # perturbed traces whose residuals are O(1): a Gauss lens, a cubic with
    # complex alpha and a midpoint lens
    cases = [(lens, "gauss-legendre", 512, (1.0, 2.0)),
             (CLOSING_CUBIC, "gauss-legendre", 200, (0.7 + 0.2j, 1.5)),
             (lens, "midpoint-uniform", 96, (1.0, 2.0))]
    for domain, family, n, (a1, a2) in cases:
        rule = build_rule(family, n, domain.a1, domain.b1)
        spec = solutions["z2"]
        bc = make_bc(spec, domain, a1, a2, rule)
        system = assemble(domain, bc, rule)
        exact = make_trace(spec, domain, rule)
        rng = np.random.default_rng(n)
        u = (np.concatenate([exact.u_lower, exact.u_upper])
             + rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n))
        phi1, phi2 = bc.sample(rule.nodes)
        trace = BoundaryTrace(rule, u[:n], u[n:], phi1 - a1 * u[:n], phi2 - a2 * u[n:])
        dense = system.matrix @ u - system.rhs
        assert np.max(np.abs(dense)) >= 0.1
        err = np.max(np.abs(system.residual(trace) - dense))
        assert err <= 1e-12 * np.max(np.abs(dense)), (family, n, err)


def test_assemble_holds_only_tiles_beside_the_matrix(lens, solutions):
    # the tiles go straight into the system, the cauchy ones subtracted as
    # they come, the PV applied one row tile at a time, and the node weight
    # matrices are built in the matrix's own buffer; beside the matrix
    # assembly holds only tile-sized buffers: 1.165 matrices at this N,
    # against 1.26 while it held the whole N x N PV matrix, 1.39 (+ pv)
    # while the weight matrices were built beside it, 1.75 while it gathered
    # each N x N block of cauchy and 2.7 while the tiles were copied into a
    # dense operator bundle first
    rule = build_rule("gauss-legendre", 512, -1, 1)
    bc = make_bc(solutions["z2"], lens, 1.0, 2.0, rule)
    assemble(lens, bc, rule)  # warm-up: imports and first-call costs
    build_operators.cache_clear()  # a cached entry would hide its build
    tracemalloc.start()
    try:
        m = assemble(lens, bc, rule).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.20 * m.nbytes, peak / m.nbytes


def test_probe_singular_value_decay_stable(lens, solutions):
    ratios = {}
    conds = {}
    for n in (64, 128, 256):
        rule = build_rule("gauss-legendre", n, -1, 1)
        bc = make_bc(solutions["z2"], lens, 1.0, 2.0, rule)
        probe = compactness_probe(assemble(lens, bc, rule))
        ratios[n] = probe.ratios[20]
        conds[n] = probe.condition_estimate
    assert 0.5 <= ratios[64] / ratios[128] <= 2.0
    assert 0.5 <= ratios[128] / ratios[256] <= 2.0
    assert 0.5 <= conds[128] / conds[256] <= 2.0


def test_probe_decay_magnitude(lens, solutions):
    rule = build_rule("gauss-legendre", 128, -1, 1)
    bc = make_bc(solutions["z2"], lens, 1.0, 2.0, rule)
    probe = compactness_probe(assemble(lens, bc, rule))
    assert probe.ratios[20] <= 0.5
    assert probe.ratios[5] >= probe.ratios[10] >= probe.ratios[20]


# ---------------------------------------------------------------------------
# binary dump
# ---------------------------------------------------------------------------

def test_dump_roundtrip(tmp_path, lens):
    rule = build_rule("gauss-legendre", 12, -1, 1)
    system = assemble(lens, _const_bc(1.5 - 0.25j, 1.0, 2.0), rule)
    path = tmp_path / "system.bin"
    dump_system(system, path)
    matrix, rhs = load_system(path)
    assert np.array_equal(matrix, system.matrix)
    assert np.array_equal(rhs, system.rhs)
    raw = path.read_bytes()
    assert raw[:5] == b"CBIE1"
    assert len(raw) == 5 + 8 + 16 * (2 * 12) ** 2 + 16 * (2 * 12)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(ConfigurationError):
        load_system(path)
