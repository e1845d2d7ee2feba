import numpy as np
import pytest

from cbie.assembly import (
    BCSpec,
    assemble,
    compactness_probe,
    du_from_bc,
    dump_system,
    load_system,
)
from cbie.errors import AssemblyError, ConfigurationError, NumericError, ShapeError
from cbie.geometry import CurveDescriptor, PlaneDomain
from cbie.manufactured import canonical_solutions, make_bc, make_trace
from cbie.quadrature import build_rule


def _const_bc(c, alpha1=1.0, alpha2=1.0):
    return BCSpec(alpha1, alpha2,
                  lambda x: alpha1 * c + 0 * np.asarray(x),
                  lambda x: alpha2 * c + 0 * np.asarray(x))


def _exact_vector(spec, domain, rule):
    tr = make_trace(spec, domain, rule)
    return np.concatenate([tr.u_lower, tr.u_upper])


# ---------------------------------------------------------------------------
# boundary-data elimination
# ---------------------------------------------------------------------------

def test_du_from_bc_zero_trace():
    phi = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.array_equal(du_from_bc(np.zeros(3), 1.5, phi), phi)


def test_du_from_bc_unit_trace():
    out = du_from_bc(np.ones(4), 1.0, np.zeros(4))
    assert np.all(out == -1.0)


def test_du_from_bc_manufactured(lens):
    spec = canonical_solutions()["z2"]
    rule = build_rule("gauss-legendre", 16, -1, 1)
    tr = make_trace(spec, lens, rule)
    bc = make_bc(spec, lens, 1.0, 2.0, rule)
    phi1 = np.asarray([complex(bc.phi1(v)) for v in rule.nodes])
    du1 = du_from_bc(tr.u_lower, 1.0, phi1)
    # closed form: du/dx2 on the lower curve is 2(gamma_1 + i x1)
    x = rule.nodes
    expected = 2 * (-(1 - x * x) + 1j * x)
    assert np.allclose(du1, expected, atol=1e-13)


def test_du_from_bc_shape_error():
    with pytest.raises(ShapeError):
        du_from_bc(np.zeros(3), 1.0, np.zeros(4))


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
