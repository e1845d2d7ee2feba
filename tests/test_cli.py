import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbie import assembly, conditions, linalg, quadrature
from cbie.cli import (DEFAULT_TOLERANCES, MAX_NODES, MIN_SOLVE_NODES, TASKS, _bc, _domain,
                      _solution, main)
from cbie.errors import ConfigurationError
from cbie.lcg import Lcg
from cbie.manufactured import eval_solution

LENS_DOMAIN = {
    "a1": -1.0, "b1": 1.0,
    "lower": {"kind": "lens", "params": [-1.0]},
    "upper": {"kind": "lens", "params": [1.0]},
}


# closes at x1 = -1 and 1: gamma_2 - gamma_1 = 2 (1 - x^2)(1 + 0.2 x)
CUBIC_DOMAIN = {
    "a1": -1.0, "b1": 1.0,
    "lower": {"kind": "polynomial", "params": [-0.9, -0.1, 0.9, 0.1]},
    "upper": {"kind": "polynomial", "params": [1.1, 0.3, -1.1, -0.3]},
}
CIRCLE_DOMAIN = {
    "a1": -1.0, "b1": 1.0,
    "lower": {"kind": "ellipse-graph", "params": [1.0, -1.0]},
    "upper": {"kind": "ellipse-graph", "params": [1.0, 1.0]},
}
OPEN_DOMAIN = {
    "a1": -1.0, "b1": 1.0,
    "lower": {"kind": "polynomial", "params": [-1.0]},
    "upper": {"kind": "polynomial", "params": [1.0]},
}


def _tabulated_lens(h):
    # gamma = h (1 - x^2) through 33 equispaced points
    x = np.linspace(-1.0, 1.0, 33)
    return [*x, *(h * (1.0 - x * x))]


def _solve_cfg(domain=LENS_DOMAIN, solution=None, **rule):
    return {
        "schema_version": "1",
        "domain": copy.deepcopy(domain),
        "bc": {"alpha1": 1.0, "alpha2": 2.0,
               "phi": {"solution": solution or {"name": "z2"}}},
        "rule": {"n": 32, **rule},
    }


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def outdir(tmp_path):
    d = tmp_path / "out"
    d.mkdir()
    return d


# ---------------------------------------------------------------------------
# LCG determinism backbone
# ---------------------------------------------------------------------------

def test_lcg_reference_sequence():
    rng = Lcg(42)
    first = rng.next_u64()
    second = rng.next_u64()
    assert first == (6364136223846793005 * 42 + 1442695040888963407) % 2**64
    assert second == (6364136223846793005 * first + 1442695040888963407) % 2**64


def test_lcg_uniform_range():
    rng = Lcg(1)
    vals = [rng.uniform(-2.0, 3.0) for _ in range(1000)]
    assert all(-2.0 <= v < 3.0 for v in vals)
    assert Lcg(7).uniform() == Lcg(7).uniform()


# ---------------------------------------------------------------------------
# config handling / exit codes
# ---------------------------------------------------------------------------

def test_malformed_json_exits_2(tmp_path, outdir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1",,}', encoding="utf-8")
    code = main(["kernel-check", "--config", str(bad), "--out", str(outdir)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_config_file_exits_2(tmp_path, outdir):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(outdir)]) == 2


def test_missing_key_named_in_diagnostic(tmp_path, outdir, capsys):
    cfg = _write(tmp_path / "c.json",
                 {"schema_version": "1", "domain": LENS_DOMAIN,
                  "rule": {"n": 16}})
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 2
    assert "'bc'" in capsys.readouterr().err


def test_task_mismatch_exits_2(tmp_path, outdir):
    cfg = _write(tmp_path / "c.json", {"schema_version": "1", "task": "solve"})
    assert main(["kernel-check", "--config", cfg, "--out", str(outdir)]) == 2


def test_bad_schema_version_exits_2(tmp_path, outdir):
    cfg = _write(tmp_path / "c.json", {"schema_version": "99"})
    assert main(["kernel-check", "--config", cfg, "--out", str(outdir)]) == 2


def test_solve_requires_n_at_least_8(tmp_path, outdir):
    cfg = _write(tmp_path / "c.json", {
        "schema_version": "1", "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z"}}},
        "rule": {"n": 4},
    })
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 2


def _constant_phi(tmp):
    """A valid tabulated phi file: constant data on [-1, 1]."""
    return _write(tmp / "phi.json", {"x": [-1.0, 0.0, 1.0],
                                     "phi1": [[1.0, 0.0]] * 3, "phi2": [[2.0, 0.0]] * 3})


@pytest.mark.parametrize("task,key,spoil", [
    pytest.param("solve", "domain.lower",
                 lambda cfg, tmp: cfg["domain"]["lower"].update(kind="spline"),
                 id="unknown-curve-kind"),
    pytest.param("solve", "bc.phi.tabulated", lambda cfg, tmp: cfg["bc"].update(
        phi={"tabulated": str(tmp / "no_such_phi.json")}), id="missing-tabulated-file"),
    pytest.param("solve", "bc.phi.tabulated",
                 lambda cfg, tmp: cfg["bc"].update(phi={"tabulated": 0}),
                 id="tabulated-not-a-path"),
    # with both keys, solve exited 0 on the solution and never read the file
    pytest.param("solve", "bc.phi", lambda cfg, tmp: cfg["bc"].update(
        phi={"solution": {"name": "z2"}, "tabulated": str(tmp / "no_such_phi.json")}),
        id="solution-and-tabulated"),
    pytest.param("solve", "bc.phi", lambda cfg, tmp: cfg["bc"].update(phi={}),
                 id="neither-solution-nor-tabulated"),
    pytest.param("solve", "bc.alpha1", lambda cfg, tmp: cfg["bc"].update(alpha1="x"),
                 id="alpha1-text"),
    pytest.param("solve", "bc.alpha1", lambda cfg, tmp: cfg["bc"].update(alpha1="1+0j"),
                 id="alpha1-complex-text"),
    pytest.param("solve", "domain.upper.params",
                 lambda cfg, tmp: cfg["domain"]["upper"].update(params="2"),
                 id="params-text"),
    pytest.param("solve", "domain.lower.kind",
                 lambda cfg, tmp: cfg["domain"]["lower"].pop("kind"),
                 id="missing-curve-kind"),
    pytest.param("solve", "rule.n", lambda cfg, tmp: cfg["rule"].update(n="abc"), id="n-text"),
    pytest.param("solve", "domain.a1", lambda cfg, tmp: cfg["domain"].update(a1="abc"),
                 id="a1-text"),
    pytest.param("solve", "tolerances.cond_threshold",
                 lambda cfg, tmp: cfg.update(tolerances={"cond_threshold": "abc"}),
                 id="tolerance-text"),
    pytest.param("pv-check", "rule.levels", lambda cfg, tmp: cfg.update(rule={"levels": ["x"]}),
                 id="levels-text"),
    pytest.param("convergence", "rule.levels",
                 lambda cfg, tmp: cfg.update(rule={"levels": [64, 32]}),
                 id="levels-decreasing-convergence"),
    pytest.param("nc-verify", "rule.levels",
                 lambda cfg, tmp: cfg.update(rule={"levels": [64, 32]}),
                 id="levels-decreasing-nc-verify"),
    pytest.param("convergence", "rule.levels",
                 lambda cfg, tmp: cfg.update(rule={"levels": [2, 4]}),
                 id="levels-below-solve-minimum"),
    # the midpoint PV rows' one-sided end stencils read three nodes
    pytest.param("nc-verify", "rule.levels",
                 lambda cfg, tmp: cfg.update(rule={"family": "midpoint-uniform",
                                                   "levels": [2, 4]}),
                 id="midpoint-levels-below-stencil"),
    pytest.param("nc-verify", "conditions", lambda cfg, tmp: cfg.update(conditions=["eq99"]),
                 id="unknown-condition"),
    pytest.param("nc-verify", "conditions", lambda cfg, tmp: cfg.update(conditions="eq8"),
                 id="conditions-not-a-list"),
    pytest.param("convergence", "tolerances.window_delta",
                 lambda cfg, tmp: cfg.update(tolerances={"window_delta": 1.5}),
                 id="empty-window-convergence"),
    pytest.param("nc-verify", "tolerances.window_delta",
                 lambda cfg, tmp: cfg.update(tolerances={"window_delta": 1.5}),
                 id="empty-window-nc-verify"),
    pytest.param("convergence", "tolerances.window_delta",
                 lambda cfg, tmp: cfg.update(tolerances={"window_delta": -0.1}),
                 id="negative-window-convergence"),
    pytest.param("nc-verify", "tolerances.window_delta",
                 lambda cfg, tmp: cfg.update(tolerances={"window_delta": -0.1}),
                 id="negative-window-nc-verify"),
    # beyond MAX_NODES the 2N x 2N system alone would take over 1 GiB
    pytest.param("solve", "rule.n", lambda cfg, tmp: cfg["rule"].update(n=10**400),
                 id="n-huge"),
    pytest.param("solve", "rule.n", lambda cfg, tmp: cfg["rule"].update(n=MAX_NODES + 1),
                 id="n-above-cap"),
    pytest.param("convergence", "rule.levels",
                 lambda cfg, tmp: cfg.update(rule={"levels": [64, 10**400]}),
                 id="levels-huge"),
    pytest.param("nc-verify", "rule.levels",
                 lambda cfg, tmp: cfg.update(rule={"levels": [64, MAX_NODES + 1]}),
                 id="levels-above-cap"),
    pytest.param("solve", "rule", lambda cfg, tmp: cfg.update(rule=5), id="rule-not-object"),
    pytest.param("solve", "tolerances", lambda cfg, tmp: cfg.update(tolerances=[1]),
                 id="tolerances-not-object"),
    pytest.param("solve", "bc", lambda cfg, tmp: cfg.update(bc=5), id="bc-not-object"),
    pytest.param("kernel-check", "points", lambda cfg, tmp: cfg.update(points=0),
                 id="no-points"),
    pytest.param("pv-check", "rule.levels",
                 lambda cfg, tmp: cfg.update(rule={"levels": [16, 32]}),
                 id="levels-below-pv-gate"),
    pytest.param("kernel-check", "points", lambda cfg, tmp: cfg.update(points=2.5),
                 id="points-fraction"),
    pytest.param("kernel-check", "points", lambda cfg, tmp: cfg.update(points=True),
                 id="points-boolean"),
    pytest.param("solve", "rule.n", lambda cfg, tmp: cfg["rule"].update(n=16.5),
                 id="n-fraction"),
    pytest.param("solve", "seed", lambda cfg, tmp: cfg.update(seed=1.5), id="seed-fraction"),
    pytest.param("solve", "bc.phi.solution.name",
                 lambda cfg, tmp: cfg["bc"]["phi"]["solution"].update(name=[1]),
                 id="solution-name-list"),
    pytest.param("solve", "bc.phi.solution.name",
                 lambda cfg, tmp: cfg["bc"]["phi"]["solution"].update(name={}),
                 id="solution-name-object"),
    pytest.param("solve", "bc.phi.solution.f_coeffs",
                 lambda cfg, tmp: cfg["bc"]["phi"].update(solution={"f_coeffs": 3}),
                 id="f-coeffs-not-a-list"),
    pytest.param("solve", "bc.phi.solution.name",
                 lambda cfg, tmp: cfg["bc"]["phi"]["solution"].update(name="nope"),
                 id="unknown-solution-name"),
    pytest.param("solve", "bc.alpha1", lambda cfg, tmp: cfg["bc"].update(alpha1=0),
                 id="alpha1-zero"),
    pytest.param("solve", "bc.alpha2", lambda cfg, tmp: cfg["bc"].update(alpha2=[0, 0]),
                 id="alpha2-zero"),
    pytest.param("solve", "rule.family",
                 lambda cfg, tmp: cfg["rule"].update(family="simpson"), id="unknown-family"),
    pytest.param("nc-verify", "rule.family",
                 lambda cfg, tmp: cfg.update(rule={"family": "simpson"}),
                 id="unknown-family-nc-verify"),
    pytest.param("solve", "'bc.alpha1'", lambda cfg, tmp: cfg["bc"].pop("alpha1"),
                 id="missing-alpha1"),
    pytest.param("solve", "'rule.n'", lambda cfg, tmp: cfg["rule"].pop("n"), id="missing-n"),
    pytest.param("nc-verify", "tolerances.sup_residual",
                 lambda cfg, tmp: cfg.update(tolerances={"sup_residual": float("nan")}),
                 id="tolerance-nan"),
    pytest.param("nc-verify", "tolerances.sup_residual",
                 lambda cfg, tmp: cfg.update(tolerances={"sup_residual": "nan"}),
                 id="tolerance-nan-text"),
    pytest.param("solve", "tolerances.cond_threshold",
                 lambda cfg, tmp: cfg.update(tolerances={"cond_threshold": float("inf")}),
                 id="tolerance-inf"),
    pytest.param("solve", "bc.phi.solution.f_coefs",
                 lambda cfg, tmp: cfg["bc"]["phi"].update(
                     solution={"name": "z2", "f_coefs": [0, 0, 1]}),
                 id="solution-unknown-key"),
    pytest.param("nc-verify", "bc.phi.solution.f_coefs",
                 lambda cfg, tmp: cfg["bc"]["phi"].update(
                     solution={"name": "z2", "f_coefs": [0, 0, 1]}),
                 id="solution-unknown-key-nc-verify"),
    pytest.param("nc-verify", "tolerances.sup_residual",
                 lambda cfg, tmp: cfg.update(tolerances={"sup_residual": True}),
                 id="tolerance-boolean"),
    pytest.param("solve", "bc.alpha1", lambda cfg, tmp: cfg["bc"].update(alpha1=True),
                 id="alpha1-boolean"),
    pytest.param("solve", "bc.phi.solution.g_coeffs",
                 lambda cfg, tmp: cfg["bc"]["phi"].update(solution={"g_coeffs": [0, [1, True]]}),
                 id="coefficient-boolean"),
    pytest.param("nc-verify", "tolerances.min_ratio",
                 lambda cfg, tmp: cfg.update(tolerances={"min_ratio": False}),
                 id="min-ratio-boolean"),
    pytest.param("nc-verify", "tolerances.min_ratio",
                 lambda cfg, tmp: cfg.update(tolerances={"min_ratio": 0}),
                 id="min-ratio-zero"),
    pytest.param("nc-verify", "tolerances.min_ratio",
                 lambda cfg, tmp: cfg.update(tolerances={"min_ratio": -1.0}),
                 id="min-ratio-negative"),
    pytest.param("convergence", "bc.phi.solution",
                 lambda cfg, tmp: cfg["bc"].update(phi={"tabulated": _constant_phi(tmp)}),
                 id="tabulated-convergence"),
    pytest.param("nc-verify", "bc.phi.solution",
                 lambda cfg, tmp: cfg["bc"].update(phi={"tabulated": _constant_phi(tmp)}),
                 id="tabulated-nc-verify"),
    # a 33-point tabulated lens: solve exited 0 with pass true at N = 64
    # and 256, while convergence showed trace errors of 12.7, 0.83 and 2.6
    pytest.param("solve", "domain.upper",
                 lambda cfg, tmp: cfg["domain"].update(upper={"kind": "tabulated",
                                                              "params": _tabulated_lens(1.0)}),
                 id="tabulated-curve"),
    pytest.param("convergence", "domain.lower",
                 lambda cfg, tmp: cfg["domain"].update(lower={"kind": "tabulated",
                                                              "params": _tabulated_lens(-1.0)}),
                 id="tabulated-curve-convergence"),
])
def test_bad_value_exits_2_naming_key(tmp_path, outdir, capsys, task, key, spoil):
    cfg = _solve_cfg()
    spoil(cfg, tmp_path)
    path = _write(tmp_path / "c.json", cfg)
    assert main([task, "--config", path, "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert key in err


# A small valid config for every task: the lens, rule.n 16, levels 16/32/64.
SMALL_CONFIG = {
    "schema_version": "1",
    "seed": 3,
    "points": 3,
    "domain": LENS_DOMAIN,
    "bc": {"alpha1": 1.0, "alpha2": 2.0,
           "phi": {"solution": {"name": "quad", "f_coeffs": [0.0, 0.0, 1.0]}}},
    "rule": {"family": "gauss-legendre", "n": 16, "levels": [16, 32, 64]},
    "conditions": ["eq8", "eq10"],
    "tolerances": {"sup_residual": 1e-3, "min_ratio": 2.0},
}


@pytest.mark.parametrize("task,spoil", [
    pytest.param("kernel-check", {"annih_tol": 1e-300}, id="kernel-check"),
    pytest.param("pv-check", {"pv_analytic_tol": 1e-300, "pv_exp_tol": 1e-300}, id="pv-check"),
    pytest.param("nc-verify", {"sup_residual": 1e-300}, id="nc-verify"),
    # a condition estimate above cond_threshold takes the least-squares fallback
    pytest.param("solve", {"cond_threshold": 1.0}, id="solve"),
    pytest.param("convergence", {"cond_threshold": 1.0}, id="convergence"),
])
@pytest.mark.parametrize("passing,seed_args,seed", [(True, [], 3), (False, ["--seed", "7"], 7)],
                         ids=["passing", "failing"])
def test_exit_status_is_the_report_gate(tmp_path, outdir, task, spoil, passing, seed_args,
                                        seed):
    cfg = copy.deepcopy(SMALL_CONFIG)
    if not passing:
        cfg["tolerances"].update(spoil)
    status = main([task, "--config", _write(tmp_path / "c.json", cfg),
                   "--out", str(outdir), *seed_args])
    (report,) = outdir.glob("*.json")
    payload = json.loads(report.read_text())
    assert payload["schema_version"] == "1"
    assert payload["seed"] == seed
    assert payload["pass"] is passing
    assert status == (0 if payload["pass"] else 1)


def _leaf_paths(node, path=()):
    if isinstance(node, dict) and node:
        items = node.items()
    elif isinstance(node, list) and node:
        items = enumerate(node)
    else:  # a scalar, or an empty block or list
        return [path]
    return [leaf for key, child in items for leaf in _leaf_paths(child, path + (key,))]


def _leaf(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _set_leaf(cfg, path, value):
    _leaf(cfg, path[:-1])[path[-1]] = value


# small values only: a large rule.n would allocate a huge matrix
LEAF_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0.5, -0.5, float("nan"), float("inf"),
                     "x", "1", "1e-3", [], [1, 2], {}]),
    st.integers(min_value=-2, max_value=40))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(task=st.sampled_from(sorted(TASKS)),
       path=st.sampled_from(_leaf_paths(SMALL_CONFIG)),
       value=LEAF_VALUES)
def test_mutated_leaf_exits_cleanly(tmp_path_factory, task, path, value):
    cfg = copy.deepcopy(SMALL_CONFIG)
    _set_leaf(cfg, path, value)
    tmp = tmp_path_factory.mktemp("mutated")
    config = _write(tmp / "c.json", cfg)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main([task, "--config", config, "--out", str(tmp / "out")])
    assert status in (0, 1, 2, 3)
    if status == 2:
        assert err.getvalue().startswith("configuration error:")
        assert path[0] in err.getvalue()


def _alpha_pairs(alpha1, factor):
    """(alpha1, alpha2): an independent alpha2, or alpha2 = factor alpha1,
    factor near 1 (resonance: equal constants make exp(-alpha z) a
    homogeneous solution) or near -1 (1/alpha1 + 1/alpha2 near 0)."""
    return st.one_of(st.builds(lambda a: (alpha1, a), ALPHAS),
                     st.just((alpha1, _scale(alpha1, factor))))


def _scale(alpha, factor):
    if isinstance(alpha, list):
        return [alpha[0] * factor, alpha[1] * factor]
    return alpha * factor


def _alpha(exponent, turn, is_complex):
    # a real alpha takes the sign of cos(2 pi turn); a complex one is [re, im]
    size = 10.0 ** exponent
    if not is_complex:
        return math.copysign(size, math.cos(2 * math.pi * turn))
    return [size * math.cos(2 * math.pi * turn), size * math.sin(2 * math.pi * turn)]


ALPHAS = st.builds(_alpha, st.floats(-12.0, 8.0), st.floats(0.0, 1.0), st.booleans())
DOMAINS = st.one_of(
    st.floats(0.3, 2.0).map(lambda h: {
        "a1": -1.0, "b1": 1.0,
        "lower": {"kind": "lens", "params": [-h]},
        "upper": {"kind": "lens", "params": [h]}}),
    # closes at x1 = -1 and 1: gamma_2 = (1 - x^2)(p0 + p1 x), gamma_1 = -(1 - x^2)(q0 + q1 x)
    st.tuples(st.floats(0.5, 1.5), st.floats(-0.6, 0.6),
              st.floats(0.5, 1.5), st.floats(-0.6, 0.6)).map(lambda c: {
        "a1": -1.0, "b1": 1.0,
        "lower": {"kind": "polynomial",
                  "params": [-c[2], -c[2] * c[3], c[2], c[2] * c[3]]},
        "upper": {"kind": "polynomial",
                  "params": [c[0], c[0] * c[1], -c[0], -c[0] * c[1]]}}))


@st.composite
def solve_configs(draw):
    factor = (draw(st.sampled_from([1.0, -1.0]))
              * (1.0 + draw(st.sampled_from([0.0, 1e-12, -1e-9, 1e-6, -1e-3]))))
    alpha1, alpha2 = draw(_alpha_pairs(draw(ALPHAS), factor))
    return {
        "schema_version": "1",
        "domain": draw(DOMAINS),
        "bc": {"alpha1": alpha1, "alpha2": alpha2,
               "phi": {"solution": {"name": draw(st.sampled_from(["z", "z2", "exp_half"]))}}},
        "rule": {"n": draw(st.integers(8, 64)),
                 "family": draw(st.sampled_from(["gauss-legendre", "midpoint-uniform"]))},
    }


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@example(cfg=dict(_solve_cfg(n=64), bc={"alpha1": 1e-9, "alpha2": 2.0,
                                         "phi": {"solution": {"name": "z2"}}}))
@given(cfg=solve_configs())
def test_accepted_solve_config_exits_cleanly(tmp_path_factory, cfg):
    _assert_exits_cleanly(tmp_path_factory, "solve", cfg)


def _assert_exits_cleanly(tmp_path_factory, task, cfg):
    # an accepted config converges (0), fails a gate (1) or a numeric check
    # (3), or is rejected naming one of its keys (2): never a traceback
    tmp = tmp_path_factory.mktemp(task)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main([task, "--config", _write(tmp / "c.json", cfg),
                       "--out", str(tmp / "out")])
    assert status in (0, 1, 2, 3)
    if status == 2:
        keys = {".".join(map(str, path[:i])) for path in _leaf_paths(cfg)
                for i in range(1, len(path) + 1)}
        assert any(re.search(rf"\b{re.escape(key)}\b", err.getvalue()) for key in keys)
    if status == 0:
        assert json.loads((tmp / "out" / TASKS[task][1]).read_text())["pass"] is True


@st.composite
def ladder_configs(draw):
    """nc-verify and convergence configs: a solve config's domain, constants
    and data on a ladder of one to three levels of at most 64 nodes, one in
    five starting below a solve's smallest rule, with or without a condition
    subset and a window."""
    cfg = draw(solve_configs())
    del cfg["rule"]["n"]
    levels = draw(st.sets(st.integers(MIN_SOLVE_NODES, 64), min_size=1, max_size=3))
    if draw(st.integers(0, 4)) == 4:
        levels.add(draw(st.integers(2, MIN_SOLVE_NODES - 1)))
    cfg["rule"]["levels"] = sorted(levels)
    if draw(st.booleans()):
        cfg["conditions"] = draw(st.lists(st.sampled_from(conditions.CONDITION_IDS), min_size=1,
                                          max_size=len(conditions.CONDITION_IDS), unique=True))
    if draw(st.booleans()):
        cfg["tolerances"] = {"window_delta": draw(st.one_of(st.none(), st.floats(0.0, 1.2)))}
    return cfg


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(task=st.sampled_from(["nc-verify", "convergence"]), cfg=ladder_configs())
def test_accepted_ladder_config_exits_cleanly(tmp_path_factory, task, cfg):
    _assert_exits_cleanly(tmp_path_factory, task, cfg)


# numbers of either sign from 1e-300 to 1e300, and values of no number type
MAGNITUDES = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-300.0, 300.0),
                       st.sampled_from([1.0, -1.0]))
CONFUSED = st.one_of(MAGNITUDES, st.sampled_from(
    [None, True, False, float("nan"), float("inf"), "x", "1", "1e-3", [], [1, 2], {}]))


@st.composite
def check_configs(draw):
    """kernel-check and pv-check configs: 1 to 5 points (the kernel oracle
    runs one adaptive quadrature per point), a seed anywhere in and beyond
    64 bits, a ladder of one to four levels of at most 64 nodes of either
    family, three in four reaching the gated 64 and one in five starting
    below pv-check's smallest level, tolerances from 1e-300 to 1e300, and
    in one draw of three a leaf of the wrong type or size."""
    levels = draw(st.sets(st.integers(2, 64), min_size=1, max_size=4))
    if draw(st.sampled_from([True, True, True, False])):
        levels.add(64)
    if draw(st.integers(0, 4)) == 4:
        levels.add(1)
    cfg = {"schema_version": "1",
           "seed": draw(st.integers(-2 ** 70, 2 ** 70)),
           "points": draw(st.integers(1, 5)),
           "rule": {"family": draw(st.sampled_from(["gauss-legendre", "midpoint-uniform"])),
                    "levels": sorted(levels)}}
    if draw(st.booleans()):
        cfg["tolerances"] = draw(st.dictionaries(st.sampled_from(sorted(DEFAULT_TOLERANCES)),
                                                 MAGNITUDES, min_size=1, max_size=3))
    if draw(st.integers(0, 2)) == 2:
        _set_leaf(cfg, draw(st.sampled_from(_leaf_paths(cfg))), draw(CONFUSED))
    return cfg


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(task=st.sampled_from(["kernel-check", "pv-check"]), cfg=check_configs())
def test_accepted_check_config_exits_cleanly(tmp_path_factory, task, cfg):
    _assert_exits_cleanly(tmp_path_factory, task, cfg)


# Every numeric leaf that solve reads: the domain, the boundary constants,
# rule.n, each tolerance and the seed.
NUMERIC_CFG = dict(_solve_cfg(), seed=42,
                   tolerances=dict(DEFAULT_TOLERANCES, window_delta=0.2))
NUMERIC_LEAVES = [path for path in _leaf_paths(NUMERIC_CFG)
                  if type(_leaf(NUMERIC_CFG, path)) in (int, float)]


def _run(task, cfg, tmp_path, outdir, capsys):
    """(exit status, stderr) of task run on cfg."""
    status = main([task, "--config", _write(tmp_path / "c.json", cfg), "--out", str(outdir)])
    return status, capsys.readouterr().err


def test_numeric_leaves_config_solves(tmp_path, outdir, capsys):
    assert len(NUMERIC_LEAVES) == 18
    assert _run("solve", NUMERIC_CFG, tmp_path, outdir, capsys)[0] == 0


@pytest.mark.parametrize("mutate", [lambda v: True, str], ids=["boolean", "text"])
@pytest.mark.parametrize("path", NUMERIC_LEAVES, ids=lambda p: ".".join(map(str, p)))
def test_numeric_leaf_takes_only_json_numbers(tmp_path, outdir, capsys, path, mutate):
    cfg = copy.deepcopy(NUMERIC_CFG)
    _set_leaf(cfg, path, mutate(_leaf(cfg, path)))
    status, err = _run("solve", cfg, tmp_path, outdir, capsys)
    assert status == 2
    assert err.startswith("configuration error:")
    assert ".".join(k for k in path if isinstance(k, str)) in err


@pytest.mark.parametrize("path", [("tolerances", "sup_residual"), ("bc", "alpha1"),
                                  ("bc", "alpha2", 1), ("domain", "a1")],
                         ids=lambda p: ".".join(map(str, p)))
def test_huge_integer_exits_2(tmp_path, outdir, capsys, path):
    cfg = copy.deepcopy(NUMERIC_CFG)
    cfg["bc"]["alpha2"] = [2.0, 0.0]
    _set_leaf(cfg, path, 10**400)  # 401 digits: beyond the float range
    status, err = _run("solve", cfg, tmp_path, outdir, capsys)
    assert status == 2
    assert err.startswith("configuration error:")
    assert ".".join(path[:2]) in err
    assert "Traceback" not in err


def test_dump_system_takes_only_booleans(tmp_path, outdir, capsys):
    status, err = _run("solve", dict(_solve_cfg(), dump_system="no"), tmp_path, outdir, capsys)
    assert status == 2
    assert "dump_system" in err
    assert not list(outdir.iterdir())


@pytest.mark.parametrize("path", [("dump_sytem",), ("domain", "a2"), ("rule", "familly"),
                                  ("bc", "alpha12"), ("domain", "lower", "kindd"),
                                  ("bc", "phi", "tabulatd"), ("tolerances", "cond_treshold")],
                         ids=".".join)
def test_unknown_key_exits_2_naming_its_path(tmp_path, outdir, capsys, path):
    # a misspelt key would otherwise be ignored: the run would exit 0 having
    # run something other than what was written
    cfg = dict(_solve_cfg(), tolerances={})
    _set_leaf(cfg, path, 0.5)
    status, err = _run("solve", cfg, tmp_path, outdir, capsys)
    assert status == 2
    assert err.startswith(f"configuration error: {'.'.join(path)}: unknown key")
    assert not list(outdir.iterdir())


@pytest.mark.parametrize("version", [None, 1], ids=["missing", "integer"])
def test_schema_version_must_be_the_string_1(tmp_path, outdir, capsys, version):
    cfg = {"points": 3} if version is None else {"schema_version": version, "points": 3}
    status, err = _run("kernel-check", cfg, tmp_path, outdir, capsys)
    assert status == 2
    assert err.startswith("configuration error:")
    assert "schema_version" in err


def test_domain_reader_roundtrip():
    dom = _domain({"domain": LENS_DOMAIN})
    assert dom.contains(0.0, 0.5)
    assert not dom.contains(0.0, 1.5)
    with pytest.raises(ConfigurationError, match="domain.lower"):
        _domain({"domain": {"a1": -1.0, "b1": 1.0}})


def test_solution_reader_named():
    spec = _solution({"name": "z2_plus_cubic"})
    assert spec.name == "z2_plus_cubic"
    with pytest.raises(ConfigurationError, match="bc.phi.solution.name"):
        _solution({"name": "nope"})


def test_solution_reader_custom():
    spec = _solution({"f_coeffs": [[0.0, 0.0], [1.0, 0.5]], "g_coeffs": [2.0]})
    u, _, _ = eval_solution(spec, 0.0, 1.0)
    assert u == pytest.approx((1 + 0.5j) * 1.0 + 2.0)


@pytest.mark.parametrize("task", list(TASKS))
def test_help_lists_only_config_out_seed(capsys, task):
    with pytest.raises(SystemExit) as exc:
        main([task, "--help"])
    assert exc.value.code == 0
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert options == {"--help", "--config", "--out", "--seed"}


@pytest.mark.parametrize("task", ["solve", "convergence"])
def test_open_contour_exits_2(tmp_path, outdir, capsys, task):
    cfg = _write(tmp_path / "c.json", _solve_cfg(OPEN_DOMAIN, levels=[16, 32]))
    assert main([task, "--config", cfg, "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "domain is not a closed contour" in err
    assert not list(outdir.iterdir())


@pytest.mark.parametrize("domain", [LENS_DOMAIN, CUBIC_DOMAIN])
def test_closed_contours_accepted(tmp_path, outdir, domain):
    cfg = _write(tmp_path / "c.json", _solve_cfg(domain))
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 0


def test_least_squares_fallback_is_named_in_warnings(tmp_path, outdir):
    # equal boundary constants are resonant: the solve falls back to least
    # squares, whose traces can be wrong, so it exits 1 and its report says why
    cfg = _solve_cfg(n=128)
    cfg["bc"]["alpha2"] = 1.0
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg),
                 "--out", str(outdir)]) == 1
    report = json.loads((outdir / "solve_report.json").read_text())
    assert report["pass"] is False
    assert report["method"] == "least-squares-fallback"
    (warning,) = [w for w in report["warnings"] if "least-squares fallback" in w]
    assert f"{report['condition_estimate']:.3g}" in warning
    assert f"cond_threshold {DEFAULT_TOLERANCES['cond_threshold']:.3g}" in warning


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_boundary_data_exits_3(tmp_path, outdir, capsys):
    # exp(800 z) overflows where the upper lens rises above x2 = 709/800
    cfg = _write(tmp_path / "c.json",
                 _solve_cfg(solution={"name": "steep", "f_exp_scale": 800.0}))
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 3
    assert "boundary data non-finite" in capsys.readouterr().err


def test_memory_error_exits_3(tmp_path, outdir, capsys, monkeypatch):
    import cbie.cli

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB")

    monkeypatch.setattr(cbie.cli, "assemble", no_memory)
    status, err = _run("solve", _solve_cfg(), tmp_path, outdir, capsys)
    assert status == 3
    assert err.startswith("numeric failure:")
    assert "Traceback" not in err


@pytest.mark.parametrize("task", ["nc-verify", "convergence"])
def test_ladder_builds_each_rule_once(tmp_path, outdir, capsys, monkeypatch, task):
    import cbie.cli

    original = cbie.cli.build_rule
    built = []

    def counting(family, n, a, b):
        built.append(n)
        return original(family, n, a, b)

    monkeypatch.setattr(cbie.cli, "build_rule", counting)
    cfg = dict(_solve_cfg(levels=[64, 128]), tolerances={"window_delta": 0.25})
    assert _run(task, cfg, tmp_path, outdir, capsys)[0] == 0
    assert built == [64, 128]


def test_solve_assembles_once(tmp_path, outdir, monkeypatch):
    import cbie.assembly
    import cbie.cli
    import cbie.solver

    original = cbie.assembly.assemble
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cbie.assembly, cbie.solver, cbie.cli):
        if getattr(module, "assemble", None) is original:
            monkeypatch.setattr(module, "assemble", counting)
    cfg = _write(tmp_path / "c.json", dict(_solve_cfg(), dump_system=True))
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 0
    assert len(calls) == 1


def test_solve_factorizes_once_and_runs_no_full_svd(tmp_path, outdir, monkeypatch):
    calls = {"cond": 0, "getrf": 0}
    svd_args = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def svd(a, *args, svd=np.linalg.svd, **kwargs):
        svd_args.append((a.dtype, a.shape))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
    getrf, gecon, getrs = linalg._lapack()
    in_place = []

    def factor_in_place(a):
        lu, piv, info = getrf(a)
        in_place.append(np.shares_memory(lu, a))
        return lu, piv, info

    lapack = (counting("getrf", factor_in_place), gecon, getrs)
    monkeypatch.setattr(linalg, "_lapack", lambda: lapack)
    cfg = _write(tmp_path / "c.json", _solve_cfg())
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 0
    assert calls == {"cond": 0, "getrf": 1}
    assert in_place == [True]  # the factors are written over the matrix
    # the probe's checks take the SVD of its real bidiagonal B, of order at
    # most 10 PROBE_K; none is of the complex system
    assert all(dtype == np.float64 and max(shape) <= 10 * linalg.PROBE_K
               for dtype, shape in svd_args), svd_args


@pytest.mark.parametrize("alphas", [(1e-8, 2.0), (1e-10, 2.0), (1.0, 1e-8)])
def test_solve_with_values_spanning_many_decades_falls_back(tmp_path, outdir, alphas):
    # the condition estimate passes cond_threshold: the least-squares
    # fallback, exit 1 and a full report, after the probe has run
    cfg = _solve_cfg(n=64)
    cfg["bc"].update(alpha1=alphas[0], alpha2=alphas[1])
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg),
                 "--out", str(outdir)]) == 1
    report = json.loads((outdir / "solve_report.json").read_text())
    assert report["method"] == "least-squares-fallback" and report["pass"] is False
    assert 0.0 < report["singular_value_ratios"]["20"] < report["singular_value_ratios"]["5"]


def test_dump_holds_the_unfactored_system(tmp_path, outdir):
    # the solve factors the matrix in place: the dump must be written from
    # the matrix as assembled, not from its factors
    cfg = dict(_solve_cfg(n=64), dump_system=True)
    assert main(["solve", "--config", _write(tmp_path / "c.json", cfg),
                 "--out", str(outdir)]) == 0
    matrix, rhs = assembly.load_system(outdir / "system.bin")
    domain = _domain(cfg)
    rule = quadrature.build_rule("gauss-legendre", 64, domain.a1, domain.b1)
    system = assembly.assemble(domain, _bc(cfg, domain)[0], rule)
    assert np.array_equal(matrix, system.matrix)
    assert np.array_equal(rhs, system.rhs)


def _fresh_python(code: str) -> str:
    """Standard output of code run in a fresh interpreter importing this cbie."""
    import cbie

    src = str(Path(cbie.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_cli_import_leaves_edge_case_scipy_modules_unloaded():
    # only bc.phi.tabulated data need scipy.interpolate, and only the kernel
    # oracle needs scipy.integrate; the CLI imports neither up front
    code = ("import sys, cbie.cli; print([m for m in ('scipy.interpolate', "
            "'scipy.integrate') if m in sys.modules])")
    assert _fresh_python(code) == "[]"


def test_verify_tasks_load_no_scipy_and_solve_does(tmp_path):
    # nc-verify and pv-check only build operators and take residuals; solve
    # and convergence do the dense factorization, with numpy's own LAPACK, so
    # no task loads scipy (on a numpy build without that library the LU comes
    # from scipy.linalg, which solve then loads)
    nc_cfg = _write(tmp_path / "nc.json", dict(_solve_cfg(), rule={"levels": [64, 128]}))
    pv_cfg = _write(tmp_path / "pv.json", {"schema_version": "1"})
    solve_cfg = _write(tmp_path / "solve.json", _solve_cfg(n=64))
    conv_cfg = _write(tmp_path / "conv.json", dict(_solve_cfg(), rule={"levels": [32, 64]}))
    out = str(tmp_path / "out")
    code = (
        "import json, sys\n"
        "from cbie.cli import main\n"
        f"status = [main(['nc-verify', '--config', {nc_cfg!r}, '--out', {out!r}]),\n"
        f"          main(['pv-check', '--config', {pv_cfg!r}, '--out', {out!r}])]\n"
        "before = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        f"status.append(main(['solve', '--config', {solve_cfg!r}, '--out', {out!r}]))\n"
        f"status.append(main(['convergence', '--config', {conv_cfg!r}, '--out', {out!r}]))\n"
        "after = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(json.dumps([status, before, after]))\n")
    status, before, after = json.loads(_fresh_python(code))
    assert status == [0, 0, 0, 0]
    assert before == []
    if linalg._numpy_openblas() is not None:
        assert after == []
    else:
        assert "scipy.linalg" in after


def test_solve_loads_no_scipy_sparse(tmp_path):
    # the spectrum probe is numpy Lanczos: a solve needs nothing from
    # scipy.sparse, and with numpy's own LAPACK nothing from scipy at all
    cfg = _write(tmp_path / "solve.json", _solve_cfg(n=64))
    out = str(tmp_path / "out")
    code = (
        "import json, sys\n"
        "from cbie.cli import main\n"
        f"status = main(['solve', '--config', {cfg!r}, '--out', {out!r}])\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n")
    status, modules = json.loads(_fresh_python(code))
    assert status == 0
    assert not [m for m in modules if m.startswith("scipy.sparse")]
    if linalg._numpy_openblas() is not None:
        assert modules == []


# the peak resident set of the interpreter that runs it, in KB
_PRINT_PEAK_KB = ("print(next(int(line.split()[1]) for line in open('/proc/self/status')"
                  " if line.startswith('VmHWM:')))\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cold_solve_holds_little_beside_the_matrix(tmp_path):
    # beside the 2N x 2N matrix a cold solve holds tile-sized buffers, pv
    # for one product and the probe's bases: its peak over an interpreter
    # that only imports the CLI is 1.26 matrices at N = 1024, against 1.34
    # while the weight matrices were built outside the matrix and left their
    # heap behind, and 1.97 while assembly held a block of cauchy, pv and
    # the weight matrices at once.  Each child reads its own VmHWM:
    # ru_maxrss would carry this process's peak across fork and exec.
    n = 1024
    cfg = _write(tmp_path / "solve.json", _solve_cfg(n=n))
    out = str(tmp_path / "out")
    base = int(_fresh_python("import cbie.cli\n" + _PRINT_PEAK_KB))
    peak = int(_fresh_python(
        "from cbie.cli import main\n"
        f"assert main(['solve', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
        + _PRINT_PEAK_KB))
    matrix = 16 * (2 * n) ** 2
    assert 1024 * (peak - base) <= 1.31 * matrix, 1024 * (peak - base) / matrix


# ---------------------------------------------------------------------------
# tasks end to end
# ---------------------------------------------------------------------------

def test_kernel_check_runs_green(tmp_path, outdir):
    cfg = _write(tmp_path / "c.json", {"schema_version": "1", "points": 25})
    assert main(["kernel-check", "--config", cfg, "--out", str(outdir)]) == 0
    summary = json.loads((outdir / "kernel_check.json").read_text())
    assert summary["pass"] is True
    assert summary["max_fund_rel_err"] <= 1e-10
    lines = (outdir / "kernel_check.csv").read_text().splitlines()
    assert len(lines) == 26  # header + 25 points


def test_pv_check_runs_green(tmp_path, outdir):
    cfg = _write(tmp_path / "c.json", {"schema_version": "1"})
    assert main(["pv-check", "--config", cfg, "--out", str(outdir)]) == 0
    rows = (outdir / "pv_check.csv").read_text().splitlines()
    assert rows[0] == "case,family,n,error"
    assert len(rows) > 4


def test_nc_verify_quadratic(tmp_path, outdir):
    cfg = _write(tmp_path / "c.json", {
        "schema_version": "1",
        "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z2"}}},
        "rule": {"levels": [64, 128]},
        "conditions": ["eq8", "eq9", "eq10", "eq11", "eq12"],
    })
    assert main(["nc-verify", "--config", cfg, "--out", str(outdir)]) == 0
    payload = json.loads((outdir / "nc_verify.json").read_text())
    assert payload["pass"] is True
    conditions = {r["condition"] for r in payload["records"]}
    assert conditions == {"eq8", "eq9", "eq10", "eq11", "eq12"}
    for rec in payload["records"]:
        if rec["N"] == 128:
            assert rec["sup_residual"] <= 1e-3


def test_nc_verify_forms_no_weight_matrix(tmp_path, outdir, monkeypatch):
    # the residuals apply the Gauss log and running-integral weights through
    # the Legendre coefficients of the densities: no level forms either
    # weight matrix or the Legendre transform
    def refuse(*args):
        raise AssertionError("dense weight matrix formed on the residual path")

    monkeypatch.setattr(quadrature, "node_weight_matrices", refuse)
    monkeypatch.setattr(assembly, "node_weight_matrices", refuse)
    monkeypatch.setattr(quadrature, "_transform", refuse)
    conds = list(conditions.CONDITION_IDS)
    cfg = _write(tmp_path / "c.json", {
        "schema_version": "1",
        "domain": CUBIC_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z2"}}},
        "rule": {"family": "gauss-legendre", "levels": [16, 32, 64]},
        "conditions": conds,
        "tolerances": {"sup_residual": 1.0},
    })
    assert main(["nc-verify", "--config", cfg, "--out", str(outdir)]) == 0
    records = json.loads((outdir / "nc_verify.json").read_text())["records"]
    assert sorted((r["condition"], r["N"]) for r in records) == sorted(
        (c, n) for c in conds for n in (16, 32, 64))


def test_nc_verify_accepts_gauss_levels_from_2(tmp_path, outdir):
    # two Gauss nodes define the PV rows; only the midpoint family needs three
    cfg = _write(tmp_path / "c.json", {
        "schema_version": "1",
        "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z2"}}},
        "rule": {"family": "gauss-legendre", "levels": [2, 4]},
        "tolerances": {"sup_residual": 10.0},
    })
    assert main(["nc-verify", "--config", cfg, "--out", str(outdir)]) == 0
    records = json.loads((outdir / "nc_verify.json").read_text())["records"]
    assert {r["N"] for r in records} == {2, 4}


def test_nc_verify_output_is_byte_identical_between_runs(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "schema_version": "1",
        "domain": CUBIC_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z2"}}},
        "rule": {"levels": [32, 64]},
    })
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        assert main(["nc-verify", "--config", cfg, "--out", str(out)]) == 0
        outputs.append((out / "nc_verify.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_nc_verify_exact_zero_residual_passes(tmp_path, outdir):
    # the constant solution has an eq8 residual of exactly 0 at every level;
    # with a negative ratio floor the ratio gate must not divide by it
    cfg = _write(tmp_path / "c.json", {
        "schema_version": "1",
        "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "const"}}},
        "rule": {"levels": [16, 32]},
        "conditions": ["eq8"],
        "tolerances": {"ratio_floor": -1.0},
    })
    assert main(["nc-verify", "--config", cfg, "--out", str(outdir)]) == 0
    payload = json.loads((outdir / "nc_verify.json").read_text())
    assert [r["sup_residual"] for r in payload["records"]] == [0.0, 0.0]


def test_solve_and_outputs(tmp_path, outdir):
    cfg = _write(tmp_path / "c.json", {
        "schema_version": "1",
        "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z2"}}},
        "rule": {"n": 48},
        "dump_system": True,
    })
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 0
    report = json.loads((outdir / "solve_report.json").read_text())
    assert report["method"] == "direct"
    assert len(report["interior_samples"]) == 20
    traces = (outdir / "traces.csv").read_text().splitlines()
    assert traces[0] == "x1,re_u1,im_u1,re_u2,im_u2"
    assert len(traces) == 49
    assert (outdir / "system.bin").read_bytes()[:5] == b"CBIE1"


def test_convergence_task(tmp_path, outdir):
    cfg = _write(tmp_path / "c.json", {
        "schema_version": "1",
        "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z"}}},
        "rule": {"levels": [32, 64]},
    })
    assert main(["convergence", "--config", cfg, "--out", str(outdir)]) == 0
    payload = json.loads((outdir / "convergence.json").read_text())
    assert [row["n"] for row in payload["levels"]] == [32, 64]
    assert payload["pass"] is True


def _convergence(tmp_path, outdir, levels, solution=None, domain=LENS_DOMAIN):
    """(exit status, convergence.json) of a convergence run with alpha = (1, 2)."""
    cfg = _write(tmp_path / "c.json", _solve_cfg(domain, solution, levels=levels))
    status = main(["convergence", "--config", cfg, "--out", str(outdir)])
    return status, json.loads((outdir / "convergence.json").read_text())


def test_convergence_quadratic(tmp_path, outdir):
    status, payload = _convergence(tmp_path, outdir, [64, 128, 256])
    assert status == 0
    errs = [row["trace_error"] for row in payload["levels"]]
    assert errs[0] >= errs[1] >= errs[2] or errs[2] <= 1e-10
    assert all(r >= 2.0 or errs[-1] <= 1e-10 for r in payload["ratios"])
    ints = [row["interior_error"] for row in payload["levels"]]
    assert ints[0] >= ints[1] >= ints[2] or ints[2] <= 1e-10


@pytest.mark.parametrize("levels", [[64], [32, 64]], ids=["single-level", "two-levels"])
def test_convergence_zero_data(tmp_path, outdir, levels):
    status, payload = _convergence(tmp_path, outdir, levels, {"f_coeffs": []})
    assert status == 0
    assert [row["n"] for row in payload["levels"]] == levels
    assert len(payload["ratios"]) == len(levels) - 1
    for row in payload["levels"]:
        assert row["residual_norm"] <= 1e-12
        assert row["trace_error"] <= 1e-12
        assert row["interior_error"] <= 1e-12


def test_convergence_rejects_unsorted(tmp_path, outdir, capsys):
    cfg = _write(tmp_path / "c.json", _solve_cfg(LENS_DOMAIN, {"f_coeffs": []},
                                                 levels=[128, 64]))
    assert main(["convergence", "--config", cfg, "--out", str(outdir)]) == 2
    assert "rule.levels" in capsys.readouterr().err
    assert not (outdir / "convergence.json").exists()


def test_circle_convergence_exits_1(tmp_path, outdir):
    # the errors fall at every level but stay O(1): a falling ladder alone
    # must not pass
    status, payload = _convergence(tmp_path, outdir, [64, 128, 256], domain=CIRCLE_DOMAIN)
    errs = [row["trace_error"] for row in payload["levels"]]
    assert errs[0] > errs[1] > errs[2] > DEFAULT_TOLERANCES["sup_residual"]
    assert status == 1
    assert payload["pass"] is False


def test_tabulated_phi_source(tmp_path, outdir):
    xs = np.linspace(-1, 1, 41)
    phi1 = 1.0 + 0 * xs          # constant-compatible data, alpha = (1, 2)
    phi2 = 2.0 + 0 * xs
    data = _write(tmp_path / "phi.json", {
        "x": xs.tolist(),
        "phi1": [[float(v), 0.0] for v in phi1],
        "phi2": [[float(v), 0.0] for v in phi2],
    })
    cfg = _write(tmp_path / "c.json", {
        "schema_version": "1",
        "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"tabulated": data}},
        "rule": {"n": 32},
    })
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 0
    traces = (outdir / "traces.csv").read_text().splitlines()[1:]
    for line in traces:
        _, re1, im1, re2, im2 = (float(v) for v in line.split(","))
        assert abs(complex(re1, im1) - 1.0) <= 1e-7
        assert abs(complex(re2, im2) - 1.0) <= 1e-7


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("task,extra", [
    ("kernel-check", {"points": 20}),
    ("nc-verify", {
        "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z"}}},
        "rule": {"levels": [32, 64]},
    }),
    ("solve", {
        "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z2"}}},
        "rule": {"n": 32},
    }),
    ("pv-check", {}),
    ("convergence", {
        "domain": LENS_DOMAIN,
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z2"}}},
        "rule": {"levels": [32, 64]},
    }),
])
def test_byte_identical_reruns(tmp_path, task, extra):
    cfg = _write(tmp_path / "c.json", {"schema_version": "1", "seed": 42, **extra})
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        assert main([task, "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seed_changes_probe_stream(tmp_path):
    cfg = _write(tmp_path / "c.json", {"schema_version": "1", "points": 10})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    out1.mkdir(), out2.mkdir()
    assert main(["kernel-check", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["kernel-check", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
    assert ((out1 / "kernel_check.csv").read_bytes()
            != (out2 / "kernel_check.csv").read_bytes())
