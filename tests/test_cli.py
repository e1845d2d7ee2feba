import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbie.cli import main
from cbie.lcg import Lcg

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
OPEN_DOMAIN = {
    "a1": -1.0, "b1": 1.0,
    "lower": {"kind": "polynomial", "params": [-1.0]},
    "upper": {"kind": "polynomial", "params": [1.0]},
}


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


@pytest.mark.parametrize("key,spoil", [
    pytest.param("domain.lower", lambda cfg, tmp: cfg["domain"]["lower"].update(kind="spline"),
                 id="unknown-curve-kind"),
    pytest.param("bc.phi.tabulated", lambda cfg, tmp: cfg["bc"].update(
        phi={"tabulated": str(tmp / "no_such_phi.json")}), id="missing-tabulated-file"),
    pytest.param("bc.phi.tabulated", lambda cfg, tmp: cfg["bc"].update(phi={"tabulated": 0}),
                 id="tabulated-not-a-path"),
    pytest.param("bc.alpha1", lambda cfg, tmp: cfg["bc"].update(alpha1="x"), id="alpha1-text"),
    pytest.param("rule.n", lambda cfg, tmp: cfg["rule"].update(n="abc"), id="n-text"),
    pytest.param("domain.a1", lambda cfg, tmp: cfg["domain"].update(a1="abc"), id="a1-text"),
    pytest.param("tolerances.cond_threshold",
                 lambda cfg, tmp: cfg.update(tolerances={"cond_threshold": "abc"}),
                 id="tolerance-text"),
])
def test_bad_value_exits_2_naming_key(tmp_path, outdir, capsys, key, spoil):
    cfg = _solve_cfg()
    spoil(cfg, tmp_path)
    path = _write(tmp_path / "c.json", cfg)
    assert main(["solve", "--config", path, "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert key in err


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_boundary_data_exits_3(tmp_path, outdir, capsys):
    # exp(800 z) overflows where the upper lens rises above x2 = 709/800
    cfg = _write(tmp_path / "c.json",
                 _solve_cfg(solution={"name": "steep", "f_exp_scale": 800.0}))
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 3
    assert "boundary data non-finite" in capsys.readouterr().err


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
    import scipy.linalg

    import cbie.assembly
    import cbie.solver

    calls = {"svd": 0, "cond": 0, "lu_factor": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
    original = scipy.linalg.lu_factor
    lu = counting("lu_factor", original)
    for module in (scipy.linalg, cbie.assembly, cbie.solver):
        if getattr(module, "lu_factor", None) is original:
            monkeypatch.setattr(module, "lu_factor", lu)
    cfg = _write(tmp_path / "c.json", _solve_cfg())
    assert main(["solve", "--config", cfg, "--out", str(outdir)]) == 0
    assert calls == {"svd": 0, "cond": 0, "lu_factor": 1}


def test_cli_import_leaves_edge_case_scipy_modules_unloaded():
    # only tabulated curves and data need scipy.interpolate, and only the
    # kernel oracle needs scipy.integrate; the CLI imports neither up front
    import cbie

    src = str(Path(cbie.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, cbie.cli; print([m for m in ('scipy.interpolate', "
            "'scipy.integrate') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


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
