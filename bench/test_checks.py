"""The benchmark's output checks are not vacuous.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py

A correct N=128 solve on a lens passes the solve check.  A solve on the
circle, which ``cbie solve`` accepts with exit status 0, fails it.  N=128
keeps the test short; its limits sit above the worst errors seen over 300
lens draws at N=128 (trace 8.3e-8, interior 4.3e-5).
"""

import json
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cbie.cli  # noqa: E402
from workloads import check_solve  # noqa: E402

CHECK = partial(check_solve, trace_tol=1e-6, interior_tol=1e-3)


def solve(tmp_path: Path, lower: dict, upper: dict) -> tuple:
    cfg = {
        "schema_version": "1",
        "task": "solve",
        "domain": {"a1": -1.0, "b1": 1.0, "lower": lower, "upper": upper},
        "bc": {"alpha1": 1.0, "alpha2": 2.0, "phi": {"solution": {"name": "z2"}}},
        "rule": {"family": "gauss-legendre", "n": 128},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    status = cbie.cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    return status, CHECK(cfg, tmp_path / "out")


def test_lens_solve_passes(tmp_path):
    status, problems = solve(tmp_path, {"kind": "lens", "params": [-0.8]},
                             {"kind": "lens", "params": [0.8]})
    assert status == 0
    assert problems == []


def test_circle_solve_fails_although_cbie_exits_0(tmp_path):
    status, problems = solve(tmp_path, {"kind": "ellipse-graph", "params": [1.0, -1.0]},
                             {"kind": "ellipse-graph", "params": [1.0, 1.0]})
    assert status == 0
    assert any(p.startswith("trace error") for p in problems)
    assert any(p.startswith("interior error") for p in problems)
