"""Workload inputs drawn from a seed, and the checks on each task's outputs.

The checks do not compare against stored output and do not use
``cbie.manufactured``.  For ``solve`` they evaluate the exact solution
u = F(x2 + i x1) + g(x1) from the closed forms below.  For ``nc-verify``,
whose output holds only residuals, they check properties the method must
have: a small top-level residual and no growth along the N ladder.

The draws stay away from faults seen in cbie (README.md, "Faults kept out
of the workloads").  The boundary constants are fixed at ALPHAS, a pair
whose lens systems stay well conditioned over the whole half-height range:
other pairs make the discrete system nearly singular at isolated (N, h),
and the answer then loses accuracy.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

# name -> (F, g) with u(x1, x2) = F(x2 + i x1) + g(x1)
EXACT = {
    "z2": (lambda z: z * z, lambda x1: 0.0 * x1),
    "z2_plus_cubic": (lambda z: z * z, lambda x1: x1 ** 3),
    "exp_half": (lambda z: np.exp(0.5 * z), lambda x1: 0.0 * x1),
}

CONDITIONS = ("eq8", "eq9", "eq10", "eq11", "eq12", "eq7-boundary")

NC_TOL = 1e-11            # top-level nc-verify residual (seen: <= 8.4e-14)
NC_FLOOR = 1e-12          # residuals below this may move by round-off
RESIDUAL_TOL = 1e-10      # ||Ax - b|| of every direct solve

# Largest condition number over h in [0.5, 1]: 8.0e4 at N=128 (step 0.001),
# 2.0e5 at N=512 (step 0.005).  By contrast (0.5, 1.5) reaches 8.9e6 at
# h=0.745, N=512, and (1.5, 3) 1.4e7 at h=0.705, N=128.
ALPHAS = (1.0, 2.0)


def exact_u(name: str, x1, x2):
    f, g = EXACT[name]
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return f(x2 + 1j * x1) + g(x1)


def curve_value(curve: dict, x):
    """gamma(x) for the curve kinds the workloads and the self-test use."""
    x = np.asarray(x, dtype=float)
    kind, p = curve["kind"], [float(v) for v in curve["params"]]
    if kind == "lens":
        return p[0] * (1.0 - x * x)
    if kind == "ellipse-graph":
        return p[1] * np.sqrt(np.maximum(1.0 - (x / p[0]) ** 2, 0.0))
    if kind == "polynomial":
        out = np.zeros_like(x)
        for c in reversed(p):
            out = out * x + c
        return out
    raise ValueError(f"curve kind {kind!r} has no closed form here")


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

def _config(task: str, rng: random.Random, lower: dict, upper: dict, rule: dict) -> dict:
    alpha1, alpha2 = ALPHAS
    return {
        "schema_version": "1",
        "task": task,
        "seed": rng.randrange(1 << 31),
        "domain": {"a1": -1.0, "b1": 1.0, "lower": lower, "upper": upper},
        "bc": {"alpha1": alpha1, "alpha2": alpha2,
               "phi": {"solution": {"name": rng.choice(sorted(EXACT))}}},
        "rule": rule,
    }


def lens_config(task: str, rng: random.Random, rule: dict) -> dict:
    h = rng.uniform(0.5, 1.0)
    return _config(task, rng, {"kind": "lens", "params": [-h]},
                   {"kind": "lens", "params": [h]}, rule)


def cubic_config(task: str, rng: random.Random, rule: dict) -> dict:
    """gamma_2 = (1 - x^2)(p0 + p1 x), gamma_1 = -(1 - x^2)(q0 + q1 x) with
    |p1| < p0 and |q1| < q0, so the curves meet only at x = -1 and x = 1."""
    p0, q0 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    p1, q1 = p0 * rng.uniform(-0.6, 0.6), q0 * rng.uniform(-0.6, 0.6)
    return _config(task, rng, {"kind": "polynomial", "params": [-q0, -q1, q0, q1]},
                   {"kind": "polynomial", "params": [p0, p1, -p0, -p1]}, rule)


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the output is correct
# ---------------------------------------------------------------------------

def check_solve(cfg: dict, out: Path, trace_tol: float, interior_tol: float) -> list:
    report = json.loads((out / "solve_report.json").read_text())
    dom, name = cfg["domain"], cfg["bc"]["phi"]["solution"]["name"]
    n = cfg["rule"]["n"]
    problems = []
    if report["method"] != "direct":
        problems.append(f"method {report['method']!r}, expected 'direct'")
    if not report["residual_norm"] <= RESIDUAL_TOL:
        problems.append(f"residual {report['residual_norm']:.3g}")
    with open(out / "traces.csv", newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    if len(rows) != n:
        return problems + [f"traces.csv has {len(rows)} rows, expected {n}"]
    t = np.asarray(rows)
    x = t[:, 0]
    if not (np.all(np.diff(x) > 0) and dom["a1"] < x[0] and x[-1] < dom["b1"]):
        problems.append("trace nodes are not increasing inside (a1, b1)")
    u1 = t[:, 1] + 1j * t[:, 2]
    u2 = t[:, 3] + 1j * t[:, 4]
    err = max(np.max(np.abs(u1 - exact_u(name, x, curve_value(dom["lower"], x)))),
              np.max(np.abs(u2 - exact_u(name, x, curve_value(dom["upper"], x)))))
    if not err <= trace_tol:
        problems.append(f"trace error {err:.3g} > {trace_tol:g}")
    samples = report["interior_samples"]
    if not samples:
        problems.append("no interior samples")
    for s in samples:
        x1, x2 = s["x1"], s["x2"]
        if not curve_value(dom["lower"], x1) < x2 < curve_value(dom["upper"], x1):
            problems.append(f"interior sample ({x1}, {x2}) is outside the domain")
            continue
        e = abs(complex(s["re"], s["im"]) - complex(exact_u(name, x1, x2)))
        if not e <= interior_tol:
            problems.append(f"interior error {e:.3g} at ({x1:.3f}, {x2:.3f})")
    return problems


def _grows(values, floor: float) -> bool:
    return any(b > max(a, floor) for a, b in zip(values, values[1:]))


def check_nc_verify(cfg: dict, out: Path) -> list:
    records = json.loads((out / "nc_verify.json").read_text())["records"]
    levels = cfg["rule"]["levels"]
    sups = {}
    for r in records:
        sups.setdefault(r["condition"], {})[r["N"]] = r["sup_residual"]
    problems = []
    for c in CONDITIONS:
        ladder = [sups.get(c, {}).get(n) for n in levels]
        if any(v is None or not math.isfinite(v) for v in ladder):
            problems.append(f"{c}: residuals missing at some of N = {levels}")
            continue
        if not ladder[-1] <= NC_TOL:
            problems.append(f"{c}: residual {ladder[-1]:.3g} at N={levels[-1]} > {NC_TOL:g}")
        if _grows(ladder, NC_FLOOR):
            problems.append(f"{c}: residual grows along the ladder {ladder}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    warm_per_round: int           # warm operations after each cold run
    draw: Callable[[random.Random], dict]
    check: Callable[[dict, Path], list]


WORKLOADS = {
    w.name: w for w in (
        # seen over 25 draws: trace error <= 7.9e-11, interior error <= 6.7e-11
        Workload("solve-512", "solve", 1,
                 lambda rng: lens_config("solve", rng, {"family": "gauss-legendre", "n": 512}),
                 partial(check_solve, trace_tol=1e-8, interior_tol=1e-8)),
        Workload("verify-ladder", "nc-verify", 8,
                 lambda rng: dict(cubic_config("nc-verify", rng,
                                               {"family": "gauss-legendre",
                                                "levels": [128, 256, 512]}),
                                  conditions=list(CONDITIONS)),
                 check_nc_verify),
    )
}
