"""Configuration-driven command line interface.

Subcommands:
  kernel-check   closed-form kernels vs integral/finite-difference oracles
  pv-check       principal-value quadrature corpus
  nc-verify      compatibility-condition residual convergence
  solve          assemble + solve + interior reconstruction
  convergence    multi-level solve study

Every run is driven by a JSON config (see README) and writes deterministic
CSV/JSON artifacts: the same config and seed give byte-identical files.
Exit status: 0 all gates pass, 1 a tolerance gate failed, 2 bad
configuration, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .assembly import BCSpec, assemble, dump_system
from .conditions import (
    CONDITION_IDS,
    WINDOW_FRACTION,
    condition_residuals,
    window_mask,
)
from .errors import CbieError, ConfigurationError, GeometryError, NumericError
from .geometry import CurveDescriptor, PlaneDomain, validate_domain
from .kernel import (
    KernelPoint,
    dU_dx1,
    dU_dx2,
    fund_solution,
    fund_solution_oracle,
    heaviside_sym,
)
from .lcg import Lcg
from .linalg import probe_spectrum
from .manufactured import SolutionSpec, canonical_solutions, eval_solution, make_bc, make_trace
from .quadrature import DIFF_MIN_NODES, FAMILIES, build_rule, pv_integrate
from .solver import COND_THRESHOLD, solve_assembled, solve_problem

SCHEMA_VERSION = "1"
MIN_SOLVE_NODES = 8  # smallest rule a solve accepts, at rule.n and in rule.levels
MAX_NODES = 4096  # largest rule, at rule.n and in rule.levels: 2N x 2N complex is 1 GiB here
PV_GATED_NODES = 64  # pv-check gates the levels from here up

DEFAULT_TOLERANCES = {
    "window_delta": None,        # None -> WINDOW_FRACTION (b1 - a1)
    "cond_threshold": COND_THRESHOLD,
    "fund_tol": 1e-10,
    "deriv_tol": 1e-8,
    "annih_tol": 1e-6,
    "pv_analytic_tol": 1e-12,
    "pv_exp_tol": 1e-10,
    "sup_residual": 1e-3,
    "min_ratio": 2.0,
    "ratio_floor": 1e-10,
}


# the documented keys of each config block, by dotted path ("" is the root)
CONFIG_KEYS = {
    "": {"schema_version", "task", "seed", "domain", "bc", "rule", "tolerances",
         "dump_system", "points", "conditions"},
    "domain": {"a1", "b1", "lower", "upper"},
    "domain.lower": {"kind", "params"},
    "domain.upper": {"kind", "params"},
    "bc": {"alpha1", "alpha2", "phi"},
    "bc.phi": {"solution", "tabulated"},
    "rule": {"family", "n", "levels"},
    "tolerances": set(DEFAULT_TOLERANCES),
    "bc.phi.solution": {f.name for f in fields(SolutionSpec)},
}


def _fmt(value) -> str:
    """Deterministic scalar formatting for CSV output."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _number(value, key: str) -> float:
    """value as a float if it is a finite JSON number (an int or a float, not
    a boolean or a string), or a ConfigurationError naming the config key: a
    NaN bound would pass every comparison gate."""
    if type(value) not in (int, float):
        raise ConfigurationError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigurationError(f"{key} is out of the float range") from exc
    if not math.isfinite(number):
        raise ConfigurationError(f"{key} must be finite, got {value!r}")
    return number


def _complex(value, key: str) -> complex:
    """value as a complex if it is a number or a pair [re, im] of numbers,
    each read by _number."""
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigurationError(f"{key} must be a number or [re, im], got {value!r}")
        return complex(_number(value[0], key), _number(value[1], key))
    return complex(_number(value, key))


def _integer(value, key: str) -> int:
    """value if it is a JSON integer (not a boolean), or a ConfigurationError
    naming the config key; a fraction is never truncated."""
    if type(value) is not int:
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return value


def _boolean(value, key: str) -> bool:
    """value if it is a JSON boolean, or a ConfigurationError naming the key:
    the string "no" is not false."""
    if type(value) is not bool:
        raise ConfigurationError(f"{key} must be true or false, got {value!r}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    version = _require(cfg, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version must be the string {SCHEMA_VERSION!r}, got {version!r}")
    for path, known in CONFIG_KEYS.items():
        block = cfg
        for key in filter(None, path.split(".")):
            block = block.get(key) if isinstance(block, dict) else None
        for key in block if isinstance(block, dict) else ():
            if key not in known:
                raise ConfigurationError(f"{path}{'.' if path else ''}{key}: unknown key; "
                                         f"known: {sorted(known)}")
    return cfg


def _require(block: dict, path: str):
    """block[last key of path], or a ConfigurationError naming the full path."""
    key = path.rpartition(".")[2]
    if key not in block:
        raise ConfigurationError(f"config missing required key {path!r}")
    return block[key]


def _object(value, key: str) -> dict:
    """value, or a ConfigurationError naming the key when it is not a JSON object."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key} must be a JSON object, got {value!r}")
    return value


def _family(rule: dict) -> str:
    family = rule.get("family", "gauss-legendre")
    if family not in FAMILIES:
        raise ConfigurationError(
            f"rule.family must be one of {list(FAMILIES)}, got {family!r}")
    return family


def _family_levels(cfg: dict, default: list, minimum: int, gated: int = 0) -> tuple:
    """(rule.family, rule.levels), the levels a non-empty, strictly increasing
    list of integers in [minimum, MAX_NODES] whose last level is >= gated,
    the smallest level the task's gate checks."""
    rule = _object(cfg.get("rule", {}), "rule")
    levels = rule.get("levels", default)
    if not (isinstance(levels, list) and levels
            and all(type(n) is int and minimum <= n <= MAX_NODES for n in levels)
            and all(n0 < n1 for n0, n1 in zip(levels, levels[1:]))):
        raise ConfigurationError(f"rule.levels must be a strictly increasing list of "
                                 f"integers from {minimum} to {MAX_NODES}, got {levels!r}")
    if levels[-1] < gated:
        raise ConfigurationError(f"rule.levels must include a level >= {gated}, the "
                                 f"smallest the gate checks, got {levels!r}")
    return _family(rule), levels


def _ladder(tol: dict, domain, family: str, levels: list):
    """Yield (n, rule, mask) per level: the level's rule, built once, and the
    mask of its nodes in the window [a1 + delta, b1 - delta], delta =
    tolerances.window_delta.  None selects WINDOW_FRACTION (b1 - a1), which
    leaves a node in the window for any rule of two or more nodes; a delta
    that is negative or leaves no node is a ConfigurationError."""
    delta = tol["window_delta"]
    if delta is None:
        delta = WINDOW_FRACTION * (domain.b1 - domain.a1)
    for n in levels:
        rule = build_rule(family, n, domain.a1, domain.b1)
        mask = window_mask(rule, delta)
        if not (delta >= 0 and np.any(mask)):
            raise ConfigurationError(
                f"tolerances.window_delta = {delta!r} must be >= 0 and leave a node of "
                f"every rule inside [a1 + delta, b1 - delta]")
        yield n, rule, mask


def _tolerances(cfg: dict) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    for key, val in _object(cfg.get("tolerances", {}), "tolerances").items():
        if not (key == "window_delta" and val is None):  # None: the default window
            val = _number(val, f"tolerances.{key}")
        tol[key] = val
    if not tol["min_ratio"] > 0:  # 0 or less would switch the ratio gate off
        raise ConfigurationError(
            f"tolerances.min_ratio must be > 0, got {tol['min_ratio']!r}")
    return tol


def _built(key: str, constructor, *args):
    """constructor(*args), its GeometryError (the library's own check of the
    curve or domain) raised as a ConfigurationError naming the key."""
    try:
        return constructor(*args)
    except GeometryError as exc:
        raise ConfigurationError(f"{key}: {exc}") from exc


def _curve(block: dict, key: str) -> CurveDescriptor:
    """key, domain.lower or domain.upper: a curve kind and its list of numbers."""
    curve = _object(_require(block, key), key)
    kind = _require(curve, f"{key}.kind")
    params = _require(curve, f"{key}.params")
    if not isinstance(params, list):
        raise ConfigurationError(f"{key}.params must be a list of numbers, got {params!r}")
    params = tuple(_number(p, f"{key}.params[{i}]") for i, p in enumerate(params))
    return _built(key, CurveDescriptor, kind, params)


def _domain(cfg: dict) -> PlaneDomain:
    block = _object(_require(cfg, "domain"), "domain")
    a1 = _number(_require(block, "domain.a1"), "domain.a1")
    b1 = _number(_require(block, "domain.b1"), "domain.b1")
    domain = _built("domain", PlaneDomain, a1, b1,
                    _curve(block, "domain.lower"), _curve(block, "domain.upper"))
    report = validate_domain(domain, probes=201)
    if report.convexity_violations:
        raise ConfigurationError(
            f"domain violates convexity at x1={report.convexity_violations[:3]}")
    # The boundary identities hold on closed contours only: the curves must
    # meet at a1 and b1 up to round-off relative to the curves' size.
    gap_tol = 1e-10 * max(1.0, report.max_abs_gamma)
    if not all(abs(gap) <= gap_tol for gap in report.endpoint_gaps):
        raise ConfigurationError(
            f"domain is not a closed contour: gamma_2 - gamma_1 = "
            f"{report.endpoint_gaps} at (a1, b1), tolerance {gap_tol:.3g}")
    return domain


def _phi_from_tabulated(path: str):
    from scipy.interpolate import PchipInterpolator

    if not isinstance(path, str):  # open() would take an integer as a file descriptor
        raise ConfigurationError(f"bc.phi.tabulated must be a file path, got {path!r}")

    def build(xs, rows):
        arr = np.asarray(rows, dtype=float)
        re = PchipInterpolator(xs, arr[:, 0])
        im = PchipInterpolator(xs, arr[:, 1])
        return lambda x: re(x) + 1j * im(x)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        xs = np.asarray(data["x"], dtype=float)
        return build(xs, data["phi1"]), build(xs, data["phi2"])
    except KeyError as exc:
        raise ConfigurationError(
            f"bc.phi.tabulated: data file missing key {exc.args[0]!r}") from exc
    except (OSError, IndexError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bc.phi.tabulated: bad data file {path!r}: {exc}") from exc


def _alpha(block: dict, key: str) -> complex:
    alpha = _complex(_require(block, key), key)
    if alpha == 0:
        raise ConfigurationError(f"{key} must be nonzero")
    return alpha


def _solution(block: dict) -> SolutionSpec:
    """bc.phi.solution: a named solution alone, or coefficient lists with an
    optional exponential scale, every entry read by _complex."""
    name = block.get("name", "custom")
    if not isinstance(name, str):
        raise ConfigurationError(f"bc.phi.solution.name must be a string, got {name!r}")
    if "name" in block and len(block) == 1:
        table = canonical_solutions()
        if name not in table:
            raise ConfigurationError(f"bc.phi.solution.name: unknown solution "
                                     f"{name!r}; known: {sorted(table)}")
        return table[name]

    def coeffs(key):
        values = block.get(key, [])
        if not isinstance(values, list):
            raise ConfigurationError(
                f"bc.phi.solution.{key} must be a list of coefficients, got {values!r}")
        return tuple(_complex(c, f"bc.phi.solution.{key}[{i}]") for i, c in enumerate(values))

    scale = block.get("f_exp_scale")
    return SolutionSpec(
        name=name,
        f_coeffs=coeffs("f_coeffs"),
        f_exp_scale=None if scale is None else _complex(scale, "bc.phi.solution.f_exp_scale"),
        g_coeffs=coeffs("g_coeffs"),
    )


def _bc(cfg: dict, domain):
    block = _object(_require(cfg, "bc"), "bc")
    alpha1, alpha2 = _alpha(block, "bc.alpha1"), _alpha(block, "bc.alpha2")
    phi_block = _object(_require(block, "bc.phi"), "bc.phi")
    if ("solution" in phi_block) == ("tabulated" in phi_block):
        raise ConfigurationError("bc.phi must give exactly one of a 'solution' block "
                                 "and a 'tabulated' file")
    if "solution" in phi_block:
        spec = _solution(_object(phi_block["solution"], "bc.phi.solution"))
        return make_bc(spec, domain, alpha1, alpha2, None), spec
    phi1, phi2 = _phi_from_tabulated(phi_block["tabulated"])
    return BCSpec(alpha1, alpha2, phi1, phi2), None


def _exact_problem(cfg: dict, task: str) -> tuple:
    """(domain, bc, spec) of a task that checks against the exact solution:
    bc.phi must name one."""
    domain = _domain(cfg)
    bc, spec = _bc(cfg, domain)
    if spec is None:
        raise ConfigurationError(f"{task} needs bc.phi.solution: bc.phi.tabulated "
                                 "gives no exact solution to check against")
    return domain, bc, spec


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def run_kernel_check(cfg: dict, tol: dict, outdir: Path, seed: int) -> tuple:
    rng = Lcg(seed)
    n_points = _integer(cfg.get("points", 100), "points")
    if n_points < 1:
        raise ConfigurationError(f"points must be >= 1, got {n_points}")
    rows = []
    worst = dict.fromkeys(["max_fund_rel_err", "max_du2_fd_err", "max_du1_fd_err",
                           "max_annihilation_fd"], 0.0)
    while len(rows) < n_points:
        d1 = rng.uniform(-2.0, 2.0)
        x2 = rng.uniform(-2.0, 2.0)
        xi2 = rng.uniform(-2.0, 2.0)
        # keep oracle quadrature well-behaved: stay clearly off the
        # singular set and keep the derivative-check arguments nonzero
        if abs(d1) < 0.1 or abs(x2) < 0.1 or abs(x2 - xi2) < 0.1 or abs(xi2) < 0.1:
            continue
        p = KernelPoint(d1, x2, xi2)
        val = fund_solution(p)
        ora = fund_solution_oracle(p)
        fund_rel = abs(val - ora) / max(abs(ora), 1e-300)

        h = 1e-5
        fd2 = (fund_solution(KernelPoint(d1, x2 + h, xi2))
               - fund_solution(KernelPoint(d1, x2 - h, xi2))) / (2 * h)
        du2_err = abs(fd2 - dU_dx2(d1, x2 - xi2))
        fd1 = (fund_solution(KernelPoint(d1 + h, x2, xi2))
               - fund_solution(KernelPoint(d1 - h, x2, xi2))) / (2 * h)
        du1_err = abs(fd1 - dU_dx1(p))

        ha = 1e-4
        u = lambda dd1, xx2: fund_solution(KernelPoint(dd1, xx2, xi2))
        d22 = (u(d1, x2 + ha) - 2 * u(d1, x2) + u(d1, x2 - ha)) / ha**2
        d12 = (u(d1 + ha, x2 + ha) - u(d1 + ha, x2 - ha)
               - u(d1 - ha, x2 + ha) + u(d1 - ha, x2 - ha)) / (4 * ha**2)
        annih = abs(d22 + 1j * d12)

        errors = (fund_rel, du2_err, du1_err, annih)
        for key, err in zip(worst, errors):
            worst[key] = max(worst[key], err)
        rows.append((len(rows), d1, x2, xi2, *errors))

    # Heaviside partition on the same stream
    part_ok = all(
        heaviside_sym(t) + heaviside_sym(-t) == 1.0
        for t in (rng.uniform(-5.0, 5.0) for _ in range(1000))
    ) and heaviside_sym(0.0) == 0.5

    fund, du2, du1, annih = worst.values()
    ok = (fund <= tol["fund_tol"] and du2 <= tol["deriv_tol"] and du1 <= tol["deriv_tol"]
          and annih <= tol["annih_tol"] and part_ok)
    write_csv(outdir / "kernel_check.csv",
              ["index", "d1", "x2", "xi2", "fund_rel_err", "du2_fd_err",
               "du1_fd_err", "annihilation_fd"], rows)
    return {"points": n_points, **worst, "heaviside_partition_ok": part_ok}, ok


def run_pv_check(cfg: dict, tol: dict, outdir: Path, seed: int) -> tuple:
    family, levels = _family_levels(cfg, [16, 32, 64], 2, PV_GATED_NODES)
    cases = [
        ("one_sym", lambda x: 1.0 + 0 * x, 0.0, (-1.0, 1.0), 0.0),
        ("x_at_0", lambda x: x, 0.0, (-1.0, 1.0), 2.0),
        ("one_off", lambda x: 1.0 + 0 * x, 0.5, (-1.0, 1.0), -np.log(3.0)),
        ("exp", np.exp, 0.3, (-1.0, 1.0), None),
    ]
    # reference for the exp case via a large rule
    big = build_rule("gauss-legendre", 400, -1.0, 1.0)
    exp_ref = pv_integrate(np.exp, 0.3, big, df=np.exp)
    rows = []
    ok = True
    for name, f, xi, (a, b), exact in cases:
        target = exp_ref if exact is None else exact
        for n in levels:
            rule = build_rule(family, n, a, b)
            err = abs(pv_integrate(f, xi, rule) - target)
            rows.append((name, family, n, err))
            gate = tol["pv_exp_tol"] if name == "exp" else tol["pv_analytic_tol"]
            if n >= PV_GATED_NODES and err > gate:
                ok = False
    write_csv(outdir / "pv_check.csv", ["case", "family", "n", "error"], rows)
    return {"rows": len(rows)}, ok


def run_nc_verify(cfg: dict, tol: dict, outdir: Path, seed: int) -> tuple:
    domain, bc, spec = _exact_problem(cfg, "nc-verify")
    conditions = cfg.get("conditions", list(CONDITION_IDS))
    if not (isinstance(conditions, list) and conditions
            and all(c in CONDITION_IDS for c in conditions)
            and len(set(conditions)) == len(conditions)):
        raise ConfigurationError(f"conditions must be a non-empty list of distinct ids "
                                 f"from {list(CONDITION_IDS)}, got {conditions!r}")
    family, levels = _family_levels(cfg, [64, 128, 256], 2)
    if levels[0] < DIFF_MIN_NODES[family]:  # the PV rows' end stencils
        raise ConfigurationError(f"rule.levels of {family} must start from "
                                 f"{DIFF_MIN_NODES[family]}, got {levels!r}")

    sups = {c: [] for c in conditions}
    for n, rule, mask in _ladder(tol, domain, family, levels):
        for c, v in condition_residuals(make_trace(spec, domain, rule), domain,
                                        conditions).items():
            sups[c].append(float(np.max(np.abs(v[mask]))))

    records = [{"condition": c, "N": n, "sup_residual": s[k],
                "ratio": s[k - 1] / s[k] if k > 0 and s[k] > 0 else None}
               for c, s in sups.items() for k, n in enumerate(levels)]
    # each gate states the comparison that passes, so a NaN residual fails
    ok = all(s[-1] <= tol["sup_residual"]
             and (len(s) < 2 or s[-1] <= tol["ratio_floor"]
                  or s[-2] >= tol["min_ratio"] * s[-1])
             for s in sups.values())
    return {"solution": spec.name, "records": records}, ok


def run_solve(cfg: dict, tol: dict, outdir: Path, seed: int) -> tuple:
    domain = _domain(cfg)
    bc, spec = _bc(cfg, domain)
    rule_cfg = _object(_require(cfg, "rule"), "rule")
    n = _integer(_require(rule_cfg, "rule.n"), "rule.n")
    if not MIN_SOLVE_NODES <= n <= MAX_NODES:
        raise ConfigurationError(
            f"rule.n must be from {MIN_SOLVE_NODES} to {MAX_NODES}, got {n}")
    family = _family(rule_cfg)
    dump = _boolean(cfg.get("dump_system", False), "dump_system")
    rule = build_rule(family, n, domain.a1, domain.b1)
    system = assemble(domain, bc, rule)
    # the spectrum and the dump read the matrix as assembled; the solve then
    # factors it in place
    ratios = probe_spectrum(system.matrix)[1]
    if dump:
        dump_system(system, outdir / "system.bin")
    report = solve_assembled(system, tol["cond_threshold"])

    write_csv(outdir / "traces.csv",
              ["x1", "re_u1", "im_u1", "re_u2", "im_u2"],
              [(x, u1.real, u1.imag, u2.real, u2.imag)
               for x, u1, u2 in zip(rule.nodes, report.u_lower, report.u_upper)])
    # a least-squares fallback can leave a small residual and wrong traces
    ok = (report.method == "direct" and report.residual_norm
          <= 1e-8 * max(1.0, float(np.max(np.abs(system.rhs)))))
    return {
        "n": n,
        "family": family,
        "method": report.method,
        "residual_norm": report.residual_norm,
        "condition_estimate": report.condition_estimate,
        "singular_value_ratios": {str(k): v for k, v in ratios.items()},
        "interior_samples": [
            {"x1": pt[0], "x2": pt[1], "re": val.real, "im": val.imag}
            for (pt, val) in report.interior_samples
        ],
        "warnings": report.warnings,
    }, ok


def run_convergence(cfg: dict, tol: dict, outdir: Path, seed: int) -> tuple:
    domain, bc, spec = _exact_problem(cfg, "convergence")
    family, levels = _family_levels(cfg, [64, 128, 256], MIN_SOLVE_NODES)
    rows = []
    for n, rule, mask in _ladder(tol, domain, family, levels):
        report = solve_problem(domain, bc, rule, tol["cond_threshold"])
        exact = make_trace(spec, domain, rule)
        rows.append({
            "n": n,
            "residual_norm": report.residual_norm,
            "condition": report.condition_estimate,
            "method": report.method,
            "trace_error": max(
                float(np.max(np.abs((report.u_lower - exact.u_lower)[mask]))),
                float(np.max(np.abs((report.u_upper - exact.u_upper)[mask])))),
            "interior_error": max(
                (abs(val - complex(eval_solution(spec, x1, x2)[0]))
                 for (x1, x2), val in report.interior_samples), default=0.0),
        })
    errs = [row["trace_error"] for row in rows]
    # falling errors alone do not show convergence: the last level must also
    # meet the bound nc-verify puts on its last level, and no level may have
    # fallen back to least squares
    ok = (errs[-1] <= tol["sup_residual"] and all(row["method"] == "direct" for row in rows)
          and all(e1 <= max(e0, tol["ratio_floor"]) for e0, e1 in zip(errs, errs[1:])))
    return {
        "levels": rows,
        "ratios": [float("inf") if e1 == 0 else e0 / e1 for e0, e1 in zip(errs, errs[1:])],
    }, ok


# name: (task, JSON report file).  A task takes (cfg, tolerances, outdir,
# seed), writes its CSV files and returns (report payload, gate passed).
TASKS = {
    "kernel-check": (run_kernel_check, "kernel_check.json"),
    "pv-check": (run_pv_check, "pv_check.json"),
    "nc-verify": (run_nc_verify, "nc_verify.json"),
    "solve": (run_solve, "solve_report.json"),
    "convergence": (run_convergence, "convergence.json"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cbie",
        description="Boundary-integral solver for u_x2x2 + i u_x1x2 = 0 "
                    "on x2-convex plane domains.")
    sub = parser.add_subparsers(dest="task", required=True)
    for name in TASKS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's probe seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        task_in_cfg = cfg.get("task")
        if task_in_cfg is not None and task_in_cfg != args.task:
            raise ConfigurationError(
                f"config task {task_in_cfg!r} does not match subcommand {args.task!r}")
        seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 42), "seed")
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        task, report = TASKS[args.task]
        payload, ok = task(cfg, _tolerances(cfg), outdir, seed)
        write_json(outdir / report, {"schema_version": SCHEMA_VERSION, "seed": seed,
                                     **payload, "pass": bool(ok)})
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CbieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
