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
import sys
from pathlib import Path

import numpy as np

from .assembly import BCSpec, compactness_probe, dump_system
from .conditions import condition_report
from .errors import CbieError, ConfigurationError, GeometryError, NumericError
from .geometry import domain_from_config, validate_domain
from .kernel import (
    KernelPoint,
    dU_dx1,
    dU_dx2,
    fund_solution,
    fund_solution_oracle,
    heaviside_sym,
)
from .lcg import Lcg
from .manufactured import complex_from_config, make_bc, make_trace, solution_from_config
from .quadrature import build_rule, pv_integrate
from .solver import convergence_sweep, solve_problem

SCHEMA_VERSION = "1"

DEFAULT_TOLERANCES = {
    "window_delta": None,        # None -> 0.1 (b1 - a1)
    "cond_threshold": 1e8,
    "fund_tol": 1e-10,
    "deriv_tol": 1e-8,
    "annih_tol": 1e-6,
    "pv_analytic_tol": 1e-12,
    "pv_exp_tol": 1e-10,
    "sup_residual": 1e-3,
    "min_ratio": 2.0,
    "ratio_floor": 1e-10,
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


def _number(value, convert, key: str):
    """convert(value), or a ConfigurationError naming the config key."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{key} must be a number, got {value!r}") from exc


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
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported schema_version {version!r}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigurationError(f"config missing required key {key!r}")
    return cfg[key]


def _tolerances(cfg: dict) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    for key, val in cfg.get("tolerances", {}).items():
        if key not in tol:
            raise ConfigurationError(f"unknown tolerance key {key!r}")
        if not (key == "window_delta" and val is None):  # None: the default window
            val = _number(val, float, f"tolerances.{key}")
        tol[key] = val
    return tol


def _domain(cfg: dict):
    try:
        domain = domain_from_config(_require(cfg, "domain"))
    except GeometryError as exc:
        raise ConfigurationError(str(exc)) from exc
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


def _bc(cfg: dict, domain):
    block = _require(cfg, "bc")
    alpha1 = complex_from_config(_require(block, "alpha1"), "bc.alpha1")
    alpha2 = complex_from_config(_require(block, "alpha2"), "bc.alpha2")
    phi_block = _require(block, "phi")
    if "solution" in phi_block:
        spec = solution_from_config(phi_block["solution"])
        return make_bc(spec, domain, alpha1, alpha2, None), spec
    if "tabulated" in phi_block:
        phi1, phi2 = _phi_from_tabulated(phi_block["tabulated"])
        return BCSpec(alpha1, alpha2, phi1, phi2), None
    raise ConfigurationError("bc.phi must give a 'solution' block or a 'tabulated' file")


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def run_kernel_check(cfg: dict, outdir: Path, seed: int) -> int:
    tol = _tolerances(cfg)
    rng = Lcg(seed)
    n_points = _number(cfg.get("points", 100), int, "points")
    rows = []
    worst = {"fund": 0.0, "du2": 0.0, "du1": 0.0, "annih": 0.0}
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

        worst["fund"] = max(worst["fund"], fund_rel)
        worst["du2"] = max(worst["du2"], du2_err)
        worst["du1"] = max(worst["du1"], du1_err)
        worst["annih"] = max(worst["annih"], annih)
        rows.append((len(rows), d1, x2, xi2, fund_rel, du2_err, du1_err, annih))

    # Heaviside partition on the same stream
    part_ok = all(
        heaviside_sym(t) + heaviside_sym(-t) == 1.0
        for t in (rng.uniform(-5.0, 5.0) for _ in range(1000))
    ) and heaviside_sym(0.0) == 0.5

    ok = (worst["fund"] <= tol["fund_tol"] and worst["du2"] <= tol["deriv_tol"]
          and worst["du1"] <= tol["deriv_tol"] and worst["annih"] <= tol["annih_tol"]
          and part_ok)
    write_csv(outdir / "kernel_check.csv",
              ["index", "d1", "x2", "xi2", "fund_rel_err", "du2_fd_err",
               "du1_fd_err", "annihilation_fd"], rows)
    write_json(outdir / "kernel_check.json", {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "points": n_points,
        "max_fund_rel_err": worst["fund"],
        "max_du2_fd_err": worst["du2"],
        "max_du1_fd_err": worst["du1"],
        "max_annihilation_fd": worst["annih"],
        "heaviside_partition_ok": part_ok,
        "pass": bool(ok),
    })
    return 0 if ok else 1


def run_pv_check(cfg: dict, outdir: Path, seed: int) -> int:
    tol = _tolerances(cfg)
    family = cfg.get("rule", {}).get("family", "gauss-legendre")
    levels = cfg.get("rule", {}).get("levels", [16, 32, 64])
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
            if n >= 64 and err > gate:
                ok = False
    write_csv(outdir / "pv_check.csv", ["case", "family", "n", "error"], rows)
    write_json(outdir / "pv_check.json", {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "rows": len(rows),
        "pass": bool(ok),
    })
    return 0 if ok else 1


def run_nc_verify(cfg: dict, outdir: Path, seed: int) -> int:
    tol = _tolerances(cfg)
    domain = _domain(cfg)
    bc, spec = _bc(cfg, domain)
    if spec is None:
        raise ConfigurationError("nc-verify needs a manufactured solution source")
    conditions = cfg.get("conditions",
                         ["eq8", "eq9", "eq10", "eq11", "eq12", "eq7-boundary"])
    levels = cfg.get("rule", {}).get("levels", [64, 128, 256])
    family = cfg.get("rule", {}).get("family", "gauss-legendre")
    delta = tol["window_delta"]

    sups = {c: [] for c in conditions}
    for n in levels:
        rule = build_rule(family, _number(n, int, "rule.levels"), domain.a1, domain.b1)
        trace = make_trace(spec, domain, rule)
        for c in conditions:
            sups[c].append(condition_report(trace, domain, c, delta).sup_window)

    records = []
    for c in conditions:
        for k, n in enumerate(levels):
            ratio = None
            if k > 0 and sups[c][k] > 0:
                ratio = sups[c][k - 1] / sups[c][k]
            records.append({
                "condition": c,
                "N": int(n),
                "sup_residual": sups[c][k],
                "ratio": ratio,
            })
    ok = True
    for c in conditions:
        final = sups[c][-1]
        if final > tol["sup_residual"]:
            ok = False
        if len(levels) > 1 and final > tol["ratio_floor"]:
            prev = sups[c][-2]
            if prev / final < tol["min_ratio"]:
                ok = False
    write_json(outdir / "nc_verify.json", {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "solution": spec.name,
        "records": records,
        "pass": bool(ok),
    })
    return 0 if ok else 1


def run_solve(cfg: dict, outdir: Path, seed: int) -> int:
    tol = _tolerances(cfg)
    domain = _domain(cfg)
    bc, spec = _bc(cfg, domain)
    rule_cfg = _require(cfg, "rule")
    n = _number(_require(rule_cfg, "n"), int, "rule.n")
    if n < 8:
        raise ConfigurationError(f"solve needs n >= 8, got {n}")
    family = rule_cfg.get("family", "gauss-legendre")
    rule = build_rule(family, n, domain.a1, domain.b1)
    report = solve_problem(domain, bc, rule, cond_threshold=tol["cond_threshold"])
    system = report.system
    probe = compactness_probe(system)
    if cfg.get("dump_system"):
        dump_system(system, outdir / "system.bin")

    write_csv(outdir / "traces.csv",
              ["x1", "re_u1", "im_u1", "re_u2", "im_u2"],
              [(x, u1.real, u1.imag, u2.real, u2.imag)
               for x, u1, u2 in zip(rule.nodes, report.u_lower, report.u_upper)])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "n": n,
        "family": family,
        "method": report.method,
        "residual_norm": report.residual_norm,
        "condition_estimate": report.condition_estimate,
        "singular_value_ratios": {str(k): v for k, v in probe.ratios.items()},
        "interior_samples": [
            {"x1": pt[0], "x2": pt[1], "re": val.real, "im": val.imag}
            for (pt, val) in report.interior_samples
        ],
        "warnings": report.warnings,
    }
    ok = report.residual_norm <= 1e-8 * max(1.0, float(np.max(np.abs(system.rhs))))
    payload["pass"] = bool(ok)
    write_json(outdir / "solve_report.json", payload)
    return 0 if ok else 1


def run_convergence(cfg: dict, outdir: Path, seed: int) -> int:
    tol = _tolerances(cfg)
    domain = _domain(cfg)
    bc, spec = _bc(cfg, domain)
    levels = [_number(v, int, "rule.levels")
              for v in cfg.get("rule", {}).get("levels", [64, 128, 256])]
    family = cfg.get("rule", {}).get("family", "gauss-legendre")
    table = convergence_sweep(domain, bc, levels, family=family, truth=spec,
                              cond_threshold=tol["cond_threshold"],
                              delta=tol["window_delta"])
    ok = True
    if spec is not None and len(levels) > 1:
        errs = [row["trace_error"] for row in table.levels]
        for e0, e1 in zip(errs, errs[1:]):
            if e1 > max(e0, tol["ratio_floor"]):
                ok = False
    write_json(outdir / "convergence.json", {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "levels": table.levels,
        "ratios": table.ratios,
        "pass": bool(ok),
    })
    return 0 if ok else 1


TASKS = {
    "kernel-check": run_kernel_check,
    "pv-check": run_pv_check,
    "nc-verify": run_nc_verify,
    "solve": run_solve,
    "convergence": run_convergence,
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
        if name == "nc-verify":
            p.add_argument("--solution", default=None,
                           help="override the manufactured solution name")
            p.add_argument("--conditions", default=None,
                           help="comma-separated condition ids")
            p.add_argument("--levels", default=None,
                           help="comma-separated rule sizes, e.g. 64,128,256")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        task_in_cfg = cfg.get("task")
        if task_in_cfg is not None and task_in_cfg != args.task:
            raise ConfigurationError(
                f"config task {task_in_cfg!r} does not match subcommand {args.task!r}")
        if args.task == "nc-verify":
            if args.solution is not None:
                cfg.setdefault("bc", {"alpha1": 1.0, "alpha2": 2.0})
                cfg["bc"]["phi"] = {"solution": {"name": args.solution}}
            if args.conditions is not None:
                cfg["conditions"] = [c.strip() for c in args.conditions.split(",")]
            if args.levels is not None:
                try:
                    levels = [int(v) for v in args.levels.split(",")]
                except ValueError as exc:
                    raise ConfigurationError(f"bad --levels value {args.levels!r}") from exc
                cfg.setdefault("rule", {})["levels"] = levels
        seed = args.seed if args.seed is not None else _number(cfg.get("seed", 42), int, "seed")
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        status = TASKS[args.task](cfg, outdir, seed)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CbieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
