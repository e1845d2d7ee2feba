"""Closed-loop benchmark of cbie's command-line tasks.

    python3 bench/run.py --workload solve-512 --seed 1 --seconds 55 --trace 0

Run it from the root of a cbie source tree; it imports cbie from ``src/``.
One caller in one process runs the workload's operations one after another,
each on a fresh input drawn from the seed, and checks every output
(``workloads.py``).  It prints one informational line, then as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter importing cbie.cli
  op_p50_s     median wall time of one warm cbie.cli.main([...]) call in this
               process, leaving out the process's first operation
  cli_wall_s   median wall time of one complete ``python -m cbie.cli <task>``
  peak_rss_mb  median peak RSS of that child, from its own rusage
``--trace 1`` wraps cbie's module boundaries (``tracing.py``) and gives the
per-layer metrics, as means per warm operation, plus ``geometry.import_s``
from ``-X importtime`` and ``traced_op_p50_s`` (minus op_p50_s: the tracing
overhead).

Every process, this one and its children, runs with BLAS_THREADS BLAS
threads, set before numpy loads.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# per-layer metric -> (span name, "s" for self seconds or "calls"), per warm op
SPAN_METRICS = {
    "quadrature.build_rule_s": ("quadrature.build_rule", "s"),
    "quadrature.pv_weight_matrix_s": ("quadrature.pv_weight_matrix", "s"),
    "quadrature.log_weight_matrix_s": ("quadrature.log_weight_matrix", "s"),
    "quadrature.partial_integral_matrix_s": ("quadrature.partial_integral_matrix", "s"),
    "quadrature.partial_integral_functional_s": ("quadrature.partial_integral_functional", "s"),
    "quadrature.partial_integral_functional_calls": ("quadrature.partial_integral_functional",
                                                     "calls"),
    "conditions.build_operators_s": ("conditions.build_operators", "s"),
    "conditions.build_operators_calls": ("conditions.build_operators", "calls"),
    "conditions.condition_report_s": ("conditions.condition_report", "s"),
    "manufactured.eval_solution_s": ("manufactured.eval_solution", "s"),
    "manufactured.eval_solution_calls": ("manufactured.eval_solution", "calls"),
    "assembly.assemble_s": ("assembly.assemble", "s"),
    "assembly.assemble_calls": ("assembly.assemble", "calls"),
    "assembly.compactness_probe_s": ("assembly.compactness_probe", "s"),
    "solver.solve_system_s": ("solver.solve_system", "s"),
    "solver.trace_from_solution_s": ("solver.trace_from_solution", "s"),
    "solver.reconstruct_interior_s": ("solver.reconstruct_interior", "s"),
    "solver.reconstruct_interior_calls": ("solver.reconstruct_interior", "calls"),
    "linalg.svd_calls": ("linalg.svd", "calls"),
    "linalg.svd_s": ("linalg.svd", "s"),
    "linalg.solve_s": ("linalg.solve", "s"),
    "cli.write_s": ("cli.write", "s"),
}


class Fatal(Exception):
    """The benchmark itself cannot run (not a failed operation)."""


class Bench:
    def __init__(self, workload, seed: int, run_dir: Path, launcher):
        import cbie.cli

        self.cli = cbie.cli
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.run_dir = run_dir
        self.launcher = launcher
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    # -- child processes ----------------------------------------------------

    def child(self, argv: list, stderr_path: Path) -> tuple:
        """Run a child to its end through the launcher: (wall s, peak RSS MB, exit code)."""
        self.launcher.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise Fatal(f"launcher exited with status {self.launcher.wait()}")
        result = json.loads(reply)
        return result["wall"], result["maxrss_kb"] / 1024.0, result["status"]

    def setup_sample(self) -> float:
        path = self.run_dir / "setup.err"
        wall, _, code = self.child([sys.executable, "-c", "import cbie.cli"], path)
        if code != 0:
            raise Fatal(f"import cbie.cli exited {code}: {path.read_text()[-2000:]}")
        return wall

    def import_sample(self) -> float:
        """Cumulative import time of cbie.geometry, from -X importtime."""
        path = self.run_dir / "importtime.err"
        _, _, code = self.child([sys.executable, "-X", "importtime", "-c", "import cbie.cli"],
                                path)
        for line in path.read_text().splitlines():
            fields = line.split("|")
            if code == 0 and len(fields) == 3 and fields[2].strip() == "cbie.geometry":
                return int(fields[1]) / 1e6
        raise Fatal(f"no cbie.geometry line in -X importtime output (exit {code})")

    # -- operations ---------------------------------------------------------

    def _new_op(self) -> tuple:
        self.ops += 1
        op_dir = self.run_dir / f"op{self.ops}"
        op_dir.mkdir()
        cfg = self.workload.draw(self.rng)
        (op_dir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        args = [self.workload.task, "--config", str(op_dir / "config.json"),
                "--out", str(op_dir / "out")]
        return cfg, op_dir, args

    def _finish(self, cfg: dict, op_dir: Path, status) -> None:
        self.attempted += 1
        if status != 0:
            self.failed += 1
            print(f"operation {op_dir.name} failed: exit status {status}", file=sys.stderr)
            return
        try:
            problems = self.workload.check(cfg, op_dir / "out")
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.incorrect += 1
            print(f"operation {op_dir.name} is wrong: {'; '.join(problems[:5])}",
                  file=sys.stderr)
            return
        shutil.rmtree(op_dir)

    def warm(self) -> float:
        cfg, op_dir, args = self._new_op()
        start = time.perf_counter()
        try:
            status = self.cli.main(args)
        except Exception:  # a crash is a failed operation; keep measuring
            traceback.print_exc()
            status = None
        elapsed = time.perf_counter() - start
        self._finish(cfg, op_dir, status)
        return elapsed

    def cold(self) -> tuple:
        cfg, op_dir, args = self._new_op()
        wall, rss, status = self.child([sys.executable, "-m", "cbie.cli", *args],
                                       op_dir / "stderr.txt")
        self._finish(cfg, op_dir, status)
        return wall, rss


def run_rounds(deadline: float, one_round) -> int:
    """Run whole rounds while the next one, as long as the last, ends by
    the deadline; always at least one."""
    rounds = 0
    while True:
        start = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return rounds


def measure(bench: Bench, deadline: float) -> tuple:
    k = bench.workload.warm_per_round
    setup, ops, walls, rss = [], [], [], []

    def one_round():
        setup.append(bench.setup_sample())
        wall, peak = bench.cold()
        walls.append(wall)
        rss.append(peak)
        ops.extend(bench.warm() for _ in range(k))

    rounds = run_rounds(deadline, one_round)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "cli_wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"setup_s": setup, "op_s": ops, "cli_wall_s": walls, "peak_rss_mb": rss}
    return rounds, metrics, samples


def measure_traced(bench: Bench, deadline: float, trace_path: Path) -> tuple:
    from tracing import Tracer
    import cbie.conditions

    build_operators = cbie.conditions.build_operators
    misses0 = build_operators.cache_info().misses
    tracer = Tracer()
    imports, ops = [], []

    def one_round():
        imports.append(bench.import_sample())
        for _ in range(bench.workload.warm_per_round):
            tracer.op = bench.ops + 1
            ops.append(bench.warm())

    tracer.install()
    try:
        rounds = run_rounds(deadline, one_round)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    n = len(ops)
    metrics = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        if kind == "s":
            metrics[metric] = (tracer.self_ns[span] / 1e9 / n, "s")
        else:
            metrics[metric] = (tracer.calls[span] / n, "count")
    misses = build_operators.cache_info().misses - misses0
    metrics["conditions.build_operators_misses"] = (misses / n, "count")
    metrics["geometry.import_s"] = (statistics.median(imports), "s")
    metrics["traced_op_p50_s"] = (statistics.median(ops), "s")
    return rounds, metrics, {"geometry.import_s": imports, "traced_op_s": ops}


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "numpy": np.__version__, "python": sys.version.split()[0]}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    deadline = start + args.seconds

    if not (SRC / "cbie" / "cli.py").is_file():
        print(f"error: no cbie sources at {SRC}; run from a cbie source tree",
              file=sys.stderr)
        return 2
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    # started before this process loads numpy and grows, see spawn.py
    launcher = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawn.py"))],
                                cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
    try:
        return measure_and_report(args, workload, tag, run_dir, launcher, start, deadline)
    finally:
        launcher.stdin.close()
        launcher.wait()


def measure_and_report(args, workload, tag, run_dir, launcher, start, deadline) -> int:
    sys.path.insert(0, str(SRC))
    import cbie

    if Path(cbie.__file__).resolve().parent != SRC / "cbie":
        print(f"error: imported cbie from {cbie.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    bench = Bench(workload, args.seed, run_dir, launcher)
    try:
        bench.warm()  # the process's first operation pays one-time costs
        if args.trace:
            rounds, metrics, samples = measure_traced(bench, deadline,
                                                      OUT / f"{tag}.spans.json")
        else:
            rounds, metrics, samples = measure(bench, deadline)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in ("setup.err", "importtime.err"):
        (run_dir / name).unlink(missing_ok=True)
    if not any(run_dir.iterdir()):
        run_dir.rmdir()

    facts = machine_facts()
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "elapsed_s": time.perf_counter() - start,
              "rounds": rounds, "machine": facts, "samples": samples,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"# {workload.name} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"samples={ {k: len(v) for k, v in samples.items()} } "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    result = {
        "correct": bench.incorrect == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
