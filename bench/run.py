"""fracplate benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fracplate checkout; the package is imported from its
``src/`` tree.  Every CLI invocation runs ``fracplate.cli.main`` in a fresh
Python process (``child.py``), one at a time, with the default single probe
worker and BLAS limited to the cores this process may use.  Operations are
repeated until the next one would end past ``--seconds`` (at least
``MIN_OPS``); each is checked by the workload.  The last line of standard
output is the result JSON: end-to-end metrics with ``--trace 0``, per-layer
metrics from the traced run with ``--trace 1``.  Per-operation records go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from spans import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 3
SETUP_SAMPLES = 3  # import-only processes after one warm-up, per untraced run
RUN_LIMIT_S = 170.0  # children are killed past this, so a run ends within 180 s
RESULTS_DIR = os.path.join(".perfbench", "results")


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FRACPLATE_THREADS", None)  # the probe's default single worker
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src
    env["PERFBENCH_SRC"] = src
    return env


class Runner:
    """Starts one child process per CLI invocation and collects its record."""

    def __init__(self, root: str, workdir: str, trace: bool) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env(root)
        self.workdir = workdir
        self.trace = trace
        self._count = 0

    def invoke(self, argv: list[str]) -> dict:
        self._count += 1
        result = os.path.join(self.workdir, f"child-{self._count}.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), result]
        if self.trace:
            cmd.append("--trace")
        cmd += ["--", *argv]
        proc = subprocess.run(
            cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0 or not os.path.exists(result):
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"benchmark child failed on {argv[:1]}: exit {proc.returncode}")
        with open(result) as fh:
            rec = json.load(fh)
        os.remove(result)
        return rec


def measure(workload, runner: Runner, seconds: float) -> list[dict]:
    """Whole operations until the next would end past ``seconds``."""
    ops = []
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records, problems = workload.run(runner.invoke)
        walls.append(time.perf_counter() - t0)
        for p in problems:
            print(f"[{workload.name}] op {len(ops)}: {p}", file=sys.stderr)
        exit_failed = any(r["rc"] != 0 for r in records)
        ops.append({
            "failed": bool(problems),
            # checks run only when every invocation exited 0
            "wrong": bool(problems) and not exit_failed,
            "op_s": sum(r["op_s"] for r in records),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
            "import_s": [r["import_s"] for r in records],
            "layers": [r["layers"] for r in records if "layers" in r],
        })
        elapsed = time.perf_counter() - start
        if len(ops) >= MIN_OPS and elapsed + statistics.median(walls) > seconds:
            return ops


def end_to_end(ops: list[dict], setup_samples: list[float]) -> dict:
    imports = setup_samples + [s for op in ops for s in op["import_s"]]
    return {
        "op_s": {"value": statistics.median(op["op_s"] for op in ops), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(op["peak_rss_mb"] for op in ops), "unit": "MB",
        },
        "setup_s": {"value": statistics.median(imports), "unit": "s"},
    }


def per_layer(ops: list[dict]) -> dict:
    out = {}
    for name, unit in metric_names():
        # one operation may span several processes: sum them, then take the
        # median over operations
        per_op = [sum(layers[name] for layers in op["layers"]) for op in ops]
        out[name] = {"value": statistics.median(per_op), "unit": unit}
    out["traced.op_s"] = {"value": statistics.median(op["op_s"] for op in ops), "unit": "s"}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracplate", "cli.py")):
        print("no fracplate source tree at ./src/fracplate; run from the checkout root",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(root, workdir, bool(args.trace))
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_samples = []
        if not args.trace:
            runner.invoke([])  # warm-up: byte-compiles the checkout once
            setup_samples = [runner.invoke([])["import_s"] for _ in range(SETUP_SAMPLES)]
        workload.prepare()
        ops = measure(workload, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(ops) if args.trace else end_to_end(ops, setup_samples)
    result = {
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": metrics,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "result": result, "setup_samples": setup_samples,
                   "ops": ops}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
