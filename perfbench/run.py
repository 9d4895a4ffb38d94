"""Benchmark of the ckngb package on the paper's workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py and described in BENCHMARK.json.
With --trace 0 the pass the seed draws is repeated untraced for about S
seconds and the end-to-end metrics are reported; set-up time is the
median of several fresh processes.  With --trace 1 each operation of the
pass runs untraced and traced, and the per-layer metrics are reported.

Every line but the last is a JSON record (environment, per-cache
statistics, problems found).  The last line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only
when every operation produced a correct output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5  # the measuring process plus four set-up-only processes
RUN_LIMIT_S = 175.0
# One client on one core: the package runs with threads=1, and so does BLAS.
# Bytecode is cached as it is for an installed package, whatever the caller's
# environment says, so set-up time means the same on every machine.
WORKER_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _units(spec: list) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec}


def _worker(args: argparse.Namespace, timeout: float, *extra: str) -> dict:
    """Run worker.py, echo its records, return its last line."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="ckngb benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ckngb" / "__init__.py").is_file():
        sys.stderr.write(f"no ckngb sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload}\n")
        return 2
    wanted = _units(bench["per_layer" if args.trace else "end_to_end"])

    began = time.monotonic()
    load_start = os.getloadavg()
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(_worker(args, 60.0, "--setup-only")["setup_s"])
    result = _worker(args, RUN_LIMIT_S - (time.monotonic() - began))
    setup_samples.append(result["setup_s"])

    measured = dict(result["metrics"], setup_s=statistics.median(setup_samples))
    missing = sorted(set(wanted) - set(measured))
    if missing:
        sys.stderr.write(f"metrics not measured: {missing}\n")
        return 2

    print(json.dumps({"env": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "setup_samples_s": setup_samples,
        "rounds": result["metrics"].get("rounds"),
    }}))
    for problem in result["problems"]:
        print(json.dumps({"problem": problem}))

    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
