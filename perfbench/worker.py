"""One workload in one process: set-up, timed rounds, output checks.

Run through run.py, which starts this file once per measurement and once
per extra set-up sample.  The last line of standard output is a JSON
object with this process's measurements.

Every operation is one `experiments.run_*` call, the same call the CLI
subcommand makes.  Before each one every lru_cache in the package is
cleared, because each CLI invocation is a fresh process that pays for its
cache fills.  One client issues the operations back to back (a closed
loop) with threads=1.

A run repeats the pass its seed draws, round after round, and times each
operation by its median over the rounds.  Drifts of the host's speed that
last the whole run are taken out by the probe in hostspeed.py: every time
reported is scaled to the probe's reference speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OUT_DIR = HERE / "out"
# Every operation's median rests on at least this many calls, even when
# one round takes more than half of --seconds (system-report does).
MIN_ROUNDS = 2


def setup(workload: str, seed: int):
    """Cold import plus config parsing for the pass the seed draws."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ckngb  # noqa: F401
    from ckngb import experiments

    ops = [
        (op, experiments.parse_config(json.loads(json.dumps(op.doc))))
        for op in workloads.generate_pass(workload, seed)
    ]
    return time.perf_counter() - start, experiments, ops


class Runner:
    """Executes operations, times them and checks their outputs."""

    def __init__(self, experiments, reference: dict, probe=None):
        self.experiments = experiments
        self.reference = reference
        self.probe = probe  # a hostspeed.Probe to time before each operation
        self.probe_times: list[float] = []
        self.caches = tracing.find_caches()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, command: str, spec):
        ex = self.experiments
        calls = {
            "tiesets": ex.run_tiesets,
            "sntf-pmf": ex.run_sntf_pmf,
            "sntf-moments": ex.run_sntf_moments,
            "ttf": ex.run_ttf,
            "simulate-sntf": lambda s: ex.run_simulate(s, target="sntf"),
            "simulate-ttf": lambda s: ex.run_simulate(s, target="ttf"),
            "validate": ex.run_validate,
            "sweep-msntf": ex.run_sweep_msntf,
            "sweep-scv": ex.run_sweep_scv,
        }
        return calls[command](spec)

    def run(self, op, spec, tracer=None):
        """Returns (seconds, result); a raised error or a failed check
        counts the operation as failed and yields result None."""
        for cache in self.caches.values():
            cache.cache_clear()
        gc.collect()  # the previous operation's garbage is not this one's cost
        if self.probe is not None:
            self.probe_times.append(self.probe.time())
        self.attempted += 1
        op_id = self.attempted
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.call(op.command, spec)
            else:
                result = tracer.run_op(op_id, op.command, lambda: self.call(op.command, spec))
        except Exception as exc:  # a failing operation is a measured outcome
            elapsed = time.perf_counter() - start
            self.fail(f"{op.key}: raised {type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - start
        problems = checks.check(op.command, op.key, spec, result, self.reference)
        if problems:
            self.fail(*problems)
            return elapsed, None
        return elapsed, result

    def fail(self, *problems: str) -> None:
        self.failed += 1
        self.problems.extend(problems[:3])

    def run_pass(self, ops, tracer=None) -> list[float]:
        return [self.run(op, spec, tracer)[0] for op, spec in ops]


def measure(runner: Runner, ops, seconds: float) -> list[list[float]]:
    """At least MIN_ROUNDS rounds over the pass, then more until another
    would overrun the time budget; returns each operation's times, one per
    round."""
    rounds: list[list[float]] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - start + statistics.median(map(sum, rounds)) <= seconds
    ):
        rounds.append(runner.run_pass(ops))
    return [list(times) for times in zip(*rounds)]


def thread_speedup(runner: Runner, experiments, seed: int) -> float:
    """Time of the n = 12 sweep slices at threads=1 over threads=2."""
    totals = {}
    outputs = {}
    for threads in (1, 2):
        total = 0.0
        for op in workloads.thread_probe_ops(seed):
            spec = replace(experiments.parse_config(op.doc), threads=threads)
            elapsed, result = runner.run(op, spec)
            total += elapsed
            outputs[(op.command, threads)] = result
        totals[threads] = total
    for command in ("sweep-msntf", "sweep-scv"):
        if outputs[(command, 1)] != outputs[(command, 2)]:
            runner.fail(f"{command}: threads=2 output differs from threads=1")
    return totals[1] / totals[2]


def traced_metrics(runner: Runner, experiments, ops, seed: int, workload: str) -> dict:
    """Each operation of one pass runs untraced and traced back to back, in
    alternating order, so the overhead estimate sees the same machine state
    on both sides; then the reference system runs traced and the thread
    probe untraced.  Layer seconds cover the traced pass plus the reference
    system; counts and ratios cover the pass."""
    tracer = tracing.Tracer(runner.caches)
    outer, ratios = [], []
    for index, (op, spec) in enumerate(ops):
        times = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    times[traced] = runner.run(op, spec, tracer)[0]
            else:
                times[traced] = runner.run(op, spec)[0]
        outer.append(times[True])
        ratios.append(times[True] / times[False])

    # Times only: the reference system keeps every layer's time measured
    # (nonzero) on every workload without changing the pass's counts.
    tracer.counting = False
    with tracer.installed():
        outer += runner.run_pass(
            [(op, experiments.parse_config(op.doc)) for op in workloads.reference_ops()], tracer
        )
    speedup = thread_speedup(runner, experiments, seed)

    self_times = tracer.self_times()
    metrics = {f"{metric}.s": self_times.get(metric, 0.0) for _, _, metric in tracing.LAYERS}
    metrics[f"{tracing.DRIVER}.s"] = self_times.get(tracing.DRIVER, 0.0)
    counts = tracer.counts
    sim_seconds = metrics["montecarlo.simulate_sntf.s"] + metrics["montecarlo.simulate_ttf.s"]
    cache_totals = [sum(stats[i] for stats in tracer.cache_stats.values()) for i in (0, 1)]
    metrics.update({
        "tiesets.count": counts["tiesets.count"],
        "chain.build.calls": counts["chain.build.calls"],
        "chain.build.cache_hit_ratio": tracer.cache_hit_ratio("chain.build_consolidated"),
        "chain.states": counts["chain.states"],
        "chain.nnz": counts["chain.nnz"],
        "chain.bytes_computed": counts["chain.bytes_computed"],
        "ttf.compound_dim": counts["ttf.compound_dim"],
        "montecarlo.reps": counts["montecarlo.reps"],
        "montecarlo.reps_per_s": (
            (counts["montecarlo.reps"] + tracer.uncounted["montecarlo.reps"]) / sim_seconds
        ),
        "experiments.ops": len(ops),
        "experiments.grid_points": sum(
            checks.grid_points(op.command, spec) for op, spec in ops if op.command.startswith("sweep-")
        ),
        "experiments.threads2_speedup": speedup,
        "cache.hits": cache_totals[0],
        "cache.misses": cache_totals[1],
        "trace.overhead": statistics.median(ratios) - 1.0,
        "trace.accounted_share": sum(self_times.values()) / sum(outer),
        "trace.spans": len(tracer.spans),
    })

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.dump(), "caches": tracer.cache_stats}, fh)
    print(json.dumps({"caches": tracer.cache_stats}))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup_raw_s, experiments, ops = setup(args.workload, args.seed)
    probe = hostspeed.Probe()
    setup_s = setup_raw_s * hostspeed.scale(probe.times(hostspeed.AFTER_SETUP))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    runner = Runner(experiments, reference, None if args.trace else probe)

    if args.trace:
        metrics = traced_metrics(runner, experiments, ops, args.seed, args.workload)
    else:
        op_times = measure(runner, ops, args.seconds)
        host_scale = hostspeed.scale(runner.probe_times)
        print(json.dumps({
            "host_scale": host_scale,
            "setup_raw_s": setup_raw_s,
            "probe_s": runner.probe_times,
            "ops": [{"key": op.key, "raw_times_s": times} for (op, _), times in zip(ops, op_times)],
        }))
        # The rounds repeat the same calls, so the spread among one
        # operation's calls is the host's; the package's is among operations.
        medians = [statistics.median(times) * host_scale for times in op_times]
        metrics = {
            "wall_s": sum(medians),
            "op_p50_s": statistics.median(medians),
            "op_tail_s": max(medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - runner.failed / runner.attempted,
            "rounds": len(op_times[0]),
        }

    import numpy
    import scipy

    print(json.dumps({
        "setup_s": setup_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
