"""Record reference.json: the expected output of every operation that any
seed can draw (see the pools in workloads.py).

    python3 perfbench/record.py

Run it only on a commit whose outputs are trusted; the benchmark then
compares every later run against these values.  Simulations are not
recorded; their check is the 99% interval around the recorded analytic
mean, and this script fails if any pool entry misses it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import workloads as wl
from worker import Runner

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ckngb import experiments  # noqa: E402


def main() -> int:
    reference: dict = {}
    runner = Runner(experiments, reference)

    recorded = []
    for command, pool in (("sweep-msntf", wl.MSNTF_R_POOL), ("sweep-scv", wl.SCV_R_POOL)):
        for n in wl.SWEEP_N:
            for bc in wl.BCS:
                doc = {"n": [n], "k": list(range(2, n)), "r": list(pool), "bc": [bc]}
                if command == "sweep-scv":
                    doc["shock"] = {"preset": list(wl.PRESETS)}
                op = wl.Op(command, doc, f"{command}|{n}|{bc}")
                spec = experiments.parse_config(op.doc)
                result = runner.call(command, spec)
                reference.update(checks.canonical(command, result))
                recorded.append((op, spec, result))
        print(f"{command}: done", flush=True)

    systems = [(n, k, bc, preset, commands, r)
               for n, k, bc, preset, r_pool, commands in wl.REPORT_SYSTEMS for r in r_pool]
    systems += [(n, k, bc, None, ("tiesets",), r) for n, k, bc in wl.SCAN_SYSTEMS for r in wl.SCAN_R_POOL]
    n, k, bc, preset, r = wl.REFERENCE_SYSTEM
    systems.append((n, k, bc, preset, wl.REFERENCE_COMMANDS, r))

    for n, k, bc, preset, commands, r in systems:
        for op in wl.system_ops(n, k, bc, r, preset, commands):
            spec = experiments.parse_config(op.doc)
            result = runner.call(op.command, spec)
            if not op.command.startswith("simulate-"):
                reference[op.key] = checks.canonical(op.command, result)
            recorded.append((op, spec, result))
        print(f"system {n} {k} {bc} {preset} r={r}: done", flush=True)

    problems = [p for op, spec, result in recorded
                for p in checks.check(op.command, op.key, spec, result, reference)]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(reference)} reference entries written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
