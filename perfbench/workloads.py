"""Workload definitions: which `experiments.run_*` calls make up one pass.

A run draws one pass from its seed and repeats it.  Every input is drawn
from a fixed pool, so `reference.json` (written by `record.py`) holds the
expected output of every operation any seed can produce.  The seed draws
the unit reliabilities r (and, for the sweeps, which shock preset goes
with which balance condition), which change the outputs but not the
amount of work; the systems themselves are fixed because n, k and the
balance condition set the chain size: a seed that drew them would change
the work per pass by orders of magnitude.

This module imports nothing from the package under test, so the worker
can time the cold import as part of its set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BCS = ("BC1", "BC2", "BC3")
PRESETS = ("ER", "EXP", "HE")

# figure-sweeps: the grids of scripts/msntf_surfaces.py (r levels) and
# scripts/scv_heatmap.py (one r level, three presets) over n = 3..12 and
# every k.  An operation is one figure panel, the sweep call a user makes
# for one surface or heatmap: a (bc, r) panel of mean shock counts or a
# (bc, preset) panel of failure-time SCV.  A pass holds one r level for
# every bc and one scv panel per bc, the three presets shared out among
# the three bcs, so the seeds between them make the figures of both
# scripts.
SWEEP_N = tuple(range(3, 13))
MSNTF_R_POOL = (0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
SCV_R_POOL = (0.7, 0.8, 0.9, 0.95)

# system-report: one dense n = 12 chain and one sparse n = 14 chain, each
# through the descriptive-case command set; validate only at n = 12.  The
# r pools are narrow because simulated failure times cost about 1/(1 - r):
# over [0.6, 0.95] that cost varies 2.5x from seed to seed.
REPORT_SYSTEMS = (
    # (n, k, bc, preset, r pool, commands)
    (12, 4, "BC3", "HE", (0.86, 0.88, 0.9, 0.92),
     ("tiesets", "sntf-pmf", "sntf-moments", "ttf", "simulate-sntf", "simulate-ttf", "validate")),
    (14, 4, "BC2", "ER", (0.76, 0.78, 0.8, 0.82),
     ("tiesets", "sntf-pmf", "sntf-moments", "ttf", "simulate-sntf", "simulate-ttf")),
)

# tieset-scan: the tiesets command alone, at sizes where the balance table
# and the tie-set scan dominate and no chain is built.  n = 18 has k = 4
# only: k = 6 doubles the pass (2-3 s per call), and a short pass lets a
# run repeat each call often enough for its median to settle.
SCAN_R_POOL = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
SCAN_SYSTEMS = tuple(
    (n, k, bc)
    for n, ks in ((16, (3, 5, 7)), (18, (4,)))
    for k in ks
    for bc in ("BC2", "BC3")
)

# The paper's 2-out-of-4 reference system: a traced run ends with it so
# that every layer is measured on every workload.
REFERENCE_SYSTEM = (4, 2, "BC3", "ER", 0.7)
REFERENCE_COMMANDS = REPORT_SYSTEMS[0][5]


@dataclass(frozen=True)
class Op:
    """One CLI subcommand call: the command, its config document and the
    key of its expected output in reference.json."""

    command: str
    doc: dict
    key: str


def _system_doc(n: int, k: int, bc: str, r: float, preset: str | None) -> dict:
    doc = {"n": n, "k": k, "r": r, "bc": bc, "threads": 1}
    if preset is not None:
        doc["shock"] = {"preset": preset}
    return doc


def system_key(n: int, k: int, bc: str, r: float, preset: str | None = None) -> str:
    return f"{n}|{k}|{bc}|{r!r}" + (f"|{preset}" if preset else "")


def system_ops(n: int, k: int, bc: str, r: float, preset: str, commands) -> list[Op]:
    doc = _system_doc(n, k, bc, r, preset)
    return [Op(cmd, doc, f"{cmd}|{system_key(n, k, bc, r, preset)}") for cmd in commands]


def sweep_op(command: str, ns, bcs, r: float, preset: str | None = None) -> Op:
    doc = {"n": list(ns), "k": list(range(2, max(ns))), "r": [r], "bc": list(bcs), "threads": 1}
    if preset is not None:
        doc["shock"] = {"preset": [preset]}
    return Op(command, doc, f"{command}|{'/'.join(bcs)}|{r!r}|{preset}")


def figure_sweeps_pass(rng: random.Random) -> list[Op]:
    msntf_r = rng.choice(MSNTF_R_POOL)
    scv_r = rng.choice(SCV_R_POOL)
    presets = rng.sample(PRESETS, len(BCS))
    return [sweep_op("sweep-msntf", SWEEP_N, (bc,), msntf_r) for bc in BCS] + [
        sweep_op("sweep-scv", SWEEP_N, (bc,), scv_r, preset) for bc, preset in zip(BCS, presets)
    ]


def system_report_pass(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for n, k, bc, preset, r_pool, commands in REPORT_SYSTEMS:
        ops += system_ops(n, k, bc, rng.choice(r_pool), preset, commands)
    return ops


def tieset_scan_pass(rng: random.Random) -> list[Op]:
    return [
        system_ops(n, k, bc, rng.choice(SCAN_R_POOL), None, ("tiesets",))[0]
        for n, k, bc in SCAN_SYSTEMS
    ]


def reference_ops() -> list[Op]:
    n, k, bc, preset, r = REFERENCE_SYSTEM
    return system_ops(n, k, bc, r, preset, REFERENCE_COMMANDS)


PASS_BUILDERS = {
    "figure-sweeps": figure_sweeps_pass,
    "system-report": system_report_pass,
    "tieset-scan": tieset_scan_pass,
}
WORKLOADS = tuple(PASS_BUILDERS)


def generate_pass(workload: str, seed: int) -> list[Op]:
    return PASS_BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def thread_probe_ops(seed: int) -> list[Op]:
    """The n = 12 part of one figure-sweeps pass, all bc in one call each,
    so that a thread pool has 30 grid points to share."""
    rng = random.Random(f"thread-probe:{seed}")
    return [
        sweep_op("sweep-msntf", (12,), BCS, rng.choice(MSNTF_R_POOL)),
        sweep_op("sweep-scv", (12,), BCS, rng.choice(SCV_R_POOL), rng.choice(PRESETS)),
    ]
