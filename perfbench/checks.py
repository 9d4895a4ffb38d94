"""Output checks: every operation against reference.json, plus invariants.

Numbers match a reference when |got - want| <= RTOL * |want| + ATOL.  The
tolerances accept rounding-level differences from a reordered or faster
algorithm and nothing larger.  Invariants that hold for any correct
output are checked as well:

* pmf >= 0, and the pmf summed to m_max plus the survival at m_max is 1;
* survival is nonincreasing (shock count and failure time);
* mttf agrees with mttf_wald (Wald's identity);
* a simulated mean lies within its 99% interval of the analytic mean;
* every row of `validate` passes.

Each function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import hashlib
import math

RTOL = 1e-9
ATOL = 1e-12
WALD_RTOL = 1e-9
MONOTONE_SLACK = 1e-12
INFEASIBLE = "infeasible"


def close(got, want) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return math.isfinite(got) and abs(got - want) <= RTOL * abs(want) + ATOL


def _compare_series(name: str, got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, reference has {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if not close(g, w)]
    if bad:
        i = bad[0]
        return [f"{name}[{i}]: {got[i]!r} vs reference {want[i]!r} ({len(bad)} mismatches)"]
    return []


def _nonincreasing(name: str, values: list) -> list[str]:
    for i in range(1, len(values)):
        if values[i] > values[i - 1] + MONOTONE_SLACK:
            return [f"{name}: increases at index {i}"]
    return []


def summarize_tiesets(text: str) -> dict:
    """Reference form of `run_tiesets` output."""
    lines = text.splitlines()
    count = int(lines[0].split(",")[1])
    ties = lines[1:-2]
    return {
        "count": count,
        "ties": len(ties),
        "sha256": hashlib.sha256("\n".join(ties).encode()).hexdigest(),
        "exact": float(lines[-2].split(",")[1]),
        "product": float(lines[-1].split(",")[1]),
    }


def canonical(command: str, result) -> object:
    """The part of a `run_*` result that reference.json records."""
    if command == "tiesets":
        return summarize_tiesets(result)
    if command == "sntf-pmf":
        return {"pmf": [row["pmf"] for row in result], "survival": [row["survival"] for row in result]}
    if command == "sntf-moments":
        row = result[0]
        return {key: row[key] for key in ("msntf", "second_moment", "variance")}
    if command == "ttf":
        rows, summary = result
        return {
            "pdf": [row["pdf"] for row in rows],
            "survival": [row["survival"] for row in rows],
            **summary,
        }
    if command == "validate":
        return [row["check"] for row in result]
    if command == "sweep-msntf":
        return {sweep_row_key(command, row): row["msntf"] for row in result}
    if command == "sweep-scv":
        return {
            sweep_row_key(command, row): (
                INFEASIBLE if row["mttf"] == INFEASIBLE else [row["mttf"], row["mttf_wald"], row["scv"]]
            )
            for row in result
        }
    raise ValueError(f"no reference form for {command}")


def sweep_row_key(command: str, row: dict) -> str:
    preset = f"|{row['preset']}" if "preset" in row else ""
    return f"{command}|{row['bc']}{preset}|{row['n']}|{row['k']}|{row['r']!r}"


def grid_points(command: str, spec) -> int:
    """Rows a sweep over `spec` yields: 2 <= k <= n - 1 on the whole grid."""
    per_nk = len(spec.bc) * len(spec.r) * (len(spec.presets) if command == "sweep-scv" else 1)
    return per_nk * sum(1 for n in spec.n for k in spec.k if 2 <= k <= n - 1)


def _check_sweep(command: str, result, ref: dict, expected_rows: int) -> list[str]:
    problems = []
    if len(result) != expected_rows:
        problems.append(f"{command}: {len(result)} rows, expected {expected_rows}")
    for key, value in canonical(command, result).items():
        want = ref.get(key)
        if want is None:
            problems.append(f"{key}: no reference")
        elif isinstance(want, list):
            if value == INFEASIBLE or not all(close(g, w) for g, w in zip(value, want)):
                problems.append(f"{key}: {value!r} vs reference {want!r}")
            elif abs(value[0] - value[1]) > WALD_RTOL * abs(value[1]):
                problems.append(f"{key}: mttf {value[0]!r} disagrees with mttf_wald {value[1]!r}")
        elif not close(value, want):
            problems.append(f"{key}: {value!r} vs reference {want!r}")
    return problems


def check(command: str, key: str, spec, result, ref: dict) -> list[str]:
    """Problems with one operation's result; `spec` is its ExperimentSpec."""
    if command in ("sweep-msntf", "sweep-scv"):
        return _check_sweep(command, result, ref, grid_points(command, spec))

    if command.startswith("simulate-"):
        sim, rows = result
        system = key.split("|", 1)[1]
        if command == "simulate-sntf":
            analytic = ref[f"sntf-moments|{system}"]["msntf"]
        else:
            analytic = ref[f"ttf|{system}"]["mttf"]
        problems = []
        if sim.replications != spec.reps or sum(row["count"] for row in rows) != spec.reps:
            problems.append(f"{key}: histogram does not hold {spec.reps} replications")
        half = sim.half_width(0.99)
        if not abs(sim.mean - analytic) <= half:
            problems.append(f"{key}: simulated mean {sim.mean!r} outside {analytic!r} +/- {half!r}")
        return problems

    want = ref.get(key)
    if want is None:
        return [f"{key}: no reference"]
    got = canonical(command, result)

    if command == "tiesets":
        problems = [f"{key}.{name}: {got[name]!r} vs reference {want[name]!r}"
                    for name in ("count", "ties", "sha256") if got[name] != want[name]]
        problems += [f"{key}.{name}: {got[name]!r} vs reference {want[name]!r}"
                     for name in ("exact", "product") if not close(got[name], want[name])]
        if not 0.0 <= got["exact"] <= 1.0:
            problems.append(f"{key}: exact reliability {got['exact']!r} outside [0, 1]")
        return problems

    if command == "sntf-pmf":
        problems = _compare_series(f"{key}.pmf", got["pmf"], want["pmf"])
        problems += _compare_series(f"{key}.survival", got["survival"], want["survival"])
        if min(got["pmf"]) < 0.0:
            problems.append(f"{key}: negative pmf")
        defect = abs(math.fsum(got["pmf"]) + got["survival"][-1] - 1.0)
        if defect > 1e-12:
            problems.append(f"{key}: pmf sum plus tail survival misses 1 by {defect:.3e}")
        return problems + _nonincreasing(f"{key}.survival", got["survival"])

    if command == "sntf-moments":
        return [f"{key}.{name}: {got[name]!r} vs reference {want[name]!r}"
                for name in want if not close(got[name], want[name])]

    if command == "ttf":
        problems = _compare_series(f"{key}.pdf", got["pdf"], want["pdf"])
        problems += _compare_series(f"{key}.survival", got["survival"], want["survival"])
        problems += [f"{key}.{name}: {got[name]!r} vs reference {want[name]!r}"
                     for name in ("mttf", "mttf_wald", "scv") if not close(got[name], want[name])]
        if abs(got["mttf"] - got["mttf_wald"]) > WALD_RTOL * abs(got["mttf_wald"]):
            problems.append(f"{key}: mttf disagrees with mttf_wald")
        return problems + _nonincreasing(f"{key}.survival", got["survival"])

    if command == "validate":
        problems = [f"{key}: check {row['check']} failed ({row['detail']})"
                    for row in result if row["result"] != "pass"]
        if got != want:
            problems.append(f"{key}: checks {got!r}, reference has {want!r}")
        return problems

    raise ValueError(f"no check for {command}")
