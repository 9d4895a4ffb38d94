"""Experiment configuration and the drivers behind the CLI subcommands.

Configs are JSON documents with keys n, k, r, bc, shock plus per-command
numeric options.  Sweep commands accept lists (or {start, stop, step}
ranges for r) and evaluate the cartesian grid; single-system commands
insist on scalars.  All emitted tables are deterministically ordered so
repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from . import chain as chain_mod
from . import montecarlo, sntf, ttf
from .errors import CapacityExceeded, ConfigError, InvariantViolation, OddNUnsupported
from .system import BalanceCondition, SystemConfig
from .tiesets import (
    count_profile,
    enumerate_min_tiesets,
    system_reliability_exact,
    system_reliability_product,
    tieset_members,
)

DEFAULT_SEED = 20240
DEFAULT_REPS = 100_000
DEFAULT_M_MAX = 50
DEFAULT_Z_MAX = 10.0
DEFAULT_Z_STEPS = 200
DEFAULT_R_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))  # 0.05 .. 0.95
# Upper bounds on the integer options and the sweep grid, checked before
# any work (README, "Config file").  m_max, z_steps and the points of a
# sweep grid set the rows of a table built in full before it is written:
# 10^5 rows take 0.5-1.1 s (sntf-pmf, ttf) and under 80 MB, 10^5
# sweep points at n = 12 1.5-2.2 s and under 100 MB.  reps
# sets the length of every sample array: 2^25 replications take 6-10 s
# and 549 MB for shock counts, 9-21 s and 806 MB for failure times.
MAX_TABLE_ROWS = 10**5
MAX_REPS = 2**25

# The numeric options and their kinds; every one is positive but seed,
# which is nonnegative
_OPTIONS = {"m_max": int, "z_max": float, "z_steps": int, "reps": int, "seed": int, "threads": int}

INFEASIBLE = "infeasible"
# r values per block of a sweep's stacked count chains: a block at n = 12
# holds at most 10 chains of 13 states per r, 3.5 MB of one-step matrices
_R_BLOCK = 256


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description: parameter grids plus options."""

    n: tuple[int, ...]
    k: tuple[int, ...]
    r: tuple[float, ...]
    bc: tuple[BalanceCondition, ...]
    presets: tuple[str, ...] = ("ER",)
    shock: "ttf.ContinuousPhaseType | None" = None
    out: str | None = None
    m_max: int = DEFAULT_M_MAX
    z_max: float = DEFAULT_Z_MAX
    z_steps: int = DEFAULT_Z_STEPS
    reps: int = DEFAULT_REPS
    seed: int = DEFAULT_SEED
    # Read by nothing: sweeps run in one thread.  The key stays accepted
    # because the benchmark's configs set it and its thread probe replaces
    # this field.
    threads: int = 1

    def __post_init__(self) -> None:
        for name, kind in _OPTIONS.items():
            value = _number(getattr(self, name), name, kind)
            if not math.isfinite(value):
                raise ConfigError(f"{name}: must be finite, got {value}")
            if name == "seed" and value < 0:
                raise ConfigError(f"{name}: must be nonnegative")
            if name != "seed" and value <= 0:
                raise ConfigError(f"{name}: must be positive")
            object.__setattr__(self, name, value)
        if self.reps < 2:  # one sample has no variance, so no interval
            raise ConfigError(f"reps: must be at least 2, got {self.reps}")
        for name, bound in (
            ("m_max", MAX_TABLE_ROWS),
            ("z_steps", MAX_TABLE_ROWS),
            ("reps", MAX_REPS),
        ):
            value = getattr(self, name)
            if value > bound:
                raise CapacityExceeded(f"{name}: {value} exceeds the bound {bound}")

    def single(self) -> SystemConfig:
        for name, values in (
            ("n", self.n), ("k", self.k), ("r", self.r), ("bc", self.bc),
            ("shock.preset", self.presets),
        ):
            if len(values) != 1:
                raise ConfigError(f"{name}: this command needs a single value, got {len(values)}")
        return SystemConfig(self.n[0], self.k[0], self.r[0], self.bc[0], self.shock)


def _number(value: Any, path: str, kind: type = float) -> int | float:
    """A JSON number as kind, int or float.  Booleans and strings are
    refused; an int may be written as a float with no fractional part, so
    that 1e30 reaches the bound it exceeds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():  # also nan, inf
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an int past the largest float
        raise ConfigError(f"{path}: must be finite, got {value}") from None


def _int_list(value: Any, path: str) -> tuple[int, ...]:
    items = value if isinstance(value, list) else [value]
    out = tuple(_number(item, f"{path}[{i}]", int) for i, item in enumerate(items))
    if not out:
        raise ConfigError(f"{path}: must be nonempty")
    return out


def _float_list(value: Any, path: str) -> tuple[float, ...]:
    if isinstance(value, dict):
        for key in ("start", "stop", "step"):
            if key not in value:
                raise ConfigError(f"{path}.{key}: required in a range spec")
        start, stop, step = (_number(value[k], path) for k in ("start", "stop", "step"))
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"{path}: start, stop and step must be finite")
        if step <= 0:
            raise ConfigError(f"{path}.step: must be positive")
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_TABLE_ROWS:  # also when the quotient overflows
            raise CapacityExceeded(
                f"{path}: the range holds more than {MAX_TABLE_ROWS} values, the sweep bound"
            )
        vals = tuple(round(start + i * step, 12) for i in range(int(np.floor(steps)) + 1))
        if not vals:
            raise ConfigError(f"{path}: empty range")
        return vals
    items = value if isinstance(value, list) else [value]
    out = tuple(_number(item, f"{path}[{i}]") for i, item in enumerate(items))
    if not out:
        raise ConfigError(f"{path}: must be nonempty")
    return out


def _parse_shock(obj: Any) -> tuple["ttf.ContinuousPhaseType | None", tuple[str, ...]]:
    """The inter-shock law of a single-system command plus the preset list
    for sweeps.  The law is ``ph_from_preset``'s for one preset label,
    ``validate_ph``'s for a custom (alpha, T), and None for several presets
    or no ``shock`` key (sweeps then take the list, ER by default).  A
    config gives either preset or both alpha and T, never both."""
    if obj is None:
        return None, ("ER",)
    if not isinstance(obj, dict):
        raise ConfigError("shock: expected an object")
    unknown = set(obj) - {"preset", "alpha", "T"}
    if unknown:
        raise ConfigError(f"shock: unknown keys {sorted(unknown)}")
    if "preset" in obj and ("alpha" in obj or "T" in obj):
        raise ConfigError("shock: give either preset or (alpha, T), not both")
    if "preset" in obj:
        presets = obj["preset"] if isinstance(obj["preset"], list) else [obj["preset"]]
        labels = []
        for i, label in enumerate(presets):
            if str(label).upper() not in ttf.PRESET_LABELS:
                raise ConfigError(f"shock.preset[{i}]: unknown label {label!r}")
            labels.append(str(label).upper())
        if not labels:
            raise ConfigError("shock.preset: must be nonempty")
        law = ttf.ph_from_preset(labels[0]) if len(labels) == 1 else None
        return law, tuple(labels)
    if "alpha" in obj or "T" in obj:
        if "alpha" not in obj or "T" not in obj:
            raise ConfigError("shock: custom spec needs both alpha and T")
        law = ttf.validate_ph(obj["alpha"], obj["T"])
        return law, ("custom",)
    raise ConfigError("shock: expected preset or (alpha, T)")


_KNOWN_KEYS = {"n", "k", "r", "bc", "shock", "out", *_OPTIONS}


def parse_config(doc: Any) -> ExperimentSpec:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    for key in ("n", "k"):
        if key not in doc:
            raise ConfigError(f"{key}: required")
    n = _int_list(doc["n"], "n")
    k = _int_list(doc["k"], "k")
    r = _float_list(doc.get("r", list(DEFAULT_R_GRID)), "r")
    bc_raw = doc.get("bc", "BC3")
    bc_items = bc_raw if isinstance(bc_raw, list) else [bc_raw]
    bc = tuple(BalanceCondition.parse(b) for b in bc_items)
    if not bc:
        raise ConfigError("bc: must be nonempty")
    shock, presets = _parse_shock(doc.get("shock"))
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out: expected a path string, got {out!r}")

    return ExperimentSpec(
        n=n,
        k=k,
        r=r,
        bc=bc,
        presets=presets,
        shock=shock,
        out=out,
        **{key: doc[key] for key in _OPTIONS if key in doc},
    )


def load_config(path: str, **overrides: Any) -> ExperimentSpec:
    """The config file, with each override that is not None put in place of
    its key (the CLI flags), parsed and checked as one document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    if isinstance(doc, dict):
        doc.update((key, value) for key, value in overrides.items() if value is not None)
    return parse_config(doc)


def format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def rows_to_csv(rows: list[dict[str, Any]]) -> str:
    """The table as CSV.  The header is the first row's keys, and every
    row holds the same keys in the same order."""
    lines = [",".join(rows[0])]
    lines.extend(",".join(map(format_value, row.values())) for row in rows)
    return "\n".join(lines) + "\n"


def _sweep_points(spec: ExperimentSpec, *leading: Iterable) -> list[tuple]:
    """The sorted points (*leading, n, k, r) of the cartesian grid with
    2 <= k <= n - 1.  A grid of more than MAX_TABLE_ROWS points, one output
    row each, is refused before it is formed."""
    axes = (*map(tuple, leading), spec.n, spec.k, spec.r)
    size = math.prod(map(len, axes))
    if size > MAX_TABLE_ROWS:
        raise CapacityExceeded(
            f"grid: {size} points exceed the sweep bound {MAX_TABLE_ROWS}"
        )
    points = sorted(p for p in itertools.product(*axes) if 2 <= p[-2] <= p[-3] - 1)
    if not points:
        raise ConfigError("grid: no points satisfy 2 <= k <= n-1")
    return points


def _count_stacks(spec: ExperimentSpec) -> Iterator[tuple[list[tuple], chain_mod.CountChain]]:
    """The count chains of the feasible systems (bc, n, k, r) of the grid,
    2 <= k <= n - 1, as stacks of chains of one size: one (systems, stack)
    pair per chain size and block of _R_BLOCK r values.

    The profiles of every k of one (n, bc) are read in one call, once per
    sweep.  One ``chain.build_count_chains`` call per n and block builds
    the chains of every profile of that n, so each thinning matrix (n, r)
    is built once per sweep.  The first system in row order that
    SystemConfig refuses raises its error before any work; systems under
    BC1 with odd n are left out.
    """
    rs = sorted(set(spec.r))
    k_values = sorted(set(spec.k))
    ks = {n: row for n in sorted(set(spec.n)) if (row := [k for k in k_values if 2 <= k <= n - 1])}
    bcs = sorted(set(spec.bc), key=lambda bc: bc.value)
    # a refusal depends on n, which is checked first, and r alone
    first = next(iter(ks))
    for r in rs:
        SystemConfig(first, ks[first][0], r)
    for n, row in ks.items():
        SystemConfig(n, row[0], rs[0])
    families = []  # per n: the feasible (bc, n, k) and their count profiles
    for n, row in ks.items():
        names, profiles = [], []
        for bc in bcs:
            try:
                SystemConfig(n, row[0], rs[0], bc)  # BC1 needs an even n
            except OddNUnsupported:
                continue
            # every k <= n - 1 has tie-sets: the set of all n units is balanced
            profiles.extend(count_profile(n, tuple(row), bc))
            names.extend((bc.value, n, k) for k in row)
        if profiles:
            families.append((n, names, np.array(profiles)))
    for lo in range(0, len(rs), _R_BLOCK):
        block = rs[lo : lo + _R_BLOCK]
        parts: dict[int, tuple[list, list]] = {}  # chain size -> systems and stacks
        for n, names, profiles in families:
            for name, stack in zip(names, chain_mod.build_count_chains(n, block, profiles)):
                systems, stacks = parts.setdefault(stack.size, ([], []))
                systems += [(*name, r) for r in block]
                stacks.append(stack)
        for size, (systems, stacks) in sorted(parts.items()):
            arrays = zip(*((c.transition, c.absorb, c.weights) for c in stacks))
            yield systems, chain_mod.CountChain(*map(np.concatenate, arrays))


# ---------------------------------------------------------------- commands


def run_tiesets(spec: ExperimentSpec) -> str:
    config = spec.single()
    n, k, bc, r = config.n, config.k, config.bc, config.r
    masks = enumerate_min_tiesets(n, k, bc)
    lines = [f"count,{len(masks)}", *tieset_members(masks, n)]
    lines.append(f"reliability_exact,{format_value(system_reliability_exact(n, k, bc, r))}")
    lines.append(f"reliability_product,{format_value(system_reliability_product(masks, r))}")
    return "\n".join(lines) + "\n"


def run_sntf_pmf(spec: ExperimentSpec, use_matrix: bool = False) -> list[dict]:
    config = spec.single()
    if use_matrix:
        pmf, surv = sntf.pmf_survival_series(chain_mod.build_state_chain(config), spec.m_max)
    else:
        ms = np.arange(1, spec.m_max + 1)
        pmf, surv = sntf.pmf_direct(config, ms), sntf.survival_direct(config, ms)
    return [
        {"m": m, "pmf": p, "survival": s}
        for m, p, s in zip(range(1, spec.m_max + 1), pmf.tolist(), surv.tolist())
    ]


def run_sntf_moments(spec: ExperimentSpec) -> list[dict]:
    config = spec.single()
    chain = chain_mod.build_count_chain(config)
    mean = sntf.mean_closed(chain)
    second = sntf.factorial_moment(chain, 2) + mean
    return [
        {
            "n": config.n,
            "k": config.k,
            "r": config.r,
            "bc": config.bc.value,
            "msntf": mean,
            "second_moment": second,
            "variance": sntf.variance(chain),
        }
    ]


def run_ttf(spec: ExperimentSpec) -> tuple[list[dict], dict]:
    config = spec.single()
    if config.shock is None:
        raise ConfigError("shock: required for the ttf command")
    chain, Y = chain_mod.build_count_chain(config), config.shock
    zs = np.linspace(0.0, spec.z_max, spec.z_steps + 1)
    dens, surv = ttf.pdf_grid(ttf.compound_ph(chain, Y), zs)
    rows = [
        {"z": z, "pdf": d, "survival": s}
        for z, d, s in zip(zs.tolist(), dens.tolist(), surv.tolist())
    ]
    moments = sntf.mean_closed(chain), sntf.variance(chain)
    return rows, ttf.failure_time_summary(*moments, *ttf.ph_mean_scv(Y))


def _sweep_rows(
    points: list[tuple], names: tuple[str, ...], columns: tuple[str, ...]
) -> tuple[list[dict], dict]:
    """One row per point, its values INFEASIBLE until a solve fills them in,
    and the row of each point; a point listed twice is one row, printed
    twice."""
    keys, blank = names + columns, (INFEASIBLE,) * len(columns)
    by_point: dict[tuple, dict] = {}
    rows = [by_point.setdefault(p, dict(zip(keys, p + blank))) for p in points]
    return rows, by_point


def run_sweep_msntf(spec: ExperimentSpec) -> list[dict]:
    points = _sweep_points(spec, [bc.value for bc in spec.bc])
    rows, by_point = _sweep_rows(points, ("bc", "n", "k", "r"), ("msntf",))
    for systems, stack in _count_stacks(spec):
        for system, mean in zip(systems, sntf.mean_closed(stack).tolist()):
            by_point[system]["msntf"] = mean
    return rows


def run_sweep_scv(spec: ExperimentSpec) -> list[dict]:
    if spec.presets == ("custom",):
        raise ConfigError("shock: sweep-scv needs preset labels, not a custom (alpha, T) law")
    points = _sweep_points(spec, [bc.value for bc in spec.bc], spec.presets)
    columns = ("mttf", "mttf_wald", "scv")
    rows, by_point = _sweep_rows(points, ("bc", "preset", "n", "k", "r"), columns)
    # E[Y] and SCV[Y] of each inter-shock law, once per sweep
    laws = {preset: ttf.ph_mean_scv(ttf.ph_from_preset(preset)) for preset in spec.presets}
    for systems, stack in _count_stacks(spec):
        # every preset on the shock-count moments of the same stack of chains
        moments = sntf.mean_closed(stack), sntf.variance(stack)
        for preset, law in laws.items():
            summary = ttf.failure_time_summary(*moments, *law)
            for (bc, n, k, r), *values in zip(systems, *(summary[c].tolist() for c in columns)):
                by_point[bc, preset, n, k, r].update(zip(columns, values))
    return rows


def run_simulate(spec: ExperimentSpec, target: str = "sntf") -> tuple[montecarlo.SimulationResult, list[dict]]:
    config = spec.single()
    if target == "sntf":
        result = montecarlo.simulate_sntf(config, spec.seed, spec.reps)
    elif target == "ttf":
        result = montecarlo.simulate_ttf(config, spec.seed, spec.reps)
    else:
        raise ConfigError(f"target: expected sntf or ttf, got {target!r}")
    edges = result.hist_edges.tolist()
    rows = [
        {"bin_left": lo, "bin_right": hi, "count": c}
        for lo, hi, c in zip(edges[:-1], edges[1:], result.hist_counts.tolist())
    ]
    return result, rows


# ---------------------------------------------------------------- validate


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"check": name, "result": "pass" if passed else "fail", "detail": detail}


def run_validate(
    spec: ExperimentSpec, chain_override: "chain_mod.StateChain | None" = None
) -> list[dict]:
    """Oracle cross-checks for one configuration; chain_override is a test
    hook for corrupting the chain under inspection."""
    config = spec.single()
    chain = chain_override or chain_mod.build_state_chain(config)
    # Drawn first, so a config past the simulation bound is refused before
    # the slow checks; its rows still come last.
    if config.shock is None:
        sim = montecarlo.simulate_sntf(config, spec.seed, spec.reps)
    else:
        # one pass: the failure times are drawn on the same shock counts
        sim_t = montecarlo.simulate_ttf(config, spec.seed, spec.reps, with_sntf=True)
        sim = sim_t.sntf
    checks: list[dict] = []

    row_err = float(np.abs(chain.apply(np.ones(chain.size)) + chain.absorb - 1.0).max())
    bad_entries = bool((chain.absorb < 0).any() or (chain.absorb > 1).any())
    try:
        chain_mod.check_up_set(chain.masks, chain.n)
    except InvariantViolation:
        bad_entries = True
    checks.append(
        _check(
            "row_stochasticity",
            row_err <= 1e-12 and not bad_entries,
            f"max row defect {row_err:.3e}",
        )
    )

    fidelity_steps = 20
    pmf_m, surv_m = sntf.pmf_survival_series(chain, max(spec.m_max, fidelity_steps))
    direct = sntf.pmf_direct(config, np.arange(1, spec.m_max + 1))
    diff = float(np.abs(pmf_m[: spec.m_max] - direct).max())
    checks.append(_check("pmf_direct_vs_matrix", diff <= 1e-12, f"max gap {diff:.3e}"))

    cutoff = 512
    terms = sntf.pmf_direct(config, np.arange(1, cutoff + 1)).tolist()
    norm_defect = abs(sum(terms) + sntf.survival_direct(config, cutoff) - 1.0)
    checks.append(_check("pmf_normalization", norm_defect <= 1e-12, f"defect {norm_defect:.3e}"))

    # The unconsolidated chain over all 2**n states, started where the
    # chain starts: its mass on the nonfailed masks is the chain's survival.
    # Its states are every mask in canonical order, descending, so
    # full[::-1] is indexed by mask.
    every = chain_mod.StateChain(np.arange(1 << chain.n)[::-1], chain.n, chain.r)
    full = np.zeros(every.size)
    full[::-1][chain.masks[0]] = 1.0
    worst = 0.0
    for m in range(1, fidelity_steps + 1):
        full = every.step(full)
        worst = max(worst, abs(full[::-1][chain.masks].sum() - surv_m[m - 1]))
    checks.append(_check("consolidation_fidelity", worst <= 1e-12, f"max gap {worst:.3e}"))

    mean = sntf.mean_closed(chain)
    series = sntf.raw_moment_series(config, 1)
    checks.append(
        _check("mean_closed_vs_series", abs(mean - series) <= 1e-9, f"gap {abs(mean - series):.3e}")
    )

    if config.shock is not None:
        Z = ttf.compound_ph(chain, config.shock)
        mean_y, _ = ttf.ph_mean_scv(config.shock)
        mttf = ttf.raw_moment(Z)
        gap = abs(mttf - mean * mean_y)
        checks.append(_check("wald_identity", gap <= 1e-8, f"gap {gap:.3e}"))

    hw99 = sim.half_width(0.99)
    inside = abs(sim.mean - mean) <= hw99
    checks.append(
        _check(
            "monte_carlo_msntf",
            inside,
            f"analytic {mean:.6f} vs simulated {sim.mean:.6f} +/- {hw99:.6f}",
        )
    )
    if config.shock is not None:
        hw99 = sim_t.half_width(0.99)
        inside = abs(sim_t.mean - mttf) <= hw99
        checks.append(
            _check(
                "monte_carlo_mttf",
                inside,
                f"analytic {mttf:.6f} vs simulated {sim_t.mean:.6f} +/- {hw99:.6f}",
            )
        )
    return checks
