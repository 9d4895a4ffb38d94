"""Stochastic oracle: simulate the shock process and inter-shock times.

Replications run in fixed-size batches, each batch drawing from its own
counter-derived stream (master seed plus batch index through a
SeedSequence spawn key), so results are reproducible bit for bit for a
given (config, seed, reps) regardless of how batches are scheduled.

Unit deaths are simulated as geometric lifetimes: unit i survives the
first L_i - 1 shocks and dies at shock L_i, so the failure shock count is
found by walking the death order instead of stepping shock by shock.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError
from .system import SystemConfig
from .tiesets import nonfailed_closure
from .ttf import ContinuousPhaseType

BATCH_SIZE = 8192

_Z95 = 1.959963984540054
_Z99 = 2.5758293035489004
QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True, eq=False)
class SimulationResult:
    kind: str  # "sntf" or "ttf"
    replications: int
    seed: int
    mean: float
    variance: float
    stderr: float
    half_width_95: float
    quantiles: dict[float, float]
    hist_edges: np.ndarray
    hist_counts: np.ndarray

    def half_width(self, level: float = 0.95) -> float:
        z = {0.95: _Z95, 0.99: _Z99}.get(level)
        if z is None:
            z = NormalDist().inv_cdf(0.5 + level / 2.0)
        return z * self.stderr


def _batch_rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch,)))


def _batch_sizes(reps: int) -> list[int]:
    sizes = [BATCH_SIZE] * (reps // BATCH_SIZE)
    if reps % BATCH_SIZE:
        sizes.append(reps % BATCH_SIZE)
    return sizes


def _shock_counts(rng: np.random.Generator, size: int, config: SystemConfig, table: np.ndarray) -> np.ndarray:
    n = config.n
    lifetimes = rng.geometric(1.0 - config.r, size=(size, n)).astype(np.int64)
    order = np.argsort(lifetimes, axis=1, kind="stable")
    sorted_l = np.take_along_axis(lifetimes, order, axis=1)
    death_bit = np.int64(1) << (n - 1 - order)
    current = np.full(size, (1 << n) - 1, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    done = np.zeros(size, dtype=bool)
    for j in range(n):
        current &= ~death_bit[:, j]
        if j < n - 1:
            # simultaneous deaths: only evaluate once the tie group ends
            boundary = sorted_l[:, j + 1] > sorted_l[:, j]
        else:
            boundary = np.ones(size, dtype=bool)
        hit = boundary & ~done & ~table[current]
        counts[hit] = sorted_l[hit, j]
        done |= hit
    return counts


def _summarize(kind: str, samples: np.ndarray, seed: int, integer_bins: bool) -> SimulationResult:
    reps = samples.size
    mean = float(samples.mean())
    variance = float(samples.var(ddof=1)) if reps > 1 else 0.0
    stderr = float(np.sqrt(variance / reps)) if reps > 1 else 0.0
    quantiles = dict(zip(QUANTILE_LEVELS, np.quantile(samples, QUANTILE_LEVELS).tolist()))
    if integer_bins:
        top = int(samples.max())
        counts = np.bincount(samples.astype(np.int64), minlength=top + 1)[1:]
        edges = np.arange(0.5, top + 1.0)
    else:
        counts, edges = np.histogram(samples, bins=64)
    return SimulationResult(
        kind=kind,
        replications=reps,
        seed=seed,
        mean=mean,
        variance=variance,
        stderr=stderr,
        half_width_95=_Z95 * stderr,
        quantiles=quantiles,
        hist_edges=edges,
        hist_counts=counts,
    )


def _sntf_samples(config: SystemConfig, seed: int, reps: int) -> np.ndarray:
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    table = nonfailed_closure(config.n, config.k, config.bc)
    parts = []
    for batch, size in enumerate(_batch_sizes(reps)):
        rng = _batch_rng(seed, batch)
        parts.append(_shock_counts(rng, size, config, table))
    return np.concatenate(parts)


def simulate_sntf(config: SystemConfig, seed: int, reps: int) -> SimulationResult:
    """Empirical shock-count-to-failure distribution."""
    return _summarize("sntf", _sntf_samples(config, seed, reps), seed, integer_bins=True)


def _sample_ph_batch(Y: ContinuousPhaseType, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized absorption times of the phase process underlying Y."""
    if count == 0:
        return np.zeros(0)
    K = Y.K
    rates = -np.diag(Y.T)
    jump = Y.T / rates[:, None]
    np.fill_diagonal(jump, 0.0)
    outcomes = np.hstack([jump, (Y.exit_rates / rates)[:, None]])
    cum = np.cumsum(outcomes, axis=1)
    cum[:, -1] = 1.0  # guard against rounding in the last column

    phase = rng.choice(K, size=count, p=Y.alpha)
    total = np.zeros(count)
    active = np.arange(count)
    while active.size:
        ph = phase[active]
        total[active] += rng.standard_exponential(active.size) / rates[ph]
        u = rng.random(active.size)
        nxt = np.empty(active.size, dtype=np.int64)
        for value in range(K):
            sel = ph == value
            if sel.any():
                nxt[sel] = np.searchsorted(cum[value], u[sel], side="right")
        stay = nxt < K
        phase[active[stay]] = nxt[stay]
        active = active[stay]
    return total


def sample_ph(Y: ContinuousPhaseType, rng_stream: np.random.Generator) -> float:
    """One draw from the phase-type law Y."""
    return float(_sample_ph_batch(Y, 1, rng_stream)[0])


def _ttf_samples(config: SystemConfig, seed: int, reps: int) -> np.ndarray:
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if config.shock is None:
        raise ConfigError("shock: required for time-to-failure simulation")
    Y = config.shock.resolve()
    table = nonfailed_closure(config.n, config.k, config.bc)
    parts = []
    for batch, size in enumerate(_batch_sizes(reps)):
        rng = _batch_rng(seed, batch)
        counts = _shock_counts(rng, size, config, table)
        draws = _sample_ph_batch(Y, int(counts.sum()), rng)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        parts.append(np.add.reduceat(draws, offsets))
    return np.concatenate(parts)


def simulate_ttf(config: SystemConfig, seed: int, reps: int) -> SimulationResult:
    """Empirical time to failure: per replication, the shock count is drawn
    first and that many inter-shock times are summed."""
    return _summarize("ttf", _ttf_samples(config, seed, reps), seed, integer_bins=False)
