"""Stochastic oracle: simulate the shock process and inter-shock times.

Replications run in fixed-size batches, each batch drawing from its own
counter-derived stream (master seed plus batch index through a
SeedSequence spawn key), so results are reproducible bit for bit for a
given (config, seed, reps) regardless of how batches are scheduled.

Unit deaths are simulated as geometric lifetimes: unit i survives the
first L_i - 1 shocks and dies at shock L_i.  Each unit's lifetime and bit
position are packed into one integer key, so a single in-row sort gives
the death order; running sums of the dead units' bits give the states
along it, and the failure shock count M is the lifetime at the first
failed one.  A failure-time replication then needs only how often each
phase of the inter-shock law was visited over its M passages: the M
tokens are split over the start phases, then each phase's tokens over
its jump row and the exit, round by round until all have exited, and
the time is the sum over phases of one gamma variate, shape the visit
count.  These draws come from the same batch stream after the shock
counts, so one pass yields both samples (``validate`` summarises the
shock counts of its failure-time pass).  Their number grows with the
replications, not with the shock count (a cyclic law takes a geometric
number of rounds, each one vectorised over the batch).  The shock-count
histogram grows with the mean shock count E[M], which is read off the
count chain and bounded before any draw (MAX_MEAN_SHOCKS).  A result's
half width is the normal approximation at level 0.95 or 0.99, from the
two tabulated quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityExceeded, ConfigError
from .sntf import count_distribution, mean_closed
from .system import SystemConfig
from .tiesets import nonfailed_closure
from .ttf import ContinuousPhaseType

BATCH_SIZE = 8192
# Replications whose shock counts are found at once: the scratch of a block
# stays in the cache, and no array of a batch's size is allocated.
SHOCK_BLOCK = 2048
# Admission bound, checked on the mean shock count E[M] before any draw
# (README, "Monte Carlo oracle"): E[M] sets the length of the shock-count
# histogram, about 6 E[M] bins at 10^5 reps.
MAX_MEAN_SHOCKS = 10**5

_Z95 = 1.959963984540054
_Z99 = 2.5758293035489004


@dataclass(frozen=True, eq=False)
class SimulationResult:
    kind: str  # "sntf" or "ttf"
    replications: int
    seed: int
    mean: float
    variance: float
    stderr: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    # a failure-time result may carry the summary of the shock counts its
    # failure times were drawn from: the same counts simulate_sntf draws
    sntf: SimulationResult | None = None

    def half_width(self, level: float = 0.95) -> float:
        """Normal-approximation half width of the mean's confidence
        interval at level 0.95 or 0.99."""
        z = {0.95: _Z95, 0.99: _Z99}.get(level)
        if z is None:
            raise ValueError(f"level must be 0.95 or 0.99, got {level}")
        return z * self.stderr


def _batch_rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch,)))


def _batch_sizes(reps: int) -> list[int]:
    sizes = [BATCH_SIZE] * (reps // BATCH_SIZE)
    if reps % BATCH_SIZE:
        sizes.append(reps % BATCH_SIZE)
    return sizes


def _geometric(rng: np.random.Generator, p: float, out: np.ndarray, spare: np.ndarray) -> None:
    """Fill the C-contiguous int64 array out with rng.geometric(p,
    out.shape), draw for draw; spare is a float64 array of the same shape
    that the draws may overwrite.

    For p < 1/3 numpy draws each variate by inversion of one standard
    exponential, ceil(-E / log1p(-p)), and recomputes log1p(-p) for each;
    here it is formed once.  For larger p numpy searches one uniform
    against running sums of the pmf, which its own loop does faster than
    a vectorised search of the same sums.
    """
    if p >= 0.333333333333333333333333:  # numpy's cut, as a double
        np.copyto(out, rng.geometric(p, size=out.shape))
        return
    # E / -log1p(-p) is numpy's -E / log1p(-p) to the last bit.  Lifetimes
    # stay far below 2**63, since the admission bound on E[M] keeps p away
    # from 0.
    rng.standard_exponential(out=spare)
    spare /= -math.log1p(-p)
    np.ceil(spare, out=spare)
    np.copyto(out, spare, casting="unsafe")


def _shock_scratch(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays for _shock_counts to fill, allocated once per run: the sort
    keys, the running sums of the dead units' bits and the nonfailed flags
    of one block of SHOCK_BLOCK replications of n units."""
    return (
        np.empty((SHOCK_BLOCK, n), dtype=np.int64),
        np.empty((SHOCK_BLOCK, n), dtype=np.int64),
        np.empty((SHOCK_BLOCK, n), dtype=bool),
    )


def _shock_counts(
    rng: np.random.Generator,
    size: int,
    config: SystemConfig,
    table: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Failure shock counts of size replications.  Their lifetimes are
    drawn block by block into scratch, in the order of one (size, n) draw,
    so the stream does not depend on the block size."""
    counts = np.empty(size, dtype=np.int64)
    for start in range(0, size, SHOCK_BLOCK):
        rows = min(SHOCK_BLOCK, size - start)
        counts[start : start + rows] = _block_counts(rng, config, table, [a[:rows] for a in scratch])
    return counts


def _block_counts(
    rng: np.random.Generator, config: SystemConfig, table: np.ndarray, scratch: list[np.ndarray]
) -> np.ndarray:
    n = config.n
    keys, dead, nonfailed = scratch
    _geometric(rng, 1.0 - config.r, keys, dead.view(np.float64))
    # One sort key per unit: its lifetime above its bit position.  Units
    # dying at the same shock may sort in any order: the nonfailed set is
    # an up-set, so the first failed state along the death order comes
    # within the first shock that leaves the system failed.
    shift = n.bit_length()
    keys <<= shift
    keys |= np.arange(n - 1, -1, -1, dtype=np.int64)
    keys.sort(axis=1)
    np.bitwise_and(keys, (1 << shift) - 1, out=dead)
    np.left_shift(1, dead, out=dead)
    # running sums of the dead units' bits, column by column: np.cumsum
    # along rows this short costs several times more
    for j in range(1, n):
        dead[:, j] += dead[:, j - 1]
    alive = np.subtract((1 << n) - 1, dead, out=dead)
    # mode="clip" lets take fill out directly; every index is in range
    np.take(table, alive, out=nonfailed, mode="clip")
    # the first failed state; the last, every unit dead, always is one
    first_failed = nonfailed.argmin(axis=1)
    return keys[np.arange(keys.shape[0]), first_failed] >> shift


def _routes(Y: ContinuousPhaseType) -> list[tuple[np.ndarray, np.ndarray]]:
    """Where a token goes: for each phase of Y, then for the start, the
    destinations it takes with nonzero probability in ascending order
    (K, the exit, last) and the probability of each given that it takes
    none of the earlier ones."""
    rates = -np.diag(Y.T)
    rows = np.column_stack([Y.T / rates[:, None], Y.exit_rates / rates])
    np.fill_diagonal(rows, 0.0)
    routes = []
    for row in [*rows, np.append(Y.alpha, 0.0)]:
        dest = np.flatnonzero(row > 0.0)
        p = row[dest]
        routes.append((dest, np.minimum(p / np.cumsum(p[::-1])[::-1], 1.0)))
    return routes


def _split(rng: np.random.Generator, tokens: np.ndarray, route):
    """Yield each destination of route with the tokens of every replication
    that take it: a multinomial split as one binomial per destination but
    the last, which takes what is left, so a single destination costs no
    draw.  Once some replications hold no token, only the others are drawn
    for: a binomial of 0 trials takes nothing from the stream, so the draws
    are those of a split over the whole batch."""
    dest, given = route
    for d, p in zip(dest[:-1], given[:-1]):
        held = np.flatnonzero(tokens)
        if held.size == tokens.size:  # as at the start: no index to pay for
            part = rng.binomial(tokens, p)
        else:
            part = np.zeros_like(tokens)
            part[held] = rng.binomial(tokens[held], p)
        yield d, part
        tokens = tokens - part
    yield dest[-1], tokens


def _phase_sums(rng: np.random.Generator, counts: np.ndarray, Y: ContinuousPhaseType) -> np.ndarray:
    """Per replication, the sum of counts[i] iid draws of Y.  Y's phase
    process is followed by token counts, not paths: the counts[i] tokens
    are split over the start phases, then each round each phase's tokens
    over its jump row and the exit, until none is left.  The time spent
    in V visits to a phase of rate q is Gamma(V, 1/q), one draw per phase,
    and a gamma of shape 0 is 0."""
    K = Y.K
    routes = _routes(Y)
    visits = np.zeros((K, counts.size))
    tokens = {K: counts}  # held per phase; the start's route is routes[K]
    while tokens:
        arrived = {}
        for i, held in tokens.items():
            for d, part in _split(rng, held, routes[i]):
                if d < K:
                    arrived[d] = arrived[d] + part if d in arrived else part
        # A cyclic law takes a geometric number of rounds, and its phases
        # keep arrays of zero tokens: the loop ends once none holds one.
        tokens = {d: held for d, held in arrived.items() if held.any()}
        for d, held in tokens.items():
            visits[d] += held
    return sum(rng.gamma(v, 1.0 / rate) for v, rate in zip(visits, -np.diag(Y.T)))


def _admit(config: SystemConfig) -> None:
    """Refuse before any draw a run whose histogram would not fit: its
    length grows with the mean shock count E[M]."""
    mean = mean_closed(count_distribution(config))
    if not mean <= MAX_MEAN_SHOCKS:
        raise CapacityExceeded(
            f"mean shock count {mean:.4g} at r={config.r} exceeds the simulation "
            f"bound {MAX_MEAN_SHOCKS}"
        )


def _draw(config: SystemConfig, seed: int, reps: int, times: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Shock counts per replication and, with times, the failure times
    drawn after them from the same batch streams."""
    if reps < 2:  # one sample has no variance, so no interval
        raise ValueError(f"reps must be >= 2, got {reps}")
    if times and config.shock is None:
        raise ConfigError("shock: required for time-to-failure simulation")
    table = nonfailed_closure(config.n, config.k, config.bc)
    _admit(config)
    scratch = _shock_scratch(config.n)
    counts = np.empty(reps, dtype=np.int64)
    totals = np.empty(reps) if times else None
    start = 0
    for batch, size in enumerate(_batch_sizes(reps)):
        rng = _batch_rng(seed, batch)
        shocks = counts[start : start + size]
        shocks[:] = _shock_counts(rng, size, config, table, scratch)
        if times:
            totals[start : start + size] = _phase_sums(rng, shocks, config.shock)
        start += size
    return counts, totals


def _summarize(kind: str, samples: np.ndarray, seed: int, integer_bins: bool) -> SimulationResult:
    reps = samples.size
    mean = float(samples.mean())
    variance = float(samples.var(ddof=1))
    stderr = float(np.sqrt(variance / reps))
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
        hist_edges=edges,
        hist_counts=counts,
    )


def simulate_sntf(config: SystemConfig, seed: int, reps: int) -> SimulationResult:
    """Empirical shock-count-to-failure distribution."""
    return _summarize("sntf", _draw(config, seed, reps, times=False)[0], seed, integer_bins=True)


def simulate_ttf(config: SystemConfig, seed: int, reps: int, with_sntf: bool = False) -> SimulationResult:
    """Empirical time to failure: per replication, the shock count is drawn
    first and that many inter-shock times are summed.  with_sntf also
    summarises those shock counts, as simulate_sntf would, in ``.sntf``."""
    counts, times = _draw(config, seed, reps, times=True)
    result = _summarize("ttf", times, seed, integer_bins=False)
    if with_sntf:
        result = replace(result, sntf=_summarize("sntf", counts, seed, integer_bins=True))
    return result
