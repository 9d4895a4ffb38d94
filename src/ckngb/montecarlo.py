"""Stochastic oracle: simulate the shock process and inter-shock times.

Replications run in fixed-size batches, each batch drawing from its own
counter-derived stream (master seed plus batch index through a
SeedSequence spawn key), so results are reproducible bit for bit for a
given (config, seed, reps) regardless of how batches are scheduled.

Unit deaths are simulated as geometric lifetimes: unit i survives the
first L_i - 1 shocks and dies at shock L_i.  Each unit's lifetime and bit
are packed into one integer key, so a single in-row sort gives the death
order, and the failure shock count M is the lifetime at the first failed
state along it.  The count profile c_j decides most positions of that
order (c_j / C(n, j) is the survival signature): a state of j operating
units is nonfailed whenever c_j = C(n, j) and failed whenever c_j = 0.
So only the states at the band of positions it leaves undecided (4 of 12
at n=12 k=4 BC3) are summed from the sorted keys, whose low n bits are
the dead units' bits, and read as bits of the closure plane; the first
failed position is the band's start plus its nonfailed count.

A failure-time replication then needs only how often each phase of the
inter-shock law was visited over its M passages: the M tokens are split
over the start phases, then each phase's tokens over its jump row and
the exit, round by round until all have exited, and the time is the sum
over phases of one gamma variate, shape the visit count.  These draws
come from the same batch stream after the shock counts, so one pass
yields both samples (``validate`` summarises the shock counts of its
failure-time pass).  Their number grows with the replications, not with
the shock count (a cyclic law takes a geometric number of rounds, each
one vectorised over the batch).  The shock-count histogram grows with
the mean shock count E[M], which is read off the count chain and bounded
before any draw (MAX_MEAN_SHOCKS).  A result's half width is the normal
approximation at level 0.95 or 0.99, from the two tabulated quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import build_count_chain
from .errors import CapacityExceeded, ConfigError
from .sntf import mean_closed
from .system import SystemConfig
from .tiesets import _bits, _structure, count_profile
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
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    # a failure-time result may carry the summary of the shock counts its
    # failure times were drawn from: the same counts simulate_sntf draws
    sntf: SimulationResult | None = None

    @property
    def stderr(self) -> float:
        return float(np.sqrt(self.variance / self.replications))

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
    # E / -log1p(-p) is numpy's -E / log1p(-p) to the last bit.
    rng.standard_exponential(out=spare)
    spare /= -math.log1p(-p)
    np.ceil(spare, out=spare)
    np.copyto(out, spare, casting="unsafe")


def _band(profile: np.ndarray) -> tuple[int, int]:
    """(t0, w): the death positions whose state the count profile leaves
    undecided are t0, ..., t0 + w - 1.

    After t + 1 deaths n - 1 - t units operate, and a state with j of them
    is nonfailed for every j above hi, the greatest j with c_j < C(n, j),
    and failed for every j below lo, the least j with c_j > 0.  So every
    position before t0 = n - 1 - hi is nonfailed, position n - lo is
    failed, and the w = hi - lo + 1 positions between need the plane;
    w is 0 when every state of lo units is nonfailed (k = n, say).
    """
    n = profile.size - 1
    whole = np.array([math.comb(n, j) for j in range(n + 1)])
    lo = int(np.flatnonzero(profile)[0])
    hi = int(np.flatnonzero(profile < whole)[-1])
    return n - 1 - hi, hi - lo + 1


@dataclass(frozen=True, eq=False)
class _Scratch:
    """Arrays for _shock_counts to fill, allocated once per run, for one
    block of SHOCK_BLOCK replications of n units, and the band of _band,
    whose states _bits reads off the closure plane into int64 buffers."""

    t0: int  # the band's first position; its width w is len(alive)
    keys: np.ndarray  # (block, n) sort keys
    spare: np.ndarray  # (block, n) float64, the exponentials
    units: np.ndarray  # (block, n) each unit's bit, in every row
    alive: np.ndarray  # (w, block) the operating units at each band position
    nonfailed: np.ndarray  # (w, block) their plane words, then bits 0 or 1
    shifts: np.ndarray  # (w, block) the words' indices, then the bit shifts
    offsets: np.ndarray  # (block,) flat index of each row's position t0


def _shock_scratch(config: SystemConfig) -> _Scratch:
    n = config.n
    t0, w = _band(count_profile(n, config.k, config.bc))
    return _Scratch(
        t0=t0,
        keys=np.empty((SHOCK_BLOCK, n), dtype=np.int64),
        spare=np.empty((SHOCK_BLOCK, n)),
        units=np.tile(np.int64(1) << np.arange(n - 1, -1, -1, dtype=np.int64), (SHOCK_BLOCK, 1)),
        alive=np.empty((w, SHOCK_BLOCK), dtype=np.int64),
        nonfailed=np.empty((w, SHOCK_BLOCK), dtype=np.int64),
        shifts=np.empty((w, SHOCK_BLOCK), dtype=np.int64),
        offsets=np.arange(t0, t0 + SHOCK_BLOCK * n, n, dtype=np.int64),
    )


def _shock_counts(
    rng: np.random.Generator, size: int, config: SystemConfig, plane: np.ndarray, scratch: _Scratch
) -> np.ndarray:
    """Failure shock counts of size replications whose nonfailed states are
    the set bits of plane, drawn block by block into scratch in the order of
    one (size, n) draw, so the stream does not depend on the block size."""
    n, t0, w = config.n, scratch.t0, len(scratch.alive)
    counts = np.empty(size, dtype=np.int64)
    for start in range(0, size, SHOCK_BLOCK):
        rows = min(SHOCK_BLOCK, size - start)
        keys, alive = scratch.keys[:rows], scratch.alive[:, :rows]
        _geometric(rng, 1.0 - config.r, keys, scratch.spare[:rows])
        # One sort key per unit: its lifetime above its bit.  Units dying at
        # the same shock may sort in any order: the nonfailed set is an
        # up-set, so the first failed state along the death order comes
        # within the first shock that leaves the system failed.  The key
        # fits in 63 bits while lifetimes stay below 2**33 (n <= 30): M is
        # at least the first death, so the admission bound E[M] <= 10**5
        # keeps p = 1 - r at or above 10**-5 / n, and a lifetime, at most
        # 1 + E / p, reaches 2**33 only for an exponential E above 2 800.
        keys <<= n
        keys |= scratch.units[:rows]
        keys.sort(axis=1)
        if w:
            # The units operating at band position t0 + i are the bits of
            # the later deaths, summed from the last one back, one column at
            # a time (np.cumsum along rows this short costs several times
            # more).  Whole keys are summed: the bits are distinct, so their
            # sum is the low n bits of the keys' sum, kept by int64 wrapping.
            last = alive[-1]
            np.copyto(last, keys[:, n - 1])
            for t in range(n - 2, t0 + w - 1, -1):
                last += keys[:, t]
            for i in range(w - 2, -1, -1):
                np.add(alive[i + 1], keys[:, t0 + i + 1], out=alive[i])
            alive &= (1 << n) - 1
        nonfailed = _bits(plane, alive, scratch.nonfailed[:, :rows], scratch.shifts[:, :rows])
        # Along the death order the flags fall from nonfailed to failed once,
        # so the first failed position is t0 plus the nonfailed ones.
        first = nonfailed.sum(axis=0, dtype=np.int64)
        first += scratch.offsets[:rows]
        counts[start : start + rows] = keys.ravel().take(first) >> n
    return counts


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


def _phase_sums(rng: np.random.Generator, counts: np.ndarray, Y: ContinuousPhaseType, routes) -> np.ndarray:
    """Per replication, the sum of counts[i] iid draws of Y, whose routes
    are ``_routes(Y)``.  Y's phase process is followed by token counts, not
    paths: the counts[i] tokens are split over the start phases, then each
    round each phase's tokens over its jump row and the exit, until none is
    left.  The time spent in V visits to a phase of rate q is Gamma(V, 1/q),
    one draw per phase, and a gamma of shape 0 is 0."""
    K = Y.K
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
    mean = mean_closed(build_count_chain(config))
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
    plane = _structure(config.n, config.k, config.bc)[1]
    _admit(config)
    scratch = _shock_scratch(config)
    routes = _routes(config.shock) if times else None
    counts = np.empty(reps, dtype=np.int64)
    totals = np.empty(reps) if times else None
    start = 0
    for batch, size in enumerate(_batch_sizes(reps)):
        rng = _batch_rng(seed, batch)
        shocks = counts[start : start + size]
        shocks[:] = _shock_counts(rng, size, config, plane, scratch)
        if times:
            totals[start : start + size] = _phase_sums(rng, shocks, config.shock, routes)
        start += size
    return counts, totals


def _summarize(kind: str, samples: np.ndarray, seed: int) -> SimulationResult:
    if kind == "sntf":
        top = int(samples.max())
        counts = np.bincount(samples, minlength=top + 1)[1:]
        edges = np.arange(0.5, top + 1.0)
    else:
        counts, edges = np.histogram(samples, bins=64)
    return SimulationResult(
        kind=kind,
        replications=samples.size,
        seed=seed,
        mean=float(samples.mean()),
        variance=float(samples.var(ddof=1)),
        hist_edges=edges,
        hist_counts=counts,
    )


def simulate_sntf(config: SystemConfig, seed: int, reps: int) -> SimulationResult:
    """Empirical shock-count-to-failure distribution."""
    return _summarize("sntf", _draw(config, seed, reps, times=False)[0], seed)


def simulate_ttf(config: SystemConfig, seed: int, reps: int, with_sntf: bool = False) -> SimulationResult:
    """Empirical time to failure: per replication, the shock count is drawn
    first and that many inter-shock times are summed.  with_sntf also
    summarises those shock counts, as simulate_sntf would, in ``.sntf``."""
    counts, times = _draw(config, seed, reps, times=True)
    result = _summarize("ttf", times, seed)
    if with_sntf:
        result = replace(result, sntf=_summarize("sntf", counts, seed))
    return result
