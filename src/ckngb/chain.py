"""Absorbing shock chains: the consolidated chain over the nonfailed
states and the operating-count chain.

The consolidated chain is the paper's model.  All failed states are
consolidated into a single absorbing state, so the chain keeps one row per
nonfailed state plus an absorption column.  In canonical order (ascending
state index, all-ones first) the subtransition matrix is upper triangular
because failed units never revive; solves against it are exact
back-substitutions.  It serves the golden matrices, the chain dump and the
validation oracle, is stored dense and is refused above MAX_CHAIN_STATES
states.

The count chain carries the same shock-count law on at most n + 1 states.
Each shock thins the operating count j binomially, and a state with j
operating units is nonfailed with probability q_j = c_j / C(n, j), where
c_j is the count profile.  Both chains give P{M > m} = alpha P^m w, with
w = q on the count chain and w = e on the consolidated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityExceeded, InvariantViolation
from .system import BalanceCondition, SystemState
from .tiesets import count_profile, nonfailed_closure

# Dense N x N storage caps the consolidated chain: 15 000 states take
# 1.8 GB.  Every n <= 14 system fits (the largest, n=14 k=2 BC2, has
# 14 199); n=16 k=4 BC3 (41 479) does not.
MAX_CHAIN_STATES = 15_000


@dataclass(frozen=True)
class TransitionCounts:
    """Per-unit pair tallies between two states: (1,1), (1,0), (0,1), (0,0)."""

    c1: int
    c2: int
    c3: int
    c4: int


def transition_counts(xa: SystemState, xb: SystemState) -> TransitionCounts:
    if xa.n != xb.n:
        raise ValueError("states must share the unit count")
    c1 = (xa.mask & xb.mask).bit_count()
    c2 = (xa.mask & ~xb.mask).bit_count()
    c3 = (~xa.mask & xb.mask & ((1 << xa.n) - 1)).bit_count()
    return TransitionCounts(c1, c2, c3, xa.n - c1 - c2 - c3)


def one_step_prob(xa: SystemState, xb: SystemState, r: float) -> float:
    """Probability that one shock turns state xa into state xb."""
    return mstep_prob(xa, xb, 1, r)


def mstep_prob(xa: SystemState, xb: SystemState, m: int, r: float) -> float:
    """m-step transition probability (r^m)^c1 (1-r^m)^c2, zero if any
    failed unit would have to revive."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    c = transition_counts(xa, xb)
    if c.c3 > 0:
        return 0.0
    rm = r**m
    return rm**c.c1 * (1.0 - rm) ** c.c2


@lru_cache(maxsize=128)
def _nonfailed_masks(n: int, k: int, bc: BalanceCondition) -> np.ndarray:
    # descending mask == ascending canonical index
    masks = np.flatnonzero(nonfailed_closure(n, k, bc))[::-1].astype(np.int64)
    masks.flags.writeable = False
    return masks


def nonfailed_states(n: int, k: int, bc: BalanceCondition) -> tuple[SystemState, ...]:
    """All nonfailed states in ascending canonical index order; the
    all-ones state comes first."""
    return tuple(SystemState(int(m), n) for m in _nonfailed_masks(n, k, bc))


@dataclass(frozen=True, eq=False)
class ConsolidatedChain:
    """One-step law of the shock process restricted to nonfailed states.

    ``transition`` is row-substochastic and upper triangular; ``absorb``
    holds the per-row probability of jumping to the consolidated failed
    state.
    """

    states: tuple[SystemState, ...]
    masks: np.ndarray
    transition: np.ndarray
    absorb: np.ndarray
    n: int
    k: int
    bc: BalanceCondition
    r: float

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def weights(self) -> np.ndarray:
        """Every state of this chain is nonfailed: w = e."""
        return np.ones(self.size)

    def full_matrix(self) -> np.ndarray:
        """Stochastic (N+1)x(N+1) matrix with the absorbing state appended."""
        N = self.size
        out = np.zeros((N + 1, N + 1))
        out[:N, :N] = self.transition
        out[:N, N] = self.absorb
        out[N, N] = 1.0
        return out


def _transition_rows(
    masks: np.ndarray, pops: np.ndarray, r: float, row_start: int, row_stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Subset mask and dense block of one-shock transition probabilities for
    rows [row_start, row_stop): sub[i, b] says the units of state b are a
    subset of those of row i, which then becomes b with probability
    r^|b| (1 - r)^(|i| - |b|)."""
    sub = (masks[row_start:row_stop, None] & masks[None, :]) == masks[None, :]
    j = np.arange(int(pops.max()) + 1, dtype=np.float64)
    keep = r**j
    lose = np.append((1.0 - r) ** j, 0.0)  # index -1: not a subset
    lost = np.where(sub, pops[row_start:row_stop, None] - pops[None, :], -1)
    return sub, keep[pops][None, :] * lose[lost]


def _binomial_terms(coef: np.ndarray, a: np.ndarray, r: float) -> np.ndarray:
    """coef[i, b] r^b (1 - r)^(a_i - b): one shock leaves b of a_i operating
    units (coef = C(a_i, b)) or one given b-subset of them (coef = 1)."""
    b = np.arange(coef.shape[-1])
    return coef * r ** b[None, :] * (1.0 - r) ** np.maximum(a[:, None] - b[None, :], 0)


@lru_cache(maxsize=32)
def _binomials(n: int) -> np.ndarray:
    """C(a, b) for 0 <= a, b <= n, zero for b > a; read-only and shared."""
    j = range(n + 1)
    table = np.array([[math.comb(a, b) for b in j] for a in j], dtype=np.float64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1)  # a chain at the cap takes 1.8 GB
def build_consolidated(n: int, k: int, bc: BalanceCondition, r: float) -> ConsolidatedChain:
    """Consolidated chain at unit reliability r, all-ones state first.

    Raises CapacityExceeded, before allocating the matrix, when the system
    has more than MAX_CHAIN_STATES nonfailed states.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie strictly inside (0, 1), got {r}")
    masks = _nonfailed_masks(n, k, bc)
    N = masks.size
    if N > MAX_CHAIN_STATES:
        raise CapacityExceeded(
            f"consolidated chain capped at {MAX_CHAIN_STATES} states, need {N}"
        )
    pops = np.bitwise_count(masks).astype(np.int64)
    by_count = (pops[:, None] == np.arange(n + 1)[None, :]).astype(np.float64)
    chunk = max(1, (1 << 22) // max(N, 1))

    P = np.zeros((N, N))
    # failed[i, j]: j-unit subsets of row i's operating units that are failed
    failed = _binomials(n)[pops]
    for i0 in range(0, N, chunk):
        i1 = min(N, i0 + chunk)
        sub, P[i0:i1] = _transition_rows(masks, pops, r, i0, i1)
        failed[i0:i1] -= sub @ by_count
    check_upper_triangular(P)
    # The probability of a failed successor, as a sum of nonnegative terms
    # rather than 1 - row sum, which cancels where failing is rare.
    absorb = _binomial_terms(failed, pops, r).sum(axis=1)
    states = tuple(SystemState(int(m), n) for m in masks)
    return ConsolidatedChain(states, masks, P, absorb, n, k, bc, r)


def check_upper_triangular(P: np.ndarray) -> None:
    """Raise InvariantViolation when P stores an entry below the diagonal.

    The solves rely on back-substitution, so triangularity is load-bearing.
    Rows are scanned in blocks, so no N x N temporary is made.
    """
    if any(np.tril(P[i : i + 256], i - 1).any() for i in range(0, P.shape[0], 256)):
        raise InvariantViolation("subtransition matrix must be upper triangular")


@dataclass(frozen=True, eq=False)
class CountChain:
    """Binomial-thinning chain on the operating-unit count.

    State i holds j = n - i operating units, from the all-ones start state
    j = n down to the fewest operating units of any nonfailed state, so
    ``transition`` is upper triangular as in the consolidated chain.
    ``weights`` holds q_j, and ``absorb`` = w - P w the probability that
    the next shock fails the system from each state.
    """

    transition: np.ndarray
    absorb: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.weights.size


@lru_cache(maxsize=16)  # pmf_direct reads it once per m
def build_count_chain(n: int, k: int, bc: BalanceCondition, r: float) -> CountChain:
    """Count chain of the system at unit reliability r, started state first."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie strictly inside (0, 1), got {r}")
    counts = count_profile(n, k, bc)
    j = np.arange(n + 1)
    binom = _binomials(n)
    q = counts / binom[n]
    # The nonfailed set is an up-set, so q is nondecreasing in j (the LYM
    # inequality).  Rounding c_j / C(n, j) is monotone, so this is exact.
    if (np.diff(q) < 0.0).any():
        raise InvariantViolation(f"q_j = c_j / C(n, j) decreases in j: {q.tolist()}")
    # full[a, b]: a operating units become b after one shock (zero for b > a)
    full = _binomial_terms(binom, j, r)
    # Rows of full sum to one, so w - P w is this sum of nonnegative terms.
    absorb = (full * (q[:, None] - q[None, :])).sum(axis=1)
    states = np.arange(n, int(np.argmax(counts > 0)) - 1, -1)
    return CountChain(full[np.ix_(states, states)], absorb[states], q[states])


def full_transition_matrix(n: int, r: float) -> np.ndarray:
    """One-step matrix over all 2**n states in canonical index order.

    Oracle-only: the quadratic blowup restricts it to n <= 8.
    """
    if n > 8:
        raise CapacityExceeded(f"full chain oracle bounded at n <= 8, got n={n}")
    masks = np.arange((1 << n) - 1, -1, -1, dtype=np.int64)
    pops = np.bitwise_count(masks).astype(np.int64)
    return _transition_rows(masks, pops, r, 0, masks.size)[1]


def chain_csv(chain: ConsolidatedChain) -> str:
    """Debug dump of the full partitioned matrix with state headers.

    Only nonzero entries are formatted: the chain holds no -0.0, so every
    other cell is "0", as ``f"{0.0:.12g}"`` writes it.
    """
    N = chain.size
    labels = [str(s) for s in chain.states] + ["absorbed"]
    lines = ["state," + ",".join(labels)]
    for label, row, absorb in zip(labels, chain.transition, chain.absorb):
        cells = ["0"] * N
        nonzero = np.flatnonzero(row)
        for j, v in zip(nonzero.tolist(), row[nonzero].tolist()):
            cells[j] = f"{v:.12g}"
        lines.append(f"{label},{','.join(cells)},{absorb:.12g}")
    lines.append("absorbed," + "0," * N + "1")
    return "\n".join(lines) + "\n"
