"""Absorbing shock chains: the consolidated chain over the nonfailed
states and the operating-count chain.

The consolidated chain is the paper's model.  All failed states are
consolidated into a single absorbing state, so the chain keeps one state
per nonfailed state plus absorption.  One shock thins every unit
independently, so the one-step matrix over all 2**n states is the
Kronecker product of n copies of the 2 x 2 kernel [[1, 0], [1 - r, r]]
(rows and columns: bit value 0, 1).  Its action on a vector over masks
(``kron_step``, ``kron_apply``) is one butterfly pass per unit, O(n 2^n)
work.  ``StateChain`` is that operator restricted to the nonfailed
closure: it stores no matrix.  It serves ``sntf_distribution``,
``compound_from_config`` and the validation oracle.
``build_consolidated`` gives the same chain's rows a block at a time,
for the chain dump (``chain_csv``) and the golden matrices only: no
N x N array is made.  It refuses systems above MAX_CHAIN_STATES states.

The count chain carries the same shock-count law on at most n + 1 states.
Each shock thins the operating count j binomially, and a state with j
operating units is nonfailed with probability q_j = c_j / C(n, j), where
c_j is the count profile.  Both chains start in state 0, the all-ones
state, and give P{M > m} = e_0 P^m w, with w = q on the count chain and
w = e on the state chain.  A shock never adds an operating unit, so P is
block upper triangular over layers of equal operating count:
``layered_solve`` back-substitutes one layer at a time on either chain,
or on a stack of count chains of one size, which is how a sweep solves
its grid.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import TextIO

import numpy as np

from .errors import CapacityExceeded, InvariantViolation
from .system import MAX_UNITS, BalanceCondition, SystemState
from .tiesets import count_profile, nonfailed_closure

# The chain dump writes about 2 N^2 bytes, nearly all "0,": 15 000 states
# make a 450 MB file in about 7 s (14 199 states: 432 MB in 6.6-6.8 s and
# 82 MB peak RSS on a 2-vCPU VM).  Every n <= 14 system fits (the largest,
# n=14 k=2 BC2, has 14 199); n=16 k=4 BC3 (41 479, 3.4 GB) does not.
MAX_CHAIN_STATES = 15_000

# The state chain holds a few float64 vectors over all 2**n masks (32 MB
# each at n = 22), and its layered solves take one transform per layer,
# O(n^2 2^n): `validate` at n = 22 takes about 40 s, n = 24 would take
# minutes.
MAX_STATE_UNITS = 22

# Units that the state chain's butterfly passes on the transposed array.
_LOW_UNITS = 5

_Rows = Iterator[tuple[np.ndarray, np.ndarray]]  # blocks of (transition, absorb) rows


def mstep_prob(xa: SystemState, xb: SystemState, m: int, r: float) -> float:
    """m-step transition probability (r^m)^c1 (1-r^m)^c2, with c1, c2 and
    c3 the units operating in both states, in xa only and in xb only; zero
    if a failed unit would have to revive (c3 > 0)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if xa.n != xb.n:
        raise ValueError("states must share the unit count")
    c1 = (xa.mask & xb.mask).bit_count()
    c2 = (xa.mask & ~xb.mask).bit_count()
    c3 = (~xa.mask & xb.mask).bit_count()
    if c3 > 0:
        return 0.0
    rm = r**m
    return rm**c1 * (1.0 - rm) ** c2


def _nonfailed_masks(n: int, k: int, bc: BalanceCondition) -> np.ndarray:
    # descending mask == ascending canonical index
    return np.flatnonzero(nonfailed_closure(n, k, bc))[::-1].astype(np.int64)


def _transition_rows(
    masks: np.ndarray, pops: np.ndarray, r: float, row_start: int, row_stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Subset mask and dense block of one-shock transition probabilities for
    rows [row_start, row_stop), over the columns from row_start on:
    sub[i, b] says the units of state b are a subset of those of row i,
    which then becomes b with probability r^|b| (1 - r)^(|i| - |b|)."""
    cols = masks[None, row_start:]
    sub = (masks[row_start:row_stop, None] & cols) == cols
    j = np.arange(int(pops.max()) + 1, dtype=np.float64)
    keep = r**j
    lose = np.append((1.0 - r) ** j, 0.0)  # index -1: not a subset
    lost = np.where(sub, pops[row_start:row_stop, None] - pops[None, row_start:], -1)
    return sub, keep[pops[row_start:]][None, :] * lose[lost]


def _binomial_terms(coef: np.ndarray, a: np.ndarray, r: float) -> np.ndarray:
    """coef[i, b] r^b (1 - r)^(a_i - b): one shock leaves b of a_i operating
    units (coef = C(a_i, b)) or one given b-subset of them (coef = 1)."""
    b = np.arange(coef.shape[-1])
    return coef * r ** b[None, :] * (1.0 - r) ** np.maximum(a[:, None] - b[None, :], 0)


# C(a, b) for 0 <= a, b <= MAX_UNITS, zero for b > a; exact, C(30, 15) < 2^53
_BINOMIALS = np.array(
    [[comb(a, b) for b in range(MAX_UNITS + 1)] for a in range(MAX_UNITS + 1)], dtype=np.float64
)
_BINOMIALS.flags.writeable = False


def _binomials(n: int) -> np.ndarray:
    """C(a, b) for 0 <= a, b <= n, zero for b > a; read-only and shared."""
    return _BINOMIALS[: n + 1, : n + 1]


def build_consolidated(n: int, k: int, bc: BalanceCondition, r: float) -> tuple[np.ndarray, _Rows]:
    """Consolidated chain at unit reliability r: its nonfailed masks in
    canonical order, all-ones state first, and its rows in blocks, each the
    rows' one-shock transition probabilities to the nonfailed states from
    the block's first row on (the last P.shape[1] states; a shock never
    reaches the states before them) and their probabilities of jumping to
    the consolidated failed state.

    Raises CapacityExceeded, before any row is built, above
    MAX_CHAIN_STATES nonfailed states.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie strictly inside (0, 1), got {r}")
    masks = _nonfailed_masks(n, k, bc)
    if masks.size > MAX_CHAIN_STATES:
        raise CapacityExceeded(
            f"consolidated chain capped at {MAX_CHAIN_STATES} states, need {masks.size}"
        )
    return masks, _row_blocks(masks, n, r)


def _row_blocks(masks: np.ndarray, n: int, r: float) -> _Rows:
    # A shock leaves a subset of a state's units, a mask no larger, so with
    # the masks strictly descending no row reaches a column before its own.
    if (np.diff(masks) >= 0).any():
        raise InvariantViolation("nonfailed masks must strictly descend")
    N = masks.size
    pops = np.bitwise_count(masks).astype(np.int64)
    by_count = (pops[:, None] == np.arange(n + 1)[None, :]).astype(np.float64)
    chunk = max(1, (1 << 20) // N)  # 8 MB per float64 block
    for i0 in range(0, N, chunk):
        sub, P = _transition_rows(masks, pops, r, i0, i0 + chunk)
        check_upper_triangular(P)
        # failed[i, j]: j-unit subsets of row i's operating units that are failed
        failed = _binomials(n)[pops[i0 : i0 + chunk]] - sub @ by_count[i0:]
        # The probability of a failed successor, as a sum of nonnegative
        # terms rather than 1 - row sum, which cancels where failing is rare.
        yield P, _binomial_terms(failed, pops[i0 : i0 + chunk], r).sum(axis=1)


def check_upper_triangular(P: np.ndarray) -> None:
    """Raise InvariantViolation when P, a chain's matrix in canonical order
    or a block of it whose first row and first column are the same state,
    has an entry below the diagonal: a shock never revives a unit."""
    if np.tril(P, -1).any():
        raise InvariantViolation("subtransition matrix must be upper triangular")


def _butterfly(f: np.ndarray, r: float, row: bool) -> np.ndarray:
    """f K (row action) or K f (column action) for f over all 2**n masks, as
    one butterfly pass per unit; f serves as scratch space.

    The pass for unit b maps each pair (lo, hi) of masks that differ in bit
    b alone through the unit's 2 x 2 kernel: lo' = lo + (1 - r) hi and
    hi' = r hi for the row action, hi' = (1 - r) lo + r hi for the column
    action.  Every output is a tree of sums of nonnegative products of the
    factors r and 1 - r, and no rounded power of r is reused shock after
    shock, so a pmf series of 50 steps stays within a few rounding errors
    of exact arithmetic.  The lowest _LOW_UNITS units pair entries only
    2**b apart, so they are passed on the transposed array.
    """
    kernel = np.array([[1.0, 0.0], [1.0 - r, r]])
    factor = kernel.T if row else kernel
    n = f.size.bit_length() - 1
    low = min(_LOW_UNITS, n // 2)
    spare = np.empty_like(f)

    def passes(f, spare, units, run):
        for b in units:
            np.matmul(factor, f.reshape(-1, 2, run << b), out=spare.reshape(-1, 2, run << b))
            f, spare = spare, f
        return f, spare

    f, spare = passes(f, spare, range(low, n), 1)
    spare.reshape(1 << low, -1)[:] = f.reshape(-1, 1 << low).T
    f, spare = passes(spare, f, range(low), f.size >> low)
    spare.reshape(-1, 1 << low)[:] = f.reshape(1 << low, -1).T
    return spare


def kron_step(f: np.ndarray, r: float) -> np.ndarray:
    """Row action f K for f over all 2**n masks: the law of the state one
    shock later, each operating unit failing with probability 1 - r."""
    return _butterfly(f.copy(), r, row=True)


def kron_apply(f: np.ndarray, r: float) -> np.ndarray:
    """Column action K f for f over all 2**n masks:
    (K f)_S = sum over subsets T of S of r^|T| (1 - r)^(|S| - |T|) f_T."""
    return _butterfly(f.copy(), r, row=False)


@dataclass(frozen=True, eq=False)
class StateChain:
    """The consolidated chain as an operator, with no stored matrix.

    States are the nonfailed masks in canonical order (descending mask, the
    all-ones state first).  ``step`` (v P) and ``apply`` (P y) spread their
    vector over all 2**n masks, apply the one-shock operator there and read
    the nonfailed masks back, so mass that reaches a failed mask is absorbed.
    ``absorb`` is the one-shock failure probability of each state.
    ``layers`` holds the states of each operating count s, fewest first,
    with their self-transition probability r^s as a one-entry array, which
    broadcasts over the layer's states.
    """

    masks: np.ndarray
    absorb: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    n: int
    r: float

    @property
    def size(self) -> int:
        return self.masks.size

    @property
    def weights(self) -> np.ndarray:
        """Every state of this chain is nonfailed: w = e."""
        return np.ones(self.size)

    def _spread(self, v: np.ndarray) -> np.ndarray:
        full = np.zeros(1 << self.n)
        full[self.masks] = v
        return full

    def step(self, v: np.ndarray) -> np.ndarray:
        return _butterfly(self._spread(v), self.r, row=True)[self.masks]

    def apply(self, y: np.ndarray, rows=slice(None)) -> np.ndarray:
        return _butterfly(self._spread(y), self.r, row=False)[self.masks[rows]]


def state_chain(masks: np.ndarray, n: int, r: float) -> StateChain:
    """The chain over the given nonfailed masks, listed in descending order."""
    failed = np.ones(1 << n)
    failed[masks] = 0.0
    # The probability of a failed successor, as a sum of nonnegative terms
    # rather than 1 - row sum, which cancels where failing is rare.
    absorb = _butterfly(failed, r, row=False)[masks]
    pops = np.bitwise_count(masks)
    layers = tuple(
        (rows, np.full(1, r**s)) for s in range(n + 1) if (rows := np.flatnonzero(pops == s)).size
    )
    return StateChain(masks, absorb, layers, n, r)


def build_state_chain(n: int, k: int, bc: BalanceCondition, r: float) -> StateChain:
    """State chain of the system at unit reliability r.

    Raises CapacityExceeded, before anything of size 2**n is allocated,
    when n > MAX_STATE_UNITS.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie strictly inside (0, 1), got {r}")
    if n > MAX_STATE_UNITS:
        raise CapacityExceeded(f"state chain capped at n <= {MAX_STATE_UNITS} units, got n={n}")
    return state_chain(_nonfailed_masks(n, k, bc), n, r)


def check_up_set(masks: np.ndarray, n: int) -> None:
    """Raise InvariantViolation unless every superset of a listed mask is
    listed.  Failed states then never reach nonfailed ones, which is what
    makes consolidating them into one absorbing state exact."""
    table = np.zeros(1 << n, dtype=bool)
    table[masks] = True
    for b in range(n):
        halves = table.reshape(-1, 2, 1 << b)  # axis 1 is bit b of the mask
        if (halves[:, 0, :] & ~halves[:, 1, :]).any():
            raise InvariantViolation("nonfailed set must be closed under adding units")


@dataclass(frozen=True, eq=False)
class CountChain:
    """Binomial-thinning chain on the operating-unit count.

    State i holds j = n - i operating units, from the all-ones start state
    j = n down to the fewest operating units of any nonfailed state, so
    ``transition`` is upper triangular as in the consolidated chain.
    ``weights`` holds q_j, and ``absorb`` = w - P w the probability that
    the next shock fails the system from each state.

    The arrays may carry leading axes: a stack of chains of one size, which
    ``apply``, ``layered_solve`` and the solves built on it treat as one
    chain with a value per member.  A single chain is the stack of shape ().
    """

    transition: np.ndarray
    absorb: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.weights.shape[-1]

    @cached_property
    def layers(self) -> tuple[tuple[slice, np.ndarray], ...]:
        """One state per layer, fewest operating units (the last state)
        first, with its stay P[a, a] of each member of the stack."""
        stays = np.diagonal(self.transition, axis1=-2, axis2=-1)
        return tuple((slice(a, a + 1), stays[..., a : a + 1]) for a in range(self.size - 1, -1, -1))

    def step(self, v: np.ndarray) -> np.ndarray:
        return v @ self.transition

    def apply(self, y: np.ndarray, rows=slice(None)) -> np.ndarray:
        # one BLAS dot per row, and one matrix-vector product per chain for
        # more rows, whether the chain is single or stacked
        return (self.transition[..., rows, :] @ y[..., None])[..., 0]


def build_count_chains(n: int, rs: list[float], counts: np.ndarray) -> list[CountChain]:
    """Count chains of the profiles ``counts`` (P, n + 1) at each unit
    reliability in ``rs``, states in ``CountChain``'s order: one stack per
    profile, its members in the order of ``rs``.  The stacks may view
    arrays they share, and every profile shares one build of each (n, r)
    thinning matrix."""
    for r in rs:
        if not 0.0 < r < 1.0:
            raise ValueError(f"r must lie strictly inside (0, 1), got {r}")
    # full[i, a, b]: the probability that one shock at rs[i] leaves b of a
    # operating units (zero for b > a)
    full = np.array([_binomial_terms(_binomials(n), np.arange(n + 1), r) for r in rs])
    q = counts / _binomials(n)[n]
    # The nonfailed set is an up-set, so q is nondecreasing in j (the LYM
    # inequality).  Rounding c_j / C(n, j) is monotone, so this is exact.
    if (q[..., 1:] < q[..., :-1]).any():
        raise InvariantViolation(f"q_j = c_j / C(n, j) decreases in j: {q.tolist()}")
    # Rows of full sum to one, so w - P w is this sum of nonnegative terms.
    absorb = (full[:, None] * (q[..., :, None] - q[..., None, :])).sum(axis=-1)
    transition, absorb = full[:, ::-1, ::-1], absorb[..., ::-1]
    weights = np.repeat(q[None, :, ::-1], len(rs), axis=0)
    sizes = n + 1 - np.argmax(counts > 0, axis=-1)
    return [
        CountChain(transition[:, :size, :size], absorb[:, i, :size], weights[:, i, :size])
        for i, size in enumerate(sizes.tolist())
    ]


@lru_cache(maxsize=16)  # validate reads one system's chain in several calls
def build_count_chain(n: int, k: int, bc: BalanceCondition, r: float) -> CountChain:
    """Count chain of the system at unit reliability r, started state first:
    ``build_count_chains`` for one profile and one r."""
    (stack,) = build_count_chains(n, [r], count_profile(n, k, bc)[None])
    return CountChain(
        *(np.ascontiguousarray(a[0]) for a in (stack.transition, stack.absorb, stack.weights))
    )


def layered_solve(chain: StateChain | CountChain, solve_layer) -> np.ndarray:
    """Back-substitution over ``chain.layers``, fewest operating units first.

    A layer's states reach only themselves and lower layers in one shock.
    ``solve_layer(rows, stay, inflow)`` solves one layer: ``stay`` is its
    self-transition probability and ``inflow`` = (P c)[rows], where c holds
    what the layers solved so far return (zero on the first layer).  The
    filled c is returned.  On a stack of count chains c, ``stay`` and
    ``inflow`` carry the stack's leading axes, and one pass solves every
    member.
    """
    carried = np.zeros(chain.weights.shape)
    for i, (rows, stay) in enumerate(chain.layers):
        inflow = chain.apply(carried, rows) if i else 0.0
        carried[..., rows] = solve_layer(rows, stay, inflow)
    return carried


def chain_csv(fh: TextIO, n: int, masks: np.ndarray, blocks: _Rows) -> None:
    """Write the debug dump of the full partitioned matrix, with state
    headers, to the open text file fh, one block of rows at a time.

    Only nonzero entries are formatted: the chain holds no -0.0, so every
    other cell is "0", as ``f"{0.0:.12g}"`` writes it.
    """
    labels = [format(mask, f"0{n}b") for mask in masks.tolist()]
    fh.write(f"state,{','.join(labels)},absorbed\n")
    rest = iter(labels)
    for P, absorb in blocks:
        left = "0," * (masks.size - P.shape[1])  # the zeros before its first column
        # zip stops at the block's end before it takes the next label
        for row, a, label in zip(P, absorb.tolist(), rest):
            cells = ["0"] * row.size
            nonzero = np.flatnonzero(row)
            for j, v in zip(nonzero.tolist(), row[nonzero].tolist()):
                cells[j] = f"{v:.12g}"
            fh.write(f"{label},{left}{','.join(cells)},{a:.12g}\n")
    fh.write("absorbed," + "0," * masks.size + "1\n")
