"""The nonfailed set, its minimum tie-sets and its count profile.

A tie-set is an inclusion-minimal set of at least k units whose joint
operation keeps the system balanced; a state is nonfailed exactly when
its operating set contains one (surplus units can be switched off to
rebalance).  Equivalently, the nonfailed set is the superset closure of
the balanced sets of at least k units.  One table per (n, bc) serves
every k: ``rank_table`` holds the size of the largest balanced subset of
each mask, and the nonfailed set at threshold k is the masks that rank k
or more.  The tie-sets are its minimal elements, and the exact
reliability is the polynomial of its count profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import NoTieSets
from .system import BalanceCondition, balanced_masks

# The count profile takes the masks in blocks of 2**_PROFILE_UNITS, so the
# intp copy bincount makes stays at 2 MB and the popcount table at 256 KB.
_PROFILE_UNITS = 18


@dataclass(frozen=True)
class TieSet:
    members: tuple[int, ...]  # sorted 1-based unit indices

    @property
    def size(self) -> int:
        return len(self.members)

    def mask(self, n: int) -> int:
        m = 0
        for i in self.members:
            m |= 1 << (n - i)
        return m

    def __str__(self) -> str:
        return ",".join(str(i) for i in self.members)


@dataclass(frozen=True)
class TieSetCollection:
    """All minimum tie-sets of one system, in deterministic order
    (ascending cardinality, then lexicographic member order)."""

    tiesets: tuple[TieSet, ...]
    n: int
    k: int
    bc: BalanceCondition
    masks: tuple[int, ...]  # aligned with tiesets

    def __len__(self) -> int:
        return len(self.tiesets)


@lru_cache(maxsize=4)
def popcounts(n: int) -> np.ndarray:
    """uint8 array over all 2**n bitmasks: the number of set bits, for
    n <= _PROFILE_UNITS.

    Built by doubling: the masks with bit b set are those below 2**b, plus
    one.  The array is read-only and shared between callers.
    """
    table = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        np.add(table[: 1 << b], 1, out=table[1 << b : 2 << b])
    table.flags.writeable = False
    return table


# The rank transform passes the lowest _LOW_UNITS units on transposed
# chunks of 2**_CHUNK_UNITS masks, where a unit's pairs lie far apart
# instead of 2**b bytes apart.
_LOW_UNITS = 4
_CHUNK_UNITS = 16


def _max_passes(table: np.ndarray, units, run: int) -> None:
    """table[m] = max(table[m], table[m without bit b]) in place, for each
    unit b in units; bit b of the mask pairs entries run << b apart."""
    for b in units:
        halves = table.reshape(-1, 2, run << b)  # axis 1 is bit b of the mask
        np.maximum(halves[:, 1, :], halves[:, 0, :], out=halves[:, 1, :])


@lru_cache(maxsize=4)  # the layer's only cached 2**n array, one byte per mask: 1 GB at n = 30
def rank_table(n: int, bc: BalanceCondition) -> np.ndarray:
    """uint8 array over all 2**n bitmasks: the size of the largest balanced
    subset of the mask, 0 when it has none.

    Starting from the size of each balanced mask, zero elsewhere, one
    in-place subset-max pass per unit lifts every size to the masks with
    that unit's bit also set.  The nonfailed set at threshold k is ``rank >= k``, so one table
    serves every k.  The array is read-only and shared between callers.
    """
    masks = balanced_masks(n, bc)
    rank = np.zeros(1 << n, dtype=np.uint8)
    rank[masks] = np.bitwise_count(masks)
    low = min(_LOW_UNITS, n // 2)
    _max_passes(rank, range(low, n), 1)
    scratch = np.empty(min(rank.size, 1 << _CHUNK_UNITS), dtype=np.uint8)
    for chunk in rank.reshape(-1, scratch.size):
        scratch.reshape(1 << low, -1)[:] = chunk.reshape(-1, 1 << low).T
        _max_passes(scratch, range(low), scratch.size >> low)
        chunk.reshape(-1, 1 << low)[:] = scratch.reshape(1 << low, -1).T
    rank.flags.writeable = False
    return rank


def _feasible_rank(n: int, k: int, bc: BalanceCondition) -> np.ndarray:
    """The rank table; raises NoTieSets when even the all-ones mask ranks
    below k, that is, when the nonfailed set is empty."""
    rank = rank_table(n, bc)
    if rank[-1] < k:
        raise NoTieSets(f"no tie-sets for n={n}, k={k}, bc={bc.value}")
    return rank


def nonfailed_closure(n: int, k: int, bc: BalanceCondition) -> np.ndarray:
    """Bool array over all 2**n bitmasks: the operating set contains a
    balanced set of at least k units, ``rank_table(n, bc) >= k``.  Raises
    NoTieSets when it is empty."""
    return _feasible_rank(n, k, bc) >= k


@lru_cache(maxsize=128)
def enumerate_min_tiesets(n: int, k: int, bc: BalanceCondition) -> TieSetCollection:
    """The minimal elements of the nonfailed set.

    A minimal nonfailed mask is itself a balanced set of at least k units
    (any unit outside the balanced set it contains could be removed), and
    a balanced mask S of at least k units is minimal when S minus b ranks
    below k for every bit b of S.  Balanced masks are few (9 999 of the
    2**24 at n=24 under BC3), so only they are tested, all bits in one
    gather.  Raises NoTieSets when the nonfailed set is empty.
    """
    rank = _feasible_rank(n, k, bc)
    masks = balanced_masks(n, bc)
    masks = masks[np.bitwise_count(masks) >= k]
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    held = (masks[:, None] & bits) != 0
    minimal = (~held | (rank[masks[:, None] ^ bits] < k)).all(axis=1)
    masks = masks[minimal][::-1]
    masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
    # Unit i is bit n - i, so column j of this bit matrix is unit j + 1, and
    # its nonzeros come row by row in ascending unit order.
    units = (np.nonzero(masks[:, None] & bits[::-1])[1] + 1).tolist()
    sizes = np.bitwise_count(masks).tolist()
    tiesets = tuple(
        TieSet(tuple(units[end - size : end])) for size, end in zip(sizes, accumulate(sizes))
    )
    return TieSetCollection(tiesets, n, k, bc, tuple(masks.tolist()))


@lru_cache(maxsize=64)
def _rank_profiles(n: int, bc: BalanceCondition) -> np.ndarray:
    """Row k, for k = 0..n: the count profile of the nonfailed set at
    threshold k.  One histogram of the masks over (rank, popcount), summed
    over the ranks from k up, serves every k.  Read-only."""
    rank = rank_table(n, bc)
    pops = popcounts(min(n, _PROFILE_UNITS))
    hist = np.zeros((n + 1) * (n + 1), dtype=np.int64)
    for i in range(0, rank.size, pops.size):
        key = rank[i : i + pops.size] * np.uint16(n + 1)
        key += pops
        # A mask's popcount is that of its offset in the block plus that of
        # the block's first mask i, so the block's histogram moves up by
        # that much, inside each rank's row: no popcount exceeds n.
        high = i.bit_count()
        hist[high:] += np.bincount(key, minlength=hist.size)[: hist.size - high]
    profiles = np.cumsum(hist.reshape(n + 1, n + 1)[::-1], axis=0)[::-1]
    profiles.flags.writeable = False
    return profiles


def count_profile(n: int, k: int, bc: BalanceCondition) -> np.ndarray:
    """c_j for j = 0..n: the number of nonfailed states with exactly j
    operating units.

    Every lifetime quantity depends on the nonfailed set only through these
    counts: after m shocks each unit still operates with probability
    p = r**m, independently, so P{M > m} = sum_j c_j p**j (1 - p)**(n - j).
    The array is read-only and shared between callers; raises NoTieSets
    when the nonfailed set is empty.
    """
    profiles = _rank_profiles(n, bc)
    if k > n or not profiles[k, n]:  # the all-ones mask ranks below k
        raise NoTieSets(f"no tie-sets for n={n}, k={k}, bc={bc.value}")
    return profiles[k]


def reliability_polynomial(n: int, k: int, bc: BalanceCondition, p: float | np.ndarray) -> np.ndarray:
    """h(p) = sum_j c_j p^j (1 - p)^(n - j), with 0**0 = 1: the probability
    that the system is nonfailed when each unit operates independently with
    probability p.  Evaluated elementwise over an array p."""
    j = np.arange(n + 1, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)[..., None]
    return (count_profile(n, k, bc) * (p**j * (1.0 - p) ** (n - j))).sum(axis=-1)


def system_reliability_product(collection: TieSetCollection, r: float) -> float:
    """Product-form reliability 1 - prod_T (1 - r^|T|).

    Treats tie-set events as independent; with overlapping tie-sets this
    deviates from the exact expectation (see system_reliability_exact).
    """
    prod = 1.0
    for tie in collection.tiesets:
        prod *= 1.0 - r**tie.size
    return 1.0 - prod


def system_reliability_exact(collection: TieSetCollection, r: float) -> float:
    """Exact one-shot reliability h(r), read off the count profile."""
    return float(reliability_polynomial(collection.n, collection.k, collection.bc, r))
