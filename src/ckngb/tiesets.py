"""The nonfailed set, its minimum tie-sets and its count profile.

A tie-set is an inclusion-minimal set of at least k units whose joint
operation keeps the system balanced; a state is nonfailed exactly when
its operating set contains one (surplus units can be switched off to
rebalance).  Equivalently, the nonfailed set is the superset closure of
the balanced sets of at least k units.  ``nonfailed_closure`` builds that
closure; the tie-sets are its minimal elements, and the exact reliability
is the polynomial of its count profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoTieSets
from .system import BalanceCondition, SystemState, balanced_mask_table

_PROFILE_BLOCK = 1 << 20


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
    """uint8 array over all 2**n bitmasks: the number of set bits.

    Built by doubling: the masks with bit b set are those below 2**b, plus
    one.  The array is read-only and shared between callers.
    """
    table = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        np.add(table[: 1 << b], 1, out=table[1 << b : 2 << b])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def nonfailed_closure(n: int, k: int, bc: BalanceCondition) -> np.ndarray:
    """Bool array over all 2**n bitmasks: the operating set contains a
    balanced set of at least k units.

    The closure takes one in-place OR pass per unit, lifting every marked mask
    to the mask with that unit's bit also set.  The array is read-only and
    shared between callers; raises NoTieSets when it is empty.
    """
    table = balanced_mask_table(n, bc) & (popcounts(n) >= k)
    if not table.any():
        raise NoTieSets(f"no tie-sets for n={n}, k={k}, bc={bc.value}")
    for b in range(n):
        halves = table.reshape(-1, 2, 1 << b)  # axis 1 is bit b of the mask
        halves[:, 1, :] |= halves[:, 0, :]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=128)
def enumerate_min_tiesets(n: int, k: int, bc: BalanceCondition) -> TieSetCollection:
    """The minimal elements of the nonfailed set.

    A nonfailed mask S is minimal when S minus b is failed for every bit b
    of S; one in-place pass per unit clears every mask whose bit-b-free
    twin is nonfailed.  Raises NoTieSets when the nonfailed set is empty.
    """
    closure = nonfailed_closure(n, k, bc)
    minimal = closure.copy()
    for b in range(n):
        below = closure.reshape(-1, 2, 1 << b)[:, 0, :]  # axis 1 is bit b of the mask
        minimal.reshape(-1, 2, 1 << b)[:, 1, :] &= ~below
    masks = np.flatnonzero(minimal)[::-1]
    masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
    tiesets = tuple(TieSet(SystemState(int(m), n).operating_units()) for m in masks)
    return TieSetCollection(tiesets, n, k, bc, tuple(int(m) for m in masks))


@lru_cache(maxsize=128)
def count_profile(n: int, k: int, bc: BalanceCondition) -> np.ndarray:
    """c_j for j = 0..n: the number of nonfailed states with exactly j
    operating units.

    Every lifetime quantity depends on the nonfailed set only through these
    counts: after m shocks each unit still operates with probability
    p = r**m, independently, so P{M > m} = sum_j c_j p**j (1 - p)**(n - j).
    The array is read-only and shared between callers.
    """
    closure = nonfailed_closure(n, k, bc)
    pops = popcounts(n)
    counts = np.zeros(n + 1, dtype=np.int64)
    # in blocks, so the intp copy bincount makes of its input stays small
    for i in range(0, closure.size, _PROFILE_BLOCK):
        block = slice(i, i + _PROFILE_BLOCK)
        counts += np.bincount(pops[block][closure[block]], minlength=n + 1)
    counts.flags.writeable = False
    return counts


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
