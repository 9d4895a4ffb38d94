"""The nonfailed set, its minimum tie-sets and its count profile.

A tie-set is an inclusion-minimal set of at least k units whose joint
operation keeps the system balanced; a state is nonfailed exactly when
its operating set contains one (surplus units can be switched off to
rebalance).  Equivalently, the nonfailed set is the superset closure of
the balanced sets of at least k units.  It is held as a closure plane,
one bit per mask, 64 masks to a uint64 word: closed inside each word by
its seeds and across words by OR passes (a bitwise zeta transform:
Knuth, TAOCP 4A, section 7.1.3).  The tie-sets are its minimal elements,
held, like the balanced sets, as int masks and turned into unit lists
only for printing; the exact reliability is the polynomial of its count
profile, read off the plane word by word.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import NoTieSets
from .system import BalanceCondition, balanced_masks

# Closure planes are built 8 rows at a time: 8 rows of 2**n bits are 2**n
# bytes.  The count profile reads them in blocks of 2**10 words.
_GROUP_ROWS = 8
_BLOCK_WORDS = 1 << 10

_T = np.arange(64)
_BIT = np.uint64(1) << _T.astype(np.uint64)
# Bit u of _UP[t] is set when u contains t: mask t closed inside its word.
_UP = np.bitwise_or.reduce(np.where((_T & _T[:, None]) == _T[:, None], _BIT, 0), axis=1)
# Bit t of _CLASSES[c] is set when t has c set bits.
_CLASSES = np.bitwise_or.reduce(np.where(np.bitwise_count(_T) == _T[:7, None], _BIT, 0), axis=1)


def _bits(plane: np.ndarray, masks: np.ndarray, out=None, shifts=None) -> np.ndarray:
    """The bit of each mask in the plane, 0 or 1, as int64; out and shifts,
    int64 arrays of the masks' shape, spare new ones."""
    shifts = np.right_shift(masks, 6, out=shifts)
    # int64 words take int64 shifts uncast; every index is in range, and
    # mode="clip" lets take fill out directly
    words = np.take(plane.view(np.int64), shifts, out=out, mode="clip")
    np.bitwise_and(masks, 63, out=shifts)
    words >>= shifts
    words &= 1
    return words


def _planes(n: int, bc: BalanceCondition, ks: tuple[int, ...], masks: np.ndarray):
    """Closure planes of the thresholds ks, _GROUP_ROWS rows at a time, from
    the balanced masks of n and bc: uint64 arrays (rows, max(1, 2**n // 64)),
    where bit m % 64 of word m // 64 of the row of k is set when mask m
    contains a balanced set of at least k units.  Raises NoTieSets, before
    any work, when a row would be empty.

    Each balanced mask seeds its word with all of its supersets inside the
    word (``_UP``); one OR pass per unit above the lowest six lifts every
    word to the word with that unit's bit also set.
    """
    sizes = np.bitwise_count(masks)
    if max(ks) > sizes.max(initial=0):
        raise NoTieSets(f"no tie-sets for n={n}, k={max(ks)}, bc={bc.value}")
    seeds = _UP[masks & 63] & np.uint64((1 << (1 << min(n, 6))) - 1)
    for lo in range(0, len(ks), _GROUP_ROWS):
        group = np.array(ks[lo : lo + _GROUP_ROWS])
        rows, cols = np.nonzero(sizes >= group[:, None])
        planes = np.zeros((group.size, max(1, (1 << n) >> 6)), dtype=np.uint64)
        np.bitwise_or.at(planes, (rows, masks[cols] >> 6), seeds[cols])
        for b in range(n - 6):
            halves = planes.reshape(group.size, -1, 2, 1 << b)  # axis 2 is mask bit b + 6
            halves[:, :, 1] |= halves[:, :, 0]
        yield planes


def enumerate_min_tiesets(n: int, k: int, bc: BalanceCondition) -> np.ndarray:
    """The minimal elements of the nonfailed set, as int64 masks in
    ascending size, then lexicographic unit order.

    A minimal nonfailed mask is itself a balanced set of at least k units
    (any unit outside the balanced set it contains could be removed), and
    a balanced mask S of at least k units is minimal when S minus b is
    clear in the closure plane for every bit b of S.  Balanced masks are
    few (9 999 of the 2**24 at n=24 under BC3), so only they are tested,
    all bits in one lookup.  Raises NoTieSets when the nonfailed set is
    empty.
    """
    masks, plane, _ = _structure(n, k, bc)
    masks = masks[np.bitwise_count(masks) >= k].astype(np.int32)  # n <= 30 bits
    bits = np.int32(1) << np.arange(n, dtype=np.int32)
    # S plus an absent bit is a superset of S, so always set: S is minimal
    # when only those n - |S| of its n neighbours are set.
    minimal = _bits(plane, bits[:, None] ^ masks).sum(axis=0) == n - np.bitwise_count(masks)
    masks = masks[minimal][::-1]
    return masks[np.argsort(np.bitwise_count(masks), kind="stable")].astype(np.int64)


def tieset_members(masks: np.ndarray, n: int) -> list[str]:
    """Each tie-set's units, 1-based and ascending, as the line ``1,3``."""
    # Unit i is bit n - i, so column j of this bit matrix is unit j + 1, and
    # its nonzeros come row by row in ascending unit order.
    units = (np.nonzero(masks[:, None] & (1 << np.arange(n - 1, -1, -1)))[1] + 1).tolist()
    sizes = np.bitwise_count(masks).tolist()
    return [",".join(map(str, units[end - size : end])) for size, end in zip(sizes, accumulate(sizes))]


def _profiles(n: int, planes: np.ndarray) -> np.ndarray:
    """Row i: the count profile of row i of the planes, exact int64.

    Bit t of word w is mask 64 w + t, whose popcount is that of w plus
    that of t: each word's bits are counted per popcount class of t
    (``_CLASSES``) and binned at popcount(w) + class.  The words go in
    blocks, and a word's popcount is that of its offset in the block plus
    that of the block's first word, so the blocks are summed per popcount
    of their first word and class before the one binning.
    """
    rows, words = planes.shape
    block = min(words, _BLOCK_WORDS)
    # sums[d], per row and offset in the block: the bits of class c summed
    # over the blocks whose first word has popcount d - c, for every c
    sums = np.zeros(((words // block).bit_length() + 6, rows, block), dtype=np.int32)
    for i in range(0, words, block):
        classes = np.bitwise_count(_CLASSES[:, None, None] & planes[:, i : i + block])
        sums[i.bit_count() : i.bit_count() + 7] += classes
    span = max(n, 6) + 1  # bins per row; no mask has more than n bits set
    keys = np.bitwise_count(np.arange(block)) + span * np.arange(rows)[:, None]
    keys = keys + np.arange(len(sums))[:, None, None]
    counts = np.bincount(keys.ravel(), sums.ravel(), rows * span).reshape(rows, span)
    return counts[:, : n + 1].astype(np.int64)  # float sums of counts below 2**53 are exact


@lru_cache(maxsize=2)  # every command re-reads it; the plane is 128 MB at n = 30
def _structure(n: int, k: int, bc: BalanceCondition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The system's structure as three read-only arrays: the balanced masks
    of n and bc, the closure plane of k (one row) and its count profile.
    Raises NoTieSets when the nonfailed set is empty."""
    masks = balanced_masks(n, bc)
    (plane,) = next(_planes(n, bc, (k,), masks))
    profile = _profiles(n, plane[None])[0]
    plane.flags.writeable = profile.flags.writeable = False
    return masks, plane, profile


def count_profile(n: int, k: int | tuple[int, ...], bc: BalanceCondition) -> np.ndarray:
    """c_j for j = 0..n: the number of nonfailed states with exactly j
    operating units.

    Every lifetime quantity depends on the nonfailed set only through these
    counts: after m shocks each unit still operates with probability
    p = r**m, independently, so P{M > m} = sum_j c_j p**j (1 - p)**(n - j).
    A tuple of thresholds gives one row per threshold in one call: those
    with the same least balanced-set size at or above them select the same
    balanced masks and share one plane.  The profile of an int k is
    read-only and shared between callers; raises NoTieSets when a
    nonfailed set is empty.
    """
    if not isinstance(k, tuple):
        return _structure(n, k, bc)[2]
    masks = balanced_masks(n, bc)
    have = np.bincount(np.bitwise_count(masks), minlength=n + 1).tolist()
    # a threshold above every size stays itself, for _planes to refuse
    least = [next((s for s in range(t, n + 1) if have[s]), t) for t in k]
    ks = tuple(sorted(set(least)))
    profile = np.concatenate([_profiles(n, group) for group in _planes(n, bc, ks, masks)])
    return profile[[ks.index(s) for s in least]]


def reliability_polynomial(n: int, k: int, bc: BalanceCondition, p: float | np.ndarray) -> np.ndarray:
    """h(p) = sum_j c_j p^j (1 - p)^(n - j), with 0**0 = 1: the probability
    that the system is nonfailed when each unit operates independently with
    probability p.  Evaluated elementwise over an array p."""
    j = np.arange(n + 1, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)[..., None]
    return (count_profile(n, k, bc) * (p**j * (1.0 - p) ** (n - j))).sum(axis=-1)


def system_reliability_product(masks: np.ndarray, r: float) -> float:
    """Product-form reliability 1 - prod_T (1 - r^|T|) over the tie-set
    masks.

    Treats tie-set events as independent; with overlapping tie-sets this
    deviates from the exact expectation (see system_reliability_exact).
    """
    prod = 1.0
    for size in np.bitwise_count(masks).tolist():
        prod *= 1.0 - r**size
    return 1.0 - prod


def system_reliability_exact(n: int, k: int, bc: BalanceCondition, r: float) -> float:
    """Exact one-shot reliability h(r), read off the count profile."""
    return float(reliability_polynomial(n, k, bc, r))
