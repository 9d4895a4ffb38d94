"""System states on the circular layout and the three balance conditions.

Units are equispaced on a circle, numbered counterclockwise with unit 1
at angle zero.  A state records which units still operate.  The balance
predicates decide whether an operating set keeps the layout balanced:

* BC1 - a pair of perpendicular symmetry axes exists,
* BC2 - the operating set has a nontrivial rotational symmetry,
* BC3 - the center of gravity of the operating units sits at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ConfigError, OddNUnsupported

if TYPE_CHECKING:  # pragma: no cover
    from .ttf import ContinuousPhaseType

MAX_UNITS = 30

# Nonzero vector sums of n-th roots of unity have magnitude far above this
# for n <= MAX_UNITS, so the centroid test is effectively exact.
BC3_TOLERANCE_PER_UNIT = 1e-9


class BalanceCondition(Enum):
    BC1 = "BC1"
    BC2 = "BC2"
    BC3 = "BC3"

    @classmethod
    def parse(cls, value: "BalanceCondition | str") -> "BalanceCondition":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise ConfigError(f"bc: unknown balance condition {value!r}") from None


@dataclass(frozen=True)
class SystemState:
    """Operating pattern of the n units, packed into a bitmask.

    Unit i (1-based) occupies bit n - i, so unit 1 is the most significant
    bit.  The canonical state index is ``2**n - mask``: the all-ones state
    has index 1 and the all-zeros state index 2**n, and descending masks
    enumerate states in ascending index order.
    """

    mask: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_UNITS:
            raise ConfigError(f"n: must satisfy 1 <= n <= {MAX_UNITS}, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ConfigError(f"mask: out of range for n={self.n}")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "SystemState":
        n = len(bits)
        mask = 0
        for b in bits:
            mask = (mask << 1) | (1 if b else 0)
        return cls(mask, n)

    @classmethod
    def from_units(cls, units: Iterable[int], n: int) -> "SystemState":
        mask = 0
        for i in units:
            if not 1 <= i <= n:
                raise ConfigError(f"unit index {i} out of range 1..{n}")
            mask |= 1 << (n - i)
        return cls(mask, n)

    @classmethod
    def full(cls, n: int) -> "SystemState":
        return cls((1 << n) - 1, n)

    @property
    def index(self) -> int:
        return (1 << self.n) - self.mask

    def bit(self, i: int) -> int:
        """Status of unit i (1-based): 1 operating, 0 failed."""
        return (self.mask >> (self.n - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> (self.n - i)) & 1 for i in range(1, self.n + 1))

    def operating_units(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.bit(i))

    def __str__(self) -> str:  # "1010"-style, unit 1 leftmost
        return format(self.mask, f"0{self.n}b")


def unit_angle(i: int, n: int) -> float:
    """Angular position of unit i on the n-unit circle; unit 1 sits at 0."""
    if not 1 <= i <= n:
        raise ConfigError(f"unit index {i} out of range 1..{n}")
    return 2.0 * math.pi * (i - 1) / n


def is_balanced_bc3(state: SystemState) -> bool:
    """Center of gravity of the operating units lies at the origin."""
    if state.mask == 0:
        return False
    sx = 0.0
    sy = 0.0
    for i in state.operating_units():
        theta = unit_angle(i, state.n)
        sx += math.cos(theta)
        sy += math.sin(theta)
    return math.hypot(sx, sy) <= BC3_TOLERANCE_PER_UNIT * state.n


def _reflection_invariant(positions: frozenset[int], axis: int, n: int) -> bool:
    # Reflection across the axis at angle pi*axis/n maps position p to axis - p.
    return all((axis - p) % n in positions for p in positions)


def is_balanced_bc1(state: SystemState) -> bool:
    """A pair of perpendicular symmetry axes of the operating set exists.

    Candidate axes are the n dihedral axes of the regular n-gon (angles
    pi*j/n); a perpendicular pair among them exists only for even n.
    """
    n = state.n
    if n % 2 != 0:
        raise OddNUnsupported(f"BC1 needs an even unit count, got n={n}")
    if state.mask == 0:
        return False
    positions = frozenset(n - 1 - b for b in range(n) if (state.mask >> b) & 1)
    half = n // 2
    for j in range(half):
        if _reflection_invariant(positions, j, n) and _reflection_invariant(
            positions, j + half, n
        ):
            return True
    return False


def is_balanced_bc2(state: SystemState) -> bool:
    """The operating set is invariant under some nontrivial rotation."""
    n = state.n
    if state.mask == 0:
        return False
    full = (1 << n) - 1
    for s in range(1, n):
        rotated = ((state.mask >> s) | (state.mask << (n - s))) & full
        if rotated == state.mask:
            return True
    return False


_PREDICATES = {
    BalanceCondition.BC1: is_balanced_bc1,
    BalanceCondition.BC2: is_balanced_bc2,
    BalanceCondition.BC3: is_balanced_bc3,
}


def is_balanced(state: SystemState, bc: BalanceCondition) -> bool:
    return _PREDICATES[bc](state)


# Up to this many units BC3 tests all 2**n centroid sums at once (64 KB at
# n = 12), in fewer numpy calls than the sorted search.  Measured per call
# on a 2-vCPU VM: 44 against 62 us at n = 11 and 46 against 57 us at n = 12,
# a tie at n = 13 (83 against 86 us), and the search ahead from n = 14
# (79 against 121 us).  figure-sweeps, whose tables all have n <= 12, runs
# about 5 % slower without the dense test.
_BC3_DENSE_UNITS = 12
# Rows of high bits the sorted BC3 search takes at once: with n // 2 low
# bits, one batch covers every row up to n = 20, and a batch holds at most
# 151 372 candidates (n = 30).
_BC3_ROWS = 1 << 10


def _bit_sums(weights: np.ndarray) -> np.ndarray:
    """s[m] = sum of weights[b] over the set bits b of m, built by doubling."""
    sums = np.zeros(1 << weights.size, dtype=weights.dtype)
    for b, w in enumerate(weights):
        np.add(sums[: 1 << b], w, out=sums[1 << b : 2 << b])
    return sums


def _rotate_right(masks: np.ndarray, s: int, n: int) -> np.ndarray:
    """Rotate n-bit masks right by s bits: position p moves to p + s."""
    return ((masks >> s) | (masks << (n - s))) & ((1 << n) - 1)


def _prime_factors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


@lru_cache(maxsize=64)  # tiesets re-reads it, for the plane and the tie-set scan
def balanced_masks(n: int, bc: BalanceCondition) -> np.ndarray:
    """Vectorized twin of the scalar predicates: the nonzero balanced
    masks, as a sorted int64 array.

    BC3 adds the centroid sums of the low and the high bits of each mask;
    BC1 and BC2 list their balanced masks from the repeated words they
    consist of, so no route holds a value for every mask.  The returned
    array is read-only and shared between callers.
    """
    if bc is BalanceCondition.BC1 and n % 2 != 0:
        raise OddNUnsupported(f"BC1 needs an even unit count, got n={n}")
    if bc is BalanceCondition.BC3:
        # Mask bit b is the unit at position n - 1 - b.
        roots = np.exp(2j * np.pi * (n - 1 - np.arange(n)) / n)
        low = n // 2
        lo = _bit_sums(roots[:low])
        hi = _bit_sums(roots[low:])
        tol = BC3_TOLERANCE_PER_UNIT * n
        if n <= _BC3_DENSE_UNITS:
            # row-major, the sum of row r and column c sits at mask r << low | c
            masks = np.flatnonzero(np.abs(lo + hi[:, None]) <= tol)[1:]
        else:
            # |lo + shift| <= tol needs |Re| <= tol, and a rounded sum moves
            # far less than tol: with the low sums sorted by real part, the
            # candidates of a row are one run, found by bisection, and only
            # they take the test on the complex sum.  Stable sorts here and
            # below: numpy's quicksort maps about 0.25 MB more of its code
            # into the process.
            order = np.argsort(lo.real, kind="stable")
            real = lo.real[order]
            window = np.array([-2.0 * tol, 2.0 * tol])
            parts = []
            for first in range(0, hi.size, _BC3_ROWS):
                # row r's candidates are order[starts[r] : starts[r] + counts[r]]
                bounds = np.searchsorted(real, window - hi.real[first : first + _BC3_ROWS, None])
                starts, counts = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
                rows = np.repeat(np.arange(first, first + counts.size), counts)
                runs = np.arange(rows.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)
                low_masks = order[runs]
                balanced = np.abs(lo[low_masks] + hi[rows]) <= tol
                parts.append((rows[balanced] << low) | low_masks[balanced])
            # each mask is found once, the empty set first
            masks = np.sort(np.concatenate(parts), kind="stable")[1:]
    elif bc is BalanceCondition.BC2:
        # Invariance under rotation by d implies invariance under every
        # multiple of d, and every proper divisor of n divides some n/p with
        # p prime: the balanced sets are the words of d = n/p bits repeated
        # p times, and word w repeated is w * (2**n - 1) / (2**d - 1).
        parts = [np.zeros(1, dtype=np.int64)]
        for p in _prime_factors(n):
            d = n // p
            parts.append(np.arange(1 << d, dtype=np.int64) * (((1 << n) - 1) // ((1 << d) - 1)))
        # Words of several periods give the same mask: keep each once, and
        # drop the empty set, which sorts first.
        masks = np.sort(np.concatenate(parts), kind="stable")
        masks = masks[1:][masks[1:] != masks[:-1]]
    else:
        # R_j o R_{j+h} is the rotation by h = n/2, so a BC1 set is a word of
        # h bits repeated twice, on which the reflection R_j (p -> j - p)
        # acts as the reflection q -> j - q of the h-gon: a bit reversal,
        # then a rotation by j + 1, which takes every value mod h for j < h.
        h = n // 2
        words = np.arange(1 << h, dtype=np.int64)
        reversed_words = _bit_sums(1 << np.arange(h - 1, -1, -1, dtype=np.int64))
        symmetric = np.zeros(words.size, dtype=bool)
        for s in range(h):
            symmetric |= _rotate_right(reversed_words, s, h) == words
        masks = words[symmetric][1:] * ((1 << h) + 1)  # the empty word first
    masks.flags.writeable = False
    return masks


# The name the benchmark's traced mode wraps as the system.balance_table layer.
balanced_mask_table = balanced_masks


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one system: size, threshold, unit reliability,
    balance condition, and (optionally) the inter-shock time law."""

    n: int
    k: int
    r: float
    bc: BalanceCondition = BalanceCondition.BC3
    shock: "ContinuousPhaseType | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.k, int):
            raise ConfigError("n, k: must be integers")
        if not 2 <= self.n <= MAX_UNITS:
            raise ConfigError(f"n: must satisfy 2 <= n <= {MAX_UNITS}, got {self.n}")
        if not 2 <= self.k <= self.n:
            raise ConfigError(f"k: must satisfy 2 <= k <= n, got k={self.k}, n={self.n}")
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"r: must lie strictly inside (0, 1), got {self.r}")
        if self.bc is BalanceCondition.BC1 and self.n % 2 != 0:
            raise OddNUnsupported(f"bc: BC1 needs an even unit count, got n={self.n}")
