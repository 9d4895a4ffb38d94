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


# Bits of the mask whose centroid sums the BC3 table holds at once: 2**16
# complex values, against one table row per setting of the other bits.
_BC3_LOW_BITS = 16


def _bit_sums(weights: np.ndarray) -> np.ndarray:
    """s[m] = sum of weights[b] over the set bits b of m, built by doubling."""
    sums = np.zeros(1, dtype=weights.dtype)
    for w in weights:
        sums = np.concatenate((sums, sums + w))
    return sums


def _rotate_right(masks: np.ndarray, s: int, n: int) -> np.ndarray:
    """Rotate n-bit masks right by s bits: position p moves to p + s."""
    return ((masks >> s) | (masks << (n - s))) & ((1 << n) - 1)


def _prime_factors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


@lru_cache(maxsize=64)
def balanced_mask_table(n: int, bc: BalanceCondition) -> np.ndarray:
    """Vectorized twin of the scalar predicates: one bool per bitmask.

    BC3 adds the centroid sums of the low and the high bits of each mask;
    BC1 and BC2 write their balanced masks from the repeated words they
    consist of, so no route holds a per-unit value for every mask.  The
    returned array is read-only and shared between callers.
    """
    if bc is BalanceCondition.BC1 and n % 2 != 0:
        raise OddNUnsupported(f"BC1 needs an even unit count, got n={n}")
    if bc is BalanceCondition.BC3:
        # Mask bit b is the unit at position n - 1 - b.
        roots = np.exp(2j * np.pi * (n - 1 - np.arange(n)) / n)
        lo = _bit_sums(roots[: min(n, _BC3_LOW_BITS)])
        hi = _bit_sums(roots[min(n, _BC3_LOW_BITS) :])
        table = np.empty(1 << n, dtype=bool)
        for row, shift in zip(table.reshape(hi.size, lo.size), hi):
            np.less_equal(np.abs(lo + shift), BC3_TOLERANCE_PER_UNIT * n, out=row)
    elif bc is BalanceCondition.BC2:
        # Invariance under rotation by d implies invariance under every
        # multiple of d, and every proper divisor of n divides some n/p with
        # p prime: the balanced sets are the words of d = n/p bits repeated
        # p times, and word w repeated is w * (2**n - 1) / (2**d - 1).
        table = np.zeros(1 << n, dtype=bool)
        for p in _prime_factors(n):
            d = n // p
            table[np.arange(1 << d, dtype=np.int64) * (((1 << n) - 1) // ((1 << d) - 1))] = True
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
        table = np.zeros(1 << n, dtype=bool)
        table[words[symmetric] * ((1 << h) + 1)] = True
    table[0] = False

    table.flags.writeable = False
    return table


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
