"""Reference structure-layer routes that the package does not take.

The package reads the tie-sets and the nonfailed set off
``nonfailed_closure``; ``scan_min_tiesets`` and ``tieset_table`` build them
from the balance table alone.  ``bit_matrix_table`` builds the balance
table itself from the 2**n x n matrix of unit statuses.  The tests compare
each with the package's route.
"""

from itertools import combinations

import numpy as np

from ckngb.errors import NoTieSets, OddNUnsupported
from ckngb.system import BC3_TOLERANCE_PER_UNIT, BalanceCondition, balanced_mask_table


def bit_matrix_table(n, bc):
    """Bool array over all 2**n bitmasks: the mask is balanced under bc.

    Column p of the bit matrix is the status of the unit at position p.
    BC3 sums the cosines and sines of the operating units' angles; BC1 and
    BC2 compare the matrix with its columns permuted by every reflection
    p -> j - p and every nontrivial rotation p -> p + s.
    """
    if bc is BalanceCondition.BC1 and n % 2 != 0:
        raise OddNUnsupported(f"BC1 needs an even unit count, got n={n}")
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1).astype(np.int8)
    positions = np.arange(n)
    if bc is BalanceCondition.BC3:
        angles = 2.0 * np.pi * positions / n
        table = np.hypot(bits @ np.cos(angles), bits @ np.sin(angles)) <= BC3_TOLERANCE_PER_UNIT * n
    elif bc is BalanceCondition.BC2:
        table = np.zeros(1 << n, dtype=bool)
        for s in range(1, n):
            table |= (bits[:, (positions - s) % n] == bits).all(axis=1)
    else:
        half = n // 2
        sym = np.empty((1 << n, n), dtype=bool)
        for j in range(n):
            sym[:, j] = (bits[:, (j - positions) % n] == bits).all(axis=1)
        table = np.zeros(1 << n, dtype=bool)
        for j in range(half):
            table |= sym[:, j] & sym[:, j + half]
    return table & (masks != 0)


def scan_min_tiesets(n, k, bc):
    """Tie-set masks by a subset scan in ascending cardinality, lexicographic
    members within a size, pruning supersets of tie-sets already found."""
    table = balanced_mask_table(n, bc)
    found = []
    for size in range(k, n + 1):
        for units in combinations(range(1, n + 1), size):
            mask = 0
            for i in units:
                mask |= 1 << (n - i)
            if any((mask & t) == t for t in found):
                continue
            if table[mask]:
                found.append(mask)
    if not found:
        raise NoTieSets(f"no tie-sets for n={n}, k={k}, bc={bc.value}")
    return tuple(found)


def tieset_table(masks, n):
    """Bool array over all 2**n bitmasks: the mask contains one of masks."""
    every = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(every.size, dtype=bool)
    for t in masks:
        table |= (every & t) == t
    return table
