"""Reference structure-layer routes that do not use the superset closure.

The package reads the tie-sets and the nonfailed set off
``nonfailed_closure``; these helpers build them from the balance table
alone, so the tests can compare the two routes.
"""

from itertools import combinations

import numpy as np

from ckngb.errors import NoTieSets
from ckngb.system import balanced_mask_table


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
