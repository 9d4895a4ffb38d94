"""Exact orders of the printed values across balance conditions and
thresholds.

The balanced sets nest, BC1 within BC2 within BC3, and the nonfailed set of
k + 1 lies within that of k.  For the same unit lifetimes a smaller
nonfailed set fails no later, so the shock count M and the failure time Z
are ordered replication by replication.  Their laws are ordered too:
P{M > m} is a positive combination of the survival signature q_j
(Kochar, Mukerjee & Samaniego, Naval Research Logistics 46, 1999), and Z is
a random sum of M inter-shock times (Shaked & Shanthikumar, Stochastic
Orders, 2007).  So BC1 <= BC2 <= BC3 and k + 1 <= k hold for the mean shock
count, for P{M > m} and for P{Z > z}, in exact arithmetic.

The test compares the floats the commands print, not their ``.12g`` text.
Two values that tie in exact arithmetic may still differ by rounding.  If
each value is within a relative error eps of its exact value and
lo <= hi exactly, then lo <= hi + eps (|lo| + |hi|) in floats, and that is
the only slack allowed.  eps is the worst relative error against exact
arithmetic measured on this grid, n in {8, 10, 12}, every k, BC1-3 and r in
{0.5, 0.8, 0.95}, rounded up to two significant digits with no further
margin.  The exact values were taken in mpmath at 60 digits, exact at the
binary value of r: P{M > m} = sum_j c_j x^j (1 - x)^(n - j) with x = r^m,
P{Z > z} by uniformization of ``oracles.exact_compound``'s law (agreeing
with ``mpmath.expm`` to 1e-50), and E[M] from
``oracles.exact_count_moments``.  The worst errors measured were:
  - sweep-msntf means: 6.2e-16 (BC1 n=10 k=2 r=0.95);
  - sntf-pmf survival, m <= 50: 1.2e-15 on the direct route (BC1 n=12
    k=11 r=0.8) and 2.6e-15 on the matrix route (BC1 n=12 k=11 r=0.95);
  - ttf survival on the default grid: 1.4e-15 under ER, 8.9e-16 under EXP
    and 2.0e-15 under HE, each at r = 0.95.
With no slack at all, only two pairs break the order: the matrix route's
BC1 and BC2 survival at n=10 k=2 and n=12 k=4, r=0.5, m=26, by 1.8e-16
and 1.2e-16 relative, where both sets have the same count profile.
"""

import numpy as np
import pytest

from ckngb.experiments import ExperimentSpec, parse_config, run_sntf_pmf, run_sweep_msntf, run_ttf
from ckngb.system import BalanceCondition
from ckngb.ttf import PRESET_LABELS, ph_from_preset

NS, RS = (8, 10, 12), (0.5, 0.8, 0.95)
BCS = tuple(bc.value for bc in BalanceCondition)
# quantity -> eps, the worst relative error against exact arithmetic on this grid
EPS = {
    "msntf": 6.3e-16,
    "direct": 1.2e-15,
    "matrix": 2.6e-15,
    "ER": 1.4e-15,
    "EXP": 8.9e-16,
    "HE": 2.0e-15,
}


@pytest.fixture(scope="module")
def values():
    """quantity -> {(bc, n, k, r): float or array}: the sweep means over
    k = 2..n-1 and the survival columns of sntf-pmf (both routes, m <= 50)
    and of ttf (each preset, the default grid) over k = 2..n."""
    doc = {"n": list(NS), "k": list(range(2, max(NS))), "r": list(RS), "bc": list(BCS)}
    out = {"msntf": {(row["bc"], row["n"], row["k"], row["r"]): row["msntf"]
                     for row in run_sweep_msntf(parse_config(doc))}}
    for n in NS:
        for k in range(2, n + 1):
            for bc in BalanceCondition:
                for r in RS:
                    key = (bc.value, n, k, r)
                    spec = ExperimentSpec(n=(n,), k=(k,), r=(r,), bc=(bc,))
                    for route in ("direct", "matrix"):
                        rows = run_sntf_pmf(spec, use_matrix=route == "matrix")
                        out.setdefault(route, {})[key] = np.array([row["survival"] for row in rows])
                    for label in PRESET_LABELS:
                        law = ExperimentSpec(n=(n,), k=(k,), r=(r,), bc=(bc,), shock=ph_from_preset(label))
                        rows = run_ttf(law)[0]
                        out.setdefault(label, {})[key] = np.array([row["survival"] for row in rows])
    return out


def order_breaks(table, eps):
    """The pairs (smaller set, larger set) of the table whose values break
    lo <= hi + eps (|lo| + |hi|): BC1 <= BC2 <= BC3 at each k, and
    k + 1 <= k under each bc, wherever both systems are in the table."""
    pairs = []
    for bc, n, k, r in table:
        pairs += [((lo, n, k, r), (hi, n, k, r)) for lo, hi in zip(BCS, BCS[1:]) if lo == bc]
        pairs.append(((bc, n, k + 1, r), (bc, n, k, r)))
    breaks = []
    for small, large in pairs:
        if small in table and large in table:
            lo, hi = np.asarray(table[small]), np.asarray(table[large])
            if (lo > hi + eps * (np.abs(lo) + np.abs(hi))).any():
                breaks.append((small, large))
    return breaks


def test_grid_holds_every_system(values):
    # every bc, r and k = 2..n-1 in a sweep, k = 2..n for a single system;
    # every k <= n has tie-sets, so every mean is a float
    sizes = {name: len(table) for name, table in values.items()}
    assert sizes == {"msntf": 9 * (6 + 8 + 10), **dict.fromkeys(list(EPS)[1:], 9 * (7 + 9 + 11))}
    assert all(isinstance(v, float) for v in values["msntf"].values())


@pytest.mark.parametrize("quantity", list(EPS))
def test_values_order_with_the_nonfailed_set(values, quantity):
    assert order_breaks(values[quantity], EPS[quantity]) == []
