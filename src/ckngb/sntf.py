"""Shock count to system failure as a discrete phase-type distribution.

A law is a chain: a substochastic one-step matrix P and a weight vector
w, started in the all-ones state, which is chain state 0 on both chains.
So P{M > m} = e_0 P^m w.  The operating-count chain
(``count_distribution``, at most n + 1 states, w = q) serves the CLI
commands, and the paper's consolidated chain (``sntf_distribution``, one
state per nonfailed state, w = e, held as an operator that stores no
matrix) serves ``sntf-pmf --matrix`` and the validation oracle.  Every
function of a law below takes either chain, through its row action v P,
column action P y and layers.

The law is also available without matrix powers: the direct route
evaluates the reliability polynomial, P{M > m} = h(r^m) with
h(p) = sum_j c_j p^j (1 - p)^(n - j), for one m or an array of them.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .chain import (
    CountChain,
    StateChain,
    _binomial_terms,
    _binomials,
    build_count_chain,
    build_state_chain,
    layered_solve,
)
from .errors import NonConvergence
from .system import SystemConfig
from .tiesets import reliability_polynomial

_SERIES_BLOCK = 256
_SERIES_CAP = 10**7
_SERIES_TOL = 1e-12  # absolute bound on the series' dropped tail


def sntf_distribution(config: SystemConfig) -> StateChain:
    """Shock-count law on the paper's consolidated chain, state by state."""
    return build_state_chain(config.n, config.k, config.bc, config.r)


def count_distribution(config: SystemConfig) -> CountChain:
    """The same shock-count law on the operating-count chain."""
    return build_count_chain(config.n, config.k, config.bc, config.r)


def _dot(v: np.ndarray, w: np.ndarray) -> float:
    """v . w by pairwise summation: a BLAS dot over the 2**n-sized state
    chain accumulates in a few running sums and loses digits."""
    return float(np.multiply(v, w).sum())


def pmf_survival_series(chain: StateChain | CountChain, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """P{M = m} = e_0 P^(m-1) (w - P w) and P{M > m} = e_0 P^m w for
    m = 1..m_max, in a single sweep."""
    pmf = np.empty(m_max)
    surv = np.empty(m_max)
    w = chain.weights
    v = np.zeros(chain.size)
    v[0] = 1.0
    for m in range(1, m_max + 1):
        pmf[m - 1] = _dot(v, chain.absorb)
        v = chain.step(v)
        surv[m - 1] = _dot(v, w)
    return pmf, surv


def _powers(r: float, m: int | np.ndarray, least: int) -> np.ndarray:
    """r**(m - least) for each entry of the int or integer array m, in an
    array of m's shape.  Python's float power forms each one: numpy's array
    power rounds some of them differently, and moves printed digits.
    Raises ValueError when m < least."""
    ms = np.asarray(m)
    es = ms.ravel().tolist()
    if min(es, default=least) < least:
        raise ValueError(f"m must be >= {least}, got {min(es)}")
    return np.array([r ** (e - least) for e in es]).reshape(ms.shape)


def survival_direct(config: SystemConfig, m: int | np.ndarray) -> float | np.ndarray:
    """P{M > m} = h(r^m), the reliability polynomial, without any matrix.

    m is an int, which gives a float, or an integer array, which gives an
    array of the same shape.
    """
    surv = reliability_polynomial(config.n, config.k, config.bc, _powers(config.r, m, 0))
    return surv if surv.ndim else float(surv)


def pmf_direct(config: SystemConfig, m: int | np.ndarray) -> float | np.ndarray:
    """P{M = m} as a sum of nonnegative terms over the operating count.

    After m - 1 shocks j units operate with probability
    C(n, j) p^j (1 - p)^(n - j), p = r^(m - 1); such a state is nonfailed
    and fails at the next shock with probability a_j, the count chain's
    absorb.  No survival sums are subtracted, so nothing cancels.  m is an
    int, which gives a float, or an integer array, which gives an array of
    the same shape.
    """
    p = _powers(config.r, m, 1)
    n = config.n
    chain = build_count_chain(n, config.k, config.bc, config.r)
    reach = _binomial_terms(_binomials(n)[n:], np.array([n]), p[..., None])
    pmf = reach[..., n - np.arange(chain.size)] @ chain.absorb
    return pmf if p.ndim else float(pmf[0])


def _solve(chain: StateChain | CountChain, rhs: np.ndarray) -> np.ndarray:
    """(I - P)^(-1) rhs, one layer at a time: x = (rhs + P x_below) / (1 - r^s)."""
    return layered_solve(chain, lambda rows, stay, inflow: (rhs[..., rows] + inflow) / (1.0 - stay))


def mean_closed(chain: StateChain | CountChain) -> float | np.ndarray:
    """Mean shock count e_0 (I - P)^(-1) w via one back-substitution: a
    float, or an array of one mean per member of a stack of count chains."""
    mean = _solve(chain, chain.weights)[..., 0]
    return mean if mean.ndim else float(mean)


def factorial_moment(chain: StateChain | CountChain, p: int) -> float | np.ndarray:
    """E[M(M-1)...(M-p+1)] = p! e_0 P^(p-1) (I-P)^(-p) w: a float, or an
    array of one moment per member of a stack of count chains."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    w = chain.weights
    for _ in range(p - 1):
        w = chain.apply(w)
    for _ in range(p):
        w = _solve(chain, w)
    moment = factorial(p) * w[..., 0]
    return moment if moment.ndim else float(moment)


def raw_moment_series(config: SystemConfig, p: int) -> float:
    """E[M^p] by truncated summation of the direct pmf.

    The cut uses a geometric tail bound with ratio rho = P{M > 1}: the
    nonfailed set is an up-set, so no state survives a shock more often
    than the all-ones start state.  Summation stops once the bound drops
    below _SERIES_TOL.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    rho = survival_direct(config, 1)
    # 1 - rho as P{M = 1}, a sum of nonnegative terms: the difference
    # rounds to 0 where one shock almost never fails the system.
    fail_1 = pmf_direct(config, 1)
    if fail_1 == 0.0:
        raise NonConvergence(f"P{{M = 1}} underflows at r={config.r}; the tail bound is void")
    tail_shift = rho / fail_1

    total = 0.0
    prev_surv = 1.0  # P{M > 0}
    m0 = 1
    while True:
        ms = np.arange(m0, m0 + _SERIES_BLOCK, dtype=np.float64)
        surv = survival_direct(config, ms)
        pmf = np.concatenate(([prev_surv], surv[:-1])) - surv
        total += float((ms**p * pmf).sum())
        prev_surv = float(surv[-1])
        m_last = m0 + _SERIES_BLOCK - 1
        bound = prev_surv / fail_1 * (m_last + tail_shift) ** p
        if bound < _SERIES_TOL:
            return total
        m0 += _SERIES_BLOCK
        if m0 > _SERIES_CAP:
            raise NonConvergence(
                f"moment series still above tol={_SERIES_TOL} after {_SERIES_CAP} terms"
            )
