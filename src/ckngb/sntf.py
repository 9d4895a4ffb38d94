"""Shock count to system failure as a discrete phase-type distribution.

A law is an initial vector alpha, a substochastic one-step matrix P and a
weight vector w, with P{M > m} = alpha P^m w.  Two chains carry it: the
operating-count chain (``count_distribution``, at most n + 1 states,
w = q), which the CLI commands use, and the paper's consolidated chain
(``sntf_distribution``, one state per nonfailed state, w = e, held as an
operator that stores no matrix), which serves ``sntf-pmf --matrix`` and
the validation oracle.  Every function of a law below serves both,
through the chain's row action v P, column action P y and layers.

The law is also available without matrix powers: the direct route
evaluates the reliability polynomial, P{M > m} = h(r^m) with
h(p) = sum_j c_j p^j (1 - p)^(n - j).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class DiscretePhaseType:
    """Initial distribution plus a shock chain: P{M > m} = alpha P^m w."""

    alpha: np.ndarray
    chain: StateChain | CountChain

    @property
    def absorb(self) -> np.ndarray:
        return self.chain.absorb

    @property
    def weights(self) -> np.ndarray:
        return self.chain.weights

    @property
    def size(self) -> int:
        return self.chain.size


def _started(chain: StateChain | CountChain) -> DiscretePhaseType:
    """The law of the system started in the all-ones state, chain state 0."""
    alpha = np.zeros(chain.size)
    alpha[0] = 1.0
    return DiscretePhaseType(alpha, chain)


def sntf_distribution(config: SystemConfig) -> DiscretePhaseType:
    """Shock-count law on the paper's consolidated chain, state by state."""
    return _started(build_state_chain(config.n, config.k, config.bc, config.r))


def count_distribution(config: SystemConfig) -> DiscretePhaseType:
    """The same shock-count law on the operating-count chain."""
    return _started(build_count_chain(config.n, config.k, config.bc, config.r))


def _dot(v: np.ndarray, w: np.ndarray) -> float:
    """v . w by pairwise summation: a BLAS dot over the 2**n-sized state
    chain accumulates in a few running sums and loses digits."""
    return float(np.multiply(v, w).sum())


def pmf_survival_series(dist: DiscretePhaseType, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """P{M = m} = alpha P^(m-1) (w - P w) and P{M > m} = alpha P^m w for
    m = 1..m_max, in a single sweep."""
    pmf = np.empty(m_max)
    surv = np.empty(m_max)
    w = dist.weights
    v = dist.alpha
    for m in range(1, m_max + 1):
        pmf[m - 1] = _dot(v, dist.absorb)
        v = dist.chain.step(v)
        surv[m - 1] = _dot(v, w)
    return pmf, surv


def survival_direct(config: SystemConfig, m: int) -> float:
    """P{M > m} = h(r^m), the reliability polynomial, without any matrix."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return float(reliability_polynomial(config.n, config.k, config.bc, config.r**m))


def pmf_direct(config: SystemConfig, m: int) -> float:
    """P{M = m} as a sum of nonnegative terms over the operating count.

    After m - 1 shocks j units operate with probability
    C(n, j) p^j (1 - p)^(n - j), p = r^(m - 1); such a state is nonfailed
    and fails at the next shock with probability a_j, the count chain's
    absorb.  No survival sums are subtracted, so nothing cancels.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = config.n
    chain = build_count_chain(n, config.k, config.bc, config.r)
    reach = _binomial_terms(_binomials(n)[n:], np.array([n]), config.r ** (m - 1))[0]
    return float(reach[n - np.arange(chain.size)] @ chain.absorb)


def _solve(chain: StateChain | CountChain, rhs: np.ndarray) -> np.ndarray:
    """(I - P)^(-1) rhs, one layer at a time: x = (rhs + P x_below) / (1 - r^s)."""
    return layered_solve(chain, lambda rows, stay, inflow: (rhs[rows] + inflow) / (1.0 - stay))


def mean_closed(dist: DiscretePhaseType) -> float:
    """Mean shock count alpha (I - P)^(-1) w via one back-substitution."""
    x = _solve(dist.chain, dist.weights)
    return float(dist.alpha @ x)


def factorial_moment(dist: DiscretePhaseType, p: int) -> float:
    """E[M(M-1)...(M-p+1)] = p! alpha P^(p-1) (I-P)^(-p) w."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    w = dist.weights
    for _ in range(p - 1):
        w = dist.chain.apply(w)
    for _ in range(p):
        w = _solve(dist.chain, w)
    return float(factorial(p) * (dist.alpha @ w))


def raw_moment_series(config: SystemConfig, p: int, tol: float = 1e-12) -> float:
    """E[M^p] by truncated summation of the direct pmf.

    The cut uses a geometric tail bound with ratio rho = P{M > 1}: the
    nonfailed set is an up-set, so no state survives a shock more often
    than the all-ones start state.  Summation stops once the bound drops
    below tol (absolute).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    rho = float(reliability_polynomial(config.n, config.k, config.bc, config.r))
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
        surv = reliability_polynomial(config.n, config.k, config.bc, config.r**ms)
        pmf = np.concatenate(([prev_surv], surv[:-1])) - surv
        total += float((ms**p * pmf).sum())
        prev_surv = float(surv[-1])
        m_last = m0 + _SERIES_BLOCK - 1
        bound = prev_surv / fail_1 * (m_last + tail_shift) ** p
        if bound < tol:
            return total
        m0 += _SERIES_BLOCK
        if m0 > _SERIES_CAP:
            raise NonConvergence(
                f"moment series still above tol={tol} after {_SERIES_CAP} terms"
            )
