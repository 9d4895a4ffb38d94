"""Continuous time to system failure via phase-type algebra.

Inter-shock times follow one phase-type law (alpha, T), a
``ContinuousPhaseType`` from ``ph_from_preset`` (three unit-mean presets)
or from ``validate_ph`` (a custom law).  The failure time is the random
sum Z = Y_1 + ... + Y_M of one inter-shock draw per shock, which is again
phase-type: its subgenerator combines the inter-shock generator on the
diagonal blocks with shock transitions routed through the exit rates.
Neither the subgenerator nor its matrix exponential is formed: density
and survival on a grid are read off uniformization series built from the
shock chain's row action, one series per stride of the grid.  Moments
come from the random sum, M_Z(t) = G_M(M_Y(t)): E[Z^q] from the moments
of M and Y, and MTTF and SCV from the first two over a stack of chains.
``raw_moment`` is the phase-type law's own E[Z], one block solve over
the shock chain's layers, which ``validate`` checks against E[M] E[Y].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import CountChain, StateChain, layered_solve
from .errors import CapacityExceeded, ConfigError, SingularSystem
from .sntf import factorial_moment

PRESET_LABELS = ("ER", "EXP", "HE")

_POISSON_TAIL = 1e-14
# max uniformization rate*length of a stride; one series serves every grid
# point in it, and exp(-50) leaves the Poisson weights far from underflow
_STEP_BUDGET = 50.0
# strides one grid may take: the tests and scripts take at most 826, and
# a grid reaches the cap in about 9 s at n = 21 under a two-phase law
_STRIDE_CAP = 10_000
# bytes of a stride's terms: refuses laws of over 147 168 phases, which
# the count chain (at most 31 K phases) reaches only with K > 4 700
_TERM_BYTES = 2**27
# float64 Poisson weights formed at once when reading a stride's points
_POINT_CHUNK = 2**15


@dataclass(frozen=True, eq=False)
class ContinuousPhaseType:
    """Initial phase distribution and subgenerator of an absorbing CTMC."""

    alpha: np.ndarray
    T: np.ndarray

    @property
    def K(self) -> int:
        return self.alpha.size

    @cached_property
    def exit_rates(self) -> np.ndarray:
        return -self.T @ np.ones(self.K)


def validate_ph(alpha, T) -> ContinuousPhaseType:
    """Reject malformed phase-type parameters instead of normalizing them."""
    try:
        alpha = np.asarray(alpha, dtype=np.float64)
        T = np.asarray(T, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("shock: alpha and T must be a vector and a matrix of numbers") from None
    if not (np.isfinite(alpha).all() and np.isfinite(T).all()):
        raise ConfigError("shock: alpha and T must be finite")
    if alpha.ndim != 1 or T.ndim != 2 or T.shape != (alpha.size, alpha.size):
        raise ConfigError("shock: alpha must be a vector and T a matching square matrix")
    if np.any(alpha < 0.0):
        raise ConfigError("shock.alpha: entries must be nonnegative")
    if abs(alpha.sum() - 1.0) > 1e-12:
        raise ConfigError("shock.alpha: must sum to 1")
    if np.any(np.diag(T) >= 0.0):
        raise ConfigError("shock.T: diagonal must be strictly negative")
    off = T - np.diag(np.diag(T))
    if np.any(off < 0.0):
        raise ConfigError("shock.T: off-diagonal rates must be nonnegative")
    exit_rates = -T @ np.ones(alpha.size)
    if np.any(exit_rates < -1e-12):
        raise ConfigError("shock.T: row sums must be nonpositive")
    # Every phase must reach one that exits, which is -T being nonsingular:
    # a draw that enters a closed set of phases never ends.
    reaches = exit_rates > 1e-12
    jumps = off > 0.0
    while (grown := reaches | (jumps @ reaches)).sum() > reaches.sum():
        reaches = grown
    if not reaches.all():
        raise ConfigError(
            f"shock.T: phases {np.flatnonzero(~reaches).tolist()} never reach a phase that can exit"
        )
    law = ContinuousPhaseType(alpha, T)
    # The failure-time summary divides by the mean squared.  Square by
    # product: a float's ** raises OverflowError where * gives inf.
    mean, second = _ph_moments(law, 2)
    if not all(math.isfinite(v) and v >= sys.float_info.min for v in (mean, mean * mean, second)):
        raise ConfigError(
            f"shock: the law's mean, its square and its second moment must be positive normal "
            f"floats, got mean {mean:.3g} and second moment {second:.3g}"
        )
    return law


def ph_from_preset(label: str) -> ContinuousPhaseType:
    """Unit-mean presets: Erlang-2 (ER), exponential (EXP), balanced
    two-phase hyperexponential (HE), with SCV 0.5, 1 and 2."""
    label = str(label).upper()
    if label == "ER":
        return ContinuousPhaseType(
            np.array([1.0, 0.0]), np.array([[-2.0, 2.0], [0.0, -2.0]])
        )
    if label == "EXP":
        return ContinuousPhaseType(np.array([1.0]), np.array([[-1.0]]))
    if label == "HE":
        root2 = math.sqrt(2.0)
        return ContinuousPhaseType(
            np.array([0.5, 0.5]),
            np.array([[-2.0 / (2.0 - root2), 0.0], [0.0, -2.0 / (2.0 + root2)]]),
        )
    raise ConfigError(f"shock.preset: unknown label {label!r}; use ER, EXP or HE")


def _ph_moments(Y: ContinuousPhaseType, p: int) -> list[float]:
    """E[Y^i] = i! alpha (-T)^(-i) e, i = 1..p, from p successive solves."""
    x, moments = np.ones(Y.K), []
    try:
        for i in range(1, p + 1):
            x = np.linalg.solve(-Y.T, x)
            moments.append(float(math.factorial(i) * (Y.alpha @ x)))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return moments


def ph_mean_scv(Y: ContinuousPhaseType) -> tuple[float, float]:
    """Mean and squared coefficient of variation from linear solves."""
    mean, second = _ph_moments(Y, 2)
    return mean, second / mean**2 - 1.0


@dataclass(frozen=True, eq=False)
class CompoundPhaseType:
    """Failure-time law: shock-count phases crossed with inter-shock phases.

    P{Z > z} = alpha exp(z T_Z) (w x e), with w the shock-count weights
    (all ones for a plain phase-type law).  Kept in factored form:
    T_Z = I x T_c + P x (exit alpha^T), with P the shock chain's one-step
    matrix, which only acts through the chain.
    """

    alpha: np.ndarray  # length N*K
    chain: StateChain | CountChain  # shock-count chain, N states
    shock: ContinuousPhaseType

    @property
    def states(self) -> int:
        return self.chain.size

    @property
    def K(self) -> int:
        return self.shock.K

    @property
    def dim(self) -> int:
        return self.states * self.K

    @property
    def uniformization_rate(self) -> float:
        return float(np.max(-np.diag(self.shock.T)))


def compound_ph(chain: StateChain | CountChain, Y: ContinuousPhaseType) -> CompoundPhaseType:
    """Random sum of per-shock durations as one phase-type distribution,
    started in chain state 0 with Y's initial phase law: alpha = e_0 x beta.

    Its dimension is the shock-count chain's size times Y.K, so the chain's
    own bounds are the only cap it needs.
    """
    alpha = np.zeros((chain.size, Y.K))
    alpha[0] = Y.alpha
    return CompoundPhaseType(alpha.ravel(), chain, Y)


def _apply_generator_left(Z: CompoundPhaseType, U: np.ndarray) -> np.ndarray:
    """Row-vector product u T_Z with u laid out as an (N, K) array."""
    Tc = Z.shock.T
    out = U @ Tc
    out += Z.chain.step(U @ Z.shock.exit_rates)[:, None] * Z.shock.alpha
    return out


def _alpha_matrix(Z: CompoundPhaseType) -> np.ndarray:
    return Z.alpha.reshape(Z.states, Z.K)


def _poisson_weights(mu: float) -> np.ndarray:
    """Poisson(mu) weights w_j = w_(j-1) mu / j, j = 0, 1, ... until they
    sum to 1 - _POISSON_TAIL: one per term of a series of length mu."""
    weights = [math.exp(-mu)]
    cum = weights[0]
    while cum < 1.0 - _POISSON_TAIL:
        weights.append(weights[-1] * mu / len(weights))
        cum += weights[-1]
    return np.array(weights)


# terms in a stride of the full _STEP_BUDGET, the most any stride needs
_STRIDE_TERMS = _poisson_weights(_STEP_BUDGET).size


def pdf_grid(Z: CompoundPhaseType, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Failure-time density -alpha exp(z T_Z) T_Z (w x e) and survival
    P{Z > z} = alpha exp(z T_Z) (w x e) on an ascending grid.

    Uniformization at rate lam: u exp(mu T_Z / lam) is the Poisson(mu)
    mixture of the terms u P^j, P = I + T_Z / lam.  One series serves
    every grid point of a stride, which starts at the last point solved
    (or z = 0), spans mu = lam (z - start) <= _STEP_BUDGET and runs to the
    Poisson tail of its largest mu.  A point reads the Poisson-weighted sum
    of the terms' density and survival, and the next stride starts from
    their weighted sum at the stride's end.  A gap with no grid point is
    crossed one full stride at a time; once the start vector underflows to
    zero every later point reads zero.  Raises CapacityExceeded before any
    term for a law whose stride's terms exceed _TERM_BYTES, and for a grid
    at its stride past _STRIDE_CAP.
    """
    zs = np.asarray(zs, dtype=np.float64)
    if zs.size and not (np.isfinite(zs).all() and (np.diff(zs) >= 0).all() and zs[0] >= 0):
        raise ValueError("grid must be finite, ascending and nonnegative")
    if _STRIDE_TERMS * Z.dim * 8 > _TERM_BYTES:
        raise CapacityExceeded(
            f"failure-time law of {Z.dim} phases: a stride's {_STRIDE_TERMS} terms exceed "
            f"{_TERM_BYTES >> 20} MB"
        )
    values = np.zeros((2, zs.size))  # density and survival per point
    lam = Z.uniformization_rate
    # exit rate of phase (a, j) is absorb[a] * exit_rates[j]
    functionals = np.stack(
        [
            np.outer(Z.chain.absorb, Z.shock.exit_rates).ravel(),
            np.repeat(Z.chain.weights, Z.K),
        ]
    )
    U = _alpha_matrix(Z)
    start = 0.0
    i = strides = 0
    while i < zs.size and U.any():
        strides += 1
        if strides > _STRIDE_CAP:
            raise CapacityExceeded(
                f"failure-time grid to z = {zs[-1]:.6g} needs more than {_STRIDE_CAP} strides"
            )
        end = start + _STEP_BUDGET / lam
        stop = int(np.searchsorted(zs, end, side="right"))
        if stop > i:
            end = float(zs[stop - 1])
        weights = _poisson_weights(lam * (end - start))
        terms = np.empty((weights.size, Z.states, Z.K))
        terms[0] = U
        for j in range(1, weights.size):
            terms[j] = terms[j - 1] + _apply_generator_left(Z, terms[j - 1]) / lam
        flat = terms.reshape(weights.size, -1)
        U = (weights @ flat).reshape(Z.states, Z.K)
        if stop > i:
            # density and survival by term, pairwise over the phases (a BLAS
            # product over the state chain loses digits)
            S = [np.add.reduce(flat * f, axis=1) for f in functionals]
            divisors = np.arange(weights.size, dtype=np.float64)
            divisors[0] = 1.0
            # Poisson weights of the stride's points, w_j = w_(j-1) mu / j,
            # for _POINT_CHUNK floats at a time; a point's sums over j are
            # pairwise, so they do not depend on how the points are chunked
            chunk = max(1, _POINT_CHUNK // weights.size)
            for lo in range(i, stop, chunk):
                mu = lam * (zs[lo : min(lo + chunk, stop)] - start)
                W = mu[:, None] / divisors
                W[:, 0] = np.exp(-mu)
                np.cumprod(W, axis=1, out=W)
                for c in range(2):
                    values[c, lo : lo + mu.size] = np.add.reduce(W * S[c], axis=1)
            i = stop
        start = end
    return values[0], values[1]


def _solve_neg_generator(Z: CompoundPhaseType, B: np.ndarray) -> np.ndarray:
    """Solve (-T_Z) X = B by block back-substitution over the shock layers.

    A state's diagonal block is -(T_c + r^s exit alpha^T), inverted as its
    layer is reached; only the scalar alpha . X[b] of each solved state b
    crosses states, through P.  A layer of the state chain shares one
    block, so its rows take one matrix product.
    """
    X = np.zeros((Z.states, Z.K))
    exit_c = Z.shock.exit_rates
    alpha_c = Z.shock.alpha
    block = np.outer(exit_c, alpha_c)

    def solve_layer(rows, stay, inflow):
        try:
            inverse = np.linalg.inv(-(Z.shock.T + stay[0] * block))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        solved = (B[rows] + np.multiply.outer(inflow, exit_c)) @ inverse.T
        X[rows] = solved
        return solved @ alpha_c

    layered_solve(Z.chain, solve_layer)
    return X


def raw_moment(Z: CompoundPhaseType) -> float:
    """E[Z] = alpha (-T_Z)^(-1) (w x e), from one block solve."""
    X = _solve_neg_generator(Z, np.repeat(Z.chain.weights[:, None], Z.K, axis=1))
    return float((_alpha_matrix(Z) * X).sum())


def failure_time_moments(chain: StateChain | CountChain, Y: ContinuousPhaseType, p: int) -> list[float]:
    """E[Z^q], q = 1..p, of the random sum Z = Y_1 + ... + Y_M, M the chain's
    shock count: with u(t) = M_Y(t) - 1 = sum_i E[Y^i] t^i / i!, Faa di
    Bruno's M_Z(t) = G_M(1 + u(t)) = 1 + sum_j E[M(M-1)..(M-j+1)] u(t)^j / j!.
    Takes one chain: a stack of count chains raises ValueError."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if chain.weights.ndim > 1:
        raise ValueError(f"one chain expected, got a stack of shape {chain.weights.shape[:-1]}")
    u = np.array([0.0] + [m / math.factorial(i) for i, m in enumerate(_ph_moments(Y, p), 1)])
    power, series = np.eye(1, p + 1)[0], np.zeros(p + 1)  # u(t)^0 and M_Z(t) - 1
    for j in range(1, p + 1):
        power = np.convolve(power, u)[: p + 1]
        series += factorial_moment(chain, j) / math.factorial(j) * power
    return [math.factorial(q) * float(series[q]) for q in range(1, p + 1)]


def failure_time_summary(
    mean_m: float | np.ndarray, fm2: float | np.ndarray, mean_y: float, scv_y: float
) -> dict:
    """MTTF and SCV of the failure time Z = Y_1 + ... + Y_M, a random sum,
    from E[M], E[M(M-1)], E[Y] and SCV[Y]: E[Z] = E[M] E[Y] and
    SCV[Z] = SCV[Y] / E[M] + Var[M] / E[M]^2.  Floats, or arrays over a
    stack of chains.  mttf_wald is the same E[M] E[Y], and ``validate``
    does not read it: it checks Wald's identity by comparing the compound
    law's own E[Z] (``raw_moment``) with E[M] E[Y]."""
    mttf = mean_m * mean_y
    var_m = fm2 + mean_m - mean_m * mean_m
    return {"mttf": mttf, "mttf_wald": mttf, "scv": scv_y / mean_m + var_m / (mean_m * mean_m)}
