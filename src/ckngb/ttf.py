"""Continuous time to system failure via phase-type algebra.

Inter-shock times follow one phase-type law (alpha, T), a
``ContinuousPhaseType`` from ``ph_from_preset`` (three unit-mean presets)
or from ``validate_ph`` (a custom law).  The failure time is the random
sum of one inter-shock draw per shock, which is again phase-type: its
subgenerator combines the inter-shock generator on the diagonal blocks
with shock transitions routed through the exit rates.  Neither the
subgenerator nor its matrix exponential is formed: density and survival
on a grid are read off uniformization series built from the shock
chain's row action, one series per stride of the grid, and moments
come from block back-substitution over the shock chain's layers, whose
diagonal blocks a law inverts once.  The commands take MTTF and SCV from
the shock-count moments and Y's alone, as Z is a random sum; these block
solves are the independent route, which ``validate`` checks against
E[M] E[Y].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import CountChain, StateChain, layered_solve
from .errors import ConfigError, NonConvergence, SingularSystem
from .sntf import sntf_distribution
from .system import SystemConfig

PRESET_LABELS = ("ER", "EXP", "HE")

_POISSON_TAIL = 1e-14
# max uniformization rate*length of a stride; one series serves every grid
# point in it, and exp(-50) leaves the Poisson weights far from underflow
_STEP_BUDGET = 50.0
_TERM_CAP = 100_000


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
    mean, second = _mean_second(law)
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


def _mean_second(Y: ContinuousPhaseType) -> tuple[float, float]:
    """First and second moments from linear solves."""
    try:
        x = np.linalg.solve(-Y.T, np.ones(Y.K))
        y = np.linalg.solve(-Y.T, x)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return float(Y.alpha @ x), float(2.0 * (Y.alpha @ y))


def ph_mean_scv(Y: ContinuousPhaseType) -> tuple[float, float]:
    """Mean and squared coefficient of variation from linear solves."""
    mean, second = _mean_second(Y)
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

    @cached_property
    def layer_inverses(self) -> np.ndarray:
        """Inverses of the diagonal blocks -(T_c + r^s exit alpha^T), one per
        layer of the shock chain in ``layers`` order, from one stacked call."""
        stays = np.array([stay[0] for _, stay in self.chain.layers])
        block = np.outer(self.shock.exit_rates, self.shock.alpha)
        try:
            return np.linalg.inv(-(self.shock.T + stays[:, None, None] * block))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc


def compound_ph(chain: StateChain | CountChain, Y: ContinuousPhaseType) -> CompoundPhaseType:
    """Random sum of per-shock durations as one phase-type distribution,
    started in chain state 0 with Y's initial phase law: alpha = e_0 x beta.

    Its dimension is the shock-count chain's size times Y.K, so the chain's
    own bounds are the only cap it needs.
    """
    alpha = np.zeros((chain.size, Y.K))
    alpha[0] = Y.alpha
    return CompoundPhaseType(alpha.ravel(), chain, Y)


def compound_from_config(config: SystemConfig) -> CompoundPhaseType:
    """Failure-time law on the paper's consolidated chain."""
    if config.shock is None:
        raise ConfigError("shock: an inter-shock specification is required")
    return compound_ph(sntf_distribution(config), config.shock)


def _apply_generator_left(Z: CompoundPhaseType, U: np.ndarray) -> np.ndarray:
    """Row-vector product u T_Z with u laid out as an (N, K) array."""
    Tc = Z.shock.T
    out = U @ Tc
    out += Z.chain.step(U @ Z.shock.exit_rates)[:, None] * Z.shock.alpha
    return out


def _alpha_matrix(Z: CompoundPhaseType) -> np.ndarray:
    return Z.alpha.reshape(Z.states, Z.K)


def pdf_grid(Z: CompoundPhaseType, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Failure-time density -alpha exp(z T_Z) T_Z (w x e) and survival
    P{Z > z} = alpha exp(z T_Z) (w x e) on an ascending grid.

    Uniformization at rate lam: u exp(mu T_Z / lam) is the Poisson(mu)
    mixture of the terms u P^j, P = I + T_Z / lam.  One series serves
    every grid point of a stride, which starts at the last point solved
    (or z = 0) and spans mu = lam (z - start) <= _STEP_BUDGET.  Past a
    16 KB batch a term is kept only as its two functionals, density and
    survival, and as its Poisson weight at the stride's end in the next
    start vector; a point reads the Poisson(lam (z - start))-weighted sum
    of those scalars.  The series runs to the Poisson tail of the stride's
    largest mu, which covers every smaller mu.  A gap with no grid point
    is crossed one full stride at a time, and once the start vector has
    underflowed to zero every later point reads zero.
    """
    zs = np.asarray(zs, dtype=np.float64)
    if zs.size and not (np.isfinite(zs).all() and (np.diff(zs) >= 0).all() and zs[0] >= 0):
        raise ValueError("grid must be finite, ascending and nonnegative")
    values = np.zeros((2, zs.size))  # density and survival per point
    lam = Z.uniformization_rate
    # exit rate of phase (a, j) is absorb[a] * exit_rates[j]
    functionals = np.stack(
        [
            np.outer(Z.chain.absorb, Z.shock.exit_rates).ravel(),
            np.repeat(Z.chain.weights, Z.K),
        ]
    )
    # Terms are held only in a batch of at most 16 KB, or of one term when
    # a term is larger.  A full batch is read, pairwise over the states (a
    # BLAS product over the state chain loses digits), and folded into the
    # next start vector, one product each.
    batch = np.empty((max(1, 2**11 // Z.dim), Z.states, Z.K))
    flat = batch.reshape(len(batch), -1)

    U = _alpha_matrix(Z)
    start = 0.0
    i = 0
    while i < zs.size and U.any():
        end = start + _STEP_BUDGET / lam
        stop = int(np.searchsorted(zs, end, side="right"))
        points = stop > i
        if points:
            end = float(zs[stop - 1])
        carry = stop < zs.size  # a later point starts from the vector at end
        mu_end = lam * (end - start)
        weights = [math.exp(-mu_end)]
        cum = weights[0]
        scalars = []
        next_start = np.zeros(Z.dim)

        def fold(held):
            # the last `held` terms, in rows 0 .. held - 1
            if points:
                scalars.append([np.add.reduce(flat[:held] * f, axis=1) for f in functionals])
            if carry:
                next_start[:] += np.array(weights[-held:]) @ flat[:held]

        batch[0] = U
        j = 0
        while cum < 1.0 - _POISSON_TAIL:
            j += 1
            if j > _TERM_CAP:
                raise NonConvergence("uniformization series exceeded its term budget")
            term = batch[(j - 1) % len(batch)]
            step = _apply_generator_left(Z, term) / lam
            if j % len(batch) == 0:
                fold(len(batch))
            np.add(term, step, out=batch[j % len(batch)])
            weights.append(weights[-1] * mu_end / j)
            cum += weights[-1]
        fold(j % len(batch) + 1)
        U = next_start.reshape(Z.states, Z.K)
        if points:
            S = np.concatenate(scalars, axis=1)  # density and survival by term
            divisors = np.arange(S.shape[1], dtype=np.float64)
            divisors[0] = 1.0
            # Poisson weights of the stride's points, w_j = w_(j-1) mu / j,
            # for 8 KB of points at a time; a point's sums over j are
            # pairwise, so they do not depend on how the points are chunked
            chunk = max(1, 2**10 // S.shape[1])
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

    A state's diagonal block is -(T_c + r^s exit alpha^T); only the scalar
    alpha . X[b] of each solved state b crosses states, through P.  A layer
    of the state chain shares one block, so its rows take one matrix
    product.
    """
    X = np.zeros((Z.states, Z.K))
    exit_c = Z.shock.exit_rates
    alpha_c = Z.shock.alpha
    inverses = iter(Z.layer_inverses)

    def solve_layer(rows, stay, inflow):
        solved = (B[rows] + np.multiply.outer(inflow, exit_c)) @ next(inverses).T
        X[rows] = solved
        return solved @ alpha_c

    layered_solve(Z.chain, solve_layer)
    return X


def _raw_moments(Z: CompoundPhaseType, p: int) -> list[float]:
    """E[Z^q] = q! alpha (-T_Z)^(-q) (w x e) for q = 1..p, off the p
    successive block solves X_q = (-T_Z)^(-1) X_(q-1)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    X = np.repeat(Z.chain.weights[:, None], Z.K, axis=1)
    moments = []
    for q in range(1, p + 1):
        X = _solve_neg_generator(Z, X)
        moments.append(float(math.factorial(q) * (_alpha_matrix(Z) * X).sum()))
    return moments


def raw_moment(Z: CompoundPhaseType, p: int) -> float:
    """E[Z^p] via p successive block solves."""
    return _raw_moments(Z, p)[-1]


def scv(Z: CompoundPhaseType) -> float:
    """Squared coefficient of variation Var/Mean^2, from the two block
    solves that give E[Z] and E[Z^2]."""
    m1, m2 = _raw_moments(Z, 2)
    return (m2 - m1**2) / m1**2
