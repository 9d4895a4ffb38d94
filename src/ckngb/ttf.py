"""Continuous time to system failure via phase-type algebra.

Inter-shock times are phase-type distributed (three unit-mean presets
plus custom specs).  The failure time is the random sum of one
inter-shock draw per shock, which is again phase-type: its subgenerator
combines the inter-shock generator on the diagonal blocks with shock
transitions routed through the exit rates.  Neither the subgenerator nor
its matrix exponential is formed: the exponential's action on a vector is
computed by uniformization from the shock chain's row action, and moments
come from block back-substitution over the shock chain's layers.  A law
inverts its layers' diagonal blocks once and keeps the moments it has
solved for, so E[Z^p] and every lower moment cost p back-substitutions in
all, whichever is asked first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import CountChain, StateChain, layered_solve
from .errors import ConfigError, NonConvergence, SingularSystem
from .sntf import sntf_distribution
from .system import SystemConfig

PRESET_LABELS = ("ER", "EXP", "HE")

_POISSON_TAIL = 1e-14
_STEP_BUDGET = 50.0  # max uniformization rate*length handled per stride
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


def validate_ph(alpha: np.ndarray, T: np.ndarray) -> ContinuousPhaseType:
    """Reject malformed phase-type parameters instead of normalizing them."""
    alpha = np.asarray(alpha, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
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
    return ContinuousPhaseType(alpha, T)


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


def ph_mean_scv(Y: ContinuousPhaseType) -> tuple[float, float]:
    """Mean and squared coefficient of variation from linear solves."""
    try:
        x = np.linalg.solve(-Y.T, np.ones(Y.K))
        y = np.linalg.solve(-Y.T, x)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    mean = float(Y.alpha @ x)
    second = float(2.0 * (Y.alpha @ y))
    return mean, second / mean**2 - 1.0


@dataclass(frozen=True, eq=False)
class InterShockSpec:
    """Either a preset label or explicit phase-type parameters."""

    preset: str | None = None
    custom: ContinuousPhaseType | None = None

    def __post_init__(self) -> None:
        if (self.preset is None) == (self.custom is None):
            raise ConfigError("shock: give exactly one of preset or custom (alpha, T)")

    def resolve(self) -> ContinuousPhaseType:
        if self.preset is not None:
            return ph_from_preset(self.preset)
        return self.custom


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
    # E[Z^p] by p, filled by raw_moment; scalars only, so a law held for
    # long keeps nothing of the chain's size
    _moments: dict[int, float] = field(default_factory=dict, init=False, repr=False)

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
        stays = np.array([stay for _, stay in self.chain.layers])
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
    return compound_ph(sntf_distribution(config), config.shock.resolve())


def _apply_generator_left(Z: CompoundPhaseType, U: np.ndarray) -> np.ndarray:
    """Row-vector product u T_Z with u laid out as an (N, K) array."""
    Tc = Z.shock.T
    out = U @ Tc
    out += np.outer(Z.chain.step(U @ Z.shock.exit_rates), Z.shock.alpha)
    return out


def _exp_action_left(Z: CompoundPhaseType, U: np.ndarray, dz: float) -> np.ndarray:
    """u exp(dz T_Z) by uniformization, striding so each stride keeps the
    Poisson mode small enough for plain double accumulation.  Striding
    stops once u underflows to all zeros, which every stride keeps."""
    if dz < 0:
        raise ValueError(f"elapsed time must be >= 0, got {dz}")
    if dz == 0.0:
        return U.copy()
    lam = Z.uniformization_rate
    strides = max(1, math.ceil(lam * dz / _STEP_BUDGET))
    h = dz / strides
    lam_h = lam * h
    for _ in range(strides):
        weight = math.exp(-lam_h)
        term = U
        acc = weight * U
        cum = weight
        j = 0
        while cum < 1.0 - _POISSON_TAIL:
            j += 1
            if j > _TERM_CAP:
                raise NonConvergence("uniformization series exceeded its term budget")
            term = term + _apply_generator_left(Z, term) / lam
            weight *= lam_h / j
            acc += weight * term
            cum += weight
        U = acc
        if not U.any():
            break
    return U


def _alpha_matrix(Z: CompoundPhaseType) -> np.ndarray:
    return Z.alpha.reshape(Z.states, Z.K)


def _density_from(Z: CompoundPhaseType, U: np.ndarray) -> float:
    # exit rate of phase (a, j) is absorb[a] * exit_rates[j]
    return float((U @ Z.shock.exit_rates) @ Z.chain.absorb)


def _survival_from(Z: CompoundPhaseType, U: np.ndarray) -> float:
    return float(U.sum(axis=1) @ Z.chain.weights)


def pdf_grid(Z: CompoundPhaseType, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Failure-time density -alpha exp(z T_Z) T_Z (w x e) and survival
    P{Z > z} = alpha exp(z T_Z) (w x e) on an ascending grid, propagating
    one state vector between the grid points."""
    zs = np.asarray(zs, dtype=np.float64)
    if zs.size and (np.any(np.diff(zs) < 0) or zs[0] < 0):
        raise ValueError("grid must be ascending and nonnegative")
    dens = np.empty(zs.size)
    surv = np.empty(zs.size)
    U = _alpha_matrix(Z)
    prev = 0.0
    for i, z in enumerate(zs):
        U = _exp_action_left(Z, U, float(z) - prev)
        prev = float(z)
        dens[i] = _density_from(Z, U)
        surv[i] = _survival_from(Z, U)
    return dens, surv


def _solve_neg_generator(Z: CompoundPhaseType, B: np.ndarray) -> np.ndarray:
    """Solve (-T_Z) X = B by block back-substitution over the shock layers.

    A state's diagonal block is -(T_c + r^s exit alpha^T); only the scalar
    alpha . X[b] of each solved state b crosses states, through P.
    """
    X = np.zeros((Z.states, Z.K))
    exit_c = Z.shock.exit_rates
    alpha_c = Z.shock.alpha
    inverses = iter(Z.layer_inverses)

    def solve_layer(rows, stay, inflow):
        X[rows] = (B[rows] + np.multiply.outer(inflow, exit_c)) @ next(inverses).T
        return X[rows] @ alpha_c

    layered_solve(Z.chain, solve_layer)
    return X


def raw_moment(Z: CompoundPhaseType, p: int) -> float:
    """E[Z^p] = p! alpha (-T_Z)^(-p) (w x e) via p successive block solves.

    Each solve X_q = (-T_Z)^(-1) X_(q-1) also gives E[Z^q], and every
    moment solved for is kept on Z: ask for the highest order first and
    the lower ones cost nothing.  The solutions themselves are not kept.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p not in Z._moments:
        X = np.repeat(Z.chain.weights[:, None], Z.K, axis=1)
        for q in range(1, p + 1):
            X = _solve_neg_generator(Z, X)
            Z._moments[q] = float(math.factorial(q) * (_alpha_matrix(Z) * X).sum())
    return Z._moments[p]


def scv(Z: CompoundPhaseType) -> float:
    """Squared coefficient of variation Var/Mean^2."""
    m2 = raw_moment(Z, 2)
    m1 = raw_moment(Z, 1)
    return (m2 - m1**2) / m1**2
