"""Exact lifetime distributions of circular k-out-of-n balanced systems
under random shocks, with a Monte Carlo oracle for verification."""

from .chain import (
    CountChain,
    StateChain,
    build_consolidated,
    build_count_chain,
    build_state_chain,
    mstep_prob,
)
from .errors import (
    CapacityExceeded,
    CknGBError,
    ConfigError,
    InvariantViolation,
    NoTieSets,
    NonConvergence,
    OddNUnsupported,
    SingularSystem,
)
from .montecarlo import SimulationResult, simulate_sntf, simulate_ttf
from .sntf import (
    count_distribution,
    factorial_moment,
    mean_closed,
    pmf_direct,
    pmf_survival_series,
    raw_moment_series,
    sntf_distribution,
    survival_direct,
)
from .system import (
    BalanceCondition,
    SystemConfig,
    SystemState,
    is_balanced,
    is_balanced_bc1,
    is_balanced_bc2,
    is_balanced_bc3,
    unit_angle,
)
from .tiesets import (
    count_profile,
    enumerate_min_tiesets,
    system_reliability_exact,
    system_reliability_product,
)
from .ttf import (
    CompoundPhaseType,
    ContinuousPhaseType,
    compound_ph,
    failure_time_moments,
    pdf_grid,
    ph_from_preset,
    ph_mean_scv,
    raw_moment,
)

__version__ = "0.1.0"
