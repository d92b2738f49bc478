"""Light-traffic analysis of gated infinite-server queues.

Two gate mechanisms are covered.  In the gated M/G/inf system customers
arrive Poisson and a stage serves everyone who arrived during the previous
stage; mgqueue computes the stationary stage-length moments and density by
solving truncations of an infinite linear system.  In the synchronized
gated GI/M/inf system the gate reopens at the renewal epoch ending each
stage; giqueue computes the stationary customers-per-stage pmf the same
way.  simulator provides the discrete-event oracle for both, linsys the
shared truncation/solve/dominance machinery, and cli a command-line front
end.
"""

from .distributions import (
    ArrivalDistribution,
    DivergentMomentError,
    GammaTable,
    ServiceDistribution,
    min_moment,
    validate,
)
from .errors import InsufficientDataError, OutOfRegimeError, UnconvergedError
from .linsys import (
    AssemblyError,
    CoefficientOracle,
    ConvergedSolution,
    DominanceReport,
    SingularSystemError,
    TruncatedSystem,
    converge,
    dominance_report,
    solve,
    truncate,
)
from .mgqueue import (
    FixedPointDensity,
    MgModel,
    MgMomentSolution,
    fixed_point_density,
    kernel_density,
    mean_customers_per_stage,
    moment_oracle,
    solve_stage_moments,
    stage_count_pmf,
    stationary_density,
)
from .giqueue import (
    GiModel,
    GiMomentSolution,
    LightTraffic,
    factorial_oracle,
    light_traffic_ok,
    pgf,
    pmf_total_mass,
    solve_factorial_moments,
    stationary_pmf,
    stationary_pmfs,
    transition_probability,
    transition_row_mass,
)
from .simulator import (
    DriftReport,
    EmpiricalStats,
    StageTrace,
    drift_check,
    empirical_stats,
    simulate_gi,
    simulate_mg,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalDistribution", "AssemblyError", "CoefficientOracle",
    "ConvergedSolution", "DivergentMomentError", "DominanceReport",
    "DriftReport", "EmpiricalStats", "FixedPointDensity", "GammaTable",
    "GiModel", "GiMomentSolution", "InsufficientDataError", "LightTraffic",
    "MgModel", "MgMomentSolution", "OutOfRegimeError", "ServiceDistribution",
    "SingularSystemError", "StageTrace", "TruncatedSystem",
    "UnconvergedError", "converge", "dominance_report", "drift_check",
    "empirical_stats", "factorial_oracle", "fixed_point_density",
    "kernel_density", "light_traffic_ok", "mean_customers_per_stage",
    "min_moment", "moment_oracle", "pgf", "pmf_total_mass",
    "simulate_gi", "simulate_mg", "solve", "solve_factorial_moments",
    "solve_stage_moments", "stage_count_pmf", "stationary_density",
    "stationary_pmf", "stationary_pmfs", "transition_probability",
    "transition_row_mass", "truncate", "validate",
]
