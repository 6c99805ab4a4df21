"""Hazards versus rates in time-to-event models with time-varying treatment.

The central objects are an irreversible illness-death model (untreated,
treated, dead) whose treated death intensity may depend on time since
treatment initiation, the survivor-averaged rate functions such a model
induces, and a fixed-point builder that constructs a model whose rates
are exactly proportional while its hazards are not.  Around these sit a
frailty view of the same phenomenon, a trajectory simulator, and the
counting-process estimators (Nelson-Aalen, extended Kaplan-Meier, Cox
partial likelihood, Aalen additive) that a practitioner would run on
the simulated data.
"""

from .construct import BuildReport, IterationRecord, build, rate_ratio
from .contrast import (
    Regime,
    causal_hazard_ratio,
    duration_model_ratio,
    potential_survival,
    rate_based_survival,
)
from .estimators import (
    AalenAdditiveFit,
    CoxFit,
    StepFunction,
    aalen_additive,
    cox_fit,
    extended_km,
    log_surv_ratio,
    nelson_aalen_by_treatment,
)
from .frailty import (
    ColliderScenario,
    ConditionalHazardSpec,
    CustomFrailty,
    DegenerateFrailty,
    FrailtySpec,
    GammaFrailty,
    TreatmentPath,
    collider_table,
    invert_rate_to_h,
    marginal_hazard,
    markov_violation_gap,
)
from .grid import GridFunction, cumulative, survival_from_cumulative
from .kernels import GridKernel, HazardKernel, MarkovKernel, TwoPieceKernel
from .model import (
    Cohort,
    CountingRow,
    CountingTable,
    IllnessDeathModel,
    Trajectory,
    read_counting_rows,
    rows_as_arrays,
    write_counting_rows,
)
from .numerics import ConvergenceError, SolverConfig
from .rates import OccupationSlice, occupation, ode_residual, rate_treated, rate_untreated
from .simulate import (
    SimConfig,
    sample_frailty_cohort,
    simulate_cohort,
    to_counting_rows,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GridFunction",
    "cumulative",
    "survival_from_cumulative",
    "ConvergenceError",
    "SolverConfig",
    "HazardKernel",
    "TwoPieceKernel",
    "MarkovKernel",
    "GridKernel",
    "IllnessDeathModel",
    "Trajectory",
    "CountingRow",
    "Cohort",
    "CountingTable",
    "read_counting_rows",
    "write_counting_rows",
    "rows_as_arrays",
    "OccupationSlice",
    "occupation",
    "rate_treated",
    "rate_untreated",
    "ode_residual",
    "BuildReport",
    "IterationRecord",
    "build",
    "rate_ratio",
    "FrailtySpec",
    "DegenerateFrailty",
    "GammaFrailty",
    "CustomFrailty",
    "TreatmentPath",
    "ConditionalHazardSpec",
    "marginal_hazard",
    "markov_violation_gap",
    "invert_rate_to_h",
    "ColliderScenario",
    "collider_table",
    "SimConfig",
    "simulate_cohort",
    "sample_frailty_cohort",
    "to_counting_rows",
    "StepFunction",
    "CoxFit",
    "AalenAdditiveFit",
    "nelson_aalen_by_treatment",
    "extended_km",
    "cox_fit",
    "aalen_additive",
    "log_surv_ratio",
    "Regime",
    "potential_survival",
    "rate_based_survival",
    "causal_hazard_ratio",
    "duration_model_ratio",
]
