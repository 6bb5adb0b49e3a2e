"""Simulation and statistical-validation toolkit for multiphoton
linear-optical experiments with probabilistic heralded pair sources.

Exact interference distributions via matrix permanents, standard and
scattershot sampling under loss, GHZ fidelity estimation, spectral-purity
models, and hypothesis tests for sample streams.
"""

__version__ = "0.1.0"

from .errors import ContractError, DataError, DimensionError, ResourceLimitError
from .rng import derive_rng
from .linalg import (
    as_occupation,
    check_unitary,
    enumerate_patterns,
    count_patterns,
    haar_random_unitary,
    load_matrix,
    save_matrix,
    svd_singular_values,
    transition_submatrix,
)
from .permanent import permanent_naive, permanent_parallel, permanent_ryser
from .sources import (
    FireOutcome,
    JointSpectrum,
    SourceParams,
    fire_sources,
    gaussian_jsa,
    hom_dip,
    schmidt_purity,
    tune_correlation_angle,
)
from .ghz import (
    BasisCounts,
    GhzModel,
    WitnessResult,
    estimate_coherence,
    estimate_population,
    fidelity_and_witness,
    hv_outcome_distribution,
    simulate_counts,
    simulate_ghz_experiment,
    theta_outcome_distribution,
)
from .sampling import (
    OutcomeDistribution,
    RateReport,
    SampleRecord,
    ScattershotResult,
    distinguishable_distribution,
    exact_distribution,
    expected_rate,
    sample_outputs,
    scattershot_run,
)
from .validation import (
    AggregateValidationReport,
    GroupValidation,
    ValidationReport,
    likelihood_ratio_test,
    scattershot_aggregate_validation,
    similarity,
    tv_distance,
)

__all__ = [
    "__version__",
    "ContractError",
    "DataError",
    "DimensionError",
    "ResourceLimitError",
    "derive_rng",
    "as_occupation",
    "check_unitary",
    "enumerate_patterns",
    "count_patterns",
    "haar_random_unitary",
    "load_matrix",
    "save_matrix",
    "svd_singular_values",
    "transition_submatrix",
    "permanent_naive",
    "permanent_parallel",
    "permanent_ryser",
    "FireOutcome",
    "JointSpectrum",
    "SourceParams",
    "fire_sources",
    "gaussian_jsa",
    "hom_dip",
    "schmidt_purity",
    "tune_correlation_angle",
    "BasisCounts",
    "GhzModel",
    "WitnessResult",
    "estimate_coherence",
    "estimate_population",
    "fidelity_and_witness",
    "hv_outcome_distribution",
    "simulate_counts",
    "simulate_ghz_experiment",
    "theta_outcome_distribution",
    "OutcomeDistribution",
    "RateReport",
    "SampleRecord",
    "ScattershotResult",
    "distinguishable_distribution",
    "exact_distribution",
    "expected_rate",
    "sample_outputs",
    "scattershot_run",
    "AggregateValidationReport",
    "GroupValidation",
    "ValidationReport",
    "likelihood_ratio_test",
    "scattershot_aggregate_validation",
    "similarity",
    "tv_distance",
]
