"""Pentadiagonal urn-model Markov chain on the non-negative integers.

The chain factors into a stochastic pure-death part and a stochastic
pure-birth part; each part is realized at the level of individual ball
draws from urns.  This package computes the transition coefficients
exactly, verifies the factorization on banded truncations, simulates the
urn experiments, and compares empirical laws against the exact rows.
"""

from .analysis import (
    EmpiricalDistribution,
    PolynomialEvaluation,
    chi_square_statistic,
    chi_square_threshold,
    evaluate_polynomials,
    tv_distance,
)
from .banded import (
    BandedMatrix,
    FactorizationReport,
    birth_factor,
    death_factor,
    multiply,
    reconstructed_matrix,
    verify_factorization,
    verify_lu,
)
from .coefficients import (
    IntegerParameters,
    LUCoefficients,
    ParameterError,
    Parameters,
    TransitionRow,
    lu_coefficients,
    lu_coefficients_integer,
    reconstruct_row,
    require_valid,
    validate_integer_parameters,
    validate_parameters,
)
from .urns import (
    BLUE,
    COMPOSITE,
    RED,
    RngStream,
    StepOutcome,
    Trajectory,
    Urn,
    composite_distribution,
    composite_step,
    enumerate_step_distribution,
    experiment1_step,
    experiment1_urns,
    experiment2_step,
    experiment2_urn,
    run_trajectory,
    sample_endpoints,
)

__version__ = "0.1.0"

__all__ = [
    "BLUE",
    "BandedMatrix",
    "COMPOSITE",
    "EmpiricalDistribution",
    "FactorizationReport",
    "IntegerParameters",
    "LUCoefficients",
    "ParameterError",
    "Parameters",
    "PolynomialEvaluation",
    "RED",
    "RngStream",
    "StepOutcome",
    "Trajectory",
    "TransitionRow",
    "Urn",
    "birth_factor",
    "chi_square_statistic",
    "chi_square_threshold",
    "composite_distribution",
    "composite_step",
    "death_factor",
    "enumerate_step_distribution",
    "evaluate_polynomials",
    "experiment1_step",
    "experiment1_urns",
    "experiment2_step",
    "experiment2_urn",
    "lu_coefficients",
    "lu_coefficients_integer",
    "multiply",
    "reconstruct_row",
    "reconstructed_matrix",
    "require_valid",
    "run_trajectory",
    "sample_endpoints",
    "tv_distance",
    "validate_integer_parameters",
    "validate_parameters",
    "verify_factorization",
    "verify_lu",
]
