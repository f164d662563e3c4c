"""Pentadiagonal urn-model Markov chain on the non-negative integers.

The chain factors into a stochastic pure-death part and a stochastic
pure-birth part; each part is realized at the level of individual ball
draws from urns.  This package computes the transition coefficients
exactly, verifies the factorization on banded truncations, simulates the
urn experiments, and compares empirical laws against the exact rows.

Importing the package loads none of its modules: each name of
``__all__`` is imported from its module at its first access (PEP 562),
so a command of the CLI loads only the modules it runs, and
``urnchain --help`` none of them.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "analysis": (
        "EmpiricalDistribution", "PolynomialEvaluation", "chi_square_statistic",
        "chi_square_threshold", "evaluate_polynomials", "tv_distance",
    ),
    "banded": (
        "BandedMatrix", "FactorizationReport", "birth_factor", "death_factor", "multiply",
        "reconstructed_matrix", "verify_factorization", "verify_lu",
    ),
    "coefficients": (
        "IntegerParameters", "LUCoefficients", "ParameterError", "Parameters", "TransitionRow",
        "lu_coefficients", "lu_coefficients_integer", "reconstruct_row",
    ),
    "urns": (
        "BLUE", "COMPOSITE", "RED", "RngStream", "StepOutcome", "Trajectory",
        "composite_distribution", "composite_step", "enumerate_step_distribution",
        "experiment1_step", "experiment2_step", "run_trajectory", "sample_endpoints",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's own call, which -X importtime reports
    value = getattr(__import__(_HOME[name], globals(), None, [name], 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
