"""Relative (eps, delta)-approximations of finite set systems.

Construction (iterated halving, chaining decompositions), exact
verification, and a Monte Carlo harness that validates the probabilistic
guarantees and calibrates the size-formula constants.
"""

from .sampling import (
    ApproxParams,
    ApproximationReport,
    Constants,
    Sample,
    basic_sample_size,
    chaining_sample_size,
    chernoff_bound,
    find_constants,
    halving_sample_size,
    is_eps_approximation,
    is_eps_net,
    is_relative_approx,
    main_sample_size,
    relative_error,
    uniform_sample,
)
from .set_system import (
    SetSystem,
    growth_bound_check,
    is_shattered,
    new_set_system,
    restrict,
    vc_dimension,
)

__all__ = [
    "ApproxParams",
    "ApproximationReport",
    "Constants",
    "Sample",
    "SetSystem",
    "basic_sample_size",
    "chaining_sample_size",
    "chernoff_bound",
    "find_constants",
    "growth_bound_check",
    "halving_sample_size",
    "is_eps_approximation",
    "is_eps_net",
    "is_relative_approx",
    "is_shattered",
    "main_sample_size",
    "new_set_system",
    "relative_error",
    "restrict",
    "uniform_sample",
    "vc_dimension",
]
