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
    find_constants,
    halving_sample_size,
    main_sample_size,
    relative_error,
    uniform_sample,
)
from .set_system import SetSystem, new_set_system

__all__ = [
    "ApproxParams",
    "ApproximationReport",
    "Constants",
    "Sample",
    "SetSystem",
    "basic_sample_size",
    "chaining_sample_size",
    "find_constants",
    "halving_sample_size",
    "main_sample_size",
    "new_set_system",
    "relative_error",
    "uniform_sample",
]
