"""Spectral simulator for the decay of a discrete level coupled to a continuum.

Computes the bound-state threshold, the discrete eigenvalue below the
continuum edge and its weight, the continuous spectral density, and the
survival probability P(t) of the initially excited level, cross-validated
against an independent memory-kernel time-domain solver.
"""

from .coupling import (
    CouplingFamily,
    CouplingModel,
    coupling_sq,
    l2_norm_sq,
    sq_over_x_integral,
)
from .evolution import (
    AmplitudeSeries,
    MethodTag,
    OscillatoryBudgetExceededError,
    WeakCouplingRate,
    amplitude_spectral,
    asymptotic_limit,
    fitted_decay_rate,
    weak_coupling_rate,
)
from .quadrature import (
    NonConvergenceError,
    k_pv,
    k_regular,
)
from .spectrum import (
    BracketFailureError,
    ClosedFormMismatchError,
    ModelParams,
    NoEigenvalueError,
    NormalizationFailureError,
    SpectralData,
    ThresholdMarginalError,
    ThresholdResult,
    build_spectral_data,
    eigen_weight,
    find_eigenvalue,
    spectral_density,
    threshold_check,
)
from .volterra import (
    KernelMismatchError,
    KernelTable,
    build_kernel_table,
    default_step,
    kernel,
    richardson_ratio,
    solve_ide,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeSeries",
    "BracketFailureError",
    "ClosedFormMismatchError",
    "CouplingFamily",
    "CouplingModel",
    "KernelMismatchError",
    "KernelTable",
    "MethodTag",
    "ModelParams",
    "NoEigenvalueError",
    "NonConvergenceError",
    "NormalizationFailureError",
    "OscillatoryBudgetExceededError",
    "SpectralData",
    "ThresholdMarginalError",
    "ThresholdResult",
    "WeakCouplingRate",
    "amplitude_spectral",
    "asymptotic_limit",
    "build_kernel_table",
    "build_spectral_data",
    "coupling_sq",
    "default_step",
    "eigen_weight",
    "find_eigenvalue",
    "fitted_decay_rate",
    "k_pv",
    "k_regular",
    "kernel",
    "l2_norm_sq",
    "richardson_ratio",
    "solve_ide",
    "spectral_density",
    "sq_over_x_integral",
    "threshold_check",
    "weak_coupling_rate",
]
