"""Bilinear dynamical systems via the Volterra series.

Adjusted multidimensional kernels, multidimensional transfer functions, the
closed-form bilinear impulse response, cascade/direct time-domain simulation,
and independent numerical cross-checks, plus a batch CLI.
"""

from .linalg import PoleHitError, expm, phi1_apply, resolvent_apply
from .system import (BilinearSystem, EffectiveExcitation, effective_matrices,
                     fold_implicit, validate)
from .kernels import (RegionClass, classify_regular, classify_triangular,
                      eval_regular, eval_symmetric, eval_triangular,
                      triangular_coords_from_regular)
from .transfer import (TransferValue, eval_tf_regular, eval_tf_symmetric,
                       eval_tf_triangular, output_transform, roc_margin)
from .response import (GridResolutionError, OutputSeries, ResponseSeries,
                       SampledSignal, TimeGrid, delta_eps_signal,
                       impulse_response, impulse_response_subsystem,
                       nascent_response, ode_direct, signal_from_samples,
                       sine_signal, step_signal, volterra_cascade, zero_signal)
from .verify import (QuadratureEstimate, SweepReport, aux_output_2d, eps_sweep,
                     laplace_quadrature, phi1_bounds_probe, richardson_limit,
                     suggest_truncation, symmetry_probe)

__version__ = "0.1.0"

__all__ = [
    "PoleHitError", "expm", "phi1_apply", "resolvent_apply",
    "BilinearSystem", "EffectiveExcitation", "effective_matrices",
    "fold_implicit", "validate",
    "RegionClass", "classify_regular", "classify_triangular",
    "eval_regular", "eval_symmetric", "eval_triangular",
    "triangular_coords_from_regular",
    "TransferValue", "eval_tf_regular", "eval_tf_symmetric",
    "eval_tf_triangular", "output_transform", "roc_margin",
    "GridResolutionError", "OutputSeries", "ResponseSeries", "SampledSignal",
    "TimeGrid", "delta_eps_signal", "impulse_response",
    "impulse_response_subsystem", "nascent_response", "ode_direct",
    "signal_from_samples", "sine_signal", "step_signal", "volterra_cascade",
    "zero_signal",
    "QuadratureEstimate", "SweepReport", "aux_output_2d", "eps_sweep",
    "laplace_quadrature", "phi1_bounds_probe", "richardson_limit",
    "suggest_truncation", "symmetry_probe",
    "__version__",
]
