"""Sampling, reconstruction and DFT for holomorphic signals on the hyperbolic disk.

Signals of half-integer spin index s (stored as the integer ``twice_s``) live
on the open unit disk and are sampled at N equispaced points on a ring of
radius r.  With more samples than coefficients the recovery is exact
(:mod:`disksampling.bandlimited`); with fewer, the circulant structure of the
sampled reproducing kernel still yields the best-possible partial
reconstruction together with explicit error bounds
(:mod:`disksampling.undersampled`).
"""

from .basis import (
    DiskSignal,
    ResolutionSpectrum,
    SamplingGrid,
    basis_fn,
    evaluate_signal,
    log_binomial,
    overlap,
    sample_signal,
)
from .bandlimited import (
    FrameMatrix,
    fourier_coefficients,
    frame_matrix,
    reconstruct_bandlimited,
    sample_space_projector,
    sinc_kernel,
)
from .estimators import BandlimitedReconstructor, PartialReconstructor
from .undersampled import (
    CirculantKernel,
    ErrorBound,
    QuasiBandProfile,
    RadiusEstimate,
    alias_error,
    band_projection_curve,
    critical_radius,
    dft_coefficients,
    dual_sinc_kernel,
    dual_weights,
    error_bound,
    invert_kernel,
    leading_order_bound,
    max_radius_estimate,
    overlap_kernel,
    partial_reconstruct,
    projector_element,
    quasi_band_profile,
    rescale_truncate,
    tail_excess,
)
from .validation import (
    ConditioningWarning,
    EigenvalueCrossCheckError,
    NotFittedError,
    NumericalRangeError,
)

__version__ = "0.1.0"

__all__ = [
    "DiskSignal",
    "ResolutionSpectrum",
    "SamplingGrid",
    "basis_fn",
    "evaluate_signal",
    "log_binomial",
    "overlap",
    "sample_signal",
    "FrameMatrix",
    "frame_matrix",
    "fourier_coefficients",
    "reconstruct_bandlimited",
    "sample_space_projector",
    "sinc_kernel",
    "CirculantKernel",
    "ErrorBound",
    "QuasiBandProfile",
    "RadiusEstimate",
    "alias_error",
    "band_projection_curve",
    "critical_radius",
    "dft_coefficients",
    "dual_sinc_kernel",
    "dual_weights",
    "error_bound",
    "invert_kernel",
    "leading_order_bound",
    "max_radius_estimate",
    "overlap_kernel",
    "partial_reconstruct",
    "projector_element",
    "quasi_band_profile",
    "rescale_truncate",
    "tail_excess",
    "BandlimitedReconstructor",
    "PartialReconstructor",
    "ConditioningWarning",
    "EigenvalueCrossCheckError",
    "NotFittedError",
    "NumericalRangeError",
    "__version__",
]
