"""Sampling, reconstruction and DFT for holomorphic signals on the hyperbolic disk.

Signals of half-integer spin index s (stored as the integer ``twice_s``) live
on the open unit disk and are sampled at N equispaced points on a ring of
radius r.  With more samples than coefficients the recovery is exact
(:mod:`disksampling.bandlimited`); with fewer, the circulant structure of the
sampled reproducing kernel still yields the best-possible partial
reconstruction together with explicit error bounds
(:mod:`disksampling.undersampled`).

Public names are loaded from their submodules on first access (PEP 562), so
``import disksampling`` itself loads no numpy.
"""

import importlib

# the package's one list of public names: each submodule's __all__ is read from it
_EXPORTS = {
    "basis": (
        "DiskSignal",
        "ResolutionSpectrum",
        "SamplingGrid",
        "basis_fn",
        "evaluate_signal",
        "log_binomial",
        "overlap",
        "sample_signal",
    ),
    "bandlimited": (
        "FrameMatrix",
        "frame_matrix",
        "fourier_coefficients",
        "reconstruct_bandlimited",
        "sinc_kernel",
    ),
    "undersampled": (
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
        "leading_order_bound",
        "max_radius_estimate",
        "overlap_kernel",
        "partial_reconstruct",
        "projector_element",
        "quasi_band_profile",
        "rescale_truncate",
        "tail_excess",
    ),
    "validation": (
        "ConditioningWarning",
        "EigenvalueCrossCheckError",
        "NumericalRangeError",
        "SeriesBudgetError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
