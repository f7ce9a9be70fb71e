"""Estimator-style front end for the two reconstruction paths.

Both classes follow the scikit-learn protocol (constructor parameters mirrored
as attributes, ``fit`` returning self, fitted attributes with trailing
underscores, ``get_params``/``set_params``), so they compose with pipeline and
model-selection tooling that relies on duck typing, without importing
scikit-learn.  ``fit`` consumes the N complex ring samples; ``predict``
evaluates the reconstruction at complex query points inside the disk.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import _EXPORTS, bandlimited as bl
from . import undersampled as us
from .basis import DiskSignal, SamplingGrid, _ring_coefficients, evaluate_signal
from .validation import NotFittedError, as_samples, check_band_limit

__all__ = list(_EXPORTS["estimators"])


class _ParamsMixin:
    """get_params/set_params over the dataclass fields, sklearn style."""

    def get_params(self, deep: bool = True) -> dict:
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}

    def set_params(self, **params):
        valid = {field.name for field in dataclasses.fields(self)}
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def _check_fitted(self, attribute: str):
        if not hasattr(self, attribute):
            raise NotFittedError(
                f"{type(self).__name__} instance is not fitted yet; call fit first"
            )


@dataclasses.dataclass(eq=False)
class BandlimitedReconstructor(_ParamsMixin):
    """Exact reconstruction of a bandlimited signal from ring samples.

    Parameters
    ----------
    twice_s : int
        Doubled spin index 2s >= 2.
    radius : float
        Ring radius, 0 < r < 1.
    n_samples : int
        Number of ring samples N; must exceed ``band_limit``.
    band_limit : int
        Largest coefficient index M of the signals to reconstruct.

    After ``fit(samples)`` the recovered coefficients are in
    ``coefficients_`` and ``signal_``; ``condition_number_`` reports
    max lambda / min lambda of the resolution operator.
    """

    twice_s: int = 2
    radius: float = 0.5
    n_samples: int = 2
    band_limit: int = 0

    def fit(self, samples, y=None):
        grid = SamplingGrid(self.radius, self.n_samples)
        frame = bl.frame_matrix(self.twice_s, grid, self.band_limit)
        self.frame_ = frame
        self.coefficients_ = bl.fourier_coefficients(frame, samples)
        self.signal_ = DiskSignal(frame.twice_s, self.coefficients_)
        self.condition_number_ = frame.condition_number
        return self

    def predict(self, points) -> np.ndarray:
        self._check_fitted("signal_")
        return evaluate_signal(self.signal_, points)


@dataclasses.dataclass(eq=False)
class PartialReconstructor(_ParamsMixin):
    """Best-possible partial reconstruction of an arbitrary signal.

    ``fit(samples)`` builds the circulant kernel and the dual-frame weights;
    ``predict`` evaluates the alias (the orthogonal projection onto the span
    of the sampled coherent states), which interpolates the samples exactly.
    ``dft_coefficients`` and ``truncated_signal`` expose the filtered DFT and
    the truncate-and-rescale recovery, from the samples.  ``fit`` emits
    ``ConditioningWarning`` on an ill-conditioned kernel, once.
    """

    twice_s: int = 2
    radius: float = 0.5
    n_samples: int = 2

    def fit(self, samples, y=None):
        grid = SamplingGrid(self.radius, self.n_samples)
        kernel = us.overlap_kernel(self.twice_s, grid)
        values = as_samples(samples, grid.n_samples)
        self.kernel_ = kernel
        self.samples_ = values
        self.dual_weights_ = us.dual_weights(kernel, values)
        self.condition_number_ = kernel.condition_number
        return self

    def predict(self, points) -> np.ndarray:
        self._check_fitted("kernel_")
        return us._coherent_sum(self.kernel_, self.dual_weights_, points)

    def dft_coefficients(self, n_max: int) -> np.ndarray:
        self._check_fitted("kernel_")
        return us.dft_coefficients(self.kernel_, self.samples_, n_max)

    def truncated_signal(self, band_limit: int) -> DiskSignal:
        self._check_fitted("kernel_")
        twice_s, grid = self.kernel_.twice_s, self.kernel_.grid
        band_limit = check_band_limit(band_limit, n_samples=grid.n_samples)
        coeffs = _ring_coefficients(twice_s, grid, self.samples_, band_limit, "rescaled ahat")
        return DiskSignal(twice_s, coeffs)
