"""Oversampled (bandlimited) path: frame matrix, pseudoinverse, reconstruction.

With N > M samples on the ring, the sampling operator T mapping a signal of
band limit M to its N ring values factors as

    T[k, n] = lambda_n^(1/2) * F[k, n],      F[k, n] = exp(-2*pi*i*k*n/N)/sqrt(N),

an N x (M+1) rectangular Fourier matrix scaled by the square roots of the
resolution eigenvalues.  The factored form makes T*T exactly diagonal and
turns reconstruction and coefficient recovery into one FFT plus a diagonal
rescaling.  The dense matrix is never needed in the hot paths; ``toarray``
materializes it for tests and small problems only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    DiskSignal,
    ResolutionSpectrum,
    SamplingGrid,
    _log_one_minus_mod2,
    _one_minus_mod2,
    _pointwise,
    evaluate_signal,
)
from .validation import (
    CONDITION_LIMIT,
    as_samples,
    check_band_limit,
    check_grid_index,
    check_twice_s,
)

__all__ = [
    "FrameMatrix",
    "frame_matrix",
    "sinc_kernel",
    "reconstruct_bandlimited",
    "fourier_coefficients",
    "sample_space_projector",
]


@dataclass(frozen=True)
class FrameMatrix:
    """Factored sampling operator for band limit ``band_limit`` < ``n_samples``.

    Stores only ``log_lambda`` (the diagonal factor, log domain); the Fourier
    factor is synthesized on demand.
    """

    twice_s: int
    grid: SamplingGrid
    band_limit: int
    log_lambda: np.ndarray

    def __post_init__(self):
        self.log_lambda.flags.writeable = False

    @property
    def n_samples(self) -> int:
        return self.grid.n_samples

    @property
    def lambdas(self) -> np.ndarray:
        """Resolution eigenvalues lambda_0..lambda_M."""
        return np.exp(self.log_lambda)

    @property
    def condition_number(self) -> float:
        """max lambda / min lambda of the diagonal resolution operator."""
        return float(np.exp(np.max(self.log_lambda) - np.min(self.log_lambda)))

    @property
    def is_ill_conditioned(self) -> bool:
        return self.condition_number > CONDITION_LIMIT

    def fourier_factor(self) -> np.ndarray:
        """Rectangular Fourier factor F[k, n] = exp(-2*pi*i*k*n/N)/sqrt(N)."""
        n = self.n_samples
        k = np.arange(n)[:, np.newaxis]
        m = np.arange(self.band_limit + 1)[np.newaxis, :]
        return np.exp(-2j * np.pi * k * m / n) / np.sqrt(n)

    def toarray(self) -> np.ndarray:
        """Dense N x (M+1) sampling matrix; small problems only."""
        return np.exp(0.5 * self.log_lambda)[np.newaxis, :] * self.fourier_factor()


def frame_matrix(twice_s: int, grid: SamplingGrid, band_limit: int) -> FrameMatrix:
    """Build the factored sampling operator; requires n_samples > band_limit."""
    twice_s = check_twice_s(twice_s)
    band_limit = check_band_limit(band_limit, n_samples=grid.n_samples)
    spectrum = ResolutionSpectrum(twice_s, grid)
    logs = np.asarray(spectrum.log_values(np.arange(band_limit + 1)), dtype=np.float64)
    return FrameMatrix(twice_s=twice_s, grid=grid, band_limit=band_limit, log_lambda=logs)


def sinc_kernel(fm: FrameMatrix, k: int, z):
    """Interpolating kernel through which reconstruction proceeds:

        Xi_k(z) = (1/N) ((1-|z|^2)/(1-r^2))^s  sum_{m=0}^{M} (conj(z)/conj(z_k))^m.

    At the grid points, Xi_k(z_l) is the (l, k) entry of the sample-space
    projector: the Kronecker delta at critical sampling N = M+1.
    """
    n = fm.n_samples
    k = check_grid_index(k, n)
    r = fm.grid.radius
    s = fm.twice_s / 2.0

    log_one_minus_r2 = _log_one_minus_mod2(_one_minus_mod2(r))

    def values(z_flat):
        log_one_minus = _log_one_minus_mod2(_one_minus_mod2(z_flat))
        prefactor = np.exp(s * (log_one_minus - log_one_minus_r2)) / n
        ratio = np.conj(z_flat) * np.exp(2j * np.pi * k / n) / r
        acc = np.ones_like(ratio)
        term = np.ones_like(ratio)
        for _ in range(fm.band_limit):
            term = term * ratio
            acc = acc + term
        return prefactor * acc

    return _pointwise(values, z)


def fourier_coefficients(fm: FrameMatrix, samples) -> np.ndarray:
    """Recover a_0..a_M from ring samples: one DFT then a diagonal filter.

        a_m = (N lambda_m)^(-1/2) sum_k exp(2*pi*i*k*m/N) Psi(z_k)

    Exact on bandlimited data; otherwise this is the least-squares fit
    given by the left pseudoinverse of the sampling operator.
    """
    n = fm.n_samples
    values = as_samples(samples, n)
    plus_dft = n * np.fft.ifft(values)
    scale = np.exp(-0.5 * (np.log(n) + fm.log_lambda))
    return plus_dft[: fm.band_limit + 1] * scale


def reconstruct_bandlimited(fm: FrameMatrix, samples, z):
    """Evaluate the reconstruction sum_k Xi_k(z) Psi(z_k) at point(s) z.

    For samples of a signal with band limit <= M this equals the signal
    exactly; for incompatible data it evaluates the least-squares fit (the
    orthogonal projection of the data onto the range of the sampling
    operator).
    """
    coeffs = fourier_coefficients(fm, samples)
    return evaluate_signal(DiskSignal(fm.twice_s, coeffs), z)


def sample_space_projector(fm: FrameMatrix) -> np.ndarray:
    """Orthogonal projector P = T (T*T)^(-1) T* onto the range of T.

    In factored form this collapses to F F* with F the rectangular Fourier
    factor; it is idempotent, self-adjoint and of trace M+1 (the identity at
    critical sampling).
    """
    f = fm.fourier_factor()
    return f @ f.conj().T
