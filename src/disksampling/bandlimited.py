"""Oversampled (bandlimited) path: frame matrix, pseudoinverse, reconstruction.

With N > M samples on the ring, the sampling operator T mapping a signal of
band limit M to its N ring values factors as

    T[k, n] = lambda_n^(1/2) * F[k, n],      F[k, n] = exp(-2*pi*i*k*n/N)/sqrt(N),

an N x (M+1) rectangular Fourier matrix scaled by the square roots of the
resolution eigenvalues.  The factored form makes T*T exactly diagonal and
turns reconstruction and coefficient recovery into one FFT plus a diagonal
rescaling.  The dense matrix is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS, basis
from .basis import (
    DiskSignal,
    ResolutionSpectrum,
    SamplingGrid,
    _log_one_minus_mod2,
    _one_minus_mod2,
    _pointwise,
    _ring_coefficients,
    _scalar_or_array,
)
from .validation import (
    _Conditioned,
    _read_only,
    as_disk_points,
    as_samples,
    check_band_limit,
    check_grid_index,
    from_log,
    times_exp,
)

__all__ = list(_EXPORTS["bandlimited"])


@dataclass(frozen=True)
class FrameMatrix(_Conditioned):
    """Factored sampling operator for band limit ``band_limit`` < ``n_samples``,
    built from its three inputs: it derives ``log_lambda`` (the diagonal factor,
    log domain, read-only); the Fourier factor is applied as an FFT.
    """

    twice_s: int
    grid: SamplingGrid
    band_limit: int
    log_lambda: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spectrum = ResolutionSpectrum(self.twice_s, self.grid)  # checks twice_s, then grid
        band_limit = check_band_limit(self.band_limit, n_samples=self.grid.n_samples)
        logs = _read_only(spectrum.log_values(np.arange(band_limit + 1)))
        object.__setattr__(self, "twice_s", spectrum.twice_s)
        object.__setattr__(self, "band_limit", band_limit)
        object.__setattr__(self, "log_lambda", logs)

    _log_spectrum = property(lambda self: self.log_lambda)

    @property
    def lambdas(self) -> np.ndarray:
        """Resolution eigenvalues lambda_0..lambda_M (``validation.from_log``), read-only."""
        return _read_only(from_log(self.log_lambda, "lambda"))


def frame_matrix(twice_s: int, grid: SamplingGrid, band_limit: int) -> FrameMatrix:
    """Build the factored sampling operator; requires n_samples > band_limit."""
    return FrameMatrix(twice_s, grid, band_limit)


def sinc_kernel(fm: FrameMatrix, k: int, z):
    """Interpolating kernel through which reconstruction proceeds:

        Xi_k(z) = (1/N) ((1-|z|^2)/(1-r^2))^s  sum_{m=0}^{M} rho^m,   rho = conj(z)/conj(z_k).

    At the grid points, Xi_k(z_l) is the (l, k) entry of the sample-space
    projector: the Kronecker delta at critical sampling N = M+1.  The sum is
    the closed form expm1((M+1) t)/expm1(t), t = log rho (M+1 where |t| is
    below the normal range); for |z| > r it is rho^M sum_m rho^(-m), with
    rho^M in the exponent.  ``validation.times_exp`` applies the prefactor,
    so a value beyond the double range raises ``NumericalRangeError``.
    """
    n = fm.n_samples
    k = check_grid_index(k, n)
    r = fm.grid.radius
    s = fm.twice_s / 2.0
    m = fm.band_limit

    log_one_minus_r2 = _log_one_minus_mod2(_one_minus_mod2(r))

    def values(z_flat):
        ratio = np.conj(z_flat) * np.exp(2j * np.pi * k / n) / r
        t = np.log(ratio, out=np.full_like(ratio, -np.inf), where=ratio != 0)
        top = np.where(t.real > 0, t, 0)
        step = np.where(t.real > 0, -t, t)
        # (M+1) t by parts: at z = 0, t = -inf and a complex product makes the 0j NaN
        whole = (m + 1) * step.real + 1j * ((m + 1) * step.imag)
        total = np.divide(np.expm1(whole), np.expm1(step), out=np.full_like(ratio, m + 1),
                          where=np.abs(step) >= np.finfo(np.float64).tiny)
        log_one_minus = _log_one_minus_mod2(_one_minus_mod2(z_flat))
        log_factor = s * (log_one_minus - log_one_minus_r2) - np.log(n) + m * top.real
        return times_exp(total * np.exp(1j * m * top.imag), log_factor, "sinc kernel value")

    z_arr = as_disk_points(z)
    return _scalar_or_array(_pointwise(values, z_arr.ravel()), z_arr)


def fourier_coefficients(fm: FrameMatrix, samples) -> np.ndarray:
    """Recover a_0..a_M from ring samples: one DFT then a diagonal filter.

        a_m = (N lambda_m)^(-1/2) sum_k exp(2*pi*i*k*m/N) Psi(z_k) = d_m / U_m(r),

    the ring transform of both modes (``basis._ring_coefficients``).  Exact
    on bandlimited data; otherwise the least-squares fit given by the left
    pseudoinverse of the sampling operator.  A coefficient beyond the double
    range raises ``NumericalRangeError``.
    """
    values = as_samples(samples, fm.n_samples)
    return _ring_coefficients(fm.twice_s, fm.grid, values, fm.band_limit, "a")


def reconstruct_bandlimited(fm: FrameMatrix, samples, z):
    """Evaluate the reconstruction sum_k Xi_k(z) Psi(z_k) at point(s) z.

    For samples of a signal with band limit <= M this equals the signal
    exactly; for incompatible data it evaluates the least-squares fit (the
    orthogonal projection of the data onto the range of the sampling
    operator).
    """
    coeffs = fourier_coefficients(fm, samples)
    # looked up in basis at each call, so that a wrapper put on
    # basis.evaluate_signal (a profiler's) is seen here and taken off with it
    return basis.evaluate_signal(DiskSignal(fm.twice_s, coeffs), z)
