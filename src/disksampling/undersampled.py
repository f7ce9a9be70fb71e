"""Undersampled path: circulant overlap kernel, dual frame, partial reconstruction.

For an arbitrary (band-unlimited) signal, N ring samples cannot determine the
signal, but the Gram matrix of the sampled coherent states

    B[k, l] = <z_k|z_l> = ((1-r^2) / (1-r^2 exp(2*pi*i*(l-k)/N)))^(2s)

is circulant, hence diagonalized by the DFT with eigenvalues

    lhat_j = sum_{q>=0} lambda_{j+qN},    j = 0..N-1,

all strictly positive.  Inverting B through this eigen-decomposition yields a
dual pseudo-frame, an interpolating kernel that is exact at the sample points,
the best-possible partial reconstruction (the orthogonal projection onto the
span of the sampled coherent states), a DFT-style coefficient transform, and
computable error bounds for quasi-bandlimited signals.

Numerical policy: the production eigenvalues come from a DFT of the first row
carried out in adaptive extended precision, because in double precision the
row DFT loses the small eigenvalues to cancellation as soon as the eigenvalue
spread exceeds ~1e4.  That DFT is a mixed-radix decimation-in-time transform
in mpmath: O(N * sum of the prime factors of N) products, O(N log N) for
smooth N, while a prime N stays O(N^2).  It yields the same doubles as the
direct O(N^2) sum, which the tests keep as their reference.  mpmath is
imported by the first kernel built, so work that needs no kernel (the error
analysis) never loads it.  The independent check is lhat_j as a lambda
series in ordinary doubles, each residue class summed outward from its
largest term (the class tails of the error analysis).  The tail ratios
eps_n = (lhat_n - lambda_n)/lambda_n are never formed by subtraction; they
get their own series, exact down to the underflow threshold, and are carried
in the log domain where they leave the double range.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import basis
from .basis import (
    DiskSignal,
    ResolutionSpectrum,
    SamplingGrid,
    _log_one_minus_mod2,
    _log_pmf,
    _one_minus_mod2,
    _pointwise,
    log_binomial,
)
from .validation import (
    CONDITION_LIMIT,
    ConditioningWarning,
    EigenvalueCrossCheckError,
    NumericalRangeError,
    as_samples,
    check_band_limit,
    check_grid_index,
    check_index,
    check_n_samples,
    check_radius,
    check_twice_s,
    series_tolerance,
)

__all__ = [
    "CirculantKernel",
    "QuasiBandProfile",
    "ErrorBound",
    "RadiusEstimate",
    "overlap_kernel",
    "invert_kernel",
    "dual_weights",
    "dual_sinc_kernel",
    "partial_reconstruct",
    "dft_coefficients",
    "rescale_truncate",
    "projector_element",
    "tail_excess",
    "quasi_band_profile",
    "alias_error",
    "error_bound",
    "leading_order_bound",
    "max_radius_estimate",
    "band_projection_curve",
    "critical_radius",
]

_EIG_AGREE_RTOL = 1e-12
_EIG_IMAG_RTOL = 1e-13
_MAX_SERIES_BLOCKS = 100_000
_SERIES_BLOCK = 16


@dataclass(frozen=True)
class CirculantKernel:
    """Sampled reproducing-kernel operator B in circulant form.

    ``first_row`` holds C_0..C_{N-1} with B[k, l] = C[(l-k) mod N];
    ``eigenvalues`` holds the cross-checked lhat_0..lhat_{N-1}.
    Immutable after construction and safe to share across threads.
    """

    twice_s: int
    grid: SamplingGrid
    first_row: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.first_row.flags.writeable = False
        self.eigenvalues.flags.writeable = False

    @property
    def n_samples(self) -> int:
        return self.grid.n_samples

    @property
    def spectrum(self) -> ResolutionSpectrum:
        return ResolutionSpectrum(self.twice_s, self.grid)

    @property
    def condition_number(self) -> float:
        return float(np.max(self.eigenvalues) / np.min(self.eigenvalues))

    @property
    def is_ill_conditioned(self) -> bool:
        return self.condition_number > CONDITION_LIMIT

    def dense(self) -> np.ndarray:
        """Assemble the dense N x N Gram matrix from the circulant row."""
        return _circulant(self.first_row)


@dataclass(frozen=True)
class QuasiBandProfile:
    """Band limit M plus the relative tail amplitude eps with tail energy <= eps^2."""

    band_limit: int
    epsilon_m: float

    def __post_init__(self):
        check_band_limit(self.band_limit)
        if not 0.0 <= self.epsilon_m < 1.0:
            raise ValueError(f"epsilon_m must lie in [0, 1), got {self.epsilon_m!r}")


@dataclass(frozen=True)
class ErrorBound:
    """Normalized squared-error bound; ``value`` is the full three-term form,
    ``leading_order`` the single-power-of-r approximation."""

    value: float
    leading_order: float


@dataclass(frozen=True)
class RadiusEstimate:
    """Ring-radius upper estimate; ``clamped`` marks a raw value >= 1 clipped
    to 1.0 (the formula then imposes no constraint inside the disk)."""

    value: float
    clamped: bool


def _circulant(row: np.ndarray) -> np.ndarray:
    """Dense N x N circulant matrix with entry [k, l] = row[(l - k) mod N]."""
    n = row.size
    return row[(np.arange(n)[np.newaxis, :] - np.arange(n)[:, np.newaxis]) % n]


def _first_row(twice_s: int, grid: SamplingGrid) -> np.ndarray:
    """C_l = ((1-r^2) / (1 - r^2 e^(i theta_l)))^(2s), the denominator taken as
    (1-r^2) + 2 r^2 sin^2(theta_l/2) - i r^2 sin(theta_l), which does not
    cancel near theta_l = 0 (C_0 = 1 exactly)."""
    one_minus, _, r2, _ = _one_minus_mod2(grid.radius)
    ang = grid.angles
    half_sin = np.sin(0.5 * ang)
    base = one_minus / (one_minus + 2.0 * r2 * half_sin * half_sin - 1j * r2 * np.sin(ang))
    return base**twice_s


def _series_sum(log_terms, tol: float, name: str) -> np.ndarray:
    """Row sums of positive series, truncated under the global policy.

    ``log_terms`` maps a block of term indices q = 0, 1, ... to the
    rows x block array of log-terms.  Terms are positive with eventually
    decreasing ratios, so a geometric majorant built from the last observed
    ratio bounds the tail.  Each row stops at its own first negligible block,
    so a row's sum does not depend on the rows summed with it.  A sum beyond
    the double range raises ``OverflowError``.  Every series in this module
    is summed here.
    """
    total, open_rows = 0.0, True
    for block in range(_MAX_SERIES_BLOCKS):
        q = np.arange(block * _SERIES_BLOCK, (block + 1) * _SERIES_BLOCK)
        with np.errstate(over="ignore"):
            terms = np.exp(log_terms(q))
            total = np.where(open_rows, total + terms.sum(axis=1), total)
        if np.isinf(total).any():
            raise OverflowError(f"{name} series exceeds the double range")
        open_rows = open_rows & ~_tail_negligible(terms[:, -1], terms[:, -2], tol * total)
        if not open_rows.any():
            break
    else:
        raise EigenvalueCrossCheckError(f"{name} series failed to terminate")
    return total


def _tail_negligible(last: np.ndarray, prev: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Rows whose last term is zero, or whose last term and geometric-majorant
    tail both lie below ``bound``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(prev > 0.0, last / prev, 0.0)
        tail = last * ratio / (1.0 - ratio)
    return (last == 0.0) | ((ratio < 1.0) & (last < bound) & (tail < bound))


def _eigenvalues_dft(twice_s: int, grid: SamplingGrid) -> tuple[np.ndarray, float]:
    """Length-N DFT of the first row, in precision adapted to the spread.

    Returns (eigenvalues as float64, worst relative imaginary residue over
    all N complex outputs).  The working precision covers the gap between the
    row scale (order 1) and the smallest eigenvalue, which double precision
    cannot bridge once the spread passes ~1e4.  The transform is the
    mixed-radix one of :func:`_mixed_radix_dft`, O(N * sum of the prime
    factors of N) products; a prime N costs N^2.  Roots of unity and row
    entries are computed for l <= N/2 only; the rest follow by conjugation,
    exp(-2 pi i (N-l)/N) = conj exp(-2 pi i l/N) and C_{N-l} = conj C_l.
    """
    import mpmath as mp  # loaded by the first kernel, not by the package

    n = grid.n_samples
    spectrum = ResolutionSpectrum(twice_s, grid)
    min_log = float(np.min(spectrum.log_values(np.arange(n))))
    digits = 30 + int(np.ceil(max(0.0, -min_log) / np.log(10.0))) + int(np.log10(n) + 1)
    half = range(n // 2 + 1)
    mirror = range(n // 2 + 1, n)
    with mp.workdps(digits):
        r2 = mp.mpf(grid.radius) ** 2
        one = mp.mpf(1)
        roots = [mp.expjpi(mp.mpf(2 * k) / n) for k in half]
        row = [((one - r2) / (one - r2 * roots[l])) ** twice_s for l in half]
        twiddles = [mp.conj(w) for w in roots] + [roots[n - k] for k in mirror]
        row += [mp.conj(row[n - l]) for l in mirror]
        out = _mixed_radix_dft(row, twiddles, 1)
        values = np.array([float(x.real) for x in out])
        worst_imag = max(abs(x.imag) for x in out)
        scale = max(values)
        residue = float(worst_imag / scale) if scale > 0 else float(worst_imag)
    return values, residue


def _mixed_radix_dft(x: list, twiddles: list, stride: int) -> list:
    """X_j = sum_l x_l w^(j l) for w = twiddles[stride], by decimation in time.

    ``twiddles[k]`` is exp(-2 pi i k / N) for the full length N, and
    len(x) * stride = N.  A length m = p q with p the smallest prime factor
    splits into p interleaved length-q transforms; output k + b q is then the
    length-p transform over a of the twiddled values w^(a k) P_a[k].  A prime
    length is summed directly, each output one exact ``mp.fsum``.  Runs at
    the caller's mpmath precision.
    """
    import mpmath as mp

    m = len(x)
    if m == 2:
        # x_0 +- x_1 round once, as the two-term fsum does
        return [x[0] + x[1], x[0] - x[1]]
    p = _smallest_prime_factor(m)
    if p == m:
        return [
            mp.fsum(_rotate(x[l], twiddles, (j * l) % m * stride) for l in range(m))
            for j in range(m)
        ]
    q = m // p
    parts = [_mixed_radix_dft(x[a::p], twiddles, stride * p) for a in range(p)]
    out = [None] * m
    for k in range(q):
        column = [_rotate(parts[a][k], twiddles, a * k * stride) for a in range(p)]
        out[k::q] = _mixed_radix_dft(column, twiddles, q * stride)
    return out


def _rotate(value, twiddles: list, k: int):
    """value * twiddles[k], skipping the exact multiplication by twiddles[0] = 1."""
    return value * twiddles[k] if k else value


def _smallest_prime_factor(m: int) -> int:
    """Smallest prime dividing m, or m itself when m is 1 or prime."""
    for p in range(2, int(m**0.5) + 1):
        if m % p == 0:
            return p
    return m


def _cross_checked_eigenvalues(twice_s: int, grid: SamplingGrid) -> np.ndarray:
    dft_vals, imag_residue = _eigenvalues_dft(twice_s, grid)
    if imag_residue > _EIG_IMAG_RTOL:
        raise EigenvalueCrossCheckError(
            f"imaginary residue {imag_residue!r} of the row DFT exceeds {_EIG_IMAG_RTOL}"
        )
    if np.any(dft_vals <= 0.0):
        j = int(np.argmin(dft_vals))
        log_val = float(ResolutionSpectrum(twice_s, grid).log_values(j))
        raise NumericalRangeError(
            f"kernel eigenvalue {j} not representable as a positive double",
            log_value=log_val,
        )
    spectrum = ResolutionSpectrum(twice_s, grid)
    series_vals = np.exp(_log_class_tails(spectrum, np.arange(grid.n_samples), "eigenvalue"))
    gap = float(np.max(np.abs(dft_vals - series_vals) / dft_vals))
    if gap > _EIG_AGREE_RTOL:
        raise EigenvalueCrossCheckError(
            f"row-DFT and series eigenvalues disagree by {gap!r} relative "
            f"(limit {_EIG_AGREE_RTOL}); this indicates an implementation fault"
        )
    return dft_vals


def overlap_kernel(twice_s: int, grid: SamplingGrid) -> CirculantKernel:
    """Build the circulant Gram kernel for (twice_s, grid), eigenvalues included.

    Construction runs the two independent eigenvalue computations and refuses
    to return a kernel on disagreement.
    """
    twice_s = check_twice_s(twice_s)
    row = _first_row(twice_s, grid)
    eig = _cross_checked_eigenvalues(twice_s, grid)
    return CirculantKernel(twice_s=twice_s, grid=grid, first_row=row, eigenvalues=eig)


def invert_kernel(kernel: CirculantKernel) -> np.ndarray:
    """Dense inverse of B via the eigen-decomposition:

        (B^-1)[l, k] = (1/N) sum_j lhat_j^(-1) exp(2*pi*i*j*(k-l)/N).
    """
    if kernel.is_ill_conditioned:
        warnings.warn(
            f"kernel condition number {kernel.condition_number:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; inverse entries lose up to all digits",
            ConditioningWarning,
            stacklevel=2,
        )
    return _circulant(_inverse_row(kernel))


def dual_weights(kernel: CirculantKernel, samples) -> np.ndarray:
    """Apply B^-1 to a sample vector using two FFTs (no dense matrix)."""
    values = as_samples(samples, kernel.n_samples)
    return np.fft.fft(np.fft.ifft(values) / kernel.eigenvalues)


def _inverse_row(kernel: CirculantKernel) -> np.ndarray:
    """First row g of the circulant B^-1: (B^-1)[l, k] = g[(k - l) mod N]."""
    return np.fft.ifft(1.0 / kernel.eigenvalues)


def _coherent_sum(kernel: CirculantKernel, weights: np.ndarray, z):
    """sum_l weights_l <z|z_l> over the sampled coherent states, at point(s) z.

    Summed by ``np.einsum``, not a BLAS product, whose rounding depends on
    the number of points in the block.
    """
    points = kernel.grid.points[np.newaxis, :]
    # basis.overlap is looked up at the call, as reconstruct_bandlimited
    # looks up basis.evaluate_signal
    return _pointwise(
        lambda z_flat: np.einsum(
            "qn,n->q", basis.overlap(kernel.twice_s, z_flat[:, np.newaxis], points), weights
        ),
        z,
    )


def dual_sinc_kernel(kernel: CirculantKernel, k: int, z):
    """Dual-frame interpolating kernel XiHat_k(z) = sum_l (B^-1)[l, k] <z|z_l>.

    Satisfies XiHat_k(z_l) = delta_kl on the grid.
    """
    n = kernel.n_samples
    k = check_grid_index(k, n)
    return _coherent_sum(kernel, _inverse_row(kernel)[(k - np.arange(n)) % n], z)


def partial_reconstruct(kernel: CirculantKernel, samples, z):
    """Evaluate the alias sum_k XiHat_k(z) Psi(z_k) at point(s) z.

    The alias is the orthogonal projection of the signal onto the span of the
    N sampled coherent states; it interpolates the samples exactly.
    """
    return _coherent_sum(kernel, dual_weights(kernel, samples), z)


def dft_coefficients(kernel: CirculantKernel, samples, n_max: int) -> np.ndarray:
    """Filtered DFT coefficients of the alias:

        ahat_n = (lambda_n^(1/2) / lhat_{n mod N}) (1/sqrt(N)) sum_k e^{2 pi i n k / N} Psi(z_k).

    One length-N DFT of the samples serves every n; coefficients repeat
    across residue classes up to the factor sqrt(lambda_{n+pN}/lambda_n).
    """
    n_max = check_index(n_max, "n_max")
    n = kernel.n_samples
    values = as_samples(samples, n)
    plus_dft = np.sqrt(n) * np.fft.ifft(values)
    idx = np.arange(n_max + 1)
    residues = idx % n
    log_lam = np.asarray(kernel.spectrum.log_values(idx), dtype=np.float64)
    scale = np.exp(0.5 * log_lam - np.log(kernel.eigenvalues[residues]))
    return scale * plus_dft[residues]


def rescale_truncate(kernel: CirculantKernel, dft_coeffs, band_limit: int) -> DiskSignal:
    """Truncate the alias coefficients at ``band_limit`` < N and undo the filter.

    Multiplying ahat_n by lhat_n/lambda_n recovers the bandlimited
    reconstruction exactly when the samples came from a signal of band limit
    <= band_limit.
    """
    n = kernel.n_samples
    band_limit = check_band_limit(band_limit, n_samples=n)
    coeffs = np.asarray(dft_coeffs, dtype=np.complex128)
    if coeffs.ndim != 1 or coeffs.size < band_limit + 1:
        raise ValueError(
            f"need at least {band_limit + 1} alias coefficients, got shape {coeffs.shape}"
        )
    return DiskSignal(kernel.twice_s, _undo_filter(kernel, band_limit) * coeffs[: band_limit + 1])


def _undo_filter(kernel: CirculantKernel, n_max: int) -> np.ndarray:
    """lhat_{n mod N} / lambda_n for n = 0..n_max, the inverse of the DFT filter."""
    idx = np.arange(n_max + 1)
    log_lam = np.asarray(kernel.spectrum.log_values(idx), dtype=np.float64)
    return np.exp(np.log(kernel.eigenvalues[idx % kernel.n_samples]) - log_lam)


def projector_element(kernel: CirculantKernel, m: int, n: int) -> float:
    """Matrix element <m|P|n> of the sampled-span projector in the coefficient basis:

        (lambda_m lambda_n)^(1/2) / lhat_{n mod N}   when m = n mod N, else 0.
    """
    m = check_index(m, "m")
    n = check_index(n, "n")
    n_s = kernel.n_samples
    if m % n_s != n % n_s:
        return 0.0
    log_lam = kernel.spectrum.log_values(np.array([m, n], dtype=np.int64))
    return float(np.exp(0.5 * (log_lam[0] + log_lam[1]) - np.log(kernel.eigenvalues[n % n_s])))


def tail_excess(spectrum: ResolutionSpectrum, n) -> np.ndarray | float:
    """Relative eigenvalue excess eps_n = (lhat_n - lambda_n)/lambda_n, n < N.

    Computed by its own ratio series

        eps_n = sum_{u>=1} lambda_{n+uN} / lambda_n,

    never by subtracting lhat - lambda, so it stays exact down to the
    underflow threshold (the difference cancels catastrophically once
    eps_n drops below machine epsilon).  Strictly decreasing in n.  A value
    beyond the double range raises ``OverflowError``; :func:`error_bound`
    reads eps_n in the log domain and has no such limit.
    """
    n_s = spectrum.grid.n_samples
    n_arr = np.array([check_index(v) for v in np.atleast_1d(n)], dtype=np.int64)
    if np.any(n_arr >= n_s):
        raise ValueError(f"n must satisfy 0 <= n < {n_s}")
    with np.errstate(over="ignore"):
        total = np.exp(_log_tail_excess(spectrum, n_arr))
    if np.isinf(total).any():
        raise OverflowError("tail-excess series exceeds the double range")
    if np.ndim(n) == 0:
        return float(total[0])
    return total


def _log_tail_excess(spectrum: ResolutionSpectrum, n: np.ndarray) -> np.ndarray:
    """log eps_n for a validated index array n < N."""
    tails = _log_class_tails(spectrum, n + spectrum.grid.n_samples, "tail-excess")
    return tails - spectrum.log_values(n)


def _log_class_tails(spectrum: ResolutionSpectrum, starts: np.ndarray, name: str) -> np.ndarray:
    """log sum_{q>=0} lambda_{start+qN} for each start: the spectrum mass at
    and above start in its residue class, of any size.

    lambda_m rises up to the mode floor((2s-1) r^2/(1-r^2)) and falls after
    it, so each class is summed outward from its peak: upward from its first
    index at or above the mode, and downward from the index below that to
    the start.  Both sides then fall term by term, as the truncation test of
    :func:`_series_sum` assumes, and every term is taken relative to the
    peak, so none overflows and the peak term itself is 1.
    """
    n_s = spectrum.grid.n_samples
    one_minus, _, r2, _ = _one_minus_mod2(spectrum.grid.radius)
    mode = np.floor((spectrum.twice_s - 1) * r2 / one_minus)
    rise = np.maximum(0, np.ceil((mode - starts) / n_s)).astype(np.int64)
    top = starts + rise * n_s
    down = np.flatnonzero(rise > 0)
    peak = spectrum.log_values(top)
    peak[down] = np.maximum(peak[down], spectrum.log_values(top[down] - n_s))
    # one row per class upward from top, one per class with terms below top downward
    first = np.concatenate([top, top[down] - n_s])[:, np.newaxis]
    step = np.concatenate([np.full(top.size, n_s), np.full(down.size, -n_s)])[:, np.newaxis]
    count = np.concatenate([np.full(top.size, np.iinfo(np.int64).max), rise[down]])
    count, shift = count[:, np.newaxis], np.concatenate([peak, peak[down]])[:, np.newaxis]

    def log_terms(q):
        inside = q < count
        log_lam = spectrum.log_values(np.where(inside, first + q * step, 0))
        return np.where(inside, log_lam - shift, -np.inf)

    sums = _series_sum(log_terms, series_tolerance(), name)
    total = sums[: top.size]
    total[down] += sums[top.size :]
    return peak + np.log(total)


def quasi_band_profile(signal: DiskSignal, band_limit: int) -> QuasiBandProfile:
    """Exact tail profile of a stored signal: eps^2 = tail energy / total energy."""
    band_limit = check_band_limit(band_limit)
    energies = np.abs(signal.coefficients) ** 2
    total = float(energies.sum())
    if total == 0.0:
        raise ValueError("zero signal has no quasi-bandlimited profile")
    tail = float(energies[band_limit + 1 :].sum())
    return QuasiBandProfile(band_limit=band_limit, epsilon_m=float(np.sqrt(tail / total)))


def alias_error(spectrum: ResolutionSpectrum, signal: DiskSignal) -> float:
    """Exact distance || psi - P psi || to the sampled-coherent-state span.

    The projector couples coefficients only within a residue class mod N, so
    with v the class coefficients, x_p = lambda_{j+pN}^(1/2), S = sum x_p^2,
    w = sum x_p v_p and T the lambda tail beyond the stored coefficients,

        E^2 = sum_j [ sum_p |v_p - x_p w_j/S_j|^2 + |w_j|^2 T_j / (S_j (S_j + T_j)) ]:

    per class, the residual of v against x plus the part of v along x that
    the tail takes away.  Every term is nonnegative, so the result keeps
    full relative precision even when the error is many orders below the
    signal norm (forming ||psi||^2 - <psi|P|psi> directly would cancel
    catastrophically there).  Each class term is homogeneous of degree 0 in
    lambda, so the class is scaled by its largest stored lambda and T enters
    as T/(S+T) from log T: S_j is then at least 1, and no class underflows or
    overflows however small or large its lambda mass.  Zero exactly when psi
    lies in the span of the N sampled coherent states.  Needs only the
    spectrum, not the kernel, and O(L + N) memory for L coefficients.
    """
    return float(np.sqrt(_alias_sums(spectrum, signal)[0]))


def _alias_sums(
    spectrum: ResolutionSpectrum, signal: DiskSignal
) -> tuple[float, float, float]:
    """(E^2, E^2 - ||psi||^2 eps_M^2, log ||P psi||^2) for band limit
    M = N-1, each without cancellation; E^2 is the class sum of
    :func:`alias_error`.

    The L stored coefficients are laid out as a zero-padded ceil(L/N) x
    min(N, L) matrix, column j holding class j, so every class quantity is
    one column reduction and the memory is O(L + N).  E^2 and the tail
    energy ||psi||^2 eps_M^2 share their leading digits when the alias
    error is mostly the signal's own tail, so their difference gets its own
    class sum.  With u_j = sum_{p>=1} x_p v_p and t_j = lhat_j - lambda_j
    (the stored x_p^2 beyond p = 0 plus T_j),

        E^2 - ||psi||^2 eps_M^2
            = sum_j (|v_0|^2 t_j - 2 x_0 Re(v_0 conj(u_j)) - |u_j|^2) / lhat_j.

    Every term is of the size of the class tail t_j.  Each class is scaled
    by the larger of its largest stored lambda and t_j, so nothing overflows
    or underflows.  The captured energy ||P psi||^2 = sum_j |w_j|^2 / lhat_j
    is summed in the log domain: near the rim it is ||psi||^2 - E^2 far
    below the double range.
    """
    if signal.twice_s != spectrum.twice_s:
        raise ValueError(
            f"signal twice_s {signal.twice_s} does not match spectrum twice_s {spectrum.twice_s}"
        )
    n, size = spectrum.grid.n_samples, signal.coefficients.size
    shape = (-(-size // n), min(n, size))
    pad = (0, shape[0] * shape[1] - size)
    v = np.pad(signal.coefficients, pad).reshape(shape)
    log_lam = np.pad(spectrum.log_values(np.arange(size)), pad, constant_values=-np.inf)
    log_lam = log_lam.reshape(shape)
    j = np.arange(shape[1])
    log_tail = _log_class_tails(spectrum, j + ((size - 1 - j) // n + 1) * n, "lambda tail")
    shift = np.max(log_lam, axis=0)
    x = np.exp(0.5 * (log_lam - shift))
    stored = np.sum(x * x, axis=0)
    w = np.sum(x * v, axis=0)
    residual = np.sum(np.abs(v - x * (w / stored)) ** 2, axis=0)
    # T/(S+T) and S/(S+T) from log(S/T), with S = stored e^shift and T = e^log_tail
    log_ratio = np.log(stored) + shift - log_tail
    projected = np.abs(w) ** 2 / stored
    error_sq = np.sum(residual + projected * np.exp(-np.logaddexp(0.0, log_ratio)))
    with np.errstate(divide="ignore"):
        log_captured = np.logaddexp.reduce(np.log(projected) - np.logaddexp(0.0, -log_ratio))
        log_t = np.logaddexp(np.log(np.sum(x[1:] * x[1:], axis=0)) + shift, log_tail)
    top = np.maximum(shift, log_t)
    y = x * np.exp(0.5 * (shift - top))
    t = np.exp(log_t - top)
    u = np.sum(y[1:] * v[1:], axis=0)
    v0, y0 = v[0], y[0]
    excess = np.abs(v0) ** 2 * t - 2.0 * y0 * (v0 * u.conj()).real - np.abs(u) ** 2
    return float(error_sq), float(np.sum(excess / (y0 * y0 + t))), float(log_captured)


def leading_order_bound(
    twice_s: int, radius: float, n_samples: int, epsilon_m: float, variant: str = "printed"
) -> float:
    """Leading-order normalized squared-error bound, two published variants.

    "printed":  eps_M^2 + sqrt(1-eps_M^2) eps_M sqrt(N) binom(2s+N-1, N)^(1/2) r^N
    "derived":  eps_M^2 + 2 sqrt(1-eps_M^2) eps_M sqrt(N) binom(2s+N-1, N) r^N

    The second is what the printed radius estimate implies when inverted; the
    two are mutually inconsistent by the factor 2 binom^(1/2) (see README).
    binom r^(2N) is taken as the pmf NB(N; 2s, 1-r^2) / (1-r^2)^(2s).
    """
    twice_s = check_twice_s(twice_s)
    radius = check_radius(radius)
    n = check_n_samples(n_samples)
    if not 0.0 <= epsilon_m < 1.0:
        raise ValueError(f"epsilon_m must lie in [0, 1), got {epsilon_m!r}")
    if epsilon_m == 0.0:
        return 0.0
    rim = _one_minus_mod2(radius)
    # log(binom^(1/2) r^N)
    log_half = 0.5 * (float(_log_pmf(twice_s, n, rim)) - twice_s * _log_one_minus_mod2(rim))
    log_common = (
        0.5 * np.log1p(-epsilon_m * epsilon_m)
        + np.log(epsilon_m)
        + 0.5 * np.log(n)
    )
    if variant == "printed":
        cross = np.exp(log_common + log_half)
    elif variant == "derived":
        cross = 2.0 * np.exp(log_common + 2.0 * log_half - n * np.log(radius))
    else:
        raise ValueError(f"variant must be 'printed' or 'derived', got {variant!r}")
    return float(epsilon_m * epsilon_m + cross)


def error_bound(
    spectrum: ResolutionSpectrum, profile: QuasiBandProfile, variant: str = "printed"
) -> ErrorBound:
    """Normalized squared-error bound for band limit M = N-1:

        eps_M^2 + (1-eps_M^2) eps_0/(1+eps_0)
                + 2 sqrt(1-eps_M^2) eps_M sqrt(N eps_0)/(1+eps_{N-1}).

    Only the critically-sampled band limit M = N-1 is accepted; the bound is
    not established for other M, so no extrapolation is offered.
    ``leading_order`` carries the single-power-of-r form (``variant`` selects
    which published variant, see :func:`leading_order_bound`).  Like
    :func:`alias_error` it reads only the spectrum; eps_0 and eps_{N-1} are
    taken in the log domain, so the bound answers where they leave the
    double range (large spin near the rim).
    """
    return _bound_terms(spectrum, profile, variant)[0]


def _bound_terms(
    spectrum: ResolutionSpectrum, profile: QuasiBandProfile, variant: str
) -> tuple[ErrorBound, tuple[float, float, float]]:
    """(:func:`error_bound`, (A + C, log C, log D)): the bound's pieces for
    :func:`_error_row`'s comparison with the exact error,

        A = (1-eps_M^2) eps_0/(1+eps_0),  C = the cross term,
        D = (1-eps_M^2)/(1+eps_0),  bound = eps_M^2 + A + C = 1 - D + C.

    eps/(1+eps) = exp(log eps - log(1+eps)), so nothing overflows; each
    exponent is formed from the differences of the large logs first, so it
    keeps its absolute accuracy.
    """
    n = spectrum.grid.n_samples
    if profile.band_limit != n - 1:
        raise ValueError(
            f"error bound requires band_limit = n_samples - 1 = {n - 1}, "
            f"got {profile.band_limit}"
        )
    em = profile.epsilon_m
    em2 = em * em
    log_eps0, log_eps_last = _log_tail_excess(spectrum, np.array([0, n - 1]))
    log_cross = 0.5 * (np.log(n) + log_eps0) - np.logaddexp(0.0, log_eps_last)
    excess = float(
        (1.0 - em2) * np.exp(log_eps0 - np.logaddexp(0.0, log_eps0))
        + 2.0 * np.sqrt(1.0 - em2) * em * np.exp(log_cross)
    )
    log_rest = np.log1p(-em2)
    with np.errstate(divide="ignore"):
        log_c = float(np.log(2.0 * em) + 0.5 * log_rest + log_cross)
    log_d = float(log_rest - np.logaddexp(0.0, log_eps0))
    leading = leading_order_bound(spectrum.twice_s, spectrum.grid.radius, n, em, variant)
    return ErrorBound(value=float(em2 + excess), leading_order=leading), (excess, log_c, log_d)


def _error_row(
    spectrum: ResolutionSpectrum, signal: DiskSignal, profile: QuasiBandProfile, variant: str
) -> tuple[float, ErrorBound, tuple[float, float]]:
    """One error-analysis row: (exact normalized squared error,
    :func:`error_bound`, (m, L)) with bound - exact = m e^L, so the bound
    holds where m >= 0.  For eps_0 up to about 1, m compares bound - eps_M^2
    = A + C with exact - eps_M^2, terms of the size of the lambda tails
    (L = 0).  Beyond, it compares 1 - exact = ||P psi||^2/||psi||^2 with
    1 - bound = D - C, terms of the size of D, far below the double range
    near the rim; with Q = ||P psi||^2/||psi||^2 + C, L is the larger of
    log Q and log D.  Either way nothing that bound and exact share
    (eps_M^2, or the 1) is subtracted.
    """
    error_sq, exact_excess, log_captured = _alias_sums(spectrum, signal)
    bound, (excess, log_c, log_d) = _bound_terms(spectrum, profile, variant)
    norm_sq = signal.norm_squared
    exact = error_sq / norm_sq
    if excess <= np.exp(log_d):
        return exact, bound, (float(excess - exact_excess / norm_sq), 0.0)
    log_q = float(np.logaddexp(log_captured - np.log(norm_sq), log_c))
    if log_q >= log_d:
        return exact, bound, (float(-np.expm1(log_d - log_q)), log_q)
    return exact, bound, (float(np.expm1(log_q - log_d)), log_d)


def max_radius_estimate(
    twice_s: int,
    n_samples: int,
    epsilon: float,
    epsilon_m: float,
    variant: str = "printed",
) -> RadiusEstimate:
    """Analytic upper estimate of the ring radius keeping the error below epsilon.

    "printed" variant (default):

        r <= ((eps^2 - eps_M^2) / (2 sqrt((1-eps_M^2) N) eps_M binom(2s+N-1, N)))^(1/N)

    "derived" solves the leading-order printed bound instead (drops the
    factor 2, square-roots the binomial).  Computed in the log domain and
    clamped to 1.0 with ``clamped=True`` when the raw value is >= 1.
    """
    twice_s = check_twice_s(twice_s)
    n = check_n_samples(n_samples)
    if not 0.0 <= epsilon_m < 1.0:
        raise ValueError(f"epsilon_m must lie in [0, 1), got {epsilon_m!r}")
    if not epsilon > epsilon_m:
        raise ValueError(
            f"target epsilon {epsilon!r} must exceed the tail epsilon_m {epsilon_m!r}"
        )
    if epsilon_m == 0.0:
        return RadiusEstimate(value=1.0, clamped=True)
    lb = log_binomial(twice_s, n)
    log_num = np.log(epsilon * epsilon - epsilon_m * epsilon_m)
    log_half_den = 0.5 * (np.log1p(-epsilon_m * epsilon_m) + np.log(n)) + np.log(epsilon_m)
    if variant == "printed":
        log_den = np.log(2.0) + log_half_den + lb
    elif variant == "derived":
        log_den = log_half_den + 0.5 * lb
    else:
        raise ValueError(f"variant must be 'printed' or 'derived', got {variant!r}")
    raw_log = (log_num - log_den) / n
    if raw_log >= 0.0:
        return RadiusEstimate(value=1.0, clamped=True)
    return RadiusEstimate(value=float(np.exp(raw_log)), clamped=False)


def band_projection_curve(twice_s: int, band_limit: int, radius) -> np.ndarray | float:
    """Ring expectation of the band-limit projector:

        P(r) = (1-r^2)^(2s) sum_{m=0}^{M} binom(2s+m-1, m) r^(2m),

    equal to 1 at r = 0, monotone non-increasing on [0, 1), and dropping
    through 1/2 near the critical radius when s and M are large.  Accepts a
    scalar or array radius in [0, 1); each term is the pmf NB(m; 2s, 1-r^2),
    summed in the log domain relative to its largest term, so s and M in the
    thousands are fine.
    """
    twice_s = check_twice_s(twice_s)
    band_limit = check_band_limit(band_limit)
    r_arr = np.atleast_1d(np.asarray(radius, dtype=np.float64))
    if np.any(r_arr < 0.0) or np.any(r_arr >= 1.0):
        raise ValueError("radius must lie in [0, 1)")
    m = np.arange(band_limit + 1, dtype=np.float64)
    log_terms = _log_pmf(twice_s, m[np.newaxis, :], _one_minus_mod2(r_arr[:, np.newaxis]))
    peak = np.max(log_terms, axis=1)
    out = np.exp(peak) * np.sum(np.exp(log_terms - peak[:, np.newaxis]), axis=1)
    if np.isscalar(radius) or np.asarray(radius).ndim == 0:
        return float(out[0])
    return out.reshape(np.asarray(radius).shape)


def critical_radius(twice_s: int, band_limit: int) -> float:
    """Transition radius r_c = (1 + (2s-1)/M)^(-1/2) of the projection curve."""
    twice_s = check_twice_s(twice_s)
    band_limit = check_band_limit(band_limit)
    if band_limit < 1:
        raise ValueError(f"band limit must be >= 1, got {band_limit!r}")
    return float((1.0 + (twice_s - 1.0) / band_limit) ** -0.5)
