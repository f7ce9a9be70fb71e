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

Numerical policy: one outward scan of the spectrum by residue,
:func:`_log_class_tails`, sums every class tail in doubles: each lhat_j, kept
as the log that every transform reads (none re-logs or divides by a rounded
lhat_j) and checked as :class:`CirculantKernel` states, and the error
analysis's tails, so eps_n = (lhat_n - lambda_n)/lambda_n needs no subtraction.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS, basis
from .basis import (
    DiskSignal,
    ResolutionSpectrum,
    SamplingGrid,
    _log_pmf,
    _log_ring_weights,
    _mode,
    _one_minus_mod2,
    _overlap,
    _pointwise,
    _ring_dft,
    _scalar_or_array,
    _segment_rows,
    _two_sum,
    log_binomial,
)
from .validation import (
    CONDITION_LIMIT,
    ConditioningWarning,
    EigenvalueCrossCheckError,
    SeriesBudgetError,
    _Conditioned,
    _parse,
    _read_only,
    _refuse,
    as_disk_points,
    as_samples,
    check_band_limit,
    check_epsilon_m,
    check_grid_index,
    check_index,
    check_indices,
    check_n_samples,
    check_radius,
    check_twice_s,
    from_log,
    in_range,
    times_exp,
)

__all__ = list(_EXPORTS["undersampled"])

_EIG_AGREE_RTOL = 1e-12
_UNIT_ROUNDOFF = 2.0**-53
_MAX_TERMS = 1_600_000
_SCAN_BLOCK = 4096
_SERIES_TOL = 1e-16
_SUM_BITS = 100
_LN2_HIGH, _LN2_LOW = 6.93147180369123816490e-01, 1.90821492927058770002e-10


@dataclass(frozen=True)
class CirculantKernel(_Conditioned):
    """Sampled reproducing-kernel operator B in circulant form, built from
    (twice_s, grid) alone.

    It stores one form of the spectrum: ``log_eigenvalues`` log lhat_j, the
    class tails as summed, which every transform reads, beside the
    ``spectrum``.  ``first_row`` C_0..C_{N-1}, with B[k, l] = C[(l-k) mod N],
    and ``eigenvalues`` lhat_j (``from_log``: refused by name past the range)
    are views taken on each read.  lhat_j is checked against the row's float64
    FFT at 1e-12 relative, or to :func:`_fft_error_bound` where larger, as
    where lhat_j underflows, and where that is not below half of 1e-12 at some
    lhat_j, the smallest by :func:`_finite_sum_log_gap` at 1e-12, or at one
    ulp of its log past 8192.  Only a failed check refuses a kernel.
    Immutable, its arrays read-only, and safe to share across threads.
    """

    twice_s: int
    grid: SamplingGrid
    log_eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    spectrum: ResolutionSpectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spectrum = ResolutionSpectrum(self.twice_s, self.grid)  # checks twice_s, then grid
        twice_s, grid = spectrum.twice_s, self.grid
        row, one_minus, d = _first_row(twice_s, grid)
        log_eig = _read_only(_log_class_tails(spectrum, np.arange(grid.n_samples), "eigenvalue"))
        eig, smallest = np.exp(log_eig), int(np.argmin(log_eig))
        bound = _fft_error_bound(twice_s, grid, row, one_minus, d)
        limit = np.maximum(_EIG_AGREE_RTOL * eig, bound)
        miss = np.abs(np.fft.fft(row) - eig)
        j = int(np.argmax(miss / limit))
        if not miss[j] <= limit[j]:  # absolute where lhat_j is no normal double
            size, unit = (eig[j], "relative") if eig[j] >= 2.0**-1022 else (1.0, "absolute")
            raise _disagreement("fft", j, float(miss[j] / size), float(limit[j] / size), unit)
        if bound >= 0.5 * _EIG_AGREE_RTOL * eig[smallest]:
            log_size = float(log_eig[smallest])
            gap = float(abs(np.expm1(_finite_sum_log_gap(twice_s, grid, smallest, log_size))))
            limit = max(_EIG_AGREE_RTOL, math.ulp(log_size))
            if not gap <= limit:
                raise _disagreement("finite sum", smallest, gap, limit)
        object.__setattr__(self, "twice_s", twice_s)
        object.__setattr__(self, "log_eigenvalues", log_eig)
        object.__setattr__(self, "spectrum", spectrum)

    _log_spectrum = property(lambda self: self.log_eigenvalues)
    first_row = property(lambda self: _first_row(self.twice_s, self.grid)[0])
    eigenvalues = property(lambda self: _read_only(from_log(self.log_eigenvalues, "lhat")))


@dataclass(frozen=True)
class QuasiBandProfile:
    """Band limit M plus the relative tail amplitude eps with tail energy <= eps^2."""

    band_limit: int
    epsilon_m: float

    def __post_init__(self):
        object.__setattr__(self, "band_limit", check_band_limit(self.band_limit))
        object.__setattr__(self, "epsilon_m", check_epsilon_m(self.epsilon_m))


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


def _first_row(twice_s: int, grid: SamplingGrid) -> tuple[np.ndarray, float, np.ndarray]:
    """(C, 1-r^2, d): the first row C_l = ((1-r^2)/d_l)^(2s), read-only, with
    d_l = 1 - r^2 e^(i theta_l) taken as (1-r^2) + 2 r^2 sin^2(theta_l/2) -
    i r^2 sin(theta_l), which does not cancel near theta_l = 0 (C_0 = 1 exactly)."""
    one_minus, _, r2, _ = _one_minus_mod2(grid.radius)
    ang = grid.angles
    half_sin = np.sin(0.5 * ang)
    d = one_minus + 2.0 * r2 * half_sin * half_sin - 1j * r2 * np.sin(ang)
    return _read_only((one_minus / d) ** twice_s), one_minus, d


def _fft_error_bound(twice_s: int, grid: SamplingGrid, row: np.ndarray, one_minus, d) -> float:
    """Bound on |fft(row)_j - lhat_j|, every j, to first order in the unit
    roundoff u, for the row :func:`_first_row` raises from (1-r^2, d).

    The row: C_l = b_l^(2s), b_l = (1-r^2)/d_l.  theta_0 = 0 makes d_0 =
    1-r^2 and b_0 = 1, so C_0 = 1 exactly.  For l >= 1, b_l is within 27u:
    1-r^2 and r^2 round once, sin within 4 ulps (8u, the vectorised bound),
    the products and the sum in d_l add 3u, Smith's division 6u.  The angle
    2 pi l/N is off by 2.4u theta_l (two roundings and pi's), which moves
    d_l by r^2 times that: 2.4u r^2 theta_l/|d_l|, up to N times more near
    theta_l = 2 pi.  The power scales b_l's error by 2s and adds its own:
    numpy's binary powering below 2s = 100 (at most 2 * 2s products, sqrt(5) u
    each) or libm's cexp(2s clog b_l) (2s 6|log b_l| u + 5u).  Counting both,
    |delta C_l| <= |C_l| u (2s (32 + 2.4 r^2 theta_l/|d_l| + 6|log b_l|) + 5),
    and each output moves by at most sum_{l>=1} |delta C_l|.  The FFT's
    rounding is within log2(M) eta ||fft C||_2 in norm (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 24.2; eta < 6.7u a stage), taken
    thrice for Bluestein's three transforms of length M < 4N; ||fft C||_2 =
    sqrt(N) ||C||_2 bounds every output.  A worst case: the FFT errs far less.
    """
    d = d[1:]
    slope = grid.radius**2 * grid.angles[1:] / np.abs(d)
    log_base = np.abs(np.log(one_minus / d))
    per_entry = twice_s * (32.0 + 2.4 * slope + 6.0 * log_base) + 5.0
    row_error = np.sum(np.abs(row[1:]) * per_entry)
    fft_error = 20.0 * np.log2(4 * row.size) * np.sqrt(row.size * np.sum(np.abs(row) ** 2))
    return float(_UNIT_ROUNDOFF * (row_error + fft_error))


def _finite_sum_log_gap(twice_s: int, grid: SamplingGrid, j: int, log_size: float) -> float:
    """log_size - log lhat_j for lhat_j = N ((1-y)/(1-Y))^(2s) sum_{k<2s}
    c(j+kN) y^(j+kN), y = r^2, Y = y^N, where c(t) = sum_i (-1)^i binom(2s, i)
    binom(t-iN+2s-1, 2s-1), the ways 2s parts in 0..N-1 add to t, is exact.
    It reads neither the row nor the spectrum; ``log_size`` enters last.

    y = num^2 2^-e is exact; other factors are B-bit mantissas with exact
    binary exponents, floored once a product (d = 2^(1-B)).  To first order,
    with 2^-P = 2^-100 < 1e-30: y^e is within 2e d and (1-Y)^(2s) within
    4s (N/(1-Y) + 1) d; c stops at a part below 2^-P of its partial sums,
    which alternate about it (Bonferroni).  The terms follow the log-concave
    law of a sum of 2s geometrics cut to 0..N-1: summed outward from its
    mean, no side stops while rising, one that stops at 2s t < 2^-P of the
    total leaves under 2s terms below t, and the fixed-point unit, under
    2^(1-P)/(2s) of the first term, loses under 2 2^-P.  B = P + 1 +
    bitlen(10 2s N) + bits of 1/(1-y) >= 1/(1-Y) leaves lhat_j within 6 2^-P.
    The exponent times ln 2, in fdlibm's split (exact for lhat above
    e^-1.4e6), and the log of a mantissa in [1, 2) sum exactly: the result
    is within 3u + 6 2^-P (u = 2^-53).  Construction's limit, max(1e-12,
    ulp(log_size)), allows the half ulp a rounded log may be off by, 9.1e-13
    past |log| = 8192, with room for its own error; below 8192 it is 1e-12.
    """
    n, m = grid.n_samples, twice_s
    num, den = grid.radius.as_integer_ratio()
    scale = 2 * den.bit_length() - 2
    bits = _SUM_BITS + (10 * m * n).bit_length() + scale - (den * den - num * num).bit_length() + 2
    binom = functools.cache(lambda q: math.comb(j + q * n + m - 1, m - 1))

    def power(x, e):  # x^e, x = (mantissa, exponent): square and multiply from the top bit
        value, exponent = 1, 0
        for bit in bin(e)[2:]:
            factor = x if bit == "1" else (1, 0)
            value, exponent = value * value * factor[0], 2 * exponent + factor[1]
            drop = max(0, value.bit_length() - bits)
            value, exponent = value >> drop, exponent + drop
        return value, exponent

    y, log_y = (num * num, -scale), 2.0 * math.log(grid.radius)
    odds = [math.exp(x) / -math.expm1(x) for x in (log_y, n * log_y)]  # y/(1-y), Y/(1-Y)
    start = min(m - 1, max(0, round((m * (odds[0] - n * odds[1]) - j) / n)))
    total, unit = 0, None
    for ks in (range(start, m), range(start - 1, -1, -1)):
        for k in ks:
            c = 0
            for i in range(min(k, m) + 1):
                part = math.comb(m, i) * binom(k - i)
                if part <= c >> _SUM_BITS:
                    break
                c += -part if i & 1 else part
            t, e = power(y, j + k * n)
            t *= c
            unit = e + t.bit_length() - _SUM_BITS - m.bit_length() if unit is None else unit
            t = t << e - unit if e >= unit else t >> unit - e
            total += t
            if m * t < total >> _SUM_BITS:
                break
    big_y = power(y, n)
    top = power(((1 << scale) - num * num, -scale), m)
    bottom = power(((1 << -big_y[1]) - big_y[0], big_y[1]), m)
    quotient = (n * top[0] * total << bits + bottom[0].bit_length()) // bottom[0]
    size = quotient.bit_length() - 1
    exponent = top[1] + unit - bottom[1] - bits - bottom[0].bit_length() + size
    return math.fsum((log_size, -exponent * _LN2_HIGH, -exponent * _LN2_LOW,
                      -math.log(quotient / (1 << size))))


def _disagreement(check: str, j: int, gap: float, limit: float,
                  unit: str = "relative") -> EigenvalueCrossCheckError:
    message = (f"class-tail and {check} values of eigenvalue {j} disagree by {gap!r} {unit} "
               f"(limit {limit!r}); this indicates an implementation fault")
    return EigenvalueCrossCheckError(message, j=j, gap=gap, check=check)


def overlap_kernel(twice_s: int, grid: SamplingGrid) -> CirculantKernel:
    """The checked circulant Gram kernel for (twice_s, grid): :class:`CirculantKernel`."""
    return CirculantKernel(twice_s, grid)


def dual_weights(kernel: CirculantKernel, samples) -> np.ndarray:
    """Apply B^-1 = F diag(1/lhat) F^-1 to a sample vector: the samples' DFT d
    (``basis._ring_dft``) times exp(-log lhat) by ``times_exp``, then one FFT.
    Warns with :class:`ConditioningWarning` on an ill-conditioned kernel; a
    d_j/lhat_j or weight beyond the double range raises ``NumericalRangeError``."""
    values = as_samples(samples, kernel.n_samples)
    if kernel.is_ill_conditioned:
        warnings.warn(f"kernel condition number {kernel.condition_number:.3e} exceeds "
                      f"{CONDITION_LIMIT:.0e}; dual weights lose up to all digits",
                      ConditioningWarning, stacklevel=2)
    d = _ring_dft(values, kernel.n_samples - 1)
    quotient = times_exp(d, -kernel.log_eigenvalues, "d/lhat")
    return in_range(np.fft.fft, quotient, "w")


def dual_sinc_kernel(kernel: CirculantKernel, k: int, z):
    """Dual-frame interpolating kernel XiHat_k(z) = sum_l (B^-1)[l, k] <z|z_l>.

    The partial reconstruction of the unit sample vector e_k, since
    ``dual_weights`` of e_k is column k of B^-1.  Satisfies
    XiHat_k(z_l) = delta_kl on the grid.
    """
    unit = np.eye(1, kernel.n_samples, check_grid_index(k, kernel.n_samples))[0]
    return partial_reconstruct(kernel, unit, z)


def partial_reconstruct(kernel: CirculantKernel, samples, z):
    """Evaluate the alias sum_k XiHat_k(z) Psi(z_k) at point(s) z.

    The alias is the orthogonal projection of the signal onto the span of the
    N sampled coherent states; it interpolates the samples exactly.  It is
    sum_l w_l <z|z_l> with w the :func:`dual_weights`, summed by ``np.einsum``,
    not a BLAS product, whose rounding depends on the number of points in the
    block.  z is checked once, and each block's overlaps are taken unchecked.
    A sum beyond the double range raises ``NumericalRangeError`` (value_j).
    """
    weights = dual_weights(kernel, samples)
    points, z_arr = kernel.grid.points[np.newaxis, :], as_disk_points(z)

    def sums(w):
        return _pointwise(lambda block: np.einsum(
            "qn,n->q", _overlap(kernel.twice_s, block[:, np.newaxis], points), w
        ), z_arr.ravel())

    return _scalar_or_array(in_range(sums, weights, "value"), z_arr)


def dft_coefficients(kernel: CirculantKernel, samples, n_max: int) -> np.ndarray:
    """Filtered DFT coefficients of the alias:

        ahat_n = (lambda_n^(1/2) / lhat_{n mod N}) (1/sqrt(N)) sum_k e^{2 pi i n k / N} Psi(z_k)
               = N U_n(r) d_{n mod N} / lhat_{n mod N}.

    One DFT of the samples, ``basis._ring_dft``, serves every n; coefficients
    repeat across residue classes up to the factor sqrt(lambda_{n+pN}/lambda_n).
    A coefficient beyond the double range raises ``NumericalRangeError`` (ahat_n).
    """
    n_max, n = check_index(n_max, "n_max"), kernel.n_samples
    log_weights = _log_ring_weights(kernel.twice_s, kernel.grid.radius, n_max + 1)
    log_eig = kernel.log_eigenvalues[np.arange(n_max + 1) % n]
    d = _ring_dft(as_samples(samples, n), n_max)
    return times_exp(d, np.log(n) + log_weights - log_eig, "ahat")


def rescale_truncate(kernel: CirculantKernel, dft_coeffs, band_limit: int) -> DiskSignal:
    """Truncate the alias coefficients at ``band_limit`` < N and undo the filter.

    Multiplying ahat_n by lhat_n/lambda_n, in one exponent, recovers the
    bandlimited reconstruction exactly when the samples came from a signal of
    band limit <= band_limit.  Where that factor leaves the double range, a
    zero or subnormal ahat_n has lost its digits: ``NumericalRangeError``.
    A NaN or infinite ahat_n raises ``ValueError``.
    """
    band_limit = check_band_limit(band_limit, n_samples=kernel.n_samples)
    coeffs = _parse(dft_coeffs, "alias coefficients", "complex numbers", dtype=complex)
    if coeffs.ndim != 1 or coeffs.size < band_limit + 1:
        raise ValueError(f"need at least {band_limit + 1} alias coefficients, "
                         f"got shape {coeffs.shape}")
    coeffs = coeffs[: band_limit + 1]
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("alias coefficients must be finite")
    idx = np.arange(band_limit + 1)
    log_factor = kernel.log_eigenvalues[idx] - kernel.spectrum.log_values(idx)
    beyond = log_factor > np.log(np.finfo(np.float64).max)
    lost = beyond & (np.abs(coeffs) < np.finfo(np.float64).tiny)
    _refuse(lost, log_factor, "ahat", "has lost its digits: lhat/lambda leaves the double "
            "range; rescale from the samples with fourier_coefficients")
    return DiskSignal(kernel.twice_s, times_exp(coeffs, log_factor, "rescaled ahat"))


def projector_element(kernel: CirculantKernel, m: int, n: int) -> float:
    """Matrix element <m|P|n> of the sampled-span projector in the coefficient basis:

        (lambda_m lambda_n)^(1/2) / lhat_{n mod N}   when m = n mod N, else 0.
    """
    m, n = check_index(m, "m"), check_index(n, "n")
    n_s = kernel.n_samples
    if m % n_s != n % n_s:
        return 0.0
    log_lam = kernel.spectrum.log_values(np.array([m, n], dtype=np.int64))
    return float(np.exp(0.5 * (log_lam[0] + log_lam[1]) - kernel.log_eigenvalues[n % n_s]))


def tail_excess(spectrum: ResolutionSpectrum, n) -> np.ndarray | float:
    """Relative eigenvalue excess eps_n = (lhat_n - lambda_n)/lambda_n, n < N.

    eps_n = sum_{u>=1} lambda_{n+uN}/lambda_n, the class tail from n + N
    over lambda_n, never lhat - lambda, which cancels catastrophically once
    eps_n drops below machine epsilon, so it is exact down to the underflow
    threshold; strictly decreasing in n.  It comes through
    ``validation.times_exp``: a value beyond the double range raises
    ``NumericalRangeError`` naming eps_n by its n, with its log, and one
    below it is 0; :func:`error_bound` reads eps_n in the log domain.
    """
    n_s = spectrum.grid.n_samples
    n_arr = np.ravel(check_indices(n))
    if np.any(n_arr >= n_s):
        raise ValueError(f"n must satisfy 0 <= n < {n_s}")
    log_eps = _log_tail_excess(spectrum, n_arr.astype(np.int64))
    return _scalar_or_array(times_exp(np.ones(n_arr.size), log_eps, "eps", n_arr), n)


def _log_tail_excess(spectrum: ResolutionSpectrum, n: np.ndarray) -> np.ndarray:
    """log eps_n for a validated index array n < N."""
    tails = _log_class_tails(spectrum, n + spectrum.grid.n_samples, "tail-excess")
    return tails - spectrum.log_values(n)


def _log_class_tails(spectrum: ResolutionSpectrum, starts: np.ndarray, name: str) -> np.ndarray:
    """log sum_{q>=0} lambda_{start+qN} for each start, of any size (the
    starts lie in one window of N indices; a repeat is summed once).

    One scan sums every class: row q holds entry qN + (start mod N) of each
    class from its start on.  Rows are read down to a stop, then up, from the
    three rows about the :func:`~basis._mode` (or the lowest start above it),
    which hold each class's largest term, to which every term is relative.
    A direction stops once, in every class, the geometric majorant t R/(1-R)
    (t the last term, R its ratio to the one before; the pmf is log-concave)
    is below 1e-16 of the running sum; chunks end where the pmf's closed form
    (``math.lgamma``) predicts that stop.  A direction may read ``_MAX_TERMS``
    rows, below index 2^52: ``SeriesBudgetError`` is raised where one ends
    them unstopped, and, before any row is read, where lambda_m
    rho^N/(1-rho^N) >= 1e-16 N/K at the last index m the upward budget
    reaches (rho the pmf's ratio there): that bounds the majorants there from
    below, the pmf falls faster below its mode, and K class sums total <= N.
    Chunks of R <= 2^12 rows are summed pairwise and carried by
    ``basis._two_sum``: a class sum is within (ceil(log2 R) + 1) u, u = 2^-53,
    of the sum of its rounded terms, and its unread terms below 2e-16 of it.
    """
    n, twice_s, log_y = spectrum.grid.n_samples, spectrum.twice_s, math.log(spectrum._rim[2])
    starts, inverse = np.unique(starts, return_inverse=True)
    centre = int(max(_mode(twice_s, spectrum._rim), starts[0]) // n)
    residues, top = starts % n, (centre + _MAX_TERMS) * n - 1
    offset = math.log(n) - math.lgamma(twice_s) + twice_s * math.log(spectrum._rim[0])

    def log_majorant(log_t, m, sign):  # log t R/(1-R), R = rho^N, rho the pmf's ratio past m
        lr = sign * (log_y + math.log1p((twice_s - 1) / (m + (sign > 0))))
        return log_t + n * lr - math.log(-math.expm1(n * lr)) if lr < 0.0 else math.inf

    def read(rows):  # log lambda over the rows, -inf before each class's start
        index = rows[:, np.newaxis] * n + residues
        logs = [spectrum.log_values(np.maximum(index.flat[i : i + _SCAN_BLOCK], 0))
                for i in range(0, index.size, _SCAN_BLOCK)]
        return np.where(index >= starts, np.concatenate(logs).reshape(index.shape), -np.inf)

    def add(terms):  # pairwise over the rows, then carried with its rounding error
        while len(terms) > 1:
            half = len(terms) // 2
            terms = np.concatenate((terms[:half] + terms[half : 2 * half], terms[2 * half :]))
        sums[0], error = _two_sum(sums[0], terms[0])
        sums[1] += error

    def stopped(term, before):  # every class's majorant below 1e-16 of its running sum
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = term / before
            return np.all((term == 0.0) | (term * ratio < _SERIES_TOL * sums[0] * (1.0 - ratio)))

    if top >= 2**52 or log_majorant(spectrum.log_values(top), top, 1) >= math.log(
            _SERIES_TOL * n / starts.size):
        raise SeriesBudgetError(name, _MAX_TERMS)
    logs = read(np.arange(centre - 1, centre + 2))
    peak, sums = logs.max(axis=0), np.zeros((2, starts.size))
    add(terms := np.exp(logs - peak))
    for sign, last, limit, term, before in (
            (-1, centre - 1, max(starts[0] // n - 1, centre - _MAX_TERMS), terms[0], terms[1]),
            (1, centre + 1, centre + _MAX_TERMS - 1, terms[2], terms[1])):
        while not stopped(term, before):
            if last == limit:
                raise SeriesBudgetError(name, _MAX_TERMS)
            log_bound = math.log(_SERIES_TOL) + float(np.min(peak + np.log(sums[0])))
            low, high = 1, abs(limit - last)
            while low < high:  # the fewest rows to the stop, by the pmf's closed form
                mid = (low + high) // 2
                m = (last + sign * mid) * n + (n - 1) * (sign < 0)
                log_t = offset + math.lgamma(twice_s + m) - math.lgamma(m + 1) + m * log_y
                passed = log_majorant(log_t, m - sign * n, sign) < log_bound
                low, high = (low, mid) if passed else (mid + 1, high)
            rows = last + sign * np.arange(1, min(low, max(1, _SCAN_BLOCK // starts.size)) + 1)
            add(terms := np.exp(read(rows) - peak))
            last, term, before = rows[-1], terms[-1], np.vstack((term, terms))[-2]
    return (peak + np.log(sums[0] + sums[1]))[inverse]


def quasi_band_profile(signal: DiskSignal, band_limit: int) -> QuasiBandProfile:
    """Exact tail profile of a stored signal: eps^2 = tail energy / total
    energy, taken from the power-of-two scaled coefficients, so that it
    holds for coefficients of any finite size."""
    band_limit = check_band_limit(band_limit)
    energies = signal._scaled[2]
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
    return float(signal._scaled[0] * np.sqrt(_alias_sums(spectrum, signal)[0]))


def _alias_sums(spectrum: ResolutionSpectrum,
                signal: DiskSignal) -> tuple[float, float, float, np.ndarray]:
    """(E^2, G, log ||P psi||^2/||psi||^2, (log eps_0, log eps_{N-1})) for
    band limit M = N-1, each without cancellation, of the signal divided by
    its power-of-two scale (``DiskSignal._scaled``); E^2 is the class sum of
    :func:`alias_error`, which scales it back.

    The L stored coefficients are laid out as a zero-padded ceil(L/N) x
    min(N, L) matrix, column j holding class j, so every class quantity is
    one column reduction and the memory is O(L + N).  G is the gap
    ||psi||^2 A - (E^2 - ||psi||^2 eps_M^2) between the bound's tail term
    A = (1-eps_M^2) eps_0/(1+eps_0) and the exact error, each less the tail
    energy that they share.  With u_j = sum_{p>=1} x_p v_p, t_j = lhat_j -
    lambda_j (T_j plus the stored lambda_{j+pN}, p >= 1, summed by their
    logs), g_j = t_j/lhat_j = eps_j/(1+eps_j), ||psi||^2 (1-eps_M^2) = sum_j |v_0|^2,

        G = sum_j [|v_0|^2 (g_0 - g_j) + (2 x_0 Re(v_0 conj(u_j)) + |u_j|^2) / lhat_j].

    Every term is of the size of the class tail t_j, and class 0's first
    part is exactly 0, so G is 0 where the signal is a_0 alone and the bound
    is met with equality.  Each class is scaled by the larger of its largest
    stored lambda and t_j, so nothing overflows or underflows.  The
    captured share ||P psi||^2/||psi||^2 = sum_j |w_j|^2 / (lhat_j ||psi||^2)
    is summed in the log domain: near the rim it is 1 - E^2/||psi||^2 far
    below the double range; the eps are t_j/lambda_j of the first and last class.
    """
    if signal.twice_s != spectrum.twice_s:
        raise ValueError(f"signal twice_s {signal.twice_s} does not match spectrum twice_s "
                         f"{spectrum.twice_s}")
    n, size = spectrum.grid.n_samples, signal.coefficients.size
    v = _segment_rows(signal._scaled[1], min(n, size))
    log_lam = _segment_rows(spectrum.log_values(np.arange(size)), min(n, size), -np.inf)
    j = np.arange(v.shape[1])
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
    share = projected / signal._scaled[2].sum()
    with np.errstate(divide="ignore"):
        log_captured = np.logaddexp.reduce(np.log(share) - np.logaddexp(0.0, -log_ratio))
    tails = np.vstack((log_lam[1:], log_tail))  # t_j's terms, relative to its largest
    log_t = (peak := np.max(tails, axis=0)) + np.log(np.sum(np.exp(tails - peak), axis=0))
    top = np.maximum(shift, log_t)
    y = x * np.exp(0.5 * (shift - top))
    t = np.exp(log_t - top)
    u = np.sum(y[1:] * v[1:], axis=0)
    v0, lhat = v[0], y[0] * y[0] + t
    gap = np.abs(v0) ** 2 * (t[0] / lhat[0] - t / lhat)
    gap += (2.0 * y[0] * (v0 * u.conj()).real + np.abs(u) ** 2) / lhat
    # the last class is N-1 if L >= N; if L <= N, eps_M = 0, so C, eps_{N-1}'s only reader, is 0
    return float(error_sq), float(np.sum(gap)), float(log_captured), (log_t - log_lam[0])[[0, -1]]


def leading_order_bound(
    twice_s: int, radius: float, n_samples: int, epsilon_m: float, variant: str = "printed"
) -> float:
    """Leading-order normalized squared-error bound eps_M^2 + c r^N, two
    published variants of the cross term (:func:`_log_cross_coefficient`):

    "printed":  c = sqrt(1-eps_M^2) eps_M sqrt(N) binom(2s+N-1, N)^(1/2)
    "derived":  c = 2 sqrt(1-eps_M^2) eps_M sqrt(N) binom(2s+N-1, N)

    The second is what the printed radius estimate implies when inverted; the
    two are mutually inconsistent by the factor 2 binom^(1/2) (see README).
    A cross term beyond the double range raises ``NumericalRangeError``."""
    radius = check_radius(radius)
    log_c, n, epsilon_m = _log_cross_coefficient(twice_s, n_samples, epsilon_m, variant, "printed")
    cross = times_exp(np.ones(1), np.array([log_c + n * np.log(radius)]), "cross term")
    return float(epsilon_m * epsilon_m + cross[0])


def _log_cross_coefficient(
    twice_s: int, n_samples: int, epsilon_m: float, variant: str, half_variant: str
) -> tuple[float, int, float]:
    """(log c, N, eps_M), the last two as parsed: log c of the cross term
    c r^N, -inf where eps_M = 0 and there is none, with c = sqrt(1-eps_M^2)
    eps_M sqrt(N) binom(2s+N-1, N)^(1/2) for ``half_variant``, twice that
    times binom^(1/2) for the other.  The bound gives "printed" the half form
    and the estimate the full form, so each estimate variant inverts the
    other bound variant.
    """
    twice_s = check_twice_s(twice_s)
    n = check_n_samples(n_samples)
    epsilon_m = check_epsilon_m(epsilon_m)
    if variant not in ("printed", "derived"):
        raise ValueError(f"variant must be 'printed' or 'derived', got {variant!r}")
    if epsilon_m == 0.0:
        return -math.inf, n, epsilon_m
    log_common = 0.5 * (math.log1p(-epsilon_m * epsilon_m) + math.log(n)) + math.log(epsilon_m)
    if variant == half_variant:
        return log_common + 0.5 * log_binomial(twice_s, n), n, epsilon_m
    return log_common + math.log(2.0) + log_binomial(twice_s, n), n, epsilon_m


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
    :func:`alias_error` it reads only the spectrum, once the band limit is
    checked; eps_0 and eps_{N-1} are taken in the log domain, so the bound
    answers where they leave the double range (large spin near the rim).
    ``error-analysis`` prints it from its exact error's tails, to a few ulps.
    """
    return _bound_terms(spectrum, profile, variant)[0]


def _bound_terms(
    spectrum: ResolutionSpectrum, profile: QuasiBandProfile, variant: str, log_eps=None
) -> tuple[ErrorBound, tuple[float, float, float]]:
    """(:func:`error_bound`, (A + C, C, log C)): the bound's pieces for
    :func:`_error_row`'s comparison with the exact error, from ``log_eps`` =
    (log eps_0, log eps_{N-1}) or, where None, :func:`_log_tail_excess`'s:

        A = (1-eps_M^2) eps_0/(1+eps_0),  C = the cross term,  bound = eps_M^2 + A + C.

    eps/(1+eps) = exp(log eps - log(1+eps)), so nothing overflows; each
    exponent is formed from the differences of the large logs first, so it
    keeps its absolute accuracy.  C is taken by ``times_exp`` ("bound cross
    term"): 0 where eps_M = 0, refused where it leaves the double range.
    """
    n = spectrum.grid.n_samples
    if profile.band_limit != n - 1:
        raise ValueError(f"error bound requires band_limit = n_samples - 1 = {n - 1}, "
                         f"got {profile.band_limit}")
    em = profile.epsilon_m
    em2 = em * em
    log_eps0, log_eps_last = (_log_tail_excess(spectrum, np.array([0, n - 1]))
                              if log_eps is None else log_eps)
    log_cross = 0.5 * (np.log(n) + log_eps0) - np.logaddexp(0.0, log_eps_last)
    coefficient = 2.0 * np.sqrt(1.0 - em2) * em
    cross = times_exp(np.array([coefficient]), np.array([log_cross]), "bound cross term")
    excess = float((1.0 - em2) * np.exp(log_eps0 - np.logaddexp(0.0, log_eps0)) + cross[0])
    with np.errstate(divide="ignore"):
        log_c = float(np.log(coefficient) + log_cross)
    leading = leading_order_bound(spectrum.twice_s, spectrum.grid.radius, n, em, variant)
    bound = ErrorBound(value=float(em2 + excess), leading_order=leading)
    return bound, (excess, float(cross[0]), log_c)


def _error_row(
    spectrum: ResolutionSpectrum, signal: DiskSignal, profile: QuasiBandProfile, variant: str
) -> tuple[float, ErrorBound, tuple[float, float]]:
    """One error-analysis row: (exact normalized squared error,
    :func:`error_bound`, (m, L)) with bound - exact = m e^L, so the bound
    holds where m >= 0, for ``profile`` the signal's own at M = N-1.  For
    eps_0 up to about 1, m = G/||psi||^2 + C (:func:`_alias_sums`), terms of
    the size of the lambda tails (L = 0).  Beyond, it compares 1 - exact =
    ||P psi||^2/||psi||^2 with 1 - bound = D - C, D = (1-eps_M^2)/(1+eps_0),
    terms of the size of D, far below the double range near the rim; with
    Q = ||P psi||^2/||psi||^2 + C, L is the larger of log Q and log D.
    Either way nothing that bound and exact share (eps_M^2, or the 1) is
    subtracted, and the row scans the spectrum once: bound, A + C, C, log C and
    D read the eps of :func:`_alias_sums`, so a tie, as for a_0 alone, is m = 0.
    """
    error_sq, gap, log_captured, log_eps = _alias_sums(spectrum, signal)
    bound, (excess, cross, log_c) = _bound_terms(spectrum, profile, variant, log_eps)
    norm_sq = float(signal._scaled[2].sum())  # in the scale of _alias_sums
    exact = error_sq / norm_sq
    log_d = float(np.log1p(-profile.epsilon_m * profile.epsilon_m) - np.logaddexp(0.0, log_eps[0]))
    if excess <= np.exp(log_d):
        return exact, bound, (gap / norm_sq + cross, 0.0)
    log_q = float(np.logaddexp(log_captured, log_c))
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

    r <= ((eps^2 - eps_M^2)/c)^(1/N), with the cross coefficient c of
    :func:`_log_cross_coefficient`.  "printed" (default) takes the full form

        r <= ((eps^2 - eps_M^2) / (2 sqrt((1-eps_M^2) N) eps_M binom(2s+N-1, N)))^(1/N)

    and so inverts the "derived" leading-order bound; "derived" takes the
    half form (drops the factor 2, square-roots the binomial) and inverts
    the "printed" bound.  Computed in the log domain and clamped to 1.0 with
    ``clamped=True`` when the raw value is >= 1, as it is for eps_M = 0.
    """
    log_c, n, epsilon_m = _log_cross_coefficient(twice_s, n_samples, epsilon_m, variant, "derived")
    epsilon = _parse(epsilon, "epsilon", "a real number", scalar=True)
    if not epsilon > epsilon_m:
        raise ValueError(
            f"target epsilon {epsilon!r} must exceed the tail epsilon_m {epsilon_m!r}"
        )
    raw_log = (np.log(epsilon * epsilon - epsilon_m * epsilon_m) - log_c) / n
    if raw_log >= 0.0:
        return RadiusEstimate(value=1.0, clamped=True)
    return RadiusEstimate(value=float(np.exp(raw_log)), clamped=False)


def band_projection_curve(twice_s: int, band_limit: int, radius) -> np.ndarray | float:
    """Ring expectation of the band-limit projector:

        P(r) = (1-r^2)^(2s) sum_{m=0}^{M} binom(2s+m-1, m) r^(2m),

    equal to 1 at r = 0, monotone non-increasing on [0, 1), and dropping
    through 1/2 near the critical radius when s and M are large.  Accepts a
    scalar or array radius in [0, 1); each term is the pmf NB(m; 2s, 1-r^2),
    summed in the log domain relative to its largest term with m <= M, at
    the :func:`~basis._mode` or at M below it, so s and M in the thousands
    are fine.  m runs in blocks of ``basis._BLOCK``, so memory does not grow
    with M.
    """
    twice_s = check_twice_s(twice_s)
    band_limit = check_band_limit(band_limit)
    r_arr = np.ravel(_parse(radius, "radius", "a real number"))
    if not np.all((r_arr >= 0.0) & (r_arr < 1.0)):
        raise ValueError("radius must lie in [0, 1)")
    rim = _one_minus_mod2(r_arr[:, np.newaxis])
    peak = _log_pmf(twice_s, np.minimum(_mode(twice_s, rim), band_limit), rim)
    total = 0.0
    for start in range(0, band_limit + 1, basis._BLOCK):
        m = np.arange(start, min(start + basis._BLOCK, band_limit + 1), dtype=np.float64)
        total = total + np.sum(np.exp(_log_pmf(twice_s, m, rim) - peak), axis=1)
    return _scalar_or_array(np.exp(peak[:, 0]) * total, radius)


def critical_radius(twice_s: int, band_limit: int) -> float:
    """Transition radius r_c = (1 + (2s-1)/M)^(-1/2) of the projection curve:
    the radius where the index of its largest term, the :func:`~basis._mode`
    floor((2s-1) r^2/(1-r^2)), reaches M."""
    twice_s = check_twice_s(twice_s)
    band_limit = check_band_limit(band_limit)
    if band_limit < 1:
        raise ValueError(f"band limit must be >= 1, got {band_limit!r}")
    return float((1.0 + (twice_s - 1.0) / band_limit) ** -0.5)
