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

Numerical policy: lhat_j is the class tail of j, the lambda series summed
in doubles outward from its largest term, as the error analysis sums its
tails, and is kept as its log, which every transform reads: none re-logs or
divides by a rounded lhat_j.  Construction checks it against the first row,
which the series never reads: the float64 FFT of the row agrees to 1e-12
relative, or to the FFT's rounding bound where larger, and where the bound
cannot resolve some lhat_j, one row sum in fixed-point Python integers,
good to 30 digits relative to the value it checks, checks the smallest
lhat_j to 1e-12.  The tail ratios eps_n = (lhat_n - lambda_n)/lambda_n get
their own series, never a subtraction, exact down to the underflow
threshold and carried in the log domain where they leave the double range.
"""

from __future__ import annotations

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
    _pointwise,
    _ring_dft,
    _scalar_or_array,
    log_binomial,
)
from .validation import (
    CONDITION_LIMIT,
    ConditioningWarning,
    EigenvalueCrossCheckError,
    NumericalRangeError,
    SeriesBudgetError,
    _Conditioned,
    _parse,
    _read_only,
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
_MAX_SERIES_BLOCKS = 100_000
_SERIES_BLOCK = 16
_SERIES_TOL = 1e-16


@dataclass(frozen=True)
class CirculantKernel(_Conditioned):
    """Sampled reproducing-kernel operator B in circulant form, built from
    (twice_s, grid) alone.

    It stores one form of the spectrum: ``log_eigenvalues`` log lhat_j, the
    class tails as summed, which every transform reads, beside the
    ``spectrum``.  ``first_row`` C_0..C_{N-1}, with B[k, l] = C[(l-k) mod N],
    and ``eigenvalues`` lhat_j (the ``from_log`` of the logs) are views taken
    on each read.  lhat_j is checked against the row's float64 FFT at 1e-12
    relative, or to :func:`_fft_error_bound` where larger, and where that is
    not below half of 1e-12 at some lhat_j, the smallest by
    :func:`_spot_log_eigenvalue` at 1e-12, both from the row's (1-r^2, d).
    On disagreement no kernel is built.  Immutable, its arrays read-only,
    and safe to share across threads.
    """

    twice_s: int
    grid: SamplingGrid
    log_eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    spectrum: ResolutionSpectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spectrum = ResolutionSpectrum(self.twice_s, self.grid)  # checks twice_s, then grid
        twice_s, grid = spectrum.twice_s, self.grid
        denominator = _row_denominator(grid)
        row = _first_row(twice_s, denominator)
        log_eig = _read_only(_log_class_tails(spectrum, np.arange(grid.n_samples), "eigenvalue"))
        eig = from_log(log_eig, "lhat")
        smallest = int(np.argmin(log_eig))
        bound = _fft_error_bound(twice_s, grid, denominator, row)
        limit = np.maximum(_EIG_AGREE_RTOL * eig, bound)
        miss = np.abs(np.fft.fft(row) - eig)
        j = int(np.argmax(miss / limit))
        if not miss[j] <= limit[j]:
            raise _disagreement("fft", j, float(miss[j] / eig[j]), float(limit[j] / eig[j]))
        if bound >= 0.5 * _EIG_AGREE_RTOL * eig[smallest]:
            spot = _spot_log_eigenvalue(twice_s, grid, denominator, smallest, log_eig[smallest])
            gap = float(abs(np.expm1(log_eig[smallest] - spot)))
            if not gap <= _EIG_AGREE_RTOL:
                raise _disagreement("spot", smallest, gap, _EIG_AGREE_RTOL)
        object.__setattr__(self, "twice_s", twice_s)
        object.__setattr__(self, "log_eigenvalues", log_eig)
        object.__setattr__(self, "spectrum", spectrum)

    _log_spectrum = property(lambda self: self.log_eigenvalues)
    first_row = property(lambda self: _first_row(self.twice_s, _row_denominator(self.grid)))
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


def _row_denominator(grid: SamplingGrid) -> tuple[float, np.ndarray]:
    """(1-r^2, d) for the first row C_l = ((1-r^2)/d_l)^(2s), d_l = 1 - r^2
    e^(i theta_l) taken as (1-r^2) + 2 r^2 sin^2(theta_l/2) - i r^2 sin(theta_l),
    which does not cancel near theta_l = 0 (C_0 = 1 exactly)."""
    one_minus, _, r2, _ = _one_minus_mod2(grid.radius)
    ang = grid.angles
    half_sin = np.sin(0.5 * ang)
    return one_minus, one_minus + 2.0 * r2 * half_sin * half_sin - 1j * r2 * np.sin(ang)


def _first_row(twice_s: int, denominator) -> np.ndarray:
    """C_l = ((1-r^2)/d_l)^(2s) from :func:`_row_denominator`'s (1-r^2, d), read-only."""
    return _read_only((denominator[0] / denominator[1]) ** twice_s)


def _series_sum(log_terms, tol: float, name: str) -> np.ndarray:
    """Row sums of positive series, truncated under the global policy.

    ``log_terms`` maps a block of term indices q = 0, 1, ... to the
    rows x block array of log-terms, none above 0.  Terms are positive with
    eventually decreasing ratios, so a geometric majorant built from the last
    observed ratio bounds the tail.  Each row stops at its own first
    negligible block, so a row's sum does not depend on the rows summed with
    it.  Every series in this module is summed here; one still open after
    the budget of terms raises ``SeriesBudgetError``.
    """
    total, open_rows = 0.0, True
    for block in range(_MAX_SERIES_BLOCKS):
        q = np.arange(block * _SERIES_BLOCK, (block + 1) * _SERIES_BLOCK)
        terms = np.exp(log_terms(q))
        total = np.where(open_rows, total + terms.sum(axis=1), total)
        open_rows = open_rows & ~_tail_negligible(terms[:, -1], terms[:, -2], tol * total)
        if not open_rows.any():
            return total
    raise SeriesBudgetError(name, _MAX_SERIES_BLOCKS * _SERIES_BLOCK)


def _tail_negligible(last: np.ndarray, prev: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Rows whose last term is zero, or whose last term and geometric-majorant
    tail both lie below ``bound``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(prev > 0.0, last / prev, 0.0)
        tail = last * ratio / (1.0 - ratio)
    return (last == 0.0) | ((ratio < 1.0) & (last < bound) & (tail < bound))


def _fft_error_bound(twice_s: int, grid: SamplingGrid, denominator, row: np.ndarray) -> float:
    """Bound on |fft(row)_j - lhat_j|, every j, to first order in the unit
    roundoff u, for the row raised from ``denominator``, the (1-r^2, d) of
    :func:`_row_denominator`.

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
    one_minus, d = denominator[0], denominator[1][1:]
    slope = grid.radius**2 * grid.angles[1:] / np.abs(d)
    log_base = np.abs(np.log(one_minus / d))
    per_entry = twice_s * (32.0 + 2.4 * slope + 6.0 * log_base) + 5.0
    row_error = np.sum(np.abs(row[1:]) * per_entry)
    fft_error = 20.0 * np.log2(4 * row.size) * np.sqrt(row.size * np.sum(np.abs(row) ** 2))
    return float(_UNIT_ROUNDOFF * (row_error + fft_error))


def _spot_log_eigenvalue(
    twice_s: int, grid: SamplingGrid, denominator, j: int, log_size: float
) -> float:
    """log lhat_j = log sum_l C_l exp(-2 pi i j l/N) in fixed-point integers,
    -inf if the sum is not positive; ``denominator`` is :func:`_row_denominator`'s.

    C_{N-l} = conj C_l, so l <= N/2 is summed, as twice the real part.
    ``log_size`` is log C for the value C under check, the class tail of j.
    |C_l| falls as l rises to N/2, so terms below 1e-18 C/N are left out:
    O(N) products, far fewer for a peaked row.  P bits span the row scale 1
    down to C and the digits of N, with 30 decimal digits to spare, so
    2^-P <= 10^-30 C/N.

    A value x is held as the integers x 2^B (real and imaginary part), and
    B = P + G.  Each product or quotient is floored once, on operands of
    modulus at most 1, so it errs by under u = 2^-B a part.  To first order
    in u, the errors are:
      r^2 (exact from r's integer ratio, then floored) and 1 - r^2: u;
      w = e^(2 pi i/N): 2 sqrt(2) u (:func:`_fixed_root_of_unity`);
      the table w^m = w^(m-1) w, m <= N/2: 3 sqrt(2) u a step, so 3N u
        (w^(N-m) = conj w^m adds none);
      d_l = 1 - r^2 w^l: u + 3N u + sqrt(2) u <= (3N + 3) u;
      b_l = (1-r^2) conj(d_l)/|d_l|^2, one quotient: sqrt(2) u plus
        (u + (3N + 3) u)/(1-r^2), since |db/dd| = |b|/|d| <= 1/(1-r^2),
        in all at most (3N + 6) u/(1-r^2);
      C_l = b_l^(2s) by binary powering, at most 2 bitlen(2s) products:
        2s times b_l's error plus 3 bitlen(2s) u;
      Re(C_l conj w^(jl mod N)), exact in integers: C_l's error plus 3N u.
    The weights 1 and 2 add to at most N, so the sum errs by under K u,
    K = N (2s (3N + 6)/(1-r^2) + 3 bitlen(2s) + 3N).  G is the bit length of
    K, so K u < 2^-P: the sum errs by under 10^-30 C/N, and the left-out
    terms, weights at most N in all, add under 10^-18 C.  The log splits
    the sum's power of two off exactly, so it is within a few ulps.  A
    result within 1e-12 relative of C therefore certifies |C - lhat_j| <=
    (1e-12 + 2e-18) C, and a C off by more fails, above or below lhat_j.
    """
    n = grid.n_samples
    one_minus_float, d = denominator
    log_modulus = twice_s * (np.log(one_minus_float) - np.log(np.abs(d[: n // 2 + 1])))
    count = max(1, int(np.count_nonzero(log_modulus >= log_size + np.log(1e-18 / n))))
    digits = 30 + int(np.ceil(max(0.0, -log_size) / np.log(10.0))) + int(np.log10(n) + 1)
    bound = n * (twice_s * (3 * n + 6) / one_minus_float + 3 * twice_s.bit_length() + 3 * n)
    bits = math.ceil(digits * math.log2(10.0)) + int(bound).bit_length()
    one = 1 << bits
    r_num, r_den = grid.radius.as_integer_ratio()
    r2 = (r_num * r_num << bits) // (r_den * r_den)
    one_minus = one - r2
    step = _fixed_root_of_unity(n, bits)
    roots = [(one, 0)]
    for _ in range(n // 2):
        roots.append(_fixed_product(roots[-1], step, bits))
    total = 0
    for l in range(count):
        re, im = roots[l]
        d_re, d_im = one - (r2 * re >> bits), -(r2 * im >> bits)
        mod2 = d_re * d_re + d_im * d_im
        base = ((one_minus * d_re << bits) // mod2, (-one_minus * d_im << bits) // mod2)
        c_re, c_im = _fixed_power(base, twice_s, bits)
        m = j * l % n
        t_re, t_im = roots[m] if 2 * m <= n else (roots[n - m][0], -roots[n - m][1])
        term = c_re * t_re + c_im * t_im
        total += term if 2 * l in (0, n) else 2 * term
    if total <= 0:
        return -np.inf
    size = total.bit_length() - 1
    return math.log(total / (1 << size)) + (size - 2 * bits) * math.log(2.0)


def _fixed_product(a: tuple[int, int], b: tuple[int, int], bits: int) -> tuple[int, int]:
    """a b for complex fixed-point integers scaled by 2^bits, each part floored once."""
    return (a[0] * b[0] - a[1] * b[1]) >> bits, (a[0] * b[1] + a[1] * b[0]) >> bits


def _fixed_power(base: tuple[int, int], exponent: int, bits: int) -> tuple[int, int]:
    """base^exponent, exponent >= 1, by binary powering: at most
    2 bitlen(exponent) products."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else _fixed_product(result, base, bits)
        exponent >>= 1
        if not exponent:
            return result
        base = _fixed_product(base, base, bits)


def _fixed_root_of_unity(n: int, bits: int) -> tuple[int, int]:
    """e^(2 pi i/n) as integers scaled by 2^bits, each part within 2 units.

    Newton's method on z^n = 1, z <- z - z (z^n - 1)/n, from the float root:
    its angle 2 pi/n is off by under 1.5 units at p = 52 bits, cos and sin
    add an ulp each and the floor to p bits a unit each, so z is within 4
    units of w = e^(2 pi i/n).  If z = w (1 + e), a step leaves
    w (1 - (n+1)/2 e^2 + ...): under half a unit at q = 2p - bitlen(n) - 4
    bits.  At q the powering errs by under sqrt(2) (n - 1) units, which the
    division by n brings to sqrt(2), and the product and quotient floor once
    (floor(floor(a/b)/c) = floor(a/(bc))), sqrt(2) more: to first order z is
    again within 4 units, now at q.  q > p while p > bitlen(n) + 4, so for
    every n < 2^47; a larger n is never reached, its first row alone taking
    2 PiB.  The last step runs at W = bits + 64, and the final shift floors
    W's 4 units away and adds the second.
    """
    work, prec = bits + 64, 52
    theta = 2.0 * math.pi / n
    z = tuple(math.floor(math.ldexp(part(theta), prec)) for part in (math.cos, math.sin))
    while prec < work:
        grown = min(work, 2 * prec - n.bit_length() - 4)
        z = (z[0] << grown - prec, z[1] << grown - prec)
        prec = grown
        power = _fixed_power(z, n, prec)
        re, im = _fixed_product(z, (power[0] - (1 << prec), power[1]), prec)
        z = (z[0] - re // n, z[1] - im // n)
    return z[0] >> 64, z[1] >> 64


def _disagreement(check: str, j: int, gap: float, limit: float) -> EigenvalueCrossCheckError:
    message = (f"class-tail and {check} values of eigenvalue {j} disagree by {gap!r} relative "
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
    block.  A sum beyond the double range raises ``NumericalRangeError`` (value_j).
    """
    weights = dual_weights(kernel, samples)
    points, z_arr = kernel.grid.points[np.newaxis, :], as_disk_points(z)

    def sums(w):
        # looked up at the call, as reconstruct_bandlimited looks up evaluate_signal
        return _pointwise(lambda block: np.einsum(
            "qn,n->q", basis.overlap(kernel.twice_s, block[:, np.newaxis], points), w
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
    if lost.any():
        j = int(np.argmax(lost))
        raise NumericalRangeError(
            f"ahat_{j} has lost its digits: lhat_{j}/lambda_{j} leaves the double range; "
            "rescale from the samples with fourier_coefficients",
            float(log_factor[j]),
        )
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

    Computed by its own ratio series

        eps_n = sum_{u>=1} lambda_{n+uN} / lambda_n,

    never by subtracting lhat - lambda, so it stays exact down to the
    underflow threshold (the difference cancels catastrophically once
    eps_n drops below machine epsilon).  Strictly decreasing in n.  The
    values come through ``validation.times_exp``: one beyond the double
    range raises ``NumericalRangeError`` naming eps_n by its n, with its
    log, and one below it is 0.  :func:`error_bound` reads eps_n in the log
    domain and has no such limit.
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
    """log sum_{q>=0} lambda_{start+qN} for each start: the spectrum mass at
    and above start in its residue class, of any size.

    lambda_m rises up to the :func:`~basis._mode` and falls
    after it, so each class is summed outward from its peak: upward from its first
    index at or above the mode, and downward from the index below that to
    the start.  Both sides then fall term by term, as the truncation test of
    :func:`_series_sum` assumes, and every term is taken relative to the
    peak, so none overflows and the peak term itself is 1.  A row that
    cannot finish within the budget is refused first (:func:`_check_budget`).
    """
    n_s = spectrum.grid.n_samples
    mode = _mode(spectrum.twice_s, spectrum._rim)
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

    _check_budget(log_terms, name)
    sums = _series_sum(log_terms, _SERIES_TOL, name)
    total = sums[: top.size]
    total[down] += sums[top.size :]
    return peak + np.log(total)


def _check_budget(log_terms, name: str) -> None:
    """Raise ``SeriesBudgetError`` where some row fails the stopping test of
    :func:`_series_sum` at every block end of its budget of C terms.  A
    row's terms fall and are log-concave (the negative-binomial pmf is, for
    2s >= 1), so its last term and majorant tail only fall with q and its
    sum is at most C times its first term: failing the test at its C-th term
    against tol C times its first, it fails at every block end."""
    budget = _MAX_SERIES_BLOCKS * _SERIES_BLOCK
    terms = np.exp(log_terms(np.array([0, budget - 2, budget - 1])))
    if not _tail_negligible(terms[:, 2], terms[:, 1], _SERIES_TOL * budget * terms[:, 0]).all():
        raise SeriesBudgetError(name, budget)


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


def _alias_sums(
    spectrum: ResolutionSpectrum, signal: DiskSignal
) -> tuple[float, float, float]:
    """(E^2, E^2 - ||psi||^2 eps_M^2, log ||P psi||^2) for band limit
    M = N-1, each without cancellation, of the signal divided by its
    power-of-two scale (``DiskSignal._scaled``); E^2 is the class sum of
    :func:`alias_error`, which scales it back.

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
    v = np.pad(signal._scaled[1], pad).reshape(shape)
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
    keeps its absolute accuracy.  C is taken by ``times_exp`` ("bound cross
    term"): 0 where eps_M = 0, refused where it leaves the double range.
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
    coefficient = 2.0 * np.sqrt(1.0 - em2) * em
    cross = times_exp(np.array([coefficient]), np.array([log_cross]), "bound cross term")
    excess = float((1.0 - em2) * np.exp(log_eps0 - np.logaddexp(0.0, log_eps0)) + cross[0])
    with np.errstate(divide="ignore"):
        log_c = float(np.log(coefficient) + log_cross)
    log_d = float(np.log1p(-em2) - np.logaddexp(0.0, log_eps0))
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
    norm_sq = float(signal._scaled[2].sum())  # in the scale of _alias_sums
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
