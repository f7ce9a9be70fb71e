"""Core primitives for holomorphic signals on the open unit disk.

A signal of half-integer spin index s (stored as the integer ``twice_s``)
is a coefficient sequence ``a_0..a_{L-1}`` against the weighted monomial
basis

    U_m(z) = binom(2s+m-1, m)^(1/2) * (1-|z|^2)^s * conj(z)^m,

whose reproducing kernel is the coherent-state overlap

    <z|w> = (1-|z|^2)^s (1-|w|^2)^s / (1 - w*conj(z))^(2s).

Sampling happens on a ring of N equispaced points z_k = r*exp(2*pi*i*k/N),
where the diagonal resolution eigenvalues are

    lambda_n = N * (1-r^2)^(2s) * binom(2s+n-1, n) * r^(2n).

Everything is evaluated in the log domain where magnitudes can degenerate.
Divided by N, lambda_n is the negative-binomial probability NB(n; 2s, 1-r^2),
and |U_m(z)|^2 is NB(m; 2s, 1-|z|^2); both are taken from one log-pmf in
Loader's saddle-point form (C. Loader, "Fast and Accurate Computation of
Binomial Probabilities", 2000), in which no large terms cancel.  1 - |z|^2
is formed with compensated arithmetic, so it keeps its relative accuracy up
to the rim.  The non-analytic prefactor (1-|z|^2)^s is kept inside the basis
functions; the integration measure is never reweighted (see README).

Pointwise evaluation sums the basis by the upward recurrence
U_m = U_{m-1} sqrt((2s+m-1)/m) conj(z), whose terms cannot overflow because
sum_m |U_m(z)|^2 = <z|z> = 1, each segment of indices as a polynomial in
conj(z), over fixed-size blocks of query points, so its memory does not grow
with the number of points.  Where U_0 = (1-|z|^2)^s is below the flush level
(large s near the rim), it starts from one basis value in the log domain.

All functions here are pure and operate on immutable values, so they are
safe to call concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .validation import (
    _read_only,
    _scale,
    as_coefficients,
    as_disk_points,
    check_indices,
    check_n_samples,
    check_radius,
    check_twice_s,
    from_log,
    in_range,
    times_exp,
)

__all__ = list(_EXPORTS["basis"])


#: Veltkamp's splitting constant 2^27 + 1.
_SPLITTER = 134217729.0

#: Stirling-formula errors log(n!) - log(sqrt(2 pi n) (n/e)^n), correctly
#: rounded, for n = 0..15 (the entry for n = 0 is a placeholder; no result
#: read at n = 0 comes from it).
_STIRLING_ERRORS = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])

#: The deviance series stops once its ratio raised to the term count is
#: below e^this (one unit in the last place of its first term).
_LOG_DEVIANCE_SERIES_TOL = np.log(2.0**-53)


def _two_product(a, b):
    """(a*b, its rounding error) exactly, by Dekker's two-product with
    Veltkamp splitting (numpy has no fused multiply-add)."""
    product = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return product, ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a):
    """a = hi + lo exactly, each with at most 26 significant bits."""
    scaled = _SPLITTER * a
    hi = scaled - (scaled - a)
    return hi, a - hi


def _two_sum(a, b):
    """(a+b, its rounding error) exactly (Knuth's two-sum)."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _one_minus_mod2(z):
    """(1 - |z|^2, its low part, |z|^2, its low part) for point(s) z.

    Each quantity is an unevaluated sum hi + lo of two doubles: x^2 and y^2
    are taken exactly by Dekker's two-product, and 1 - x^2 - y^2 is summed
    with every rounding error carried.  So 1 - |z|^2 keeps its relative
    accuracy however close z lies to the rim, where 1 - (x*x + y*y) loses up
    to all of its digits.  A real z is its own modulus.
    """
    z = np.asarray(z)
    x2, x2_err = _two_product(z.real, z.real)
    y2, y2_err = _two_product(z.imag, z.imag)
    head, head_err = _two_sum(1.0, -x2)
    head, err = _two_sum(head, -y2)
    tail = ((head_err + err) - x2_err) - y2_err
    one_minus = head + tail
    mod2, mod2_err = _two_sum(x2, y2)
    return one_minus, tail - (one_minus - head), mod2, mod2_err + x2_err + y2_err


def _log_one_minus_mod2(rim):
    """log(1 - |z|^2) from ``rim = _one_minus_mod2(z)``."""
    return np.log(rim[0]) + rim[1] / rim[0]


def _stirling_error(n):
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for integer-valued n >= 1:
    tabulated up to 15, the asymptotic series (5 terms) above."""
    n2 = n * n
    out = (
        1.0 / 12.0
        - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - 1.0 / (1188.0 * n2)) / n2) / n2) / n2
    ) / n
    small = n <= 15
    if np.any(small):
        out = np.where(small, _STIRLING_ERRORS[np.minimum(n, 15).astype(np.int64)], out)
    return out


def _saddle_point(twice_s: int, n, twice_s_error):
    """log NB(n; 2s, p) at its saddle point p = 2s/(2s+n), for n >= 1:
    Stirling errors plus the Gaussian normalisation, nothing that cancels.
    ``twice_s_error`` is ``_stirling_error(float(twice_s))``."""
    total = twice_s + n
    errors = _stirling_error(np.stack((total, n)))
    return (
        errors[0]
        - errors[1]
        - twice_s_error
        + 0.5 * np.log(twice_s / (2.0 * np.pi * n * total))
    )


def _deviance(x, mean, diff):
    """Loader's bd0(x, M) = x log(x/M) + M - x, given diff = x - M.

    Where |v| < 0.1 for v = diff/(x+M) the value is the series
    v (diff + 2 x sum_{j>=1} v^(2j)/(2j+1)), summed to as many terms as the
    largest such v on the call needs; elsewhere it is x log1p(diff/M) - diff,
    which loses at most a few digits there.  ``mean`` and ``diff`` have the
    shape of the result, and ``x`` broadcasts; one array holds v, then the result.
    """
    out = np.asarray(x + mean, dtype=np.float64)
    np.divide(diff, out, out=out)
    near = np.abs(out) < 0.1
    v = out[near]
    np.divide(diff, mean, out=out)
    np.log1p(out, out=out)
    out *= x
    out -= diff
    if v.size:
        d = diff[near]
        w = v * v
        largest = w.max()
        terms = int(np.ceil(_LOG_DEVIANCE_SERIES_TOL / np.log(largest))) if largest else 0
        series = 0.0
        for j in range(terms, 0, -1):
            series = (series + 1.0 / (2 * j + 1)) * w
        # x = M + diff; only the small series term reads it
        out[near] = v * (d + 2.0 * (mean[near] + d) * series)
    return out


def _log_pmf(twice_s: int, n, rim, twice_s_error=None) -> np.ndarray:
    """log NB(n; 2s, 1-|z|^2) = log[binom(2s+n-1, n) (1-|z|^2)^(2s) |z|^(2n)].

    ``rim`` is ``_one_minus_mod2(z)``; n (integer-valued) broadcasts against
    it.  ``twice_s_error`` is ``_stirling_error(float(twice_s))``, computed
    here unless the caller holds it.  Loader's saddle-point form: with
    T = 2s + n,

        log NB = saddle(2s, n) - bd0(2s, T (1-|z|^2)) - bd0(n, T |z|^2).

    Every term is small near the mode, and the deviances grow without
    cancellation away from it.  Their x - M are -d and d = n - T |z|^2, formed
    from |z|^2 to about twice double precision, so both keep their accuracy up
    to the rim.  At n = 0 the value is 2s log(1 - |z|^2); at z = 0 it is -inf
    for n >= 1.  Every binomial that meets a power of r or |z| is taken here.
    """
    if twice_s_error is None:
        twice_s_error = _stirling_error(float(twice_s))
    n = np.asarray(n, dtype=np.float64)
    total = twice_s + n
    mean, mean_lo = _two_product(total, rim[2])
    diff = (n - mean) - (mean_lo + total * rim[3])
    del mean_lo  # so that at most six full-size arrays are live at once
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _saddle_point(twice_s, n, twice_s_error) - _deviance(twice_s, total * rim[0], -diff)
        out -= _deviance(n, mean, diff)
    if (zero := n == 0).any():
        out = np.where(zero, twice_s * _log_one_minus_mod2(rim), out)
    return out


def _scalar_or_array(values, *arguments):
    """``values`` as the package returns them: a Python scalar where every
    argument is a scalar or 0-d, else an array of the arguments' broadcast shape."""
    shape = np.broadcast_shapes(*map(np.shape, arguments))
    values = np.asarray(values)
    return values.item() if shape == () else values.reshape(shape)


def log_binomial(twice_s: int, n) -> np.ndarray | float:
    """Natural log of binom(2s+n-1, n) = Gamma(2s+n) / (Gamma(n+1) Gamma(2s)).

    The saddle-point terms of :func:`_log_pmf` plus the entropy
    2s log(1 + n/2s) + n log(1 + 2s/n); stable for arbitrarily large ``n``
    and exact (0.0) at n = 0.  ``n`` may be a nonnegative integer scalar or
    array-like (giving a float or an array); anything else raises ``ValueError``.
    """
    twice_s = check_twice_s(twice_s)
    n_arr = check_indices(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            _saddle_point(twice_s, n_arr, _stirling_error(float(twice_s)))
            + twice_s * np.log1p(n_arr / twice_s)
            + n_arr * np.log1p(twice_s / n_arr)
        )
    return _scalar_or_array(np.where(n_arr == 0, 0.0, out), n)


@dataclass(frozen=True)
class SamplingGrid:
    """Ring of ``n_samples`` equispaced points of radius ``radius`` in the disk.

    Point k is radius * exp(2*pi*i*k/N), built from cos/sin of the angle
    2*pi*k/N directly, with no accumulated rotation.  The points are
    bit-reproducible for a given numpy build and CPU; numpy's vectorised
    cos/sin need not agree in the last bit across builds.
    """

    radius: float
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "radius", check_radius(self.radius))
        object.__setattr__(self, "n_samples", check_n_samples(self.n_samples))

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_samples) / self.n_samples

    @property
    def points(self) -> np.ndarray:
        ang = self.angles
        return self.radius * (np.cos(ang) + 1j * np.sin(ang))


def _check_grid(grid) -> None:
    """Raise ``ValueError`` naming ``grid`` unless it is a :class:`SamplingGrid`."""
    if not isinstance(grid, SamplingGrid):
        raise ValueError(f"grid must be a SamplingGrid, got {grid!r}")


@dataclass(frozen=True, eq=False)
class DiskSignal:
    """A spin-``twice_s``/2 signal given by finitely many coefficients; its
    input is an array, so it equals and hashes by identity."""

    twice_s: int
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "twice_s", check_twice_s(self.twice_s))
        coeffs = _read_only(as_coefficients(self.coefficients).copy())
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return self.coefficients.size

    @property
    def band_limit(self) -> int:
        """Largest coefficient index stored (coefficients above it are zero)."""
        return self.coefficients.size - 1

    @property
    def norm_squared(self) -> float:
        """sum |a_m|^2, inf or 0 only where the value leaves the double range."""
        scale, _, energies = self._scaled
        return float(energies.sum()) * scale * scale

    @functools.cached_property
    def _scaled(self):
        """(scale, a/scale, |a/scale|^2) for the power of two ``scale`` that
        brings the largest real or imaginary part of a into [1, 2), taken
        exactly (``validation._scale``).  The signal's one scale: every sum
        over the coefficients is of a/scale, so no square leaves the double
        range, scaled back by ``in_range``.  Its arrays are read-only, as the
        coefficients are."""
        scaled, exponent = _scale(self.coefficients)
        return 2.0**exponent, _read_only(scaled), _read_only(np.abs(scaled) ** 2)

    @functools.cached_property
    def _segments(self):
        """The segment polynomials :func:`evaluate_signal` sums, taken on its
        first call (the coefficients are read-only, and so are its arrays)."""
        return _segment_polynomials(self.twice_s, self._scaled[1])


@dataclass(frozen=True)
class ResolutionSpectrum:
    """Eigenvalue sequence lambda_n of the ring resolution operator.

    Stateless: each query recomputes from (twice_s, grid), so instances can
    be shared freely across threads and any index n >= 0 is available on
    demand.  Values are produced in the log domain; exponentiate through
    :meth:`values`, which refuses, naming lambda_n, to round to zero or
    infinity (``validation.from_log``).
    """

    twice_s: int
    grid: SamplingGrid

    def __post_init__(self):
        object.__setattr__(self, "twice_s", check_twice_s(self.twice_s))
        _check_grid(self.grid)
        # derived from the fields once; not fields themselves
        object.__setattr__(self, "_rim", _one_minus_mod2(self.grid.radius))
        object.__setattr__(self, "_twice_s_error", _stirling_error(float(self.twice_s)))

    def log_values(self, n) -> np.ndarray | float:
        """log lambda_n = log N + log NB(n; 2s, 1-r^2), any integer n >= 0;
        an array for any array-like ``n``.  Anything else raises ``ValueError``."""
        n_arr = check_indices(n)
        out = np.log(self.grid.n_samples) + _log_pmf(
            self.twice_s, n_arr, self._rim, self._twice_s_error
        )
        return _scalar_or_array(out, n)

    def values(self, n) -> np.ndarray | float:
        return _scalar_or_array(from_log(np.asarray(self.log_values(n)), "lambda", n), n)


def _basis_values(twice_s: int, m: np.ndarray, z: np.ndarray, log_scale=0.0) -> np.ndarray:
    """Broadcast evaluation of U_m(z) = NB(m; 2s, 1-|z|^2)^(1/2) e^(-i m arg z),
    times exp(log_scale); inputs already validated."""
    # at the origin the pmf is 1 at m = 0 and 0 (log -inf) above
    log_mag = 0.5 * _log_pmf(twice_s, m, _one_minus_mod2(z))
    return np.exp(log_mag + log_scale) * np.exp(-1j * m * np.angle(z))


def basis_fn(twice_s: int, m, z):
    """Basis function U_m(z) = binom(2s+m-1,m)^(1/2) (1-|z|^2)^s conj(z)^m.

    ``m`` and ``z`` broadcast against each other; the magnitude is assembled
    in the log domain so large m and |z| near 1 do not overflow.
    """
    twice_s = check_twice_s(twice_s)
    m_arr = check_indices(m, "basis index m")
    z_arr = as_disk_points(z)
    return _scalar_or_array(_basis_values(twice_s, m_arr, z_arr), m_arr, z_arr)


def overlap(twice_s: int, z, w):
    """Coherent-state overlap <z|w>; equals 1 at z = w, |overlap| <= 1.

    The integer power 2s of (1-|z|^2)^(1/2) (1-|w|^2)^(1/2) / (1 - w*conj(z)),
    a base of modulus at most 1 (|1 - w conj(z)|^2 - (1-|z|^2)(1-|w|^2) =
    |z - w|^2): no branch ambiguity anywhere on the disk, and near the rim no
    quotient of two underflowed powers.  1 - w conj(z) is taken as
    (1-|z|^2) + conj(z) (z - w), which does not cancel near the diagonal.
    """
    twice_s = check_twice_s(twice_s)
    z_arr, w_arr = as_disk_points(z), as_disk_points(w)
    return _scalar_or_array(_overlap(twice_s, z_arr, w_arr), z_arr, w_arr)


def _overlap(twice_s: int, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`overlap` of checked arguments, as one array of their broadcast shape."""
    rim = _one_minus_mod2(z)
    # one exponential per point, not one per pair
    w_root = np.exp(0.5 * _log_one_minus_mod2(_one_minus_mod2(w)))
    root = np.exp(0.5 * _log_one_minus_mod2(rim)) * w_root
    # in place: fewer large temporaries per block of points, fewer page faults
    base = np.asarray(z - w)
    base *= np.conj(z)
    base += rim[0]
    np.divide(root, base, out=base)
    # **= keeps numpy's fast path for small exponents (a square at 2s = 2)
    base **= twice_s
    return base


#: Query points evaluated together.  Every pointwise function works on one
#: block at a time, so its temporaries are O(_BLOCK) (times N where it sums
#: over the N grid points) whatever the number of query points.
_BLOCK = 1024

#: Largest number of basis indices per segment of the upward recurrence;
#: a point's sum may end at the end of any segment.
_SEGMENT = 64

#: A segment is shorter than ``_SEGMENT`` where the product of its steps
#: sqrt((2s+m-1)/m) would exceed exp(_LOG_STEPS_MAX) (2s above about
#: 3.4e9), so that the folded coefficients stay finite: each is a scaled
#: coefficient (``DiskSignal._scaled``), of parts below 2, times at most this.
_LOG_STEPS_MAX = 600.0

#: Segments summed together are this many over the number of points: four
#: per full block, so that a sum that ends early wastes little work, and
#: many for a single point, so that it costs a few numpy calls.
_GROUP = 4 * 1024

#: Once a segment starts below this, a point's later terms are zero.
#: Without it a decaying term reaches the subnormal range, where arithmetic
#: is slow and x * c rounds back up to the smallest subnormal for c > 1/2,
#: so the terms would never reach zero.
_FLUSH = 2.0**-1000

#: Seeds are carried times this, the first power of two above exp(_LOG_STEPS_MAX),
#: the most a segment rises: one whose segment reaches ``_FLUSH`` is normal scaled.
_SEED_SCALE = 2.0 ** int(np.ceil(_LOG_STEPS_MAX / np.log(2.0)))


def _pointwise(values, points: np.ndarray) -> np.ndarray:
    """Apply ``values`` to the validated 1-d array of query ``points``.

    ``values`` maps a 1-d block of at most ``_BLOCK`` points to one complex
    value per point.  It must treat each point on its own, so that a
    point's value does not depend on the rest of the query.
    """
    out = np.empty(points.size, dtype=np.complex128)
    for start in range(0, points.size, _BLOCK):
        out[start : start + _BLOCK] = values(points[start : start + _BLOCK])
    return out


def _segment_length(twice_s: int) -> int:
    """Indices per segment: ``_SEGMENT``, or as many as keep the product of
    the steps sqrt((2s+m-1)/m) within exp(_LOG_STEPS_MAX).  The steps fall
    with m, so the first segment's product is the largest."""
    m = np.arange(1, _SEGMENT + 1, dtype=np.float64)
    log_products = np.cumsum(0.5 * np.log1p((twice_s - 1.0) / m))
    return max(1, int(np.searchsorted(log_products, _LOG_STEPS_MAX, side="right")))


def _segment_rows(values: np.ndarray, length: int, fill=0.0) -> np.ndarray:
    """``values`` padded with ``fill`` to whole segments, one segment per row."""
    rows = np.full(-(-values.size // length) * length, fill, dtype=values.dtype)
    rows[: values.size] = values
    return rows.reshape(-1, length)


def _segment_polynomials(twice_s: int, coefficients: np.ndarray):
    """What :func:`evaluate_signal` needs of a signal, taken once per signal.

    Returns (a_0, folded, ratios) of the scaled coefficients a (``DiskSignal._scaled``).
    ``folded`` holds the segment rows A_gk = a_(gK+k+1) P_gk, P_gk the running
    products of the steps, as a real (G, 2, 2K) array: row (g, 0) dotted with
    the interleaved real and imaginary parts of w_k gives Re sum_k A_gk w_k,
    row (g, 1) the imaginary part.  ``ratios`` is each segment's product P_g,K-1.
    """
    length = _segment_length(twice_s)
    m = np.arange(1, coefficients.size, dtype=np.float64)
    products = np.multiply.accumulate(
        _segment_rows(np.sqrt((twice_s - 1.0 + m) / m), length), axis=1
    )
    rows = _segment_rows(coefficients[1:], length) * products
    folded = np.empty((rows.shape[0], 2, 2 * rows.shape[1]))
    folded[:, 0, 0::2] = folded[:, 1, 1::2] = rows.real
    folded[:, 0, 1::2] = -rows.imag
    folded[:, 1, 0::2] = rows.imag
    return coefficients[0], _read_only(folded), _read_only(products[:, -1])


def _mode(twice_s: int, rim):
    """floor((2s-1)|z|^2 / (1-|z|^2)) from ``rim = _one_minus_mod2(z)``: NB(m; 2s, 1-|z|^2),
    hence |U_m(z)| and lambda_m at r = |z|, rises in m up to this index and falls after."""
    return np.floor((twice_s - 1.0) * rim[2] / rim[0])


def _seeds(twice_s: int, length: int, count: int, z: np.ndarray):
    """(g0, U_{g0 K}(z) ``_SEED_SCALE``) at points z whose U_0 is below ``_FLUSH``.

    g0 <= ``count`` is the last g with U_gK below ``_FLUSH`` and gK at most
    the :func:`_mode`, up to which |U_m| rises, so every term left out,
    m <= g0 K, is below ``_FLUSH``; found by bisection.
    """
    rim = _one_minus_mod2(z)
    mode = _mode(twice_s, rim)
    low, high = np.zeros(z.size, dtype=np.int64), np.full(z.size, count + 1)
    while (high - low > 1).any():
        middle = (low + high) // 2
        m = length * middle
        below = (m <= mode) & (_log_pmf(twice_s, m, rim) < 2.0 * np.log(_FLUSH))
        low, high = np.where(below, middle, low), np.where(below, high, middle)
    return low, _basis_values(twice_s, length * low, z, np.log(_SEED_SCALE))


def _upward_sum(twice_s, a0, folded, ratios, z):
    """sum_m a_m U_m(z) at each point, from U_m = U_{m-1} steps_m conj(z).

    Segment g of K indices starts at S_g = U_{gK}, and its terms are
    S_g P_gk conj(z)^(k+1) with P_gk the product of its first k+1 steps, so
    its sum is S_g times the polynomial sum_k A_gk conj(z)^(k+1), whose
    coefficients are ``folded``.  The starts follow from
    S_(g+1) = S_g conj(z)^K P_g,K-1 (``ratios``).  They are true basis
    values, |S_g| <= 1 because sum_m |U_m|^2 = <z|z> = 1, so no start
    overflows.  Once a segment starts below ``_FLUSH``, the later terms of
    that point are zero; |U_m| only falls once it falls, and S_0 = U_0 is at
    least ``_FLUSH``, so this drops terms past the peak only.  A point whose
    U_0 is below it starts at S_entry = seed from :func:`_seeds` instead, and
    carries its starts, flush level and sum times ``_SEED_SCALE``.
    """
    conj_z = np.conj(z)
    # conj(z)^1..conj(z)^K, each the one before times conj(z) as in the recurrence
    powers = np.empty((z.size, folded.shape[2] // 2), dtype=np.complex128)
    powers[:] = conj_z[:, np.newaxis]
    np.multiply.accumulate(powers, axis=1, out=powers)
    interleaved = powers.view(np.float64)
    u0 = np.exp(0.5 * twice_s * _log_one_minus_mod2(_one_minus_mod2(z)))
    total = a0 * u0
    start = u0.astype(np.complex128)
    seeded = u0 < _FLUSH
    flush, lowest, last = _FLUSH, 0, -1
    if seeded.any():
        entry, seed = np.full(z.size, -1), np.zeros(z.size, dtype=np.complex128)
        entry[seeded], seed[seeded] = _seeds(twice_s, powers.shape[1], len(ratios), z[seeded])
        total[seeded] = 0.0
        flush = np.where(seeded, _FLUSH * _SEED_SCALE, _FLUSH)[:, np.newaxis]
        lowest, last = max(0, entry.min()), entry.max()
    group = max(1, _GROUP // z.size)
    for first in range(lowest, folded.shape[0], group):
        rows = folded[first : first + group]
        starts = np.empty((z.size, rows.shape[0] + 1), dtype=np.complex128)
        starts[:, 0] = start
        np.multiply(powers[:, -1:], ratios[first : first + rows.shape[0]], out=starts[:, 1:])
        if first > last:
            np.multiply.accumulate(starts, axis=1, out=starts)
            starts[~np.logical_and.accumulate(np.abs(starts) >= flush, axis=1)] = 0.0
        else:
            # columns before a seed's are 1 through the products, then 0
            column = np.arange(starts.shape[1]) - (entry - first)[:, np.newaxis]
            before, at = column < 0, column == 0
            starts[before] = 1.0
            starts[at] = seed[at.any(axis=1)]
            np.multiply.accumulate(starts, axis=1, out=starts)
            live = (np.abs(starts) >= flush) | before | at
            starts[before | ~np.logical_and.accumulate(live, axis=1)] = 0.0
        sums = np.einsum("qx,yx->qy", interleaved, rows.reshape(-1, rows.shape[2]))
        sums = sums.view(np.complex128)
        np.multiply(sums, starts[:, :-1], out=sums)
        # one segment after another, an order fixed by m alone: a BLAS
        # product's rounding would depend on the shape of the whole operand
        total = np.add.accumulate(np.hstack([total[:, np.newaxis], sums]), axis=1)[:, -1]
        start = starts[:, -1]
        if not start.any() and first + rows.shape[0] >= last:
            break
    if last >= 0:
        total[seeded] /= _SEED_SCALE
    return total


def evaluate_signal(signal: DiskSignal, z):
    """Pointwise value sum_m a_m U_m(z) of a finite-coefficient signal.

    Evaluated by the upward recurrence U_m = U_{m-1} sqrt((2s+m-1)/m) conj(z)
    from U_0 = (1-|z|^2)^s, one segment of indices at a time as a polynomial
    in conj(z), over blocks of query points, so memory is O(block) and no
    L x Q basis matrix is formed.  Where U_0 is below the flush level 2^-1000
    (large s near the rim), it starts later, at the last segment start below
    that level on the rising side of |U_m|, taken once from the log domain.
    Every choice is made per point, so a value never depends on the query.
    A value beyond the double range raises ``NumericalRangeError`` naming it.
    """
    z_arr = as_disk_points(z)
    sums = _pointwise(lambda b: _upward_sum(signal.twice_s, *signal._segments, b), z_arr.ravel())
    return _scalar_or_array(in_range(lambda v: v * signal._scaled[0], sums, "value"), z_arr)


def _log_ring_weights(twice_s: int, radius: float, count: int) -> np.ndarray:
    """log U_n(r) = log NB(n; 2s, 1-r^2)^(1/2), n = 0..count-1: a_n's weight in a ring sample."""
    return 0.5 * _log_pmf(twice_s, np.arange(count, dtype=np.float64), _one_minus_mod2(radius))


def sample_signal(signal: DiskSignal, grid: SamplingGrid) -> np.ndarray:
    """Signal values at all grid points via one length-N forward DFT.

    The scaled coefficients a_m U_m(r), U_m(r) = binom^(1/2) r^m (1-r^2)^s,
    are folded by residue m mod N, so the cost is O(L + N log N) instead of
    O(L*N); :func:`_ring_coefficients` inverts it.  A sample beyond the
    double range raises ``NumericalRangeError`` naming it.  Agrees with
    :func:`evaluate_signal` at every grid point to 1e-12 relative.
    """
    _check_grid(grid)
    weights = np.exp(_log_ring_weights(signal.twice_s, grid.radius, len(signal)))
    folded = _segment_rows(signal._scaled[1] * weights, grid.n_samples).sum(axis=0)
    return in_range(lambda f: np.fft.fft(f) * signal._scaled[0], folded, "sample")


def _ring_dft(samples: np.ndarray, n_max: int) -> np.ndarray:
    """d_(n mod N), n = 0..n_max, with d_j = (1/N) sum_k e^(2 pi i jk/N) Psi(z_k),
    the inverse of :func:`sample_signal`'s DFT: the class sums of a_n U_n(r).
    A d_j beyond the double range raises ``NumericalRangeError`` (``in_range``)."""
    return in_range(np.fft.ifft, samples, "d")[np.arange(n_max + 1) % samples.size]


def _ring_coefficients(twice_s: int, grid: SamplingGrid, samples, n_max: int, name: str):
    """a_n = d_(n mod N) / U_n(r), n = 0..n_max, from validated samples, in
    one exponent: a signal of band limit n_max < N, or the alias rescaled.
    A value beyond the double range raises ``NumericalRangeError`` (``name``_n)."""
    log_weights = _log_ring_weights(twice_s, grid.radius, n_max + 1)
    return times_exp(_ring_dft(samples, n_max), -log_weights, name)
