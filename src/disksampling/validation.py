"""The one parser of every number a caller passes in, the rules for results
that cross the double range, and shared error types."""

from __future__ import annotations

import numpy as np

#: Condition numbers above this are flagged as ill-conditioned.
CONDITION_LIMIT = 1e12


class _Conditioned:
    """The conditioning of an operator judged by the spread of its positive
    spectrum, whose logs each record names ``_log_spectrum``: the frame's
    lambda_0..lambda_M and the circulant kernel's lhat_j."""

    @property
    def n_samples(self) -> int:
        return self.grid.n_samples

    @property
    def condition_number(self) -> float:
        """max/min of the operator's spectrum, from its logs, inf where that
        leaves the double range."""
        with np.errstate(over="ignore"):
            return float(np.exp(np.ptp(self._log_spectrum)))

    @property
    def is_ill_conditioned(self) -> bool:
        return self.condition_number > CONDITION_LIMIT


class NumericalRangeError(ArithmeticError):
    """A quantity left the representable floating-point range.

    The log-domain value is retained in ``log_value`` so callers can keep
    working with it even though the linear value is not representable.
    """

    def __init__(self, message: str, log_value: float):
        super().__init__(f"{message} (log value {log_value!r})")
        self.log_value = log_value


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values``, marked read-only: every array a record stores, caches or
    views is, so a caller cannot change what later calls read."""
    values.flags.writeable = False
    return values


def from_log(log_values: np.ndarray, name: str, indices=None) -> np.ndarray:
    """exp(log_values) for positive quantities kept in the log domain.  The
    first entry that is no positive double raises ``NumericalRangeError``
    naming it ``name``_n, n its position or its entry in ``indices``."""
    with np.errstate(over="ignore", under="ignore"):
        values = np.exp(log_values)
    lost = (values == 0.0) | ~np.isfinite(values)
    if lost.any():
        j = int(np.argmax(lost))
        n = j if indices is None else int(np.ravel(indices)[j])
        message = f"{name}_{n} not representable as a positive double"
        raise NumericalRangeError(message, float(log_values.flat[j]))
    return values


def _retake(out: np.ndarray, wide: np.ndarray, retake, name: str, indices=None) -> np.ndarray:
    """``out`` with the entries ``wide`` replaced by the values of ``retake(wide)``
    = (values, log moduli), for :func:`times_exp` and :func:`in_range`; one
    still not finite raises ``NumericalRangeError`` naming it ``name``_n, n
    its position or its entry in ``indices``."""
    if wide.size:
        values, log_modulus = retake(wide)
        out[wide] = values
        beyond = ~np.isfinite(values)
        if beyond.any():
            j = int(np.argmax(beyond))
            n = wide[j] if indices is None else int(np.ravel(indices)[wide[j]])
            message = f"{name}_{n} beyond the double range"
            raise NumericalRangeError(message, float(log_modulus[j]))
    return out


def times_exp(values: np.ndarray, log_factor: np.ndarray, name: str, indices=None) -> np.ndarray:
    """values * exp(log_factor): the plain product where the factor is normal
    and the product finite, elsewhere exp(log|v| + log_factor) v/|v| in one
    exponent, so a factor out of the normal range costs no digits.  A product
    beyond the double range is refused by name as in :func:`_retake`."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        factor = np.exp(log_factor)
        out = values * factor

        def one_exponent(wide):
            parts = values[wide].view(np.float64).reshape(wide.size, -1)
            modulus = np.abs(values[wide])[:, np.newaxis]
            log_modulus = np.log(modulus[:, 0]) + log_factor[wide]
            # v/|v| by parts, as reals: a complex quotient forms 1/|v|, which
            # overflows where |v| is subnormal
            phase = np.divide(parts, modulus, out=np.zeros_like(parts), where=modulus > 0)
            return np.exp(log_modulus) * phase.view(values.dtype)[:, 0], log_modulus

        wide = ~np.isfinite(out) | (factor < np.finfo(np.float64).tiny)
        return _retake(out, np.flatnonzero(wide), one_exponent, name, indices)


def in_range(apply, vector: np.ndarray, name: str) -> np.ndarray:
    """``apply(vector)`` for a linear map ``apply`` of 1-d arrays; an entry it
    leaves non-finite is taken again from the vector over a power of two,
    then multiplied back, both exact."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = apply(vector)

        def scaled(wide):
            scale = 2.0 ** (int(np.frexp(np.abs(vector).max())[1]) - 1)
            taken = apply(vector / scale)[wide]
            return taken * scale, np.log(np.abs(taken)) + np.log(scale)

        return _retake(out, np.flatnonzero(~np.isfinite(out)), scaled, name)


class EigenvalueCrossCheckError(RuntimeError):
    """A kernel's eigenvalue check failed: an implementation fault, not a
    data error, since every check allows for its own rounding.  ``check``
    (``"fft"`` or ``"spot"``) names the check, ``j`` the eigenvalue and
    ``gap`` its relative gap.
    """

    def __init__(self, message: str, j=None, gap=None, check=None):
        super().__init__(message)
        self.j, self.gap, self.check = j, gap, check


class SeriesBudgetError(ArithmeticError):
    """A series needs more terms than its budget to reach its tolerance: a
    limit of the summation, not a fault in the data or the code.  ``series``
    names the series and ``budget`` is the number of terms it may sum.
    """

    def __init__(self, series: str, budget: int):
        super().__init__(f"{series} series needs more than its budget of {budget} terms")
        self.series, self.budget = series, budget


class ConditioningWarning(UserWarning):
    """An operator is ill-conditioned; results may lose up to all digits."""


def _parse(value, name: str, kind: str, least=-np.inf, integral=False, scalar=False, dtype=float):
    """The one parser of every number a caller passes in: ``value`` as a
    float64 (complex128 for ``dtype=complex``) array, or for a ``scalar`` an
    int (``integral``) or a float.  "``name`` must be ``kind``" (with the
    value, for a ``scalar``) refuses strings, bytes, None and ragged input, in
    object arrays too (only those are scanned); complex numbers for a real
    ``dtype``; an array for a ``scalar``; and, where ``integral``, entries no
    finite integer or below ``least``.  "... below 2**52" refuses an
    ``integral`` entry from 2**52 on (float64 holds every integer below it, and
    every sum 2s + n of two), "... within the double range" an integer beyond."""
    real = np.dtype(dtype).kind == "f"
    refused = (str, bytes, type(None)) + ((complex, np.complexfloating) if real else ())
    try:
        arr = np.asarray(value)
        numeric = arr.dtype.kind in ("biuf" if real else "biufc") or arr.dtype.kind == "O" and (
            not any(isinstance(v, refused) for v in arr.flat))
        values = arr.astype(dtype, copy=False) if numeric and not (scalar and arr.ndim) else None
    except OverflowError:
        limit = "below 2**52" if integral else "within the double range"
        raise ValueError(f"{name} must be {kind} {limit}") from None
    except (TypeError, ValueError):
        values = None
    if integral and values is not None:
        whole = (values == np.floor(values)) & (values >= least)
        if not (whole & (np.abs(values) < 2.0**52)).all():
            if (whole & np.isfinite(values)).all():
                raise ValueError(f"{name} must be {kind} below 2**52")
            values = None
    if values is None:
        raise ValueError(f"{name} must be {kind}" + (f", got {value!r}" if scalar else ""))
    return (int(values) if integral else float(values)) if scalar else values


def check_twice_s(twice_s) -> int:
    """Validate a doubled spin index 2s (integer, at least 2)."""
    value = _parse(twice_s, "twice_s", "an integer", integral=True, scalar=True)
    if value < 2:
        raise ValueError(f"twice_s must be >= 2 (s >= 1), got {value}")
    return value


def check_radius(radius) -> float:
    """Validate a sampling-ring radius, strictly inside (0, 1)."""
    value = _parse(radius, "ring radius", "a real number", scalar=True)
    if not 0.0 < value < 1.0:
        raise ValueError(f"ring radius must satisfy 0 < r < 1, got {value!r}")
    return value


def check_n_samples(n_samples) -> int:
    """Validate a sample count (integer, at least 1)."""
    return _parse(n_samples, "n_samples", "a positive integer", 1, integral=True, scalar=True)


def check_band_limit(band_limit, n_samples=None) -> int:
    """Validate a band limit M >= 0, optionally requiring M < n_samples."""
    value = _parse(band_limit, "band limit", "a nonnegative integer", 0, integral=True,
                   scalar=True)
    if n_samples is not None and value >= n_samples:
        raise ValueError(
            f"band limit {value} too large: need more samples than coefficients "
            f"(n_samples={n_samples})"
        )
    return value


def check_epsilon_m(epsilon_m) -> float:
    """Validate a relative tail amplitude eps_M in [0, 1)."""
    value = _parse(epsilon_m, "epsilon_m", "a real number", scalar=True)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"epsilon_m must lie in [0, 1), got {epsilon_m!r}")
    return value


def check_index(n, name: str = "n") -> int:
    """Validate a nonnegative integer index."""
    return _parse(n, name, "a nonnegative integer", 0, integral=True, scalar=True)


def check_indices(n, name: str = "n") -> np.ndarray:
    """The array form of :func:`check_index`, as a float64 array."""
    return _parse(n, name, "a nonnegative integer", 0, integral=True)


def check_grid_index(k, n_samples: int) -> int:
    """Validate the index k of a ring point, 0 <= k < n_samples."""
    value = check_index(k, "k")
    if value >= n_samples:
        raise ValueError(f"grid index k must satisfy 0 <= k < {n_samples}, got {value}")
    return value


def as_disk_points(z) -> np.ndarray:
    """Parse as a complex array and require every point inside the open disk."""
    arr = _parse(z, "disk points", "complex numbers", dtype=complex)
    mod2 = arr.real * arr.real + arr.imag * arr.imag
    if not np.all(np.isfinite(mod2)):
        raise ValueError("disk points must be finite")
    if np.any(mod2 >= 1.0):
        raise ValueError(f"points must lie inside the open unit disk (got |z|^2 = {mod2.max()!r})")
    return arr


def as_coefficients(coefficients) -> np.ndarray:
    """Parse as a 1-d complex coefficient array with at least one entry."""
    arr = np.atleast_1d(_parse(coefficients, "coefficients", "complex numbers", dtype=complex))
    if arr.ndim != 1:
        raise ValueError(f"coefficients must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("coefficient sequence must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    return arr


def as_samples(samples, n_samples: int) -> np.ndarray:
    """Parse as a complex sample vector of the expected length."""
    arr = np.atleast_1d(_parse(samples, "samples", "complex numbers", dtype=complex))
    if arr.shape != (n_samples,):
        raise ValueError(f"expected {n_samples} samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr
