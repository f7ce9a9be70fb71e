"""Input validation helpers, a range-checked scaling and shared error types."""

from __future__ import annotations

import numpy as np

#: Condition numbers above this are flagged as ill-conditioned.
CONDITION_LIMIT = 1e12


class NumericalRangeError(ArithmeticError):
    """A quantity left the representable floating-point range.

    The log-domain value is retained in ``log_value`` so callers can keep
    working with it even though the linear value is not representable.
    """

    def __init__(self, message: str, log_value: float):
        super().__init__(f"{message} (log value {log_value!r})")
        self.log_value = log_value


def times_exp(values: np.ndarray, log_factor: np.ndarray, name: str) -> np.ndarray:
    """values * exp(log_factor), where the factor may leave the double range.

    Where the plain product is finite it is returned as it is; elsewhere the
    product is taken in one exponent, exp(log|v| + log_factor) times v/|v|,
    so a zero or small value times a factor beyond the range is finite.  A
    product beyond the range raises ``NumericalRangeError`` naming entry j
    as ``name``_j, with the log of its modulus.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = values * np.exp(log_factor)
        wide = np.flatnonzero(~np.isfinite(out))
        if wide.size:
            modulus = np.abs(values[wide])
            log_modulus = np.log(modulus) + log_factor[wide]
            phase = np.divide(values[wide], modulus, out=np.zeros(wide.size, complex),
                              where=modulus > 0)
            out[wide] = np.exp(log_modulus) * phase
            beyond = ~np.isfinite(out[wide])
            if beyond.any():
                j = int(np.argmax(beyond))
                raise NumericalRangeError(
                    f"{name}_{wide[j]} beyond the double range", float(log_modulus[j])
                )
    return out


def in_range(apply, vector: np.ndarray, name: str) -> np.ndarray:
    """``apply(vector)`` for a linear map ``apply`` of 1-d arrays.  An entry
    it leaves non-finite is taken again from the vector over a power of two,
    then multiplied back, both exact; one still not finite raises
    ``NumericalRangeError`` naming entry j as ``name``_j, with log |entry|."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = apply(vector)
        wide = np.flatnonzero(~np.isfinite(out))
        if wide.size:
            scale = 2.0 ** (int(np.frexp(np.abs(vector).max())[1]) - 1)
            scaled = apply(vector / scale)[wide]
            out[wide] = scaled * scale
            beyond = ~np.isfinite(out[wide])
            if beyond.any():
                j = int(np.argmax(beyond))
                log_modulus = np.log(np.abs(scaled[j])) + np.log(scale)
                raise NumericalRangeError(
                    f"{name}_{wide[j]} beyond the double range", float(log_modulus)
                )
    return out


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


def _integer(value, message: str, least=None) -> int:
    """int(value), or ``ValueError(message)`` where value is not an integer
    (None, NaN and the infinities included) or is below ``least``."""
    try:
        result = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None
    if result != value or (least is not None and result < least):
        raise ValueError(message)
    return result


def _real(value, name: str) -> float:
    """float(value), or ``ValueError`` naming ``name`` for None, a string or a complex."""
    if not isinstance(value, (str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _real_array(value, message: str) -> np.ndarray:
    """``value`` as a float64 array (None becomes NaN), or ``ValueError(message)``
    for strings, complex numbers, or objects that float64 does not take."""
    arr = np.asarray(value)
    if arr.dtype.kind in "biufO":
        try:
            return arr.astype(np.float64, copy=False)
        except (TypeError, ValueError):
            pass
    raise ValueError(message)


def check_twice_s(twice_s) -> int:
    """Validate a doubled spin index 2s (integer, at least 2)."""
    value = _integer(twice_s, f"twice_s must be an integer, got {twice_s!r}")
    if value < 2:
        raise ValueError(f"twice_s must be >= 2 (s >= 1), got {value}")
    return value


def check_radius(radius) -> float:
    """Validate a sampling-ring radius, strictly inside (0, 1)."""
    value = _real(radius, "ring radius")
    if not 0.0 < value < 1.0:
        raise ValueError(f"ring radius must satisfy 0 < r < 1, got {value!r}")
    return value


def check_n_samples(n_samples) -> int:
    """Validate a sample count (integer, at least 1)."""
    return _integer(n_samples, f"n_samples must be a positive integer, got {n_samples!r}", 1)


def check_band_limit(band_limit, n_samples=None) -> int:
    """Validate a band limit M >= 0, optionally requiring M < n_samples."""
    message = f"band limit must be a nonnegative integer, got {band_limit!r}"
    value = _integer(band_limit, message, 0)
    if n_samples is not None and value >= n_samples:
        raise ValueError(
            f"band limit {value} too large: need more samples than coefficients "
            f"(n_samples={n_samples})"
        )
    return value


def check_epsilon_m(epsilon_m) -> float:
    """Validate a relative tail amplitude eps_M in [0, 1)."""
    value = _real(epsilon_m, "epsilon_m")
    if not 0.0 <= value < 1.0:
        raise ValueError(f"epsilon_m must lie in [0, 1), got {epsilon_m!r}")
    return value


def check_index(n, name: str = "n") -> int:
    """Validate a nonnegative integer index."""
    return _integer(n, f"{name} must be a nonnegative integer, got {n!r}", 0)


def check_indices(n, message: str) -> np.ndarray:
    """The array form of :func:`check_index`: ``n`` as a float64 array of
    nonnegative integer values, or ``ValueError(message)``; strings, complex
    numbers, None, NaN and the infinities are refused."""
    values = _real_array(n, message)
    if not np.all(np.isfinite(values) & (values >= 0) & (values == np.floor(values))):
        raise ValueError(message)
    return values


def check_grid_index(k, n_samples: int) -> int:
    """Validate the index k of a ring point, 0 <= k < n_samples."""
    value = check_index(k, "k")
    if value >= n_samples:
        raise ValueError(f"grid index k must satisfy 0 <= k < {n_samples}, got {value}")
    return value


def as_disk_points(z) -> np.ndarray:
    """Coerce to a complex array and require every point inside the open disk."""
    arr = np.asarray(z, dtype=np.complex128)
    mod2 = arr.real * arr.real + arr.imag * arr.imag
    if not np.all(np.isfinite(mod2)):
        raise ValueError("disk points must be finite")
    if np.any(mod2 >= 1.0):
        worst = np.max(mod2)
        raise ValueError(f"points must lie inside the open unit disk (got |z|^2 = {worst!r})")
    return arr


def as_coefficients(coefficients) -> np.ndarray:
    """Coerce to a 1-d complex coefficient array with at least one entry."""
    arr = np.atleast_1d(np.asarray(coefficients, dtype=np.complex128))
    if arr.ndim != 1:
        raise ValueError(f"coefficients must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("coefficient sequence must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    return arr


def as_samples(samples, n_samples: int) -> np.ndarray:
    """Coerce to a complex sample vector of the expected length."""
    arr = np.atleast_1d(np.asarray(samples, dtype=np.complex128))
    if arr.shape != (n_samples,):
        raise ValueError(f"expected {n_samples} samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr
