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


class EigenvalueCrossCheckError(RuntimeError):
    """A kernel's eigenvalue check failed, or a series did not terminate: an
    implementation fault, not a data error, since every check allows for its
    own rounding.  A series that did not terminate may also converge but
    need more terms than its cap, as the class tails do where r^(2N) exceeds
    about 1 - 2.3e-5.  ``check`` (``"fft"`` or ``"spot"``), the eigenvalue
    ``j`` and the relative ``gap`` name a failed check; they are None for a
    series.
    """

    def __init__(self, message: str, j=None, gap=None, check=None):
        super().__init__(message)
        self.j, self.gap, self.check = j, gap, check


class ConditioningWarning(UserWarning):
    """An operator is ill-conditioned; results may lose up to all digits."""


class NotFittedError(ValueError):
    """An estimator method requiring a fit was called before ``fit``."""


def check_twice_s(twice_s) -> int:
    """Validate a doubled spin index 2s (integer, at least 2)."""
    value = int(twice_s)
    if value != twice_s:
        raise ValueError(f"twice_s must be an integer, got {twice_s!r}")
    if value < 2:
        raise ValueError(f"twice_s must be >= 2 (s >= 1), got {value}")
    return value


def check_radius(radius) -> float:
    """Validate a sampling-ring radius, strictly inside (0, 1)."""
    value = float(radius)
    if not 0.0 < value < 1.0:
        raise ValueError(f"ring radius must satisfy 0 < r < 1, got {value!r}")
    return value


def check_n_samples(n_samples) -> int:
    """Validate a sample count (integer, at least 1)."""
    value = int(n_samples)
    if value != n_samples or value < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    return value


def check_band_limit(band_limit, n_samples=None) -> int:
    """Validate a band limit M >= 0, optionally requiring M < n_samples."""
    value = int(band_limit)
    if value != band_limit or value < 0:
        raise ValueError(f"band limit must be a nonnegative integer, got {band_limit!r}")
    if n_samples is not None and value >= n_samples:
        raise ValueError(
            f"band limit {value} too large: need more samples than coefficients "
            f"(n_samples={n_samples})"
        )
    return value


def check_epsilon_m(epsilon_m) -> float:
    """Validate a relative tail amplitude eps_M in [0, 1)."""
    if not 0.0 <= epsilon_m < 1.0:
        raise ValueError(f"epsilon_m must lie in [0, 1), got {epsilon_m!r}")
    return epsilon_m


def check_index(n, name: str = "n") -> int:
    """Validate a nonnegative integer index."""
    value = int(n)
    if value != n or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    return value


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
