"""Reference values for the benchmark's correctness check.

Computed from the generated inputs with numpy and the standard library only,
never through the package under test, and by different routes where the
package has a fast one: signals are summed with the upward recurrence of the
basis functions, circulant eigenvalues come from the lambda series in the log
domain, and the partial reconstruction solves the dense Gram system.
"""

from __future__ import annotations

import math

import numpy as np

_lgamma = np.vectorize(math.lgamma, otypes=[float])

# log(e^-60) ~ 1e-26: series terms below this share of the running sum are dropped.
_SERIES_LOG_CUTOFF = -60.0
_SERIES_BLOCK = 32
_MAX_SERIES_BLOCKS = 20_000


def log_binomial(twice_s: int, n) -> np.ndarray:
    """log binom(2s+n-1, n) for an integer array n."""
    n = np.asarray(n, dtype=np.float64)
    return _lgamma(twice_s + n) - _lgamma(n + 1.0) - math.lgamma(twice_s)


def log_lambda(twice_s: int, radius: float, n_samples: int, n) -> np.ndarray:
    """log lambda_n = log N + 2s log(1-r^2) + log binom(2s+n-1, n) + 2n log r."""
    n = np.asarray(n, dtype=np.float64)
    return (
        math.log(n_samples)
        + twice_s * math.log1p(-radius * radius)
        + log_binomial(twice_s, n)
        + 2.0 * n * math.log(radius)
    )


def grid_points(radius: float, n_samples: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(n_samples) / n_samples
    return radius * (np.cos(angles) + 1j * np.sin(angles))


def disk_points(rng: np.random.Generator, count: int, max_radius: float = 0.95) -> np.ndarray:
    """Points uniform in area on the disk of radius ``max_radius``."""
    moduli = max_radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return moduli * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def signal_values(twice_s: int, coefficients: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_m a_m U_m(z) via U_{m+1} = U_m sqrt((2s+m)/(m+1)) conj(z)."""
    z = np.asarray(z, dtype=np.complex128)
    basis = np.exp(0.5 * twice_s * np.log1p(-(z.real**2 + z.imag**2))).astype(np.complex128)
    conj_z = np.conj(z)
    total = coefficients[0] * basis
    for m in range(1, len(coefficients)):
        basis = basis * (math.sqrt((twice_s + m - 1) / m) * conj_z)
        total = total + coefficients[m] * basis
    return total


def _series_logsum(log_term) -> np.ndarray:
    """log sum_{q>=0} exp(log_term(q)) for a term that decays geometrically in q."""
    total = None
    for block in range(_MAX_SERIES_BLOCKS):
        q = np.arange(block * _SERIES_BLOCK, (block + 1) * _SERIES_BLOCK)
        logs = log_term(q)
        block_sum = np.logaddexp.reduce(logs, axis=-1)
        total = block_sum if total is None else np.logaddexp(total, block_sum)
        last, prev = logs[..., -1], logs[..., -2]
        if np.all(last < prev) and np.all(last - total < _SERIES_LOG_CUTOFF):
            return total
    raise ArithmeticError("reference series did not converge")


def log_kernel_eigenvalues(twice_s: int, radius: float, n_samples: int) -> np.ndarray:
    """log lhat_j = log sum_q lambda_{j+qN}, j = 0..N-1."""
    j = np.arange(n_samples)[:, np.newaxis]
    return _series_logsum(
        lambda q: log_lambda(twice_s, radius, n_samples, j + q[np.newaxis, :] * n_samples)
    )


def _spread(logs: np.ndarray) -> float:
    """max/min of exp(logs), saturating at ~1e304 instead of overflowing."""
    return math.exp(min(float(np.max(logs) - np.min(logs)), 700.0))


def kernel_condition(twice_s: int, radius: float, n_samples: int) -> float:
    return _spread(log_kernel_eigenvalues(twice_s, radius, n_samples))


def frame_condition(twice_s: int, radius: float, band_limit: int) -> float:
    return _spread(log_lambda(twice_s, radius, 1, np.arange(band_limit + 1)))


def radius_interval(condition, limit: float, lo: float, hi: float) -> tuple[float, float]:
    """The radii in [lo, hi] with condition(r) <= limit, assumed to form one interval.

    Located on a 200-point scan, then each edge is refined by bisection.
    """
    scan = np.linspace(lo, hi, 200)
    feasible = np.nonzero([condition(r) <= limit for r in scan])[0]
    if feasible.size == 0:
        raise ValueError(f"no radius in [{lo}, {hi}] has condition <= {limit:g}")

    def edge(inside, outside):
        for _ in range(40):
            mid = 0.5 * (inside + outside)
            if condition(mid) <= limit:
                inside = mid
            else:
                outside = mid
        return inside

    first, last = feasible[0], feasible[-1]
    r_lo = scan[first] if first == 0 else edge(scan[first], scan[first - 1])
    r_hi = scan[last] if last == scan.size - 1 else edge(scan[last], scan[last + 1])
    return float(r_lo), float(r_hi)


def alias_coefficients(twice_s, radius, n_samples, samples, n_max):
    """Filtered DFT ahat_0..ahat_{n_max} and its rescaled form ahat_n lhat/lambda_n."""
    n = np.arange(n_max + 1)
    residues = n % n_samples
    log_lam = log_lambda(twice_s, radius, n_samples, n)
    log_lhat = log_kernel_eigenvalues(twice_s, radius, n_samples)[residues]
    plus_dft = np.exp(2j * np.pi * np.outer(np.arange(n_samples), np.arange(n_samples)) / n_samples)
    plus_dft = (plus_dft @ samples) / math.sqrt(n_samples)
    ahat = np.exp(0.5 * log_lam - log_lhat) * plus_dft[residues]
    rescaled = np.exp(-0.5 * log_lam) * plus_dft[residues]
    return ahat, rescaled


def _overlap(twice_s: int, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<z|w> = (1-|z|^2)^s (1-|w|^2)^s / (1 - w conj(z))^(2s), broadcast."""
    half = 0.5 * twice_s
    z_part = np.exp(half * np.log1p(-np.abs(z) ** 2))
    w_part = np.exp(half * np.log1p(-np.abs(w) ** 2))
    return z_part * w_part / (1.0 - w * np.conj(z)) ** twice_s


def partial_reconstruction(twice_s, radius, samples, z):
    """Orthogonal projection onto the sampled coherent states, by a dense solve."""
    points = grid_points(radius, samples.size)
    gram = _overlap(twice_s, points[:, np.newaxis], points[np.newaxis, :])
    weights = np.linalg.solve(gram, samples)
    return _overlap(twice_s, np.asarray(z)[:, np.newaxis], points[np.newaxis, :]) @ weights


def tail_excess(twice_s: int, radius: float, n_samples: int, n: int) -> float:
    """eps_n = sum_{u>=1} lambda_{n+uN} / lambda_n."""
    base = float(log_binomial(twice_s, n))
    log_r2n = 2.0 * n_samples * math.log(radius)
    return float(np.exp(_series_logsum(
        lambda q: log_binomial(twice_s, n + (q + 1) * n_samples) - base + (q + 1) * log_r2n
    )))


def error_analysis_row(twice_s, coefficients, radius, n_samples):
    """(epsilon_m, exact_normalized_sq, bound, leading_bound) for band limit N-1,
    the leading bound in the CLI's default "printed" variant."""
    energies = np.abs(coefficients) ** 2
    norm_sq = float(energies.sum())
    eps_m = math.sqrt(float(energies[n_samples:].sum()) / norm_sq)
    length = coefficients.size
    log_lam = log_lambda(twice_s, radius, n_samples, np.arange(length))
    log_lhat = log_kernel_eigenvalues(twice_s, radius, n_samples)
    captured = 0.0
    for j in range(min(n_samples, length)):
        weights = np.exp(0.5 * log_lam[j::n_samples] - 0.5 * log_lhat[j])
        captured += abs(complex(np.sum(weights * coefficients[j::n_samples]))) ** 2
    exact = 1.0 - captured / norm_sq
    eps0 = tail_excess(twice_s, radius, n_samples, 0)
    eps_last = tail_excess(twice_s, radius, n_samples, n_samples - 1)
    em2 = eps_m * eps_m
    bound = (
        em2
        + (1.0 - em2) * eps0 / (1.0 + eps0)
        + 2.0 * math.sqrt(1.0 - em2) * eps_m * math.sqrt(n_samples * eps0) / (1.0 + eps_last)
    )
    if eps_m == 0.0:
        leading = 0.0
    else:
        log_common = (0.5 * math.log1p(-em2) + math.log(eps_m)
                      + 0.5 * math.log(n_samples) + n_samples * math.log(radius))
        leading = em2 + math.exp(log_common + 0.5 * float(log_binomial(twice_s, n_samples)))
    return eps_m, exact, bound, leading


def band_projection(twice_s: int, band_limit: int, radii: np.ndarray) -> np.ndarray:
    """P(r) = (1-r^2)^(2s) sum_{m<=M} binom(2s+m-1, m) r^(2m); 1 at r = 0."""
    m = np.arange(band_limit + 1, dtype=np.float64)
    lb = log_binomial(twice_s, m)
    out = np.ones(radii.size)
    for i, r in enumerate(radii):
        if r > 0.0:
            logs = twice_s * math.log1p(-r * r) + lb + 2.0 * m * math.log(r)
            out[i] = math.exp(float(np.logaddexp.reduce(logs)))
    return out


def critical_radius(twice_s: int, band_limit: int) -> float:
    return (1.0 + (twice_s - 1.0) / band_limit) ** -0.5
