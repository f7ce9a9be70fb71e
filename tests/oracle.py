"""Brute-force reference implementations backing the test suite.

Everything here deliberately avoids the factored/circulant shortcuts used by
the production paths: frames are materialized densely from the basis
functions, the Gram matrix is inverted by a generic Hermitian solve, and the
continuous resolution of unity is checked by plain tensor-product quadrature.
The exceptions are :func:`fourier_factor`, :func:`factored_frame`,
:func:`sample_space_projector` and :func:`circulant`, the dense forms of the
package's factored operators, which only tests need.
Desk scale only (L <= 128, N <= 64; the direct row DFT up to N = 256, the
alias error up to L = 2048); no performance targets.

The values the test suite stores (:func:`reference_values`) are computed in
mpmath and rounded to double once.  mpmath is pure Python, so unlike numpy's
vectorised exp/log, LAPACK and BLAS it gives the same bits on every platform.
Regenerate the committed reference file from the repository root with

    PYTHONPATH=src python tests/oracle.py > tests/fixtures/oracle_reference.json
"""

from __future__ import annotations

import functools
import json
import warnings

import mpmath as mp
import numpy as np

from disksampling.basis import (
    DiskSignal,
    ResolutionSpectrum,
    SamplingGrid,
    _log_one_minus_mod2,
    _one_minus_mod2,
    _pointwise,
    _scalar_or_array,
    basis_fn,
    overlap,
)
from disksampling.bandlimited import FrameMatrix
from disksampling.undersampled import CirculantKernel
from disksampling.validation import (
    CONDITION_LIMIT,
    ConditioningWarning,
    as_disk_points,
    check_grid_index,
    check_index,
    check_twice_s,
)

__all__ = [
    "QuadratureError",
    "alias_error",
    "band_projection",
    "bound_and_exact",
    "circulant",
    "dense_frame",
    "dense_projector",
    "dual_sinc_series",
    "factored_frame",
    "fourier_factor",
    "quadrature_basis",
    "quadrature_inner",
    "quadrature_norm",
    "random_signal",
    "reference_text",
    "reference_values",
    "row_dft_eigenvalues",
    "row_dft_log_eigenvalue",
    "sample_space_projector",
    "signal_values",
]

# Decimal working precision of the quadrature and the test signals.
_WORKDPS = 30

#: Seed of the random signals in the committed reference file.
REFERENCE_SEED = 20240601


class QuadratureError(RuntimeError):
    """Numerical quadrature did not converge; ``estimate`` holds the best value."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved estimate {estimate!r})")
        self.estimate = estimate


def dense_frame(twice_s: int, grid: SamplingGrid, n_coefficients: int) -> np.ndarray:
    """Dense N x L sampling matrix, entry (k, n) = U_n(z_k), no factored shortcut."""
    if n_coefficients < 1:
        raise ValueError(f"need at least one coefficient column, got {n_coefficients!r}")
    points = grid.points
    m = np.arange(n_coefficients)
    return basis_fn(twice_s, m[np.newaxis, :], points[:, np.newaxis])


def fourier_factor(fm: FrameMatrix) -> np.ndarray:
    """Rectangular Fourier factor F[k, n] = exp(-2*pi*i*k*n/N)/sqrt(N), N x (M+1)."""
    n = fm.n_samples
    k = np.arange(n)[:, np.newaxis]
    m = np.arange(fm.band_limit + 1)[np.newaxis, :]
    return np.exp(-2j * np.pi * k * m / n) / np.sqrt(n)


def factored_frame(fm: FrameMatrix) -> np.ndarray:
    """Dense N x (M+1) sampling matrix lambda_n^(1/2) F[k, n] from the factored form."""
    return np.exp(0.5 * fm.log_lambda)[np.newaxis, :] * fourier_factor(fm)


def sample_space_projector(fm: FrameMatrix) -> np.ndarray:
    """Orthogonal projector P = T (T*T)^(-1) T* onto the range of T.

    In factored form this collapses to F F* with F the rectangular Fourier
    factor; it is idempotent, self-adjoint and of trace M+1 (the identity at
    critical sampling).
    """
    f = fourier_factor(fm)
    return f @ f.conj().T


def circulant(row: np.ndarray) -> np.ndarray:
    """Dense N x N circulant matrix with entry [k, l] = row[(l - k) mod N]."""
    n = row.size
    return row[(np.arange(n)[np.newaxis, :] - np.arange(n)[:, np.newaxis]) % n]


def _gram_digits(twice_s: int, grid: SamplingGrid) -> int:
    """Working precision for the Gram solve, sized to the spread of the lambdas.

    The (1-r^2)^(2s) factor is common to all lambda_j and cancels in the spread.
    """
    with mp.workdps(15):
        log_r = mp.log(grid.radius)
        logs = [
            mp.log(mp.binomial(twice_s + j - 1, j)) + 2 * j * log_r
            for j in range(grid.n_samples)
        ]
        return 35 + int(mp.ceil((max(logs) - min(logs)) / mp.ln10))


def _halved_frame_mp(twice_s: int, grid: SamplingGrid, n_coefficients: int):
    """Frame T (rows) and the columns of Y = L^-1 T with B = L L*, in mpmath.

    The Gram matrix of overlaps is assembled pairwise and factored by plain
    Cholesky without any use of its circulant structure.  Extended precision
    is required because double-precision rounding of the Gram entries alone
    perturbs T* B^-1 T by ~eps * cond(B); work on the result at the same
    precision.  Y*Y is an orthogonal projector, so Y has entries bounded by 1.
    """
    n = grid.n_samples
    with mp.workdps(_gram_digits(twice_s, grid)):
        r = mp.mpf(grid.radius)
        s = mp.mpf(twice_s) / 2
        one = mp.mpf(1)
        points = [r * mp.expjpi(mp.mpf(2 * k) / n) for k in range(n)]
        prefactor = (one - r * r) ** s
        half_binom = [
            mp.sqrt(mp.gamma(twice_s + m) / (mp.gamma(m + 1) * mp.gamma(twice_s)))
            for m in range(n_coefficients)
        ]
        frame = []
        for k in range(n):
            conj_z = mp.conj(points[k])
            power = mp.mpc(1)
            row = []
            for m in range(n_coefficients):
                row.append(half_binom[m] * prefactor * power)
                power *= conj_z
            frame.append(row)
        gram = [
            [
                (one - abs(points[k]) ** 2) ** s
                * (one - abs(points[l]) ** 2) ** s
                / (one - points[l] * mp.conj(points[k])) ** twice_s
                for l in range(n)
            ]
            for k in range(n)
        ]
        lower = [[mp.mpc(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                acc = gram[i][j]
                for k in range(j):
                    acc -= lower[i][k] * mp.conj(lower[j][k])
                if i == j:
                    lower[i][j] = mp.sqrt(acc.real)
                else:
                    lower[i][j] = acc / lower[j][j]
        halved = []
        for m in range(n_coefficients):
            column = [mp.mpc(0)] * n
            for i in range(n):
                acc = frame[i][m]
                for k in range(i):
                    acc -= lower[i][k] * column[k]
                column[i] = acc / lower[i][i]
            halved.append(column)
    return frame, halved


def dense_projector(twice_s: int, grid: SamplingGrid, n_coefficients: int) -> np.ndarray:
    """Dense L x L sampled-span projector T* B^-1 T via a generic Hermitian solve.

    B is assembled as the pairwise Gram matrix of overlaps (not from the
    circulant row) and factored by plain Cholesky in extended precision,
    keeping this route independent of the production eigen-decomposition.
    Ill-conditioned B is reported through a :class:`ConditioningWarning`.
    """
    if n_coefficients < 1:
        raise ValueError(f"need at least one coefficient column, got {n_coefficients!r}")
    points = grid.points
    gram = overlap(twice_s, points[:, np.newaxis], points[np.newaxis, :])
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > CONDITION_LIMIT:
        warnings.warn(
            f"Gram matrix ill-conditioned (eigenvalue range {eigs[0]:.3e}..{eigs[-1]:.3e})",
            ConditioningWarning,
            stacklevel=2,
        )
    _, columns = _halved_frame_mp(twice_s, grid, n_coefficients)
    halved = np.array([[complex(v) for v in column] for column in columns]).T
    return halved.conj().T @ halved


def row_dft_eigenvalues(twice_s: int, grid: SamplingGrid) -> tuple[np.ndarray, float]:
    """Kernel eigenvalues by the direct O(N^2) DFT of the circulant first row.

    Same working precision rule as the production transform: 30 digits plus
    the decimal orders between 1 and the smallest lambda_j, j < N, plus the
    digits of N.  Every root and row entry is computed on its own and each
    output is accumulated term by term.  Returns (eigenvalues as float64,
    worst imaginary part relative to the largest eigenvalue).
    """
    n = grid.n_samples
    spectrum = ResolutionSpectrum(twice_s, grid)
    min_log = float(np.min(spectrum.log_values(np.arange(n))))
    digits = 30 + int(np.ceil(max(0.0, -min_log) / np.log(10.0))) + int(np.log10(n) + 1)
    with mp.workdps(digits):
        r2 = mp.mpf(grid.radius) ** 2
        one = mp.mpf(1)
        roots = [mp.expjpi(mp.mpf(2 * k) / n) for k in range(n)]
        row = [((one - r2) / (one - r2 * roots[l])) ** twice_s for l in range(n)]
        values = np.empty(n)
        worst_imag = mp.mpf(0)
        for j in range(n):
            acc = mp.mpc(0)
            for l in range(n):
                acc += row[l] * mp.conj(roots[(l * j) % n])
            values[j] = float(acc.real)
            worst_imag = max(worst_imag, abs(acc.imag))
        scale = max(values)
        residue = float(worst_imag / scale) if scale > 0 else float(worst_imag)
    return values, residue


def row_dft_log_eigenvalue(twice_s: int, grid: SamplingGrid, j: int) -> float:
    """log lhat_j by the direct sum of all N terms of the first row's DFT at
    the one index j, with 50 digits to spare: the working precision adds the
    decimal orders between 1 and the smallest lambda_i, i < N, and the
    digits of N.  Every root is computed on its own; no symmetry is used and
    no term is left out.
    """
    n = grid.n_samples
    min_log = float(np.min(ResolutionSpectrum(twice_s, grid).log_values(np.arange(n))))
    digits = 50 + int(np.ceil(max(0.0, -min_log) / np.log(10.0))) + int(np.log10(n) + 1)
    with mp.workdps(digits):
        r2 = mp.mpf(grid.radius) ** 2
        total = mp.fsum(
            ((1 - r2) / (1 - r2 * mp.expjpi(mp.mpf(2 * l) / n))) ** twice_s
            * mp.expjpi(mp.mpf(-2 * (j * l % n)) / n)
            for l in range(n)
        )
        return float(mp.log(total.real))


def dual_sinc_series(kernel: CirculantKernel, k: int, z):
    """Residue-class series form of the dual-frame kernel XiHat_k.

    The series sum_{n = j mod N} binom(2s+n-1, n) u^n equals
    (1/N) sum_l w^(-jl) (1 - w^l u)^(-2s) with w = exp(2*pi*i/N) and |u| < 1,
    which removes all truncation error.  An independent route to
    ``disksampling.dual_sinc_kernel``, which sums over the grid points
    instead; evaluated per block of points like the production functions.
    """
    n = kernel.n_samples
    k = check_grid_index(k, n)
    r = kernel.grid.radius
    s = kernel.twice_s / 2.0

    roots = np.exp(2j * np.pi * np.arange(n) / n)[:, np.newaxis]
    inverse_eigenvalues = 1.0 / kernel.eigenvalues
    log_one_minus_r2 = _log_one_minus_mod2(_one_minus_mod2(r))

    def values(z_flat):
        # u = r^2 * conj(z)/conj(z_k); |u| = r|z| < 1 keeps the sectioned sum exact.
        u = r * np.conj(z_flat) * np.exp(2j * np.pi * k / n)
        base = (1.0 - roots * u) ** (-kernel.twice_s)
        # sum_l w^(-jl) base_l for every j is one length-N DFT along the roots.
        sections = np.fft.fft(base, axis=0) / n
        log_one_minus = _log_one_minus_mod2(_one_minus_mod2(z_flat))
        prefactor = np.exp(
            s * (log_one_minus - log_one_minus_r2) + kernel.twice_s * log_one_minus_r2
        )
        return prefactor * np.einsum("j,jq->q", inverse_eigenvalues, sections)

    z_arr = as_disk_points(z)
    return _scalar_or_array(_pointwise(values, z_arr.ravel()), z_arr)


def signal_values(signal: DiskSignal, z, digits: int = 40) -> np.ndarray:
    """sum_m a_m U_m(z) at each point by the upward recurrence in mpmath.

    U_0 = (1-|z|^2)^s and U_m = U_{m-1} sqrt((2s+m-1)/m) conj(z), at
    ``digits`` decimal digits, each point taken exactly as the double it is
    (1 - |z|^2 from its real and imaginary parts, no rounded modulus).  One
    term at a time: no segments, no flush, no log-domain route.
    """
    twice_s = signal.twice_s
    points = np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel()
    out = np.empty(points.size, dtype=np.complex128)
    with mp.workdps(digits):
        coefficients = [mp.mpc(a.real, a.imag) for a in signal.coefficients]
        steps = [mp.sqrt(mp.mpf(twice_s + m - 1) / m) for m in range(1, len(coefficients))]
        for i, point in enumerate(points):
            x, y = mp.mpf(point.real), mp.mpf(point.imag)
            conj_z = mp.mpc(x, -y)
            term = (1 - (x * x + y * y)) ** (mp.mpf(twice_s) / 2)
            total = coefficients[0] * term
            for a, step in zip(coefficients[1:], steps):
                term *= step * conj_z
                total += a * term
            out[i] = complex(total)
    return out


def alias_error(signal: DiskSignal, grid: SamplingGrid, digits: int = 40) -> float:
    """Distance || psi - P psi || from its definition, in mpmath.

    Every lambda_n is computed in ``digits``-digit arithmetic from the
    binomial and the powers of r, whose exponent range is unbounded, so no
    class underflows and no rescaling is needed.  Per residue class j, with
    v the class coefficients, w = sum_p lambda_{j+pN}^(1/2) v_p and lhat_j
    the class's lambda mass (the stored lambdas plus the tail, summed term
    by term until a term is negligible; the terms fall by about r^(2N) per
    step, so this suits rings with small r^(2N)),

        E^2 = sum_j ( sum_p |v_p|^2 - |w|^2 / lhat_j ),

    the signal energy less the captured energy.  The two share the leading
    digits of ||psi||^2 - E^2, so ``digits`` must exceed 16 plus about
    log10(||psi||^2 / E^2).  O(L) products for L coefficients.
    """
    twice_s, n = signal.twice_s, grid.n_samples
    with mp.workdps(digits):
        r2 = mp.mpf(grid.radius) ** 2
        scale = n * (1 - r2) ** twice_s

        def lam(m):
            return scale * mp.binomial(twice_s + m - 1, m) * r2**m

        coeffs = [mp.mpc(c.real, c.imag) for c in signal.coefficients]
        error_sq = mp.mpf(0)
        for j in range(min(n, len(coeffs))):
            v = coeffs[j::n]
            mu = [lam(j + q * n) for q in range(len(v))]
            w = mp.fsum(mp.sqrt(mu_q) * v_q for mu_q, v_q in zip(mu, v))
            tail, m = mp.mpf(0), j + len(v) * n
            while True:
                term = lam(m)
                tail += term
                if term < mp.mpf(10) ** (-digits - 5) * tail:
                    break
                m += n
            error_sq += mp.fsum(abs(v_q) ** 2 for v_q in v) - abs(w) ** 2 / (mp.fsum(mu) + tail)
        return float(mp.sqrt(error_sq))


def band_projection(twice_s: int, band_limit: int, radius: float, digits: int = 40):
    """P(r) = sum_{m<=M} NB(m; 2s, 1-r^2) from its definition, in mpmath.

    The terms follow NB(0) = (1-r^2)^(2s) and NB(m) = NB(m-1) r^2 (2s+m-1)/m
    at ``digits`` decimal digits, r taken exactly as the double it is.  The
    exponent range of mpmath is unbounded, so no term underflows and none is
    taken relative to another.  Returns the mpf sum, not rounded to double,
    so that a caller can tell a value below the least subnormal.  O(M) products.
    """
    with mp.workdps(digits):
        r2 = mp.mpf(radius) ** 2
        term = (1 - r2) ** twice_s
        total = term
        for m in range(1, band_limit + 1):
            term *= r2 * (twice_s + m - 1) / m
            total += term
        return +total


def bound_and_exact(signal: DiskSignal, grid: SamplingGrid, digits: int) -> tuple:
    """(bound, exact, bound - exact) at band limit N-1, each from its
    definition in mpmath and rounded to double once.

    exact = 1 - sum_j |sum_p lambda_{j+pN}^(1/2) a_{j+pN}|^2 / (lhat_j ||psi||^2)
    and the bound is eps_M^2 + (1-eps_M^2) eps_0/(1+eps_0)
    + 2 sqrt(1-eps_M^2) eps_M sqrt(N eps_0)/(1+eps_{N-1}), subtracted directly:
    ``digits`` must exceed the number of leading digits the two share (about
    -log10 of the margin) with room to spare.  Each lambda tail is its own
    series, its terms stepped by the ratio lambda_{k+1}/lambda_k and summed
    until a term is negligible; the terms may rise before they fall, so it
    also suits rings beyond the spectrum's mode.
    """
    twice_s, n = signal.twice_s, grid.n_samples
    with mp.workdps(digits):
        r2 = mp.mpf(grid.radius) ** 2
        scale = n * (1 - r2) ** twice_s

        def lam(m):
            return scale * mp.binomial(twice_s + m - 1, m) * r2**m

        @functools.lru_cache(maxsize=None)
        def tail(j):
            total, m, term = mp.mpf(0), j + n, lam(j + n)
            while True:
                total += term
                if term < mp.mpf(10) ** (-digits - 5) * total:
                    return total
                # lambda_{k+1} = lambda_k r^2 (2s+k)/(k+1)
                for k in range(m, m + n):
                    term *= r2 * (twice_s + k) / (k + 1)
                m += n

        coeffs = [mp.mpc(c.real, c.imag) for c in signal.coefficients]
        norm_sq = mp.fsum(abs(c) ** 2 for c in coeffs)
        captured = mp.mpf(0)
        for j in range(min(n, len(coeffs))):
            w = mp.fsum(mp.sqrt(lam(j + p * n)) * c for p, c in enumerate(coeffs[j::n]))
            captured += abs(w) ** 2 / (lam(j) + tail(j))
        exact = 1 - captured / norm_sq
        em2 = mp.fsum(abs(c) ** 2 for c in coeffs[n:]) / norm_sq
        eps0 = tail(0) / lam(0)
        eps_last = tail(n - 1) / lam(n - 1)
        bound = (
            em2
            + (1 - em2) * eps0 / (1 + eps0)
            + 2 * mp.sqrt((1 - em2) * em2 * n * eps0) / (1 + eps_last)
        )
        return float(bound), float(exact), float(bound - exact)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple, tuple]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [0, 1].

    Each root of P_n is found by Newton's method from Tricomi's estimate, all
    in mpmath at ``_WORKDPS``.  Cached per process: these Newton iterations
    are most of the quadrature's cost.
    """
    with mp.workdps(_WORKDPS):
        one = mp.mpf(1)
        steps = [(mp.mpf(2 * j - 1) / j, mp.mpf(j - 1) / j) for j in range(2, n + 1)]

        def legendre(x):
            """P_n(x) and P_n'(x) by the three-term recurrence."""
            p_prev, p = one, x
            for a, b in steps:
                p_prev, p = p, a * x * p - b * p_prev
            return p, n * (x * p - p_prev) / (x * x - one)

        # Near a root the Newton error is squared times x / (1 - x^2) < n^2,
        # so once a step is below this the node is exact to working precision.
        tolerance = mp.mpf(10) ** (-(_WORKDPS // 2 + 2)) / n
        upper = []
        for k in range(n // 2, 0, -1):
            x = (1 - mp.mpf(n - 1) / (8 * mp.mpf(n) ** 3)) * mp.cos(
                mp.pi * (4 * k - 1) / (4 * n + 2)
            )
            while True:
                value, slope = legendre(x)
                step = value / slope
                x -= step
                if abs(step) < tolerance:
                    break
            upper.append(x)
        # The rule is symmetric about 0; the middle node exists for odd n only.
        half = [mp.mpf(0)] * (n % 2) + upper
        half_weights = [2 / ((one - x * x) * legendre(x)[1] ** 2) for x in half]
        roots = [-x for x in reversed(upper)] + half
        weights = half_weights[n % 2 :][::-1] + half_weights
        return tuple((1 + x) / 2 for x in roots), tuple(w / 2 for w in weights)


def _radial_factor(twice_s: int, m: int, t):
    """U_m(sqrt(t)) = binom(2s+m-1, m)^(1/2) (1-t)^s t^(m/2), from the definition.

    At z = sqrt(t) exp(i theta), U_m(z) = _radial_factor(t) * exp(-i m theta).
    """
    return (
        mp.sqrt(mp.binomial(twice_s + m - 1, m))
        * (1 - t) ** (mp.mpf(twice_s) / 2)
        * t ** (mp.mpf(m) / 2)
    )


def _resolution_integral(twice_s: int, m: int, m_other: int, n_radial: int, n_angular: int):
    # Substituting t = |z|^2 gives d^2 z = (1/2) dt dtheta and keeps the Gauss
    # nodes strictly inside the disk.  U_m conj(U_m') / (1-t)^2 is a function
    # of t times exp(-i (m-m') theta), so the tensor rule (Gauss in t,
    # trapezoid in theta) is exactly (radial sum) x (angular sum).
    with mp.workdps(_WORKDPS):
        nodes, weights = _gauss_legendre(n_radial)
        u = [_radial_factor(twice_s, m, t) for t in nodes]
        v = u if m_other == m else [_radial_factor(twice_s, m_other, t) for t in nodes]
        radial = mp.fsum(w * a * b / (1 - t) ** 2 for t, w, a, b in zip(nodes, weights, u, v))
        angular = mp.fsum(
            mp.expjpi(-2 * (m - m_other) * mp.mpf(k) / n_angular) for k in range(n_angular)
        ) * (2 * mp.pi / n_angular)
        return (twice_s - 1) / (2 * mp.pi) * radial * angular


def quadrature_basis(
    twice_s: int, m: int, n_radial: int = 200, n_angular: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the resolution-of-unity rule and U_m there, as the rule sums it.

    Returns ``(z, u)``, both n_radial x n_angular, with z_jk =
    sqrt(t_j) exp(i theta_k) and u_jk the quadrature's own U_m(z_jk),
    written from the definition in mpmath.  Each radial and angular factor
    is rounded to double once, so ``u`` carries a few ulp of rounding; this
    lets tests hold the production :func:`basis_fn` to the integrand.
    """
    twice_s = check_twice_s(twice_s)
    m = check_index(m, "m")
    with mp.workdps(_WORKDPS):
        nodes, _ = _gauss_legendre(n_radial)
        moduli = np.array([float(mp.sqrt(t)) for t in nodes])
        radial = np.array([float(_radial_factor(twice_s, m, t)) for t in nodes])
        turns = [mp.mpf(2 * k) / n_angular for k in range(n_angular)]
        phase = np.array([complex(mp.expjpi(x)) for x in turns])
        angular = np.array([complex(mp.expjpi(-m * x)) for x in turns])
    return np.outer(moduli, phase), np.outer(radial, angular)


def quadrature_inner(
    twice_s: int, m: int, m_other: int, n_radial: int = 200, n_angular: int = 256
) -> complex:
    """Inner product of basis functions under the resolution-of-unity measure.

    Integrates (2s-1)/pi * U_m(z) conj(U_m'(z)) / (1-|z|^2)^2 over the open
    disk with a tensor Gauss rule; equals delta_{m m'} up to quadrature error.
    The rule is summed in mpmath and rounded to double once.
    """
    twice_s = check_twice_s(twice_s)
    m = check_index(m, "m")
    m_other = check_index(m_other, "m_other")
    return complex(_resolution_integral(twice_s, m, m_other, n_radial, n_angular))


def quadrature_norm(
    twice_s: int, m: int, n_radial: int = 200, n_angular: int = 256
) -> float:
    """Squared norm of U_m under the resolution-of-unity measure; equals 1.

    Convergence is verified against a half-resolution rule; disagreement
    raises :class:`QuadratureError` carrying the achieved estimate.
    """
    twice_s = check_twice_s(twice_s)
    m = check_index(m, "m")
    full = _resolution_integral(twice_s, m, m, n_radial, n_angular).real
    coarse = _resolution_integral(
        twice_s, m, m, max(n_radial // 2, 2), max(n_angular // 2, 4)
    ).real
    if abs(full - coarse) > 1e-9 * max(1, abs(full)):
        raise QuadratureError(
            f"quadrature for (twice_s={twice_s}, m={m}) did not converge",
            estimate=float(full),
        )
    return float(full)


def random_signal(
    twice_s: int,
    *,
    band_limit: int | None = None,
    decay: float | None = None,
    seed: int,
) -> DiskSignal:
    """Deterministic random test signal of one of two kinds.

    ``band_limit=M`` draws exactly M+1 complex-normal coefficients and
    normalizes to unit energy.  ``decay=rho`` builds the geometric
    quasi-bandlimited profile a_n = rho^n exp(i theta_n) with uniform random
    phases, truncated at the first L with rho^L < 1e-12 so tail energies have
    closed forms.  The same seed always reproduces the same signal: the
    draws come from numpy's seeded generator, and everything computed from
    them is evaluated in mpmath and rounded once.
    """
    twice_s = check_twice_s(twice_s)
    if (band_limit is None) == (decay is None):
        raise ValueError("specify exactly one of band_limit or decay")
    rng = np.random.default_rng(seed)
    if band_limit is not None:
        m = check_index(band_limit, "band_limit")
        real, imag = rng.standard_normal(m + 1), rng.standard_normal(m + 1)
        with mp.workdps(_WORKDPS):
            norm = mp.sqrt(mp.fsum(x * x for x in map(mp.mpf, (*real, *imag))))
            coeffs = [complex(mp.mpc(a, b) / norm) for a, b in zip(real, imag)]
        return DiskSignal(twice_s, coeffs)
    rho = float(decay)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay!r}")
    with mp.workdps(_WORKDPS):
        base, floor = mp.mpf(rho), mp.mpf(1e-12)
        length = int(mp.ceil(mp.log(floor) / mp.log(base)))
        if base**length >= floor:
            length += 1
        phases = rng.uniform(0.0, 2.0 * np.pi, length)
        coeffs = [complex(base**n * mp.expj(theta)) for n, theta in enumerate(phases)]
    return DiskSignal(twice_s, coeffs)


def reference_values(seed: int) -> dict:
    """The oracle values stored in ``tests/fixtures/oracle_reference.json``.

    Every float is computed in mpmath at a fixed precision and rounded to
    double once, so the result is the same on every platform.
    """
    grid = SamplingGrid(0.5, 2)
    with mp.workdps(_gram_digits(2, grid)):
        frame, halved = _halved_frame_mp(2, grid, 16)

        def projector(m, q):
            return mp.fsum(mp.conj(a) * b for a, b in zip(halved[m], halved[q])).real

        entry = frame[0][0]
        projector_00, projector_02 = projector(0, 0), projector(0, 2)
        trace = mp.fsum(projector(m, m) for m in range(len(halved)))
    geometric = random_signal(2, decay=0.5, seed=seed)
    bandlimited = random_signal(2, band_limit=3, seed=seed)
    return {
        "dense_frame_entry_00": [float(entry.real), float(entry.imag)],
        "dense_projector_00": float(projector_00),
        "dense_projector_02": float(projector_02),
        "dense_projector_trace": float(trace),
        "quadrature_norms": {
            f"s{ts}_m{m}": quadrature_norm(ts, m) for ts in (2, 4, 6) for m in (0, 1, 4)
        },
        "geometric_signal_head": [[c.real, c.imag] for c in geometric.coefficients[:4]],
        "bandlimited_signal": [[c.real, c.imag] for c in bandlimited.coefficients],
    }


def reference_text() -> str:
    """The exact contents of ``tests/fixtures/oracle_reference.json``."""
    return json.dumps(reference_values(REFERENCE_SEED), indent=2) + "\n"


if __name__ == "__main__":
    print(reference_text(), end="")
