"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here and must not be loosened.
"""

import json

import numpy as np
import pytest

import disksampling as ds
from disksampling import cli

import oracle

SWEEP_TWICE_S = (2, 3, 4, 5)
SWEEP_BAND_LIMITS = tuple(range(9))
SWEEP_RADII = (0.2, 0.4, 0.6, 0.8)
SWEEP_N_OFFSETS = tuple(range(1, 9))
SIGNALS_PER_CONFIG = 20
POINTS_PER_CONFIG = 25


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number:02d} {name} failed{suffix}"


def _unit_rows(rng, count, width):
    rows = rng.standard_normal((count, width)) + 1j * rng.standard_normal((count, width))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _disk_points(rng, count, max_radius=0.95):
    moduli = max_radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return moduli * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


@pytest.fixture(scope="module")
def bandlimited_sweep():
    """Criteria 1 and 2 share one full sweep over (s, M, N, r)."""
    rng = np.random.default_rng(20240601)
    worst_recon = 0.0
    worst_coeff = 0.0
    configs = 0
    for twice_s in SWEEP_TWICE_S:
        for band in SWEEP_BAND_LIMITS:
            for offset in SWEEP_N_OFFSETS:
                n = band + offset
                for radius in SWEEP_RADII:
                    grid = ds.SamplingGrid(radius, n)
                    fm = ds.frame_matrix(twice_s, grid, band)
                    dense = fm.toarray()
                    signals = _unit_rows(rng, SIGNALS_PER_CONFIG, band + 1)
                    sample_block = signals @ dense.T
                    points = _disk_points(rng, POINTS_PER_CONFIG)
                    basis = ds.basis_fn(
                        twice_s,
                        np.arange(band + 1)[np.newaxis, :],
                        points[:, np.newaxis],
                    )
                    direct_block = signals @ basis.T
                    for i in range(SIGNALS_PER_CONFIG):
                        recon = ds.reconstruct_bandlimited(fm, sample_block[i], points)
                        scale = np.max(np.abs(direct_block[i]))
                        worst_recon = max(
                            worst_recon,
                            float(np.max(np.abs(recon - direct_block[i])) / scale),
                        )
                        recovered = ds.fourier_coefficients(fm, sample_block[i])
                        worst_coeff = max(
                            worst_coeff, float(np.max(np.abs(recovered - signals[i])))
                        )
                    configs += 1
    return {"worst_recon": worst_recon, "worst_coeff": worst_coeff, "configs": configs}


@pytest.fixture(scope="module")
def sweep_kernels():
    """Circulant kernels for every distinct (s, N, r) of the item-1 sweep."""
    kernels = {}
    n_values = sorted(
        {band + offset for band in SWEEP_BAND_LIMITS for offset in SWEEP_N_OFFSETS}
    )
    for twice_s in SWEEP_TWICE_S:
        for n in n_values:
            for radius in SWEEP_RADII:
                kernels[(twice_s, n, radius)] = ds.overlap_kernel(
                    twice_s, ds.SamplingGrid(radius, n)
                )
    return kernels


def _series_eigenvalues_reference(twice_s, grid, j_values):
    """Test-local lambda series, independent of the library truncation loop."""
    spectrum = ds.ResolutionSpectrum(twice_s, grid)
    n = grid.n_samples
    q_max = int(np.ceil(-46.0 / (2.0 * n * np.log10(grid.radius)))) + 3
    q = np.arange(q_max)
    out = []
    for j in j_values:
        out.append(np.sum(np.exp(spectrum.log_values(j + q * n))))
    return np.array(out)


def test_criterion_01_and_02_bandlimited_reconstruction(bandlimited_sweep):
    stats = bandlimited_sweep
    _report(
        1,
        "exact bandlimited reconstruction",
        stats["worst_recon"] <= 1e-9,
        f"max relative error {stats['worst_recon']:.3e} over {stats['configs']} configs",
    )
    _report(
        2,
        "Fourier coefficient recovery",
        stats["worst_coeff"] <= 1e-10,
        f"max coefficient error {stats['worst_coeff']:.3e}",
    )


def test_criterion_03_kernel_interpolation():
    worst_critical = 0.0
    worst_projector = 0.0
    worst_trace = 0.0
    for twice_s in (2, 5):
        for band in (0, 2, 5):
            for radius in (0.3, 0.7):
                grid = ds.SamplingGrid(radius, band + 1)
                fm = ds.frame_matrix(twice_s, grid, band)
                kernel_matrix = np.column_stack(
                    [ds.sinc_kernel(fm, k, grid.points) for k in range(band + 1)]
                )
                worst_critical = max(
                    worst_critical,
                    float(np.max(np.abs(kernel_matrix - np.eye(band + 1)))),
                )
                wide = ds.SamplingGrid(radius, band + 4)
                fm_wide = ds.frame_matrix(twice_s, wide, band)
                xi = np.column_stack(
                    [ds.sinc_kernel(fm_wide, k, wide.points) for k in range(band + 4)]
                )
                worst_projector = max(
                    worst_projector,
                    float(np.max(np.abs(xi @ xi - xi))),
                    float(np.max(np.abs(xi - xi.conj().T))),
                )
                worst_trace = max(
                    worst_trace, abs(float(np.trace(xi).real) - (band + 1))
                )
    ok = worst_critical <= 1e-10 and worst_projector <= 1e-8 and worst_trace <= 1e-8
    _report(
        3,
        "sinc kernel interpolation",
        ok,
        f"critical delta {worst_critical:.3e}, projector residue {worst_projector:.3e}, "
        f"trace residue {worst_trace:.3e}",
    )


def test_criterion_04_circulant_eigenvalues(sweep_kernels):
    worst = 0.0
    for (twice_s, n, radius), kernel in sweep_kernels.items():
        reference = _series_eigenvalues_reference(twice_s, kernel.grid, range(n))
        worst = max(
            worst, float(np.max(np.abs(kernel.eigenvalues - reference) / kernel.eigenvalues))
        )
    fixture = ds.overlap_kernel(2, ds.SamplingGrid(0.5, 2)).eigenvalues
    fixture_ok = abs(fixture[0] - 1.36) <= 1e-14 and abs(fixture[1] - 0.64) <= 1e-14
    _report(
        4,
        "circulant eigenvalue two-route agreement",
        worst <= 1e-12 and fixture_ok,
        f"max relative gap {worst:.3e} over {len(sweep_kernels)} kernels",
    )


def test_criterion_05_dual_frame_interpolation():
    rng = np.random.default_rng(7)
    worst_delta = 0.0
    worst_interp = 0.0
    tested = 0
    for twice_s in (2, 3, 5):
        for n in (1, 2, 4, 8, 12):
            for radius in (0.3, 0.5, 0.7):
                kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
                if kernel.condition_number > 1e5:
                    continue
                tested += 1
                matrix = np.column_stack(
                    [ds.dual_sinc_kernel(kernel, k, kernel.grid.points) for k in range(n)]
                )
                worst_delta = max(worst_delta, float(np.max(np.abs(matrix - np.eye(n)))))
                signal = oracle.random_signal(
                    twice_s, decay=0.6, seed=int(rng.integers(1 << 30))
                )
                samples = ds.sample_signal(signal, kernel.grid)
                at_grid = ds.partial_reconstruct(kernel, samples, kernel.grid.points)
                worst_interp = max(
                    worst_interp,
                    float(np.max(np.abs(at_grid - samples)) / np.max(np.abs(samples))),
                )
    ok = worst_delta <= 1e-10 and worst_interp <= 1e-10 and tested >= 25
    _report(
        5,
        "dual-frame interpolation",
        ok,
        f"delta residue {worst_delta:.3e}, sample interpolation {worst_interp:.3e}, "
        f"{tested} configs",
    )


def test_criterion_06_projector_oracle_equivalence():
    rng = np.random.default_rng(11)
    length = 64
    accepted = 0
    worst = 0.0
    attempts = 0
    while accepted < 50 and attempts < 500:
        attempts += 1
        twice_s = int(rng.integers(2, 6))
        n = int(rng.integers(1, 11))
        radius = float(rng.uniform(0.15, 0.8))
        grid = ds.SamplingGrid(radius, n)
        spectrum = ds.ResolutionSpectrum(twice_s, grid)
        logs = spectrum.log_values(np.arange(n))
        if float(np.max(logs) - np.min(logs)) > np.log(1e10):
            continue
        kernel = ds.overlap_kernel(twice_s, grid)
        if kernel.condition_number > 1e10:
            continue
        accepted += 1
        dense = oracle.dense_projector(twice_s, grid, length)
        idx = np.arange(length)
        residue = idx % n
        log_lam = np.asarray(spectrum.log_values(idx), dtype=np.float64)
        block = np.where(
            residue[:, np.newaxis] == residue[np.newaxis, :],
            np.exp(
                0.5 * (log_lam[:, np.newaxis] + log_lam[np.newaxis, :])
                - np.log(kernel.eigenvalues[residue])[np.newaxis, :]
            ),
            0.0,
        )
        for m, q in ((0, 0), (1, 1 + n), (3, 3)):
            if m < length and q < length:
                assert block[m, q] == pytest.approx(
                    ds.projector_element(kernel, m, q), rel=1e-13, abs=1e-300
                )
        worst = max(worst, float(np.max(np.abs(dense - block))))
    _report(
        6,
        "projector block formula vs dense oracle",
        accepted == 50 and worst <= 1e-9,
        f"entrywise max {worst:.3e} over {accepted} draws",
    )


def test_criterion_07_error_bound_validity():
    rng = np.random.default_rng(13)
    violations = 0
    checked = 0
    for _ in range(100):
        twice_s = int(rng.integers(2, 6))
        n = int(rng.integers(2, 13))
        radius = float(rng.uniform(0.05, 0.6))
        rho = float(rng.uniform(0.3, 0.9))
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        signal = oracle.random_signal(twice_s, decay=rho, seed=int(rng.integers(1 << 30)))
        profile = ds.quasi_band_profile(signal, n - 1)
        exact = ds.alias_error(kernel.spectrum, signal) ** 2 / signal.norm_squared
        if exact > ds.error_bound(kernel.spectrum, profile).value:
            violations += 1
        checked += 1
    drift_ok = True
    final_gap = 0.0
    for twice_s in (2, 4):
        signal = oracle.random_signal(twice_s, decay=0.5, seed=99 + twice_s)
        n = 8
        profile = ds.quasi_band_profile(signal, n - 1)
        gaps = []
        for radius in (0.5, 0.3, 0.1, 0.05):
            kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
            exact = ds.alias_error(kernel.spectrum, signal) ** 2 / signal.norm_squared
            gaps.append(abs(exact - profile.epsilon_m**2))
        drift_ok = drift_ok and all(a > b for a, b in zip(gaps, gaps[1:]))
        final_gap = max(final_gap, gaps[-1])
    ok = violations == 0 and drift_ok and final_gap <= 1e-6
    _report(
        7,
        "error bound validity and small-radius limit",
        ok,
        f"{violations} violations in {checked} draws, final gap {final_gap:.3e}",
    )


def test_criterion_08_periodization():
    rng = np.random.default_rng(17)
    worst = 0.0
    for twice_s, radius, n in ((2, 0.5, 4), (3, 0.7, 5), (5, 0.3, 3)):
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ahat = ds.dft_coefficients(kernel, samples, 4 * n - 1)
        logs = kernel.spectrum.log_values(np.arange(4 * n))
        for base in range(n):
            if abs(ahat[base]) < 1e-14:
                continue
            for p in range(1, 4):
                expected = np.exp(0.5 * (logs[base + p * n] - logs[base])) * ahat[base]
                worst = max(
                    worst, float(abs(ahat[base + p * n] - expected) / abs(expected))
                )
    _report(8, "alias coefficient periodization", worst <= 1e-10, f"max gap {worst:.3e}")


def test_criterion_09_tail_excess_monotonicity(sweep_kernels):
    ok = True
    for (twice_s, n, radius), kernel in sweep_kernels.items():
        if n < 2:
            continue
        eps = np.atleast_1d(ds.tail_excess(kernel.spectrum, np.arange(n)))
        if not np.all(np.diff(eps) < 0.0):
            ok = False
            break
    _report(9, "tail excess strictly decreasing", ok)


def test_criterion_10_projector_asymptotics():
    ratios = []
    for radius in (0.05, 0.025):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(radius, 4))
        ratios.append(ds.projector_element(kernel, 1, 5) / radius**4)
    variation = abs(ratios[0] / ratios[1] - 1.0)
    _report(10, "projector power-law asymptotics", variation < 0.05, f"variation {variation:.4f}")


def test_criterion_11_critical_radius_transition():
    twice_s, band = 100, 2000
    grid = np.linspace(0.0, 0.999, 200)
    curve = np.atleast_1d(ds.band_projection_curve(twice_s, band, grid))
    monotone = bool(np.all(np.diff(curve) <= 1e-12))
    below = np.nonzero(curve < 0.5)[0]
    crossing_ok = below.size > 0
    gap = np.inf
    if crossing_ok:
        i = below[0]
        # linear interpolation between the last point above 1/2 and the first below
        r_lo, r_hi = grid[i - 1], grid[i]
        p_lo, p_hi = curve[i - 1], curve[i]
        r_cross = r_lo + (0.5 - p_lo) * (r_hi - r_lo) / (p_hi - p_lo)
        gap = abs(r_cross - ds.critical_radius(twice_s, band))
    _report(
        11,
        "band projection transition at the critical radius",
        monotone and crossing_ok and gap <= 0.02,
        f"crossing gap {gap:.4f}",
    )


def test_criterion_12_resolution_of_unity_quadrature():
    worst = 0.0
    basis_gap = 0.0
    for twice_s in (2, 4, 6):
        for m in (0, 1, 4):
            worst = max(worst, abs(oracle.quadrature_norm(twice_s, m) - 1.0))
            # the quadrature integrand is mpmath; tie it to the production basis
            nodes, values = oracle.quadrature_basis(twice_s, m)
            basis_gap = max(
                basis_gap, float(np.max(np.abs(ds.basis_fn(twice_s, m, nodes) - values)))
            )
    _report(
        12,
        "continuous resolution of unity",
        worst <= 1e-8 and basis_gap <= 1e-12,
        f"max deviation {worst:.3e}, basis_fn vs integrand {basis_gap:.3e}",
    )


def test_criterion_13_cli_determinism(tmp_path):
    signal_path = tmp_path / "sig.json"
    signal_path.write_text(
        json.dumps(
            {"twice_s": 2, "coefficients": [[1.0, 0.0], [0.5, 0.25], [0.1, -0.3]]}
        )
    )
    samples_path = tmp_path / "samples.csv"
    assert cli.main(
        ["synthesize", "--r", "0.5", "--n", "4", "--input", str(signal_path),
         "--output", str(samples_path)]
    ) == 0
    points_path = tmp_path / "pts.csv"
    points_path.write_text("re,im\n0.3,0.1\n-0.2,0.05\n0.0,0.0\n")
    commands = [
        ["grid", "--r", "0.5", "--n", "6"],
        ["synthesize", "--r", "0.5", "--n", "4", "--input", str(signal_path)],
        ["reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "4",
         "--mode", "bandlimited", "--band-limit", "2",
         "--input", str(samples_path), "--points", str(points_path)],
        ["reconstruct", "--twice-s", "2", "--r", "0.5", "--n", "4",
         "--mode", "undersampled",
         "--input", str(samples_path), "--points", str(points_path)],
        ["dft", "--twice-s", "2", "--r", "0.5", "--n", "4",
         "--mode", "bandlimited", "--band-limit", "2", "--input", str(samples_path)],
        ["dft", "--twice-s", "2", "--r", "0.5", "--n", "4",
         "--mode", "undersampled", "--n-max", "7", "--input", str(samples_path)],
        ["error-analysis", "--input", str(signal_path),
         "--sweep-r", "0.5,0.3,0.1", "--sweep-n", "3,4"],
        ["error-analysis", "--input", str(signal_path),
         "--r", "0.4", "--n", "3", "--bound-variant", "derived"],
        ["critical-radius", "--twice-s", "2", "--m-list", "1,100", "--r-count", "50"],
    ]
    ok = True
    for index, argv in enumerate(commands):
        first = tmp_path / f"out-{index}-a"
        second = tmp_path / f"out-{index}-b"
        code_a = cli.main([*argv, "--output", str(first)])
        code_b = cli.main([*argv, "--output", str(second)])
        if code_a != 0 or code_b != 0 or first.read_bytes() != second.read_bytes():
            ok = False
            break
    _report(13, "CLI byte-level determinism", ok)
