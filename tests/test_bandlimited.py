import numpy as np
import pytest

import disksampling as ds

from conftest import random_disk_points, sup_relative_error, unit_signal


def explicit_sinc_sum(fm, samples, points):
    """Reconstruction as the literal kernel sum, independent of the DFT route."""
    total = np.zeros(np.atleast_1d(points).shape, dtype=np.complex128)
    for k in range(fm.n_samples):
        total += ds.sinc_kernel(fm, k, points) * samples[k]
    return total


class TestFrameMatrix:
    def test_requires_oversampling(self):
        grid = ds.SamplingGrid(0.5, 4)
        with pytest.raises(ValueError):
            ds.frame_matrix(2, grid, 4)
        with pytest.raises(ValueError):
            ds.frame_matrix(2, grid, 7)

    def test_entry_fixtures(self):
        grid = ds.SamplingGrid(0.5, 2)
        assert ds.frame_matrix(2, grid, 0).toarray()[0, 0] == pytest.approx(0.75, rel=1e-13)
        entry = ds.frame_matrix(2, grid, 1).toarray()[1, 1]
        assert entry == pytest.approx(ds.basis_fn(2, 1, grid.points[1]), rel=1e-12)
        assert entry.real == pytest.approx(-np.sqrt(2) * 0.75 * 0.5, rel=1e-12)

    @pytest.mark.parametrize("twice_s,n,radius,band", [(2, 6, 0.4, 3), (5, 9, 0.75, 5)])
    def test_factored_entries_reproduce_basis(self, twice_s, n, radius, band):
        grid = ds.SamplingGrid(radius, n)
        fm = ds.frame_matrix(twice_s, grid, band)
        dense = fm.toarray()
        for m in range(band + 1):
            column = ds.basis_fn(twice_s, m, grid.points)
            assert sup_relative_error(dense[:, m], column) < 1e-12

    def test_column_norms_are_lambdas(self):
        grid = ds.SamplingGrid(0.6, 7)
        fm = ds.frame_matrix(3, grid, 4)
        norms = np.sum(np.abs(fm.toarray()) ** 2, axis=0)
        assert np.allclose(norms, fm.lambdas, rtol=1e-12)

    def test_condition_number_reported(self):
        grid = ds.SamplingGrid(0.5, 4)
        fm = ds.frame_matrix(2, grid, 1)
        assert fm.condition_number == pytest.approx(2.25 / 1.125, rel=1e-13)
        assert not fm.is_ill_conditioned
        skinny = ds.frame_matrix(2, ds.SamplingGrid(0.1, 16), 15)
        assert skinny.is_ill_conditioned

    def test_condition_number_formula_when_monotone(self):
        # with s r^2 small the eigenvalues decrease, so cond = 1/(binom r^(2M))
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.5, 8), 3)
        expected = 1.0 / (np.exp(ds.log_binomial(2, 3)) * 0.5**6)
        assert fm.condition_number == pytest.approx(expected, rel=1e-12)


class TestResolutionDiagonal:
    def test_fixtures(self):
        grid = ds.SamplingGrid(0.5, 4)
        diag = ds.frame_matrix(2, grid, 1).lambdas
        assert np.allclose(diag, [2.25, 1.125], rtol=1e-13)
        single = ds.frame_matrix(2, ds.SamplingGrid(0.5, 2), 0).lambdas
        assert np.allclose(single, [1.125], rtol=1e-13)

    def test_gram_is_diagonal(self):
        for twice_s, n, radius, band in [(2, 4, 0.5, 1), (4, 10, 0.7, 6)]:
            fm = ds.frame_matrix(twice_s, ds.SamplingGrid(radius, n), band)
            dense = fm.toarray()
            gram = dense.conj().T @ dense
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-12 * np.max(fm.lambdas)
            assert np.allclose(np.diag(gram).real, fm.lambdas, rtol=1e-12)

    def test_rfm_orthogonality(self):
        # sum_k exp(2 pi i k (n-m)/N) = N delta_{nm} for 0 <= n, m <= M < N
        for n_samples, band in [(5, 3), (12, 7)]:
            k = np.arange(n_samples)
            for n in range(band + 1):
                for m in range(band + 1):
                    total = np.sum(np.exp(2j * np.pi * k * (n - m) / n_samples))
                    expected = n_samples if n == m else 0.0
                    assert abs(total - expected) <= 1e-12 * n_samples


class TestSincKernel:
    def test_hand_value(self):
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.5, 2), 0)
        assert ds.sinc_kernel(fm, 0, 0j) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_delta_at_critical_sampling(self):
        for twice_s, n, radius in [(2, 3, 0.5), (3, 6, 0.7)]:
            grid = ds.SamplingGrid(radius, n)
            fm = ds.frame_matrix(twice_s, grid, n - 1)
            kernel_matrix = np.column_stack(
                [ds.sinc_kernel(fm, k, grid.points) for k in range(n)]
            )
            assert np.max(np.abs(kernel_matrix - np.eye(n))) < 1e-12

    def test_projector_values_when_oversampled(self):
        grid = ds.SamplingGrid(0.6, 7)
        fm = ds.frame_matrix(3, grid, 3)
        kernel_matrix = np.column_stack(
            [ds.sinc_kernel(fm, k, grid.points) for k in range(7)]
        )
        assert np.allclose(kernel_matrix, ds.sample_space_projector(fm), atol=1e-12)

    def test_index_validation(self):
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.5, 2), 0)
        with pytest.raises(ValueError):
            ds.sinc_kernel(fm, 2, 0j)


class TestReconstruction:
    def test_constant_mode_fixture(self):
        grid = ds.SamplingGrid(0.5, 2)
        fm = ds.frame_matrix(2, grid, 0)
        samples = ds.sample_signal(ds.DiskSignal(2, [1.0]), grid)
        assert ds.reconstruct_bandlimited(fm, samples, 0.3) == pytest.approx(0.91, rel=1e-12)

    def test_zero_samples(self):
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.5, 4), 1)
        rng = np.random.default_rng(3)
        pts = random_disk_points(rng, 5)
        assert np.allclose(ds.reconstruct_bandlimited(fm, np.zeros(4), pts), 0.0)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(4)
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.5, 4), 1)
        signal = ds.DiskSignal(2, [0.0, 1.0])
        samples = ds.sample_signal(signal, fm.grid)
        pts = random_disk_points(rng, 12)
        recon = ds.reconstruct_bandlimited(fm, samples, pts)
        assert sup_relative_error(recon, ds.evaluate_signal(signal, pts)) < 1e-10

    def test_agrees_with_explicit_kernel_sum(self):
        rng = np.random.default_rng(5)
        fm = ds.frame_matrix(3, ds.SamplingGrid(0.65, 8), 4)
        signal = unit_signal(rng, 3, 4)
        samples = ds.sample_signal(signal, fm.grid)
        pts = random_disk_points(rng, 10)
        assert sup_relative_error(
            ds.reconstruct_bandlimited(fm, samples, pts),
            explicit_sinc_sum(fm, samples, pts),
        ) < 1e-11

    def test_grid_values_are_projected_data(self):
        rng = np.random.default_rng(6)
        grid = ds.SamplingGrid(0.55, 9)
        fm = ds.frame_matrix(2, grid, 4)
        arbitrary = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        projected = ds.sample_space_projector(fm) @ arbitrary
        at_grid = ds.reconstruct_bandlimited(fm, arbitrary, grid.points)
        assert sup_relative_error(at_grid, projected) < 1e-10

    def test_critical_sampling_interpolates_raw_data(self):
        rng = np.random.default_rng(7)
        grid = ds.SamplingGrid(0.5, 5)
        fm = ds.frame_matrix(2, grid, 4)
        arbitrary = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        at_grid = ds.reconstruct_bandlimited(fm, arbitrary, grid.points)
        assert sup_relative_error(at_grid, arbitrary) < 1e-10


class TestFourierCoefficients:
    def test_inverts_sampling_fixture(self):
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.5, 2), 0)
        coeffs = ds.fourier_coefficients(fm, np.array([0.75, 0.75]))
        assert coeffs[0] == pytest.approx(1.0, rel=1e-13)

    def test_zero_in_zero_out(self):
        fm = ds.frame_matrix(3, ds.SamplingGrid(0.4, 6), 2)
        assert np.all(ds.fourier_coefficients(fm, np.zeros(6)) == 0)

    @pytest.mark.parametrize(
        "twice_s,band,n,radius", [(2, 0, 2, 0.5), (3, 4, 6, 0.3), (5, 6, 14, 0.8)]
    )
    def test_round_trip_identity(self, twice_s, band, n, radius):
        rng = np.random.default_rng(40 + band)
        grid = ds.SamplingGrid(radius, n)
        fm = ds.frame_matrix(twice_s, grid, band)
        for _ in range(5):
            signal = unit_signal(rng, twice_s, band)
            recovered = ds.fourier_coefficients(fm, ds.sample_signal(signal, grid))
            assert np.max(np.abs(recovered - signal.coefficients)) < 1e-10


class TestSampleSpaceProjector:
    def test_identity_at_critical_sampling(self):
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.7, 6), 5)
        assert np.allclose(ds.sample_space_projector(fm), np.eye(6), atol=1e-13)

    def test_trace_counts_modes(self):
        fm = ds.frame_matrix(4, ds.SamplingGrid(0.33, 8), 3)
        projector = ds.sample_space_projector(fm)
        assert np.trace(projector).real == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("twice_s,n,radius,band", [(2, 5, 0.2, 2), (5, 11, 0.85, 6)])
    def test_projector_laws(self, twice_s, n, radius, band):
        projector = ds.sample_space_projector(
            ds.frame_matrix(twice_s, ds.SamplingGrid(radius, n), band)
        )
        assert np.max(np.abs(projector @ projector - projector)) < 1e-12
        assert np.max(np.abs(projector - projector.conj().T)) < 1e-13
