import warnings

import mpmath as mp
import numpy as np
import pytest

import disksampling as ds
from disksampling.validation import NumericalRangeError

import oracle
from conftest import random_disk_points, sup_relative_error, unit_signal


def explicit_sinc_sum(fm, samples, points):
    """Reconstruction as the literal kernel sum, independent of the DFT route."""
    total = np.zeros(np.atleast_1d(points).shape, dtype=np.complex128)
    for k in range(fm.n_samples):
        total += ds.sinc_kernel(fm, k, points) * samples[k]
    return total


class TestFrameMatrix:
    def test_the_class_and_its_builder_give_one_frame(self):
        grid = ds.SamplingGrid(0.5, 4)
        built, direct = ds.frame_matrix(2, grid, 2), ds.FrameMatrix(np.int64(2), grid, np.int64(2))
        assert built == direct and hash(built) == hash(direct)
        assert type(direct.twice_s) is int and type(direct.band_limit) is int
        assert built.log_lambda.tobytes() == direct.log_lambda.tobytes()
        assert not built.log_lambda.flags.writeable and not direct.log_lambda.flags.writeable

    def test_derived_arrays_are_no_arguments(self):
        grid = ds.SamplingGrid(0.5, 4)
        logs = ds.frame_matrix(2, grid, 1).log_lambda
        with pytest.raises(TypeError):
            ds.FrameMatrix(2, grid, 1, logs)

    def test_requires_oversampling(self):
        grid = ds.SamplingGrid(0.5, 4)
        with pytest.raises(ValueError):
            ds.frame_matrix(2, grid, 4)
        with pytest.raises(ValueError):
            ds.frame_matrix(2, grid, 7)

    def test_entry_fixtures(self):
        grid = ds.SamplingGrid(0.5, 2)
        assert oracle.factored_frame(ds.frame_matrix(2, grid, 0))[0, 0] == pytest.approx(0.75, rel=1e-13)
        entry = oracle.factored_frame(ds.frame_matrix(2, grid, 1))[1, 1]
        assert entry == pytest.approx(ds.basis_fn(2, 1, grid.points[1]), rel=1e-12)
        assert entry.real == pytest.approx(-np.sqrt(2) * 0.75 * 0.5, rel=1e-12)

    @pytest.mark.parametrize("twice_s,n,radius,band", [(2, 6, 0.4, 3), (5, 9, 0.75, 5)])
    def test_factored_entries_reproduce_basis(self, twice_s, n, radius, band):
        grid = ds.SamplingGrid(radius, n)
        fm = ds.frame_matrix(twice_s, grid, band)
        dense = oracle.factored_frame(fm)
        for m in range(band + 1):
            column = ds.basis_fn(twice_s, m, grid.points)
            assert sup_relative_error(dense[:, m], column) < 1e-12

    def test_column_norms_are_lambdas(self):
        grid = ds.SamplingGrid(0.6, 7)
        fm = ds.frame_matrix(3, grid, 4)
        norms = np.sum(np.abs(oracle.factored_frame(fm)) ** 2, axis=0)
        assert np.allclose(norms, fm.lambdas, rtol=1e-12)

    def test_condition_number_reported(self):
        grid = ds.SamplingGrid(0.5, 4)
        fm = ds.frame_matrix(2, grid, 1)
        assert fm.condition_number == pytest.approx(2.25 / 1.125, rel=1e-13)
        assert not fm.is_ill_conditioned
        skinny = ds.frame_matrix(2, ds.SamplingGrid(0.1, 16), 15)
        assert skinny.is_ill_conditioned

    def test_condition_number_beyond_the_double_range_is_inf_without_a_warning(self):
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.01, 400), 390)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fm.condition_number == np.inf

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
            dense = oracle.factored_frame(fm)
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
        for twice_s, n, radius, columns in [
            (2, 3, 0.5, range(3)), (3, 6, 0.7, range(6)), (2, 2048, 0.5, [0, 1, 682, 2047]),
        ]:
            grid = ds.SamplingGrid(radius, n)
            fm = ds.frame_matrix(twice_s, grid, n - 1)
            kernel_matrix = np.column_stack(
                [ds.sinc_kernel(fm, k, grid.points) for k in columns]
            )
            assert np.max(np.abs(kernel_matrix - np.eye(n)[:, columns])) < 1e-12

    def test_projector_values_when_oversampled(self):
        grid = ds.SamplingGrid(0.6, 7)
        fm = ds.frame_matrix(3, grid, 3)
        kernel_matrix = np.column_stack(
            [ds.sinc_kernel(fm, k, grid.points) for k in range(7)]
        )
        assert np.allclose(kernel_matrix, oracle.sample_space_projector(fm), atol=1e-12)

    def test_outside_the_ring_sums_from_the_top_term(self):
        # |conj(z)/conj(z_k)| = 9.9 at z = 0.99, r = 0.1, so the partial sums
        # of 600 powers pass 1e308; at 2s = 1000 the prefactor is 1e-850 and
        # the value 1.8e-255 is representable.  The other rows: z = 0, where
        # log rho is -inf; rho = 1 exactly; next to z_k; on the ring; and
        # M = 3999 outside the ring at 2s = 1000
        z_5 = ds.SamplingGrid(0.7, 16).points[5]
        for twice_s, radius, n, band, k, z in [
            (1000, 0.1, 600, 599, 3, 0.99), (3, 0.5, 8, 7, 2, 0j), (3, 0.5, 8, 7, 0, 0.5),
            (2, 0.7, 16, 12, 5, z_5 * (1 + 1e-12)), (8, 0.3, 50, 40, 7, 0.3 * np.exp(0.4j)),
            (1000, 0.9, 4000, 3999, 1234, 0.95 * np.exp(0.2j)),
        ]:
            fm = ds.frame_matrix(twice_s, ds.SamplingGrid(radius, n), band)
            with mp.workdps(40):
                point, r = mp.mpc(z), mp.mpf(radius)
                rho = mp.conj(point) * mp.expjpi(mp.mpf(2 * k) / n) / r
                prefactor = ((1 - abs(point) ** 2) / (1 - r**2)) ** (mp.mpf(twice_s) / 2) / n
                expected = complex(prefactor * mp.fsum(rho**m for m in range(band + 1)))
            assert ds.sinc_kernel(fm, k, z) == pytest.approx(expected, rel=1e-11)
        # outside, on and inside the ring, against the literal sum
        fm = ds.frame_matrix(3, ds.SamplingGrid(0.5, 8), 7)
        for point in (0.7 * np.exp(0.3j), -0.95j, 0.5 * np.exp(0.1j), 0.2 + 0.1j):
            rho = np.conj(point) * np.exp(2j * np.pi * 2 / 8) / 0.5
            prefactor = ((1 - abs(point) ** 2) / 0.75) ** 1.5 / 8
            expected = prefactor * np.sum(rho ** np.arange(8))
            assert ds.sinc_kernel(fm, 2, point) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("z", [0.99, 0.5])
    def test_unrepresentable_value_raises(self, z):
        # the true values are about 1e419 at z = 0.5 and 1e592 at z = 0.99
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.1, 600), 599)
        with pytest.raises(NumericalRangeError, match="^sinc kernel value_0 beyond the double range"):
            ds.sinc_kernel(fm, 0, z)
        assert ds.sinc_kernel(fm, 0, 0.05) == pytest.approx(
            (1 - 0.05**2) / (1 - 0.1**2) / 600 * 2, rel=1e-13
        )

    @pytest.mark.parametrize("radius", [1e-310, 1e-300])
    def test_subnormal_ring_radius(self, radius):
        # 1/r overflows at r = 1e-310, so log rho is taken as
        # log(conj(z) e^(2 pi i k/N)) - log r; at z = 0 the sum is its one
        # term, and on the ring the values are the sample-space projector's
        grid = ds.SamplingGrid(radius, 4)
        fm = ds.frame_matrix(2, grid, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ds.sinc_kernel(fm, 0, 0.0) == 0.25
            kernel_matrix = np.column_stack([ds.sinc_kernel(fm, k, grid.points) for k in range(4)])
        assert np.allclose(kernel_matrix, oracle.sample_space_projector(fm), atol=1e-12)

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
        projected = oracle.sample_space_projector(fm) @ arbitrary
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
        "twice_s,band,n,radius,coefficients",
        [(2, 0, 2, 0.5, None), (3, 4, 6, 0.3, None), (5, 6, 14, 0.8, None),
         # at the rim the alias coefficients underflow to 0 and rescale_truncate
         # raises; the ring transform takes the signal from the samples
         (200, 2, 16, 0.999, [1.0, 0.5j, -0.25])],
        ids=["2-0-2-0.5", "3-4-6-0.3", "5-6-14-0.8", "200-2-16-0.999"],
    )
    def test_round_trip_identity(self, twice_s, band, n, radius, coefficients):
        rng = np.random.default_rng(40 + band)
        grid = ds.SamplingGrid(radius, n)
        fm = ds.frame_matrix(twice_s, grid, band)
        signals = ([unit_signal(rng, twice_s, band) for _ in range(5)] if coefficients is None
                   else [ds.DiskSignal(twice_s, coefficients)])
        for signal in signals:
            recovered = ds.fourier_coefficients(fm, ds.sample_signal(signal, grid))
            assert np.max(np.abs(recovered - signal.coefficients)) < 1e-14

    def test_coefficient_beyond_the_double_range_raises_with_its_log(self):
        # (N lambda_m)^(-1/2) passes 1e308 from m = 313 at r = 0.1; the DFT of
        # the constant samples there is rounding noise, so a_327 has log 711.5
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.1, 701), 700)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalRangeError, match=r"^a_\d+ beyond the double range") as err:
                ds.fourier_coefficients(fm, np.ones(701, dtype=complex))
        assert err.value.log_value > np.log(np.finfo(float).max)

    def test_zero_coefficient_stays_zero_where_the_filter_overflows(self):
        # the DFT of constant samples is exactly zero above m = 0 at N = 512,
        # and (N lambda_m)^(-1/2) leaves the double range from m = 313
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.1, 512), 511)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = ds.fourier_coefficients(fm, np.ones(512))
        assert coeffs[0] == pytest.approx(1.0 / 0.99, rel=1e-13)
        assert np.all(coeffs[1:] == 0)


class TestSampleSpaceProjector:
    def test_identity_at_critical_sampling(self):
        fm = ds.frame_matrix(2, ds.SamplingGrid(0.7, 6), 5)
        assert np.allclose(oracle.sample_space_projector(fm), np.eye(6), atol=1e-13)

    def test_trace_counts_modes(self):
        fm = ds.frame_matrix(4, ds.SamplingGrid(0.33, 8), 3)
        projector = oracle.sample_space_projector(fm)
        assert np.trace(projector).real == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("twice_s,n,radius,band", [(2, 5, 0.2, 2), (5, 11, 0.85, 6)])
    def test_projector_laws(self, twice_s, n, radius, band):
        projector = oracle.sample_space_projector(
            ds.frame_matrix(twice_s, ds.SamplingGrid(radius, n), band)
        )
        assert np.max(np.abs(projector @ projector - projector)) < 1e-12
        assert np.max(np.abs(projector - projector.conj().T)) < 1e-13
