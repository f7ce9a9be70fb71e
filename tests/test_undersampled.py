import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disksampling as ds
from disksampling import undersampled
from disksampling.validation import ConditioningWarning, NumericalRangeError

import oracle
from conftest import random_disk_points, sup_relative_error


# prime, prime-power and mixed lengths, the rim, and a prime length whose
# spread of 1e44 only the finite-sum check covers
DIRECT_DFT_KERNELS = [
    (2, 0.5, 1), (5, 0.9, 1), (2, 0.3, 2), (8, 0.7, 2), (3, 0.5, 3),
    (40, 0.9, 3), (2, 0.9, 5), (5, 0.3, 5), (3, 0.7, 7), (8, 0.5, 7),
    (2, 0.7, 12), (40, 0.5, 12), (5, 0.5, 30), (2, 0.9, 30), (3, 0.3, 60),
    (8, 0.9, 60), (2, 0.5, 63), (5, 0.7, 63), (40, 0.9, 64), (2, 0.3, 64),
    (3, 0.9, 96), (8, 0.5, 96), (2, 0.7, 97), (5, 0.9, 97), (2, 0.5, 128),
    (40, 0.7, 128), (3, 0.6, 256), (200, 0.999, 16), (200, 0.9995, 8), (2, 0.9, 509),
]
LARGE_SPIN_KERNELS = [
    (200, 0.9, 256), (200, 0.9, 512), (1000, 0.5, 64), (2000, 0.7, 128), (40, 0.95, 512),
]


@pytest.fixture(scope="module")
def fixture_kernel():
    return ds.overlap_kernel(2, ds.SamplingGrid(0.5, 2))


@pytest.fixture(scope="module")
def subnormal_kernel():
    """(kernel, oracle log lhat_{N-1}) at (2s, r, N) = (2, 0.7, 1048), whose
    lhat_1047 = e^-734.31 is subnormal."""
    kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.7, 1048))
    return kernel, oracle.row_dft_log_eigenvalue(2, kernel.grid, 1047)


def bound_margin(spectrum, signal):
    """bound - exact at band limit N-1 as (m, L) with the value m e^L, formed
    as the error-analysis flag forms it."""
    profile = ds.quasi_band_profile(signal, spectrum.grid.n_samples - 1)
    return undersampled._error_row(spectrum, signal, profile, "printed")[2]


def span_element_signal(kernel, weights, length):
    """Coefficients of sum_k c_k |z_k>, truncated at the given length."""
    m = np.arange(length)
    basis_at_grid = ds.basis_fn(
        kernel.twice_s, m[:, np.newaxis], kernel.grid.points[np.newaxis, :]
    )
    coeffs = np.conj(basis_at_grid) @ np.asarray(weights, dtype=np.complex128)
    return ds.DiskSignal(kernel.twice_s, coeffs)


class TestOverlapKernel:
    def test_the_class_and_its_builder_give_one_kernel(self):
        grid = ds.SamplingGrid(0.5, 4)
        built, direct = ds.overlap_kernel(2, grid), ds.CirculantKernel(np.int64(2), grid)
        assert built == direct and hash(built) == hash(direct)
        assert type(direct.twice_s) is int
        for name in ("first_row", "eigenvalues"):
            ours, theirs = getattr(built, name), getattr(direct, name)
            assert ours.tobytes() == theirs.tobytes()
            assert not ours.flags.writeable and not theirs.flags.writeable
        # the spectrum is derived once and kept
        assert built.spectrum is built.spectrum
        assert built.spectrum == ds.ResolutionSpectrum(2, grid)

    def test_derived_arrays_are_no_arguments(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))
        with pytest.raises(TypeError):
            ds.CirculantKernel(2, kernel.grid, kernel.first_row, kernel.eigenvalues)

    def test_the_kernel_stores_one_form_of_its_spectrum(self):
        # first_row and eigenvalues are views taken on each read: a kernel
        # keeps its logs, 8 bytes a sample, and not the 24 more of the
        # complex row and the eigenvalues
        import dataclasses
        import tracemalloc

        fields = {f.name for f in dataclasses.fields(ds.CirculantKernel)}
        assert fields == {"twice_s", "grid", "log_eigenvalues", "spectrum"}
        grid = ds.SamplingGrid(0.999, 4096)
        ds.overlap_kernel(2, grid)  # a first build, so that one-time imports are not counted
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kernel = ds.overlap_kernel(2, grid)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 16 * grid.n_samples
        assert kernel.first_row.size == kernel.eigenvalues.size == grid.n_samples

    def test_first_row_fixture(self, fixture_kernel):
        row = fixture_kernel.first_row
        assert row[0] == pytest.approx(1.0, abs=1e-15)
        assert row[1] == pytest.approx(0.36, rel=1e-13)

    def test_half_turn_entry_for_four_points(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))
        assert kernel.first_row[2] == pytest.approx(0.36, rel=1e-13)

    def test_single_point_kernel(self):
        kernel = ds.overlap_kernel(3, ds.SamplingGrid(0.6, 1))
        assert kernel.first_row[0] == pytest.approx(1.0, abs=1e-15)
        assert kernel.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("twice_s,n,radius", [(2, 5, 0.5), (5, 8, 0.75)])
    def test_matches_pairwise_gram(self, twice_s, n, radius):
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        pts = kernel.grid.points
        gram = ds.overlap(twice_s, pts[:, np.newaxis], pts[np.newaxis, :])
        assert np.max(np.abs(oracle.circulant(kernel.first_row) - gram)) < 1e-13

    def test_hermitian_positive_definite(self):
        kernel = ds.overlap_kernel(3, ds.SamplingGrid(0.7, 6))
        dense = oracle.circulant(kernel.first_row)
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(dense)) > 0


class TestKernelEigenvalues:
    def test_two_point_fixture(self, fixture_kernel):
        assert abs(fixture_kernel.eigenvalues[0] - 1.36) <= 1e-14
        assert abs(fixture_kernel.eigenvalues[1] - 0.64) <= 1e-14

    def test_exceed_bandlimited_eigenvalues(self):
        # lhat_j > lambda_j > 0: the series tail is strictly positive
        kernel = ds.overlap_kernel(3, ds.SamplingGrid(0.6, 5))
        lam = np.exp(kernel.spectrum.log_values(np.arange(5)))
        assert np.all(kernel.eigenvalues > lam)

    def test_trace_identity(self):
        for twice_s, n, radius in [(2, 3, 0.4), (4, 9, 0.8), (5, 2, 0.2)]:
            kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
            assert np.sum(kernel.eigenvalues) == pytest.approx(n, rel=1e-12)

    def test_wide_spread_agreement(self):
        # double-precision FFT of the row would be pure noise for the small ones
        kernel = ds.overlap_kernel(5, ds.SamplingGrid(0.2, 12))
        assert kernel.condition_number > 1e12
        series_like = np.exp(kernel.spectrum.log_values(np.arange(12)))
        # the tail may sit below one ulp of lambda_j, hence the slack on >=
        assert np.all(kernel.eigenvalues >= series_like * (1.0 - 1e-11))
        assert np.max(np.abs(kernel.eigenvalues / series_like - 1.0)) < 1e-3

    def test_dft_diagonalizes_dense_kernel(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.55, 6))
        n = 6
        k = np.arange(n)
        fourier = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
        diagonalized = fourier.conj().T @ oracle.circulant(kernel.first_row) @ fourier
        off = diagonalized - np.diag(np.diag(diagonalized))
        assert np.max(np.abs(off)) <= 1e-12 * np.max(kernel.eigenvalues)
        assert np.allclose(np.diag(diagonalized).real, kernel.eigenvalues, rtol=1e-11)

    def test_small_radius_limit(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(1e-4, 5))
        assert kernel.eigenvalues[0] == pytest.approx(5.0, rel=1e-6)
        assert np.all(kernel.eigenvalues[1:] < 1e-6)

    @pytest.mark.parametrize("twice_s,radius,n", DIRECT_DFT_KERNELS)
    def test_class_tails_match_the_direct_dft(self, twice_s, radius, n):
        grid = ds.SamplingGrid(radius, n)
        kernel = ds.overlap_kernel(twice_s, grid)
        expected, _ = oracle.row_dft_eigenvalues(twice_s, grid)
        gap = np.max(np.abs(kernel.eigenvalues / expected - 1.0))
        assert gap <= undersampled._EIG_AGREE_RTOL

    @pytest.mark.parametrize("twice_s, radius, n", LARGE_SPIN_KERNELS)
    def test_large_spin_kernels_pass_the_cross_check(self, twice_s, radius, n):
        # the series route read lambda_n from log-gamma differences, whose
        # rounding (1e-12 to 7e-12 relative here) tripped the 1e-12 limit
        assert undersampled._EIG_AGREE_RTOL == 1e-12
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        assert np.all(kernel.eigenvalues > 0.0)
        assert np.sum(kernel.eigenvalues) == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize(
        "twice_s, radius, n",
        DIRECT_DFT_KERNELS
        + LARGE_SPIN_KERNELS
        + [(2, 0.5, 509), (200, 0.9, 1024), (2, 0.7, 1024), (2000, 0.9, 1024)],
    )
    def test_finite_sum_matches_the_exact_oracle(self, twice_s, radius, n):
        # at the smallest lhat_j, where construction runs it; (2, 0.7, 1024)'s
        # is subnormal.  The oracle's log is rounded once, so the check may
        # differ from it by half its ulp plus the check's own 3u + 5 2^-100
        grid = ds.SamplingGrid(radius, n)
        log_eig = undersampled._log_class_tails(ds.ResolutionSpectrum(twice_s, grid),
                                                np.arange(n), "eigenvalue")
        j = int(np.argmin(log_eig))
        exact = float(oracle.finite_sum_log_eigenvalues(twice_s, grid, [j])[0])
        gap = undersampled._finite_sum_log_gap(twice_s, grid, j, exact)
        assert abs(gap) <= 0.5 * math.ulp(exact) + 4 * 2.0**-53

    @pytest.mark.parametrize("twice_s, radius, n", DIRECT_DFT_KERNELS)
    def test_finite_sum_passes_every_class_tail(self, twice_s, radius, n):
        grid = ds.SamplingGrid(radius, n)
        log_eig = undersampled._log_class_tails(ds.ResolutionSpectrum(twice_s, grid),
                                                np.arange(n), "eigenvalue")
        for j in range(0, n, max(1, n // 16)):
            gap = undersampled._finite_sum_log_gap(twice_s, grid, j, float(log_eig[j]))
            assert abs(gap) <= undersampled._EIG_AGREE_RTOL, j

    @pytest.mark.parametrize(
        "twice_s, radius, n", [(200, 0.999, 16), (1000, 0.99, 512), (2000, 0.9, 1024), (5, 0.2, 12)]
    )
    def test_finite_sum_passes_the_class_tail_and_fails_a_skewed_value(self, twice_s, radius, n):
        # a value off by more than the tolerance must fail on either side
        grid = ds.SamplingGrid(radius, n)
        spectrum = ds.ResolutionSpectrum(twice_s, grid)
        log_eig = undersampled._log_class_tails(spectrum, np.arange(n), "eigenvalue")
        j = int(np.argmin(log_eig))

        def gap(skew):
            log_size = float(log_eig[j]) + skew
            return abs(np.expm1(undersampled._finite_sum_log_gap(twice_s, grid, j, log_size)))

        assert gap(0.0) <= undersampled._EIG_AGREE_RTOL
        for skew in (1e-11, -1e-11, 10.0, -10.0, 300.0, -300.0):
            assert not gap(skew) <= undersampled._EIG_AGREE_RTOL, skew

    @pytest.mark.parametrize("twice_s, radius, n, j", [(2, 0.5, 6, 3), (2, 0.3, 4, 2)])
    def test_a_value_far_above_lhat_fails(self, twice_s, radius, n, j):
        # a claimed e^42.5 against lhat_j below 1: the row sum, cut to its
        # terms above e^-0.7, went negative here; the finite sum's terms are
        # all positive, so the value is simply far off
        grid = ds.SamplingGrid(radius, n)
        gap = undersampled._finite_sum_log_gap(twice_s, grid, j, 42.5)
        assert gap > 42.5
        assert not abs(np.expm1(gap)) <= undersampled._EIG_AGREE_RTOL

    def test_finite_sum_passes_a_class_tail_rounded_past_1e_12(self):
        # log lhat_4095 = -9844.09, where one ulp is 2^-39 = 1.8e-12: the row
        # sum's rounded log was one ulp from the class tail's, a false fault
        # at 1e-12.  The finite sum meets the class tail unrounded, and the
        # limit is one ulp past |log lhat| = 8192, exactly 1e-12 below it
        grid = ds.SamplingGrid(0.3, 4096)
        log_eig = undersampled._log_class_tails(ds.ResolutionSpectrum(2, grid),
                                                np.array([4095]), "eigenvalue")
        log_size = float(log_eig[0])
        assert math.ulp(log_size) == 2.0**-39 and math.ulp(8191.9) < 1e-12
        exact = float(oracle.finite_sum_log_eigenvalues(2, grid, [4095])[0])
        assert abs(exact - log_size) <= 2.0**-39
        gap = undersampled._finite_sum_log_gap(2, grid, 4095, log_size)
        assert abs(np.expm1(gap)) <= max(undersampled._EIG_AGREE_RTOL, math.ulp(log_size))

    @pytest.mark.parametrize(
        "twice_s, radius, n", [(8, 0.5, 4096), (8, 0.51, 4096), (2, 0.3, 4096), (2, 0.1, 2048),
                               (2, 0.99999, 2**18)]
    )
    def test_deep_and_large_kernels_are_checked_in_100_ms(self, twice_s, radius, n):
        # the row sum took 0.5-6.2 s on each; the finite sum's cost does not
        # depend on the value under check, so any log serves
        grid = ds.SamplingGrid(radius, n)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            undersampled._finite_sum_log_gap(twice_s, grid, n - 1, 0.0)
            best = min(best, time.perf_counter() - start)
        assert best <= 0.1

    def test_condition_number_beyond_the_double_range_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ds.overlap_kernel(2, ds.SamplingGrid(0.7, 1024)).condition_number == np.inf
            kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.1, 8))
            finite = kernel.condition_number
        # the spread of the logs, as the frame's; here the ratio of the
        # rounded eigenvalues is within 1e-14 of it
        assert finite == float(np.exp(np.ptp(kernel.log_eigenvalues)))
        assert finite == pytest.approx(np.max(kernel.eigenvalues) / np.min(kernel.eigenvalues),
                                       rel=1e-14)

    @pytest.mark.parametrize("radius, n", [(0.999, 16), (0.9995, 8)])
    def test_rim_kernels_pass_the_cross_check(self, radius, n):
        # every class's first 16 terms underflow here, and a series summed
        # from q = 0 closed at 0, a false disagreement of 1.0
        kernel = ds.overlap_kernel(200, ds.SamplingGrid(radius, n))
        assert np.sum(kernel.eigenvalues) == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize(
        "twice_s, radius, n",
        [(200, 0.999, 16), (200, 0.9995, 8), (2000, 0.99, 64), (2, 0.9999, 3)],
    )
    def test_the_fft_alone_checks_a_peaked_rim_row(self, monkeypatch, twice_s, radius, n):
        # C_0 = 1 exactly and is charged no rounding, so the FFT's bound lies
        # below half the 1e-12 budget at every lhat_j and no finite-sum check
        # runs; the class tails of (2, 0.9999, 3) are long, yet within their budget
        def refuse(*args):
            raise AssertionError("ran the finite-sum check")

        monkeypatch.setattr(undersampled, "_finite_sum_log_gap", refuse)
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        assert kernel.first_row[0] == 1.0
        assert np.sum(kernel.eigenvalues) == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("twice_s, radius, n", [(5, 0.2, 12), (8, 0.9, 59)])
    def test_a_spread_spectrum_still_runs_the_finite_sum_check(
        self, monkeypatch, twice_s, radius, n
    ):
        checked = []
        check = undersampled._finite_sum_log_gap

        def recorded(twice_s, grid, j, log_size):
            checked.append(j)
            return check(twice_s, grid, j, log_size)

        monkeypatch.setattr(undersampled, "_finite_sum_log_gap", recorded)
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        assert checked == [int(np.argmin(kernel.eigenvalues))]

    def test_the_fft_check_reads_the_row_the_kernel_stores(self, monkeypatch):
        # (5, 0.2, 12) runs the FFT check and the finite-sum check; the row
        # is formed once, as the first_row view forms it, and the finite sum
        # reads no row
        formed = []
        first_row = undersampled._first_row
        monkeypatch.setattr(
            undersampled, "_first_row", lambda *args: formed.append(args) or first_row(*args)
        )
        grid = ds.SamplingGrid(0.2, 12)
        kernel = ds.overlap_kernel(5, grid)
        assert formed == [(5, grid)]
        row, one_minus, d = first_row(5, grid)
        assert np.array_equal(kernel.first_row, row)
        assert np.array_equal(row, (one_minus / d) ** 5)

    def test_single_point_series_consistency(self):
        # N=1: the row DFT is C_0 = 1 exactly; the series must agree
        for radius in (0.3, 0.8):
            kernel = ds.overlap_kernel(4, ds.SamplingGrid(radius, 1))
            assert kernel.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("transform", ["dft-coefficients", "projector-element", "dual-weights"])
    def test_a_subnormal_eigenvalue_keeps_its_digits_in_every_transform(
        self, subnormal_kernel, transform
    ):
        # the log of lhat_1047's subnormal double is 1.77e-5 off, and numpy's
        # complex division forms 1/lhat_j, which overflows from lhat_1013 = 4.08e-309
        kernel, log_eig = subnormal_kernel
        n = kernel.n_samples
        log_lam = kernel.spectrum.log_values(np.array([n - 1]))[0]
        unit = np.fft.fft(np.eye(n)[n - 1])  # its samples' DFT d is e_{N-1}
        if transform == "dft-coefficients":
            got = ds.dft_coefficients(kernel, unit, n - 1)[n - 1]
            want = np.exp(0.5 * (np.log(n) + log_lam) - log_eig)
        elif transform == "projector-element":
            got, want = ds.projector_element(kernel, n - 1, n - 1), np.exp(log_lam - log_eig)
        else:
            # scaled so that the weights, all of modulus 1e-20/lhat_{N-1}, fit
            with pytest.warns(ConditioningWarning):
                weights = ds.dual_weights(kernel, 1e-20 * unit)
                noise = ds.dual_weights(kernel, np.exp(2j * np.pi * (n - 1) * np.arange(n) / n))
            assert np.all(np.isfinite(noise))
            got, want = np.abs(weights), np.exp(np.log(1e-20) - log_eig)
        assert kernel.log_eigenvalues[n - 1] == pytest.approx(log_eig, rel=1e-15)
        assert np.max(np.abs(got - want)) <= 1e-12 * want


def inverse_matrix(kernel):
    """B^-1 column by column: column k is the dual weights of the unit sample e_k."""
    return np.column_stack([ds.dual_weights(kernel, unit) for unit in np.eye(kernel.n_samples)])


class TestInvertKernel:
    def test_hand_values(self, fixture_kernel):
        inverse = inverse_matrix(fixture_kernel)
        assert inverse[0, 0] == pytest.approx(1.1488970588235294, rel=1e-13)
        assert inverse[0, 1] == pytest.approx(-0.4136029411764706, rel=1e-13)
        assert inverse[1, 0] == pytest.approx(inverse[0, 1], rel=1e-13)

    @pytest.mark.parametrize("twice_s,n,radius", [(2, 2, 0.5), (2, 8, 0.5), (3, 5, 0.7)])
    def test_roundtrip_identity(self, twice_s, n, radius):
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        assert kernel.condition_number < 1e4
        residue = oracle.circulant(kernel.first_row) @ inverse_matrix(kernel) - np.eye(n)
        assert np.max(np.abs(residue)) <= 1e-11

    def test_roundtrip_relaxed_when_ill_conditioned(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.3, 10))
        residue = oracle.circulant(kernel.first_row) @ inverse_matrix(kernel) - np.eye(10)
        floor = kernel.condition_number * 10 * np.finfo(float).eps
        assert np.max(np.abs(residue)) <= 100 * floor

    def test_small_radius_limits(self):
        # all coherent states collapse onto the lowest state as r -> 0, so the
        # Gram matrix tends to the all-ones matrix; only N=1 gives B -> I
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(1e-4, 4))
        assert np.allclose(oracle.circulant(kernel.first_row), np.ones((4, 4)), atol=1e-7)
        single = ds.overlap_kernel(2, ds.SamplingGrid(1e-4, 1))
        assert np.allclose(inverse_matrix(single), np.eye(1), atol=1e-7)

    def test_conditioning_warning(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.1, 14))
        assert kernel.is_ill_conditioned
        with pytest.warns(ConditioningWarning):
            ds.dual_weights(kernel, np.eye(14)[0])


class TestConditioningWarning:
    CALLS = {
        "dual_weights": ds.dual_weights,
        "partial_reconstruct": lambda kernel, unit: ds.partial_reconstruct(kernel, unit, 0.2j),
        "dual_sinc_kernel": lambda kernel, unit: ds.dual_sinc_kernel(kernel, 0, 0.2j),
    }

    # dual_weights itself: TestInvertKernel.test_conditioning_warning
    @pytest.mark.parametrize("name", ["partial_reconstruct", "dual_sinc_kernel"])
    def test_pointwise_call_warns_when_ill_conditioned(self, name):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.1, 14))
        with pytest.warns(ConditioningWarning, match="condition number 7.143e\\+24"):
            self.CALLS[name](kernel, np.eye(14)[0])

    @pytest.mark.parametrize("name", ["partial_reconstruct", "dual_sinc_kernel"])
    def test_pointwise_call_warns_once(self, name):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.1, 14))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.CALLS[name](kernel, np.eye(14)[0])
        assert [w.category for w in caught] == [ConditioningWarning]

    @pytest.mark.parametrize("name", CALLS)
    def test_no_warning_when_well_conditioned(self, name, fixture_kernel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.CALLS[name](fixture_kernel, np.eye(2)[0])


class TestDualSinc:
    def test_hand_value(self, fixture_kernel):
        assert ds.dual_sinc_kernel(fixture_kernel, 0, 0j) == pytest.approx(
            0.5514705882352941, rel=1e-12
        )

    @pytest.mark.parametrize("twice_s,n,radius", [(2, 2, 0.5), (2, 6, 0.45), (4, 9, 0.7)])
    def test_delta_property_on_grid(self, twice_s, n, radius):
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        matrix = np.column_stack(
            [ds.dual_sinc_kernel(kernel, k, kernel.grid.points) for k in range(n)]
        )
        assert np.max(np.abs(matrix - np.eye(n))) < 1e-10

    @pytest.mark.parametrize("twice_s,n,radius", [(2, 2, 0.5), (3, 5, 0.6), (5, 7, 0.35)])
    def test_series_route_agreement(self, twice_s, n, radius):
        rng = np.random.default_rng(17)
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        z = random_disk_points(rng, 10)
        for k in (0, n - 1):
            primary = ds.dual_sinc_kernel(kernel, k, z)
            series = oracle.dual_sinc_series(kernel, k, z)
            assert np.max(np.abs(primary - series)) < 1e-10

    def test_single_point_small_radius_limit(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(1e-5, 1))
        z = 0.4 + 0.1j
        expected = ds.overlap(2, z, kernel.grid.points[0]) / kernel.eigenvalues[0]
        assert ds.dual_sinc_kernel(kernel, 0, z) == pytest.approx(expected, rel=1e-12)
        assert abs(ds.dual_sinc_kernel(kernel, 0, z) - (1 - abs(z) ** 2)) < 1e-4


class TestPartialReconstruct:
    def test_interpolates_samples(self):
        rng = np.random.default_rng(21)
        kernel = ds.overlap_kernel(3, ds.SamplingGrid(0.5, 6))
        samples = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        at_grid = ds.partial_reconstruct(kernel, samples, kernel.grid.points)
        assert sup_relative_error(at_grid, samples) < 1e-10

    def test_interpolates_samples_on_a_rim_ring(self):
        # at 2s = 200, r = 0.999 the powers (1-r^2)^100 underflow
        rng = np.random.default_rng(23)
        kernel = ds.overlap_kernel(200, ds.SamplingGrid(0.999, 16))
        samples = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        at_grid = ds.partial_reconstruct(kernel, samples, kernel.grid.points)
        assert sup_relative_error(at_grid, samples) < 1e-10

    @pytest.mark.parametrize("twice_s,radius,n", [(3, 0.5, 6), (200, 0.999, 16)])
    def test_is_the_coherent_sum_of_the_dual_weights(self, twice_s, radius, n):
        # the alias is sum_l w_l <z|z_l>, w = dual_weights, summed here term by term
        rng = np.random.default_rng(24 + n)
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        weights = ds.dual_weights(kernel, samples)
        # points inside the disk and three on the sampling ring, between its points
        on_ring = radius * np.exp(0.3j + 0.5j * np.arange(3))
        pts = np.concatenate([random_disk_points(rng, 7), on_ring])
        terms = np.array([[w * ds.overlap(twice_s, z, z_l)
                           for w, z_l in zip(weights, kernel.grid.points)] for z in pts])
        miss = np.abs(ds.partial_reconstruct(kernel, samples, pts) - terms.sum(axis=1))
        assert np.all(miss <= 1e-13 * np.abs(terms).sum(axis=1))

    def test_zero_samples(self, fixture_kernel):
        assert ds.partial_reconstruct(fixture_kernel, np.zeros(2), 0.3 + 0.2j) == 0

    def test_matches_dense_oracle_projection(self, fixture_kernel):
        rng = np.random.default_rng(22)
        length = 48
        signal = ds.DiskSignal(2, np.concatenate([[1.0], np.zeros(length - 1)]))
        samples = ds.sample_signal(signal, fixture_kernel.grid)
        projector = oracle.dense_projector(2, fixture_kernel.grid, length)
        padded = np.zeros(length, dtype=np.complex128)
        padded[: len(signal)] = signal.coefficients
        alias = ds.DiskSignal(2, projector @ padded)
        pts = random_disk_points(rng, 8, max_radius=0.8)
        assert sup_relative_error(
            ds.partial_reconstruct(fixture_kernel, samples, pts),
            ds.evaluate_signal(alias, pts),
        ) < 1e-9


class TestDftCoefficients:
    def test_filtered_constant_mode(self, fixture_kernel):
        samples = np.array([0.75, 0.75])
        ahat = ds.dft_coefficients(fixture_kernel, samples, 0)
        assert ahat[0] == pytest.approx(1.125 / 1.36, rel=1e-12)

    def test_periodization(self):
        rng = np.random.default_rng(23)
        kernel = ds.overlap_kernel(3, ds.SamplingGrid(0.55, 4))
        samples = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        n_max = 4 * 4 - 1
        ahat = ds.dft_coefficients(kernel, samples, n_max)
        logs = kernel.spectrum.log_values(np.arange(n_max + 1))
        for n in range(4):
            for p in range(1, 4):
                expected = np.exp(0.5 * (logs[n + 4 * p] - logs[n])) * ahat[n]
                if abs(ahat[n]) > 1e-13:
                    assert abs(ahat[n + 4 * p] - expected) <= 1e-10 * abs(expected)

    def test_bandlimited_filter_identity(self):
        # (lhat_n / lambda_n) * ahat_n returns a_n exactly for band limit < N
        rng = np.random.default_rng(24)
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.4, 6))
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        signal = ds.DiskSignal(2, coeffs)
        samples = ds.sample_signal(signal, kernel.grid)
        ahat = ds.dft_coefficients(kernel, samples, 3)
        logs = kernel.spectrum.log_values(np.arange(4))
        unfiltered = ahat * np.exp(np.log(kernel.eigenvalues[:4]) - logs)
        assert np.max(np.abs(unfiltered - coeffs)) < 1e-11

    def test_matches_dense_projector_action(self):
        # ahat_n is the n-th coefficient of the projected signal
        rng = np.random.default_rng(25)
        kernel = ds.overlap_kernel(3, ds.SamplingGrid(0.5, 3))
        length = 36
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        signal = ds.DiskSignal(3, coeffs)
        samples = ds.sample_signal(signal, kernel.grid)
        ahat = ds.dft_coefficients(kernel, samples, length - 1)
        padded = np.zeros(length, dtype=np.complex128)
        padded[:6] = coeffs
        expected = oracle.dense_projector(3, kernel.grid, length) @ padded
        assert np.max(np.abs(ahat - expected)) < 1e-10


class TestRescaleTruncate:
    def test_inverts_filter_fixture(self, fixture_kernel):
        ahat = ds.dft_coefficients(fixture_kernel, np.array([0.75, 0.75]), 0)
        recovered = ds.rescale_truncate(fixture_kernel, ahat, 0)
        assert recovered.coefficients[0] == pytest.approx(1.0, rel=1e-12)

    def test_zero_in_zero_out(self, fixture_kernel):
        out = ds.rescale_truncate(fixture_kernel, np.zeros(2, dtype=complex), 0)
        assert np.all(out.coefficients == 0)

    def test_requires_band_limit_below_n(self, fixture_kernel):
        with pytest.raises(ValueError):
            ds.rescale_truncate(fixture_kernel, np.zeros(4, dtype=complex), 2)

    def test_underflowed_coefficients_at_the_rim_raise_without_a_warning(self):
        # lhat_n/lambda_n is about e^1240 while ahat_0..2 have underflowed to 0
        kernel = ds.overlap_kernel(200, ds.SamplingGrid(0.999, 16))
        samples = ds.sample_signal(ds.DiskSignal(200, np.array([1.0, 0.5j, -0.25])), kernel.grid)
        ahat = ds.dft_coefficients(kernel, samples, 2)
        assert np.all(ahat == 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ds.NumericalRangeError, match="ahat_0 has lost its digits"):
                ds.rescale_truncate(kernel, ahat, 2)

    def test_lost_digits_name_the_route_that_recovers_them(self):
        coeffs = np.array([1.0, 0.5j, -0.25])
        kernel = ds.overlap_kernel(200, ds.SamplingGrid(0.999, 16))
        samples = ds.sample_signal(ds.DiskSignal(200, coeffs), kernel.grid)
        with pytest.raises(ds.NumericalRangeError,
                           match=r"rescale from the samples with fourier_coefficients \(log value"):
            ds.rescale_truncate(kernel, ds.dft_coefficients(kernel, samples, 2), 2)
        frame = ds.frame_matrix(200, kernel.grid, 2)
        assert np.max(np.abs(ds.fourier_coefficients(frame, samples) - coeffs)) < 1e-14

    def test_factor_beyond_the_range_times_a_normal_coefficient_is_one_exponent(self):
        kernel = ds.overlap_kernel(200, ds.SamplingGrid(0.999, 16))
        log_factor = np.log(kernel.eigenvalues[0]) - kernel.spectrum.log_values(np.array([0]))[0]
        assert log_factor > 1000.0
        out = ds.rescale_truncate(kernel, np.array([1e-300, 0.0]), 0).coefficients[0]
        assert out == pytest.approx(np.exp(np.log(1e-300) + log_factor), rel=1e-12)

    @pytest.mark.parametrize("twice_s,n,radius,band", [(2, 4, 0.5, 2), (4, 9, 0.7, 5)])
    def test_round_trip_identity(self, twice_s, n, radius, band):
        rng = np.random.default_rng(60 + n)
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        coeffs = rng.standard_normal(band + 1) + 1j * rng.standard_normal(band + 1)
        signal = ds.DiskSignal(twice_s, coeffs)
        samples = ds.sample_signal(signal, kernel.grid)
        ahat = ds.dft_coefficients(kernel, samples, band)
        recovered = ds.rescale_truncate(kernel, ahat, band)
        assert np.max(np.abs(recovered.coefficients - coeffs)) < 1e-10


class TestProjectorElement:
    def test_hand_values(self, fixture_kernel):
        assert ds.projector_element(fixture_kernel, 0, 0) == pytest.approx(
            1.125 / 1.36, rel=1e-12
        )
        assert ds.projector_element(fixture_kernel, 0, 1) == 0.0
        expected = np.sqrt(1.125 * 0.2109375) / 1.36
        assert ds.projector_element(fixture_kernel, 0, 2) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self, fixture_kernel):
        assert ds.projector_element(fixture_kernel, 2, 4) == pytest.approx(
            ds.projector_element(fixture_kernel, 4, 2), rel=1e-14
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            twice_s = int(rng.integers(2, 6))
            n = int(rng.integers(1, 7))
            radius = float(rng.uniform(0.25, 0.7))
            grid = ds.SamplingGrid(radius, n)
            kernel = ds.overlap_kernel(twice_s, grid)
            length = 24
            dense = oracle.dense_projector(twice_s, grid, length)
            block = np.zeros((length, length))
            for m in range(length):
                for q in range(length):
                    block[m, q] = ds.projector_element(kernel, m, q)
            assert np.max(np.abs(dense - block)) < 1e-9

    def test_power_law_scaling(self):
        # entries with residue class j and offsets (p, q) scale like r^{(p+q)N}
        ratios = []
        for radius in (0.05, 0.025):
            kernel = ds.overlap_kernel(2, ds.SamplingGrid(radius, 4))
            ratios.append(ds.projector_element(kernel, 1, 5) / radius**4)
        assert abs(ratios[0] / ratios[1] - 1.0) < 0.05


class TestTailExcess:
    def test_hand_value(self, fixture_kernel):
        assert ds.tail_excess(fixture_kernel.spectrum, 0) == pytest.approx(47.0 / 225.0, rel=1e-12)

    def test_vanishes_at_small_radius(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(1e-3, 3))
        for n in range(3):
            assert ds.tail_excess(kernel.spectrum, n) < 1e-11

    def test_rejects_out_of_range(self, fixture_kernel):
        with pytest.raises(ValueError):
            ds.tail_excess(fixture_kernel.spectrum, 2)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        twice_s=st.integers(min_value=2, max_value=6),
        n=st.integers(min_value=2, max_value=12),
        radius=st.floats(min_value=0.1, max_value=0.85),
    )
    def test_strictly_decreasing(self, twice_s, n, radius):
        kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
        eps = np.atleast_1d(ds.tail_excess(kernel.spectrum, np.arange(n)))
        assert np.all(np.diff(eps) < 0)

    def test_an_eps_beyond_the_double_range_is_refused_by_its_n(self):
        # log eps_n of (200, 0.986, 4) is 715.13, 709.86, 705.28, 701.10:
        # only eps_0 is beyond the range, at position 1 of [2, 0]
        spectrum = ds.ResolutionSpectrum(200, ds.SamplingGrid(0.986, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalRangeError, match="^eps_0 beyond the double range") as info:
                ds.tail_excess(spectrum, [2, 0])
            eps = ds.tail_excess(spectrum, [3, 2])
            below = ds.tail_excess(ds.ResolutionSpectrum(2, ds.SamplingGrid(0.1, 200)), 0)
        assert info.value.log_value == pytest.approx(715.1287823876595, rel=1e-14)
        # in range and below it, the plain exponential of the log, bit for bit
        plain = np.exp(undersampled._log_tail_excess(spectrum, np.array([3, 2])))
        assert eps.tobytes() == plain.tobytes()
        assert eps == pytest.approx([3.03246907e304, 1.98509056e306], rel=1e-8)
        assert below == 0.0

    def test_consistent_with_eigenvalues(self):
        # same quantity as (lhat - lambda)/lambda where that is representable
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.6, 3))
        lam = np.exp(kernel.spectrum.log_values(np.arange(3)))
        direct = (kernel.eigenvalues - lam) / lam
        series = np.atleast_1d(ds.tail_excess(kernel.spectrum, np.arange(3)))
        assert np.allclose(series, direct, rtol=1e-9)


class TestQuasiBandProfile:
    def test_uniform_three_mode_signal(self):
        signal = ds.DiskSignal(2, np.ones(3) / np.sqrt(3))
        profile = ds.quasi_band_profile(signal, 1)
        assert profile.epsilon_m == pytest.approx(1.0 / np.sqrt(3), rel=1e-13)

    def test_bandlimited_signal_has_zero_tail(self):
        signal = ds.DiskSignal(2, [1.0, 2.0, 3.0])
        assert ds.quasi_band_profile(signal, 2).epsilon_m == 0.0
        assert ds.quasi_band_profile(signal, 7).epsilon_m == 0.0

    def test_geometric_tail(self):
        rho, length = 0.5, 60
        signal = ds.DiskSignal(2, rho ** np.arange(length) + 0j)
        for band in (0, 3, 10):
            got = ds.quasi_band_profile(signal, band).epsilon_m
            expected_sq = (rho ** (2 * (band + 1)) - rho ** (2 * length)) / (
                1.0 - rho ** (2 * length)
            )
            assert got**2 == pytest.approx(expected_sq, rel=1e-12)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            ds.quasi_band_profile(ds.DiskSignal(2, [0.0]), 0)

    def test_stores_what_its_checks_return(self):
        profile = ds.QuasiBandProfile(np.int64(3), np.float32(0.25))
        assert type(profile.band_limit) is int and profile.band_limit == 3
        assert type(profile.epsilon_m) is float and profile.epsilon_m == 0.25
        assert profile == ds.QuasiBandProfile(3, 0.25)


class TestAliasError:
    def test_fixture_value(self, fixture_kernel):
        err = ds.alias_error(fixture_kernel.spectrum, ds.DiskSignal(2, [1.0]))
        assert err**2 == pytest.approx(1.0 - 1.125 / 1.36, rel=1e-11)

    def test_vanishes_on_span_elements(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))
        rng = np.random.default_rng(33)
        weights = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        signal = span_element_signal(kernel, weights, 80)
        assert ds.alias_error(kernel.spectrum, signal) <= 1e-8 * np.sqrt(signal.norm_squared)

    def test_absolute_homogeneity(self, fixture_kernel):
        rng = np.random.default_rng(34)
        coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        base = ds.alias_error(fixture_kernel.spectrum, ds.DiskSignal(2, coeffs))
        scaled = ds.alias_error(fixture_kernel.spectrum, ds.DiskSignal(2, (2.0 - 1.0j) * coeffs))
        assert scaled == pytest.approx(abs(2.0 - 1.0j) * base, rel=1e-12)

    def test_twice_s_mismatch_rejected(self, fixture_kernel):
        with pytest.raises(ValueError):
            ds.alias_error(fixture_kernel.spectrum, ds.DiskSignal(3, [1.0]))

    @pytest.mark.parametrize("k", [-600, 0, 600])
    def test_error_analysis_for_coefficients_of_any_size(self, k):
        # the squares of 2^600 a leave the double range, those of 2^-600 a
        # underflow; the row is scale-free and the alias error scales with a
        spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 3))
        a = np.array([1.0, 0.5, 0.25, 0.1])

        def row(coeffs):
            signal = ds.DiskSignal(2, coeffs)
            profile = ds.quasi_band_profile(signal, 2)
            return undersampled._error_row(spectrum, signal, profile, "printed")

        assert row(2.0**k * a) == row(a)
        scaled = ds.alias_error(spectrum, ds.DiskSignal(2, 2.0**k * a))
        assert scaled == 2.0**k * ds.alias_error(spectrum, ds.DiskSignal(2, a))

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(36)
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.45, 4))
        length = 40
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        signal = ds.DiskSignal(2, coeffs)
        padded = np.zeros(length, dtype=np.complex128)
        padded[:12] = coeffs
        projector = oracle.dense_projector(2, kernel.grid, length)
        expected_sq = signal.norm_squared - float(
            np.real(padded.conj() @ projector @ padded)
        )
        assert ds.alias_error(kernel.spectrum, signal) ** 2 == pytest.approx(expected_sq, rel=1e-9)


class TestErrorBound:
    def test_requires_critical_band_limit(self, fixture_kernel):
        with pytest.raises(ValueError):
            ds.error_bound(fixture_kernel.spectrum, ds.QuasiBandProfile(0, 0.1))

    def test_bandlimited_signal_reduces_to_first_term(self, fixture_kernel):
        eps0 = ds.tail_excess(fixture_kernel.spectrum, 0)
        bound = ds.error_bound(fixture_kernel.spectrum, ds.QuasiBandProfile(1, 0.0))
        assert bound.value == pytest.approx(eps0 / (1.0 + eps0), rel=1e-13)
        assert bound.leading_order == 0.0

    def test_small_radius_approaches_tail_energy(self):
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(1e-3, 4))
        profile = ds.QuasiBandProfile(3, 0.25)
        bound = ds.error_bound(kernel.spectrum, profile)
        assert bound.value == pytest.approx(0.25**2, abs=1e-6)

    def test_dominates_exact_error(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            twice_s = int(rng.integers(2, 6))
            n = int(rng.integers(2, 11))
            radius = float(rng.uniform(0.05, 0.6))
            rho = float(rng.uniform(0.3, 0.9))
            kernel = ds.overlap_kernel(twice_s, ds.SamplingGrid(radius, n))
            signal = oracle.random_signal(twice_s, decay=rho, seed=int(rng.integers(1 << 30)))
            profile = ds.quasi_band_profile(signal, n - 1)
            exact = ds.alias_error(kernel.spectrum, signal) ** 2 / signal.norm_squared
            assert exact <= ds.error_bound(kernel.spectrum, profile).value
            assert bound_margin(kernel.spectrum, signal)[0] >= 0.0

    def test_a_signal_of_a_0_alone_meets_the_bound_with_equality(self):
        # eps_M = 0, and the exact error and the bound are both eps_0/(1+eps_0):
        # the margin is exactly 0 where eps_0 is small (class 0's term of G)
        # and where it is large (Q = D from the same class tail), also for an
        # a_0 that is not a power of two times 1
        nonzero = []
        radii = np.concatenate([np.linspace(0.1, 0.95, 18), [0.97, 0.9734, 0.986]])
        for twice_s in (2, 4, 8):
            for a0 in (1.0, 1.0 + 1.0j, 0.3 - 2.0j, 1e-300):
                signal = ds.DiskSignal(twice_s, [a0])
                for n in (1, 2, 3, 5, 8, 16):
                    profile = ds.quasi_band_profile(signal, n - 1)
                    for radius in radii:
                        spectrum = ds.ResolutionSpectrum(twice_s, ds.SamplingGrid(radius, n))
                        exact, bound, (margin, scale) = undersampled._error_row(
                            spectrum, signal, profile, "printed")
                        assert exact == pytest.approx(bound.value, rel=1e-14)
                        if margin != 0.0:
                            nonzero.append((twice_s, a0, n, radius, margin, scale))
        assert nonzero == []

    @pytest.mark.parametrize(
        "twice_s, radius, n, decay, seed, digits",
        [(8, 0.15, 128, 0.98, 0, 160), (40, 0.2, 64, 0.99, 1, 80), (2, 0.12, 256, 0.99, 0, 300)],
    )
    def test_margin_matches_extended_precision(self, twice_s, radius, n, decay, seed, digits):
        # bound and exact agree to more digits than a double holds, and
        # comparing the two doubles says the bound fails in all three cases
        rng = np.random.default_rng(seed)
        coeffs = decay ** np.arange(512) * (
            rng.standard_normal(512) + 1j * rng.standard_normal(512)
        )
        signal = ds.DiskSignal(twice_s, coeffs)
        grid = ds.SamplingGrid(radius, n)
        got, scale = bound_margin(ds.ResolutionSpectrum(twice_s, grid), signal)
        assert got > 0.0 and scale == 0.0
        assert got == pytest.approx(oracle.bound_and_exact(signal, grid, digits)[2], rel=1e-12)

    @pytest.mark.parametrize(
        "twice_s, radius, n, length",
        [(60, 0.9, 16, 4), (60, 0.9, 16, 8), (100, 0.9, 8, 8), (20, 0.95, 4, 4)],
    )
    def test_rim_margin_matches_extended_precision(self, twice_s, radius, n, length):
        # eps_0 is above e^45 here: bound and exact both lie within about
        # 1/eps_0 of 1, and in the two cases with 8 coefficients comparing
        # bound - eps_M^2 with exact - eps_M^2 in doubles says the bound fails
        rng = np.random.default_rng(length)
        coeffs = 0.9 ** np.arange(length) * (
            rng.standard_normal(length) + 1j * rng.standard_normal(length)
        )
        signal = ds.DiskSignal(twice_s, coeffs)
        grid = ds.SamplingGrid(radius, n)
        got, scale = bound_margin(ds.ResolutionSpectrum(twice_s, grid), signal)
        assert got > 0.0 and scale < -40.0
        expected = oracle.bound_and_exact(signal, grid, 200)[2]
        assert got * np.exp(scale) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("twice_s, radius, n", [(2, 0.12, 256), (8, 0.15, 128), (2, 0.5, 64)])
    @pytest.mark.parametrize("extra", [None, 0, 1, "3N+2"])
    def test_the_alias_sums_tail_ratios_are_the_tail_excess(self, twice_s, radius, n, extra):
        # 512 coefficients, or N + extra; at (2, 0.12, 256) lambda_256 is
        # about e^-1080 lambda_0, so its square relative to lambda_0 would
        # underflow and leave eps_0 at class 0's scanned tail alone, e^-2165
        length = 512 if extra is None else 3 * n + 2 if extra == "3N+2" else n + extra
        rng = np.random.default_rng(length)
        coeffs = 0.99 ** np.arange(length) * (
            rng.standard_normal(length) + 1j * rng.standard_normal(length)
        )
        spectrum = ds.ResolutionSpectrum(twice_s, ds.SamplingGrid(radius, n))
        got = undersampled._alias_sums(spectrum, ds.DiskSignal(twice_s, coeffs))[3]
        want = undersampled._log_tail_excess(spectrum, np.array([0, n - 1]))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_the_printed_bound_is_error_bounds(self):
        # a row takes eps_0 and eps_{N-1} from its exact error's class tails,
        # error_bound from a scan of its own; where L <= N the row's last
        # class is L-1, not N-1, but eps_M = 0 and so is the cross term
        rng = np.random.default_rng(39)
        for twice_s in (2, 8, 200):
            for n in (2, 5, 16):
                for length in sorted({1, n - 1, n, n + 1, 3 * n + 2}):
                    coeffs = 0.9 ** np.arange(length) * (
                        rng.standard_normal(length) + 1j * rng.standard_normal(length)
                    )
                    signal = ds.DiskSignal(twice_s, coeffs)
                    profile = ds.quasi_band_profile(signal, n - 1)
                    for radius in (0.3, 0.7, 0.95):
                        spectrum = ds.ResolutionSpectrum(twice_s, ds.SamplingGrid(radius, n))
                        bound = undersampled._error_row(spectrum, signal, profile, "printed")[1]
                        want = ds.error_bound(spectrum, profile)
                        assert bound.value == pytest.approx(want.value, rel=4e-15, abs=0.0)
                        assert bound.leading_order == want.leading_order
                        if length <= n:
                            log_eps = undersampled._alias_sums(spectrum, signal)[3]
                            terms = undersampled._bound_terms(spectrum, profile, "printed", log_eps)
                            assert terms[1][1] == 0.0

    def test_margin_of_a_failing_bound_beyond_eps_0_of_one(self):
        # a profile that claims no tail for a signal that is all tail: at
        # (2, 0.9, 4) eps_0 > 1, and the signal e_40 keeps the share
        # Q = lambda_40/lhat_0 of its energy, below D = lambda_0/lhat_0, so
        # bound - exact = Q - D < 0, which is m e^L = (Q/D - 1) D
        spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.9, 4))
        signal = ds.DiskSignal(2, np.eye(1, 41, 40)[0])
        profile = ds.QuasiBandProfile(3, 0.0)
        exact, bound, (margin, scale) = undersampled._error_row(
            spectrum, signal, profile, "printed")
        eps0 = ds.tail_excess(spectrum, 0)
        assert eps0 > 1.0
        assert margin == pytest.approx(41 * 0.9**80 - 1.0, rel=1e-12)
        assert scale == pytest.approx(-np.log1p(eps0), rel=1e-12)
        assert margin * np.exp(scale) == pytest.approx(bound.value - exact, rel=1e-12)

    def test_answers_where_the_tail_ratios_leave_the_double_range(self):
        # eps_0 is about exp(782) and eps_3 about exp(779) at 2s = 200, r = 0.99, N = 4
        spectrum = ds.ResolutionSpectrum(200, ds.SamplingGrid(0.99, 4))
        signal = ds.DiskSignal(200, 0.9 ** np.arange(8))
        profile = ds.quasi_band_profile(signal, 3)
        bound = ds.error_bound(spectrum, profile)
        # eps_0/(1+eps_0) rounds to 1 and the cross term to 0
        assert bound.value == 1.0
        assert bound_margin(spectrum, signal)[0] >= 0.0

    @pytest.mark.parametrize(
        "twice_s, radius, n", [(400, 0.99, 4), (2000, 0.9, 64), (2000, 0.8, 2000)]
    )
    def test_answers_where_the_spectrum_mode_lies_beyond_the_first_block(
        self, twice_s, radius, n
    ):
        # the class tails rise for hundreds of terms before their peak
        # (lambda_{n+64} / lambda_peak is about exp(-1378) at 2s = 400), so
        # they are summed outward from it; at N = 2000 the profile has
        # eps_M = 0, and the cross term is 0, not 0 times its factor e^864
        grid = ds.SamplingGrid(radius, n)
        spectrum = ds.ResolutionSpectrum(twice_s, grid)
        signal = ds.DiskSignal(twice_s, 0.9 ** np.arange(8))
        bound = ds.error_bound(spectrum, ds.quasi_band_profile(signal, n - 1))
        exact = ds.alias_error(spectrum, signal) ** 2 / signal.norm_squared
        want_bound, want_exact, _ = oracle.bound_and_exact(signal, grid, 30)
        assert bound.value == pytest.approx(want_bound, rel=1e-12)
        assert exact == pytest.approx(want_exact, rel=1e-12)
        assert bound_margin(spectrum, signal)[0] >= 0.0

    def test_leading_order_variants(self):
        printed = ds.leading_order_bound(2, 0.4, 6, 0.1, variant="printed")
        derived = ds.leading_order_bound(2, 0.4, 6, 0.1, variant="derived")
        binom = np.exp(ds.log_binomial(2, 6))
        cross = np.sqrt(1 - 0.01) * 0.1 * np.sqrt(6) * np.sqrt(binom) * 0.4**6
        assert printed == pytest.approx(0.01 + cross, rel=1e-12)
        assert derived == pytest.approx(0.01 + 2 * np.sqrt(binom) * cross, rel=1e-12)
        with pytest.raises(ValueError):
            ds.leading_order_bound(2, 0.4, 6, 0.1, variant="other")

    @pytest.mark.parametrize(
        "twice_s, radius, n, eps_m",
        [(2, 0.4, 6, 0.1), (200, 0.999, 16, 0.3), (2000, 0.99, 64, 0.2),
         (2000, 0.9, 8, 1e-3), (40, 0.9, 256, 0.05), (400, 0.95, 64, 0.5)],
    )
    def test_leading_order_matches_extended_precision(self, twice_s, radius, n, eps_m):
        # large spin near the rim: binom r^(2N) formed as the pmf
        # NB(N; 2s, 1-r^2) over (1-r^2)^(2s) would subtract 2s log(1-r^2),
        # about -7,800 at (2000, 0.99, 64), and lose digits to it
        with mp.workdps(50):
            em, r = mp.mpf(eps_m), mp.mpf(radius)
            binom = mp.binomial(twice_s + n - 1, n)
            half = mp.sqrt(1 - em**2) * em * mp.sqrt(n) * r**n
            expected = {"printed": em**2 + half * mp.sqrt(binom),
                        "derived": em**2 + 2 * half * binom}
            for variant, want in expected.items():
                got = ds.leading_order_bound(twice_s, radius, n, eps_m, variant=variant)
                assert abs(float((got - want) / want)) < 2e-13

    def test_unknown_variant_is_refused_without_a_cross_term(self):
        with pytest.raises(ValueError, match="variant"):
            ds.leading_order_bound(2, 0.5, 4, 0.0, variant="bogus")
        with pytest.raises(ValueError, match="variant"):
            ds.max_radius_estimate(2, 8, 0.1, 0.0, variant="bogus")


class TestMaxRadiusEstimate:
    def test_printed_fixture(self):
        est = ds.max_radius_estimate(2, 8, 0.1, 0.01)
        assert est.value == pytest.approx(0.6110896476381953, rel=1e-12)
        assert not est.clamped

    def test_derived_fixture(self):
        est = ds.max_radius_estimate(2, 8, 0.1, 0.01, variant="derived")
        assert est.value == pytest.approx(0.7644935625589431, rel=1e-12)

    def test_rejects_unreachable_target(self):
        with pytest.raises(ValueError):
            ds.max_radius_estimate(2, 8, 0.01, 0.05)

    def test_single_precision_arguments_are_widened_first(self):
        # at single precision eps^2 - eps_M^2 would round to 24 bits
        epsilon, epsilon_m = np.float32(0.3), np.float32(0.1)
        widened = float(epsilon), float(epsilon_m)
        assert ds.max_radius_estimate(2, 8, epsilon, epsilon_m) == ds.max_radius_estimate(
            2, 8, *widened
        )
        assert ds.leading_order_bound(2, 0.5, 4, epsilon_m) == ds.leading_order_bound(
            2, 0.5, 4, widened[1]
        )

    def test_zero_tail_clamps(self):
        est = ds.max_radius_estimate(2, 8, 0.1, 0.0)
        assert est.value == 1.0
        assert est.clamped

    def test_round_trip_with_leading_bound(self):
        # each estimate variant inverts the opposite bound variant exactly
        for n in (4, 9):
            est = ds.max_radius_estimate(3, n, 0.2, 0.05, variant="derived")
            back = ds.leading_order_bound(3, est.value, n, 0.05, variant="printed")
            assert back == pytest.approx(0.2**2, rel=1e-10)
            est_p = ds.max_radius_estimate(3, n, 0.2, 0.05, variant="printed")
            back_p = ds.leading_order_bound(3, est_p.value, n, 0.05, variant="derived")
            assert back_p == pytest.approx(0.2**2, rel=1e-10)

    @pytest.mark.parametrize("twice_s, n", [(200, 16), (2000, 64)])
    @pytest.mark.parametrize("estimate, bound", [("derived", "printed"), ("printed", "derived")])
    def test_round_trip_at_large_spin(self, twice_s, n, estimate, bound):
        est = ds.max_radius_estimate(twice_s, n, 0.2, 0.05, variant=estimate)
        assert not est.clamped
        back = ds.leading_order_bound(twice_s, est.value, n, 0.05, variant=bound)
        assert back == pytest.approx(0.2**2, rel=1e-10)


class TestBandProjectionCurve:
    def test_starts_at_one(self):
        for twice_s, band in [(2, 0), (5, 3), (100, 2000)]:
            assert ds.band_projection_curve(twice_s, band, 0.0) == 1.0

    def test_hand_values(self):
        assert ds.band_projection_curve(2, 0, 0.5) == pytest.approx(0.5625, rel=1e-13)
        assert ds.band_projection_curve(2, 1, 0.5) == pytest.approx(0.84375, rel=1e-13)

    def test_monotone_non_increasing(self):
        grid = np.linspace(0.0, 0.99, 150)
        for twice_s, band in [(2, 1), (4, 6), (9, 3)]:
            curve = ds.band_projection_curve(twice_s, band, grid)
            assert np.all(np.diff(curve) <= 1e-15)

    def test_in_unit_interval(self):
        grid = np.linspace(0.0, 0.99, 50)
        curve = ds.band_projection_curve(3, 4, grid)
        assert np.all(curve > 0.0)
        assert np.all(curve <= 1.0 + 1e-14)

    def test_matches_incomplete_beta(self):
        # the sum telescopes to a negative-binomial CDF, I_{1-r^2}(2s, M+1)
        grid = np.linspace(0.05, 0.95, 19)
        for twice_s, band in [(2, 3), (5, 8), (100, 2000)]:
            curve = ds.band_projection_curve(twice_s, band, grid)
            reference = [
                float(mp.betainc(twice_s, band + 1, 0, 1.0 - r * r, regularized=True))
                for r in grid
            ]
            assert np.allclose(curve, reference, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("twice_s", [2, 40, 2000])
    @pytest.mark.parametrize("band", [5, 1500, 3000])
    def test_matches_extended_precision_over_one_to_three_blocks(self, twice_s, band):
        # band limits of one, two and three blocks of m; the peak term lies
        # inside the band at small r and is clipped to M at large r
        radii = np.array([0.1, 0.5, 0.9, 0.99, 0.999])
        curve = ds.band_projection_curve(twice_s, band, radii)
        for r, value in zip(radii, curve):
            exact = oracle.band_projection(twice_s, band, r)
            if exact < np.finfo(np.float64).smallest_subnormal:
                assert value == 0.0, r
            else:
                assert abs(value - float(exact)) <= 1e-13 * float(exact), r


class TestCriticalRadius:
    def test_hand_values(self):
        assert ds.critical_radius(2, 1) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)
        assert ds.critical_radius(3, 4) == pytest.approx(1.5**-0.5, rel=1e-14)

    def test_approaches_one_for_wide_bands(self):
        assert ds.critical_radius(2, 10**7) > 0.9999999

    def test_requires_positive_band(self):
        with pytest.raises(ValueError):
            ds.critical_radius(2, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ds.leading_order_bound(2, 1.5, 4, 0.1),
        lambda: ds.leading_order_bound(2, -0.5, 4, 0.1),
        lambda: ds.leading_order_bound(2, 0.5, 2.7, 0.1),
        lambda: ds.max_radius_estimate(2, 2.7, 0.2, 0.1),
        lambda: ds.tail_excess(ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 2)), 0.5),
        lambda: ds.critical_radius(2, 2.5),
        lambda: ds.band_projection_curve(2, 5, float("nan")),
        lambda: ds.band_projection_curve(2, 5, [0.5, float("nan")]),
    ],
    ids=["radius-above-one", "negative-radius", "fractional-n-bound",
         "fractional-n-estimate", "fractional-index", "fractional-band-limit",
         "nan-curve-radius", "nan-among-curve-radii"],
)
def test_analytic_helpers_reject_invalid_arguments(call):
    with pytest.raises(ValueError):
        call()
