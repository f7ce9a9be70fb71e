import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disksampling as ds
from disksampling.validation import NumericalRangeError

import oracle
from conftest import random_disk_points, sup_relative_error


def overlap_by_series(twice_s, z, w, tol=1e-16, max_terms=5000):
    """Independent route: sum_m U_m(z) conj(U_m(w)), truncated geometrically."""
    total = 0.0 + 0.0j
    for m in range(max_terms):
        term = ds.basis_fn(twice_s, m, z) * np.conj(ds.basis_fn(twice_s, m, w))
        total += term
        if m > 0 and abs(term) < tol * max(abs(total), 1e-300):
            return total
    raise AssertionError("series did not converge")


disk_point = st.builds(
    lambda rho, theta: rho * np.exp(1j * theta),
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
)


class TestLogBinomial:
    def test_zero_index_exact(self):
        for twice_s in (2, 3, 4, 5, 11):
            assert ds.log_binomial(twice_s, 0) == 0.0

    def test_hand_values(self):
        assert ds.log_binomial(2, 3) == pytest.approx(np.log(4.0), rel=1e-14)
        assert ds.log_binomial(3, 2) == pytest.approx(np.log(6.0), rel=1e-14)

    def test_vectorized_matches_scalar(self):
        n = np.arange(6)
        vec = ds.log_binomial(5, n)
        assert vec.shape == (6,)
        for i in range(6):
            assert vec[i] == ds.log_binomial(5, int(i))
        # any array-like index gives an array
        for index in ([1, 2], (1, 2)):
            got = ds.log_binomial(2, index)
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, ds.log_binomial(2, np.array([1, 2])))

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            ds.log_binomial(1, 0)
        with pytest.raises(ValueError):
            ds.log_binomial(2, -1)
        with pytest.raises(ValueError):
            ds.log_binomial(2, 2.5)
        with pytest.raises(ValueError):
            ds.log_binomial(2, np.array([1.0, np.nan]))


class TestSamplingGrid:
    def test_fourth_roots(self):
        pts = ds.SamplingGrid(0.5, 4).points
        expected = np.array([0.5 + 0j, 0.5j, -0.5 + 0j, -0.5j])
        assert np.allclose(pts, expected, atol=1e-15)

    def test_single_point(self):
        assert ds.SamplingGrid(0.37, 1).points[0] == pytest.approx(0.37 + 0j)

    def test_points_from_angles(self):
        grid = ds.SamplingGrid(0.81, 7)
        ang = 2.0 * np.pi * np.arange(7) / 7
        assert np.array_equal(grid.points, 0.81 * (np.cos(ang) + 1j * np.sin(ang)))

    @pytest.mark.parametrize("radius", [0.0, 1.0, -0.2, 1.5])
    def test_radius_rejected(self, radius):
        with pytest.raises(ValueError):
            ds.SamplingGrid(radius, 4)

    def test_n_samples_rejected(self):
        with pytest.raises(ValueError):
            ds.SamplingGrid(0.5, 0)


class TestBasisFn:
    def test_lowest_at_origin(self):
        assert ds.basis_fn(2, 0, 0j) == 1.0 + 0j

    def test_hand_values(self):
        assert ds.basis_fn(2, 1, 0.5) == pytest.approx(np.sqrt(2) * 0.75 * 0.5, rel=1e-14)
        val = ds.basis_fn(2, 2, 0.5j)
        assert val == pytest.approx(-np.sqrt(3) * 0.75 * 0.25, rel=1e-14)
        assert abs(val.imag) < 1e-15

    def test_higher_modes_vanish_at_origin(self):
        assert ds.basis_fn(3, 5, 0j) == 0j

    def test_magnitude_bound(self):
        rng = np.random.default_rng(7)
        z = random_disk_points(rng, 50)
        for m in (0, 1, 7):
            bound = np.exp(0.5 * ds.log_binomial(4, m))
            assert np.all(np.abs(ds.basis_fn(4, m, z)) <= bound + 1e-12)

    def test_direct_product_agreement(self):
        # log-domain assembly against the naive product formula
        rng = np.random.default_rng(8)
        z = random_disk_points(rng, 20, max_radius=0.8)
        for twice_s in (2, 3, 5):
            for m in (0, 1, 4, 9):
                binom = np.exp(ds.log_binomial(twice_s, m))
                naive = (
                    np.sqrt(binom)
                    * (1.0 - np.abs(z) ** 2) ** (twice_s / 2.0)
                    * np.conj(z) ** m
                )
                assert sup_relative_error(ds.basis_fn(twice_s, m, z), naive) < 1e-12

    def test_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            ds.basis_fn(2, 0, 1.0 + 0j)

    def test_index_must_be_a_nonnegative_integer(self):
        for m in (1.5, -1, np.nan, [0.0, 2.5]):
            with pytest.raises(ValueError, match="nonnegative integer"):
                ds.basis_fn(2, m, 0.5)
        expected = ds.basis_fn(2, np.array([0, 3]), 0.5)
        assert np.array_equal(ds.basis_fn(2, np.array([0.0, 3.0]), 0.5), expected)


class TestOverlap:
    def test_hand_values(self):
        assert ds.overlap(2, 0.5, 0.0) == pytest.approx(0.75, rel=1e-14)
        assert ds.overlap(2, 0.5, -0.5) == pytest.approx(0.36, rel=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(z=disk_point, w=disk_point, twice_s=st.integers(min_value=2, max_value=7))
    def test_normalization_symmetry_bound(self, z, w, twice_s):
        assert ds.overlap(twice_s, z, z) == pytest.approx(1.0, abs=1e-12)
        left = ds.overlap(twice_s, z, w)
        assert left == pytest.approx(np.conj(ds.overlap(twice_s, w, z)), abs=1e-13)
        assert abs(left) <= 1.0 + 1e-12
        if abs(z - w) > 1e-3:
            assert abs(left) < 1.0

    def test_diagonal_near_the_rim(self):
        # (1-|z|^2)^200 and |1 - z conj(z)|^200 both underflow at |z| = 0.999,
        # so their quotient would be NaN
        z = 0.999 * np.exp(1j * np.array([0.0, 0.3, 2.0]))
        assert np.allclose(ds.overlap(200, z, z), 1.0, rtol=0.0, atol=1e-11)
        assert ds.overlap(200, complex(z[1]), complex(z[1])) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("twice_s", [2, 40, 200])
    def test_near_the_diagonal_at_the_rim(self, twice_s):
        # 1 - w conj(z) formed directly cancels to about 1e-5 here, which the
        # power 2s magnifies: 1.0e-11, 2.0e-10 and 1.0e-9 relative at these points
        rng = np.random.default_rng(31)
        z = 0.99999 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 8))
        step = np.exp(rng.uniform(np.log(1e-9), np.log(1e-6), 8)) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi, 8)
        )
        w = np.concatenate([z, z + step])
        z = np.concatenate([z, z])
        values = ds.overlap(twice_s, z, w)
        with mp.workdps(50):
            for zi, wi, value in zip(z, w, values):
                zm, wm = mp.mpc(zi), mp.mpc(wi)
                root = mp.sqrt((1 - abs(zm) ** 2) * (1 - abs(wm) ** 2))
                expected = (root / (1 - wm * mp.conj(zm))) ** twice_s
                assert float(abs(mp.mpc(value) / expected - 1)) <= 3e-13

    def test_series_consistency(self):
        rng = np.random.default_rng(9)
        z = random_disk_points(rng, 6, max_radius=0.85)
        w = random_disk_points(rng, 6, max_radius=0.85)
        for twice_s in (2, 3, 5):
            for zi, wi in zip(z, w):
                direct = ds.overlap(twice_s, zi, wi)
                series = overlap_by_series(twice_s, zi, wi)
                assert abs(direct - series) < 1e-12 * max(1.0, abs(direct))


class TestSpectrum:
    def test_hand_values(self):
        spectrum4 = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 4))
        assert spectrum4.values(0) == pytest.approx(2.25, rel=1e-14)
        assert spectrum4.values(1) == pytest.approx(1.125, rel=1e-14)
        spectrum2 = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 2))
        assert spectrum2.values(2) == pytest.approx(0.2109375, rel=1e-14)

    def test_matches_product_formula(self):
        grid = ds.SamplingGrid(0.62, 5)
        for twice_s in (2, 3, 5):
            spectrum = ds.ResolutionSpectrum(twice_s, grid)
            for n in range(12):
                direct = (
                    grid.n_samples
                    * (1.0 - grid.radius**2) ** twice_s
                    * np.exp(ds.log_binomial(twice_s, n))
                    * grid.radius ** (2 * n)
                )
                assert np.exp(spectrum.log_values(n)) == pytest.approx(direct, rel=1e-12)

    def test_positive_and_on_demand(self):
        spectrum = ds.ResolutionSpectrum(3, ds.SamplingGrid(0.9, 3))
        vals = spectrum.values(np.arange(200))
        assert np.all(vals > 0)

    def test_grid_modulus_identity(self):
        # lambda_n equals N |U_n(z_k)|^2 at every grid point
        grid = ds.SamplingGrid(0.7, 6)
        for twice_s in (2, 5):
            for n in (0, 3, 8):
                lam = ds.ResolutionSpectrum(twice_s, grid).values(n)
                mags = np.abs(ds.basis_fn(twice_s, n, grid.points)) ** 2
                assert np.allclose(grid.n_samples * mags, lam, rtol=1e-12)

    @pytest.mark.parametrize(
        "twice_s, radius, n_samples",
        [(200, 0.9, 256), (1000, 0.5, 64), (2000, 0.7, 128), (40, 0.95, 512),
         (2000, 1e-3, 8), (2, 0.99999, 4)],
    )
    def test_matches_extended_precision(self, twice_s, radius, n_samples):
        # lambda_n = N NB(n; 2s, 1-r^2), against 40 digits from the double r
        n = np.arange(0, 4000, 3)
        got = ds.ResolutionSpectrum(twice_s, ds.SamplingGrid(radius, n_samples)).log_values(n)
        with mp.workdps(40):
            r2 = mp.mpf(radius) ** 2
            head = mp.log(n_samples) + twice_s * mp.log(1 - r2)
            want = np.array(
                [float(head + mp.log(mp.binomial(twice_s + k - 1, k)) + k * mp.log(r2))
                 for k in n.tolist()]
            )
        moderate = np.abs(want) < 50.0
        assert moderate.any()
        assert np.max(np.abs(np.expm1(got - want)[moderate])) <= 1e-13
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14

    def test_index_must_be_a_nonnegative_integer(self):
        spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 4))
        for call in (spectrum.log_values, spectrum.values):
            for n in (-1, 2.5, np.array([0, -3])):
                with pytest.raises(ValueError, match="^n must be a nonnegative integer$"):
                    call(n)
        # any array-like index gives an array, a scalar one a float
        got = spectrum.log_values([0, 1])
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, spectrum.log_values(np.array([0, 1])))
        assert np.array_equal(spectrum.values((0, 1)), spectrum.values(np.array([0, 1])))
        assert isinstance(spectrum.log_values(np.int64(1)), float)

    def test_underflow_raises_with_log(self):
        spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 2))
        with pytest.raises(NumericalRangeError) as info:
            spectrum.values(300000)
        assert info.value.log_value == pytest.approx(
            float(spectrum.log_values(300000)), rel=1e-12
        )


class TestSignals:
    def test_requires_coefficients(self):
        with pytest.raises(ValueError):
            ds.DiskSignal(2, [])

    def test_immutable(self):
        sig = ds.DiskSignal(2, [1.0, 2.0])
        with pytest.raises(ValueError):
            sig.coefficients[0] = 0.0

    def test_signals_are_equal_only_to_themselves(self):
        one, other = ds.DiskSignal(2, [1, 2]), ds.DiskSignal(2, [1, 2])
        assert (one == other) is False and (one == one) is True
        assert len({one, other, one}) == 2

    def test_band_limit_is_the_largest_stored_index(self):
        assert ds.DiskSignal(2, [1.0, 2.0, 0.0]).band_limit == 2
        assert ds.DiskSignal(3, 5.0).band_limit == 0

    def test_eval_hand_values(self):
        assert ds.evaluate_signal(ds.DiskSignal(2, [1.0]), 0j) == pytest.approx(1.0)
        lone = ds.evaluate_signal(ds.DiskSignal(2, [0.0, 1.0]), 0.5)
        assert lone == pytest.approx(ds.basis_fn(2, 1, 0.5), rel=1e-14)
        both = ds.evaluate_signal(ds.DiskSignal(2, [1.0, 1.0]), 0.5)
        assert both == pytest.approx(0.75 + np.sqrt(2) * 0.375, rel=1e-13)

    @pytest.mark.parametrize(
        "twice_s, length, max_radius", [(2, 2000, 0.6), (40, 700, 0.95), (3, 130, 0.3)]
    )
    def test_eval_matches_the_basis_sum(self, twice_s, length, max_radius):
        # several recurrence segments; at |z| <= 0.6 the terms fall below the
        # flush level long before m = 2000
        rng = np.random.default_rng(length)
        coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        z = np.append(random_disk_points(rng, 50, max_radius), 0j)
        m = np.arange(length)[:, np.newaxis]
        direct = np.sum(coeffs[:, np.newaxis] * ds.basis_fn(twice_s, m, z), axis=0)
        value = ds.evaluate_signal(ds.DiskSignal(twice_s, coeffs), z)
        assert sup_relative_error(value, direct) < 1e-12

    @pytest.mark.parametrize(
        "twice_s, length, z, magnitude",
        [
            (200, 1024, 0.9999, 1.91e-252),
            (200, 1024, 0.99995, 1.59e-282),
            (2000, 64, 0.5, 6.70e-84),
        ],
    )
    def test_eval_where_the_lowest_term_is_tiny(self, twice_s, length, z, magnitude):
        # U_0 = (1-|z|^2)^s underflows in the first two cases while the sum
        # does not; a recurrence started from U_0 alone would return 0 there
        value = ds.evaluate_signal(ds.DiskSignal(twice_s, np.ones(length)), z)
        direct = np.sum(ds.basis_fn(twice_s, np.arange(length), z))
        assert value != 0.0
        assert abs(value - direct) <= 1e-12 * abs(direct)
        assert abs(value) == pytest.approx(magnitude, rel=1e-2)

    @pytest.mark.parametrize(
        "twice_s, length, z",
        [(200, 1024, 0.9999), (200, 1024, 0.99995), (200, 256, 0.999),
         (200, 1024, 0.9999 * np.exp(0.3j))],
    )
    def test_eval_near_the_rim_matches_extended_precision(self, twice_s, length, z):
        # 1 - |z|^2 rounded from x*x + y*y put 1e-12 to 3e-11 errors here
        signal = ds.DiskSignal(twice_s, np.ones(length))
        value = ds.evaluate_signal(signal, z)
        want = oracle.signal_values(signal, z, digits=50)[0]
        assert abs(value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize(
        "twice_s, length, modulus", [(200, 1024, 0.9999), (2000, 2048, 0.85), (1000, 1024, 0.95)]
    )
    def test_eval_from_a_seed_matches_extended_precision(self, twice_s, length, modulus):
        # U_0 is exp(-852), exp(-1282) and exp(-1164), below the flush level
        # 2^-1000, so every point starts from one log-domain basis value; the
        # phase e^(-i m arg z) of each of the L terms put up to 1.4e-12 here
        rng = np.random.default_rng(length)
        signal = ds.DiskSignal(
            twice_s, rng.standard_normal(length) + 1j * rng.standard_normal(length)
        )
        z = modulus * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
        value = ds.evaluate_signal(signal, z)
        want = oracle.signal_values(signal, z, digits=50)
        assert np.all(np.abs(value - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize(
        "length, twice_s, max_radius",
        [(1020, 2, 0.99), (2000, 40, 0.95), (300, 200, 0.9), (4096, 2, 0.7)],
    )
    def test_eval_matches_the_extended_precision_recurrence(self, length, twice_s, max_radius):
        rng = np.random.default_rng(length + twice_s)
        coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        signal = ds.DiskSignal(twice_s, coeffs)
        z = random_disk_points(rng, 20, max_radius)
        want = oracle.signal_values(signal, z)
        assert sup_relative_error(ds.evaluate_signal(signal, z), want) < 1e-13

    @pytest.mark.parametrize("twice_s", [10**10, 10**12, 10**14])
    def test_eval_at_very_large_spin(self, twice_s):
        # the steps sqrt((2s+m-1)/m) of 64 indices multiply to more than the
        # double range here; at |z| above about sqrt(1386/2s), U_0 is below
        # the flush level 2^-1000 and the point starts from a seed
        rng = np.random.default_rng(200)
        coeffs = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        z = 10.0 ** rng.uniform(-9.0, -4.0, 40) * np.exp(2j * np.pi * rng.random(40))
        value = ds.evaluate_signal(ds.DiskSignal(twice_s, coeffs), z)
        m = np.arange(coeffs.size)[:, np.newaxis]
        direct = np.sum(coeffs[:, np.newaxis] * ds.basis_fn(twice_s, m, z), axis=0)
        assert np.all(np.isfinite(value))
        assert sup_relative_error(value, direct) < 1e-12

    def test_eval_with_coefficients_near_the_double_range(self):
        # at 2s = 1e8 the steps of the first 64 indices multiply to about
        # exp(487), so a coefficient of 1e200 times them leaves the double
        # range unless it is scaled first; |z| reaches 3.4e-3, where U_0 is
        # about exp(-580)
        rng = np.random.default_rng(1024)
        coeffs = 1e200 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        z = np.geomspace(1e-4, 3.4e-3, 12) * np.exp(2j * np.pi * rng.random(12))
        value = ds.evaluate_signal(ds.DiskSignal(10**8, coeffs), z)
        m = np.arange(coeffs.size)[:, np.newaxis]
        direct = np.sum(coeffs[:, np.newaxis] * ds.basis_fn(10**8, m, z), axis=0)
        assert np.all(np.isfinite(value))
        assert sup_relative_error(value, direct) < 1e-12

    def test_eval_beyond_the_double_range_raises_without_a_warning(self):
        # each coefficient fits a double, their sum at 0.5 does not; at 0.1j it does
        signal = ds.DiskSignal(2, [1.7e308] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z, entry in ((0.5, 0), (np.array([0.1j, 0.5]), 1)):
                with pytest.raises(NumericalRangeError,
                                   match=f"^value_{entry} beyond the double range"):
                    ds.evaluate_signal(signal, z)
            with pytest.raises(NumericalRangeError, match="^sample_0 beyond the double range"):
                ds.sample_signal(signal, ds.SamplingGrid(0.5, 1))

    def test_eval_linearity(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z = random_disk_points(rng, 9)
        lhs = ds.evaluate_signal(ds.DiskSignal(3, a + 2.0 * b), z)
        rhs = ds.evaluate_signal(ds.DiskSignal(3, a), z) + 2.0 * ds.evaluate_signal(
            ds.DiskSignal(3, b), z
        )
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


class TestSampleSignal:
    def test_constant_mode(self):
        samples = ds.sample_signal(ds.DiskSignal(2, [1.0]), ds.SamplingGrid(0.5, 2))
        assert np.allclose(samples, [0.75, 0.75], rtol=1e-14)

    def test_first_mode_signs(self):
        samples = ds.sample_signal(ds.DiskSignal(2, [0.0, 1.0]), ds.SamplingGrid(0.5, 2))
        expected = np.sqrt(2) * 0.75 * 0.5
        assert np.allclose(samples, [expected, -expected], rtol=1e-13, atol=1e-15)

    def test_angular_independence_of_mode_zero(self):
        samples = ds.sample_signal(ds.DiskSignal(5, [2.0 - 1j]), ds.SamplingGrid(0.8, 4))
        assert np.allclose(samples, samples[0], rtol=1e-14)

    @pytest.mark.parametrize(
        "twice_s,length,n_samples,radius",
        [(2, 5, 2, 0.5), (3, 64, 8, 0.3), (5, 512, 64, 0.7), (4, 130, 12, 0.9)],
    )
    def test_fast_path_matches_direct(self, twice_s, length, n_samples, radius):
        rng = np.random.default_rng(100 + length)
        coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        signal = ds.DiskSignal(twice_s, coeffs)
        grid = ds.SamplingGrid(radius, n_samples)
        fast = ds.sample_signal(signal, grid)
        direct = ds.evaluate_signal(signal, grid.points)
        assert sup_relative_error(fast, direct) < 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        twice_s=st.integers(min_value=2, max_value=6),
        length=st.integers(min_value=1, max_value=80),
        n_samples=st.integers(min_value=1, max_value=16),
        radius=st.floats(min_value=0.05, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_fast_path_property(self, twice_s, length, n_samples, radius, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        signal = ds.DiskSignal(twice_s, coeffs)
        grid = ds.SamplingGrid(radius, n_samples)
        assert sup_relative_error(
            ds.sample_signal(signal, grid), ds.evaluate_signal(signal, grid.points)
        ) < 1e-12
