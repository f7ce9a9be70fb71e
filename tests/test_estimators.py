import warnings

import numpy as np
import pytest

import disksampling as ds
from disksampling.validation import ConditioningWarning, NotFittedError

from conftest import random_disk_points, sup_relative_error, unit_signal


class TestParamsProtocol:
    def test_get_params_roundtrip(self):
        est = ds.BandlimitedReconstructor(twice_s=3, radius=0.4, n_samples=7, band_limit=2)
        params = est.get_params()
        assert params == {"twice_s": 3, "radius": 0.4, "n_samples": 7, "band_limit": 2}
        clone = ds.BandlimitedReconstructor(**params)
        assert clone.get_params() == params

    def test_set_params_chains_and_validates(self):
        est = ds.PartialReconstructor()
        assert est.set_params(radius=0.7, n_samples=5) is est
        assert est.radius == 0.7
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = ds.PartialReconstructor(twice_s=4, radius=0.3, n_samples=6)
        clone = sklearn_base.clone(est)
        assert clone.get_params() == est.get_params()

    def test_repr_shows_params(self):
        text = repr(ds.BandlimitedReconstructor(twice_s=5, radius=0.2, n_samples=9, band_limit=4))
        assert "twice_s=5" in text and "band_limit=4" in text

    def test_set_params_shows_in_repr_and_get_params(self):
        est = ds.PartialReconstructor(twice_s=4, radius=0.3, n_samples=6).set_params(radius=0.7)
        assert repr(est) == "PartialReconstructor(twice_s=4, radius=0.7, n_samples=6)"
        assert est.get_params() == {"twice_s": 4, "radius": 0.7, "n_samples": 6}


class TestBandlimitedReconstructor:
    def test_matches_functional_path(self):
        rng = np.random.default_rng(50)
        grid = ds.SamplingGrid(0.55, 8)
        signal = unit_signal(rng, 3, 4)
        samples = ds.sample_signal(signal, grid)
        est = ds.BandlimitedReconstructor(
            twice_s=3, radius=0.55, n_samples=8, band_limit=4
        ).fit(samples)
        pts = random_disk_points(rng, 11)
        frame = ds.frame_matrix(3, grid, 4)
        assert np.array_equal(est.predict(pts), ds.reconstruct_bandlimited(frame, samples, pts))
        assert np.max(np.abs(est.coefficients_ - signal.coefficients)) < 1e-11
        assert est.condition_number_ == frame.condition_number

    def test_recovers_signal_values(self):
        rng = np.random.default_rng(51)
        signal = unit_signal(rng, 2, 3)
        grid = ds.SamplingGrid(0.6, 6)
        est = ds.BandlimitedReconstructor(2, 0.6, 6, 3).fit(ds.sample_signal(signal, grid))
        pts = random_disk_points(rng, 20)
        assert sup_relative_error(est.predict(pts), ds.evaluate_signal(signal, pts)) < 1e-10

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            ds.BandlimitedReconstructor().predict(0.1 + 0.1j)

    def test_fit_validates_sample_count(self):
        with pytest.raises(ValueError):
            ds.BandlimitedReconstructor(2, 0.5, 4, 1).fit(np.zeros(3))


class TestPartialReconstructor:
    def test_interpolates_and_matches_functional_path(self):
        rng = np.random.default_rng(52)
        samples = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        est = ds.PartialReconstructor(twice_s=2, radius=0.5, n_samples=5).fit(samples)
        grid_values = est.predict(est.kernel_.grid.points)
        assert sup_relative_error(grid_values, samples) < 1e-10
        pts = random_disk_points(rng, 7)
        assert np.array_equal(
            est.predict(pts), ds.partial_reconstruct(est.kernel_, samples, pts)
        )

    def test_dft_and_truncation(self):
        rng = np.random.default_rng(53)
        signal = unit_signal(rng, 2, 2)
        grid = ds.SamplingGrid(0.45, 6)
        est = ds.PartialReconstructor(2, 0.45, 6).fit(ds.sample_signal(signal, grid))
        ahat = est.dft_coefficients(5)
        assert np.array_equal(
            ahat, ds.dft_coefficients(est.kernel_, est.samples_, 5)
        )
        recovered = est.truncated_signal(2)
        assert np.max(np.abs(recovered.coefficients - signal.coefficients)) < 1e-10

    def test_truncated_signal_at_the_rim_comes_from_the_samples(self):
        # the filtered coefficients underflow to 0 here, and rescale_truncate raises
        coeffs = np.array([1.0, 0.5j, -0.25])
        grid = ds.SamplingGrid(0.999, 16)
        est = ds.PartialReconstructor(200, 0.999, 16).fit(
            ds.sample_signal(ds.DiskSignal(200, coeffs), grid)
        )
        assert np.all(est.dft_coefficients(2) == 0)
        recovered = est.truncated_signal(2)
        assert np.max(np.abs(recovered.coefficients - coeffs)) < 1e-14
        with pytest.raises(ValueError):
            est.truncated_signal(16)

    def test_fit_and_predict_warn_once_on_an_ill_conditioned_kernel(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = ds.PartialReconstructor(2, 0.1, 14).fit(np.ones(14))
            est.predict(np.array([0.05, 0.02j]))
        assert [w.category for w in caught] == [ConditioningWarning]

    def test_unfitted_methods_raise(self):
        est = ds.PartialReconstructor()
        with pytest.raises(NotFittedError):
            est.predict(0j)
        with pytest.raises(NotFittedError):
            est.dft_coefficients(3)
