import numpy as np
import pytest

import disksampling as ds

import oracle
from oracle import QuadratureError


class TestDenseFrame:
    def test_entry_fixture(self):
        frame = oracle.dense_frame(2, ds.SamplingGrid(0.5, 2), 1)
        assert frame[0, 0] == pytest.approx(0.75, rel=1e-13)

    @pytest.mark.parametrize("twice_s,n,radius,band", [(2, 4, 0.5, 2), (5, 9, 0.7, 6)])
    def test_agrees_with_factored_frame(self, twice_s, n, radius, band):
        grid = ds.SamplingGrid(radius, n)
        dense = oracle.dense_frame(twice_s, grid, band + 1)
        factored = oracle.factored_frame(ds.frame_matrix(twice_s, grid, band))
        assert np.max(np.abs(dense - factored)) < 1e-13

    def test_column_norms_are_lambdas(self):
        grid = ds.SamplingGrid(0.45, 6)
        dense = oracle.dense_frame(3, grid, 8)
        lam = np.exp(ds.ResolutionSpectrum(3, grid).log_values(np.arange(8)))
        assert np.allclose(np.sum(np.abs(dense) ** 2, axis=0), lam, rtol=1e-12)


class TestDenseProjector:
    def test_matches_block_formula(self):
        grid = ds.SamplingGrid(0.45, 4)
        kernel = ds.overlap_kernel(3, grid)
        dense = oracle.dense_projector(3, grid, 40)
        block = np.array(
            [[ds.projector_element(kernel, m, q) for q in range(40)] for m in range(40)]
        )
        assert np.max(np.abs(dense - block)) < 1e-9

    def test_projector_laws(self):
        dense = oracle.dense_projector(2, ds.SamplingGrid(0.5, 3), 48)
        assert np.max(np.abs(dense @ dense - dense)) < 1e-9
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12

    def test_trace_counts_sampled_states(self):
        dense = oracle.dense_projector(3, ds.SamplingGrid(0.5, 4), 64)
        assert np.trace(dense).real == pytest.approx(4.0, abs=1e-8)


class TestQuadrature:
    @pytest.mark.parametrize("twice_s", [2, 4])
    @pytest.mark.parametrize("m", [0, 3])
    def test_norms_are_one(self, twice_s, m):
        assert oracle.quadrature_norm(twice_s, m) == pytest.approx(1.0, abs=1e-8)
        # the integrand is written in mpmath; the production basis must agree
        nodes, values = oracle.quadrature_basis(twice_s, m)
        assert np.max(np.abs(ds.basis_fn(twice_s, m, nodes) - values)) <= 1e-12

    def test_cross_terms_vanish(self):
        for m, m_other in [(0, 1), (2, 5)]:
            value = oracle.quadrature_inner(4, m, m_other)
            assert abs(value) < 1e-8

    def test_nonconvergence_reported_with_estimate(self):
        with pytest.raises(QuadratureError) as info:
            oracle.quadrature_norm(6, 4, n_radial=4, n_angular=16)
        assert np.isfinite(info.value.estimate)


class TestRandomSignal:
    def test_deterministic(self):
        first = oracle.random_signal(3, band_limit=5, seed=42)
        second = oracle.random_signal(3, band_limit=5, seed=42)
        assert np.array_equal(first.coefficients, second.coefficients)
        assert not np.array_equal(
            first.coefficients, oracle.random_signal(3, band_limit=5, seed=43).coefficients
        )

    def test_bandlimited_shape_and_norm(self):
        signal = oracle.random_signal(2, band_limit=0, seed=1)
        assert len(signal) == 1
        assert signal.norm_squared == pytest.approx(1.0, rel=1e-12)

    def test_geometric_tail_matches_closed_form(self):
        signal = oracle.random_signal(2, decay=0.5, seed=7)
        length = len(signal)
        assert 0.5**length < 1e-12 <= 0.5 ** (length - 1)
        for band in (0, 2, 9):
            profile = ds.quasi_band_profile(signal, band)
            expected_sq = (0.5 ** (2 * (band + 1)) - 0.5 ** (2 * length)) / (
                1.0 - 0.5 ** (2 * length)
            )
            assert profile.epsilon_m**2 == pytest.approx(expected_sq, rel=1e-12)

    def test_requires_exactly_one_kind(self):
        with pytest.raises(ValueError):
            oracle.random_signal(2, seed=0)
        with pytest.raises(ValueError):
            oracle.random_signal(2, band_limit=1, decay=0.5, seed=0)


class TestFiniteSumLogEigenvalues:
    @pytest.mark.parametrize(
        "twice_s, radius, n", [(2, 0.5, 1), (3, 0.5, 3), (2, 0.7, 12), (5, 0.5, 30), (40, 0.9, 64),
                               (200, 0.9995, 8)]
    )
    def test_agrees_with_the_row_dft_at_every_index(self, twice_s, radius, n):
        # two exact forms of lhat_j, each rounded to a double once
        grid = ds.SamplingGrid(radius, n)
        logs = oracle.finite_sum_log_eigenvalues(twice_s, grid, range(n))
        rows = [oracle.row_dft_log_eigenvalue(twice_s, grid, j) for j in range(n)]
        assert np.allclose(logs, rows, rtol=0.0, atol=2e-15 + 2 * np.spacing(np.abs(rows)))

    def test_covers_lhat_below_the_double_range(self):
        # lhat_2047 = e^-9411.55, below the smallest double; at 2s = 2,
        # c(j) = j + 1 = N, c(j + N) = N - 1 - j = 0 and 1 - y^N = 1 - 1e-4096
        grid = ds.SamplingGrid(0.1, 2048)
        log_lhat = oracle.finite_sum_log_eigenvalues(2, grid, [2047])[0]
        log_y = 2 * np.log(0.1)
        closed = np.log(2048) + 2 * np.log1p(-0.01) + 2047 * log_y + np.log(2048)
        assert log_lhat == pytest.approx(closed, rel=1e-15)
