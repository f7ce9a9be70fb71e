"""Failure-path wiring and the documented concurrency guarantees."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import mpmath as mp
import numpy as np
import pytest

import disksampling as ds
from disksampling import basis, undersampled
from disksampling.validation import (
    ConditioningWarning,
    EigenvalueCrossCheckError,
    NumericalRangeError,
)

import oracle
from conftest import random_disk_points, unit_signal


def test_eigenvalue_cross_check_trips_on_bad_series(monkeypatch):
    # a wrong independent route must abort kernel construction; the series
    # route is the eigenvalue classes' tails, log 1 = 0 for every j here
    monkeypatch.setattr(
        undersampled,
        "_log_class_tails",
        lambda spectrum, starts, name: np.zeros(starts.size),
    )
    with pytest.raises(EigenvalueCrossCheckError):
        ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))


def test_skewed_fft_trips_the_check(monkeypatch):
    # lhat_3 = 0.42 is resolved by the FFT at (2, 0.5, 12): checked at 1e-12
    transform = np.fft.fft

    def skewed(x, *args, **kwargs):
        out = transform(x, *args, **kwargs)
        out[3] *= 1.0 + 1e-9
        return out

    monkeypatch.setattr(np.fft, "fft", skewed)
    with pytest.raises(EigenvalueCrossCheckError, match="disagree") as info:
        ds.overlap_kernel(2, ds.SamplingGrid(0.5, 12))
    assert (info.value.check, info.value.j) == ("fft", 3)
    assert info.value.gap == pytest.approx(1e-9, rel=1e-3)


def test_skewed_spot_check_trips_the_check(monkeypatch):
    # the spread of (5, 0.2, 12) passes 1e12, so the smallest lhat_j is
    # below the FFT's resolution and only the spot check sees it
    spot = undersampled._spot_log_eigenvalue
    monkeypatch.setattr(undersampled, "_spot_log_eigenvalue", lambda *args: spot(*args) + 1e-9)
    with pytest.raises(EigenvalueCrossCheckError, match="disagree") as info:
        ds.overlap_kernel(5, ds.SamplingGrid(0.2, 12))
    assert (info.value.check, info.value.j) == ("spot", 11)
    assert info.value.gap == pytest.approx(1e-9, rel=1e-3)


def test_kernel_construction_rejects_unrepresentable_eigenvalues():
    # the smallest eigenvalue underflows double precision here
    with pytest.raises(NumericalRangeError) as info:
        ds.overlap_kernel(2, ds.SamplingGrid(1e-3, 60))
    assert info.value.log_value < -700
    # the same at a length of 256
    with pytest.raises(NumericalRangeError) as info:
        ds.overlap_kernel(8, ds.SamplingGrid(0.2, 256))
    assert info.value.log_value < -745


def test_dual_weights_rejects_wrong_sample_count():
    kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))
    with pytest.raises(ValueError):
        ds.dual_weights(kernel, np.zeros(3))


def test_shared_objects_are_thread_safe():
    rng = np.random.default_rng(77)
    grid = ds.SamplingGrid(0.55, 6)
    kernel = ds.overlap_kernel(3, grid)
    fm = ds.frame_matrix(3, grid, 3)
    signal = ds.DiskSignal(3, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    samples = ds.sample_signal(signal, grid)
    points = random_disk_points(rng, 64)

    def worker(chunk):
        return (
            ds.partial_reconstruct(kernel, samples, chunk),
            ds.reconstruct_bandlimited(fm, samples, chunk),
            ds.evaluate_signal(signal, chunk),
        )

    chunks = np.split(points, 8)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, chunks))
    partial = np.concatenate([r[0] for r in results])
    recon = np.concatenate([r[1] for r in results])
    direct = np.concatenate([r[2] for r in results])
    assert np.array_equal(partial, ds.partial_reconstruct(kernel, samples, points))
    assert np.array_equal(recon, ds.reconstruct_bandlimited(fm, samples, points))
    assert np.array_equal(direct, ds.evaluate_signal(signal, points))


@pytest.mark.parametrize(
    "series, build",
    [
        ("eigenvalue series", lambda kernel, signal: ds.overlap_kernel(2, kernel.grid)),
        ("tail-excess series", lambda kernel, signal: ds.tail_excess(kernel.spectrum, 0)),
        ("lambda tail series", lambda kernel, signal: ds.alias_error(kernel.spectrum, signal)),
    ],
)
def test_each_series_names_itself_when_it_fails_to_terminate(monkeypatch, series, build):
    # at r = 0.9, N = 2 the terms shrink by about r^4 per step, so one block
    # of 16 terms cannot reach the 1e-16 truncation tolerance
    kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.9, 2))
    signal = ds.DiskSignal(2, [1.0, 0.5, 0.25])
    monkeypatch.setattr(undersampled, "_MAX_SERIES_BLOCKS", 1)
    with pytest.raises(EigenvalueCrossCheckError, match=f"^{series} failed to terminate$"):
        build(kernel, signal)


@pytest.mark.parametrize(
    "series, build",
    [
        ("eigenvalue series", lambda spectrum, signal: ds.overlap_kernel(2, spectrum.grid)),
        ("lambda tail series", lambda spectrum, signal: undersampled._error_row(
            spectrum, signal, ds.quasi_band_profile(signal, 2), "printed")),
    ],
)
def test_a_series_that_cannot_finish_fails_before_summing(monkeypatch, series, build):
    # at r = 1 - 1e-6, N = 3 a class falls by no more than r^6 a step, so its
    # tail needs at least log(1e-16)/log(r^6), about 6.1 million terms, more
    # than the 1.6 million the series may sum
    def refuse(*args):
        raise AssertionError("summed a series that cannot finish")

    monkeypatch.setattr(undersampled, "_series_sum", refuse)
    spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.999999, 3))
    signal = ds.DiskSignal(2, [1.0, 0.5, 0.25, 0.1])
    with pytest.raises(EigenvalueCrossCheckError, match=f"^{series} failed to terminate$"):
        build(spectrum, signal)


@pytest.mark.parametrize(
    "twice_s, radius, n, length",
    [
        (2, 0.3, 256, 2048),
        (2, 0.46, 256, 2048),
        (2, 0.2, 128, 2048),
        (400, 0.95, 64, 8),
        (2, 0.5, 1, 2048),
        (8, 0.7, 2, 2047),
        (40, 0.9, 3, 1000),
    ],
)
def test_alias_error_answers_where_class_masses_leave_the_double_range(
    twice_s, radius, n, length
):
    # at small r the lambda mass of the higher residue classes lies far below
    # 1e-308; at 2s = 400, r = 0.95 each class's lambda tail exceeds its
    # stored lambdas by about exp(890); at N <= 3 each class holds hundreds
    # to thousands of coefficients, whose lambdas span far more than the
    # double range
    rng = np.random.default_rng(2048)
    coeffs = 0.97 ** np.arange(length) * (
        rng.standard_normal(length) + 1j * rng.standard_normal(length)
    )
    signal = ds.DiskSignal(twice_s, coeffs)
    grid = ds.SamplingGrid(radius, n)
    got = ds.alias_error(ds.ResolutionSpectrum(twice_s, grid), signal)
    assert got == pytest.approx(oracle.alias_error(signal, grid), rel=1e-12)


def test_alias_error_memory_does_not_grow_with_the_class_length():
    # at N = 1 all 4096 coefficients form one class; a 4096 x 4096 complex
    # matrix of its coefficient pairs would take 268 MB
    rng = np.random.default_rng(6)
    signal = unit_signal(rng, 2, 4095)
    spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 1))
    tracemalloc.start()
    try:
        ds.alias_error(spectrum, signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_band_projection_curve_memory_does_not_grow_with_the_band_limit():
    # the (radii x (M+1)) log-terms of one array would take 215 MB here
    radii = np.linspace(0.0, 0.999, 200)
    tracemalloc.start()
    try:
        ds.band_projection_curve(2, 20_000, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_series_beyond_the_double_range_raise():
    # eps_0 is about exp(782) at 2s = 200, r = 0.99, N = 4
    spectrum = ds.ResolutionSpectrum(200, ds.SamplingGrid(0.99, 4))
    with pytest.raises(OverflowError, match="^tail-excess series exceeds the double range$"):
        ds.tail_excess(spectrum, 0)


def test_tail_excess_raises_where_the_spectrum_mode_lies_beyond_the_first_block():
    # eps_0 is about exp(1566) at 2s = 400, r = 0.99, N = 4, and the series
    # terms rise for thousands of steps before they fall
    spectrum = ds.ResolutionSpectrum(400, ds.SamplingGrid(0.99, 4))
    with pytest.raises(OverflowError, match="^tail-excess series exceeds the double range$"):
        ds.tail_excess(spectrum, np.arange(4))


def test_pointwise_functions_keep_the_shape_of_the_query():
    rng = np.random.default_rng(91)
    grid = ds.SamplingGrid(0.5, 4)
    kernel = ds.overlap_kernel(2, grid)
    fm = ds.frame_matrix(2, grid, 2)
    signal = ds.DiskSignal(2, [1.0, 0.5, 0.25])
    # several recurrence segments, and U_0 underflows near the rim
    long_signal = ds.DiskSignal(200, rng.standard_normal(300) + 1j * rng.standard_normal(300))
    samples = ds.sample_signal(signal, grid)
    z = np.array([[0.1, 0.2], [0.3j, -0.1 + 0.4j]])
    # more than two blocks, cut where no block boundary falls
    query = rng.permutation(
        np.concatenate(
            [random_disk_points(rng, 2 * basis._BLOCK + 30), 0.9999 * np.exp(1j * np.arange(7))]
        )
    )
    cuts = [basis._BLOCK // 3, basis._BLOCK + 5]
    # at 2s = 2 each block sums many segments before every point has ended
    many_segments = ds.DiskSignal(2, rng.standard_normal(1025) + 1j * rng.standard_normal(1025))
    for function in (
        lambda p: ds.evaluate_signal(signal, p),
        lambda p: ds.evaluate_signal(long_signal, p),
        lambda p: ds.evaluate_signal(many_segments, p),
        lambda p: ds.sinc_kernel(fm, 1, p),
        lambda p: ds.dual_sinc_kernel(kernel, 1, p),
        lambda p: oracle.dual_sinc_series(kernel, 1, p),
        lambda p: ds.partial_reconstruct(kernel, samples, p),
    ):
        values = function(z)
        assert values.shape == z.shape
        expected = [[function(complex(point)) for point in row] for row in z]
        assert np.allclose(values, expected, rtol=1e-13, atol=0.0)
        # a point's value does not depend on the rest of the query, also when
        # it is the only one (numpy may round a complex product differently
        # by the memory layout of its operands)
        whole = function(query)
        assert np.array_equal([function(complex(point)) for point in query[:64]], whole[:64])
        parts = [function(part) for part in np.split(query, cuts)]
        assert np.array_equal(np.concatenate(parts), whole)
        assert np.array_equal(function(query[::-1])[::-1], whole)
        empty = function(np.array([], dtype=np.complex128))
        assert empty.shape == (0,) and empty.dtype == np.complex128


@pytest.mark.parametrize("function", ["evaluate_signal", "partial_reconstruct", "seeded"])
def test_pointwise_memory_does_not_grow_with_the_query(function):
    # dense L x Q or Q x N intermediates would take about 1 GB and 200 MB here
    rng = np.random.default_rng(5)
    points = random_disk_points(rng, 20_000)
    if function == "evaluate_signal":
        args = (unit_signal(rng, 2, 1024), points)
    elif function == "seeded":
        # U_0 = exp(-5025) at |z| = 0.1, and the first term at the flush
        # level is near m = 5300: each point starts from a seed found without
        # a points x segments array (2,048 x 2,048 here)
        function = "evaluate_signal"
        points = 0.1 * np.exp(2j * np.pi * rng.random(2048)) * rng.uniform(0.999, 1.001, 2048)
        args = (unit_signal(rng, 10**6, 2**17 - 1), points)
    else:
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.6, 256))
        args = (kernel, rng.standard_normal(256) + 1j * rng.standard_normal(256), points)
    # the kernel's condition number is 5.4e110
    warns = nullcontext() if function == "evaluate_signal" else pytest.warns(ConditioningWarning)
    tracemalloc.start()
    try:
        with warns:
            getattr(ds, function)(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
