"""Failure-path wiring and the documented concurrency guarantees."""

import dataclasses
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import mpmath as mp
import numpy as np
import pytest

import disksampling as ds
from disksampling import _EXPORTS, bandlimited, basis, undersampled, validation
from disksampling.validation import (
    ConditioningWarning,
    EigenvalueCrossCheckError,
    NumericalRangeError,
    SeriesBudgetError,
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


def test_skewed_fft_trips_the_check_where_lhat_underflows(monkeypatch):
    # lhat_1500 of (2, 0.7, 2048) is exp(-1056.4), 0 as a double: the FFT
    # check holds it to its absolute bound, 3.3e-11, and states the gap so
    transform = np.fft.fft

    def skewed(x, *args, **kwargs):
        out = transform(x, *args, **kwargs)
        out[1500] += 1e-6
        return out

    monkeypatch.setattr(np.fft, "fft", skewed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenvalueCrossCheckError, match="disagree by .* absolute") as info:
            ds.overlap_kernel(2, ds.SamplingGrid(0.7, 2048))
    assert (info.value.check, info.value.j) == ("fft", 1500)
    assert info.value.gap == pytest.approx(1e-6, rel=1e-3)


def test_skewed_finite_sum_check_trips_the_check(monkeypatch):
    # the spread of (5, 0.2, 12) passes 1e12, so the smallest lhat_j is
    # below the FFT's resolution and only the finite-sum check sees it
    check = undersampled._finite_sum_log_gap
    monkeypatch.setattr(undersampled, "_finite_sum_log_gap", lambda *args: check(*args) + 1e-9)
    with pytest.raises(EigenvalueCrossCheckError, match="disagree") as info:
        ds.overlap_kernel(5, ds.SamplingGrid(0.2, 12))
    assert (info.value.check, info.value.j) == ("finite sum", 11)
    assert info.value.gap == pytest.approx(1e-9, rel=1e-3)


def test_kernel_construction_rejects_unrepresentable_eigenvalues():
    # the smallest eigenvalue underflows double precision here; the kernel
    # builds from its logs, and its linear eigenvalues are refused
    kernel = ds.overlap_kernel(2, ds.SamplingGrid(1e-3, 60))
    with pytest.raises(NumericalRangeError) as info:
        kernel.eigenvalues
    assert info.value.log_value < -700
    # the same at a length of 256
    kernel = ds.overlap_kernel(8, ds.SamplingGrid(0.2, 256))
    with pytest.raises(NumericalRangeError) as info:
        kernel.eigenvalues
    assert info.value.log_value < -745


def test_dual_weights_rejects_wrong_sample_count():
    kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))
    with pytest.raises(ValueError):
        ds.dual_weights(kernel, np.zeros(3))


def _kernel():
    return ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: ds.SamplingGrid(0.5, float("inf")), "n_samples"),
        (lambda: ds.SamplingGrid(0.5, None), "n_samples"),
        (lambda: ds.DiskSignal(float("inf"), [1.0]), "twice_s"),
        (lambda: ds.DiskSignal(float("nan"), [1.0]), "twice_s"),
        (lambda: ds.frame_matrix(2, ds.SamplingGrid(0.5, 4), float("inf")), "band limit"),
        (lambda: ds.projector_element(_kernel(), float("-inf"), 0), "m"),
        (lambda: ds.dft_coefficients(_kernel(), np.ones(4), float("nan")), "n_max"),
        (lambda: ds.dual_sinc_kernel(_kernel(), None, 0.1), "k"),
        (lambda: ds.basis_fn(2, None, 0.1), "basis index m"),
        (lambda: ds.basis_fn(2, "1", 0.1), "basis index m"),
        (lambda: ds.log_binomial(2, "3"), "n"),
        (lambda: ds.log_binomial(2, [1.0, np.inf]), "n"),
        (lambda: ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 4)).log_values("1"), "n"),
        (lambda: ds.log_binomial(2, np.array(["1"], dtype=object)), "n"),
        (lambda: ds.log_binomial(2, np.array([1, b"1"], dtype=object)), "n"),
        (lambda: ds.log_binomial(2, np.array([1, None], dtype=object)), "n"),
        (lambda: ds.log_binomial(2, np.array([1, 1j], dtype=object)), "n"),
        (lambda: ds.projector_element(_kernel(), 10**400, 0), "m"),
        (lambda: ds.log_binomial(2, 10**400), "n"),
        (lambda: ds.log_binomial(2, [1, 10**400]), "n"),
        (lambda: ds.SamplingGrid(0.5, 2**64), "n_samples"),
    ],
    ids=["grid-inf", "grid-none", "signal-inf", "signal-nan", "frame-inf",
         "projector-minus-inf", "dft-nan", "dual-sinc-none", "basis-none", "basis-text",
         "log-binomial-text", "log-binomial-inf", "log-values-text", "log-binomial-object-text",
         "log-binomial-object-bytes", "log-binomial-object-none", "log-binomial-object-complex",
         "projector-beyond-the-range", "log-binomial-beyond-the-range",
         "log-binomial-array-beyond-the-range", "grid-beyond-2**52"],
)
def test_integer_parameters_refuse_what_is_no_integer_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: ds.SamplingGrid(None, 4), "ring radius"),
        (lambda: ds.SamplingGrid("x", 4), "ring radius"),
        (lambda: ds.SamplingGrid("0.5", 4), "ring radius"),
        (lambda: ds.leading_order_bound(2, 0.5, 4, None), "epsilon_m"),
        (lambda: ds.QuasiBandProfile(3, None), "epsilon_m"),
        (lambda: ds.QuasiBandProfile(3, "0.1"), "epsilon_m"),
        (lambda: ds.max_radius_estimate(2, 4, None, 0.1), "epsilon"),
        (lambda: ds.max_radius_estimate(2, 4, 0.5j, 0.1), "epsilon"),
        (lambda: ds.band_projection_curve(2, 3, "0.5"), "radius"),
        (lambda: ds.band_projection_curve(2, 3, 0.5 + 0j), "radius"),
        (lambda: ds.SamplingGrid(10**400, 4), "ring radius"),
        (lambda: ds.QuasiBandProfile(3, 10**400), "epsilon_m"),
        (lambda: ds.band_projection_curve(2, 3, None), "radius"),
        (lambda: ds.band_projection_curve(2, 3, np.array([0.5, "0.5"], dtype=object)), "radius"),
        (lambda: ds.SamplingGrid(np.array([0.5]), 4), "ring radius"),
    ],
    ids=["grid-none", "grid-text", "grid-numeric-text", "bound-none", "profile-none",
         "profile-text", "estimate-none", "estimate-complex", "curve-numeric-text",
         "curve-complex", "grid-beyond-the-range", "profile-beyond-the-range", "curve-none",
         "curve-object-text", "grid-array"],
)
def test_real_parameters_refuse_what_is_no_real_number_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        call()


@pytest.mark.parametrize(
    "value",
    [3, 3.0, np.int64(3), np.array(3), True, 2**52 - 1, -1, 2.5, np.nan, np.inf, None, "3",
     b"3", 3 + 0j, 2**52, 10**400, np.uint64(2**64 - 1), np.array(3, dtype=object)],
    ids=["int", "float", "int64", "0-d", "bool", "largest", "negative", "fraction", "nan",
         "inf", "none", "text", "bytes", "complex", "2**52", "beyond-the-range", "uint64-max",
         "0-d-object"],
)
def test_scalar_and_array_integer_checks_agree(value):
    # one parser: a value is an integer index as a scalar exactly where it is
    # one as an array, alone or in an object array beside a plain integer
    def outcome(check, argument):
        try:
            return float(np.ravel(check(argument, "n"))[0])
        except ValueError as error:
            return str(error).split(", got")[0]

    scalar = outcome(validation.check_index, value)
    assert scalar == outcome(validation.check_indices, value)
    assert scalar == outcome(validation.check_indices, [value])
    paired = outcome(validation.check_indices, np.array([value, 1], dtype=object))
    assert scalar == paired


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ds.QuasiBandProfile(3, 1.5), "epsilon_m must lie in [0, 1), got 1.5"),
        (lambda: ds.evaluate_signal(ds.DiskSignal(2, [1.0]), [0.1, np.nan]),
         "disk points must be finite"),
        (lambda: ds.DiskSignal(2, [1.0, np.inf]), "coefficients must be finite"),
        (lambda: ds.DiskSignal(2, [[1.0, 2.0], [3.0, 4.0]]),
         "coefficients must be one-dimensional, got shape (2, 2)"),
        (lambda: ds.dual_weights(_kernel(), [1.0, np.nan, 0.0, 0.0]), "samples must be finite"),
        (lambda: ds.rescale_truncate(ds.overlap_kernel(2, ds.SamplingGrid(0.5, 2)), [1.0], 1),
         "need at least 2 alias coefficients, got shape (1,)"),
        (lambda: ds.rescale_truncate(_kernel(), [np.nan, 1.0], 1),
         "alias coefficients must be finite"),
        (lambda: ds.rescale_truncate(_kernel(), [1.0, np.inf], 1),
         "alias coefficients must be finite"),
        (lambda: ds.fourier_coefficients(ds.frame_matrix(2, _kernel().grid, 1), np.zeros(3)),
         "expected 4 samples, got shape (3,)"),
        (lambda: ds.ResolutionSpectrum(2, 0.5), "grid must be a SamplingGrid, got 0.5"),
        (lambda: ds.frame_matrix(2, 0.5, 1), "grid must be a SamplingGrid, got 0.5"),
        (lambda: ds.overlap_kernel(2, 0.5), "grid must be a SamplingGrid, got 0.5"),
        (lambda: ds.sample_signal(ds.DiskSignal(2, [1.0]), 0.5),
         "grid must be a SamplingGrid, got 0.5"),
        # complex inputs refuse what no number is, as the real parameters do
        (lambda: ds.evaluate_signal(ds.DiskSignal(2, [1.0]), "0.5"),
         "disk points must be complex numbers"),
        (lambda: ds.evaluate_signal(ds.DiskSignal(2, [1.0]), b"0.5"),
         "disk points must be complex numbers"),
        (lambda: ds.partial_reconstruct(_kernel(), [1, 1, 1, 1],
                                        np.array(["0.1"], dtype=object)),
         "disk points must be complex numbers"),
        (lambda: ds.evaluate_signal(ds.DiskSignal(2, [1.0]), None),
         "disk points must be complex numbers"),
        (lambda: ds.DiskSignal(2, ["1", "2j"]), "coefficients must be complex numbers"),
        (lambda: ds.DiskSignal(2, [[1, 2], [3]]), "coefficients must be complex numbers"),
        (lambda: ds.dual_weights(_kernel(), ["1"] * 4), "samples must be complex numbers"),
        (lambda: ds.rescale_truncate(_kernel(), ["1", "0.5", "0", "0"], 1),
         "alias coefficients must be complex numbers"),
    ],
    ids=["epsilon-m-range", "nan-point", "inf-coefficient", "2d-coefficients", "nan-sample",
         "too-few-alias-coefficients", "nan-alias-coefficient", "inf-alias-coefficient",
         "frame-sample-count", "spectrum-no-grid", "frame-no-grid", "kernel-no-grid",
         "samples-no-grid", "text-point", "bytes-point", "object-text-point", "none-point",
         "text-coefficient", "ragged-coefficients", "text-sample", "text-alias-coefficient"],
)
def test_invalid_values_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["BandlimitedReconstructor", "PartialReconstructor",
                                  "NotFittedError"])
def test_retired_estimator_names_are_no_attributes(name):
    # each estimator result is one function call away (README); no second front end
    assert name not in ds.__all__
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(ds, name)


def test_every_public_record_compares_and_hashes():
    # each public dataclass, built by its public builder: a scalar-input
    # record equals its twin by value, one with an array input only itself,
    # and none raises on == or hash
    grid = ds.SamplingGrid(0.5, 4)
    signal = ds.DiskSignal(2, [1.0, 0.5, 0.25, 0.1, 0.05])
    builders = {
        "SamplingGrid": lambda: ds.SamplingGrid(0.5, 4),
        "DiskSignal": lambda: ds.DiskSignal(2, [1.0, 0.5]),
        "ResolutionSpectrum": lambda: ds.ResolutionSpectrum(2, grid),
        "FrameMatrix": lambda: ds.frame_matrix(2, grid, 2),
        "CirculantKernel": lambda: ds.overlap_kernel(2, grid),
        "QuasiBandProfile": lambda: ds.quasi_band_profile(signal, 3),
        "ErrorBound": lambda: ds.error_bound(
            ds.ResolutionSpectrum(2, grid), ds.quasi_band_profile(signal, 3)),
        "RadiusEstimate": lambda: ds.max_radius_estimate(2, 4, 0.3, 0.1),
    }
    by_identity = {"DiskSignal"}
    records = {name for names in _EXPORTS.values() for name in names
               if dataclasses.is_dataclass(getattr(ds, name))}
    assert records == set(builders)
    for name, build in builders.items():
        one, other = build(), build()
        assert (one == other) is (name not in by_identity), name
        assert (one != other) is (name in by_identity), name
        assert hash(one) == hash(one)
        assert (hash(one) == hash(other)) or name in by_identity, name


def test_zero_dimensional_arguments_give_python_scalars():
    grid = ds.SamplingGrid(0.5, 4)
    spectrum = ds.ResolutionSpectrum(2, grid)
    kernel = ds.overlap_kernel(2, grid)
    signal = ds.DiskSignal(2, [1.0, 0.5j])
    n, z = np.array(2), np.array(0.3 + 0.1j)
    results = {
        "log_binomial": (ds.log_binomial(2, n), float),
        "log_values": (spectrum.log_values(n), float),
        "values": (spectrum.values(n), float),
        "basis_fn": (ds.basis_fn(2, n, z), complex),
        "overlap": (ds.overlap(2, z, np.array(0.2j)), complex),
        "evaluate_signal": (ds.evaluate_signal(signal, z), complex),
        "sinc_kernel": (ds.sinc_kernel(ds.frame_matrix(2, grid, 2), 1, z), complex),
        "partial_reconstruct": (ds.partial_reconstruct(kernel, np.ones(4), z), complex),
        "tail_excess": (ds.tail_excess(spectrum, n), float),
        "band_projection_curve": (ds.band_projection_curve(2, 3, np.array(0.5)), float),
    }
    for name, (value, kind) in results.items():
        assert type(value) is kind, name
    # and an array argument of any shape keeps its shape
    assert ds.log_binomial(2, [[1, 2, 3]]).shape == (1, 3)
    assert spectrum.values(np.arange(6).reshape(2, 3)).shape == (2, 3)
    assert ds.basis_fn(2, np.arange(3)[:, None], np.array([0.1, 0.2])).shape == (3, 2)
    assert ds.band_projection_curve(2, 3, np.full((2, 2), 0.5)).shape == (2, 2)
    assert ds.tail_excess(spectrum, np.arange(4).reshape(2, 2)).shape == (2, 2)
    assert ds.partial_reconstruct(kernel, np.ones(4), np.full((2, 1), 0.1)).shape == (2, 1)


def test_no_module_calls_blas():
    # a BLAS product's rounding depends on its operands' shapes and threads,
    # and each command process asks OpenBLAS for no worker thread
    import ast
    import pathlib

    banned = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot", "convolve", "correlate"}
    found = []
    for path in sorted(pathlib.Path(ds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            if name in banned or isinstance(node, ast.MatMult) or (
                isinstance(node, ast.keyword) and node.arg == "optimize"
            ):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found


def test_no_module_re_logs_or_divides_by_a_kernel_eigenvalue():
    # the kernel keeps log lhat as summed; the log of a subnormal lhat_j's
    # double has lost digits, and numpy's complex division forms 1/lhat_j,
    # which overflows below 5.6e-309
    import ast
    import pathlib

    def eigenvalues_in(node):
        return any(getattr(n, "attr", None) == "eigenvalues" for n in ast.walk(node))

    def is_eigenvalue(node):
        node = node.value if isinstance(node, ast.Subscript) else node
        return getattr(node, "attr", None) == "eigenvalues"

    found = []
    for path in sorted(pathlib.Path(ds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(getattr(node, "func", None), "attr", None)
            relog = name in ("log", "log1p", "log2", "log10") and any(map(eigenvalues_in, node.args))
            divide = (
                isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                and is_eigenvalue(getattr(node, "right", getattr(node, "value", None)))
            ) or name in ("divide", "true_divide") and any(map(is_eigenvalue, node.args[1:]))
            if relog or divide:
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_only_the_parser_coerces_to_complex():
    # a caller's value becomes a complex array through validation._parse,
    # which refuses strings, bytes, None and ragged input by name
    import ast
    import pathlib

    found = []
    for path in sorted(pathlib.Path(ds.__file__).parent.glob("*.py")):
        if path.name == "validation.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                    "array", "asarray"):
                dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
                if any("complex" in ast.unparse(dtype) for dtype in dtypes):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found


def _package_nodes():
    """(file name, name of the top-level statement, node) for every node of
    the package's modules but validation.py, which holds the shared rules."""
    import ast
    import pathlib

    for path in sorted(pathlib.Path(ds.__file__).parent.glob("*.py")):
        if path.name == "validation.py":
            continue
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                yield path.name, getattr(top, "name", None), node


def test_no_module_but_validation_silences_an_overflow():
    # a result leaves the double range through validation's rules (times_exp,
    # in_range, from_log, the condition number); every other module compares
    # logs, so none silences an overflow or raises OverflowError
    import ast

    def overflows(node):
        if isinstance(node, ast.Raise) and getattr(node.exc, "id", None) == "OverflowError":
            return True
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        return name == "OverflowError" or name == "errstate" and any(
            keyword.arg in ("over", "all") for keyword in node.keywords)

    found = [f"{name}:{node.lineno}" for name, _, node in _package_nodes() if overflows(node)]
    assert not found


def test_range_refusals_are_raised_by_the_shared_rules_only():
    # every refusal, the lost digits of rescale_truncate too, goes through
    # validation's one refusal
    import ast

    def refuses(node):
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        return name == "NumericalRangeError"

    allowed = set()
    found = [f"{name}:{node.lineno}" for name, top, node in _package_nodes()
             if refuses(node) and (name, top) not in allowed]
    assert not found


def test_no_module_but_validation_takes_a_power_of_two_scale():
    # the one exact scale is validation._scale; math.ldexp of the fixed-point
    # roots of unity is no scale of a result
    import ast

    def scales(node):
        return (isinstance(node, ast.Attribute) and node.attr in ("frexp", "ldexp")
                and getattr(node.value, "id", None) == "np")

    found = [f"{name}:{node.lineno}" for name, _, node in _package_nodes() if scales(node)]
    assert not found


def test_only_cli_main_writes_output_files():
    # each command returns its tables and main writes them, so the atomic
    # write runs from one loop
    import ast

    def writes(node):
        return isinstance(node, ast.Call) and "_write_output" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    found = [f"{name}:{node.lineno}" for name, top, node in _package_nodes()
             if writes(node) and (name, top) != ("cli.py", "main")]
    assert not found


@pytest.mark.parametrize(
    "call, message, log_value",
    [
        # lambda_127 of (2, 0.05, 401) is exp(-750.08); 274 of the 401 underflow
        (lambda: ds.frame_matrix(2, ds.SamplingGrid(0.05, 401), 400).lambdas,
         "lambda_127", -750.0750120519237),
        (lambda: ds.ResolutionSpectrum(2, ds.SamplingGrid(0.05, 401)).values([3, 127, 128]),
         "lambda_127", -750.0750120519237),
        (lambda: ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 2)).values(300000),
         "lambda_300000", None),
        # the eigenvalues of (2, 1e-3, 60) fall by about 1e-6 a step; lhat_55
        # is the first below the smallest subnormal
        (lambda: ds.overlap_kernel(2, ds.SamplingGrid(1e-3, 60)).eigenvalues, "lhat_55", None),
        # the README's kernels that end below the range build; their linear
        # eigenvalues are refused at the first entry below it, not the smallest
        (lambda: ds.overlap_kernel(2, ds.SamplingGrid(0.7, 2048)).eigenvalues, "lhat_1064",
         -745.7556207438472),
        (lambda: ds.overlap_kernel(2, ds.SamplingGrid(0.9, 4096)).eigenvalues, "lhat_3599",
         -745.1999988275131),
    ],
    ids=["frame-lambdas", "spectrum-values", "spectrum-value", "kernel-eigenvalues",
         "kernel-2-0.7-2048", "kernel-2-0.9-4096"],
)
def test_log_domain_values_that_leave_the_range_are_refused_by_name(call, message, log_value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalRangeError,
                           match=f"^{message} not representable as a positive double") as info:
            call()
    assert info.value.log_value < -745.1
    if log_value is not None:
        assert info.value.log_value == pytest.approx(log_value, rel=1e-14)


def test_a_factor_below_the_normal_range_loses_no_digits():
    # ahat_n = N U_n(r) d_0 / lhat_0 with d_0 = 1e300: from n = 308 the factor
    # N U_n(r) / lhat_0 underflows, while the coefficient itself is normal
    kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.1, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ds.dft_coefficients(kernel, np.full(4, 1e300), 340)
    n = np.arange(0, 341, 4)
    with mp.workdps(30):
        r2 = mp.mpf(0.1) ** 2
        want = [float(4 * mp.sqrt((k + 1) * r2**k) * (1 - r2) * mp.mpf(1e300)
                      / mp.mpf(kernel.eigenvalues[0])) for k in n.tolist()]
    assert got[328] == pytest.approx(1.8321571959899e-27, rel=1e-12)
    assert np.max(np.abs(got[n] / want - 1.0)) <= 1e-12
    assert not np.any(got[n[:-1, np.newaxis] + np.arange(1, 4)])


def _subnormal_e_240_coefficients():
    # the samples of e_240 on the ring (0.05, 600) are about 8.8e-312
    grid = ds.SamplingGrid(0.05, 600)
    samples = ds.sample_signal(ds.DiskSignal(2, np.eye(241)[240]), grid)
    coefficients = ds.fourier_coefficients(ds.frame_matrix(2, grid, 240), samples)
    assert coefficients[240] == pytest.approx(1.0, rel=1e-12)
    assert not np.any(coefficients[:240])


def _subnormal_dual_weights():
    # the samples' rounding, over lhat_j down to e^-734.31, is the ill
    # conditioning the warning reports; the weights still answer
    kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.7, 1048))
    samples = 1e-310 * np.exp(2j * np.pi * 1047 * np.arange(1048) / 1048)
    with pytest.warns(ConditioningWarning):
        weights = ds.dual_weights(kernel, samples)
    assert np.all(np.isfinite(weights)) and np.max(np.abs(weights)) < 1e-3


def _subnormal_dft_coefficients():
    # ahat_1028 is about e^-1422.86, below the double range, so it is 0
    kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4))
    ahat = ds.dft_coefficients(kernel, [1e-310, 1e-310j, 1e-310, 1e-310], 1200)
    assert np.all(np.isfinite(ahat)) and ahat[1028] == 0 and ahat[0] != 0


def _subnormal_times_exp():
    with mp.workdps(30):
        up = float(mp.mpf(3e-320) * mp.exp(720))
    assert validation.times_exp(np.array([3e-320j]), np.array([720.0]), "x")[0] == (
        pytest.approx(up * 1j, rel=1e-13))
    assert validation.times_exp(np.array([1e-310 + 1e-310j]), np.array([-710.0]), "x")[0] == 0
    # a real array stays real
    real = validation.times_exp(np.array([-3e-320, 0.0]), np.array([720.0, 900.0]), "x")
    assert real.dtype == np.float64 and real[0] == pytest.approx(-up, rel=1e-13) and real[1] == 0


@pytest.mark.parametrize(
    "row",
    [_subnormal_e_240_coefficients, _subnormal_dual_weights, _subnormal_dft_coefficients,
     _subnormal_times_exp],
    ids=["fourier-coefficients", "dual-weights", "dft-coefficients", "times-exp"],
)
def test_an_entry_of_subnormal_modulus_keeps_its_phase(row):
    # times_exp takes v/|v| part by part as reals: numpy's complex quotient
    # forms 1/|v| first, which overflows for |v| below 5.6e-309
    row()


def _overflowing_modulus_dft_coefficients():
    # d_0 = 1.5e308 (1 + i) has parts within the range, its modulus not
    kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.1, 4))
    big = ds.dft_coefficients(kernel, np.full(4, 1.5e308 + 1.5e308j), 340)
    small = ds.dft_coefficients(kernel, np.full(4, 1e308 + 1e308j), 340)
    assert np.array_equal(big == 0, small == 0)
    ratio = big[small != 0].view(np.float64) / small[small != 0].view(np.float64)
    assert np.max(np.abs(ratio / 1.5 - 1.0)) <= 1e-14


def _overflowing_modulus_times_exp():
    # the product 1.5e308 (1 + i) has parts within the range, its modulus not
    got = validation.times_exp(np.array([1e-10 + 1e-10j]),
                               np.array([np.log(1.5e308) - np.log(1e-10)]), "x")
    assert got.view(np.float64) == pytest.approx([1.5e308, 1.5e308], rel=1e-13)


def _overflowing_modulus_fourier_coefficients():
    # the samples whose DFT is d_239 = 1.5e308 U_239(r) (1 + i), 0 elsewhere:
    # U_239(0.05) is about 1.7e-310, so the plain factor 1/U_239 overflows
    with mp.workdps(30):
        weight = mp.sqrt(240) * mp.mpf(0.05) ** 239 * (1 - mp.mpf(0.05) ** 2)
        d = np.zeros(300, dtype=complex)
        d[239] = float(mp.mpf(1.5e308) * weight) * (1 + 1j)
    fm = ds.frame_matrix(2, ds.SamplingGrid(0.05, 300), 239)
    coefficients = ds.fourier_coefficients(fm, np.fft.fft(d))
    assert coefficients[239:].view(np.float64) == pytest.approx([1.5e308, 1.5e308], rel=1e-12)


@pytest.mark.parametrize(
    "row",
    [_overflowing_modulus_dft_coefficients, _overflowing_modulus_times_exp,
     _overflowing_modulus_fourier_coefficients],
    ids=["dft-coefficients", "times-exp", "fourier-coefficients"],
)
def test_a_product_of_finite_parts_answers(row):
    # times_exp takes a modulus beyond the range at half size, and a result's
    # modulus beyond it one ln 2 lower, doubled by parts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row()


def _times_exp_draw(count=2000, seed=0):
    """(v, L): each part of v of binary exponent in [-1074, 1023], L in
    [-1500, 1500], and the two products whose modulus alone overflows."""
    rng = np.random.default_rng(seed)

    def parts():
        exponent = rng.integers(-1074, 1024, count)
        return np.ldexp(rng.uniform(1.0, 2.0, count) * rng.choice([-1.0, 1.0], count), exponent)

    values = np.concatenate([parts() + 1j * parts(), [1.5e308 + 1.5e308j, 1e-10 + 1e-10j]])
    log_factor = np.concatenate([rng.uniform(-1500.0, 1500.0, count),
                                 [np.log(0.5), np.log(1.5e308) - np.log(1e-10)]])
    return values, log_factor


def test_times_exp_is_accurate_over_the_double_range():
    # a product with finite parts answers, each normal part within 1e-13 of
    # 50-digit mpmath and a subnormal one within one spacing more, for its two
    # roundings to the subnormal grid; a refused product has a part beyond the range
    tiny, spacing = np.finfo(np.float64).tiny, np.nextafter(0.0, 1.0)
    values, log_factor = _times_exp_draw()
    with mp.workdps(50):
        for v, log_v in zip(values.tolist(), log_factor.tolist()):
            scale = mp.exp(log_v)
            want = [float(mp.mpf(v.real) * scale), float(mp.mpf(v.imag) * scale)]
            try:
                got = validation.times_exp(np.array([v]), np.array([log_v]), "x")[0]
            except NumericalRangeError:
                assert not np.isfinite(want).all(), (v, log_v)
                continue
            assert np.isfinite(want).all(), (v, log_v)
            for g, w in zip((got.real, got.imag), want):
                assert abs(g - w) <= 1e-13 * abs(w) + (abs(w) < tiny) * spacing, (v, log_v)


def _ldexp(values, k):
    """values 2^k, part by part as reals."""
    return np.ldexp(np.ascontiguousarray(values).view(np.float64), k).view(np.complex128)


def _extreme_signal(k):
    """(signal of coefficients near 2^k, its exact multiple by 2^-k).  The
    extreme signal is built first, since scaling down to it rounds; its
    largest parts, from 1.43 2^k, are at least 1.28e308 at the top."""
    rng = np.random.default_rng(abs(k))
    base = np.concatenate([[1.43 + 1.43j], 0.3 * (rng.uniform(-1, 1, 11)
                                                  + 1j * rng.uniform(-1, 1, 11))])
    extreme = _ldexp(base, k)
    return ds.DiskSignal(2, extreme), ds.DiskSignal(2, _ldexp(extreme, -k))


@pytest.mark.parametrize("k", [-1070, -1060, 1023])
def test_a_signal_of_any_finite_size_answers(k):
    # every sum is of the coefficients over their power of two, which the
    # extreme signal and its normal multiple share: the values differ by
    # 2^k exactly, up to the one rounding below the normal range, and every
    # ratio is the same
    extreme, normal = _extreme_signal(k)
    points = 0.3 * np.exp(2j * np.pi * np.arange(7) / 7) + np.linspace(0.0, 0.5, 7)
    grid = ds.SamplingGrid(0.5, 5)
    spectrum = ds.ResolutionSpectrum(2, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(ds.evaluate_signal(extreme, points),
                              _ldexp(ds.evaluate_signal(normal, points), k))
        assert np.array_equal(ds.sample_signal(extreme, grid),
                              _ldexp(ds.sample_signal(normal, grid), k))
        assert ds.quasi_band_profile(extreme, 3) == ds.quasi_band_profile(normal, 3)
        profile = ds.quasi_band_profile(normal, 4)
        assert (undersampled._error_row(spectrum, extreme, profile, "printed")
                == undersampled._error_row(spectrum, normal, profile, "printed"))
        assert extreme.norm_squared == (np.inf if k > 0 else 0.0)


@pytest.mark.parametrize(
    "module, call",
    [
        (basis, lambda z: ds.evaluate_signal(ds.DiskSignal(2, [1.0, 0.5]), z)),
        (undersampled, lambda z: ds.partial_reconstruct(_kernel(), np.ones(4), z)),
        (bandlimited, lambda z: ds.sinc_kernel(ds.frame_matrix(2, _kernel().grid, 2), 1, z)),
    ],
    ids=["evaluate-signal", "partial-reconstruct", "sinc-kernel"],
)
def test_each_query_is_checked_once(monkeypatch, module, call):
    # basis's check is counted too: its public overlap would parse each block
    # of a partial reconstruction's points, and the ring, again
    checked = []
    for layer in {module, basis}:
        monkeypatch.setattr(layer, "as_disk_points",
                            lambda z, check=layer.as_disk_points: checked.append(z) or check(z))
    query = np.full((3, 700), 0.25j)
    assert np.shape(call(query)) == query.shape
    assert len(checked) == 1 and checked[0] is query


@pytest.mark.parametrize(
    "call, message, log_range",
    [
        # d_7 = 1e306 over lhat_7 = 0.0022, condition number 2048
        (lambda: ds.dual_weights(
            ds.overlap_kernel(2, ds.SamplingGrid(0.5, 8)),
            1e306 * np.exp(-2j * np.pi * 7 * np.arange(8) / 8),
        ), "d/lhat_7", (709.7, 711.0)),
        # the weights are 1.29e308 each, and the alias at 0 is 1.5 times that
        (lambda: ds.partial_reconstruct(
            ds.overlap_kernel(2, ds.SamplingGrid(0.5, 2)), np.full(2, 1.76e308), [0.9, 0.0]
        ), "value_1", (709.7, 711.0)),
        (lambda: ds.dft_coefficients(
            ds.overlap_kernel(2, ds.SamplingGrid(0.9, 3300)), np.eye(1, 3300)[0] * 1e300, 3400
        ), "ahat_269", (709.7, 711.0)),
        # the cross term c r^N of the leading-order bound, about e^693149
        (lambda: ds.leading_order_bound(10**6, 0.9999999, 10**6, 0.5), "cross term_0",
         (693149.06, 693149.07)),
        # 2 sqrt(1-eps_M^2) eps_M sqrt(N eps_0)/(1+eps_{N-1}) of error_bound, about e^864.16
        (lambda: ds.error_bound(ds.ResolutionSpectrum(2000, ds.SamplingGrid(0.8, 2000)),
                                ds.QuasiBandProfile(1999, 0.5)), "bound cross term_0",
         (864.15, 864.17)),
    ],
    ids=["dual-weights", "partial-reconstruct", "dft-coefficients", "leading-order-bound",
         "error-bound"],
)
def test_undersampled_results_beyond_the_double_range_raise_without_a_warning(
        call, message, log_range):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalRangeError, match=f"^{message} beyond") as info:
            call()
    assert log_range[0] < info.value.log_value < log_range[1]


def test_ring_dft_of_samples_near_the_top_of_the_range_answers():
    # the transform's own sums of 1.7e308 leave the double range, its result does not
    frame = ds.frame_matrix(2, ds.SamplingGrid(1e-3, 4), 0)
    samples = np.full(4, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coefficients = ds.fourier_coefficients(frame, samples)
        kernel = ds.overlap_kernel(2, ds.SamplingGrid(0.5, 2))
        weights = ds.dual_weights(kernel, np.full(2, 1.76e308))
    assert np.array_equal(coefficients, 2.0 * ds.fourier_coefficients(frame, samples / 2.0))
    assert np.array_equal(weights, 2.0 * ds.dual_weights(kernel, np.full(2, 0.88e308)))


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


_RECORDS = {
    "frame": lambda: ds.frame_matrix(2, ds.SamplingGrid(0.5, 4), 2),
    "kernel": lambda: ds.overlap_kernel(2, ds.SamplingGrid(0.5, 4)),
    "signal": lambda: ds.DiskSignal(2, np.linspace(1.0, 2.0, 40) + 0.5j),
}


@pytest.mark.parametrize(
    "record, name",
    [
        ("frame", "log_lambda"),
        ("frame", "lambdas"),
        ("kernel", "log_eigenvalues"),
        ("kernel", "eigenvalues"),
        ("kernel", "first_row"),
        ("signal", "coefficients"),
        ("signal", "_scaled"),
        ("signal", "_segments"),
    ],
)
def test_no_array_a_record_stores_caches_or_views_is_writeable(record, name):
    # a cache is a tuple: each of its arrays is checked; a written entry of
    # one would change every later call that reads it
    value = getattr(_RECORDS[record](), name)
    arrays = [v for v in (value if isinstance(value, tuple) else (value,))
              if isinstance(v, np.ndarray)]
    assert arrays
    assert not any(array.flags.writeable for array in arrays)


@pytest.mark.parametrize(
    "series, budget, build, reads",
    [
        ("eigenvalue series", 16, lambda spectrum, signal: ds.overlap_kernel(2, spectrum.grid),
         [1]),
        ("tail-excess series", 16, lambda spectrum, signal: ds.tail_excess(spectrum, 0), [1]),
        ("lambda tail series", 16, lambda spectrum, signal: ds.alias_error(spectrum, signal),
         [3, 1]),
        ("eigenvalue series", 2, lambda spectrum, signal: ds.overlap_kernel(
            2, ds.SamplingGrid(0.3, 8)), [1, 24]),
    ],
    ids=["eigenvalue", "tail-excess", "lambda-tail", "eigenvalue-after-reading"],
)
def test_each_series_names_itself_when_it_exceeds_its_budget(
        monkeypatch, series, budget, build, reads):
    # at r = 0.9, N = 2 a class's terms shrink by about r^4 a row, so 16 rows
    # cannot reach the 1e-16 truncation tolerance, and the probe of the
    # budget's last row refuses (the alias error first reads its 3 lambdas).
    # At r = 0.3, N = 8 the probe of a 2-row budget passes; the scan reads
    # its 3 central rows of the 8 classes, all the rows either direction may
    # read, and refuses in its loop, as neither direction has stopped
    spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.9, 2))
    signal = ds.DiskSignal(2, [1.0, 0.5, 0.25])
    monkeypatch.setattr(undersampled, "_MAX_TERMS", budget)
    read = _spectrum_reads(monkeypatch)
    with pytest.raises(
        SeriesBudgetError, match=f"^{series} needs more than its budget of {budget} terms$"
    ):
        build(spectrum, signal)
    assert read == reads


def _spectrum_reads(monkeypatch) -> list:
    """The sizes of the index arrays that every later spectrum read is given."""
    sizes, log_values = [], basis.ResolutionSpectrum.log_values

    def counted(self, n):
        sizes.append(np.size(n))
        return log_values(self, n)

    monkeypatch.setattr(basis.ResolutionSpectrum, "log_values", counted)
    return sizes


@pytest.mark.parametrize(
    "twice_s, radius, n",
    [(2, 0.999999, 3), (2000, 0.9999, 1), (200, 0.99995783, 1), (40, 0.999994377, 4),
     (2000, 0.99994043, 2), (200, 0.999957125, 1)],
)
@pytest.mark.parametrize(
    "series, build",
    [
        ("eigenvalue series", lambda spectrum, signal: ds.overlap_kernel(
            spectrum.twice_s, spectrum.grid)),
        ("lambda tail series", lambda spectrum, signal: undersampled._error_row(
            spectrum, signal, ds.quasi_band_profile(signal, spectrum.grid.n_samples - 1),
            "printed")),
    ],
)
def test_a_series_that_cannot_finish_is_refused_before_it_reads(
    monkeypatch, series, build, twice_s, radius, n
):
    # at r = 1 - 1e-6, N = 3 a class falls by no more than r^6 a row, so its
    # tail needs about 6.1 million rows, more than the 1.6 million a scan may
    # read each way; at 2s = 2000, r = 0.9999 the spectrum peaks near index
    # 1e7 and is about 2.2e5 indices wide, too wide for N = 1.  The others lie
    # near the refusal boundary: (200, 0.999957125, 1) was once summed to the
    # budget for 28.8 s before it was refused.  Each is refused after the
    # error analysis's own 4 lambdas and one index of the budget's last row
    spectrum = ds.ResolutionSpectrum(twice_s, ds.SamplingGrid(radius, n))
    signal = ds.DiskSignal(twice_s, [1.0, 0.5, 0.25, 0.1])
    reads = _spectrum_reads(monkeypatch)
    with pytest.raises(
        SeriesBudgetError, match=f"^{series} needs more than its budget of 1600000 terms$"
    ):
        build(spectrum, signal)
    assert sum(reads) <= 5


def _class_tail_scans(monkeypatch) -> list:
    """The names of every later class-tail scan, one entry a scan."""
    names, scan = [], undersampled._log_class_tails

    def counted(spectrum, starts, name):
        names.append(name)
        return scan(spectrum, starts, name)

    monkeypatch.setattr(undersampled, "_log_class_tails", counted)
    return names


@pytest.mark.parametrize(
    "call, scans",
    [
        (lambda spectrum, signal, profile: undersampled._error_row(
            spectrum, signal, profile, "printed"), ["lambda tail"]),
        (lambda spectrum, signal, profile: ds.error_bound(spectrum, profile), ["tail-excess"]),
        (lambda spectrum, signal, profile: ds.alias_error(spectrum, signal), ["lambda tail"]),
        (lambda spectrum, signal, profile: ds.tail_excess(spectrum, [0, 2]), ["tail-excess"]),
        # given eps_0 and eps_{N-1}, the bound reads nothing of the spectrum
        (lambda spectrum, signal, profile: undersampled._bound_terms(
            spectrum, profile, "printed", np.array([-2.0, -3.0])), []),
    ],
    ids=["error-row", "error-bound", "alias-error", "tail-excess", "bound-terms"],
)
def test_each_error_analysis_call_scans_the_spectrum_at_most_once(monkeypatch, call, scans):
    # the bound of an error-analysis row reads the class tails of its exact error
    spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.5, 3))
    signal = ds.DiskSignal(2, [1.0, 0.5, 0.25, 0.1, 0.05])
    profile = ds.quasi_band_profile(signal, 2)
    names = _class_tail_scans(monkeypatch)
    reads = _spectrum_reads(monkeypatch)
    call(spectrum, signal, profile)
    assert names == scans
    assert bool(reads) == bool(scans)


def test_an_error_analysis_sweep_scans_the_spectrum_once_a_row(monkeypatch, tmp_path, capsys):
    from disksampling import cli

    path = tmp_path / "signal.json"
    path.write_text('{"twice_s": 2, "coefficients": [[1, 0], [0.5, -0.25], [0, 0.125]]}')
    names = _class_tail_scans(monkeypatch)
    argv = ["error-analysis", "--input", str(path), "--sweep-r", "0.5,0.3", "--sweep-n", "4,8"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert names == ["lambda tail"] * 4


@pytest.mark.parametrize(
    "call, error, message, reads",
    [
        (lambda spectrum, signal: ds.error_bound(spectrum, ds.QuasiBandProfile(0, 0.1)),
         ValueError, "error bound requires band_limit = n_samples - 1 = 2, got 0", []),
        (lambda spectrum, signal: ds.error_bound(spectrum, ds.QuasiBandProfile(2, 0.1)),
         SeriesBudgetError, "tail-excess series needs more than its budget of 1600000 terms",
         [1]),
        (lambda spectrum, signal: undersampled._error_row(
            spectrum, signal, ds.quasi_band_profile(signal, 2), "printed"),
         SeriesBudgetError, "lambda tail series needs more than its budget of 1600000 terms",
         [4, 1]),
    ],
    ids=["wrong-band-limit", "error-bound", "error-row"],
)
def test_the_error_analysis_refuses_in_order(monkeypatch, call, error, message, reads):
    # at (2, 0.999999, 3) every class tail is refused by its budget's probe:
    # a wrong band limit is refused before the spectrum is read, the bound
    # by its own scan, and a row by the scan of its exact error, after the
    # signal's own 4 lambdas
    spectrum = ds.ResolutionSpectrum(2, ds.SamplingGrid(0.999999, 3))
    signal = ds.DiskSignal(2, [1.0, 0.5, 0.25, 0.1])
    read = _spectrum_reads(monkeypatch)
    with pytest.raises(error, match=f"^{message}$"):
        call(spectrum, signal)
    assert read == reads


@pytest.mark.parametrize("kind", ["kernel", "tail"])
def test_the_budget_refusal_never_fires_where_the_scan_would_finish(monkeypatch, kind):
    # with a budget of 64 rows, a grid across the refusal boundary: wherever
    # the scan refuses, some class's geometric majorant at the budget's last
    # row above or below the centre is still at least 1e-16 of the class's
    # whole sum, so no reading within the budget could have stopped
    budget = 64
    for twice_s in (2, 3, 8, 40, 200):
        for n in (1, 2, 3, 8, 64):
            starts = np.arange(n) + (n if kind == "tail" else 0)
            verdicts = []
            for one_minus_r in np.geomspace(0.9, 1e-4, 24):
                spectrum = ds.ResolutionSpectrum(twice_s, ds.SamplingGrid(1.0 - one_minus_r, n))
                with monkeypatch.context() as patch:
                    patch.setattr(undersampled, "_MAX_TERMS", budget)
                    try:
                        undersampled._log_class_tails(spectrum, starts, "class")
                    except SeriesBudgetError:
                        verdicts.append(True)
                    else:
                        verdicts.append(False)
                if not verdicts[-1]:
                    continue
                log_sums = undersampled._log_class_tails(spectrum, starts, "class")
                centre = int(max(basis._mode(twice_s, spectrum._rim), starts[0]) // n)
                rows = [(centre + budget - 1, 1)]
                if centre - budget > starts[0] // n:
                    rows.append((centre - budget, -1))
                stuck = False
                for row, sign in rows:
                    index = row * n + starts % n
                    log_last = spectrum.log_values(index)
                    ratio = np.exp(log_last - spectrum.log_values(index - sign * n))
                    with np.errstate(divide="ignore"):
                        log_major = np.where(ratio < 1.0, log_last + np.log(ratio / (1.0 - ratio)),
                                             np.inf)
                    unread = (index - n >= starts) if sign < 0 else True
                    stuck |= bool(np.any(unread & (log_major >= np.log(1e-16) + log_sums)))
                assert stuck, (twice_s, n, one_minus_r)
            # the grid straddles the boundary at every (2s, N)
            assert 0 < sum(verdicts) < len(verdicts), (twice_s, n)


@pytest.mark.parametrize("twice_s, n", [(2, 3), (2**20, 1)])
def test_class_tails_that_reach_index_2_to_the_52_exceed_the_budget(twice_s, n):
    # at r = 1 - 2^-53 the mode lies near (2s-1) 2^52, where float64 stops
    # holding every integer index; no series names an index it was not given
    spectrum = ds.ResolutionSpectrum(twice_s, ds.SamplingGrid(1.0 - 2.0**-53, n))
    signal = ds.DiskSignal(twice_s, [1.0, 0.5])
    builds = {
        "eigenvalue": lambda: ds.overlap_kernel(twice_s, spectrum.grid),
        "tail-excess": lambda: ds.tail_excess(spectrum, 0),
        "lambda tail": lambda: ds.alias_error(spectrum, signal),
    }
    for series, build in builds.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesBudgetError, match=f"^{series} series needs more than"):
                build()


def test_a_wide_kernel_whose_row_resolves_it_builds_at_once():
    # the class tails of (2000, 0.9999, 2) once took 988,384 terms and 13 s;
    # its eigenvalues are 1 +- ((1-y)/(1+y))^(2s), y = r^2, so both logs are 0
    start = time.perf_counter()
    kernel = ds.overlap_kernel(2000, ds.SamplingGrid(0.9999, 2))
    assert time.perf_counter() - start < 2.0
    assert np.max(np.abs(kernel.log_eigenvalues)) <= 1e-12


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_kernel_of_2_to_the_18_samples_builds_in_bounded_memory():
    # the class tails once held every class's rows at once, about 693 MB at
    # (2, 0.99999, 2^18).  The child reports its own high-water mark: a
    # spawned child's ru_maxrss starts from its parent's, and tracemalloc
    # slows this build about 7 times
    script = ("import disksampling as ds\n"
              "ds.overlap_kernel(2, ds.SamplingGrid(0.99999, 2**18))\n"
              "with open('/proc/self/status') as status:\n"
              "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n")
    package_root = str(pathlib.Path(ds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=env, check=True, timeout=300)
    assert int(child.stdout) <= 120 * 1024  # kB


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
    with pytest.raises(NumericalRangeError, match="^eps_0 beyond the double range"):
        ds.tail_excess(spectrum, 0)


def test_tail_excess_raises_where_the_spectrum_mode_lies_beyond_the_first_block():
    # eps_0 is about exp(1566) at 2s = 400, r = 0.99, N = 4, and the series
    # terms rise for thousands of steps before they fall
    spectrum = ds.ResolutionSpectrum(400, ds.SamplingGrid(0.99, 4))
    with pytest.raises(NumericalRangeError, match="^eps_0 beyond the double range"):
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
