"""Command-line front end: synthesis, sampling, reconstruction, DFT, error sweeps.

Commands emit plot-ready CSV or JSON tables with fixed formatting (17
significant digits, '.' decimal separator, '\\n' line endings), so identical
inputs produce byte-identical outputs for a given numpy build and CPU; numpy's
vectorised math and BLAS may differ in the last bit between builds.  Output
files are written to a temporary name and atomically renamed; a failing
command never leaves a partial file behind.  Diagnostics (the active
series-truncation tolerance, conditioning warnings) go to stderr only.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import bandlimited as bl
from . import undersampled as us
from .basis import DiskSignal, ResolutionSpectrum, SamplingGrid, sample_signal
from .validation import (
    CONDITION_LIMIT,
    SERIES_TOL_ENV,
    as_disk_points,
    check_n_samples,
    check_twice_s,
    series_tolerance,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _diag(message: str) -> None:
    print(f"disksampling: {message}", file=sys.stderr)


def _echo_tolerance() -> None:
    raw = os.environ.get(SERIES_TOL_ENV)
    source = f"env {SERIES_TOL_ENV}={raw}" if raw is not None else f"env {SERIES_TOL_ENV} unset"
    _diag(f"series truncation tolerance = {series_tolerance()!r} ({source})")


def _render_table(columns: list[str], data: list, fmt: str) -> str:
    """A table of ``data``, one array per column.

    Integer columns are written as integers, float columns with 17
    significant digits (``%.17g``, the same digits as ``format(x, ".17g")``);
    the CSV text comes from one ``%``-format over all values.
    """
    data = [np.asarray(column) for column in data]
    rows = list(zip(*(column.tolist() for column in data)))
    if fmt == "csv":
        line = ",".join("%d" if column.dtype.kind in "iu" else "%.17g" for column in data)
        values = tuple(itertools.chain.from_iterable(rows))
        return ",".join(columns) + "\n" + ((line + "\n") * len(rows)) % values
    if fmt == "json":
        return json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _complex_table(index: str, values, fmt: str) -> str:
    """Table (index, re, im) of a complex vector."""
    values = np.asarray(values)
    return _render_table(
        [index, "re", "im"], [np.arange(values.size), values.real, values.imag], fmt
    )


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_signal(path: str, twice_s_flag: int | None) -> DiskSignal:
    """Read a signal file; a given ``--twice-s`` must match the file's."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed signal JSON in {path}: {exc}") from exc
    try:
        twice_s = data["twice_s"]
        pairs = data["coefficients"]
        coeffs = np.array(
            [complex(real, imag) for real, imag in pairs], dtype=np.complex128
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"signal file {path} must hold twice_s and [re, im] pairs") from exc
    if coeffs.size == 0:
        raise ValueError(f"signal file {path} has an empty coefficient list")
    signal = DiskSignal(twice_s, coeffs)
    if twice_s_flag is not None and check_twice_s(twice_s_flag) != signal.twice_s:
        raise ValueError(
            f"--twice-s {twice_s_flag} does not match signal file twice_s {signal.twice_s}"
        )
    return signal


def _read_columns(path: str, kind: str, fields: list[tuple[str, type]]) -> np.ndarray:
    """The named columns of a CSV file, parsed in bulk.

    The first non-empty line names the columns; empty lines are skipped.
    Returns one record per row with the given (name, type) fields.  A
    missing column, a short row or a field that does not parse raises
    ``ValueError`` naming the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = [name.strip() for name in lines[0].split(",")]
    names = [name for name, _ in fields]
    try:
        columns = [header.index(name) for name in names]
    except ValueError as exc:
        raise ValueError(f"{kind} file {path} needs columns {', '.join(names)}") from exc
    if len(lines) == 1:
        return np.empty(0, dtype=fields)
    try:
        return np.loadtxt(
            lines[1:], delimiter=",", comments=None, usecols=columns, dtype=fields, ndmin=1
        )
    except ValueError as exc:
        raise ValueError(f"malformed {kind} file {path}: {exc}") from exc


def _read_samples(path: str, n_samples: int) -> np.ndarray:
    table = _read_columns(path, "sample", [("k", np.int64), ("re", float), ("im", float)])
    k = table["k"]
    outside = (k < 0) | (k >= n_samples)
    if outside.any():
        raise ValueError(f"sample index {k[outside][0]} outside 0..{n_samples - 1}")
    values = np.zeros(n_samples, dtype=np.complex128)
    values.real[k] = table["re"]
    values.imag[k] = table["im"]
    seen = np.zeros(n_samples, dtype=bool)
    seen[k] = True
    if not seen.all():
        raise ValueError(f"sample file {path} is missing indices for n={n_samples}")
    return values


def _read_points(path: str) -> np.ndarray:
    table = _read_columns(path, "query", [("re", float), ("im", float)])
    points = np.empty(table.size, dtype=np.complex128)
    points.real = table["re"]
    points.imag = table["im"]
    return as_disk_points(points)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma-separated list of numbers") from exc
    if not values:
        raise ValueError(f"{flag} must contain at least one value")
    return values


def _parse_int_list(text: str, flag: str) -> list[int]:
    return [int(v) for v in _parse_float_list(text, flag)]


def _operator(args, grid: SamplingGrid):
    """The frame (bandlimited mode) or kernel (undersampled mode) for ``--mode``.

    Ill-conditioning is reported on stderr.
    """
    if args.mode == "bandlimited":
        if args.band_limit is None:
            raise ValueError("bandlimited mode requires --band-limit")
        operator = bl.frame_matrix(args.twice_s, grid, args.band_limit)
    else:
        operator = us.overlap_kernel(args.twice_s, grid)
    if operator.is_ill_conditioned:
        _diag(
            f"warning: condition number {operator.condition_number:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; results may be inaccurate"
        )
    return operator


def cmd_grid(args) -> int:
    grid = SamplingGrid(args.r, args.n)
    _write_output(args.output, _complex_table("k", grid.points, args.format))
    return EXIT_OK


def cmd_synthesize(args) -> int:
    signal = _read_signal(args.input, args.twice_s)
    grid = SamplingGrid(args.r, args.n)
    _write_output(args.output, _complex_table("k", sample_signal(signal, grid), args.format))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    grid = SamplingGrid(args.r, args.n)
    samples = _read_samples(args.input, grid.n_samples)
    points = _read_points(args.points)
    operator = _operator(args, grid)
    if args.mode == "bandlimited":
        values = np.atleast_1d(bl.reconstruct_bandlimited(operator, samples, points))
    else:
        values = np.atleast_1d(us.partial_reconstruct(operator, samples, points))
        if args.n_max is not None:
            if args.output is None:
                raise ValueError("--n-max requires --output (coefficients go to a sibling file)")
            ahat = us.dft_coefficients(operator, samples, args.n_max)
            _write_output(
                f"{args.output}.ahat.{args.format}",
                _complex_table("n", ahat, args.format),
            )
    _write_output(args.output, _complex_table("k", values, args.format))
    return EXIT_OK


def cmd_dft(args) -> int:
    grid = SamplingGrid(args.r, args.n)
    samples = _read_samples(args.input, grid.n_samples)
    operator = _operator(args, grid)
    if args.mode == "bandlimited":
        coeffs = bl.fourier_coefficients(operator, samples)
        text = _complex_table("m", coeffs, args.format)
    else:
        n_max = args.n_max if args.n_max is not None else grid.n_samples - 1
        ahat = us.dft_coefficients(operator, samples, n_max)
        rescaled = ahat * us._undo_filter(operator, n_max)
        text = _render_table(
            ["n", "re", "im", "re_rescaled", "im_rescaled"],
            [np.arange(n_max + 1), ahat.real, ahat.imag, rescaled.real, rescaled.imag],
            args.format,
        )
    _write_output(args.output, text)
    return EXIT_OK


def cmd_error_analysis(args) -> int:
    signal = _read_signal(args.input, args.twice_s)
    r_values = _parse_float_list(args.sweep_r, "--sweep-r") if args.sweep_r else [args.r]
    n_values = _parse_int_list(args.sweep_n, "--sweep-n") if args.sweep_n else [args.n]
    if any(v is None for v in r_values) or any(v is None for v in n_values):
        raise ValueError("provide --sweep-r/--sweep-n or single --r/--n values")
    norm_sq = signal.norm_squared
    rows = []
    for n in n_values:
        # the profile does not depend on r; n is checked first so that a bad
        # sample count is reported as such, not as a bad band limit
        profile = us.quasi_band_profile(signal, check_n_samples(n) - 1)
        for r in r_values:
            spectrum = ResolutionSpectrum(signal.twice_s, SamplingGrid(r, n))
            error_sq, exact_excess, log_captured = us._alias_sums(spectrum, signal)
            bound, bound_parts = us._bound_terms(spectrum, profile, args.bound_variant)
            margin, _ = us._bound_margin(bound_parts, exact_excess, log_captured, norm_sq)
            rows.append(
                (
                    r,
                    n,
                    profile.epsilon_m,
                    error_sq / norm_sq,
                    bound.value,
                    bound.leading_order,
                    int(margin >= 0.0),
                )
            )
    text = _render_table(
        ["r", "n", "epsilon_m", "exact_normalized_sq", "bound", "leading_bound",
         "bound_satisfied"],
        list(zip(*rows)),
        args.format,
    )
    _write_output(args.output, text)
    return EXIT_OK


def cmd_critical_radius(args) -> int:
    twice_s = check_twice_s(args.twice_s)
    m_values = _parse_int_list(args.m_list, "--m-list")
    r_grid = np.linspace(0.0, args.r_max, args.r_count)
    r_critical, curves = [], []
    for m in m_values:
        r_critical.append(us.critical_radius(twice_s, m))
        curves.append(np.atleast_1d(us.band_projection_curve(twice_s, m, r_grid)))
    text = _render_table(
        ["m", "r", "p", "r_critical"],
        [
            np.repeat(m_values, r_grid.size),
            np.tile(r_grid, len(m_values)),
            np.concatenate(curves),
            np.repeat(r_critical, r_grid.size),
        ],
        args.format,
    )
    _write_output(args.output, text)
    return EXIT_OK


def _add_io_flags(sub, with_input=True):
    if with_input:
        sub.add_argument("--input", required=True, help="input file path")
    sub.add_argument("--output", default=None, help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disksampling",
        description="Sampling, reconstruction and DFT for signals on the hyperbolic disk.",
    )
    sub = parser.add_subparsers(required=True)

    grid = sub.add_parser("grid", help="emit the ring sampling points")
    grid.add_argument("--r", type=float, required=True, help="ring radius in (0,1)")
    grid.add_argument("--n", type=int, required=True, help="number of samples")
    _add_io_flags(grid, with_input=False)
    grid.set_defaults(func=cmd_grid)

    synth = sub.add_parser("synthesize", help="sample a signal file on the ring")
    synth.add_argument("--twice-s", type=int, default=None, help="doubled spin index 2s")
    synth.add_argument("--r", type=float, required=True)
    synth.add_argument("--n", type=int, required=True)
    _add_io_flags(synth)
    synth.set_defaults(func=cmd_synthesize)

    rec = sub.add_parser("reconstruct", help="reconstruct from ring samples at query points")
    rec.add_argument("--twice-s", type=int, required=True)
    rec.add_argument("--r", type=float, required=True)
    rec.add_argument("--n", type=int, required=True)
    rec.add_argument("--mode", choices=("bandlimited", "undersampled"), required=True)
    rec.add_argument("--band-limit", type=int, default=None)
    rec.add_argument("--points", required=True, help="CSV of query points (re, im)")
    rec.add_argument("--n-max", type=int, default=None,
                     help="undersampled mode: also emit alias DFT coefficients 0..n_max")
    _add_io_flags(rec)
    rec.set_defaults(func=cmd_reconstruct)

    dft = sub.add_parser("dft", help="Fourier coefficients from ring samples")
    dft.add_argument("--twice-s", type=int, required=True)
    dft.add_argument("--r", type=float, required=True)
    dft.add_argument("--n", type=int, required=True)
    dft.add_argument("--mode", choices=("bandlimited", "undersampled"), required=True)
    dft.add_argument("--band-limit", type=int, default=None)
    dft.add_argument("--n-max", type=int, default=None)
    _add_io_flags(dft)
    dft.set_defaults(func=cmd_dft)

    err = sub.add_parser("error-analysis", help="exact error vs bound over (r, N) sweeps")
    err.add_argument("--twice-s", type=int, default=None)
    err.add_argument("--r", type=float, default=None)
    err.add_argument("--n", type=int, default=None)
    err.add_argument("--sweep-r", default=None, help="comma-separated radii")
    err.add_argument("--sweep-n", default=None, help="comma-separated sample counts")
    err.add_argument("--bound-variant", choices=("printed", "derived"), default="printed")
    _add_io_flags(err)
    err.set_defaults(func=cmd_error_analysis)

    crit = sub.add_parser("critical-radius", help="band projection curves and critical radii")
    crit.add_argument("--twice-s", type=int, required=True)
    crit.add_argument("--m-list", required=True, help="comma-separated band limits")
    crit.add_argument("--r-count", type=int, default=200)
    crit.add_argument("--r-max", type=float, default=0.999)
    _add_io_flags(crit, with_input=False)
    crit.set_defaults(func=cmd_critical_radius)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _echo_tolerance()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _diag(f"error: {exc}")
        return EXIT_INVALID
    except (ArithmeticError, RuntimeError) as exc:
        _diag(f"numerical failure: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
