"""Command-line front end: synthesis, sampling, reconstruction, DFT, error sweeps.

Commands emit plot-ready CSV or JSON tables with fixed formatting (17
significant digits, '.' decimal separator, '\\n' line endings), so identical
inputs produce byte-identical outputs for a given numpy build and CPU; numpy's
vectorised math and BLAS may differ in the last bit between builds.  Commands
return (path, text) tables, path None for stdout; :func:`main` writes each to
a temporary name, renamed atomically: a failing command leaves no partial file.
Diagnostics (conditioning warnings, errors) go to stderr only.  Each command
imports only the modules it calls: ``bandlimited`` or ``undersampled`` for its
mode, ``json`` only to read a signal file; none loads mpmath or scipy.

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .basis import DiskSignal, ResolutionSpectrum, SamplingGrid, _ring_coefficients, sample_signal
from .validation import (
    CONDITION_LIMIT,
    ConditioningWarning,
    as_disk_points,
    check_index,
    check_n_samples,
    check_twice_s,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _diag(message: str) -> None:
    print(f"disksampling: {message}", file=sys.stderr)


def _render_table(columns: list[str], data: list, fmt: str) -> str:
    """A table of ``data``, one array per column, as ``fmt`` "csv" or "json".

    Integer columns are written as integers.  In CSV, float columns have 17
    significant digits (``%.17g``, the same digits as ``format(x, ".17g")``);
    in JSON they are the shortest repr, as ``json.dumps(..., indent=2)``
    writes them, with ``NaN``, ``Infinity`` and ``-Infinity``.  Either text
    comes from one ``%``-format over all values.
    """
    data = [np.asarray(column) for column in data]
    count = len(data[0])
    if fmt == "csv":
        line = ",".join("%d" if column.dtype.kind in "iu" else "%.17g" for column in data)
        values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in data))))
        return ",".join(columns) + "\n" + ((line + "\n") * count) % values
    head = '{\n  "columns": [\n%s\n  ],\n  "rows": ' % ",\n".join(
        '    "%s"' % name for name in columns
    )
    if count == 0:
        return head + "[]\n}\n"
    row = "    [\n" + ",\n".join(["      %s"] * len(data)) + "\n    ]"
    values = tuple(itertools.chain.from_iterable(zip(*map(_json_numbers, data))))
    return head + "[\n" + ",\n".join([row] * count) % values + "\n  ]\n}\n"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(column: np.ndarray) -> list:
    """The column's values, non-finite floats spelled as JSON spells them;
    ``str`` of the others is their JSON text."""
    values = column.tolist()
    if column.dtype.kind == "f":
        for index in np.flatnonzero(~np.isfinite(column)).tolist():
            values[index] = _JSON_NONFINITE[repr(values[index])]
    return values


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
    # made as open(path, "w") makes the target, so it takes the mode the
    # umask gives; exclusive, so the cleanup never unlinks another's file
    tmp_name = target.parent / f".{target.name}.{os.urandom(8).hex()}.tmp"
    handle = open(tmp_name, "x", newline="")
    try:
        with handle:
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
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed signal JSON in {path}: {exc}") from exc
    try:
        twice_s = data["twice_s"]
        coeffs = [complex(real, imag) for real, imag in data["coefficients"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"signal file {path} must hold twice_s and [re, im] pairs") from exc
    if not coeffs:
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
    ``ValueError`` naming the file and, for a row, its 1-based line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    rows = [line for line in lines if line]
    if not rows:
        raise ValueError(f"{path} is empty")
    header = [name.strip() for name in rows.pop(0).split(",")]
    names = [name for name, _ in fields]
    try:
        columns = [header.index(name) for name in names]
    except ValueError as exc:
        raise ValueError(f"{kind} file {path} needs columns {', '.join(names)}") from exc
    if not rows:
        return np.empty(0, dtype=fields)

    def parse(rows):
        return np.loadtxt(rows, delimiter=",", comments=None, usecols=columns, dtype=fields,
                          ndmin=1)

    try:
        return parse(rows)
    except ValueError as exc:
        error = exc
    # numpy numbers the rows it was given, not the file's lines: find the
    # first rejected row by bisection, rows[:low] parsing and rows[:high] not
    low, high = 0, len(rows)
    while high - low > 1:
        middle = (low + high) // 2
        try:
            parse(rows[:middle])
            low = middle
        except ValueError as exc:
            high, error = middle, exc
    # rows[high - 1] is the file's non-empty line number high, the header being 0
    line = [number for number, text in enumerate(lines, 1) if text][high]
    reason = re.sub(r" at row \d+", "", str(error))
    raise ValueError(f"malformed {kind} file {path}, line {line}: {reason}")


def _read_samples(path: str, n_samples: int) -> np.ndarray:
    table = _read_columns(path, "sample", [("k", np.int64), ("re", float), ("im", float)])
    k = table["k"]
    outside = (k < 0) | (k >= n_samples)
    if outside.any():
        raise ValueError(f"sample index {k[outside][0]} outside 0..{n_samples - 1}")
    counts = np.bincount(k, minlength=n_samples)
    if (counts > 1).any():
        raise ValueError(f"sample file {path} lists index {np.argmax(counts > 1)} twice")
    if not counts.all():
        raise ValueError(f"sample file {path} is missing indices for n={n_samples}")
    values = np.zeros(n_samples, dtype=np.complex128)
    values.real[k] = table["re"]
    values.imag[k] = table["im"]
    return values


def _read_points(path: str) -> np.ndarray:
    table = _read_columns(path, "query", [("re", float), ("im", float)])
    points = np.empty(table.size, dtype=np.complex128)
    points.real = table["re"]
    points.imag = table["im"]
    return as_disk_points(points)


def _parse_list(text: str, flag: str, kind=float) -> list:
    """The comma-separated entries of ``text``, each parsed by ``kind``
    (``float`` or ``int``), so an integer flag refuses "2.9" and "inf"."""
    noun = "integers" if kind is int else "numbers"
    try:
        values = [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma-separated list of {noun}") from exc
    if not values:
        raise ValueError(f"{flag} must contain at least one value")
    return values


def _mode_module(args):
    """The module of ``--mode``, once a missing --band-limit or any --n-max in
    bandlimited mode, or --band-limit in undersampled mode, is refused."""
    if args.mode == "bandlimited":
        if args.band_limit is None:
            raise ValueError("bandlimited mode requires --band-limit")
        if args.n_max is not None:
            raise ValueError("--n-max does not apply to --mode bandlimited")
        from . import bandlimited as module
    else:
        if args.band_limit is not None:
            raise ValueError("--band-limit does not apply to --mode undersampled")
        from . import undersampled as module
    return module


def _operator(args, module, grid: SamplingGrid):
    """The frame or kernel of the mode's ``module``, its ill-conditioning
    reported on stderr, once: :func:`main` silences ConditioningWarning."""
    if args.mode == "bandlimited":
        operator = module.frame_matrix(args.twice_s, grid, args.band_limit)
    else:
        operator = module.overlap_kernel(args.twice_s, grid)
    if operator.is_ill_conditioned:
        _diag(
            f"warning: condition number {operator.condition_number:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; results may be inaccurate"
        )
    return operator


def cmd_grid(args) -> list:
    grid = SamplingGrid(args.r, args.n)
    return [(args.output, _complex_table("k", grid.points, args.format))]


def cmd_synthesize(args) -> list:
    signal = _read_signal(args.input, args.twice_s)
    grid = SamplingGrid(args.r, args.n)
    return [(args.output, _complex_table("k", sample_signal(signal, grid), args.format))]


def cmd_reconstruct(args) -> list:
    module = _mode_module(args)
    if args.n_max is not None and args.output is None:
        raise ValueError("--n-max requires --output (coefficients go to a sibling file)")
    grid = SamplingGrid(args.r, args.n)
    samples = _read_samples(args.input, grid.n_samples)
    points = _read_points(args.points)
    operator = _operator(args, module, grid)
    tables = []
    if args.mode == "bandlimited":
        values = np.atleast_1d(module.reconstruct_bandlimited(operator, samples, points))
    else:
        values = np.atleast_1d(module.partial_reconstruct(operator, samples, points))
        if args.n_max is not None:
            ahat = module.dft_coefficients(operator, samples, args.n_max)
            tables = [(f"{args.output}.ahat.{args.format}", _complex_table("n", ahat, args.format))]
    return tables + [(args.output, _complex_table("k", values, args.format))]


def cmd_dft(args) -> list:
    module = _mode_module(args)
    grid = SamplingGrid(args.r, args.n)
    samples = _read_samples(args.input, grid.n_samples)
    operator = _operator(args, module, grid)
    if args.mode == "bandlimited":
        coeffs = module.fourier_coefficients(operator, samples)
        text = _complex_table("m", coeffs, args.format)
    else:
        n_max = args.n_max if args.n_max is not None else grid.n_samples - 1
        ahat = module.dft_coefficients(operator, samples, n_max)
        rescaled = _ring_coefficients(operator.twice_s, grid, samples, n_max, "rescaled ahat")
        columns = ["n", "re", "im", "re_rescaled", "im_rescaled"]
        data = [np.arange(n_max + 1), ahat.real, ahat.imag, rescaled.real, rescaled.imag]
        text = _render_table(columns, data, args.format)
    return [(args.output, text)]


def cmd_error_analysis(args) -> list:
    from . import undersampled as us

    signal = _read_signal(args.input, args.twice_s)
    r_values = [args.r] if args.sweep_r is None else _parse_list(args.sweep_r, "--sweep-r")
    n_values = [args.n] if args.sweep_n is None else _parse_list(args.sweep_n, "--sweep-n", int)
    rows = []
    for n in n_values:
        # the profile does not depend on r; n is checked first so that a bad
        # sample count is reported as such, not as a bad band limit
        profile = us.quasi_band_profile(signal, check_n_samples(n) - 1)
        for r in r_values:
            spectrum = ResolutionSpectrum(signal.twice_s, SamplingGrid(r, n))
            exact, bound, margin = us._error_row(spectrum, signal, profile, args.bound_variant)
            flag = int(margin[0] >= 0.0)
            rows.append((r, n, profile.epsilon_m, exact, bound.value, bound.leading_order, flag))
    text = _render_table(
        ["r", "n", "epsilon_m", "exact_normalized_sq", "bound", "leading_bound",
         "bound_satisfied"],
        list(zip(*rows)),
        args.format,
    )
    return [(args.output, text)]


def cmd_critical_radius(args) -> list:
    from . import undersampled as us

    twice_s = check_twice_s(args.twice_s)
    m_values = _parse_list(args.m_list, "--m-list", int)
    if not 0.0 <= args.r_max < 1.0:
        raise ValueError(f"--r-max: the largest radius must lie in [0, 1), got {args.r_max!r}")
    r_grid = np.linspace(0.0, args.r_max, check_index(args.r_count, "--r-count"))
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
    return [(args.output, text)]


def _add_io_flags(sub, with_input=True):
    if with_input:
        sub.add_argument("--input", required=True, help="input file path")
    sub.add_argument("--output", default=None, help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_mode_flags(sub):
    """The flags ``reconstruct`` and ``dft`` share."""
    sub.add_argument("--twice-s", type=int, required=True)
    sub.add_argument("--r", type=float, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--mode", choices=("bandlimited", "undersampled"), required=True)
    sub.add_argument("--band-limit", type=int, default=None, help="bandlimited mode: band limit M")
    sub.add_argument("--n-max", type=int, default=None,
                     help="undersampled mode: the alias DFT coefficients 0..n_max")


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
    _add_mode_flags(rec)
    rec.add_argument("--points", required=True, help="CSV of query points (re, im)")
    _add_io_flags(rec)
    rec.set_defaults(func=cmd_reconstruct)

    dft = sub.add_parser("dft", help="Fourier coefficients from ring samples")
    _add_mode_flags(dft)
    _add_io_flags(dft)
    dft.set_defaults(func=cmd_dft)

    err = sub.add_parser("error-analysis", help="exact error vs bound over (r, N) sweeps")
    err.add_argument("--twice-s", type=int, default=None)
    radii = err.add_mutually_exclusive_group(required=True)
    radii.add_argument("--r", type=float)
    radii.add_argument("--sweep-r", help="comma-separated radii")
    counts = err.add_mutually_exclusive_group(required=True)
    counts.add_argument("--n", type=int)
    counts.add_argument("--sweep-n", help="comma-separated sample counts")
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
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            for path, text in args.func(args):
                _write_output(path, text)
        return EXIT_OK
    except (ValueError, OSError) as exc:
        _diag(f"error: {exc}")
        return EXIT_INVALID
    except (ArithmeticError, RuntimeError) as exc:
        _diag(f"numerical failure: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    # the package's __main__ is the one entry point: it sets the process policy
    _diag("error: run commands as python -m disksampling <command>")
    sys.exit(EXIT_INVALID)
