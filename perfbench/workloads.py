"""Seeded job pools for the three workloads, each job with its own output check.

A job is one or more ``disksampling`` CLI calls run one after another.  Its
inputs are written, and its reference values computed, when the pool is
built, before any timing starts.  Each workload is a fixed stratified design
of slots: the slot fixes what sets a job's cost (N, band limit, query count,
the part of the radius range each radius is drawn from), and the seed
jitters every value inside its stratum and draws the coefficients, radii and
points.  Job cost and failure share are therefore comparable between seeds,
while every value still comes from the seed.

Tolerances are those the package's own tests use for the same quantity.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

CONDITION_LIMIT = 1e12      # the package's own well-posedness limit for frames
KERNEL_CONDITION = 1e5      # dual-frame tests stop here; ahat rounding grows as sqrt(cond)
TOL_SAMPLES = 1e-12         # sample_signal against direct evaluation
TOL_RECON = 1e-9            # bandlimited and partial reconstruction values
TOL_COEFF = 1e-10           # Fourier and alias DFT coefficients
TOL_INTERP = 1e-10          # undersampled interpolation at the grid points
TOL_SERIES = 1e-10          # epsilon_m, bound and leading bound, projection curves
TOL_EXACT_REL, TOL_EXACT_ABS = 1e-9, 1e-12   # exact normalized squared alias error
TOL_GRID = 1e-14
CHECKED_POINTS = 256        # seeded subset of query points checked against the reference


@dataclass
class Verdict:
    """Outcome of checking one job's outputs.

    ``mismatch`` names an output that disagrees with the reference (a wrong
    answer); ``unmet`` names a requirement the output states it missed
    (``bound_satisfied`` = 0).  Either one fails the job.
    """

    max_rel_err: float = 0.0
    mismatch: str | None = None
    unmet: str | None = None

    def compare(self, name, got, want, tol, scale=None, abs_floor=0.0):
        got = np.asarray(got)
        want = np.asarray(want)
        if got.shape != want.shape:
            self.mismatch = self.mismatch or f"{name}: shape {got.shape} != {want.shape}"
            return
        if scale is None:
            scale = float(np.max(np.abs(want), initial=0.0)) or 1.0
        diff = np.abs(got - want)
        err = float(np.max(diff)) / scale if diff.size else 0.0
        self.max_rel_err = max(self.max_rel_err, err)
        if not np.all(diff <= tol * scale + abs_floor):
            self.mismatch = self.mismatch or f"{name}: relative error {err:.3e} > {tol:g}"


@dataclass
class Job:
    label: str
    steps: list[list[str]]
    outputs: list[Path]
    verify: Callable[[], Verdict]

    def clear_outputs(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------- file helpers

def _write_signal(path: Path, twice_s: int, coefficients: np.ndarray) -> None:
    pairs = [[float(c.real), float(c.imag)] for c in coefficients]
    path.write_text(json.dumps({"twice_s": twice_s, "coefficients": pairs}))


def _write_points(path: Path, points: np.ndarray) -> None:
    lines = ["re,im"] + [f"{float(z.real)!r},{float(z.imag)!r}" for z in points]
    path.write_text("\n".join(lines) + "\n")


def _write_samples(path: Path, samples: np.ndarray) -> None:
    lines = ["k,re,im"] + [
        f"{k},{float(v.real)!r},{float(v.imag)!r}" for k, v in enumerate(samples)
    ]
    path.write_text("\n".join(lines) + "\n")


def _read_rows(path: Path) -> np.ndarray:
    """Numeric rows of a CSV or JSON table written by the CLI."""
    if path.suffix == ".json":
        return np.asarray(json.loads(path.read_text())["rows"], dtype=np.float64)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _complex_column(rows: np.ndarray, re_col: int = 1) -> np.ndarray:
    return rows[:, re_col] + 1j * rows[:, re_col + 1]


def _unit_signal(rng, length):
    coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return coeffs / np.linalg.norm(coeffs)


def _decaying_signal(rng, length, decay):
    coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return decay ** np.arange(length) * coeffs


def _fmt(value: float) -> str:
    return repr(float(value))


def _job_dir(root: Path, index: int) -> Path:
    path = root / f"job{index:02d}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _guarded(verify: Callable[[Verdict], None], outputs: list[Path]) -> Callable[[], Verdict]:
    """Run ``verify`` on a fresh verdict; a missing or unreadable output is a mismatch."""
    def run() -> Verdict:
        verdict = Verdict()
        missing = [p.name for p in outputs if not p.exists()]
        if missing:
            verdict.mismatch = f"missing output {', '.join(missing)}"
            return verdict
        try:
            verify(verdict)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            verdict.mismatch = f"unreadable output: {exc}"
        return verdict
    return run


# ---------------------------------------------------------------- job builders

def _synthesize_step(twice_s, radius, n, signal_path, out):
    return ["synthesize", "--twice-s", str(twice_s), "--r", _fmt(radius), "--n", str(n),
            "--input", str(signal_path), "--output", str(out)]


def _check_samples(verdict, path, expected):
    verdict.compare("samples", _complex_column(_read_rows(path)), expected, TOL_SAMPLES)


def _check_alias_coefficients(verdict, path, twice_s, radius, samples, n_max, rescaled_cols):
    rows = _read_rows(path)
    ahat, rescaled = ref.alias_coefficients(twice_s, radius, samples.size, samples, n_max)
    verdict.compare("ahat", _complex_column(rows), ahat, TOL_COEFF)
    if rescaled_cols:
        verdict.compare("ahat_rescaled", _complex_column(rows, 3), rescaled, TOL_COEFF)


def error_analysis_job(d, label, twice_s, coeffs, radii, n):
    signal, out = d / "signal.json", d / "out.csv"
    _write_signal(signal, twice_s, coeffs)
    argv = ["error-analysis", "--twice-s", str(twice_s), "--input", str(signal),
            "--sweep-r", ",".join(_fmt(r) for r in radii), "--n", str(n),
            "--output", str(out)]
    expected = [ref.error_analysis_row(twice_s, coeffs, r, n) for r in radii]

    def verify(v: Verdict) -> None:
        rows = _read_rows(out)
        if rows.shape != (len(radii), 7):
            v.mismatch = f"error table shape {rows.shape}"
            return
        v.compare("r", rows[:, 0], radii, 0.0, scale=1.0)
        v.compare("n", rows[:, 1], [n] * len(radii), 0.0, scale=1.0)
        for row, (eps_m, exact, bound, leading) in zip(rows, expected):
            v.compare("epsilon_m", row[2], eps_m, TOL_SERIES, abs_floor=1e-300)
            v.compare("exact_normalized_sq", row[3], exact, TOL_EXACT_REL,
                      abs_floor=TOL_EXACT_ABS)
            v.compare("bound", row[4], bound, TOL_SERIES, abs_floor=1e-300)
            v.compare("leading_bound", row[5], leading, TOL_SERIES, abs_floor=1e-300)
        if not np.all(rows[:, 6] == 1):
            v.unmet = "bound_satisfied"

    return Job(label, [argv], [out], _guarded(verify, [out]))


def reconstruct_job(rng, d, label, mode, twice_s, coeffs, radius, n, points,
                    band_limit=None, n_max=None, synthesize=True):
    """``synthesize`` then ``reconstruct``; checks every output file.

    Without ``synthesize`` the samples file is written here instead.  The
    reconstruction is checked on a subset of the query points drawn from
    ``rng``, and at every ring point in the query set.
    """
    signal, samples_path = d / "signal.json", d / "samples.csv"
    pts, out = d / "points.csv", d / "out.csv"
    grid = ref.grid_points(radius, n)
    samples = ref.signal_values(twice_s, coeffs, grid)
    _write_points(pts, points)
    steps, outputs = [], [out]
    if synthesize:
        _write_signal(signal, twice_s, coeffs)
        steps.append(_synthesize_step(twice_s, radius, n, signal, samples_path))
        outputs.insert(0, samples_path)
    else:
        _write_samples(samples_path, samples)
    argv = ["reconstruct", "--twice-s", str(twice_s), "--r", _fmt(radius), "--n", str(n),
            "--mode", mode, "--input", str(samples_path), "--points", str(pts),
            "--output", str(out)]
    if band_limit is not None:
        argv += ["--band-limit", str(band_limit)]
    ahat_path = Path(f"{out}.ahat.csv")
    if n_max is not None:
        argv += ["--n-max", str(n_max)]
        outputs.append(ahat_path)
    steps.append(argv)
    checked = rng.choice(points.size, size=min(CHECKED_POINTS, points.size), replace=False)
    on_grid = np.isin(points, grid)
    checked = np.sort(checked[~on_grid[checked]])
    if mode == "bandlimited":
        expected = ref.signal_values(twice_s, coeffs, points[checked])
    else:
        expected = ref.partial_reconstruction(twice_s, radius, samples, points[checked])
    grid_index = {complex(z): k for k, z in enumerate(grid)}
    grid_rows = np.nonzero(on_grid)[0]
    grid_cols = np.array([grid_index[complex(z)] for z in points[grid_rows]], dtype=int)

    def verify(v: Verdict) -> None:
        if synthesize:
            _check_samples(v, samples_path, samples)
        rows = _read_rows(out)
        if rows.shape[0] != points.size:
            v.mismatch = f"{rows.shape[0]} values for {points.size} points"
            return
        values = _complex_column(rows)
        v.compare("values", values[checked], expected, TOL_RECON)
        if grid_rows.size:
            v.compare("grid interpolation", values[grid_rows], samples[grid_cols], TOL_INTERP)
        if n_max is not None:
            _check_alias_coefficients(v, ahat_path, twice_s, radius, samples, n_max, False)

    return Job(label, steps, outputs, _guarded(verify, outputs))


def _frame_radius(rng, twice_s, band_limit):
    """A radius where the frame condition number is at most CONDITION_LIMIT."""
    lo, hi = ref.radius_interval(lambda r: ref.frame_condition(twice_s, r, band_limit),
                                 CONDITION_LIMIT, 0.1, 0.999)
    return float(rng.uniform(lo, hi))


def _kernel_radius(rng, twice_s, n):
    """A radius where the kernel condition number is at most KERNEL_CONDITION."""
    lo, hi = ref.radius_interval(lambda r: ref.kernel_condition(twice_s, r, n),
                                 KERNEL_CONDITION, 0.05, 0.95)
    return float(rng.uniform(lo, hi))


def _with_grid(rng, radius, n, total):
    """``total`` query points: the N ring points plus uniform points in the disk."""
    points = np.concatenate([ref.disk_points(rng, total - n), ref.grid_points(radius, n)])
    return points[rng.permutation(points.size)]


# ---------------------------------------------------------------- workloads

SWEEP_LENGTH = 512

# (N, 2s, quarters): the quarter of the lowest, middle and top third of
# [0.1, 0.9] that each of a slot's three radii is drawn from.  Each N has
# every 2s once and every quarter of every third once.  The pairing keeps
# every row on one side of the seed commit's failure thresholds, so a slot's
# jobs cost the same on every seed: at N = 256 the middle radius lies above
# the division by zero in alias_error (r < 0.47, 0.45, 0.39 for 2s = 2, 8,
# 40), so those jobs finish all three kernels before the smallest radius
# fails; (256, 200) takes the top quarter, where the cross-check fails
# (r > 0.81) on the first row, and (256, 2) the bottom quarter, where the
# kernel eigenvalues underflow.  At N = 64 and 128, 2s = 200 stays below the
# top quarter, across which the cross-check threshold (r ~ 0.89, 0.84) lies.
# A run makes whole passes over the slots, so the median lies among the
# N = 128 jobs and p95 among the N = 256 jobs that finish all kernels.
SWEEP_SLOTS = (
    (64, 8, (0, 3, 3)), (128, 2, (0, 3, 3)), (64, 40, (1, 2, 2)), (256, 200, (3, 0, 3)),
    (128, 200, (1, 2, 2)), (64, 200, (2, 1, 1)), (256, 2, (0, 3, 2)), (128, 8, (2, 1, 1)),
    (64, 2, (3, 0, 0)), (256, 8, (1, 2, 1)), (128, 40, (3, 0, 0)), (256, 40, (2, 1, 0)),
)


def sweep(rng: np.random.Generator, root: Path) -> list[Job]:
    """12 slots, one per (N, 2s); three radii, one from each third of [0.1, 0.9].

    Radii are listed in descending order: the common failures hit the
    smallest radius, and a failing row aborts the rest of the table.
    """
    jobs = []
    third = 0.8 / 3.0
    for slot, (n, twice_s, quarters) in enumerate(SWEEP_SLOTS):
        radii = [0.1 + third * (t + (quarters[t] + rng.uniform()) / 4.0) for t in (2, 1, 0)]
        coeffs = _decaying_signal(rng, SWEEP_LENGTH, rng.uniform(0.95, 0.995))
        jobs.append(error_analysis_job(
            _job_dir(root, slot), f"error-analysis N={n} 2s={twice_s}", twice_s, coeffs,
            radii, n))
    return jobs


def evaluate(rng: np.random.Generator, root: Path) -> list[Job]:
    """8 slots alternating modes; size rank b = 0..3 sets M (or N) and Q together."""
    jobs = []
    for b in range(4):
        q = 10_000 + 3_000 * b + int(rng.integers(0, 1_001))
        band = 256 + 248 * b + int(rng.integers(0, 25))
        twice_s = int(rng.choice((2, 4, 8)))
        n = band + 1 + int(rng.integers(0, 64))
        radius = _frame_radius(rng, twice_s, band)
        jobs.append(reconstruct_job(
            rng, _job_dir(root, 2 * b), f"bandlimited M={band} Q={q}", "bandlimited", twice_s,
            _unit_signal(rng, band + 1), radius, n, ref.disk_points(rng, q), band_limit=band))

        q = 10_000 + 3_000 * b + int(rng.integers(0, 1_001))
        n = 16 + 12 * b + int(rng.integers(0, 12))
        twice_s = int(rng.choice((2, 4, 8)))
        radius = _kernel_radius(rng, twice_s, n)
        jobs.append(reconstruct_job(
            rng, _job_dir(root, 2 * b + 1), f"undersampled N={n} Q={q}", "undersampled",
            twice_s, _decaying_signal(rng, 512, rng.uniform(0.97, 0.995)), radius, n,
            _with_grid(rng, radius, n, q), n_max=4 * n - 1))
    return jobs


def _grid_job(rng, d):
    radius, n = rng.uniform(0.1, 0.9), int(rng.integers(8, 65))
    out = d / "out.json"

    def verify(v):
        rows = _read_rows(out)
        v.compare("k", rows[:, 0], np.arange(n), 0.0, scale=1.0)
        v.compare("grid", _complex_column(rows), ref.grid_points(radius, n), TOL_GRID, scale=1.0)

    argv = ["grid", "--r", _fmt(radius), "--n", str(n), "--format", "json", "--output", str(out)]
    return Job("grid", [argv], [out], _guarded(verify, [out]))


def _synthesize_job(rng, d):
    twice_s, n, radius = int(rng.integers(2, 9)), int(rng.integers(8, 65)), rng.uniform(0.1, 0.9)
    coeffs = _decaying_signal(rng, int(rng.integers(8, 65)), rng.uniform(0.5, 0.95))
    signal, out = d / "signal.json", d / "out.csv"
    _write_signal(signal, twice_s, coeffs)
    expected = ref.signal_values(twice_s, coeffs, ref.grid_points(radius, n))
    return Job("synthesize", [_synthesize_step(twice_s, radius, n, signal, out)], [out],
               _guarded(lambda v: _check_samples(v, out, expected), [out]))


def _dft_job(rng, d, mode):
    twice_s, n = int(rng.integers(2, 9)), int(rng.integers(8, 33))
    samples_path, out = d / "samples.csv", d / "out.csv"
    argv = ["dft", "--twice-s", str(twice_s), "--n", str(n), "--mode", mode,
            "--input", str(samples_path), "--output", str(out)]
    if mode == "bandlimited":
        band = int(rng.integers(1, n))
        radius = _frame_radius(rng, twice_s, band)
        coeffs = _unit_signal(rng, band + 1)
        argv += ["--band-limit", str(band)]

        def verify(v):
            v.compare("coefficients", _complex_column(_read_rows(out)), coeffs, TOL_COEFF,
                      scale=1.0)
    else:
        radius = _kernel_radius(rng, twice_s, n)
        coeffs = _decaying_signal(rng, 64, rng.uniform(0.5, 0.95))
        n_max = 2 * n - 1
        argv += ["--n-max", str(n_max)]

        def verify(v):
            _check_alias_coefficients(v, out, twice_s, radius, samples, n_max, True)

    samples = ref.signal_values(twice_s, coeffs, ref.grid_points(radius, n))
    _write_samples(samples_path, samples)
    argv += ["--r", _fmt(radius)]
    return Job(f"dft {mode}", [argv], [out], _guarded(verify, [out]))


def _critical_radius_job(rng, d):
    twice_s = int(rng.integers(2, 201))
    m_list = sorted(int(m) for m in rng.choice(np.arange(1, 2001), size=3, replace=False))
    out = d / "out.json"
    radii = np.linspace(0.0, 0.999, 100)

    def verify(v):
        rows = _read_rows(out)
        if rows.shape != (300, 4):
            v.mismatch = f"curve table shape {rows.shape}"
            return
        for i, m in enumerate(m_list):
            block = rows[100 * i: 100 * (i + 1)]
            v.compare("m", block[:, 0], [m] * 100, 0.0, scale=1.0)
            v.compare("r", block[:, 1], radii, TOL_GRID, scale=1.0)
            v.compare("p", block[:, 2], ref.band_projection(twice_s, m, radii), TOL_SERIES,
                      scale=1.0)
            v.compare("r_critical", block[:, 3], [ref.critical_radius(twice_s, m)] * 100,
                      TOL_SERIES)

    argv = ["critical-radius", "--twice-s", str(twice_s), "--m-list", ",".join(map(str, m_list)),
            "--r-count", "100", "--r-max", "0.999", "--format", "json", "--output", str(out)]
    return Job("critical-radius", [argv], [out], _guarded(verify, [out]))


def short(rng: np.random.Generator, root: Path) -> list[Job]:
    """One small call of each visible command; dft and reconstruct in both modes."""
    jobs = [_grid_job(rng, _job_dir(root, 0)),
            _synthesize_job(rng, _job_dir(root, 1)),
            _dft_job(rng, _job_dir(root, 2), "bandlimited"),
            _dft_job(rng, _job_dir(root, 3), "undersampled"),
            _critical_radius_job(rng, _job_dir(root, 4))]

    twice_s, n = int(rng.integers(2, 9)), int(rng.integers(4, 17))
    radii = [0.1 + 0.4 * (t + rng.uniform()) for t in (1, 0)]
    jobs.append(error_analysis_job(_job_dir(root, 5), "error-analysis", twice_s,
                                   _decaying_signal(rng, 64, rng.uniform(0.5, 0.95)), radii, n))

    twice_s, n = int(rng.integers(2, 9)), int(rng.integers(8, 33))
    band = int(rng.integers(1, n))
    radius = _frame_radius(rng, twice_s, band)
    jobs.append(reconstruct_job(rng, _job_dir(root, 6), "reconstruct bandlimited", "bandlimited",
                                twice_s, _unit_signal(rng, band + 1), radius, n,
                                ref.disk_points(rng, 100), band_limit=band, synthesize=False))

    twice_s, n = int(rng.integers(2, 9)), int(rng.integers(8, 33))
    radius = _kernel_radius(rng, twice_s, n)
    jobs.append(reconstruct_job(rng, _job_dir(root, 7), "reconstruct undersampled",
                                "undersampled", twice_s,
                                _decaying_signal(rng, 64, rng.uniform(0.5, 0.95)), radius, n,
                                _with_grid(rng, radius, n, 100), n_max=2 * n - 1,
                                synthesize=False))
    return jobs


WORKLOADS = {"sweep": sweep, "evaluate": evaluate, "short": short}

_FAILURE_CLASSES = (
    (re.compile(r"not representable"), "NumericalRangeError"),
    (re.compile(r"disagree|imaginary residue|failed to terminate"), "EigenvalueCrossCheckError"),
    (re.compile(r"division by zero"), "ZeroDivisionError"),
)


def failure_class(exit_code: int, stderr: str) -> str:
    """Error class of a failed CLI call, from its exit code and stderr."""
    lines = [line for line in stderr.splitlines() if line.strip()]
    if "Traceback (most recent call last):" in stderr and lines:
        return lines[-1].split(":", 1)[0]
    for line in reversed(lines):
        if "numerical failure:" in line:
            for pattern, name in _FAILURE_CLASSES:
                if pattern.search(line):
                    return name
            return "ArithmeticError"
        if "error:" in line:
            return "invalid-input"
    return f"exit-{exit_code}"
