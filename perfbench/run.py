"""Benchmark of the ``disksampling`` CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is used from ``src/``
(not installed).  ``--trace 0`` runs jobs in a closed loop, each CLI call a
fresh ``python -m disksampling`` process, one at a time from this
single-threaded client, and reports the end-to-end metrics.  The loop makes
a fixed number of whole passes over the pool, as many as fill ``--seconds``
at the seed commit's speed, so that a run's jobs (and so its failures) depend
on the seed alone.  ``--trace 1`` runs one pass, then runs every job of the
pool once more in this process through ``disksampling.cli.main``, untraced
and traced, and reports the per-layer metrics.  Every job's outputs are
checked against reference values computed from the generated inputs.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Earlier lines describe the run (environment, tail percentile and
job count, each failure's exit code and error class).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
# Jobs per second of job time at the seed commit (2 vCPU Xeon VM).  They fix
# how many passes over the pool a run makes; no run reads the clock to stop.
NOMINAL_JOBS_PER_S = {"sweep": 0.45, "evaluate": 0.53, "short": 1.6}
# Fixed per workload so that runs compare.  The guideline is the highest
# percentile with at least ten jobs beyond it: a 25 s run makes 40 short
# jobs (p75: 10 beyond), but only 12 sweep and 16 evaluate jobs, so those two
# report a high percentile with one or two jobs beyond it.  In sweep, p95
# falls between the second and third slowest of the three N=256 jobs that
# finish all kernels.
TAIL_PERCENTILE = {"sweep": 95, "evaluate": 90, "short": 75}

# Per-layer statistics reported for each traced layer (see tracing.TARGETS).
LAYER_METRICS = {
    "undersampled.overlap_kernel": ("calls", "self_s", "p50_s", "mp_ops_computed"),
    "undersampled.alias_error": ("self_s",),
    "undersampled.error_bound": ("self_s",),
    "undersampled.tail_excess": ("calls", "self_s"),
    "undersampled.quasi_band_profile": ("self_s",),
    "basis.evaluate_signal": ("calls", "self_s", "peak_alloc_mb", "bytes_computed"),
    "bandlimited.reconstruct_bandlimited": ("self_s",),
    "bandlimited.fourier_coefficients": ("self_s",),
    "bandlimited.frame_matrix": ("self_s",),
    "undersampled.partial_reconstruct": ("self_s", "peak_alloc_mb"),
    "undersampled.dual_weights": ("self_s",),
    "undersampled.dft_coefficients": ("self_s",),
    "basis.sample_signal": ("calls", "self_s"),
    "basis.spectrum": ("calls", "self_s"),
    "basis.overlap": ("self_s",),
    "undersampled.band_projection_curve": ("self_s",),
    "cli": ("self_s",),
}

END_TO_END_UNITS = {"job_s.p50": "s", "job_s.tail": "s", "jobs_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class JobRun:
    job: workloads.Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    error_class: str | None = None
    verdict: workloads.Verdict | None = None

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.verdict.mismatch or self.verdict.unmet)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list[str], log: Path, env: dict[str, str]):
    """Run one process to completion; returns (exit code, wall s, its own rusage)."""
    out = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log.with_suffix(".out")), out, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(log.with_suffix(".err")), out, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage


def run_job(job: workloads.Job, env: dict[str, str]) -> JobRun:
    job.clear_outputs()
    wall = cpu = rss_kb = 0.0
    code, error_class = 0, None
    log = WORK / "job"
    for argv in job.steps:
        code, seconds, usage = spawn(["-m", "disksampling", *argv], log, env)
        wall += seconds
        cpu += usage.ru_utime + usage.ru_stime
        rss_kb = max(rss_kb, usage.ru_maxrss)
        if code != 0:
            error_class = workloads.failure_class(code, log.with_suffix(".err").read_text())
            break
    return JobRun(job, wall, cpu, rss_kb / 1024.0, code, error_class)


def passes(workload: str, seconds: float, pool: int) -> int:
    """Whole passes over a pool of ``pool`` jobs that fill ``seconds`` at the
    seed commit's speed; at least one."""
    return max(1, round(seconds * NOMINAL_JOBS_PER_S[workload] / pool))


def closed_loop(jobs: list[workloads.Job], count: int, env,
                setup_samples: int = 0) -> tuple[list[JobRun], list[float]]:
    """``count`` jobs one after another, cycling through the pool.

    Checking happens between jobs and outside the timed interval.  The
    ``setup_samples`` set-up timings are spread evenly over the loop, between
    jobs, so that a slow spell of the machine does not hit all of them.
    """
    runs: list[JobRun] = []
    setups: list[float] = []
    for index in range(count):
        while len(setups) < setup_samples and index >= count * len(setups) / setup_samples:
            setups.append(setup_seconds(env))
        run = run_job(jobs[index % len(jobs)], env)
        run.verdict = run.job.verify() if run.exit_code == 0 else workloads.Verdict()
        runs.append(run)
    while len(setups) < setup_samples:
        setups.append(setup_seconds(env))
    return runs, setups


def setup_seconds(env) -> float:
    """Wall time of a fresh interpreter that only imports the package (bytecode warm)."""
    code, seconds, _ = spawn(["-c", "import disksampling"], WORK / "setup", env)
    if code != 0:
        raise RuntimeError("import disksampling failed: " + (WORK / "setup.err").read_text())
    return seconds


_IMPORT_LINE = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)")


def import_times(env) -> tuple[float, float]:
    """(disksampling, scipy) cumulative import seconds from ``python -X importtime``."""
    package, scipy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        spawn(["-X", "importtime", "-c", "import disksampling"], WORK / "importtime", env)
        pending: dict[int, list] = {}
        for line in (WORK / "importtime.err").read_text().splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                depth = len(match.group(3)) // 2
                node = (match.group(4), int(match.group(2)), pending.pop(depth + 1, []))
                pending.setdefault(depth, []).append(node)
        roots = pending.get(0, [])

        def scipy_us(nodes):
            return sum(cum if name == "scipy" or name.startswith("scipy.") else scipy_us(kids)
                       for name, cum, kids in nodes)

        package.append(sum(cum for name, cum, _ in roots if name == "disksampling") / 1e6)
        scipy.append(scipy_us(roots) / 1e6)
    return statistics.median(package), statistics.median(scipy)


def blas_info() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"),
            "threads_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}}
    # The OpenBLAS that numpy loaded; its thread count is the library default.
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            handle = ctypes.CDLL(str(lib))
            handle.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            info["config"] = handle.scipy_openblas_get_config64_().decode()
            info["threads"] = int(handle.scipy_openblas_get_num_threads64_())
    return info


def physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def environment(seed: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "blas": blas_info(),
        "memory_bytes": physical_memory(),
    }


def summary(runs: list[JobRun]) -> dict:
    failures = [{"job": r.job.label, "exit_code": r.exit_code,
                 "class": r.error_class or (r.verdict.mismatch and "mismatch")
                 or (r.verdict.unmet and f"check:{r.verdict.unmet}"),
                 "detail": r.verdict.mismatch} for r in runs if r.failed]
    return {"attempted": len(runs), "failed": len(failures), "failures": failures}


def is_correct(runs: list[JobRun]) -> bool:
    """No job gave a wrong answer: every exit-0 output matches its reference,
    and every other exit is the CLI's typed numerical failure (exit code 3)."""
    return all(r.verdict.mismatch is None if r.exit_code == 0 else r.exit_code == 3
               for r in runs)


def end_to_end(workload: str, runs: list[JobRun], setup_s: float) -> tuple[dict, dict]:
    walls = np.array([r.wall_s for r in runs])
    pct = TAIL_PERCENTILE[workload]
    tail = float(np.percentile(walls, pct))
    values = {
        "job_s.p50": float(np.median(walls)),
        "job_s.tail": tail,
        "jobs_per_s": len(runs) / float(walls.sum()),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "setup_s": setup_s,
    }
    info = {"tail_percentile": pct, "jobs": len(runs),
            "jobs_beyond_tail": int(np.sum(walls > tail)), "busy_s": float(walls.sum()),
            "job_walls": [[r.job.label, round(r.wall_s, 4), r.exit_code] for r in runs]}
    return values, info


def replay(jobs: list[workloads.Job], cli, tracer: tracing.Tracer):
    """Run each job through ``cli.main`` in this process twice, untraced and
    traced, alternating which goes first so that neither pass gains from
    caches the other warmed or from a drift in machine speed.

    Returns (untraced seconds, traced seconds, bytes read, bytes written).
    """
    elapsed = {False: 0.0, True: 0.0}
    bytes_in = bytes_out = 0
    sink = io.StringIO()
    for index, job in enumerate(jobs):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            job.clear_outputs()
            tracer.job = index
            if traced:
                tracer.install()
            try:
                for argv in job.steps:
                    start = time.perf_counter()
                    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
                        try:
                            code = cli.main(argv)
                        except SystemExit as exc:
                            code = exc.code
                    elapsed[traced] += time.perf_counter() - start
                    if code != 0:
                        break
            finally:
                tracer.uninstall()
        bytes_in += sum(os.path.getsize(argv[i + 1]) for argv in job.steps
                        for i, a in enumerate(argv) if a in ("--input", "--points"))
        bytes_out += sum(p.stat().st_size for p in job.outputs if p.exists())
    return elapsed[False], elapsed[True], bytes_in, bytes_out


def per_layer(jobs: list[workloads.Job], runs: list[JobRun], env, spans_path: Path):
    """Per-layer metrics of one replay of the whole pool, so that they count the
    same jobs however fast the package runs them; process-level figures come
    from the closed-loop ``runs``."""
    import_s, scipy_s = import_times(env)
    sys.path.insert(0, str(SRC))
    import disksampling.cli as cli

    # One untimed run of each kind of job first, so that neither timed pass
    # pays for first-call set-up inside the package or its imports.
    kinds: dict[str, workloads.Job] = {}
    for job in jobs:
        kinds.setdefault(job.label.split()[0], job)
    warm = tracing.Tracer()
    for job in kinds.values():
        replay([job], cli, warm)
    tracer = tracing.Tracer()
    untraced_s, traced_s, bytes_in, bytes_out = replay(jobs, cli, tracer)
    tracer.write(spans_path)
    stats = tracing.layer_stats(tracer.spans)
    values = {f"{layer}.{metric}": layer_metric(stats[layer], metric)
              for layer, metrics in LAYER_METRICS.items() for metric in metrics}
    values.update({
        "cli.bytes_in": bytes_in,
        "cli.bytes_out": bytes_out,
        "compute.self_s": sum(v.self_s for k, v in stats.items() if k != "cli"),
        "setup.import_s": import_s,
        "setup.scipy_import_s": scipy_s,
        "proc.cpu_s": float(np.median([r.cpu_s for r in runs])),
        "check.max_rel_err": max(r.verdict.max_rel_err for r in runs),
        "fail_frac": sum(r.failed for r in runs) / len(runs),
        "trace.overhead_s": traced_s - untraced_s,
    })
    info = {"replayed_jobs": len(jobs), "replay_untraced_s": untraced_s,
            "replay_traced_s": traced_s, "spans": len(tracer.spans), "span_file": str(spans_path.relative_to(ROOT)),
            "layer_errors": {k: v.errors for k, v in stats.items() if v.errors}}
    if stats["basis.evaluate_signal"].work:
        # Peak allocation per computed byte at the largest call, extrapolated to
        # the machine's physical memory: where evaluate_signal stops fitting.
        largest = max((s for s in tracer.spans if s.name == "basis.evaluate_signal"),
                      key=lambda s: s.work)
        info["evaluate_signal_alloc_per_computed_byte"] = largest.alloc_peak / largest.work
        info["evaluate_signal_limit_bytes_computed"] = int(
            physical_memory() * largest.work / largest.alloc_peak)
    return values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "disksampling" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'disksampling'}; "
              "run from the root of a disksampling checkout", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    jobs_dir = WORK / "jobs"
    jobs_dir.mkdir(parents=True)
    env = child_env()
    try:
        rng = np.random.default_rng([args.seed, sorted(workloads.WORKLOADS).index(args.workload)])
        jobs = workloads.WORKLOADS[args.workload](rng, jobs_dir)
        # Warm the bytecode cache of every module a job imports; untimed.
        spawn(["-m", "disksampling", "--help"], WORK / "warm", env)

        if args.trace == 0:
            count = len(jobs) * passes(args.workload, args.seconds, len(jobs))
            runs, setups = closed_loop(jobs, count, env, SETUP_REPEATS)
            values, info = end_to_end(args.workload, runs, statistics.median(setups))
        else:
            runs, _ = closed_loop(jobs, len(jobs), env)
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            values, info = per_layer(jobs, runs, env, spans_path)
    finally:
        shutil.rmtree(jobs_dir, ignore_errors=True)

    counts = summary(runs)
    info.update(workload=args.workload, environment=environment(args.seed),
                failures=counts["failures"])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": is_correct(runs),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in values.items()},
    }))
    return 0


def layer_metric(layer: tracing.LayerStats, metric: str) -> float:
    if metric == "peak_alloc_mb":
        return layer.alloc_peak / 2**20
    if metric.endswith("_computed"):
        return layer.work
    return getattr(layer, metric)


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("bytes_computed", "bytes_in", "bytes_out")):
        return "bytes"
    if name in ("fail_frac", "check.max_rel_err"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
