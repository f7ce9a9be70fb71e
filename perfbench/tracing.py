"""Spans around the package's public functions, recorded from outside the package.

``Tracer.install`` replaces every reference the loaded ``disksampling``
modules hold to each target function with a timing wrapper, so calls made
inside the package (``error_bound`` -> ``tail_excess``,
``reconstruct_bandlimited`` -> ``evaluate_signal``) become child spans.
``uninstall`` puts the originals back.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# (layer name, module, attribute); "Class.method" patches a method.
TARGETS = (
    ("basis.spectrum", "disksampling.basis", "ResolutionSpectrum.log_values"),
    ("basis.sample_signal", "disksampling.basis", "sample_signal"),
    ("basis.evaluate_signal", "disksampling.basis", "evaluate_signal"),
    ("basis.overlap", "disksampling.basis", "overlap"),
    ("bandlimited.frame_matrix", "disksampling.bandlimited", "frame_matrix"),
    ("bandlimited.fourier_coefficients", "disksampling.bandlimited", "fourier_coefficients"),
    ("bandlimited.reconstruct_bandlimited", "disksampling.bandlimited", "reconstruct_bandlimited"),
    ("bandlimited.sinc_kernel", "disksampling.bandlimited", "sinc_kernel"),
    ("undersampled.overlap_kernel", "disksampling.undersampled", "overlap_kernel"),
    ("undersampled.dual_weights", "disksampling.undersampled", "dual_weights"),
    ("undersampled.partial_reconstruct", "disksampling.undersampled", "partial_reconstruct"),
    ("undersampled.dft_coefficients", "disksampling.undersampled", "dft_coefficients"),
    ("undersampled.alias_error", "disksampling.undersampled", "alias_error"),
    ("undersampled.error_bound", "disksampling.undersampled", "error_bound"),
    ("undersampled.tail_excess", "disksampling.undersampled", "tail_excess"),
    ("undersampled.quasi_band_profile", "disksampling.undersampled", "quasi_band_profile"),
    ("undersampled.band_projection_curve", "disksampling.undersampled", "band_projection_curve"),
    ("cli", "disksampling.cli", "main"),
)

# Work each call is asked to do, from its arguments.  Both are computed
# counts, not measurements: N^2 extended-precision row-DFT terms per kernel,
# and the bytes of the dense L x Q complex basis matrix per evaluation.
WORK = {
    "undersampled.overlap_kernel": lambda twice_s, grid: grid.n_samples ** 2,
    "basis.evaluate_signal": lambda signal, z: len(signal) * int(np.size(z)) * 16,
}

# Layers whose peak traced allocation is recorded (tracemalloc runs only
# inside these calls, so the rest of the replay is not slowed by it).
ALLOC_TRACED = frozenset({"basis.evaluate_signal", "undersampled.partial_reconstruct"})


@dataclass
class Span:
    name: str
    parent: int | None
    job: int | None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    work: int = 0
    alloc_peak: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(module, class_name)
                holders = [owner]
            else:
                owner = module
                holders = [m for key, m in list(sys.modules.items())
                           if key == "disksampling" or key.startswith("disksampling.")]
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original)
            for holder in holders:
                for key in [k for k, v in vars(holder).items() if v is original]:
                    self._patched.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _wrap(self, name, function):
        work = WORK.get(name)
        traces_alloc = name in ALLOC_TRACED
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.job)
            if work is not None:
                span.work = work(*args, **kwargs)
            stack.append(len(spans))
            spans.append(span)
            own_alloc = traces_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                if own_alloc:
                    span.alloc_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0
    alloc_peak: int = 0
    errors: int = 0
    durations: list[float] = field(default_factory=list)

    @property
    def p50_s(self) -> float:
        return float(np.median(self.durations)) if self.durations else 0.0


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-layer calls, self time (duration minus child spans), work and peak allocation."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    stats = {name: LayerStats() for name, _, _ in TARGETS}
    for index, span in enumerate(spans):
        layer = stats[span.name]
        duration = span.end - span.start
        layer.calls += 1
        layer.self_s += duration - child_time[index]
        layer.durations.append(duration)
        layer.work += span.work
        layer.alloc_peak = max(layer.alloc_peak, span.alloc_peak)
        layer.errors += span.error is not None
    return stats
