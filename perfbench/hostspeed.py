"""Host speed, measured with a fixed piece of pure-Python work.

The machine that defined this benchmark changes speed by tens of per
cent within seconds, more than the bounds in BENCHMARK.json allow.  So
every timed interval is reported scaled to a host on which `kernel`
takes REFERENCE_S:

    scaled = elapsed * REFERENCE_S / mean(kernel times around and during it)

The kernel is timed between commands and, from a background thread,
every SAMPLE_PERIOD_S while a command runs (`Sampler`), so a long
command is scaled by the speed the host had while it ran, and a short
one by the samples of the 0.1 s around it.  The kernel is the
benchmark's own code (closed-form path loss, float formatting, CSV
parsing), so no change to propcal can alter it.  Each measurement is the
median of a few back-to-back repeats, which ignores a page fault, a cold
cache or an interrupt that lands in one of them.
"""

from __future__ import annotations

import bisect
import csv
import gc
import io
import statistics
import threading
import time

import oracle

REFERENCE_S = 0.00022
SAMPLE_PERIOD_S = 0.25
# A command is scaled by the kernel samples from WINDOW_S before it to
# WINDOW_S after it, and at least by the nearest sample on each side.
WINDOW_S = 0.1
_DISTANCES = [200.0 + 200.0 * i for i in range(20)]
_REPEATS = 5


def kernel() -> float:
    rows = [",".join(f"{oracle.path_loss(m, d):.4f}" for m in oracle.MODEL_IDS) for d in _DISTANCES]
    return sum(float(cell) for row in csv.reader(io.StringIO("\n".join(rows))) for cell in row)


def _median_kernel_s() -> float:
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure() -> float:
    """Seconds the kernel takes now, after collecting the program's garbage."""
    gc.collect()
    return _median_kernel_s()


def scale(elapsed: float, kernel_s: list[float]) -> float:
    """`elapsed` as it would read on a host where the kernel takes REFERENCE_S."""
    return elapsed * REFERENCE_S / statistics.fmean(kernel_s)


class Sampler:
    """Kernel samples taken between commands (`record`) and, from a
    background thread, every SAMPLE_PERIOD_S while a command runs.

    The thread holds the interpreter lock for about five kernels per
    period, which slows the command it interrupts by well under 1 %.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            kernel_s = _median_kernel_s()
            self.samples.append((time.perf_counter(), kernel_s))

    def record(self) -> None:
        kernel_s = measure()
        self.samples.append((time.perf_counter(), kernel_s))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each (start, end) interval's length scaled by the kernel samples around it."""
        ordered = sorted(self.samples)
        times = [t for t, _ in ordered]
        kernel_s = [k for _, k in ordered]
        out = []
        for start, end in intervals:
            lo = max(0, min(bisect.bisect_left(times, start - WINDOW_S), bisect.bisect_left(times, start) - 1))
            hi = max(bisect.bisect_right(times, end + WINDOW_S), bisect.bisect_right(times, end) + 1)
            out.append(scale(end - start, kernel_s[lo:hi]))
        return out
