"""Speed-adjusted timing: wall time converted to a fixed reference speed.

The host's cores change speed under other tenants' load, by up to 1.75x
for spells of a second to several minutes, and wall time moves with
them.  A ``SpeedProbe`` times a fixed reference kernel at the boundaries
of the measured work and, on a timer, during it, and scales each stretch
of work by how fast the kernel ran right after it:

    adjusted = work wall time * nominal kernel time / measured kernel time

so an adjusted time reads what the work would have taken on a machine
where the kernel takes its nominal time.  Each kernel imitates the kind
of work that dominates a workload (small-array numpy calls and SMO-like
scalar steps, or a sliding-window maximum), so it slows with the machine
as that work does.  The kernels live in the benchmark and no change to
livecheck alters them.  Their own time is never counted as work.

A change that slows the process between calls (a busy background
thread, say) also slows the kernel, and is partly hidden by the
adjustment; the raw times are printed beside the adjusted ones.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_rng = np.random.default_rng(0)
_SMALL = _rng.random((64, 64))
_FRAME = _rng.random((48, 80))
_VECTOR = _rng.random(200)
_OTHER = _rng.random(200)


def _small_arrays() -> None:
    """Many numpy calls on a 64x64 array, like the convnet's layers."""
    x = _SMALL
    for _ in range(45):
        x = np.tanh(x * 0.5) + 0.1


def _scalar_steps() -> None:
    """Scalar indexing and small-vector updates, like an SMO step."""
    a = _VECTOR.copy()
    for k in range(100):
        i = k % a.size
        e = a[i] - _OTHER[i]
        v = np.clip(a[i] + 0.1 * e, 0.0, 1.0)
        a += 1e-6 * (v - a[i]) * _OTHER
        int(np.argmax(np.abs(a - e)))


def _window_max() -> None:
    """A sliding-window maximum, like the ROI's morphological closing."""
    np.max(sliding_window_view(_FRAME, (7, 7)), axis=(2, 3))


# Reference kernels by name: the parts run, and the time of one call that
# adjusted times are expressed at (about its time on a 2-vCPU Xeon VM at the
# faster of its speeds).  Each workload uses the kernel whose slowdowns
# tracked its own best on that VM (see README.md).
KERNELS = {
    "numpy-calls": ((_small_arrays, _scalar_steps), 1.6),
    "window-max": ((_window_max,), 1.8),
}


def reference_kernel(name: str) -> float:
    """Run the named reference kernel once; return its wall time in seconds."""
    parts, _ = KERNELS[name]
    start = perf_counter()
    for part in parts:
        part()
    return perf_counter() - start


class SpeedProbe:
    """Accumulates raw and speed-adjusted work time between ``mark`` calls.

    ``mark`` ends the stretch of work since the previous mark, runs the
    reference kernel once and adds the stretch to ``raw`` and, scaled,
    to ``adjusted``.  The time of a region of work is the difference of
    the accumulators across a mark at its start and one at its end.

    Used as a context manager with ``sample_every`` seconds, the probe
    also marks itself on a wall-clock timer (``SIGALRM``), so that long
    library calls are adjusted by how fast the machine ran while they
    did.  Python runs the handler between bytecodes of the main thread,
    so the kernel never runs inside a numpy call.  Traced phases use no
    timer, so that every span is opened and closed in program order.
    """

    def __init__(self, kernel: str, sample_every: float | None = None):
        self.kernel = kernel
        self.nominal = KERNELS[kernel][1] / 1000.0
        self.sample_every = sample_every
        self.raw = 0.0
        self.adjusted = 0.0
        self.reference_times: list[float] = []
        self._since = perf_counter()
        self._busy = False
        self._old_handler = None

    def __enter__(self) -> "SpeedProbe":
        if self.sample_every:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
        self.mark()
        return self

    def __exit__(self, *exc) -> bool:
        if self.sample_every:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.mark()

    def mark(self) -> None:
        self._busy = True
        work = perf_counter() - self._since
        reference = reference_kernel(self.kernel)
        self.reference_times.append(reference)
        self.raw += work
        self.adjusted += work * self.nominal / reference
        self._since = perf_counter()
        self._busy = False

    def region(self) -> tuple[float, float]:
        """Mark, then return (raw, adjusted) to subtract at the region's end."""
        self.mark()
        return self.raw, self.adjusted
