"""Host-speed reference for the timed metrics.

This benchmark runs on shared hosts whose speed drifts: the same CPU-bound
loop can take 1.4x as long from one run to the next, and for tens of
seconds at a time. A drift that size swamps the bounds the gated metrics
carry. So the run keeps timing a fixed reference kernel of the benchmark's
own (a pure-Python loop, small sorts, a 512 KiB complex array pass that
stays in cache, and 512 KiB of freshly mapped pages written once, about
1.3 ms) between operations, and every gated time is rescaled to a host
on which that kernel takes ``NOMINAL_S``:

    normalized = measured * NOMINAL_S / median(reference times near it)

"Near" is within ``PAD_S`` of the timed interval, so a 1-ms operation is
scaled by the kernel timings of the surrounding fraction of a second and a
2-s one by those taken just before and just after it. The page-fault part
is there because the circuit workload spends about a third of its time in
the kernel faulting in fresh pages for its state vectors, and that cost
drifts with the host more than the interpreter's does. The kernel never
calls the program under test, so a faster program reads faster by the same
share; only the drift of the host cancels. The raw wall-clock figures are
printed and recorded next to the normalized ones.
"""
import bisect
import mmap
import statistics
import time

import numpy as np

NOMINAL_S = 0.0012  # reference-kernel time on the host the figures are scaled to
INTERVAL_S = 0.05   # at most one reference sample per interval
PAD_S = 0.1         # reference samples this close to an interval scale it

# The kernel's arrays are allocated once, and its fresh pages come from
# mmap itself: a numpy array of 512 KiB per call would be mmapped or not
# depending on the allocator's state, which the program under test changes,
# so the reference time would move with the program.
_ARRAY = np.ones(32768, complex)
_OUT = np.empty_like(_ARRAY)
_ABS = np.empty(len(_ARRAY[::7]))
_SORTED = np.arange(64.0)
_FRESH_BYTES = 1 << 19


def reference_kernel() -> float:
    """Fixed work resembling the program's mix of interpreter and numpy time."""
    d, s = {}, 0
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i
        s += i * i
    a = _SORTED
    for _ in range(50):
        a = np.sort(a[::-1])
    acc = float(a[3])
    for _ in range(2):
        np.multiply(_ARRAY, 1.0001, out=_OUT)
        np.add(_OUT, _ARRAY, out=_OUT)
        acc += float(np.abs(_OUT[::7], out=_ABS).sum())
    with mmap.mmap(-1, _FRESH_BYTES) as fresh:
        pages = np.frombuffer(fresh, dtype=np.float64)
        pages[:] = 1.0
        acc += float(pages[::512].sum())
        del pages  # release the buffer before the mapping closes
    return acc + s


class HostClock:
    """Reference-kernel samples, and the scale they give an interval."""

    def __init__(self):
        self.starts: list = []   # perf_counter at each sample's start, increasing
        self.times: list = []    # seconds the kernel took
        self.last = -float("inf")

    def sample(self) -> None:
        reference_kernel()  # warm: the first pass after an operation refills caches
        t = time.perf_counter()
        reference_kernel()
        self.times.append(time.perf_counter() - t)
        self.starts.append(t)
        self.last = time.perf_counter()

    def tick(self) -> None:
        """Sample if the last sample is at least INTERVAL_S old."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time within PAD_S of [start, end],
        or over the median of all samples when none is that close."""
        lo = bisect.bisect_left(self.starts, start - PAD_S)
        hi = bisect.bisect_right(self.starts, end + PAD_S)
        return NOMINAL_S / statistics.median(self.times[lo:hi] or self.times)

    def normalize(self, start: float, seconds: float) -> float:
        return seconds * self.scale(start, start + seconds)
