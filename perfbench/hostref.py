"""Host-speed reference clock for the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host.  Other tenants' load
changes how fast this process runs by up to ~1.8x, in states that last from
seconds to minutes; per-sample latency of one fixed workload drifted from
0.46 ms to 0.89 ms within five minutes on a 2-vCPU KVM guest, with no steal
time.  A run of 10-30 s cannot average that out: the spread of its mean
across runs stayed at 15-25 % at every run length tried.

``HostClock`` measures that speed while the workload runs.  A wall-clock
interval timer (SIGALRM) interrupts the workload every ``INTERVAL_S`` and
runs a fixed reference kernel that does not touch liomsim: interpreter
work, small numpy ops, an einsum contraction, a small dense eigen-solve, a
product with a 512x512 complex matrix (the size of the N=9 dense
operators) and first touches of 256 KiB of fresh pages (the N=32 plan
workloads take ~50 000 page faults a second, 7-8 % of their time in the OS
kernel), the mix the workloads spend their time in.  The kernel's
compute part runs twice and only the second run is timed: the first
reloads its ~4 MiB of data and code into cache, so the sample does not
depend on how much cache the interrupted workload itself was using (timed
cold, it read ~20 % slower inside the N=32 plan workloads than inside the
N=10 dense one, under the same host load).  Each handler run's own time is
subtracted from the op it interrupted.

``factor()`` is the kernel's median time over a stretch divided by
``NOMINAL_S``: above 1 when the host was slower than nominal.  An
end-to-end timing divided by that factor is the time the op would have
taken on the nominal host.  Over two sets of ten 20-s runs per workload,
the interquartile spread of the timings fell from up to 35 % raw to
3-12 % adjusted.  In an earlier set of 15-s runs the memory-heavy
workloads, whose slowdowns the kernel follows least closely, reached
16-20 %.

Raw timings and the factors are kept in the full record, beside the
adjusted metrics.
"""

from __future__ import annotations

import bisect
import mmap
import signal
import time

import numpy as np

# Wall-clock interval between reference samples.  Two ~1 ms kernel runs
# every 50 ms: dense enough to follow sub-second swings, ~4 % of the time.
INTERVAL_S = 0.05
# Median kernel time, in seconds, of the nominal host the adjusted timings
# refer to: the kernel's typical time on the 2-vCPU Xeon guest the first
# baseline was taken on.  It scales every adjusted timing by the same
# constant, so it changes no comparison between commits.
NOMINAL_S = 1.0e-3
# Fresh anonymous memory touched per kernel run; every page faults.
FRESH_BYTES = 1 << 18


class ReferenceKernel:
    """A fixed, deterministic piece of work, independent of liomsim."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.vec = rng.random(1024)
        self.mat = rng.random((64, 64))
        self.tensor = rng.random((16, 16, 16)) + 1j * rng.random((16, 16, 16))
        self.leg = rng.random((16, 16)) + 1j * rng.random((16, 16))
        sym = rng.random((48, 48))
        self.sym = sym + sym.T
        self.dense = rng.random((512, 512)) + 1j * rng.random((512, 512))
        self.state = rng.random(512) + 1j * rng.random(512)

    def __call__(self) -> float:
        return self.compute() + self.touch_fresh_pages()

    def compute(self) -> float:
        acc = 0.0
        table = {}
        for i in range(200):
            table[(i, i & 7)] = i * 3
        acc += sum(table.values())
        for i in range(20):
            acc += float(np.exp(-self.vec * i).sum())
            acc += float((self.mat @ self.mat[:, i]).sum())
        acc += float(np.abs(np.einsum("abc,cd->abd", self.tensor, self.leg)).sum())
        acc += float(np.linalg.eigvalsh(self.sym).sum())
        acc += float(np.abs(self.dense @ self.state).sum())
        return acc

    def touch_fresh_pages(self) -> float:
        with mmap.mmap(-1, FRESH_BYTES) as fresh:
            pages = np.frombuffer(fresh, dtype=np.uint8)
            pages[::4096] = 1
            total = float(pages[::4096].sum())
            del pages
        return total


class HostClock:
    """Samples the reference kernel on a timer while active.

    ``pauses`` holds the (start, end) of every handler run;
    ``paused_within(t0, t1)`` is the handler time to take out of a stretch
    timed from the main thread.  ``busy`` is their total.  Samples are
    ``(taken_at, seconds)`` pairs, so a caller can take the factor of any
    stretch with ``factor(since, until)``."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.kernel = ReferenceKernel()
        self.samples: list[tuple[float, float]] = []
        self.busy = 0.0
        self.pauses: list[tuple[float, float]] = []
        self._inside = False
        self._previous = None
        self._times = np.empty(0)
        self._values = np.empty(0)

    def sample(self) -> None:
        """Take one sample now (also called by the timer)."""
        if self._inside:
            return
        self._inside = True
        start = time.perf_counter()
        try:
            self.kernel.compute()  # warm-up, untimed
            warm = time.perf_counter()
            self.kernel()
            self.samples.append((warm, time.perf_counter() - warm))
        finally:
            end = time.perf_counter()
            self.pauses.append((start, end))
            self.busy += end - start
            self._inside = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostClock":
        self.kernel()  # first call pays numpy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def paused_within(self, t0: float, t1: float) -> float:
        """Handler time inside [t0, t1].  The handler runs on the main
        thread, so each run lies wholly inside or wholly outside a stretch
        that the main thread timed."""
        i = bisect.bisect_left(self.pauses, (t0,))
        total = 0.0
        while i < len(self.pauses) and self.pauses[i][1] <= t1:
            total += self.pauses[i][1] - self.pauses[i][0]
            i += 1
        return total

    def factor(self, since: float = -np.inf, until: float = np.inf) -> float:
        """Median kernel time over samples taken in [since, until] over
        NOMINAL_S; over every sample when no sample falls in the stretch.
        The median, because a sample now and then catches an interrupt."""
        if not self.samples:
            raise RuntimeError("host clock has no samples")
        if len(self._times) != len(self.samples):
            self._times = np.array([t for t, _ in self.samples])
            self._values = np.array([s for _, s in self.samples])
        lo = np.searchsorted(self._times, since, side="left")
        hi = np.searchsorted(self._times, until, side="right")
        if hi <= lo:
            lo, hi = 0, len(self._times)
        return float(np.median(self._values[lo:hi])) / NOMINAL_S
