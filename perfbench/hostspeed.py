"""A speedometer for the host: a background thread that times a fixed
pure-Python loop every PERIOD_S seconds.

On a shared host the speed of one vCPU drifts by up to a factor of two over
seconds to minutes, for selflow and for any other code alike.  The loop's
time, averaged over the samples taken while a repetition runs, follows that
drift (their correlation was 0.94 over 56 sweep-eps repetitions on the
2-vCPU Xeon the benchmark was written on).  The benchmark reports its time
metrics in reference seconds: measured seconds times REF_SAMPLE_S divided by
the mean sample time during the measurement.  A change to selflow moves the
reported metric as much as it moves the measured time; a change in host
speed moves the samples too and cancels out.

The process is pinned to one CPU, so the loop samples the CPU the workload
runs on.  The loop takes about 1.5% of that CPU's time.
"""

from __future__ import annotations

import os
import threading
import time

PERIOD_S = 0.02
LOOP_N = 3000
# Mean time of one sample on the machine the benchmark was written on; it
# only sets the scale of the reported reference seconds.
REF_SAMPLE_S = 2.75e-4
MIN_SAMPLES = 5


def pin_to_one_cpu() -> int:
    """Pin this process to the lowest CPU it may run on; return that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Context manager running the sampling thread; ``mark()`` and
    ``to_ref(mark)`` bracket a measurement."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(self.period_s):
            t0 = clock()
            x = 0
            for i in range(LOOP_N):
                x += i * i
            self.samples.append(clock() - t0)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self.samples)

    def to_ref(self, mark: int) -> float:
        """Factor from measured to reference seconds for the time since
        ``mark``: REF_SAMPLE_S over the mean sample time (at least the last
        MIN_SAMPLES samples are used)."""
        n = len(self.samples)
        recent = self.samples[min(mark, max(0, n - MIN_SAMPLES)):n]
        if not recent:
            raise RuntimeError("no host-speed samples were taken")
        return REF_SAMPLE_S / (sum(recent) / len(recent))
