"""Machine-speed calibration: fixed kernels that do not use signspectra.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
drifts by 10-30% over seconds as other guests load the same cores.  The
drift slows the program and a calibration kernel alike, so every timing
is scaled by ``ref_s`` over the mean time of the kernel runs (points)
taken before, during and after it: the timing is reported in reference
seconds, the time it would take at the speed where one point takes
``ref_s``.  A change to the program moves a scaled timing exactly as much
as the raw one, because the kernel does not change with it.

Kinds of work slow down by different amounts when the host is busy, so
each workload names the kernel that slowed most like it (``kernel`` in
workloads.py):

- ``sort`` copies an 8 MB array of doubles into a buffer and sorts it in
  place.  It tracks the three numpy-heavy workloads.  Its arrays add
  16 MB to the run process's peak RSS.
- ``objects`` round-trips records through json, sorts 20,000 tuples and
  builds a dict of them: interpreter and allocator work, which slows more
  than the sort.  It tracks embed-sweep, whose many small invocations
  are mostly interpreter work.  Its objects add about 4 MB.

Interpreted arithmetic loops, chains of numpy calls on tiny arrays and
batched small linear solves were tried as well; each slowed much more
than some workload, so scaling by it over-corrected.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import time

import numpy as np

# seconds between calibration points during a pass
SAMPLE_S = 0.25


def _sort_kernel():
    floats = np.random.default_rng(0).standard_normal(1_000_000)
    buffer = floats.copy()  # touched now, so no point pays its page faults

    def run() -> None:
        buffer[:] = floats
        buffer.sort()

    return run


def _objects_kernel():
    rng = random.Random(0)
    records = [{"k": "".join(rng.choice("+-") for _ in range(8)),
                "v": [rng.random() for _ in range(20)]} for _ in range(150)]
    rows = [(rng.random(), rng.randrange(1000), str(rng.random())) for _ in range(20_000)]

    def run() -> None:
        json.loads(json.dumps(records))
        sorted(rows)
        {row[2]: row for row in rows}

    return run


# name: (kernel factory, ref_s).  ref_s is about the mean point() during a
# workload's passes on a 2-vCPU Sapphire Rapids KVM guest; it only fixes
# the scale, so that reference seconds read close to seconds.
KERNELS = {
    "sort": (_sort_kernel, 0.013),
    "objects": (_objects_kernel, 0.018),
}
# Set-up is mostly unmarshalling and running module code: interpreter and
# allocator work, which the objects kernel tracked and the sort did not.
SETUP_KERNEL = "objects"


class Calibration:
    """A kernel and its reference time."""

    def __init__(self, kernel: str):
        make, self.ref_s = KERNELS[kernel]
        self._run = make()

    def point(self) -> float:
        """Seconds of one kernel run."""
        t = time.perf_counter()
        self._run()
        return time.perf_counter() - t

    def scale(self, seconds: float, points: list[float]) -> float:
        """Reference seconds of a timing, from points taken during it."""
        return seconds * self.ref_s / statistics.fmean(points)


class Sampler:
    """Calibration points every SAMPLE_S seconds, taken by a SIGALRM handler.

    The points fall inside long invocations too, where the speed may change
    several times.  The handler's own wall and CPU time are summed, for the
    caller to subtract from its timings.
    """

    def __init__(self, cal: Calibration):
        self.cal = cal
        self.points: list[float] = []
        self.wall_s = self.cpu_s = 0.0

    def _sample(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.points.append(self.cal.point())
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
