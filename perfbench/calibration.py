"""Machine-speed calibration of the end-to-end timings.

The shared virtual machine the benchmark was built on changes speed by
20-40% within seconds: a fixed loop of Python arithmetic took 78-121 ms from
one 5 s stretch to the next, with no steal time, so process CPU time drifts
alike.  Runs of the same code then spread by more than any useful bound.

The benchmark therefore times ``reference()``, a fixed loop of Python
integer arithmetic that the program cannot change, between requests, and
scales each timing to a machine on which that loop takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / (reference time near the measurement)

A change to the program moves the scaled timings exactly as much as the
measured ones; a change in machine speed moves both the request and the
loop, and mostly cancels.  On that machine, ten 25 s runs per workload
gave 2.14-3.30 ``sumgdof`` solves/s measured and 2.19-2.62 scaled, and
946-1368 ``cellular`` trials/s measured and 892-963 scaled.

Only requests served inside the worker process are scaled.  A ``cli``
request starts a fresh interpreter and imports numpy, which the loop does
not track: timed just after a child exits, the 6 ms loop took up to 22 ms,
and ten ``cli`` runs spread 7% measured but 12% scaled (quartiles over
median).  Set-up, also an interpreter start and imports, is not scaled
either.  Starting a bare interpreter as the reference took 11-27 ms
depending on which process started it, so it is no better.
"""

from __future__ import annotations

import statistics
import time

#: Nominal seconds of one ``reference()`` call: about its median on the
#: shared 2-vCPU x86_64 machine the benchmark was built on (Python 3.11).
#: Scaled timings are in seconds of a machine on which the loop takes this long.
REFERENCE_S = 0.006

#: Seconds of requests between two timings of the reference loop.
INTERVAL_S = 0.3

#: Reference timings whose median sets the scale of the requests between
#: two of them: about 1.5 s of run, shorter than the machine's swings.
SPAN = 5


def _loop() -> int:
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return s


def reference() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scales(refs: list[float], ends: list[int]) -> list[float]:
    """Scale factor of each request of a closed loop.

    ``refs[j]`` is a reference time taken after ``ends[j]`` requests, with
    ``ends[0] == 0``.  The requests between timings ``j`` and ``j + 1`` get
    ``REFERENCE_S`` over the median of the ``SPAN`` timings nearest that
    stretch, so one disturbed timing does not move them.
    """
    factors = []
    for j in range(len(refs) - 1):
        lo = max(0, min(j + 1 - SPAN // 2, len(refs) - SPAN))
        nominal_over_now = REFERENCE_S / statistics.median(refs[lo:lo + SPAN])
        factors += [nominal_over_now] * (ends[j + 1] - ends[j])
    return factors
