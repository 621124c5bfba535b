"""One run of one workload, in a fresh process with one client and one thread.

run.py starts it as ``python perfbench/worker.py --workload W --seed N
--seconds S --trace 0|1 [--setup-only]`` from the repository root with
``PYTHONPATH=src``.  It imports the program, builds the inputs and prints
``ready``; run.py times set-up up to that line.  Then it runs the closed loop,
checks every output outside the timed region, and prints one JSON line of
raw measurements for run.py to turn into metrics.

With ``--trace 1`` it alternates untraced blocks with the same requests
traced, so their wall times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import calibration
import tracing
import workloads

GOLDEN = Path(__file__).with_name("golden.json")

#: Failure messages kept in the output; every failure is counted.
MAX_REPORTED_FAILURES = 5

#: Untraced/traced block pairs in a --trace 1 run.
TRACE_BLOCKS = 8


class Outcomes:
    """The results of a run, in memory bounded by the pool: the first result
    of each input in full, and for every later request of that input only
    whether it equals the first."""

    def __init__(self):
        self.first: dict = {}
        self.repeats: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, request: int, idx: int, result) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            self.failures.append(f"request {request}: {result!r}")
        elif idx not in self.first:
            self.first[idx] = result
        elif result == self.first[idx]:
            self.repeats[idx] += 1
        else:
            self.failures.append(f"request {request}: differs from the first result of input {idx}")

    def check(self, wl, seed: int) -> int:
        """Verify the first result of each input, and compare it with the
        recorded one when the seed is the default.  A wrong first result fails
        its repeats too.  Returns the number of failed requests."""
        golden = None
        if seed == workloads.DEFAULT_SEED:
            golden = json.loads(GOLDEN.read_text())["workloads"][wl.name]
        failed = len(self.failures)
        for idx, result in sorted(self.first.items()):
            item = wl.inputs[idx]
            try:
                wl.verify(item, result)
                if golden is not None:
                    got = json.loads(json.dumps(wl.summary(item, result)))
                    if got != golden[idx]:
                        raise workloads.CheckFailed(f"{got} != recorded {golden[idx]}")
            except Exception as exc:  # counted as failed requests and reported
                failed += 1 + self.repeats[idx]
                self.failures.append(f"input {idx}: {exc!r}")
        return failed


def closed_loop(wl, outcomes: Outcomes, first=0, seconds=None, requests=None, tracer=None,
                calibrate=False):
    """Send requests back to back, cycling through the pool from request ``first``.

    Stops after ``requests`` requests, or once ``seconds`` have passed and the
    count is a multiple of the workload's granule.  Returns the latencies,
    their scale factors and the wall time; a request that raises is recorded
    as failed.  With ``calibrate``, the reference loop is timed
    before the first request and after every ``calibration.INTERVAL_S`` of
    requests, and ``calibration.scales`` turns those times into each
    latency's factor; otherwise every factor is 1.
    """
    latencies = []
    refs, ends = [], []  # reference times; request count when each was taken
    span_name = getattr(wl, "span_name", None)
    if calibrate:
        refs.append(calibration.reference())
        ends.append(0)
    start = window = time.perf_counter()
    i = 0
    while True:
        if requests is not None:
            if i >= requests:
                break
        elif i % wl.granule == 0 and time.perf_counter() - start >= seconds:
            break
        idx = (first + i) % len(wl.inputs)
        item = wl.inputs[idx]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.request(item)
            else:
                tracer.begin_request(first + i)
                if span_name is None:
                    result = wl.request(item)
                else:
                    with tracer.span(span_name(item)):
                        result = wl.request(item)
        except Exception as exc:  # a failed request is counted, not fatal
            result = exc
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outcomes.add(first + i, idx, result)
        i += 1
        if calibrate and t1 - window >= calibration.INTERVAL_S:
            refs.append(calibration.reference())
            ends.append(i)
            window = time.perf_counter()
    wall = time.perf_counter() - start
    if not calibrate:
        return latencies, [1.0] * i, wall
    if ends[-1] < i:
        refs.append(calibration.reference())
        ends.append(i)
    return latencies, calibration.scales(refs, ends), wall


def traced_run(wl, outcomes: Outcomes, seconds: float) -> dict:
    """Run blocks of requests twice, untraced and traced, until the untraced
    side has taken ``seconds / 2``.  The side that runs first alternates, so
    drift and the speed-up of a repeated request fall on both sides of the
    overhead ratio alike."""
    tracer = tracing.Tracer()
    block_s = seconds / 2 / TRACE_BLOCKS
    wall = {False: 0.0, True: 0.0}
    done = block = 0
    while wall[False] < seconds / 2:
        count = None
        for traced in (False, True) if block % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                latencies, _, w = closed_loop(wl, outcomes, done, seconds=block_s,
                                              requests=count, tracer=tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            count = len(latencies)
            wall[traced] += w
        done += count
        block += 1
    return {
        "requests": done,
        "plain_wall_s": wall[False],
        "traced_wall_s": wall[True],
        "calls": dict(tracer.calls),
        "self_s": tracer.self_times(),
        "counts": dict(tracer.counts),
    }


def percentile(values, p: float) -> float:
    """The p-th percentile (0 < p < 100, in steps of 0.1), interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def peak_rss_mb(wl) -> float:
    return resource.getrusage(getattr(wl, "rusage_who", resource.RUSAGE_SELF)).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    outcomes = Outcomes()
    out = {"numpy": numpy.__version__}
    if args.trace == 0:
        raw, scales, wall = closed_loop(wl, outcomes, seconds=args.seconds,
                                         calibrate=getattr(wl, "calibrated", True))
        latencies = [t * f for t, f in zip(raw, scales)]
        units = sum(wl.units(wl.inputs[i % len(wl.inputs)]) for i in range(len(raw)))
        tail = percentile(latencies, wl.tail_percentile)
        out.update(
            work_per_s=units / sum(latencies),
            latency_p50_ms=statistics.median(latencies) * 1e3,
            latency_tail_ms=tail * 1e3,
            peak_rss_mb=peak_rss_mb(wl),
            tail_percentile=wl.tail_percentile,
            samples_beyond_tail=sum(x > tail for x in latencies),
            measured_work_per_s=units / sum(raw),
            measured_latency_p50_ms=statistics.median(raw) * 1e3,
            latency_scale=[min(scales), statistics.median(scales), max(scales)],
            wall_s=wall,
        )
    else:
        out.update(traced_run(wl, outcomes, args.seconds))
    failed = outcomes.check(wl, args.seed)
    out.update(attempted=outcomes.attempted, failed=failed,
               failures=outcomes.failures[:MAX_REPORTED_FAILURES])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
