"""tin-gdof benchmark: one run of one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository; it builds nothing and
imports the program from ``src``.  The workload runs in a fresh worker
process (``worker.py``) with one client and one thread.  With ``--trace 0``
the run reports the end-to-end metrics listed in ``BENCHMARK.json``; with
``--trace 1`` the per-layer ones.  The last line of standard output is the
result, ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the seed, the environment and the run's details.  Without the
repository next to it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups timed in a --trace 0 run: this many set-up-only workers, then the
#: measured one.  setup_s is their median.
SETUP_ONLY_RUNS = 4
#: ``python -X importtime -c "import tin_gdof.cli"`` runs in a --trace 1 run.
IMPORT_PROBES = 3
#: A worker still running after this long is killed and the run fails.
WORKER_TIMEOUT_S = 150


class RunFailed(Exception):
    pass


def worker(args: list[str], env: dict) -> tuple[float, str]:
    """Run worker.py; return the seconds until its ``ready`` line and the
    rest of its standard output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise RunFailed(f"worker {' '.join(args)} exited with code {code}")
    return setup_s, rest


def import_ms(env: dict) -> tuple[float, float]:
    """Cumulative import times of ``tin_gdof.cli`` and of numpy, in ms."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import tin_gdof.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e3)
    return cumulative["tin_gdof.cli"], cumulative["numpy"]


def layer_metric(name: str, run: dict, imports: list[tuple[float, float]]) -> float:
    """Value of one per-layer metric from a traced worker's raw measurements.

    ``<layer>.<function>.calls``, ``.self_s`` and counters such as ``.rows``
    are per request of the traced pass; ``cli.<subcommand>.ms`` is the mean
    wall time of one invocation.
    """
    calls, self_s, counts = run["calls"], run["self_s"], run["counts"]
    if name == "cli.import_ms":
        return statistics.median(i for i, _ in imports)
    if name == "cli.numpy_import_ms":
        return statistics.median(n for _, n in imports)
    if name == "trace.overhead_frac":
        return run["traced_wall_s"] / run["plain_wall_s"] - 1
    if name == "trace.coverage_frac":
        return sum(self_s.values()) / run["traced_wall_s"]
    if name == "potential.feasible_ratio":
        tests = calls.get("potential.feasible_by_negative_cycle", 0)
        feasible = counts.get("potential.feasible_by_negative_cycle.feasible", 0)
        return feasible / tests if tests else 0.0
    span, _, kind = name.rpartition(".")
    if kind == "ms":
        return 1e3 * self_s[span] / calls[span] if calls.get(span) else 0.0
    if kind == "calls":
        return calls.get(span, 0) / run["requests"]
    if kind == "self_s":
        return self_s.get(span, 0.0) / run["requests"]
    return counts.get(name, 0) / run["requests"]


def environment(seed: int, numpy_version: str) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tin_gdof" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a checkout of tin-gdof (src/tin_gdof or BENCHMARK.json "
              "is missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    src = str(ROOT / "src")
    # One BLAS thread, as the client has one: numpy's OpenBLAS otherwise
    # starts a thread per CPU at import, in the worker and in every cli child.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace == 0:
            setups = [worker(worker_args + ["--setup-only"], env)[0]
                      for _ in range(SETUP_ONLY_RUNS)]
            setup_s, out = worker(worker_args, env)
            run = json.loads(out.splitlines()[-1])
            run["setup_s"] = statistics.median(setups + [setup_s])
            names = spec["end_to_end"]
            values = {m["name"]: run[m["name"]] for m in names}
        else:
            _, out = worker(worker_args, env)
            run = json.loads(out.splitlines()[-1])
            imports = [import_ms(env) for _ in range(IMPORT_PROBES)]
            names = spec["per_layer"]
            values = {m["name"]: layer_metric(m["name"], run, imports) for m in names}
    except (RunFailed, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload} run failed: {exc!r}", file=sys.stderr)
        return 1

    raw = set(values) | {"calls", "self_s", "counts", "numpy"}
    details = {k: v for k, v in run.items() if k not in raw}
    print(json.dumps({"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                      "environment": environment(args.seed, run["numpy"]), **details}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
