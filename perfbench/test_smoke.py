"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs for one second, untraced and traced, with the default
seed, so its outputs are also compared with the recorded ones.  The test
asserts that every metric named in BENCHMARK.json is printed with its unit
and that every output check passed.  It also asserts that the benchmark
refuses to run without the repository next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = "1"


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", DEFAULT_SEED,
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_every_check_passes(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace == 0:
        assert all(v > 0 for v in values)
    details = json.loads(proc.stdout.splitlines()[-2])
    assert details["environment"]["seed"] == int(DEFAULT_SEED)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "cli", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_one_disturbed_reference_timing_does_not_move_the_scale():
    sys.path.insert(0, str(HERE))
    import calibration

    nominal = calibration.REFERENCE_S
    refs = [nominal, 3 * nominal, nominal, nominal, nominal, nominal / 2, nominal]
    ends = [0, 1, 3, 4, 6, 7, 9]
    assert calibration.scales(refs, ends) == [1.0] * 9
    assert calibration.scales([nominal / 2] * 3, [0, 2, 5]) == [2.0] * 5
