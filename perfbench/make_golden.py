"""Record the exact results of every workload's inputs for the default seed.

    PYTHONPATH=src python3 perfbench/make_golden.py

Writes ``perfbench/golden.json``.  A run with the default seed compares the
first result of each input against it; rerun this only when a result is
meant to change, and say why in the change.
"""

from __future__ import annotations

import json

import worker
import workloads


def main() -> None:
    recorded = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        summaries = []
        for item in wl.inputs:
            result = wl.request(item)
            wl.verify(item, result)
            summaries.append(wl.summary(item, result))
        recorded[name] = summaries
        print(f"{name}: {len(summaries)} inputs")
    worker.GOLDEN.write_text(
        json.dumps({"seed": workloads.DEFAULT_SEED, "workloads": recorded}, indent=1) + "\n"
    )


if __name__ == "__main__":
    main()
