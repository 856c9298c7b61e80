"""Record the benchmark's baseline into ``benchmarks/e2e/baseline.json``.

Per workload: two sets of five untraced runs at seed 1 (values, median and
quartiles of every end-to-end metric), one untraced run at the held-out
seed 2, one traced run at seed 1 (the per-layer metrics), and the host the
runs were made on.  Takes about 15 minutes on a 2-core VM.

    python3 benchmarks/e2e/baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUNS_PER_SET = 5


def measure(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}, seed {seed}: the run failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "values": values}
    return out


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline: dict = {
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "machine": platform.machine()},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[measure(workload, 1, 0) for _ in range(RUNS_PER_SET)] for _ in range(2)]
        baseline["workloads"][workload] = {
            "seed_1": [summarise(runs) for runs in sets],
            "seed_2": measure(workload, 2, 0),
            "traced_seed_1": measure(workload, 1, 1),
        }
        print(f"{workload}: recorded", file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
