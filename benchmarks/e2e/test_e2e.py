"""Self-test of the end-to-end benchmark harness.

Every workload runs a few requests per backend (``quick=True``: three
one-request segments and a single timed set-up), so the test checks the
harness, not the host's speed.  Collected by ``pytest benchmarks``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest
import run
from worker import ClosedLoop
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def quick(request):
    """One traced quick run of a workload: (name, records, result, outputs)."""
    records, result, outputs = run.run_workload(
        request.param, seed=1, seconds=0.0, trace=True, quick=True)
    return request.param, records, result, outputs


def benchmark_metrics() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def test_every_benchmark_metric_is_emitted_with_its_unit(quick):
    name, records, result, _outputs = quick
    assert result["correct"], name
    assert result["failed"] == 0
    emitted = {r["metric"]: r["unit"] for r in records}
    for metric, unit in benchmark_metrics().items():
        assert emitted.get(metric) == unit, f"{name}: {metric} missing or not in {unit}"
    assert all(NAME.fullmatch(r["metric"]) for r in records)
    assert all(NAME.fullmatch(m) for m in benchmark_metrics())


def test_traced_result_line_carries_the_per_layer_metrics(quick):
    _name, _records, result, _outputs = quick
    per_layer = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in per_layer}


def test_cycles_match_the_exhaustive_reference_kernel(quick):
    name, _records, _result, outputs = quick
    spec = {"workload": name, "seed": 1, "backend": "exhaustive", "seconds": 0.0,
            "trace": False, "quick": True, "keep_events": False}
    reference = run.run_backend(spec, timeout=run.DEADLINE_S)
    assert not reference["errors"]
    for label in ("event", "compiled"):
        assert outputs[label]["cycles"] == reference["cycles"], label


def test_checker_flags_a_wrong_answer():
    scalar = WORKLOADS["scalar_rt"]

    class WrongAnswer(type(scalar)):
        def execute(self, client, session, req):
            return super().execute(client, session, req) ^ 1

    loop = ClosedLoop(WrongAnswer(), 1, None)
    loop.open(scalar.build(None))
    loop.step()
    loop.step()
    assert loop.failed == 2
    assert loop.errors[1].startswith("scalar_rt: request 1 on event returned ")
    assert "expected" in loop.errors[1]


def test_cross_check_names_the_first_diverging_request():
    event = {"cycles": [10, 36, 62], "counters": {"engine.batches": 4}}
    compiled = {"cycles": [10, 36, 63], "counters": {"engine.batches": 5}}
    errors = run.cross_check("scalar_rt", event, compiled)
    assert errors == [
        "scalar_rt: request 2 ended at cycle 63 on compiled, expected 62 (event)",
        "scalar_rt: counter engine.batches is 5 on compiled, expected 4 (event)",
    ]


def test_fails_without_the_program(tmp_path):
    """Beside only its own files, the benchmark exits non-zero, no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "scalar_rt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ruff_is_clean():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed")
    proc = subprocess.run([ruff, "check", "benchmarks"], cwd=run.ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
