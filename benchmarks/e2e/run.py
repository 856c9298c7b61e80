"""End-to-end, layer-by-layer benchmark of the coprocessor framework.

Runs each workload through the public ``Session`` API on the default
backend (event kernel plus time wheel) and on ``backend="compiled"``, each
in its own fresh subprocess (``worker.py``), one after the other.  Every
request is checked against a Python oracle, and both backends must agree
cycle for cycle.  Prints one record per metric,
``{"workload", "layer", "metric", "unit", "value"}``, and as the last line
one result object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.

    python3 benchmarks/e2e/run.py --workload scalar_rt --seed 1 --seconds 10
    python3 benchmarks/e2e/run.py --trace 1 --trace-out benchmarks/e2e/out/trace.json

Exits 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import chrome_events

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

BACKENDS = (None, "compiled")
#: wall-clock allowance for one workload, both backends included
DEADLINE_S = 170.0
DEFAULT_SECONDS = 10

#: (name, unit, layer); unsuffixed names are the default backend,
#: ``.compiled`` the compiled one
END_TO_END = (
    ("ops_per_s", "ops/s", "e2e"),
    ("ops_per_s.compiled", "ops/s", "e2e"),
    ("setup_s", "s", "e2e"),
    ("setup_s.compiled", "s", "e2e"),
    ("peak_rss_mb", "MB", "e2e"),
    ("peak_rss_mb.compiled", "MB", "e2e"),
    ("sim_cycles_per_op", "cycles", "e2e"),
)

#: per-layer metrics measured on both backends (the rest come from the
#: default backend, except COMPILED_ONLY, which exist only there)
PER_BACKEND = (
    "hdl.settle_s", "hdl.edge_s", "hdl.ff_scan_s", "hdl.us_per_edge",
    "hdl.settle_iterations_per_cycle", "hdl.activations", "hdl.edge_calls",
    "hdl.skipped_frac", "hdl.wheel_jumps",
    "host.self_s", "host.pump_chunks", "host.self_us_per_chunk",
    "messages.frame_s", "messages.deframe_s", "link.host_port_s",
    "setup.build_s", "setup.lint_s", "setup.first_op_s", "setup.cold_s",
    "session.op_ms.p50", "session.op_ms.tail", "session.op_samples",
    "session.host_speed", "trace.overhead_frac",
)
COMPILED_ONLY = ("hdl.compiled_procs", "hdl.fallback_procs", "hdl.vectorized_cells",
                 "setup.compile_ms")

#: name → unit for every per-layer metric
LAYER_UNITS = {
    "hdl.settle_s": "s", "hdl.edge_s": "s", "hdl.ff_scan_s": "s",
    "hdl.us_per_edge": "us", "hdl.settle_iterations_per_cycle": "iter/cycle",
    "hdl.activations": "count", "hdl.edge_calls": "count",
    "hdl.skipped_frac": "frac", "hdl.wheel_jumps": "count",
    "hdl.compiled_procs": "count", "hdl.fallback_procs": "count",
    "hdl.vectorized_cells": "count",
    "host.self_s": "s", "host.pump_chunks": "count", "host.self_us_per_chunk": "us",
    "host.batches": "count", "host.words_sent": "count", "host.window_stalls": "count",
    "host.in_flight_highwater": "count", "host.retransmits": "count",
    "host.nacks": "count", "host.deadline_expiries": "count",
    "host.degrade_entries": "count",
    "messages.frame_s": "s", "messages.deframe_s": "s", "messages.goodput_frac": "frac",
    "messages.rtm_crc_failures": "count", "messages.rtm_nacks_sent": "count",
    "messages.words_dropped": "count", "messages.bits_flipped": "count",
    "link.host_port_s": "s",
    "rtm.dispatches_per_op": "count", "rtm.stall_cycles": "cycles",
    "rtm.ipc": "ops/cycle", "rtm.stall_raw": "cycles", "rtm.stall_waw": "cycles",
    "rtm.stall_structural": "cycles", "rtm.stall_fence": "cycles",
    "rtm.stall_rename": "cycles", "rtm.window_occupancy_max": "count",
    "setup.build_s": "s", "setup.lint_s": "s", "setup.compile_ms": "ms",
    "setup.first_op_s": "s", "setup.cold_s": "s",
    "session.op_ms.p50": "ms", "session.op_ms.tail": "ms", "session.op_samples": "count",
    "session.host_speed": "frac", "trace.overhead_frac": "frac",
}


def per_layer_names() -> list[str]:
    names = []
    for name in LAYER_UNITS:
        names.append(name)
        if name in PER_BACKEND:
            names.append(name + ".compiled")
    return names


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.removesuffix(".compiled")]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class BenchmarkError(RuntimeError):
    """A worker failed to produce a measurement."""


def run_backend(spec: dict, timeout: float) -> dict:
    """Run one worker process to completion and return its measurement."""
    env = dict(os.environ, OMP_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT, env=env,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"{spec['workload']} on {spec['backend'] or 'event'} "
                             f"did not finish within {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{spec['workload']} on {spec['backend'] or 'event'} "
                             f"exited with code {proc.returncode}")
    return json.loads(lines[-1])


def cross_check(workload: str, event: dict, compiled: dict) -> list[str]:
    """Simulated behaviour must be identical on both backends."""
    errors = []
    for i, (a, b) in enumerate(zip(event["cycles"], compiled["cycles"])):
        if a != b:
            errors.append(f"{workload}: request {i} ended at cycle {b} on compiled, "
                          f"expected {a} (event)")
            break
    for key, value in event["counters"].items():
        if key.startswith(("engine.", "issue.", "faults.", "rx.")) or key == "dispatches":
            if compiled["counters"].get(key) != value:
                errors.append(f"{workload}: counter {key} is {compiled['counters'].get(key)} "
                              f"on compiled, expected {value} (event)")
    return errors


def tail_ms(latencies: list[float]) -> float:
    """The highest of p99/p90 with at least ten samples beyond it, else p50."""
    n = len(latencies)
    if n >= 1000:
        return statistics.quantiles(latencies, n=100)[98]
    if n >= 100:
        return statistics.quantiles(latencies, n=10)[8]
    return statistics.median(latencies)


def layer_values(out: dict) -> dict:
    """Per-layer metrics of one backend's run (needs its traced phase)."""
    traced = out["traced"]
    spans = traced["spans"]
    c = traced["counters"]

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    settle, edge, host = self_s("hdl.settle"), self_s("hdl.edge"), self_s("host.request")
    edges = c["kernel.edge_calls"]
    chunks = spans.get("hdl.edge", {}).get("count", 0)
    cycles = c["cycles"]
    lat = out["latencies_ms"]
    return {
        "hdl.settle_s": settle,
        "hdl.edge_s": edge,
        "hdl.ff_scan_s": self_s("hdl.ff_scan"),
        "hdl.us_per_edge": (settle + edge) / edges * 1e6 if edges else 0.0,
        "hdl.settle_iterations_per_cycle": c["kernel.settle_iterations"] / cycles,
        "hdl.activations": c["kernel.activations"],
        "hdl.edge_calls": edges,
        "hdl.skipped_frac": c["kernel.skipped_cycles"] / cycles,
        "hdl.wheel_jumps": c["kernel.wheel_jumps"],
        "hdl.compiled_procs": c["kernel.compiled_procs"],
        "hdl.fallback_procs": c["kernel.fallback_procs"],
        "hdl.vectorized_cells": c["kernel.vectorized_cells"],
        "host.self_s": host,
        "host.pump_chunks": chunks,
        "host.self_us_per_chunk": host / chunks * 1e6 if chunks else 0.0,
        "host.batches": c["engine.batches"],
        "host.words_sent": c["engine.words_sent"],
        "host.window_stalls": c["engine.window_stalls"],
        "host.in_flight_highwater": c["engine.in_flight_highwater"],
        "host.retransmits": c["engine.retransmits"],
        "host.nacks": c["engine.nacks"],
        "host.deadline_expiries": c["engine.deadline_expiries"],
        "host.degrade_entries": c["engine.degrade_entries"],
        "messages.frame_s": self_s("messages.frame"),
        "messages.deframe_s": self_s("messages.deframe"),
        "messages.goodput_frac": 1 - c["engine.retransmitted_words"] / c["engine.words_sent"],
        "messages.rtm_crc_failures": c["rx.crc_failures"],
        "messages.rtm_nacks_sent": c["rx.nacks_sent"],
        "messages.words_dropped": c["faults.words_dropped"],
        "messages.bits_flipped": c["faults.bits_flipped"],
        "link.host_port_s": self_s("link.host_port"),
        "rtm.dispatches_per_op": c["dispatches"] / out["prefix_ops"],
        "rtm.stall_cycles": c.get("issue.stall_cycles", 0),
        "rtm.ipc": c.get("issue.issued_total", 0) / cycles,
        "rtm.stall_raw": c.get("issue.stall_raw", 0),
        "rtm.stall_waw": c.get("issue.stall_waw", 0),
        "rtm.stall_structural": c.get("issue.stall_structural", 0),
        "rtm.stall_fence": c.get("issue.stall_fence", 0),
        "rtm.stall_rename": c.get("issue.stall_rename", 0),
        "rtm.window_occupancy_max": c.get("issue.window_occupancy_max", 0),
        "setup.build_s": out["setup"]["build_s"],
        "setup.lint_s": out["setup"]["lint_s"],
        "setup.compile_ms": out["setup"]["compile_ms"],
        "setup.first_op_s": out["setup"]["first_op_s"],
        "setup.cold_s": out["setup"]["cold_s"],
        "session.op_ms.p50": statistics.median(lat),
        "session.op_ms.tail": tail_ms(lat),
        "session.op_samples": len(lat),
        "session.host_speed": out["host_speed"],
        "trace.overhead_frac": 1 - traced["ops_per_s"] / out["ops_per_s"],
    }


def check_wall_split(workload: str, out: dict) -> list[str]:
    """Layer self times must add up to the traced wall time within 2%."""
    traced = out["traced"]
    covered = sum(s["self_s"] for name, s in traced["spans"].items()
                  if not name.startswith("setup."))
    wall = traced["wall_s"]
    if abs(covered - wall) > 0.02 * wall:
        return [f"{workload}: layer self times on {out['backend']} sum to "
                f"{covered:.4f} s, traced wall time is {wall:.4f} s"]
    return []


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, keep_events: bool = False) -> tuple:
    """Measure one workload on both backends; returns (records, result, outputs)."""
    start = time.monotonic()
    outputs = {}
    for backend in BACKENDS:
        spec = {"workload": name, "seed": seed, "backend": backend,
                "seconds": seconds / len(BACKENDS), "trace": trace,
                "quick": quick, "keep_events": keep_events}
        out = run_backend(spec, max(1.0, DEADLINE_S - (time.monotonic() - start)))
        outputs[out["backend"]] = out
    event, compiled = outputs["event"], outputs["compiled"]

    errors = event["errors"] + compiled["errors"]
    errors += cross_check(name, event, compiled)
    if event["cycles_per_op"] != compiled["cycles_per_op"]:
        errors.append(f"{name}: sim_cycles_per_op is {compiled['cycles_per_op']} on "
                      f"compiled, expected {event['cycles_per_op']} (event)")
    attempted = event["attempted_ops"] + compiled["attempted_ops"]
    failed = event["failed_ops"] + compiled["failed_ops"]

    values = {
        "ops_per_s": event["ops_per_s"],
        "ops_per_s.compiled": compiled["ops_per_s"],
        "setup_s": event["setup"]["setup_s"],
        "setup_s.compiled": compiled["setup"]["setup_s"],
        "peak_rss_mb": event["rss_mb"],
        "peak_rss_mb.compiled": compiled["rss_mb"],
        "sim_cycles_per_op": event["cycles_per_op"],
    }
    records = [{"workload": name, "layer": layer, "metric": metric, "unit": unit,
                "value": values[metric]} for metric, unit, layer in END_TO_END]
    records.append({"workload": name, "layer": "e2e", "metric": "failed_frac",
                    "unit": "frac", "value": failed / max(1, attempted)})
    reported = END_TO_END
    if trace:
        if event["traced"] is None or compiled["traced"] is None:
            raise BenchmarkError(f"{name}: the link went down, no traced phase ran")
        errors += check_wall_split(name, event) + check_wall_split(name, compiled)
        per_event, per_compiled = layer_values(event), layer_values(compiled)
        values = {}
        for metric in per_layer_names():
            base = metric.removesuffix(".compiled")
            source = per_compiled if metric != base or base in COMPILED_ONLY else per_event
            values[metric] = source[base]
        reported = tuple((metric, layer_unit(metric), layer_of(metric)) for metric in values)
        records += [{"workload": name, "layer": layer, "metric": metric, "unit": unit,
                     "value": values[metric]} for metric, unit, layer in reported]
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit, _layer in reported},
    }
    for message in errors:
        print(message, file=sys.stderr)
    return records, result, outputs


def write_chrome_trace(path: str, outputs: list[tuple[str, dict]]) -> None:
    events: list[dict] = []
    for pid, (label, out) in enumerate(outputs, start=1):
        raw = out["events"]
        origin = min((e[1] for e in raw), default=0.0)
        events += chrome_events(raw, pid, label, origin)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per workload, split between the backends")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: repeat the prefix with every layer wrapped and "
                             "report the per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="with --trace, write the raw spans of the first 20 requests "
                             "of each (workload, backend) as Chrome trace-event JSON")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    keep_events = bool(args.trace and args.trace_out)
    results = {}
    traces = []
    for name in names:
        try:
            records, result, outputs = run_workload(
                name, args.seed, args.seconds, bool(args.trace), keep_events=keep_events)
        except BenchmarkError as err:
            print(f"run.py: {err}", file=sys.stderr)
            return 1
        for record in records:
            print(json.dumps(record))
        results[name] = result
        traces += [(f"{name} {label}", out) for label, out in outputs.items()]
    if keep_events:
        write_chrome_trace(args.trace_out, traces)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
