"""Experiment C2-OoO — out-of-order issue vs the in-order scoreboard.

The ablation the OoO engine was built for: the same pipelined FP workload
as two instruction streams —

* **independent** — ``fadd`` ops over disjoint destination registers, all
  sharing the default destination flag.  The in-order dispatcher
  serializes on the WAW flag hazard at one result per pipeline latency;
  renaming dissolves the hazard and the machine runs at the link's
  instruction arrival rate.
* **chained** — a single ``fmadd`` accumulator chain (every op reads and
  writes r3).  A true dependency chain: renaming can't help, and the
  criterion is that it doesn't *hurt* (≤ 5% cycle regression).

Both streams run on the in-order and the OoO machine across all three
simulation backends.  CPU-side GET results are asserted identical in
every configuration, and simulated cycle counts are asserted identical
across backends (the backends are one machine, differently scheduled).

Deeper-than-default FP pipelines (10/11/12 stages) stand in for real FPU
latency; the functional-unit table's ``latency`` column picks the depths
up automatically.  Results are recorded in ``BENCH_issue.json``.
``--quick`` shortens the streams (CI smoke).
"""

import struct

import pytest

from conftest import report
from repro.analysis import format_table
from repro.analysis.counters import counters_for
from repro.fu.registry import default_registry, fp_registry
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.system import build_system

#: deep FP pipelines: the latency source that makes issue order matter
DEPTHS = {"add_depth": 10, "mul_depth": 11, "fma_depth": 12}

BACKENDS = {
    "event": {},
    "event+wheel-off": {"wheel": False},
    "compiled": {"backend": "compiled"},
}


def f32(x: float) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


def _program(stream: str, n: int):
    prog = [ins.loadi(1, f32(1.5)), ins.loadi(2, f32(0.25))]
    if stream == "independent":
        prog += [ins.fadd(3 + (i % 8), 1, 2) for i in range(n)]
        prog += [ins.get(3 + i, tag=i) for i in range(8)]
    else:  # chained: every fmadd reads and writes the r3 accumulator
        prog += [ins.loadi(3, f32(1.0))]
        prog += [ins.fmadd(3, 1, 2) for i in range(n)]
        prog += [ins.get(3, tag=0)]
    return prog


def _run(stream: str, n: int, ooo: bool, backend_kwargs: dict):
    built = build_system(registry=fp_registry(default_registry(), **DEPTHS),
                         ooo=ooo, lint="off", **backend_kwargs)
    drv = CoprocessorDriver(built)
    program = _program(stream, n)
    n_gets = sum(1 for i in program if i.opcode == ins.get(0).opcode)
    for instr in program:
        drv.execute(instr)
    msgs = drv.wait_for(n_gets)
    drv.run_until_quiet()
    counters = counters_for(built, drv)
    return {
        "cycles": drv.cycles,
        "results": [(m.tag, m.value) for m in msgs],
        "ipc": round(counters.ipc, 3),
        "issue": counters.issue,
    }


@pytest.fixture
def n_ops(request) -> int:
    return 24 if request.config.getoption("--quick") else 256


def test_c2_ooo_ablation(benchmark, n_ops, request):
    quick = request.config.getoption("--quick")

    def run():
        out = {}
        for stream in ("independent", "chained"):
            for mode, ooo in (("in-order", False), ("ooo", True)):
                per_backend = {
                    name: _run(stream, n_ops, ooo, kwargs)
                    for name, kwargs in BACKENDS.items()
                }
                baseline = per_backend["event"]
                for name, res in per_backend.items():
                    assert res["results"] == baseline["results"], (
                        f"{stream}/{mode}: {name} diverged from event")
                    assert res["cycles"] == baseline["cycles"], (
                        f"{stream}/{mode}: {name} cycle count diverged")
                out[(stream, mode)] = baseline
            assert (
                out[(stream, "ooo")]["results"]
                == out[(stream, "in-order")]["results"]
            ), f"{stream}: renaming changed the host-visible results"
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)

    indep_speedup = (
        out[("independent", "in-order")]["cycles"]
        / out[("independent", "ooo")]["cycles"]
    )
    chained_ratio = (
        out[("chained", "ooo")]["cycles"]
        / out[("chained", "in-order")]["cycles"]
    )

    rows = []
    for (stream, mode), res in out.items():
        stats = res["issue"]
        rows.append([
            stream, mode, res["cycles"],
            round(res["cycles"] / n_ops, 2), res["ipc"],
            stats.get("stall_raw", 0), stats.get("stall_waw", 0),
            stats.get("window_occupancy_max", 1),
        ])
    report(
        f"C2-OoO: issue ablation ({n_ops} FP ops, pipeline depths "
        f"{DEPTHS['add_depth']}/{DEPTHS['mul_depth']}/{DEPTHS['fma_depth']})",
        format_table(
            ["stream", "issue", "cycles", "cyc/op", "ipc",
             "raw stalls", "waw stalls", "window max"],
            rows,
            title=f"independent speedup {indep_speedup:.2f}x, "
                  f"chained ooo/in-order {chained_ratio:.3f}",
        ),
    )

    # acceptance: ≥2x on the independent stream (full workload; the quick
    # smoke run is too short to amortize pipeline fill), ≤5% chained cost
    if not quick:
        assert indep_speedup >= 2.0, (
            f"OoO speedup {indep_speedup:.2f}x < 2x on independent stream")
    else:
        assert indep_speedup > 1.0
    assert chained_ratio <= 1.05, (
        f"renaming slowed the dependency chain by {chained_ratio:.3f}x")
