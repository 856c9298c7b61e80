"""Experiment K — settle scheduling, time-wheel fast-forward and the
compiled backend vs the exhaustive reference kernel.

Measures simulation throughput (simulated cycles per host second) across
four kernel modes — the exhaustive reference, the event-driven settle
scheduler with the time wheel off, the full interpreted kernel with
cycle-skipping fast-forward, and the compiled (codegen) backend — on the
designs the paper actually exercises:

* the fig. 4 RTM pipeline under four deployment scenarios —
  back-to-back instruction streaming over the integrated link (the
  kernel's worst case: every stage busy every cycle), the paper's serial
  prototype link (words arrive every 256 cycles, the pipeline mostly
  waits), a latency-dominated serial-prototype round trip with host
  think-time (the wheel's home turf: almost every cycle is a certified
  countdown), and the offload duty cycle of the paper's usage model
  (bursts of work followed by host think-time);
* the A2 ξ-sort cell-scaling design (structural array, event-tracked
  cells);
* the out-of-order issue engine on a 32-op FP burst (full rename window,
  pipelined FP units, busy write arbiter) — the scenario where the
  compiled backend's read-tracked slot for the unprovable issue process
  must keep its activations equal to the event kernel's;
* a dense-logic scaling point: a fully structural 1024-cell ξ-sort array
  driven directly (no RTM), where every cycle touches every cell — the
  regular SIMD structure the compiled backend's vectorized executors
  target.  The exhaustive kernel is excluded from this scenario only
  because it needs minutes per round at this size; its equivalence on
  ξ-sort designs is pinned by the property suite at smaller sizes.

Every scenario asserts all measured modes agree on the exact cycle count
— the kernels must be indistinguishable at the waveform level (the
property suites additionally pin VCD-byte equality).  Acceptance: the
event scheduler clears ≥ 3× over exhaustive on the offload scenario, the
time wheel clears ≥ 5× over the wheel-off event kernel on the
serial-prototype scenarios without regressing the saturated stream, and
the compiled backend clears ≥ 8× over the interpreted event kernel on
the dense cell array without regressing the wheel-dominated scenarios.

``--quick`` (also via ``python benchmarks/bench_kernel_settle.py
--quick``) runs a single round per mode — the CI smoke setting that keeps
the script (compiled mode included) from bitrotting without paying for
stable timings.
"""

from __future__ import annotations

import struct
import time

import pytest

from conftest import report
from repro.analysis import counters_for, format_table, make_system
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.messages.channel import INTEGRATED, SLOW_PROTOTYPE
from repro.system import build_system

BURST = 48            # instructions per offload burst
THINK_CYCLES = 3000   # host-side gap between bursts (offload scenario)
SERIAL_THINK = 30000  # host think-time on the serial prototype (idle scenario)
DENSE_CELLS = 1024    # dense-logic scaling point (structural array)
FP_BURST = 32         # FP instructions per out-of-order burst

#: kernel modes under comparison
MODES = {
    "exhaustive": {"backend": "exhaustive", "wheel": False},
    "event": {"backend": "event", "wheel": False},
    "event+wheel": {"backend": "event", "wheel": True},
    "compiled": {"backend": "compiled", "wheel": True},
}

ALL_MODES = tuple(MODES)
#: the exhaustive kernel needs minutes per round on the 1024-cell array
DENSE_MODES = ("event", "event+wheel", "compiled")


def _rtm_workload(mode: dict, channel, idle_cycles: int = 0, burst: int = BURST):
    """One offload round on the fig. 4 pipeline; returns (cycles, seconds)."""
    system = make_system(channel=channel, **mode)
    driver = CoprocessorDriver(system)
    driver.write_reg(1, 3)
    driver.write_reg(2, 5)
    driver.run_until_quiet()
    start = system.sim.now
    t0 = time.perf_counter()
    for i in range(burst):
        driver.execute(ins.add(3 + i % 4, 1, 2, dst_flag=1))
    driver.execute(ins.fence())
    driver.run_until_quiet()
    if idle_cycles:
        system.sim.step(idle_cycles)
    elapsed = time.perf_counter() - t0
    return system.sim.now - start, elapsed, system.sim


def _serial_idle_workload(mode: dict):
    """Latency-dominated round trip on the paper's own deployment: a short
    burst over the 256-cycles/word serial link, host think-time, then a
    synchronous read-back.  Nearly every simulated cycle is a link
    countdown or pure idle — the operating point §III describes."""
    system = make_system(channel=SLOW_PROTOTYPE, **mode)
    driver = CoprocessorDriver(system)
    driver.write_reg(1, 3)
    driver.write_reg(2, 5)
    driver.run_until_quiet()
    start = system.sim.now
    t0 = time.perf_counter()
    driver.execute(ins.add(3, 1, 2, dst_flag=1))
    driver.run_until_quiet()
    system.sim.step(SERIAL_THINK)
    assert driver.read_reg(3) == 8
    driver.run_until_quiet()
    elapsed = time.perf_counter() - t0
    return system.sim.now - start, elapsed, system.sim


def _ooo_fp_workload(mode: dict, burst: int = FP_BURST):
    """One burst of FP ops on the out-of-order issue engine.

    Four source registers feed ``burst`` fadd/fmul/fmadd ops rotating over
    eight destinations, so the rename window fills and the pipelined FP
    units and write arbiter stay busy.
    """
    system = build_system(ooo=True, fp_units=True, lint="off", **mode)
    driver = CoprocessorDriver(system)
    for reg, x in zip((1, 2, 3, 4), (0.5, 1.25, -2.0, 3.0)):
        driver.write_reg(reg, struct.unpack("<I", struct.pack("<f", x))[0])
    driver.run_until_quiet()
    make = (ins.fadd, ins.fmul, ins.fmadd)
    start = system.sim.now
    t0 = time.perf_counter()
    for i in range(burst):
        driver.execute(make[i % 3](8 + i % 8, 1 + i % 4, 1 + (3 * i) % 4))
    driver.execute(ins.fence())
    driver.run_until_quiet()
    elapsed = time.perf_counter() - t0
    return system.sim.now - start, elapsed, system.sim


def _xisort_workload(mode: dict, n_cells: int = 16):
    """A2 cell-scaling: sort through the full framework; (cycles, seconds)."""
    import random

    from repro.host.session import Session
    from repro.xisort import XiSortAccelerator

    system = make_system(xisort_cells=n_cells, **mode)
    session = Session(system)
    acc = XiSortAccelerator(session)
    values = random.Random(7).sample(range(1 << 16), n_cells)
    start = session.driver.cycles
    t0 = time.perf_counter()
    out = acc.sort(values)
    elapsed = time.perf_counter() - t0
    assert out == sorted(values)
    return session.driver.cycles - start, elapsed, system.sim


def _xisort_dense_workload(mode: dict, n_cells: int = DENSE_CELLS):
    """Dense-logic scaling: a bare structural 1k-cell array, driven direct.

    Every LOAD/SELECT/MATCH command touches every cell the same cycle —
    the SIMD-regular structure §IV's smart-memory units are built from,
    and the workload the vectorized cell-array executors exist for.
    """
    import random

    from repro.xisort import DirectXiSortMachine

    values = random.Random(7).sample(range(1 << 16), 48)
    machine = DirectXiSortMachine(n_cells, array_kind="structural", **mode)
    t0 = time.perf_counter()
    out = machine.sort(values)
    elapsed = time.perf_counter() - t0
    assert out == sorted(values)
    return machine.cycles, elapsed, machine.sim


#: scenario name → (workload, modes measured)
SCENARIOS = {
    "rtm stream (integrated)": (lambda m: _rtm_workload(m, INTEGRATED), ALL_MODES),
    "rtm serial prototype": (lambda m: _rtm_workload(m, SLOW_PROTOTYPE), ALL_MODES),
    "rtm serial prototype idle": (_serial_idle_workload, ALL_MODES),
    "rtm offload duty cycle":
        (lambda m: _rtm_workload(m, INTEGRATED, THINK_CYCLES), ALL_MODES),
    "rtm ooo fp burst": (_ooo_fp_workload, ALL_MODES),
    "a2 xisort cells": (_xisort_workload, ALL_MODES),
    "xisort cells 1k+ (dense)": (_xisort_dense_workload, DENSE_MODES),
}


def _measure(scenario, rounds: int = 3, modes=ALL_MODES):
    """Best-of-N cycles/sec per kernel mode; asserts identical cycle counts."""
    out = {}
    for name in modes:
        best = None
        for _ in range(rounds):
            cycles, elapsed, sim = scenario(MODES[name])
            if best is None or elapsed < best[1]:
                best = (cycles, elapsed, sim)
        out[name] = best
    counts = {name: out[name][0] for name in modes}
    assert len(set(counts.values())) == 1, (
        f"kernels disagree on cycle count: {counts}"
    )
    cycles = counts[modes[0]]

    def speedup(fast, slow):
        if fast not in out or slow not in out:
            return None
        return out[slow][1] / out[fast][1]

    return {
        "cycles": cycles,
        "cps": {name: cycles / t for name, (_, t, _s) in out.items()},
        "event_speedup": speedup("event", "exhaustive"),
        "wheel_speedup": speedup("event+wheel", "event"),
        "compiled_speedup": speedup("compiled", "event"),
        "kernel": out[modes[-1]][2].kernel_stats.as_dict(),
        "wheel_kernel": out["event+wheel"][2].kernel_stats.as_dict(),
    }


@pytest.fixture
def rounds(request) -> int:
    return 1 if request.config.getoption("--quick") else 3


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_kernel_settle_scenario(benchmark, name, rounds):
    scenario, modes = SCENARIOS[name]
    result = benchmark.pedantic(lambda: _measure(scenario, rounds, modes),
                                rounds=1, iterations=1)
    if result["event_speedup"] is not None:
        assert result["event_speedup"] > 1.0
    assert result["compiled_speedup"] is not None  # compiled mode always runs


def test_kernel_settle_report(benchmark, rounds):
    def build():
        return {name: _measure(scenario, rounds, modes)
                for name, (scenario, modes) in SCENARIOS.items()}

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    def fmt(x, pattern="{:.2f}x"):
        return pattern.format(x) if x is not None else "—"

    rows = [
        [name, r["cycles"],
         round(r["cps"]["exhaustive"]) if "exhaustive" in r["cps"] else "—",
         round(r["cps"]["event"]), round(r["cps"]["event+wheel"]),
         round(r["cps"]["compiled"]),
         fmt(r["event_speedup"]), fmt(r["wheel_speedup"]),
         fmt(r["compiled_speedup"])]
        for name, r in results.items()
    ]
    dense = results["xisort cells 1k+ (dense)"]
    k = dense["kernel"]
    ooo = results["rtm ooo fp burst"]
    report(
        "K: settle scheduling + time-wheel + compiled backend vs exhaustive kernel",
        format_table(
            ["scenario", "cycles", "exhaustive cyc/s", "event cyc/s",
             "wheel cyc/s", "compiled cyc/s", "event/exh", "wheel/event",
             "compiled/event"],
            rows,
            title=f"identical cycle counts asserted per scenario; speedups "
                  f"are wall-clock (best of {rounds}); exhaustive omitted "
                  f"on the dense 1k-cell scenario (minutes per round)",
        )
        + "\n"
        + format_table(
            ["kernel counter (dense, compiled)", "value"],
            [[key.replace("_", " "), value] for key, value in k.items()],
        )
        + "\n"
        + format_table(
            ["kernel counter (ooo fp burst)", "event+wheel", "compiled"],
            [[key.replace("_", " "), ooo["wheel_kernel"][key], value]
             for key, value in ooo["kernel"].items()],
        ),
    )
    # Acceptance (event scheduler): ≥ 3× on the representative offload
    # scenario of the fig. 4 RTM pipeline (the paper's usage model).
    duty = results["rtm offload duty cycle"]
    assert duty["event_speedup"] >= 3.0, (
        f"offload speedup {duty['event_speedup']:.2f}x < 3x"
    )
    assert results["rtm serial prototype"]["event_speedup"] >= 2.5
    assert results["rtm stream (integrated)"]["event_speedup"] >= 1.5
    # Acceptance (time wheel): ≥ 5× over the wheel-off event kernel on the
    # idle-dominated serial-prototype scenarios, and the wheel must have
    # actually covered most of the idle scenario in jumps.
    idle = results["rtm serial prototype idle"]
    assert results["rtm serial prototype"]["wheel_speedup"] >= 5.0, (
        f"serial wheel speedup {results['rtm serial prototype']['wheel_speedup']:.2f}x < 5x"
    )
    assert idle["wheel_speedup"] >= 5.0, (
        f"serial idle wheel speedup {idle['wheel_speedup']:.2f}x < 5x"
    )
    wk = idle["wheel_kernel"]
    assert wk["skipped_cycles"] > wk["edge_calls"]
    # No regression where the wheel cannot engage: the saturated stream
    # must stay within measurement noise of the wheel-off kernel.
    assert results["rtm stream (integrated)"]["wheel_speedup"] >= 0.9
    # Acceptance (compiled backend): the dense SIMD-regular array is the
    # target workload — ≥ 8× over the interpreted event kernel, with the
    # vectorized executors actually engaged.
    assert dense["compiled_speedup"] >= 8.0, (
        f"dense compiled speedup {dense['compiled_speedup']:.2f}x < 8x"
    )
    assert k["vectorized_cells"] >= DENSE_CELLS
    # ... and no material regression on the saturated stream, where both
    # kernels are dominated by sequential processes that must run every
    # edge regardless: the wake-driven sweep holds the compiled backend at
    # measured ~0.9x of the event kernel (the interpreted queue and the
    # generated dispatch do the same minimal work; only constant factors
    # differ), with 0.75 as the noise-tolerant floor.
    assert results["rtm stream (integrated)"]["compiled_speedup"] >= 0.75
    assert idle["compiled_speedup"] is not None


#: per-preset ceiling for the whole dataflow pass (build_design + fixpoint);
#: measured ~10 ms locally — the bound is the CI no-regression backstop, not
#: a target
ANALYSIS_BUDGET_MS = 2000.0


def test_dataflow_analysis_per_preset(benchmark):
    """The dataflow verifier's wall-time rider: the abstract-interpretation
    pass runs on every ``build_system(lint=...)`` call, so its cost is part
    of every build — measure it per channel preset and hold the line."""
    from repro.analysis.dataflow import analyze
    from repro.messages.channel import PRESETS
    from repro.system import build_system

    def measure():
        out = {}
        for name in sorted(PRESETS):
            built = build_system(channel=PRESETS[name], lint="off")
            t0 = time.perf_counter()
            res = analyze(built.soc, sim=built.sim)
            out[name] = {
                "wall_ms": (time.perf_counter() - t0) * 1e3,
                "solve_ms": res.wall_ms,
                "tracked": len(res.tracked),
                "rounds": res.rounds,
                "widened": len(res.widened),
            }
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "K rider: dataflow verifier wall-time per preset",
        format_table(
            ["preset", "total ms", "solve ms", "tracked signals",
             "rounds", "widened"],
            [[name, f"{r['wall_ms']:.1f}", f"{r['solve_ms']:.1f}",
              r["tracked"], r["rounds"], r["widened"]]
             for name, r in results.items()],
            title="total = build_design + fixpoint; solve = fixpoint only",
        ),
    )
    for name, r in results.items():
        # the fixpoint must do real proving, converge, and stay cheap
        assert r["tracked"] > 0, f"{name}: nothing tracked"
        assert r["widened"] == 0, f"{name}: {r['widened']} signals widened"
        assert r["wall_ms"] < ANALYSIS_BUDGET_MS, (
            f"{name}: dataflow pass took {r['wall_ms']:.0f} ms "
            f"(budget {ANALYSIS_BUDGET_MS:.0f} ms)"
        )


def test_kernel_counters_surface():
    """counters_for folds scheduler stats into the framework counter report."""
    system = make_system(channel=INTEGRATED, **MODES["event+wheel"])
    driver = CoprocessorDriver(system)
    driver.write_reg(1, 3)
    driver.execute(ins.add(3, 1, 1))
    driver.run_until_quiet()
    rep = counters_for(system)
    assert rep.kernel["settle_calls"] > 0
    assert rep.kernel["activations"] > 0
    assert rep.kernel["tracked_procs"] > 0
    assert rep.settle_activations_per_cycle > 0
    assert "settle scheduler" in rep.kernel_table()
    assert "skipped_cycles" in rep.kernel

    compiled = make_system(channel=INTEGRATED, **MODES["compiled"])
    crep = counters_for(compiled)
    assert crep.kernel["compiled_procs"] > 0
    assert "compiled procs" in crep.kernel_table()


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main(
        [__file__, "-q", "-rA", "--benchmark-disable-gc",
         "--benchmark-min-rounds=1", *sys.argv[1:]]
    ))
