"""K and S1 — the simulation kernels are one machine, differently scheduled.

Every kernel mode (the exhaustive reference, the event scheduler with the
time wheel off and on, the compiled backend) must give the same cycle
count on the designs the paper exercises; the wall-clock speedups between
them are the end-to-end benchmark's business (``benchmarks/e2e``).  This
file pins the cycle counts and the deterministic kernel counters that
cause those speedups:

* the wheel covers the serial prototype's idle stretches in jumps
  (``skipped_cycles`` far above ``edge_calls``);
* the compiled backend vectorizes a structural cell array completely,
  with no interpreted fallback;
* S1: the three smart-memory machines at 256 cells.
"""

import random
import struct
from collections import Counter

import pytest

from repro.host import CoprocessorDriver, Session
from repro.isa import instructions as ins
from repro.isa.opcodes import Opcode
from repro.messages import INTEGRATED, SLOW_PROTOTYPE
from repro.smem.histogram import DirectHistMachine
from repro.smem.match import DirectMatchMachine
from repro.smem.scan import DirectScanMachine
from repro.system import SystemSpec, build_system
from repro.xisort import DirectXiSortMachine, XiSortAccelerator, xisort_factory

from .claims import pin

MODES = {
    "exhaustive": {"backend": "exhaustive", "wheel": False},
    "event": {"backend": "event", "wheel": False},
    "event+wheel": {"backend": "event", "wheel": True},
    "compiled": {"backend": "compiled", "wheel": True},
}
ALL = tuple(MODES)
#: the exhaustive and wheel-off kernels take seconds on the 256-cycle/word link
WHEELED = ("event+wheel", "compiled")


def _rtm_burst(mode, channel=INTEGRATED, think=0):
    """48 independent adds on the Fig. 4 pipeline, then optional host think-time."""
    system = build_system(channel=channel, lint="off", **mode)
    driver = CoprocessorDriver(system)
    driver.write_reg(1, 3)
    driver.write_reg(2, 5)
    driver.run_until_quiet()
    start = system.sim.now
    for i in range(48):
        driver.execute(ins.add(3 + i % 4, 1, 2, dst_flag=1))
    driver.execute(ins.fence())
    driver.run_until_quiet()
    if think:
        system.sim.step(think)
    return system.sim.now - start, system.sim


def _serial_idle(mode):
    """One add over the serial link, 30 000 cycles of host think-time, then
    a synchronous read-back: nearly every cycle is a link countdown or idle."""
    system = build_system(channel=SLOW_PROTOTYPE, lint="off", **mode)
    driver = CoprocessorDriver(system)
    driver.write_reg(1, 3)
    driver.write_reg(2, 5)
    driver.run_until_quiet()
    start = system.sim.now
    driver.execute(ins.add(3, 1, 2, dst_flag=1))
    driver.run_until_quiet()
    system.sim.step(30_000)
    assert driver.read_reg(3) == 8
    driver.run_until_quiet()
    return system.sim.now - start, system.sim


def _ooo_fp_burst(mode):
    """32 fadd/fmul/fmadd ops over 8 destinations on the out-of-order engine."""
    system = build_system(ooo=True, fp_units=True, lint="off", **mode)
    driver = CoprocessorDriver(system)
    for reg, x in zip((1, 2, 3, 4), (0.5, 1.25, -2.0, 3.0)):
        driver.write_reg(reg, struct.unpack("<I", struct.pack("<f", x))[0])
    driver.run_until_quiet()
    make = (ins.fadd, ins.fmul, ins.fmadd)
    start = system.sim.now
    for i in range(32):
        driver.execute(make[i % 3](8 + i % 8, 1 + i % 4, 1 + (3 * i) % 4))
    driver.execute(ins.fence())
    driver.run_until_quiet()
    return system.sim.now - start, system.sim


def _xisort_framework(mode):
    """Sort 16 values on a 16-cell ξ-sort unit through the full framework."""
    system = SystemSpec(units=((Opcode.XISORT, xisort_factory(n_cells=16)),),
                        lint="off", **mode).build()
    session = Session(system)
    values = random.Random(7).sample(range(1 << 16), 16)
    start = session.driver.cycles
    assert XiSortAccelerator(session).sort(values) == sorted(values)
    return session.driver.cycles - start, system.sim


def _xisort_dense(mode):
    """Sort 48 values on a bare structural 1024-cell array."""
    values = random.Random(7).sample(range(1 << 16), 48)
    machine = DirectXiSortMachine(1024, array_kind="structural", **mode)
    assert machine.sort(values) == sorted(values)
    return machine.cycles, machine.sim


#: scenario → (workload, cycles, kernel modes that must all report them)
SCENARIOS = {
    "rtm stream (integrated)": (_rtm_burst, 205, ALL),
    "rtm serial prototype": (lambda m: _rtm_burst(m, SLOW_PROTOTYPE), 37632, WHEELED),
    "rtm offload duty cycle": (lambda m: _rtm_burst(m, think=3000), 3205, ALL),
    "rtm ooo fp burst": (_ooo_fp_burst, 146, ALL),
    "a2 xisort cells": (_xisort_framework, 1223, WHEELED),
    "xisort cells 1k (dense)": (_xisort_dense, 930, ("compiled",)),
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_k_kernel_modes_agree(scenario):
    workload, cycles, modes = SCENARIOS[scenario]
    for mode in modes:
        pin(f"K {scenario} cycles on {mode}", cycles, workload(MODES[mode])[0])


def test_k_wheel_skips_serial_idle():
    """The wheel's home turf: (cycles, skipped cycles, executed edges, jumps)."""
    for mode in WHEELED:
        cycles, sim = _serial_idle(MODES[mode])
        k = sim.kernel_stats
        pin(f"K serial idle on {mode}", (31739, 32515, 127, 27),
            (cycles, k.skipped_cycles, k.edge_calls, k.wheel_jumps))
        assert k.skipped_cycles > k.edge_calls


@pytest.mark.parametrize("n_cells", [1, 1024])
def test_k_structural_array_vectorizes(n_cells):
    """One cell is the smallest array the executor absorbs; 1024 is the
    dense scaling point."""
    stats = DirectXiSortMachine(n_cells, array_kind="structural",
                                backend="compiled").sim.kernel_stats
    pin(f"K vectorized cells at {n_cells}", n_cells, stats.vectorized_cells)
    pin(f"K fallback procs at {n_cells}", 0, stats.fallback_procs)


# ---------------------------------------------------------------- S1

S1_CELLS = 256


def _scan(mode):
    values = [(v * 2654435761) % (1 << 20) for v in range(200)]
    m = DirectScanMachine(S1_CELLS, **mode)
    m.reset_column()
    m.load(values)
    assert m.prefix_sum() == sum(values)
    # every query's cycles belong to the pinned workload
    answers = (m.total(), m.minimum(), m.maximum(), m.count(),
               m.read_at(0), m.read_at(len(values) - 1))
    assert answers[4:] == (values[0], sum(values))
    return m


def _histogram(mode):
    samples = [(v * 40503) % 512 for v in range(400)]
    m = DirectHistMachine(S1_CELLS, **mode)
    m.reset_bins()
    m.load(samples)
    # every query's cycles belong to the pinned workload
    answers = (m.total(), m.peak(), m.nonzero_bins())
    assert answers[0] == len(samples)
    assert answers[1][1] == max(Counter(s % S1_CELLS for s in samples).values())
    return m


def _match(mode):
    text, pattern = (b"abacabadabacabae" * 32)[:500], b"abacabad"
    m = DirectMatchMachine(S1_CELLS, **mode)
    m.reset_machine()
    m.set_pattern(pattern)
    ends = m.feed(text)
    assert ends == [i + 7 for i in range(len(text)) if text.startswith(pattern, i)]
    assert m.hits() == len(ends)
    return m


@pytest.mark.parametrize("machine, cycles", [
    (_scan, 418), (_histogram, 1208), (_match, 1522),
], ids=["scan", "histogram", "match"])
def test_s1_smem_suite(machine, cycles):
    for mode in ("event", "event+wheel", "compiled"):
        m = machine(MODES[mode])
        pin(f"S1 {machine.__name__[1:]} cycles on {mode}", cycles, m.cycles)
    stats = m.sim.kernel_stats
    pin(f"S1 {machine.__name__[1:]} compiled (vectorized, fallback)", (S1_CELLS, 0),
        (stats.vectorized_cells, stats.fallback_procs))
