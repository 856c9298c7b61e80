"""§III: "The speed of the system is determined by two factors: the latency
of the communication interface to the host computer, and the clock speed
of the FPGA."

* C1 — sustained instruction cost on the three cycle-accurate link
  presets (round trips are pinned in ``tests/analysis/test_perf_helpers``,
  the bit-level UART round trip in ``tests/messages/test_uart``).
* C1b — the analytic real-unit link models: a 256-operand workload is
  entirely link-bound over the 115200-baud prototype link and
  compute-significant on integrated fabric.
* E1 (engine window) — the host engine's in-flight window hides round-trip
  latency but never manufactures bandwidth.
* R1 — the reliable message layer's cost: trailer overhead on a clean
  link, retransmissions under seeded word faults, identical results.
* R1b — the state-fault stack's cost: free when fault-free, singles
  corrected in place, a pinned double recovered by one rollback.
"""

import pytest

from repro.analysis import (
    DEFAULT_CLOCKS,
    INTEGRATED_LINK,
    PCIE_CLASS_LINK,
    SERIAL_PROTOTYPE_LINK,
    counters_for,
    measure_issue_rate,
)
from repro.config import FrameworkConfig
from repro.faults import StateFaultSpec
from repro.host import CoprocessorDriver, Session
from repro.isa import ArithOp, instructions as ins
from repro.messages import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE, ChannelSpec, FaultSpec
from repro.system import build_system

from .claims import pin

# ---------------------------------------------------------------- C1, C1b


@pytest.mark.parametrize("channel, cycles", [
    (INTEGRATED, 141), (FAST_BUS, 235), (SLOW_PROTOTYPE, 25344),
], ids=["integrated", "fast-bus", "slow-prototype"])
def test_c1_sustained_cost(channel, cycles):
    r = measure_issue_rate(build_system(channel=channel, lint="off"), 32)
    pin(f"C1 {channel.name} cycles for 32 instrs", cycles, r.cycles)


@pytest.mark.parametrize("link, transfer_us, link_share_pct", [
    (SERIAL_PROTOTYPE_LINK, 266866.6667, 99.9962),
    (PCIE_CLASS_LINK, 17.36, 62.8986),
    (INTEGRATED_LINK, 15.44, 60.1246),
], ids=["serial-115200", "pcie-x1", "integrated"])
def test_c1b_real_unit_links(link, transfer_us, link_share_pct):
    # ship 256 operand pairs down, collect 128 two-word results, compute 512 cycles
    transfer = link.transfer_seconds(512) + link.transfer_seconds(256)
    compute = DEFAULT_CLOCKS.fpga_seconds(512)
    pin("C1b compute µs", 10.24, compute * 1e6)
    pin(f"C1b {link.name} transfer µs", transfer_us, transfer * 1e6)
    pin(f"C1b {link.name} link share %", link_share_pct,
        100 * transfer / (transfer + compute))


# ---------------------------------------------------------------- E1 window

#: a latency-dominated USB-UART bridge class link (768-cycle pipe, 12
#: cycles/word) — the corner of the serial spectrum where windowing pays
SERIAL_BRIDGE = ChannelSpec("serial-bridge", latency_cycles=768, cycles_per_word=12)
E1_CALLS = 16
#: compute_async parks 3 registers per call until its result streams back
E1_CONFIG = FrameworkConfig(n_regs=64)
#: submissions that found the window full, on every link
E1_WINDOW_STALLS = {1: 15, 4: 12, 8: 8}


@pytest.mark.parametrize("channel, cycles", [
    (INTEGRATED, {1: 266, 4: 236, 8: 236}),
    (SERIAL_BRIDGE, {1: 25380, 4: 6768, 8: 4086}),
    (SLOW_PROTOTYPE, {1: 41097, 4: 41097, 8: 41097}),
], ids=["integrated", "serial-bridge", "slow-prototype"])
def test_e1_window_sweep(channel, cycles):
    """A 16-call dependent-free compute batch at windows 1, 4 and 8."""
    for window, expected in cycles.items():
        session = Session(build_system(E1_CONFIG, channel=channel, window=window, lint="off"))
        start = session.driver.cycles
        with session.pipeline() as p:
            futures = [p.compute(ArithOp.ADD, i, 1000 + i) for i in range(E1_CALLS)]
        got = session.driver.cycles - start
        assert [f.result() for f in futures] == [1000 + 2 * i for i in range(E1_CALLS)]
        stats = counters_for(session.system, session.driver).engine
        pin(f"E1 {channel.name} window={window} cycles", expected, got)
        pin(f"E1 {channel.name} window={window} (highwater, stalls)",
            (window, E1_WINDOW_STALLS[window]),
            (stats["in_flight_highwater"], stats["window_stalls"]))


def test_e1_integrated_read_overlap():
    """A pure read batch is round-trip-bound even on the integrated link."""
    for window, expected in ((1, 256), (4, 76), (8, 76)):
        session = Session(build_system(E1_CONFIG, window=window, lint="off"))
        driver = session.driver
        for reg in range(E1_CALLS):
            driver.write_reg(reg, 3 * reg + 1)
        driver.run_until_quiet()
        start = driver.cycles
        with session.pipeline() as p:
            futures = [p.read(reg) for reg in range(E1_CALLS)]
        assert [f.result() for f in futures] == [3 * reg + 1 for reg in range(E1_CALLS)]
        pin(f"E1 read batch window={window} cycles", expected, driver.cycles - start)


# ---------------------------------------------------------------- R1, R1b


def _add_round_trips(n_ops: int, dst_flag: int = 0, **kwargs):
    """n write/write/add/read round trips; (cycles, driver)."""
    drv = CoprocessorDriver(build_system(lint="off", **kwargs))
    results = []
    for i in range(n_ops):
        drv.write_reg(1, i)
        drv.write_reg(2, 7000 + i)
        drv.execute(ins.add(3, 1, 2, dst_flag=dst_flag))
        results.append(drv.read_reg(3))
    drv.run_until_quiet()
    assert results == [7000 + 2 * i for i in range(n_ops)]
    return drv.cycles, drv


@pytest.mark.parametrize("channel, n_ops, plain, by_rate", [
    (INTEGRATED, 20, 524, {0.0: (624, 0, 0), 0.01: (2856, 6, 5), 0.02: (6236, 13, 10)}),
    (FAST_BUS, 20, 1238, {0.0: (1438, 0, 0), 0.01: (3989, 6, 5), 0.02: (7856, 13, 10)}),
    (SLOW_PROTOTYPE, 6, 16248,
     {0.0: (23928, 0, 0), 0.01: (23928, 0, 0), 0.02: (32257, 4, 4)}),
], ids=["integrated", "fast-bus", "slow-prototype"])
def test_r1_reliability_cost(channel, n_ops, plain, by_rate):
    """(cycles, retransmits, NACKs) per symmetric word-fault rate."""
    pin(f"R1 {channel.name} plain framing cycles", plain,
        _add_round_trips(n_ops, channel=channel)[0])
    for rate, expected in by_rate.items():
        faults = {}
        if rate:
            faults = dict(faults=FaultSpec(seed=71, drop_rate=rate, flip_rate=rate / 2),
                          upstream_faults=FaultSpec(seed=72, drop_rate=rate))
        cycles, drv = _add_round_trips(n_ops, channel=channel, reliable=True, **faults)
        stats = drv.engine.stats
        pin(f"R1 {channel.name} @ {rate:.0%} (cycles, retransmits, NACKs)", expected,
            (cycles, stats.retransmits, stats.nacks))


#: heavy single-upset rate on the register files: many correctable flips
R1B_SINGLES = StateFaultSpec(seed=71, flip_rate=0.3, targets=("rtm.regfile", "rtm.flagfile"))
#: a double upset pinned a few writes in, past the first checkpoint
R1B_DOUBLE = StateFaultSpec(seed=71, schedule=(("rtm.regfile", 3, "double"),))


@pytest.mark.parametrize("build, kwargs, expected", [
    ("bare", {}, {4: (108, 0, 0, 0, 0), 12: (316, 0, 0, 0, 0)}),
    ("protected", dict(state_protection=True), {4: (108, 0, 0, 0, 0), 12: (316, 0, 0, 0, 0)}),
    ("singles", dict(state_faults=R1B_SINGLES),
     {4: (108, 6, 0, 0, 0), 12: (316, 15, 0, 0, 0)}),
    ("double", dict(state_faults=R1B_DOUBLE), {4: (125, 0, 1, 1, 4), 12: (333, 0, 1, 1, 4)}),
], ids=["bare", "protected", "singles", "double"])
def test_r1b_state_fault_cost(build, kwargs, expected):
    """(cycles, corrected, machine checks, rollbacks, replayed) on 4 and 12
    add round trips; results are identical to the bare build in every case."""
    for n_ops, want in expected.items():
        cycles, drv = _add_round_trips(n_ops, dst_flag=1, **kwargs)
        domain = drv.system.soc.state_domain
        corrected = domain.stats.corrected if domain is not None else 0
        est = drv.engine.stats
        pin(f"R1b {build}, {n_ops} ops (cycles, corrected, checks, rollbacks, replayed)",
            want, (cycles, corrected, est.machine_checks, est.rollbacks, est.replayed))
        if build == "double":
            d = domain.stats.as_dict()
            pin(f"R1b double, {n_ops} ops, detection latency (mean, max)", (1.0, 1),
                (d["detect_latency_mean"], d["detect_latency_max"]))
