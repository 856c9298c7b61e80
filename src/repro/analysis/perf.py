"""Cycle-accurate performance measurement helpers.

Shared by the paper-claim tests: each helper builds (or accepts) a system,
drives a defined workload, and returns cycle counts measured on the
simulated hardware — the coprocessor-side halves of the paper's
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..isa import instructions as ins
from ..isa.opcodes import ArithOp, Opcode
from ..messages.channel import INTEGRATED, ChannelSpec
from ..host.driver import CoprocessorDriver
from ..system.builder import BuiltSystem, SystemSpec
from ..xisort import DirectXiSortMachine, xisort_factory


@dataclass
class IssueRateResult:
    """Result of a back-to-back issue-rate measurement."""

    instructions: int
    cycles: int

    @property
    def cycles_per_instruction(self) -> float:
        return self.cycles / self.instructions


def measure_issue_rate(
    system: BuiltSystem,
    n_instructions: int = 64,
    op: ArithOp = ArithOp.ADD,
    independent: bool = True,
) -> IssueRateResult:
    """Stream dependent-free (or chained) arithmetic ops; count cycles.

    Measures steady-state throughput of the unit + arbiter + scoreboard:
    the thesis's "able to accept an instruction every second clock cycle"
    claim (C2).  The measurement brackets only the execution phase — the
    operands are preloaded, and the clock stops when the final result has
    been written back (FENCE retires).
    """
    driver = CoprocessorDriver(system)
    driver.write_reg(1, 1111)
    driver.write_reg(2, 2222)
    driver.run_until_quiet()
    start = driver.cycles
    for i in range(n_instructions):
        if independent:
            dst = 3 + (i % 4)           # rotate over a few destinations
            driver.execute(ins.add(dst, 1, 2) if op == ArithOp.ADD
                           else ins.dispatch(Opcode.ARITH, int(op), dst1=dst, src1=1, src2=2))
        else:
            driver.execute(ins.add(3, 3, 2))  # serial dependency chain on r3
    driver.execute(ins.fence())
    driver.run_until_quiet()
    return IssueRateResult(n_instructions, driver.cycles - start)


@dataclass
class XiStepCosts:
    """Fixed-cycle costs of the ξ-sort machine's primitive steps."""

    n_cells: int
    load_cycles: int
    split_cycles: int
    find_pivot_cycles: int
    read_at_cycles: int


def measure_xisort_step_costs(n_cells: int, n_loaded: Optional[int] = None) -> XiStepCosts:
    """Measure each microprogram's cycle cost on a bare core (claim C3)."""
    import random

    n_loaded = n_loaded if n_loaded is not None else max(2, n_cells // 2)
    machine = DirectXiSortMachine(n_cells)
    values = random.Random(42).sample(range(1_000_000), n_loaded)
    machine.reset_array()
    t0 = machine.cycles
    machine.op(0x01, values[0], n_loaded - 1)  # XI_LOAD
    load_cycles = machine.cycles - t0
    for v in values[1:]:
        machine.op(0x01, v, n_loaded - 1)
    t0 = machine.cycles
    pivot = machine.find_pivot()
    find_cycles = machine.cycles - t0
    assert pivot is not None
    t0 = machine.cycles
    machine.split(*pivot)
    split_cycles = machine.cycles - t0
    t0 = machine.cycles
    machine.read_at(0)
    read_cycles = machine.cycles - t0
    return XiStepCosts(
        n_cells=n_cells,
        load_cycles=load_cycles,
        split_cycles=split_cycles,
        find_pivot_cycles=find_cycles,
        read_at_cycles=read_cycles,
    )


def measure_end_to_end_sort(
    n: int, n_cells: int, channel: ChannelSpec = INTEGRATED, seed: int = 11
) -> tuple[int, list[int]]:
    """Full-framework χ-sort of n values; returns (cycles, sorted values)."""
    import random

    from ..host.session import Session
    from ..xisort import XiSortAccelerator

    system = SystemSpec(
        channel=channel, units=((Opcode.XISORT, xisort_factory(n_cells=n_cells)),)
    ).build()
    session = Session(system)
    acc = XiSortAccelerator(session)
    values = random.Random(seed).sample(range(1 << 20), n)
    start = session.driver.cycles
    out = acc.sort(values)
    cycles = session.driver.cycles - start
    assert out == sorted(values)
    return cycles, out


def roundtrip_cycles(system: BuiltSystem) -> int:
    """One write+GET round trip — the link-latency floor (claim C1)."""
    driver = CoprocessorDriver(system)
    driver.write_reg(1, 42)
    start = driver.cycles
    value = driver.read_reg(1)
    assert value == 42
    return driver.cycles - start
