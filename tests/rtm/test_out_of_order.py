"""Direct observation of the paper's §II ordering property:

"Within the FPGA, the instructions may be executed out of order, but the
stream of results returned to the processor will be consistent with the
stream of instructions that were issued."

A deliberately slow unit and a fast unit receive instructions in program
order; a tracer on the write arbiter shows the *writebacks* happening out
of order, while the GET results still arrive in issue order.
"""

import pytest

from repro.fu import AreaOptimizedFU, FuComputation
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.system import SystemSpec

SLOW_CODE, FAST_CODE = 0x20, 0x21


class SlowUnit(AreaOptimizedFU):
    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent, execute_cycles=30)

    def compute(self, s):
        return FuComputation(data1=(s.op_a + 1000) & 0xFFFF_FFFF, flags=0)


class FastUnit(AreaOptimizedFU):
    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent, execute_cycles=1)

    def compute(self, s):
        return FuComputation(data1=(s.op_a + 1) & 0xFFFF_FFFF, flags=0)


class WritebackProbe:
    """Records the order in which registers are written by the arbiter."""

    def __init__(self, soc):
        self.order: list[int] = []
        self._rf = soc.rtm.regfile
        original = self._rf.write

        def spy(reg, value):
            self.order.append(reg)
            original(reg, value)

        self._rf.write = spy


@pytest.fixture
def system():
    return SystemSpec(units=(
        (SLOW_CODE, lambda n, w, p: SlowUnit(n, w, p)),
        (FAST_CODE, lambda n, w, p: FastUnit(n, w, p)),
    )).build()


class TestOutOfOrderCompletion:
    def test_writebacks_happen_out_of_program_order(self, system):
        driver = CoprocessorDriver(system)
        probe = WritebackProbe(system.soc)
        driver.write_reg(1, 5)
        driver.run_until_quiet()
        probe.order.clear()
        # program order: slow first (→ r3), fast second (→ r4)
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.dispatch(FAST_CODE, 0, dst1=4, src1=1, dst_flag=2))
        driver.run_until_quiet()
        writes = [r for r in probe.order if r in (3, 4)]
        assert writes == [4, 3], "the fast unit must retire before the slow one"

    def test_result_stream_stays_in_issue_order(self, system):
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 5)
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.get(3, tag=0))   # depends on the slow result
        driver.execute(ins.dispatch(FAST_CODE, 0, dst1=4, src1=1, dst_flag=2))
        driver.execute(ins.get(4, tag=1))
        msgs = driver.wait_for(2)
        # results arrive in ISSUE order even though unit 2 finished first
        assert [m.tag for m in msgs] == [0, 1]
        assert [m.value for m in msgs] == [1005, 6]

    def test_independent_gets_can_overtake_nothing(self, system):
        """A GET of an untouched register still waits its turn in the pipe."""
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 5)
        driver.write_reg(7, 99)
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.get(3, tag=0))
        driver.execute(ins.get(7, tag=1))  # independent, but issued later
        msgs = driver.wait_for(2)
        assert [m.tag for m in msgs] == [0, 1]

    def test_both_units_busy_simultaneously(self, system):
        """The dispatcher keeps issuing while the slow unit works (overlap)."""
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 5)
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.dispatch(FAST_CODE, 0, dst1=4, src1=1, dst_flag=2))
        slow = system.soc.rtm.unit_for(SLOW_CODE)
        fast = system.soc.rtm.unit_for(FAST_CODE)
        seen_overlap = False
        for _ in range(300):
            driver.pump()
            if not slow.dp.idle.value and not fast.dp.idle.value:
                seen_overlap = True
                break
        assert seen_overlap, "fast dispatch must proceed while slow executes"
