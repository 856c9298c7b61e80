"""Hazard regression for the out-of-order issue engine.

Every classical hazard — RAW, WAW, WAR, FENCE — is pinned on *both* issue
paths: the in-order scoreboard dispatcher and the renaming OoO engine
must produce identical architectural results, differing only in how they
get there.  The one behavioural difference renaming buys — an independent
younger instruction overtaking a stalled older one — is demonstrated
directly through a writeback probe and the issue-stall counters.
"""

import pytest

from repro.fu import AreaOptimizedFU, FuComputation
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.config import FrameworkConfig
from repro.system import SystemSpec

SLOW_CODE, FAST_CODE, OTHER_CODE = 0x20, 0x21, 0x22
MASK = 0xFFFF_FFFF


class SlowUnit(AreaOptimizedFU):
    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent, execute_cycles=30)

    def compute(self, s):
        return FuComputation(data1=(s.op_a + 1000) & MASK, flags=0)


class FastUnit(AreaOptimizedFU):
    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent, execute_cycles=1)

    def compute(self, s):
        return FuComputation(data1=(s.op_a + 1) & MASK, flags=0)


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


def _arch_writes(built, probe, arch_regs):
    """Probe order in architectural terms: under renaming the arbiter
    writes physical indices, so map back through the final rename table
    (each register is written once in these programs — no phys reuse)."""
    rt = getattr(built.soc.rtm, "rename", None)
    if rt is None:
        return [r for r in probe.order if r in arch_regs]
    from repro.fu.protocol import WriteSpace

    phys_of = {rt.phys(WriteSpace.DATA, a): a for a in arch_regs}
    return [phys_of[r] for r in probe.order if r in phys_of]


def _build(ooo: bool):
    return SystemSpec(FrameworkConfig(ooo=ooo), units=(
        (SLOW_CODE, lambda n, w, p: SlowUnit(n, w, p)),
        (FAST_CODE, lambda n, w, p: FastUnit(n, w, p)),
        (OTHER_CODE, lambda n, w, p: FastUnit(n, w, p)),
    )).build()


@pytest.fixture(params=[False, True], ids=["in-order", "ooo"])
def path(request):
    return request.param


class TestHazardsBothPaths:
    """RAW/WAW/WAR/FENCE produce identical architectural results whether
    the machine renames or scoreboards."""

    def test_raw_consumer_sees_producer_result(self, path):
        driver = CoprocessorDriver(_build(path))
        driver.write_reg(1, 5)
        # slow produces r3; the dependent fast op must wait for it
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.dispatch(FAST_CODE, 0, dst1=4, src1=3, dst_flag=2))
        driver.run_until_quiet()
        assert driver.read_reg(3) == 1005
        assert driver.read_reg(4) == 1006

    def test_waw_younger_write_wins(self, path):
        driver = CoprocessorDriver(_build(path))
        driver.write_reg(1, 5)
        driver.write_reg(2, 50)
        # both write r3: slow (old) first in program order, fast (young)
        # second — the architectural value must be the younger result even
        # though the older one *finishes* last under renaming
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.dispatch(FAST_CODE, 0, dst1=3, src1=2, dst_flag=2))
        driver.run_until_quiet()
        assert driver.read_reg(3) == 51

    def test_war_older_reader_sees_old_value(self, path):
        driver = CoprocessorDriver(_build(path))
        driver.write_reg(1, 5)
        driver.write_reg(2, 50)
        # slow reads r1 (old value 5); the younger fast op overwrites r1 —
        # the older reader must not observe the younger write
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.dispatch(FAST_CODE, 0, dst1=1, src1=2, dst_flag=2))
        driver.run_until_quiet()
        assert driver.read_reg(3) == 1005  # computed from the OLD r1
        assert driver.read_reg(1) == 51

    def test_fence_drains_before_younger_issues(self, path):
        built = _build(path)
        driver = CoprocessorDriver(built)
        probe = WritebackProbe(built.soc)
        driver.write_reg(1, 5)
        driver.run_until_quiet()
        probe.order.clear()
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.fence())
        driver.execute(ins.dispatch(FAST_CODE, 0, dst1=6, src1=1, dst_flag=2))
        driver.run_until_quiet()
        writes = _arch_writes(built, probe, (3, 6))
        assert writes == [3, 6], "the fence must drain the slow op first"
        stats = built.soc.rtm.dispatcher.stats
        assert stats.stall_fence > 0

    def test_get_stream_identical_across_paths(self):
        streams = []
        for ooo in (False, True):
            driver = CoprocessorDriver(_build(ooo))
            driver.write_reg(1, 5)
            driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1,
                                        dst_flag=1))
            driver.execute(ins.get(3, tag=0))
            driver.execute(ins.dispatch(FAST_CODE, 0, dst1=4, src1=1,
                                        dst_flag=2))
            driver.execute(ins.get(4, tag=1))
            msgs = driver.wait_for(2)
            streams.append([(m.tag, m.value) for m in msgs])
        assert streams[0] == streams[1] == [(0, 1005), (1, 6)]


class TestBypass:
    """The point of the whole engine: an independent younger op issues
    around an older one stalled on a true dependency."""

    PROGRAM_OLD_R1 = 5

    def _run(self, ooo):
        built = _build(ooo)
        driver = CoprocessorDriver(built)
        probe = WritebackProbe(built.soc)
        driver.write_reg(1, self.PROGRAM_OLD_R1)
        driver.run_until_quiet()
        probe.order.clear()
        # op1: slow, produces r3          (long latency)
        # op2: fast, RAW on r3 → r5       (stalls behind op1)
        # op3: other unit, independent → r6 (free to overtake under
        #      renaming; a *different* unit, since per-unit program order
        #      would rightly hold back a same-unit younger op)
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.dispatch(FAST_CODE, 0, dst1=5, src1=3, dst_flag=2))
        driver.execute(ins.dispatch(OTHER_CODE, 0, dst1=6, src1=1, dst_flag=3))
        driver.run_until_quiet()
        assert driver.read_reg(3) == 1005
        assert driver.read_reg(5) == 1006
        assert driver.read_reg(6) == 6
        return built, _arch_writes(built, probe, (3, 5, 6))

    def test_in_order_path_issues_in_program_order(self):
        built, writes = self._run(ooo=False)
        assert writes == [3, 5, 6]
        stats = built.soc.rtm.dispatcher.stats
        assert stats.mode == "in-order"
        assert stats.stall_raw > 0, "op2 must classify as a RAW stall"

    def test_ooo_path_lets_independent_op_overtake(self):
        built, writes = self._run(ooo=True)
        assert writes == [6, 3, 5], "r6 must retire while the slow op runs"
        stats = built.soc.rtm.dispatcher.stats
        assert stats.mode == "ooo"
        assert stats.window_occupancy_max > 1

    def test_structural_stall_is_classified(self):
        # two back-to-back ops on the SAME slow unit: the second is
        # independent data-wise but the unit itself is busy
        built = _build(True)
        driver = CoprocessorDriver(built)
        driver.write_reg(1, 5)
        driver.write_reg(2, 50)
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=3, src1=1, dst_flag=1))
        driver.execute(ins.dispatch(SLOW_CODE, 0, dst1=4, src1=2, dst_flag=2))
        driver.run_until_quiet()
        assert driver.read_reg(3) == 1005
        assert driver.read_reg(4) == 1050
        stats = built.soc.rtm.dispatcher.stats
        assert stats.stall_structural > 0
