"""Direct unit tests of the dispatcher stage (hazards, strobes, resolution).

The integration suite exercises these behaviours through the whole system;
these tests isolate the stage with a scripted harness so each stall
condition and strobe timing is observable cycle by cycle.
"""

import pytest

from repro.config import FrameworkConfig
from repro.fu import ArithmeticUnit, WriteSpace
from repro.hdl import Component, Simulator
from repro.isa import Opcode, encode, instructions as ins
from repro.messages import Exec
from repro.rtm import (
    Decoder,
    Dispatcher,
    FlagRegisterFile,
    FunctionalUnitTable,
    LockManager,
    RegisterFile,
)


class DispatchHarness(Component):
    """decoder→dispatcher pair with scripted inputs and an eager exec sink."""

    def __init__(self):
        super().__init__("dh")
        cfg = FrameworkConfig(n_regs=8, n_flag_regs=4)
        self.cfg = cfg
        self.regfile = RegisterFile("rf", cfg, parent=self)
        self.flagfile = FlagRegisterFile("ff", cfg, parent=self)
        self.lockmgr = LockManager("lm", cfg, parent=self)
        self.futable = FunctionalUnitTable()
        self.unit = ArithmeticUnit("arith", cfg.word_bits, parent=self)
        self.futable.add(Opcode.ARITH, self.unit)
        self.decoder = Decoder("dec", cfg, self.futable, parent=self)
        self.dispatcher = Dispatcher(
            "disp", cfg, self.regfile, self.flagfile, self.lockmgr,
            self.futable, parent=self,
        )
        self.to_send = []
        self.exec_ops = []
        self.exec_ready = True
        self.ack_results = True

        @self.comb(always=True)
        def _drive():
            self.decoder.inp.valid.set(1 if self.to_send else 0)
            if self.to_send:
                self.decoder.inp.payload.set(self.to_send[0])
            # decoder → dispatcher link
            self.dispatcher.inp.valid.set(self.decoder.out.valid.value)
            self.dispatcher.inp.payload.set(self.decoder.out.payload.value)
            self.decoder.out.ready.set(self.dispatcher.inp.ready.value)
            # execution sink
            self.dispatcher.out.ready.set(1 if self.exec_ready else 0)
            # eager write-arbiter stand-in
            self.unit.rp.ack.set(1 if (self.ack_results and self.unit.rp.ready.value) else 0)

        @self.seq
        def _tick():
            if self.decoder.inp.fires():
                self.to_send.pop(0)
            if self.dispatcher.out.fires():
                self.exec_ops.append(self.dispatcher.out.payload.value)
            # write-arbiter stand-in: commit + unlock
            rp = self.unit.rp
            if rp.ready.value and rp.ack.value:
                t = rp.take()
                if t.has_data:
                    self.regfile.write(t.data_reg, t.data_value)
                    self.lockmgr.unlock(WriteSpace.DATA, t.data_reg)
                if t.has_flags:
                    self.flagfile.write(t.flag_reg, t.flag_value)
                    self.lockmgr.unlock(WriteSpace.FLAG, t.flag_reg)

    def feed(self, *instrs):
        self.to_send.extend(Exec(encode(i)) for i in instrs)


@pytest.fixture
def h():
    harness = DispatchHarness()
    sim = Simulator(harness)
    sim.reset()
    return harness, sim


class TestDispatchStrobe:
    def test_unit_dispatched_when_idle_and_unlocked(self, h):
        harness, sim = h
        harness.regfile.load([0, 3, 4])
        harness.feed(ins.add(3, 1, 2, dst_flag=1))
        sim.run_until(lambda: harness.dispatcher.stats.unit_dispatches == 1, 20)
        sim.run_until(lambda: harness.regfile.read(3) == 7, 20)

    def test_operands_read_in_dispatch_cycle(self, h):
        harness, sim = h
        harness.regfile.load([0, 11, 22])
        harness.feed(ins.add(3, 1, 2, dst_flag=1))
        # catch the dispatch cycle and inspect the port
        for _ in range(20):
            sim.settle()
            if harness.unit.dp.dispatch.value:
                assert harness.unit.dp.op_a.value == 11
                assert harness.unit.dp.op_b.value == 22
                assert harness.unit.dp.dst1.value == 3
                break
            sim.step()
        else:
            pytest.fail("dispatch strobe never seen")

    def test_write_set_locked_at_dispatch(self, h):
        harness, sim = h
        harness.regfile.load([0, 1, 2])
        harness.feed(ins.add(3, 1, 2, dst_flag=1))
        sim.run_until(lambda: harness.dispatcher.stats.unit_dispatches == 1, 20)
        sim.step()  # lock visible one edge later
        # the unit is still executing; r3 and f1 must be claimed
        assert harness.lockmgr.is_locked(WriteSpace.DATA, 3) or harness.regfile.read(3) == 3


class TestStallConditions:
    def test_raw_stall_until_unlock(self, h):
        harness, sim = h
        harness.ack_results = False  # results never retire → locks persist
        harness.regfile.load([0, 1, 2])
        harness.feed(ins.add(3, 1, 2, dst_flag=1), ins.add(4, 3, 2, dst_flag=1))
        sim.step(30)
        assert harness.dispatcher.stats.unit_dispatches == 1   # second op blocked
        assert harness.dispatcher.stalled.value
        harness.ack_results = True                       # release
        sim.run_until(lambda: harness.dispatcher.stats.unit_dispatches == 2, 30)

    def test_unit_busy_stall(self, h):
        harness, sim = h
        harness.regfile.load([0, 1, 2])
        # two independent ops contend for the single arithmetic unit
        harness.feed(ins.add(3, 1, 2, dst_flag=1), ins.add(4, 1, 2, dst_flag=2))
        sim.run_until(lambda: harness.dispatcher.stats.unit_dispatches == 2, 40)
        assert harness.dispatcher.stats.stall_cycles >= 1

    def test_fence_stalls_until_all_free(self, h):
        harness, sim = h
        harness.ack_results = False
        harness.regfile.load([0, 1, 2])
        harness.feed(ins.add(3, 1, 2, dst_flag=1), ins.fence())
        sim.step(30)
        assert harness.exec_ops == []   # fence still held
        harness.ack_results = True
        sim.run_until(lambda: len(harness.exec_ops) == 1, 40)

    def test_exec_backpressure_stalls_primitives(self, h):
        harness, sim = h
        harness.exec_ready = False
        harness.feed(ins.nop(), ins.nop())
        sim.step(15)
        assert harness.exec_ops == []
        harness.exec_ready = True
        sim.run_until(lambda: len(harness.exec_ops) == 2, 20)


class TestResolution:
    def test_copy_resolved_with_register_value(self, h):
        harness, sim = h
        harness.regfile.load([0, 0, 55])
        harness.feed(ins.copy(4, 2))
        sim.run_until(lambda: harness.exec_ops, 20)
        op = harness.exec_ops[0]
        assert op.transfer.data_reg == 4
        assert op.transfer.data_value == 55

    def test_get_resolved_to_data_record(self, h):
        harness, sim = h
        harness.regfile.load([0, 0, 0, 77])
        harness.feed(ins.get(3, tag=9))
        sim.run_until(lambda: harness.exec_ops, 20)
        msg = harness.exec_ops[0].message
        assert msg.tag == 9 and msg.value == 77

    def test_loadis_merges_shifted_value(self, h):
        harness, sim = h
        harness.regfile.load([0, 0xAB])
        harness.feed(ins.loadis(1, 0xCD))
        sim.run_until(lambda: harness.exec_ops, 20)
        # 32-bit machine: (0xAB << 32) | 0xCD masked to 32 bits = 0xCD
        assert harness.exec_ops[0].transfer.data_value == 0xCD
