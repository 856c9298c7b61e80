"""The write-profile contract: the decoder locks exactly what a unit writes.

Regression tests for a class of deadlock found while building the CRC
example: a unit that never produces flags, dispatched under the default
(data+flags) profile, leaves a flag register locked forever — visible the
moment a FENCE or a flag-reading instruction follows.
"""

import pytest

from repro.fu import FuComputation, MinimalFunctionalUnit, PipelinedFunctionalUnit
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.system import SystemSpec


class DataOnlyMinimal(MinimalFunctionalUnit):
    def compute(self, s):
        return FuComputation(data1=(s.op_a + 1) & 0xFFFF_FFFF)


class DataOnlyPipelined(PipelinedFunctionalUnit):
    write_profile = staticmethod(lambda variety: (True, False, False))

    def compute(self, s):
        return FuComputation(data1=(s.op_a + 2) & 0xFFFF_FFFF)


class MismatchedPipelined(PipelinedFunctionalUnit):
    """Deliberately violates the contract: default profile, no flag output."""

    def compute(self, s):
        return FuComputation(data1=s.op_a)


def _system(code, factory):
    return SystemSpec(units=((code, factory),)).build()


class TestProfilesMatchCompute:
    def test_minimal_unit_releases_all_locks(self):
        d = CoprocessorDriver(_system(0x20, lambda n, w, p: DataOnlyMinimal(n, w, p)))
        d.write_reg(1, 9)
        d.execute(ins.dispatch(0x20, 0, dst1=2, src1=1))
        d.execute(ins.fence())  # hangs if any lock leaks
        d.run_until_quiet()
        assert d.soc.rtm.lockmgr.all_free
        assert d.soc.rtm.register_value(2) == 10

    def test_minimal_unit_leaves_flag_zero_usable(self):
        d = CoprocessorDriver(_system(0x20, lambda n, w, p: DataOnlyMinimal(n, w, p)))
        d.write_reg(1, 1)
        d.execute(ins.dispatch(0x20, 0, dst1=2, src1=1))  # dst_flag field is 0
        d.execute(ins.setf(0, 0x3))  # writes flag reg 0 — stalls iff leaked
        d.run_until_quiet(max_cycles=10_000)
        assert d.read_flags(0) == 0x3

    def test_pipelined_with_declared_profile(self):
        d = CoprocessorDriver(_system(0x21, lambda n, w, p: DataOnlyPipelined(n, w, p)))
        d.write_reg(1, 5)
        for _ in range(4):
            d.execute(ins.dispatch(0x21, 0, dst1=1, src1=1))
        d.execute(ins.fence())
        d.run_until_quiet(max_cycles=20_000)
        assert d.soc.rtm.register_value(1) == 13
        assert d.soc.rtm.lockmgr.all_free

    def test_violating_the_contract_deadlocks(self):
        """Documents the failure mode: mismatch ⇒ the flag lock never clears."""
        from repro.hdl.errors import SimulationError

        d = CoprocessorDriver(_system(0x22, lambda n, w, p: MismatchedPipelined(n, w, p)))
        d.write_reg(1, 5)
        d.execute(ins.dispatch(0x22, 0, dst1=2, src1=1, dst_flag=1))
        d.execute(ins.fence())
        with pytest.raises(SimulationError):
            d.run_until_quiet(max_cycles=5_000)
        from repro.fu import WriteSpace

        assert d.soc.rtm.lockmgr.is_locked(WriteSpace.FLAG, 1)
