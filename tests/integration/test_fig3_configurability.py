"""Experiment F3: the programmer's configuration surface of paper Fig. 3.

"To use the system, the programmer needs to: partition the algorithm;
define the specialised operations and implement them as functional units;
configure the interface framework by specifying size parameters for the
register file, and selecting the appropriate transmitter and receiver
modules."  These tests walk that workflow end-to-end with a user-defined
unit, several register-file configurations and several channel choices —
without modifying a single framework component.
"""

import pytest

from repro.config import FrameworkConfig
from repro.fu import AreaOptimizedFU, FuComputation, MinimalFunctionalUnit
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.messages import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE
from repro.system import SystemSpec

MASK = (1 << 32) - 1


class PopcountUnit(MinimalFunctionalUnit):
    """A user-defined specialised operation (population count)."""

    def compute(self, s):
        return FuComputation(data1=bin(s.op_a).count("1"))


class GcdUnit(AreaOptimizedFU):
    """A stateless multi-cycle unit: binary GCD as a single instruction."""

    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent, execute_cycles=8)

    def compute(self, s):
        import math

        return FuComputation(data1=math.gcd(s.op_a, s.op_b), flags=0)


class TestUserDefinedUnits:
    def test_popcount_unit(self):
        built = SystemSpec(units=((0x20, lambda n, w, p: PopcountUnit(n, w, p)),)).build()
        d = CoprocessorDriver(built)
        d.write_reg(1, 0b1011_0111)
        d.execute(ins.dispatch(0x20, 0, dst1=2, src1=1))
        assert d.read_reg(2) == 6

    def test_gcd_unit(self):
        built = SystemSpec(units=((0x21, lambda n, w, p: GcdUnit(n, w, p)),)).build()
        d = CoprocessorDriver(built)
        d.write_reg(1, 48)
        d.write_reg(2, 36)
        d.execute(ins.dispatch(0x21, 0, dst1=3, src1=1, src2=2, dst_flag=1))
        assert d.read_reg(3) == 12

    def test_multiple_user_units_coexist_with_case_study_units(self):
        built = SystemSpec(units=(
            (0x20, lambda n, w, p: PopcountUnit(n, w, p)),
            (0x21, lambda n, w, p: GcdUnit(n, w, p)),
        )).build()
        d = CoprocessorDriver(built)
        d.write_reg(1, 21)
        d.write_reg(2, 14)
        d.execute(ins.add(3, 1, 2, dst_flag=1))            # framework unit
        d.execute(ins.dispatch(0x21, 0, dst1=4, src1=1, src2=2, dst_flag=1))
        d.execute(ins.dispatch(0x20, 0, dst1=5, src1=3))
        assert d.read_reg(3) == 35
        assert d.read_reg(4) == 7
        assert d.read_reg(5) == bin(35).count("1")


class TestSizeParameters:
    @pytest.mark.parametrize("n_regs", [4, 16, 256])
    def test_register_file_sizes(self, n_regs):
        built = SystemSpec(config=FrameworkConfig(n_regs=n_regs)).build()
        d = CoprocessorDriver(built)
        last = n_regs - 1
        d.write_reg(last, 7)
        assert d.read_reg(last) == 7

    @pytest.mark.parametrize("word_bits", [32, 96])
    def test_word_sizes(self, word_bits):
        built = SystemSpec(config=FrameworkConfig(word_bits=word_bits)).build()
        d = CoprocessorDriver(built)
        v = (1 << (word_bits - 1)) | 3
        d.write_reg(1, v)
        assert d.read_reg(1) == v


class TestTransceiverSelection:
    @pytest.mark.parametrize("channel", [INTEGRATED, FAST_BUS, SLOW_PROTOTYPE],
                             ids=lambda c: c.name)
    def test_same_program_any_link(self, channel):
        """Functional behaviour is link-independent; only timing changes."""
        built = SystemSpec(channel=channel).build()
        d = CoprocessorDriver(built)
        d.write_reg(1, 20)
        d.write_reg(2, 22)
        d.execute(ins.add(3, 1, 2, dst_flag=1))
        assert d.read_reg(3, max_cycles=5_000_000) == 42

    def test_links_differ_only_in_cycles(self):
        results = {}
        for channel in (INTEGRATED, SLOW_PROTOTYPE):
            built = SystemSpec(channel=channel).build()
            d = CoprocessorDriver(built)
            d.write_reg(1, 9)
            value = d.read_reg(1, max_cycles=5_000_000)
            results[channel.name] = (value, d.cycles)
        assert results["integrated"][0] == results["slow-prototype"][0] == 9
        assert results["slow-prototype"][1] > 20 * results["integrated"][1]
