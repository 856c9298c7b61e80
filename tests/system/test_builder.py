"""Unit tests for the system spec (the paper's configuration workflow)."""

import dataclasses

import pytest

from repro.config import FrameworkConfig
from repro.fu import (
    ArithmeticUnit,
    FuComputation,
    MinimalFunctionalUnit,
    PipelinedArithmeticUnit,
    PipelinedLogicUnit,
)
from repro.fu.registry import default_registry
from repro.host import CoprocessorDriver
from repro.isa import Opcode, instructions as ins
from repro.messages import FAST_BUS, SLOW_PROTOTYPE
from repro.system import SystemSpec, build_system

#: an extra unit at a free code: the plain adder, as a (code, factory) pair
EXTRA = (0x30, lambda n, w, p: ArithmeticUnit(n, w, p))


class TestBuilder:
    def test_defaults(self):
        built = SystemSpec().build()
        assert built.config.word_bits == 32
        assert built.soc.channel_spec.name == "integrated"
        assert len(built.soc.rtm.units) == 2

    def test_with_config_overrides(self):
        built = SystemSpec(config=FrameworkConfig(word_bits=64, n_regs=32)).build()
        assert built.config.word_bits == 64
        assert built.config.n_regs == 32

    def test_with_channel(self):
        built = SystemSpec(channel=SLOW_PROTOTYPE).build()
        assert built.soc.channel_spec is SLOW_PROTOTYPE

    def test_with_units_subset(self):
        built = SystemSpec(unit_codes=[Opcode.ARITH]).build()
        assert len(built.soc.rtm.units) == 1
        assert isinstance(built.soc.rtm.unit_for(Opcode.ARITH), ArithmeticUnit)

    def test_custom_unit_registration(self):
        class Triple(MinimalFunctionalUnit):
            def compute(self, s):
                return FuComputation(data1=(s.op_a * 3) & 0xFFFF_FFFF)

        built = SystemSpec(units=((0x20, lambda n, w, p: Triple(n, w, p)),)).build()
        driver = CoprocessorDriver(built)
        driver.write_reg(1, 14)
        driver.execute(ins.dispatch(0x20, 0, dst1=2, src1=1))
        assert driver.read_reg(2) == 42

    def test_extra_units_follow_config_pipelining(self):
        """Regression: extra units used to freeze ``pipelined_units`` at the
        moment they were added, so a later config override built the plain
        case-study units."""
        config = FrameworkConfig(pipelined_units=True)
        built = SystemSpec(config=config, units=(EXTRA,)).build()
        rtm = built.soc.rtm
        assert isinstance(rtm.unit_for(Opcode.ARITH), PipelinedArithmeticUnit)
        assert isinstance(rtm.unit_for(Opcode.LOGIC), PipelinedLogicUnit)
        assert type(rtm.unit_for(0x30)) is ArithmeticUnit

    def test_extra_units_leave_given_registry_untouched(self):
        registry = default_registry()
        spec = SystemSpec(registry=registry, units=(EXTRA,))
        first, second = spec.build(), spec.build()
        assert registry.codes() == (Opcode.ARITH, Opcode.LOGIC)
        assert type(second.soc.rtm.unit_for(0x30)) is ArithmeticUnit
        assert first.soc is not second.soc

    def test_equal_specs_hash_equal(self):
        a = SystemSpec(channel=FAST_BUS, unit_codes=[Opcode.ARITH], window=2)
        b = SystemSpec(channel=FAST_BUS, unit_codes=(Opcode.ARITH,), window=2)
        assert a == b and hash(a) == hash(b)
        twins = {a: "event", dataclasses.replace(a, backend="compiled"): "compiled"}
        assert twins[b] == "event"
        assert len(twins) == 2

    def test_zero_engine_window_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec(window=0)

    def test_build_system_convenience(self):
        built = build_system(FrameworkConfig(n_regs=8), channel=FAST_BUS)
        assert built.config.n_regs == 8
        assert built.soc.channel_spec is FAST_BUS


class TestWordSizeGeneric:
    """'The word size used for the register file is adjustable' (§II)."""

    @pytest.mark.parametrize("bits", [32, 64, 128])
    def test_wide_values_round_trip(self, bits):
        built = build_system(FrameworkConfig(word_bits=bits))
        driver = CoprocessorDriver(built)
        value = (1 << (bits - 1)) | 0xABC
        driver.write_reg(1, value)
        assert driver.read_reg(1) == value

    @pytest.mark.parametrize("bits", [64, 96])
    def test_wide_arithmetic(self, bits):
        built = build_system(FrameworkConfig(word_bits=bits))
        driver = CoprocessorDriver(built)
        a = (1 << bits) - 1
        driver.write_reg(1, a)
        driver.write_reg(2, 5)
        driver.execute(ins.add(3, 1, 2, dst_flag=1))
        assert driver.read_reg(3) == 4  # wrapped
        from repro.isa import FLAG_CARRY

        assert driver.read_flags(1) & FLAG_CARRY


class TestBusyTracking:
    def test_quiescent_after_reset(self):
        built = build_system()
        built.sim.settle()
        assert not built.soc.busy

    def test_busy_during_flight(self):
        built = build_system()
        driver = CoprocessorDriver(built)
        driver.write_reg(1, 1)
        driver.pump(1)
        assert built.soc.busy
        driver.run_until_quiet()
        assert not built.soc.busy
