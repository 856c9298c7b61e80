"""Unit tests for the arithmetic unit through the FU protocol (experiment T1/C2)."""

import pytest

from repro.fu import ArithmeticUnit, PipelinedArithmeticUnit, UnitOp, run_unit
from repro.isa import FLAG_CARRY, FLAG_ZERO, ArithOp

W = 32
MASK = (1 << W) - 1


def _arith_factory(name, parent):
    return ArithmeticUnit(name, W, parent)


def _run_one(op: ArithOp, a: int, b: int, flag_in: int = 0):
    tb, cycles = run_unit(_arith_factory, [UnitOp(int(op), a, b, flag_in, dst1=3, dst_flag=1)])
    return tb, cycles


class TestSingleOperations:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (ArithOp.ADD, 20, 22, 42),
            (ArithOp.SUB, 100, 58, 42),
            (ArithOp.INC, 41, 0, 42),
            (ArithOp.DEC, 43, 0, 42),
            (ArithOp.NEG, 0, 5, (-5) & MASK),
        ],
    )
    def test_data_result(self, op, a, b, expected):
        tb, _ = _run_one(op, a, b)
        data = [t for t in tb.collected if t.has_data]
        assert len(data) == 1
        assert data[0].data_value == expected
        assert data[0].data_reg == 3

    def test_flags_ride_with_data(self):
        tb, _ = _run_one(ArithOp.ADD, MASK, 1)
        (t,) = tb.collected
        assert t.has_data and t.has_flags
        assert t.data_value == 0
        assert t.flag_value & FLAG_CARRY
        assert t.flag_value & FLAG_ZERO
        assert t.flag_reg == 1

    def test_cmp_sends_flags_only(self):
        tb, _ = _run_one(ArithOp.CMP, 7, 7)
        (t,) = tb.collected
        assert not t.has_data
        assert t.has_flags
        assert t.flag_value & FLAG_ZERO

    def test_adc_consumes_flag_input(self):
        tb, _ = _run_one(ArithOp.ADC, 1, 2, flag_in=FLAG_CARRY)
        (t,) = tb.collected
        assert t.data_value == 4


class TestThroughput:
    def test_area_optimised_every_second_cycle(self):
        """Thesis §3.2.2: 'able to accept an instruction every second clock cycle'."""
        for n, expected in ((40, 80), (64, 128)):
            ops = [UnitOp(int(ArithOp.ADD), i, 1, dst1=3, dst_flag=1) for i in range(n)]
            tb, cycles = run_unit(_arith_factory, ops)
            assert tb.completed == n
            assert cycles == expected, (
                f"C2 area-optimised, {n} ops: expected {expected}, got {cycles}")

    def test_pipelined_one_per_cycle(self):
        for n, expected in ((40, 43), (64, 67)):
            ops = [UnitOp(int(ArithOp.ADD), i, 1, dst1=3, dst_flag=1) for i in range(n)]
            tb, cycles = run_unit(
                lambda nm, p: PipelinedArithmeticUnit(nm, W, p), ops
            )
            assert tb.completed == n
            assert cycles == expected, (
                f"C2 pipelined, {n} ops: expected {expected}, got {cycles}")

    def test_contended_arbiter_slows_issue(self):
        for n, expected in ((20, (40, 61)), (64, (128, 193))):
            ops = [UnitOp(int(ArithOp.ADD), i, 1, dst1=3, dst_flag=1) for i in range(n)]
            _, free = run_unit(_arith_factory, ops, ack_every=1)
            _, contended = run_unit(_arith_factory, ops, ack_every=3)
            assert (free, contended) == expected, (
                f"C2 arbiter 1-in-3, {n} ops: expected {expected}, got {(free, contended)}")

    def test_results_in_dispatch_order(self):
        n = 10
        ops = [UnitOp(int(ArithOp.ADD), i, 0, dst1=3, dst_flag=1) for i in range(n)]
        tb, _ = run_unit(_arith_factory, ops)
        values = [t.data_value for t in tb.collected if t.has_data]
        assert values == list(range(n))


class TestMultiWordChains:
    def test_adc_chain_matches_bigint(self):
        a, b = 0xFFFF_FFFF_0000_0001, 0x0000_0001_FFFF_FFFF
        ops = [
            UnitOp(int(ArithOp.ADD), a & MASK, b & MASK, dst1=3, dst_flag=1),
        ]
        tb, _ = run_unit(_arith_factory, ops)
        low = tb.collected[-1]
        ops2 = [
            UnitOp(int(ArithOp.ADC), a >> 32, b >> 32, flag_in=low.flag_value,
                   dst1=4, dst_flag=1),
        ]
        tb2, _ = run_unit(_arith_factory, ops2)
        high = tb2.collected[-1]
        got = (high.data_value << 32) | low.data_value
        assert got == (a + b) & 0xFFFF_FFFF_FFFF_FFFF


def test_wide_word_unit():
    unit_f = lambda n, p: ArithmeticUnit(n, 64, p)
    ops = [UnitOp(int(ArithOp.ADD), (1 << 63) + 5, (1 << 63) + 7, dst1=1, dst_flag=0)]
    tb, _ = run_unit(unit_f, ops)
    (t,) = tb.collected
    assert t.data_value == 12  # wrapped mod 2^64
    assert t.flag_value & FLAG_CARRY
