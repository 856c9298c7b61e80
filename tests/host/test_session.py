"""Unit tests for the session API (allocation, ops, multi-word arithmetic)."""

import pytest

from repro.config import FrameworkConfig
from repro.host import LinkDownError, OutOfRegisters, Session
from repro.isa import ArithOp, LogicOp
from repro.messages import FAST_BUS, FaultSpec
from repro.system import build_system


@pytest.fixture
def session():
    return Session()


class TestAllocation:
    def test_alloc_returns_distinct_registers(self, session):
        regs = session.alloc_many(5)
        assert len(set(regs)) == 5

    def test_exhaustion(self):
        s = Session(build_system(FrameworkConfig(n_regs=4)))
        s.alloc_many(4)
        with pytest.raises(OutOfRegisters):
            s.alloc()

    def test_free_recycles(self):
        s = Session(build_system(FrameworkConfig(n_regs=2)))
        r = s.alloc()
        s.free(r)
        assert s.alloc() == r

    def test_flag_zero_reserved(self, session):
        flags = [session.alloc_flag() for _ in range(3)]
        assert 0 not in flags

    def test_scratch_context(self, session):
        before = len(session._free)
        with session.scratch(3) as regs:
            assert len(regs) == 3
        assert len(session._free) == before


class TestScalarOps:
    def test_put_and_read(self, session):
        r = session.put(1234)
        assert session.read(r) == 1234

    @pytest.mark.parametrize(
        "op,x,y,expected",
        [
            (ArithOp.ADD, 20, 22, 42),
            (ArithOp.SUB, 50, 8, 42),
            (LogicOp.AND, 0b1101, 0b1011, 0b1001),
            (LogicOp.OR, 0b0101, 0b0010, 0b0111),
        ],
    )
    def test_compute(self, session, op, x, y, expected):
        assert session.compute(op, x, y) == expected

    def test_arith_into_named_destination(self, session):
        a, b, d = session.put(5), session.put(6), session.alloc()
        session.arith(ArithOp.ADD, a, b, dst=d)
        assert session.read(d) == 11

    def test_read_carry(self, session):
        a = session.put(0xFFFF_FFFF)
        b = session.put(1)
        f = session.alloc_flag()
        session.arith(ArithOp.ADD, a, b, flag_out=f)
        assert session.read_carry(f) == 1

    def test_compute_frees_registers_when_op_raises(self):
        session = Session(build_system(channel=FAST_BUS, reliable=True,
                                       faults=FaultSpec(dead_after_words=4)))
        free_before = len(session._free)
        with pytest.raises(LinkDownError):
            session.compute(ArithOp.ADD, 1, 2)
        assert len(session._free) == free_before == 16


class TestMultiWord:
    def test_write_read_wide(self, session):
        v = 0x0123_4567_89AB_CDEF_0011
        regs = session.write_wide(v, 3)
        assert session.read_wide(regs) == v

    @pytest.mark.parametrize(
        "a,b",
        [
            (0, 0),
            (0xFFFF_FFFF, 1),
            (0xFFFF_FFFF_FFFF_FFFF, 1),
            (0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210),
        ],
    )
    def test_add_wide_matches_bigint(self, session, a, b):
        limbs = 3
        ra = session.write_wide(a, limbs)
        rb = session.write_wide(b, limbs)
        out, carry = session.add_wide(ra, rb)
        assert session.read_wide(out) == (a + b) & ((1 << 96) - 1)

    def test_add_wide_final_carry(self, session):
        ra = session.write_wide((1 << 64) - 1, 2)
        rb = session.write_wide(1, 2)
        out, cf = session.add_wide(ra, rb)
        assert session.read_wide(out) == 0
        assert session.read_carry(cf) == 1

    @pytest.mark.parametrize(
        "a,b",
        [
            (100, 58),
            (1 << 64, 1),
            (0xFEDC_BA98_7654_3210, 0x0123_4567_89AB_CDEF),
        ],
    )
    def test_sub_wide_matches_bigint(self, session, a, b):
        ra = session.write_wide(a, 3)
        rb = session.write_wide(b, 3)
        out, _ = session.sub_wide(ra, rb)
        assert session.read_wide(out) == (a - b) & ((1 << 96) - 1)

    def test_sub_wide_borrow_flag(self, session):
        ra = session.write_wide(5, 2)
        rb = session.write_wide(6, 2)
        out, cf = session.sub_wide(ra, rb)
        assert session.read_carry(cf) == 0  # borrow happened (carry clear)

    def test_mismatched_limbs_rejected(self, session):
        with pytest.raises(ValueError):
            session.add_wide([1, 2], [3])


class TestLifecycle:
    def test_context_manager_halts(self):
        with Session() as s:
            s.put(1)
        assert s.system.soc.rtm.halted

    def test_build_keywords_rejected(self):
        """Regression: build keywords next to a system were silently dropped
        (the session ran on window 8 and the interpreted kernel)."""
        with pytest.raises(TypeError):
            Session(build_system(), window=2, backend="compiled")

    def test_drain_returns_cycles(self, session):
        session.put(5)
        assert session.drain() >= 0
        assert session.system.soc.rtm.lockmgr.all_free
