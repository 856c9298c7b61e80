"""T1/T2 — thesis Tables 3.1 and 3.2 executed through the full coprocessor.

Every row is written, dispatched and fenced end to end.  Each unit has one
shared datapath steered by variety bits, so every row returns its own
result at one and the same cost: 17 cycles from EXEC to quiet.
"""

import pytest

from repro.host import CoprocessorDriver
from repro.isa import ArithOp, LogicOp, instructions as ins
from repro.isa.opcodes import Opcode
from repro.system import build_system

from .claims import pin

ROW_CYCLES = 17
MASK = 0xFFFF_FFFF

T1_A, T1_B = 1000, 58
T1_RESULTS = {
    ArithOp.ADD: T1_A + T1_B,
    ArithOp.ADC: T1_A + T1_B,            # carry flag starts 0
    ArithOp.SUB: T1_A - T1_B,
    ArithOp.SBB: T1_A - T1_B - 1,        # carry 0 ⇒ borrow
    ArithOp.INC: T1_A + 1,
    ArithOp.DEC: T1_A - 1,
    ArithOp.NEG: -T1_B & MASK,
    ArithOp.CMP: None,                   # flags only
    ArithOp.CMPB: None,
}

T2_A, T2_B = 0b1100_1010_1111_0000, 0b1010_0110_0000_1111
T2_RESULTS = {
    LogicOp.AND: T2_A & T2_B,
    LogicOp.OR: T2_A | T2_B,
    LogicOp.XOR: T2_A ^ T2_B,
    LogicOp.NOT: ~T2_A & MASK,
    LogicOp.NAND: ~(T2_A & T2_B) & MASK,
    LogicOp.NOR: ~(T2_A | T2_B) & MASK,
    LogicOp.XNOR: ~(T2_A ^ T2_B) & MASK,
    LogicOp.ANDN: T2_A & ~T2_B & MASK,
    LogicOp.ORN: T2_A | (~T2_B & MASK),
    LogicOp.PASS: T2_A,
}


def _run_row(opcode: Opcode, variety: int, a: int, b: int, read: bool):
    """(cycles from EXEC to quiet, r3 or None) for one table row."""
    driver = CoprocessorDriver(build_system(lint="off"))
    driver.write_reg(1, a)
    driver.write_reg(2, b)
    driver.run_until_quiet()
    start = driver.cycles
    driver.execute(ins.dispatch(opcode, variety, dst1=3, src1=1, src2=2, dst_flag=1))
    driver.execute(ins.fence())
    driver.run_until_quiet()
    return driver.cycles - start, driver.read_reg(3) if read else None


@pytest.mark.parametrize("op", list(ArithOp), ids=lambda o: o.name)
def test_t1_row(op):
    expected = T1_RESULTS[op]
    cycles, result = _run_row(Opcode.ARITH, int(op), T1_A, T1_B, expected is not None)
    pin(f"T1 {op.name} result", expected, result)
    pin(f"T1 {op.name} cycles", ROW_CYCLES, cycles)


@pytest.mark.parametrize("op", list(LogicOp), ids=lambda o: o.name)
def test_t2_row(op):
    cycles, result = _run_row(Opcode.LOGIC, int(op), T2_A, T2_B, True)
    pin(f"T2 {op.name} result", T2_RESULTS[op], result)
    pin(f"T2 {op.name} cycles", ROW_CYCLES, cycles)
