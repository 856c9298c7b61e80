"""Unit tests for the functional unit table's port-ordered unit view."""

from repro.fu import ArithmeticUnit, LogicUnit
from repro.isa import Opcode
from repro.rtm import FunctionalUnitTable


class _CountingGuard:
    """Stands in for FutableGuard: counts row validations."""

    def __init__(self):
        self.accesses = 0

    def on_access(self):
        self.accesses += 1


def test_unit_added_after_first_read_appears_in_next_read():
    table = FunctionalUnitTable()
    arith = ArithmeticUnit("a", 32)
    table.add(Opcode.ARITH, arith)
    assert table.units == (arith,)
    logic = LogicUnit("l", 32)
    table.add(Opcode.LOGIC, logic)
    assert table.units == (arith, logic)
    assert [table.lookup(c).port for c in (Opcode.ARITH, Opcode.LOGIC)] == [0, 1]


def test_every_units_read_validates_rows():
    # SEU accounting counts consultations: a cached view must not skip them
    table = FunctionalUnitTable()
    table.add(Opcode.ARITH, ArithmeticUnit("a", 32))
    guard = _CountingGuard()
    table._guard = guard
    for _ in range(3):
        table.units
    assert guard.accesses == 3
