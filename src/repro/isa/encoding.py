"""Encode/decode between :class:`Instruction` objects and 64-bit words."""

from __future__ import annotations

from dataclasses import replace

from ..record import record
from . import fields
from .fields import (
    DST1,
    DST2,
    DST_FLAG,
    IMM32,
    OPCODE,
    SRC1,
    SRC2,
    SRC_FLAG,
    VARIETY,
)
from .opcodes import IMMEDIATE_OPCODES, Opcode


class EncodingError(ValueError):
    """An instruction could not be encoded or decoded."""


@record
class Instruction:
    """A decoded RTM instruction.

    ``imm`` is only meaningful for the immediate-format opcodes
    (``LOADI``/``LOADIS``); for those, dst2/src1/src2/src_flag must be zero
    since their bits are occupied by the immediate.
    """

    opcode: int
    variety: int = 0
    dst_flag: int = 0
    dst1: int = 0
    dst2: int = 0
    src1: int = 0
    src2: int = 0
    src_flag: int = 0
    imm: int = 0

    @property
    def is_immediate(self) -> bool:
        return self.opcode in IMMEDIATE_OPCODES

    @property
    def is_primitive(self) -> bool:
        return self.opcode < fields_first_unit_opcode()

    @property
    def unit_code(self) -> int:
        """The functional-unit selector for dispatched instructions."""
        return self.opcode

    def with_variety(self, variety: int) -> "Instruction":
        return replace(self, variety=variety)

    def mnemonic_hint(self) -> str:
        try:
            return Opcode(self.opcode).name
        except ValueError:
            return f"UNIT_{self.opcode:#04x}"


def fields_first_unit_opcode() -> int:
    from .opcodes import FIRST_UNIT_OPCODE

    return FIRST_UNIT_OPCODE


def _check_range(name: str, value: int, width: int) -> None:
    if not 0 <= value < (1 << width):
        raise EncodingError(f"{name} value {value} does not fit in {width} bits")


def encode(instr: Instruction) -> int:
    """Pack an :class:`Instruction` into its 64-bit word."""
    _check_range("opcode", instr.opcode, OPCODE.width)
    _check_range("variety", instr.variety, VARIETY.width)
    _check_range("dst_flag", instr.dst_flag, DST_FLAG.width)
    _check_range("dst1", instr.dst1, DST1.width)
    word = 0
    word = OPCODE.insert(word, instr.opcode)
    word = VARIETY.insert(word, instr.variety)
    word = DST_FLAG.insert(word, instr.dst_flag)
    word = DST1.insert(word, instr.dst1)
    if instr.is_immediate:
        if instr.dst2 or instr.src1 or instr.src2 or instr.src_flag:
            raise EncodingError(
                "immediate-format instruction cannot carry dst2/src1/src2/src_flag"
            )
        _check_range("imm", instr.imm, IMM32.width)
        word = IMM32.insert(word, instr.imm)
    else:
        if instr.imm:
            raise EncodingError("register-format instruction cannot carry an immediate")
        _check_range("dst2", instr.dst2, DST2.width)
        _check_range("src1", instr.src1, SRC1.width)
        _check_range("src2", instr.src2, SRC2.width)
        _check_range("src_flag", instr.src_flag, SRC_FLAG.width)
        word = DST2.insert(word, instr.dst2)
        word = SRC1.insert(word, instr.src1)
        word = SRC2.insert(word, instr.src2)
        word = SRC_FLAG.insert(word, instr.src_flag)
    return word


def decode(word: int) -> Instruction:
    """Unpack a 64-bit instruction word."""
    if not 0 <= word < (1 << fields.WORD_BITS):
        raise EncodingError(f"instruction word {word:#x} exceeds 64 bits")
    opcode = OPCODE.extract(word)
    variety = VARIETY.extract(word)
    dst_flag = DST_FLAG.extract(word)
    dst1 = DST1.extract(word)
    if opcode in IMMEDIATE_OPCODES:
        return Instruction(
            opcode=opcode,
            variety=variety,
            dst_flag=dst_flag,
            dst1=dst1,
            imm=IMM32.extract(word),
        )
    return Instruction(
        opcode=opcode,
        variety=variety,
        dst_flag=dst_flag,
        dst1=dst1,
        dst2=DST2.extract(word),
        src1=SRC1.extract(word),
        src2=SRC2.extract(word),
        src_flag=SRC_FLAG.extract(word),
    )
