"""Bit-level layout of the 64-bit RTM instruction word.

The paper fixes the instruction word at 64 bits and shows (Fig. 7 / thesis
Table 3.1) that an instruction names a function code, a variety with
datapath-steering modifier bits, up to three source registers (two data +
one flag) and up to two destination registers plus a destination flag
register.  The exact bit positions in the published figure are not fully
legible, so this module documents our reconstruction — chosen to hold every
field the paper requires at byte-aligned positions:

===========  =========  ====================================================
bits         field      meaning
===========  =========  ====================================================
``[63:56]``  opcode     function code; ``0x00–0x0F`` are framework
                        primitives executed in the RTM pipeline, values
                        ``>= 0x10`` select a functional unit (the thesis
                        lists the arithmetic unit under function code 16)
``[55:48]``  variety    8-bit variety code forwarded verbatim to the
                        functional unit (``variety_code[7..0]`` in Fig. 5)
``[47:40]``  dst_flag   destination flag register
``[39:32]``  dst1       first destination register
``[31:24]``  dst2       second destination register
``[23:16]``  src1       first source register
``[15:8]``   src2       second source register
``[7:0]``    src_flag   source flag register
===========  =========  ====================================================

Immediate-format instructions (``LOADI``/``LOADIS``) reuse ``[31:0]`` as a
32-bit immediate, overlapping dst2/src1/src2/src_flag.

A :class:`Field` computes its ``width`` and ``mask`` once, at construction,
since every encode and decode of an op reads them; they take no part in
its equality, hash or repr.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORD_BITS = 64

OPCODE_BITS = 8
VARIETY_BITS = 8
REGFIELD_BITS = 8
IMM_BITS = 32

#: Maximum register index addressable by an instruction field.
MAX_REG_INDEX = (1 << REGFIELD_BITS) - 1


@dataclass(frozen=True)
class Field:
    """An inclusive bit slice ``[hi:lo]`` of the instruction word."""

    name: str
    hi: int
    lo: int
    width: int = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = self.hi - self.lo + 1
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "mask", (1 << width) - 1)

    def extract(self, word: int) -> int:
        return (word >> self.lo) & self.mask

    def insert(self, word: int, value: int) -> int:
        if value & ~self.mask:
            raise ValueError(
                f"value {value:#x} does not fit in field {self.name} ({self.width} bits)"
            )
        return (word & ~(self.mask << self.lo)) | ((value & self.mask) << self.lo)


OPCODE = Field("opcode", 63, 56)
VARIETY = Field("variety", 55, 48)
DST_FLAG = Field("dst_flag", 47, 40)
DST1 = Field("dst1", 39, 32)
DST2 = Field("dst2", 31, 24)
SRC1 = Field("src1", 23, 16)
SRC2 = Field("src2", 15, 8)
SRC_FLAG = Field("src_flag", 7, 0)
IMM32 = Field("imm32", 31, 0)

REGISTER_FORMAT_FIELDS = (OPCODE, VARIETY, DST_FLAG, DST1, DST2, SRC1, SRC2, SRC_FLAG)
IMMEDIATE_FORMAT_FIELDS = (OPCODE, VARIETY, DST_FLAG, DST1, IMM32)
