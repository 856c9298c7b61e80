"""Decoder — second pipeline stage (§III).

"The current instruction is decoded into a vector of signals that control
the execution stage."  The decoder classifies each host message /
instruction word, validates register indices against the configured sizes,
consults the functional unit table for user instructions, and computes the
hazard sets (source registers and write set) the dispatcher's lock checks
need.  Illegal opcodes and out-of-range registers become exception
operations that travel down the pipeline and are reported to the host —
the RTM never wedges on bad input.
"""

from __future__ import annotations

from typing import Optional

from ..config import FrameworkConfig
from ..fu.protocol import Transfer, WriteSpace
from ..hdl import Component, Stream
from ..isa.encoding import Instruction, decode as decode_word
from ..isa.opcodes import FIRST_UNIT_OPCODE, Opcode
from ..messages.types import (
    BadFrame,
    ExceptionCode,
    ExceptionReport,
    Exec,
    Halted,
    Message,
    Reset,
    WriteFlags,
    WriteReg,
)
from ..record import record
from .futable import FunctionalUnitTable, UnitEntry

RegSet = tuple[tuple[WriteSpace, int], ...]


@record
class ExecOp:
    """Fully resolved work for the execution stage."""

    transfer: Optional[Transfer] = None
    message: Optional[Message] = None
    set_halt: bool = False
    clear_halt: bool = False

    @property
    def is_nop(self) -> bool:
        return (
            self.transfer is None
            and self.message is None
            and not self.set_halt
            and not self.clear_halt
        )


@record
class DecodedOp:
    """Decoder → dispatcher bundle: classification plus hazard information."""

    kind: str                               # 'unit' | 'exec'
    instr: Optional[Instruction] = None
    entry: Optional[UnitEntry] = None
    sources: RegSet = ()
    write_set: RegSet = ()
    require_all_free: bool = False
    #: pre-resolved execution work for ops needing no register-file reads
    exec_op: Optional[ExecOp] = None
    _reads_rf: bool = False  # dispatcher must resolve via RF reads

    @property
    def needs_resolution(self) -> bool:
        return self._reads_rf


def _exception_op(code: ExceptionCode, info: int) -> DecodedOp:
    return DecodedOp(
        kind="exec",
        exec_op=ExecOp(message=ExceptionReport(int(code), info & 0xFFFF_FFFF)),
    )


class Decoder(Component):
    """Registered decode stage: held message decoded combinationally."""

    def __init__(
        self,
        name: str,
        config: FrameworkConfig,
        futable: FunctionalUnitTable,
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.config = config
        self.futable = futable
        #: from the message buffer (Message payloads)
        self.inp = Stream(self, "in", None)
        #: to the dispatcher (DecodedOp payloads)
        self.out = Stream(self, "out", None)
        self._full = self.reg("full", 1, 0)
        self._msg = self.reg("msg", None, reset=None)
        self.decode_errors = 0

        @self.comb
        def _drive() -> None:
            full = self._full.value
            self.out.valid.set(full)
            if full:
                self.out.payload.set(self._decode(self._msg.value))
            self.inp.ready.set((not full) or bool(self.out.ready.value))

        @self.seq(pure=True)
        def _tick() -> None:
            if self.out.fires():
                op = self.out.payload.value
                if (
                    op.exec_op is not None
                    and isinstance(op.exec_op.message, ExceptionReport)
                ):
                    self.decode_errors += 1
            if self.inp.fires():
                self._msg.nxt = self.inp.payload.value
                self._full.nxt = 1
            elif self.out.fires():
                self._full.nxt = 0

        # Guard-coupled purity: decode_errors only moves on out.fires()
        # paths, which always stage _full/_msg — a disarm-eligible (no-stage)
        # edge provably mutates nothing, which is all pure=True promises.
        self.lint_suppress(
            "contract.impure-pure-seq",
            "decode_errors increments only on out.fires() paths, which always "
            "stage; quiet edges are mutation-free",
        )

    # -- decode logic ("lookup tables implicitly synthesised into Decoder") ------

    def _valid_reg(self, reg: int) -> bool:
        return reg < self.config.n_regs

    def _valid_flag(self, reg: int) -> bool:
        return reg < self.config.n_flag_regs

    def _decode(self, msg: Message) -> DecodedOp:
        if isinstance(msg, Exec):
            return self._decode_instruction(msg.word)
        if isinstance(msg, WriteReg):
            if not self._valid_reg(msg.reg):
                return _exception_op(ExceptionCode.BAD_REGISTER, msg.reg)
            return DecodedOp(
                kind="exec",
                write_set=((WriteSpace.DATA, msg.reg),),
                exec_op=ExecOp(
                    transfer=Transfer(
                        data_reg=msg.reg, data_value=msg.value & self.config.word_mask
                    )
                ),
            )
        if isinstance(msg, WriteFlags):
            if not self._valid_flag(msg.flag_reg):
                return _exception_op(ExceptionCode.BAD_REGISTER, msg.flag_reg)
            return DecodedOp(
                kind="exec",
                write_set=((WriteSpace.FLAG, msg.flag_reg),),
                exec_op=ExecOp(
                    transfer=Transfer(flag_reg=msg.flag_reg, flag_value=msg.value)
                ),
            )
        if isinstance(msg, Reset):
            return DecodedOp(kind="exec", exec_op=ExecOp(clear_halt=True))
        if isinstance(msg, BadFrame):
            return _exception_op(ExceptionCode.BAD_MESSAGE, msg.header)
        return _exception_op(ExceptionCode.BAD_MESSAGE, 0)

    def _decode_instruction(self, word: int) -> DecodedOp:
        instr = decode_word(word)
        op = instr.opcode
        if op >= FIRST_UNIT_OPCODE:
            return self._decode_unit(instr)
        return self._decode_primitive(instr)

    def _decode_unit(self, instr: Instruction) -> DecodedOp:
        # Parallel match over the static table (a decode ROM in hardware):
        # the candidate rows are fixed at elaboration, so every row's write
        # profile is named here rather than reached through a dynamic lookup.
        entry = None
        for code, cand in self.futable.entries.items():
            if code == instr.opcode:
                entry = cand
        if entry is None:
            return _exception_op(ExceptionCode.ILLEGAL_OPCODE, instr.opcode)
        w1, w2, wf = entry.write_profile(instr.variety)
        reads_c = bool(getattr(entry.unit, "reads_dst1", False))
        for reg, used in (
            (instr.src1, True),
            (instr.src2, True),
            (instr.dst1, w1 or reads_c),
            (instr.dst2, w2),
        ):
            if used and not self._valid_reg(reg):
                return _exception_op(ExceptionCode.BAD_REGISTER, reg)
        if not self._valid_flag(instr.src_flag) or (wf and not self._valid_flag(instr.dst_flag)):
            return _exception_op(ExceptionCode.BAD_REGISTER, instr.dst_flag)
        sources: list[tuple[WriteSpace, int]] = [
            (WriteSpace.DATA, instr.src1),
            (WriteSpace.DATA, instr.src2),
        ]
        if getattr(entry.unit, "reads_flag", True):
            sources.append((WriteSpace.FLAG, instr.src_flag))
        if reads_c:
            sources.append((WriteSpace.DATA, instr.dst1))
        write_set: list[tuple[WriteSpace, int]] = []
        if w1:
            write_set.append((WriteSpace.DATA, instr.dst1))
        if w2:
            write_set.append((WriteSpace.DATA, instr.dst2))
        if wf:
            write_set.append((WriteSpace.FLAG, instr.dst_flag))
        return DecodedOp(
            kind="unit",
            instr=instr,
            entry=entry,
            sources=tuple(sources),
            write_set=tuple(write_set),
        )

    def _decode_primitive(self, instr: Instruction) -> DecodedOp:
        op = instr.opcode
        cfg = self.config
        if op == Opcode.NOP:
            return DecodedOp(kind="exec", exec_op=ExecOp())
        if op == Opcode.HALT:
            return DecodedOp(
                kind="exec", exec_op=ExecOp(message=Halted(), set_halt=True)
            )
        if op == Opcode.FENCE:
            return DecodedOp(kind="exec", require_all_free=True, exec_op=ExecOp())
        if op == Opcode.COPY:
            if not (self._valid_reg(instr.dst1) and self._valid_reg(instr.src1)):
                return _exception_op(ExceptionCode.BAD_REGISTER, instr.dst1)
            return DecodedOp(
                kind="exec",
                instr=instr,
                sources=((WriteSpace.DATA, instr.src1),),
                write_set=((WriteSpace.DATA, instr.dst1),),
                _reads_rf=True,
            )
        if op == Opcode.CPFLAG:
            if not (self._valid_flag(instr.dst_flag) and self._valid_flag(instr.src_flag)):
                return _exception_op(ExceptionCode.BAD_REGISTER, instr.dst_flag)
            return DecodedOp(
                kind="exec",
                instr=instr,
                sources=((WriteSpace.FLAG, instr.src_flag),),
                write_set=((WriteSpace.FLAG, instr.dst_flag),),
                _reads_rf=True,
            )
        if op == Opcode.GET:
            if not self._valid_reg(instr.src1):
                return _exception_op(ExceptionCode.BAD_REGISTER, instr.src1)
            return DecodedOp(
                kind="exec",
                instr=instr,
                sources=((WriteSpace.DATA, instr.src1),),
                _reads_rf=True,
            )
        if op == Opcode.GETF:
            if not self._valid_flag(instr.src_flag):
                return _exception_op(ExceptionCode.BAD_REGISTER, instr.src_flag)
            return DecodedOp(
                kind="exec",
                instr=instr,
                sources=((WriteSpace.FLAG, instr.src_flag),),
                _reads_rf=True,
            )
        if op == Opcode.LOADI:
            if not self._valid_reg(instr.dst1):
                return _exception_op(ExceptionCode.BAD_REGISTER, instr.dst1)
            return DecodedOp(
                kind="exec",
                write_set=((WriteSpace.DATA, instr.dst1),),
                exec_op=ExecOp(
                    transfer=Transfer(data_reg=instr.dst1, data_value=instr.imm & cfg.word_mask)
                ),
            )
        if op == Opcode.LOADIS:
            if not self._valid_reg(instr.dst1):
                return _exception_op(ExceptionCode.BAD_REGISTER, instr.dst1)
            return DecodedOp(
                kind="exec",
                instr=instr,
                sources=((WriteSpace.DATA, instr.dst1),),
                write_set=((WriteSpace.DATA, instr.dst1),),
                _reads_rf=True,
            )
        if op == Opcode.SETF:
            if not self._valid_flag(instr.dst_flag):
                return _exception_op(ExceptionCode.BAD_REGISTER, instr.dst_flag)
            return DecodedOp(
                kind="exec",
                write_set=((WriteSpace.FLAG, instr.dst_flag),),
                exec_op=ExecOp(
                    transfer=Transfer(flag_reg=instr.dst_flag, flag_value=instr.variety)
                ),
            )
        # No counter bump here: _decode runs at settle rate (possibly several
        # times per cycle), so errors are tallied in _tick when the decoded
        # ExceptionReport actually leaves the stage — counting here as well
        # double-counted every illegal opcode.
        return _exception_op(ExceptionCode.ILLEGAL_OPCODE, instr.opcode)
