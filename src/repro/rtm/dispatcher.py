"""Dispatcher — third pipeline stage (§III).

"Reads from the register file take place in the dispatcher stage, and
instructions that initiate a functional unit operation transmit data to the
functional unit through a register in this stage."

:class:`IssueStage` is that stage: operand fetch into a unit's dispatch
port, primitive resolution (framework primitives read their registers here
and travel on as a fully resolved :class:`ExecOp`), issue accounting and the
machine-check freeze.  Two hazard policies extend it: the in-order
:class:`Dispatcher` here and :class:`~repro.rtm.ooo.OoODispatcher`.

In order, an op waits while any of its source or destination registers is
locked by an older in-flight op (RAW and WAW, so GETs return a result stream
"consistent with the stream of instructions that were issued"), locks its
write set at the dispatch edge, and a FENCE waits until every register is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import FrameworkConfig
from ..fu.protocol import Transfer
from ..hdl import Component, Stream
from ..isa.opcodes import Opcode
from ..messages.types import DataRecord, FlagVector
from .decoder import DecodedOp, ExecOp
from .futable import FunctionalUnitTable
from .lockmgr import LockManager
from .regfile import FlagRegisterFile, RegisterFile


@dataclass
class IssueStats:
    """Issue counters of both dispatch engines (``dispatcher.stats``).

    Every stall cycle is charged to exactly one ``stall_*`` cause except
    ``stall_rename``: the out-of-order engine counts accept cycles lost to
    an exhausted physical-register pool, which may overlap an issue stall.
    """

    mode: str = "in-order"
    issued_total: int = 0          # unit dispatches + execution-stage ops
    unit_dispatches: int = 0
    exec_ops: int = 0
    stall_cycles: int = 0          # cycles work was held but nothing issued
    window_depth: int = 1          # issue-queue capacity
    window_occupancy_max: int = 1  # issue-queue high-water mark
    stall_raw: int = 0
    stall_waw: int = 0
    stall_structural: int = 0
    stall_fence: int = 0
    stall_machine_check: int = 0
    stall_rename: int = 0


class IssueStage(Component):
    """What both dispatch engines do the same way: operand fetch into a
    unit's dispatch port, primitive resolution, issue accounting, the
    machine-check freeze and the wheel veto.  An engine adds its hazard
    policy: its registers (:meth:`_declare`), its ``_drive``/``_tick``
    processes and :meth:`_wheel_horizon`."""

    def __init__(
        self,
        name: str,
        config: FrameworkConfig,
        regfile: RegisterFile,
        flagfile: FlagRegisterFile,
        lockmgr: LockManager,
        futable: FunctionalUnitTable,
        stats: IssueStats,
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.config = config
        self.regfile = regfile
        self.flagfile = flagfile
        self.lockmgr = lockmgr
        self.futable = futable
        #: machine-check unit (set by the RTM when state protection is on);
        #: see :meth:`_frozen`
        self.mcu = None
        #: from the decoder (DecodedOp payloads)
        self.inp = Stream(self, "in", None)
        #: to the execution stage (ExecOp payloads)
        self.out = Stream(self, "out", None)
        self._declare()
        #: high while work is held but nothing issues (observability/benches)
        self.stalled = self.signal("stalled", 1, 0)
        self.stats = stats

        # The tick is impure (stall tallies count real cycles): veto skipping
        # while the engine has work; skipping an idle engine ages nothing.
        self.wheel(self._wheel_horizon)

        # State-guard checks run inside the hazard reads: the scoreboard /
        # ECC shadows repair single-bit upsets with force() (inline ECC is a
        # settle-time correction, not a scheduled write) and their hidden
        # shadow state moves only alongside tracked lock-mask, rename-map or
        # machine-check register edges, which re-run the engine's processes.
        self.lint_suppress(
            "contract.force-in-proc",
            "inline ECC repair in the guards: guard-coupled to tracked "
            "lock-mask/rename-map/machine-check reads; a force here restores "
            "the value a tracked register already notified readers about",
        )
        self.lint_suppress(
            "contract.hidden-comb-read",
            "guard shadows and fault counters change only alongside tracked "
            "lock-mask / rename-map / machine-check register edges",
        )

    def _declare(self) -> None:
        """Declare the engine's own registers and nets (before ``stalled``)."""
        raise NotImplementedError

    def _wheel_horizon(self) -> Optional[int]:
        """0 while work is held, arriving or pending (the next edge is not
        pure aging), else None."""
        raise NotImplementedError

    def _frozen(self, op: DecodedOp) -> bool:
        """A pending machine check holds every op except a host Reset: no op
        may read or commit state an uncorrectable upset may have touched,
        but the Reset's soft-clear is what resolves the check."""
        mcu, exec_op = self.mcu, op.exec_op
        return (mcu is not None and mcu.pending
                and not (exec_op is not None and exec_op.clear_halt))

    def _count_issue(self, op: DecodedOp) -> None:
        """Issue accounting at the edge ``op`` leaves the stage."""
        stats = self.stats
        stats.issued_total += 1
        if op.kind == "unit":
            stats.unit_dispatches += 1
            guard = self.futable._guard
            if guard is not None:
                guard.on_dispatch()
        else:
            stats.exec_ops += 1

    # -- unit dispatch ------------------------------------------------------------

    def _drive_units(self, target, instr, regs: tuple) -> None:
        """Drive ``target``'s dispatch port with ``instr``'s variety, the operands
        read from ``regs = (src1, src2, src_flag, src_c, dst1, dst2, dst_flag)``
        and its destinations; every other unit's ``dispatch`` is held low."""
        for unit in self.futable.units:
            if unit is not target:
                unit.dp.dispatch.set(0)
                continue
            src1, src2, src_flag, src_c, dst1, dst2, dst_flag = regs
            dp = unit.dp
            dp.variety.set(instr.variety)
            dp.op_a.set(self.regfile.read(src1))
            dp.op_b.set(self.regfile.read(src2))
            dp.flag_in.set(self.flagfile.read(src_flag))
            dp.dst1.set(dst1)
            dp.dst2.set(dst2)
            dp.dst_flag.set(dst_flag)
            # Ternary units (FMA) read their accumulator from ``src_c``;
            # ports without the third bus make this a no-op (and read nothing).
            dp.drive_op_c(self.regfile, src_c)
            dp.dispatch.set(1)

    # -- primitive resolution (register reads happen here, per §III) ---------------

    def _resolve(self, instr, src: int, dst1: int, dst_flag: int) -> ExecOp:
        """The execution-stage work of a primitive that reads register
        ``src`` (the one register its decoder hazard set names) and writes
        ``dst1`` or ``dst_flag``."""
        opcode = instr.opcode
        if opcode == Opcode.COPY:
            return ExecOp(transfer=Transfer(data_reg=dst1, data_value=self.regfile.read(src)))
        if opcode == Opcode.CPFLAG:
            value = self.flagfile.read(src)
            return ExecOp(transfer=Transfer(flag_reg=dst_flag, flag_value=value))
        if opcode == Opcode.GET:
            return ExecOp(message=DataRecord(instr.variety, self.regfile.read(src)))
        if opcode == Opcode.GETF:
            return ExecOp(message=FlagVector(instr.variety, self.flagfile.read(src)))
        if opcode == Opcode.LOADIS:
            merged = ((self.regfile.read(src) << 32) | instr.imm) & self.config.word_mask
            return ExecOp(transfer=Transfer(data_reg=dst1, data_value=merged))
        raise AssertionError(f"unresolvable primitive opcode {opcode:#x}")


class Dispatcher(IssueStage):
    """In-order policy: hold one op, issue it once none of its registers is
    locked, and lock its write set at the issue edge."""

    def __init__(
        self,
        name: str,
        config: FrameworkConfig,
        regfile: RegisterFile,
        flagfile: FlagRegisterFile,
        lockmgr: LockManager,
        futable: FunctionalUnitTable,
        parent: Optional[Component] = None,
    ):
        super().__init__(name, config, regfile, flagfile, lockmgr, futable,
                         IssueStats(), parent)

        @self.comb
        def _drive() -> None:
            # Compute every output first, then drive each signal exactly once
            # per pass (a signal toggling within one pass would never settle).
            full = self._full.value
            op: Optional[DecodedOp] = self._op.value if full else None
            advancing = 0
            stalled = 0
            out_valid = 0
            out_payload: Optional[ExecOp] = None
            dispatch_target = None
            if op is not None:
                blocked = self.lockmgr.any_locked(op.sources) or self.lockmgr.any_locked(
                    op.write_set
                )
                if op.require_all_free and not self.lockmgr.all_free:
                    blocked = True
                if self._frozen(op):
                    blocked = True
                if blocked:
                    stalled = 1
                elif op.kind == "unit":
                    # Consult the static unit table rather than dereferencing
                    # the op's payload: the candidate set is fixed hardware.
                    target = op.entry.unit
                    for unit in self.futable.units:
                        if unit is target and unit.dp.idle.value:
                            dispatch_target = unit
                    if dispatch_target is not None:
                        advancing = 1
                    else:
                        stalled = 1
                else:  # execution-stage op
                    out_valid = 1
                    out_payload = op.exec_op
                    if out_payload is None:
                        instr = op.instr
                        out_payload = self._resolve(
                            instr, op.sources[0][1], instr.dst1, instr.dst_flag
                        )
                    advancing = 1 if self.out.ready.value else 0
            if dispatch_target is None:
                self._drive_units(None, None, ())
            else:
                # Ternary units read their accumulator from dst1.
                instr = op.instr
                self._drive_units(dispatch_target, instr, (
                    instr.src1, instr.src2, instr.src_flag, instr.dst1,
                    instr.dst1, instr.dst2, instr.dst_flag))
            self.out.valid.set(out_valid)
            if out_payload is not None:
                self.out.payload.set(out_payload)
            self._advancing.set(advancing)
            self.stalled.set(stalled)
            self.inp.ready.set((not full) or bool(advancing))

        @self.seq
        def _tick() -> None:
            if self._advancing.value:
                op: DecodedOp = self._op.value
                self._count_issue(op)
                self.lockmgr.lock_set(op.write_set)
            elif self.stalled.value:
                self.stats.stall_cycles += 1
                self._classify_stall(self._op.value)
            if self.inp.fires():
                self._op.nxt = self.inp.payload.value
                self._full.nxt = 1
            elif self._advancing.value:
                self._full.nxt = 0

    def _declare(self) -> None:
        self._full = self.reg("full", 1, 0)
        self._op = self.reg("op", None, reset=None)
        #: settles high when the held op completes this cycle (consumed by seq)
        self._advancing = self.signal("advancing", 1, 0)

    def _wheel_horizon(self) -> Optional[int]:
        if self._full.value or (self.inp.valid.value and self.inp.ready.value):
            return 0
        return None

    # -- observability -------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """Work in flight in this stage (quiescence probe)."""
        return bool(self._full.value)

    def _classify_stall(self, op: DecodedOp) -> None:
        # Counters only: the guard-free peeks keep the classification from
        # adding query-time repair points the functional path never had.
        stats = self.stats
        if self.lockmgr.peek_any_locked(op.sources):
            stats.stall_raw += 1
        elif self.lockmgr.peek_any_locked(op.write_set):
            stats.stall_waw += 1
        elif op.require_all_free and not self.lockmgr.peek_all_free:
            stats.stall_fence += 1
        elif self.mcu is not None and self.mcu.pending:
            stats.stall_machine_check += 1
        else:
            stats.stall_structural += 1
