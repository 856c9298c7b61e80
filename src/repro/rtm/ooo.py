"""Out-of-order issue engine — rename + issue-queue dispatcher stage.

Drop-in replacement for the in-order :class:`~repro.rtm.dispatcher.Dispatcher`
(same decoder/execution stream interface, same futable dispatch ports) that
lets independent younger instructions bypass a stalled older one:

* **Rename at accept.** When an op enters the issue queue its source
  operands are mapped through the :class:`~repro.rtm.rename.RenameTable`
  and each destination is allocated a fresh physical register, which is
  locked in the scoreboard *at the rename edge*.  WAW and WAR hazards
  disappear: a younger write to the same architectural register gets a
  different physical register, and the old one lives on until every older
  reader has issued.
* **Oldest-first issue.** Each cycle one ready op issues from the queue —
  the oldest whose (physical) sources are unlocked and whose target unit
  is idle.  Two ordering fences keep the paper's contracts observable:
  execution-stage ops (GET/GETF, COPY, host writes, …) issue in program
  order among themselves, so the host result stream is byte-identical to
  the in-order machine's; and ops targeting the *same* functional unit
  issue in program order, so stateful units (PRNG, histogram, …) see the
  operation sequence the program wrote.
* **FENCE / HALT / RESET are barriers**: they issue only from the queue
  head and nothing younger may bypass them.
* **Retire unchanged.** Results still drain through the write arbiter and
  the lock manager exactly as before — completion was already
  out-of-order; only *issue* is new.

In-order GET guarantee: a GET reads the physical register its rename-time
map pointed at, i.e. the value produced by the youngest program-order
write before it; since its sources were locked at rename until that write
committed, and GETs issue in program order, the emitted stream equals the
in-order machine's byte for byte.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Optional

from ..config import FrameworkConfig
from ..fu.protocol import Transfer, WriteSpace
from ..hdl import Component, Stream
from ..isa.opcodes import Opcode
from ..messages.types import DataRecord, FlagVector
from ..record import record
from .decoder import DecodedOp, ExecOp, RegSet
from .dispatcher import IssueStats
from .futable import FunctionalUnitTable
from .lockmgr import LockManager
from .regfile import FlagRegisterFile, RegisterFile
from .rename import RenameTable


@record
class RenamedOp:
    """A decoded op with every register field mapped to physical indices."""

    op: DecodedOp
    #: physical sources (readiness check + reader accounting; may repeat)
    sources: RegSet = ()
    #: physical write set (informational; locks were taken at rename)
    write_set: RegSet = ()
    # unit-op operand registers (physical)
    psrc1: int = 0
    psrc2: int = 0
    psrc_flag: int = 0
    psrc_c: int = 0
    # exec-op single source (meaning depends on the opcode)
    psrc: int = 0
    # destinations (physical; default to 0 when unused)
    pdst1: int = 0
    pdst2: int = 0
    pdst_flag: int = 0
    #: pre-resolved execution work retargeted to physical registers
    exec_op: Optional[ExecOp] = None

    @property
    def is_barrier(self) -> bool:
        """FENCE/HALT/RESET: head-of-queue only, nothing may bypass."""
        op = self.op
        return op.require_all_free or (
            op.exec_op is not None
            and (op.exec_op.set_halt or op.exec_op.clear_halt)
        )


class OoODispatcher(Component):
    """Issue-queue dispatch stage with register renaming."""

    def __init__(
        self,
        name: str,
        config: FrameworkConfig,
        regfile: RegisterFile,
        flagfile: FlagRegisterFile,
        lockmgr: LockManager,
        futable: FunctionalUnitTable,
        rename: RenameTable,
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.config = config
        self.regfile = regfile
        self.flagfile = flagfile
        self.lockmgr = lockmgr
        self.futable = futable
        self.rename = rename
        self.window = config.ooo_window
        #: machine-check unit (set by the RTM when state protection is on);
        #: a pending check freezes issue except for a host Reset at the head
        self.mcu = None
        #: from the decoder (DecodedOp payloads)
        self.inp = Stream(self, "in", None)
        #: to the execution stage (ExecOp payloads)
        self.out = Stream(self, "out", None)
        #: the issue queue, oldest first (tuple of RenamedOp)
        self._queue = self.reg("queue", None, ())
        #: queue index selected for issue this cycle (-1: none)
        self._issue_sel = self.signal("issue_sel", None, -1)
        #: high while the queue holds work but nothing can issue
        self.stalled = self.signal("stalled", 1, 0)
        self.stats = IssueStats(
            mode="ooo", window_depth=self.window, window_occupancy_max=0
        )

        @self.comb
        def _drive() -> None:
            queue: tuple[RenamedOp, ...] = self._queue.value
            sel = self._select(queue)
            rop = queue[sel] if sel >= 0 else None
            out_valid = 0
            out_payload: Optional[ExecOp] = None
            dispatch_target = None
            if rop is not None:
                if rop.op.kind == "unit":
                    dispatch_target = rop.op.entry.unit
                else:
                    out_valid = 1
                    out_payload = self._resolve(rop)
            for unit in self.futable.units:
                if unit is dispatch_target:
                    self._drive_unit_port(unit, rop)
                else:
                    unit.dp.dispatch.set(0)
            self.out.valid.set(out_valid)
            if out_payload is not None:
                self.out.payload.set(out_payload)
            self._issue_sel.set(sel)
            self.stalled.set(1 if (queue and sel < 0) else 0)
            # Accept gating is payload-independent: queue space plus enough
            # free physical registers for a worst-case rename.
            self.inp.ready.set(
                1 if (len(queue) < self.window and self.rename.can_accept) else 0
            )

        @self.seq
        def _tick() -> None:
            queue: tuple[RenamedOp, ...] = self._queue.value
            sel = self._issue_sel.value
            stats = self.stats
            new_queue = queue
            if sel >= 0:
                rop = queue[sel]
                stats.issued_total += 1
                if rop.op.kind == "unit":
                    stats.unit_dispatches += 1
                    guard = self.futable._guard
                    if guard is not None:
                        guard.on_dispatch()
                else:
                    stats.exec_ops += 1
                self.rename.drop_readers(rop.sources)
                new_queue = queue[:sel] + queue[sel + 1 :]
            elif queue:
                stats.stall_cycles += 1
                self._classify_stall(queue)
            if self.inp.fires():
                new_queue = new_queue + (self._rename(self.inp.payload.value),)
            elif (
                self.inp.valid.value
                and len(queue) < self.window
                and not self.rename.can_accept
            ):
                stats.stall_rename += 1
            if new_queue is not queue:
                self._queue.nxt = new_queue
                if len(new_queue) > stats.window_occupancy_max:
                    stats.window_occupancy_max = len(new_queue)
            self.rename.recycle(self.lockmgr)

        # Veto wheel skips while any work is queued, arriving, or awaiting
        # recycle; an empty engine with a drained rename table ages nothing.
        self.wheel(self._wheel_horizon, lambda n: None)

        # Same guard coupling as the in-order dispatcher: scoreboard/ECC
        # shadows repair inline during hazard reads, and their hidden state
        # moves only alongside tracked register edges.
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

    # -- properties ----------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """Work in flight in this stage (quiescence probe)."""
        return bool(self._queue.value)

    def _wheel_horizon(self) -> Optional[int]:
        if self._queue.value:
            return 0
        if self.inp.valid.value:
            return 0
        if self.rename.has_pending:
            return 0
        return None

    # -- issue selection -------------------------------------------------------------

    def _select(self, queue: tuple[RenamedOp, ...]) -> int:
        """Oldest-first scan for the single op issuing this cycle."""
        if not queue:
            return -1
        if self.mcu is not None and self.mcu.pending:
            # Freeze: only a host Reset at the head may issue, so its
            # soft-clear can resolve the check.
            head = queue[0].op
            if (
                head.exec_op is not None
                and head.exec_op.clear_halt
                and self.out.ready.value
            ):
                return 0
            return -1
        exec_blocked = False
        busy_units: set = set()
        for i, rop in enumerate(queue):
            op = rop.op
            if rop.is_barrier:
                # A head barrier waits only for OLDER work: destination
                # locks taken at rename by the queued younger ops behind
                # it must not deadlock the drain condition.
                if (
                    i == 0
                    and self.out.ready.value
                    and (
                        not op.require_all_free
                        or self.lockmgr.all_free_except(
                            self._queued_locks(queue)
                        )
                    )
                ):
                    return 0
                return -1
            ready = not self.lockmgr.any_locked(rop.sources)
            if op.kind == "exec":
                # Execution-stage ops stay in program order among themselves
                # (the in-order host-stream guarantee).
                if not exec_blocked:
                    if ready and self.out.ready.value:
                        return i
                    exec_blocked = True
            else:
                unit = op.entry.unit
                if unit not in busy_units:
                    if ready and unit.dp.idle.value:
                        return i
                    # Per-unit program order: a younger op may not overtake
                    # an older one bound for the same (possibly stateful) unit.
                    busy_units.add(unit)
        return -1

    @staticmethod
    def _queued_locks(queue: tuple[RenamedOp, ...]) -> list:
        """Rename-held destination locks of everything behind the head."""
        pairs: list[tuple[WriteSpace, int]] = []
        for rop in queue[1:]:
            pairs.extend(rop.write_set)
        return pairs

    # -- rename (accept edge) ---------------------------------------------------------

    def _rename(self, op: DecodedOp) -> RenamedOp:
        rt = self.rename
        sources: list[tuple[WriteSpace, int]] = []
        fields = {}

        def src(space: WriteSpace, arch: int) -> int:
            phys = rt.read_source(space, arch)
            sources.append((space, phys))
            return phys

        # Sources map through the *current* table, before this op's own
        # destinations shadow them (LOADIS and FMA read their old dst1).
        if op.kind == "unit":
            instr = op.instr
            fields["psrc1"] = src(WriteSpace.DATA, instr.src1)
            fields["psrc2"] = src(WriteSpace.DATA, instr.src2)
            if getattr(op.entry.unit, "reads_flag", True):
                fields["psrc_flag"] = src(WriteSpace.FLAG, instr.src_flag)
            if getattr(op.entry.unit, "reads_dst1", False):
                fields["psrc_c"] = src(WriteSpace.DATA, instr.dst1)
        elif op.sources:
            # Primitives read at most one register (see decoder hazard sets).
            space, arch = op.sources[0]
            fields["psrc"] = src(space, arch)
        write_set = []
        pdst = {}
        for space, arch in op.write_set:
            phys = rt.allocate(space, arch)
            self.lockmgr.lock(space, phys)
            write_set.append((space, phys))
            pdst[(space, arch)] = phys
        if op.kind == "unit":
            instr = op.instr
            fields["pdst1"] = pdst.get((WriteSpace.DATA, instr.dst1), 0)
            fields["pdst2"] = pdst.get((WriteSpace.DATA, instr.dst2), 0)
            fields["pdst_flag"] = pdst.get((WriteSpace.FLAG, instr.dst_flag), 0)
        elif write_set:
            space, phys = write_set[0]
            if space is WriteSpace.DATA:
                fields["pdst1"] = phys
            else:
                fields["pdst_flag"] = phys
        exec_op = op.exec_op
        if exec_op is not None and exec_op.transfer is not None:
            # Pre-resolved transfer (host write, LOADI, SETF): retarget the
            # destination register to its fresh physical slot.
            t = exec_op.transfer
            if t.data_reg is not None:
                t = dc_replace(t, data_reg=pdst[(WriteSpace.DATA, t.data_reg)])
            if t.flag_reg is not None:
                t = dc_replace(t, flag_reg=pdst[(WriteSpace.FLAG, t.flag_reg)])
            exec_op = dc_replace(exec_op, transfer=t)
        return RenamedOp(
            op=op,
            sources=tuple(sources),
            write_set=tuple(write_set),
            exec_op=exec_op,
            **fields,
        )

    # -- unit dispatch ----------------------------------------------------------------

    def _drive_unit_port(self, unit, rop: RenamedOp) -> None:
        instr = rop.op.instr
        dp = unit.dp
        dp.variety.set(instr.variety)
        dp.op_a.set(self.regfile.read(rop.psrc1))
        dp.op_b.set(self.regfile.read(rop.psrc2))
        dp.flag_in.set(self.flagfile.read(rop.psrc_flag))
        dp.dst1.set(rop.pdst1)
        dp.dst2.set(rop.pdst2)
        dp.dst_flag.set(rop.pdst_flag)
        dp.drive_op_c(self.regfile, rop.psrc_c)
        dp.dispatch.set(1)

    # -- primitive resolution (physical-register reads at issue) ------------------------

    def _resolve(self, rop: RenamedOp) -> ExecOp:
        if rop.exec_op is not None:
            return rop.exec_op
        op = rop.op
        instr = op.instr
        cfg = self.config
        opcode = instr.opcode
        if opcode == Opcode.COPY:
            return ExecOp(
                transfer=Transfer(
                    data_reg=rop.pdst1, data_value=self.regfile.read(rop.psrc)
                )
            )
        if opcode == Opcode.CPFLAG:
            return ExecOp(
                transfer=Transfer(
                    flag_reg=rop.pdst_flag,
                    flag_value=self.flagfile.read(rop.psrc),
                )
            )
        if opcode == Opcode.GET:
            return ExecOp(
                message=DataRecord(instr.variety, self.regfile.read(rop.psrc))
            )
        if opcode == Opcode.GETF:
            return ExecOp(
                message=FlagVector(instr.variety, self.flagfile.read(rop.psrc))
            )
        if opcode == Opcode.LOADIS:
            merged = ((self.regfile.read(rop.psrc) << 32) | instr.imm) & cfg.word_mask
            return ExecOp(transfer=Transfer(data_reg=rop.pdst1, data_value=merged))
        raise AssertionError(f"unresolvable primitive opcode {opcode:#x}")

    # -- stall-cause classification (observability only; guard-free peeks) ---------------

    def _classify_stall(self, queue: tuple[RenamedOp, ...]) -> None:
        head = queue[0]
        stats = self.stats
        if self.mcu is not None and self.mcu.pending:
            stats.stall_machine_check += 1
        elif head.op.require_all_free and not self.lockmgr.peek_all_free_except(
            self._queued_locks(queue)
        ):
            stats.stall_fence += 1
        elif self.lockmgr.peek_any_locked(head.sources):
            stats.stall_raw += 1
        else:
            stats.stall_structural += 1
