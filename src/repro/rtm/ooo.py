"""Out-of-order issue engine — rename + issue-queue dispatcher stage.

The second hazard policy of :class:`~repro.rtm.dispatcher.IssueStage`, a
drop-in replacement for the in-order ``Dispatcher`` (same streams, dispatch
ports, operand fetch, primitive resolution and accounting) that lets
independent younger instructions bypass a stalled older one:

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

from typing import Optional

from ..config import FrameworkConfig
from ..fu.protocol import Transfer, WriteSpace
from ..hdl import Component
from ..record import record
from .decoder import DecodedOp, ExecOp, RegSet
from .dispatcher import IssueStage, IssueStats
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


class OoODispatcher(IssueStage):
    """Issue-queue policy: rename at accept, issue oldest-ready first."""

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
        stats = IssueStats(mode="ooo", window_depth=config.ooo_window,
                           window_occupancy_max=0)
        super().__init__(name, config, regfile, flagfile, lockmgr, futable,
                         stats, parent)
        self.rename = rename
        self.window = config.ooo_window

        @self.comb
        def _drive() -> None:
            queue: tuple[RenamedOp, ...] = self._queue.value
            sel = self._select(queue)
            rop = queue[sel] if sel >= 0 else None
            out_valid = 0
            out_payload: Optional[ExecOp] = None
            if rop is not None and rop.op.kind == "unit":
                self._drive_units(rop.op.entry.unit, rop.op.instr, (
                    rop.psrc1, rop.psrc2, rop.psrc_flag, rop.psrc_c, rop.pdst1,
                    rop.pdst2, rop.pdst_flag))
            else:
                self._drive_units(None, None, ())
                if rop is not None:
                    out_valid = 1
                    out_payload = rop.exec_op
                    if out_payload is None:
                        out_payload = self._resolve(rop.op.instr, rop.psrc,
                                                    rop.pdst1, rop.pdst_flag)
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
                self._count_issue(rop.op)
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

    def _declare(self) -> None:
        #: the issue queue, oldest first (tuple of RenamedOp)
        self._queue = self.reg("queue", None, ())
        #: queue index selected for issue this cycle (-1: none)
        self._issue_sel = self.signal("issue_sel", None, -1)

    @property
    def busy(self) -> bool:
        """Work in flight in this stage (quiescence probe)."""
        return bool(self._queue.value)

    def _wheel_horizon(self) -> Optional[int]:
        # Work queued, arriving, or awaiting recycle; an empty engine with a
        # drained rename table ages nothing.
        if self._queue.value or self.inp.valid.value or self.rename.has_pending:
            return 0
        return None

    # -- issue selection -------------------------------------------------------------

    def _select(self, queue: tuple[RenamedOp, ...]) -> int:
        """Oldest-first scan for the single op issuing this cycle."""
        # Frozen by a machine check: only a Reset at the head (a barrier) issues.
        if not queue or self._frozen(queue[0].op):
            return -1
        # Read idleness off the static unit table, not through the ops'
        # payloads: the candidate set is fixed hardware.
        idle_units: set = set()
        for unit in self.futable.units:
            if unit.dp.idle.value:
                idle_units.add(unit)
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
                    if ready and unit in idle_units:
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
        data, flag = WriteSpace.DATA, WriteSpace.FLAG
        psrc1 = psrc2 = psrc_flag = psrc_c = psrc = 0
        pdst1 = pdst2 = pdst_flag = 0
        sources = []
        # Sources map through the *current* table, before this op's own
        # destinations shadow them (LOADIS and FMA read their old dst1).
        if op.kind == "unit":
            instr = op.instr
            unit = op.entry.unit
            psrc1 = rt.read_source(data, instr.src1)
            psrc2 = rt.read_source(data, instr.src2)
            sources += ((data, psrc1), (data, psrc2))
            if getattr(unit, "reads_flag", True):
                psrc_flag = rt.read_source(flag, instr.src_flag)
                sources.append((flag, psrc_flag))
            if getattr(unit, "reads_dst1", False):
                psrc_c = rt.read_source(data, instr.dst1)
                sources.append((data, psrc_c))
        elif op.sources:
            # Primitives read at most one register (see decoder hazard sets).
            space, arch = op.sources[0]
            psrc = rt.read_source(space, arch)
            sources.append((space, psrc))
        write_set = []
        pdst = {}
        for space, arch in op.write_set:
            phys = rt.allocate(space, arch)
            self.lockmgr.lock(space, phys)
            write_set.append((space, phys))
            pdst[(space, arch)] = phys
        if op.kind == "unit":
            pdst1 = pdst.get((data, instr.dst1), 0)
            pdst2 = pdst.get((data, instr.dst2), 0)
            pdst_flag = pdst.get((flag, instr.dst_flag), 0)
        elif write_set:
            space, phys = write_set[0]
            if space is data:
                pdst1 = phys
            else:
                pdst_flag = phys
        exec_op = op.exec_op
        if exec_op is not None and exec_op.transfer is not None:
            # Pre-resolved transfer (host write, LOADI, SETF): retarget the
            # destination register to its fresh physical slot.
            t = exec_op.transfer
            data_reg = None if t.data_reg is None else pdst[(data, t.data_reg)]
            flag_reg = None if t.flag_reg is None else pdst[(flag, t.flag_reg)]
            exec_op = ExecOp(
                Transfer(data_reg, t.data_value, flag_reg, t.flag_value, t.last),
                exec_op.message, exec_op.set_halt, exec_op.clear_halt,
            )
        return RenamedOp(
            op, tuple(sources), tuple(write_set), psrc1, psrc2, psrc_flag,
            psrc_c, psrc, pdst1, pdst2, pdst_flag, exec_op,
        )

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
