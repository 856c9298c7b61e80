"""The Register Transfer Machine — top-level assembly (paper Figs. 2 and 4).

Instantiates and wires the six pipeline stages (message buffer, decoder,
dispatcher, execution, message encoder, message serialiser), the register
and flag register files, the lock manager, the write arbiter and the
configured functional units.  All connections are point-to-point
valid/ready streams — "there is no global control for stalling the
pipeline" (§III).

The RTM exposes two word streams (``words_in`` / ``words_out``) that the
transceiver modules attach to, keeping the controller independent of the
physical channel exactly as the paper's portability goal requires.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import FrameworkConfig
from ..faults import (
    ArrayGuard,
    FutableGuard,
    LockGuard,
    MachineCheckUnit,
    RamGuard,
    RenameGuard,
    StateFaultPlan,
    StateFaultSpec,
    StateScrubber,
)
from ..fu.protocol import WriteSpace
from ..fu.base import FunctionalUnit
from ..fu.registry import UnitRegistry, default_registry
from ..hdl import Component
from .decoder import Decoder
from .dispatcher import Dispatcher
from .encoder import MessageEncoder
from .execution import Execution
from .futable import FunctionalUnitTable
from .lockmgr import LockManager
from .msgbuffer import MessageBuffer
from .regfile import FlagRegisterFile, RegisterFile
from .rename import RenameTable
from .serializer import MessageSerializer
from .write_arbiter import WriteArbiter


def _connect(comp: Component, src, dst) -> None:
    """Point-to-point stream connection: src.out-style → dst.in-style."""

    def _link() -> None:
        dst.valid.set(src.valid.value)
        dst.payload.set(src.payload.value)
        src.ready.set(dst.ready.value)

    comp.comb(_link)


class _StateFaults:
    """A protected RTM's fault plan and machine-check unit, behind one
    attribute: the RTM keeps its instance attributes within the 29 CPython
    3.11 stores inline, so its ``__dict__`` is never materialized and every
    attribute load on it stays on the fast path."""

    __slots__ = ("plan", "mcu")

    def __init__(self, plan: StateFaultPlan, mcu: MachineCheckUnit) -> None:
        self.plan = plan
        self.mcu = mcu


class RegisterTransferMachine(Component):
    """The generic controller circuit: pipeline + register files + arbiter."""

    def __init__(
        self,
        name: str,
        config: FrameworkConfig,
        registry: Optional[UnitRegistry] = None,
        unit_codes: Optional[Sequence[int]] = None,
        state_faults: Optional[StateFaultSpec] = None,
        state_protection: bool = False,
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.config = config
        registry = registry if registry is not None else default_registry(config.pipelined_units)
        codes = tuple(unit_codes) if unit_codes is not None else registry.codes()

        # -- state-fault domain (spec → plan + machine-check unit) -------------
        protected = state_protection or state_faults is not None
        self._state_faults: Optional[_StateFaults] = None
        if protected:
            plan = StateFaultPlan(state_faults)
            mcu = MachineCheckUnit("mcu", parent=self)
            mcu.stats = plan.stats
            self._state_faults = _StateFaults(plan, mcu)

        # -- state ------------------------------------------------------------
        # In-order: files sized exactly as before (no new components or
        # signals, so the renaming-off path is cycle- and VCD-identical).
        # OoO: the same components over the physical register pool, plus
        # the rename table.
        if config.ooo:
            self.regfile = RegisterFile(
                "regfile", config, parent=self, n_regs=config.data_pool_size
            )
            self.flagfile = FlagRegisterFile(
                "flagfile", config, parent=self, n_regs=config.flag_pool_size
            )
            self.lockmgr = LockManager(
                "lockmgr", config, parent=self,
                n_data=config.data_pool_size, n_flag=config.flag_pool_size,
            )
            self.rename: Optional[RenameTable] = RenameTable(
                "rename", config, parent=self
            )
        else:
            self.regfile = RegisterFile("regfile", config, parent=self)
            self.flagfile = FlagRegisterFile("flagfile", config, parent=self)
            self.lockmgr = LockManager("lockmgr", config, parent=self)
            self.rename = None
        self.futable = FunctionalUnitTable()

        # -- functional units ---------------------------------------------------
        self.units: list[FunctionalUnit] = []
        for code in codes:
            unit = registry.build(code, f"fu_{code:02x}", config.word_bits, parent=self)
            self.futable.add(code, unit)
            self.units.append(unit)

        # -- pipeline stages -----------------------------------------------------
        self.msgbuffer = MessageBuffer("msgbuffer", config, parent=self)
        self.decoder = Decoder("decoder", config, self.futable, parent=self)
        if config.ooo:
            from .ooo import OoODispatcher

            self.dispatcher = OoODispatcher(
                "dispatcher", config, self.regfile, self.flagfile, self.lockmgr,
                self.futable, self.rename, parent=self,
            )
        else:
            self.dispatcher = Dispatcher(
                "dispatcher", config, self.regfile, self.flagfile, self.lockmgr,
                self.futable, parent=self,
            )
        self.execution = Execution("execution", config, parent=self)
        self.encoder = MessageEncoder("encoder", config, parent=self)
        self.serializer = MessageSerializer("serializer", config, parent=self)

        # -- write arbiter ---------------------------------------------------------
        self.write_arbiter = WriteArbiter(
            "write_arbiter", config, self.regfile, self.flagfile, self.lockmgr,
            parent=self,
        )
        for unit in self.units:
            self.write_arbiter.attach_port(unit.rp)
        self.write_arbiter.attach_priority(
            self.execution.prio_valid,
            self.execution.prio_transfer,
            self.execution.prio_ack,
        )

        # -- stream wiring (all point-to-point) ---------------------------------------
        _connect(self, self.msgbuffer.out, self.decoder.inp)
        _connect(self, self.decoder.out, self.dispatcher.inp)
        _connect(self, self.dispatcher.out, self.execution.inp)
        _connect(self, self.execution.msg_out, self.encoder.inp)
        _connect(self, self.encoder.out, self.serializer.inp)

        # -- state guards (after assembly: every protected element exists) -----
        faults = self._state_faults
        if faults is not None:
            plan, mcu = faults.plan, faults.mcu
            RamGuard("rtm.regfile", self.regfile.ram, plan, mcu)
            RamGuard("rtm.flagfile", self.flagfile.ram, plan, mcu)
            LockGuard("rtm.lockmgr", self.lockmgr, plan, mcu)
            FutableGuard("rtm.futable", self.futable, plan, mcu)
            if self.rename is not None:
                RenameGuard("rtm.rename", self.rename, plan, mcu)
            for unit in self.units:
                array = getattr(getattr(unit, "core", None), "array", None)
                if array is not None:
                    ArrayGuard(f"rtm.{unit.name}.array", array, plan, mcu)
            StateScrubber("scrubber", plan, mcu, parent=self)
            self.dispatcher.mcu = mcu
            self.execution.mcu = mcu
            self.write_arbiter.mcu = mcu

        @self.comb
        def _halt_wire() -> None:
            self.msgbuffer.halted.set(self.execution.halted.value)

        #: channel-facing ports (the transceiver plug points)
        self.words_in = self.msgbuffer.inp
        self.words_out = self.serializer.out

    # -- convenience accessors (testbench/driver use) ------------------------------

    @property
    def state_domain(self) -> Optional[StateFaultPlan]:
        """The state-fault plan (None when unprotected)."""
        faults = self._state_faults
        return None if faults is None else faults.plan

    @property
    def mcu(self) -> Optional[MachineCheckUnit]:
        """The machine-check unit (None when unprotected)."""
        faults = self._state_faults
        return None if faults is None else faults.mcu

    @property
    def halted(self) -> bool:
        return bool(self.execution.halted.value)

    def register_value(self, reg: int) -> int:
        """Backdoor read of a main register (architectural view)."""
        if self.rename is not None:
            reg = self.rename.phys(WriteSpace.DATA, reg)
        return self.regfile.read(reg)

    def flag_value(self, reg: int) -> int:
        """Backdoor read of a flag register (architectural view)."""
        if self.rename is not None:
            reg = self.rename.phys(WriteSpace.FLAG, reg)
        return self.flagfile.read(reg)

    # -- architectural state (checkpoint/rollback path) -----------------------------

    def arch_registers(self) -> tuple[int, ...]:
        """Architectural data-register contents, in index order."""
        if self.rename is None:
            return self.regfile.dump()
        view = self.rename.arch_view(WriteSpace.DATA)
        return tuple(self.regfile.read(phys) for phys in view)

    def arch_flags(self) -> tuple[int, ...]:
        """Architectural flag-register contents, in index order."""
        if self.rename is None:
            return self.flagfile.dump()
        view = self.rename.arch_view(WriteSpace.FLAG)
        return tuple(self.flagfile.read(phys) for phys in view)

    def load_arch_registers(self, values) -> None:
        """Load architectural data registers (freshly reset machine only:
        after a reset the rename map is the identity, so the architectural
        values belong in physical slots ``0..n_regs-1``)."""
        self.regfile.load(values)

    def load_arch_flags(self, values) -> None:
        self.flagfile.load(values)

    def unit_for(self, code: int) -> FunctionalUnit:
        entry = self.futable.lookup(code)
        if entry is None:
            raise KeyError(f"no unit with code {code:#x}")
        return entry.unit
