"""The functional-unit signal protocol.

Each functional unit connects to the framework through two port bundles
(paper Fig. 5; thesis §2.3.1/2.3.2):

* :class:`DispatchPort` — from the dispatcher: a ``dispatch`` strobe
  qualified by the unit's ``idle`` signal, the 8-bit ``variety_code``,
  operand buses read from the register file, the input flag vector, and the
  destination register numbers travelling as side-band data (so the write
  arbiter learns where results go without central bookkeeping).
* :class:`ResultPort` — toward the write arbiter: one :class:`Transfer` at
  a time under a ``ready``/``ack`` handshake.  Because the main register
  file and the flag register file are distinct memories with independent
  write paths (thesis Fig. 1.4), a single transfer may carry a data write
  *and* a flag write together; an instruction with **two** data results
  needs two transfers — hence the distinct "Send Data 1/2 (+Flags)" and
  "Send Data 2" states of the Fig. 6 / 2.18 FSM.

The module also provides :class:`ProtocolMonitor`, an assertion checker the
tests attach to any unit to verify conformance (dispatch only while idle,
payload stability while ``ready`` awaits ``ack``, no spurious acks).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional

from ..hdl import Component, Signal
from ..record import record


class WriteSpace(IntEnum):
    """Register space a write targets (used by the lock manager)."""

    DATA = 0
    FLAG = 1


class DispatchPort:
    """Dispatcher → functional-unit signal bundle."""

    def __init__(self, comp: Component, name: str, word_bits: int, flag_bits: int = 8):
        self.word_bits = word_bits
        self.dispatch: Signal = comp.signal(f"{name}_dispatch", 1)
        self.variety: Signal = comp.signal(f"{name}_variety", 8)
        self.op_a: Signal = comp.signal(f"{name}_op_a", word_bits)
        self.op_b: Signal = comp.signal(f"{name}_op_b", word_bits)
        self.flag_in: Signal = comp.signal(f"{name}_flag_in", flag_bits)
        self.dst1: Signal = comp.signal(f"{name}_dst1", 8)
        self.dst2: Signal = comp.signal(f"{name}_dst2", 8)
        self.dst_flag: Signal = comp.signal(f"{name}_dst_flag", 8)
        #: functional unit → dispatcher: able to accept an instruction
        self.idle: Signal = comp.signal(f"{name}_idle", 1, reset=1)

    def drive_op_c(self, regfile, reg: int) -> None:
        """Drive the third operand bus from register ``reg``.

        The base bundle has no such bus, so this is a no-op — dispatchers
        call it unconditionally and the port's class decides whether a
        register-file read happens (see :class:`TernaryDispatchPort`).
        """

    def sample(self) -> "DispatchSample":
        """Capture the current settled values (used inside seq processes)."""
        return DispatchSample(
            variety=self.variety.value,
            op_a=self.op_a.value,
            op_b=self.op_b.value,
            flag_in=self.flag_in.value,
            dst1=self.dst1.value,
            dst2=self.dst2.value,
            dst_flag=self.dst_flag.value,
        )


class TernaryDispatchPort(DispatchPort):
    """Dispatch port with a third read operand bus (``op_c``).

    Used by units that read their first destination register as an
    accumulator (fused multiply-add): the dispatcher drives ``op_c`` with
    the current dst1 contents alongside the two source operands.  Units
    declare it via the ``dispatch_port_cls`` hook, so systems without such
    units elaborate exactly the same signals as before.
    """

    def __init__(self, comp: Component, name: str, word_bits: int, flag_bits: int = 8):
        super().__init__(comp, name, word_bits, flag_bits)
        self.op_c: Signal = comp.signal(f"{name}_op_c", word_bits)

    def drive_op_c(self, regfile, reg: int) -> None:
        self.op_c.set(regfile.read(reg))

    def sample(self) -> "DispatchSample":
        base = super().sample()
        return DispatchSample(
            variety=base.variety,
            op_a=base.op_a,
            op_b=base.op_b,
            flag_in=base.flag_in,
            dst1=base.dst1,
            dst2=base.dst2,
            dst_flag=base.dst_flag,
            op_c=self.op_c.value,
        )


@record
class DispatchSample:
    """Latched copy of a dispatch transaction."""

    variety: int
    op_a: int
    op_b: int
    flag_in: int
    dst1: int
    dst2: int
    dst_flag: int
    #: third operand (accumulator), driven only for TernaryDispatchPort units
    op_c: int = 0


@record
class Transfer:
    """One write-arbiter grant's worth of register writes.

    ``data_reg`` / ``flag_reg`` of ``None`` mean the respective half is
    absent.  ``last`` marks the final transfer of an instruction's burst,
    letting the arbiter release the instruction's remaining locks.
    """

    data_reg: Optional[int] = None
    data_value: int = 0
    flag_reg: Optional[int] = None
    flag_value: int = 0
    last: bool = True

    @property
    def has_data(self) -> bool:
        return self.data_reg is not None

    @property
    def has_flags(self) -> bool:
        return self.flag_reg is not None


class ResultPort:
    """Functional-unit → write-arbiter signal bundle (one transfer per grant)."""

    def __init__(self, comp: Component, name: str, word_bits: int, flag_bits: int = 8):
        self.word_bits = word_bits
        self.ready: Signal = comp.signal(f"{name}_ready", 1)
        self.data_valid: Signal = comp.signal(f"{name}_data_valid", 1)
        self.data_reg: Signal = comp.signal(f"{name}_data_reg", 8)
        self.data_value: Signal = comp.signal(f"{name}_data_value", word_bits)
        self.flag_valid: Signal = comp.signal(f"{name}_flag_valid", 1)
        self.flag_reg: Signal = comp.signal(f"{name}_flag_reg", 8)
        self.flag_value: Signal = comp.signal(f"{name}_flag_value", flag_bits)
        self.last: Signal = comp.signal(f"{name}_last", 1, reset=1)
        #: write arbiter → unit: the presented transfer commits this edge
        self.ack: Signal = comp.signal(f"{name}_ack", 1)

    def present(self, transfer: Optional[Transfer]) -> None:
        """Drive the port from a pending transfer (or deassert when None)."""
        if transfer is None:
            self.ready.set(0)
            return
        self.ready.set(1)
        self.data_valid.set(1 if transfer.has_data else 0)
        if transfer.has_data:
            self.data_reg.set(transfer.data_reg)
            self.data_value.set(transfer.data_value)
        self.flag_valid.set(1 if transfer.has_flags else 0)
        if transfer.has_flags:
            self.flag_reg.set(transfer.flag_reg)
            self.flag_value.set(transfer.flag_value)
        self.last.set(1 if transfer.last else 0)

    def take(self) -> Transfer:
        """Read the presented transfer (arbiter side, settled values)."""
        return Transfer(
            data_reg=self.data_reg.value if self.data_valid.value else None,
            data_value=self.data_value.value,
            flag_reg=self.flag_reg.value if self.flag_valid.value else None,
            flag_value=self.flag_value.value,
            last=bool(self.last.value),
        )

    def _snapshot(self) -> tuple:
        return (
            self.data_valid.value,
            self.data_reg.value,
            self.data_value.value,
            self.flag_valid.value,
            self.flag_reg.value,
            self.flag_value.value,
            self.last.value,
        )


class ProtocolViolation(AssertionError):
    """A functional unit (or the framework) broke the signal protocol."""


class ProtocolMonitor(Component):
    """Checks protocol invariants cycle by cycle (testbench instrument).

    Invariants:

    * the dispatcher never strobes ``dispatch`` while the unit is not idle;
    * while ``ready`` is high and unacknowledged, the presented transfer
      must not change;
    * ``ack`` is never asserted without ``ready``;
    * every transfer carries at least one write half.
    """

    def __init__(
        self,
        name: str,
        dispatch_port: DispatchPort,
        result_port: ResultPort,
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.dp = dispatch_port
        self.rp = result_port
        self.dispatch_count = 0
        self.transfer_count = 0
        self._held: Optional[tuple] = None

        @self.seq
        def _check() -> None:
            dp, rp = self.dp, self.rp
            if dp.dispatch.value:
                if not dp.idle.value:
                    raise ProtocolViolation(
                        f"{self.path}: dispatch strobed while unit not idle"
                    )
                self.dispatch_count += 1
            if rp.ack.value and not rp.ready.value:
                raise ProtocolViolation(f"{self.path}: ack asserted without ready")
            if rp.ready.value:
                if not (rp.data_valid.value or rp.flag_valid.value):
                    raise ProtocolViolation(
                        f"{self.path}: transfer presented with no write halves"
                    )
                current = rp._snapshot()
                if self._held is not None and current != self._held:
                    raise ProtocolViolation(
                        f"{self.path}: pending transfer changed while awaiting ack "
                        f"({self._held} -> {current})"
                    )
                if rp.ack.value:
                    self.transfer_count += 1
                    self._held = None
                else:
                    self._held = current
            else:
                self._held = None

        # Checking is only needed on edges where the watched protocol moves:
        # a quiet port pair (no dispatch, nothing presented) has no horizon.
        self.wheel(
            lambda: 0 if (dispatch_port.dispatch.value
                          or result_port.ready.value
                          or result_port.ack.value) else None
        )
