"""The kit's functional-unit adapter (thesis Figs. 3.13/3.14).

"The idea behind the design is to separate the ξ-sort controller logic
from the interface logic required by the framework" — and the interface
logic turns out to be identical for every smart-memory machine: forward a
dispatch into the core's start interface, wait for the completion strobe,
buffer the staged outputs, and hand them to the write arbiter as
transfers shaped by the unit's static *write profile*.

A concrete unit is derived from a :class:`~repro.smem.spec.UnitSpec`
(``spec.unit``), which binds the spec's core and its *write profile*:
the variety → (dst1, dst2, flags) table read off the ROM's ``emit``
targets — the same table the decoder consults for its lock sets, which is
what keeps the adapter's transfers and the dispatcher's locks in exact
agreement.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING, Optional

from ..fu.base import FunctionalUnit
from ..fu.protocol import Transfer
from ..hdl import Component

if TYPE_CHECKING:
    from .spec import UnitSpec


class AdapterState(IntEnum):
    IDLE = 0
    RUN = 1
    COLLECT = 2   # capture the core's freshly latched outputs
    SEND = 3


class SmartMemoryUnit(FunctionalUnit):
    """A smart-memory core wrapped in the framework's unit protocol."""

    #: the UnitSpec whose core this unit instantiates
    spec: Optional[UnitSpec] = None
    #: consulted by the functional unit table (decoder lock sets); derived
    #: units assign ``staticmethod(spec.write_profile)``
    write_profile = None

    def __init__(
        self,
        name: str,
        word_bits: int,
        parent: Optional[Component] = None,
        n_cells: int = 64,
        array_kind: str = "vector",
    ):
        super().__init__(name, word_bits, parent)
        self._n_cells = n_cells
        self._array_kind = array_kind
        self.core = self._make_core()
        self._state = self.reg("state", 2, AdapterState.IDLE)
        self._sample = self.reg("sample", None, reset=None)
        self._pending = self.reg("pending", None, reset=())
        self.operations = 0

        @self.comb
        def _drive() -> None:
            state = self._state.value
            self.dp.idle.set(1 if state == AdapterState.IDLE else 0)
            # forward a dispatch straight into the core's start interface
            dispatching = bool(self.dp.dispatch.value and state == AdapterState.IDLE)
            self.core.start.set(1 if dispatching else 0)
            if dispatching:
                self.core.variety.set(self.dp.variety.value)
                self.core.op_a.set(self.dp.op_a.value)
                self.core.op_b.set(self.dp.op_b.value)
            pending = self._pending.value
            if state == AdapterState.SEND and pending:
                self.rp.present(pending[0])
            else:
                self.rp.present(None)

        @self.seq
        def _tick() -> None:
            state = self._state.value
            if state == AdapterState.IDLE:
                if self.dp.dispatch.value:
                    self._sample.nxt = self.dp.sample()
                    self._state.nxt = AdapterState.RUN
                    self.operations += 1
            elif state == AdapterState.RUN:
                if self.core.completed.value:
                    self._state.nxt = AdapterState.COLLECT
            elif state == AdapterState.COLLECT:
                # The core latched its outputs at the completion edge; they
                # are stable .value reads now.
                transfers = self._build_transfers()
                if transfers:
                    self._pending.nxt = transfers
                    self._state.nxt = AdapterState.SEND
                else:
                    self._state.nxt = AdapterState.IDLE
            elif state == AdapterState.SEND:
                if self.rp.ack.value:
                    rest = self._pending.value[1:]
                    self._pending.nxt = rest
                    if not rest:
                        self._state.nxt = AdapterState.IDLE

        # Any non-idle adapter state does real work every edge (the core's
        # own processes track the operation); only a truly idle unit has no
        # horizon.
        self.wheel(
            lambda: None if (self._state.value == AdapterState.IDLE
                             and not self.dp.dispatch.value) else 0
        )

    def _make_core(self):
        if self.spec is None:
            raise NotImplementedError(f"{type(self).__name__} binds no unit spec")
        return self.spec.core("core", self._n_cells, self.word_bits,
                              array_kind=self._array_kind, parent=self)

    def _build_transfers(self) -> tuple[Transfer, ...]:
        """Map the buffered core outputs onto write-arbiter transfers.

        Mirrors the unit's ``write_profile``, which is also what the
        decoder locked for this instruction.
        """
        sample = self._sample.value
        ctrl = self.core.controller
        w1, w2, wf = self.write_profile(sample.variety)
        transfers: list[Transfer] = []
        flag_reg = sample.dst_flag if wf else None
        flag_value = ctrl.out_flags.value if wf else 0
        if w1:
            transfers.append(
                Transfer(sample.dst1, ctrl.out_data1.value, flag_reg, flag_value,
                         last=not w2)
            )
        elif wf:
            transfers.append(Transfer(None, 0, flag_reg, flag_value, last=not w2))
        if w2:
            transfers.append(Transfer(sample.dst2, ctrl.out_data2.value, None, 0, last=True))
        return tuple(transfers)
