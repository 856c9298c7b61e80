"""The complete coprocessor system (paper Fig. 1: CPU ↔ interface ↔ FUs).

`CoprocessorSystem` is the top-level simulated design:

* a :class:`HostPort` standing in for the CPU side of the I/O channel,
* a full-duplex :class:`Link` with configurable latency/bandwidth,
* COTS-style :class:`Receiver`/:class:`Transmitter` modules,
* the :class:`RegisterTransferMachine` with its functional units.

The host driver (:mod:`repro.host.driver`) talks to the ``host`` port; the
rest of the structure is exactly the component diagram of Fig. 2.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import FrameworkConfig
from ..fu.registry import UnitRegistry
from ..hdl import Component
from ..messages.channel import INTEGRATED, ChannelSpec, Link
from ..messages.transceiver import HostPort, Receiver, Transmitter
from ..rtm.rtm import RegisterTransferMachine, _connect


class CoprocessorSystem(Component):
    """Host port + link + transceivers + RTM, fully wired."""

    def __init__(
        self,
        config: FrameworkConfig,
        channel: ChannelSpec = INTEGRATED,
        registry: Optional[UnitRegistry] = None,
        unit_codes: Optional[Sequence[int]] = None,
        name: str = "soc",
        upstream_channel: Optional[ChannelSpec] = None,
        downstream_faults=None,
        upstream_faults=None,
        state_faults=None,
        state_protection: bool = False,
    ):
        super().__init__(name)
        self.config = config
        self.channel_spec = channel
        self.host = HostPort("host", parent=self)
        self.link = Link(
            "link",
            channel,
            parent=self,
            upstream_spec=upstream_channel,
            downstream_faults=downstream_faults,
            upstream_faults=upstream_faults,
        )
        self.receiver = Receiver(
            "receiver", parent=self, depth=config.transceiver_fifo_depth
        )
        self.transmitter = Transmitter(
            "transmitter", parent=self, depth=config.transceiver_fifo_depth
        )
        self.rtm = RegisterTransferMachine(
            "rtm", config, registry=registry, unit_codes=unit_codes,
            state_faults=state_faults, state_protection=state_protection,
            parent=self,
        )

        # host → coprocessor path
        _connect(self, self.host.tx, self.link.downstream.inp)
        _connect(self, self.link.downstream.out, self.receiver.chan)
        _connect(self, self.receiver.out, self.rtm.words_in)
        # coprocessor → host path
        _connect(self, self.rtm.words_out, self.transmitter.inp)
        _connect(self, self.transmitter.chan, self.link.upstream.inp)
        _connect(self, self.link.upstream.out, self.host.rx)

    # -- state-fault domain accessors -------------------------------------------

    @property
    def state_domain(self):
        """The RTM's :class:`~repro.faults.StateFaultPlan` (None unprotected)."""
        return self.rtm.state_domain

    @property
    def mcu(self):
        """The RTM's machine-check unit (None when unprotected)."""
        return self.rtm.mcu

    # -- quiescence check (drivers use this to know when to stop pumping) --------

    @property
    def busy(self) -> bool:
        """True while any word, message or instruction is still in flight."""
        return bool(
            self.host.tx_pending
            or self.link.downstream.in_flight
            or self.link.upstream.in_flight
            or self.receiver.buffered
            or self.transmitter.buffered
            or self.rtm.busy
        )
