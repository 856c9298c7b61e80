"""Multi-CPU system assembly (paper Fig. 1.1: several CPUs, one interface).

The coprocessor (link, transceivers, RTM, units) is byte-for-byte the same
as in the single-host system — the sharing happens entirely on the host
side of the channel through :class:`SharedHostBus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import FrameworkConfig
from ..fu.registry import UnitRegistry
from ..hdl import Component, Simulator
from ..messages.channel import INTEGRATED, ChannelSpec, Link
from ..messages.multihost import SharedHostBus
from ..messages.transceiver import Receiver, Transmitter
from ..rtm.rtm import RegisterTransferMachine, _connect


class MultiHostCoprocessorSystem(Component):
    """m CPUs → shared bus → link → transceivers → RTM."""

    def __init__(
        self,
        config: FrameworkConfig,
        n_hosts: int = 2,
        channel: ChannelSpec = INTEGRATED,
        registry: Optional[UnitRegistry] = None,
        unit_codes: Optional[Sequence[int]] = None,
        name: str = "mhsoc",
    ):
        super().__init__(name)
        if config.reliable_framing:
            # The shared bus interleaves plain frames from several CPUs on
            # one word stream; per-direction sequence numbering has no
            # single sender to attribute to.
            raise ValueError(
                "reliable_framing is not supported on multi-host systems "
                "(the shared host bus speaks plain framing)"
            )
        self.config = config
        self.channel_spec = channel
        self.bus = SharedHostBus("bus", n_hosts, config.data_words, parent=self)
        self.link = Link("link", channel, parent=self)
        self.receiver = Receiver("receiver", parent=self,
                                 depth=config.transceiver_fifo_depth)
        self.transmitter = Transmitter("transmitter", parent=self,
                                       depth=config.transceiver_fifo_depth)
        self.rtm = RegisterTransferMachine(
            "rtm", config, registry=registry, unit_codes=unit_codes, parent=self
        )
        # bus → coprocessor path
        _connect(self, self.bus.tx, self.link.downstream.inp)
        _connect(self, self.link.downstream.out, self.receiver.chan)
        _connect(self, self.receiver.out, self.rtm.words_in)
        # coprocessor → bus path
        _connect(self, self.rtm.words_out, self.transmitter.inp)
        _connect(self, self.transmitter.chan, self.link.upstream.inp)
        _connect(self, self.link.upstream.out, self.bus.rx)

    @property
    def hosts(self):
        return self.bus.hosts

    @property
    def busy(self) -> bool:
        """True while any word, message or instruction is still in flight."""
        return bool(
            any(h.tx_pending for h in self.bus.hosts)
            or self.link.downstream.in_flight
            or self.link.upstream.in_flight
            or self.receiver.buffered
            or self.transmitter.buffered
            or self.rtm.busy
        )


@dataclass
class BuiltMultiHostSystem:
    """A wired multi-CPU system plus its simulator."""

    soc: MultiHostCoprocessorSystem
    sim: Simulator
    #: default in-flight window for the per-CPU host engines (None → the
    #: engine's own DEFAULT_WINDOW); each CPU's window is independent
    engine_window: Optional[int] = None

    @property
    def config(self) -> FrameworkConfig:
        return self.soc.config


def build_multihost_system(
    config: Optional[FrameworkConfig] = None,
    n_hosts: int = 2,
    channel: ChannelSpec = INTEGRATED,
    registry: Optional[UnitRegistry] = None,
    unit_codes: Optional[Sequence[int]] = None,
    window: Optional[int] = None,
) -> BuiltMultiHostSystem:
    cfg = config if config is not None else FrameworkConfig()
    soc = MultiHostCoprocessorSystem(
        cfg, n_hosts=n_hosts, channel=channel, registry=registry,
        unit_codes=unit_codes,
    )
    sim = Simulator(soc)
    sim.reset()
    return BuiltMultiHostSystem(soc=soc, sim=sim, engine_window=window)
