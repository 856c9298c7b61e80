"""Multi-CPU host support — paper Fig. 1.1: "CPU #1 … CPU #m ↔ Interface".

"The main purpose of the presented framework is to facilitate the
development of FPGA based coprocessors by providing a common interface to
hardware accelerators accessible by **one or more host CPUs**" (thesis
§1.2).  The coprocessor side needs no change at all: this module provides
the host-side sharing fabric —

* :class:`SharedHostBus` — m host ports multiplexed onto the single
  coprocessor channel.  Downstream, the bus arbitrates at *frame*
  granularity (once a CPU starts a frame it holds the bus until the frame
  completes, then the grant rotates), so frames from different CPUs never
  interleave.  Upstream, it deframes responses and routes each to its
  owner by the **tag namespace convention**: the top bits of the 8-bit
  GET/GETF tag carry the issuing CPU's id.  Untagged responses
  (exceptions, HALT acknowledgements) are broadcast.

Coordination of registers is software's job (as on any shared
coprocessor): each CPU works in its own register partition, which
:class:`repro.host.session.Session` supports via ``reg_range``.
"""

from __future__ import annotations

from typing import Optional

from ..hdl import Component, Stream
from .framing import Deframer, Framer, FramingError, split_header
from .transceiver import HostPort
from .types import Message, DataRecord, FlagVector

#: bits of the tag reserved for the CPU id (supports up to 4 CPUs)
TAG_HOST_BITS = 2
TAG_SEQ_BITS = 8 - TAG_HOST_BITS
TAG_SEQ_MASK = (1 << TAG_SEQ_BITS) - 1


def host_tag(host_id: int, seq: int) -> int:
    """Compose a response tag carrying the issuing CPU's identity."""
    if not 0 <= host_id < (1 << TAG_HOST_BITS):
        raise ValueError(f"host id {host_id} exceeds the tag namespace")
    return (host_id << TAG_SEQ_BITS) | (seq & TAG_SEQ_MASK)


def tag_owner(tag: int) -> int:
    """CPU id encoded in a response tag."""
    return (tag >> TAG_SEQ_BITS) & ((1 << TAG_HOST_BITS) - 1)


class SharedHostBus(Component):
    """m host ports sharing one coprocessor channel."""

    def __init__(
        self,
        name: str,
        n_hosts: int,
        data_words: int = 1,
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        if not 1 <= n_hosts <= (1 << TAG_HOST_BITS):
            raise ValueError(f"n_hosts must be in [1, {1 << TAG_HOST_BITS}]")
        self.n_hosts = n_hosts
        self.hosts = [HostPort(f"cpu{i}", parent=self) for i in range(n_hosts)]
        #: words toward the coprocessor (connect to the link downstream)
        self.tx = Stream(self, "tx", 32)
        #: words from the coprocessor (connect to the link upstream)
        self.rx = Stream(self, "rx", 32)
        # downstream arbitration state
        self._granted = self.reg("granted", 8, 0)
        self._frame_left = self.reg("frame_left", 16, 0)
        self._last = self.reg("last", 8, n_hosts - 1)
        # upstream routing state
        self._deframer = Deframer(data_words)
        self._framer = Framer(data_words)
        self._route_q: list[tuple[int, int]] = []  # (host, word) pending delivery
        self.frames_forwarded = [0] * n_hosts

        @self.comb
        def _drive() -> None:
            # --- downstream: frame-granular round robin -----------------------
            left = self._frame_left.value
            if left > 0:
                src = self.hosts[self._granted.value]
            else:
                src = None
                start = (self._last.value + 1) % self.n_hosts
                for off in range(self.n_hosts):
                    cand = self.hosts[(start + off) % self.n_hosts]
                    if cand.tx.valid.value:
                        src = cand
                        break
            if src is not None:
                self.tx.valid.set(src.tx.valid.value)
                self.tx.payload.set(src.tx.payload.value)
            else:
                self.tx.valid.set(0)
            for i, host in enumerate(self.hosts):
                selected = src is self.hosts[i]
                host.tx.ready.set(1 if (selected and self.tx.ready.value) else 0)
            # --- upstream: accept words whenever they arrive -------------------
            self.rx.ready.set(1)

        @self.seq
        def _tick() -> None:
            # downstream frame tracking
            if self.tx.fires():
                left = self._frame_left.value
                src_idx = (
                    self._granted.value if left > 0 else self._current_source_index()
                )
                if left > 0:
                    self._frame_left.nxt = left - 1
                else:
                    _, _, length = split_header(self.tx.payload.value)
                    self._granted.nxt = src_idx
                    self._frame_left.nxt = length
                    self._last.nxt = src_idx
                    self.frames_forwarded[src_idx] += 1
            # upstream: deframe and route complete messages
            if self.rx.fires():
                try:
                    msg = self._deframer.push(self.rx.payload.value)
                except FramingError:
                    msg = None  # a broken response frame is dropped at the bus
                if msg is not None:
                    self._route(msg)
            # deliver queued words into host rx queues (behavioural push)
            while self._route_q:
                host_idx, word = self._route_q.pop(0)
                host = self.hosts[host_idx]
                host._rxq.nxt = host._rxq.nxt + (word,)

        self.wheel(self._wheel_horizon)

        @self.on_reset
        def _clear() -> None:
            self._deframer = Deframer(data_words)
            self._route_q.clear()

    def _wheel_horizon(self) -> Optional[int]:
        """Idle bus has no horizon; any traffic (or queued routing) vetoes."""
        if self.tx.valid.value or self.rx.valid.value or self._route_q:
            return 0
        return None

    def _current_source_index(self) -> int:
        """Which host the combinational mux selected this cycle."""
        start = (self._last.value + 1) % self.n_hosts
        for off in range(self.n_hosts):
            idx = (start + off) % self.n_hosts
            if self.hosts[idx].tx.valid.value:
                return idx
        return self._granted.value

    def _route(self, msg: Message) -> None:
        words = self._framer.frame(msg)
        if isinstance(msg, (DataRecord, FlagVector)):
            owners = [tag_owner(msg.tag)]
        else:
            owners = list(range(self.n_hosts))  # broadcast
        for owner in owners:
            if owner < self.n_hosts:
                self._route_q.extend((owner, w) for w in words)
