"""Message buffer — the first pipeline stage (§III).

"The first stage receives data from the FPGA input port connected to the
host processor, and converts it to a form usable by the decoder.  This
stage needs to be implemented according to the communication protocol used
by the host processor."  Here the host protocol is the 32-bit word framing
of :mod:`repro.messages.framing`; the stage consumes one channel word per
cycle and presents each completed message to the decoder.

While the RTM is halted the buffer discards everything except a RESET
frame, so a halted coprocessor can always be revived over the channel.

Reliable mode (``config.reliable_framing``)
-------------------------------------------

With the checksummed frame format enabled the buffer becomes the
coprocessor end of the recovery protocol:

* frames failing the CRC (or arriving out of sequence) never reach the
  decoder — the scanner resynchronises on the next intact frame boundary;
* each resynchronisation or sequence gap is reported to the host as a
  synthesised :class:`BadFrame` carrying a NACK-encoded ``info`` word
  (``reliability.make_nack_info``), which the decoder turns into the
  ``BAD_MESSAGE`` ExceptionReport the host engine treats as a
  retransmission request — at most one NACK per stalled expected sequence
  number, so a burst of garbage does not become a NACK storm;
* retransmitted frames already delivered (Go-Back-N duplicates) are
  discarded, *except* idempotent response-producing instructions
  (GET/GETF/HALT), which are re-executed so a response lost on the
  upstream path can be regenerated;
* a damaged trailing frame cannot wedge the scanner: after
  ``config.resync_flush_cycles`` of channel silence the oldest buffered
  word is expired and the scan retried.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Optional

from ..config import FrameworkConfig
from ..hdl import Component, Stream
from ..isa.opcodes import Opcode
from ..messages.framing import Deframer, FramingError
from ..messages.reliability import ReliableDeframer, make_nack_info
from ..messages.types import BadFrame, Exec, Message, Reset

#: Primitive opcodes safe to re-execute when a retransmitted duplicate
#: arrives: pure register/flag reads and the HALT re-acknowledgement.
_REEXEC_OPCODES = frozenset((int(Opcode.GET), int(Opcode.GETF), int(Opcode.HALT)))


def _exec_opcode(msg: Message) -> Optional[int]:
    if isinstance(msg, Exec):
        return (msg.word >> 56) & 0xFF
    return None


class MessageBuffer(Component):
    """Channel words in, parsed host messages out (plain framing; see
    :class:`ReliableMessageBuffer` for the checksummed format)."""

    def __init__(self, name: str, config: FrameworkConfig, parent: Optional[Component] = None):
        super().__init__(name, parent)
        self.config = config
        #: channel-side input (32-bit words from the receiver)
        self.inp = Stream(self, "in", 32)
        #: decoder-side output (Message payloads)
        self.out = Stream(self, "out", None)
        #: driven by the execution stage's halt latch
        self.halted = self.signal("halted", 1, 0)
        self._new_receiver()
        self._pending = self.reg("pending", None, reset=None)
        #: messages parsed but waiting for the (single) pending slot; the
        #: scanner can complete a deferred frame and a NACK in one cycle
        self._backlog = self.reg("backlog", None, reset=())
        #: cycles since the last word arrived (reliable idle-flush timer)
        self._idle = self.reg("idle", 32, 0)

        @self.comb
        def _drive() -> None:
            pending = self._pending.value
            self.out.valid.set(1 if pending is not None else 0)
            if pending is not None:
                self.out.payload.set(pending)
            # Take a new word only while no completed message waits and the
            # parse backlog is drained (elastic slack for resync bursts).
            ready = pending is None and len(self._backlog.value) < 4
            self.inp.ready.set(1 if ready else 0)

        # Pure for the edge scheduler: the deframer/counter mutations happen
        # only on runs that stage something (a taken word, an aging idle
        # timer), and nothing is staged on a fully quiet edge — so an idle
        # buffer goes dormant.
        self.seq(self._make_tick(), pure=True)
        self.wheel(self._horizon, self._skip)

        # See the comment above: deframer/counter mutations coincide with
        # staging, so the pure=True declaration holds on quiet edges.
        self.lint_suppress(
            "contract.impure-pure-seq",
            "deframer and counters mutate only on fires()/mid-frame paths, "
            "which always stage; quiet edges are mutation-free",
        )

        @self.on_reset
        def _clear() -> None:
            self._new_receiver()

    def _make_tick(self) -> Callable[[], None]:
        """The edge process: take a word, promote the backlog."""
        def _tick() -> None:
            pending = self._pending.value
            backlog = self._backlog.value
            if pending is not None and self.out.fires():
                pending = None
            taken = self.inp.fires()
            if taken:
                backlog = backlog + tuple(self._consume(self.inp.payload.value))
            if pending is None and backlog:
                pending = backlog[0]
                backlog = backlog[1:]
            if pending is not self._pending.value:
                self._pending.nxt = pending
            if taken or backlog is not self._backlog.value:
                # a word taken mid-frame moves the deframer and no signal:
                # staging keeps this process armed for the next word
                self._backlog.nxt = backlog
        return _tick

    def _new_receiver(self) -> None:
        """A fresh deframer (construction and reset)."""
        self._deframer = Deframer(self.config.data_words)

    # -- time-wheel hooks ---------------------------------------------------------

    #: nothing ages between words (the reliable buffer ages its idle timer)
    _skip: Optional[Callable[[int], None]] = None

    def _horizon(self) -> Optional[int]:
        if self.inp.valid.value and self.inp.ready.value:
            return 0  # a channel word lands next edge
        pending = self._pending.value
        if pending is not None and self.out.ready.value:
            return 0  # decoder takes the pending message next edge
        if pending is None and self._backlog.value:
            return 0  # backlog promotes next edge
        return None

    # -- word intake --------------------------------------------------------------

    def _consume(self, word: int) -> list[Message]:
        """Parse one channel word into zero or more admitted messages."""
        try:
            msg = self._deframer.push(word)
        except FramingError:
            # Malformed frame: report it instead of wedging (§II — the
            # coprocessor must stay controllable by the host).
            return [BadFrame(word)]
        if msg is None:
            return []
        admitted = self._admit(msg)
        return [admitted] if admitted is not None else []

    def _admit(self, msg: Message) -> Optional[Message]:
        """Apply halt gating to a parsed message: a halted coprocessor
        stays revivable (RESET)."""
        if self.halted.value and not isinstance(msg, Reset):
            return None
        return msg

    @property
    def pending_message(self) -> Optional[Message]:
        return self._pending.value

    @property
    def backlog(self) -> int:
        """Parsed messages waiting behind the pending slot."""
        return len(self._backlog.value)

    @property
    def reliability_stats(self) -> dict:
        """Receiver-side recovery counters (empty when not in reliable mode)."""
        return {}


class ReliableMessageBuffer(MessageBuffer):
    """The buffer on a link with ``config.reliable_framing``: the
    coprocessor end of the recovery protocol (see the module docstring)."""

    def _make_tick(self) -> Callable[[], None]:
        """The edge process: take a word, flush a damaged trailing frame
        after ``config.resync_flush_cycles`` of silence, promote the
        backlog."""
        def _tick() -> None:
            pending = self._pending.value
            backlog = self._backlog.value
            if pending is not None and self.out.fires():
                pending = None
            if self.inp.fires():
                self._idle.nxt = 0
                word = self.inp.payload.value
                backlog = backlog + tuple(self._consume(word))
            elif self._deframer.mid_frame:
                idle = self._idle.value + 1
                if idle >= self.config.resync_flush_cycles:
                    self._idle.nxt = 0
                    self._deframer.drop_all()
                    backlog = backlog + tuple(self._drain_events())
                else:
                    self._idle.nxt = idle
            if pending is None and backlog:
                pending = backlog[0]
                backlog = backlog[1:]
            if pending is not self._pending.value:
                self._pending.nxt = pending
            if backlog is not self._backlog.value:
                self._backlog.nxt = backlog
        return _tick

    def _new_receiver(self) -> None:
        # both ends of the link reset their sequence domain to 0, so the
        # strict receiver pins its baseline there: losing the very first
        # frame must NACK, not silently adopt a later one
        self._deframer = ReliableDeframer(self.config.data_words,
                                          strict_order=True, start_expected=0)
        #: expected seq already NACKed (suppression), None = none outstanding
        self._nacked_for: Optional[int] = None
        self.nacks_sent = 0
        self.duplicates_discarded = 0
        self.duplicates_reexecuted = 0

    def _horizon(self) -> Optional[int]:
        h = super()._horizon()
        if h is None and self._deframer.mid_frame:
            # pure aging of the idle timer until the flush threshold edge
            d = self.config.resync_flush_cycles - 1 - self._idle.value
            return d if d > 0 else 0
        return h

    def _skip(self, n: int) -> None:
        if self._deframer.mid_frame:
            self._idle.warp(self._idle.value + n)

    def _consume(self, word: int) -> list[Message]:
        self._deframer.push(word)
        return self._drain_events()

    def _drain_events(self) -> list[Message]:
        out: list[Message] = []
        nack_needed = False
        for event in self._deframer.take_events():
            kind = event[0]
            if kind == "deliver":
                admitted = self._admit(event[1], duplicate=False)
                if admitted is not None:
                    out.append(admitted)
            elif kind == "duplicate":
                admitted = self._admit(event[1], duplicate=True)
                if admitted is not None:
                    out.append(admitted)
            else:  # "gap" or "resync": frames were lost — ask for them again
                nack_needed = True
        expected = self._deframer.expected
        if expected is not None and self._nacked_for == expected:
            nack_needed = nack_needed and False
        elif self._nacked_for is not None and self._nacked_for != expected:
            # progress was made since the last NACK; re-arm suppression
            self._nacked_for = None
        if nack_needed:
            self._nacked_for = expected
            self.nacks_sent += 1
            out.append(BadFrame(make_nack_info(expected)))
        return out

    def _admit(self, msg: Message, duplicate: bool = False) -> Optional[Message]:
        """Apply duplicate and halt gating to a parsed message."""
        opcode = _exec_opcode(msg)
        if duplicate:
            if opcode in _REEXEC_OPCODES:
                self.duplicates_reexecuted += 1
            else:
                self.duplicates_discarded += 1
                return None
        if self.halted.value:
            # A halted coprocessor stays revivable (RESET) and re-acknowledges
            # retransmitted HALTs whose ack was lost.
            if isinstance(msg, Reset) or opcode == int(Opcode.HALT):
                return msg
            return None
        return msg

    @property
    def reliability_stats(self) -> dict:
        stats = asdict(self._deframer.stats)
        stats.update(
            nacks_sent=self.nacks_sent,
            duplicates_discarded=self.duplicates_discarded,
            duplicates_reexecuted=self.duplicates_reexecuted,
        )
        return stats
