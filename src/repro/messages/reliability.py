"""Reliable framing: sequence-numbered, checksummed frame trailers.

The paper treats the host link as a pluggable parameter — "a very slow
connection from the FPGA board" up to processor-integrated fabric (§III) —
and real deployments of that spectrum treat the link as a failure domain.
This module adds the wire-level half of the recovery story: every frame
(header + payload, as produced by :class:`repro.messages.framing.Framer`)
gains one *trailer* word::

    trailer = MAGIC[31:24] | seq[23:16] | crc16[15:0]

* ``seq`` is a per-direction 8-bit sequence number assigned at first
  transmission, so a receiver can tell a retransmitted duplicate from a
  fresh frame and detect wholesale frame loss.
* ``crc16`` (CRC-16/CCITT-FALSE over the header and payload words plus the
  trailer's own magic/seq half-word, LSByte first) detects corruption
  anywhere in the frame *including the sequence number* — an unprotected
  seq byte would let a single bit flip renumber an intact frame and forge
  Go-Back-N ordering.
* ``MAGIC`` cheaply rejects most misalignments before the CRC runs.

:class:`ReliableFramer` speaks this format on the transmit side;
:class:`ReliableDeframer` is the scanning receiver: on a bad header, bad
magic or bad CRC it drops exactly one word and re-scans, so it always
resynchronises on the next undamaged frame boundary.  It never raises —
every anomaly becomes an event the caller turns into a NACK, a counter
bump, or a retransmission (see :mod:`repro.rtm.msgbuffer` and
:mod:`repro.host.engine`).

The receiver runs in one of two orderings:

* ``strict_order=True`` (the RTM side): Go-Back-N semantics.  Only the
  next-expected sequence number is *delivered*; a frame from the future
  means earlier frames were lost (``gap`` event — the caller NACKs) and a
  frame from the past is a retransmitted ``duplicate`` (the caller decides
  whether re-execution is idempotent).
* ``strict_order=False`` (the host side): every intact frame is delivered;
  sequence gaps are only counted, because lost responses are recovered by
  request retransmission, not by NACKing the coprocessor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .framing import (
    WORD_MASK,
    Framer,
    FramingError,
    build_message,
    validate_header,
)
from .types import Message

#: Trailer marker byte — rejects most misaligned trailer candidates cheaply.
TRAILER_MAGIC = 0xC3

#: Upper half-word marking an ExceptionReport ``info`` field as a NACK
#: ("NA"): ``info = NACK_INFO_MAGIC << 16 | flags[15:8] | expected_seq[7:0]``.
NACK_INFO_MAGIC = 0x4E41

#: Flag bit in a NACK info word: the receiver has no expected-sequence
#: baseline yet (nothing valid received since reset), so the sender should
#: retransmit its whole unacknowledged window.
NACK_NO_BASELINE = 0x100

SEQ_MASK = 0xFF


def crc16(words: Iterable[int]) -> int:
    """CRC-16/CCITT-FALSE over the 32-bit words, least-significant byte first."""
    crc = 0xFFFF
    for word in words:
        w = int(word) & WORD_MASK
        for shift in (0, 8, 16, 24):
            crc ^= ((w >> shift) & 0xFF) << 8
            for _ in range(8):
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def trailer_crc(seq: int, frame_words: Iterable[int]) -> int:
    """CRC-16 over the frame words *and* the trailer's magic/seq half.

    The sequence number must be inside the checksum: an unprotected seq
    byte lets a single bit flip renumber an intact frame, which defeats
    Go-Back-N entirely — the receiver delivers the renumbered frame as
    in-order and later discards the genuinely-expected retransmission as
    a duplicate (a silently lost write, found by the faulty-link property
    suite).
    """
    head = (TRAILER_MAGIC << 24) | ((seq & SEQ_MASK) << 16)
    return crc16(list(frame_words) + [head])


def make_trailer(seq: int, frame_words: Iterable[int]) -> int:
    """Build the trailer word for a frame (header + payload words)."""
    return (TRAILER_MAGIC << 24) | ((seq & SEQ_MASK) << 16) | trailer_crc(seq, frame_words)


def split_trailer(word: int) -> tuple[int, int, int]:
    """Return (magic, seq, crc16) of a trailer word."""
    word = int(word) & WORD_MASK
    return (word >> 24) & 0xFF, (word >> 16) & 0xFF, word & 0xFFFF


def seq_before(a: int, b: int) -> bool:
    """True when 8-bit sequence number ``a`` is strictly before ``b``
    (modular comparison; the in-flight window is far below half the space)."""
    return ((a - b) & SEQ_MASK) >= 128


def make_nack_info(expected: Optional[int]) -> int:
    """Encode a receiver NACK as an ExceptionReport ``info`` word."""
    if expected is None:
        return (NACK_INFO_MAGIC << 16) | NACK_NO_BASELINE
    return (NACK_INFO_MAGIC << 16) | (expected & SEQ_MASK)


def parse_nack_info(info: int) -> Optional[tuple[Optional[int], bool]]:
    """Decode an ExceptionReport ``info`` word as a NACK.

    Returns ``(expected_seq, no_baseline)`` or None when the info word is
    not NACK-shaped (a legacy BAD_MESSAGE report).
    """
    if (info >> 16) & 0xFFFF != NACK_INFO_MAGIC:
        return None
    if info & NACK_NO_BASELINE:
        return None, True
    return info & SEQ_MASK, False


class ReliableFramer(Framer):
    """A :class:`Framer` that appends a sequence-numbered CRC trailer.

    Sequence numbers are assigned per *frame* at first framing time and
    exposed via :attr:`last_seq`, so a sender can keep a replay buffer
    keyed by sequence number and retransmit byte-identical frames.
    """

    def __init__(self, data_words: int = 1, start_seq: int = 0):
        super().__init__(data_words)
        self.next_seq = start_seq & SEQ_MASK
        #: sequence number of the most recently framed message
        self.last_seq: Optional[int] = None

    def frame(self, msg: Message) -> list[int]:
        words = super().frame(msg)
        seq = self.next_seq
        self.next_seq = (seq + 1) & SEQ_MASK
        self.last_seq = seq
        words.append(make_trailer(seq, words))
        return words


@dataclass
class ReliabilityStats:
    """Receiver-side integrity counters (folded into ``analysis.counters_for``)."""

    frames_ok: int = 0          # intact frames accepted (incl. duplicates)
    delivered: int = 0          # frames delivered to the consumer
    crc_failures: int = 0       # trailer magic/CRC mismatches
    header_rejects: int = 0     # words rejected as frame headers
    words_dropped: int = 0      # words discarded while resynchronising
    resyncs: int = 0            # resynchronisation scans entered
    seq_gaps: int = 0           # frames arriving ahead of the expected seq
    duplicates: int = 0         # frames arriving behind the expected seq
    forced_drops: int = 0       # head words expired by the idle-flush timer


class ReliableDeframer:
    """Scanning receiver for trailer-framed word streams.

    Words go in through :meth:`push`; parse results come out of
    :meth:`take_events` as tuples:

    * ``("deliver", message)`` — an intact, in-order frame.
    * ``("duplicate", message)`` — intact but behind the expected sequence
      number (a retransmission of something already delivered).
    * ``("gap", expected, got)`` — an intact frame from the future arrived;
      ``strict_order`` receivers discard it (Go-Back-N) and should NACK,
      tolerant receivers deliver it as well (a separate ``deliver`` event
      follows) and merely record the loss.
    * ``("resync", expected)`` — one word was dropped hunting for a frame
      boundary after a malformed header or checksum failure.
    """

    def __init__(self, data_words: int = 1, strict_order: bool = False,
                 start_expected: Optional[int] = None):
        self.data_words = data_words
        self.strict_order = strict_order
        #: next sequence number owed by the peer.  ``None`` means "adopt the
        #: first intact frame as the baseline" — right for a tolerant
        #: observer, but a strict receiver whose protocol pins the starting
        #: sequence (both ends reset to 0) must pass ``start_expected=0``:
        #: otherwise losing the very first frame makes the receiver adopt a
        #: later one and silently discard the lost frame's retransmission
        #: as a "duplicate" it never saw.
        self.expected: Optional[int] = start_expected
        self.stats = ReliabilityStats()
        self._buf: deque[int] = deque()
        self._events: list[tuple] = []
        self._resyncing = False

    # -- feeding ------------------------------------------------------------------

    def push(self, word: int) -> None:
        """Buffer one received word and scan for completed frames."""
        self._buf.append(int(word) & WORD_MASK)
        self._scan()

    def push_all(self, words: Iterable[int]) -> None:
        for w in words:
            self.push(w)

    def take_events(self) -> list[tuple]:
        """Drain and return every event produced since the last call."""
        events, self._events = self._events, []
        return events

    def drop_head(self) -> None:
        """Discard the oldest buffered word (idle-flush recovery).

        A trailing damaged frame can leave the scanner waiting forever for
        payload words that will never come; the owner calls this on an idle
        timer so residual garbage cannot hold the receiver mid-frame.
        """
        if self._buf:
            self._buf.popleft()
            self.stats.words_dropped += 1
            self.stats.forced_drops += 1
            self._scan()

    def drop_all(self) -> None:
        """Flush the whole stuck buffer (idle-flush recovery).

        Once the link has gone quiet long enough to trigger an idle flush,
        every buffered word belongs to a burst that ended; the missing words
        are never coming, and any retransmission starts a fresh frame.  The
        rescan after each drop still salvages intact frames stuck behind a
        garbage prefix.
        """
        while self._buf:
            self.drop_head()

    @property
    def mid_frame(self) -> bool:
        """True while undelivered words are buffered."""
        return bool(self._buf)

    @property
    def buffered(self) -> int:
        return len(self._buf)

    # -- scanning -----------------------------------------------------------------

    def _drop_one(self, header_reject: bool) -> None:
        self._buf.popleft()
        self.stats.words_dropped += 1
        if header_reject:
            self.stats.header_rejects += 1
        else:
            self.stats.crc_failures += 1
        if not self._resyncing:
            self._resyncing = True
            self.stats.resyncs += 1
        self._events.append(("resync", self.expected))

    def _scan(self) -> None:
        buf = self._buf
        while buf:
            try:
                mtype, arg, length = validate_header(buf[0], self.data_words)
            except FramingError:
                self._drop_one(header_reject=True)
                continue
            need = 1 + length + 1  # header + payload + trailer
            if len(buf) < need:
                return
            frame = [buf[i] for i in range(need)]
            magic, seq, crc = split_trailer(frame[-1])
            if magic != TRAILER_MAGIC or crc != trailer_crc(seq, frame[:-1]):
                self._drop_one(header_reject=False)
                continue
            for _ in range(need):
                buf.popleft()
            self._resyncing = False
            self.stats.frames_ok += 1
            self._accept(build_message(mtype, arg, frame[1:-1]), seq)

    def _accept(self, msg: Message, seq: int) -> None:
        if self.expected is not None and seq != self.expected:
            if seq_before(seq, self.expected):
                self.stats.duplicates += 1
                self._events.append(("duplicate", msg))
                return
            # frame(s) before this one were lost in transit
            self.stats.seq_gaps += 1
            self._events.append(("gap", self.expected, seq))
            if self.strict_order:
                return  # Go-Back-N: refuse out-of-order delivery
        self.expected = (seq + 1) & SEQ_MASK
        self.stats.delivered += 1
        self._events.append(("deliver", msg))
