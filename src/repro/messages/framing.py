"""Framing: messages ↔ streams of 32-bit channel words.

Every message is framed as one header word followed by ``length`` payload
words::

    header = type[31:24] | arg[23:16] | length[15:0]

Multi-word values (registers wider than 32 bits — the word size generic is
a multiple of 32, §II) are carried least-significant word first.  The
framing layer is what the message buffer and message serialiser stages of
the RTM speak on their channel side.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .types import (
    DataRecord,
    Exec,
    ExceptionReport,
    FlagVector,
    Halted,
    MachineCheck,
    Message,
    MsgType,
    Reset,
    WriteFlags,
    WriteReg,
)

WORD_MASK = 0xFFFF_FFFF

#: every valid type byte, for one membership test per header word
_MSG_TYPES = frozenset(int(t) for t in MsgType)


class FramingError(ValueError):
    """A message or word stream violated the framing rules."""


def expected_length(msg_type: int, data_words: int) -> int:
    """The exact payload word count a frame of ``msg_type`` must carry.

    Every protocol message has a fixed payload length for a given register
    word size, so header validation can be strict: EXEC instructions are
    always 64-bit (2 words), register transfers carry ``data_words`` words,
    flag/exception payloads are one word, RESET/HALTED are header-only.
    """
    if msg_type == MsgType.EXEC:
        return 2
    if msg_type in (MsgType.WRITE_REG, MsgType.DATA_RECORD):
        return data_words
    if msg_type in (
        MsgType.WRITE_FLAGS,
        MsgType.FLAG_VECTOR,
        MsgType.EXCEPTION,
        MsgType.MACHINE_CHECK,
    ):
        return 1
    if msg_type in (MsgType.RESET, MsgType.HALTED):
        return 0
    raise FramingError(f"unknown message type {msg_type:#x}")


def validate_header(word: int, data_words: int) -> tuple[int, int, int]:
    """Split and strictly validate a header word; returns (type, arg, length).

    Raises :class:`FramingError` with a uniform message for every malformed
    case: unknown message type, or a payload length that does not match the
    type's fixed frame layout (both truncated and over-length declarations
    are rejected here, before any payload word is consumed).
    """
    mtype, arg, length = split_header(int(word) & WORD_MASK)
    if mtype not in _MSG_TYPES:
        raise FramingError(f"unknown message type {mtype:#x}")
    expected = expected_length(mtype, data_words)
    if length != expected:
        raise FramingError(
            f"{MsgType(mtype).name} frame length {length} invalid "
            f"(expected {expected})"
        )
    return mtype, arg, length


def build_message(mtype: int, arg: int, payload: list[int]) -> Message:
    """Assemble a parsed frame (validated header + payload words) into a
    :class:`Message`.  Shared by the plain and checksummed deframers."""
    value = words_to_value(payload)
    if mtype == MsgType.EXEC:
        return Exec(value)
    if mtype == MsgType.WRITE_REG:
        return WriteReg(arg, value)
    if mtype == MsgType.WRITE_FLAGS:
        return WriteFlags(arg, value)
    if mtype == MsgType.RESET:
        return Reset()
    if mtype == MsgType.DATA_RECORD:
        return DataRecord(arg, value)
    if mtype == MsgType.FLAG_VECTOR:
        return FlagVector(arg, value)
    if mtype == MsgType.EXCEPTION:
        return ExceptionReport(arg, value)
    if mtype == MsgType.HALTED:
        return Halted()
    if mtype == MsgType.MACHINE_CHECK:
        return MachineCheck(arg, (value >> 16) & 0xFFFF, value & 0xFFFF)
    raise FramingError(f"unknown message type {mtype:#x}")


def make_header(msg_type: int, arg: int, length: int) -> int:
    if not 0 <= arg <= 0xFF:
        raise FramingError(f"header arg {arg} out of range")
    if not 0 <= length <= 0xFFFF:
        raise FramingError(f"header length {length} out of range")
    return ((int(msg_type) & 0xFF) << 24) | (arg << 16) | length


def split_header(word: int) -> tuple[int, int, int]:
    """Return (type, arg, length) of a header word."""
    return (word >> 24) & 0xFF, (word >> 16) & 0xFF, word & 0xFFFF


def value_to_words(value: int, n_words: int) -> list[int]:
    """Split an unsigned value into ``n_words`` 32-bit words, LSW first."""
    if value < 0:
        raise FramingError("values on the wire are unsigned")
    if value >> (32 * n_words):
        raise FramingError(f"value {value:#x} does not fit in {n_words} words")
    return [(value >> (32 * i)) & WORD_MASK for i in range(n_words)]


def words_to_value(words: Iterable[int]) -> int:
    """Reassemble an LSW-first word sequence into an unsigned value."""
    value = 0
    for i, w in enumerate(words):
        value |= (int(w) & WORD_MASK) << (32 * i)
    return value


class Framer:
    """Serialises messages into channel words.

    ``data_words`` is the register word size divided by 32 — the length of
    WRITE_REG and DATA_RECORD payloads.
    """

    def __init__(self, data_words: int = 1):
        if data_words < 1:
            raise FramingError("data_words must be >= 1")
        self.data_words = data_words

    def frame(self, msg: Message) -> list[int]:
        dw = self.data_words
        if isinstance(msg, Exec):
            return [make_header(MsgType.EXEC, 0, 2), *value_to_words(msg.word, 2)]
        if isinstance(msg, WriteReg):
            return [make_header(MsgType.WRITE_REG, msg.reg, dw),
                    *value_to_words(msg.value, dw)]
        if isinstance(msg, WriteFlags):
            return [make_header(MsgType.WRITE_FLAGS, msg.flag_reg, 1),
                    msg.value & WORD_MASK]
        if isinstance(msg, Reset):
            return [make_header(MsgType.RESET, 0, 0)]
        if isinstance(msg, DataRecord):
            return [make_header(MsgType.DATA_RECORD, msg.tag, dw),
                    *value_to_words(msg.value, dw)]
        if isinstance(msg, FlagVector):
            return [make_header(MsgType.FLAG_VECTOR, msg.tag, 1), msg.value & WORD_MASK]
        if isinstance(msg, ExceptionReport):
            return [make_header(MsgType.EXCEPTION, msg.code, 1), msg.info & WORD_MASK]
        if isinstance(msg, Halted):
            return [make_header(MsgType.HALTED, 0, 0)]
        if isinstance(msg, MachineCheck):
            return [make_header(MsgType.MACHINE_CHECK, msg.element & 0xFF, 1),
                    ((msg.address & 0xFFFF) << 16) | (msg.syndrome & 0xFFFF)]
        raise FramingError(f"cannot frame message of type {type(msg).__name__}")

    def frame_all(self, msgs: Iterable[Message]) -> list[int]:
        words: list[int] = []
        for m in msgs:
            words.extend(self.frame(m))
        return words


class Deframer:
    """Incrementally parses a word stream back into messages.

    Feed words one at a time with :meth:`push`; completed messages come back
    as return values.  This mirrors the streaming behaviour of the message
    buffer stage, which "receives data from the FPGA input port ... and
    converts it to a form usable by the decoder" (§III).

    Headers are validated *eagerly*: an unknown message type or an
    implausible payload length is rejected before any payload word is
    consumed, so a corrupted header cannot swallow the channel — the stream
    resynchronises at the very next word.
    """

    def __init__(self, data_words: int = 1):
        self.data_words = data_words
        #: the longest legal frame payload for this configuration
        self.max_length = max(2, data_words)
        self._header: Optional[tuple[int, int, int]] = None
        self._payload: list[int] = []

    def push(self, word: int) -> Optional[Message]:
        word = int(word) & WORD_MASK
        if self._header is None:
            mtype, arg, length = validate_header(word, self.data_words)
            self._header = (mtype, arg, length)
            self._payload = []
            if length == 0:
                return self._finish()
            return None
        self._payload.append(word)
        if len(self._payload) >= self._header[2]:
            return self._finish()
        return None

    def _finish(self) -> Message:
        assert self._header is not None
        mtype, arg, _length = self._header
        payload = self._payload
        self._header = None
        self._payload = []
        return build_message(mtype, arg, payload)

    def push_all(self, words: Iterable[int]) -> Iterator[Message]:
        for w in words:
            msg = self.push(w)
            if msg is not None:
                yield msg

    def flush(self) -> None:
        """Assert the stream ended on a frame boundary.

        Raises :class:`FramingError` if a frame is truncated — a header was
        received whose payload never completed.  The deframer state is
        cleared either way, so the next word starts a fresh frame.
        """
        if self._header is None:
            return
        mtype, _arg, length = self._header
        got = len(self._payload)
        self._header = None
        self._payload = []
        raise FramingError(
            f"truncated {MsgType(mtype).name} frame: got {got} of "
            f"{length} payload words"
        )

    @property
    def mid_frame(self) -> bool:
        """True when a partially received frame is pending."""
        return self._header is not None
