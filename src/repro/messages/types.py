"""Typed messages exchanged between the host CPU and the coprocessor.

The paper's host "sends one or more packets of data to the controller on
the FPGA" and receives "several types of message ... including data records
and flag vectors" (§II/§III).  This module defines those message types for
both directions; :mod:`repro.messages.framing` maps them onto the 32-bit
word streams the transceivers carry.

Every message is a :func:`~repro.record.record`: frozen, slotted and cheap
to build, as one is framed or deframed per op.  Two messages of different
types never compare equal, even with the same fields (``WriteReg(3, 5) !=
DataRecord(3, 5)``), so a payload signal sees a change of type.
"""

from __future__ import annotations

from enum import IntEnum

from ..record import record


class MsgType(IntEnum):
    """Message type tags (one byte on the wire)."""

    # host → coprocessor
    EXEC = 0x01         # a 64-bit RTM instruction
    WRITE_REG = 0x02    # load a value into a main register
    WRITE_FLAGS = 0x03  # load a flag vector register
    RESET = 0x04        # soft-reset the coprocessor

    # coprocessor → host
    DATA_RECORD = 0x81  # register contents requested by GET
    FLAG_VECTOR = 0x82  # flag register contents requested by GETF
    EXCEPTION = 0x83    # decode/protocol error report
    HALTED = 0x84       # the RTM executed HALT
    MACHINE_CHECK = 0x85  # uncorrectable state error (SEU) detected


class ExceptionCode(IntEnum):
    """Payload of an EXCEPTION message."""

    ILLEGAL_OPCODE = 0x01   # no functional unit registered for the opcode
    BAD_REGISTER = 0x02     # register index out of the configured range
    BAD_MESSAGE = 0x03      # malformed frame from the host
    UNIT_ERROR = 0x04       # a functional unit signalled an error
    MACHINE_CHECK = 0x05    # uncorrectable error in a protected state element


@record
class Message:
    """Base class for all protocol messages."""


# -- host → coprocessor ---------------------------------------------------------

@record
class Exec(Message):
    """Execute one RTM instruction (64-bit word)."""

    word: int


@record
class WriteReg(Message):
    """Write ``value`` into main register ``reg``."""

    reg: int
    value: int


@record
class WriteFlags(Message):
    """Write ``value`` into flag register ``flag_reg``."""

    flag_reg: int
    value: int


@record
class Reset(Message):
    """Soft-reset request."""


@record
class BadFrame(Message):
    """Synthesised by the message buffer for a malformed/unknown frame.

    Never appears on the wire itself; it travels down the pipeline so the
    decoder can report a BAD_MESSAGE exception instead of the coprocessor
    wedging on garbage input.
    """

    header: int = 0


# -- coprocessor → host ---------------------------------------------------------

@record
class DataRecord(Message):
    """Contents of a main register, labelled with the GET instruction's tag."""

    tag: int
    value: int


@record
class FlagVector(Message):
    """Contents of a flag register, labelled with the GETF instruction's tag."""

    tag: int
    value: int


@record
class ExceptionReport(Message):
    """An error detected inside the coprocessor."""

    code: int
    info: int = 0


@record
class Halted(Message):
    """Acknowledgement that the RTM reached HALT."""


@record
class MachineCheck(Message):
    """An uncorrectable error in a protected state element.

    ``element`` identifies the state element (the machine-check unit's
    guard code), ``address`` the slot within it (register index, cell
    index, lock space, opcode), ``syndrome`` the packed flipped-bit
    positions.  The host's recovery engine rolls back to the last good
    checkpoint on receipt; without one it fails fast.
    """

    element: int
    address: int
    syndrome: int = 0


HOST_TO_COP = (Exec, WriteReg, WriteFlags, Reset)
COP_TO_HOST = (DataRecord, FlagVector, ExceptionReport, Halted, MachineCheck)
