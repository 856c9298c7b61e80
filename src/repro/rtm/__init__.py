"""repro.rtm — the Register Transfer Machine (the paper's core contribution).

A pipelined RISC-style controller (paper Fig. 4 / thesis Fig. 1.4):
message buffer → decoder → dispatcher → execution → message encoder →
message serialiser, around a configurable register file, a flag register
file, a lock-manager scoreboard and a write arbiter with a high-priority
port.  Functional units attach through the dispatch/result protocol of
:mod:`repro.fu`.
"""

from .decoder import DecodedOp, Decoder, ExecOp
from .dispatcher import Dispatcher
from .encoder import MessageEncoder
from .execution import Execution
from .futable import (
    FunctionalUnitTable,
    UnitEntry,
    arith_write_profile,
    default_write_profile,
)
from .lockmgr import LockManager
from .msgbuffer import MessageBuffer, ReliableMessageBuffer
from .ooo import OoODispatcher, RenamedOp
from .regfile import FlagRegisterFile, RegisterFile
from .rename import RenameTable
from .rtm import RegisterTransferMachine
from .serializer import MessageSerializer
from .write_arbiter import WriteArbiter

__all__ = [
    "DecodedOp",
    "Decoder",
    "ExecOp",
    "Dispatcher",
    "MessageEncoder",
    "Execution",
    "FunctionalUnitTable",
    "UnitEntry",
    "arith_write_profile",
    "default_write_profile",
    "LockManager",
    "MessageBuffer",
    "ReliableMessageBuffer",
    "OoODispatcher",
    "RenamedOp",
    "RenameTable",
    "FlagRegisterFile",
    "RegisterFile",
    "RegisterTransferMachine",
    "MessageSerializer",
    "WriteArbiter",
]
