"""repro.hdl — cycle-accurate synchronous hardware simulation kernel.

This package is the reproduction's substitute for VHDL + an Altera Cyclone
FPGA (see DESIGN.md §2): a two-phase synchronous simulator (combinational
settle to fixpoint, then clock-edge register commit) plus a small library of
generic circuit elements (handshake streams, pipeline stages, FIFOs,
memories, arbiters) from which the coprocessor framework is assembled.
"""

from .component import Component
from .components import PipeStage, RoundRobinArbiter, Stream, priority_grant
from .errors import (
    CombinationalLoopError,
    ElaborationError,
    HdlError,
    MultipleDriverError,
    SimulationError,
    WidthError,
)
from .fifo import SyncFifo
from .memory import Protected, Rom, SyncRam
from .signal import Reg, Signal, mask_for
from .sim import (
    DYNAMIC_GROWTH_LIMIT,
    MAX_SETTLE_ITERATIONS,
    ChunkRule,
    KernelStats,
    Simulator,
)
from .trace import Tracer
from .vcd import VcdWriter, trace_to_string

__all__ = [
    "Component",
    "PipeStage",
    "RoundRobinArbiter",
    "Stream",
    "priority_grant",
    "CombinationalLoopError",
    "ElaborationError",
    "HdlError",
    "MultipleDriverError",
    "SimulationError",
    "WidthError",
    "SyncFifo",
    "Protected",
    "Rom",
    "SyncRam",
    "Reg",
    "Signal",
    "mask_for",
    "DYNAMIC_GROWTH_LIMIT",
    "MAX_SETTLE_ITERATIONS",
    "ChunkRule",
    "KernelStats",
    "Simulator",
    "Tracer",
    "VcdWriter",
    "trace_to_string",
]
