"""repro — reproduction of Koltes & O'Donnell (IPPS 2010),
"A Framework for FPGA Functional Units in High Performance Computing".

A cycle-accurate Python simulation of the paper's generic FPGA coprocessor
framework: a pipelined Register Transfer Machine with configurable register
files, a lock-manager scoreboard and a write arbiter; a functional-unit
protocol with stateless (arithmetic/logic, thesis Tables 3.1/3.2) and
stateful (χ-sort smart-memory) case studies; the host↔FPGA message
protocol over parameterised channel models; and a host-side software stack.

Quickstart::

    from repro import Session
    from repro.isa import ArithOp

    with Session() as s:
        print(s.compute(ArithOp.ADD, 20, 22))   # -> 42

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproduction index.
"""

from .config import DEFAULT_CONFIG, FrameworkConfig
from .host.session import Session
from .system.builder import SystemSpec, build_system

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "FrameworkConfig",
    "Session",
    "SystemSpec",
    "build_system",
    "__version__",
]
