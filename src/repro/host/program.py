"""Batch program execution: assembler text → coprocessor → responses.

Glue between :mod:`repro.isa.assembler` and the driver, used by the
examples and the pipeline benchmarks: assemble a whole program, stream it
to the coprocessor, and collect every response message.
"""

from __future__ import annotations

from ..isa.assembler import assemble
from ..messages.types import DataRecord, FlagVector, Message
from .driver import CoprocessorDriver


def run_program(
    driver: CoprocessorDriver, source: str, max_cycles: int = 1_000_000
) -> list[Message]:
    """Assemble and execute ``source``; returns all responses in order.

    The program's GET/GETF instructions determine how many responses come
    back; the function counts them from the assembled instruction stream so
    callers need not.
    """
    program = assemble(source)
    from ..isa.opcodes import Opcode

    expected = sum(
        1 for i in program if i.opcode in (Opcode.GET, Opcode.GETF, Opcode.HALT)
    )
    driver.execute_all(program)
    if expected == 0:
        driver.run_until_quiet(max_cycles)
        out, driver.inbox[:] = driver.inbox[:], []
        return out
    return driver.wait_for(expected, max_cycles)


def collect_values(messages: list[Message]) -> list[int]:
    """Extract the numeric payloads of data records / flag vectors, in order."""
    return [m.value for m in messages if isinstance(m, (DataRecord, FlagVector))]
