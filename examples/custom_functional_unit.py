#!/usr/bin/env python
"""Defining your own functional unit — the framework's whole point.

The paper: "The interface framework allows several functional units to be
incorporated on the FPGA ... the designer has complete freedom in the
internal structure of a functional unit" (§IV), as long as it speaks the
dispatch/result protocol.  The skeletons of thesis §2.3.4 take care of the
protocol; you supply the datapath.

This example builds a CRC-32 unit two ways — area-optimised (one op in
flight) and fully pipelined — registers both on one coprocessor, and
offloads a message checksum, comparing against Python's binascii.

Run:  python examples/custom_functional_unit.py
"""

import binascii
import dataclasses

from repro import SystemSpec
from repro.fu import AreaOptimizedFU, FuComputation, PipelinedFunctionalUnit
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins

CRC_POLY = 0xEDB88320


def _crc32_step(crc: int, word: int) -> int:
    """Consume one 32-bit word into a running CRC-32 (bitwise datapath)."""
    crc ^= word
    for _ in range(32):
        crc = (crc >> 1) ^ (CRC_POLY if crc & 1 else 0)
    return crc


class Crc32Unit(AreaOptimizedFU):
    """op_a = running CRC, op_b = next data word → new CRC.

    A real implementation is an unrolled XOR network; 32 'execute' cycles
    model the bit-serial variant a frugal designer might synthesise.
    """

    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent, execute_cycles=32)

    def compute(self, s):
        return FuComputation(data1=_crc32_step(s.op_a, s.op_b), flags=0)


class Crc32PipelinedUnit(PipelinedFunctionalUnit):
    """The same datapath, unrolled into a 4-stage pipeline (Fig. 2.19 style).

    This unit writes no flags, and must say so: the decoder locks exactly
    the destinations the ``write_profile`` declares, and the write arbiter
    releases exactly what the unit writes back — a profile/compute mismatch
    deadlocks the scoreboard (the framework's one hard contract).
    """

    write_profile = staticmethod(lambda variety: (True, False, False))

    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent, pipeline_depth=4)

    def compute(self, s):
        return FuComputation(data1=_crc32_step(s.op_a, s.op_b))


CRC_AREA = 0x20       # function codes for the new units
CRC_PIPE = 0x21


def crc32_on_coprocessor(driver: CoprocessorDriver, data: bytes, unit: int) -> int:
    """Stream a buffer through the CRC unit, one 32-bit word per instruction."""
    assert len(data) % 4 == 0, "pad the buffer to a word multiple"
    R_CRC, R_WORD = 1, 2
    driver.write_reg(R_CRC, 0xFFFF_FFFF)          # CRC-32 init
    for i in range(0, len(data), 4):
        word = int.from_bytes(data[i : i + 4], "little")
        driver.write_reg(R_WORD, word)
        # the scoreboard serialises the chain: each step reads the last CRC
        driver.execute(ins.dispatch(unit, 0, dst1=R_CRC, src1=R_CRC, src2=R_WORD,
                                    dst_flag=1))
    return driver.read_reg(R_CRC) ^ 0xFFFF_FFFF  # CRC-32 final xor


#: both CRC units registered on top of the case-study units
SPEC = SystemSpec(units=(
    (CRC_AREA, lambda n, w, p: Crc32Unit(n, w, p)),
    (CRC_PIPE, lambda n, w, p: Crc32PipelinedUnit(n, w, p)),
))


def main() -> None:
    built = SPEC.build()
    driver = CoprocessorDriver(built)

    message = b"A framework for FPGA functional units in HPC ... "
    message += b"\x00" * (-len(message) % 4)

    expected = binascii.crc32(message) & 0xFFFF_FFFF

    start = driver.cycles
    got_area = crc32_on_coprocessor(driver, message, CRC_AREA)
    area_cycles = driver.cycles - start

    start = driver.cycles
    got_pipe = crc32_on_coprocessor(driver, message, CRC_PIPE)
    pipe_cycles = driver.cycles - start

    print(f"buffer bytes        : {len(message)}")
    print(f"binascii.crc32      : {expected:#010x}")
    print(f"area-optimised unit : {got_area:#010x}  ({area_cycles} cycles)")
    print(f"pipelined unit      : {got_pipe:#010x}  ({pipe_cycles} cycles)")
    assert got_area == got_pipe == expected
    print("checksums agree ✓")


def build_for_lint():
    """Design-rule-check target: both custom CRC units on one coprocessor."""
    return dataclasses.replace(SPEC, lint="off").build()


if __name__ == "__main__":
    main()
