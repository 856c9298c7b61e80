"""Issue order and word size.

* C2-OoO — register renaming dissolves the WAW flag hazard that
  serializes an independent FP stream on the in-order dispatcher, and
  costs nothing on a true dependency chain.  (The case-study units'
  issue rates, C2, are pinned in ``tests/fu/test_arith_unit`` and
  ``tests/fu/test_skeletons``.)
* A1 — the word-size generic (§II): a 128-bit addition is a 4-limb ADC
  chain on a 32-bit machine and a single ADD on a 128-bit one, which pays
  in area and clock.  (The framework's LE counts per word size are pinned
  in ``tests/analysis/test_models``.)
"""

import struct

import pytest

from repro.analysis import estimate_clock
from repro.config import FrameworkConfig
from repro.fu.registry import default_registry, fp_registry
from repro.host import CoprocessorDriver, Session
from repro.isa import ArithOp, instructions as ins
from repro.system import build_system

from .claims import pin

# ---------------------------------------------------------------- C2-OoO

#: deep FP pipelines (10/11/12 stages): the latency that makes issue order matter
FP_DEPTHS = {"add_depth": 10, "mul_depth": 11, "fma_depth": 12}


def _f32(x: float) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


def _fp_stream(stream: str, n: int, ooo: bool, **mode):
    """(cycles, GET results) for n fadds over 8 destinations ("independent")
    or n fmadds into one accumulator ("chained")."""
    built = build_system(registry=fp_registry(default_registry(), **FP_DEPTHS),
                         ooo=ooo, lint="off", **mode)
    drv = CoprocessorDriver(built)
    prog = [ins.loadi(1, _f32(1.5)), ins.loadi(2, _f32(0.25))]
    if stream == "independent":
        prog += [ins.fadd(3 + i % 8, 1, 2) for i in range(n)]
        prog += [ins.get(3 + i, tag=i) for i in range(8)]
    else:
        prog += [ins.loadi(3, _f32(1.0))]
        prog += [ins.fmadd(3, 1, 2) for _ in range(n)]
        prog += [ins.get(3, tag=0)]
    for instr in prog:
        drv.execute(instr)
    msgs = drv.wait_for(8 if stream == "independent" else 1)
    drv.run_until_quiet()
    return drv.cycles, [(m.tag, m.value) for m in msgs]


C2_MODES = {"event": {}, "wheel-off": {"wheel": False}, "compiled": {"backend": "compiled"}}
#: stream → (f32 result of every GET, {(ops, ooo): cycles})
C2_OOO = {
    "independent": (_f32(1.75), {(24, False): 330, (24, True): 152,
                                 (256, False): 3114, (256, True): 1080}),
    "chained": (None, {(24, False): 368, (24, True): 368,
                       (256, False): 3616, (256, True): 3616}),
}
#: the chain accumulates 1.0 + n · 1.5 · 0.25
C2_CHAIN_RESULT = {24: _f32(10.0), 256: _f32(97.0)}


@pytest.mark.parametrize("stream", list(C2_OOO))
def test_c2_ooo_issue(stream):
    """24-op streams on every kernel mode, 256-op streams on the event kernel."""
    value, cycles = C2_OOO[stream]
    for (n, ooo), expected in cycles.items():
        modes = list(C2_MODES) if n == 24 else ["event"]
        for mode in modes:
            got, results = _fp_stream(stream, n, ooo, **C2_MODES[mode])
            want = [(i, value) for i in range(8)] if value else [(0, C2_CHAIN_RESULT[n])]
            assert results == want, f"C2-OoO {stream} results, {n} ops, ooo={ooo}, {mode}"
            pin(f"C2-OoO {stream} cycles, {n} ops, ooo={ooo}, {mode}", expected, got)


# ---------------------------------------------------------------- A1

A1_A = 0xDEAD_BEEF_0123_4567_89AB_CDEF_1111_2222
A1_B = 0x0FED_CBA9_8765_4321_0F0F_0F0F_3333_4444
A1_SUM = (A1_A + A1_B) & ((1 << 128) - 1)


def test_a1_word_size():
    narrow = Session(build_system(FrameworkConfig(word_bits=32), lint="off"))
    ra, rb = narrow.write_wide(A1_A, 4), narrow.write_wide(A1_B, 4)
    narrow.drain()
    start = narrow.driver.cycles
    out, _ = narrow.add_wide(ra, rb)
    narrow.drain()
    pin("A1 cycles for a 128-bit add as a 32-bit ADC chain", 25, narrow.driver.cycles - start)
    assert narrow.read_wide(out) == A1_SUM

    wide = Session(build_system(FrameworkConfig(word_bits=128), lint="off"))
    ra, rb = wide.put(A1_A), wide.put(A1_B)
    wide.drain()
    start = wide.driver.cycles
    rd = wide.arith(ArithOp.ADD, ra, rb)
    wide.drain()
    pin("A1 cycles for one 128-bit ADD", 13, wide.driver.cycles - start)
    assert wide.read(rd) == A1_SUM

    periods = {bits: estimate_clock(FrameworkConfig(word_bits=bits)).period_ns
               for bits in (32, 64, 96, 128)}
    pin("A1 clock period ns per word size", {32: 9.5, 64: 13.5, 96: 17.5, 128: 21.5},
        periods)
