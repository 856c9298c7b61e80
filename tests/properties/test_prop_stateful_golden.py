"""Differential testing of stateful units under random interleaving.

Random operation sequences run through the full coprocessor (five units
sharing the pipeline, scoreboard and write arbiter) while pure-Python
models shadow each unit; the observable state afterwards must agree.
This catches cross-unit interference: a write-arbiter or lock-manager bug
that only appears when stateful and stateless dispatches interleave.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fu.stateful import (
    CAM_CLEAR,
    CAM_DELETE,
    CAM_FLAG_HIT,
    CAM_LOOKUP,
    CAM_STORE,
    HIST_CLEAR,
    HIST_READ,
    HIST_SAMPLE,
    HIST_TOTAL,
    PRNG_NEXT,
    PRNG_SEED,
    cam_factory,
    histogram_factory,
    prng_factory,
    xorshift32,
)
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.config import FrameworkConfig
from repro.system import SystemSpec

HIST, PRNG, CAM = 0x30, 0x31, 0x32
N_BINS, CAPACITY = 8, 4

operations = st.lists(
    st.one_of(
        st.tuples(st.just("hist_sample"), st.integers(0, 255)),
        st.tuples(st.just("hist_clear"), st.just(0)),
        st.tuples(st.just("prng_seed"), st.integers(1, 1 << 31)),
        st.tuples(st.just("prng_next"), st.just(0)),
        st.tuples(st.just("cam_store"), st.tuples(st.integers(0, 2),  # ≤3 keys: no eviction
                                                  st.integers(0, 1000))),
        st.tuples(st.just("cam_delete"), st.integers(0, 2)),
        st.tuples(st.just("arith_add"), st.integers(0, 1000)),
    ),
    min_size=1,
    max_size=30,
)


class GoldenStateful:
    """Pure-Python mirror of the three stateful units + a scratch adder."""

    def __init__(self):
        self.bins = [0] * N_BINS
        self.total = 0
        self.prng = 1
        self.cam: dict[int, int] = {}
        self.acc = 0

    def apply(self, op, arg):
        if op == "hist_sample":
            self.bins[arg % N_BINS] += 1
            self.total += 1
        elif op == "hist_clear":
            self.bins = [0] * N_BINS
            self.total = 0
        elif op == "prng_seed":
            self.prng = arg or 1
        elif op == "prng_next":
            self.prng = xorshift32(self.prng)
        elif op == "cam_store":
            k, v = arg
            self.cam[k] = v
        elif op == "cam_delete":
            self.cam.pop(arg, None)
        elif op == "arith_add":
            self.acc = (self.acc + arg) & 0xFFFF_FFFF


def _build():
    built = SystemSpec(FrameworkConfig(n_regs=16), units=(
        (HIST, histogram_factory(n_bins=N_BINS)),
        (PRNG, prng_factory()),
        (CAM, cam_factory(capacity=CAPACITY)),
    )).build()
    return CoprocessorDriver(built)


def _issue(driver, op, arg):
    """Translate one model op into coprocessor instructions (no waiting)."""
    if op == "hist_sample":
        driver.write_reg(10, arg)
        driver.execute(ins.dispatch(HIST, HIST_SAMPLE, src1=10))
    elif op == "hist_clear":
        driver.execute(ins.dispatch(HIST, HIST_CLEAR))
    elif op == "prng_seed":
        driver.write_reg(10, arg)
        driver.execute(ins.dispatch(PRNG, PRNG_SEED, src1=10))
    elif op == "prng_next":
        driver.execute(ins.dispatch(PRNG, PRNG_NEXT, dst1=11))
    elif op == "cam_store":
        k, v = arg
        driver.write_reg(10, k)
        driver.write_reg(12, v)
        driver.execute(ins.dispatch(CAM, CAM_STORE, src1=10, src2=12))
    elif op == "cam_delete":
        driver.write_reg(10, arg)
        driver.execute(ins.dispatch(CAM, CAM_DELETE, src1=10))
    elif op == "arith_add":
        driver.write_reg(10, arg)
        driver.execute(ins.add(13, 13, 10, dst_flag=1))


@settings(max_examples=15, deadline=None)
@given(script=operations)
def test_interleaved_stateful_units_match_models(script):
    driver = _build()
    golden = GoldenStateful()
    driver.execute(ins.dispatch(HIST, HIST_CLEAR))
    driver.execute(ins.dispatch(CAM, CAM_CLEAR))
    driver.write_reg(13, 0)  # arith accumulator
    for op, arg in script:
        _issue(driver, op, arg)
        golden.apply(op, arg)
    driver.execute(ins.fence())
    driver.run_until_quiet(max_cycles=500_000)

    # histogram state
    for b in range(N_BINS):
        driver.write_reg(10, b)
        driver.execute(ins.dispatch(HIST, HIST_READ, src1=10, dst1=14))
        assert driver.read_reg(14) == golden.bins[b], f"bin {b}"
    driver.execute(ins.dispatch(HIST, HIST_TOTAL, dst1=14))
    assert driver.read_reg(14) == golden.total

    # CAM state (keys 0..2)
    for k in range(3):
        driver.write_reg(10, k)
        driver.execute(ins.dispatch(CAM, CAM_LOOKUP, src1=10, dst1=14, dst_flag=2))
        hit = driver.read_flags(2) & CAM_FLAG_HIT
        if k in golden.cam:
            assert hit
            assert driver.read_reg(14) == golden.cam[k]
        else:
            assert not hit

    # PRNG state: the next draw must continue the model's sequence
    driver.execute(ins.dispatch(PRNG, PRNG_NEXT, dst1=14))
    assert driver.read_reg(14) == xorshift32(golden.prng)

    # arithmetic accumulator
    assert driver.soc.rtm.register_value(13) == golden.acc
