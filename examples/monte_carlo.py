#!/usr/bin/env python
"""Composing stateful units: a Monte-Carlo π estimator on the coprocessor.

Uses three functional units together — the paper's §IV.B stateful examples
(a pseudorandom number generator and a histogram calculator) plus the
stateless arithmetic unit — to estimate π by the classic quarter-circle
method, with all the per-sample work on the coprocessor:

1. the PRNG unit produces x and y coordinates (no host entropy needed),
2. the arithmetic unit compares x² + y² against the radius — here the
   square is computed host-side for brevity; the comparison flag comes from
   the coprocessor's CMP,
3. the histogram unit counts hits/misses in two bins.

The host's only steady-state traffic is the dispatch stream — results stay
on-device until the end, which is exactly the usage pattern the framework
is designed for.

Run:  python examples/monte_carlo.py
"""

import dataclasses

from repro import FrameworkConfig, SystemSpec
from repro.fu.stateful import (
    HIST_CLEAR,
    HIST_READ,
    HIST_SAMPLE,
    PRNG_NEXT,
    PRNG_SEED,
    histogram_factory,
    prng_factory,
)
from repro.host import CoprocessorDriver
from repro.isa import FLAG_CARRY, instructions as ins

PRNG, HIST = 0x31, 0x30
SAMPLES = 300
SCALE = 1 << 15                       # coordinates in [0, 2^15)

#: a 16-register file with the histogram and PRNG units added
SPEC = SystemSpec(FrameworkConfig(n_regs=16), units=(
    (HIST, histogram_factory(n_bins=2)),
    (PRNG, prng_factory()),
))


def main() -> None:
    built = SPEC.build()
    d = CoprocessorDriver(built)

    R_X, R_Y, R_RR, R_LIMIT, R_BIN = 1, 2, 3, 4, 5

    d.write_reg(R_LIMIT, SCALE * SCALE)
    d.write_reg(14, 2024)
    d.execute(ins.dispatch(PRNG, PRNG_SEED, src1=14))
    d.execute(ins.dispatch(HIST, HIST_CLEAR))

    inside = 0
    for _ in range(SAMPLES):
        # two fresh pseudorandom words, truncated to 15-bit coordinates
        d.execute(ins.dispatch(PRNG, PRNG_NEXT, dst1=R_X))
        d.execute(ins.dispatch(PRNG, PRNG_NEXT, dst1=R_Y))
        x = d.read_reg(R_X) % SCALE
        y = d.read_reg(R_Y) % SCALE
        # ship x²+y² back and let the coprocessor do the compare
        d.write_reg(R_RR, x * x + y * y)
        d.execute(ins.cmp(R_RR, R_LIMIT, dst_flag=1))
        hit = 0 if d.read_flags(1) & FLAG_CARRY else 1   # rr < limit ⇒ borrow
        d.write_reg(R_BIN, hit)
        d.execute(ins.dispatch(HIST, HIST_SAMPLE, src1=R_BIN))
        inside += hit

    d.write_reg(14, 1)
    d.execute(ins.dispatch(HIST, HIST_READ, src1=14, dst1=6))
    counted = d.read_reg(6)
    assert counted == inside, "on-device histogram must agree with the host tally"

    pi = 4.0 * counted / SAMPLES
    print(f"samples              : {SAMPLES}")
    print(f"inside quarter circle: {counted}")
    print(f"π estimate           : {pi:.3f}")
    print(f"coprocessor cycles   : {d.cycles}")


def build_for_lint():
    """Design-rule-check target: the three-unit stateful composition."""
    return dataclasses.replace(SPEC, lint="off").build()


if __name__ == "__main__":
    main()
