#!/usr/bin/env python
"""Lossy links: fault injection and the reliable host↔RTM message layer.

A real FPGA functional unit hangs off a real cable — and "the communication
between the host computer and the FPGA" (§II) is only as trustworthy as
that cable.  This example turns on the framework's reliability layer
(sequence-numbered, checksummed frames with NACK + retransmission) and then
abuses the link on purpose:

1. a clean run for reference,
2. the same workload over a link that drops 1% of words and bit-flips
   another 1% in each direction — results must be identical, with the
   recovery traffic visible in the counters,
3. a link that dies mid-workload — the host gives up loudly with
   ``LinkDownError`` instead of hanging forever.

Run:  python examples/lossy_link.py
"""

from repro.analysis import counters_for
from repro.host import CoprocessorDriver, LinkDownError
from repro.isa import instructions as ins
from repro.messages import FAST_BUS, FaultSpec
from repro.system import build_system

N_OPS = 25


def run_workload(drv) -> list[int]:
    results = []
    for i in range(N_OPS):
        drv.write_reg(1, i)
        drv.write_reg(2, 3 * i)
        drv.execute(ins.add(3, 1, 2))
        results.append(drv.read_reg(3))
    drv.run_until_quiet()
    return results


def main() -> None:
    # --- 1. clean reference over a reliable link -----------------------------
    clean = CoprocessorDriver(build_system(channel=FAST_BUS, reliable=True))
    reference = run_workload(clean)
    print(f"clean link:  {N_OPS} ops in {clean.cycles} cycles, "
          f"{clean.engine.stats.retransmits} retransmits")

    # --- 2. the same workload over a 1%-drop, 1%-flip link -------------------
    lossy = CoprocessorDriver(build_system(
        channel=FAST_BUS,
        reliable=True,
        faults=FaultSpec(seed=31, drop_rate=0.01, flip_rate=0.01),
        upstream_faults=FaultSpec(seed=32, drop_rate=0.01, flip_rate=0.01),
    ))
    lossy_results = run_workload(lossy)
    assert lossy_results == reference, "reliability layer must hide the loss"
    stats = lossy.engine.stats
    print(f"lossy link:  {N_OPS} ops in {lossy.cycles} cycles, "
          f"{stats.retransmits} retransmits, {stats.nacks} NACKs, "
          f"results identical")
    print()
    print(counters_for(lossy.system, lossy).table("link"))

    # --- 3. a link that falls off the bus ------------------------------------
    dying = CoprocessorDriver(build_system(
        channel=FAST_BUS,
        reliable=True,
        faults=FaultSpec(seed=7, dead_after_words=40),
    ))
    print()
    try:
        run_workload(dying)
    except LinkDownError as err:
        print(f"dead link:   gave up at cycle {dying.cycles}: {err}")
    else:
        raise AssertionError("a dead link must raise LinkDownError")


def build_for_lint():
    """Design-rule-check target: reliable framing plus fault injectors."""
    return build_system(
        channel=FAST_BUS,
        reliable=True,
        faults=FaultSpec(seed=31, drop_rate=0.01, flip_rate=0.01),
        upstream_faults=FaultSpec(seed=32, drop_rate=0.01, flip_rate=0.01),
        lint="off",
    )


if __name__ == "__main__":
    main()
