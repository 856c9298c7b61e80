#!/usr/bin/env python
"""Asynchronous host engine: overlap round trips with futures and pipelines.

The paper's host "sends one or more packets of data ... and [the
controller] returns the final results" (§II) — but a stop-and-wait host
pays the full link round trip for every result.  The host engine submits
requests as *futures*, tags each GET, routes completions back by tag, and
keeps a configurable window of requests in flight, so dependent-free
operations share the link latency instead of queueing behind it.

This example runs the same batch of computations three ways on a serial
bridge class link (latency-dominated, where windowing matters most):

1. synchronous, one blocking round trip per call,
2. explicit futures via ``compute_async``,
3. a ``session.pipeline()`` block that defers all waits to its exit,

then prints the cycle counts and the engine's own counters.

Run:  python examples/async_pipeline.py
"""

from repro import FrameworkConfig, Session, build_system
from repro.analysis import counters_for
from repro.isa import ArithOp
from repro.messages import ChannelSpec

# a USB-UART bridge class link: deep pipe, decent streaming bandwidth
SERIAL_BRIDGE = ChannelSpec("serial-bridge", latency_cycles=768, cycles_per_word=12)

N = 8
CONFIG = FrameworkConfig(n_regs=64)   # 3 registers parked per in-flight call


def new_session(window: int) -> Session:
    return Session(build_system(CONFIG, channel=SERIAL_BRIDGE, window=window))


def main() -> None:
    # --- 1. stop-and-wait baseline: every compute blocks ---------------------
    s = new_session(window=1)
    start = s.driver.cycles
    sync_results = [s.compute(ArithOp.ADD, i, 100) for i in range(N)]
    sync_cycles = s.driver.cycles - start
    print(f"synchronous      : {sync_cycles:6d} cycles  results={sync_results}")

    # --- 2. explicit futures: submit first, resolve later ---------------------
    s = new_session(window=8)
    start = s.driver.cycles
    futures = [s.compute_async(ArithOp.ADD, i, 100) for i in range(N)]
    async_results = [f.result() for f in futures]
    async_cycles = s.driver.cycles - start
    print(f"compute_async    : {async_cycles:6d} cycles  results={async_results}")

    # --- 3. pipeline block: waits deferred to exit ----------------------------
    s = new_session(window=8)
    start = s.driver.cycles
    with s.pipeline() as p:
        batch = [p.compute(ArithOp.ADD, i, 100) for i in range(N)]
    piped_results = [f.result() for f in batch]   # already resolved: instant
    piped_cycles = s.driver.cycles - start
    print(f"session.pipeline : {piped_cycles:6d} cycles  results={piped_results}")

    assert sync_results == async_results == piped_results
    print(f"\nspeedup from windowing: {sync_cycles / piped_cycles:.2f}x")

    # --- the engine's own accounting ------------------------------------------
    print()
    print(counters_for(s.system, s.driver).table("engine"))


def build_for_lint():
    """Design-rule-check target: the windowed serial-bridge system."""
    return build_system(CONFIG, channel=SERIAL_BRIDGE, window=8, lint="off")


if __name__ == "__main__":
    main()
