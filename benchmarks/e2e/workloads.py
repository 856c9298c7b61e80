"""The five end-to-end workloads, each a closed loop with one client.

A workload builds its system through the public API, opens a ``Session``
(plus any accelerators) on it, and then issues *requests*: one request is
what the client does before it checks an answer (one ``compute`` call, one
FP burst, one smart-memory task, one windowed batch).  A request carries
``ops_per_request`` ops, the unit throughput is counted in.

Inputs are a pure function of the seed: request ``i`` of seed ``s`` is drawn
from ``random.Random(s)`` in order, whatever the backend and however many
requests a run gets through.  Every workload has a Python oracle for
each request.  Simulated cycles per op do not depend on the seed (see the
notes on ``lossy_link`` and ``smem_suite``), so they compare exactly
between commits.
"""

from __future__ import annotations

import itertools
import random
import struct
from collections import Counter
from typing import Any, Optional

from repro import FrameworkConfig, Session, build_system
from repro.fu.registry import smem_suite_registry
from repro.isa import instructions as ins
from repro.isa.opcodes import ArithOp, LogicOp
from repro.messages import FAST_BUS, SLOW_PROTOTYPE, FaultSpec
from repro.smem import HistogramAccelerator, MatchAccelerator, ScanAccelerator
from repro.xisort import XiSortAccelerator

WORD_MASK = 0xFFFF_FFFF

SCALAR_OPS = (ArithOp.ADD, ArithOp.SUB, LogicOp.AND, LogicOp.XOR)


def scalar_oracle(op, x: int, y: int) -> int:
    if op is ArithOp.ADD:
        return (x + y) & WORD_MASK
    if op is ArithOp.SUB:
        return (x - y) & WORD_MASK
    if op is LogicOp.AND:
        return x & y
    return x ^ y


def scalar_request(rng: random.Random) -> tuple:
    return (rng.choice(SCALAR_OPS), rng.getrandbits(32), rng.getrandbits(32))


class Workload:
    """One workload: system, client state, seeded requests and oracle."""

    name = ""
    ops_per_request = 1
    #: requests per throughput segment (about 40 ms on the event kernel)
    segment_requests = 1
    #: segments every run completes; cycles, counters, cross-backend
    #: identity and the traced phase cover this fixed prefix
    prefix_segments = 20

    def build(self, backend: Optional[str]):
        raise NotImplementedError

    def open(self, session: Session) -> Any:
        """Client state on a fresh session (accelerators, registers)."""
        return None

    def request(self, rng: random.Random) -> Any:
        raise NotImplementedError

    def execute(self, client: Any, session: Session, req: Any) -> Any:
        raise NotImplementedError

    def expected(self, req: Any) -> Any:
        raise NotImplementedError

    def requests(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield self.request(rng)


class ScalarRoundTrip(Workload):
    """Sync ``Session.compute`` on the integrated link, one round trip per op.

    The path every ``Session`` user pays.  The RTM is nearly empty, the
    wheel never jumps and no reliability code runs.
    """

    name = "scalar_rt"
    segment_requests = 40

    def build(self, backend):
        return build_system(backend=backend)

    def request(self, rng):
        return scalar_request(rng)

    def execute(self, client, session, req):
        return session.compute(*req)

    def expected(self, req):
        return scalar_oracle(*req)


#: binary32-exact operands: every sum and product of up to a few of them
#: is exact in binary32, so Python floats are an exact oracle
FP_OPERANDS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, -0.5, -1.5, -2.0)
FP_BURST = 32
FP_DSTS = 8
FP_SRCS = 4


def f32_bits(x: float) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


class FpOooBurst(Workload):
    """Bursts of independent FP ops on the out-of-order issue engine.

    A full rename window, pipelined FUs and a busy write arbiter, with
    little host work per simulated cycle.  One op is one FP instruction.
    """

    name = "fp_ooo_burst"
    ops_per_request = FP_BURST
    segment_requests = 3

    def build(self, backend):
        return build_system(backend=backend, ooo=True, fp_units=True)

    def open(self, session):
        return session.alloc_many(FP_SRCS), session.alloc_many(FP_DSTS)

    def request(self, rng):
        srcs = tuple(rng.choice(FP_OPERANDS) for _ in range(FP_SRCS))
        burst = []
        for i in range(FP_BURST):
            # the first write of each destination overwrites it, so a burst
            # never depends on the previous burst's leftovers
            kinds = ("fadd", "fmul") if i < FP_DSTS else ("fadd", "fmul", "fmadd")
            burst.append((rng.choice(kinds), i % FP_DSTS,
                          rng.randrange(FP_SRCS), rng.randrange(FP_SRCS)))
        return srcs, tuple(burst)

    def execute(self, client, session, req):
        src_regs, dst_regs = client
        srcs, burst = req
        for reg, value in zip(src_regs, srcs):
            session.write(reg, f32_bits(value))
        make = {"fadd": ins.fadd, "fmul": ins.fmul, "fmadd": ins.fmadd}
        for kind, d, a, b in burst:
            session.driver.execute(make[kind](dst_regs[d], src_regs[a], src_regs[b]))
        with session.pipeline() as p:
            futures = [p.read(reg) for reg in dst_regs]
        return [f.result() for f in futures]

    def expected(self, req):
        srcs, burst = req
        acc = [0.0] * FP_DSTS
        for kind, d, a, b in burst:
            x, y = srcs[a], srcs[b]
            if kind == "fadd":
                acc[d] = x + y
            elif kind == "fmul":
                acc[d] = x * y
            else:
                acc[d] = x * y + acc[d]
        return [f32_bits(v) for v in acc]


SMEM_N = 8
SMEM_PATTERN = 3
SMEM_CELLS = 256
#: ξ-sort cycles depend only on the rank order of the values, so the values
#: to sort come from the seed and their order from this fixed permutation
SMEM_SORT_RANKS = (5, 2, 7, 0, 3, 6, 1, 4)


class SmemSuite(Workload):
    """Rounds of ξ-sort, scan, histogram and string match, one task a request.

    256-cell SIMD arrays dominate settle time, so this is where the
    compiled backend's vectorization pays.  One op is one accelerator task;
    a segment is one round of all four.
    """

    name = "smem_suite"
    segment_requests = 4
    prefix_segments = 8

    def build(self, backend):
        return build_system(
            config=FrameworkConfig().with_(n_regs=64),
            registry=smem_suite_registry(n_cells=SMEM_CELLS),
            backend=backend,
        )

    def open(self, session):
        return {"sort": XiSortAccelerator(session), "scan": ScanAccelerator(session),
                "hist": HistogramAccelerator(session), "match": MatchAccelerator(session)}

    def requests(self, seed):
        rng = random.Random(seed)
        while True:
            ranked = sorted(rng.sample(range(1 << 12), SMEM_N))
            yield "sort", [ranked[r] for r in SMEM_SORT_RANKS]
            yield "scan", [rng.randrange(1 << 12) for _ in range(SMEM_N)]
            yield "hist", [rng.randrange(1 << 12) for _ in range(SMEM_N)]
            # a fixed pattern length keeps match cycles data-independent too
            pattern = bytes(rng.choice(b"ab") for _ in range(SMEM_PATTERN))
            yield "match", (pattern, bytes(rng.choice(b"abc") for _ in range(SMEM_N)))

    def execute(self, client, session, req):
        task, data = req
        unit = client[task]
        if task == "sort":
            return unit.sort(data)
        if task == "scan":
            unit.reset()
            unit.load(data)
            return [unit.prefix_sum(), unit.total()]
        if task == "hist":
            unit.reset()
            unit.load(data)
            return list(unit.peak())
        unit.set_pattern(data[0])
        return unit.feed(data[1])

    def expected(self, req):
        task, data = req
        if task == "sort":
            return sorted(data)
        if task == "scan":
            return [sum(data), sum(itertools.accumulate(data))]
        if task == "hist":
            counts = Counter(s & (SMEM_CELLS - 1) for s in data)
            top = max(counts.values())
            return [min(b for b, c in counts.items() if c == top), top]
        pattern, text = data
        ends = []
        start = text.find(pattern)
        while start >= 0:
            ends.append(start + len(pattern) - 1)
            start = text.find(pattern, start + 1)
        return ends


#: Downstream only: with upstream faults too, the engine can declare a live
#: link down (see README, "Findings").  The schedule is part of the link,
#: not of the input, and is fixed: fates are drawn per word index, so every
#: seed meets the same faults and cycles per op do not move with the seed.
LOSSY_FAULTS = FaultSpec(seed=1, drop_rate=0.01, flip_rate=0.01)


class LossyLink(Workload):
    """The ``scalar_rt`` calls over a reliable link that drops and flips 1%.

    CRC framing, NACKs, Go-Back-N retransmission and degradation, all of
    which ``scalar_rt`` bypasses.
    """

    name = "lossy_link"
    segment_requests = 20
    prefix_segments = 15

    def build(self, backend):
        return build_system(channel=FAST_BUS, reliable=True, backend=backend,
                            faults=LOSSY_FAULTS)

    def request(self, rng):
        return scalar_request(rng)

    def execute(self, client, session, req):
        return session.compute(*req)

    def expected(self, req):
        return scalar_oracle(*req)


SLOW_BATCH = 16


class SlowLinkWindow(Workload):
    """Batches of ``pipeline().compute`` over the 256 cycles/word link.

    The time wheel skips about 95% of simulated cycles, so host per-chunk
    bookkeeping and ``fast_forward_limit`` scans carry the load.
    """

    name = "slow_link_window"
    ops_per_request = SLOW_BATCH
    prefix_segments = 15

    def build(self, backend):
        # 64 registers hold a whole batch (3 per compute); with the default
        # 16 the batch throttles on registers instead (see README, "Findings")
        return build_system(config=FrameworkConfig().with_(n_regs=64),
                            channel=SLOW_PROTOTYPE, window=8, backend=backend)

    def request(self, rng):
        return tuple(scalar_request(rng) for _ in range(SLOW_BATCH))

    def execute(self, client, session, req):
        with session.pipeline() as p:
            futures = [p.compute(*call) for call in req]
        return [f.result() for f in futures]

    def expected(self, req):
        return [scalar_oracle(*call) for call in req]


WORKLOADS = {w.name: w for w in (ScalarRoundTrip(), FpOooBurst(), SmemSuite(),
                                 LossyLink(), SlowLinkWindow())}
