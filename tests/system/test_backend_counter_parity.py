"""Scheduler counters agree between the event kernel and compiled backend.

Builds the systems of four end-to-end benchmark workloads (``scalar_rt``,
``fp_ooo_burst``, ``lossy_link``, ``slow_link_window``) with the same
``build_system`` arguments the benchmark uses, drives a short seeded
prefix of their requests through ``Session`` on both backends, and checks
that the compiled backend's wake slots reproduce the event kernel's
dormancy and wheel decisions exactly: sequential runs, quiescent settles,
wheel jumps and skipped cycles.
"""

import random
import struct

import pytest

from repro import FrameworkConfig, Session, build_system
from repro.isa import instructions as ins
from repro.isa.opcodes import ArithOp, LogicOp
from repro.messages import FAST_BUS, SLOW_PROTOTYPE, FaultSpec

SCALAR_OPS = (ArithOp.ADD, ArithOp.SUB, LogicOp.AND, LogicOp.XOR)
FP_OPERANDS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, -0.5, -1.5, -2.0)
COUNTERS = ("seq_runs", "quiescent_settles", "wheel_jumps", "skipped_cycles")


def _scalar(rng):
    return rng.choice(SCALAR_OPS), rng.getrandbits(32), rng.getrandbits(32)


def _f32(x):
    return struct.unpack("<I", struct.pack("<f", x))[0]


def _scalar_calls(session, rng, n):
    return [session.compute(*_scalar(rng)) for _ in range(n)]


def _fp_bursts(session, rng, n):
    srcs, dsts = session.alloc_many(4), session.alloc_many(8)
    make = (ins.fadd, ins.fmul, ins.fmadd)
    out = []
    for _ in range(n):
        for reg in srcs:
            session.write(reg, _f32(rng.choice(FP_OPERANDS)))
        for i in range(32):
            op = rng.choice(make[:2] if i < 8 else make)
            session.driver.execute(op(dsts[i % 8], rng.choice(srcs), rng.choice(srcs)))
        with session.pipeline() as p:
            futures = [p.read(reg) for reg in dsts]
        out.append([f.result() for f in futures])
    return out


def _slow_batches(session, rng, n):
    out = []
    for _ in range(n):
        with session.pipeline() as p:
            futures = [p.compute(*_scalar(rng)) for _ in range(16)]
        out.append([f.result() for f in futures])
    return out


WORKLOADS = {
    "scalar_rt": ({}, _scalar_calls, 12),
    "fp_ooo_burst": (dict(ooo=True, fp_units=True), _fp_bursts, 2),
    "lossy_link": (
        dict(channel=FAST_BUS, reliable=True,
             faults=FaultSpec(seed=1, drop_rate=0.01, flip_rate=0.01)),
        _scalar_calls, 12,
    ),
    "slow_link_window": (
        dict(config=FrameworkConfig().with_(n_regs=64),
             channel=SLOW_PROTOTYPE, window=8),
        _slow_batches, 1,
    ),
}


def _run(name, backend, seed=3):
    kwargs, drive, n = WORKLOADS[name]
    system = build_system(backend=backend, lint="off", **kwargs)
    session = Session(system)
    results = drive(session, random.Random(seed), n)
    stats = system.sim.kernel_stats.as_dict()
    return system.sim.now, results, {k: stats[k] for k in COUNTERS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_compiled_counters_match_event(name):
    event = _run(name, "event")
    compiled = _run(name, "compiled")
    assert compiled == event
