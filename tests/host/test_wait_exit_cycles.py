"""Every host wait ends on the same cycle with the time wheel on, off, and
on the compiled backend.

The wait loops pump in chunks: a certified wheel jump over pure aging, or
a run of real edges that ends at the first edge after which the host has
something to act on (a word arrives, the wait's condition holds, a
checkpoint comes due) or where the wheel could jump.  Every chunk is
bounded by the budget, the no-progress trigger point and the host timers,
and an edge chunk dates the last progress-signature change inside it (a
``tx_pending`` drop, a retire) to its exact cycle.  So a wait returns (or
raises) on exactly the cycle a one-cycle-at-a-time pump would have
reached.  These tests pin that for each wait flavour, and for deadlines
whose last progress falls inside a multi-edge chunk.
"""

import pytest

from repro import FrameworkConfig, Session
from repro.hdl import Simulator
from repro.hdl.errors import SimulationError
from repro.host import CoprocessorDriver, HostTimeoutError, LinkDownError, drivers_for
from repro.isa import instructions as ins
from repro.isa.opcodes import ArithOp
from repro.messages import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE, FaultSpec
from repro.system import build_system
from repro.system.multihost import BuiltMultiHostSystem, MultiHostCoprocessorSystem

BACKENDS = {
    "wheel": dict(wheel=True),
    "no-wheel": dict(wheel=False),
    "compiled": dict(backend="compiled"),
}


def _driver(backend, channel=SLOW_PROTOTYPE, **kwargs):
    return CoprocessorDriver(build_system(channel=channel, **BACKENDS[backend], **kwargs))


def future_result(backend):
    drv = _driver(backend)
    drv.write_reg(1, 7)
    assert drv.read_reg_async(1).result() == 7
    return drv.cycles


def run_until_quiet(backend):
    drv = _driver(backend)
    drv.write_reg(1, 5)
    drv.write_reg(2, 6)
    drv.execute(ins.add(3, 1, 2))
    drv.run_until_quiet()
    assert drv.soc.rtm.register_value(3) == 11
    return drv.cycles


def wait_for(backend):
    drv = _driver(backend)
    drv.write_reg(1, 9)
    drv.execute(ins.get(1, tag=4))
    (msg,) = drv.wait_for(1)
    assert (msg.tag, msg.value) == (4, 9)
    return drv.cycles


def max_cycles_raise(backend):
    drv = _driver(backend)
    drv.write_reg(1, 7)
    start = drv.cycles
    with pytest.raises(SimulationError):
        drv.read_reg_async(1).result(max_cycles=999)
    assert drv.cycles == start + 999
    return drv.cycles


def deadline_raise(backend):
    drv = _driver(backend, faults=FaultSpec(seed=2, dead_after_words=2))
    with pytest.raises(HostTimeoutError):
        drv.read_reg_async(1).result(deadline_cycles=3_000)
    return drv.cycles


def link_down_raise(backend):
    drv = _driver(backend, channel=INTEGRATED, reliable=True,
                  faults=FaultSpec(seed=1, dead_after_words=2))
    with pytest.raises(LinkDownError):
        drv.read_reg(1)
    return drv.cycles


@pytest.mark.parametrize("flavour, exit_cycle", [
    (future_result, 1417),
    (run_until_quiet, 1671),
    (wait_for, 1417),
    (max_cycles_raise, 999),
    (deadline_raise, 3257),
    (link_down_raise, 34984),
], ids=lambda p: getattr(p, "__name__", str(p)))
def test_exit_cycle_identical_across_backends(flavour, exit_cycle):
    cycles = {name: flavour(name) for name in BACKENDS}
    assert cycles == dict.fromkeys(BACKENDS, exit_cycle)


def _one_cycle(drv):
    """Force every pump chunk to one cycle: the reference pump."""
    pump_chunk = drv.engine._pump_chunk
    drv.engine._pump_chunk = lambda _bound: pump_chunk(1)


def tx_drop_raise(backend, one_cycle):
    # the link dies mid-frame after 4 words: the last progress is the host
    # port handing its 4th word to the link, on cycle 7, inside an 8-edge
    # chunk (400 edges with the wheel off)
    drv = _driver(backend, channel=FAST_BUS, faults=FaultSpec(seed=2, dead_after_words=4))
    if one_cycle:
        _one_cycle(drv)
    drv.write_reg(1, 7)
    with pytest.raises(HostTimeoutError):
        drv.read_reg_async(1).result(deadline_cycles=400)
    return drv.cycles


def retire_raise(backend, one_cycle):
    # responses never come back: the last progress is the 6th add of a
    # dependent chain retiring on cycle 37, inside a 41-edge chunk
    drv = _driver(backend, channel=INTEGRATED,
                  upstream_faults=FaultSpec(seed=2, dead_after_words=0))
    if one_cycle:
        _one_cycle(drv)
    drv.write_reg(1, 1)
    for _ in range(6):
        drv.execute(ins.add(1, 1, 1))
    with pytest.raises(HostTimeoutError):
        drv.read_reg_async(1).result(deadline_cycles=400)
    return drv.cycles


@pytest.mark.parametrize("flavour, exit_cycle", [
    (tx_drop_raise, 407),
    (retire_raise, 437),
], ids=lambda p: getattr(p, "__name__", str(p)))
def test_deadline_exact_when_progress_is_inside_a_chunk(flavour, exit_cycle):
    cycles = {(name, one_cycle): flavour(name, one_cycle)
              for name in BACKENDS for one_cycle in (False, True)}
    assert set(cycles.values()) == {exit_cycle}


# -- chunk rules: which predicate the kernel checks, and when -----------------
#
# A wait's predicate either reads host state only (a future, the inbox, the
# session's free registers) and is checked between chunks, or may read
# simulated state (``run_until_quiet``, any caller's lambda) and is checked
# by the chunk rule after every edge.  Each case pins its exit cycle and the
# pump chunks (``sim.step`` calls) it took, per backend.

def _count_chunks(sim):
    """Count ``sim.step`` calls from here on: the host's pump chunks."""
    counter = [0]
    step = sim.step

    def counted(*args):
        counter[0] += 1
        return step(*args)

    sim.step = counted
    return counter


def classified_future(backend):
    drv = _driver(backend)
    drv.write_reg(1, 7)
    chunks = _count_chunks(drv.sim)
    assert drv.read_reg_async(1).result() == 7
    return drv.cycles, chunks[0]


def classified_wait_for(backend):
    drv = _driver(backend, channel=FAST_BUS)
    drv.write_reg(1, 9)
    drv.write_reg(2, 4)
    drv.execute(ins.get(1, tag=4))
    drv.execute(ins.get(2, tag=5))
    chunks = _count_chunks(drv.sim)
    msgs = drv.wait_for(2)
    assert [(m.tag, m.value) for m in msgs] == [(4, 9), (5, 4)]
    return drv.cycles, chunks[0]


def classified_register_throttle(backend):
    # 8 registers hold two computes: the third waits for a completion to
    # free registers (Session._alloc_async)
    system = build_system(FrameworkConfig(n_regs=8), channel=FAST_BUS,
                          **BACKENDS[backend])
    session = Session(system)
    chunks = _count_chunks(system.sim)
    with session.pipeline() as p:
        futures = [p.compute(ArithOp.ADD, i, 100 * i) for i in range(5)]
    assert [f.result() for f in futures] == [101 * i for i in range(5)]
    return system.sim.now, chunks[0]


def unclassified_quiet(backend):
    drv = _driver(backend, channel=FAST_BUS)
    drv.write_reg(1, 5)
    drv.write_reg(2, 6)
    drv.execute(ins.add(3, 1, 2))
    chunks = _count_chunks(drv.sim)
    drv.run_until_quiet()
    assert drv.soc.rtm.register_value(3) == 11
    return drv.cycles, chunks[0]


def unclassified_lambda(backend):
    # the predicate reads the register file: it must end the wait on the
    # edge that writes r3, long before any response word exists
    drv = _driver(backend)
    drv.write_reg(1, 5)
    drv.write_reg(2, 6)
    drv.execute(ins.add(3, 1, 2))
    rtm = drv.soc.rtm
    chunks = _count_chunks(drv.sim)
    drv.engine.pump_until(lambda: rtm.register_value(3) == 11)
    return drv.cycles, chunks[0]


def wedged_link(backend):
    # nothing comes back: words leave the host port and a chain of adds
    # retires, all inside edge chunks; the deadline counts from the last
    # of those, dated by the kernel to its edge
    drv = _driver(backend, channel=FAST_BUS,
                  upstream_faults=FaultSpec(seed=3, dead_after_words=0))
    drv.write_reg(1, 1)
    for _ in range(4):
        drv.execute(ins.add(1, 1, 1))
    chunks = _count_chunks(drv.sim)
    with pytest.raises(HostTimeoutError):
        drv.read_reg_async(1).result(deadline_cycles=300)
    return drv.cycles, chunks[0]


def two_cpus(backend):
    # each engine's rule watches its own port: cpu1's answer comes back
    # first, and cpu0's wait runs past the words it leaves in cpu1's port,
    # which cpu1 drains later
    soc = MultiHostCoprocessorSystem(FrameworkConfig(), n_hosts=2)
    sim = Simulator(soc, **BACKENDS[backend])
    sim.reset()
    cpu0, cpu1 = drivers_for(BuiltMultiHostSystem(soc=soc, sim=sim))
    cpu1.write_reg(9, 999)
    theirs = cpu1.read_reg_async(9)
    cpu0.write_reg(1, 111)
    cpu0.write_reg(2, 222)
    chunks = _count_chunks(sim)
    assert cpu0.read_reg(1) == 111
    mine = (sim.now, chunks[0])
    assert not theirs.done() and cpu1.host.rx_available
    assert theirs.result() == 999
    return mine


@pytest.mark.parametrize("flavour, expected", [
    (classified_future, {"wheel": (1417, 28), "no-wheel": (1417, 2),
                         "compiled": (1417, 28)}),
    (classified_wait_for, {"wheel": (61, 6), "no-wheel": (61, 4),
                           "compiled": (61, 6)}),
    (classified_register_throttle, {"wheel": (167, 14), "no-wheel": (167, 10),
                                    "compiled": (167, 14)}),
    (unclassified_quiet, {"wheel": (51, 2), "no-wheel": (51, 1),
                          "compiled": (51, 2)}),
    (unclassified_lambda, {"wheel": (1606, 27), "no-wheel": (1606, 1),
                           "compiled": (1606, 27)}),
    (wedged_link, dict.fromkeys(BACKENDS, (354, 2))),
    (two_cpus, dict.fromkeys(BACKENDS, (29, 1))),
], ids=lambda p: getattr(p, "__name__", ""))
def test_exit_cycle_and_chunks_pinned(flavour, expected):
    assert {name: flavour(name) for name in BACKENDS} == expected
