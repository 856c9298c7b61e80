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

from repro.hdl.errors import SimulationError
from repro.host import CoprocessorDriver, HostTimeoutError, LinkDownError
from repro.isa import instructions as ins
from repro.messages import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE, FaultSpec
from repro.system import build_system

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
