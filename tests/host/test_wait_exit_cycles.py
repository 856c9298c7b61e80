"""Every host wait ends on the same cycle with the time wheel on, off, and
on the compiled backend.

The wait loops pump in multi-cycle chunks only when the kernel certifies
the stretch as pure aging, and bound each chunk by every event the wait
must observe at an exact cycle.  So a wait returns (or raises) on exactly
the cycle a one-cycle-at-a-time pump would have reached.  These tests pin
that for each wait flavour.
"""

import pytest

from repro.hdl.errors import SimulationError
from repro.host import CoprocessorDriver, HostTimeoutError, LinkDownError
from repro.isa import instructions as ins
from repro.messages import INTEGRATED, SLOW_PROTOTYPE, FaultSpec
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
