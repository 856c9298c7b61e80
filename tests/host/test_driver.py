"""Unit tests for the message-level driver."""

import pytest

from repro.hdl.errors import SimulationError
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.messages import DataRecord, Halted
from repro.system import build_system


@pytest.fixture
def driver():
    return CoprocessorDriver(build_system())


class TestDriver:
    def test_cycles_track_simulator(self, driver):
        before = driver.cycles
        driver.pump(5)
        assert driver.cycles == before + 5

    def test_wait_for_pops_in_order(self, driver):
        driver.write_reg(1, 10)
        driver.execute(ins.get(1, tag=1))
        driver.execute(ins.get(1, tag=2))
        first = driver.wait_for(1)[0]
        second = driver.wait_for(1)[0]
        assert (first.tag, second.tag) == (1, 2)

    def test_wait_for_timeout(self, driver):
        with pytest.raises(SimulationError):
            driver.wait_for(1, max_cycles=50)

    def test_read_reg_routes_past_interleaved_tags(self, driver):
        """An interloping GET no longer derails a tracked read: the engine
        routes each data record by tag, so the stray response stays queued
        in the inbox instead of raising a mismatch error."""
        driver.write_reg(1, 5)
        driver.write_reg(2, 7)
        # sneak an extra GET in so the responses interleave
        driver.execute(ins.get(2, tag=9))
        assert driver.read_reg(1, tag=3) == 5
        (stray,) = driver.wait_for(1)
        assert isinstance(stray, DataRecord)
        assert (stray.tag, stray.value) == (9, 7)

    def test_run_until_quiet_settles_everything(self, driver):
        driver.write_reg(1, 1)
        driver.write_reg(2, 2)
        driver.execute(ins.add(3, 1, 2, dst_flag=1))
        driver.run_until_quiet()
        assert not driver.soc.busy
        assert driver.soc.rtm.register_value(3) == 3

    def test_halt_and_wait(self, driver):
        driver.halt_and_wait()
        assert driver.soc.rtm.halted

    def test_inbox_accumulates_unconsumed(self, driver):
        driver.write_reg(1, 3)
        driver.execute(ins.get(1))
        driver.run_until_quiet()
        assert len(driver.inbox) == 1
        assert isinstance(driver.inbox[0], DataRecord)


class TestProgramRunner:
    def test_run_program_collects_gets(self, driver):
        from repro.host import collect_values, run_program

        msgs = run_program(
            driver,
            """
            loadi r1, 20
            loadi r2, 22
            add r3, r1, r2 -> f1
            get r3, 1
            getf f1, 2
            """,
        )
        values = collect_values(msgs)
        assert values[0] == 42

    def test_run_program_without_gets_drains(self, driver):
        from repro.host import run_program

        msgs = run_program(driver, "loadi r1, 5\nloadi r2, 6\n")
        assert msgs == []
        assert driver.soc.rtm.register_value(1) == 5

    def test_run_program_with_halt(self, driver):
        from repro.host import run_program

        msgs = run_program(driver, "halt")
        assert msgs == [Halted()]

    def test_run_program_keeps_driver_inbox_shared(self, driver):
        """Draining a GET-less program clears the inbox in place, so later
        raw responses still reach ``wait_for``."""
        from repro.host import run_program

        run_program(driver, "loadi r1, 5\n")
        assert driver.inbox is driver.engine.inbox
        driver.execute(ins.get(1, tag=4))
        (msg,) = driver.wait_for(1, max_cycles=5000)
        assert (msg.tag, msg.value) == (4, 5)
