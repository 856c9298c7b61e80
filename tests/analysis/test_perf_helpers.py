"""Unit tests for the measurement harness itself."""

from repro.analysis import (
    measure_end_to_end_sort,
    measure_issue_rate,
    measure_xisort_step_costs,
    roundtrip_cycles,
)
from repro.config import FrameworkConfig
from repro.isa import Opcode
from repro.messages import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE
from repro.system import SystemSpec, build_system
from repro.xisort import xisort_factory


class TestMakeSystem:
    """The system configurations the measurement helpers run on."""

    def test_default_units(self):
        s = build_system()
        assert len(s.soc.rtm.units) == 2

    def test_with_xisort(self):
        s = SystemSpec(units=((Opcode.XISORT, xisort_factory(n_cells=8)),)).build()
        assert Opcode.XISORT in s.soc.rtm.futable

    def test_pipelined(self):
        s = build_system(FrameworkConfig(pipelined_units=True))
        from repro.fu import PipelinedArithmeticUnit

        assert isinstance(s.soc.rtm.unit_for(Opcode.ARITH), PipelinedArithmeticUnit)


class TestMeasurements:
    def test_issue_rate_counts_all_instructions(self):
        r = measure_issue_rate(build_system(), 16)
        assert r.instructions == 16
        assert r.cycles > 16  # at least a cycle each
        assert r.cycles_per_instruction == r.cycles / 16

    def test_xisort_step_costs_positive(self):
        c = measure_xisort_step_costs(16)
        assert c.split_cycles > c.load_cycles
        assert all(v > 0 for v in (c.load_cycles, c.split_cycles,
                                   c.find_pivot_cycles, c.read_at_cycles))

    def test_end_to_end_sort_verifies_result(self):
        cycles, out = measure_end_to_end_sort(8, 16)
        assert cycles > 0
        assert out == sorted(out)

    def test_roundtrip_slower_on_slow_link(self):
        """C1: one write+GET round trip on each cycle-accurate link preset."""
        got = {ch.name: roundtrip_cycles(build_system(channel=ch))
               for ch in (INTEGRATED, FAST_BUS, SLOW_PROTOTYPE)}
        expected = {"integrated": 19, "fast-bus": 51, "slow-prototype": 1417}
        assert got == expected, f"C1 round trips: expected {expected}, got {got}"
        assert got["slow-prototype"] > 10 * got["integrated"]
