"""End-to-end: the suite units through the full coprocessor framework.

Every dispatch crosses the message channel into the RTM, locks its
destination registers, runs the microprogram in the adapted core and
writes back through the arbiter — the same path the ξ-sort case study
takes.  Built with ``lint="error"``: the suite preset must hold the
design-rule bar the shipped presets hold.
"""

from __future__ import annotations

import pytest

from repro.fu.registry import smem_suite_registry
from repro.host.session import Session
from repro.isa.opcodes import Opcode
from repro.smem import (
    HistogramAccelerator,
    MatchAccelerator,
    ScanAccelerator,
)
from repro.system.builder import SystemSpec, build_system


@pytest.fixture(scope="module")
def session():
    built = build_system(registry=smem_suite_registry(n_cells=16),
                        lint="error")
    with Session(built) as s:
        yield s


class TestScanThroughFramework:
    def test_scan_roundtrip(self, session):
        sc = ScanAccelerator(session)
        sc.reset()
        sc.load([3, 1, 4, 1, 5])
        assert sc.count() == 5
        assert sc.total() == 14
        assert sc.minimum() == 1 and sc.maximum() == 5
        assert sc.prefix_sum() == 14
        assert [sc.read_at(i) for i in range(5)] == [3, 4, 8, 9, 14]
        assert sc.read_at(9) is None
        sc.add_all(2)
        assert sc.read_at(0) == 5

    def test_empty_queries_invalid(self, session):
        sc = ScanAccelerator(session)
        sc.reset()
        assert sc.total() is None and sc.minimum() is None


class TestHistogramThroughFramework:
    def test_histogram_roundtrip(self, session):
        h = HistogramAccelerator(session)
        h.reset()
        h.load([1, 2, 2, 5, 5, 5])
        assert h.total() == 6
        assert h.read_bin(2) == 2
        assert h.read_bin(99) is None
        assert h.peak() == (5, 3)
        assert h.nonzero_bins() == 3
        h.increment(1)
        assert h.read_bin(1) == 2


class TestMatchThroughFramework:
    def test_match_roundtrip(self, session):
        m = MatchAccelerator(session)
        m.set_pattern(b"aba")
        assert m.pattern_length() == 3
        assert m.feed(b"abababa") == [2, 4, 6]
        assert m.hits() == 3
        m.restart()
        assert m.feed(b"xxabay") == [4]
        assert m.read_pattern_at(1) == ord("b")
        assert m.read_pattern_at(9) is None


class TestSuiteAssembly:
    def test_registry_holds_all_six_units(self):
        reg = smem_suite_registry(n_cells=8)
        assert set(reg.codes()) == {Opcode.ARITH, Opcode.LOGIC, Opcode.XISORT,
                                    Opcode.SCAN, Opcode.HISTO, Opcode.MATCH}

    def test_builder_preset_wires_the_suite(self):
        built = SystemSpec(registry=smem_suite_registry(n_cells=8)).build()
        table = built.soc.rtm.futable
        for code in (Opcode.XISORT, Opcode.SCAN, Opcode.HISTO, Opcode.MATCH):
            assert code in table

    def test_suite_units_coexist_with_arith(self, session):
        """A scan dispatch and an ALU add share the register file."""
        from repro.isa import instructions as ins

        sc = ScanAccelerator(session)
        sc.reset()
        sc.push(40)
        r = session.alloc()
        session.driver.execute(ins.add(r, sc.r_val, sc.r_val))
        assert session.read(r) == 80
        assert sc.total() == 40

    @pytest.mark.parametrize("backend", [None, "compiled"])
    def test_compiled_system_matches_event(self, backend):
        built = build_system(registry=smem_suite_registry(n_cells=8),
                            lint="error", backend=backend)
        with Session(built) as s:
            sc = ScanAccelerator(s)
            sc.reset()
            sc.load([2, 4, 6])
            h = HistogramAccelerator(s)
            h.reset()
            h.load([1, 1, 3])
            assert (sc.prefix_sum(), h.peak()) == (12, (1, 2))
