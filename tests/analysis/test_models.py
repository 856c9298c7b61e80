"""Unit tests for the clock, link, area and timing models."""

import pytest

from repro.analysis import (
    CYCLONE_EP1C12_LES,
    DEFAULT_CLOCKS,
    INTEGRATED_LINK,
    PCIE_CLASS_LINK,
    SERIAL_PROTOTYPE_LINK,
    AreaEstimate,
    ClockModel,
    LinkModel,
    ack_forwarding_path,
    area_case_study_system,
    area_cell,
    area_framework,
    area_tree,
    area_xisort_unit,
    estimate_clock,
    format_table,
    rtm_paths,
)
from repro.config import FrameworkConfig


class TestClockModel:
    def test_paper_constants(self):
        assert DEFAULT_CLOCKS.fpga_mhz == 50.0  # the Cyclone prototype
        assert DEFAULT_CLOCKS.clock_ratio == pytest.approx(40.0)

    def test_seconds_conversions(self):
        m = ClockModel(fpga_mhz=50, cpu_mhz=2000, cpu_cycles_per_op=3)
        assert m.fpga_seconds(50_000_000) == pytest.approx(1.0)
        assert m.cpu_seconds(2_000_000_000 // 3) == pytest.approx(1.0, rel=1e-6)


class TestLinkModel:
    def test_serial_is_orders_of_magnitude_slower(self):
        assert PCIE_CLASS_LINK.word_rate_hz / SERIAL_PROTOTYPE_LINK.word_rate_hz > 1e3

    def test_transfer_seconds(self):
        link = LinkModel("x", word_rate_hz=1000, latency_s=0.01)
        assert link.transfer_seconds(0) == 0
        assert link.transfer_seconds(10) == pytest.approx(0.02)

    def test_to_channel_spec(self):
        spec = SERIAL_PROTOTYPE_LINK.to_channel_spec(fpga_mhz=50)
        # 50 MHz / 2880 words/s ≈ 17361 cycles/word
        assert spec.cycles_per_word == pytest.approx(17361, rel=0.01)
        assert spec.latency_cycles == 5000

    def test_integrated_spec_is_tight(self):
        spec = INTEGRATED_LINK.to_channel_spec()
        assert spec.cycles_per_word == 1


class TestAreaModel:
    def test_cell_area_linear_in_cells(self):
        a64 = area_xisort_unit(64, 32).breakdown["xisort.cells"]
        a128 = area_xisort_unit(128, 32).breakdown["xisort.cells"]
        assert a128 == 2 * a64

    def test_cell_area_grows_with_word(self):
        assert area_cell(64) > area_cell(32)

    def test_tree_area_roughly_linear(self):
        assert area_tree(128, 32) < 2.5 * area_tree(64, 32)

    def test_framework_area_grows_with_word_size(self):
        les = {bits: area_framework(FrameworkConfig(word_bits=bits)).total
               for bits in (32, 64, 96, 128)}
        expected = {32: 2326, 64: 3350, 96: 4374, 128: 5398}
        assert les == expected, f"A1 framework LEs: expected {expected}, got {les}"

    def test_modest_system_fits_small_cyclone(self):
        # the paper ran on a small prototyping Cyclone: a 16-cell system fits
        est = area_case_study_system(FrameworkConfig(), n_cells=16)
        assert est.fits(CYCLONE_EP1C12_LES)

    def test_large_array_exceeds_small_device(self):
        est = area_case_study_system(FrameworkConfig(), n_cells=512)
        assert not est.fits(CYCLONE_EP1C12_LES)

    def test_estimate_merge(self):
        a, b = AreaEstimate({"x": 1}), AreaEstimate({"x": 2, "y": 3})
        merged = a.merged(b)
        assert merged.breakdown == {"x": 3, "y": 3}
        assert merged.total == 6


class TestTimingModel:
    def test_controller_paths_are_short(self):
        """'the critical path in the controller is short' (§III)."""
        paths = rtm_paths(FrameworkConfig())
        assert max(p.levels for p in paths) <= 6

    def test_unit_paths_dominate(self):
        """'The main limitation on performance will be the functional units.'"""
        est = estimate_clock(FrameworkConfig(), n_cells=1024)
        assert est.critical.name.startswith("xisort")

    def test_tree_depth_lowers_clock(self):
        small = estimate_clock(FrameworkConfig(), n_cells=16)
        large = estimate_clock(FrameworkConfig(), n_cells=4096)
        assert large.fmax_mhz < small.fmax_mhz
        # F8: the log-depth fold costs clock period, never cycles
        periods = {n: estimate_clock(FrameworkConfig(), n_cells=n).period_ns
                   for n in (16, 64, 256, 1024, 4096)}
        expected = {16: 9.5, 64: 10.5, 256: 12.5, 1024: 14.5, 4096: 16.5}
        assert periods == expected, f"F8 clock period ns: expected {expected}, got {periods}"

    def test_ack_forwarding_stretches_path(self):
        """Thesis §2.3.4's warning, quantified (design decision 4)."""
        cfg = FrameworkConfig()
        base = estimate_clock(cfg, ack_forwarding=False)
        fwd = estimate_clock(cfg, ack_forwarding=True)
        assert fwd.fmax_mhz < base.fmax_mhz
        got = [(c.critical.name, c.period_ns) for c in (base, fwd)]
        expected = [("arith.datapath", 9.5), ("dispatch+ack_forwarding", 10.5)]
        assert got == expected, f"F5 critical paths: expected {expected}, got {got}"
        assert ack_forwarding_path(cfg, 2).levels > max(p.levels for p in rtm_paths(cfg))

    def test_cyclone_class_clock(self):
        # a moderate system should land in the tens-of-MHz band the paper saw
        est = estimate_clock(FrameworkConfig(), n_cells=64)
        assert 20 <= est.fmax_mhz <= 200


class TestReport:
    def test_format_table(self):
        text = format_table(["n", "cycles"], [[1, 2], [10, 2000.5]], title="T")
        assert "T" in text
        assert "cycles" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, rule, 2 rows

    def test_float_formatting(self):
        text = format_table(["x"], [[0.00001], [123456.0], [1.5]])
        assert "e-05" in text or "1e-05" in text
