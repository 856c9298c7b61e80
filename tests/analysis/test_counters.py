"""Unit tests for the performance-counter reporting."""

from repro.analysis import counters_for, link_counters_for
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.messages import FaultSpec
from repro.system import build_system


def _loaded_system():
    system = build_system()
    driver = CoprocessorDriver(system, raise_on_exception=False)
    driver.write_reg(1, 3)
    driver.write_reg(2, 4)
    driver.execute(ins.add(3, 1, 2, dst_flag=1))
    driver.execute(ins.xor(4, 1, 2, dst_flag=2))
    driver.execute(ins.get(3))
    driver.execute(ins.dispatch(0x7F, 0))  # one decode error
    driver.run_until_quiet()
    return system, driver


class TestCounters:
    def test_counts_reflect_workload(self):
        system, driver = _loaded_system()
        report = counters_for(system)
        assert report.cycles == system.sim.now
        assert report.dispatches == 2           # add + xor
        assert report.decode_errors == 1
        assert report.messages_sent == 2        # data record + exception
        assert report.writes >= 4               # 2 host writes + 2 results (+flags)
        assert report.locks_outstanding == 0

    def test_grants_split_across_ports(self):
        system, driver = _loaded_system()
        report = counters_for(system)
        assert set(report.grants_by_port) == {0, 1}  # arith port and logic port

    def test_rates(self):
        system, _ = _loaded_system()
        report = counters_for(system)
        assert 0.0 < report.dispatch_rate < 1.0
        assert 0.0 <= report.stall_fraction < 1.0

    def test_table_renders(self):
        system, _ = _loaded_system()
        text = counters_for(system).table()
        assert "framework counters" in text
        assert "unit dispatches" in text
        assert "arbiter grants, port 0" in text

    def test_stall_cycles_counted_under_dependency(self):
        # A fast front end cannot hide a 20-cycle unit: the dependent chain
        # must visibly stall the dispatcher.
        from repro.fu import AreaOptimizedFU, FuComputation
        from repro.system import SystemSpec

        class Slow(AreaOptimizedFU):
            def __init__(self, name, word_bits, parent=None):
                super().__init__(name, word_bits, parent, execute_cycles=20)

            def compute(self, s):
                return FuComputation(data1=(s.op_a + 1) & 0xFFFF_FFFF, flags=0)

        system = SystemSpec(units=((0x20, lambda n, w, p: Slow(n, w, p)),)).build()
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 0)
        for _ in range(4):
            driver.execute(ins.dispatch(0x20, 0, dst1=1, src1=1, dst_flag=1))
        driver.run_until_quiet()
        report = counters_for(system)
        assert report.stall_cycles > 0
        assert driver.soc.rtm.register_value(1) == 4


class TestKernelCounters:
    def test_edge_phase_counters_reported(self):
        from repro.messages.channel import SLOW_PROTOTYPE

        system = build_system(channel=SLOW_PROTOTYPE)
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 7)
        assert driver.read_reg(1) == 7
        driver.run_until_quiet()
        report = counters_for(system)
        for key in ("edge_calls", "seq_runs", "skipped_cycles", "wheel_jumps"):
            assert key in report.kernel
        k = report.kernel
        # every simulated cycle is either an executed edge or a skipped one
        assert k["edge_calls"] + k["skipped_cycles"] == report.cycles
        # the slow link leaves long certified-idle stretches: the wheel
        # must have covered most of the run in a handful of jumps
        assert k["skipped_cycles"] > k["edge_calls"]
        assert 0 < k["wheel_jumps"] <= k["skipped_cycles"]
        assert "skipped cycles" in report.kernel_table()

    def test_settle_scheduler_counters_reported(self):
        system = build_system()
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 3)
        driver.execute(ins.add(3, 1, 1))
        driver.run_until_quiet()
        report = counters_for(system)
        for key in ("settle_calls", "activations", "tracked_procs"):
            assert report.kernel[key] > 0, key
        assert report.settle_activations_per_cycle > 0
        assert "settle scheduler" in report.kernel_table()

    def test_wheel_off_executes_every_edge(self):
        from repro.messages.channel import SLOW_PROTOTYPE

        system = build_system(channel=SLOW_PROTOTYPE, wheel=False)
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 7)
        assert driver.read_reg(1) == 7
        report = counters_for(system)
        assert report.kernel["skipped_cycles"] == 0
        assert report.kernel["wheel_jumps"] == 0
        assert report.kernel["edge_calls"] == report.cycles


def _lossy_system():
    system = build_system(reliable=True,
                          faults=FaultSpec(seed=13, drop_rate=0.02),
                          upstream_faults=FaultSpec(seed=14, drop_rate=0.02))
    driver = CoprocessorDriver(system)
    for i in range(12):
        driver.write_reg(1, i)
        assert driver.read_reg(1) == i
    driver.run_until_quiet()
    return system, driver


class TestLinkCounters:
    def test_clean_plain_system_has_no_link_section(self):
        system, _ = _loaded_system()
        report = counters_for(system)
        assert report.link == {}
        assert report.link_table() == ""

    def test_faulty_reliable_system_reports_all_sections(self):
        system, _ = _lossy_system()
        link = link_counters_for(system)
        assert set(link) == {"downstream_faults", "upstream_faults",
                             "rtm_receiver"}
        for key in ("words_offered", "words_dropped", "bits_flipped",
                    "words_duplicated", "dead"):
            assert key in link["downstream_faults"]
            assert key in link["upstream_faults"]
        for key in ("frames_ok", "delivered", "crc_failures", "resyncs",
                    "seq_gaps", "duplicates", "nacks_sent",
                    "duplicates_discarded", "duplicates_reexecuted"):
            assert key in link["rtm_receiver"]
        assert link["downstream_faults"]["words_dropped"] > 0

    def test_engine_recovery_counters_folded_in(self):
        system, driver = _lossy_system()
        report = counters_for(system, driver)
        for key in ("retransmits", "retransmitted_words", "nacks",
                    "deadline_expiries", "link_down_failures",
                    "stale_responses", "response_gaps", "rx_resyncs",
                    "degrade_entries", "replay_truncated"):
            assert key in report.engine
        assert report.engine["retransmits"] > 0

    def test_link_table_renders(self):
        system, driver = _lossy_system()
        report = counters_for(system, driver)
        text = report.link_table()
        assert "link integrity" in text
        assert "downstream_faults: words dropped" in text
        assert "rtm_receiver: nacks sent" in text
