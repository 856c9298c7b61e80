"""Regression pins for kernel behaviour immediately after a time-wheel jump.

A fast-forward jump leaves the kernel in an unusual pose: sequential
processes are dormant, wheel hooks have batch-aged their counters, and
``now`` has moved without per-cycle observer traffic.  These tests pin the
three interactions most likely to rot:

* :meth:`Simulator.reset` right after a jump must schedule rediscovery —
  re-arming every dormant process and flushing staged registers — so the
  post-reset system behaves exactly like a freshly built one;
* :meth:`Simulator.run_until` must keep stepping cycle-exactly after a
  jump;
* observers must see a strictly monotonic ``now`` with every cycle
  accounted for, whether delivered per-cycle or as compressed idle runs.
"""

from __future__ import annotations

from repro.host import CoprocessorDriver
from repro.messages.channel import SLOW_PROTOTYPE
from repro.system import build_system


def _idle_skipping_system():
    """A built system that has just taken at least one wheel jump."""
    system = build_system(channel=SLOW_PROTOTYPE)
    system.sim.step(4096)
    assert system.sim.kernel_stats.skipped_cycles > 0, "wheel never engaged"
    return system


def _transaction_cycles(system) -> tuple[int, int]:
    """Run one write+read round trip; returns (value read, cycles spent)."""
    driver = CoprocessorDriver(system)
    start = system.sim.now
    driver.write_reg(1, 42)
    value = driver.read_reg(1)
    driver.run_until_quiet()
    return value, system.sim.now - start


class TestResetAfterJump:
    def test_reset_rearms_dormant_processes(self):
        # After a jump every pure seq proc is dormant; reset must re-arm
        # them (via rediscovery) or the receiver would sleep through the
        # next transaction and the read below would time out.
        system = _idle_skipping_system()
        system.sim.reset()
        value, _ = _transaction_cycles(system)
        assert value == 42

    def test_post_reset_run_matches_fresh_system(self):
        # The reset state must be indistinguishable from a freshly built
        # system: an identical transaction costs the identical cycle count.
        jumped = _idle_skipping_system()
        jumped.sim.reset()
        fresh = build_system(channel=SLOW_PROTOTYPE)
        value_j, cycles_j = _transaction_cycles(jumped)
        value_f, cycles_f = _transaction_cycles(fresh)
        assert (value_j, cycles_j) == (value_f, cycles_f)

    def test_reset_flushes_in_flight_state(self):
        # Reset with words mid-link: staged registers and flight state are
        # dropped wholesale, so the system reports idle immediately and the
        # wheel can certify a long skip again.
        system = build_system(channel=SLOW_PROTOTYPE)
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 9)
        driver.pump(10)  # words now inside the serialiser / delay line
        assert system.soc.busy
        system.sim.reset()
        assert not system.soc.busy
        # Rediscovery re-arms every process, so the scan rightly refuses to
        # jump straight out of reset; after one real edge the pure procs
        # disarm again and a long skip is certified.
        assert system.sim.fast_forward_limit(1000) == 0
        system.sim.step(2)
        assert system.sim.fast_forward_limit(1000) > 1


class TestRunUntilAfterJump:
    def test_run_until_steps_cycle_exactly(self):
        system = _idle_skipping_system()
        sim = system.sim
        n0 = sim.now
        consumed = sim.run_until(lambda: sim.now >= n0 + 7, max_cycles=100)
        assert consumed == 7
        assert sim.now == n0 + 7


class TestObserverMonotonicity:
    def test_skip_aware_observer_sees_monotonic_now(self):
        system = build_system(channel=SLOW_PROTOTYPE)
        sim = system.sim
        events = []  # (cycle, cycles_covered)
        sim.add_observer(
            lambda c: events.append((c, 1)),
            on_skip=lambda c, n: events.append((c, n)),
        )
        start = sim.now
        sim.step(3000)
        assert any(n > 1 for _, n in events), "no jump engaged"
        cycles = [c for c, _ in events]
        assert cycles == sorted(set(cycles)), "observer now not monotonic"
        assert sum(n for _, n in events) == 3000
        # each event lands exactly at the end of the span it covers
        at = start
        for cycle, covered in events:
            at += covered
            assert cycle == at
        assert sim.now == start + 3000

    def test_plain_observer_vetoes_jumps(self):
        system = build_system(channel=SLOW_PROTOTYPE)
        sim = system.sim
        seen = []
        sim.add_observer(seen.append)
        before = sim.kernel_stats.skipped_cycles
        start = sim.now
        sim.step(500)
        assert sim.kernel_stats.skipped_cycles == before
        assert seen == list(range(start + 1, start + 501))


class TestJumpCertificate:
    def test_jump_chunk_reuses_the_limit_scan(self):
        # The host steps a jump chunk right after fast_forward_limit scanned
        # the same settled state: the chunk's first jump takes that scan's
        # certificate instead of scanning again.
        results = {}
        for backend in ("event", "compiled"):
            system = build_system(channel=SLOW_PROTOTYPE, backend=backend)
            sim = system.sim
            counts = {"chunks": 0, "scans": 0}
            scan, step_wheel = sim._skip_scan, sim._step_wheel

            def counted_scan(limit, scan=scan, counts=counts):
                counts["scans"] += 1
                return scan(limit)

            def counted_chunk(cycles, step_wheel=step_wheel, counts=counts,
                              sim=sim):
                counts["chunks"] += 1
                sim._skip_scan = counted_scan
                try:
                    step_wheel(cycles)
                finally:
                    del sim._skip_scan

            sim._step_wheel = counted_chunk
            value, cycles = _transaction_cycles(system)
            stats = sim.kernel_stats
            assert counts["chunks"] > 0 and counts["scans"] == 0
            results[backend] = (value, cycles, stats.wheel_jumps,
                                stats.skipped_cycles, stats.edge_calls)
        assert results["event"] == results["compiled"]
