"""Regression pins for kernel behaviour immediately after a time-wheel jump.

A fast-forward jump leaves the kernel in an unusual pose: sequential
processes are dormant, wheel hooks have batch-aged their counters, and
``now`` has moved without per-cycle observer traffic.  These tests pin the
interactions most likely to rot:

* :meth:`Simulator.reset` right after a jump must schedule rediscovery —
  re-arming every dormant process and flushing staged registers — so the
  post-reset system behaves exactly like a freshly built one;
* :meth:`Simulator.run_until` must keep stepping cycle-exactly after a
  jump;
* observers must see a strictly monotonic ``now`` with every cycle
  accounted for, whether delivered per-cycle or as compressed idle runs;
* ``step(n, rule)`` keeps its final cycle a real edge, lands a jump on
  ``rule.cap()`` and checks ``every()`` there, ends on the edge a word
  reaches ``rule.watch``, and steps straight from a jump that landed on
  the smallest horizon to that horizon's edge — on the event kernel,
  wheel off, and compiled.
"""

from __future__ import annotations

import pytest

from repro.hdl import ChunkRule
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


BACKENDS = {
    "event": dict(),
    "wheel-off": dict(wheel=False),
    "compiled": dict(backend="compiled"),
}


def _log_scans_jumps_edges(sim) -> list:
    """Log, in order, each wheel scan that asks the first horizon
    ("scan"), each jump ("jump") and each edge ("edge") of ``sim``'s
    chunks, on the kernel's loop and the compiled ``_run`` alike."""
    log: list = []

    def logged(name, fn):
        def run(*args):
            log.append(name)
            return fn(*args)
        return run

    horizon, skip = sim._wheel_hooks[0]
    sim._wheel_hooks[0] = (horizon, logged("jump", skip))
    sim._horizons[0] = logged("scan", sim._horizons[0])
    if sim.backend == "compiled":
        ns = sim._module.namespace
        ns["_hz0"] = sim._horizons[0]
        ns["_sk0"] = sim._wheel_hooks[0][1]
        ns["_edge"] = logged("edge", ns["_edge"])
    else:
        sim._edge = logged("edge", sim._edge)
    return log


#: (now, wheel_jumps, skipped_cycles, edge_calls, seq_runs) after the read
#: round trip of ``test_no_scan_follows_a_jump_that_landed_on_a_horizon``,
#: as the kernel ran it when it still scanned after every jump
LANDED_RUN = {
    "event": (657, 7, 626, 31, 205),
    "wheel-off": (657, 0, 0, 657, 3335),
    "compiled": (657, 7, 626, 31, 205),
}


def _chunk_system(backend):
    """A serial-link system settled into idle, and a rule on its host port."""
    system = build_system(channel=SLOW_PROTOTYPE, **BACKENDS[backend])
    system.sim.step(8)  # past the re-armed edge that follows reset
    host = system.soc.host
    rule = ChunkRule(watch=host._rxq, queue=host._txq,
                     stage=system.soc.rtm.execution)
    return system, rule


def _counts(sim):
    k = sim.kernel_stats
    return k.edge_calls, k.skipped_cycles, k.wheel_jumps


class TestStepUnderRule:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_jump_never_covers_the_last_cycle(self, backend):
        system, rule = _chunk_system(backend)
        sim = system.sim
        before = _counts(sim)
        assert sim.step(500, rule) == 500
        moved = tuple(b - a for a, b in zip(before, _counts(sim)))
        wheel = backend != "wheel-off"
        # (edges, skipped cycles, jumps): one jump to the final cycle,
        # which runs as a real edge
        assert moved == ((1, 499, 1) if wheel else (500, 0, 0))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_jump_lands_on_the_cap_and_is_checked_there(self, backend):
        system, rule = _chunk_system(backend)
        sim = system.sim
        start = sim.now
        checked = []

        def every():
            checked.append(sim.now - start)
            return sim.now - start >= 37

        rule.every = every
        rule.cap = lambda: start + 37 - sim.now
        assert sim.step(500, rule) == 37
        assert sim.now == start + 37
        if backend == "wheel-off":
            assert checked == list(range(1, 38))
        else:
            assert checked == [37]
            assert sim.kernel_stats.skipped_cycles >= 37

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_word_on_watch_ends_the_chunk_on_its_edge(self, backend):
        def arrival(chunked):
            system, rule = _chunk_system(backend)
            sim = system.sim
            driver = CoprocessorDriver(system)
            driver.read_reg_async(1)  # sends the GET: a reply comes back
            start = sim.now
            if chunked:
                ran = sim.step(100_000, rule)
                assert ran == sim.now - start < 100_000
            else:
                while not rule.watch._value:
                    sim.step()
            assert rule.watch._value
            return sim.now, system.sim.kernel_stats.wheel_jumps > 0

        (at, jumped), (reference, _) = arrival(True), arrival(False)
        assert at == reference
        assert jumped == (backend != "wheel-off")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_scan_follows_a_jump_that_landed_on_a_horizon(self, backend):
        """With no cap and room to spare, every jump lands on the smallest
        horizon, whose edge does real work: the edge follows the jump with
        no scan in between, and the run is the one a scan would give."""
        system, rule = _chunk_system(backend)
        sim = system.sim
        log = _log_scans_jumps_edges(sim)
        CoprocessorDriver(system).read_reg_async(1)
        sim.step(100_000, rule)
        assert rule.watch._value
        assert ("jump", "scan") not in zip(log, log[1:])
        if backend != "wheel-off":
            assert log.count("jump") > 3
        k = sim.kernel_stats
        assert (sim.now, k.wheel_jumps, k.skipped_cycles, k.edge_calls,
                k.seq_runs) == LANDED_RUN[backend]

    def test_event_and_compiled_count_the_same(self):
        results = {}
        for backend in ("event", "compiled"):
            system = build_system(channel=SLOW_PROTOTYPE, backend=backend)
            value, cycles = _transaction_cycles(system)
            results[backend] = (value, cycles) + _counts(system.sim)
        assert results["event"] == results["compiled"]
