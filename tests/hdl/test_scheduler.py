"""Unit tests for the event-driven settle scheduler.

Covers the discovery-pass contract (classification of tracked / always /
inert processes), read-set growth and the dynamic fallback, the quiescent
fast path, post-discovery combinational-loop detection, force/observer
interactions and the exhaustive reference mode.
"""

import pytest

from repro.hdl import (
    DYNAMIC_GROWTH_LIMIT,
    CombinationalLoopError,
    Component,
    Signal,
    SimulationError,
    Simulator,
)


class TwoLegMux(Component):
    """out = a if sel else b — reads are data-dependent (short circuit)."""

    def __init__(self):
        super().__init__("mux2")
        self.sel = self.reg("sel", 1, 0)
        self.a = self.reg("a", 8, 10)
        self.b = self.reg("b", 8, 20)
        self.out = self.signal("out", 8, 0)

        @self.comb
        def _mux():
            self.out.set(self.a.value if self.sel.value else self.b.value)

        self.seq(lambda: None)


class TestReadSetGrowth:
    def test_untaken_leg_discovered_on_first_use(self):
        """A mux leg read for the first time must immediately join the
        sensitivity set: changing only that leg afterwards re-runs the proc."""
        top = TwoLegMux()
        sim = Simulator(top)
        sim.settle()
        assert top.out.value == 20  # sel=0 leg
        top.sel.nxt = 1
        sim.step()
        sim.settle()
        assert top.out.value == 10
        # now change ONLY the newly discovered leg
        top.a.nxt = 77
        sim.step()
        sim.settle()
        assert top.out.value == 77

    def test_growth_past_limit_falls_back_to_dynamic(self):
        n = DYNAMIC_GROWTH_LIMIT + 6

        class WideMux(Component):
            def __init__(self):
                super().__init__("widemux")
                self.sel = self.reg("sel", 8, 0)
                self.ins = [self.reg(f"in{i}", 8, i + 100) for i in range(n)]
                self.out = self.signal("out", 8, 0)

                @self.comb
                def _mux():
                    self.out.set(self.ins[self.sel.value].value)

                @self.seq
                def _advance():
                    if self.sel.value < n - 1:
                        self.sel.nxt = self.sel.value + 1

        top = WideMux()
        sim = Simulator(top)
        sim.settle()
        for _ in range(n - 1):
            sim.step()
            sim.settle()
            # correctness must hold before, during and after the fallback
            assert top.out.value == top.ins[top.sel.value].value
        assert sim.kernel_stats.dynamic_fallbacks == 1
        # the fallback proc keeps tracking reality: poke the selected input
        top.ins[top.sel.value].nxt = 251
        sim.step()
        sim.settle()
        assert top.out.value == 251


class TestDiscoveryClassification:
    def test_inert_placeholder_dropped(self):
        class WithPlaceholder(Component):
            def __init__(self):
                super().__init__("ph")
                self.r = self.reg("r", 8, 0)
                self.out = self.signal("out", 8, 0)
                self.comb(lambda: None)  # no reads, no writes

                @self.comb
                def _drive():
                    self.out.set(self.r.value + 1)

                self.seq(lambda: None)

        sim = Simulator(WithPlaceholder())
        sim.settle()
        assert sim.kernel_stats.tracked_procs == 1
        assert sim.kernel_stats.always_procs == 0

    def test_hidden_input_proc_forced_always(self):
        class Hidden(Component):
            def __init__(self):
                super().__init__("hidden")
                self.state = [5]
                self.out = self.signal("out", 8, 0)

                @self.comb
                def _drive():  # writes a signal but reads only Python state
                    self.out.set(self.state[0])

                self.seq(lambda: None)

        top = Hidden()
        sim = Simulator(top)
        sim.settle()
        assert sim.kernel_stats.always_procs == 1
        top.state[0] = 9
        sim.settle()
        assert top.out.value == 9

    def test_explicit_always_annotation(self):
        class Annotated(Component):
            def __init__(self):
                super().__init__("anno")
                self.state = [1]
                self.gate = self.reg("gate", 1, 1)
                self.out = self.signal("out", 8, 0)

                # reads a signal AND hidden state: looks static to discovery,
                # so the author must pin it
                @self.comb(always=True)
                def _drive():
                    self.out.set(self.state[0] if self.gate.value else 0)

                self.seq(lambda: None)

        top = Annotated()
        sim = Simulator(top)
        sim.settle()
        assert sim.kernel_stats.always_procs == 1
        top.state[0] = 42  # invisible to signal tracking
        sim.settle()
        assert top.out.value == 42

    def test_unmanaged_signal_read_forces_always(self):
        free = Signal("free", 8, 3)

        class ReadsForeign(Component):
            def __init__(self):
                super().__init__("foreign")
                self.out = self.signal("out", 8, 0)

                @self.comb
                def _drive():
                    self.out.set(free.value * 2)

                self.seq(lambda: None)

        top = ReadsForeign()
        sim = Simulator(top)
        sim.settle()
        assert sim.kernel_stats.always_procs == 1
        free.set(11)  # no change notification reaches this simulator
        sim.settle()
        assert top.out.value == 22


class Quiesces(Component):
    """Counts to 3 then holds perfectly still."""

    def __init__(self):
        super().__init__("quiet")
        self.count = self.reg("count", 8, 0)
        self.mirror = self.signal("mirror", 8, 0)

        @self.comb
        def _drive():
            self.mirror.set(self.count.value)

        @self.seq
        def _tick():
            if self.count.value < 3:
                self.count.nxt = self.count.value + 1


class TestQuiescentFastPath:
    def test_settles_become_free_once_stable(self):
        sim = Simulator(Quiesces())
        # 3 counting cycles + 1 more so the final count commit has been seen
        sim.step(4)
        before = sim.kernel_stats.quiescent_settles
        acts = sim.kernel_stats.activations
        sim.step(10)
        assert sim.kernel_stats.quiescent_settles == before + 10
        assert sim.kernel_stats.activations == acts  # nothing re-ran

    def test_post_step_settle_is_noop(self):
        """The historical run_until double settle costs nothing now."""
        top = Quiesces()
        sim = Simulator(top)
        assert sim.run_until(lambda: top.count.value == 3) == 3
        assert sim.settle() == 0

    def test_force_wakes_fanout(self):
        class Follower(Component):
            def __init__(self):
                super().__init__("fol")
                self.inp = self.signal("inp", 8, 0)
                self.out = self.signal("out", 8, 0)

                @self.comb
                def _drive():
                    self.out.set(self.inp.value + 1)

                self.seq(lambda: None)

        top = Follower()
        sim = Simulator(top)
        sim.settle()
        top.inp.force(41)
        sim.settle()
        assert top.out.value == 42


class LatentLoop(Component):
    """Stable at reset; enabling ``en`` exposes a zero-delay oscillation."""

    def __init__(self):
        super().__init__("latent")
        self.en = self.reg("en", 1, 0)
        self.x = self.signal("x", 1, 0)

        @self.comb
        def _loop():
            if self.en.value:
                self.x.set(1 - self.x.value)
            else:
                self.x.set(0)

        self.seq(lambda: None)


class TestCombinationalLoop:
    def test_loop_after_discovery_is_diagnosed(self):
        top = LatentLoop()
        sim = Simulator(top)
        sim.settle()  # discovery passes: en=0, perfectly stable
        top.en.nxt = 1
        with pytest.raises(CombinationalLoopError) as err:
            sim.step(2)  # edge commits en, the following settle oscillates
        assert "latent.x" in str(err.value)

    def test_simulator_recoverable_after_loop(self):
        top = LatentLoop()
        sim = Simulator(top)
        sim.settle()
        top.en.nxt = 1
        with pytest.raises(CombinationalLoopError):
            sim.step(2)
        sim.reset()  # en back to 0 → stable again (forces rediscovery)
        sim.step(3)
        assert top.x.value == 0


class TestObservers:
    def test_remove_observer_restores_fast_path(self):
        sim = Simulator(Quiesces())
        seen = []
        sim.add_observer(seen.append)
        sim.step(2)
        sim.remove_observer(seen.append)
        sim.step(2)
        assert seen == [1, 2]
        assert sim._observers == []


class TestSchedulerModes:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(Quiesces(), backend="magic")

    def test_exhaustive_reference_mode(self):
        top = Quiesces()
        sim = Simulator(top, backend="exhaustive")
        sim.step(5)
        assert top.count.value == 3
        assert sim.kernel_stats.exhaustive_passes > 0
        assert sim.kernel_stats.discovery_passes == 0

    def test_run_until_cycle_counts_match_reference(self):
        """Satellite regression: the event kernel must not change the cycles
        run_until consumes (the double settle is now a no-op, not a skip)."""
        results = {}
        for backend in ("event", "exhaustive"):
            top = Quiesces()
            sim = Simulator(top, backend=backend)
            used = sim.run_until(lambda: top.count.value == 3)
            results[backend] = (used, sim.now, top.count.value)
        assert results["event"] == results["exhaustive"]

    def test_reset_triggers_rediscovery(self):
        sim = Simulator(TwoLegMux())
        sim.settle()
        d0 = sim.kernel_stats.discovery_passes
        sim.reset()
        assert sim.kernel_stats.discovery_passes > d0
