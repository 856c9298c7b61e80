"""Unit tests for the compiled (codegen) simulation backend.

Covers backend selection/dispatch, the front end's classification
(static wake slot, translated or called / read-tracked slot /
every-sweep), wake sets from property getters, wake-up under external
forces, sequential dormancy semantics and seq wake slots against the
event kernel, loop diagnostics and recovery, reset, the vectorized
cell-array executors, and the codegen counters surfaced through
``KernelStats``.
"""

import pytest

from repro.hdl import (
    CombinationalLoopError,
    Component,
    Signal,
    SimulationError,
    Simulator,
)
from repro.analysis.lint.testing import lint_report
from repro.hdl.compile.engine import CompiledSimulator


class AdderChain(Component):
    """Fully provable design: comb chain into one accumulating register."""

    def __init__(self):
        super().__init__("chain")
        self.a = self.signal("a", 8, 0)
        self.b = self.signal("b", 8, 0)
        self.s1 = self.signal("s1", 8, 0)
        self.s2 = self.signal("s2", 8, 0)
        self.acc = self.reg("acc", 8, 0)

        @self.comb
        def _sum():
            self.s1.set(self.a.value + self.b.value)

        @self.comb
        def _shift():
            self.s2.set((self.s1.value << 1) | self.s1.bit(7))

        @self.seq
        def _accumulate():
            self.acc.nxt = self.acc.value + self.s2.value


class HiddenCallback(Component):
    """The comb proc calls an opaque Python callback: no provable closure,
    so it runs from a read-tracked slot."""

    def __init__(self, fn):
        super().__init__("cb")
        self.x = self.signal("x", 8, 0)
        self.y = self.signal("y", 8, 0)
        self._fn = fn

        @self.comb
        def _apply():
            self.y.set(self._fn(self.x.value))

        self.seq(lambda: None)


class MutableHidden(Component):
    """Comb proc reads a hidden *mutable* attribute that no signal change
    announces: declared ``always=True``, so it runs every sweep."""

    def __init__(self):
        super().__init__("mut")
        self.out = self.signal("out", 8, 0)
        self.table = [5]

        @self.comb(always=True)
        def _lookup():
            self.out.set(self.table[0])

        self.seq(lambda: None)


class PropertyRead(Component):
    """A provable comb proc reads ``self.ready``, a property over ``x``: the
    body never names ``x``, so only the sampled getter puts ``x`` in the
    static slot's wake set."""

    def __init__(self):
        super().__init__("prop")
        self.x = self.signal("x", 1, 0)
        self.out = self.signal("out", 8, 0)

        @self.comb
        def _follow():
            self.out.set(7 if self.ready else 3)

        self.seq(lambda: None)

    @property
    def ready(self):
        return self.x.value


class HiddenLevel(Component):
    """A provable comb proc whose only input is a rebindable int attribute:
    its wake set is empty, so it runs every sweep, as on the event kernel."""

    def __init__(self):
        super().__init__("lvl")
        self.out = self.signal("out", 8, 0)
        self.level = 5

        @self.comb
        def _drive():
            self.out.set(self.level)

        self.seq(lambda: None)


class HiddenTarget(Component):
    """An impure stage-only seq proc that compares a register against a
    rebindable int attribute: the event kernel runs it every edge, so it
    must not sleep on the compiled backend either."""

    def __init__(self):
        super().__init__("tgt")
        self.q = self.reg("q", 8, 0)
        self.level = 5

        @self.seq
        def _follow():
            if self.level != self.q.value:
                self.q.nxt = self.level


class EvalMux(Component):
    """Unprovable (eval'd) mux whose read set grows with its select, plus a
    provable downstream increment that stays on a ranked wake slot."""

    def __init__(self):
        super().__init__("emux")
        self.sel = self.signal("sel", 1, 0)
        self.a = self.signal("a", 8, 0)
        self.b = self.signal("b", 8, 0)
        self.out = self.signal("out", 8, 0)
        self.inc = self.signal("inc", 8, 0)
        # eval keeps the body's source out of inspect's reach
        self.comb(eval(
            "lambda s: lambda: s.out.set((s.a if s.sel.value else s.b).value)"
        )(self))

        @self.comb
        def _inc():
            self.inc.set(self.out.value + 1)

        self.seq(lambda: None)


class UnmanagedRead(Component):
    """Unprovable comb proc reading a free-standing (unmanaged) Signal."""

    def __init__(self):
        super().__init__("ext")
        self.ext = Signal("free", 8, 0)
        self.out = self.signal("out", 8, 0)
        self.comb(eval("lambda s: lambda: s.out.set(s.ext.value)")(self))
        self.seq(lambda: None)


class FreeSeqRead(Component):
    """Unprovable pure seq proc reading a free-standing (unmanaged) Signal;
    it stages only while its register lags the input."""

    def __init__(self, wheeled=False):
        super().__init__("fseq")
        self.ext = Signal("free", 8, 0)
        self.out = self.reg("out", 8, 0)
        self.seq(eval(
            "lambda s: lambda: s.ext.value != s.out.value"
            " and s.out.stage(s.ext.value)"
        )(self), pure=True)
        if wheeled:
            self.wheel(lambda: None, lambda n: None)


class SeqFeed(Component):
    """A provable pure seq proc fed by a seq-only input ``x`` and by a comb
    output ``s`` nothing else reads; it stages only on a new sum."""

    def __init__(self):
        super().__init__("feed")
        self.x = self.signal("x", 8, 0)
        self.a = self.signal("a", 8, 0)
        self.s = self.signal("s", 8, 0)
        self.q = self.reg("q", 8, 0)

        @self.comb
        def _inc():
            self.s.set(self.a.value + 1)

        @self.seq(pure=True)
        def _follow():
            v = (self.x.value + self.s.value) & 0xFF
            if v != self.q.value:
                self.q.nxt = v


class DormantSeqs(Component):
    """An oscillator (while ``en``) next to three seq procs: a dormant wake
    slot, a dormant read-tracked slot, and a provable pure proc reading an
    unmanaged signal, which gets a tracked slot that never sleeps."""

    def __init__(self):
        super().__init__("dorm")
        self.en = self.signal("en", 1, 0)
        self.x = self.signal("x", 1, 0)
        self.free = Signal("free", 1, 0)
        self.q1 = self.reg("q1", 1, 0)
        self.q2 = self.reg("q2", 1, 0)
        self.q3 = self.reg("q3", 1, 0)

        @self.comb
        def _not():
            if self.en.value:
                self.x.set(0 if self.x.value else 1)

        @self.seq(pure=True)
        def _wake():
            if self.x.value != self.q1.value:
                self.q1.nxt = self.x.value

        self.seq(eval(
            "lambda s: lambda: s.x.value != s.q2.value and s.q2.stage(s.x.value)"
        )(self), pure=True)

        @self.seq(pure=True)
        def _polled():
            if self.free.value != self.q3.value:
                self.q3.nxt = self.free.value


def _pair(make):
    """(event sim, compiled sim) over two fresh instances of a design."""
    t_event, t_comp = make(), make()
    return (t_event, Simulator(t_event)), (t_comp, Simulator(t_comp, backend="compiled"))


class TestBackendSelection:
    def test_compiled_dispatches_subclass(self):
        sim = Simulator(AdderChain(), backend="compiled")
        assert isinstance(sim, CompiledSimulator)
        assert sim.backend == "compiled"

    def test_aliases_and_unknown_backend(self):
        assert Simulator(AdderChain(), backend="event").backend == "event"
        assert Simulator(AdderChain(), backend="exhaustive").backend == "exhaustive"
        with pytest.raises(SimulationError):
            Simulator(AdderChain(), backend="tpu")

    def test_compiled_counters_populated(self):
        sim = Simulator(AdderChain(), backend="compiled")
        stats = sim.kernel_stats.as_dict()
        assert stats["compiled_procs"] >= 3  # two comb + one seq specialized
        assert stats["fallback_procs"] == 0
        assert stats["compile_ms"] > 0
        for key in ("compiled_procs", "fallback_procs", "vectorized_cells",
                    "compile_ms"):
            assert key in stats

    def test_generated_source_exposed(self):
        sim = Simulator(AdderChain(), backend="compiled")
        src = sim.generated_source
        assert "_sweep" in src and "_edge" in src and "_scan_seq" in src


class TestTranslatedExecution:
    def test_matches_event_cycle_by_cycle(self):
        (te, se), (tc, sc) = _pair(AdderChain)
        for sim in (se, sc):
            sim.reset()
        for cyc in range(40):
            for top, sim in ((te, se), (tc, sc)):
                top.a.set(cyc & 0xFF)
                top.b.set((cyc * 7) & 0xFF)
                sim.step()
            assert te.acc.value == tc.acc.value
            assert te.s2.value == tc.s2.value
        assert se.now == sc.now

    def test_quiescent_settle_fast_path(self):
        top = AdderChain()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        top.a.set(3)
        sim.settle()
        before = sim.kernel_stats.quiescent_settles
        sim.settle()  # nothing changed: must take the fast path
        assert sim.kernel_stats.quiescent_settles == before + 1

    def test_force_reaches_compiled_guards(self):
        top = AdderChain()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        top.a.force(9)
        sim.settle()
        assert top.s1.value == 9


class TestFallbacks:
    def test_opaque_callback_still_correct(self):
        # eval keeps the callback's source out of inspect's reach, so the
        # front end genuinely cannot see through the call.
        fn = eval("lambda v: (v * 3 + 1) & 0xFF")
        make = lambda: HiddenCallback(fn)
        (te, se), (tc, sc) = _pair(make)
        assert sc.kernel_stats.fallback_procs >= 1
        for sim in (se, sc):
            sim.reset()
        for v in (0, 1, 7, 200, 255):
            for top, sim in ((te, se), (tc, sc)):
                top.x.set(v)
                sim.step()
            assert te.y.value == tc.y.value

    def test_mutable_hidden_state_reruns_every_sweep(self):
        top = MutableHidden()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        assert top.out.value == 5
        # Mutation is invisible to change notification; only an
        # every-sweep process can observe it.
        top.table[0] = 42
        sim.step()
        assert top.out.value == 42

    def test_mutable_hidden_matches_event_every_sweep(self):
        (te, se), (tc, sc) = _pair(MutableHidden)
        for sim in (se, sc):
            sim.reset()
        assert sc.kernel_stats.always_procs == 1
        quiet = sc.kernel_stats.quiescent_settles
        for v in (7, 7, 19, 0, 255):
            for top, sim in ((te, se), (tc, sc)):
                top.table[0] = v
                sim.step()
            assert te.out.value == tc.out.value == v
        # an every-sweep process keeps the quiescent fast path off
        assert sc.kernel_stats.quiescent_settles == quiet

    def test_hidden_only_writer_runs_every_sweep(self):
        (te, se), (tc, sc) = _pair(HiddenLevel)
        for sim in (se, sc):
            sim.reset()
        assert sc.kernel_stats.always_procs == se.kernel_stats.always_procs == 1
        for v in (7, 7, 19, 0):
            for top, sim in ((te, se), (tc, sc)):
                top.level = v  # no signal announces the rebinding
                sim.step()
            assert te.out.value == tc.out.value == v

    def test_hidden_only_writer_is_a_lint_finding(self):
        report = lint_report(HiddenLevel(), rules=["compile.fallback"])
        (diag,) = report.diagnostics
        assert "_drive" in diag.message
        assert "hidden inputs only" in diag.message
        assert "every settle sweep" in diag.message

    def test_impure_seq_with_hidden_load_runs_every_edge(self):
        (te, se), (tc, sc) = _pair(HiddenTarget)
        assert "_follow: every edge" in sc.generated_source
        assert sc.kernel_stats.fallback_procs == 1
        for sim in (se, sc):
            sim.reset()
        # q reaches the level, then the host rebinds it behind q's back
        for v in (5, 5, 5, 9, 9, 9, 2, 2):
            for top, sim in ((te, se), (tc, sc)):
                top.level = v
                sim.step()
            assert te.q.value == tc.q.value
        assert tc.q.value == 2
        (diag,) = lint_report(HiddenTarget(),
                              rules=["compile.fallback"]).diagnostics
        assert "loads hidden state that can change" in diag.message

    def test_property_getter_signals_wake_static_slot(self):
        (te, se), (tc, sc) = _pair(PropertyRead)
        assert sc.kernel_stats.fallback_procs == 0
        for sim in (se, sc):
            sim.reset()
        for v in (1, 0, 0, 1, 1, 0, 1):
            for top, sim in ((te, se), (tc, sc)):
                top.x.set(v)
                sim.step()
            assert te.out.value == tc.out.value == (7 if v else 3)

    def test_unprovable_comb_gets_read_tracked_slot(self):
        (te, se), (tc, sc) = _pair(EvalMux)
        stats = sc.kernel_stats
        assert stats.fallback_procs == 1 and stats.always_procs == 0
        for sim in (se, sc):
            sim.reset()
        base = (se.kernel_stats.activations, stats.activations)
        script = [("b", 9), ("sel", 1), ("b", 4), ("a", 33), ("a", 33),
                  ("sel", 0), ("a", 2), ("b", 200), (None, 0)]
        for name, v in script:
            for top, sim in ((te, se), (tc, sc)):
                if name is not None:
                    getattr(top, name).set(v)
                sim.step()
            assert (te.out.value, te.inc.value) == (tc.out.value, tc.inc.value)
        # woken exactly when a signal it read changed, as on the event
        # kernel: the select grew the read set without any demotion
        assert (se.kernel_stats.activations - base[0]
                == stats.activations - base[1])
        assert stats.dynamic_fallbacks == 0
        assert True not in sc._module.wake

    def test_unmanaged_read_demotes_to_every_sweep(self):
        (te, se), (tc, sc) = _pair(UnmanagedRead)
        for sim in (se, sc):
            sim.reset()
        stats = sc.kernel_stats
        assert stats.dynamic_fallbacks == 1
        assert stats.always_procs == 1
        for v in (3, 3, 250, 0):
            for top, sim in ((te, se), (tc, sc)):
                top.ext.set(v)  # no simulator hears this change
                sim.step()
            assert te.out.value == tc.out.value == v

    def test_dynamic_pure_seq_matches_event(self):
        class LateBound(Component):
            """Pure seq with a data-dependent read set (mux on a reg)."""

            def __init__(self):
                super().__init__("late")
                self.sel = self.reg("sel", 1, 0)
                self.a = self.reg("a", 8, 10)
                self.b = self.reg("b", 8, 20)
                self.out = self.reg("out", 8, 0)

                @self.seq(pure=True)
                def _pick():
                    src = self.a if self.sel.value else self.b
                    self.out.nxt = src.value

                self.comb(lambda: None)

        (te, se), (tc, sc) = _pair(LateBound)
        for sim in (se, sc):
            sim.reset()
        script = [("sel", 1), ("a", 33), ("b", 44), ("sel", 0), ("b", 55)]
        for name, v in script:
            for top, sim in ((te, se), (tc, sc)):
                getattr(top, name).force(v)
                sim.step(2)
            assert te.out.value == tc.out.value


class TestLoopsAndReset:
    def test_comb_loop_detected_and_recoverable(self):
        class Osc(Component):
            def __init__(self):
                super().__init__("osc")
                self.x = self.signal("x", 1, 0)
                self.en = self.signal("en", 1, 1)

                @self.comb
                def _not():
                    if self.en.value:
                        self.x.set(0 if self.x.value else 1)

                self.seq(lambda: None)

        top = Osc()
        sim = Simulator(top, backend="compiled")
        with pytest.raises(CombinationalLoopError) as exc:
            sim.reset()
        assert "x" in str(exc.value)
        top.en.force(0)
        sim.settle()  # the engine must stay usable after the diagnostic
        assert sim.settle() == 0

    def test_reset_restores_power_on_state(self):
        top = AdderChain()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        top.a.set(5)
        sim.step(3)
        assert top.acc.value != 0
        sim.reset()
        assert top.acc.value == 0
        assert top.s1.value == 0


class TestSeqWakeSlots:
    """Sequential processes run from wake slots with the event kernel's
    dormancy rule, cycle by cycle and counter by counter."""

    @staticmethod
    def _stats(sim, keys):
        d = sim.kernel_stats.as_dict()
        return [d[k] for k in keys]

    @pytest.mark.parametrize("wheeled", [False, True])
    def test_unmanaged_seq_read_never_sleeps(self, wheeled):
        (te, se), (tc, sc) = _pair(lambda: FreeSeqRead(wheeled))
        for sim in (se, sc):
            sim.reset()
        base = (se.kernel_stats.seq_runs, sc.kernel_stats.seq_runs)
        for v in (3, 3, 250, 0, 0):
            for top, sim in ((te, se), (tc, sc)):
                top.ext.set(v)  # no simulator hears this change
                sim.step()
            assert te.out.value == tc.out.value == v
            # an armed unwheeled seq proc vetoes every wheel jump
            limits = (se.fast_forward_limit(50), sc.fast_forward_limit(50))
            assert limits == ((50, 50) if wheeled else (0, 0))
        assert "tracked slot" in sc.generated_source
        assert (se.kernel_stats.seq_runs - base[0]
                == sc.kernel_stats.seq_runs - base[1] == 5)

    def test_poke_and_restore_between_edges_runs_seq(self):
        (te, se), (tc, sc) = _pair(SeqFeed)
        for sim in (se, sc):
            sim.reset()
            sim.step(2)
        base = (se.kernel_stats.seq_runs, sc.kernel_stats.seq_runs)
        for top, sim in ((te, se), (tc, sc)):
            top.x.set(5)
            top.x.set(0)  # back to the old value before the edge
            sim.step()
        # the change notification wakes it, whatever the value came back to
        assert (se.kernel_stats.seq_runs - base[0]
                == sc.kernel_stats.seq_runs - base[1] == 1)
        assert "_follow: wake slot" in sc.generated_source

    def test_seq_only_changes_are_not_settle_work(self):
        (te, se), (tc, sc) = _pair(SeqFeed)
        keys = ("quiescent_settles", "settle_iterations", "seq_runs")
        for sim in (se, sc):
            sim.reset()
        base = (self._stats(se, keys), self._stats(sc, keys))
        script = [("x", 4), ("a", 7), (None, 0), ("x", 9), ("a", 2), ("x", 4)]
        for name, v in script:
            for top, sim in ((te, se), (tc, sc)):
                if name is not None:
                    getattr(top, name).set(v)
                sim.step()
            assert te.q.value == tc.q.value
        deltas = [[b - a for a, b in zip(base[i], self._stats(sim, keys))]
                  for i, sim in enumerate((se, sc))]
        assert deltas[0] == deltas[1]
        assert True not in sc._module.wake[:sc._module.n_comb]

    def test_vector_edge_wakes_no_slot(self):
        top = SeqFeed()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        sim.step(2)
        # what a vectorized executor's edge leaves behind: one forced sweep
        # lets the executors settle, but every input of a slot moves
        # through notifying Signal.set, so no slot re-runs
        sim._edge_dirty = True
        stats = sim.kernel_stats
        before = (stats.seq_runs, stats.activations)
        sim.step()
        assert (stats.seq_runs, stats.activations) == before

    def test_recovery_and_reset_rerun_every_seq_proc(self):
        (te, se), (tc, sc) = _pair(DormantSeqs)
        src = sc.generated_source
        for tier in ("_wake: wake slot", "<lambda>: tracked slot",
                     "_polled: tracked slot"):
            assert tier in src

        def next_edge_runs():
            runs = []
            for sim in (se, sc):
                before = sim.kernel_stats.seq_runs
                sim.step()
                runs.append(sim.kernel_stats.seq_runs - before)
            return runs

        for sim in (se, sc):
            sim.reset()
            sim.step(3)
        # two procs are dormant; the unmanaged reader stays armed
        assert next_edge_runs() == [1, 1]
        for top, sim in ((te, se), (tc, sc)):
            top.en.force(1)
            with pytest.raises(CombinationalLoopError):
                sim.settle()
            top.en.force(0)
        assert next_edge_runs() == [3, 3]
        for sim in (se, sc):
            sim.step(3)
            sim.reset()
        assert next_edge_runs() == [3, 3]
        assert (te.q1.value, te.q2.value, te.q3.value) \
            == (tc.q1.value, tc.q2.value, tc.q3.value)

    def test_slow_prototype_seq_procs_are_all_woken(self):
        from repro.messages import SLOW_PROTOTYPE
        from repro.system import build_system

        sim = build_system(channel=SLOW_PROTOTYPE, backend="compiled",
                           lint="off").sim
        src = sim.generated_source
        edge = src[src.index("def _edge"):src.index("def _scan_seq")]
        tiers = [line.split(": ", 1)[1] for line in edge.splitlines()
                 if line.startswith("    # ")]
        assert len(tiers) == len(sim._seqprocs)
        assert "_t = (" not in src  # no value-guard tuple anywhere


class TestVectorizedCellArrays:
    def test_executor_absorbs_both_array_kinds(self):
        from repro.xisort import XiSortCore

        for kind in ("vector", "structural"):
            sim = Simulator(
                XiSortCore("xi", n_cells=8, array_kind=kind), backend="compiled"
            )
            assert sim.kernel_stats.vectorized_cells == 8

    def test_structural_states_redirect_through_executor(self):
        from repro.xisort import DirectXiSortMachine

        m = DirectXiSortMachine(8, array_kind="structural", backend="compiled")
        m.load([30, 10, 20])
        states = m.core.array.states()
        # LOAD shifts values in at cell 0; matches the interpreted backends.
        assert [s.data for s in states[:3]] == [20, 10, 30]

    def test_sort_identical_across_backends_and_kinds(self):
        from repro.xisort import DirectXiSortMachine

        values = [44, 7, 99, 23, 61, 5, 80, 12]
        outcomes = set()
        for backend in ("event", "compiled"):
            for kind in ("vector", "structural"):
                m = DirectXiSortMachine(8, array_kind=kind, backend=backend)
                outcomes.add((tuple(m.sort(values)), m.cycles))
        assert len(outcomes) == 1
        assert list(next(iter(outcomes))[0]) == sorted(values)

    def test_ten_thousand_cells_elaborate_and_run(self):
        from repro.xisort import DirectXiSortMachine

        m = DirectXiSortMachine(10_000, array_kind="structural", backend="compiled")
        assert m.sim.kernel_stats.vectorized_cells == 10_000
        values = [5, 3, 9, 1]
        assert m.sort(values) == sorted(values)


class TestSystemIntegration:
    def test_build_system_backend_compiled(self):
        from repro.system import build_system

        system = build_system(backend="compiled", lint="off")
        assert system.sim.backend == "compiled"

    def test_ooo_fp_burst_matches_event_activations(self):
        import struct

        from repro.host import CoprocessorDriver
        from repro.isa import instructions as ins
        from repro.system import build_system

        def f32(x):
            return struct.unpack("<I", struct.pack("<f", x))[0]

        make = (ins.fadd, ins.fmul, ins.fmadd)
        results = {}
        for backend in ("event", "compiled"):
            drv = CoprocessorDriver(build_system(
                lint="off", ooo=True, fp_units=True, backend=backend))
            sim = drv.system.sim
            for reg, x in zip((1, 2, 3, 4), (0.5, 1.25, -2.0, 3.0)):
                drv.write_reg(reg, f32(x))
            drv.run_until_quiet()
            before = sim.kernel_stats.as_dict()
            for i in range(32):
                op = make[i % 3] if i >= 8 else make[i % 2]
                drv.execute(op(8 + i % 8, 1 + i % 4, 1 + (i * 3) % 4))
            drv.run_until_quiet()
            after = sim.kernel_stats.as_dict()
            results[backend] = (
                sim.now,
                [drv.read_reg(8 + d) for d in range(8)],
                {k: after[k] - before[k]
                 for k in ("activations", "quiescent_settles")},
            )
        assert results["compiled"] == results["event"]

    def test_counters_for_surfaces_codegen_stats(self):
        from repro.analysis import counters_for
        from repro.system import build_system

        system = build_system(backend="compiled", lint="off")
        report = counters_for(system)
        assert report.kernel["compiled_procs"] > 0
        assert "compiled procs" in report.table("kernel")
