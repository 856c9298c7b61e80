"""Unit tests for the compiled (codegen) simulation backend.

Covers backend selection/dispatch, the front end's classification
(static wake slot, translated or called / read-tracked slot /
every-sweep), wake sets from property getters, wake-up under external
forces, sequential dormancy semantics and seq wake slots against the
event kernel, loop diagnostics and recovery, reset, the vectorized
cell-array executors, the codegen counters surfaced through
``KernelStats``, and residual translation: builtin resolution, live
closure cells and attributes, rebind-proof constants, managed stores,
tracebacks, per-code-object templates and warm builds.
"""

import enum
import re
from dataclasses import dataclass

import pytest

from repro.hdl import (
    CombinationalLoopError,
    Component,
    Reg,
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


@dataclass(frozen=True)
class Cfg:
    level: int


class HiddenCfgLevel(Component):
    """HiddenLevel with its level in a frozen dataclass: the ``Cfg`` cannot
    change, but the host may rebind ``self.cfg``, so ``self.cfg.level`` is
    no constant."""

    def __init__(self):
        super().__init__("lvl")
        self.out = self.signal("out", 8, 0)
        self.cfg = Cfg(level=5)

        @self.comb
        def _drive():
            self.out.set(self.cfg.level)

        self.seq(lambda: None)


class HiddenCfgTarget(Component):
    """HiddenTarget with its level in a frozen dataclass held in a
    rebindable attribute."""

    def __init__(self):
        super().__init__("tgt")
        self.q = self.reg("q", 8, 0)
        self.cfg = Cfg(level=5)

        @self.seq
        def _follow():
            if self.cfg.level != self.q.value:
                self.q.nxt = self.cfg.level


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
            self.wheel(lambda: None)


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

    @pytest.mark.parametrize("make, probe, proc, plan", [
        (HiddenCfgLevel, "out", "_drive", "every sweep"),
        (HiddenCfgTarget, "q", "_follow", "every edge"),
    ], ids=["comb", "seq"])
    def test_frozen_field_behind_rebindable_attribute_stays_live(
            self, make, probe, proc, plan):
        # the host swaps the whole Cfg; each run must read the new level
        def poke(top, cyc):
            top.cfg = Cfg(level=(5, 5, 9, 9, 2, 2, 7)[cyc])

        (te, _se), (tc, sc) = _vcd_run(make, poke, 7)
        assert getattr(te, probe).value == getattr(tc, probe).value == 7
        qualname = f"{make.__name__}.__init__.<locals>.{proc}"
        assert "self.cfg.level" in _body(sc, qualname)  # not folded to 5
        if plan == "every edge":
            assert f"{proc}: every edge" in sc.generated_source
        else:
            assert sc.kernel_stats.always_procs == 1

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


# -- residual translation -----------------------------------------------------


class Counted(Component):
    """One comb body using the builtins ``len``, ``bool`` and ``min``."""

    def __init__(self):
        super().__init__("counted")
        self.a = self.signal("a", 4, 0)
        self.items = self.reg("items", None, reset=())
        self.n = self.signal("n", 8, 0)
        self.lo = self.signal("lo", 4, 0)
        self.nz = self.signal("nz", 1, 0)

        @self.comb
        def _measure():
            self.n.set(len(self.items.value))
            self.lo.set(min(self.a.value, 9))
            self.nz.set(bool(self.a.value))

        @self.seq(pure=True)
        def _grow():
            if self.a.value and len(self.items.value) < 20:
                self.items.nxt = self.items.value + (self.a.value,)


class NonlocalCounter(Component):
    """A comb proc reads closure variables ``k`` (an int) and ``cur`` (a
    signal); an impure seq proc rebinds both through ``nonlocal`` on every
    edge."""

    def __init__(self):
        super().__init__("nl")
        a = self.signal("a", 8, 30)
        b = self.signal("b", 8, 60)
        self.out = self.signal("out", 8, 0)
        self.tick = self.reg("tick", 8, 0)
        k = 0
        cur = a

        @self.comb
        def _show():
            self.out.set(k * 3 + self.tick.value + cur.value)

        @self.seq
        def _bump():
            nonlocal k, cur
            k += 1
            cur = b if cur is a else a
            self.tick.nxt = self.tick.value + 1


class Raiser(Component):
    """A comb proc that raises when its input reaches 7."""

    def __init__(self):
        super().__init__("raiser")
        self.x = self.signal("x", 8, 0)
        self.out = self.signal("out", 8, 0)

        @self.comb
        def _check():
            if self.x.value == 7:
                raise ValueError("x reached 7")
            self.out.set(self.x.value + 1)

        self.seq(lambda: None)


class Widthy(Component):
    """One ``_tick`` code object whose instances classify differently:
    the register width, and ``peer`` None or a component.  The tick loads
    the rebindable ``peer``, so it is impure and runs every edge."""

    def __init__(self, name, width, peer=None, parent=None):
        super().__init__(name, parent)
        self.a = self.signal("a", 4, 0)
        self.out = self.reg("out", width, 0)
        self.peer = peer

        @self.seq
        def _tick():
            v = self.a.value + 3
            if self.peer is not None:
                v += self.peer.a.value
            self.out.nxt = v


class WidthyTop(Component):
    def __init__(self):
        super().__init__("wtop")
        self.wide = Widthy("wide", 8, parent=self)
        self.narrow = Widthy("narrow", 4, parent=self)
        self.paired = Widthy("paired", 8, peer=self.narrow, parent=self)


class FreeStage(Component):
    """A seq proc stages a free-standing register as well as its own: no
    simulator commits the free one, on any backend."""

    def __init__(self):
        super().__init__("fst")
        self.free = Reg("free", 8, 0)
        self.q = self.reg("q", 8, 0)

        @self.seq
        def _tick():
            self.free.nxt = self.q.value + 7
            self.q.nxt = self.q.value + 1


class Rebinding(Component):
    """A seq proc rebinds which signal ``cur`` names; the comb proc reading
    ``self.cur.value`` must follow it, so ``cur`` is not structural."""

    def __init__(self):
        super().__init__("rb")
        self.a = self.signal("a", 8, 3)
        self.b = self.signal("b", 8, 9)
        self.out = self.signal("out", 8, 0)
        self.t = self.reg("t", 1, 0)
        self.cur = self.a

        @self.comb
        def _show():
            self.out.set(self.cur.value + self.t.value)

        @self.seq
        def _swap():
            self.cur = self.b if self.cur is self.a else self.a
            self.t.nxt = 1 - self.t.value


class TwoLambdas(Component):
    """Two comb lambdas in one source statement: the source cannot tell
    which is which, so neither is analysed or specialized from it."""

    def __init__(self):
        super().__init__("two")
        self.a = self.signal("a", 8, 0)
        self.b = self.signal("b", 8, 0)
        self.x = self.signal("x", 8, 0)
        self.y = self.signal("y", 8, 0)
        procs = (lambda: self.x.set(self.a.value + 1), lambda: self.y.set(self.b.value + 2))
        for fn in procs:
            self.comb(fn)
        self.seq(lambda: None)


class Mode(enum.Enum):
    FAST = 1
    SLOW = 2


class FoldedCfg(Component):
    """Rebind-proof constants: an enum member, and a frozen-dataclass field
    reached from a parameter default."""

    def __init__(self):
        super().__init__("fold")
        self.a = self.signal("a", 4, 0)
        self.out = self.signal("out", 8, 0)

        @self.comb
        def _drive(cfg=Cfg(level=5), mode=Mode.FAST):
            if mode is Mode.SLOW:
                self.out.set(0)
            else:
                self.out.set(self.a.value + cfg.level)

        self.seq(lambda: None)


def _vcd_run(make, poke, cycles):
    """Run ``make()`` on the event and compiled backends in lockstep,
    applying ``poke(top, cycle)`` before each step; returns the two VCD
    texts, the two (top, sim) pairs and each cycle's observed values."""
    import io

    from repro.hdl.vcd import VcdWriter

    out = []
    for backend in ("event", "compiled"):
        top = make()
        sim = Simulator(top, backend=backend)
        buf = io.StringIO()
        writer = VcdWriter(sim, buf)
        sim.reset()
        seen = []
        for cyc in range(cycles):
            poke(top, cyc)
            sim.step()
            seen.append(tuple(s.value for s in top.all_signals()))
        writer.detach()
        out.append((buf.getvalue(), (top, sim), seen))
    (vcd_e, pair_e, seen_e), (vcd_c, pair_c, seen_c) = out
    assert seen_c == seen_e
    assert vcd_c == vcd_e
    return pair_e, pair_c


def _templates(sim, qualname):
    return [line for line in sim.generated_source.splitlines()
            if line.startswith("# template ") and f": {qualname} (" in line]


def _body(sim, qualname):
    """The specialized source of the first template for ``qualname``."""
    lines = sim.generated_source.splitlines()
    start = lines.index(_templates(sim, qualname)[0]) + 1
    end = start + 1
    while not lines[end].startswith("#"):
        end += 1
    return "\n".join(lines[start:end])


class TestResidualTranslation:
    def test_builtins_translate_with_masks_elided(self):
        def poke(top, cyc):
            top.a.set((cyc * 5) % 16)

        _e, (tc, sc) = _vcd_run(Counted, poke, 12)
        body = _body(sc, "Counted.__init__.<locals>._measure")
        # every signal access inlined: no Signal method or property left
        assert ".value" not in body and ".set(" not in body
        assert "len(_h0._value)" in body
        # min(a, 9) is [0, 9] and fits 4 bits: stored without a mask; len
        # is unbounded and bool is not an int, so both keep theirs
        assert "_v = min(" in body
        assert "_INT(len(" in body and "_INT(bool(" in body
        assert sc.kernel_stats.masks_elided >= 1

    def test_shadowed_builtins_are_not_modeled(self):
        from .shadowed_builtins import Shadowed

        def poke(top, cyc):
            top.a.set((cyc * 7) % 16)

        (te, _se), (tc, sc) = _vcd_run(Shadowed, poke, 12)
        assert te.n.value >= 100  # the module's len ran on both backends
        body = _body(sc, "Shadowed.__init__.<locals>._measure")
        assert "_INT(min(" in body  # min is not the builtin: mask kept

    def test_rebind_proof_constants_fold(self):
        def poke(top, cyc):
            top.a.set((cyc * 7) % 16)

        (te, _se), (tc, sc) = _vcd_run(FoldedCfg, poke, 6)
        assert te.out.value == tc.out.value == 35 % 16 + 5
        body = _body(sc, "FoldedCfg.__init__.<locals>._drive")
        # Mode.SLOW is hoisted (identity kept), cfg.level becomes 5, and
        # a + 5 fits 8 bits: the store needs no mask
        assert "cfg.level" not in body and "Mode.SLOW" not in body
        assert re.search(r"^ +_v = _h\d+\._value \+ 5$", body, re.M)

    def test_warm_build_reads_no_source(self, monkeypatch):
        import ast
        import inspect

        from repro.system import build_system

        first = build_system(backend="compiled").sim
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        for mod, name in ((inspect, "getsource"), (inspect, "getsourcelines"),
                          (ast, "parse")):
            monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
        second = build_system(backend="compiled").sim
        assert calls == []
        assert second.generated_source == first.generated_source

    @pytest.mark.parametrize("kwargs, translated", [
        ({}, 43),
        (dict(ooo=True, fp_units=True), 50),
    ], ids=["default", "ooo-fp"])
    def test_translated_procs_pinned(self, kwargs, translated):
        from repro.analysis import counters_for
        from repro.system import build_system

        system = build_system(backend="compiled", lint="off", **kwargs)
        stats = system.sim.kernel_stats
        assert stats.translated_procs == translated
        assert counters_for(system).kernel["translated_procs"] == translated

    def test_nonlocal_rebinding_is_live(self):
        (te, _se), (tc, sc) = _vcd_run(NonlocalCounter, lambda t, c: None, 10)
        # k and cur moved on every edge and the specialized _show saw each
        # binding: 3 * k + tick + b with k = tick = 9 at the last settle
        assert te.out.value == tc.out.value == 36 + 60
        assert "cur.value" in _body(sc, "NonlocalCounter.__init__.<locals>._show")
        assert _templates(sc, "NonlocalCounter.__init__.<locals>._show")
        assert not _templates(sc, "NonlocalCounter.__init__.<locals>._bump")

    def test_unmanaged_target_keeps_its_own_store(self):
        (te, _se), (tc, sc) = _vcd_run(FreeStage, lambda t, c: None, 5)
        assert (tc.free.value, tc.free.nxt) == (te.free.value, te.free.nxt) \
            == (0, 11)
        body = _body(sc, "FreeStage.__init__.<locals>._tick")
        assert "self.free.nxt = " in body and "_SL.append(_h" in body

    def test_attribute_a_process_stores_stays_live(self):
        _e, (_tc, sc) = _vcd_run(Rebinding, lambda t, c: None, 6)
        body = _body(sc, "Rebinding.__init__.<locals>._show")
        assert "self.cur.value" in body

    def test_lambdas_sharing_a_statement_run_as_written(self):
        # each lambda must be analysed, and woken, on its own input
        def poke(top, cyc):
            (top.a if cyc % 2 else top.b).set(cyc * 3)

        _e, (tc, sc) = _vcd_run(TwoLambdas, poke, 6)
        assert (tc.x.value, tc.y.value) == (16, 14)
        assert sc.kernel_stats.translated_procs == 1  # the seq lambda only

    def test_edited_source_is_not_specialized(self, tmp_path, monkeypatch):
        import importlib
        import linecache
        import textwrap

        path = tmp_path / "edited_design.py"
        path.write_text(textwrap.dedent("""
            from repro.hdl import Component

            class Edited(Component):
                def __init__(self):
                    super().__init__("ed")
                    self.a = self.signal("a", 8, 0)
                    self.y = self.signal("y", 8, 0)

                    @self.comb
                    def _inc():
                        self.y.set(self.a.value + 1)

                    self.seq(lambda: None)
        """))
        monkeypatch.syspath_prepend(str(tmp_path))
        module = importlib.import_module("edited_design")
        # the file changes after import: its text no longer matches _inc
        path.write_text(path.read_text().replace("+ 1", "+ 100"))
        linecache.checkcache(str(path))
        for backend in ("event", "compiled"):
            top = module.Edited()
            sim = Simulator(top, backend=backend)
            sim.reset()
            top.a.set(5)
            sim.step()
            assert top.y.value == 6, backend
        assert not _templates(sim, "Edited.__init__.<locals>._inc")

    def test_traceback_names_original_line(self):
        import traceback

        def poke(top, cyc):
            top.x.set(cyc)

        _vcd_run(Raiser, poke, 7)  # x = 0..6: no raise yet
        with open(__file__) as f:
            line = next(i for i, text in enumerate(f, 1)
                        if 'raise ValueError("x reached 7")' in text)
        for backend in ("event", "compiled"):
            top = Raiser()
            sim = Simulator(top, backend=backend)
            sim.reset()
            top.x.set(7)
            with pytest.raises(ValueError, match="x reached 7") as info:
                sim.settle()
            frame = traceback.extract_tb(info.value.__traceback__)[-1]
            assert (frame.filename, frame.lineno, frame.name) \
                == (__file__, line, "_check"), backend
        assert _templates(sim, "Raiser.__init__.<locals>._check")

    def test_distinct_templates_per_classification(self):
        def poke(top, cyc):
            for w in (top.wide, top.narrow, top.paired):
                w.a.set((cyc * 3) % 16)

        _e, (tc, sc) = _vcd_run(WidthyTop, poke, 10)
        assert len(_templates(sc, "Widthy.__init__.<locals>._tick")) == 3
        # a = 11 on the last edge: 14 fits 4 bits, 25 needs the 8-bit reg
        assert (tc.wide.out.value, tc.narrow.out.value,
                tc.paired.out.value) == (14, 14, 25)

    def test_tracked_plan_discovers_reads_run_by_run(self):
        top = EvalMux()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        (tracked,) = sim._tracked

        def fan():
            return {sig.name: sorted(slots)
                    for sig, slots in sim._module.fanout.items()}

        assert {s.name for s in tracked.reads} == {"emux.sel", "emux.b"}
        assert fan() == {"emux.out": [0], "emux.sel": [1], "emux.b": [1]}
        top.sel.set(1)
        sim.step()
        assert {s.name for s in tracked.reads} == {"emux.sel", "emux.b",
                                                   "emux.a"}
        assert fan() == {"emux.out": [0], "emux.sel": [1], "emux.b": [1],
                         "emux.a": [1]}

    @pytest.mark.parametrize("kwargs, fanout, reads", [
        ({}, 114, []),
        (dict(ooo=True, fp_units=True), 148, []),
    ], ids=["default", "ooo-fp"])
    def test_tracked_discovery_on_systems(self, kwargs, fanout, reads):
        # the fanout map and the tracked read sets after a seeded prefix:
        # no shipped system keeps a read-tracked plan (the out-of-order
        # dispatcher's _drive reads unit idleness off the static unit
        # table, so its slot wakes on every unit's idle signal), and
        # specializing the bodies leaves these alone; the EvalMux fixtures
        # cover the read-tracked path
        import random

        from repro import Session
        from repro.isa.opcodes import ArithOp, LogicOp
        from repro.system import build_system

        system = build_system(backend="compiled", lint="off", **kwargs)
        session = Session(system)
        rng = random.Random(3)
        for _ in range(20):
            session.compute(rng.choice((ArithOp.ADD, ArithOp.SUB,
                                        LogicOp.AND, LogicOp.XOR)),
                            rng.getrandbits(32), rng.getrandbits(32))
        sim = system.sim
        assert len(sim._module.fanout) == fanout
        assert [len(t.reads) for t in sim._tracked] == reads

    @pytest.mark.parametrize("channel", ["INTEGRATED", "FAST_BUS",
                                         "SLOW_PROTOTYPE"])
    def test_generated_source_stable_across_builds(self, channel):
        from repro import messages
        from repro.hdl.compile import frontend
        from repro.system import build_system

        spec = getattr(messages, channel)
        frontend._TEMPLATES.clear()  # the first build translates every body
        cold = build_system(channel=spec, backend="compiled", lint="off")
        warm = build_system(channel=spec, backend="compiled", lint="off")
        assert warm.sim.generated_source == cold.sim.generated_source
        assert warm.sim.kernel_stats.translated_procs \
            == cold.sim.kernel_stats.translated_procs > 0


# -- declared-pure seq procs in static slots ----------------------------------

class GatedRead(Component):
    """A declared-pure seq proc that counts its staging runs (a hidden
    store the pure contract covers) and reads ``b`` and ``q`` only while
    ``a`` is high: its static wake set is {a, b, q} from the first edge,
    while the event kernel discovers ``b`` and ``q`` once ``a`` rises."""

    def __init__(self):
        super().__init__("gate")
        self.a = self.signal("a", 1, 0)
        self.b = self.signal("b", 8, 0)
        self.q = self.reg("q", 8, 0)
        self.staged = 0

        @self.seq(pure=True)
        def _follow():
            if self.a.value:
                if self.b.value != self.q.value:
                    self.q.nxt = self.b.value
                    self.staged += 1


class GatedFreeRead(GatedRead):
    """:class:`GatedRead` plus a second counting proc that reads an
    unmanaged signal: it has no static slot and stays read-tracked."""

    def __init__(self):
        super().__init__()
        self.free = Signal("free", 8, 0)
        self.r = self.reg("r", 8, 0)
        self.polled = 0

        @self.seq(pure=True)
        def _poll():
            if self.free.value != self.r.value:
                self.r.nxt = self.free.value
                self.polled += 1


class NxtGated(Component):
    """One pure proc stages ``r`` every edge; a second reads ``r`` only
    through ``.nxt``, and only while the constant-0 ``en`` is high."""

    def __init__(self):
        super().__init__("nxg")
        self.en = self.signal("en", 1, 0)
        self.r = self.reg("r", 8, 0)
        self.q = self.reg("q", 8, 0)

        @self.seq(pure=True)
        def _count():
            self.r.nxt = (self.r.value + 1) & 0xFF

        @self.seq(pure=True)
        def _peek():
            if self.en.value:
                self.q.nxt = self.r.nxt


def _gated_poke(top, cyc):
    """``a`` rises before cycle 4's edge; ``b`` moves before cycles 0 to 3
    and again before cycles 7 and 10, after the process went dormant: only
    a slot woken by ``b`` sees those."""
    if cyc in (0, 1, 2, 3, 7, 10):
        top.b.set((cyc * 37) & 0xFF)
    if cyc == 4:
        top.a.set(1)


def _lockstep(make, poke, cycles, reset_at=None):
    """Run ``make()`` on both backends in lockstep, applying ``poke(top,
    cycle)`` before each step.  Every cycle, the VCD text so far and every
    signal value must match.  Each cycle's ``seq_runs`` increment must
    match too from the first cycle whose edge starts with the event
    kernel's read set of every statically slotted seq proc equal to that
    slot's wake set.  Returns the compiled (top, sim), that cycle (None:
    never) and the per-cycle increments (event, compiled)."""
    import io

    from repro.hdl.vcd import VcdWriter

    runs = []
    converged = None
    for backend in ("compiled", "event"):
        top = make()
        sim = Simulator(top, backend=backend)
        if backend == "compiled":
            slots = [(pl.index, {sig.name for sig in pl.wake})
                     for pl in sim._plans[len(sim._procs):]
                     if pl.kind == "slot"]
        buf = io.StringIO()
        VcdWriter(sim, buf)
        sim.reset()
        trace = []
        for cyc in range(cycles):
            if cyc == reset_at:
                sim.reset()
            poke(top, cyc)
            if backend == "event" and converged is None and all(
                    {sig.name for sig in sim._seqprocs[i].reads} == wake
                    for i, wake in slots):
                converged = cyc
            runs0 = sim.kernel_stats.seq_runs
            sim.step()
            trace.append((buf.getvalue(),
                          tuple(s.value for s in top.all_signals()),
                          sim.kernel_stats.seq_runs - runs0))
        runs.append((top, sim, trace))
    (top, sim, compiled), (_te, _se, event) = runs
    for cyc, (e, c) in enumerate(zip(event, compiled)):
        assert c[:2] == e[:2], f"cycle {cyc}"
        if converged is not None and cyc >= converged:
            assert c[2] == e[2], f"seq_runs at cycle {cyc}"
    return top, sim, converged, ([e[2] for e in event],
                                 [c[2] for c in compiled])


class TestPureSeqSlots:
    def test_gated_read_lockstep(self):
        top, sim, converged, (event, compiled) = _lockstep(
            GatedRead, _gated_poke, 12)
        (slot,) = [pl for pl in sim._plans if pl.kind == "slot"]
        assert {s.name for s in slot.wake} == {"gate.a", "gate.b", "gate.q"}
        assert sim._tracked == []
        # a rises before the edge of cycle 4, whose run reads b and q for
        # the first time; before that b's moves wake only the static slot
        assert converged == 5
        assert event[:5] == [1, 0, 0, 0, 1] and compiled[:5] == [1] * 5
        assert top.staged == 3 and top.q.value == (10 * 37) & 0xFF

    def test_gated_branch_never_taken_lockstep(self):
        top, sim, converged, (event, compiled) = _lockstep(
            GatedRead, lambda t, c: t.b.set(c * 5), 10)
        # the event kernel never discovers b or q; the slot re-runs on each
        # of b's moves, stages nothing and mutates nothing
        assert converged is None
        assert sum(event) == 1 and sum(compiled) == 10
        assert top.staged == 0

    def test_gated_free_read_lockstep(self):
        def poke(top, cyc):
            _gated_poke(top, cyc)
            top.free.force(cyc)

        top, sim, converged, _runs = _lockstep(GatedFreeRead, poke, 12)
        (tc,) = sim._tracked
        assert tc.fn.__name__ == "_poll" and tc.unmanaged
        assert [pl.kind for pl in sim._plans] == ["slot", "tracked"]
        assert converged == 5
        assert top.polled == 11 and top.staged == 3

    def test_reset_mid_run_lockstep(self):
        def poke(top, cyc):
            _gated_poke(top, cyc)
            if cyc == 9:
                top.a.set(1)  # reset dropped it

        top, sim, converged, _runs = _lockstep(GatedRead, poke, 14,
                                               reset_at=8)
        assert converged == 5
        assert top.q.value == (10 * 37) & 0xFF

    def test_nxt_only_read_wakes_nothing(self):
        import io

        from repro.hdl.vcd import VcdWriter

        out = []
        for backend in ("event", "compiled"):
            top = NxtGated()
            sim = Simulator(top, backend=backend)
            buf = io.StringIO()
            VcdWriter(sim, buf)
            sim.reset()
            sim.step(10)
            out.append((sim.kernel_stats.seq_runs, buf.getvalue(),
                        tuple(s.value for s in top.all_signals())))
        # _count runs on all 10 edges, _peek once: r changes on every
        # edge, but _peek reads it only through .nxt
        assert out[0][0] == out[1][0] == 11
        assert out[1][1:] == out[0][1:]
        peek = sim._plans[-1]
        assert peek.kind == "slot" and [s.name for s in peek.wake] == ["nxg.en"]

    @pytest.mark.parametrize("target", [
        "fast-bus", "integrated", "slow-prototype", "ooo-fp", "lossy_link",
        "serial_prototype"])
    def test_rtm_stages_sleep_in_static_slots(self, target):
        import importlib.util
        from pathlib import Path

        from repro.messages import FAST_BUS, FaultSpec
        from repro.messages.channel import PRESETS
        from repro.messages.uart import UartRx
        from repro.system import build_system

        if target == "serial_prototype":
            path = (Path(__file__).resolve().parents[2] / "examples"
                    / "serial_prototype.py")
            spec = importlib.util.spec_from_file_location("_serial", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            top = module.build_for_lint()
            sim = Simulator(top, backend="compiled")
        else:
            kwargs = {
                "ooo-fp": dict(ooo=True, fp_units=True),
                "lossy_link": dict(
                    channel=FAST_BUS, reliable=True,
                    faults=FaultSpec(seed=31, drop_rate=0.01, flip_rate=0.01),
                    upstream_faults=FaultSpec(seed=32, drop_rate=0.01,
                                              flip_rate=0.01)),
            }.get(target, dict(channel=PRESETS.get(target)))
            system = build_system(backend="compiled", lint="off", **kwargs)
            top, sim = system.soc, system.sim
        kind = {id(pl.fn): pl.kind for pl in sim._plans}
        stages = {"msgbuffer", "decoder", "execution", "write_arbiter",
                  "serializer"}
        placed = {}
        for comp in top.walk():
            name = "uart_rx" if isinstance(comp, UartRx) else comp.name
            if name in stages | {"uart_rx"}:
                for fn in comp.pure_seq_procs:
                    placed.setdefault(name, set()).add(kind[id(fn)])
        want = stages | ({"uart_rx"} if target == "serial_prototype"
                         else set())
        assert placed == {name: {"slot"} for name in want}

    def test_nxt_only_reads_stay_out_of_the_wake_set(self):
        from repro.analysis.lint import astpass
        from repro.system import build_system

        system = build_system(backend="compiled", lint="off")
        (commit,) = system.soc.rtm.write_arbiter.seq_procs
        res = astpass.resolve(commit)
        staged_only = {s.name for s in res.signal_reads - res.tracked_reads}
        assert staged_only == {"soc.rtm.regfile.ram.mem",
                               "soc.rtm.flagfile.ram.mem",
                               "soc.rtm.lockmgr.data_locks",
                               "soc.rtm.lockmgr.flag_locks"}
        (plan,) = [pl for pl in system.sim._plans if pl.fn is commit]
        assert plan.kind == "slot"
        assert not staged_only & {s.name for s in plan.wake}


class Sampled(Component):
    """A pure counting seq proc hands an object payload's value to a
    helper that loads fields off it (the payload resets to the int 0),
    and loads one field off a real owner that lacks it when ``late``."""

    def __init__(self, late=False):
        super().__init__("smp")
        self.inp = self.signal("inp", None, 0)
        self.q = self.reg("q", 8, 0)
        self.cfg = Cfg(level=3) if late else None
        self.seen = 0

        @self.seq(pure=True)
        def _take():
            if self.inp.value:
                self.q.nxt = self._field(self.inp.value)
                self.seen += 1
                if self.cfg is not None:
                    self.q.nxt = self.cfg.missing

    def _field(self, msg):
        return msg.level


class TestSampledLoads:
    def _placed(self, top):
        from repro.analysis.lint import astpass
        from repro.hdl.compile.frontend import place

        (fn,) = top.seq_procs
        return place(lambda: astpass.resolve(fn), seq=True, pure=True,
                     managed=set(top.all_signals()))

    def test_load_off_a_sampled_value_is_no_late_binding(self):
        where = self._placed(Sampled())
        assert where.kind == "slot"
        # ``q`` is only staged: a store is no read
        assert [s.name for s in where.wake] == ["smp.inp"]

    def test_missing_field_on_a_real_owner_is_named(self):
        where = self._placed(Sampled(late=True))
        assert where.kind == "tracked"
        assert where.reason == ("hidden input Cfg.missing is late-bound, "
                                "unset at elaboration")

    def test_sampled_payload_matches_event(self):
        def poke(top, cyc):
            top.inp.set(Cfg(level=cyc) if cyc % 3 else 0)

        top, sim, converged, _runs = _lockstep(Sampled, poke, 9)
        assert converged == 1 and top.seen == 6


class Shadows:
    """Instance attributes next to class attributes of the same names."""

    label = "class"
    width = 8

    def __init__(self):
        self.width = 8  # the instance holds the class constant itself
        self.own = [1]
        self.method = self.own  # shadows nothing: no class attribute

    def tick(self):
        return None

    @property
    def ready(self):
        return True


class TestInstanceAttributes:
    def test_reads_what_the_instance_dict_holds(self):
        from repro.hdl.live import MISSING as _ABSENT
        from repro.hdl.live import own as instance_attribute

        names = ("width", "own", "method", "label", "tick", "ready", "absent")
        obj = Shadows()
        obj.tick = obj.own  # an instance attribute shadowing a method
        inline = [instance_attribute(obj, name) for name in names]
        # reading __dict__ materializes it; the answers must not change
        expected = [obj.__dict__.get(name, _ABSENT) for name in names]
        assert [v is e for v, e in zip(inline, expected)] == [True] * 7
        assert inline[4] is obj.own and inline[3] is _ABSENT
        assert [instance_attribute(obj, name) is e
                for name, e in zip(names, expected)] == [True] * 7
        assert instance_attribute(Shadows(), "tick") is _ABSENT

    def test_compiled_build_reads_no_component_dict(self):
        import gc

        from repro.config import FrameworkConfig
        from repro.system.soc import CoprocessorSystem

        def materialized(obj):
            return any(type(r) is dict and "children" in r
                       for r in gc.get_referents(obj))

        for make in (dict, lambda: dict(ooo=True)):
            soc = CoprocessorSystem(FrameworkConfig().with_(**make()))
            comps = []
            stack = [soc]
            while stack:
                comps.append(stack.pop())
                stack.extend(comps[-1].children)
            before = {c.path for c in comps if materialized(c)}
            sim = Simulator(soc, backend="compiled")
            sim.reset()
            assert sim.kernel_stats.translated_procs > 0
            assert {c.path for c in comps if materialized(c)} == before
