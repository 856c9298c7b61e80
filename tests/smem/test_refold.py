"""A smart-memory column refolds only after its state moved, on both backends.

Contract obligation 4 (:mod:`repro.smem.contract`): a NOP edge leaves the
cells bit-identical, so the fold outputs cannot change on it.  The fold is
recomputed only after an applied command, a reset or a state load (a
checkpoint restore, or a guard's double-bit ``poke_state``).  These tests
count the calls of the spec's vector ``fold`` around each of those events
and hold the fold outputs against a structural twin driven alike.
"""

from __future__ import annotations

import types
from collections import Counter
from dataclasses import replace

import pytest

from repro.faults import ArrayGuard, MachineCheckUnit, StateFaultPlan, StateFaultSpec
from repro.hdl import ChunkRule, Component, Reg, Simulator

from tests.properties.smem_conformance import TALLY, TallyCmd, TallyState

N_CELLS = 8
#: the upset schedule: the second applied command corrupts one cell
GUARD_ID = "tally"
UPSET = StateFaultSpec(schedule=((GUARD_ID, 1, "double"),))

#: spec.fold calls, by array name
FOLDS: Counter = Counter()


def _counted_fold(arr, vec) -> None:
    FOLDS[arr.name] += 1
    TALLY.fold(arr, vec)


COUNTED = replace(TALLY, name="CountedTally", fold=_counted_fold)


class Twins(Component):
    """A vector tally column and its structural twin, one command stream."""

    def __init__(self, guarded: bool):
        super().__init__("twins")
        self.cmd_in = self.signal("cmd_in", 8, 0)
        self.arg_in = self.signal("arg_in", 32, 0)
        self.column = COUNTED.vector_array("column", N_CELLS, 32, parent=self)
        self.oracle = COUNTED.structural_array("oracle", N_CELLS, 32, parent=self)
        self.plan = None
        if guarded:
            self.plan = StateFaultPlan(UPSET)
            mcu = MachineCheckUnit("mcu", parent=self)
            mcu.stats = self.plan.stats
            for arr in (self.column, self.oracle):
                ArrayGuard(GUARD_ID, arr, self.plan, mcu)

        @self.comb
        def _drive() -> None:
            for arr in (self.column, self.oracle):
                arr.cmd.set(self.cmd_in.value)
                arr.broadcast.set(self.arg_in.value)


class Bench:
    """Drives :class:`Twins` and counts the folds each action causes."""

    def __init__(self, backend: str, guarded: bool = False):
        self.backend = backend
        self.top = Twins(guarded)
        self.sim = Simulator(self.top, backend=backend)
        self.sim.reset()
        self.sim.settle()
        FOLDS.clear()

    def folds(self) -> int:
        """Folds of the vector column since the last call; on compiled the
        structural twin runs in the same executor and must agree."""
        column = FOLDS.pop("column", 0)
        oracle = FOLDS.pop("oracle", 0)
        assert oracle == (column if self.backend == "compiled" else 0)
        return column

    def command(self, cmd: int, arg: int = 0) -> None:
        """One edge applying ``cmd``, then back to NOP, settled."""
        self.top.cmd_in.force(int(cmd))
        self.top.arg_in.force(arg)
        self.sim.step()
        self.top.cmd_in.force(int(TallyCmd.NOP))
        self.sim.settle()

    def idle(self, edges: int) -> None:
        self.sim.step(edges)
        self.sim.settle()

    def chunk(self, edges: int) -> None:
        """``edges`` cycles as a host pump's chunk: under a rule that never
        stops it (on compiled, in the generated ``_run``)."""
        rule = ChunkRule(watch=Reg("watch", None, ()),
                         queue=Reg("queue", None, ()),
                         stage=types.SimpleNamespace(retired=0))
        assert self.sim.step(edges, rule) == edges

    def nudge(self) -> None:
        """Move a bus under NOP: a settle that sweeps, with no command."""
        self.top.arg_in.force(self.top.arg_in.value + 1)
        self.sim.settle()

    def assert_twins_agree(self) -> None:
        column, oracle = self.top.column, self.top.oracle
        assert column.states() == oracle.states()
        assert column.total.value == oracle.total.value == \
            sum(s.value for s in oracle.states()) & column.mask


BACKENDS = ("event", "compiled")


@pytest.mark.parametrize("backend", BACKENDS)
class TestRefold:
    def test_nop_edges_do_not_fold(self, backend):
        bench = Bench(backend)
        bench.command(TallyCmd.BUMP, 5)
        assert bench.folds() == 1
        bench.idle(20)
        assert bench.folds() == 0
        bench.nudge()
        assert bench.folds() == 0
        bench.assert_twins_agree()

    def test_one_command_folds_once(self, backend):
        bench = Bench(backend)
        for amount in (3, 4, 0):
            bench.command(TallyCmd.BUMP, amount)
            assert bench.folds() == 1
            bench.assert_twins_agree()
        assert bench.top.column.total.value == 7 * N_CELLS

    def test_reset_refolds(self, backend):
        bench = Bench(backend)
        bench.command(TallyCmd.BUMP, 9)
        bench.folds()
        bench.sim.reset()
        bench.sim.settle()
        assert bench.folds() == 1
        assert bench.top.column.total.value == 0
        bench.assert_twins_agree()

    def test_load_states_refolds(self, backend):
        bench = Bench(backend)
        bench.command(TallyCmd.BUMP, 2)
        bench.folds()
        states = [TallyState(10 * i) for i in range(N_CELLS)]
        for arr in (bench.top.column, bench.top.oracle):
            arr.load_states(states)
        bench.nudge()
        assert bench.folds() == 1
        assert bench.top.column.total.value == sum(10 * i for i in range(N_CELLS))
        bench.assert_twins_agree()

    def test_poke_state_refolds(self, backend):
        bench = Bench(backend)
        bench.idle(3)
        for arr in (bench.top.column, bench.top.oracle):
            arr.poke_state(2, TallyState(40))
        bench.nudge()
        assert bench.folds() == 1
        assert bench.top.column.total.value == 40
        bench.assert_twins_agree()

    @pytest.mark.parametrize("then", ["settle", "chunk"])
    def test_load_between_steps_folds_with_no_signal_moved(self, backend,
                                                          then):
        # nothing but the column moved: the next settle folds on its own,
        # whether called directly or as the first settle of a chunk
        bench = Bench(backend)
        bench.command(TallyCmd.BUMP, 2)
        bench.folds()
        for arr in (bench.top.column, bench.top.oracle):
            arr.poke_state(0, TallyState(100))
        if then == "settle":
            bench.sim.settle()
        else:
            bench.chunk(1)
        assert bench.folds() == 1
        bench.idle(3)
        assert bench.folds() == 0
        assert bench.top.column.total.value == 100 + 2 * (N_CELLS - 1)
        bench.assert_twins_agree()

    def test_guard_double_upset_refolds(self, backend):
        bench = Bench(backend, guarded=True)
        bench.command(TallyCmd.BUMP, 1)
        assert bench.folds() == 1
        bench.assert_twins_agree()
        # the second applied command lands a double-bit upset: the guard
        # pokes the corrupt cell before the fold, which must see it
        bench.command(TallyCmd.BUMP, 1)
        assert bench.folds() == 1
        stats = bench.top.plan.stats
        assert stats.injected_double == stats.uncorrectable == 2  # one per twin
        assert bench.top.column.total.value != 2 * N_CELLS
        bench.assert_twins_agree()
        bench.idle(5)
        assert bench.folds() == 0
