"""Constant-time rank and membership queries on the smart memory.

The paper's "active data structures" point (§IV.B): "With circuit
parallelism, data structures can be active ... a richer set of primitive
operations."  Rank and multiplicity are such primitives: every cell
compares in parallel and the tree counts — O(1) cycles where software
walks all n elements.
"""

import bisect
import random

import pytest

from repro.fu import default_registry
from repro.host import Session
from repro.isa import Opcode
from repro.system import build_system
from repro.xisort import (
    XI_COUNT_EQ,
    XI_RANK,
    DirectXiSortMachine,
    XiSortAccelerator,
    program_length,
    xisort_factory,
)


class TestRank:
    def test_matches_bisect(self):
        values = random.Random(1).sample(range(10_000), 20)
        m = DirectXiSortMachine(32)
        m.reset_array()
        m.load(values)
        ordered = sorted(values)
        for probe in list(values)[:5] + [0, 5000, 99999]:
            assert m.rank(probe) == bisect.bisect_left(ordered, probe)

    def test_rank_works_before_any_sorting(self):
        """Rank needs no refinement — it reads the raw data in parallel."""
        m = DirectXiSortMachine(8)
        m.reset_array()
        m.load([30, 10, 20])
        assert m.rank(25) == 2
        assert m.imprecise_count() == 3  # still completely unsorted

    def test_empty_cells_never_counted(self):
        m = DirectXiSortMachine(16)
        m.reset_array()
        m.load([7])
        # 15 empty cells hold data=0; a probe above 0 must not count them
        assert m.rank(100) == 1

    def test_constant_cycles(self):
        costs = set()
        for n in (8, 64, 512):
            m = DirectXiSortMachine(n)
            m.reset_array()
            m.load(random.Random(n).sample(range(1000), 5))
            before = m.cycles
            m.rank(500)
            costs.add(m.cycles - before)
        assert costs == {5}, f"E1 rank: expected 5 cycles at every n, got {costs}"
        assert program_length(XI_RANK) == 4


class TestCountEq:
    def test_multiplicity(self):
        m = DirectXiSortMachine(8)
        m.reset_array()
        m.load([5, 3, 5, 5, 2])
        assert m.count_eq(5) == 3
        assert m.count_eq(3) == 1
        assert m.count_eq(9) == 0

    def test_zero_value_membership(self):
        """Data value 0 must be distinguishable from empty cells."""
        m = DirectXiSortMachine(8)
        m.reset_array()
        m.load([0, 1])
        assert m.count_eq(0) == 1
        assert program_length(XI_COUNT_EQ) == 4


class TestThroughFramework:
    @pytest.fixture
    def accel(self):
        registry = default_registry()
        registry.register(Opcode.XISORT, xisort_factory(n_cells=16))
        return XiSortAccelerator(Session(build_system(registry=registry)))

    def test_rank_and_membership_end_to_end(self, accel):
        values = [40, 10, 30, 20]
        accel.reset()
        accel.load(values)
        assert accel.rank(25) == 2
        assert accel.count_eq(30) == 1
        assert accel.count_eq(99) == 0

    def test_percentile_via_rank(self, accel):
        """A realistic composite: streaming percentile check without sorting."""
        rng = random.Random(9)
        values = rng.sample(range(1000), 12)
        accel.reset()
        accel.load(values)
        threshold = 500
        below = accel.rank(threshold)
        assert below == sum(1 for v in values if v < threshold)
