"""Unit tests for the ξ-sort core: controller FSM, microprograms, algorithms."""

import random

import pytest

from repro.xisort import (
    MICROCODE,
    XI_FIND_PIVOT,
    XI_LOAD,
    XI_SPLIT,
    XI_STATUS,
    DirectXiSortMachine,
    SoftwareXiSort,
    program_length,
)


class TestControllerFsm:
    """Thesis Fig. 3.10: the two-state Idle/Run FSM."""

    def test_idle_until_dispatch(self):
        m = DirectXiSortMachine(8)
        assert not m.core.running.value
        m.sim.step(5)
        assert not m.core.running.value

    def test_runs_for_program_length_then_idles(self):
        m = DirectXiSortMachine(8)
        out = m.op(XI_STATUS)
        assert not m.core.running.value
        # dispatch edge + program length + final commit
        assert out["cycles"] == program_length(XI_STATUS) + 1

    def test_unknown_variety_completes_harmlessly(self):
        m = DirectXiSortMachine(8)
        out = m.op(0x7E)
        assert out["data1"] == 0 and out["flags"] == 0
        assert not m.core.running.value


class TestMicroprograms:
    def test_all_programs_are_constant_length(self):
        # the headline property: program length never depends on n
        for variety, prog in MICROCODE.items():
            assert len(prog) == program_length(variety)
            assert prog[-1].done

    def test_load_places_value_with_initial_interval(self):
        m = DirectXiSortMachine(4)
        m.op(XI_LOAD, 42, 3)
        s = m.core.array.states()[0]
        assert (s.data, s.lower, s.upper) == (42, 0, 3)

    def test_load_shifts_previous_values(self):
        m = DirectXiSortMachine(4)
        m.op(XI_LOAD, 1, 2)
        m.op(XI_LOAD, 2, 2)
        m.op(XI_LOAD, 3, 2)
        data = [s.data for s in m.core.array.states()]
        assert data[:3] == [3, 2, 1]

    def test_find_pivot_none_when_all_precise(self):
        m = DirectXiSortMachine(4)
        assert m.find_pivot() is None  # empty array: sentinels are precise

    def test_find_pivot_returns_leftmost_imprecise(self):
        m = DirectXiSortMachine(4)
        m.load([7, 9])
        pivot = m.find_pivot()
        assert pivot is not None
        datum, lo, hi = pivot
        assert (lo, hi) == (0, 1)
        assert datum == 9  # last loaded sits in cell 0 — the leftmost

    def test_split_partitions_segment(self):
        m = DirectXiSortMachine(8)
        m.load([3, 1, 4, 1 + 8, 5])  # distinct values
        pivot = m.find_pivot()
        k = m.split(*pivot)
        # pivot cell now precise at rank k
        states = [s for s in m.core.array.states() if s.data == pivot[0]]
        assert states[0].lower == states[0].upper == k

    def test_split_emits_k(self):
        m = DirectXiSortMachine(8)
        vals = [10, 30, 20, 40]
        m.load(vals)
        datum, lo, hi = m.find_pivot()
        k = m.split(datum, lo, hi)
        assert k == sorted(vals).index(datum)

    def test_status_counts_imprecise(self):
        m = DirectXiSortMachine(8)
        assert m.imprecise_count() == 0
        m.load([5, 6, 7])
        assert m.imprecise_count() == 3

    def test_read_at_missing_returns_none(self):
        m = DirectXiSortMachine(4)
        m.load([9, 5])
        assert m.read_at(0) is None  # not yet refined


class TestAlgorithms:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
    def test_sort_random(self, n):
        rng = random.Random(n)
        values = rng.sample(range(10_000), n)
        m = DirectXiSortMachine(max(2, n))
        assert m.sort(values) == sorted(values)

    def test_sort_already_sorted(self):
        m = DirectXiSortMachine(8)
        assert m.sort([1, 2, 3, 4]) == [1, 2, 3, 4]

    def test_sort_reverse(self):
        m = DirectXiSortMachine(8)
        assert m.sort([9, 7, 5, 3]) == [3, 5, 7, 9]

    def test_machine_reusable_across_sorts(self):
        m = DirectXiSortMachine(8)
        assert m.sort([3, 1, 2]) == [1, 2, 3]
        assert m.sort([6, 5, 4]) == [4, 5, 6]

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_select(self, k):
        rng = random.Random(k)
        values = rng.sample(range(1000), 10)
        m = DirectXiSortMachine(16)
        assert m.select(values, k) == sorted(values)[k]

    def test_select_touches_fewer_segments_than_sort(self):
        rng = random.Random(5)
        values = rng.sample(range(10_000), 24)
        m1 = DirectXiSortMachine(32)
        m1.sort(values)
        sort_cycles = m1.cycles
        m2 = DirectXiSortMachine(32)
        m2.select(values, 12)
        select_cycles = m2.cycles
        assert select_cycles < sort_cycles


class TestFixedCycleProperty:
    """'Each operation takes a fixed number of clock cycles' (§IV.B)."""

    def test_split_cycles_independent_of_n(self):
        costs = {}
        for n in (4, 16, 64, 256):
            m = DirectXiSortMachine(n)
            m.load(random.Random(n).sample(range(100_000), max(2, n // 2)))
            pivot = m.find_pivot()
            before = m.cycles
            m.split(*pivot)
            costs[n] = m.cycles - before
        assert set(costs.values()) == {17}, f"C3: expected a 17-cycle split, got {costs}"

    def test_all_ops_independent_of_n(self):
        """C3, F8 and A2: (load, split, pivot select, retrieval) cycles."""
        from repro.analysis import measure_xisort_step_costs

        for n in (8, 16, 32, 64, 128, 256, 512, 1024):
            c = measure_xisort_step_costs(n)
            got = (c.load_cycles, c.split_cycles, c.find_pivot_cycles, c.read_at_cycles)
            assert got == (2, 17, 4, 5), f"C3/F8 at n={n}: expected (2, 17, 4, 5), got {got}"


class TestAgainstSoftwareReference:
    def test_same_results_as_software_xisort(self):
        rng = random.Random(77)
        values = rng.sample(range(100_000), 20)
        hw = DirectXiSortMachine(32).sort(values)
        sw = SoftwareXiSort(values).sort()
        assert hw == sw == sorted(values)

    def test_structural_array_machine(self):
        values = [5, 3, 8, 1]
        m = DirectXiSortMachine(4, array_kind="structural")
        assert m.sort(values) == sorted(values)
