"""§IV.B: "Each operation takes a fixed number of clock cycles with the
FPGA; with a CPU each operation requires an iteration that takes time
proportional to the number of data elements."

The per-step hardware costs (load 2, split 17, pivot select 4, retrieval
5 cycles at every n; C3, F8) are pinned in ``tests/xisort/test_core``,
the tree's depth and node count in ``tests/xisort/test_tree`` and the
fold's clock period (F8) in ``tests/analysis/test_models``.  These tests
pin what the paper compares them against, converted to time with the
paper's clock model (50 MHz FPGA, 2 GHz CPU at 3 cycles per operation):

* C3 — one split step: 17 cycles vs 3n software operations.
* C4/C4b/C4c — whole sorts on the bare core, through the full framework,
  and selection vs sort.
* A2 — cell-count scaling: area, smallest Cyclone device, clock.
* E1 (rank) — a rank query on unsorted data in constant cycles.
"""

import bisect
import random

import pytest

from repro.analysis import (
    CYCLONE_EP1C3_LES,
    CYCLONE_EP1C12_LES,
    CYCLONE_EP1C20_LES,
    DEFAULT_CLOCKS,
    area_case_study_system,
    estimate_clock,
    measure_end_to_end_sort,
)
from repro.config import FrameworkConfig
from repro.host import OpCounter
from repro.xisort import DirectXiSortMachine, SoftwareXiSort, quicksort_counted

from .claims import pin

SPLIT_CYCLES = 17


def _speedup(cpu_ops: int, fpga_cycles: int) -> float:
    return DEFAULT_CLOCKS.cpu_seconds(cpu_ops) / DEFAULT_CLOCKS.fpga_seconds(fpga_cycles)


def _sample(seed: int, n: int) -> list[int]:
    return random.Random(seed).sample(range(1 << 20), n)


@pytest.mark.parametrize("n, speedup", [
    (8, 0.1059), (16, 0.2118), (32, 0.4235), (64, 0.8471), (128, 1.6941), (256, 3.3882),
])
def test_c3_split_step(n, speedup):
    sw = SoftwareXiSort(_sample(n, n))
    pivot = sw.find_pivot()
    before = sw.counter.ops
    sw.split(pivot)
    ops = sw.counter.ops - before
    pin(f"C3 software split ops at n={n}", 3 * n, ops)
    pin(f"C3 speedup at n={n}", speedup, _speedup(ops, SPLIT_CYCLES))


@pytest.mark.parametrize("n, hw, sw_xisort, quicksort, speedup", [
    (8, 167, 104, 19, 0.0467),
    (32, 671, 1319, 157, 0.1474),
    (128, 2708, 17025, 853, 0.4715),
    (512, 10772, 254969, 5911, 1.7752),
])
def test_c4_whole_sort(n, hw, sw_xisort, quicksort, speedup):
    values = _sample(n, n)
    machine = DirectXiSortMachine(n)
    assert machine.sort(values) == sorted(values)
    sw = SoftwareXiSort(values)
    assert sw.sort() == sorted(values)
    counter = OpCounter()
    quicksort_counted(values, counter)
    pin(f"C4 (core cycles, χ-sort ops, quicksort ops) at n={n}",
        (hw, sw_xisort, quicksort), (machine.cycles, sw.counter.ops, counter.ops))
    pin(f"C4 speedup over software χ-sort at n={n}", speedup,
        _speedup(sw.counter.ops, machine.cycles))


@pytest.mark.parametrize("n, core, full", [(8, 167, 667), (16, 328, 1264), (32, 671, 2458)])
def test_c4b_framework_overhead(n, core, full):
    machine = DirectXiSortMachine(n)
    machine.sort(_sample(n, n))
    pin(f"C4b bare core cycles at n={n}", core, machine.cycles)
    pin(f"C4b full-framework cycles at n={n}", full, measure_end_to_end_sort(n, n)[0])


def test_c4c_selection_vs_sort():
    values = _sample(5, 32)
    m_sort, m_select = DirectXiSortMachine(32), DirectXiSortMachine(32)
    m_sort.sort(values)
    assert m_select.select(values, 16) == sorted(values)[16]
    pin("C4c (sort, select median) cycles at n=32", (692, 155),
        (m_sort.cycles, m_select.cycles))


def _device(les: int) -> str:
    for name, capacity in (("EP1C3", CYCLONE_EP1C3_LES), ("EP1C12", CYCLONE_EP1C12_LES),
                           ("EP1C20", CYCLONE_EP1C20_LES)):
        if les <= capacity:
            return name
    return "> Cyclone I"


@pytest.mark.parametrize("n, les, device, period_ns", [
    (8, 4510, "EP1C12", 9.5),
    (32, 9324, "EP1C12", 9.5),
    (128, 28778, "> Cyclone I", 11.5),
    (512, 107368, "> Cyclone I", 13.5),
])
def test_a2_cell_scaling(n, les, device, period_ns):
    cfg = FrameworkConfig()
    total = area_case_study_system(cfg, n_cells=n).total
    pin(f"A2 (LEs, device) at {n} cells", (les, device), (total, _device(total)))
    pin(f"A2 clock period at {n} cells", period_ns,
        estimate_clock(cfg, n_cells=n).period_ns)


@pytest.mark.parametrize("n, speedup", [(16, 0.24), (64, 0.96), (256, 3.84), (1024, 15.36)])
def test_e1_rank_query(n, speedup):
    """Every cell compares in parallel and the tree counts; software must
    touch all n unsorted elements."""
    values = _sample(n, n)
    m = DirectXiSortMachine(n)
    m.reset_array()
    m.load(values)
    before = m.cycles
    assert m.rank(1 << 19) == bisect.bisect_left(sorted(values), 1 << 19)
    cycles = m.cycles - before
    pin(f"E1 rank cycles at n={n}", 5, cycles)
    pin(f"E1 rank speedup at n={n}", speedup, _speedup(n, cycles))
    if n == 256:
        ordered = sorted(values)
        for probe in random.Random(5).sample(range(1 << 20), 10):
            assert m.rank(probe) == bisect.bisect_left(ordered, probe)
