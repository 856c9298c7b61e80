"""Prefix scan / reduce — the kit's second smart-memory machine.

An append-only column of values supporting constant-cycle reductions
(sum/min/max/count) through the fold tree and an in-place parallel prefix
sum — the canonical "active data structure" after sorting: a software scan
walks all n elements, here every reduction is one microprogram of fixed
length and the prefix transform is a single broadcast command.

Cell state: ``(value, occupied, selected)``.  ``SC_PUSH`` appends at the
first free index (the occupancy count — itself a fold); ``SC_SCAN``
replaces every occupied value with the inclusive prefix sum *and* emits
the grand total from the pre-edge fold in the same microprogram.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .array import SmartArray, SmartCell, StateVectors
from .core import DirectMachine
from .microcode import OP_A, MicroInstr
from .spec import WORD, UnitSpec

__all__ = [
    "ScanCmd", "ScanCellState", "SCAN",
    "VectorScanArray", "StructuralScanArray",
    "ScanCore", "DirectScanMachine", "ScanUnit", "scan_factory",
    "SCAN_MICROCODE",
    "SC_RESET", "SC_PUSH", "SC_SCAN", "SC_TOTAL", "SC_MIN", "SC_MAX",
    "SC_COUNT", "SC_READ_AT", "SC_ADD", "SC_FLAG_VALID",
]


class ScanCmd(IntEnum):
    """Command lines of the scan cell."""

    NOP = 0
    CLEAR = 1         # all cells to the empty state
    APPEND = 2        # first free cell ← broadcast; selections cleared
    PREFIX_SUM = 3    # value_i := Σ_{j≤i} value_j  (occupied cells)
    ADD_ALL = 4       # value += broadcast (occupied cells)
    SELECT_INDEX = 5  # sel := occupied & (index == broadcast)


@dataclass(frozen=True)
class ScanCellState:
    """The persistent state of one scan cell."""

    value: int = 0
    occupied: bool = False
    selected: bool = False


def _step(vec: StateVectors, cmd: int, broadcast: int) -> None:
    """One broadcast command applied to all cells (vectorised cell step)."""
    b = broadcast & vec.mask
    if cmd == ScanCmd.CLEAR:
        vec.clear()
    elif cmd == ScanCmd.APPEND:
        k = int(np.count_nonzero(vec.occupied))
        if k < vec.n:
            vec.value[k] = b
            vec.occupied[k] = True
        vec.selected = np.zeros(vec.n, dtype=bool)
    elif cmd == ScanCmd.PREFIX_SUM:
        # Unoccupied cells hold 0, so the raw cumulative sum is exact for
        # the occupied prefix; uint64 wraps mod 2^64 and (S mod 2^64) mod
        # 2^w == S mod 2^w for w ≤ 64, so the word mask stays exact too.
        # The masked result fits the (possibly narrower) value lane again.
        prefix = (
            np.cumsum(vec.value, dtype=np.uint64) & np.uint64(vec.mask)
        ).astype(vec.dtype, copy=False)
        vec.value = np.where(vec.occupied, prefix, vec.value)
    elif cmd == ScanCmd.ADD_ALL:
        vec.value = np.where(vec.occupied, (vec.value + b) & vec.mask, vec.value)
    elif cmd == ScanCmd.SELECT_INDEX:
        vec.selected = vec.occupied & vec.at(b)
    else:
        raise ValueError(f"unknown scan command {cmd!r}")


def _cell_step(cell: SmartCell, st: ScanCellState, cmd: int) -> ScanCellState:
    """Structural scan cell: the per-cell view of :func:`_step`.

    ``APPEND``'s target index and ``PREFIX_SUM``'s partial sum both need
    column-global information; a structural cell reads it by folding over
    its neighbours' *committed* registers (``cell.array.cells``), exactly
    what a hardware cell would receive from the tree network.
    """
    mask = cell.array.mask
    b = cell.broadcast.value & mask
    if cmd == ScanCmd.CLEAR:
        return ScanCellState() if st != ScanCellState() else st
    if cmd == ScanCmd.APPEND:
        k = sum(1 for c in cell.array.cells if c._state.value.occupied)
        if cell.index == k:
            return ScanCellState(value=b, occupied=True, selected=False)
        if st.selected:
            return replace(st, selected=False)
        return st
    if cmd == ScanCmd.PREFIX_SUM:
        if not st.occupied:
            return st
        total = 0
        for c in cell.array.cells[: cell.index + 1]:
            total += c._state.value.value
        return replace(st, value=total & mask)
    if cmd == ScanCmd.ADD_ALL:
        if not st.occupied:
            return st
        return replace(st, value=(st.value + b) & mask)
    if cmd == ScanCmd.SELECT_INDEX:
        sel = st.occupied and cell.index == b
        return replace(st, selected=sel) if sel != st.selected else st
    raise ValueError(f"unknown scan command {cmd!r}")


def _fold(arr: SmartArray, vec: StateVectors) -> None:
    occ = vec.occupied
    count = int(np.count_nonzero(occ))
    arr.count.set(count)
    arr.nonempty.set(1 if count else 0)
    if count:
        occupied = vec.value[occ]
        arr.total.set(int(np.sum(occupied, dtype=np.uint64)) & vec.mask)
        arr.vmin.set(int(occupied.min()))
        arr.vmax.set(int(occupied.max()))
    else:
        arr.total.set(0)
        arr.vmin.set(0)
        arr.vmax.set(0)
    left = arr.tree.leftmost(vec.selected)
    arr.sel_found.set(1 if left is not None else 0)
    arr.sel_value.set(int(vec.value[left]) if left is not None else 0)


def _cell_fold(arr: SmartArray, states: list[ScanCellState]) -> None:
    occupied = [s.value for s in states if s.occupied]
    count = len(occupied)
    arr.count.set(count)
    arr.nonempty.set(1 if count else 0)
    arr.total.set(sum(occupied) & arr.mask if occupied else 0)
    arr.vmin.set(min(occupied) if occupied else 0)
    arr.vmax.set(max(occupied) if occupied else 0)
    left = next((i for i, s in enumerate(states) if s.selected), None)
    arr.sel_found.set(1 if left is not None else 0)
    arr.sel_value.set(states[left].value if left is not None else 0)


# ---------------------------------------------------------------------------
# Microcode
# ---------------------------------------------------------------------------

#: variety codes of the scan unit
SC_RESET = 0x01    # clear the column
SC_PUSH = 0x02     # op_a = value to append
SC_SCAN = 0x03     # in-place inclusive prefix sum → dst1 = grand total
SC_TOTAL = 0x04    # → dst1 = Σ values, flags.valid = nonempty
SC_MIN = 0x05      # → dst1 = min, flags.valid = nonempty
SC_MAX = 0x06      # → dst1 = max, flags.valid = nonempty
SC_COUNT = 0x07    # → dst1 = number of occupied cells
SC_READ_AT = 0x08  # op_a = index → dst1 = value, flags.valid = in range
SC_ADD = 0x09      # op_a = addend broadcast onto every occupied cell

#: flag bit the unit raises when the queried quantity is meaningful
SC_FLAG_VALID = 0x01

COUNT = ("count",)
TOTAL = ("total",)
VMIN = ("vmin",)
VMAX = ("vmax",)
NONEMPTY = ("nonempty",)
SEL_FOUND = ("sel_found",)
SEL_VALUE = ("sel_value",)

#: The scan microcode ROM: variety code → program.
SCAN_MICROCODE: dict[int, tuple[MicroInstr, ...]] = {
    SC_RESET: (MicroInstr(cell_cmd=ScanCmd.CLEAR, done=True),),
    SC_PUSH: (MicroInstr(cell_cmd=ScanCmd.APPEND, broadcast=OP_A, done=True),),
    # The emit reads the pre-edge fold, so data1 is the total of the values
    # *being* scanned — i.e. the last element of the resulting prefix.
    SC_SCAN: (
        MicroInstr(cell_cmd=ScanCmd.PREFIX_SUM, emit=(("data1", TOTAL),), done=True),
    ),
    SC_TOTAL: (
        MicroInstr(emit=(("data1", TOTAL), ("flags", NONEMPTY)), done=True),
    ),
    SC_MIN: (MicroInstr(emit=(("data1", VMIN), ("flags", NONEMPTY)), done=True),),
    SC_MAX: (MicroInstr(emit=(("data1", VMAX), ("flags", NONEMPTY)), done=True),),
    SC_COUNT: (MicroInstr(emit=(("data1", COUNT),), done=True),),
    SC_READ_AT: (
        MicroInstr(cell_cmd=ScanCmd.SELECT_INDEX, broadcast=OP_A),
        MicroInstr(emit=(("data1", SEL_VALUE), ("flags", SEL_FOUND)), done=True),
    ),
    SC_ADD: (MicroInstr(cell_cmd=ScanCmd.ADD_ALL, broadcast=OP_A, done=True),),
}


SCAN = UnitSpec(
    name="Scan",
    cmd=ScanCmd,
    state=ScanCellState,
    buses=(("broadcast", WORD),),
    outputs=(("count", 32), ("total", WORD), ("vmin", WORD), ("vmax", WORD),
             ("nonempty", 1), ("sel_found", 1), ("sel_value", WORD)),
    atoms={name: name for name in ("count", "total", "vmin", "vmax", "nonempty",
                                   "sel_found", "sel_value")},
    microcode=SCAN_MICROCODE,
    step=_step,
    fold=_fold,
    cell_step=_cell_step,
    cell_fold=_cell_fold,
)

VectorScanArray = SCAN.vector_array
StructuralScanArray = SCAN.structural_array
ScanCore = SCAN.core
ScanUnit = SCAN.unit
scan_factory = SCAN.factory


class DirectScanMachine(DirectMachine):
    """Drives a bare scan core cycle-accurately, without the RTM."""

    spec = SCAN
    core_name = "scancore"

    def reset_column(self) -> int:
        return self.op(SC_RESET)["cycles"]

    def push(self, value: int) -> int:
        return self.op(SC_PUSH, value)["cycles"]

    def load(self, values: Sequence[int]) -> int:
        return sum(self.op(SC_PUSH, v)["cycles"] for v in values)

    def prefix_sum(self) -> int:
        """In-place inclusive prefix sum; returns the grand total."""
        return self.op(SC_SCAN)["data1"]

    def total(self) -> Optional[int]:
        out = self.op(SC_TOTAL)
        return out["data1"] if out["flags"] & SC_FLAG_VALID else None

    def minimum(self) -> Optional[int]:
        out = self.op(SC_MIN)
        return out["data1"] if out["flags"] & SC_FLAG_VALID else None

    def maximum(self) -> Optional[int]:
        out = self.op(SC_MAX)
        return out["data1"] if out["flags"] & SC_FLAG_VALID else None

    def count(self) -> int:
        return self.op(SC_COUNT)["data1"]

    def read_at(self, index: int) -> Optional[int]:
        out = self.op(SC_READ_AT, index)
        return out["data1"] if out["flags"] & SC_FLAG_VALID else None

    def add_all(self, addend: int) -> int:
        return self.op(SC_ADD, addend)["cycles"]
