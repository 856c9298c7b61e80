"""Histogram — one smart-memory bin per cell, constant-cycle statistics.

Each cell is one bin holding a saturating-free word counter; ``H_INC``
bumps the addressed bin, ``H_SAMPLE`` bins a raw sample with the
controller's ALU (an AND mask — exact modulo when the bin count is a
power of two) before incrementing.  The fold tree keeps the aggregate
view live: total mass, the (leftmost) peak bin and its height, and the
number of non-empty bins are each one fixed-length microprogram away,
where a software histogram would rescan all the bins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .array import SmartArray, SmartCell, StateVectors
from .core import DirectMachine
from .microcode import OP_A, AluOp, MicroInstr, imm, t_
from .spec import WORD, UnitSpec

__all__ = [
    "HistCmd", "HistCellState", "HIST",
    "VectorHistArray", "StructuralHistArray",
    "HistCore", "DirectHistMachine", "HistUnit", "hist_factory",
    "build_hist_microcode",
    "H_RESET", "H_INC", "H_SAMPLE", "H_READ", "H_TOTAL", "H_PEAK", "H_NNZ",
    "H_FLAG_VALID",
]


class HistCmd(IntEnum):
    """Command lines of the histogram cell."""

    NOP = 0
    CLEAR = 1         # all counters to zero
    INC_AT = 2        # bin[broadcast] += 1
    SELECT_INDEX = 3  # sel := (index == broadcast)


@dataclass(frozen=True)
class HistCellState:
    """The persistent state of one bin cell."""

    count: int = 0
    selected: bool = False


def _step(vec: StateVectors, cmd: int, broadcast: int) -> None:
    """One broadcast command applied to all bins (vectorised cell step)."""
    if cmd == HistCmd.CLEAR:
        vec.clear()
    elif cmd == HistCmd.INC_AT:
        vec.count = np.where(vec.at(broadcast), (vec.count + 1) & vec.mask,
                             vec.count)
    elif cmd == HistCmd.SELECT_INDEX:
        vec.selected = vec.at(broadcast)
    else:
        raise ValueError(f"unknown hist command {cmd!r}")


def _cell_step(cell: SmartCell, st: HistCellState, cmd: int) -> HistCellState:
    """Structural bin cell: the per-cell view of :func:`_step`."""
    b = cell.broadcast.value
    if cmd == HistCmd.CLEAR:
        return HistCellState() if st != HistCellState() else st
    if cmd == HistCmd.INC_AT:
        if cell.index != b:
            return st
        return replace(st, count=(st.count + 1) & cell.array.mask)
    if cmd == HistCmd.SELECT_INDEX:
        sel = cell.index == b
        return replace(st, selected=sel) if sel != st.selected else st
    raise ValueError(f"unknown hist command {cmd!r}")


def _fold(arr: SmartArray, vec: StateVectors) -> None:
    counts = vec.count
    total = int(np.sum(counts, dtype=np.uint64)) & vec.mask
    arr.total.set(total)
    # np.argmax is the leftmost maximum — the tree's tie-break order
    peak = int(np.argmax(counts))
    arr.peak_index.set(peak)
    arr.peak_count.set(int(counts[peak]))
    arr.nonzero.set(int(np.count_nonzero(counts)))
    arr.nonempty.set(1 if total else 0)
    left = arr.tree.leftmost(vec.selected)
    arr.sel_found.set(1 if left is not None else 0)
    arr.sel_value.set(int(counts[left]) if left is not None else 0)


def _cell_fold(arr: SmartArray, states: list[HistCellState]) -> None:
    counts = [s.count for s in states]
    total = sum(counts) & arr.mask
    arr.total.set(total)
    peak_count = max(counts)
    peak = counts.index(peak_count)
    arr.peak_index.set(peak)
    arr.peak_count.set(peak_count)
    arr.nonzero.set(sum(1 for c in counts if c))
    arr.nonempty.set(1 if total else 0)
    left = next((i for i, s in enumerate(states) if s.selected), None)
    arr.sel_found.set(1 if left is not None else 0)
    arr.sel_value.set(states[left].count if left is not None else 0)


# ---------------------------------------------------------------------------
# Microcode
# ---------------------------------------------------------------------------

#: variety codes of the histogram unit
H_RESET = 0x01   # clear all bins
H_INC = 0x02     # op_a = bin index (out-of-range indices hit no bin)
H_SAMPLE = 0x03  # op_a = raw sample, binned by AND with (n_bins - 1)
H_READ = 0x04    # op_a = bin index → dst1 = count, flags.valid = in range
H_TOTAL = 0x05   # → dst1 = total mass, flags.valid = histogram non-empty
H_PEAK = 0x06    # → dst1 = peak bin index, dst2 = its count, flags.valid
H_NNZ = 0x07     # → dst1 = number of non-empty bins

#: flag bit the unit raises when the queried quantity is meaningful
H_FLAG_VALID = 0x01

TOTAL = ("total",)
PEAK_INDEX = ("peak_index",)
PEAK_COUNT = ("peak_count",)
NONZERO = ("nonzero",)
NONEMPTY = ("nonempty",)
SEL_FOUND = ("sel_found",)
SEL_VALUE = ("sel_value",)


def build_hist_microcode(n_bins: int) -> dict[int, tuple[MicroInstr, ...]]:
    """The histogram ROM for one array size.

    ``H_SAMPLE``'s bin mask is baked into the ROM as an immediate — the
    microcode is built per instance, mirroring how a synthesised ROM is
    parameterised by the generic ``n_bins``.  The mask is exact modulo for
    power-of-two bin counts (the recommended configuration); otherwise it
    is still a deterministic binning, just not value-order-preserving.
    """
    return {
        H_RESET: (MicroInstr(cell_cmd=HistCmd.CLEAR, done=True),),
        H_INC: (MicroInstr(cell_cmd=HistCmd.INC_AT, broadcast=OP_A, done=True),),
        H_SAMPLE: (
            MicroInstr(alu=(0, AluOp.AND, OP_A, imm(n_bins - 1))),
            MicroInstr(cell_cmd=HistCmd.INC_AT, broadcast=t_(0), done=True),
        ),
        H_READ: (
            MicroInstr(cell_cmd=HistCmd.SELECT_INDEX, broadcast=OP_A),
            MicroInstr(emit=(("data1", SEL_VALUE), ("flags", SEL_FOUND)), done=True),
        ),
        H_TOTAL: (
            MicroInstr(emit=(("data1", TOTAL), ("flags", NONEMPTY)), done=True),
        ),
        H_PEAK: (
            MicroInstr(
                emit=(("data1", PEAK_INDEX), ("data2", PEAK_COUNT),
                      ("flags", NONEMPTY)),
                done=True,
            ),
        ),
        H_NNZ: (MicroInstr(emit=(("data1", NONZERO),), done=True),),
    }


HIST = UnitSpec(
    name="Hist",
    cmd=HistCmd,
    state=HistCellState,
    buses=(("broadcast", WORD),),
    outputs=(("total", WORD), ("peak_index", 32), ("peak_count", WORD),
             ("nonzero", 32), ("nonempty", 1), ("sel_found", 1),
             ("sel_value", WORD)),
    atoms={name: name for name in ("total", "peak_index", "peak_count",
                                   "nonzero", "nonempty", "sel_found",
                                   "sel_value")},
    microcode=build_hist_microcode,
    step=_step,
    fold=_fold,
    cell_step=_cell_step,
    cell_fold=_cell_fold,
)

VectorHistArray = HIST.vector_array
StructuralHistArray = HIST.structural_array
HistCore = HIST.core
HistUnit = HIST.unit
hist_factory = HIST.factory


class DirectHistMachine(DirectMachine):
    """Drives a bare histogram core cycle-accurately, without the RTM."""

    spec = HIST
    core_name = "histcore"

    def reset_bins(self) -> int:
        return self.op(H_RESET)["cycles"]

    def increment(self, bin_index: int) -> int:
        return self.op(H_INC, bin_index)["cycles"]

    def sample(self, value: int) -> int:
        return self.op(H_SAMPLE, value)["cycles"]

    def load(self, samples: Sequence[int]) -> int:
        return sum(self.op(H_SAMPLE, v)["cycles"] for v in samples)

    def read_bin(self, bin_index: int) -> Optional[int]:
        out = self.op(H_READ, bin_index)
        return out["data1"] if out["flags"] & H_FLAG_VALID else None

    def total(self) -> int:
        return self.op(H_TOTAL)["data1"]

    def peak(self) -> Optional[tuple[int, int]]:
        """(bin index, count) of the leftmost fullest bin, None when empty."""
        out = self.op(H_PEAK)
        if not out["flags"] & H_FLAG_VALID:
            return None
        return out["data1"], out["data2"]

    def nonzero_bins(self) -> int:
        return self.op(H_NNZ)["data1"]
