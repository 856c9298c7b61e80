"""The SIMD cell — one word of χ-sort smart memory (paper Fig. 9 / thesis Fig. 3.12).

"A cell corresponds to a word of memory, but it contains a small amount of
computational hardware as well as storage."  Each cell holds a data element,
its index interval ⟨lower, upper⟩, a selection flag and a saved flag, plus
the comparator/mux cloud that executes one broadcast command per cycle.

Two implementations share the same semantics:

* :func:`cell_step` — the pure transition function (the oracle used by
  property tests), which every structural :class:`Cell` — the kit's
  :class:`repro.smem.array.SmartCell` under the ξ-sort spec — runs;
* the vectorised NumPy step of :mod:`repro.xisort.cellarray`, used at
  scale (the HPC-Python hot path).

Empty cells are reset to the *sentinel* interval ⟨0xFFFF, 0xFFFF⟩: a
precise interval beyond any valid index, so unoccupied cells are never
selected as pivots and never collide with a sorted element during readout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Optional

from ..smem.array import SmartCell
from ..smem.spec import lane

#: Width of an index-interval bound; also sets the sentinel.
INTERVAL_BITS = 16
INTERVAL_MASK = (1 << INTERVAL_BITS) - 1
#: "Empty cell" bound value — a precise interval past every usable index.
SENTINEL = INTERVAL_MASK


class CellCmd(IntEnum):
    """Command lines of the SIMD cell (thesis Fig. 3.12 ``cmd_*`` inputs)."""

    NOP = 0
    LOAD = 1                  # shift array up; cell 0 ← load buses
    CLEAR = 2                 # return to the empty (sentinel) state
    SELECT_ALL = 3            # sel := 1
    SELECT_IMPRECISE = 4      # sel &= (lower != upper)
    MATCH_DATA_LT = 5         # sel &= (data <  broadcast)
    MATCH_DATA_EQ = 6         # sel &= (data == broadcast)
    MATCH_DATA_GT = 7         # sel &= (data >  broadcast)
    MATCH_LOWER_BOUND = 8     # sel &= (lower == broadcast)
    MATCH_UPPER_BOUND = 9     # sel &= (upper == broadcast)
    MATCH_LOWER_BOUND_I = 10  # sel &= (lower <= broadcast)   (interval contains)
    MATCH_UPPER_BOUND_I = 11  # sel &= (upper >= broadcast)
    SET_LOWER_BOUND = 12      # if sel: lower := broadcast
    SET_UPPER_BOUND = 13      # if sel: upper := broadcast
    SET_BOUNDS = 14           # if sel: lower := upper := broadcast
    LOAD_SELECTED = 15        # if sel: data := broadcast
    SAVE = 16                 # saved := sel
    RESTORE = 17              # sel := saved


@dataclass(frozen=True)
class CellState:
    """The persistent state of one cell."""

    data: int = 0
    lower: int = lane(INTERVAL_BITS, SENTINEL)
    upper: int = lane(INTERVAL_BITS, SENTINEL)
    selected: bool = False
    saved: bool = False

    @property
    def imprecise(self) -> bool:
        return self.lower != self.upper


def cell_step(
    state: CellState,
    cmd: CellCmd,
    broadcast: int = 0,
    shift_in: Optional[CellState] = None,
    load_data: int = 0,
    load_lower: int = 0,
    load_upper: int = 0,
    is_first: bool = False,
) -> CellState:
    """Pure transition function: one command applied to one cell.

    For ``LOAD``, ``shift_in`` is the neighbouring (lower-index) cell's
    previous state; the first cell takes the load buses instead.
    """
    if cmd == CellCmd.NOP:
        return state
    if cmd == CellCmd.LOAD:
        if is_first:
            return CellState(
                data=load_data,
                lower=load_lower & INTERVAL_MASK,
                upper=load_upper & INTERVAL_MASK,
                selected=False,
                saved=False,
            )
        assert shift_in is not None
        return replace(
            shift_in, selected=False, saved=False
        )
    if cmd == CellCmd.CLEAR:
        return CellState()
    if cmd == CellCmd.SELECT_ALL:
        return replace(state, selected=True)
    if cmd == CellCmd.SELECT_IMPRECISE:
        return replace(state, selected=state.selected and state.imprecise)
    if cmd == CellCmd.MATCH_DATA_LT:
        return replace(state, selected=state.selected and state.data < broadcast)
    if cmd == CellCmd.MATCH_DATA_EQ:
        return replace(state, selected=state.selected and state.data == broadcast)
    if cmd == CellCmd.MATCH_DATA_GT:
        return replace(state, selected=state.selected and state.data > broadcast)
    b = broadcast & INTERVAL_MASK
    if cmd == CellCmd.MATCH_LOWER_BOUND:
        return replace(state, selected=state.selected and state.lower == b)
    if cmd == CellCmd.MATCH_UPPER_BOUND:
        return replace(state, selected=state.selected and state.upper == b)
    if cmd == CellCmd.MATCH_LOWER_BOUND_I:
        return replace(state, selected=state.selected and state.lower <= b)
    if cmd == CellCmd.MATCH_UPPER_BOUND_I:
        return replace(state, selected=state.selected and state.upper >= b)
    if cmd == CellCmd.SET_LOWER_BOUND:
        return replace(state, lower=b) if state.selected else state
    if cmd == CellCmd.SET_UPPER_BOUND:
        return replace(state, upper=b) if state.selected else state
    if cmd == CellCmd.SET_BOUNDS:
        return replace(state, lower=b, upper=b) if state.selected else state
    if cmd == CellCmd.LOAD_SELECTED:
        return replace(state, data=broadcast) if state.selected else state
    if cmd == CellCmd.SAVE:
        return replace(state, saved=state.selected)
    if cmd == CellCmd.RESTORE:
        return replace(state, selected=state.saved)
    raise ValueError(f"unknown cell command {cmd!r}")


#: the structural cell: the kit's SmartCell, stepping via :func:`cell_step`
Cell = SmartCell
