"""ξ-sort cell arrays: the unit spec and its vectorised (NumPy) semantics.

Both array shapes ride the smart-memory kit (:mod:`repro.smem`): the kit
carries the SIMD column machinery — the one-process vector model, the
per-cell structural oracle, the NOP wheel hook and the compiled-backend
``__compile_vector__`` executor — and derives both classes from
:data:`XISORT`, the ξ-sort unit spec this module declares: the command
set and cell state of :mod:`repro.xisort.cell`, the port set, the
microcode of :mod:`repro.xisort.microcode` and the command/fold
semantics.

Both arrays expose the same port set:

* command inputs: ``cmd``, ``broadcast``, ``load_data``, ``load_lower``,
  ``load_upper`` (driven by the ξ-sort controller);
* tree outputs (paper Fig. 8): ``count``, ``leftmost_found``,
  ``leftmost_data``, ``leftmost_lower``, ``leftmost_upper``,
  ``selected_value``, ``selected_unique``.

Under the compiled backend (:mod:`repro.hdl.compile`) *both* array
implementations publish the kit's executor through
``__compile_vector__``.  For the structural array this replaces n
per-cell interpreted processes with one array operation per cycle, which
is what lets 10k+-cell structural arrays run at vector speed.
"""

from __future__ import annotations

import numpy as np

from ..smem.array import SmartArray, SmartCell, StateVectors
from ..smem.spec import WORD, UnitSpec
from ..smem.tree import fold_reduce
from .cell import INTERVAL_BITS, INTERVAL_MASK, SENTINEL, CellCmd, CellState, cell_step
from .microcode import MICROCODE

__all__ = ["XISORT", "VectorCellArray", "StructuralCellArray"]


def _step(vec: StateVectors, cmd: int, broadcast: int, load_data: int,
          load_lower: int, load_upper: int) -> None:
    """One broadcast command applied to all cells (vectorised ``cell_step``)."""
    b = broadcast
    bi = b & INTERVAL_MASK
    if cmd == CellCmd.LOAD:
        vec.data = np.roll(vec.data, 1)
        vec.lower = np.roll(vec.lower, 1)
        vec.upper = np.roll(vec.upper, 1)
        vec.data[0] = load_data
        vec.lower[0] = load_lower
        vec.upper[0] = load_upper
        vec.selected = np.zeros(vec.n, dtype=bool)
        vec.saved = np.zeros(vec.n, dtype=bool)
    elif cmd == CellCmd.CLEAR:
        vec.clear()
    elif cmd == CellCmd.SELECT_ALL:
        vec.selected = np.ones(vec.n, dtype=bool)
    elif cmd == CellCmd.SELECT_IMPRECISE:
        vec.selected = vec.selected & (vec.lower != vec.upper)
    elif cmd == CellCmd.MATCH_DATA_LT:
        vec.selected = vec.selected & (vec.data < b)
    elif cmd == CellCmd.MATCH_DATA_EQ:
        vec.selected = vec.selected & (vec.data == b)
    elif cmd == CellCmd.MATCH_DATA_GT:
        vec.selected = vec.selected & (vec.data > b)
    elif cmd == CellCmd.MATCH_LOWER_BOUND:
        vec.selected = vec.selected & (vec.lower == bi)
    elif cmd == CellCmd.MATCH_UPPER_BOUND:
        vec.selected = vec.selected & (vec.upper == bi)
    elif cmd == CellCmd.MATCH_LOWER_BOUND_I:
        vec.selected = vec.selected & (vec.lower <= bi)
    elif cmd == CellCmd.MATCH_UPPER_BOUND_I:
        vec.selected = vec.selected & (vec.upper >= bi)
    elif cmd == CellCmd.SET_LOWER_BOUND:
        vec.lower = np.where(vec.selected, bi, vec.lower)
    elif cmd == CellCmd.SET_UPPER_BOUND:
        vec.upper = np.where(vec.selected, bi, vec.upper)
    elif cmd == CellCmd.SET_BOUNDS:
        vec.lower = np.where(vec.selected, bi, vec.lower)
        vec.upper = np.where(vec.selected, bi, vec.upper)
    elif cmd == CellCmd.LOAD_SELECTED:
        vec.data = np.where(vec.selected, b, vec.data)
    elif cmd == CellCmd.SAVE:
        vec.saved = vec.selected.copy()
    elif cmd == CellCmd.RESTORE:
        vec.selected = vec.saved.copy()
    else:
        raise ValueError(f"unknown cell command {cmd!r}")


def _cell_step(cell: SmartCell, st: CellState, cmd: int) -> CellState:
    """One structural cell: :func:`cell_step` over the cell's wired buses."""
    prev = cell.prev_cell
    return cell_step(
        st,
        cmd,
        broadcast=cell.broadcast.value,
        shift_in=prev._state.value if prev is not None else None,
        load_data=cell.load_data.value,
        load_lower=cell.load_lower.value,
        load_upper=cell.load_upper.value,
        is_first=cell.is_first,
    )


def _fold(arr: SmartArray, vec: StateVectors) -> None:
    """Drive the tree-output ports from the vector state (paper Fig. 8)."""
    sel = vec.selected
    count = arr.tree.count(sel)
    arr.count.set(count)
    left = arr.tree.leftmost(sel)
    arr.leftmost_found.set(1 if left is not None else 0)
    if left is not None:
        arr.leftmost_data.set(int(vec.data[left]))
        arr.leftmost_lower.set(int(vec.lower[left]))
        arr.leftmost_upper.set(int(vec.upper[left]))
    arr.selected_unique.set(1 if count == 1 else 0)
    arr.selected_value.set(arr.tree.selected_value(sel, vec.data))


def _cell_fold(arr: SmartArray, states: list[CellState]) -> None:
    folded = fold_reduce([s.selected for s in states], [s.data for s in states])
    arr.count.set(folded.count)
    arr.leftmost_found.set(1 if folded.leftmost is not None else 0)
    if folded.leftmost is not None:
        s = states[folded.leftmost]
        arr.leftmost_data.set(s.data)
        arr.leftmost_lower.set(s.lower)
        arr.leftmost_upper.set(s.upper)
    arr.selected_unique.set(1 if folded.count == 1 else 0)
    arr.selected_value.set(folded.any_value)


def _check_size(n_cells: int) -> None:
    if n_cells - 1 >= SENTINEL:
        raise ValueError(f"n_cells must stay below the sentinel index {SENTINEL:#x}")


XISORT = UnitSpec(
    name="XiSort",
    cmd=CellCmd,
    state=CellState,
    buses=(("broadcast", WORD), ("load_data", WORD),
           ("load_lower", INTERVAL_BITS), ("load_upper", INTERVAL_BITS)),
    outputs=(("count", 32), ("leftmost_found", 1), ("leftmost_data", WORD),
             ("leftmost_lower", INTERVAL_BITS), ("leftmost_upper", INTERVAL_BITS),
             ("selected_value", WORD), ("selected_unique", 1)),
    atoms={
        "count": "count",
        "found": "leftmost_found",
        "left_data": "leftmost_data",
        "left_interval": ("leftmost_lower", "leftmost_upper"),
        "sel_value": "selected_value",
        "sel_unique": "selected_unique",
    },
    microcode=MICROCODE,
    step=_step,
    fold=_fold,
    cell_step=_cell_step,
    cell_fold=_cell_fold,
    check_size=_check_size,
)

#: all n cells as NumPy arrays; one seq process applies the command
VectorCellArray = XISORT.vector_array
#: one :class:`~repro.xisort.cell.Cell` per element — cycle-for-cycle
#: equivalent to :data:`VectorCellArray`, the oracle in property tests
StructuralCellArray = XISORT.structural_array
