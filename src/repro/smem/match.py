"""Streaming string match — a systolic pattern comparator on the kit.

The pattern lives in the cells (one character per cell, appended like the
ξ-sort shift-load); the *text* streams through as ``M_STEP`` commands, one
character per dispatch.  Each cell holds an ``alive`` bit — "the pattern
prefix ending at me still matches" — which it recomputes each step from
its own character and its left neighbour's committed ``alive`` (the
classic systolic shift-register NFA for exact matching).  The last
pattern cell accumulates a hit counter; the fold tree exports the live
match flag and the running hit count, so the host learns "match ended at
this character" with fixed latency regardless of pattern length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Iterable, Optional

import numpy as np

from .array import SmartArray, SmartCell, StateVectors
from .core import DirectMachine
from .microcode import OP_A, MicroInstr
from .spec import WORD, UnitSpec

__all__ = [
    "MatchCmd", "MatchCellState", "MATCH",
    "VectorMatchArray", "StructuralMatchArray",
    "MatchCore", "DirectMatchMachine", "MatchUnit", "match_factory",
    "MATCH_MICROCODE",
    "M_RESET", "M_PAT", "M_STEP", "M_COUNT", "M_LEN", "M_RESTART", "M_READ",
    "M_FLAG_MATCH", "M_FLAG_VALID",
]


class MatchCmd(IntEnum):
    """Command lines of the match cell."""

    NOP = 0
    CLEAR = 1         # forget pattern and stream state
    APPEND_PAT = 2    # first free cell ← pattern character; alive cleared
    STEP = 3          # one text character through the systolic comparator
    RESTART = 4       # keep the pattern, clear alive/hits/selection
    SELECT_INDEX = 5  # sel := occupied & (index == broadcast)


@dataclass(frozen=True)
class MatchCellState:
    """The persistent state of one pattern cell."""

    pat: int = 0
    occupied: bool = False
    alive: bool = False
    hits: int = 0
    selected: bool = False


def _step(vec: StateVectors, cmd: int, broadcast: int) -> None:
    """One broadcast command applied to all cells (vectorised cell step)."""
    b = broadcast & vec.mask
    if cmd == MatchCmd.CLEAR:
        vec.clear()
    elif cmd == MatchCmd.APPEND_PAT:
        k = int(np.count_nonzero(vec.occupied))
        if k < vec.n:
            vec.pat[k] = b
            vec.occupied[k] = True
        # the pattern changed: any in-flight partial match is void
        vec.alive = np.zeros(vec.n, dtype=bool)
    elif cmd == MatchCmd.STEP:
        k = int(np.count_nonzero(vec.occupied))
        shifted = np.roll(vec.alive, 1)
        shifted[0] = True  # a match may start at this character
        alive = vec.occupied & (vec.pat == b) & shifted
        vec.alive = alive
        if k:
            # the last pattern cell counts completed matches
            last = alive & vec.at(k - 1)
            vec.hits = np.where(last, (vec.hits + 1) & vec.mask, vec.hits)
    elif cmd == MatchCmd.RESTART:
        vec.alive = np.zeros(vec.n, dtype=bool)
        vec.hits = np.zeros(vec.n, dtype=vec.dtype)
        vec.selected = np.zeros(vec.n, dtype=bool)
    elif cmd == MatchCmd.SELECT_INDEX:
        vec.selected = vec.occupied & vec.at(b)
    else:
        raise ValueError(f"unknown match command {cmd!r}")


def _cell_step(cell: SmartCell, st: MatchCellState, cmd: int) -> MatchCellState:
    """Structural match cell: the systolic view of :func:`_step`.

    ``STEP`` reads the left neighbour's *committed* ``alive`` — exactly
    the one-register-deep systolic pipe the vector model expresses with
    ``np.roll`` — and the committed column occupancy for the last-cell
    hit counter.
    """
    mask = cell.array.mask
    b = cell.broadcast.value & mask
    if cmd == MatchCmd.CLEAR:
        return MatchCellState() if st != MatchCellState() else st
    if cmd == MatchCmd.APPEND_PAT:
        k = sum(1 for c in cell.array.cells if c._state.value.occupied)
        if cell.index == k:
            return replace(st, pat=b, occupied=True, alive=False)
        if st.alive:
            return replace(st, alive=False)
        return st
    if cmd == MatchCmd.STEP:
        prev_alive = (
            True if cell.is_first
            else cell.prev_cell._state.value.alive
        )
        alive = st.occupied and st.pat == b and prev_alive
        k = sum(1 for c in cell.array.cells if c._state.value.occupied)
        hits = st.hits
        if alive and cell.index == k - 1:
            hits = (hits + 1) & mask
        if alive == st.alive and hits == st.hits:
            return st
        return replace(st, alive=alive, hits=hits)
    if cmd == MatchCmd.RESTART:
        if not (st.alive or st.hits or st.selected):
            return st
        return replace(st, alive=False, hits=0, selected=False)
    if cmd == MatchCmd.SELECT_INDEX:
        sel = st.occupied and cell.index == b
        return replace(st, selected=sel) if sel != st.selected else st
    raise ValueError(f"unknown match command {cmd!r}")


def _fold(arr: SmartArray, vec: StateVectors) -> None:
    k = int(np.count_nonzero(vec.occupied))
    arr.pat_len.set(k)
    arr.match_now.set(1 if k and bool(vec.alive[k - 1]) else 0)
    arr.hits_total.set(int(np.sum(vec.hits, dtype=np.uint64)) & vec.mask)
    left = arr.tree.leftmost(vec.selected)
    arr.sel_found.set(1 if left is not None else 0)
    arr.sel_value.set(int(vec.pat[left]) if left is not None else 0)


def _cell_fold(arr: SmartArray, states: list[MatchCellState]) -> None:
    k = sum(1 for s in states if s.occupied)
    arr.pat_len.set(k)
    arr.match_now.set(1 if k and states[k - 1].alive else 0)
    arr.hits_total.set(sum(s.hits for s in states) & arr.mask)
    left = next((i for i, s in enumerate(states) if s.selected), None)
    arr.sel_found.set(1 if left is not None else 0)
    arr.sel_value.set(states[left].pat if left is not None else 0)


# ---------------------------------------------------------------------------
# Microcode
# ---------------------------------------------------------------------------

#: variety codes of the match unit
M_RESET = 0x01    # forget pattern and stream state
M_PAT = 0x02      # op_a = next pattern character
M_STEP = 0x03     # op_a = next text character → dst1 = hits, flags.match
M_COUNT = 0x04    # → dst1 = completed matches so far
M_LEN = 0x05      # → dst1 = pattern length
M_RESTART = 0x06  # keep pattern, clear stream state
M_READ = 0x07     # op_a = index → dst1 = pattern char, flags.valid

#: flag bit: a match ended at the character just stepped
M_FLAG_MATCH = 0x01
#: flag bit: the read index addressed a pattern cell
M_FLAG_VALID = 0x01

PAT_LEN = ("pat_len",)
MATCH_NOW = ("match_now",)
HITS_TOTAL = ("hits_total",)
SEL_FOUND = ("sel_found",)
SEL_VALUE = ("sel_value",)

#: The match microcode ROM: variety code → program.
MATCH_MICROCODE: dict[int, tuple[MicroInstr, ...]] = {
    M_RESET: (MicroInstr(cell_cmd=MatchCmd.CLEAR, done=True),),
    M_PAT: (MicroInstr(cell_cmd=MatchCmd.APPEND_PAT, broadcast=OP_A, done=True),),
    # STEP commits on the first edge; the second word's emit then reads the
    # post-step fold — hits and the match flag reflect this character.
    M_STEP: (
        MicroInstr(cell_cmd=MatchCmd.STEP, broadcast=OP_A),
        MicroInstr(emit=(("data1", HITS_TOTAL), ("flags", MATCH_NOW)), done=True),
    ),
    M_COUNT: (MicroInstr(emit=(("data1", HITS_TOTAL),), done=True),),
    M_LEN: (MicroInstr(emit=(("data1", PAT_LEN),), done=True),),
    M_RESTART: (MicroInstr(cell_cmd=MatchCmd.RESTART, done=True),),
    M_READ: (
        MicroInstr(cell_cmd=MatchCmd.SELECT_INDEX, broadcast=OP_A),
        MicroInstr(emit=(("data1", SEL_VALUE), ("flags", SEL_FOUND)), done=True),
    ),
}


MATCH = UnitSpec(
    name="Match",
    cmd=MatchCmd,
    state=MatchCellState,
    buses=(("broadcast", WORD),),
    outputs=(("pat_len", 32), ("match_now", 1), ("hits_total", WORD),
             ("sel_found", 1), ("sel_value", WORD)),
    atoms={name: name for name in ("pat_len", "match_now", "hits_total",
                                   "sel_found", "sel_value")},
    microcode=MATCH_MICROCODE,
    step=_step,
    fold=_fold,
    cell_step=_cell_step,
    cell_fold=_cell_fold,
)

VectorMatchArray = MATCH.vector_array
StructuralMatchArray = MATCH.structural_array
MatchCore = MATCH.core
MatchUnit = MATCH.unit
match_factory = MATCH.factory


class DirectMatchMachine(DirectMachine):
    """Drives a bare match core cycle-accurately, without the RTM."""

    spec = MATCH
    core_name = "matchcore"

    def reset_machine(self) -> int:
        return self.op(M_RESET)["cycles"]

    def set_pattern(self, pattern: Iterable[int]) -> int:
        total = self.op(M_RESET)["cycles"]
        for ch in pattern:
            total += self.op(M_PAT, ch)["cycles"]
        return total

    def step(self, char: int) -> tuple[bool, int]:
        """One text character; returns (match ended here, total hits)."""
        out = self.op(M_STEP, char)
        return bool(out["flags"] & M_FLAG_MATCH), out["data1"]

    def feed(self, text: Iterable[int]) -> list[int]:
        """Stream a text; returns the end positions of every match."""
        ends = []
        for i, ch in enumerate(text):
            matched, _ = self.step(ch)
            if matched:
                ends.append(i)
        return ends

    def hits(self) -> int:
        return self.op(M_COUNT)["data1"]

    def pattern_length(self) -> int:
        return self.op(M_LEN)["data1"]

    def restart(self) -> int:
        return self.op(M_RESTART)["cycles"]

    def read_pattern_at(self, index: int) -> Optional[int]:
        out = self.op(M_READ, index)
        return out["data1"] if out["flags"] & M_FLAG_VALID else None
