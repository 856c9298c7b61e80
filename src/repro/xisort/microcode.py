"""Microcode for the ξ-sort core (thesis §3.3.3).

"The SIMD processor unit consists of a controller unit, a ROM storing
microcode programs controlling the SIMD cells and an array of the actual
SIMD cells."  This module defines the ξ-sort microprograms over the kit's
horizontal microinstruction word (:mod:`repro.smem.microcode`);
:class:`repro.smem.controller.MicroController` executes them.

The microinstruction is *horizontal*: one word may simultaneously drive a
cell command, perform one small ALU operation on the controller's
temporaries, and stage an output — matching the thesis's few-cycle
operation latencies.  Every microprogram has a length independent of the
number of cells, which is the source of the paper's headline property:
"Each operation takes a fixed number of clock cycles with the FPGA; with a
CPU each operation requires an iteration that takes time proportional to
the number of data elements."

Besides the kit's controller-local atoms (``op_a``/``op_b``/``t``/``imm``),
ξ-sort contributes the fold-tree output atoms of its cell array:

========================  =====================================================
atom                      meaning
========================  =====================================================
``("count",)``            tree flag-count output
``("found",)``            tree leftmost-found output (0/1)
``("left_data",)``        data of the leftmost selected cell
``("left_interval",)``    packed ⟨lower,upper⟩ of the leftmost selected cell
``("sel_value",)``        single-selected-cell data retrieval
``("sel_unique",)``       1 when exactly one cell is selected
========================  =====================================================
"""

from __future__ import annotations

from typing import Optional

from ..smem.microcode import (
    OP_A,
    OP_B,
    AluOp,
    Atom,
    MicroInstr,
    format_microinstr,
    imm as _imm,
    pack_halves,
    rom_write_profile,
    t_ as _t,
    unpack_halves,
)
from ..smem.microcode import format_microcode as _kit_format_microcode
from .cell import INTERVAL_BITS, SENTINEL, CellCmd

__all__ = [
    "Atom", "AluOp", "MicroInstr", "MICROCODE",
    "XI_LOAD", "XI_SPLIT", "XI_FIND_PIVOT", "XI_READ_AT", "XI_STATUS",
    "XI_RESET", "XI_FIND_PIVOT_AT", "XI_WRITE_AT", "XI_RANK", "XI_COUNT_EQ",
    "XI_FLAG_FOUND", "pack_interval", "unpack_interval", "write_profile",
    "program_length", "format_microinstr", "format_microcode",
]

#: variety codes of the ξ-sort unit (the unit's "instruction set")
XI_LOAD = 0x01        # op_a = datum, op_b = n-1 (initial upper bound)
XI_SPLIT = 0x02       # op_a = pivot datum, op_b = packed pivot interval
XI_FIND_PIVOT = 0x03  # → dst1 = pivot datum, dst2 = packed interval, flags.found
XI_READ_AT = 0x04     # op_a = index → dst1 = datum, flags.found
XI_STATUS = 0x05      # → dst1 = number of imprecise cells
XI_RESET = 0x06       # clear the array to the empty state
XI_FIND_PIVOT_AT = 0x07  # op_a = k → pivot of the segment containing index k
XI_WRITE_AT = 0x08    # op_a = index, op_b = new datum → flags.found (smart update)
XI_RANK = 0x09        # op_a = value → dst1 = |{occupied cells with data < value}|
XI_COUNT_EQ = 0x0A    # op_a = value → dst1 = occurrences (membership in O(1))

#: flag bit the unit raises when FIND_PIVOT/READ_AT found a cell
XI_FLAG_FOUND = 0x01


def pack_interval(lower: int, upper: int) -> int:
    """⟨lower, upper⟩ → one word (lower in the high half)."""
    return pack_halves(lower, upper)


def unpack_interval(packed: int) -> tuple[int, int]:
    return unpack_halves(packed)


COUNT: Atom = ("count",)
FOUND: Atom = ("found",)
LEFT_DATA: Atom = ("left_data",)
LEFT_INTERVAL: Atom = ("left_interval",)
SEL_VALUE: Atom = ("sel_value",)
SEL_UNIQUE: Atom = ("sel_unique",)


def _load_program() -> tuple[MicroInstr, ...]:
    """Shift one datum in; its initial interval is ⟨0, op_b⟩ (op_b = n-1)."""
    return (
        MicroInstr(
            cell_cmd=CellCmd.LOAD,
            load_data=OP_A,
            load_lower=_imm(0),
            load_upper=OP_B,
            done=True,
        ),
    )


def _reset_program() -> tuple[MicroInstr, ...]:
    return (MicroInstr(cell_cmd=CellCmd.CLEAR, done=True),)


def _split_program() -> tuple[MicroInstr, ...]:
    """One χ-sort refinement step — constant length, any n.

    With pivot value v and pivot interval ⟨p, q⟩ (packed in op_b), and
    k = |{cells in segment ⟨p,q⟩ with data < v}|:

    * cells with data < v   → ⟨p, p+k−1⟩
    * cells with data > v   → ⟨p+k+1, q⟩
    * cells with data = v   → ⟨p+k, p+k⟩ (the pivot lands exactly)

    Emits k in dst1 (host-side progress/debug).
    """
    return (
        MicroInstr(alu=(0, AluOp.HI16, OP_B, OP_B)),                    # t0 = p
        MicroInstr(alu=(1, AluOp.LO16, OP_B, OP_B),
                   cell_cmd=CellCmd.SELECT_ALL),                        # t1 = q
        MicroInstr(cell_cmd=CellCmd.MATCH_LOWER_BOUND, broadcast=_t(0)),
        MicroInstr(cell_cmd=CellCmd.MATCH_UPPER_BOUND, broadcast=_t(1)),
        MicroInstr(cell_cmd=CellCmd.SAVE),
        MicroInstr(cell_cmd=CellCmd.MATCH_DATA_LT, broadcast=OP_A),
        MicroInstr(alu=(2, AluOp.MOV, COUNT, COUNT)),                   # t2 = k
        MicroInstr(alu=(3, AluOp.ADDM1, _t(0), _t(2))),                 # t3 = p+k-1
        MicroInstr(cell_cmd=CellCmd.SET_UPPER_BOUND, broadcast=_t(3)),
        MicroInstr(cell_cmd=CellCmd.RESTORE),
        MicroInstr(cell_cmd=CellCmd.MATCH_DATA_GT, broadcast=OP_A,
                   alu=(3, AluOp.ADDP1, _t(0), _t(2))),                 # t3 = p+k+1
        MicroInstr(cell_cmd=CellCmd.SET_LOWER_BOUND, broadcast=_t(3)),
        MicroInstr(cell_cmd=CellCmd.RESTORE,
                   alu=(3, AluOp.ADD, _t(0), _t(2))),                   # t3 = p+k
        MicroInstr(cell_cmd=CellCmd.MATCH_DATA_EQ, broadcast=OP_A),
        MicroInstr(cell_cmd=CellCmd.SET_BOUNDS, broadcast=_t(3)),
        MicroInstr(emit=(("data1", _t(2)),), done=True),
    )


def _find_pivot_program() -> tuple[MicroInstr, ...]:
    """Leftmost imprecise cell → (datum, packed interval, found flag)."""
    return (
        MicroInstr(cell_cmd=CellCmd.SELECT_ALL),
        MicroInstr(cell_cmd=CellCmd.SELECT_IMPRECISE),
        MicroInstr(
            emit=(
                ("data1", LEFT_DATA),
                ("data2", LEFT_INTERVAL),
                ("flags", FOUND),
            ),
            done=True,
        ),
    )


def _read_at_program() -> tuple[MicroInstr, ...]:
    """Retrieve the datum whose (precise) interval equals ⟨i, i⟩."""
    return (
        MicroInstr(cell_cmd=CellCmd.SELECT_ALL),
        MicroInstr(cell_cmd=CellCmd.MATCH_LOWER_BOUND, broadcast=OP_A),
        MicroInstr(cell_cmd=CellCmd.MATCH_UPPER_BOUND, broadcast=OP_A),
        MicroInstr(
            emit=(("data1", SEL_VALUE), ("flags", SEL_UNIQUE)),
            done=True,
        ),
    )


def _find_pivot_at_program() -> tuple[MicroInstr, ...]:
    """Pivot of the segment whose interval contains index k (selection path).

    Uses the interval-containment match commands (``MATCH_*_I`` in
    Fig. 3.12): among imprecise cells, keep those with lower ≤ k ≤ upper.
    All cells of that segment share one interval, so the leftmost is a
    valid pivot for the quickselect-style refinement.
    """
    return (
        MicroInstr(cell_cmd=CellCmd.SELECT_ALL),
        MicroInstr(cell_cmd=CellCmd.SELECT_IMPRECISE),
        MicroInstr(cell_cmd=CellCmd.MATCH_LOWER_BOUND_I, broadcast=OP_A),
        MicroInstr(cell_cmd=CellCmd.MATCH_UPPER_BOUND_I, broadcast=OP_A),
        MicroInstr(
            emit=(
                ("data1", LEFT_DATA),
                ("data2", LEFT_INTERVAL),
                ("flags", FOUND),
            ),
            done=True,
        ),
    )


def _write_at_program() -> tuple[MicroInstr, ...]:
    """Overwrite the datum at a (precise) index in place — the "smart
    memory" update path, built on the ``LOAD_SELECTED`` command of
    Fig. 3.12.  The found flag reports whether exactly one cell matched.

    Note the index interval of the written cell is unchanged: the caller is
    responsible for the ordering invariant (or for re-running splits after
    a batch of updates), exactly like storing through a pointer into a
    sorted array.
    """
    return (
        MicroInstr(cell_cmd=CellCmd.SELECT_ALL),
        MicroInstr(cell_cmd=CellCmd.MATCH_LOWER_BOUND, broadcast=OP_A),
        MicroInstr(cell_cmd=CellCmd.MATCH_UPPER_BOUND, broadcast=OP_A),
        MicroInstr(
            cell_cmd=CellCmd.LOAD_SELECTED,
            broadcast=OP_B,
            emit=(("flags", SEL_UNIQUE),),
            done=True,
        ),
    )


def _select_occupied() -> tuple[MicroInstr, ...]:
    """Select exactly the occupied cells.

    Empty cells hold the sentinel interval ⟨0xFFFF,0xFFFF⟩; occupied cells
    always have lower ≤ n−1 < 0xFFFF, so one containment match on the
    lower bound separates them.
    """
    return (
        MicroInstr(cell_cmd=CellCmd.SELECT_ALL),
        MicroInstr(cell_cmd=CellCmd.MATCH_LOWER_BOUND_I, broadcast=_imm(SENTINEL - 1)),
    )


def _rank_program() -> tuple[MicroInstr, ...]:
    """Order statistic in constant time: |{occupied cells with data < v}|.

    The data-parallel primitive the paper's "active data structures"
    argument is about — a software rank query walks all n elements; here
    every cell compares simultaneously and the tree counts.
    """
    return _select_occupied() + (
        MicroInstr(cell_cmd=CellCmd.MATCH_DATA_LT, broadcast=OP_A),
        MicroInstr(emit=(("data1", COUNT),), done=True),
    )


def _count_eq_program() -> tuple[MicroInstr, ...]:
    """Multiplicity of a value (membership test) in constant time."""
    return _select_occupied() + (
        MicroInstr(cell_cmd=CellCmd.MATCH_DATA_EQ, broadcast=OP_A),
        MicroInstr(emit=(("data1", COUNT),), done=True),
    )


def _status_program() -> tuple[MicroInstr, ...]:
    """Count of imprecise cells (0 ⇒ the array is fully sorted)."""
    return (
        MicroInstr(cell_cmd=CellCmd.SELECT_ALL),
        MicroInstr(cell_cmd=CellCmd.SELECT_IMPRECISE),
        MicroInstr(emit=(("data1", COUNT),), done=True),
    )


#: The microcode ROM image: variety code → program.
MICROCODE: dict[int, tuple[MicroInstr, ...]] = {
    XI_LOAD: _load_program(),
    XI_SPLIT: _split_program(),
    XI_FIND_PIVOT: _find_pivot_program(),
    XI_READ_AT: _read_at_program(),
    XI_STATUS: _status_program(),
    XI_RESET: _reset_program(),
    XI_FIND_PIVOT_AT: _find_pivot_at_program(),
    XI_WRITE_AT: _write_at_program(),
    XI_RANK: _rank_program(),
    XI_COUNT_EQ: _count_eq_program(),
}


#: Which destinations each ξ-sort instruction writes (decoder table): the
#: union of its program's emit targets.  Unknown varieties claim nothing;
#: the controller treats them as a 1-cycle no-op so the unit cannot
#: deadlock on a bad variety code.
write_profile = rom_write_profile(MICROCODE)


def program_length(variety: int) -> int:
    """Microprogram length in cycles (constant in n — asserted by tests)."""
    prog = MICROCODE.get(variety)
    return len(prog) if prog is not None else 1


_VARIETY_NAMES = {
    XI_LOAD: "XI_LOAD",
    XI_SPLIT: "XI_SPLIT",
    XI_FIND_PIVOT: "XI_FIND_PIVOT",
    XI_READ_AT: "XI_READ_AT",
    XI_STATUS: "XI_STATUS",
    XI_RESET: "XI_RESET",
    XI_FIND_PIVOT_AT: "XI_FIND_PIVOT_AT",
    XI_WRITE_AT: "XI_WRITE_AT",
    XI_RANK: "XI_RANK",
    XI_COUNT_EQ: "XI_COUNT_EQ",
}


def format_microcode(varieties: Optional[list[int]] = None) -> str:
    """The whole ξ-sort ROM (or selected programs) as an annotated listing.

    Debugging/documentation aid — the view a microcode author works from.
    """
    return _kit_format_microcode(MICROCODE, varieties, names=_VARIETY_NAMES)
