"""The horizontal microinstruction word of the smart-memory kit.

Every smart-memory machine in the kit (ξ-sort, prefix scan, histogram,
string match, …) is driven the same way: a ROM of *horizontal* microcode
words executed one per cycle by a two-state controller
(:class:`repro.smem.controller.MicroController`).  One word may
simultaneously drive a cell command onto the array's broadcast buses,
perform one small ALU operation on the controller's temporaries, and stage
an output — which is what gives every operation a cycle count independent
of the number of cells.

Operand *atoms* are the sources for broadcasts, ALU inputs and staged
outputs.  The kit defines the controller-local kinds; each array
contributes its own fold-output kinds through its unit spec's atom table
(:attr:`repro.smem.spec.UnitSpec.atoms`):

========================  =====================================================
atom                      meaning
========================  =====================================================
``("op_a",)``             first operand delivered with the dispatch
``("op_b",)``             second operand
``("t", i)``              controller temporary register i (0..3)
``("imm", k)``            constant k
*array-defined*           one fold-tree output of the attached cell array
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

Atom = tuple

#: Width of a half-word field (interval bounds, packed pairs) and its mask.
HALF_BITS = 16
HALF_MASK = (1 << HALF_BITS) - 1


def pack_halves(hi: int, lo: int) -> int:
    """⟨hi, lo⟩ → one word (``hi`` in the upper half)."""
    return ((hi & HALF_MASK) << HALF_BITS) | (lo & HALF_MASK)


def unpack_halves(packed: int) -> tuple[int, int]:
    return (packed >> HALF_BITS) & HALF_MASK, packed & HALF_MASK


class AluOp:
    """Operations of the controller's tiny ALU."""

    MOV = "mov"        # y ignored
    ADD = "add"
    ADDP1 = "addp1"    # x + y + 1 (adder with carry-in forced)
    ADDM1 = "addm1"    # x + y - 1
    AND = "and"        # x & y (bin masking for power-of-two histograms)
    HI16 = "hi16"      # upper half-word of x (y ignored)
    LO16 = "lo16"      # lower half-word of x (y ignored)
    PACK = "pack"      # pack_halves(x, y)


@dataclass(frozen=True)
class MicroInstr:
    """One horizontal microcode word.

    The three load-bus fields exist for arrays with a shift-load port set
    (ξ-sort's ``LOAD``); arrays without load buses simply leave them None
    and their controllers never read them.
    """

    #: cell command to drive this cycle (0 = NOP = leave the array alone)
    cell_cmd: int = 0
    #: broadcast source for the cell command
    broadcast: Optional[Atom] = None
    #: load-bus sources (arrays with a shift-load command)
    load_data: Optional[Atom] = None
    load_lower: Optional[Atom] = None
    load_upper: Optional[Atom] = None
    #: ALU micro-operation: (dst_temp, op, x_atom, y_atom)
    alu: Optional[tuple[int, str, Atom, Atom]] = None
    #: staged outputs: mapping of "data1"|"data2"|"flags" → atom
    emit: tuple[tuple[str, Atom], ...] = ()
    #: last word of the program
    done: bool = False


Microcode = dict[int, tuple[MicroInstr, ...]]
WriteProfile = Callable[[int], tuple[bool, bool, bool]]


def rom_write_profile(microcode: Microcode) -> WriteProfile:
    """The decoder's write profile, read off a microcode ROM.

    A variety writes exactly the destinations its program emits into;
    unknown varieties run the one-word invalid handler and claim nothing.
    """

    def emits(program: tuple[MicroInstr, ...], dst: str) -> bool:
        return any(target == dst for u in program for target, _ in u.emit)

    table = {
        variety: (emits(p, "data1"), emits(p, "data2"), emits(p, "flags"))
        for variety, p in microcode.items()
    }

    def write_profile(variety: int) -> tuple[bool, bool, bool]:
        return table.get(variety, (False, False, False))

    return write_profile


def t_(i: int) -> Atom:
    return ("t", i)


def imm(k: int) -> Atom:
    return ("imm", k)


OP_A: Atom = ("op_a",)
OP_B: Atom = ("op_b",)

#: The one-word handler every controller appends for unknown variety codes:
#: zeroed outputs, immediately done — a bad variety can never wedge a unit.
INVALID_INSTR = MicroInstr(
    emit=(("data1", ("imm", 0)), ("data2", ("imm", 0)), ("flags", ("imm", 0))),
    done=True,
)


def _format_atom(atom: Optional[Atom]) -> str:
    if atom is None:
        return "-"
    kind = atom[0]
    if kind == "t":
        return f"t{atom[1]}"
    if kind == "imm":
        return f"#{atom[1]:#x}" if atom[1] > 9 else f"#{atom[1]}"
    return kind


def _format_cmd(cmd: int) -> str:
    return getattr(cmd, "name", None) or f"cmd{int(cmd)}"


def format_microinstr(uinstr: MicroInstr) -> str:
    """One microcode word as a readable line (ROM-listing style)."""
    parts = []
    if uinstr.cell_cmd:
        cell = _format_cmd(uinstr.cell_cmd)
        if uinstr.broadcast is not None:
            cell += f" bcast={_format_atom(uinstr.broadcast)}"
        if uinstr.load_data is not None or uinstr.load_lower is not None \
                or uinstr.load_upper is not None:
            cell += (f" data={_format_atom(uinstr.load_data)}"
                     f" lo={_format_atom(uinstr.load_lower)}"
                     f" hi={_format_atom(uinstr.load_upper)}")
        parts.append(cell)
    if uinstr.alu is not None:
        dst, op, x, y = uinstr.alu
        parts.append(f"t{dst} := {op}({_format_atom(x)}, {_format_atom(y)})")
    for field_name, atom in uinstr.emit:
        parts.append(f"{field_name} ← {_format_atom(atom)}")
    if uinstr.done:
        parts.append("DONE")
    return "; ".join(parts) if parts else "nop"


def format_microcode(
    microcode: dict[int, tuple[MicroInstr, ...]],
    varieties: Optional[list[int]] = None,
    names: Optional[dict[int, str]] = None,
) -> str:
    """A microcode ROM (or selected programs) as an annotated listing.

    Debugging/documentation aid — the view a microcode author works from.
    """
    picked = varieties if varieties is not None else sorted(microcode)
    named = names or {}
    lines: list[str] = []
    for variety in picked:
        prog = microcode.get(variety)
        if prog is None:
            continue
        name = named.get(variety, f"variety {variety:#x}")
        lines.append(f"{name} ({variety:#04x}) — {len(prog)} cycles:")
        for pc, uinstr in enumerate(prog):
            lines.append(f"  {pc:>3}: {format_microinstr(uinstr)}")
        lines.append("")
    return "\n".join(lines).rstrip()
