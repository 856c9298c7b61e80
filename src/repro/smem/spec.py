"""One declaration per smart-memory unit: the kit's unit spec.

Every kit unit is an instance of one pattern (paper §IV.B): a column of
identical SIMD cells under a fold tree, a microcode ROM walked by the
two-state controller, and the functional-unit adapter.  A
:class:`UnitSpec` declares what differs from unit to unit, once:

* the ``Cmd`` enum (``NOP`` encodes as 0) and the frozen cell-state
  dataclass — each field gets a NumPy lane: a bool field a bool lane, a
  :func:`lane` field its fixed width, every other field a data word;
* the command buses and fold-output ports, in declaration order — a bus
  is named after the :class:`~repro.smem.microcode.MicroInstr` field
  whose atom drives it;
* the atom → port table through which microcode reads fold outputs (a
  pair of ports reads as one packed ⟨hi, lo⟩ word);
* the microcode ROM, or a builder taking ``n_cells``;
* four semantic functions: the NumPy ``step`` and vector ``fold`` (the
  production model) and the scalar ``cell_step`` and structural
  ``cell_fold`` (the oracle).

Both pairs of semantic functions are kept on purpose: the conformance
suite compares the production model against the oracle, and deriving
one from the other would make that check compare the code with itself.

Everything else is derived here: the vector and structural array
classes, the core, the unit, its registry factory, and the decoder's
write profile (the union of each program's ``emit`` targets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Optional, Union

from ..hdl import Component
from .adapter import SmartMemoryUnit
from .array import WORD, StructuralSmartArray, VectorSmartArray
from .core import ArrayKind, SmartMemoryCore
from .microcode import Microcode, WriteProfile, rom_write_profile

__all__ = ["WORD", "UnitSpec", "lane"]


def lane(bits: int, default: int = 0) -> Any:
    """A fixed-width cell-state field: its NumPy lane is ``bits`` wide."""
    return field(default=default, metadata={"lane_bits": bits})


@dataclass(frozen=True, eq=False)
class UnitSpec:
    """The declaration of one smart-memory unit (see the module docstring).

    ``step(vec, cmd, *buses)`` applies one real command to a
    :class:`~repro.smem.array.StateVectors` column; ``fold(array, vec)``
    drives the output ports from it.  ``cell_step(cell, state, cmd)``
    returns one :class:`~repro.smem.array.SmartCell`'s next state (the
    same object when unchanged); ``cell_fold(array, states)`` drives the
    ports from the per-cell states.  NOP never reaches either step.
    """

    #: class-name stem of the derived classes (``ScanCore``, ``ScanUnit``…)
    name: str
    cmd: type
    state: type
    #: (port, width) command buses after ``cmd``; width is bits or WORD
    buses: tuple[tuple[str, Union[int, str]], ...]
    #: (port, width) fold-tree outputs
    outputs: tuple[tuple[str, Union[int, str]], ...]
    #: atom kind → output port, or (hi, lo) port pair read packed
    atoms: Mapping[str, Union[str, tuple[str, str]]]
    #: the ROM, or a builder ``n_cells → ROM`` (its emit targets may not
    #: depend on the size: the write profile is read off the one-cell ROM)
    microcode: Union[Microcode, Callable[[int], Microcode]]
    step: Callable[..., None]
    fold: Callable[..., None]
    cell_step: Callable[..., object]
    cell_fold: Callable[..., None]
    #: extra size constraint (ξ-sort's sentinel bound); raises ValueError
    check_size: Optional[Callable[[int], None]] = None

    def rom(self, n_cells: int) -> Microcode:
        if callable(self.microcode):
            return self.microcode(n_cells)
        return self.microcode

    @cached_property
    def write_profile(self) -> WriteProfile:
        return rom_write_profile(self.rom(1))

    def _derive(self, base: type, name: str, **attrs: object) -> type:
        return type(name, (base,), {"spec": self, **attrs})

    @cached_property
    def vector_array(self) -> type:
        return self._derive(VectorSmartArray, f"Vector{self.name}Array")

    @cached_property
    def structural_array(self) -> type:
        return self._derive(StructuralSmartArray, f"Structural{self.name}Array")

    @cached_property
    def core(self) -> type:
        return self._derive(SmartMemoryCore, f"{self.name}Core")

    @cached_property
    def unit(self) -> type:
        return self._derive(SmartMemoryUnit, f"{self.name}Unit",
                            write_profile=staticmethod(self.write_profile))

    def factory(self, n_cells: int = 64,
                array_kind: ArrayKind = "vector") -> Callable[..., SmartMemoryUnit]:
        """Unit-registry factory for a unit of a given size."""
        unit = self.unit

        def make(name: str, word_bits: int,
                 parent: Optional[Component] = None) -> SmartMemoryUnit:
            return unit(name, word_bits, parent, n_cells=n_cells,
                        array_kind=array_kind)

        return make
