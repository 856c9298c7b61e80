"""repro.smem — the smart-memory kit.

The paper's ξ-sort unit is one instance of a reusable construction: an
array of identical SIMD cells under a logarithmic fold tree, driven by a
microcoded two-state controller and adapted into the framework's
functional-unit protocol.  This package carries that construction once —
the *kit* — so a new stateful functional unit is one
:class:`UnitSpec` declaring:

1. its ``Cmd`` enum (``NOP`` = 0) and frozen per-cell state dataclass,
   whose fields become NumPy lanes (word, bool or :func:`lane` width);
2. its command buses and fold-output ports, and the atom → port table
   the microcode reads fold outputs through;
3. its microcode ROM over the kit's horizontal word (:class:`MicroInstr`),
   or a ROM builder taking the cell count;
4. four semantic functions: the NumPy step and vector fold
   (:class:`VectorSmartArray`, production) and the scalar cell step and
   structural fold (:class:`StructuralSmartArray`, the oracle — kept
   separate on purpose, see :mod:`repro.smem.spec`);

plus a :class:`DirectMachine` subclass naming its host-level operations.
The spec derives the arrays, the :class:`MicroController` wiring, the
core, the :class:`SmartMemoryUnit`, the registry factory and the write
profile.

The contract a spec owes each layer is documented in
:mod:`repro.smem.contract` and checked by :func:`verify_array_contract`;
clients in-tree: ξ-sort (:mod:`repro.xisort`), prefix scan/reduce
(:mod:`repro.smem.scan`), histogram (:mod:`repro.smem.histogram`) and
streaming string match (:mod:`repro.smem.match`).
"""

from .adapter import AdapterState, SmartMemoryUnit
from .array import (
    SmartArray,
    SmartArrayExecutor,
    SmartCell,
    StateVectors,
    StructuralSmartArray,
    VectorSmartArray,
)
from .contract import verify_array_contract
from .controller import N_TEMPS, MicroController
from .core import ArrayKind, DirectMachine, SmartMemoryCore
from .microcode import (
    HALF_BITS,
    HALF_MASK,
    INVALID_INSTR,
    OP_A,
    OP_B,
    AluOp,
    Atom,
    MicroInstr,
    format_microcode,
    format_microinstr,
    imm,
    pack_halves,
    t_,
    unpack_halves,
)
from .histogram import DirectHistMachine, HistUnit, hist_factory
from .match import DirectMatchMachine, MatchUnit, match_factory
from .scan import DirectScanMachine, ScanUnit, scan_factory
from .session import HistogramAccelerator, MatchAccelerator, ScanAccelerator
from .spec import WORD, UnitSpec, lane
from .tree import NodeValue, TreeNetwork, fold_reduce, tree_depth, tree_node_count

__all__ = [
    "DirectHistMachine",
    "HistUnit",
    "hist_factory",
    "DirectMatchMachine",
    "MatchUnit",
    "match_factory",
    "DirectScanMachine",
    "ScanUnit",
    "scan_factory",
    "HistogramAccelerator",
    "MatchAccelerator",
    "ScanAccelerator",
    "AdapterState",
    "SmartMemoryUnit",
    "SmartArray",
    "SmartArrayExecutor",
    "SmartCell",
    "StateVectors",
    "StructuralSmartArray",
    "VectorSmartArray",
    "UnitSpec",
    "WORD",
    "lane",
    "verify_array_contract",
    "N_TEMPS",
    "MicroController",
    "ArrayKind",
    "DirectMachine",
    "SmartMemoryCore",
    "HALF_BITS",
    "HALF_MASK",
    "INVALID_INSTR",
    "OP_A",
    "OP_B",
    "AluOp",
    "Atom",
    "MicroInstr",
    "format_microcode",
    "format_microinstr",
    "imm",
    "pack_halves",
    "t_",
    "unpack_halves",
    "NodeValue",
    "TreeNetwork",
    "fold_reduce",
    "tree_depth",
    "tree_node_count",
]
