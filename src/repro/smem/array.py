"""Generic smart-memory cell arrays: the SIMD substrate behind every kit FU.

The paper's smart-memory construction — an array of identical cells that
all execute one broadcast command per cycle, under a logarithmic fold tree
that reduces per-cell state to a handful of output ports — is independent
of *what* the cells store.  This module carries that construction once;
ξ-sort, prefix scan, histogram and string match are clients.

The cell contract
-----------------

A unit does not subclass anything here: it declares a
:class:`~repro.smem.spec.UnitSpec`, and the spec derives one
:class:`VectorSmartArray` (NumPy state, one process for the whole column —
the production model) and one :class:`StructuralSmartArray` (one
:class:`SmartCell` component per element — the synthesis-faithful oracle)
from it.  The bases read every unit-specific piece off ``self.spec``:

* **per-cell state + step function** — the frozen state dataclass, laid
  out as one NumPy lane per field (:class:`StateVectors`), plus a pure
  transition: vectorised over the whole column (``spec.step``) and scalar
  per cell (``spec.cell_step``).  The kit filters NOP before either step
  runs and the scalar step must return the *same object* when nothing
  changes, so idle columns go dormant under the event kernel;
* **array-level broadcast/collect** — the ``cmd`` port plus the spec's
  command buses (``spec.buses``), with ``NOP_CMD`` (0) marking the
  do-nothing command;
* **fold-tree reduction** — the spec's output ports driven
  combinationally from the cell state (``spec.fold`` /
  ``spec.cell_fold``), matching the associative-fold semantics of
  :mod:`repro.smem.tree`;
* **wheel-hook obligation** — satisfied here: a NOP edge provably leaves
  the state untouched, so the base classes register a wheel hook that
  certifies idle cycles as skippable and vetoes (horizon 0) whenever a
  real command is on the bus.  Implementers whose NOP is not state-free
  must not use this kit;
* **__compile_vector__ obligation** — satisfied here: both base classes
  publish a :class:`SmartArrayExecutor` that replaces every process in the
  array's subtree (the column's interpreted processes, which the compiled
  backend absorbs, :mod:`repro.hdl.compile.vector`) with per-cycle array
  operations, including seeding from and redirecting the live per-cell
  registers of a structural array.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from ..hdl import Component, Signal
from .tree import TreeNetwork

if TYPE_CHECKING:
    from .spec import UnitSpec

#: widest data word a NumPy lane holds; wider units are rejected at build
LANE_LIMIT_BITS = 64

#: port width marker: as wide as the unit's data word
WORD = "word"

#: bus readers of the one command-apply implementation: tracked ``.value``
#: reads in the interpreted seq process, settled ``._value`` in the executor
_TRACKED = attrgetter("value")
_RAW = attrgetter("_value")


def lane_dtype(word_bits: int) -> np.dtype:
    """Narrowest unsigned numpy dtype whose lane holds a ``word_bits`` word.

    Width-proof-backed narrowing for the vectorised cell state: every value
    a cell commits is masked below ``2**word_bits``, and
    ``(x mod 2**lane) mod 2**w == x mod 2**w`` for ``w <= lane``, so
    add/multiply/bitwise arithmetic carried in the narrow lane wraps to the
    same masked words and comparisons see identical values.  Words wider
    than :data:`LANE_LIMIT_BITS` clamp to the uint64 lane, which cannot
    hold them: such a column would truncate, so the kit arrays reject them
    at construction (:class:`SmartArray`).
    """
    # lazy: repro.analysis imports system/xisort modules built on this kit
    from ..analysis.dataflow.domain import vector_width_bits

    return np.dtype(f"uint{vector_width_bits(min(word_bits, LANE_LIMIT_BITS))}")


class StateVectors:
    """The parallel state arrays of an n-cell column, one lane per field.

    Laid out from the spec's frozen cell-state dataclass: a field whose
    default is a bool gets a bool lane, a :func:`~repro.smem.spec.lane`
    field its fixed width, every other field a data-word lane.  Each lane
    is an attribute named after its field; ``mask`` is the word mask and
    ``pos`` the cell indices.
    """

    def __init__(self, state_cls: Any, n: int, word_bits: int):
        self.n = n
        self.state_cls = state_cls
        self.mask = (1 << word_bits) - 1
        self.dtype = lane_dtype(word_bits)
        self.pos = np.arange(n, dtype=np.uint32)
        #: (field name, lane dtype, reset value, Python type of a cell's value)
        self._lanes: list[tuple[str, np.dtype, Any, Callable[[Any], Any]]] = []
        for f in fields(state_cls):
            bits = f.metadata.get("lane_bits")
            if isinstance(f.default, bool):
                self._lanes.append((f.name, np.dtype(bool), f.default, bool))
            else:
                dtype = self.dtype if bits is None else lane_dtype(bits)
                self._lanes.append((f.name, dtype, f.default, int))
        self.clear()

    if TYPE_CHECKING:
        def __getattr__(self, lane: str) -> np.ndarray: ...  # one per state field

    def clear(self) -> None:
        """Every cell back to the default (reset) state."""
        for name, dtype, default, _conv in self._lanes:
            setattr(self, name, np.full(self.n, default, dtype=dtype))

    def at(self, index: int) -> np.ndarray:
        """The cells at position ``index``: none when it is out of range.

        Compares against the Python int, so an index wider than the
        position lane selects nothing instead of overflowing a cast.
        """
        if index >= self.n:
            return np.zeros(self.n, dtype=bool)
        return self.pos == index

    def state_of(self, i: int) -> object:
        return self.state_cls(**{
            name: conv(getattr(self, name)[i])
            for name, _dtype, _default, conv in self._lanes
        })

    def load(self, states: list) -> None:
        """Overwrite every lane from per-cell state objects."""
        for name, dtype, _default, _conv in self._lanes:
            setattr(self, name,
                    np.array([getattr(s, name) for s in states], dtype=dtype))


class SmartCell(Component):
    """One cell of a structural smart-memory column.

    The owning array (``parent``, also ``array``) wires its ``cmd`` port
    and command buses onto same-named instance attributes and sets
    ``prev_cell`` / ``is_first`` / ``index`` — the spec's scalar step may read
    the left neighbour's committed state (systolic shifts) or fold over the
    whole column through ``cell.array`` (global SIMD semantics such as
    occupancy counts).
    """

    cmd: Signal

    def __init__(self, name: str, word_bits: int, parent: "SmartArray"):
        super().__init__(name, parent)
        self.word_bits = word_bits
        self.array = parent
        self.spec = parent.spec
        self._state = self.reg("state", None, reset=self.spec.state())
        self.prev_cell: Optional["SmartCell"] = None
        self.is_first = False
        self.index = 0

        @self.seq(pure=True)
        def _tick() -> None:
            ns = self._next_state()
            # the step returns the same object when nothing changes, so an
            # idle column's cells stage nothing and go dormant.
            if ns is not self._state.value:
                self._state.nxt = ns

    def _next_state(self):
        st = self._state.value
        cmd = self.cmd.value
        if cmd == SmartArray.NOP_CMD:
            return st
        return self.spec.cell_step(self, st, cmd)

    @property
    def state(self) -> object:
        """Committed state; read through the executor once vectorized."""
        return self.array.state_at(self.index)

    if TYPE_CHECKING:
        def __getattr__(self, bus: str) -> Signal: ...  # the wired command buses


class SmartArrayExecutor:
    """Compiled-backend vector executor for a smart-memory column.

    Implements the :class:`repro.hdl.compile.vector.VectorExecutor`
    contract on top of the owner array's vectorised state.  The settle
    side folds only while the owner's column is marked changed
    (:meth:`SmartArray._refold`), so the repeated sweeps of one settle
    and the long NOP stretches between operations cost nothing.

    For a structural array the owner seeds fresh vectors from the live
    per-cell register states, and every :attr:`SmartCell.state` read goes
    through them, keeping inspection exact while the per-cell registers go
    stale.
    """

    def __init__(self, owner: "SmartArray"):
        self.owner = owner
        self.vec = owner.vec
        self.n_cells = owner.n_cells
        owner._fold_dirty = True  # a fresh executor folds at its first settle

    def settle(self) -> bool:
        o = self.owner
        if not o._fold_dirty:
            return False
        if o._guard is not None:
            o._guard.pre_fold()
        return o._refold()

    def edge(self) -> bool:
        o = self.owner
        cmd = o.cmd._value
        if cmd == o.NOP_CMD:
            return False
        o._apply_command(cmd, _RAW)
        return True

    def horizon(self):
        return 0 if self.owner.cmd._value != self.owner.NOP_CMD else None

    def on_reset(self) -> None:
        self.owner._clear()


def _suppress_guard_lint(array: Component) -> None:
    """Declare the guard fold's documented contract-rule waivers.

    The detection process attached by ``attach_guard`` repairs single-bit
    upsets inline (``force()`` on cell payloads / the machine-check
    latches) and reads the guard's hidden pending-upset state.  Both are
    guard-coupled: the hidden state moves only alongside the tracked
    ``guard_evt`` toggle staged by the same command edge that created it,
    so every reader is re-run.  Declared here, once, where the coupling is
    created.
    """
    array.lint_suppress(
        "contract.force-in-proc",
        "inline ECC on the fold path: a single-bit repair (or machine-check "
        "latch) forces state the tracked guard_evt toggle already re-ran "
        "readers for",
    )
    array.lint_suppress(
        "contract.hidden-comb-read",
        "the guard's pending-upset state changes only alongside the tracked "
        "guard_evt register edge staged by the same command",
    )


class SmartArray(Component):
    """What both array shapes share: ports, size checks, guard, inspection.

    A concrete array class binds ``spec`` (a
    :class:`~repro.smem.spec.UnitSpec`); :class:`VectorSmartArray` and
    :class:`StructuralSmartArray` add the column itself.
    """

    NOP_CMD: int = 0
    spec: UnitSpec
    #: the per-cell components (structural arrays only)
    cells: list[SmartCell]

    def __init__(self, name: str, n_cells: int, word_bits: int = 32,
                 parent: Optional[Component] = None):
        super().__init__(name, parent)
        if n_cells < 1:
            raise ValueError("cell array needs at least one cell")
        if word_bits > LANE_LIMIT_BITS:
            raise ValueError(
                f"{self.path}: word_bits={word_bits} exceeds the "
                f"{LANE_LIMIT_BITS}-bit lane limit of smart-memory arrays"
            )
        if self.spec.check_size is not None:
            self.spec.check_size(n_cells)
        self.n_cells = n_cells
        self.word_bits = word_bits
        self.mask = (1 << word_bits) - 1
        #: optional repro.faults.ArrayGuard (see attach_guard)
        self._guard = None
        #: the NumPy column (a structural array gets one once vectorized)
        self.vec: Optional[StateVectors] = None
        #: ``vec`` moved since the last fold: set by every change to it (an
        #: applied command, a reset, a state load), cleared by the fold
        self._fold_dirty = True
        self.tree = TreeNetwork(n_cells)
        # command side (driven by the controller), then the fold outputs
        self.cmd = self.signal("cmd", 8, self.spec.cmd(self.NOP_CMD))
        for port, width in self.spec.buses + self.spec.outputs:
            setattr(self, port, self.signal(
                port, word_bits if width == WORD else width, 0))
        self._buses = tuple(getattr(self, port) for port, _ in self.spec.buses)

    def _make_vectors(self) -> StateVectors:
        return StateVectors(self.spec.state, self.n_cells, self.word_bits)

    def _apply_command(self, cmd: int, read: Callable[[Signal], Any]) -> None:
        """Apply one real command to ``vec``, reading the buses via ``read``."""
        self.spec.step(self.vec, cmd, *map(read, self._buses))
        self._fold_dirty = True
        if self._guard is not None:
            self._guard.after_apply()

    def _clear(self) -> None:
        """Every cell of ``vec`` back to its reset state."""
        self.vec.clear()
        self._fold_dirty = True

    def _refold(self) -> bool:
        """Drive the fold outputs from ``vec`` if it moved since the last
        fold; a NOP edge leaves it bit-identical, so the outputs stand."""
        if not self._fold_dirty:
            return False
        self._fold_dirty = False
        self.spec.fold(self, self.vec)
        return True

    # -- state-fault guard hookup ---------------------------------------------------

    def attach_guard(self, guard: Any) -> None:
        """Wire a :class:`repro.faults.ArrayGuard` onto this column.

        The guard's injection (``after_apply``) rides the command apply;
        its detection (``pre_fold``) gets a dedicated comb process woken by
        the guard's event register, so deferred upsets apply even when the
        triggering command changed no other signal.  Both hooks are
        absorbed by the compiled executor, which calls them directly.
        """
        if self._guard is not None:
            raise RuntimeError(f"{self.path} already has a state guard")
        self._guard = guard
        guard.bind_evt(self.reg("guard_evt", 1, 0))

        @self.comb
        def _guard_fold() -> None:
            guard.pre_fold()

        _suppress_guard_lint(self)

    # -- inspection / checkpointing -------------------------------------------------

    def state_at(self, i: int) -> object:
        """One cell's committed state (the executor shares ``self.vec``)."""
        if self.vec is not None:
            return self.vec.state_of(i)
        return self.cells[i]._state.value

    def states(self) -> list:
        """Snapshot as per-cell state objects (equivalence tests)."""
        return [self.state_at(i) for i in range(self.n_cells)]

    def load_states(self, states: list) -> None:
        """Overwrite the whole column's state (checkpoint restore)."""
        if len(states) != self.n_cells:
            raise ValueError(
                f"expected {self.n_cells} states, got {len(states)}"
            )
        if self.vec is None:
            for cell, s in zip(self.cells, states):
                cell._state.force(s)
            return
        self.vec.load(states)
        self._fold_dirty = True

    def poke_state(self, i: int, state: object) -> None:
        """Replace one cell's state in place (uncorrectable-upset payload)."""
        states = self.states()
        states[i] = state
        self.load_states(states)

    if TYPE_CHECKING:
        def __getattr__(self, port: str) -> Signal: ...  # the spec's ports


class VectorSmartArray(SmartArray):
    """All n cells as NumPy arrays; one seq process applies the command."""

    def __init__(self, name: str, n_cells: int, word_bits: int = 32,
                 parent: Optional[Component] = None):
        super().__init__(name, n_cells, word_bits, parent)
        self.vec = self._make_vectors()

        # always=True: this process reads the NumPy cell-state arrays, which
        # the scheduler's Signal read-tracking cannot see, so the kernel
        # calls it on every settle iteration; it folds only after the arrays
        # changed (an applied command, a reset or a state load).
        @self.comb(always=True)
        def _tree_outputs() -> None:
            self._refold()

        @self.seq
        def _apply() -> None:
            cmd = self.cmd.value
            if cmd != self.NOP_CMD:
                self._apply_command(cmd, _TRACKED)

        # A NOP edge leaves the NumPy state untouched, so idle cycles are
        # freely skippable; any real command vetoes.  This hook also keeps
        # the always=True tree fold covered on the fast-forward path: the
        # arrays cannot change while every skipped edge is a NOP.
        self.wheel(lambda: 0 if self.cmd.value != self.NOP_CMD else None)

        @self.on_reset
        def _reset() -> None:
            self._clear()

    def __compile_vector__(self) -> SmartArrayExecutor:
        return SmartArrayExecutor(self)


class StructuralSmartArray(SmartArray):
    """One :class:`SmartCell` component per element plus a structural fold.

    Cycle-for-cycle equivalent to the matching :class:`VectorSmartArray`;
    used as the oracle in property tests and for small faithful
    simulations.  Under the compiled backend the whole column collapses
    into a :class:`SmartArrayExecutor` — same observable behaviour,
    array-speed execution.
    """

    def __init__(self, name: str, n_cells: int, word_bits: int = 32,
                 parent: Optional[Component] = None):
        super().__init__(name, n_cells, word_bits, parent)
        self.cells: list[SmartCell] = self._make_cells()

        @self.comb
        def _tree_outputs() -> None:
            self.spec.cell_fold(self, self.states())

    def _make_cells(self) -> list[SmartCell]:
        wires = ("cmd",) + tuple(port for port, _ in self.spec.buses)
        cells: list[SmartCell] = []
        prev: Optional[SmartCell] = None
        for i in range(self.n_cells):
            cell = SmartCell(f"cell{i}", self.word_bits, parent=self)
            for wire in wires:
                setattr(cell, wire, getattr(self, wire))
            cell.prev_cell = prev
            cell.is_first = i == 0
            cell.index = i
            cells.append(cell)
            prev = cell
        return cells

    def __compile_vector__(self) -> SmartArrayExecutor:
        # seed from the live per-cell registers, then redirect every read
        vec = self._make_vectors()
        vec.load([c._state.value for c in self.cells])
        self.vec = vec
        return SmartArrayExecutor(self)

    def attach_guard(self, guard: Any) -> None:
        """Wire a guard; see :meth:`SmartArray.attach_guard`.

        The structural base has no array-level apply process, so the guard
        also gets its own seq process counting applied commands, plus a
        wheel veto mirroring the vector base's hook (skipped stretches are
        all-NOP, where neither process does work).
        """
        super().attach_guard(guard)

        @self.seq
        def _guard_apply() -> None:
            if self.cmd.value != self.NOP_CMD:
                guard.after_apply()

        self.wheel(lambda: 0 if self.cmd.value != self.NOP_CMD else None)
