"""The smart-memory cell contract, stated once and checkable at runtime.

A unit declares a :class:`~repro.smem.spec.UnitSpec` and the kit
derives its arrays (:mod:`repro.smem.array`) from it; this module states
what a spec owes the rest of the stack, and provides
:func:`verify_array_contract` — the structural check the conformance
suite (``tests/properties``) runs against every derived array before
exercising behavioural equivalence.

The obligations
---------------

1. **Per-cell state + step functions.**  Cell state is a frozen
   dataclass whose fields all have NumPy lanes (word, bool or a
   :func:`~repro.smem.spec.lane` width).  The transitions are pure, and
   written twice on purpose: the NumPy ``step`` is production, the scalar
   ``cell_step`` the oracle the conformance suite compares it against.
   The kit returns the state object untouched on NOP; the scalar step
   must likewise return the *identical object* when a command leaves the
   cell unchanged — that identity is what lets an idle column's pure-seq
   ticks stage nothing and go dormant under the event kernel.

2. **Array-level broadcast/collect.**  The array exposes a ``cmd`` input
   port whose do-nothing code ``NOP_CMD`` encodes as 0, plus the spec's
   command buses, each driven from the ``MicroInstr`` field of the same
   name; all cells observe the same buses each cycle (SIMD).  Collection
   happens only through fold outputs, read by the microcode through the
   spec's atom table — never by the controller peeking at cell state.

3. **Fold-tree reduction.**  Every output port is a combinational fold of
   per-cell state under associative operators (:mod:`repro.smem.tree`),
   written as the vector ``fold`` and the structural ``cell_fold``, so
   the hardware cost model stays ⌈log₂ n⌉ gate levels per output.

4. **Wheel hook.**  A NOP edge must leave cell state bit-identical; the
   base classes then certify idle cycles as skippable (horizon ``None``)
   and veto fast-forward (horizon 0) whenever a real command is on the
   bus.  A unit whose NOP has side effects cannot ride the kit.  On both
   backends a fold is recomputed only after an applied command, a reset
   or a state load (:meth:`~repro.smem.array.SmartArray._refold`).

5. **``__compile_vector__``.**  Both array shapes publish a
   :class:`~repro.smem.array.SmartArrayExecutor` satisfying
   :class:`repro.hdl.compile.vector.VectorExecutor`.  The compiled backend
   absorbs every process in the array's subtree
   (:func:`repro.hdl.compile.vector.absorbed_procs`) — the column's
   interpreted processes, which the executor replaces — so it runs the
   whole array as a handful of NumPy operations per cycle, with zero
   interpreted fallbacks on a bare core (controller included).

6. **Width.**  Data words are at most 64 bits wide, the widest NumPy
   lane; both array shapes reject wider words at construction.
"""

from __future__ import annotations

from .array import SmartArrayExecutor, StructuralSmartArray, VectorSmartArray
from .microcode import MicroInstr

__all__ = ["verify_array_contract"]


def verify_array_contract(array) -> list[str]:
    """Structurally check one array instance; returns violation messages.

    An empty list means the instance satisfies every checkable obligation
    (behavioural equivalence is the conformance suite's job, not this
    function's).
    """
    # Imported here, not at module top: repro.hdl.compile transitively
    # imports repro.analysis (and through it repro.xisort), which itself
    # loads this package — a cycle at import time, fine at call time.
    from ..hdl.compile.vector import VectorExecutor, absorbed_procs

    problems: list[str] = []
    if not isinstance(array, (VectorSmartArray, StructuralSmartArray)):
        problems.append("array must subclass VectorSmartArray or StructuralSmartArray")
        return problems

    # obligation 2: command port and a zero-encoded NOP
    cmd = getattr(array, "cmd", None)
    if cmd is None or not hasattr(cmd, "value"):
        problems.append("array declares no 'cmd' input port")
    if int(array.NOP_CMD) != 0:
        problems.append(f"NOP_CMD must encode as 0, got {int(array.NOP_CMD)}")
    # ... buses named after MicroInstr fields, atoms over declared outputs
    spec = array.spec
    for port, _ in spec.buses:
        if port not in MicroInstr.__dataclass_fields__:
            problems.append(f"bus {port!r} names no MicroInstr field")
    outputs = {port for port, _ in spec.outputs}
    for kind, ports in spec.atoms.items():
        for port in (ports,) if isinstance(ports, str) else ports:
            if port not in outputs:
                problems.append(f"atom {kind!r} reads undeclared port {port!r}")

    # obligation 4: vector arrays carry an explicit wheel hook (their fold
    # is always=True, invisible to read tracking); structural arrays
    # discharge it through their pure-seq cells, which certify by staging
    # nothing on NOP edges.
    if isinstance(array, VectorSmartArray) and not array.wheel_hooks:
        problems.append("array registered no wheel hook")
    if isinstance(array, StructuralSmartArray):
        for cell in array.cells:
            if cell._next_state() is not cell._state.value:
                problems.append(
                    f"{cell.path}: NOP step must return the identical state object"
                )
                break

    # obligation 5: the executor satisfies the VectorExecutor protocol
    executor = array.__compile_vector__()
    if not isinstance(executor, SmartArrayExecutor):
        problems.append("__compile_vector__ must return a SmartArrayExecutor")
        return problems
    if not isinstance(executor, VectorExecutor):
        problems.append("executor does not satisfy the VectorExecutor protocol")
    if executor.n_cells != array.n_cells:
        problems.append(
            f"executor covers {executor.n_cells} cells, array has {array.n_cells}"
        )
    if not absorbed_procs(array):
        problems.append("the array's subtree holds no process to absorb")

    # obligation 1/3: vector state exposes the required inspection surface
    vec = executor.vec
    for attr in ("n", "clear", "state_of"):
        if not hasattr(vec, attr):
            problems.append(f"vector state lacks {attr!r}")
    return problems
