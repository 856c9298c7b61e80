"""Smart-memory cores: controller + microcode ROM + SIMD cell array.

Thesis §3.3.3: "The SIMD processor unit consists of a controller unit, a
ROM storing microcode programs controlling the SIMD cells and an array of
the actual SIMD cells."  :class:`SmartMemoryCore` wires those three
together for any kit machine and exposes the controller's
start/variety/operand interface — the boundary the functional-unit
adapter (thesis Fig. 3.13) attaches to.

A core can also be driven *directly* (without the coprocessor framework)
via :class:`DirectMachine`, which is how the fixed-cycles-per-operation
benchmarks measure each machine in isolation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal, Optional

from ..hdl import Component, Simulator
from .controller import MicroController

if TYPE_CHECKING:
    from .spec import UnitSpec

ArrayKind = Literal["vector", "structural"]


class SmartMemoryCore(Component):
    """Controller + cell array, ready to adapt into the framework.

    A concrete core binds ``spec`` (a :class:`~repro.smem.spec.UnitSpec`,
    which derives one as ``spec.core``): the array is the spec's vector or
    structural class, the controller a
    :class:`~repro.smem.controller.MicroController` over the spec's ROM.
    """

    spec: UnitSpec

    def __init__(
        self,
        name: str,
        n_cells: int,
        word_bits: int = 32,
        array_kind: ArrayKind = "vector",
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self.n_cells = n_cells
        self.word_bits = word_bits
        if array_kind == "vector":
            array_class = self.spec.vector_array
        elif array_kind == "structural":
            array_class = self.spec.structural_array
        else:
            raise ValueError(f"unknown array kind {array_kind!r}")
        self.array = array_class("cells", n_cells, word_bits, parent=self)
        self.controller = MicroController(
            "ctrl", self.array, self.spec.rom(n_cells), word_bits, parent=self
        )

    # convenient aliases to the controller interface
    @property
    def start(self):
        return self.controller.start

    @property
    def variety(self):
        return self.controller.variety

    @property
    def op_a(self):
        return self.controller.op_a

    @property
    def op_b(self):
        return self.controller.op_b

    @property
    def running(self):
        return self.controller.running

    @property
    def completed(self):
        return self.controller.completed


class DirectMachine:
    """Drives a bare smart-memory core cycle-accurately, without the RTM.

    Used by unit tests and by the benchmarks that isolate a machine's
    fixed-cycle behaviour from message/pipeline overhead.  Subclasses set
    ``spec``/``core_name`` and layer their high-level operations on
    :meth:`op`.
    """

    spec: Optional[UnitSpec] = None
    core_name: str = "smemcore"

    def __init__(
        self,
        n_cells: int,
        word_bits: int = 32,
        array_kind: ArrayKind = "vector",
        backend: str = "event",
        wheel: bool = True,
    ):
        if self.spec is None:
            raise TypeError(f"{type(self).__name__} binds no unit spec")
        self.core = self.spec.core(self.core_name, n_cells, word_bits,
                                   array_kind=array_kind)
        self.sim = Simulator(self.core, wheel=wheel, backend=backend)
        self.sim.reset()

    @property
    def cycles(self) -> int:
        return self.sim.now

    def op(self, variety: int, op_a: int = 0, op_b: int = 0, max_cycles: int = 1000) -> dict:
        """Run one microprogram to completion; returns outputs + cycle cost."""
        core = self.core
        start_cycle = self.sim.now
        core.variety.force(variety)
        core.op_a.force(op_a)
        core.op_b.force(op_b)
        core.start.force(1)
        self.sim.step()  # the start edge
        core.start.force(0)
        # run until the done strobe
        self.sim.settle()
        guard = 0
        while not core.completed.value:
            self.sim.step()
            self.sim.settle()
            guard += 1
            if guard > max_cycles:
                raise RuntimeError(f"microprogram {variety:#x} did not complete")
        self.sim.step()  # commit the done word (outputs latch here)
        ctrl = core.controller
        return {
            "data1": ctrl.out_data1.value,
            "data2": ctrl.out_data2.value,
            "flags": ctrl.out_flags.value,
            "cycles": self.sim.now - start_cycle,
        }
