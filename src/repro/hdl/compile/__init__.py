"""Graph-specialized codegen backend for the simulation kernel.

``Simulator(top, backend="compiled")`` flattens the elaborated component
graph into one specialized Python module — rank-ordered combinational
evaluation from per-process wake flags, a fused sequential/commit edge
phase whose processes run from the same wake flags, and
numpy-vectorized executors for SIMD-regular structures — then
``exec``-compiles it once per system.  Processes whose dependence closure
the compiler front end (:func:`.frontend.place`, on the lint AST pass's
resolution) cannot prove fall back to interpreted, read-tracked execution
automatically, so the backend is always safe to select.

Modules
-------

* :mod:`.frontend` — placement (absorbed, static slot, read-tracked slot,
  every sweep, every edge), shared with the ``compile.fallback`` lint
  rule, and residual translation: each process body and time-wheel hook
  specialized with its signal accesses inlined, built once per code
  object;
* :mod:`.codegen` — emits the dispatching module source (settle sweep,
  edge phase, wheel scan) around the specialized bodies;
* :mod:`.vector` — vectorized executors for components publishing the
  ``__compile_vector__`` hook (the ξ-sort cell arrays);
* :mod:`.engine` — :class:`~repro.hdl.compile.engine.CompiledSimulator`,
  the drop-in :class:`~repro.hdl.sim.Simulator` subclass driving the
  generated module.
"""

from .engine import CompiledSimulator

__all__ = ["CompiledSimulator"]
