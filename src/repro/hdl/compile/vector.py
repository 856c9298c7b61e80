"""Vectorized-executor discovery for the compiled backend.

A component opts its SIMD-regular substructure into the numpy path by
publishing a ``__compile_vector__()`` method.  Every process in that
component's subtree is *absorbed* (:func:`absorbed_procs`): the code
generator drops it from the sweep/edge plans, and the executor the hook
returns, called once at compile time, replaces it with array operations:

* ``settle()`` — recompute the combinational outputs derived from the
  vector state, returning True when work was done.  Implementations
  epoch-guard this so repeated sweeps of one settle cost nothing.
* ``edge()`` — apply one clock edge to the vector state, returning True
  when state actually changed (the engine then re-settles next cycle).
* ``horizon()`` — time-wheel contribution: ``0`` vetoes the next jump
  (real work pending), ``None`` leaves other hooks in charge.
* ``on_reset()`` — restore power-on state (called from
  :meth:`CompiledSimulator.reset` after the component reset hooks).
* ``n_cells`` — element count, reported in ``KernelStats.vectorized_cells``.

Absorption is decided from the component tree alone, so the
``compile.fallback`` lint rule shares it without calling a hook (a hook
may redirect live state: a structural smart array's reads go through its
executor's vectors from then on).

The concrete executors live next to the structures they vectorize (every
smart-memory array publishes the kit's in :mod:`repro.smem.array`); this
module only defines the discovery walk, keeping the kernel free of any
dependency on the functional-unit libraries built on top of it.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from ..component import Component

__all__ = ["VectorExecutor", "absorbed_procs", "collect_executors"]


@runtime_checkable
class VectorExecutor(Protocol):
    """Structural contract for compiled-backend vector executors."""

    n_cells: int

    def settle(self) -> bool: ...

    def edge(self) -> bool: ...

    def horizon(self) -> Any: ...

    def on_reset(self) -> None: ...


def _vector_roots(top: Component) -> list[Component]:
    """The components under ``top`` publishing ``__compile_vector__``."""
    return [comp for comp in top.walk()
            if getattr(comp, "__compile_vector__", None) is not None]


def absorbed_procs(top: Component) -> set[int]:
    """``id`` of every process a vector executor replaces: all processes in
    the subtree of a component publishing ``__compile_vector__``."""
    return {id(fn) for root in _vector_roots(top) for comp in root.walk()
            for fn in (*comp.comb_procs, *comp.seq_procs)}


def collect_executors(top: Component) -> list:
    """Instantiate the executor of every component publishing the hook."""
    return [getattr(root, "__compile_vector__")() for root in _vector_roots(top)]
