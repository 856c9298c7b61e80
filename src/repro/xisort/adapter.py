"""The functional-unit adapter for the ξ-sort core (thesis Figs. 3.13/3.14).

"The functional unit connected to the coprocessor components is realised
using a functional unit adapter component.  This adapter module connects
the actual ξ-sort core to the dispatcher and the write arbiter ... The idea
behind the design is to separate the ξ-sort controller logic from the
interface logic required by the framework."

The interface logic itself — the Fig. 3.14 FSM, the output buffering, the
write-profile-shaped transfers — is machine-independent and lives in the
smart-memory kit's :class:`~repro.smem.adapter.SmartMemoryUnit`;
:data:`XiSortUnit` is that adapter derived from the ξ-sort unit spec,
bound to the ξ-sort core and the write profile of its ROM.
"""

from __future__ import annotations

from ..smem.adapter import AdapterState
from .cellarray import XISORT

__all__ = ["AdapterState", "XiSortUnit", "xisort_factory"]

XiSortUnit = XISORT.unit
#: unit-registry factory for a ξ-sort unit of a given size
xisort_factory = XISORT.factory
