"""The ξ-sort controller — the kit's two-state FSM.

The FSM, ROM flattening, ALU and controller-local atoms all live in
:class:`repro.smem.controller.MicroController`.  What is ξ-sort-specific
— the three load buses of the shift-load command, driven next to
``cmd``/``broadcast``, and the fold-tree atoms of the ξ-sort cell array —
is declared in the ξ-sort unit spec (:data:`repro.xisort.cellarray.XISORT`),
so the kit controller runs ξ-sort as it is.  This module keeps the
historical import surface.
"""

from __future__ import annotations

from ..smem.controller import N_TEMPS, MicroController

__all__ = ["XiSortController", "N_TEMPS"]

#: the controller a ξ-sort core instantiates over
#: :data:`~repro.xisort.microcode.MICROCODE`
XiSortController = MicroController
