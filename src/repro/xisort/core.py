"""The ξ-sort core: controller + microcode ROM + SIMD cell array.

Thesis §3.3.3: "The SIMD processor unit consists of a controller unit, a
ROM storing microcode programs controlling the SIMD cells and an array of
the actual SIMD cells."  :data:`XiSortCore` is the smart-memory kit's
:class:`~repro.smem.core.SmartMemoryCore` derived from the ξ-sort unit
spec; it exposes the controller's start/variety/operand interface — the
boundary the functional-unit adapter (thesis Fig. 3.13) attaches to.

The core can also be driven *directly* (without the coprocessor framework)
via :class:`DirectXiSortMachine`, which is how the fixed-cycles-per-
operation benchmarks measure the machine in isolation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..smem.core import ArrayKind, DirectMachine
from .cellarray import XISORT
from .microcode import (
    XI_FIND_PIVOT,
    XI_FIND_PIVOT_AT,
    XI_WRITE_AT,
    XI_RANK,
    XI_COUNT_EQ,
    XI_LOAD,
    XI_READ_AT,
    XI_RESET,
    XI_SPLIT,
    XI_STATUS,
    unpack_interval,
)

__all__ = ["ArrayKind", "XiSortCore", "DirectXiSortMachine"]


#: controller + cell array, ready to adapt into the framework
XiSortCore = XISORT.core


class DirectXiSortMachine(DirectMachine):
    """Drives a bare ξ-sort core cycle-accurately, without the RTM.

    Used by unit tests and by the benchmarks that isolate the smart-memory
    machine's fixed-cycle behaviour from message/pipeline overhead.
    """

    spec = XISORT
    core_name = "xicore"

    # -- high-level operations ------------------------------------------------------

    def reset_array(self) -> int:
        return self.op(XI_RESET)["cycles"]

    def load(self, values: Sequence[int]) -> int:
        """Shift in all values (last ends up in cell 0); returns cycles."""
        total = 0
        n = len(values)
        for v in values:
            total += self.op(XI_LOAD, v, n - 1)["cycles"]
        return total

    def find_pivot(self) -> Optional[tuple[int, int, int]]:
        """(datum, lower, upper) of the leftmost imprecise cell, or None."""
        out = self.op(XI_FIND_PIVOT)
        if not out["flags"] & 0x01:
            return None
        lo, hi = unpack_interval(out["data2"])
        return out["data1"], lo, hi

    def split(self, pivot: int, lower: int, upper: int) -> int:
        """One refinement step; returns k (elements below the pivot)."""
        from .microcode import pack_interval

        return self.op(XI_SPLIT, pivot, pack_interval(lower, upper))["data1"]

    def read_at(self, index: int) -> Optional[int]:
        out = self.op(XI_READ_AT, index)
        return out["data1"] if out["flags"] & 0x01 else None

    def imprecise_count(self) -> int:
        return self.op(XI_STATUS)["data1"]

    def rank(self, value: int) -> int:
        """|{occupied cells with data < value}| — a constant-time order
        statistic over the whole smart memory."""
        return self.op(XI_RANK, value)["data1"]

    def count_eq(self, value: int) -> int:
        """Multiplicity of ``value`` (0 = absent) in constant time."""
        return self.op(XI_COUNT_EQ, value)["data1"]

    def write_at(self, index: int, value: int) -> bool:
        """Overwrite the datum at a precise index; True when a cell matched.

        The smart-memory update path: the interval is untouched, so the
        caller owns the ordering invariant afterwards.
        """
        out = self.op(XI_WRITE_AT, index, value)
        return bool(out["flags"] & 0x01)

    def sort(self, values: Sequence[int]) -> list[int]:
        """Full χ-sort of distinct values; returns them in ascending order."""
        self.reset_array()
        self.load(values)
        while True:
            pivot = self.find_pivot()
            if pivot is None:
                break
            self.split(*pivot)
        return [self.read_at(i) for i in range(len(values))]

    def find_pivot_at(self, k: int) -> Optional[tuple[int, int, int]]:
        """Pivot of the segment whose interval contains index k (or None)."""
        out = self.op(XI_FIND_PIVOT_AT, k)
        if not out["flags"] & 0x01:
            return None
        lo, hi = unpack_interval(out["data2"])
        return out["data1"], lo, hi

    def select(self, values: Sequence[int], k: int) -> int:
        """k-th smallest (0-based) via interval refinement along one path.

        Only the segment containing k is ever split, so the expected number
        of refinement rounds is O(log n) — the quickselect analogue.
        """
        self.reset_array()
        self.load(values)
        while True:
            out = self.op(XI_READ_AT, k)
            if out["flags"] & 0x01:
                return out["data1"]
            pivot = self.find_pivot_at(k)
            if pivot is None:
                raise RuntimeError("no imprecise interval contains k; bad state")
            self.split(*pivot)
