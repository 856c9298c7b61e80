"""The functional unit table.

Routes user instructions to functional-unit ports and carries each unit's
static *write profile* — which destination fields an instruction with a
given variety code actually writes.  Thesis Fig. 1.4 notes the lookup
tables are "implicitly synthesised into [the] Decoder" with "external table
module definitions [to] alleviate customisation": here the table is built
at system-assembly time from the registered units, and the write profile is
the per-unit decode information the dispatcher's lock manager needs (lock
exactly what will be written, no more).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..fu.base import FunctionalUnit
from ..isa.opcodes import ARITH_OUTPUT_DATA, Opcode

#: variety → (writes_dst1, writes_dst2, writes_flags)
WriteProfile = Callable[[int], tuple[bool, bool, bool]]


def default_write_profile(variety: int) -> tuple[bool, bool, bool]:
    """Safe default: one data result plus flags."""
    return True, False, True


def arith_write_profile(variety: int) -> tuple[bool, bool, bool]:
    """Table 3.1: the "Output data" variety bit gates the data write."""
    return bool(variety & ARITH_OUTPUT_DATA), False, True


@dataclass(frozen=True)
class UnitEntry:
    """One row of the functional unit table."""

    code: int
    port: int                     # index of the unit's dispatch/result ports
    unit: FunctionalUnit
    write_profile: WriteProfile
    #: dispatch-to-result latency in cycles (1 = single-cycle); defaulted
    #: from the unit's ``latency_cycles`` at registration, so existing
    #: registrations are untouched.  Consumed by the issue observability
    #: layer and checked against the unit by the ``issue.*`` lint rules.
    latency: int = 1


class FunctionalUnitTable:
    """opcode → :class:`UnitEntry` lookup consulted by the decoder."""

    def __init__(self) -> None:
        self._entries: dict[int, UnitEntry] = {}
        #: units in port order; ports are assigned in registration order,
        #: so each registration appends (the dispatchers read this on
        #: every comb run)
        self._units: tuple[FunctionalUnit, ...] = ()
        #: optional config-bit guard (repro.faults.FutableGuard): every
        #: consultation re-validates the rows against a golden copy first
        self._guard = None

    def add(
        self,
        code: int,
        unit: FunctionalUnit,
        write_profile: Optional[WriteProfile] = None,
        latency: Optional[int] = None,
        *,
        trust_latency: bool = False,
    ) -> UnitEntry:
        if code in self._entries:
            raise ValueError(f"unit code {code:#x} already in the table")
        if write_profile is None:
            write_profile = getattr(unit, "write_profile", None) or (
                arith_write_profile if code == Opcode.ARITH else default_write_profile
            )
        if latency is None:
            latency = int(getattr(unit, "latency_cycles", 1))
        elif not trust_latency:
            # An explicit latency that contradicts the unit's own pipeline
            # depth would mis-steer the issue observability layer (and the
            # scoreboard timing models built on it) for every instruction
            # the row routes; fail at registration, not first dispatch.
            actual = getattr(unit, "latency_cycles", None)
            if actual is not None and int(latency) != int(actual):
                raise ValueError(
                    f"unit code {code:#x}: registered latency {latency} "
                    f"contradicts {type(unit).__name__}.latency_cycles "
                    f"({actual}); drop the latency= override or pass "
                    "trust_latency=True if the table is deliberately lying"
                )
        entry = UnitEntry(code, len(self._entries), unit, write_profile, latency)
        self._entries[code] = entry
        self._units += (unit,)
        return entry

    def lookup(self, code: int) -> Optional[UnitEntry]:
        if self._guard is not None:
            self._guard.on_access()
        return self._entries.get(code)

    @property
    def entries(self) -> dict[int, UnitEntry]:
        """The opcode → entry rows (fixed after system assembly)."""
        if self._guard is not None:
            self._guard.on_access()
        return self._entries

    @property
    def units(self) -> tuple[FunctionalUnit, ...]:
        """Units in port order."""
        if self._guard is not None:
            self._guard.on_access()
        return self._units

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, code: int) -> bool:
        return code in self._entries
